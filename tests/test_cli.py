import argparse
import copy
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qram_bounds import bounds, cli, lattice, qram
from qram_bounds.cli import AxisSpec, SweepGrid, fig3_grid, fig4_grid, main, run_sweep
from qram_bounds.params import Conventions, HardwareParams, ParamsError

GOOD_CONFIG = """\
a = 1e-6
delta_t = 1e-3
g1 = 6283.185307179586
g2 = 6283.185307179586
lambda = 1.0
m = 1.0
d = 1
nu = 1
c_max = 3e8
"""

RESULTS = Path(__file__).resolve().parents[1] / "results"

# A 2D two-range lattice where every closed-form velocity source gives a
# finite capacity; BOUND_RECORD_GOLDEN holds the ``record`` line of each.
CONFIG_2D_TWO_RANGE = GOOD_CONFIG.replace("lambda = 1.0", "lambda = 2250, 300").replace(
    "m = 1.0", "m = 1e-15").replace("d = 1", "d = 2").replace("nu = 1", "nu = 2")

BOUND_RECORD_GOLDEN = {
    "lieb_robinson": 'record {"max_qubits_total": 1.9885194046353183e+19, '
    '"max_linear_extent": 4459281785.93293, "velocity_used": 9033.271832508972, '
    '"log_base": "natural", "depth_exponent": 2, "velocity_source": "lieb_robinson", '
    '"a": 1e-06, "tau0": 0.001, "d": 2}',
    "group": 'record {"max_qubits_total": 6.060894497833612e+17, '
    '"max_linear_extent": 778517469.1574757, "velocity_used": 1857.4175621006707, '
    '"log_base": "natural", "depth_exponent": 2, "velocity_source": "group", '
    '"a": 1e-06, "tau0": 0.001, "d": 2}',
    "qft": 'record {"max_qubits_total": 1.3056424407701312e+18, '
    '"max_linear_extent": 1142647119.9675477, "velocity_used": 2626.7851073127395, '
    '"log_base": "natural", "depth_exponent": 2, "velocity_source": "qft", '
    '"a": 1e-06, "tau0": 0.001, "d": 2}',
}

# The ``record`` line of a plain ``qram-bounds bound``, at the preset.
PLAIN_BOUND_RECORD_GOLDEN = (
    'record {"max_qubits_total": 13017704583.920462, '
    '"max_linear_extent": 13017704583.920462, "velocity_used": 24000.0, '
    '"log_base": "natural", "depth_exponent": 2, "velocity_source": "lieb_robinson", '
    '"a": 1e-06, "tau0": 0.001, "d": 1}')


def assert_one_error_line(captured, message=""):
    """A refused input prints exactly one ``error:`` line and nothing else."""
    assert captured.err.startswith("error: " + message)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "hw.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


class TestBoundCommand:
    def test_naive_preset_reproduces_headline_number(self, capsys):
        assert main(["bound", "--kind", "naive"]) == 0
        out = capsys.readouterr().out
        value = float(re.search(r"N <= ([\d.e+]+)", out).group(1))
        assert value == pytest.approx(8.9e12, rel=0.02)

    def test_explicit_velocity_no_log_factor(self, capsys):
        assert main(["bound", "--velocity", "6000", "--depth-exponent", "0"]) == 0
        out = capsys.readouterr().out
        assert "6.000000e+06" in out
        record = json.loads(out.splitlines()[-1].removeprefix("record "))
        assert record["velocity_used"] == 6000.0
        assert record["depth_exponent"] == 0

    def test_config_file_used(self, config_file, capsys):
        assert main(["bound", "--config", config_file, "--velocity", "6000",
                     "--depth-exponent", "0"]) == 0
        record = json.loads(
            capsys.readouterr().out.splitlines()[-1].removeprefix("record "))
        assert record["tau0"] == pytest.approx(1e-3)

    def test_teleport_kind(self, capsys):
        code = main(["bound", "--kind", "teleport", "--depth-exponent", "0"])
        assert code == 2  # preset is 1D; teleport demands d=2
        path_out = capsys.readouterr()
        assert "teleport-hybrid defined for d=2" in path_out.err

    @pytest.mark.parametrize("argv,message", [
        (["--kind", "naive", "--velocity", "5", "--velocity-source", "qft",
          "--depth-exponent", "7"],
         "--kind naive ignores --velocity, --velocity-source, --depth-exponent"),
        (["--kind", "naive", "--depth-exponent", "2"], "--kind naive ignores --depth-exponent"),
        (["--kind", "naive", "--velocity-source", "lieb_robinson"],
         "--kind naive ignores --velocity-source"),
        (["--kind", "teleport", "--velocity", "6000"], "--kind teleport ignores --velocity"),
        (["--kind", "teleport", "--velocity-source", "qft", "--depth-exponent", "0"],
         "--kind teleport ignores --velocity-source"),
        (["--velocity", "6000", "--velocity-source", "group"],
         "--velocity ignores --velocity-source")])
    def test_flags_the_kind_ignores_exit_2(self, argv, message, tmp_path, capsys):
        # the naive bound is p = 1 at c_max, the teleport bound's velocity
        # source is teleport-hybrid; a valid 2D config leaves no other refusal
        path = tmp_path / "hw2d.cfg"
        path.write_text(GOOD_CONFIG.replace("d = 1", "d = 2"))
        assert main(["bound", "--config", str(path), *argv]) == 2
        assert_one_error_line(capsys.readouterr(), f"{message}\n")

    def test_missing_config_exits_2(self, capsys):
        assert main(["bound", "--config", "/nonexistent.cfg"]) == 2
        assert "config not found" in capsys.readouterr().err

    def test_config_that_is_not_text_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "binary.cfg"
        path.write_bytes(GOOD_CONFIG.encode() + b"\xff\n")
        assert main(["bound", "--config", str(path)]) == 2
        assert_one_error_line(capsys.readouterr(), f"config is not text: {path}\n")

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace("a = 1e-6", "a = 0"))
        assert main(["bound", "--config", str(path)]) == 2
        assert "nonpositive lattice spacing" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("g1 = inf", "non-finite g1"),
        ("g1 = nan", "non-finite g1"),
        ("m = inf", "non-finite site mass m"),
        ("lambda = nan", "non-finite spring constant in lam"),
    ])
    def test_non_finite_config_exits_2(self, tmp_path, capsys, line, message):
        key = line.split()[0]
        text = "\n".join(line if raw.split()[0] == key else raw
                         for raw in GOOD_CONFIG.splitlines())
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        assert main(["bound", "--config", str(path), "--velocity", "6000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


    def test_coupling_too_small_for_tau0_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.cfg"
        path.write_text(GOOD_CONFIG.replace("g1 = 6283.185307179586", "g1 = 5e-324"))
        assert main(["bound", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: non-finite tau0 = pi/g1 + pi/g2 from "
                                "coupling g1=5e-324\n")
        assert captured.out == ""

    @pytest.mark.parametrize("edit,lam,m", [
        ({"m = 1.0": "m = 5e-324"}, "(1.0,)", "5e-324"),
        ({"m = 1.0": "m = 3e-308", "lambda = 1.0": "lambda = 0,0,1",
          "nu = 1": "nu = 3"}, "(0.0, 0.0, 1.0)", "3e-308")])
    def test_group_velocity_of_overflowing_lattice_exits_2(self, edit, lam, m,
                                                           tmp_path, capsys):
        text = GOOD_CONFIG
        for old, new in edit.items():
            text = text.replace(old, new)
        path = tmp_path / "tiny_m.cfg"
        path.write_text(text)
        assert main(["bound", "--config", str(path),
                     "--velocity-source", "group"]) == 2
        assert_one_error_line(capsys.readouterr(), "dispersion bound d*sum_j "
                              f"max(4, j^2)*lam_j/m overflows at lam={lam}, m={m}")

    def test_group_velocity_out_of_float_range_exits_2(self, tmp_path, capsys):
        # a*v = 1e160 * 1e150 overflows; it was capped at c_max in silence
        text = GOOD_CONFIG.replace("a = 1e-6", "a = 1e160").replace(
            "lambda = 1.0", "lambda = 1e300").replace("c_max = 3e8", "c_max = 1e300")
        path = tmp_path / "wide.cfg"
        path.write_text(text)
        assert main(["bound", "--config", str(path),
                     "--velocity-source", "group"]) == 2
        assert_one_error_line(capsys.readouterr(),
                              "physical group velocity overflows at a=1e+160")
        path.write_text(text.replace("a = 1e160", "a = 1e150"))
        assert main(["bound", "--config", str(path),
                     "--velocity-source", "group"]) == 0
        assert "velocity used [m/s]: 1e+300" in capsys.readouterr().out

    def test_lieb_robinson_velocity_out_of_float_range_exits_2(self, tmp_path,
                                                              capsys):
        # a*v = 1e160 * 4e150 overflows; it was capped at c_max in silence
        text = GOOD_CONFIG.replace("a = 1e-6", "a = 1e160").replace(
            "lambda = 1.0", "lambda = 1e300").replace("c_max = 3e8", "c_max = 1e300")
        path = tmp_path / "wide.cfg"
        path.write_text(text)
        assert main(["bound", "--config", str(path),
                     "--velocity-source", "lieb_robinson"]) == 2
        assert_one_error_line(capsys.readouterr(), "physical Lieb-Robinson "
                              "velocity overflows at a=1e+160")
        path.write_text(text.replace("a = 1e160", "a = 1e150"))
        assert main(["bound", "--config", str(path),
                     "--velocity-source", "lieb_robinson"]) == 0
        assert "velocity used [m/s]: 1e+300" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["lieb_robinson", "qft"])
    def test_closed_form_velocity_of_tiny_mass_is_capped(self, source, tmp_path,
                                                         capsys):
        # the closed forms build no lattice: their velocity is capped at c_max
        path = tmp_path / "tiny_m.cfg"
        path.write_text(GOOD_CONFIG.replace("m = 1.0", "m = 5e-324"))
        assert main(["bound", "--config", str(path),
                     "--velocity-source", source]) == 0
        assert "velocity used [m/s]: 3e+08" in capsys.readouterr().out

    @pytest.mark.parametrize("source,edits,message", [
        # 4 / sqrt(5e-324) ~ 1.8e162 sites/s is finite; times a = 1e150 it is not
        ("lieb_robinson", {"a = 1e-6": "a = 1e150"},
         "physical Lieb-Robinson velocity overflows at a=1e+150"),
        ("lieb_robinson", {"lambda = 1.0": "lambda = 1e308"},
         "Lieb-Robinson speed overflows a float at d=1, lam=(1e+308,), m=5e-324"),
        ("qft", {"a = 1e-6": "a = 1.0", "lambda = 1.0": "lambda = 1e308"},
         "continuum speed overflows a float at stiffness 1e+308, density 5e-324"),
    ])
    def test_closed_form_velocity_past_the_float_range_exits_2(
            self, source, edits, message, tmp_path, capsys):
        # these velocities were +inf and capped at c_max (exit 0)
        text = GOOD_CONFIG.replace("m = 1.0", "m = 5e-324")
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "wide.cfg"
        path.write_text(text)
        assert main(["bound", "--config", str(path), "--velocity-source", source]) == 2
        assert_one_error_line(capsys.readouterr(), message)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_velocity_exits_2(self, value, capsys):
        assert main(["bound", f"--velocity={value}"]) == 2
        assert_one_error_line(capsys.readouterr(),
                              f"non-finite explicit velocity {float(value)}")

    @pytest.mark.parametrize("source", sorted(BOUND_RECORD_GOLDEN))
    def test_two_range_2d_record_golden(self, source, tmp_path, capsys):
        path = tmp_path / "hw2d.cfg"
        path.write_text(CONFIG_2D_TWO_RANGE)
        assert main(["bound", "--config", str(path), "--velocity-source", source]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == BOUND_RECORD_GOLDEN[source]

    @pytest.mark.parametrize("edits,message", [
        ({"nu = 1": "nu = 0"}, "nonpositive interaction range"),
        ({"nu = 1": "nu = -3"}, "nonpositive interaction range"),
        ({"nu = 1": "nu = 2"}, "range/coupling length mismatch"),
        ({"lambda = 1.0": "lambda = 1.0, 0.5"}, "range/coupling length mismatch"),
        ({"nu = 1": "nu = 0", "d = 1": "d = 4"}, "dimension must be 1, 2, or 3"),
    ])
    def test_config_range_refused_exits_2(self, edits, message, tmp_path, capsys):
        text = GOOD_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "hw.cfg"
        path.write_text(text)
        assert main(["bound", "--config", str(path), "--velocity", "6000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_plain_bound_record_golden(self, capsys):
        # the preset's coupling gives a long-wave speed of 6000 m/s and a
        # Lieb-Robinson velocity four times that
        assert main(["bound"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == PLAIN_BOUND_RECORD_GOLDEN

    @pytest.mark.parametrize("source", ["group", "qft"])
    @pytest.mark.parametrize("p,total", [(2, 2843118674.7381115), (0, 6000000.0)])
    def test_preset_long_wave_sources_give_the_sound_speed(self, source, p, total, capsys):
        assert main(["bound", "--velocity-source", source,
                     "--depth-exponent", str(p)]) == 0
        record = json.loads(
            capsys.readouterr().out.splitlines()[-1].removeprefix("record "))
        assert (record["velocity_used"], record["max_qubits_total"]) == (
            cli.SOUND_SPEED, total)

    def test_plain_bound_refuses_below_the_root_threshold(self, config_file, capsys):
        # GOOD_CONFIG's Lieb-Robinson velocity (4e-6 m/s) gives R = 0.004
        assert main(["bound", "--config", config_file]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: no fixed point above 1 for N = 0.004*log^2(N): "
                                "R is below the root threshold 1.847264025\n")
        assert captured.out == ""

    def test_teleport_kind_runs_the_capacity_path_at_c_max(self, tmp_path, capsys):
        path = tmp_path / "hw2d.cfg"
        path.write_text(GOOD_CONFIG.replace("d = 1", "d = 2"))
        assert main(["bound", "--kind", "teleport", "--config", str(path),
                     "--depth-exponent", "0"]) == 0
        record = json.loads(
            capsys.readouterr().out.splitlines()[-1].removeprefix("record "))
        assert record["velocity_source"] == "teleport-hybrid"
        assert record["velocity_used"] == 3e8
        assert record["max_qubits_total"] == pytest.approx(9e22, rel=1e-12)

    @pytest.mark.parametrize("edits,argv,message", [
        # p = 0 at GOOD_CONFIG: R = 4e-6 m/s * 1e-3 s / 1e-6 m = 0.004 qubits
        # printed "max qubits (total): 4.000000e-03" and exited 0
        ({}, ["--depth-exponent", "0"],
         "no fixed point above 1 for N = 0.004*log^0(N)"),
        # v*tau0 = 2e-323 * 1e-3 underflows: R was 0, "nonpositive ratio R"
        ({"a = 1e-6": "a = 5e-324", "lambda = 1.0": "lambda = 5e-324",
          "m = 1.0": "m = 5e-324"}, [],
         "ratio R = v*tau0/a leaves the float range at v=2e-323, "
         "tau0=0.001, a=5e-324"),
    ])
    def test_capacity_below_one_qubit_or_out_of_float_range_exits_2(
            self, edits, argv, message, tmp_path, capsys):
        text = GOOD_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        (tmp_path / "hw.cfg").write_text(text)
        assert main(["bound", "--config", str(tmp_path / "hw.cfg"), *argv]) == 2
        assert_one_error_line(capsys.readouterr(), message)

    def test_overflowing_depth_exponent_exits_2(self, capsys):
        assert main(["bound", "--depth-exponent", "200"]) == 2
        assert_one_error_line(capsys.readouterr(), "fixed point of N")

    @pytest.mark.parametrize("a,d,message", [
        ("1e308", 2, "a^d = 1e+308^2 leaves the float range"),
        ("1e308", 3, "a^d = 1e+308^3 leaves the float range"),
        ("5e-324", 2, "a^d = 4.94066e-324^2 leaves the float range"),
        ("5e-324", 3, "a^(2-d) = 4.94066e-324^-1 overflows a float"),
    ])
    def test_qft_spacing_out_of_float_range_exits_2(self, tmp_path, capsys,
                                                      a, d, message):
        path = tmp_path / "hw.cfg"
        path.write_text(GOOD_CONFIG.replace("a = 1e-6", f"a = {a}")
                        .replace("d = 1", f"d = {d}"))
        assert main(["bound", "--config", str(path), "--velocity-source", "qft"]) == 2
        assert_one_error_line(capsys.readouterr(), message)


class TestSweepCommand:
    @pytest.mark.parametrize("argv,message", [
        (["--axis", "velocity:1:10:3:log", "--dims", "7", "--config", "/nonexistent"],
         "--preset ignores --axis, --dims, --config"),
        (["--dims", "1,2,3"], "--preset ignores --dims"),
        (["--config", "/nonexistent"], "--preset ignores --config")])
    def test_flags_a_preset_ignores_exit_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["sweep", "--preset", "fig3", *argv, "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr(), f"{message}\n")
        assert not out.exists()

    def test_fig3_preset_monotone_columns(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["sweep", "--preset", "fig3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#") and "log_base=natural" in lines[0]
        assert lines[1] == "velocity,max_qubits_d1,max_qubits_d2,max_qubits_d3"
        data = np.genfromtxt(str(out), delimiter=",", skip_header=2)
        assert data.shape == (50, 4)
        assert np.all(np.isfinite(data))
        assert np.all(data[:, 1] <= data[:, 2]) and np.all(data[:, 2] <= data[:, 3])
        for col in (1, 2, 3):
            assert np.all(np.diff(data[:, col]) >= 0)

    def test_fig3_spot_check_against_api(self, tmp_path):
        from qram_bounds import bounds
        out = tmp_path / "fig3.csv"
        run_sweep(fig3_grid(), out)
        data = np.genfromtxt(str(out), delimiter=",", skip_header=2)
        row = data[-1]
        r = bounds.qram_max_qubits(
            cli.PRESET_PARAMS,
            Conventions(depth_exponent=2, velocity_source=float(row[0])))
        assert row[1] == pytest.approx(r.max_qubits_total, rel=1e-9)

    def test_fig4_preset_scale(self, tmp_path):
        out = tmp_path / "fig4.csv"
        run_sweep(fig4_grid(), out)
        data = np.genfromtxt(str(out), delimiter=",", skip_header=2)
        assert np.all(np.isfinite(data[:, 2]))
        # consistent with the realistic-clock capacity scale of ~1e14
        assert 1e12 <= data[:, 2].max() <= 1e16

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(fig3_grid(), a)
        run_sweep(fig3_grid(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_single_point_axis_rejected(self):
        with pytest.raises(ParamsError, match="points >= 2"):
            SweepGrid(axes=(AxisSpec("velocity", 1.0, 2.0, 1),),
                      fixed=cli.PRESET_PARAMS, conventions=Conventions())

    def test_grid_size_cap(self):
        with pytest.raises(ParamsError, match="10\\^6"):
            SweepGrid(axes=(AxisSpec("velocity", 1.0, 2.0, 1001),
                            AxisSpec("g", 1.0, 2.0, 1001)),
                      fixed=cli.PRESET_PARAMS, conventions=Conventions())

    def test_unknown_axis_rejected(self):
        with pytest.raises(ParamsError, match="unknown sweep axis"):
            SweepGrid(axes=(AxisSpec("mass", 1.0, 2.0, 5),),
                      fixed=cli.PRESET_PARAMS, conventions=Conventions())

    def test_repeated_dimension_rejected(self):
        with pytest.raises(ParamsError, match=r"dimension 1 repeated in dims \(1, 2, 1\)"):
            SweepGrid(axes=(AxisSpec("velocity", 1.0, 2.0, 3),),
                      fixed=cli.PRESET_PARAMS, conventions=Conventions(),
                      dims=(1, 2, 1))

    def test_repeated_dimension_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--axis", "velocity:1:10:3:log", "--dims", "1,1",
                     "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr(),
                              "dimension 1 repeated in dims (1, 1)")
        assert not out.exists()

    @pytest.mark.parametrize("first,second,quantity", [
        ("velocity", "v2", "velocity"), ("v2", "velocity", "velocity"),
        ("velocity", "velocity", "velocity"), ("v2", "v2", "velocity"),
        ("g", "g", "coupling")])
    def test_axes_setting_one_quantity_rejected(self, first, second, quantity):
        with pytest.raises(ParamsError, match=f"sweep axes '{first}' and "
                           f"'{second}' both set the {quantity}"):
            SweepGrid(axes=(AxisSpec(first, 1.0, 10.0, 2),
                            AxisSpec(second, 100.0, 1000.0, 2)),
                      fixed=cli.PRESET_PARAMS, conventions=Conventions())

    @pytest.mark.parametrize("axes,message", [
        (["velocity:1:10:2:log", "v2:100:1000:2:log"],
         "sweep axes 'velocity' and 'v2' both set the velocity"),
        (["velocity:1:10:2:log", "velocity:100:1000:2:log"],
         "sweep axes 'velocity' and 'velocity' both set the velocity"),
        (["g:1:10:2:log", "g:100:1000:2:log"],
         "sweep axes 'g' and 'g' both set the coupling")])
    def test_axes_setting_one_quantity_exit_2(self, axes, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--out", str(out)]
        for axis in axes:
            argv += ["--axis", axis]
        assert main(argv) == 2
        assert_one_error_line(capsys.readouterr(), message)
        assert not out.exists()

    def test_custom_axis_cli(self, tmp_path, capsys):
        out = tmp_path / "custom.csv"
        code = main(["sweep", "--axis", "velocity:100:1000:5:log",
                     "--dims", "1,2", "--out", str(out)])
        assert code == 0
        data = np.genfromtxt(str(out), delimiter=",", skip_header=2)
        assert data.shape == (5, 3)

    @pytest.mark.parametrize("lo,hi", [
        (1.0, math.inf), (1.0, math.nan), (math.nan, 2.0), (-math.inf, 2.0)])
    def test_non_finite_axis_range_rejected(self, lo, hi):
        with pytest.raises(ParamsError,
                           match="non-finite range for sweep axis 'velocity'"):
            SweepGrid(axes=(AxisSpec("velocity", lo, hi, 3),),
                      fixed=cli.PRESET_PARAMS, conventions=Conventions())

    @pytest.mark.parametrize("axis", ["velocity:1:inf:3:log",
                                      "velocity:1:nan:3:log", "g:nan:1:3:lin"])
    def test_non_finite_axis_range_exits_2(self, axis, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--axis", axis, "--out", str(out)]) == 2
        name = axis.split(":")[0]
        assert_one_error_line(capsys.readouterr(),
                              f"non-finite range for sweep axis '{name}'")
        assert not out.exists()

    @pytest.mark.parametrize("preset,name", [
        ("fig3", "fig3_velocity_sweep.csv"), ("fig4", "fig4_coupling_heatmap.csv")])
    def test_preset_regenerates_committed_csv(self, preset, name, tmp_path):
        out = tmp_path / name
        assert main(["sweep", "--preset", preset, "--out", str(out)]) == 0
        assert out.read_bytes() == (RESULTS / name).read_bytes()

    def test_overflowing_capacity_exits_2(self, config_file, tmp_path, capsys):
        # g = 1e-300 puts the 1D extent near 4e301, whose cube overflows
        out = tmp_path / "x.csv"
        assert main(["sweep", "--axis", "g:1e-300:1e4:2:log", "--dims", "3",
                     "--depth-exponent", "0", "--config", config_file,
                     "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr(), "total capacity 4.35312e+301^3")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["sweep", "--axis", "g:1e-3:1:4:log", "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr(), "[Errno 2]")

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--axis", "velocity:100:1000:1:log"], "points >= 2"),
        # an unreadable list item or axis field is named with its flag
        (["lightcone", "--lam", "1,x"], "--lam needs a float, got 'x'"),
        (["sweep", "--axis", "velocity:1:10:3:log", "--dims", "1,,2"],
         "--dims needs an int, got ''"),
        (["sweep", "--axis", "velocity:1:10:x:log"],
         "--axis points needs an int, got 'x'"),
        (["sweep", "--axis", "velocity:a:10:3:log"],
         "--axis lo needs a float, got 'a'"),
    ])
    def test_bad_axis_spec_exits_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr(), message)
        assert not out.exists()


def per_cell_sweep(grid, out_path):
    """The sweep as each cell alone would give it: a record and conventions
    rebuilt per cell and one ``bounds.qram_max_qubits`` call, written as
    ``run_sweep`` writes its CSV. This is the oracle for ``run_sweep``."""
    fixed = grid.fixed
    axis_cols = [ax.name for ax in grid.axes]
    meta = cli._conventions_record(grid.conventions, fixed, velocity_swept=any(
        cli.AXIS_QUANTITY[name] == "velocity" for name in axis_cols))
    meta["dims"] = ",".join(str(d) for d in grid.dims)
    rows = []
    for point in itertools.product(*(ax.values() for ax in grid.axes)):
        values = dict(zip(axis_cols, point))
        cells = []
        for d in grid.dims:
            params = replace(fixed, d=d, g1=values.get("g", fixed.g1),
                             g2=values.get("g", fixed.g2))
            conv = grid.conventions
            if "velocity" in values:
                conv = replace(conv, velocity_source=values["velocity"])
            if "v2" in values:
                conv = replace(conv, velocity_source=math.sqrt(values["v2"]))
            cells.append(bounds.qram_max_qubits(params, conv).max_qubits_total)
        rows.append((*point, *cells))
    cli.write_csv(out_path, meta,
                  axis_cols + [f"max_qubits_d{d}" for d in grid.dims], rows)


def sweep_outcome(sweep, grid, path):
    """(0, CSV bytes), or (2, the ``error:`` line that ``main`` would print)."""
    try:
        sweep(grid, path)
    except (ValueError, OSError) as exc:
        return 2, f"error: {exc}"
    return 0, path.read_bytes()


# decades, one draw in four at an edge that reaches a refusal of a cell: a
# velocity too slow for a root, a coupling whose tau0 overflows, an R or a
# total past the float range
DECADES = st.one_of(*[st.integers(0, 5)] * 3,
                    st.sampled_from([-323, -310, -300, -150, 150, 300, 308]))


@st.composite
def sweep_axes(draw):
    # a coupling axis alone leaves the named velocity source in use
    names = draw(st.sampled_from([("velocity",), ("v2",), ("g",), ("g",), ("g",),
                                  ("velocity", "g"), ("g", "velocity"),
                                  ("v2", "g"), ("g", "v2")]))
    axes = []
    for name in names:
        lo, hi = sorted(draw(st.lists(DECADES, min_size=2, max_size=2, unique=True)))
        axes.append(AxisSpec(name, 10.0 ** lo, 10.0 ** hi,
                             draw(st.integers(2, 4)), log=draw(st.booleans())))
    return tuple(axes)


@st.composite
def sweep_grids(draw):
    # mostly records whose capacities exist, as in the 2D two-range golden;
    # the edges reach the refusals of each velocity source
    fixed = HardwareParams(
        a=draw(st.sampled_from([1e-6, 1e-6, 1e-3, 1.0, 1e-150, 1e150])),
        delta_t=1e-3,
        g1=draw(st.sampled_from([2000.0 * math.pi, 2000.0 * math.pi, 1.0, 1e-300])),
        g2=draw(st.sampled_from([2000.0 * math.pi, 1.0])),
        lam=tuple(draw(st.lists(st.sampled_from([2250.0, 300.0, 1.0, 1e-30, 1e300]),
                                min_size=1, max_size=2))),
        m=draw(st.sampled_from([1e-15, 1e-15, 1.0, 1e-300])), d=1,
        c_max=draw(st.sampled_from([3e8, 3e8, 1e308, 1.0])))
    conventions = Conventions(
        log_base=draw(st.sampled_from(["natural", "2"])),
        depth_exponent=draw(st.integers(0, 3)),
        velocity_source=draw(st.sampled_from(["lieb_robinson", "qft", "group",
                                              "teleport-hybrid"])))
    dims = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3,
                         unique=True))
    if draw(st.integers(0, 3)) == 0:   # d = 4 is refused by its record
        dims.insert(draw(st.integers(0, len(dims))), 4)
    return SweepGrid(axes=draw(sweep_axes()), fixed=fixed,
                     conventions=conventions, dims=tuple(dims))


class TestSweepAgainstPerCellPath:
    @given(grid=sweep_grids())
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_csv_or_same_first_refusal(self, grid, tmp_path):
        # the refusal must be the one of the first cell that the per-cell
        # path refuses: dimension, then tau0, then velocity, then capacity
        expected = sweep_outcome(per_cell_sweep, grid, tmp_path / "oracle.csv")
        assert sweep_outcome(run_sweep, grid, tmp_path / "sweep.csv") == expected

    @pytest.mark.parametrize("preset", [fig3_grid, fig4_grid])
    def test_one_record_per_dimension_and_one_capacity_call_per_cell(
            self, preset, tmp_path, monkeypatch):
        grid = preset()
        built, calls = [], []
        check_record, capacity = HardwareParams.__post_init__, bounds.capacity

        def counted_check(record):
            built.append(record.d)
            check_record(record)

        def counted_capacity(*args):
            calls.append(args)
            return capacity(*args)

        monkeypatch.setattr(HardwareParams, "__post_init__", counted_check)
        monkeypatch.setattr(bounds, "capacity", counted_capacity)
        rows = run_sweep(grid, tmp_path / "sweep.csv")
        assert len(built) <= len(grid.dims)
        assert len(calls) == rows * len(grid.dims)


class TestLightconeCommand:
    def test_small_scan_passes_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "cone.csv"
        code = main(["lightcone", "--L", "200", "--t-max", "100",
                     "--r-max", "90", "--dt", "0.05", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        fitted = float(re.search(r"fitted velocity:\s+([\d.e+-]+)", text).group(1))
        assert fitted == pytest.approx(1.0, rel=0.10)
        assert fitted < 4.0
        lines = out.read_text().splitlines()
        assert lines[1] == "r,t_arrival,commutator_peak"
        assert len(lines) == 2 + 90

    def test_two_range_bound_reported(self, capsys):
        code = main(["lightcone", "--L", "120", "--lam", "1,1", "--t-max", "40",
                     "--r-max", "40", "--dt", "0.03"])
        assert code == 0
        text = capsys.readouterr().out
        bound = float(re.search(r"commutator bound:\s+([\d.e+-]+)", text).group(1))
        assert bound == pytest.approx(4 * math.sqrt(2), rel=1e-4)
        assert "PASS" in text

    def test_too_small_lattice_exits_2(self, capsys):
        assert main(["lightcone", "--L", "4", "--lam", "1,1"]) == 2
        assert "L too small for range" in capsys.readouterr().err

    @pytest.mark.parametrize("L", ["0", "-4", "3"])
    def test_lattice_below_scan_margin_exits_2(self, L, capsys):
        # L < 1 is refused by LatticeSpec, 1 <= L < 2*nu + 2 by the scan
        assert main(["lightcone", "--L", L]) == 2
        message = "L must be an int >= 1" if int(L) < 1 else "L too small for range"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("lam", ["1.0", "4"])
    def test_physical_velocity_out_of_float_range_exits_2(self, lam, capsys):
        assert main(["lightcone", "--L", "16", "--a", "1e308", "--t-max", "5",
                     "--lam", lam]) == 2
        assert_one_error_line(capsys.readouterr(),
                              "physical fitted velocity overflows at a=1e+308")

    @pytest.mark.parametrize("args,message", [
        (["--dt", "0.0"], "dt must be finite and positive"),
        (["--dt", "-0.1"], "dt must be finite and positive"),
        (["--dt", "nan"], "dt must be finite and positive"),
        (["--t-max", "nan"], "t_max must be finite"),
        (["--t-max", "1e9", "--dt", "1e-3"], "the light-cone node rows need .* above "
                                             "the cap"),
        # printed RuntimeWarnings and "PASS: fitted velocity below bound"
        (["--t-max", "1e308", "--dt", "4e307"], r"phase omega_max\*steps\*\|dt\| "
                                                "of the time signal = .* leaves"),
        # numpy's "Maximum allowed size exceeded"
        (["--t-max", "1.7e308", "--dt", "1e308"], r"t_max \+ dt = 1\.7e\+308 \+ "
                                                  r"1e\+308 overflows a float"),
    ])
    def test_bad_time_grid_exits_2(self, args, message, capsys):
        assert main(["lightcone", "--L", "64", "--r-max", "10", *args]) == 2
        captured = capsys.readouterr()
        assert re.search("error: " + message, captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("args,message", [
        (["--m", "nan"], "non-finite site mass m"),
        (["--a", "inf"], "non-finite lattice spacing a"),
        (["--lam", "1,nan"], "non-finite spring constant in lam"),
    ])
    def test_non_finite_lattice_exits_2(self, args, message, capsys):
        assert main(["lightcone", "--L", "64", "--r-max", "10", "--t-max", "5",
                     "--dt", "0.05", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("args,message", [
        (["--a", "0"], "nonpositive lattice spacing"),
        (["--a=-1e-6"], "nonpositive lattice spacing"),
        (["--a", "nan"], "non-finite lattice spacing a"),
        (["--a=-inf"], "non-finite lattice spacing a"),
        # the lattice is checked first, then the spacing
        (["--a", "0", "--lam", "-1"], "negative spring constant"),
        (["--a", "inf", "--m", "nan"], "non-finite site mass m"),
        (["--a", "0", "--L", "0"], "L must be an int >= 1"),
    ])
    def test_bad_spacing_exits_2_before_the_scan(self, args, message, monkeypatch,
                                                 capsys):
        def never(*args, **kwargs):
            raise AssertionError("scanned before the spacing check")
        monkeypatch.setattr(lattice, "measure_light_cone", never)
        assert main(["lightcone", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("lam,m,shown", [("1.0", "5e-324", "(1.0,)"),
                                             ("0,0,1", "3e-308", "(0.0, 0.0, 1.0)")])
    def test_mass_whose_dispersion_overflows_exits_2(self, lam, m, shown, capsys):
        assert main(["lightcone", "--lam", lam, "--m", m]) == 2
        assert_one_error_line(capsys.readouterr(), "dispersion bound d*sum_j "
                              f"max(4, j^2)*lam_j/m overflows at lam={shown}, m={m}")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "cone.csv"
        assert main(["lightcone", "--L", "40", "--r-max", "10", "--t-max", "8",
                     "--dt", "0.05", "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr(), "[Errno 2]")

    def test_automatic_dt_refuses_oversized_grid_before_building_it(
            self, monkeypatch, capsys):
        # neither the 10^15 mode grid nor the 10^5-point axis of the
        # automatic dt is built before the scan refuses; the orbits (about
        # 2e13 tuples) would come only after that axis
        def no_grid(*args):
            raise AssertionError("mode grid or axis built before the size check")

        monkeypatch.setattr(lattice, "normal_modes", no_grid)
        monkeypatch.setattr(lattice, "omega_max", no_grid)
        assert main(["lightcone", "--d", "3", "--L", "100000", "--t-max", "1"]) == 2
        assert_one_error_line(
            capsys.readouterr(),
            "the orbit weight matrix needs 520895836250050000 array entries")

    def test_automatic_dt_refuses_long_axis_before_reading_it(
            self, monkeypatch, capsys):
        # d = 1, L = 10^9: the 5e8 + 1 orbits refuse the scan before
        # omega_max reads the 10^9-point axis for the automatic dt, which
        # comes before any orbit is built
        def no_axis(*args):
            raise AssertionError("axis built before the size check")

        monkeypatch.setattr(lattice, "omega_max", no_axis)
        assert main(["lightcone", "--L", "1000000000", "--r-max", "2",
                     "--t-max", "1"]) == 2
        assert_one_error_line(
            capsys.readouterr(),
            "the orbit weight matrix needs 1500000003 array entries")

    def test_time_signal_refusal_prints_the_charged_count(self, capsys):
        # a time signal of 638,209 steps is held as 4,987 blocks of 21 node
        # rows, times 191 distances, refused by the one count of the block
        # loop; it once passed a first check and printed "2e+07" from the
        # second
        assert main(["lightcone", "--L", "400", "--r-max", "190", "--dt", "0.02",
                     "--t-max", "12764.16"]) == 2
        assert_one_error_line(capsys.readouterr(), "the light-cone node rows need "
                              "20002857 array entries, above the cap of 20000000\n")

    def test_fit_r_min_beyond_r_max_exits_2(self, capsys):
        # refused before the scan, which would hold 2.76 MB of node rows; so
        # is a fit_r_min below 1, which would fit the distances of fit_r_min = 1
        for fit_r_min, error in (
                ("250", "fit_r_min = 250 leaves fewer than two distances to fit "
                        "(r_max = 190)"),
                ("0", "fit_r_min must be >= 1, got 0"),
                ("-5", "fit_r_min must be >= 1, got -5")):
            tracemalloc.start()
            try:
                assert main(["lightcone", "--L", "400", "--t-max", "220", "--r-max", "190",
                             "--fit-r-min", fit_r_min, "--dt", "0.02"]) == 2
                assert tracemalloc.get_traced_memory()[1] <= 2 ** 20
            finally:
                tracemalloc.stop()
            captured = capsys.readouterr()
            assert captured.err == f"error: {error}\n"
            assert captured.out == ""

    def test_prints_fit_diagnostics(self, capsys):
        assert main(["lightcone", "--L", "64", "--r-max", "20", "--t-max", "6",
                     "--dt", "0.01"]) == 0
        line = re.search(r"fit diagnostics:\s+intercept (\S+) sites, "
                         r"rms residual (\S+) sites, (\d+) of 20 distances "
                         r"without arrival", capsys.readouterr().out)
        assert line and float(line.group(2)) >= 0.0 and int(line.group(3)) > 0

    @pytest.mark.parametrize("name,args", [
        ("cone_1d_nn", ["--L", "400", "--lam", "1.0", "--threshold", "1e-3",
                        "--t-max", "220", "--r-max", "190"]),
        ("cone_1d_two_range", ["--L", "400", "--lam", "1.0,1.0",
                               "--threshold", "1e-3", "--t-max", "110",
                               "--r-max", "190"]),
        ("cone_2d_axis", ["--d", "2", "--L", "64", "--lam", "1.0",
                          "--threshold", "0.1", "--t-max", "45",
                          "--r-max", "30"]),
    ])
    def test_regenerates_committed_cone_rows(self, name, args, tmp_path):
        out = tmp_path / f"{name}.csv"
        assert main(["lightcone", *args, "--dt", "0.02", "--out", str(out)]) == 0

        def data_rows(path):
            return [line for line in path.read_bytes().split(b"\n")
                    if not line.startswith(b"#")]

        committed = Path(__file__).resolve().parents[1] / "results" / f"{name}.csv"
        assert data_rows(out) == data_rows(committed)


LIGHTCONE_GOLDEN = {   # stdout of `lightcone` with these arguments
    (): (
        'fitted velocity:     1.04206 sites/s (1.04206 m/s)\n'
        'group velocity max:  1 sites/s (1 m/s)\n'
        'commutator bound:    4 sites/s\n'
        'fit diagnostics:     intercept 5.14838 sites, rms residual 0.831 sites, '
        '0 of 199 distances without arrival\n'
        'PASS: fitted velocity below bound\n'
    ),
    # a spacing other than 1: the m/s columns are a * (sites/s)
    ("--a", "1e-6", "--lam", "1.0,0.3", "--m", "1.7", "--L", "120", "--t-max", "40"): (
        'fitted velocity:     1.43457 sites/s (1.43457e-06 m/s)\n'
        'group velocity max:  1.13759 sites/s (1.13759e-06 m/s)\n'
        'commutator bound:    3.4979 sites/s\n'
        'fit diagnostics:     intercept 3.10078 sites, rms residual 1.55 sites, '
        '0 of 58 distances without arrival\n'
        'PASS: fitted velocity below bound\n'
    ),
    ("--d", "3", "--L", "64", "--t-max", "20"): (
        'fitted velocity:     1.48412 sites/s (1.48412 m/s)\n'
        'group velocity max:  1 sites/s (1 m/s)\n'
        'commutator bound:    6.9282 sites/s\n'
        'fit diagnostics:     intercept 1.61314 sites, rms residual 1.34 sites, '
        '0 of 31 distances without arrival\n'
        'PASS: fitted velocity below bound\n'
    ),
}

CONE_3D_GOLDEN = (   # CSV rows of a 3D L=32 scan after its "#" line
    'r,t_arrival,commutator_peak',
    '1,0.02,0.2296672228',
    '2,0.04,0.07869767882',
    '3,0.22,0.08218284815',
    '4,0.36,0.07434562483',
    '5,0.68,0.05231922083',
    '6,0.96,0.04223486991',
    '7,1.42,0.04389400772',
    '8,1.9,0.0390692231',
    '9,2.42,0.03179060364',
    '10,2.94,0.02462988314',
    '11,3.46,0.01800655348',
    '12,3.88,0.01179039947',
    '13,4.24,0.007177240363',
    '14,4.62,0.004528844435',
)


class TestLightconeGolden:
    """Pinned from the orbit-per-axis-0-index engine, before the orbit merge
    and the step table (the a = 1e-6 entry from the engine that still formed
    m/s inside the lattice layer): the scan must print the same bytes."""

    @pytest.mark.parametrize("args", sorted(LIGHTCONE_GOLDEN))
    def test_prints_golden_stdout(self, args, capsys):
        assert main(["lightcone", *args]) == 0
        assert capsys.readouterr().out == LIGHTCONE_GOLDEN[args]

    def test_3d_scan_writes_golden_rows(self, tmp_path, capsys):
        out = tmp_path / "cone_3d.csv"
        assert main(["lightcone", "--d", "3", "--L", "32", "--lam", "1.0,0.3",
                     "--m", "0.8", "--t-max", "20", "--r-max", "14",
                     "--dt", "0.02", "--out", str(out)]) == 0
        assert tuple(out.read_text().splitlines()[1:]) == CONE_3D_GOLDEN

    @pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
    def test_multi_tile_scan_independent_of_openblas_kernel(self, kernel, tmp_path,
                                                           capsys):
        # 969 orbits in 4 tiles whose products add into the signal, summed
        # in each kernel's own order: the printed scan and its rows stay put
        argv = ["lightcone", "--d", "3", "--L", "32", "--t-max", "20",
                "--r-max", "14", "--dt", "0.02", "--out"]
        proc = run_cli_under_openblas_kernel(kernel, [*argv, str(tmp_path / "k.csv")])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert main([*argv, str(tmp_path / "default.csv")]) == 0
        assert proc.stdout == capsys.readouterr().out
        assert (tmp_path / "k.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


class TestQramsimCommand:
    def test_database_file_all_addresses(self, tmp_path, capsys):
        db = tmp_path / "db.txt"
        db.write_text("0110")
        assert main(["qramsim", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "PASS: all addresses retrieved" in out
        assert "min fidelity: 1.000000000000" in out

    def test_random_database(self, capsys):
        assert main(["qramsim", "--random-db", "--N", "8", "--seed", "7"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_single_address(self, tmp_path, capsys):
        db = tmp_path / "db.txt"
        db.write_text("0110")
        assert main(["qramsim", "--db", str(db), "--address", "2"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^\s*2\s+1\s+1\s+1\.0", out, re.MULTILINE)

    # at N = 2^50 the bits were drawn before the cap check, and numpy's
    # refusal of an 8 PiB array ended in a traceback with exit code 1
    @pytest.mark.parametrize("N", [8192, 1 << 50])
    def test_oversized_database_exits_2(self, N, capsys):
        assert main(["qramsim", "--random-db", "--N", str(N)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: leaf cap: N <= 4096, got {N}\n"
        assert captured.out == ""

    def test_database_that_is_not_text_exits_2_naming_it(self, tmp_path, capsys):
        db = tmp_path / "db.txt"
        db.write_bytes(b"\xff0101")
        assert main(["qramsim", "--db", str(db)]) == 2
        assert_one_error_line(
            capsys.readouterr(),
            f"database file must contain only 0/1 characters: {db}\n")

    @pytest.mark.parametrize("N", [8, 64])
    def test_one_address_prints_its_line_of_the_full_table(self, N, monkeypatch,
                                                          capsys):
        # both modes are one verify_retrieval verdict: --address k prints the
        # header and address k's line of the all-address run, and a bus
        # flipped at address k fails both modes with the same row
        argv = ["qramsim", "--random-db", "--N", str(N), "--seed", "7"]
        assert main(argv) == 0
        header, *lines = capsys.readouterr().out.splitlines(keepends=True)
        for k in range(N):
            assert main([*argv, "--address", str(k)]) == 0
            assert capsys.readouterr().out == header + lines[k]
        route = qram._route
        for k in range(N):
            def flip(db, addresses, g1, g2, k=k):
                bits, phase = route(db, addresses, g1, g2)
                bits[addresses == k, -1] ^= 1
                return bits, phase

            with monkeypatch.context() as patch:
                patch.setattr(qram, "_route", flip)
                assert main(argv) == 3
                row = capsys.readouterr().out.splitlines(keepends=True)[1 + k]
                assert row.split()[3] == "0.000000000000"
                assert main([*argv, "--address", str(k)]) == 3
                assert capsys.readouterr().out == header + row

    def test_oversized_database_file_exits_2(self, tmp_path, capsys):
        db = tmp_path / "db.txt"
        db.write_text("1" * 8192)
        assert main(["qramsim", "--db", str(db)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: leaf cap: N <= 4096, got 8192\n"
        assert captured.out == ""

    def test_sixteen_leaves_retrieved(self, capsys):
        assert main(["qramsim", "--random-db", "--N", "16", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS: all addresses retrieved" in out
        assert len(re.findall(r"^\s*\d+\s+[01]\s+[01]\s+1\.0+$", out,
                              re.MULTILINE)) == 16

    def test_negative_seed_exits_2(self, capsys):
        assert main(["qramsim", "--random-db", "--N", "8", "--seed", "-1"]) == 2
        assert_one_error_line(capsys.readouterr(), "seed must be >= 0, got -1")

    @pytest.mark.parametrize("address", [[], ["--address", "2"]])
    def test_seed_with_database_file_exits_2(self, address, tmp_path, capsys):
        # only --random-db draws: with --db the seed would change nothing
        db = tmp_path / "db.txt"
        db.write_text("0110")
        assert main(["qramsim", "--db", str(db), "--seed", "1", *address]) == 2
        assert_one_error_line(capsys.readouterr(), "--db ignores --seed\n")

    @pytest.mark.parametrize("N", ["4", "8"])
    def test_size_with_database_file_exits_2(self, N, tmp_path, capsys):
        # the file's length is the size: --N had one accepted value
        db = tmp_path / "db.txt"
        db.write_text("0110")
        assert main(["qramsim", "--db", str(db), "--N", N]) == 2
        assert_one_error_line(capsys.readouterr(), "--db ignores --N\n")

    @pytest.mark.parametrize("flag", ["--g1", "--g2"])
    def test_couplings_are_not_flags(self, flag, capsys):
        # each router gate is exact at its scheduled duration at any coupling,
        # so the couplings set only the time, which qramsim does not print
        with pytest.raises(SystemExit) as exc:
            main(["qramsim", "--random-db", "--N", "8", flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_random_database_seed_defaults_to_7(self, capsys):
        assert main(["qramsim", "--random-db", "--N", "8"]) == 0
        assert capsys.readouterr().out == QRAMSIM_GOLDEN[8]

    def test_non_integer_address_exits_2(self, capsys):
        assert main(["qramsim", "--random-db", "--N", "8", "--address", "abc"]) == 2
        assert_one_error_line(capsys.readouterr(),
                              "address must be 'all' or an integer, got 'abc'")

    def test_file_and_random_database_together_exit_2(self, tmp_path, capsys):
        db = tmp_path / "db8.txt"
        db.write_text("01101001")
        assert main(["qramsim", "--db", str(db), "--random-db", "--N", "8",
                     "--seed", "3"]) == 2
        assert_one_error_line(capsys.readouterr(),
                              "--db and --random-db both give the database\n")

    def test_retrieval_mismatch_exits_3(self, tmp_path, capsys, monkeypatch):
        db = tmp_path / "db.txt"
        db.write_text("0110")
        # corrupt the executor: the routed bus of address 2 comes back flipped
        route = qram._route

        def flip_one_bus(*args):
            bits, phase = route(*args)
            bits[2, -1] ^= 1
            return bits, phase

        monkeypatch.setattr(qram, "_route", flip_one_bus)
        assert main(["qramsim", "--db", str(db)]) == 3
        out = capsys.readouterr().out
        assert "      2        1    0 0.000000000000\n" in out
        assert "MISMATCH address 2: read 0 != oracle\n" in out


QRAMSIM_HEADER = "address expected read fidelity\n"
QRAMSIM_FOOTER = ("min fidelity: 1.000000000000\n"
                  "PASS: all addresses retrieved\n")
QRAMSIM_GOLDEN = {   # stdout of `qramsim --random-db --N N --seed 7`
    2: QRAMSIM_HEADER + """\
      0        1    1 1.000000000000
      1        1    1 1.000000000000
""" + QRAMSIM_FOOTER,
    4: QRAMSIM_HEADER + """\
      0        1    1 1.000000000000
      1        1    1 1.000000000000
      2        1    1 1.000000000000
      3        1    1 1.000000000000
""" + QRAMSIM_FOOTER,
    8: QRAMSIM_HEADER + """\
      0        1    1 1.000000000000
      1        1    1 1.000000000000
      2        1    1 1.000000000000
      3        1    1 1.000000000000
      4        1    1 1.000000000000
      5        1    1 1.000000000000
      6        1    1 1.000000000000
      7        0    0 1.000000000000
""" + QRAMSIM_FOOTER,
}
QRAMSIM_SHA256 = {
    64: "04206e6ada865c555020990f7490bceb34e8fdb59e916cb1f6c2be8a34cf2751",
    1024: "d495dee78c09f0385f8a981e165e4bdca1a227eb80eb740f062a7c9adf305bc5",
    4096: "77d94d3de520197178bd2f4b582fd708fa96af19ec85d186e9c4ace37dd2d29a",  # MAX_LEAVES
}


class TestQramsimGolden:
    """The qramsim contract, pinned byte for byte: stdout and exit code of
    random databases at seed 7. The route map does not depend on the
    couplings, so qramsim takes none; the same bytes come out with the
    read-out run at other couplings."""

    @staticmethod
    def run_at(g1, g2, N, monkeypatch):
        """qramsim at seed 7, its read-out run through the library at the
        couplings (g1, g2) in place of the defaults."""
        monkeypatch.setattr(cli.qram, "verify_retrieval", functools.partial(
            cli.qram.verify_retrieval, g1=g1, g2=g2))
        return main(["qramsim", "--random-db", "--N", str(N), "--seed", "7"])

    @pytest.mark.parametrize("g1,g2", [(math.pi, math.pi), (1.3, 0.7)])
    @pytest.mark.parametrize("N", sorted(QRAMSIM_GOLDEN))
    def test_small_trees_print_golden_table(self, N, g1, g2, monkeypatch, capsys):
        assert self.run_at(g1, g2, N, monkeypatch) == 0
        assert capsys.readouterr().out == QRAMSIM_GOLDEN[N]

    @pytest.mark.parametrize("g1,g2", [(math.pi, math.pi), (1.3, 0.7)])
    @pytest.mark.parametrize("N", sorted(QRAMSIM_SHA256))
    def test_large_trees_print_golden_digest(self, N, g1, g2, monkeypatch, capsys):
        assert self.run_at(g1, g2, N, monkeypatch) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == QRAMSIM_SHA256[N]


class TestParserBuiltOnce:
    def test_second_run_inherits_nothing(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        modes = copy.deepcopy((cli.MODES, cli.DEFAULTS))
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["sweep", "--axis", "g:1e-3:1:3:log", "--axis",
                     "velocity:1e2:1e3:2:log", "--dims", "1,2",
                     "--out", str(first)]) == 0
        assert main(["qramsim", "--random-db", "--N", "2"]) == 0
        assert main(["sweep", "--axis", "v2:1e2:1e4:4:lin",
                     "--out", str(second)]) == 0
        header, *rows = second.read_text().splitlines()[1:]
        assert header == "v2,max_qubits_d1" and len(rows) == 4
        # the namespace holds only the flags given; the table, which no run
        # writes into, gives the rest
        assert (cli.MODES, cli.DEFAULTS) == modes
        parse = cli.build_parser().parse_args
        args = vars(parse(["sweep", "--out", str(second)]))
        assert args.keys() == {"command", "func", "flags", "out"}
        assert args["func"] is cli._cmd_sweep
        args = vars(parse(["bound"]))
        assert args.keys() == {"command", "func", "flags"}
        assert args["func"] is cli._cmd_bound
        assert "dims" in cli.MODES["sweep"]["sweep"] and cli.DEFAULTS["dims"] == "1"
        assert cli.DEFAULTS["velocity_source"] == "lieb_robinson"
        assert cli.DEFAULTS["depth_exponent"] == 2


class TestNoEigensolver:
    def test_commands_but_verify_run_without_an_eigensolver(self, tmp_path):
        # the router gates are closed forms: importing the package, and each
        # command but verify, calls no numpy eigensolver
        child = f"""
import numpy.linalg
def refuse(*args, **kwargs):
    raise AssertionError("numpy eigensolver called")
for name in ("eigh", "eigvalsh", "eig"):
    setattr(numpy.linalg, name, refuse)
from qram_bounds import cli
for argv in (["bound"],
             ["sweep", "--preset", "fig3", "--out", {str(tmp_path / "fig3.csv")!r}],
             ["lightcone", "--L", "64", "--r-max", "10", "--t-max", "5", "--dt", "0.1"],
             ["qramsim", "--random-db", "--N", "8"]):
    assert cli.main(argv) == 0, argv
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", child], capture_output=True,
                             text=True, timeout=120, env=env)
        assert run.returncode == 0, run.stderr
        assert "PASS: all addresses retrieved" in run.stdout


class TestRefusalLines:
    """One argv per refusal that no other test pins by its words: each
    exits 2 with one exact ``error:`` line and prints nothing to stdout."""

    CONFIGS = {"no_equals.cfg": GOOD_CONFIG.replace("delta_t = 1e-3", "delta_t 1e-3"),
               "duplicate.cfg": GOOD_CONFIG.replace("a = 1e-6", "a = 1e-6\na = 2e-6")}

    @pytest.mark.parametrize("argv,message", [
        (["lightcone", "--r-max", "0"], "r_max must be >= 1"),
        (["lightcone", "--t-max", "0"], "t_max must be positive"),
        (["lightcone", "--d", "4"], "dimension must be 1, 2, or 3"),
        (["sweep", "--out", "{tmp}/s.csv", "--axis", "velocity:1:10:2:log",
          "--axis", "g:1:10:2:log", "--axis", "v2:1:10:2:log"],
         "sweep needs 1 or 2 axes"),
        (["sweep", "--out", "{tmp}/s.csv", "--axis", "velocity:10:1:5:log"],
         "axis range must satisfy 0 < lo < hi"),
        (["bound", "--config", "{tmp}/no_equals.cfg"], "line 2: expected 'key = value'"),
        (["bound", "--config", "{tmp}/duplicate.cfg"], "duplicate config key 'a'"),
        (["qramsim", "--random-db", "--N", "8", "--address", "8"],
         "address 8 out of range for N=8"),
    ])
    def test_exits_2_with_one_exact_line(self, argv, message, tmp_path, capsys):
        for name, text in self.CONFIGS.items():
            (tmp_path / name).write_text(text)
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "s.csv").exists()


def openblas_kernel_skip_reason(kernel):
    """Why ``OPENBLAS_CORETYPE=kernel`` cannot be tried here, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS"
    if "openblas" not in blas.lower():
        return f"numpy's BLAS is {blas}, not OpenBLAS"
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return "OpenBLAS x86 kernels need an x86-64 CPU"
    if kernel == "Haswell":
        cpuinfo = Path("/proc/cpuinfo")
        if not cpuinfo.exists() or " avx2" not in cpuinfo.read_text():
            return "the Haswell kernel needs AVX2"
    return None


def run_cli_under_openblas_kernel(kernel, argv):
    """``qram-bounds argv`` in a child process under ``OPENBLAS_CORETYPE=kernel``,
    or a skip where that kernel cannot be tried. The kernel is chosen when
    OpenBLAS loads, so only a child process can run under another one."""
    reason = openblas_kernel_skip_reason(kernel)
    if reason:
        pytest.skip(reason)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "qram_bounds.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=env)


class TestVerifyCommand:
    @pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
    def test_verdicts_independent_of_openblas_kernel(self, kernel):
        proc = run_cli_under_openblas_kernel(kernel, ["verify"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout
        assert len(proc.stdout.splitlines()) == 5

    def test_clean_build_exits_0(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        for suite in ("params", "bounds", "lattice", "gates", "qram"):
            assert f"PASS {suite}" in out

    def test_check_counts(self, capsys):
        assert main(["verify"]) == 0
        out = re.sub(r"\(\d+\.\d\ds\)", "(T)", capsys.readouterr().out)
        assert out.splitlines() == [
            "PASS params: 7/7 checks (T)",
            "PASS bounds: 13/13 checks (T)",
            "PASS lattice: 7/7 checks (T)",
            "PASS gates: 12/12 checks (T)",
            "PASS qram: 7/7 checks (T)",
        ]

    def test_corrupted_dispersion_names_lattice_suite(self, capsys, monkeypatch):
        true_dispersion = lattice.dispersion
        monkeypatch.setattr(lattice, "dispersion",
                            lambda spec, k: 1.01 * true_dispersion(spec, k))
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL lattice" in out

    def test_deterministic_results(self, capsys):
        def status_lines():
            main(["verify"])
            out = capsys.readouterr().out
            return [re.sub(r"\(\d+\.\d+s\)", "", line)
                    for line in out.splitlines()]
        assert status_lines() == status_lines()


BAD_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-300", "abc", ""]
FUZZ_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])

# (valid, bad) values of every flag of every command, for the argv fuzz and
# the flag-effect tests; "{tmp}" is the test's directory, and None gives a
# flag bare. Sizes stay below the caps: L <= 40, N <= 16, at most 5 sweep
# points per axis.
CONVENTION_POOLS = {"log_base": (["natural", "2"], ["10"]),
                    "depth_exponent": (["0", "1", "2", "8"], ["-1", "200", "1000", "1e308"])}
FLAG_POOLS = {
    "bound": {
        "kind": (["naive", "qram", "teleport"], ["bogus"]),
        "config": (["{tmp}/hw.cfg", "{tmp}/hw2d.cfg", "{tmp}/hw2d_range.cfg",
                    "{tmp}/hw2d_wide.cfg"],
                   ["{tmp}/tiny_g.cfg", "{tmp}/missing.cfg", "{tmp}/binary.cfg"]),
        "velocity": (["6000", "1", "2.5"], BAD_NUMBERS),
        "velocity_source": (["lieb_robinson", "qft", "group"], ["warp"]),
        **CONVENTION_POOLS},
    "sweep": {
        "preset": (["fig3", "fig4"], ["fig5"]),
        "axis": (["velocity:1e2:1e3:3:log", "v2:1e2:1e4:4:lin"],
                 ["", "velocity", "velocity:1:2:3", "g:1:2:3:log:extra"]),
        "dims": (["1", "1,2,3", "3"], ["0", "4", "x", ""]),
        "config": (["{tmp}/hw.cfg", "{tmp}/hw2d_wide.cfg"],
                   ["{tmp}/tiny_g.cfg", "{tmp}/missing.cfg", "{tmp}/binary.cfg"]),
        "out": (["{tmp}/out/s.csv", "{tmp}/out/t.csv"], ["{tmp}/missing/s.csv"]),
        **CONVENTION_POOLS},
    "lightcone": {
        "d": (["1", "2", "3"], ["0", "4"]),
        "L": (["16", "40"], ["0", "-1", "4", "abc"]),
        "lam": (["1.0", "1,0.5"], ["0", "-1", "nan", "inf", "x", ""]),
        "m": (["1", "2.5"], BAD_NUMBERS), "a": (["1", "1e-6"], BAD_NUMBERS),
        "threshold": (["1e-3", "0.1"], BAD_NUMBERS), "t_max": (["2", "4"], BAD_NUMBERS),
        "r_max": (["1", "4", "8"], ["0", "-1", "100", "abc"]),
        "dt": (["0.05", "0.1"], BAD_NUMBERS), "fit_r_min": (["1", "3"], ["0", "50"]),
        "out": (["{tmp}/out/c.csv", "{tmp}/out/d.csv"], ["{tmp}/missing/c.csv"])},
    "qramsim": {
        "db": (["{tmp}/db4.txt", "{tmp}/db8.txt"],
               [f"{{tmp}}/{n}.txt" for n in ("db16", "db3", "db0", "dbff", "missing")]),
        "N": (["2", "4", "8"], ["0", "-1", "1", "3", "16", "abc"]),
        "random_db": ([None], [None]),
        "seed": (["0", "7"], ["-1", "abc"]),
        "address": (["all", "0", "3"], ["-1", "100", "x"])},
    "verify": {},
}


def pick(rnd, valid, bad):
    """A valid value nine times in ten, so that most runs get past the first
    check and into the library, else a bad one."""
    return rnd.choice(valid if rnd.random() < 0.9 else bad)


def flag_arg(dest, value, tmp):
    """``--dest=value`` with "{tmp}" filled in, or ``--dest`` for None."""
    flag = f"--{dest.replace('_', '-')}"
    return flag if value is None else f"{flag}={value.format(tmp=tmp)}"


def flags(rnd, tmp, pools, rate=0.75):
    """A value from each pool, each flag given at ``rate``."""
    return [flag_arg(dest, pick(rnd, *pool), tmp)
            for dest, pool in pools.items() if rnd.random() < rate]


@pytest.fixture
def paths(tmp_path):
    """The files that the pools name, and an empty ``out`` directory."""
    (tmp_path / "hw.cfg").write_text(GOOD_CONFIG)
    (tmp_path / "hw2d.cfg").write_text(GOOD_CONFIG.replace("d = 1", "d = 2"))
    (tmp_path / "hw2d_range.cfg").write_text(CONFIG_2D_TWO_RANGE)
    (tmp_path / "hw2d_wide.cfg").write_text(CONFIG_2D_TWO_RANGE.replace("a = 1e-6", "a = 2e-6"))
    (tmp_path / "tiny_g.cfg").write_text(
        GOOD_CONFIG.replace("g1 = 6283.185307179586", "g1 = 5e-324"))
    for name, bits in (("db4", "0110"), ("db8", "01101001"),
                       ("db16", "0110" * 4), ("db3", "012"), ("db0", "")):
        (tmp_path / f"{name}.txt").write_text(bits)
    (tmp_path / "dbff.txt").write_bytes(b"\xff0101")
    (tmp_path / "binary.cfg").write_bytes(GOOD_CONFIG.encode() + b"\xff\n")
    (tmp_path / "out").mkdir()
    return tmp_path


class TestArgvFuzz:
    """Whatever the argv, main returns an exit code in {0, 1, 2, 3} or argparse
    exits with 2; no other exception escapes, and a refusal is one
    ``error:`` line."""

    def run(self, argv, capsys):
        capsys.readouterr()   # drop what earlier examples printed
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refused the argv
            assert exc.code == 2
            return
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert_one_error_line(captured)

    @given(rnd=st.randoms(use_true_random=False))
    @FUZZ_SETTINGS
    def test_bound(self, rnd, paths, capsys):
        self.run(["bound", *flags(rnd, paths, FLAG_POOLS["bound"])], capsys)

    @given(rnd=st.randoms(use_true_random=False))
    @FUZZ_SETTINGS
    def test_bound_config(self, rnd, paths, capsys):
        # each config value is replaced by a bad one a quarter of the time;
        # d is otherwise 1, 2 or 3
        bad = ["0", "-1", "nan", "inf", "-inf", "1e308", "5e-324", "abc", ""]
        bad_lam = bad + ["1,nan", "1,-1", "0,0"]
        lines = []
        for line in GOOD_CONFIG.splitlines():
            key, _, value = line.partition(" = ")
            if key == "d":
                value = rnd.choice(["1", "2", "3"])
            if rnd.random() < 0.25:
                value = rnd.choice(bad_lam if key == "lambda" else bad)
            lines.append(f"{key} = {value}")
        (paths / "fuzz.cfg").write_text("\n".join(lines) + "\n")
        pools = {dest: FLAG_POOLS["bound"][dest]
                 for dest in ("kind", "velocity_source", "depth_exponent", "log_base")}
        argv = ["bound", "--config=" + str(paths / "fuzz.cfg"), *flags(rnd, paths, pools)]
        self.run(argv, capsys)

    @given(rnd=st.randoms(use_true_random=False))
    @FUZZ_SETTINGS
    def test_sweep(self, rnd, paths, capsys):
        pools = dict(FLAG_POOLS["sweep"])
        argv = ["sweep", flag_arg("out", pick(rnd, *pools.pop("out")), paths),
                *flags(rnd, paths, {"preset": pools.pop("preset")}, rate=0.2)]
        valid_axes, bad_axes = pools.pop("axis")
        for _ in range(rnd.choice([0, 1, 1, 2])):
            axis = ":".join([pick(rnd, ["velocity", "g", "v2"], ["mass"]),
                             pick(rnd, ["1e-300", "1e-3", "1"], BAD_NUMBERS),
                             pick(rnd, ["100", "1e4", "1e308"], BAD_NUMBERS),
                             pick(rnd, ["2", "5"], ["-1", "0", "1", "x"]),
                             pick(rnd, ["lin", "log"], ["cubic"])])
            argv.append("--axis=" + pick(rnd, [axis, *valid_axes], bad_axes))
        self.run(argv + flags(rnd, paths, pools), capsys)

    @given(rnd=st.randoms(use_true_random=False))
    @FUZZ_SETTINGS
    def test_lightcone(self, rnd, paths, capsys):
        # L and t_max are always given, so that no run takes the default
        # t_max = 220 on a 3D lattice
        pools = dict(FLAG_POOLS["lightcone"])
        argv = ["lightcone", flag_arg("L", pick(rnd, *pools.pop("L")), paths),
                flag_arg("t_max", rnd.choice(pools.pop("t_max")[0]), paths)]
        self.run(argv + flags(rnd, paths, pools), capsys)

    @given(rnd=st.randoms(use_true_random=False))
    @FUZZ_SETTINGS
    def test_qramsim(self, rnd, paths, capsys):
        self.run(["qramsim", *flags(rnd, paths, FLAG_POOLS["qramsim"])], capsys)


# Each mode's argv at a small size; the flag-effect tests append one flag.
MODE_ARGV = {
    "--kind naive": ["bound", "--kind=naive"],
    "--kind teleport": ["bound", "--kind=teleport", "--config={tmp}/hw2d.cfg"],
    "--velocity": ["bound", "--velocity=6000"],
    "bound": ["bound"],
    "--preset": ["sweep", "--preset=fig3", "--out={tmp}/out/s.csv"],
    "sweep": ["sweep", "--axis=g:1e-3:1:2:lin", "--out={tmp}/out/s.csv"],
    "lightcone": ["lightcone", "--L=40", "--t-max=4", "--dt=0.1"],
    "--db": ["qramsim", "--db={tmp}/db8.txt"],
    "--random-db": ["qramsim", "--random-db", "--N=8"],
    "verify": ["verify"],
}


class TestEveryFlagChangesWhatRuns:
    """Each flag that a mode reads changes what it prints or writes, and
    every other flag is refused by name: a flag that changed nothing would
    let a reader think they had set a convention they had not."""

    def outcome(self, argv, tmp, capsys):
        """(exit code, stdout, files written to ``out``) of ``main(argv)``."""
        for path in (tmp / "out").iterdir():
            path.unlink()
        capsys.readouterr()
        code = main([arg.format(tmp=tmp) for arg in argv])
        written = sorted((path.name, path.read_bytes()) for path in (tmp / "out").iterdir())
        return code, capsys.readouterr(), written

    def test_every_mode_and_flag_is_covered(self, paths):
        assert MODE_ARGV.keys() == {m for modes in cli.MODES.values() for m in modes}
        for mode, argv in MODE_ARGV.items():
            args = vars(cli.build_parser().parse_args([a.format(tmp=paths) for a in argv]))
            assert set(args["flags"]) - {"help"} == FLAG_POOLS[argv[0]].keys()
            assert cli._mode(argv[0], args) == mode

    @pytest.mark.parametrize("mode", list(MODE_ARGV))
    def test_each_flag_the_mode_reads_changes_its_output(self, mode, paths, capsys):
        argv = MODE_ARGV[mode]
        for dest in cli.MODES[argv[0]][mode].split():
            if dest in ("kind", "random_db"):   # picks the mode: see MODE_ARGV
                continue
            outputs = set()
            for value in FLAG_POOLS[argv[0]][dest][0]:
                code, captured, written = self.outcome(
                    argv + [flag_arg(dest, value, paths)], paths, capsys)
                if code != 2:
                    outputs.add((captured.out, tuple(written)))
            assert len(outputs) >= 2, f"{mode}: --{dest} changed nothing"

    @pytest.mark.parametrize("mode", list(MODE_ARGV))
    def test_each_flag_the_mode_ignores_is_refused(self, mode, paths, capsys):
        command = MODE_ARGV[mode][0]
        modes = list(cli.MODES[command])
        # a flag that picks an earlier mode runs that mode instead
        earlier = {m.partition(" ")[0][2:].replace("-", "_")
                   for m in modes[:modes.index(mode)]}
        for dest, (values, _) in FLAG_POOLS[command].items():
            if dest in cli.MODES[command][mode].split() or dest in earlier:
                continue
            code, captured, _ = self.outcome(
                MODE_ARGV[mode] + [flag_arg(dest, values[0], paths)], paths, capsys)
            flag = f"--{dest.replace('_', '-')}"
            message = ("--db and --random-db both give the database"
                       if dest == "random_db" else f"{mode} ignores {flag}")
            assert code == 2
            assert captured.err == f"error: {message}\n" and captured.out == ""


class TestDocumentedCommands:
    def test_readme_command_lines_exit_0(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line")[1].split("```sh\n")[1].split("```")[0]
        (tmp_path / "hw.cfg").write_text(CONFIG_2D_TWO_RANGE)
        (tmp_path / "hw2d.cfg").write_text(GOOD_CONFIG.replace("d = 1", "d = 2"))
        (tmp_path / "db.txt").write_text("0110")
        monkeypatch.chdir(tmp_path)   # the out paths are relative
        lines = block.splitlines()
        assert lines and all(line.startswith("qram-bounds ") for line in lines)
        for line in lines:
            assert main(shlex.split(line, comments=True)[1:]) == 0, line

    def test_help_states_the_defaults_of_the_table(self):
        parser = cli.build_parser()
        (sub,) = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
        stated = [(action.dest, re.search(r"default (\w+)", action.help)[1])
                  for p in sub.choices.values() for action in p._actions
                  if "default " in (action.help or "")]
        assert len(stated) == 5
        assert all(str(cli.DEFAULTS[dest]) == default for dest, default in stated)
        # the convention defaults have one copy: Conventions()
        assert asdict(Conventions()) == {dest: cli.DEFAULTS[dest] for dest in
                                         ("log_base", "depth_exponent", "velocity_source")}
        assert fig3_grid().conventions == fig4_grid().conventions == Conventions()
