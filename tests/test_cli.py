import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qram_bounds import cli, lattice, qram, verify
from qram_bounds.cli import AxisSpec, SweepGrid, fig3_grid, fig4_grid, main, run_sweep
from qram_bounds.params import Conventions, ParamsError

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

    def test_missing_config_exits_2(self, capsys):
        assert main(["bound", "--config", "/nonexistent.cfg"]) == 2
        assert "config not found" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace("a = 1e-6", "a = 0"))
        assert main(["bound", "--config", str(path)]) == 2
        assert "nonpositive lattice spacing" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("g1 = inf", "non-finite g1"),
        ("g1 = nan", "non-finite g1"),
        ("m = inf", "non-finite m"),
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_velocity_exits_2(self, value, capsys):
        assert main(["bound", f"--velocity={value}"]) == 2
        assert_one_error_line(capsys.readouterr(),
                              f"non-finite explicit velocity {float(value)}")

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
        # p = 0 at the preset: R = 4e-6 m/s * 1e-3 s / 1e-6 m = 0.004 qubits
        # printed "max qubits (total): 4.000000e-03" and exited 0
        (None, ["--depth-exponent", "0"],
         "no fixed point above 1 for N = 0.004*log^0(N)"),
        # v*tau0 = 2e-323 * 1e-3 underflows: R was 0, "nonpositive ratio R"
        ({"a = 1e-6": "a = 5e-324", "lambda = 1.0": "lambda = 5e-324",
          "m = 1.0": "m = 5e-324"}, [],
         "ratio R = v*tau0/a leaves the float range at v=2e-323, "
         "tau0=0.001, a=5e-324"),
    ])
    def test_capacity_below_one_qubit_or_out_of_float_range_exits_2(
            self, edits, argv, message, tmp_path, capsys):
        if edits is not None:
            text = GOOD_CONFIG
            for old, new in edits.items():
                text = text.replace(old, new)
            (tmp_path / "hw.cfg").write_text(text)
            argv = ["--config", str(tmp_path / "hw.cfg"), *argv]
        assert main(["bound", *argv]) == 2
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
        run_sweep(fig3_grid(depth_exponent=2), out)
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

    def test_overflowing_capacity_exits_2(self, tmp_path, capsys):
        # g = 1e-300 puts the 1D extent near 4e301, whose cube overflows
        out = tmp_path / "x.csv"
        assert main(["sweep", "--axis", "g:1e-300:1e4:2:log", "--dims", "3",
                     "--depth-exponent", "0", "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr(), "total capacity 4.35312e+301^3")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["sweep", "--axis", "g:1e-3:1:4:log", "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr(), "[Errno 2]")

    def test_bad_axis_spec_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--axis", "velocity:100:1000:1:log",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "points >= 2" in capsys.readouterr().err


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
        assert capsys.readouterr().err == "error: L too small for range\n"

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
        (["--t-max", "1e9", "--dt", "1e-3"], "the time signal needs .* above the cap"),
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
        # the automatic dt reads one axis of 10^5 points; neither the 10^15
        # mode grid nor the orbits are built before the scan refuses
        def no_grid(*args):
            raise AssertionError("mode grid or orbits built before the size check")

        monkeypatch.setattr(lattice, "normal_modes", no_grid)
        monkeypatch.setattr(lattice, "_axis_orbits", no_grid)
        assert main(["lightcone", "--d", "3", "--L", "100000", "--t-max", "1"]) == 2
        assert_one_error_line(
            capsys.readouterr(),
            "the orbit weight matrix needs 1.04e+18 array entries")

    def test_automatic_dt_refuses_long_axis_before_reading_it(
            self, monkeypatch, capsys):
        # d = 1, L = 10^9: the 5e8 + 1 orbits refuse the scan before
        # omega_max reads the 10^9-point axis for the automatic dt
        def no_axis(*args):
            raise AssertionError("axis or orbits built before the size check")

        monkeypatch.setattr(lattice, "omega_max", no_axis)
        monkeypatch.setattr(lattice, "_axis_orbits", no_axis)
        assert main(["lightcone", "--L", "1000000000", "--r-max", "2",
                     "--t-max", "1"]) == 2
        assert_one_error_line(
            capsys.readouterr(),
            "the orbit weight matrix needs 1.5e+09 array entries")

    def test_fit_r_min_beyond_r_max_exits_2(self, monkeypatch, capsys):
        def no_scan(*args):
            raise AssertionError("scan ran before the fit_r_min check")

        monkeypatch.setattr(lattice, "axis_signal", no_scan)
        assert main(["lightcone", "--L", "40", "--t-max", "4", "--r-max", "4",
                     "--fit-r-min", "50", "--dt", "0.05"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: fit_r_min = 50 leaves fewer than two "
                                "distances to fit (r_max = 4)\n")
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
    and the step table: the scan must print the same bytes."""

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

    def test_oversized_database_exits_2(self, capsys):
        assert main(["qramsim", "--random-db", "--N", "8192"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: leaf cap: N <= 4096, got 8192\n"
        assert captured.out == ""

    def test_sixteen_leaves_retrieved(self, capsys):
        assert main(["qramsim", "--random-db", "--N", "16", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS: all addresses retrieved" in out
        assert len(re.findall(r"^\s*\d+\s+[01]\s+[01]\s+1\.0+$", out,
                              re.MULTILINE)) == 16

    @pytest.mark.parametrize("args,message", [
        (["--g1", "0"], "nonpositive coupling g1=0.0"),
        (["--g1=-2"], "nonpositive coupling g1=-2.0"),
        (["--g2=-1"], "nonpositive coupling g2=-1.0"),
        (["--g1", "nan"], "non-finite coupling g1=nan"),
        (["--g2", "inf"], "non-finite coupling g2=inf"),
        (["--address", "1", "--g1=-inf"], "non-finite coupling g1=-inf"),
    ])
    def test_bad_coupling_exits_2(self, args, message, capsys):
        assert main(["qramsim", "--random-db", "--N", "4", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("args,named", [
        (["--g1", "1e308", "--g2", "1e308"], "g1=1e+308"),
        (["--g1", "5e307"], "g1=5e+307"),
        (["--g1", "1e-320"], "g1=1e-320"),
        (["--g2", "1e-320"], "g2=1e-320"),
    ])
    def test_coupling_whose_durations_overflow_exits_2(self, args, named, capsys):
        # 4*g overflowed to a zero beam-splitter time (exit 3 with MISMATCH
        # lines), and pi/g to an infinite one (a RuntimeWarning)
        assert main(["qramsim", "--random-db", "--N", "8", *args]) == 2
        name = named.split("=")[0]
        assert capsys.readouterr().err == (f"error: coupling {named} out of range: "
                                           f"4*{name} or pi/{name} overflows\n")

    def test_negative_seed_exits_2(self, capsys):
        assert main(["qramsim", "--random-db", "--N", "8", "--seed", "-1"]) == 2
        assert_one_error_line(capsys.readouterr(), "seed must be >= 0, got -1")

    def test_non_integer_address_exits_2(self, capsys):
        assert main(["qramsim", "--random-db", "--N", "8", "--address", "abc"]) == 2
        assert_one_error_line(capsys.readouterr(),
                              "address must be 'all' or an integer, got 'abc'")

    def test_retrieval_mismatch_exits_3(self, tmp_path, capsys, monkeypatch):
        db = tmp_path / "db.txt"
        db.write_text("0110")
        # corrupt the reference walker; the simulated reads now disagree
        monkeypatch.setattr(qram, "classical_trace_read",
                            lambda database, x: 1 - database.bits[x])
        assert main(["qramsim", "--db", str(db)]) == 3
        assert "MISMATCH" in capsys.readouterr().out


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
}


class TestQramsimGolden:
    """The qramsim contract, pinned byte for byte: stdout and exit code of
    random databases at seed 7, independent of the couplings."""

    @pytest.mark.parametrize("g1,g2", [(math.pi, math.pi), (1.3, 0.7)])
    @pytest.mark.parametrize("N", sorted(QRAMSIM_GOLDEN))
    def test_small_trees_print_golden_table(self, N, g1, g2, capsys):
        argv = ["qramsim", "--random-db", "--N", str(N), "--seed", "7",
                "--g1", repr(g1), "--g2", repr(g2)]
        assert main(argv) == 0
        assert capsys.readouterr().out == QRAMSIM_GOLDEN[N]

    @pytest.mark.parametrize("g1,g2", [(math.pi, math.pi), (1.3, 0.7)])
    @pytest.mark.parametrize("N", sorted(QRAMSIM_SHA256))
    def test_large_trees_print_golden_digest(self, N, g1, g2, capsys):
        argv = ["qramsim", "--random-db", "--N", str(N), "--seed", "7",
                "--g1", repr(g1), "--g2", repr(g2)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == QRAMSIM_SHA256[N]


class TestParserBuiltOnce:
    def test_second_run_inherits_nothing(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["sweep", "--axis", "g:1e-3:1:3:log", "--axis",
                     "velocity:1e2:1e3:2:log", "--dims", "1,2",
                     "--out", str(first)]) == 0
        assert main(["qramsim", "--random-db", "--N", "2"]) == 0
        assert main(["sweep", "--axis", "v2:1e2:1e4:4:lin",
                     "--out", str(second)]) == 0
        header, *rows = second.read_text().splitlines()[1:]
        assert header == "v2,max_qubits_d1" and len(rows) == 4
        parse = cli.build_parser().parse_args
        args = parse(["sweep", "--out", str(second)])
        assert (args.axis, args.dims, args.preset) == (None, "1", None)
        assert args.func is cli._cmd_sweep
        args = parse(["bound"])
        assert args.func is cli._cmd_bound and not hasattr(args, "axis")
        assert (args.velocity, args.velocity_source) == (None, "lieb_robinson")


class TestVerifyCommand:
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


def pick(rnd, valid, bad=BAD_NUMBERS):
    """A valid value nine times in ten, so that most runs get past the first
    check and into the library, else a bad one."""
    return rnd.choice(valid if rnd.random() < 0.9 else bad)


def flags(rnd, **pools):
    """``--flag=value`` for each flag, left out one time in four; a pool is
    ``valid`` or ``(valid, bad)``."""
    return [f"--{flag.replace('_', '-')}=" + pick(rnd, *(
                pool if isinstance(pool, tuple) else (pool,)))
            for flag, pool in pools.items() if rnd.random() < 0.75]


class TestArgvFuzz:
    """Whatever the argv, main returns an exit code in {0, 1, 2, 3} or argparse
    exits with 2; no other exception escapes, and a refusal is one
    ``error:`` line. Sizes stay below the caps: L <= 40, N <= 16, at most 5
    sweep points per axis."""

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

    @pytest.fixture
    def paths(self, tmp_path):
        (tmp_path / "hw.cfg").write_text(GOOD_CONFIG)
        (tmp_path / "hw2d.cfg").write_text(GOOD_CONFIG.replace("d = 1", "d = 2"))
        (tmp_path / "tiny_g.cfg").write_text(
            GOOD_CONFIG.replace("g1 = 6283.185307179586", "g1 = 5e-324"))
        for name, bits in (("db4", "0110"), ("db8", "01101001"),
                           ("db16", "0110" * 4), ("db3", "012"), ("db0", "")):
            (tmp_path / f"{name}.txt").write_text(bits)
        return tmp_path

    @given(rnd=st.randoms(use_true_random=False))
    @FUZZ_SETTINGS
    def test_bound(self, rnd, paths, capsys):
        argv = ["bound", *flags(
            rnd, kind=(["naive", "qram", "teleport"], ["bogus"]),
            velocity=["6000", "1", "2.5"],
            velocity_source=(["lieb_robinson", "qft", "group"], ["warp"]),
            depth_exponent=(["0", "1", "2", "8"], ["-1", "200", "1000", "1e308"]),
            log_base=(["natural", "2"], ["10"]),
            config=([str(paths / "hw.cfg"), str(paths / "hw2d.cfg")],
                    [str(paths / "tiny_g.cfg"), str(paths / "missing.cfg")]))]
        self.run(argv, capsys)

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
        argv = ["bound", "--config=" + str(paths / "fuzz.cfg"), *flags(
            rnd, kind=["naive", "qram", "teleport"],
            velocity_source=["lieb_robinson", "qft", "group"],
            depth_exponent=["0", "1", "2"], log_base=["natural", "2"])]
        self.run(argv, capsys)

    @given(rnd=st.randoms(use_true_random=False))
    @FUZZ_SETTINGS
    def test_sweep(self, rnd, paths, capsys):
        argv = ["sweep", "--out=" + rnd.choice([str(paths / "s.csv"),
                                                str(paths / "missing" / "s.csv")])]
        for _ in range(rnd.choice([0, 1, 1, 2])):
            axis = ":".join([pick(rnd, ["velocity", "g", "v2"], ["mass"]),
                             pick(rnd, ["1e-300", "1e-3", "1"]),
                             pick(rnd, ["100", "1e4", "1e308"]),
                             pick(rnd, ["2", "5"], ["-1", "0", "1", "x"]),
                             pick(rnd, ["lin", "log"], ["cubic"])])
            argv.append("--axis=" + pick(rnd, [axis], [
                "", "velocity", "velocity:1:2:3", "g:1:2:3:log:extra"]))
        argv += flags(rnd, dims=(["1", "1,2,3", "3"], ["0", "4", "x", ""]),
                      depth_exponent=(["0", "2"], ["-1", "200"]),
                      log_base=(["natural", "2"], ["10"]),
                      config=([str(paths / "hw.cfg")],
                              [str(paths / "tiny_g.cfg"),
                               str(paths / "missing.cfg")]))
        self.run(argv, capsys)

    @given(rnd=st.randoms(use_true_random=False))
    @FUZZ_SETTINGS
    def test_lightcone(self, rnd, paths, capsys):
        # L and t_max are always given, so that no run takes the default
        # t_max = 220 on a 3D lattice
        argv = ["lightcone", "--L=" + pick(rnd, ["16", "40"], ["0", "-1", "4", "abc"]),
                "--t-max=" + pick(rnd, ["2", "4"])]
        argv += flags(
            rnd, d=(["1", "2", "3"], ["0", "4"]),
            lam=(["1.0", "1,0.5"], ["0", "-1", "nan", "inf", "x", ""]),
            m=["1", "2.5"], a=["1", "1e-6"], threshold=["1e-3", "0.1"],
            dt=["0.05", "0.1"], r_max=(["1", "4"], ["0", "-1", "100", "abc"]),
            fit_r_min=(["1", "3"], ["0", "50"]),
            out=[str(paths / "c.csv"), str(paths / "missing" / "c.csv")])
        self.run(argv, capsys)

    @given(rnd=st.randoms(use_true_random=False))
    @FUZZ_SETTINGS
    def test_qramsim(self, rnd, paths, capsys):
        argv = ["qramsim"] + (["--random-db"] if rnd.random() < 0.5 else [])
        argv += flags(
            rnd, N=(["2", "4", "8"], ["0", "-1", "1", "3", "16", "abc"]),
            db=([str(paths / "db4.txt"), str(paths / "db8.txt")],
                [str(paths / f"{n}.txt") for n in ("db16", "db3", "db0", "missing")]),
            address=(["all", "0", "3"], ["-1", "100", "x"]),
            g1=["3.14", "1.3"], g2=["3.14", "0.7"],
            seed=(["0", "7"], ["-1", "abc"]))
        self.run(argv, capsys)
