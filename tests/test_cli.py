import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

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

    def test_custom_axis_cli(self, tmp_path, capsys):
        out = tmp_path / "custom.csv"
        code = main(["sweep", "--axis", "velocity:100:1000:5:log",
                     "--dims", "1,2", "--out", str(out)])
        assert code == 0
        data = np.genfromtxt(str(out), delimiter=",", skip_header=2)
        assert data.shape == (5, 3)

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

    @pytest.mark.parametrize("args,message", [
        (["--dt", "0.0"], "dt must be finite and positive"),
        (["--dt", "-0.1"], "dt must be finite and positive"),
        (["--dt", "nan"], "dt must be finite and positive"),
        (["--t-max", "nan"], "t_max must be finite"),
        (["--t-max", "1e9", "--dt", "1e-3"], "the time signal needs .* above the cap"),
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
        assert main(["qramsim", "--random-db", "--N", "16"]) == 2
        assert "state-vector cap" in capsys.readouterr().err

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

    def test_retrieval_mismatch_exits_3(self, tmp_path, capsys, monkeypatch):
        db = tmp_path / "db.txt"
        db.write_text("0110")
        # corrupt the reference walker; the simulated reads now disagree
        monkeypatch.setattr(qram, "classical_trace_read",
                            lambda database, x: 1 - database.bits[x])
        assert main(["qramsim", "--db", str(db)]) == 3
        assert "MISMATCH" in capsys.readouterr().out


class TestVerifyCommand:
    def test_clean_build_exits_0(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        for suite in ("params", "bounds", "lattice", "gates", "qram"):
            assert f"PASS {suite}" in out

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
