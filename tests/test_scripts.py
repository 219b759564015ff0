import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qram_bounds import lattice
from qram_bounds.cli import main
from test_cli import openblas_kernel_skip_reason

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

QRAM_DEMO_STDOUT = """\
database: 01100101
address expected read fidelity
      0        0    0 1.000000000000
      1        1    1 1.000000000000
      2        1    1 1.000000000000
      3        0    0 1.000000000000
      4        0    0 1.000000000000
      5        1    1 1.000000000000
      6        0    0 1.000000000000
      7        1    1 1.000000000000
min fidelity (incl. superpositions): 1.000000000000
all checks passed: True

depth n, total time T [s], T/(tau0 n^2):
  n= 2  T=5.750000e-03  ratio=1.4375
  n= 5  T=2.525000e-02  ratio=1.0100
  n=10  T=8.775000e-02  ratio=0.8775
  n=15  T=1.877500e-01  ratio=0.8344
  n=20  T=3.252500e-01  ratio=0.8131
"""


def test_qram_demo_runs_end_to_end():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "qram_demo.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == QRAM_DEMO_STDOUT


@pytest.mark.parametrize("script,written", [
    ("capacity_sweeps.py", {"fig3_velocity_sweep.csv", "fig4_coupling_heatmap.csv"}),
    ("lightcone_scan.py", {"cone_1d_nn.csv", "cone_1d_two_range.csv",
                           "cone_2d_axis.csv"}),
])
def test_script_regenerates_committed_results(script, written, tmp_path):
    # the scripts write to results/ beside their own directory, so run a copy
    for part in ("scripts", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "results"
    assert {path.name for path in out.iterdir()} == written
    for name in written:
        assert (out / name).read_bytes() == (ROOT / "results" / name).read_bytes()


# float.hex of the (fitted, group_velocity, bound) velocities, in sites/s,
# that scripts/lightcone_scan.py writes at :g into the "#" line of each
# results/cone_*.csv; the files alone pin them only to 1e-6 relative
CONE_VELOCITIES = {
    "cone_1d_nn": ("0x1.0b4e76e0453c3p+0", "0x1.0000000000000p+0",
                   "0x1.0000000000000p+2"),
    "cone_1d_two_range": ("0x1.31c201378dcf6p+1", "0x1.1e3779b97f4a8p+1",
                          "0x1.6a09e667f3bcdp+2"),
    "cone_2d_axis": ("0x1.0e51a9450e85ap+0", "0x1.0000000000000p+0",
                     "0x1.6a09e667f3bcdp+2"),
}


def load_lightcone_script():
    module_spec = importlib.util.spec_from_file_location(
        "lightcone_scan", SCRIPTS / "lightcone_scan.py")
    script = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(script)
    return script


def test_lightcone_script_velocities_bit_for_bit(monkeypatch):
    script = load_lightcone_script()
    written = {}   # the "#" line values main() hands to the CSV writer, by case
    monkeypatch.setattr(script, "_write_cone_csv", lambda path, scan, meta:
                        written.__setitem__(Path(path).stem, meta))
    script.main()
    assert {name: tuple(meta[key].hex() for key in ("fitted", "group_velocity", "bound"))
            for name, meta in written.items()} == CONE_VELOCITIES


@pytest.mark.parametrize("bound", [math.nextafter(1.5, 0.0), 1.5, math.nextafter(1.5, 2.0)])
def test_lightcone_script_and_command_share_one_verdict(bound, monkeypatch, capsys):
    # at fitted == bound the command passed while the script said VIOLATION
    scan = lattice.LightConeScan(rows=(), fitted_velocity_lattice=1.5, threshold=1e-3,
                                 t_max=5.0, dt=0.02, fit_intercept=0.0,
                                 fit_residual=0.0, n_no_arrival=0)
    monkeypatch.setattr(lattice, "measure_light_cone", lambda spec, **kwargs: scan)
    monkeypatch.setattr(lattice, "lr_speed", lambda d, lam, m: bound)
    script = load_lightcone_script()
    monkeypatch.setattr(script, "_write_cone_csv", lambda path, scan, meta: None)
    script.main()
    passes = 1.5 <= bound
    assert set(re.findall(r"\[(\w+)\]", capsys.readouterr().out)) == {
        "OK" if passes else "VIOLATION"}
    assert main(["lightcone", "--L", "16", "--t-max", "5"]) == (0 if passes else 1)
    assert ("PASS" if passes else "FAIL") in capsys.readouterr().out


# runs scripts/lightcone_scan.py with the CSV writer swapped for one that
# keeps the "#" line velocities and the scans, then prints as JSON the
# velocities' float.hex and whether the 1D nearest-neighbour scan's rows equal
# full_signal_rows, the norm of its whole signal
HEX_VELOCITIES_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("lightcone_scan", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
written, scans = {}, {}
def record(path, scan, meta):
    written[path.stem] = [meta[key].hex() for key in ("fitted", "group_velocity", "bound")]
    scans[path.stem] = scan
script._write_cone_csv = record
script.main()
sys.path.insert(0, sys.argv[2])
from lattice_oracles import full_signal_rows
name, lattice_spec, kwargs = script.CASES[0]
assert name == "cone_1d_nn" and lattice_spec.L == 400
rows_equal = scans[name].rows == full_signal_rows(lattice_spec, **kwargs)
print(json.dumps({"velocities": written, "rows_equal": rows_equal}))
"""


@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
def test_lightcone_script_velocities_independent_of_openblas_kernel(kernel):
    # the kernel is chosen when OpenBLAS loads, so only a child process
    # can run under another one; the signal's GEMM bits differ between
    # kernels, and the scan must still read its rows exactly
    reason = openblas_kernel_skip_reason(kernel)
    if reason:
        pytest.skip(reason)
    proc = subprocess.run(
        [sys.executable, "-c", HEX_VELOCITIES_CHILD, str(SCRIPTS / "lightcone_scan.py"),
         str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_CORETYPE": kernel})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    velocities = result["velocities"]
    assert {name: tuple(hexes) for name, hexes in velocities.items()} == CONE_VELOCITIES
    assert result["rows_equal"] is True
