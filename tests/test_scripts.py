import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
