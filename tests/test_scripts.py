import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

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
