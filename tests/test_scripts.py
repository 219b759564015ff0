import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_qram_demo_runs_end_to_end():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "qram_demo.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed: True" in proc.stdout
    timing = re.findall(r"^  n=\s*(\d+)  T=\S+  ratio=\d+\.\d{4}$", proc.stdout,
                        re.MULTILINE)
    assert timing == ["2", "5", "10", "15", "20"]
