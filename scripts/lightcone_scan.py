#!/usr/bin/env python3
"""Measure empirical light cones and compare with the commutator bound.

Runs ``qram-bounds lightcone`` on the three standard cases (1D
nearest-neighbour, 1D two-range, 2D axis), each with ``--out
results/<name>.csv``: a ``#`` line of the inputs and velocities (threshold
t_max dt d L lam m fitted group_velocity bound), then one
(r, t_arrival, commutator_peak) row per distance. Each run's command line
goes before its stdout. Exits with the worst exit code of the runs: 1 if a
fitted velocity exceeds its bound.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qram_bounds.cli import main as cli_main

RESULTS = Path(__file__).resolve().parents[1] / "results"
# the lightcone argv behind each results/<name>.csv, but for its --out
CASES = {name: ["lightcone", *flags.split(), "--m", "1.0", "--dt", "0.02"] for name, flags in (
    ("cone_1d_nn", "--d 1 --L 400 --lam 1.0 --threshold 1e-3 --t-max 220 --r-max 190"),
    ("cone_1d_two_range", "--d 1 --L 400 --lam 1.0,1.0 --threshold 1e-3 --t-max 110 --r-max 190"),
    ("cone_2d_axis", "--d 2 --L 64 --lam 1.0 --threshold 0.1 --t-max 45 --r-max 30"),
)}


def main() -> int:
    RESULTS.mkdir(exist_ok=True)
    codes = []
    for name, argv in CASES.items():
        argv = [*argv, "--out", str(RESULTS / f"{name}.csv")]
        print("qram-bounds", *argv)
        codes.append(cli_main(argv))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
