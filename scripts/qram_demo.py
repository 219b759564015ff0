#!/usr/bin/env python3
"""End-to-end bucket-brigade demo: retrieval on a random database plus the
clock-cycle accounting that produces the quadratic-in-depth total time."""
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qram_bounds import qram
from qram_bounds.cli import print_retrieval_table
from qram_bounds.params import tau0


def main() -> None:
    db = qram.random_database(8, seed=42)
    print(f"database: {''.join(str(b) for b in db.bits)}")
    report = qram.verify_retrieval(db)
    print_retrieval_table(report)
    print(f"min fidelity (incl. superpositions): {report.min_fidelity:.12f}")
    print(f"all checks passed: {report.passed}")

    g1 = g2 = 2000.0 * math.pi   # tau0 = 1e-3 s
    t0 = tau0(g1, g2)
    print("\ndepth n, total time T [s], T/(tau0 n^2):")
    for n in (2, 5, 10, 15, 20):
        total = qram.total_time(qram.schedule_initialization(n),
                                qram.schedule_query(n), g1, g2)
        print(f"  n={n:2d}  T={total:.6e}  ratio={total / (t0 * n * n):.4f}")


if __name__ == "__main__":
    main()
