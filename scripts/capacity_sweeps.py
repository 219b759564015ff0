#!/usr/bin/env python3
"""Regenerate the capacity-bound sweep data sets.

Runs ``qram-bounds sweep --preset fig3 --out results/fig3_velocity_sweep.csv``
(capacity vs velocity limit for d = 1, 2, 3 at micron spacing) and
``qram-bounds sweep --preset fig4 --out results/fig4_coupling_heatmap.csv``
(1D capacity over coupling x squared-speed-limit at millimeter spacing).
Each CSV opens with a ``#`` line of its conventions (log_base
depth_exponent a tau0 dims). Exits with the worst exit code of the runs.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qram_bounds.cli import main as cli_main

RESULTS = Path(__file__).resolve().parents[1] / "results"
PRESETS = {"fig3": "fig3_velocity_sweep.csv", "fig4": "fig4_coupling_heatmap.csv"}


def main() -> int:
    RESULTS.mkdir(exist_ok=True)
    return max([cli_main(["sweep", "--preset", preset, "--out", str(RESULTS / name)])
                for preset, name in PRESETS.items()])


if __name__ == "__main__":
    sys.exit(main())
