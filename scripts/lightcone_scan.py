#!/usr/bin/env python3
"""Measure empirical light cones and compare with the commutator bound.

Runs the three standard cases (1D nearest-neighbor, 1D two-range, 2D axis)
and writes per-distance arrival CSVs under results/.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qram_bounds import lattice
from qram_bounds.cli import _cone_passes, _write_cone_csv

CASES = [
    ("cone_1d_nn", lattice.LatticeSpec(d=1, L=400, lam=(1.0,), m=1.0),
     dict(threshold=1e-3, t_max=220.0, r_max=190, dt=0.02)),
    ("cone_1d_two_range", lattice.LatticeSpec(d=1, L=400, lam=(1.0, 1.0), m=1.0),
     dict(threshold=1e-3, t_max=110.0, r_max=190, dt=0.02)),
    ("cone_2d_axis", lattice.LatticeSpec(d=2, L=64, lam=(1.0,), m=1.0),
     dict(threshold=0.1, t_max=45.0, r_max=30, dt=0.02)),
]


def main() -> None:
    out_dir = Path(__file__).resolve().parents[1] / "results"
    out_dir.mkdir(exist_ok=True)
    for name, spec, kwargs in CASES:
        start = time.time()
        scan = lattice.measure_light_cone(spec, **kwargs)
        oracle = lattice.max_group_velocity(spec)
        bound = lattice.lr_speed(spec.d, spec.lam, spec.m)
        path = out_dir / f"{name}.csv"
        _write_cone_csv(path, scan, {
            "threshold": scan.threshold, "dt": scan.dt, "d": spec.d,
            "L": spec.L, "fitted": scan.fitted_velocity_lattice,
            "group_velocity": oracle, "bound": bound})
        passes = _cone_passes(scan.fitted_velocity_lattice, bound)
        verdict = "OK" if passes else "VIOLATION"
        print(f"{name}: fitted {scan.fitted_velocity_lattice:.4f} sites/s, "
              f"group velocity {oracle:.4f}, bound {bound:.4f} [{verdict}] "
              f"({time.time() - start:.1f}s) -> {path}")


if __name__ == "__main__":
    main()
