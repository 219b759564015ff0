"""Independent oracles for the lattice's light-cone scan and group velocity,
and the table of signal cases the scan is checked on.

They share none of the orbit sums, block loop or cut-based reads of
``qram_bounds.lattice``, and the grid search shares nothing with its
closed-form group velocity. Each row of ``SIGNAL_CASES`` exists for
the regime of the engine's layout that its id names;
``tests/test_lattice_internals.py`` checks that it still reaches it.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from qram_bounds.lattice import ConeArrival, LatticeSpec, axis_signal, normal_modes


def ifftn_axis_signal(spec, dt, steps, r_max):
    """One full inverse FFT of cos(omega t) per time step t = i * dt,
    keeping the on-axis entries r = 0..r_max."""
    omega = normal_modes(spec)
    ts = np.arange(steps) * dt
    out = np.empty((steps, r_max + 1))
    for i, t in enumerate(ts):
        col = np.fft.ifftn(np.cos(omega * t)).real
        out[i] = col[(slice(0, r_max + 1),) + (0,) * (spec.d - 1)]
    return out


def full_grid_group_velocity(spec):
    """max |grad omega| over the whole cell-centered grid at once: 20001,
    301^2 or 101^3 points in (0, pi)^d, so the k -> 0 supremum is
    approached, not reached."""
    n_axis = {1: 20001, 2: 301, 3: 101}[spec.d]
    k = (np.arange(n_axis) + 0.5) * np.pi / n_axis
    grids = np.meshgrid(*([k] * spec.d), indexing="ij", sparse=True)
    w2 = np.zeros((n_axis,) * spec.d)
    for kb in grids:
        for j, lam in enumerate(spec.lam, start=1):
            w2 = w2 + 4.0 * lam * np.sin(j * kb / 2.0) ** 2
    omega = np.sqrt(w2 / spec.m)
    grad2 = np.zeros_like(omega)
    for kb in grids:
        comp = sum(lam * j * np.sin(j * kb)
                   for j, lam in enumerate(spec.lam, start=1))
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 where omega is
            grad2 = grad2 + np.where(omega > 0, comp / (spec.m * omega), 0.0) ** 2
    return float(np.sqrt(grad2.max()))


def full_signal_rows(spec, threshold, t_max, r_max, dt):
    """Light-cone rows (r, t_arrival, peak) from the commutator norm
    2|sin(sigma/2)| of every entry of the time signal: each distance's peak
    is the maximum of its norms, its arrival the first time the norm
    reaches threshold * peak. A peak below 1e-12 is no signal."""
    ts = np.arange(0.0, t_max + dt, dt)
    ts = ts[ts <= t_max + 1e-12]
    norm = 2.0 * np.abs(np.sin(axis_signal(spec, dt, len(ts), r_max) * 0.5))
    rows = []
    for r in range(1, r_max + 1):
        peak = float(norm[:, r].max())
        arrival = (None if peak < 1e-12
                   else float(ts[np.argmax(norm[:, r] >= threshold * peak)]))
        rows.append(ConeArrival(r=r, t_arrival=arrival, peak=peak))
    return tuple(rows)


class SignalCase(NamedTuple):
    regime: str
    spec: LatticeSpec
    dt: float
    steps: int
    r_max: int

    @property
    def id(self) -> str:
        return f"{self.regime}-{self.spec.d}d-L{self.spec.L}-r{self.r_max}"


# The regimes: many blocks, each restarting from its own base angle;
# several orbit tiles adding their shares; above 4,096 orbits, where blocks
# keep full height; mirror pairs folded (L = 0 or 2 mod 4), too narrow to
# fold, or absent (odd L); self-mirrored orbits in a last tile shared with
# pairs; blocks interpolated from Chebyshev nodes, with a last block shorter
# than the node count (its node sums run past the last step), or every block
# computed row by row (coarse steps or short scans), with a short last block
# too; interpolated and folded, at odd L, or over three tiles or more
SIGNAL_CASES = [SignalCase(regime, LatticeSpec(d, L, lam, m), dt, steps, r_max)
                for regime, d, L, lam, m, dt, steps, r_max in (
    ("many-blocks", 1, 16, (1.0,), 0.9, 0.13, 308, 15),
    ("odd-L", 1, 17, (1.0, 0.4), 0.9, 0.13, 308, 16),
    ("folded-L0mod4", 1, 400, (1.0,), 0.9, 0.13, 308, 399),
    ("odd-L", 2, 9, (0.8,), 0.9, 0.13, 308, 8),
    ("many-blocks", 2, 10, (1.0, 0.3), 0.9, 0.13, 308, 9),
    ("odd-L", 3, 7, (1.1, 0.5), 0.9, 0.13, 308, 6),
    ("many-blocks", 3, 8, (0.9,), 0.9, 0.13, 308, 7),
    ("multi-tile", 2, 64, (1.0, 0.3), 0.8, 0.37, 200, 32),
    ("multi-tile", 3, 32, (1.0,), 0.8, 0.37, 200, 16),
    ("above-4096-orbits", 3, 64, (1.0, 0.3), 0.8, 0.37, 70, 6),
    ("self-mirrored-last-tile", 2, 128, (1.0, 0.3), 0.8, 0.2, 150, 63),
    # 2 * 128 + 1 and 3 * 128 + 3 steps at dt = 0.02, 21 and 25 nodes per block
    ("short-last", 1, 40, (1.0,), 1.0, 0.02, 257, 19),
    ("short-last", 2, 12, (1.0, 0.3), 0.8, 0.02, 387, 5),
    ("direct-short", 2, 8, (1.0, 0.3), 0.8, 0.6, 259, 3),
    # found by hypothesis: z = omega_max * 3 dt = 125, so all 7 rows are computed
    ("direct-rows", 1, 6, (1.0, 1.0), 0.125, 6.0, 7, 5),
    ("direct-rows", 2, 10, (1.0, 0.3), 0.8, 0.6, 300, 9),
    ("folded-interpolated", 1, 100, (1.0, 0.3), 0.8, 0.05, 300, 49),
    ("folded-interpolated", 2, 98, (1.0, 0.3), 0.8, 0.05, 300, 48),
    ("odd-L-interpolated", 2, 33, (1.0, 0.3), 0.8, 0.05, 300, 16),
    ("odd-L-interpolated", 3, 15, (1.0,), 1.0, 0.05, 300, 7),
    ("multi-tile-interpolated", 2, 96, (1.0, 0.3), 0.8, 0.05, 300, 20),
    ("multi-tile-interpolated", 2, 128, (1.0, 0.3), 0.8, 0.05, 300, 63),
    *((regime, d, L, (1.0, 0.3), 0.8, 0.37, steps, r_max)
      for regime, d, L, steps, r_max in (
        ("folded-L0mod4", 1, 100, 150, 99), ("folded-L2mod4", 1, 102, 150, 100),
        ("odd-L", 1, 101, 150, 100), ("folded-L0mod4", 2, 64, 70, 63),
        ("folded-L2mod4", 2, 98, 70, 96), ("odd-L", 2, 99, 70, 60),
        ("folded-L0mod4", 3, 48, 30, 47), ("folded-L2mod4", 3, 50, 30, 48),
        ("odd-L", 3, 49, 30, 48))),
    # every orbit (and mirror) weighted by its size covers the grid once:
    # narrow and wide signals at even and odd L
    *((regime, d, L, (1.0, 0.3), 1.0, 0.37, 20, r_max)
      for regime, d, L, r_max in (
        ("unfolded", 1, 400, 3), ("folded-L0mod4", 1, 400, 63),
        ("unfolded", 1, 402, 3), ("folded-L2mod4", 1, 402, 63),
        ("odd-L", 1, 401, 3), ("odd-L", 1, 401, 63),
        ("unfolded", 2, 64, 3), ("unfolded", 2, 66, 3), ("folded-L2mod4", 2, 66, 63),
        ("unfolded", 3, 32, 3), ("unfolded", 3, 32, 31), ("odd-L", 3, 7, 3),
        ("unfolded", 3, 48, 3), ("unfolded", 3, 50, 3), ("folded-L2mod4", 3, 50, 49))))]
