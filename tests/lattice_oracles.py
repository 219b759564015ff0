"""Independent oracles for the lattice: the light-cone scan, the group
velocity and the force matrix, and the table of signal cases the scan is
checked on; and the phase-space machinery that ties the scan's signal to
Weyl-operator commutators: the FFT symplectic propagator, the RK4
integrator it is checked against, the symplectic form, and the
Lieb-Robinson envelope.

They share none of the orbit sums, block loop or cut-based reads of
``qram_bounds.lattice``, and the grid search shares nothing with its
closed-form group velocity. Each row of ``SIGNAL_CASES`` exists for
the regime of the engine's layout that its id names;
``tests/test_lattice_internals.py`` checks that it still reaches it.

The commutator norm of Weyl operators W(f) = exp{i sum_n Re[f(n)] q_n +
Im[f(n)] p_n} reduces to the symplectic form of the evolved phase-space
coefficient vectors: ||[W(f)(t), W(g)]|| = 2 |sin(sigma(f_t, g)/2)|.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from qram_bounds import lattice
from qram_bounds.lattice import (LatticeError, LatticeSpec, axis_signal,
                                 lr_speed, omega_squared)
from qram_bounds.params import checked_phase

_DENSE_SITE_CAP = 512       # largest n_sites for materializing S(t)
_ODE_STEP_CAP = 10**6       # most RK4 steps; beyond it T^steps drifts past 1e-6


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
    """Light-cone columns (r, t_arrival, peak) from the commutator norm
    2|sin(sigma/2)| of every entry of the time signal: each distance's peak
    is the maximum of its norms, its arrival the first time the norm
    reaches threshold * peak. A peak below 1e-12 is no signal, its arrival
    NaN."""
    ts = np.arange(0.0, t_max + dt, dt)
    ts = ts[ts <= t_max + 1e-12]
    norm = 2.0 * np.abs(np.sin(axis_signal(spec, dt, len(ts), r_max) * 0.5))
    arrivals, peaks = [], []
    for r in range(1, r_max + 1):
        peak = float(norm[:, r].max())
        arrivals.append(math.nan if peak < 1e-12
                        else float(ts[np.argmax(norm[:, r] >= threshold * peak)]))
        peaks.append(peak)
    return np.arange(1, r_max + 1), np.array(arrivals), np.array(peaks)


def assert_cone_columns(scan, columns):
    """The scan's r, t_arrival and peak equal ``columns`` in shape, dtype and
    every entry, NaN matching NaN."""
    for got, expected in zip((scan.r, scan.t_arrival, scan.peak), columns, strict=True):
        np.testing.assert_array_equal(got, expected, strict=True)


def bond_coupling_matrix(spec):
    """Dense force matrix K with p_dot = -K q, assembled bond by bond from
    the Hamiltonian (periodic wrap-around bonds accumulate): the oracle of
    ``lattice.coupling_matrix``'s circulant, whose stencil adds the same
    bonds in the same order."""
    n = spec.n_sites
    K = np.zeros((n, n))
    shape = spec.shape
    for idx in np.ndindex(shape):
        s = int(np.ravel_multi_index(idx, shape))
        for axis in range(spec.d):
            for j, lam in enumerate(spec.lam, start=1):
                for sign in (+1, -1):
                    nb = list(idx)
                    nb[axis] = (nb[axis] + sign * j) % spec.L
                    t = int(np.ravel_multi_index(tuple(nb), shape))
                    K[s, s] += lam
                    K[s, t] -= lam
    return K


def normal_modes(spec: LatticeSpec) -> np.ndarray:
    """Mode frequencies omega >= 0, shape (L,)*d in FFT ordering."""
    k = 2.0 * np.pi * np.arange(spec.L) / spec.L
    grids = np.meshgrid(*([k] * spec.d), indexing="ij", sparse=True)
    return np.sqrt(omega_squared(spec, grids))


class SymplecticPropagator:
    """Linear map S(t) on phase-space vectors (q_1..q_n, p_1..p_n).

    Spectral construction: per normal mode,
        q_k(t) =  cos(w t) q_k + sin(w t)/(m w) p_k
        p_k(t) = -m w sin(w t) q_k + cos(w t) p_k
    with the zero mode handled by its analytic limit sin(w t)/(m w) -> t/m.
    ``apply`` evolves phase-space points (the S action); ``apply_observable``
    evolves Weyl coefficient vectors (the S^T action). Both take one vector
    (2n,) or a batch of rows (k, 2n). A t*omega_max or t/m outside the float
    range is refused.
    """

    def __init__(self, spec: LatticeSpec, t: float):
        if not math.isfinite(t):
            raise LatticeError("time must be finite")
        self.spec = spec
        self.t = float(t)
        w = normal_modes(spec)
        checked_phase(LatticeError, "omega_max*t of the propagator", w.max(), t)
        if math.isinf(self.t / spec.m):   # zero-mode entry; LatticeSpec bounds m*omega
            raise LatticeError(f"propagator entry t/m overflows at t={t!r}, m={spec.m!r}")
        self._cos = np.cos(w * self.t)
        # sin(wt)/(m w) via sinc: exact t/m limit at w = 0
        self._b = self.t / spec.m * np.sinc(w * self.t / np.pi)
        self._c = -spec.m * w * np.sin(w * self.t)

    def _evolve(self, u: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Apply the mode blocks (cos, b; c, cos) to one phase-space vector
        (2n,) or a batch (k, 2n): one FFT over the lattice axes carries both
        quadratures of every row."""
        u = np.asarray(u, dtype=float)
        n, d = self.spec.n_sites, self.spec.d
        if u.ndim not in (1, 2) or u.shape[-1] != 2 * n:
            raise LatticeError(f"phase-space input must have shape ({2 * n},) "
                               f"or (k, {2 * n}), got {u.shape}")
        if not np.isfinite(u).all():
            raise LatticeError("phase-space vector has non-finite entries")
        axes = tuple(range(-d, 0))
        x = np.fft.fftn(u.reshape(u.shape[:-1] + (2,) + self.spec.shape), axes=axes)
        q, p = np.moveaxis(x, -d - 1, 0)
        x = np.stack([self._cos * q + b * p, c * q + self._cos * p], axis=-d - 1)
        return np.fft.ifftn(x, axes=axes).real.reshape(u.shape)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self._evolve(u, self._b, self._c)

    def apply_observable(self, u: np.ndarray) -> np.ndarray:
        # blocks are symmetric circulants, so S^T swaps the off-diagonals
        return self._evolve(u, self._c, self._b)

    def matrix(self) -> np.ndarray:
        """Materialize S(t) as a dense (2n, 2n) array."""
        if self.spec.n_sites > _DENSE_SITE_CAP:
            raise LatticeError(f"dense propagator capped at {_DENSE_SITE_CAP} sites")
        cols = [np.fft.ifftn(mult).real for mult in (self._cos, self._b, self._c)]
        coords = np.array(list(np.ndindex(self.spec.shape)))  # (n, d)
        diff = (coords[:, None, :] - coords[None, :, :]) % self.spec.L
        A, B, C = (col[tuple(np.moveaxis(diff, -1, 0))] for col in cols)
        return np.block([[A, B], [C, A]])


def propagate_ode(spec: LatticeSpec, t: float, dt: float) -> np.ndarray:
    """Independent cross-check integrator: classical RK4 on the full linear
    system q_dot = p/m, p_dot = -K q; returns S(t) as a dense (2n, 2n) array.

    On this linear system x_dot = A x an RK4 step is x <- T x, with T =
    I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 built once, and S(t) = T^steps
    by repeated squaring. Requires dt <= 0.01/omega_max; refuses more than
    _DENSE_SITE_CAP sites (like ``matrix()``) or _ODE_STEP_CAP steps.
    """
    if not math.isfinite(t):
        raise LatticeError("time must be finite")
    if not (math.isfinite(dt) and dt > 0):
        raise LatticeError("step must be finite and positive")
    if spec.n_sites > _DENSE_SITE_CAP:
        raise LatticeError(f"dense propagator capped at {_DENSE_SITE_CAP} sites")
    if abs(t) / dt > _ODE_STEP_CAP:
        raise LatticeError(f"RK4 capped at {_ODE_STEP_CAP} steps, "
                           f"got |t|/dt = {abs(t) / dt:.3g}")
    w_max = lattice.omega_max(spec)
    if w_max > 0 and dt > 0.01 / w_max:
        raise LatticeError("step too large")
    n = spec.n_sites
    steps = max(1, math.ceil(abs(t) / dt)) if t != 0 else 0
    h = t / steps if steps else 0.0
    hA = np.zeros((2 * n, 2 * n))
    hA[:n, n:] = np.eye(n) * (h / spec.m)
    hA[n:, :n] = -h * lattice.coupling_matrix(spec)
    T = np.eye(2 * n)
    for order in (4, 3, 2, 1):  # Horner form of the Taylor polynomial
        T = np.eye(2 * n) + (hA @ T) / order
    return np.linalg.matrix_power(T, steps)


@dataclass(frozen=True)
class WeylFunction:
    """Finite-support complex phase-space function defining a Weyl operator.

    Keys are site indices (int for d = 1, tuples otherwise; numpy ints too,
    bools refused); Re couples to q, Im couples to p.
    """
    amplitudes: Mapping[int | tuple[int, ...], complex]

    def vectors(self, spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
        uq = np.zeros(spec.n_sites)
        up = np.zeros(spec.n_sites)
        for site, amp in self.amplitudes.items():
            site = site if isinstance(site, tuple) else (site,)
            if any(isinstance(s, (bool, np.bool_)) or not hasattr(type(s), "__index__")
                   for s in site):
                raise LatticeError(f"site {site!r} must hold integer indices")
            site = tuple(map(operator.index, site))
            if len(site) != spec.d:
                raise LatticeError(f"site {site} has wrong dimension")
            if not all(0 <= s < spec.L for s in site):
                raise LatticeError(f"site {site} outside lattice")
            amp = complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise LatticeError("non-finite amplitude")
            flat = int(np.ravel_multi_index(site, spec.shape))
            uq[flat] += amp.real
            up[flat] += amp.imag
        return uq, up


def symplectic_form(uq: np.ndarray, up: np.ndarray,
                    vq: np.ndarray, vp: np.ndarray) -> float | np.ndarray:
    """sigma(u, v) = sum_n (uq_n vp_n - up_n vq_n), summed over the last
    axis: a float for vectors, one value per row for batches."""
    sigma = np.sum(uq * vp - up * vq, axis=-1)
    return float(sigma) if np.ndim(sigma) == 0 else sigma


def weyl_commutator_norm(spec: LatticeSpec, f: WeylFunction, g: WeylFunction,
                         t: float) -> float:
    """||[W(f)(t), W(g)]|| = 2 |sin(sigma(f_t, g)/2)|, exact for the
    quadratic lattice (value in [0, 2])."""
    fq, fp = f.vectors(spec)
    gq, gp = g.vectors(spec)
    prop = SymplecticPropagator(spec, t)
    evolved = prop.apply_observable(np.concatenate([fq, fp]))
    n = spec.n_sites
    sigma = symplectic_form(evolved[:n], evolved[n:], gq, gp)
    return 2.0 * abs(math.sin(sigma / 2.0))


@dataclass(frozen=True)
class LRBoundParams:
    C: float    # envelope prefactor, dimensionless
    mu: float   # decay rate, dimensionless

    def __post_init__(self):
        if not (0.0 < self.C < math.inf and 0.0 < self.mu < math.inf):
            raise LatticeError("envelope constants must be positive and finite")


def lr_bound_envelope(spec: LatticeSpec, bp: LRBoundParams,
                      dist: float, t: float) -> float:
    """Exponential suppression envelope for unit-amplitude single-site
    probes, the Lieb-Robinson bound that ``weyl_commutator_norm``'s decay
    along a ray is checked against:
    C * exp(-mu * m * [dist - c * max(2/mu, e^(mu/2 + 1)) * |t|]),
    c = sqrt(d * sum_j lam_j / m) = lr_speed / 4, refused by name where it
    leaves the float range."""
    if dist < 0:
        raise LatticeError("negative distance")
    try:
        cone = lr_speed(spec.d, spec.lam, spec.m) / 4.0 * max(
            2.0 / bp.mu, math.exp(bp.mu / 2.0 + 1.0))
        value = bp.C * math.exp(-bp.mu * spec.m * (dist - cone * abs(t)))
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise LatticeError(f"bound envelope at dist={dist!r}, t={t!r} leaves the float range")



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
