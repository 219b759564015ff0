"""Exact dynamics of the isotropic harmonic lattice: dispersion, symplectic
Heisenberg propagation, Weyl-commutator norms, empirical light cones, and the
exponential bound envelope.

The lattice Hamiltonian is quadratic,

    H = sum_r [ P_r^2/(2m) + sum_{j<=nu} sum_beta (lam_j/2)
                (U(r) - U(r + j e_beta))^2 ],

so every quantity here is computed exactly (spectrally), with no state
truncation. One Cartesian displacement component is simulated; for the
isotropic couplings used here the components evolve independently and
identically. Periodic boundaries throughout.

Commutators of Weyl operators W(f) = exp{i sum_n Re[f(n)] q_n + Im[f(n)] p_n}
reduce to the symplectic form of the evolved phase-space coefficient vectors:
||[W(f)(t), W(g)]|| = 2 |sin(sigma(f_t, g)/2)|.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .params import checked_phase

_DENSE_SITE_CAP = 512       # largest n_sites for materializing S(t)
_PEAK_NOISE_FLOOR = 1e-12   # commutator peaks below this count as "no signal"
_WORK_ENTRY_CAP = 20_000_000  # largest float64 array a light-cone scan may build
_BLOCK_BYTES = 1 << 18      # working-array budget per time block or k-grid slab
_ODE_STEP_CAP = 10**6       # most RK4 steps; beyond it T^steps drifts past 1e-6


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class LatticeSpec:
    d: int                   # dimension, 1 | 2 | 3
    L: int                   # sites per axis (n_sites = L^d)
    lam: tuple[float, ...]   # couplings lam_1..lam_nu [kg/s^2]
    m: float                 # site mass [kg]
    a: float = 1.0           # spacing [m]

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(float(x) for x in self.lam))
        if self.d not in (1, 2, 3):
            raise LatticeError("dimension must be 1, 2, or 3")
        if not math.isfinite(self.m):
            raise LatticeError("non-finite site mass m")
        if not math.isfinite(self.a):
            raise LatticeError("non-finite lattice spacing a")
        if not all(math.isfinite(l) for l in self.lam):
            raise LatticeError("non-finite spring constant in lam")
        if self.m <= 0:
            raise LatticeError("nonpositive site mass")
        if self.a <= 0:
            raise LatticeError("nonpositive lattice spacing")
        if len(self.lam) < 1:
            raise LatticeError("empty coupling list")
        if any(l < 0 for l in self.lam):
            raise LatticeError("negative spring constant")
        if not any(l > 0 for l in self.lam):
            raise LatticeError("all spring constants zero")
        weight = sum(max(4, j * j) * l for j, l in enumerate(self.lam, start=1))
        if not math.isfinite(self.d * weight / self.m):  # bounds omega^2, |grad omega|^2
            raise LatticeError("dispersion bound d*sum_j max(4, j^2)*lam_j/m "
                               f"overflows at lam={self.lam!r}, m={self.m!r}")
        if self.L < 1:
            raise LatticeError("L too small for range")

    @property
    def nu(self) -> int:
        return len(self.lam)

    @property
    def n_sites(self) -> int:
        return self.L ** self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.L,) * self.d


def omega_squared(spec: LatticeSpec,
                  ks: Sequence[np.ndarray | float]) -> np.ndarray | float:
    """omega^2 = (4/m) sum_beta sum_j lam_j sin^2(j k_beta / 2).

    ``ks`` holds one wavevector component per axis (lattice units); array
    components broadcast against each other, so sparse meshgrid axes give
    the full grid.
    """
    w2 = 0.0
    for kb in ks:
        for j, lam in enumerate(spec.lam, start=1):
            w2 = w2 + 4.0 * lam * np.sin(j * kb / 2.0) ** 2
    return w2 / spec.m


def normal_modes(spec: LatticeSpec) -> np.ndarray:
    """Mode frequencies omega >= 0, shape (L,)*d in FFT ordering."""
    k = 2.0 * np.pi * np.arange(spec.L) / spec.L
    grids = np.meshgrid(*([k] * spec.d), indexing="ij", sparse=True)
    return np.sqrt(omega_squared(spec, grids))


def omega_max(spec: LatticeSpec) -> float:
    """``normal_modes(spec).max()`` without the L^d grid. omega^2 sums
    one nonnegative term per axis, so the maximum needs only the axis
    entries within rounding of the largest; combined with the grid's float
    operations, they give its maximum bit for bit."""
    k = 2.0 * np.pi * np.arange(spec.L) / spec.L
    axis = omega_squared(spec, [k])
    k = k[axis >= axis.max() * (1.0 - 1e-12)]
    grids = np.meshgrid(*([k] * spec.d), indexing="ij", sparse=True)
    return float(np.sqrt(omega_squared(spec, grids).max()))


def dispersion(spec: LatticeSpec, k: float | Sequence[float]) -> float:
    """omega(k) = sqrt((4/m) sum_beta sum_j lam_j sin^2(j k_beta / 2)),
    k in lattice units (components in (-pi, pi])."""
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    if kv.shape != (spec.d,):
        raise LatticeError(f"wavevector must have {spec.d} component(s)")
    checked_phase(LatticeError, "j*k of the dispersion", spec.nu, np.abs(kv).max())
    return math.sqrt(omega_squared(spec, kv))


def longwave_speed(spec: LatticeSpec) -> float:
    """k -> 0 slope of omega along any direction, sqrt(sum_j lam_j j^2 / m)
    in lattice units. The long-wavelength dispersion is isotropic, so this
    is independent of d."""
    return math.sqrt(sum(l * j * j for j, l in enumerate(spec.lam, start=1))
                     / spec.m)


@dataclass(frozen=True)
class GroupVelocity:
    lattice_units: float           # max_k |grad omega|, sites/s
    physical: float                # m/s
    longwave_lattice_units: float  # k -> 0 slope (may be below the max)


def max_group_velocity(spec: LatticeSpec) -> GroupVelocity:
    """Maximum of |grad_k omega| over a dense wavevector grid.

    The gradient is evaluated analytically from the closed-form dispersion;
    the k -> 0 limit is added as an explicit candidate since the gradient
    formula is 0/0 there.
    """
    n_axis = {1: 20001, 2: 301, 3: 101}[spec.d]
    # cell-centered grid in (0, pi): avoids the k = 0 singular point while
    # approaching any boundary suprema to O((pi/n)^2)
    k = (np.arange(n_axis) + 0.5) * np.pi / n_axis
    grids = np.meshgrid(*([k] * spec.d), indexing="ij", sparse=True)
    # slabs along axis 0 keep the working arrays within _BLOCK_BYTES each
    rows = max(1, _BLOCK_BYTES // (8 * n_axis ** (spec.d - 1)))
    grad2_max = 0.0
    for start in range(0, n_axis, rows):
        slab = [grids[0][start:start + rows], *grids[1:]]
        omega = np.sqrt(omega_squared(spec, slab))
        grad2 = 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            for kb in slab:
                comp = 0.0
                for j, lam in enumerate(spec.lam, start=1):
                    comp = comp + lam * j * np.sin(j * kb)
                grad2 = grad2 + np.where(omega > 0, comp / (spec.m * omega), 0.0) ** 2
        grad2_max = max(grad2_max, float(grad2.max()))
    v_long = longwave_speed(spec)
    v = max(math.sqrt(grad2_max), v_long)
    return GroupVelocity(lattice_units=v,
                         physical=physical_velocity(spec.a, v, "group velocity"),
                         longwave_lattice_units=v_long)


def physical_velocity(a: float, v: float, what: str) -> float:
    """a * v [m/s]; refuses a finite v [sites/s] whose a * v overflows. An
    infinite v (the closed form as m -> 0) passes on to the c_max cap."""
    if math.isfinite(v) and not math.isfinite(a * v):
        raise LatticeError(f"physical {what} overflows at a={a!r}")
    return a * v


def coupling_matrix(spec: LatticeSpec) -> np.ndarray:
    """Dense force matrix K with p_dot = -K q, assembled bond by bond from
    the Hamiltonian (periodic wrap-around bonds accumulate)."""
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
    w_max = omega_max(spec)
    if w_max > 0 and dt > 0.01 / w_max:
        raise LatticeError("step too large")
    n = spec.n_sites
    steps = max(1, math.ceil(abs(t) / dt)) if t != 0 else 0
    h = t / steps if steps else 0.0
    hA = np.zeros((2 * n, 2 * n))
    hA[:n, n:] = np.eye(n) * (h / spec.m)
    hA[n:, :n] = -h * coupling_matrix(spec)
    T = np.eye(2 * n)
    for order in (4, 3, 2, 1):  # Horner form of the Taylor polynomial
        T = np.eye(2 * n) + (hA @ T) / order
    return np.linalg.matrix_power(T, steps)


@dataclass(frozen=True)
class WeylFunction:
    """Finite-support complex phase-space function defining a Weyl operator.

    Keys are site indices (int for d = 1, tuples otherwise); Re couples to q,
    Im couples to p.
    """
    amplitudes: Mapping[int | tuple[int, ...], complex]

    def vectors(self, spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
        uq = np.zeros(spec.n_sites)
        up = np.zeros(spec.n_sites)
        for site, amp in self.amplitudes.items():
            if isinstance(site, int):
                site = (site,)
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


def lr_speed(d: int, lam: Sequence[float], m: float) -> float:
    """Commutator-growth speed limit 4 * sqrt(d * sum_j lam_j / m), lattice
    units (Nachtergaele, Raz, Schlein & Sims, CMP 286, 1073 (2009))."""
    return 4.0 * math.sqrt(d * sum(lam) / m)


def c_omega_lambda(spec: LatticeSpec) -> float:
    """Cone-slope constant sqrt(d * sum_j lam_j / m), lattice units."""
    return lr_speed(spec.d, spec.lam, spec.m) / 4.0  # exact: a power of two


def lr_bound_velocity(spec: LatticeSpec) -> float:
    """``lr_speed`` of the spec's couplings."""
    return lr_speed(spec.d, spec.lam, spec.m)


def lr_bound_envelope(spec: LatticeSpec, bp: LRBoundParams,
                      dist: float, t: float) -> float:
    """Exponential suppression envelope for unit-amplitude single-site
    probes: C * exp(-mu * m * [dist - c * max(2/mu, e^(mu/2 + 1)) * |t|]),
    refused by name where it leaves the float range."""
    if dist < 0:
        raise LatticeError("negative distance")
    try:
        cone = c_omega_lambda(spec) * max(2.0 / bp.mu, math.exp(bp.mu / 2.0 + 1.0))
        value = bp.C * math.exp(-bp.mu * spec.m * (dist - cone * abs(t)))
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise LatticeError(f"bound envelope at dist={dist!r}, t={t!r} leaves the float range")


@dataclass(frozen=True)
class ConeArrival:
    r: int                   # distance along the first axis, lattice units
    t_arrival: float | None  # None when no signal reached threshold
    peak: float              # max commutator norm over the scanned times


@dataclass(frozen=True)
class LightConeScan:
    rows: tuple[ConeArrival, ...]
    fitted_velocity_lattice: float  # sites/s
    fitted_velocity_physical: float  # m/s
    threshold: float
    t_max: float
    dt: float
    fit_intercept: float   # sites, r = v t + intercept
    fit_residual: float    # RMS of r - (v t + intercept) over fitted points, sites
    n_no_arrival: int      # distances whose peak stayed below the noise floor


def _check_work(entries: float, what: str) -> None:
    if not entries <= _WORK_ENTRY_CAP:
        raise LatticeError(f"{what} needs {entries:.3g} array entries, "
                           f"above the cap of {_WORK_ENTRY_CAP}")


def _check_orbits(spec: LatticeSpec, r_max: int) -> None:
    _check_work(float(math.comb(spec.L // 2 + spec.d, spec.d)) * (r_max + 1),
                "the orbit weight matrix")


def _axis_orbits(spec: LatticeSpec, r_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the wavevector grid under the reflections n -> L - n and
    all axis permutations, which fix omega: one per sorted index d-tuple t
    in 0..L//2. Returns omega and the weight matrix W (orbits x r_max + 1),
    W[o, r] = fold(t) perms(t) / (d L^d) sum_b cos(2 pi t_b r / L), since
    each t_b sits on axis 0 in 1/d of the orbit's fold(t) perms(t) points.
    """
    L, d = spec.L, spec.d
    n = np.arange(L // 2 + 1)
    fold = np.where((n == 0) | (2 * n == L), 1.0, 2.0)  # |{n, L - n}|
    tuples = list(itertools.combinations_with_replacement(range(len(n)), d))
    perms = [math.factorial(d) / math.prod(map(math.factorial, Counter(t).values()))
             for t in tuples]
    tuples = np.array(tuples, dtype=int)
    omega = np.sqrt(omega_squared(spec, [2.0 * np.pi * t / L for t in tuples.T]))
    r = np.arange(r_max + 1)  # phases reduced mod L first, as the FFT twiddles are
    cos_r = sum(np.cos(2.0 * np.pi / L * (np.outer(t, r) % L)) for t in tuples.T)
    mult = np.array(perms) * fold[tuples].prod(axis=1)
    return omega, (mult / (d * spec.n_sites))[:, None] * cos_r


def axis_signal(spec: LatticeSpec, dt: float, steps: int, r_max: int) -> np.ndarray:
    """On-axis entries c(t_i, r) = L^-d sum_k cos(omega_k t_i) cos(k_0 r) of
    the cos(omega t) circulant, t_i = i dt for i < steps and r = 0..r_max,
    as a (steps, r_max + 1) array stored distance-major. This is
    sigma(f_t, g) for a unit q probe at the origin and a unit p probe at
    distance r along axis 0.

    The sum runs over the orbits of ``_axis_orbits``. One step table
    C, S = cos, sin(j dt omega), j < B, serves every block of B steps:
    block rows are cos(t_0 omega) C - sin(t_0 omega) S from the block's own
    base angle (no recurrence, so no drift), then one product with W. The
    tables and two block arrays share one ``_BLOCK_BYTES`` budget. Refuses
    a scan whose phase steps*|dt|*omega_max leaves the float range.
    """
    if not math.isfinite(dt) or steps < 0:
        raise LatticeError("dt must be finite and steps >= 0")
    if not 0 <= r_max < spec.L:
        raise LatticeError("r_max must lie in 0..L-1")
    _check_orbits(spec, r_max)
    _check_work(float(steps) * (r_max + 1), "the time signal")
    omega, W = _axis_orbits(spec, r_max)
    checked_phase(LatticeError, "omega_max*steps*|dt| of the time signal",
                  omega.max(), steps * abs(dt))
    rows = max(1, min(steps, _BLOCK_BYTES // (32 * len(omega))))
    C, S, block, work = np.empty((4, rows, len(omega)))
    angle = np.multiply.outer(np.arange(rows) * dt, omega, out=block)
    np.cos(angle, out=C)
    np.sin(angle, out=S)
    out = np.empty((r_max + 1, steps))
    for start in range(0, steps, rows):
        b = min(rows, steps - start)
        base = start * dt * omega
        np.multiply(C[:b], np.cos(base), out=block[:b])
        np.multiply(S[:b], np.sin(base), out=work[:b])
        np.subtract(block[:b], work[:b], out=block[:b])
        np.matmul(W.T, block[:b].T, out=out[:, start:start + b])
    return out.T


def measure_light_cone(spec: LatticeSpec, threshold: float, t_max: float,
                       r_max: int, dt: float | None = None,
                       fit_r_min: int = 1) -> LightConeScan:
    """Empirical light cone of the q/p commutator probe pair.

    Probe f is a unit real amplitude at the origin (position quadrature) and
    g a unit imaginary amplitude at distance r along the first axis (momentum
    quadrature); this pairing has the earliest nonzero response. For each r
    the arrival time is the earliest t where the commutator norm reaches
    ``threshold`` times that distance's own peak (relative to the per-r peak,
    so the 1/sqrt(r) amplitude decay of spreading waves does not skew the
    velocity). The fitted velocity is the least-squares slope of r against
    arrival time over r >= fit_r_min.
    """
    if spec.L < 2 * spec.nu + 2:
        raise LatticeError("L too small for range")
    if not 0.0 < threshold < 1.0:
        raise LatticeError("threshold must lie in (0, 1)")
    if r_max < 1:
        raise LatticeError("r_max must be >= 1")
    if r_max > spec.L // 2 - spec.nu:
        raise LatticeError("r_max too large for lattice (wrap-around)")
    if fit_r_min > r_max - 1:
        raise LatticeError(f"fit_r_min = {fit_r_min} leaves fewer than two "
                           f"distances to fit (r_max = {r_max})")
    if not math.isfinite(t_max):
        raise LatticeError("t_max must be finite")
    if t_max <= 0:
        raise LatticeError("t_max must be positive")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise LatticeError("dt must be finite and positive")
    _check_orbits(spec, r_max)  # > L//2 orbits: bounds L before omega_max
    if dt is None:
        w_max = omega_max(spec)
        dt = 0.2 / w_max if w_max > 0 else t_max / 100.0
    if math.isinf(t_max + dt):
        raise LatticeError(f"t_max + dt = {t_max!r} + {dt!r} overflows a float")
    _check_work((t_max / dt + 2.0) * (r_max + 1), "the time signal")
    ts = np.arange(0.0, t_max + dt, dt)   # bitwise t_i = i * dt
    ts = ts[ts <= t_max + 1e-12]
    # commutator norm 2|sin(sigma/2)|, in place to keep one steps x r array
    signal = axis_signal(spec, dt, len(ts), r_max)
    signal *= 0.5
    np.abs(np.sin(signal, out=signal), out=signal)
    signal *= 2.0

    rows = []
    for r, column in enumerate(signal.T[1:], start=1):  # contiguous per r
        peak = float(column.max())
        arrival = (None if peak < _PEAK_NOISE_FLOOR
                   else float(ts[np.argmax(column >= threshold * peak)]))
        rows.append(ConeArrival(r=r, t_arrival=arrival, peak=peak))

    pts = np.array([(row.t_arrival, row.r) for row in rows
                    if row.t_arrival is not None and row.r >= fit_r_min], dtype=float)
    if len(pts) < 2:
        raise LatticeError("not enough arrivals to fit a velocity")
    t_arr, r_arr = pts.T
    design = np.vstack([t_arr, np.ones_like(t_arr)]).T
    slope, intercept = np.linalg.lstsq(design, r_arr, rcond=None)[0]
    residual = r_arr - (slope * t_arr + intercept)
    return LightConeScan(rows=tuple(rows),
                         fitted_velocity_lattice=float(slope),
                         fitted_velocity_physical=physical_velocity(
                             spec.a, float(slope), "fitted velocity"),
                         threshold=threshold, t_max=t_max, dt=dt,
                         fit_intercept=float(intercept),
                         fit_residual=float(np.sqrt(np.mean(residual ** 2))),
                         n_no_arrival=sum(row.t_arrival is None for row in rows))
