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

_DENSE_SITE_CAP = 512       # largest n_sites for materializing S(t)
_PEAK_NOISE_FLOOR = 1e-12   # commutator peaks below this count as "no signal"
_WORK_ENTRY_CAP = 20_000_000  # largest float64 array a light-cone scan may build
_BLOCK_BYTES = 1 << 18      # working-array budget per time block or k-grid slab


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class LatticeSpec:
    d: int                   # dimension, 1 | 2 | 3
    L: int                   # sites per axis (n_sites = L^d)
    lam: tuple[float, ...]   # couplings lam_1..lam_nu [kg/s^2]
    m: float                 # site mass [kg]
    a: float = 1.0           # spacing [m]
    # allow_wrap permits L < 2*nu + 2 for closed-system cross checks
    # (e.g. exact diagonalization of a 2-site chain); light-cone scans
    # enforce their own wrap-around margin via r_max.
    allow_wrap: bool = False

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
        if self.L < 2 * self.nu + 2 and not self.allow_wrap:
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


@dataclass(frozen=True)
class NormalModes:
    k_axis: np.ndarray   # per-axis wavevectors 2*pi*n/L, FFT ordering
    omega: np.ndarray    # frequencies, shape (L,)*d, omega >= 0
    m: float

    @property
    def omega_max(self) -> float:
        return float(self.omega.max())


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


def normal_modes(spec: LatticeSpec) -> NormalModes:
    """Fourier diagonalization of the coupling matrix."""
    k = 2.0 * np.pi * np.arange(spec.L) / spec.L
    grids = np.meshgrid(*([k] * spec.d), indexing="ij", sparse=True)
    return NormalModes(k_axis=k, omega=np.sqrt(omega_squared(spec, grids)),
                       m=spec.m)


def dispersion(spec: LatticeSpec, k: float | Sequence[float]) -> float:
    """omega(k) = sqrt((4/m) sum_beta sum_j lam_j sin^2(j k_beta / 2)),
    k in lattice units (components in (-pi, pi])."""
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    if kv.shape != (spec.d,):
        raise LatticeError(f"wavevector must have {spec.d} component(s)")
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
    longwave_physical: float


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
    v_grid = math.sqrt(grad2_max)
    v_long = longwave_speed(spec)
    v = max(v_grid, v_long)
    return GroupVelocity(lattice_units=v, physical=spec.a * v,
                         longwave_lattice_units=v_long,
                         longwave_physical=spec.a * v_long)


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
                if lam == 0.0:
                    continue
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
    evolves Weyl coefficient vectors (the S^T action).
    """

    def __init__(self, spec: LatticeSpec, t: float):
        self.spec = spec
        self.t = float(t)
        w = normal_modes(spec).omega
        self._cos = np.cos(w * self.t)
        # sin(wt)/(m w) via sinc: exact t/m limit at w = 0
        self._b = self.t / spec.m * np.sinc(w * self.t / np.pi)
        self._c = -spec.m * w * np.sin(w * self.t)

    @property
    def n_sites(self) -> int:
        return self.spec.n_sites

    def _split(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = np.asarray(u, dtype=float)
        n = self.n_sites
        if u.shape != (2 * n,):
            raise LatticeError(f"phase-space vector must have length {2 * n}")
        return u[:n], u[n:]

    def _conv(self, mult: np.ndarray, x: np.ndarray) -> np.ndarray:
        shaped = x.reshape(self.spec.shape)
        return np.fft.ifftn(mult * np.fft.fftn(shaped)).real.ravel()

    def apply(self, u: np.ndarray) -> np.ndarray:
        q, p = self._split(u)
        q_new = self._conv(self._cos, q) + self._conv(self._b, p)
        p_new = self._conv(self._c, q) + self._conv(self._cos, p)
        return np.concatenate([q_new, p_new])

    def apply_observable(self, u: np.ndarray) -> np.ndarray:
        # blocks are symmetric circulants, so S^T swaps the off-diagonals
        q, p = self._split(u)
        q_new = self._conv(self._cos, q) + self._conv(self._c, p)
        p_new = self._conv(self._b, q) + self._conv(self._cos, p)
        return np.concatenate([q_new, p_new])

    def matrix(self) -> np.ndarray:
        """Materialize S(t) as a dense (2n, 2n) array."""
        n = self.n_sites
        if n > _DENSE_SITE_CAP:
            raise LatticeError(f"dense propagator capped at {_DENSE_SITE_CAP} sites")
        shape = self.spec.shape
        cols = {name: np.fft.ifftn(mult).real
                for name, mult in (("A", self._cos), ("B", self._b), ("C", self._c))}
        coords = np.array(list(np.ndindex(shape)))  # (n, d)
        diff = (coords[:, None, :] - coords[None, :, :]) % self.spec.L
        idx = tuple(diff[:, :, ax] for ax in range(self.spec.d))
        A, B, C = cols["A"][idx], cols["B"][idx], cols["C"][idx]
        S = np.zeros((2 * n, 2 * n))
        S[:n, :n] = A
        S[:n, n:] = B
        S[n:, :n] = C
        S[n:, n:] = A
        return S


def propagate(spec: LatticeSpec, t: float) -> SymplecticPropagator:
    """Exact Heisenberg propagator of the harmonic lattice at time t."""
    if not math.isfinite(t):
        raise LatticeError("time must be finite")
    return SymplecticPropagator(spec, t)


def propagate_ode(spec: LatticeSpec, t: float, dt: float) -> np.ndarray:
    """Independent cross-check integrator: classical RK4 on the full linear
    system q_dot = p/m, p_dot = -K q; returns S(t) as a dense (2n, 2n) array.

    Requires dt <= 0.01/omega_max for comfortable stability margin.
    """
    if dt <= 0:
        raise LatticeError("nonpositive step")
    w_max = normal_modes(spec).omega_max
    if w_max > 0 and dt > 0.01 / w_max:
        raise LatticeError("step too large")
    n = spec.n_sites
    K = coupling_matrix(spec)

    def rhs(S: np.ndarray) -> np.ndarray:
        out = np.empty_like(S)
        out[:n] = S[n:] / spec.m
        out[n:] = -K @ S[:n]
        return out

    steps = max(1, math.ceil(abs(t) / dt)) if t != 0 else 0
    h = t / steps if steps else 0.0
    S = np.eye(2 * n)
    for _ in range(steps):
        k1 = rhs(S)
        k2 = rhs(S + 0.5 * h * k1)
        k3 = rhs(S + 0.5 * h * k2)
        k4 = rhs(S + h * k3)
        S = S + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return S


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
                    vq: np.ndarray, vp: np.ndarray) -> float:
    """sigma(u, v) = sum_n (uq_n vp_n - up_n vq_n)."""
    return float(np.sum(uq * vp - up * vq))


def weyl_commutator_norm(spec: LatticeSpec, f: WeylFunction, g: WeylFunction,
                         t: float) -> float:
    """||[W(f)(t), W(g)]|| = 2 |sin(sigma(f_t, g)/2)|, exact for the
    quadratic lattice (value in [0, 2])."""
    fq, fp = f.vectors(spec)
    gq, gp = g.vectors(spec)
    prop = propagate(spec, t)
    evolved = prop.apply_observable(np.concatenate([fq, fp]))
    n = spec.n_sites
    sigma = symplectic_form(evolved[:n], evolved[n:], gq, gp)
    return 2.0 * abs(math.sin(sigma / 2.0))


@dataclass(frozen=True)
class LRBoundParams:
    C: float    # envelope prefactor, dimensionless
    mu: float   # decay rate, dimensionless

    def __post_init__(self):
        if self.C <= 0 or self.mu <= 0:
            raise LatticeError("envelope constants must be positive")


def c_omega_lambda(spec: LatticeSpec) -> float:
    """Cone-slope constant sqrt(d * sum_j lam_j / m) in lattice units."""
    return math.sqrt(spec.d * sum(spec.lam) / spec.m)


def lr_bound_velocity(spec: LatticeSpec) -> float:
    """Commutator-growth speed limit 4 * sqrt(d * sum_j lam_j / m),
    lattice units."""
    return 4.0 * c_omega_lambda(spec)


def lr_bound_envelope(spec: LatticeSpec, bp: LRBoundParams,
                      dist: float, t: float) -> float:
    """Exponential suppression envelope for unit-amplitude single-site
    probes: C * exp(-mu * m * [dist - c * max(2/mu, e^(mu/2 + 1)) * |t|])."""
    if dist < 0:
        raise LatticeError("negative distance")
    cone = c_omega_lambda(spec) * max(2.0 / bp.mu, math.exp(bp.mu / 2.0 + 1.0))
    return bp.C * math.exp(-bp.mu * spec.m * (dist - cone * abs(t)))


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


def _axis_orbits(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the wavevector grid under the symmetries that fix both
    omega and cos(k_0 r): the reflection n -> L - n of every axis, and
    permutations of the transverse axes 1..d-1.

    Returns per orbit the folded axis-0 index, omega, and the orbit size.
    """
    L, d = spec.L, spec.d
    n = np.arange(L // 2 + 1)
    fold = np.where((n == 0) | (2 * n == L), 1.0, 2.0)  # |{n, L - n}|
    tails = list(itertools.combinations_with_replacement(range(len(n)), d - 1))
    perms = [math.factorial(d - 1)
             / math.prod(math.factorial(c) for c in Counter(t).values())
             for t in tails]
    tails = np.array(tails, dtype=int).reshape(len(tails), d - 1)
    tail_mult = np.array(perms) * fold[tails].prod(axis=1)
    k = 2.0 * np.pi * n / L
    ks = [k[:, None]] + [k[tails[:, b]][None, :] for b in range(d - 1)]
    omega = np.sqrt(omega_squared(spec, ks)).ravel()
    mult = (fold[:, None] * tail_mult[None, :]).ravel()
    return np.repeat(n, len(tails)), omega, mult


def axis_signal(spec: LatticeSpec, ts: np.ndarray, r_max: int) -> np.ndarray:
    """On-axis entries of the cos(omega t) circulant,

        c(t, r) = L^-d sum_k cos(omega_k t) cos(k_0 r),   r = 0..r_max,

    as an array of shape (len(ts), r_max + 1). This is sigma(f_t, g) for a
    unit q probe at the origin and a unit p probe at distance r along
    axis 0.

    The sum runs over the orbits of ``_axis_orbits`` with their sizes folded
    into a weight matrix W (orbits x (r_max + 1)), built once; each block of
    time steps is then one product cos(t omega_orbit) @ W. Blocks are sized
    to ``_BLOCK_BYTES`` so memory stays flat in the number of steps.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or not np.isfinite(ts).all():
        raise LatticeError("times must be a finite 1-D array")
    if not 0 <= r_max < spec.L:
        raise LatticeError("r_max must lie in 0..L-1")
    half = spec.L // 2 + 1
    n_orbits = half * math.comb(half + spec.d - 2, spec.d - 1)
    _check_work(float(n_orbits) * (r_max + 1), "the orbit weight matrix")
    _check_work(float(len(ts)) * (r_max + 1), "the time signal")
    n0, omega, mult = _axis_orbits(spec)
    # cos(k_0 r) with the phase reduced mod L first, as the FFT twiddles are
    phase = np.outer(n0, np.arange(r_max + 1)) % spec.L
    W = (mult / spec.n_sites)[:, None] * np.cos(2.0 * np.pi / spec.L * phase)
    out = np.empty((len(ts), r_max + 1))
    buf = np.empty((max(1, _BLOCK_BYTES // (8 * len(omega))), len(omega)))
    for start in range(0, len(ts), len(buf)):
        chunk = ts[start:start + len(buf)]
        block = np.multiply.outer(chunk, omega, out=buf[:len(chunk)])
        np.cos(block, out=block)
        np.matmul(block, W, out=out[start:start + len(chunk)])
    return out


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
    if dt is None:
        _check_work(float(spec.n_sites), "the mode grid of the automatic dt")
        w_max = normal_modes(spec).omega_max
        dt = 0.2 / w_max if w_max > 0 else t_max / 100.0
    _check_work((t_max / dt + 2.0) * (r_max + 1), "the time signal")
    ts = np.arange(0.0, t_max + dt, dt)
    ts = ts[ts <= t_max + 1e-12]
    # commutator norm 2|sin(sigma/2)|, in place to keep one steps x r array
    signal = axis_signal(spec, ts, r_max)
    signal *= 0.5
    np.abs(np.sin(signal, out=signal), out=signal)
    signal *= 2.0

    rows = []
    for r in range(1, r_max + 1):
        peak = float(signal[:, r].max())
        if peak < _PEAK_NOISE_FLOOR:
            rows.append(ConeArrival(r=r, t_arrival=None, peak=peak))
            continue
        hit = int(np.argmax(signal[:, r] >= threshold * peak))
        rows.append(ConeArrival(r=r, t_arrival=float(ts[hit]), peak=peak))

    pts = [(row.t_arrival, row.r) for row in rows
           if row.t_arrival is not None and row.r >= fit_r_min]
    if len(pts) < 2:
        raise LatticeError("not enough arrivals to fit a velocity")
    t_arr = np.array([p[0] for p in pts])
    r_arr = np.array([p[1] for p in pts], dtype=float)
    design = np.vstack([t_arr, np.ones_like(t_arr)]).T
    slope, intercept = np.linalg.lstsq(design, r_arr, rcond=None)[0]
    residual = r_arr - (slope * t_arr + intercept)
    return LightConeScan(rows=tuple(rows),
                         fitted_velocity_lattice=float(slope),
                         fitted_velocity_physical=float(slope) * spec.a,
                         threshold=threshold, t_max=t_max, dt=dt,
                         fit_intercept=float(intercept),
                         fit_residual=float(np.sqrt(np.mean(residual ** 2))),
                         n_no_arrival=sum(row.t_arrival is None for row in rows))
