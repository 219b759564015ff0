"""Closed-form velocity and capacity-bound formulas, and the fixed-point
solver for maximum qubit counts.

The lattice velocities count sites per second; ``capped_velocity`` turns
them into m/s through ``lattice.physical_velocity``, the one product with
the spacing a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice as _lattice
from .params import Conventions, HardwareParams, checked_index, density, tau0

# Plain steps before fixed_point_solve finishes in closed form and fixed_point_columns hands
# a cell to it; every committed or pinned solve stops within 15. The capacity benchmark's
# 2,000 solver points take 7.9 ms, against 12.1 ms by plain steps alone (2-core x86 VM).
COLUMN_STEPS = 16


class BoundError(ValueError):
    pass


class FixedPointError(BoundError):
    """R has no fixed point above 1, only a tangency, or one past the float range."""


@dataclass(frozen=True)
class BoundResult:
    max_qubits_total: float    # real-valued; callers may floor
    max_linear_extent: float   # qubits along one axis
    velocity_used: float       # m/s, after the c_max cap
    conventions: Conventions
    inputs_digest: HardwareParams


def coarse_grain(params: HardwareParams) -> float:
    """Long-wavelength continuum stiffness d * sum_j lam_j * j^2 * a^(2-d),
    which with the density m / a^d gives the lattice's long-wave speed."""
    try:
        scale = params.a ** (2 - params.d)
    except OverflowError:
        raise BoundError(f"a^(2-d) = {params.a:g}^{2 - params.d} overflows "
                         "a float in the continuum stiffness") from None
    stiffness = params.d * scale * _lattice.second_moment(params.lam)
    if math.isinf(stiffness):
        raise BoundError(f"continuum stiffness overflows a float at "
                         f"a={params.a!r}, lam={params.lam!r}")
    return stiffness


def qft_velocity(lambda_d: float, rho: float) -> float:
    """Continuum speed sqrt(lambda_d / rho); where lambda_d / rho overflows
    the roots are taken apart, and a speed past the float range is refused."""
    if not (math.isfinite(lambda_d) and math.isfinite(rho)):
        raise BoundError(f"non-finite stiffness {lambda_d!r} or density {rho!r}")
    if rho <= 0:
        raise BoundError("nonpositive density")
    if lambda_d < 0:
        raise BoundError("negative stiffness")
    v = math.sqrt(lambda_d / rho)
    if math.isinf(v):
        v = math.sqrt(lambda_d) / math.sqrt(rho)
    if math.isinf(v):
        raise BoundError(f"continuum speed overflows a float at stiffness "
                         f"{lambda_d!r}, density {rho!r}")
    return v


def fixed_point_solve(R: float, p: int, log_base: str = "natural") -> float:
    """Largest fixed point of N = R * log(N)^p, the capacity.

    Iterates N <- R * log(N)^p from N0 = max(R, base^2, e^p) until the
    relative change drops below 1e-12 (for p = 0 that is R itself), or for
    COLUMN_STEPS steps and then finishes in closed form. The tangency point
    e^p (in either log base) lies between the two roots whenever they exist,
    so from N0 both reach the largest. For p >= 1 a root exists exactly when
    R reaches (e/p)^p, times (ln 2)^p in base 2: a smaller R is refused
    before iterating, and R on it, where the roots meet at e^p in a double
    root, as a tangency. Raises FixedPointError, at every p, when the
    iterate leaves N > 1 or the root overflows a float."""
    if not math.isfinite(R):
        raise BoundError(f"non-finite ratio R = {R}")
    if (p := checked_index(BoundError, "depth exponent p", p)) < 0:
        raise BoundError("negative depth exponent")
    if log_base not in ("natural", "2"):
        raise BoundError(f"unknown log base {log_base!r} (use 'natural' or '2')")
    base, logf = (math.e, math.log) if log_base == "natural" else (2.0, math.log2)
    try:
        # the threshold is at most e, and ln e is 1.0 exactly: (e/p)^p in base e
        if p >= 1 and R <= math.e and R <= (
                threshold := (math.e / p) ** p * math.log(base) ** p):
            if R < threshold or R <= 0.0:   # an underflowed threshold is no tangency
                raise FixedPointError(f"no fixed point above 1 for N = {R:g}*log^{p}(N): "
                                      f"R is below the root threshold {threshold:.10g}")
        else:
            N = max(R, base * base, math.exp(p))
            for _ in range(COLUMN_STEPS):
                try:
                    new = R * logf(N) ** p
                except OverflowError:   # log^p N alone
                    new = _power_product(R, logf(N), p)
                if new <= 1.0:
                    raise FixedPointError(f"no fixed point above 1 for N = {R:g}*log^{p}(N)")
                if math.isinf(new):   # iterates under the root rise to it: it overflows
                    raise OverflowError
                if abs(new - N) <= 1e-12 * new:
                    return new
                N = new
            if N > math.exp(p):   # else it fell to e^p: R is on the threshold to rounding
                return _closed_form(R, p, logf, N)
    except OverflowError:
        raise FixedPointError(f"fixed point of N = {R:g}*log^{p}(N) "
                              "overflows a float") from None
    raise FixedPointError(f"N = {R:g}*log^{p}(N) has only a double root, at the tangency "
                          f"point e^{p}: R is on the root threshold")


def _closed_form(R: float, p: int, logf, N: float) -> float:
    """exp(-p W_-1(z)), z = -ln(base) R^(-1/p) / p, from an iterate N > e^p: Halley on
    w e^w = z from w = -ln(N)/p < -1 until a step is below 1e-6 |w + 1| (at most 64),
    then a Newton step on N - R log^p N (Corless et al., Adv. Comput. Math. 5, 329)."""
    z, w = -R ** (-1.0 / p) / (p * logf(math.e)), -math.log(N) / p
    for _ in range(64):
        f = w * (ew := math.exp(w)) - z
        w -= (step := f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)))
        if abs(step) <= -1e-6 * (w + 1.0):
            break
    N = math.exp(-p * w)
    try:
        q = R / N * logf(N) ** p   # R log^p N / N, 1 at the root
    except OverflowError:   # log^p N alone
        q = _power_product(R, logf(N), p) / N
    return math.fsum((N, N * (q - 1.0) / (1.0 + q / w)))   # fsum refuses an overflow


def _power_product(R: float, x: float, p: int) -> float:
    """R * x^p where x^p alone overflows: mantissas and exponents apart."""
    (f, e), (g, k) = math.frexp(R), math.frexp(x)
    return math.ldexp(f * g ** p, e + p * k)


def fixed_point_columns(R: np.ndarray, p: int, log_base: str) -> np.ndarray:
    """``fixed_point_solve`` over a 1-D array R at once, for p and log_base as
    ``Conventions`` holds them: the same threshold, start, steps and stopping
    rule, in numpy's log and power. NaN where the scalar solve refuses R
    (below or on the threshold) or has not stopped after COLUMN_STEPS steps."""
    base, logf = (math.e, np.log) if log_base == "natural" else (2.0, np.log2)
    out = np.full(len(R), math.nan)
    try:
        start = max(base * base, math.exp(p))
    except OverflowError:
        return out
    # at p = 0 this is 1, and the iteration refuses an R at or below it too
    threshold = min(math.e, (math.e / max(p, 1)) ** p * math.log(base) ** p)
    todo = np.flatnonzero(~(R <= threshold))
    r = R[todo]
    with np.errstate(all="ignore"):   # a NaN R or an iterate past the float range is refused
        N = np.maximum(r, start)
        for _ in range(COLUMN_STEPS):
            new = r * logf(N) ** p
            live = (new > 1.0) & np.isfinite(new)
            done = live & (np.abs(new - N) <= 1e-12 * new)
            out[todo[done]] = new[done]
            live &= ~done
            todo, r, N = todo[live], r[live], new[live]
            if not todo.size:
                break
    return out


def naive_max_qubits(a: float, delta_t: float, c: float,
                     log_base: str = "natural") -> float:
    """Qubit count where a 1D chain of spacing ``a``, clocked at ``delta_t``
    per depth unit, saturates signal speed ``c``: N = (c*delta_t/a) * log N."""
    if a <= 0 or delta_t <= 0 or c <= 0:
        raise BoundError("all inputs must be positive")
    return capacity(c, delta_t, a, 1, Conventions(log_base=log_base, depth_exponent=1))[0]


def capped_velocity(params: HardwareParams, src: str | float) -> float:
    """Velocity [m/s] that the bound uses for the velocity source ``src``
    (a ``Conventions.velocity_source``), capped at ``params.c_max``.

    An explicit numeric source is the per-axis (1D-form) speed scale; the
    d-dimensional limit picks up the sqrt(d) enhancement, mirroring the
    closed forms for the lattice and continuum limits. The "group" source
    is the maximal group velocity of the dispersion, a*sqrt(sum_j j^2
    lam_j / m) in every d, and "qft" is sqrt(d) times it. "teleport-hybrid",
    routing hops teleported at the speed cap, is c_max and refused off d = 2.
    """
    if src == "lieb_robinson":
        v = _lattice.physical_velocity(
            params.a, _lattice.lr_speed(params.d, params.lam, params.m),
            "Lieb-Robinson velocity")
    elif src == "qft":
        v = qft_velocity(coarse_grain(params), density(params))
    elif src == "group":
        spec = _lattice.LatticeSpec(d=params.d, L=2 * params.nu + 2,
                                    lam=params.lam, m=params.m)
        v = _lattice.physical_velocity(
            params.a, _lattice.max_group_velocity(spec), "group velocity")
    elif src == "teleport-hybrid":
        if params.d != 2:
            raise BoundError("teleport-hybrid defined for d=2")
        v = params.c_max
    else:
        v = math.sqrt(params.d) * float(src)
    return min(v, params.c_max)


def capacity(v: float, tau: float, a: float, d: int,
             conventions: Conventions) -> tuple[float, float]:
    """(extent N, total N^d) qubits from N / log^p(N) = R = v*tau/a; refuses by
    name an R outside the float range, an R with no fixed point above one
    qubit (FixedPointError, at every p), an overflowing total and a d
    outside 1..3."""
    if (d := checked_index(BoundError, "dimension d", d)) not in (1, 2, 3):
        raise BoundError(f"dimension d must be 1, 2 or 3, got {d}")
    R = v * tau / a
    if not 0.0 < R < math.inf:
        raise BoundError(f"ratio R = v*tau0/a leaves the float range at "
                         f"v={v!r}, tau0={tau!r}, a={a!r}")
    extent = fixed_point_solve(R, conventions.depth_exponent, conventions.log_base)
    try:
        return extent, extent ** d
    except OverflowError:
        raise BoundError(f"total capacity {extent:g}^{d} overflows a float") from None


def qram_max_qubits(params: HardwareParams, conventions: Conventions) -> BoundResult:
    """Capacity bound from N/log^p(N) <= v*tau0/a along one axis; the total
    across d dimensions is the linear extent raised to the d-th power."""
    v = capped_velocity(params, conventions.velocity_source)
    extent, total = capacity(v, tau0(params.g1, params.g2), params.a,
                             params.d, conventions)
    return BoundResult(
        max_qubits_total=total,
        max_linear_extent=extent,
        velocity_used=v,
        conventions=conventions,
        inputs_digest=params,
    )

