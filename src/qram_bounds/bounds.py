"""Closed-form velocity and capacity-bound formulas, and the fixed-point
solver for maximum qubit counts.

The lattice velocities count sites per second; ``capped_velocity`` turns
them into m/s through ``lattice.physical_velocity``, the one product with
the spacing a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import lattice as _lattice
from .params import Conventions, HardwareParams, checked_index, density, tau0

SOLVER_STEPS = 10 ** 6  # iteration cap of fixed_point_solve


class BoundError(ValueError):
    pass


class FixedPointError(BoundError):
    """Fixed-point iteration failed to converge (pathological ratio R)."""


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
    """Largest fixed point of N = R * log(N)^p.

    Iterates N <- R * log(N)^p from N0 = max(R, base^2, e^p) until the
    relative change drops below 1e-12; for p = 0 that is R itself. The
    largest fixed point is the capacity. The tangency point e^p (in either
    log base) lies between the two roots whenever they exist, so from N0
    the iteration reaches the largest one whenever it lies strictly above
    the tangency point. For p >= 1 a root exists exactly when R reaches
    (e/p)^p, times (ln 2)^p in base 2, and a smaller R is refused before
    iterating. Raises FixedPointError, at every p, when the iterate
    leaves N > 1, overflows a float, or fails to converge within
    SOLVER_STEPS steps: R * log^p has no fixed point above 1, or only a
    tangency.
    """
    if not math.isfinite(R):
        raise BoundError(f"non-finite ratio R = {R}")
    if (p := checked_index(BoundError, "depth exponent p", p)) < 0:
        raise BoundError("negative depth exponent")
    if log_base not in ("natural", "2"):
        raise BoundError(f"unknown log base {log_base!r} (use 'natural' or '2')")
    base = math.e if log_base == "natural" else 2.0
    logf = math.log if log_base == "natural" else math.log2
    try:
        # the threshold is at most e, and ln e is 1.0 exactly: (e/p)^p in base e
        if p >= 1 and R < math.e and R < (
                threshold := (math.e / p) ** p * math.log(base) ** p):
            raise FixedPointError(f"no fixed point above 1 for N = {R:g}*log^{p}(N): "
                                  f"R is below the root threshold {threshold:.10g}")
        N = max(R, base * base, math.exp(p))
        for _ in range(SOLVER_STEPS):
            new = R * logf(N) ** p
            if new <= 1.0 or not math.isfinite(new):
                raise FixedPointError(
                    f"no fixed point above 1 for N = {R:g}*log^{p}(N)")
            if abs(new - N) <= 1e-12 * new:
                return new
            N = new
    except OverflowError:
        raise FixedPointError(f"fixed point of N = {R:g}*log^{p}(N) "
                              "overflows a float") from None
    raise FixedPointError(
        f"no convergence after {SOLVER_STEPS} iterations for N = {R:g}*log^{p}(N)")


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

