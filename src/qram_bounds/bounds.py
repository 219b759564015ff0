"""Closed-form velocity and capacity-bound formulas, and the fixed-point
solver for maximum qubit counts.

Velocities come in two unit systems: "lattice units" count sites per second
(spacing a = 1); multiplying by the spacing a gives m/s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import lattice as _lattice
from .params import (Conventions, HardwareParams, density, tau0, validate,
                     validate_conventions)

SOLVER_STEPS = 10 ** 6  # iteration cap of fixed_point_solve


class BoundError(ValueError):
    pass


class FixedPointError(BoundError):
    """Fixed-point iteration failed to converge (pathological ratio R)."""


@dataclass(frozen=True)
class Speed:
    lattice_units: float  # sites/s
    physical: float       # m/s


@dataclass(frozen=True)
class BoundResult:
    max_qubits_total: float    # real-valued; callers may floor
    max_linear_extent: float   # qubits along one axis
    velocity_used: float       # m/s, after the c_max cap
    conventions: Conventions
    inputs_digest: HardwareParams


def lr_velocity(params: HardwareParams) -> Speed:
    """Commutator-growth speed limit 4*sqrt(d * sum(lam)/m) of the harmonic
    lattice, in sites/s and m/s."""
    validate(params)
    v_lat = 4.0 * math.sqrt(params.d * sum(params.lam) / params.m)
    return Speed(lattice_units=v_lat, physical=params.a * v_lat)


def coarse_grain(params: HardwareParams) -> float:
    """Long-wavelength continuum stiffness d * sum_j lam_j * j^2 * a^(2-d),
    which with the density m / a^d gives the lattice's long-wave speed."""
    validate(params)
    return params.d * params.a ** (2 - params.d) * sum(
        l * j * j for j, l in enumerate(params.lam, start=1))


def qft_velocity(lambda_d: float, rho: float) -> float:
    """Continuum propagation speed sqrt(lambda_d / rho)."""
    if rho <= 0:
        raise BoundError("nonpositive density")
    if lambda_d < 0:
        raise BoundError("negative stiffness")
    return math.sqrt(lambda_d / rho)


def fixed_point_solve(R: float, p: int, log_base: str = "natural") -> float:
    """Largest fixed point of N = R * log(N)^p.

    Iterates N <- R * log(N)^p from N0 = max(R, base^2, e^p) until the
    relative change drops below 1e-12. For p = 0 the answer is R itself. The
    largest fixed point is the capacity (the small root of the
    transcendental equation is not). The tangency point e^p (in either log
    base) lies between the two roots whenever they exist, so from N0 the
    iteration converges to the largest one whenever it exists strictly
    above the tangency point.

    Raises FixedPointError when the iterate leaves the domain, overflows a
    float, or fails to converge within SOLVER_STEPS steps, which signals a
    pathological R (R * log^p has no fixed point above 1, or only a
    tangency).
    """
    if not math.isfinite(R):
        raise BoundError(f"non-finite ratio R = {R}")
    if R <= 0:
        raise BoundError("nonpositive ratio R")
    if p < 0:
        raise BoundError("negative depth exponent")
    if p == 0:
        return R
    base = math.e if log_base == "natural" else 2.0
    logf = math.log if log_base == "natural" else math.log2
    try:
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
    return fixed_point_solve(c * delta_t / a, p=1, log_base=log_base)


def _resolve_velocity(params: HardwareParams, conv: Conventions) -> float:
    """Physical velocity [m/s] selected by ``conv.velocity_source``.

    An explicit numeric source is the per-axis (1D-form) speed scale; the
    d-dimensional limit picks up the sqrt(d) enhancement, mirroring the
    closed forms for the lattice and continuum limits. The "group" source
    is the actual maximal group velocity of the dispersion (no sqrt(d)).
    """
    src = conv.velocity_source
    if src == "lieb_robinson":
        return lr_velocity(params).physical
    if src == "qft":
        return qft_velocity(coarse_grain(params), density(params))
    if src == "group":
        spec = _lattice.LatticeSpec(d=params.d, L=2 * params.nu + 2,
                                    lam=params.lam, m=params.m, a=params.a)
        return _lattice.max_group_velocity(spec).physical
    if src == "teleport-hybrid":
        return params.c_max
    return math.sqrt(params.d) * float(src)


def qram_max_qubits(params: HardwareParams, conventions: Conventions) -> BoundResult:
    """Capacity bound from N/log^p(N) <= v*tau0/a along one axis; the total
    across d dimensions is the linear extent raised to the d-th power."""
    validate(params)
    conv = validate_conventions(conventions)
    v = min(_resolve_velocity(params, conv), params.c_max)
    R = v * tau0(params.g1, params.g2) / params.a
    extent = fixed_point_solve(R, conv.depth_exponent, conv.log_base)
    try:
        total = extent ** params.d
    except OverflowError:
        raise BoundError(f"total capacity {extent:g}^{params.d} overflows "
                         "a float") from None
    return BoundResult(
        max_qubits_total=total,
        max_linear_extent=extent,
        velocity_used=v,
        conventions=conv,
        inputs_digest=params,
    )


def teleport_hybrid_max_qubits(params: HardwareParams,
                               conventions: Conventions) -> BoundResult:
    """2D capacity bound when routing hops run at the absolute speed cap
    (teleportation-based routing) while only a vanishing fraction of the
    distance is covered at sound speed."""
    if validate(params).d != 2:
        raise BoundError("teleport-hybrid defined for d=2")
    return qram_max_qubits(params, replace(validate_conventions(conventions),
                                           velocity_source="teleport-hybrid"))
