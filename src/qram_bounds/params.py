"""Self-checking hardware configuration shared by all modules, plus unit conventions.

All public quantities are strict SI (meters, seconds, kilograms, rad/s).
Lattice-unit values appear only where explicitly labeled.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s


class ParamsError(ValueError):
    """Raised on the first violated configuration invariant."""


@dataclass(frozen=True)
class HardwareParams:
    a: float                 # lattice spacing [m]
    delta_t: float           # clock cycle time [s]
    g1: float                # beam-splitter effective coupling [rad/s]
    g2: float                # controlled-phase effective coupling [rad/s]
    lam: tuple[float, ...]   # spring constants lambda_1..lambda_nu [kg/s^2]
    m: float                 # site mass [kg]
    d: int                   # spatial dimension, 1 | 2 | 3
    c_max: float = SPEED_OF_LIGHT  # absolute speed cap [m/s]

    def __post_init__(self):
        """Raise ParamsError naming the first violated invariant, couplings first."""
        object.__setattr__(self, "lam",
                           checked_couplings(ParamsError, self.d, self.lam, self.m))
        for name in ("a", "delta_t", "g1", "g2", "c_max"):
            if not math.isfinite(getattr(self, name)):
                raise ParamsError(f"non-finite {name}")
        if self.a <= 0:
            raise ParamsError("nonpositive lattice spacing")
        if self.delta_t <= 0:
            raise ParamsError("nonpositive clock cycle time")
        tau0(self.g1, self.g2)   # refuses a nonpositive or overflowing coupling
        if self.c_max <= 0:
            raise ParamsError("nonpositive speed cap")

    @property
    def nu(self) -> int:
        """Interaction range cutoff: the number of couplings."""
        return len(self.lam)


@dataclass(frozen=True)
class Conventions:
    """Logarithm/depth/velocity conventions attached to every bound result.

    The source texts mix conventions (depth exponent 1 with natural log for
    the naive estimate, exponent 2 for the gate-level schedule), so nothing
    is baked in: every result records the conventions that produced it.
    The field defaults are the one copy of the convention defaults; the preset
    sweep grids and ``cli.DEFAULTS`` (so ``--help``) read them from here.
    """
    log_base: str = "natural"          # "natural" | "2"
    depth_exponent: int = 2            # p in T ~ tau0 * log^p(N), p >= 0
    velocity_source: str | float = "lieb_robinson"
    # "lieb_robinson" | "qft" | "group" | explicit value in m/s, or the
    # teleport bound's "teleport-hybrid": c_max, refused off d = 2 where read

    def __post_init__(self):
        """Refuse unknown or out-of-range conventions; spell the log base
        "natural" or "2" and store an explicit velocity as a float."""
        base = str(self.log_base).lower()
        if base in ("natural", "e"):
            base = "natural"
        elif base in ("2", "two"):
            base = "2"
        else:
            raise ParamsError(f"unknown log base {self.log_base!r} (use 'natural' or '2')")
        try:
            p = checked_index(ParamsError, "depth exponent", self.depth_exponent, 0)
        except ParamsError:
            raise ParamsError("depth exponent must be an integer >= 0") from None
        src = self.velocity_source
        if isinstance(src, str):
            if src not in ("lieb_robinson", "qft", "group", "teleport-hybrid"):
                raise ParamsError(f"unknown velocity source {src!r}")
        else:
            src = float(src)
            if not math.isfinite(src):
                raise ParamsError(f"non-finite explicit velocity {src}")
            if src <= 0:
                raise ParamsError("nonpositive explicit velocity")
        object.__setattr__(self, "log_base", base)
        object.__setattr__(self, "depth_exponent", p)
        object.__setattr__(self, "velocity_source", src)


def checked_couplings(error: type[ValueError], d: int, lam, m: float) -> tuple:
    """The couplings ``lam`` as a tuple of floats, refused by ``error`` at the
    first violated lattice invariant: d is the int 1, 2 or 3, m is finite and
    positive, and lam holds one or more finite couplings >= 0, not all zero."""
    lam = tuple(map(float, lam))
    if type(d) is not int or d not in (1, 2, 3):
        raise error("dimension must be 1, 2, or 3")
    if not math.isfinite(m):
        raise error("non-finite site mass m")
    if not all(map(math.isfinite, lam)):
        raise error("non-finite spring constant in lam")
    if m <= 0:
        raise error("nonpositive site mass")
    if not lam:
        raise error("nonpositive interaction range")
    if min(lam) < 0:
        raise error("negative spring constant")
    if max(lam) == 0:
        raise error("all spring constants zero")
    return lam


def tau0(g1: float, g2: float) -> float:
    """Per-stage gate-time scale pi/g1 + pi/g2 [s]; refuses a coupling so
    small that it overflows."""
    if g1 <= 0 or g2 <= 0:
        raise ParamsError("nonpositive coupling")
    t1, t2 = math.pi / g1, math.pi / g2
    if not math.isfinite(t1 + t2):
        name, g = ("g1", g1) if not math.isfinite(t1) or t1 > t2 else ("g2", g2)
        raise ParamsError(f"non-finite tau0 = pi/g1 + pi/g2 from coupling {name}={g!r}")
    return t1 + t2


def density(params: HardwareParams) -> float:
    """Mass density m / a^d [kg/m^d] of the discrete lattice; refuses an
    a^d or a density that leaves the float range."""
    try:
        rho = params.m / params.a ** params.d
    except (OverflowError, ZeroDivisionError):
        raise ParamsError(f"a^d = {params.a:g}^{params.d} leaves the float "
                          "range in the density m/a^d") from None
    if math.isinf(rho):
        raise ParamsError(f"density m/a^d = {params.m:g}/{params.a:g}^{params.d} "
                          "overflows a float")
    return rho


def checked_phase(error: type[ValueError], what: str, w: float, t: float) -> float:
    """The phase ``what`` = w * t [rad], refused by name outside the float range."""
    phase = float(w) * float(t)
    if not math.isfinite(phase):
        raise error(f"phase {what} = {float(w)!r}*{float(t)!r} leaves the float range")
    return phase


def checked_cap(error: type[ValueError], what: str, amount, unit: str, cap: int) -> None:
    """The one refusal of every work cap: ``amount`` unless <= ``cap``, inf and NaN too."""
    if not amount <= cap:
        raise error(f"{what} {amount} {unit}, above the cap of {cap}")


def checked_index(error: type[ValueError], what: str, value: object,
                  least: int | None = None) -> int:
    """``value`` as a Python int through ``operator.index``, refused by
    ``error`` naming ``what`` where it is a bool, has no integer meaning
    (2.0 included) or lies below ``least``. A plain int, which every
    internal caller passes, costs one type test."""
    if type(value) is not int:
        if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
            raise error(f"{what} must be an integer, got {value!r}")
        value = operator.index(value)
    if least is not None and value < least:
        raise error(f"{what} must be >= {least}, got {value}")
    return value


# Configuration files are flat "key = value" text; `lambda` is a
# comma-separated list. Keys match the field names above except that the
# reserved word `lambda` maps onto the `lam` attribute, and `nu`, the range
# that the file states, must equal the number of couplings.
_CONFIG_KEYS = ("a", "delta_t", "g1", "g2", "lambda", "m", "d", "nu", "c_max")
_REQUIRED_KEYS = ("a", "delta_t", "g1", "g2", "lambda", "m", "d", "nu")


def load_config(path: str | Path) -> HardwareParams:
    """Parse a hardware configuration file into a checked record."""
    path = Path(path)
    if not path.exists():
        raise ParamsError(f"config not found: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError:
        raise ParamsError(f"config is not text: {path}") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParamsError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ParamsError(f"unknown config key {key!r}")
        if key in raw:
            raise ParamsError(f"duplicate config key {key!r}")
        raw[key] = value
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ParamsError(f"missing config keys: {', '.join(missing)}")
    try:
        lam = tuple(float(x) for x in raw["lambda"].split(","))
        a, delta_t, g1, g2, m = (float(raw[k]) for k in ("a", "delta_t", "g1", "g2", "m"))
        d, nu = int(raw["d"]), int(raw["nu"])
        params = HardwareParams(a=a, delta_t=delta_t, g1=g1, g2=g2, lam=lam, m=m, d=d,
                                c_max=float(raw.get("c_max", SPEED_OF_LIGHT)))
    except ValueError as exc:
        if isinstance(exc, ParamsError):
            raise
        raise ParamsError(f"malformed config value: {exc}") from exc
    if nu < 1:
        raise ParamsError("nonpositive interaction range")
    if nu != params.nu:
        raise ParamsError("range/coupling length mismatch")
    return params
