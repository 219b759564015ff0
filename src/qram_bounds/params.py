"""Self-checking hardware configuration shared by all modules, plus unit conventions.

All public quantities are strict SI (meters, seconds, kilograms, rad/s).
Lattice-unit values appear only where explicitly labeled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

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
    nu: int                  # interaction range cutoff (== len(lam))
    c_max: float = SPEED_OF_LIGHT  # absolute speed cap [m/s]

    def __post_init__(self):
        """Raise ParamsError naming the first violated invariant."""
        object.__setattr__(self, "lam", tuple(float(x) for x in self.lam))
        for name in ("a", "delta_t", "g1", "g2", "m", "c_max"):
            if not math.isfinite(getattr(self, name)):
                raise ParamsError(f"non-finite {name}")
        if not all(math.isfinite(l) for l in self.lam):
            raise ParamsError("non-finite spring constant in lam")
        if self.a <= 0:
            raise ParamsError("nonpositive lattice spacing")
        if self.delta_t <= 0:
            raise ParamsError("nonpositive clock cycle time")
        tau0(self.g1, self.g2)   # refuses a nonpositive or overflowing coupling
        if self.m <= 0:
            raise ParamsError("nonpositive site mass")
        if self.c_max <= 0:
            raise ParamsError("nonpositive speed cap")
        if any(l < 0 for l in self.lam):
            raise ParamsError("negative spring constant")
        if not any(l > 0 for l in self.lam):
            raise ParamsError("all spring constants zero")
        if self.d not in (1, 2, 3):
            raise ParamsError("dimension must be 1, 2, or 3")
        if self.nu < 1:
            raise ParamsError("nonpositive interaction range")
        if len(self.lam) != self.nu:
            raise ParamsError("range/coupling length mismatch")


@dataclass(frozen=True)
class Conventions:
    """Logarithm/depth/velocity conventions attached to every bound result.

    The source texts mix conventions (depth exponent 1 with natural log for
    the naive estimate, exponent 2 for the gate-level schedule), so nothing
    is baked in: every result records the conventions that produced it.
    """
    log_base: str = "natural"          # "natural" | "2"
    depth_exponent: int = 2            # p in T ~ tau0 * log^p(N), p >= 0
    velocity_source: str | float = "lieb_robinson"
    # "lieb_robinson" | "qft" | "group" | explicit value in m/s
    # (the teleport-hybrid path stamps "teleport-hybrid" on its results)

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
        if not (isinstance(self.depth_exponent, int) and self.depth_exponent >= 0):
            raise ParamsError("depth exponent must be an integer >= 0")
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
        object.__setattr__(self, "velocity_source", src)


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


# Configuration files are flat "key = value" text; `lambda` is a
# comma-separated list. Keys match the field names above except that the
# reserved word `lambda` maps onto the `lam` attribute.
_CONFIG_KEYS = ("a", "delta_t", "g1", "g2", "lambda", "m", "d", "nu", "c_max")
_REQUIRED_KEYS = ("a", "delta_t", "g1", "g2", "lambda", "m", "d", "nu")


def load_config(path: str | Path) -> HardwareParams:
    """Parse a hardware configuration file into a checked record."""
    path = Path(path)
    if not path.exists():
        raise ParamsError(f"config not found: {path}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
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
        return HardwareParams(
            a=float(raw["a"]),
            delta_t=float(raw["delta_t"]),
            g1=float(raw["g1"]),
            g2=float(raw["g2"]),
            lam=lam,
            m=float(raw["m"]),
            d=int(raw["d"]),
            nu=int(raw["nu"]),
            c_max=float(raw.get("c_max", SPEED_OF_LIGHT)),
        )
    except ValueError as exc:
        if isinstance(exc, ParamsError):
            raise
        raise ParamsError(f"malformed config value: {exc}") from exc
