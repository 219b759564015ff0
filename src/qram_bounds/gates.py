"""Primitive router gates (beam splitter, controlled phase) with their
physical time scales, the controlled-SWAP composite, the (permutation,
phases) form of monomial gates, and phase-gauge comparison of unitaries.

All modes are two-level. Generators: excitation exchange
(sigma+ sigma- + h.c., strength g1) for beam splitter/SWAP, number-number
coupling (strength g2) for the controlled phase; both unitaries are written
in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import checked_phase

GAUGE_ROUNDS = 50  # alternating phase alignments in gauge_equivalent


class GateError(ValueError):
    pass


def _coupling(name: str, g: float) -> float:
    if not math.isfinite(g):
        raise GateError(f"non-finite coupling {name}={g!r}")
    if g <= 0:
        raise GateError(f"nonpositive coupling {name}={g!r}")
    if math.isinf(4.0 * g) or math.isinf(math.pi / g):
        raise GateError(f"coupling {name}={g!r} out of range: "
                        f"4*{name} or pi/{name} overflows")
    return g


def t_swap(g1: float) -> float:
    """Full-transfer duration pi/(2 g1) [s]."""
    return math.pi / (2.0 * _coupling("g1", g1))


def t_beamsplitter(g1: float) -> float:
    """50/50 duration pi/(4 g1) [s]."""
    return math.pi / (4.0 * _coupling("g1", g1))


def t_cphase(g2: float) -> float:
    """Pi-phase duration pi/g2 [s]."""
    return math.pi / _coupling("g2", g2)


def bs_unitary(g1: float, t: float) -> np.ndarray:
    """Beam splitter exp(-i t g1 (s+ s- + s- s+)) on two two-level modes:
    the identity on |00> and |11>, and [[cos, -i sin], [-i sin, cos]] of
    g1 t on (|01>, |10>).

    Transfer probability |<01|U|10>|^2 = sin^2(g1 t): full transfer at
    t = pi/(2 g1), 50/50 at t = pi/(4 g1). The transfer carries -i phases.
    """
    phase = checked_phase(GateError, "g1*t of the beam splitter", _coupling("g1", g1), t)
    c, s = math.cos(phase), complex(0.0, -math.sin(phase))
    return np.array([[1, 0, 0, 0], [0, c, s, 0], [0, s, c, 0], [0, 0, 0, 1]],
                    dtype=complex)


def cz_unitary(g2: float, t: float) -> np.ndarray:
    """Controlled phase exp(-i t g2 n x n) = diag(1, 1, 1, exp(-i g2 t));
    diag(1, 1, 1, -1) at t = pi/g2."""
    phase = checked_phase(GateError, "g2*t of the controlled phase", _coupling("g2", g2), t)
    # 0.0 - phase is +0.0 at phase +-0.0, so that entry is 1 + 0j, not 1 - 0j
    return np.diag([1, 1, 1, np.exp(complex(0.0, 0.0 - phase))])


def swap_unitary(g1: float) -> np.ndarray:
    """Full-transfer beam splitter at t = pi/(2 g1) (iSWAP-like phases)."""
    return bs_unitary(g1, t_swap(g1))


def cswap_exact() -> np.ndarray:
    """Textbook controlled-SWAP permutation on (ctrl, a, b): |101> <-> |110>."""
    return np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 6, 5, 7]]


def cswap_composite(g1: float, g2: float) -> np.ndarray:
    """Controlled SWAP on (ctrl, a, b) from beam splitter + CZ + beam splitter.

    The interferometer encloses a controlled phase on arm a and closes with
    the inverse beam splitter, so the composite acts as the controlled-SWAP
    on populations, up to a diagonal phase gauge.
    """
    BS = np.zeros((8, 8), dtype=complex)   # on (a, b), one block per ctrl value
    BS[:4, :4] = BS[4:, 4:] = bs_unitary(g1, t_beamsplitter(g1))
    CZ = np.diag(np.repeat(np.diag(cz_unitary(g2, t_cphase(g2))), 2))   # on (ctrl, a)
    return BS.conj().T @ CZ @ BS


def monomial(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a monomial matrix into (perm, phases) with U|j> = phases[j] |perm[j]>.

    Raises GateError when some column has a second entry above 1e-12 or
    two columns share their nonzero row.
    """
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise GateError("monomial form needs a square matrix")
    cols = np.arange(U.shape[1])
    perm = np.argmax(np.abs(U), axis=0)
    phases = U[perm, cols]
    rest = np.abs(U)
    rest[perm, cols] = 0.0
    if rest.max() > 1e-12 or len(set(perm.tolist())) != len(perm):
        raise GateError("gate is not monomial (tolerance 1e-12)")
    return perm, phases


def checked_duration(what: str, t: float, g1: float, g2: float) -> float:
    """t [s], refused by name when couplings near the float floor sum to inf."""
    if not math.isfinite(t):
        raise GateError(f"{what} overflows a float at g1={g1!r}, g2={g2!r}")
    return t


def cswap_duration(g1: float, g2: float) -> float:
    """2 t_bs + t_cz [s]."""
    return checked_duration("controlled-SWAP duration",
                            2.0 * t_beamsplitter(g1) + t_cphase(g2), g1, g2)


@dataclass(frozen=True)
class GaugeResult:
    equivalent: bool
    fidelity: float


def gauge_equivalent(U: np.ndarray, V: np.ndarray) -> GaugeResult:
    """Compare unitaries up to diagonal phase gauges.

    Maximizes |Tr(D1 U D2 V^dag)| / dim over unit-modulus diagonal D1, D2 by
    alternating exact phase alignment; each half-step is optimal given the
    other, so the fidelity increases monotonically. Stops after GAUGE_ROUNDS
    rounds or when the gain stalls below 1e-12.
    """
    if U.shape != V.shape or U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise GateError("gauge comparison needs equal square matrices")
    dim = U.shape[0]

    def align(diag: np.ndarray) -> np.ndarray:
        mags = np.abs(diag)
        out = np.ones(dim, dtype=complex)
        np.divide(np.conj(diag), mags, out=out, where=mags > 0)
        return out

    d2 = np.ones(dim, dtype=complex)
    fidelity = -1.0
    for _ in range(GAUGE_ROUNDS):
        d1 = align(np.diag((U * d2[None, :]) @ V.conj().T))
        diag2 = np.diag(V.conj().T @ (d1[:, None] * U))
        d2 = align(diag2)
        new_fidelity = float(np.abs(np.sum(d2 * diag2))) / dim
        if new_fidelity - fidelity < 1e-12:
            fidelity = new_fidelity
            break
        fidelity = new_fidelity
    return GaugeResult(equivalent=fidelity >= 1.0 - 1e-9, fidelity=fidelity)
