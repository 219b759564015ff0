"""Primitive router gates (beam splitter, controlled phase) with their
physical time scales, the controlled-SWAP composite, the (permutation,
phases) form of monomial gates, and phase-gauge comparison of unitaries.

All modes are two-level. Generators: excitation exchange
(sigma+ sigma- + h.c., strength g1) for beam splitter/SWAP, number-number
coupling (strength g2) for the controlled phase.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_REGISTER_MODES = 14  # state dimension 2^14


class GateError(ValueError):
    pass


@dataclass(frozen=True)
class ModeRegister:
    """Ordered register of two-level modes."""
    n_modes: int

    def __post_init__(self):
        if self.n_modes > MAX_REGISTER_MODES:
            raise GateError(f"register of {self.n_modes} modes exceeds the "
                            f"{MAX_REGISTER_MODES}-mode cap")

    @property
    def total_dim(self) -> int:
        return 1 << self.n_modes


def _coupling(name: str, g: float) -> float:
    if not math.isfinite(g):
        raise GateError(f"non-finite coupling {name}={g!r}")
    if g <= 0:
        raise GateError(f"nonpositive coupling {name}={g!r}")
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


# two-level operators
_SP = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
_NUM = np.array([[0, 0], [0, 1]], dtype=complex)

_EXCHANGE = np.kron(_SP, _SP.conj().T) + np.kron(_SP.conj().T, _SP)


def _expm_herm(H: np.ndarray, scale: float) -> np.ndarray:
    """exp(-1j * scale * H) for Hermitian H."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * scale * w)) @ V.conj().T


def bs_unitary(g1: float, t: float) -> np.ndarray:
    """Beam splitter exp(-i t g1 (s+ s- + s- s+)) on two two-level modes.

    Transfer probability |<01|U|10>|^2 = sin^2(g1 t): full transfer at
    t = pi/(2 g1), 50/50 at t = pi/(4 g1). The transfer carries -i phases.
    """
    return _expm_herm(_EXCHANGE, _coupling("g1", g1) * t)


def cz_unitary(g2: float, t: float) -> np.ndarray:
    """Controlled phase exp(-i t g2 n x n); diag(1, 1, 1, -1) at t = pi/g2."""
    return np.diag(np.exp(-1j * _coupling("g2", g2) * t
                          * np.diag(np.kron(_NUM, _NUM))))


def swap_unitary(g1: float) -> np.ndarray:
    """Full-transfer beam splitter at t = pi/(2 g1) (iSWAP-like phases)."""
    return bs_unitary(g1, t_swap(g1))


def cswap_exact() -> np.ndarray:
    """Textbook controlled-SWAP permutation on (ctrl, a, b)."""
    U = np.eye(8, dtype=complex)
    U[[5, 6], [5, 6]] = 0.0
    U[5, 6] = U[6, 5] = 1.0
    return U


def _embed(U2: np.ndarray, pair: tuple[int, int], n_modes: int = 3) -> np.ndarray:
    """Embed a two-mode unitary on the given mode pair of an n-mode register."""
    dim = 2 ** n_modes
    T = U2.reshape(2, 2, 2, 2)
    full = np.eye(dim, dtype=complex).reshape([2] * (2 * n_modes))
    # contract the identity's output legs for the pair with U2
    out_axes = list(pair)
    full = np.tensordot(T, full, axes=([2, 3], out_axes))
    # tensordot left the pair's new output legs in front; restore ordering
    order = []
    src = 2
    for axis in range(n_modes):
        if axis == pair[0]:
            order.append(0)
        elif axis == pair[1]:
            order.append(1)
        else:
            order.append(src)
            src += 1
    order += list(range(src, src + n_modes))
    return full.transpose(order).reshape(dim, dim)


def cswap_composite(g1: float, g2: float, cz_arm: str = "a",
                    second_bs_inverse: bool = True) -> np.ndarray:
    """Controlled SWAP on (ctrl, a, b) from beam splitter + CZ + beam splitter.

    The interferometer encloses a controlled phase on one arm: with the
    closing beam splitter inverted (the default) the composite acts as the
    controlled-SWAP on populations, up to a diagonal phase gauge. The
    same-orientation closing splitter does not (kept behind the flag for
    comparison). ``cz_arm`` selects which arm carries the controlled phase;
    the choice only moves the gauge.
    """
    if cz_arm not in ("a", "b"):
        raise GateError("cz_arm must be 'a' or 'b'")
    BS = _embed(bs_unitary(g1, t_beamsplitter(g1)), (1, 2))
    CZ = _embed(cz_unitary(g2, t_cphase(g2)), (0, 1 if cz_arm == "a" else 2))
    closing = BS.conj().T if second_bs_inverse else BS
    return closing @ CZ @ BS


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


def cswap_duration(g1: float, g2: float) -> float:
    """2 t_bs + t_cz [s]."""
    return 2.0 * t_beamsplitter(g1) + t_cphase(g2)


@dataclass(frozen=True)
class GaugeResult:
    equivalent: bool
    fidelity: float


def gauge_equivalent(U: np.ndarray, V: np.ndarray,
                     max_iter: int = 50) -> GaugeResult:
    """Compare unitaries up to diagonal phase gauges.

    Maximizes |Tr(D1 U D2 V^dag)| / dim over unit-modulus diagonal D1, D2 by
    alternating exact phase alignment; each half-step is optimal given the
    other, so the fidelity increases monotonically. Stops after ``max_iter``
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
    for _ in range(max_iter):
        d1 = align(np.diag((U * d2[None, :]) @ V.conj().T))
        diag2 = np.diag(V.conj().T @ (d1[:, None] * U))
        d2 = align(diag2)
        new_fidelity = float(np.abs(np.sum(d2 * diag2))) / dim
        if new_fidelity - fidelity < 1e-12:
            fidelity = new_fidelity
            break
        fidelity = new_fidelity
    return GaugeResult(equivalent=fidelity >= 1.0 - 1e-9, fidelity=fidelity)


@dataclass(frozen=True)
class BeamSplitter:
    targets: tuple[int, int]
    duration: float  # seconds

    def unitary(self, g1: float, g2: float) -> np.ndarray:
        return bs_unitary(g1, self.duration)

    def modes(self) -> tuple[int, ...]:
        return self.targets


@dataclass(frozen=True)
class Swap:
    targets: tuple[int, int]

    @staticmethod
    def duration(g1: float, g2: float) -> float:
        return t_swap(g1)

    def unitary(self, g1: float, g2: float) -> np.ndarray:
        return swap_unitary(g1)

    def modes(self) -> tuple[int, ...]:
        return self.targets


@dataclass(frozen=True)
class ControlledPhase:
    targets: tuple[int, int]  # (ctrl, tgt)

    @staticmethod
    def duration(g1: float, g2: float) -> float:
        return t_cphase(g2)

    def unitary(self, g1: float, g2: float) -> np.ndarray:
        return cz_unitary(g2, t_cphase(g2))

    def modes(self) -> tuple[int, ...]:
        return self.targets


@dataclass(frozen=True)
class ControlledSwap:
    targets: tuple[int, int, int]  # (ctrl, a, b)

    @staticmethod
    def duration(g1: float, g2: float) -> float:
        return cswap_duration(g1, g2)

    def unitary(self, g1: float, g2: float) -> np.ndarray:
        return cswap_composite(g1, g2)

    def modes(self) -> tuple[int, ...]:
        return self.targets


GateSpec = BeamSplitter | Swap | ControlledPhase | ControlledSwap


def _check_targets(gate: GateSpec, register: ModeRegister) -> None:
    modes = gate.modes()
    if len(set(modes)) != len(modes):
        raise GateError("gate targets must be distinct")
    if any(not 0 <= m < register.n_modes for m in modes):
        raise GateError("gate target out of range")


def apply_gate(state: np.ndarray, gate: GateSpec, register: ModeRegister,
               g1: float = 1.0, g2: float = 1.0) -> np.ndarray:
    """Apply the gate's unitary on its target tensor factors of ``state``."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (register.total_dim,):
        raise GateError("state dimension does not match register")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-12:
        raise GateError("state is not normalized")
    _check_targets(gate, register)
    return apply_unitary(state, gate.unitary(g1, g2), gate.modes(), register)


def apply_unitary(state: np.ndarray, U: np.ndarray, modes: tuple[int, ...],
                  register: ModeRegister) -> np.ndarray:
    """Apply a dense unitary acting on ``modes`` to the full register state."""
    k = len(modes)
    psi = state.reshape((2,) * register.n_modes)
    T = U.reshape((2,) * (2 * k))
    psi = np.tensordot(T, psi, axes=(list(range(k, 2 * k)), list(modes)))
    # tensordot moved the acted-on axes to the front; put them back
    order = [0] * register.n_modes
    src = k
    for axis in range(register.n_modes):
        if axis in modes:
            order[axis] = modes.index(axis)
        else:
            order[axis] = src
            src += 1
    return psi.transpose(order).reshape(-1)
