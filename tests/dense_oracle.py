"""Oracles for the monomial bucket-brigade simulator.

A gate acts as a dense unitary on its tensor factors of the full register
state of two-level modes, 2^n_modes amplitudes. The tests compare the
route-map simulator in ``qram_bounds.qram`` against it amplitude by
amplitude, so it shares none of that simulator's code: ``gate_modes`` lists
every gate of a cycle, off-path ones included, from the register layout.
``classical_trace_read`` is the router-by-router walk that reads a bit
without any gate or schedule, and ``simulate_query`` scores one
superposition of addresses from the simulator's route map.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from qram_bounds import qram
from qram_bounds.params import checked_index
from qram_bounds.qram import ClassicalDatabase, QramError

MAX_MODES = 14  # state dimension 2^14


def router_mode(n: int, level: int, pos):
    """Mode of router (level, pos) in the register [A_1..A_n | routers | bus]
    of a depth-``n`` tree, routers in level order."""
    return n + (1 << level) - 1 + pos


def gate_modes(n: int, cycle) -> np.ndarray:
    """Modes of each gate of a swap or route cycle, one row per gate:
    (address, router) of a swap; (ctrl, left, right) of each controlled-SWAP
    of a route, one per level-``ctrl`` router."""
    if cycle.op == "swap":
        return np.array([[cycle.ctrl, router_mode(n, cycle.level, 0)]])
    p = np.arange(1 << cycle.ctrl)
    block = 1 << (cycle.level - cycle.ctrl)
    left = router_mode(n, cycle.level, p * block)
    return np.stack([router_mode(n, cycle.ctrl, p), left, left + block // 2],
                    axis=1)


def apply_unitary(state: np.ndarray, U: np.ndarray, modes, n_modes: int) -> np.ndarray:
    """Apply the unitary U, acting on ``modes`` in that order, to the state
    of an ``n_modes`` register (mode 0 is the most significant bit)."""
    modes = [int(m) for m in modes]
    k = len(modes)
    psi = np.asarray(state, dtype=complex).reshape((2,) * n_modes)
    T = np.asarray(U).reshape((2,) * (2 * k))
    psi = np.tensordot(T, psi, axes=(list(range(k, 2 * k)), modes))
    # tensordot moved the acted-on axes to the front; put them back
    return np.moveaxis(psi, list(range(k)), modes).reshape(-1)


def dense_state(result) -> np.ndarray:
    """The state vector of a ``QueryResult``'s basis rows and amplitudes."""
    n_modes = result.bits.shape[1]
    if n_modes > MAX_MODES:
        raise ValueError(f"register of {n_modes} modes exceeds the "
                         f"{MAX_MODES}-mode cap")
    state = np.zeros(1 << n_modes, dtype=complex)
    state[result.bits @ (1 << np.arange(n_modes)[::-1])] = result.amplitudes
    return state


class Cycle(NamedTuple):
    """One clock cycle of a schedule: a row of ``qram.Schedule``'s columns."""
    phase: str   # one of qram.PHASES
    op: str
    level: int = 0
    ctrl: int = 0


def cycles(schedule) -> tuple[Cycle, ...]:
    """The columns of a ``qram.Schedule`` read as one ``Cycle`` per clock
    cycle."""
    return tuple(map(Cycle, schedule.phases, schedule.ops, schedule.levels, schedule.ctrls))


def classical_trace_read(db: ClassicalDatabase, address: int) -> int:
    """Reference semantics of a read: set the routers level by level from
    the address bits, then walk the bus down the tree following each
    router's state (0 = left, 1 = right) and read the addressed bit."""
    n, address = db.depth, checked_index(QramError, "address", address)
    if not 0 <= address < db.N:
        raise QramError("address out of range")
    bits = [(address >> (n - 1 - k)) & 1 for k in range(n)]
    routers: dict[tuple[int, int], int] = {}
    for k in range(1, n + 1):           # initialization: route k-1 times, drop
        pos = 0
        for level in range(k - 1):
            pos = 2 * pos + routers[(level, pos)]
        routers[(k - 1, pos)] = bits[k - 1]
    pos = 0                              # bus descent
    for level in range(n):
        pos = 2 * pos + routers[(level, pos)]
    return db.bits[pos]


class QueryResult(NamedTuple):
    bits: np.ndarray                  # output basis states (addresses, routers, bus)
    amplitudes: np.ndarray            # one per row of bits
    fidelity: float                   # vs sum_x alpha_x |x>|0_routers>|D_x>
    routers_restored: float           # weight of the routers-all-zero sector


def simulate_query(db: ClassicalDatabase, address_state: np.ndarray,
                   g1: float = math.pi, g2: float = math.pi) -> QueryResult:
    """Route the addresses in ``address_state``; superpose their outputs.
    The oracle of ``qram.verify_retrieval``'s worst-superposition rule: it
    scores one given superposition from the same route map."""
    address_state = np.asarray(address_state, dtype=complex)
    if address_state.shape != (db.N,):
        raise QramError(f"address state must have length {db.N}")
    bad = np.flatnonzero(~np.isfinite(address_state))
    if len(bad):
        raise QramError(f"address state amplitude {bad[0]} is not finite: "
                        f"{address_state[bad[0]]}")
    if abs(np.linalg.norm(address_state) - 1.0) > 1e-12:
        raise QramError("address state must be normalized")
    support = np.flatnonzero(address_state)
    bits, phase = qram._route(db, support, g1, g2)
    alpha = address_state[support]
    _, _, ideal, routers_zero = qram._read_out(db, bits, support)
    amplitudes = alpha * phase
    fidelity = abs(np.vdot(alpha[ideal], amplitudes[ideal])) ** 2
    restored = np.sum(np.abs(amplitudes[routers_zero]) ** 2)
    return QueryResult(bits, amplitudes, float(fidelity), float(restored))
