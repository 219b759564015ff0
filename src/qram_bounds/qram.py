"""Bucket-brigade routing tree: initialization/query schedules with
clock-cycle accounting, and full state-vector simulation for small N.

Register layout used by the simulator (all two-level modes):

    [ A_1 .. A_n | R(0,0) R(1,0) R(1,1) .. R(n-1, 2^(n-1)-1) | bus ]

Address qubit A_k initializes the level-(k-1) router on its branch's path:
step k swaps A_k into the leftmost level-(k-1) router and then applies k-1
routing stages, one per tree level above, each a parallel layer of
controlled-SWAPs that shuffles the payload within level k-1 (the controls on
off-path routers sit in |0> and those gates act as identity, so exactly one
gate per stage does work on any branch, matching the one-routing-per-level
accounting). A query routes the bus down, copies the addressed bit onto it,
routes back up, and finally uncomputes the address from the routers by
running initialization in reverse.

Scheduling counts one routing operation per clock cycle per level (gates on
disjoint subtrees at the same level share a cycle); wall time charges each
cycle its slowest gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gates
from .gates import ControlledSwap, ModeRegister, Swap

MAX_SIM_QUBITS = 8  # state-vector cap for simulate_query


class QramError(ValueError):
    pass


def _depth(N: int) -> int:
    if N < 2 or N & (N - 1):
        raise QramError(f"N must be a power of two >= 2, got {N}")
    return N.bit_length() - 1


# ---------------------------------------------------------------------------
# register layout helpers

def _router_ordinal(level: int, pos: int) -> int:
    return (1 << level) - 1 + pos


def _router_mode(n: int, level: int, pos: int) -> int:
    return n + _router_ordinal(level, pos)


def _bus_mode(n: int) -> int:
    return n + (1 << n) - 1


def _n_modes(n: int) -> int:
    return n + (1 << n)


# ---------------------------------------------------------------------------
# schedules

@dataclass(frozen=True)
class RoutingStage:
    """One clock cycle of address routing: the whole level-`ctrl_level`
    router layer shuffles the payload within level `target_level` in
    parallel (one controlled-SWAP per subtree, acting on disjoint modes;
    only the active-path gate does work on any branch)."""
    n: int
    ctrl_level: int
    target_level: int

    @staticmethod
    def duration(g1: float, g2: float) -> float:
        return gates.cswap_duration(g1, g2)

    def expand(self) -> tuple[ControlledSwap, ...]:
        block = 1 << (self.target_level - self.ctrl_level)
        ops = []
        for p in range(1 << self.ctrl_level):
            ctrl = _router_mode(self.n, self.ctrl_level, p)
            left = _router_mode(self.n, self.target_level, p * block)
            right = _router_mode(self.n, self.target_level,
                                 p * block + block // 2)
            ops.append(ControlledSwap(targets=(ctrl, left, right)))
        return tuple(ops)

    def modes(self) -> tuple[int, ...]:
        out: list[int] = []
        for op in self.expand():
            out.extend(op.modes())
        return tuple(out)


@dataclass(frozen=True)
class BusRouting:
    """One clock cycle routing the bus through a whole tree level."""
    n: int
    level: int

    @staticmethod
    def duration(g1: float, g2: float) -> float:
        return gates.cswap_duration(g1, g2)

    def modes(self) -> tuple[int, ...]:
        return tuple(_router_mode(self.n, self.level, p)
                     for p in range(1 << self.level)) + (_bus_mode(self.n),)


@dataclass(frozen=True)
class DataCopy:
    """Classically controlled bit flip of the bus at the addressed leaf."""
    n: int

    @staticmethod
    def duration(g1: float, g2: float) -> float:
        return gates.t_swap(g1)

    def modes(self) -> tuple[int, ...]:
        return tuple(range(self.n, _n_modes(self.n)))


@dataclass(frozen=True)
class Cycle:
    kind: str    # "route" | "swap" | "data_copy"
    phase: str   # "init" | "descend" | "copy" | "ascend" | "uncompute"
    op: Swap | RoutingStage | BusRouting | DataCopy

    def duration(self, g1: float, g2: float) -> float:
        return self.op.duration(g1, g2)


@dataclass(frozen=True)
class Schedule:
    n: int
    cycles: tuple[Cycle, ...]

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    @property
    def cswap_count(self) -> int:
        """Routing operations, one counted per cycle per the active-path
        accounting (off-path companions share the cycle as identities)."""
        return sum(1 for c in self.cycles if c.kind == "route")

    @property
    def swap_count(self) -> int:
        return sum(1 for c in self.cycles if c.kind == "swap")

    def phase_cycle_count(self, *phases: str) -> int:
        return sum(1 for c in self.cycles if c.phase in phases)

    def wall_time(self, g1: float, g2: float) -> float:
        return sum(c.duration(g1, g2) for c in self.cycles)


def _init_cycles(n: int, phase: str = "init") -> list[Cycle]:
    cycles: list[Cycle] = []
    for k in range(1, n + 1):
        target_level = k - 1
        swap_op = Swap(targets=(k - 1, _router_mode(n, target_level, 0)))
        cycles.append(Cycle(kind="swap", phase=phase, op=swap_op))
        for j in range(k - 1):
            stage = RoutingStage(n=n, ctrl_level=j, target_level=target_level)
            cycles.append(Cycle(kind="route", phase=phase, op=stage))
    return cycles


def schedule_initialization(n: int) -> Schedule:
    """Load n address qubits into the routers: step k swaps address k in and
    routes it k-1 times, for n(n-1)/2 routing cycles and n swap cycles."""
    if n < 1:
        raise QramError("empty tree")
    return Schedule(n=n, cycles=tuple(_init_cycles(n)))


def schedule_query(n: int) -> Schedule:
    """Bus round trip (n routing stages down, data copy, n stages up)
    followed by address uncomputation mirroring initialization in reverse."""
    if n < 1:
        raise QramError("empty tree")
    cycles: list[Cycle] = []
    for level in range(n):
        cycles.append(Cycle(kind="route", phase="descend",
                            op=BusRouting(n=n, level=level)))
    cycles.append(Cycle(kind="data_copy", phase="copy", op=DataCopy(n=n)))
    for level in reversed(range(n)):
        cycles.append(Cycle(kind="route", phase="ascend",
                            op=BusRouting(n=n, level=level)))
    for cycle in reversed(_init_cycles(n, phase="uncompute")):
        cycles.append(cycle)
    return Schedule(n=n, cycles=tuple(cycles))


def total_time(init: Schedule, query: Schedule, g1: float, g2: float) -> float:
    """Wall time of one full load-and-read: sum over cycles of the slowest
    gate per cycle."""
    if init.n != query.n:
        raise QramError("schedules built for different tree depths")
    return init.wall_time(g1, g2) + query.wall_time(g1, g2)


# ---------------------------------------------------------------------------
# classical database and reference semantics

@dataclass(frozen=True)
class ClassicalDatabase:
    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        _depth(len(self.bits))
        if any(b not in (0, 1) for b in self.bits):
            raise QramError("database entries must be bits")

    @property
    def N(self) -> int:
        return len(self.bits)

    @property
    def depth(self) -> int:
        return _depth(len(self.bits))


def read_database(path: str | Path) -> ClassicalDatabase:
    """Load a database from a text file of '0'/'1' characters."""
    text = "".join(Path(path).read_text().split())
    if not text or set(text) - {"0", "1"}:
        raise QramError(f"database file must contain only 0/1 characters: {path}")
    return ClassicalDatabase(bits=tuple(int(c) for c in text))


def random_database(N: int, seed: int) -> ClassicalDatabase:
    rng = np.random.default_rng(seed)
    _depth(N)
    return ClassicalDatabase(bits=tuple(int(b) for b in rng.integers(0, 2, N)))


def classical_trace_read(db: ClassicalDatabase, address: int) -> int:
    """Reference semantics: set the routers level by level from the address
    bits, then walk the bus down the tree following each router's state
    (0 = left, 1 = right) and read the addressed bit."""
    n = db.depth
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


# ---------------------------------------------------------------------------
# state-vector simulation

@dataclass(frozen=True)
class RetrievalRow:
    address: int
    expected: int
    read: int
    fidelity: float


@dataclass(frozen=True)
class QueryResult:
    state: np.ndarray                 # over (addresses, routers, bus)
    n: int
    table: tuple[RetrievalRow, ...]
    fidelity: float                   # vs sum_x alpha_x |x>|0_routers>|D_x>
    routers_restored: float           # weight of the routers-all-zero sector


def _apply_cycles(state: np.ndarray, cycles, register: ModeRegister,
                  swap_u: np.ndarray, cswap_u: np.ndarray) -> np.ndarray:
    for cycle in cycles:
        op = cycle.op
        if isinstance(op, RoutingStage):
            for gate in op.expand():
                state = gates.apply_unitary(state, cswap_u, gate.modes(),
                                            register)
        elif isinstance(op, Swap):
            state = gates.apply_unitary(state, swap_u, op.modes(), register)
        else:
            raise QramError(f"cannot simulate scheduled op {op!r}")
    return state


def _path_config(leaf: int, n: int) -> int:
    """Router basis configuration that initialization leaves for address
    ``leaf``: each router on the leaf's path holds its address bit, every
    other router |0> (router ordinal o is bit 2^n - 2 - o of the index)."""
    n_routers = (1 << n) - 1
    config = 0
    for level in range(n):
        bit = (leaf >> (n - 1 - level)) & 1
        ordinal = _router_ordinal(level, leaf >> (n - level))
        config |= bit << (n_routers - 1 - ordinal)
    return config


def _apply_data_copy(state: np.ndarray, db: ClassicalDatabase, n: int) -> np.ndarray:
    """Permutation flipping the bus on the router path of every leaf that
    holds a 1; identity on configurations no initialization can produce."""
    view = state.reshape(1 << n, -1, 2).copy()
    flip = [_path_config(leaf, n) for leaf, bit in enumerate(db.bits) if bit]
    view[:, flip] = view[:, flip, ::-1]
    return view.reshape(-1)


def simulate_query(db: ClassicalDatabase, address_state: np.ndarray,
                   g1: float, g2: float) -> QueryResult:
    """Run initialization, bus round trip with data copy, and address
    uncomputation on the full register through the gate layer."""
    n = db.depth
    if db.N > MAX_SIM_QUBITS:
        raise QramError(f"state-vector cap: N <= {MAX_SIM_QUBITS}")
    address_state = np.asarray(address_state, dtype=complex)
    if address_state.shape != (db.N,):
        raise QramError(f"address state must have length {db.N}")
    if abs(np.linalg.norm(address_state) - 1.0) > 1e-12:
        raise QramError("address state must be normalized")

    swap_u = gates.swap_unitary(g1)
    cswap_u = gates.cswap_composite(g1, g2)
    register = ModeRegister(_n_modes(n))
    state = np.zeros(register.total_dim, dtype=complex)
    state.reshape(db.N, -1)[:, 0] = address_state

    init = schedule_initialization(n)
    state = _apply_cycles(state, init.cycles, register, swap_u, cswap_u)
    state = _apply_data_copy(state, db, n)
    state = _apply_cycles(state, reversed(init.cycles), register,
                          swap_u.conj().T, cswap_u.conj().T)

    n_routers = (1 << n) - 1
    view = state.reshape(db.N, 1 << n_routers, 2)

    ideal = np.zeros_like(view)
    for x in range(db.N):
        ideal[x, 0, db.bits[x]] = address_state[x]
    fidelity = float(abs(np.vdot(ideal.reshape(-1), state)) ** 2)
    routers_restored = float(np.sum(np.abs(view[:, 0, :]) ** 2))

    rows = []
    for x in range(db.N):
        weight = float(np.sum(np.abs(view[x]) ** 2))
        if weight < 1e-12:
            continue
        p_one = float(np.sum(np.abs(view[x, :, 1]) ** 2)) / weight
        expected = classical_trace_read(db, x)
        row_fid = float(abs(view[x, 0, db.bits[x]]) ** 2) / weight
        rows.append(RetrievalRow(address=x, expected=expected,
                                 read=int(p_one > 0.5), fidelity=row_fid))
    return QueryResult(state=state, n=n, table=tuple(rows),
                       fidelity=fidelity, routers_restored=routers_restored)


@dataclass(frozen=True)
class RetrievalReport:
    rows: tuple[RetrievalRow, ...]
    min_fidelity: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_retrieval(db: ClassicalDatabase, g1: float = math.pi,
                     g2: float = math.pi, n_superpositions: int = 10,
                     seed: int = 7) -> RetrievalReport:
    """Exhaustive correctness harness: every basis address plus random
    superpositions, checked against the classical-trace semantics."""
    rows: list[RetrievalRow] = []
    failures: list[str] = []
    min_fid = 1.0
    for x in range(db.N):
        basis = np.zeros(db.N, dtype=complex)
        basis[x] = 1.0
        result = simulate_query(db, basis, g1, g2)
        row = result.table[0]
        rows.append(row)
        min_fid = min(min_fid, result.fidelity, row.fidelity)
        if row.read != classical_trace_read(db, x):
            failures.append(f"address {x}: read {row.read} != oracle")
        if result.fidelity < 1.0 - 1e-9:
            failures.append(f"address {x}: fidelity {result.fidelity:.12f}")
    rng = np.random.default_rng(seed)
    for i in range(n_superpositions):
        alpha = rng.standard_normal(db.N) + 1j * rng.standard_normal(db.N)
        alpha /= np.linalg.norm(alpha)
        result = simulate_query(db, alpha, g1, g2)
        min_fid = min(min_fid, result.fidelity)
        if result.fidelity < 1.0 - 1e-9:
            failures.append(f"superposition {i}: fidelity {result.fidelity:.12f}")
        if result.routers_restored < 1.0 - 1e-9:
            failures.append(f"superposition {i}: routers not restored")
    return RetrievalReport(rows=tuple(rows), min_fidelity=min_fid,
                           failures=tuple(failures))
