"""Bucket-brigade routing tree: initialization/query schedules with
clock-cycle accounting, and a monomial simulator of the query circuit.

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

Every router gate is monomial, so the simulator carries each basis address
(N <= 2^12) as one bit row and one phase through init, leaf copy and init^-1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gates

MAX_LEAVES = 1 << 12  # leaf cap of the simulator


class QramError(ValueError):
    pass


def _depth(N: int) -> int:
    if N < 2 or N & (N - 1):
        raise QramError(f"N must be a power of two >= 2, got {N}")
    return N.bit_length() - 1


# ---------------------------------------------------------------------------
# register layout helpers

def _router_mode(n: int, level: int, pos: int) -> int:
    return n + (1 << level) - 1 + pos


def _bus_mode(n: int) -> int:
    return n + (1 << n) - 1


def _n_modes(n: int) -> int:
    return n + (1 << n)


# ---------------------------------------------------------------------------
# schedules

@dataclass(frozen=True)
class Swap:
    """One clock cycle moving an address qubit into a router."""
    targets: tuple[int, int]

    @staticmethod
    def duration(g1: float, g2: float) -> float:
        return gates.t_swap(g1)

    def modes(self) -> tuple[int, ...]:
        return self.targets


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

    def modes(self) -> np.ndarray:
        """(ctrl, left, right) modes of each controlled-SWAP, one row per
        level-`ctrl_level` router."""
        p = np.arange(1 << self.ctrl_level)
        block = 1 << (self.target_level - self.ctrl_level)
        left = _router_mode(self.n, self.target_level, p * block)
        return np.stack([_router_mode(self.n, self.ctrl_level, p),
                         left, left + block // 2], axis=1)


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
        """Sum of cycle durations in cycle order; each op class's duration
        is computed once."""
        kinds = dict.fromkeys(type(c.op) for c in self.cycles)
        durations = {kind: kind.duration(g1, g2) for kind in kinds}
        return sum(durations[type(c.op)] for c in self.cycles)


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
    cycles.extend(reversed(_init_cycles(n, phase="uncompute")))
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
# monomial simulation

@dataclass(frozen=True)
class RetrievalRow:
    address: int
    expected: int
    read: int
    fidelity: float


@dataclass(frozen=True)
class QueryResult:
    bits: np.ndarray                  # output basis states (addresses, routers, bus)
    amplitudes: np.ndarray            # one per row of bits
    table: tuple[RetrievalRow, ...]
    fidelity: float                   # vs sum_x alpha_x |x>|0_routers>|D_x>
    routers_restored: float           # weight of the routers-all-zero sector


def _run_cycles(bits: np.ndarray, phase: np.ndarray, cycles, tables) -> None:
    """Apply the cycles in place to every row; the gates of a routing stage
    act on disjoint modes and go in one indexed step."""
    for cycle in cycles:
        op = cycle.op
        if not isinstance(op, (RoutingStage, Swap)):
            raise QramError(f"cannot simulate scheduled op {op!r}")
        modes = np.atleast_2d(op.modes())
        perm, phases = tables[type(op)]
        shifts = np.arange(modes.shape[1])[::-1]
        local = (bits[:, modes] << shifts).sum(axis=2)
        phase *= phases[local].prod(axis=1)
        bits[:, modes] = (perm[local][..., None] >> shifts) & 1


def _copy_data(bits: np.ndarray, db: ClassicalDatabase, n: int) -> None:
    """Flip the bus where the routers hold exactly the path to a leaf that
    stores a 1: as many routers set in all as on the walk to the leaf."""
    rows = np.arange(len(bits))
    leaf = on_path = np.zeros(len(bits), dtype=np.int64)
    for level in range(n):
        bit = bits[rows, _router_mode(n, level, 0) + leaf]
        leaf, on_path = 2 * leaf + bit, on_path + bit
    is_path = bits[:, n:_bus_mode(n)].sum(axis=1) == on_path
    bits[is_path & (np.asarray(db.bits)[leaf] == 1), _bus_mode(n)] ^= 1


def _route(db: ClassicalDatabase, addresses: np.ndarray, g1: float,
           g2: float) -> tuple[np.ndarray, np.ndarray]:
    """Run init, data copy and init in reverse on basis addresses; every
    gate is monomial, so each stays one basis state: (bit rows, phases)."""
    if db.N > MAX_LEAVES:
        raise QramError(f"leaf cap: N <= {MAX_LEAVES}, got {db.N}")
    n = db.depth
    units = {Swap: gates.swap_unitary(g1), RoutingStage: gates.cswap_composite(g1, g2)}
    forward = {kind: gates.monomial(U) for kind, U in units.items()}
    inverse = {kind: gates.monomial(U.conj().T) for kind, U in units.items()}
    bits = np.zeros((len(addresses), _n_modes(n)), dtype=np.uint8)
    bits[:, :n] = (addresses[:, None] >> np.arange(n)[::-1]) & 1
    phase = np.ones(len(addresses), dtype=complex)
    init = schedule_initialization(n)
    _run_cycles(bits, phase, init.cycles, forward)
    _copy_data(bits, db, n)
    _run_cycles(bits, phase, reversed(init.cycles), inverse)
    return bits, phase


def _read_out(alpha: np.ndarray, bits: np.ndarray, amplitudes: np.ndarray,
              stored: np.ndarray, expected) -> QueryResult:
    """Read out an output of distinct basis states ``bits``; ``stored`` are
    the database bits and ``expected(x)`` the oracle read of address x."""
    N, n = len(stored), _depth(len(stored))
    address = bits[:, :n] @ (1 << np.arange(n)[::-1])
    routers_zero = ~bits[:, n:_bus_mode(n)].any(axis=1)
    bus = bits[:, _bus_mode(n)]
    ideal = routers_zero & (bus == stored[address])
    prob = np.abs(amplitudes) ** 2
    weight, p_one, hit = (np.bincount(address, prob * w, minlength=N)
                          for w in (1.0, bus, ideal))
    rows = tuple(RetrievalRow(address=x, expected=expected(x),
                              read=int(p_one[x] / weight[x] > 0.5),
                              fidelity=float(hit[x] / weight[x]))
                 for x in np.flatnonzero(weight >= 1e-12).tolist())
    return QueryResult(
        bits=bits, amplitudes=amplitudes, table=rows,
        fidelity=float(abs(np.vdot(alpha[address[ideal]], amplitudes[ideal])) ** 2),
        routers_restored=float(np.sum(prob[routers_zero])))


def simulate_query(db: ClassicalDatabase, address_state: np.ndarray,
                   g1: float, g2: float) -> QueryResult:
    """Route the addresses in ``address_state``; superpose their outputs."""
    address_state = np.asarray(address_state, dtype=complex)
    if address_state.shape != (db.N,):
        raise QramError(f"address state must have length {db.N}")
    if abs(np.linalg.norm(address_state) - 1.0) > 1e-12:
        raise QramError("address state must be normalized")
    support = np.flatnonzero(address_state)
    bits, phase = _route(db, support, g1, g2)
    return _read_out(address_state, bits, address_state[support] * phase,
                     np.asarray(db.bits), lambda x: classical_trace_read(db, x))


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
    superpositions (from the same route map, by linearity), checked
    against the classical-trace semantics."""
    rows, failures, min_fid = [], [], 1.0
    bits, phase = _route(db, np.arange(db.N), g1, g2)
    stored = np.asarray(db.bits)
    oracle = [classical_trace_read(db, x) for x in range(db.N)]
    for x in range(db.N):
        result = _read_out(np.eye(1, db.N, x)[0], bits[x:x + 1], phase[x:x + 1],
                           stored, oracle.__getitem__)
        row = result.table[0]
        rows.append(row)
        min_fid = min(min_fid, result.fidelity, row.fidelity)
        if row.read != oracle[x]:
            failures.append(f"address {x}: read {row.read} != oracle")
        if result.fidelity < 1.0 - 1e-9:
            failures.append(f"address {x}: fidelity {result.fidelity:.12f}")
    rng = np.random.default_rng(seed)
    for i in range(n_superpositions):
        alpha = rng.standard_normal(db.N) + 1j * rng.standard_normal(db.N)
        alpha /= np.linalg.norm(alpha)
        result = _read_out(alpha, bits, alpha * phase, stored, oracle.__getitem__)
        min_fid = min(min_fid, result.fidelity)
        if result.fidelity < 1.0 - 1e-9:
            failures.append(f"superposition {i}: fidelity {result.fidelity:.12f}")
        if result.routers_restored < 1.0 - 1e-9:
            failures.append(f"superposition {i}: routers not restored")
    return RetrievalReport(rows=tuple(rows), min_fidelity=min_fid,
                           failures=tuple(failures))
