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
(N <= 2^12) as one bit row and one phase through every cycle of both
schedules: only on-path gates act (an off-path gate fixes its |000> with
phase 1), and the bus is one mode whose position moves with no phase.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import gates
from .params import checked_index

MAX_LEAVES = 1 << 12  # leaf cap of the simulator
MAX_DEPTH = 128       # depth cap of the schedules, n^2 + 3n + 1 cycles at most
FIDELITY_TOL = 1e-9   # a read passes at fidelity >= 1 - FIDELITY_TOL


class QramError(ValueError):
    pass


def _depth(N: int) -> int:
    N = checked_index(QramError, "N", N)
    if N < 2 or N & (N - 1):
        raise QramError(f"N must be a power of two >= 2, got {N}")
    return N.bit_length() - 1


def _check_leaves(N: int) -> None:
    if N > MAX_LEAVES:
        raise QramError(f"leaf cap: N <= {MAX_LEAVES}, got {N}")


# ---------------------------------------------------------------------------
# register layout helpers

def _router_mode(n: int, level: int, pos: int) -> int:
    return n + (1 << level) - 1 + pos


def _bus_mode(n: int) -> int:
    return n + (1 << n) - 1


# ---------------------------------------------------------------------------
# schedules

PHASES = ("init", "descend", "copy", "ascend", "uncompute")


class Cycle(NamedTuple):
    """One clock cycle of a schedule; ``op`` names what it runs:

    - "swap": address qubit ``ctrl`` moves into the leftmost level-``level``
      router;
    - "route": the whole level-``ctrl`` router layer shuffles the payload
      within level ``level`` in parallel (one controlled-SWAP per subtree, on
      disjoint modes; only the active-path gate does work on any branch);
    - "bus": the bus moves through level ``level``;
    - "copy": classically controlled bit flip of the bus at the addressed leaf.
    """
    phase: str   # one of PHASES
    op: str
    level: int = 0
    ctrl: int = 0


def _op_duration(op: str, g1: float, g2: float) -> float:
    """A swap or the data copy takes a full transfer; a routing stage or a
    bus step takes one controlled-SWAP."""
    if op in ("swap", "copy"):
        return gates.t_swap(g1)
    return gates.cswap_duration(g1, g2)


@dataclass(frozen=True)
class Schedule:
    """The cycles of a depth-``n`` schedule as four columns, one entry per
    cycle in cycle order: each cycle's phase, op, level and ctrl."""
    n: int
    phases: tuple[str, ...]
    ops: tuple[str, ...]
    levels: tuple[int, ...]
    ctrls: tuple[int, ...]

    @property
    def cycles(self) -> tuple[Cycle, ...]:
        """The columns read as one ``Cycle`` per clock cycle."""
        return tuple(map(Cycle, self.phases, self.ops, self.levels, self.ctrls))

    @property
    def cycle_count(self) -> int:
        return len(self.ops)

    @property
    def cswap_count(self) -> int:
        """Routing operations, one counted per cycle per the active-path
        accounting (off-path companions share the cycle as identities)."""
        return self.ops.count("route") + self.ops.count("bus")

    @property
    def swap_count(self) -> int:
        return self.ops.count("swap")

    def phase_cycle_count(self, *phases: str) -> int:
        unknown = [p for p in phases if p not in PHASES]
        if unknown:
            raise QramError(f"unknown schedule phase {unknown[0]!r}; "
                            f"expected one of {', '.join(PHASES)}")
        return sum(map(self.phases.count, set(phases)))

    def wall_time(self, g1: float, g2: float) -> float:
        """Sum of cycle durations, added left to right in cycle order (as
        ``sum`` did before Python 3.12 compensated it); each op's duration is
        computed once."""
        durations = {op: _op_duration(op, g1, g2) for op in dict.fromkeys(self.ops)}
        total = functools.reduce(operator.add, map(durations.__getitem__, self.ops))
        return gates.checked_duration(f"wall time of the depth-{self.n} schedule", total, g1, g2)


def _init_columns(n: int) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """(ops, levels, ctrls) of initialization: per level, swap address
    level + 1 in, then route it ``level`` times under ctrl 0..level-1. The
    pieces are lists: CPython 3.11 keeps every freed 20-item tuple (up to
    2,000, 368 KB) on a free list it never takes them from."""
    ops, levels, ctrls = [], [], []
    for level in range(n):
        ops += ["swap"] + ["route"] * level
        levels += [level] * (level + 1)
        ctrls += [level, *range(level)]
    return tuple(ops), tuple(levels), tuple(ctrls)


def _schedule_depth(n: int) -> int:
    """The tree depth ``n`` as an int in 1..MAX_DEPTH, refused by name."""
    n = checked_index(QramError, "n", n)
    if n < 1:
        raise QramError("empty tree")
    if n > MAX_DEPTH:
        raise QramError(f"depth cap: n <= {MAX_DEPTH}, got {n}")
    return n


def schedule_initialization(n: int) -> Schedule:
    """Load n address qubits into the routers: step k swaps address k in and
    routes it k-1 times, for n(n-1)/2 routing cycles and n swap cycles."""
    n = _schedule_depth(n)
    ops, levels, ctrls = _init_columns(n)
    return Schedule(n, ("init",) * len(ops), ops, levels, ctrls)


def schedule_query(n: int) -> Schedule:
    """Bus round trip (n routing stages down, data copy, n stages up)
    followed by address uncomputation mirroring initialization in reverse."""
    n = _schedule_depth(n)
    ops, levels, ctrls = _init_columns(n)
    repeat = itertools.repeat   # one display per column, no 20-item pieces
    return Schedule(n, (*repeat("descend", n), "copy", *repeat("ascend", n),
                        *repeat("uncompute", len(ops))),
                    (*repeat("bus", n), "copy", *repeat("bus", n), *reversed(ops)),
                    (*range(n), 0, *reversed(range(n)), *reversed(levels)),
                    (*repeat(0, 2 * n + 1), *reversed(ctrls)))


def total_time(init: Schedule, query: Schedule, g1: float, g2: float) -> float:
    """Wall time of one full load-and-read: sum over cycles of the slowest
    gate per cycle."""
    if init.n != query.n:
        raise QramError("schedules built for different tree depths")
    return gates.checked_duration("total time", init.wall_time(g1, g2)
                                  + query.wall_time(g1, g2), g1, g2)


# ---------------------------------------------------------------------------
# classical database and reference semantics

@dataclass(frozen=True)
class ClassicalDatabase:
    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(self.bits)
        _depth(len(bits))
        if any(b not in (0, 1) for b in bits):  # before int() truncates 0.5 or 1.9
            raise QramError("database entries must be bits")
        object.__setattr__(self, "bits", tuple(map(int, bits)))

    @property
    def N(self) -> int:
        return len(self.bits)

    @property
    def depth(self) -> int:
        return _depth(len(self.bits))


def read_database(path: str | Path) -> ClassicalDatabase:
    """Load a database from a text file of '0'/'1' characters, read in fixed
    chunks: at most MAX_LEAVES bits are kept and the rest only counted, so a
    file above the leaf cap is refused without being held whole."""
    refusal = QramError(f"database file must contain only 0/1 characters: {path}")
    kept, count = "", 0
    with open(path, errors="replace") as file:   # a byte that is not text reads as U+FFFD
        for chunk in iter(functools.partial(file.read, 1 << 16), ""):
            text = "".join(chunk.split())
            if set(text) - {"0", "1"}:
                raise refusal
            kept += text[:MAX_LEAVES - len(kept)]
            count += len(text)
    if not count:
        raise refusal
    _depth(count)
    _check_leaves(count)   # before the bits are built
    return ClassicalDatabase(bits=tuple(map(int, kept)))


def random_database(N: int, seed: int) -> ClassicalDatabase:
    N, seed = checked_index(QramError, "N", N), checked_index(QramError, "seed", seed, 0)
    _depth(N)
    _check_leaves(N)   # before N bits are drawn
    rng = np.random.default_rng(seed)
    return ClassicalDatabase(bits=tuple(int(b) for b in rng.integers(0, 2, N)))


def classical_trace_read(db: ClassicalDatabase, address: int) -> int:
    """Reference semantics: set the routers level by level from the address
    bits, then walk the bus down the tree following each router's state
    (0 = left, 1 = right) and read the addressed bit."""
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


# ---------------------------------------------------------------------------
# monomial simulation

@dataclass(frozen=True)
class QueryResult:
    bits: np.ndarray                  # output basis states (addresses, routers, bus)
    amplitudes: np.ndarray            # one per row of bits
    fidelity: float                   # vs sum_x alpha_x |x>|0_routers>|D_x>
    routers_restored: float           # weight of the routers-all-zero sector


def _run_cycles(bits: np.ndarray, phase: np.ndarray, schedule: Schedule, tables,
                stored: np.ndarray) -> None:
    """Run the cycles of ``schedule`` in place on every row: each gate whose
    control is on the row's path (``tables[op]`` is (forward, adjoint), the
    adjoint for uncompute cycles), and the bus as a position that moves a
    level a cycle. A swap acts on two fixed columns, (address ``ctrl``, the
    leftmost level-``level`` router); a route on the (control, left, right)
    routers of the row's level-``ctrl`` router at its walked position."""
    n = schedule.n
    rows = np.arange(len(bits))
    pos = np.zeros(len(bits), dtype=np.intp)   # bus position within its level
    for stage, op, level, ctrl in zip(schedule.phases, schedule.ops,
                                      schedule.levels, schedule.ctrls):
        if op == "bus":
            pos = (2 * pos + bits[rows, _router_mode(n, level, pos)]
                   if stage == "descend" else pos >> 1)
            continue
        if op == "copy":
            bits[stored[pos] == 1, _bus_mode(n)] ^= 1
            continue
        if op == "swap":
            keys = ((slice(None), ctrl), (slice(None), _router_mode(n, level, 0)))
        else:   # walk to the on-path control
            at = np.zeros(len(bits), dtype=np.intp)
            for up in range(ctrl):
                at = 2 * at + bits[rows, _router_mode(n, up, at)]
            left = _router_mode(n, level, at << (level - ctrl))
            keys = ((rows, _router_mode(n, ctrl, at)), (rows, left),
                    (rows, left + (1 << (level - ctrl - 1))))
        perm, phases = tables[op][stage == "uncompute"]
        local = bits[keys[0]].astype(np.intp)
        for key in keys[1:]:
            local = 2 * local + bits[key]
        phase *= phases[local]
        local = perm[local]
        for key in reversed(keys):
            bits[key] = local & 1
            local >>= 1


def _route(db: ClassicalDatabase, addresses: np.ndarray, g1: float,
           g2: float) -> tuple[np.ndarray, np.ndarray]:
    """Run the cycles of schedule_initialization(n) and schedule_query(n) on
    basis addresses; every gate is monomial, so each stays one basis state:
    (bit rows, phases)."""
    _check_leaves(db.N)
    n = db.depth
    tables = {}   # op: (forward, adjoint) (perm, phases) tables
    for op, U in (("swap", gates.swap_unitary(g1)), ("route", gates.cswap_composite(g1, g2))):
        perm, phases = gates.monomial(U)   # adjoint: U^dag|perm[j]> = conj(phases[j])|j>
        inverse = np.argsort(perm)
        tables[op] = ((perm, phases), (inverse, phases[inverse].conj()))
    bits = np.zeros((len(addresses), _bus_mode(n) + 1), dtype=np.uint8)
    bits[:, :n] = (addresses[:, None] >> np.arange(n)[::-1]) & 1
    phase = np.ones(len(addresses), dtype=complex)
    for schedule in (schedule_initialization(n), schedule_query(n)):
        _run_cycles(bits, phase, schedule, tables, np.asarray(db.bits))
    return bits, phase


def _read_out(db: ClassicalDatabase, bits: np.ndarray, key: np.ndarray):
    """One pass over the rows ``bits`` routed from the input addresses ``key``:
    per row the bit stored at its address, the bus bit it read (a copy: a
    view would keep the whole bit table alive), its ideal flag (routers
    zero, address kept, bus = stored bit) and its routers-zero flag."""
    n = db.depth
    expected = np.asarray(db.bits)[key]
    routers_zero = ~bits[:, n:_bus_mode(n)].any(axis=1)
    read = bits[:, _bus_mode(n)].copy()
    kept = bits[:, :n] @ (1 << np.arange(n)[::-1]) == key
    ideal = routers_zero & kept & (read == expected)
    return expected, read, ideal, routers_zero


def simulate_query(db: ClassicalDatabase, address_state: np.ndarray,
                   g1: float = math.pi, g2: float = math.pi) -> QueryResult:
    """Route the addresses in ``address_state``; superpose their outputs."""
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
    bits, phase = _route(db, support, g1, g2)
    alpha = address_state[support]
    _, _, ideal, routers_zero = _read_out(db, bits, support)
    amplitudes = alpha * phase
    fidelity = abs(np.vdot(alpha[ideal], amplitudes[ideal])) ** 2
    restored = np.sum(np.abs(amplitudes[routers_zero]) ** 2)
    return QueryResult(bits, amplitudes, float(fidelity), float(restored))


@dataclass(frozen=True)
class RetrievalReport:
    """The checked addresses as four columns of one length, in address
    order: the address, the bit stored there, the bit the bus read, and the
    fidelity (1.0 where the row is ideal, else 0.0)."""
    addresses: np.ndarray
    expected: np.ndarray
    read: np.ndarray
    fidelity: np.ndarray
    min_fidelity: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_retrieval(db: ClassicalDatabase, g1: float = math.pi,
                     g2: float = math.pi, address: int | None = None) -> RetrievalReport:
    """Exhaustive correctness harness: every basis address (or the one
    ``address``), each read checked against the bit stored at its address,
    and the worst superposition of them all, from the same route map by
    linearity. Input α scores |Σ_ideal |α_x|²·p_x|²: the minimum over all α
    is 0 if any row is not ideal, else cos²(Δ/2), where Δ is the shortest
    arc that holds every phase p_x/p_0, and 0 once Δ >= π."""
    if address is not None:
        address = checked_index(QramError, "address", address)
        if not 0 <= address < db.N:
            raise QramError(f"address {address} out of range for N={db.N}")
    inputs = np.arange(db.N) if address is None else np.array([address])
    bits, phase = _route(db, inputs, g1, g2)
    expected, read, ideal, _ = _read_out(db, bits, inputs)
    fidelity = ideal.astype(float)
    overlap = fidelity * np.abs(phase) ** 2
    failures = []
    min_fid = min(1.0, float(overlap.min()))
    if min_fid < 1.0 - FIDELITY_TOL:   # every failing row, a wrong read included, scores low
        for i in np.flatnonzero(overlap < 1.0 - FIDELITY_TOL).tolist():
            if read[i] != expected[i]:
                failures.append(f"address {inputs[i]}: read {read[i]} != oracle")
            failures.append(f"address {inputs[i]}: fidelity {overlap[i]:.12f}")
    if ideal.all():   # a row that is not ideal already fails, and scores 0
        angles = np.sort(np.angle(phase / phase[0]))
        spread = 2 * math.pi - np.diff(angles, append=angles[0] + 2 * math.pi).max()
        worst = math.cos(spread / 2) ** 2 if spread < math.pi else 0.0
        min_fid = min(min_fid, worst)
        if worst < 1.0 - FIDELITY_TOL:
            failures.append(f"phase spread {spread:.6g} rad: "
                            f"worst superposition fidelity {worst:.12f}")
    return RetrievalReport(inputs, expected, read, fidelity, min_fid, tuple(failures))
