import math
import re
from collections import Counter
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dense_oracle import apply_unitary, dense_state, gate_modes
from qram_bounds import gates, qram
from qram_bounds.cli import main
from qram_bounds.gates import GateError, t_cphase, t_swap, t_beamsplitter
from qram_bounds.qram import (ClassicalDatabase, QramError,
                              random_database, read_database,
                              schedule_initialization, schedule_query,
                              simulate_query, total_time, verify_retrieval)

G = math.pi
COUPLINGS = [(G, G), (1.3, 0.7), (3e4, 7e2)]

TOTAL_TIME_HEX = {   # total_time(schedule_initialization(n), schedule_query(n))
    (G, G): [
        '0x1.2000000000000p+2', '0x1.7000000000000p+3', '0x1.5800000000000p+4',
        '0x1.1400000000000p+5', '0x1.9400000000000p+5', '0x1.1600000000000p+6',
        '0x1.6e00000000000p+6', '0x1.d200000000000p+6', '0x1.2100000000000p+7',
        '0x1.5f00000000000p+7', '0x1.a300000000000p+7', '0x1.ed00000000000p+7',
        '0x1.1e80000000000p+8', '0x1.4980000000000p+8', '0x1.7780000000000p+8',
        '0x1.a880000000000p+8', '0x1.dc80000000000p+8', '0x1.09c0000000000p+9',
        '0x1.26c0000000000p+9', '0x1.4540000000000p+9'],
    (1.3, 0.7): [
        '0x1.e08f632c4d09dp+3', '0x1.41c11b696e6e4p+5', '0x1.334131cc822cdp+6',
        '0x1.f333d8acea827p+6', '0x1.705c412af81c0p+7', '0x1.fde79763c9a68p+7',
        '0x1.511df78074f08p+8', '0x1.aeaca4012c65ap+8', '0x1.0bcfe89a05998p+9',
        '0x1.45fbbf8c88ac4p+9', '0x1.85d9d6d81f6b1p+9', '0x1.cb6a2e7cc9d5cp+9',
        '0x1.0b56633d43f64p+10', '0x1.33d0cf68acd7ap+10', '0x1.5f245bc09f8f0p+10',
        '0x1.8d5108451c1c6p+10', '0x1.be56d4f6227fcp+10', '0x1.f235c1d3b2b91p+10',
        '0x1.1476e76ee6644p+11', '0x1.313f7e0a3856ep+11'],
    (3e4, 7e2): [
        '0x1.2eb41a0dbd770p-7', '0x1.c29fb31e6778ap-6', '0x1.c15647a213b2ep-5',
        '0x1.75e0285e07a0cp-4', '0x1.18237d37499a0p-3', '0x1.87efcd015649ap-3',
        '0x1.052a81c694efap-2', '0x1.4fa9906d622d8p-2', '0x1.a375127512de4p-2',
        '0x1.004683eed380fp-1', '0x1.3378b8538f4c6p-1', '0x1.6b512668bcd14p-1',
        '0x1.a7cfce2e5c0f9p-1', '0x1.e8f4afa46d077p-1', '0x1.175fe56577dc6p+0',
        '0x1.3c988fd0f211ep+0', '0x1.64245714a5240p+0', '0x1.8e033b3091130p+0',
        '0x1.ba353c24b5deap+0', '0x1.e8ba59f113874p+0'],
}


# --- independent oracle: walk the routing rules bit by bit ------------------

def trace_oracle(bits, address):
    """Set each router from its address bit by following the already-set
    routers down (0 = left child, 1 = right child), then walk the bus the
    same way and read the leaf. Independent re-implementation for testing."""
    n = len(bits).bit_length() - 1
    addr_bits = [(address >> (n - 1 - k)) & 1 for k in range(n)]
    routers = {}
    for k, bit in enumerate(addr_bits):
        pos = 0
        for level in range(k):
            pos = 2 * pos + routers[(level, pos)]
        routers[(k, pos)] = bit
    pos = 0
    for level in range(n):
        pos = 2 * pos + routers[(level, pos)]
    return bits[pos]


def brute_force_data_copy(state, bits):
    """Walk every router basis configuration: flip the bus where the
    configuration is a valid path (all off-path routers |0>) ending on a
    leaf that holds a 1. Router ordinal o = 2^level - 1 + pos is bit
    2^n - 2 - o of the configuration index."""
    n = len(bits).bit_length() - 1
    n_routers = (1 << n) - 1
    view = state.reshape(1 << n, 1 << n_routers, 2).copy()
    for config in range(1 << n_routers):
        pos, path_mask = 0, 0
        for level in range(n):
            bitpos = n_routers - 1 - ((1 << level) - 1 + pos)
            path_mask |= 1 << bitpos
            pos = 2 * pos + ((config >> bitpos) & 1)
        if config & ~path_mask == 0 and bits[pos] == 1:
            view[:, config, :] = view[:, config, ::-1]
    return view.reshape(-1)


# --- dense oracle: the full state vector through the gate layer -------------

MAX_SIM_QUBITS = 8  # the dense register holds 2^(n + 2^n) amplitudes


def dense_apply_cycles(state, n, cycles, n_modes, swap_u, cswap_u):
    """Apply every gate of every cycle of a depth-``n`` tree as a dense
    unitary on its modes."""
    for cycle in cycles:
        U = cswap_u if cycle.op == "route" else swap_u
        for modes in gate_modes(n, cycle):
            state = apply_unitary(state, U, modes, n_modes)
    return state


def path_config(leaf, n):
    """Router configuration that initialization leaves for address ``leaf``:
    each router on the leaf's path holds its address bit, every other router
    |0> (router ordinal o is bit 2^n - 2 - o of the index)."""
    n_routers = (1 << n) - 1
    config = 0
    for level in range(n):
        bit = (leaf >> (n - 1 - level)) & 1
        ordinal = (1 << level) - 1 + (leaf >> (n - level))
        config |= bit << (n_routers - 1 - ordinal)
    return config


def dense_data_copy(state, bits, n):
    """Flip the bus on the router path of every leaf that holds a 1;
    identity on configurations no initialization can produce."""
    view = state.reshape(1 << n, -1, 2).copy()
    flip = [path_config(leaf, n) for leaf, bit in enumerate(bits) if bit]
    view[:, flip] = view[:, flip, ::-1]
    return view.reshape(-1)


def dense_query(db, alpha, g1, g2):
    """Initialization, data copy and reversed initialization on the full
    register state; the amplitude-by-amplitude oracle for simulate_query."""
    assert db.N <= MAX_SIM_QUBITS
    n = db.depth
    swap_u = gates.swap_unitary(g1)
    cswap_u = gates.cswap_composite(g1, g2)
    n_modes = n + db.N
    state = np.zeros(1 << n_modes, dtype=complex)
    state.reshape(db.N, -1)[:, 0] = alpha
    cycles = schedule_initialization(n).cycles
    state = dense_apply_cycles(state, n, cycles, n_modes, swap_u, cswap_u)
    state = dense_data_copy(state, db.bits, n)
    return dense_apply_cycles(state, n, reversed(cycles), n_modes,
                              swap_u.conj().T, cswap_u.conj().T)


def gate_tables(g1, g2):
    """(forward, adjoint) monomial tables of both router gates."""
    units = {"swap": gates.swap_unitary(g1), "route": gates.cswap_composite(g1, g2)}
    return {op: (gates.monomial(U), gates.monomial(U.conj().T))
            for op, U in units.items()}


def all_gates_route(db, g1, g2):
    """The route map with every controlled-SWAP of a stage applied to every
    row, off-path gates included, the bus flipped at the leaf the routers
    point to, and initialization reversed with the adjoint tables."""
    n, N = db.depth, db.N
    rows = np.arange(N)
    tables = gate_tables(g1, g2)
    bits = np.zeros((N, n + N), dtype=np.uint8)
    bits[:, :n] = (rows[:, None] >> np.arange(n)[::-1]) & 1
    phase = np.ones(N, dtype=complex)
    cycles = schedule_initialization(n).cycles
    for order, adjoint in ((cycles, False), (cycles[::-1], True)):
        for cycle in order:
            modes = gate_modes(n, cycle)
            perm, phases = tables[cycle.op][adjoint]
            shifts = np.arange(modes.shape[1])[::-1]
            local = (bits[:, modes] << shifts).sum(axis=2)
            phase *= phases[local].prod(axis=1)
            bits[:, modes] = (perm[local][..., None] >> shifts) & 1
        if not adjoint:
            leaf = np.zeros(N, dtype=np.intp)
            for level in range(n):
                leaf = 2 * leaf + bits[rows, n + (1 << level) - 1 + leaf]
            bits[np.asarray(db.bits)[leaf] == 1, -1] ^= 1
    return bits, phase


def enumerated_cycles(n):
    """(initialization, query) of a depth-``n`` tree, one ``Cycle`` appended
    per clock cycle: address k swaps into level k - 1 and is routed under the
    level-0..k-2 routers; the bus goes down, the bit is copied, the bus comes
    back up, and initialization runs backwards as uncompute."""
    init = []
    for k in range(1, n + 1):
        init.append(qram.Cycle("init", "swap", k - 1, k - 1))
        for j in range(k - 1):
            init.append(qram.Cycle("init", "route", k - 1, j))
    query = [qram.Cycle("descend", "bus", level) for level in range(n)]
    query.append(qram.Cycle("copy", "copy"))
    query += [qram.Cycle("ascend", "bus", level) for level in range(n - 1, -1, -1)]
    query += [cycle._replace(phase="uncompute") for cycle in reversed(init)]
    return init, query


def head(schedule, k):
    """The schedule of the first ``k`` cycles of ``schedule``."""
    return qram.Schedule(schedule.n, schedule.phases[:k], schedule.ops[:k],
                         schedule.levels[:k], schedule.ctrls[:k])


def basis(N, x):
    v = np.zeros(N, dtype=complex)
    v[x] = 1.0
    return v


def routed_rows(db, result):
    """(address register, bus) of each output row of a ``QueryResult``."""
    n = db.depth
    address = result.bits[:, :n] @ (1 << np.arange(n)[::-1])
    return list(zip(address.tolist(), result.bits[:, -1].tolist()))


def shift_phases(monkeypatch, shifts):
    """Corrupt the executor: address x comes out of the route map with its
    phase turned by shifts[x] radians, and nothing else changes."""
    route = qram._route

    def shifted(db, addresses, g1, g2):
        bits, phase = route(db, addresses, g1, g2)
        for x, angle in shifts.items():
            phase[addresses == x] *= np.exp(1j * angle)
        return bits, phase

    monkeypatch.setattr(qram, "_route", shifted)


class TestSchedules:
    @pytest.mark.parametrize("n,cswaps,swaps", [(1, 0, 1), (2, 1, 2), (3, 3, 3)])
    def test_small_initialization_counts(self, n, cswaps, swaps):
        sched = schedule_initialization(n)
        assert sched.cswap_count == cswaps
        assert sched.swap_count == swaps

    def test_gate_count_law(self):
        for n in range(1, 16):
            sched = schedule_initialization(n)
            assert sched.cswap_count == n * (n - 1) // 2
            assert sched.swap_count == n

    def test_cycle_ops_act_on_disjoint_modes(self):
        for n in (2, 3, 5):
            for sched in (schedule_initialization(n), schedule_query(n)):
                for cycle in sched.cycles:
                    if cycle.op not in ("swap", "route"):
                        continue   # the bus ops move a position, not modes
                    touched = np.ravel(gate_modes(n, cycle)).tolist()
                    assert len(touched) == len(set(touched))

    def test_gate_modes_of_depth_3_initialization(self):
        # register [A1 A2 A3 | R(0,0)=3 R(1,0..1)=4,5 R(2,0..3)=6..9 | bus=10];
        # a swap is (address, router), a route (ctrl, left, right) per gate
        cycles = schedule_initialization(3).cycles
        assert [(c.op, gate_modes(3, c).tolist()) for c in cycles] == [
            ("swap", [[0, 3]]),
            ("swap", [[1, 4]]), ("route", [[3, 4, 5]]),
            ("swap", [[2, 6]]), ("route", [[3, 6, 8]]),
            ("route", [[4, 6, 7], [5, 8, 9]])]

    @pytest.mark.parametrize("which", [0, 1], ids=["initialization", "query"])
    def test_columns_match_per_cycle_enumeration(self, which):
        schedule = (schedule_initialization, schedule_query)[which]
        for n in range(1, qram.MAX_DEPTH + 1):
            sched = schedule(n)
            expected = enumerated_cycles(n)[which]
            assert sched.cycles == tuple(expected)
            columns = (sched.phases, sched.ops, sched.levels, sched.ctrls)
            assert all(type(column) is tuple for column in columns)
            assert all(type(x) is int for x in sched.levels + sched.ctrls)
            ops, phases = Counter(c.op for c in expected), Counter(c.phase for c in expected)
            assert sched.cycle_count == len(expected)
            assert (sched.swap_count, sched.cswap_count) == (
                ops["swap"], ops["route"] + ops["bus"])
            assert [sched.phase_cycle_count(p, p) for p in qram.PHASES] == [
                phases[p] for p in qram.PHASES]

    def test_query_core_is_linear_in_depth(self):
        for n in (1, 2, 5, 9):
            q = schedule_query(n)
            assert q.phase_cycle_count("descend", "copy", "ascend") == 2 * n + 1
            assert q.phase_cycle_count("uncompute") == \
                schedule_initialization(n).cycle_count

    def test_phase_counts_partition_the_cycles(self):
        for n in (1, 3, 6):
            for sched in (schedule_initialization(n), schedule_query(n)):
                assert sched.phase_cycle_count(*qram.PHASES) == sched.cycle_count

    @pytest.mark.parametrize("phases,name", [(("decend",), "decend"),
                                             (("descend", "Copy"), "Copy"),
                                             (("",), "")])
    def test_phase_cycle_count_refuses_unknown_phase(self, phases, name):
        with pytest.raises(QramError, match=f"^unknown schedule phase '{name}'; "
                           "expected one of init, descend, copy, ascend, uncompute$"):
            schedule_query(3).phase_cycle_count(*phases)

    def test_initialization_depth_is_quadratic(self):
        for n in (1, 4, 9):
            assert schedule_initialization(n).cycle_count == n * (n + 1) // 2

    def test_rejects_empty_tree(self):
        with pytest.raises(QramError, match="empty tree"):
            schedule_query(0)
        with pytest.raises(QramError, match="empty tree"):
            schedule_initialization(0)

    @pytest.mark.parametrize("schedule", [schedule_initialization, schedule_query])
    def test_depth_cap_refuses_before_building(self, schedule, monkeypatch):
        # the deepest tree admitted has n^2 + 3n + 1 cycles; 10^9 once ran the
        # machine out of memory, and no cycle is built before the refusal
        assert qram.MAX_DEPTH >= 110
        assert schedule(qram.MAX_DEPTH).n == qram.MAX_DEPTH
        monkeypatch.setattr(qram, "_init_columns", None)
        for n in (qram.MAX_DEPTH + 1, 10 ** 9):
            with pytest.raises(QramError, match=re.escape(
                    f"depth cap: n <= {qram.MAX_DEPTH}, got {n}")):
                schedule(n)


class TestTotalTime:
    def test_single_level_exact(self):
        # with g1 = g2 = pi: t_sw = 0.5, t_bs = 0.25, t_cz = 1, cswap = 1.5;
        # init = 1 swap = 0.5; query = 1.5 + 0.5 + 1.5 (bus) + 0.5 (uncompute)
        total = total_time(schedule_initialization(1), schedule_query(1), G, G)
        assert total == pytest.approx(4.5, rel=1e-12)

    def test_closed_form_accounting(self):
        # independent duration bookkeeping: n(n-1)/2 + 2n routing cycles,
        # 2n swaps, one copy at swap duration
        g1, g2 = 2.0, 3.0
        t_cswap = 2 * t_beamsplitter(g1) + t_cphase(g2)
        for n in range(1, 65):
            expected = ((n * (n - 1) / 2 + 2 * n) * t_cswap
                        + 2 * n * t_swap(g1)
                        + (n * (n - 1) / 2) * t_cswap + t_swap(g1))
            total = total_time(schedule_initialization(n), schedule_query(n),
                               g1, g2)
            assert total == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("g1,g2", COUPLINGS)
    def test_total_time_bits(self, g1, g2):
        # float.hex of the full load-and-read time for n = 1..20
        assert [float.hex(total_time(schedule_initialization(n),
                                     schedule_query(n), g1, g2))
                for n in range(1, 21)] == TOTAL_TIME_HEX[g1, g2]

    def test_monotone_in_depth(self):
        times = [total_time(schedule_initialization(n), schedule_query(n), G, G)
                 for n in range(1, 8)]
        assert times == sorted(times)
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))

    def test_quadratic_shape_converges(self):
        g = 1e3 * math.pi
        tau = 2 * math.pi / g
        ratios = []
        for n in (10, 15, 19, 20):
            total = total_time(schedule_initialization(n), schedule_query(n), g, g)
            ratios.append(total / (tau * n * n))
        assert abs(ratios[-1] / ratios[-2] - 1.0) < 0.05

    @pytest.mark.parametrize("g,what", [
        (2e-308, "controlled-SWAP duration"),        # one gate already inf
        (4e-308, "wall time of the depth-1 schedule"),  # the query's sum
        (7.5e-308, "total time"),                    # init + query only
    ])
    def test_refuses_time_out_of_float_range(self, g, what):
        with pytest.raises(GateError, match=re.escape(
                f"{what} overflows a float at g1={g!r}, g2={g!r}")):
            total_time(schedule_initialization(1), schedule_query(1), g, g)
        with pytest.raises(GateError, match=re.escape(f"g1={g!r}, g2={g!r}")):
            total_time(schedule_initialization(3), schedule_query(3), g, g)

    def test_rejects_mismatched_depths(self):
        with pytest.raises(QramError, match="different tree depths"):
            total_time(schedule_initialization(2), schedule_query(3), G, G)


class TestClassicalDatabase:
    def test_from_file(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("0110\n")
        assert read_database(path).bits == (0, 1, 1, 0)

    def test_rejects_non_bits(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("01x0")
        with pytest.raises(QramError, match="0/1"):
            read_database(path)

    def test_rejects_bad_length(self):
        with pytest.raises(QramError, match="power of two"):
            ClassicalDatabase((0, 1, 1))

    def test_file_of_bad_length_refused_by_name(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("011\n")
        with pytest.raises(QramError, match="^N must be a power of two >= 2, got 3$"):
            read_database(path)

    def test_oversized_file_refused_before_its_bits_are_built(self, tmp_path):
        # the file is read in fixed chunks and only counted past the leaf
        # cap: the traced peak stays under a budget that does not grow with
        # the file, bare or whitespace-padded
        path = tmp_path / "db.txt"
        for N, text in ((1 << 23, "0" * (1 << 23)), (1 << 22, "0 " * (1 << 22)),
                        (1 << 20, "01" * (1 << 19) + "\n")):
            path.write_text(text)
            tracemalloc.start()
            try:
                with pytest.raises(QramError, match=f"^leaf cap: N <= 4096, got {N}$"):
                    read_database(path)
                assert tracemalloc.get_traced_memory()[1] <= 1 << 20
            finally:
                tracemalloc.stop()

    @pytest.mark.parametrize("bits", [(0, 2), (1, 0, -1, 1), (0, 1, 1, 0, 1, 0, 0, 7),
                                      # int() would truncate these to bits
                                      (0.5, 1), (True, 1.9)])
    def test_rejects_entries_that_are_not_bits(self, bits):
        with pytest.raises(QramError, match="^database entries must be bits$"):
            ClassicalDatabase(bits)

    @pytest.mark.parametrize("bits", [(0, 1), (False, True), (np.int64(1), np.uint8(0))])
    def test_stores_bits_as_python_ints(self, bits):
        db = ClassicalDatabase(bits)
        assert db.bits == (int(bits[0]), int(bits[1]))
        assert all(type(b) is int for b in db.bits)

    def test_random_database_deterministic(self):
        assert random_database(8, seed=3).bits == random_database(8, seed=3).bits

    @pytest.mark.parametrize("N,seed,message", [
        (8, -1, "seed must be >= 0, got -1"),
        (8.0, 1, "N must be an integer, got 8.0"),
        (True, 1, "N must be an integer, got True"),
        (8, 1.5, "seed must be an integer, got 1.5"),
        (8, np.True_, f"seed must be an integer, got {np.True_!r}")])
    def test_random_database_refuses_seed_and_size_by_name(self, N, seed, message):
        with pytest.raises(QramError, match=f"^{re.escape(message)}$"):
            random_database(N, seed)

    def test_random_database_takes_numpy_integers(self):
        db = random_database(np.int64(8), np.uint8(3))
        assert db.bits == random_database(8, 3).bits and db.N == 8


class TestClassicalTrace:
    @pytest.mark.parametrize("N", [2, 4, 8, 16])
    def test_product_walker_agrees_with_independent_walker(self, N):
        db = random_database(N, seed=N)
        for x in range(N):
            assert qram.classical_trace_read(db, x) == trace_oracle(db.bits, x)

    def test_reads_addressed_bit(self):
        db = ClassicalDatabase((0, 1, 1, 0, 1, 0, 0, 1))
        for x in range(8):
            assert qram.classical_trace_read(db, x) == db.bits[x]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_vectorised_walker_agrees_at_every_address(self, n):
        # the harness reads all addresses at once, expecting the stored bits;
        # the router-by-router walk reads the same bit at every address
        db = random_database(1 << n, seed=n + 20)
        report = verify_retrieval(db)
        assert report.addresses.tolist() == list(range(db.N))
        assert report.expected.tolist() == [
            qram.classical_trace_read(db, x) for x in range(db.N)]

    def test_vectorised_walker_runs_no_gate_or_schedule(self, monkeypatch):
        # the walk the harness's expected column is checked against shares
        # no gate, schedule or executor with the simulator
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle ran part of the simulator")

        for owner, name in ((qram, "_run_cycles"), (qram, "_route"),
                            (qram, "_read_out"), (gates, "monomial"),
                            (qram, "schedule_initialization"),
                            (qram, "schedule_query"), (qram, "Schedule")):
            monkeypatch.setattr(owner, name, refuse)
        db = random_database(32, seed=6)
        assert [qram.classical_trace_read(db, x) for x in range(32)] == list(db.bits)

    def test_harness_and_query_walk_all_addresses_at_once(self, monkeypatch):
        # one read-out pass per call, over every address routed
        calls = []
        read_out = qram._read_out

        def spy(db, bits, key):
            calls.append(key.tolist())
            return read_out(db, bits, key)

        monkeypatch.setattr(qram, "_read_out", spy)
        db = random_database(8, seed=2)
        assert verify_retrieval(db).passed
        assert routed_rows(db, simulate_query(db, basis(8, 6), G, G)) == [(6, db.bits[6])]
        assert calls == [list(range(8)), [6]]

    def test_harness_and_query_call_no_walker(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("walker called")

        monkeypatch.setattr(qram, "classical_trace_read", refuse)
        db = random_database(32, seed=6)
        report = verify_retrieval(db)
        assert report.passed
        assert report.expected.tolist() == list(db.bits)
        state = np.zeros(32, dtype=complex)
        state[[5, 17, 30]] = 1 / math.sqrt(3)
        result = simulate_query(db, state, G, G)
        assert result.fidelity == pytest.approx(1.0, abs=1e-12)
        assert routed_rows(db, result) == [(x, db.bits[x]) for x in (5, 17, 30)]

    @pytest.mark.parametrize("N,address", [(2, -1), (2, 2), (8, 8), (8, -8)])
    def test_rejects_address_out_of_range(self, N, address):
        with pytest.raises(QramError, match="^address out of range$"):
            qram.classical_trace_read(random_database(N, seed=1), address)


class TestDataCopy:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_walk_over_all_router_configurations(self, n):
        N = 1 << n
        rng = np.random.default_rng(n)
        dim = N * 2 ** (N - 1) * 2
        for code in range(1 << N):
            bits = tuple((code >> (N - 1 - i)) & 1 for i in range(N))
            state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            out = dense_data_copy(state, bits, n)
            assert np.array_equal(out, brute_force_data_copy(state, bits))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_table_flips_match_walk(self, n):
        # one row per router configuration initialization can reach (the
        # path to each leaf), address 0, bus |0>; run descend, copy, ascend
        N = 1 << n
        n_routers = N - 1
        configs = np.array([path_config(leaf, n) for leaf in range(N)])
        table = np.zeros((N, n + N), dtype=np.uint8)
        table[:, n:n + n_routers] = (configs[:, None]
                                     >> np.arange(n_routers)[::-1]) & 1
        bus = head(schedule_query(n), 2 * n + 1)
        assert {c.phase for c in bus.cycles} == {"descend", "copy", "ascend"}
        state = np.zeros(N * (1 << n_routers) * 2, dtype=complex)
        state.reshape(N, -1, 2)[0, configs, 0] = 1.0
        for code in range(1 << N):
            bits = tuple((code >> (N - 1 - i)) & 1 for i in range(N))
            out, phase = table.copy(), np.ones(N, dtype=complex)
            qram._run_cycles(out, phase, bus, {}, np.array(bits))
            walked = brute_force_data_copy(state, bits).reshape(N, -1, 2)
            assert np.array_equal(out[:, -1],
                                  walked[0, configs, 1].real.astype(np.uint8))
            assert np.array_equal(out[:, :-1], table[:, :-1])
            assert np.array_equal(phase, np.ones(N))   # the bus has no phase


class TestSimulateQuery:
    def test_basis_address_reads_one(self):
        db = ClassicalDatabase((0, 1, 1, 0))
        result = simulate_query(db, basis(4, 2), G, G)
        assert routed_rows(db, result) == [(2, 1)]
        assert result.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_basis_address_reads_zero(self):
        db = ClassicalDatabase((0, 1, 1, 0))
        result = simulate_query(db, basis(4, 0), G, G)
        assert routed_rows(db, result) == [(0, 0)]

    def test_bell_address_superposition(self):
        db = ClassicalDatabase((0, 1, 1, 0))
        bell = (basis(4, 0) + basis(4, 3)) / math.sqrt(2.0)
        result = simulate_query(db, bell, G, G)
        assert result.fidelity >= 1.0 - 1e-9
        # D_0 = D_3 = 0: the bus stays |0> on both branches
        view = dense_state(result).reshape(4, 8, 2)
        assert np.sum(np.abs(view[:, :, 1]) ** 2) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_exhaustive_basis_retrieval_matches_oracle(self, N):
        db = random_database(N, seed=N + 40)
        for x in range(N):
            result = simulate_query(db, basis(N, x), G, G)
            assert routed_rows(db, result) == [(x, trace_oracle(db.bits, x))]
            assert result.fidelity >= 1.0 - 1e-9

    def test_linearity_of_superposition_query(self):
        db = ClassicalDatabase((1, 0, 0, 1))
        rng = np.random.default_rng(2)
        alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alpha /= np.linalg.norm(alpha)
        combined = dense_state(simulate_query(db, alpha, G, G))
        parts = sum(alpha[x] * dense_state(simulate_query(db, basis(4, x), G, G))
                    for x in range(4))
        np.testing.assert_allclose(combined, parts, atol=1e-9)

    def test_state_norm_preserved(self):
        db = random_database(8, seed=11)
        rng = np.random.default_rng(9)
        alpha = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        alpha /= np.linalg.norm(alpha)
        result = simulate_query(db, alpha, G, G)
        assert np.linalg.norm(dense_state(result)) == pytest.approx(1.0, abs=1e-10)

    def test_routers_and_addresses_restored(self):
        db = random_database(8, seed=5)
        rng = np.random.default_rng(3)
        alpha = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        alpha /= np.linalg.norm(alpha)
        result = simulate_query(db, alpha, G, G)
        assert result.routers_restored >= 1.0 - 1e-9
        # address marginal is preserved through the round trip
        view = dense_state(result).reshape(8, -1)
        marginal = np.sum(np.abs(view) ** 2, axis=1)
        np.testing.assert_allclose(marginal, np.abs(alpha) ** 2, atol=1e-9)

    def test_gate_phases_cancel_exactly(self):
        # couplings enter gate phases; retrieval must not depend on them
        db = ClassicalDatabase((0, 1, 1, 0))
        bell = (basis(4, 1) + basis(4, 2)) / math.sqrt(2.0)
        for g1, g2 in ((G, G), (1.3, 0.7), (5.0, 0.2)):
            result = simulate_query(db, bell, g1, g2)
            assert result.fidelity >= 1.0 - 1e-9

    def test_rejects_oversized_database(self):
        N = 2 * qram.MAX_LEAVES
        with pytest.raises(QramError, match=f"leaf cap: N <= 4096, got {N}"):
            simulate_query(ClassicalDatabase(bits=(1,) * N), basis(N, 0), G, G)

    def test_dense_vector_beyond_register_cap_refused(self):
        db = random_database(16, seed=1)
        result = simulate_query(db, basis(16, 5), G, G)
        assert routed_rows(db, result) == [(5, db.bits[5])]
        with pytest.raises(ValueError, match="mode cap"):
            dense_state(result)

    def test_rejects_unnormalized_address(self):
        db = ClassicalDatabase((0, 1))
        with pytest.raises(QramError, match="normalized"):
            simulate_query(db, np.array([0.5, 0.5]), G, G)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0),
                                       complex(0.0, np.nan), complex(1.0, np.inf)])
    @pytest.mark.parametrize("index", [0, 3])
    def test_rejects_non_finite_amplitude_by_name(self, index, value):
        # a NaN alone has a NaN norm, which no tolerance comparison refuses
        db = ClassicalDatabase((0, 1, 1, 0))
        for rest in (0.0, 0.5):
            state = np.full(4, rest, dtype=complex)
            state[index] = value
            with pytest.raises(QramError, match=f"^address state amplitude {index} "
                               "is not finite: "):
                simulate_query(db, state, G, G)

    def test_rejects_wrong_length(self):
        db = ClassicalDatabase((0, 1, 1, 0))
        with pytest.raises(QramError, match="length"):
            simulate_query(db, basis(2, 0), G, G)


class TestVerifyRetrieval:
    def test_two_leaves(self):
        report = verify_retrieval(ClassicalDatabase((0, 1)))
        assert report.passed
        assert report.min_fidelity >= 1.0 - 1e-9

    def test_eight_leaves_random(self):
        report = verify_retrieval(random_database(8, seed=42))
        assert report.passed

    @pytest.mark.parametrize("N,delta", [(8, 7e-5), (1024, 1e-4), (4096, 1e-3)])
    def test_phase_error_at_one_address_fails(self, N, delta, monkeypatch):
        # each basis row scores |p|^2 = 1 whatever its phase; the error shows
        # only in superpositions, and the tolerance 1e-9 on their worst case,
        # 1 - sin^2(delta/2), catches delta above 2*sqrt(1e-9) = 6.3e-5 rad
        shift_phases(monkeypatch, {1: delta})
        report = verify_retrieval(random_database(N, 7))
        worst = math.cos(delta / 2) ** 2
        assert report.failures == (f"phase spread {delta:.6g} rad: worst "
                                   f"superposition fidelity {worst:.12f}",)
        assert report.min_fidelity == pytest.approx(worst, abs=1e-15)
        assert report.fidelity.tolist() == [1.0] * N

    @pytest.mark.parametrize("g1,g2", COUPLINGS)
    @pytest.mark.parametrize("N,delta", [(8, 6e-5), (1024, 0.0), (4096, 0.0)])
    def test_phase_error_below_tolerance_passes(self, N, delta, g1, g2, monkeypatch):
        shift_phases(monkeypatch, {1: delta})
        report = verify_retrieval(random_database(N, 7), g1, g2)
        assert report.passed
        assert report.min_fidelity == pytest.approx(math.cos(delta / 2) ** 2, abs=1e-15)
        if delta == 0.0:   # every phase equals address 0's: the arc is 0.0
            assert report.min_fidelity == 1.0

    @pytest.mark.parametrize("address,message", [
        (-1, "address -1 out of range for N=8"),
        (8, "address 8 out of range for N=8"),
        (True, "address must be an integer, got True"),
        (2.0, "address must be an integer, got 2.0"),
    ])
    def test_address_refused_by_name(self, address, message):
        with pytest.raises(QramError, match=f"^{re.escape(message)}$"):
            verify_retrieval(random_database(8, seed=7), address=address)

    @pytest.mark.parametrize("N", [8, 64])
    def test_one_address_is_its_row_of_the_full_report(self, N):
        db = random_database(N, seed=7)
        full = verify_retrieval(db)
        for k in (*range(N), np.int64(N - 1)):
            one = verify_retrieval(db, address=k)
            assert one.passed and one.min_fidelity == 1.0
            for column in ("addresses", "expected", "read", "fidelity"):
                assert getattr(one, column).tolist() == [getattr(full, column)[k]]

    def test_constant_database_reads_one_everywhere(self):
        report = verify_retrieval(ClassicalDatabase((1, 1, 1, 1)))
        assert report.passed
        assert report.read.tolist() == [1, 1, 1, 1]

    @pytest.mark.parametrize("g1,g2,message", [
        (0.0, G, "nonpositive coupling g1=0.0"),
        (-2.0, G, "nonpositive coupling g1=-2.0"),
        (G, -1.0, "nonpositive coupling g2=-1.0"),
        (math.nan, G, "non-finite coupling g1=nan"),
        (G, math.inf, "non-finite coupling g2=inf"),
        (-math.inf, G, "non-finite coupling g1=-inf"),
        # 4*g overflowed to a zero beam-splitter time, and pi/g to an
        # infinite one
        (1e308, 1e308, "coupling g1=1e+308 out of range: 4*g1 or pi/g1 overflows"),
        (5e307, G, "coupling g1=5e+307 out of range: 4*g1 or pi/g1 overflows"),
        (1e-320, G, "coupling g1=1e-320 out of range: 4*g1 or pi/g1 overflows"),
        (G, 1e-320, "coupling g2=1e-320 out of range: 4*g2 or pi/g2 overflows"),
    ])
    def test_bad_coupling_refused_by_name(self, g1, g2, message):
        db = random_database(8, seed=7)
        with pytest.raises(GateError, match=f"^{re.escape(message)}$"):
            verify_retrieval(db, g1, g2)
        with pytest.raises(GateError, match=f"^{re.escape(message)}$"):
            simulate_query(db, np.eye(8)[1], g1, g2)


class TestDenseOracle:
    @pytest.mark.parametrize("g1,g2", [(G, G), (1.3, 0.7), (3e4, 7e2)])
    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_monomial_matches_dense_amplitudes(self, N, g1, g2):
        db = random_database(N, seed=N + 17)
        rng = np.random.default_rng(N)
        inputs = [basis(N, x) for x in range(N)]
        for _ in range(4):
            alpha = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            inputs.append(alpha / np.linalg.norm(alpha))
        for alpha in inputs:
            sparse = dense_state(simulate_query(db, alpha, g1, g2))
            assert np.abs(sparse - dense_query(db, alpha, g1, g2)).max() <= 1e-12

    @pytest.mark.parametrize("g1,g2", [(G, G), (1.3, 0.7), (3e4, 7e2)])
    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_initialization_phases_match_dense(self, N, g1, g2):
        # the query's phases cancel between init and its reverse, so check
        # the phase each address carries after initialization alone
        n = N.bit_length() - 1
        swap_u, cswap_u = gates.swap_unitary(g1), gates.cswap_composite(g1, g2)
        init = schedule_initialization(n)
        bits = np.zeros((N, n + N), dtype=np.uint8)
        bits[:, :n] = (np.arange(N)[:, None] >> np.arange(n)[::-1]) & 1
        phase = np.ones(N, dtype=complex)
        qram._run_cycles(bits, phase, init, gate_tables(g1, g2), np.zeros(N))
        place = 1 << np.arange(n + N)[::-1]
        for x in range(N):
            state = np.zeros(1 << (n + N), dtype=complex)
            state.reshape(N, -1)[x, 0] = 1.0
            dense = dense_apply_cycles(state, n, init.cycles, n + N, swap_u, cswap_u)
            sparse = np.zeros_like(dense)
            sparse[bits[x] @ place] = phase[x]
            assert np.abs(sparse - dense).max() <= 1e-12
        assert np.abs(phase - 1.0).max() > 0.1    # the phases are not trivial

    def test_dense_oracle_retrieves(self):
        db = ClassicalDatabase((0, 1, 1, 0, 1, 0, 0, 1))
        for x in range(8):
            view = dense_query(db, basis(8, x), 1.3, 0.7).reshape(8, -1, 2)
            assert abs(view[x, 0, db.bits[x]]) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestExecutedSchedule:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_route_runs_exactly_the_timed_cycles(self, n, monkeypatch):
        received = []
        run = qram._run_cycles

        def spy(bits, phase, schedule, tables, stored):
            received.append(schedule)
            run(bits, phase, schedule, tables, stored)

        monkeypatch.setattr(qram, "_run_cycles", spy)
        qram._route(random_database(1 << n, seed=n), np.arange(1 << n), G, G)
        assert received == [schedule_initialization(n), schedule_query(n)]

    @pytest.mark.parametrize("g1,g2", COUPLINGS + [
        (1e-3, 1e-3), (1e-3, 1e6), (1e6, 1e-3), (1e6, 1e6),
        *(tuple(g) for g in 10.0 ** np.random.default_rng(0).uniform(-3, 6, (40, 2)))])
    def test_gates_fix_all_zero_input(self, g1, g2):
        # an off-path gate sees |0..0>; skipping it is exact only if every
        # table maps that input to itself with phase exactly 1
        for forward, adjoint in gate_tables(g1, g2).values():
            for perm, phases in (forward, adjoint):
                assert perm[0] == 0 and phases[0] == 1.0

    @pytest.mark.parametrize("g1,g2", COUPLINGS + [
        (1e-3, 1e6), (1e6, 1e-3), (4.4e307, 4.4e307), (2e-308, 2e-308),
        (4.4e307, 2e-308), (2e-308, 4.4e307),
        *(tuple(g) for g in 10.0 ** np.random.default_rng(1).uniform(-300, 300, (20, 2)))])
    def test_tables_equal_monomial_of_each_gate_and_adjoint(self, g1, g2,
                                                            monkeypatch):
        # the adjoint tables come from inverting the forward ones
        received = []
        run = qram._run_cycles

        def spy(bits, phase, schedule, tables, stored):
            received.append(tables)
            run(bits, phase, schedule, tables, stored)

        monkeypatch.setattr(qram, "_run_cycles", spy)
        qram._route(random_database(4, seed=1), np.arange(4), g1, g2)
        tables = received[0]
        reference = gate_tables(g1, g2)
        assert tables.keys() == reference.keys()
        for op in tables:
            for (perm, phases), (ref_perm, ref_phases) in zip(tables[op], reference[op]):
                assert perm.dtype == ref_perm.dtype and phases.dtype == ref_phases.dtype
                assert perm.tobytes() == ref_perm.tobytes()
                assert phases.tobytes() == ref_phases.tobytes()

    @pytest.mark.parametrize("g1,g2", COUPLINGS)
    @pytest.mark.parametrize("N", [16, 64, 1024])
    def test_on_path_gates_match_all_gates(self, N, g1, g2):
        db = random_database(N, seed=N + 5)
        bits, phase = qram._route(db, np.arange(N), g1, g2)
        oracle_bits, oracle_phase = all_gates_route(db, g1, g2)
        assert np.array_equal(bits, oracle_bits)
        assert np.array_equal(phase, oracle_phase)

    def test_rows_stay_keyed_by_input_address(self, monkeypatch, capsys):
        # a route map that sends address 1 to address 0 must fail address 1,
        # not merge it into row 0: in the exhaustive harness, in a
        # single-address query and in `qramsim --address`
        route = qram._route

        def misroute(db, addresses, g1, g2):
            bits, phase = route(db, addresses, g1, g2)
            bits[addresses == 1, :db.depth] = 0
            return bits, phase

        monkeypatch.setattr(qram, "_route", misroute)
        db = random_database(8, seed=4)
        report = verify_retrieval(db)
        assert report.addresses.tolist() == list(range(8))
        assert report.fidelity[1] == 0.0
        assert "address 1: fidelity 0.000000000000" in report.failures
        assert type(report.min_fidelity) is float and report.min_fidelity == 0.0
        one = verify_retrieval(db, address=1)
        assert one.addresses.tolist() == [1] and one.fidelity.tolist() == [0.0]
        assert simulate_query(db, basis(8, 1), G, G).fidelity == 0.0
        assert main(["qramsim", "--random-db", "--N", "8", "--seed", "4",
                     "--address", "1"]) == 3
        row = capsys.readouterr().out.splitlines()[1].split()
        assert (row[0], row[3]) == ("1", "0.000000000000")

    def test_uncomputing_with_forward_tables_fails(self, tmp_path, monkeypatch,
                                                   capsys):
        run = qram._run_cycles

        def forward_only(bits, phase, schedule, tables, stored):
            tables = {op: (fwd, fwd) for op, (fwd, _) in tables.items()}
            run(bits, phase, schedule, tables, stored)

        monkeypatch.setattr(qram, "_run_cycles", forward_only)
        assert not verify_retrieval(ClassicalDatabase((0, 1, 1, 0))).passed
        db = tmp_path / "db.txt"
        db.write_text("0110")
        assert main(["qramsim", "--db", str(db)]) == 3
        assert "MISMATCH" in capsys.readouterr().out


class TestReadOut:
    @pytest.mark.parametrize("g1,g2", COUPLINGS)
    @pytest.mark.parametrize("N", [2, 8, 64, 1024])
    def test_superpositions_scored_as_simulate_query_routes_them(
            self, N, g1, g2, monkeypatch):
        # the reported minimum is the score simulate_query gives equal weight
        # on the two addresses at the ends of the arc; the shifts span less
        # than a half turn, so the arc runs from the lowest to the highest
        rng = np.random.default_rng(N)
        addresses = rng.choice(N, size=min(N, 3), replace=False).tolist()
        shifts = dict(zip(addresses, rng.uniform(-1.2, 1.2, len(addresses)).tolist()))
        shift_phases(monkeypatch, shifts)
        db = random_database(N, seed=N + 9)
        report = verify_retrieval(db, g1, g2)
        assert not report.passed and report.failures[0].startswith("phase spread")
        angles = np.zeros(N)
        angles[addresses] = list(shifts.values())
        ends = (basis(N, angles.argmin()) + basis(N, angles.argmax())) / math.sqrt(2.0)
        assert abs(simulate_query(db, ends, g1, g2).fidelity
                   - report.min_fidelity) <= 1e-15

    @pytest.mark.parametrize("N", [8, 64])
    def test_phases_spread_past_a_half_turn_score_zero(self, N, monkeypatch):
        # three phases a third of a turn apart hold 0 in their convex hull
        third = 2 * math.pi / 3
        shift_phases(monkeypatch, {1: third, N - 1: -third})
        db = random_database(N, seed=N)
        report = verify_retrieval(db)
        assert report.min_fidelity == 0.0
        assert report.failures == ("phase spread 4.18879 rad: worst superposition "
                                   "fidelity 0.000000000000",)
        state = (basis(N, 0) + basis(N, 1) + basis(N, N - 1)) / math.sqrt(3.0)
        assert simulate_query(db, state, G, G).fidelity <= 1e-15

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), N=st.sampled_from([8, 64]))
    def test_no_superposition_scores_below_the_minimum(self, data, N):
        angle = st.floats(-math.pi, math.pi)
        shifts = data.draw(st.dictionaries(st.integers(0, N - 1), angle, max_size=4))
        alpha = np.array(data.draw(st.lists(st.complex_numbers(max_magnitude=1.0),
                                            min_size=N, max_size=N)))
        assume(np.linalg.norm(alpha) > 1e-3)
        alpha /= np.linalg.norm(alpha)
        db = random_database(N, seed=N)
        with pytest.MonkeyPatch.context() as monkeypatch:
            shift_phases(monkeypatch, shifts)
            floor = verify_retrieval(db, 1.3, 0.7).min_fidelity
            assert simulate_query(db, alpha, 1.3, 0.7).fidelity >= floor - 1e-12

    def test_misrouted_superpositions_scored_as_simulate_query_routes_them(
            self, monkeypatch):
        # a route map that sends address 1 to 0 loses that branch: the worst
        # superposition is address 1 alone, which scores 0, and the failures
        # are that address's own lines
        route = qram._route

        def misroute(db, addresses, g1, g2):
            bits, phase = route(db, addresses, g1, g2)
            bits[addresses == 1, :db.depth] = 0
            return bits, phase

        monkeypatch.setattr(qram, "_route", misroute)
        db = random_database(8, seed=4)
        report = verify_retrieval(db, 1.3, 0.7)
        assert report.min_fidelity == 0.0
        assert all(f.startswith("address 1: ") for f in report.failures)
        assert simulate_query(db, basis(8, 1), 1.3, 0.7).fidelity == 0.0
        uniform = np.full(8, 1 / math.sqrt(8.0))
        assert simulate_query(db, uniform, 1.3, 0.7).fidelity == pytest.approx(
            (7 / 8) ** 2, abs=1e-15)

    @pytest.mark.parametrize("N", [2, 8, 64])
    def test_verify_routes_once_and_reads_once(self, N, monkeypatch):
        calls = {"route": 0, "read": 0}
        route, read = qram._route, qram._read_out

        def route_spy(*args):
            calls["route"] += 1
            return route(*args)

        def read_spy(*args):
            calls["read"] += 1
            return read(*args)

        monkeypatch.setattr(qram, "_route", route_spy)
        monkeypatch.setattr(qram, "_read_out", read_spy)
        assert verify_retrieval(random_database(N, seed=N)).passed
        assert calls == {"route": 1, "read": 1}

    @pytest.mark.parametrize("g", [4.4e307, 2e-308])
    def test_extreme_couplings_in_range_retrieve(self, g):
        assert verify_retrieval(random_database(8, seed=42), g, g).passed


class TestWallTime:
    @pytest.mark.parametrize("g1,g2", [(G, G), (1.3, 0.7), (3e4, 7e2)])
    def test_equals_per_cycle_sum(self, g1, g2):
        # added one cycle at a time, left to right: the bits of sum() before
        # Python 3.12, whose sum() of floats is compensated
        for n in range(1, 21):
            for sched in (schedule_initialization(n), schedule_query(n)):
                per_cycle = 0.0
                for cycle in sched.cycles:
                    per_cycle += qram._op_duration(cycle.op, g1, g2)
                assert sched.wall_time(g1, g2) == per_cycle


class TestLargeTrees:
    def test_exhaustive_retrieval_at_1024_leaves(self):
        db = random_database(1024, seed=3)
        report = verify_retrieval(db, g1=1.3, g2=0.7)
        assert report.passed, report.failures[:3]
        assert report.addresses.tolist() == list(range(1024))
        assert report.read.tolist() == list(db.bits)
        assert type(report.min_fidelity) is float
        assert report.min_fidelity >= 1.0 - 1e-9

    def test_retrieval_at_the_leaf_cap_holds_one_table(self):
        # the executor's (N, n + N) uint8 bit table is the one O(N^2) array;
        # everything else verify_retrieval holds fits in 6 MiB
        N, n = 4096, 12
        db = random_database(N, 7)
        tracemalloc.start()
        try:
            assert verify_retrieval(db).passed
            assert tracemalloc.get_traced_memory()[1] <= N * (n + N) + (6 << 20)
        finally:
            tracemalloc.stop()

    def test_leaf_cap_checked_before_routing(self, monkeypatch):
        def no_gates(*args):
            raise AssertionError("gates built before the cap check")

        monkeypatch.setattr(gates, "swap_unitary", no_gates)
        db = ClassicalDatabase(bits=(0, 1) * qram.MAX_LEAVES)
        with pytest.raises(QramError, match="leaf cap"):
            verify_retrieval(db)
