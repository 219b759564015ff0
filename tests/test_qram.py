import math

import numpy as np
import pytest

from dense_oracle import apply_unitary, dense_state
from qram_bounds import gates, qram
from qram_bounds.gates import t_cphase, t_swap, t_beamsplitter
from qram_bounds.qram import (ClassicalDatabase, QramError, RoutingStage, Swap,
                              random_database, read_database,
                              schedule_initialization, schedule_query,
                              simulate_query, total_time, verify_retrieval)

G = math.pi


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


def dense_apply_cycles(state, cycles, n_modes, swap_u, cswap_u):
    """Apply every gate of every cycle as a dense unitary on its modes."""
    for cycle in cycles:
        U = cswap_u if isinstance(cycle.op, RoutingStage) else swap_u
        for modes in np.atleast_2d(cycle.op.modes()):
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
    state = dense_apply_cycles(state, cycles, n_modes, swap_u, cswap_u)
    state = dense_data_copy(state, db.bits, n)
    return dense_apply_cycles(state, reversed(cycles), n_modes,
                              swap_u.conj().T, cswap_u.conj().T)


def basis(N, x):
    v = np.zeros(N, dtype=complex)
    v[x] = 1.0
    return v


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
                    touched = np.ravel(cycle.op.modes()).tolist()
                    assert len(touched) == len(set(touched))

    def test_query_core_is_linear_in_depth(self):
        for n in (1, 2, 5, 9):
            q = schedule_query(n)
            assert q.phase_cycle_count("descend", "copy", "ascend") == 2 * n + 1
            assert q.phase_cycle_count("uncompute") == \
                schedule_initialization(n).cycle_count

    def test_initialization_depth_is_quadratic(self):
        for n in (1, 4, 9):
            assert schedule_initialization(n).cycle_count == n * (n + 1) // 2

    def test_rejects_empty_tree(self):
        with pytest.raises(QramError, match="empty tree"):
            schedule_query(0)
        with pytest.raises(QramError, match="empty tree"):
            schedule_initialization(0)


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
        for n in (1, 2, 5, 8):
            expected = ((n * (n - 1) / 2 + 2 * n) * t_cswap
                        + 2 * n * t_swap(g1)
                        + (n * (n - 1) / 2) * t_cswap + t_swap(g1))
            total = total_time(schedule_initialization(n), schedule_query(n),
                               g1, g2)
            assert total == pytest.approx(expected, rel=1e-12)

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

    def test_random_database_deterministic(self):
        assert random_database(8, seed=3).bits == random_database(8, seed=3).bits


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
        # one row per router configuration, address 0, bus |0>
        N = 1 << n
        n_routers = N - 1
        configs = np.arange(1 << n_routers)
        table = np.zeros((len(configs), n + N), dtype=np.uint8)
        table[:, n:n + n_routers] = (configs[:, None]
                                     >> np.arange(n_routers)[::-1]) & 1
        state = np.zeros(N * len(configs) * 2, dtype=complex)
        state.reshape(N, -1, 2)[0, :, 0] = 1.0
        for code in range(1 << N):
            bits = tuple((code >> (N - 1 - i)) & 1 for i in range(N))
            out = table.copy()
            qram._copy_data(out, ClassicalDatabase(bits), n)
            walked = brute_force_data_copy(state, bits).reshape(N, -1, 2)
            assert np.array_equal(out[:, -1], walked[0, :, 1].real.astype(np.uint8))
            assert np.array_equal(out[:, :-1], table[:, :-1])


class TestSimulateQuery:
    def test_basis_address_reads_one(self):
        db = ClassicalDatabase((0, 1, 1, 0))
        result = simulate_query(db, basis(4, 2), G, G)
        row = result.table[0]
        assert (row.address, row.read) == (2, 1)
        assert row.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_basis_address_reads_zero(self):
        db = ClassicalDatabase((0, 1, 1, 0))
        result = simulate_query(db, basis(4, 0), G, G)
        assert result.table[0].read == 0

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
            assert result.table[0].read == trace_oracle(db.bits, x)
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
            simulate_query(random_database(N, seed=1), basis(N, 0), G, G)

    def test_dense_vector_beyond_register_cap_refused(self):
        result = simulate_query(random_database(16, seed=1), basis(16, 5), G, G)
        assert result.table[0].read == result.table[0].expected
        with pytest.raises(ValueError, match="mode cap"):
            dense_state(result)

    def test_rejects_unnormalized_address(self):
        db = ClassicalDatabase((0, 1))
        with pytest.raises(QramError, match="normalized"):
            simulate_query(db, np.array([0.5, 0.5]), G, G)

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

    def test_constant_database_reads_one_everywhere(self):
        report = verify_retrieval(ClassicalDatabase((1, 1, 1, 1)))
        assert report.passed
        assert all(row.read == 1 for row in report.rows)


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
        tables = {Swap: gates.monomial(swap_u),
                  RoutingStage: gates.monomial(cswap_u)}
        cycles = schedule_initialization(n).cycles
        bits = np.zeros((N, n + N), dtype=np.uint8)
        bits[:, :n] = (np.arange(N)[:, None] >> np.arange(n)[::-1]) & 1
        phase = np.ones(N, dtype=complex)
        qram._run_cycles(bits, phase, cycles, tables)
        place = 1 << np.arange(n + N)[::-1]
        for x in range(N):
            state = np.zeros(1 << (n + N), dtype=complex)
            state.reshape(N, -1)[x, 0] = 1.0
            dense = dense_apply_cycles(state, cycles, n + N, swap_u, cswap_u)
            sparse = np.zeros_like(dense)
            sparse[bits[x] @ place] = phase[x]
            assert np.abs(sparse - dense).max() <= 1e-12
        assert np.abs(phase - 1.0).max() > 0.1    # the phases are not trivial

    def test_dense_oracle_retrieves(self):
        db = ClassicalDatabase((0, 1, 1, 0, 1, 0, 0, 1))
        for x in range(8):
            view = dense_query(db, basis(8, x), 1.3, 0.7).reshape(8, -1, 2)
            assert abs(view[x, 0, db.bits[x]]) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestWallTime:
    @pytest.mark.parametrize("g1,g2", [(G, G), (1.3, 0.7), (3e4, 7e2)])
    def test_equals_per_cycle_sum(self, g1, g2):
        for n in range(1, 21):
            for sched in (schedule_initialization(n), schedule_query(n)):
                per_cycle = sum(c.op.duration(g1, g2) for c in sched.cycles)
                assert sched.wall_time(g1, g2) == per_cycle


class TestLargeTrees:
    def test_exhaustive_retrieval_at_1024_leaves(self):
        db = random_database(1024, seed=3)
        report = verify_retrieval(db, g1=1.3, g2=0.7)
        assert report.passed, report.failures[:3]
        assert [row.address for row in report.rows] == list(range(1024))
        assert all(row.read == db.bits[row.address] for row in report.rows)
        assert report.min_fidelity >= 1.0 - 1e-9

    def test_leaf_cap_checked_before_routing(self, monkeypatch):
        def no_gates(*args):
            raise AssertionError("gates built before the cap check")

        monkeypatch.setattr(gates, "swap_unitary", no_gates)
        db = random_database(2 * qram.MAX_LEAVES, seed=2)
        with pytest.raises(QramError, match="leaf cap"):
            verify_retrieval(db)
