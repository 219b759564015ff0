import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import apply_unitary
from qram_bounds import gates, qram
from qram_bounds.gates import (GateError, bs_unitary, cswap_composite,
                               cswap_duration, cswap_exact, cz_unitary,
                               gauge_equivalent, swap_unitary, t_beamsplitter,
                               t_cphase, t_swap)

RNG = np.random.default_rng(11)


def random_unitary(dim, rng=RNG):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def embed(U, modes, n_modes=3):
    """Dense matrix of U on ``modes``: the oracle applied to each basis column."""
    return np.column_stack([apply_unitary(col, U, modes, n_modes)
                            for col in np.eye(1 << n_modes)])


def interferometer(g1, g2, cz_modes, closing_inverse):
    """Beam splitter on (a, b) = modes (1, 2), CZ on ``cz_modes``, and a
    closing beam splitter, inverted or in the same orientation."""
    bs = embed(bs_unitary(g1, t_beamsplitter(g1)), (1, 2))
    cz = embed(cz_unitary(g2, t_cphase(g2)), cz_modes)
    return (bs.conj().T if closing_inverse else bs) @ cz @ bs


# per-call reference: the exchange generator diagonalised and the identity
# Kronecker-multiplied in every call; the closed-form beam splitter lies
# within a few ulps of it and the controlled phase matches it bit for bit
SP = np.array([[0, 0], [1, 0]], dtype=complex)
NUM = np.array([[0, 0], [0, 1]], dtype=complex)


def reference_bs(g1, t):
    w, V = np.linalg.eigh(np.kron(SP, SP.conj().T) + np.kron(SP.conj().T, SP))
    return (V * np.exp(-1j * (g1 * t) * w)) @ V.conj().T


def reference_cz(g2, t):
    return np.diag(np.exp(-1j * (g2 * t) * np.diag(np.kron(NUM, NUM))))


def reference_cswap(g1, g2):
    BS = np.kron(np.eye(2), reference_bs(g1, t_beamsplitter(g1)))
    CZ = np.kron(reference_cz(g2, t_cphase(g2)), np.eye(2))
    return BS.conj().T @ CZ @ BS


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def within_ulps(a, b):
    """Same dtype and shape, and every entry within 4 machine epsilons."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.abs(a - b).max() <= 4 * np.finfo(float).eps)


BIT_COUPLINGS = [(math.pi, math.pi), (1.3, 0.7), (3e4, 7e2), (1e-3, 1e6), (1e6, 1e-3),
                 (4.4e307, 4.4e307), (2e-308, 2e-308), (4.4e307, 2e-308),
                 (2e-308, 4.4e307),
                 *(tuple(g) for g in
                   10.0 ** np.random.default_rng(5).uniform(-300, 300, (20, 2)))]


class TestGateBits:
    @pytest.mark.parametrize("g1,g2", BIT_COUPLINGS)
    def test_gates_equal_per_call_reference_bit_for_bit(self, g1, g2):
        # the controlled phase bit for bit, the beam-splitter gates to 4 eps
        assert within_ulps(swap_unitary(g1), reference_bs(g1, t_swap(g1)))
        for t in (t_beamsplitter(g1), 0.37 / g1):
            assert within_ulps(bs_unitary(g1, t), reference_bs(g1, t))
        for t in (t_cphase(g2), 0.61 / g2, 0.0):
            assert same_bits(cz_unitary(g2, t), reference_cz(g2, t))
        assert within_ulps(cswap_composite(g1, g2), reference_cswap(g1, g2))

    def test_module_holds_no_arrays(self):
        # the gates are built per call from closed forms, not from constants
        assert not [name for name, value in vars(gates).items()
                    if isinstance(value, np.ndarray)]

    @pytest.mark.parametrize("g1,g2", BIT_COUPLINGS)
    def test_beam_splitter_is_the_closed_form(self, g1, g2):
        # cos and -i sin of g1 t on (|01>, |10>), exact 0 and 1 elsewhere
        for t in (t_swap(g1), t_beamsplitter(g1), 0.37 / g1, 0.0):
            phase = g1 * t
            c, s = math.cos(phase), complex(0.0, -math.sin(phase))
            expected = [[1, 0, 0, 0], [0, c, s, 0], [0, s, c, 0], [0, 0, 0, 1]]
            assert (bs_unitary(g1, t) == np.array(expected, dtype=complex)).all()


# basis order on two modes: |00>, |01>, |10>, |11>
class TestBeamSplitter:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(bs_unitary(1.0, 0.0), np.eye(4), atol=1e-14)

    def test_full_transfer_at_t_swap(self):
        g1 = 1.7
        U = bs_unitary(g1, t_swap(g1))
        assert abs(U[1, 2]) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(U[2, 1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_half_transfer_at_t_bs(self):
        g1 = 0.9
        U = bs_unitary(g1, t_beamsplitter(g1))
        assert abs(U[1, 2]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(U[1, 1]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_transfer_probability_law(self):
        g1 = 1.3
        for t in np.linspace(0.0, 2.0 * math.pi / g1, 20):
            U = bs_unitary(g1, float(t))
            assert abs(U[1, 2]) ** 2 == pytest.approx(
                math.sin(g1 * t) ** 2, abs=1e-9)

    def test_duration_additivity(self):
        g1 = 2.1
        U = bs_unitary(g1, 0.31) @ bs_unitary(g1, 0.47)
        np.testing.assert_allclose(U, bs_unitary(g1, 0.78), atol=1e-10)

    def test_vacuum_and_doubly_occupied_fixed(self):
        U = bs_unitary(1.0, 0.7)
        assert U[0, 0] == pytest.approx(1.0)
        assert U[3, 3] == pytest.approx(1.0)

    @given(g1=st.floats(0.1, 10.0), t=st.floats(0.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_unitary_property(self, g1, t):
        U = bs_unitary(g1, t)
        assert np.abs(U.conj().T @ U - np.eye(4)).max() < 1e-10

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(GateError, match="nonpositive coupling"):
            bs_unitary(0.0, 1.0)

    @pytest.mark.parametrize("make", [
        lambda g: bs_unitary(g, 1.0), lambda g: cz_unitary(g, 1.0),
        swap_unitary, t_swap, t_beamsplitter, t_cphase])
    @pytest.mark.parametrize("g", [math.nan, math.inf])
    def test_rejects_non_finite_coupling(self, make, g):
        with pytest.raises(GateError, match="non-finite coupling g[12]="):
            make(g)

    @pytest.mark.parametrize("make", [
        lambda g: bs_unitary(g, 1.0), lambda g: cz_unitary(g, 1.0),
        swap_unitary, t_swap, t_beamsplitter, t_cphase])
    @pytest.mark.parametrize("g", [5e307, 1e308, 1e-320, 5e-324])
    def test_rejects_coupling_whose_durations_overflow(self, make, g):
        # 4*g overflows (a zero beam-splitter time) or pi/g does
        with pytest.raises(GateError, match=re.escape(f"={g!r} out of range")):
            make(g)

    @pytest.mark.parametrize("make,name", [(bs_unitary, "g1*t of the beam splitter"),
                                           (cz_unitary, "g2*t of the controlled phase")])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e308])
    def test_refuses_time_whose_phase_leaves_the_float_range(self, make, name, t):
        # a non-finite g*t gave a matrix of nan
        with pytest.raises(GateError, match=re.escape(f"phase {name} = 2.0*{t!r}")):
            make(2.0, t)
        assert np.isfinite(make(1.0, 1e308)).all()

    @pytest.mark.parametrize("g", [4.4e307, 2e-308])
    def test_extreme_couplings_in_range_keep_the_composite(self, g):
        assert math.isfinite(t_beamsplitter(g)) and t_beamsplitter(g) > 0
        assert math.isfinite(t_cphase(g))
        assert gauge_equivalent(cswap_composite(g, g), cswap_exact()).equivalent


class TestControlledPhase:
    def test_pi_phase_on_doubly_occupied(self):
        g2 = 0.8
        U = cz_unitary(g2, t_cphase(g2))
        np.testing.assert_allclose(np.diag(U), [1, 1, 1, -1], atol=1e-10)

    def test_identity_at_zero(self):
        np.testing.assert_allclose(cz_unitary(1.0, 0.0), np.eye(4), atol=1e-14)

    def test_half_duration_quarter_phase(self):
        g2 = 1.1
        U = cz_unitary(g2, t_cphase(g2) / 2.0)
        assert U[3, 3] == pytest.approx(-1j, abs=1e-12)


class TestControlledSwapComposite:
    def test_control_one_swaps_populations(self):
        # ctrl=|1>, (a,b)=|10>  ->  |1>|01> with probability 1
        U = cswap_composite(1.3, 0.7)
        out = U @ np.eye(8)[:, 0b110]
        probs = np.abs(out) ** 2
        assert probs[0b101] == pytest.approx(1.0, abs=1e-12)

    def test_control_zero_is_identity_on_populations(self):
        U = cswap_composite(1.3, 0.7)
        out = U @ np.eye(8)[:, 0b010]
        assert abs(out[0b010]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_superposed_control_fredkin_fidelity(self):
        g1, g2 = 1.3, 0.7
        res = gauge_equivalent(cswap_composite(g1, g2), cswap_exact())
        assert res.equivalent
        assert res.fidelity >= 1.0 - 1e-9
        # and the specific interferometer input stays normalized/entangled
        psi = np.zeros(8, dtype=complex)
        psi[0b010] = psi[0b110] = 1.0 / math.sqrt(2.0)
        out = cswap_composite(g1, g2) @ psi
        probs = np.abs(out) ** 2
        assert probs[0b010] == pytest.approx(0.5, abs=1e-12)
        assert probs[0b101] == pytest.approx(0.5, abs=1e-12)

    def test_same_orientation_closing_splitter_fails(self):
        res = gauge_equivalent(interferometer(1.3, 0.7, (0, 1), False),
                               cswap_exact())
        assert not res.equivalent
        assert res.fidelity < 0.9

    def test_either_interferometer_arm_works(self):
        np.testing.assert_allclose(interferometer(1.3, 0.7, (0, 1), True),
                                   cswap_composite(1.3, 0.7), atol=1e-12)
        for arm in ((0, 1), (0, 2)):
            res = gauge_equivalent(interferometer(1.3, 0.7, arm, True),
                                   cswap_exact())
            assert res.equivalent

    def test_restricted_blocks(self):
        U = cswap_composite(2.0, 1.0)
        assert gauge_equivalent(U[:4, :4], np.eye(4, dtype=complex)).equivalent
        swap_pop = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        assert gauge_equivalent(U[4:, 4:], swap_pop).equivalent

    def test_unitary(self):
        U = cswap_composite(1.3, 0.7)
        assert np.abs(U.conj().T @ U - np.eye(8)).max() < 1e-10


class TestDurations:
    def test_time_scales(self):
        assert t_swap(2.0) == math.pi / 4.0
        assert t_beamsplitter(2.0) == math.pi / 8.0
        assert t_cphase(4.0) == math.pi / 4.0

    def test_cswap_duration_composition(self):
        g1, g2 = 1.7, 0.6
        assert cswap_duration(g1, g2) == 2.0 * t_beamsplitter(g1) + t_cphase(g2)

    def test_refuses_duration_out_of_float_range(self):
        # both couplings pass _coupling, but pi/(2g) + pi/g overflows
        with pytest.raises(GateError, match=re.escape(
                "controlled-SWAP duration overflows a float at "
                "g1=2e-308, g2=2e-308")):
            cswap_duration(2e-308, 2e-308)
        assert math.isfinite(cswap_duration(4e-308, 4e-308))

    def test_gate_spec_durations(self):
        # every op a schedule holds: the address swap, the routing stage,
        # the bus step and the data copy
        g1, g2 = 1.7, 0.6
        ops = {c.op for n in (1, 2) for c in (*qram.schedule_initialization(n).cycles,
                                              *qram.schedule_query(n).cycles)}
        assert ops == {"swap", "route", "bus", "copy"}
        assert qram._op_duration("swap", g1, g2) == t_swap(g1)
        assert qram._op_duration("route", g1, g2) == cswap_duration(g1, g2)
        assert qram._op_duration("bus", g1, g2) == cswap_duration(g1, g2)
        assert qram._op_duration("copy", g1, g2) == t_swap(g1)


class TestGaugeEquivalent:
    def test_self_equivalence(self):
        U = random_unitary(8)
        res = gauge_equivalent(U, U)
        assert res.equivalent and res.fidelity == pytest.approx(1.0, abs=1e-12)

    @given(theta=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=25, deadline=None)
    def test_global_phase_absorbed(self, theta):
        U = random_unitary(4)
        res = gauge_equivalent(U, np.exp(1j * theta) * U)
        assert res.fidelity >= 1.0 - 1e-9

    def test_diagonal_gauges_absorbed(self):
        U = random_unitary(8)
        rng = np.random.default_rng(5)
        d1 = np.exp(1j * rng.uniform(0, 2 * math.pi, 8))
        d2 = np.exp(1j * rng.uniform(0, 2 * math.pi, 8))
        res = gauge_equivalent((d1[:, None] * U) * d2[None, :], U)
        assert res.equivalent

    def test_full_transfer_is_swap_up_to_gauge(self):
        g1 = 1.0
        swap_pop = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        res = gauge_equivalent(bs_unitary(g1, t_swap(g1)), swap_pop)
        assert res.equivalent

    def test_distinguishes_genuinely_different_gates(self):
        res = gauge_equivalent(np.eye(4, dtype=complex),
                               np.eye(4, dtype=complex)[[0, 2, 1, 3]])
        assert not res.equivalent

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GateError):
            gauge_equivalent(np.eye(4, dtype=complex), np.eye(8, dtype=complex))


class TestApplyGate:
    """The dense oracle's gate application, each unitary given explicitly."""

    def test_swap_moves_population(self):
        state = np.zeros(4, dtype=complex)
        state[0b10] = 1.0
        out = apply_unitary(state, swap_unitary(1.3), (0, 1), 2)
        assert abs(out[0b01]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved_on_random_state(self):
        state = RNG.standard_normal(16) + 1j * RNG.standard_normal(16)
        state /= np.linalg.norm(state)
        out = apply_unitary(state, cswap_composite(1.1, 0.9), (0, 2, 3), 4)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_embedding_matches_kron_for_adjacent_targets(self):
        U = bs_unitary(1.0, 0.37)
        full = np.kron(U, np.eye(2))
        state = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)
        state /= np.linalg.norm(state)
        out = apply_unitary(state, U, (0, 1), 3)
        np.testing.assert_allclose(out, full @ state, atol=1e-12)

    def test_controlled_phase_flips_doubly_occupied_sign(self):
        state = np.zeros(8, dtype=complex)
        state[0b011] = 1.0  # modes 1 and 2 occupied
        out = apply_unitary(state, cz_unitary(0.7, t_cphase(0.7)), (1, 2), 3)
        assert out[0b011] == pytest.approx(-1.0, abs=1e-12)

    def test_control_on_last_mode(self):
        # gate targets need not be in register order: ctrl on mode 2
        state = np.zeros(8, dtype=complex)
        state[0b101] = 1.0  # a=1, b=0, ctrl=1
        out = apply_unitary(state, cswap_composite(1.3, 0.7), (2, 0, 1), 3)
        assert abs(out[0b011]) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestMonomial:
    @pytest.mark.parametrize("g1,g2", [(math.pi, math.pi), (1.3, 0.7), (3e4, 7e2)])
    def test_router_gates_rebuild_from_their_tables(self, g1, g2):
        for U in (swap_unitary(g1), cswap_composite(g1, g2)):
            perm, phases = gates.monomial(U)
            rebuilt = np.zeros_like(U)
            rebuilt[perm, np.arange(len(perm))] = phases
            assert np.abs(U - rebuilt).max() <= 1e-12
            np.testing.assert_allclose(np.abs(phases), 1.0, atol=1e-12)

    def test_exact_cswap_is_its_permutation(self):
        perm, phases = gates.monomial(cswap_exact())
        assert perm.tolist() == [0, 1, 2, 3, 4, 6, 5, 7]
        assert np.array_equal(phases, np.ones(8))

    def test_refuses_balanced_beam_splitter(self):
        g1 = 1.3
        with pytest.raises(GateError, match="not monomial"):
            gates.monomial(bs_unitary(g1, t_beamsplitter(g1)))

    def test_refuses_entry_above_tolerance(self):
        U = np.eye(4, dtype=complex)
        U[1, 0] = 2e-12
        with pytest.raises(GateError, match="not monomial"):
            gates.monomial(U)
        U[1, 0] = 5e-13
        assert gates.monomial(U)[0].tolist() == [0, 1, 2, 3]

    def test_refuses_repeated_row_and_non_square(self):
        with pytest.raises(GateError, match="not monomial"):
            gates.monomial(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(GateError, match="square"):
            gates.monomial(np.ones((2, 4)))

