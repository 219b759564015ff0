import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qram_bounds import lattice
from qram_bounds.lattice import (LatticeError, LatticeSpec, LRBoundParams,
                                 WeylFunction, axis_signal, c_omega_lambda,
                                 dispersion, longwave_speed, lr_bound_envelope,
                                 lr_bound_velocity, max_group_velocity,
                                 measure_light_cone, normal_modes, propagate,
                                 propagate_ode, symplectic_form,
                                 weyl_commutator_norm)

RNG = np.random.default_rng(20240808)


# --- independent oracles ----------------------------------------------------

def bond_coupling_matrix(spec):
    """Assemble K bond by bond, symmetrically: an independent construction
    of the force matrix from the Hamiltonian's (u_r - u_{r+j e})^2 terms."""
    n = spec.n_sites
    shape = spec.shape
    K = np.zeros((n, n))
    for idx in np.ndindex(shape):
        r = int(np.ravel_multi_index(idx, shape))
        for axis in range(spec.d):
            for j, lam in enumerate(spec.lam, start=1):
                nb = list(idx)
                nb[axis] = (nb[axis] + j) % spec.L
                s = int(np.ravel_multi_index(tuple(nb), shape))
                K[r, r] += lam
                K[s, s] += lam
                K[r, s] -= lam
                K[s, r] -= lam
    return K


def eigenfrequency_oracle(spec):
    K = bond_coupling_matrix(spec)
    vals = np.linalg.eigvalsh(K)
    return np.sort(np.sqrt(np.clip(vals, 0.0, None) / spec.m))


def fock_operators(trunc, m):
    n = np.arange(trunc)
    a = np.diag(np.sqrt(n[1:]), 1)
    q = (a + a.T) / np.sqrt(2.0 * m)
    p = 1j * (a.T - a) * np.sqrt(m / 2.0)
    return q, p


def fock_commutator_norm(lam, m, f_amp, g_amp, t, trunc):
    """Dense matrix-exponential evaluation of ||[W(f)(t), W(g)]|| for a
    periodic 2-site chain, applied to the vacuum (where the truncated
    operators are faithful; a Weyl commutator is scalar x unitary, so any
    well-represented vector attains the operator norm)."""
    q1, p1 = fock_operators(trunc, m)
    I = np.eye(trunc)
    Q = [np.kron(q1, I), np.kron(I, q1)]
    P = [np.kron(p1, I), np.kron(I, p1)]
    # both wrap-around bonds of the 2-site ring -> lam * (u1 - u2)^2 twice
    H = (P[0] @ P[0] + P[1] @ P[1]) / (2.0 * m) \
        + lam * (Q[0] - Q[1]) @ (Q[0] - Q[1])
    wH, V = np.linalg.eigh(H)
    U = (V * np.exp(-1j * wH * t)) @ V.conj().T

    def weyl(amp):
        G = sum(amp[i].real * Q[i] + amp[i].imag * P[i] for i in range(2))
        w, VG = np.linalg.eigh(G)
        return (VG * np.exp(1j * w)) @ VG.conj().T

    Wf, Wg = weyl(f_amp), weyl(g_amp)
    Wf_t = U.conj().T @ Wf @ U
    vac = np.zeros(trunc * trunc, dtype=complex)
    vac[0] = 1.0
    return np.linalg.norm(Wf_t @ (Wg @ vac) - Wg @ (Wf_t @ vac))


def ifftn_axis_signal(spec, ts, r_max):
    """One full inverse FFT of cos(omega t) per time step, keeping the
    on-axis entries r = 0..r_max."""
    omega = normal_modes(spec).omega
    out = np.empty((len(ts), r_max + 1))
    for i, t in enumerate(ts):
        col = np.fft.ifftn(np.cos(omega * t)).real
        out[i] = col[(slice(0, r_max + 1),) + (0,) * (spec.d - 1)]
    return out


def full_grid_group_velocity(spec):
    """max |grad omega| over the whole cell-centered grid at once, without
    the k -> 0 candidate."""
    n_axis = {1: 20001, 2: 301, 3: 101}[spec.d]
    k = (np.arange(n_axis) + 0.5) * np.pi / n_axis
    grids = np.meshgrid(*([k] * spec.d), indexing="ij", sparse=True)
    w2 = np.zeros((n_axis,) * spec.d)
    for kb in grids:
        for j, lam in enumerate(spec.lam, start=1):
            w2 = w2 + 4.0 * lam * np.sin(j * kb / 2.0) ** 2
    omega = np.sqrt(w2 / spec.m)
    grad2 = np.zeros_like(omega)
    for kb in grids:
        comp = sum(lam * j * np.sin(j * kb)
                   for j, lam in enumerate(spec.lam, start=1))
        grad2 = grad2 + (comp / (spec.m * omega)) ** 2
    return float(np.sqrt(grad2.max()))


# --- spec and modes ----------------------------------------------------------

class TestLatticeSpec:
    def test_rejects_small_lattice(self):
        with pytest.raises(LatticeError, match="L too small for range"):
            LatticeSpec(d=1, L=4, lam=(1.0, 1.0), m=1.0)

    def test_allow_wrap_permits_closed_systems(self):
        spec = LatticeSpec(d=1, L=2, lam=(1.0,), m=1.0, allow_wrap=True)
        assert spec.n_sites == 2

    def test_rejects_bad_couplings(self):
        with pytest.raises(LatticeError, match="negative spring"):
            LatticeSpec(d=1, L=8, lam=(-1.0,), m=1.0)
        with pytest.raises(LatticeError, match="zero"):
            LatticeSpec(d=1, L=8, lam=(0.0,), m=1.0)

    @pytest.mark.parametrize("fields,message", [
        (dict(m=math.nan), "non-finite site mass m"),
        (dict(m=math.inf), "non-finite site mass m"),
        (dict(a=math.inf), "non-finite lattice spacing a"),
        (dict(a=-math.inf), "non-finite lattice spacing a"),
        (dict(lam=(math.nan,)), "non-finite spring constant in lam"),
        (dict(lam=(1.0, math.inf)), "non-finite spring constant in lam"),
    ])
    def test_rejects_non_finite_fields(self, fields, message):
        with pytest.raises(LatticeError, match=message):
            LatticeSpec(**{**dict(d=1, L=8, lam=(1.0,), m=1.0), **fields})


class TestDispersion:
    def test_zone_edge(self):
        spec = LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0)
        assert dispersion(spec, math.pi) == pytest.approx(2.0, rel=1e-15)

    def test_zero_mode(self):
        for d in (1, 2):
            spec = LatticeSpec(d=d, L=8, lam=(1.0, 0.5), m=2.0)
            assert dispersion(spec, (0.0,) * d) == 0.0

    def test_2d_corner(self):
        spec = LatticeSpec(d=2, L=8, lam=(1.0,), m=1.0)
        assert dispersion(spec, (math.pi, math.pi)) == pytest.approx(
            math.sqrt(8.0), rel=1e-15)

    @pytest.mark.parametrize("spec", [
        LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0),
        LatticeSpec(d=1, L=16, lam=(1.0, 0.4), m=1.2),
        LatticeSpec(d=1, L=32, lam=(0.3, 0.9, 0.2), m=0.7),
        LatticeSpec(d=2, L=8, lam=(1.0, 0.4), m=1.2),
    ])
    def test_matches_eigenfrequencies_of_coupling_matrix(self, spec):
        k_axis = 2.0 * np.pi * np.arange(spec.L) / spec.L
        if spec.d == 1:
            ks = [(k,) for k in k_axis]
        else:
            ks = [(ka, kb) for ka in k_axis for kb in k_axis]
        disp = np.sort([dispersion(spec, k) for k in ks])
        np.testing.assert_allclose(disp, eigenfrequency_oracle(spec),
                                   atol=1e-9, rtol=1e-9)

    def test_symmetric_in_k(self):
        spec = LatticeSpec(d=1, L=16, lam=(1.0, 0.4), m=1.2)
        for k in (0.3, 1.1, 2.9):
            assert dispersion(spec, k) == pytest.approx(dispersion(spec, -k))

    def test_normal_modes_nonnegative_and_symmetric(self):
        spec = LatticeSpec(d=2, L=8, lam=(0.8, 0.3), m=1.1)
        modes = normal_modes(spec)
        assert (modes.omega >= 0).all()
        flipped = modes.omega[tuple(slice(None, None, -1) for _ in range(2))]
        np.testing.assert_allclose(np.roll(np.roll(flipped, 1, 0), 1, 1),
                                   modes.omega, atol=1e-12)


class TestGroupVelocity:
    def test_nearest_neighbor_unit(self):
        spec = LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0)
        gv = max_group_velocity(spec)
        assert gv.lattice_units == pytest.approx(1.0, rel=1e-9)
        assert gv.longwave_lattice_units == pytest.approx(1.0, rel=1e-12)

    def test_decoupled_limit(self):
        spec = LatticeSpec(d=1, L=16, lam=(1e-30,), m=1.0)
        assert max_group_velocity(spec).lattice_units == pytest.approx(0.0, abs=1e-12)

    def test_two_range_chain_against_numerical_gradient(self):
        spec = LatticeSpec(d=1, L=16, lam=(1.0, 1.0), m=1.0)
        k = np.linspace(1e-8, math.pi, 400001)
        omega = np.sqrt(4.0 * (np.sin(k / 2) ** 2 + np.sin(k) ** 2))
        oracle = np.abs(np.gradient(omega, k)).max()
        gv = max_group_velocity(spec)
        assert gv.lattice_units == pytest.approx(oracle, rel=1e-5)
        assert gv.longwave_lattice_units == pytest.approx(math.sqrt(5.0), rel=1e-12)
        assert gv.lattice_units >= gv.longwave_lattice_units - 1e-12

    def test_longwave_slope_independent_of_d(self):
        lam, m = (0.8, 0.3), 1.1
        slopes = []
        for d in (1, 2, 3):
            spec = LatticeSpec(d=d, L=8, lam=lam, m=m)
            q = 1e-7
            slopes.append(dispersion(spec, (q,) + (0.0,) * (d - 1)) / q)
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-9)
        assert slopes[0] == pytest.approx(slopes[2], rel=1e-9)
        assert slopes[0] == pytest.approx(longwave_speed(
            LatticeSpec(d=1, L=8, lam=lam, m=m)), rel=1e-6)

    @pytest.mark.parametrize("d,lam,m", [
        (1, (1.0,), 1.0), (1, (1.0, 1.0), 0.7), (2, (0.8, 0.3), 1.1),
        (3, (1.0,), 1.0), (3, (1.2, 0.4), 0.9),
    ])
    def test_slabs_match_full_grid(self, d, lam, m, monkeypatch):
        # without the k -> 0 candidate the result is the grid maximum alone
        monkeypatch.setattr(lattice, "longwave_speed", lambda spec: 0.0)
        spec = LatticeSpec(d=d, L=8, lam=lam, m=m)
        assert max_group_velocity(spec).lattice_units == pytest.approx(
            full_grid_group_velocity(spec), rel=1e-12)

    def test_bound_exceeds_measured_speed_by_factor_four_nn(self):
        spec = LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0)
        assert lr_bound_velocity(spec) == pytest.approx(4.0, rel=1e-15)
        assert max_group_velocity(spec).lattice_units < lr_bound_velocity(spec)


class TestPropagator:
    def test_identity_at_zero_time(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        u = RNG.standard_normal(16)
        np.testing.assert_allclose(propagate(spec, 0.0).apply(u), u, atol=1e-14)

    def test_symplectic_form_preserved(self):
        for d, nu in ((1, 1), (1, 2), (2, 1), (2, 2)):
            lam = tuple(RNG.uniform(0.2, 1.5, nu))
            spec = LatticeSpec(d=d, L=8, lam=lam, m=float(RNG.uniform(0.5, 2.0)))
            n = spec.n_sites
            prop = propagate(spec, float(RNG.uniform(0.1, 3.0)))
            for _ in range(25):
                u = RNG.standard_normal(2 * n)
                v = RNG.standard_normal(2 * n)
                su, sv = prop.apply(u), prop.apply(v)
                s0 = symplectic_form(u[:n], u[n:], v[:n], v[n:])
                s1 = symplectic_form(su[:n], su[n:], sv[:n], sv[n:])
                assert abs(s1 - s0) < 1e-10 * max(1.0, abs(s0))

    def test_group_property(self):
        spec = LatticeSpec(d=1, L=12, lam=(1.0, 0.3), m=0.8)
        u = RNG.standard_normal(24)
        for t1, t2 in ((0.3, 0.5), (1.1, -0.4), (2.0, 2.0)):
            lhs = propagate(spec, t1 + t2).apply(u)
            rhs = propagate(spec, t1).apply(propagate(spec, t2).apply(u))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_time_reversal(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        u = RNG.standard_normal(16)
        back = propagate(spec, -0.7).apply(propagate(spec, 0.7).apply(u))
        np.testing.assert_allclose(back, u, atol=1e-9)

    def test_observable_action_is_transpose(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0, 0.5), m=1.0)
        prop = propagate(spec, 0.9)
        S = prop.matrix()
        u = RNG.standard_normal(16)
        np.testing.assert_allclose(prop.apply_observable(u), S.T @ u, atol=1e-12)

    def test_matrix_matches_apply(self):
        spec = LatticeSpec(d=2, L=4, lam=(1.0,), m=1.3)
        prop = propagate(spec, 1.2)
        u = RNG.standard_normal(32)
        np.testing.assert_allclose(prop.matrix() @ u, prop.apply(u), atol=1e-12)


class TestOdePropagator:
    def test_identity_at_zero_time(self):
        spec = LatticeSpec(d=1, L=4, lam=(1.0,), m=1.0)
        np.testing.assert_allclose(propagate_ode(spec, 0.0, 1e-3),
                                   np.eye(8), atol=1e-14)

    def test_matches_spectral_small_lattice(self):
        spec = LatticeSpec(d=1, L=4, lam=(1.0,), m=1.0)
        S_spec = propagate(spec, 0.1).matrix()
        S_ode = propagate_ode(spec, 0.1, 1e-4)
        assert np.abs(S_spec - S_ode).max() < 1e-6

    def test_matches_spectral_l8_long_time(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        w_max = normal_modes(spec).omega_max
        t = 10.0 / w_max
        S_spec = propagate(spec, t).matrix()
        S_ode = propagate_ode(spec, t, 0.01 / w_max)
        assert np.abs(S_spec - S_ode).max() < 1e-6

    def test_rejects_large_step(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        w_max = normal_modes(spec).omega_max
        with pytest.raises(LatticeError, match="step too large"):
            propagate_ode(spec, 1.0, 1.0 / w_max)


class TestWeylCommutator:
    def test_disjoint_supports_at_zero_time(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        f = WeylFunction({0: 1.0 + 0.5j})
        g = WeylFunction({3: 0.7 - 0.2j})
        assert weyl_commutator_norm(spec, f, g, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_operator_commutes_with_itself(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        f = WeylFunction({0: 1.0 + 1.0j, 2: 0.3j})
        assert weyl_commutator_norm(spec, f, f, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_conjugate_pair_same_site(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        f = WeylFunction({0: 1.0})
        g = WeylFunction({0: 1.0j})
        assert weyl_commutator_norm(spec, f, g, 0.0) == pytest.approx(
            2.0 * abs(math.sin(0.5)), rel=1e-12)

    def test_bounded_by_two(self):
        spec = LatticeSpec(d=1, L=12, lam=(1.0,), m=1.0)
        f = WeylFunction({0: 4.0 + 3.0j})
        g = WeylFunction({1: 5.0j})
        for t in (0.0, 0.5, 2.0, 7.0):
            assert 0.0 <= weyl_commutator_norm(spec, f, g, t) <= 2.0

    def test_rejects_sites_outside_lattice(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match="outside lattice"):
            weyl_commutator_norm(spec, WeylFunction({9: 1.0}),
                                 WeylFunction({0: 1.0}), 0.0)

    @pytest.mark.parametrize("f_amp,g_amp,t", [
        ((1.0 + 0j, 0j), (0j, 1j), 0.0),
        ((1.0 + 0j, 0j), (1j, 0j), 0.0),
        ((0.5 + 0j, 0j), (0j, 0.5j), 0.3),
        ((0.3 + 0.2j, 0j), (0j, 0.4j), 0.4),
    ])
    def test_matches_fock_truncation_oracle(self, f_amp, g_amp, t):
        spec = LatticeSpec(d=1, L=2, lam=(1.0,), m=1.0, allow_wrap=True)
        closed = weyl_commutator_norm(spec,
                                      WeylFunction({0: f_amp[0], 1: f_amp[1]}),
                                      WeylFunction({0: g_amp[0], 1: g_amp[1]}), t)
        dense = fock_commutator_norm(1.0, 1.0, np.array(f_amp),
                                     np.array(g_amp), t, trunc=6)
        assert abs(closed - dense) <= 1e-3


class TestBoundEnvelope:
    def test_unit_at_origin(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        assert lr_bound_envelope(spec, LRBoundParams(1.0, 1.0), 0.0, 0.0) == 1.0

    def test_cone_constant(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        assert c_omega_lambda(spec) == pytest.approx(1.0, rel=1e-15)
        spec3 = LatticeSpec(d=3, L=8, lam=(1.0, 2.0), m=1.0)
        assert c_omega_lambda(spec3) == pytest.approx(3.0, rel=1e-15)

    def test_pure_distance_decay(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        val = lr_bound_envelope(spec, LRBoundParams(1.0, 1.0), 10.0, 0.0)
        assert val == pytest.approx(math.exp(-10.0), rel=1e-12)

    def test_mass_enters_exponent(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=2.0)
        val = lr_bound_envelope(spec, LRBoundParams(1.0, 1.0), 5.0, 0.0)
        assert val == pytest.approx(math.exp(-10.0), rel=1e-12)

    def test_envelope_dominates_measured_decay_along_ray(self):
        # calibrate the prefactor at one point just outside the signal
        # front, then every resolvable measured value along the ray must
        # stay below the envelope's exp(-mu m dr) falloff
        spec = LatticeSpec(d=1, L=200, lam=(1.0,), m=1.0)
        bp = LRBoundParams(1.0, 1.0)
        t = 1.0
        f = WeylFunction({0: 1.0})
        pairs = []
        for r in range(2, 14):
            measured = weyl_commutator_norm(spec, f, WeylFunction({r: 1.0j}), t)
            if measured >= 1e-13:
                pairs.append((measured, lr_bound_envelope(spec, bp, r, t)))
        assert len(pairs) >= 4
        C = pairs[0][0] / pairs[0][1]
        for measured, bare in pairs:
            assert measured <= C * bare * (1.0 + 1e-9)


class TestAxisSignal:
    @pytest.mark.parametrize("d,L,lam", [
        (1, 16, (1.0,)), (1, 17, (1.0, 0.4)), (1, 400, (1.0,)),
        (2, 9, (0.8,)), (2, 10, (1.0, 0.3)),
        (3, 7, (1.1, 0.5)), (3, 8, (0.9,)),
    ])
    def test_matches_per_step_ifftn(self, d, L, lam):
        spec = LatticeSpec(d=d, L=L, lam=lam, m=0.9)
        ts = np.arange(0.0, 40.0, 0.13)
        np.testing.assert_allclose(axis_signal(spec, ts, L - 1),
                                   ifftn_axis_signal(spec, ts, L - 1),
                                   rtol=0, atol=1e-12)

    @given(d=st.integers(1, 3), nu=st.integers(1, 2), extra=st.integers(0, 4),
           lam=st.lists(st.floats(0.05, 5.0), min_size=2, max_size=2),
           m=st.floats(0.1, 10.0),
           ts=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_step_ifftn_small_specs(self, d, nu, extra, lam, m, ts):
        spec = LatticeSpec(d=d, L=2 * nu + 2 + extra, lam=tuple(lam[:nu]), m=m)
        np.testing.assert_allclose(axis_signal(spec, ts, spec.L - 1),
                                   ifftn_axis_signal(spec, ts, spec.L - 1),
                                   rtol=0, atol=1e-12)

    def test_bessel_oracle_nearest_neighbor_chain(self):
        # infinite chain: c(t, r) = J_2r(2 t sqrt(lam/m)); at L = 400 the
        # wrap-around images J_2(L-r) are far below double precision
        special = pytest.importorskip("scipy.special")
        spec = LatticeSpec(d=1, L=400, lam=(1.3,), m=0.7)
        ts = np.linspace(0.0, 60.0, 301)
        rs = np.arange(121)
        oracle = special.jv(2 * rs[None, :],
                            2.0 * ts[:, None] * math.sqrt(1.3 / 0.7))
        np.testing.assert_allclose(axis_signal(spec, ts, 120), oracle,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,L,orbits", [(1, 400, 201), (2, 64, 1089),
                                            (3, 32, 2601), (3, 7, 40)])
    def test_orbits_cover_the_grid_once(self, d, L, orbits):
        spec = LatticeSpec(d=d, L=L, lam=(1.0,), m=1.0)
        n0, omega, mult = lattice._axis_orbits(spec)
        assert len(n0) == len(omega) == len(mult) == orbits
        assert mult.sum() == spec.n_sites

    def test_rejects_bad_arguments(self):
        spec = LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match="finite 1-D"):
            axis_signal(spec, [0.0, math.nan], 4)
        with pytest.raises(LatticeError, match="r_max"):
            axis_signal(spec, [0.0], 16)
        with pytest.raises(LatticeError, match="r_max"):
            axis_signal(spec, [0.0], -1)

    def test_weight_matrix_capped_before_building(self, monkeypatch):
        spec = LatticeSpec(d=3, L=32, lam=(1.0,), m=1.0)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", 2601 * 15 - 1)
        with pytest.raises(LatticeError, match="orbit weight matrix"):
            axis_signal(spec, [0.0], 14)


class TestLightCone:
    def test_nearest_neighbor_velocity(self):
        spec = LatticeSpec(d=1, L=200, lam=(1.0,), m=1.0)
        scan = measure_light_cone(spec, threshold=1e-3, t_max=100.0,
                                  r_max=90, dt=0.05)
        gv = max_group_velocity(spec).lattice_units
        assert scan.fitted_velocity_lattice == pytest.approx(gv, rel=0.10)
        assert scan.fitted_velocity_lattice < lr_bound_velocity(spec)

    def test_velocity_scales_as_sqrt_coupling(self):
        spec1 = LatticeSpec(d=1, L=200, lam=(1.0,), m=1.0)
        spec4 = LatticeSpec(d=1, L=200, lam=(4.0,), m=1.0)
        v1 = measure_light_cone(spec1, 1e-3, 100.0, 80, dt=0.05)
        v4 = measure_light_cone(spec4, 1e-3, 50.0, 80, dt=0.025)
        ratio = v4.fitted_velocity_lattice / v1.fitted_velocity_lattice
        assert ratio == pytest.approx(2.0, rel=0.10)

    def test_rows_shape_and_peaks(self):
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        scan = measure_light_cone(spec, threshold=1e-2, t_max=30.0, r_max=20)
        assert len(scan.rows) == 20
        assert all(row.peak > 0 for row in scan.rows)
        arrivals = [row.t_arrival for row in scan.rows]
        assert all(a is not None for a in arrivals)
        assert arrivals == sorted(arrivals)

    def test_no_arrival_reported_for_decoupled_lattice(self):
        spec = LatticeSpec(d=1, L=64, lam=(1e-30,), m=1.0)
        with pytest.raises(LatticeError, match="not enough arrivals"):
            measure_light_cone(spec, threshold=1e-3, t_max=5.0, r_max=10, dt=0.5)

    def test_r_max_guard(self):
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match="wrap-around"):
            measure_light_cone(spec, threshold=1e-3, t_max=5.0, r_max=40)

    @pytest.mark.parametrize("fit_r_min", [10, 50])
    def test_fit_r_min_checked_against_r_max_before_the_scan(
            self, fit_r_min, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scan ran before the fit_r_min check")

        monkeypatch.setattr(lattice, "axis_signal", no_scan)
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match=f"fit_r_min = {fit_r_min} leaves "
                                               "fewer than two distances"):
            measure_light_cone(spec, threshold=1e-3, t_max=5.0, r_max=10,
                               dt=0.05, fit_r_min=fit_r_min)

    def test_fit_r_min_at_limit_fits_two_distances(self):
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        scan = measure_light_cone(spec, threshold=1e-3, t_max=12.0, r_max=10,
                                  dt=0.05, fit_r_min=9)
        assert scan.fitted_velocity_lattice > 0

    def test_threshold_domain(self):
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match="threshold"):
            measure_light_cone(spec, threshold=1.5, t_max=5.0, r_max=10)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(t_max=5.0, dt=0.0), "dt must be finite and positive"),
        (dict(t_max=5.0, dt=-0.1), "dt must be finite and positive"),
        (dict(t_max=5.0, dt=math.nan), "dt must be finite and positive"),
        (dict(t_max=5.0, dt=math.inf), "dt must be finite and positive"),
        (dict(t_max=math.nan, dt=0.1), "t_max must be finite"),
        (dict(t_max=math.inf, dt=None), "t_max must be finite"),
        (dict(t_max=1e9, dt=1e-3), "time signal needs .* above the cap"),
        (dict(t_max=1.0, dt=5e-324), "time signal needs .* above the cap"),
    ])
    def test_rejects_bad_time_grid(self, kwargs, message):
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match=message):
            measure_light_cone(spec, threshold=1e-3, r_max=10, **kwargs)

    def test_work_cap_boundary(self, monkeypatch):
        # t_max / dt + 2 = 42 steps at most, times r_max + 1 = 11 entries
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", 42 * 11)
        measure_light_cone(spec, threshold=1e-3, t_max=5.0, r_max=10, dt=0.125)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", 42 * 11 - 1)
        with pytest.raises(LatticeError, match="time signal needs"):
            measure_light_cone(spec, threshold=1e-3, t_max=5.0, r_max=10,
                               dt=0.125)

    def test_automatic_dt_checks_the_mode_grid_before_building_it(self, monkeypatch):
        def no_grid(spec):
            raise AssertionError("normal_modes called before the size check")

        monkeypatch.setattr(lattice, "normal_modes", no_grid)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", 40 ** 3 - 1)
        spec = LatticeSpec(d=3, L=40, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match="mode grid .* needs 6.4e\\+04"):
            measure_light_cone(spec, threshold=1e-3, t_max=1.0, r_max=10)

    def test_fit_diagnostics(self):
        # at t_max = 2 the far distances never leave the noise floor
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        scan = measure_light_cone(spec, threshold=1e-3, t_max=2.0, r_max=20,
                                  dt=0.01)
        missing = [row.r for row in scan.rows if row.t_arrival is None]
        assert missing and missing[-1] == 20
        assert scan.n_no_arrival == len(missing)
        t = np.array([row.t_arrival for row in scan.rows if row.t_arrival is not None])
        r = np.array([row.r for row in scan.rows if row.t_arrival is not None])
        slope, intercept = np.polyfit(t, r, 1)
        assert scan.fitted_velocity_lattice == pytest.approx(slope, rel=1e-9)
        assert scan.fit_intercept == pytest.approx(intercept, rel=1e-9, abs=1e-9)
        rms = math.sqrt(np.mean((r - slope * t - intercept) ** 2))
        assert scan.fit_residual == pytest.approx(rms, rel=1e-9, abs=1e-12)

    def test_2d_axis_cone_below_2d_bound(self):
        spec = LatticeSpec(d=2, L=32, lam=(1.0,), m=1.0)
        scan = measure_light_cone(spec, threshold=0.1, t_max=20.0,
                                  r_max=12, dt=0.05)
        assert scan.fitted_velocity_lattice < lr_bound_velocity(spec)
        assert lr_bound_velocity(spec) == pytest.approx(4.0 * math.sqrt(2.0),
                                                        rel=1e-12)


class TestCausalityTail:
    @pytest.mark.parametrize("d,L,lam", [(1, 200, (1.0,)), (2, 32, (1.0,))])
    def test_commutator_negligible_outside_bound_cone(self, d, L, lam):
        spec = LatticeSpec(d=d, L=L, lam=lam, m=1.0)
        v_bound = lr_bound_velocity(spec)
        modes = normal_modes(spec)
        r_cap = L // 2 - spec.nu
        for t in (0.5, 2.0, 5.0):
            col = np.fft.ifftn(np.cos(modes.omega * t)).real.reshape(spec.shape)
            sig = 2.0 * np.abs(np.sin(
                col[(slice(0, r_cap + 1),) + (0,) * (d - 1)] / 2.0))
            rs = np.arange(r_cap + 1, dtype=float)
            mask = rs - v_bound * t >= 5.0
            if mask.any():
                assert sig[mask].max() < 1e-6
