import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qram_bounds import lattice, verify
from qram_bounds.lattice import (LatticeError, LatticeSpec, LRBoundParams,
                                 SymplecticPropagator, WeylFunction,
                                 axis_signal, c_omega_lambda, dispersion,
                                 longwave_speed, lr_bound_envelope,
                                 lr_bound_velocity, max_group_velocity,
                                 measure_light_cone, normal_modes, omega_max,
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


def ifftn_axis_signal(spec, dt, steps, r_max):
    """One full inverse FFT of cos(omega t) per time step t = i * dt,
    keeping the on-axis entries r = 0..r_max."""
    omega = normal_modes(spec)
    ts = np.arange(steps) * dt
    out = np.empty((steps, r_max + 1))
    for i, t in enumerate(ts):
        col = np.fft.ifftn(np.cos(omega * t)).real
        out[i] = col[(slice(0, r_max + 1),) + (0,) * (spec.d - 1)]
    return out


def rk4_step_loop(spec, t, dt):
    """Classical RK4 on q_dot = p/m, p_dot = -K q, one right-hand side per
    stage and four stages per step, starting from the identity."""
    n = spec.n_sites
    K = bond_coupling_matrix(spec)

    def rhs(S):
        return np.vstack([S[n:] / spec.m, -K @ S[:n]])

    steps = max(1, math.ceil(abs(t) / dt)) if t != 0 else 0
    h = t / steps if steps else 0.0
    S = np.eye(2 * n)
    for _ in range(steps):
        k1 = rhs(S)
        k2 = rhs(S + 0.5 * h * k1)
        k3 = rhs(S + 0.5 * h * k2)
        k4 = rhs(S + h * k3)
        S = S + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return S


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
    @pytest.mark.parametrize("L", [0, -4])
    def test_rejects_empty_lattice(self, L):
        with pytest.raises(LatticeError, match="L too small for range"):
            LatticeSpec(d=1, L=L, lam=(1.0,), m=1.0)

    def test_permits_closed_systems(self):
        # the wrap-around margin belongs to the light-cone scan
        spec = LatticeSpec(d=1, L=2, lam=(1.0, 1.0), m=1.0)
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

    @pytest.mark.parametrize("d,lam,m", [
        (1, (1.0,), 5e-324), (1, (1.0,), 1e-308), (3, (1.0,), 3e-308),
        (1, (1e308,), 1.0), (1, (0.0, 0.0, 1.0), 3e-308), (2, (0.0, 1.0), 4e-308)])
    def test_rejects_overflowing_dispersion_bound(self, d, lam, m):
        # the bound covers omega^2 and the group velocity, whose square grows
        # like j^2 lam_j / m for a range-j coupling
        with pytest.raises(LatticeError, match=re.escape(
                "dispersion bound d*sum_j max(4, j^2)*lam_j/m overflows at "
                f"lam={lam!r}, m={m!r}")):
            LatticeSpec(d=d, L=8, lam=lam, m=m)

    @pytest.mark.parametrize("d,lam,m", [
        (1, (1.0,), 3e-308), (1, (0.0, 0.0, 1.0), 1e-307), (3, (1.0, 2.0, 3.0), 7e-307),
        (1, (1e-300,), 5e-324)])
    def test_smallest_mass_below_overflow_is_finite(self, d, lam, m):
        spec = LatticeSpec(d=d, L=8, lam=lam, m=m)
        with np.errstate(over="raise"):
            assert math.isfinite(normal_modes(spec).max())
            assert math.isfinite(max_group_velocity(spec).lattice_units)


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

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan, 1e308])
    def test_refuses_wavevector_whose_phase_leaves_the_float_range(self, k):
        # sin(j k / 2) of an infinite k was nan; j k overflows at k = 1e308
        spec = LatticeSpec(d=2, L=8, lam=(1.0, 0.5), m=1.0)
        with pytest.raises(LatticeError, match=re.escape("phase j*k of the dispersion")):
            dispersion(spec, (0.5, k))
        assert math.isfinite(dispersion(LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0), 1e308))

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_omega_max_is_the_mode_grid_maximum_bitwise(self, d):
        # (0.3, 1.1, 0.7) at d = 2, L = 9: the largest diagonal entry of the
        # grid sits one ulp below its maximum, so the off-diagonal
        # candidates matter
        for L in range(2, 65):
            for lam in ((1.0,), (1.0, 0.4), (0.3, 1.1, 0.7),
                        (2.91, 1.553, 0.356), (0.41, 1.215, 0.618, 0.794)):
                for m in (0.37, 1.0, 7.3):
                    spec = LatticeSpec(d=d, L=L, lam=lam, m=m)
                    assert omega_max(spec) == normal_modes(spec).max()

    def test_normal_modes_nonnegative_and_symmetric(self):
        spec = LatticeSpec(d=2, L=8, lam=(0.8, 0.3), m=1.1)
        omega = normal_modes(spec)
        assert (omega >= 0).all()
        flipped = omega[tuple(slice(None, None, -1) for _ in range(2))]
        np.testing.assert_allclose(np.roll(np.roll(flipped, 1, 0), 1, 1),
                                   omega, atol=1e-12)


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

    def test_rejects_infinite_physical_velocity(self):
        # 2 sites/s times a = 1e308 leaves the float range
        spec = LatticeSpec(d=1, L=16, lam=(4.0,), m=1.0, a=1e308)
        with pytest.raises(LatticeError, match=re.escape(
                "physical group velocity overflows at a=1e+308")):
            max_group_velocity(spec)
        gv = max_group_velocity(LatticeSpec(d=1, L=16, lam=(4.0,), m=1.0, a=5e307))
        assert gv.physical == 2.0 * 5e307


class TestPropagator:
    def test_identity_at_zero_time(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        u = RNG.standard_normal(16)
        np.testing.assert_allclose(SymplecticPropagator(spec, 0.0).apply(u), u,
                                   atol=1e-14)

    def test_symplectic_form_preserved(self):
        for d, nu in ((1, 1), (1, 2), (2, 1), (2, 2)):
            lam = tuple(RNG.uniform(0.2, 1.5, nu))
            spec = LatticeSpec(d=d, L=8, lam=lam, m=float(RNG.uniform(0.5, 2.0)))
            n = spec.n_sites
            prop = SymplecticPropagator(spec, float(RNG.uniform(0.1, 3.0)))
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
            lhs = SymplecticPropagator(spec, t1 + t2).apply(u)
            rhs = SymplecticPropagator(spec, t1).apply(
                SymplecticPropagator(spec, t2).apply(u))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_time_reversal(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        u = RNG.standard_normal(16)
        back = SymplecticPropagator(spec, -0.7).apply(
            SymplecticPropagator(spec, 0.7).apply(u))
        np.testing.assert_allclose(back, u, atol=1e-9)

    def test_observable_action_is_transpose(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0, 0.5), m=1.0)
        prop = SymplecticPropagator(spec, 0.9)
        S = prop.matrix()
        u = RNG.standard_normal(16)
        np.testing.assert_allclose(prop.apply_observable(u), S.T @ u, atol=1e-12)

    def test_matrix_matches_apply(self):
        spec = LatticeSpec(d=2, L=4, lam=(1.0,), m=1.3)
        prop = SymplecticPropagator(spec, 1.2)
        u = RNG.standard_normal(32)
        np.testing.assert_allclose(prop.matrix() @ u, prop.apply(u), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("L", [7, 8])
    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_matches_row_by_row(self, d, nu, L, k):
        rng = np.random.default_rng(1000 * d + 100 * nu + 10 * L + k)
        spec = LatticeSpec(d=d, L=L, lam=tuple(rng.uniform(0.2, 1.5, nu)),
                           m=float(rng.uniform(0.5, 2.0)))
        prop = SymplecticPropagator(spec, float(rng.uniform(0.1, 3.0)))
        U = rng.standard_normal((k, 2 * spec.n_sites))
        for action in (prop.apply, prop.apply_observable):
            batched = action(U)
            assert batched.shape == U.shape
            rows = np.stack([action(row) for row in U])
            np.testing.assert_allclose(batched, rows, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d,L,lam", [(1, 7, (1.0, 0.4)), (2, 4, (1.3,)),
                                         (3, 4, (0.8,))])
    def test_matrix_matches_batch(self, d, L, lam):
        spec = LatticeSpec(d=d, L=L, lam=lam, m=0.9)
        prop = SymplecticPropagator(spec, 1.7)
        S = prop.matrix()
        U = RNG.standard_normal((5, 2 * spec.n_sites))
        np.testing.assert_allclose(S @ U.T, prop.apply(U).T, atol=1e-12)
        np.testing.assert_allclose(S.T @ U.T, prop.apply_observable(U).T,
                                   atol=1e-12)

    def test_symplectic_form_row_wise_on_batches(self):
        u, v = RNG.standard_normal((2, 6, 10))
        sigma = symplectic_form(u[:, :5], u[:, 5:], v[:, :5], v[:, 5:])
        assert sigma.shape == (6,)
        for row, value in enumerate(sigma):
            one = symplectic_form(u[row, :5], u[row, 5:], v[row, :5], v[row, 5:])
            assert isinstance(one, float) and one == value

    @pytest.mark.parametrize("shape", [(15,), (17,), (3, 15), (2, 3, 16), ()])
    def test_rejects_wrong_shape(self, shape):
        prop = SymplecticPropagator(LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0), 0.3)
        for action in (prop.apply, prop.apply_observable):
            with pytest.raises(LatticeError, match="phase-space input must have "
                               r"shape \(16,\) or \(k, 16\)"):
                action(np.zeros(shape))

    @pytest.mark.parametrize("t,m,lam,message", [
        (1e308, 1.0, 1.0, r"phase omega_max\*t of the propagator = 2\.0\*1e\+308"),
        (-1e308, 1.0, 1.0, r"phase omega_max\*t of the propagator"),
        (1.0, 5e-324, 5e-324, r"entry t/m overflows at t=1\.0, m=5e-324"),
        (-1e300, 1e-10, 1e-20, r"entry t/m overflows at t=-1e\+300, m=1e-10"),
    ])
    def test_refuses_time_or_mass_out_of_float_range(self, t, m, lam, message):
        # each returned nan entries from apply
        with pytest.raises(LatticeError, match=message):
            SymplecticPropagator(LatticeSpec(d=1, L=8, lam=(lam,), m=m), t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        prop = SymplecticPropagator(LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0), 0.3)
        one = np.full(16, bad)
        batch = np.zeros((3, 16))
        batch[2, 5] = bad
        for action in (prop.apply, prop.apply_observable):
            for u in (one, batch):
                with pytest.raises(LatticeError,
                                   match="phase-space vector has non-finite entries"):
                    action(u)


class TestOdePropagator:
    def test_identity_at_zero_time(self):
        spec = LatticeSpec(d=1, L=4, lam=(1.0,), m=1.0)
        np.testing.assert_allclose(propagate_ode(spec, 0.0, 1e-3),
                                   np.eye(8), atol=1e-14)

    def test_matches_spectral_small_lattice(self):
        spec = LatticeSpec(d=1, L=4, lam=(1.0,), m=1.0)
        S_spec = SymplecticPropagator(spec, 0.1).matrix()
        S_ode = propagate_ode(spec, 0.1, 1e-4)
        assert np.abs(S_spec - S_ode).max() < 1e-6

    def test_matches_spectral_l8_long_time(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        w_max = normal_modes(spec).max()
        t = 10.0 / w_max
        S_spec = SymplecticPropagator(spec, t).matrix()
        S_ode = propagate_ode(spec, t, 0.01 / w_max)
        assert np.abs(S_spec - S_ode).max() < 1e-6

    def test_rejects_large_step(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        w_max = normal_modes(spec).max()
        with pytest.raises(LatticeError, match="step too large"):
            propagate_ode(spec, 1.0, 1.0 / w_max)

    @pytest.mark.parametrize("d,L,lam,t", [(1, 8, (1.0,), 10.0), (1, 7, (1.0, 0.4), -3.0),
                                           (2, 4, (1.3,), 2.5), (1, 4, (0.6,), 1e-3)])
    def test_transfer_matrix_matches_step_loop(self, d, L, lam, t):
        spec = LatticeSpec(d=d, L=L, lam=lam, m=1.2)
        w_max = normal_modes(spec).max()
        t, dt = t / w_max, 0.01 / w_max
        S_ode = propagate_ode(spec, t, dt)
        assert np.abs(S_ode - rk4_step_loop(spec, t, dt)).max() <= 1e-12
        assert np.abs(S_ode - SymplecticPropagator(spec, t).matrix()).max() < 1e-6

    @pytest.mark.parametrize("t,dt,message", [
        (1.0, math.nan, "step must be finite and positive"),
        (1.0, math.inf, "step must be finite and positive"),
        (1.0, 0.0, "step must be finite and positive"),
        (1.0, -1e-3, "step must be finite and positive"),
        (math.inf, 1e-3, "time must be finite"),
        (-math.inf, 1e-3, "time must be finite"),
        (math.nan, 1e-3, "time must be finite"),
    ])
    def test_rejects_non_finite_inputs(self, t, dt, message):
        spec = LatticeSpec(d=1, L=4, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match=message):
            propagate_ode(spec, t, dt)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_spectral_propagator_rejects_non_finite_time(self, t):
        spec = LatticeSpec(d=1, L=4, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match="time must be finite"):
            SymplecticPropagator(spec, t)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_propagator_class_rejects_non_finite_time(self, t):
        spec = LatticeSpec(d=1, L=4, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match="time must be finite"):
            lattice.SymplecticPropagator(spec, t)

    def test_step_count_is_not_a_loop(self, monkeypatch):
        # 10^12 RK4 steps are refused at once, before anything is built:
        # T^steps drifts from the spectral propagator past 1e-6 beyond 10^6
        def never(spec):
            raise AssertionError("built before the step check")
        monkeypatch.setattr(lattice, "coupling_matrix", never)
        monkeypatch.setattr(lattice, "omega_max", never)
        spec = LatticeSpec(d=1, L=4, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match=r"RK4 capped at 1000000 steps, "
                                               r"got \|t\|/dt = 1e\+12"):
            propagate_ode(spec, 1e9, 1e-3)
        with pytest.raises(LatticeError, match="RK4 capped at 1000000 steps"):
            propagate_ode(spec, -1e9, 1e-3)

    def test_step_cap_itself_stays_accurate(self):
        # 10^6 steps at L = 4, dt = 1e-3: still within the 1e-6 verify bound
        spec = LatticeSpec(d=1, L=4, lam=(1.0,), m=1.0)
        S_ode = propagate_ode(spec, 1e3, 1e-3)
        assert np.abs(S_ode - SymplecticPropagator(spec, 1e3).matrix()).max() < 1e-6

    @pytest.mark.parametrize("d,L", [(1, 513), (2, 23), (3, 9)])
    def test_rejects_more_sites_than_dense_cap(self, d, L, monkeypatch):
        def never(spec):
            raise AssertionError("built before the size check")
        monkeypatch.setattr(lattice, "coupling_matrix", never)
        monkeypatch.setattr(lattice, "omega_max", never)
        spec = LatticeSpec(d=d, L=L, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match="dense propagator capped at 512 sites"):
            propagate_ode(spec, 1.0, 1e-3)


class TestVerifyLatticeSuite:
    def test_batched_apply_calls_and_verdicts(self, monkeypatch):
        """The suite's symplectic and group-law checks make one batched call
        per action: 5 per lattice on 4 lattices, never one per vector."""
        shapes = []
        apply = lattice.SymplecticPropagator.apply

        def counted(self, u):
            shapes.append(np.shape(u))
            return apply(self, u)

        monkeypatch.setattr(lattice.SymplecticPropagator, "apply", counted)
        checks = verify.lattice_suite()
        assert len(shapes) == 20
        assert all(len(shape) == 2 and shape[0] == 25 for shape in shapes)
        assert len(checks) == 7
        assert [name for name, ok, _ in checks if not ok] == []


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
        spec = LatticeSpec(d=1, L=2, lam=(1.0,), m=1.0)
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

    @pytest.mark.parametrize("C,mu", [(math.nan, 1.0), (math.inf, 1.0),
                                      (1.0, math.nan), (1.0, math.inf),
                                      (0.0, 1.0), (1.0, -1.0)])
    def test_constants_must_be_positive_and_finite(self, C, mu):
        with pytest.raises(LatticeError, match="envelope constants must be "
                           "positive and finite"):
            LRBoundParams(C, mu)

    @pytest.mark.parametrize("mu,dist,t", [
        (1e308, 1.0, 1.0),        # e^(mu/2 + 1) overflowed with OverflowError
        (1.0, 1.0, 1e308),        # exp of the cone term is inf
        (1.0, math.nan, 1.0),     # nan passed the distance check
        (1.0, 1.0, math.inf)])
    def test_refuses_envelope_out_of_float_range(self, mu, dist, t):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match=re.escape(
                f"bound envelope at dist={dist!r}, t={t!r} leaves the float range")):
            lr_bound_envelope(spec, LRBoundParams(1.0, mu), dist, t)

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
        np.testing.assert_allclose(axis_signal(spec, 0.13, 308, L - 1),
                                   ifftn_axis_signal(spec, 0.13, 308, L - 1),
                                   rtol=0, atol=1e-12)

    @given(d=st.integers(1, 3), nu=st.integers(1, 2), extra=st.integers(0, 4),
           lam=st.lists(st.floats(0.05, 5.0), min_size=2, max_size=2),
           m=st.floats(0.1, 10.0), dt=st.floats(-6.0, 6.0),
           steps=st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_step_ifftn_small_specs(self, d, nu, extra, lam, m, dt, steps):
        spec = LatticeSpec(d=d, L=2 * nu + 2 + extra, lam=tuple(lam[:nu]), m=m)
        np.testing.assert_allclose(axis_signal(spec, dt, steps, spec.L - 1),
                                   ifftn_axis_signal(spec, dt, steps, spec.L - 1),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,L,lam,steps", [(2, 64, (1.0, 0.3), 100),
                                               (3, 32, (1.0,), 60)])
    def test_many_blocks_match_per_step_ifftn(self, d, L, lam, steps):
        # each block restarts from its own base angle: steps far past one
        # block (14 rows at 2D L=64, 8 at 3D L=32) keep the oracle's accuracy
        spec = LatticeSpec(d=d, L=L, lam=lam, m=0.8)
        orbits = math.comb(L // 2 + d, d)
        assert steps > 3 * (lattice._BLOCK_BYTES // (32 * orbits))
        np.testing.assert_allclose(axis_signal(spec, 0.37, steps, L // 2),
                                   ifftn_axis_signal(spec, 0.37, steps, L // 2),
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
        np.testing.assert_allclose(axis_signal(spec, 0.2, 301, 120), oracle,
                                   rtol=0, atol=1e-12)

    def test_bessel_oracle_long_horizon_many_blocks(self):
        # out to t = 220 in 28 blocks of 40 steps; the images J_2(L-r) have
        # order >= 560 at argument <= 440, still far below double precision
        special = pytest.importorskip("scipy.special")
        spec = LatticeSpec(d=1, L=400, lam=(1.0,), m=1.0)
        ts = np.arange(1101) * 0.2
        rs = np.arange(121)
        oracle = special.jv(2 * rs[None, :], 2.0 * ts[:, None])
        np.testing.assert_allclose(axis_signal(spec, 0.2, 1101, 120), oracle,
                                   rtol=0, atol=1e-12)

    def test_time_grid_is_the_arange_grid(self):
        # t_i = i * dt is bitwise np.arange(0, t_max + dt, dt): one step of the
        # scan grid at a time, c(t_i, r) equals the one-step signal at t_i
        spec = LatticeSpec(d=2, L=12, lam=(1.0, 0.2), m=1.1)
        ts = np.arange(0.0, 9.0 + 0.3, 0.3)
        np.testing.assert_array_equal(np.arange(len(ts)) * 0.3, ts)
        signal = axis_signal(spec, 0.3, len(ts), 5)
        for i, t in enumerate(ts):
            np.testing.assert_allclose(signal[i], axis_signal(spec, t, 2, 5)[1],
                                       rtol=0, atol=1e-14)

    def test_signal_is_stored_distance_major(self):
        spec = LatticeSpec(d=1, L=40, lam=(1.0,), m=1.0)
        signal = axis_signal(spec, 0.1, 50, 10)
        assert signal.shape == (50, 11)
        assert signal[:, 3].flags.c_contiguous

    @pytest.mark.parametrize("d,L,orbits", [(1, 400, 201), (2, 64, 561),
                                            (3, 32, 969), (3, 7, 20)])
    def test_orbits_cover_the_grid_once(self, d, L, orbits):
        spec = LatticeSpec(d=d, L=L, lam=(1.0, 0.3), m=1.0)
        omega, W = lattice._axis_orbits(spec, 3)
        assert len(omega) == W.shape[0] == math.comb(L // 2 + d, d) == orbits
        assert W[:, 0].sum() == pytest.approx(1.0, rel=0, abs=1e-14)
        # the orbit sizes n_sites * W[:, 0] repeat each omega over the grid
        sizes = np.rint(W[:, 0] * spec.n_sites).astype(int)
        assert sizes.sum() == spec.n_sites
        np.testing.assert_allclose(np.sort(np.repeat(omega, sizes)),
                                   np.sort(normal_modes(spec).ravel()),
                                   rtol=0, atol=1e-14)

    def test_rejects_bad_arguments(self):
        spec = LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0)
        for dt, steps in ((math.nan, 2), (math.inf, 2), (-math.inf, 2), (0.1, -1)):
            with pytest.raises(LatticeError, match="dt must be finite and steps >= 0"):
                axis_signal(spec, dt, steps, 4)
        # 3 steps of 1e308 at omega_max = 2 were nan rows after row 0
        for dt in (1e308, -1e308, 4e307):
            with pytest.raises(LatticeError, match=re.escape(
                    "phase omega_max*steps*|dt| of the time signal = 2.0*")):
                axis_signal(spec, dt, 3, 4)
        assert np.isfinite(axis_signal(spec, 2e307, 3, 4)).all()
        with pytest.raises(LatticeError, match="r_max"):
            axis_signal(spec, 0.1, 1, 16)
        with pytest.raises(LatticeError, match="r_max"):
            axis_signal(spec, 0.1, 1, -1)

    def test_weight_matrix_capped_before_building(self, monkeypatch):
        # C(L//2 + d, d) = C(19, 3) = 969 orbits times r_max + 1 = 15 entries
        spec = LatticeSpec(d=3, L=32, lam=(1.0,), m=1.0)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", 969 * 15)
        assert axis_signal(spec, 1.0, 1, 14).shape == (1, 15)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", 969 * 15 - 1)

        def no_orbits(*args):
            raise AssertionError("orbits built before the size check")

        monkeypatch.setattr(lattice, "_axis_orbits", no_orbits)
        with pytest.raises(LatticeError, match="orbit weight matrix"):
            axis_signal(spec, 1.0, 1, 14)


class TestLightCone:
    def test_rejects_small_lattice(self, monkeypatch):
        # the wrap-around margin L >= 2*nu + 2, checked before anything else
        monkeypatch.setattr(lattice, "axis_signal", None)
        for L, lam in ((4, (1.0, 1.0)), (3, (1.0,)), (2, (1.0,))):
            spec = LatticeSpec(d=1, L=L, lam=lam, m=1.0)
            with pytest.raises(LatticeError, match="L too small for range"):
                measure_light_cone(spec, threshold=2.0, t_max=-1.0, r_max=0)

    def test_rejects_infinite_physical_velocity(self):
        spec = LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0, a=1e308)
        with pytest.raises(LatticeError, match=re.escape(
                "physical fitted velocity overflows at a=1e+308")):
            measure_light_cone(spec, threshold=1e-3, t_max=5.0, r_max=7)
        spec = LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0, a=1e300)
        scan = measure_light_cone(spec, threshold=1e-3, t_max=5.0, r_max=7)
        assert scan.fitted_velocity_physical == scan.fitted_velocity_lattice * 1e300

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
        (dict(t_max=1e308, dt=4e307), r"phase omega_max\*steps\*\|dt\| of the "
                                      "time signal = .* leaves the float range"),
        (dict(t_max=1.7e308, dt=1e308), r"t_max \+ dt = 1\.7e\+308 \+ 1e\+308 "
                                        "overflows a float"),
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
        # the automatic dt reads omega_max from one axis: the L^d mode grid is
        # never built, and the orbit check refuses before that axis or any
        # orbit is
        spec = LatticeSpec(d=3, L=40, lam=(1.0, 0.3), m=1.0)
        dt = 0.2 / normal_modes(spec).max()

        def no_grid(*args):
            raise AssertionError("mode grid or orbits built before the size check")

        monkeypatch.setattr(lattice, "normal_modes", no_grid)
        scan = measure_light_cone(spec, threshold=1e-3, t_max=1.0, r_max=10)
        assert scan.dt == dt
        monkeypatch.setattr(lattice, "omega_max", no_grid)
        monkeypatch.setattr(lattice, "_axis_orbits", no_grid)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", math.comb(23, 3) * 11 - 1)
        with pytest.raises(LatticeError, match="orbit weight matrix needs 1.95e\\+04"):
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
        omega = normal_modes(spec)
        r_cap = L // 2 - spec.nu
        for t in (0.5, 2.0, 5.0):
            col = np.fft.ifftn(np.cos(omega * t)).real.reshape(spec.shape)
            sig = 2.0 * np.abs(np.sin(
                col[(slice(0, r_cap + 1),) + (0,) * (d - 1)] / 2.0))
            rs = np.arange(r_cap + 1, dtype=float)
            mask = rs - v_bound * t >= 5.0
            if mask.any():
                assert sig[mask].max() < 1e-6
