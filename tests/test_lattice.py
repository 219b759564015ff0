import contextlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_oracles import (SIGNAL_CASES, LRBoundParams, SymplecticPropagator,
                             WeylFunction, assert_cone_columns, bond_coupling_matrix,
                             full_grid_group_velocity, full_signal_rows, ifftn_axis_signal,
                             lr_bound_envelope, normal_modes, propagate_ode,
                             symplectic_form, weyl_commutator_norm)
from qram_bounds import lattice, verify
from qram_bounds.lattice import (LatticeError, LatticeSpec, axis_signal,
                                 coupling_matrix, dispersion, lr_speed,
                                 max_group_velocity, measure_light_cone, omega_max,
                                 physical_velocity)

RNG = np.random.default_rng(20240808)


# --- independent oracles ----------------------------------------------------

def squared_eigenfrequency_oracle(spec):
    """Ascending omega^2 = eigvalsh(K)/m of the bond-built K, and the scale
    eps*||K||/m of their rounding error under any BLAS kernel."""
    K = bond_coupling_matrix(spec)
    return (np.linalg.eigvalsh(K) / spec.m,
            np.finfo(float).eps * np.linalg.norm(K, 2) / spec.m)


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


def traced_peak(call, refusal=None):
    """The traced memory peak of ``call()``, in bytes; with ``refusal``,
    the call must raise a LatticeError that matches it."""
    tracemalloc.start()
    try:
        with (pytest.raises(LatticeError, match=refusal) if refusal
              else contextlib.nullcontext()):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- spec and modes ----------------------------------------------------------

class TestLatticeSpec:
    @pytest.mark.parametrize("L", [0, -4, 8.5])
    def test_rejects_empty_lattice(self, L):
        # the range plays no part here; measure_light_cone checks L >= 2*nu + 2
        with pytest.raises(LatticeError, match="^L must be an int >= 1$"):
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
        with pytest.raises(LatticeError, match="^nonpositive interaction range$"):
            LatticeSpec(d=1, L=8, lam=(), m=1.0)

    @pytest.mark.parametrize("fields,message", [
        (dict(m=math.nan), "non-finite site mass m"),
        (dict(m=math.inf), "non-finite site mass m"),
        (dict(m=-math.inf), "non-finite site mass m"),
        (dict(lam=(-math.inf,)), "non-finite spring constant in lam"),
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
            assert math.isfinite(max_group_velocity(spec))


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

    @pytest.mark.parametrize("d,k", [(1, (0.5, 0.5)), (2, 0.5), (2, (0.5, 0.5, 0.5)),
                                     (3, ())])
    def test_refuses_wavevector_of_wrong_length(self, d, k):
        spec = LatticeSpec(d=d, L=8, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match=f"^wavevector must have {d} component"):
            dispersion(spec, k)

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
        # compared as omega^2: the square root of a zero mode would turn an
        # eps-sized eigvalsh error into one of ~1e-8, whose bits vary by kernel
        disp2 = np.sort([dispersion(spec, k) ** 2 for k in ks])
        w2, scale = squared_eigenfrequency_oracle(spec)
        assert np.abs(disp2 - w2).max() < 64 * scale

    @pytest.mark.parametrize("d,L", [(1, 1), (1, 2), (1, 3), (1, 16), (1, 31),
                                     (2, 2), (2, 5), (2, 8), (3, 3), (3, 4)])
    @pytest.mark.parametrize("lam", [(1.0,), (0.3, 1.1, 0.7), (0.1, 0.2, 0.7, 1e-3, 3.3)])
    def test_coupling_matrix_is_the_bond_loop_bit_for_bit(self, d, L, lam):
        # the circulant's stencil adds each site's bonds in the loop's order,
        # wrap-around bonds at L <= 2j included
        spec = LatticeSpec(d=d, L=L, lam=lam, m=1.3)
        K = coupling_matrix(spec)
        assert K.shape == (spec.n_sites, spec.n_sites)
        np.testing.assert_array_equal(K, bond_coupling_matrix(spec))

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


# (d, lam, m): unit-scale couplings, couplings whose first terms are zero,
# and log-spaced couplings and masses across 1e-100..1e100
CLOSED_FORM_CASES = [
    (1, (1.0,), 1.0), (1, (1.0, 1.0), 0.7), (2, (0.8, 0.3), 1.1),
    (3, (1.0,), 1.0), (3, (1.2, 0.4), 0.9),
    *((d, lam, 0.8) for d in (1, 2, 3)
      for lam in ((0.0, 1.0, 0.0, 0.5), (0.0, 0.0, 0.0, 4.0))),
    *((d, (lam, 0.3 * lam), m) for d in (1, 2, 3)
      for lam in np.geomspace(1e-100, 1e100, 5).tolist()
      for m in np.geomspace(1e-100, 1e100, 3).tolist())]


class TestGroupVelocity:
    def test_nearest_neighbor_unit(self):
        spec = LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0)
        assert max_group_velocity(spec) == 1.0

    def test_decoupled_limit(self):
        spec = LatticeSpec(d=1, L=16, lam=(1e-30,), m=1.0)
        assert max_group_velocity(spec) == pytest.approx(0.0, abs=1e-12)

    def test_two_range_chain_against_numerical_gradient(self):
        spec = LatticeSpec(d=1, L=16, lam=(1.0, 1.0), m=1.0)
        k = np.linspace(1e-8, math.pi, 400001)
        omega = np.sqrt(4.0 * (np.sin(k / 2) ** 2 + np.sin(k) ** 2))
        oracle = np.abs(np.gradient(omega, k)).max()
        gv = max_group_velocity(spec)
        assert gv == pytest.approx(oracle, rel=1e-5)
        assert gv == pytest.approx(math.sqrt(5.0), rel=1e-15)

    def test_longwave_slope_independent_of_d(self):
        lam, m = (0.8, 0.3), 1.1
        slopes = []
        for d in (1, 2, 3):
            spec = LatticeSpec(d=d, L=8, lam=lam, m=m)
            q = 1e-7
            slopes.append(dispersion(spec, (q,) + (0.0,) * (d - 1)) / q)
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-9)
        assert slopes[0] == pytest.approx(slopes[2], rel=1e-9)
        assert slopes[0] == pytest.approx(max_group_velocity(
            LatticeSpec(d=1, L=8, lam=lam, m=m)), rel=1e-6)

    @pytest.mark.parametrize("d,lam,m", CLOSED_FORM_CASES)
    def test_closed_form_bounds_the_full_grid(self, d, lam, m):
        # |grad omega| <= sqrt(sum_j lam_j j^2 / m) at every k, with equality
        # as k -> 0: the grid, whose points stop pi/(2n) short of 0, comes
        # within 1e-3 below it and rounds at most 4 ulps above it
        spec = LatticeSpec(d=d, L=8, lam=lam, m=m)
        v = max_group_velocity(spec)
        weight = 0
        for j, l in enumerate(lam, start=1):   # left to right, as sum() before 3.12
            weight += l * j * j
        assert v == math.sqrt(weight / m)
        assert v * (1.0 - 1e-3) <= full_grid_group_velocity(spec) <= v + 4 * math.ulp(v)

    @pytest.mark.parametrize("d,lam,m,v", [
        # the grid search returned its rounding above the supremum:
        # 1.379313687477431, 3.849931087076416e-162 and 1.0000016063443872e-155
        (1, (0.0, 0.0, 0.0, 0.5269764022209877), 4.4318500621742425, 1.3793136874774308),
        (3, (5e-324,), 1.0, 2.2227587494850775e-162),
        (1, (1e-310,), 1.0, 9.999999999999986e-156),
    ])
    def test_no_grid_rounding_above_the_supremum(self, d, lam, m, v):
        assert max_group_velocity(LatticeSpec(d=d, L=8, lam=lam, m=m)) == v

    def test_coupling_sums_keep_their_bits_on_every_python(self, monkeypatch):
        # Python 3.12 made sum() of floats compensated: under 3.12 these sums
        # give 0x1.0399999999999p+5 and 0x1.1b448dc97500dp+4. The couplings
        # are added left to right, whose bits are those of sum() in 3.11
        def refuse(*args):
            raise AssertionError("a coupling sum went through sum()")

        monkeypatch.setattr(lattice, "sum", refuse, raising=False)
        lam = (1.89, 2.24, 2.4)
        assert lattice.second_moment(lam).hex() == "0x1.039999999999ap+5"
        assert lr_speed(3, lam, 1.0).hex() == "0x1.1b448dc97500cp+4"

    def test_bound_exceeds_measured_speed_by_factor_four_nn(self):
        spec = LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0)
        assert lr_speed(spec.d, spec.lam, spec.m) == pytest.approx(4.0, rel=1e-15)
        assert max_group_velocity(spec) < lr_speed(spec.d, spec.lam, spec.m)

    def test_rejects_infinite_physical_velocity(self):
        # 2 sites/s times a = 1e308 leaves the float range
        gv = max_group_velocity(LatticeSpec(d=1, L=16, lam=(4.0,), m=1.0))
        assert gv == 2.0
        with pytest.raises(LatticeError, match=re.escape(
                "physical group velocity overflows at a=1e+308")):
            physical_velocity(1e308, gv, "group velocity")
        assert physical_velocity(5e307, gv, "group velocity") == 2.0 * 5e307


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
        # the commutator norm evolves its probe with the spectral propagator
        spec = LatticeSpec(d=1, L=4, lam=(1.0,), m=1.0)
        f, g = WeylFunction({0: 1.0}), WeylFunction({1: 1j})
        with pytest.raises(LatticeError, match="time must be finite"):
            weyl_commutator_norm(spec, f, g, t)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_propagator_class_rejects_non_finite_time(self, t):
        spec = LatticeSpec(d=1, L=4, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match="time must be finite"):
            SymplecticPropagator(spec, t)

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
        with pytest.raises(LatticeError, match="dense propagator capped at 512 sites"):
            SymplecticPropagator(spec, 1.0).matrix()


class TestVerifyLatticeSuite:
    def test_dense_check_calls_and_verdicts(self, monkeypatch):
        """The suite's dense check diagonalizes each case's K once and scans
        its signal once; every check passes on a correct build."""
        calls = []
        eigh, signal = np.linalg.eigh, lattice.axis_signal

        def counted_eigh(a):
            calls.append(("eigh", a.shape))
            return eigh(a)

        def counted_signal(spec, dt, steps, r_max):
            calls.append(("axis_signal", spec.n_sites))
            return signal(spec, dt, steps, r_max)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(lattice, "axis_signal", counted_signal)
        checks = verify.lattice_suite()
        sizes = [spec.n_sites for spec, *_ in verify.DENSE_CASES]
        assert calls[:2 * len(sizes)] == [
            call for n in sizes for call in (("eigh", (n, n)), ("axis_signal", n))]
        assert len(checks) == 4
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

    @pytest.mark.parametrize("d,amps,message", [
        (1, {(0, 0): 1.0}, "site (0, 0) has wrong dimension"),
        (2, {0: 1.0}, "site (0,) has wrong dimension"),
        (2, {(0, 1, 0): 1.0}, "site (0, 1, 0) has wrong dimension"),
        (1, {0: complex(math.nan, 0.0)}, "non-finite amplitude"),
        (2, {(1, 1): complex(0.0, math.inf)}, "non-finite amplitude"),
    ])
    def test_rejects_wrong_site_dimension_or_non_finite_amplitude(self, d, amps, message):
        spec = LatticeSpec(d=d, L=4, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
            weyl_commutator_norm(spec, WeylFunction(amps),
                                 WeylFunction({(0,) * d: 1.0}), 0.0)

    @pytest.mark.parametrize("d,site", [(1, True), (1, np.True_), (1, (0.5,)),
                                        (2, (1, False)), (1, "0")])
    def test_rejects_site_that_is_not_integer_indices(self, d, site):
        # a bool was read as site 1 and a float raised a TypeError
        spec = LatticeSpec(d=d, L=4, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match=r"^site .* must hold integer indices$"):
            WeylFunction({site: 1.0}).vectors(spec)

    @pytest.mark.parametrize("d,site,plain", [(1, np.int64(2), 2),
                                              (2, (np.int64(2), np.uint8(3)), (2, 3))])
    def test_accepts_numpy_integer_sites(self, d, site, plain):
        spec = LatticeSpec(d=d, L=4, lam=(1.0,), m=1.0)
        np.testing.assert_array_equal(WeylFunction({site: 1.0 + 2.0j}).vectors(spec),
                                      WeylFunction({plain: 1.0 + 2.0j}).vectors(spec))

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

    @pytest.mark.parametrize("dist", [-1.0, -5e-324, -math.inf])
    def test_refuses_negative_distance(self, dist):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match="^negative distance$"):
            lr_bound_envelope(spec, LRBoundParams(1.0, 1.0), dist, 0.0)

    def test_cone_constant(self):
        spec = LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
        assert lr_speed(spec.d, spec.lam, spec.m) / 4.0 == pytest.approx(1.0, rel=1e-15)
        spec3 = LatticeSpec(d=3, L=8, lam=(1.0, 2.0), m=1.0)
        assert lr_speed(spec3.d, spec3.lam, spec3.m) / 4.0 == pytest.approx(3.0, rel=1e-15)
        # the envelope's cone: c * max(2/mu, e^(mu/2 + 1)) * |t| = 3 * e^2 at mu = 2
        assert lr_bound_envelope(spec3, LRBoundParams(1.0, 2.0), 0.0, -1.0) == \
            pytest.approx(math.exp(2.0 * 3.0 * math.exp(2.0)), rel=1e-12)

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
    @pytest.mark.parametrize("case", SIGNAL_CASES, ids=lambda case: case.id)
    def test_matches_per_step_ifftn(self, case):
        # each row reaches the layout regime its id names (many blocks, orbit
        # tiles, mirror pairs folded or not), and together they cover the
        # orbits of each grid. The signal is stored time-major in r order
        _, spec, dt, steps, r_max = case
        signal = axis_signal(spec, dt, steps, r_max)
        assert signal.shape == (steps, r_max + 1) and signal.flags.c_contiguous
        np.testing.assert_allclose(signal, ifftn_axis_signal(spec, dt, steps, r_max),
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

    @given(d=st.integers(1, 3), L=st.integers(4, 9), lam=st.floats(0.05, 5.0),
           m=st.floats(0.1, 10.0), dt=st.floats(-0.3, 0.3), steps=st.integers(100, 300))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_step_ifftn_across_blocks(self, d, L, lam, m, dt, steps):
        # scans of up to two full blocks and a shorter last one, all
        # interpolated from the same nodes or all computed row by row
        spec = LatticeSpec(d=d, L=L, lam=(lam,), m=m)
        np.testing.assert_allclose(axis_signal(spec, dt, steps, L - 1),
                                   ifftn_axis_signal(spec, dt, steps, L - 1),
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
        # out to t = 220 in 9 blocks of 128 steps; the images J_2(L-r) have
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

    def test_orbit_build_allocates_less_than_the_folded_weights(self):
        # one step at 3D L=64, r_max = 63: W is built 1,024 rows at a time
        # (512 KB, and as much for the term each further axis adds), so the
        # whole call, with the 6,545 index tuples, their mirrors and
        # per-orbit vectors, stays below the bytes of the folded weights
        # alone, (6,545 + 17) / 2 rows of 64 columns
        spec = LatticeSpec(d=3, L=64, lam=(1.0,), m=1.0)
        peak = traced_peak(lambda: axis_signal(spec, 0.05, 1, 63))
        assert peak <= (6545 + 17) // 2 * 64 * 8

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

    def test_weight_matrix_capped_before_building(self):
        # 3D L=256, r_max = 127: the folded weights alone would take 187 MB
        spec = LatticeSpec(d=3, L=256, lam=(1.0,), m=1.0)
        message = re.escape("the orbit weight matrix needs 23437440 array entries")
        assert traced_peak(lambda: axis_signal(spec, 0.02, 2001, 127), message) <= 2 ** 16


class TestLightCone:
    def test_rejects_small_lattice(self):
        # the wrap-around margin L >= 2*nu + 2, checked before anything else:
        # threshold, t_max and r_max are out of range too
        for L, lam in ((4, (1.0, 1.0)), (3, (1.0,)), (2, (1.0,))):
            spec = LatticeSpec(d=1, L=L, lam=lam, m=1.0)
            with pytest.raises(LatticeError, match="L too small for range"):
                measure_light_cone(spec, threshold=2.0, t_max=-1.0, r_max=0)

    def test_rejects_infinite_physical_velocity(self):
        # the scan speaks sites/s whatever the spacing; its m/s is one product
        spec = LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0)
        fitted = measure_light_cone(spec, threshold=1e-3, t_max=5.0,
                                    r_max=7).fitted_velocity_lattice
        assert fitted > 1.8
        with pytest.raises(LatticeError, match=re.escape(
                "physical fitted velocity overflows at a=1e+308")):
            physical_velocity(1e308, fitted, "fitted velocity")
        assert physical_velocity(1e300, fitted, "fitted velocity") == fitted * 1e300

    def test_nearest_neighbor_velocity(self):
        spec = LatticeSpec(d=1, L=200, lam=(1.0,), m=1.0)
        scan = measure_light_cone(spec, threshold=1e-3, t_max=100.0,
                                  r_max=90, dt=0.05)
        gv = max_group_velocity(spec)
        assert scan.fitted_velocity_lattice == pytest.approx(gv, rel=0.10)
        assert scan.fitted_velocity_lattice < lr_speed(spec.d, spec.lam, spec.m)

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
        np.testing.assert_array_equal(scan.r, np.arange(1, 21))
        assert len(scan.t_arrival) == len(scan.peak) == 20
        assert (scan.peak > 0).all()
        assert not np.isnan(scan.t_arrival).any()
        assert (np.diff(scan.t_arrival) >= 0).all()

    def test_no_arrival_reported_for_decoupled_lattice(self):
        spec = LatticeSpec(d=1, L=64, lam=(1e-30,), m=1.0)
        with pytest.raises(LatticeError, match="not enough arrivals"):
            measure_light_cone(spec, threshold=1e-3, t_max=5.0, r_max=10, dt=0.5)

    def test_r_max_guard(self):
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match="wrap-around"):
            measure_light_cone(spec, threshold=1e-3, t_max=5.0, r_max=40)

    @pytest.mark.parametrize("fit_r_min", [190, 250, 0, -5])
    def test_fit_r_min_checked_against_r_max_before_the_scan(self, fit_r_min):
        # the scan would hold 2.76 MB of node rows; below 1, fit_r_min would
        # fit the same distances as fit_r_min = 1, so it is refused by name too
        spec = LatticeSpec(d=1, L=400, lam=(1.0,), m=1.0)
        message = (f"fit_r_min must be >= 1, got {fit_r_min}" if fit_r_min < 1
                   else f"fit_r_min = {fit_r_min} leaves fewer than two distances "
                   r"to fit \(r_max = 190\)")
        assert traced_peak(lambda: measure_light_cone(
            spec, 1e-3, 220.0, 190, dt=0.02, fit_r_min=fit_r_min), message) <= 2 ** 16

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
        (dict(t_max=1e9, dt=1e-3), "light-cone node rows need .* above the cap"),
        (dict(t_max=1.0, dt=5e-324), "light-cone node rows need inf array entries"),
        (dict(t_max=1e308, dt=4e307), r"phase omega_max\*steps\*\|dt\| of the "
                                      "time signal = .* leaves the float range"),
        (dict(t_max=1.7e308, dt=1e308), r"t_max \+ dt = 1\.7e\+308 \+ 1e\+308 "
                                        "overflows a float"),
    ])
    def test_rejects_bad_time_grid(self, kwargs, message):
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match=message):
            measure_light_cone(spec, threshold=1e-3, r_max=10, **kwargs)

    def test_automatic_dt_checks_the_mode_grid_before_building_it(self, monkeypatch):
        # the automatic dt reads omega_max from one axis, the L^d mode grid's
        # maximum. At 3D L=256 (orbit weights of 187 MB) the orbit check
        # refuses before that axis is read, and so before any orbit is built
        spec = LatticeSpec(d=3, L=40, lam=(1.0, 0.3), m=1.0)
        dt = 0.2 / normal_modes(spec).max()

        def no_grid(*args):
            raise AssertionError("mode grid or axis built before the size check")

        scan = measure_light_cone(spec, threshold=1e-3, t_max=1.0, r_max=10)
        assert scan.dt == dt
        monkeypatch.setattr(lattice, "omega_max", no_grid)
        spec = LatticeSpec(d=3, L=256, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError,
                           match="orbit weight matrix needs 23437440 array entries"):
            measure_light_cone(spec, threshold=1e-3, t_max=40.0, r_max=127)

    def test_fit_diagnostics(self):
        # at t_max = 2 the far distances never leave the noise floor
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        scan = measure_light_cone(spec, threshold=1e-3, t_max=2.0, r_max=20,
                                  dt=0.01)
        arrived = ~np.isnan(scan.t_arrival)
        missing = scan.r[~arrived]
        assert len(missing) and missing[-1] == 20
        t, r = scan.t_arrival[arrived], scan.r[arrived]
        slope, intercept = np.polyfit(t, r, 1)
        assert scan.fitted_velocity_lattice == pytest.approx(slope, rel=1e-9)
        assert scan.fit_intercept == pytest.approx(intercept, rel=1e-9, abs=1e-9)
        rms = math.sqrt(np.mean((r - slope * t - intercept) ** 2))
        assert scan.fit_residual == pytest.approx(rms, rel=1e-9, abs=1e-12)

    def test_2d_axis_cone_below_2d_bound(self):
        spec = LatticeSpec(d=2, L=32, lam=(1.0,), m=1.0)
        scan = measure_light_cone(spec, threshold=0.1, t_max=20.0,
                                  r_max=12, dt=0.05)
        assert scan.fitted_velocity_lattice < lr_speed(spec.d, spec.lam, spec.m)
        assert lr_speed(spec.d, spec.lam, spec.m) == pytest.approx(4.0 * math.sqrt(2.0),
                                                        rel=1e-12)


class TestLightConeRows:
    """Columns of ``measure_light_cone`` against ``full_signal_rows``, which
    takes the commutator norm of every signal entry, compared entry by entry."""

    @pytest.mark.parametrize("d,L,lam,m,threshold,t_max,r_max,dt", [
        (1, 400, (1.0,), 1.0, 1e-3, 220.0, 190, 0.02),
        (1, 400, (1.0, 1.0), 1.0, 1e-3, 110.0, 190, 0.02),
        (2, 64, (1.0,), 1.0, 0.1, 45.0, 30, 0.02),
        (3, 32, (0.8, 0.3), 1.1, 1e-3, 20.0, 14, 0.02),
    ])
    def test_committed_scans(self, d, L, lam, m, threshold, t_max, r_max, dt):
        spec = LatticeSpec(d=d, L=L, lam=lam, m=m)
        scan = measure_light_cone(spec, threshold, t_max, r_max, dt)
        assert_cone_columns(scan, full_signal_rows(spec, threshold, t_max, r_max, dt))

    @given(d=st.integers(1, 3), nu=st.integers(1, 3), extra=st.integers(0, 12),
           lam=st.lists(st.floats(0.05, 5.0), min_size=3, max_size=3),
           m=st.floats(0.1, 10.0), threshold=st.sampled_from([1e-6, 1e-3, 0.1, 0.5, 0.99]),
           t_max=st.floats(0.5, 30.0), dt=st.floats(0.01, 0.5))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_seeded_specs(self, d, nu, extra, lam, m, threshold, t_max, dt):
        spec = LatticeSpec(d=d, L=2 * nu + 4 + extra, lam=tuple(lam[:nu]), m=m)
        r_max = spec.L // 2 - nu
        try:
            scan = measure_light_cone(spec, threshold, t_max, r_max, dt)
        except LatticeError as exc:  # too few arrivals to fit
            assert "not enough arrivals" in str(exc)
            return
        assert_cone_columns(scan, full_signal_rows(spec, threshold, t_max, r_max, dt))

    @pytest.mark.parametrize("d,L,lam,m,dt,steps,r_max", [
        (1, 40, (1.0, 0.3), 0.8, 0.37, 50, 18), (1, 400, (1.0, 0.3), 0.8, 0.37, 600, 198),
        (2, 64, (1.0, 0.3), 0.8, 0.37, 513, 30), (3, 32, (1.0, 0.3), 0.8, 0.37, 300, 14),
        (2, 128, (1.0, 0.3), 0.8, 0.37, 300, 62),
        (1, 40, (1.0,), 1.0, 0.1, 150, 10), (1, 120, (1.0,), 1.0, 0.1, 150, 59)],
        ids=["one-block", "folded-one-tile-short-last-block", "3-tiles-one-step-last-block",
             "4-tiles", "folded-9-tiles", "unfolded-1d-L40", "folded-1d-L120"])
    def test_block_and_tile_shapes(self, d, L, lam, m, dt, steps, r_max):
        # one block or many, one orbit tile or several that add into a block
        # before its maximum is read, unfolded and folded
        spec = LatticeSpec(d=d, L=L, lam=lam, m=m)
        t_max = (steps - 1) * dt
        scan = measure_light_cone(spec, 1e-3, t_max, r_max, dt)
        assert_cone_columns(scan, full_signal_rows(spec, 1e-3, t_max, r_max, dt))

    def test_scan_allocates_no_signal_sized_temporary(self):
        # the scan keeps 86 blocks of 21 node rows (2.76 MB) and reads the
        # blocks it needs one product at a time: the 16.8 MB signal, or any
        # array of its steps, fails this
        spec = LatticeSpec(d=1, L=400, lam=(1.0,), m=1.0)
        peak = traced_peak(lambda: measure_light_cone(spec, 1e-3, 220.0, 190, dt=0.02))
        assert peak <= 86 * 21 * 191 * 8 + 2 ** 20

    def test_2d_scan_allocates_no_signal_sized_temporary(self):
        # 20,001 steps at 2D L=64: 157 blocks of 24 node rows (0.93 MB)
        # beside the tile arrays, where the signal would take 4.96 MB
        spec = LatticeSpec(d=2, L=64, lam=(1.0,), m=1.0)
        peak = traced_peak(lambda: measure_light_cone(spec, 0.1, 400.0, 30, dt=0.02))
        assert peak <= 157 * 24 * 31 * 8 + 2 ** 20

    def test_interpolated_signal_holds_no_node_rows_beside_it(self):
        # at dt = 0.5 each 128-step block has 119 nodes: they are built in
        # the block's first steps of the returned signal and expanded there,
        # so the call holds the 16.8 MB signal and the tile arrays, not a
        # second array of node rows beside it (32.7 MB traced when it did)
        spec = LatticeSpec(d=1, L=400, lam=(1.0,), m=1.0)
        steps, r_max = 11001, 190
        peak = traced_peak(lambda: axis_signal(spec, 0.5, steps, r_max))
        assert peak <= steps * (r_max + 1) * 8 + 2 ** 21

    def test_3d_scan_allocates_signal_orbit_vectors_and_block_budgets(self):
        # 6,545 orbits in 17 tiles of 409 rows: over the whole call the scan
        # holds the signal, the orbit vectors (index tuples, omega and
        # weights, 5 x 8 bytes per orbit) and two 512 KB budgets: one for
        # the node arrays that every tile shares, one for a tile's W (102 KB
        # here), the term each further axis adds to it, a tile's product and
        # numpy's 64 KB ufunc buffer. W is never whole: its 1.68 MB, held
        # through the scan, fails this bound
        spec = LatticeSpec(d=3, L=64, lam=(1.0,), m=1.0)
        steps, r_max, orbits = 2000, 31, math.comb(32 + 3, 3)
        peak = traced_peak(lambda: axis_signal(spec, 0.05, steps, r_max))
        assert peak <= steps * (r_max + 1) * 8 + orbits * 5 * 8 + 2 ** 19 + 2 ** 19


class TestCausalityTail:
    @pytest.mark.parametrize("d,L,lam", [(1, 200, (1.0,)), (2, 32, (1.0,))])
    def test_commutator_negligible_outside_bound_cone(self, d, L, lam):
        spec = LatticeSpec(d=d, L=L, lam=lam, m=1.0)
        v_bound = lr_speed(spec.d, spec.lam, spec.m)
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
