import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qram_bounds import bounds, cli, lattice
from qram_bounds.bounds import (BoundError, FixedPointError, capacity, coarse_grain,
                                fixed_point_solve, naive_max_qubits, qft_velocity,
                                qram_max_qubits)
from qram_bounds.lattice import lr_speed, physical_velocity
from qram_bounds.params import Conventions, HardwareParams, ParamsError, density


def make_params(**overrides):
    base = dict(a=1e-6, delta_t=1e-3, g1=2000 * math.pi, g2=2000 * math.pi,
                lam=(1.0,), m=1.0, d=1)
    base.update(overrides)
    return HardwareParams(**base)


# --- independent oracle: locate the largest root of N - R*log(N)^p by a
# --- log-grid sign scan, then refine by bisection

def scan_largest_root(R, p, log10_hi=40.0, grid=20000, log10_lo=0.01):
    logf = math.log
    Ns = np.logspace(log10_lo, log10_hi, grid)
    f = np.array([N - R * logf(N) ** p for N in Ns])
    sign_changes = np.nonzero(np.diff(np.sign(f)) != 0)[0]
    if len(sign_changes) == 0:
        return None
    i = sign_changes[-1]
    lo, hi = Ns[i], Ns[i + 1]
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if (mid - R * logf(mid) ** p) * (lo - R * logf(lo) ** p) <= 0:
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


def root_threshold(p, log_base="natural"):
    """Smallest R with a root of N = R log^p N: (e/p)^p, times (ln 2)^p for
    log base 2."""
    return (math.e / p) ** p * (math.log(2.0) ** p if log_base == "2" else 1.0)


def lr_physical(params):
    """The m/s Lieb-Robinson velocity that the bound reads for ``params``,
    with the c_max cap lifted to the largest float."""
    return bounds.capped_velocity(replace(params, c_max=sys.float_info.max),
                                  "lieb_robinson")


class TestLrVelocity:
    def test_1d_unit(self):
        assert lr_speed(1, (1.0,), 1.0) == pytest.approx(4.0, rel=1e-15)

    def test_3d_sqrt3(self):
        v = lr_speed(3, (1.0,), 1.0)
        assert v == pytest.approx(4 * math.sqrt(3), rel=1e-12)

    def test_decoupled_limit(self):
        v = lr_speed(1, (1e-30,), 1.0)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_physical_scales_with_spacing(self):
        v = lr_speed(1, (1.0,), 1.0)
        assert lr_physical(make_params(a=2.0)) == pytest.approx(2.0 * v, rel=1e-15)
        assert physical_velocity(2.0, v, "Lieb-Robinson velocity") == 2.0 * v

    @pytest.mark.parametrize("d,lam,m", [(1, (1.0,), 1.0), (2, (0.7, 1.3), 0.9),
                                         (3, (0.3, 1.1, 0.7), 2.1)])
    def test_one_formula_with_the_lattice_bound(self, d, lam, m):
        params = make_params(lam=lam, m=m, d=d)
        v = lr_speed(d, lam, m)
        assert lr_physical(params) == physical_velocity(
            params.a, v, "Lieb-Robinson velocity") == params.a * v
        # the cone slope of lr_bound_envelope
        assert v / 4.0 == math.sqrt(d * sum(lam) / m)

    def test_refuses_physical_velocity_out_of_float_range(self):
        # 4e150 sites/s is finite; times a = 1e160 it is not
        params = make_params(a=1e160, lam=(1e300,), c_max=1e300)
        with pytest.raises(lattice.LatticeError, match=re.escape(
                "physical Lieb-Robinson velocity overflows at a=1e+160")):
            lr_physical(params)
        v = lr_physical(make_params(a=1e150, lam=(1e300,), c_max=1e300))
        assert v == 1e150 * lr_speed(1, (1e300,), 1.0)

    def test_unbounded_velocity_of_vanishing_mass_passes_to_the_cap(self):
        # d * sum(lam) / m overflows, but 4 / sqrt(5e-324) ~ 1.8e162 does not:
        # the roots are taken apart (it was +inf), and qram_max_qubits caps
        # the finite velocity at c_max
        v = lr_speed(1, (1.0,), 5e-324)
        assert v == 4.0 / math.sqrt(5e-324)
        assert lr_physical(make_params(m=5e-324)) == 1e-6 * v
        assert qram_max_qubits(make_params(m=5e-324), Conventions()).velocity_used == 3e8
        # lam = 1e308 at d = 2: d * sum(lam) overflows before the division
        v = lr_speed(2, (1e308,), 1.0)
        assert v == pytest.approx(4.0 * math.sqrt(2.0) * 1e154, rel=1e-15)

    @pytest.mark.parametrize("d,lam,m", [(1, (1e308,), 5e-324),
                                         (3, (1e308, 1e308), 1e-310)])
    def test_refuses_speed_past_the_float_range(self, d, lam, m):
        with pytest.raises(lattice.LatticeError, match=re.escape(
                f"Lieb-Robinson speed overflows a float at d={d}, lam={lam!r}")):
            lr_physical(make_params(lam=lam, m=m, d=d))
        with pytest.raises(lattice.LatticeError, match="Lieb-Robinson speed"):
            lr_speed(d, lam, m)

    @pytest.mark.parametrize("d", [2, 3])
    def test_sqrt_d_scaling(self, d):
        lam, m = (0.7, 1.3), 0.9
        assert lr_speed(d, lam, m) / lr_speed(1, lam, m) == pytest.approx(
            math.sqrt(d), rel=1e-12)


class TestCoarseGrain:
    def test_single_coupling(self):
        assert coarse_grain(make_params(lam=(2.0,), a=0.5)) == pytest.approx(1.0)

    def test_two_couplings_weighted_j_squared(self):
        p = make_params(lam=(1.0, 1.0), a=1.0)
        assert coarse_grain(p) == pytest.approx(5.0, rel=1e-15)

    def test_dimension_factor(self):
        assert coarse_grain(make_params(lam=(3.0,), a=1.0, d=2)) == pytest.approx(6.0)

    @pytest.mark.parametrize("d,expected", [(1, 2.0), (2, 2.0), (3, 1.5)])
    def test_spacing_enters_as_a_to_the_two_minus_d(self, d, expected):
        assert coarse_grain(make_params(lam=(1.0,), a=2.0, d=d)) == \
            pytest.approx(expected, rel=1e-15)

    def test_refuses_stiffness_out_of_float_range(self):
        # 2 * 1 * 1e308 overflows although a^(2-d) = 1 does not
        with pytest.raises(BoundError, match="continuum stiffness overflows a "
                           r"float at a=5e-324, lam=\(1e\+308,\)"):
            coarse_grain(make_params(lam=(1e308,), a=5e-324, d=2))


class TestQftVelocity:
    def test_direct(self):
        assert qft_velocity(4.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_no_stiffness(self):
        assert qft_velocity(0.0, 1.0) == 0.0

    def test_unit_chain_matches_group_velocity(self):
        p = make_params(a=1.0)
        assert qft_velocity(coarse_grain(p), density(p)) == pytest.approx(1.0, rel=1e-12)

    def test_overflowing_quotient_takes_the_roots_apart(self):
        # 1 / 5e-324 overflows; sqrt(1) / sqrt(5e-324) ~ 4.5e161 does not
        assert qft_velocity(1.0, 5e-324) == 1.0 / math.sqrt(5e-324)
        assert qft_velocity(4.0, 1.0) == 2.0     # the direct form where it is finite
        with pytest.raises(BoundError, match=re.escape(
                "continuum speed overflows a float at stiffness 1e+308, "
                "density 5e-324")):
            qft_velocity(1e308, 5e-324)

    def test_rejects_nonpositive_density(self):
        with pytest.raises(BoundError, match="density"):
            qft_velocity(1.0, 0.0)

    @pytest.mark.parametrize("lambda_d,rho", [(math.inf, 1.0), (1.0, math.nan),
                                              (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_non_finite_inputs(self, lambda_d, rho):
        # nan and inf passed the sign checks and came back as nan or inf
        with pytest.raises(BoundError, match="non-finite stiffness"):
            qft_velocity(lambda_d, rho)

    @pytest.mark.parametrize("d", [2, 3])
    def test_sqrt_d_scaling(self, d):
        lam, m = (0.7, 1.3), 0.9
        p1 = make_params(lam=lam, m=m, d=1, a=1.0)
        pd = make_params(lam=lam, m=m, d=d, a=1.0)
        v1 = qft_velocity(coarse_grain(p1), density(p1))
        vd = qft_velocity(coarse_grain(pd), density(pd))
        assert vd / v1 == pytest.approx(math.sqrt(d), rel=1e-12)


class TestFixedPointSolve:
    def test_p0_returns_ratio(self):
        assert fixed_point_solve(10.0, 0) == 10.0

    def test_naive_scale(self):
        N = fixed_point_solve(3e11, 1)
        assert N == pytest.approx(8946691473636.3, rel=1e-9)
        assert N == pytest.approx(scan_largest_root(3e11, 1), rel=1e-8)

    def test_quadratic_depth(self):
        N = fixed_point_solve(6e6, 2)
        assert N == pytest.approx(2843118674.738, rel=1e-9)
        assert N == pytest.approx(scan_largest_root(6e6, 2), rel=1e-8)

    def test_log2_base(self):
        N = fixed_point_solve(1e6, 1, log_base="2")
        assert abs(N - 1e6 * math.log2(N)) / N < 1e-10

    @given(R=st.floats(1e2, 1e12), p=st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_residual_property(self, R, p):
        N = fixed_point_solve(R, p)
        assert abs(N - R * math.log(N) ** p) / N < 1e-10

    def test_tangency_has_no_larger_root(self):
        # N = e*ln(N) only touches at N = e; the scan finds no crossing
        # above it and the solve refuses the tangency
        assert scan_largest_root(math.e * (1 + 1e-9), 1, log10_hi=2.0) is not None
        Ns = np.linspace(math.e * 1.0001, 100.0, 100000)
        f = Ns - math.e * np.log(Ns)
        assert f.min() > 0.0
        with pytest.raises(FixedPointError, match="double root"):
            fixed_point_solve(math.e, 1)

    @pytest.mark.parametrize("R,p,small,large", [
        (0.8, 3, 10.9, 40.8), (0.9, 3, 7.8, 66.7), (0.3, 4, 13.0, 360.3)])
    def test_root_above_the_tangency_point_found(self, R, p, small, large):
        # base^2 lies below the small root here; the iteration starts at the
        # tangency point e^p, between the roots, and climbs to the large one
        N = fixed_point_solve(R, p)
        assert N == pytest.approx(large, abs=0.05)
        assert N == pytest.approx(scan_largest_root(R, p), rel=1e-9)
        assert scan_largest_root(R, p, log10_hi=math.log10(small * 1.01)) \
            == pytest.approx(small, abs=0.05)

    @pytest.mark.parametrize("log_base", ["natural", "2"])
    @pytest.mark.parametrize("p", [1, 4, 8])
    def test_converges_just_above_the_root_threshold(self, p, log_base):
        R = root_threshold(p, log_base) * (1 + 1e-9)
        N = fixed_point_solve(R, p, log_base)
        logf = math.log if log_base == "natural" else math.log2
        assert abs(N - R * logf(N) ** p) <= 1e-10 * N
        assert N >= math.exp(p)

    @pytest.mark.parametrize("log_base", ["natural", "2"])
    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_refuses_below_the_root_threshold_before_iterating(
            self, p, log_base, monkeypatch):
        # just below the threshold, p = 3 returned the tangency point e^3 =
        # 20.0855 as a root, and p = 1 ran 10^6 plain steps (~0.4 s) first;
        # with no plain steps allowed, only the refusal can name the threshold
        monkeypatch.setattr(bounds, "COLUMN_STEPS", 0)
        threshold = root_threshold(p, log_base)
        R = threshold * (1 - 1e-12)
        with pytest.raises(FixedPointError, match=re.escape(
                f"no fixed point above 1 for N = {R:g}*log^{p}(N): "
                f"R is below the root threshold {threshold:.10g}")):
            fixed_point_solve(R, p, log_base)

    @pytest.mark.parametrize("log_base", ["natural", "2"])
    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_iterates_from_the_root_threshold_up(self, p, log_base, monkeypatch):
        # the threshold itself is refused as a tangency; the next float above
        # it reaches the iteration and, after one plain step, the closed form
        threshold = root_threshold(p, log_base)
        with pytest.raises(FixedPointError, match="double root"):
            fixed_point_solve(threshold, p, log_base)
        monkeypatch.setattr(bounds, "COLUMN_STEPS", 1)
        N = fixed_point_solve(math.nextafter(threshold, math.inf), p, log_base)
        assert N == pytest.approx(math.exp(p), rel=1e-7)

    @pytest.mark.parametrize("log_base", ["natural", "2"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_refuses_the_threshold_as_a_tangency(self, p, log_base):
        # one rule at every p: p = 1 ran 10^6 steps and raised "no
        # convergence", p = 2 and 3 returned e^p; the column leaves the cell
        # to the scalar solve, so that a sweep refuses it as the point does
        threshold = root_threshold(p, log_base)
        with pytest.raises(FixedPointError, match=re.escape(
                f"N = {threshold:g}*log^{p}(N) has only a double root, at the "
                f"tangency point e^{p}: R is on the root threshold")):
            fixed_point_solve(threshold, p, log_base)
        R = np.array([threshold, 1e6 * threshold])
        columns = bounds.fixed_point_columns(R, p, log_base)
        assert math.isnan(columns[0])
        assert columns[1] == pytest.approx(fixed_point_solve(R[1], p, log_base), rel=1e-12)

    @pytest.mark.parametrize("log_base", ["natural", "2"])
    @pytest.mark.parametrize("p", range(1, 9))
    def test_closed_form_matches_lambert_w_oracle(self, p, log_base, monkeypatch):
        # after one plain step every solve finishes in closed form; against
        # exp(-p W_-1(z)) at 50 digits, z = -ln(base) R^(-1/p) / p with R the
        # float, it lies within 8 eps / (1 - lam), lam = p / ln N, which is
        # the conditioning of the root in R
        mpmath = pytest.importorskip("mpmath")
        closed_forms = []
        closed_form = bounds._closed_form
        monkeypatch.setattr(bounds, "COLUMN_STEPS", 1)
        monkeypatch.setattr(bounds, "_closed_form",
                            lambda *args: closed_forms.append(args) or closed_form(*args))
        threshold = root_threshold(p, log_base)
        rng = np.random.default_rng(p)
        strata = 30
        with mpmath.workdps(50):
            ln_base = mpmath.log(mpmath.e if log_base == "natural" else 2)
            for x in (-12.0 + 27.0 * (np.arange(strata) + rng.random(strata)) / strata).tolist():
                R = threshold * (1 + 10.0 ** x)
                z = -ln_base * mpmath.mpf(R) ** (mpmath.mpf(-1) / p) / p
                root = mpmath.exp(-p * mpmath.lambertw(z, -1).real)
                lam = p / float(mpmath.log(root))
                error = float(abs(fixed_point_solve(R, p, log_base) - root) / root)
                assert error <= 8 * sys.float_info.epsilon / (1 - lam), (R, error)
        assert len(closed_forms) == strata

    @given(p=st.integers(1, 8), x=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_scan_from_threshold_to_1e15(self, p, x):
        # R from threshold * (1 + 1e-6) up to 1e15, log-spaced in R/threshold - 1
        threshold = root_threshold(p)
        R = threshold * (1 + 1e-6 * ((1e15 / threshold - 1) / 1e-6) ** x)
        # the largest root lies at or above e^p, so the scan starts there;
        # from its default start, two roots 0.3% apart just above the
        # threshold could share one grid cell and show no sign change
        oracle = scan_largest_root(R, p, log10_lo=p / math.log(10.0))
        assert fixed_point_solve(R, p) == pytest.approx(oracle, rel=1e-8)

    def test_overflowing_root_named(self):
        with pytest.raises(FixedPointError, match="overflows a float"):
            fixed_point_solve(1.0, 200)
        with pytest.raises(FixedPointError, match="overflows a float"):
            fixed_point_solve(1.0, 1000)

    def test_pathological_small_ratio(self):
        with pytest.raises(FixedPointError, match="no fixed point"):
            fixed_point_solve(1.0, 1)
        # one rule at every p: at p = 0 the fixed point is R itself, so an
        # R at or below one qubit has none above 1
        for R in (1.0, 0.004, 5e-324, 0.0, -1.0):
            with pytest.raises(FixedPointError, match=re.escape(
                    f"no fixed point above 1 for N = {R:g}*log^0(N)")):
                fixed_point_solve(R, 0)
        assert fixed_point_solve(1.0 + 2.0 ** -52, 0) == 1.0 + 2.0 ** -52

    @pytest.mark.parametrize("log_base", ["ten", "e", "two", "Natural", 2])
    def test_refuses_unknown_log_base_by_name(self, log_base):
        # only the spellings that Conventions stores; "ten" once solved in base 2
        with pytest.raises(BoundError, match=re.escape(
                f"unknown log base {log_base!r} (use 'natural' or '2')")):
            fixed_point_solve(100.0, 2, log_base)

    def test_rejects_bad_inputs(self):
        with pytest.raises(BoundError):
            fixed_point_solve(-1.0, 1)
        for R in (math.nan, math.inf):
            with pytest.raises(BoundError, match="non-finite ratio R"):
                fixed_point_solve(R, 2)
        with pytest.raises(BoundError):
            fixed_point_solve(1.0, -2)


@st.composite
def column_ratios(draw, p, log_base):
    """R for ``fixed_point_columns``: jittered strata above the root
    threshold (R/threshold - 1 from 1e-12 up to 1e15, so some cells take
    more than COLUMN_STEPS steps), and edges that ``fixed_point_solve``
    refuses, the threshold's tangency among them."""
    threshold = root_threshold(p, log_base) if p else 1.0
    strata = st.sampled_from([(-12.0, -3.0), (-3.0, 0.0), (0.0, 15.0)])
    above = strata.flatmap(lambda s: st.floats(*s)).map(lambda x: threshold * (1 + 10.0 ** x))
    edges = st.sampled_from([threshold, threshold * (1 - 1e-12), threshold / 2, 1.0, 0.0,
                             -1.0, 5e-324, 1e308, math.inf, math.nan])
    return np.array(draw(st.lists(st.one_of(above, above, above, edges),
                                  min_size=1, max_size=40)))


class TestFixedPointColumns:
    @given(p=st.sampled_from([0, 1, 2, 3, 200, 1000]),
           log_base=st.sampled_from(["natural", "2"]), data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_agrees_with_the_scalar_solve_cut_at_column_steps(self, p, log_base, data):
        # a cell is NaN exactly where the scalar solve, cut at COLUMN_STEPS
        # plain steps (its closed form refused), refuses R; elsewhere both
        # stopped where the relative change fell to 1e-12, so each lies within
        # 1e-12 * lam / (1 - lam) of the root, lam = p / ln N being the
        # contraction of N <- R log^p N there, and they differ by at most twice that
        R = data.draw(column_ratios(p, log_base))
        columns = bounds.fixed_point_columns(R, p, log_base)

        def cut(*args):
            raise FixedPointError("cut at COLUMN_STEPS")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_closed_form", cut)
            for r, got in zip(R.tolist(), columns.tolist()):
                try:
                    want = fixed_point_solve(r, p, log_base)
                except BoundError:
                    assert math.isnan(got), r
                    continue
                lam = p / math.log(want)   # 1 at a tangency, where both stop at once
                bound = 2e-12 * lam / (1 - lam) if lam < 1 else 0.0
                assert abs(got - want) <= (bound + 4 * sys.float_info.epsilon) * want, r


class TestNaiveMaxQubits:
    def test_light_speed_micron_chain(self):
        assert naive_max_qubits(1e-6, 1e-3, 3e8) == pytest.approx(8.9e12, rel=0.02)

    def test_sound_speed(self):
        N = naive_max_qubits(1e-6, 1e-3, 6e3)
        assert N == pytest.approx(111158823.47, rel=1e-9)
        assert N == pytest.approx(scan_largest_root(6e6, 1), rel=1e-8)

    def test_tangency_inputs_error(self):
        with pytest.raises(FixedPointError):
            naive_max_qubits(1.0, 1.0, math.e)

    def test_rejects_nonpositive(self):
        with pytest.raises(BoundError, match="positive"):
            naive_max_qubits(0.0, 1.0, 1.0)
        # two negative inputs give a positive R, so the R check alone would pass them
        with pytest.raises(BoundError, match="^all inputs must be positive$"):
            naive_max_qubits(-1e-6, -1e-3, 3e8)

    @pytest.mark.parametrize("log_base", ["natural", "e", "2", "two"])
    def test_is_the_capacity_at_p1(self, log_base):
        # one capacity rule: the log base is spelled as in Conventions ("e"
        # was read as base 2), and R is refused by the capacity's message
        conv = Conventions(log_base=log_base, depth_exponent=1)
        assert (naive_max_qubits(1e-6, 1e-3, 3e8, log_base)
                == capacity(3e8, 1e-3, 1e-6, 1, conv)[0]
                == fixed_point_solve(3e8 * 1e-3 / 1e-6, 1, conv.log_base))
        with pytest.raises(ParamsError, match="^unknown log base '10'"):
            naive_max_qubits(1e-6, 1e-3, 3e8, "10")
        for a, delta_t, c in ((1e-300, 1e300, 1e300), (1e300, 1e-300, 1e-300),
                              (math.nan, 1.0, 1.0)):
            with pytest.raises(BoundError, match=re.escape(
                    "ratio R = v*tau0/a leaves the float range at "
                    f"v={c!r}, tau0={delta_t!r}, a={a!r}")):
                naive_max_qubits(a, delta_t, c, log_base)


class TestQramMaxQubits:
    def test_explicit_velocity_p0(self):
        r = qram_max_qubits(make_params(),
                            Conventions(depth_exponent=0, velocity_source=6000.0))
        assert r.max_linear_extent == pytest.approx(6e6, rel=1e-12)
        assert r.max_qubits_total == pytest.approx(6e6, rel=1e-12)

    def test_explicit_velocity_p2(self):
        r = qram_max_qubits(make_params(),
                            Conventions(depth_exponent=2, velocity_source=6000.0))
        assert r.max_linear_extent == pytest.approx(2843118674.738, rel=1e-9)
        assert r.max_linear_extent == pytest.approx(scan_largest_root(6e6, 2), rel=1e-8)

    def test_three_dimensions_sqrt_d(self):
        r = qram_max_qubits(make_params(d=3),
                            Conventions(depth_exponent=0, velocity_source=6000.0))
        assert r.max_linear_extent == pytest.approx(math.sqrt(3) * 6e6, rel=1e-12)
        assert r.max_qubits_total == pytest.approx(1.122e21, rel=1e-3)
        # consistent with the lattice-bound scaling between dimensions
        v3, v1 = lr_speed(3, (1.0,), 1.0), lr_speed(1, (1.0,), 1.0)
        assert r.max_linear_extent / 6e6 == pytest.approx(v3 / v1, rel=1e-12)

    def test_total_is_extent_power_d(self):
        for d in (1, 2, 3):
            r = qram_max_qubits(make_params(d=d),
                                Conventions(depth_exponent=2, velocity_source=5e3))
            assert r.max_qubits_total == pytest.approx(
                r.max_linear_extent ** d, rel=1e-12)
            assert r.max_linear_extent >= 1.0

    def test_velocity_sources_resolve(self):
        # g1 = g2 = pi gives tau0 = 2 s, so that every source's capacity
        # exceeds one qubit at p = 0
        p = make_params(a=1.0, g1=math.pi, g2=math.pi)
        for source in ("lieb_robinson", "qft", "group"):
            r = qram_max_qubits(p, Conventions(depth_exponent=0,
                                               velocity_source=source))
            assert r.velocity_used > 0
        r_lr = qram_max_qubits(p, Conventions(depth_exponent=0,
                                              velocity_source="lieb_robinson"))
        assert r_lr.velocity_used == pytest.approx(4.0, rel=1e-12)
        r_g = qram_max_qubits(p, Conventions(depth_exponent=0,
                                             velocity_source="group"))
        assert r_g.velocity_used == pytest.approx(1.0, rel=1e-9)
        # at tau0 = 1 ms the same velocities give R = 0.004 and 0.001: below
        # one qubit, refused at p = 0 as at every other p
        for source in ("lieb_robinson", "group"):
            for depth in (0, 1, 2):
                with pytest.raises(FixedPointError, match="no fixed point above 1"):
                    qram_max_qubits(make_params(a=1.0), Conventions(
                        depth_exponent=depth, velocity_source=source))

    def test_capacity_refusals_name_their_inputs(self):
        conv = Conventions(depth_exponent=0)
        assert capacity(6000.0, 1e-3, 1e-6, 2, conv) == pytest.approx((6e6, 3.6e13),
                                                                   rel=1e-12)
        with pytest.raises(BoundError, match=re.escape(
                "ratio R = v*tau0/a leaves the float range at v=2e-323, "
                "tau0=0.001, a=5e-324")):
            capacity(2e-323, 1e-3, 5e-324, 1, conv)
        with pytest.raises(BoundError, match=re.escape(
                "ratio R = v*tau0/a leaves the float range at v=3e+300, "
                "tau0=1e+300, a=1.0")):
            capacity(3e300, 1e300, 1.0, 1, conv)
        with pytest.raises(BoundError, match=re.escape(
                "total capacity 1e+200^2 overflows a float")):
            capacity(1e200, 1.0, 1.0, 2, conv)
        with pytest.raises(FixedPointError, match=re.escape(
                "no fixed point above 1 for N = 0.5*log^0(N)")):
            capacity(0.5, 1.0, 1.0, 1, conv)

    def test_velocity_capped_at_c_max(self):
        r = qram_max_qubits(make_params(),
                            Conventions(depth_exponent=0, velocity_source=1e12))
        assert r.velocity_used == r.inputs_digest.c_max

    def test_monotone_in_velocity_tau0_and_inverse_spacing(self):
        conv = Conventions(depth_exponent=2)
        velocities = (1e3, 3e3, 6e3)
        gs = (4e3, 2e3, 1e3)          # tau0 = 2 pi / g grows as g shrinks
        inv_as = (1e5, 1e6, 1e7)
        grid = {}
        for v in velocities:
            for g in gs:
                for inv_a in inv_as:
                    p = make_params(a=1.0 / inv_a, g1=g, g2=g)
                    r = qram_max_qubits(p, replace(conv, velocity_source=v))
                    grid[(v, g, inv_a)] = r.max_qubits_total
        for i, v in enumerate(velocities[:-1]):
            for g in gs:
                for inv_a in inv_as:
                    assert grid[(v, g, inv_a)] <= grid[(velocities[i + 1], g, inv_a)]
        for v in velocities:
            for i, g in enumerate(gs[:-1]):
                for inv_a in inv_as:
                    assert grid[(v, g, inv_a)] <= grid[(v, gs[i + 1], inv_a)]
        for v in velocities:
            for g in gs:
                for i, inv_a in enumerate(inv_as[:-1]):
                    assert grid[(v, g, inv_a)] <= grid[(v, g, inv_as[i + 1])]


def teleport(**conventions):
    """The conventions of the teleport bound: routing hops at the speed cap."""
    return Conventions(velocity_source="teleport-hybrid", **conventions)


class TestTeleportHybrid:
    """The teleport bound is ``qram_max_qubits`` at the teleport-hybrid
    source, which every path refuses outside d = 2. At d = 2 the values are
    pinned bit for bit to those of the former teleport-only entry point."""

    def test_light_speed_2d_p0(self):
        r = qram_max_qubits(make_params(d=2), teleport(depth_exponent=0))
        assert (r.max_linear_extent, r.max_qubits_total) == (3e11, 9e22)
        assert r.conventions.velocity_source == "teleport-hybrid"
        assert r.velocity_used == r.inputs_digest.c_max

    def test_p2_matches_scan_oracle(self):
        r = qram_max_qubits(make_params(d=2), teleport(depth_exponent=2))
        assert r.max_linear_extent == pytest.approx(
            scan_largest_root(3e11, 2), rel=1e-8)
        assert (r.max_linear_extent, r.max_qubits_total) == (
            335609955822222.7, 1.1263404244699426e+29)
        r = qram_max_qubits(make_params(d=2), teleport(log_base="2", depth_exponent=2))
        assert (r.max_linear_extent, r.max_qubits_total) == (
            731448656360415.9, 5.350171368914577e+29)

    def test_rejects_other_dimensions(self, tmp_path):
        for d in (1, 3):
            with pytest.raises(BoundError, match="^teleport-hybrid defined for d=2$"):
                qram_max_qubits(make_params(d=d), teleport())
        grid = cli.SweepGrid(axes=(cli.AxisSpec("g", 1e2, 1e3, 3),),
                             fixed=make_params(), conventions=teleport(), dims=(1, 2))
        out = tmp_path / "sweep.csv"
        with pytest.raises(BoundError, match="^teleport-hybrid defined for d=2$"):
            cli.run_sweep(grid, out)
        assert not out.exists()


class TestCrossModuleConsistency:
    """The continuum velocity built from the coarse-grained stiffness must
    match the lattice's long-wavelength dispersion slope (k -> 0 along the
    diagonal, parametrized per axis component), at unit spacing."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("lam", [(1.0,), (1.0, 0.5), (0.3, 1.1, 0.7)])
    def test_continuum_matches_dispersion_slope(self, d, lam):
        m = 1.3
        p = make_params(lam=lam, m=m, d=d, a=1.0)
        spec = lattice.LatticeSpec(d=d, L=4 * len(lam) + 4, lam=lam, m=m)
        q = 1e-7
        slope = lattice.dispersion(spec, (q,) * d) / q
        v_qft = qft_velocity(coarse_grain(p), density(p))
        assert v_qft == pytest.approx(slope, rel=1e-9)

    def test_one_dimensional_case_holds_at_any_spacing(self):
        for a in (0.5, 1.0, 2.5):
            p = make_params(lam=(1.0, 0.5), m=1.3, d=1, a=a)
            spec = lattice.LatticeSpec(d=1, L=12, lam=(1.0, 0.5), m=1.3)
            q = 1e-7
            slope_physical = a * lattice.dispersion(spec, q) / q
            v_qft = qft_velocity(coarse_grain(p), density(p))
            assert v_qft == pytest.approx(slope_physical, rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_higher_dimensions_hold_at_any_spacing(self, d):
        # slope per wavevector component along the diagonal, in m/s
        for a in (1e-6, 0.5, 2.5):
            p = make_params(lam=(1.0, 0.5), m=1.3, d=d, a=a)
            spec = lattice.LatticeSpec(d=d, L=12, lam=(1.0, 0.5), m=1.3)
            q = 1e-7
            slope_physical = a * lattice.dispersion(spec, (q,) * d) / q
            v_qft = qft_velocity(coarse_grain(p), density(p))
            assert v_qft == pytest.approx(slope_physical, rel=1e-9)

    @pytest.mark.parametrize("d,expected", [(2, 44.72135955), (3, 54.77225575)])
    def test_qft_source_matches_long_wave_slope(self, d, expected):
        # a = 1 um, m = 1e-15 kg, lam = 1: long-wave slope sqrt(d) * 31.6 m/s
        p = make_params(m=1e-15, d=d)
        r = qram_max_qubits(p, Conventions(velocity_source="qft"))
        assert r.velocity_used == pytest.approx(expected, rel=1e-9)
