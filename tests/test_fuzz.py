"""Float fuzz over the library: every public call returns only finite
numbers or raises a ValueError subclass that names the refused input. The
one exception is +inf from the closed-form velocities ``lr_velocity`` and
``qft_velocity``, which stands for a speed without bound as m -> 0 and which
``qram_max_qubits`` caps at c_max.

Each float argument is drawn from the edge alphabet 0, -1, +-inf, nan,
1e308 and 5e-324, or from ordinary values in [0.1, 10]. Calls run under
``np.errstate(over, invalid, divide="raise")``, so an overflow inside numpy
surfaces as a FloatingPointError, which is not a refusal; underflow rounds
to a finite value and is allowed. Sizes stay small (L <= 8, d <= 2 for the
lattice grids, N = 4 leaves) so that the whole module runs in about 2 s.
"""
import dataclasses
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qram_bounds import bounds, gates, lattice, params, qram

EDGES = [0.0, -1.0, math.inf, -math.inf, math.nan, 1e308, 5e-324]
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(0.1, 10.0))
LAMS = st.lists(FLOATS, min_size=1, max_size=2).map(tuple)
FUZZ = settings(max_examples=120, deadline=None, derandomize=True)


def assert_finite(value, unbounded: bool = False) -> None:
    """Every number inside ``value`` (dataclass fields, sequences and
    arrays included) is finite, or +inf where ``unbounded``."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            assert_finite(getattr(value, field.name), unbounded)
    elif isinstance(value, (tuple, list)):
        for item in value:
            assert_finite(item, unbounded)
    elif isinstance(value, (float, complex, np.ndarray, np.generic)):
        assert (np.isfinite(value) | (unbounded & (value == np.inf))).all(), value


def finite_or_refused(call, *args, unbounded: bool = False):
    """``call(*args)`` if it returns finite numbers (or +inf, where
    ``unbounded``), None if it refuses with a ValueError; any other
    exception fails the test."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            out = call(*args)
        except ValueError:
            return None
    assert_finite(out, unbounded)
    return out


def hardware(draw, d):
    lam = draw(LAMS)
    return finite_or_refused(lambda: params.HardwareParams(
        a=draw(FLOATS), delta_t=draw(FLOATS), g1=draw(FLOATS), g2=draw(FLOATS),
        lam=lam, m=draw(FLOATS), d=d, nu=len(lam),
        c_max=draw(st.sampled_from([params.SPEED_OF_LIGHT, 1e308, 5e-324]))))


@given(data=st.data(), d=st.sampled_from([1, 2, 3]))
@FUZZ
def test_params(data, d):
    draw = data.draw
    finite_or_refused(params.tau0, draw(FLOATS), draw(FLOATS))
    finite_or_refused(params.Conventions, "natural", 2, draw(FLOATS))
    hw = hardware(draw, d)
    if hw is not None:
        finite_or_refused(params.density, hw)


@given(data=st.data(), d=st.sampled_from([1, 2, 3]),
       p=st.sampled_from([0, 1, 2, 3]), log_base=st.sampled_from(["natural", "2"]),
       source=st.one_of(st.sampled_from(["lieb_robinson", "qft", "group"]), FLOATS))
@FUZZ
def test_bounds(data, d, p, log_base, source):
    draw = data.draw
    finite_or_refused(bounds.qft_velocity, draw(FLOATS), draw(FLOATS),
                      unbounded=True)
    finite_or_refused(bounds.fixed_point_solve, draw(FLOATS), p, log_base)
    finite_or_refused(bounds.naive_max_qubits, draw(FLOATS), draw(FLOATS),
                      draw(FLOATS), log_base)
    if source == "group":
        d = min(d, 2)   # the 3D group-velocity grid has 10^6 points
    hw = hardware(draw, d)
    conv = finite_or_refused(params.Conventions, log_base, p, source)
    if hw is None or conv is None:
        return
    finite_or_refused(bounds.lr_velocity, hw, unbounded=True)
    finite_or_refused(bounds.coarse_grain, hw)
    finite_or_refused(bounds.qram_max_qubits, hw, conv)
    if d == 2:
        finite_or_refused(bounds.teleport_hybrid_max_qubits, hw, conv)


@given(data=st.data(), d=st.sampled_from([1, 2]), L=st.sampled_from([4, 8]))
@FUZZ
def test_lattice(data, d, L):
    draw = data.draw
    spec = finite_or_refused(lattice.LatticeSpec, d, L, draw(LAMS),
                             draw(FLOATS), draw(FLOATS))
    if spec is None:
        return
    finite_or_refused(lattice.dispersion, spec, [draw(FLOATS)] * d)
    finite_or_refused(lattice.omega_max, spec)
    finite_or_refused(lattice.longwave_speed, spec)
    finite_or_refused(lattice.lr_bound_velocity, spec)
    finite_or_refused(lattice.max_group_velocity, spec)
    bp = finite_or_refused(lattice.LRBoundParams, draw(FLOATS), draw(FLOATS))
    if bp is not None:
        finite_or_refused(lattice.lr_bound_envelope, spec, bp, draw(FLOATS),
                          draw(FLOATS))
    t = draw(FLOATS)
    probe = np.zeros(2 * spec.n_sites)
    probe[draw(st.sampled_from([0, spec.n_sites]))] = 1.0
    prop = finite_or_refused(lattice.SymplecticPropagator, spec, t)
    if prop is not None:
        finite_or_refused(prop.apply, probe)
        finite_or_refused(prop.apply_observable, probe)
    f = lattice.WeylFunction({(0,) * d: 1.0})
    g = lattice.WeylFunction({(1,) + (0,) * (d - 1): 1j})
    finite_or_refused(lattice.weyl_commutator_norm, spec, f, g, t)
    finite_or_refused(lattice.axis_signal, spec, draw(FLOATS),
                      draw(st.sampled_from([0, 1, 3])), 1)
    if L == 8 and spec.nu == 1:
        dt = draw(st.one_of(st.none(), FLOATS))
        finite_or_refused(lattice.measure_light_cone, spec, 0.1, draw(FLOATS), 2, dt)


@given(data=st.data())
@FUZZ
def test_gates(data):
    draw = data.draw
    g1, g2, t = draw(FLOATS), draw(FLOATS), draw(FLOATS)
    for call, args in ((gates.t_swap, (g1,)), (gates.t_beamsplitter, (g1,)),
                       (gates.t_cphase, (g2,)), (gates.bs_unitary, (g1, t)),
                       (gates.cz_unitary, (g2, t)), (gates.swap_unitary, (g1,)),
                       (gates.cswap_composite, (g1, g2)),
                       (gates.cswap_duration, (g1, g2))):
        finite_or_refused(call, *args)


@given(data=st.data(), n=st.sampled_from([1, 3]))
@FUZZ
def test_qram(data, n):
    draw = data.draw
    g1, g2 = draw(FLOATS), draw(FLOATS)
    finite_or_refused(qram.total_time, qram.schedule_initialization(n),
                      qram.schedule_query(n), g1, g2)
    db = qram.random_database(4, seed=1)
    finite_or_refused(qram.verify_retrieval, db, g1, g2, 2)
    finite_or_refused(qram.simulate_query, db, np.eye(4)[2], g1, g2)
