"""Float fuzz over the library: every public call returns only finite
numbers or raises a ValueError subclass that names the refused input.

Each float argument is drawn from the edge alphabet 0, -1, +-inf, nan,
1e308 and 5e-324, or from ordinary values in [0.1, 10]. Calls run under
``np.errstate(over, invalid, divide="raise")``, so an overflow inside numpy
surfaces as a FloatingPointError, which is not a refusal; underflow rounds
to a finite value and is allowed. Sizes stay small (L <= 8, N = 4 leaves)
so that the whole module runs in a few seconds.

Integer arguments meet the alphabet True, 2.0, 2.5, -1, 0, np.int64(2) and
2**40: each call refuses a bool or a float, and otherwise returns finite
numbers or raises a ValueError whose message names the argument or the
range it left. The large value runs in
a child process whose address space is capped at 1 GiB, so that a call
that would build something of that size fails there by MemoryError.
"""
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qram_bounds import bounds, gates, lattice, params, qram

EDGES = [0.0, -1.0, math.inf, -math.inf, math.nan, 1e308, 5e-324]
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(0.1, 10.0))
LAMS = st.lists(FLOATS, min_size=1, max_size=2).map(tuple)
FUZZ = settings(max_examples=120, deadline=None, derandomize=True)


def assert_finite(value) -> None:
    """Every number inside ``value`` (dataclass fields, sequences and
    arrays included) is finite."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            assert_finite(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            assert_finite(item)
    elif isinstance(value, (float, complex, np.ndarray, np.generic)):
        assert np.isfinite(value).all(), value


def finite_or_refused(call, *args):
    """``call(*args)`` if it returns finite numbers, None if it refuses with
    a ValueError; any other exception fails the test."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            out = call(*args)
        except ValueError:
            return None
    assert_finite(out)
    return out


def hardware(draw, d):
    lam = draw(LAMS)
    return finite_or_refused(lambda: params.HardwareParams(
        a=draw(FLOATS), delta_t=draw(FLOATS), g1=draw(FLOATS), g2=draw(FLOATS),
        lam=lam, m=draw(FLOATS), d=d,
        c_max=draw(st.sampled_from([params.SPEED_OF_LIGHT, 1e308, 5e-324]))))


def lieb_robinson_speeds(hw):
    """The Lieb-Robinson speed of a record in sites/s, and in m/s."""
    v = finite_or_refused(lattice.lr_speed, hw.d, hw.lam, hw.m)
    if v is not None:
        finite_or_refused(lattice.physical_velocity, hw.a, v, "Lieb-Robinson velocity")


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
       source=st.one_of(st.sampled_from(["lieb_robinson", "qft", "group",
                                         "teleport-hybrid"]), FLOATS))
@FUZZ
def test_bounds(data, d, p, log_base, source):
    draw = data.draw
    finite_or_refused(bounds.qft_velocity, draw(FLOATS), draw(FLOATS))
    finite_or_refused(bounds.fixed_point_solve, draw(FLOATS), p, log_base)
    finite_or_refused(bounds.naive_max_qubits, draw(FLOATS), draw(FLOATS),
                      draw(FLOATS), log_base)
    hw = hardware(draw, d)
    conv = finite_or_refused(params.Conventions, log_base, p, source)
    if hw is None or conv is None:
        return
    lieb_robinson_speeds(hw)
    finite_or_refused(bounds.coarse_grain, hw)
    finite_or_refused(bounds.qram_max_qubits, hw, conv)


@given(d=st.sampled_from([1, 2, 3]), lam=LAMS, m=FLOATS, a=FLOATS,
       stiffness=FLOATS, rho=FLOATS)
@FUZZ
def test_closed_form_velocities(d, lam, m, a, stiffness, rho):
    # the few inputs of the closed forms alone, so that their edges meet
    finite_or_refused(bounds.qft_velocity, stiffness, rho)
    hw = finite_or_refused(params.HardwareParams, a, 1e-3, 1.0, 1.0, lam, m, d)
    if hw is not None:
        lieb_robinson_speeds(hw)


@given(data=st.data(), d=st.sampled_from([1, 2, 3]), L=st.sampled_from([4, 8]))
@FUZZ
def test_lattice(data, d, L):
    draw = data.draw
    spec = finite_or_refused(lattice.LatticeSpec, d, L, draw(LAMS), draw(FLOATS))
    if spec is None:
        return
    finite_or_refused(lattice.dispersion, spec, [draw(FLOATS)] * d)
    finite_or_refused(lattice.omega_max, spec)
    finite_or_refused(lattice.lr_speed, spec.d, spec.lam, spec.m)
    v = finite_or_refused(lattice.max_group_velocity, spec)
    if v is not None:
        finite_or_refused(lattice.physical_velocity, draw(FLOATS), v, "group velocity")
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
    finite_or_refused(lattice.physical_velocity, draw(FLOATS), draw(FLOATS), "velocity")


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
    finite_or_refused(qram.verify_retrieval, db, g1, g2)
    finite_or_refused(qram.simulate_query, db, np.eye(4)[2], g1, g2)


SMALL_INTS = [True, 2.0, 2.5, -1, 0, np.int64(2)]
LARGE_INT = 2 ** 40
CONE_SPEC = lattice.LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0)
SCHEDULE_REFUSAL = r"^(n must be an integer|empty tree$|depth cap: n <= )"

# argument: (call of the drawn value, pattern of its refusals)
INT_ARGUMENTS = {
    "schedule_initialization n": (qram.schedule_initialization, SCHEDULE_REFUSAL),
    "schedule_query n": (qram.schedule_query, SCHEDULE_REFUSAL),
    "classical_trace_read address": (
        lambda v: qram.classical_trace_read(qram.random_database(8, seed=1), v),
        r"^address (must be an integer|out of range$)"),
    "random_database seed": (lambda v: qram.random_database(8, seed=v), r"^seed must be"),
    "capacity d": (lambda v: bounds.capacity(1e3, 1.0, 1e-6, v, params.Conventions()),
                   r"^dimension d must be"),
    "fixed_point_solve p": (lambda v: bounds.fixed_point_solve(100.0, v),
                            rf"^(depth exponent p must be|negative depth exponent$|"
                            rf"fixed point of N = 100\*log\^{LARGE_INT}\(N\) overflows)"),
    "Conventions depth_exponent": (
        lambda v: json.loads(json.dumps(dataclasses.asdict(params.Conventions(
            depth_exponent=v)))),
        r"^depth exponent must be an integer >= 0$"),
    "axis_signal steps": (lambda v: lattice.axis_signal(CONE_SPEC, 0.1, v, 3),
                          r"^(steps must be|dt must be finite and steps >= 0$|"
                          r"the time signal needs \d+ array entries)"),
    "axis_signal r_max": (lambda v: lattice.axis_signal(CONE_SPEC, 0.1, 3, v),
                          r"^r_max must"),
    "measure_light_cone r_max": (
        lambda v: lattice.measure_light_cone(CONE_SPEC, 0.1, 6.0, v, 0.1),
        r"^r_max (must|too large)"),
    "measure_light_cone fit_r_min": (
        lambda v: lattice.measure_light_cone(CONE_SPEC, 0.1, 6.0, 7, 0.1, v),
        r"^fit_r_min (must be|= \d+ leaves)"),
}


def finite_or_refused_by_name(argument: str, value) -> None:
    """The call of ``argument`` at ``value`` returns finite numbers or raises
    a ValueError that matches the argument's refusal pattern; a bool or a
    float is always refused."""
    call, pattern = INT_ARGUMENTS[argument]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            out = call(value)
        except ValueError as exc:
            assert re.search(pattern, str(exc)), (argument, value, exc)
            return
    assert not isinstance(value, (bool, float)), (argument, value)
    assert_finite(out)


@pytest.mark.parametrize("value", SMALL_INTS, ids=repr)
@pytest.mark.parametrize("argument", INT_ARGUMENTS)
def test_integer_arguments(argument, value):
    finite_or_refused_by_name(argument, value)


def test_large_integer_arguments_refused_before_building():
    child = f"""
import resource, sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
import test_fuzz
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
for argument in test_fuzz.INT_ARGUMENTS:
    test_fuzz.finite_or_refused_by_name(argument, test_fuzz.LARGE_INT)
print("done")
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "done\n"
