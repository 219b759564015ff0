"""The fault catalogue: named faults, what each moves, and what catches it.

Each row patches one function or constant of the library in process, names
the committed output that the fault moves, and gives the exit code that
``qram-bounds verify`` returns under it. Every row is run through both
``verify.run_verify`` and ``cli.main(["verify"])``, and its output is shown
to move. A fault that moves no committed output gets no row: it shows a
constant or a check that nothing printed depends on.
"""
import contextlib
import io
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from qram_bounds import bounds, cli, gates, lattice, params, qram, verify
from test_scripts import load_lightcone_script

ROOT = Path(__file__).resolve().parents[1]
MODULES = (params, bounds, lattice, gates, qram, verify, cli)
EXIT_OK, EXIT_VERIFY, EXIT_CONFIG = 0, 1, 2

# the CLI runs behind each output a fault can move; "{out}" is a file path
OUTPUTS = {
    "results/cone_1d_nn.csv": [*load_lightcone_script().CASES["cone_1d_nn"],
                               "--out", "{out}"],
    "results/fig3_velocity_sweep.csv": ["sweep", "--preset", "fig3", "--out", "{out}"],
    "bound record": ["bound"],
    "qramsim reads": ["qramsim", "--random-db", "--N", "8", "--seed", "3"],
}


@contextlib.contextmanager
def wrapped(owner, name: str, wrap: Callable):
    """``wrap(original)`` in place of ``owner.name``, at every module of the
    package that binds that function (``tau0`` is imported by name)."""
    original = getattr(owner, name)
    with pytest.MonkeyPatch.context() as patch:
        for module in MODULES:
            if getattr(module, name, None) is original:
                patch.setattr(module, name, wrap(original))
        yield


def scaled(owner, name: str, factor: float):
    return lambda: wrapped(owner, name, lambda f: lambda *args: factor * f(*args))


def scaled_weights(factor: float):
    def wrap(weight_rows):
        def faulty(*args):
            rows = weight_rows(*args)
            rows *= factor
            return rows
        return faulty
    return lambda: wrapped(lattice, "_weight_rows", wrap)


def faulty_orbits(fault: Callable):
    """``fault(omega, weight)`` applied to a copy of ``_axis_orbits``' output."""
    def wrap(axis_orbits):
        def faulty(*args):
            omega, tuples, weight, cosines, pairs = axis_orbits(*args)
            omega, weight = omega.copy(), weight.copy()
            fault(omega, weight)
            return omega, tuples, weight, cosines, pairs
        return faulty
    return lambda: wrapped(lattice, "_axis_orbits", wrap)


def scaled_frequencies(omega, weight):
    omega *= 1.0 + 1e-3


def zero_last_weight(omega, weight):
    weight[-1] = 0.0


def tilted_interpolation():
    def wrap(interpolation):
        def faulty(rows, count):
            u, I = interpolation(rows, count)
            return u, I * (1.0 + 1e-4 * np.cos(np.arange(len(I))))[:, None]
        return faulty
    return wrapped(lattice, "_interpolation", wrap)


def scaled_extent():
    def wrap(capacity):
        def faulty(v, tau, a, d, conventions):
            extent = capacity(v, tau, a, d, conventions)[0] * (1.0 + 1e-3)
            return extent, extent ** d
        return faulty
    return wrapped(bounds, "capacity", wrap)


def last_uncompute_dropped():
    def wrap(schedule_query):
        def faulty(n):
            s = schedule_query(n)
            return replace(s, phases=s.phases[:-1], ops=s.ops[:-1],
                           levels=s.levels[:-1], ctrls=s.ctrls[:-1])
        return faulty
    return wrapped(qram, "schedule_query", wrap)


def copy_from_neighbour():
    def wrap(run_cycles):
        def faulty(bits, phase, schedule, tables, stored):
            run_cycles(bits, phase, schedule, tables, np.roll(stored, -1))
        return faulty
    return wrapped(qram, "_run_cycles", wrap)


@dataclass(frozen=True)
class Fault:
    name: str
    patch: Callable[[], contextlib.AbstractContextManager]
    moves: str          # a key of OUTPUTS
    verify_exit: int


FAULTS = [
    Fault("orbit weights x (1 + 1e-3)", scaled_weights(1.0 + 1e-3),
          "results/cone_1d_nn.csv", EXIT_VERIFY),
    Fault("orbit weights x (1 + 1e-2)", scaled_weights(1.0 + 1e-2),
          "results/cone_1d_nn.csv", EXIT_VERIFY),
    Fault("orbit frequencies x (1 + 1e-3)", faulty_orbits(scaled_frequencies),
          "results/cone_1d_nn.csv", EXIT_VERIFY),
    Fault("interpolation row i x (1 + 1e-4 cos i)", tilted_interpolation,
          "results/cone_1d_nn.csv", EXIT_VERIFY),
    Fault("last orbit weight 0", faulty_orbits(zero_last_weight),
          "results/cone_1d_nn.csv", EXIT_VERIFY),
    Fault("capacity extent x (1 + 1e-3)", scaled_extent, "bound record", EXIT_VERIFY),
    Fault("fixed_point_solve x (1 + 1e-3)",
          scaled(bounds, "fixed_point_solve", 1.0 + 1e-3), "bound record", EXIT_VERIFY),
    Fault("fixed_point_columns x (1 + 1e-3)",
          scaled(bounds, "fixed_point_columns", 1.0 + 1e-3),
          "results/fig3_velocity_sweep.csv", EXIT_VERIFY),
    Fault("max_group_velocity x 1.01", scaled(lattice, "max_group_velocity", 1.01),
          "results/cone_1d_nn.csv", EXIT_VERIFY),
    Fault("lr_speed x 1.01", scaled(lattice, "lr_speed", 1.01),
          "results/cone_1d_nn.csv", EXIT_VERIFY),
    Fault("tau0 x 1.01", scaled(params, "tau0", 1.01),
          "results/fig3_velocity_sweep.csv", EXIT_VERIFY),
    Fault("t_swap x 1.01", scaled(gates, "t_swap", 1.01), "qramsim reads", EXIT_VERIFY),
    Fault("last uncompute cycle dropped", last_uncompute_dropped, "qramsim reads",
          EXIT_VERIFY),
    Fault("copy reads the neighbouring leaf", copy_from_neighbour, "qramsim reads",
          EXIT_VERIFY),
]


def run_quietly(call) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = call()
    return code, out.getvalue()


def output_of(key: str, tmp_path: Path) -> tuple[int, str, str]:
    """(exit code, stdout and stderr, written file) of an output's CLI run."""
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    code, text = run_quietly(lambda: cli.main(
        [arg.replace("{out}", str(out)) for arg in OUTPUTS[key]]))
    return code, text, out.read_text() if out.exists() else ""


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.name)
def test_verify_exit_code(fault):
    with fault.patch():
        direct, printed = run_quietly(verify.run_verify)
        via_cli, cli_printed = run_quietly(lambda: cli.main(["verify"]))
    assert direct == via_cli == fault.verify_exit
    assert ("FAIL" in printed) == ("FAIL" in cli_printed) == (fault.verify_exit != EXIT_OK)
    assert len(printed.splitlines()) >= len(verify.SUITES)   # every suite has its line


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.name)
def test_fault_moves_its_output(fault, tmp_path):
    clean = output_of(fault.moves, tmp_path)
    if fault.moves.startswith("results/"):   # the run writes the committed file
        assert clean[2] == (ROOT / fault.moves).read_text()
    with fault.patch():
        faulty = output_of(fault.moves, tmp_path)
    assert faulty != clean


def test_no_fault_exits_as_invalid_input():
    assert EXIT_CONFIG not in {fault.verify_exit for fault in FAULTS}


def test_raising_suite_fails_on_one_line(capsys):
    # t_swap off makes the swap gate non-monomial, so the qram suite's
    # retrieval raises GateError: one FAIL line names it, and verify exits 1
    with scaled(gates, "t_swap", 1.01)():
        assert cli.main(["verify"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    qram_lines = [line for line in captured.out.splitlines() if "qram" in line]
    assert len(qram_lines) == 1
    assert qram_lines[0].startswith(
        "FAIL qram: raised GateError: gate is not monomial (tolerance 1e-12) (")
    assert captured.err == ""


def test_clean_build_passes():
    assert run_quietly(verify.run_verify)[0] == EXIT_OK
