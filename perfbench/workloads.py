"""The benchmark workloads: inputs drawn from the seed, the operations of one
timed pass, and the check of each operation's output.

Every operation goes through ``cli.main(argv)`` where a subcommand exists and
otherwise through a public function of its layer. Library functions are
looked up on their module at call time, so the traced run's wrappers see
every call. Outputs are written under the caller's temporary directory.

An operation's check returns (failed units, wrong output). A wrong output is
a value, file or exit code 1/3 that disagrees with its reference or oracle;
an exception or a refusal (exit code 2) fails the operation without being a
wrong output.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qram_bounds import bounds, cli, qram

REFERENCE = Path(__file__).resolve().parent / "reference"
WORKLOADS = ("cones", "capacity", "retrieval", "verify")

EXIT_OK, EXIT_VERIFY, EXIT_RETRIEVAL = 0, 1, 3
WRONG_EXITS = (EXIT_VERIFY, EXIT_RETRIEVAL)

# the committed light-cone scans of scripts/lightcone_scan.py:
# (name, d, L, lam, threshold, t_max, r_max), all with m = 1 and dt = 0.02
CONE_DT = 0.02
COMMITTED_CONES = (
    ("cone_1d_nn", 1, 400, "1.0", "1e-3", 220.0, 190),
    ("cone_1d_two_range", 1, 400, "1.0,1.0", "1e-3", 110.0, 190),
    ("cone_2d_axis", 2, 64, "1.0", "0.1", 45.0, 30),
)
CONE_3D = dict(L=32, r_max=14, t_max=20.0)
TINY_CONES = ((1, 64, 20.0, 20), (2, 16, 5.0, 5), (3, 8, 3.0, 2))  # d, L, t_max, r_max

SOLVER_POINTS = 2000
TINY_SOLVER_POINTS = 80
NEAR_SHARE = 0.5            # share of solver points within 2x of the threshold
R_MAX = 1e15
RESIDUAL_TOL = 1e-9

DB_MIX = ((2, 2), (4, 2), (8, 6))   # (N, databases per pass)
TINY_DB_MIX = ((2, 1), (4, 1), (8, 1))
SUPERPOSITIONS = 10                 # qramsim checks N basis states plus these
TIMING_DEPTHS = range(1, 21)


@dataclass(frozen=True)
class Op:
    label: str
    units: int                                  # operations this call counts for
    call: Callable[[], Any]
    check: Callable[[Any], tuple[int, bool]]    # -> (failed units, wrong output)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    work: dict             # work size per pass; does not depend on the seed
    inputs: str            # digest of the generated inputs
    expected_calls: dict   # span name -> calls per pass, worked out by hand
    diagnostic: Callable[[], str] | None = None  # untimed, run once after measuring

    def run_pass(self, after_op: Callable[[float], None] | None = None) -> list:
        """Run every operation once; ``after_op`` gets each one's seconds."""
        outputs = []
        for op in self.ops:
            start = time.perf_counter()
            try:
                outputs.append(op.call())
            except Exception as exc:  # a crashing operation fails, the run goes on
                outputs.append(exc)
            if after_op is not None:
                after_op(time.perf_counter() - start)
        return outputs

    def check(self, outputs: list) -> tuple[int, int, bool]:
        """(attempted units, failed units, any wrong output) of one pass."""
        attempted = failed = 0
        wrong = False
        for op, out in zip(self.ops, outputs):
            attempted += op.units
            if isinstance(out, Exception):
                failed += op.units
                continue
            op_failed, op_wrong = op.check(out)
            failed += op_failed
            wrong = wrong or op_wrong
        return attempted, failed, wrong


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def data_lines(path: Path) -> list[str]:
    """CSV lines other than '#' comments: the column header and data rows."""
    return [line for line in Path(path).read_text().splitlines()
            if not line.startswith("#")]


def _cli_op(label: str, argv: list[str], units: int, check, out: Path | None = None) -> Op:
    def call():
        if out is not None:
            out.unlink(missing_ok=True)
        return run_cli(argv)
    return Op(label, units, call, check)


# ---------------------------------------------------------------------------
# cones

def _steps(t_max: float) -> int:
    return round(t_max / CONE_DT) + 1


def _scan(tmp: Path, name: str, d: int, L: int, lam: str, m: float,
          threshold: str, t_max: float, r_max: int, reference: Path | None) -> Op:
    out = tmp / f"{name}.csv"
    argv = ["lightcone", "--d", str(d), "--L", str(L), "--lam", lam,
            "--m", repr(m), "--threshold", threshold, "--t-max", repr(t_max),
            "--r-max", str(r_max), "--dt", repr(CONE_DT), "--out", str(out)]

    def check(result):
        code, _ = result
        if code != EXIT_OK or not out.exists():
            return 1, code in WRONG_EXITS
        rows = data_lines(out)
        if reference is not None:
            ok = rows == data_lines(reference)
        else:  # exit 0 already means the fitted velocity is below the bound
            ok = (len(rows) == r_max + 1
                  and all(row.split(",")[1] for row in rows[1:]))
        return (0, False) if ok else (1, True)

    return _cli_op(name, argv, 1, check, out)


def cones(seed: int, tmp: Path, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    lam = (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.1, 0.5)))
    m = float(rng.uniform(0.5, 1.5))
    lam_arg = ",".join(repr(x) for x in lam)
    cases = []   # (name, d, L, lam, m, threshold, t_max, r_max, reference)
    if tiny:
        for d, L, t_max, r_max in TINY_CONES:
            cases.append((f"cone_{d}d_tiny", d, L, lam_arg, m, "1e-3", t_max, r_max, None))
    else:
        for name, d, L, lam_c, threshold, t_max, r_max in COMMITTED_CONES:
            cases.append((name, d, L, lam_c, 1.0, threshold, t_max, r_max,
                          REFERENCE / f"{name}.csv"))
        cases.append(("cone_3d_seeded", 3, CONE_3D["L"], lam_arg, m, "1e-3",
                      CONE_3D["t_max"], CONE_3D["r_max"], None))
    ops = tuple(_scan(tmp, *case) for case in cases)
    sizes = {c[0]: [c[2] ** c[1], _steps(c[6])] for c in cases}
    steps = sum(s for _, s in sizes.values())
    return Workload(
        name="cones", ops=ops,
        work={"scans": len(ops), "site_steps": sum(n * s for n, s in sizes.values()),
              "L^d_x_steps": sizes},
        inputs=_digest([c[:8] for c in cases]),
        expected_calls={"cli.main": len(ops),
                        "lattice.measure_light_cone": len(ops),
                        "lattice.normal_modes": len(ops),
                        "lattice.fft": steps})


# ---------------------------------------------------------------------------
# capacity

def _sweep(tmp: Path, preset: str, reference: Path) -> Op:
    out = tmp / f"{preset}.csv"
    ref = data_lines(reference)
    n_cells = sum(col.startswith("max_qubits") for col in ref[0].split(","))
    n_axes = len(ref[0].split(",")) - n_cells
    units = (len(ref) - 1) * n_cells

    def check(result):
        code, _ = result
        if code != EXIT_OK or not out.exists():
            return units, code in WRONG_EXITS
        rows = data_lines(out)
        if not rows or rows[0] != ref[0] or len(rows) > len(ref):
            return units, True
        bad = 0
        for i, expected in enumerate(ref[1:], start=1):
            exp = expected.split(",")
            got = rows[i].split(",") if i < len(rows) else []
            if got[:n_axes] != exp[:n_axes] or len(got) != len(exp):
                bad += n_cells
            else:
                bad += sum(g != e for g, e in zip(got[n_axes:], exp[n_axes:]))
        return bad, bad > 0

    return _cli_op(f"sweep {preset}", ["sweep", "--preset", preset, "--out", str(out)],
                   units, check, out)


def _naive_bound() -> Op:
    R = 3e8 * 1e-3 / 1e-6   # c * delta_t / a of the preset, p = 1, natural log

    def check(result):
        code, text = result
        match = re.search(r"N <= ([0-9.e+-]+)", text)
        if code != EXIT_OK or not match:
            return 1, code in WRONG_EXITS
        N = float(match.group(1))
        ok = abs(N / 8.9e12 - 1.0) < 0.02 and abs(N - R * math.log(N)) / N < 2e-6
        return (0, False) if ok else (1, True)

    return _cli_op("bound naive", ["bound", "--kind", "naive"], 1, check)


def _sound_speed_bound() -> Op:
    expected = 6000.0 * 1e-3 / 1e-6   # v * tau0 / a with p = 0, d = 1

    def check(result):
        code, text = result
        record = [line for line in text.splitlines() if line.startswith("record ")]
        if code != EXIT_OK or not record:
            return 1, code in WRONG_EXITS
        N = json.loads(record[0][len("record "):])["max_qubits_total"]
        ok = abs(N / expected - 1.0) < 1e-9
        return (0, False) if ok else (1, True)

    return _cli_op("bound v=6000 p=0",
                   ["bound", "--velocity", "6000", "--depth-exponent", "0"], 1, check)


def solver_points(rng: np.random.Generator, count: int) -> list[tuple[float, int, str]]:
    """(R, p, log base) points, an equal number per (p, base) stratum.

    R is log-uniform from the stratum's lowest R (``lowest_R``) up to R_MAX,
    except that NEAR_SHARE of each stratum lies within a factor of 2 above
    that lowest R. The draws are jittered strata of the unit interval, so
    every seed puts the same number of points in each part of the range.
    """
    per = count // 8
    n_near = round(per * NEAR_SHARE)
    points = []
    for p in (1, 2, 3, 4):
        for base in ("natural", "2"):
            lo = math.log(lowest_R(p, base))
            for n, hi in ((n_near, lo + math.log(2.0)),
                          (per - n_near, math.log(R_MAX))):
                u = (np.arange(n) + rng.random(n)) / n
                points.extend((math.exp(x), p, base) for x in lo + u * (hi - lo))
    return points


def _threshold_R(p: int, base: str) -> float:
    """Smallest R with a root of N = R log^p N: R_eff = R (ln 2)^-p >= (e/p)^p
    for base 2, R >= (e/p)^p for the natural log."""
    return (math.e / p) ** p * (math.log(2.0) ** p if base == "2" else 1.0)


def _start_limit_R(p: int, base: str) -> float:
    """R below which ``fixed_point_solve``'s start point N0 = base^2 lies
    below the small root of N = R log^p N, so that the iteration runs
    downward and raises a false FixedPointError although roots exist; 0
    where N0 is at or above the tangency point e^p and no R is affected."""
    n0 = math.e ** 2 if base == "natural" else 4.0
    log = math.log if base == "natural" else math.log2
    return n0 / log(n0) ** p if n0 < math.exp(p) else 0.0


def lowest_R(p: int, base: str) -> float:
    """Lowest R of the solver points: the root threshold, raised where needed
    to the start-point limit, so that every drawn point has a root that the
    iteration reaches and no operation of the workload fails."""
    return max(_threshold_R(p, base), _start_limit_R(p, base))


def false_no_root_probe(per_stratum: int = 50) -> str:
    """How often ``fixed_point_solve`` raises FixedPointError on fixed,
    log-spaced R between the root threshold and ``lowest_R``, where a root
    exists. These points stay out of the timed operations, so that no
    operation fails, and the probe keeps the defect in view."""
    tried = false = 0
    for p in (1, 2, 3, 4):
        for base in ("natural", "2"):
            lo, hi = _threshold_R(p, base), lowest_R(p, base)
            if hi <= lo:
                continue
            for R in np.geomspace(lo, hi, per_stratum, endpoint=False):
                tried += 1
                try:
                    bounds.fixed_point_solve(float(R), p, base)
                except bounds.FixedPointError:
                    false += 1
    return (f"untimed probe: fixed_point_solve raised a false FixedPointError on "
            f"{false} of {tried} points between the root threshold and lowest_R")


def check_root(R: float, p: int, base: str, result) -> tuple[bool, bool]:
    """(failed, wrong) for one solver point. A root exists exactly at or above
    the threshold; a returned N must solve the equation and lie at or above
    the tangency point e^p; with no root, BoundError is the correct result."""
    exists = R >= _threshold_R(p, base)
    if isinstance(result, bounds.BoundError):
        return exists, False
    if not exists:
        return True, True
    log = math.log if base == "natural" else math.log2
    ok = (result > 1.0
          and abs(result - R * log(result) ** p) <= RESIDUAL_TOL * result
          and result >= math.exp(p) * (1.0 - RESIDUAL_TOL))
    return (not ok), (not ok)


def _solver(points: list[tuple[float, int, str]]) -> Op:
    def call():
        out = []
        for R, p, base in points:
            try:
                out.append(bounds.fixed_point_solve(R, p, base))
            except bounds.BoundError as exc:
                out.append(exc)
        return out

    def check(results):
        failed = wrong = 0
        for (R, p, base), result in zip(points, results):
            f, w = check_root(R, p, base, result)
            failed += f
            wrong += w
        return failed, wrong > 0

    return Op("fixed_point_solve batch", len(points), call, check)


def capacity(seed: int, tmp: Path, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    points = solver_points(rng, TINY_SOLVER_POINTS if tiny else SOLVER_POINTS)
    sweeps = (_sweep(tmp, "fig3", REFERENCE / "fig3_velocity_sweep.csv"),
              _sweep(tmp, "fig4", REFERENCE / "fig4_coupling_heatmap.csv"))
    ops = sweeps + (_naive_bound(), _sound_speed_bound(), _solver(points))
    cells = sum(op.units for op in sweeps)
    return Workload(
        name="capacity", ops=ops,
        work={"sweep_cells": cells, "bound_points": 2, "solver_points": len(points)},
        inputs=_digest(points),
        expected_calls={"cli.main": 4, "cli.run_sweep": 2,
                        "bounds.qram_max_qubits": cells + 1,
                        "bounds.fixed_point_solve": cells + 2 + len(points)},
        diagnostic=false_no_root_probe)


# ---------------------------------------------------------------------------
# retrieval

_ROW = re.compile(r"^\s*(\d+)\s+(\d+)\s+(\d+)\s+([0-9.]+)\s*$", re.MULTILINE)


def _qramsim(N: int, seed: int) -> Op:
    units = N + SUPERPOSITIONS

    def check(result):
        code, text = result
        rows = {int(a): (int(e), int(r), float(f)) for a, e, r, f in _ROW.findall(text)}
        if code == EXIT_OK:
            ok = (sorted(rows) == list(range(N))
                  and all(r == e and f >= 1.0 - 1e-9 for e, r, f in rows.values()))
            return (0, False) if ok else (units, True)
        if code == EXIT_RETRIEVAL:
            bad = set(re.findall(r"^MISMATCH (\w+ \d+):", text, re.MULTILINE))
            return max(1, len(bad)), True
        return units, code in WRONG_EXITS

    return _cli_op(f"qramsim N={N}", ["qramsim", "--random-db", "--N", str(N),
                                      "--seed", str(seed)], units, check)


def closed_form_time(n: int, g1: float, g2: float) -> float:
    """2 (n t_sw + n(n-1)/2 t_cs) + 2n t_cs + t_sw."""
    t_sw = math.pi / (2.0 * g1)
    t_cs = 2.0 * math.pi / (4.0 * g1) + math.pi / g2
    return 2.0 * (n * t_sw + n * (n - 1) / 2.0 * t_cs) + 2.0 * n * t_cs + t_sw


def _timing(g1: float, g2: float) -> Op:
    def call():
        return [qram.total_time(qram.schedule_initialization(n),
                                qram.schedule_query(n), g1, g2)
                for n in TIMING_DEPTHS]

    def check(totals):
        bad = sum(abs(T - closed_form_time(n, g1, g2)) > 1e-12 * T
                  for n, T in zip(TIMING_DEPTHS, totals))
        return bad, bad > 0

    return Op("total_time n=1..20", len(TIMING_DEPTHS), call, check)


def retrieval(seed: int, tmp: Path, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    dbs = [(N, int(s)) for N, count in (TINY_DB_MIX if tiny else DB_MIX)
           for s in rng.integers(0, 2 ** 31 - 1, size=count)]
    g1, g2 = (float(x) for x in np.exp(rng.uniform(math.log(1e2), math.log(1e5), 2)))
    ops = tuple(_qramsim(N, s) for N, s in dbs) + (_timing(g1, g2),)
    queries = {}
    for N, _ in dbs:
        queries[N] = queries.get(N, 0) + N + SUPERPOSITIONS
    return Workload(
        name="retrieval", ops=ops,
        work={"queries": sum(queries.values()), "queries_by_N": queries,
              "timing_checks": len(TIMING_DEPTHS)},
        inputs=_digest([dbs, g1, g2]),
        expected_calls={"cli.main": len(dbs),
                        "qram.verify_retrieval": len(dbs),
                        "qram.simulate_query": sum(queries.values()),
                        # 2^n - 1 gates for initialization and again for its inverse
                        "gates.apply_unitary": sum(q * 2 * (N - 1) for N, q in queries.items()),
                        "qram.total_time": len(TIMING_DEPTHS)})


# ---------------------------------------------------------------------------
# verify

def verify(seed: int, tmp: Path, tiny: bool = False) -> Workload:
    """``qram-bounds verify`` seeds its suites internally; the benchmark seed
    does not reach it."""
    def check(result):
        code, text = result
        ok = code == EXIT_OK and "FAIL" not in text
        return (0, False) if ok else (1, code in WRONG_EXITS or code == EXIT_OK)

    suites = ("params", "bounds", "lattice", "gates", "qram")
    return Workload(
        name="verify", ops=(_cli_op("verify", ["verify"], 1, check),),
        work={"verify_calls": 1}, inputs=_digest(["verify"]),
        expected_calls={"cli.main": 1, **{f"verify.{s}_suite": 1 for s in suites}})


def build(name: str, seed: int, tmp: Path, tiny: bool = False) -> Workload:
    return {"cones": cones, "capacity": capacity, "retrieval": retrieval,
            "verify": verify}[name](seed, Path(tmp), tiny)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, default=str).encode()).hexdigest()[:16]
