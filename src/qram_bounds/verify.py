"""Self-contained property suites behind the `verify` CLI subcommand.

Each suite re-checks its module's invariants with fixed seeds and reports
(name, ok, detail) triples, each detail a measured value and its tolerance
if any; run_verify prints one line per suite with timing, and the detail of
each failed check, and returns a process exit code.
"""
from __future__ import annotations

import itertools
import math
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bounds, gates, lattice, qram
from .params import (Conventions, HardwareParams, ParamsError, density,
                     load_config, tau0)

Check = tuple[str, bool, str]


def _params(d: int = 1, lam=(1.0,), m: float = 1.0, a: float = 1.0,
            g: float = math.pi) -> HardwareParams:
    return HardwareParams(a=a, delta_t=1e-3, g1=g, g2=g, lam=tuple(lam), m=m, d=d)


def params_suite() -> list[Check]:
    checks: list[Check] = []
    p = _params()
    base = Conventions(log_base="e").log_base
    checks.append(("log base 'e' read as natural", base == "natural", f"log_base {base!r}"))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "hw.cfg"
        config.write_text("a = 1\ndelta_t = 1\ng1 = 1\ng2 = 1\nlambda = 1, 2\n"
                          "m = 1\nd = 1\nnu = 1\n")
        for name, build, named in (
                ("zero spacing rejected", lambda: replace(p, a=0.0), "lattice spacing"),
                ("length mismatch rejected", lambda: load_config(config), "mismatch")):
            try:
                build()
                checks.append((name, False, "no error raised"))
            except ParamsError as exc:
                checks.append((name, named in str(exc), str(exc)))
    err = abs(tau0(math.pi, math.pi) - 2.0)
    checks.append(("tau0 value", err < 1e-15, f"|tau0 - 2| {err:.2e} (tol 1e-15)"))
    x, y = tau0(2.0, 5.0), tau0(5.0, 2.0)
    checks.append(("tau0 symmetric", x == y, f"{x!r} vs {y!r}"))
    x, y = tau0(2.0, 1.0), tau0(1.0, 1.0)
    checks.append(("tau0 decreasing", x < y, f"{x!r} < {y!r}"))
    err = abs(density(_params(d=3, a=1e-6)) - 1e18)
    checks.append(("density m/a^d", err < 1e6, f"|rho - 1e18| {err:.2e} (tol 1e6)"))
    return checks


def _largest_root(R: float, p: int, log_base: str) -> float:
    """The largest N with N = R log^p N: R itself at p = 0; otherwise a
    bisection, in log N, between the tangency point e^p, where N - R log^p N
    is negative for an R above the root threshold, and the first doubling
    of max(R, e^p) where it is positive, down to adjacent floats."""
    if p == 0:
        return R
    log = math.log if log_base == "natural" else math.log2
    lo, hi = math.exp(p), max(R, math.exp(p))
    while hi - R * log(hi) ** p <= 0.0:
        hi *= 2.0
    while lo < (mid := math.sqrt(lo * hi)) < hi:
        if mid - R * log(mid) ** p < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def bounds_suite() -> list[Check]:
    checks: list[Check] = []
    v1 = lattice.lr_speed(1, (1.0,), 1.0)
    err = abs(v1 - 4.0)
    checks.append(("lr velocity 1d", err < 1e-12, f"|v - 4| {err:.2e} (tol 1e-12)"))
    for d in (2, 3):
        q1 = bounds.qft_velocity(bounds.coarse_grain(_params(d=1)), 1.0)
        qd = bounds.qft_velocity(bounds.coarse_grain(_params(d=d)), 1.0)
        tol = 1e-12 * math.sqrt(d)
        for kind, ratio in (("lr", lattice.lr_speed(d, (1.0,), 1.0) / v1), ("qft", qd / q1)):
            err = abs(ratio - math.sqrt(d))
            checks.append((f"{kind} sqrt(d) scaling d={d}", err < tol,
                           f"|ratio - sqrt(d)| {err:.2e} (tol {tol:.2e})"))
    for R, p in ((10.0, 0), (3e11, 1), (6e6, 2), (1e4, 1)):
        N = bounds.fixed_point_solve(R, p)
        resid = abs(N - R * math.log(N) ** p) / N
        checks.append((f"solver residual R={R:g} p={p}", resid < 1e-10,
                       f"{resid:.2e} (tol 1e-10)"))
    naive = bounds.naive_max_qubits(1e-6, 1e-3, 3e8)
    err = abs(naive / 8.9e12 - 1.0)
    checks.append(("naive bound scale", err < 0.02,
                   f"{naive:.4e}, {err:.2e} off 8.9e12 (tol 0.02)"))
    # discrete <-> continuum: fitted k->0 slope along the diagonal vs
    # sqrt(coarse-grained stiffness / density), at unit spacing; the same
    # slope is sqrt(d) times the group velocity, its k->0 supremum
    errors = []   # np.max, unlike max, keeps a NaN error
    for d in (1, 2, 3):
        for lam in ((1.0,), (1.0, 0.5), (0.3, 1.1, 0.7)):
            p = _params(d=d, lam=lam, m=1.3)
            spec = lattice.LatticeSpec(d=d, L=4 * len(lam) + 4, lam=lam, m=1.3)
            q = 1e-7
            slope = lattice.dispersion(spec, (q,) * d) / q
            v_qft = bounds.qft_velocity(bounds.coarse_grain(p), density(p))
            group = math.sqrt(d) * lattice.max_group_velocity(spec)
            errors.append((abs(v_qft / slope - 1.0), abs(group / slope - 1.0)))
    worst, worst_group = np.max(errors, axis=0).tolist()
    checks.append(("continuum velocity matches k->0 slope", worst < 1e-9,
                   f"worst {worst:.2e} (tol 1e-9)"))
    checks.append(("group velocity matches k->0 slope", worst_group < 1e-9,
                   f"worst {worst_group:.2e} (tol 1e-9)"))
    # every printed capacity against the largest root, found apart from the
    # solvers: one point, the sweeps' column solve, and the bound; and R just
    # above the root threshold, which the solve finishes in closed form
    ratios = []
    tau, a = tau0(2e3, 2e3), 1e-6
    for p, base in itertools.product((0, 1, 2), ("natural", "2")):
        conv = Conventions(depth_exponent=p, log_base=base, velocity_source=3e3)
        results = [bounds.qram_max_qubits(_params(d=d, a=a, g=2e3), conv) for d in (1, 2, 3)]
        R = np.array([result.velocity_used for result in results]) * tau / a
        columns = bounds.fixed_point_columns(R, p, base)
        for d, result, r, column in zip((1, 2, 3), results, R.tolist(), columns.tolist()):
            root = _largest_root(r, p, base)
            extent, total = bounds.capacity(result.velocity_used, tau, a, d, conv)
            ratios += [extent / root, column / root, result.max_linear_extent / root,
                       total / root ** d, result.max_qubits_total / root ** d]
        if p:   # 1 + 1e-6 times the root threshold (e/p)^p, times (ln 2)^p in base 2
            R = (math.e / p * (math.log(2.0) if base == "2" else 1.0)) ** p * (1 + 1e-6)
            ratios.append(bounds.fixed_point_solve(R, p, base) / _largest_root(R, p, base))
    worst = float(np.max(np.abs(np.subtract(ratios, 1.0))))
    checks.append(("capacity is the largest root", worst < 1e-9,
                   f"worst {worst:.2e} (tol 1e-9)"))
    # monotonicity along each grid axis (larger v, tau0, or 1/a never shrinks N);
    # tau0 grows as g shrinks, so the g axis runs downward
    mono_ok, least = True, math.inf
    conv = Conventions(depth_exponent=2)
    base = dict(v=(1e3, 3e3, 6e3), g=(4e3, 2e3, 1e3), inv_a=(1e5, 1e6, 1e7))
    for axis, xs in base.items():
        vals = []
        for x in xs:
            pt = {"v": 3e3, "g": 2e3, "inv_a": 1e6, axis: x}
            r = bounds.qram_max_qubits(_params(a=1.0 / pt["inv_a"], g=pt["g"]),
                                       replace(conv, velocity_source=pt["v"]))
            vals.append(r.max_qubits_total)
        mono_ok = mono_ok and vals == sorted(vals)
        least = min(least, *(y / x for x, y in zip(vals, vals[1:])))
    checks.append(("bound monotone in v, tau0, 1/a", mono_ok,
                   f"least ratio of successive totals {least:.4g} (>= 1)"))
    fast = bounds.qram_max_qubits(
        _params(a=1e-6), Conventions(depth_exponent=0, velocity_source=1e12))
    v, c_max = fast.velocity_used, fast.inputs_digest.c_max
    checks.append(("velocity capped at c_max", v <= c_max, f"{v:g} m/s (cap {c_max:g})"))
    return checks


# (spec, dt, steps, r_max): folded orbits (wide signal, even L) with an
# interpolated last block cut short; odd L with every row computed (I the
# identity); 2D and 3D sums over transverse orbits, unfolded and interpolated
DENSE_CASES = (
    (lattice.LatticeSpec(d=1, L=64, lam=(1.0, 0.3), m=0.8), 0.05, 150, 50),
    (lattice.LatticeSpec(d=1, L=31, lam=(1.0,), m=1.0), 0.7, 40, 30),
    (lattice.LatticeSpec(d=2, L=6, lam=(1.0, 0.3), m=0.8), 0.1, 150, 5),
    (lattice.LatticeSpec(d=3, L=4, lam=(0.9,), m=1.1), 0.1, 150, 3),
)
DENSE_TOL = 1e-12   # they agree to 7e-15..1.4e-14 under the Haswell, Prescott and
                    # Nehalem OpenBLAS kernels; a 1e-4 fault in the scan reads 1e-4


def lattice_suite() -> list[Check]:
    checks: list[Check] = []
    # dispersion vs coupling-matrix eigenfrequencies, as omega^2: eigvalsh is good to
    # a few eps*||K|| under any BLAS kernel, and sqrt would blow that up at omega = 0
    spec = lattice.LatticeSpec(d=1, L=16, lam=(1.0, 0.4), m=1.2)
    K = lattice.coupling_matrix(spec)
    k_grid = 2.0 * np.pi * np.arange(spec.L) / spec.L
    disp2 = np.sort([lattice.dispersion(spec, k) ** 2 for k in k_grid])
    err = float(np.abs(np.linalg.eigvalsh(K) / spec.m - disp2).max())
    tol = 64 * np.finfo(float).eps * np.linalg.norm(K, 2) / spec.m
    checks.append(("dispersion matches eigenfrequencies", err < tol,
                   f"{err:.2e} (tol {tol:.2e})"))
    # the scan's signal against the textbook normal-mode solution, on cases
    # that reach each layout of the engine
    errors = []
    for spec, dt, steps, r_max in DENSE_CASES:
        w2, V = np.linalg.eigh(lattice.coupling_matrix(spec) / spec.m)
        omega = np.sqrt(np.maximum(w2, 0.0))   # the zero mode may come out -eps
        on_axis = V[np.arange(r_max + 1) * spec.L ** (spec.d - 1)] * V[0]
        dense = np.cos(np.outer(np.arange(steps) * dt, omega)) @ on_axis.T
        scan = lattice.axis_signal(spec, dt, steps, r_max)
        errors.append(np.abs(scan - dense).max())
    worst = float(np.max(errors))   # np.max, unlike max, keeps a NaN
    checks.append(("scan signal matches dense cos(t sqrt(K/m))", worst < DENSE_TOL,
                   f"worst {worst:.2e} (tol {DENSE_TOL:g})"))
    # causality tail outside the bound cone
    sp = lattice.LatticeSpec(d=1, L=200, lam=(1.0,), m=1.0)
    ts = np.array([1.0, 5.0, 10.0])   # rows 1, 5, 10 of a dt = 1 grid
    norm = 2.0 * np.abs(np.sin(lattice.axis_signal(sp, 1.0, 11, 90)[[1, 5, 10]] / 2.0))
    mask = np.arange(91.0)[None, :] - 4.0 * ts[:, None] >= 5.0
    worst_tail = float(norm[mask].max())
    checks.append(("commutator tail outside cone < 1e-6", worst_tail < 1e-6,
                   f"{worst_tail:.2e} (tol 1e-6)"))
    # quick light cone
    scan = lattice.measure_light_cone(sp, threshold=1e-3, t_max=100.0, r_max=90, dt=0.05)
    gv = lattice.max_group_velocity(sp)
    ok = (abs(scan.fitted_velocity_lattice / gv - 1.0) < 0.10
          and scan.fitted_velocity_lattice < 4.0)
    checks.append(("light cone velocity", ok,
                   f"fitted {scan.fitted_velocity_lattice:.4f}, group {gv:.4f} "
                   "(tol 10%), bound 4"))
    return checks


CSWAP_PERMUTATION = [0, 1, 2, 3, 4, 6, 5, 7]   # |101> <-> |110> on (ctrl, a, b)


def gates_suite() -> list[Check]:
    checks: list[Check] = []
    g1, g2 = 1.3, 0.8
    for name, U in (("bs", gates.bs_unitary(g1, 0.37)),
                    ("cz", gates.cz_unitary(g2, 0.21)),
                    ("cswap", gates.cswap_composite(g1, g2))):
        err = float(np.abs(U.conj().T @ U - np.eye(U.shape[0])).max())
        checks.append((f"{name} unitary", err < 1e-10, f"{err:.2e} (tol 1e-10)"))
    worst = float(np.max([abs(abs(gates.bs_unitary(g1, t)[1, 2]) ** 2 - math.sin(g1 * t) ** 2)
                          for t in np.linspace(0.0, 2.0 * math.pi / g1, 20).tolist()]))
    checks.append(("bs transfer sin^2(g t)", worst < 1e-9, f"worst {worst:.2e} (tol 1e-9)"))
    for name, t, share in (("full transfer at t_sw", gates.t_swap(g1), 1.0),
                           ("half transfer at t_bs", gates.t_beamsplitter(g1), 0.5)):
        err = abs(abs(gates.bs_unitary(g1, t)[1, 2]) ** 2 - share)
        checks.append((name, err < 1e-12, f"{err:.2e} (tol 1e-12)"))
    err = abs(gates.cz_unitary(g2, gates.t_cphase(g2))[3, 3] + 1.0)
    checks.append(("cz phase -1 on |11>", err < 1e-10, f"{err:.2e} (tol 1e-10)"))
    t1, t2 = 0.31, 0.47
    add = np.abs(gates.bs_unitary(g1, t1) @ gates.bs_unitary(g1, t2)
                 - gates.bs_unitary(g1, t1 + t2)).max()
    checks.append(("bs duration additivity", add < 1e-10, f"{add:.2e} (tol 1e-10)"))
    perm, phases = gates.monomial(gates.cswap_composite(g1, g2))
    checks.append(("composite is the controlled-SWAP permutation",
                   perm.tolist() == CSWAP_PERMUTATION, f"{perm.tolist()}"))
    err = float(np.abs(phases[:4] - 1.0).max())
    checks.append(("ctrl=0 block has unit phases", err < 1e-12, f"{err:.2e} (tol 1e-12)"))
    durations = ((gates.t_swap(2.0), math.pi / 4.0),
                 (gates.t_beamsplitter(2.0), math.pi / 8.0),
                 (gates.t_cphase(4.0), math.pi / 4.0),
                 (gates.cswap_duration(2.0, 4.0), 2 * math.pi / 8.0 + math.pi / 4.0))
    exact = sum(got == want for got, want in durations)
    checks.append(("gate durations exact", exact == len(durations),
                   f"{exact} of {len(durations)} exact"))
    return checks


def qram_suite() -> list[Check]:
    checks: list[Check] = []
    off = [n for n in range(1, 13)
           if (sched := qram.schedule_initialization(n)).cswap_count != n * (n - 1) // 2
           or sched.swap_count != n]
    checks.append(("init gate counts n(n-1)/2 + n", not off, f"n = 1..12, off at {off}"))
    core = qram.schedule_query(3).phase_cycle_count("descend", "copy", "ascend")
    checks.append(("query core cycles 2n+1", core == 7, f"{core} at n = 3 (want 7)"))
    g = math.pi
    total = qram.total_time(qram.schedule_initialization(1),
                            qram.schedule_query(1), g, g)
    err = abs(total - 4.5)
    checks.append(("total time n=1 exact", err < 1e-12, f"|T - 4.5| {err:.2e} (tol 1e-12)"))
    t0 = tau0(g, g)
    shape = [qram.total_time(qram.schedule_initialization(n),
                             qram.schedule_query(n), g, g) / (t0 * n * n)
             for n in (19, 20)]
    checks.append(("timing shape converges",
                   abs(shape[1] / shape[0] - 1.0) < 0.05,
                   f"ratio {shape[1] / shape[0]:.4f} (tol 0.05 of 1)"))
    for N, db in ((2, qram.ClassicalDatabase((0, 1))),
                  (4, qram.ClassicalDatabase((0, 1, 1, 0))),
                  (8, qram.random_database(8, seed=42))):
        report = qram.verify_retrieval(db)
        checks.append((f"retrieval N={N}", report.passed,
                       f"min fidelity {report.min_fidelity:.12f}"))
    return checks


SUITES = (
    ("params", params_suite),
    ("bounds", bounds_suite),
    ("lattice", lattice_suite),
    ("gates", gates_suite),
    ("qram", qram_suite),
)


def run_verify() -> int:
    """Run every suite; print one line per suite with timing; return 0 if
    everything passed, 1 otherwise. A suite that raises a library error
    (each subclasses ValueError) fails on one line that names it: verify
    takes no input, so the build is at fault."""
    failed = False
    for name, suite in SUITES:
        start = time.perf_counter()
        try:
            checks = suite()
        except ValueError as exc:
            print(f"FAIL {name}: raised {type(exc).__name__}: {exc} "
                  f"({time.perf_counter() - start:.2f}s)")
            failed = True
            continue
        elapsed = time.perf_counter() - start
        bad = [c for c in checks if not c[1]]
        status = "PASS" if not bad else "FAIL"
        print(f"{status} {name}: {len(checks) - len(bad)}/{len(checks)} checks "
              f"({elapsed:.2f}s)")
        for cname, _, detail in bad:
            print(f"  FAIL {name}.{cname}: {detail}")
            failed = True
    return 1 if failed else 0
