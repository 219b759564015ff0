"""Self-contained property suites behind the `verify` CLI subcommand.

Each suite re-checks its module's invariants with fixed seeds and reports
(name, ok, detail) triples; run_verify prints one line per suite with
timing and returns a process exit code.
"""
from __future__ import annotations

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
    checks.append(("log base 'e' read as natural",
                   Conventions(log_base="e").log_base == "natural", ""))
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
    checks.append(("tau0 value", abs(tau0(math.pi, math.pi) - 2.0) < 1e-15, ""))
    checks.append(("tau0 symmetric",
                   tau0(2.0, 5.0) == tau0(5.0, 2.0), ""))
    checks.append(("tau0 decreasing",
                   tau0(2.0, 1.0) < tau0(1.0, 1.0), ""))
    checks.append(("density m/a^d",
                   abs(density(_params(d=3, a=1e-6)) - 1e18) < 1e6, ""))
    return checks


def bounds_suite() -> list[Check]:
    checks: list[Check] = []
    v1 = lattice.lr_speed(1, (1.0,), 1.0)
    checks.append(("lr velocity 1d", abs(v1 - 4.0) < 1e-12, f"{v1}"))
    for d in (2, 3):
        ratio = lattice.lr_speed(d, (1.0,), 1.0) / v1
        checks.append((f"lr sqrt(d) scaling d={d}",
                       abs(ratio - math.sqrt(d)) < 1e-12 * math.sqrt(d), f"{ratio}"))
        q1 = bounds.qft_velocity(bounds.coarse_grain(_params(d=1)), 1.0)
        qd = bounds.qft_velocity(bounds.coarse_grain(_params(d=d)), 1.0)
        checks.append((f"qft sqrt(d) scaling d={d}",
                       abs(qd / q1 - math.sqrt(d)) < 1e-12 * math.sqrt(d), ""))
    for R, p in ((10.0, 0), (3e11, 1), (6e6, 2), (1e4, 1)):
        N = bounds.fixed_point_solve(R, p)
        resid = abs(N - R * math.log(N) ** p) / N
        checks.append((f"solver residual R={R:g} p={p}", resid < 1e-10, f"{resid:.2e}"))
    naive = bounds.naive_max_qubits(1e-6, 1e-3, 3e8)
    checks.append(("naive bound scale", abs(naive / 8.9e12 - 1.0) < 0.02, f"{naive:.4e}"))
    # discrete <-> continuum: fitted k->0 slope along the diagonal vs
    # sqrt(coarse-grained stiffness / density), at unit spacing
    ok = True
    worst = 0.0
    for d in (1, 2, 3):
        for lam in ((1.0,), (1.0, 0.5), (0.3, 1.1, 0.7)):
            p = _params(d=d, lam=lam, m=1.3)
            spec = lattice.LatticeSpec(d=d, L=4 * len(lam) + 4, lam=lam, m=1.3)
            q = 1e-7
            slope = lattice.dispersion(spec, (q,) * d) / q
            v_qft = bounds.qft_velocity(bounds.coarse_grain(p), density(p))
            worst = max(worst, abs(v_qft / slope - 1.0))
            ok = ok and abs(v_qft / slope - 1.0) < 1e-9
    checks.append(("continuum velocity matches k->0 slope", ok, f"worst {worst:.2e}"))
    # monotonicity along each grid axis (larger v, tau0, or 1/a never shrinks N);
    # tau0 grows as g shrinks, so the g axis runs downward
    mono_ok = True
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
    checks.append(("bound monotone in v, tau0, 1/a", mono_ok, ""))
    fast = bounds.qram_max_qubits(
        _params(a=1e-6), Conventions(depth_exponent=0, velocity_source=1e12))
    checks.append(("velocity capped at c_max",
                   fast.velocity_used <= fast.inputs_digest.c_max, ""))
    return checks


def lattice_suite() -> list[Check]:
    checks: list[Check] = []
    rng = np.random.default_rng(20240801)
    # dispersion vs coupling-matrix eigenfrequencies, as omega^2: eigvalsh is good to
    # a few eps*||K|| under any BLAS kernel, and sqrt would blow that up at omega = 0
    spec = lattice.LatticeSpec(d=1, L=16, lam=(1.0, 0.4), m=1.2)
    K = lattice.coupling_matrix(spec)
    k_grid = 2.0 * np.pi * np.arange(spec.L) / spec.L
    disp2 = np.sort([lattice.dispersion(spec, k) ** 2 for k in k_grid])
    err = float(np.abs(np.linalg.eigvalsh(K) / spec.m - disp2).max())
    tol = 64 * np.finfo(float).eps * np.linalg.norm(K, 2) / spec.m
    checks.append(("dispersion matches eigenfrequencies", err < tol, f"{err:.2e}"))
    # symplectic form preservation and group property
    sympl_ok, group_ok = True, True
    worst_s, worst_g = 0.0, 0.0
    for d, nu in ((1, 1), (1, 2), (2, 1), (2, 2)):
        lam = tuple(rng.uniform(0.2, 1.5, nu))
        sp = lattice.LatticeSpec(d=d, L=8, lam=lam, m=float(rng.uniform(0.5, 2.0)))
        n = sp.n_sites
        t1, t2 = 0.7, 0.4
        P1, P2, P12 = (lattice.SymplecticPropagator(sp, t) for t in (t1, t2, t1 + t2))
        # rows of u and v are the draws of 25 (u, v) pairs, in order
        u, v = rng.standard_normal((25, 2, 2 * n)).transpose(1, 0, 2)
        su, sv = P1.apply(u), P1.apply(v)
        s0 = lattice.symplectic_form(u[:, :n], u[:, n:], v[:, :n], v[:, n:])
        s1 = lattice.symplectic_form(su[:, :n], su[:, n:], sv[:, :n], sv[:, n:])
        worst_s = max(worst_s, float(np.abs(s1 - s0).max()))
        sympl_ok = sympl_ok and bool(
            (np.abs(s1 - s0) < 1e-10 * np.maximum(1.0, np.abs(s0))).all())
        diff = float(np.abs(P12.apply(u) - P1.apply(P2.apply(u))).max())
        worst_g = max(worst_g, diff)
        group_ok = group_ok and diff < 1e-9
    checks.append(("symplectic form preserved", sympl_ok, f"worst {worst_s:.2e}"))
    checks.append(("group property S(t+s)=S(t)S(s)", group_ok, f"worst {worst_g:.2e}"))
    # spectral vs RK4 propagator
    sp8 = lattice.LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
    w_max = lattice.omega_max(sp8)
    t = 10.0 / w_max
    diff = np.abs(lattice.SymplecticPropagator(sp8, t).matrix()
                  - lattice.propagate_ode(sp8, t, 0.01 / w_max)).max()
    checks.append(("spectral vs RK4 propagator", diff < 1e-6, f"{diff:.2e}"))
    # causality tail outside the bound cone
    sp = lattice.LatticeSpec(d=1, L=200, lam=(1.0,), m=1.0)
    ts = np.array([1.0, 5.0, 10.0])   # rows 1, 5, 10 of a dt = 1 grid
    norm = 2.0 * np.abs(np.sin(lattice.axis_signal(sp, 1.0, 11, 90)[[1, 5, 10]] / 2.0))
    mask = np.arange(91.0)[None, :] - 4.0 * ts[:, None] >= 5.0
    worst_tail = float(norm[mask].max())
    checks.append(("commutator tail outside cone < 1e-6", worst_tail < 1e-6,
                   f"{worst_tail:.2e}"))
    # envelope domination along a ray: calibrate the prefactor at the first
    # point outside the signal front, then the measured tail (which drops
    # super-exponentially) must stay under the envelope's exp(-mu m dr)
    # decay; compare only above the double-precision noise floor
    f = lattice.WeylFunction({0: 1.0})
    t_ray = 1.0
    dists = list(range(2, 14))
    meas = [lattice.weyl_commutator_norm(
        sp, f, lattice.WeylFunction({r: 1j}), t_ray) for r in dists]
    bare = [lattice.lr_bound_envelope(sp, lattice.LRBoundParams(1.0, 1.0), r, t_ray)
            for r in dists]
    resolvable = [(m, b) for m, b in zip(meas, bare) if m >= 1e-13]
    C = resolvable[0][0] / resolvable[0][1]
    dom_ok = (len(resolvable) >= 4
              and all(m <= C * b * (1.0 + 1e-9) for m, b in resolvable))
    checks.append(("envelope dominates along ray", dom_ok,
                   f"{len(resolvable)} resolvable points"))
    # quick light cone
    scan = lattice.measure_light_cone(sp, threshold=1e-3, t_max=100.0, r_max=90, dt=0.05)
    gv = lattice.max_group_velocity(sp)
    ok = (abs(scan.fitted_velocity_lattice / gv - 1.0) < 0.10
          and scan.fitted_velocity_lattice < 4.0)
    checks.append(("light cone velocity", ok,
                   f"fitted {scan.fitted_velocity_lattice:.4f}"))
    return checks


def gates_suite() -> list[Check]:
    checks: list[Check] = []
    g1, g2 = 1.3, 0.8
    for name, U in (("bs", gates.bs_unitary(g1, 0.37)),
                    ("cz", gates.cz_unitary(g2, 0.21)),
                    ("cswap", gates.cswap_composite(g1, g2))):
        err = float(np.abs(U.conj().T @ U - np.eye(U.shape[0])).max())
        checks.append((f"{name} unitary", err < 1e-10, f"{err:.2e}"))
    probs_ok = True
    for t in np.linspace(0.0, 2.0 * math.pi / g1, 20):
        U = gates.bs_unitary(g1, float(t))
        p = abs(U[1, 2]) ** 2
        probs_ok = probs_ok and abs(p - math.sin(g1 * t) ** 2) < 1e-9
    checks.append(("bs transfer sin^2(g t)", probs_ok, ""))
    U = gates.bs_unitary(g1, gates.t_swap(g1))
    checks.append(("full transfer at t_sw", abs(abs(U[1, 2]) ** 2 - 1.0) < 1e-12, ""))
    U = gates.bs_unitary(g1, gates.t_beamsplitter(g1))
    checks.append(("half transfer at t_bs", abs(abs(U[1, 2]) ** 2 - 0.5) < 1e-12, ""))
    cz = gates.cz_unitary(g2, gates.t_cphase(g2))
    checks.append(("cz phase -1 on |11>", abs(cz[3, 3] + 1.0) < 1e-10, ""))
    t1, t2 = 0.31, 0.47
    add = np.abs(gates.bs_unitary(g1, t1) @ gates.bs_unitary(g1, t2)
                 - gates.bs_unitary(g1, t1 + t2)).max()
    checks.append(("bs duration additivity", add < 1e-10, f"{add:.2e}"))
    comp = gates.cswap_composite(g1, g2)
    res = gates.gauge_equivalent(comp, gates.cswap_exact())
    checks.append(("composite ~ controlled-SWAP", res.equivalent,
                   f"fidelity {res.fidelity:.12f}"))
    ctrl0 = comp[:4, :4]
    res0 = gates.gauge_equivalent(ctrl0, np.eye(4, dtype=complex))
    swap_pop = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    res1 = gates.gauge_equivalent(comp[4:, 4:], swap_pop)
    checks.append(("ctrl=0 block ~ identity", res0.equivalent, ""))
    checks.append(("ctrl=1 block ~ swap", res1.equivalent, ""))
    dur_ok = (gates.t_swap(2.0) == math.pi / 4.0
              and gates.t_beamsplitter(2.0) == math.pi / 8.0
              and gates.t_cphase(4.0) == math.pi / 4.0
              and gates.cswap_duration(2.0, 4.0) == 2 * math.pi / 8.0 + math.pi / 4.0)
    checks.append(("gate durations exact", dur_ok, ""))
    return checks


def qram_suite() -> list[Check]:
    checks: list[Check] = []
    counts_ok = True
    for n in range(1, 13):
        sched = qram.schedule_initialization(n)
        counts_ok = counts_ok and (sched.cswap_count == n * (n - 1) // 2
                                   and sched.swap_count == n)
    checks.append(("init gate counts n(n-1)/2 + n", counts_ok, ""))
    q = qram.schedule_query(3)
    checks.append(("query core cycles 2n+1",
                   q.phase_cycle_count("descend", "copy", "ascend") == 7, ""))
    g = math.pi
    total = qram.total_time(qram.schedule_initialization(1),
                            qram.schedule_query(1), g, g)
    checks.append(("total time n=1 exact", abs(total - 4.5) < 1e-12, f"{total}"))
    t0 = tau0(g, g)
    shape = [qram.total_time(qram.schedule_initialization(n),
                             qram.schedule_query(n), g, g) / (t0 * n * n)
             for n in (19, 20)]
    checks.append(("timing shape converges",
                   abs(shape[1] / shape[0] - 1.0) < 0.05,
                   f"ratio {shape[1] / shape[0]:.4f}"))
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
    everything passed, 1 otherwise."""
    failed = False
    for name, suite in SUITES:
        start = time.perf_counter()
        checks = suite()
        elapsed = time.perf_counter() - start
        bad = [c for c in checks if not c[1]]
        status = "PASS" if not bad else "FAIL"
        print(f"{status} {name}: {len(checks) - len(bad)}/{len(checks)} checks "
              f"({elapsed:.2f}s)")
        for cname, _, detail in bad:
            print(f"  FAIL {name}.{cname}: {detail}")
            failed = True
    return 1 if failed else 0
