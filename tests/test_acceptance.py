"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import math
import time

import numpy as np

from qram_bounds import bounds, cli, gates, lattice, qram
from qram_bounds.params import Conventions, HardwareParams, density

from test_lattice import fock_commutator_norm

G1 = 2000.0 * math.pi   # tau0 = 1e-3 s
G2 = 2000.0 * math.pi


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def make_params(**overrides):
    base = dict(a=1e-6, delta_t=1e-3, g1=G1, g2=G2, lam=(1.0,), m=1.0, d=1)
    base.update(overrides)
    return HardwareParams(**base)


def test_criterion_01_naive_bound_reproduction():
    elapsed = math.inf
    for _ in range(3):
        start = time.perf_counter()
        value = bounds.naive_max_qubits(1e-6, 1e-3, 3e8)
        elapsed = min(elapsed, time.perf_counter() - start)
    ok = abs(value / 8.9e12 - 1.0) <= 0.02 and elapsed < 1e-3
    report(1, ok, f"naive bound {value:.4e} (target 8.9e12 +-2%), "
                  f"runtime {elapsed * 1e6:.0f} us")


def test_criterion_02_gate_time_laws():
    g1, g2 = 1.3, 0.8
    worst_bs = 0.0
    for t in np.linspace(0.0, 2.0 * math.pi / g1, 20):
        U = gates.bs_unitary(g1, float(t))
        worst_bs = max(worst_bs, abs(abs(U[1, 2]) ** 2 - math.sin(g1 * t) ** 2))
    U_sw = gates.bs_unitary(g1, gates.t_swap(g1))
    U_bs = gates.bs_unitary(g1, gates.t_beamsplitter(g1))
    U_cz = gates.cz_unitary(g2, gates.t_cphase(g2))
    full_err = abs(abs(U_sw[1, 2]) ** 2 - 1.0)
    half_err = abs(abs(U_bs[1, 2]) ** 2 - 0.5)
    cz_err = abs(U_cz[3, 3] + 1.0)
    fixed_err = max(abs(U_cz[0, 0] - 1.0), abs(U_cz[1, 1] - 1.0),
                    abs(U_cz[2, 2] - 1.0))
    ok = (worst_bs < 1e-9 and full_err < 1e-9 and half_err < 1e-9
          and cz_err < 1e-10 and fixed_err < 1e-10)
    report(2, ok, f"sin^2 law dev {worst_bs:.1e}, transfer errs "
                  f"{full_err:.1e}/{half_err:.1e}, cz phase err {cz_err:.1e}")


def test_criterion_03_controlled_swap_decomposition():
    res = gates.gauge_equivalent(gates.cswap_composite(1.3, 0.7),
                                 gates.cswap_exact())
    ok = res.equivalent and res.fidelity >= 1.0 - 1e-9
    report(3, ok, f"BS.CZ.BS gauge fidelity to controlled-SWAP "
                  f"{res.fidelity:.12f}")


def test_criterion_04_light_cone_vs_commutator_bound():
    cases = [
        ("1D nearest-neighbor", lattice.LatticeSpec(d=1, L=400, lam=(1.0,), m=1.0),
         dict(threshold=1e-3, t_max=220.0, r_max=190, dt=0.02)),
        ("1D two-range", lattice.LatticeSpec(d=1, L=400, lam=(1.0, 1.0), m=1.0),
         dict(threshold=1e-3, t_max=110.0, r_max=190, dt=0.02)),
        ("2D axis", lattice.LatticeSpec(d=2, L=64, lam=(1.0,), m=1.0),
         dict(threshold=0.1, t_max=45.0, r_max=30, dt=0.02)),
    ]
    details = []
    ok = True
    for name, spec, kwargs in cases:
        start = time.perf_counter()
        scan = lattice.measure_light_cone(spec, **kwargs)
        elapsed = time.perf_counter() - start
        oracle = lattice.max_group_velocity(spec)
        bound = lattice.lr_speed(spec.d, spec.lam, spec.m)
        fitted = scan.fitted_velocity_lattice
        case_ok = (abs(fitted / oracle - 1.0) <= 0.10 and fitted < bound
                   and elapsed < 60.0)
        ok = ok and case_ok
        details.append(f"{name}: fitted {fitted:.3f} vs oracle {oracle:.3f}, "
                       f"bound {bound:.3f}, {elapsed:.1f}s")
    report(4, ok, "; ".join(details))


def test_criterion_05_sqrt_d_scaling():
    lam, m = (0.7, 1.3), 0.9
    worst = 0.0
    for d in (2, 3):
        p1 = make_params(lam=lam, m=m, d=1, a=1.0)
        pd = make_params(lam=lam, m=m, d=d, a=1.0)
        lr_ratio = (lattice.lr_speed(pd.d, pd.lam, pd.m)
                    / lattice.lr_speed(p1.d, p1.lam, p1.m))
        qft_ratio = (bounds.qft_velocity(bounds.coarse_grain(pd), density(pd))
                     / bounds.qft_velocity(bounds.coarse_grain(p1), density(p1)))
        worst = max(worst, abs(lr_ratio / math.sqrt(d) - 1.0),
                    abs(qft_ratio / math.sqrt(d) - 1.0))
    report(5, worst < 1e-12, f"sqrt(d) ratio deviation {worst:.2e}")


def test_criterion_06_discrete_continuum_consistency():
    worst = 0.0
    for d in (1, 2, 3):
        for lam in ((1.0,), (1.0, 0.5), (0.3, 1.1, 0.7)):
            p = make_params(lam=lam, m=1.3, d=d, a=1.0)
            spec = lattice.LatticeSpec(d=d, L=4 * len(lam) + 4, lam=lam, m=1.3)
            q = 1e-7
            slope = lattice.dispersion(spec, (q,) * d) / q
            v_qft = bounds.qft_velocity(bounds.coarse_grain(p), density(p))
            worst = max(worst, abs(v_qft / slope - 1.0))
    report(6, worst < 1e-9, f"k->0 slope vs continuum velocity, worst "
                            f"relative deviation {worst:.2e} over nu,d grid")


def test_criterion_07_symplectic_propagator():
    spec = lattice.LatticeSpec(d=1, L=8, lam=(1.0,), m=1.0)
    w_max = lattice.normal_modes(spec).max()
    t = 10.0 / w_max
    diff = np.abs(lattice.SymplecticPropagator(spec, t).matrix()
                  - lattice.propagate_ode(spec, t, 0.01 / w_max)).max()
    rng = np.random.default_rng(20240808)
    n = spec.n_sites
    prop = lattice.SymplecticPropagator(spec, 1.7)
    worst_sigma = 0.0
    for _ in range(100):
        u = rng.standard_normal(2 * n)
        v = rng.standard_normal(2 * n)
        su, sv = prop.apply(u), prop.apply(v)
        s0 = lattice.symplectic_form(u[:n], u[n:], v[:n], v[n:])
        s1 = lattice.symplectic_form(su[:n], su[n:], sv[:n], sv[n:])
        worst_sigma = max(worst_sigma, abs(s1 - s0) / max(1.0, abs(s0)))
    ok = diff < 1e-6 and worst_sigma < 1e-10
    report(7, ok, f"spectral vs RK4 max entry diff {diff:.2e}, "
                  f"symplectic-form deviation {worst_sigma:.2e} on 100 pairs")


def test_criterion_08_weyl_commutator_oracle():
    spec = lattice.LatticeSpec(d=1, L=2, lam=(1.0,), m=1.0)
    cases = [
        ((1.0 + 0j, 0j), (1j, 0j), 0.0),
        ((0.5 + 0j, 0j), (0j, 0.5j), 0.3),
    ]
    worst = 0.0
    for f_amp, g_amp, t in cases:
        closed = lattice.weyl_commutator_norm(
            spec, lattice.WeylFunction({0: f_amp[0], 1: f_amp[1]}),
            lattice.WeylFunction({0: g_amp[0], 1: g_amp[1]}), t)
        dense = fock_commutator_norm(1.0, 1.0, np.array(f_amp),
                                     np.array(g_amp), t, trunc=6)
        worst = max(worst, abs(closed - dense))
    report(8, worst <= 1e-3, f"closed form vs Fock-truncation-6 dense "
                             f"commutator, worst diff {worst:.2e}")


def test_criterion_09_qram_functional_correctness():
    start = time.perf_counter()
    ok = True
    min_fid = 1.0
    for N in (2, 4, 8):
        db = qram.random_database(N, seed=N + 40)
        report_n = qram.verify_retrieval(db, g1=math.pi, g2=math.pi)
        ok = ok and report_n.passed
        min_fid = min(min_fid, report_n.min_fidelity)
        for x in range(N):
            basis = np.zeros(N, dtype=complex)
            basis[x] = 1.0
            result = qram.simulate_query(db, basis, math.pi, math.pi)
            ok = ok and result.bits[0, -1] == db.bits[x]
            ok = ok and result.routers_restored >= 1.0 - 1e-9
    elapsed = time.perf_counter() - start
    ok = ok and min_fid >= 1.0 - 1e-9 and elapsed < 30.0
    report(9, ok, f"exhaustive retrieval N=2,4,8 exact, min fidelity "
                  f"{min_fid:.12f}, {elapsed:.1f}s")


def test_criterion_10_timing_shape():
    g = 1000.0 * math.pi
    tau = 2.0 * math.pi / g
    shape = {}
    for n in (19, 20):
        total = qram.total_time(qram.schedule_initialization(n),
                                qram.schedule_query(n), g, g)
        shape[n] = total / (tau * n * n)
    drift = abs(shape[20] / shape[19] - 1.0)
    counts_ok = all(
        qram.schedule_initialization(n).cswap_count == n * (n - 1) // 2
        and qram.schedule_initialization(n).swap_count == n
        for n in range(1, 21))
    ok = drift < 0.05 and counts_ok
    report(10, ok, f"T/(tau0 n^2) drift n=19->20 is {drift * 100:.2f}%, "
                   f"gate counts exact for n<=20")


def test_criterion_11_figure_scale_reproduction(tmp_path):
    p = make_params()
    one_d = [bounds.qram_max_qubits(
        p, Conventions(depth_exponent=pp, velocity_source=6000.0)).max_qubits_total
        for pp in (0, 2)]
    in_bracket = all(1e6 <= v <= 1e10 for v in one_d)

    out = tmp_path / "fig3.csv"
    cli.run_sweep(cli.fig3_grid(), out)
    data = np.genfromtxt(str(out), delimiter=",", skip_header=2)
    columns_ordered = bool(np.all(data[:, 1] <= data[:, 2])
                           and np.all(data[:, 2] <= data[:, 3]))

    tele = bounds.qram_max_qubits(make_params(d=2), Conventions(
        depth_exponent=0, velocity_source="teleport-hybrid")).max_qubits_total
    tele_ok = 1e19 <= tele <= 1e23

    out4 = tmp_path / "fig4.csv"
    cli.run_sweep(cli.fig4_grid(), out4)
    data4 = np.genfromtxt(str(out4), delimiter=",", skip_header=2)
    fig4_max = data4[:, 2].max()
    fig4_ok = 1e12 <= fig4_max <= 1e16

    ok = in_bracket and columns_ordered and tele_ok and fig4_ok
    report(11, ok, f"1D bounds {one_d[0]:.2e}/{one_d[1]:.2e} in [1e6,1e10], "
                   f"columns 1D<=2D<=3D {columns_ordered}, teleport total "
                   f"{tele:.2e} in [1e19,1e23], fig4 max {fig4_max:.2e}")


def test_criterion_12_causality_tail():
    worst = 0.0
    for d, L in ((1, 400), (2, 64)):
        spec = lattice.LatticeSpec(d=d, L=L, lam=(1.0,), m=1.0)
        v_bound = lattice.lr_speed(spec.d, spec.lam, spec.m)
        omega = lattice.normal_modes(spec)
        r_cap = L // 2 - spec.nu
        for t in np.arange(0.5, 10.5, 0.5):
            col = np.fft.ifftn(np.cos(omega * t)).real.reshape(spec.shape)
            sig = 2.0 * np.abs(np.sin(
                col[(slice(0, r_cap + 1),) + (0,) * (d - 1)] / 2.0))
            rs = np.arange(r_cap + 1, dtype=float)
            mask = rs - v_bound * t >= 5.0
            if mask.any():
                worst = max(worst, float(sig[mask].max()))
    report(12, worst < 1e-6, f"commutator norm outside cone+5 sites, "
                             f"worst {worst:.2e}")
