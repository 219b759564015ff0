"""Command-line entry point: bound evaluation, parameter sweeps, light-cone
scans, QRAM simulation runs, and the verification suite.

Exit codes: 0 ok, 1 verification failure, 2 config error, 3 retrieval
mismatch.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import bounds, lattice, qram, verify
from .params import Conventions, HardwareParams, ParamsError, load_config, tau0

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_RETRIEVAL = 3

# Default operating point: micron spacing, millisecond stage time
# (g1 = g2 = 2000*pi so tau0 = 1e-3 s), unit couplings.
PRESET_PARAMS = HardwareParams(a=1e-6, delta_t=1e-3, g1=2000.0 * math.pi,
                               g2=2000.0 * math.pi, lam=(1.0,), m=1.0,
                               d=1, nu=1)

SOUND_SPEED = 6000.0  # m/s, typical solid

AXIS_QUANTITY = {"velocity": "velocity", "v2": "velocity", "g": "coupling"}


@dataclass(frozen=True)
class AxisSpec:
    name: str     # "velocity" | "g" | "v2"
    lo: float
    hi: float
    points: int
    log: bool = True

    def values(self) -> list[float]:
        """Grid points as Python floats, so that an overflow in the bound
        raises instead of passing on a numpy inf."""
        space = np.geomspace if self.log else np.linspace
        return space(self.lo, self.hi, self.points).tolist()


@dataclass(frozen=True)
class SweepGrid:
    axes: tuple[AxisSpec, ...]
    fixed: HardwareParams
    conventions: Conventions
    dims: tuple[int, ...] = (1,)

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ParamsError("sweep needs 1 or 2 axes")
        total = 1
        for ax in self.axes:
            if ax.points < 2:
                raise ParamsError("points >= 2 per axis")
            if not (math.isfinite(ax.lo) and math.isfinite(ax.hi)):
                raise ParamsError(f"non-finite range for sweep axis {ax.name!r}")
            if ax.lo <= 0 or ax.hi <= ax.lo:
                raise ParamsError("axis range must satisfy 0 < lo < hi")
            if ax.name not in AXIS_QUANTITY:
                raise ParamsError(f"unknown sweep axis {ax.name!r}")
            total *= ax.points
        if total > 10 ** 6:
            raise ParamsError("sweep grid exceeds 10^6 points")
        if len(self.axes) == 2:
            a, b = self.axes
            if AXIS_QUANTITY[a.name] == AXIS_QUANTITY[b.name]:
                raise ParamsError(f"sweep axes {a.name!r} and {b.name!r} both "
                                  f"set the {AXIS_QUANTITY[a.name]}")
        for d in self.dims:
            if self.dims.count(d) > 1:
                raise ParamsError(f"dimension {d} repeated in dims {self.dims}")


def _evaluate_point(grid: SweepGrid, values: dict[str, float], d: int) -> float:
    fixed = grid.fixed
    params = replace(fixed, d=d, g1=values.get("g", fixed.g1),
                     g2=values.get("g", fixed.g2))
    conv = grid.conventions
    if "velocity" in values:
        conv = replace(conv, velocity_source=values["velocity"])
    if "v2" in values:
        conv = replace(conv, velocity_source=math.sqrt(values["v2"]))
    return bounds.qram_max_qubits(params, conv).max_qubits_total


def _conventions_record(conv: Conventions, params: HardwareParams,
                        velocity_swept: bool = False) -> dict:
    """Conventions and scales behind a bound, as both the ``record`` line of
    ``bound`` and the ``#`` line of a sweep CSV print them. A sweep whose
    axis sets the velocity has no single velocity source."""
    record = {"log_base": conv.log_base, "depth_exponent": conv.depth_exponent}
    if not velocity_swept:
        record["velocity_source"] = conv.velocity_source
    record.update(a=params.a, tau0=tau0(params.g1, params.g2))
    return record


def write_csv(path: str | Path, meta: dict, header, rows) -> None:
    """Write one ``# key=value ...`` comment line built from ``meta``, the
    column header, and the rows. Floats print as ``:g`` in the comment and
    as ``.10g`` in the rows; a None cell prints empty."""
    def cell(value, spec):
        if value is None:
            return ""
        return format(value, spec) if isinstance(value, float) else str(value)
    lines = ["# " + " ".join(f"{k}={cell(v, 'g')}" for k, v in meta.items()),
             ",".join(header)]
    lines += [",".join(cell(v, ".10g") for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def run_sweep(grid: SweepGrid, out_path: str | Path) -> int:
    """Evaluate the grid and write a CSV with a conventions comment line;
    returns the number of data rows."""
    axis_cols = [ax.name for ax in grid.axes]
    meta = _conventions_record(grid.conventions, grid.fixed, velocity_swept=any(
        AXIS_QUANTITY[name] == "velocity" for name in axis_cols))
    meta["dims"] = ",".join(str(d) for d in grid.dims)
    rows = []
    for point in itertools.product(*(ax.values() for ax in grid.axes)):
        values = dict(zip(axis_cols, point))
        rows.append((*point, *(_evaluate_point(grid, values, d) for d in grid.dims)))
    write_csv(out_path, meta,
              axis_cols + [f"max_qubits_d{d}" for d in grid.dims], rows)
    return len(rows)


def fig3_grid(depth_exponent: int = 2, log_base: str = "natural") -> SweepGrid:
    """Velocity axis up to the sound-speed scale, one capacity column per
    dimension, micron spacing and millisecond stage time."""
    return SweepGrid(
        axes=(AxisSpec("velocity", 1e2, SOUND_SPEED, 50, log=True),),
        fixed=PRESET_PARAMS,
        conventions=Conventions(log_base=log_base, depth_exponent=depth_exponent),
        dims=(1, 2, 3),
    )


def fig4_grid(depth_exponent: int = 2, log_base: str = "natural") -> SweepGrid:
    """Coupling axis vs squared-speed-limit axis at millimeter spacing,
    1D capacity heat map."""
    return SweepGrid(
        axes=(AxisSpec("g", 1e-4, 1.0, 40, log=True),
              AxisSpec("v2", 1e2, SOUND_SPEED ** 2, 40, log=True)),
        fixed=replace(PRESET_PARAMS, a=1e-3),
        conventions=Conventions(log_base=log_base, depth_exponent=depth_exponent),
        dims=(1,),
    )


def _print_bound(result: bounds.BoundResult) -> None:
    conv = result.conventions
    print(f"max qubits (total):  {result.max_qubits_total:.6e}")
    print(f"max linear extent:   {result.max_linear_extent:.6e}")
    print(f"velocity used [m/s]: {result.velocity_used:.6g}")
    print(f"conventions: log_base={conv.log_base}"
          f" depth_exponent={conv.depth_exponent}"
          f" velocity_source={conv.velocity_source}")
    record = {
        "max_qubits_total": result.max_qubits_total,
        "max_linear_extent": result.max_linear_extent,
        "velocity_used": result.velocity_used,
        **_conventions_record(conv, result.inputs_digest),
        "d": result.inputs_digest.d,
    }
    print("record " + json.dumps(record))


def _load_params(args) -> HardwareParams:
    if args.config is not None:
        return load_config(args.config)
    return PRESET_PARAMS


def _cmd_bound(args) -> int:
    params = _load_params(args)
    source = args.velocity_source if args.velocity is None else args.velocity
    conv = Conventions(log_base=args.log_base, depth_exponent=args.depth_exponent,
                       velocity_source=source)
    if args.kind == "naive":
        n_max = bounds.naive_max_qubits(params.a, params.delta_t,
                                        params.c_max, conv.log_base)
        print(f"naive causality bound: N <= {n_max:.6e} "
              f"(a={params.a:g} m, delta_t={params.delta_t:g} s, "
              f"c={params.c_max:g} m/s, log_base={conv.log_base})")
        return EXIT_OK
    bound = (bounds.teleport_hybrid_max_qubits if args.kind == "teleport"
             else bounds.qram_max_qubits)
    _print_bound(bound(params, conv))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.preset is not None:
        preset = fig3_grid if args.preset == "fig3" else fig4_grid
        grid = preset(args.depth_exponent, args.log_base)
    else:
        if not args.axis:
            raise ParamsError("custom sweep needs --axis")
        grid = SweepGrid(
            axes=tuple(_parse_axis(a) for a in args.axis),
            fixed=_load_params(args),
            conventions=Conventions(log_base=args.log_base,
                                    depth_exponent=args.depth_exponent),
            dims=tuple(int(x) for x in args.dims.split(",")))
    n = run_sweep(grid, args.out)
    print(f"wrote {n} rows to {args.out}")
    return EXIT_OK


def _parse_axis(text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 5:
        raise ParamsError("axis format: name:lo:hi:points:lin|log")
    name, lo, hi, points, scale = parts
    if scale not in ("lin", "log"):
        raise ParamsError("axis scale must be lin or log")
    return AxisSpec(name=name, lo=float(lo), hi=float(hi),
                    points=int(points), log=scale == "log")


CONE_HEADER = ("r", "t_arrival", "commutator_peak")


def _cmd_lightcone(args) -> int:
    lam = tuple(float(x) for x in args.lam.split(","))
    spec = lattice.LatticeSpec(d=args.d, L=args.L, lam=lam, m=args.m, a=args.a)
    r_max = args.r_max if args.r_max is not None else spec.L // 2 - spec.nu
    scan = lattice.measure_light_cone(spec, threshold=args.threshold,
                                      t_max=args.t_max, r_max=r_max,
                                      dt=args.dt, fit_r_min=args.fit_r_min)
    gv = lattice.max_group_velocity(spec)
    bound = lattice.lr_bound_velocity(spec)
    if args.out:
        write_csv(args.out, {"threshold": scan.threshold, "t_max": scan.t_max,
                             "dt": scan.dt, "d": spec.d, "L": spec.L,
                             "lam": args.lam, "m": spec.m},
                  CONE_HEADER, [(c.r, c.t_arrival, c.peak) for c in scan.rows])
    fitted = scan.fitted_velocity_lattice
    print(f"fitted velocity:     {fitted:.6g} sites/s "
          f"({scan.fitted_velocity_physical:.6g} m/s)")
    print(f"group velocity max:  {gv.lattice_units:.6g} sites/s "
          f"({gv.physical:.6g} m/s)")
    print(f"commutator bound:    {bound:.6g} sites/s")
    print(f"fit diagnostics:     intercept {scan.fit_intercept:.6g} sites, "
          f"rms residual {scan.fit_residual:.3g} sites, "
          f"{scan.n_no_arrival} of {len(scan.rows)} distances without arrival")
    ok = fitted <= bound
    print("PASS: fitted velocity below bound" if ok
          else "FAIL: fitted velocity exceeds bound")
    return EXIT_OK if ok else EXIT_VERIFY


def print_retrieval_table(rows) -> None:
    """The ``address expected read fidelity`` table of retrieval rows."""
    print("address expected read fidelity")
    for row in rows:
        print(f"{row.address:7d} {row.expected:8d} {row.read:4d} {row.fidelity:.12f}")


def _cmd_qramsim(args) -> int:
    if args.seed < 0:
        raise qram.QramError(f"seed must be >= 0, got {args.seed}")
    if args.db is not None:
        db = qram.read_database(args.db)
    elif args.random_db:
        if args.N is None:
            raise qram.QramError("--random-db needs --N")
        db = qram.random_database(args.N, seed=args.seed)
    else:
        raise qram.QramError("need --db or --random-db with --N")
    if args.N is not None and db.N != args.N:
        raise qram.QramError(f"database length {db.N} != N={args.N}")
    if args.address != "all":
        try:
            address = int(args.address)
        except ValueError:
            raise qram.QramError("address must be 'all' or an integer, "
                                 f"got {args.address!r}") from None
        if not 0 <= address < db.N:
            raise qram.QramError(f"address {address} out of range for N={db.N}")
        basis = np.zeros(db.N, dtype=complex)
        basis[address] = 1.0
        result = qram.simulate_query(db, basis, args.g1, args.g2)
        row = result.table[0]
        print_retrieval_table([row])
        ok = row.read == row.expected and result.fidelity >= 1.0 - 1e-9
        return EXIT_OK if ok else EXIT_RETRIEVAL

    report = qram.verify_retrieval(db, g1=args.g1, g2=args.g2, seed=args.seed)
    print_retrieval_table(report.rows)
    print(f"min fidelity: {report.min_fidelity:.12f}")
    if report.failures:
        for failure in report.failures:
            print(f"MISMATCH {failure}")
        return EXIT_RETRIEVAL
    print("PASS: all addresses retrieved")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qram-bounds",
        description="Causality capacity bounds for bucket-brigade quantum "
                    "RAM, with constructive lattice and gate-level checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_conventions(p, default_p=2):
        p.add_argument("--log-base", default="natural", choices=("natural", "2"))
        p.add_argument("--depth-exponent", type=int, default=default_p,
                       help="p in T ~ tau0 log^p N")

    p = sub.add_parser("bound", help="evaluate a single capacity bound")
    p.add_argument("--kind", choices=("naive", "qram", "teleport"), default="qram")
    p.add_argument("--config", help="hardware config file (key = value)")
    p.add_argument("--velocity", type=float,
                   help="explicit per-axis velocity in m/s")
    p.add_argument("--velocity-source", default="lieb_robinson",
                   choices=("lieb_robinson", "qft", "group"))
    add_conventions(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("sweep", help="write a capacity-bound CSV over a grid")
    p.add_argument("--preset", choices=("fig3", "fig4"))
    p.add_argument("--axis", action="append",
                   help="name:lo:hi:points:lin|log (velocity, g, or v2)")
    p.add_argument("--dims", default="1", help="comma list of dimensions")
    p.add_argument("--config", help="hardware config for custom sweeps")
    p.add_argument("--out", required=True)
    add_conventions(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("lightcone", help="measure an empirical light cone")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--L", type=int, default=400)
    p.add_argument("--lam", default="1.0", help="comma list of couplings")
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--t-max", type=float, default=220.0)
    p.add_argument("--r-max", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--fit-r-min", type=int, default=1)
    p.add_argument("--out", help="CSV path for (r, t_arrival, peak) rows")
    p.set_defaults(func=_cmd_lightcone)

    p = sub.add_parser("qramsim", help="simulate retrieval on a database")
    p.add_argument("--db", help="text file of 0/1 characters, length N")
    p.add_argument("--N", type=int, help="database size for --random-db")
    p.add_argument("--random-db", action="store_true")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--address", default="all", help="'all' or a basis address")
    p.add_argument("--g1", type=float, default=math.pi)
    p.add_argument("--g2", type=float, default=math.pi)
    p.set_defaults(func=_cmd_qramsim)

    p = sub.add_parser("verify", help="run all module property suites")
    p.set_defaults(func=lambda args: verify.run_verify())
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Every refusal of its input, whether a library
    error (all subclass ValueError) or an unreadable or unwritable file,
    ends here as one ``error:`` line and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
