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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import bounds, lattice, qram, verify
from .params import (Conventions, HardwareParams, ParamsError, load_config,
                     tau0)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_RETRIEVAL = 3

SOUND_SPEED = 6000.0  # m/s, typical solid

# Default operating point: micron spacing, millisecond stage time
# (g1 = g2 = 2000*pi so tau0 = 1e-3 s), and the coupling whose long-wave
# speed a*sqrt(lam/m) is SOUND_SPEED.
PRESET_PARAMS = HardwareParams(a=1e-6, delta_t=1e-3, g1=2000.0 * math.pi,
                               g2=2000.0 * math.pi, lam=((SOUND_SPEED / 1e-6) ** 2,),
                               m=1.0, d=1)

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
    returns the number of data rows. Each cell is one ``bounds.capacity``
    call. A dimension's record and named-source velocity, and the last
    coupling's tau0, are made when a cell first needs them, so that a cell
    meets the refusals of ``bounds.qram_max_qubits`` in the same order:
    dimension, tau0, velocity, capacity."""
    fixed, conv = grid.fixed, grid.conventions
    axis_cols = [ax.name for ax in grid.axes]
    meta = _conventions_record(conv, fixed, velocity_swept=any(
        AXIS_QUANTITY[name] == "velocity" for name in axis_cols))
    meta["dims"] = ",".join(str(d) for d in grid.dims)
    record = functools.cache(lambda d: replace(fixed, d=d))
    stage = functools.lru_cache(maxsize=1)(tau0)  # memory stays flat on a long g axis
    named = functools.cache(lambda d: bounds.capped_velocity(record(d), conv.velocity_source))
    rows = []
    for point in itertools.product(*(ax.values() for ax in grid.axes)):
        values = dict(zip(axis_cols, point))
        g1, g2 = values.get("g", fixed.g1), values.get("g", fixed.g2)
        v = math.sqrt(values["v2"]) if "v2" in values else values.get("velocity")
        cells = []
        for d in grid.dims:
            params, tau = record(d), stage(g1, g2)
            speed = named(d) if v is None else bounds.capped_velocity(params, v)
            cells.append(bounds.capacity(speed, tau, params.a, d, conv)[1])
        rows.append((*point, *cells))
    write_csv(out_path, meta,
              axis_cols + [f"max_qubits_d{d}" for d in grid.dims], rows)
    return len(rows)


def fig3_grid() -> SweepGrid:
    """Velocity axis up to the sound-speed scale, one capacity column per
    dimension, micron spacing and millisecond stage time."""
    return SweepGrid(
        axes=(AxisSpec("velocity", 1e2, SOUND_SPEED, 50, log=True),),
        fixed=PRESET_PARAMS,
        conventions=Conventions(),
        dims=(1, 2, 3),
    )


def fig4_grid() -> SweepGrid:
    """Coupling axis vs squared-speed-limit axis at millimeter spacing,
    1D capacity heat map."""
    return SweepGrid(
        axes=(AxisSpec("g", 1e-4, 1.0, 40, log=True),
              AxisSpec("v2", 1e2, SOUND_SPEED ** 2, 40, log=True)),
        fixed=replace(PRESET_PARAMS, a=1e-3),
        conventions=Conventions(),
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
    return PRESET_PARAMS if args.config is None else load_config(args.config)


def _cmd_bound(args) -> int:
    params = _load_params(args)
    if args.kind == "naive":   # p = 1 at c_max
        n_max = bounds.naive_max_qubits(params.a, params.delta_t,
                                        params.c_max, args.log_base)
        print(f"naive causality bound: N <= {n_max:.6e} "
              f"(a={params.a:g} m, delta_t={params.delta_t:g} s, "
              f"c={params.c_max:g} m/s, log_base={args.log_base})")
        return EXIT_OK
    # the --velocity row's source is its velocity, the teleport row's teleport-hybrid
    source = vars(args).get("velocity", getattr(args, "velocity_source", "teleport-hybrid"))
    _print_bound(bounds.qram_max_qubits(
        params, Conventions(args.log_base, args.depth_exponent, source)))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if "preset" in args:
        preset = fig3_grid if args.preset == "fig3" else fig4_grid
        grid = replace(preset(), conventions=Conventions(args.log_base, args.depth_exponent))
    else:
        if args.axis is None:
            raise ParamsError("custom sweep needs --axis")
        grid = SweepGrid(
            axes=tuple(_parse_axis(a) for a in args.axis),
            fixed=_load_params(args),
            conventions=Conventions(args.log_base, args.depth_exponent),
            dims=tuple(_parse_item("--dims", int, x) for x in args.dims.split(",")))
    n = run_sweep(grid, args.out)
    print(f"wrote {n} rows to {args.out}")
    return EXIT_OK


def _parse_item(flag: str, kind: type, item: str):
    """``kind(item)`` (float or int), refused by naming the flag and the item."""
    try:
        return kind(item)
    except ValueError:
        raise ParamsError(f"{flag} needs {'an int' if kind is int else 'a float'}"
                          f", got {item!r}") from None


def _parse_axis(text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 5:
        raise ParamsError("axis format: name:lo:hi:points:lin|log")
    name, lo, hi, points, scale = parts
    if scale not in ("lin", "log"):
        raise ParamsError("axis scale must be lin or log")
    return AxisSpec(name=name, lo=_parse_item("--axis lo", float, lo),
                    hi=_parse_item("--axis hi", float, hi),
                    points=_parse_item("--axis points", int, points),
                    log=scale == "log")


def _write_cone_csv(path: str | Path, scan: lattice.LightConeScan,
                    meta: dict) -> None:
    """The light-cone CSV: the caller's ``#`` meta line, then one
    (r, t_arrival, commutator_peak) row per distance of the scan."""
    write_csv(path, meta, ("r", "t_arrival", "commutator_peak"),
              [(c.r, c.t_arrival, c.peak) for c in scan.rows])


def _cone_passes(fitted: float, bound: float) -> bool:
    """The light-cone verdict: a fitted velocity passes at or below the bound."""
    return fitted <= bound


def _cmd_lightcone(args) -> int:
    lam = tuple(_parse_item("--lam", float, x) for x in args.lam.split(","))
    spec = lattice.LatticeSpec(d=args.d, L=args.L, lam=lam, m=args.m)
    if not math.isfinite(args.a):
        raise lattice.LatticeError("non-finite lattice spacing a")
    if args.a <= 0:
        raise lattice.LatticeError("nonpositive lattice spacing")
    r_max = args.r_max if args.r_max is not None else spec.L // 2 - spec.nu
    scan = lattice.measure_light_cone(spec, threshold=args.threshold,
                                      t_max=args.t_max, r_max=r_max,
                                      dt=args.dt, fit_r_min=args.fit_r_min)
    fitted = scan.fitted_velocity_lattice
    fitted_m_s = lattice.physical_velocity(args.a, fitted, "fitted velocity")
    gv = lattice.max_group_velocity(spec)
    gv_m_s = lattice.physical_velocity(args.a, gv, "group velocity")
    bound = lattice.lr_speed(spec.d, spec.lam, spec.m)
    if args.out:
        _write_cone_csv(args.out, scan, {
            "threshold": scan.threshold, "t_max": scan.t_max, "dt": scan.dt,
            "d": spec.d, "L": spec.L, "lam": args.lam, "m": spec.m})
    print(f"fitted velocity:     {fitted:.6g} sites/s ({fitted_m_s:.6g} m/s)")
    print(f"group velocity max:  {gv:.6g} sites/s ({gv_m_s:.6g} m/s)")
    print(f"commutator bound:    {bound:.6g} sites/s")
    print(f"fit diagnostics:     intercept {scan.fit_intercept:.6g} sites, "
          f"rms residual {scan.fit_residual:.3g} sites, "
          f"{scan.n_no_arrival} of {len(scan.rows)} distances without arrival")
    ok = _cone_passes(fitted, bound)
    print("PASS: fitted velocity below bound" if ok
          else "FAIL: fitted velocity exceeds bound")
    return EXIT_OK if ok else EXIT_VERIFY


def print_retrieval_table(report: qram.RetrievalReport) -> None:
    """The ``address expected read fidelity`` table of a retrieval report's
    columns, in one write."""
    lines = map("{:7d} {:8d} {:4d} {:.12f}".format, report.addresses.tolist(),
                report.expected.tolist(), report.read.tolist(),
                report.fidelity.tolist())
    print("\n".join(["address expected read fidelity", *lines]))


def _cmd_qramsim(args) -> int:
    if "db" in args:
        db = qram.read_database(args.db)
    elif args.N is None:
        raise qram.QramError("--random-db needs --N")
    else:
        db = qram.random_database(args.N, seed=args.seed)
    address = None
    if args.address != "all":
        try:
            address = int(args.address)
        except ValueError:
            raise qram.QramError("address must be 'all' or an integer, "
                                 f"got {args.address!r}") from None
    report = qram.verify_retrieval(db, address=address)
    print_retrieval_table(report)
    if address is not None:   # one address: the table alone
        return EXIT_OK if report.passed else EXIT_RETRIEVAL
    print(f"min fidelity: {report.min_fidelity:.12f}")
    if report.failures:
        for failure in report.failures:
            print(f"MISMATCH {failure}")
        return EXIT_RETRIEVAL
    print("PASS: all addresses retrieved")
    return EXIT_OK


# The value a flag takes when it is not given, as --help states it; the convention
# flags take the defaults of Conventions(). Any other flag takes None.
DEFAULTS = {"kind": "qram", **asdict(Conventions()), "dims": "1", "d": 1, "L": 400,
            "m": 1.0, "a": 1.0, "threshold": 1e-3, "t_max": 220.0, "fit_r_min": 1,
            "lam": "1.0", "seed": 7, "address": "all"}
# The flags each mode reads. A command runs its first mode whose flag is given
# (with the value named, as "--kind naive"), else the mode named after it.
MODES = {
    "bound": {"--kind naive": "kind config log_base",
              "--kind teleport": "kind config log_base depth_exponent",
              "--velocity": "kind config velocity log_base depth_exponent",
              "bound": "kind config velocity_source log_base depth_exponent"},
    "sweep": {"--preset": "preset out log_base depth_exponent",
              "sweep": "axis dims config out log_base depth_exponent"},
    "lightcone": {"lightcone": "d L m a threshold t_max r_max dt fit_r_min lam out"},
    "qramsim": {"--db": "db address", "--random-db": "random_db N seed address"},
    "verify": {"verify": ""},
}


def _mode(command: str, given: dict) -> str:
    """The mode of ``command`` that the ``given`` flags pick."""
    if {"db", "random_db"} <= given.keys():
        raise qram.QramError("--db and --random-db both give the database")
    for mode in MODES[command]:
        dest, _, value = mode[2:].replace("-", "_").partition(" ")
        if mode == command or dest in given and value in ("", given[dest]):
            return mode
    raise qram.QramError("need --db or --random-db with --N")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser; its namespaces hold only the flags given."""
    parser = argparse.ArgumentParser(
        prog="qram-bounds",
        description="Causality capacity bounds for bucket-brigade quantum "
                    "RAM, with constructive lattice and gate-level checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    def add_conventions(p):
        p.add_argument("--log-base", choices=("natural", "2"))
        p.add_argument("--depth-exponent", type=int,
                       help=f"p in T ~ tau0 log^p N (default {DEFAULTS['depth_exponent']})")

    p = add_parser("bound", help="evaluate a single capacity bound")
    p.add_argument("--kind", choices=("naive", "qram", "teleport"))
    p.add_argument("--config", help="hardware config file (key = value)")
    p.add_argument("--velocity", type=float,
                   help="explicit per-axis velocity in m/s")
    p.add_argument("--velocity-source", help=f"default {DEFAULTS['velocity_source']}",
                   choices=("lieb_robinson", "qft", "group"))
    add_conventions(p)
    p.set_defaults(func=_cmd_bound)

    p = add_parser("sweep", help="write a capacity-bound CSV over a grid")
    p.add_argument("--preset", choices=("fig3", "fig4"))
    p.add_argument("--axis", action="append",
                   help="name:lo:hi:points:lin|log (velocity, g, or v2)")
    p.add_argument("--dims", help="comma list of dimensions, default 1")
    p.add_argument("--config", help="hardware config for custom sweeps")
    p.add_argument("--out", required=True)
    add_conventions(p)
    p.set_defaults(func=_cmd_sweep)

    p = add_parser("lightcone", help="measure an empirical light cone")
    for flag, kind in (("--d", int), ("--L", int), ("--m", float), ("--a", float),
                       ("--threshold", float), ("--t-max", float), ("--r-max", int),
                       ("--dt", float), ("--fit-r-min", int)):
        p.add_argument(flag, type=kind)
    p.add_argument("--lam", help="comma list of couplings")
    p.add_argument("--out", help="CSV path for (r, t_arrival, peak) rows")
    p.set_defaults(func=_cmd_lightcone)

    p = add_parser("qramsim", help="simulate retrieval on a database")
    p.add_argument("--db", help="text file of 0/1 characters, length 2^n")
    p.add_argument("--N", type=int, help="database size for --random-db")
    p.add_argument("--random-db", action="store_true")
    p.add_argument("--seed", type=int, help="--random-db seed, default 7")
    p.add_argument("--address", help="'all' or a basis address")
    p.set_defaults(func=_cmd_qramsim)

    p = add_parser("verify", help="run all module property suites")
    p.set_defaults(func=lambda args: verify.run_verify())
    for p in sub.choices.values():   # a refusal names its flags in this order
        p.set_defaults(flags=[action.dest for action in p._actions])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand in the mode its flags pick. Every refusal of its
    input ends here as one ``error:`` line and exit code 2: a flag that mode
    ignores, a library error (each subclasses ValueError), or an unreadable
    or unwritable file."""
    given = vars(build_parser().parse_args(argv))
    command, func, flags = given.pop("command"), given.pop("func"), given.pop("flags")
    try:
        mode = _mode(command, given)
        row = MODES[command][mode].split()
        ignored = [f"--{dest.replace('_', '-')}" for dest in flags
                   if dest in given and dest not in row]
        if ignored:
            raise ParamsError(f"{mode} ignores {', '.join(ignored)}")
        return func(argparse.Namespace(**{dest: DEFAULTS.get(dest) for dest in row} | given))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
