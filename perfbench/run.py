#!/usr/bin/env python3
"""Benchmark of qram-bounds: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload {cones,capacity,retrieval,verify}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src. The
process repeats timed passes of the workload for S seconds and checks every
output. It prints a metric table, then as its last line one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 passes alternate between untraced
and traced, and the metrics are per layer, taken from the traced passes.
"""
from __future__ import annotations

import os

# BLAS and OpenMP threads: fixed, at most nproc, set before numpy loads
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_PROBES = 3        # set-ups timed in fresh processes; setup_s is their median
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
YARDSTICK_EVERY_S = 0.1     # operation time between two yardstick samples
YARDSTICK_REPEATS = 3
YARDSTICK_NOMINAL_S = 6.5e-4  # yardstick time that defines the reference speed


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cones", "capacity", "retrieval", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's self-tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (times setup_s)")
    return p.parse_args(argv)


def check_source() -> None:
    if not (SRC / "qram_bounds" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC}; run from a checkout")


def import_library():
    """Import the checkout's workloads and library, never an installed copy."""
    check_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qram_bounds
    if Path(qram_bounds.__file__).resolve().parent != SRC / "qram_bounds":
        raise SystemExit(f"error: imported {qram_bounds.__file__}, not {SRC}")
    import workloads
    return workloads


def set_up(args, tmp: Path):
    """Import, draw the inputs and run one warm-up pass; the work counted in
    setup_s. A warm-up with a wrong output ends the run."""
    workloads = import_library()
    wl = workloads.build(args.workload, args.seed, tmp, args.tiny)
    _, _, wrong = wl.check(wl.run_pass())
    if wrong:
        raise SystemExit("error: warm-up pass produced a wrong output")
    return wl


def probe_setup(args) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
    return elapsed


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest order statistic with TAIL_BEYOND samples beyond it, and
    its percentile label; with fewer than 2*TAIL_BEYOND + 1 samples that
    would lie below the median, so the median is reported instead."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(xs), f"p50 (n={n}, too few for a tail)"
    k = n - 1 - TAIL_BEYOND
    return xs[k], f"p{100.0 * k / (n - 1):.0f} (n={n})"


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qram_bounds").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def layer_metrics(pass_stats: list[dict], wl) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: per traced pass, median over the traced passes."""
    def med(name, field):
        return statistics.median(s.get(name, {}).get(field, 0) for s in pass_stats)

    def per_call(name, scale):
        calls = med(name, "calls")
        return scale * med(name, "total_s") / calls if calls else 0.0

    m: dict[str, tuple[float, str]] = {}

    def add(name, fields):
        for field in fields:
            key = {"bytes": "bytes_computed"}.get(field, field)
            unit = {"calls": "count", "self_s": "s", "errors": "count",
                    "points": "count", "bytes": "B"}[field]
            m[f"{name}.{key}"] = (med(name, field), unit)

    lc = "lattice.measure_light_cone"
    add(lc, ("calls", "self_s"))
    site_steps = wl.work.get("site_steps", 0)
    m[f"{lc}.ns_per_site_step"] = (
        1e9 * med(lc, "total_s") / site_steps if site_steps and med(lc, "calls") else 0.0,
        "ns")
    add("lattice.fft", ("calls", "points", "self_s", "bytes"))
    add("lattice.max_group_velocity", ("self_s",))
    for fn in ("normal_modes", "propagate", "propagate_ode", "coupling_matrix",
               "weyl_commutator_norm"):
        add(f"lattice.{fn}", ("calls", "self_s"))
    add("bounds.fixed_point_solve", ("calls", "self_s", "errors"))
    m["bounds.fixed_point_solve.us_per_call"] = (per_call("bounds.fixed_point_solve", 1e6), "us")
    add("bounds.qram_max_qubits", ("self_s",))
    add("params.validate", ("calls", "self_s"))
    add("cli.run_sweep", ("self_s",))
    add("cli.main", ("self_s",))
    for fn in ("apply_unitary", "cswap_composite", "swap_unitary"):
        add(f"gates.{fn}", ("calls", "self_s"))
    m["gates.apply_unitary.us_per_call"] = (per_call("gates.apply_unitary", 1e6), "us")
    add("gates.gauge_equivalent", ("self_s",))
    for fn in ("simulate_query", "verify_retrieval", "schedule_initialization",
               "schedule_query", "total_time"):
        add(f"qram.{fn}", ("calls", "self_s"))
    m["qram.simulate_query.ms_per_call"] = (per_call("qram.simulate_query", 1e3), "ms")
    for suite in ("params", "bounds", "lattice", "gates", "qram"):
        add(f"verify.{suite}_suite", ("self_s",))
    return m


def yardstick() -> tuple[float, float]:
    """(wall, cpu) seconds of a fixed mix of interpreted Python and numpy
    work: the fastest of YARDSTICK_REPEATS runs, so that an interrupt does
    not count, and the CPU time of all of them. It never changes with the
    library, so its slowdown measures how fast the machine runs at that
    moment."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 4096)
    c0 = time.process_time()
    best = math.inf
    for _ in range(YARDSTICK_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(5000):
            acc += i * i
        for _ in range(2):
            np.fft.ifft(np.cos(3.0 * x))
        best = min(best, time.perf_counter() - t0)
    return best, time.process_time() - c0


def timed_pass(wl) -> tuple[list, float, float, float]:
    """One pass: (outputs, wall s, CPU s, machine slowdown). The yardstick
    runs before the first operation, after every YARDSTICK_EVERY_S of
    operation time and after the last one; its time is not pass time."""
    samples = [yardstick()]
    op_s = []
    since = 0.0

    def after_op(seconds):
        nonlocal since
        op_s.append(seconds)
        since += seconds
        if since >= YARDSTICK_EVERY_S:
            samples.append(yardstick())
            since = 0.0

    c0 = time.process_time()
    outputs = wl.run_pass(after_op)
    if since > 0.0:
        samples.append(yardstick())
    cpu = time.process_time() - c0 - sum(c for _, c in samples[1:])
    slowdown = statistics.fmean(w for w, _ in samples) / YARDSTICK_NOMINAL_S
    return outputs, sum(op_s), cpu, slowdown


def measure(args, wl) -> dict:
    """Timed passes until --seconds have elapsed. Pass times are divided by
    the machine slowdown measured around them."""
    from spans import Tracer, summarize

    tracer = Tracer() if args.trace else None
    res = dict(wall=[], raw_wall=[], cpu=[], rate=[], slowdown=[], traced_wall=[],
               uncovered=[], stats=[], attempted=0, failed=0, wrong=False,
               last_spans=[])
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        outputs, wall, cpu, slowdown = timed_pass(wl)
        if traced:
            tracer.uninstall()
        attempted, failed, wrong = wl.check(outputs)
        res["attempted"] += attempted
        res["failed"] += failed
        res["wrong"] = res["wrong"] or wrong
        if traced:
            spans = tracer.take()
            stats, top_s = summarize(spans)
            res["traced_wall"].append(wall / slowdown)
            res["uncovered"].append(1.0 - top_s / wall)
            res["stats"].append(stats)
            res["last_spans"] = spans
        else:
            res["wall"].append(wall / slowdown)
            res["raw_wall"].append(wall)
            res["cpu"].append(cpu / slowdown)
            res["rate"].append((attempted - failed) / (wall / slowdown))
            res["slowdown"].append(slowdown)
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or res["stats"]):
            return res


def write_spans(spans: list[list], workload: str, seed: int) -> Path:
    """The spans of the last traced pass, one JSON array per line:
    [index, parent, name, start_s, end_s, errored]."""
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.jsonl"
    t0 = spans[0][1] if spans else 0.0
    with path.open("w") as fh:
        for i, rec in enumerate(spans):
            fh.write(json.dumps([i, rec[3], rec[0], rec[1] - t0, rec[2] - t0, rec[4]]) + "\n")
    return path


Row = tuple[float, str, str]   # value, unit, better


def per_layer_rows(args, wl, res: dict) -> dict[str, Row]:
    rows = {name: (value, unit, "lower")
            for name, (value, unit) in layer_metrics(res["stats"], wl).items()}
    overhead = statistics.median(res["traced_wall"]) - statistics.median(res["wall"])
    rows["trace.overhead_s"] = (overhead, "s", "lower")
    rows["trace.uncovered_share"] = (statistics.median(res["uncovered"]), "ratio", "lower")
    seen = {name: statistics.median(s.get(name, {}).get("calls", 0) for s in res["stats"])
            for name in wl.expected_calls}
    mismatched = [n for n, c in wl.expected_calls.items() if seen[n] != c]
    rows["trace.count_mismatches"] = (len(mismatched), "count", "lower")
    for name, expected in wl.expected_calls.items():
        print(f"calls per pass {name}: traced {seen[name]:g}, by hand {expected}"
              + ("  MISMATCH" if name in mismatched else ""))
    path = write_spans(res["last_spans"], args.workload, args.seed)
    print(f"spans of the last traced pass: {path.relative_to(ROOT)}")
    return rows


def end_to_end_rows(res: dict, setup_s: list[float], setup_raw: list[float]) -> dict[str, Row]:
    print(f"setup_s is the median of {[round(x, 4) for x in setup_s]}")
    print(f"unscaled: pass wall p50 {statistics.median(res['raw_wall']):.6g} s, "
          f"set-ups {[round(x, 4) for x in setup_raw]} s; machine slowdown p50 "
          f"{statistics.median(res['slowdown']):.4g} (yardstick / {YARDSTICK_NOMINAL_S:g} s)")
    return {
        "setup_s": (statistics.median(setup_s), "s", "lower"),
        "pass_s_p50": (statistics.median(res["wall"]), "s", "lower"),
        "ops_per_s": (statistics.median(res["rate"]), "1/s", "higher"),
        "cpu_s_p50": (statistics.median(res["cpu"]), "s", "lower"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "lower"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            set_up(args, Path(tmp))
            print("ready", flush=True)
        return 0

    check_source()
    yardstick()  # loads numpy before the first sample
    setup_raw, setup_s = [], []
    for _ in range(0 if args.trace else SETUP_PROBES):
        before = yardstick()[0]
        setup_raw.append(probe_setup(args))
        slowdown = (before + yardstick()[0]) / (2.0 * YARDSTICK_NOMINAL_S)
        setup_s.append(setup_raw[-1] / slowdown)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = set_up(args, Path(tmp))
        res = measure(args, wl)

    import numpy as np
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "numpy": np.__version__,
        "python": platform.python_version(), "git_revision": git_revision(),
        "source_digest": source_digest(), "inputs_digest": wl.inputs,
        "work_per_pass": wl.work,
    }
    print("info " + json.dumps(info))
    if wl.diagnostic is not None:
        print(wl.diagnostic())

    rows = (per_layer_rows(args, wl, res) if args.trace
            else end_to_end_rows(res, setup_s, setup_raw))
    passes = len(res["wall"]) + len(res["stats"])
    error_rate = res["failed"] / res["attempted"]
    print(f"{'metric':40s} {'value':>14s} unit   better")
    for name, (value, unit, better) in rows.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} {better}")
    # printed, not declared: error_rate is 0 on every workload and the tail
    # spreads too widely between runs to carry a bound
    if not args.trace:
        tail_s, tail_label = tail(res["wall"])
        print(f"{'pass_s_tail':40s} {tail_s:14.6g} {'s':6s} lower  ({tail_label})")
    print(f"{'error_rate':40s} {error_rate:14.6g} {'ratio':6s} lower"
          f"  ({res['failed']} of {res['attempted']} operations in {passes} passes)")
    print(json.dumps({
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in rows.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
