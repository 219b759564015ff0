"""Self-tests of the benchmark. None of them gates on a timing.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from qram_bounds import bounds, cli, params  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_the_contract_schema(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["cones", "capacity", "retrieval"])
def test_seed_changes_inputs_but_not_work_size(workload, tmp_path):
    a = workloads.build(workload, 1, tmp_path)
    b = workloads.build(workload, 2, tmp_path)
    assert a.inputs != b.inputs
    assert a.work == b.work
    assert a.expected_calls == b.expected_calls


def test_verify_workload_ignores_the_seed(tmp_path):
    assert workloads.build("verify", 1, tmp_path).inputs == \
        workloads.build("verify", 2, tmp_path).inputs


def test_spans_nest_and_wrappers_come_off(tmp_path):
    originals = (params.validate, bounds.validate, cli.validate, np.fft.ifftn)
    wl = workloads.build("retrieval", 3, tmp_path, tiny=True)
    with spans.Tracer() as tracer:
        wl.run_pass()
        cli.main(["lightcone", "--L", "32", "--r-max", "8", "--t-max", "4",
                  "--dt", "0.05"])
        recorded = tracer.take()
    assert (params.validate, bounds.validate, cli.validate, np.fft.ifftn) == originals
    assert recorded
    children: dict[int, list[list]] = {}
    for rec in recorded:
        assert rec[spans.START] <= rec[spans.END]
        parent = rec[spans.PARENT]
        if parent >= 0:
            outer = recorded[parent]
            assert outer[spans.START] <= rec[spans.START]
            assert rec[spans.END] <= outer[spans.END]
        children.setdefault(parent, []).append(rec)
    for siblings in children.values():
        for left, right in zip(siblings, siblings[1:]):
            assert left[spans.END] <= right[spans.START]
    stats, top_s = spans.summarize(recorded)
    assert all(s["self_s"] >= 0.0 for s in stats.values())
    assert stats["lattice.fft"]["calls"] > 0
    assert 0.0 < top_s


def test_wrappers_see_every_call_site(tmp_path):
    with spans.Tracer() as tracer:
        for preset in ("fig3", "fig4"):
            assert cli.main(["sweep", "--preset", preset,
                             "--out", str(tmp_path / f"{preset}.csv")]) == 0
        sweeps, _ = spans.summarize(tracer.take())
        assert cli.main(["qramsim", "--random-db", "--N", "8", "--seed", "7"]) == 0
        query, _ = spans.summarize(tracer.take())
        for d, L, r_max in ((1, 32, 8), (2, 16, 4)):
            cli.main(["lightcone", "--d", str(d), "--L", str(L),
                      "--r-max", str(r_max), "--t-max", "4", "--dt", "0.05"])
        scans, _ = spans.summarize(tracer.take())
    assert sweeps["bounds.qram_max_qubits"]["calls"] == 50 * 3 + 40 * 40
    assert query["qram.simulate_query"]["calls"] == 8 + 10
    assert query["gates.apply_unitary"]["calls"] == 14 * 18
    assert scans["lattice.measure_light_cone"]["calls"] == 2
    assert scans["lattice.normal_modes"]["calls"] == 2
    # params.validate is also reached through its by-name imports
    assert sweeps["params.validate"]["calls"] > 1750


def test_reference_rows_match_committed_results():
    results = ROOT / "results"
    if not results.is_dir():
        pytest.skip("no results/ in this checkout")
    for ref in sorted(workloads.REFERENCE.glob("*.csv")):
        assert ref.read_bytes() == (results / ref.name).read_bytes()


def test_sweep_check_counts_each_differing_cell(tmp_path):
    op = workloads._sweep(tmp_path, "fig3", workloads.REFERENCE / "fig3_velocity_sweep.csv")
    assert op.units == 150
    code, text = op.call()
    assert op.check((code, text)) == (0, False)
    out = tmp_path / "fig3.csv"
    lines = out.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = "1"
    lines[5] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    assert op.check((code, text)) == (1, True)


def test_solver_root_rule():
    # p=3, R=0.8 has roots 10.9 and 40.8, yet the iteration raises
    with pytest.raises(bounds.FixedPointError) as exc:
        bounds.fixed_point_solve(0.8, 3)
    assert workloads.check_root(0.8, 3, "natural", exc.value) == (True, False)
    N = bounds.fixed_point_solve(1e6, 2)
    assert workloads.check_root(1e6, 2, "natural", N) == (False, False)
    assert workloads.check_root(1e6, 2, "natural", N * 1.001) == (True, True)
    below = bounds.BoundError("no fixed point")
    assert workloads.check_root(0.7, 3, "natural", below) == (False, False)


def test_solver_points_sit_at_or_above_the_lowest_R():
    points = workloads.solver_points(np.random.default_rng(0), 2000)
    assert len(points) == 2000
    for R, p, base in points:
        assert workloads._threshold_R(p, base) <= workloads.lowest_R(p, base) <= R
        assert R <= workloads.R_MAX
    near = sum(R <= 2 * workloads.lowest_R(p, base) for R, p, base in points)
    assert near >= 1000


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_solver_point_fails(seed):
    op = workloads._solver(workloads.solver_points(np.random.default_rng(seed), 2000))
    assert op.check(op.call()) == (0, False)


def test_start_limit_marks_where_the_iteration_starts_below_the_small_root():
    # e^2 / 2^3 for p=3, natural log: N0 = e^2 is then the small root itself
    assert workloads.lowest_R(3, "natural") == pytest.approx(math.e ** 2 / 8)
    assert workloads.lowest_R(1, "natural") == workloads._threshold_R(1, "natural")
    assert "of 250 points" in workloads.false_no_root_probe()


def test_closed_form_time_matches_verify_suite_value():
    assert workloads.closed_form_time(1, math.pi, math.pi) == pytest.approx(4.5)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "verify", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
