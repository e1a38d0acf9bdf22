"""Traced and untraced runs agree with each other and with the seed
reference; the runner honours its output contract."""

import json
import shutil
import subprocess
import sys

import pytest

from entbench import tracer, workloads

BENCH = workloads.BENCH_DIR
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(workload):
    (OUT / "figures").mkdir(parents=True, exist_ok=True)
    tally = workloads.Tally()
    values, trc, _ = workloads.traced(workload, 5, OUT, tally)
    assert tally.mismatches == []
    assert trc.spans and values["bounds.pair_measures_sq.calls"] > 0


def test_figure_that_writes_nothing_is_a_mismatch(monkeypatch, tmp_path):
    ref = workloads.FixedReference.load()
    (tmp_path / "figures").mkdir()
    for i, data in ref.figures.items():   # stale files that would match
        (tmp_path / "figures" / f"fig{i}.csv").write_bytes(data)
    monkeypatch.setattr(workloads.cli, "run_figure", lambda spec: None)
    tally = workloads.Tally()
    _, outputs = workloads.figure_pass(ref, tmp_path, tally)
    assert outputs == [None, None, None]
    assert (tally.attempted, tally.failed) == (3, 3)
    assert not tally.correct


def test_seed_failures_are_the_bell_optimize_calls():
    ref = workloads.FixedReference.load()
    failing = sorted(k for k, v in ref.calls.items() if "seed_error" in v)
    assert failing == sorted(f"optimize bell-ab-{n}q {f}"
                             for n in range(3, 7) for f in "AB")
    assert all(v["closed_form"] == [pytest.approx(1.0, abs=1e-12)]
               for v in ref.calls.values()
               if "seed_error" in v)


def test_reference_covers_every_call_and_pool_batch():
    corpus = workloads.load_corpus()
    keys = {c.key for c in workloads.fixed_calls(corpus)}
    assert keys == set(workloads.FixedReference.load().calls)
    for name in workloads.VERIFY:
        ref = workloads.VerifyReference.load(name)
        assert len(ref.violations) == len(ref.worst_slack) == workloads.POOL_SIZE


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in tracer.PER_LAYER]
    sys.path.insert(0, str(BENCH))
    import run
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_runner_prints_the_result_line(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "2",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_runner_fails_without_the_sources():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", "verify-4q", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
