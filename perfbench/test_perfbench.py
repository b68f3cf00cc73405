"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench -q``).

The end-to-end cases run the real command on the ``tiny`` scale, a few
seconds per workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402


def _bench(workload: str, trace: int, seed: int = 0, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = _bench(workload, trace=0)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == (
        run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in run.END_TO_END.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    proc = _bench(workload, trace=1)
    result = _result(proc)
    assert result["correct"] is True
    assert {k: m["unit"] for k, m in result["metrics"].items()} == (
        run.PER_LAYER)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert 0 <= metrics["trace.uncovered_share"] < 0.5
    assert metrics["trace.overhead"] > 0
    trace = os.path.join(run.BUILD_DIR, f"trace-{workload}-seed0.json")
    with open(trace) as fh:
        events = json.load(fh)["traceEvents"]
    assert any(e["name"] == "measure" for e in events)


def test_simulated_metrics_repeat_exactly():
    for workload in run.WORKLOADS:
        first = _result(_bench(workload, trace=0, seed=3))
        second = _result(_bench(workload, trace=0, seed=3))
        assert (first["metrics"]["sim_speedup"]["value"]
                == second["metrics"]["sim_speedup"]["value"])


def test_recorded_hashes_match_at_seed_zero():
    # expected.json pins the tiny scale too; a mismatch fails the run.
    for workload in run.WORKLOADS:
        assert workloads.expected_hash(workload, "tiny", 0) is not None
        assert _result(_bench(workload, trace=0))["failed"] == 0


def test_serve_defect_probe_fails_exactly_one_request():
    state = workloads.serve_trace_setup(0, "tiny", NullTracer())
    assert workloads.serve_probe(state["server"], state["probe"]) == 1


@pytest.mark.parametrize("name", sorted(workloads.DATASET_CALLS))
def test_dataset_table_rebuilds_the_shipped_graphs(name):
    from repro.graph import generators, load_dataset

    fn, args, kwargs, seed = workloads.DATASET_CALLS[name]
    rebuilt = getattr(generators, fn)(*args, **kwargs, seed=seed, name=name)
    shipped = load_dataset(name)
    assert np.array_equal(rebuilt.indptr, shipped.indptr)
    assert np.array_equal(rebuilt.indices, shipped.indices)


def test_other_seeds_rebuild_datasets_with_derived_seeds():
    a = workloads.build_dataset("ddi", 1)
    b = workloads.build_dataset("ddi", 1)
    shipped = workloads.build_dataset("ddi", 0)
    assert np.array_equal(a.indices, b.indices)
    assert a.num_nodes == shipped.num_nodes
    assert not np.array_equal(a.indices, shipped.indices)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
        with tracer.span("inner"):
            sum(range(20000))
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.self_seconds["outer"] == pytest.approx(
        tracer.inclusive["outer"] - tracer.inclusive["inner"])
    outer = [e for e in tracer.events if e[0] == "outer"][0]
    assert all(e[2] == outer[1] for e in tracer.events if e[0] == "inner")


def test_patch_wraps_where_the_caller_looks_up_and_restores():
    import repro.core.tuner as tuner

    original = tuner.simulate_kernel
    tracer = Tracer()
    tracer.patch([("repro.core.tuner", "simulate_kernel", "k")])
    assert tuner.simulate_kernel is not original
    tracer.unpatch()
    assert tuner.simulate_kernel is original


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("serve-trace", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
