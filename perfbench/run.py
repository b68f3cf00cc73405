"""Repository benchmark: run one workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 30 --trace 0

Every sample comes from a fresh single-threaded process
(``perfbench/worker.py``) started with a pinned environment, so each run
starts cold.  With ``--trace 0`` the run prints the end-to-end metrics:
``setup_s`` is the median over several setups (imports, dataset builds,
trace sampling), the others are medians over the measured passes that
fit in ``--seconds`` (at least one).  With ``--trace 1`` it runs one
untraced and one traced pass and prints the per-layer metrics, the
tracing overhead and the share of measured wall time no top-level span
covers; the Chrome trace lands in ``.bench_build/perfbench/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero,
with no result printed, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("paper-grid", "serve-trace", "shard-scale")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "sim_speedup": "x",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "graph.load_dataset.s": "s",
    "graph.khop_sampled_subgraph.s": "s",
    "core.tune.s": "s",
    "core.tune.calls": "count",
    "core.tune.simulate_kernel.s": "s",
    "core.tune.simulate_kernel.calls": "count",
    "core.locality_aware_schedule.s": "s",
    "core.lower_plan.s": "s",
    "core.plan_cache.hit_rate": "ratio",
    "frameworks.compile.s": "s",
    "frameworks.compile.calls": "count",
    "frameworks.execute.s": "s",
    "gpusim.simulate_kernels.s": "s",
    "gpusim.kernel_memo.hit_rate": "ratio",
    "gpusim.simulate_plan.s": "s",
    "gpusim.plan_memo.hit_rate": "ratio",
    "gpusim.memo.array_digest.s": "s",
    "gpusim.memo.fingerprint.calls": "count",
    "gpusim.build_shard_streams.s": "s",
    "gpusim.run_multidev.s": "s",
    "serve.plan_batches.s": "s",
    "serve.flush.s": "s",
    "serve.batches": "count",
    "serve.batch_dedup_rate": "ratio",
    "serve.plan_cache_hit_rate": "ratio",
    "serve.latency_p50_ms": "ms",
    "serve.latency_p99_ms": "ms",
    "serve.latency_samples": "count",
    "serve.probe_failed": "count",
    "shard.partition_graph.s": "s",
    "shard.replication_factor": "ratio",
    "analysis.check_happens_before_multidev.s": "s",
    "analysis.lint_shard.s": "s",
    "analysis.findings": "count",
    "sim.kernels": "count",
    "sim.l2_hit_rate": "ratio",
    "sim.transfer_fraction": "ratio",
    "sim.paper_speedup_ratio": "ratio",
    "trace.overhead": "ratio",
    "trace.uncovered_share": "ratio",
}

#: Setups sampled per run (the measured passes' own setups count).
SETUP_SAMPLES = 3
#: A run must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env(tmp_dir: str) -> dict:
    """The pinned environment of every benchmark process.

    ``REPRO_*`` switches are dropped (defaults everywhere, no disk tiers
    for plans or kernel statistics, so every process starts cold); hash
    seeding, BLAS/OpenMP threads and glibc's allocator thresholds (as in
    ``benchmarks/bench_speed.py``) are pinned; the native lane's ``.so``
    cache (``tempfile.gettempdir()``) lives inside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
        "MALLOC_MMAP_THRESHOLD_": "1073741824",
        "MALLOC_TRIM_THRESHOLD_": "1073741824",
        "TMPDIR": tmp_dir,
    })
    return env


class Runner:
    """Launches worker processes under one deadline."""

    def __init__(self, env: dict, deadline: float) -> None:
        self.env = env
        self.deadline = deadline

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, args) -> str:
        try:
            proc = subprocess.run(
                [sys.executable, *args], env=self.env, cwd=ROOT,
                capture_output=True, text=True,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out: {args}") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise BenchError(
                f"worker exited with {proc.returncode}: {args}"
            )
        return proc.stdout

    def worker(self, workload: str, seed: int, mode: str, scale: str,
               trace_out: str = None) -> dict:
        args = [os.path.join(HERE, "worker.py"), "--workload", workload,
                "--seed", str(seed), "--mode", mode, "--scale", scale]
        if trace_out:
            args += ["--trace-out", trace_out]
        return json.loads(self.run(args).splitlines()[-1])

    def build_native(self) -> None:
        """Build (or load the cached) native lane before any timing."""
        self.run(["-c", "from repro.gpusim import _native; "
                        "_native.available()"])


def _checks_line(result: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(result["checks"].items()))


def run_untraced(runner: Runner, workload: str, seed: int, seconds: float,
                 scale: str) -> dict:
    passes = []
    measured = 0.0
    while not passes or (
        measured + statistics.mean(p["wall_s"] for p in passes) <= seconds
        and runner.remaining() > 3 * max(p["setup_s"] + p["wall_s"]
                                         for p in passes)
    ):
        passes.append(runner.worker(workload, seed, "pass", scale))
        measured += passes[-1]["wall_s"]
    setups = [p["setup_s"] for p in passes]
    for _ in range(SETUP_SAMPLES - len(passes)):
        setups.append(runner.worker(workload, seed, "setup", scale)["setup_s"])

    hashes = {p["sim_hash"] for p in passes}
    failed = sum(p["failed"] for p in passes) + (len(hashes) != 1)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ops_per_s": statistics.median(
            p["ops"] / p["wall_s"] for p in passes),
        "sim_speedup": passes[0]["sim_speedup"],
    }
    first = passes[0]
    print(f"perfbench {workload} seed={seed} scale={scale}: "
          f"{len(passes)} measured pass(es), {len(setups)} setups")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {metrics[name]:.6g} {unit}")
    print(f"  pass wall_s: {[round(p['wall_s'], 3) for p in passes]}; "
          f"setup_s: {[round(s, 3) for s in setups]}")
    if workload == "paper-grid":
        print(f"  sim_speedup_vs_dgl {metrics['sim_speedup']:.6g} x; "
              f"over Fig. 7's on the same cells (model error): "
              f"{first['layers']['sim.paper_speedup_ratio']:.6g}")
    if workload == "shard-scale":
        print(f"  sim_scaling_speedup {metrics['sim_speedup']:.6g} x")
    if "latency" in first:
        lat = first["latency"]
        print(f"  serve_rps        {metrics['ops_per_s']:.6g} 1/s")
        print(f"  latency_p50_ms   {lat['p50_ms']:.6g} ms "
              f"(n={lat['samples']})")
        print(f"  latency_p99_ms   {lat['p99_ms']:.6g} ms "
              f"(n={lat['samples']})")
        print(f"  defect probe (pyg x sage_lstm, own window): "
              f"{first['layers']['serve.probe_failed']} failed request(s)")
    print(f"  sim_hash {sorted(hashes)}; passes agree: {len(hashes) == 1}")
    print(f"  checks: {_checks_line(first)}")
    return {
        "correct": failed == 0,
        "attempted": sum(p["ops"] for p in passes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in END_TO_END.items()},
    }


def run_traced(runner: Runner, workload: str, seed: int,
               scale: str) -> dict:
    os.makedirs(BUILD_DIR, exist_ok=True)
    trace_out = os.path.join(BUILD_DIR, f"trace-{workload}-seed{seed}.json")
    base = runner.worker(workload, seed, "pass", scale)
    traced = runner.worker(workload, seed, "traced", scale, trace_out)
    layers = dict(traced["layers"])
    layers["trace.overhead"] = traced["wall_s"] / base["wall_s"]
    # Tracing must not change what the program computes.
    failed = base["failed"] + traced["failed"] + (
        base["sim_hash"] != traced["sim_hash"])
    print(f"perfbench {workload} seed={seed} scale={scale}: traced run, "
          f"trace written to {os.path.relpath(trace_out, ROOT)}")
    print(f"  untraced wall_s {base['wall_s']:.6g} s, traced wall_s "
          f"{traced['wall_s']:.6g} s, overhead "
          f"{layers['trace.overhead']:.4f}x")
    print(f"  measured wall not covered by top-level spans: "
          f"{100 * layers['trace.uncovered_share']:.2f}%")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<42} {layers.get(name, 0):.6g} {unit}")
    print(f"  checks: {_checks_line(traced)}")
    return {
        "correct": failed == 0,
        "attempted": base["ops"] + traced["ops"],
        "failed": failed,
        "metrics": {k: {"value": layers.get(k, 0), "unit": u}
                    for k, u in PER_LAYER.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long run for the tests")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program under src/repro", file=sys.stderr)
        return 2
    tmp_dir = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    runner = Runner(child_env(tmp_dir), deadline)
    try:
        runner.build_native()
        if args.trace:
            result = run_traced(runner, args.workload, args.seed,
                                args.scale)
        else:
            result = run_untraced(runner, args.workload, args.seed,
                                  args.seconds, args.scale)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
