"""One fresh benchmark process: set up a workload, optionally measure it.

Launched by ``run.py`` with a pinned environment; prints one JSON object
as its last stdout line.  Modes:

* ``setup`` — imports and input construction only (a ``setup_s`` sample);
* ``pass`` — setup, then the measured phase with tracing off;
* ``traced`` — the same with the layer entry points wrapped in spans;
  writes a Chrome trace and reports the per-layer metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import PATCH_SITES, NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _rate(counts: dict, kind: str) -> float:
    hits = counts.get(f"{kind}_hit", 0) + counts.get(f"{kind}_disk_hit", 0)
    total = hits + counts.get(f"{kind}_miss", 0)
    return hits / total if total else 0.0


def layer_metrics(tracer: Tracer, root: str, counts: dict) -> dict:
    """Per-span self seconds and calls, plus the memo-tier hit rates."""
    out = {}
    for name, calls in tracer.calls.items():
        out[f"{name}.s"] = tracer.self_seconds[name]
        out[f"{name}.calls"] = calls
    out.update({
        "core.plan_cache.hit_rate": _rate(counts, "plan_cache"),
        "gpusim.kernel_memo.hit_rate": _rate(counts, "kernel_memo"),
        "gpusim.plan_memo.hit_rate": _rate(counts, "plan_memo"),
        # Share of the measured phase no top-level span covers.
        "trace.uncovered_share": (
            tracer.self_seconds[root] / tracer.inclusive[root]),
    })
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "pass", "traced"))
    ap.add_argument("--scale", default="full")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    setup, measure = WORKLOADS[args.workload]
    if args.mode == "traced":
        tracer = Tracer()
        tracer.patch(PATCH_SITES)
    else:
        tracer = NullTracer()
    state = setup(args.seed, args.scale, tracer)
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s}
    if args.mode != "setup":
        from repro.perf import PERF

        gc.collect()
        before = dict(PERF.counts)
        t0 = time.perf_counter()
        with tracer.span("measure"):
            result = measure(state, tracer)
        wall_s = time.perf_counter() - t0
        counts = {k: v - before.get(k, 0) for k, v in PERF.counts.items()}
        out.update(result, wall_s=wall_s)
        if args.mode == "traced":
            tracer.unpatch()
            out["layers"].update(layer_metrics(tracer, "measure", counts))
            if args.trace_out:
                tracer.write(args.trace_out)
    # ru_maxrss is KiB on Linux.
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
