"""The benchmark's three workloads: seeded inputs, measured phase, checks.

Each workload is a pair of functions.  ``setup(seed, scale, tracer)``
imports the program and builds the inputs (datasets, request traces);
``measure(state, tracer)`` is the timed phase and returns the operation
counts, the simulated results and their checks.  The program is driven
only through its public entry points: ``Framework.run_model`` (which
goes through ``compile`` and ``execute``), ``PlanServer`` with
``repro.serve.replay`` and ``repro.shard.run_sharded``.

Why each workload exists (see README.md for the layer map):

* ``paper-grid`` — the paper's headline evaluation (Fig. 7), cold: the
  compile pipeline (tuner, locality-aware schedule, lowering) dominates
  and every plan-cache access is a miss.
* ``serve-trace`` — a multi-tenant serving replay: plan-cache hits,
  plan-memo replays and fingerprinting dominate; the tuner stays small.
* ``shard-scale`` — multi-device runs: partitioning and the multi-device
  replay dominate; neither the tuner nor the serve layer runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: The shipped datasets' generator calls (``repro.graph.datasets``):
#: (generator, positional args, keyword args, shipped seed).  A non-zero
#: workload seed rebuilds each dataset with the same call and a seed
#: derived from it; at seed 0 the shipped ``load_dataset`` graphs are
#: used (the test suite pins that this table rebuilds them exactly).
DATASET_CALLS: Dict[str, Tuple[str, tuple, dict, int]] = {
    "arxiv": ("power_law_graph", (17_000, 10.0),
              {"exponent": 1.9, "max_degree": 2_600}, 101),
    "collab": ("power_law_graph", (23_600, 10.0),
               {"exponent": 2.9, "max_degree": 70}, 102),
    "citation": ("power_law_graph", (100_000, 10.0),
                 {"exponent": 3.0, "max_degree": 170}, 103),
    "ddi": ("dense_graph", (1_300, 0.095), {}, 104),
    "protein": ("clustered_graph", (10_000, 280.0),
                {"num_communities": 24, "intra_prob": 0.92}, 105),
    "ppa": ("power_law_graph", (14_400, 78.0),
            {"exponent": 2.4, "max_degree": 1_700}, 106),
    "reddit": ("power_law_graph", (11_600, 330.0),
               {"exponent": 2.0, "max_degree": 5_500}, 107),
    "products": ("power_law_graph", (60_000, 42.0),
                 {"exponent": 2.1, "max_degree": 4_400}, 108),
}

GRID_MODELS = ("gcn", "gat", "sage_lstm")
GRID_FRAMEWORKS = ("dgl", "pyg", "roc", "ours")
SERVE_WINDOW = 64

#: Workload sizes.  ``tiny`` exists for the benchmark's own tests.
SCALES = {
    "full": {
        "grid_models": GRID_MODELS,
        "grid_datasets": tuple(DATASET_CALLS),
        "serve_requests": 20_000,
        "serve_datasets": ("arxiv", "ddi", "products"),
        "serve_pool": 8,
        "shard_datasets": ("reddit", "products"),
        "shard_methods": ("edge_cut", "vertex_cut"),
        "shard_parts": (2, 4, 8),
        "shard_models": ("gcn", "gat"),
    },
    "tiny": {
        "grid_models": ("gcn", "sage_lstm"),
        "grid_datasets": ("ddi",),
        "serve_requests": 192,
        "serve_datasets": ("ddi",),
        "serve_pool": 2,
        "shard_datasets": ("ddi",),
        "shard_methods": ("edge_cut",),
        "shard_parts": (2,),
        "shard_models": ("gcn",),
    },
}


def derived_seed(name: str, seed: int) -> int:
    """Generator seed of dataset ``name`` under workload ``seed``."""
    return DATASET_CALLS[name][3] + 1000 * seed


def build_dataset(name: str, seed: int):
    """Dataset ``name`` for workload ``seed`` (shipped graph at seed 0)."""
    from repro import graph

    if seed == 0:
        return graph.load_dataset(name)
    from repro.graph import generators

    fn, args, kwargs, _ = DATASET_CALLS[name]
    return getattr(generators, fn)(
        *args, **kwargs, seed=derived_seed(name, seed), name=name
    )


def result_hash(obj) -> str:
    """Content hash of simulated results (floats serialize exactly)."""
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def expected_hash(workload: str, scale: str, seed: int):
    """The simulated-result hash recorded for this seed, or None."""
    with open(EXPECTED_PATH) as fh:
        table = json.load(fh)
    return table.get(scale, {}).get(workload, {}).get(str(seed))


def _hash_check(checks: Dict[str, object], workload: str, scale: str,
                seed: int, digest: str) -> int:
    """Record the hash comparison; returns 1 on a mismatch, else 0."""
    expected = expected_hash(workload, scale, seed)
    # Seeds without a recorded hash are checked for determinism by the
    # launcher (every pass of a run must agree) instead.
    checks["sim_hash_matches_record"] = (
        None if expected is None else expected == digest
    )
    return int(expected is not None and expected != digest)


# ----------------------------------------------------------------------
# paper-grid
# ----------------------------------------------------------------------

def paper_grid_setup(seed: int, scale: str, tracer) -> dict:
    from repro.bench import bench_config, cached_runtime
    from repro.frameworks import default_frameworks

    size = SCALES[scale]
    graphs = {}
    for name in size["grid_datasets"]:
        with tracer.span("graph.load_dataset"):
            graphs[name] = build_dataset(name, seed)
    frameworks = default_frameworks()
    # As in repro.bench.fig7_overall: ours resolves its offline
    # schedule through the shared per-graph analysis tier.
    frameworks["ours"] = cached_runtime()
    return {"seed": seed, "scale": scale, "graphs": graphs,
            "frameworks": frameworks, "config": bench_config(),
            "models": size["grid_models"]}


def fig7_tables() -> dict:
    """Fig. 7's per-model tables: framework -> dataset -> ms (None: OOM)."""
    from repro.bench import paper_expected as pe

    return {"gcn": pe.FIG7_GCN_MS, "gat": pe.FIG7_GAT_MS,
            "sage_lstm": pe.FIG7_SAGE_MS}


def fig7_label(model: str, framework: str, dataset: str) -> str:
    """The paper's Fig. 7 cell kind: 'ms', 'OOM' or 'X'."""
    table = fig7_tables()[model]
    if framework not in table:
        return "X"
    return "OOM" if table[framework][dataset] is None else "ms"


def paper_grid_measure(state: dict, tracer) -> dict:
    from repro.frameworks import NotSupported
    from repro.gpusim.memory import SimulatedOOM

    cells: Dict[str, Dict[str, Dict[str, object]]] = {}
    failed = 0
    kernels = row_hits = row_accesses = 0
    for model in state["models"]:
        for fname in GRID_FRAMEWORKS:
            fw = state["frameworks"][fname]
            for dname, graph in state["graphs"].items():
                try:
                    with tracer.span("frameworks.run_model"):
                        res = fw.run_model(model, graph, state["config"])
                except NotSupported:
                    cell = "X"
                except SimulatedOOM:
                    cell = "OOM"
                except Exception as exc:  # counted, not raised
                    cell = f"ERR:{type(exc).__name__}"
                    failed += 1
                else:
                    cell = res.time_ms
                    kernels += res.report.num_kernels
                    for k in res.report.kernels:
                        row_hits += k.row_hits
                        row_accesses += k.row_accesses
                cells.setdefault(model, {}).setdefault(fname, {})[
                    dname] = cell
    checks: Dict[str, object] = {}
    # Fig. 7's OOM/X pattern: structural (X) at every seed, and the
    # full pattern at seed 0 where the datasets are the shipped ones.
    mismatched = []
    for model, rows in cells.items():
        for fname, row in rows.items():
            for dname, cell in row.items():
                got = cell if isinstance(cell, str) else "ms"
                want = fig7_label(model, fname, dname)
                strict = state["seed"] == 0 or "X" in (got, want)
                if strict and got != want:
                    mismatched.append(f"{model}/{fname}/{dname}")
    checks["fig7_pattern_mismatches"] = mismatched
    failed += len(mismatched)
    digest = result_hash(cells)
    failed += _hash_check(checks, "paper-grid", state["scale"],
                          state["seed"], digest)
    ratios, paper_ratios = [], []
    fig7 = fig7_tables()
    for model, rows in cells.items():
        for dname in state["graphs"]:
            dgl, ours = rows["dgl"][dname], rows["ours"][dname]
            if isinstance(dgl, float) and isinstance(ours, float):
                ratios.append(dgl / ours)
                p_dgl = fig7[model]["dgl"][dname]
                p_ours = fig7[model]["ours"][dname]
                if p_dgl is not None and p_ours is not None:
                    paper_ratios.append((dgl / ours, p_dgl / p_ours))
    speedup = geomean(ratios)
    paper_ratio = (
        geomean([s for s, _ in paper_ratios])
        / geomean([p for _, p in paper_ratios])
    )
    return {
        "ops": sum(len(r) for rows in cells.values() for r in rows.values()),
        "failed": failed,
        "sim_hash": digest,
        "sim_speedup": speedup,
        "checks": checks,
        "layers": {
            "sim.kernels": kernels,
            "sim.l2_hit_rate": row_hits / row_accesses,
            "sim.paper_speedup_ratio": paper_ratio,
        },
    }


# ----------------------------------------------------------------------
# serve-trace
# ----------------------------------------------------------------------

def serve_trace_setup(seed: int, scale: str, tracer) -> dict:
    from repro.serve import InferenceRequest, PlanServer
    from repro.serve.replay import TraceSpec, synthetic_trace

    size = SCALES[scale]
    spec = TraceSpec(
        num_requests=size["serve_requests"],
        datasets=size["serve_datasets"],
        models=("gcn", "gat"),
        pool_per_dataset=size["serve_pool"],
        seed=seed,
    )
    requests = synthetic_trace(spec)
    # The defect probe: admission checks only the model name, so pyg x
    # sage_lstm is admitted and then fails to compile inside flush.
    probe = InferenceRequest(
        model="sage_lstm", graph=requests[0].graph, framework="pyg",
        tenant="tenant-c", request_id="probe-pyg-sage_lstm",
    )
    return {"seed": seed, "scale": scale, "requests": requests,
            "probe": probe, "server": PlanServer()}


def serve_probe(server, probe) -> int:
    """Submit the defect probe in a window of its own; failed requests.

    ``PlanServer.flush`` lets the framework's ``NotSupported`` escape,
    so the whole window is lost: the probe counts as one failed request.
    """
    from repro.frameworks import NotSupported

    try:
        responses = server.serve([probe])
    except NotSupported:
        return 1
    return sum(1 for r in responses if not r.ok)


def serve_trace_measure(state: dict, tracer) -> dict:
    from repro.serve.replay import replay

    server, requests = state["server"], state["requests"]
    summaries = []
    for start in range(0, len(requests), SERVE_WINDOW):
        with tracer.span("serve.replay"):
            summaries.extend(replay(
                server, requests[start:start + SERVE_WINDOW],
                window=SERVE_WINDOW,
            ))
    stats = server.stats()
    probe_failed = serve_probe(server, state["probe"])
    failed = sum(1 for s in summaries if s["status"] != "ok")
    # Serving is deterministic: every request for one (shape, model,
    # framework) must report the same simulated result.
    results: Dict[tuple, set] = {}
    for req, summ in zip(requests, summaries):
        if summ["status"] == "ok":
            key = (id(req.graph), req.model, req.framework)
            results.setdefault(key, set()).add(
                (summ["time_ms"], summ["num_kernels"], summ["plan_id"])
            )
    inconsistent = sum(1 for v in results.values() if len(v) != 1)
    failed += inconsistent
    checks: Dict[str, object] = {"inconsistent_results": inconsistent}
    digest = result_hash([
        [s["request_id"], s["status"], s.get("time_ms"),
         s.get("num_kernels"), s.get("plan_id"), s.get("cache_hit"),
         s.get("batch_size")]
        for s in summaries
    ])
    failed += _hash_check(checks, "serve-trace", state["scale"],
                          state["seed"], digest)
    times = {key: next(iter(v))[0] for key, v in results.items()}
    ratios = [
        times[(g, m, "dgl")] / times[(g, m, "ours")]
        for (g, m, fw) in times
        if fw == "dgl" and (g, m, "ours") in times
    ]
    latency = stats["latency"]
    return {
        "ops": len(requests),
        "failed": failed,
        "sim_hash": digest,
        "sim_speedup": geomean(ratios),
        "checks": checks,
        "latency": {
            "p50_ms": latency["p50"] * 1e3,
            "p99_ms": latency["p99"] * 1e3,
            "samples": latency["count"],
        },
        "layers": {
            "serve.batches": stats["batches"],
            "serve.batch_dedup_rate": stats["batch_dedup_rate"],
            "serve.plan_cache_hit_rate": stats["plan_cache_hit_rate"],
            "serve.latency_p50_ms": latency["p50"] * 1e3,
            "serve.latency_p99_ms": latency["p99"] * 1e3,
            "serve.latency_samples": latency["count"],
            "serve.probe_failed": probe_failed,
        },
    }


# ----------------------------------------------------------------------
# shard-scale
# ----------------------------------------------------------------------

def shard_scale_setup(seed: int, scale: str, tracer) -> dict:
    from repro.bench import bench_config
    from repro.frameworks import default_frameworks

    size = SCALES[scale]
    graphs = {}
    for name in size["shard_datasets"]:
        with tracer.span("graph.load_dataset"):
            graphs[name] = build_dataset(name, seed)
    return {"seed": seed, "scale": scale, "graphs": graphs,
            "framework": default_frameworks()["dgl"],
            "config": bench_config(), "size": size}


def shard_scale_measure(state: dict, tracer) -> dict:
    from repro import shard as shard_mod

    size = state["size"]
    records, ratios, replication = [], [], []
    failed = error_runs = findings = 0
    transfer_s = serial_s = 0.0
    for gname, graph in state["graphs"].items():
        for method in size["shard_methods"]:
            for parts in size["shard_parts"]:
                with tracer.span("shard.partition_graph"):
                    plan = shard_mod.partition_graph(graph, parts, method)
                replication.append(plan.replication_factor)
                for model in size["shard_models"]:
                    try:
                        with tracer.span("shard.run_sharded"):
                            res = shard_mod.run_sharded(
                                state["framework"], model, graph,
                                state["config"], num_parts=parts,
                                method=method, lint=True, shard=plan,
                            )
                    except Exception as exc:  # counted, not raised
                        failed += 1
                        records.append([gname, method, parts, model,
                                        f"ERR:{type(exc).__name__}"])
                        continue
                    perf = res.report.extra["perf"]["shard"]
                    # Error-severity HB/SH findings fail the run.
                    error_runs += bool(res.errors)
                    findings += len(res.findings)
                    ratios.append(perf["serial_seconds"]
                                  / perf["wall_seconds"])
                    serial_s += perf["serial_seconds"]
                    transfer_s += perf["cross_device"]["transfer_seconds"]
                    records.append([
                        gname, method, parts, model, perf["wall_seconds"],
                        perf["serial_seconds"],
                        perf["cross_device"]["transfer_bytes"],
                        sorted(f.code for f in res.findings),
                    ])
    failed += error_runs
    checks: Dict[str, object] = {"error_finding_runs": error_runs}
    digest = result_hash(records)
    failed += _hash_check(checks, "shard-scale", state["scale"],
                          state["seed"], digest)
    return {
        "ops": len(records),
        "failed": failed,
        "sim_hash": digest,
        "sim_speedup": geomean(ratios),
        "checks": checks,
        "layers": {
            "shard.replication_factor": sum(replication) / len(replication),
            "analysis.findings": findings,
            "sim.transfer_fraction": transfer_s / serial_s,
        },
    }


WORKLOADS = {
    "paper-grid": (paper_grid_setup, paper_grid_measure),
    "serve-trace": (serve_trace_setup, serve_trace_measure),
    "shard-scale": (shard_scale_setup, shard_scale_measure),
}
