"""Process-parallel kernel-stream simulation (``REPRO_WORKERS=N``).

A kernel simulation is a pure function of content: the kernel's pricing
arrays and row stream, the :class:`~repro.gpusim.config.GPUConfig`, the
dispatch overhead and the cache-model tier.  That makes the cold
simulations of one :func:`~repro.gpusim.executor.simulate_kernels` call
embarrassingly parallel:

1. the parent resolves memo hits and deduplicates cold kernels by
   fingerprint (tuner rounds and ablation variants share kernels);
2. unique cold kernels are sharded round-robin across a persistent
   ``fork`` process pool;
3. results are merged **in submission order** — worker completion order
   never influences the output — and written back into the parent's
   :data:`~repro.gpusim.memo.KERNEL_MEMO`, so a parallel run leaves the
   process in the same memo state as a serial one.

Every worker runs exactly the same float arithmetic the serial path
runs, so ``REPRO_WORKERS=4`` is bit-identical to ``REPRO_WORKERS=1``
(asserted by ``tests/test_parallel.py``).  Workers receive the
performance switches explicitly with each task — a long-lived forked
child must not trust state snapshotted at pool creation.

The pool is created lazily, reused across calls, and torn down at
interpreter exit.  On platforms without ``fork`` the engine degrades to
serial execution.
"""

from __future__ import annotations

import atexit
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..perf import PERF, cache_model_mode, fastpath_enabled, memo_enabled
from .config import GPUConfig
from .kernel import KernelSpec
from .metrics import KernelStats, copy_stats

__all__ = [
    "simulate_kernels_parallel",
    "simulate_partition_streams",
    "presimulate_plans",
    "shutdown_pool",
]


_POOL = None
_POOL_WORKERS = 0


def _get_pool(n_workers: int):
    """Persistent fork-based pool, rebuilt when the size changes."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS == n_workers:
        return _POOL
    shutdown_pool()
    try:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        ctx = get_context("fork")
        _POOL = ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx)
        _POOL_WORKERS = n_workers
    except (ValueError, OSError):  # no fork on this platform
        _POOL = None
        _POOL_WORKERS = 0
    return _POOL


def shutdown_pool() -> None:
    """Tear down the worker pool (idempotent)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def _simulate_chunk(payload):
    """Worker entry: simulate a chunk of cold kernels.

    Runs in a forked child.  The performance switches travel with the
    payload so a pool outliving a ``configure()`` call stays coherent
    with its parent.
    """
    (indices, kernels, config, dispatch_overhead,
     fastpath, memo, mode) = payload
    from ..perf import PERF as WORKER_PERF
    from ..perf import configure
    from .executor import _simulate_kernel_cold

    configure(fastpath=fastpath, memo=memo, cache_model=mode)
    snap = WORKER_PERF.snapshot()
    t0 = time.perf_counter()
    stats = [
        (i, _simulate_kernel_cold(k, config, dispatch_overhead))
        for i, k in zip(indices, kernels)
    ]
    busy = time.perf_counter() - t0
    delta = WORKER_PERF.delta_since(snap)["seconds"]
    return stats, {
        "busy_seconds": busy,
        "cache_model_seconds": delta.get("cache_model", 0.0),
        "schedule_seconds": delta.get("schedule", 0.0),
        "kernels": len(stats),
    }


def _restore(stats: KernelStats, kernel: KernelSpec) -> KernelStats:
    """Per-caller copy with the display name restored (memo contract)."""
    return copy_stats(stats, name=kernel.name)


def simulate_kernels_parallel(
    kernels: Sequence[KernelSpec],
    config: GPUConfig,
    dispatch_overhead: float,
    n_workers: int,
) -> Tuple[List[KernelStats], Dict[str, object]]:
    """Simulate ``kernels`` across ``n_workers`` processes.

    Returns the per-kernel stats in input order plus an observability
    dict for ``RunReport.extra["perf"]["parallel"]``.  Falls back to the
    serial path when the pool is unavailable.
    """
    from .executor import simulate_kernel
    from .memo import KERNEL_MEMO

    kernels = list(kernels)
    results: List[Optional[KernelStats]] = [None] * len(kernels)
    use_memo = memo_enabled()

    # Resolve memo hits and deduplicate the cold set by fingerprint.
    cold_idx: List[int] = []
    first_of: Dict[str, int] = {}
    dupes: Dict[int, List[int]] = {}
    fingerprints: List[Optional[str]] = [None] * len(kernels)
    for i, k in enumerate(kernels):
        if not use_memo:
            cold_idx.append(i)
            continue
        fp = KERNEL_MEMO.fingerprint(k, config, dispatch_overhead)
        fingerprints[i] = fp
        cached = KERNEL_MEMO.get(fp)
        if cached is not None:
            PERF.count("kernel_memo_hit")
            results[i] = _restore(cached, k)
            continue
        owner = first_of.get(fp)
        if owner is None:
            first_of[fp] = i
            cold_idx.append(i)
        else:
            dupes.setdefault(owner, []).append(i)

    pool = _get_pool(n_workers) if cold_idx else None
    if pool is None and cold_idx:
        # Fork unavailable: keep the exact serial semantics.
        return (
            [
                r if r is not None
                else simulate_kernel(kernels[i], config, dispatch_overhead)
                for i, r in enumerate(results)
            ],
            {"workers": 1, "fallback": "serial"},
        )

    worker_info: List[Dict[str, object]] = []
    wall = 0.0
    if cold_idx:
        fastpath, mode = fastpath_enabled(), cache_model_mode()
        chunks = [cold_idx[w::n_workers] for w in range(n_workers)]
        chunks = [c for c in chunks if c]
        t0 = time.perf_counter()
        futures = [
            pool.submit(_simulate_chunk, (
                chunk,
                [kernels[i] for i in chunk],
                config,
                dispatch_overhead,
                fastpath,
                use_memo,
                mode,
            ))
            for chunk in chunks
        ]
        # Merge in submission order: worker scheduling cannot perturb
        # the output or the memo-population order.
        for fut in futures:
            chunk_stats, info = fut.result()
            worker_info.append(info)
            for i, stats in chunk_stats:
                PERF.count("kernel_memo_miss")
                if use_memo:
                    KERNEL_MEMO.put(fingerprints[i], stats)
                results[i] = _restore(stats, kernels[i])
                for j in dupes.get(i, ()):
                    PERF.count("kernel_memo_hit")
                    results[j] = _restore(stats, kernels[j])
        wall = time.perf_counter() - t0
        # Fold the workers' stage time into the parent registry so the
        # usual cache_model/schedule attribution stays populated (summed
        # CPU seconds across workers, not wall-clock).
        for info in worker_info:
            PERF.add_seconds(
                "cache_model", float(info["cache_model_seconds"])
            )
            PERF.add_seconds("schedule", float(info["schedule_seconds"]))

    busy = sum(float(i["busy_seconds"]) for i in worker_info)
    PERF.add_seconds("pool_wall", wall)
    PERF.add_seconds("pool_busy", busy)
    info = {
        "workers": n_workers,
        "cold_kernels": len(cold_idx),
        "deduped_kernels": sum(len(v) for v in dupes.values()),
        "pool_wall_seconds": round(wall, 6),
        "worker_busy_seconds": [
            round(float(i["busy_seconds"]), 6) for i in worker_info
        ],
        "pool_utilization": (
            round(busy / (n_workers * wall), 4) if wall > 0 else 0.0
        ),
    }
    return _fill_serial(results, kernels, config, dispatch_overhead), info


def simulate_partition_streams(
    streams: Sequence[Sequence[KernelSpec]],
    config: GPUConfig,
    dispatch_overhead: float,
    n_workers: int,
) -> Tuple[List[List[KernelStats]], Optional[Dict[str, object]]]:
    """Simulate per-partition compute streams, one pool chunk per stream.

    The multi-device executor's partitions are independent until their
    transfer edges, so each partition's cold kernels become one worker
    task — partitions simulate in parallel processes while the dedupe
    and memo-writeback semantics of :func:`simulate_kernels_parallel`
    are preserved (partitions of a symmetric shard share most kernel
    fingerprints, so later partitions ride the first one's memo
    entries).  Returns per-partition stats lists plus the parallel info
    dict (``None`` when the run was serial).
    """
    from .executor import simulate_kernel
    from .memo import KERNEL_MEMO

    streams = [list(s) for s in streams]
    flat: List[KernelSpec] = [k for s in streams for k in s]
    bounds: List[int] = []
    off = 0
    for s in streams:
        bounds.append(off)
        off += len(s)
    bounds.append(off)

    def split(results: List[KernelStats]) -> List[List[KernelStats]]:
        return [
            results[bounds[p] : bounds[p + 1]]
            for p in range(len(streams))
        ]

    pool = _get_pool(n_workers) if n_workers > 1 and flat else None
    if pool is None:
        return (
            split([
                simulate_kernel(k, config, dispatch_overhead)
                for k in flat
            ]),
            None,
        )

    use_memo = memo_enabled()
    results: List[Optional[KernelStats]] = [None] * len(flat)
    cold_by_part: List[List[int]] = [[] for _ in streams]
    first_of: Dict[str, int] = {}
    dupes: Dict[int, List[int]] = {}
    fingerprints: List[Optional[str]] = [None] * len(flat)
    for p in range(len(streams)):
        for i in range(bounds[p], bounds[p + 1]):
            k = flat[i]
            if not use_memo:
                cold_by_part[p].append(i)
                continue
            fp = KERNEL_MEMO.fingerprint(k, config, dispatch_overhead)
            fingerprints[i] = fp
            cached = KERNEL_MEMO.get(fp)
            if cached is not None:
                PERF.count("kernel_memo_hit")
                results[i] = _restore(cached, k)
                continue
            owner = first_of.get(fp)
            if owner is None:
                first_of[fp] = i
                cold_by_part[p].append(i)
            else:
                dupes.setdefault(owner, []).append(i)

    chunks = [c for c in cold_by_part if c]
    worker_info: List[Dict[str, object]] = []
    wall = 0.0
    if chunks:
        fastpath, mode = fastpath_enabled(), cache_model_mode()
        t0 = time.perf_counter()
        futures = [
            pool.submit(_simulate_chunk, (
                chunk,
                [flat[i] for i in chunk],
                config,
                dispatch_overhead,
                fastpath,
                use_memo,
                mode,
            ))
            for chunk in chunks
        ]
        for fut in futures:
            chunk_stats, info = fut.result()
            worker_info.append(info)
            for i, stats in chunk_stats:
                PERF.count("kernel_memo_miss")
                if use_memo:
                    KERNEL_MEMO.put(fingerprints[i], stats)
                results[i] = _restore(stats, flat[i])
                for j in dupes.get(i, ()):
                    PERF.count("kernel_memo_hit")
                    results[j] = _restore(stats, flat[j])
        wall = time.perf_counter() - t0
        for info in worker_info:
            PERF.add_seconds(
                "cache_model", float(info["cache_model_seconds"])
            )
            PERF.add_seconds("schedule", float(info["schedule_seconds"]))

    busy = sum(float(i["busy_seconds"]) for i in worker_info)
    PERF.add_seconds("pool_wall", wall)
    PERF.add_seconds("pool_busy", busy)
    cold_total = sum(len(c) for c in chunks)
    info = {
        "workers": n_workers,
        "partitions": len(streams),
        "cold_kernels": cold_total,
        "deduped_kernels": sum(len(v) for v in dupes.values()),
        "pool_wall_seconds": round(wall, 6),
        "worker_busy_seconds": [
            round(float(i["busy_seconds"]), 6) for i in worker_info
        ],
        "pool_utilization": (
            round(busy / (n_workers * wall), 4) if wall > 0 else 0.0
        ),
    }
    return split(
        _fill_serial(results, flat, config, dispatch_overhead)
    ), info


def presimulate_plans(
    plans: Sequence[object],
    n_workers: int,
    config: Optional[GPUConfig] = None,
) -> Dict[str, object]:
    """Warm :data:`KERNEL_MEMO` for a round of cold plans in one pool pass.

    The serving layer's pooled-execution stage: when a flush round
    resolves several batches whose plans have never been simulated, the
    cold kernels of *all* of them are deduplicated and sharded across
    the PR-6 worker pool in a single invocation — cross-batch dedup that
    per-batch execution could never see.  The subsequent per-batch
    ``simulate_plan`` calls then run entirely against the warmed memo,
    so the simulated numbers are bit-identical to serial execution (the
    memo write-back semantics of :func:`simulate_kernels_parallel`).

    Plans may carry different dispatch overheads (per-framework); each
    (config, dispatch) group is fingerprinted separately since the
    dispatch cost enters the memo key.  No-op (returns ``{}``) when the
    memo is disabled — without a memo there is nothing to warm.
    """
    if not memo_enabled() or n_workers <= 1:
        return {}
    groups: Dict[Tuple[int, float], List[object]] = {}
    for plan in plans:
        cfg = config if config is not None else plan.gpu_config
        groups.setdefault((id(cfg), plan.dispatch_overhead), []).append(
            (cfg, plan)
        )
    info: Dict[str, object] = {"groups": 0, "cold_kernels": 0,
                               "deduped_kernels": 0}
    for entries in groups.values():
        cfg = entries[0][0]
        dispatch = entries[0][1].dispatch_overhead
        kernels = [k for _, plan in entries for k in plan.kernels]
        if len(kernels) < 2:
            continue
        _, ginfo = simulate_kernels_parallel(
            kernels, cfg, dispatch, n_workers
        )
        info["groups"] += 1
        info["cold_kernels"] += int(ginfo.get("cold_kernels", 0))
        info["deduped_kernels"] += int(ginfo.get("deduped_kernels", 0))
    return info


def _fill_serial(results, kernels, config, dispatch_overhead):
    """Defensive: simulate any kernel the pool did not cover."""
    from .executor import simulate_kernel

    return [
        r if r is not None
        else simulate_kernel(kernels[i], config, dispatch_overhead)
        for i, r in enumerate(results)
    ]
