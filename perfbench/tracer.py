"""In-memory span tracer for the traced benchmark run.

Spans are opened around calls into the program's layers: directly in the
benchmark's own code, and by wrapping public functions at the module
attribute their callers look them up through (``repro.frameworks.ours.tune``
rather than ``repro.core.tuner.tune``, since ``ours`` imported the name).
Nothing inside ``src/`` is edited.

Per span name the tracer keeps exact aggregates (calls, inclusive seconds,
self seconds).  Self time is a span's duration minus the time its child
spans cover, computed on the fly with a stack, so hot leaves called
hundreds of thousands of times cost two clock reads and a few adds each.
Individual events are kept for the Chrome trace only up to
``EVENTS_PER_NAME`` per name; the number dropped is written into the trace
metadata so a viewer never shows a silently truncated timeline as whole.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Chrome-trace events kept per span name (aggregates are always exact).
EVENTS_PER_NAME = 2000


class Tracer:
    """Nested spans with per-name aggregates and a bounded event log."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        # Open spans: [name, id, start, child_seconds].
        self._stack: List[list] = []
        self._next_id = 1
        self.calls: Dict[str, int] = {}
        self.inclusive: Dict[str, float] = {}
        self.self_seconds: Dict[str, float] = {}
        self.events: List[Tuple[str, int, Optional[int], float, float]] = []
        self.dropped: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def begin(self, name: str) -> None:
        self._stack.append([name, self._next_id, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        t1 = time.perf_counter()
        name, span_id, start, child = self._stack.pop()
        dur = t1 - start
        parent_id = None
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            parent_id = parent[1]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
        self.self_seconds[name] = (
            self.self_seconds.get(name, 0.0) + dur - child
        )
        if self.calls[name] <= EVENTS_PER_NAME:
            self.events.append((name, span_id, parent_id, start, t1))
        else:
            self.dropped[name] = self.dropped.get(name, 0) + 1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    # ------------------------------------------------------------------
    def patch(self, sites: Sequence[Tuple[str, str, str]]) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``)."""
        for module_name, attr, span_name in sites:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) else (
                getattr(owner, leaf)
            )
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(raw.__func__, span_name))
            else:
                wrapped = self.wrap(raw, span_name)
            self._patches.append((owner, leaf, raw))
            setattr(owner, leaf, wrapped)

    def unpatch(self) -> None:
        for owner, leaf, raw in reversed(self._patches):
            setattr(owner, leaf, raw)
        self._patches.clear()

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """Trace-event JSON (``chrome://tracing`` / Perfetto loadable)."""
        names = {}
        for name, span_id, _parent, _s, _e in self.events:
            names[span_id] = name
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - self.t0) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {
                    "id": span_id,
                    "parent_id": parent_id,
                    "parent": names.get(parent_id),
                },
            }
            for name, span_id, parent_id, start, end in self.events
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "events_per_name_cap": EVENTS_PER_NAME,
                "dropped_events": dict(sorted(self.dropped.items())),
                "spans": {
                    name: {
                        "calls": self.calls[name],
                        "inclusive_s": self.inclusive[name],
                        "self_s": self.self_seconds[name],
                    }
                    for name in sorted(self.calls)
                },
            },
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end()


class NullTracer:
    """The untraced run: spans cost one attribute lookup and nothing else."""

    def span(self, name: str) -> "NullTracer":
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


#: Layer entry points wrapped in the traced run:
#: (module the caller looks the name up in, attribute, span name).
PATCH_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.replay", "load_dataset", "graph.load_dataset"),
    ("repro.serve.replay", "khop_sampled_subgraph",
     "graph.khop_sampled_subgraph"),
    ("repro.frameworks.ours", "tune", "core.tune"),
    ("repro.core.tuner", "simulate_kernel", "core.tune.simulate_kernel"),
    ("repro.frameworks.ours", "locality_aware_schedule",
     "core.locality_aware_schedule"),
    ("repro.core.pipeline", "locality_aware_schedule",
     "core.locality_aware_schedule"),
    ("repro.frameworks.ours", "lower_plan", "core.lower_plan"),
    ("repro.frameworks.dgl_like", "lower_plan", "core.lower_plan"),
    ("repro.frameworks.base", "Framework.compile", "frameworks.compile"),
    ("repro.frameworks.base", "Framework.execute", "frameworks.execute"),
    ("repro.frameworks.base", "simulate_plan", "gpusim.simulate_plan"),
    ("repro.gpusim.executor", "simulate_kernels", "gpusim.simulate_kernels"),
    ("repro.gpusim.memo", "array_digest", "gpusim.memo.array_digest"),
    ("repro.gpusim.executor", "array_digest", "gpusim.memo.array_digest"),
    ("repro.gpusim.kernel", "array_digest", "gpusim.memo.array_digest"),
    ("repro.gpusim.memo", "KernelMemo.fingerprint",
     "gpusim.memo.fingerprint"),
    ("repro.gpusim.multidev", "build_shard_streams",
     "gpusim.build_shard_streams"),
    ("repro.gpusim.multidev", "run_multidev", "gpusim.run_multidev"),
    ("repro.serve.server", "plan_batches", "serve.plan_batches"),
    ("repro.serve.server", "PlanServer.flush", "serve.flush"),
    ("repro.analysis.hb", "check_happens_before_multidev",
     "analysis.check_happens_before_multidev"),
    ("repro.analysis.shardlint", "lint_shard", "analysis.lint_shard"),
)
