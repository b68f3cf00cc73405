"""Admission control: what the server agrees to queue.

Admission is the first pipeline stage and the only one that can say no.
It is deliberately cheap — catalog lookups and integer comparisons, no
graph work — because it runs per request before any batching leverage
exists.  Every rejection carries a stable reason code so tenants (and
the replay benchmark's assertions) can tell quota pressure from bad
requests.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional

from ..frameworks.base import Framework
from .request import InferenceRequest

__all__ = [
    "REASON_UNKNOWN_MODEL",
    "REASON_UNKNOWN_FRAMEWORK",
    "REASON_GRAPH_TOO_LARGE",
    "REASON_TENANT_QUOTA",
    "REASON_NOT_SUPPORTED",
    "AdmissionPolicy",
    "admit",
]

REASON_UNKNOWN_MODEL = "unknown_model"
REASON_UNKNOWN_FRAMEWORK = "unknown_framework"
REASON_GRAPH_TOO_LARGE = "graph_too_large"
REASON_TENANT_QUOTA = "tenant_quota"
#: Set at plan resolution, not admission: admitted, but the framework
#: cannot compile the model (an ``error`` response, not a rejection).
REASON_NOT_SUPPORTED = "not_supported"

#: The model catalog every framework understands (the paper's three).
KNOWN_MODELS = ("gcn", "gat", "sage_lstm")


@dataclasses.dataclass(frozen=True)
class AdmissionPolicy:
    """Server-side limits; ``None`` disables a check.

    ``max_queue_per_tenant`` bounds a single tenant's unflushed
    requests, the classic noisy-neighbour guard: one tenant replaying a
    firehose cannot starve the batch window for everyone else.
    """

    max_nodes: Optional[int] = None
    max_edges: Optional[int] = None
    max_queue_per_tenant: Optional[int] = None

    def describe(self) -> str:
        parts = []
        if self.max_nodes is not None:
            parts.append(f"nodes<={self.max_nodes}")
        if self.max_edges is not None:
            parts.append(f"edges<={self.max_edges}")
        if self.max_queue_per_tenant is not None:
            parts.append(f"queue/tenant<={self.max_queue_per_tenant}")
        return " ".join(parts) if parts else "open"


def admit(
    request: InferenceRequest,
    policy: AdmissionPolicy,
    frameworks: Mapping[str, Framework],
    queued_per_tenant: Dict[str, int],
) -> Optional[str]:
    """Return a rejection reason code, or ``None`` to admit.

    ``queued_per_tenant`` is the server's live count of unflushed
    requests per tenant (the admitted request is *not* counted yet —
    the server increments after a ``None`` verdict).
    """
    if request.model not in KNOWN_MODELS:
        return REASON_UNKNOWN_MODEL
    if isinstance(request.framework, str) and (
        request.framework not in frameworks
    ):
        return REASON_UNKNOWN_FRAMEWORK
    g = request.graph
    if policy.max_nodes is not None and g.num_nodes > policy.max_nodes:
        return REASON_GRAPH_TOO_LARGE
    if policy.max_edges is not None and g.num_edges > policy.max_edges:
        return REASON_GRAPH_TOO_LARGE
    if policy.max_queue_per_tenant is not None:
        if (queued_per_tenant.get(request.tenant, 0)
                >= policy.max_queue_per_tenant):
            return REASON_TENANT_QUOTA
    return None
