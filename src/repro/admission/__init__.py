"""Admission control for the proxy under overload.

The paper's proxy serves one query at a time; under the ROADMAP's
heavy-traffic north star the serve path must instead decide, per
arriving query, whether to run it now, queue it, degrade it, or turn
it away — and do so without ever breaking ``serve()``'s never-raises
contract.  This package owns that decision:

* :class:`~repro.admission.config.AdmissionConfig` — the knobs: queue
  bound and discipline (FIFO/LIFO + deadline drop), inflight slots,
  per-tenant token-bucket quotas, and the shed policy (``reject-new``,
  ``shed-cheapest``, ``degrade-to-tunnel``);
* :class:`~repro.admission.controller.AdmissionController` — the
  runtime gate: a bounded accept queue, token buckets, and an overload
  :class:`~repro.faults.resilience.CircuitBreaker` fed by queue-full
  sheds so sustained overflow fast-fails new arrivals for a cooldown.

Turned-away queries surface as structured ``shed`` /
``queued-timeout`` outcomes (HTTP 429/503) with full query records and
decision traces — but no cache, origin, or journal activity.
"""

from repro.admission.config import (
    DISCIPLINE_FIFO,
    DISCIPLINE_LIFO,
    DISCIPLINES,
    REASON_ADMISSION_OPEN,
    REASON_DEADLINE,
    REASON_QUEUE_FULL,
    REASON_QUOTA,
    SHED_DEGRADE_TO_TUNNEL,
    SHED_POLICIES,
    SHED_REJECT_NEW,
    SHED_SHED_CHEAPEST,
    AdmissionConfig,
    TenantQuota,
    retry_after_seconds,
)
from repro.admission.controller import (
    AdmissionController,
    AdmissionVerdict,
    QueuedRequest,
    TokenBucket,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionVerdict",
    "DISCIPLINES",
    "DISCIPLINE_FIFO",
    "DISCIPLINE_LIFO",
    "QueuedRequest",
    "REASON_ADMISSION_OPEN",
    "REASON_DEADLINE",
    "REASON_QUEUE_FULL",
    "REASON_QUOTA",
    "SHED_DEGRADE_TO_TUNNEL",
    "SHED_POLICIES",
    "SHED_REJECT_NEW",
    "SHED_SHED_CHEAPEST",
    "TenantQuota",
    "TokenBucket",
    "retry_after_seconds",
]
