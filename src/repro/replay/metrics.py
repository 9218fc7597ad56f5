"""Replay metrics: exact accounting over a replay run.

Tail latency is recorded in a
:class:`~repro.evaluation.latency.LatencyHistogram` (shared with the
benchmark suite, which must not import the replay stack): constant memory
with geometric buckets, parallel reports merge by vector addition.

:class:`ReplayReport` + :func:`reconcile` do the *exact* accounting.  The
replay driver records one :class:`~repro.replay.driver.Outcome` per
submitted request (exactly-once, keyed by request id); the report
tallies them per category and diffs the service's own
``registry_*``/``service_*`` counters across the run (in-process targets
snapshot their private sink; HTTP targets read the gateway's
``GET /admin/v1/counters`` when an admin token is configured).
:func:`reconcile` then cross-checks the two ledgers pair by pair —
client-side quota rejections against ``registry_quota_rejections``,
shed against ``service_shed``, and so on.  A mismatch means a request
the client saw one way and the service recorded another: precisely the
lost-or-double-counted bug class this harness exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..evaluation.latency import LatencyHistogram

__all__ = [
    "CATEGORIES",
    "COUNTER_PAIRS",
    "ReplayReport",
    "reconcile",
]

#: Every category the driver can assign to a request's outcome.  The sum
#: over all categories must equal the number of submitted requests — the
#: exactly-once invariant.
CATEGORIES = (
    "answered",      # a real prediction/explanation came back
    "shed",          # ServiceOverloaded: queue past shed_high
    "quota",         # QuotaExceeded: tenant over its in-flight cap
    "breaker",       # CircuitOpen: slot breaker open/half-open busy
    "deadline",      # DeadlineExceeded: expired at submit or while queued
    "poison",        # injected per-request evaluation error, bisected out
    "rejected",      # QueryError: malformed/oversized/ill-typed query
    "unsupported",   # NotSupportedError: explain on an artifact-only slot
    "crashed",       # WorkerCrashed: in-flight when a worker died
    "closed",        # ServiceClosed: target shut down mid-run
    "failed",        # any other structured (ReproError) failure
    "transport",     # the request never reached the service (HTTP/socket)
    "interrupted",   # connection refused/dropped: the server process was
                     # killed or restarting (kill chaos) — never lost
)

#: (client category, service counter) pairs that must match exactly on any
#: replay that can see the service's counters (in-process, or HTTP with
#: the admin plane): both sides increment once per affected request.
COUNTER_PAIRS = (
    ("shed", "service_shed"),
    ("quota", "registry_quota_rejections"),
    ("breaker", "service_breaker_rejections"),
    ("deadline", "service_deadline_exceeded"),
    ("poison", "service_poison_queries"),
    ("rejected", "service_query_rejects"),
)


def reconcile(
    outcomes: Mapping[str, int],
    counters_delta: Optional[Mapping[str, float]],
    submitted: int,
    *,
    counters_reset: bool = False,
) -> List[str]:
    """Cross-check the client ledger against itself and the service's.

    Returns human-readable mismatch descriptions (empty = fully
    reconciled).  The total check runs always; the per-counter pairs only
    when a counter delta is available — in-process targets snapshot their
    own sink, HTTP targets read ``GET /admin/v1/counters`` when an admin
    token is configured (without one the delta is ``None`` and the pairs
    are skipped).  ``counters_reset`` skips the pairs too: a kill-chaos
    run restarts the server process mid-replay, so its counters reset and
    a cross-restart delta is meaningless — the client-side exactly-once
    total remains fully enforced.
    """
    mismatches: List[str] = []
    accounted = sum(outcomes.get(c, 0) for c in CATEGORIES)
    stray = set(outcomes) - set(CATEGORIES)
    if stray:
        mismatches.append(f"unknown outcome categories: {sorted(stray)}")
    if accounted != submitted:
        mismatches.append(
            f"accounted {accounted} outcomes for {submitted} submitted"
            " requests (lost or duplicated responses)"
        )
    if counters_delta is None or counters_reset:
        return mismatches
    for category, counter in COUNTER_PAIRS:
        client = outcomes.get(category, 0)
        service = int(counters_delta.get(counter, 0.0))
        if client != service:
            mismatches.append(
                f"client saw {client} {category!r} outcomes but the service"
                f" counted {counter}={service}"
            )
    return mismatches


@dataclass
class ReplayReport:
    """Everything a replay run measured, in one serializable bundle."""

    submitted: int
    outcomes: Dict[str, int]
    latency: LatencyHistogram
    wall_s: float
    trace_duration_ms: float
    controls: List[Dict[str, Any]] = field(default_factory=list)
    counters_delta: Optional[Dict[str, float]] = None
    mismatches: List[str] = field(default_factory=list)
    #: Per applied ``kill`` control: seconds from the kill to the first
    #: *answered* response finishing after it — MTTR, kill to recovery.
    #: Empty when no kill was applied (or none was followed by an answer).
    mttr_s: List[float] = field(default_factory=list)

    @property
    def answered(self) -> int:
        return self.outcomes.get("answered", 0)

    @property
    def error_rate(self) -> float:
        """Fraction of submitted requests that did not get an answer."""
        if self.submitted == 0:
            return 0.0
        return 1.0 - self.answered / self.submitted

    @property
    def shed_rate(self) -> float:
        if self.submitted == 0:
            return 0.0
        return self.outcomes.get("shed", 0) / self.submitted

    @property
    def offered_qps(self) -> float:
        """The trace's nominal offered rate over its own timeline."""
        if self.trace_duration_ms <= 0:
            return 0.0
        return self.submitted / (self.trace_duration_ms / 1000.0)

    @property
    def achieved_qps(self) -> float:
        """Answered requests per wall-clock second of the replay."""
        return self.answered / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def reconciled(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "outcomes": {
                c: self.outcomes.get(c, 0)
                for c in CATEGORIES
                if self.outcomes.get(c, 0)
            },
            "latency": self.latency.to_dict(),
            "wall_s": self.wall_s,
            "trace_duration_ms": self.trace_duration_ms,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "error_rate": self.error_rate,
            "shed_rate": self.shed_rate,
            "controls": list(self.controls),
            "counters_delta": self.counters_delta,
            "mismatches": list(self.mismatches),
            "reconciled": self.reconciled,
            "mttr_s": list(self.mttr_s),
        }

    def describe(self) -> str:
        """A deterministic multi-line rendering for the CLI (no wall-clock
        derived numbers — two runs of the same trace print identical
        accounting lines)."""
        lines = [f"submitted : {self.submitted}"]
        for category in CATEGORIES:
            count = self.outcomes.get(category, 0)
            if count:
                lines.append(f"{category:<10}: {count}")
        if self.controls:
            applied = sum(1 for c in self.controls if c.get("applied"))
            lines.append(
                f"controls  : {len(self.controls)}"
                f" ({applied} applied, {len(self.controls) - applied} refused)"
            )
        if self.reconciled:
            lines.append("reconciled: every submitted request accounted"
                         " exactly once")
        else:
            for mismatch in self.mismatches:
                lines.append(f"MISMATCH  : {mismatch}")
        return "\n".join(lines)
