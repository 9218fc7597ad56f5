"""Statistics, arrival schedules, counter diffs and spans for the benchmark.

Nothing here imports the program under test: these are the benchmark's own
rules, kept apart so ``test_benchlib.py`` can pin them without a model.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer would make the "tail" one or two unlucky ops.
MIN_BEYOND = 10


class TailRefused(ValueError):
    """Too few samples for a tail that sits above the median."""


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: int
    n: int
    beyond: int


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return float(np.median(np.asarray(samples, dtype=np.float64)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(samples: Sequence[float]) -> Tail:
    """The highest integer percentile with at least ``MIN_BEYOND`` samples
    strictly after it in rank order (nearest-rank).

    Refused when that percentile's sample is not above the median's rank —
    a "tail" read from the middle of the distribution, or from a single op.
    """
    n = len(samples)
    q = (100 * (n - MIN_BEYOND)) // n if n > MIN_BEYOND else 0
    index = math.ceil(q * n / 100) - 1
    if q <= 0 or 2 * index <= n - 1:
        raise TailRefused(
            f"{n} samples: no percentile above the median has"
            f" {MIN_BEYOND} samples beyond it (need at least"
            f" {2 * MIN_BEYOND + 2})"
        )
    ordered = sorted(samples)
    return Tail(float(ordered[index]), q, n, n - index - 1)


# ----------------------------------------------------------------------
# Open-loop arrivals
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Schedule:
    """Due offsets (seconds from the window start) and the query each
    request carries, plus the admin deploys interleaved with them."""

    due: Tuple[float, ...]
    query: Tuple[int, ...]
    deploys: Tuple[float, ...]

    def to_bytes(self) -> bytes:
        return json.dumps(
            {"due": self.due, "query": self.query, "deploys": self.deploys},
            separators=(",", ":"),
        ).encode("utf-8")


def poisson_schedule(
    seed: int,
    rate: float,
    seconds: float,
    n_queries: int,
    deploy_every: float,
) -> Schedule:
    """Seeded Poisson arrivals at ``rate`` per second over ``seconds``; each
    request draws a query index uniformly.  Deploys are evenly spaced, half
    a period after the start so none lands on the first request."""
    rng = np.random.default_rng([seed, 0x5E7E])
    gaps: List[float] = []
    total = 0.0
    while True:
        total += float(rng.exponential(1.0 / rate))
        if total >= seconds:
            break
        gaps.append(total)
    queries = rng.integers(0, n_queries, size=len(gaps))
    deploys = tuple(
        deploy_every * (k + 0.5)
        for k in range(int(seconds // deploy_every))
    )
    return Schedule(tuple(gaps), tuple(int(q) for q in queries), deploys)


@dataclass
class Sent:
    """One open-loop request: when it was due, claimed by a sender, put on
    the wire and answered (``perf_counter`` seconds)."""

    due: float
    claimed: float
    sent: float
    done: float
    ok: bool

    @property
    def latency_s(self) -> float:
        # Timed from the due time: a stall that delays later requests is
        # charged to them, not hidden by a sender that started late.
        return self.done - self.due

    @property
    def generator_late_s(self) -> Optional[float]:
        """How late the generator itself put a request on the wire.  Only
        defined when a sender was free before the due time; a request
        claimed after it waited for a busy connection, which is the
        target's doing and already inside ``latency_s``."""
        if self.claimed > self.due:
            return None
        return self.sent - self.due


# ----------------------------------------------------------------------
# Gateway counters
# ----------------------------------------------------------------------
def counter_diff(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """``after - before`` per key; a key missing on one side counts 0."""
    return {
        key: float(after.get(key, 0.0)) - float(before.get(key, 0.0))
        for key in set(before) | set(after)
    }


def service_metrics(diff: Dict[str, float]) -> Dict[str, float]:
    """Per-layer serving figures from a counter diff over a window.

    ``queue_wait_ms`` is the mean enqueue-to-answer time per query minus the
    mean kernel time per batch: the time a query spent queued or held open
    for stragglers rather than computed.
    """
    batches = diff.get("service_batches", 0.0)
    queries = diff.get("service_batched_queries", 0.0)
    compute_ms = (
        1000.0 * diff.get("service_compute_seconds", 0.0) / batches
        if batches
        else 0.0
    )
    service_ms = (
        1000.0 * diff.get("service_latency_seconds", 0.0) / queries
        if queries
        else 0.0
    )
    return {
        "serving.service.mean_batch": queries / batches if batches else 0.0,
        "serving.service.compute_ms": compute_ms,
        "serving.service.queue_wait_ms": service_ms - compute_ms,
        "serving.service.shed": diff.get("service_shed", 0.0),
        "serving.service.deadline_exceeded": diff.get(
            "service_deadline_exceeded", 0.0
        ),
        "serving.registry.swaps": diff.get("registry_swaps", 0.0),
    }


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    Each span is ``[name, start, end, parent, op]`` (``perf_counter``
    seconds; ``parent`` is an index into :attr:`spans`).  A disabled tracer
    records nothing, so the untraced run pays one attribute check.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        op: Optional[int] = None,
    ) -> Optional[int]:
        if not self.enabled:
            return None
        with self._lock:
            self.spans.append([name, start, end, parent, op])
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, stack[-1] if stack else None, op]
            )
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> List[float]:
        """Each span's duration minus the union of its children's."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span[3] is not None:
                children.setdefault(span[3], []).append((span[1], span[2]))
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span[1]
            for start, end in sorted(children.get(index, [])):
                start = max(start, cursor)
                if end > start:
                    covered += end - start
                    cursor = end
            out.append((span[2] - span[1]) - covered)
        return out

    def dump(self, path) -> None:
        selfs = self.self_times()
        rows = [
            {
                "name": s[0],
                "start": s[1],
                "end": s[2],
                "parent": s[3],
                "op": s[4],
                "self": selfs[i],
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)

    @staticmethod
    def cost_per_span_s(samples: int = 2000) -> float:
        """Measured cost of recording one nested span."""
        probe = Tracer(True)
        start = time.perf_counter()
        for _ in range(samples):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - start) / samples


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
# A metric's unit follows from the last word of its name; run.py checks it
# against the unit BENCHMARK.json declares.
_UNITS = {"ms": "ms", "s": "s", "us": "us", "mib": "MiB", "bytes": "bytes",
          "pct": "%", "ratio": "ratio", "frac": "ratio"}
_PER_SECOND = {"ms": 1e3, "s": 1.0, "us": 1e6}


def unit_of(name: str) -> str:
    words = name.replace(".", "_").split("_")
    if words[-2:] == ["per", "query"]:
        words = words[:-2]
    return _UNITS.get(words[-1], "count")


class Report:
    """Metrics, accounting and correctness problems of one run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.lines: List[str] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, detail: str = "") -> None:
        unit = unit_of(name)
        self.metrics[name] = (float(value), unit)
        suffix = f"  ({detail})" if detail else ""
        self.lines.append(
            f"{self.workload}/{name} {float(value):.6g} {unit}{suffix}"
        )

    def put_timing(self, name: str, seconds: Sequence[float]) -> None:
        """The median of ``seconds``, in the unit of ``name``."""
        value = _PER_SECOND[unit_of(name)] * median(seconds)
        self.put(name, value, f"median, n={len(seconds)}")

    def put_tail(self, name: str, seconds: Sequence[float]) -> None:
        t = tail(seconds)
        self.put(
            name, _PER_SECOND[unit_of(name)] * t.value,
            f"p{t.percentile}, n={t.n}, {t.beyond} samples beyond",
        )

    def note(self, text: str) -> None:
        self.lines.append(f"{self.workload}: {text}")

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems
