"""The replay driver: run a trace against a target, account exactly once.

The driver is an *open-loop* load generator: it offers each request at
its trace timestamp (scaled by ``speed``; ``speed=0`` replays as fast as
the submitter pool can go) without waiting for earlier responses — the
arrival process is the trace's, not the target's, which is what makes
overload behavior (shedding, breaker trips, deadline misses) observable
instead of self-throttled away.

Every submitted request produces **exactly one** :class:`Outcome`, keyed
by its trace id: the worker that ran it classifies the result (answered,
or one of the failure categories in
:data:`~repro.replay.metrics.CATEGORIES`) and the single-threaded
collector refuses duplicates and flags absences.  A request that gets two
responses, or none, is a :class:`~repro.errors.TraceError` — not a
statistic.

Two targets implement the same small surface:

* :class:`InProcessTarget` — a live :class:`~repro.serving.ModelRegistry`
  in this process.  This is the chaos-capable path: the registry's slot
  can be wrapped in a :class:`~repro.testing.faults.FlakyBatchModel`
  (poison queries, consecutive-error windows that trip the breaker) and
  ``control`` events perform real hot swaps — including deliberately
  corrupted ones the registry must refuse.  Counter reconciliation is
  exact because the target snapshots its own (private) counter sink.
* :class:`HttpTarget` — a live :class:`~repro.serving.GatewayServer`
  (possibly another process) over plain ``urllib``.  Failure categories
  come from the gateway's JSON error envelope (the ``error.type`` field
  carries the same class names the in-process path sees).  With an admin
  token, this path is chaos-capable too: ``swap``/``swap_corrupt``
  controls drive ``POST /admin/v1/models/{name}:deploy`` over the wire,
  counter reconciliation reads ``GET /admin/v1/counters`` (the same
  pair-by-pair ledger checks as in-process), and — given a
  :class:`~repro.serving.supervisor.GatewaySupervisor` handle — ``kill``
  controls SIGKILL the gateway process mid-replay.  Requests in flight
  during a kill resolve to the ``interrupted`` category (connection
  refused/reset), never lost or duplicated, and the report measures MTTR
  (kill to first answered response).
"""

from __future__ import annotations

import bisect
import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.artifact import ArtifactError
from ..errors import (
    CircuitOpen,
    DeadlineExceeded,
    ModelNotFound,
    NotSupportedError,
    QueryError,
    QuotaExceeded,
    ReproError,
    ServiceClosed,
    ServiceOverloaded,
    TraceError,
    WorkerCrashed,
)
from ..evaluation.latency import LatencyHistogram
from ..evaluation.timing import EngineCounters
from ..serving.registry import ModelRegistry
from ..testing.faults import FaultInjected
from .metrics import ReplayReport, reconcile
from .trace import ReplayTrace

__all__ = [
    "HttpTarget",
    "InProcessTarget",
    "Outcome",
    "ReplayDriver",
    "classify_exception",
    "prepare_http_target",
    "prepare_inprocess_target",
]


@dataclass(frozen=True)
class Outcome:
    """What happened to one submitted request."""

    request_id: str
    category: str
    detail: str
    latency_s: float
    #: When the outcome landed, seconds from replay start — what MTTR is
    #: measured against (0.0 on targets that predate the field).
    finished_s: float = 0.0


#: Exception class name -> outcome category.  Order-independent: the
#: in-process path walks the exception's MRO so subclasses inherit their
#: parent's row; the HTTP path looks up the envelope's ``error.type``
#: name directly (falling back through the generic rows).
_CATEGORY_BY_NAME: Dict[str, str] = {
    "ServiceOverloaded": "shed",
    "QuotaExceeded": "quota",
    "CircuitOpen": "breaker",
    "DeadlineExceeded": "deadline",
    "PoisonQueryError": "poison",
    "FaultInjected": "poison",
    "QueryError": "rejected",
    "RequestTooLarge": "rejected",
    "RequestTimeout": "rejected",
    "NotSupportedError": "unsupported",
    "WorkerCrashed": "crashed",
    "ServiceClosed": "closed",
    "ModelNotFound": "failed",
    "ReproError": "failed",
}

# The isinstance ladder for in-process classification; MRO lookup by class
# name would miss exception classes renamed locally, so match on types.
_CATEGORY_BY_TYPE: Tuple[Tuple[type, str], ...] = (
    (ServiceOverloaded, "shed"),
    (QuotaExceeded, "quota"),
    (CircuitOpen, "breaker"),
    (DeadlineExceeded, "deadline"),
    (FaultInjected, "poison"),
    (QueryError, "rejected"),
    (NotSupportedError, "unsupported"),
    (WorkerCrashed, "crashed"),
    (ServiceClosed, "closed"),
    (ModelNotFound, "failed"),
    (ReproError, "failed"),
)


def classify_exception(error: BaseException) -> str:
    """The outcome category for an exception from an in-process target."""
    for klass, category in _CATEGORY_BY_TYPE:
        if isinstance(error, klass):
            return category
    return "transport"


def _classify_name(type_name: str) -> str:
    return _CATEGORY_BY_NAME.get(type_name, "failed")


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------


class InProcessTarget:
    """Replay against a live :class:`ModelRegistry` in this process.

    Args:
        registry: the registry under test (the caller keeps ownership).
        clean_artifact: artifact path ``swap`` control events redeploy.
        corrupt_artifact: artifact path ``swap_corrupt`` control events
            attempt to deploy — the registry is expected to refuse it
            (:class:`~repro.core.artifact.ArtifactError`) and keep the old
            model serving.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        clean_artifact: Optional[Union[str, Path]] = None,
        corrupt_artifact: Optional[Union[str, Path]] = None,
    ):
        self._registry = registry
        self._clean_artifact = clean_artifact
        self._corrupt_artifact = corrupt_artifact
        self._n_items: Dict[str, int] = {}

    @property
    def registry(self) -> ModelRegistry:
        return self._registry

    def counters_snapshot(self) -> Optional[Dict[str, float]]:
        return self._registry.counters_snapshot()

    def _query(self, event: Dict[str, Any]) -> np.ndarray:
        model = event["model"]
        n_items = self._n_items.get(model)
        if n_items is None:
            n_items = self._registry.model_info(model).n_items
            self._n_items[model] = n_items
        vector = np.zeros(n_items, dtype=bool)
        items = [int(i) for i in event["items"]]
        vector[[i for i in items if 0 <= i < n_items]] = True
        if any(i < 0 or i >= n_items for i in items):
            # Preserve the malformed indices so validation rejects the
            # query the same way the HTTP path would.
            return np.asarray(items)
        return vector

    def request(self, event: Dict[str, Any]) -> Tuple[str, str]:
        """Run one request event; returns ``(category, detail)``."""
        try:
            query = self._query(event)
            if event["verb"] == "explain":
                self._registry.explain(
                    event["model"], query, tenant=event.get("tenant")
                )
            else:
                self._registry.classification_values(
                    event["model"],
                    query,
                    tenant=event.get("tenant"),
                    deadline_ms=event.get("deadline_ms"),
                )
            return "answered", ""
        except ReproError as exc:
            return classify_exception(exc), type(exc).__name__
        except Exception as exc:  # unexpected: still exactly-once
            return "transport", f"{type(exc).__name__}: {exc}"

    def control(self, event: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one control event; returns its outcome record."""
        action = event.get("action")
        record = {"id": event["id"], "action": action, "applied": False}
        if action == "kill":
            record["detail"] = (
                "skipped: kill chaos needs the process supervisor"
                " (HTTP target)"
            )
            return record
        path = (
            self._corrupt_artifact
            if action == "swap_corrupt"
            else self._clean_artifact
        )
        if action not in ("swap", "swap_corrupt") or path is None:
            record["detail"] = "skipped: no artifact configured"
            return record
        try:
            info = self._registry.deploy(event["model"], path)
            record["applied"] = True
            record["detail"] = f"deployed v{info.version}"
        except ArtifactError as exc:
            # Exactly what a corrupt swap must produce: an eager refusal,
            # old model untouched.
            record["detail"] = f"refused: {type(exc).__name__}"
        except ReproError as exc:
            record["detail"] = f"failed: {type(exc).__name__}"
        return record


class HttpTarget:
    """Replay against a live gateway over HTTP (no third-party client).

    Args:
        base_url: the gateway base URL (``http://host:port``).
        timeout: per-request socket timeout, seconds.
        admin_token: the gateway's admin token.  Unlocks the control
            plane: ``counters_snapshot`` reads ``GET /admin/v1/counters``
            (so reconciliation gets the same pair-by-pair checks as
            in-process) and swap controls drive real hot deploys over the
            wire.  ``None`` keeps the target data-plane-only (counters
            unavailable, swaps skipped).
        clean_artifact: *server-readable* artifact path ``swap`` controls
            deploy.
        corrupt_artifact: server-readable artifact path ``swap_corrupt``
            controls attempt — the gateway must refuse it (an
            ``Artifact*`` error envelope) and keep the old model serving.
        supervisor: a :class:`~repro.serving.supervisor.GatewaySupervisor`
            handle for ``kill`` controls (SIGKILL the gateway process;
            the supervisor restarts it).  ``None`` skips kills.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        *,
        admin_token: Optional[str] = None,
        clean_artifact: Optional[Union[str, Path]] = None,
        corrupt_artifact: Optional[Union[str, Path]] = None,
        supervisor: Optional[Any] = None,
    ):
        self._base = base_url.rstrip("/")
        self._timeout = timeout
        self._admin_token = admin_token
        self._clean_artifact = clean_artifact
        self._corrupt_artifact = corrupt_artifact
        self._supervisor = supervisor

    def _admin_headers(self) -> Dict[str, str]:
        return {
            "Content-Type": "application/json",
            "Authorization": f"Bearer {self._admin_token}",
        }

    def counters_snapshot(self) -> Optional[Dict[str, float]]:
        """The gateway's counter snapshot via the admin plane.

        ``None`` without an admin token, and ``None`` when the gateway is
        unreachable (mid-restart during kill chaos) — reconciliation then
        falls back to the client-ledger-only checks.
        """
        if self._admin_token is None:
            return None
        request = urllib.request.Request(
            f"{self._base}/admin/v1/counters", headers=self._admin_headers()
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self._timeout
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except Exception:
            return None
        counters = payload.get("counters")
        if not isinstance(counters, dict):
            return None
        return {str(k): float(v) for k, v in counters.items()}

    def request(self, event: Dict[str, Any]) -> Tuple[str, str]:
        body: Dict[str, Any] = {"items": list(event["items"])}
        if event.get("tenant") is not None:
            body["tenant"] = event["tenant"]
        if event.get("deadline_ms") is not None:
            body["deadline_ms"] = event["deadline_ms"]
        url = f"{self._base}/v1/models/{event['model']}:{event['verb']}"
        data = json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self._timeout):
                return "answered", ""
        except urllib.error.HTTPError as exc:
            try:
                envelope = json.loads(exc.read().decode("utf-8"))
                type_name = envelope["error"]["type"]
            except Exception:
                return "transport", f"HTTP {exc.code} (unparseable body)"
            return _classify_name(type_name), type_name
        except (urllib.error.URLError, OSError) as exc:
            # urllib wraps connection-level errnos in URLError(reason=...);
            # unwrap so a killed/restarting server classifies the same way
            # whether the refusal came before or during the exchange.
            reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
            if isinstance(reason, ConnectionError):
                return "interrupted", f"{type(reason).__name__}: {reason}"
            return "transport", f"{type(exc).__name__}: {exc}"
        except http.client.HTTPException as exc:
            # The server hung up mid-response (e.g. BadStatusLine from a
            # SIGKILL between accept and reply): interrupted, not lost.
            return "interrupted", f"{type(exc).__name__}: {exc}"

    def control(self, event: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one control event over the admin plane (or supervisor)."""
        action = event.get("action")
        record: Dict[str, Any] = {
            "id": event["id"], "action": action, "applied": False,
        }
        if action == "kill":
            if self._supervisor is None:
                record["detail"] = (
                    "skipped: kill chaos needs a supervisor handle"
                )
                return record
            self._supervisor.kill()
            record["applied"] = True
            record["detail"] = "SIGKILL delivered to the gateway process"
            return record
        if action not in ("swap", "swap_corrupt"):
            record["detail"] = f"skipped: unknown control action {action!r}"
            return record
        if self._admin_token is None:
            record["detail"] = (
                "skipped: hot swap over HTTP needs the admin plane"
                " (pass admin_token)"
            )
            return record
        path = (
            self._corrupt_artifact
            if action == "swap_corrupt"
            else self._clean_artifact
        )
        if path is None:
            record["detail"] = "skipped: no artifact configured"
            return record
        request = urllib.request.Request(
            f"{self._base}/admin/v1/models/{event['model']}:deploy",
            data=json.dumps({"artifact": str(path)}).encode("utf-8"),
            headers=self._admin_headers(),
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self._timeout
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
            record["applied"] = True
            version = payload.get("deployed", {}).get("version", "?")
            record["detail"] = f"deployed v{version}"
        except urllib.error.HTTPError as exc:
            try:
                envelope = json.loads(exc.read().decode("utf-8"))
                type_name = envelope["error"]["type"]
            except Exception:
                type_name = f"HTTP {exc.code}"
            # Parity with the in-process target: a corrupt artifact must
            # be an eager refusal, old model untouched.
            prefix = "refused" if "Artifact" in type_name else "failed"
            record["detail"] = f"{prefix}: {type_name}"
        except (
            urllib.error.URLError, OSError, http.client.HTTPException
        ) as exc:
            record["detail"] = f"failed: {type(exc).__name__}"
        return record


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


class ReplayDriver:
    """Run a trace against a target with exactly-once accounting.

    Args:
        target: an :class:`InProcessTarget` or :class:`HttpTarget`.
        max_workers: submitter thread pool size.  Open-loop fidelity
            needs enough submitters that a slow response never delays the
            *offering* of later requests.
    """

    def __init__(self, target: Any, max_workers: int = 64):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._target = target
        self._max_workers = max_workers

    def run(self, trace: ReplayTrace, speed: float = 0.0) -> ReplayReport:
        """Replay the trace; ``speed`` scales trace time to wall time
        (1.0 = real time, 2.0 = twice as fast, 0 = no pacing at all).

        Raises :class:`~repro.errors.TraceError` if any submitted request
        ends up with zero or two outcomes — the invariant this harness
        exists to enforce.  Counter mismatches (in-process targets) are
        reported, not raised, so a failing reconciliation can still be
        inspected through the returned report.
        """
        if speed < 0:
            raise ValueError("speed must be >= 0 (0 = unpaced)")
        outcomes: Dict[str, Outcome] = {}
        lock = threading.Lock()
        histogram = LatencyHistogram()
        controls: List[Dict[str, Any]] = []
        kill_times: List[float] = []

        def execute(event: Dict[str, Any]) -> None:
            started = time.perf_counter()
            category, detail = self._target.request(event)
            finished = time.perf_counter()
            latency = finished - started
            outcome = Outcome(
                event["id"], category, detail, latency, finished - start
            )
            with lock:
                if event["id"] in outcomes:
                    raise TraceError(
                        f"request {event['id']} produced two outcomes"
                        f" ({outcomes[event['id']].category} then"
                        f" {category}) — duplicated response"
                    )
                outcomes[event["id"]] = outcome
                if category == "answered":
                    histogram.record(latency)

        before = self._target.counters_snapshot()
        submitted_ids: List[str] = []
        start = time.perf_counter()
        with ThreadPoolExecutor(
            max_workers=self._max_workers,
            thread_name_prefix="replay-submit",
        ) as pool:
            futures = []
            for event in trace.events:
                if speed > 0:
                    due = start + (event["at_ms"] / 1000.0) / speed
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                if event["kind"] == "control":
                    # Controls run on the dispatcher thread: a hot swap
                    # drains the old slot, and that pause is part of the
                    # scenario being replayed.
                    record = self._target.control(event)
                    controls.append(record)
                    if record.get("action") == "kill" and record.get(
                        "applied"
                    ):
                        kill_times.append(time.perf_counter() - start)
                    continue
                submitted_ids.append(event["id"])
                futures.append(pool.submit(execute, event))
            for future in futures:
                future.result()  # re-raise duplicate-outcome TraceError
        wall = time.perf_counter() - start
        after = self._target.counters_snapshot()

        lost = [rid for rid in submitted_ids if rid not in outcomes]
        if lost:
            raise TraceError(
                f"{len(lost)} submitted requests produced no outcome"
                f" (first: {lost[0]!r}) — lost responses"
            )

        tally: Dict[str, int] = {}
        for outcome in outcomes.values():
            tally[outcome.category] = tally.get(outcome.category, 0) + 1
        delta: Optional[Dict[str, float]] = None
        if before is not None and after is not None:
            delta = {
                name: after.get(name, 0.0) - before.get(name, 0.0)
                for name in sorted(set(before) | set(after))
                if after.get(name, 0.0) != before.get(name, 0.0)
            }

        # MTTR: for each applied kill, time to the first answered
        # response that *finished* after the kill landed.
        answered_times = sorted(
            o.finished_s
            for o in outcomes.values()
            if o.category == "answered"
        )
        mttr: List[float] = []
        for kill_at in sorted(kill_times):
            index = bisect.bisect_right(answered_times, kill_at)
            if index < len(answered_times):
                mttr.append(answered_times[index] - kill_at)
        if kill_times:
            # The server process restarted mid-replay, so its counters
            # reset: a before/after delta is meaningless.  The client-side
            # exactly-once ledger stays fully enforced.
            delta = None
        report = ReplayReport(
            submitted=len(submitted_ids),
            outcomes=tally,
            latency=histogram,
            wall_s=wall,
            trace_duration_ms=trace.duration_ms,
            controls=controls,
            counters_delta=delta,
            mismatches=reconcile(
                tally,
                delta,
                len(submitted_ids),
                counters_reset=bool(kill_times),
            ),
            mttr_s=mttr,
        )
        return report


# ----------------------------------------------------------------------
# In-process harness assembly
# ----------------------------------------------------------------------


def prepare_inprocess_target(
    trace: ReplayTrace,
    classifier: Any,
    workdir: Union[str, Path],
    *,
    config: Optional[Any] = None,
    tenant_quota: Optional[int] = None,
) -> InProcessTarget:
    """Assemble a chaos-armed in-process target for a trace.

    Builds a **private** counter sink and registry (so reconciliation
    diffs only this replay's activity), deploys ``classifier`` under
    every model name the trace uses, and arms the trace's chaos mix:

    * ``error_windows`` / ``poison_fraction`` wrap the deployed model in
      a :class:`~repro.testing.faults.FlakyBatchModel` whose poison
      predicate matches the generator's all-genes marker query;
    * hot-swap controls get real artifacts: the classifier is saved to
      ``workdir/clean.npz`` and — when the mix has corrupt swaps — a copy
      is byte-flipped via
      :func:`~repro.testing.faults.corrupt_artifact_member`.

    The caller owns the returned target's registry and must ``close()``
    it (it is reachable as ``target.registry``).
    """
    from ..serving.config import ServeConfig
    from ..testing.faults import (
        FlakyBatchModel,
        ServiceFault,
        corrupt_artifact_member,
    )

    chaos = trace.chaos
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    counters = EngineCounters()
    registry = ModelRegistry(
        config if config is not None else ServeConfig(),
        tenant_quota=tenant_quota,
        counters=counters,
    )

    clean_path: Optional[Path] = None
    corrupt_path: Optional[Path] = None
    if chaos.swaps_at_ms or chaos.corrupt_swaps_at_ms:
        clean_path = Path(classifier.save(workdir / "clean.npz"))
        if chaos.corrupt_swaps_at_ms:
            corrupt_path = workdir / "corrupt.npz"
            corrupt_path.write_bytes(clean_path.read_bytes())
            corrupt_artifact_member(corrupt_path, "arena_pair_len.npy")

    needs_flaky = bool(chaos.error_windows or chaos.poison_fraction)
    model_names = sorted(
        {e["model"] for e in trace.requests}
        | {e["model"] for e in trace.controls}
    ) or ["default"]
    for name in model_names:
        if needs_flaky:
            fault_calls = sorted({
                call
                for first, count in chaos.error_windows
                for call in range(first, first + count)
            })
            faults = [ServiceFault(call, "error") for call in fault_calls]
            model = FlakyBatchModel(
                classifier,
                faults=faults,
                poison=lambda row: bool(np.asarray(row).all()),
            )
            registry.deploy_model(name, model)
        else:
            registry.deploy_model(name, classifier)
    return InProcessTarget(
        registry,
        clean_artifact=clean_path,
        corrupt_artifact=corrupt_path,
    )


def prepare_http_target(
    trace: ReplayTrace,
    base_url: str,
    workdir: Union[str, Path],
    *,
    classifier: Optional[Any] = None,
    admin_token: Optional[str] = None,
    supervisor: Optional[Any] = None,
    timeout: float = 30.0,
) -> HttpTarget:
    """Assemble a chaos-armed HTTP target for a trace.

    The HTTP analogue of :func:`prepare_inprocess_target`: when the
    trace's chaos mix has swap controls and a ``classifier`` is supplied,
    the classifier is saved to ``workdir/clean.npz`` (byte-flipped into
    ``workdir/corrupt.npz`` for corrupt swaps) so the admin plane has
    real, *server-readable* artifacts to deploy — the gateway and the
    replay driver must therefore share a filesystem.  ``admin_token``
    unlocks the swaps and counter reconciliation; ``supervisor`` arms
    ``kill`` controls.
    """
    from ..testing.faults import corrupt_artifact_member

    chaos = trace.chaos
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    clean_path: Optional[Path] = None
    corrupt_path: Optional[Path] = None
    wants_swaps = bool(chaos.swaps_at_ms or chaos.corrupt_swaps_at_ms)
    if wants_swaps and classifier is not None:
        clean_path = Path(classifier.save(workdir / "clean.npz"))
        if chaos.corrupt_swaps_at_ms:
            corrupt_path = workdir / "corrupt.npz"
            corrupt_path.write_bytes(clean_path.read_bytes())
            corrupt_artifact_member(corrupt_path, "arena_pair_len.npy")
    return HttpTarget(
        base_url,
        timeout,
        admin_token=admin_token,
        clean_artifact=clean_path,
        corrupt_artifact=corrupt_path,
        supervisor=supervisor,
    )
