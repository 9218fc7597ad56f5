"""The repro exception hierarchy.

Every failure the experiment runtime knows how to recover from derives from
:class:`ReproError`, so drivers can distinguish structured, expected failures
(budget exhaustion, worker loss, corrupt journals, malformed datasets) from
genuine bugs with a single ``except`` clause.

Two branches matter to the cross-validation harness:

* :class:`ResourceExhausted` — a cooperative resource budget ran out.  The
  runners convert these into DNF :class:`~repro.evaluation.crossval.TestResult`
  records (the paper's "≥ cutoff" convention) instead of aborting the study.
* :class:`WorkerError` — the supervised pool lost a worker (crash, per-task
  timeout, corrupt payload).  After bounded retries these degrade to DNF
  records too, so one bad fold never sinks a multi-hour study.

The serving layer adds a third: :class:`ServiceError` covers every way the
prediction service refuses or fails a request (closed, overloaded, deadline
passed, circuit breaker open), and :class:`QueryError` rejects malformed
queries at submission time.  Artifact failures
(:class:`~repro.core.artifact.ArtifactError` and its ``Corrupt``/``Stale``
subclasses) live next to the artifact format in :mod:`repro.core.artifact`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of all structured, recoverable repro failures."""


# ----------------------------------------------------------------------
# Resource budgets
# ----------------------------------------------------------------------


class ResourceExhausted(ReproError, RuntimeError):
    """A cooperative :class:`~repro.evaluation.timing.Budget` ran out.

    ``reason`` names the exhausted resource (``wall_clock``, ``rule_groups``
    or ``candidates``) and ends up in the DNF record's note.
    """

    reason = "resource"


class BudgetExceeded(ResourceExhausted):
    """The wall-clock cutoff passed (:meth:`Budget.check`)."""

    reason = "wall_clock"

    def __init__(self, elapsed: float, cutoff: float):
        super().__init__(f"budget of {cutoff:.3f}s exceeded after {elapsed:.3f}s")
        self.elapsed = elapsed
        self.cutoff = cutoff


class RuleBudgetExceeded(ResourceExhausted):
    """A miner emitted more rule groups than the budget allows."""

    reason = "rule_groups"

    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} rule groups mined, budget allows {limit}")
        self.count = count
        self.limit = limit


class CandidateBudgetExceeded(ResourceExhausted):
    """A miner's candidate/search set outgrew the budget's memory guard."""

    reason = "candidates"

    def __init__(self, count: int, limit: int):
        super().__init__(f"candidate set size {count} exceeds budget of {limit}")
        self.count = count
        self.limit = limit


# ----------------------------------------------------------------------
# Supervised worker pool
# ----------------------------------------------------------------------


class WorkerError(ReproError):
    """A supervised-pool task failed for a non-algorithmic reason."""


class WorkerCrashed(WorkerError):
    """The worker process died (or raised) before returning a result."""


class TaskTimeout(WorkerError):
    """A task outran its per-task wall-clock timeout and was killed."""


class CorruptResult(WorkerError):
    """A worker returned a payload that failed validation."""


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------


class JournalError(ReproError):
    """A checkpoint journal could not be parsed or written."""


# ----------------------------------------------------------------------
# Prediction service
# ----------------------------------------------------------------------


class ServiceError(ReproError, RuntimeError):
    """A prediction-service request could not be served.

    Every way the serving layer refuses or fails a request derives from
    here, so a frontend can catch one type and map each subclass to its
    own response (503, 504, 429, ...).
    """


class ServiceClosed(ServiceError):
    """Raised when a request is submitted to a closed service."""


class ServiceOverloaded(ServiceError):
    """Load shedding: the request queue crossed its high-water mark.

    The service fails fast instead of blocking the submitter; hysteresis
    re-admits once the queue drains to the low-water mark.  Retry later.
    """

    def __init__(self, depth: int, high_water: int):
        super().__init__(
            f"service overloaded: {depth} requests queued"
            f" (shedding above {high_water}); retry later"
        )
        self.depth = depth
        self.high_water = high_water


class DeadlineExceeded(ServiceError):
    """The request's deadline passed before the worker could evaluate it.

    Expired requests are answered immediately instead of occupying a
    batch slot, so a backed-up service sheds dead work first.
    """


class CircuitOpen(ServiceError):
    """The service's circuit breaker is rejecting requests.

    Repeated evaluation failures tripped the breaker; it rejects for a
    cooldown window, then half-opens to probe recovery with a single
    request.  ``retry_after`` is the remaining cooldown in seconds (0.0
    while a half-open probe is already in flight).
    """

    def __init__(self, retry_after: float):
        super().__init__(
            f"circuit breaker open after repeated evaluation failures;"
            f" retry in {max(retry_after, 0.0):.3f}s"
        )
        self.retry_after = max(float(retry_after), 0.0)


class QueryError(ReproError, ValueError):
    """A query was rejected at submission time (wrong gene count, NaN/inf
    values, non-numeric dtype, out-of-range or non-integer item id).

    Raised by the service *before* the query reaches the worker, so a
    malformed request can never poison the batch it would have joined.
    """


class RequestTooLarge(QueryError):
    """An HTTP request body exceeded the gateway's size ceiling.

    Rejected before the body is read, so an oversized (or hostile) payload
    costs the gateway one header parse, not a buffered read.  Maps to
    HTTP 413.
    """

    def __init__(self, length: int, limit: int):
        super().__init__(
            f"request body of {length} bytes exceeds the gateway limit of"
            f" {limit} bytes"
        )
        self.length = length
        self.limit = limit


class RequestTimeout(QueryError):
    """The client stalled while the gateway was reading its request body.

    The socket read timed out before ``Content-Length`` bytes arrived; the
    worker thread is released instead of hanging on a dribbling client.
    Maps to HTTP 408.
    """


class AdminError(ReproError):
    """An HTTP admin-plane request was refused before touching the registry.

    The admin control plane (``/admin/v1/...``) mutates serving state over
    the wire — deploys, refreshes, counter snapshots — so it is gated on a
    shared-secret token.  Both refusal modes derive from here so a client
    can catch one type.
    """


class AdminDisabled(AdminError):
    """An admin endpoint was called on a gateway with no admin token.

    The control plane is opt-in: a gateway started without
    ``--admin-token`` (or ``REPRO_ADMIN_TOKEN``) exposes only the data
    plane, and every ``/admin/v1/...`` request is refused with HTTP 403.
    """

    def __init__(self) -> None:
        super().__init__(
            "the admin control plane is disabled: start the gateway with"
            " --admin-token (or REPRO_ADMIN_TOKEN) to enable it"
        )


class AdminAuthError(AdminError):
    """An admin request carried a missing or wrong token (HTTP 401)."""

    def __init__(self) -> None:
        super().__init__(
            "admin request rejected: missing or wrong admin token (send"
            " 'Authorization: Bearer <token>' or 'X-Admin-Token: <token>')"
        )


class SupervisorError(ReproError, RuntimeError):
    """The gateway supervisor could not start or keep its child serving."""


class RestartBudgetExhausted(SupervisorError):
    """The supervised gateway kept dying until the restart budget ran out.

    Escalation is deliberate: a child that cannot hold a deploy (bad
    artifact, poisoned state file, port conflict) must surface as a clean
    nonzero supervisor exit, not an infinite crash loop.
    """

    def __init__(self, restarts: int, budget: int):
        super().__init__(
            f"gateway died {restarts + 1} times; restart budget of"
            f" {budget} exhausted — escalating instead of crash-looping"
        )
        self.restarts = restarts
        self.budget = budget


class TraceError(ReproError, ValueError):
    """A replay trace file could not be parsed, or its replay failed its
    reconciliation invariant (a submitted request lost or double-counted).

    Raised by :mod:`repro.replay` — a trace that cannot be trusted fails
    loudly, exactly like a corrupt checkpoint journal.
    """


class NotSupportedError(ReproError, NotImplementedError):
    """The estimator does not implement this optional protocol operation.

    The :class:`~repro.core.estimator.Estimator` protocol makes ``explain``
    a uniform method, but only rule-structured models can justify their
    predictions; baselines (and artifact-loaded models without their
    training samples) raise this instead of guessing.  The serving surface
    maps it to HTTP 501.
    """


# ----------------------------------------------------------------------
# Model registry (multi-tenant gateway)
# ----------------------------------------------------------------------


class ModelNotFound(ReproError, KeyError):
    """No model is deployed under the requested registry name."""

    def __init__(self, name: str, available: "tuple" = ()):
        detail = f"no model deployed under {name!r}"
        if available:
            detail += f" (deployed: {', '.join(sorted(available))})"
        # KeyError quotes its lone arg on str(); go through Exception to
        # keep the rendered message readable in HTTP bodies and CLI output.
        Exception.__init__(self, detail)
        self.name = name
        self.available = tuple(available)

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class QuotaExceeded(ServiceError):
    """A tenant exhausted its per-tenant in-flight request quota.

    The registry sheds the request instead of letting one tenant starve
    the others; the per-model service queue never sees it.  Retry later.
    """

    def __init__(self, tenant: str, in_flight: int, quota: int):
        super().__init__(
            f"tenant {tenant!r} has {in_flight} requests in flight"
            f" (quota {quota}); retry later"
        )
        self.tenant = tenant
        self.in_flight = in_flight
        self.quota = quota
