"""Serving layer: artifacts, micro-batch services, and the model gateway.

The production-facing composition of the repository's fast pieces, bottom
up:

* :func:`repro.core.artifact.load_artifact` restores a fitted evaluator
  with zero recompilation (memmapped, integrity-verified);
* :class:`PredictionService` multiplexes concurrent single-query callers
  onto the batched BSTCE kernel — per-request deadlines, load shedding,
  poison-query isolation, supervised worker restarts, circuit breaker —
  configured by one validated :class:`ServeConfig`;
* :class:`ModelRegistry` serves many named models concurrently, each slot
  its own service queue, with zero-downtime hot swap
  (:meth:`~repro.serving.registry.ModelRegistry.deploy`) and per-tenant
  quotas;
* :class:`GatewayServer` puts a stdlib HTTP front end on the registry
  (``POST /v1/models/{name}:predict`` / ``:explain``, ``GET /v1/models``,
  ``GET /health``, plus a token-gated ``/admin/v1/...`` control plane) —
  ``python -m repro.cli serve`` from the command line;
* :class:`GatewaySupervisor` runs that gateway as a supervised child
  process: readiness file, liveness probes, deterministic-backoff crash
  restarts that reload the last-known-good artifact set, and a restart
  budget that escalates cleanly (``serve --supervise``).

Failures surface uniformly: one table in :mod:`repro.serving.surface`
maps every serving exception onto its HTTP status and CLI exit code.

See ``docs/SERVING.md`` for the artifact format and service internals and
``docs/GATEWAY.md`` for the gateway API, tenancy, and swap semantics.

Names resolve lazily (:mod:`repro._lazy`): ``repro.cli serve`` imports the
gateway's modules, not the supervisor's or the fitting stack.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "AdminAuthError": "..errors",
    "AdminDisabled": "..errors",
    "AdminError": "..errors",
    "ModelNotFound": "..errors",
    "NotSupportedError": "..errors",
    "QuotaExceeded": "..errors",
    "RequestTimeout": "..errors",
    "RequestTooLarge": "..errors",
    "RestartBudgetExhausted": "..errors",
    "SupervisorError": "..errors",
    "ServeConfig": ".config",
    "GatewayServer": ".http",
    "ModelInfo": ".registry",
    "ModelRegistry": ".registry",
    "RegistryHealth": ".registry",
    "CircuitOpen": ".service",
    "DeadlineExceeded": ".service",
    "PredictionService": ".service",
    "QueryError": ".service",
    "ServiceClosed": ".service",
    "ServiceError": ".service",
    "ServiceHealth": ".service",
    "ServiceOverloaded": ".service",
    "GatewaySupervisor": ".supervisor",
    "STATE_SCHEMA": ".supervisor",
    "gateway_env": ".supervisor",
    "read_state_file": ".supervisor",
    "serve_command": ".supervisor",
    "write_state_file": ".supervisor",
    "ERROR_SURFACE": ".surface",
    "EXIT_CORRUPT": ".surface",
    "EXIT_ERROR": ".surface",
    "EXIT_OVERLOAD": ".surface",
    "EXIT_STALE": ".surface",
    "EXIT_SUPERVISOR": ".surface",
    "error_body": ".surface",
    "exit_code": ".surface",
    "http_status": ".surface",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
