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
"""

from ..errors import (
    AdminAuthError,
    AdminDisabled,
    AdminError,
    ModelNotFound,
    NotSupportedError,
    QuotaExceeded,
    RequestTimeout,
    RequestTooLarge,
    RestartBudgetExhausted,
    SupervisorError,
)
from .config import ServeConfig
from .http import GatewayServer
from .registry import ModelInfo, ModelRegistry, RegistryHealth
from .service import (
    CircuitOpen,
    DeadlineExceeded,
    PredictionService,
    QueryError,
    ServiceClosed,
    ServiceError,
    ServiceHealth,
    ServiceOverloaded,
)
from .supervisor import (
    GatewaySupervisor,
    STATE_SCHEMA,
    gateway_env,
    read_state_file,
    serve_command,
    write_state_file,
)
from .surface import (
    ERROR_SURFACE,
    EXIT_CORRUPT,
    EXIT_ERROR,
    EXIT_OVERLOAD,
    EXIT_STALE,
    EXIT_SUPERVISOR,
    error_body,
    exit_code,
    http_status,
)

__all__ = [
    "AdminAuthError",
    "AdminDisabled",
    "AdminError",
    "CircuitOpen",
    "DeadlineExceeded",
    "ERROR_SURFACE",
    "EXIT_CORRUPT",
    "EXIT_ERROR",
    "EXIT_OVERLOAD",
    "EXIT_STALE",
    "EXIT_SUPERVISOR",
    "GatewayServer",
    "GatewaySupervisor",
    "ModelInfo",
    "ModelNotFound",
    "ModelRegistry",
    "NotSupportedError",
    "PredictionService",
    "QueryError",
    "QuotaExceeded",
    "RegistryHealth",
    "RequestTimeout",
    "RequestTooLarge",
    "RestartBudgetExhausted",
    "STATE_SCHEMA",
    "ServeConfig",
    "ServiceClosed",
    "ServiceError",
    "ServiceHealth",
    "ServiceOverloaded",
    "SupervisorError",
    "error_body",
    "exit_code",
    "gateway_env",
    "http_status",
    "read_state_file",
    "serve_command",
    "write_state_file",
]
