"""The serving configuration surface.

:class:`ServeConfig` is the single knob bundle for everything that serves
predictions — :class:`~repro.serving.service.PredictionService` directly,
every slot of a :class:`~repro.serving.registry.ModelRegistry`, and the
HTTP gateway's CLI wiring.  It replaces the kwarg pile that used to grow
on ``PredictionService(...)``: construct one config, validate it once,
hand it to as many services as you like.

The old per-service keyword arguments still work for one release —
``PredictionService(model, max_batch=8)`` folds them into a config and
emits a :class:`DeprecationWarning` — so existing callers keep running
while they migrate to ``PredictionService(model, ServeConfig(max_batch=8))``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Validated configuration for one micro-batching prediction service.

    Attributes:
        max_batch: largest batch the worker hands to the kernel.
        max_wait_ms: how long the worker holds an open batch for stragglers.
            The window opens only when other requests are already queued
            behind the one the worker took; a request that finds the queue
            empty is dispatched at once (``0`` batches only what is already
            queued).
        max_pending: bound on queued requests; submitters past it block
            until the worker catches up (backpressure).
        default_deadline_ms: deadline applied to requests that do not carry
            their own (``None`` = no default deadline).
        shed_high: queue depth at which new submissions are rejected with
            :class:`~repro.errors.ServiceOverloaded` instead of blocking
            (``None`` disables shedding).
        shed_low: queue depth at which shedding stops re-admitting
            (hysteresis; defaults to ``shed_high // 2``).
        breaker_threshold: consecutive failed batches that trip the circuit
            breaker (``None`` disables the breaker).
        breaker_cooldown: seconds the tripped breaker rejects before
            half-opening to probe recovery.
        restart_backoff: base of the crashed worker's deterministic
            exponential restart backoff (capped at 1s).
        validate_queries: reject malformed queries at submission time with
            :class:`~repro.errors.QueryError` instead of letting them reach
            the worker.
        adaptive_batch: let the worker tune its *effective* batch ceiling
            between 1 and ``max_batch`` from observed batch compute latency:
            batches costing more than the ``max_wait_ms`` straggler budget
            shrink the ceiling (halving), comfortably cheap ones grow it
            back (one step).  Keeps tail latency near the configured wait
            budget when model cost drifts, without retuning ``max_batch``
            by hand.  Requires ``max_wait_ms > 0`` (the budget being
            adapted against).
        workers: registry-only — size of the optional multi-process worker
            pool behind an artifact-backed model slot (``0`` evaluates in
            the service thread; the memmapped artifact format lets N
            processes share table pages, so aggregate throughput scales
            past the GIL).
        admin_token: gateway-only — shared-secret bearer token that
            enables the HTTP admin control plane (``/admin/v1/...``);
            ``None`` (the default) leaves the control plane disabled and
            the gateway data-plane-only.
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    max_pending: int = 1024
    default_deadline_ms: Optional[float] = None
    shed_high: Optional[int] = None
    shed_low: Optional[int] = None
    breaker_threshold: Optional[int] = 5
    breaker_cooldown: float = 1.0
    restart_backoff: float = 0.05
    validate_queries: bool = True
    adaptive_batch: bool = False
    workers: int = 0
    admin_token: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        if self.shed_low is not None and self.shed_high is None:
            raise ValueError("shed_low needs shed_high")
        if self.shed_high is not None:
            if self.shed_high < 1:
                raise ValueError("shed_high must be >= 1")
            if self.shed_low is None:
                object.__setattr__(self, "shed_low", self.shed_high // 2)
            if not 0 <= self.shed_low < self.shed_high:
                raise ValueError("need 0 <= shed_low < shed_high")
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1 (or None)")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be >= 0")
        if self.restart_backoff < 0:
            raise ValueError("restart_backoff must be >= 0")
        if self.adaptive_batch and self.max_wait_ms <= 0:
            raise ValueError("adaptive_batch requires max_wait_ms > 0")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.admin_token is not None and not self.admin_token:
            raise ValueError("admin_token must be a non-empty string or None")

    def with_overrides(self, **overrides: Any) -> "ServeConfig":
        """A copy with the given fields replaced (and re-validated)."""
        return replace(self, **overrides)


_FIELD_NAMES = tuple(f.name for f in fields(ServeConfig))


def coalesce_config(
    config: Optional[ServeConfig], legacy: Dict[str, Any], owner: str
) -> ServeConfig:
    """Fold deprecated per-call keyword arguments into a :class:`ServeConfig`.

    ``legacy`` keys must be config field names; unknown keys raise
    :class:`TypeError` exactly like a wrong keyword argument would.  Any
    legacy key emits one :class:`DeprecationWarning` naming the migration.
    """
    if not legacy:
        return config if config is not None else ServeConfig()
    unknown = sorted(set(legacy) - set(_FIELD_NAMES))
    if unknown:
        raise TypeError(
            f"{owner} got unexpected keyword argument(s): {', '.join(unknown)}"
        )
    warnings.warn(
        f"passing {', '.join(sorted(legacy))} directly to {owner} is"
        f" deprecated; pass ServeConfig({', '.join(sorted(legacy))}=...)"
        " instead",
        DeprecationWarning,
        stacklevel=3,
    )
    base = config if config is not None else ServeConfig()
    return replace(base, **legacy)
