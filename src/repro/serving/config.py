"""The serving configuration surface.

:class:`ServeConfig` is the single knob bundle for everything that serves
predictions — :class:`~repro.serving.service.PredictionService` directly,
every slot of a :class:`~repro.serving.registry.ModelRegistry`, and the
HTTP gateway's CLI wiring: construct one config, validate it once, hand it
to as many services as you like.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

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
        if self.admin_token is not None and not self.admin_token:
            raise ValueError("admin_token must be a non-empty string or None")

    def with_overrides(self, **overrides: Any) -> "ServeConfig":
        """A copy with the given fields replaced (and re-validated)."""
        return replace(self, **overrides)

