"""Multi-tenant model gateway: many artifacts, one registry, hot swap.

The paper pitches BST/BSTC as the engine behind interactive biomedical
classification at scale, and SCARF-style deployments imply a webserver
fronting *many* rule-based models at once.  :class:`ModelRegistry` is that
layer: named model slots, each backed by its own micro-batching
:class:`~repro.serving.service.PredictionService` queue, behind one
admission scheduler that adds per-tenant quotas and uniform
``predict``/``explain``/``health`` addressing on top of each service's
deadline, shedding, and circuit-breaker machinery.

**Zero-downtime hot swap.**  ``deploy(name, artifact_path)`` over a live
slot is lossless by construction:

1. the incoming ``.npz`` is loaded via the memmap path and **eagerly**
   integrity-verified — a corrupt artifact is refused here, before
   anything changes, and the old model keeps serving;
2. a fresh service (and optional process pool) spins up next to the old
   one;
3. the slot flips atomically under the registry lock — new submissions now
   route to the new service;
4. the old service drains: ``close()`` answers every request it had
   already accepted, then its worker (and pool) retire.

A submitter that grabbed the old slot just before the flip may race the
drain and see :class:`~repro.errors.ServiceClosed`; the registry retries
it against the freshly flipped slot, so callers never observe the swap.
Every accepted request is answered exactly once — by the old version or
the new one, never neither, never both.

**Tenancy.**  Requests may carry a ``tenant`` label; with a
``tenant_quota`` configured, each tenant holds at most that many requests
in flight across the whole registry.  The (quota-exempt) anonymous tenant
is ``None``.  Quota rejections (:class:`~repro.errors.QuotaExceeded`) are
shed at admission — they never occupy a queue slot, so one chatty tenant
cannot starve the rest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import (
    ModelNotFound,
    NotSupportedError,
    QuotaExceeded,
    ServiceClosed,
)
from ..evaluation.timing import EngineCounters, engine_counters
from .config import ServeConfig
from .pool import ProcessPoolModel
from .service import PredictionService, ServiceHealth

__all__ = ["ModelInfo", "ModelRegistry", "RegistryHealth"]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ModelInfo:
    """Metadata snapshot for one deployed model slot."""

    name: str
    version: int  # bumps on every hot swap of this slot
    fingerprint: str
    n_items: int
    n_classes: int
    class_names: Tuple[str, ...]
    artifact_path: Optional[str]  # None for in-memory deployments
    workers: int  # process-pool size actually serving (0 = in-process)
    supports_explain: bool


@dataclass(frozen=True)
class RegistryHealth:
    """Aggregate readiness snapshot returned by :meth:`ModelRegistry.health`."""

    state: str  # "serving" or "closed"
    models: Dict[str, ServiceHealth]
    tenants_in_flight: int

    @property
    def ready(self) -> bool:
        """True when every deployed slot would accept a request now."""
        return self.state == "serving" and all(
            h.ready for h in self.models.values()
        )

    @property
    def breakers_open(self) -> int:
        """How many slots currently have a non-closed circuit breaker."""
        return sum(1 for h in self.models.values() if h.breaker != "closed")

    @property
    def breaker_retry_after(self) -> float:
        """The longest remaining breaker cooldown across all slots (0.0
        when every breaker is closed) — lets an operator or replay driver
        observe trips without triggering requests."""
        if not self.models:
            return 0.0
        return max(h.breaker_retry_after for h in self.models.values())


@dataclass
class _Slot:
    """One live model slot (immutable once registered; swaps replace it)."""

    info: ModelInfo
    classifier: Any  # the Estimator behind explain/metadata
    service: PredictionService
    pool: Optional[ProcessPoolModel]

    def retire(self) -> None:
        """Drain and shut down: answers everything accepted, then stops."""
        self.service.close()
        if self.pool is not None:
            self.pool.close()


def _item_names(slot: _Slot) -> Tuple[str, ...]:
    dataset = getattr(slot.classifier, "dataset", None)
    return tuple(getattr(dataset, "item_names", ()) or ())


class ModelRegistry:
    """Serve many named models concurrently, with zero-downtime redeploys.

    Args:
        config: default :class:`ServeConfig` for every slot (a per-deploy
            override may be passed to :meth:`deploy`).
        tenant_quota: maximum in-flight requests per named tenant across
            the registry (``None`` disables quotas).
        counters: counter sink (defaults to the process-wide
            :data:`~repro.evaluation.timing.engine_counters`).

    Usable as a context manager; :meth:`close` drains every slot.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        tenant_quota: Optional[int] = None,
        counters: Optional[EngineCounters] = None,
    ):
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError("tenant_quota must be >= 1 (or None)")
        self._config = config if config is not None else ServeConfig()
        self._tenant_quota = tenant_quota
        self._counters = counters if counters is not None else engine_counters
        self._lock = threading.Lock()
        self._slots: Dict[str, _Slot] = {}
        self._tenants: Dict[str, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(
        self,
        name: str,
        artifact_path: PathLike,
        *,
        config: Optional[ServeConfig] = None,
        expected_fingerprint: Optional[str] = None,
    ) -> ModelInfo:
        """Deploy (or hot-swap) a compiled artifact under ``name``.

        The artifact is loaded through the memmap path and verified
        **eagerly** before anything flips: a corrupt or stale file raises
        (:class:`~repro.core.artifact.ArtifactCorrupt` /
        :class:`~repro.core.artifact.ArtifactStale`, the file is left in
        place) and the currently deployed version — if any — keeps serving
        untouched.  On success the slot flips atomically and the old
        service drains to completion; in-flight requests are answered by
        whichever version accepted them.
        """
        from ..core.classifier import BSTClassifier

        self._check_name(name)
        cfg = config if config is not None else self._config
        # Everything expensive happens before the flip, outside the lock:
        # verification, table mapping, pool spin-up.  A failure here is a
        # no-op for the running slot.
        classifier = BSTClassifier.load(
            artifact_path,
            expected_fingerprint=expected_fingerprint,
            verify="eager",
            on_corrupt="fail",
        )
        pool: Optional[ProcessPoolModel] = None
        model: Any = classifier
        if cfg.workers > 0:
            pool = ProcessPoolModel(classifier, artifact_path, cfg.workers)
            model = pool
        service = PredictionService(model, cfg, counters=self._counters)
        return self._flip(
            name,
            classifier,
            service,
            pool,
            artifact_path=str(artifact_path),
            workers=pool.pool_workers if pool is not None else 0,
            supports_explain=False,
        )

    def refresh(
        self,
        name: str,
        dataset: Any,
        *,
        config: Optional[ServeConfig] = None,
        out_path: Optional[PathLike] = None,
    ) -> ModelInfo:
        """Delta-refresh a deployed artifact slot against grown training
        data and hot-swap the result — the drift-aware retrain loop.

        ``dataset`` must be an append-only extension of the slot's original
        training data (e.g. the result of
        :meth:`~repro.datasets.dataset.RelationalDataset.append_samples`).
        The slot's artifact is recompiled via
        :func:`repro.core.artifact.refresh_artifact` — only the plan blocks
        the appended rows touch are recomputed, not the full O(rows²)
        rebuild — and the refreshed file is redeployed through
        :meth:`deploy`, inheriting its zero-downtime swap semantics: the old
        version keeps serving until the new one is verified and live, and
        in-flight requests are answered by whichever version accepted them.
        ``out_path`` redirects the refreshed artifact to a new file
        (default: atomic in-place replacement).
        """
        from ..core.artifact import refresh_artifact

        slot = self._slot(name)
        artifact_path = slot.info.artifact_path
        if artifact_path is None:
            raise NotSupportedError(
                f"model {name!r} cannot be delta-refreshed: it was deployed"
                " from an in-memory estimator, not an artifact"
            )
        target = refresh_artifact(
            artifact_path,
            dataset,
            out_path=out_path,
            expected_fingerprint=slot.info.fingerprint or None,
        )
        self._counters.increment("registry_refreshes")
        return self.deploy(
            name,
            target,
            config=config,
            expected_fingerprint=dataset.fingerprint,
        )

    def deploy_model(
        self,
        name: str,
        estimator: Any,
        *,
        config: Optional[ServeConfig] = None,
    ) -> ModelInfo:
        """Deploy a fitted in-memory estimator (no artifact) under ``name``.

        The estimator must satisfy the
        :class:`~repro.core.estimator.Estimator` protocol's batch surface
        (``classification_values_batch``); ``explain`` is routed through
        when the estimator supports it (BSTC fitted on real training data
        does; artifact-loaded models and baselines do not).
        """
        self._check_name(name)
        cfg = config if config is not None else self._config
        service = PredictionService(estimator, cfg, counters=self._counters)
        return self._flip(
            name,
            estimator,
            service,
            None,
            artifact_path=None,
            workers=0,
            supports_explain=hasattr(estimator, "explain"),
        )

    def _flip(
        self,
        name: str,
        classifier: Any,
        service: PredictionService,
        pool: Optional[ProcessPoolModel],
        *,
        artifact_path: Optional[str],
        workers: int,
        supports_explain: bool,
    ) -> ModelInfo:
        # Baselines satisfy the Estimator protocol without carrying their
        # training dataset; serve them with empty metadata rather than
        # refusing.  (An unfitted BSTC raises NotFittedError here — before
        # anything flips.)
        dataset = getattr(classifier, "dataset", None)
        old: Optional[_Slot] = None
        rejected = False
        info: Optional[ModelInfo] = None
        with self._lock:
            if self._closed:
                rejected = True  # undo the spin-up; nothing was ever visible
            else:
                old = self._slots.get(name)
                info = ModelInfo(
                    name=name,
                    version=(old.info.version + 1 if old is not None else 1),
                    fingerprint=str(getattr(dataset, "fingerprint", "")),
                    n_items=int(getattr(dataset, "n_items", 0)),
                    n_classes=int(getattr(dataset, "n_classes", 0)),
                    class_names=tuple(getattr(dataset, "class_names", ())),
                    artifact_path=artifact_path,
                    workers=workers,
                    supports_explain=supports_explain,
                )
                self._slots[name] = _Slot(
                    info=info, classifier=classifier, service=service, pool=pool
                )
        if rejected:
            service.close()
            if pool is not None:
                pool.close()
            raise ServiceClosed("model registry is closed; cannot deploy")
        assert info is not None
        if old is not None:
            # Drain outside the lock: close() blocks until every request
            # the old service accepted has been answered.
            old.retire()
            self._counters.increment("registry_swaps")
        self._counters.increment("registry_deploys")
        return info

    def undeploy(self, name: str) -> bool:
        """Remove a slot, draining its service.  False if absent."""
        with self._lock:
            slot = self._slots.pop(name, None)
        if slot is None:
            return False
        slot.retire()
        self._counters.increment("registry_undeploys")
        return True

    @staticmethod
    def _check_name(name: str) -> None:
        if not name or "/" in name or ":" in name:
            raise ValueError(
                f"model name {name!r} must be non-empty and contain"
                " neither '/' nor ':'"
            )

    # ------------------------------------------------------------------
    # Lookup and introspection
    # ------------------------------------------------------------------
    def _slot(self, name: str) -> _Slot:
        with self._lock:
            if self._closed:
                raise ServiceClosed(
                    "model registry is closed; no new requests accepted"
                )
            slot = self._slots.get(name)
            if slot is None:
                raise ModelNotFound(name, tuple(self._slots))
            return slot

    def models(self) -> List[ModelInfo]:
        """Metadata for every deployed slot, sorted by name."""
        with self._lock:
            return sorted(
                (slot.info for slot in self._slots.values()),
                key=lambda info: info.name,
            )

    def model_info(self, name: str) -> ModelInfo:
        return self._slot(name).info

    def artifact_map(self) -> Dict[str, str]:
        """``name -> artifact path`` for every artifact-backed slot.

        This is the registry's last-known-good deployment set: what a
        supervisor restart (or a fresh ``serve --state-file``) redeploys to
        come back exactly as it was.  In-memory deployments have no file to
        reload and are deliberately absent."""
        with self._lock:
            return {
                name: slot.info.artifact_path
                for name, slot in sorted(self._slots.items())
                if slot.info.artifact_path is not None
            }

    def item_names(self, name: str) -> Tuple[str, ...]:
        """The named model's gene vocabulary (empty when unavailable)."""
        return _item_names(self._slot(name))

    @property
    def counters(self) -> EngineCounters:
        """The counter sink the registry and its slots report into."""
        return self._counters

    def counters_snapshot(self) -> Dict[str, float]:
        """The serving-relevant counter state (``registry_*``/``service_*``
        keys) as a plain dict — the replay harness diffs two of these to
        reconcile its client-side accounting against what the service
        believes happened."""
        return {
            name: value
            for name, value in self._counters.snapshot().items()
            if name.startswith(("registry_", "service_"))
        }

    def health(self) -> RegistryHealth:
        """Aggregate snapshot: registry state + every slot's ServiceHealth."""
        with self._lock:
            slots = dict(self._slots)
            closed = self._closed
            in_flight = sum(self._tenants.values())
        return RegistryHealth(
            state="closed" if closed else "serving",
            models={
                name: slot.service.health() for name, slot in slots.items()
            },
            tenants_in_flight=in_flight,
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._slots

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def classification_values(
        self,
        name: str,
        query: Any,
        *,
        tenant: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Per-class values for one query against the named model.

        Admission order: tenant quota first (cheap, registry-wide), then
        the slot service's own shedding/breaker/deadline machinery.  A
        request that races a hot swap is retried against the new version.
        """
        return self._classify(
            name, query, tenant=tenant, timeout=timeout, deadline_ms=deadline_ms
        )[0]

    def _classify(
        self,
        name: str,
        query: Any,
        *,
        tenant: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
    ) -> Tuple[np.ndarray, ModelInfo]:
        """:meth:`classification_values` plus the :class:`ModelInfo` of the
        slot that answered.  A later :meth:`model_info` call could already
        see a replacement deployed after the answer."""
        with self._admit(tenant):
            self._counters.increment("registry_requests")
            while True:
                slot = self._slot(name)
                try:
                    values = slot.service.classification_values(
                        query, timeout, deadline_ms=deadline_ms
                    )
                    return values, slot.info
                except ServiceClosed:
                    # Either the registry/slot went away (the re-lookup
                    # raises the right error) or we lost the race with a
                    # hot swap and must retry on the replacement slot.
                    if self._slot(name) is slot:
                        raise
                    self._counters.increment("registry_swap_retries")

    def predict(
        self,
        name: str,
        query: Any,
        *,
        tenant: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
    ) -> int:
        """Classify one query against the named model (first-argmax)."""
        values = self.classification_values(
            name, query, tenant=tenant, timeout=timeout, deadline_ms=deadline_ms
        )
        return int(np.argmax(values))

    def explain(
        self,
        name: str,
        query: Any,
        *,
        tenant: Optional[str] = None,
        **kwargs: Any,
    ) -> Any:
        """Rule evidence for a classification by the named model.

        Routed to the slot estimator's ``explain`` (the
        :class:`~repro.core.estimator.Estimator` protocol method); slots
        that cannot justify predictions — artifact-only deployments
        without training samples, baseline models — raise
        :class:`~repro.errors.NotSupportedError`.
        """
        return self._explain(name, query, tenant=tenant, **kwargs)[0]

    def _explain(
        self,
        name: str,
        query: Any,
        *,
        tenant: Optional[str] = None,
        **kwargs: Any,
    ) -> Tuple[Any, ModelInfo, Tuple[str, ...]]:
        """:meth:`explain` plus the answering slot's :class:`ModelInfo` and
        gene vocabulary, read from the same slot as the explanation."""
        with self._admit(tenant):
            slot = self._slot(name)
            if not slot.info.supports_explain:
                raise NotSupportedError(
                    f"model {name!r} cannot explain predictions: it was"
                    " deployed from a compiled artifact without its"
                    " training samples"
                )
            self._counters.increment("registry_explains")
            explanation = slot.classifier.explain(query, **kwargs)
            return explanation, slot.info, _item_names(slot)

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------
    def _admit(self, tenant: Optional[str]) -> "_TenantLease":
        return _TenantLease(self, tenant)

    def tenants(self) -> Dict[str, int]:
        """In-flight request count per named tenant (snapshot)."""
        with self._lock:
            return dict(self._tenants)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admitting, drain every slot, retire services.  Idempotent."""
        with self._lock:
            if self._closed:
                slots: List[_Slot] = []
            else:
                self._closed = True
                slots = list(self._slots.values())
                self._slots.clear()
        for slot in slots:
            slot.retire()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _TenantLease:
    """Context manager holding one tenant's in-flight admission token."""

    def __init__(self, registry: ModelRegistry, tenant: Optional[str]):
        self._registry = registry
        self._tenant = tenant
        self._held = False

    def __enter__(self) -> "_TenantLease":
        registry, tenant = self._registry, self._tenant
        if tenant is None or registry._tenant_quota is None:
            return self
        with registry._lock:
            in_flight = registry._tenants.get(tenant, 0)
            if in_flight >= registry._tenant_quota:
                registry._counters.increment("registry_quota_rejections")
                raise QuotaExceeded(tenant, in_flight, registry._tenant_quota)
            registry._tenants[tenant] = in_flight + 1
        self._held = True
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if not self._held:
            return
        registry, tenant = self._registry, self._tenant
        with registry._lock:
            remaining = registry._tenants.get(tenant, 0) - 1
            if remaining > 0:
                registry._tenants[tenant] = remaining
            else:
                registry._tenants.pop(tenant, None)
