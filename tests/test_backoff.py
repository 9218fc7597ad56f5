"""The three exponential-backoff schedules, pinned through their callers.

Prediction-service worker restarts, gateway-supervisor restarts and
supervised-task retries all compute their delay with
:func:`repro.evaluation.resilience.backoff_delay`.  Each row below drives
the real caller with its default base and records the delays it asks
for, so a change to any schedule (base, exponent offset or cap) fails
here.
"""

import numpy as np
import pytest

import repro.serving.service as service_module
import repro.serving.supervisor as supervisor_module
from repro.core.fast import FastBSTCEvaluator
from repro.errors import WorkerCrashed
from repro.evaluation.resilience import RetryPolicy, backoff_delay
from repro.evaluation.timing import EngineCounters
from repro.serving import GatewaySupervisor, PredictionService, ServeConfig
from repro.testing import FlakyBatchModel, ServiceFault


def _recorded(monkeypatch, module):
    """Record every delay ``module`` computes; sleep none of them."""
    delays = []

    def spy(*args):
        delays.append(backoff_delay(*args))
        return 0.0

    monkeypatch.setattr(module, "backoff_delay", spy)
    return delays


def _service_restarts(monkeypatch, example, n):
    delays = _recorded(monkeypatch, service_module)
    evaluator = FastBSTCEvaluator(example)
    flaky = FlakyBatchModel(
        evaluator, faults=[ServiceFault(i, "kill") for i in range(n)]
    )
    query = np.zeros(example.n_items, dtype=bool)
    config = ServeConfig(max_wait_ms=0.0, breaker_threshold=None)
    with PredictionService(flaky, config, counters=EngineCounters()) as service:
        for _ in range(n):
            with pytest.raises(WorkerCrashed):
                service.classification_values(query, timeout=30)
        # The last replacement worker serves: every restart completed.
        service.classification_values(query, timeout=30)
    return delays


def _supervisor_restarts(monkeypatch, tmp_path, n):
    delays = _recorded(monkeypatch, supervisor_module)
    supervisor = GatewaySupervisor(
        ["true"], ready_file=tmp_path / "ready", max_restarts=n
    )
    # A set closing event makes each restart return after computing its
    # delay, before any child is spawned.
    supervisor._closing.set()
    for _ in range(n):
        assert supervisor._restart(1) is False
    return delays


def _task_retries(n):
    policy = RetryPolicy()
    return [policy.delay(attempt) for attempt in range(1, n + 1)]


@pytest.mark.parametrize(
    "schedule,expected",
    [
        # restart_backoff 0.05 s * 2**(n-1), capped at 1 s.
        ("service", [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0]),
        # backoff_base 0.25 s * 2**n, capped at 5 s.
        ("supervisor", [0.25, 0.5, 1.0, 2.0, 4.0, 5.0, 5.0]),
        # backoff 0.05 s * 2**(attempt-1), no cap.
        ("retry", [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2]),
    ],
)
def test_backoff_schedules_are_pinned(
    schedule, expected, monkeypatch, tmp_path, example
):
    n = len(expected)
    if schedule == "service":
        delays = _service_restarts(monkeypatch, example, n)
    elif schedule == "supervisor":
        delays = _supervisor_restarts(monkeypatch, tmp_path, n)
    else:
        delays = _task_retries(n)
    assert delays == expected
