"""Supervised worker pool: the fault-tolerant experiment runtime.

PR 1's fold-parallel cross-validation fanned tasks over a bare
``multiprocessing.Pool.map``, which has three failure modes fatal to a
multi-hour study: a crashed worker raises in the parent and the whole study's
results are lost, a hung worker stalls the pool forever, and platforms
without POSIX semaphores (no ``sem_open``) cannot build a pool at all.  This
module replaces it with a *supervised* pool:

* one worker process per task (folds are seconds-heavy, so process spawn is
  noise), each watched by the parent with a per-task wall-clock timeout;
* crash detection (the worker died without replying) and payload validation
  (the worker replied with garbage), both retried up to
  :attr:`RetryPolicy.retries` times with deterministic exponential backoff;
* per-task degradation: a task that exhausts its retries — or outruns its
  timeout — is handed to a ``fallback`` that produces a DNF stand-in result
  (the cross-validation harness emits a DNF
  :class:`~repro.evaluation.crossval.TestResult` whose note says why), so
  one bad fold never aborts the study;
* automatic fallback to supervised *serial* execution when multiprocessing
  is unavailable or one worker is requested, with the same retry/degrade
  state machine (timeouts cannot preempt in-process work and are then only
  honored cooperatively via each runner's own ``Budget``).

Deterministic fault injection (:mod:`repro.testing.faults`) plugs into the
same worker wrapper, so every recovery path above is exercised by tests
rather than trusted.

Supervision events feed the shared engine counters: ``resilience_crashes``,
``resilience_timeouts``, ``resilience_corrupt``, ``resilience_retries`` and
``resilience_degraded``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import CorruptResult, TaskTimeout, WorkerCrashed
from ..testing.faults import FaultPlan, InjectedHang, apply_fault
from .timing import engine_counters

#: Supervisor poll interval while tasks are in flight.
_POLL_SECONDS = 0.02
#: Grace period to drain a dead worker's result queue (its feeder thread may
#: still be flushing when the process exit is observed).
_DRAIN_SECONDS = 0.25

Worker = Callable[[Any], Any]
Validator = Callable[[Any], bool]
#: ``fallback(index, payload, failure, attempts, error) -> degraded value``.
Fallback = Callable[[int, Any, str, int, str], Any]
OnSuccess = Callable[[int, Any], None]

_FAILURE_EXC = {
    "crashed": WorkerCrashed,
    "timeout": TaskTimeout,
    "corrupt": CorruptResult,
}


def backoff_delay(base: float, exponent: int, cap: float = math.inf) -> float:
    """Deterministic exponential backoff: ``base * 2**exponent`` seconds,
    at most ``cap``.  No jitter, so every retry schedule is reproducible."""
    return min(base * (2 ** exponent), cap)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout policy for supervised tasks.

    Args:
        retries: extra attempts after the first (0 = fail fast).
        backoff: base delay in seconds; attempt ``a`` waits
            ``backoff * 2**(a-1)`` before re-running (deterministic, no
            jitter — reruns are reproducible).
        task_timeout: per-task wall-clock ceiling; a worker past it is
            killed.  ``math.inf`` (default) never times out.
        retry_timeouts: whether a timed-out task is retried.  Off by
            default: a hang almost always hangs again, and the paper's DNF
            convention already covers "did not finish in time".
    """

    retries: int = 2
    backoff: float = 0.05
    task_timeout: float = math.inf
    retry_timeouts: bool = False

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive")

    def delay(self, attempt: int) -> float:
        """Deterministic backoff before re-running after ``attempt``."""
        return backoff_delay(self.backoff, attempt - 1)


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one supervised task.

    ``status`` is ``ok`` (a genuine worker result, possibly after retries)
    or ``degraded`` (the fallback value stands in).  For degraded outcomes
    ``failure`` names the terminal event (``crashed``/``timeout``/
    ``corrupt``) and ``error`` carries its detail.
    """

    index: int
    status: str
    value: Any
    attempts: int
    failure: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def multiprocessing_available() -> bool:
    """Whether this platform can run the process-based pool.

    Probes semaphore creation (``sem_open`` is missing on some platforms,
    e.g. Android or sandboxed containers).  ``REPRO_FORCE_SERIAL=1`` forces
    the serial path regardless — useful for debugging and tests.
    """
    if os.environ.get("REPRO_FORCE_SERIAL"):
        return False
    return _probe_semaphores()


_PROBE_RESULT: Optional[bool] = None


def _probe_semaphores() -> bool:
    global _PROBE_RESULT
    if _PROBE_RESULT is None:
        try:
            lock = multiprocessing.get_context().Lock()
            del lock
            _PROBE_RESULT = True
        except (ImportError, OSError):
            _PROBE_RESULT = False
    return _PROBE_RESULT


# ----------------------------------------------------------------------
# Worker-side wrapper
# ----------------------------------------------------------------------


def _subprocess_main(
    worker: Worker,
    index: int,
    attempt: int,
    payload: Any,
    fault_plan: Optional[FaultPlan],
    result_queue,
) -> None:
    """Run one task in a worker process, replying ``(status, value)``.

    Injected faults apply first: a crash exits without replying, a hang
    sleeps past the supervisor's timeout, a corrupt fault substitutes a
    garbage payload for the real result.
    """
    try:
        value = None
        injected = None
        spec = fault_plan.spec_for(index, attempt) if fault_plan else None
        if spec is not None:
            injected = apply_fault(spec, serial=False)
        value = injected if injected is not None else worker(payload)
        result_queue.put(("ok", value))
    except BaseException as exc:  # reply with the failure, then die quietly
        try:
            result_queue.put(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass


class _RunningTask:
    """Parent-side handle on one in-flight worker process."""

    __slots__ = ("process", "queue", "index", "attempt", "started")

    def __init__(self, ctx, worker, index, attempt, payload, fault_plan):
        self.queue = ctx.Queue()
        self.index = index
        self.attempt = attempt
        self.process = ctx.Process(
            target=_subprocess_main,
            args=(worker, index, attempt, payload, fault_plan, self.queue),
            daemon=True,
        )
        self.process.start()
        self.started = time.monotonic()

    def poll(self, timeout: float) -> Optional[tuple]:
        """``(status, value, failure, error)`` once the task settles, else
        ``None`` while it is still healthy and within its deadline."""
        try:
            status, value = self.queue.get_nowait()
        except queue_module.Empty:
            pass
        else:
            return self._settle(status, value)
        if not self.process.is_alive():
            # Exited without a visible reply; give the queue's feeder thread
            # a moment to flush before declaring a crash.
            try:
                status, value = self.queue.get(timeout=_DRAIN_SECONDS)
            except queue_module.Empty:
                code = self.process.exitcode
                return ("failed", None, "crashed", f"worker exit code {code}")
            return self._settle(status, value)
        if time.monotonic() - self.started >= timeout:
            self.process.terminate()
            self.process.join()
            return ("failed", None, "timeout", f"killed after {timeout:.3f}s")
        return None

    @staticmethod
    def _settle(status: str, value: Any) -> tuple:
        if status == "ok":
            return ("ok", value, "", "")
        return ("failed", None, "crashed", str(value))

    def close(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        self.queue.close()


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------


def supervised_map(
    worker: Worker,
    payloads: Sequence[Any],
    *,
    n_jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    validate: Optional[Validator] = None,
    fallback: Optional[Fallback] = None,
    on_success: Optional[OnSuccess] = None,
    serial_worker: Optional[Worker] = None,
) -> List[TaskOutcome]:
    """Run ``worker`` over ``payloads`` under supervision.

    Results land in payload order.  ``on_success`` fires in the parent as
    each genuine result arrives (checkpoint journaling, counter merges);
    degraded results do *not* fire it, so checkpoints only ever hold real
    results.  Without a ``fallback``, a terminally failed task raises the
    matching :class:`~repro.errors.WorkerError` subclass instead of
    degrading.

    ``serial_worker`` is the in-process variant used when the pool falls
    back to serial execution (workers that reset process-global state, like
    the engine-counter snapshot protocol, need a different body in-process).
    """
    policy = policy or RetryPolicy()
    payloads = list(payloads)
    if not payloads:
        return []
    n_jobs = max(1, min(n_jobs, len(payloads)))
    if n_jobs <= 1 or not multiprocessing_available():
        return _run_serial(
            serial_worker or worker,
            payloads,
            policy,
            fault_plan,
            validate,
            fallback,
            on_success,
        )
    return _run_parallel(
        worker, payloads, n_jobs, policy, fault_plan, validate, fallback, on_success
    )


def _record_failure(failure: str) -> None:
    engine_counters.increment(f"resilience_{failure}")


def _retryable(failure: str, policy: RetryPolicy) -> bool:
    return failure != "timeout" or policy.retry_timeouts


def _degrade(
    index: int,
    payload: Any,
    failure: str,
    attempts: int,
    error: str,
    fallback: Optional[Fallback],
) -> TaskOutcome:
    engine_counters.increment("resilience_degraded")
    if fallback is None:
        raise _FAILURE_EXC[failure](
            f"task {index} {failure} after {attempts} attempt(s): {error}"
        )
    value = fallback(index, payload, failure, attempts, error)
    return TaskOutcome(index, "degraded", value, attempts, failure, error)


def _run_serial(
    worker: Worker,
    payloads: List[Any],
    policy: RetryPolicy,
    fault_plan: Optional[FaultPlan],
    validate: Optional[Validator],
    fallback: Optional[Fallback],
    on_success: Optional[OnSuccess],
) -> List[TaskOutcome]:
    """The serial fallback: same retry/degrade state machine, in-process.

    Worker exceptions stand in for crashes; injected hangs raise
    :class:`~repro.testing.faults.InjectedHang` (serial execution cannot
    preempt a genuinely hung call — runners' cooperative budgets cover
    that).
    """
    outcomes: List[TaskOutcome] = []
    for index, payload in enumerate(payloads):
        attempt = 1
        while True:
            failure = ""
            error = ""
            value = None
            spec = fault_plan.spec_for(index, attempt) if fault_plan else None
            try:
                injected = apply_fault(spec, serial=True) if spec else None
                value = injected if injected is not None else worker(payload)
            except InjectedHang as exc:
                failure, error = "timeout", str(exc)
            except Exception as exc:
                failure, error = "crashed", f"{type(exc).__name__}: {exc}"
            if not failure and validate is not None and not validate(value):
                failure, error = "corrupt", "result failed validation"
            if not failure:
                if on_success is not None:
                    on_success(index, value)
                outcomes.append(TaskOutcome(index, "ok", value, attempt))
                break
            _record_failure(failure)
            if _retryable(failure, policy) and attempt <= policy.retries:
                engine_counters.increment("resilience_retries")
                delay = policy.delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
                continue
            outcomes.append(
                _degrade(index, payload, failure, attempt, error, fallback)
            )
            break
    return outcomes


def _run_parallel(
    worker: Worker,
    payloads: List[Any],
    n_jobs: int,
    policy: RetryPolicy,
    fault_plan: Optional[FaultPlan],
    validate: Optional[Validator],
    fallback: Optional[Fallback],
    on_success: Optional[OnSuccess],
) -> List[TaskOutcome]:
    """The supervised process pool: at most ``n_jobs`` workers in flight,
    per-task deadlines, crash/corruption retries with backoff, degradation
    on terminal failure."""
    ctx = multiprocessing.get_context()
    outcomes: Dict[int, TaskOutcome] = {}
    # (index, attempt, ready_at): tasks awaiting a worker slot.
    pending: List[tuple] = [(i, 1, 0.0) for i in range(len(payloads))]
    running: List[_RunningTask] = []
    try:
        while pending or running:
            now = time.monotonic()
            # Launch every ready task that fits in a free slot.
            launchable = [p for p in pending if p[2] <= now]
            while launchable and len(running) < n_jobs:
                index, attempt, _ = launchable.pop(0)
                pending = [p for p in pending if p[0] != index]
                running.append(
                    _RunningTask(
                        ctx, worker, index, attempt, payloads[index], fault_plan
                    )
                )
            progressed = False
            for task in list(running):
                settled = task.poll(policy.task_timeout)
                if settled is None:
                    continue
                progressed = True
                running.remove(task)
                status, value, failure, error = settled
                task.close()
                if status == "ok" and validate is not None and not validate(value):
                    status, failure, error = (
                        "failed",
                        "corrupt",
                        "result failed validation",
                    )
                if status == "ok":
                    if on_success is not None:
                        on_success(task.index, value)
                    outcomes[task.index] = TaskOutcome(
                        task.index, "ok", value, task.attempt
                    )
                    continue
                _record_failure(failure)
                if _retryable(failure, policy) and task.attempt <= policy.retries:
                    engine_counters.increment("resilience_retries")
                    ready_at = time.monotonic() + policy.delay(task.attempt)
                    pending.append((task.index, task.attempt + 1, ready_at))
                    continue
                outcomes[task.index] = _degrade(
                    task.index,
                    payloads[task.index],
                    failure,
                    task.attempt,
                    error,
                    fallback,
                )
            if not progressed:
                time.sleep(_POLL_SECONDS)
    finally:
        for task in running:
            task.close()
    return [outcomes[i] for i in range(len(payloads))]
