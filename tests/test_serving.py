"""Micro-batching prediction service and evaluator-cache concurrency."""

import threading
import time

import numpy as np
import pytest

from conftest import random_relational
from repro.core.fast import (
    FastBSTCEvaluator,
    clear_evaluator_cache,
    evaluator_cache_info,
    get_evaluator,
    set_evaluator_cache_size,
)
from repro.errors import WorkerCrashed
from repro.evaluation.timing import EngineCounters
from repro.serving import service as service_module
from repro.serving import (
    CircuitOpen,
    DeadlineExceeded,
    PredictionService,
    QueryError,
    ServeConfig,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.testing import FlakyBatchModel, PoisonQueryError, ServiceFault


def make_service(model, *args, counters=None, **cfg):
    """A service from new-style config kwargs (the post-redesign surface)."""
    if args:  # a ServeConfig passed positionally
        (config,) = args
        return PredictionService(model, config, counters=counters)
    return PredictionService(model, ServeConfig(**cfg), counters=counters)


def _poll(predicate, timeout=5.0, interval=0.002):
    """Spin until ``predicate()`` is true (tests only; bounded)."""
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _GatedModel:
    """Delegates to an inner model, blocking selected calls on an event so
    tests can wedge the worker at a known point."""

    def __init__(self, inner, gates):
        self.inner = inner
        self._gates = dict(gates)  # call index -> threading.Event
        self._lock = threading.Lock()
        self.calls = 0
        self.sizes = []  # queries per call, in call order
        self.started = threading.Event()

    @property
    def dataset(self):
        return self.inner.dataset

    def classification_values_batch(self, queries):
        with self._lock:
            index = self.calls
            self.calls += 1
            self.sizes.append(len(queries))
        self.started.set()
        gate = self._gates.get(index)
        if gate is not None:
            gate.wait()
        return self.inner.classification_values_batch(queries)


@pytest.fixture
def evaluator(example):
    return FastBSTCEvaluator(example)


def _queries(rng, n_items, n=24):
    return [rng.random(n_items) < 0.4 for _ in range(n)]


class TestCorrectness:
    def test_values_match_direct_evaluation(self, evaluator):
        rng = np.random.default_rng(3)
        queries = _queries(rng, evaluator.dataset.n_items)
        with make_service(evaluator, counters=EngineCounters()) as service:
            served = [service.classification_values(q) for q in queries]
        direct = evaluator.classification_values_batch(queries)
        assert np.array_equal(np.asarray(served), direct)

    def test_predict_matches_argmax(self, evaluator):
        query = np.zeros(evaluator.dataset.n_items, dtype=bool)
        query[[0, 3, 4]] = True
        with make_service(evaluator, counters=EngineCounters()) as service:
            label = service.predict(query)
        assert label == int(np.argmax(evaluator.classification_values(query)))

    def test_concurrent_callers_get_their_own_rows(self, evaluator):
        rng = np.random.default_rng(5)
        queries = _queries(rng, evaluator.dataset.n_items, n=64)
        expected = evaluator.classification_values_batch(queries)
        results = [None] * len(queries)

        def call(i):
            results[i] = service.classification_values(queries[i])

        with make_service(evaluator, counters=EngineCounters()) as service:
            threads = [
                threading.Thread(target=call, args=(i,))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert np.array_equal(np.asarray(results), expected)


class TestBatching:
    """The worker batches only what is already queued.  Deterministic: no
    sleeps, the ordering is forced by wedging the worker in batch 0."""

    def test_concurrent_load_coalesces(self, evaluator):
        gate = threading.Event()
        model = _GatedModel(evaluator, {0: gate})
        counters = EngineCounters()
        rng = np.random.default_rng(9)
        queries = _queries(rng, evaluator.dataset.n_items, n=24)
        results = [None] * len(queries)

        def call(i):
            results[i] = service.classification_values(queries[i], timeout=30)

        threads = [
            threading.Thread(target=call, args=(i,))
            for i in range(len(queries))
        ]
        service = make_service(model, counters=counters)
        try:
            threads[0].start()
            assert model.started.wait(10)  # batch 0 is computing
            for t in threads[1:]:
                t.start()
            assert _poll(lambda: service.pending() == len(queries) - 1)
            gate.set()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            gate.set()  # never leave the worker wedged on a failure
            service.close()
        # Everything queued behind the wedged batch shares one kernel call.
        assert model.sizes == [1, len(queries) - 1]
        assert np.array_equal(
            np.asarray(results), evaluator.classification_values_batch(queries)
        )
        snap = counters.snapshot()
        assert snap["service_requests"] == len(queries)
        assert snap["service_batched_queries"] == len(queries)
        assert snap["service_batches"] == 2
        assert snap["max_service_batch"] == len(queries) - 1
        assert snap["service_compute_seconds"] > 0
        assert snap["service_latency_seconds"] > 0

    def test_lone_request_is_answered(self, evaluator):
        counters = EngineCounters()
        with make_service(evaluator, counters=counters) as service:
            query = np.zeros(evaluator.dataset.n_items, dtype=bool)
            service.classification_values(query)
        assert counters.get("service_batches") == 1
        assert counters.get("max_service_batch") == 1

    def test_batches_are_capped(self, evaluator):
        gate = threading.Event()
        model = _GatedModel(evaluator, {0: gate})
        counters = EngineCounters()
        rng = np.random.default_rng(19)
        n_queued = service_module._MAX_BATCH + 5
        queries = _queries(rng, evaluator.dataset.n_items, n=1 + n_queued)
        service = make_service(model, counters=counters)
        try:
            requests = [service._submit(queries[0], None)]
            assert model.started.wait(10)  # batch 0 is computing
            requests += [service._submit(q, None) for q in queries[1:]]
            gate.set()
            for request in requests:
                assert request.done.wait(10)
        finally:
            gate.set()
            service.close()
        assert model.sizes == [1, service_module._MAX_BATCH, 5]
        expected = evaluator.classification_values_batch(queries)
        for row, request in zip(expected, requests):
            assert request.error is None
            assert np.array_equal(request.values, row)


class TestDispatchOnIdle:
    """A request that finds the queue empty runs at once; requests queued
    while a batch computes share the next one."""

    def test_lone_request_skips_the_straggler_window(self, evaluator):
        # There is no window to wait out: the lone request is computed alone,
        # at once, and its row is the direct evaluation's.
        model = _GatedModel(evaluator, {})
        counters = EngineCounters()
        query = np.zeros(evaluator.dataset.n_items, dtype=bool)
        query[[0, 3]] = True
        with make_service(model, counters=counters) as service:
            values = service.classification_values(query, timeout=10)
        assert model.sizes == [1]
        assert np.array_equal(
            values, evaluator.classification_values_batch([query])[0]
        )
        assert counters.get("service_batches") == 1

    def test_requests_queued_during_a_batch_coalesce(self, evaluator):
        gate = threading.Event()
        model = _GatedModel(evaluator, {0: gate})
        counters = EngineCounters()
        rng = np.random.default_rng(17)
        queries = _queries(rng, evaluator.dataset.n_items, n=4)
        service = make_service(model, counters=counters)
        try:
            first = service._submit(queries[0], None)
            assert model.started.wait(10)  # batch 1 is computing
            queued = [service._submit(q, None) for q in queries[1:]]
            gate.set()
            for request in [first] + queued:
                assert request.done.wait(10)
        finally:
            gate.set()  # never leave the worker wedged on a failure
            service.close()
        # The three queued requests form batch 2; nothing waits for more.
        assert model.sizes == [1, 3]
        assert counters.get("max_service_batch") == 3
        assert counters.get("service_batches") == 2
        expected = evaluator.classification_values_batch(queries)
        for row, request in zip(expected, [first] + queued):
            assert request.error is None
            assert np.array_equal(request.values, row)


class TestLifecycle:
    def test_submit_after_close_raises(self, evaluator):
        counters = EngineCounters()
        service = make_service(evaluator, counters=counters)
        service.close()
        assert service.closed
        with pytest.raises(ServiceClosed):
            service.classification_values(
                np.zeros(evaluator.dataset.n_items, dtype=bool)
            )
        assert counters.get("service_rejected") == 1
        service.close()  # idempotent

    def test_timeout(self, example):
        class Stuck:
            dataset = example

            def classification_values_batch(self, queries):
                event.wait()
                return np.zeros((len(queries), example.n_classes))

        event = threading.Event()
        service = make_service(Stuck(), counters=EngineCounters())
        try:
            with pytest.raises(TimeoutError):
                service.classification_values(
                    np.zeros(example.n_items, dtype=bool), timeout=0.05
                )
        finally:
            event.set()
            service.close()

    def test_batch_error_propagates_to_every_caller(self, example):
        class Broken:
            dataset = example

            def classification_values_batch(self, queries):
                raise RuntimeError("kernel exploded")

        counters = EngineCounters()
        errors = []

        def call(service):
            try:
                service.classification_values(
                    np.zeros(example.n_items, dtype=bool)
                )
            except RuntimeError as exc:
                errors.append(exc)

        with make_service(
            Broken(), counters=counters, breaker_threshold=None
        ) as service:
            threads = [
                threading.Thread(target=call, args=(service,))
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(errors) == 6
        assert all("kernel exploded" in str(e) for e in errors)
        assert counters.get("service_batch_errors") >= 1
        assert service.answered == 6

    def test_backpressure_queue_stays_bounded(self, evaluator):
        # With max_pending=2 the queue can never hold more than 2 requests;
        # submitters block instead.  The run must still answer everything.
        rng = np.random.default_rng(13)
        queries = _queries(rng, evaluator.dataset.n_items, n=20)
        with make_service(
            evaluator,
            max_pending=2,
            counters=EngineCounters(),
        ) as service:
            results = [None] * len(queries)

            def call(i):
                results[i] = service.classification_values(queries[i])
                assert service.pending() <= 2

            threads = [
                threading.Thread(target=call, args=(i,))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert all(r is not None for r in results)
        assert service.answered == len(queries)

    def test_invalid_parameters(self, evaluator):
        with pytest.raises(ValueError):
            make_service(evaluator, breaker_threshold=0)
        with pytest.raises(ValueError):
            make_service(evaluator, restart_backoff=-1.0)
        with pytest.raises(ValueError):
            make_service(evaluator, max_pending=0)


class TestShutdownStress:
    def test_every_request_answered_exactly_once_under_shutdown(
        self, evaluator
    ):
        # Hammer the service from many threads while the main thread closes
        # it mid-flight.  Every submission must end in exactly one outcome:
        # an answer (counted by the service) or a ServiceClosed rejection.
        # No request may hang or be answered twice.
        for round_seed in range(5):
            rng = np.random.default_rng(round_seed)
            counters = EngineCounters()
            service = make_service(
                evaluator,
                max_pending=8,
                counters=counters,
            )
            n_threads, per_thread = 8, 16
            answered = [0] * n_threads
            rejected = [0] * n_threads
            start = threading.Barrier(n_threads + 1)

            def call(slot):
                q = rng.random(evaluator.dataset.n_items) < 0.4
                start.wait()
                for _ in range(per_thread):
                    try:
                        values = service.classification_values(q, timeout=30)
                        assert values.shape == (evaluator.dataset.n_classes,)
                        answered[slot] += 1
                    except ServiceClosed:
                        rejected[slot] += 1

            threads = [
                threading.Thread(target=call, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            start.wait()
            service.close()  # race the close against in-flight submissions
            for t in threads:
                t.join()
            submitted = n_threads * per_thread
            assert sum(answered) + sum(rejected) == submitted
            assert service.answered == sum(answered)
            snap = counters.snapshot()
            assert snap.get("service_requests", 0) == sum(answered)
            assert snap.get("service_rejected", 0) == sum(rejected)


class TestQueryValidation:
    def test_wrong_gene_count(self, evaluator):
        counters = EngineCounters()
        with make_service(evaluator, counters=counters) as service:
            with pytest.raises(QueryError, match="genes"):
                service.classification_values(
                    np.zeros(evaluator.dataset.n_items + 3, dtype=bool)
                )
        assert counters.get("service_query_rejects") == 1

    def test_nan_names_offending_gene(self, evaluator):
        query = np.zeros(evaluator.dataset.n_items, dtype=float)
        query[2] = np.nan
        with make_service(evaluator, counters=EngineCounters()) as service:
            with pytest.raises(QueryError, match="gene 2"):
                service.classification_values(query)

    def test_inf_rejected(self, evaluator):
        query = np.zeros(evaluator.dataset.n_items, dtype=float)
        query[-1] = np.inf
        with make_service(evaluator, counters=EngineCounters()) as service:
            with pytest.raises(QueryError, match="finite"):
                service.classification_values(query)

    def test_non_numeric_dtype(self, evaluator):
        query = np.array(["a"] * evaluator.dataset.n_items)
        with make_service(evaluator, counters=EngineCounters()) as service:
            with pytest.raises(QueryError, match="dtype"):
                service.classification_values(query)

    def test_two_dimensional_rejected(self, evaluator):
        query = np.zeros((2, evaluator.dataset.n_items), dtype=bool)
        with make_service(evaluator, counters=EngineCounters()) as service:
            with pytest.raises(QueryError, match="1-D"):
                service.classification_values(query)

    def test_item_index_out_of_range(self, evaluator):
        with make_service(evaluator, counters=EngineCounters()) as service:
            with pytest.raises(QueryError, match="outside"):
                service.classification_values({0, evaluator.dataset.n_items})

    def test_non_integer_item_ids_never_reach_the_batch(self, evaluator):
        # Float ids would pass an int() conversion and then fail inside the
        # kernel, counting as poison and tripping the breaker for everyone.
        counters = EngineCounters()
        with make_service(
            evaluator, breaker_threshold=2, counters=counters
        ) as service:
            for query in ([1.5, 2], [1.0, 2.0], {3.7}):
                with pytest.raises(QueryError, match="not an integer"):
                    service.classification_values(query)
            assert service.health().breaker == "closed"
            values = service.classification_values([np.int64(0), 3, 4])
        assert np.array_equal(
            values, evaluator.classification_values({0, 3, 4})
        )
        assert counters.get("service_query_rejects") == 3
        assert counters.get("service_batch_errors") == 0
        assert counters.get("service_poison_queries") == 0

    def test_bool_item_ids_rejected(self, evaluator):
        """``bool`` is an ``int`` subclass but not an item id, alone or
        mixed into an otherwise all-``int`` query."""
        counters = EngineCounters()
        with make_service(evaluator, counters=counters) as service:
            for query in ([0, True], {False}, [3, 4, np.bool_(True)]):
                with pytest.raises(QueryError, match="not an integer"):
                    service.classification_values(query)
        assert counters.get("service_query_rejects") == 3

    def test_item_index_set_accepted(self, evaluator):
        with make_service(evaluator, counters=EngineCounters()) as service:
            values = service.classification_values({0, 3, 4})
        assert np.array_equal(
            values, evaluator.classification_values({0, 3, 4})
        )

    def test_validation_can_be_disabled(self, evaluator):
        # With validation off, a wrong-width query reaches the kernel and
        # fails there instead (as a per-query evaluation error).
        query = np.zeros(evaluator.dataset.n_items + 3, dtype=bool)
        with make_service(
            evaluator,
            counters=EngineCounters(),
            validate_queries=False,
            breaker_threshold=None,
        ) as service:
            with pytest.raises(Exception) as info:
                service.classification_values(query)
        assert not isinstance(info.value, QueryError)


class TestDeadlines:
    def test_zero_deadline_rejected_at_submission(self, evaluator):
        counters = EngineCounters()
        with make_service(evaluator, counters=counters) as service:
            with pytest.raises(DeadlineExceeded):
                service.classification_values(
                    np.zeros(evaluator.dataset.n_items, dtype=bool),
                    deadline_ms=0,
                )
        assert counters.get("service_deadline_exceeded") == 1
        assert counters.get("service_requests") == 0  # never enqueued

    def test_expired_request_never_occupies_a_batch_slot(self, evaluator):
        # Wedge the worker inside batch 0, let a deadlined request expire in
        # the queue, then release: the worker must answer it with
        # DeadlineExceeded without ever handing it to the model.
        gate = threading.Event()
        model = _GatedModel(evaluator, {0: gate})
        counters = EngineCounters()
        zeros = np.zeros(evaluator.dataset.n_items, dtype=bool)
        outcome = {}
        with make_service(model, counters=counters) as service:
            wedge = threading.Thread(
                target=service.classification_values, args=(zeros,)
            )
            wedge.start()
            assert model.started.wait(5.0)

            def call():
                try:
                    outcome["value"] = service.classification_values(
                        zeros, deadline_ms=20.0
                    )
                except Exception as exc:
                    outcome["error"] = exc

            deadlined = threading.Thread(target=call)
            deadlined.start()
            time.sleep(0.08)  # let the queued deadline expire
            gate.set()
            wedge.join()
            deadlined.join()
        assert isinstance(outcome.get("error"), DeadlineExceeded)
        assert model.calls == 1  # the expired request never reached the model
        assert counters.get("service_deadline_exceeded") == 1

    def test_default_deadline_applies(self, evaluator):
        gate = threading.Event()
        model = _GatedModel(evaluator, {0: gate})
        zeros = np.zeros(evaluator.dataset.n_items, dtype=bool)
        errors = []
        with make_service(
            model,
            default_deadline_ms=20.0,
            counters=EngineCounters(),
        ) as service:
            threads = [
                threading.Thread(
                    target=lambda: errors.append(
                        _call_capture(service, zeros)
                    )
                )
                for _ in range(2)
            ]
            threads[0].start()
            assert model.started.wait(5.0)
            threads[1].start()
            time.sleep(0.08)
            gate.set()
            for t in threads:
                t.join()
        # The wedged request was evaluated in time or not — but the queued
        # one must have hit the service-wide default deadline.
        assert any(isinstance(e, DeadlineExceeded) for e in errors)


def _call_capture(service, query):
    try:
        return service.classification_values(query)
    except Exception as exc:
        return exc


class TestAdmissionControl:
    def test_shedding_trips_and_readmits(self, evaluator):
        gate = threading.Event()
        model = _GatedModel(evaluator, {0: gate})
        counters = EngineCounters()
        zeros = np.zeros(evaluator.dataset.n_items, dtype=bool)
        service = make_service(
            model,
            shed_high=2,
            shed_low=0,
            counters=counters,
        )
        try:
            threads = [
                threading.Thread(
                    target=service.classification_values, args=(zeros,)
                )
            ]
            threads[0].start()
            assert model.started.wait(5.0)  # worker wedged in batch 0
            for _ in range(2):  # fill the queue to the high-water mark
                t = threading.Thread(
                    target=service.classification_values, args=(zeros,)
                )
                t.start()
                threads.append(t)
            assert _poll(lambda: service.pending() >= 2)
            with pytest.raises(ServiceOverloaded):
                service.classification_values(zeros)
            assert counters.get("service_shed_trips") == 1
            assert counters.get("service_shed") == 1
            assert service.health().shedding
            gate.set()
            for t in threads:
                t.join()
            assert _poll(lambda: service.pending() == 0)
            # Hysteresis: once drained to the low-water mark, re-admitted.
            values = service.classification_values(zeros)
            assert values.shape == (evaluator.dataset.n_classes,)
            assert not service.health().shedding
        finally:
            gate.set()
            service.close()

    def test_shed_parameters_validated(self, evaluator):
        with pytest.raises(ValueError):
            make_service(evaluator, shed_low=1)
        with pytest.raises(ValueError):
            make_service(evaluator, shed_high=0)
        with pytest.raises(ValueError):
            make_service(evaluator, shed_high=2, shed_low=2)


class TestHealth:
    def test_ready_service_snapshot(self, evaluator):
        with make_service(evaluator, counters=EngineCounters()) as service:
            health = service.health()
            assert health.ready
            assert health.state == "serving"
            assert health.breaker == "closed"
            assert health.worker_alive
            assert health.worker_restarts == 0
            assert health.queue_depth == 0
            assert not health.shedding
        health = service.health()
        assert health.state == "closed"
        assert not health.ready


@pytest.mark.faults
class TestPoisonIsolation:
    def test_poison_query_fails_alone_batchmates_bit_identical(
        self, evaluator
    ):
        n_items = evaluator.dataset.n_items
        clean = [np.eye(n_items, dtype=bool)[i % n_items] for i in range(7)]
        poison = np.ones(n_items, dtype=bool)
        expected = evaluator.classification_values_batch(clean)
        flaky = FlakyBatchModel(
            evaluator, poison=lambda row: bool(np.asarray(row).all())
        )
        gate = threading.Event()
        model = _GatedModel(flaky, {0: gate})
        counters = EngineCounters()
        zeros = np.zeros(n_items, dtype=bool)
        results = {}

        def call(key, query):
            try:
                results[key] = service.classification_values(query, timeout=30)
            except Exception as exc:
                results[key] = exc

        with make_service(model, counters=counters) as service:
            wedge = threading.Thread(target=call, args=("wedge", zeros))
            wedge.start()
            assert model.started.wait(5.0)
            threads = [
                threading.Thread(target=call, args=(i, q))
                for i, q in enumerate(clean)
            ] + [threading.Thread(target=call, args=("poison", poison))]
            for t in threads:
                t.start()
            assert _poll(lambda: service.pending() >= 8)
            gate.set()
            wedge.join()
            for t in threads:
                t.join()
        assert isinstance(results["poison"], PoisonQueryError)
        for i in range(7):
            assert np.array_equal(results[i], expected[i])  # bit-identical
        snap = counters.snapshot()
        assert snap["service_poison_queries"] == 1
        assert snap["service_bisections"] >= 1
        assert snap["service_batch_errors"] >= 1
        # The poisoned batch still produced successes, so no breaker trip.
        assert snap.get("service_breaker_trips", 0) == 0


@pytest.mark.faults
class TestWorkerSupervision:
    def test_crash_answers_request_and_restarts(self, evaluator):
        flaky = FlakyBatchModel(evaluator, faults=[ServiceFault(0, "kill")])
        counters = EngineCounters()
        query = np.zeros(evaluator.dataset.n_items, dtype=bool)
        with make_service(
            flaky,
            restart_backoff=0.0,
            breaker_threshold=None,
            counters=counters,
        ) as service:
            with pytest.raises(WorkerCrashed):
                service.classification_values(query, timeout=30)
            # The restarted worker serves subsequent traffic.
            values = service.classification_values(query, timeout=30)
            assert np.array_equal(
                values, evaluator.classification_values(query)
            )
            health = service.health()
            assert health.worker_restarts == 1
            assert health.worker_alive
        assert counters.get("service_worker_crashes") == 1
        assert counters.get("service_worker_restarts") == 1

    def test_every_pending_request_answered_exactly_once(self, evaluator):
        # Kill the worker on its first batch while more requests wait in
        # the queue: the in-flight batch fails over to WorkerCrashed, the
        # replacement serves the rest, nothing hangs, nothing doubles.
        flaky = FlakyBatchModel(evaluator, faults=[ServiceFault(0, "kill")])
        counters = EngineCounters()
        n_items = evaluator.dataset.n_items
        queries = [np.eye(n_items, dtype=bool)[i % n_items] for i in range(6)]
        expected = evaluator.classification_values_batch(queries)
        outcomes = [None] * len(queries)
        barrier = threading.Barrier(len(queries))

        def call(i):
            barrier.wait()
            try:
                outcomes[i] = service.classification_values(
                    queries[i], timeout=30
                )
            except WorkerCrashed as exc:
                outcomes[i] = exc

        with make_service(
            flaky,
            restart_backoff=0.0,
            breaker_threshold=None,
            counters=counters,
        ) as service:
            threads = [
                threading.Thread(target=call, args=(i,))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            crashed = [
                o for o in outcomes if isinstance(o, WorkerCrashed)
            ]
            served = [
                (i, o)
                for i, o in enumerate(outcomes)
                if isinstance(o, np.ndarray)
            ]
            assert len(crashed) + len(served) == len(queries)
            assert len(crashed) >= 1  # the killed batch failed over
            for i, values in served:
                assert np.array_equal(values, expected[i])
            # The replacement keeps serving.
            follow_up = service.classification_values(queries[0], timeout=30)
            assert np.array_equal(follow_up, expected[0])
        assert service.answered == len(queries) + 1
        assert counters.get("service_worker_restarts") == 1


@pytest.mark.faults
class TestCircuitBreaker:
    def test_trip_reject_recover(self, evaluator):
        flaky = FlakyBatchModel(
            evaluator,
            faults=[ServiceFault(0, "error"), ServiceFault(1, "error")],
        )
        counters = EngineCounters()
        query = np.zeros(evaluator.dataset.n_items, dtype=bool)
        with make_service(
            flaky,
            breaker_threshold=2,
            breaker_cooldown=0.2,
            counters=counters,
        ) as service:
            for _ in range(2):  # two consecutive failed batches trip it
                with pytest.raises(Exception, match="injected error"):
                    service.classification_values(query, timeout=30)
            assert _poll(lambda: service.health().breaker == "open")
            with pytest.raises(CircuitOpen) as info:
                service.classification_values(query)
            assert info.value.retry_after >= 0.0
            assert not service.health().ready
            time.sleep(0.25)  # cooldown passes; next request is the probe
            values = service.classification_values(query, timeout=30)
            assert np.array_equal(
                values, evaluator.classification_values(query)
            )
            assert _poll(lambda: service.health().breaker == "closed")
            # Fully recovered: subsequent traffic is admitted normally.
            service.classification_values(query, timeout=30)
        snap = counters.snapshot()
        assert snap["service_breaker_trips"] == 1
        assert snap["service_breaker_rejections"] >= 1
        assert snap["service_breaker_half_opens"] == 1
        assert snap["service_breaker_closes"] == 1

    def test_failed_probe_reopens(self, evaluator):
        flaky = FlakyBatchModel(
            evaluator,
            faults=[ServiceFault(0, "error"), ServiceFault(1, "error")],
        )
        counters = EngineCounters()
        query = np.zeros(evaluator.dataset.n_items, dtype=bool)
        with make_service(
            flaky,
            breaker_threshold=1,
            breaker_cooldown=0.15,
            counters=counters,
        ) as service:
            with pytest.raises(Exception, match="injected error"):
                service.classification_values(query, timeout=30)
            assert _poll(lambda: service.health().breaker == "open")
            time.sleep(0.2)
            with pytest.raises(Exception, match="injected error"):
                service.classification_values(query, timeout=30)  # probe fails
            assert _poll(lambda: service.health().breaker == "open")
            with pytest.raises(CircuitOpen):
                service.classification_values(query)
            time.sleep(0.2)
            service.classification_values(query, timeout=30)  # probe succeeds
            assert _poll(lambda: service.health().breaker == "closed")
        assert counters.get("service_breaker_reopens") == 1
        assert counters.get("service_breaker_closes") == 1


@pytest.mark.faults
class TestCloseCrashStress:
    def test_no_hung_futures_with_crashes_and_close(self, evaluator):
        # Interleave submissions, injected worker deaths, and close() across
        # 8 threads.  Every submission must resolve within its timeout to a
        # value or a typed error — no future may hang.
        for round_seed in range(3):
            flaky = FlakyBatchModel(
                evaluator,
                faults=[
                    ServiceFault(1, "kill"),
                    ServiceFault(3, "kill"),
                    ServiceFault(6, "kill"),
                ],
            )
            service = make_service(
                flaky,
                restart_backoff=0.0,
                breaker_threshold=None,
                counters=EngineCounters(),
            )
            n_threads, per_thread = 8, 8
            outcomes = [0] * n_threads
            start = threading.Barrier(n_threads + 1)
            rng = np.random.default_rng(round_seed)
            query = rng.random(evaluator.dataset.n_items) < 0.4

            def call(slot):
                start.wait()
                for _ in range(per_thread):
                    try:
                        values = service.classification_values(
                            query, timeout=30
                        )
                        assert values.shape == (
                            evaluator.dataset.n_classes,
                        )
                    except (ServiceClosed, WorkerCrashed):
                        pass
                    outcomes[slot] += 1

            threads = [
                threading.Thread(target=call, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            start.wait()
            time.sleep(0.01)
            service.close()  # race close against crashes and submissions
            for t in threads:
                t.join()
            assert sum(outcomes) == n_threads * per_thread
            assert service.health().state == "closed"


class TestEvaluatorCacheConcurrency:
    def test_concurrent_get_evaluator_hammer(self):
        # Threads race cache misses, hits, and LRU evictions across more
        # datasets than the cache holds; the cache must stay internally
        # consistent and every caller must get a correct evaluator.
        rng = np.random.default_rng(21)
        datasets = [random_relational(rng) for _ in range(6)]
        queries = [
            rng.random((4, ds.n_items)) < 0.4 for ds in datasets
        ]
        expected = [
            FastBSTCEvaluator(ds).classification_values_batch(q)
            for ds, q in zip(datasets, queries)
        ]
        clear_evaluator_cache()
        old_capacity = evaluator_cache_info()[1]
        set_evaluator_cache_size(2)
        failures = []
        start = threading.Barrier(8)

        def hammer(seed):
            order = np.random.default_rng(seed).permutation(
                len(datasets) * 5
            )
            start.wait()
            for j in order:
                i = int(j) % len(datasets)
                evaluator = get_evaluator(datasets[i])
                got = evaluator.classification_values_batch(queries[i])
                if not np.array_equal(got, expected[i]):
                    failures.append(i)

        try:
            threads = [
                threading.Thread(target=hammer, args=(s,)) for s in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not failures
            entries, capacity = evaluator_cache_info()
            assert capacity == 2
            assert 0 < entries <= 2
            # A hit after the storm returns the cached instance.
            ds = datasets[0]
            assert get_evaluator(ds) is get_evaluator(ds)
        finally:
            set_evaluator_cache_size(old_capacity)
            clear_evaluator_cache()


class TestServeConfigSurface:
    """The config surface: one validated ServeConfig is the only way to
    pass service settings."""

    def test_config_object_is_the_canonical_path(self, evaluator):
        config = ServeConfig(max_pending=4, breaker_threshold=None)
        with PredictionService(
            evaluator, config, counters=EngineCounters()
        ) as service:
            assert service.config is config
            assert service.config.max_pending == 4
            label = service.predict({0, 3, 4})
        assert label == int(
            np.argmax(evaluator.classification_values({0, 3, 4}))
        )

    def test_unknown_kwarg_is_a_type_error(self, evaluator):
        with pytest.raises(TypeError, match="max_pendin"):
            PredictionService(evaluator, max_pendin=4)
        # Config fields are not keyword arguments of the service either.
        with pytest.raises(TypeError, match="max_pending"):
            PredictionService(evaluator, max_pending=4)
        # Batching has no knob: the worker batches what is already queued.
        with pytest.raises(TypeError, match="max_batch"):
            ServeConfig(max_batch=4)

    def test_config_is_frozen_and_validated(self):
        import dataclasses

        config = ServeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_pending = 2
        with pytest.raises(ValueError):
            ServeConfig(shed_low=4)  # shed_low needs shed_high
        assert ServeConfig(shed_high=8).shed_low == 4  # hysteresis default

    def test_with_overrides_revalidates(self):
        config = ServeConfig(max_pending=4)
        assert config.with_overrides(max_pending=8).max_pending == 8
        with pytest.raises(ValueError):
            config.with_overrides(max_pending=0)
