"""The in-process path matrix: one seeded query set through every path a
query can take inside one process, compared with ``np.array_equal``.

Paths: ``class_value``/``classification_values`` (a batch of one each), an
explicit batch of one, a 65-row batch (crossing ``_BATCH_BLOCK``),
memory-mapped and eager artifact loads, a delta-refreshed artifact, and a
``PredictionService`` whose batch carries a poison row it must bisect out.
Every pair must agree bit for bit.  HTTP and sharded replay are outside
this process and not covered here.
"""

import threading

import numpy as np
import pytest

from repro.core import fast as fast_module
from repro.core.arithmetization import COMBINERS
from repro.core.artifact import load_artifact, refresh_artifact, save_artifact
from repro.core.fast import FastBSTCEvaluator, clear_evaluator_cache
from repro.datasets.dataset import RelationalDataset
from repro.evaluation.timing import EngineCounters
from repro.serving import PredictionService, ServeConfig
from repro.testing import FlakyBatchModel, PoisonQueryError

N_QUERIES = 65
BASE_ROWS = 40


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_evaluator_cache()
    yield
    clear_evaluator_cache()


def _dataset(seed=211, n_samples=60, n_items=300, n_classes=3):
    rng = np.random.default_rng(seed)
    matrix = rng.random((n_samples, n_items)) < 0.35
    labels = rng.integers(0, n_classes, n_samples)
    labels[:n_classes] = np.arange(n_classes)
    matrix[1] = matrix[0]  # a duplicate outside row for the min cull
    return RelationalDataset.from_bool_matrix(
        matrix, labels.tolist(), class_names=[f"c{i}" for i in range(n_classes)]
    )


def _queries(n_items, seed=223):
    rng = np.random.default_rng(seed)
    density = np.resize([0.02, 0.1, 0.5, 0.9], N_QUERIES)
    return rng.random((N_QUERIES, n_items)) < density[:, None]


class _Gate:
    """Holds the service's first batch until released, so every later
    submission queues up and is coalesced into one batch."""

    def __init__(self, inner):
        self.inner = inner
        self.started = threading.Event()
        self.release = threading.Event()
        self._first = True

    @property
    def dataset(self):
        return self.inner.dataset

    def classification_values_batch(self, queries):
        if self._first:
            self._first = False
            self.started.set()
            self.release.wait(30)
        return self.inner.classification_values_batch(queries)


def _served_with_poison(evaluator, queries):
    """The queries plus one poison row, queued behind a wedged batch; the
    worker drains them in batches of at most 32 (65 queries + poison =
    32 + 32 + 2), bisects the poison out of the last and answers the
    rest."""
    poison = np.ones(queries.shape[1], dtype=bool)
    assert not queries.all(axis=1).any()
    model = _Gate(
        FlakyBatchModel(evaluator, poison=lambda row: bool(np.all(row)))
    )
    counters = EngineCounters()
    with PredictionService(model, ServeConfig(), counters=counters) as service:
        wedge = service._submit(np.zeros(queries.shape[1], dtype=bool), None)
        assert model.started.wait(30)
        requests = [service._submit(q, None) for q in queries]
        poisoned = service._submit(poison, None)
        model.release.set()
        for request in [wedge, poisoned] + requests:
            assert request.done.wait(30)
    assert isinstance(poisoned.error, PoisonQueryError)
    assert counters.get("service_poison_queries") == 1
    assert counters.get("service_bisections") >= 1
    assert all(request.error is None for request in requests)
    return np.stack([request.values for request in requests])


@pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
def test_every_in_process_path_is_bit_identical(tmp_path, arithmetization):
    dataset = _dataset()
    queries = _queries(dataset.n_items)
    assert len(queries) > fast_module._BATCH_BLOCK
    evaluator = FastBSTCEvaluator(dataset, arithmetization)

    full_path = save_artifact(evaluator, tmp_path / "full.npz")
    base = RelationalDataset.from_bool_matrix(
        dataset.bool_matrix[:BASE_ROWS],
        dataset.label_array[:BASE_ROWS].tolist(),
        class_names=list(dataset.class_names),
    )
    refreshed_path = save_artifact(
        FastBSTCEvaluator(base, arithmetization), tmp_path / "refreshed.npz"
    )
    refresh_artifact(refreshed_path, dataset)

    paths = {
        "classification_values": np.stack(
            [evaluator.classification_values(q) for q in queries]
        ),
        "class_value": np.array([
            [evaluator.class_value(c, q) for c in range(dataset.n_classes)]
            for q in queries
        ]),
        "batch_of_one": np.concatenate(
            [evaluator.classification_values_batch([q]) for q in queries]
        ),
        "batch_of_65": evaluator.classification_values_batch(queries),
        "artifact_mmap": load_artifact(
            full_path
        ).classification_values_batch(queries),
        "artifact_eager": load_artifact(
            full_path, mmap=False
        ).classification_values_batch(queries),
        "artifact_refreshed": load_artifact(
            refreshed_path, expected_fingerprint=dataset.fingerprint
        ).classification_values_batch(queries),
        "service_poison_bisection": _served_with_poison(evaluator, queries),
    }
    reference_name, reference = next(iter(paths.items()))
    assert reference.shape == (N_QUERIES, dataset.n_classes)
    assert reference.any()
    for name, rows in paths.items():
        assert np.array_equal(rows, reference), (
            f"{name} differs from {reference_name}"
        )
