"""Incremental training data plane: chunked ingestion, append-only
builds, and delta artifact refresh.

Every equivalence here is *bit*-equivalence against the cold path that
already has its own tests — the streaming machinery must be
indistinguishable from rebuilding, only cheaper.  Engine outputs are
compared within one engine (fast vs fast, reference vs reference); the
two engines agree only up to float associativity and that slack belongs
to the arithmetization tests, not here.
"""

import numpy as np
import pytest

from repro.bst.table import build_all_bsts
from repro.core.artifact import (
    ArtifactStale,
    load_artifact,
    refresh_artifact,
    save_artifact,
)
from repro.core.classifier import BSTClassifier
from repro.core.estimator import NotFittedError
from repro.core.fast import FastBSTCEvaluator, clear_evaluator_cache, get_evaluator
from repro.core.plan import ARENA_FIELDS, recompile_delta
from repro.datasets import discretize, io
from repro.datasets.dataset import (
    DatasetError,
    ExpressionMatrix,
    RelationalDataset,
)
from repro.datasets.discretize import EntropyDiscretizer
from repro.datasets.io import (
    concat_expression_chunks,
    iter_expression_tsv,
    load_expression_tsv,
    save_expression_tsv,
)
from repro.errors import NotSupportedError
from repro.evaluation.timing import EngineCounters
from repro.serving import ModelRegistry


def _expression(n_samples=7, n_genes=5, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return ExpressionMatrix(
        gene_names=tuple(f"g{j}" for j in range(n_genes)),
        values=rng.normal(size=(n_samples, n_genes)),
        labels=tuple(int(x) for x in rng.integers(0, n_classes, n_samples)),
        class_names=tuple(f"c{k}" for k in range(n_classes)),
        sample_names=tuple(f"s{i}" for i in range(n_samples)),
    )


def _relational(n_samples, n_items, n_classes=3, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.random((n_samples, n_items)) < density
    labels = tuple(int(x) for x in rng.integers(0, n_classes, n_samples))
    return RelationalDataset.from_bool_matrix(dense, labels=labels)


class TestChunkedIngestion:
    @pytest.fixture
    def tsv(self, tmp_path):
        path = tmp_path / "data.tsv"
        save_expression_tsv(_expression(), path)
        return path

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 100])
    def test_chunked_load_matches_whole_file(self, tsv, chunk_rows):
        """Single-row chunks, a ragged last chunk (7 rows / 3 per chunk),
        an exact fit, and a chunk taller than the file all reproduce the
        whole-file loader bit for bit."""
        whole = load_expression_tsv(tsv)
        chunked = load_expression_tsv(tsv, chunk_rows=chunk_rows)
        assert chunked.gene_names == whole.gene_names
        assert chunked.labels == whole.labels
        assert chunked.class_names == whole.class_names
        assert chunked.sample_names == whole.sample_names
        assert np.array_equal(chunked.values, whole.values)

    def test_iterator_chunk_geometry(self, tsv):
        chunks = list(iter_expression_tsv(tsv, chunk_rows=3))
        assert [c.n_samples for c in chunks] == [3, 3, 1]
        # Cumulative class vocabulary: each chunk's names extend the
        # previous chunk's, so a label id never changes meaning mid-stream.
        for earlier, later in zip(chunks, chunks[1:]):
            assert later.class_names[: len(earlier.class_names)] == (
                earlier.class_names
            )

    def test_concat_round_trips_iterator(self, tsv):
        whole = load_expression_tsv(tsv)
        stitched = concat_expression_chunks(
            list(iter_expression_tsv(tsv, chunk_rows=2))
        )
        assert stitched.labels == whole.labels
        assert stitched.class_names == whole.class_names
        assert np.array_equal(stitched.values, whole.values)

    def test_chunk_rows_must_be_positive(self, tsv):
        with pytest.raises(ValueError, match="chunk_rows"):
            list(iter_expression_tsv(tsv, chunk_rows=0))

    def test_concat_rejects_empty_and_mismatched(self):
        with pytest.raises(DatasetError, match="no chunks"):
            concat_expression_chunks([])
        a = _expression(n_samples=2, seed=1)
        b = ExpressionMatrix(
            gene_names=tuple(f"h{j}" for j in range(5)),
            values=a.values.copy(),
            labels=a.labels,
            class_names=a.class_names,
        )
        with pytest.raises(DatasetError, match="gene names disagree"):
            concat_expression_chunks([a, b])

    def test_duplicate_gene_names_raise_same_error(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("sample\tclass\tg0\tg1\tg0\ns1\ta\t1\t2\t3\n")
        with pytest.raises(DatasetError, match="duplicate gene name.*g0"):
            list(iter_expression_tsv(path, chunk_rows=1))

    def test_unparsable_value_raises_same_error(self, tmp_path):
        path = tmp_path / "text.tsv"
        path.write_text("sample\tclass\tg0\tg1\ns1\ta\t1.0\toops\n")
        with pytest.raises(DatasetError, match=r"text\.tsv:2: gene g1"):
            list(iter_expression_tsv(path, chunk_rows=1))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_raises_same_error(self, bad, tmp_path):
        path = tmp_path / "nonfinite.tsv"
        path.write_text(f"sample\tclass\tg0\tg1\ns1\ta\t1.0\t{bad}\n")
        with pytest.raises(DatasetError, match=r"nonfinite\.tsv:2: gene g1"):
            list(iter_expression_tsv(path, chunk_rows=4))


class TestBlockParser:
    """Well-formed blocks are parsed by ``np.loadtxt`` alone; the per-value
    row parser runs only on a block that needs it."""

    @pytest.fixture
    def row_calls(self, monkeypatch):
        calls = []
        reference = io._parse_tsv_row

        def counted(*args):
            calls.append(args[1])
            return reference(*args)

        monkeypatch.setattr(io, "_parse_tsv_row", counted)
        return calls

    @pytest.mark.parametrize("chunk_rows", [None, 1, 3, 100])
    def test_well_formed_file_skips_row_parser(self, tmp_path, row_calls,
                                               chunk_rows):
        path = tmp_path / "data.tsv"
        save_expression_tsv(_expression(n_samples=20, n_genes=30), path)
        load_expression_tsv(path, chunk_rows=chunk_rows)
        list(iter_expression_tsv(path, chunk_rows=chunk_rows or 4))
        assert row_calls == []

    def test_fallback_reparses_only_its_block(self, tmp_path, row_calls):
        """``1_000`` is a float to Python but not to numpy: its block is
        re-parsed row by row, with Python's value; other blocks are not."""
        path = tmp_path / "underscore.tsv"
        path.write_text(
            "sample\tclass\tg0\n"
            "s1\ta\t1\ns2\ta\t2\ns3\tb\t1_000\ns4\tb\t4\ns5\ta\t5\n"
        )
        chunks = list(iter_expression_tsv(path, chunk_rows=2))
        assert row_calls == [4, 5]
        merged = concat_expression_chunks(chunks)
        assert merged.values[:, 0].tolist() == [1.0, 2.0, 1000.0, 4.0, 5.0]
        assert merged.class_names == ("a", "b")
        assert merged.labels == (0, 0, 1, 1, 0)


TALL_GENES = 70


class TestStreamingDiscretizerFit:
    @pytest.fixture
    def tall_tsv(self, tmp_path):
        data = _expression(n_samples=40, n_genes=TALL_GENES, seed=7)
        # Class signal in every third gene, so genes are kept on both sides
        # of every block edge.
        values = data.values.copy()
        values[:, ::3] += 1.5 * np.asarray(data.labels)[:, None]
        path = tmp_path / "tall.tsv"
        save_expression_tsv(
            ExpressionMatrix(
                gene_names=data.gene_names,
                values=values,
                labels=data.labels,
                class_names=data.class_names,
                sample_names=data.sample_names,
            ),
            path,
        )
        return path

    # Streaming passes of 1, 7 and 64 genes cut the columns at other edges
    # than the 5-gene kernel blocks of the in-memory fit; TALL_GENES + 1 is
    # one pass.
    @pytest.mark.parametrize("gene_block", [1, 7, 64, TALL_GENES + 1])
    def test_fit_streaming_matches_fit(self, tall_tsv, gene_block, monkeypatch):
        monkeypatch.setattr(discretize, "_GENE_BLOCK", 5)
        whole = load_expression_tsv(tall_tsv)
        cold = EntropyDiscretizer().fit(whole)
        streamed = EntropyDiscretizer().fit_streaming(
            lambda: iter_expression_tsv(tall_tsv, chunk_rows=7),
            gene_block=gene_block,
        )
        assert cold.n_kept_genes > 5
        assert streamed.item_names == cold.item_names
        assert [(p.gene_index, p.cuts) for p in streamed.partitions] == [
            (p.gene_index, p.cuts) for p in cold.partitions
        ]
        assert streamed.transform(whole) == cold.transform(whole)

    def test_fit_streaming_empty_stream(self):
        with pytest.raises(DatasetError, match="empty chunk stream"):
            EntropyDiscretizer().fit_streaming(lambda: iter(()))

    def test_gene_block_must_be_positive(self, tall_tsv):
        with pytest.raises(ValueError, match="gene_block"):
            EntropyDiscretizer().fit_streaming(
                lambda: iter_expression_tsv(tall_tsv), gene_block=0
            )


class TestVectorizedTransform:
    def test_matches_scalar_reference(self):
        data = _expression(n_samples=50, n_genes=8, seed=11)
        disc = EntropyDiscretizer().fit(data)
        rng = np.random.default_rng(12)
        probe = rng.normal(size=(30, data.n_genes))
        # Exercise the searchsorted boundary: rows landing exactly on a
        # learned cut point must fall in the same interval both ways.
        for part in disc.partitions:
            probe[: len(part.cuts), part.gene_index] = part.cuts
        assert disc.transform_values(probe) == disc._transform_values_scalar(
            probe
        )

    def test_single_row_shape(self):
        data = _expression(n_samples=20, n_genes=4, seed=13)
        disc = EntropyDiscretizer().fit(data)
        row = data.values[3]
        assert disc.transform_values(row) == disc._transform_values_scalar(row)


class TestAppendOnlyBuild:
    @pytest.fixture
    def split(self):
        full = _relational(36, 40, seed=31)
        base = full.subset(range(30))
        grown = base.append_samples(full.samples[30:], full.labels[30:])
        return full, base, grown

    def test_bsts_identical_to_cold_build(self, split):
        full, base, grown = split
        incremental = build_all_bsts(grown, base=build_all_bsts(base))
        cold = build_all_bsts(grown)
        for inc, ref in zip(incremental, cold):
            assert inc.render() == ref.render()
            assert inc.space_cost() == ref.space_cost()

    @pytest.mark.parametrize("arith", ["min", "product", "mean"])
    def test_plan_arena_byte_identical(self, split, arith):
        _, base, grown = split
        clear_evaluator_cache()
        base_plan = FastBSTCEvaluator(base, arithmetization=arith).plan
        delta = recompile_delta(base_plan, grown, base.n_samples)
        clear_evaluator_cache()
        fresh = RelationalDataset(
            grown.item_names, grown.class_names, grown.samples, grown.labels
        )
        cold = get_evaluator(fresh, arith).plan
        clear_evaluator_cache()
        assert np.array_equal(cold.geometry, delta.geometry)
        for name in ARENA_FIELDS:
            assert cold.arena[name].dtype == delta.arena[name].dtype, name
            assert np.array_equal(cold.arena[name], delta.arena[name]), name

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_append_fit_matches_cold_fit(self, split, engine):
        full, base, grown = split
        incremental = BSTClassifier(engine=engine).fit(base).append_fit(
            full.samples[30:], full.labels[30:]
        )
        cold = BSTClassifier(engine=engine).fit(grown)
        rng = np.random.default_rng(32)
        for _ in range(8):
            query = frozenset(np.flatnonzero(rng.random(40) < 0.3).tolist())
            assert np.array_equal(
                incremental.classification_values(query),
                cold.classification_values(query),
            )
        if engine == "reference":
            query = frozenset(np.flatnonzero(rng.random(40) < 0.3).tolist())
            assert incremental.explain(query) == cold.explain(query)

    def test_append_fit_accepts_pre_grown_dataset(self, split):
        _, base, grown = split
        clf = BSTClassifier().fit(base).append_fit(grown)
        assert clf.dataset.n_samples == grown.n_samples
        # Zero-row growth is a no-op, not an error.
        assert clf.append_fit(grown) is clf

    def test_recompile_delta_rejects_edited_prefix(self, split):
        """A flipped bit in an old row must fail loudly: recompile_delta
        validates the prefix against the arena's stored blocks instead of
        silently inheriting the base weights."""
        _, base, grown = split
        clear_evaluator_cache()
        base_plan = FastBSTCEvaluator(base).plan
        clear_evaluator_cache()
        samples = list(grown.samples)
        samples[0] = frozenset(set(samples[0]) ^ {0})
        tampered = RelationalDataset(
            grown.item_names, grown.class_names, tuple(samples), grown.labels
        )
        with pytest.raises(ValueError, match="append-only extension"):
            recompile_delta(base_plan, tampered, base.n_samples)

    def test_append_fit_error_paths(self, split):
        full, base, grown = split
        with pytest.raises(NotFittedError):
            BSTClassifier().append_fit(grown)
        with pytest.raises(ValueError, match="labels are required"):
            BSTClassifier().fit(base).append_fit(full.samples[30:])
        # A dataset that is not a prefix extension of the training data.
        shuffled = grown.subset(list(range(grown.n_samples - 1, -1, -1)))
        with pytest.raises(ValueError, match="append-only extension"):
            BSTClassifier().fit(base).append_fit(shuffled)


class TestArtifactRefresh:
    @pytest.fixture
    def split(self):
        full = _relational(30, 32, seed=41)
        base = full.subset(range(25))
        grown = base.append_samples(full.samples[25:], full.labels[25:])
        return base, grown

    def test_refresh_matches_cold_fit_and_save(self, split, tmp_path):
        base, grown = split
        path = tmp_path / "model.npz"
        clear_evaluator_cache()
        save_artifact(get_evaluator(base), path)
        refresh_artifact(path, grown)
        clear_evaluator_cache()
        cold_path = tmp_path / "cold.npz"
        save_artifact(get_evaluator(grown), cold_path)
        clear_evaluator_cache()
        refreshed = load_artifact(path)
        cold = load_artifact(cold_path)
        assert refreshed.dataset.fingerprint == grown.fingerprint
        rng = np.random.default_rng(42)
        for _ in range(8):
            query = frozenset(np.flatnonzero(rng.random(32) < 0.3).tolist())
            assert np.array_equal(
                refreshed.classification_values(query),
                cold.classification_values(query),
            )

    def test_refresh_to_out_path_leaves_base(self, split, tmp_path):
        base, grown = split
        path = tmp_path / "model.npz"
        clear_evaluator_cache()
        save_artifact(get_evaluator(base), path)
        clear_evaluator_cache()
        before = path.read_bytes()
        target = refresh_artifact(path, grown, out_path=tmp_path / "v2.npz")
        assert target == tmp_path / "v2.npz"
        assert path.read_bytes() == before
        assert load_artifact(target).dataset.fingerprint == grown.fingerprint

    def test_refresh_rejects_non_extension(self, split, tmp_path):
        base, grown = split
        path = tmp_path / "model.npz"
        clear_evaluator_cache()
        save_artifact(get_evaluator(base), path)
        clear_evaluator_cache()
        before = path.read_bytes()
        shuffled = grown.subset(list(range(grown.n_samples - 1, -1, -1)))
        with pytest.raises(
            ArtifactStale, match="does not match|append-only extension"
        ):
            refresh_artifact(path, shuffled)
        assert path.read_bytes() == before

    def test_registry_refresh_hot_swaps(self, split, tmp_path):
        base, grown = split
        path = tmp_path / "model.npz"
        clear_evaluator_cache()
        save_artifact(get_evaluator(base), path)
        clear_evaluator_cache()
        counters = EngineCounters()
        with ModelRegistry(counters=counters) as registry:
            assert registry.deploy("exp", path).version == 1
            info = registry.refresh("exp", grown)
            assert info.version == 2
            assert info.fingerprint == grown.fingerprint
            query = frozenset({0, 3, 5})
            clear_evaluator_cache()
            expected = get_evaluator(
                RelationalDataset(
                    grown.item_names,
                    grown.class_names,
                    grown.samples,
                    grown.labels,
                )
            )
            assert registry.predict("exp", query) == int(
                np.argmax(expected.classification_values(query))
            )
        assert counters.snapshot().get("registry_refreshes") == 1

    def test_registry_refresh_requires_artifact(self, split):
        base, grown = split
        with ModelRegistry(counters=EngineCounters()) as registry:
            registry.deploy_model("mem", BSTClassifier().fit(base))
            with pytest.raises(NotSupportedError, match="delta-refresh"):
                registry.refresh("mem", grown)
