"""Compiled model artifacts: round trips, validation, zero-rebuild loads,
integrity verification and quarantine."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import zipfile

import numpy as np
import pytest

from conftest import random_relational
from repro.core.arithmetization import COMBINERS
from repro.core.artifact import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactCorrupt,
    ArtifactError,
    ArtifactStale,
    DatasetSummary,
    _INTEGRITY_MEMBER,
    _integrity_root,
    _stored_member_offsets,
    load_artifact,
    refresh_artifact,
    save_artifact,
)
from repro.core.classifier import BSTClassifier
from repro.core.plan import ARENA_FIELDS
from repro.core.fast import (
    FastBSTCEvaluator,
    clear_evaluator_cache,
    evaluator_cache_info,
    get_evaluator,
)
from repro.datasets.dataset import RelationalDataset
from repro.testing import corrupt_artifact_member


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_evaluator_cache()
    yield
    clear_evaluator_cache()


def _random_queries(rng, dataset, n=16):
    return rng.random((n, dataset.n_items)) < rng.uniform(0.1, 0.6)


class TestRoundTrip:
    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_bit_identical_across_arithmetizations(
        self, tmp_path, arithmetization
    ):
        rng = np.random.default_rng(7)
        for case in range(5):
            dataset = random_relational(rng)
            evaluator = FastBSTCEvaluator(dataset, arithmetization)
            path = save_artifact(
                evaluator, tmp_path / f"{arithmetization}{case}.npz"
            )
            loaded = load_artifact(path)
            queries = _random_queries(rng, dataset)
            assert np.array_equal(
                evaluator.classification_values_batch(queries),
                loaded.classification_values_batch(queries),
            )
            for query in queries[:4]:
                assert np.array_equal(
                    evaluator.classification_values(query),
                    loaded.classification_values(query),
                )

    def test_dataset_summary(self, tmp_path, example):
        evaluator = FastBSTCEvaluator(example)
        loaded = load_artifact(save_artifact(evaluator, tmp_path / "m.npz"))
        summary = loaded.dataset
        assert isinstance(summary, DatasetSummary)
        assert summary.n_items == example.n_items
        assert summary.n_classes == example.n_classes
        assert summary.n_samples == example.n_samples
        assert summary.fingerprint == example.fingerprint
        assert summary.item_names == example.item_names
        assert summary.class_names == example.class_names
        assert loaded.arithmetization == evaluator.arithmetization

    def test_plan_views_are_memory_mapped(self, tmp_path, example):
        evaluator = FastBSTCEvaluator(example)
        loaded = load_artifact(save_artifact(evaluator, tmp_path / "m.npz"))
        checked = 0
        for pc in loaded.plan.classes:
            if pc is None:
                continue
            for name in ARENA_FIELDS:
                view = getattr(pc, name)
                if not view.size:
                    continue
                member = loaded.plan.arena[name]
                assert isinstance(member, np.memmap)
                # A plain ndarray view (the kernels skip memmap.__getitem__)
                # that reads the mapped file in place: nothing is copied.
                assert type(view) is np.ndarray
                assert np.shares_memory(view, member)
                checked += 1
        assert checked

    def test_eager_load(self, tmp_path, example):
        evaluator = FastBSTCEvaluator(example)
        path = save_artifact(evaluator, tmp_path / "m.npz")
        loaded = load_artifact(path, mmap=False)
        assert not any(
            isinstance(member, np.memmap)
            for member in loaded.plan.arena.values()
        )
        query = np.zeros(example.n_items, dtype=bool)
        query[:2] = True
        assert np.array_equal(
            evaluator.classification_values(query),
            loaded.classification_values(query),
        )

    def test_empty_class_round_trip(self, tmp_path):
        # A class with no training samples has no table; the artifact must
        # record and restore that hole.
        dataset = RelationalDataset(
            item_names=("a", "b", "c"),
            class_names=("x", "y", "z"),
            samples=(frozenset({0, 1}), frozenset({2})),
            labels=(0, 2),
        )
        evaluator = FastBSTCEvaluator(dataset)
        loaded = load_artifact(save_artifact(evaluator, tmp_path / "m.npz"))
        assert loaded.plan.classes[1] is None
        queries = np.eye(3, dtype=bool)
        assert np.array_equal(
            evaluator.classification_values_batch(queries),
            loaded.classification_values_batch(queries),
        )


def _grown_pair(seed=7, n_samples=30, n_items=40, base_rows=20):
    """A dataset and its first ``base_rows`` rows (an append-only base)."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((n_samples, n_items)) < 0.4
    labels = rng.integers(0, 3, n_samples)
    labels[:3] = (0, 1, 2)
    names = ["a", "b", "c"]
    grown = RelationalDataset.from_bool_matrix(
        matrix, labels.tolist(), class_names=names
    )
    base = RelationalDataset.from_bool_matrix(
        matrix[:base_rows], labels[:base_rows].tolist(), class_names=names
    )
    return base, grown


def _arena_offsets(path):
    offsets = _stored_member_offsets(path)
    assert offsets is not None
    return {
        name: offset
        for name, offset in offsets.items()
        if name.startswith("arena_")
    }


class TestAlignedPayloads:
    """Every ``.npy`` payload — so every arena array — starts on a 64-byte
    boundary; artifacts written before that still load."""

    def _assert_aligned(self, path):
        offsets = _arena_offsets(path)
        assert len(offsets) == len(ARENA_FIELDS)
        assert all(offset % 64 == 0 for offset in offsets.values()), offsets
        loaded = load_artifact(path)
        for name in ARENA_FIELDS:
            member = loaded.plan.arena[name]
            if member.size:
                assert isinstance(member, np.memmap)
                assert member.ctypes.data % 64 == 0, name

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_saved_and_refreshed_members_are_aligned(
        self, tmp_path, arithmetization
    ):
        base, grown = _grown_pair()
        path = save_artifact(
            FastBSTCEvaluator(base, arithmetization), tmp_path / "m.npz"
        )
        self._assert_aligned(path)
        refreshed = refresh_artifact(
            path, grown, out_path=tmp_path / "refreshed.npz"
        )
        self._assert_aligned(refreshed)

    def test_cold_save_and_delta_refresh_are_byte_identical(self, tmp_path):
        base, grown = _grown_pair()
        path = save_artifact(FastBSTCEvaluator(base), tmp_path / "base.npz")
        refreshed = refresh_artifact(
            path, grown, out_path=tmp_path / "refreshed.npz"
        )
        clear_evaluator_cache()
        cold = save_artifact(FastBSTCEvaluator(grown), tmp_path / "cold.npz")
        assert refreshed.read_bytes() == cold.read_bytes()

    def test_unaligned_artifact_still_loads(self, tmp_path):
        # An artifact as older builds wrote it: np.savez of the same
        # members, then the integrity manifest appended.
        _, dataset = _grown_pair()
        evaluator = FastBSTCEvaluator(dataset)
        path = save_artifact(evaluator, tmp_path / "m.npz")
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        legacy = tmp_path / "legacy.npz"
        with legacy.open("wb") as handle:
            np.savez(handle, **arrays)
        with zipfile.ZipFile(legacy) as archive:
            members = {
                info.filename: {
                    "crc32": int(info.CRC), "size": int(info.file_size)
                }
                for info in archive.infolist()
            }
        manifest = {
            "version": 1,
            "algorithm": "crc32",
            "members": members,
            "root_sha256": _integrity_root(members),
        }
        with zipfile.ZipFile(legacy, "a") as archive:
            archive.writestr(_INTEGRITY_MEMBER, json.dumps(manifest))
        assert any(o % 64 for o in _arena_offsets(legacy).values())
        loaded = load_artifact(legacy, verify="eager")
        assert all(
            isinstance(loaded.plan.arena[name], np.memmap)
            for name in ARENA_FIELDS
            if loaded.plan.arena[name].size
        )
        queries = _random_queries(np.random.default_rng(5), dataset)
        assert np.array_equal(
            loaded.classification_values_batch(queries),
            evaluator.classification_values_batch(queries),
        )


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="no such artifact"):
            load_artifact(tmp_path / "absent.npz")

    def test_not_an_artifact(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"definitely not a zip file")
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_missing_entry(self, tmp_path, example):
        evaluator = FastBSTCEvaluator(example)
        path = save_artifact(evaluator, tmp_path / "m.npz")
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files if k != "meta_fingerprint"}
        stripped = tmp_path / "stripped.npz"
        with stripped.open("wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ArtifactError, match="meta_fingerprint"):
            load_artifact(stripped)

    def test_unknown_format_version(self, tmp_path, example):
        # A future version and the retired v1 table layout are both refused;
        # the message says how to get a loadable artifact back.
        evaluator = FastBSTCEvaluator(example)
        path = save_artifact(evaluator, tmp_path / "m.npz")
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        for version in (ARTIFACT_FORMAT_VERSION + 1, 1):
            arrays["meta_format_version"] = np.array(version, dtype=np.int64)
            other = tmp_path / f"v{version}.npz"
            with other.open("wb") as handle:
                np.savez(handle, **arrays)
            with pytest.raises(
                ArtifactError, match=f"format version {version} .*refit"
            ):
                load_artifact(other)

    def test_fingerprint_mismatch(self, tmp_path, example):
        evaluator = FastBSTCEvaluator(example)
        path = save_artifact(evaluator, tmp_path / "m.npz")
        loaded = load_artifact(path, expected_fingerprint=example.fingerprint)
        assert loaded.dataset.fingerprint == example.fingerprint
        with pytest.raises(ArtifactError, match="stale"):
            load_artifact(path, expected_fingerprint="0" * 40)

    def test_geometry_mismatch(self, tmp_path, example):
        # The geometry table says how long each arena member must be; a
        # disagreement (truncated member, mangled geometry) must be a
        # structured error, not a garbage evaluator.
        evaluator = FastBSTCEvaluator(example)
        path = save_artifact(evaluator, tmp_path / "m.npz")
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        geometry = arrays["meta_plan_geometry"].copy()
        geometry[0, 2] += 1  # claim one more h_flat reference than stored
        arrays["meta_plan_geometry"] = geometry
        bad = tmp_path / "bad.npz"
        with bad.open("wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ArtifactError, match="geometry"):
            load_artifact(bad)

    def test_arena_dtype_mismatch(self, tmp_path, example):
        evaluator = FastBSTCEvaluator(example)
        path = save_artifact(evaluator, tmp_path / "m.npz")
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        arrays["arena_inside"] = arrays["arena_inside"].astype(np.int8)
        bad = tmp_path / "bad.npz"
        with bad.open("wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ArtifactError, match="dtype"):
            load_artifact(bad)


@pytest.mark.faults
class TestIntegrity:
    def test_manifest_written_and_valid(self, tmp_path, example):
        path = save_artifact(FastBSTCEvaluator(example), tmp_path / "m.npz")
        with zipfile.ZipFile(path) as archive:
            names = archive.namelist()
            manifest = json.loads(archive.read(_INTEGRITY_MEMBER).decode())
            recorded = {
                info.filename: int(info.CRC)
                for info in archive.infolist()
                if info.filename != _INTEGRITY_MEMBER
            }
        assert _INTEGRITY_MEMBER in names
        assert set(manifest["members"]) == set(recorded)
        for name, crc in recorded.items():
            assert manifest["members"][name]["crc32"] == crc

    def test_every_member_byte_flip_detected_eagerly(self, tmp_path, example):
        # One artifact per member: flip one payload byte, demand an eager
        # load, and require detection + quarantine before any prediction.
        source = save_artifact(FastBSTCEvaluator(example), tmp_path / "m.npz")
        with zipfile.ZipFile(source) as archive:
            members = [
                info.filename
                for info in archive.infolist()
                if info.file_size > 0
            ]
        assert len(members) > 10
        for index, member in enumerate(members):
            path = tmp_path / f"flip{index}.npz"
            shutil.copy(source, path)
            corrupt_artifact_member(path, member, byte_index=0)
            with pytest.raises(ArtifactCorrupt):
                load_artifact(path, verify="eager", on_corrupt="quarantine")
            assert not path.exists()  # quarantined
            quarantined = path.with_name(path.name + ".quarantine")
            assert (quarantined / path.name).exists()

    def test_lazy_load_detects_before_first_prediction(
        self, tmp_path, example
    ):
        path = save_artifact(FastBSTCEvaluator(example), tmp_path / "m.npz")
        with zipfile.ZipFile(path) as archive:
            table_info = next(
                info
                for info in archive.infolist()
                if info.filename.startswith("arena_") and info.file_size > 128
            )
        # Flip a data byte (not the npy header) so the member still maps
        # cleanly — only the deferred CRC check can catch it.
        corrupt_artifact_member(
            path, table_info.filename, byte_index=table_info.file_size - 1
        )
        loaded = load_artifact(path, verify="lazy", on_corrupt="fail")
        query = np.zeros(example.n_items, dtype=bool)
        with pytest.raises(ArtifactCorrupt):
            loaded.classification_values(query)
        with pytest.raises(ArtifactCorrupt):  # cached, raised again
            loaded.classification_values_batch([query])

    def test_lazy_clean_artifact_verifies_once_then_serves(
        self, tmp_path, example
    ):
        evaluator = FastBSTCEvaluator(example)
        path = save_artifact(evaluator, tmp_path / "m.npz")
        loaded = load_artifact(path, verify="lazy")
        queries = np.eye(example.n_items, dtype=bool)
        assert np.array_equal(
            loaded.classification_values_batch(queries),
            evaluator.classification_values_batch(queries),
        )

    def test_verify_off_skips_checking(self, tmp_path, example):
        path = save_artifact(FastBSTCEvaluator(example), tmp_path / "m.npz")
        with zipfile.ZipFile(path) as archive:
            table_info = next(
                info
                for info in archive.infolist()
                if info.filename.startswith("arena_") and info.file_size > 8
            )
        # Flip the payload's last byte (past the npy header) so the archive
        # still parses; verify="off" must load without complaint.
        corrupt_artifact_member(
            path, table_info.filename, byte_index=table_info.file_size - 1
        )
        load_artifact(path, verify="off")
        assert path.exists()

    def test_manifest_tamper_detected(self, tmp_path, example):
        path = save_artifact(FastBSTCEvaluator(example), tmp_path / "m.npz")
        corrupt_artifact_member(path, _INTEGRITY_MEMBER, byte_index=5)
        with pytest.raises(ArtifactCorrupt):
            load_artifact(path, on_corrupt="fail")
        assert path.exists()  # on_corrupt="fail" leaves the file in place

    def test_missing_manifest_loads_unverified(self, tmp_path, example):
        from repro.evaluation.timing import engine_counters

        evaluator = FastBSTCEvaluator(example)
        path = save_artifact(evaluator, tmp_path / "m.npz")
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files if k != _INTEGRITY_MEMBER}
        legacy = tmp_path / "legacy.npz"
        with legacy.open("wb") as handle:
            np.savez(handle, **arrays)
        before = engine_counters.get("artifact_unverified_loads")
        loaded = load_artifact(legacy)
        assert engine_counters.get("artifact_unverified_loads") == before + 1
        query = np.zeros(example.n_items, dtype=bool)
        assert np.array_equal(
            loaded.classification_values(query),
            evaluator.classification_values(query),
        )

    def test_quarantine_collision_numbers_files(self, tmp_path, example):
        for round_index in range(2):
            path = save_artifact(
                FastBSTCEvaluator(example), tmp_path / "m.npz"
            )
            corrupt_artifact_member(path, "meta_fingerprint.npy")
            with pytest.raises(ArtifactCorrupt):
                load_artifact(path, verify="eager")
        quarantine = tmp_path / "m.npz.quarantine"
        assert (quarantine / "m.npz").exists()
        assert (quarantine / "m.npz.1").exists()

    def test_corrupt_error_carries_structure(self, tmp_path, example):
        path = save_artifact(FastBSTCEvaluator(example), tmp_path / "m.npz")
        corrupt_artifact_member(path, "meta_fingerprint.npy")
        with pytest.raises(ArtifactCorrupt) as info:
            load_artifact(path, verify="eager", on_corrupt="quarantine")
        assert info.value.member == "meta_fingerprint.npy"
        assert info.value.quarantine_path is not None
        assert info.value.quarantine_path.exists()

    def test_stale_is_not_quarantined(self, tmp_path, example):
        path = save_artifact(FastBSTCEvaluator(example), tmp_path / "m.npz")
        with pytest.raises(ArtifactStale):
            load_artifact(path, expected_fingerprint="0" * 40)
        assert path.exists()  # intact file, wrong model: never quarantined

    def test_extra_member_detected(self, tmp_path, example):
        path = save_artifact(FastBSTCEvaluator(example), tmp_path / "m.npz")
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr("sneaky.npy", b"not in the manifest")
        with pytest.raises(ArtifactCorrupt, match="member list"):
            load_artifact(path, on_corrupt="fail")

    def test_invalid_parameters(self, tmp_path, example):
        path = save_artifact(FastBSTCEvaluator(example), tmp_path / "m.npz")
        with pytest.raises(ValueError, match="verify"):
            load_artifact(path, verify="sometimes")
        with pytest.raises(ValueError, match="on_corrupt"):
            load_artifact(path, on_corrupt="shrug")


class TestReaderFallbacks:
    def _recompress(self, source, destination):
        """Rewrite an artifact with every member deflated (payload CRCs are
        computed over uncompressed bytes, so the manifest stays valid)."""
        with zipfile.ZipFile(source) as archive:
            payloads = {
                info.filename: archive.read(info.filename)
                for info in archive.infolist()
            }
        with zipfile.ZipFile(
            destination, "w", zipfile.ZIP_DEFLATED
        ) as archive:
            for name, payload in payloads.items():
                archive.writestr(name, payload)
        return destination

    def test_compressed_members_fall_back_to_eager(self, tmp_path, example):
        evaluator = FastBSTCEvaluator(example)
        source = save_artifact(evaluator, tmp_path / "m.npz")
        packed = self._recompress(source, tmp_path / "packed.npz")
        loaded = load_artifact(packed, verify="eager")
        assert not any(
            isinstance(member, np.memmap)
            for member in loaded.plan.arena.values()
        )
        queries = np.eye(example.n_items, dtype=bool)
        assert np.array_equal(
            loaded.classification_values_batch(queries),
            evaluator.classification_values_batch(queries),
        )

    def test_compressed_corruption_still_detected(self, tmp_path, example):
        import struct

        source = save_artifact(FastBSTCEvaluator(example), tmp_path / "m.npz")
        packed = self._recompress(source, tmp_path / "packed.npz")
        # No stored offsets in a deflated archive, so corrupt_artifact_member
        # refuses; locate one member's compressed payload by hand and flip a
        # byte in the middle of it.
        with zipfile.ZipFile(packed) as archive:
            info = next(
                i for i in archive.infolist() if i.filename.startswith("arena_")
            )
        data = bytearray(packed.read_bytes())
        name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
        payload_start = info.header_offset + 30 + name_len + extra_len
        data[payload_start + info.compress_size // 2] ^= 0xFF
        packed.write_bytes(bytes(data))
        with pytest.raises((ArtifactCorrupt, ArtifactError)):
            load_artifact(packed, verify="eager", on_corrupt="fail")

    def test_mmap_member_refusal_falls_back_to_eager(
        self, tmp_path, example, monkeypatch
    ):
        import repro.core.artifact as artifact_module

        evaluator = FastBSTCEvaluator(example)
        path = save_artifact(evaluator, tmp_path / "m.npz")
        monkeypatch.setattr(
            artifact_module, "_mmap_member", lambda path, offset: None
        )
        loaded = load_artifact(path)
        assert not any(
            isinstance(member, np.memmap)
            for member in loaded.plan.arena.values()
        )
        queries = np.eye(example.n_items, dtype=bool)
        assert np.array_equal(
            loaded.classification_values_batch(queries),
            evaluator.classification_values_batch(queries),
        )


@pytest.mark.faults
class TestRebuildFallback:
    def test_rebuild_from_training_data(self, tmp_path, example):
        clf = BSTClassifier().fit(example)
        path = clf.save(tmp_path / "clf.npz")
        corrupt_artifact_member(path, "meta_fingerprint.npy")
        clear_evaluator_cache()
        rebuilt = BSTClassifier.load(
            path, on_corrupt="rebuild", train_dataset=example
        )
        assert not path.exists()  # corrupt file was quarantined first
        query = np.zeros(example.n_items, dtype=bool)
        query[[0, 3, 4]] = True
        assert rebuilt.predict(query) == clf.predict(query)

    def test_rebuild_without_training_data_reraises(self, tmp_path, example):
        clf = BSTClassifier().fit(example)
        path = clf.save(tmp_path / "clf.npz")
        corrupt_artifact_member(path, "meta_fingerprint.npy")
        clear_evaluator_cache()
        with pytest.raises(ArtifactCorrupt):
            BSTClassifier.load(path, on_corrupt="rebuild")

    def test_clean_artifact_ignores_rebuild_policy(self, tmp_path, example):
        clf = BSTClassifier().fit(example)
        path = clf.save(tmp_path / "clf.npz")
        clear_evaluator_cache()
        loaded = BSTClassifier.load(
            path, on_corrupt="rebuild", train_dataset=example
        )
        assert path.exists()
        query = np.zeros(example.n_items, dtype=bool)
        assert loaded.predict(query) == clf.predict(query)


class TestClassifierSaveLoad:
    def test_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(11)
        dataset = random_relational(rng)
        clf = BSTClassifier().fit(dataset)
        path = clf.save(tmp_path / "clf.npz")
        clear_evaluator_cache()
        loaded = BSTClassifier.load(path)
        queries = _random_queries(rng, dataset)
        assert np.array_equal(
            clf.predict_batch(queries), loaded.predict_batch(queries)
        )
        assert np.array_equal(
            clf.classification_values(queries[0]),
            loaded.classification_values(queries[0]),
        )

    def test_load_registers_in_cache(self, tmp_path, example):
        clf = BSTClassifier().fit(example)
        path = clf.save(tmp_path / "clf.npz")
        clear_evaluator_cache()
        loaded = BSTClassifier.load(path)
        assert evaluator_cache_info()[0] == 1
        # A later fit on the same training data reuses the loaded evaluator:
        # zero table rebuild end to end.
        assert get_evaluator(example) is loaded._fast

    def test_save_reference_engine(self, tmp_path, example):
        clf = BSTClassifier(engine="reference").fit(example)
        loaded = BSTClassifier.load(clf.save(tmp_path / "clf.npz"))
        query = np.zeros(example.n_items, dtype=bool)
        query[[0, 3, 4]] = True
        assert loaded.predict(query) == clf.predict(query)

    def test_loaded_classifier_has_no_bsts(self, tmp_path, example):
        clf = BSTClassifier().fit(example)
        loaded = BSTClassifier.load(clf.save(tmp_path / "clf.npz"))
        with pytest.raises(ValueError, match="artifact"):
            loaded.bsts

    def test_save_over_the_mapped_artifact_keeps_answers(self, tmp_path):
        # Saving a memory-mapped model over the file it maps must not
        # truncate the mapped pages.  When it does, the next read of the
        # map dies with SIGBUS, so the check runs in a child process.
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            from repro.core.classifier import BSTClassifier
            from repro.core.fast import clear_evaluator_cache
            from repro.datasets.dataset import RelationalDataset

            path = sys.argv[1]
            rng = np.random.default_rng(5)
            dataset = RelationalDataset.from_bool_matrix(
                rng.random((40, 60)) < 0.3,
                labels=tuple(int(x) for x in rng.integers(0, 3, size=40)),
            )
            BSTClassifier().fit(dataset).save(path)
            clear_evaluator_cache()
            loaded = BSTClassifier.load(path)
            queries = rng.random((16, 60)) < 0.3
            before = loaded.classification_values_batch(queries)
            loaded.save(path)
            after = loaded.classification_values_batch(queries)
            clear_evaluator_cache()
            reloaded = BSTClassifier.load(path, verify="eager")
            again = reloaded.classification_values_batch(queries)
            assert np.array_equal(before, after)
            assert np.array_equal(before, again)
            print("same-answers")
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "clf.npz")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, (result.returncode, result.stderr)
        assert "same-answers" in result.stdout

    def test_failed_save_keeps_the_old_file(self, tmp_path, example, monkeypatch):
        import repro.core.artifact as artifact_module

        path = BSTClassifier().fit(example).save(tmp_path / "clf.npz")
        original = path.read_bytes()

        def failing_write(handle, arrays):
            handle.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(artifact_module, "_write_npz", failing_write)
        with pytest.raises(OSError, match="disk full"):
            BSTClassifier().fit(example).save(path)
        assert path.read_bytes() == original
        assert [p.name for p in tmp_path.iterdir()] == ["clf.npz"]

    def test_unfitted_save(self, tmp_path):
        from repro.core.estimator import NotFittedError

        with pytest.raises(NotFittedError):
            BSTClassifier().save(tmp_path / "clf.npz")

    def test_expected_fingerprint(self, tmp_path, example):
        clf = BSTClassifier().fit(example)
        path = clf.save(tmp_path / "clf.npz")
        BSTClassifier.load(path, expected_fingerprint=example.fingerprint)
        with pytest.raises(ArtifactError):
            BSTClassifier.load(path, expected_fingerprint="f" * 40)
