"""CLI tests."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.fast import clear_evaluator_cache, set_evaluator_cache_size
from repro.datasets.dataset import RelationalDataset
from repro.datasets.io import save_relational_json


@pytest.fixture
def relational_files(tmp_path):
    """Training and query JSON files for predict runs."""
    rng = np.random.default_rng(17)
    train = RelationalDataset.from_bool_matrix(
        rng.random((24, 30)) < 0.35,
        labels=tuple(int(x) for x in rng.integers(0, 3, size=24)),
    )
    queries = RelationalDataset.from_bool_matrix(
        rng.random((4, 30)) < 0.35,
        labels=(0, 0, 0, 0),
        sample_names=("qa", "qb", "qc", "qd"),
    )
    train_path = tmp_path / "train.json"
    query_path = tmp_path / "queries.json"
    save_relational_json(train, train_path)
    save_relational_json(queries, query_path)
    return train_path, query_path


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig6" in out

    def test_run_fig3(self, capsys):
        assert main(["run", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "0.75" in out and "True" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "tableXX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "BST for class Cancer" in out
        assert "classified as Cancer" in out

    def test_run_with_options(self, capsys):
        code = main(
            ["run", "fig2", "--tests", "1", "--topk-cutoff", "1", "--seed", "2"]
        )
        assert code == 0
        assert "g6" in capsys.readouterr().out


class TestPredictCommand:
    def test_predict_from_training_data(self, capsys, relational_files):
        train_path, query_path = relational_files
        code = main(
            ["predict", "--train", str(train_path), "--data", str(query_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("qa", "qb", "qc", "qd"):
            assert name in out
        assert "engine counters" in out

    def test_artifact_round_trip_matches_train(
        self, capsys, tmp_path, relational_files
    ):
        train_path, query_path = relational_files
        artifact = tmp_path / "model.npz"
        assert (
            main(
                [
                    "predict",
                    "--train",
                    str(train_path),
                    "--data",
                    str(query_path),
                    "--save-artifact",
                    str(artifact),
                ]
            )
            == 0
        )
        fitted_out = capsys.readouterr().out
        assert "artifact written" in fitted_out
        assert artifact.exists()

        clear_evaluator_cache()
        assert (
            main(
                ["predict", "--artifact", str(artifact), "--data", str(query_path)]
            )
            == 0
        )
        loaded_out = capsys.readouterr().out
        assert "artifact_loads" in loaded_out

        def predictions(text):
            return [
                line
                for line in text.splitlines()
                if line.startswith(("qa", "qb", "qc", "qd"))
            ]

        assert predictions(loaded_out) == predictions(fitted_out)

    def test_fingerprint_mismatch_fails(self, capsys, tmp_path, relational_files):
        train_path, query_path = relational_files
        artifact = tmp_path / "model.npz"
        main(
            [
                "predict",
                "--train",
                str(train_path),
                "--data",
                str(query_path),
                "--save-artifact",
                str(artifact),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "predict",
                "--artifact",
                str(artifact),
                "--data",
                str(query_path),
                "--expect-fingerprint",
                "0" * 40,
            ]
        )
        assert code == 4
        assert "stale" in capsys.readouterr().err

    def test_missing_artifact_fails(self, capsys, tmp_path, relational_files):
        _, query_path = relational_files
        code = main(
            [
                "predict",
                "--artifact",
                str(tmp_path / "absent.npz"),
                "--data",
                str(query_path),
            ]
        )
        assert code == 2
        assert "no such artifact" in capsys.readouterr().err

    def test_item_vocabulary_mismatch_fails(
        self, capsys, tmp_path, relational_files
    ):
        train_path, _ = relational_files
        rng = np.random.default_rng(23)
        narrow = RelationalDataset.from_bool_matrix(
            rng.random((2, 7)) < 0.5, labels=(0, 1)
        )
        narrow_path = tmp_path / "narrow.json"
        save_relational_json(narrow, narrow_path)
        code = main(
            ["predict", "--train", str(train_path), "--data", str(narrow_path)]
        )
        assert code == 2
        assert "7 items" in capsys.readouterr().err

    def test_evaluator_cache_size_flag(self, capsys, relational_files):
        train_path, query_path = relational_files
        try:
            code = main(
                [
                    "--evaluator-cache-size",
                    "3",
                    "predict",
                    "--train",
                    str(train_path),
                    "--data",
                    str(query_path),
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "evaluator_cache_capacity" in out
            assert "3" in out.split("evaluator_cache_capacity", 1)[1].splitlines()[0]
            assert "evaluator_cache_entries" in out
        finally:
            set_evaluator_cache_size(8)
            clear_evaluator_cache()

    def test_invalid_cache_size(self, capsys):
        code = main(["--evaluator-cache-size", "0", "list"])
        # 'list' short-circuits before the flag applies; use predict path.
        assert code == 0
        capsys.readouterr()
        code = main(
            ["--evaluator-cache-size", "0", "predict", "--train", "x", "--data", "y"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


def _saved_artifact(tmp_path, relational_files, capsys):
    train_path, query_path = relational_files
    artifact = tmp_path / "model.npz"
    assert (
        main(
            [
                "predict",
                "--train",
                str(train_path),
                "--data",
                str(query_path),
                "--save-artifact",
                str(artifact),
            ]
        )
        == 0
    )
    capsys.readouterr()
    clear_evaluator_cache()
    return artifact, train_path, query_path


@pytest.mark.faults
class TestExitCodes:
    """Failure classes map to distinct non-zero exit codes (scripts/CI can
    branch on them): 2 generic, 3 corrupt, 4 stale, 5 overload."""

    def test_corrupt_artifact_exits_3_and_quarantines(
        self, capsys, tmp_path, relational_files
    ):
        from repro.testing import corrupt_artifact_member

        artifact, _, query_path = _saved_artifact(
            tmp_path, relational_files, capsys
        )
        corrupt_artifact_member(artifact, "meta_fingerprint.npy")
        code = main(
            ["predict", "--artifact", str(artifact), "--data", str(query_path)]
        )
        assert code == 3
        assert "corrupt" in capsys.readouterr().err
        assert not artifact.exists()  # default policy quarantined it
        quarantine = artifact.with_name(artifact.name + ".quarantine")
        assert (quarantine / artifact.name).exists()

    def test_corrupt_artifact_on_corrupt_fail_keeps_file(
        self, capsys, tmp_path, relational_files
    ):
        from repro.testing import corrupt_artifact_member

        artifact, _, query_path = _saved_artifact(
            tmp_path, relational_files, capsys
        )
        corrupt_artifact_member(artifact, "meta_fingerprint.npy")
        code = main(
            [
                "predict",
                "--artifact",
                str(artifact),
                "--data",
                str(query_path),
                "--on-corrupt",
                "fail",
            ]
        )
        assert code == 3
        assert artifact.exists()

    def test_corrupt_artifact_rebuilds_from_train(
        self, capsys, tmp_path, relational_files
    ):
        from repro.testing import corrupt_artifact_member

        artifact, train_path, query_path = _saved_artifact(
            tmp_path, relational_files, capsys
        )
        corrupt_artifact_member(artifact, "meta_fingerprint.npy")
        code = main(
            [
                "predict",
                "--artifact",
                str(artifact),
                "--train",
                str(train_path),
                "--data",
                str(query_path),
                "--on-corrupt",
                "rebuild",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "qa" in out
        assert "artifact_rebuilds" in out

    def test_artifact_and_train_conflict_without_rebuild(
        self, capsys, tmp_path, relational_files
    ):
        artifact, train_path, query_path = _saved_artifact(
            tmp_path, relational_files, capsys
        )
        code = main(
            [
                "predict",
                "--artifact",
                str(artifact),
                "--train",
                str(train_path),
                "--data",
                str(query_path),
            ]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_neither_artifact_nor_train(self, capsys, relational_files):
        _, query_path = relational_files
        code = main(["predict", "--data", str(query_path)])
        assert code == 2
        assert "required" in capsys.readouterr().err

    def test_overloaded_predict_exits_5(
        self, capsys, relational_files, monkeypatch
    ):
        import repro.cli as cli
        from repro.errors import ServiceOverloaded

        def overloaded(args):
            raise ServiceOverloaded(depth=99, high_water=1)

        monkeypatch.setattr(cli, "_load_model", overloaded)
        train_path, query_path = relational_files
        code = main(
            ["predict", "--train", str(train_path), "--data", str(query_path)]
        )
        assert code == 5
        assert "overloaded" in capsys.readouterr().err
