"""``scripts/bench_trend.py``: gated keys regress, go missing, or are new."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_trend.py"


@pytest.fixture
def trend(tmp_path, monkeypatch):
    """The script as a module, reading fresh records from ``tmp_path`` and
    baselines from a dict instead of git."""
    spec = importlib.util.spec_from_file_location("bench_trend", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    baselines = {}
    monkeypatch.setattr(module, "REPO", tmp_path)
    monkeypatch.setattr(
        module, "load_baseline", lambda name, ref: baselines.get(name)
    )
    monkeypatch.setattr(
        module,
        "GATES",
        {"BENCH_micro.json": {"speedup": "up", "peak_bytes": "down"}},
    )

    def run(current, baseline):
        baselines["BENCH_micro.json"] = {"smoke": False, "results": baseline}
        (tmp_path / "BENCH_micro.json").write_text(
            json.dumps({"smoke": False, "results": current})
        )
        return module.main([])

    return run


def test_unchanged_figures_pass(trend):
    figures = {"speedup": 4.0, "peak_bytes": 1000.0}
    assert trend(figures, figures) == 0


def test_regression_beyond_tolerance_fails(trend):
    baseline = {"speedup": 4.0, "peak_bytes": 1000.0}
    assert trend({"speedup": 2.0, "peak_bytes": 1000.0}, baseline) == 1
    assert trend({"speedup": 4.0, "peak_bytes": 1500.0}, baseline) == 1


def test_gated_key_missing_from_fresh_record_fails(trend, capsys):
    baseline = {"speedup": 4.0, "peak_bytes": 1000.0}
    assert trend({"speedup": 4.0}, baseline) == 1
    assert "peak_bytes missing" in capsys.readouterr().out


def test_gated_key_new_since_baseline_is_skipped(trend):
    assert trend({"speedup": 4.0, "peak_bytes": 1000.0}, {"speedup": 4.0}) == 0


@pytest.fixture
def bench_micro():
    """``benchmarks/bench_micro.py`` as a module (nothing is collected)."""
    path = SCRIPT.parent.parent / "benchmarks" / "bench_micro.py"
    spec = importlib.util.spec_from_file_location("bench_micro_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_micro_record_goes_to_the_working_tree(bench_micro):
    record = {key: 1.0 for key in bench_micro._gated_keys()}
    record["service_mean_batch"] = 1.0
    assert bench_micro._record_path(record, {}) == "BENCH_micro.json"


def test_partial_micro_record_stays_out_of_the_tree(bench_micro):
    record = {key: 1.0 for key in bench_micro._gated_keys()}
    del record["plan_kernel_us_per_query"]
    path = Path(bench_micro._record_path(record, {}))
    assert path.is_absolute()
    assert SCRIPT.parent.parent not in path.parents
    assert path.name != "BENCH_micro.json"


def test_explicit_micro_record_path_wins(bench_micro):
    env = {"REPRO_BENCH_JSON": "elsewhere.json"}
    assert bench_micro._record_path({}, env) == "elsewhere.json"

