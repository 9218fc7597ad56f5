"""Package imports resolve lazily: serving never loads the fitting stack.

Each check runs in a fresh interpreter, so modules an earlier test imported
cannot hide an eager import.
"""

import json
import os
import subprocess
import sys

import numpy as np

from repro.core.classifier import BSTClassifier
from repro.datasets.dataset import RelationalDataset
from repro.datasets.io import save_relational_json

PACKAGES = (
    "repro",
    "repro.core",
    "repro.datasets",
    "repro.evaluation",
    "repro.serving",
)


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_serving_path_skips_experiment_stack(tmp_path):
    rng = np.random.default_rng(3)
    data = RelationalDataset.from_bool_matrix(
        rng.random((12, 10)) < 0.4, labels=tuple(i % 2 for i in range(12))
    )
    queries = tmp_path / "queries.json"
    save_relational_json(data, queries)
    model = tmp_path / "model.npz"
    BSTClassifier().fit(data).save(model)
    script = """
import contextlib, io, json, sys
from repro.cli import main
from repro.serving import GatewayServer, ModelRegistry, PredictionService
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["predict", "--artifact", sys.argv[1], "--data", sys.argv[2]])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("repro"))]))
"""
    code, loaded = _run(script, str(model), str(queries))
    assert code == 0
    assert "repro.serving.http" in loaded and "repro.core.artifact" in loaded
    banned = [
        name
        for name in loaded
        if name.startswith(("repro.baselines", "repro.experiments"))
        or name == "repro.evaluation.crossval"
    ]
    assert banned == []


def test_star_import_resolves_every_export():
    script = """
import importlib, json, sys
missing = {}
for package in sys.argv[1:]:
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    missing[package] = [
        name for name in module.__all__
        if name not in namespace or name not in dir(module)
    ]
print(json.dumps(missing))
"""
    missing = _run(script, *PACKAGES)
    assert missing == {package: [] for package in PACKAGES}
