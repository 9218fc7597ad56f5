"""Process-level supervision: ready files, crash restart with the
last-known-good artifact set, restart-budget escalation, and drain.

The supervised tests boot the real ``python -m repro.cli serve`` child
through :class:`~repro.serving.GatewaySupervisor` — the same stack the
kill-chaos smoke and CI exercise — so they are marked ``faults`` like
the rest of the recovery matrix.  The state-file and command-assembly
tests are pure and stay in tier 1.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.classifier import BSTClassifier
from repro.datasets.dataset import running_example
from repro.errors import RestartBudgetExhausted, SupervisorError
from repro.evaluation.timing import EngineCounters
from repro.serving import (
    GatewayServer,
    GatewaySupervisor,
    ModelRegistry,
    gateway_env,
    read_state_file,
    serve_command,
    write_state_file,
)

Q_ITEMS = [0, 3, 4]


def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _request(url, body=None, timeout=10.0):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _admin_post(url, body, token, timeout=30.0):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={
            "Content-Type": "application/json",
            "Authorization": f"Bearer {token}",
        },
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("supervised")
    classifier = BSTClassifier().fit(running_example())
    return classifier.save(workdir / "model.npz")


def _supervised(tmp_path, artifact, **kwargs):
    ready = tmp_path / "gateway.ready"
    state = tmp_path / "state.json"
    command = serve_command(
        {"exp": artifact},
        port=_free_port(),
        ready_file=ready,
        state_file=state,
        admin_token="chaos-admin",
    )
    supervisor = GatewaySupervisor(
        command, ready_file=ready, env=gateway_env(), **kwargs
    )
    return supervisor, ready, state


def _await_state(supervisor, predicate, deadline_s=60.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate(supervisor):
            return
        time.sleep(0.05)
    pytest.fail(
        f"supervisor stuck in state={supervisor.state!r}"
        f" restarts={supervisor.restarts}"
    )


# ----------------------------------------------------------------------
# State file and command assembly (pure, tier 1)
# ----------------------------------------------------------------------


class TestStateFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        write_state_file({"b": "/art/b.npz", "a": "/art/a.npz"}, path)
        assert read_state_file(path) == {
            "a": "/art/a.npz",
            "b": "/art/b.npz",
        }

    def test_missing_file_is_none(self, tmp_path):
        assert read_state_file(tmp_path / "nope.json") is None

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps({"schema": "repro.serve-state/999", "models": {}})
        )
        with pytest.raises(SupervisorError, match="schema"):
            read_state_file(path)

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("not json")
        with pytest.raises(SupervisorError, match="unreadable"):
            read_state_file(path)
        path.write_text(
            json.dumps(
                {"schema": "repro.serve-state/1", "models": {"a": 3}}
            )
        )
        with pytest.raises(SupervisorError, match="models"):
            read_state_file(path)


class TestServeCommand:
    def test_requires_fixed_port(self, tmp_path):
        with pytest.raises(SupervisorError, match="fixed port"):
            serve_command(
                {"m": "a.npz"}, port=0, ready_file=tmp_path / "r"
            )

    def test_assembles_full_argv(self, tmp_path):
        command = serve_command(
            {"b": "b.npz", "a": "a.npz"},
            port=8123,
            ready_file=tmp_path / "ready",
            state_file=tmp_path / "state.json",
            admin_token="tok",
            extra_args=("--max-batch", "8"),
        )
        text = " ".join(command)
        assert "--model a=a.npz --model b=b.npz" in text  # sorted
        assert "--port 8123" in text
        assert "--ready-file" in text
        assert "--state-file" in text
        assert "--admin-token tok" in text
        assert text.endswith("--max-batch 8")

    def test_validates_knobs(self, tmp_path):
        command = ["true"]
        with pytest.raises(ValueError):
            GatewaySupervisor(
                command, ready_file=tmp_path / "r", max_restarts=-1
            )
        with pytest.raises(ValueError):
            GatewaySupervisor(
                command, ready_file=tmp_path / "r", probe_failures=0
            )


# ----------------------------------------------------------------------
# Supervised lifecycle against the real serve child
# ----------------------------------------------------------------------


class TestSupervisedLifecycle:
    def test_ready_file_predict_and_clean_stop(self, tmp_path, artifact):
        supervisor, ready, _ = _supervised(tmp_path, artifact)
        with supervisor:
            assert ready.exists()
            assert supervisor.url == ready.read_text().strip()
            assert supervisor.state == "serving"
            status, payload = _request(
                f"{supervisor.url}/v1/models/exp:predict",
                {"items": Q_ITEMS},
            )
            assert status == 200
            assert "prediction" in payload
        assert supervisor.stop() == 0  # idempotent after __exit__
        assert supervisor.state == "stopped"
        assert supervisor.restarts == 0
        # The child removed its readiness file on drain: readiness is
        # revoked before the socket closes, never after.
        assert not ready.exists()


@pytest.mark.faults
class TestCrashRecovery:
    def test_sigkill_restarts_and_recovers(self, tmp_path, artifact):
        supervisor, _, _ = _supervised(tmp_path, artifact)
        with supervisor:
            url = supervisor.url
            status, _ = _request(
                f"{url}/v1/models/exp:predict", {"items": Q_ITEMS}
            )
            assert status == 200
            supervisor.kill()
            _await_state(
                supervisor,
                lambda s: s.restarts >= 1 and s.state == "serving",
            )
            # Same address after the restart: clients keep their URL.
            assert supervisor.url == url
            status, payload = _request(
                f"{url}/v1/models/exp:predict", {"items": Q_ITEMS}
            )
            assert status == 200
            assert "prediction" in payload
            assert supervisor.restarts == 1

    def test_admin_deploy_survives_restart(self, tmp_path, artifact):
        supervisor, _, state = _supervised(tmp_path, artifact)
        with supervisor:
            url = supervisor.url
            status, payload = _admin_post(
                f"{url}/admin/v1/models/extra:deploy",
                {"artifact": str(artifact)},
                "chaos-admin",
            )
            assert status == 200, payload
            # The deploy was persisted as last-known-good ...
            assert read_state_file(state) == {
                "exp": str(artifact),
                "extra": str(artifact),
            }
            supervisor.kill()
            _await_state(
                supervisor,
                lambda s: s.restarts >= 1 and s.state == "serving",
            )
            # ... and the restarted child reloaded it: the admin-plane
            # deploy outlives the process that accepted it.
            status, payload = _request(f"{url}/v1/models/extra")
            assert status == 200
            assert payload["name"] == "extra"
            status, _ = _request(
                f"{url}/v1/models/extra:predict", {"items": Q_ITEMS}
            )
            assert status == 200

    def test_restart_budget_escalates(self, tmp_path, artifact):
        supervisor, _, _ = _supervised(tmp_path, artifact, max_restarts=0)
        try:
            supervisor.start()
            supervisor.kill()
            with pytest.raises(RestartBudgetExhausted) as excinfo:
                supervisor.wait(timeout=60.0)
            assert supervisor.state == "failed"
            assert excinfo.value.budget == 0
        finally:
            supervisor.stop()


# ----------------------------------------------------------------------
# Graceful drain with an in-flight explain
# ----------------------------------------------------------------------


class _SlowExplain(BSTClassifier):
    """An explain that blocks until released — a deterministic way to pin
    a request in flight while the gateway is told to drain."""

    def __init__(self):
        super().__init__()
        self.in_flight = threading.Event()
        self.release = threading.Event()

    def explain(self, query, **kwargs):
        self.in_flight.set()
        assert self.release.wait(timeout=30.0), "drain test never released"
        return super().explain(query, **kwargs)


class TestDrainWithInFlightExplain:
    def test_in_flight_explain_completes_through_close(self, example):
        model = _SlowExplain().fit(example)
        registry = ModelRegistry(counters=EngineCounters())
        registry.deploy_model("mem", model)
        server = GatewayServer(registry).start()
        url = server.url
        results = []

        def hit():
            results.append(
                _request(
                    f"{url}/v1/models/mem:explain",
                    {"items": Q_ITEMS, "min_satisfaction": 0.5},
                    timeout=60.0,
                )
            )

        thread = threading.Thread(target=hit)
        thread.start()
        try:
            assert model.in_flight.wait(timeout=30.0)
            # Drain while the explain is pinned in flight: the listener
            # closes (new connections refused) but the accepted request
            # must still complete.
            server.close()
            model.release.set()
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            status, payload = results[0]
            assert status == 200
            assert payload["evidence"]
            with pytest.raises((urllib.error.URLError, OSError)):
                urllib.request.urlopen(f"{url}/health", timeout=2.0)
        finally:
            model.release.set()
            registry.close()
