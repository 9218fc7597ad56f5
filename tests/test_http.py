"""HTTP gateway tests: a live stdlib server against a live registry."""

import errno
import http.client
import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.classifier import BSTClassifier
from repro.evaluation.timing import EngineCounters
from repro.serving import GatewayServer, ModelRegistry, ServeConfig
from repro.serving.http import _GatewayHandler

Q_ITEMS = [0, 3, 4]


@pytest.fixture
def gateway(tmp_path, example):
    clf = BSTClassifier().fit(example)
    artifact = clf.save(tmp_path / "model.npz")
    registry = ModelRegistry(
        ServeConfig(),
        tenant_quota=4,
        counters=EngineCounters(),
    )
    registry.deploy("exp", artifact)
    registry.deploy_model("mem", clf)
    with GatewayServer(registry) as server:
        yield server
    registry.close()


def _request(url, body=None, headers=None):
    """(status, parsed-json) for a GET, or a POST when body is given."""
    data = json.dumps(body).encode() if body is not None else None
    all_headers = {"Content-Type": "application/json"} if data else {}
    all_headers.update(headers or {})
    request = urllib.request.Request(url, data=data, headers=all_headers)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _raw_exchange(server, request, timeout=5.0):
    """Send raw request bytes on a fresh socket; read until the server
    closes.  The socket timeout bounds the wait, so a gateway that hangs
    fails the test instead of stalling it."""
    with socket.create_connection(
        (server.host, server.port), timeout=timeout
    ) as conn:
        conn.sendall(request)
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _split_response(raw):
    """(status, parsed-json body) of one raw HTTP/1.x response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), json.loads(body)


class TestRoutes:
    def test_health_ready(self, gateway):
        status, payload = _request(f"{gateway.url}/health")
        assert status == 200
        assert payload["ready"]
        assert set(payload["models"]) == {"exp", "mem"}
        assert payload["models"]["exp"]["state"] == "serving"

    def test_models_listing(self, gateway):
        status, payload = _request(f"{gateway.url}/v1/models")
        assert status == 200
        names = [m["name"] for m in payload["models"]]
        assert names == ["exp", "mem"]
        status, one = _request(f"{gateway.url}/v1/models/exp")
        assert status == 200
        assert one["version"] == 1
        assert one["supports_explain"] is False

    def test_predict_items(self, gateway, example):
        expected = BSTClassifier().fit(example).predict(frozenset(Q_ITEMS))
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict", {"items": Q_ITEMS}
        )
        assert status == 200
        assert payload["prediction"] == expected
        assert payload["class_name"] == example.class_names[expected]
        assert len(payload["values"]) == example.n_classes
        assert payload["model"] == "exp"

    def test_predict_vector(self, gateway, example):
        vector = [0.0] * example.n_items
        for i in Q_ITEMS:
            vector[i] = 1.0
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict", {"vector": vector}
        )
        assert status == 200
        _, by_items = _request(
            f"{gateway.url}/v1/models/exp:predict", {"items": Q_ITEMS}
        )
        assert payload["values"] == by_items["values"]

    def test_predict_with_tenant_and_deadline(self, gateway):
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict",
            {"items": Q_ITEMS, "tenant": "acme", "deadline_ms": 5000},
        )
        assert status == 200
        assert "prediction" in payload

    def test_explain_in_memory_model(self, gateway, example):
        status, payload = _request(
            f"{gateway.url}/v1/models/mem:explain",
            {"items": Q_ITEMS, "min_satisfaction": 0.5},
        )
        assert status == 200
        assert payload["prediction"] == 0
        assert payload["evidence"]
        first = payload["evidence"][0]
        assert first["gene_name"] in example.item_names
        assert "rule" in first and first["rule"]

    def test_concurrent_requests_coalesce(self, gateway, example):
        import concurrent.futures

        def hit(_):
            return _request(
                f"{gateway.url}/v1/models/exp:predict", {"items": Q_ITEMS}
            )

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(hit, range(24)))
        assert all(status == 200 for status, _ in results)
        values = {tuple(payload["values"]) for _, payload in results}
        assert len(values) == 1  # identical answers


class TestErrorMapping:
    def test_unknown_model_is_404(self, gateway):
        status, payload = _request(
            f"{gateway.url}/v1/models/nope:predict", {"items": Q_ITEMS}
        )
        assert status == 404
        assert payload["error"]["type"] == "ModelNotFound"

    def test_bad_query_is_400(self, gateway):
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict", {"items": "zero"}
        )
        assert status == 400
        assert payload["error"]["type"] == "QueryError"

    def test_both_vector_and_items_is_400(self, gateway):
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict",
            {"items": Q_ITEMS, "vector": [0.0]},
        )
        assert status == 400
        assert "exactly one" in payload["error"]["message"]

    def test_wrong_length_vector_is_400(self, gateway, example):
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict",
            {"vector": [1.0] * (example.n_items + 5)},
        )
        assert status == 400
        assert payload["error"]["type"] == "QueryError"

    @pytest.mark.parametrize(
        "key, entry",
        [
            ("items", 1.9),
            ("items", 1.0),
            ("items", "3"),
            ("items", True),
            ("items", None),
            ("items", [0]),
            ("items", {"id": 0}),
            ("vector", "1"),
            ("vector", "0"),
            ("vector", None),
            ("vector", [1.0]),
            ("vector", {"v": 1}),
        ],
    )
    def test_malformed_entry_is_400(self, gateway, example, key, entry):
        # Entries are checked by JSON type, never coerced into another query.
        if key == "items":
            body = {"items": Q_ITEMS + [entry]}
        else:
            vector = [0.0] * example.n_items
            vector[1] = entry
            body = {"vector": vector}
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict", body
        )
        assert status == 400
        assert payload["error"]["type"] == "QueryError"
        assert "entry" in payload["error"]["message"]

    def test_mixed_malformed_items_are_refused_not_rewritten(self, gateway):
        # int() coercion would have answered this as the query {1, 2}.
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict", {"items": [1.9, "2", True]}
        )
        assert status == 400
        assert payload["error"]["type"] == "QueryError"

    def test_huge_vector_entry_is_400(self, gateway, example):
        vector = [0] * example.n_items
        vector[0] = 10**400
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict", {"vector": vector}
        )
        assert status == 400
        assert payload["error"]["type"] == "QueryError"

    def test_boolean_and_integer_vectors_are_numbers(self, gateway, example):
        flags = [i in Q_ITEMS for i in range(example.n_items)]
        _, by_items = _request(
            f"{gateway.url}/v1/models/exp:predict", {"items": Q_ITEMS}
        )
        for vector in (flags, [int(f) for f in flags]):
            status, payload = _request(
                f"{gateway.url}/v1/models/exp:predict", {"vector": vector}
            )
            assert status == 200
            assert payload["values"] == by_items["values"]

    def test_explain_artifact_model_is_501(self, gateway):
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:explain", {"items": Q_ITEMS}
        )
        assert status == 501
        assert payload["error"]["type"] == "NotSupportedError"

    def test_empty_body_is_400(self, gateway):
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict", {}
        )
        assert status == 400

    def test_unknown_route_is_404(self, gateway):
        status, payload = _request(f"{gateway.url}/nope")
        assert status == 404
        assert payload["error"]["type"] == "NotFound"

    def test_quota_exceeded_is_429_with_error_body(self, gateway):
        # The fixture quota is 4 concurrent; sequential requests never
        # trip it, so assert the mapping directly through a wedged slot
        # is covered in test_registry — here we just confirm a tenant
        # rides through unharmed.
        status, _ = _request(
            f"{gateway.url}/v1/models/exp:predict",
            {"items": Q_ITEMS, "tenant": "t"},
        )
        assert status == 200


class TestRequestFraming:
    """A Content-Length that is not a non-negative decimal integer is a
    400 QueryError that closes the connection, answered at once."""

    @pytest.fixture
    def small_gateway(self, example):
        registry = ModelRegistry(counters=EngineCounters())
        registry.deploy_model("mem", BSTClassifier().fit(example))
        # read_timeout far above the client's 5 s socket timeout: a
        # gateway that waits for more body fails the test.
        server = GatewayServer(registry, max_body_bytes=64, read_timeout=60.0)
        with server:
            yield server
        registry.close()

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, small_gateway, length):
        raw = _raw_exchange(
            small_gateway,
            b"POST /v1/models/mem:predict HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {length}\r\n\r\n".encode()
            + b"x" * 500,
        )
        status, payload = _split_response(raw)
        assert status == 400
        assert payload["error"]["type"] == "QueryError"
        assert "Content-Length" in payload["error"]["message"]


class TestProtocolErrors:
    """Errors http.server raises itself come back as the JSON envelope."""

    def test_unsupported_method_is_json_501(self, gateway):
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=10)
        try:
            conn.request("PUT", "/v1/models", body=b"{}")
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 501
        assert response.getheader("Content-Type") == "application/json"
        assert payload["error"] == {
            "type": "HTTPError",
            "message": "Unsupported method ('PUT')",
            "status": 501,
        }

    def test_head_error_has_json_head_and_no_body(self, gateway):
        raw = _raw_exchange(gateway, b"HEAD /health HTTP/1.1\r\nHost: t\r\n\r\n")
        head, separator, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ")
        assert b"Content-Type: application/json" in head
        assert separator and body == b""

    def test_malformed_request_line_is_json_400(self, gateway):
        raw = _raw_exchange(gateway, b"GET /health extra HTTP/1.1\r\n\r\n")
        status, payload = _split_response(raw)
        assert status == 400
        assert payload["error"]["type"] == "HTTPError"
        assert payload["error"]["status"] == 400
        assert payload["error"]["message"].startswith("Bad request syntax")

    def test_versionless_request_gets_json_body(self, gateway):
        # HTTP/0.9 has no status line or headers: the body is all there is.
        raw = _raw_exchange(gateway, b"POST /v1/models\r\n")
        payload = json.loads(raw)
        assert payload["error"]["type"] == "HTTPError"
        assert payload["error"]["status"] == 400


class TestAnsweringVersion:
    """A deploy that lands after the answer must not relabel it: the
    response names the version of the slot that computed it."""

    def test_predict_names_the_answering_version(
        self, tmp_path, example, monkeypatch
    ):
        artifact = BSTClassifier().fit(example).save(tmp_path / "m.npz")
        registry = ModelRegistry(counters=EngineCounters())
        registry.deploy("exp", artifact)
        service = registry._slot("exp").service
        answer = service.classification_values

        def answer_then_redeploy(*args, **kwargs):
            values = answer(*args, **kwargs)
            registry.deploy("exp", artifact)
            return values

        monkeypatch.setattr(service, "classification_values", answer_then_redeploy)
        with GatewayServer(registry) as server:
            status, payload = _request(
                f"{server.url}/v1/models/exp:predict", {"items": Q_ITEMS}
            )
            current = registry.model_info("exp").version
        registry.close()
        assert status == 200
        assert current == 2
        assert payload["version"] == 1

    def test_explain_names_the_answering_version(self, example, monkeypatch):
        clf = BSTClassifier().fit(example)
        registry = ModelRegistry(counters=EngineCounters())
        registry.deploy_model("mem", clf)
        explain = clf.explain

        def explain_then_redeploy(*args, **kwargs):
            explanation = explain(*args, **kwargs)
            registry.deploy_model("mem", BSTClassifier().fit(example))
            return explanation

        monkeypatch.setattr(clf, "explain", explain_then_redeploy)
        with GatewayServer(registry) as server:
            status, payload = _request(
                f"{server.url}/v1/models/mem:explain", {"items": Q_ITEMS}
            )
            current = registry.model_info("mem").version
        registry.close()
        assert status == 200
        assert current == 2
        assert payload["version"] == 1


class _RecordingWriter:
    """A handler ``wfile`` proxy that logs each write before passing it
    on; the gateway's wfile is unbuffered, so one write is one sendall."""

    def __init__(self, inner, writes):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def write_spy(monkeypatch):
    """One record per accepted connection: its TCP_NODELAY option and
    every write the handler made to it."""
    connections = []
    setup = _GatewayHandler.setup

    def spying_setup(handler):
        setup(handler)
        record = {
            "nodelay": handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ),
            "writes": [],
        }
        handler.wfile = _RecordingWriter(handler.wfile, record["writes"])
        connections.append(record)

    monkeypatch.setattr(_GatewayHandler, "setup", spying_setup)
    return connections


class TestWritePath:
    """Each final response is one write on a TCP_NODELAY socket.  Head and
    body in two writes let Nagle hold the body until the client's delayed
    ACK of the head, stalling every keep-alive request by ~40 ms."""

    def test_each_response_is_one_write_on_a_nodelay_socket(
        self, gateway, write_spy
    ):
        predict = ("POST", "/v1/models/exp:predict", {"items": Q_ITEMS})
        requests = [predict] * 5 + [
            ("GET", "/health", None),
            ("GET", "/nope", None),
            ("POST", "/v1/models/exp:predict", {"items": "zero"}),
        ]
        statuses, bodies = [], []
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=10)
        try:
            for method, path, body in requests:
                conn.request(
                    method,
                    path,
                    body=json.dumps(body).encode() if body else None,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                statuses.append(response.status)
                bodies.append(response.read())
        finally:
            conn.close()
        assert statuses == [200] * 6 + [404, 400]
        assert len(write_spy) == 1  # every request reused one connection
        (record,) = write_spy
        assert record["nodelay"] != 0
        writes = record["writes"]
        assert len(writes) == len(requests)
        for write, body in zip(writes, bodies):
            head, separator, rest = write.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 ")
            assert separator
            assert rest == body
            json.loads(body)

    def test_expect_100_continue_gets_interim_before_body(
        self, gateway, write_spy
    ):
        body = json.dumps({"items": Q_ITEMS}).encode()
        with socket.create_connection(
            (gateway.host, gateway.port), timeout=5.0
        ) as conn:
            conn.sendall(
                b"POST /v1/models/exp:predict HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Expect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            # The body is held back until the interim answer arrives; a
            # gateway that buffers it times this recv out.
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = conn.recv(65536)
                assert chunk, "connection closed before 100 Continue"
                interim += chunk
            assert interim.startswith(b"HTTP/1.1 100 ")
            conn.sendall(body)
            response = http.client.HTTPResponse(conn)
            response.begin()
            payload = json.loads(response.read())
        assert response.status == 200
        assert payload["version"] == 1
        (record,) = write_spy
        assert len(record["writes"]) == 2  # interim + one final response

    def test_hung_up_client_ends_the_connection_quietly(
        self, gateway, monkeypatch, capfd
    ):
        class HungUpWriter(_RecordingWriter):
            def write(self, data):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        setup = _GatewayHandler.setup

        def hung_up_setup(handler):
            setup(handler)
            handler.wfile = HungUpWriter(handler.wfile, [])

        monkeypatch.setattr(_GatewayHandler, "setup", hung_up_setup)
        raw = _raw_exchange(
            gateway,
            b"GET /v1/models HTTP/1.1\r\nHost: test\r\n\r\n",
        )
        # Nothing was written, the connection closed, and the failed write
        # did not re-enter the error path (whose traceback lands on stderr).
        assert raw == b""
        assert "Traceback" not in capfd.readouterr().err


class TestLifecycle:
    def test_ephemeral_port_and_url(self, gateway):
        assert gateway.port > 0
        assert gateway.url.startswith("http://127.0.0.1:")

    def test_close_never_served_does_not_hang(self, example):
        registry = ModelRegistry(counters=EngineCounters())
        server = GatewayServer(registry)
        server.close()  # never started: must return, not hang
        registry.close()

    def test_close_releases_port(self, example):
        registry = ModelRegistry(counters=EngineCounters())
        server = GatewayServer(registry).start()
        port = server.port
        server.close()
        # The port is free again: a new server can bind it.
        rebound = GatewayServer(registry, port=port)
        rebound.close()
        registry.close()

    def test_health_degrades_after_registry_close(self, example):
        registry = ModelRegistry(counters=EngineCounters())
        registry.deploy_model("mem", BSTClassifier().fit(example))
        with GatewayServer(registry) as server:
            status, _ = _request(f"{server.url}/health")
            assert status == 200
            registry.close()
            status, payload = _request(f"{server.url}/health")
            assert status == 503
            assert payload["state"] == "closed"

    def test_swap_visible_through_gateway(self, tmp_path, example):
        artifact = BSTClassifier().fit(example).save(tmp_path / "m.npz")
        registry = ModelRegistry(counters=EngineCounters())
        registry.deploy("exp", artifact)
        with GatewayServer(registry) as server:
            _, before = _request(f"{server.url}/v1/models/exp")
            registry.deploy("exp", artifact)  # hot swap
            _, after = _request(f"{server.url}/v1/models/exp")
            status, payload = _request(
                f"{server.url}/v1/models/exp:predict", {"items": Q_ITEMS}
            )
        registry.close()
        assert before["version"] == 1
        assert after["version"] == 2
        assert status == 200
        assert payload["version"] == 2


ADMIN_TOKEN = "test-admin-token"


@pytest.fixture
def admin_gateway(tmp_path, example):
    """An admin-enabled gateway over one artifact-backed slot, yielding
    (server, artifact path, state-file path)."""
    artifact = BSTClassifier().fit(example).save(tmp_path / "model.npz")
    registry = ModelRegistry(ServeConfig(), counters=EngineCounters())
    registry.deploy("exp", artifact)
    state_file = tmp_path / "state.json"
    server = GatewayServer(
        registry, admin_token=ADMIN_TOKEN, state_file=state_file
    )
    with server:
        yield server, artifact, state_file
    registry.close()


def _bearer(token):
    return {"Authorization": f"Bearer {token}"}


class TestAdminPlane:
    def test_disabled_without_token_is_403(self, gateway):
        # The plain fixture configures no admin token: the whole admin
        # plane answers 403 regardless of what the client presents.
        status, payload = _request(
            f"{gateway.url}/admin/v1/counters",
            headers=_bearer("anything"),
        )
        assert status == 403
        assert payload["error"]["type"] == "AdminDisabled"

    def test_missing_or_wrong_token_is_401(self, admin_gateway):
        server, _, _ = admin_gateway
        status, payload = _request(f"{server.url}/admin/v1/counters")
        assert status == 401
        assert payload["error"]["type"] == "AdminAuthError"
        status, _ = _request(
            f"{server.url}/admin/v1/counters", headers=_bearer("wrong")
        )
        assert status == 401

    def test_both_auth_header_forms_accepted(self, admin_gateway):
        server, _, _ = admin_gateway
        status, payload = _request(
            f"{server.url}/admin/v1/counters",
            headers=_bearer(ADMIN_TOKEN),
        )
        assert status == 200
        # Only touched counters appear; the fixture's deploy is one.
        assert payload["counters"].get("registry_deploys") == 1.0
        status, via_header = _request(
            f"{server.url}/admin/v1/counters",
            headers={"X-Admin-Token": ADMIN_TOKEN},
        )
        assert status == 200
        assert set(via_header["counters"]) == set(payload["counters"])

    def test_counters_reflect_served_traffic(self, admin_gateway):
        server, _, _ = admin_gateway
        _, before = _request(
            f"{server.url}/admin/v1/counters", headers=_bearer(ADMIN_TOKEN)
        )
        status, _ = _request(
            f"{server.url}/v1/models/exp:predict", {"items": Q_ITEMS}
        )
        assert status == 200
        _, after = _request(
            f"{server.url}/admin/v1/counters", headers=_bearer(ADMIN_TOKEN)
        )
        delta = after["counters"]["registry_requests"] - before[
            "counters"
        ].get("registry_requests", 0)
        assert delta == 1

    def test_deploy_bumps_version_and_persists_state(self, admin_gateway):
        from repro.serving import read_state_file

        server, artifact, state_file = admin_gateway
        status, payload = _request(
            f"{server.url}/admin/v1/models/exp:deploy",
            {"artifact": str(artifact)},
            headers=_bearer(ADMIN_TOKEN),
        )
        assert status == 200
        assert payload["deployed"]["version"] == 2
        assert read_state_file(state_file) == {"exp": str(artifact)}
        status, model = _request(f"{server.url}/v1/models/exp")
        assert status == 200
        assert model["version"] == 2

    def test_deploy_requires_artifact_path(self, admin_gateway):
        server, _, _ = admin_gateway
        status, payload = _request(
            f"{server.url}/admin/v1/models/exp:deploy",
            {"artifact": 7},
            headers=_bearer(ADMIN_TOKEN),
        )
        assert status == 400
        assert payload["error"]["type"] == "QueryError"

    def test_corrupt_deploy_refused_old_model_serves(
        self, admin_gateway, tmp_path, example
    ):
        from repro.testing.faults import corrupt_artifact_member

        server, _, _ = admin_gateway
        bad = BSTClassifier().fit(example).save(tmp_path / "bad.npz")
        corrupt_artifact_member(bad, "arena_pair_len.npy")
        status, payload = _request(
            f"{server.url}/admin/v1/models/exp:deploy",
            {"artifact": str(bad)},
            headers=_bearer(ADMIN_TOKEN),
        )
        assert status >= 400
        assert "Artifact" in payload["error"]["type"]
        # The refused swap never touched the serving slot.
        status, model = _request(f"{server.url}/v1/models/exp")
        assert status == 200
        assert model["version"] == 1
        status, _ = _request(
            f"{server.url}/v1/models/exp:predict", {"items": Q_ITEMS}
        )
        assert status == 200

    def test_refresh_retrains_from_relational_json(
        self, admin_gateway, tmp_path, example
    ):
        from repro.datasets.io import save_relational_json

        server, _, _ = admin_gateway
        train = tmp_path / "train.json"
        save_relational_json(example, train)
        status, payload = _request(
            f"{server.url}/admin/v1/models/exp:refresh",
            {"train": str(train)},
            headers=_bearer(ADMIN_TOKEN),
        )
        assert status == 200, payload
        assert payload["deployed"]["version"] == 2

    def test_hot_swap_under_load_is_lossless(self, admin_gateway):
        import concurrent.futures

        server, artifact, _ = admin_gateway

        def hit(_):
            return _request(
                f"{server.url}/v1/models/exp:predict", {"items": Q_ITEMS}
            )

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(hit, i) for i in range(48)]
            status, _ = _request(
                f"{server.url}/admin/v1/models/exp:deploy",
                {"artifact": str(artifact)},
                headers=_bearer(ADMIN_TOKEN),
            )
            assert status == 200
            results = [f.result() for f in futures]
        # Parity with the in-process deploy guarantee: no request is
        # dropped or errored by a swap racing the data plane.
        assert all(code == 200 for code, _ in results)
        assert {payload["version"] for _, payload in results} <= {1, 2}
