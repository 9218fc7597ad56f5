"""A stdlib HTTP front end for the model registry.

:class:`GatewayServer` wraps a :class:`~repro.serving.registry.ModelRegistry`
in a :class:`http.server.ThreadingHTTPServer` — no third-party web stack,
one connection thread per client, every request funnelled through the
registry's admission (tenant quotas) and each slot's micro-batch queue.
Because the service coalesces concurrent callers into batched kernel calls,
the thread-per-connection model is exactly what the batcher wants: many
blocked submitter threads, one hot worker per slot.

Endpoints (all JSON)::

    GET  /health                       registry + per-model readiness
    GET  /v1/models                    deployed model metadata
    GET  /v1/models/{name}             one model's metadata
    POST /v1/models/{name}:predict     {"vector": [...]} or {"items": [...]}
    POST /v1/models/{name}:explain     same query + explanation knobs

and, when an admin token is configured, the admin control plane::

    GET  /admin/v1/counters            registry_*/service_* counter snapshot
    POST /admin/v1/models/{n}:deploy   {"artifact": path} hot swap
    POST /admin/v1/models/{n}:refresh  {"train": path} delta refresh + swap

Request bodies may carry ``tenant`` (quota accounting) and ``deadline_ms``
(per-request staleness bound); ``:explain`` adds ``min_satisfaction``,
``class_id`` and ``limit``.  Failures map onto the shared error surface of
:mod:`repro.serving.surface`: the body is :func:`~repro.serving.surface.
error_body`, the status :func:`~repro.serving.surface.http_status`, and a
``Retry-After`` header rides along when the breaker knows its cooldown.

The admin plane is opt-in and token-gated: without ``admin_token`` every
``/admin/v1/...`` request gets 403 (:class:`~repro.errors.AdminDisabled`);
with one, requests must present it via ``Authorization: Bearer <token>``
or ``X-Admin-Token`` (compared in constant time) or get 401
(:class:`~repro.errors.AdminAuthError`).  Paths are server-side: the
admin plane deploys artifacts the *gateway host* can read — it does not
upload bytes.  Successful deploys/refreshes rewrite the ``state_file``
(the last-known-good artifact set a supervisor restart reloads).

Two request-hardening guards protect the thread-per-connection model from
hostile or broken clients: a body larger than ``max_body_bytes`` is
refused with 413 (:class:`~repro.errors.RequestTooLarge`) before a byte of
it is read, and a client that stalls mid-body past ``read_timeout``
seconds gets 408 (:class:`~repro.errors.RequestTimeout`) instead of
pinning a worker thread forever.  A ``Content-Length`` that is not a
non-negative decimal integer is refused with 400 and the connection
dropped, since the request's framing is unknown.

Every final response — success, error envelope, admin plane, and the
protocol errors :mod:`http.server` raises itself (unsupported method,
malformed request line) — leaves through :meth:`_GatewayHandler._send_json`
as one socket write on a ``TCP_NODELAY`` connection.  Head and body in
two writes let Nagle's algorithm hold the body back until the client
ACKs the head, which a delayed-ACK client does only after ~40 ms, so
every back-to-back keep-alive request stalled (see ``docs/GATEWAY.md``,
"Response write path").
"""

from __future__ import annotations

import hmac
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import urlparse

import numpy as np

from ..errors import (
    AdminAuthError,
    AdminDisabled,
    QueryError,
    ReproError,
    RequestTimeout,
    RequestTooLarge,
)
from ..rules.boolexpr import pretty
from .registry import ModelInfo, ModelRegistry
from .surface import error_body, http_status

__all__ = ["GatewayServer"]

_JSON = "application/json"


def _model_info_json(info: ModelInfo) -> Dict[str, Any]:
    return {
        "name": info.name,
        "version": info.version,
        "fingerprint": info.fingerprint,
        "n_items": info.n_items,
        "n_classes": info.n_classes,
        "class_names": list(info.class_names),
        "artifact_path": info.artifact_path,
        "supports_explain": info.supports_explain,
    }


#: JSON types a ``vector`` entry may have.
_VECTOR_TYPES = frozenset((int, float, bool))


def _parse_query(body: Dict[str, Any]) -> Any:
    """The query payload: ``vector`` (dense) xor ``items`` (sparse ids)."""
    has_vector = "vector" in body
    has_items = "items" in body
    if has_vector == has_items:
        raise QueryError(
            "request body must carry exactly one of 'vector' (dense"
            " indicator list) or 'items' (expressed item ids)"
        )
    # Entries are checked by JSON type, not coerced: a string, a float item
    # id or a boolean item id is refused instead of silently becoming a
    # different query.  One C-level pass collects the entry types; only a
    # refused query walks its entries again, to name the first bad one.
    if has_vector:
        vector = body["vector"]
        if not isinstance(vector, list):
            raise QueryError("'vector' must be a JSON array of numbers")
        if not set(map(type, vector)) <= _VECTOR_TYPES:
            index, value = next(
                (i, v) for i, v in enumerate(vector)
                if type(v) not in _VECTOR_TYPES
            )
            raise QueryError(
                f"'vector' entry {index} is {value!r}; entries must be"
                " JSON numbers or booleans"
            )
        try:
            return np.asarray(vector, dtype=np.float64)
        except OverflowError as exc:  # an integer past the float range
            raise QueryError(f"'vector' is not numeric: {exc}") from exc
    items = body["items"]
    if not isinstance(items, list):
        raise QueryError("'items' must be a JSON array of item ids")
    if not set(map(type, items)) <= {int}:  # type(True) is bool, refused
        index, value = next(
            (i, v) for i, v in enumerate(items) if type(v) is not int
        )
        raise QueryError(
            f"'items' entry {index} is {value!r}; item ids must be JSON"
            " integers"
        )
    return frozenset(items)


def _optional_number(
    body: Dict[str, Any], key: str, kind: type = float
) -> Optional[Any]:
    value = body.get(key)
    if value is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"{key!r} must be a number: {exc}") from exc


class _GatewayHandler(BaseHTTPRequestHandler):
    """One request; the registry hangs off the server object."""

    server_version = "repro-gateway"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection.  Each response is one
    # write (see _send_json), so this sends no extra small packets; it
    # stops the tail segment of a multi-segment response waiting on an ACK.
    # The wfile stays unbuffered: a buffered one would hold the interim
    # "100 Continue" that handle_expect_100 writes.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def registry(self) -> ModelRegistry:
        return self.server.registry  # type: ignore[attr-defined]

    def setup(self) -> None:
        super().setup()
        # A stalled client may never send its body; the socket timeout
        # bounds every read so the connection thread cannot be pinned.
        # (Idle keep-alive timeouts are absorbed by http.server, which
        # closes the connection; mid-body timeouts surface as 408 below.)
        read_timeout = getattr(self.server, "read_timeout", None)
        if read_timeout is not None:
            self.connection.settimeout(read_timeout)

    def log_message(self, format: str, *args: Any) -> None:
        # Observability flows through the shared counters, not stderr.
        pass

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        """Send one final response: status line, headers and body in a
        single socket write."""
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", _JSON)
        self.send_header("Content-Length", str(len(data)))
        for name, value in extra_headers:
            self.send_header(name, value)
        if self.command == "HEAD":
            data = b""  # a HEAD answer is the head alone
        try:
            if self.request_version == "HTTP/0.9":
                # No status line or headers exist in HTTP/0.9.
                self.wfile.write(data)
            else:
                # Instead of end_headers() + a second write for the body,
                # which would let Nagle hold the body until the head is
                # ACKed, flush the blank line and body with the head.
                self._headers_buffer.append(b"\r\n" + data)
                self.flush_headers()
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up; there is nobody left to tell.
            self.close_connection = True

    def send_error(
        self,
        code: int,
        message: Optional[str] = None,
        explain: Optional[str] = None,
    ) -> None:
        """Protocol errors raised by http.server itself (unsupported
        method, malformed request line, oversized headers) as the JSON
        envelope instead of the stdlib's HTML page."""
        status = int(code)
        if message is None:
            message = self.responses.get(status, ("",))[0]
        self._send_json(
            status,
            {"error": {"type": "HTTPError", "message": message, "status": status}},
            (("Connection", "close"),),
        )

    def _send_error_json(self, error: BaseException) -> None:
        headers: Tuple[Tuple[str, str], ...] = ()
        retry_after = getattr(error, "retry_after", None)
        if retry_after is not None:
            headers = (("Retry-After", f"{float(retry_after):.3f}"),)
        self._send_json(http_status(error), error_body(error), headers)

    def _read_body(self) -> Dict[str, Any]:
        length = self._content_length()
        max_body = getattr(self.server, "max_body_bytes", None)
        if max_body is not None and length > max_body:
            # Refused before reading: the oversized payload never gets
            # buffered, and the connection is dropped so the client cannot
            # stream the rest into a half-read socket.
            self.close_connection = True
            raise RequestTooLarge(length, max_body)
        try:
            raw = self.rfile.read(length) if length else b""
        except socket.timeout:
            self.close_connection = True
            raise RequestTimeout(
                f"client sent {length}-byte Content-Length but stalled"
                " mid-body past the gateway read timeout"
            ) from None
        if not raw:
            raise QueryError("request body must be a JSON object")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise QueryError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise QueryError("request body must be a JSON object")
        return body

    def _content_length(self) -> int:
        """The request's ``Content-Length`` (0 when absent), parsed
        strictly: ``int()`` would accept ``-1`` (read to EOF, past the
        body ceiling) and raise ValueError (a 500) on garbage."""
        raw = self.headers.get("Content-Length")
        if raw is None:
            return 0
        text = raw.strip()
        if not (text.isascii() and text.isdigit()):
            # The body's extent is unknown, so nothing after the headers
            # on this connection can be framed.
            self.close_connection = True
            raise QueryError(
                f"Content-Length {raw!r} is not a non-negative decimal integer"
            )
        return int(text)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        try:
            path = urlparse(self.path).path
            if path == "/health":
                return self._get_health()
            if path == "/v1/models":
                return self._get_models()
            if path.startswith("/v1/models/"):
                return self._get_model(path[len("/v1/models/") :])
            if path == "/admin/v1/counters":
                return self._get_admin_counters()
            self._send_json(404, {"error": {
                "type": "NotFound",
                "message": f"no route for GET {path}",
                "status": 404,
            }})
        except Exception as exc:  # pragma: no cover - defensive envelope
            self._send_error_json(exc)

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        try:
            path = urlparse(self.path).path
            if path.startswith("/v1/models/") and ":" in path:
                name, _, verb = path[len("/v1/models/") :].rpartition(":")
                if verb == "predict":
                    return self._post_predict(name)
                if verb == "explain":
                    return self._post_explain(name)
            if path.startswith("/admin/v1/models/") and ":" in path:
                name, _, verb = path[len("/admin/v1/models/") :].rpartition(":")
                if verb == "deploy":
                    return self._post_admin_deploy(name)
                if verb == "refresh":
                    return self._post_admin_refresh(name)
            self._send_json(404, {"error": {
                "type": "NotFound",
                "message": f"no route for POST {path}",
                "status": 404,
            }})
        except Exception as exc:
            self._send_error_json(exc)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _get_health(self) -> None:
        health = self.registry.health()
        payload = {
            "state": health.state,
            "ready": health.ready,
            "tenants_in_flight": health.tenants_in_flight,
            "breakers_open": health.breakers_open,
            "breaker_retry_after": health.breaker_retry_after,
            "models": {
                name: {
                    "state": h.state,
                    "ready": h.ready,
                    "breaker": h.breaker,
                    "breaker_retry_after": h.breaker_retry_after,
                    "consecutive_failures": h.consecutive_failures,
                    "queue_depth": h.queue_depth,
                    "worker_alive": h.worker_alive,
                    "worker_restarts": h.worker_restarts,
                    "shedding": h.shedding,
                    "answered": h.answered,
                }
                for name, h in health.models.items()
            },
        }
        self._send_json(200 if health.ready else 503, payload)

    def _get_models(self) -> None:
        self._send_json(
            200,
            {"models": [_model_info_json(m) for m in self.registry.models()]},
        )

    def _get_model(self, name: str) -> None:
        try:
            info = self.registry.model_info(name)
        except ReproError as exc:
            return self._send_error_json(exc)
        self._send_json(200, _model_info_json(info))

    def _post_predict(self, name: str) -> None:
        try:
            body = self._read_body()
            query = _parse_query(body)
            tenant = body.get("tenant")
            deadline_ms = _optional_number(body, "deadline_ms")
            # The answering slot's info, not a fresh model_info() lookup:
            # a deploy landing after the answer must not relabel it.
            values, info = self.registry._classify(
                name, query, tenant=tenant, deadline_ms=deadline_ms
            )
        except ReproError as exc:
            return self._send_error_json(exc)
        label = int(np.argmax(values))
        self._send_json(
            200,
            {
                "model": info.name,
                "version": info.version,
                "prediction": label,
                "class_name": (
                    info.class_names[label]
                    if label < len(info.class_names)
                    else str(label)
                ),
                "values": [float(v) for v in values],
            },
        )

    def _post_explain(self, name: str) -> None:
        try:
            body = self._read_body()
            query = _parse_query(body)
            tenant = body.get("tenant")
            kwargs: Dict[str, Any] = {}
            min_satisfaction = _optional_number(body, "min_satisfaction")
            if min_satisfaction is not None:
                kwargs["min_satisfaction"] = min_satisfaction
            class_id = _optional_number(body, "class_id", int)
            if class_id is not None:
                kwargs["class_id"] = class_id
            limit = _optional_number(body, "limit", int)
            if limit is not None:
                kwargs["limit"] = limit
            explanation, info, item_names = self.registry._explain(
                name, query, tenant=tenant, **kwargs
            )
        except ReproError as exc:
            return self._send_error_json(exc)
        names = list(item_names) if item_names else None
        self._send_json(
            200,
            {
                "model": info.name,
                "version": info.version,
                "prediction": explanation.predicted,
                "class_name": (
                    info.class_names[explanation.predicted]
                    if explanation.predicted < len(info.class_names)
                    else str(explanation.predicted)
                ),
                "class_values": list(explanation.class_values),
                "evidence": [
                    {
                        "gene": e.gene,
                        "gene_name": (
                            names[e.gene]
                            if names and e.gene < len(names)
                            else str(e.gene)
                        ),
                        "sample": e.sample,
                        "satisfaction": e.satisfaction,
                        "rule": pretty(e.rule, names),
                    }
                    for e in explanation.evidence
                ],
            },
        )


    # ------------------------------------------------------------------
    # Admin control plane
    # ------------------------------------------------------------------
    def _check_admin(self) -> None:
        """Gate an ``/admin/v1/...`` route on the configured token."""
        token = getattr(self.server, "admin_token", None)
        if not token:
            raise AdminDisabled()
        supplied = self.headers.get("X-Admin-Token")
        if supplied is None:
            authorization = self.headers.get("Authorization", "")
            if authorization.startswith("Bearer "):
                supplied = authorization[len("Bearer ") :]
        # Constant-time comparison: the token is a shared secret, and a
        # timing oracle on == would leak it byte by byte.
        if supplied is None or not hmac.compare_digest(supplied, token):
            raise AdminAuthError()

    def _write_state(self) -> None:
        """Persist the last-known-good artifact set after an admin swap."""
        state_file = getattr(self.server, "state_file", None)
        if state_file is None:
            return
        from .supervisor import write_state_file

        write_state_file(self.registry.artifact_map(), state_file)

    def _get_admin_counters(self) -> None:
        try:
            self._check_admin()
        except ReproError as exc:
            return self._send_error_json(exc)
        self._send_json(200, {"counters": self.registry.counters_snapshot()})

    def _post_admin_deploy(self, name: str) -> None:
        try:
            self._check_admin()
            body = self._read_body()
            artifact = body.get("artifact")
            if not isinstance(artifact, str) or not artifact:
                raise QueryError(
                    "'artifact' must be a server-side .npz artifact path"
                )
            expected = body.get("expected_fingerprint")
            if expected is not None and not isinstance(expected, str):
                raise QueryError("'expected_fingerprint' must be a string")
            info = self.registry.deploy(
                name, artifact, expected_fingerprint=expected
            )
            self._write_state()
        except ReproError as exc:
            return self._send_error_json(exc)
        self._send_json(200, {"deployed": _model_info_json(info)})

    def _post_admin_refresh(self, name: str) -> None:
        from ..datasets.io import load_relational_json

        try:
            self._check_admin()
            body = self._read_body()
            train = body.get("train")
            if not isinstance(train, str) or not train:
                raise QueryError(
                    "'train' must be a server-side relational JSON path"
                )
            out = body.get("out")
            if out is not None and not isinstance(out, str):
                raise QueryError("'out' must be a string path")
            dataset = load_relational_json(train)
            info = self.registry.refresh(name, dataset, out_path=out)
            self._write_state()
        except ReproError as exc:
            return self._send_error_json(exc)
        self._send_json(200, {"deployed": _model_info_json(info)})


class _GatewayHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with a listen backlog sized for bursty load.

    socketserver's default backlog of 5 resets connections the moment a
    few dozen clients connect in the same instant — an open-loop replay
    at even modest QPS trips it constantly.  128 matches the common
    ``somaxconn`` floor; beyond that the admission queue (shed/quota)
    is the intended backpressure, not the kernel's SYN queue.
    """

    request_queue_size = 128
    daemon_threads = True


class GatewayServer:
    """The multi-tenant HTTP gateway over a model registry.

    Args:
        registry: the :class:`~repro.serving.registry.ModelRegistry` to
            front (the caller keeps ownership — closing the gateway does
            not close the registry).
        host: bind address (default loopback).
        port: bind port (default 0 = ephemeral; read :attr:`port` after
            construction).
        max_body_bytes: request bodies larger than this are refused with
            413 before being read (``None`` disables the ceiling).
        read_timeout: seconds a client may stall while the gateway reads
            its request before it gets 408 and the connection is dropped
            (``None`` disables the timeout).
        admin_token: shared secret enabling the ``/admin/v1/...`` control
            plane (``None`` = admin plane disabled, data plane only).
        state_file: path the gateway rewrites with its artifact-backed
            deployment map after every successful admin deploy/refresh —
            the last-known-good set a supervisor restart reloads (``None``
            disables persistence).

    ``start()`` serves on a daemon thread (tests, embedding);
    ``serve_forever()`` serves on the calling thread (the CLI).  Usable as
    a context manager.
    """

    #: Default request-body ceiling: far above any legitimate query (a
    #: dense 100k-gene vector is ~600 KiB of JSON) yet small enough that a
    #: hostile client cannot balloon a connection thread's memory.
    DEFAULT_MAX_BODY_BYTES = 4 * 1024 * 1024
    #: Default per-read socket timeout for request bodies, seconds.
    DEFAULT_READ_TIMEOUT = 10.0

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: Optional[int] = DEFAULT_MAX_BODY_BYTES,
        read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
        admin_token: Optional[str] = None,
        state_file: Optional[Union[str, Path]] = None,
    ):
        if max_body_bytes is not None and max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if read_timeout is not None and read_timeout <= 0:
            raise ValueError("read_timeout must be positive")
        if admin_token is not None and not admin_token:
            raise ValueError("admin_token must be a non-empty string or None")
        self._registry = registry
        self._server = _GatewayHTTPServer((host, port), _GatewayHandler)
        self._server.registry = registry  # type: ignore[attr-defined]
        self._server.max_body_bytes = max_body_bytes  # type: ignore[attr-defined]
        self._server.read_timeout = read_timeout  # type: ignore[attr-defined]
        self._server.admin_token = admin_token  # type: ignore[attr-defined]
        self._server.state_file = (  # type: ignore[attr-defined]
            Path(state_file) if state_file is not None else None
        )
        self._thread: Optional[threading.Thread] = None
        self._served = False  # BaseServer.shutdown hangs unless it ran

    @property
    def registry(self) -> ModelRegistry:
        return self._registry

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "GatewayServer":
        """Serve on a background daemon thread; returns immediately."""
        if self._thread is None:
            self._served = True
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="gateway-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (the CLI path)."""
        self._served = True
        self._server.serve_forever()

    def close(self) -> None:
        """Stop accepting connections and release the socket.  Idempotent.

        The registry is left serving — gateways are disposable, models are
        not."""
        if self._served:
            # shutdown() blocks on serve_forever's exit handshake and would
            # hang forever on a server that never served.
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
