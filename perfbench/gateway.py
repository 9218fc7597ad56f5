"""Drive a real ``python -m repro.cli serve`` child over keep-alive HTTP."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple
from urllib.parse import urlsplit

TOKEN = "perfbench-admin-token"
MODEL = "model"
READY_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not drive the program (not a measured failure)."""


class Gateway:
    """A spawned gateway child; :meth:`stop` drains it and waits."""

    def __init__(self, proc: subprocess.Popen, url: str, ready_s: float):
        self.proc = proc
        self.url = url
        self.ready_s = ready_s

    @property
    def pid(self) -> int:
        return self.proc.pid

    def vmhwm_mib(self) -> float:
        """Peak resident set of the child (``VmHWM``), in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


def spawn_gateway(root: Path, work: Path, artifact: Path, tag: str) -> Gateway:
    """Start ``repro.cli serve`` on an ephemeral port with the admin plane
    on; return once its ready file names the bound URL."""
    ready = work / f"ready-{tag}"
    log = work / f"gateway-{tag}.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--model", f"{MODEL}={artifact}",
        "--port", "0",
        "--ready-file", str(ready),
        "--admin-token", TOKEN,
    ]
    with open(log, "wb") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=str(root), env=env, stdout=sink, stderr=sink
        )
    gateway = None
    try:
        while not ready.exists():
            if proc.poll() is not None:
                raise BenchError(
                    f"gateway exited with {proc.returncode}:"
                    f" {log.read_text(errors='replace')[-2000:]}"
                )
            if time.perf_counter() - started > READY_TIMEOUT_S:
                raise BenchError("gateway never became ready")
            time.sleep(0.002)
        ready_s = time.perf_counter() - started
        gateway = Gateway(proc, ready.read_text().strip(), ready_s)
        return gateway
    finally:
        if gateway is None:
            proc.kill()
            proc.wait(timeout=30)


class Client:
    """One keep-alive HTTP/1.1 connection to the gateway."""

    def __init__(self, url: str, timeout: float = 30.0):
        parts = urlsplit(url)
        self._host = parts.hostname
        self._port = parts.port
        self._timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(
        self, method: str, path: str, body: bytes = b"", admin: bool = False,
    ) -> Tuple[int, Dict[str, Any], int, int]:
        """``(status, json body, request body bytes, response body bytes)``.
        A transport error closes the connection and re-raises."""
        headers = {"Content-Type": "application/json"}
        if admin:
            headers["X-Admin-Token"] = TOKEN
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        try:
            self._conn.request(method, path, body=body or None, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return response.status, json.loads(data or b"{}"), len(body), len(data)

    def predict(self, body: bytes) -> Tuple[int, Dict[str, Any], int, int]:
        """POST a body made by :func:`predict_body`."""
        return self.request("POST", f"/v1/models/{MODEL}:predict", body)

    def deploy(self, artifact: Path) -> Tuple[int, Dict[str, Any], int, int]:
        body = json.dumps({"artifact": str(artifact)}).encode("utf-8")
        return self.request(
            "POST", f"/admin/v1/models/{MODEL}:deploy", body, admin=True
        )


def predict_body(items: Sequence[int]) -> bytes:
    """A predict request body, encoded once before the timed region so the
    generator's own JSON work stays out of the measured latency."""
    return json.dumps({"items": list(items)}).encode("utf-8")


def fetch_counters(url: str) -> Dict[str, float]:
    """The gateway's ``registry_*``/``service_*`` counters, on a fresh
    connection (an idle keep-alive one may have been timed out)."""
    client = Client(url)
    try:
        status, body, _, _ = client.request(
            "GET", "/admin/v1/counters", admin=True
        )
    finally:
        client.close()
    if status != 200:
        raise BenchError(f"counters answered {status}: {body}")
    return body["counters"]


def answer_matches(body: Dict[str, Any], expected: Sequence[float]) -> bool:
    """The gateway's ``values`` equal the in-process evaluator's exactly
    (JSON floats round-trip) and ``prediction`` is their first argmax."""
    values = body.get("values")
    if values is None or len(values) != len(expected):
        return False
    if any(float(a) != float(b) for a, b in zip(values, expected)):
        return False
    best = max(range(len(expected)), key=lambda i: (expected[i], -i))
    return body.get("prediction") == best

