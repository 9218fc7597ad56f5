"""Process-level supervision for the HTTP gateway.

Everything below the gateway heals *inside* one interpreter — worker
restarts, circuit breakers, poison bisection — but a crash of the gateway
process itself used to be fatal.  :class:`GatewaySupervisor` closes that
gap: it runs ``python -m repro.cli serve`` as a child process and keeps it
serving.

The supervision contract, in order:

* **Readiness file** — the child writes its base URL to ``--ready-file``
  the moment its socket is listening and removes the file when it drains.
  The supervisor deletes any stale file before each spawn, so readiness
  is always the *current* child's, never a leftover.
* **Liveness probe** — once ready, the supervisor polls ``GET /health``.
  Any HTTP response (even 503: overloaded is alive) counts as liveness;
  only connection-level failure counts against it.  After
  ``probe_failures`` consecutive misses the child is presumed wedged and
  SIGKILLed so the crash path can restart it.
* **Crash restart with deterministic backoff** — a child that exits
  nonzero (or is killed) is restarted after ``backoff_base * 2**n``
  seconds (capped), reloading the last-known-good artifact set: the child
  persists its deployments to ``--state-file`` after every deploy, and
  re-reads that file on boot, so admin-plane deploys survive the restart.
* **Restart budget** — after ``max_restarts`` failed recoveries the
  supervisor stops and escalates with
  :class:`~repro.errors.RestartBudgetExhausted`, which the CLI maps to
  exit code :data:`~repro.serving.surface.EXIT_SUPERVISOR`.  A clean
  child exit (code 0 — drain on SIGTERM/SIGINT) ends supervision without
  a restart.

The module also owns the tiny state-file format (``repro.serve-state/1``,
a JSON ``{name: artifact_path}`` map written atomically) shared between
the serve CLI and the supervisor, plus :func:`serve_command` /
:func:`gateway_env` helpers for assembling the child invocation.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..errors import RestartBudgetExhausted, SupervisorError
from ..evaluation.resilience import backoff_delay

__all__ = [
    "GatewaySupervisor",
    "STATE_SCHEMA",
    "gateway_env",
    "read_state_file",
    "serve_command",
    "write_state_file",
]

#: Version tag of the serve state file (the last-known-good artifact set).
STATE_SCHEMA = "repro.serve-state/1"

#: Ceiling on any single restart delay, seconds.
_BACKOFF_CAP = 5.0

PathLike = Union[str, Path]


def write_state_file(artifact_map: Mapping[str, str], path: PathLike) -> Path:
    """Atomically persist a ``name -> artifact path`` deployment set."""
    path = Path(path)
    payload = {
        "schema": STATE_SCHEMA,
        "models": {str(k): str(v) for k, v in sorted(artifact_map.items())},
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    os.replace(tmp, path)
    return path


def read_state_file(path: PathLike) -> Optional[Dict[str, str]]:
    """The persisted deployment set, or ``None`` when no file exists yet.

    A file that exists but cannot be trusted (unreadable, wrong schema,
    malformed map) raises :class:`~repro.errors.SupervisorError`: silently
    ignoring it would boot a gateway with the wrong models.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SupervisorError(
            f"state file {path} is unreadable: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("schema") != STATE_SCHEMA:
        raise SupervisorError(
            f"state file {path} has schema"
            f" {payload.get('schema') if isinstance(payload, dict) else None!r};"
            f" this supervisor reads {STATE_SCHEMA!r}"
        )
    models = payload.get("models")
    if not isinstance(models, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in models.items()
    ):
        raise SupervisorError(
            f"state file {path} 'models' must map names to artifact paths"
        )
    return {k: v for k, v in sorted(models.items())}


def serve_command(
    models: Mapping[str, PathLike],
    *,
    port: int,
    host: str = "127.0.0.1",
    ready_file: PathLike,
    state_file: Optional[PathLike] = None,
    admin_token: Optional[str] = None,
    extra_args: Sequence[str] = (),
) -> List[str]:
    """The ``python -m repro.cli serve`` argv for a supervised gateway.

    The port must be fixed (nonzero): a supervised restart has to come
    back on the same address its clients already hold.
    """
    if port == 0:
        raise SupervisorError(
            "a supervised gateway needs a fixed port: restarts must rebind"
            " the same address, not pick a fresh ephemeral one"
        )
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--host",
        host,
        "--port",
        str(port),
        "--ready-file",
        str(ready_file),
    ]
    for name, path in sorted(models.items()):
        command += ["--model", f"{name}={path}"]
    if state_file is not None:
        command += ["--state-file", str(state_file)]
    if admin_token is not None:
        command += ["--admin-token", admin_token]
    command += list(extra_args)
    return command


def gateway_env() -> Dict[str, str]:
    """A child environment in which ``python -m repro.cli`` resolves.

    Prepends the directory containing the installed/checked-out ``repro``
    package to ``PYTHONPATH`` so the child imports the same code as the
    parent, whether or not the package is pip-installed.
    """
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing else package_root
    )
    return env


class GatewaySupervisor:
    """Run a gateway child process and keep it serving.

    Args:
        command: the child argv (usually from :func:`serve_command`); it
            must include ``--ready-file`` pointing at ``ready_file``.
        ready_file: path the child writes its base URL to on listen.
        max_restarts: crash recoveries allowed before escalation.
        backoff_base: base of the deterministic exponential restart delay
            (``backoff_base * 2**n`` seconds for the n-th restart, at most
            5 s).
        ready_timeout: seconds a (re)spawned child gets to become ready.
        probe_interval: seconds between liveness probes (0 disables).
        probe_failures: consecutive connection-level probe failures that
            declare the child wedged (it is then SIGKILLed and restarted).
        env: child environment (default: :func:`gateway_env`).
        log: sink for supervision events (default: silent).

    ``start()`` boots the child and blocks until it is ready; monitoring
    then runs on a daemon thread.  ``run_forever()`` is the CLI path: it
    blocks until a clean child exit (returns its exit code) or raises
    :class:`~repro.errors.RestartBudgetExhausted`.  Usable as a context
    manager (``stop()`` on exit).
    """

    def __init__(
        self,
        command: Sequence[str],
        *,
        ready_file: PathLike,
        max_restarts: int = 3,
        backoff_base: float = 0.25,
        ready_timeout: float = 60.0,
        probe_interval: float = 1.0,
        probe_failures: int = 3,
        env: Optional[Mapping[str, str]] = None,
        log: Optional[Callable[[str], None]] = None,
    ):
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if backoff_base < 0:
            raise ValueError("backoff must be >= 0")
        if ready_timeout <= 0:
            raise ValueError("ready_timeout must be positive")
        if probe_interval < 0:
            raise ValueError("probe_interval must be >= 0 (0 disables)")
        if probe_failures < 1:
            raise ValueError("probe_failures must be >= 1")
        self._command = list(command)
        self._ready_file = Path(ready_file)
        self._max_restarts = max_restarts
        self._backoff_base = backoff_base
        self._ready_timeout = ready_timeout
        self._probe_interval = probe_interval
        self._probe_failures = probe_failures
        self._env = dict(env) if env is not None else gateway_env()
        self._log = log if log is not None else (lambda message: None)

        self._lock = threading.Lock()
        self._child: Optional[subprocess.Popen] = None
        self._thread: Optional[threading.Thread] = None
        self._closing = threading.Event()
        self._done = threading.Event()
        self._state = "idle"
        self._url: Optional[str] = None
        self._restarts = 0
        self._exit_code: Optional[int] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``idle`` | ``serving`` | ``restarting`` | ``stopped`` | ``failed``."""
        return self._state

    @property
    def url(self) -> Optional[str]:
        """The child gateway's base URL (from its readiness file)."""
        return self._url

    @property
    def restarts(self) -> int:
        """Crash recoveries performed so far."""
        return self._restarts

    @property
    def pid(self) -> Optional[int]:
        with self._lock:
            return self._child.pid if self._child is not None else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "GatewaySupervisor":
        """Spawn the child, wait for readiness, start the monitor thread."""
        if self._thread is not None:
            raise SupervisorError("supervisor already started")
        self._spawn()
        try:
            self._await_ready()
        except SupervisorError:
            self._terminate_child(signal.SIGKILL)
            raise
        self._state = "serving"
        self._thread = threading.Thread(
            target=self._monitor, name="gateway-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def run_forever(self) -> int:
        """Supervise until the child exits cleanly; the CLI entry point.

        Returns the child's clean exit code (0 after a graceful drain);
        raises :class:`~repro.errors.RestartBudgetExhausted` when the
        restart budget runs out.
        """
        if self._thread is None:
            self.start()
        # Event.wait with a timeout keeps the main thread interruptible
        # (a bare wait() swallows KeyboardInterrupt on some platforms).
        while not self._done.wait(timeout=0.2):
            pass
        return self.wait()

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until supervision finishes; return the final exit code.

        Raises :class:`~repro.errors.RestartBudgetExhausted` if supervision
        ended by exhausting the restart budget, and
        :class:`~repro.errors.SupervisorError` on a timeout.
        """
        if not self._done.wait(timeout=timeout):
            raise SupervisorError("supervisor still running after timeout")
        if self._state == "failed":
            raise RestartBudgetExhausted(self._restarts, self._max_restarts)
        return self._exit_code if self._exit_code is not None else 0

    def kill(self) -> None:
        """SIGKILL the child (chaos injection); the monitor restarts it."""
        self._terminate_child(signal.SIGKILL)

    def stop(self, timeout: float = 30.0) -> int:
        """Gracefully stop: SIGTERM the child (drain), end supervision.

        Idempotent; returns the child's exit code (0 for a clean drain).
        """
        self._closing.set()
        child = None
        with self._lock:
            child = self._child
        if child is not None and child.poll() is None:
            child.send_signal(signal.SIGTERM)
            try:
                child.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait(timeout=5.0)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        if self._state not in ("failed",):
            self._state = "stopped"
        if self._exit_code is None and child is not None:
            self._exit_code = child.returncode
        self._done.set()
        return self._exit_code if self._exit_code is not None else 0

    def __enter__(self) -> "GatewaySupervisor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        # A stale readiness file from a killed child must never satisfy
        # the next readiness wait.
        try:
            self._ready_file.unlink()
        except FileNotFoundError:
            pass
        with self._lock:
            self._child = subprocess.Popen(
                self._command,
                env=self._env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )

    def _terminate_child(self, signum: int) -> None:
        with self._lock:
            child = self._child
        if child is not None and child.poll() is None:
            try:
                child.send_signal(signum)
            except ProcessLookupError:  # already gone
                pass

    def _await_ready(self) -> None:
        deadline = time.monotonic() + self._ready_timeout
        while time.monotonic() < deadline:
            if self._closing.is_set():
                raise SupervisorError("supervisor closed while starting")
            if self._ready_file.exists():
                content = self._ready_file.read_text(encoding="utf-8").strip()
                if content:
                    self._url = content
                    return
            with self._lock:
                child = self._child
            if child is not None and child.poll() is not None:
                raise SupervisorError(
                    f"gateway exited with code {child.returncode} before"
                    " becoming ready"
                )
            time.sleep(0.02)
        # Listening never happened: make sure the hung child is dead so
        # the monitor's crash path (not a zombie) owns what happens next.
        self._terminate_child(signal.SIGKILL)
        raise SupervisorError(
            f"gateway not ready within {self._ready_timeout:.1f}s"
        )

    def _probe_alive(self) -> bool:
        if self._url is None:
            return True
        try:
            with urllib.request.urlopen(
                f"{self._url}/health",
                timeout=max(self._probe_interval, 1.0),
            ):
                return True
        except urllib.error.HTTPError:
            return True  # 503 is an answer: overloaded, but alive
        except (urllib.error.URLError, OSError):
            return False

    def _monitor(self) -> None:
        probe_misses = 0
        last_probe = time.monotonic()
        while not self._closing.is_set():
            with self._lock:
                child = self._child
            code = child.poll() if child is not None else None
            if code is not None:
                if self._closing.is_set() or code == 0:
                    self._finish("stopped", code)
                    return
                if not self._restart(code):
                    return
                probe_misses = 0
                last_probe = time.monotonic()
                continue
            now = time.monotonic()
            if (
                self._probe_interval
                and self._state == "serving"
                and now - last_probe >= self._probe_interval
            ):
                last_probe = now
                if self._probe_alive():
                    probe_misses = 0
                else:
                    probe_misses += 1
                    if probe_misses >= self._probe_failures:
                        self._log(
                            f"gateway unresponsive for {probe_misses}"
                            " consecutive health probes; killing it"
                        )
                        self._terminate_child(signal.SIGKILL)
                        probe_misses = 0
            self._closing.wait(0.05)

    def _restart(self, code: int) -> bool:
        """Crash recovery; returns False when the budget is exhausted."""
        if self._restarts >= self._max_restarts:
            self._log(
                f"gateway died (code {code}) with the restart budget of"
                f" {self._max_restarts} exhausted; escalating"
            )
            self._finish("failed", None)
            return False
        delay = backoff_delay(self._backoff_base, self._restarts, _BACKOFF_CAP)
        self._state = "restarting"
        self._restarts += 1
        self._log(
            f"gateway died (code {code}); restart"
            f" {self._restarts}/{self._max_restarts} in {delay:.2f}s"
        )
        if self._closing.wait(delay):
            return False
        self._spawn()
        try:
            self._await_ready()
        except SupervisorError as exc:
            # A failed boot is just the next crash: the monitor loop will
            # observe the (killed) child's exit and charge the budget again.
            self._log(f"restarted gateway did not become ready: {exc}")
            return True
        self._state = "serving"
        self._log(f"gateway restarted and ready at {self._url}")
        return True

    def _finish(self, state: str, code: Optional[int]) -> None:
        self._state = state
        self._exit_code = code
        self._done.set()
