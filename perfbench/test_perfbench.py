"""The benchmark's own tests: its statistics, its arrival schedule, its
latency accounting and that a run on another seed completes cleanly.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib import (  # noqa: E402
    MIN_BEYOND,
    Report,
    Schedule,
    Sent,
    TailRefused,
    Tracer,
    counter_diff,
    median,
    poisson_schedule,
    service_metrics,
    tail,
    unit_of,
)

ROOT = HERE.parent


# ----------------------------------------------------------------------
# Tail rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [22, 23, 30, 100, 752, 1000])
def test_tail_has_ten_samples_beyond_and_sits_above_the_median(n):
    samples = [float(i) for i in range(n)]
    t = tail(samples)
    assert t.beyond >= MIN_BEYOND
    assert sum(1 for s in samples if s > t.value) == t.beyond
    assert t.value > median(samples)
    # The next integer percentile up would leave fewer than ten beyond.
    assert (100 * (n - MIN_BEYOND)) // n == t.percentile


def test_tail_picks_the_highest_percentile():
    assert tail(list(range(1000))).percentile == 99
    assert tail(list(range(22))).percentile == 54
    assert tail(list(range(22))).value == 11.0


@pytest.mark.parametrize("n", [0, 1, 2, 10, 11, 20, 21])
def test_tail_refused_without_enough_samples(n):
    # n=21 is the case where the tail would be the median sample itself.
    with pytest.raises(TailRefused):
        tail([float(i) for i in range(n)])


def test_single_sample_tail_is_refused_by_the_report():
    report = Report("w")
    with pytest.raises(TailRefused):
        report.put_tail("op_tail_ms", [4.342])


# ----------------------------------------------------------------------
# Open-loop schedule
# ----------------------------------------------------------------------
def test_schedule_is_byte_identical_for_a_seed():
    a = poisson_schedule(7, 15.0, 50.0, 250, 5.0).to_bytes()
    b = poisson_schedule(7, 15.0, 50.0, 250, 5.0).to_bytes()
    assert a == b
    assert poisson_schedule(8, 15.0, 50.0, 250, 5.0).to_bytes() != a


def test_schedule_shape():
    s = poisson_schedule(3, 15.0, 50.0, 250, 5.0)
    assert list(s.due) == sorted(s.due)
    assert 0.0 < s.due[0] and s.due[-1] < 50.0
    assert 600 < len(s.due) < 900  # 750 expected at 15/s
    assert all(0 <= q < 250 for q in s.query)
    assert s.deploys == tuple(2.5 + 5.0 * k for k in range(10))


# ----------------------------------------------------------------------
# Latency from the due time
# ----------------------------------------------------------------------
def test_latency_counts_from_due_not_from_send():
    on_time = Sent(due=1.0, claimed=0.9, sent=1.001, done=1.011, ok=True)
    assert on_time.latency_s == pytest.approx(0.011)
    assert on_time.generator_late_s == pytest.approx(0.001)
    # Claimed after its due time: it waited for a busy connection; that
    # wait is latency, and not the generator's lateness.
    queued = Sent(due=1.0, claimed=1.2, sent=1.2, done=1.21, ok=True)
    assert queued.latency_s == pytest.approx(0.21)
    assert queued.generator_late_s is None


class _SlowHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    delay = 0.15

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.delay)
        body = json.dumps({"prediction": 0, "values": [1.0, 0.5]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    import serve

    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        n = serve.SENDERS + 1
        schedule = Schedule(
            due=tuple(0.01 * i for i in range(n)), query=(0,) * n, deploys=()
        )
        report = Report("serve")
        sent, deploys = serve.open_loop(
            url, schedule, [b'{"items": [1, 2]}'], [[1.0, 0.5]], [],
            Tracer(False), report,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert report.correct and report.attempted == n and report.failed == 0
    assert len(sent) == n and deploys == []
    last = max(sent, key=lambda s: s.due)
    # Every sender was busy with a 150 ms request when the last one fell
    # due, so it waited about one service time before it was even sent.
    assert last.generator_late_s is None
    assert last.latency_s >= 2 * _SlowHandler.delay - 0.03


# ----------------------------------------------------------------------
# Counter diffs
# ----------------------------------------------------------------------
def test_counter_diff_treats_missing_keys_as_zero():
    diff = counter_diff({"a": 1, "b": 2}, {"a": 4.5, "c": 5})
    assert diff == {"a": 3.5, "b": -2.0, "c": 5.0}


def test_service_metrics_from_a_diff():
    before = {"service_batches": 10, "service_batched_queries": 12,
              "service_compute_seconds": 1.0, "service_latency_seconds": 2.0,
              "registry_swaps": 3}
    after = {"service_batches": 14, "service_batched_queries": 18,
             "service_compute_seconds": 1.02, "service_latency_seconds": 2.06,
             "registry_swaps": 5, "service_shed": 1}
    m = service_metrics(counter_diff(before, after))
    assert m["serving.service.mean_batch"] == pytest.approx(1.5)
    assert m["serving.service.compute_ms"] == pytest.approx(5.0)
    assert m["serving.service.queue_wait_ms"] == pytest.approx(10.0 - 5.0)
    assert m["serving.service.shed"] == 1.0
    assert m["serving.service.deadline_exceeded"] == 0.0
    assert m["serving.registry.swaps"] == 2.0
    assert service_metrics({})["serving.service.mean_batch"] == 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    tracer = Tracer(True)
    parent = tracer.record("op", 0.0, 10.0)
    tracer.record("a", 1.0, 4.0, parent)
    tracer.record("b", 3.0, 6.0, parent)  # overlaps a: union is 1..6
    assert tracer.self_times()[parent] == pytest.approx(5.0)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("x"):
        tracer.record("y", 0.0, 1.0)
    assert tracer.spans == []


def test_metric_names_carry_their_declared_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert unit_of(metric["name"]) == metric["unit"], metric["name"]


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------
def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("seed", ["1", "2"])
def test_serve_runs_cleanly_on_a_seed(seed):
    proc = _run(ROOT, "--workload", "serve", "--seed", seed,
                "--seconds", "5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "fit", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
