"""The replay harness: deterministic traces, exactly-once accounting,
chaos mixes, counter reconciliation, and the hardened gateway surface.

The load-bearing test is :class:`TestChaosReplay`: a seeded fault-heavy
trace (poison queries, a deadline storm, a corrupt hot-swap attempt, a
breaker-tripping error window, tenant quota pressure) where the client's
per-category accounting must sum *exactly* to the number of submitted
requests — zero lost, zero duplicated — and every client-visible refusal
must match the service's own counters one for one.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.classifier import BSTClassifier
from repro.datasets.dataset import running_example
from repro.errors import TraceError
from repro.evaluation.latency import LatencyHistogram
from repro.evaluation.timing import EngineCounters
from repro.replay import (
    CATEGORIES,
    ChaosMix,
    HttpTarget,
    ReplayDriver,
    ReplayTrace,
    Slo,
    TraceConfig,
    config_from_header,
    dumps_trace,
    generate_trace,
    load_trace,
    prepare_inprocess_target,
    reconcile,
    search_capacity,
    write_trace,
)
from repro.serving import (
    GatewayServer,
    ModelRegistry,
    ServeConfig,
)
from repro.testing.faults import FlakyBatchModel, ServiceFault


@pytest.fixture(scope="module")
def classifier():
    return BSTClassifier().fit(running_example())


def _replay(trace, classifier, tmp_path, *, tenant_quota=None, config=None,
            speed=0.0, max_workers=32):
    target = prepare_inprocess_target(
        trace, classifier, tmp_path, tenant_quota=tenant_quota, config=config
    )
    try:
        return ReplayDriver(target, max_workers=max_workers).run(
            trace, speed=speed
        )
    finally:
        target.registry.close()


# ----------------------------------------------------------------------
# Trace generation and serialization
# ----------------------------------------------------------------------


class TestTraceGeneration:
    def test_byte_identical_across_runs(self):
        config = TraceConfig(seed=7, requests=250, rate_qps=500, n_items=6)
        assert dumps_trace(generate_trace(config)) == dumps_trace(
            generate_trace(config)
        )

    def test_different_seeds_differ(self):
        a = TraceConfig(seed=1, requests=50, n_items=6)
        b = TraceConfig(seed=2, requests=50, n_items=6)
        assert dumps_trace(generate_trace(a)) != dumps_trace(
            generate_trace(b)
        )

    @pytest.mark.parametrize(
        "arrival", ["uniform", "poisson", "diurnal", "burst"]
    )
    def test_arrivals_sorted_and_deterministic(self, arrival):
        config = TraceConfig(
            seed=3, requests=120, rate_qps=800, arrival=arrival, n_items=6
        )
        trace = generate_trace(config)
        times = [e["at_ms"] for e in trace.events]
        assert times == sorted(times)
        assert len(trace.requests) == 120
        assert dumps_trace(trace) == dumps_trace(generate_trace(config))

    def test_poison_marker_is_unambiguous(self):
        config = TraceConfig(
            seed=5,
            requests=300,
            n_items=6,
            chaos=ChaosMix(poison_fraction=0.2),
        )
        trace = generate_trace(config)
        poisoned = [e for e in trace.requests if e["poison"]]
        assert poisoned, "a 20% poison fraction over 300 requests fired"
        for event in trace.requests:
            if event["poison"]:
                assert event["items"] == list(range(6))
            else:
                # Normal queries always leave a gene unexpressed, so the
                # all-genes poison predicate can never match them.
                assert len(event["items"]) < 6

    def test_deadline_storm_rewrites_window(self):
        storm = (100.0, 200.0, 0.0)
        config = TraceConfig(
            seed=9,
            requests=400,
            rate_qps=2000,
            n_items=6,
            chaos=ChaosMix(deadline_storms=(storm,)),
        )
        trace = generate_trace(config)
        inside = [
            e for e in trace.requests if 100.0 <= e["at_ms"] < 200.0
        ]
        outside = [
            e for e in trace.requests
            if not (100.0 <= e["at_ms"] < 200.0)
        ]
        assert inside, "the storm window saw traffic"
        assert all(e["deadline_ms"] == 0.0 for e in inside)
        assert all("deadline_ms" not in e for e in outside)

    def test_tenant_and_verb_mixes(self):
        config = TraceConfig(
            seed=4,
            requests=400,
            n_items=6,
            tenants=("a", "b"),
            explain_fraction=0.5,
        )
        trace = generate_trace(config)
        tenants = {e["tenant"] for e in trace.requests}
        verbs = {e["verb"] for e in trace.requests}
        assert tenants == {"a", "b"}
        assert verbs == {"predict", "explain"}

    def test_kill_controls_and_v2_schema(self):
        from repro.replay import TRACE_SCHEMA

        config = TraceConfig(
            seed=5,
            requests=40,
            rate_qps=400,
            n_items=6,
            chaos=ChaosMix(kills_at_ms=(50.0,)),
        )
        trace = generate_trace(config)
        assert trace.header["schema"] == TRACE_SCHEMA == "repro.replay/2"
        kills = [
            e
            for e in trace.events
            if e["kind"] == "control" and e["action"] == "kill"
        ]
        assert [k["at_ms"] for k in kills] == [50.0]
        rebuilt = config_from_header(trace.header)
        assert rebuilt.chaos.kills_at_ms == (50.0,)
        assert dumps_trace(generate_trace(rebuilt)) == dumps_trace(trace)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(requests=0)
        with pytest.raises(ValueError):
            TraceConfig(arrival="carrier-pigeon")
        with pytest.raises(ValueError):
            TraceConfig(n_items=1)
        with pytest.raises(ValueError):
            TraceConfig(n_items=6, items_per_query=6)
        with pytest.raises(ValueError):
            ChaosMix(poison_fraction=1.5)
        with pytest.raises(ValueError):
            ChaosMix(deadline_storms=((5.0, 5.0, 1.0),))
        with pytest.raises(ValueError):
            ChaosMix(error_windows=((0, 0),))
        with pytest.raises(ValueError):
            ChaosMix(kills_at_ms=(-1.0,))


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        config = TraceConfig(
            seed=7,
            requests=80,
            n_items=6,
            tenants=("a",),
            chaos=ChaosMix(poison_fraction=0.1, swaps_at_ms=(20.0,)),
        )
        trace = generate_trace(config)
        path = write_trace(trace, tmp_path / "trace.jsonl")
        loaded = load_trace(path)
        assert loaded.header == trace.header
        assert loaded.events == trace.events
        assert dumps_trace(loaded) == dumps_trace(trace)

    def test_config_from_header_round_trip(self):
        config = TraceConfig(
            seed=13,
            requests=40,
            rate_qps=123.0,
            arrival="burst",
            n_items=6,
            tenants=("x", "y"),
            explain_fraction=0.25,
            deadline_ms=50.0,
            chaos=ChaosMix(poison_fraction=0.05),
        )
        rebuilt = config_from_header(generate_trace(config).header)
        assert rebuilt.seed == 13
        assert rebuilt.arrival == "burst"
        assert rebuilt.tenants == ("x", "y")
        assert rebuilt.chaos.poison_fraction == 0.05
        assert dumps_trace(generate_trace(rebuilt)) == dumps_trace(
            generate_trace(config)
        )

    def test_malformed_traces_raise(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError):
            load_trace(path)
        path.write_text('{"kind":"request","id":"r0"}\n')
        with pytest.raises(TraceError, match="header"):
            load_trace(path)
        header = '{"kind":"header","schema":"repro.replay/999"}\n'
        path.write_text(header)
        with pytest.raises(TraceError, match="schema"):
            load_trace(path)
        header = '{"kind":"header","schema":"repro.replay/1"}\n'
        event = '{"kind":"request","id":"r0","at_ms":0,"model":"m","verb":"predict","items":[]}\n'
        path.write_text(header + event + event)
        with pytest.raises(TraceError, match="repeats"):
            load_trace(path)
        path.write_text(
            header
            + '{"kind":"request","id":"r0","at_ms":0,"model":"m","verb":"dance","items":[]}\n'
        )
        with pytest.raises(TraceError, match="verb"):
            load_trace(path)

    def test_v1_trace_still_loads(self, tmp_path):
        # Traces recorded before the kill-control schema bump must keep
        # replaying byte for byte.
        path = tmp_path / "v1.jsonl"
        path.write_text(
            '{"kind":"header","schema":"repro.replay/1","events":2}\n'
            '{"kind":"request","id":"r0","at_ms":0,"model":"m",'
            '"verb":"predict","items":[0]}\n'
            '{"kind":"control","id":"c0","at_ms":5,"action":"swap"}\n'
        )
        trace = load_trace(path)
        assert trace.header["schema"] == "repro.replay/1"
        assert len(trace.events) == 2

    def test_unknown_control_action_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind":"header","schema":"repro.replay/2","events":1}\n'
            '{"kind":"control","id":"c0","at_ms":5,"action":"dance"}\n'
        )
        with pytest.raises(TraceError, match="action"):
            load_trace(path)

    def test_declared_event_count_enforced(self, tmp_path):
        trace = generate_trace(TraceConfig(seed=1, requests=10, n_items=6))
        lines = dumps_trace(trace).splitlines()
        path = tmp_path / "truncated.jsonl"
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceError, match="declares"):
            load_trace(path)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestLatencyHistogram:
    def test_percentiles_bracket_samples(self):
        histogram = LatencyHistogram()
        for ms in range(1, 101):
            histogram.record(ms / 1000.0)
        p50 = histogram.percentile(50.0)
        p99 = histogram.percentile(99.0)
        # Geometric buckets (ratio sqrt(2)) bound relative error.
        assert 0.035 <= p50 <= 0.075
        assert 0.07 <= p99 <= 0.15
        assert histogram.percentile(100.0) <= histogram.max
        assert len(histogram) == 100

    def test_empty_and_merge(self):
        empty = LatencyHistogram()
        assert empty.percentile(99.0) == 0.0
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(0.001)
        b.record(0.1)
        a.merge(b)
        assert len(a) == 2
        assert a.max == pytest.approx(0.1)

    def test_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101.0)


class TestReconcile:
    def test_clean_ledgers_reconcile(self):
        outcomes = {"answered": 8, "shed": 2}
        delta = {"service_shed": 2.0, "service_requests": 8.0}
        assert reconcile(outcomes, delta, 10) == []

    def test_lost_request_detected(self):
        mismatches = reconcile({"answered": 9}, None, 10)
        assert any("lost or duplicated" in m for m in mismatches)

    def test_counter_disagreement_detected(self):
        outcomes = {"answered": 9, "shed": 1}
        delta = {"service_shed": 3.0}
        mismatches = reconcile(outcomes, delta, 10)
        assert any("service_shed=3" in m for m in mismatches)

    def test_unknown_category_detected(self):
        mismatches = reconcile({"answered": 9, "wat": 1}, None, 10)
        assert any("unknown" in m for m in mismatches)


# ----------------------------------------------------------------------
# In-process replay
# ----------------------------------------------------------------------


class TestInProcessReplay:
    def test_clean_trace_all_answered(self, classifier, tmp_path):
        config = TraceConfig(seed=7, requests=200, rate_qps=2000, n_items=6)
        trace = generate_trace(config)
        report = _replay(trace, classifier, tmp_path)
        assert report.submitted == 200
        assert report.outcomes == {"answered": 200}
        assert report.reconciled, report.mismatches
        assert report.counters_delta["registry_requests"] == 200
        assert report.counters_delta["service_requests"] == 200

    def test_same_trace_same_accounting(self, classifier, tmp_path):
        config = TraceConfig(seed=7, requests=150, rate_qps=3000, n_items=6)
        first = _replay(
            generate_trace(config), classifier, tmp_path / "a"
        )
        second = _replay(
            generate_trace(config), classifier, tmp_path / "b"
        )
        assert first.outcomes == second.outcomes
        assert first.reconciled and second.reconciled

    def test_explain_verbs_answered(self, classifier, tmp_path):
        config = TraceConfig(
            seed=2, requests=60, n_items=6, explain_fraction=1.0
        )
        report = _replay(generate_trace(config), classifier, tmp_path)
        assert report.outcomes == {"answered": 60}
        assert report.reconciled

    def test_duplicate_outcome_raises(self, classifier, tmp_path):
        trace = generate_trace(TraceConfig(seed=1, requests=5, n_items=6))
        duplicated = ReplayTrace(
            header=trace.header,
            events=trace.events + (dict(trace.events[0]),),
        )
        with pytest.raises(TraceError, match="two outcomes"):
            _replay(duplicated, classifier, tmp_path)

    def test_out_of_range_items_are_rejected_exactly_once(
        self, classifier, tmp_path
    ):
        trace = generate_trace(TraceConfig(seed=1, requests=4, n_items=6))
        events = [dict(e) for e in trace.events]
        events[0]["items"] = [0, 99]  # outside the model's vocabulary
        bad = ReplayTrace(header=trace.header, events=tuple(events))
        report = _replay(bad, classifier, tmp_path)
        assert report.outcomes["rejected"] == 1
        assert report.outcomes["answered"] == 3
        assert report.reconciled, report.mismatches


class TestChaosReplay:
    """The tentpole invariant: a fault-heavy seeded trace loses nothing."""

    CHAOS = ChaosMix(
        poison_fraction=0.06,
        deadline_storms=((30.0, 70.0, 0.0),),
        corrupt_swaps_at_ms=(40.0,),
        swaps_at_ms=(80.0,),
        error_windows=((2, 8),),
    )

    def test_every_request_accounted_exactly_once(self, classifier, tmp_path):
        config = TraceConfig(
            seed=23,
            requests=400,
            rate_qps=4000,
            n_items=6,
            tenants=("t0", "t1", "t2"),
            chaos=self.CHAOS,
        )
        trace = generate_trace(config)
        report = _replay(
            trace,
            classifier,
            tmp_path,
            tenant_quota=4,
            config=ServeConfig(shed_high=64, shed_low=16),
        )
        assert report.submitted == 400
        # Exactly-once: the per-category tallies sum to the submissions.
        assert sum(report.outcomes.values()) == 400
        assert set(report.outcomes) <= set(CATEGORIES)
        # The chaos actually bit: every major ingredient left a mark.
        assert report.outcomes.get("poison", 0) > 0
        assert report.outcomes.get("deadline", 0) > 0
        assert report.outcomes.get("quota", 0) > 0
        # And the client ledger matches the service's own counters.
        assert report.reconciled, report.mismatches

    def test_corrupt_swap_refused_clean_swap_applied(
        self, classifier, tmp_path
    ):
        config = TraceConfig(
            seed=29,
            requests=120,
            rate_qps=2000,
            n_items=6,
            chaos=ChaosMix(
                corrupt_swaps_at_ms=(20.0,), swaps_at_ms=(40.0,)
            ),
        )
        report = _replay(generate_trace(config), classifier, tmp_path)
        by_action = {c["action"]: c for c in report.controls}
        assert not by_action["swap_corrupt"]["applied"]
        assert "ArtifactCorrupt" in by_action["swap_corrupt"]["detail"]
        assert by_action["swap"]["applied"]
        assert report.reconciled, report.mismatches
        # The refused swap reached the registry and was counted as such.
        assert report.counters_delta.get("registry_swaps") == 1

    def test_breaker_window_trips_and_reconciles(self, classifier, tmp_path):
        config = TraceConfig(
            seed=31,
            requests=300,
            rate_qps=6000,
            n_items=6,
            chaos=ChaosMix(error_windows=((0, 40),)),
        )
        report = _replay(
            generate_trace(config),
            classifier,
            tmp_path,
            config=ServeConfig(
                breaker_threshold=3, breaker_cooldown=30.0, max_batch=4
            ),
        )
        assert sum(report.outcomes.values()) == 300
        assert report.outcomes.get("breaker", 0) > 0
        assert report.reconciled, report.mismatches
        assert report.counters_delta.get("service_breaker_trips", 0) >= 1


class TestCapacitySearch:
    def test_ramp_reports_finite_saturation(self, classifier, tmp_path):
        base = TraceConfig(seed=7, requests=60, rate_qps=100.0, n_items=6)
        payload = search_capacity(
            classifier,
            base,
            tmp_path,
            slo=Slo(p99_ms=500.0, max_error_rate=0.05),
            start_qps=200.0,
            growth=2.0,
            max_rounds=2,
            chaos_error_window=6,
        )
        assert payload["schema"] == "repro.replay-bench/1"
        assert np.isfinite(payload["saturation_qps"])
        assert np.isfinite(payload["p99_ms_at_saturation"])
        assert payload["rounds"]
        assert all(r["reconciled"] for r in payload["rounds"])
        assert payload["chaos"]["reconciled"]
        assert np.isfinite(payload["chaos"]["p99_ms_under_breaker_trips"])


# ----------------------------------------------------------------------
# HTTP replay and the hardened gateway surface
# ----------------------------------------------------------------------


@pytest.fixture()
def gateway(classifier):
    registry = ModelRegistry(ServeConfig(), counters=EngineCounters())
    registry.deploy_model("default", classifier)
    server = GatewayServer(registry, max_body_bytes=64 * 1024)
    with server:
        yield server
    registry.close()


class TestHttpReplay:
    def test_http_target_accounts_exactly_once(self, gateway):
        config = TraceConfig(seed=7, requests=40, rate_qps=400, n_items=6)
        trace = generate_trace(config)
        report = ReplayDriver(
            HttpTarget(gateway.url), max_workers=8
        ).run(trace, speed=0.0)
        assert report.submitted == 40
        assert report.outcomes == {"answered": 40}
        assert report.reconciled
        assert report.counters_delta is None  # server counters unreachable

    def test_http_failure_categories(self, gateway):
        trace = generate_trace(TraceConfig(seed=1, requests=2, n_items=6))
        events = [dict(e) for e in trace.events]
        events[0]["items"] = [99]  # out of vocabulary -> 400 QueryError
        events[1]["model"] = "nope"  # -> 404 ModelNotFound
        report = ReplayDriver(HttpTarget(gateway.url), max_workers=2).run(
            ReplayTrace(header=trace.header, events=tuple(events))
        )
        assert report.outcomes == {"rejected": 1, "failed": 1}


ADMIN_TOKEN = "replay-admin-token"


@pytest.fixture()
def admin_gateway(classifier, tmp_path):
    """An admin-enabled gateway over an artifact-backed ``default`` slot,
    so HTTP replays get counter reconciliation and real hot swaps."""
    artifact = classifier.save(tmp_path / "served.npz")
    registry = ModelRegistry(ServeConfig(), counters=EngineCounters())
    registry.deploy("default", artifact)
    server = GatewayServer(registry, admin_token=ADMIN_TOKEN)
    with server:
        yield server
    registry.close()


class TestHttpAdminReplay:
    def test_counters_reconcile_over_the_wire(self, admin_gateway):
        # The satellite fix: with the admin plane, HTTP replays get the
        # same pair-by-pair counter ledger as in-process targets instead
        # of a silent None.
        config = TraceConfig(seed=7, requests=40, rate_qps=400, n_items=6)
        trace = generate_trace(config)
        target = HttpTarget(admin_gateway.url, admin_token=ADMIN_TOKEN)
        report = ReplayDriver(target, max_workers=8).run(trace, speed=0.0)
        assert report.outcomes == {"answered": 40}
        assert report.counters_delta is not None
        assert report.counters_delta["registry_requests"] == 40
        assert report.counters_delta["service_requests"] == 40
        assert report.reconciled, report.mismatches

    def test_swaps_applied_corrupt_refused_over_http(
        self, admin_gateway, classifier, tmp_path
    ):
        from repro.replay import prepare_http_target

        config = TraceConfig(
            seed=29,
            requests=80,
            rate_qps=800,
            n_items=6,
            chaos=ChaosMix(
                corrupt_swaps_at_ms=(20.0,), swaps_at_ms=(50.0,)
            ),
        )
        trace = generate_trace(config)
        target = prepare_http_target(
            trace,
            admin_gateway.url,
            tmp_path / "swap",
            classifier=classifier,
            admin_token=ADMIN_TOKEN,
        )
        report = ReplayDriver(target, max_workers=8).run(trace, speed=0.0)
        by_action = {c["action"]: c for c in report.controls}
        assert by_action["swap"]["applied"]
        assert "deployed v" in by_action["swap"]["detail"]
        assert not by_action["swap_corrupt"]["applied"]
        assert "refused" in by_action["swap_corrupt"]["detail"]
        # Lossless under the swap, and the counter ledger still matches.
        assert sum(report.outcomes.values()) == 80
        assert report.reconciled, report.mismatches
        assert report.counters_delta.get("registry_swaps", 0) >= 1

    def test_swaps_skipped_without_admin_token(self, admin_gateway):
        config = TraceConfig(
            seed=3,
            requests=20,
            rate_qps=400,
            n_items=6,
            chaos=ChaosMix(swaps_at_ms=(10.0,)),
        )
        trace = generate_trace(config)
        report = ReplayDriver(
            HttpTarget(admin_gateway.url), max_workers=4
        ).run(trace, speed=0.0)
        (control,) = report.controls
        assert not control["applied"]
        assert "admin plane" in control["detail"]
        assert report.reconciled


class TestKillChaos:
    def test_kill_skipped_in_process(self, classifier, tmp_path):
        config = TraceConfig(
            seed=11,
            requests=20,
            rate_qps=400,
            n_items=6,
            chaos=ChaosMix(kills_at_ms=(10.0,)),
        )
        report = _replay(generate_trace(config), classifier, tmp_path)
        (control,) = report.controls
        assert control["action"] == "kill"
        assert not control["applied"]
        assert "supervisor" in control["detail"]
        assert report.reconciled

    def test_kill_skipped_without_supervisor_handle(self, admin_gateway):
        config = TraceConfig(
            seed=11,
            requests=20,
            rate_qps=400,
            n_items=6,
            chaos=ChaosMix(kills_at_ms=(10.0,)),
        )
        report = ReplayDriver(
            HttpTarget(admin_gateway.url, admin_token=ADMIN_TOKEN),
            max_workers=4,
        ).run(generate_trace(config), speed=0.0)
        (control,) = report.controls
        assert not control["applied"]
        assert "supervisor" in control["detail"]
        assert report.reconciled

    @pytest.mark.faults
    def test_sigkill_mid_replay_accounts_exactly_once(
        self, classifier, tmp_path
    ):
        """Satellite (d): SIGKILL mid-batch through the supervisor.  The
        ledger must show connection-failure (``interrupted``) outcomes and
        zero lost or duplicated request ids across the restart."""
        from repro.replay import run_kill_chaos

        payload = run_kill_chaos(
            classifier, tmp_path, requests=60, rate_qps=10.0
        )
        assert payload["reconciled"], payload["mismatches"]
        assert payload["restarts"] >= 1
        assert payload["interrupted"] >= 1
        assert payload["outcomes"].get("answered", 0) >= 1
        assert sum(payload["outcomes"].values()) == 60
        (kill,) = [
            c for c in payload["controls"] if c["action"] == "kill"
        ]
        assert kill["applied"]
        assert payload["kill_mttr_s"] is not None
        assert 0.0 < payload["kill_mttr_s"] < 30.0


class TestShardedReplay:
    def test_shard_partition_is_total_and_deterministic(self):
        from repro.replay import shard_index, shard_trace

        config = TraceConfig(
            seed=7,
            requests=90,
            rate_qps=900,
            n_items=6,
            chaos=ChaosMix(swaps_at_ms=(30.0,)),
        )
        trace = generate_trace(config)
        shards = shard_trace(trace, 3)
        assert len(shards) == 3
        all_ids = sorted(e["id"] for e in trace.requests)
        sharded_ids = sorted(
            e["id"] for s in shards for e in s.requests
        )
        assert sharded_ids == all_ids  # nothing lost, nothing duplicated
        for index, shard in enumerate(shards):
            assert shard.header["events"] == len(shard.events)
            for event in shard.requests:
                assert shard_index(event["id"], 3) == index
        # Controls run once, on shard 0 only.
        assert [e["action"] for e in shards[0].controls] == ["swap"]
        assert not shards[1].controls and not shards[2].controls

    def test_run_sharded_merges_exactly_once(self, admin_gateway):
        from repro.replay import run_sharded

        config = TraceConfig(seed=7, requests=60, rate_qps=600, n_items=6)
        trace = generate_trace(config)
        target = HttpTarget(admin_gateway.url, admin_token=ADMIN_TOKEN)
        report = run_sharded(trace, target, drivers=3, speed=0.0)
        assert report.submitted == 60
        assert report.outcomes == {"answered": 60}
        assert len(report.latency) == 60  # histograms merged by addition
        assert report.reconciled, report.mismatches
        # The parent brackets the whole sharded window with one counter
        # snapshot pair, so the ledger still reconciles pair by pair.
        assert report.counters_delta is not None
        assert report.counters_delta["registry_requests"] == 60

    def test_single_driver_short_circuits(self, admin_gateway):
        from repro.replay import run_sharded

        config = TraceConfig(seed=7, requests=20, rate_qps=400, n_items=6)
        trace = generate_trace(config)
        target = HttpTarget(admin_gateway.url, admin_token=ADMIN_TOKEN)
        report = run_sharded(trace, target, drivers=1, speed=0.0)
        assert report.outcomes == {"answered": 20}
        assert report.reconciled


class TestHistogramState:
    def test_round_trip_preserves_percentiles(self):
        histogram = LatencyHistogram()
        for ms in range(1, 51):
            histogram.record(ms / 1000.0)
        rebuilt = LatencyHistogram.from_state(histogram.to_state())
        assert len(rebuilt) == len(histogram)
        assert rebuilt.max == histogram.max
        for q in (50.0, 90.0, 99.0):
            assert rebuilt.percentile(q) == histogram.percentile(q)

    def test_rejects_wrong_bucket_count(self):
        state = LatencyHistogram().to_state()
        state["counts"] = state["counts"][:-1]
        with pytest.raises(ValueError):
            LatencyHistogram.from_state(state)


class TestGatewayHardening:
    def test_oversized_body_gets_413(self, gateway):
        body = json.dumps(
            {"items": [0], "padding": "x" * (128 * 1024)}
        ).encode()
        request = urllib.request.Request(
            f"{gateway.url}/v1/models/default:predict",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 413
        envelope = json.loads(excinfo.value.read().decode())
        assert envelope["error"]["type"] == "RequestTooLarge"

    def test_stalled_body_gets_408(self, classifier):
        registry = ModelRegistry(ServeConfig(), counters=EngineCounters())
        registry.deploy_model("default", classifier)
        server = GatewayServer(registry, read_timeout=0.3)
        with server:
            with socket.create_connection(
                (server.host, server.port), timeout=10.0
            ) as conn:
                conn.sendall(
                    b"POST /v1/models/default:predict HTTP/1.1\r\n"
                    b"Host: test\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 100\r\n\r\n"
                )
                # ... and never send the body.  The handler drops the
                # connection after answering, so read until EOF.
                chunks = []
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
                response = b"".join(chunks).decode("utf-8", "replace")
        registry.close()
        assert " 408 " in response.splitlines()[0]
        assert "RequestTimeout" in response

    def test_gateway_rejects_bad_limits(self, classifier):
        registry = ModelRegistry(ServeConfig(), counters=EngineCounters())
        try:
            with pytest.raises(ValueError):
                GatewayServer(registry, max_body_bytes=0)
            with pytest.raises(ValueError):
                GatewayServer(registry, read_timeout=0.0)
        finally:
            registry.close()


class TestBreakerVisibility:
    def test_health_surfaces_breaker_state_and_retry_after(self, classifier):
        flaky = FlakyBatchModel(
            classifier,
            faults=[ServiceFault(i, "error") for i in range(6)],
        )
        counters = EngineCounters()
        registry = ModelRegistry(
            ServeConfig(
                breaker_threshold=1, breaker_cooldown=30.0, max_batch=1
            ),
            counters=counters,
        )
        try:
            registry.deploy_model("default", flaky)
            with pytest.raises(Exception):
                registry.classification_values(
                    "default", np.zeros(6, dtype=bool)
                )
            health = registry.health()
            assert health.breakers_open == 1
            assert health.breaker_retry_after > 0.0
            slot = health.models["default"]
            assert slot.breaker == "open"
            assert slot.breaker_retry_after > 0.0
            with GatewayServer(registry) as server:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(
                        f"{server.url}/health", timeout=10.0
                    )
                assert excinfo.value.code == 503  # breaker open -> not ready
                payload = json.loads(excinfo.value.read().decode())
            assert payload["breakers_open"] == 1
            assert payload["breaker_retry_after"] > 0.0
            model = payload["models"]["default"]
            assert model["breaker"] == "open"
            assert model["breaker_retry_after"] > 0.0
            assert model["consecutive_failures"] >= 1
        finally:
            registry.close()

    def test_healthy_slot_reports_zero_retry_after(self, classifier):
        registry = ModelRegistry(ServeConfig(), counters=EngineCounters())
        try:
            registry.deploy_model("default", classifier)
            health = registry.health()
            assert health.breakers_open == 0
            assert health.breaker_retry_after == 0.0
        finally:
            registry.close()


# ----------------------------------------------------------------------
# CLI and graceful drain
# ----------------------------------------------------------------------


class TestReplayCli:
    def test_replay_verb_deterministic_accounting(self, capsys, tmp_path):
        from repro.cli import main

        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert main(
            ["replay", "--seed", "7", "--requests", "80", "--rate", "800",
             "--trace", str(first)]
        ) == 0
        out_first = capsys.readouterr().out
        assert main(
            ["replay", "--seed", "7", "--requests", "80", "--rate", "800",
             "--trace", str(second)]
        ) == 0
        out_second = capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()
        assert "reconciled: every submitted request accounted" in out_first

        def accounting(text):
            return [
                line
                for line in text.splitlines()
                if line.startswith(("submitted", "answered", "reconciled"))
            ]

        assert accounting(out_first) == accounting(out_second)
        assert "answered  : 80" in out_first

    def test_replay_verb_chaos_reconciles(self, capsys):
        from repro.cli import main

        code = main(
            ["replay", "--seed", "23", "--requests", "150", "--rate",
             "1500", "--chaos", "full", "--tenants", "2",
             "--tenant-quota", "6"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reconciled: every submitted request accounted" in out

    def test_replay_verb_replays_saved_trace(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        assert main(
            ["replay", "--seed", "3", "--requests", "40", "--trace",
             str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["replay", "--load", str(path)]) == 0
        assert "answered  : 40" in capsys.readouterr().out

    def test_drivers_shard_needs_a_url(self, capsys):
        from repro.cli import main

        code = main(
            ["replay", "--seed", "1", "--requests", "10", "--drivers", "2"]
        )
        assert code != 0
        assert "--url" in capsys.readouterr().err

    def test_drivers_must_be_positive(self, capsys):
        from repro.cli import main

        code = main(
            ["replay", "--seed", "1", "--requests", "10", "--drivers", "0"]
        )
        assert code != 0
        assert "--drivers" in capsys.readouterr().err

    def test_python_dash_m_repro_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "replay", "--seed", "7",
             "--requests", "30", "--rate", "600"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        assert result.returncode == 0, result.stderr
        assert "reconciled" in result.stdout


class TestGracefulDrain:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_serve_drains_and_exits_zero(
        self, classifier, tmp_path, signum
    ):
        artifact = classifier.save(tmp_path / "model.npz")
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--artifact",
             str(artifact), "--port", str(port)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        try:
            deadline = time.monotonic() + 60.0
            url = f"http://127.0.0.1:{port}/health"
            while True:
                try:
                    with urllib.request.urlopen(url, timeout=1.0):
                        break
                except Exception:
                    if time.monotonic() >= deadline:
                        process.kill()
                        pytest.fail("gateway never became healthy")
                    if process.poll() is not None:
                        pytest.fail(
                            f"serve exited early: {process.stderr.read()}"
                        )
                    time.sleep(0.1)
            process.send_signal(signum)
            code = process.wait(timeout=60.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30.0)
        assert code == 0
        assert "draining and shutting down" in process.stderr.read()
