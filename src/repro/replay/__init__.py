"""Deterministic workload replay: traces, chaos mixes, capacity reports.

The serving stack (:mod:`repro.serving`) promises exact behavior under
load and under failure — shed, don't stall; refuse corrupt swaps; isolate
poison queries; answer every admitted request exactly once.  This package
makes those promises *measurable at scale*:

* :mod:`~repro.replay.trace` — seeded, byte-identical workload traces
  (open-loop Poisson / diurnal / burst arrivals, tenant and verb mixes,
  chaos ingredients) in a versioned JSONL schema;
* :mod:`~repro.replay.driver` — an open-loop replay driver for in-process
  registries or live HTTP gateways, with exactly-once response accounting
  keyed on trace request ids;
* :mod:`~repro.replay.metrics` — the reconciliation that diffs the
  client's ledger against the service's own counters;
* :mod:`~repro.replay.sharding` — multi-process replay: one trace split
  deterministically across N driver processes (``replay --drivers N``),
  merged back into a single exactly-once report;
* :mod:`~repro.replay.capacity` — the SLO ramp that finds saturation QPS
  and emits ``BENCH_replay.json``, plus the canned kill-chaos run that
  measures MTTR through the supervisor.

CLI: ``python -m repro replay --seed 7 --requests 500`` (twice gives
byte-identical traces and identical accounting).  See
``docs/ROBUSTNESS.md`` ("Capacity & SLOs").
"""

from .capacity import (
    BENCH_SCHEMA,
    Slo,
    run_kill_chaos,
    search_capacity,
    write_bench_report,
)
from .driver import (
    HttpTarget,
    InProcessTarget,
    Outcome,
    ReplayDriver,
    classify_exception,
    prepare_http_target,
    prepare_inprocess_target,
)
from .metrics import (
    CATEGORIES,
    COUNTER_PAIRS,
    ReplayReport,
    reconcile,
)
from .sharding import run_sharded, shard_index, shard_trace
from .trace import (
    ARRIVALS,
    COMPATIBLE_SCHEMAS,
    CONTROL_ACTIONS,
    TRACE_SCHEMA,
    ChaosMix,
    ReplayTrace,
    TraceConfig,
    config_from_header,
    dumps_trace,
    generate_trace,
    load_trace,
    write_trace,
)

__all__ = [
    "ARRIVALS",
    "BENCH_SCHEMA",
    "CATEGORIES",
    "COMPATIBLE_SCHEMAS",
    "CONTROL_ACTIONS",
    "COUNTER_PAIRS",
    "ChaosMix",
    "HttpTarget",
    "InProcessTarget",
    "Outcome",
    "ReplayDriver",
    "ReplayReport",
    "ReplayTrace",
    "Slo",
    "TRACE_SCHEMA",
    "TraceConfig",
    "classify_exception",
    "config_from_header",
    "dumps_trace",
    "generate_trace",
    "load_trace",
    "prepare_http_target",
    "prepare_inprocess_target",
    "reconcile",
    "run_kill_chaos",
    "run_sharded",
    "search_capacity",
    "shard_index",
    "shard_trace",
    "write_bench_report",
    "write_trace",
]
