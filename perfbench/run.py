"""Run one benchmark workload against the program in ``src/``.

    python3 perfbench/run.py --workload {fit,serve} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload's inputs come from
``--seed`` alone; its outputs are checked; the human-readable lines print
each metric as ``workload/metric`` with its unit and sample count, and the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of ``BENCHMARK.json`` with ``--trace
0``, its per-layer metrics with ``--trace 1``.  Exit status: 0 when every
output was correct, 1 when the correctness gate failed (the JSON line is
still printed), 2 when the checkout holds no program to measure, 3 when the
benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src / 'repro'}; run from the root"
              " of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from benchlib import Report, Tracer

    # A terminated run still stops the gateway children it spawned: the
    # workloads stop them in ``finally`` blocks, which SystemExit unwinds.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    workload = importlib.import_module(args.workload)
    tracer = Tracer(args.trace == 1)
    report = Report(args.workload)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload.run(args.seed, args.seconds, tracer, ROOT, work, report)
    except Exception:
        traceback.print_exc()
        print("perfbench: the benchmark could not complete", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there

    if tracer.enabled:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        span_file = out / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(span_file)
        report.note(f"{len(tracer.spans)} spans written to {span_file}")

    wanted = spec["per_layer" if tracer.enabled else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value, unit = report.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(
                f"{entry['name']} measured in {unit}, declared {entry['unit']}"
            )
        metrics[entry["name"]] = {"value": value, "unit": unit}
    for line in report.lines:
        print(line)
    for problem in report.problems:
        print(f"{args.workload}: INCORRECT: {problem}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
