#!/usr/bin/env python
"""Prove chunked ingestion runs under an address-space ceiling the
whole-file loader cannot.

The script writes a tall synthetic expression TSV (streamed row by row —
the full matrix is never held while generating), then:

1. caps the process's address space at *current usage + headroom* via
   ``RLIMIT_AS``.  The default headroom (64 MB) is below the size of the
   final float64 array alone (82 MB for 40,000 x 256), so no whole-file
   loader can fit, however lean its parse;
2. streams the file through ``iter_expression_tsv`` under that cap,
   folding a per-gene running sum — this must succeed;
3. re-executes itself in a subprocess with the same cap and runs the
   whole-file ``load_expression_tsv`` — this must *fail* with
   ``MemoryError``, proving the ceiling is tight enough to mean
   something, not just generous.

Linux-only (``RLIMIT_AS`` + ``/proc/self/status``); elsewhere it exits 0
with a note so the CI job is a no-op on exotic runners.

Usage::

    python scripts/memory_ceiling.py [--rows 40000] [--genes 256]
                                     [--headroom-mb 64] [--chunk-rows 256]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def current_address_space_bytes() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize not found in /proc/self/status")


def apply_ceiling(headroom_mb: int) -> int:
    import resource

    ceiling = current_address_space_bytes() + headroom_mb * (1 << 20)
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
    return ceiling


def write_tall_tsv(path: Path, rows: int, genes: int, seed: int) -> None:
    import numpy as np

    rng = np.random.default_rng(seed)
    block = 512
    with path.open("w", encoding="utf-8") as handle:
        handle.write(
            "sample\tclass\t" + "\t".join(f"g{j}" for j in range(genes)) + "\n"
        )
        for start in range(0, rows, block):
            stop = min(start + block, rows)
            values = rng.normal(size=(stop - start, genes))
            labels = rng.integers(0, 3, size=stop - start)
            for k in range(stop - start):
                row = "\t".join(f"{v:.3f}" for v in values[k])
                handle.write(f"s{start + k}\tc{labels[k]}\t{row}\n")


def run_chunked(path: Path, chunk_rows: int):
    import numpy as np

    from repro.datasets.io import iter_expression_tsv

    total = None
    n_rows = 0
    for chunk in iter_expression_tsv(path, chunk_rows=chunk_rows):
        colsum = chunk.values.sum(axis=0)
        total = colsum if total is None else total + colsum
        n_rows += chunk.n_samples
    return n_rows, float(np.abs(total).sum())


def run_whole_file(path: Path) -> None:
    from repro.datasets.io import load_expression_tsv

    data = load_expression_tsv(path)
    print(f"whole-file load unexpectedly fit: {data.values.shape}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=40000)
    parser.add_argument("--genes", type=int, default=256)
    parser.add_argument("--headroom-mb", type=int, default=64)
    parser.add_argument("--chunk-rows", type=int, default=256)
    parser.add_argument("--seed", type=int, default=97)
    parser.add_argument(
        "--whole-file",
        metavar="TSV",
        help="(internal) attempt the whole-file load of TSV under the cap",
    )
    args = parser.parse_args(argv)

    if sys.platform != "linux":
        print(f"memory ceiling: {sys.platform} has no RLIMIT_AS — skipped")
        return 0

    if args.whole_file:
        # Subprocess leg: same cap, whole-file loader, expected to die.
        import numpy  # noqa: F401  -- map BLAS before the cap lands

        apply_ceiling(args.headroom_mb)
        run_whole_file(Path(args.whole_file))
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tall.tsv"
        print(
            f"writing {args.rows} x {args.genes} profile"
            f" ({args.rows * args.genes * 8 / 1e6:.0f} MB as float64) ..."
        )
        write_tall_tsv(path, args.rows, args.genes, args.seed)
        print(f"tsv on disk: {path.stat().st_size / 1e6:.0f} MB")

        ceiling = apply_ceiling(args.headroom_mb)
        print(
            f"address space capped at {ceiling / 1e6:.0f} MB"
            f" (current + {args.headroom_mb} MB headroom)"
        )

        n_rows, checksum = run_chunked(path, args.chunk_rows)
        if n_rows != args.rows:
            print(f"FAIL: chunked ingest saw {n_rows} of {args.rows} rows")
            return 1
        print(
            f"chunked ingest ok under the cap: {n_rows} rows,"
            f" checksum {checksum:.3f}"
        )

        proc = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--whole-file",
                str(path),
                "--headroom-mb",
                str(args.headroom_mb),
            ],
            capture_output=True,
            text=True,
        )
        if proc.returncode == 0:
            print("FAIL: whole-file load fit under the same cap — the")
            print("ceiling is too loose to prove anything; lower")
            print("--headroom-mb or raise --rows")
            print(proc.stdout)
            return 1
        tail = (proc.stderr or proc.stdout).strip().splitlines()
        reason = tail[-1] if tail else f"exit code {proc.returncode}"
        print(f"whole-file load died under the same cap as expected: {reason}")
    print("memory ceiling: chunked ingest holds the budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
