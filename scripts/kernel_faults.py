#!/usr/bin/env python
"""Page-fault budget of the batch-of-one BSTCE kernel.

Builds the seeded ALL-profile model (its Table 3 training split) and saves
it as an artifact.  A fresh child process then loads it memory-mapped, as a
gateway child serves it, warms up, and counts its minor page faults
(``ru_minflt``) over ``QUERIES`` batch-of-one
``classification_values_batch`` calls on held-out samples.  The script
fails (exit 1) above ``BUDGET`` faults per query, and also when any arena
member of the saved artifact does not start on a 64-byte boundary (a
misaligned memory map slows every gather the kernel makes from it).

A kernel that allocates large temporaries on every call makes the
allocator hand their pages back and fault them in again, call after call;
one that works within its query-independent cell stream does not.  The
gate is a count, not a timing, so it is stable on a shared runner.  Every
answer is also checked against the in-memory model, bit for bit.

Needs the ``resource`` module (Unix).

Usage::

    python scripts/kernel_faults.py
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Timed batch-of-one queries, untimed warm-up queries before them, and the
#: largest mean minor faults per timed query.
QUERIES = 200
WARMUP = 20
BUDGET = 50
#: Byte boundary every arena member's payload must start on.
ALIGN = 64


def measure(work: Path) -> int:
    """Fault count of the timed loop, in this (fresh) process: ``0`` if the
    answers match, ``1`` if any differs.  Prints the count."""
    import resource

    import numpy as np

    from repro.core.artifact import load_artifact

    pool = [
        frozenset(np.flatnonzero(row).tolist())
        for row in np.load(work / "queries.npy")
    ]
    expected = np.load(work / "expected.npy")
    model = load_artifact(work / "all.npz", verify="eager")
    for i in range(WARMUP):
        model.classification_values_batch([pool[i % len(pool)]])
    rows = []
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(QUERIES):
        rows.append(model.classification_values_batch([pool[i % len(pool)]]))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(faults)
    for i, row in enumerate(rows):
        if not np.array_equal(row[0], expected[i % len(pool)]):
            print(f"query {i} answered differently from the in-memory model")
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is not None:
        return measure(args.measure)

    import numpy as np

    from repro.core.artifact import _stored_member_offsets
    from repro.core.classifier import BSTClassifier
    from repro.datasets.discretize import EntropyDiscretizer
    from repro.datasets.profiles import profile
    from repro.datasets.splits import given_training_split
    from repro.datasets.synthetic import generate_expression_data

    prof = profile("ALL")
    # Twice the paper's cohort: the Table 3 training rows plus held-out
    # samples of the same profile to query with.
    cohort = replace(prof, class_counts=tuple(2 * c for c in prof.class_counts))
    data = generate_expression_data(cohort, seed=0)
    split = given_training_split(data.label_array, prof.given_training, 0)
    train = data.subset(split.train_indices)
    disc = EntropyDiscretizer().fit(train)
    clf = BSTClassifier().fit(disc.transform(train))
    pool = disc.transform(data.subset(split.test_indices))

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        clf.save(work / "all.npz")
        misaligned = sorted(
            name
            for name, offset in _stored_member_offsets(work / "all.npz").items()
            if name.startswith("arena_") and offset % ALIGN
        )
        np.save(work / "queries.npy", pool.bool_matrix)
        np.save(
            work / "expected.npy",
            clf.classification_values_batch(list(pool.samples)),
        )
        # The count runs in a fresh process that only loads and queries,
        # as a gateway child does: the fit's own large allocations here
        # would already have moved the allocator's thresholds.
        child = subprocess.run(
            [sys.executable, __file__, "--measure", str(work)],
            capture_output=True,
            text=True,
        )
    if misaligned:
        print(f"kernel_faults: FAIL — arena members not {ALIGN}-byte"
              f" aligned: {', '.join(misaligned)}")
        return 1
    if child.returncode != 0:
        print(f"kernel_faults: FAIL — {child.stdout}{child.stderr}".rstrip())
        return 1
    faults = int(child.stdout.split()[0])
    per_query = faults / QUERIES
    print(
        f"kernel_faults: {faults} minor faults over {QUERIES}"
        f" batch-of-one queries ({per_query:.1f} per query, budget"
        f" {BUDGET}); every arena member {ALIGN}-byte aligned"
    )
    if per_query > BUDGET:
        print("kernel_faults: FAIL — the kernel faults its temporaries in"
              " on every query")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
