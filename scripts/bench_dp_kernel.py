#!/usr/bin/env python3
"""Milliseconds and minor page faults per call of the subset-DP kernel and the oracle's L.

Legs, in the order they run:

- corollary op: whole operations of the corollary-dense benchmark
  workload, `run_corollary_sweep(k=4, n=14, samples=1)` on a new seed each
  call (one order-14 tournament through the sweep driver and the oracle,
  which certifies L = 14 with a spanning path and runs no DP when greedy
  extension finds one).  Back-to-back kernel calls run on a warm heap,
  which hides what a call costs when other work runs between calls, so
  this leg runs first, before any large shape has grown the heap.
- `_dp_kernels.run_dp` on (n, B, p) batches: (22, 1) and (20, 1) are
  single finder-fallback calls near the oracle's default order bound,
  (14, 1) is one corollary tournament, (5, 2000) and (6, 2000) are
  exhaustive-sweep chunks, (16, 16) is one DP slice at n=16 and
  (14, 64, 0.25) is the batch that `alt_path_lengths` hands the DP below.
  Single graphs are tournaments, which fill every layer; batches are
  seeded random codes or random graphs.  run_dp returns L and the filled
  table; the witness tail that `longest_alt_path_exact` adds is not
  timed.  n=22 runs first, so the peak RSS printed right after it is that
  of the n=22 calls.
- `oracle.alt_path_lengths` on both sides of its spanning-path
  certificate, at order 14 (`SPAN_CERTIFICATE_ORDER`): 64 tournaments,
  which greedy spanning paths certify without the DP, and 64 graphs at
  p=0.25, where every attempt fails and the DP runs on all of them.

Every side gets the same masks.  Each leg runs through
`bench_report.alternate`, which describes the procedure and the output.
Medians of separate runs moved by up to 50% between runs of the same
code; alternating in one process cancels most of that drift.  Run with
the package importable, for example

    PYTHONPATH=src python3 scripts/bench_dp_kernel.py [--against ../other/src]
"""
import itertools
import resource
from functools import partial

import numpy as np

from altpaths.graph_core import decode_codes, num_oriented, random_oriented
from bench_report import ROUNDS, SECONDS, alternate, finish, sample, show, sides

# (n, B, p) batches timed through run_dp; p None as in masks()
SHAPES = [
    (22, 1, None), (14, 1, None), (5, 2000, None), (6, 2000, None), (16, 16, None),
    (20, 1, None), (14, 64, 0.25),
]

# (n, B, p) batches timed through alt_path_lengths
LENGTH_SHAPES = [(14, 64, 1.0), (14, 64, 0.25)]


def masks(n: int, batch: int, p: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    if n <= 6:
        codes = np.random.default_rng(n).integers(0, num_oriented(n), size=batch)
        return decode_codes(n, codes)
    if p is None:
        p = 1.0 if batch == 1 else 0.5
    graphs = [random_oriented(n, p, 1000 * n + i) for i in range(batch)]
    return (
        np.array([g.out_masks for g in graphs], dtype=np.int64),
        np.array([g.in_masks for g in graphs], dtype=np.int64),
    )


def corollary_op(harness):
    """call() -> one corollary-dense operation on the next seed, 0, 1, 2, ..."""
    seeds = itertools.count()
    return lambda: harness.run_corollary_sweep(
        harness.SweepConfig(mode="corollary", k=4, n=14, samples=1, stable=True, seed=next(seeds))
    )


def main() -> None:
    packages = sides(__doc__)

    def leg(label: str, op) -> dict:
        calls = {side: partial(sample, op(package)) for side, package in packages.items()}
        return show(label, alternate(calls, ROUNDS, SECONDS))

    rows = [leg("corollary op", lambda package: corollary_op(package.harness))]
    for n, batch, p in SHAPES:
        args = (*masks(n, batch, p), n)
        rows.append(leg(
            f"n={n} B={batch} p={p}", lambda package: partial(package._dp_kernels.run_dp, *args)
        ))
        if n == 22:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"peak RSS {peak_mb:.1f} MB after n=22")
    for n, batch, p in LENGTH_SHAPES:
        args = (*masks(n, batch, p), n)
        rows.append(leg(
            f"L n={n} B={batch} p={p}",
            lambda package: partial(package.oracle.alt_path_lengths, *args),
        ))
    finish(packages, rows, peak_rss_mb_n22=round(peak_mb, 1))


if __name__ == "__main__":
    main()
