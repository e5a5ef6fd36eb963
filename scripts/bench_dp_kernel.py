#!/usr/bin/env python3
"""Milliseconds and minor page faults per call of the subset-DP kernel and the oracle's L.

Times `_dp_kernels.run_dp` on (n, B) batches: (14, 1) is one corollary
tournament, (5, 2000) and (6, 2000) are exhaustive-sweep chunks, (16, 16)
is one DP slice at n=16, and (20, 1) and (22, 1) are single
finder-fallback calls near the oracle's default order bound.  Single
graphs are tournaments, which fill every layer; batches are seeded random
codes or random graphs.  run_dp returns L and the filled table; the
witness tail that `longest_alt_path_exact` adds is not timed.

Then times `oracle.alt_path_lengths` on both sides of its spanning-path
certificate, at order 14 (`SPAN_CERTIFICATE_ORDER`): a batch of 64
tournaments, which greedy spanning paths certify without the DP, and 64
graphs at p=0.25, where every attempt fails and the DP runs on all of them.

Each shape is timed for about a second (at least 3 calls) after one
warm-up call, and the median is printed with the minor page faults
(`ru_minflt`) per call over the timed calls.

Back-to-back kernel calls run on a warm heap, which hides what a call
costs when other work runs between calls.  So the first row times whole
operations of the corollary-dense benchmark workload,
`run_corollary_sweep(k=4, n=14, samples=1)` on a new seed each time (one
order-14 tournament through the sweep driver and the oracle, which
certifies L = 14 with a spanning path and runs no DP when greedy
extension finds one), in the fresh process before any large shape has
grown its heap.

n=22 runs next, so the process's peak RSS read right after it is that of
the n=22 calls.  Run with the package importable, for example

    PYTHONPATH=src python3 scripts/bench_dp_kernel.py
"""
import json
import resource
import statistics
import time

import numpy as np

from altpaths._dp_kernels import run_dp
from altpaths.graph_core import decode_codes, num_oriented, random_oriented
from altpaths.harness import SweepConfig, run_corollary_sweep
from altpaths.oracle import alt_path_lengths

SHAPES = [(22, 1), (14, 1), (5, 2000), (6, 2000), (16, 16), (20, 1)]

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


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(call) -> tuple[float, float, int]:
    """(median ms, mean minor faults) per call over about a second, and the call count."""
    call(0)
    times = []
    faults = minor_faults()
    while len(times) < 3 or sum(times) < 1.0:
        t0 = time.perf_counter()
        call(len(times) + 1)
        times.append(time.perf_counter() - t0)
    faults = minor_faults() - faults
    return 1000 * statistics.median(times), faults / len(times), len(times)


def row(shape: str, ms: float, faults: float, calls: int, **key) -> dict:
    print(f"{shape:20s}  {ms:9.3f} ms per call  {faults:8.1f} minor faults per call  ({calls} calls)")
    return {**key, "ms_per_call": round(ms, 3), "minflt_per_call": round(faults, 1), "calls": calls}


def main() -> None:
    def corollary_op(i: int) -> None:
        run_corollary_sweep(SweepConfig(mode="corollary", k=4, n=14, samples=1, stable=True, seed=i))

    ms, faults, calls = measure(corollary_op)
    corollary = row("corollary op", ms, faults, calls, k=4, n=14, samples=1)
    rows = []
    for n, batch in SHAPES:
        out_masks, in_masks = masks(n, batch)
        ms, faults, calls = measure(lambda i: run_dp(out_masks, in_masks, n))
        rows.append(row(f"n={n:2d} B={batch:5d}", ms, faults, calls, n=n, B=batch))
        if n == 22:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"peak RSS {peak_mb:.1f} MB after n=22")
    lengths = []
    for n, batch, p in LENGTH_SHAPES:
        out_masks, in_masks = masks(n, batch, p)
        ms, faults, calls = measure(lambda i: alt_path_lengths(out_masks, in_masks, n))
        lengths.append(row(f"L n={n} B={batch} p={p}", ms, faults, calls, n=n, B=batch, p=p))
    print(json.dumps({
        "shapes": rows, "alt_path_lengths": lengths, "corollary_op": corollary,
        "peak_rss_mb_n22": round(peak_mb, 1),
    }))


if __name__ == "__main__":
    main()
