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

With --against SRC, where SRC is the directory holding another checkout's
`altpaths` package (its `src`), that package is loaded into the same
process beside this one, and `run_dp` of both is timed on the same masks
at each AGAINST_SHAPES shape: one call of each side per alternation, the
side that goes first switching each time, for about two seconds a side
(at least 10 alternations) after one warm-up call each.  Each side's
median ms per call and the share of alternations in which it was faster
are printed.  Medians of separate runs moved by up to 50% between runs of
the same code; alternating in one process cancels most of that drift.

    PYTHONPATH=src python3 scripts/bench_dp_kernel.py --against ../other/src
"""
import argparse
import importlib
import importlib.util
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

from altpaths._dp_kernels import run_dp
from altpaths.graph_core import decode_codes, num_oriented, random_oriented
from altpaths.harness import SweepConfig, run_corollary_sweep
from altpaths.oracle import alt_path_lengths

SHAPES = [(22, 1), (14, 1), (5, 2000), (6, 2000), (16, 16), (20, 1)]

# (n, B, p) batches timed through alt_path_lengths
LENGTH_SHAPES = [(14, 64, 1.0), (14, 64, 0.25)]

# (n, B, p) batches timed with --against; p None as in masks()
AGAINST_SHAPES = [(5, 2000, None), (6, 2000, None), (14, 64, 0.25), (16, 16, None), (20, 1, None)]


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


def load_against(src: str):
    """run_dp of the altpaths package in src, imported as altpaths_against."""
    package = os.path.join(os.path.abspath(src), "altpaths")
    spec = importlib.util.spec_from_file_location(
        "altpaths_against", os.path.join(package, "__init__.py"),
        submodule_search_locations=[package],
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return importlib.import_module("altpaths_against._dp_kernels").run_dp


def against(src: str) -> None:
    sides = {"this": run_dp, "against": load_against(src)}
    rows = []
    for n, batch, p in AGAINST_SHAPES:
        out_masks, in_masks = masks(n, batch, p)
        times = {side: [] for side in sides}
        wins = dict.fromkeys(sides, 0)
        for kernel in sides.values():
            kernel(out_masks, in_masks, n)
        while len(times["this"]) < 10 or min(map(sum, times.values())) < 2.0:
            order = list(sides) if len(times["this"]) % 2 == 0 else list(sides)[::-1]
            took = {}
            for side in order:
                t0 = time.perf_counter()
                sides[side](out_masks, in_masks, n)
                took[side] = time.perf_counter() - t0
                times[side].append(took[side])
            wins[min(took, key=took.get)] += 1
        count = len(times["this"])
        medians = {side: 1000 * statistics.median(values) for side, values in times.items()}
        print(
            f"n={n:2d} B={batch:5d} p={p}  this {medians['this']:9.3f} ms ({wins['this']}/{count})"
            f"  against {medians['against']:9.3f} ms ({wins['against']}/{count})"
            f"  against/this {medians['against'] / medians['this']:.2f}"
        )
        rows.append({
            "n": n, "B": batch, "p": p, "alternations": count,
            "this_ms": round(medians["this"], 3), "against_ms": round(medians["against"], 3),
            "this_wins": round(wins["this"] / count, 3),
            "against_wins": round(wins["against"] / count, 3),
        })
    print(json.dumps({"against": os.path.abspath(src), "shapes": rows}))


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--against", metavar="SRC", help="another checkout's src directory")
    args = ap.parse_args()
    if args.against:
        against(args.against)
        return

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
