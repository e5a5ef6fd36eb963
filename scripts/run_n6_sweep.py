#!/usr/bin/env python3
"""Exhaustive n=6 theorem sweep (about 14.3M labeled oriented graphs).

Runs the oracle on every graph and the constructive finder on the graphs
with kmax >= 2, keeping only violating records; prints the aggregate
summary, then the elapsed time and instances per second on stderr, and
exits 1 on any counterexample or finder failure.  L comes from a table
of all 59,049 order-5 graphs that each worker fills once.  With
--workers 2 on a 2-core x86-64 machine (Python 3.11.7, numpy 2.4.6), ten
runs printed 4.1-5.0 s (median 4.45 s), 2,860,000-3,510,000 instances/s,
and took 4.3-5.3 s (median 4.65 s) from process start to exit.
"""
import argparse
import json
import os
import sys
import time

from altpaths.harness import (
    SweepConfig,
    emit_report,
    run_theorem_sweep,
    sweep_failed,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=min(8, os.cpu_count() or 1))
    ap.add_argument("--chunk-size", type=int, default=50000)
    ap.add_argument("--out", default=None, help="optional JSON report path")
    args = ap.parse_args()

    cfg = SweepConfig(
        mode="exhaustive",
        n=6,
        workers=args.workers,
        chunk_size=args.chunk_size,
        stable=True,
        aggregate_only=True,
    )
    t0 = time.time()
    report = run_theorem_sweep(cfg)
    elapsed = time.time() - t0
    print(json.dumps(report.aggregates, sort_keys=True))
    rate = report.aggregates["instances"] / elapsed
    print(
        f"elapsed: {elapsed:.1f}s with {args.workers} workers, {rate:,.0f} instances/s",
        file=sys.stderr,
    )
    if args.out:
        emit_report(report, "json", args.out)
    if sweep_failed(report):
        print("FAIL: violations found", file=sys.stderr)
        return 1
    print("clean: no counterexamples, no finder failures", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
