#!/usr/bin/env python3
"""Milliseconds per pooled stable n=5 sweep, and the parent's CPU and page faults per sweep.

Runs the stable exhaustive n=5 theorem sweep (59,049 instances) on worker
processes at each (workers, chunk_size) of (2, 2000), (3, 2000) and
(2, 7).  At each setting one warm-up sweep forks the workers; then sweeps
are timed, for about two seconds (at least 24 sweeps).  Prints the median
wall time per sweep, the parent's median CPU time per sweep (every thread
of this process: time.process_time), the parent's median minor page
faults per sweep (ru_minflt of this process; the workers are not counted)
and the sweep's JSON size, then one JSON line with the environment: cores,
Python and numpy versions and whether numba is importable.  Run with the
package importable, for example

    PYTHONPATH=src python3 scripts/bench_sweep.py

With --against SRC, where SRC is the directory holding another checkout's
`altpaths` package (its `src`), that package is loaded into the same
process beside this one, as scripts/bench_report.py does, and runs the
same sweeps on its own workers.  At each setting the script asserts that
both sides' reports render the same JSON bytes, then times one sweep of
each side per alternation, the side that goes first switching each time,
for about two seconds a side (at least 24 alternations; at (2, 7), 10
let repeated runs flip which side was faster) after one warm-up sweep
each.  Each side's median wall and parent CPU ms
and parent minor page faults per sweep and the share of alternations in
which it was faster are printed.  The sides share one heap, so after the
first setting freed pages are reused and both sides' fault counts can
read 0.

    PYTHONPATH=src python3 scripts/bench_sweep.py --against ../other/src
"""
import argparse
import json
import os
import resource
import statistics
import time

from altpaths import harness
from bench_report import environment, load_against

SETTINGS = ((2, 2000), (3, 2000), (2, 7))
MIN_ALTERNATIONS = 24


def n5_sweep(module, workers: int, chunk_size: int):
    """sweep() -> (wall s, parent CPU s, parent minor faults) of one pooled stable n=5 sweep."""
    cfg = module.SweepConfig(
        mode="exhaustive", n=5, stable=True, workers=workers, chunk_size=chunk_size
    )

    def sweep() -> tuple[float, float, int]:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        wall, cpu = time.perf_counter(), time.process_time()
        module.run_theorem_sweep(cfg)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return wall, cpu, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    def document() -> bytes:
        report = module.run_theorem_sweep(cfg)
        return b"".join(
            batch if isinstance(batch, bytes) else batch.encode("ascii")
            for batch in module.report_batches(report, "json")
        )

    return sweep, document


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--against", metavar="SRC", help="another checkout's src directory")
    args = ap.parse_args()
    modules = {"this": harness}
    if args.against:
        modules["against"] = load_against(args.against)
    rows = []
    for workers, chunk_size in SETTINGS:
        sides = {side: n5_sweep(module, workers, chunk_size) for side, module in modules.items()}
        documents = {side: document() for side, (_, document) in sides.items()}  # forks the workers
        if len(set(documents.values())) > 1:
            raise SystemExit(
                f"workers={workers} chunk_size={chunk_size}: the sides render different bytes"
            )
        walls = {side: [] for side in sides}
        cpus = {side: [] for side in sides}
        faults = {side: [] for side in sides}
        wins = dict.fromkeys(sides, 0)
        while len(walls["this"]) < MIN_ALTERNATIONS or min(map(sum, walls.values())) < 2.0:
            order = list(sides) if len(walls["this"]) % 2 == 0 else list(sides)[::-1]
            for side in order:
                wall, cpu, fault = sides[side][0]()
                walls[side].append(wall)
                cpus[side].append(cpu)
                faults[side].append(fault)
            if len(sides) > 1:
                wins[min(sides, key=lambda side: walls[side][-1])] += 1
        count = len(walls["this"])
        row = {
            "workers": workers, "chunk_size": chunk_size,
            "bytes": len(documents["this"]), "sweeps": count,
        }
        line = f"workers={workers} chunk_size={chunk_size:5d}"
        for side in sides:
            wall_ms = 1000 * statistics.median(walls[side])
            cpu_ms = 1000 * statistics.median(cpus[side])
            minflt = statistics.median(faults[side])
            row[f"{side}_ms"], row[f"{side}_parent_cpu_ms"] = round(wall_ms, 2), round(cpu_ms, 2)
            row[f"{side}_parent_minflt"] = minflt
            line += f"  {side} {wall_ms:8.2f} ms, parent CPU {cpu_ms:7.2f} ms, {minflt:6.0f} faults"
            if len(sides) > 1:
                row[f"{side}_wins"] = round(wins[side] / count, 3)
                line += f" ({wins[side]}/{count} faster)"
        print(f"{line}  {len(documents['this'])} bytes, {count} sweeps a side")
        rows.append(row)
    doc = {"environment": environment(), "settings": rows}
    if args.against:
        doc = {"against": os.path.abspath(args.against), **doc}
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
