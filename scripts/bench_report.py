#!/usr/bin/env python3
"""Milliseconds per render and per write of the stable n=5 report, JSON and CSV.

Runs the stable exhaustive n=5 theorem sweep (59,049 records) once and,
for each format, times two legs after one warm-up call each:
`harness.report_batches` consuming every batch (render), and
`harness.emit_report` writing the report over the same file again (emit),
each for about two seconds (at least 10 calls).  The emit leg writes into a
temporary directory, which tempfile picks (TMPDIR, else /tmp), and so
measures that directory's filesystem as well.  Prints each leg's median ms
per call and the report's size in bytes, then one JSON line with the
environment: cores, Python and numpy versions and whether numba is
importable.  Run with the package importable, for example

    PYTHONPATH=src python3 scripts/bench_report.py

With --against SRC, where SRC is the directory holding another checkout's
`altpaths` package (its `src`), that package is loaded into the same
process beside this one and runs the same sweep.  A side whose batches
are str has each batch encoded as ASCII, in the timed renders too, as
emit_report did for it.  The script asserts that both sides render the
same bytes in each format and that their emits write those bytes, each
side to its own file, then times one call of each side per alternation,
the side that goes first switching each time, for about two seconds a
side (at least 10 alternations) per leg.  Each side's median ms per call
and the share of alternations in which it was faster are printed.

    PYTHONPATH=src python3 scripts/bench_report.py --against ../other/src
"""
import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy

from altpaths import harness

FORMATS = ("json", "csv")


def load_against(src: str):
    """The harness module of the altpaths package in src, imported as altpaths_against."""
    package = os.path.join(os.path.abspath(src), "altpaths")
    spec = importlib.util.spec_from_file_location(
        "altpaths_against", os.path.join(package, "__init__.py"),
        submodule_search_locations=[package],
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return importlib.import_module("altpaths_against.harness")


def n5_report(module):
    """(render, document, emit) for the module's stable n=5 report.

    render(fmt) renders it whole and returns the byte count, document(fmt)
    returns its bytes, and emit(fmt, path) writes it to path.
    """
    cfg = module.SweepConfig(mode="exhaustive", n=5, stable=True)
    report = module.run_theorem_sweep(cfg)

    def encoded(fmt: str):
        for batch in module.report_batches(report, fmt):
            yield batch if isinstance(batch, bytes) else batch.encode("ascii")

    def render(fmt: str) -> int:
        return sum(map(len, encoded(fmt)))

    def document(fmt: str) -> bytes:
        return b"".join(encoded(fmt))

    def emit(fmt: str, path: str) -> None:
        module.emit_report(report, fmt, path)

    return render, document, emit


def timed(call) -> list[float]:
    """Seconds per call of call(), for about two seconds (at least 10 calls) after one warm-up."""
    call()
    times = []
    while len(times) < 10 or sum(times) < 2.0:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return times


def alternated(calls: dict) -> tuple[dict, dict]:
    """(seconds per call, wins) for each side's call, one of each per alternation.

    The side that goes first switches each alternation; each runs for about
    two seconds (at least 10 alternations) after one warm-up call.
    """
    for call in calls.values():
        call()
    times = {side: [] for side in calls}
    wins = dict.fromkeys(calls, 0)
    while len(times["this"]) < 10 or min(map(sum, times.values())) < 2.0:
        order = list(calls) if len(times["this"]) % 2 == 0 else list(calls)[::-1]
        took = {}
        for side in order:
            t0 = time.perf_counter()
            calls[side]()
            took[side] = time.perf_counter() - t0
            times[side].append(took[side])
        wins[min(took, key=took.get)] += 1
    return times, wins


def environment() -> dict:
    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    return {
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "numba": numba,
    }


def alone() -> None:
    render, document, emit = n5_report(harness)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in FORMATS:
            size = len(document(fmt))
            path = os.path.join(tmp, f"n5.{fmt}")
            row = {"format": fmt, "bytes": size}
            for leg, call in (("render", lambda: render(fmt)), ("emit", lambda: emit(fmt, path))):
                times = timed(call)
                ms = 1000 * statistics.median(times)
                print(
                    f"{fmt:4s} {leg:6s}  {ms:8.2f} ms per call  {size} bytes  ({len(times)} calls)"
                )
                row.update({f"{leg}s": len(times), f"{leg}_ms": round(ms, 2)})
            rows.append(row)
    print(json.dumps({"environment": environment(), "formats": rows}))


def against(src: str) -> None:
    sides = {"this": n5_report(harness), "against": n5_report(load_against(src))}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in FORMATS:
            this_doc, against_doc = (document(fmt) for _, document, _ in sides.values())
            if this_doc != against_doc:
                raise SystemExit(f"{fmt}: the two sides render different bytes")
            paths = {side: os.path.join(tmp, f"{side}.{fmt}") for side in sides}
            for side, (_, _, emit) in sides.items():
                emit(fmt, paths[side])
                with open(paths[side], "rb") as f:
                    if f.read() != this_doc:
                        raise SystemExit(f"{fmt}: {side} writes other bytes than it renders")
            row = {"format": fmt, "bytes": len(this_doc)}
            legs = {
                "render": {side: (lambda r=r: r(fmt)) for side, (r, _, _) in sides.items()},
                "emit": {
                    side: (lambda e=e, path=paths[side]: e(fmt, path))
                    for side, (_, _, e) in sides.items()
                },
            }
            for leg, calls in legs.items():
                times, wins = alternated(calls)
                count = len(times["this"])
                medians = {side: 1000 * statistics.median(values) for side, values in times.items()}
                print(
                    f"{fmt:4s} {leg:6s}  this {medians['this']:8.2f} ms ({wins['this']}/{count})"
                    f"  against {medians['against']:8.2f} ms ({wins['against']}/{count})"
                    f"  against/this {medians['against'] / medians['this']:.2f}"
                    f"  {len(this_doc)} equal bytes"
                )
                row[leg] = {
                    "alternations": count,
                    "this_ms": round(medians["this"], 2),
                    "against_ms": round(medians["against"], 2),
                    "this_wins": round(wins["this"] / count, 3),
                    "against_wins": round(wins["against"] / count, 3),
                }
            for side, path in paths.items():
                with open(path, "rb") as f:
                    if f.read() != this_doc:
                        raise SystemExit(f"{fmt}: {side}'s last emit left other bytes")
            rows.append(row)
    print(json.dumps({
        "against": os.path.abspath(src), "environment": environment(), "formats": rows,
    }))


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--against", metavar="SRC", help="another checkout's src directory")
    args = ap.parse_args()
    if args.against:
        against(args.against)
    else:
        alone()


if __name__ == "__main__":
    main()
