#!/usr/bin/env python3
"""Milliseconds per render of the stable n=5 report, JSON and CSV.

Runs the stable exhaustive n=5 theorem sweep (59,049 records) once and
times `harness.report_batches` on it for each format, consuming every
batch, for about two seconds a format (at least 10 renders) after one
warm-up render.  Prints each format's median ms per render and its size
in bytes, then one JSON line with the environment: cores, Python and
numpy versions and whether numba is importable.  Run with the package importable, for
example

    PYTHONPATH=src python3 scripts/bench_report.py

With --against SRC, where SRC is the directory holding another checkout's
`altpaths` package (its `src`), that package is loaded into the same
process beside this one and runs the same sweep.  A side whose batches
are str has each batch encoded as ASCII, in the timed renders too, as
emit_report did for it.  The script asserts that both sides render the
same bytes in each format, then times one render of each side per alternation,
the side that goes first switching each time, for about two seconds a
side (at least 10 alternations) after one warm-up render each.  Each
side's median ms per render and the share of alternations in which it was
faster are printed.

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


def n5_render(module):
    """render(fmt) -> the byte count of one full render of the module's stable n=5 report."""
    cfg = module.SweepConfig(mode="exhaustive", n=5, stable=True)
    report = module.run_theorem_sweep(cfg)

    def encoded(fmt: str):
        for batch in module.report_batches(report, fmt):
            yield batch if isinstance(batch, bytes) else batch.encode("ascii")

    def render(fmt: str) -> int:
        return sum(map(len, encoded(fmt)))

    def document(fmt: str) -> bytes:
        return b"".join(encoded(fmt))

    return render, document


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
    render, document = n5_render(harness)
    rows = []
    for fmt in FORMATS:
        size = len(document(fmt))
        render(fmt)
        times = []
        while len(times) < 10 or sum(times) < 2.0:
            t0 = time.perf_counter()
            render(fmt)
            times.append(time.perf_counter() - t0)
        ms = 1000 * statistics.median(times)
        print(f"{fmt:4s}  {ms:8.2f} ms per render  {size} bytes  ({len(times)} renders)")
        rows.append({"format": fmt, "bytes": size, "renders": len(times), "ms": round(ms, 2)})
    print(json.dumps({"environment": environment(), "formats": rows}))


def against(src: str) -> None:
    sides = {"this": n5_render(harness), "against": n5_render(load_against(src))}
    rows = []
    for fmt in FORMATS:
        this_doc, against_doc = (document(fmt) for _, document in sides.values())
        if this_doc != against_doc:
            raise SystemExit(f"{fmt}: the two sides render different bytes")
        times = {side: [] for side in sides}
        wins = dict.fromkeys(sides, 0)
        for render, _ in sides.values():
            render(fmt)
        while len(times["this"]) < 10 or min(map(sum, times.values())) < 2.0:
            order = list(sides) if len(times["this"]) % 2 == 0 else list(sides)[::-1]
            took = {}
            for side in order:
                t0 = time.perf_counter()
                sides[side][0](fmt)
                took[side] = time.perf_counter() - t0
                times[side].append(took[side])
            wins[min(took, key=took.get)] += 1
        count = len(times["this"])
        medians = {side: 1000 * statistics.median(values) for side, values in times.items()}
        print(
            f"{fmt:4s}  this {medians['this']:8.2f} ms ({wins['this']}/{count})"
            f"  against {medians['against']:8.2f} ms ({wins['against']}/{count})"
            f"  against/this {medians['against'] / medians['this']:.2f}"
            f"  {len(this_doc)} equal bytes"
        )
        rows.append({
            "format": fmt, "bytes": len(this_doc), "alternations": count,
            "this_ms": round(medians["this"], 2), "against_ms": round(medians["against"], 2),
            "this_wins": round(wins["this"] / count, 3),
            "against_wins": round(wins["against"] / count, 3),
        })
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
