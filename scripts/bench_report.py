#!/usr/bin/env python3
"""Milliseconds per render and per write of the stable n=5 report, JSON and CSV.

Each side runs the stable exhaustive n=5 theorem sweep (59,049 records)
once.  For each format the script asserts that every side renders the
same bytes and that its emit writes them, then times two legs:
`harness.report_batches` consuming every batch (render) and
`harness.emit_report` writing the report over the same file again
(emit), each side to its own file.  A side whose batches are str has
each batch encoded as ASCII, in the timed renders too, as emit_report
did for it.  The files sit in a temporary directory, which tempfile
picks (TMPDIR, else /tmp), so the emit leg measures that directory's
filesystem as well.

This module also holds what the bench scripts share.  Each runs
every leg through `alternate`, on one side, this checkout's `altpaths`,
or with --against SRC on two: SRC is the directory holding another
checkout's `altpaths` package (its `src`), which `load_against` loads
into the same process beside this one.  Each leg prints one line per
side with the median and quartiles (q1-q3) of every reading and, with
two sides, the rounds that side won; then one JSON line holds every row
and the `environment`.  Run with the package importable, for example

    PYTHONPATH=src python3 scripts/bench_report.py
    PYTHONPATH=src python3 scripts/bench_report.py --against ../other/src
"""
import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial

import numpy

import altpaths
import altpaths.harness  # noqa: F401 - sets altpaths.harness, as load_against does

FORMATS = ("json", "csv")
ROUNDS, SECONDS = 10, 2.0

# the name and scale of each reading that `sample` takes
READINGS = (("ms", 1000), ("cpu_ms", 1000), ("minflt", 1))


def load_against(src: str):
    """The altpaths package in src, imported as altpaths_against, with its harness."""
    package = os.path.join(os.path.abspath(src), "altpaths")
    spec = importlib.util.spec_from_file_location(
        "altpaths_against", os.path.join(package, "__init__.py"),
        submodule_search_locations=[package],
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    importlib.import_module("altpaths_against.harness")
    return module


def n5_report(module):
    """(render, document, emit) for the harness module's stable n=5 report.

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


def sides(doc: str) -> dict:
    """{"this": altpaths}, and with --against SRC on the command line {"against": SRC's} too."""
    ap = argparse.ArgumentParser(
        description=doc, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--against", metavar="SRC", help="another checkout's src directory")
    src = ap.parse_args().against
    return {"this": altpaths, **({"against": load_against(src)} if src else {})}


def src_of(package) -> str:
    return os.path.dirname(package.__path__[0])


def in_child(package, args: list, cwd: str | None = None) -> tuple[float, float, str]:
    """(start, end, stdout) of `python *args`, a new process with package's src on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": src_of(package)}
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, check=True, text=True
    ).stdout
    return start, time.perf_counter(), out


def sample(call) -> tuple[float, float, int]:
    """Wall seconds, this process's CPU seconds (all threads) and minor page faults in call()."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    wall, cpu = time.perf_counter(), time.process_time()
    call()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return wall, cpu, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def alternate(calls: dict, rounds: int, seconds: float) -> dict:
    """Quartiles of each side's readings over alternating rounds, and each side's win share.

    calls maps each side to a callable that returns a tuple of readings,
    wall seconds first.  After one warm-up call per side, each round calls
    every side once, the side that goes first switching each round, until
    at least `rounds` rounds (at least 2) have run and every side's wall
    seconds sum to at least `seconds`.  Returns {"rounds": count, "sides":
    {side: {"quartiles": [[q1, median, q3] per reading, in call order]}}};
    with two sides each side also holds "wins", the share of rounds in
    which its wall reading was the lower.
    """
    for call in calls.values():
        call()
    readings = {side: [] for side in calls}
    walls = dict.fromkeys(calls, 0.0)
    wins = dict.fromkeys(calls, 0)
    count = 0
    while count < rounds or min(walls.values()) < seconds:
        for side in list(calls)[:: 1 if count % 2 == 0 else -1]:
            readings[side].append(calls[side]())
            walls[side] += readings[side][-1][0]
        wins[min(calls, key=lambda side: readings[side][-1][0])] += 1
        count += 1
    result = {"rounds": count, "sides": {}}
    for side, rows in readings.items():
        quartiles = [statistics.quantiles(values, method="inclusive") for values in zip(*rows)]
        result["sides"][side] = {"quartiles": quartiles}
        if len(calls) > 1:
            result["sides"][side]["wins"] = wins[side] / count
    return result


def show(label: str, result: dict, readings=READINGS) -> dict:
    """Prints one line per side of an alternate result; returns its JSON row."""
    row = {"leg": label, "rounds": result["rounds"]}
    for side, stats in result["sides"].items():
        row[side] = {
            name: [round(scale * q, 3) for q in quartiles]
            for (name, scale), quartiles in zip(readings, stats["quartiles"])
        }
        text = "  ".join(f"{name} {q[1]:g} ({q[0]:g}-{q[2]:g})" for name, q in row[side].items())
        if "wins" in stats:
            row[side]["wins"] = round(stats["wins"], 3)
            text += f"  won {round(stats['wins'] * result['rounds'])}/{result['rounds']}"
        print(f"{label:26s} {side:7s}  {text}")
    return row


def environment() -> dict:
    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    return {
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "numba": numba,
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def finish(packages: dict, rows: list, **extra) -> None:
    """Prints the JSON line: the other side's src with --against, the environment and the rows."""
    doc = {"environment": environment(), "rows": rows, **extra}
    if "against" in packages:
        doc["against"] = src_of(packages["against"])
    print(json.dumps(doc))


def written(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def main() -> None:
    packages = sides(__doc__)
    reports = {side: n5_report(package.harness) for side, package in packages.items()}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in FORMATS:
            doc = reports["this"][1](fmt)
            paths = {side: os.path.join(tmp, f"{side}.{fmt}") for side in reports}
            for side, (_, document, emit) in reports.items():
                if document(fmt) != doc:
                    raise SystemExit(f"{fmt}: the two sides render different bytes")
                emit(fmt, paths[side])
                if written(paths[side]) != doc:
                    raise SystemExit(f"{fmt}: {side} writes other bytes than it renders")
            print(f"{fmt}: {len(doc)} bytes, equal on every side")
            legs = {
                "render": {side: partial(r, fmt) for side, (r, _, _) in reports.items()},
                "emit": {side: partial(e, fmt, paths[side]) for side, (_, _, e) in reports.items()},
            }
            for leg, calls in legs.items():
                calls = {side: partial(sample, call) for side, call in calls.items()}
                row = show(f"{fmt} {leg}", alternate(calls, ROUNDS, SECONDS))
                rows.append({"bytes": len(doc), **row})
            for side, path in paths.items():
                if written(path) != doc:
                    raise SystemExit(f"{fmt}: {side}'s last emit left other bytes")
    finish(packages, rows)


if __name__ == "__main__":
    main()
