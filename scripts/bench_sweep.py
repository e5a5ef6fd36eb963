#!/usr/bin/env python3
"""Milliseconds per pooled stable sweep, and the parent's CPU and page faults per sweep.

Each side runs the stable exhaustive n=5 theorem sweep (59,049 instances)
on worker processes at each (workers, chunk_size) of (2, 2000), (3, 2000)
and (2, 7), whose tasks cost about the same, and a stable random theorem
sweep of 600 instances of orders 10 to 17 at workers=2 and chunk_size=20,
whose tasks differ in cost with their orders.  At each setting the script
asserts that every side's report renders the same JSON bytes (which also
forks the workers), then times the sweeps.  The CPU time and the minor
page faults are this process's (`time.process_time`, every thread, and
`ru_minflt`); the workers are not counted.  With two sides the sides share
one heap, so after the first setting freed pages are reused and both
sides' fault counts can read 0.

Two more rows time what a user's run costs, each side in a new process
with its own src on PYTHONPATH:

- fresh process: `python -m altpaths.cli sweep --mode exhaustive --n 5
  --stable --workers 2 --out NEW`, where NEW does not exist when the run
  starts and is removed after it;
- fresh process, split: the same sweep and JSON emit in a child that
  reads the monotonic clock between its steps, which splits the wall
  time into interpreter start and imports, the sweep (which forks the
  workers), the emit, and the exit (which stops the workers).

With PYTHONDONTWRITEBYTECODE set, a package without up-to-date bytecode
is compiled from source in every new process, and the import counts it.

Each row runs through `bench_report.alternate`, which describes the
procedure and the output; each runs at least 24 rounds.  Run with the
package importable, for example

    PYTHONPATH=src python3 scripts/bench_sweep.py [--against ../other/src]
"""
import os
import tempfile
from functools import partial

from bench_report import SECONDS, alternate, finish, in_child, sample, show, sides

# each pooled leg's label and the SweepConfig fields of its stable sweep
SETTINGS = (
    *(
        (f"workers={w} chunk_size={c}", dict(mode="exhaustive", n=5, workers=w, chunk_size=c))
        for w, c in ((2, 2000), (3, 2000), (2, 7))
    ),
    (
        "random n=10..17",
        dict(mode="random", n_range=(10, 17), samples=600, workers=2, chunk_size=20),
    ),
)
ROUNDS = 24

SWEEP = ["sweep", "--mode", "exhaustive", "--n", "5", "--stable", "--workers", "2", "--out"]

# the CLI's sweep and emit, printing the monotonic clock after imports, sweep and emit
SPLIT = """\
import sys, time
from altpaths import cli
imported = time.perf_counter()
cfg = cli.harness.SweepConfig(mode="exhaustive", n=5, stable=True, workers=2)
report = cli.harness.run_theorem_sweep(cfg)
swept = time.perf_counter()
cli.harness.emit_report(report, "json", sys.argv[1])
print(imported, swept, time.perf_counter())
"""

SPLIT_READINGS = (
    ("ms", 1000), ("start_import_ms", 1000), ("sweep_ms", 1000), ("emit_ms", 1000),
    ("exit_ms", 1000),
)


def pooled_sweep(harness, fields: dict):
    """(sweep, document): one pooled stable sweep of these config fields, and its JSON bytes."""
    cfg = harness.SweepConfig(stable=True, **fields)

    def document() -> bytes:
        return b"".join(
            batch if isinstance(batch, bytes) else batch.encode("ascii")
            for batch in harness.report_batches(harness.run_theorem_sweep(cfg), "json")
        )

    return partial(harness.run_theorem_sweep, cfg), document


def fresh(package, split: bool, path: str):
    """call() -> the readings of one run in a new process with package's src on PYTHONPATH."""
    args = ["-c", SPLIT, path] if split else ["-m", "altpaths.cli", *SWEEP, path]

    def call() -> tuple[float, ...]:
        start, end, out = in_child(package, args, cwd=os.path.dirname(path))
        os.remove(path)
        if not split:
            return (end - start,)
        imported, swept, emitted = map(float, out.split())
        return end - start, imported - start, swept - imported, emitted - swept, end - emitted

    return call


def main() -> None:
    packages = sides(__doc__)
    rows = []
    for setting, fields in SETTINGS:
        sweeps = {side: pooled_sweep(package.harness, fields) for side, package in packages.items()}
        documents = {side: document() for side, (_, document) in sweeps.items()}
        if len(set(documents.values())) > 1:
            raise SystemExit(f"{setting}: the sides render different bytes")
        calls = {side: partial(sample, sweep) for side, (sweep, _) in sweeps.items()}
        row = show(setting, alternate(calls, ROUNDS, SECONDS))
        rows.append({"bytes": len(documents["this"]), **row})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "n5.json")
        for label, split in (("fresh process", False), ("fresh process, split", True)):
            calls = {side: fresh(package, split, path) for side, package in packages.items()}
            rows.append(show(label, alternate(calls, ROUNDS, SECONDS), SPLIT_READINGS))
    finish(packages, rows)


if __name__ == "__main__":
    main()
