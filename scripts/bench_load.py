#!/usr/bin/env python3
"""Edge-list load time and memory, and where a fresh `altpath find` spends its time.

The script writes one edge list like perfbench's find-large inputs: 1,500
vertices, each pair present with p = 1/2 and oriented by a fair coin,
drawn by numpy.random.default_rng(SEED), its arcs in row-major order,
about 562k arcs in 4.8 MB.  K is the largest order the theorem promises
for the graph's minimum pseudo-semidegree.  Two legs follow, each
running every call in a new process with the side's src on PYTHONPATH,
as two sides in one process can favour one of them:

- load: `graph_core.load_graph` of the file, its wall time, then in a
  second call its peak of traced memory (`tracemalloc`); each side must
  load the same graph;
- fresh find, split: the CLI's `find FILE --k K` (load_graph, then
  find_alternating_path, then the JSON line) in a child that reads the
  monotonic clock between its steps, which splits the wall time into
  interpreter start and imports, load, find, and exit; each side must
  print the same JSON line as this checkout.

With PYTHONDONTWRITEBYTECODE set, a package without up-to-date bytecode
is compiled from source in every new process, and the imports count it.

Each leg runs through `bench_report.alternate`, which describes the
procedure and the output.  Run with the package importable, for example

    PYTHONPATH=src python3 scripts/bench_load.py [--against ../other/src]
"""
import hashlib
import json
import os
import tempfile
from functools import partial

import numpy as np

from bench_report import SECONDS, alternate, finish, in_child, show, sides, src_of

N, P, SEED = 1500, 0.5, 1
ROUNDS = 20

# one load timed, one traced; prints wall seconds, peak bytes and a digest of the graph
LOAD = """\
import hashlib, sys, time, tracemalloc
from altpaths.graph_core import load_graph
start = time.perf_counter()
g = load_graph(sys.argv[1])
wall = time.perf_counter() - start
tracemalloc.start()
load_graph(sys.argv[1])
peak = tracemalloc.get_traced_memory()[1]
print(wall, peak, hashlib.sha256(repr((g.n, g.out_masks)).encode()).hexdigest())
"""
LOAD_READINGS = (("ms", 1000), ("peak_mb", 1e-6))

# the CLI's find, printing the monotonic clock after imports, load and find
FIND = """\
import json, sys, time
from altpaths import cli
imported = time.perf_counter()
g = cli.load_graph(sys.argv[1])
loaded = time.perf_counter()
outcome = cli.find_alternating_path(g, int(sys.argv[2]), cli.EngineBudget())
print(json.dumps(outcome.to_json(), sort_keys=True))
print(imported, loaded, time.perf_counter())
"""
FIND_READINGS = (
    ("ms", 1000), ("start_import_ms", 1000), ("load_ms", 1000), ("find_ms", 1000),
    ("exit_ms", 1000),
)


def write_edge_list(path: str, n: int = N) -> int:
    """Writes the random order-n graph's edge list to path; returns its arc count."""
    rng = np.random.default_rng(SEED)
    u, v = np.triu_indices(n, 1)
    present = rng.random(u.size) < P
    forward = rng.random(u.size) < 0.5
    adj = np.zeros((n, n), dtype=bool)
    adj[np.where(forward, u, v)[present], np.where(forward, v, u)[present]] = True
    arcs = np.argwhere(adj)
    np.savetxt(path, arcs, fmt="%d", header=f"n={n}", comments="")
    return len(arcs)


def legs(packages: dict, path: str) -> list:
    """(label, {side: call}, readings) of the two legs on the edge list at path."""
    this = packages["this"]
    g = this.graph_core.load_graph(path)
    digest = hashlib.sha256(repr((g.n, g.out_masks)).encode()).hexdigest()
    k = this.harness.max_k_for(this.graph_core.min_pseudo_semidegree(g))
    found = json.dumps(this.rotation_engine.find_alternating_path(g, k).to_json(), sort_keys=True)

    def load(package):
        _, _, out = in_child(package, ["-c", LOAD, path])
        wall, peak, graph = out.split()
        if graph != digest:
            raise SystemExit(f"{src_of(package)} loads another graph")
        return float(wall), int(peak)

    def find(package):
        start, end, out = in_child(package, ["-c", FIND, path, str(k)])
        doc, clock = out.splitlines()
        if doc != found:
            raise SystemExit(f"{src_of(package)} finds {doc}, not {found}")
        imported, loaded, done = map(float, clock.split())
        return end - start, imported - start, loaded - imported, done - loaded, end - done

    return [
        (label, {side: partial(leg, package) for side, package in packages.items()}, readings)
        for label, leg, readings in (
            ("load", load, LOAD_READINGS),
            (f"fresh find --k {k}, split", find, FIND_READINGS),
        )
    ]


def main() -> None:
    packages = sides(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "find-large.el")
        arcs = write_edge_list(path)
        print(f"{N} vertices, {arcs} arcs, {os.path.getsize(path)} bytes")
        rows = [
            show(label, alternate(calls, ROUNDS, SECONDS), readings)
            for label, calls, readings in legs(packages, path)
        ]
    finish(packages, rows, vertices=N, arcs=arcs)


if __name__ == "__main__":
    main()
