"""The benchmark's workloads and the trace hooks placed on the program's layers.

Each workload makes its inputs from the seed, runs one operation at a time
(a closed loop with a single caller) and checks every output against a
reference computed without the program (see reference.py).
"""
from __future__ import annotations

import json
import os
from collections import Counter

import numpy as np

import reference
from altpaths import graph_core, harness, oracle, rotation_engine


class CheckFailure(Exception):
    """An output of the program disagrees with its independent reference."""


class ExhaustiveN5:
    """`altpath sweep --mode exhaustive --n 5 --stable --workers W --out FILE`.

    The input is the full labeled enumeration, so the seed changes nothing.
    """

    name = "exhaustive-n5"
    n = 5
    instances_per_op = 3 ** (5 * 4 // 2)
    ops_per_round = 1
    trace_rounds = 2

    def __init__(self, seed: int, out_dir: str, workers: int) -> None:
        self.workers = workers
        self.path = os.path.join(out_dir, f"{self.name}.json")

    def prepare(self) -> None:
        self.table = reference.load_table()
        self.ids = {f"exh{self.n}-{code}" for code in range(self.instances_per_op)}

    def run_op(self, i: int) -> None:
        cfg = harness.SweepConfig(mode="exhaustive", n=self.n, stable=True, workers=self.workers)
        report = harness.run_theorem_sweep(cfg)
        harness.emit_report(report, "json", self.path)

    def check(self, i: int, _result) -> None:
        with open(self.path, encoding="ascii") as f:
            doc = json.load(f)
        agg = doc["aggregates"]
        bad = {key: agg[key] for key in ("counterexamples", "finder_failures", "skipped") if agg[key]}
        if bad or agg["instances"] != self.instances_per_op:
            raise CheckFailure(f"aggregates {agg}")
        records = doc["records"]
        if len(records) != len(self.ids) or {r["graph_id"] for r in records} != self.ids:
            raise CheckFailure("records do not cover every code exactly once")
        counts = Counter()
        for r in records:
            pseudo = r["min_pseudo_semidegree"]
            counts[f"{'none' if pseudo is None else pseudo},{r['oracle_L']}"] += 1
            expected = "found" if reference.max_k(pseudo) >= 1 else ""
            if r["finder_outcome"] != expected:
                raise CheckFailure(f"{r['graph_id']}: finder_outcome {r['finder_outcome']!r}")
        if dict(counts) != self.table:
            raise CheckFailure(f"(pseudo, L) counts {dict(sorted(counts.items()))} != reference")


class CorollaryDense:
    """`run_corollary_sweep` at k=4 on one seeded tournament of order 14 per operation.

    Every tournament of order other than 3, 5 and 7 has an alternating
    Hamiltonian path (Grunbaum 1971), so the exact oracle must report L == n.
    """

    name = "corollary-dense"
    n = 14
    k = 4
    instances_per_op = 1
    ops_per_round = 1
    trace_rounds = 20

    def __init__(self, seed: int, out_dir: str, workers: int) -> None:
        self.seed = seed
        self.workers = 1

    def prepare(self) -> None:
        pass

    def run_op(self, i: int):
        cfg = harness.SweepConfig(
            mode="corollary", k=self.k, n=self.n, samples=1, stable=True,
            seed=(self.seed << 32) + i,
        )
        return harness.run_corollary_sweep(cfg)

    def check(self, i: int, report) -> None:
        agg = report.aggregates
        if agg["instances"] != 1 or agg["violations"] or agg["skipped"]:
            raise CheckFailure(f"aggregates {agg}")
        for r in report.records:
            if r["edges"] != self.n * (self.n - 1) // 2 or r["oracle_L"] != self.n:
                raise CheckFailure(f"{r['graph_id']}: edges={r['edges']} oracle_L={r['oracle_L']}")


def random_oriented_matrix(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Adjacency matrix: each pair present with probability p, orientation fair."""
    iu, ju = np.triu_indices(n, 1)
    present = rng.random(iu.size) < p
    forward = rng.random(iu.size) < 0.5
    tails = np.where(forward, iu, ju)[present]
    heads = np.where(forward, ju, iu)[present]
    adj = np.zeros((n, n), dtype=bool)
    adj[tails, heads] = True
    return adj


class FindLarge:
    """`find_alternating_path(g, kmax)` on a few large random oriented graphs.

    The graphs are written as edge lists and read back through load_graph,
    as `altpath find FILE --k K` would.  One round is one call per graph.
    """

    name = "find-large"
    n = 1500
    p = 0.5
    graphs = 3
    instances_per_op = 1
    ops_per_round = graphs
    trace_rounds = 34  # 102 calls, enough for a p90 with ten samples beyond it

    def __init__(self, seed: int, out_dir: str, workers: int) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.workers = 1

    def prepare(self) -> None:
        self.inputs = []
        for j in range(self.graphs):
            adj = random_oriented_matrix(self.n, self.p, np.random.default_rng([self.seed, j]))
            tails, heads = np.nonzero(adj)
            path = os.path.join(self.out_dir, f"{self.name}-{j}.el")
            with open(path, "w", encoding="ascii") as f:
                f.write(f"n={self.n}\n")
                f.writelines(f"{u} {v}\n" for u, v in zip(tails.tolist(), heads.tolist()))
            g = graph_core.load_graph(path)
            if g.n != self.n or g.edge_count != len(tails):
                raise CheckFailure(f"{path}: loaded n={g.n}, {g.edge_count} edges")
            k = harness.max_k_for(graph_core.min_pseudo_semidegree(g))
            pseudo = reference.pseudo_semidegree(adj.sum(axis=1).tolist(), adj.sum(axis=0).tolist())
            if k != reference.max_k(pseudo):
                raise CheckFailure(f"{path}: k={k} but pseudo-semidegree {pseudo} gives {reference.max_k(pseudo)}")
            self.inputs.append((g, k, adj))

    def run_op(self, i: int):
        g, k, _ = self.inputs[i % self.graphs]
        return rotation_engine.find_alternating_path(g, k)

    def check(self, i: int, out) -> None:
        _, k, adj = self.inputs[i % self.graphs]
        if out.outcome != "found" or out.path is None:
            raise CheckFailure(f"graph {i % self.graphs}: outcome {out.outcome}, reason {out.reason}")
        verts = out.path.verts
        problem = reference.path_problem(adj, verts, k)
        if problem is None and out.path.first_forward != adj[verts[0], verts[1]]:
            problem = "first_forward disagrees with the first arc"
        if problem is not None:
            raise CheckFailure(f"graph {i % self.graphs}: {problem}")


WORKLOADS = {w.name: w for w in (ExhaustiveN5, CorollaryDense, FindLarge)}


def plan_hooks(tr) -> None:
    """Spans at each layer boundary, bound where the callers look the names up."""
    c = tr.counters

    def add(name, amount):
        c[name] += amount

    for name in (
        "graph_core.load_graph.bytes",
        "oracle.run_dp.masks",
        "altpath.greedy_extend.appended",
        "rotation_engine.find_alternating_path.rounds",
        "rotation_engine.greedy_only",
        "harness.emit_report.bytes",
    ):
        tr.counter(name)

    def on_find(args, kwargs, out):
        add("rotation_engine.find_alternating_path.rounds", out.rounds)
        add("rotation_engine.greedy_only", out.rounds == 0)

    tr.span(harness, "run_theorem_sweep", "harness.sweep")
    tr.span(harness, "run_corollary_sweep", "harness.sweep")
    tr.span(harness, "emit_report", "harness.emit_report",
            lambda a, kw, r: add("harness.emit_report.bytes", os.path.getsize(a[2])))
    tr.count(harness, "_exhaustive_chunk", "harness.fanout.chunks")
    tr.count(harness, "_corollary_chunk", "harness.fanout.chunks")
    tr.span(harness, "graph_from_code", "graph_core.graph_from_code")
    tr.span(harness, "random_oriented", "graph_core.random_oriented")
    tr.span(harness, "min_pseudo_semidegree", "graph_core.min_pseudo_semidegree")
    tr.span(rotation_engine, "min_pseudo_semidegree", "graph_core.min_pseudo_semidegree")
    tr.span(harness, "min_semidegree", "graph_core.min_semidegree")
    tr.span(graph_core, "load_graph", "graph_core.load_graph",
            lambda a, kw, r: add("graph_core.load_graph.bytes", os.path.getsize(a[0])))
    tr.span(oracle, "run_dp", "oracle.run_dp",
            lambda a, kw, r: add("oracle.run_dp.masks", 1 << a[2]))
    tr.span(harness, "longest_alt_path_exact", "oracle.longest_alt_path_exact")
    tr.span(rotation_engine, "longest_alt_path_exact", "rotation_engine.oracle_fallback")
    tr.span(harness, "find_alternating_path", "rotation_engine.find_alternating_path", on_find)
    tr.span(rotation_engine, "find_alternating_path", "rotation_engine.find_alternating_path", on_find)
    tr.span(rotation_engine, "greedy_extend", "altpath.greedy_extend",
            lambda a, kw, r: add("altpath.greedy_extend.appended", r.order - a[1].order))
    for stage in ("start_closure", "two_sided_closure_extension", "evenham_cycle", "build_Q"):
        tr.span(rotation_engine, stage, f"rotation_engine.{stage}")
    tr.span(rotation_engine, "mm_hamilton_cycle", "bipartite_mm.mm_hamilton_cycle")
