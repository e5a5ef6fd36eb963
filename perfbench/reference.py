#!/usr/bin/env python3
"""Independent correctness references for the benchmark.

Nothing here imports the program.  The exhaustive n=5 table counts, over
all 3^10 labeled oriented graphs on five vertices, how many graphs have
each (pseudo-semidegree, longest alternating path order) pair.  It is made
by a plain depth-first search over paths, not by the program's subset DP.

Regenerate the committed table with:

    python3 perfbench/reference.py

The path checker validates a returned alternating path against the
benchmark's own adjacency matrix.
"""
from __future__ import annotations

import itertools
import json
import os
import sys

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref_exhaustive_n5.json")
N5 = 5


def pseudo_semidegree(out_deg, in_deg):
    """Smallest strictly positive in- or out-degree; None for an edgeless graph."""
    positive = [d for d in list(out_deg) + list(in_deg) if d > 0]
    return min(positive) if positive else None


def max_k(pseudo) -> int:
    """Largest k with pseudo > 5k/8, or 0 when pseudo is undefined."""
    return 0 if pseudo is None else (8 * pseudo - 1) // 5


def longest_alternating_dfs(n: int, arcs: set[tuple[int, int]]) -> int:
    """Order of a longest alternating path, by exhaustive depth-first search.

    A step from a to b goes along the arc a->b ("forward") or against the
    arc b->a ("backward"); consecutive steps must differ in kind.
    """
    nbrs = {v: [] for v in range(n)}
    for a, b in arcs:
        nbrs[a].append((b, True))
        nbrs[b].append((a, False))
    best = 1 if n else 0

    def walk(v: int, visited: set[int], last_forward: bool | None) -> None:
        nonlocal best
        best = max(best, len(visited))
        for w, forward in nbrs[v]:
            if w not in visited and forward != last_forward:
                visited.add(w)
                walk(w, visited, forward)
                visited.remove(w)

    for v in range(n):
        walk(v, {v}, None)
    return best


def exhaustive_table(n: int) -> dict[str, int]:
    """Counts keyed "pseudo,L" (pseudo "none" when edgeless) over all labeled graphs."""
    pairs = list(itertools.combinations(range(n), 2))
    counts: dict[str, int] = {}
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = set()
        for (u, v), c in zip(pairs, choice):
            if c == 1:
                arcs.add((u, v))
            elif c == 2:
                arcs.add((v, u))
        out_deg = [0] * n
        in_deg = [0] * n
        for a, b in arcs:
            out_deg[a] += 1
            in_deg[b] += 1
        pseudo = pseudo_semidegree(out_deg, in_deg)
        key = f"{'none' if pseudo is None else pseudo},{longest_alternating_dfs(n, arcs)}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def load_table() -> dict[str, int]:
    with open(TABLE_PATH, encoding="utf-8") as f:
        return json.load(f)["counts"]


def path_problem(adj, verts, k: int) -> str | None:
    """Why `verts` is not an alternating path of order k in adj, or None if it is.

    adj is a square boolean matrix with adj[a, b] true iff the arc a->b exists.
    """
    n = len(adj)
    if len(verts) != k:
        return f"order {len(verts)} != {k}"
    if len(set(verts)) != len(verts):
        return "repeated vertex"
    if any(not 0 <= v < n for v in verts):
        return "vertex out of range"
    last = None
    for a, b in zip(verts, verts[1:]):
        if adj[a, b]:
            forward = True
        elif adj[b, a]:
            forward = False
        else:
            return f"no arc between {a} and {b}"
        if forward == last:
            return f"direction does not alternate at {a}"
        last = forward
    return None


def main() -> int:
    counts = exhaustive_table(N5)
    doc = {
        "n": N5,
        "graphs": sum(counts.values()),
        "method": "plain DFS over alternating paths, python3 perfbench/reference.py",
        "counts": counts,
    }
    with open(TABLE_PATH, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {TABLE_PATH}: {doc['graphs']} graphs, {len(counts)} (pseudo, L) classes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
