"""The undirected bipartite graph of source->sink edges and its Hamilton machinery.

Holds the Moon-Moser degree check and a constructive rotation-extension
Hamilton cycle search with an exact fallback.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .altpath import ParityFrame
from .errors import BadParams, BudgetExceeded, NotOnCycle
from .graph_core import OrientedGraph, bits

MAX_EXACT_M = 16  # largest part size handed to the exact Hamilton backtracker


@dataclass(frozen=True)
class BipartiteView:
    """Parts X, Y as sorted global vertex ids; adjacency only between parts."""

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    adj_x: tuple[int, ...]  # per X index, bitmask over Y indices
    adj_y: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.xs)

    def deg_x(self, i: int) -> int:
        return self.adj_x[i].bit_count()

    def deg_y(self, j: int) -> int:
        return self.adj_y[j].bit_count()


def build_H(g: OrientedGraph, frame: ParityFrame) -> BipartiteView:
    """Edges x~y iff the directed edge x->y exists with x a source, y a sink."""
    xs = tuple(sorted(frame.sources))
    ys = tuple(sorted(frame.sinks))
    y_idx = {v: j for j, v in enumerate(ys)}
    adj_x = [0] * len(xs)
    adj_y = [0] * len(ys)
    for i, x in enumerate(xs):
        for w in bits(g.out_masks[x]):
            j = y_idx.get(w)
            if j is not None:
                adj_x[i] |= 1 << j
                adj_y[j] |= 1 << i
    return BipartiteView(xs, ys, tuple(adj_x), tuple(adj_y))


def drop_vertices(h: BipartiteView, drop_x: int | None, drop_y: int | None) -> BipartiteView:
    """Copy of h without the given global vertices (one per side, optional)."""
    keep_x = [i for i, v in enumerate(h.xs) if v != drop_x]
    keep_y = [j for j, v in enumerate(h.ys) if v != drop_y]
    remap_y = {old: new for new, old in enumerate(keep_y)}
    adj_x = []
    for i in keep_x:
        mask = 0
        for j in bits(h.adj_x[i]):
            if j in remap_y:
                mask |= 1 << remap_y[j]
        adj_x.append(mask)
    adj_y = [0] * len(keep_y)
    for new_i, mask in enumerate(adj_x):
        for j in bits(mask):
            adj_y[j] |= 1 << new_i
    return BipartiteView(
        tuple(h.xs[i] for i in keep_x),
        tuple(h.ys[j] for j in keep_y),
        tuple(adj_x),
        tuple(adj_y),
    )


def _low_degree_class(h: BipartiteView, slack: int) -> tuple[int, list[int]] | None:
    """Smallest l in 1..m/2 where some part has >= l vertices of degree <= l + slack.

    Returns (l, those vertices of the first such part, X before Y), or None.
    """
    for ell in range(1, h.m // 2 + 1):
        for verts, adj in ((h.xs, h.adj_x), (h.ys, h.adj_y)):
            low = [v for v, mask in zip(verts, adj) if mask.bit_count() <= ell + slack]
            if len(low) >= ell:
                return ell, low
    return None


def moon_moser_check(h: BipartiteView) -> tuple[int, list[int]] | None:
    """None on pass; else (smallest failing l, offending global vertices).

    Pass means: for every l with 1 <= l <= m/2, fewer than l vertices per
    side have degree <= l.
    """
    if h.m < 2:
        raise BadParams("Moon-Moser condition needs m >= 2")
    return _low_degree_class(h, 0)


def _normalize_cycle(cycle: list[int]) -> list[int]:
    """Rotate to the smallest vertex, directed toward its smaller neighbor."""
    k = cycle.index(min(cycle))
    cyc = cycle[k:] + cycle[:k]
    if cyc[-1] < cyc[1]:
        cyc = [cyc[0]] + cyc[:0:-1]
    return cyc


def cycle_is_valid(h: BipartiteView, cycle: list[int]) -> bool:
    if len(cycle) != 2 * h.m or set(cycle) != set(h.xs) | set(h.ys):
        return False
    x_pos = {v: i for i, v in enumerate(h.xs)}
    y_pos = {v: j for j, v in enumerate(h.ys)}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if a in x_pos and b in y_pos:
            if not (h.adj_x[x_pos[a]] >> y_pos[b]) & 1:
                return False
        elif a in y_pos and b in x_pos:
            if not (h.adj_x[x_pos[b]] >> y_pos[a]) & 1:
                return False
        else:
            return False
    return True


def _posa_cycle(h: BipartiteView, max_steps: int) -> list[int] | None:
    """Rotation-extension pass; quick on dense instances, may give up."""
    n = 2 * h.m
    verts = list(h.xs) + list(h.ys)
    pos_of = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for i in range(h.m):
        for j in bits(h.adj_x[i]):
            a, b = pos_of[h.xs[i]], pos_of[h.ys[j]]
            adj[a] |= 1 << b
            adj[b] |= 1 << a

    path = [0]
    used = 1
    steps = 0
    tried: set[tuple[int, int]] = set()
    while steps < max_steps:
        steps += 1
        end = path[-1]
        free = adj[end] & ~used
        if free:
            w = (free & -free).bit_length() - 1
            path.append(w)
            used |= 1 << w
            tried.clear()
            continue
        if len(path) == n and (adj[end] >> path[0]) & 1:
            return _normalize_cycle([verts[i] for i in path])
        # rotate: chord from the end into the path interior
        rotated = False
        for v in bits(adj[end] & used):
            j = path.index(v)
            if j + 1 >= len(path) - 1:
                continue
            new_end = path[j + 1]
            if (path[0], new_end) in tried:
                continue
            if len(path) == n and (adj[new_end] >> path[0]) & 1:
                path = path[: j + 1] + path[j + 1 :][::-1]
                return _normalize_cycle([verts[i] for i in path])
            path = path[: j + 1] + path[j + 1 :][::-1]
            tried.add((path[0], path[-1]))
            rotated = True
            break
        if not rotated:
            return None
    return None


def mm_hamilton_cycle(h: BipartiteView) -> list[int] | None:
    """Spanning X/Y-alternating cycle as global vertex ids, or None.

    Constructive rotation-extension first; exact backtracking second.
    """
    if h.m < 2:
        raise BadParams("need m >= 2")
    cyc = _posa_cycle(h, max_steps=40 * h.m * h.m)
    if cyc is not None and cycle_is_valid(h, cyc):
        return cyc
    if h.m > MAX_EXACT_M:
        raise BudgetExceeded(f"m={h.m} beyond exact search budget {MAX_EXACT_M}")
    found = oracle.hamilton_cycle_bipartite_exact(h.adj_x, h.adj_y)
    if found is None:
        return None
    cycle = [h.xs[i] if side == 0 else h.ys[i] for side, i in found]
    return _normalize_cycle(cycle)


def cut_cycle_at(cycle: list[int], v: int) -> list[int]:
    """Hamilton path starting at v, following the stored cycle order."""
    if v not in cycle:
        raise NotOnCycle(f"vertex {v} not on cycle")
    k = cycle.index(v)
    return cycle[k:] + cycle[:k]
