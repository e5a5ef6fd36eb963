"""Alternating paths: validity, greedy extension, trimming.

An alternating path is a sequence of distinct vertices in which every
internal vertex is a source (both path edges leave it) or a sink (both
enter).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParams, TooShort
from .graph_core import OrientedGraph


@dataclass(frozen=True)
class AlternatingPath:
    verts: tuple[int, ...]
    first_forward: bool | None  # True iff verts[0] -> verts[1]; None below order 2

    @property
    def order(self) -> int:
        return len(self.verts)

    def serialize(self) -> str:
        ff = "-" if self.first_forward is None else str(int(self.first_forward))
        return f"first_forward:{ff} verts:{' '.join(str(v) for v in self.verts)}"


def path_from_verts(g: OrientedGraph, verts) -> AlternatingPath:
    verts = tuple(verts)
    ff = g.has_edge(verts[0], verts[1]) if len(verts) >= 2 else None
    return AlternatingPath(verts, ff)


def _edge_dirs(g: OrientedGraph, verts) -> list[bool] | None:
    """dirs[i] is True iff verts[i] -> verts[i+1]; None if some pair is a non-edge."""
    dirs = []
    for a, b in zip(verts, verts[1:]):
        if g.has_edge(a, b):
            dirs.append(True)
        elif g.has_edge(b, a):
            dirs.append(False)
        else:
            return None
    return dirs


def validate(g: OrientedGraph, p: AlternatingPath) -> bool:
    verts = p.verts
    if len(set(verts)) != len(verts):
        return False
    if any(not 0 <= v < g.n for v in verts):
        return False
    if len(verts) < 2:
        return p.first_forward is None
    dirs = _edge_dirs(g, verts)
    if dirs is None:
        return False
    if p.first_forward != dirs[0]:
        return False
    # strict alternation: direction flips at every internal vertex
    return all(dirs[i + 1] != dirs[i] for i in range(len(dirs) - 1))


def greedy_extend(g: OrientedGraph, p: AlternatingPath, k: int) -> AlternatingPath:
    """Extend p one vertex at a time until it has order k or neither end extends.

    Each round tries the tail, then the head, and adds the smallest unused
    vertex that keeps the path alternating.  The order is checked after every
    single step, so a tail step that reaches k ends the call before the head
    step.  A path of order >= k comes back unchanged; k = g.n extends until
    stuck.  Stopping early changes no choice: the result is a window of the
    extension until stuck.  A path below order 2 raises BadParams.
    """
    verts = list(p.verts)
    order = len(verts)
    if order < 2:
        raise BadParams(f"greedy extension needs a path of order >= 2, got {order}")
    if order >= k:
        return p
    out_masks, in_masks = g.out_masks, g.in_masks
    free = (1 << g.n) - 1
    for v in verts:
        free ^= 1 << v
    head, tail = verts[0], verts[-1]
    tail_turn = True
    # an end is a source iff its path arc leaves it; each added vertex flips it
    head_src = g.has_edge(head, verts[1])
    tail_src = g.has_edge(tail, verts[-2])
    ahead: list[int] = []  # vertices added before verts[0], nearest first
    tail_stuck = head_stuck = False
    # an end that found no candidate stays stuck, since `free` only shrinks
    while order < k and not (tail_stuck and head_stuck):
        if tail_turn:
            low = (out_masks[tail] if tail_src else in_masks[tail]) & free
            if low:
                low &= -low
                free ^= low
                tail = low.bit_length() - 1
                verts.append(tail)
                tail_src = not tail_src
                order += 1
                if order == k:
                    break
            else:
                tail_stuck = True
        if not head_stuck:
            low = (out_masks[head] if head_src else in_masks[head]) & free
            if low:
                low &= -low
                free ^= low
                head = low.bit_length() - 1
                ahead.append(head)
                head_src = not head_src
                order += 1
            else:
                head_stuck = True
        tail_turn = not tail_stuck
    ahead.reverse()
    return AlternatingPath(tuple(ahead + verts), head_src)


def trim(p: AlternatingPath, k: int) -> AlternatingPath:
    if k > p.order:
        raise TooShort(f"cannot trim order-{p.order} path to {k}")
    verts = p.verts[:k]
    ff = p.first_forward if k >= 2 else None
    return AlternatingPath(verts, ff)
