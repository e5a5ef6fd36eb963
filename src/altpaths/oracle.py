"""Exact brute-force ground truth.

Three referees live here: the subset-DP longest alternating path, the
exhaustive respectable-endpoint enumeration, and an exact bipartite
Hamilton cycle search.  Everything is exact or refuses via TooLarge.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._dp_kernels import BATCH_CELLS, MAX_DP_ORDER, run_dp
from .altpath import AlternatingPath, ParityFrame, path_from_verts
from .errors import BadParams, BadParts, NoRespectablePath, TooLarge
from .graph_core import OrientedGraph, bits


@dataclass(frozen=True)
class OracleBudget:
    max_n_subset_dp: int = 22
    max_n_enumeration: int = 12

    def __post_init__(self):
        if self.max_n_subset_dp <= 0 or self.max_n_enumeration <= 0:
            raise BadParams("oracle bounds must be positive")
        if self.max_n_subset_dp > MAX_DP_ORDER:
            raise BadParams(f"subset-DP bound above {MAX_DP_ORDER} does not fit its state words")


DEFAULT_BUDGET = OracleBudget()


def _reconstruct(g: OrientedGraph, reach, mask: int, state: int) -> list[int]:
    """Walk parent states back to a singleton; returns the path vertex sequence."""
    last, role = state >> 1, state & 1
    seq = [last]
    while mask != (1 << last):
        pmask = mask & ~(1 << last)
        prev_role = 1 - role
        found = False
        for prev in bits(pmask):
            if not (reach[pmask] >> (2 * prev + prev_role)) & 1:
                continue
            ok = g.has_edge(prev, last) if prev_role == 1 else g.has_edge(last, prev)
            if ok:
                mask, last, role = pmask, prev, prev_role
                seq.append(prev)
                found = True
                break
        if not found:  # pragma: no cover - would indicate a DP bug
            raise AssertionError("no DP predecessor found")
    return seq


def _check_budget(g: OrientedGraph, budget: OracleBudget) -> None:
    if g.n > budget.max_n_subset_dp:
        raise TooLarge(f"n={g.n} exceeds subset-DP budget {budget.max_n_subset_dp}")


def longest_alt_path_exact(
    g: OrientedGraph, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[int, AlternatingPath]:
    """Maximum alternating-path order and one witness."""
    _check_budget(g, budget)
    if g.n == 0:
        return 0, AlternatingPath((), None)
    best, bm, bs, reach = run_dp([g.out_masks], [g.in_masks], g.n)
    seq = _reconstruct(g, reach[0], int(bm[0]), int(bs[0]))
    best = int(best[0])
    return best, path_from_verts(g, seq)


def alt_path_lengths(out_masks: np.ndarray, in_masks: np.ndarray, n: int) -> np.ndarray:
    """Maximum alternating-path order of each graph in a (B, n) mask batch, as (B,) int64.

    The batch runs through the kernel in slices of about BATCH_CELLS reach
    cells; the order is not checked against any budget.
    """
    size = max(1, BATCH_CELLS >> n)
    lengths = np.zeros(len(out_masks), dtype=np.int64)
    for lo in range(0, len(out_masks), size):
        lengths[lo:lo + size] = run_dp(out_masks[lo:lo + size], in_masks[lo:lo + size], n)[0]
    return lengths


def has_alt_path_k(g: OrientedGraph, k: int, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    _check_budget(g, budget)
    if k <= 0:
        return True
    if k > g.n:
        return False
    best, _, _, _ = run_dp([g.out_masks], [g.in_masks], g.n, want_k=k)
    return int(best[0]) >= k


def enumerate_respectable_endpoints(
    g: OrientedGraph, frame: ParityFrame, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[set[int], set[int]]:
    """All starts in O and ends in E of respectable paths, by exhaustive search.

    A respectable path spans O and E, alternates, and has every edge
    directed O -> E; it therefore alternates classes O,E,O,...,E, so the
    search runs over the undirected bipartite graph of O -> E edges.
    Repeated (visited set, endpoint) states are pruned, which keeps the
    backtracking exact while avoiding re-enumeration.
    """
    verts = sorted(frame.all_verts)
    if len(verts) > budget.max_n_enumeration:
        raise TooLarge(f"2m={len(verts)} exceeds enumeration budget")
    idx = {v: i for i, v in enumerate(verts)}
    nn = len(verts)
    nbr = [0] * nn
    sink_set = frame.sinks
    for o in frame.sources:
        for w in bits(g.out_masks[o]):
            if w in sink_set:
                nbr[idx[o]] |= 1 << idx[w]
                nbr[idx[w]] |= 1 << idx[o]
    full = (1 << nn) - 1
    starts: set[int] = set()
    ends: set[int] = set()
    for o in sorted(frame.sources):
        seen: set[tuple[int, int]] = set()
        stack = [(1 << idx[o], idx[o])]
        reached = False
        while stack:
            mask, last = stack.pop()
            if mask == full:
                reached = True
                ends.add(verts[last])
                continue
            for w in bits(nbr[last] & ~mask):
                state = (mask | (1 << w), w)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
        if reached:
            starts.add(o)
    if not starts:
        raise NoRespectablePath("no spanning alternating O->E path exists")
    return starts, ends


def hamilton_cycle_bipartite_exact(
    adj_x: Sequence[int], adj_y: Sequence[int]
) -> list[tuple[int, int]] | None:
    """Spanning cycle of a balanced bipartite graph, or None.

    adj_x[i] is a bitmask over Y indices (and adj_y mirrors it).  Returns
    the cycle as a list of (side, index) pairs, side 0 for X, starting at
    x0; exact backtracking with degree-sorted branching and a stranded-
    vertex prune.
    """
    m = len(adj_x)
    if len(adj_y) != m:
        raise BadParts(f"|X|={m} but |Y|={len(adj_y)}")
    if m < 2:
        raise BadParams("need parts of size >= 2")
    if any(a == 0 for a in adj_x) or any(a == 0 for a in adj_y):
        return None
    full = (1 << m) - 1
    deg_y = [adj_y[j].bit_count() for j in range(m)]
    deg_x = [adj_x[i].bit_count() for i in range(m)]
    failed: set[tuple[int, int, int]] = set()

    path: list[tuple[int, int]] = [(0, 0)]

    def stranded(used_x: int, used_y: int, last_side: int, last: int) -> bool:
        # an untouched vertex is dead once its neighborhood lies entirely in
        # the used set; the current endpoint stays available as a connector,
        # and x0 stays available to any y as the closing step of the cycle
        open_y = (full & ~used_y) | ((1 << last) if last_side == 1 else 0)
        open_x = (full & ~used_x) | ((1 << last) if last_side == 0 else 0) | 1
        for i in bits(full & ~used_x):
            if adj_x[i] & open_y == 0:
                return True
        for j in bits(full & ~used_y):
            if adj_y[j] & open_x == 0:
                return True
        return False

    def extend(used_x: int, used_y: int, last_side: int, last: int) -> bool:
        if used_x == full and used_y == full:
            # close the cycle back to x0
            return last_side == 1 and bool((adj_y[last] >> 0) & 1)
        key = (used_x, used_y, last)
        if key in failed:
            return False
        if last_side == 0:
            cand = sorted(bits(adj_x[last] & ~used_y), key=lambda j: deg_y[j])
            for j in cand:
                path.append((1, j))
                if not stranded(used_x, used_y | (1 << j), 1, j) and extend(
                    used_x, used_y | (1 << j), 1, j
                ):
                    return True
                path.pop()
        else:
            cand = sorted(bits(adj_y[last] & ~used_x), key=lambda i: deg_x[i])
            for i in cand:
                path.append((0, i))
                if not stranded(used_x | (1 << i), used_y, 0, i) and extend(
                    used_x | (1 << i), used_y, 0, i
                ):
                    return True
                path.pop()
        if len(failed) < 2_000_000:
            failed.add(key)
        return False

    if extend(1, 0, 0, 0):
        return list(path)
    return None
