"""Exact brute-force ground truth: the subset-DP longest alternating path.

It is exact or refuses via TooLarge.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dp_kernels import BATCH_CELLS, MAX_DP_ORDER, run_dp
from .altpath import AlternatingPath, path_from_verts
from .errors import BadParams, TooLarge
from .graph_core import OrientedGraph, bits


@dataclass(frozen=True)
class OracleBudget:
    max_n_subset_dp: int = 22

    def __post_init__(self):
        if self.max_n_subset_dp <= 0:
            raise BadParams("the subset-DP bound must be positive")
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

