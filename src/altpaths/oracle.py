"""Exact ground truth: the longest alternating path of a graph.

Every answer is exact.  A witness and the has-k test come from the subset
DP.  alt_path_lengths gives L = n to each graph of order at least
SPAN_CERTIFICATE_ORDER on which a greedy spanning path passes validate
(no path has more than n vertices), and runs the subset DP on the rest.
lengths_from_minors gives the L of order-n graphs known by their codes,
as the exhaustive sweep knows them, from a table of every order-(n-1)
code that the subset DP fills once per process: 3^C(n-1,2) graphs, 729
at n = 5, 59,049 at n = 6 and 14,348,907 at n = 7, so raising the
exhaustive order costs that many DP rows first.
Single-graph calls refuse an order above their budget via TooLarge.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from ._dp_kernels import BATCH_BYTES, MAX_DP_ORDER, run_dp, witness_ends, word_type
from .altpath import AlternatingPath, greedy_extend, path_from_verts, validate
from .errors import BadParams, TooLarge
from .graph_core import OrientedGraph, bits, decode_codes, num_oriented


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
    best, reach = run_dp([g.out_masks], [g.in_masks], g.n)
    bm, bs = witness_ends(best, reach)
    seq = _reconstruct(g, reach[0], int(bm[0]), int(bs[0]))
    return int(best[0]), path_from_verts(g, seq)


# From this order up, alt_path_lengths tries to certify L = n before the DP.
# The attempts pay off on dense graphs at every order, but where they all
# fail they add to a DP that costs less the smaller n is.  Interleaved
# in-process timings per graph, certificate on against off, two runs
# (2 cores, no numba; BENCH_span_certificate.json): p=0.25 graphs, where
# almost none certify, +20-21% at n=12, +15% at 13, +7-9% at 14, +6-9% at
# 15 and +1-3% at 16; tournaments -97% at n=14 (0.039 against 1.28-1.46 ms)
# and p=0.5 graphs -24 to -30% at n=14 and -45 to -48% at n=16.
SPAN_CERTIFICATE_ORDER = 14


def _greedy_spans(g: OrientedGraph) -> bool:
    """Whether greedy extension from one of g's first n arcs (u, v), in
    increasing (u, v) order, gives a valid alternating path of order n."""
    arcs = ((u, v) for u in range(g.n) for v in bits(g.out_masks[u]))
    for arc in islice(arcs, g.n):
        path = greedy_extend(g, AlternatingPath(arc, True), g.n)
        if path.order == g.n and validate(g, path):
            return True
    return False


def _slice_rows(n: int) -> int:
    """Graphs per run_dp call that keep its order-n reach near BATCH_BYTES."""
    return max(1, BATCH_BYTES // (word_type(n).itemsize << n))


def _dp_lengths(out_masks: np.ndarray, in_masks: np.ndarray, n: int) -> np.ndarray:
    """L of each graph from the subset DP, in slices of about BATCH_BYTES of reach."""
    size = _slice_rows(n)
    lengths = np.zeros(len(out_masks), dtype=np.int64)
    for lo in range(0, len(out_masks), size):
        lengths[lo:lo + size] = run_dp(out_masks[lo:lo + size], in_masks[lo:lo + size], n)[0]
    return lengths


def alt_path_lengths(out_masks: np.ndarray, in_masks: np.ndarray, n: int) -> np.ndarray:
    """Maximum alternating-path order of each graph in a (B, n) mask batch, as (B,) int64.

    Exact on every row.  From order SPAN_CERTIFICATE_ORDER up, a row whose
    greedy spanning path validates gets L = n, and only the other rows go
    to the subset DP; below it every row does.  The order is not checked
    against any budget.
    """
    if n < SPAN_CERTIFICATE_ORDER:
        return _dp_lengths(out_masks, in_masks, n)
    spans = np.array(
        [_greedy_spans(OrientedGraph(n, tuple(o), tuple(i)))
         for o, i in zip(out_masks.tolist(), in_masks.tolist())],
        dtype=bool,
    )
    rest = ~spans
    lengths = np.full(len(out_masks), n, dtype=np.int64)
    lengths[rest] = _dp_lengths(out_masks[rest], in_masks[rest], n)
    return lengths


@lru_cache(maxsize=None)
def _order_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(L as int8, full-mask state word) of every order-n code, from the subset DP.

    The state word is run_dp's reach of the full vertex set: the (end,
    role) pairs at which a spanning alternating path can end.
    """
    total = num_oriented(n)
    lengths = np.zeros(total, dtype=np.int8)
    spanning = np.zeros(total, dtype=word_type(n))
    size = _slice_rows(n)
    for lo in range(0, total, size):
        best, reach = run_dp(*decode_codes(n, np.arange(lo, min(lo + size, total))), n)
        lengths[lo:lo + size], spanning[lo:lo + size] = best, reach[:, -1]
    lengths.flags.writeable = spanning.flags.writeable = False  # shared by every caller
    return lengths, spanning


def lengths_from_minors(n: int, minors: np.ndarray, stars: np.ndarray) -> np.ndarray:
    """L of each order-n graph, as (B,) int64, from decode_codes(n, codes, minors=True)'s extras.

    minors[b, w] is the code of G - w and stars[b, w] the star word of w
    in G - w's labels.  A star word has the bits of the DP's predecessor
    states of w (an end x with role 0 extends by w -> x, bit 2x; with role
    1 by x -> w, bit 2x + 1).  G has a spanning path, so L = n, exactly
    when for some w the star word meets the full-mask state word of
    G - w, since a spanning path of G less its last vertex w spans G - w.
    Otherwise a longest path misses some w, and L is the largest L(G - w).
    Both come from _order_table(n - 1).
    """
    if n < 2:  # a spanning path of G - w needs a vertex
        return np.full(len(minors), n, dtype=np.int64)
    lengths, spanning = _order_table(n - 1)
    spans = (spanning[minors] & stars).any(axis=1)
    return np.where(spans, n, lengths[minors].max(axis=1)).astype(np.int64)


def has_alt_path_k(g: OrientedGraph, k: int, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    _check_budget(g, budget)
    if k <= 0:
        return True
    if k > g.n:
        return False
    best, _ = run_dp([g.out_masks], [g.in_masks], g.n, want_k=k)
    return int(best[0]) >= k

