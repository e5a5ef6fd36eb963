"""Subset-DP kernel for the exact longest-alternating-path oracle.

State encoding: for a vertex subset `mask`, reach[mask] is a bitset over
(endpoint, role) pairs at bit 2*v + role.  role 1 means the endpoint's
single path edge leaves it (so the next edge must leave it too); role 0
means it enters.  Order-1 seeds carry both roles.

One numpy kernel runs a batch of graphs of the same order together.  It
fills the subsets popcount layer by layer: layer c+1 is complete once
every step out of layer c has run, because each subset's predecessors are
its one-smaller subsets.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# Batches are cut so that B * 2^n stays near this many reach cells (8 MB of
# int64), whatever the order; a single graph always runs.
BATCH_CELLS = 1 << 20

# 2*v + role must fit below the sign bit of an int64 state word.
MAX_DP_ORDER = 31


@lru_cache(maxsize=None)
def _layers(n: int) -> tuple[np.ndarray, ...]:
    """Masks of each popcount 0..n, ascending within a layer."""
    masks = np.arange(1 << n, dtype=np.int64)
    popcount = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        popcount += (masks >> v) & 1
    order = np.argsort(popcount, kind="stable")
    bounds = np.searchsorted(popcount[order], np.arange(n + 2))
    return tuple(order[bounds[c]:bounds[c + 1]] for c in range(n + 1))


def _predecessor_states(out_masks: np.ndarray, in_masks: np.ndarray) -> np.ndarray:
    """P[w, r, b]: the states of role r in graph b from which w can be appended.

    A role-1 endpoint `last` needs the edge last -> w (last in in(w)); a
    role-0 endpoint needs w -> last (last in out(w)).
    """
    batch, n = out_masks.shape
    pred = np.zeros((n, 2, batch), dtype=np.int64)
    for last in range(n):
        pred[:, 0] |= ((out_masks.T >> last) & 1) << (2 * last)
        pred[:, 1] |= ((in_masks.T >> last) & 1) << (2 * last + 1)
    return pred


def run_dp(out_masks, in_masks, n: int, want_k: int = 0):
    """Subset DP over a batch of order-n graphs given as (B, n) mask arrays.

    Returns (best, best_mask, best_state, reach), the first three as (B,)
    int64 arrays and reach as a (B, 2^n) int64 array.  best is the maximum
    path order; best_mask is the smallest mask of that order holding a
    state, and best_state its lowest state bit, 2*last + role.  With
    want_k > 0 the layers stop at the first one >= want_k that holds a
    state, so best is then min(L, want_k) and reach is filled only up to it.
    """
    out_masks = np.asarray(out_masks, dtype=np.int64)
    in_masks = np.asarray(in_masks, dtype=np.int64)
    batch = out_masks.shape[0]
    reach = np.zeros((1 << n, batch), dtype=np.int64)  # row per mask: gathers stay contiguous
    best = np.zeros(batch, dtype=np.int64)
    best_mask = np.zeros(batch, dtype=np.int64)
    best_state = np.zeros(batch, dtype=np.int64)
    if n == 0:
        return best, best_mask, best_state, reach.T
    layers = _layers(n)
    pred = _predecessor_states(out_masks, in_masks)
    for v in range(n):
        reach[1 << v] = 3 << (2 * v)
    best[:] = 1
    best_mask[:] = 1
    for c in range(1, n):
        if 0 < want_k <= c:
            break
        layer = layers[c]
        for w in range(n):
            bit = 1 << w
            src = layer[(layer & bit) == 0]
            states = reach[src]
            step = ((states & pred[w, 0]) != 0).astype(np.int64) << (2 * w + 1)
            step |= ((states & pred[w, 1]) != 0).astype(np.int64) << (2 * w)
            reach[src | bit] |= step
        held = reach[layers[c + 1]] != 0  # (|layer|, B)
        has = held.any(axis=0)
        if not has.any():
            break
        best[has] = c + 1
        best_mask[has] = layers[c + 1][held[:, has].argmax(axis=0)]
    lowest = reach[best_mask, np.arange(batch)]
    best_state[:] = np.frexp((lowest & -lowest).astype(np.float64))[1] - 1
    return best, best_mask, best_state, reach.T
