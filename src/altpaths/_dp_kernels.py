"""Subset-DP kernel for the exact longest-alternating-path oracle.

State encoding: for a vertex subset `mask`, reach[mask] is a bitset over
(endpoint, role) pairs at bit 2*v + role.  role 1 means the endpoint's
single path edge leaves it (so the next edge must leave it too); role 0
means it enters.  Order-1 seeds carry both roles.

One numpy kernel runs a batch of graphs of the same order together.  It
fills the subsets popcount layer by layer with one pull step per block of
a layer: each mask `dst` gathers the states of all its one-smaller
subsets `dst ^ (1 << w)` at once, tests each against the predecessor
states of its member w, and ORs the results over the members.  Layer c
is complete before layer c+1 reads it, and each mask is written once.

The step reads a plan: the source masks (int32) and member vertices (int8)
of every mask of a layer, in blocks of at most BLOCK_CELLS (source, graph)
cells, so that the temporaries stay cache-sized whatever the batch.
Plans are cached per order up to PLAN_ORDER (2.6 MB of plan at 16).  A
larger order is cut into groups of masks that share their bits above
PLAN_ORDER; each group's plan is built on the fly from the cached
order-PLAN_ORDER plan of its low bits, and runs through the same step.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# Batches are cut so that B * 2^n stays near this many reach cells (8 MB of
# int64), whatever the order; a single graph always runs.
BATCH_CELLS = 1 << 20

# 2*v + role must fit below the sign bit of an int64 state word.
MAX_DP_ORDER = 31

# One pull step gathers at most this many (source, graph) cells, except
# that a block always holds at least one mask.
BLOCK_CELLS = 1 << 15

# Plans are cached for orders up to this one; n * 2^(n-1) cells of 5 bytes.
PLAN_ORDER = 16

# The role-0 and role-1 state bits of a state word.
_ROLE0 = sum(1 << (2 * v) for v in range(MAX_DP_ORDER))
_ROLE1 = _ROLE0 << 1


@lru_cache(maxsize=None)
def _layers(n: int) -> tuple[np.ndarray, ...]:
    """Masks of each popcount 0..n, ascending within a layer."""
    popcount = np.zeros(1, dtype=np.int8)
    for _ in range(n):  # the masks with the next bit set count one more
        popcount = np.concatenate([popcount, popcount + 1])
    order = np.argsort(popcount, kind="stable")
    bounds = np.searchsorted(popcount[order], np.arange(n + 2))
    return tuple(order[bounds[c]:bounds[c + 1]] for c in range(n + 1))


@lru_cache(maxsize=None)
def _plan(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per popcount c: (src, members) of the masks of layers(n)[c], as (c, rows).

    members[j] is the j-th lowest vertex of each mask and src[j] the mask
    without it.
    """
    plans = []
    for c, dst in enumerate(_layers(n)):
        members = np.nonzero((dst[:, None] >> np.arange(n)) & 1)[1].reshape(len(dst), c).T
        plans.append(((dst ^ (1 << members)).astype(np.int32), members.astype(np.int8)))
    return tuple(plans)


def _layer_blocks(n: int, c: int, batch: int):
    """(dst, src, members) blocks that together cover layer c of order n once.

    Masks are grouped by their bits above PLAN_ORDER; a group's low bits
    form a layer of the cached plan, and its high bits add one member each.
    """
    low = min(n, PLAN_ORDER)
    low_layers, low_plan = _layers(low), _plan(low)
    rows = max(1, BLOCK_CELLS // (c * batch))
    for high in range(1 << (n - low)):
        j = c - high.bit_count()
        if not 0 <= j <= low:
            continue
        dst = low_layers[j]
        src, members = low_plan[j]
        if high:
            dst = dst | (high << low)
            high_members = low + np.flatnonzero((high >> np.arange(n - low)) & 1)
            src = np.concatenate([src | (high << low), dst ^ (1 << high_members[:, None])])
            members = np.concatenate(
                [members, np.broadcast_to(high_members[:, None], (len(high_members), len(dst)))]
            )
        for lo in range(0, len(dst), rows):
            yield dst[lo:lo + rows], src[:, lo:lo + rows], members[:, lo:lo + rows]


def _predecessor_states(out_masks: np.ndarray, in_masks: np.ndarray) -> np.ndarray:
    """P[w, b]: the states in graph b from which w can be appended.

    A role-1 endpoint `last` needs the edge last -> w (last in in(w)); a
    role-0 endpoint needs w -> last (last in out(w)).
    """
    pred = np.zeros(out_masks.T.shape, dtype=np.int64)
    for last in range(out_masks.shape[1]):
        pred |= ((out_masks.T >> last) & 1) << (2 * last)
        pred |= ((in_masks.T >> last) & 1) << (2 * last + 1)
    return pred


def _pull(reach: np.ndarray, pred: np.ndarray, src: np.ndarray, members: np.ndarray) -> np.ndarray:
    """New states of the block's masks, as (rows, B).

    A role-0 predecessor of member w gives w role 1 (bit 2w + 1), a role-1
    predecessor gives it role 0 (bit 2w).
    """
    members = members.astype(np.intp)
    states = np.take(reach, src, axis=0)  # (c, rows, B)
    states &= np.take(pred, members, axis=0)
    # state words are non-negative, so min(x, 1) is 1 exactly when x != 0
    role1 = np.minimum(states & _ROLE1, 1)
    states &= _ROLE0
    np.minimum(states, 1, out=states)
    states <<= 1
    states |= role1
    states <<= 2 * members[..., None]
    return np.bitwise_or.reduce(states, axis=0)


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
    for c in range(2, n + 1):
        if 0 < want_k < c:
            break
        for dst, src, members in _layer_blocks(n, c, batch):
            reach[dst] = _pull(reach, pred, src, members)
        held = reach[layers[c]] != 0  # (|layer|, B)
        has = held.any(axis=0)
        if not has.any():
            break
        best[has] = c
        best_mask[has] = layers[c][held[:, has].argmax(axis=0)]
    lowest = reach[best_mask, np.arange(batch)]
    best_state[:] = np.frexp((lowest & -lowest).astype(np.float64))[1] - 1
    return best, best_mask, best_state, reach.T
