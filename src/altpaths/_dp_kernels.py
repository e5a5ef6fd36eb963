"""Subset-DP kernel for the exact longest-alternating-path oracle.

State encoding: for a vertex subset `mask`, reach[mask] is a bitset over
(endpoint, role) pairs at bit 2*v + role.  role 1 means the endpoint's
single path edge leaves it (so the next edge must leave it too); role 0
means it enters.  Order-1 seeds carry both roles.  The 2n bits of an
order-n state word are held in the narrowest unsigned integer type that
has them (uint8 up to n = 4, uint16 up to 8, uint32 up to 16) and in int64
above that (word_type), so a small order moves a fraction of the bytes.

One numpy kernel runs a batch of graphs of the same order together.  It
fills the subsets popcount layer by layer with one pull step per block of
a layer: each mask `dst` gathers the states of all its one-smaller
subsets `dst ^ (1 << w)` at once, tests each against the predecessor
states of its member w, and ORs the results over the members.  Layer c
is complete before layer c+1 reads it, and each mask is written once.

The step reads a plan: the source masks (int32) and member vertices (int8)
of every mask of a layer, in blocks of at most BLOCK_BYTES of (source,
graph) state words, so that the temporaries stay cache-sized whatever the
batch and the word type.
Plans are cached per order up to PLAN_ORDER (2.6 MB of plan at 16).  A
larger order is cut into groups of masks that share their bits above
PLAN_ORDER; each group's plan is built on the fly from the cached
order-PLAN_ORDER plan of its low bits, and runs through the same step.

The step allocates no block-sized array.  Its temporaries live in one
workspace per thread (_Workspace) that grows to the largest block seen and
is reused by every later block and call; fresh block-sized arrays would
grow and trim the malloc heap on every call, so that a call's page faults
and time would depend on what else the process had allocated.  Each block
casts its compact plan slices into two reused intp buffers with
np.copyto and gathers with np.take(..., out=..., mode="clip"); np.take
copies index arrays of any other type to intp, and under the default
mode="raise" it buffers `out`, while the plan's indices are in range by
construction, so "clip" changes nothing.  The member indices then become
the shift amounts, in place for int64 words and cast into a buffer of
words for narrower ones.  Whether a layer holds a state is read from the
block results.  run_dp returns the longest order and the filled table;
witness_ends reads where a longest path ends from that table, for the
callers that rebuild a witness, gathering each layer at most once and
only for the graphs whose longest path ends in it.
"""
from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

# Batches are cut so that the B * 2^n state words of reach stay near this
# many bytes, whatever the order; a single graph always runs.
BATCH_BYTES = 8 << 20

# 2*v + role must fit below the sign bit of an int64 state word.
MAX_DP_ORDER = 31

# One pull step gathers at most this many bytes of (source, graph) state
# words, except that a block always holds at least one mask.
BLOCK_BYTES = 1 << 18

# Plans are cached for orders up to this one; n * 2^(n-1) cells of 5 bytes.
PLAN_ORDER = 16

# The role-0 and role-1 state bits of an int64 state word.
_ROLE0 = sum(1 << (2 * v) for v in range(MAX_DP_ORDER))
_ROLE1 = _ROLE0 << 1


def word_type(n: int) -> np.dtype:
    """The dtype of order-n state words: the narrowest unsigned one of 2n bits, int64 above 32."""
    for word in (np.uint8, np.uint16, np.uint32):
        if 2 * n <= np.iinfo(word).bits:
            return np.dtype(word)
    return np.dtype(np.int64)


@lru_cache(maxsize=None)
def _roles(word: np.dtype) -> tuple[np.generic, np.generic]:
    """The role-0 and role-1 state bits of a state word of this dtype."""
    bits = (1 << 8 * word.itemsize) - 1
    return word.type(_ROLE0 & bits), word.type(_ROLE1 & bits)


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
    rows = max(1, BLOCK_BYTES // (c * batch * word_type(n).itemsize))
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


# Shift-and-mask steps that move bit v of a word below 2^32 to bit 2v.
_SPREAD = (
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
)


def _spread(words: np.ndarray) -> np.ndarray:
    """words with bit v of each moved to bit 2v, in place."""
    for shift, mask in _SPREAD:
        words |= words << shift
        words &= mask
    return words


def _predecessor_states(out_masks: np.ndarray, in_masks: np.ndarray) -> np.ndarray:
    """P[w, b]: the states in graph b from which w can be appended.

    A role-1 endpoint `last` needs the edge last -> w (last in in(w)); a
    role-0 endpoint needs w -> last (last in out(w)).
    """
    return _spread(in_masks.T.copy()) << 1 | _spread(out_masks.T.copy())


class _Workspace(threading.local):
    """The pull step's temporaries, one set per thread.

    Each buffer grows to the largest block seen and is then reused by every
    later block and call, so filling a layer allocates nothing per block.
    The state-word buffers (cells, shift and new) are sized in bytes and
    viewed as the block's word type; the index buffers stay intp, since
    np.take copies indices of any other type to intp.  The shaped views of
    the last few block shapes are kept too, since slicing and reshaping six
    views costs more than a small block's arithmetic.  A block writes every
    cell of its views before it reads them, and run_dp copies what it
    returns out of them.
    """

    def __init__(self):
        self.cells = (np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint8))
        self.index = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        self.shift = np.empty(0, dtype=np.uint8)
        self.new = np.empty(0, dtype=np.uint8)
        self.shaped = {}  # (c, rows, batch, word) -> views of the current buffers

    def views(self, c: int, rows: int, batch: int, word: np.dtype):
        """(states, role1, src, members, shift, new) views for a block of c x rows masks."""
        key = (c, rows, batch, word)
        views = self.shaped.get(key)
        if views is not None:
            return views
        size = word.itemsize  # bytes per word
        cells, index = c * rows * batch * size, c * rows
        shift, new = c * rows * size, rows * batch * size
        if (
            cells > len(self.cells[0]) or index > len(self.index[0])
            or shift > len(self.shift) or new > len(self.new)
        ):
            self.shaped.clear()  # its views would keep the old buffers alive
            self.cells = tuple(np.empty(max(cells, len(a)), dtype=np.uint8) for a in self.cells)
            self.index = tuple(np.empty(max(index, len(a)), dtype=np.intp) for a in self.index)
            self.shift = np.empty(max(shift, len(self.shift)), dtype=np.uint8)
            self.new = np.empty(max(new, len(self.new)), dtype=np.uint8)
        elif len(self.shaped) >= 64:  # batch sizes vary from call to call
            self.shaped.clear()
        views = self.shaped[key] = (
            *(a[:cells].view(word).reshape(c, rows, batch) for a in self.cells),
            *(a[:index].reshape(c, rows) for a in self.index),
            self.shift[:shift].view(word).reshape(c, rows),
            self.new[:new].view(word).reshape(rows, batch),
        )
        return views


_WORKSPACE = _Workspace()


def _pull(reach: np.ndarray, pred: np.ndarray, src: np.ndarray, members: np.ndarray) -> np.ndarray:
    """New states of the block's masks, as (rows, B), in a workspace view.

    A role-0 predecessor of member w gives w role 1 (bit 2w + 1), a role-1
    predecessor gives it role 0 (bit 2w).
    """
    word = reach.dtype
    states, role1, src_ip, members_ip, shift, new = _WORKSPACE.views(
        *src.shape, reach.shape[1], word
    )
    role0_bits, role1_bits = _roles(word)
    np.copyto(src_ip, src)
    np.copyto(members_ip, members)
    # plan indices are in range, so "clip" never clips; it lets take write
    # straight into `out`, where "raise" would buffer it
    np.take(reach, src_ip, axis=0, out=states, mode="clip")  # (c, rows, B)
    np.take(pred, members_ip, axis=0, out=role1, mode="clip")
    states &= role1
    # state words are non-negative, so min(x, 1) is 1 exactly when x != 0
    np.bitwise_and(states, role1_bits, out=role1)
    np.minimum(role1, 1, out=role1)
    states &= role0_bits
    np.minimum(states, 1, out=states)
    states <<= 1
    states |= role1
    if word == np.intp:  # the member indices become the shift amounts in place
        shift = members_ip
    else:
        np.copyto(shift, members_ip, casting="unsafe")
    shift <<= 1
    states <<= shift[..., None]
    return np.bitwise_or.reduce(states, axis=0, out=new)


def run_dp(out_masks, in_masks, n: int, want_k: int = 0):
    """Subset DP over a batch of order-n graphs given as (B, n) mask arrays.

    Returns (best, reach): best as a (B,) int64 array, the maximum path
    order, and reach as a (B, 2^n) array of state words of word_type(n).
    With want_k > 0 the layers stop at the first one >= want_k that holds a
    state, so best is then min(L, want_k) and reach is filled only up to it.
    """
    out_masks = np.asarray(out_masks, dtype=np.int64)
    in_masks = np.asarray(in_masks, dtype=np.int64)
    batch = out_masks.shape[0]
    word = word_type(n)
    reach = np.zeros((1 << n, batch), dtype=word)  # row per mask: gathers stay contiguous
    best = np.zeros(batch, dtype=np.int64)
    if n == 0:
        return best, reach.T
    pred = _predecessor_states(out_masks, in_masks).astype(word)
    for v in range(n):
        reach[1 << v] = 3 << (2 * v)
    best[:] = 1
    for c in range(2, n + 1):
        if 0 < want_k < c:
            break
        has = np.zeros(batch, dtype=bool)
        for dst, src, members in _layer_blocks(n, c, batch):
            new = _pull(reach, pred, src, members)
            reach[dst] = new
            has |= new.any(axis=0)
        if not has.any():
            break
        best[has] = c
    return best, reach.T


def witness_ends(best: np.ndarray, reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(best_mask, best_state) of run_dp's (best, reach), each as a (B,) int64 array.

    best_mask is the smallest mask of order best holding a state, and
    best_state its lowest state bit, 2*last + role; both are 0 at order 0.
    """
    reach = reach.T  # back to one row per mask
    batch = reach.shape[1]
    n = reach.shape[0].bit_length() - 1
    best_mask = np.zeros(batch, dtype=np.int64)
    best_state = np.zeros(batch, dtype=np.int64)
    if n == 0:
        return best_mask, best_state
    layers = _layers(n)
    for c in np.flatnonzero(np.bincount(best)).tolist():  # each order some graph reached
        graphs = np.flatnonzero(best == c)
        held = reach[layers[c][:, None], graphs] != 0  # (|layer|, graphs)
        best_mask[graphs] = layers[c][held.argmax(axis=0)]
    lowest = reach[best_mask, np.arange(batch)]
    best_state[:] = np.frexp((lowest & -lowest).astype(np.float64))[1] - 1
    return best_mask, best_state
