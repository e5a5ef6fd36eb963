"""Independent brute-force referees for the test suite.

Deliberately naive: plain DFS over vertex sequences, no memoization
shared with the library code under test.  The one exception is
alt_path_dp_py, the plain-int subset DP that the numpy kernel must
reproduce exactly, reach table included.  The per-vertex degree minima
are the references for the graph's cached one-pass degree summary, and
the digit-by-digit decoder is the reference for the column decoder.  The
respectable-path check and its endpoint search judge the rotation
closure's outputs, and check_invariants the graphs every constructor
builds.
"""
from __future__ import annotations

from altpaths.errors import LoopEdge, TwoCycle
from altpaths.graph_core import OrientedGraph, pair_order


def is_alt_sequence(g, verts) -> bool:
    """Direct definition check: distinct vertices, edges exist, directions flip."""
    if len(set(verts)) != len(verts):
        return False
    dirs = []
    for a, b in zip(verts, verts[1:]):
        if g.has_edge(a, b):
            dirs.append(1)
        elif g.has_edge(b, a):
            dirs.append(0)
        else:
            return False
    return all(x != y for x, y in zip(dirs, dirs[1:]))


def is_respectable(g, sources, sinks, verts) -> bool:
    """Alternating path spanning sources and sinks, every edge source -> sink."""
    if set(verts) != sources | sinks or not is_alt_sequence(g, list(verts)):
        return False
    for a, b in zip(verts, verts[1:]):
        u, w = (a, b) if g.has_edge(a, b) else (b, a)
        if u not in sources or w not in sinks:
            return False
    return True


def check_invariants(g) -> None:
    """Raise if the no-loop / orientation / consistency invariants fail."""
    for v in range(g.n):
        if (g.out_masks[v] >> v) & 1 or (g.in_masks[v] >> v) & 1:
            raise LoopEdge(f"loop at {v}")
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                continue
            fwd = (g.out_masks[u] >> v) & 1
            bwd = (g.out_masks[v] >> u) & 1
            if fwd and bwd:
                raise TwoCycle(f"2-cycle between {u} and {v}")
            if fwd != ((g.in_masks[v] >> u) & 1):
                raise TwoCycle(f"out/in inconsistency at ({u},{v})")


def degrees(g, v) -> tuple[int, int]:
    """(out-degree, in-degree) of v, counted from the masks."""
    return g.out_masks[v].bit_count(), g.in_masks[v].bit_count()


def brute_min_semidegree(g):
    """Minimum of min(out-degree, in-degree) over the vertices; None when n == 0."""
    if g.n == 0:
        return None
    return min(min(degrees(g, v)) for v in range(g.n))


def brute_min_pseudo_semidegree(g):
    """Minimum over all strictly positive in/out degrees; None iff no edges."""
    best = None
    for v in range(g.n):
        for d in degrees(g, v):
            if d > 0 and (best is None or d < best):
                best = d
    return best


def brute_edge_count(g) -> int:
    return sum(m.bit_count() for m in g.out_masks)


def brute_graph_from_code(n: int, code: int) -> OrientedGraph:
    """Decode a base-3 code one digit at a time (digit order: pair_order,
    values absent/forward/backward)."""
    out_masks = [0] * n
    in_masks = [0] * n
    for u, v in pair_order(n):
        code, digit = divmod(code, 3)
        if digit == 1:
            out_masks[u] |= 1 << v
            in_masks[v] |= 1 << u
        elif digit == 2:
            out_masks[v] |= 1 << u
            in_masks[u] |= 1 << v
    return OrientedGraph(n, tuple(out_masks), tuple(in_masks))


def all_graphs(n: int) -> list[OrientedGraph]:
    """Every labeled oriented graph of order n, in base-3 code order."""
    return [brute_graph_from_code(n, code) for code in range(3 ** (n * (n - 1) // 2))]


def brute_longest_alt_path(g) -> int:
    """Maximum alternating-path order by exhaustive DFS extension."""
    if g.n == 0:
        return 0
    best = 1

    def extend(seq):
        nonlocal best
        best = max(best, len(seq))
        last = seq[-1]
        for w in range(g.n):
            if w in seq:
                continue
            if not (g.has_edge(last, w) or g.has_edge(w, last)):
                continue
            if is_alt_sequence(g, seq + [w]):
                extend(seq + [w])

    for v in range(g.n):
        extend([v])
    return best


def brute_respectable_endpoints(g, sources, sinks):
    """(starts, ends) over all spanning alternating source->sink paths, by DFS."""
    allv = sorted(sources | sinks)
    starts, ends = set(), set()

    def ok_edge(a, b):
        # edge of the undirected source->sink graph
        return (a in sources and b in sinks and g.has_edge(a, b)) or (
            a in sinks and b in sources and g.has_edge(b, a)
        )

    def extend(seq):
        if len(seq) == len(allv):
            starts.add(seq[0])
            ends.add(seq[-1])
            return
        for w in allv:
            if w not in seq and ok_edge(seq[-1], w):
                extend(seq + [w])

    for o in sources:
        extend([o])
    return starts, ends


def alt_path_dp_py(out_masks, in_masks, reach, want_k):
    """Reference subset DP in mask-index order over plain int lists.

    Fills `reach` (length 2^n, zeroed) and returns (best, best_mask,
    best_state); with want_k > 0 it returns once best >= want_k.  State bit
    2v + r of reach[mask] says that a path on mask ends at v, having
    entered v along an arc out of v (r = 1) or into v (r = 0); the next
    arc must turn, so each mask extends by one union of next vertices per
    end role.
    """
    n = len(out_masks)
    size = 1 << n
    for v in range(n):
        reach[1 << v] = 3 << (2 * v)
    best, best_mask, best_state = 1, 1, 0
    if want_k > 0 and best >= want_k:
        return best, best_mask, best_state
    full = size - 1
    for mask in range(1, size):
        s = reach[mask]
        if not s:
            continue
        pc = mask.bit_count()
        if pc > best:
            best, best_mask = pc, mask
            best_state = (s & -s).bit_length() - 1
            if want_k > 0 and best >= want_k:
                return best, best_mask, best_state
        free = full & ~mask
        if not free:
            continue
        # ends of role 1 go on along an out-arc, ends of role 0 along an in-arc
        via_out = via_in = 0
        st = s
        while st:
            b = st & -st
            st ^= b
            idx = b.bit_length() - 1
            if idx & 1:
                via_out |= out_masks[idx >> 1]
            else:
                via_in |= in_masks[idx >> 1]
        for cand, role in ((via_out & free, 0), (via_in & free, 1)):
            while cand:
                wb = cand & -cand
                cand ^= wb
                reach[mask | wb] |= 1 << (2 * (wb.bit_length() - 1) + role)
    return best, best_mask, best_state
