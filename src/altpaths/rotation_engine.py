"""The rotation closure of alternating paths and the certificate-producing finder.

The finder mirrors a contradiction argument as a terminating loop: every
round rotates the current alternating path at its ends until an end sees a
vertex outside it, or, on an even path, fails a concrete counting check and
returns a vertex-level certificate.  A path that no stage can lengthen goes
to the exact oracle, which decides within its order bound; beyond it the
finder gives up.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .altpath import (
    AlternatingPath,
    ParityFrame,
    frame_of,
    greedy_extend,
    path_from_verts,
    trim,
)
from .errors import BadParams
from .graph_core import OrientedGraph, bits, min_pseudo_semidegree
from .oracle import OracleBudget, longest_alt_path_exact


# --- result types ----------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """An independently checkable witness of a failed counting step."""

    vertex: int
    side: str  # "in" | "out"
    degree: int
    bound: float
    stage: str
    scope: tuple[int, ...] | None = None  # degree restricted to these vertices

    def to_json(self) -> dict:
        return {
            "vertex": self.vertex,
            "side": self.side,
            "degree": self.degree,
            "bound": self.bound,
            "stage": self.stage,
            "scope": None if self.scope is None else list(self.scope),
        }


def certificate_is_sound(g: OrientedGraph, cert: Certificate) -> bool:
    """Recount the named degree directly in g."""
    if cert.scope is None:
        scope = (1 << g.n) - 1
    else:
        scope = 0
        for v in cert.scope:
            scope |= 1 << v
    masks = {"out": g.out_masks, "in": g.in_masks}.get(cert.side)
    return masks is not None and (masks[cert.vertex] & scope).bit_count() == cert.degree


@dataclass
class ClosureResult:
    S_found: dict[int, tuple[int, ...]]  # start vertex -> witness path on the seed's vertices
    T_found: dict[int, tuple[int, ...]]
    extension: tuple[int, ...] | None = None  # the path plus one outside vertex


# A sweep record's finder_outcome is a code into this tuple: "" where no
# finder ran, otherwise the FinderOutcome.outcome it returned.
OUTCOME_TEXTS = ("", "found", "diagnostic", "gave_up")


@dataclass(frozen=True)
class FinderOutcome:
    outcome: str  # one of OUTCOME_TEXTS[1:]
    path: AlternatingPath | None
    certificate: Certificate | None
    reason: str | None  # "OddStuck" | "EvenStuck" | "BudgetExceeded"
    rounds: int
    condition_holds: bool

    def to_json(self) -> dict:
        doc: dict = {
            "outcome": self.outcome,
            "rounds": self.rounds,
            "condition_holds": self.condition_holds,
        }
        if self.path is not None:
            ff = self.path.first_forward
            doc["path"] = {
                "first_forward": None if ff is None else bool(ff),
                "verts": list(self.path.verts),
            }
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_json()
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc


# --- helpers ---------------------------------------------------------------


def _mask_of(verts) -> int:
    m = 0
    for v in verts:
        m |= 1 << v
    return m


# --- closures --------------------------------------------------------------


def start_closure(g: OrientedGraph, verts: tuple[int, ...]) -> ClosureResult:
    """BFS over rotations at both ends of an alternating path, one witness per endpoint pair.

    An even path is first turned source end first.  A head rotation follows
    a chord from the head to position j and reverses the prefix before it; a
    tail rotation reverses the suffix likewise.  Rotations keep the vertex
    set and each end's class, so an end always extends on the side its path
    arc leaves it by, and a chord pivots only at an odd distance >= 3 from
    its end.  Every newly reached start is scanned for a neighbor outside the
    path on its side (terminals likewise); the first hit is recorded as the
    extension and the search stops.  The search visits at most
    len * (len - 1) endpoint pairs.
    """
    seed = tuple(verts)
    if len(seed) % 2 == 0 and not g.has_edge(seed[0], seed[1]):
        seed = seed[::-1]
    used_mask = _mask_of(seed)
    outside_mask = ((1 << g.n) - 1) & ~used_mask
    head_masks = g.out_masks if g.has_edge(seed[0], seed[1]) else g.in_masks
    tail_masks = g.out_masks if g.has_edge(seed[-1], seed[-2]) else g.in_masks
    last = len(seed) - 1

    result = ClosureResult({}, {})

    def note_endpoints(path: tuple[int, ...]) -> bool:
        """Record endpoints; True if an extension was discovered."""
        u, t = path[0], path[-1]
        if u not in result.S_found:
            result.S_found[u] = path
            cand = head_masks[u] & outside_mask
            if cand:
                w = (cand & -cand).bit_length() - 1
                result.extension = (w,) + path
                return True
        if t not in result.T_found:
            result.T_found[t] = path
            cand = tail_masks[t] & outside_mask
            if cand:
                w = (cand & -cand).bit_length() - 1
                result.extension = path + (w,)
                return True
        return False

    seen = {(seed[0], seed[-1])}
    queue = deque([seed])
    if note_endpoints(seed):
        return result
    while queue:
        path = queue.popleft()
        pos = {v: i for i, v in enumerate(path)}
        heads = [pos[v] for v in bits(head_masks[path[0]] & used_mask)]
        tails = [pos[v] for v in bits(tail_masks[path[-1]] & used_mask)]
        candidates = [path[j - 1 :: -1] + path[j:] for j in heads if j >= 3 and j % 2]
        candidates += [
            path[: j + 1] + path[:j:-1] for j in tails if last - j >= 3 and (last - j) % 2
        ]
        for new in candidates:
            key = (new[0], new[-1])
            if key in seen:
                continue
            seen.add(key)
            queue.append(new)
            if note_endpoints(new):
                return result
    return result


def _end_closure_from(
    g: OrientedGraph, frame: ParityFrame, witness: tuple[int, ...]
) -> dict[int, tuple[int, ...]]:
    """Terminal -> witness map over end-rotations only (start stays fixed)."""
    source_mask = _mask_of(frame.sources)
    found = {witness[-1]: witness}
    queue = deque([witness])
    while queue:
        path = queue.popleft()
        pos = {v: i for i, v in enumerate(path)}
        for v in bits(g.in_masks[path[-1]] & source_mask):
            j = pos[v]
            if j == len(path) - 2:
                continue
            new = path[: j + 1] + path[:j:-1]
            if new[-1] not in found:
                found[new[-1]] = new
                queue.append(new)
    return found


# --- the even-order pipeline ----------------------------------------------


def evenham_cycle(
    g: OrientedGraph, frame: ParityFrame, closure: ClosureResult
) -> Certificate | None:
    """The counts for an alternating spanning source->sink cycle; None on pass.

    The cycle is not built: wherever the counts pass, the closure holds every
    source and sink, none with an outside neighbor to cut the cycle open at.
    """
    if closure.extension is not None:
        raise BadParams("evenham_cycle requires a closure without extension")
    if not closure.S_found:
        raise BadParams("closure found no starting vertices")
    m = frame.m
    sink_mask = _mask_of(frame.sinks)
    source_mask = _mask_of(frame.sources)
    sinks_scope = tuple(sorted(frame.sinks))
    sources_scope = tuple(sorted(frame.sources))

    def d_sink_out(u: int) -> int:
        return (g.out_masks[u] & sink_mask).bit_count()

    def d_source_in(w: int) -> int:
        return (g.in_masks[w] & source_mask).bit_count()

    a = min(closure.S_found, key=lambda u: (-d_sink_out(u), u))
    if m < 2:
        # a 2-vertex frame cannot carry a simple spanning cycle
        return Certificate(a, "out", d_sink_out(a), 1.0, "degenerate-m1", sinks_scope)
    if not d_sink_out(a) * 2 > m:
        return Certificate(a, "out", d_sink_out(a), m / 2, "A-count", sinks_scope)

    terminals = _end_closure_from(g, frame, closure.S_found[a])
    b = min(terminals, key=lambda w: (-d_source_in(w), w))
    if not d_source_in(b) * 2 > m:
        return Certificate(b, "in", d_source_in(b), m / 2, "C-count", sources_scope)

    rb = terminals[b]  # starts at a, ends at b
    for j in range(len(rb) - 1):
        if (
            rb[j] in frame.sources
            and g.has_edge(rb[j], b)
            and rb[j + 1] in frame.sinks
            and g.has_edge(a, rb[j + 1])
        ):
            return None
    return Certificate(a, "out", d_sink_out(a), m / 2, "pigeonhole", sinks_scope)


def lemma_forgotten_check(g: OrientedGraph, frame: ParityFrame) -> Certificate | None:
    """Per-class count of low source->sink degrees; None on pass.

    The Moon-Moser count with every threshold raised by one: fails (with
    the smallest offending l, sources before sinks) when some class has at
    least l vertices of source->sink degree at most l+1.  The certificate
    names the least such vertex: a source's out-degree into the sinks, or
    a sink's in-degree from the sources.

    At m = 2 it fails every frame: its first level is l = 1 with bound 2,
    and no degree into a 2-vertex class exceeds 2.  Its certificate may
    then name a vertex joined to every vertex of the other class.
    """
    sources = tuple(sorted(frame.sources))
    sinks = tuple(sorted(frame.sinks))
    sink_mask, source_mask = _mask_of(sinks), _mask_of(sources)
    classes = (
        ("out", sources, sinks, [(g.out_masks[v] & sink_mask).bit_count() for v in sources]),
        ("in", sinks, sources, [(g.in_masks[v] & source_mask).bit_count() for v in sinks]),
    )
    for ell in range(1, frame.m // 2 + 1):
        for side, verts, scope, degrees in classes:
            low = [(v, d) for v, d in zip(verts, degrees) if d <= ell + 1]
            if len(low) >= ell:
                v, d = low[0]
                return Certificate(v, side, d, ell + 1, "lemma-count", scope)
    return None


# --- the top-level finder --------------------------------------------------


@dataclass
class EngineBudget:
    """Limits on one find: its rounds, and the oracle it falls back to.

    The greedy seed has order at least 2 and every round that does not end
    the find lengthens the path by at least one vertex, so a find at order
    k makes at most k - 2 rounds.  The default cap, max(4k, 8), therefore
    never binds: BudgetExceeded comes only from an explicit rounds below
    k - 2.
    """

    rounds: int | None = None  # default max(4k, 8)
    oracle: OracleBudget = field(default_factory=OracleBudget)

    def __post_init__(self):
        if self.rounds is not None and self.rounds < 0:
            raise BadParams(f"rounds must be >= 0, got {self.rounds}")


def max_k_for(pseudo: int | None) -> int:
    """Largest k with pseudo-semidegree > 5k/8 (also elementwise); 0 when undefined."""
    if pseudo is None:
        return 0
    return (8 * pseudo - 1) // 5


def condition_holds(g: OrientedGraph, k: int) -> bool:
    return k <= max_k_for(min_pseudo_semidegree(g))


def _stuck(
    g: OrientedGraph, k: int, budget: EngineBudget, reason: str, path: AlternatingPath,
    rounds: int, cond: bool,
) -> FinderOutcome:
    """No stage lengthens path: the exact oracle decides within its order bound."""
    if g.n <= budget.oracle.max_n_subset_dp:
        best_l, wit = longest_alt_path_exact(g, budget.oracle)
        if best_l >= k:
            return FinderOutcome("found", trim(wit, k), None, None, rounds, cond)
        path = wit
    return FinderOutcome("gave_up", path, None, reason, rounds, cond)


def find_alternating_path(
    g: OrientedGraph, k: int, budget: EngineBudget | None = None
) -> FinderOutcome:
    if k < 1:
        raise BadParams("k must be >= 1")
    budget = budget or EngineBudget()
    cond = condition_holds(g, k)
    rounds_cap = budget.rounds if budget.rounds is not None else max(4 * k, 8)

    if g.n == 0:
        return FinderOutcome("gave_up", path_from_verts(g, ()), None, "OddStuck", 0, cond)
    if k == 1:
        return FinderOutcome("found", path_from_verts(g, (0,)), None, None, 0, cond)

    seed = None
    for u in range(g.n):
        if g.out_masks[u]:
            seed = (u, (g.out_masks[u] & -g.out_masks[u]).bit_length() - 1)
            break
    if seed is None:
        return FinderOutcome("gave_up", path_from_verts(g, (0,)), None, "OddStuck", 0, cond)

    # greedy_extend and the oracle return alternating paths with first_forward
    # set, which the outcomes carry as they are; greedy extension from below
    # order k stops at order k exactly, so only the oracle's witness is trimmed
    path = greedy_extend(g, path_from_verts(g, seed), k)
    rounds = 0
    while path.order < k:
        rounds += 1
        if rounds > rounds_cap:
            return FinderOutcome("gave_up", path, None, "BudgetExceeded", rounds, cond)
        closure = start_closure(g, path.verts)
        if closure.extension is None:
            if path.order % 2 == 1:
                return _stuck(g, k, budget, "OddStuck", path, rounds, cond)
            frame = frame_of(path)
            cert = evenham_cycle(g, frame, closure) or lemma_forgotten_check(g, frame)
            if cert:
                return FinderOutcome("diagnostic", None, cert, None, rounds, cond)
            return _stuck(g, k, budget, "EvenStuck", path, rounds, cond)
        path = greedy_extend(g, path_from_verts(g, closure.extension), k)
    return FinderOutcome("found", path, None, None, rounds, cond)
