"""The rotation closure of alternating paths and the finder built on it.

The finder extends a greedy path and, whenever neither end extends, rotates
the path at its ends until an end sees a vertex outside it.  A path of
either parity that no rotation can lengthen goes to the exact oracle, which
decides within its order bound; beyond it the finder gives up with its
path.  A find therefore has two exits: `found`, with an order-k path, or
`gave_up`, with the oracle's longest path or, beyond the oracle's bound,
greedy's.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .altpath import AlternatingPath, greedy_extend, path_from_verts, trim
from .errors import BadParams
from .graph_core import OrientedGraph, bits, min_pseudo_semidegree
from .oracle import OracleBudget, longest_alt_path_exact


# --- result types ----------------------------------------------------------


@dataclass
class ClosureResult:
    S_found: dict[int, tuple[int, ...]]  # start vertex -> witness path on the seed's vertices
    T_found: dict[int, tuple[int, ...]]
    extension: tuple[int, ...] | None = None  # the path plus one outside vertex


# A sweep record's finder_outcome is a code into this tuple: "" where no
# finder ran, otherwise the FinderOutcome.outcome it returned.
OUTCOME_TEXTS = ("", "found", "gave_up")


@dataclass(frozen=True)
class FinderOutcome:
    outcome: str  # one of OUTCOME_TEXTS[1:]
    path: AlternatingPath  # order k when found, the longest path seen when gave_up
    reason: str | None  # "OddStuck" | "EvenStuck" | "BudgetExceeded"
    rounds: int
    condition_holds: bool

    def to_json(self) -> dict:
        doc: dict = {
            "outcome": self.outcome,
            "rounds": self.rounds,
            "condition_holds": self.condition_holds,
        }
        ff = self.path.first_forward
        doc["path"] = {
            "first_forward": None if ff is None else bool(ff),
            "verts": list(self.path.verts),
        }
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
    """No rotation lengthens path: the exact oracle decides within its order bound.

    Within the bound the find is found, or gives up with the oracle's
    longest path; beyond it the find gives up with path.
    """
    if g.n <= budget.oracle.max_n_subset_dp:
        best_l, wit = longest_alt_path_exact(g, budget.oracle)
        if best_l >= k:
            return FinderOutcome("found", trim(wit, k), None, rounds, cond)
        path = wit
    return FinderOutcome("gave_up", path, reason, rounds, cond)


def find_alternating_path(
    g: OrientedGraph, k: int, budget: EngineBudget | None = None
) -> FinderOutcome:
    if k < 1:
        raise BadParams("k must be >= 1")
    budget = budget or EngineBudget()
    cond = condition_holds(g, k)
    rounds_cap = budget.rounds if budget.rounds is not None else max(4 * k, 8)

    if g.n == 0:
        return FinderOutcome("gave_up", path_from_verts(g, ()), "OddStuck", 0, cond)
    if k == 1:
        return FinderOutcome("found", path_from_verts(g, (0,)), None, 0, cond)

    seed = None
    for u in range(g.n):
        if g.out_masks[u]:
            seed = (u, (g.out_masks[u] & -g.out_masks[u]).bit_length() - 1)
            break
    if seed is None:
        return FinderOutcome("gave_up", path_from_verts(g, (0,)), "OddStuck", 0, cond)

    # greedy_extend and the oracle return alternating paths with first_forward
    # set, which the outcomes carry as they are; greedy extension from below
    # order k stops at order k exactly, so only the oracle's witness is trimmed
    path = greedy_extend(g, path_from_verts(g, seed), k)
    rounds = 0
    while path.order < k:
        rounds += 1
        if rounds > rounds_cap:
            return FinderOutcome("gave_up", path, "BudgetExceeded", rounds, cond)
        closure = start_closure(g, path.verts)
        if closure.extension is None:
            reason = "OddStuck" if path.order % 2 else "EvenStuck"
            return _stuck(g, k, budget, reason, path, rounds, cond)
        path = greedy_extend(g, path_from_verts(g, closure.extension), k)
    return FinderOutcome("found", path, None, rounds, cond)
