"""The bipartite graph H of a parity frame: its source->sink arcs only.

Two things read H: the lemma count (the Moon-Moser count with every
threshold raised by one) and the spanning source->sink cycle that
evenham_cycle builds, which is a Hamilton cycle of H.
"""
import random

from altpaths.altpath import ParityFrame
from altpaths.graph_core import from_edge_list
from altpaths.rotation_engine import (
    AltSpanningCycle,
    Certificate,
    certificate_is_sound,
    cycle_is_valid,
    evenham_cycle,
    lemma_forgotten_check,
    start_closure,
)
from _brute import brute_bipartite_ham_cycle_exists


def _frame(m):
    return ParityFrame(frozenset(range(m)), frozenset(range(m, 2 * m)), m)


def _frame_graph(adj_x, extra=()):
    """Sources 0..m-1, sinks m..2m-1; bit j of adj_x[i] is the arc i -> m+j."""
    m = len(adj_x)
    edges = [(i, m + j) for i in range(m) for j in range(m) if (adj_x[i] >> j) & 1]
    return from_edge_list(edges + list(extra), 2 * m + 1)


def _adj_y(adj_x):
    m = len(adj_x)
    return [sum(1 << i for i in range(m) if (adj_x[i] >> j) & 1) for j in range(m)]


def _seed_path(adj_x):
    """A spanning source->sink path s, t, s, t, ... of H by DFS, or None."""
    m = len(adj_x)
    adj_y = _adj_y(adj_x)

    def dfs(path, used_x, used_y):
        if len(path) == 2 * m:
            return path
        last = path[-1]
        if len(path) % 2:  # at a source: step to a new sink
            options = [j for j in range(m) if (adj_x[last] >> j) & 1 and not (used_y >> j) & 1]
            for j in options:
                got = dfs(path + [j], used_x, used_y | 1 << j)
                if got:
                    return got
        else:  # at a sink: step to a new source
            options = [i for i in range(m) if (adj_y[last] >> i) & 1 and not (used_x >> i) & 1]
            for i in options:
                got = dfs(path + [i], used_x | 1 << i, used_y)
                if got:
                    return got
        return None

    for i in range(m):
        got = dfs([i], 1 << i, 0)
        if got:
            return tuple(v if t % 2 == 0 else m + v for t, v in enumerate(got))
    return None


def _spanning_cycle(adj_x):
    g = _frame_graph(adj_x)
    frame = _frame(len(adj_x))
    return g, frame, evenham_cycle(g, frame, start_closure(g, frame, _seed_path(adj_x), debug=True), debug=True)


class TestBuildH:
    def test_ignores_outside_and_reverse_edges(self):
        # 4 -> 0 enters from outside the frame, 2 -> 1 runs sink -> source
        g = from_edge_list([(0, 2), (1, 3), (4, 0), (2, 1)], 5)
        frame = ParityFrame(frozenset({0, 1}), frozenset({2, 3}), 2)
        cert = lemma_forgotten_check(g, frame)
        assert cert == Certificate(0, "out", 1, 2, "lemma-count", (2, 3))
        assert certificate_is_sound(g, cert)
        # in H sink 2 has the one source in-neighbor 0
        assert certificate_is_sound(g, Certificate(2, "in", 1, 2, "lemma-count", (0, 1)))
        # 0 -> 2 <- 1 -> 3 -> 0 would need the arcs 1 -> 2 and 0 -> 3
        assert not cycle_is_valid(g, frame, AltSpanningCycle((0, 2, 1, 3)))
        assert cycle_is_valid(
            from_edge_list([(0, 2), (1, 2), (1, 3), (0, 3)], 4), frame, AltSpanningCycle((0, 2, 1, 3))
        )


class TestMoonMoser:
    def test_complete_passes(self):
        for m in range(3, 7):
            # an outside vertex 2m on both sides of the frame changes nothing
            g = _frame_graph([(1 << m) - 1] * m, [(2 * m, 0), (m, 2 * m)])
            assert lemma_forgotten_check(g, _frame(m)) is None

    def test_matching_fails(self):
        # perfect matching: every degree is 1, which trips l=1 (bound 2)
        g = _frame_graph([0b001, 0b010, 0b100])
        cert = lemma_forgotten_check(g, _frame(3))
        assert cert == Certificate(0, "out", 1, 2, "lemma-count", (3, 4, 5))
        assert certificate_is_sound(g, cert)

    def test_second_level_failure(self):
        # m=4, two sources of degree 3 pass l=1 and trip l=2 (bound 3)
        g = _frame_graph([0b0111, 0b1110, 0b1111, 0b1111])
        cert = lemma_forgotten_check(g, _frame(4))
        assert cert == Certificate(0, "out", 3, 3, "lemma-count", (4, 5, 6, 7))
        assert certificate_is_sound(g, cert)
        # m=5, every source misses one sink, sinks 8 and 9 are missed twice:
        # the sources pass l=2 and the sinks trip it
        full = 0b11111
        g = _frame_graph([full & ~(1 << 3)] * 2 + [full & ~(1 << 4)] * 2 + [full & ~(1 << 2)])
        cert = lemma_forgotten_check(g, _frame(5))
        assert cert == Certificate(8, "in", 3, 3, "lemma-count", (0, 1, 2, 3, 4))
        assert certificate_is_sound(g, cert)


class TestHamiltonCycle:
    def test_impossible(self):
        # sink 5 has the single source in-neighbor 2, so H has no Hamilton cycle
        adj_x = [0b011, 0b011, 0b111]
        g, _, out = _spanning_cycle(adj_x)
        assert not brute_bipartite_ham_cycle_exists(adj_x, _adj_y(adj_x))
        assert isinstance(out, Certificate)
        assert (out.vertex, out.side, out.degree) == (5, "in", 1)
        assert certificate_is_sound(g, out)

    def test_matches_exact_referee(self):
        # evenham_cycle may give up on a spanned frame, but its cycles are
        # Hamilton cycles of H and its certificates recount in g
        rng = random.Random(11)
        cycles = 0
        for _ in range(150):
            m = rng.randrange(2, 6)
            adj_x = [0] * m
            for i in range(m):
                for j in range(m):
                    if rng.random() < 0.65:
                        adj_x[i] |= 1 << j
            if _seed_path(adj_x) is None:
                continue
            g, frame, out = _spanning_cycle(adj_x)
            want = brute_bipartite_ham_cycle_exists(adj_x, _adj_y(adj_x))
            if isinstance(out, AltSpanningCycle):
                cycles += 1
                assert want and cycle_is_valid(g, frame, out)
            else:
                assert certificate_is_sound(g, out)
        assert cycles > 0

    def test_dense_random_solved(self):
        # dense balanced frames: each source misses a distinct sink, so both
        # sides are (m-1)-regular and evenham_cycle must span them
        rng = random.Random(23)
        for _ in range(40):
            m = rng.randrange(4, 11)
            full = (1 << m) - 1
            miss = rng.sample(range(m), m)
            adj_x = [full & ~(1 << miss[i]) for i in range(m)]
            g, frame, out = _spanning_cycle(adj_x)
            assert isinstance(out, AltSpanningCycle)
            assert cycle_is_valid(g, frame, out)
