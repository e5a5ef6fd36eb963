import dataclasses
import hashlib
import json
import random

import pytest

from altpaths import errors, rotation_engine
from altpaths.altpath import ParityFrame, greedy_extend, path_from_verts, validate
from altpaths.graph_core import (
    blowup_directed_cycle,
    from_edge_list,
    min_pseudo_semidegree,
    random_oriented,
)
from altpaths.oracle import OracleBudget, longest_alt_path_exact
from altpaths.rotation_engine import (
    Certificate,
    EngineBudget,
    _end_closure_from,
    certificate_is_sound,
    condition_holds,
    evenham_cycle,
    find_alternating_path,
    lemma_forgotten_check,
    max_k_for,
    start_closure,
)
from _brute import brute_bipartite_ham_cycle_exists, brute_respectable_endpoints, is_respectable

# complete bipartite source->sink graph on {0,1} -> {2,3}
KB2 = from_edge_list([(0, 2), (0, 3), (1, 2), (1, 3)], 4)
FRAME2 = ParityFrame(frozenset({0, 1}), frozenset({2, 3}), 2)

# a path-shaped frame with no rotations available: 0 -> 2 <- 1 -> 3
PATHY = from_edge_list([(0, 2), (1, 2), (1, 3)], 4)

# worked m=3 instance: complete bipartite {0,1,2} -> {3,4,5}, an inner
# source edge 1 -> 0, and an outside in-neighbor 6 -> 0
WORKED = from_edge_list(
    [(o, e) for o in (0, 1, 2) for e in (3, 4, 5)] + [(1, 0), (6, 0)], 7
)


# The bipartite graph H of a parity frame holds its source->sink arcs only.
# Two things read H: the lemma count (the Moon-Moser count with every
# threshold raised by one) and evenham_cycle's counts, which pass only
# where an end-rotation closes a spanning source->sink cycle, a Hamilton
# cycle of H.


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


def _seed_paths(adj_x):
    """Every spanning source->sink path s, t, s, t, ... of H, in DFS order."""
    m = len(adj_x)
    adj_y = _adj_y(adj_x)

    def dfs(path, used_x, used_y):
        if len(path) == 2 * m:
            yield tuple(v if t % 2 == 0 else m + v for t, v in enumerate(path))
            return
        last = path[-1]
        if len(path) % 2:  # at a source: step to a new sink
            for j in range(m):
                if (adj_x[last] >> j) & 1 and not (used_y >> j) & 1:
                    yield from dfs(path + [j], used_x, used_y | 1 << j)
        else:  # at a sink: step to a new source
            for i in range(m):
                if (adj_y[last] >> i) & 1 and not (used_x >> i) & 1:
                    yield from dfs(path + [i], used_x | 1 << i, used_y)

    for i in range(m):
        yield from dfs([i], 1 << i, 0)


def _seed_path(adj_x):
    """The first spanning source->sink path of H, or None."""
    return next(_seed_paths(adj_x), None)


def _evenham(adj_x):
    """(frame graph, evenham_cycle's result) from H's first seed path."""
    g = _frame_graph(adj_x)
    frame = _frame(len(adj_x))
    return g, evenham_cycle(g, frame, start_closure(g, _seed_path(adj_x)))


def _h_of(g, frame):
    """(adj_x, adj_y) of the frame's H, sources and sinks indexed in sorted order."""
    sources, sinks = sorted(frame.sources), sorted(frame.sinks)
    adj_x = [sum(1 << j for j, t in enumerate(sinks) if g.has_edge(s, t)) for s in sources]
    return adj_x, _adj_y(adj_x)


def _seeded_frames():
    """(graph, frame, respectable seed path): 30 seeded frames at each m = 2..5.

    The seed path's arcs, source->sink arcs at density 0.5 or 0.8, other
    arcs at 0.3 in random directions, and 0, 1 or 2 vertices outside the
    frame, so closures both extend and stay inside.
    """
    rng = random.Random(12)
    for m in range(2, 6):
        for trial in range(30):
            n = 2 * m + trial % 3
            seed = tuple(rng.sample(range(n), 2 * m))
            sources, sinks = frozenset(seed[0::2]), frozenset(seed[1::2])
            arcs = {(a, b) if a in sources else (b, a) for a, b in zip(seed, seed[1:])}
            dense = rng.choice((0.5, 0.8))
            for u in range(n):
                for v in range(u + 1, n):
                    if (u, v) in arcs or (v, u) in arcs:
                        continue
                    if {u, v} & sources and {u, v} & sinks:
                        if rng.random() < dense:
                            arcs.add((u, v) if u in sources else (v, u))
                    elif rng.random() < 0.3:
                        arcs.add((u, v) if rng.random() < 0.5 else (v, u))
            yield from_edge_list(sorted(arcs), n), ParityFrame(sources, sinks, m), seed


class TestRotations:
    # from 0 2 1 3 in KB2 the chord 0 -> 3 rotates once at each end; the arcs
    # 0 -> 2 and 1 -> 3 run along the path's first and last edges and do not

    def test_start_rotation(self):
        out = start_closure(KB2, (0, 2, 1, 3)).S_found[1]
        assert out == (1, 2, 0, 3)
        assert is_respectable(KB2, FRAME2, out)

    def test_start_degenerate_pivot_is_identity(self):
        res = start_closure(KB2, (0, 2, 1, 3))
        assert res.S_found == {0: (0, 2, 1, 3), 1: (1, 2, 0, 3)}
        assert res.T_found == {3: (0, 2, 1, 3), 2: (0, 3, 1, 2)}
        res = start_closure(PATHY, (0, 2, 1, 3))
        assert res.S_found == {0: (0, 2, 1, 3)} and res.T_found == {3: (0, 2, 1, 3)}

    def test_end_rotation(self):
        out = start_closure(KB2, (0, 2, 1, 3)).T_found[2]
        assert out == (0, 3, 1, 2)
        assert is_respectable(KB2, FRAME2, out)


class TestStartClosure:
    def test_complete_frame_all_endpoints(self):
        res = start_closure(KB2, (0, 2, 1, 3))
        assert set(res.S_found) == {0, 1}
        assert set(res.T_found) == {2, 3}
        assert res.extension is None
        for start, wit in res.S_found.items():
            assert wit[0] == start and is_respectable(KB2, FRAME2, wit)

    def test_rotation_free_path(self):
        res = start_closure(PATHY, (0, 2, 1, 3))
        assert set(res.S_found) == {0}
        assert set(res.T_found) == {3}
        assert res.extension is None

    def test_pendant_extension_found(self):
        g = from_edge_list(
            [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4)], 5
        )
        res = start_closure(g, (0, 2, 1, 3))
        assert res.extension == (4, 0, 2, 1, 3)
        assert validate(g, path_from_verts(g, res.extension))

    def test_sink_reversed_seed_accepted(self):
        res = start_closure(KB2, (3, 1, 2, 0))
        assert set(res.S_found) == {0, 1}

    def test_seeded_frames_within_brute_endpoints(self):
        # every start and terminal the closure reaches is one of a respectable
        # path, and its witness is such a path; an extension adds one outside vertex
        extended = inside = 0
        for g, frame, seed in _seeded_frames():
            res = start_closure(g, seed)
            starts, ends = brute_respectable_endpoints(g, set(frame.sources), set(frame.sinks))
            assert set(res.S_found) <= starts and set(res.T_found) <= ends
            for u, wit in res.S_found.items():
                assert wit[0] == u and is_respectable(g, frame, wit)
            for t, wit in res.T_found.items():
                assert wit[-1] == t and is_respectable(g, frame, wit)
            if res.extension is None:
                inside += 1
                continue
            ext_path = res.extension
            (w,) = set(ext_path) - frame.sources - frame.sinks
            assert w in (ext_path[0], ext_path[-1])
            assert len(ext_path) == 2 * frame.m + 1
            assert validate(g, path_from_verts(g, ext_path))
            extended += 1
        assert extended > 0 and inside > 0

    def test_seeded_end_closures_respectable(self):
        # the end-rotation closure from each witness keeps its start and
        # reaches only terminals of respectable paths
        closures = 0
        for g, frame, seed in _seeded_frames():
            res = start_closure(g, seed)
            if res.extension is not None:
                continue
            _, ends = brute_respectable_endpoints(g, set(frame.sources), set(frame.sinks))
            for u, wit in res.S_found.items():
                terminals = _end_closure_from(g, frame, wit)
                assert set(terminals) <= ends
                for t, path in terminals.items():
                    assert path[0] == u and path[-1] == t
                    assert is_respectable(g, frame, path)
                closures += 1
        assert closures > 0


class TestEvenhamCycle:
    def test_complete_frame_cycle(self):
        closure = start_closure(KB2, (0, 2, 1, 3))
        assert evenham_cycle(KB2, FRAME2, closure) is None
        assert brute_bipartite_ham_cycle_exists(*_h_of(KB2, FRAME2))

    def test_sparse_frame_a_count_certificate(self):
        closure = start_closure(PATHY, (0, 2, 1, 3))
        cert = evenham_cycle(PATHY, FRAME2, closure)
        assert isinstance(cert, Certificate)
        assert cert.stage == "A-count"
        assert cert.vertex == 0 and cert.side == "out" and cert.degree == 1
        assert certificate_is_sound(PATHY, cert)
        assert not certificate_is_sound(PATHY, dataclasses.replace(cert, side="undirected"))

    def test_rejects_closure_with_extension(self):
        g = from_edge_list([(0, 2), (0, 3), (1, 2), (1, 3), (0, 4)], 5)
        closure = start_closure(g, (0, 2, 1, 3))
        with pytest.raises(errors.BadParams):
            evenham_cycle(g, FRAME2, closure)

    def test_degenerate_m1_certificate(self):
        g = from_edge_list([(0, 1)], 2)
        frame = ParityFrame(frozenset({0}), frozenset({1}), 1)
        cert = evenham_cycle(g, frame, start_closure(g, (0, 1)))
        assert isinstance(cert, Certificate)
        assert cert.stage == "degenerate-m1"

    def test_seeded_frames_cycles_valid(self):
        # a pass means H has a Hamilton cycle; a certificate recounts in g
        cycles = certificates = 0
        for g, frame, seed in _seeded_frames():
            closure = start_closure(g, seed)
            if closure.extension is not None:
                continue
            out = evenham_cycle(g, frame, closure)
            if out is None:
                assert brute_bipartite_ham_cycle_exists(*_h_of(g, frame))
                cycles += 1
            else:
                assert certificate_is_sound(g, out)
                certificates += 1
        assert cycles > 0 and certificates > 0

    def test_counts_pass_only_on_full_closures(self):
        # wherever the counts pass, the closure reached every source and sink
        # and tested each for an outside neighbor, so cutting the spanning
        # cycle open could not extend the path any further
        def cases():
            for m in range(1, 4):
                for code in range(1 << (m * m)):
                    adj_x = [(code >> (m * i)) & ((1 << m) - 1) for i in range(m)]
                    g, frame = _frame_graph(adj_x), _frame(m)
                    for seed in _seed_paths(adj_x):
                        yield g, frame, seed
            for g, frame, seed in _seeded_frames():
                yield g, frame, seed
            rng = random.Random(31)
            for _ in range(60):
                m = rng.randrange(4, 9)
                dense = rng.choice((0.6, 0.8, 0.9))
                adj_x = [sum(1 << j for j in range(m) if rng.random() < dense) for _ in range(m)]
                seed = _seed_path(adj_x)
                if seed is not None:
                    yield _frame_graph(adj_x), _frame(m), seed

        passed = 0
        for g, frame, seed in cases():
            closure = start_closure(g, seed)
            if closure.extension is None and evenham_cycle(g, frame, closure) is None:
                assert set(closure.S_found) == frame.sources
                assert set(closure.T_found) == frame.sinks
                passed += 1
        assert passed > 0

    def test_impossible(self):
        # sink 5 has the single source in-neighbor 2, so H has no Hamilton cycle
        adj_x = [0b011, 0b011, 0b111]
        g, out = _evenham(adj_x)
        assert not brute_bipartite_ham_cycle_exists(adj_x, _adj_y(adj_x))
        assert isinstance(out, Certificate)
        assert (out.vertex, out.side, out.degree) == (5, "in", 1)
        assert certificate_is_sound(g, out)

    def test_matches_exact_referee(self):
        # evenham_cycle may give up on a spanned frame, but it passes only
        # where H has a Hamilton cycle, and its certificates recount in g
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
            g, out = _evenham(adj_x)
            if out is None:
                cycles += 1
                assert brute_bipartite_ham_cycle_exists(adj_x, _adj_y(adj_x))
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
            assert _evenham(adj_x)[1] is None
            assert brute_bipartite_ham_cycle_exists(adj_x, _adj_y(adj_x))


class TestLemmaCheck:
    def test_complete_m4_passes(self):
        edges = [(o, e) for o in range(4) for e in range(4, 8)]
        g = from_edge_list(edges, 8)
        frame = ParityFrame(frozenset(range(4)), frozenset(range(4, 8)), 4)
        assert lemma_forgotten_check(g, frame) is None

    def test_low_degree_vertex_fails(self):
        # vertex 0 keeps only two sink neighbors; trips the l=1 count.  The
        # sink->source arc 7 -> 0 is not a source->sink arc and must not count
        edges = [(o, e) for o in range(1, 4) for e in range(4, 8)]
        edges += [(0, 4), (0, 5), (7, 0)]
        g = from_edge_list(edges, 8)
        frame = ParityFrame(frozenset(range(4)), frozenset(range(4, 8)), 4)
        cert = lemma_forgotten_check(g, frame)
        assert cert is not None and cert.stage == "lemma-count"
        assert cert.vertex == 0 and cert.degree == 2 and cert.bound == 2
        assert certificate_is_sound(g, cert)

    def test_ignores_outside_and_reverse_edges(self):
        # 4 -> 0 enters from outside the frame, 2 -> 1 runs sink -> source
        g = from_edge_list([(0, 2), (1, 3), (4, 0), (2, 1)], 5)
        frame = ParityFrame(frozenset({0, 1}), frozenset({2, 3}), 2)
        cert = lemma_forgotten_check(g, frame)
        assert cert == Certificate(0, "out", 1, 2, "lemma-count", (2, 3))
        assert certificate_is_sound(g, cert)
        # in H sink 2 has the one source in-neighbor 0
        assert certificate_is_sound(g, Certificate(2, "in", 1, 2, "lemma-count", (0, 1)))
        # H is the matching 0 -> 2, 1 -> 3: a spanning cycle needs 1 -> 2 and 0 -> 3
        assert not brute_bipartite_ham_cycle_exists(*_h_of(g, frame))
        assert brute_bipartite_ham_cycle_exists(*_h_of(KB2, frame))

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


class TestTwoSidedClosure:
    def test_direct_extension(self):
        g = from_edge_list([(0, 1), (2, 1), (2, 3)], 4)
        ext = start_closure(g, (0, 1, 2)).extension
        assert ext == (0, 1, 2, 3)

    def test_stuck_path(self):
        g = from_edge_list([(0, 1), (2, 1)], 4)
        assert start_closure(g, (0, 1, 2)).extension is None

    def test_extension_validates(self):
        g = blowup_directed_cycle(4, 2)
        ext = start_closure(g, (0, 2, 1)).extension
        if ext is not None:
            assert validate(g, path_from_verts(g, ext))

    def test_seeded_stuck_paths_extend_at_order_len_plus_one(self):
        # greedy leaves each odd path with no direct extension, so every
        # extension found here comes from rotations; every witness is an
        # alternating path on the seed's vertices whose ends keep their class
        extended = 0
        for g, _, _ in _seeded_frames():
            stuck = {greedy_extend(g, path_from_verts(g, arc), g.n).verts for arc in g.edges()}
            for verts in sorted(p for p in stuck if len(p) % 2 == 1):
                res = start_closure(g, verts)
                assert all(wit[0] == u for u, wit in res.S_found.items())
                assert all(wit[-1] == t for t, wit in res.T_found.items())
                head_src = g.has_edge(verts[0], verts[1])
                for wit in [*res.S_found.values(), *res.T_found.values()]:
                    assert set(wit) == set(verts) and validate(g, path_from_verts(g, wit))
                    assert g.has_edge(wit[0], wit[1]) == head_src
                ext = res.extension
                if ext is None:
                    continue
                assert len(ext) == len(verts) + 1 and set(verts) < set(ext)
                assert validate(g, path_from_verts(g, ext))
                extended += 1
        assert extended > 0


class TestFinder:
    def test_single_edge(self):
        g = from_edge_list([(0, 1)], 2)
        out = find_alternating_path(g, 2)
        assert out.outcome == "found" and out.path.verts == (0, 1)
        # pseudo-semidegree 1 and k=2: 8 > 10 fails, so the condition is off
        assert not out.condition_holds
        assert out.condition_holds == condition_holds(g, 2)

    def test_k1(self):
        g = from_edge_list([], 3)
        out = find_alternating_path(g, 1)
        assert out.outcome == "found" and out.path.order == 1

    def test_edgeless_gives_up(self):
        g = from_edge_list([], 3)
        out = find_alternating_path(g, 2)
        assert out.outcome == "gave_up" and out.reason == "OddStuck"
        assert not out.condition_holds

    def test_bad_k(self):
        with pytest.raises(errors.BadParams):
            find_alternating_path(from_edge_list([], 1), 0)

    def test_bad_rounds(self):
        with pytest.raises(errors.BadParams):
            EngineBudget(rounds=-1)
        out = find_alternating_path(KB2, 4, EngineBudget(rounds=0))
        assert out.outcome == "found" and out.rounds == 0

    def test_odd_closure_out_of_budget(self):
        # 0 -> 1 <- 2 is stuck at odd order 3; k = 4 sends it to the two-sided closure
        g = from_edge_list([(0, 1), (2, 1)], 4)
        no_oracle = EngineBudget(oracle=OracleBudget(max_n_subset_dp=3))
        out = find_alternating_path(g, 4, no_oracle)
        assert (out.outcome, out.reason, out.path.verts) == ("gave_up", "OddStuck", (0, 1, 2))
        # within the oracle's order the exact fallback still decides
        out = find_alternating_path(g, 4)
        assert (out.outcome, out.reason) == ("gave_up", "OddStuck")
        assert out.path.order == longest_alt_path_exact(g)[0] == 3

    def test_complete_bipartite_found(self):
        out = find_alternating_path(KB2, 4)
        assert out.outcome == "found"
        assert out.path.order == 4 and validate(KB2, out.path)

    def test_blowup_at_kmax(self):
        g = blowup_directed_cycle(3, 2)
        out = find_alternating_path(g, 3)
        assert out.outcome == "found" and out.path.order == 3
        assert out.condition_holds

    def test_blowup_beyond_maximum(self):
        g = blowup_directed_cycle(3, 2)
        out = find_alternating_path(g, 5)
        assert out.outcome != "found"
        assert not out.condition_holds

    def test_found_order_is_exactly_k(self):
        g = blowup_directed_cycle(4, 3)
        for k in (2, 3, 4, 5, 6):
            out = find_alternating_path(g, k)
            assert out.outcome == "found" and out.path.order == k
            assert validate(g, out.path)

    def test_random_agrees_with_oracle(self):
        for seed in range(25):
            g = random_oriented(9, 0.5, 500 + seed)
            best, _ = longest_alt_path_exact(g)
            for k in (2, best, best + 1):
                if k < 1 or k > g.n:
                    continue
                out = find_alternating_path(g, k)
                if k > best:
                    assert out.outcome != "found"
                elif condition_holds(g, k):
                    assert out.outcome == "found"
                if out.outcome == "found":
                    assert out.path.order == k and validate(g, out.path)

    def test_outcomes_beyond_kmax_pinned(self):
        # above the threshold the finder runs its closures, cycle counts,
        # lemma count and oracle fallback; pin every outcome byte for byte.
        # The path-free digest drops the witness of each found outcome, so it
        # pins outcome, rounds, reason, certificate and condition alone; the
        # full digest also pins which order-k window of greedy's path is found.
        digest, path_free = hashlib.sha256(), hashlib.sha256()
        finds = found = 0
        for g, k in _beyond_kmax_family():
            out = find_alternating_path(g, k)
            # every round but the last lengthens the order-2 seed, so the default cap never binds
            assert out.rounds <= max(k - 2, 0)
            doc = out.to_json()
            digest.update(json.dumps(doc, sort_keys=True).encode())
            if out.outcome == "found":
                assert out.path.order == k and validate(g, out.path)
                del doc["path"]
                found += 1
            path_free.update(json.dumps(doc, sort_keys=True).encode())
            finds += 1
        assert (finds, found) == (1211, 936)
        assert path_free.hexdigest() == (
            "e193db371e583ef98c126dac63e9fde7660a69c9f55032c7f9e601629c6ef9ab"
        )
        assert digest.hexdigest() == (
            "64964030cc3846e0a9b511d85a02616c4c7dc735cae5955dc49f17903ade72a5"
        )

    @pytest.mark.slow
    def test_random_finds_pinned(self):
        # every find from max(kmax, 1) to n on 3,240 random graphs, n = 6..14:
        # one sorted-key outcome line per find, pinned byte for byte
        digest = hashlib.sha256()
        finds = 0
        for n in range(6, 15):
            for p in (0.3, 0.5, 0.7, 0.9):
                for s in range(90):
                    g = random_oriented(n, p, 77_000 + 1000 * n + 100 * int(10 * p) + s)
                    for k in range(max(max_k_for(min_pseudo_semidegree(g)), 1), n + 1):
                        doc = find_alternating_path(g, k).to_json()
                        digest.update((json.dumps(doc, sort_keys=True) + "\n").encode())
                        finds += 1
        assert finds == 31_217
        assert digest.hexdigest() == (
            "4e88cd9e9a9dd470bd47d9e491882823402d814aa2d461c6326e05b5d686ce81"
        )

    def test_outcome_json_shape(self):
        out = find_alternating_path(KB2, 4)
        doc = out.to_json()
        assert doc["outcome"] == "found"
        assert doc["path"]["verts"] == list(out.path.verts)
        assert isinstance(doc["path"]["first_forward"], bool)
        assert set(doc) == {"outcome", "rounds", "condition_holds", "path"}
        json.dumps(doc)  # serializable

    def test_diagnostic_json_shape(self):
        cert = evenham_cycle(PATHY, FRAME2, start_closure(PATHY, (0, 2, 1, 3)))
        doc = Certificate.to_json(cert)
        assert set(doc) == {"vertex", "side", "degree", "bound", "stage", "scope"}

    def test_certificates_reverify_from_json(self):
        # finds above kmax end in diagnostics; each emitted certificate must
        # recount correctly from its JSON form alone, on a random family and
        # on the pinned family (whose lemma counts include sink->source arcs)
        def recheck_family():
            for n in range(10, 15):
                for seed in range(12):
                    g = random_oriented(n, 0.5, 3000 + 100 * n + seed)
                    pseudo = min_pseudo_semidegree(g)
                    kmax = 0 if pseudo is None else (8 * pseudo - 1) // 5
                    for k in range(kmax + 1, n + 1):
                        yield g, k

        for family in (recheck_family(), _beyond_kmax_family()):
            checked = 0
            for g, k in family:
                out = find_alternating_path(g, k)
                if out.outcome != "diagnostic":
                    continue
                doc = json.loads(json.dumps(out.to_json()))
                assert certificate_is_sound(g, Certificate(**doc["certificate"])), doc
                checked += 1
            assert checked > 0

    def test_even_stuck_takes_the_oracle(self):
        # WORKED's frame passes the cycle counts and the lemma count, and its
        # closure finds no outside neighbor; its longest path has order 6,
        # so k = 7 gives up
        out = find_alternating_path(WORKED, 7)
        assert (out.outcome, out.reason) == ("gave_up", "EvenStuck")
        assert out.path.order == longest_alt_path_exact(WORKED)[0] == 6
        assert validate(WORKED, out.path)

    def test_even_stuck_oracle_finds_the_path(self):
        # the greedy path 2 4 0 3 1 5 is stuck at order 6, yet an order-7
        # path exists through 1 -> 0 and 5 -> 6; the oracle returns it
        g = from_edge_list(
            [(0, 3), (0, 4), (0, 5), (1, 0), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4),
             (2, 5), (5, 3), (5, 4), (5, 6)],
            7,
        )
        out = find_alternating_path(g, 7)
        assert out.outcome == "found" and out.path.order == 7
        assert validate(g, out.path)

    def test_even_stuck_beyond_the_oracle(self):
        no_oracle = EngineBudget(oracle=OracleBudget(max_n_subset_dp=6))
        out = find_alternating_path(WORKED, 7, no_oracle)
        assert (out.outcome, out.reason) == ("gave_up", "EvenStuck")
        assert out.path.order == 6 and validate(WORKED, out.path)


class TestStageReach:
    """Each stage past greedy reaches a find of a production workload and yields there."""

    @staticmethod
    def _spy(monkeypatch, name):
        """Record (args, result) of every rotation_engine.<name> call in the finds that follow."""
        results = []
        stage = getattr(rotation_engine, name)

        def spy(*args):
            results.append((args, stage(*args)))
            return results[-1][1]

        monkeypatch.setattr(rotation_engine, name, spy)
        return results

    def test_start_closure_finishes_the_n7_witness(self, monkeypatch):
        # the regular tournament on 7 vertices: greedy stops at order 4 and
        # one start_closure round on that even path reaches order 5
        masks = (14, 28, 88, 112, 97, 7, 35)
        g = from_edge_list([(u, v) for u in range(7) for v in range(7) if masks[u] >> v & 1], 7)
        assert g.out_masks == masks and min_pseudo_semidegree(g) == 3
        assert greedy_extend(g, path_from_verts(g, (0, 1)), 5).order == 4
        closures = self._spy(monkeypatch, "start_closure")
        out = find_alternating_path(g, 5)
        assert (out.outcome, out.rounds, out.path.order) == ("found", 1, 5)
        assert validate(g, out.path)
        [((_, verts), closure)] = closures
        assert len(verts) % 2 == 0 and closure.extension == (3, 0, 1, 5, 2)

    def test_two_sided_closure_lengthens_a_pinned_find(self, monkeypatch):
        # greedy stops at odd order 7, and one start_closure round reaches 8
        g = _family_graph(9, 3, 0.8)
        closures = self._spy(monkeypatch, "start_closure")
        out = find_alternating_path(g, 8)
        assert (out.outcome, out.rounds, out.path.order) == ("found", 1, 8)
        assert validate(g, out.path)
        [((_, verts), closure)] = closures
        assert len(verts) == 7 and len(closure.extension) == 8

    def test_lemma_count_certifies_a_pinned_find(self, monkeypatch):
        g = _family_graph(9, 2, 0.3)
        lemma = self._spy(monkeypatch, "lemma_forgotten_check")
        out = find_alternating_path(g, 5)
        assert (out.outcome, out.rounds) == ("diagnostic", 1)
        assert out.certificate == Certificate(0, "out", 2, 2, "lemma-count", (6, 7))
        assert [cert for _, cert in lemma] == [out.certificate]
        assert certificate_is_sound(g, out.certificate)


def _family_graph(n, seed, p):
    """The _beyond_kmax_family graph of order n, seed index seed and density p."""
    return random_oriented(n, p, 4000 + 100 * n + 10 * seed + int(10 * p))


def _beyond_kmax_family():
    """(graph, k) for every k from kmax + 1 (at least 2) to n, 1,211 finds in all."""
    for n in range(8, 15):
        for seed in range(6):
            for p in (0.3, 0.5, 0.8):
                g = _family_graph(n, seed, p)
                pseudo = min_pseudo_semidegree(g)
                kmax = 0 if pseudo is None else (8 * pseudo - 1) // 5
                for k in range(max(kmax + 1, 2), n + 1):
                    yield g, k
