import hashlib
import json
import random

import pytest

from altpaths import errors, rotation_engine
from altpaths.altpath import greedy_extend, path_from_verts, validate
from altpaths.graph_core import (
    blowup_directed_cycle,
    from_edge_list,
    min_pseudo_semidegree,
    random_oriented,
)
from altpaths.oracle import OracleBudget, longest_alt_path_exact
from altpaths.rotation_engine import (
    EngineBudget,
    condition_holds,
    find_alternating_path,
    max_k_for,
    start_closure,
)
from _brute import brute_respectable_endpoints, is_respectable

# complete bipartite source->sink graph on {0,1} -> {2,3}
KB2 = from_edge_list([(0, 2), (0, 3), (1, 2), (1, 3)], 4)
SOURCES2, SINKS2 = {0, 1}, {2, 3}

# a path-shaped graph with no rotations available: 0 -> 2 <- 1 -> 3
PATHY = from_edge_list([(0, 2), (1, 2), (1, 3)], 4)

# worked m=3 instance: complete bipartite {0,1,2} -> {3,4,5}, an inner
# source edge 1 -> 0, and an outside in-neighbor 6 -> 0
WORKED = from_edge_list(
    [(o, e) for o in (0, 1, 2) for e in (3, 4, 5)] + [(1, 0), (6, 0)], 7
)


def _seeded_frames():
    """(graph, sources, sinks, respectable seed path): 30 seeded frames at each m = 2..5.

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
            yield from_edge_list(sorted(arcs), n), set(sources), set(sinks), seed


class TestRotations:
    # from 0 2 1 3 in KB2 the chord 0 -> 3 rotates once at each end; the arcs
    # 0 -> 2 and 1 -> 3 run along the path's first and last edges and do not

    def test_start_rotation(self):
        out = start_closure(KB2, (0, 2, 1, 3)).S_found[1]
        assert out == (1, 2, 0, 3)
        assert is_respectable(KB2, SOURCES2, SINKS2, out)

    def test_start_degenerate_pivot_is_identity(self):
        res = start_closure(KB2, (0, 2, 1, 3))
        assert res.S_found == {0: (0, 2, 1, 3), 1: (1, 2, 0, 3)}
        assert res.T_found == {3: (0, 2, 1, 3), 2: (0, 3, 1, 2)}
        res = start_closure(PATHY, (0, 2, 1, 3))
        assert res.S_found == {0: (0, 2, 1, 3)} and res.T_found == {3: (0, 2, 1, 3)}

    def test_end_rotation(self):
        out = start_closure(KB2, (0, 2, 1, 3)).T_found[2]
        assert out == (0, 3, 1, 2)
        assert is_respectable(KB2, SOURCES2, SINKS2, out)


class TestStartClosure:
    def test_complete_frame_all_endpoints(self):
        res = start_closure(KB2, (0, 2, 1, 3))
        assert set(res.S_found) == {0, 1}
        assert set(res.T_found) == {2, 3}
        assert res.extension is None
        for start, wit in res.S_found.items():
            assert wit[0] == start and is_respectable(KB2, SOURCES2, SINKS2, wit)

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
        for g, sources, sinks, seed in _seeded_frames():
            res = start_closure(g, seed)
            starts, ends = brute_respectable_endpoints(g, sources, sinks)
            assert set(res.S_found) <= starts and set(res.T_found) <= ends
            for u, wit in res.S_found.items():
                assert wit[0] == u and is_respectable(g, sources, sinks, wit)
            for t, wit in res.T_found.items():
                assert wit[-1] == t and is_respectable(g, sources, sinks, wit)
            if res.extension is None:
                inside += 1
                continue
            ext_path = res.extension
            (w,) = set(ext_path) - sources - sinks
            assert w in (ext_path[0], ext_path[-1])
            assert len(ext_path) == len(seed) + 1
            assert validate(g, path_from_verts(g, ext_path))
            extended += 1
        assert extended > 0 and inside > 0


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
        for g, *_ in _seeded_frames():
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
                    assert out.outcome == "gave_up" and out.path.order == best
                else:
                    assert out.outcome == "found"
                    assert out.path.order == k and validate(g, out.path)

    def test_outcomes_beyond_kmax_pinned(self):
        # above the threshold the finder runs its closure and oracle fallback,
        # and within the oracle's order bound it finds a path exactly when one
        # exists; pin every outcome byte for byte.  The path-free digest drops
        # the witness of each found outcome, so it pins outcome, rounds, reason
        # and condition alone; the full digest also pins which order-k window
        # of greedy's path is found.
        digest, path_free = hashlib.sha256(), hashlib.sha256()
        finds = found = 0
        reasons = {}
        last_g = longest = None  # the family yields each graph's ks in a run
        for g, k in _beyond_kmax_family():
            out = find_alternating_path(g, k)
            # every round but the last lengthens the order-2 seed, so the default cap never binds
            assert out.rounds <= max(k - 2, 0)
            if g is not last_g:
                last_g, longest = g, longest_alt_path_exact(g)[0]
            assert (out.outcome == "found") == (k <= longest), (k, longest, out)
            reasons[out.reason] = reasons.get(out.reason, 0) + 1
            doc = out.to_json()
            digest.update(json.dumps(doc, sort_keys=True).encode())
            if out.outcome == "found":
                assert out.path.order == k and validate(g, out.path)
                del doc["path"]
                found += 1
            path_free.update(json.dumps(doc, sort_keys=True).encode())
            finds += 1
        assert (finds, found) == (1211, 1040)
        assert reasons == {None: 1040, "EvenStuck": 114, "OddStuck": 57}
        assert path_free.hexdigest() == (
            "749bdcf2ff27d4617f89fe2eb966a0cd54e3c97a7656ceaa3136e139da08aea3"
        )
        assert digest.hexdigest() == (
            "03590d169967d8a192fe4e478bd41046e48f4e0611c95d60804614a51cac9194"
        )

    @pytest.mark.slow
    def test_random_finds_pinned(self):
        # every find from max(kmax, 1) to n on 3,240 random graphs, n = 6..14:
        # found exactly when the oracle has an order-k path, and one sorted-key
        # outcome line per find, pinned byte for byte
        digest = hashlib.sha256()
        reasons = {}
        for n in range(6, 15):
            for p in (0.3, 0.5, 0.7, 0.9):
                for s in range(90):
                    g = random_oriented(n, p, 77_000 + 1000 * n + 100 * int(10 * p) + s)
                    longest = longest_alt_path_exact(g)[0]
                    for k in range(max(max_k_for(min_pseudo_semidegree(g)), 1), n + 1):
                        out = find_alternating_path(g, k)
                        assert (out.outcome == "found") == (k <= longest), (n, p, s, k)
                        reasons[out.reason] = reasons.get(out.reason, 0) + 1
                        doc = out.to_json()
                        digest.update((json.dumps(doc, sort_keys=True) + "\n").encode())
        assert reasons == {None: 28_247, "EvenStuck": 1_587, "OddStuck": 1_383}
        assert digest.hexdigest() == (
            "a58a6f41c835e02eabb057b9195c3b03e4dd530ac2aacbed7803cf496e9df44d"
        )

    def test_outcome_json_shape(self):
        out = find_alternating_path(KB2, 4)
        doc = out.to_json()
        assert doc["outcome"] == "found"
        assert doc["path"]["verts"] == list(out.path.verts)
        assert isinstance(doc["path"]["first_forward"], bool)
        assert set(doc) == {"outcome", "rounds", "condition_holds", "path"}
        json.dumps(doc)  # serializable

    def test_even_stuck_takes_the_oracle(self):
        # greedy's order-6 path in WORKED has no rotation that sees an outside
        # vertex; its longest path has order 6, so k = 7 gives up
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
    """Each stage past greedy, the closure and the oracle fallback, reaches a pinned find."""

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

    def test_even_stuck_path_takes_the_oracle_in_a_pinned_find(self, monkeypatch):
        # greedy stops at even order 4 and no rotation sees an outside vertex;
        # the oracle's longest path also has order 4, so the find gives up
        g = _family_graph(9, 2, 0.3)
        stuck = self._spy(monkeypatch, "_stuck")
        out = find_alternating_path(g, 5)
        assert (out.outcome, out.reason, out.rounds) == ("gave_up", "EvenStuck", 1)
        assert out.path.order == longest_alt_path_exact(g)[0] == 4
        assert validate(g, out.path)
        [(args, result)] = stuck
        assert args[3] == "EvenStuck" and args[4].order == 4 and result == out


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
