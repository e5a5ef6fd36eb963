import dataclasses
import hashlib
import json

import pytest

from altpaths import errors
from altpaths.altpath import ParityFrame, path_from_verts, validate
from altpaths.graph_core import (
    blowup_directed_cycle,
    from_edge_list,
    min_pseudo_semidegree,
    random_oriented,
)
from altpaths.oracle import OracleBudget, longest_alt_path_exact
from altpaths.rotation_engine import (
    AltSpanningCycle,
    Certificate,
    EngineBudget,
    certificate_is_sound,
    condition_holds,
    cycle_is_valid,
    debug_stats,
    evenham_cycle,
    extension_scan_on_cycle,
    find_alternating_path,
    is_respectable,
    lemma_forgotten_check,
    rotate_at_end,
    rotate_at_start,
    start_closure,
    two_sided_closure_extension,
)

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


class TestRotations:
    def test_start_rotation(self):
        out = rotate_at_start(KB2, FRAME2, (0, 2, 1, 3), 3)
        assert out == (1, 2, 0, 3)
        assert is_respectable(KB2, FRAME2, out)

    def test_start_degenerate_pivot_is_identity(self):
        assert rotate_at_start(KB2, FRAME2, (0, 2, 1, 3), 1) == (0, 2, 1, 3)

    def test_start_bad_pivot(self):
        with pytest.raises(errors.BadPivot):
            rotate_at_start(KB2, FRAME2, (0, 2, 1, 3), 2)  # vertex 1 is a source
        with pytest.raises(errors.BadPivot):
            rotate_at_start(KB2, FRAME2, (0, 2, 1, 3), 0)

    def test_end_rotation(self):
        out = rotate_at_end(KB2, FRAME2, (0, 2, 1, 3), 0)
        assert out == (0, 3, 1, 2)
        assert is_respectable(KB2, FRAME2, out)

    def test_end_bad_pivot(self):
        with pytest.raises(errors.BadPivot):
            rotate_at_end(KB2, FRAME2, (0, 2, 1, 3), 1)  # vertex 2 is a sink


class TestStartClosure:
    def test_complete_frame_all_endpoints(self):
        res = start_closure(KB2, FRAME2, (0, 2, 1, 3))
        assert set(res.S_found) == {0, 1}
        assert set(res.T_found) == {2, 3}
        assert res.extension is None
        for start, wit in res.S_found.items():
            assert wit[0] == start and is_respectable(KB2, FRAME2, wit)

    def test_rotation_free_path(self):
        res = start_closure(PATHY, FRAME2, (0, 2, 1, 3))
        assert set(res.S_found) == {0}
        assert set(res.T_found) == {3}
        assert res.extension is None

    def test_pendant_extension_found(self):
        g = from_edge_list(
            [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4)], 5
        )
        res = start_closure(g, FRAME2, (0, 2, 1, 3))
        ext_path, w, at_start = res.extension
        assert w == 4 and at_start
        assert validate(g, path_from_verts(g, ext_path))
        assert len(ext_path) == 5

    def test_sink_reversed_seed_accepted(self):
        res = start_closure(KB2, FRAME2, (3, 1, 2, 0))
        assert set(res.S_found) == {0, 1}

    def test_debug_oracle_agreement(self):
        debug_stats.reset()
        start_closure(KB2, FRAME2, (0, 2, 1, 3), debug=True)
        assert debug_stats.closures_checked == 1
        assert debug_stats.rotations_checked > 0


class TestEvenhamCycle:
    def test_complete_frame_cycle(self):
        closure = start_closure(KB2, FRAME2, (0, 2, 1, 3))
        cyc = evenham_cycle(KB2, FRAME2, closure)
        assert isinstance(cyc, AltSpanningCycle)
        assert cycle_is_valid(KB2, FRAME2, cyc)

    def test_sparse_frame_a_count_certificate(self):
        closure = start_closure(PATHY, FRAME2, (0, 2, 1, 3))
        cert = evenham_cycle(PATHY, FRAME2, closure)
        assert isinstance(cert, Certificate)
        assert cert.stage == "A-count"
        assert cert.vertex == 0 and cert.side == "out" and cert.degree == 1
        assert certificate_is_sound(PATHY, cert)
        assert not certificate_is_sound(PATHY, dataclasses.replace(cert, side="undirected"))

    def test_rejects_closure_with_extension(self):
        g = from_edge_list([(0, 2), (0, 3), (1, 2), (1, 3), (0, 4)], 5)
        closure = start_closure(g, FRAME2, (0, 2, 1, 3))
        with pytest.raises(errors.BadParams):
            evenham_cycle(g, FRAME2, closure)

    def test_degenerate_m1_certificate(self):
        g = from_edge_list([(0, 1)], 2)
        frame = ParityFrame(frozenset({0}), frozenset({1}), 1)
        cert = evenham_cycle(g, frame, start_closure(g, frame, (0, 1)))
        assert isinstance(cert, Certificate)
        assert cert.stage == "degenerate-m1"


class TestExtensionScan:
    def test_source_outside_neighbor(self):
        g = from_edge_list([(0, 2), (0, 3), (1, 2), (1, 3), (0, 4)], 5)
        closure = start_closure(g, FRAME2, (1, 2, 0, 3))
        # build the cycle on the extension-free subframe directly
        cyc = evenham_cycle(KB2, FRAME2, start_closure(KB2, FRAME2, (0, 2, 1, 3)))
        ext = extension_scan_on_cycle(g, FRAME2, cyc)
        assert ext is not None and len(ext) == 5
        assert ext[0] == 4
        assert validate(g, path_from_verts(g, ext))

    def test_sink_outside_neighbor(self):
        g = from_edge_list([(0, 2), (0, 3), (1, 2), (1, 3), (4, 2)], 5)
        cyc = evenham_cycle(KB2, FRAME2, start_closure(KB2, FRAME2, (0, 2, 1, 3)))
        ext = extension_scan_on_cycle(g, FRAME2, cyc)
        assert ext is not None and len(ext) == 5
        assert ext[-1] == 4
        assert validate(g, path_from_verts(g, ext))

    def test_no_outside_vertex(self):
        cyc = evenham_cycle(KB2, FRAME2, start_closure(KB2, FRAME2, (0, 2, 1, 3)))
        assert extension_scan_on_cycle(KB2, FRAME2, cyc) is None


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


class TestTwoSidedClosure:
    def test_direct_extension(self):
        g = from_edge_list([(0, 1), (2, 1), (2, 3)], 4)
        ext = two_sided_closure_extension(g, (0, 1, 2))
        assert ext == (0, 1, 2, 3)

    def test_stuck_path(self):
        g = from_edge_list([(0, 1), (2, 1)], 4)
        assert two_sided_closure_extension(g, (0, 1, 2)) is None

    def test_extension_validates(self):
        g = blowup_directed_cycle(4, 2)
        ext = two_sided_closure_extension(g, (0, 2, 1))
        if ext is not None:
            assert validate(g, path_from_verts(g, ext))


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
        out = find_alternating_path(g, 3, EngineBudget(debug=True))
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
                out = find_alternating_path(g, k, EngineBudget(debug=True))
                if k > best:
                    assert out.outcome != "found"
                elif condition_holds(g, k):
                    assert out.outcome == "found"
                if out.outcome == "found":
                    assert out.path.order == k and validate(g, out.path)

    def test_outcomes_beyond_kmax_pinned(self):
        # above the threshold the finder runs its closures, spanning cycles,
        # lemma count and oracle fallback; pin every outcome byte for byte.
        # The path-free digest drops the witness of each found outcome, so it
        # pins outcome, rounds, reason, certificate and condition alone; the
        # full digest also pins which order-k window of greedy's path is found.
        digest, path_free = hashlib.sha256(), hashlib.sha256()
        finds = found = 0
        for g, k in _beyond_kmax_family():
            out = find_alternating_path(g, k)
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

    def test_outcome_json_shape(self):
        out = find_alternating_path(KB2, 4)
        doc = out.to_json()
        assert doc["outcome"] == "found"
        assert doc["path"]["verts"] == list(out.path.verts)
        assert isinstance(doc["path"]["first_forward"], bool)
        assert set(doc) == {"outcome", "rounds", "condition_holds", "path"}
        json.dumps(doc)  # serializable

    def test_diagnostic_json_shape(self):
        cert = evenham_cycle(PATHY, FRAME2, start_closure(PATHY, FRAME2, (0, 2, 1, 3)))
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
        # WORKED's spanning cycle has no outside neighbor and passes the
        # lemma count; its longest path has order 6, so k = 7 gives up
        out = find_alternating_path(WORKED, 7, EngineBudget(debug=True))
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


def _beyond_kmax_family():
    """(graph, k) for every k from kmax + 1 (at least 2) to n, 1,211 finds in all."""
    for n in range(8, 15):
        for seed in range(6):
            for p in (0.3, 0.5, 0.8):
                g = random_oriented(n, p, 4000 + 100 * n + 10 * seed + int(10 * p))
                pseudo = min_pseudo_semidegree(g)
                kmax = 0 if pseudo is None else (8 * pseudo - 1) // 5
                for k in range(max(kmax + 1, 2), n + 1):
                    yield g, k
