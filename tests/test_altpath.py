import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altpaths import errors
from altpaths.altpath import (
    AlternatingPath,
    greedy_extend,
    path_from_verts,
    trim,
    validate,
)
from altpaths.graph_core import bits, blowup_directed_cycle, from_edge_list
from conftest import oriented_graphs
from _brute import is_alt_sequence

TRIANGLE = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)


class TestValidate:
    def test_single_edge(self):
        g = from_edge_list([(0, 1)], 2)
        assert validate(g, path_from_verts(g, [0, 1]))

    def test_triangle_not_alternating(self):
        # vertex 1 sees one incoming and one outgoing edge
        assert not validate(TRIANGLE, AlternatingPath((0, 1, 2), True))

    def test_blowup_path(self):
        g = blowup_directed_cycle(3, 2)
        p = path_from_verts(g, [0, 2, 1, 3])
        assert is_alt_sequence(g, [0, 2, 1, 3])  # independent referee
        assert validate(g, p)

    def test_non_edge_fails(self):
        g = from_edge_list([(0, 1)], 3)
        assert not validate(g, AlternatingPath((0, 2), True))

    def test_repeat_vertex_fails(self):
        g = blowup_directed_cycle(3, 2)
        assert not validate(g, AlternatingPath((0, 2, 0), True))

    def test_wrong_first_forward_fails(self):
        g = from_edge_list([(0, 1)], 2)
        assert not validate(g, AlternatingPath((0, 1), False))

    def test_tiny_orders(self):
        g = from_edge_list([(0, 1)], 2)
        assert validate(g, AlternatingPath((0,), None))
        assert validate(g, AlternatingPath((), None))


class TestGreedyExtend:
    def test_from_single_vertex(self):
        # the finder seeds greedy with an arc, so a shorter path is a caller's error
        g = from_edge_list([(0, 1)], 2)
        for p in (AlternatingPath((0,), None), AlternatingPath((), None)):
            for k in (1, g.n):
                with pytest.raises(errors.BadParams):
                    greedy_extend(g, p, k)

    def test_triangle_stuck_at_two(self):
        p = greedy_extend(TRIANGLE, path_from_verts(TRIANGLE, [0, 1]), TRIANGLE.n)
        assert p.order == 2  # frozen: brute force gives L=2 for a directed triangle

    def test_blowup_reaches_four(self):
        g = blowup_directed_cycle(3, 2)
        p = greedy_extend(g, path_from_verts(g, [0, 2]), g.n)
        assert p.order == 4  # frozen: oracle maximum for the 2-blowup
        assert validate(g, p)

    def test_no_single_vertex_extension_left(self):
        g = blowup_directed_cycle(4, 2)
        p = greedy_extend(g, path_from_verts(g, [0, 2]), g.n)
        used = set(p.verts)
        for at_tail in (True, False):
            end = p.verts[-1] if at_tail else p.verts[0]
            for w in set(bits(g.out_masks[end] | g.in_masks[end])) - used:
                cand = list(p.verts) + [w] if at_tail else [w] + list(p.verts)
                assert not is_alt_sequence(g, cand)


class TestTrim:
    def test_prefix(self):
        g = blowup_directed_cycle(3, 2)
        p = path_from_verts(g, [0, 2, 1, 3])
        assert trim(p, 2).verts == (0, 2)
        assert trim(p, 3).verts == (0, 2, 1)

    def test_identity(self):
        g = blowup_directed_cycle(3, 2)
        p = path_from_verts(g, [0, 2, 1, 3])
        assert trim(p, 4) == p

    def test_too_short(self):
        with pytest.raises(errors.TooShort):
            trim(AlternatingPath((0, 1), True), 3)


class TestSerialization:
    def test_report_form(self):
        g = from_edge_list([(0, 1)], 2)
        assert path_from_verts(g, [0, 1]).serialize() == "first_forward:1 verts:0 1"
        assert AlternatingPath((5,), None).serialize() == "first_forward:- verts:5"


def _all_alt_paths(g, max_order=4):
    out = []

    def extend(seq):
        if 1 <= len(seq):
            out.append(tuple(seq))
        if len(seq) >= max_order:
            return
        for w in range(g.n):
            if w not in seq and is_alt_sequence(g, seq + [w]):
                extend(seq + [w])

    for v in range(g.n):
        extend([v])
    return out


class TestProperties:
    @given(oriented_graphs(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_trim_closure_and_frames(self, g):
        for verts in _all_alt_paths(g):
            p = path_from_verts(g, verts)
            assert validate(g, p)
            for k in range(1, len(verts) + 1):
                assert validate(g, trim(p, k))

    @given(oriented_graphs(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_greedy_output_valid(self, g):
        for u, v in g.edges():
            p = greedy_extend(g, path_from_verts(g, (u, v)), g.n)
            assert validate(g, p)

    @given(oriented_graphs(max_n=7))
    @settings(max_examples=80, deadline=None)
    def test_greedy_stops_at_k_inside_the_full_extension(self, g):
        # stopping at order k changes no choice: from every start (each arc,
        # read both ways) and for every k the result is a window of the
        # extension until stuck, of order min(k, full order)
        starts = [e for u, v in g.edges() for e in ((u, v), (v, u))]
        for start in starts:
            p = path_from_verts(g, start)
            full = greedy_extend(g, p, g.n).verts
            for k in range(len(start), g.n + 1):
                q = greedy_extend(g, p, k)
                assert q.order == min(k, len(full))
                assert validate(g, q)
                windows = {full[i:i + q.order] for i in range(len(full) - q.order + 1)}
                assert q.verts in windows
