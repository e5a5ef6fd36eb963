import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altpaths import errors, graph_core
from altpaths.graph_core import (
    EDGELIST_BLOCK_BYTES,
    MAX_EDGELIST_ORDER,
    DegreeSummary,
    bits,
    OrientedGraph,
    blowup_directed_cycle,
    decode_codes,
    degree_columns,
    from_edge_list,
    load_graph,
    min_pseudo_semidegree,
    min_semidegree,
    num_oriented,
    parse_digraph6,
    parse_edgelist,
    random_oriented,
    to_edgelist,
)
from _brute import (
    brute_edge_count,
    brute_graph_from_code,
    brute_min_pseudo_semidegree,
    brute_min_semidegree,
    check_invariants,
    degrees,
)
from conftest import oriented_graphs

TRIANGLE = [(0, 1), (1, 2), (2, 0)]


class TestFromEdgeList:
    def test_single_edge(self):
        g = from_edge_list([(0, 1)], 2)
        assert list(bits(g.out_masks[0])) == [1]
        assert list(bits(g.in_masks[1])) == [0]
        assert g.edge_count == 1

    def test_triangle(self):
        g = from_edge_list(TRIANGLE, 3)
        assert g.edges() == [(0, 1), (1, 2), (2, 0)]

    def test_two_cycle_rejected(self):
        with pytest.raises(errors.TwoCycle):
            from_edge_list([(0, 1), (1, 0)], 2)

    def test_loop_rejected(self):
        with pytest.raises(errors.LoopEdge):
            from_edge_list([(1, 1)], 2)

    def test_duplicate_rejected(self):
        with pytest.raises(errors.DuplicateEdge):
            from_edge_list([(0, 1), (0, 1)], 2)

    def test_out_of_range(self):
        with pytest.raises(errors.BadParams):
            from_edge_list([(0, 5)], 2)

    def test_negative_order(self):
        with pytest.raises(errors.BadParams):
            from_edge_list([], -3)

    def test_order_above_limit(self):
        with pytest.raises(errors.BadParams):
            from_edge_list([], MAX_EDGELIST_ORDER + 1)
        with pytest.raises(errors.BadParams):
            from_edge_list([(0, MAX_EDGELIST_ORDER)])

    @pytest.mark.parametrize("edges", [[(0, 1, 2, 3)], [(0, 2**70)], np.arange(4)])
    def test_malformed_arcs(self, edges):
        with pytest.raises(errors.BadParams):
            from_edge_list(edges, 3)

    def test_array_of_arcs(self):
        arcs = np.array([[2, 0], [0, 1]])
        assert from_edge_list(arcs, 3) == from_edge_list([(2, 0), (0, 1)], 3)
        assert from_edge_list(np.zeros((0, 2), dtype=np.int64)).n == 0


class TestDegrees:
    def test_single_edge_pseudo(self):
        g = from_edge_list([(0, 1)], 2)
        # the zero in-degree of vertex 0 imposes no constraint
        assert min_pseudo_semidegree(g) == 1
        assert min_semidegree(g) == 0

    def test_triangle(self):
        g = from_edge_list(TRIANGLE, 3)
        assert min_pseudo_semidegree(g) == 1
        assert min_semidegree(g) == 1

    def test_blowup(self):
        g = blowup_directed_cycle(3, 2)
        assert min_pseudo_semidegree(g) == 2
        assert min_semidegree(g) == 2

    def test_edgeless_undefined(self):
        g = from_edge_list([], 4)
        assert min_pseudo_semidegree(g) is None

    def test_empty_graph_semidegree(self):
        with pytest.raises(errors.EmptyGraph):
            min_semidegree(from_edge_list([], 0))

    def test_summary(self):
        g = blowup_directed_cycle(3, 2)
        s = g.degree_summary
        assert s == DegreeSummary(2, 2, 12)


@st.composite
def graphs_with_isolated_vertices(draw):
    """An enumerated graph on m <= n vertices placed among n, the rest isolated."""
    n = draw(st.integers(0, 9))
    m = draw(st.integers(0, min(n, 6)))
    core = brute_graph_from_code(m, draw(st.integers(0, num_oriented(m) - 1)))
    place = draw(st.permutations(range(n)))
    return from_edge_list([(place[u], place[v]) for u, v in core.edges()], n)


class TestDegreeSummaryReference:
    @given(st.one_of(oriented_graphs(min_n=0), graphs_with_isolated_vertices()))
    @example(from_edge_list([], 0))
    @example(from_edge_list([], 5))
    @example(from_edge_list([(0, 1)], 4))
    @settings(max_examples=400, deadline=None)
    def test_one_pass_summary_matches_per_vertex_minima(self, g):
        summary = g.degree_summary
        assert summary == DegreeSummary(
            brute_min_semidegree(g), brute_min_pseudo_semidegree(g), brute_edge_count(g)
        )
        assert g.degree_summary is summary
        assert min_pseudo_semidegree(g) == summary.min_pseudo_semidegree
        assert g.edge_count == summary.edge_count
        if g.n:
            assert min_semidegree(g) == summary.min_semidegree
        else:
            with pytest.raises(errors.EmptyGraph):
                min_semidegree(g)


def _sample_codes(n: int, count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(num_oriented(n)) for _ in range(count)]


def _nullable(column) -> list:
    return [None if x < 0 else x for x in column.tolist()]


def _decoded(n: int, codes) -> list[OrientedGraph]:
    """The graphs decode_codes gives for codes."""
    out_masks, in_masks = decode_codes(n, codes)
    return [
        OrientedGraph(n, tuple(outs), tuple(ins))
        for outs, ins in zip(out_masks.tolist(), in_masks.tolist())
    ]


def _code_cases():
    for n in range(5):
        yield n, list(range(num_oriented(n)))
    yield 5, _sample_codes(5, 2000, 5)
    yield 6, _sample_codes(6, 2000, 6)


class TestColumnDecoder:
    @pytest.mark.parametrize("n,codes", list(_code_cases()))
    def test_matches_digit_by_digit_reference(self, n, codes):
        refs = [brute_graph_from_code(n, code) for code in codes]
        out_masks, in_masks = decode_codes(n, np.array(codes, dtype=np.int64))
        assert out_masks.shape == in_masks.shape == (len(codes), n)
        assert out_masks.tolist() == [list(g.out_masks) for g in refs]
        assert in_masks.tolist() == [list(g.in_masks) for g in refs]

    @pytest.mark.parametrize("n,codes", list(_code_cases()))
    def test_degree_columns_match_reference(self, n, codes):
        refs = [brute_graph_from_code(n, code) for code in codes]
        semi, pseudo, edges = degree_columns(*decode_codes(n, np.array(codes, dtype=np.int64)))
        assert _nullable(semi) == [brute_min_semidegree(g) for g in refs]
        assert _nullable(pseudo) == [brute_min_pseudo_semidegree(g) for g in refs]
        assert edges.tolist() == [brute_edge_count(g) for g in refs]

    @pytest.mark.parametrize("n,codes", list(_code_cases()))
    def test_minors_and_stars_match_reference(self, n, codes):
        out_masks, in_masks, minors, stars = decode_codes(n, np.array(codes), minors=True)
        assert minors.shape == stars.shape == (len(codes), n)
        assert [a.tolist() for a in decode_codes(n, codes)] == [out_masks.tolist(), in_masks.tolist()]
        for code, row_minors, row_stars in zip(codes, minors.tolist(), stars.tolist()):
            g = brute_graph_from_code(n, code)
            for w in range(n):
                rest = [x for x in range(n) if x != w]  # G - w's vertex i is rest[i]
                minor = brute_graph_from_code(n - 1, row_minors[w])
                assert minor.edges() == [
                    (rest.index(u), rest.index(v)) for u, v in g.edges() if w not in (u, v)
                ]
                star = sum(
                    g.has_edge(w, x) << 2 * i | g.has_edge(x, w) << 2 * i + 1
                    for i, x in enumerate(rest)
                )
                assert row_stars[w] == star

    def test_codes_beyond_int64(self):
        # order 10 has 3^45 > 2^63 codes: those that fit int64 decode, the others are refused
        codes = [0, 2**63 - 1, *(code % 2**63 for code in _sample_codes(10, 20, 10))]
        assert _decoded(10, codes) == [brute_graph_from_code(10, code) for code in codes]
        with pytest.raises(OverflowError):
            decode_codes(10, [num_oriented(10) - 1])


class TestBlowup:
    def test_t3_b1_is_triangle(self):
        assert blowup_directed_cycle(3, 1).edges() == from_edge_list(TRIANGLE, 3).edges()

    def test_t3_b2(self):
        g = blowup_directed_cycle(3, 2)
        assert (g.n, g.edge_count) == (6, 12)

    def test_t4_b3(self):
        g = blowup_directed_cycle(4, 3)
        assert (g.n, g.edge_count) == (12, 36)

    def test_regular_degrees(self):
        for t, b in [(3, 1), (3, 3), (5, 2)]:
            g = blowup_directed_cycle(t, b)
            assert all(degrees(g, v) == (b, b) for v in range(g.n))

    def test_bad_params(self):
        with pytest.raises(errors.BadParams):
            blowup_directed_cycle(2, 1)
        with pytest.raises(errors.BadParams):
            blowup_directed_cycle(3, 0)


class TestRandomOriented:
    def test_p_zero(self):
        assert random_oriented(5, 0.0, 7).edge_count == 0

    def test_p_one_tournament(self):
        g = random_oriented(5, 1.0, 7)
        assert g.edge_count == 10
        check_invariants(g)

    def test_deterministic(self):
        a = random_oriented(8, 0.5, 42)
        b = random_oriented(8, 0.5, 42)
        assert a == b
        assert a != random_oriented(8, 0.5, 43)

    def test_bad_p(self):
        with pytest.raises(errors.BadParams):
            random_oriented(3, 1.5, 0)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 3), (3, 27), (4, 729)])
    def test_counts_and_distinct(self, n, count):
        out_masks, _ = decode_codes(n, np.arange(num_oriented(n)))
        seen = {tuple(row) for row in out_masks.tolist()}
        assert len(seen) == count == num_oriented(n)

    def test_n5_count(self):
        out_masks, in_masks = decode_codes(5, np.arange(num_oriented(5)))
        graphs = {(*outs, *ins) for outs, ins in zip(out_masks.tolist(), in_masks.tolist())}
        assert len(graphs) == 59049

    def test_all_valid(self):
        for g in _decoded(3, np.arange(num_oriented(3))):
            check_invariants(g)

    def test_code_roundtrip_order(self):
        # digit order: absent < forward < backward over pairs (0,1),(0,2),(1,2)
        g1, g2, g3 = _decoded(3, [1, 2, 3])
        assert g1.edges() == [(0, 1)]
        assert g2.edges() == [(1, 0)]
        assert g3.edges() == [(0, 2)]


# a fault over ten thousand lines down, after comment and blank lines
LONG_FILE_FAULT = (
    "n=10001\n"
    + "".join(f"{i} {i + 1}\n" + "# c\n\n" * (i % 7 == 0) for i in range(10_000))
    + "7 7 7\n",
    errors.FormatError,
    "line 12860: expected 'u v', got '7 7 7'",
)

# (text, error, message) of edge lists whose first fault the reader names
FIRST_FAULTS = [
    # graph faults name the first faulty arc in file order
    ("n=3\n0 1\n2 2\n", errors.LoopEdge, "loop at vertex 2"),
    ("0 1\n1 2\n0 1\n", errors.DuplicateEdge, "edge (0,1) repeated"),
    ("0 1\n1 2\n1 0\n", errors.TwoCycle, "both (1,0) and (0,1) present"),
    ("n=3\n0 1\n1 3\n", errors.BadParams, "edge (1,3) out of range for n=3"),
    ("n=3\n0 -1\n", errors.BadParams, "edge (0,-1) out of range for n=3"),
    ("0 1\n2 2\n0 1\n", errors.LoopEdge, "loop at vertex 2"),
    ("0 1\n1 0\n0 0\n", errors.TwoCycle, "both (1,0) and (0,1) present"),
    ("n=3\n0 1\n0 1\n0 5\n", errors.DuplicateEdge, "edge (0,1) repeated"),
    ("n=3\n0 5\n1 1\n", errors.BadParams, "edge (0,5) out of range for n=3"),
    # format faults name the first faulty line, before any graph fault
    ("n=3\n0 x\n", errors.FormatError, "line 2: non-integer endpoint in '0 x'"),
    ("0 1\n2\n", errors.FormatError, "line 2: expected 'u v', got '2'"),
    ("0 1\n\n1 2 0  # c\n", errors.FormatError, "line 3: expected 'u v', got '1 2 0'"),
    ("0 1\nn=3\n", errors.FormatError, "line 2: header must come first"),
    ("n=3\nn=3\n", errors.FormatError, "line 2: header must come first"),
    ("# c\nn=x\n", errors.FormatError, "line 2: bad header 'n=x'"),
    ("n=-3\n", errors.FormatError, "line 1: negative order in 'n=-3'"),
    ("0 0\n1 x\n", errors.FormatError, "line 2: non-integer endpoint in '1 x'"),
    ("0 1\r\n\r\n1\t2 3\r\n", errors.FormatError, "line 3: expected 'u v', got '1\\t2 3'"),
    LONG_FILE_FAULT,
    # faults after the first few lines, so in a later block when blocks are small
    ("n=9\n0 1\n1 2\n2 3\n3 4\n4 x\n5 6 7\n", errors.FormatError,
     "line 6: non-integer endpoint in '4 x'"),
    ("0 20000\n1 2\n2 3\n# c\n3 x\n", errors.FormatError,
     "line 5: non-integer endpoint in '3 x'"),
    ("n=6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 5\n1 0\n", errors.LoopEdge, "loop at vertex 5"),
    ("n=5\n0 1\n1 2\n2 3\n3 4\n4 0\n2 1\n0 1\n", errors.TwoCycle,
     "both (2,1) and (1,2) present"),
    ("# a comment preamble\n#\n\n# and more\nn=3\n0 1\nn=3\n", errors.FormatError,
     "line 7: header must come first"),
    ("# a comment preamble\n\nn=x\n", errors.FormatError, "line 3: bad header 'n=x'"),
    ("0 1\r1 2\r\r2 x\r", errors.FormatError, "line 4: non-integer endpoint in '2 x'"),
    ("0 1\x0b1 2\x0c2 3\x1c3 4\x1d4 5\x1e5 x\n", errors.FormatError,
     "line 6: non-integer endpoint in '5 x'"),
]


class TestEdgelistFormat:
    def test_roundtrip(self):
        g = blowup_directed_cycle(3, 2)
        assert parse_edgelist(to_edgelist(g)) == g

    def test_header_and_comments(self):
        g = parse_edgelist("# a comment\nn=4\n0 1\n\n2 3  # trailing\n")
        assert g.n == 4 and g.edges() == [(0, 1), (2, 3)]

    def test_no_header_infers_n(self):
        g = parse_edgelist("0 3\n")
        assert g.n == 4

    def test_byte_stable(self):
        g = from_edge_list([(2, 0), (0, 1)], 3)
        assert to_edgelist(g) == "n=3\n0 1\n2 0\n"

    def test_bad_line(self):
        with pytest.raises(errors.FormatError):
            parse_edgelist("0 1 2\n")

    def test_negative_header(self):
        with pytest.raises(errors.FormatError):
            parse_edgelist("n=-3\n")
        assert parse_edgelist("n=0\n").n == 0

    @pytest.mark.parametrize("text, exc, names", FIRST_FAULTS)
    def test_error_names_first_fault(self, text, exc, names):
        with pytest.raises(exc) as info:
            parse_edgelist(text)
        assert type(info.value) is exc and str(info.value) == names

    @pytest.mark.parametrize(
        "text, n, arcs",
        [
            ("", 0, []),
            ("n=0\n", 0, []),
            ("\n  \n# only a comment\n\n", 0, []),
            ("# c\n\nn=3 # order\n\n0 1 # arc\n#\n1 2#x\n", 3, [(0, 1), (1, 2)]),
            ("n=3\r\n0 1\r\n\r\n2 1\r\n", 3, [(0, 1), (2, 1)]),
            ("n=3\n\t0\t1 \n 1  2\t\n", 3, [(0, 1), (1, 2)]),
            ("n=3\n0 1\n1 2", 3, [(0, 1), (1, 2)]),
            ("2 0\n0 4\n", 5, [(0, 4), (2, 0)]),
            ("n=5\n0 1\n", 5, [(0, 1)]),
            ("n= 4\n+3 0\n002 1\n", 4, [(2, 1), (3, 0)]),
            ("n=5\n0 " + "0" * 30 + "1\n", 5, [(0, 1)]),
            ("# a comment preamble\n#\n\n# and more\nn=3\n0 1\n1 2\n", 3, [(0, 1), (1, 2)]),
            ("n=4\r0 1\r\r1 2\r2 3", 4, [(0, 1), (1, 2), (2, 3)]),
            ("n=3\n0" + " " * 20 + "1\t# a comment\n1 2\n", 3, [(0, 1), (1, 2)]),
        ],
    )
    def test_accepted_inputs(self, text, n, arcs):
        g = parse_edgelist(text)
        assert g == from_edge_list(arcs, n)
        assert g.n == n and g.edges() == sorted(arcs)

    @pytest.mark.parametrize(
        "text, names",
        [
            ("n=1000000000\n0 1\n", "line 1: order 1000000000 is above the limit 16384"),
            ("# c\nn=16385\n", "line 2: order 16385 is above the limit 16384"),
            (
                "0 1\n0 1000000000\n",
                "line 2: endpoint 1000000000 needs an order above the limit 16384",
            ),
            ("\n16384 0\n", "line 2: endpoint 16384 needs an order above the limit 16384"),
            (
                "0 1\n1 2\n2 3\n# c\n3 20000\n4 30000\n",
                "line 5: endpoint 20000 needs an order above the limit 16384",
            ),
        ],
    )
    def test_order_limit(self, text, names):
        # refused before anything of the order's size is allocated
        began = time.perf_counter()
        with pytest.raises(errors.FormatError) as info:
            parse_edgelist(text)
        assert str(info.value) == names
        assert time.perf_counter() - began < 1.0

    def test_order_at_limit(self):
        g = parse_edgelist(f"{MAX_EDGELIST_ORDER - 1} 0\n")
        assert g.n == MAX_EDGELIST_ORDER and g.edges() == [(MAX_EDGELIST_ORDER - 1, 0)]

    def test_underscore_in_endpoint_is_refused(self):
        # Python's int() reads "1_0" as 10; the edge-list grammar has no digit separators
        with pytest.raises(errors.FormatError, match="^line 2: non-integer endpoint in '1_0 2'$"):
            parse_edgelist("n=20\n1_0 2\n")

    def test_overlong_endpoint_reads_as_out_of_range(self):
        # an endpoint of more than 18 significant digits is named as 10**18
        with pytest.raises(errors.BadParams, match=r"^edge \(0,1000000000000000000\) out of range"):
            parse_edgelist("n=5\n0 1" + "0" * 30 + "\n")

    @pytest.mark.parametrize(
        "data, offset",
        [
            (b"n=3\n0 1\n1 2 # caf\xc3\xa9\n", 17),
            # named before the bad header and the malformed line that come first
            (b"n=x\n0 1\n\x80", 8),
            (b"n=3\n0 x\n1 2\n\xff", 12),
        ],
    )
    def test_non_ascii_byte_names_its_offset(self, tmp_path, data, offset):
        path = tmp_path / "g.el"
        path.write_bytes(data)
        with pytest.raises(errors.FormatError) as info:
            load_graph(str(path))
        assert str(info.value) == f"{path}: non-ASCII byte at offset {offset}"


class TestEdgelistFormatInSmallBlocks(TestEdgelistFormat):
    """Every TestEdgelistFormat case again, with the reader's blocks 1 to 16 bytes long.

    The reads then cut tokens, CRLF pairs, comments and the header, and the
    blocks hold one or a few lines.  The case whose fault is over ten
    thousand lines down reads that many blocks at each budget, so it runs
    only under `slow`.
    """

    @pytest.fixture(autouse=True, params=range(1, 17))
    def budget(self, request, monkeypatch):
        monkeypatch.setattr(graph_core, "EDGELIST_BLOCK_BYTES", request.param)

    @pytest.mark.parametrize(
        "text, exc, names",
        [
            pytest.param(*case, marks=pytest.mark.slow) if case == LONG_FILE_FAULT else case
            for case in FIRST_FAULTS
        ],
    )
    def test_error_names_first_fault(self, text, exc, names):
        super().test_error_names_first_fault(text, exc, names)


def test_load_memory_is_bounded_by_the_block_and_the_arcs(tmp_path):
    # a random 700-vertex graph at p = 1/2: about 122k arcs in a 1 MB file
    n = 700
    rng = np.random.default_rng(5)
    u, v = np.triu_indices(n, 1)
    forward = rng.random(u.size) < 0.5
    arcs = np.column_stack((np.where(forward, u, v), np.where(forward, v, u)))
    arcs = arcs[rng.random(u.size) < 0.5]
    # formatted in one block, each endpoint as three zero-padded digits
    lines = np.full((len(arcs), 8), ord(" "), dtype=np.uint8)
    lines[:, [0, 1, 2, 4, 5, 6]] = (arcs[:, :, None] // [100, 10, 1] % 10).reshape(-1, 6) + ord("0")
    lines[:, 7] = ord("\n")
    path = tmp_path / "g.el"
    path.write_bytes(f"n={n}\n".encode() + lines.tobytes())
    tracemalloc.start()
    try:
        g = load_graph(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == from_edge_list(arcs, n)
    # one block's temporaries, about 16 times its bytes, and the arcs at 16
    # bytes each, twice over while they are joined; reading the whole file
    # at once took about 13 times the file, 13 MB here
    assert peak < 16 * EDGELIST_BLOCK_BYTES + 32 * len(arcs) + (1 << 20)


class TestDigraph6:
    def test_directed_triangle(self):
        # n=3, adjacency row-major 010 001 100 -> bits padded to 12
        g = from_edge_list(TRIANGLE, 3)
        bits_ = "".join(
            "1" if g.has_edge(i, j) else "0" for i in range(3) for j in range(3)
        )
        bits_ += "0" * (12 - len(bits_))
        chars = "".join(chr(63 + int(bits_[i : i + 6], 2)) for i in range(0, 12, 6))
        assert parse_digraph6("&" + chr(63 + 3) + chars) == g

    def test_header_prefix(self):
        line = ">>digraph6<<&" + chr(63 + 2) + chr(63 + 0b010000)
        g = parse_digraph6(line)
        assert g.edges() == [(0, 1)]

    def test_two_cycle_rejected(self):
        # n=2 with both (0,1) and (1,0): matrix 01 10 -> 0110 padded
        line = "&" + chr(63 + 2) + chr(63 + 0b011000)
        with pytest.raises(errors.TwoCycle):
            parse_digraph6(line)

    def test_loop_rejected(self):
        line = "&" + chr(63 + 2) + chr(63 + 0b100000)
        with pytest.raises(errors.LoopEdge):
            parse_digraph6(line)

    @pytest.mark.parametrize("budget", [1, 3, EDGELIST_BLOCK_BYTES])
    def test_load_reads_the_first_non_blank_line(self, tmp_path, monkeypatch, budget):
        monkeypatch.setattr(graph_core, "EDGELIST_BLOCK_BYTES", budget)
        path = tmp_path / "g.d6"
        # the second line is too short for its order, so reading it would raise
        path.write_bytes(b"\n  \r\n>>digraph6<<&" + bytes([63 + 2, 63 + 0b010000]) + b"\r\n&B?\n")
        assert load_graph(str(path), "digraph6").edges() == [(0, 1)]
        path.write_bytes(b"\n \r\n")
        with pytest.raises(errors.FormatError, match="no digraph6 line"):
            load_graph(str(path), "digraph6")


class TestInvariantProperties:
    @given(oriented_graphs())
    @settings(max_examples=200, deadline=None)
    def test_constructed_graphs_valid(self, g):
        check_invariants(g)

    @given(oriented_graphs())
    @settings(max_examples=200, deadline=None)
    def test_pseudo_undefined_iff_edgeless(self, g):
        assert (min_pseudo_semidegree(g) is None) == (g.edge_count == 0)

    @given(oriented_graphs())
    @settings(max_examples=200, deadline=None)
    def test_pseudo_vs_semidegree(self, g):
        semi = min_semidegree(g)
        pseudo = min_pseudo_semidegree(g)
        if all(min(degrees(g, v)) > 0 for v in range(g.n)):
            assert pseudo == semi
        elif pseudo is not None and semi > 0:
            assert pseudo >= semi

    @given(oriented_graphs())
    @settings(max_examples=100, deadline=None)
    def test_edgelist_roundtrip(self, g):
        assert parse_edgelist(to_edgelist(g)) == g

    @given(oriented_graphs(min_n=0), st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_edgelist_with_noise_matches_arcs(self, g, rng, header):
        arcs = g.edges()
        rng.shuffle(arcs)
        lines = [f"n={g.n}"] if header else []
        for u, v in arcs:
            for _ in range(rng.randint(0, 2)):
                lines.append(rng.choice(["", "  ", "# note", "\t# 1 2"]))
            gap, comment = rng.choice([" ", "\t", "  "]), rng.choice(["", " ", " # arc"])
            lines.append(f"{u}{gap}{v}{comment}")
        text = "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)
        n = g.n if header else 1 + max((max(arc) for arc in arcs), default=-1)
        assert parse_edgelist(text) == from_edge_list(arcs, n)
        if header:
            assert parse_edgelist(text) == g
