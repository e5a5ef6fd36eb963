import sys
import threading
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings

from altpaths import _dp_kernels, errors, oracle
from altpaths._dp_kernels import word_type
from altpaths.altpath import AlternatingPath, validate
from altpaths.graph_core import (
    blowup_directed_cycle,
    decode_codes,
    from_edge_list,
    min_pseudo_semidegree,
    num_oriented,
    random_oriented,
)
from altpaths.oracle import (
    OracleBudget,
    alt_path_lengths,
    has_alt_path_k,
    lengths_from_minors,
    longest_alt_path_exact,
    run_dp,
)
from conftest import oriented_graphs
from _brute import (
    all_graphs,
    alt_path_dp_py,
    brute_longest_alt_path,
    brute_respectable_endpoints,
    is_alt_sequence,
)


class TestLongestAltPath:
    def test_frozen_values(self):
        # values frozen from the naive DFS referee
        triangle = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
        assert longest_alt_path_exact(triangle)[0] == 2
        assert longest_alt_path_exact(from_edge_list([], 4))[0] == 1
        assert longest_alt_path_exact(from_edge_list([], 0))[0] == 0
        for b in (1, 2, 3):
            g = blowup_directed_cycle(3, b)
            assert longest_alt_path_exact(g)[0] == 2 * b

    def test_witness_validates(self):
        g = blowup_directed_cycle(4, 2)
        length, wit = longest_alt_path_exact(g)
        assert wit.order == length
        assert validate(g, wit)

    def test_matches_brute_exhaustive_n4(self):
        for g in all_graphs(4):
            length, wit = longest_alt_path_exact(g)
            assert length == brute_longest_alt_path(g)
            assert validate(g, wit) and wit.order == length

    def test_matches_brute_random_n7(self):
        for seed in range(40):
            g = random_oriented(7, 0.4 + 0.05 * (seed % 8), seed)
            length, wit = longest_alt_path_exact(g)
            assert length == brute_longest_alt_path(g)
            assert validate(g, wit) and wit.order == length

    def test_budget(self):
        g = from_edge_list([], 5)
        with pytest.raises(errors.TooLarge):
            longest_alt_path_exact(g, OracleBudget(max_n_subset_dp=4))

    def test_bad_budget(self):
        with pytest.raises(errors.BadParams):
            OracleBudget(max_n_subset_dp=0)


class TestHasAltPathK:
    def test_thresholds(self):
        g = blowup_directed_cycle(3, 2)
        assert has_alt_path_k(g, 4)
        assert not has_alt_path_k(g, 5)
        assert has_alt_path_k(g, 0)
        assert not has_alt_path_k(g, 7)

    @given(oriented_graphs(max_n=6))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_k(self, g):
        length, _ = longest_alt_path_exact(g)
        for k in range(0, g.n + 2):
            assert has_alt_path_k(g, k) == (k <= length)


class TestRespectableEndpoints:
    """Known answers for the brute referee that judges start_closure's endpoint sets."""

    def test_complete_bipartite(self):
        # every source can start, every sink can end
        edges = [(o, e) for o in (0, 1) for e in (2, 3)]
        g = from_edge_list(edges, 4)
        assert brute_respectable_endpoints(g, {0, 1}, {2, 3}) == ({0, 1}, {2, 3})

    def test_single_path_frame(self):
        # path 0 -> 2 <- 1 -> 3 forces its own endpoints
        g = from_edge_list([(0, 2), (1, 2), (1, 3)], 4)
        assert brute_respectable_endpoints(g, {0, 1}, {2, 3}) == ({0}, {3})

    def test_no_path(self):
        g = from_edge_list([(0, 2), (1, 3)], 4)
        assert brute_respectable_endpoints(g, {0, 1}, {2, 3}) == (set(), set())


def run_dp_ends(out_masks, in_masks, n, want_k=0):
    """run_dp with witness_ends' tail: (best, best_mask, best_state, reach)."""
    best, reach = run_dp(out_masks, in_masks, n, want_k=want_k)
    return (best, *_dp_kernels.witness_ends(best, reach), reach)


class TestKernelTwins:
    """The numpy kernel against the plain-int reference DP in _brute."""

    @staticmethod
    def _graphs():
        for n in range(0, 11):
            for seed in range(6):
                yield random_oriented(n, 0.2 + 0.15 * seed, 900 + 10 * n + seed)

    @staticmethod
    def _reference(g, want_k=0):
        reach = [0] * (1 << g.n)
        best, bm, bs = alt_path_dp_py(list(g.out_masks), list(g.in_masks), reach, want_k)
        return best, bm, bs, reach

    def test_matches_reference(self):
        for g in self._graphs():
            best, bm, bs, reach = run_dp_ends([g.out_masks], [g.in_masks], g.n)
            ref_best, ref_bm, ref_bs, ref_reach = self._reference(g)
            assert reach.shape == (1, 1 << g.n)
            assert reach[0].tolist() == ref_reach
            if g.n == 0:
                # the reference seeds best = 1 even with no vertex
                assert (best[0], bm[0], bs[0]) == (0, 0, 0)
            else:
                assert (best[0], bm[0], bs[0]) == (ref_best, ref_bm, ref_bs)

    def test_mixed_batch_matches_single_calls(self):
        # densities 0 to 0.9, so the batch holds graphs whose layers stop early
        graphs = [random_oriented(7, 0.1 * (i % 10), 40 + i) for i in range(30)]
        best, bm, bs, reach = run_dp_ends(
            [g.out_masks for g in graphs], [g.in_masks for g in graphs], 7
        )
        for i, g in enumerate(graphs):
            one = run_dp_ends([g.out_masks], [g.in_masks], 7)
            assert (best[i], bm[i], bs[i]) == (one[0][0], one[1][0], one[2][0])
            assert reach[i].tolist() == one[3][0].tolist()
        out_masks = np.array([g.out_masks for g in graphs])
        in_masks = np.array([g.in_masks for g in graphs])
        assert alt_path_lengths(out_masks, in_masks, 7).tolist() == best.tolist()

    def test_early_exit_agrees(self):
        for g in self._graphs():
            if g.n == 0:
                continue
            full_best, full_bm, full_bs, full_reach = run_dp_ends([g.out_masks], [g.in_masks], g.n)
            length = int(full_best[0])
            for want_k in range(1, g.n + 2):
                best, bm, bs, reach = run_dp_ends([g.out_masks], [g.in_masks], g.n, want_k=want_k)
                assert best[0] == min(length, want_k)
                assert (best[0] >= want_k) == (self._reference(g, want_k)[0] >= want_k)
                if length <= want_k:
                    assert (bm[0], bs[0]) == (full_bm[0], full_bs[0])
                    assert reach[0].tolist() == full_reach[0].tolist()
                else:
                    # the layers up to want_k are complete, and nothing beyond
                    low = [m for m in range(1 << g.n) if m.bit_count() <= want_k]
                    high = [m for m in range(1 << g.n) if m.bit_count() > want_k]
                    assert reach[0][low].tolist() == full_reach[0][low].tolist()
                    assert not reach[0][high].any()


def _one_mask_batch(n: int) -> int:
    """The least batch of order-n graphs whose popcount-2 blocks hold one mask each."""
    return _dp_kernels.BLOCK_BYTES // (2 * word_type(n).itemsize) + 1


class TestPullBlocks:
    """run_dp against the reference DP where the pull step's blocks and plan
    groups change shape: one-mask blocks, layers cut into several blocks,
    and orders on both sides of the plan cache."""

    @staticmethod
    def _assert_matches_reference(out_masks, in_masks, n):
        out_masks = np.asarray(out_masks, dtype=np.int64)
        in_masks = np.asarray(in_masks, dtype=np.int64)
        refs = {}
        for b in range(len(out_masks)):
            key = (tuple(out_masks[b].tolist()), tuple(in_masks[b].tolist()))
            if key not in refs:
                reach = [0] * (1 << n)
                refs[key] = alt_path_dp_py(list(key[0]), list(key[1]), reach, 0), reach
        rows = [refs[(tuple(o.tolist()), tuple(i.tolist()))] for o, i in zip(out_masks, in_masks)]
        popcount = np.array([m.bit_count() for m in range(1 << n)])
        best, bm, bs, reach = run_dp_ends(out_masks, in_masks, n)
        for b, ((ref_best, ref_bm, ref_bs), ref_reach) in enumerate(rows):
            assert (best[b], bm[b], bs[b]) == (ref_best, ref_bm, ref_bs)
            assert reach[b].tolist() == ref_reach
        for want_k in range(1, n + 2):
            k_best, k_bm, k_bs, k_reach = run_dp_ends(out_masks, in_masks, n, want_k=want_k)
            assert k_best.tolist() == np.minimum(best, want_k).tolist()
            done = best <= want_k
            assert k_bm[done].tolist() == bm[done].tolist()
            assert k_bs[done].tolist() == bs[done].tolist()
            assert (k_reach[done] == reach[done]).all()
            # layers up to want_k are complete, and nothing lies beyond them
            low = popcount <= want_k
            assert (k_reach[:, low] == reach[:, low]).all()
            assert not k_reach[~done][:, ~low].any()

    def test_one_mask_per_block(self):
        # every n=4 graph, tiled so that a single mask's cells fill a block
        codes = np.arange(3 ** 6)
        batch = _one_mask_batch(4)
        assert _dp_kernels.BLOCK_BYTES // (2 * batch * word_type(4).itemsize) == 0
        out_masks, in_masks = decode_codes(4, np.resize(codes, batch))
        self._assert_matches_reference(out_masks, in_masks, 4)

    def test_layer_over_several_blocks(self):
        graphs = [random_oriented(10, 0.1 * (i % 10), 300 + i) for i in range(128)]
        assert comb(10, 5) * 5 * len(graphs) * word_type(10).itemsize > 2 * _dp_kernels.BLOCK_BYTES
        self._assert_matches_reference(
            [g.out_masks for g in graphs], [g.in_masks for g in graphs], 10
        )

    def test_tiny_blocks(self, monkeypatch):
        # blocks of a few cells cut every layer at uneven row counts
        monkeypatch.setattr(_dp_kernels, "BLOCK_BYTES", 7)
        for n in range(1, 9):
            graphs = [random_oriented(n, 0.2 + 0.3 * i, 600 + 10 * n + i) for i in range(3)]
            self._assert_matches_reference(
                [g.out_masks for g in graphs], [g.in_masks for g in graphs], n
            )

    def test_both_sides_of_plan_cache(self, monkeypatch):
        monkeypatch.setattr(_dp_kernels, "PLAN_ORDER", 4)
        for n in range(2, 10):
            graphs = [random_oriented(n, 0.25 + 0.25 * i, 700 + 10 * n + i) for i in range(3)]
            self._assert_matches_reference(
                [g.out_masks for g in graphs], [g.in_masks for g in graphs], n
            )

    def test_first_order_past_plan_cache(self):
        # a sparse graph keeps the reference's 2^17 masks cheap
        n = _dp_kernels.PLAN_ORDER + 1
        g = random_oriented(n, 0.25, 17)
        self._assert_matches_reference([g.out_masks], [g.in_masks], n)

    def test_tournament_witness(self):
        g = random_oriented(14, 1.0, 1971)
        best, path = longest_alt_path_exact(g)
        assert best == path.order == 14
        assert validate(g, path)


def _masks(graphs):
    return (
        np.array([g.out_masks for g in graphs], dtype=np.int64),
        np.array([g.in_masks for g in graphs], dtype=np.int64),
    )


class TestSpanCertificate:
    """alt_path_lengths' validated spanning path at orders >= SPAN_CERTIFICATE_ORDER."""

    # order 14 with L = 14, but greedy extension from none of its first 14
    # arcs reaches order 14, so only the DP can give its L
    UNCERTIFIED_SPANNING = (14, 0.5, 1)

    @staticmethod
    def _spy(monkeypatch):
        batches = []
        real = oracle.run_dp

        def spy(out_masks, in_masks, n, want_k=0):
            batches.append(np.array(out_masks))
            return real(out_masks, in_masks, n, want_k)

        monkeypatch.setattr(oracle, "run_dp", spy)
        return batches

    def test_matches_dp(self):
        for n in range(13, 17):
            for p in (0.25, 0.5, 1.0):
                seed = 5000 + 100 * n + 10 * int(4 * p)
                graphs = [random_oriented(n, p, seed + i) for i in range(8)]
                out_masks, in_masks = _masks(graphs)
                assert alt_path_lengths(out_masks, in_masks, n).tolist() == \
                    run_dp(out_masks, in_masks, n)[0].tolist()

    def test_small_cases(self):
        edgeless = from_edge_list([], 14)
        one_arc = from_edge_list([(3, 9)], 14)
        assert alt_path_lengths(*_masks([edgeless, one_arc]), 14).tolist() == [1, 2]
        none = np.zeros((0, 14), dtype=np.int64)
        empty = alt_path_lengths(none, none, 14)
        assert empty.dtype == np.int64 and empty.shape == (0,)

    def test_uncertified_spanning_graph_goes_to_dp(self, monkeypatch):
        g = random_oriented(*self.UNCERTIFIED_SPANNING)
        assert not oracle._greedy_spans(g)
        length, path = longest_alt_path_exact(g)
        assert length == path.order == 14 and validate(g, path)
        batches = self._spy(monkeypatch)
        assert alt_path_lengths(*_masks([g]), 14).tolist() == [14]
        assert [b.tolist() for b in batches] == [[list(g.out_masks)]]

    def test_tournaments_skip_dp(self, monkeypatch):
        assert oracle.SPAN_CERTIFICATE_ORDER <= 14
        tournaments = [random_oriented(14, 1.0, 1971 + i) for i in range(16)]
        sparse = [random_oriented(14, 0.25, 40 + i) for i in range(8)]
        graphs = [g for pair in zip(tournaments, sparse) for g in pair]
        expected = run_dp(*_masks(graphs), 14)[0]
        batches = self._spy(monkeypatch)
        assert alt_path_lengths(*_masks(tournaments), 14).tolist() == [14] * 16
        assert batches == []
        assert alt_path_lengths(*_masks(graphs), 14).tolist() == expected.tolist()
        # every row below order n, and no tournament, reached the DP
        assert (expected[1::2] < 14).all()
        reached = {tuple(row) for batch in batches for row in batch.tolist()}
        assert reached == {g.out_masks for g in sparse}

    def test_unvalidated_spanning_sequence_is_ignored(self, monkeypatch):
        # every attempt returns order n, but 0..n-1 does not alternate in these graphs
        monkeypatch.setattr(
            oracle, "greedy_extend", lambda g, p, k: AlternatingPath(tuple(range(k)), True)
        )
        graphs = [random_oriented(14, 0.25, 40 + i) for i in range(8)]
        out_masks, in_masks = _masks(graphs)
        lengths = alt_path_lengths(out_masks, in_masks, 14)
        assert lengths.tolist() == run_dp(out_masks, in_masks, 14)[0].tolist()
        assert (lengths < 14).all()


class TestOrderBelowTable:
    """lengths_from_minors: L of order-n codes from the table of order n - 1."""

    @staticmethod
    def _assert_matches(n, codes):
        out_masks, in_masks, minors, stars = decode_codes(n, codes, minors=True)
        lengths = lengths_from_minors(n, minors, stars)
        assert lengths.dtype == np.int64
        assert lengths.tolist() == alt_path_lengths(out_masks, in_masks, n).tolist()

    @pytest.mark.parametrize("n", range(6))
    def test_every_code(self, n):
        self._assert_matches(n, np.arange(num_oriented(n)))

    def test_seeded_chunks_n6(self):
        rng = np.random.default_rng(66)
        for lo in rng.integers(0, num_oriented(6) - 2000, size=4).tolist():
            self._assert_matches(6, np.arange(lo, lo + 2000))
        self._assert_matches(6, rng.integers(0, num_oriented(6), size=2000))

    @pytest.mark.slow
    def test_every_code_n6(self):
        for lo in range(0, num_oriented(6), 100_000):
            self._assert_matches(6, np.arange(lo, min(lo + 100_000, num_oriented(6))))

    def test_table_costs_one_dp_call_per_process(self, monkeypatch):
        calls = []
        real = oracle.run_dp

        def spy(out_masks, in_masks, n, want_k=0):
            calls.append((len(out_masks), n))
            return real(out_masks, in_masks, n, want_k)

        monkeypatch.setattr(oracle, "run_dp", spy)
        oracle._order_table.cache_clear()
        for lo in (0, 2000, 57049):
            _, _, minors, stars = decode_codes(5, np.arange(lo, lo + 2000), minors=True)
            lengths_from_minors(5, minors, stars)
        assert calls == [(num_oriented(4), 4)]


# Orders on both sides of each change of state-word type: the unsigned words
# change at 4/5, 8/9 and 16/17, and signed ones would change at 7/8 and 15/16.
WORD_BOUNDARY_ORDERS = [4, 5, 7, 8, 9, 15, 16, 17]


class TestWordWidths:
    def test_word_types(self):
        itemsizes = [word_type(n).itemsize for n in range(_dp_kernels.MAX_DP_ORDER + 1)]
        assert itemsizes == [1] * 5 + [2] * 4 + [4] * 8 + [8] * 15
        for n in range(_dp_kernels.MAX_DP_ORDER + 1):
            word = word_type(n)
            assert word.kind == "u" or word == np.int64
            assert 2 * n <= 8 * word.itemsize - (word.kind == "i")  # clear of a sign bit

    @pytest.mark.parametrize("n", WORD_BOUNDARY_ORDERS)
    def test_matches_references(self, n):
        # random graphs, sparse enough past order 9 that the reference DP
        # stays cheap, and one tournament, which fills every layer
        densities = (0.3, 0.5, 0.8) if n <= 9 else (0.2, 0.3)
        graphs = [random_oriented(n, p, 7000 + 10 * n + i) for i, p in enumerate(densities)]
        graphs.append(random_oriented(n, 1.0, 7099 + n))
        best, reach = run_dp(*_masks(graphs), n)
        assert reach.dtype == word_type(n)
        best_mask, best_state = _dp_kernels.witness_ends(best, reach)
        for b, g in enumerate(graphs):
            ref_reach = [0] * (1 << n)
            ref = alt_path_dp_py(list(g.out_masks), list(g.in_masks), ref_reach, 0)
            assert (best[b], best_mask[b], best_state[b]) == ref
            assert reach[b].tolist() == ref_reach
            length, path = longest_alt_path_exact(g)
            assert length == path.order == ref[0]
            assert validate(g, path) and is_alt_sequence(g, list(path.verts))
            if n <= 9:
                assert length == brute_longest_alt_path(g)
            for k in (length - 1, length, length + 1):
                assert has_alt_path_k(g, k) == (k <= length)


class TestPredecessorStates:
    @pytest.mark.parametrize("n", [1, 5, 14, 31])
    def test_matches_vertex_loop(self, n):
        rng = np.random.default_rng(n)
        full = (1 << n) - 1
        out_masks = rng.integers(0, full + 1, size=(6, n), dtype=np.int64)
        in_masks = rng.integers(0, full + 1, size=(6, n), dtype=np.int64)
        out_masks[0] = in_masks[1] = full  # every bit set, bit 30 at n = 31
        expected = np.zeros((n, 6), dtype=np.int64)
        for last in range(n):
            expected |= ((out_masks.T >> last) & 1) << (2 * last)
            expected |= ((in_masks.T >> last) & 1) << (2 * last + 1)
        pred = _dp_kernels._predecessor_states(out_masks, in_masks)
        assert pred.dtype == np.int64
        assert pred.tolist() == expected.tolist()


class TestWorkspace:
    """The pull step's reused buffers never leak into results."""

    @staticmethod
    def _buffers():
        ws = _dp_kernels._WORKSPACE
        return (*ws.cells, *ws.index, ws.shift, ws.new)

    @staticmethod
    def _batch(n, batch, p, seed):
        graphs = [random_oriented(n, p, seed + i) for i in range(batch)]
        return [g.out_masks for g in graphs], [g.in_masks for g in graphs]

    def test_outputs_share_no_memory_with_workspace(self):
        for n, batch in [(1, 1), (5, 2000), (9, 3), (14, 1)]:
            outputs = run_dp(*self._batch(n, batch, 0.6, 10 * n), n)
            for out in outputs:
                for buf in self._buffers():
                    assert not np.shares_memory(out, buf)

    def test_reuse_across_shapes(self, monkeypatch):
        # (14, 1), (5, 2000), then one-mask blocks that grow the workspace,
        # then (14, 1) again on the grown buffers
        monkeypatch.setattr(_dp_kernels, "_WORKSPACE", _dp_kernels._Workspace())
        check = TestPullBlocks._assert_matches_reference
        tournament = self._batch(14, 1, 1.0, 1414)
        check(*tournament, 14)
        check(*decode_codes(5, np.random.default_rng(5).integers(0, 3 ** 10, size=2000)), 5)
        sizes = [len(buf) for buf in self._buffers()]
        check(*decode_codes(4, np.resize(np.arange(3 ** 6), _one_mask_batch(4))), 4)
        grown = [len(buf) for buf in self._buffers()]
        assert grown[0] > sizes[0]
        check(*tournament, 14)
        assert [len(buf) for buf in self._buffers()] == grown
        # kept views see the grown buffers only, so the old ones are freed
        for views in _dp_kernels._WORKSPACE.shaped.values():
            assert all(any(view.base is buf for buf in self._buffers()) for view in views)

    def test_no_per_block_temporaries(self):
        # one layer block of an order-14 tournament holds up to 24,024 cells
        # (192 KB of int64); a warm call may allocate reach plus small
        # per-layer and per-call arrays, well under one such block
        slack = 16 * 1024
        tournament = self._batch(14, 1, 1.0, 1414)
        run_dp(*tournament, 14)
        tracemalloc.start()
        try:
            for _ in range(3):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                reach = run_dp(*tournament, 14)[1]
                assert tracemalloc.get_traced_memory()[1] - before < reach.nbytes + slack
                del reach
        finally:
            tracemalloc.stop()

    def test_threads_keep_their_own_workspace(self):
        # more threads than cores, each checking its results against one
        # single-threaded run, with a short switch interval to interleave blocks
        inputs = [self._batch(10, 4, 0.2 + 0.2 * t, 50 * t) for t in range(4)]
        expected = [run_dp(*masks, 10) for masks in inputs]
        mismatches = []

        def work(t):
            for _ in range(5):
                got = run_dp(*inputs[t], 10)
                if not all(np.array_equal(a, b) for a, b in zip(got, expected[t])):
                    mismatches.append(t)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestDegreeBoundSmallCases:
    def test_no_small_counterexample(self):
        # at every n <= 4 the degree condition already forces the path
        for n in range(1, 5):
            for g in all_graphs(n):
                pseudo = min_pseudo_semidegree(g)
                if pseudo is None:
                    continue
                kmax = (8 * pseudo - 1) // 5
                if kmax >= 1:
                    assert has_alt_path_k(g, kmax)
