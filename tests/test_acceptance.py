"""Acceptance gate: one test per end-to-end criterion, exact tolerances.

Each test prints a single PASS line on success; any deviation is a hard
failure.  The heavy n=6 exhaustive leg sits behind the `slow` marker
(see scripts/run_n6_sweep.py for the multi-worker runner).
"""
import random

import pytest

from altpaths.altpath import path_from_verts, validate
from altpaths.graph_core import from_edge_list, min_pseudo_semidegree, random_oriented
from altpaths.harness import (
    SweepConfig,
    _mix_seed,
    max_k_for,
    run_blowup_suite,
    run_corollary_sweep,
    run_oddcase_sweep,
    run_theorem_sweep,
)
from altpaths.rotation_engine import find_alternating_path, start_closure
from _brute import brute_respectable_endpoints, is_respectable
from _reports import assert_same_text, report_to_csv, report_to_json


def _announce(num: int, text: str) -> None:
    print(f"\nPASS criterion {num}: {text}")


class TestCriterion1TheoremExhaustive:
    def _run(self, n: int) -> None:
        report = run_theorem_sweep(
            SweepConfig(mode="exhaustive", n=n, stable=True, aggregate_only=True)
        )
        agg = report.aggregates
        assert agg["counterexamples"] == 0
        assert agg["finder_failures"] == 0
        assert agg["skipped"] == 0

    def test_n4_and_n5(self):
        self._run(4)
        self._run(5)
        _announce(1, "0 counterexamples, finder Found everywhere, exhaustive n=4 and n=5")

    @pytest.mark.slow
    def test_n6(self):
        import multiprocessing

        report = run_theorem_sweep(
            SweepConfig(
                mode="exhaustive",
                n=6,
                stable=True,
                aggregate_only=True,
                workers=min(8, multiprocessing.cpu_count()),
                chunk_size=50000,
            )
        )
        agg = report.aggregates
        assert agg["instances"] == 3 ** 15
        assert agg["counterexamples"] == 0 and agg["finder_failures"] == 0
        assert agg["frontier"] == {"1": 2, "2": 4, "3": 6}
        _announce(1, "exhaustive n=6 clean (slow leg)")


class TestCriterion2FinderVsCondition:
    def test_random_10k(self):
        ps = (0.5, 0.8, 1.0)
        checked = 0
        for idx in range(10_000):
            inst_seed = _mix_seed(202, idx)
            rng = random.Random(inst_seed)
            n = rng.randrange(10, 17)
            g = random_oriented(n, ps[idx % 3], inst_seed + 1)
            kmax = max_k_for(min_pseudo_semidegree(g))
            for k in range(1, kmax + 1):
                out = find_alternating_path(g, k)
                assert out.outcome == "found", (idx, k, out.outcome, out.reason)
                assert out.path.order == k
                assert k < 2 or validate(g, out.path)
                checked += 1
        assert checked > 10_000
        _announce(2, f"finder Found at order exactly k on {checked} qualifying (graph, k) pairs")


class TestCriterion3BlowupTightness:
    def test_grid(self):
        cfg = SweepConfig(mode="blowup", t_range=(3, 5), b_range=(1, 3), stable=True)
        report = run_blowup_suite(cfg)
        assert report.aggregates["instances"] == 9
        assert report.aggregates["violations"] == 0
        assert report.aggregates["skipped"] == 0
        for rec in report.records:
            b = int(rec["graph_id"].split("x")[1])
            assert rec["min_semidegree"] == b and rec["oracle_L"] == 2 * b
        _announce(3, "blowups t in 3..5, b in 1..3 all have semidegree b and maximum order 2b")


class TestCriterion4OddCase:
    def test_exhaustive_and_random(self):
        for n in range(1, 6):
            report = run_oddcase_sweep(
                SweepConfig(mode="exhaustive", n=n, stable=True, aggregate_only=True)
            )
            assert report.aggregates["violations"] == 0
        report = run_oddcase_sweep(
            SweepConfig(
                mode="random",
                n_range=(2, 16),
                samples=10_000,
                seed=404,
                stable=True,
                aggregate_only=True,
            )
        )
        assert report.aggregates["instances"] == 10_000
        assert report.aggregates["violations"] == 0
        _announce(4, "odd maximum order L always satisfies L >= 2*pseudo - 1")


class TestCriterion5StageSoundness:
    def test_stage_outputs_sound(self):
        # each finder stage, driven directly, returns what the brute referees
        # accept; tests/test_rotation_engine.py checks the same on seeded frames
        kb2 = from_edge_list([(0, 2), (0, 3), (1, 2), (1, 3)], 4)
        sources, sinks = {0, 1}, {2, 3}
        closure = start_closure(kb2, (0, 2, 1, 3))
        assert (set(closure.S_found), set(closure.T_found)) == brute_respectable_endpoints(
            kb2, sources, sinks
        )
        for wit in [*closure.S_found.values(), *closure.T_found.values()]:
            assert is_respectable(kb2, sources, sinks, wit)

        # 4 3 5 1 0 has no direct extension; a rotation brings vertex 2 in reach
        g6 = from_edge_list(
            [(1, 0), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)], 6
        )
        ext = start_closure(g6, (4, 3, 5, 1, 0)).extension
        assert len(ext) == 6 and validate(g6, path_from_verts(g6, ext))
        _announce(5, "closure endpoints, witnesses and odd-path extensions sound")


class TestCriterion7CorollarySuite:
    def test_tournaments(self):
        report = run_corollary_sweep(
            SweepConfig(
                mode="corollary",
                k=4,
                n_range=(14, 16),
                samples=300,
                seed=707,
                stable=True,
            )
        )
        agg = report.aggregates
        assert agg["instances"] == 300
        assert agg["violations"] == 0
        assert agg["skipped"] == 0  # tournaments at n >= 14 clear the edge bound
        _announce(7, "300 tournaments (100 per n in 14..16) all contain an order-4 alternating path")


class TestCriterion8Determinism:
    def test_byte_identical_reports(self):
        base = dict(
            mode="random", n_range=(8, 12), samples=200, seed=808, stable=True
        )
        r1 = run_theorem_sweep(SweepConfig(workers=1, chunk_size=25, **base))
        r2 = run_theorem_sweep(SweepConfig(workers=4, chunk_size=25, **base))
        assert_same_text(report_to_json(r1), report_to_json(r2))
        assert_same_text(report_to_csv(r1), report_to_csv(r2))
        r3 = run_theorem_sweep(SweepConfig(workers=2, chunk_size=40, **base))
        assert_same_text(report_to_json(r1), report_to_json(r3))
        _announce(8, "stable reports byte-identical across reruns and worker counts")
