import csv
import dataclasses
import hashlib
import io
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altpaths import errors
from altpaths.cli import main
from altpaths import harness
from altpaths.graph_core import blowup_directed_cycle, to_edgelist
from altpaths.harness import (
    SweepConfig,
    SweepReport,
    emit_report,
    max_k_for,
    run_blowup_suite,
    run_corollary_sweep,
    run_oddcase_sweep,
    run_theorem_sweep,
    sweep_failed,
)
from altpaths.oracle import OracleBudget, longest_alt_path_exact
from altpaths.rotation_engine import OUTCOME_TEXTS, find_alternating_path
from _brute import brute_graph_from_code
from _reports import assert_same_text, report_to_csv, report_to_json


def _blowup(**fields) -> SweepReport:
    return run_blowup_suite(SweepConfig(mode="blowup", **fields))


class TestMaxKFor:
    def test_values(self):
        # largest k with 8*pseudo > 5*k
        assert max_k_for(None) == 0
        assert max_k_for(1) == 1
        assert max_k_for(2) == 3
        assert max_k_for(3) == 4
        assert max_k_for(4) == 6
        assert max_k_for(5) == 7

    def test_defining_inequality(self):
        for pseudo in range(1, 40):
            k = max_k_for(pseudo)
            assert 8 * pseudo > 5 * k
            assert not 8 * pseudo > 5 * (k + 1)


class TestTheoremSweep:
    def test_exhaustive_n3(self):
        report = run_theorem_sweep(SweepConfig(mode="exhaustive", n=3, stable=True))
        agg = report.aggregates
        assert agg["instances"] == 27
        assert agg["counterexamples"] == 0
        assert agg["finder_failures"] == 0
        assert not sweep_failed(report)

    def test_exhaustive_leaves_config_unchanged(self):
        for run in (run_theorem_sweep, run_oddcase_sweep):
            cfg = SweepConfig(mode="exhaustive", n_range=(3, 3), stable=True)
            before = dataclasses.asdict(cfg)
            report = run(cfg)
            assert dataclasses.asdict(cfg) == before
            assert report.config["n"] == 3 and report.aggregates["instances"] == 27

    def test_exhaustive_too_large(self):
        with pytest.raises(errors.TooLarge):
            run_theorem_sweep(SweepConfig(mode="exhaustive", n=7))

    def test_random_sweep(self):
        cfg = SweepConfig(
            mode="random", n_range=(8, 10), samples=60, seed=3, stable=True
        )
        report = run_theorem_sweep(cfg)
        assert report.aggregates["instances"] == 60
        assert not sweep_failed(report)

    def test_worker_count_invariance(self):
        base = dict(mode="random", n_range=(7, 9), samples=50, seed=9, stable=True)
        r1 = run_theorem_sweep(SweepConfig(workers=1, chunk_size=10, **base))
        r2 = run_theorem_sweep(SweepConfig(workers=4, chunk_size=10, **base))
        assert r1.records == r2.records
        assert r1.aggregates == r2.aggregates

    def test_aggregate_only_drops_clean_records(self):
        cfg = SweepConfig(
            mode="random", n=8, samples=30, seed=1, stable=True, aggregate_only=True
        )
        report = run_theorem_sweep(cfg)
        assert report.records == []
        assert report.aggregates["instances"] == 30


class TestOddcaseSweep:
    def test_exhaustive_n4(self):
        report = run_oddcase_sweep(SweepConfig(mode="exhaustive", n=4, stable=True))
        assert report.aggregates["instances"] == 729
        assert report.aggregates["violations"] == 0

    def test_random(self):
        cfg = SweepConfig(mode="random", n_range=(8, 12), samples=80, seed=5, stable=True)
        report = run_oddcase_sweep(cfg)
        assert report.aggregates["violations"] == 0


class TestBlowupSuite:
    def test_default_grid(self):
        report = _blowup(stable=True)
        assert report.aggregates["instances"] == 9
        assert report.aggregates["violations"] == 0
        for rec in report.records:
            t, b = map(int, rec["graph_id"].removeprefix("blowup-").split("x"))
            assert rec["n"] == t * b
            assert rec["oracle_L"] == 2 * b

    def test_rejects_other_modes(self):
        for mode in ("exhaustive", "random", "corollary", "oddcase"):
            with pytest.raises(errors.BadParams):
                run_blowup_suite(SweepConfig(mode=mode, n=6, samples=5))


class TestCorollarySweep:
    def test_small_dense(self):
        cfg = SweepConfig(
            mode="corollary", k=4, n_range=(14, 15), samples=12, seed=2, stable=True
        )
        report = run_corollary_sweep(cfg)
        assert report.aggregates["violations"] == 0
        assert report.aggregates["instances"] == 12

    def test_vacuous_params(self):
        # n=8 tournaments top out at 28 edges but the bound needs > 48
        with pytest.raises(errors.VacuousParams):
            run_corollary_sweep(SweepConfig(mode="corollary", k=4, n=8, samples=4))
        with pytest.raises(errors.VacuousParams):
            run_corollary_sweep(SweepConfig(mode="corollary", k=2, n=6, samples=4))

    def test_needs_k(self):
        with pytest.raises(errors.BadParams):
            run_corollary_sweep(SweepConfig(mode="corollary", n=14, samples=4))


class TestReports:
    def _report(self):
        return run_theorem_sweep(
            SweepConfig(mode="exhaustive", n=3, stable=True)
        )

    def test_json_stable(self):
        assert_same_text(report_to_json(self._report()), report_to_json(self._report()))

    def test_csv_round_trip(self, tmp_path):
        report = self._report()
        path = str(tmp_path / "out.csv")
        emit_report(report, "csv", path)
        with open(path, newline="", encoding="ascii") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(report.records)
        for row, rec in zip(rows, report.records):
            assert list(row) == harness.CSV_COLUMNS
            assert row == {col: "" if rec[col] is None else str(rec[col]) for col in row}

    def test_csv_header(self):
        text = report_to_csv(self._report())
        assert text.splitlines()[0] == (
            "graph_id,n,edges,min_pseudo_semidegree,min_semidegree,"
            "oracle_L,finder_outcome,rounds,micros"
        )

    def test_emit_bad_path(self):
        with pytest.raises(errors.IoFailure):
            emit_report(self._report(), "json", "/nonexistent-dir/x.json")


def _reference_json(report):
    doc = {"config": report.config, "aggregates": report.aggregates, "records": report.records}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestReportEncoder:
    def _assert_matches_reference(self, report):
        assert_same_text(report_to_json(report), _reference_json(report))

    def test_exhaustive_theorem(self):
        self._assert_matches_reference(
            run_theorem_sweep(SweepConfig(mode="exhaustive", n=3, stable=True))
        )

    def test_random_with_timings(self):
        # dense enough that the finder runs (kmax >= 2) on some rows
        cfg = SweepConfig(mode="random", n_range=(8, 10), p=0.9, samples=20, seed=2)
        report = run_theorem_sweep(cfg)
        assert any(rec["micros"] > 0 for rec in report.records)
        self._assert_matches_reference(report)

    def test_aggregate_only_without_records(self):
        cfg = SweepConfig(mode="random", n=8, samples=20, seed=1, stable=True, aggregate_only=True)
        report = run_theorem_sweep(cfg)
        assert report.records == []
        assert '"records": []' in report_to_json(report)
        self._assert_matches_reference(report)

    def test_exhaustive_oddcase(self):
        self._assert_matches_reference(
            run_oddcase_sweep(SweepConfig(mode="exhaustive", n=4, stable=True))
        )

    def test_corollary(self):
        cfg = SweepConfig(mode="corollary", k=4, n=14, samples=2, seed=5, stable=True)
        self._assert_matches_reference(run_corollary_sweep(cfg))

    def test_blowup(self):
        self._assert_matches_reference(_blowup(stable=True))

    def test_string_escapes(self):
        base = _blowup(t_range=(3, 3), b_range=(1, 1), stable=True)
        columns = _repeated(base, 2)
        columns["violation"] = _objects([None, 'a"b\\c\nd\u00e9\u2603'])
        report = SweepReport(base.config, columns, base.aggregates, base.graph_ids)
        text = report_to_json(report)
        assert text.isascii()
        assert_same_text(text, _reference_json(report))

    def test_record_off_template_raises(self):
        base = _blowup(t_range=(3, 3), b_range=(1, 1), stable=True)
        columns = _repeated(base, 2)
        missing = {name: column for name, column in columns.items() if name != "micros"}
        bad_columns = [
            dict(columns, extra=np.array([1, 1])),
            missing,
            dict(missing, millis=np.array([0, 0])),
            dict(columns, micros=np.array([0, 1.5])),
            dict(columns, violation=_objects([None, ["x"]])),
            dict(columns, graph_id=[0, 0]),
            dict(columns, rounds=np.array([0])),
        ]
        for bad in bad_columns:
            report = SweepReport(base.config, bad, base.aggregates, base.graph_ids)
            for fmt in ("json", "csv"):
                with pytest.raises(TypeError):
                    harness.report_batches(report, fmt)  # before the first batch is asked for

    def test_records_are_a_copy(self):
        report = _blowup(t_range=(3, 3), b_range=(1, 2), stable=True)
        text = report_to_json(report)
        records = report.records
        records[0]["violation"] = "changed"
        records.pop()
        assert report.records[0]["violation"] is None and len(report.records) == 2
        assert_same_text(report_to_json(report), text)

    def test_exhaustive_n5_stable_pinned(self):
        # sha256 of the stable n=5 report as the json.dumps encoder wrote it
        report = run_theorem_sweep(SweepConfig(mode="exhaustive", n=5, stable=True))
        digest = hashlib.sha256(report_to_json(report).encode("ascii")).hexdigest()
        assert digest == "a8d657f640400ac7006c9679354194f962b25174697a08400aa7c01363a3c226"

    def test_exhaustive_n5_stable_csv_pinned(self):
        # sha256 of the stable n=5 CSV as csv.writer writes its records row by row
        report = run_theorem_sweep(SweepConfig(mode="exhaustive", n=5, stable=True))
        digest = hashlib.sha256(report_to_csv(report).encode("ascii")).hexdigest()
        assert digest == "9da2cb1e2d455807c281e36a4d95c3ecc22013bd0a35f37caee7a21ddd934b78"


# the nullable fields; graph_id holds instance indexes, finder_outcome codes,
# violation str, and every other record field an int
NULLABLE = {"min_pseudo_semidegree", "min_semidegree", "oracle_L", "violation"}
INT_FIELDS = [
    name for name in harness.RECORD_FIELDS
    if name not in {"graph_id", "finder_outcome", "violation"}
]


@st.composite
def record_columns(draw):
    """(config, graph_ids, columns as lists): 0, 1 or many rows, nulls, escapes and non-ASCII text.

    graph_id holds instance indexes: into a tuple of unique id texts, or
    after a prefix text.
    """
    size = draw(st.sampled_from([0, 1, draw(st.integers(2, 40))]))

    def column(values, **kw):
        return draw(st.lists(values, min_size=size, max_size=size, **kw))

    # few small values, so that rows share bodies, and some past 32 bits
    ints = st.one_of(st.integers(0, 3), st.integers(0, 2**62))
    text = st.one_of(st.sampled_from(["", "found", 'a"b\\c\nd\u00e9\u2603']), st.text(max_size=8))
    columns = {
        name: column(st.one_of(st.none(), ints) if name in NULLABLE else ints)
        for name in INT_FIELDS
    }
    if draw(st.booleans()):  # every row times its own finder call
        columns["micros"] = column(st.integers(0, 2**62), unique=True)
    if draw(st.booleans()):  # every id named
        graph_ids = tuple(column(text, unique=True))
        columns["graph_id"] = draw(st.permutations(range(size)))
    else:  # a prefix and the decimal index
        graph_ids = draw(text)
        columns["graph_id"] = column(ints, unique=True)
    columns["finder_outcome"] = column(st.sampled_from(OUTCOME_TEXTS))
    columns["violation"] = column(st.one_of(st.none(), text))
    aggregate_only = draw(st.booleans())
    if aggregate_only:  # an aggregate_only sweep keeps the violating rows
        keep = [i for i, text in enumerate(columns["violation"]) if text is not None]
        columns = {name: [values[i] for i in keep] for name, values in columns.items()}
    return {"mode": "random", "aggregate_only": aggregate_only}, graph_ids, columns


def _id_texts(graph_ids, indexes: list[int]) -> list[str]:
    if isinstance(graph_ids, str):
        return [f"{graph_ids}{i}" for i in indexes]
    return [graph_ids[i] for i in indexes]


def _objects(values: list) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


def _as_arrays(columns: dict) -> dict:
    """Columns of int, str and None in the report layout.

    violation becomes an object array, finder_outcome an int64 array of
    codes into OUTCOME_TEXTS, and graph_id and the int fields int64 arrays
    with -1 for null.
    """
    arrays = {}
    for name, values in columns.items():
        if name == "finder_outcome":
            arrays[name] = np.array(list(map(OUTCOME_TEXTS.index, values)), dtype=np.int64)
        elif name == "violation":
            arrays[name] = _objects(values)
        else:
            arrays[name] = np.array([-1 if v is None else v for v in values], dtype=np.int64)
    return arrays


def _repeated(report, times: int) -> dict:
    """The report's columns, each repeated; the rows keep the report's graph_ids."""
    return {name: np.tile(column, times) for name, column in report.columns.items()}


def _reference_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(harness.CSV_COLUMNS)
    writer.writerows([rec[name] for name in harness.CSV_COLUMNS] for rec in report.records)
    return buf.getvalue()


AGGREGATES = {"instances": 3, "frontier": {"2": 4}}


class TestTypedColumns:
    @given(record_columns())
    @settings(max_examples=100, deadline=None)
    def test_renderers_match_the_reference(self, drawn):
        config, graph_ids, columns = drawn
        report = SweepReport(config, _as_arrays(columns), AGGREGATES, graph_ids)
        texts = dict(columns, graph_id=_id_texts(graph_ids, columns["graph_id"]))
        records = [dict(zip(harness.RECORD_FIELDS, row))
                   for row in zip(*(texts[name] for name in harness.RECORD_FIELDS))]
        assert report.records == records
        assert_same_text(report_to_json(report), _reference_json(report))
        assert_same_text(report_to_csv(report), _reference_csv(report))

    def _columns(self):
        base = _blowup(t_range=(3, 3), b_range=(1, 2), stable=True)
        return base, dict(base.columns)

    # (field, column, the message of the rule that refuses it)
    OFF_TEMPLATE = [
        ("rounds", _objects([True, 0]), "dtype object"),
        ("micros", np.array([0, 1.5]), "dtype float64"),
        ("edges", _objects([3, "3"]), "dtype object"),
        ("oracle_L", _objects([None, "2"]), "dtype object"),
        ("n", np.array([True, False]), "dtype bool"),
        ("min_semidegree", np.array([1.0, 2.0]), "dtype float64"),
        ("rounds", np.array([0, -2]), "negative int"),
        ("oracle_L", np.array([-2, 4]), "negative int"),
        ("micros", np.array([0, -1]), "negative int"),  # null where the field is not nullable
        ("graph_id", [0, 1], "not a one-dimensional array"),
        ("finder_outcome", np.array([1, -1]), "negative int"),
        ("violation", _objects([None, b"x"]), r"holds \['bytes'\]"),
        ("edges", np.zeros((2, 1), dtype=np.int64), "not a one-dimensional array"),
        ("rounds", [0, 1], "not a one-dimensional array"),
        ("n", np.array([5, 6], dtype=np.int32), "dtype int32"),
        ("finder_outcome", np.array(["found", ""]), "dtype <U5"),
        ("graph_id", _objects(["blowup-3x1", "blowup-3x2"]), "dtype object"),  # texts, not indexes
        ("finder_outcome", np.array([1, len(OUTCOME_TEXTS)]), "code past the outcomes"),
        ("finder_outcome", _objects(["found", "found"]), "dtype object"),  # texts, not codes
        ("graph_id", np.array([0, 1], dtype=np.int32), "dtype int32"),
        ("graph_id", np.array([0, -1]), "negative int"),
        ("graph_id", np.array([0, 2]), "index past the names"),  # the report names 2 ids
    ]

    @pytest.mark.parametrize(
        "name, bad, rule",
        OFF_TEMPLATE,
        ids=[f"{name}-bad{i}" for i, (name, _, _) in enumerate(OFF_TEMPLATE)],
    )
    def test_off_template_raises_in_both_renderers(self, tmp_path, name, bad, rule):
        base, columns = self._columns()
        bad_columns = dict(columns, **{name: bad})
        report = SweepReport(base.config, bad_columns, base.aggregates, base.graph_ids)
        for render in (report_to_json, report_to_csv):
            with pytest.raises(TypeError, match=rule):
                render(report)
        # the columns are checked before the file is opened
        path = tmp_path / "r.json"
        with pytest.raises(TypeError):
            emit_report(report, "json", str(path))
        assert not path.exists()

    @pytest.mark.parametrize(
        "graph_ids",
        [["blowup-3x1", "blowup-3x2"], ("blowup-3x1", 7), None, b"blowup-"],
        ids=["list", "tuple-with-int", "none", "bytes"],
    )
    def test_bad_graph_ids_raise_in_both_renderers(self, graph_ids):
        base, columns = self._columns()
        report = SweepReport(base.config, columns, base.aggregates, graph_ids)
        for render in (report_to_json, report_to_csv):
            with pytest.raises(TypeError, match="neither a prefix nor a tuple of names"):
                render(report)

    def test_every_outcome_renders_like_the_reference(self):
        base = _blowup(t_range=(3, 3), b_range=(1, 1), stable=True)
        columns = _repeated(base, len(OUTCOME_TEXTS))
        columns["finder_outcome"] = np.arange(len(OUTCOME_TEXTS))
        report = SweepReport(base.config, columns, base.aggregates, base.graph_ids)
        assert [rec["finder_outcome"] for rec in report.records] == list(OUTCOME_TEXTS)
        assert_same_text(report_to_json(report), _reference_json(report))
        assert_same_text(report_to_csv(report), _reference_csv(report))

    def test_only_the_renderers_check_the_layout(self, monkeypatch, tmp_path):
        report = _blowup(stable=True)
        records = report.records

        def refuse(columns, graph_ids):
            raise TypeError("layout checked")

        monkeypatch.setattr(harness, "_check_columns", refuse)
        assert report.records == records
        for fmt in ("json", "csv"):
            with pytest.raises(TypeError, match="layout checked"):
                harness.report_batches(report, fmt)
            path = tmp_path / f"r.{fmt}"
            with pytest.raises(TypeError, match="layout checked"):
                emit_report(report, fmt, str(path))
            assert not path.exists()

    def test_renderers_check_once_per_report(self, monkeypatch):
        report = _blowup(stable=True)
        expected = report_to_json(report), report_to_csv(report)
        check, calls = harness._check_columns, []
        monkeypatch.setattr(harness, "_check_columns", lambda *args: calls.append(check(*args)))
        monkeypatch.setattr(harness, "_BATCH_ROWS", 2)  # 9 records in 5 batches
        assert (report_to_json(report), report_to_csv(report)) == expected
        assert len(calls) == 2

    def test_bad_shapes_raise_in_both_renderers(self):
        base, columns = self._columns()
        missing = {name: column for name, column in columns.items() if name != "micros"}
        short, extra = dict(columns, rounds=np.array([0])), dict(columns, extra=np.array([1, 1]))
        for bad in (short, missing, extra):
            report = SweepReport(base.config, bad, base.aggregates, base.graph_ids)
            for render in (report_to_json, report_to_csv):
                with pytest.raises(TypeError):
                    render(report)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: run_theorem_sweep(SweepConfig(mode="exhaustive", n=4, stable=True)),
            lambda: run_theorem_sweep(
                SweepConfig(mode="random", n_range=(8, 10), p=0.9, samples=20, seed=2)
            ),
            lambda: run_corollary_sweep(
                SweepConfig(mode="corollary", k=4, n=14, samples=2, seed=5, stable=True)
            ),
            lambda: _blowup(t_range=(3, 5), b_range=(1, 5), stable=True),
        ],
        ids=["exhaustive", "random", "corollary", "blowup"],
    )
    def test_records_hold_native_values(self, make):
        records = make().records
        assert records
        json.dumps(records)  # a numpy scalar would raise TypeError here
        types = {type(value) for rec in records for value in rec.values()}
        assert types <= {int, str, type(None)}


# ids at the edges of the decimal digit blocks: one to three digits below
# 1,000, the first ids of a quotient, the last stable n=5 id and ids past 32 bits
BOUNDARY_IDS = [0, 9, 10, 99, 100, 999, 1000, 1001, 9999, 10000, 59048, 10**6, 2**62]
# a run of one quotient longer than a batch, so that runs hold more rows than bodies
RUN_IDS = list(range(2000, 2020))


def _prefix_report(ids: list[int], aggregate_only: bool, timed: bool) -> SweepReport:
    """Rows of the ids after the prefix "exh5-", in three bodies.

    Every row is flagged when aggregate_only, as an aggregate_only sweep
    keeps only flagged rows; timed rows differ in micros.
    """
    size = len(ids)
    body = np.arange(size) % 3
    columns = {name: np.zeros(size, dtype=np.int64) for name in harness.RECORD_FIELDS}
    columns["graph_id"] = np.array(ids, dtype=np.int64)
    columns["n"] = body + 4
    columns["oracle_L"] = body - 1  # null in one body
    if timed:
        columns["micros"] = 7 * np.arange(size)
    columns["violation"] = _objects(["skipped:TooLarge" if aggregate_only else None] * size)
    config = {"mode": "exhaustive", "aggregate_only": aggregate_only}
    return SweepReport(config, columns, AGGREGATES, "exh5-")


class TestDecimalIds:
    @pytest.mark.parametrize("batch_rows", [2, 7])
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_digit_blocks_render_like_the_reference(self, monkeypatch, order, batch_rows):
        ids = sorted(BOUNDARY_IDS + RUN_IDS)
        if order == "descending":
            ids.reverse()
        elif order == "shuffled":
            random.Random(5).shuffle(ids)
        monkeypatch.setattr(harness, "_BATCH_ROWS", batch_rows)
        for aggregate_only in (False, True):
            for timed in (False, True):
                report = _prefix_report(ids, aggregate_only, timed)
                assert [rec["graph_id"] for rec in report.records] == [f"exh5-{i}" for i in ids]
                case = (aggregate_only, timed)
                assert_same_text(report_to_json(report), _reference_json(report), case)
                assert_same_text(report_to_csv(report), _reference_csv(report), case)


class TestBodyCodes:
    @pytest.mark.parametrize(
        "spread",
        [
            {"edges": [0, 2**40, 0]},  # one column's values span more than the rows
            {"edges": [0, 1, 2], "rounds": [2, 0, 1]},  # each column within, the key past
        ],
        ids=["value-span", "key-span"],
    )
    def test_a_wide_span_renders_through_the_sort(self, monkeypatch, spread):
        dense, calls = harness._dense, []

        def counted(values):
            calls.append(values.size)
            return dense(values)

        monkeypatch.setattr(harness, "_dense", counted)
        base = _blowup(t_range=(3, 3), b_range=(1, 1), stable=True)
        columns = _repeated(base, 3)
        columns["graph_id"] = np.arange(3)
        columns.update({name: np.array(values) for name, values in spread.items()})
        report = SweepReport(base.config, columns, base.aggregates, "exh3-")
        assert_same_text(report_to_json(report), _reference_json(report))
        assert calls == [3]
        assert_same_text(report_to_csv(report), _reference_csv(report))
        assert calls == [3, 3]

    def test_n5_bodies_come_from_the_table(self, monkeypatch):
        # 41 bodies in 59,049 rows: the key's span is below the row count
        report = _exhaustive_n5()

        def no_sort(values):
            raise AssertionError("the n=5 bodies were coded by a sort")

        monkeypatch.setattr(harness, "_dense", no_sort)
        assert _sha256(report_to_json(report)) == N5_STABLE_SHA256
        assert _sha256(report_to_csv(report)) == N5_STABLE_CSV_SHA256


# texts that csv.writer quotes (a comma, a quote, a newline) or leaves bare
# (a lone carriage return, with lineterminator "\n"), and non-ASCII text
AWKWARD_TEXTS = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "caf\u00e9 \u2603", ""]


class TestCsvFields:
    @pytest.mark.parametrize("timed", [False, True])
    @pytest.mark.parametrize("prefix", [*AWKWARD_TEXTS, None], ids=repr)
    def test_awkward_texts_quote_like_the_reference(self, prefix, timed):
        # prefix None names the ids: each awkward text alone, then each with
        # an index; prefix ids step by 7 across the digit blocks, to 1,043
        size = 150
        columns = {name: np.zeros(size, dtype=np.int64) for name in harness.RECORD_FIELDS}
        columns["n"] = np.arange(size) % 4
        columns["finder_outcome"] = np.arange(size) % len(OUTCOME_TEXTS)
        columns["oracle_L"] = np.arange(size) % 3 - 1  # null on a third of the rows
        if timed:
            columns["micros"] = 3 * np.arange(size)
        texts = [None, *AWKWARD_TEXTS]
        columns["violation"] = _objects([texts[i % len(texts)] for i in range(size)])
        if prefix is None:
            indexed = (f"{AWKWARD_TEXTS[i % len(AWKWARD_TEXTS)]}{i}" for i in range(size))
            graph_ids = (*AWKWARD_TEXTS, *indexed)
            columns["graph_id"] = np.array(random.Random(3).sample(range(size), size))
        else:
            graph_ids = prefix
            columns["graph_id"] = 7 * np.arange(size)
        report = SweepReport({"mode": "random"}, columns, AGGREGATES, graph_ids)
        assert_same_text(report_to_csv(report), _reference_csv(report))
        assert_same_text(report_to_json(report), _reference_json(report))


# the stable n=5 JSON is 14.3 MB; written whole, emit_report peaked 28.6 MB above the report
EMIT_PEAK_BOUND = 6 * 2**20


class TestEmitReport:
    def test_batches_bound_memory_and_match_the_renderers(self, tmp_path):
        report = _exhaustive_n5()
        for fmt, render in (("json", report_to_json), ("csv", report_to_csv)):
            path = tmp_path / f"n5.{fmt}"
            tracemalloc.start()
            try:
                emit_report(report, fmt, str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < EMIT_PEAK_BOUND, (fmt, peak)
            assert path.read_bytes() == render(report).encode("ascii")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_write_failure_is_io_failure(self, tmp_path, fmt):
        report = _blowup(stable=True)
        with pytest.raises(errors.IoFailure):
            emit_report(report, fmt, str(tmp_path))  # a directory
        if os.path.exists("/dev/full"):  # opens, then every write fails
            with pytest.raises(errors.IoFailure):
                emit_report(report, fmt, "/dev/full")

    def test_unknown_format_is_bad_params(self, tmp_path):
        with pytest.raises(errors.BadParams):
            emit_report(_blowup(stable=True), "xml", str(tmp_path / "r.xml"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


N5_STABLE_SHA256 = "a8d657f640400ac7006c9679354194f962b25174697a08400aa7c01363a3c226"
N5_STABLE_CSV_SHA256 = "9da2cb1e2d455807c281e36a4d95c3ecc22013bd0a35f37caee7a21ddd934b78"


@cache
def _exhaustive_n5(workers: int = 1, chunk_size: int = 2000) -> SweepReport:
    cfg = SweepConfig(mode="exhaustive", n=5, stable=True, workers=workers, chunk_size=chunk_size)
    return run_theorem_sweep(cfg)


def _code(rec: dict) -> int:
    return int(rec["graph_id"].split("-")[1])


class TestColumnarExhaustive:
    def test_outcomes_equal_the_finders(self):
        # kmax = 1 rows are written without a finder call; kmax >= 2 rows run it
        report = run_theorem_sweep(SweepConfig(mode="exhaustive", n=4, stable=True))
        assert len(report.records) == 729
        by_kmax = {0: 0, 1: 0, 2: 0}
        for rec in report.records:
            g = brute_graph_from_code(4, _code(rec))
            kmax = max_k_for(rec["min_pseudo_semidegree"])
            by_kmax[min(kmax, 2)] += 1
            if kmax < 1:
                assert (rec["finder_outcome"], rec["rounds"]) == ("", 0)
                continue
            out = find_alternating_path(g, kmax)
            assert (rec["finder_outcome"], rec["rounds"]) == (out.outcome, out.rounds)
        assert by_kmax[1] > 600 and by_kmax[2] > 0 and by_kmax[0] == 1

    def test_skip_rule_covers_the_chunk(self):
        cfg = SweepConfig(mode="exhaustive", n=4, stable=True, max_n_subset_dp=3, chunk_size=100)
        report = run_theorem_sweep(cfg)
        assert report.aggregates["skipped"] == report.aggregates["instances"] == 729
        assert all(
            rec["violation"] == "skipped:TooLarge" and rec["oracle_L"] is None
            for rec in report.records
        )
        # sha256 of the same sweep at its default chunking; the per-graph sweep wrote its records
        report = run_theorem_sweep(dataclasses.replace(cfg, chunk_size=2000))
        digest = "f686b55e140cdbd4ae149c243197a8763c550594264573ad19870db8016c8379"
        assert _sha256(report_to_json(report)) == digest

    def test_lengths_come_from_the_order_below_table(self, monkeypatch):
        def no_dp_lengths(*args):
            raise AssertionError("an exhaustive chunk ran alt_path_lengths")

        monkeypatch.setattr(harness, "alt_path_lengths", no_dp_lengths)
        report = run_oddcase_sweep(SweepConfig(mode="exhaustive", n=4, stable=True))
        digest = "e2278e765fffc346c41cca383a11431ec0d41a4d10769dad3d40119f9d9da5ba"
        assert _sha256(report_to_json(report)) == digest

        def no_table(*args):
            raise AssertionError("a skipped order took L from the table")

        monkeypatch.setattr(harness, "lengths_from_minors", no_table)
        cfg = SweepConfig(mode="exhaustive", n=4, stable=True, max_n_subset_dp=3)
        assert run_theorem_sweep(cfg).aggregates["skipped"] == 729

    def test_aggregate_only_n5(self):
        cfg = SweepConfig(mode="exhaustive", n=5, stable=True, aggregate_only=True)
        report = run_theorem_sweep(cfg)
        assert report.records == []
        assert report.aggregates == _exhaustive_n5().aggregates

    def test_graph_ids_are_instance_indexes(self):
        report = _exhaustive_n5()
        index = report.columns["graph_id"]
        assert index.dtype == np.int64 and index.tolist() == list(range(59049))
        assert report.graph_ids == "exh5-"
        ids = [rec["graph_id"] for rec in report.records]
        assert ids == [f"exh5-{code}" for code in range(59049)]

    def test_exhaustive_oddcase_n4_pinned(self):
        # sha256 of the report; the per-graph sweep wrote its records
        report = run_oddcase_sweep(SweepConfig(mode="exhaustive", n=4, stable=True))
        digest = "e2278e765fffc346c41cca383a11431ec0d41a4d10769dad3d40119f9d9da5ba"
        assert _sha256(report_to_json(report)) == digest

    @pytest.mark.parametrize("workers,chunk_size", [(1, 2000), (2, 2000), (2, 7)])
    def test_n5_independent_of_workers_and_chunks(self, workers, chunk_size):
        report = _exhaustive_n5(workers, chunk_size)
        assert _sha256(report_to_json(report)) == N5_STABLE_SHA256

    def test_non_stable_micros_time_the_finder(self):
        report = run_theorem_sweep(SweepConfig(mode="exhaustive", n=4))
        assert_same_text(report_to_json(report), _reference_json(report))
        finder_micros = []
        for rec in report.records:
            if max_k_for(rec["min_pseudo_semidegree"]) >= 2:
                finder_micros.append(rec["micros"])
            else:
                assert rec["micros"] == 0
        assert finder_micros and any(finder_micros)

    def test_chunk_imports_no_masked_arrays(self):
        # numpy.ma costs every pool worker 15-25 ms on its first import
        code = (
            "import sys\n"
            "from altpaths import harness\n"
            "cfg = harness.SweepConfig(mode='exhaustive', n=5, stable=True)\n"
            "columns, agg = harness._exhaustive_chunk((cfg, 0, 2000, 'theorem'))\n"
            "assert agg['frontier'] == {'1': 2, '2': 4}, agg\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_stable_sweeps_read_no_clock(self, monkeypatch):
        def clock():
            raise AssertionError("a stable sweep read the clock")

        monkeypatch.setattr(harness, "_now_micros", clock)
        run_theorem_sweep(SweepConfig(mode="exhaustive", n=4, stable=True))
        run_theorem_sweep(SweepConfig(mode="random", n_range=(6, 8), samples=20, stable=True))
        _blowup(stable=True)


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


def _late_first_error(args):
    """A chunk function whose first chunk raises last, after every other chunk has raised."""
    if args[1] == 0:
        time.sleep(0.5)
        raise KeyError("first")
    raise KeyError("later")


def _unpicklable_error(args):
    raise _Unpicklable("from a worker")


def _n5_pooled(workers: int) -> tuple[SweepReport, list]:
    """A stable n=5 sweep on `workers` pool workers, and the pool's worker processes."""
    report = run_theorem_sweep(SweepConfig(mode="exhaustive", n=5, stable=True, workers=workers))
    pid, size, processes, pipes = harness._pool
    assert (pid, size) == (os.getpid(), workers) and len(processes) == len(pipes) == workers
    return report, list(processes)


def _run_script(code: str, **output) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter under -W error, with this package importable.

    Its output is captured, unless `output` names stdout and stderr.
    """
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    output = output or {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, text=True, timeout=120, **output
    )


def _running(pid: int) -> bool:
    """Whether the process exists and has not exited (an orphan may stay a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _assert_gone(pids) -> None:
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestWorkerPool:
    def test_sweeps_reuse_the_pool_until_the_count_changes(self):
        threads = threading.active_count()
        first, workers = _n5_pooled(2)
        assert threading.active_count() == threads
        second, again = _n5_pooled(2)
        assert [p.pid for p in again] == [p.pid for p in workers]
        for report in (first, second):
            assert _sha256(report_to_json(report)) == N5_STABLE_SHA256
        third, replaced = _n5_pooled(3)
        assert _sha256(report_to_json(third)) == N5_STABLE_SHA256
        assert not {p.pid for p in replaced} & {p.pid for p in workers}
        assert all(p.exitcode is not None for p in workers)

    def test_a_raising_chunk_drops_the_pool(self):
        _, workers = _n5_pooled(2)
        cfg = SweepConfig(mode="exhaustive", n=5, stable=True, workers=2)
        # the kind is looked up in the workers, so the KeyError comes back from them
        with pytest.raises(KeyError):
            harness._run_chunked(cfg, 3**10, harness._exhaustive_chunk, "nope", "exh5-")
        assert harness._pool is None
        assert all(p.exitcode is not None for p in workers)
        report, _ = _n5_pooled(2)
        assert _sha256(report_to_json(report)) == N5_STABLE_SHA256

    def test_errors_come_in_chunk_order_with_the_worker_traceback(self):
        cfg = SweepConfig(mode="exhaustive", n=5, stable=True, workers=2)
        with pytest.raises(KeyError, match="first") as raised:
            harness._run_chunked(cfg, 3**10, _late_first_error, "theorem", "exh5-")
        assert "in _late_first_error" in str(raised.value.__cause__)
        assert harness._pool is None

    def test_a_reply_that_does_not_pickle_raises_its_error(self):
        _, workers = _n5_pooled(2)
        cfg = SweepConfig(mode="exhaustive", n=5, stable=True, workers=2)
        with pytest.raises(RuntimeError, match="from a worker.* does not pickle"):
            harness._run_chunked(cfg, 3**10, _unpicklable_error, "theorem", "exh5-")
        assert all(p.exitcode is not None for p in workers)

    def test_a_task_is_a_few_hundred_bytes(self, monkeypatch):
        # two tasks per worker must fit in its pipe's buffer: a send that
        # waited there while the worker sent a large reply would never end
        tasks = []

        def stop(*args):
            tasks.extend(args[-1])
            raise InterruptedError

        monkeypatch.setattr(harness, "_fan_out", stop)
        cfg = SweepConfig(mode="exhaustive", n=6, chunk_size=7, workers=2, aggregate_only=True)
        with pytest.raises(InterruptedError):
            run_theorem_sweep(cfg)
        assert 8 <= len(tasks) <= 9
        assert max(len(pickle.dumps(task)) for task in tasks) < 1024

    def test_a_pool_of_another_pid_is_not_used(self):
        class Inherited:
            def __getattr__(self, name):
                raise AssertionError(f"a parent's pool was used: {name}")

        harness._drop_pool()
        harness._pool = (os.getppid(), 2, Inherited(), Inherited())
        report, _ = _n5_pooled(2)
        assert _sha256(report_to_json(report)) == N5_STABLE_SHA256

    def test_exit_leaves_no_worker(self):
        code = (
            "from altpaths import harness\n"
            "cfg = harness.SweepConfig(mode='exhaustive', n=5, stable=True, workers=2)\n"
            "assert harness.run_theorem_sweep(cfg).aggregates['instances'] == 3**10\n"
            "print(*(p.pid for p in harness._pool[2]))\n"
        )
        proc = _run_script(code)
        assert (proc.returncode, proc.stderr) == (0, "")
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        _assert_gone(pids)

    def test_a_killed_parent_leaves_no_worker(self, tmp_path):
        # each worker reads end of file on its pipe once the parent is gone
        code = (
            "import os, signal\n"
            "from altpaths import harness\n"
            "cfg = harness.SweepConfig(mode='exhaustive', n=5, stable=True, workers=2)\n"
            "assert harness.run_theorem_sweep(cfg).aggregates['instances'] == 3**10\n"
            "print(*(p.pid for p in harness._pool[2]), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        # to a file, not a pipe, which a worker left behind would hold open
        out = tmp_path / "output"
        with open(out, "w") as f:
            proc = _run_script(code, stdout=f, stderr=subprocess.STDOUT)
        text = out.read_text()
        assert proc.returncode == -signal.SIGKILL, text
        pids = [int(pid) for pid in text.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 30
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in pids if _running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert not left

    def test_a_dead_worker_raises_and_leaves_no_worker(self):
        # chunk 10 of 30 kills its worker, and the parent must not wait for its reply
        code = (
            "import hashlib, os, signal, time\n"
            "from altpaths import errors, harness\n"
            "def dying_chunk(args):\n"
            "    if args[1] == 20000:\n"
            "        os._exit(7)\n"
            "    return harness._exhaustive_chunk(args)\n"
            "cfg = harness.SweepConfig(mode='exhaustive', n=5, stable=True, workers=2)\n"
            "harness.run_theorem_sweep(cfg)\n"
            "pids = [p.pid for p in harness._pool[2]]\n"
            "t0 = time.monotonic()\n"
            "try:\n"
            "    harness._run_chunked(cfg, 3**10, dying_chunk, 'theorem', 'exh5-')\n"
            "except errors.IoFailure as exc:\n"
            "    print(f'{time.monotonic() - t0:.3f}', exc, sep='\\n')\n"
            "assert harness._pool is None\n"
            "for pid in pids:\n"
            "    try:\n"
            "        os.kill(pid, 0)\n"
            "    except ProcessLookupError:\n"
            "        continue\n"
            "    raise AssertionError(f'worker {pid} outlived the failed sweep')\n"
            "# a worker killed between sweeps is replaced before the next one\n"
            "harness.run_theorem_sweep(cfg)\n"
            "killed = harness._pool[2][0]\n"
            "os.kill(killed.pid, signal.SIGKILL)\n"
            "killed.join()\n"
            "report = harness.run_theorem_sweep(cfg)\n"
            "assert killed not in harness._pool[2]\n"
            "print(hashlib.sha256(b''.join(harness.report_batches(report, 'json'))).hexdigest())\n"
            "print(*(p.pid for p in harness._pool[2]))\n"
        )
        proc = _run_script(code)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        seconds, message, digest, pids = proc.stdout.splitlines()
        assert float(seconds) < 30
        assert message.startswith("sweep worker ") and message.endswith(" exited with code 7")
        assert digest == N5_STABLE_SHA256
        _assert_gone(int(pid) for pid in pids.split())


class TestSweepConfig:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(mode="exhaustive", n=-1),
            dict(mode="random", n=-3),
            dict(mode="random", n_range=(6, 5)),
            dict(mode="random", n_range=(-2, 5)),
            dict(mode="random", n_range=()),
            dict(mode="random", n=8, chunk_size=0),
            dict(mode="random", n=8, chunk_size=-4),
        ],
    )
    def test_bad_params(self, fields):
        with pytest.raises(errors.BadParams):
            SweepConfig(**fields)

    def test_subset_dp_bound_is_the_oracles(self):
        # also where no row would build a budget: every order-3 graph has kmax <= 1
        for bound in (0, 40):
            with pytest.raises(errors.BadParams) as sweep_exc:
                SweepConfig(mode="exhaustive", n=3, max_n_subset_dp=bound)
            with pytest.raises(errors.BadParams) as oracle_exc:
                OracleBudget(max_n_subset_dp=bound)
            assert str(sweep_exc.value) == str(oracle_exc.value)

    @pytest.mark.parametrize("mode,n", [("exhaustive", "-1"), ("random", "-3")])
    def test_cli_negative_order_is_usage_error(self, capsys, mode, n):
        assert main(["sweep", "--mode", mode, "--n", n]) == 2
        assert "n must be >= 0" in capsys.readouterr().err

    def test_oddcase_sweep_rejects_unknown_modes(self):
        for mode in ("blowup", "corollary", "nope"):
            with pytest.raises(errors.BadParams):
                run_oddcase_sweep(SweepConfig(mode=mode, n=6, samples=5))
        # the CLI's name for the random odd-case sweep
        report = run_oddcase_sweep(SweepConfig(mode="oddcase", n=6, samples=5, stable=True))
        assert report.aggregates["instances"] == 5


# sha256 of stable reports; the per-record sweep driver wrote their records
RANDOM_THEOREM_SHA256 = "d1906013c594707e50ca11889b5c6a7bb7192895ce05ce9e1f6e1812988e91cd"
RANDOM_THEOREM_CSV_SHA256 = "121c4da34c2c40b606acf76b56db2126825f38971cbdcec7524d82c476b6a22b"
RANDOM_ODDCASE_SHA256 = "37b4c1bdc1d13df95dcb5ade5877c76e3de2a0fc22e6199d304c5ab43b6adfc5"
COROLLARY_SHA256 = "e101fbb2f306eb587f90654bb1a3a13a7aa07de52b5e219d4806616fdc30db72"
BLOWUP_SHA256 = "e5bd42c4d53360267b2d9de920ad350f8f52a2cb056e60a5467d0ad6f4a4cd0f"
PAST_INT64_SHA256 = "66281fc59b73c90fe40c75a23d684c61dade1e915019cc595649927eb52f7653"


class TestOneDriver:
    @pytest.mark.parametrize(
        "workers, aggregate_only",
        [(1, False), (2, False), (1, True), (2, True)],
        ids=["1", "2", "1-aggregate_only", "2-aggregate_only"],
    )
    def test_random_theorem_pinned(self, workers, aggregate_only):
        # orders 11 and 12 are skipped; 25-row chunks mix skipped and finder rows
        cfg = SweepConfig(
            mode="random", n_range=(8, 12), p=0.9, samples=120, seed=7, chunk_size=25,
            max_n_subset_dp=10, stable=True, workers=workers,
        )
        report = run_theorem_sweep(cfg)
        chunk = report.records[:25]
        assert len({rec["n"] for rec in chunk}) > 2
        assert any(rec["violation"] == "skipped:TooLarge" for rec in chunk)
        assert any(rec["rounds"] or rec["finder_outcome"] == "found" for rec in chunk)
        assert _sha256(report_to_json(report)) == RANDOM_THEOREM_SHA256
        # skipped rows have null cells
        assert _sha256(report_to_csv(report)) == RANDOM_THEOREM_CSV_SHA256
        if aggregate_only:
            kept = run_theorem_sweep(dataclasses.replace(cfg, aggregate_only=True))
            violating = [rec for rec in report.records if rec["violation"] is not None]
            assert len(violating) < len(report.records)
            assert kept.records == violating
            assert kept.aggregates == report.aggregates

    def test_random_oddcase_pinned(self):
        cfg = SweepConfig(mode="random", n_range=(6, 10), samples=100, seed=5, stable=True)
        assert _sha256(report_to_json(run_oddcase_sweep(cfg))) == RANDOM_ODDCASE_SHA256

    def test_corollary_pinned(self):
        cfg = SweepConfig(mode="corollary", k=4, n_range=(14, 15), samples=12, seed=2, stable=True)
        assert _sha256(report_to_json(run_corollary_sweep(cfg))) == COROLLARY_SHA256

    def test_blowup_pinned(self):
        # 5x5 has 25 vertices, past the subset-DP bound; 3x4 and 4x3 share an order
        report = _blowup(t_range=(3, 5), b_range=(1, 5), stable=True)
        skipped = [rec["graph_id"] for rec in report.records if rec["violation"]]
        assert skipped == ["blowup-5x5"]
        assert _sha256(report_to_json(report)) == BLOWUP_SHA256

    def test_orders_past_int64_pinned(self):
        cfg = SweepConfig(mode="random", n_range=(62, 66), samples=6, seed=1, stable=True)
        report = run_theorem_sweep(cfg)
        assert report.aggregates["skipped"] == 6
        for idx, rec in enumerate(report.records):
            summary = harness._random_graph(cfg, idx).degree_summary
            assert (rec["min_semidegree"], rec["min_pseudo_semidegree"], rec["edges"]) == (
                summary.min_semidegree, summary.min_pseudo_semidegree, summary.edge_count
            )
        assert {rec["n"] for rec in report.records} > {64, 65}
        assert _sha256(report_to_json(report)) == PAST_INT64_SHA256

    def test_lengths_group_by_order(self):
        # 9-row chunks over orders 0..12, so every chunk runs several order batches
        cfg = SweepConfig(
            mode="random", n_range=(0, 12), samples=40, seed=70, chunk_size=9, stable=True
        )
        report = run_oddcase_sweep(cfg)
        assert len({rec["n"] for rec in report.records[:9]}) > 3
        for idx, rec in enumerate(report.records):
            assert rec["oracle_L"] == longest_alt_path_exact(harness._random_graph(cfg, idx))[0]
        # past the subset-DP bound an order is skipped whole, where the oracle refuses
        small = run_oddcase_sweep(dataclasses.replace(cfg, max_n_subset_dp=8))
        for idx, (rec, full) in enumerate(zip(small.records, report.records)):
            if rec["n"] <= 8:
                assert rec == full
                continue
            assert (rec["oracle_L"], rec["violation"]) == (None, "skipped:TooLarge")
            with pytest.raises(errors.TooLarge):
                longest_alt_path_exact(harness._random_graph(cfg, idx), OracleBudget(8))

    def test_micros_time_the_finder_in_every_sweep(self):
        reports = [
            run_oddcase_sweep(SweepConfig(mode="random", n_range=(6, 9), samples=20, seed=1)),
            run_corollary_sweep(SweepConfig(mode="corollary", k=4, n=14, samples=2)),
            _blowup(),
        ]
        assert all(rec["micros"] == 0 for report in reports for rec in report.records)
        cfg = SweepConfig(mode="random", n_range=(5, 9), p=0.8, samples=40, seed=2)
        report = run_theorem_sweep(cfg)
        finder_micros = []
        for rec in report.records:
            if max_k_for(rec["min_pseudo_semidegree"]) >= 2:
                finder_micros.append(rec["micros"])
            else:
                assert rec["micros"] == 0
        assert finder_micros and any(finder_micros)


class TestCli:
    def test_check(self, tmp_path, capsys):
        f = tmp_path / "g.el"
        f.write_text(to_edgelist(blowup_directed_cycle(3, 2)))
        assert main(["check", str(f)]) == 0
        out = capsys.readouterr().out
        assert "n=6" in out and "oracle_L=4" in out
        assert "min_pseudo_semidegree=2" in out

    def test_check_non_ascii_is_format_error(self, tmp_path, capsys):
        f = tmp_path / "g.el"
        f.write_bytes("n=3\n0 1 # café\n1 2\n".encode("utf-8"))
        assert main(["check", str(f)]) == 2
        err = capsys.readouterr().err
        assert str(f) in err and "non-ASCII" in err

    @pytest.mark.parametrize(
        "text, names",
        [
            ("n=3\n0 1\n1 2\n0 1\n", "edge (0,1) repeated"),
            ("n=1000000000\n0 1\n", "line 1: order 1000000000 is above the limit"),
        ],
    )
    def test_check_bad_graph_is_usage_error(self, tmp_path, capsys, text, names):
        f = tmp_path / "g.el"
        f.write_text(text)
        assert main(["check", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {names}") and not captured.out

    def test_find(self, tmp_path, capsys):
        f = tmp_path / "g.el"
        f.write_text(to_edgelist(blowup_directed_cycle(3, 2)))
        assert main(["find", str(f), "--k", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "found"
        assert len(doc["path"]["verts"]) == 3

    def test_find_missing_file(self, capsys):
        assert main(["find", "/no/such/file", "--k", "2"]) == 3

    @pytest.mark.parametrize("command", [["check"], ["find", "--k", "2"]])
    def test_negative_order_header_is_format_error(self, tmp_path, capsys, command):
        f = tmp_path / "g.el"
        f.write_text("n=-3\n")
        assert main([command[0], str(f), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert "negative order" in captured.err and not captured.out

    def test_find_negative_budget_rounds_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "g.el"
        f.write_text(to_edgelist(blowup_directed_cycle(3, 2)))
        assert main(["find", str(f), "--k", "3", "--budget-rounds", "-5"]) == 2
        assert "rounds must be >= 0" in capsys.readouterr().err

    def test_sweep_exhaustive(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(
            [
                "sweep",
                "--mode",
                "exhaustive",
                "--n",
                "3",
                "--stable",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["aggregates"]["instances"] == 27

    def test_sweep_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--mode", "nope"])
        assert exc.value.code == 2

    def test_sweep_exhaustive_range_is_usage_error(self, capsys):
        # an exhaustive sweep covers one order; a range must not be cut to its first
        assert main(["sweep", "--mode", "exhaustive", "--n-range", "3..4"]) == 2
        assert "one order" in capsys.readouterr().err

    def test_sweep_oddcase_exhaustive(self, capsys):
        # every labeled order-4 graph, not 1,000 random draws
        assert main(["sweep", "--mode", "oddcase-exhaustive", "--n", "4"]) == 0
        agg = json.loads(capsys.readouterr().out)
        assert agg["instances"] == 729 and agg["violations"] == 0

    def test_sweep_vacuous_is_usage_error(self, capsys):
        rc = main(["sweep", "--mode", "corollary", "--k", "4", "--n", "8"])
        assert rc == 2

    def test_sweep_stable_byte_identical(self, tmp_path):
        args = [
            "sweep",
            "--mode",
            "random",
            "--n-range",
            "7..9",
            "--samples",
            "40",
            "--seed",
            "4",
            "--stable",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--workers", "1", "--out", str(a)]) == 0
        assert main(args + ["--workers", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_blowup_honours_aggregate_only_and_workers(self, tmp_path, capsys):
        # 5x5 is past the subset-DP bound, so it is the one record kept
        args = ["sweep", "--mode", "blowup", "--b-range", "1..5", "--workers", "2"]
        full, kept, timed = tmp_path / "full.json", tmp_path / "kept.json", tmp_path / "t.json"
        assert main(args + ["--stable", "--out", str(full)]) == 0
        assert _sha256(full.read_text()) == BLOWUP_SHA256
        assert main(args + ["--stable", "--aggregate-only", "--out", str(kept)]) == 0
        doc = json.loads(kept.read_text())
        assert doc["config"]["aggregate_only"] is True
        assert [rec["graph_id"] for rec in doc["records"]] == ["blowup-5x5"]
        assert doc["aggregates"] == json.loads(full.read_text())["aggregates"]
        assert main(args + ["--aggregate-only", "--out", str(timed)]) == 0
        assert json.loads(timed.read_text())["config"]["workers"] == 2

    def test_construct_blowup(self, capsys):
        assert main(["construct", "blowup", "--t", "3", "--b", "1"]) == 0
        assert capsys.readouterr().out == "n=3\n0 1\n1 2\n2 0\n"

    def test_construct_out_file(self, tmp_path):
        out = tmp_path / "g.el"
        assert main(["construct", "blowup", "--t", "3", "--b", "2", "--out", str(out)]) == 0
        assert out.read_text().startswith("n=6\n")
