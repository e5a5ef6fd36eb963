"""Experiment sweeps, deterministic parallel execution, and report emission.

All sweeps share the same report shape: per-instance records plus
aggregates (counterexample count, extremal frontier).  Instance RNG
streams are derived from (seed, instance index), so results are byte
identical under any worker count.

Every sweep kind runs through one driver, _check_order.  A chunk source
(exhaustive codes, random draws, tournaments, blow-ups) turns its
instances into (B, n) mask batches, one per order; the driver takes the
degrees from degree_columns and L from alt_path_lengths, and runs the
kind's check column by column.  Exhaustive chunks, which know their
graphs by code, hand the driver L from oracle.lengths_from_minors instead,
read off a table of every graph of the order below.  Only the theorem
check builds graphs, for the finder where kmax >= 2.  Reports have one
layout (SweepReport) from the driver to the file: the checks write the
record-field columns themselves, a chunk returns them, the parent writes
them into report columns allocated once, with each row's instance index
as its graph_id, and report_batches checks the layout once and renders
the columns, in JSON or CSV through one row loop, in batches of records,
which emit_report writes as they come.

Sweeps on more than one worker run on one set of forked worker processes
per process, forked at the first such sweep and reused by the next ones
while the worker count stays the same; it is terminated and reaped when
the count changes, when a worker has exited, when a sweep raises and at
interpreter exit.  The parent's main thread drives the fan-out: it sends
each worker runs of consecutive chunks, at most two at a time and each
named by its first and last instance, over the worker's own duplex pipe,
waits on the pipes with multiprocessing.connection.wait and takes the one
reply per run in chunk order, raising a run's exception in that order.
No thread is started.  A worker that exits mid-sweep raises IoFailure.
Workers see this module as it was when they forked, so a monkeypatch
made after the first pooled sweep does not reach them.
"""
from __future__ import annotations

import atexit
import csv
import dataclasses
import io
import itertools
import json
import multiprocessing
import os
import random
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .altpath import validate
from .errors import BadParams, IoFailure, TooLarge, VacuousParams
from .graph_core import (  # noqa: F401 - the benchmark's trace hooks look up the min_* names here
    OrientedGraph,
    blowup_directed_cycle,
    decode_codes,
    degree_columns,
    min_pseudo_semidegree,
    min_semidegree,
    num_oriented,
    random_oriented,
)
from .oracle import OracleBudget, alt_path_lengths, lengths_from_minors
from .rotation_engine import OUTCOME_TEXTS, EngineBudget, find_alternating_path, max_k_for

CSV_COLUMNS = [
    "graph_id",
    "n",
    "edges",
    "min_pseudo_semidegree",
    "min_semidegree",
    "oracle_L",
    "finder_outcome",
    "rounds",
    "micros",
]
# every field of a report record, in the order a record dict lists them
RECORD_FIELDS = (*CSV_COLUMNS, "violation")
# the fields that may be null: None in a str field, -1 in an int field
_NULLABLE = {"min_pseudo_semidegree", "min_semidegree", "oracle_L", "violation"}
# finder_outcome is an int field of codes into OUTCOME_TEXTS
_OUTCOME_CODES = {text: code for code, text in enumerate(OUTCOME_TEXTS)}
_OUTCOMES = np.array(OUTCOME_TEXTS, dtype=object)


@dataclass
class SweepConfig:
    # instance source: exhaustive (every labeled graph of order n), random or
    # oddcase (seeded draws over the orders), corollary (seeded tournaments),
    # blowup (the t_range x b_range grid)
    mode: str
    n: int | None = None
    n_range: tuple[int, int] | None = None
    k: int | None = None
    samples: int = 1000
    p: float = 0.5
    seed: int = 0
    workers: int = 1
    t_range: tuple[int, int] = (3, 5)
    b_range: tuple[int, int] = (1, 3)
    # an exhaustive order n first fills, once per process, a table of all
    # 3^C(n-1,2) graphs of order n - 1 with the subset DP
    max_n_exhaustive: int = 6
    max_n_subset_dp: int = 22
    stable: bool = False
    aggregate_only: bool = False
    chunk_size: int = 2000

    def __post_init__(self):
        if self.samples <= 0 or self.workers <= 0 or self.chunk_size <= 0:
            raise BadParams("samples, workers and chunk_size must be positive")
        if self.n is not None and self.n < 0:
            raise BadParams(f"n must be >= 0, got {self.n}")
        if self.n_range is not None and (
            len(self.n_range) != 2 or not 0 <= self.n_range[0] <= self.n_range[1]
        ):
            raise BadParams(f"n_range must be (lo, hi) with 0 <= lo <= hi, got {self.n_range}")
        OracleBudget(max_n_subset_dp=self.max_n_subset_dp)  # raises BadParams out of its range

    def ns(self) -> list[int]:
        if self.n_range is not None:
            return list(range(self.n_range[0], self.n_range[1] + 1))
        if self.n is not None:
            return [self.n]
        raise BadParams(f"mode {self.mode!r} needs n or n-range")


@dataclass
class SweepReport:
    """A sweep's config, aggregates and records, in the layout _run_chunked makes.

    columns maps each RECORD_FIELDS name to a one-dimensional array with one
    value per record.  graph_id holds each record's instance index, and
    graph_ids gives the ids' one shape: a str is the prefix of the decimal
    index, a tuple of str the id of each index.  violation is an object
    array of str with None for null.  Every other field is an int64 array;
    in the nullable ones (the two degree fields and oracle_L) -1 stands for
    null, and finder_outcome holds codes into rotation_engine.OUTCOME_TEXTS,
    which records and the renderers write as their text.  records reads the
    columns as they are; report_batches checks this layout once, before
    its first batch.

    Both renderers, JSON and CSV, write rows through one loop that groups
    them by body, every field but graph_id (and micros when rows differ in
    it): it codes the bodies from a table of the keys present (a sort where
    their span exceeds the row count), builds and encodes each distinct
    body's texts once, in the format's field order, and joins each batch of
    rows as bytes, each row its body's texts around its id (and micros).  A
    prefix is escaped or quoted once, into each body's text; an id i >= 1000
    adds the text of i // 1000, appended to the body texts once per run of
    rows with equal quotients, and every id takes the text of its remainder
    i % 1000 from one fixed table.  Names are escaped or quoted and encoded
    once each.
    """

    config: dict
    columns: dict[str, np.ndarray]
    aggregates: dict
    graph_ids: str | tuple[str, ...]

    @property
    def records(self) -> list[dict]:
        """The records as dicts of int, str and None, built on each call.

        Mutating the returned list or its dicts does not change the report.
        """
        rows = zip(*(
            _id_texts(self.graph_ids, self.columns[name]) if name == "graph_id"
            else _native(name, self.columns[name])
            for name in RECORD_FIELDS
        ))
        return [dict(zip(RECORD_FIELDS, row)) for row in rows]


def _check_columns(columns: dict, graph_ids) -> None:
    """Raise TypeError unless the columns and graph_ids have SweepReport's layout.

    graph_ids neither a str nor a tuple of str, missing or extra fields,
    unequal lengths, a column that is not a one-dimensional array of its
    field's dtype, a negative int (below -1 where the field is nullable), a
    finder_outcome code past OUTCOME_TEXTS and a graph_id past the names all
    raise.  The renderers check violation's values next, in _violation_codes.
    """
    if not isinstance(graph_ids, str) and not (
        isinstance(graph_ids, tuple) and all(isinstance(text, str) for text in graph_ids)
    ):
        raise TypeError(f"graph ids {graph_ids!r:.60} are neither a prefix nor a tuple of names")
    if columns.keys() != set(RECORD_FIELDS):
        raise TypeError(f"report columns {sorted(columns)} are not the record fields")
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise TypeError(f"report columns have unequal lengths {lengths}")
    for name in RECORD_FIELDS:
        column = columns[name]
        if not isinstance(column, np.ndarray) or column.ndim != 1:
            raise TypeError(f"report column {name!r} is not a one-dimensional array")
        if column.dtype != (object if name == "violation" else np.int64):
            raise TypeError(f"report column {name!r} has dtype {column.dtype}")
        if name != "violation" and column.size:
            if column.min() < (-1 if name in _NULLABLE else 0):
                raise TypeError(f"report column {name!r} holds a negative int")
            if name == "finder_outcome" and column.max() >= len(_OUTCOMES):
                raise TypeError(f"report column {name!r} holds a code past the outcomes")
            if name == "graph_id" and isinstance(graph_ids, tuple):
                if column.max() >= len(graph_ids):
                    raise TypeError(f"report column {name!r} holds an index past the names")


def _violation_codes(column: np.ndarray) -> tuple[np.ndarray, int]:
    """A violation column of dtype object coded as _codes codes an int column.

    None is code 0, on most rows; only the other rows are looked up, and
    TypeError is raised if one of them is not a str.
    """
    rows = np.flatnonzero(np.not_equal(column, None))
    values = column[rows].tolist()
    off = set(map(type, values)) - {str}
    if off:
        raise TypeError(f"report column 'violation' holds {sorted(t.__name__ for t in off)}")
    index = {value: code for code, value in enumerate(dict.fromkeys(values), 1)}
    codes = np.zeros(column.size, dtype=np.int64)
    codes[rows] = np.fromiter(map(index.__getitem__, values), np.int64, len(values))
    return codes, len(index) + 1


def _native(name: str, column: np.ndarray) -> list:
    """A report column's values as int, str and None."""
    if name == "finder_outcome":
        return _OUTCOMES[column].tolist()
    if column.dtype == object or name not in _NULLABLE:
        return column.tolist()
    values = column.astype(object)
    values[column < 0] = None
    return values.tolist()


def _id_texts(graph_ids: str | tuple[str, ...], index: np.ndarray) -> list[str]:
    """The ids of the instance indexes: the prefix and the decimal index, or the index's name."""
    if isinstance(graph_ids, str):
        return [graph_ids + text for text in map(str, index.tolist())]
    return [graph_ids[i] for i in index.tolist()]


def _mix_seed(seed: int, idx: int) -> int:
    return (seed << 24) ^ (idx * 0x9E3779B1) ^ idx


def _now_micros() -> int:
    return time.perf_counter_ns() // 1000


def _new_agg() -> dict:
    return {
        "instances": 0,
        "counterexamples": 0,
        "finder_failures": 0,
        "violations": 0,
        "skipped": 0,
        "frontier": {},
    }


def _lower_frontier(frontier: dict, pseudo: str, length: int) -> None:
    """Keep the least L seen at each pseudo-semidegree."""
    frontier[pseudo] = min(length, frontier.get(pseudo, length))


def _merge_agg(into: dict, other: dict) -> None:
    for key in ("instances", "counterexamples", "finder_failures", "violations", "skipped"):
        into[key] += other[key]
    for pseudo, length in other["frontier"].items():
        _lower_frontier(into["frontier"], pseudo, length)


# --- the sweep driver: one order at a time, column by column ---------------


def _flag(cols: dict, agg: dict, key: str, bad: np.ndarray, text: str, *values) -> None:
    """Rows where bad holds get text.format(their values) as violation; agg[key] counts them."""
    rows = np.flatnonzero(bad)
    cols["violation"][rows] = [
        text.format(*row) for row in zip(*(column[rows].tolist() for column in values))
    ]
    agg[key] += rows.size


def _theorem_check(cfg: SweepConfig, cols: dict, agg: dict, out_masks, in_masks, b) -> None:
    """L >= kmax on every row, and a valid order-kmax path from the finder where kmax >= 2."""
    pseudo, length = cols["min_pseudo_semidegree"], cols["oracle_L"]
    kmax = np.where(pseudo > 0, max_k_for(pseudo), 0)
    _flag(cols, agg, "counterexamples", length < kmax, "counterexample:L={}<k={}", length, kmax)
    # find_alternating_path at k = 1 returns a one-vertex path after 0 rounds
    cols["finder_outcome"][kmax == 1] = _OUTCOME_CODES["found"]
    budget = EngineBudget(oracle=OracleBudget(max_n_subset_dp=cfg.max_n_subset_dp))
    timed = not cfg.stable
    n = out_masks.shape[1]
    rows = np.flatnonzero(kmax >= 2)
    outs, ins = out_masks[rows].tolist(), in_masks[rows].tolist()
    for i, row_out, row_in, k in zip(rows.tolist(), outs, ins, kmax[rows].tolist()):
        g = OrientedGraph(n, tuple(row_out), tuple(row_in))
        t0 = _now_micros() if timed else 0
        out = find_alternating_path(g, k, budget)
        ok = out.outcome == "found" and out.path.order == k and validate(g, out.path)
        if timed:
            cols["micros"][i] = _now_micros() - t0
        cols["finder_outcome"][i], cols["rounds"][i] = _OUTCOME_CODES[out.outcome], out.rounds
        if not ok:
            cols["violation"][i] = (cols["violation"][i] or "") + f"|finder:{out.outcome}"
            agg["finder_failures"] += 1


def _oddcase_check(cfg: SweepConfig, cols: dict, agg: dict, out_masks, in_masks, b) -> None:
    """An odd L is at least twice the pseudo-semidegree minus one."""
    pseudo, length = cols["min_pseudo_semidegree"], cols["oracle_L"]
    bad = (pseudo >= 0) & (length % 2 == 1) & (length < 2 * pseudo - 1)
    _flag(cols, agg, "violations", bad, "oddcase:L={}<2*{}-1", length, pseudo)


def _corollary_check(cfg: SweepConfig, cols: dict, agg: dict, out_masks, in_masks, b) -> None:
    """L >= k; every row is a tournament that clears the edge bound (run_corollary_sweep)."""
    length = cols["oracle_L"]
    _flag(cols, agg, "violations", length < cfg.k, f"corollary:L={{}}<k={cfg.k}", length)


def _blowup_check(cfg: SweepConfig, cols: dict, agg: dict, out_masks, in_masks, b) -> None:
    """Class size b gives minimum semidegree b and L = 2b."""
    semi, length = cols["min_semidegree"], cols["oracle_L"]
    bad = (semi != b) | (length != 2 * b)
    _flag(cols, agg, "violations", bad, "blowup:semideg={},L={},b={}", semi, length, b)


# instance kind -> its check, given the record columns with L, the masks and the class sizes
_CHECKS = {
    "theorem": _theorem_check,
    "oddcase": _oddcase_check,
    "corollary": _corollary_check,
    "blowup": _blowup_check,
}


def _check_order(
    cfg: SweepConfig,
    kind: str,
    out_masks: np.ndarray,
    in_masks: np.ndarray,
    agg: dict,
    b=None,
    length: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Degrees, L and the kind's check for a (B, n) mask batch of one order.

    Returns one (B,) int64 column per record field after graph_id (violation
    an object column), keyed by its name.  L is `length` when the source
    gives it and alt_path_lengths otherwise.  An order above
    max_n_subset_dp is skipped whole, without L.  A row's non-stable
    `micros` is its finder time, 0 where no finder runs.
    """
    size, n = out_masks.shape
    semi, pseudo, edges = degree_columns(out_masks, in_masks)
    cols = {
        "n": np.full(size, n, dtype=np.int64),
        "edges": edges,
        "min_pseudo_semidegree": pseudo,
        "min_semidegree": semi,
        "oracle_L": np.full(size, -1, dtype=np.int64),
        "finder_outcome": np.zeros(size, dtype=np.int64),
        "rounds": np.zeros(size, dtype=np.int64),
        "micros": np.zeros(size, dtype=np.int64),
        "violation": np.full(size, None, dtype=object),
    }
    agg["instances"] += size
    if n > cfg.max_n_subset_dp:
        cols["violation"][:] = "skipped:TooLarge"
        agg["skipped"] += size
        return cols
    if length is None:
        length = alt_path_lengths(out_masks, in_masks, n)
    cols["oracle_L"] = length
    # least L at each pseudo-semidegree; L <= n marks one that occurs.  (np.unique
    # would import numpy.ma in every pool worker.)
    least = np.full(n + 1, n + 1)
    defined = pseudo >= 0
    np.minimum.at(least, pseudo[defined], length[defined])
    for p in np.flatnonzero(least <= n).tolist():
        _lower_frontier(agg["frontier"], str(p), int(least[p]))
    _CHECKS[kind](cfg, cols, agg, out_masks, in_masks, b)
    return cols


def _empty_fields(size: int) -> dict[str, np.ndarray]:
    """One uninitialised column per record field after graph_id; violation holds None."""
    return {
        name: np.empty(size, dtype=object if name == "violation" else np.int64)
        for name in RECORD_FIELDS[1:]
    }


# a chunk's kept rows: one int64 array per record field after graph_id but
# violation, and the instance indexes and texts of the rows whose violation
# is not null.  A full chunk keeps its rows lo..hi-1; an aggregate_only
# chunk keeps exactly the rows it flags, so neither sends a row index.
_Chunk = tuple[dict[str, np.ndarray], np.ndarray, list[str]]


def _chunk_result(
    cfg: SweepConfig, lo: int, parts: list[tuple[np.ndarray, dict[str, np.ndarray]]]
) -> _Chunk:
    """Instances lo.. in index order, as a _Chunk.

    parts pairs each order's columns with the chunk rows they hold; one
    part holds every row in order, and its columns are taken as they are.
    Every row is kept, or only the violating ones when aggregate_only.
    Only the violations that are not null are passed on, most rows having
    none.
    """
    if len(parts) == 1:
        fields = dict(parts[0][1])
    else:
        fields = _empty_fields(sum(rows.size for rows, _ in parts))
        for rows, cols in parts:
            for name, column in cols.items():
                fields[name][rows] = column
    violation = fields.pop("violation")
    flagged = np.flatnonzero(np.not_equal(violation, None))
    texts = violation[flagged].tolist()
    if cfg.aggregate_only:
        fields = {name: column[flagged] for name, column in fields.items()}
    return fields, lo + flagged, texts


def _task(worker, cfg: SweepConfig, kind: str, lo: int, hi: int) -> tuple[_Chunk, dict]:
    """Instances lo..hi-1, in a worker, as chunks joined into one _Chunk and aggregate.

    The chunks are cfg.chunk_size instances each, as _run_chunked cuts
    them.  Their int arrays are sent in the smallest dtype holding them.  At
    n=5 that sends a sixth of the int64 bytes to the parent, which then kept
    less memory and collected faster; the parent's columns stay int64.
    """
    agg = _new_agg()
    parts = []
    for start in range(lo, hi, cfg.chunk_size):
        part, chunk_agg = worker((cfg, start, min(start + cfg.chunk_size, hi), kind))
        parts.append(part)
        _merge_agg(agg, chunk_agg)
    fields = {
        name: _narrow(np.concatenate([fields[name] for fields, _, _ in parts]))
        for name in parts[0][0]
    }
    flagged = _narrow(np.concatenate([flagged for _, flagged, _ in parts]))
    return (fields, flagged, [text for _, _, texts in parts for text in texts]), agg


def _narrow(column: np.ndarray) -> np.ndarray:
    if not column.size:
        return column
    low, high = np.min_scalar_type(column.min()), np.min_scalar_type(column.max())
    return column.astype(np.result_type(low, high), copy=False)


# --- chunk sources: each turns instances lo..hi-1 into mask batches ---------


def _exhaustive_chunk(args) -> tuple[_Chunk, dict]:
    """Codes lo..hi-1 of order cfg.n, decoded into one batch, L from the order-below table."""
    cfg, lo, hi, kind = args
    agg = _new_agg()
    out_masks, in_masks, minors, stars = decode_codes(cfg.n, np.arange(lo, hi), minors=True)
    # an order above the DP budget is skipped whole, without L
    length = lengths_from_minors(cfg.n, minors, stars) if cfg.n <= cfg.max_n_subset_dp else None
    cols = _check_order(cfg, kind, out_masks, in_masks, agg, length=length)
    return _chunk_result(cfg, lo, [(np.arange(hi - lo), cols)]), agg


def _graphs_chunk(
    cfg: SweepConfig, kind: str, lo: int, graphs: list[OrientedGraph], b=None
) -> tuple[_Chunk, dict]:
    """Instances lo.. from their graphs, one batch per order."""
    agg = _new_agg()
    orders = np.array([g.n for g in graphs])
    parts = []
    for n in sorted({g.n for g in graphs}):
        rows = np.flatnonzero(orders == n)
        # masks with bit 63 set do not fit int64; their orders are always skipped
        dtype = np.int64 if n < 64 else object
        group = [graphs[i] for i in rows.tolist()]
        out_masks = np.array([g.out_masks for g in group], dtype=dtype).reshape(rows.size, n)
        in_masks = np.array([g.in_masks for g in group], dtype=dtype).reshape(rows.size, n)
        part_b = None if b is None else b[rows]
        parts.append((rows, _check_order(cfg, kind, out_masks, in_masks, agg, part_b)))
    return _chunk_result(cfg, lo, parts), agg


def _random_graph(cfg: SweepConfig, idx: int) -> OrientedGraph:
    inst_seed = _mix_seed(cfg.seed, idx)
    rng = random.Random(inst_seed)
    ns = cfg.ns()
    n = ns[rng.randrange(len(ns))]
    return random_oriented(n, cfg.p, inst_seed + 1)


def _random_chunk(args) -> tuple[_Chunk, dict]:
    cfg, lo, hi, kind = args
    return _graphs_chunk(cfg, kind, lo, [_random_graph(cfg, idx) for idx in range(lo, hi)])


def _corollary_chunk(args) -> tuple[_Chunk, dict]:
    cfg, lo, hi, kind = args
    ns = cfg.ns()
    graphs = [
        # tournaments are the densest case
        random_oriented(ns[idx % len(ns)], 1.0, _mix_seed(cfg.seed, idx))
        for idx in range(lo, hi)
    ]
    return _graphs_chunk(cfg, kind, lo, graphs)


def _blowup_params(cfg: SweepConfig) -> list[tuple[int, int]]:
    (t_lo, t_hi), (b_lo, b_hi) = cfg.t_range, cfg.b_range
    return [(t, b) for t in range(t_lo, t_hi + 1) for b in range(b_lo, b_hi + 1)]


def _blowup_chunk(args) -> tuple[_Chunk, dict]:
    cfg, lo, hi, kind = args
    params = _blowup_params(cfg)[lo:hi]
    graphs = [blowup_directed_cycle(t, b) for t, b in params]
    return _graphs_chunk(cfg, kind, lo, graphs, np.array([b for _, b in params]))


def _config_dict(cfg: SweepConfig) -> dict:
    doc = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    if cfg.stable:
        # execution-only knobs; normalized so stable reports are byte
        # identical under any worker count and chunking
        doc["workers"] = 1
        doc["chunk_size"] = SweepConfig.chunk_size
    return doc


# this process's workers as (pid, workers, processes, pipes), each pipe the
# parent's end of one worker's duplex pipe; see _worker_pool
_pool: tuple[int, int, list, list] | None = None


class _WorkerTraceback(Exception):
    """The traceback text of an exception a sweep worker raised, chained as its cause."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _serve(pipe, inherited: list) -> None:
    """A worker's loop: receive a task, the arguments of _task, send its one reply, repeat.

    The reply is (True, what _task returns, None) or (False, the exception
    it raised, its traceback text); a reply that does not pickle is sent as
    a RuntimeError naming it.  The worker first closes the parent's pipe
    ends it inherited, so that its pipe reads end of file here once the
    parent's end closes, and returns then.
    """
    import traceback  # only workers format tracebacks

    for end in inherited:
        end.close()
    while True:
        try:
            task = pipe.recv()
        except EOFError:
            return
        try:
            reply = True, _task(*task), None
        except Exception as exc:  # raised again in the parent
            reply = False, exc, traceback.format_exc()
        try:
            pipe.send(reply)  # pickled whole before a byte is written
        except OSError:  # the parent is gone
            return
        except Exception as exc:
            error = RuntimeError(f"sweep worker reply {reply[1]!r:.200} does not pickle: {exc!r}")
            pipe.send((False, error, traceback.format_exc()))


def _worker_pool(workers: int) -> tuple[list, list]:
    """This process's `workers` processes and their pipes, forked at first use and reused after.

    A set of another size, or one with a worker that has exited, is dropped
    before a new one forks.  The set is keyed by pid, so a forked child
    never uses its parent's.  Workers are forked, not spawned, so that they
    start with the modules and the order-below tables already loaded.
    """
    global _pool
    pid = os.getpid()
    if _pool is None or _pool[:2] != (pid, workers) or not all(p.is_alive() for p in _pool[2]):
        _drop_pool()
        context = multiprocessing.get_context("fork")
        _pool = (pid, workers, [], [])  # filled in place, so a failed fork drops those before it
        for _ in range(workers):
            pipe, child = context.Pipe()
            process = context.Process(target=_serve, args=(child, [*_pool[3], pipe]), daemon=True)
            process.start()
            child.close()
            _pool[2].append(process)
            _pool[3].append(pipe)
    return _pool[2], _pool[3]


@atexit.register
def _drop_pool() -> None:
    """Terminate and reap this process's workers; forget a set inherited from a parent."""
    global _pool
    held, _pool = _pool, None
    if held is not None and held[0] == os.getpid():
        for process in held[2]:
            process.terminate()
        for process, pipe in zip(held[2], held[3]):
            process.join()
            pipe.close()


def _pipe_io(call, process, *args):
    """call(*args) on a worker's pipe; end of file or an error there raises IoFailure."""
    try:
        return call(*args)
    except (EOFError, OSError) as exc:
        process.join(5)  # its pipe closed as it exited: this reaps it and reads its exit code
        raise IoFailure(f"sweep worker {process.pid} exited with code {process.exitcode}") from exc


def _fan_out(workers: int, tasks: list[tuple]) -> Iterator[tuple[_Chunk, dict]]:
    """Each task's reply from this process's workers (_worker_pool), in task order.

    Each worker holds at most two tasks, so it starts its next one while the
    parent reads its reply.  A task is a few hundred bytes, so both fit in
    the pipe and a send never waits on a worker that is itself sending.  The
    parent waits on the pipes alone: no thread runs and nothing polls.  A
    task's exception is raised when its turn comes, chained to the worker's
    traceback, and a worker that exits raises IoFailure at once.
    """
    # imported here, as Pool was: a process that never fans out skips its 0.6 MB
    from multiprocessing.connection import wait

    processes, pipes = _worker_pool(workers)
    process_of = dict(zip(pipes, processes))
    held = {pipe: [] for pipe in pipes}  # each pipe's tasks in flight, oldest first
    replies = {}
    sent = 0

    def send(pipe) -> None:
        nonlocal sent
        if sent < len(tasks):
            _pipe_io(pipe.send, process_of[pipe], tasks[sent])
            held[pipe].append(sent)
            sent += 1

    for pipe in pipes * 2:
        send(pipe)
    for i in range(len(tasks)):
        while i not in replies:
            for pipe in wait([pipe for pipe in pipes if held[pipe]]):
                replies[held[pipe].pop(0)] = _pipe_io(pipe.recv, process_of[pipe])
                send(pipe)
        ok, reply, text = replies.pop(i)
        if not ok:
            raise reply from _WorkerTraceback(text)
        yield reply


def _run_chunked(
    cfg: SweepConfig, total: int, worker, kind: str, graph_ids: str | tuple[str, ...]
) -> SweepReport:
    """Run instances 0..total-1 in chunks on cfg.workers processes, in chunk order.

    Sweeps of more than one chunk on more than one worker share this
    process's workers (_worker_pool): they are forked at the first such
    sweep and reused while the worker count stays the same, and they are
    dropped when the count changes, when one has exited, when an exception
    leaves the collect loop and at exit.  Such a sweep sends each worker
    runs of consecutive chunks, two at a time, over its own pipe, and each
    run comes back as one reply (_fan_out).  The workers see module state as
    of their fork: a change made after that (a monkeypatch, say) reaches
    only sweeps whose chunks run here, on one worker or in one chunk.

    The parent writes each chunk's arrays into its slice of report columns
    allocated once for all total rows, and its violation texts into a
    violation column of None; an aggregate_only sweep, whose row count is
    not known ahead, concatenates its kept rows instead.  The graph_id
    column holds each kept row's instance index, and graph_ids, the
    report's one id shape, is passed through: no id text is built here.
    """
    agg = _new_agg()
    columns = _empty_fields(0 if cfg.aggregate_only else total)
    violation = columns.pop("violation")
    kept = [(columns, np.arange(0), [])]  # an aggregate_only sweep's chunks, after no rows

    def collect(spans, results) -> None:
        for (lo, hi), ((fields, flagged, texts), part) in zip(spans, results):
            if cfg.aggregate_only:
                kept.append((fields, flagged, texts))
            else:
                for name, column in fields.items():
                    columns[name][lo:hi] = column
                violation[flagged] = texts
            _merge_agg(agg, part)

    if cfg.workers > 1 and total > cfg.chunk_size:
        # runs of consecutive chunks, a quarter of an even share of them per
        # worker, so the parent collects columns while the workers run; a
        # task names its run, not its chunks, so it stays a few hundred bytes
        run = cfg.chunk_size * max(1, -(-total // cfg.chunk_size) // (4 * cfg.workers))
        spans = [(lo, min(lo + run, total)) for lo in range(0, total, run)]
        try:
            collect(spans, _fan_out(cfg.workers, [(worker, cfg, kind, *span) for span in spans]))
        except BaseException:  # the workers may still be running this sweep's tasks
            _drop_pool()
            raise
    else:
        spans = [(lo, min(lo + cfg.chunk_size, total)) for lo in range(0, total, cfg.chunk_size)]
        collect(spans, (worker((cfg, lo, hi, kind)) for lo, hi in spans))
    if cfg.aggregate_only:
        index = np.concatenate([flagged for _, flagged, _ in kept], dtype=np.int64)
        columns = {
            name: np.concatenate([fields[name] for fields, _, _ in kept], dtype=column.dtype)
            for name, column in columns.items()
        }
        violation = np.array([text for _, _, texts in kept for text in texts], dtype=object)
    else:
        index = np.arange(total, dtype=np.int64)
    columns = {"graph_id": index, **columns, "violation": violation}
    return SweepReport(_config_dict(cfg), columns, agg, graph_ids)


def _run_exhaustive(cfg: SweepConfig, kind: str) -> SweepReport:
    """Every labeled oriented graph of the one order the config names."""
    ns = cfg.ns()
    if len(ns) != 1:
        raise BadParams(f"an exhaustive sweep takes one order, got n = {ns[0]}..{ns[-1]}")
    n = ns[0]
    if n > cfg.max_n_exhaustive:
        raise TooLarge(f"exhaustive n={n} above bound {cfg.max_n_exhaustive}")
    cfg = dataclasses.replace(cfg, n=n)
    return _run_chunked(cfg, num_oriented(n), _exhaustive_chunk, kind, f"exh{n}-")


def run_theorem_sweep(cfg: SweepConfig) -> SweepReport:
    """Oracle plus constructive finder over an exhaustive or random family."""
    if cfg.mode == "exhaustive":
        return _run_exhaustive(cfg, "theorem")
    if cfg.mode == "random":
        return _run_chunked(cfg, cfg.samples, _random_chunk, "theorem", "rnd-")
    raise BadParams(f"theorem sweep does not support mode {cfg.mode!r}")


def run_oddcase_sweep(cfg: SweepConfig) -> SweepReport:
    """Check odd-length maxima against twice the pseudo-semidegree minus one."""
    if cfg.mode == "exhaustive":
        return _run_exhaustive(cfg, "oddcase")
    # "oddcase" is the CLI's name for the random odd-case sweep
    if cfg.mode in ("random", "oddcase"):
        return _run_chunked(cfg, cfg.samples, _random_chunk, "oddcase", "rnd-")
    raise BadParams(f"odd-case sweep does not support mode {cfg.mode!r}")


def run_blowup_suite(cfg: SweepConfig) -> SweepReport:
    """Tightness construction: class size b forces semidegree b and maximum order 2b."""
    if cfg.mode != "blowup":
        raise BadParams(f"blow-up suite does not support mode {cfg.mode!r}")
    names = tuple(f"blowup-{t}x{b}" for t, b in _blowup_params(cfg))
    return _run_chunked(cfg, len(names), _blowup_chunk, "blowup", names)


def run_corollary_sweep(cfg: SweepConfig) -> SweepReport:
    """Dense-graph corollary: edge count above (5k+4)n/4 forces an order-k path.

    Every instance is a tournament, so checking the bound for n(n-1)/2 edges
    here covers each graph.
    """
    if cfg.k is None or cfg.k < 1:
        raise BadParams("corollary sweep needs k >= 1")
    for n in cfg.ns():
        if n * (n - 1) // 2 <= (5 * cfg.k + 4) * n / 4:
            raise VacuousParams(
                f"n={n}: max edge count {n * (n - 1) // 2} cannot exceed "
                f"{(5 * cfg.k + 4) * n / 4:g}"
            )
        if n > cfg.max_n_subset_dp:
            raise TooLarge(f"n={n} beyond oracle budget")
    return _run_chunked(cfg, cfg.samples, _corollary_chunk, "corollary", "crl-")


# --- report emission -------------------------------------------------------


# rows per batch of rendered text
_BATCH_ROWS = 4096

# one fixed table of the 1,000 remainders r = id % 1000 as ASCII text:
# unpadded at r, three digits at 1000 + r.  A prefix id i >= 1000 is the text
# of i // 1000 and then the three digits of its remainder; an id below 1000
# is its unpadded text.
_REMAINDERS = np.array(
    [b"%d" % r for r in range(1000)] + [b"%03d" % r for r in range(1000)], dtype=object
)


def _dense(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, first): rows of equal values share a code c, and first[c] is the first such row."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    codes = np.empty(values.size, dtype=np.int64)
    codes[order] = np.cumsum(starts) - 1
    return codes, order[starts]


def _codes(column: np.ndarray) -> tuple[np.ndarray, int]:
    """(codes, count): a code in 0..count-1 per row, equal exactly where the int values are."""
    low = int(column.min())
    count = int(column.max()) - low + 1
    if count > column.size:
        codes, first = _dense(column)
        return codes, first.size
    return column - low, count


def _bodies(columns: dict, keys: list[str], violation: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(codes, rows): rows of equal values in the keys' columns share a code c, and rows[c] is one.

    violation is the violation column's (codes, count).  The rows' keys
    combine into one int per row below a span.  A span no larger than the
    row count is coded from a table of the keys present; a larger one falls
    back to _dense, which sorts.
    """
    key, span = np.zeros(len(columns[keys[0]]), dtype=np.int64), 1
    for name in keys:
        codes, count = violation if name == "violation" else _codes(columns[name])
        if span * count > 2**62:
            key, first = _dense(key)
            span = first.size
        key *= count
        key += codes
        span *= count
    if span > key.size:
        return _dense(key)
    present = np.zeros(span, dtype=bool)
    present[key] = True
    index = np.cumsum(present) - 1
    codes = index[key]
    rows = np.empty(int(index[-1]) + 1, dtype=np.int64)
    rows[codes] = np.arange(key.size)  # any row of a body serves: they share its values
    return codes, rows


def _prefix_heads(heads: np.ndarray, codes: np.ndarray, ids: np.ndarray) -> list[bytes]:
    """Each row's head and then the text of its id // 1000, or nothing for an id below 1000.

    The quotient's text is built once per run of rows with equal quotients
    and appended to the heads of the run's bodies: to each body's head when
    the run has more rows than there are bodies, else to each row's.
    """
    quotients = ids // 1000
    cuts = (np.flatnonzero(quotients[1:] != quotients[:-1]) + 1).tolist()
    row_heads = []
    for lo, hi in zip([0, *cuts], [*cuts, ids.size]):
        quotient, rows = int(quotients[lo]), codes[lo:hi]
        if not quotient:
            row_heads += heads[rows].tolist()
            continue
        text = b"%d" % quotient
        if hi - lo > heads.size:
            run_heads = np.array([head + text for head in heads.tolist()], dtype=object)
            row_heads += run_heads[rows].tolist()
        else:
            row_heads += [head + text for head in heads[rows].tolist()]
    return row_heads


def _csv_field(value: int | str | None) -> str:
    """The value's text as csv.writer writes it in a row of more than one field."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, None))
    return buf.getvalue()[:-2]  # a row of one empty field would read '""'


# per format: its fields in row order, a field's key text and its value's
# text, the text between fields, a row's start and end, and the last row's
# end, which closes the document
_FORMATS = {
    "json": (
        sorted(RECORD_FIELDS), lambda key: f"      {json.dumps(key)}: ", json.dumps,
        ",\n", "    {\n", "\n    },\n", "\n    }\n  ]\n}\n",
    ),
    "csv": (CSV_COLUMNS, lambda key: "", _csv_field, ",", "", "\n", "\n"),
}


def _rows(fmt: str, columns: dict[str, np.ndarray], graph_ids, violation: tuple):
    """The records in the format, as bytes in batches of _BATCH_ROWS rows.

    A row's slots are its graph_id and, when rows differ in it, its micros;
    its body is every other field.  The text between slots is built per
    body, once per distinct value, and encoded once; each row joins its
    body's texts around its slots' texts.
    """
    fields, key_text, value_text, sep, start, end, last_end = _FORMATS[fmt]
    ids, micros = columns["graph_id"], columns["micros"]
    if isinstance(graph_ids, str):
        # neither format escapes or quotes a digit, and both escape a prefix
        # one character at a time or quote the whole field: an id's text is
        # the prefix's text around the decimal index
        id_open, id_close = value_text(graph_ids + "0").rsplit("0", 1)
        names = None
    else:
        id_open = id_close = ""
        names = np.array([value_text(name).encode() for name in graph_ids], dtype=object)
    # each slot's text before and after its row's own
    slots = {"graph_id": (id_open, id_close)}
    timed = micros.min() != micros.max()
    if timed:
        slots["micros"] = ("", "")
    codes, rows = _bodies(columns, [name for name in fields if name not in slots], violation)
    # per stretch of fields between slots, each body's text: += appends to every body's
    stretches = [np.full(rows.size, start, dtype=object)]
    for i, name in enumerate(fields):
        stretches[-1] += (sep if i else "") + key_text(name)
        if name in slots:
            stretches[-1] += slots[name][0]
            stretches.append(np.full(rows.size, slots[name][1], dtype=object))
            continue
        values = _native(name, columns[name][rows])
        table = {value: value_text(value) for value in set(values)}
        stretches[-1] += np.array([table[value] for value in values], dtype=object)
    stretches[-1] += end
    heads, *tails = (
        np.array([text.encode() for text in texts], dtype=object) for texts in stretches
    )
    width = 2 * len(slots) + 1
    for lo in range(0, ids.size, _BATCH_ROWS):
        hi = min(lo + _BATCH_ROWS, ids.size)
        batch, body = ids[lo:hi], codes[lo:hi]
        pieces = [b""] * (width * (hi - lo))
        if names is None:
            pieces[0::width] = _prefix_heads(heads, body, batch)
            remainders = batch % 1000
            remainders[batch >= 1000] += 1000
            pieces[1::width] = _REMAINDERS[remainders].tolist()
        else:
            pieces[0::width] = heads[body].tolist()
            pieces[1::width] = names[batch].tolist()
        if timed:
            pieces[3::width] = map(b"%d".__mod__, micros[lo:hi].tolist())
        for slot, texts in enumerate(tails, 1):
            pieces[2 * slot::width] = texts[body].tolist()
        text = b"".join(pieces)
        yield text if hi < ids.size else text[:-len(end)] + last_end.encode()


def report_batches(report: SweepReport, fmt: str) -> Iterator[bytes]:
    """The report's bytes in the format, "json" or "csv", in batches of _BATCH_ROWS records.

    The JSON is exactly what json.dumps(doc, sort_keys=True, indent=2) writes,
    plus a newline, and so ASCII.  The CSV is what csv.writer writes, encoded
    as UTF-8, which is ASCII for every report a sweep makes.  Both render
    their records through _rows.  The format and the columns are checked
    before the first batch is asked for.
    """
    if fmt not in _FORMATS:
        raise BadParams(f"unknown report format {fmt!r}")
    columns, graph_ids = report.columns, report.graph_ids
    _check_columns(columns, graph_ids)
    violation = _violation_codes(columns["violation"])
    if fmt == "csv":
        opening = empty = ",".join(CSV_COLUMNS) + "\n"
    else:
        # the head ends with the closing "\n}"; "records" sorts after both keys
        doc = {"config": report.config, "aggregates": report.aggregates}
        head = json.dumps(doc, sort_keys=True, indent=2)[:-2]
        opening, empty = head + ',\n  "records": [\n', head + ',\n  "records": []\n}\n'
    if not columns["graph_id"].size:
        return iter([empty.encode()])
    return itertools.chain([opening.encode()], _rows(fmt, columns, graph_ids, violation))


def emit_report(report: SweepReport, fmt: str, path: str) -> None:
    """Write the report_batches bytes as they come, so no whole document is held."""
    batches = report_batches(report, fmt)
    try:
        with open(path, "wb") as f:
            for data in batches:
                f.write(data)
    except OSError as exc:
        raise IoFailure(f"cannot write report to {path}: {exc}") from exc


def sweep_failed(report: SweepReport) -> bool:
    agg = report.aggregates
    return bool(
        agg.get("counterexamples", 0)
        or agg.get("finder_failures", 0)
        or agg.get("violations", 0)
    )
