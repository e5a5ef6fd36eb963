"""Experiment sweeps, deterministic parallel execution, and report emission.

All sweeps share the same report shape: per-instance records plus
aggregates (counterexample count, extremal frontier).  Instance RNG
streams are derived from (seed, instance index), so results are byte
identical under any worker count.

Every sweep kind runs through one driver, _check_order.  A chunk source
(exhaustive codes, random draws, tournaments, blow-ups) turns its
instances into (B, n) mask batches, one per order; the driver takes the
degrees from degree_columns and L from alt_path_lengths, and runs the
kind's check column by column.  Only the theorem check builds graphs,
for the finder where kmax >= 2.  Reports stay columnar: the parent extends
one list per record field from each chunk, and the renderers read those
lists.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

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
from .oracle import OracleBudget, alt_path_lengths
from .rotation_engine import EngineBudget, find_alternating_path

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
    """A sweep's config, aggregates and records.

    columns maps each RECORD_FIELDS name to one list with a value per
    record; None stands for null.
    """

    config: dict
    columns: dict[str, list]
    aggregates: dict = field(default_factory=dict)

    @property
    def records(self) -> list[dict]:
        """The records as dicts, built on each call.

        Mutating the returned list or its dicts does not change the report.
        """
        columns = _checked_columns(self)
        rows = zip(*(columns[name] for name in RECORD_FIELDS))
        return [dict(zip(RECORD_FIELDS, row)) for row in rows]


def _checked_columns(report: SweepReport) -> dict[str, list]:
    """report.columns, once it holds one column per RECORD_FIELDS name, all of one length.

    Anything else raises TypeError.
    """
    columns = report.columns
    if columns.keys() != set(RECORD_FIELDS):
        raise TypeError(f"report columns {sorted(columns)} are not the record fields")
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise TypeError(f"report columns have unequal lengths {lengths}")
    return columns


def max_k_for(pseudo: int | None) -> int:
    """Largest k with pseudo-semidegree > 5k/8; 0 when undefined."""
    if pseudo is None:
        return 0
    return (8 * pseudo - 1) // 5


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


@dataclass
class _Columns:
    """Graphs of one order as (B,) columns; -1 stands for None in the int columns."""

    n: int
    out_masks: np.ndarray
    in_masks: np.ndarray
    b: np.ndarray | None  # blow-up class size of each row
    semi: np.ndarray
    pseudo: np.ndarray
    edges: np.ndarray
    length: np.ndarray
    outcome: np.ndarray  # finder_outcome strings, dtype object
    rounds: np.ndarray
    micros: np.ndarray
    violation: dict[int, str]


def _flag(cols: _Columns, agg: dict, key: str, bad: np.ndarray, text: str, *values) -> None:
    """Rows where bad holds get text.format(their values) as violation; agg[key] counts them."""
    rows = np.flatnonzero(bad)
    for i, *row in zip(rows.tolist(), *(column[rows].tolist() for column in values)):
        cols.violation[i] = text.format(*row)
    agg[key] += rows.size


def _theorem_check(cfg: SweepConfig, cols: _Columns, agg: dict) -> None:
    """L >= kmax on every row, and a valid order-kmax path from the finder where kmax >= 2."""
    kmax = np.where(cols.pseudo > 0, (8 * cols.pseudo - 1) // 5, 0)  # max_k_for by column
    text = "counterexample:L={}<k={}"
    _flag(cols, agg, "counterexamples", cols.length < kmax, text, cols.length, kmax)
    # find_alternating_path at k = 1 returns a one-vertex path after 0 rounds
    cols.outcome[kmax == 1] = "found"
    budget = EngineBudget(oracle=OracleBudget(max_n_subset_dp=cfg.max_n_subset_dp))
    timed = not cfg.stable
    rows = np.flatnonzero(kmax >= 2)
    outs, ins = cols.out_masks[rows].tolist(), cols.in_masks[rows].tolist()
    for i, out_masks, in_masks, k in zip(rows.tolist(), outs, ins, kmax[rows].tolist()):
        g = OrientedGraph(cols.n, tuple(out_masks), tuple(in_masks))
        t0 = _now_micros() if timed else 0
        out = find_alternating_path(g, k, budget)
        ok = out.outcome == "found" and out.path.order == k and validate(g, out.path)
        if timed:
            cols.micros[i] = _now_micros() - t0
        cols.outcome[i], cols.rounds[i] = out.outcome, out.rounds
        if not ok:
            cols.violation[i] = cols.violation.get(i, "") + f"|finder:{out.outcome}"
            agg["finder_failures"] += 1


def _oddcase_check(cfg: SweepConfig, cols: _Columns, agg: dict) -> None:
    """An odd L is at least twice the pseudo-semidegree minus one."""
    pseudo, length = cols.pseudo, cols.length
    bad = (pseudo >= 0) & (length % 2 == 1) & (length < 2 * pseudo - 1)
    _flag(cols, agg, "violations", bad, "oddcase:L={}<2*{}-1", length, pseudo)


def _corollary_check(cfg: SweepConfig, cols: _Columns, agg: dict) -> None:
    """L >= k; every row is a tournament that clears the edge bound (run_corollary_sweep)."""
    text = f"corollary:L={{}}<k={cfg.k}"
    _flag(cols, agg, "violations", cols.length < cfg.k, text, cols.length)


def _blowup_check(cfg: SweepConfig, cols: _Columns, agg: dict) -> None:
    """Class size b gives minimum semidegree b and L = 2b."""
    semi, length, b = cols.semi, cols.length, cols.b
    bad = (semi != b) | (length != 2 * b)
    _flag(cols, agg, "violations", bad, "blowup:semideg={},L={},b={}", semi, length, b)


# instance kind -> its check, given every column and L
_CHECKS = {
    "theorem": _theorem_check,
    "oddcase": _oddcase_check,
    "corollary": _corollary_check,
    "blowup": _blowup_check,
}


def _check_order(
    cfg: SweepConfig, kind: str, out_masks: np.ndarray, in_masks: np.ndarray, agg: dict, b=None
) -> _Columns:
    """Degrees, L and the kind's check for a (B, n) mask batch of one order.

    An order above max_n_subset_dp is skipped whole, without L.  A row's
    non-stable `micros` is its finder time, 0 where no finder runs.
    """
    size, n = out_masks.shape
    semi, pseudo, edges = degree_columns(out_masks, in_masks)
    cols = _Columns(
        n, out_masks, in_masks, b, semi, pseudo, edges,
        length=np.full(size, -1),
        outcome=np.full(size, "", dtype=object),
        rounds=np.zeros(size, dtype=np.int64),
        micros=np.zeros(size, dtype=np.int64),
        violation={},
    )
    agg["instances"] += size
    if n > cfg.max_n_subset_dp:
        cols.violation = dict.fromkeys(range(size), "skipped:TooLarge")
        agg["skipped"] += size
        return cols
    cols.length = alt_path_lengths(out_masks, in_masks, n)
    # least L at each pseudo-semidegree; L <= n marks one that occurs.  (np.unique
    # would import numpy.ma in every pool worker.)
    least = np.full(n + 1, n + 1)
    defined = pseudo >= 0
    np.minimum.at(least, pseudo[defined], cols.length[defined])
    for p in np.flatnonzero(least <= n).tolist():
        _lower_frontier(agg["frontier"], str(p), int(least[p]))
    _CHECKS[kind](cfg, cols, agg)
    return cols


def _nullable(column: np.ndarray) -> list[int | None]:
    return [None if x < 0 else x for x in column.tolist()]


def _chunk_result(
    cfg: SweepConfig, lo: int, parts: list[tuple[np.ndarray, _Columns]]
) -> tuple[list, ...]:
    """Lists for instances lo.., in index order: indexes, then each record field after graph_id.

    parts pairs each order's columns with the chunk rows they hold.  Every
    row is kept, or only the violating ones when aggregate_only.
    """
    rows = np.concatenate([r for r, _ in parts])
    violation: dict[int, str] = {}
    for r, cols in parts:
        violation.update(zip(r[list(cols.violation)].tolist(), cols.violation.values()))
    if cfg.aggregate_only:
        keep = np.array(sorted(violation), dtype=np.int64)
    else:
        keep = np.arange(rows.size)
    take = np.argsort(rows)[keep]

    def column(name: str) -> np.ndarray:
        return np.concatenate([getattr(cols, name) for _, cols in parts])[take]

    orders = np.concatenate([np.full(r.size, cols.n) for r, cols in parts])
    return (
        (lo + keep).tolist(),
        orders[take].tolist(),
        column("edges").tolist(),
        _nullable(column("pseudo")),
        _nullable(column("semi")),
        _nullable(column("length")),
        column("outcome").tolist(),
        column("rounds").tolist(),
        column("micros").tolist(),
        [violation.get(i) for i in keep.tolist()],
    )


# --- chunk sources: each turns instances lo..hi-1 into mask batches ---------


def _exhaustive_chunk(args) -> tuple[tuple[list, ...], dict]:
    """Codes lo..hi-1 of order cfg.n, decoded into one batch."""
    cfg, lo, hi, kind = args
    agg = _new_agg()
    cols = _check_order(cfg, kind, *decode_codes(cfg.n, np.arange(lo, hi)), agg)
    return _chunk_result(cfg, lo, [(np.arange(hi - lo), cols)]), agg


def _graphs_chunk(
    cfg: SweepConfig, kind: str, lo: int, graphs: list[OrientedGraph], b=None
) -> tuple[tuple[list, ...], dict]:
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


def _random_chunk(args) -> tuple[tuple[list, ...], dict]:
    cfg, lo, hi, kind = args
    return _graphs_chunk(cfg, kind, lo, [_random_graph(cfg, idx) for idx in range(lo, hi)])


def _corollary_chunk(args) -> tuple[tuple[list, ...], dict]:
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


def _blowup_chunk(args) -> tuple[tuple[list, ...], dict]:
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


def _run_chunked(cfg: SweepConfig, total: int, worker, kind: str, graph_id) -> SweepReport:
    """Run instances 0..total-1 in chunks on cfg.workers processes, in chunk order.

    The parent extends the report's columns from each chunk's; graph_id names an index.
    """
    chunks = [
        (cfg, lo, min(lo + cfg.chunk_size, total), kind) for lo in range(0, total, cfg.chunk_size)
    ]
    agg = _new_agg()
    columns: dict[str, list] = {name: [] for name in RECORD_FIELDS}
    after_id = [columns[name] for name in RECORD_FIELDS[1:]]

    def collect(results) -> None:
        for (index, *values), part in results:
            columns["graph_id"].extend(map(graph_id, index))
            for column, chunk_values in zip(after_id, values):
                column.extend(chunk_values)
            _merge_agg(agg, part)

    if cfg.workers <= 1 or len(chunks) <= 1:
        collect(map(worker, chunks))
    else:
        with multiprocessing.Pool(cfg.workers) as pool:
            # in chunk order, so the parent collects columns while the workers run
            collect(pool.imap(worker, chunks))
    return SweepReport(_config_dict(cfg), columns, agg)


def _run_exhaustive(cfg: SweepConfig, kind: str) -> SweepReport:
    """Every labeled oriented graph of the one order the config names."""
    ns = cfg.ns()
    if len(ns) != 1:
        raise BadParams(f"an exhaustive sweep takes one order, got n = {ns[0]}..{ns[-1]}")
    n = ns[0]
    if n > cfg.max_n_exhaustive:
        raise TooLarge(f"exhaustive n={n} above bound {cfg.max_n_exhaustive}")
    cfg = dataclasses.replace(cfg, n=n)
    return _run_chunked(cfg, num_oriented(n), _exhaustive_chunk, kind, f"exh{n}-{{}}".format)


def run_theorem_sweep(cfg: SweepConfig) -> SweepReport:
    """Oracle plus constructive finder over an exhaustive or random family."""
    if cfg.mode == "exhaustive":
        return _run_exhaustive(cfg, "theorem")
    if cfg.mode == "random":
        return _run_chunked(cfg, cfg.samples, _random_chunk, "theorem", "rnd-{}".format)
    raise BadParams(f"theorem sweep does not support mode {cfg.mode!r}")


def run_oddcase_sweep(cfg: SweepConfig) -> SweepReport:
    """Check odd-length maxima against twice the pseudo-semidegree minus one."""
    if cfg.mode == "exhaustive":
        return _run_exhaustive(cfg, "oddcase")
    # "oddcase" is the CLI's name for the random odd-case sweep
    if cfg.mode in ("random", "oddcase"):
        return _run_chunked(cfg, cfg.samples, _random_chunk, "oddcase", "rnd-{}".format)
    raise BadParams(f"odd-case sweep does not support mode {cfg.mode!r}")


def run_blowup_suite(
    t_range: tuple[int, int] = (3, 5),
    b_range: tuple[int, int] = (1, 3),
    stable: bool = False,
    workers: int = 1,
    aggregate_only: bool = False,
) -> SweepReport:
    """Tightness construction: class size b forces semidegree b and maximum order 2b."""
    cfg = SweepConfig(
        mode="blowup", t_range=t_range, b_range=b_range, stable=stable, workers=workers,
        aggregate_only=aggregate_only,
    )
    names = [f"blowup-{t}x{b}" for t, b in _blowup_params(cfg)]
    return _run_chunked(cfg, len(names), _blowup_chunk, "blowup", names.__getitem__)


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
    return _run_chunked(cfg, cfg.samples, _corollary_chunk, "corollary", "crl-{}".format)


# --- report emission -------------------------------------------------------


# the JSON text of a record value, by its exact type
_JSON_SCALARS = {
    type(None): lambda _: "null",
    int: int.__repr__,
    str: encode_basestring_ascii,
}


def _json_lines(key: str, column: list, tail: str) -> list[str]:
    """Each row's `"key": value` line as json.dumps(indent=2) nests it in the report, plus tail.

    A value's text is built once per distinct value.  A value of a type
    outside _JSON_SCALARS raises TypeError.
    """
    head = f"      {encode_basestring_ascii(key)}: "
    if key == "graph_id":  # a distinct string on every row
        return [f"{head}{text}{tail}" for text in map(encode_basestring_ascii, column)]
    types = set(map(type, column))
    if not types <= _JSON_SCALARS.keys():
        raise TypeError(f"report column {key!r} holds {sorted(t.__name__ for t in types)}")
    table = {value: head + _JSON_SCALARS[type(value)](value) + tail for value in set(column)}
    return list(map(table.__getitem__, column))


def report_to_json(report: SweepReport) -> str:
    """The report exactly as json.dumps(doc, sort_keys=True, indent=2) writes it, plus a newline."""
    columns = _checked_columns(report)
    head = json.dumps(
        {"config": report.config, "aggregates": report.aggregates}, sort_keys=True, indent=2
    )
    # head ends with the closing "\n}"; "records" sorts after both keys
    if not columns["graph_id"]:
        return head[:-2] + ',\n  "records": []\n}\n'
    *keys, last = sorted(RECORD_FIELDS)
    lines = [_json_lines(key, columns[key], ",\n") for key in keys]
    # the last key's line closes its record and opens the next; the final one closes the document
    lines.append(_json_lines(last, columns[last], "\n    },\n    {\n"))
    lines[-1][-1] = _json_lines(last, columns[last][-1:], "\n    }\n  ]\n}\n")[0]
    opening = [head[:-2], ',\n  "records": [\n    {\n']
    return "".join(chain(opening, chain.from_iterable(zip(*lines))))


def report_to_csv(report: SweepReport) -> str:
    columns = _checked_columns(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    # the csv writer writes None as the empty string
    writer.writerows(zip(*(columns[name] for name in CSV_COLUMNS)))
    return buf.getvalue()


def emit_report(report: SweepReport, fmt: str, path: str) -> None:
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        raise BadParams(f"unknown report format {fmt!r}")
    try:
        with open(path, "w", encoding="ascii") as f:
            f.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write report to {path}: {exc}") from exc


def sweep_failed(report: SweepReport) -> bool:
    agg = report.aggregates
    return bool(
        agg.get("counterexamples", 0)
        or agg.get("finder_failures", 0)
        or agg.get("violations", 0)
    )
