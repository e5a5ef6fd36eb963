"""Experiment sweeps, deterministic parallel execution, and report emission.

All sweeps share the same report shape: per-instance records plus
aggregates (counterexample count, extremal frontier).  Instance RNG
streams are derived from (seed, instance index), so results are byte
identical under any worker count.
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
from functools import cache, partial
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .altpath import validate
from .errors import BadParams, IoFailure, TooLarge, VacuousParams
from .graph_core import (
    OrientedGraph,
    blowup_directed_cycle,
    decode_codes,
    degree_columns,
    min_pseudo_semidegree,
    min_semidegree,
    num_oriented,
    random_oriented,
)
from .oracle import OracleBudget, alt_path_lengths, longest_alt_path_lengths
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


@dataclass
class SweepConfig:
    mode: str  # exhaustive | random | blowup | corollary | oddcase
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
    debug: bool = False
    chunk_size: int = 2000

    def __post_init__(self):
        if self.samples <= 0 or self.workers <= 0:
            raise BadParams("samples and workers must be positive")

    def ns(self) -> list[int]:
        if self.n_range is not None:
            return list(range(self.n_range[0], self.n_range[1] + 1))
        if self.n is not None:
            return [self.n]
        raise BadParams(f"mode {self.mode!r} needs n or n-range")


@dataclass
class SweepReport:
    config: dict
    records: list[dict]
    aggregates: dict = field(default_factory=dict)


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


def _agg_add_frontier(agg: dict, pseudo: int | None, length: int) -> None:
    if pseudo is None:
        return
    key = str(pseudo)
    cur = agg["frontier"].get(key)
    if cur is None or length < cur:
        agg["frontier"][key] = length


def _merge_agg(into: dict, other: dict) -> None:
    for key in ("instances", "counterexamples", "finder_failures", "violations", "skipped"):
        into[key] += other[key]
    for pseudo, length in other["frontier"].items():
        cur = into["frontier"].get(pseudo)
        if cur is None or length < cur:
            into["frontier"][pseudo] = length


def _base_record(graph_id: str, g: OrientedGraph) -> dict:
    # the first degree query fills the graph's cached summary; the others read it
    pseudo = min_pseudo_semidegree(g)
    return {
        "graph_id": graph_id,
        "n": g.n,
        "edges": g.edge_count,
        "min_pseudo_semidegree": pseudo,
        "min_semidegree": min_semidegree(g) if g.n else None,
        "oracle_L": None,
        "finder_outcome": "",
        "rounds": 0,
        "micros": 0,
        "violation": None,
    }


def _too_large(cfg: SweepConfig, g: OrientedGraph) -> str | None:
    return "TooLarge" if g.n > cfg.max_n_subset_dp else None


def _edge_bound_not_met(cfg: SweepConfig, g: OrientedGraph) -> str | None:
    return "edge-bound-not-met" if g.edge_count <= (5 * cfg.k + 4) * g.n / 4 else None


@cache
def _finder_budget(max_n_subset_dp: int, debug: bool) -> EngineBudget:
    """One shared finder budget per setting; the finder never mutates its budget."""
    return EngineBudget(oracle=OracleBudget(max_n_subset_dp=max_n_subset_dp), debug=debug)


def _finder_verdict(cfg: SweepConfig, g: OrientedGraph, kmax: int) -> tuple[str, int, bool]:
    """The finder's outcome and rounds at kmax, and whether it gave a valid order-kmax path."""
    out = find_alternating_path(g, kmax, _finder_budget(cfg.max_n_subset_dp, cfg.debug))
    ok = (
        out.outcome == "found"
        and out.path is not None
        and out.path.order == kmax
        and (kmax < 2 or validate(g, out.path))
    )
    return out.outcome, out.rounds, ok


def _check_theorem(cfg: SweepConfig, rec: dict, g: OrientedGraph, length: int, agg: dict) -> None:
    kmax = max_k_for(rec["min_pseudo_semidegree"])
    if kmax < 1:
        return
    if length < kmax:
        rec["violation"] = f"counterexample:L={length}<k={kmax}"
        agg["counterexamples"] += 1
    rec["finder_outcome"], rec["rounds"], ok = _finder_verdict(cfg, g, kmax)
    if not ok:
        rec["violation"] = (rec["violation"] or "") + f"|finder:{rec['finder_outcome']}"
        agg["finder_failures"] += 1


def _check_oddcase(cfg: SweepConfig, rec: dict, g: OrientedGraph, length: int, agg: dict) -> None:
    pseudo = rec["min_pseudo_semidegree"]
    if pseudo is not None and length % 2 == 1 and length < 2 * pseudo - 1:
        rec["violation"] = f"oddcase:L={length}<2*{pseudo}-1"
        agg["violations"] += 1


def _check_corollary(cfg: SweepConfig, rec: dict, g: OrientedGraph, length: int, agg: dict) -> None:
    if length < cfg.k:
        rec["violation"] = f"corollary:L={length}<k={cfg.k}"
        agg["violations"] += 1


# instance kind -> (reason to skip an instance before the oracle, check given L)
_KINDS = {
    "theorem": (_too_large, _check_theorem),
    "oddcase": (_too_large, _check_oddcase),
    "corollary": (_edge_bound_not_met, _check_corollary),
}


def _run_instances(cfg: SweepConfig, instances, skip, check) -> tuple[list[dict], dict]:
    """Records and aggregates for (graph_id, graph) pairs.

    Every oracle L comes from one batched call between building the
    records and running the per-instance checks, so a record's non-stable
    `micros` covers its own record and checks but not its share of the
    oracle.  Stable sweeps read no clock.
    """
    agg = _new_agg()
    timed = not cfg.stable
    records, pending = [], []
    for graph_id, g in instances:
        t0 = _now_micros() if timed else 0
        rec = _base_record(graph_id, g)
        agg["instances"] += 1
        reason = skip(cfg, g)
        if reason is not None:
            rec["violation"] = f"skipped:{reason}"
            agg["skipped"] += 1
        else:
            pending.append((rec, g, _now_micros() - t0 if timed else 0))
        records.append(rec)
    budget = OracleBudget(max_n_subset_dp=cfg.max_n_subset_dp)
    lengths = longest_alt_path_lengths([g for _, g, _ in pending], budget)
    for (rec, g, micros), length in zip(pending, lengths):
        t0 = _now_micros() if timed else 0
        rec["oracle_L"] = length
        _agg_add_frontier(agg, rec["min_pseudo_semidegree"], length)
        check(cfg, rec, g, length, agg)
        if timed:
            rec["micros"] = micros + _now_micros() - t0
    if cfg.aggregate_only:
        records = [rec for rec in records if rec["violation"]]
    return records, agg


# --- exhaustive sweeps, column by column -----------------------------------


@dataclass
class _Columns:
    """One exhaustive chunk as (B,) columns; -1 stands for None in the int columns."""

    n: int
    out_masks: np.ndarray
    in_masks: np.ndarray
    pseudo: np.ndarray
    length: np.ndarray
    outcome: np.ndarray  # finder_outcome strings, dtype object
    rounds: np.ndarray
    micros: np.ndarray
    violation: dict[int, str]


def _theorem_columns(cfg: SweepConfig, cols: _Columns, agg: dict) -> None:
    """_check_theorem on every row, with the finder run only where kmax >= 2."""
    kmax = np.where(cols.pseudo > 0, (8 * cols.pseudo - 1) // 5, 0)  # max_k_for by column
    bad = np.flatnonzero(cols.length < kmax)
    for i, length, k in zip(bad.tolist(), cols.length[bad].tolist(), kmax[bad].tolist()):
        cols.violation[i] = f"counterexample:L={length}<k={k}"
    agg["counterexamples"] += bad.size
    # find_alternating_path at k = 1 returns a one-vertex path after 0 rounds
    cols.outcome[kmax == 1] = "found"
    timed = not cfg.stable
    rows = np.flatnonzero(kmax >= 2)
    outs, ins = cols.out_masks[rows].tolist(), cols.in_masks[rows].tolist()
    for i, out_masks, in_masks, k in zip(rows.tolist(), outs, ins, kmax[rows].tolist()):
        g = OrientedGraph(cols.n, tuple(out_masks), tuple(in_masks))
        t0 = _now_micros() if timed else 0
        outcome, rounds, ok = _finder_verdict(cfg, g, k)
        if timed:
            cols.micros[i] = _now_micros() - t0
        cols.outcome[i], cols.rounds[i] = outcome, rounds
        if not ok:
            cols.violation[i] = cols.violation.get(i, "") + f"|finder:{outcome}"
            agg["finder_failures"] += 1


def _oddcase_columns(cfg: SweepConfig, cols: _Columns, agg: dict) -> None:
    """_check_oddcase on every row."""
    pseudo, length = cols.pseudo, cols.length
    bad = np.flatnonzero((pseudo >= 0) & (length % 2 == 1) & (length < 2 * pseudo - 1))
    for i, L, p in zip(bad.tolist(), length[bad].tolist(), pseudo[bad].tolist()):
        cols.violation[i] = f"oddcase:L={L}<2*{p}-1"
    agg["violations"] += bad.size


_COLUMN_CHECKS = {"theorem": _theorem_columns, "oddcase": _oddcase_columns}


def _nullable(column: np.ndarray) -> list[int | None]:
    return [None if x < 0 else x for x in column.tolist()]


def _exhaustive_chunk(args) -> tuple[tuple[list, ...], dict]:
    """Codes lo..hi-1 of order cfg.n, decoded, summarised, solved and checked by column.

    Only rows with kmax >= 2 build a graph, for the finder.  Returns the
    rows the report keeps (all, or the violating ones when aggregate_only)
    as the value columns _exhaustive_records reads, and the aggregates.
    A row's non-stable `micros` is its finder time, 0 where no finder runs.
    """
    cfg, lo, hi, kind = args
    n, size = cfg.n, hi - lo
    codes = np.arange(lo, hi)
    out_masks, in_masks = decode_codes(n, codes)
    semi, pseudo, edges = degree_columns(out_masks, in_masks)
    cols = _Columns(
        n, out_masks, in_masks, pseudo,
        length=np.full(size, -1),
        outcome=np.full(size, "", dtype=object),
        rounds=np.zeros(size, dtype=np.int64),
        micros=np.zeros(size, dtype=np.int64),
        violation={},
    )
    agg = _new_agg()
    agg["instances"] = size
    if n > cfg.max_n_subset_dp:
        cols.violation = dict.fromkeys(range(size), "skipped:TooLarge")
        agg["skipped"] = size
    else:
        cols.length = alt_path_lengths(out_masks, in_masks, n)
        defined = pseudo >= 0
        for p in np.unique(pseudo[defined]).tolist():
            _agg_add_frontier(agg, p, int(cols.length[pseudo == p].min()))
        _COLUMN_CHECKS[kind](cfg, cols, agg)
    if cfg.aggregate_only:
        keep = np.array(sorted(cols.violation), dtype=np.int64)
    else:
        keep = np.arange(size)
    columns = (
        codes[keep].tolist(),
        edges[keep].tolist(),
        _nullable(pseudo[keep]),
        _nullable(semi[keep]),
        _nullable(cols.length[keep]),
        cols.outcome[keep].tolist(),
        cols.rounds[keep].tolist(),
        cols.micros[keep].tolist(),
        [cols.violation.get(i) for i in keep.tolist()],
    )
    return columns, agg


def _exhaustive_records(n: int, columns: tuple[list, ...]) -> list[dict]:
    """Record dicts from the value columns one _exhaustive_chunk returns."""
    return [
        {
            "graph_id": f"exh{n}-{code}",
            "n": n,
            "edges": edges,
            "min_pseudo_semidegree": pseudo,
            "min_semidegree": semi,
            "oracle_L": length,
            "finder_outcome": outcome,
            "rounds": rounds,
            "micros": micros,
            "violation": violation,
        }
        for code, edges, pseudo, semi, length, outcome, rounds, micros, violation in zip(*columns)
    ]


def _random_graph(cfg: SweepConfig, idx: int) -> OrientedGraph:
    inst_seed = _mix_seed(cfg.seed, idx)
    rng = random.Random(inst_seed)
    ns = cfg.ns()
    n = ns[rng.randrange(len(ns))]
    return random_oriented(n, cfg.p, inst_seed + 1)


# random chunk workers: each builds its slice of instances and hands it to _run_instances


def _random_chunk(args) -> tuple[list[dict], dict]:
    cfg, lo, hi, kind = args
    instances = [(f"rnd-{idx}", _random_graph(cfg, idx)) for idx in range(lo, hi)]
    return _run_instances(cfg, instances, *_KINDS[kind])


def _corollary_chunk(args) -> tuple[list[dict], dict]:
    cfg, lo, hi, kind = args
    ns = cfg.ns()
    instances = [
        # tournaments are the densest case
        (f"crl-{idx}", random_oriented(ns[idx % len(ns)], 1.0, _mix_seed(cfg.seed, idx)))
        for idx in range(lo, hi)
    ]
    return _run_instances(cfg, instances, *_KINDS[kind])


def _config_dict(cfg: SweepConfig) -> dict:
    doc = dataclasses.asdict(cfg)
    if cfg.stable:
        # execution-only knobs; normalized so stable reports are byte
        # identical under any worker count and chunking
        doc["workers"] = 1
        doc["chunk_size"] = SweepConfig.chunk_size
    return doc


def _run_chunked(
    cfg: SweepConfig, total: int, worker, instance_kind: str, records_of=list
) -> SweepReport:
    """Run instances 0..total-1 in chunks on cfg.workers processes, in chunk order.

    records_of turns the rows one chunk returns into record dicts, in the parent.
    """
    chunks = [
        (cfg, lo, min(lo + cfg.chunk_size, total), instance_kind)
        for lo in range(0, total, cfg.chunk_size)
    ]
    agg = _new_agg()
    records: list[dict] = []

    def collect(results) -> None:
        for rows, part in results:
            records.extend(records_of(rows))
            _merge_agg(agg, part)

    if cfg.workers <= 1 or len(chunks) <= 1:
        collect(map(worker, chunks))
    else:
        with multiprocessing.Pool(cfg.workers) as pool:
            # in chunk order, so the parent builds records while the workers run
            collect(pool.imap(worker, chunks))
    return SweepReport(_config_dict(cfg), records, agg)


def _run_exhaustive(cfg: SweepConfig, instance_kind: str) -> SweepReport:
    """Every labeled oriented graph of the one order the config names."""
    ns = cfg.ns()
    if len(ns) != 1:
        raise BadParams(f"an exhaustive sweep takes one order, got n = {ns[0]}..{ns[-1]}")
    n = ns[0]
    if n > cfg.max_n_exhaustive:
        raise TooLarge(f"exhaustive n={n} above bound {cfg.max_n_exhaustive}")
    cfg = dataclasses.replace(cfg, n=n)
    records_of = partial(_exhaustive_records, n)
    return _run_chunked(cfg, num_oriented(n), _exhaustive_chunk, instance_kind, records_of)


def run_theorem_sweep(cfg: SweepConfig) -> SweepReport:
    """Oracle plus constructive finder over an exhaustive or random family."""
    if cfg.mode == "exhaustive":
        return _run_exhaustive(cfg, "theorem")
    if cfg.mode == "random":
        return _run_chunked(cfg, cfg.samples, _random_chunk, "theorem")
    raise BadParams(f"theorem sweep does not support mode {cfg.mode!r}")


def run_oddcase_sweep(cfg: SweepConfig) -> SweepReport:
    """Check odd-length maxima against twice the pseudo-semidegree minus one."""
    if cfg.mode == "exhaustive":
        return _run_exhaustive(cfg, "oddcase")
    return _run_chunked(cfg, cfg.samples, _random_chunk, "oddcase")


def run_blowup_suite(
    t_range: tuple[int, int] = (3, 5),
    b_range: tuple[int, int] = (1, 3),
    stable: bool = False,
) -> SweepReport:
    """Tightness construction: class size b forces semidegree b and maximum order 2b."""
    cfg = SweepConfig(mode="blowup", t_range=t_range, b_range=b_range, stable=stable)
    params = [
        (t, b) for t in range(t_range[0], t_range[1] + 1) for b in range(b_range[0], b_range[1] + 1)
    ]
    sizes = {f"blowup-{t}x{b}": b for t, b in params}

    def check(cfg: SweepConfig, rec: dict, g: OrientedGraph, length: int, agg: dict) -> None:
        b = sizes[rec["graph_id"]]
        if rec["min_semidegree"] != b or length != 2 * b:
            rec["violation"] = f"blowup:semideg={rec['min_semidegree']},L={length},b={b}"
            agg["violations"] += 1

    instances = [(f"blowup-{t}x{b}", blowup_directed_cycle(t, b)) for t, b in params]
    records, agg = _run_instances(cfg, instances, _too_large, check)
    return SweepReport(_config_dict(cfg), records, agg)


def run_corollary_sweep(cfg: SweepConfig) -> SweepReport:
    """Dense-graph corollary: edge count above (5k+4)n/4 forces an order-k path."""
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
    return _run_chunked(cfg, cfg.samples, _corollary_chunk, "corollary")


# --- report emission -------------------------------------------------------


# the JSON text of a record value, by its exact type
_JSON_SCALARS = {
    type(None): {None: "null"}.__getitem__,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    str: encode_basestring_ascii,
}


def _records_json(records: list[dict]) -> str:
    """The records list exactly as json.dumps(sort_keys=True, indent=2) nests it in the report.

    Every record must have the first record's keys (at least two) and only
    values of the types in _JSON_SCALARS; anything else raises TypeError.
    """
    if not records:
        return "[]"
    keys = sorted(records[0])
    if len(keys) < 2:
        raise TypeError(f"report records need at least two keys, got {keys}")
    template = "    {\n%s\n    }" % ",\n".join(
        f"      {encode_basestring_ascii(key).replace('%', '%%')}: %s" for key in keys
    )
    values = itemgetter(*keys)
    scalars = _JSON_SCALARS
    parts = []
    try:
        for rec in records:
            if len(rec) != len(keys):
                raise KeyError(sorted(rec))
            parts.append(template % tuple([scalars[type(v)](v) for v in values(rec)]))
    except KeyError as exc:
        raise TypeError(f"record {len(parts)} does not fit the report template: {exc}") from exc
    return "[\n%s\n  ]" % ",\n".join(parts)


def report_to_json(report: SweepReport) -> str:
    head = json.dumps(
        {"config": report.config, "aggregates": report.aggregates}, sort_keys=True, indent=2
    )
    # head ends with the closing "\n}"; "records" sorts after both keys
    return f'{head[:-2]},\n  "records": {_records_json(report.records)}\n}}\n'


def report_to_csv(report: SweepReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in report.records:
        writer.writerow(["" if rec[c] is None else rec[c] for c in CSV_COLUMNS])
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


def read_report_csv(path: str) -> list[dict]:
    """Round-trip reader for the CSV report format."""
    try:
        with open(path, "r", encoding="ascii") as f:
            rows = list(csv.DictReader(f))
    except OSError as exc:
        raise IoFailure(f"cannot read report from {path}: {exc}") from exc
    out = []
    for row in rows:
        rec: dict = {}
        for col in CSV_COLUMNS:
            val = row[col]
            if col in ("graph_id", "finder_outcome"):
                rec[col] = val
            elif val == "":
                rec[col] = None
            else:
                rec[col] = int(val)
        out.append(rec)
    return out


def sweep_failed(report: SweepReport) -> bool:
    agg = report.aggregates
    return bool(
        agg.get("counterexamples", 0)
        or agg.get("finder_failures", 0)
        or agg.get("violations", 0)
    )
