"""Experiment sweeps: instance sources, one driver with a check per kind, and chunked runs.

All sweeps share the same report shape: per-instance records plus
aggregates (counterexample count, extremal frontier).  Instance RNG
streams are derived from (seed, index), so results are byte identical
under any worker count.

Every sweep kind runs through one driver, _check_order.  A chunk source
(exhaustive codes, random draws, tournaments, blow-ups) turns its
instances into (B, n) mask batches, one per order; the driver takes the
degrees from degree_columns and L from alt_path_lengths, and runs the
kind's check column by column.  Exhaustive chunks, which know their
graphs by code, hand the driver L from oracle.lengths_from_minors instead,
read off a table of every graph of the order below.  Only the theorem
check builds graphs, for the finder where kmax >= 2, each with the degree
summary its row already holds.  The checks write the record-field columns
of the report layout themselves, and a chunk returns them with only its
non-null violation texts.  A sweep of more than one chunk on more than
one worker runs its chunks on forked workers (fanout._fan_out), and
report._from_chunks joins the chunks into the report.  The report's
public names (SweepReport, report_batches, emit_report, CSV_COLUMNS and
RECORD_FIELDS) are re-exported here.
"""
from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass

import numpy as np

from . import fanout
from .altpath import validate
from .errors import BadParams, TooLarge, VacuousParams
from .graph_core import (  # noqa: F401 - the benchmark's trace hooks look up the min_* names here
    DegreeSummary,
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
from .report import (  # noqa: F401 - re-exported for the CLI, the scripts and the benchmark
    CSV_COLUMNS,
    RECORD_FIELDS,
    SweepReport,
    _Chunk,
    _from_chunks,
    emit_report,
    report_batches,
)
from .rotation_engine import OUTCOME_TEXTS, EngineBudget, find_alternating_path, max_k_for

# finder_outcome is an int field of codes into OUTCOME_TEXTS
_OUTCOME_CODES = {text: code for code, text in enumerate(OUTCOME_TEXTS)}


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


# the record fields that hold a DegreeSummary's fields, in its order
_SUMMARY_FIELDS = ("min_semidegree", "min_pseudo_semidegree", "edges")


def _theorem_check(cfg: SweepConfig, cols: dict, agg: dict, out_masks, in_masks, b) -> None:
    """L >= kmax on every row, and a valid order-kmax path from the finder where kmax >= 2.

    Each finder graph takes its degree summary from its row, which
    degree_columns counted, so that the finder's condition_holds counts none.
    """
    pseudo, length = cols["min_pseudo_semidegree"], cols["oracle_L"]
    kmax = np.where(pseudo > 0, max_k_for(pseudo), 0)
    _flag(cols, agg, "counterexamples", length < kmax, "counterexample:L={}<k={}", length, kmax)
    # find_alternating_path at k = 1 returns a one-vertex path after 0 rounds
    cols["finder_outcome"][kmax == 1] = _OUTCOME_CODES["found"]
    rows = np.flatnonzero(kmax >= 2)
    if not rows.size:  # as in most small chunks
        return
    budget = EngineBudget(oracle=OracleBudget(max_n_subset_dp=cfg.max_n_subset_dp))
    timed = not cfg.stable
    n = out_masks.shape[1]
    outs, ins = out_masks[rows].tolist(), in_masks[rows].tolist()
    # kmax >= 2 needs an arc, so n > 0 and every row's summary is defined
    summaries = map(DegreeSummary, *(cols[name][rows].tolist() for name in _SUMMARY_FIELDS))
    for i, row_out, row_in, k, summary in zip(
        rows.tolist(), outs, ins, kmax[rows].tolist(), summaries
    ):
        g = OrientedGraph.with_summary(n, tuple(row_out), tuple(row_in), summary)
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
    them.  Their int arrays are sent in the smallest dtype holding them,
    which the parent's report keeps: at n=5 a sixth of the int64 bytes.
    """
    agg = _new_agg()
    parts = []
    for start in range(lo, hi, cfg.chunk_size):
        part, chunk_agg = worker(cfg, kind, start, min(start + cfg.chunk_size, hi))
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


def _exhaustive_chunk(cfg: SweepConfig, kind: str, lo: int, hi: int) -> tuple[_Chunk, dict]:
    """Codes lo..hi-1 of order cfg.n, decoded into one batch, L from the order-below table.

    The table is filled once per process, at its first exhaustive chunk of
    the order: each pooled worker fills its own, unless the parent filled
    it before the workers forked.
    """
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


def _random_chunk(cfg: SweepConfig, kind: str, lo: int, hi: int) -> tuple[_Chunk, dict]:
    return _graphs_chunk(cfg, kind, lo, [_random_graph(cfg, idx) for idx in range(lo, hi)])


def _corollary_chunk(cfg: SweepConfig, kind: str, lo: int, hi: int) -> tuple[_Chunk, dict]:
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


def _blowup_chunk(cfg: SweepConfig, kind: str, lo: int, hi: int) -> tuple[_Chunk, dict]:
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



def _run_chunked(
    cfg: SweepConfig, total: int, worker, kind: str, graph_ids: str | tuple[str, ...]
) -> SweepReport:
    """Run instances 0..total-1 in chunks on cfg.workers processes, into one report in chunk order.

    A sweep of more than one chunk on more than one worker runs its chunks
    on the workers (fanout._fan_out), which see module state as of their
    fork: a change made after that (a monkeypatch, say) reaches only sweeps
    whose chunks run here, on one worker or in one chunk.
    """
    if cfg.workers > 1 and total > cfg.chunk_size:
        # runs of consecutive chunks, a quarter of an even share of them per
        # worker, so the parent takes replies while the workers run; a task
        # names its run, not its chunks, so it stays a few hundred bytes
        run = cfg.chunk_size * max(1, -(-total // cfg.chunk_size) // (4 * cfg.workers))
        spans = [(lo, min(lo + run, total)) for lo in range(0, total, run)]
        tasks = [(worker, cfg, kind, *span) for span in spans]
        results = fanout._fan_out(cfg.workers, _task, tasks)
    else:
        spans = [(lo, min(lo + cfg.chunk_size, total)) for lo in range(0, total, cfg.chunk_size)]
        results = (worker(cfg, kind, lo, hi) for lo, hi in spans)
    agg = _new_agg()
    chunks: list[_Chunk] = []
    for chunk, part in results:
        chunks.append(chunk)
        _merge_agg(agg, part)
    return _from_chunks(_config_dict(cfg), agg, graph_ids, chunks)


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



def sweep_failed(report: SweepReport) -> bool:
    agg = report.aggregates
    return bool(
        agg.get("counterexamples", 0)
        or agg.get("finder_failures", 0)
        or agg.get("violations", 0)
    )
