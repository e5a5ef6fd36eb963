"""Command line interface.

Exit codes: 0 success, 1 counterexample found (report still written),
2 usage error, 3 budget or IO failure, including a sweep that ran out of
memory and a sweep worker that exited mid-sweep.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .errors import AltPathError, IoFailure, TooLarge
from .graph_core import (
    blowup_directed_cycle,
    load_graph,
    min_pseudo_semidegree,
    min_semidegree,
    to_edgelist,
)
from .oracle import OracleBudget, longest_alt_path_exact
from .rotation_engine import EngineBudget, find_alternating_path


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    if a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return a, b


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="altpath")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="summarize a graph file")
    p_check.add_argument("file")
    p_check.add_argument("--format", choices=["edgelist", "digraph6"], default="edgelist")

    p_find = sub.add_parser("find", help="run the constructive finder")
    p_find.add_argument("file")
    p_find.add_argument("--format", choices=["edgelist", "digraph6"], default="edgelist")
    p_find.add_argument(
        "--k", type=int, required=True,
        help="order (number of vertices) of the alternating path sought",
    )
    p_find.add_argument("--budget-rounds", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="run a verification sweep")
    p_sweep.add_argument(
        "--mode",
        choices=["exhaustive", "random", "blowup", "corollary", "oddcase", "oddcase-exhaustive"],
        required=True,
    )
    p_sweep.add_argument("--n", type=int)
    p_sweep.add_argument("--n-range", type=_parse_range)
    p_sweep.add_argument(
        "--k", type=int,
        help="corollary sweep: order (number of vertices) of the alternating path to check for",
    )
    p_sweep.add_argument("--samples", type=int, default=1000)
    p_sweep.add_argument("--p", type=float, default=0.5)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--out-format", choices=["json", "csv"], default="json")
    p_sweep.add_argument("--stable", action="store_true")
    p_sweep.add_argument("--aggregate-only", action="store_true")
    p_sweep.add_argument("--t-range", type=_parse_range, default=(3, 5))
    p_sweep.add_argument("--b-range", type=_parse_range, default=(1, 3))
    p_sweep.add_argument("--max-n-exhaustive", type=int, default=6)

    p_con = sub.add_parser("construct", help="emit a generated graph")
    con_sub = p_con.add_subparsers(dest="kind", required=True)
    p_blow = con_sub.add_parser("blowup")
    p_blow.add_argument("--t", type=int, required=True)
    p_blow.add_argument("--b", type=int, required=True)
    p_blow.add_argument("--out", default=None)

    return parser


def _cmd_check(args) -> int:
    g = load_graph(args.file, args.format)
    pseudo = min_pseudo_semidegree(g)
    print(f"n={g.n}")
    print(f"edges={g.edge_count}")
    print(f"min_semidegree={min_semidegree(g) if g.n else 'undefined'}")
    print(f"min_pseudo_semidegree={'undefined' if pseudo is None else pseudo}")
    budget = OracleBudget()
    if g.n > budget.max_n_subset_dp:
        print(f"oracle_L=skipped (n > {budget.max_n_subset_dp})")
        return 0
    length, witness = longest_alt_path_exact(g, budget)
    print(f"oracle_L={length}")
    print(f"witness={witness.serialize()}")
    return 0


def _cmd_find(args) -> int:
    g = load_graph(args.file, args.format)
    budget = EngineBudget(rounds=args.budget_rounds)
    outcome = find_alternating_path(g, args.k, budget)
    print(json.dumps(outcome.to_json(), sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    cfg = harness.SweepConfig(
        # the odd-case sweep enumerates every labeled graph in exhaustive mode
        mode="exhaustive" if args.mode == "oddcase-exhaustive" else args.mode,
        n=args.n,
        n_range=args.n_range,
        k=args.k,
        samples=args.samples,
        p=args.p,
        seed=args.seed,
        workers=args.workers,
        stable=args.stable,
        aggregate_only=args.aggregate_only,
        t_range=args.t_range,
        b_range=args.b_range,
        max_n_exhaustive=args.max_n_exhaustive,
    )
    if args.mode in ("exhaustive", "random"):
        report = harness.run_theorem_sweep(cfg)
    elif args.mode in ("oddcase", "oddcase-exhaustive"):
        report = harness.run_oddcase_sweep(cfg)
    elif args.mode == "blowup":
        report = harness.run_blowup_suite(cfg)
    else:
        report = harness.run_corollary_sweep(cfg)
    if args.out:
        harness.emit_report(report, args.out_format, args.out)
    print(json.dumps(report.aggregates, sort_keys=True))
    return 1 if harness.sweep_failed(report) else 0


def _cmd_construct(args) -> int:
    g = blowup_directed_cycle(args.t, args.b)
    text = to_edgelist(g)
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "find": _cmd_find,
        "sweep": _cmd_sweep,
        "construct": _cmd_construct,
    }
    try:
        return handlers[args.command](args)
    except (IoFailure, TooLarge, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AltPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
