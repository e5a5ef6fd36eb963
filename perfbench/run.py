#!/usr/bin/env python3
"""Benchmark for altpaths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exhaustive-n5, corollary-dense, find-large (see README.md).

--trace 0 runs whole rounds of the workload's operation for S seconds with
no wrappers installed and prints the end-to-end metrics named in
BENCHMARK.json.  --trace 1 runs a fixed number of rounds twice, once plain
and once with spans recorded around each layer, and prints the per-layer
metrics.  Every output is checked; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""
import time

T_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
# The machine's speed drifts by up to a factor of two over minutes, and CPU
# time drifts with wall time.  A fixed pure-Python loop, run after each
# operation for a fifth of its time, tracks that drift: each operation's time
# is scaled to the speed at which one calibration unit takes
# CALIBRATION_UNIT_S, using the units run right after it.
CALIBRATION_SHARE = 0.2
CALIBRATION_UNIT_S = 0.030
SETUP_CALIBRATION_UNITS = 5


def calibration_unit() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(250_000):
        s += i * i % 7
    return time.perf_counter() - t0


def slowness(units: list[float]) -> float:
    """Machine slowness: 1.0 at the reference speed, 1.2 when 20% slower."""
    return statistics.median(units) / CALIBRATION_UNIT_S


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for the extra set-up samples)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import the program from this checkout's src/, and nothing installed elsewhere."""
    pkg = os.path.join(SRC, "altpaths")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"error: {pkg} not found; run the benchmark inside a checkout of the repository")
    sys.path.insert(0, SRC)
    import workloads

    if os.path.dirname(os.path.abspath(workloads.harness.__file__)) != pkg:
        sys.exit(f"error: altpaths was imported from {workloads.harness.__file__}, not {pkg}")
    return workloads


def cpu_seconds(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Runs a workload's operations, checks each output and counts failures."""

    def __init__(self, wl, workload) -> None:
        self.wl = wl
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.cpu_s = 0.0
        self.calibration: list[float] = []

    def op(self, i: int) -> float:
        """Run and check operation i; return its wall time in seconds."""
        self.attempted += self.w.instances_per_op
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = self.w.run_op(i)
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            self.failed += self.w.instances_per_op
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0
        try:
            self.w.check(i, result)
        except self.wl.CheckFailure as exc:
            print(f"check failed: {self.w.name} op {i}: {exc}", file=sys.stderr)
            self.correct = False
        return dt

    def calibrate(self, op_s: float) -> list[float]:
        """Run calibration units for a share of op_s; return their times."""
        units = []
        while sum(units) < CALIBRATION_SHARE * op_s:
            units.append(calibration_unit())
        self.calibration.extend(units)
        return units

    def rounds(self, first: int, count: int) -> float:
        """Run `count` whole rounds starting at round `first`; return summed op time."""
        per = self.w.ops_per_round
        return sum(self.op(i) for i in range(first * per, (first + count) * per))


def set_up(wl, args):
    """Build the workload's inputs (the caller runs the warm-up round)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workers = len(os.sched_getaffinity(0))
    w = wl.WORKLOADS[args.workload](args.seed, OUT_DIR, workers)
    w.prepare()
    return w


def setup_sample(args) -> float:
    """Scaled set-up time of a fresh process (see end_to_end)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up sample exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(wl, args) -> tuple[Runner, dict]:
    w = set_up(wl, args)
    runner = Runner(wl, w)
    runner.rounds(-1, 1)  # warm-up; its outputs are checked but not counted
    runner.attempted = runner.failed = 0
    setup_s = time.perf_counter() - T_START
    # from the first statement to the end of warm-up, scaled by the speed
    # measured right after it
    setup_slowness = slowness([calibration_unit() for _ in range(SETUP_CALIBRATION_UNITS)])
    if args.setup_only:
        return runner, {"setup_s": setup_s / setup_slowness}

    times: list[float] = []
    scaled: list[float] = []
    begin = time.perf_counter()
    r = 0
    while True:
        for i in range(r * w.ops_per_round, (r + 1) * w.ops_per_round):
            times.append(runner.op(i))
            scaled.append(times[-1] / slowness(runner.calibrate(times[-1])))
        r += 1
        if time.perf_counter() - begin >= args.seconds:
            break
    maxrss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    samples = [setup_s / setup_slowness] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    slow = slowness(runner.calibration)
    q1, q2, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    print(f"{w.name}: {len(times)} ops, op quartiles {q1 * 1e3:.1f} {q2 * 1e3:.1f} {q3 * 1e3:.1f} ms, "
          f"{len(runner.calibration)} calibration units, slowness {slow:.3f}, "
          f"scaled set-up samples {', '.join(f'{s:.3f}' for s in samples)} s "
          f"(own raw {setup_s:.3f} s at slowness {setup_slowness:.3f})", file=sys.stderr)
    return runner, {
        "setup_s": statistics.median(samples),
        # total over the run, not a percentile: a sweep run holds only a few operations
        "instances_per_s": w.instances_per_op * len(scaled) / sum(scaled),
        "peak_rss_mb": maxrss_kb / 1024,
    }


def per_layer(wl, args) -> tuple[Runner, dict]:
    import tracer

    tr = tracer.Tracer()
    wl.plan_hooks(tr)
    tr.install()  # only load_graph runs during prepare
    try:
        w = set_up(wl, args)
    finally:
        tr.uninstall()
    runner = Runner(wl, w)
    runner.rounds(-1, 1)
    runner.attempted = runner.failed = 0

    # fan-out efficiency from one plain round at the workload's own worker count
    # (pool workers' CPU time when the workload fans out, else this process's)
    children0, self0 = cpu_seconds(resource.RUSAGE_CHILDREN), runner.cpu_s
    wall = runner.rounds(0, 1)
    cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - children0 if w.workers > 1 else runner.cpu_s - self0
    efficiency = cpu / (wall * w.workers)
    workers = w.workers

    # counts made in pool workers do not come back, so the traced rounds use one
    w.workers = 1
    rounds = w.trace_rounds
    plain_s = runner.rounds(0, rounds)
    tr.install()
    try:
        traced_s = runner.rounds(0, rounds)
    finally:
        tr.uninstall()
    tr.write(os.path.join(OUT_DIR, f"trace-{w.name}-seed{args.seed}.npz"))
    print(f"{w.name}: one round {wall:.3f} s at {workers} worker(s); {rounds} rounds at 1 worker "
          f"{plain_s:.3f} s plain, {traced_s:.3f} s traced", file=sys.stderr)

    values = {}
    for name, fields in tr.summary().items():
        for field, value in fields.items():
            values[f"{name}.{field}"] = value
    values.update(tr.counters)
    calls = values["rotation_engine.find_alternating_path.calls"]
    values["rotation_engine.greedy_only_ratio"] = (
        values.pop("rotation_engine.greedy_only") / calls if calls else 0.0
    )
    values.update({
        "harness.fanout.workers": workers,
        "harness.fanout.efficiency": efficiency,
        "trace.ops": rounds * w.ops_per_round,
        "trace.instances": rounds * w.ops_per_round * w.instances_per_op,
        "trace.overhead_s": traced_s - plain_s,
    })
    return runner, values


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")

    runner, values = (per_layer if args.trace else end_to_end)(wl, args)
    if args.setup_only:
        print(json.dumps(values))
        return 0
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if runner.correct else 1


if __name__ == "__main__":
    sys.exit(main())
