"""The benchmark's trace hooks find their names where perfbench/workloads.py looks them up.

A hook whose name is missing reads 0 in every metric it feeds, so a name
that moves out of the module a hook names changes the benchmark's output.
"""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (module, name) of each hook whose name resolves
RESOLVED = {
    ("harness", "run_theorem_sweep"),
    ("harness", "run_corollary_sweep"),
    ("harness", "emit_report"),
    ("harness", "_exhaustive_chunk"),
    ("harness", "_corollary_chunk"),
    ("harness", "random_oriented"),
    ("harness", "min_pseudo_semidegree"),
    ("harness", "min_semidegree"),
    ("harness", "find_alternating_path"),
    ("rotation_engine", "min_pseudo_semidegree"),
    ("rotation_engine", "longest_alt_path_exact"),
    ("rotation_engine", "find_alternating_path"),
    ("rotation_engine", "greedy_extend"),
    ("rotation_engine", "start_closure"),
    ("graph_core", "load_graph"),
    ("oracle", "run_dp"),
}
# (module, name) of each hook whose name no module defines there
MISSING = {
    ("harness", "graph_from_code"),
    ("harness", "longest_alt_path_exact"),
    ("rotation_engine", "two_sided_closure_extension"),
    ("rotation_engine", "evenham_cycle"),
    ("rotation_engine", "build_Q"),
    ("rotation_engine", "mm_hamilton_cycle"),
}


class _Recorder:
    """A tracer that records the (module, attr) of each hook planned on it, and nothing else."""

    def __init__(self) -> None:
        self.counters = {}
        self.hooks = []

    def counter(self, name: str) -> None:
        self.counters.setdefault(name, 0)

    def span(self, module, attr: str, name: str, on_result=None) -> None:
        self.hooks.append((module, attr))

    def count(self, module, attr: str, name: str) -> None:
        self.hooks.append((module, attr))


def test_hooks_resolve_as_planned(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read the benchmark's tree, write nothing
    try:
        import workloads

        recorder = _Recorder()
        workloads.plan_hooks(recorder)
    finally:
        for name in ("workloads", "reference"):
            sys.modules.pop(name, None)
    hooks = {
        (module.__name__.removeprefix("altpaths."), attr): getattr(module, attr, None) is not None
        for module, attr in recorder.hooks
    }
    assert {hook for hook, found in hooks.items() if found} == RESOLVED
    assert {hook for hook, found in hooks.items() if not found} == MISSING
