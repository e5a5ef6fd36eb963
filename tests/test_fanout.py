"""The fan-out on its own, and the layering of the sweep, fan-out and report modules.

The pooled sweeps' tests (TestWorkerPool) are in test_harness.py.
"""
import ast
import os
import subprocess
import sys
import time
from pathlib import Path

from altpaths import fanout


def _run_script(code: str) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter under -W error, with this package importable."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fanout.__file__)))
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )


def _slow_first_large(i: int, size: int) -> bytes:
    """size bytes of i's low byte, task 0 a quarter second late."""
    if i == 0:
        time.sleep(0.25)
    return bytes([i % 256]) * size


class TestFanOut:
    def test_any_function_runs_in_task_order(self):
        # more tasks than workers, fewer, and none
        for tasks in ([(7, 2), (9, 4), (5, 5), (0, 3)], [(9, 4)], []):
            assert fanout._fan_out(2, divmod, tasks) == [divmod(*args) for args in tasks]

    def test_replies_larger_than_the_pipe_come_in_task_order(self):
        # each reply outgrows the socket buffer, so the workers after task 0
        # block sending theirs until the parent, held up by task 0, reads them
        size = 2**21
        replies = fanout._fan_out(2, _slow_first_large, [(i, size) for i in range(7)])
        assert [reply == bytes([i]) * size for i, reply in enumerate(replies)] == [True] * 7
        pids = [process.pid for process in fanout._pool[2]]
        assert fanout._fan_out(2, divmod, [(7, 2)] * 5) == [(3, 1)] * 5
        assert [process.pid for process in fanout._pool[2]] == pids


PACKAGE = Path(fanout.__file__).parent


def _imports(module: str) -> set[str]:
    """The modules a module of the package imports, the package's own named altpaths.<name>."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:  # from . import x, from .x import y
            if node.module:
                names.add(f"altpaths.{node.module}")
            else:
                names.update(f"altpaths.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


def _defined(module: str) -> set[str]:
    """The names a module of the package binds at its top level, but imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


class TestLayering:
    def test_the_fan_out_imports_only_errors(self):
        imports = _imports("fanout")
        assert {name for name in imports if name.startswith("altpaths")} == {"altpaths.errors"}
        assert not {name for name in imports if name.split(".")[0] == "numpy"}

    def test_the_report_does_not_import_the_sweep(self):
        assert not {name for name in _imports("report") if name.startswith("altpaths.harness")}

    def test_the_sweep_defines_nothing_of_the_fan_out_or_the_report(self):
        assert not _defined("harness") & (_defined("fanout") | _defined("report"))

    def test_importing_the_fan_out_loads_no_numpy_and_no_other_layer(self):
        # the package's __init__ imports the graph modules, and with them numpy, for
        # its public names; a bare package of the same path loads the fan-out alone
        listed = "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'altpaths')))\n"
        bare = (
            "import sys, types\n"
            "package = types.ModuleType('altpaths')\n"
            f"package.__path__ = [{str(PACKAGE)!r}]\n"
            "sys.modules['altpaths'] = package\n"
            "import altpaths.fanout\n"
        )
        proc = _run_script(bare + listed)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split() == ["altpaths", "altpaths.errors", "altpaths.fanout"]
        proc = _run_script("import sys\nimport altpaths.fanout\n" + listed)
        assert (proc.returncode, proc.stderr) == (0, "")
        loaded = proc.stdout.split()
        assert "altpaths.fanout" in loaded
        assert not {"altpaths.harness", "altpaths.report"} & set(loaded)
