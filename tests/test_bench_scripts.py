"""The alternation loop and the loader that scripts/bench_*.py share."""
import sys
from pathlib import Path

import pytest

from altpaths import harness

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from bench_report import alternate, load_against  # noqa: E402


def recorder(log: list, side: str, walls: list):
    """A side that logs each call and returns (its next wall, its call number)."""
    calls = iter(range(100))
    walls = iter(walls)

    def call():
        log.append(side)
        return next(walls), next(calls)

    return call


def test_two_sides_alternate_who_goes_first():
    log = []
    calls = {
        "a": recorder(log, "a", [9, 1, 3, 1, 3]),
        "b": recorder(log, "b", [9, 2, 2, 2, 2]),
    }
    result = alternate(calls, rounds=4, seconds=0)
    assert log == ["a", "b"] + ["a", "b", "b", "a"] * 2
    assert result["rounds"] == 4
    # the warm-up call (wall 9, call 0) is not counted; readings keep their order
    assert result["sides"]["a"]["quartiles"] == [[1, 2, 3], [1.75, 2.5, 3.25]]
    assert result["sides"]["b"]["quartiles"] == [[2, 2, 2], [1.75, 2.5, 3.25]]
    assert result["sides"]["a"]["wins"] == result["sides"]["b"]["wins"] == 0.5


def test_one_side_has_no_win_share():
    log = []
    result = alternate({"a": recorder(log, "a", [1] * 4)}, rounds=3, seconds=0)
    assert log == ["a"] * 4 and result["rounds"] == 3
    assert result["sides"] == {"a": {"quartiles": [[1, 1, 1], [1.5, 2, 2.5]]}}


def test_rounds_continue_until_every_side_reaches_seconds():
    # a's walls reach 5 seconds after 5 rounds, b's after 3
    log = []
    calls = {"a": recorder(log, "a", [1] * 7), "b": recorder(log, "b", [2] * 7)}
    result = alternate(calls, rounds=2, seconds=5)
    assert result["rounds"] == 5 and len(log) == 12
    assert result["sides"]["a"]["wins"] + result["sides"]["b"]["wins"] == 1
    assert result["sides"]["a"]["wins"] == 1


@pytest.fixture
def against():
    yield load_against(str(ROOT / "src"))
    for name in [name for name in sys.modules if name.split(".")[0] == "altpaths_against"]:
        del sys.modules[name]


def test_load_against_renders_this_packages_bytes(against):
    assert against.harness is not harness
    assert against._dp_kernels.__name__ == "altpaths_against._dp_kernels"
    assert against.oracle.__name__ == "altpaths_against.oracle"
    documents = [
        b"".join(module.report_batches(
            module.run_theorem_sweep(module.SweepConfig(mode="exhaustive", n=4, stable=True)),
            "json",
        ))
        for module in (harness, against.harness)
    ]
    assert documents[0] == documents[1]
    assert b'"instances": 729' in documents[0]
