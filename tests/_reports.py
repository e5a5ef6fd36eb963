"""Whole report documents, joined from the batches that emit_report writes."""
from altpaths.report import report_batches


def report_to_json(report) -> str:
    return b"".join(report_batches(report, "json")).decode("ascii")


def report_to_csv(report) -> str:
    return b"".join(report_batches(report, "csv")).decode("utf-8")


def assert_same_text(got: str, want: str, context=None) -> None:
    """Require got == want exactly.

    A mismatch names both lengths and the first line that differs on each
    side, not a diff of the documents, which for a large report would take
    pytest minutes to build.
    """
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    line = next(
        (i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
        min(len(got_lines), len(want_lines)),
    )
    first = [lines[line] if line < len(lines) else "<end>" for lines in (got_lines, want_lines)]
    where = "" if context is None else f" ({context})"
    raise AssertionError(
        f"texts differ{where}: lengths {len(got)} and {len(want)}; "
        f"first differing line {line + 1} is {first[0]!r} and {first[1]!r}"
    )
