"""Whole report documents, joined from the batches that emit_report writes."""
from altpaths.harness import report_batches


def report_to_json(report) -> str:
    return b"".join(report_batches(report, "json")).decode("ascii")


def report_to_csv(report) -> str:
    return b"".join(report_batches(report, "csv")).decode("utf-8")
