"""Sweep reports: one layout from the sweep's chunks to the file, checked and rendered.

A report (SweepReport) holds its records as typed int columns.  Each of a
sweep's chunks sends its record-field columns with only its non-null
violation texts (_Chunk); _from_chunks joins the chunks' columns end to
end in the int dtypes they come in, codes the violation texts into a
table of the distinct ones and takes each row's instance index as its
graph_id.  report_batches checks the layout once and renders the columns,
in JSON or CSV through one row loop, in batches of records, which
emit_report writes as they come.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import os
import stat
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, IoFailure
from .rotation_engine import OUTCOME_TEXTS

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
# the int fields that may be null, with -1; violation's null is its code 0
_NULLABLE = {"min_pseudo_semidegree", "min_semidegree", "oracle_L"}
# finder_outcome is an int field of codes into OUTCOME_TEXTS
_OUTCOMES = np.array(OUTCOME_TEXTS, dtype=object)

# a chunk's kept rows: one int array per record field after graph_id but
# violation, and the instance indexes and texts of the rows whose violation
# is not null.  A full chunk keeps its rows lo..hi-1; an aggregate_only
# chunk keeps exactly the rows it flags, so neither sends a row index.
_Chunk = tuple[dict[str, np.ndarray], np.ndarray, list[str]]


@dataclass
class SweepReport:
    """A sweep's config, aggregates and records, in the layout _from_chunks makes.

    columns maps each RECORD_FIELDS name to a one-dimensional int array with
    one value per record.  graph_id is int64 and holds each record's
    instance index, and graph_ids gives the ids' one shape: a str is the
    prefix of the decimal index, a tuple of str the id of each index.
    violation holds codes into violation_texts, the distinct texts, with 0
    for null: code c is violation_texts[c - 1].  Every other field may have
    any int dtype: a pooled sweep keeps each in the smallest one its
    workers sent it in (uint8 or int16 at n=5), and an in-process one in
    int64.  In the nullable ones (the two degree fields and oracle_L) -1
    stands for null, and finder_outcome holds codes into
    rotation_engine.OUTCOME_TEXTS.  records and the renderers write the
    codes as their texts.  records reads the columns as they are;
    report_batches checks this layout once, before its first batch.

    Both renderers, JSON and CSV, write rows through one loop that groups
    them by body, every field but graph_id (and micros when rows differ in
    it): it codes the bodies from a table of the keys present (a sort where
    their span exceeds the row count), builds and encodes each distinct
    body's texts once, in the format's field order, and joins each batch of
    rows as bytes, each row its body's texts around its id (and micros).  A
    prefix is escaped or quoted once, into each body's text; an id i >= 1000
    adds the text of i // 1000, appended to the body texts once per run of
    rows with equal quotients, and every id takes the text of its remainder
    i % 1000 from one fixed table.  Names are escaped or quoted and encoded
    once each.  The CSV has no violation field, so its renders never read
    the violation codes.
    """

    config: dict
    columns: dict[str, np.ndarray]
    aggregates: dict
    graph_ids: str | tuple[str, ...]
    violation_texts: tuple[str, ...]

    @property
    def records(self) -> list[dict]:
        """The records as dicts of int, str and None, built on each call.

        Mutating the returned list or its dicts does not change the report.
        """
        rows = zip(*(
            _id_texts(self.graph_ids, self.columns[name]) if name == "graph_id"
            else _native(name, self.columns[name], self.violation_texts)
            for name in RECORD_FIELDS
        ))
        return [dict(zip(RECORD_FIELDS, row)) for row in rows]


def _is_texts(value) -> bool:
    return isinstance(value, tuple) and all(isinstance(text, str) for text in value)


def _check_columns(columns: dict, graph_ids, violation_texts) -> None:
    """Raise TypeError unless the columns and tables have SweepReport's layout.

    graph_ids neither a str nor a tuple of str, violation_texts not a tuple
    of str, missing or extra fields, unequal lengths, a column that is not a
    one-dimensional int array (int64 for graph_id), an int past int64, a
    negative int (below -1 where the field is nullable), and a code or index
    past its table (finder_outcome's OUTCOME_TEXTS, violation's texts,
    graph_id's names) raise.
    """
    if not isinstance(graph_ids, str) and not _is_texts(graph_ids):
        raise TypeError(f"graph ids {graph_ids!r:.60} are neither a prefix nor a tuple of names")
    if not _is_texts(violation_texts):
        raise TypeError(f"violation texts {violation_texts!r:.60} are not a tuple of str")
    if columns.keys() != set(RECORD_FIELDS):
        raise TypeError(f"report columns {sorted(columns)} are not the record fields")
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise TypeError(f"report columns have unequal lengths {lengths}")
    # the fields whose values index a table: its length and what they are
    tables = {
        "finder_outcome": (len(_OUTCOMES), "a code past the outcomes"),
        "violation": (len(violation_texts) + 1, "a code past the violation texts"),
    }
    if isinstance(graph_ids, tuple):
        tables["graph_id"] = (len(graph_ids), "an index past the names")
    for name in RECORD_FIELDS:
        column = columns[name]
        if not isinstance(column, np.ndarray) or column.ndim != 1:
            raise TypeError(f"report column {name!r} is not a one-dimensional array")
        if column.dtype.kind not in "iu" or (name == "graph_id" and column.dtype != np.int64):
            raise TypeError(f"report column {name!r} has dtype {column.dtype}")
        if not column.size:
            continue
        low, high = int(column.min()), int(column.max())
        if low < (-1 if name in _NULLABLE else 0):
            raise TypeError(f"report column {name!r} holds a negative int")
        if high > np.iinfo(np.int64).max:
            raise TypeError(f"report column {name!r} holds an int past int64")
        if name in tables and high >= tables[name][0]:
            raise TypeError(f"report column {name!r} holds {tables[name][1]}")


def _native(name: str, column: np.ndarray, violation_texts: tuple[str, ...]) -> list:
    """A report column's values as int, str and None."""
    if name == "finder_outcome":
        return _OUTCOMES[column].tolist()
    if name == "violation":
        return np.array([None, *violation_texts], dtype=object)[column].tolist()
    if name not in _NULLABLE:
        return column.tolist()
    values = column.astype(object)
    values[column < 0] = None
    return values.tolist()


def _id_texts(graph_ids: str | tuple[str, ...], index: np.ndarray) -> list[str]:
    """The ids of the instance indexes: the prefix and the decimal index, or the index's name."""
    if isinstance(graph_ids, str):
        return [graph_ids + text for text in map(str, index.tolist())]
    return [graph_ids[i] for i in index.tolist()]


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays end to end, in the dtype that holds them all; one array is taken as it is.

    Empty arrays are left out, so that they widen no dtype; all empty, or
    none, make an empty array.
    """
    kept = [array for array in arrays if array.size] or arrays[:1] or [np.empty(0, np.int64)]
    return kept[0] if len(kept) == 1 else np.concatenate(kept)


def _from_chunks(config: dict, aggregates: dict, graph_ids, chunks: list[_Chunk]) -> SweepReport:
    """The report of a sweep's chunks, in chunk order.

    The chunks' arrays are joined end to end, once per field, in the dtypes
    they came in: a pooled sweep's are narrow, an in-process one's int64.
    The violation texts the chunks sent are coded, the only per-row work
    here, and only on flagged rows: each distinct text gets the next code
    from 1, into the report's violation_texts.  A full sweep's violation
    column is 0 but on its flagged rows; an aggregate_only sweep (as its
    config says) keeps only flagged rows.  The graph_id column holds each
    kept row's instance index, and graph_ids, the report's one id shape,
    is passed through: no id text is built here.
    """
    columns = {
        name: _joined([fields[name] for fields, _, _ in chunks]) for name in RECORD_FIELDS[1:-1]
    }
    flagged = _joined([flagged for _, flagged, _ in chunks]).astype(np.int64, copy=False)
    texts = {}  # each distinct violation text and its code
    codes = [texts.setdefault(text, len(texts) + 1) for _, _, sent in chunks for text in sent]
    codes = np.array(codes, dtype=np.min_scalar_type(len(texts)))
    if config["aggregate_only"]:
        index, violation = flagged, codes
    else:
        total = columns["n"].size  # a full sweep keeps a row per instance
        index, violation = np.arange(total, dtype=np.int64), np.zeros(total, dtype=codes.dtype)
        violation[flagged] = codes
    columns = {"graph_id": index, **columns, "violation": violation}
    return SweepReport(config, columns, aggregates, graph_ids, tuple(texts))


# rows per batch of rendered text
_BATCH_ROWS = 4096

# one fixed table of the 1,000 remainders r = id % 1000 as ASCII text:
# unpadded at r, three digits at 1000 + r.  A prefix id i >= 1000 is the text
# of i // 1000 and then the three digits of its remainder; an id below 1000
# is its unpadded text.
_REMAINDERS = np.array(
    [b"%d" % r for r in range(1000)] + [b"%03d" % r for r in range(1000)], dtype=object
)


def _dense(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, first): rows of equal values share a code c, and first[c] is the first such row."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    codes = np.empty(values.size, dtype=np.int64)
    codes[order] = np.cumsum(starts) - 1
    return codes, order[starts]


def _codes(column: np.ndarray) -> tuple[np.ndarray, int]:
    """(codes, count): an int64 code in 0..count-1 per row, equal exactly where the values are.

    The column may have any int dtype; the codes are taken in int64, so
    that no value wraps.
    """
    low = int(column.min())
    count = int(column.max()) - low + 1
    if count > column.size:
        codes, first = _dense(column)
        return codes, first.size
    return np.subtract(column, low, dtype=np.int64), count


def _bodies(columns: dict, keys: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(codes, rows): rows of equal values in the keys' columns share a code c, and rows[c] is one.

    The rows' keys combine into one int per row below a span.  A span no
    larger than the row count is coded from a table of the keys present; a
    larger one falls back to _dense, which sorts.
    """
    key, span = np.zeros(len(columns[keys[0]]), dtype=np.int64), 1
    for name in keys:
        codes, count = _codes(columns[name])
        if span * count > 2**62:
            key, first = _dense(key)
            span = first.size
        key *= count
        key += codes
        span *= count
    if span > key.size:
        return _dense(key)
    present = np.zeros(span, dtype=bool)
    present[key] = True
    index = np.cumsum(present) - 1
    codes = index[key]
    rows = np.empty(int(index[-1]) + 1, dtype=np.int64)
    rows[codes] = np.arange(key.size)  # any row of a body serves: they share its values
    return codes, rows


def _prefix_heads(heads: np.ndarray, codes: np.ndarray, ids: np.ndarray) -> list[bytes]:
    """Each row's head and then the text of its id // 1000, or nothing for an id below 1000.

    The quotient's text is built once per run of rows with equal quotients
    and appended to the heads of the run's bodies: to each body's head when
    the run has more rows than there are bodies, else to each row's.
    """
    quotients = ids // 1000
    cuts = (np.flatnonzero(quotients[1:] != quotients[:-1]) + 1).tolist()
    row_heads = []
    for lo, hi in zip([0, *cuts], [*cuts, ids.size]):
        quotient, rows = int(quotients[lo]), codes[lo:hi]
        if not quotient:
            row_heads += heads[rows].tolist()
            continue
        text = b"%d" % quotient
        if hi - lo > heads.size:
            run_heads = np.array([head + text for head in heads.tolist()], dtype=object)
            row_heads += run_heads[rows].tolist()
        else:
            row_heads += [head + text for head in heads[rows].tolist()]
    return row_heads


def _csv_field(value: int | str | None) -> str:
    """The value's text as csv.writer writes it in a row of more than one field."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, None))
    return buf.getvalue()[:-2]  # a row of one empty field would read '""'


# per format: its fields in row order, a field's key text and its value's
# text, the text between fields, a row's start and end, and the last row's
# end, which closes the document
_FORMATS = {
    "json": (
        sorted(RECORD_FIELDS), lambda key: f"      {json.dumps(key)}: ", json.dumps,
        ",\n", "    {\n", "\n    },\n", "\n    }\n  ]\n}\n",
    ),
    "csv": (CSV_COLUMNS, lambda key: "", _csv_field, ",", "", "\n", "\n"),
}


def _rows(fmt: str, columns: dict[str, np.ndarray], graph_ids, violation_texts: tuple):
    """The records in the format, as bytes in batches of _BATCH_ROWS rows.

    A row's slots are its graph_id and, when rows differ in it, its micros;
    its body is every other field.  The text between slots is built per
    body, once per distinct value, and encoded once; each row joins its
    body's texts around its slots' texts.
    """
    fields, key_text, value_text, sep, start, end, last_end = _FORMATS[fmt]
    ids, micros = columns["graph_id"], columns["micros"]
    if isinstance(graph_ids, str):
        # neither format escapes or quotes a digit, and both escape a prefix
        # one character at a time or quote the whole field: an id's text is
        # the prefix's text around the decimal index
        id_open, id_close = value_text(graph_ids + "0").rsplit("0", 1)
        names = None
    else:
        id_open = id_close = ""
        names = np.array([value_text(name).encode() for name in graph_ids], dtype=object)
    # each slot's text before and after its row's own
    slots = {"graph_id": (id_open, id_close)}
    timed = micros.min() != micros.max()
    if timed:
        slots["micros"] = ("", "")
    codes, rows = _bodies(columns, [name for name in fields if name not in slots])
    # per stretch of fields between slots, each body's text: += appends to every body's
    stretches = [np.full(rows.size, start, dtype=object)]
    for i, name in enumerate(fields):
        stretches[-1] += (sep if i else "") + key_text(name)
        if name in slots:
            stretches[-1] += slots[name][0]
            stretches.append(np.full(rows.size, slots[name][1], dtype=object))
            continue
        values = _native(name, columns[name][rows], violation_texts)
        table = {value: value_text(value) for value in set(values)}
        stretches[-1] += np.array([table[value] for value in values], dtype=object)
    stretches[-1] += end
    heads, *tails = (
        np.array([text.encode() for text in texts], dtype=object) for texts in stretches
    )
    width = 2 * len(slots) + 1
    for lo in range(0, ids.size, _BATCH_ROWS):
        hi = min(lo + _BATCH_ROWS, ids.size)
        batch, body = ids[lo:hi], codes[lo:hi]
        pieces = [b""] * (width * (hi - lo))
        if names is None:
            pieces[0::width] = _prefix_heads(heads, body, batch)
            remainders = batch % 1000
            remainders[batch >= 1000] += 1000
            pieces[1::width] = _REMAINDERS[remainders].tolist()
        else:
            pieces[0::width] = heads[body].tolist()
            pieces[1::width] = names[batch].tolist()
        if timed:
            pieces[3::width] = map(b"%d".__mod__, micros[lo:hi].tolist())
        for slot, texts in enumerate(tails, 1):
            pieces[2 * slot::width] = texts[body].tolist()
        text = b"".join(pieces)
        yield text if hi < ids.size else text[:-len(end)] + last_end.encode()


def report_batches(report: SweepReport, fmt: str) -> Iterator[bytes]:
    """The report's bytes in the format, "json" or "csv", in batches of _BATCH_ROWS records.

    The JSON is exactly what json.dumps(doc, sort_keys=True, indent=2) writes,
    plus a newline, and so ASCII.  The CSV is what csv.writer writes, encoded
    as UTF-8, which is ASCII for every report a sweep makes.  Both render
    their records through _rows.  The format and the columns are checked
    before the first batch is asked for.
    """
    if fmt not in _FORMATS:
        raise BadParams(f"unknown report format {fmt!r}")
    columns, graph_ids, violation_texts = report.columns, report.graph_ids, report.violation_texts
    _check_columns(columns, graph_ids, violation_texts)
    if fmt == "csv":
        opening = empty = ",".join(CSV_COLUMNS) + "\n"
    else:
        # the head ends with the closing "\n}"; "records" sorts after both keys
        doc = {"config": report.config, "aggregates": report.aggregates}
        head = json.dumps(doc, sort_keys=True, indent=2)[:-2]
        opening, empty = head + ',\n  "records": [\n', head + ',\n  "records": []\n}\n'
    if not columns["graph_id"].size:
        return iter([empty.encode()])
    return itertools.chain([opening.encode()], _rows(fmt, columns, graph_ids, violation_texts))


def _no_truncate(path: str, flags: int) -> int:
    """open()'s opener, less O_TRUNC, so emit_report chooses where to cut the file."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def emit_report(report: SweepReport, fmt: str, path: str) -> None:
    """Write the report_batches bytes as they come, so no whole document is held.

    A regular file is cut to the first batch's length, not to zero, before
    anything is written: ext4 forces writeback at close of a file truncated
    to zero (auto_da_alloc), which doubled the time to rewrite a report
    written moments before.  The old file's tail is gone before the new
    report's first byte is written, so the file never holds a mix of the
    two: like a truncating open, an error or a killed process leaves a
    prefix of the new report (killed between the cut and the first write,
    the old file's first bytes).
    Devices, pipes and FIFOs are not cut (ftruncate fails on them).
    """
    batches = report_batches(report, fmt)
    try:
        with open(path, "wb", opener=_no_truncate) as f:
            first = next(batches)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate(len(first))
            f.write(first)
            for data in batches:
                f.write(data)
    except OSError as exc:
        raise IoFailure(f"cannot write report to {path}: {exc}") from exc

