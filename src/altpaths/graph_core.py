"""Oriented-graph representation, degrees, generators, and file formats.

Vertices are dense integers 0..n-1 and neighbor sets are machine-word
bitmasks, which keeps everything below n=64 cheap.  An oriented graph has
no loops and at most one of (u,v), (v,u) for every pair.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    AltPathError,
    BadParams,
    DuplicateEdge,
    EmptyGraph,
    FormatError,
    LoopEdge,
    TooLarge,
    TwoCycle,
)


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True)
class DegreeSummary:
    """Degree minima and edge count of one graph; OrientedGraph.degree_summary caches it."""

    min_semidegree: int | None
    min_pseudo_semidegree: int | None
    edge_count: int


@dataclass(frozen=True)
class OrientedGraph:
    """Immutable oriented graph; out_masks[v] / in_masks[v] are neighbor bitmasks."""

    n: int
    out_masks: tuple[int, ...]
    in_masks: tuple[int, ...]

    @cached_property
    def degree_summary(self) -> DegreeSummary:
        """Minimum semidegree (None iff n == 0), pseudo-semidegree, edge count; one pass."""
        edges = 0
        semi = pseudo = self.n  # every degree is below n
        for out_mask, in_mask in zip(self.out_masks, self.in_masks):
            lo, hi = out_mask.bit_count(), in_mask.bit_count()
            edges += lo
            if lo > hi:
                lo, hi = hi, lo
            if lo < semi:
                semi = lo
            # the smaller positive side; 0 when the vertex is isolated
            positive = lo or hi
            if positive and positive < pseudo:
                pseudo = positive
        return DegreeSummary(semi if self.n else None, pseudo if edges else None, edges)

    @classmethod
    def with_summary(
        cls, n: int, out_masks: tuple[int, ...], in_masks: tuple[int, ...], summary: DegreeSummary
    ) -> OrientedGraph:
        """The graph with `summary`, which must be its own, as its degree_summary: none is counted.

        For a caller that already holds the summary, as a sweep does from
        degree_columns.
        """
        g = cls(n, out_masks, in_masks)
        g.__dict__["degree_summary"] = summary  # where cached_property keeps its value
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.out_masks[u] >> v) & 1)

    @property
    def edge_count(self) -> int:
        return self.degree_summary.edge_count

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.out_masks[u])]


MAX_EDGELIST_ORDER = 1 << 14
"""Largest order of a graph built from arcs, so of one read from an edge list.

It covers the graphs with thousands of vertices that the finder is meant
for; the exact oracle stops at 22 vertices and the sweeps at a few dozen.
An order-n graph's masks take up to n**2 / 4 bytes, 64 MB at the limit, and
the packed rows they are built from half that again, so a two-line file
cannot ask for more memory than that.
"""


def from_edge_list(
    edges: np.ndarray | Iterable[tuple[int, int]], n: int | None = None
) -> OrientedGraph:
    """Graph of order n (1 + the largest endpoint when None) on the given arcs.

    `edges` is an (m, 2) integer array or an iterable of (u, v) pairs.  A
    faulty arc raises the error of the first one in order: out of range
    (BadParams), a loop, a repeat, or the reverse of an earlier arc.
    """
    try:
        arcs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    except OverflowError as exc:
        raise BadParams(f"an endpoint is out of range: {exc}") from exc
    if arcs.size == 0:
        arcs = arcs.reshape(0, 2)
    if arcs.ndim != 2 or arcs.shape[1] != 2:
        raise BadParams(f"arcs must be (u, v) pairs, got an array of shape {arcs.shape}")
    tails, heads = arcs[:, 0], arcs[:, 1]
    if n is None:
        n = 1 + int(arcs.max(initial=-1))
    if not 0 <= n <= MAX_EDGELIST_ORDER:
        raise BadParams(f"n must be in 0..{MAX_EDGELIST_ORDER}, got {n}")
    if arcs.size and not 0 <= arcs.min() <= arcs.max() < n:
        raise _first_arc_fault(tails, heads, n)
    out_masks = _packed_rows(tails, heads, n)
    in_masks = _packed_rows(heads, tails, n)
    # every arc sets one bit, so a repeat shows as a bit short, and a 2-cycle
    # as a vertex with the same neighbour on both sides
    if (
        (tails == heads).any()
        or sum(mask.bit_count() for mask in out_masks) != len(arcs)
        or any(out_mask & in_mask for out_mask, in_mask in zip(out_masks, in_masks))
    ):
        raise _first_arc_fault(tails, heads, n)
    return OrientedGraph(n, out_masks, in_masks)


def _packed_rows(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[int, ...]:
    """Row masks of an n x n 0/1 matrix, one Python int per row, from its 1-cells."""
    width = (n + 7) // 8
    packed = np.zeros((n, width), dtype=np.uint8)
    bit = np.left_shift(1, (cols & 7).astype(np.uint8), dtype=np.uint8)
    np.bitwise_or.at(packed, (rows, cols >> 3), bit)
    data = packed.tobytes()
    return tuple(int.from_bytes(data[r * width : (r + 1) * width], "little") for r in range(n))


def _first_arc_fault(tails: np.ndarray, heads: np.ndarray, n: int) -> AltPathError:
    """Error of the first arc that is out of range, a loop, a repeat or an earlier arc's reverse."""
    outside = (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n)
    stop = int(np.argmax(outside)) if outside.any() else len(tails)
    loop = repeat = reverse = stop
    if stop:
        t, h = tails[:stop], heads[:stop]
        key, reverse_key = t * n + h, h * n + t
        # a stable sort puts each key's first arc at the head of its run
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        run_head = np.r_[True, sorted_key[1:] != sorted_key[:-1]]
        keys, first_arc = sorted_key[run_head], order[run_head]
        at = np.minimum(np.searchsorted(keys, reverse_key), len(keys) - 1)
        is_reverse = (keys[at] == reverse_key) & (first_arc[at] < np.arange(stop))
        loop, reverse = (int(np.argmax(f)) if f.any() else stop for f in (t == h, is_reverse))
        repeat = int(order[~run_head].min(initial=stop))
    i = min(stop, loop, repeat, reverse)
    u, v = int(tails[i]), int(heads[i])
    if i == stop:
        return BadParams(f"edge ({u},{v}) out of range for n={n}")
    if i == loop:
        return LoopEdge(f"loop at vertex {u}")
    if i == repeat:
        return DuplicateEdge(f"edge ({u},{v}) repeated")
    return TwoCycle(f"both ({u},{v}) and ({v},{u}) present")


def min_semidegree(g: OrientedGraph) -> int:
    if g.n == 0:
        raise EmptyGraph("semidegree undefined on the empty vertex set")
    return g.degree_summary.min_semidegree


def min_pseudo_semidegree(g: OrientedGraph) -> int | None:
    """Minimum over all strictly positive in/out degrees; None iff no edges."""
    return g.degree_summary.min_pseudo_semidegree


def blowup_directed_cycle(t: int, b: int) -> OrientedGraph:
    """t classes of b vertices; all edges from class i to class i+1 (mod t)."""
    if t < 3 or b < 1:
        raise BadParams(f"need t >= 3 and b >= 1, got t={t}, b={b}")
    n = t * b
    out_masks = [0] * n
    in_masks = [0] * n
    for i in range(t):
        nxt = (i + 1) % t
        src = range(i * b, (i + 1) * b)
        dst_mask = ((1 << b) - 1) << (nxt * b)
        for u in src:
            out_masks[u] |= dst_mask
        for v in bits(dst_mask):
            for u in src:
                in_masks[v] |= 1 << u
    return OrientedGraph(n, tuple(out_masks), tuple(in_masks))


def random_oriented(n: int, p: float, seed: int) -> OrientedGraph:
    """Each unordered pair independently present with probability p, orientation fair."""
    if not 0.0 <= p <= 1.0:
        raise BadParams(f"p must be in [0,1], got {p}")
    rng = random.Random(seed)
    out_masks = [0] * n
    in_masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                a, b2 = (u, v) if rng.random() < 0.5 else (v, u)
                out_masks[a] |= 1 << b2
                in_masks[b2] |= 1 << a
    return OrientedGraph(n, tuple(out_masks), tuple(in_masks))


def pair_order(n: int) -> list[tuple[int, int]]:
    """Lexicographic unordered-pair order used by exhaustive enumeration."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def num_oriented(n: int) -> int:
    return 3 ** (n * (n - 1) // 2)


# decode_codes reads a code's base-3 digits this many at a time
_DIGIT_BLOCK = 5


@lru_cache(maxsize=None)
def _digit_tables(n: int, minors: bool = False) -> tuple[np.ndarray, ...]:
    """Per block of _DIGIT_BLOCK pairs of pair_order(n), its stacked int64 tables.

    A block has one (n, 3^_DIGIT_BLOCK) table per kind of value: out masks
    and in masks, and with minors also minor codes and star words, as
    decode_codes defines them.  Column d of a table holds what the digits
    of d, given to the block's pairs with the first pair's digit least
    significant, add to each vertex's value.  Each pair adds to its own
    bits or digits, so a code's values are the sums over its blocks.
    """
    pairs = pair_order(n)
    minor_index = {pair: q for q, pair in enumerate(pair_order(n - 1))}
    values = np.arange(3 ** _DIGIT_BLOCK)
    tables = []
    for lo in range(0, len(pairs), _DIGIT_BLOCK):
        table = np.zeros((4 if minors else 2, n, values.size), dtype=np.int64)
        out_table, in_table, *minor_tables = table
        for i, (u, v) in enumerate(pairs[lo:lo + _DIGIT_BLOCK]):
            digit = values // 3 ** i % 3
            forward = (digit == 1).astype(np.int64)
            backward = (digit == 2).astype(np.int64)
            out_table[u] += forward << v
            in_table[v] += forward << u
            out_table[v] += backward << u
            in_table[u] += backward << v
            if minors:
                minor_table, star_table = minor_tables
                for w in range(n):
                    if w != u and w != v:
                        minor_table[w] += digit * 3 ** minor_index[u - (u > w), v - (v > w)]
                # v is vertex v - 1 of G - u, and u vertex u of G - v
                star_table[u] += (forward << 2 * (v - 1)) | (backward << 2 * (v - 1) + 1)
                star_table[v] += (backward << 2 * u) | (forward << 2 * u + 1)
        tables.append(table)
    return tuple(tables)


def decode_codes(n: int, codes, minors: bool = False) -> tuple[np.ndarray, ...]:
    """(B, n) int64 out/in mask arrays of order-n base-3 codes.

    Digit order is pair_order, digit values absent/forward/backward.

    With minors, two more (B, n) int64 arrays follow, both read in the
    labels of G - w, G without vertex w, whose vertices above w move down
    by one: the code of G - w at [b, w], and w's star word, which has bit
    2x for an arc from w to x and bit 2x + 1 for an arc from x to w.  The
    minor codes must fit int64, which holds up to n = 10.
    """
    rest = np.asarray(codes, dtype=np.int64)
    # built vertex-major, so each vertex's values are one contiguous row; and
    # one array per kind of value, as one array of all four made each call
    # fault in its pages afresh
    values = [np.zeros((n, rest.size), dtype=np.int64) for _ in range(4 if minors else 2)]
    for tables in _digit_tables(n, minors):
        high = rest // 3 ** _DIGIT_BLOCK
        digits = (rest - high * 3 ** _DIGIT_BLOCK).astype(np.intp)
        rest = high
        for part, table in zip(values, tables):
            part += np.take(table, digits, axis=1)
    return tuple(part.T for part in values)


def _bit_counts(masks: np.ndarray, n: int) -> np.ndarray:
    if masks.dtype == np.int64 and hasattr(np, "bitwise_count"):
        # numpy >= 2; the masks of orders below 64 are non-negative
        return np.bitwise_count(masks).astype(np.int64)
    counts = np.zeros_like(masks)
    for v in range(n):
        counts += (masks >> v) & 1
    return counts


def degree_columns(
    out_masks: np.ndarray, in_masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DegreeSummary of each graph in a (B, n) mask batch, as (B,) int64 columns.

    Returns (min semidegree, pseudo-semidegree, edge count), with -1 where
    the summary has None: the semidegree at n == 0, the pseudo-semidegree
    without edges.
    """
    n = out_masks.shape[1]
    d_out, d_in = _bit_counts(out_masks, n), _bit_counts(in_masks, n)
    edges = d_out.sum(axis=1)
    lo, hi = np.minimum(d_out, d_in), np.maximum(d_out, d_in)
    semi = lo.min(axis=1, initial=n) if n else np.full(len(edges), -1)
    # the smaller positive side per vertex; an isolated vertex counts as n
    positive = np.where(lo > 0, lo, np.where(hi > 0, hi, n))
    pseudo = np.where(edges > 0, positive.min(axis=1, initial=n), -1)
    return semi, pseudo, edges


# --- file formats ---------------------------------------------------------


# Byte classes of the edge-list reader.  Its separators and line breaks are
# the ASCII ones of Python's str.split and str.splitlines.
_SEP, _BREAK, _DIGIT, _SIGN, _OTHER = range(5)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\x1f")] = _SEP
_BYTE_CLASS[list(b"\n\r\x0b\x0c\x1c\x1d\x1e")] = _BREAK
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b"+-")] = _SIGN
# an endpoint is decoded from its last 18 digits; a non-zero digit before
# them makes it 10**18, out of range for any order
_EXACT_DIGITS = 18


def parse_edgelist(text: str | bytes) -> OrientedGraph:
    """ASCII decimal `u v` lines, spaces/tabs, LF/CRLF, `#` comments, optional first `n=<order>`.

    The order, given or implied, is at most MAX_EDGELIST_ORDER.  A malformed
    line raises FormatError naming the first one; a faulty arc, the error of
    from_edge_list naming the first one in file order.
    """
    arcs, n = _edgelist_columns(text.encode() if isinstance(text, str) else text)
    return from_edge_list(arcs, n)


def _edgelist_columns(data: bytes) -> tuple[np.ndarray, int | None]:
    """(m, 2) arcs and header order of an edge list, read in one pass over its bytes."""
    buf = np.frombuffer(data, dtype=np.uint8)
    kind = _BYTE_CLASS[buf]
    breaks = kind == _BREAK
    # a CRLF is one line break, at its CR; its LF then separates like a space
    after_cr = np.flatnonzero(buf[:-1] == ord("\r")) + 1
    breaks[after_cr] &= buf[after_cr] != ord("\n")
    starts, ends, nondigit = _tokens(buf, kind, breaks)
    n, first = _check_lines(data, kind, breaks, starts, ends, nondigit)
    values = _decimals(buf, starts[first:], ends[first:])
    if n is None and values.size and values.max() >= MAX_EDGELIST_ORDER:
        token = first + int(np.argmax(values >= MAX_EDGELIST_ORDER))
        endpoint = data[starts[token] : ends[token]].decode()
        raise FormatError(
            f"line {_lineno(breaks, starts[token])}: endpoint {endpoint} "
            f"needs an order above the limit {MAX_EDGELIST_ORDER}"
        )
    return values.reshape(-1, 2), n


def _tokens(
    buf: np.ndarray, kind: np.ndarray, breaks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starts and ends of the tokens outside comments, and where their non-digit bytes are."""
    in_token = kind >= _DIGIT
    hashes = np.flatnonzero(buf == ord("#"))
    if hashes.size:
        line_ends = np.flatnonzero(breaks)
        # each line's first '#' opens a comment that runs to its line break
        comment_end = np.append(line_ends, buf.size)[np.searchsorted(line_ends, hashes)]
        opens = np.r_[True, comment_end[1:] != comment_end[:-1]]
        depth = np.zeros(buf.size + 1, dtype=np.int8)
        depth[hashes[opens]] = 1
        depth[comment_end[opens]] = -1
        in_token &= np.cumsum(depth[:-1], dtype=np.int8) == 0
    bounds = np.flatnonzero(np.diff(in_token, prepend=False, append=False))
    return bounds[0::2], bounds[1::2], np.flatnonzero(in_token & (kind != _DIGIT))


def _lineno(breaks: np.ndarray, position: int) -> int:
    return 1 + int(np.count_nonzero(breaks[:position]))


def _check_lines(
    data: bytes,
    kind: np.ndarray,
    breaks: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    nondigit: np.ndarray,
) -> tuple[int | None, int]:
    """Header order (None without a header) and first arc token of a well-formed edge list.

    Raises FormatError naming the first malformed line.
    """
    opens_line = np.ones(len(starts), dtype=bool)
    if len(starts) > 1:
        # a token opens a line when a break lies between it and the one before
        gaps = np.column_stack((ends[:-1], starts[1:])).ravel()
        opens_line[1:] = np.logical_or.reduceat(breaks, gaps)[0::2]
    line_first = np.flatnonzero(opens_line)
    line_tokens = np.diff(line_first, append=len(starts))

    def line_text(line: int) -> str:
        first = line_first[line]
        return data[starts[first] : ends[first + line_tokens[line] - 1]].decode()

    n = None
    edge_lines = 0
    if len(line_first) and line_text(0).startswith("n="):
        n = _header_order(_lineno(breaks, starts[0]), line_text(0))
        edge_lines = 1
    # every later line holds two decimals, each with at most a leading sign
    token = np.searchsorted(starts, nondigit, side="right") - 1
    sign = (nondigit == starts[token]) & (kind[nondigit] == _SIGN) & (ends[token] - nondigit > 1)
    bad_lines = np.searchsorted(line_first, token[~sign], side="right") - 1
    bad_lines = np.r_[
        bad_lines[bad_lines >= edge_lines],
        np.flatnonzero(line_tokens[edge_lines:] != 2) + edge_lines,
    ]
    if bad_lines.size:
        line = int(bad_lines.min())
        raise _line_fault(_lineno(breaks, starts[line_first[line]]), line_text(line))
    return n, int(line_first[edge_lines]) if edge_lines < len(line_first) else len(starts)


def _decimals(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """int64 values of the tokens, each digits with at most a leading sign."""
    position = starts + ((buf[starts] == ord("-")) | (buf[starts] == ord("+")))
    digits = np.minimum(ends - position, _EXACT_DIGITS + 1).astype(np.uint8)
    long = np.flatnonzero(digits > _EXACT_DIGITS)
    leading = np.column_stack((position[long], ends[long] - _EXACT_DIGITS)).ravel()
    position[long] = ends[long] - _EXACT_DIGITS
    # Horner's rule, left to right, one digit of every token at a time
    values = np.zeros(len(starts), dtype=np.int64)
    for offset in range(min(int(digits.max(initial=0)), _EXACT_DIGITS)):
        more = digits > offset
        np.multiply(values, 10, out=values, where=more)
        np.add(values, buf.take(position, mode="clip") - ord("0"), out=values, where=more)
        position += 1
    if long.size:
        values[long[np.logical_or.reduceat(buf != ord("0"), leading)[0::2]]] = 10**_EXACT_DIGITS
    np.negative(values, out=values, where=buf[starts] == ord("-"))
    return values


def _header_order(lineno: int, line: str) -> int:
    try:
        n = int(line[2:])
    except ValueError as exc:
        raise FormatError(f"line {lineno}: bad header {line!r}") from exc
    if n < 0:
        raise FormatError(f"line {lineno}: negative order in {line!r}")
    if n > MAX_EDGELIST_ORDER:
        raise FormatError(f"line {lineno}: order {n} is above the limit {MAX_EDGELIST_ORDER}")
    return n


def _line_fault(lineno: int, line: str) -> FormatError:
    """FormatError of a non-blank line after the first that is not two decimals."""
    if line.startswith("n="):
        return FormatError(f"line {lineno}: header must come first")
    if len(line.split()) != 2:
        return FormatError(f"line {lineno}: expected 'u v', got {line!r}")
    return FormatError(f"line {lineno}: non-integer endpoint in {line!r}")


def to_edgelist(g: OrientedGraph) -> str:
    """Byte-stable serialization: header, then lexicographically sorted edges."""
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges()))
    return "\n".join(lines) + "\n"


def parse_digraph6(line: str) -> OrientedGraph:
    """One digraph6 line (nauty format); rejects loops and 2-cycles."""
    s = line.strip()
    if s.startswith(">>digraph6<<"):
        s = s[len(">>digraph6<<"):]
    if not s.startswith("&"):
        raise FormatError("digraph6 line must start with '&'")
    s = s[1:]
    if not s:
        raise FormatError("empty digraph6 body")
    first = ord(s[0]) - 63
    if first == 63:
        raise TooLarge("digraph6 graphs with n > 62 not supported")
    if not 0 <= first <= 62:
        raise FormatError("bad digraph6 size byte")
    n = first
    body = s[1:]
    need = (n * n + 5) // 6
    if len(body) < need:
        raise FormatError("digraph6 body too short")
    bitstream = 0
    for ch in body[:need]:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise FormatError(f"bad digraph6 byte {ch!r}")
        bitstream = (bitstream << 6) | val
    total_bits = need * 6
    edges = []
    for i in range(n * n):
        if (bitstream >> (total_bits - 1 - i)) & 1:
            edges.append((i // n, i % n))
    return from_edge_list(edges, n)


def load_graph(path: str, fmt: str = "edgelist") -> OrientedGraph:
    with open(path, "rb") as f:
        data = f.read()
    if not data.isascii():
        offset = int(np.argmax(np.frombuffer(data, dtype=np.uint8) >= 0x80))
        raise FormatError(f"{path}: non-ASCII byte at offset {offset}")
    if fmt == "edgelist":
        return parse_edgelist(data)
    if fmt == "digraph6":
        for line in data.decode("ascii").splitlines():
            if line.strip():
                return parse_digraph6(line)
        raise FormatError(f"no digraph6 line in {path}")
    raise BadParams(f"unknown format {fmt!r}")
