"""Oriented-graph representation, degrees, generators, and file formats.

Vertices are dense integers 0..n-1 and neighbor sets are machine-word
bitmasks, which keeps everything below n=64 cheap.  An oriented graph has
no loops and at most one of (u,v), (v,u) for every pair.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import (
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

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.out_masks[u] >> v) & 1)

    @property
    def edge_count(self) -> int:
        return self.degree_summary.edge_count

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.out_masks[u])]


def from_edge_list(edges: Iterable[tuple[int, int]], n: int | None = None) -> OrientedGraph:
    edges = list(edges)
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    if n < 0:
        raise BadParams(f"n must be >= 0, got {n}")
    out_masks = [0] * n
    in_masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise BadParams(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        if (out_masks[u] >> v) & 1:
            raise DuplicateEdge(f"edge ({u},{v}) repeated")
        if (out_masks[v] >> u) & 1:
            raise TwoCycle(f"both ({u},{v}) and ({v},{u}) present")
        out_masks[u] |= 1 << v
        in_masks[v] |= 1 << u
    return OrientedGraph(n, tuple(out_masks), tuple(in_masks))


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


def decode_codes(n: int, codes) -> tuple[np.ndarray, np.ndarray]:
    """(B, n) int64 out/in mask arrays of order-n base-3 codes.

    Digit order is pair_order, digit values absent/forward/backward.  Codes
    of orders whose code range outgrows int64 are decoded as Python ints.
    """
    rest = np.array(codes, dtype=np.int64 if num_oriented(n) <= 1 << 63 else object)
    # built vertex-major, so each vertex's masks are one contiguous row
    out_masks = np.zeros((n, rest.size), dtype=np.int64)
    in_masks = np.zeros((n, rest.size), dtype=np.int64)
    for u, v in pair_order(n):
        digit = rest % 3
        rest //= 3
        forward = (digit == 1).astype(np.int64)
        backward = (digit == 2).astype(np.int64)
        out_masks[u] |= forward << v
        in_masks[v] |= forward << u
        out_masks[v] |= backward << u
        in_masks[u] |= backward << v
    return out_masks.T, in_masks.T


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


def parse_edgelist(text: str) -> OrientedGraph:
    """Edge-list format: optional `n=<int>` header (n >= 0), `u v` lines, `#` comments."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if n is not None or edges:
                raise FormatError(f"line {lineno}: header must come first")
            try:
                n = int(line[2:])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad header {line!r}") from exc
            if n < 0:
                raise FormatError(f"line {lineno}: negative order in {line!r}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: non-integer endpoint in {line!r}") from exc
        edges.append((u, v))
    return from_edge_list(edges, n)


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
    try:
        with open(path, "r", encoding="ascii") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: non-ASCII byte at offset {exc.start}") from exc
    if fmt == "edgelist":
        return parse_edgelist(text)
    if fmt == "digraph6":
        for line in text.splitlines():
            if line.strip():
                return parse_digraph6(line)
        raise FormatError(f"no digraph6 line in {path}")
    raise BadParams(f"unknown format {fmt!r}")
