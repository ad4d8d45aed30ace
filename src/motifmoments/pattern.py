"""Pattern graphs and their text formats.

A pattern is a small undirected simple graph on vertices 0..k-1 (labels are
0-based everywhere, including the edge-list file format).  Isolated vertices
are allowed; the one-vertex pattern is legal.  Two text formats are accepted:

adjacency matrix
    k lines of k whitespace-separated entries; entries must be 0 or 1, the
    matrix symmetric, and the diagonal zero.

edge list
    first nonblank line is the vertex count k, an optional ``+`` and decimal
    digits; every further nonblank line is ``u v`` with 0 <= u, v < k, each
    spelled like k.  Duplicate edges collapse.

`parse_pattern_text` tells the two apart from the first nonblank line.

Pattern size is capped at `DEFAULT_MAX_VERTICES` vertices, by the parsers,
the builtins and the moment engine alike; `moments` says how the cost of the
overlap sum grows with k.  A vertex count or builtin parameter of more than
20 significant digits is refused with the cap message before it is
converted.  Each line is split at most once past what a valid line holds, so
an overlong line is refused after one extra token, and integers echoed in
messages are cut to 40 characters.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence

from .algebra import _Record

DEFAULT_MAX_VERTICES = 8

# Node caps of the exhaustive oracle: 6 nodes means 2^15 = 32768 graphs;
# 7 (opt-in, with a warning) means 2^21 = 2097152.  They live here, beside
# the pattern cap, so that the CLI can state them without loading the oracle.
DEFAULT_NODE_CAP = 6
MAX_NODE_CAP = 7

_FIXED_BUILTINS = {
    "node": ("clique", 1),
    "edge": ("clique", 2),
    "wedge": ("path", 3),
    "triangle": ("clique", 3),
    "square": ("cycle", 4),
    "k4": ("clique", 4),
}


class PatternGraph(_Record):
    """Undirected simple graph on vertices 0..k-1; immutable once built.

    Edges are stored as (u, v) tuples with u < v, so {u, v} and {v, u} are
    the same edge.  Self-loops and out-of-range endpoints are rejected.  The
    vertex count and the endpoints go through `operator.index`: a float
    raises TypeError, and bools and int subclasses are stored as plain ints.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        vertex_count = operator.index(vertex_count)
        if vertex_count < 1:
            raise ValueError("a pattern needs at least one vertex")
        normalized = set()
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {_numbers(u)} is not allowed")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"edge ({_numbers(u)}, {_numbers(v)}) is out of range for "
                    f"{_numbers(vertex_count)} vertices"
                )
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges in a fixed deterministic order."""
        return tuple(sorted(self.edges))


def _above_cap(vertices: str) -> ValueError:
    return ValueError(
        f"pattern has {vertices} vertices, above the engine maximum of "
        f"{DEFAULT_MAX_VERTICES}: the overlap sum visits about e * k! / |Aut| "
        f"ordered vertex tuples, or 2^e edge subsets where that costs less, so "
        f"each added vertex can multiply the cost of a dense pattern with "
        f"little symmetry by about k"
    )


def _check_size(vertex_count: int) -> None:
    if vertex_count > DEFAULT_MAX_VERTICES:
        raise _above_cap(_numbers(vertex_count))


def _digits(text: str) -> str | None:
    """The digits of `text` if it spells a nonnegative integer: at most one
    leading ``+``, then decimal digits.  None for any other text."""
    digits = text.removeprefix("+")
    return digits if digits.isdecimal() else None


def _count(text: str) -> int | None:
    """The integer a vertex count or builtin parameter spells, by `_digits`;
    None for any other text.

    int() refuses more than 4300 digits, leading zeros included, so the
    zeros are dropped first, and more than 20 significant digits get the
    cap message before any conversion; the message then echoes no digits.
    """
    digits = _digits(text)
    if digits is None:
        return None
    digits = digits.lstrip("0")
    if len(digits) > 20:
        raise _above_cap("at least 10**20")
    return int(digits or "0")


def _excerpt(text: str) -> str:
    """repr of `text`, cut after 40 characters to keep messages short."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


def _numbers(*values: int) -> str:
    """The integers comma-separated, cut after 40 characters like `_excerpt`."""
    text = ", ".join(map(_number, values))
    return text if len(text) <= 40 else f"{text[:40]}..."


def _number(value: int) -> str:
    """str(value), or ~10**E for an integer of more than 14000 bits (str()
    refuses more than 4300 digits), E read from its logarithm."""
    if abs(value).bit_length() <= 14000:  # at most 4215 digits
        return str(value)
    return f"{'-' if value < 0 else ''}~10**{round(math.log10(abs(value)))}"


def _lines(text: str) -> list[str]:
    """The nonblank lines of `text`; input without one is refused."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty pattern input")
    return lines


def parse_pattern_text(text: str) -> PatternGraph:
    """Parse either text format, telling them apart by the first nonblank line.

    A first line with several tokens is an adjacency-matrix row.  A
    single-token first line is ``0`` for the one-vertex adjacency matrix
    (the only 1x1 matrix with a zero diagonal) or a vertex count starting an
    edge list.  The first line's split is dropped before the parser splits
    it again, so a long row 0 costs what a long later row does.
    """
    first = _lines(text)[0].split(maxsplit=1)
    parse = parse_adjacency_matrix if len(first) > 1 or first[0] == "0" else parse_edge_list
    del first
    return parse(text)


def parse_adjacency_matrix(text: str) -> PatternGraph:
    """Parse a k x k adjacency matrix; entry (u, v) = 1 means edge {u, v}.

    Rejects non-square input, entries other than 0/1, asymmetric matrices and
    nonzero diagonals, each with a distinct message.  The size cap is checked
    on the line count, before any row is split.
    """
    lines = _lines(text)
    k = len(lines)
    _check_size(k)
    rows = []
    for i, line in enumerate(lines):
        row = line.split(maxsplit=k)
        if len(row) != k:
            entries = len(row) if len(row) < k else f"more than {k}"
            raise ValueError(
                f"adjacency matrix must be square: row {i} has {entries} "
                f"entries, expected {k}"
            )
        for j, token in enumerate(row):
            if token not in ("0", "1"):
                raise ValueError(
                    f"adjacency matrix entries must be 0 or 1, found {token!r} "
                    f"at row {i}, column {j}"
                )
        rows.append(row)
    for i in range(k):
        if rows[i][i] != "0":
            raise ValueError(
                f"adjacency matrix must have a zero diagonal, entry ({i}, {i}) is 1"
            )
    for i in range(k):
        for j in range(i + 1, k):
            if rows[i][j] != rows[j][i]:
                raise ValueError(
                    f"adjacency matrix must be symmetric, entries "
                    f"({i}, {j}) and ({j}, {i}) differ"
                )
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if rows[i][j] == "1"]
    return PatternGraph(k, edges)


def parse_edge_list(text: str) -> PatternGraph:
    """Parse an edge list: first nonblank line is k, then one ``u v`` per line.

    Self-loops and out-of-range endpoints are rejected by `PatternGraph`.
    """
    lines = _lines(text)
    header = lines[0].split(maxsplit=1)
    k = _count(header[0]) if len(header) == 1 else None
    if k is None:
        raise ValueError(
            f"edge list must start with the vertex count, got {_excerpt(lines[0].strip())}"
        )
    if k < 1:
        raise ValueError("edge list vertex count must be >= 1")
    _check_size(k)
    edges = []
    for line in lines[1:]:
        tokens = line.split(maxsplit=2)
        if len(tokens) != 2:
            raise ValueError(
                f"cannot parse edge list line {_excerpt(line.strip())}: expected 'u v'"
            )
        u, v = map(_digits, tokens)
        try:
            # int(None) is a TypeError; int() refuses more than 4300 digits
            edges.append((int(u), int(v)))
        except (TypeError, ValueError):
            raise ValueError(
                f"cannot parse edge list line {_excerpt(line.strip())}: expected integers"
            ) from None
    return PatternGraph(k, edges)


def _clique(size: int) -> PatternGraph:
    return PatternGraph(size, [(u, v) for u in range(size) for v in range(u + 1, size)])


def _cycle(size: int) -> PatternGraph:
    if size < 3:
        raise ValueError("cycle:K requires K >= 3 (shorter cycles are not simple graphs)")
    return PatternGraph(size, [(v, (v + 1) % size) for v in range(size)])


def _path(size: int) -> PatternGraph:
    return PatternGraph(size, [(v, v + 1) for v in range(size - 1)])


def _star(leaves: int) -> PatternGraph:
    return PatternGraph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


_FAMILIES = {"clique": _clique, "cycle": _cycle, "path": _path, "star": _star}


def builtin(name: str) -> PatternGraph:
    """Builtin pattern by name.

    Fixed names: node, edge, wedge (path on 3 vertices), triangle, square
    (4-cycle), k4.  Parameterized: clique:K, cycle:K (K >= 3), path:K (K
    vertices), star:K (K leaves).
    """
    key = name.strip().lower()
    if key in _FIXED_BUILTINS:
        family, size = _FIXED_BUILTINS[key]
    elif ":" in key:
        family, _, tail = key.partition(":")
        if family not in _FAMILIES:
            raise ValueError(f"unknown pattern family {_excerpt(family)} in {_excerpt(name)}")
        size = _count(tail)
        if size is None:
            raise ValueError(
                f"pattern parameter in {_excerpt(name)} must be a positive integer"
            )
        if size < 1:
            raise ValueError(f"pattern parameter in {_excerpt(name)} must be >= 1")
    else:
        known = ", ".join(sorted(_FIXED_BUILTINS))
        raise ValueError(
            f"unknown builtin pattern {_excerpt(name)} (known: {known}; "
            f"parameterized: clique:K, cycle:K, path:K, star:K)"
        )
    _check_size(size + 1 if family == "star" else size)
    return _FAMILIES[family](size)


def builtin_names() -> tuple[str, ...]:
    """The fixed builtin names, in a stable order."""
    return tuple(_FIXED_BUILTINS)


def relabel(pattern: PatternGraph, permutation: Sequence[int]) -> PatternGraph:
    """Same graph with vertex v renamed to permutation[v]."""
    k = pattern.vertex_count
    if sorted(permutation) != list(range(k)):
        raise ValueError(f"relabeling must be a bijection on 0..{k - 1}")
    return PatternGraph(k, ((permutation[u], permutation[v]) for u, v in pattern.edges))
