"""Pattern graphs and their text formats.

A pattern is a small undirected simple graph on vertices 0..k-1 (labels are
0-based everywhere, including the edge-list file format).  Isolated vertices
are allowed; the one-vertex pattern is legal.  Two text formats are accepted:

adjacency matrix
    k lines of k whitespace-separated entries; entries must be 0 or 1, the
    matrix symmetric, and the diagonal zero.

edge list
    first nonblank line is the vertex count k; every further nonblank line is
    ``u v`` with 0 <= u, v < k.  Duplicate edges collapse.

Pattern size is capped at `DEFAULT_MAX_VERTICES` vertices, by the parsers,
the builtins and the moment engine alike: the engine's overlap sum visits
one representative per automorphism orbit of the ordered tuples of distinct
vertices of one pattern, about e * k! / |Aut| of them and at most e * k!,
so for a pattern with little symmetry each added vertex multiplies the cost
by about k (the variance of an 8-vertex pattern with |Aut| = 1 takes
0.2-0.3 s on a 2-vCPU Intel Xeon).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .algebra import _Record

DEFAULT_MAX_VERTICES = 8

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
    the same edge.  Self-loops and out-of-range endpoints are rejected.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 1:
            raise ValueError("a pattern needs at least one vertex")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"edge ({u}, {v}) is out of range for {vertex_count} vertices"
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


def _check_size(vertex_count: int) -> None:
    if vertex_count > DEFAULT_MAX_VERTICES:
        raise ValueError(
            f"pattern has {vertex_count} vertices, above the engine maximum of "
            f"{DEFAULT_MAX_VERTICES}: the overlap sum visits about e * k! / |Aut| "
            f"ordered vertex tuples, at most e * k!, so each added vertex can "
            f"multiply its cost by about k"
        )


def parse_adjacency_matrix(text: str) -> PatternGraph:
    """Parse a k x k adjacency matrix; entry (u, v) = 1 means edge {u, v}.

    Rejects non-square input, entries other than 0/1, asymmetric matrices and
    nonzero diagonals, each with a distinct message.  The size cap is checked
    on the line count, before any row is split.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty pattern input")
    k = len(lines)
    _check_size(k)
    matrix: list[list[int]] = []
    for i, line in enumerate(lines):
        row = line.split()
        if len(row) != k:
            raise ValueError(
                f"adjacency matrix must be square: row {i} has {len(row)} "
                f"entries, expected {k}"
            )
        entries = []
        for j, token in enumerate(row):
            if token not in ("0", "1"):
                raise ValueError(
                    f"adjacency matrix entries must be 0 or 1, found {token!r} "
                    f"at row {i}, column {j}"
                )
            entries.append(int(token))
        matrix.append(entries)
    for i in range(k):
        if matrix[i][i] != 0:
            raise ValueError(
                f"adjacency matrix must have a zero diagonal, entry ({i}, {i}) is 1"
            )
    for i in range(k):
        for j in range(i + 1, k):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError(
                    f"adjacency matrix must be symmetric, entries "
                    f"({i}, {j}) and ({j}, {i}) differ"
                )
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if matrix[i][j]]
    return PatternGraph(k, edges)


def parse_edge_list(text: str) -> PatternGraph:
    """Parse an edge list: first nonblank line is k, then one ``u v`` per line.

    Self-loops and out-of-range endpoints are rejected by `PatternGraph`.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty pattern input")
    try:
        (k,) = map(int, lines[0].split())
    except ValueError:
        raise ValueError(
            f"edge list must start with the vertex count, got {lines[0].strip()!r}"
        ) from None
    if k < 1:
        raise ValueError("edge list vertex count must be >= 1")
    _check_size(k)
    edges = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"cannot parse edge list line {line.strip()!r}: expected 'u v'")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(
                f"cannot parse edge list line {line.strip()!r}: expected integers"
            ) from None
        edges.append((u, v))
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
            raise ValueError(f"unknown pattern family {family!r} in {name!r}")
        if not tail.isdecimal():
            raise ValueError(f"pattern parameter in {name!r} must be a positive integer")
        size = int(tail)
        if size < 1:
            raise ValueError(f"pattern parameter in {name!r} must be >= 1")
    else:
        known = ", ".join(sorted(_FIXED_BUILTINS))
        raise ValueError(
            f"unknown builtin pattern {name!r} (known: {known}; "
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
