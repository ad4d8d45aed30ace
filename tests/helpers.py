"""Shared test fixtures: frozen golden coefficients, independent oracles,
pattern writers, a subgraph counter, a few named 8-vertex patterns and a
runner for code in a fresh interpreter.

The golden coefficient tables below are frozen reference values for the six
builtin patterns (ascending degree order, entry i = coefficient of n**i).
`falling_from_roots` expands n(n-1)...(n-k+1) through elementary symmetric
polynomials of the roots, a route entirely separate from the package's
repeated-multiplication implementation.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import motifmoments
from motifmoments import PatternGraph, RationalPolynomial, automorphism_count
from motifmoments.oracle import _edge_prefix_lists, _ordered_embedding_count

F = Fraction

GOLDEN_MEANS = {
    "node": (0, 1),
    "edge": (0, F(-1, 4), F(1, 4)),
    "wedge": (0, F(1, 4), F(-3, 8), F(1, 8)),
    "triangle": (0, F(1, 24), F(-1, 16), F(1, 48)),
    "square": (0, F(-3, 64), F(11, 128), F(-3, 64), F(1, 128)),
    "k4": (0, F(-1, 256), F(11, 1536), F(-1, 256), F(1, 1536)),
}

GOLDEN_VARIANCES = {
    "node": (),
    "edge": (0, F(-1, 8), F(1, 8)),
    "wedge": (0, F(-7, 16), F(29, 32), F(-19, 32), F(1, 8)),
    "triangle": (0, F(-1, 96), F(1, 32), F(-11, 384), F(1, 128)),
    "square": (
        0,
        F(-63, 1024),
        F(327, 2048),
        F(-163, 1024),
        F(161, 2048),
        F(-5, 256),
        F(1, 512),
    ),
    "k4": (
        0,
        F(-11, 16384),
        F(115, 98304),
        F(-73, 98304),
        F(19, 49152),
        F(-17, 98304),
        F(1, 32768),
    ),
}

GOLDEN_COV_EDGE_TRIANGLE = (0, F(1, 16), F(-3, 32), F(1, 32))


def coeffs(poly: RationalPolynomial) -> tuple[Fraction, ...]:
    return poly.coeffs


def as_poly(values) -> RationalPolynomial:
    return RationalPolynomial(values)


def falling_from_roots(k: int) -> RationalPolynomial:
    """Independent expansion of the falling factorial via its roots 0..k-1:
    the coefficient of n**(k-j) is (-1)**j times the j-th elementary
    symmetric polynomial of the roots."""
    roots = list(range(k))
    elementary = [F(1)] + [F(0)] * k
    for root in roots:
        for j in range(k, 0, -1):
            elementary[j] += root * elementary[j - 1]
    out = [F(0)] * (k + 1)
    for j in range(k + 1):
        out[k - j] = (-1) ** j * elementary[j]
    return RationalPolynomial(out)


def parse_human(text: str) -> RationalPolynomial:
    """Parser for the CLI's human polynomial format (round-trip checking)."""
    text = text.strip()
    if text == "0":
        return RationalPolynomial()
    terms = text.replace(" - ", " + -").split(" + ")
    by_degree: dict[int, Fraction] = {}
    for term in terms:
        term = term.strip()
        negative = term.startswith("-")
        if negative:
            term = term[1:].strip()
        if " " in term:
            coeff_text, variable = term.split(" ", 1)
        elif term.startswith("n"):
            coeff_text, variable = "1", term
        else:
            coeff_text, variable = term, ""
        variable = variable.strip()
        if not variable:
            degree = 0
        elif variable == "n":
            degree = 1
        else:
            assert variable.startswith("n^"), f"bad term {term!r}"
            degree = int(variable[2:])
        value = Fraction(coeff_text)
        assert degree not in by_degree, f"duplicate degree in {text!r}"
        by_degree[degree] = -value if negative else value
    out = [F(0)] * (max(by_degree) + 1)
    for degree, value in by_degree.items():
        out[degree] = value
    return RationalPolynomial(out)


def run_child(code: str, *args: str, stdin: str = "") -> str:
    """stdout of ``python -S -c code args`` importing the package under test.
    -S, because a site .pth file may preload any module."""
    src = str(Path(motifmoments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        input=stdin, capture_output=True, text=True, check=True, env=env,
    ).stdout


def to_adjacency_text(pattern: PatternGraph) -> str:
    """Render as adjacency-matrix text; parse_adjacency_matrix round-trips it."""
    k = pattern.vertex_count
    matrix = [[0] * k for _ in range(k)]
    for u, v in pattern.edges:
        matrix[u][v] = matrix[v][u] = 1
    return "\n".join(" ".join(str(x) for x in row) for row in matrix)


def to_edge_list_text(pattern: PatternGraph) -> str:
    """Render as edge-list text; parse_edge_list round-trips it."""
    lines = [str(pattern.vertex_count)]
    lines.extend(f"{u} {v}" for u, v in pattern.sorted_edges())
    return "\n".join(lines)


def disjoint_union(p: PatternGraph, q: PatternGraph) -> PatternGraph:
    """p and q side by side, q's vertices shifted past p's."""
    k = p.vertex_count
    return PatternGraph(k + q.vertex_count, [*p.edges, *((u + k, v + k) for u, v in q.edges)])


def cube() -> PatternGraph:
    """Q3: vertices are 3-bit words, adjacent when they differ in one bit."""
    return PatternGraph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b])


def automorphisms_bruteforce(pattern: PatternGraph) -> list[tuple[int, ...]]:
    """Every automorphism, found by filtering all k! permutations;
    cross-validates the search."""
    edges = pattern.edges
    return [
        perm
        for perm in permutations(range(pattern.vertex_count))
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges)
    ]


def automorphism_count_bruteforce(pattern: PatternGraph) -> int:
    return len(automorphisms_bruteforce(pattern))


def mask_edges(node_count: int, mask: int) -> list[tuple[int, int]]:
    """The node pairs (u, v), u < v, whose bit is set in mask; pair bits run in
    row-major upper-triangle order."""
    pairs = [(u, v) for u in range(node_count) for v in range(u + 1, node_count)]
    return [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]


def count_subgraphs(node_count: int, edges, pattern: PatternGraph) -> int:
    """Copies of the pattern in the graph on nodes 0..node_count-1 with these
    edges, non-induced (extra edges among the image nodes are fine).

    Counts injective maps with the oracle's backtracking and divides by the
    automorphism count; the division is exact, so a remainder fails."""
    adjacency = [0] * node_count
    for u, v in edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    ordered = _ordered_embedding_count(
        adjacency, node_count, pattern.vertex_count, _edge_prefix_lists(pattern)
    )
    copies, remainder = divmod(ordered, automorphism_count(pattern))
    assert remainder == 0, f"{ordered} ordered embeddings, |Aut| = {automorphism_count(pattern)}"
    return copies
