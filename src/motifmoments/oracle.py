"""Exhaustive ground truth for subgraph-count moments at tiny sizes.

Every labeled graph on n nodes is enumerated (they are equally likely under
edge probability 1/2) and pattern occurrences are counted per graph by
injective-map backtracking, so the moments come straight from their
definition as averages over all 2^C(n,2) graphs.  Beyond the PatternGraph
type, Fraction scalars and the automorphism count, nothing is shared with
the polynomial engine: exact agreement between the two is meaningful
evidence that both are right.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .algebra import _Record, poly_eval_exact
from .moments import covariance_poly
from .pattern import PatternGraph
from .symmetry import automorphism_count

# Node caps for exhaustive enumeration: 6 nodes means 2^15 = 32768 graphs;
# 7 (opt-in, with a warning) means 2^21 = 2097152.
DEFAULT_NODE_CAP = 6
MAX_NODE_CAP = 7


def pair_index(u: int, v: int, node_count: int) -> int:
    """Bit position of node pair (u, v), u < v, in row-major upper-triangle order."""
    if u > v:
        u, v = v, u
    return u * node_count - u * (u + 1) // 2 + (v - u - 1)


class LabeledGraph(_Record):
    """Graph on nodes 0..n-1 encoded as a bit vector over the C(n, 2) pairs.

    Bit order is fixed: pair (u, v) with u < v sits at pair_index(u, v, n),
    i.e. u*n - u*(u+1)/2 + (v-u-1).
    """

    node_count: int
    edge_mask: int

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple[int, int]]) -> LabeledGraph:
        mask = 0
        for u, v in edges:
            mask |= 1 << pair_index(u, v, node_count)
        return cls(node_count, mask)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.edge_mask >> pair_index(u, v, self.node_count) & 1)

    def adjacency_rows(self) -> list[int]:
        """Per-node neighbor bitmasks."""
        n = self.node_count
        rows = [0] * n
        bit = 0
        for u in range(n):
            for v in range(u + 1, n):
                if self.edge_mask >> bit & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                bit += 1
        return rows


class OracleResult(_Record):
    """Exact moments at one fixed n, straight from exhaustive enumeration."""

    n: int
    mean_a: Fraction
    mean_b: Fraction
    second_moment: Fraction
    covariance: Fraction


class VerificationCheck(_Record):
    """One engine-vs-oracle comparison: a quantity at a fixed n."""

    n: int
    quantity: str
    engine_value: Fraction
    oracle_value: Fraction

    @property
    def matches(self) -> bool:
        return self.engine_value == self.oracle_value


class VerificationReport(_Record):
    pattern_a: PatternGraph
    pattern_b: PatternGraph
    checks: tuple[VerificationCheck, ...]

    @property
    def all_match(self) -> bool:
        return all(check.matches for check in self.checks)


def _edge_prefix_lists(pattern: PatternGraph) -> list[list[int]]:
    """For each pattern vertex, its already-placed (smaller-index) neighbors."""
    earlier: list[list[int]] = [[] for _ in range(pattern.vertex_count)]
    for u, v in pattern.edges:
        earlier[v].append(u)
    return earlier


def _ordered_embedding_count(
    adjacency: Sequence[int], node_count: int, k: int, earlier: Sequence[Sequence[int]]
) -> int:
    """Injective maps of the pattern's vertices onto graph nodes that put
    every pattern edge on a graph edge (ordered, i.e. not divided by the
    automorphism count)."""
    if k > node_count:
        return 0
    full = (1 << node_count) - 1
    count = 0
    image = [0] * k

    def place(depth: int, used: int) -> None:
        nonlocal count
        candidates = full & ~used
        for u in earlier[depth]:
            candidates &= adjacency[image[u]]
        if depth == k - 1:
            count += candidates.bit_count()
            return
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            image[depth] = low.bit_length() - 1
            place(depth + 1, used | low)

    place(0, 0)
    return count


def count_subgraphs(graph: LabeledGraph, pattern: PatternGraph) -> int:
    """Copies of the pattern in the graph, non-induced (extra edges among the
    image nodes are fine).

    Counts injective maps and divides by the automorphism count; the division
    is exact by construction, so a remainder means a bug and halts.
    """
    if pattern.vertex_count > graph.node_count:
        return 0
    ordered = _ordered_embedding_count(
        graph.adjacency_rows(),
        graph.node_count,
        pattern.vertex_count,
        _edge_prefix_lists(pattern),
    )
    copies, remainder = divmod(ordered, automorphism_count(pattern))
    if remainder:
        raise RuntimeError(
            f"internal error: {ordered} ordered embeddings is not a multiple of "
            f"the automorphism count {automorphism_count(pattern)}"
        )
    return copies


def _check_node_cap(n: int, node_cap: int) -> None:
    """Reject enumerations past the cap."""
    if n < 0:
        raise ValueError("node count must be >= 0")
    if node_cap > MAX_NODE_CAP:
        raise ValueError(
            f"node cap {node_cap} is not supported: even {MAX_NODE_CAP + 1} nodes "
            f"would mean 2**{(MAX_NODE_CAP + 1) * MAX_NODE_CAP // 2} graphs"
        )
    if n > node_cap:
        pair_count = n * (n - 1) // 2
        raise ValueError(
            f"n={n} exceeds the exhaustive-enumeration cap of {node_cap} nodes: "
            f"it would require iterating 2**{pair_count} = {2**pair_count} labeled graphs"
        )


def _check_enumeration_size(n: int, node_cap: int) -> None:
    """Reject enumerations past the cap; warn when the raised cap is used."""
    _check_node_cap(n, node_cap)
    if n > DEFAULT_NODE_CAP:
        pair_count = n * (n - 1) // 2
        warnings.warn(
            f"enumerating 2**{pair_count} = {2**pair_count} labeled graphs on "
            f"{n} nodes; this can take minutes",
            stacklevel=3,
        )


def exact_moments(
    pattern_a: PatternGraph,
    pattern_b: PatternGraph,
    n: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> OracleResult:
    """Exact count moments at a fixed n by enumerating all labeled graphs."""
    _check_enumeration_size(n, node_cap)
    pair_count = n * (n - 1) // 2
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    same = pattern_a == pattern_b
    k_a, k_b = pattern_a.vertex_count, pattern_b.vertex_count
    earlier_a = _edge_prefix_lists(pattern_a)
    earlier_b = _edge_prefix_lists(pattern_b)

    total_a = total_b = total_product = 0
    for mask in range(1 << pair_count):
        adjacency = [0] * n
        bits = mask
        while bits:
            low = bits & -bits
            bits ^= low
            u, v = pairs[low.bit_length() - 1]
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
        ordered_a = _ordered_embedding_count(adjacency, n, k_a, earlier_a)
        ordered_b = ordered_a if same else _ordered_embedding_count(adjacency, n, k_b, earlier_b)
        total_a += ordered_a
        total_b += ordered_b
        total_product += ordered_a * ordered_b

    graphs = 1 << pair_count
    aut_a = automorphism_count(pattern_a)
    aut_b = automorphism_count(pattern_b)
    mean_a = Fraction(total_a, aut_a * graphs)
    mean_b = Fraction(total_b, aut_b * graphs)
    second = Fraction(total_product, aut_a * aut_b * graphs)
    return OracleResult(
        n=n,
        mean_a=mean_a,
        mean_b=mean_b,
        second_moment=second,
        covariance=second - mean_a * mean_b,
    )


def verify(
    pattern_a: PatternGraph,
    pattern_b: PatternGraph,
    n_values: Iterable[int],
    node_cap: int = DEFAULT_NODE_CAP,
    workers: int = 1,
) -> VerificationReport:
    """Compare the engine's mean/covariance polynomials, evaluated at each n,
    against exhaustive enumeration.  Matches are exact or not at all.

    Every n is checked against the node cap before the engine or the oracle
    runs."""
    n_values = list(n_values)
    for n in n_values:
        _check_node_cap(n, node_cap)
    report = covariance_poly(pattern_a, pattern_b, workers=workers)
    same = pattern_a == pattern_b
    checks: list[VerificationCheck] = []
    for n in n_values:
        ground = exact_moments(pattern_a, pattern_b, n, node_cap=node_cap)
        if same:
            checks.append(
                VerificationCheck(n, "mean", poly_eval_exact(report.mean_a, n), ground.mean_a)
            )
            checks.append(
                VerificationCheck(
                    n, "variance", poly_eval_exact(report.covariance, n), ground.covariance
                )
            )
        else:
            checks.append(
                VerificationCheck(n, "mean[A]", poly_eval_exact(report.mean_a, n), ground.mean_a)
            )
            checks.append(
                VerificationCheck(n, "mean[B]", poly_eval_exact(report.mean_b, n), ground.mean_b)
            )
            checks.append(
                VerificationCheck(
                    n, "covariance", poly_eval_exact(report.covariance, n), ground.covariance
                )
            )
    return VerificationReport(pattern_a, pattern_b, tuple(checks))
