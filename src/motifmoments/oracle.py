"""Exhaustive ground truth for subgraph-count moments at tiny sizes.

Every labeled graph on n nodes is enumerated (they are equally likely under
edge probability 1/2) and pattern occurrences are counted per graph by
injective-map backtracking, so the moments come straight from their
definition as averages over all 2^C(n,2) graphs.  Beyond the PatternGraph
type, Fraction scalars and the automorphism count, `exact_moments` shares
nothing with the polynomial engine: exact agreement between the two is
meaningful evidence that both are right.  `verify` calls the engine's
`covariance_poly` to make that comparison.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .algebra import _Record, poly_eval_exact
from .moments import covariance_poly
from .pattern import DEFAULT_NODE_CAP, MAX_NODE_CAP, PatternGraph, _numbers
from .symmetry import automorphism_count


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


def _check_node_cap(n: int, node_cap: int) -> None:
    """Reject enumerations past the cap."""
    if n < 0:
        raise ValueError("node count must be >= 0")
    if node_cap < 0:
        raise ValueError(f"node cap must be >= 0, got {_numbers(node_cap)}")
    if node_cap > MAX_NODE_CAP:
        raise ValueError(
            f"node cap {_numbers(node_cap)} is not supported: even {MAX_NODE_CAP + 1} "
            f"nodes would mean 2**{(MAX_NODE_CAP + 1) * MAX_NODE_CAP // 2} graphs"
        )
    if n > node_cap:
        pair_count = n * (n - 1) // 2
        # 2**pair_count has about 0.15 * n**2 digits (a 2**(5 * 10**11) integer
        # at n = 10**6), so it is written out only while it is short, and
        # pair_count only while it has at most 40 digits (str() refuses more
        # than 4300)
        graphs = f"2**{pair_count}" if pair_count < 10**40 else "2**C(n,2)"
        if pair_count <= 64:
            graphs += f" = {2**pair_count}"
        raise ValueError(
            f"n={_numbers(n)} exceeds the exhaustive-enumeration cap of {_numbers(node_cap)} "
            f"nodes: it would require iterating {graphs} labeled graphs"
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
    aut_b = aut_a if same else automorphism_count(pattern_b)
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

    The node cap, and every n against it, are checked before the engine or
    the oracle runs."""
    n_values = list(n_values)
    for n in [0, *n_values]:  # n = 0 checks the cap itself, even for an empty list
        _check_node_cap(n, node_cap)
    report = covariance_poly(pattern_a, pattern_b, workers=workers)
    # (label, field): both the report and the oracle's result carry each field
    quantities = (
        (("mean", "mean_a"), ("variance", "covariance"))
        if pattern_a == pattern_b
        else (("mean[A]", "mean_a"), ("mean[B]", "mean_b"), ("covariance", "covariance"))
    )
    checks: list[VerificationCheck] = []
    for n in n_values:
        ground = exact_moments(pattern_a, pattern_b, n, node_cap=node_cap)
        checks += (
            VerificationCheck(
                n, label, poly_eval_exact(getattr(report, field), n), getattr(ground, field)
            )
            for label, field in quantities
        )
    return VerificationReport(pattern_a, pattern_b, tuple(checks))
