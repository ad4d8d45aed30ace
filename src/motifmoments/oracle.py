"""Exhaustive ground truth for subgraph-count moments at tiny sizes.

Every labeled graph on n nodes is enumerated (they are equally likely under
edge probability 1/2), so the moments come straight from their definition
as averages over all 2^C(n,2) graphs.  A graph is a bitmask over the node
pairs in row-major upper-triangle order.  Copies are counted in every graph
at once: each injective map of a pattern's vertices into the nodes is
tallied under the mask of the pairs it puts the pattern's edges on, and one
subset-sum pass over the pair bits turns that tally into, for every graph
G, the number of maps whose mask lies inside G.  Beyond the PatternGraph
type, Fraction scalars and the automorphism count, `exact_moments` shares
nothing with the polynomial engine: exact agreement between the two is
meaningful evidence that both are right.  `verify` calls the engine's
`covariance_poly` to make that comparison.
"""

from __future__ import annotations

import sys
import warnings
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations, permutations
from operator import add, mul

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


def _ordered_counts(pattern: PatternGraph, n: int) -> list[int]:
    """Entry G, for every graph G on nodes 0..n-1 as a pair bitmask: the
    injective maps of the pattern's vertices into the nodes that put every
    pattern edge on an edge of G (ordered, i.e. not divided by the
    automorphism count).  Empty when the pattern has more vertices than n,
    since then no graph holds a copy."""
    if pattern.vertex_count > n:
        return []
    bit = [[0] * n for _ in range(n)]
    for index, (u, v) in enumerate(combinations(range(n), 2)):
        bit[u][v] = bit[v][u] = 1 << index
    size = 1 << (n * (n - 1) // 2)
    counts = [0] * size
    for image in permutations(range(n), pattern.vertex_count):
        mask = 0
        for u, v in pattern.edges:
            mask |= bit[image[u]][image[v]]
        counts[mask] += 1
    # subset sums, one pair bit at a time: adding each entry without the bit
    # into its partner with the bit leaves counts[G] = the tally summed over
    # every mask inside G.  Each slice runs its additions in C; while the
    # bit's step is small, a few long strided slices cover the table, and
    # after that a few long contiguous blocks do
    step = 1
    while step < size:
        stride = 2 * step
        if step * step < size:
            for low in range(step):
                high = slice(low + step, size, stride)
                counts[high] = map(add, counts[high], counts[low::stride])
        else:
            for start in range(0, size, stride):
                high = slice(start + step, start + stride)
                counts[high] = map(add, counts[high], counts[start : start + step])
        step = stride
    return counts


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
        # the warning names the nearest caller outside this module, the line
        # that called `exact_moments` or `verify`
        frame, level = sys._getframe(1), 2
        while frame.f_globals is globals():
            frame, level = frame.f_back, level + 1
        pair_count = n * (n - 1) // 2
        # the cost is measured at n = 7, the only n past the default cap
        # (2-vCPU Xeon, Python 3.11): 1.2-2.6 s and a 55-71 MB peak on
        # builtin patterns and pairs
        warnings.warn(
            f"enumerating 2**{pair_count} = {2**pair_count} labeled graphs on "
            f"{n} nodes; this takes about 1-3 s and up to 75 MB per n",
            stacklevel=level,
        )


def exact_moments(
    pattern_a: PatternGraph,
    pattern_b: PatternGraph,
    n: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> OracleResult:
    """Exact count moments at a fixed n by enumerating all labeled graphs."""
    _check_enumeration_size(n, node_cap)
    same = pattern_a == pattern_b
    ordered_a = _ordered_counts(pattern_a, n)
    ordered_b = ordered_a if same else _ordered_counts(pattern_b, n)
    # map stops at the shorter list, so a pattern too large for n (an empty
    # list) makes the product sum 0
    total_product = sum(map(mul, ordered_a, ordered_b))

    graphs = 1 << (n * (n - 1) // 2)
    aut_a = automorphism_count(pattern_a)
    aut_b = aut_a if same else automorphism_count(pattern_b)
    mean_a = Fraction(sum(ordered_a), aut_a * graphs)
    mean_b = Fraction(sum(ordered_b), aut_b * graphs)
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
