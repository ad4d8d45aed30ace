"""Exact moment polynomials for subgraph counts in the uniform random graph.

The model is G(n, 1/2): every labeled graph on n nodes is equally likely,
each of the C(n, 2) possible edges being present independently with
probability 1/2.  For patterns A and B this module produces exact polynomials
in n for the expected count, for the expectation of the product of the two
counts, and for their covariance (the variance when A = B).

The second moment is a sum over pairs of placed copies, sorted by the
overlap (Janson, Luczak and Rucinski, *Random Graphs*, 2000, ch. 3).  Two
copies that share i vertices and c edges have all their edges present with
probability 2^-(eA+eB-c).  Matching an i-subset S of A's vertices, taken in
increasing order, with an ordered i-tuple t of B's vertices fixes such an
overlap; the remaining vertices of both copies can be placed in
(n)_{kA+kB-i} ways.  Hence

    E[X_A X_B] = 2^-(eA+eB) / (|Aut A| |Aut B|)
                 * sum_{i>=0} (n)_{kA+kB-i} * sum_{S,t} 2^popcount(mask_A(S) & mask_B(t))

where a mask is the induced edge set on the i slots.  The masks of every
subset (of one pattern) and every ordered tuple (of the other) are built in
one depth-first pass per pattern and aggregated by multiplicity, so the pair
loop runs over distinct masks only.  Tuples in one orbit of the automorphism
group share their mask, so the tuple pass visits one representative per
orbit, about e * k! / |Aut| of them and at most e * k!, and counts each by
its orbit size.  All arithmetic is exact integer counting until one rational
scale at the end.  `covariance_poly` subtracts the product of the means.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .algebra import RationalPolynomial, _Record, falling_factorial_poly
from .pattern import PatternGraph, _check_size
from .symmetry import _adjacency, _orbits, automorphism_count


class MomentReport(_Record):
    """Mean, second-moment and covariance polynomials for a pattern pair.

    second_moment is the overlap sum
    2^-(eA+eB) / (|Aut A| |Aut B|) * sum_{i>=0} (n)_{kA+kB-i} * sum_{S,t} 2^c
    (see the module docstring), and covariance_poly forms
    covariance = second_moment - mean_a * mean_b from it.  When pattern_a
    equals pattern_b the covariance is the variance of the count.
    """

    pattern_a: PatternGraph
    pattern_b: PatternGraph
    mean_a: RationalPolynomial
    mean_b: RationalPolynomial
    second_moment: RationalPolynomial
    covariance: RationalPolynomial
    aut_a: int
    aut_b: int


def _aut_counts(pattern_a: PatternGraph, pattern_b: PatternGraph) -> tuple[int, int]:
    """Both automorphism group orders, searching once when the patterns are equal."""
    aut_a = automorphism_count(pattern_a)
    return aut_a, aut_a if pattern_b == pattern_a else automorphism_count(pattern_b)


def _mean(pattern: PatternGraph, aut: int) -> RationalPolynomial:
    return falling_factorial_poly(pattern.vertex_count) * Fraction(
        1, aut * 2**pattern.edge_count
    )


def mean_poly(pattern: PatternGraph) -> RationalPolynomial:
    """Expected number of copies of the pattern, as a degree-k polynomial.

    Ordered injective placements (the falling factorial) divided by the
    automorphism count, times the probability 2^-edges that one placement's
    edges are all present.
    """
    _check_size(pattern.vertex_count)
    return _mean(pattern, automorphism_count(pattern))


def _mask_tables(pattern: PatternGraph, depth: int, aut: int = 0) -> list[Counter[int]]:
    """tables[i]: induced slot-pair masks of the pattern's i-vertex selections,
    with multiplicities, for i up to depth.

    Without `aut` a selection is an i-subset in increasing vertex order.  With
    aut = |Aut(pattern)| it is an ordered i-tuple of distinct vertices, and
    the tuples are enumerated modulo the group: t and sigma(t) have the same
    mask, so a node with prefix p places one representative w of each orbit
    of G_p, the automorphisms fixing p pointwise, and counts it weight*|G_p w|
    times, the number of tuples its prefix stands for.  By orbit-stabiliser
    |G_p| = aut / weight, so once the weight reaches aut the stabiliser is
    trivial and every free vertex is its own orbit, as in the subset pass.
    That is about e * k! / aut representatives, at most e * k!.

    Slot pair (j, p), j < p, is bit p(p-1)/2 + j, so placing slot p only adds
    the bits of pairs (., p).  Along the depth-first pass, slot_adj[w] holds
    the slots already taken by neighbours of w; extending by w ORs it in.
    """
    k = pattern.vertex_count
    adjacent = _adjacency(pattern)
    neighbours = [[x for x in range(k) if adjacent[w] >> x & 1] for w in range(k)]
    tables: list[Counter[int]] = [Counter() for _ in range(depth + 1)]
    slot_adj = [0] * k
    group = aut or 1  # subsets: the weight stays 1 and every vertex is its own orbit
    singletons = [1] * k

    def extend(size: int, mask: int, used: int, start: int, weight: int) -> None:
        table = tables[size + 1]
        shift = size * (size - 1) // 2
        if weight == group:  # G_p is trivial
            representatives, orbit = range(0 if aut else start, k), singletons
        else:
            representatives = orbit = _orbits(adjacent, used)
        for w in representatives:
            if used >> w & 1:
                continue
            grown = mask | slot_adj[w] << shift
            count = weight * orbit[w]
            table[grown] += count
            if size + 1 < depth:
                bit = 1 << size
                for x in neighbours[w]:
                    slot_adj[x] |= bit
                extend(size + 1, grown, used | 1 << w, w + 1, count)
                for x in neighbours[w]:
                    slot_adj[x] &= ~bit

    extend(0, 0, 0, 0, 1)
    return tables


def _overlap_sums(
    pattern_a: PatternGraph, pattern_b: PatternGraph, aut_a: int, aut_b: int
) -> list[int]:
    """sums[i] = sum over i-subsets S of A and ordered i-tuples t of B of
    2^popcount(mask_A(S) & mask_B(t)).

    sums[0] = 1 counts the empty overlap.  The sum is symmetric in which
    pattern supplies the subsets, so the one with fewer vertices supplies the
    (more numerous) ordered tuples.
    """
    if pattern_b.vertex_count > pattern_a.vertex_count:
        pattern_a, pattern_b, aut_a, aut_b = pattern_b, pattern_a, aut_b, aut_a
    depth = pattern_b.vertex_count
    subsets = _mask_tables(pattern_a, depth)
    tuples = _mask_tables(pattern_b, depth, aut_b)
    sums = [1] + [0] * depth
    for i in range(1, depth + 1):
        items_b = tuples[i].items()
        sums[i] = sum(
            count_a * sum(count_b << (mask_a & mask_b).bit_count() for mask_b, count_b in items_b)
            for mask_a, count_a in subsets[i].items()
        )
    return sums


def second_moment_poly(pattern_a: PatternGraph, pattern_b: PatternGraph) -> RationalPolynomial:
    """Exact polynomial for E[count_A * count_B], summed over every overlap
    of two placed copies, the empty overlap included."""
    _check_size(pattern_a.vertex_count)
    _check_size(pattern_b.vertex_count)
    aut_a, aut_b = _aut_counts(pattern_a, pattern_b)
    # sum_i overlap_i * (n)_{k-i} in integer coefficients, then one division
    k = pattern_a.vertex_count + pattern_b.vertex_count
    total = [0] * (k + 1)
    for i, overlap in enumerate(_overlap_sums(pattern_a, pattern_b, aut_a, aut_b)):
        for power, coeff in enumerate(falling_factorial_poly(k - i).coeffs):
            total[power] += overlap * coeff.numerator
    scale = aut_a * aut_b * 2 ** (pattern_a.edge_count + pattern_b.edge_count)
    return RationalPolynomial(Fraction(c, scale) for c in total)


def covariance_poly(
    pattern_a: PatternGraph, pattern_b: PatternGraph, workers: int = 1
) -> MomentReport:
    """Covariance of the two subgraph counts, with all components bundled.

    `workers` must be >= 1 and has no other effect; the output is the same
    for every value.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    second = second_moment_poly(pattern_a, pattern_b)
    aut_a, aut_b = _aut_counts(pattern_a, pattern_b)
    mean_a, mean_b = _mean(pattern_a, aut_a), _mean(pattern_b, aut_b)
    return MomentReport(
        pattern_a=pattern_a,
        pattern_b=pattern_b,
        mean_a=mean_a,
        mean_b=mean_b,
        second_moment=second,
        covariance=second - mean_a * mean_b,
        aut_a=aut_a,
        aut_b=aut_b,
    )


def variance_poly(pattern: PatternGraph, workers: int = 1) -> MomentReport:
    """Variance of the subgraph count: the covariance of a pattern with itself.

    `workers` must be >= 1 and has no other effect.
    """
    return covariance_poly(pattern, pattern, workers=workers)
