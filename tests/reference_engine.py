"""Permutation-pair reference engine for certifying the overlap-sum engine.

This is the package's original moment engine, kept as an independent route
to the same polynomials.  For every overlap size i it places copy A by all
k_A! permutations of its slots and copy B by all k_B! permutations, copy B's
first i targets landing on the slots copy A uses and the rest past copy A's
block.  Each placement pair contributes 2^-(edges in the union), gathered in
an integer histogram keyed by the union edge count; the ordered ways to
choose the slot universe are (n)_{k_A+k_B-i} / (i! (k_A-i)! (k_B-i)!).
Identical placement masks are aggregated by multiplicity first.

The cost is (k_A! k_B!) mask pairs per overlap size, so it is only usable
for small patterns (k <= 6 in seconds).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

from motifmoments import (
    PatternGraph,
    RationalPolynomial,
    automorphism_count,
    falling_factorial_poly,
)


def _pair_bit(a: int, b: int, slots: int) -> int:
    """Bit index of slot pair {a, b} (row-major upper triangle)."""
    if a > b:
        a, b = b, a
    return a * slots - a * (a + 1) // 2 + (b - a - 1)


def _placement_masks(
    pattern: PatternGraph, slots: int, shared: int | None, k_first: int
) -> Counter[int]:
    """Union-universe edge masks of every placement, with multiplicities.

    shared=None places copy A by the permutation itself; otherwise copy B's
    targets below `shared` are A's slots and the rest continue past A's block.
    """
    k = pattern.vertex_count
    edges = pattern.sorted_edges()
    counts: Counter[int] = Counter()
    for perm in permutations(range(k)):
        if shared is None:
            placement = perm
        else:
            placement = tuple(t if t < shared else k_first + t - shared for t in perm)
        mask = 0
        for u, v in edges:
            mask |= 1 << _pair_bit(placement[u], placement[v], slots)
        counts[mask] += 1
    return counts


def reference_second_moment(
    pattern_a: PatternGraph, pattern_b: PatternGraph
) -> RationalPolynomial:
    """E[count_A * count_B] by the permutation-pair sum."""
    k_a, k_b = pattern_a.vertex_count, pattern_b.vertex_count
    total = RationalPolynomial()
    for shared in range(min(k_a, k_b) + 1):
        slots = k_a + k_b - shared
        masks_a = _placement_masks(pattern_a, slots, None, k_a)
        masks_b = _placement_masks(pattern_b, slots, shared, k_a)
        histogram = Counter()
        for mask_a, mult_a in masks_a.items():
            for mask_b, mult_b in masks_b.items():
                histogram[(mask_a | mask_b).bit_count()] += mult_a * mult_b
        inner = sum((Fraction(count, 1 << m) for m, count in histogram.items()), Fraction(0))
        weight = Fraction(
            1,
            math.factorial(shared)
            * math.factorial(k_a - shared)
            * math.factorial(k_b - shared),
        )
        total = total + falling_factorial_poly(k_a + k_b - shared) * (weight * inner)
    scale = Fraction(1, automorphism_count(pattern_a) * automorphism_count(pattern_b))
    return total * scale


def reference_mean(pattern: PatternGraph) -> RationalPolynomial:
    """(n)_k / (|Aut| 2^e)."""
    scale = Fraction(1, automorphism_count(pattern) * 2**pattern.edge_count)
    return falling_factorial_poly(pattern.vertex_count) * scale


def reference_covariance(
    pattern_a: PatternGraph, pattern_b: PatternGraph
) -> RationalPolynomial:
    """E[count_A count_B] - E[count_A] E[count_B]."""
    return reference_second_moment(pattern_a, pattern_b) - reference_mean(
        pattern_a
    ) * reference_mean(pattern_b)
