"""Certification of the overlap-sum engine beyond the oracle's reach.

Two routes: exact agreement with the permutation-pair reference engine
(`reference_engine.py`) on every small pattern and a seeded sample of larger
ones, and polynomial identities that hold at every n for every pattern the
engine accepts.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from motifmoments import (
    PatternGraph,
    RationalPolynomial,
    builtin,
    builtin_names,
    covariance_poly,
    mean_poly,
    variance_poly,
)

from reference_engine import reference_covariance, reference_second_moment

FIXED_BUILTINS = builtin_names()

# every parameterized builtin up to the 8-vertex cap
FAMILY_BUILTINS = (
    [f"clique:{k}" for k in range(1, 9)]
    + [f"cycle:{k}" for k in range(3, 9)]
    + [f"path:{k}" for k in range(1, 9)]
    + [f"star:{k}" for k in range(1, 8)]
)


def all_labeled_patterns(k):
    pairs = list(combinations(range(k), 2))
    for bits in range(1 << len(pairs)):
        yield PatternGraph(k, [p for j, p in enumerate(pairs) if bits >> j & 1])


def random_pattern(rng, k):
    return PatternGraph(k, [p for p in combinations(range(k), 2) if rng.random() < 0.5])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_variance_matches_reference_on_every_labeled_pattern(k):
    for pattern in all_labeled_patterns(k):
        report = variance_poly(pattern)
        assert report.covariance == reference_covariance(pattern, pattern), pattern
        assert report.second_moment == reference_second_moment(pattern, pattern)


@pytest.mark.parametrize("name_a", FIXED_BUILTINS)
def test_covariance_matches_reference_on_fixed_builtin_pairs(name_a):
    pattern_a = builtin(name_a)
    for name_b in FIXED_BUILTINS:
        pattern_b = builtin(name_b)
        report = covariance_poly(pattern_a, pattern_b)
        assert report.covariance == reference_covariance(pattern_a, pattern_b), name_b
        assert report.second_moment == reference_second_moment(pattern_a, pattern_b)


def test_matches_reference_on_seeded_sample_k5_k6():
    rng = random.Random(20140523)
    variances = [random_pattern(rng, 5) for _ in range(10)]
    variances += [random_pattern(rng, 6) for _ in range(3)]
    for pattern in variances:
        expected = reference_covariance(pattern, pattern)
        assert variance_poly(pattern).covariance == expected, pattern
    for _ in range(6):
        pattern_a = random_pattern(rng, rng.randint(5, 6))
        pattern_b = random_pattern(rng, rng.randint(2, 6))
        expected = reference_covariance(pattern_a, pattern_b)
        assert covariance_poly(pattern_a, pattern_b).covariance == expected
        assert covariance_poly(pattern_b, pattern_a).covariance == expected


@pytest.mark.parametrize("name", FIXED_BUILTINS + tuple(FAMILY_BUILTINS))
def test_covariance_with_edge_is_half_edges_times_mean(name):
    # Each edge e of a copy h adds Cov(1_e, 1_h) = P(h) / 2; other edges add 0.
    pattern = builtin(name)
    report = covariance_poly(builtin("edge"), pattern)
    assert report.covariance == report.mean_b * Fraction(pattern.edge_count, 2)


def with_isolated_vertex(pattern):
    return PatternGraph(pattern.vertex_count + 1, pattern.edges)


def isolated_count(pattern):
    touched = {v for edge in pattern.edges for v in edge}
    return pattern.vertex_count - len(touched)


@pytest.mark.parametrize(
    "pattern",
    [
        builtin("node"),
        builtin("edge"),
        builtin("triangle"),
        builtin("square"),
        PatternGraph(4, [(0, 1)]),
        PatternGraph(5, [(1, 2), (2, 3)]),
        builtin("star:4"),
        builtin("cycle:6"),
        builtin("path:7"),
    ],
    ids=lambda p: f"k{p.vertex_count}e{p.edge_count}",
)
def test_adding_an_isolated_vertex_scales_moments(pattern):
    # X_{H+K1} = X_H (n - k) / (j + 1) for H with k vertices, j of them
    # isolated, so the mean scales by that factor and the variance by its square.
    k, j = pattern.vertex_count, isolated_count(pattern)
    factor = RationalPolynomial((-k, 1)) * Fraction(1, j + 1)
    bigger = with_isolated_vertex(pattern)
    assert mean_poly(bigger) == mean_poly(pattern) * factor
    assert variance_poly(bigger).covariance == variance_poly(pattern).covariance * (
        factor * factor
    )
    triangle = builtin("triangle")
    assert (
        covariance_poly(bigger, triangle).covariance
        == covariance_poly(pattern, triangle).covariance * factor
    )
