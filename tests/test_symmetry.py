"""Automorphism group orders: known values, cross-validation, invariance, speed."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifmoments import PatternGraph, automorphism_count, builtin, relabel
from helpers import automorphism_count_bruteforce, cube, disjoint_union

KNOWN_ORDERS = {
    "node": 1,
    "edge": 2,
    "wedge": 2,
    "triangle": 6,
    "square": 8,
    "k4": 24,
}


@pytest.mark.parametrize("name,expected", sorted(KNOWN_ORDERS.items()))
def test_known_group_orders(name, expected):
    assert automorphism_count(builtin(name)) == expected


@st.composite
def patterns(draw, min_vertices=1, max_vertices=6):
    k = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return PatternGraph(k, edges)


@given(patterns(max_vertices=7))
@settings(deadline=None)
def test_backtracking_agrees_with_bruteforce(p):
    assert automorphism_count(p) == automorphism_count_bruteforce(p)


@given(patterns())
def test_order_divides_factorial(p):
    assert math.factorial(p.vertex_count) % automorphism_count(p) == 0


@given(patterns(min_vertices=2, max_vertices=6), st.data())
def test_relabeling_preserves_order(p, data):
    perm = data.draw(st.permutations(range(p.vertex_count)))
    assert automorphism_count(relabel(p, perm)) == automorphism_count(p)


KNOWN_ORDERS_8 = {
    "clique:8": (builtin("clique:8"), 40320),
    "star:7": (builtin("star:7"), 5040),
    "cycle:8": (builtin("cycle:8"), 16),
    "path:8": (builtin("path:8"), 2),
    "k4+k4": (disjoint_union(builtin("k4"), builtin("k4")), 1152),
    "k4,4": (PatternGraph(8, [(u, v) for u in range(4) for v in range(4, 8)]), 1152),
    "cube": (cube(), 48),
    "square+square": (disjoint_union(builtin("square"), builtin("square")), 128),
    "empty:8": (PatternGraph(8), 40320),
}


@pytest.mark.parametrize("name", sorted(KNOWN_ORDERS_8))
def test_known_group_orders_at_eight_vertices(name):
    pattern, expected = KNOWN_ORDERS_8[name]
    assert automorphism_count(pattern) == expected


@pytest.mark.parametrize("name", ["cycle:8", "path:8", "cube"])
def test_eight_vertex_orders_agree_with_bruteforce(name):
    pattern, expected = KNOWN_ORDERS_8[name]
    assert automorphism_count_bruteforce(pattern) == expected


def test_clique8_is_counted_without_listing_the_group():
    # the count must not visit the group's 40320 elements one by one
    clique = builtin("clique:8")
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        automorphism_count(clique)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.05
