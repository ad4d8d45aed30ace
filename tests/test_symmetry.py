"""Automorphism group orders, twin classes and stabiliser orbits: known
values, cross-validation, invariance, search counts and speed."""

import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motifmoments.symmetry as symmetry_module
from motifmoments import PatternGraph, automorphism_count, builtin, relabel, variance_poly
from motifmoments.symmetry import _adjacency, _StabiliserOrbits, _twin_classes
from helpers import (
    automorphism_count_bruteforce,
    automorphisms_bruteforce,
    cube,
    disjoint_union,
)

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


@pytest.mark.parametrize(
    "name", ["cycle:8", "path:8", "cube", "k4+k4", "k4,4", "empty:8", "square+square"]
)
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


def orbits_bruteforce(group, k, fixed):
    """{least vertex of an orbit: its size} for the automorphisms in `group`,
    given with the bitmask of their fixed points, that fix every vertex in
    the bitmask `fixed`, on the other vertices."""
    stabiliser = [g for g, points in group if points & fixed == fixed]
    sizes = {}
    for w in range(k):
        if not fixed >> w & 1:
            least = min(g[w] for g in stabiliser)
            sizes[least] = sizes.get(least, 0) + 1
    return sizes


def assert_orbits_agree_with_bruteforce(pattern):
    k = pattern.vertex_count
    group = [
        (g, sum(1 << v for v in range(k) if g[v] == v)) for g in automorphisms_bruteforce(pattern)
    ]
    orbits = _StabiliserOrbits(pattern)
    for fixed in range(1 << k):
        expected = orbits_bruteforce(group, k, fixed)
        assert orbits[fixed] == expected, (pattern, fixed)
    assert len(orbits) == 1 << k  # each entry is kept


@pytest.mark.parametrize("k", range(1, 6))
def test_twins_are_the_pairs_whose_transposition_is_an_automorphism(k):
    pairs = list(combinations(range(k), 2))
    for bits in range(1 << len(pairs)):
        pattern = PatternGraph(k, [p for j, p in enumerate(pairs) if bits >> j & 1])
        group = set(automorphisms_bruteforce(pattern))
        classes = _twin_classes(_adjacency(pattern))
        members = [x for c in classes for x in range(k) if c >> x & 1]
        assert len(members) == len(set(members)), pattern
        assert all(c.bit_count() > 1 for c in classes), pattern
        for u, v in pairs:
            swap = list(range(k))
            swap[u], swap[v] = v, u
            together = any(c >> u & 1 and c >> v & 1 for c in classes)
            assert together == (tuple(swap) in group), (pattern, u, v)


@pytest.mark.parametrize("k", range(1, 6))
def test_orbits_agree_with_bruteforce_on_every_small_pattern(k):
    pairs = list(combinations(range(k), 2))
    for bits in range(1 << len(pairs)):
        pattern = PatternGraph(k, [p for j, p in enumerate(pairs) if bits >> j & 1])
        assert_orbits_agree_with_bruteforce(pattern)


@pytest.mark.parametrize("k,count", [(6, 12), (7, 4)])
def test_orbits_agree_with_bruteforce_on_a_seeded_sample(k, count):
    # a density drawn per pattern, so sparse and dense patterns with larger
    # groups come up as well as the asymmetric ones of density 1/2
    rng = random.Random(20141 + k)
    for _ in range(count):
        density = rng.random()
        edges = [p for p in combinations(range(k), 2) if rng.random() < density]
        assert_orbits_agree_with_bruteforce(PatternGraph(k, edges))


TWIN_RICH = {
    "k3,3": PatternGraph(6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "k2,2,2": PatternGraph(6, [p for p in combinations(range(6), 2) if p[1] != p[0] ^ 1]),
    "triangle+triangle": disjoint_union(builtin("triangle"), builtin("triangle")),
    "star:6": builtin("star:6"),
    "clique:7": builtin("clique:7"),
    # star:5 with its edge 0-5 subdivided by vertex 6: leaves 1-4 are twins, 5 is not
    "subdivided-star": PatternGraph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (5, 6)]),
    # twin swaps inside each square mixed with swapping the two squares
    "square+square": KNOWN_ORDERS_8["square+square"][0],
}


@pytest.mark.parametrize("name", sorted(TWIN_RICH))
def test_orbits_agree_with_bruteforce_on_twin_rich_patterns(name):
    assert_orbits_agree_with_bruteforce(TWIN_RICH[name])


@pytest.mark.parametrize(
    "name,aut_searches,variance_searches",
    [
        ("clique:7", 0, 0),
        ("clique:8", 0, 0),
        ("star:7", 7, 34),
        # cycle:7's variance takes the tuple order and cycle:8's the edge-set
        # order; each settles a stabiliser's orbits once per pass.  The cube's
        # tuple walk reaches the set {0, 1, 7} from two prefixes, (0, 1, 7)
        # and (0, 7, 1), and settles its orbits once
        ("cycle:7", 16, 24),
        ("cycle:8", 22, 33),
        ("cube", 22, 78),
    ],
)
def test_each_automorphism_found_settles_its_whole_orbit(
    monkeypatch, name, aut_searches, variance_searches
):
    # one search per (vertex, target) pair would be 28 for either count; the
    # twin classes settle every orbit of a clique, and all of a star's but
    # the centre's, whose every search fails at the degree check
    searches = []
    search = symmetry_module._search

    def counting(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(symmetry_module, "_search", counting)
    pattern = KNOWN_ORDERS_8[name][0] if name in KNOWN_ORDERS_8 else builtin(name)
    automorphism_count(pattern)
    assert len(searches) <= aut_searches
    searches.clear()
    variance_poly(pattern)
    assert len(searches) <= variance_searches
