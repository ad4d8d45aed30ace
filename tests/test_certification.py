"""Certification of the overlap-sum engine beyond the oracle's reach.

Five routes: the engine's mask tables, of subsets and of ordered tuples
(which it enumerates modulo the automorphism group), against tables counted
selection by selection, at full depth and cut short as in a covariance; the
engine's two summation orders, over tuples and over common edge sets,
against each other, the edge-set order's embedding counts (taken modulo the
target's automorphism group) against plain backtracking, and the tuple
order's subset side taken over ordered tuples (as the engine does for
symmetric patterns) against the same side taken over subsets, and the
tuple order's broadword pair loop, under every choice of kernel, against
pairing every level one pair of masks at a time; exact agreement with the
permutation-pair reference engine (`reference_engine.py`) on every small
pattern and a seeded sample of larger ones; the covariances of induced counts, transformed from the
engine's over every 4- and 5-vertex class, against a brute force over
permutations and under complementation; and polynomial identities that hold
at every n for every pattern the engine accepts.
"""

import random
from collections import Counter, defaultdict
from functools import cache
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, lcm, perm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from motifmoments import (
    PatternGraph,
    RationalPolynomial,
    automorphism_count,
    builtin,
    builtin_names,
    covariance_poly,
    mean_poly,
    relabel,
    variance_poly,
)
import motifmoments.moments as moments_module
from motifmoments._broadword import Planes, broadword
from motifmoments.moments import (
    _embedding_count,
    _mask_tables,
    _sums_by_edge_sets,
    _sums_by_tuples,
)
from motifmoments.symmetry import _adjacency, _StabiliserOrbits

from helpers import (
    class_pattern,
    cube,
    disjoint_union,
    isomorphism_classes,
    ordered_embedding_count,
    random_patterns,
    route,
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


def tuple_tables_by_permutations(pattern):
    """tables[i][mask]: the ordered i-tuples of distinct vertices whose induced
    slot-pair mask is `mask`, counted one tuple at a time.

    Slot pair (j, p), j < p, is bit p(p-1)/2 + j.  Every i-tuple is the
    length-i prefix of (k-i)! permutations, and its mask is the permutation's
    mask cut to the bits below i(i-1)/2.
    """
    k = pattern.vertex_count
    adjacent = [[(min(u, v), max(u, v)) in pattern.edges for v in range(k)] for u in range(k)]
    slot_pairs = list(enumerate((j, p) for p in range(k) for j in range(p)))
    tables = [Counter() for _ in range(k + 1)]
    for perm in permutations(range(k)):
        mask = 0
        for bit, (j, p) in slot_pairs:
            if adjacent[perm[j]][perm[p]]:
                mask |= 1 << bit
        for i in range(1, k + 1):
            tables[i][mask & ((1 << i * (i - 1) // 2) - 1)] += 1
    return [
        Counter({mask: count // factorial(k - i) for mask, count in table.items()})
        for i, table in enumerate(tables)
    ]


def folded_tables(pattern, depth, aut=0):
    """`_mask_tables`' levels, each Counter with its list folded in: every
    listed mask stands for max(aut, 1) selections."""
    tables, bulk = _mask_tables(pattern, depth, aut)
    return [
        table + Counter({mask: count * max(aut, 1) for mask, count in Counter(masks).items()})
        for table, masks in zip(tables, bulk)
    ]


def engine_tuple_tables(pattern):
    k = pattern.vertex_count
    return folded_tables(pattern, k, automorphism_count(pattern))


def test_tuple_tables_match_permutations_on_every_labeled_pattern_k5():
    for pattern in all_labeled_patterns(5):
        assert engine_tuple_tables(pattern) == tuple_tables_by_permutations(pattern), pattern


@seed(20140523)
@settings(max_examples=24, deadline=None)
@given(st.integers(6, 7), st.data())
def test_tuple_tables_match_permutations_on_sampled_patterns_k6_k7(k, data):
    pairs = list(combinations(range(k), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    pattern = PatternGraph(k, edges)
    assert engine_tuple_tables(pattern) == tuple_tables_by_permutations(pattern)


# With the two seeded draws, whose stabilisers turn trivial at the root
# (|Aut| = 1) and after one to six placements (|Aut| = 2: the involution
# swaps 1 and 4 and fixes the rest), the tuple pass expands subtrees level
# by level below roots of several sizes.
SYMMETRIC_8 = {
    "clique:8": builtin("clique:8"),  # |Aut| = 40320
    "star:7": builtin("star:7"),  # 5040
    "cube": cube(),  # 48
    "square+square": disjoint_union(builtin("square"), builtin("square")),  # 128
    "aut1-e16": random_patterns(8, 16, 1, 1, random.Random(816))[0],
    "aut2-e12": random_patterns(8, 12, 2, 1, random.Random(812))[0],
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_8))
def test_tuple_tables_match_permutations_on_symmetric_k8(name):
    pattern = SYMMETRIC_8[name]
    assert engine_tuple_tables(pattern) == tuple_tables_by_permutations(pattern)


# The eight graphs on six vertices whose only automorphism is the identity,
# as perfbench's asym6-1 to asym6-8.
ASYM6 = {
    "asym6-1": ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)),
    "asym6-2": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 5)),
    "asym6-3": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (3, 5)),
    "asym6-4": ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4), (3, 5)),
    "asym6-5": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4)),
    "asym6-6": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (3, 5)),
    "asym6-7": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 5), (4, 5)),
    "asym6-8": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (4, 5)),
}


@pytest.mark.parametrize("name", sorted(ASYM6))
def test_tuple_tables_match_permutations_on_asymmetric_k6(name):
    # an |Aut| = 1 tuple pass reads its levels off the per-k slot columns
    pattern = PatternGraph(6, ASYM6[name])
    assert engine_tuple_tables(pattern) == tuple_tables_by_permutations(pattern)


def tables_by_enumeration(pattern, depth, ordered):
    """tables[i][mask] for i <= depth: the i-vertex selections whose induced
    slot-pair mask is `mask`, counted one selection at a time; a selection is
    an ordered tuple of distinct vertices, or a subset in increasing order."""
    select = permutations if ordered else combinations
    tables = [Counter()]
    for i in range(1, depth + 1):
        tables.append(
            Counter(
                sum(
                    1 << p * (p - 1) // 2 + j
                    for p in range(i)
                    for j in range(p)
                    if (min(s[j], s[p]), max(s[j], s[p])) in pattern.edges
                )
                for s in select(range(pattern.vertex_count), i)
            )
        )
    return tables


def test_subset_tables_match_combinations_on_every_labeled_pattern_k5():
    for k in range(1, 6):
        for pattern in all_labeled_patterns(k):
            expected = tables_by_enumeration(pattern, k, ordered=False)
            for depth in range(1, k + 1):
                assert folded_tables(pattern, depth) == expected[: depth + 1], (pattern, depth)


@pytest.mark.parametrize("k", [6, 7])
def test_subset_tables_match_combinations_on_sampled_patterns(k):
    rng = random.Random(20140524 + k)
    for _ in range(12):
        pattern = random_pattern(rng, k)
        expected = tables_by_enumeration(pattern, k, ordered=False)
        for depth in range(1, k + 1):
            assert folded_tables(pattern, depth) == expected[: depth + 1], (pattern, depth)


def truncated_tuple_cases():
    """Every labeled pattern with k <= 4, a seeded sample with k = 5-7 and
    the symmetric 8-vertex patterns."""
    for k in range(1, 5):
        yield from all_labeled_patterns(k)
    rng = random.Random(20140525)
    for k in (5, 6, 7):
        yield from (random_pattern(rng, k) for _ in range(8))
    yield from SYMMETRIC_8.values()


def test_truncated_tuple_tables_match_enumeration():
    # the tables of the pattern with more vertices stop at the other's size
    # in a covariance, so every depth below k is a case of its own
    for pattern in truncated_tuple_cases():
        aut = automorphism_count(pattern)
        k = pattern.vertex_count
        top = min(k - 1, 4)
        expected = tables_by_enumeration(pattern, top, ordered=True)
        for depth in range(1, top + 1):
            assert folded_tables(pattern, depth, aut) == expected[: depth + 1], (pattern, depth)


def test_variance_matches_reference_on_every_labeled_pattern_k5():
    # one reference run per isomorphism class, then every labeling of the class
    pairs, classes = isomorphism_classes(5)
    assert len(classes) == 34 and sum(map(len, classes.values())) == 1024

    def pattern(bits):
        return PatternGraph(5, [pair for j, pair in enumerate(pairs) if bits >> j & 1])

    for rep, labelings in classes.items():
        expected = reference_covariance(pattern(rep), pattern(rep))
        for bits in labelings:
            assert variance_poly(pattern(bits)).covariance == expected, pattern(bits)


def relabelled_keys(pattern):
    """The distinct edge subsets J of the pattern, each relabelled in order of
    first appearance over its sorted edges, as `_sums_by_edge_sets` keys them
    once P is in search order: {key: vertex count}."""
    edges = pattern.sorted_edges()
    keys = {}
    for bits in range(1 << len(edges)):
        label = {}
        key = tuple(
            (label.setdefault(x, len(label)), label.setdefault(y, len(label)))
            for j, (x, y) in enumerate(edges)
            if bits >> j & 1
        )
        keys[key] = len(label)
    return keys


EMBEDDING_TARGETS = {
    **{f"cycle:{k}": builtin(f"cycle:{k}") for k in range(5, 9)},
    **{f"star:{k}": builtin(f"star:{k}") for k in range(4, 8)},
    "K3,3": PatternGraph(6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "two triangles": disjoint_union(builtin("triangle"), builtin("triangle")),
    "square+square": disjoint_union(builtin("square"), builtin("square")),
    "path:7": builtin("path:7"),
}


@pytest.mark.parametrize("name", sorted(EMBEDDING_TARGETS))
def test_embedding_counts_modulo_the_target_group_match_backtracking(name):
    # the keys of the target's own edge subsets and of k4's, which hold
    # triangles; one orbit table serves every key of the target, as in a call
    target = EMBEDDING_TARGETS[name]
    aut = automorphism_count(target)
    adjacent, orbits = _adjacency(target), _StabiliserOrbits(target)
    keys = {**relabelled_keys(target), **relabelled_keys(builtin("k4"))}
    del keys[()]  # the empty J has the one empty map
    assert _embedding_count((), 0, adjacent, aut, orbits) == 1
    for key, u in keys.items():
        expected = ordered_embedding_count(target.vertex_count, target.edges, PatternGraph(u, key))
        assert _embedding_count(key, u, adjacent, aut, orbits) == expected, (name, key)


def tuple_plan(pattern_a, pattern_b):
    """`_route`'s plan for the pair with the edge-set order ruled out, by a
    set-up below every estimate: (first, second, aut_first, aut_second) of
    the tuple order, A's side its ordered tuples when aut_first is set and
    its subsets in search order when it is 0."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moments_module, "_TUPLE_SET_UP", -(10**30))
        order, *planned = route(pattern_a, pattern_b)
    assert order is _sums_by_tuples
    return planned


def assert_orders_agree(pattern_a, pattern_b):
    """The overlap sums of the pair's plan from `_route` equal those of both
    summation orders taken otherwise: the edge-set order with either pattern,
    as labelled, as P, the one whose edge subsets it takes, whatever their
    edge counts, and the tuple order with the pattern with fewer vertices
    second and A's side as `_route` plans it (that depends on A alone).  The
    edge-set order counts its embeddings modulo the target's automorphism
    group."""
    order, *planned = route(pattern_a, pattern_b)
    tuples = order(*planned)
    if pattern_b.vertex_count > pattern_a.vertex_count:
        pattern_a, pattern_b = pattern_b, pattern_a
    auts = automorphism_count(pattern_a), automorphism_count(pattern_b)
    side_a, _, aut_side, _ = tuple_plan(pattern_a, pattern_a)
    assert _sums_by_tuples(side_a, pattern_b, aut_side, auts[1]) == tuples, (pattern_a, pattern_b)
    assert _sums_by_edge_sets(pattern_a, pattern_b, *auts) == tuples, (pattern_a, pattern_b)
    if pattern_b != pattern_a:
        reverse = _sums_by_edge_sets(pattern_b, pattern_a, *reversed(auts))
        assert reverse == tuples, (pattern_a, pattern_b)


def assert_orders_agree_at_k9():
    """Both summation orders agree exactly on path:9, cycle:9 and two seeded
    |Aut| = 1 patterns with 9 vertices and 10 and 12 edges.  Past the
    engine's vertex cap `_route` and its orders are called directly; a CI
    step runs this outside tier-1."""
    patterns = [
        PatternGraph(9, [(j, j + 1) for j in range(8)]),
        PatternGraph(9, [(j, (j + 1) % 9) for j in range(9)]),
        random_patterns(9, 10, 1, 1, random.Random(910))[0],
        random_patterns(9, 12, 1, 1, random.Random(912))[0],
    ]
    for pattern in patterns:
        assert_orders_agree(pattern, pattern)


def assert_tuple_tables_match_permutations_at_k9():
    """The tuple tables of a seeded |Aut| = 1 pattern with 9 vertices and 12
    edges, whose masks are 36 bits wide, equal the count over its 9!
    permutations.  A CI step runs this outside tier-1."""
    pattern = random_patterns(9, 12, 1, 1, random.Random(912))[0]
    assert engine_tuple_tables(pattern) == tuple_tables_by_permutations(pattern)


def test_summation_orders_agree_on_every_6_vertex_class_up_to_10_edges():
    pairs, classes = isomorphism_classes(6)
    assert len(classes) == 156
    patterns = [PatternGraph(6, [p for j, p in enumerate(pairs) if rep >> j & 1]) for rep in classes]
    sparse = [pattern for pattern in patterns if pattern.edge_count <= 10]
    assert len(sparse) == 138
    for pattern in sparse:
        assert_orders_agree(pattern, pattern)


@pytest.mark.parametrize(
    "name",
    [f"path:{k}" for k in range(1, 9)] + [f"cycle:{k}" for k in range(3, 9)]
    + [f"star:{k}" for k in range(1, 8)],
)
def test_summation_orders_agree_on_sparse_builtins(name):
    pattern = builtin(name)
    assert_orders_agree(pattern, pattern)
    if pattern.vertex_count >= 7:  # where the labels change the most work
        for seed in range(2):
            copy = relabelled(pattern, seed)
            assert_orders_agree(copy, copy)


def relabelled(pattern, seed):
    """The pattern under the permutation that random.Random(seed) draws."""
    permutation = list(range(pattern.vertex_count))
    random.Random(seed).shuffle(permutation)
    return relabel(pattern, permutation)


@pytest.mark.parametrize("name,counts", [("path:7", 20), ("path:8", 33), ("cycle:8", 100)])
def test_edge_set_work_does_not_depend_on_labels(monkeypatch, name, counts):
    # `_route` hands the edge-set order P in its search order, so any
    # labelling needs as many embedding counts as the builtin's (random labels
    # took about twice as many, and 1.5 times for cycle:8, when they were
    # keyed as given)
    made = []
    embedding_count = moments_module._embedding_count

    def counting(*args):
        made.append(args[0])
        return embedding_count(*args)

    monkeypatch.setattr(moments_module, "_embedding_count", counting)

    def planned_sums(pattern):
        made.clear()
        order, *planned = route(pattern, pattern)
        assert order is _sums_by_edge_sets, pattern
        return order(*planned)

    pattern = builtin(name)
    expected = planned_sums(pattern)
    assert len(made) == counts
    for seed in range(5):
        assert planned_sums(relabelled(pattern, seed)) == expected, (name, seed)
        assert len(made) == counts, (name, seed)


@pytest.mark.parametrize(
    "name,masks",
    [("cycle:7", 46), ("cycle:6", 26), ("path:5", 12), ("asym6-3", 30), ("asym6-7", 31), ("asym6-8", 30)],
)
def test_tuple_order_subset_side_does_not_depend_on_labels(name, masks):
    # `_route` hands the tuple order A's subset side in its search order, so
    # any labelling has as many distinct subset masks, over levels 1..k, as
    # the pattern as given (49-64, 27-32 and 14-16 under these random labels
    # with A taken as labelled).  The search order breaks ties of degree by
    # the neighbours' degrees; by degree alone the asym6 patterns took 29-30,
    # 29-31 and 29-32 under these labels
    pattern = PatternGraph(6, ASYM6[name]) if name in ASYM6 else builtin(name)
    for copy in [pattern] + [relabelled(pattern, seed) for seed in range(40)]:
        order, first, _, aut_first, _ = route(copy, copy)
        assert order is _sums_by_tuples and aut_first == 0, copy
        tables = folded_tables(first, first.vertex_count, aut_first)
        assert sum(map(len, tables[1:])) == masks, copy


ISOLATED = {
    "k5 P3": PatternGraph(5, [(1, 2), (2, 3)]),
    "k6 P4": PatternGraph(6, [(0, 3), (3, 5), (5, 1)]),
    "k7 2K2": PatternGraph(7, [(0, 6), (2, 4)]),
    "k8 C5": PatternGraph(8, [(1, 3), (3, 5), (5, 7), (7, 2), (2, 1)]),
    "k8 empty": PatternGraph(8),
}


@pytest.mark.parametrize(
    "name_a,name_b",
    [
        ("path:6", "cycle:7"),
        ("edge", "path:8"),
        ("star:7", "path:5"),
        ("path:7", "k8 empty"),
        ("triangle", "k8 C5"),
        ("path:7", "k7 2K2"),
        ("cycle:6", "k6 P4"),
        ("square", "k5 P3"),
        ("star:5", "cycle:8"),
        ("cycle:5", "path:8"),
    ],
)
def test_summation_orders_agree_on_mixed_pairs(name_a, name_b):
    pattern_a = builtin(name_a)
    pattern_b = ISOLATED[name_b] if name_b in ISOLATED else builtin(name_b)
    assert_orders_agree(pattern_a, pattern_b)
    assert_orders_agree(pattern_b, pattern_a)


@pytest.mark.parametrize("name", sorted(ISOLATED))
def test_summation_orders_agree_with_isolated_vertices(name):
    pattern = ISOLATED[name]
    assert_orders_agree(pattern, pattern)
    for other in ISOLATED.values():
        assert_orders_agree(pattern, other)


def pairs_one_at_a_time(items_a, items_b):
    """The sum of count_a * count_b * 2^|a & b| over two sides' (mask,
    count) items, one pair of masks at a time."""
    return sum(
        count_a * count_b << (mask_a & mask_b).bit_count()
        for mask_a, count_a in items_a
        for mask_b, count_b in items_b
    )


def sums_one_pair_at_a_time(pattern_a, pattern_b, aut_a, aut_b):
    """The overlap sums of a tuple-order plan, every level of both sides
    counted and paired one pair of masks at a time."""
    depth = pattern_b.vertex_count
    tables_a = folded_tables(pattern_a, depth, aut_a)
    tables_b = folded_tables(pattern_b, depth, aut_b)
    return [1] + [
        pairs_one_at_a_time(tables_a[i].items(), tables_b[i].items()) // (factorial(i) if aut_a else 1)
        for i in range(1, depth + 1)
    ]


def routed_to_tuples(pattern):
    """Whether `_route` plans this pattern's A side of the tuple order on its
    ordered tuples rather than its subsets."""
    return tuple_plan(pattern, pattern)[2] > 0


def assert_tuple_side_agrees(pattern_a, pattern_b):
    """A's side is routed to its tuple tables, and the overlap sums equal
    those taken over A's subsets."""
    if pattern_b.vertex_count > pattern_a.vertex_count:
        pattern_a, pattern_b = pattern_b, pattern_a
    assert routed_to_tuples(pattern_a), pattern_a
    auts = automorphism_count(pattern_a), automorphism_count(pattern_b)
    tuples = _sums_by_tuples(pattern_a, pattern_b, *auts)
    assert tuples == sums_one_pair_at_a_time(pattern_a, pattern_b, 0, auts[1]), (pattern_a, pattern_b)


def test_tuple_side_matches_subsets_on_every_labeled_pattern_k5():
    routed = [p for k in range(1, 6) for p in all_labeled_patterns(k) if routed_to_tuples(p)]
    assert len(routed) == 80
    for pattern in routed:
        assert_tuple_side_agrees(pattern, pattern)


def test_tuple_side_matches_subsets_on_every_routed_6_vertex_class():
    pairs, classes = isomorphism_classes(6)
    patterns = [PatternGraph(6, [p for j, p in enumerate(pairs) if rep >> j & 1]) for rep in classes]
    routed = [pattern for pattern in patterns if routed_to_tuples(pattern)]
    assert len(routed) == 8
    for pattern in routed:
        assert_tuple_side_agrees(pattern, pattern)


@pytest.mark.parametrize(
    "name_a,name_b",
    [
        # kA > kB: A's tuple tables stop at depth kB
        ("clique:7", "star:3"),
        ("k8 empty", "edge"),
        ("clique:8", "k4"),
        ("star:7", "triangle"),
        ("k8 empty", "clique:5"),
        ("clique:6", "square"),
        # kA = kB, A != B, both symmetric
        ("clique:8", "star:7"),
        ("clique:7", "star:6"),
        ("k8 empty", "star:7"),
        ("clique:4", "square"),
    ],
)
def test_tuple_side_matches_subsets_on_symmetric_pairs(name_a, name_b):
    pattern_a = ISOLATED[name_a] if name_a in ISOLATED else builtin(name_a)
    pattern_b = builtin(name_b)
    assert_tuple_side_agrees(pattern_a, pattern_b)
    assert_tuple_side_agrees(pattern_b, pattern_a)


# The patterns whose every pair-loop level is paired by the broadword
# kernel and one pair at a time.  As `_route` plans them, A's side is the
# ordered tuples of clique:8 and star:7 and the subsets of the others; the
# patterns of ORDERED are paired over their ordered tuples too, passed
# |Aut A| explicitly, so that A's side is B's own tables on long lists.
PAIR_LOOP = {
    **{name: PatternGraph(6, edges) for name, edges in ASYM6.items()},
    "cycle:7": builtin("cycle:7"),
    **SYMMETRIC_8,
    "aut1-k7-e10": random_patterns(7, 10, 1, 1, random.Random(710))[0],
    "aut2-k7-e13": random_patterns(7, 13, 2, 1, random.Random(713))[0],
    "aut1-k8-e10": random_patterns(8, 10, 1, 1, random.Random(810))[0],
}
ORDERED = ("clique:8", "star:7", "cube", "square+square", "cycle:7")
PAIR_LOOP_PLANS = [(name, "planned") for name in sorted(PAIR_LOOP)] + [(name, "ordered") for name in ORDERED]


def pair_loop_plan(name, side):
    """The tuple order's plan for the variance of PAIR_LOOP[name]: `_route`'s,
    or with A's side on its ordered tuples."""
    pattern = PAIR_LOOP[name]
    if side == "ordered":
        aut = automorphism_count(pattern)
        return [pattern, pattern, aut, aut]
    return tuple_plan(pattern, pattern)


@pytest.mark.parametrize("name,side", PAIR_LOOP_PLANS)
def test_broadword_pair_loop_matches_one_pair_at_a_time_on_every_level(name, side):
    # the kernel on every level of B's masks, whatever their number: the
    # planes of an |Aut| = 1 tuple pass as they are, a row-built pass's list
    # packed
    pattern_a, pattern_b, aut_a, aut_b = pair_loop_plan(name, side)
    assert (aut_a > 0) == (side == "ordered" or name in ("clique:8", "star:7"))
    depth = pattern_b.vertex_count
    tables_a = folded_tables(pattern_a, depth, aut_a)
    bulk_b = _mask_tables(pattern_b, depth, aut_b)[1]
    for i in range(1, depth + 1):
        items_a, masks_b = tables_a[i].items(), bulk_b[i]
        expected = pairs_one_at_a_time(items_a, Counter(masks_b).items())
        if aut_b == 1:
            assert isinstance(masks_b, Planes), i
        else:
            masks_b = Planes.packed(masks_b, i * (i - 1) // 2)
        assert broadword(items_a, masks_b) == expected, i


@pytest.mark.parametrize("bits", [0, 1, 6, 8, 9, 16, 21, 28, 32, 33, 36, 45, 64])
def test_planes_give_back_their_masks(bits):
    # rows of 1, 2, 4 and 8 bytes, the last for masks wider than 32 bits
    # (k = 9 has 36)
    rng = random.Random(bits)
    masks = [0, (1 << bits) - 1] + [rng.getrandbits(bits) for _ in range(200)]
    planes = Planes.packed(masks, bits)
    assert len(planes.planes) == -(-bits // 8) and len(planes) == len(masks)
    assert list(planes) == masks


# (_COUNT_MIN, _BROADWORD_MIN): the kernel on every level that has a list,
# and one pair at a time on every level
EVERY_KERNEL = (10**9, 1), (0, 10**9)


@pytest.mark.parametrize("name,side", PAIR_LOOP_PLANS)
def test_tuple_order_matches_one_pair_at_a_time_with_every_kernel(name, side):
    plan = pair_loop_plan(name, side)
    expected = sums_one_pair_at_a_time(*plan)
    for count_min, broadword_min in EVERY_KERNEL:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(moments_module, "_COUNT_MIN", count_min)
            patch.setattr(moments_module, "_BROADWORD_MIN", broadword_min)
            assert _sums_by_tuples(*plan) == expected, (count_min, broadword_min)


@pytest.mark.parametrize(
    "name_a,name_b", [("cycle:7", "asym6-5"), ("clique:8", "star:7"), ("aut1-k8-e10", "cycle:7")]
)
def test_tuple_order_matches_one_pair_at_a_time_on_covariance_pairs(name_a, name_b):
    plan = tuple_plan(PAIR_LOOP[name_a], PAIR_LOOP[name_b])
    expected = sums_one_pair_at_a_time(*plan)
    assert _sums_by_tuples(*plan) == expected
    for count_min, broadword_min in EVERY_KERNEL:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(moments_module, "_COUNT_MIN", count_min)
            patch.setattr(moments_module, "_BROADWORD_MIN", broadword_min)
            assert _sums_by_tuples(*plan) == expected, (count_min, broadword_min)


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


def submasks(bits):
    sub = bits
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & bits


@cache
def induced_covariances(k, min_edges=0):
    """Cov(I_H, I_K) for every pair of k-vertex classes with at least
    `min_edges` edges, where I_H counts the k-subsets S with G[S] isomorphic
    to H, from the engine's covariances.

    X_F = sum over H of s(F, H) I_H, where s(F, H) counts the edge subsets of
    H isomorphic to F; s(F, F) = 1 and s(F, H) = 0 unless F has fewer edges,
    so I_F = X_F - sum over H != F of s(F, H) I_H, solved from the densest
    class down.  Every H with s(F, H) > 0 has at least F's edges, so the
    classes with at least `min_edges` edges need only their own covariances.
    Each engine covariance is taken at n = 0..2k (its degree is at most 2k)
    in integers over one scale, and transformed on both sides.  Returns
    ({(H, K): values at n = 0..2k}, scale).
    """
    _, classes = isomorphism_classes(k)
    dense = (rep for rep in classes if rep.bit_count() >= min_edges)
    reps = sorted(dense, key=lambda bits: (bits.bit_count(), bits))
    class_of = {bits: rep for rep, labelings in classes.items() for bits in labelings}
    supergraphs = defaultdict(Counter)  # supergraphs[F][H] = s(F, H)
    for rep in reps:
        for sub in submasks(rep):
            supergraphs[class_of[sub]][rep] += 1
    mobius = {}  # I_F = sum over H of mobius[F][H] X_H
    for rep in reversed(reps):
        combination = Counter({rep: 1})
        for above, count in supergraphs[rep].items():
            if above != rep:
                for other, weight in mobius[above].items():
                    combination[other] -= count * weight
        mobius[rep] = combination

    polys = {
        (a, b): covariance_poly(class_pattern(k, a), class_pattern(k, b)).covariance
        for a, b in combinations_with_replacement(reps, 2)
    }
    scale = lcm(*(c.denominator for poly in polys.values() for c in poly.coeffs))
    points = range(2 * k + 1)
    engine = {}
    for (a, b), poly in polys.items():
        numerators = [int(c * scale) for c in poly.coeffs]
        engine[a, b] = engine[b, a] = [
            sum(c * n**j for j, c in enumerate(numerators)) for n in points
        ]

    def combine(terms):
        """The sum of weight * values over (values, weight) terms, pointwise."""
        total = [0] * len(points)
        for values, weight in terms:
            total = [t + weight * v for t, v in zip(total, values)]
        return total

    half = {
        (h, g): combine((engine[f, g], weight) for f, weight in mobius[h].items())
        for h in reps
        for g in reps
    }
    induced = {
        (h, kk): combine((half[h, g], weight) for g, weight in mobius[kk].items())
        for h in reps
        for kk in reps
    }
    return induced, scale


def matching_overlaps(k, tables_h, tables_k):
    """matches[i]: pairs of an i-subset of H and an i-tuple of K with one
    slot-pair mask, from tuple tables counted over permutations; the tables
    start at i = 1, and the empty tuples match once."""
    return [1] + [
        sum(count * tables_k[i][mask] for mask, count in tables_h[i].items()) // factorial(i)
        for i in range(1, k + 1)
    ]


def brute_force_induced_covariance(k, matches, aut_h, aut_k, n):
    """Cov(I_H, I_K) at n, from `matching_overlaps` of H and K.

    Maps phi of H and psi of K into the n nodes that share i nodes, where an
    i-tuple of H's vertices meets an i-tuple of K's, number (n)_k (n-k)_{k-i}
    per pair of tuples, over i! orderings of the shared nodes.  Both induced
    graphs are fixed with probability 2^C(i,2) / 2^(2 C(k,2)) when the two
    tuples have the same slot-pair mask, and never otherwise.
    """
    if n < k:
        return Fraction(0)
    square = aut_h * aut_k * 2 ** (k * (k - 1))
    second = sum(
        (perm(n, k) * perm(n - k, k - i) << i * (i - 1) // 2) * matches[i] for i in range(k + 1)
    )
    return Fraction(second, square) - Fraction(perm(n, k) ** 2, square)


# k = 6, all 12,246 covariances of the 156 classes, runs as a CI step of its
# own: both tests below called with k = 6.
@pytest.mark.parametrize("k", [4, 5])
def test_induced_covariances_match_brute_force(k, min_edges=0):
    _, classes = isomorphism_classes(k)
    assert len(classes) == {4: 11, 5: 34, 6: 156}[k]
    induced, scale = induced_covariances(k, min_edges)
    sides = {
        rep: (tuple_tables_by_permutations(class_pattern(k, rep)), factorial(k) // len(labelings))
        for rep, labelings in classes.items()
        if rep.bit_count() >= min_edges
    }
    for (h, other), values in induced.items():
        (tables_h, aut_h), (tables_k, aut_k) = sides[h], sides[other]
        matches = matching_overlaps(k, tables_h, tables_k)
        for n, value in enumerate(values):
            expected = brute_force_induced_covariance(k, matches, aut_h, aut_k, n)
            assert Fraction(value, scale) == expected, (h, other, n)


def test_induced_covariances_of_the_dense_six_vertex_classes_match_brute_force():
    # the 9 classes with at least 12 edges, the complements of those with at
    # most 3: 45 engine covariances, all by the tuple order, and most walk
    # prefixes with a nontrivial stabiliser
    assert len(induced_covariances(6, 12)[0]) == 9 * 9
    test_induced_covariances_match_brute_force(6, min_edges=12)


@pytest.mark.parametrize("k", [4, 5])
def test_induced_covariances_are_complement_symmetric(k):
    # G and its complement have the same law at p = 1/2, and I_H(G) is the
    # count of H's complement in the complement of G
    pairs, classes = isomorphism_classes(k)
    induced, _ = induced_covariances(k)
    full = (1 << len(pairs)) - 1
    class_of = {bits: rep for rep, labelings in classes.items() for bits in labelings}
    for (h, other), values in induced.items():
        assert induced[class_of[full ^ h], class_of[full ^ other]] == values, (h, other)


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
