"""Moment engine: golden polynomials, structural invariants, argument checks."""

import gc
import inspect
import math
import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motifmoments
from motifmoments import (
    PatternGraph,
    RationalPolynomial,
    automorphism_count,
    builtin,
    covariance_poly,
    mean_poly,
    poly_eval_exact,
    relabel,
    second_moment_poly,
    variance_poly,
    verify,
)
from motifmoments.algebra import falling_factorial_poly
from motifmoments.moments import _falls, _mask_tables, _route, _sums_by_edge_sets, _sums_by_tuples

from helpers import (
    GOLDEN_COV_EDGE_TRIANGLE,
    GOLDEN_MEANS,
    GOLDEN_VARIANCES,
    class_pattern,
    falling_from_roots,
    isomorphism_classes,
    random_patterns,
    route,
    run_child,
)

F = Fraction

BUILTIN_NAMES = ("node", "edge", "wedge", "triangle", "square", "k4")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_mean_matches_golden(name):
    assert mean_poly(builtin(name)) == RationalPolynomial(GOLDEN_MEANS[name])


def test_falls_are_the_falling_factorial_numerators():
    # the engine's integer recurrence against the polynomial product
    for k in range(17):
        coeffs = falling_factorial_poly(k).coeffs
        assert all(c.denominator == 1 for c in coeffs)
        assert _falls(k) == tuple(c.numerator for c in coeffs), k


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_variance_matches_golden(name):
    report = variance_poly(builtin(name))
    assert report.covariance == RationalPolynomial(GOLDEN_VARIANCES[name])


def test_mean_degree_and_roots():
    for name in BUILTIN_NAMES:
        p = builtin(name)
        mean = mean_poly(p)
        assert mean.degree == p.vertex_count
        for n in range(p.vertex_count):
            assert poly_eval_exact(mean, n) == 0


def test_second_moment_edge_pair():
    # E[m^2] = ff(4)/16 + ff(3)/4 + ff(2)/4, expanded to monomials
    expected = (
        falling_from_roots(4) * F(1, 16)
        + falling_from_roots(3) * F(1, 4)
        + falling_from_roots(2) * F(1, 4)
    )
    assert second_moment_poly(builtin("edge"), builtin("edge")) == expected


def test_second_moment_node_pair_is_n_squared():
    assert second_moment_poly(builtin("node"), builtin("node")).coeffs == (
        F(0),
        F(0),
        F(1),
    )


def test_second_moment_edge_triangle():
    expected = (
        falling_from_roots(5) * F(1, 192)
        + falling_from_roots(4) * F(1, 32)
        + falling_from_roots(3) * F(1, 16)
    )
    assert second_moment_poly(builtin("edge"), builtin("triangle")) == expected


def test_covariance_edge_triangle_golden():
    report = covariance_poly(builtin("edge"), builtin("triangle"))
    assert report.covariance == RationalPolynomial(GOLDEN_COV_EDGE_TRIANGLE)
    swapped = covariance_poly(builtin("triangle"), builtin("edge"))
    assert swapped.covariance == report.covariance


def test_covariance_with_node_is_zero():
    # An edgeless pattern's count is deterministic, so its covariance with any
    # count is 0: the second moment is the empty and one-vertex overlaps alone.
    others = BUILTIN_NAMES + ("path:8", "cycle:8", "star:7", "clique:8")
    for k in range(1, 5):
        edgeless = PatternGraph(k)
        for name in others:
            for a, b in ((edgeless, builtin(name)), (builtin(name), edgeless)):
                report = covariance_poly(a, b)
                assert report.covariance.coeffs == (), (k, name)
                assert report.second_moment == report.mean_a * report.mean_b, (k, name)


def test_report_identity_and_metadata():
    report = covariance_poly(builtin("edge"), builtin("triangle"))
    assert report.covariance == report.second_moment - report.mean_a * report.mean_b
    assert (report.aut_a, report.aut_b) == (2, 6)
    assert report.pattern_a == builtin("edge")
    assert report.pattern_b == builtin("triangle")
    var_report = variance_poly(builtin("wedge"))
    assert var_report.pattern_a == var_report.pattern_b
    assert var_report.mean_a == var_report.mean_b


def test_variance_vanishes_below_pattern_size():
    for name in BUILTIN_NAMES:
        p = builtin(name)
        report = variance_poly(p)
        for n in range(p.vertex_count):
            assert poly_eval_exact(report.covariance, n) == 0


def test_variance_degree_is_2k_minus_2():
    for name in ("edge", "wedge", "triangle", "square", "k4"):
        p = builtin(name)
        assert variance_poly(p).covariance.degree == 2 * p.vertex_count - 2


def test_variance_nonnegative_at_small_n():
    for name in BUILTIN_NAMES:
        p = builtin(name)
        report = variance_poly(p)
        for n in range(2 * p.vertex_count + 5):
            assert poly_eval_exact(report.covariance, n) >= 0


def test_engine_rejects_oversized_patterns():
    big = PatternGraph(9, [(0, 1)])
    with pytest.raises(ValueError, match="engine maximum"):
        mean_poly(big)
    with pytest.raises(ValueError, match="engine maximum"):
        second_moment_poly(big, builtin("edge"))


def test_workers_do_not_change_output():
    for workers in (1, 2, 3):
        assert variance_poly(
            builtin("triangle"), workers=workers
        ).covariance == RationalPolynomial(GOLDEN_VARIANCES["triangle"])
        assert covariance_poly(
            builtin("edge"), builtin("triangle"), workers=workers
        ).covariance == RationalPolynomial(GOLDEN_COV_EDGE_TRIANGLE)


def test_workers_below_one_rejected():
    for workers in (0, -4):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            variance_poly(builtin("edge"), workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            covariance_poly(builtin("edge"), builtin("edge"), workers=workers)


def test_public_surface():
    assert sorted(motifmoments.__all__) == [
        "DEFAULT_MAX_VERTICES",
        "DEFAULT_NODE_CAP",
        "MomentReport",
        "OracleResult",
        "PatternGraph",
        "RationalPolynomial",
        "VerificationCheck",
        "VerificationReport",
        "automorphism_count",
        "builtin",
        "builtin_names",
        "covariance_poly",
        "exact_moments",
        "falling_factorial_poly",
        "format_rational_decimal",
        "mean_poly",
        "parse_adjacency_matrix",
        "parse_edge_list",
        "poly_eval_exact",
        "rat_add",
        "rat_div",
        "rat_mul",
        "rat_sub",
        "relabel",
        "second_moment_poly",
        "sqrt_decimal",
        "variance_poly",
        "verify",
    ]
    for name in motifmoments.__all__:
        assert getattr(motifmoments, name) is not None
    assert list(inspect.signature(second_moment_poly).parameters) == ["pattern_a", "pattern_b"]


def test_automorphisms_searched_at_most_once_per_pattern_per_call(monkeypatch):
    # each public function searches once per distinct pattern; covariance_poly
    # reads |Aut A| |Aut B| from the second moment it calls, so it searches
    # again only for A, and only when A != B
    import motifmoments.moments as moments_module

    searched = []

    def counting(pattern):
        searched.append(pattern)
        return automorphism_count(pattern)

    monkeypatch.setattr(moments_module, "automorphism_count", counting)
    square, edge, triangle = builtin("square"), builtin("edge"), builtin("triangle")
    calls = [
        (lambda: mean_poly(square), [square]),
        (lambda: second_moment_poly(square, square), [square]),
        (lambda: second_moment_poly(edge, triangle), [edge, triangle]),
        (lambda: variance_poly(square), [square]),
        (lambda: covariance_poly(edge, triangle), [edge, triangle, edge]),
    ]
    for call, expected in calls:
        searched.clear()
        call()
        assert searched == expected
    report = variance_poly(square)
    assert report.aut_a == report.aut_b == 8


def test_each_covariance_calls_the_module_second_moment_once(monkeypatch):
    # perfbench's tracer wraps the module-level second_moment_poly and counts
    # mask pairs from the two patterns of each call, so covariance_poly calls
    # it exactly once, by that name, with the caller's patterns
    import motifmoments.moments as moments_module

    calls = []
    second = moments_module.second_moment_poly

    def spying(pattern_a, pattern_b):
        calls.append((pattern_a, pattern_b))
        return second(pattern_a, pattern_b)

    monkeypatch.setattr(moments_module, "second_moment_poly", spying)
    square, edge, triangle = builtin("square"), builtin("edge"), builtin("triangle")
    for call, expected in [
        (lambda: covariance_poly(edge, triangle), (edge, triangle)),
        (lambda: variance_poly(square), (square, square)),
        (lambda: verify(triangle, triangle, range(4)), (triangle, triangle)),
    ]:
        calls.clear()
        call()
        assert calls == [expected]


@pytest.mark.parametrize("name", ["clique:8", "star:7"])
def test_symmetric_pattern_variance_is_fast(name):
    # the ordered tuples are enumerated one per automorphism orbit, not all
    # e * 8! of them (about 0.2 s for these patterns)
    pattern = builtin(name)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        variance_poly(pattern)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.05


def test_patterns_up_to_5_vertices_never_reach_the_broadword_kernel(monkeypatch):
    # a level of a pattern with at most 5 vertices holds at most 5! = 120
    # masks, under the kernel's threshold, so the cold CLI's patterns are
    # paired one pair at a time and never import the kernel's module
    monkeypatch.delitem(sys.modules, "motifmoments._broadword", raising=False)
    classes = [class_pattern(k, bits) for k in range(1, 6) for bits in isomorphism_classes(k)[1]]
    assert len(classes) == 1 + 2 + 4 + 11 + 34
    for pattern in classes:
        variance_poly(pattern)
        for other in builtin("clique:5"), builtin("path:5"), builtin("star:4"):
            covariance_poly(pattern, other)
    assert "motifmoments._broadword" not in sys.modules


def traced_variance(pattern):
    """(kept, peak): the traced size of the tables and lists of the
    variance's two table passes, and the traced peak of two variance calls.
    The per-k caches are filled outside the trace."""
    variance_poly(pattern)
    _, first, second, aut_first, aut_second = route(pattern, pattern)
    tracemalloc.start()
    try:
        tables = _mask_tables(second, 8, aut_second), _mask_tables(first, 8, aut_first)
        kept = tracemalloc.get_traced_memory()[0]
        del tables
        tracemalloc.reset_peak()
        variance_poly(pattern)
        variance_poly(pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return kept, peak


def test_low_symmetry_variance_peak_memory():
    # An |Aut| = 1 tuple pass keeps its levels as byte planes, a few bytes a
    # mask, and the pair loop frees each level once summed.  This k = 8,
    # e = 16 variance keeps 0.35 MB and peaks at 0.64 MB (Python 3.11), about
    # half of it the count of level 6's 20,160 masks; when the pass built an
    # integer per tuple it peaked at 4.72-5.15 MB under Python 3.10-3.13.
    _, peak = traced_variance(random_patterns(8, 16, 1, 1, random.Random(816))[0])
    assert peak < 0.8e6
    # A tuple pass with |Aut| > 1 expands one first vertex's subtree at a
    # time, so its level states stay small beside the mask lists it keeps:
    # this k = 8, e = 12, |Aut| = 2 variance peaks at 1.16 times the traced
    # size of its two passes (2.68 MB, Python 3.11).  The tables are freed
    # when the call returns, so a second call peaks no higher.
    kept, peak = traced_variance(random_patterns(8, 12, 2, 1, random.Random(812))[0])
    assert peak < 1.5 * kept


@pytest.mark.parametrize(
    "name_a,name_b",
    [(name, name) for name in ("path:7", "cycle:7", "cycle:8", "path:8", "clique:8", "star:7")]
    + [("path:6", "cycle:7")],
)
def test_moment_calls_leave_no_cyclic_garbage(name_a, name_b):
    # the recursive searches unbind themselves once they return, so a call
    # frees what it made by reference counting alone (path:8's variance left
    # 1034 objects in cycles when they did not)
    pattern_a, pattern_b = builtin(name_a), builtin(name_b)
    covariance_poly(pattern_a, pattern_b)  # fills the per-k caches
    gc.collect()
    gc.disable()
    try:
        covariance_poly(pattern_a, pattern_b)
    finally:
        gc.enable()
    assert gc.collect() == 0


def edge_sets_chosen(pattern_a, pattern_b):
    return route(pattern_a, pattern_b)[0] is _sums_by_edge_sets


def labeled_patterns_up_to_5_vertices():
    for k in range(1, 6):
        pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
        for bits in range(1 << len(pairs)):
            yield PatternGraph(k, [p for j, p in enumerate(pairs) if bits >> j & 1])


def test_sparse_asymmetric_patterns_take_the_edge_set_order():
    # each route is the order measured faster (see moments._TUPLE_SET_UP)
    rng = random.Random(20140523)
    patterns = [builtin(f"path:{k}") for k in (1, 2, 3, 4, 6, 7, 8)]
    patterns += [builtin(f"cycle:{k}") for k in (3, 8)]
    patterns += [builtin(f"clique:{k}") for k in range(1, 4)]
    patterns += [builtin(f"star:{k}") for k in range(1, 4)]
    for edge_count in (6, 7, 8, 9):
        patterns += random_patterns(8, edge_count, 1, 5, rng)
    # every labelled pattern with k <= 5 and at most 3 edges
    sparse = [p for p in labeled_patterns_up_to_5_vertices() if p.edge_count <= 3]
    assert len(sparse) == 1 + 2 + 8 + 42 + 176
    for pattern in patterns + sparse:
        assert edge_sets_chosen(pattern, pattern), pattern
    # the covariance pairs of perfbench's cold CLI workload and of
    # engine-lowsym, both ways round where the two have one vertex count
    for name_a, name_b in [
        ("edge", "triangle"), ("wedge", "square"), ("path:4", "star:3"),
        ("triangle", "k4"), ("path:6", "cycle:7"),
    ]:
        assert edge_sets_chosen(builtin(name_a), builtin(name_b))
        assert edge_sets_chosen(builtin(name_b), builtin(name_a))


# The four densest graphs on six vertices whose only automorphism is the
# identity, as perfbench's asym6-5 to asym6-8.
ASYM6 = {
    "asym6-5": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4)),
    "asym6-6": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (3, 5)),
    "asym6-7": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 5), (4, 5)),
    "asym6-8": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (4, 5)),
}


def test_small_dense_and_symmetric_patterns_take_the_tuple_order():
    # engine-highsym's clique:7/8 and star:6/7, and engine-lowsym's cycle:7
    # and asym6 patterns, among them
    patterns = [builtin(f"clique:{k}") for k in range(4, 9)]
    patterns += [builtin(f"star:{k}") for k in range(4, 8)]
    patterns += [builtin(f"cycle:{k}") for k in range(4, 8)]
    patterns += [builtin("path:5")]
    patterns += [PatternGraph(6, edges) for edges in ASYM6.values()]
    # every labelled pattern with k <= 5 and at least 4 edges
    dense = [p for p in labeled_patterns_up_to_5_vertices() if p.edge_count >= 4]
    assert len(dense) == 22 + 848
    for pattern in patterns + dense:
        assert not edge_sets_chosen(pattern, pattern), pattern
    # with kA = kB the tuple side is the one with fewer tuple representatives,
    # cycle:5 (60, against path:5's 240) and star:4 (20); symmetric
    # covariance pairs of different sizes; both ways round, name_a on the
    # tuple side
    for name_a, name_b in [
        ("cycle:5", "path:5"), ("star:4", "path:5"), ("star:5", "cycle:8"), ("cycle:5", "path:8"),
    ]:
        for pair in (builtin(name_a), builtin(name_b)), (builtin(name_b), builtin(name_a)):
            order, _, tuple_side, _, _ = route(*pair)
            assert order is _sums_by_tuples and tuple_side == builtin(name_a), pair


def test_both_argument_orders_take_the_same_pass():
    # the order, the orientation and so the cost of a pair do not depend on
    # the order of the arguments; asym6-5 and asym6-6 tie on both counts
    # (6 vertices, 8 edges, |Aut| = 1), so their sorted edge lists decide
    pairs = [
        ("cycle:5", "path:5"), ("star:4", "path:5"), ("star:4", "cycle:5"), ("path:4", "star:3"),
        ("square", "path:4"), ("k4", "star:3"), ("cycle:7", "path:7"), ("clique:6", "cycle:6"),
        ("edge", "triangle"), ("path:6", "cycle:7"), ("star:5", "cycle:8"), ("cycle:5", "path:8"),
    ]
    pairs += [(name, f"asym6-{j}") for name in ASYM6 for j in (5, 8)]
    pairs += [("cycle:6", "asym6-6"), ("path:6", "asym6-7"), ("star:5", "asym6-5")]
    for name_a, name_b in pairs:
        pattern_a, pattern_b = (
            PatternGraph(6, ASYM6[name]) if name in ASYM6 else builtin(name)
            for name in (name_a, name_b)
        )
        assert route(pattern_a, pattern_b) == route(pattern_b, pattern_a), (name_a, name_b)


def test_routes_do_not_depend_on_argument_order_on_any_class_pair():
    # every pair of isomorphism classes with k <= 6, among them 392 pairs of
    # different classes (355 of them six-vertex) that tie on vertex count
    # and tuple representatives, where only the sorted edge lists decide
    patterns = [class_pattern(k, rep) for k in range(1, 7) for rep in isomorphism_classes(k)[1]]
    auts = [automorphism_count(pattern) for pattern in patterns]
    for i, j in combinations_with_replacement(range(len(patterns)), 2):
        pattern_a, pattern_b = patterns[i], patterns[j]
        routed = _route(pattern_a, pattern_b, auts[i], auts[j])
        assert routed == _route(pattern_b, pattern_a, auts[j], auts[i]), (pattern_a, pattern_b)
    keys = Counter(
        (p.vertex_count, p.edge_count * math.factorial(p.vertex_count) // aut)
        for p, aut in zip(patterns, auts)
    )
    assert sum(count * (count - 1) // 2 for count in keys.values()) == 392


@pytest.mark.parametrize(
    "name,passes",
    [
        ("clique:8", ["tuples"]),
        ("star:7", ["tuples"]),
        ("clique:7", ["tuples"]),
        ("star:6", ["tuples"]),
        ("asym6-5", ["tuples", "subsets"]),
        ("cycle:7", ["tuples", "subsets"]),
        ("cycle:6", ["tuples", "subsets"]),
    ],
)
def test_symmetric_variance_builds_one_table_pass(monkeypatch, name, passes):
    # a symmetric pattern's subsets are paired from its own tuple tables
    import motifmoments.moments as moments_module

    made = []
    mask_tables = moments_module._mask_tables

    def counting(pattern, depth, aut=0):
        made.append("tuples" if aut else "subsets")
        return mask_tables(pattern, depth, aut)

    monkeypatch.setattr(moments_module, "_mask_tables", counting)
    pattern = PatternGraph(6, ASYM6[name]) if name in ASYM6 else builtin(name)
    variance_poly(pattern)
    assert made == passes


def test_import_starts_no_process_machinery():
    """Importing the package and its CLI, and reading a name that loads the
    library, loads no process pool and none of the heavier standard modules
    it used to.  The child runs with -S, because a site .pth file may
    preload any of them."""
    code = (
        "import sys, motifmoments, motifmoments.cli; motifmoments.verify; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing', 'dataclasses', 'inspect', 'typing')))"
    )
    assert run_child(code).strip() == "[]"


def test_import_loads_no_module_until_a_name_is_read():
    """`import motifmoments` loads none of the package's modules; the first
    exported name read loads them and binds every exported name."""
    code = (
        "import sys, motifmoments as mm; "
        "print(sorted(m for m in sys.modules if m.startswith('motifmoments'))); "
        "mm.mean_poly; "
        "print(sorted(m for m in sys.modules if m.startswith('motifmoments'))); "
        "print(all(name in vars(mm) for name in mm.__all__))"
    )
    assert run_child(code).splitlines() == [
        "['motifmoments']",
        "['motifmoments', 'motifmoments.algebra', 'motifmoments.moments', "
        "'motifmoments.oracle', 'motifmoments.pattern', 'motifmoments.symmetry']",
        "True",
    ]


def test_package_names_are_the_objects_of_their_modules():
    modules = [
        getattr(motifmoments, name) for name in ("algebra", "pattern", "symmetry", "moments", "oracle")
    ]
    for name in motifmoments.__all__:
        homes = [module for module in modules if name in vars(module)]
        assert homes, name
        assert all(vars(module)[name] is vars(motifmoments)[name] for module in homes), name
    assert set(motifmoments.__all__) <= set(dir(motifmoments))
    namespace: dict = {}
    exec("from motifmoments import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(motifmoments.__all__)
    with pytest.raises(AttributeError, match="module 'motifmoments' has no attribute 'nope'"):
        motifmoments.nope


@st.composite
def small_patterns(draw, max_vertices=4):
    k = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return PatternGraph(k, edges)


@given(small_patterns(), small_patterns(), st.data())
@settings(max_examples=50, deadline=None)
def test_relabeling_invariance(pattern_a, pattern_b, data):
    perm_a = data.draw(st.permutations(range(pattern_a.vertex_count)))
    perm_b = data.draw(st.permutations(range(pattern_b.vertex_count)))
    original = covariance_poly(pattern_a, pattern_b)
    relabeled = covariance_poly(relabel(pattern_a, perm_a), relabel(pattern_b, perm_b))
    assert relabeled.covariance == original.covariance
    assert relabeled.mean_a == original.mean_a
    assert relabeled.second_moment == original.second_moment


@given(small_patterns(), small_patterns())
@settings(max_examples=50, deadline=None)
def test_covariance_symmetry(pattern_a, pattern_b):
    forward = covariance_poly(pattern_a, pattern_b)
    backward = covariance_poly(pattern_b, pattern_a)
    assert forward.covariance == backward.covariance
    assert forward.second_moment == backward.second_moment
