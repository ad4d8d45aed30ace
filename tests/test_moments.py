"""Moment engine: golden polynomials, structural invariants, argument checks."""

import inspect
import random
import time
from fractions import Fraction

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
)
from motifmoments.moments import _edge_sets_cheaper

from helpers import (
    GOLDEN_COV_EDGE_TRIANGLE,
    GOLDEN_MEANS,
    GOLDEN_VARIANCES,
    falling_from_roots,
    run_child,
)

F = Fraction

BUILTIN_NAMES = ("node", "edge", "wedge", "triangle", "square", "k4")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_mean_matches_golden(name):
    assert mean_poly(builtin(name)) == RationalPolynomial(GOLDEN_MEANS[name])


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


def edge_sets_chosen(pattern_a, pattern_b):
    """The engine's choice for a pair, with the pattern with fewer vertices
    on the tuple side, as `_overlap_sums` orders them."""
    if pattern_b.vertex_count > pattern_a.vertex_count:
        pattern_a, pattern_b = pattern_b, pattern_a
    return _edge_sets_cheaper(pattern_a, pattern_b, automorphism_count(pattern_b))


def asymmetric_8_vertex_patterns(edge_count, samples, rng):
    pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    found = []
    while len(found) < samples:
        pattern = PatternGraph(8, rng.sample(pairs, edge_count))
        if automorphism_count(pattern) == 1:
            found.append(pattern)
    return found


def test_sparse_asymmetric_patterns_take_the_edge_set_order():
    rng = random.Random(20140523)
    patterns = [builtin("path:7"), builtin("path:8")]
    for edge_count in (6, 7, 8, 9):
        patterns += asymmetric_8_vertex_patterns(edge_count, 5, rng)
    for pattern in patterns:
        assert edge_sets_chosen(pattern, pattern), pattern


# The four densest graphs on six vertices whose only automorphism is the
# identity, as perfbench's asym6-5 to asym6-8.
ASYM6 = {
    "asym6-5": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4)),
    "asym6-6": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (3, 5)),
    "asym6-7": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 5), (4, 5)),
    "asym6-8": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (4, 5)),
}


def test_small_dense_and_symmetric_patterns_take_the_tuple_order():
    patterns = [builtin(f"clique:{k}") for k in range(1, 9)]
    patterns += [builtin(f"star:{k}") for k in range(1, 8)]
    patterns += [builtin(f"cycle:{k}") for k in range(6, 9)]
    patterns += [PatternGraph(6, edges) for edges in ASYM6.values()]
    for k in range(1, 6):
        pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
        for bits in range(1 << len(pairs)):
            patterns.append(PatternGraph(k, [p for j, p in enumerate(pairs) if bits >> j & 1]))
    for pattern in patterns:
        assert not edge_sets_chosen(pattern, pattern), pattern
    # the covariance pairs of perfbench's cold CLI workload, both ways round
    for name_a, name_b in [
        ("edge", "triangle"), ("wedge", "square"), ("path:4", "star:3"),
        ("triangle", "k4"), ("cycle:5", "path:5"),
    ]:
        assert not edge_sets_chosen(builtin(name_a), builtin(name_b))
        assert not edge_sets_chosen(builtin(name_b), builtin(name_a))


@pytest.mark.parametrize(
    "name,passes",
    [
        ("clique:8", ["tuples"]),
        ("star:7", ["tuples"]),
        ("clique:7", ["tuples"]),
        ("star:6", ["tuples"]),
        ("asym6-5", ["tuples", "subsets"]),
        ("cycle:7", ["tuples", "subsets"]),
        ("path:6", ["tuples", "subsets"]),
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
