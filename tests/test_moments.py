"""Moment engine: golden polynomials, structural invariants, argument checks."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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

from helpers import (
    GOLDEN_COV_EDGE_TRIANGLE,
    GOLDEN_MEANS,
    GOLDEN_VARIANCES,
    falling_from_roots,
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
            second_moment_poly(builtin("edge"), builtin("edge"), workers=workers)


def test_automorphisms_searched_at_most_once_per_pattern_per_call(monkeypatch):
    # each public function searches once per distinct pattern; covariance_poly
    # and second_moment_poly (which it calls) each search, so a variance is 2
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
        (lambda: variance_poly(square), [square, square]),
        (lambda: covariance_poly(edge, triangle), [edge, triangle, edge, triangle]),
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


def test_import_starts_no_process_machinery():
    """Importing the package and its CLI loads no process pool and none of the
    heavier standard modules it used to.  The child runs with -S, because a
    site .pth file may preload any of them."""
    code = (
        "import sys, motifmoments, motifmoments.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing', 'dataclasses', 'inspect', 'typing')))"
    )
    src = str(Path(motifmoments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


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
