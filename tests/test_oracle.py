"""Exhaustive-enumeration oracle: counting, moments, engine certification."""

import random
import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motifmoments.cli
import motifmoments.oracle as oracle_module
from motifmoments import (
    PatternGraph,
    builtin,
    exact_moments,
    relabel,
    variance_poly,
    verify,
)
from motifmoments.oracle import (
    VerificationCheck,
    VerificationReport,
    _check_enumeration_size,
    _ordered_counts,
)

from helpers import (
    class_pattern,
    count_subgraphs,
    isomorphism_classes,
    mask_edges,
    ordered_embedding_count,
)

F = Fraction


def complete_graph(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def test_count_subgraphs_examples():
    assert count_subgraphs(3, complete_graph(3), builtin("edge")) == 3
    assert count_subgraphs(4, complete_graph(4), builtin("triangle")) == 4
    path3 = [(0, 1), (1, 2)]
    assert count_subgraphs(3, path3, builtin("wedge")) == 1
    assert count_subgraphs(3, path3, builtin("triangle")) == 0


def test_count_subgraphs_non_induced_semantics():
    # the triangle contains 3 wedges even though all image pairs are adjacent
    assert count_subgraphs(3, complete_graph(3), builtin("wedge")) == 3


def test_count_subgraphs_pattern_larger_than_graph():
    assert count_subgraphs(2, complete_graph(2), builtin("triangle")) == 0


def test_count_subgraphs_with_isolated_vertex():
    # edge plus isolated vertex: 3 edges x 1 leftover node in K3
    pattern = PatternGraph(3, [(0, 1)])
    assert count_subgraphs(3, complete_graph(3), pattern) == 3


graph_masks = st.integers(min_value=0, max_value=2**10 - 1)


@given(graph_masks)
def test_edge_count_equals_popcount(mask):
    assert count_subgraphs(5, mask_edges(5, mask), builtin("edge")) == mask.bit_count()


@given(graph_masks, st.data())
def test_count_invariant_under_graph_relabeling(mask, data):
    n = 5
    perm = data.draw(st.permutations(range(n)))
    edges = mask_edges(n, mask)
    relabeled = [(perm[u], perm[v]) for u, v in edges]
    for name in ("edge", "wedge", "triangle"):
        assert count_subgraphs(n, edges, builtin(name)) == count_subgraphs(
            n, relabeled, builtin(name)
        )


@given(graph_masks, st.data())
def test_count_invariant_under_pattern_relabeling(mask, data):
    edges = mask_edges(5, mask)
    pattern = builtin("wedge")
    perm = data.draw(st.permutations(range(3)))
    assert count_subgraphs(5, edges, relabel(pattern, perm)) == count_subgraphs(
        5, edges, pattern
    )


@given(graph_masks, st.integers(min_value=0, max_value=9))
def test_adding_an_edge_never_decreases_counts(mask, extra_bit):
    edges = mask_edges(5, mask)
    bigger = mask_edges(5, mask | (1 << extra_bit))
    for name in ("edge", "wedge", "triangle", "square"):
        assert count_subgraphs(5, bigger, builtin(name)) >= count_subgraphs(
            5, edges, builtin(name)
        )


# every pattern on at most 4 vertices, one per isomorphism class (id k:bits,
# its edges over the pairs in `combinations` order), and the 5-vertex builtins
COUNTED_PATTERNS = {
    **{
        f"{k}:{bits}": class_pattern(k, bits)
        for k in range(1, 5)
        for bits in isomorphism_classes(k)[1]
    },
    **{name: builtin(name) for name in ("path:5", "star:4", "cycle:5", "clique:5")},
}


@pytest.mark.parametrize("pattern", COUNTED_PATTERNS.values(), ids=COUNTED_PATTERNS)
def test_per_graph_counts_match_backtracking(pattern):
    # every graph on n <= 5 nodes, and a seeded sample of the 2**15 on 6
    graphs = [(n, mask) for n in range(6) for mask in range(1 << n * (n - 1) // 2)]
    graphs += [(6, mask) for mask in random.Random(6).sample(range(1 << 15), 200)]
    tables = {n: _ordered_counts(pattern, n) for n in range(7)}
    for n, mask in graphs:
        expected = ordered_embedding_count(n, mask_edges(n, mask), pattern)
        if pattern.vertex_count > n:
            assert tables[n] == [] and expected == 0
        else:
            assert tables[n][mask] == expected, (n, mask)


@pytest.mark.parametrize("bits", isomorphism_classes(4)[1])
def test_oracle_pins_the_variance_of_every_4_vertex_graph(bits):
    # the variance is (n)_4 Q(n) with deg Q = 2, so its degree is at most 6;
    # the oracle's zeros at n = 0..3 and its values at n = 4, 5, 6 then fix it
    pattern = class_pattern(4, bits)
    assert variance_poly(pattern).covariance.degree <= 6
    assert verify(pattern, pattern, range(7)).all_match


def test_exact_moments_triangle_n3():
    result = exact_moments(builtin("triangle"), builtin("triangle"), 3)
    assert result.mean_a == F(1, 8)
    assert result.covariance == F(7, 64)
    assert result.second_moment == F(1, 8)  # Bernoulli: count squared equals count


def test_exact_moments_node_deterministic():
    result = exact_moments(builtin("node"), builtin("node"), 5)
    assert result.mean_a == 5
    assert result.covariance == 0


def test_exact_moments_edge_triangle_n3():
    result = exact_moments(builtin("edge"), builtin("triangle"), 3)
    assert result.covariance == F(3, 16)
    assert result.mean_a == F(3, 2)  # C(3,2)/2 edges expected
    assert result.mean_b == F(1, 8)


def test_exact_moments_identity():
    result = exact_moments(builtin("edge"), builtin("wedge"), 4)
    assert result.covariance == result.second_moment - result.mean_a * result.mean_b


def test_enumeration_caps():
    with pytest.raises(ValueError, match=r"2\*\*36 = 68719476736"):
        exact_moments(builtin("k4"), builtin("k4"), 9)
    with pytest.raises(ValueError, match="not supported"):
        _check_enumeration_size(5, node_cap=8)
    with pytest.raises(ValueError, match="cap of 7"):
        _check_enumeration_size(8, node_cap=7)
    with pytest.warns(UserWarning, match=r"2\*\*21 = 2097152"):
        _check_enumeration_size(7, node_cap=7)
    with pytest.raises(ValueError, match=">= 0"):
        _check_enumeration_size(-1, node_cap=6)
    _check_enumeration_size(6, node_cap=6)  # at the cap: no error, no warning


def test_raised_cap_warning_names_the_callers_line():
    # clique:8 does not fit on 7 nodes, so no table is built
    clique = builtin("clique:8")
    with pytest.warns(UserWarning, match="labeled graphs on 7 nodes") as record:
        exact_moments(clique, clique, 7, node_cap=7)
        assert verify(clique, clique, [7], node_cap=7).all_match
        argv = ["verify", "--builtin", "clique:8", "--n", "7", "--oracle-cap", "7"]
        assert motifmoments.cli.main(argv) == 0
    assert [r.filename for r in record] == [__file__, __file__, motifmoments.cli.__file__]


@pytest.mark.parametrize("n", [200, 3000])
def test_cap_message_names_the_graph_count_unexpanded(n):
    # 2**19900 and 2**4498500 have more digits than Python's int-to-str limit of 4300
    message = re.escape(
        f"n={n} exceeds the exhaustive-enumeration cap of 6 nodes: "
        f"it would require iterating 2**{n * (n - 1) // 2} labeled graphs"
    )
    with pytest.raises(ValueError, match=message):
        exact_moments(builtin("edge"), builtin("edge"), n)
    with pytest.raises(ValueError, match=message):
        verify(builtin("edge"), builtin("edge"), [3, n])


def test_cap_message_names_an_integer_too_long_for_str():
    # 10**5000 has more digits than str() converts; the message must still
    # be the node-cap one, naming n by its order of magnitude
    edge = builtin("edge")
    message = "n=~10**5000 exceeds the exhaustive-enumeration cap of 6 nodes"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify(edge, edge, [3, 10**5000])
    message = "node cap must be >= 0, got -~10**5000"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify(edge, edge, [3], node_cap=-(10**5000))


def test_verify_triangle():
    report = verify(builtin("triangle"), builtin("triangle"), [3, 4, 5])
    assert report.all_match
    quantities = {check.quantity for check in report.checks}
    assert quantities == {"mean", "variance"}
    assert len(report.checks) == 6


def count_calls(monkeypatch, module, *names):
    """Wrap module functions so each call is tallied in the returned dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("node_cap,n_values", [(6, [0, 1, 7]), (7, [7, 3, 8])])
def test_verify_checks_every_n_before_any_work(monkeypatch, node_cap, n_values):
    calls = count_calls(monkeypatch, oracle_module, "covariance_poly", "exact_moments")
    triangle = builtin("triangle")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the n > 6 warning must not fire either
        with pytest.raises(ValueError, match=f"cap of {node_cap}"):
            verify(triangle, triangle, n_values, node_cap=node_cap)
    assert calls == {"covariance_poly": 0, "exact_moments": 0}


@pytest.mark.parametrize(
    "node_cap,message",
    [(cap, f"node cap must be >= 0, got {cap}") for cap in (-1, -7, -(10**30))]
    + [(8, "node cap 8 is not supported")],
    ids=["-1", "-7", "-10**30", "8"],
)
def test_invalid_node_cap_is_rejected(monkeypatch, node_cap, message):
    # also with no n to check, and by the oracle alone
    calls = count_calls(monkeypatch, oracle_module, "covariance_poly")
    edge = builtin("edge")
    message = re.escape(message)
    with pytest.raises(ValueError, match=message):
        verify(edge, edge, [0], node_cap=node_cap)
    with pytest.raises(ValueError, match=message):
        verify(edge, edge, [], node_cap=node_cap)
    with pytest.raises(ValueError, match=message):
        exact_moments(edge, edge, 0, node_cap=node_cap)
    assert calls == {"covariance_poly": 0}


@pytest.mark.parametrize("name_b,searches", [("square", 6), ("path:4", 12)])
def test_oracle_counts_a_shared_group_once(monkeypatch, name_b, searches):
    calls = count_calls(monkeypatch, oracle_module, "automorphism_count")
    assert verify(builtin("square"), builtin(name_b), range(6)).all_match
    assert calls == {"automorphism_count": searches}


def test_verify_accepts_a_generator(monkeypatch):
    calls = count_calls(monkeypatch, oracle_module, "covariance_poly", "exact_moments")
    report = verify(builtin("triangle"), builtin("triangle"), (n for n in (3, 4, 5)))
    assert report.all_match
    assert [check.n for check in report.checks] == [3, 3, 4, 4, 5, 5]
    assert calls == {"covariance_poly": 1, "exact_moments": 3}


def test_verify_node_all_zero_covariance():
    report = verify(builtin("node"), builtin("node"), range(1, 6))
    assert report.all_match
    for check in report.checks:
        if check.quantity == "variance":
            assert check.oracle_value == 0


def test_verify_wedge_degenerate_sizes():
    report = verify(builtin("wedge"), builtin("wedge"), [0, 1, 2])
    assert report.all_match
    for check in report.checks:
        assert check.engine_value == 0


def test_verify_pair_quantities():
    report = verify(builtin("edge"), builtin("triangle"), [3])
    assert report.all_match
    assert {check.quantity for check in report.checks} == {
        "mean[A]",
        "mean[B]",
        "covariance",
    }
    cov = next(c for c in report.checks if c.quantity == "covariance")
    assert cov.engine_value == cov.oracle_value == F(3, 16)


def test_verification_report_mismatch_detection():
    good = VerificationCheck(3, "mean", F(1, 8), F(1, 8))
    bad = VerificationCheck(3, "variance", F(1, 8), F(7, 64))
    assert good.matches and not bad.matches
    report = VerificationReport(builtin("triangle"), builtin("triangle"), (good, bad))
    assert not report.all_match


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=4))
def test_oracle_matches_engine_for_disconnected_pattern(n):
    pattern = PatternGraph(3, [(0, 1)])
    report = verify(pattern, pattern, [n])
    assert report.all_match


@st.composite
def small_patterns(draw, max_vertices=4):
    k = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return PatternGraph(k, edges)


@settings(max_examples=25, deadline=None)
@given(small_patterns(), small_patterns())
def test_oracle_matches_engine_for_random_pattern_pairs(pattern_a, pattern_b):
    report = verify(pattern_a, pattern_b, range(5))
    assert report.all_match, report.checks


@pytest.mark.parametrize(
    "name_a,name_b",
    [
        (a, b)
        for i, a in enumerate(("node", "edge", "wedge", "triangle", "square", "k4"))
        for b in ("node", "edge", "wedge", "triangle", "square", "k4")[i:]
    ],
)
def test_central_theorem_every_builtin_pair(name_a, name_b):
    # engine == oracle for every builtin pair at every enumerable n
    report = verify(builtin(name_a), builtin(name_b), range(6))
    assert report.all_match, (name_a, name_b, report.checks)
