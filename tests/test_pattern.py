"""Pattern parsing, builtin generators, relabeling, and validation rules."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motifmoments import (
    PatternGraph,
    builtin,
    builtin_names,
    mean_poly,
    parse_adjacency_matrix,
    parse_edge_list,
    relabel,
)
from motifmoments.pattern import parse_pattern_text

from helpers import to_adjacency_text, to_edge_list_text

TRIANGLE_MATRIX = "0 1 1\n1 0 1\n1 1 0"


def test_parse_adjacency_triangle():
    p = parse_adjacency_matrix(TRIANGLE_MATRIX)
    assert p.vertex_count == 3
    assert p.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_parse_adjacency_single_node():
    p = parse_adjacency_matrix("0")
    assert p.vertex_count == 1
    assert p.edge_count == 0


def test_parse_adjacency_rejections_are_distinct():
    with pytest.raises(ValueError, match="diagonal"):
        parse_adjacency_matrix("0 1\n1 1")
    with pytest.raises(ValueError, match="symmetric"):
        parse_adjacency_matrix("0 1\n0 0")
    with pytest.raises(ValueError, match="0 or 1"):
        parse_adjacency_matrix("0 2\n2 0")
    with pytest.raises(ValueError, match="square"):
        parse_adjacency_matrix("0 1 0\n1 0")
    with pytest.raises(ValueError, match="empty"):
        parse_adjacency_matrix("   \n  ")


def test_parse_edge_list_wedge():
    p = parse_edge_list("3\n0 1\n1 2")
    assert p.vertex_count == 3
    assert p.edges == frozenset({(0, 1), (1, 2)})


def test_parse_edge_list_deduplicates():
    p = parse_edge_list("2\n0 1\n1 0")
    assert p.edge_count == 1


@pytest.mark.parametrize("header", ["3", "+3", "003", "+003"])
def test_edge_list_count_takes_one_plus_and_leading_zeros(header):
    assert parse_pattern_text(f"{header}\n0 1\n1 2") == parse_edge_list("3\n0 1\n1 2")


def test_parse_edge_list_rejections():
    with pytest.raises(ValueError, match="out of range"):
        parse_edge_list("2\n0 2")
    with pytest.raises(ValueError, match="self-loop"):
        parse_edge_list("3\n1 1")
    with pytest.raises(ValueError, match="expected 'u v'"):
        parse_edge_list("3\n0 1 2")
    with pytest.raises(ValueError, match="integers"):
        parse_edge_list("3\n0 x")
    with pytest.raises(ValueError, match="vertex count"):
        parse_edge_list("x\n0 1")
    # the count is at most one "+", then decimal digits
    for header in ("--5", "++3", "+", "-3", "0_5"):
        with pytest.raises(ValueError, match="must start with the vertex count"):
            parse_edge_list(f"{header}\n0 1")
    with pytest.raises(ValueError, match="empty pattern input"):
        parse_edge_list("  \n")


def test_builtin_fixed_patterns():
    assert builtin("triangle").vertex_count == 3
    assert builtin("triangle").edge_count == 3
    assert builtin("square").edge_count == 4
    assert builtin("k4") == builtin("clique:4")
    assert builtin("wedge") == builtin("path:3")
    assert builtin("square") == builtin("cycle:4")
    assert builtin("node").vertex_count == 1


@pytest.mark.parametrize("size", range(1, 8))
def test_builtin_edge_counts_match_closed_forms(size):
    assert builtin(f"clique:{size}").edge_count == size * (size - 1) // 2
    assert builtin(f"path:{size}").edge_count == size - 1
    if size + 1 <= 8:
        star = builtin(f"star:{size}")
        assert star.vertex_count == size + 1
        assert star.edge_count == size
    if size >= 3:
        assert builtin(f"cycle:{size}").edge_count == size


def test_builtin_rejections():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("pentagon")
    with pytest.raises(ValueError, match="K >= 3"):
        builtin("cycle:2")
    with pytest.raises(ValueError, match="positive integer"):
        builtin("clique:x")
    with pytest.raises(ValueError, match="must be a positive integer"):
        builtin("clique:\u00b2")
    with pytest.raises(ValueError, match="maximum"):
        builtin("clique:9")
    with pytest.raises(ValueError, match="maximum"):
        builtin("star:8")
    assert builtin("star:7").vertex_count == builtin("clique:8").vertex_count == 8


def test_oversized_builtin_rejected_before_construction():
    # the cap is checked before construction: clique:1500 would hold 1.1 million edges
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="engine maximum"):
            builtin("clique:1500")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_oversized_matrix_rejected_before_rows_are_split():
    # the cap is checked on the line count: splitting 1500 rows of 1500 entries
    # would hold 2.25 million tokens
    text = "\n".join([" ".join(["0"] * 1500)] * 1500)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="engine maximum"):
            parse_adjacency_matrix(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


@pytest.mark.parametrize(
    "text,needle",
    [
        (" ".join(["1"] * 2_000_000) + "\n0 1\n", "row 0 has more than 2 entries"),
        ("0 1\n" + " ".join(["1"] * 2_000_000) + "\n", "row 1 has more than 2 entries"),
        ("3\n" + " ".join(["1"] * 2_000_000) + "\n", "expected 'u v'"),
    ],
    ids=["matrix-row-0", "matrix-row-1", "edge-line"],
)
def test_overlong_line_rejected_after_one_extra_token(text, needle):
    # each line is split at most once past a valid line's token count, so
    # the peak stays linear in the input: splitting all 2 million tokens
    # would take 6 to 42 times the input.  The peak is the line list plus
    # one split rest, about 2x wherever the long line sits
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=needle):
            parse_pattern_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


def test_huge_integers_are_cut_in_messages():
    huge = 10**5000  # str() refuses it: it has more than 4300 digits
    with pytest.raises(ValueError, match=r"^edge \(0, ~10\*\*5000\) is out of range for 3 "):
        PatternGraph(3, [(0, huge)])
    with pytest.raises(ValueError, match=r"^self-loop at vertex ~10\*\*5000 is not"):
        PatternGraph(3, [(huge, huge)])
    with pytest.raises(ValueError, match=r"^pattern has ~10\*\*5000 vertices, above the engine maximum"):
        mean_poly(PatternGraph(huge))
    # up to 40 characters an integer is echoed whole, past that it is cut
    forty, more = "9" * 40, "9" * 41
    with pytest.raises(ValueError) as exc:
        PatternGraph(int(forty), [(0, int(more))])
    assert str(exc.value) == f"edge (0, {forty}...) is out of range for {forty} vertices"
    with pytest.raises(ValueError) as exc:
        PatternGraph(2, [(-1, 0)])
    assert str(exc.value) == "edge (-1, 0) is out of range for 2 vertices"


def test_pattern_graph_validation():
    with pytest.raises(ValueError, match="at least one vertex"):
        PatternGraph(0)
    with pytest.raises(ValueError, match="self-loop"):
        PatternGraph(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        PatternGraph(2, [(0, 2)])


def test_pattern_graph_takes_only_integer_vertices():
    for vertex_count, edges in [(3, [(0, 1.5)]), (3.0, [(0, 1)]), (3, [(0.0, 1)])]:
        with pytest.raises(TypeError):
            PatternGraph(vertex_count, edges)

    class Int(int):
        pass

    p = PatternGraph(Int(3), [(True, Int(2)), (0, True)])
    assert p == PatternGraph(3, [(1, 2), (0, 1)])
    assert type(p.vertex_count) is int
    assert {type(v) for edge in p.edges for v in edge} == {int}
    assert repr(p) == repr(PatternGraph(3, [(1, 2), (0, 1)]))


def test_relabel():
    wedge = builtin("wedge")  # path 0-1-2, center 1
    assert relabel(wedge, (2, 1, 0)) == wedge
    assert relabel(wedge, (0, 1, 2)) == wedge
    rotated = relabel(wedge, (1, 2, 0))  # center moves to vertex 2
    assert rotated.edges == frozenset({(1, 2), (0, 2)})
    with pytest.raises(ValueError, match="bijection"):
        relabel(wedge, (0, 0, 1))


def test_round_trip_builtins():
    for name in builtin_names():
        p = builtin(name)
        assert parse_adjacency_matrix(to_adjacency_text(p)) == p
        assert parse_edge_list(to_edge_list_text(p)) == p


@st.composite
def patterns(draw, min_vertices=1, max_vertices=6):
    k = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return PatternGraph(k, edges)


@given(patterns())
def test_round_trip_random_patterns(p):
    assert parse_adjacency_matrix(to_adjacency_text(p)) == p
    assert parse_edge_list(to_edge_list_text(p)) == p
