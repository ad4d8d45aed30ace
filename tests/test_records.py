"""The seven immutable records: equality, hashing, repr, immutability,
construction, pickling and deep copy."""

import copy
import pickle
from fractions import Fraction

import pytest

from motifmoments import (
    LabeledGraph,
    MomentReport,
    OracleResult,
    PatternGraph,
    RationalPolynomial,
    VerificationCheck,
    VerificationReport,
)

F = Fraction

EDGE = PatternGraph(2, [(0, 1)])
NODE = PatternGraph(1)
CHECK = VerificationCheck(3, "mean_a", F(3, 2), F(3, 2))

# (class, field names, field values, exact repr, whether every field is required)
RECORDS = [
    (
        RationalPolynomial,
        ("coeffs",),
        ((F(0), F(1, 2)),),
        "RationalPolynomial(coeffs=(Fraction(0, 1), Fraction(1, 2)))",
        False,
    ),
    (
        PatternGraph,
        ("vertex_count", "edges"),
        (2, frozenset({(0, 1)})),
        "PatternGraph(vertex_count=2, edges=frozenset({(0, 1)}))",
        False,
    ),
    (
        MomentReport,
        ("pattern_a", "pattern_b", "mean_a", "mean_b", "second_moment", "covariance",
         "aut_a", "aut_b"),
        (NODE, EDGE, RationalPolynomial((0, 1)), RationalPolynomial(()),
         RationalPolynomial((1,)), RationalPolynomial(()), 1, 2),
        "MomentReport(pattern_a=PatternGraph(vertex_count=1, edges=frozenset()), "
        "pattern_b=PatternGraph(vertex_count=2, edges=frozenset({(0, 1)})), "
        "mean_a=RationalPolynomial(coeffs=(Fraction(0, 1), Fraction(1, 1))), "
        "mean_b=RationalPolynomial(coeffs=()), "
        "second_moment=RationalPolynomial(coeffs=(Fraction(1, 1),)), "
        "covariance=RationalPolynomial(coeffs=()), aut_a=1, aut_b=2)",
        True,
    ),
    (
        LabeledGraph,
        ("node_count", "edge_mask"),
        (3, 5),
        "LabeledGraph(node_count=3, edge_mask=5)",
        True,
    ),
    (
        OracleResult,
        ("n", "mean_a", "mean_b", "second_moment", "covariance"),
        (3, F(3, 2), F(1, 2), F(1), F(1, 4)),
        "OracleResult(n=3, mean_a=Fraction(3, 2), mean_b=Fraction(1, 2), "
        "second_moment=Fraction(1, 1), covariance=Fraction(1, 4))",
        True,
    ),
    (
        VerificationCheck,
        ("n", "quantity", "engine_value", "oracle_value"),
        (3, "mean_a", F(3, 2), F(3, 2)),
        "VerificationCheck(n=3, quantity='mean_a', engine_value=Fraction(3, 2), "
        "oracle_value=Fraction(3, 2))",
        True,
    ),
    (
        VerificationReport,
        ("pattern_a", "pattern_b", "checks"),
        (EDGE, EDGE, (CHECK,)),
        "VerificationReport(pattern_a=PatternGraph(vertex_count=2, edges=frozenset({(0, 1)})), "
        "pattern_b=PatternGraph(vertex_count=2, edges=frozenset({(0, 1)})), "
        "checks=(VerificationCheck(n=3, quantity='mean_a', engine_value=Fraction(3, 2), "
        "oracle_value=Fraction(3, 2)),))",
        True,
    ),
]

records = pytest.mark.parametrize(
    "cls,names,values,text,all_required", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)


def fields_of(record, names):
    return tuple(getattr(record, name) for name in names)


@records
def test_equality_only_within_one_class(cls, names, values, text, all_required):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    assert record != values and record != fields_of(record, names)

    class Sub(cls):
        pass

    twin = Sub(*values)
    assert fields_of(twin, names) == fields_of(record, names)
    assert record != twin and twin != record


@records
def test_hash_is_hash_of_field_tuple(cls, names, values, text, all_required):
    record = cls(*values)
    assert hash(record) == hash(fields_of(record, names)) == hash(cls(*values))


@records
def test_repr_names_every_field(cls, names, values, text, all_required):
    assert repr(cls(*values)) == text


@records
def test_attributes_cannot_be_set_or_deleted(cls, names, values, text, all_required):
    record = cls(*values)
    for name in (names[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert fields_of(record, names) == fields_of(cls(*values), names)


@records
def test_keyword_and_positional_construction(cls, names, values, text, all_required):
    record = cls(*values)
    assert cls(**dict(zip(names, values))) == record
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == record
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, bogus=None)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    if all_required:
        with pytest.raises(TypeError):
            cls(*values[:-1])


@records
def test_pickle_and_deepcopy_round_trip(cls, names, values, text, all_required):
    record = cls(*values)
    copies = [copy.deepcopy(record), copy.copy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls and twin == record and hash(twin) == hash(record)
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, names[0], 0)


def test_pattern_is_not_equal_to_its_field_tuple():
    assert (PatternGraph(2, [(0, 1)]) == (2, frozenset({(0, 1)}))) is False
