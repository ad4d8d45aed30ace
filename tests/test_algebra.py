"""Exact scalar/polynomial arithmetic and decimal rendering."""

import math
import operator
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motifmoments import (
    RationalPolynomial,
    falling_factorial_poly,
    format_rational_decimal,
    poly_eval_exact,
    rat_add,
    rat_div,
    rat_mul,
    rat_sub,
    sqrt_decimal,
)

from helpers import falling_from_roots

F = Fraction

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)
polys = st.lists(small_fractions, max_size=6).map(RationalPolynomial)


def test_rational_ops():
    assert rat_add(F(1, 3), F(1, 6)) == F(1, 2)
    assert rat_sub(F(1, 2), F(1, 3)) == F(1, 6)
    assert rat_mul(F(-2, 3), F(3, 4)) == F(-1, 2)
    assert rat_div(F(1, 128), F(1, 128)) == 1


def test_rat_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        rat_div(F(1, 2), 0)


def test_polynomial_construction_trims_trailing_zeros():
    assert RationalPolynomial((1, 2, 0, 0)).coeffs == (F(1), F(2))
    assert RationalPolynomial(()).coeffs == ()
    assert RationalPolynomial((0,)).coeffs == ()
    assert RationalPolynomial((0,)).degree == -1
    assert RationalPolynomial((0, 1)).degree == 1


def test_poly_sub_self_is_zero():
    p = RationalPolynomial((F(1, 3), -2, F(5, 7)))
    assert p - p == RationalPolynomial()


def test_poly_mul_examples():
    n = RationalPolynomial((0, 1))
    n_minus_1 = RationalPolynomial((-1, 1))
    assert (n * n_minus_1).coeffs == (F(0), F(-1), F(1))
    n2_minus_n = n * n_minus_1
    assert (n2_minus_n * RationalPolynomial((-2, 1))).coeffs == (
        F(0),
        F(2),
        F(-3),
        F(1),
    )


def test_poly_scale():
    cubed = RationalPolynomial((0, 0, 0, 1))
    assert (cubed * F(1, 48)).coeffs == (F(0), F(0), F(0), F(1, 48))
    assert cubed * 0 == RationalPolynomial()
    assert (RationalPolynomial((0, -1, 1)) * F(1, 8)).coeffs == (
        F(0),
        F(-1, 8),
        F(1, 8),
    )


@pytest.mark.parametrize("other", ["x", 0.5])
def test_poly_operators_refuse_other_operand_types(other):
    p = RationalPolynomial((1, 2))
    for operate in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            operate(p, other)
        with pytest.raises(TypeError):
            operate(other, p)


def test_falling_factorial_small():
    assert falling_factorial_poly(0).coeffs == (F(1),)
    assert falling_factorial_poly(1).coeffs == (F(0), F(1))
    assert falling_factorial_poly(2).coeffs == (F(0), F(-1), F(1))
    assert falling_factorial_poly(4).coeffs == (F(0), F(-6), F(11), F(-6), F(1))
    with pytest.raises(ValueError, match="k >= 0"):
        falling_factorial_poly(-1)


@pytest.mark.parametrize("k", range(9))
def test_falling_factorial_matches_root_expansion(k):
    assert falling_factorial_poly(k) == falling_from_roots(k)


@pytest.mark.parametrize("k", range(8))
def test_falling_factorial_roots_and_value_at_k(k):
    ff = falling_factorial_poly(k)
    for n in range(k):
        assert poly_eval_exact(ff, n) == 0
    assert poly_eval_exact(ff, k) == math.factorial(k)


def test_poly_eval_exact_examples():
    n2_minus_n = RationalPolynomial((0, -1, 1))
    assert poly_eval_exact(n2_minus_n, 0) == 0
    # frozen variance-of-triangle coefficients evaluated at n=3:
    # a Bernoulli(1/8) count has variance (1/8)(7/8) = 7/64
    triangle_var = RationalPolynomial((0, F(-1, 96), F(1, 32), F(-11, 384), F(1, 128)))
    assert poly_eval_exact(triangle_var, 3) == F(7, 64)
    # mean wedge count on 3 nodes: 6 ordered placements / 2, each present w.p. 1/4
    wedge_mean = falling_factorial_poly(3) * F(1, 8)
    assert poly_eval_exact(wedge_mean, 3) == F(3, 4)


def test_poly_eval_decimal_examples():
    triangle_mean = falling_factorial_poly(3) * F(1, 48)
    assert format_rational_decimal(triangle_mean(10**6), 5) == "2.0833e16"
    assert format_rational_decimal(RationalPolynomial()(12345), 4) == "0"
    edge_var = RationalPolynomial((0, F(-1, 8), F(1, 8)))
    assert format_rational_decimal(edge_var(5), 3) == "2.50"


def test_format_rational_decimal_cases():
    assert format_rational_decimal(F(5, 2), 3) == "2.50"
    assert format_rational_decimal(F(-5, 2), 3) == "-2.50"
    assert format_rational_decimal(F(1, 128), 3) == "0.00781"
    assert format_rational_decimal(F(10), 3) == "10.0"
    assert format_rational_decimal(F(1000000), 5) == "1.0000e6"
    assert format_rational_decimal(F(999999), 5) == "1.0000e6"  # rounds up into range
    assert format_rational_decimal(F(999949), 5) == "999950"
    assert format_rational_decimal(F(123456789), 1) == "1e8"
    # half-even at the last digit: 0.125 -> 0.12, 0.135 -> 0.14
    assert format_rational_decimal(F(1, 8), 2) == "0.12"
    assert format_rational_decimal(F(27, 200), 2) == "0.14"


def test_values_past_4300_digits_render():
    # Python refuses str() of an int past 4300 digits; the rendering never needs it
    assert format_rational_decimal(10**5000, 5) == "1.0000e5000"
    assert sqrt_decimal(10**9000, 5) == "1.0000e4500"
    assert format_rational_decimal(F(1, 10**5000), 3) == "0." + "0" * 4999 + "100"


def test_format_rational_decimal_rejects_bad_digit_count():
    with pytest.raises(ValueError):
        format_rational_decimal(F(1), 0)


def test_sqrt_decimal_cases():
    assert sqrt_decimal(F(0), 5) == "0"
    assert sqrt_decimal(F(4), 3) == "2.00"
    assert sqrt_decimal(F(2), 5) == "1.4142"
    assert sqrt_decimal(F(1, 4), 3) == "0.500"
    # exact-midpoint tie: sqrt(25/16) = 1.25 -> two digits, ties-to-even -> 1.2
    assert sqrt_decimal(F(25, 16), 2) == "1.2"
    with pytest.raises(ValueError):
        sqrt_decimal(F(-1), 3)


@given(small_fractions)
@settings(max_examples=200)
def test_sqrt_decimal_matches_float_reference(value):
    if value < 0:
        return
    rendered = sqrt_decimal(value, 10)
    assert math.isclose(float(Fraction(rendered)), math.sqrt(float(value)), rel_tol=1e-8)


# (value, significant digits) pairs: arbitrary rationals, and exact half-way
# ties (10t+5)/10**j rounded to all but their last digit
_ratios = st.tuples(
    st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**20),
    st.integers(1, 20),
)
_ties = st.builds(
    lambda t, j: (Fraction(10 * t + 5, 10**j), len(str(10 * t + 5)) - 1),
    st.integers(1, 10**12),
    st.integers(0, 20),
)


@given(st.one_of(_ratios, _ties))
@example((Fraction(999999), 5))
@example((Fraction(99996, 10**4), 4))
@settings(max_examples=500)
def test_format_rational_decimal_matches_decimal_module(case):
    value, digits = case
    context = Context(prec=digits, rounding=ROUND_HALF_EVEN)
    expected = context.divide(Decimal(value.numerator), Decimal(value.denominator))
    assert Fraction(format_rational_decimal(value, digits)) == Fraction(expected)


# (num, j, significant digits): sqrt of the exact decimal num/10**j, and exact
# ties: the square of (10t+5)/10**j rounded to all but its last digit
_decimals = st.tuples(st.integers(0, 10**30), st.integers(0, 30), st.integers(1, 20))
_sqrt_ties = st.builds(
    lambda t, j: ((10 * t + 5) ** 2, 2 * j, len(str(10 * t + 5)) - 1),
    st.integers(1, 10**12),
    st.integers(0, 15),
)


@given(st.one_of(_decimals, _sqrt_ties))
@example((99999999999, 9, 5))
@example((999999, 0, 3))
@settings(max_examples=500)
def test_sqrt_decimal_matches_decimal_module(case):
    num, scale, digits = case
    context = Context(prec=digits, rounding=ROUND_HALF_EVEN)
    expected = context.sqrt(Decimal(f"{num}e-{scale}"))  # the constructor does not round
    rendered = sqrt_decimal(Fraction(num, 10**scale), digits)
    assert Fraction(rendered) == Fraction(expected)


@given(polys, polys)
def test_poly_add_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_poly_mul_associates_and_distributes(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys, st.integers(min_value=-8, max_value=8))
def test_eval_is_ring_homomorphism(p, q, n):
    assert poly_eval_exact(p * q, n) == rat_mul(
        poly_eval_exact(p, n), poly_eval_exact(q, n)
    )
    assert poly_eval_exact(p + q, n) == rat_add(
        poly_eval_exact(p, n), poly_eval_exact(q, n)
    )


@given(polys, polys)
def test_poly_results_are_canonical(p, q):
    for result in (p + q, p - q, p * q):
        if result.coeffs:
            assert result.coeffs[-1] != 0
        for c in result.coeffs:
            assert c.denominator > 0
            assert math.gcd(c.numerator, c.denominator) == 1
