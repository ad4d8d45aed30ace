"""Exact rational scalars and dense univariate polynomials over them.

The scalar type is `fractions.Fraction`, which keeps every value in canonical
form (positive denominator, numerator and denominator coprime) and never
rounds.  A polynomial in the integer variable n is stored densely as a tuple
of coefficients, index i holding the coefficient of n**i; degrees in this
package stay small (at most ~16), so a sparse representation would not pay.

Decimal strings are produced from the exact value only at the very end, by
one routine for a value and its square root: it finds the decimal exponent,
takes the floor of the scaled value (or of its square root) in integers,
rounds half-even by comparing with the exact midpoint, and carries a
significand of 10**digits into the next exponent.  Rendering switches to
scientific notation (``2.0833e16``) once the rounded magnitude reaches 10**6.

This module imports no other module of the package, so it also holds
`_Record`, the immutable-record base of the package's value types.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

Coefficient = int | Fraction

# Exponent at which decimal rendering switches to scientific notation.
_SCIENTIFIC_EXPONENT = 6


def rat_add(a: Coefficient, b: Coefficient) -> Fraction:
    """Exact sum of two rationals."""
    return Fraction(a) + Fraction(b)


def rat_sub(a: Coefficient, b: Coefficient) -> Fraction:
    """Exact difference of two rationals."""
    return Fraction(a) - Fraction(b)


def rat_mul(a: Coefficient, b: Coefficient) -> Fraction:
    """Exact product of two rationals."""
    return Fraction(a) * Fraction(b)


def rat_div(a: Coefficient, b: Coefficient) -> Fraction:
    """Exact quotient of two rationals; the divisor must be nonzero."""
    b = Fraction(b)
    if b == 0:
        raise ZeroDivisionError("division of exact rationals by zero")
    return Fraction(a) / b


class _Record:
    """Immutable record whose fields are the annotated names of its class body.

    It behaves as a frozen dataclass would, without importing `dataclasses`
    (and with it `inspect`) at start-up: construction by position or keyword,
    ``==`` only between instances of the same class, hash and repr over the
    fields in declaration order, and AttributeError on any assignment or
    deletion.  A subclass with a validating ``__init__`` stores its fields
    with ``object.__setattr__``.  Pickling and copying restore the instance
    dictionary directly, so they need no support here.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        names = self._fields
        given = dict(zip(names, args))
        if (
            len(args) > len(names)
            or given.keys() & kwargs.keys()
            or given.keys() | kwargs.keys() != set(names)
        ):
            raise TypeError(
                f"{type(self).__name__}() takes each of {', '.join(names)} exactly "
                f"once, by position or keyword"
            )
        given.update(kwargs)
        for name in names:
            object.__setattr__(self, name, given[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RationalPolynomial(_Record):
    """Polynomial in n with exact rational coefficients, stored densely.

    ``coeffs[i]`` is the coefficient of n**i.  Trailing zero coefficients are
    trimmed on construction, so the zero polynomial stores an empty tuple and
    compares equal however it was produced.  Instances are immutable and safe
    to share between threads.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Index of the highest nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of n**power (zero beyond the stored degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: RationalPolynomial) -> RationalPolynomial:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    def __neg__(self) -> RationalPolynomial:
        return RationalPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: RationalPolynomial) -> RationalPolynomial:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Coefficient | RationalPolynomial) -> RationalPolynomial:
        if isinstance(other, RationalPolynomial):
            if not self.coeffs or not other.coeffs:
                return RationalPolynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RationalPolynomial(out)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return RationalPolynomial(coeff * c for coeff in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, n: Coefficient) -> Fraction:
        """Exact value at n, by Horner's rule in rational arithmetic."""
        value = Fraction(0)
        point = Fraction(n)
        for coeff in reversed(self.coeffs):
            value = value * point + coeff
        return value


def poly_eval_exact(p: RationalPolynomial, n: Coefficient) -> Fraction:
    """Exact rational value of p at n."""
    return p(n)


@lru_cache(maxsize=None)
def falling_factorial_poly(k: int) -> RationalPolynomial:
    """The monic degree-k polynomial n(n-1)...(n-k+1); the empty product (k=0) is 1.

    Counts ordered injective placements of k items among n, so it vanishes at
    every integer 0 <= n < k and equals k! at n = k.
    """
    if k < 0:
        raise ValueError("falling factorial requires k >= 0")
    result = RationalPolynomial((1,))
    for j in range(k):
        result = result * RationalPolynomial((-j, 1))
    return result


def _pow10_at_most(numerator: int, denominator: int, exponent: int) -> bool:
    """True iff 10**exponent <= numerator/denominator, all integer arithmetic."""
    if exponent >= 0:
        return denominator * 10**exponent <= numerator
    return denominator <= numerator * 10 ** (-exponent)


def _render_digits(sign: str, digit_str: str, exponent: int, digits: int) -> str:
    """Place the decimal point of a `digits`-digit significand at 10**exponent."""
    if exponent >= _SCIENTIFIC_EXPONENT:
        mantissa = digit_str[0] + ("." + digit_str[1:] if digits > 1 else "")
        return f"{sign}{mantissa}e{exponent}"
    if exponent < 0:
        return f"{sign}0.{'0' * (-exponent - 1)}{digit_str}"
    if exponent >= digits - 1:
        return sign + digit_str + "0" * (exponent - digits + 1)
    return sign + digit_str[: exponent + 1] + "." + digit_str[exponent + 1 :]


def _decimal_root(value: Coefficient, root: int, digits: int) -> str:
    """value**(1/root), for root 1 or 2, rounded half-even to `digits`
    significant digits and rendered in decimal."""
    if digits < 1:
        raise ValueError("significant_digits must be >= 1")
    value = Fraction(value)
    if root == 2 and value < 0:
        raise ValueError("square root of a negative value")
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    # exponent with 10**exponent <= value**(1/root) < 10**(exponent + 1),
    # estimated from the bit lengths (log10(2) ~ 30103/100000) and corrected
    exponent = (num.bit_length() - den.bit_length()) * 30103 // 100000 // root
    while not _pow10_at_most(num, den, root * exponent):
        exponent -= 1
    while _pow10_at_most(num, den, root * (exponent + 1)):
        exponent += 1
    # the significand rounds (a/b)**(1/root), a/b = value * 10**shift
    shift = root * (digits - 1 - exponent)
    a, b = (num * 10**shift, den) if shift >= 0 else (num, den * 10**-shift)
    # floor, then half-even against the exact midpoint m + 1/2;
    # isqrt(a // b) is already the floor of sqrt(a / b)
    m = a // b if root == 1 else math.isqrt(a // b)
    above_midpoint = 2**root * a - (2 * m + 1) ** root * b
    if above_midpoint > 0 or (above_midpoint == 0 and m % 2 == 1):
        m += 1
    if m == 10**digits:
        m //= 10
        exponent += 1
    return _render_digits(sign, str(m), exponent, digits)


def format_rational_decimal(value: Coefficient, significant_digits: int = 5) -> str:
    """Round an exact rational half-even to `significant_digits` significant
    digits and render it in decimal.

    Scientific notation (``2.0833e16``) is used once the rounded magnitude
    reaches 10**6; below that the value prints positionally, keeping trailing
    zeros up to the significant-digit count (``2.50`` at three digits).  Zero
    prints as ``0``.
    """
    return _decimal_root(value, 1, significant_digits)


def sqrt_decimal(value: Coefficient, significant_digits: int = 5) -> str:
    """Decimal rendering of the square root of a non-negative exact rational.

    The significand is correctly rounded half-even at the requested digit:
    the comparison against the true square root is done in exact integer
    arithmetic, so no intermediate floating point is involved.
    """
    return _decimal_root(value, 2, significant_digits)
