"""Exact rational scalars and 2x2 rational matrices.

``Rational`` is :class:`fractions.Fraction`: arbitrary precision, always in
lowest terms with a positive denominator, so values compare structurally and
``==`` is exact equality of rationals.  :class:`Mat2` wraps four rationals
with exact matrix arithmetic on top.  Nothing in this package ever touches
floating point.  :func:`to_text` renders values as ``str()`` does, at any
size, and leaves Python's int -> str digit limit as it is;
:func:`dataclass_repr` builds a dataclass ``repr()`` on it.

The private :func:`_coprime_fraction` builds a ``Fraction`` from a pair the
caller already knows to be in lowest terms, and skips the gcd that the public
constructor always runs.  That gcd is quadratic in the operand size, so it
would be most of the cost of a large term whose reduction the caller has
done by cheaper means (``biperiodic.core._term``); on small values the
public constructor costs about three times as much (1.05 against 0.37 us,
Python 3.11), and ``_normalize=False`` is no cheaper.  It is the one place
that touches ``Fraction``'s internal slots, and a test compares it with the
public constructor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from functools import cache

Rational = Fraction

__all__ = [
    "Rational",
    "OpCounter",
    "SingularMatrixError",
    "as_rational",
    "parse_rational",
    "to_text",
    "dataclass_repr",
    "rat_pow",
    "Mat2",
    "mat_mul",
    "mat_pow",
    "mat_det",
    "mat_inv",
]

_EXACT_LITERAL = re.compile(r"[+-]?\d+(?:\s*/\s*\d+)?")
_LEAF_BITS = 2048  # 617 digits: below the smallest digit limit Python accepts


class SingularMatrixError(ZeroDivisionError):
    """Inversion (or negative power) of a matrix whose determinant is zero."""


@dataclass
class OpCounter:
    """Tally of rational multiplications/divisions performed.

    Create one counter per measurement and pass it to the operations that
    accept it.  There is no global state, so concurrent measurements can
    never interleave.
    """

    muls: int = 0

    def add(self, n: int = 1) -> None:
        self.muls += n


def as_rational(value: Rational | int | str) -> Rational:
    """Coerce an int/str/Fraction to ``Rational``; floats are refused.

    A value whose type is exactly ``Fraction`` is returned as it is, not
    copied (Fractions are immutable); ints, strings and subclasses of
    ``Fraction`` go through the ``Fraction`` constructor.

    Floats carry binary rounding dust, so accepting them would silently break
    the exactness contract.  Callers holding a float must decide for
    themselves what exact value they meant.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            f"float {value!r} is not exact; pass int, Fraction, or a 'p/q' string"
        )
    return Fraction(value)


def _coprime_fraction(numerator: int, denominator: int) -> Rational:
    """``Fraction(numerator, denominator)`` for ints with gcd 1 and denominator > 0.

    The pair is stored as it is; a pair not in lowest terms gives a value
    that compares unequal to its reduced form.
    """
    value = object.__new__(Fraction)
    value._numerator, value._denominator = numerator, denominator
    return value


def parse_rational(text: str) -> Rational:
    """Parse an exact rational literal: ``'42'``, ``'-7'``, or ``'9/4'``.

    Decimal and exponent notation is rejected on purpose: ``0.1`` does not
    name the rational 1/10 to a float-minded caller, and this library never
    guesses.
    """
    cleaned = text.strip()
    if not _EXACT_LITERAL.fullmatch(cleaned):
        raise ValueError(
            f"not an exact rational literal: {text!r} (write 'p' or 'p/q', no decimals)"
        )
    try:
        return Fraction(cleaned.replace(" ", ""))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal {text!r}") from None


def to_text(x: Rational | int) -> str:
    """``str(x)`` for an int or a rational of any size.

    Past the digit limit an int is split by powers of 2 into ``Decimal`` leaves
    joined by libmpdec's fast multiplication (Brent and Zimmermann, *Modern
    Computer Arithmetic*, 1.7), in a private context that traps a dropped digit.
    """
    try:
        return str(x)
    except ValueError:
        pass
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])
    power = cache(lambda w: exact.power(2, w))  # 2**w, once per width

    def convert(m: int, w: int) -> Decimal:  # -2**w <= m < 2**w
        if w <= _LEAF_BITS:
            return Decimal(m)
        half = w >> 1
        high = m >> half  # rounds down, so the low part is never negative
        return exact.fma(convert(high, w - half), power(half), convert(m - (high << half), half))

    num, den = x.numerator, x.denominator
    text = str(convert(num, abs(num).bit_length()))
    return text if den == 1 else f"{text}/{convert(den, den.bit_length())}"


def dataclass_repr(obj: object) -> str:
    """The generated ``repr()`` of a dataclass instance, for fields of any size.

    Ints and the parts of rationals go through :func:`to_text`, so a value
    past the digit limit prints instead of raising.
    """

    def show(value: object) -> str:
        if isinstance(value, Fraction):
            numerator, denominator = to_text(value.numerator), to_text(value.denominator)
            return f"{type(value).__name__}({numerator}, {denominator})"
        return to_text(value) if type(value) is int else repr(value)

    shown = ", ".join(f"{f.name}={show(getattr(obj, f.name))}" for f in fields(obj) if f.repr)
    return f"{type(obj).__qualname__}({shown})"


def rat_pow(base: Rational | int, exponent: int) -> Rational:
    """Exact integer power of a rational; ``base ** 0 == 1`` including base 0."""
    if exponent < 0 and base == 0:
        raise ZeroDivisionError("cannot raise zero to a negative power")
    return as_rational(base) ** exponent


@dataclass(frozen=True)
class Mat2:
    """Immutable 2x2 matrix of rationals, row-major entries m11 m12 / m21 m22."""

    m11: Rational
    m12: Rational
    m21: Rational
    m22: Rational

    __repr__ = dataclass_repr

    def __post_init__(self) -> None:
        for name in ("m11", "m12", "m21", "m22"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 + other.m11,
            self.m12 + other.m12,
            self.m21 + other.m21,
            self.m22 + other.m22,
        )

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 - other.m11,
            self.m12 - other.m12,
            self.m21 - other.m21,
            self.m22 - other.m22,
        )

    def __mul__(self, other: "Mat2") -> "Mat2":
        return mat_mul(self, other)

    def scaled(self, factor: Rational | int) -> "Mat2":
        f = as_rational(factor)
        return Mat2(f * self.m11, f * self.m12, f * self.m21, f * self.m22)


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    """Exact matrix product (eight scalar multiplications)."""
    return Mat2(
        x.m11 * y.m11 + x.m12 * y.m21,
        x.m11 * y.m12 + x.m12 * y.m22,
        x.m21 * y.m11 + x.m22 * y.m21,
        x.m21 * y.m12 + x.m22 * y.m22,
    )


def mat_det(m: Mat2) -> Rational:
    return m.m11 * m.m22 - m.m12 * m.m21


def mat_inv(m: Mat2) -> Mat2:
    """Exact inverse; a zero determinant raises :class:`SingularMatrixError`."""
    d = mat_det(m)
    if d == 0:
        raise SingularMatrixError("matrix with zero determinant has no inverse")
    return Mat2(m.m22 / d, -m.m12 / d, -m.m21 / d, m.m11 / d)


def mat_pow(m: Mat2, exponent: int, counter: OpCounter | None = None) -> Mat2:
    """Binary (square-and-multiply) power, O(log |exponent|) matrix products.

    Negative exponents invert first, so they require a nonzero determinant.
    When ``counter`` is given it accrues 8 scalar multiplications per matrix
    product and 6 for an inversion.
    """
    if exponent < 0:
        if counter is not None:
            counter.add(6)
        return mat_pow(mat_inv(m), -exponent, counter)
    result = Mat2.identity()
    base = m
    e = exponent
    while e:
        if e & 1:
            result = mat_mul(result, base)
            if counter is not None:
                counter.add(8)
        e >>= 1
        if e:
            base = mat_mul(base, base)
            if counter is not None:
                counter.add(8)
    return result
