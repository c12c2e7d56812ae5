from __future__ import annotations

import decimal
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biperiodic.exact import (
    Mat2,
    OpCounter,
    SingularMatrixError,
    _coprime_fraction,
    as_rational,
    mat_det,
    mat_inv,
    mat_mul,
    mat_pow,
    parse_rational,
    rat_pow,
    to_text,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
small_ints = st.integers(min_value=-40, max_value=40)


def lifted_str(x: Fraction | int) -> str:
    """``str(x)`` with the int -> str digit limit lifted for the call."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(previous)


def drawn_int(digits: int, seed: int) -> int:
    """A pseudo-random positive int with exactly ``digits`` decimal digits."""
    low = 10 ** (digits - 1)
    return low + random.Random(seed).randrange(9 * low)


# up to 10^5 digits, half of the draws at the default limit of 4300 digits or
# at the top of the range
digit_counts = st.one_of(st.sampled_from([4299, 4300, 4301, 100_000]), st.integers(1, 100_000))


@st.composite
def coprime_pairs(draw: st.DrawFn) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms, denominator > 0, up to 200 bits."""
    numerator = draw(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(2**200), 2**200)))
    denominator = draw(st.integers(1, 2**200))
    common = math.gcd(numerator, denominator)
    return numerator // common, denominator // common


class TestCoprimeFraction:
    """The slot-level constructor against the public one, on coprime pairs."""

    @given(pair=coprime_pairs(), other=rationals)
    def test_matches_public_constructor(self, pair: tuple[int, int], other: Fraction) -> None:
        built, public = _coprime_fraction(*pair), Fraction(*pair)
        assert type(built) is Fraction
        assert (built.numerator, built.denominator) == (public.numerator, public.denominator)
        assert hash(built) == hash(public)
        assert built == public and public == built
        assert str(built) == str(public) and repr(built) == repr(public)
        assert built * other + 1 == public * other + 1

    def test_zero(self) -> None:
        zero = _coprime_fraction(0, 1)
        assert zero == 0 and hash(zero) == hash(0) and str(zero) == "0" and not zero


class TestAsRational:
    def test_int_passthrough(self) -> None:
        assert as_rational(7) == Fraction(7)

    def test_fraction_passthrough(self) -> None:
        assert as_rational(Fraction(3, 4)) == Fraction(3, 4)

    def test_string(self) -> None:
        assert as_rational("7/2") == Fraction(7, 2)

    def test_float_rejected(self) -> None:
        with pytest.raises(TypeError):
            as_rational(0.5)


class TestParseRational:
    @pytest.mark.parametrize(
        ("text", "value"),
        [
            ("3", Fraction(3)),
            ("-3", Fraction(-3)),
            ("+2/4", Fraction(1, 2)),
            ("7/3", Fraction(7, 3)),
            ("-9/6", Fraction(-3, 2)),
            (" 5 / 10 ", Fraction(1, 2)),
        ],
    )
    def test_accepts(self, text: str, value: Fraction) -> None:
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["", "0.5", "1e3", "a/b", "1/", "/2", "1//2", "2/-3"])
    def test_rejects(self, text: str) -> None:
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_zero_denominator(self) -> None:
        with pytest.raises(ValueError):
            parse_rational("1/0")

    @given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**4))
    def test_roundtrip(self, num: int, den: int) -> None:
        x = Fraction(num, den)
        assert parse_rational(str(x)) == x

    @given(
        num=st.integers(-10**80, 10**80),
        den=st.integers(1, 10**80),
        spaced=st.booleans(),
    )
    def test_roundtrip_big(self, num: int, den: int, spaced: bool) -> None:
        x = Fraction(num, den)
        text = str(x).replace("/", " / ") if spaced else str(x)
        assert parse_rational(text) == x

    @given(
        whole=st.integers(-10**30, 10**30),
        digits=st.integers(0, 10**30),
        exponent=st.integers(-400, 400),
        form=st.sampled_from(["{w}.{d}", ".{d}", "{w}.", "{w}e{e}", "{w}E{e}", "{w}.{d}e{e}", "{w}/{d}.5"]),
    )
    def test_decimal_and_exponent_literals_rejected(
        self, whole: int, digits: int, exponent: int, form: str
    ) -> None:
        text = form.format(w=whole, d=digits, e=exponent)
        with pytest.raises(ValueError):
            parse_rational(text)


class TestRatPow:
    @given(base=rationals, e=st.integers(0, 12))
    def test_nonnegative_matches_repeated_product(self, base: Fraction, e: int) -> None:
        acc = Fraction(1)
        for _ in range(e):
            acc *= base
        assert rat_pow(base, e) == acc

    @given(base=rationals.filter(lambda x: x != 0), e=st.integers(-10, 10))
    def test_negative_is_reciprocal(self, base: Fraction, e: int) -> None:
        assert rat_pow(base, -e) == 1 / rat_pow(base, e)

    @given(base=rationals.filter(lambda x: x != 0), e=st.integers(-30, 30), f=st.integers(-30, 30))
    def test_exponent_addition_law(self, base: Fraction, e: int, f: int) -> None:
        assert rat_pow(base, e) * rat_pow(base, f) == rat_pow(base, e + f)

    def test_zero_to_zero(self) -> None:
        assert rat_pow(0, 0) == 1

    def test_zero_to_negative(self) -> None:
        with pytest.raises(ZeroDivisionError):
            rat_pow(0, -1)


def mat_strategy() -> st.SearchStrategy[Mat2]:
    return st.builds(Mat2, rationals, rationals, rationals, rationals)


class TestMat2:
    def test_identity(self) -> None:
        i = Mat2.identity()
        assert (i.m11, i.m12, i.m21, i.m22) == (1, 0, 0, 1)

    def test_coercion_rejects_float(self) -> None:
        with pytest.raises(TypeError):
            Mat2(1.0, 0, 0, 1)

    @given(m=mat_strategy())
    def test_identity_neutral(self, m: Mat2) -> None:
        i = Mat2.identity()
        assert mat_mul(m, i) == m
        assert mat_mul(i, m) == m

    @given(x=mat_strategy(), y=mat_strategy(), z=mat_strategy())
    def test_associative(self, x: Mat2, y: Mat2, z: Mat2) -> None:
        assert mat_mul(mat_mul(x, y), z) == mat_mul(x, mat_mul(y, z))

    @given(x=mat_strategy(), y=mat_strategy())
    def test_det_multiplicative(self, x: Mat2, y: Mat2) -> None:
        assert mat_det(mat_mul(x, y)) == mat_det(x) * mat_det(y)

    @given(x=mat_strategy(), y=mat_strategy())
    def test_add_sub(self, x: Mat2, y: Mat2) -> None:
        assert (x + y) - y == x

    @given(m=mat_strategy(), f=rationals)
    def test_scaled(self, m: Mat2, f: Fraction) -> None:
        s = m.scaled(f)
        assert s.m11 == f * m.m11 and s.m22 == f * m.m22


class TestMatInv:
    @given(m=mat_strategy().filter(lambda m: mat_det(m) != 0))
    def test_inverse(self, m: Mat2) -> None:
        assert mat_mul(m, mat_inv(m)) == Mat2.identity()

    def test_singular(self) -> None:
        with pytest.raises(SingularMatrixError):
            mat_inv(Mat2(1, 2, 2, 4))

    def test_singular_is_zero_division(self) -> None:
        # callers that guard with ZeroDivisionError keep working
        assert issubclass(SingularMatrixError, ZeroDivisionError)


class TestMatPow:
    @given(m=mat_strategy(), e=st.integers(0, 16))
    def test_matches_repeated_multiplication(self, m: Mat2, e: int) -> None:
        acc = Mat2.identity()
        for _ in range(e):
            acc = mat_mul(acc, m)
        assert mat_pow(m, e) == acc

    @given(m=mat_strategy().filter(lambda m: mat_det(m) != 0), e=st.integers(1, 10))
    def test_negative_exponent(self, m: Mat2, e: int) -> None:
        assert mat_mul(mat_pow(m, -e), mat_pow(m, e)) == Mat2.identity()

    def test_negative_exponent_singular(self) -> None:
        with pytest.raises(SingularMatrixError):
            mat_pow(Mat2(1, 1, 1, 1), -2)

    def test_counter_counts_products(self) -> None:
        counter = OpCounter()
        mat_pow(Mat2(1, 1, 1, 0), 5, counter)
        # 5 = 101b: two squarings plus two multiplies into the accumulator
        assert counter.muls == 8 * 4

    def test_counter_zero_exponent(self) -> None:
        counter = OpCounter()
        mat_pow(Mat2(1, 1, 1, 0), 0, counter)
        assert counter.muls == 0


class TestOpCounter:
    def test_add_accumulates(self) -> None:
        counter = OpCounter()
        counter.add(3)
        counter.add(2)
        assert counter.muls == 5


class TestToText:
    # Values are built inside the tests: Hypothesis and pytest render their
    # arguments with repr(), which refuses ints past the limit.
    @settings(max_examples=30)
    @given(
        digits=digit_counts,
        den_digits=st.one_of(st.none(), st.integers(1, 7), digit_counts),
        seed=st.integers(0, 2**32),
        negative=st.booleans(),
    )
    def test_equals_str_with_the_limit_lifted(
        self, digits: int, den_digits: int | None, seed: int, negative: bool
    ) -> None:
        x: Fraction | int = drawn_int(digits, seed) * (-1 if negative else 1)
        if den_digits is not None:
            x = Fraction(x, drawn_int(den_digits, seed + 1))
        assert to_text(x) == lifted_str(x)

    def test_edge_values(self) -> None:
        values = [0, -1, 10**4299, 10**4300, -(10**5000) + 1, 2**20000, -(2**20000),
                  Fraction(-1, 10**5000), Fraction(2**30000 + 1, 3**9000)]
        for x in values:
            assert to_text(x) == lifted_str(x)

    def test_lowered_limit_is_left_as_it_is(self) -> None:
        values = [3**5000, -(3**5000), 10**640, 2**2048 - 1, Fraction(-(2**3000) - 1, 3**2000)]
        expected = [lifted_str(x) for x in values]
        thread_context = repr(decimal.getcontext())
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert [to_text(x) for x in values] == expected
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(previous)
        assert repr(decimal.getcontext()) == thread_context
