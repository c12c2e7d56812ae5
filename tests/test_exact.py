from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biperiodic.exact import (
    Mat2,
    OpCounter,
    SingularMatrixError,
    as_rational,
    mat_det,
    mat_inv,
    mat_mul,
    mat_pow,
    parse_rational,
    rat_pow,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
small_ints = st.integers(min_value=-40, max_value=40)


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
