from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biperiodic.core import Params, SequenceKind, _integer_point, _scale, initial_pair, term_naive
from biperiodic.exact import OpCounter
from biperiodic.fastpath import Method, term_doubling, term_fast, term_matrix, uv_doubling
from biperiodic.fastpath import _from_u, _u_pair
from conftest import P_STAR, random_params

U, V, W = SequenceKind.U, SequenceKind.V, SequenceKind.W
FIBONACCI = Params(1, 1, 1, 0, 1)
RATIONAL = Params(Fraction(1, 2), 3, Fraction(-2, 5), Fraction(1, 3), 2)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero = rationals.filter(lambda x: x != 0)
# the small indices exercise every branch of the routes: n = 0, the single
# steps around it and both parities on each side
indices = st.one_of(st.sampled_from([0, 1, -1, 2, -2, 3, -3]), st.integers(-64, 64))


@st.composite
def rational_points(draw: st.DrawFn) -> Params:
    """A rational parameter point; about half have zero discriminant (c = -ab/4)."""
    a, b = draw(nonzero), draw(nonzero)
    c = -a * b / 4 if draw(st.booleans()) else draw(nonzero)
    return Params(a, b, c, draw(rationals), draw(rationals))


# denominators built from shared small primes, so a, b, c, w0 and w1 have
# composite denominators with common factors (a = 1/6, c = 10/21, ...)
smooth = (
    st.lists(st.sampled_from((2, 3, 5, 7)), max_size=5)
    .map(math.prod)
    .filter(lambda d: d <= 10**4)
)
smooth_rationals = st.builds(Fraction, st.integers(-30, 30), smooth)
smooth_nonzero = smooth_rationals.filter(lambda x: x != 0)


@st.composite
def smooth_points(draw: st.DrawFn) -> Params:
    return Params(
        draw(smooth_nonzero), draw(smooth_nonzero), draw(smooth_nonzero),
        draw(smooth_rationals), draw(smooth_rationals),
    )


class TestUvDoubling:
    def test_frozen_pairs(self) -> None:
        assert uv_doubling(P_STAR, 0) == (0, 1)
        assert uv_doubling(P_STAR, 2) == (2, 7)
        assert uv_doubling(P_STAR, 5) == (55, 126)

    def test_matches_naive_run(self) -> None:
        rng = random.Random(31)
        for _ in range(20):
            p = random_params(rng)
            for n in range(0, 33):
                u_n, u_next = uv_doubling(p, n)
                assert u_n == term_naive(p, U, n)
                assert u_next == term_naive(p, U, n + 1)

    def test_negative_index_rejected(self) -> None:
        with pytest.raises(ValueError):
            uv_doubling(P_STAR, -1)

    @pytest.mark.parametrize("n", [2**10, 2**15, 2**20])
    def test_multiplication_count_logarithmic(self, n: int) -> None:
        counter = OpCounter()
        uv_doubling(P_STAR, n, counter)
        assert counter.muls <= 12 * math.log2(n)


class TestMethodsAgree:
    """All three evaluators compute the same function of (params, kind, n)."""

    def test_three_way_agreement(self) -> None:
        rng = random.Random(37)
        for _ in range(12):
            p = random_params(rng)
            for kind in SequenceKind:
                for n in range(-9, 17):
                    expected = term_naive(p, kind, n)
                    assert term_matrix(p, kind, n) == expected
                    assert term_doubling(p, kind, n) == expected

    @given(p=rational_points(), n=indices)
    # at |n| <= 4 the matrix route runs no loop level (h = (|n| - 1) // 4 = 0)
    @example(p=RATIONAL, n=1)
    @example(p=RATIONAL, n=2)
    @example(p=RATIONAL, n=3)
    @example(p=RATIONAL, n=4)
    @example(p=RATIONAL, n=5)
    @example(p=RATIONAL, n=6)
    @example(p=RATIONAL, n=-1)
    @example(p=RATIONAL, n=-2)
    @example(p=RATIONAL, n=-3)
    @example(p=RATIONAL, n=-4)
    @example(p=RATIONAL, n=-5)
    @example(p=RATIONAL, n=-6)
    def test_three_way_agreement_property(self, p: Params, n: int) -> None:
        for kind in SequenceKind:
            expected = term_naive(p, kind, n)
            assert term_matrix(p, kind, n) == expected, kind
            assert term_doubling(p, kind, n) == expected, kind

    def test_spot_values(self) -> None:
        assert term_doubling(P_STAR, W, 5) == 79
        assert term_doubling(P_STAR, V, 4) == 62
        assert term_matrix(P_STAR, U, -2) == -2
        assert term_matrix(P_STAR, W, -1) == -2

    def test_term_fast_dispatch(self) -> None:
        for method in Method:
            assert term_fast(P_STAR, U, 5, method=method) == 55

    def test_term_fast_default_is_doubling(self) -> None:
        counter = OpCounter()
        term_fast(P_STAR, U, 64, counter=counter)
        doubling = OpCounter()
        term_doubling(P_STAR, U, 64, counter=doubling)
        assert counter.muls == doubling.muls


class TestMatrixReadout:
    """The matrix route stops its loop at P^h, h = e // 2 for e = (n - 1) // 2,
    and reads x'(n) as a row of P^h times the column P^h P^(e mod 2) (x2, x1)."""

    @pytest.mark.parametrize(
        ("e", "muls"),
        [
            # no loop level: x2, ab + c and ac (4), the column (4), the row (2),
            # and P (x2, x1) (4) when e is odd
            (0, 10),
            (1, 14),
            # h = 1: one level that squares and multiplies by P (5 + 8)
            (2, 13 + 10),
            (3, 13 + 14),
            # e = 2^k - 1: h = 2^(k-1) - 1 has k - 1 set bits
            *((2**k - 1, 13 * (k - 1) + 14) for k in (3, 5, 10, 17)),
            # e = 2^k: h = 2^(k-1) has one set bit and k - 1 clear ones
            *((2**k, 13 + 5 * (k - 1) + 10) for k in (2, 5, 10, 17)),
        ],
    )
    def test_multiplication_count(self, e: int, muls: int) -> None:
        for n in (2 * e + 1, 2 * e + 2):
            counter = OpCounter()
            term_matrix(P_STAR, W, n, counter)
            assert counter.muls == muls, n

    @pytest.mark.parametrize(
        "p", [FIBONACCI, P_STAR, RATIONAL], ids=["fibonacci", "p_star", "rational"]
    )
    def test_agreement_around_powers_of_two(self, p: Params) -> None:
        for k in range(1, 17):
            for j in (-1, 0, 1, 2, 3):
                for n in (2**k + j, -(2**k + j)):
                    for kind in SequenceKind:
                        value = term_matrix(p, kind, n)
                        assert value == term_doubling(p, kind, n), (kind, n)
                        if abs(n) <= 64:
                            assert value == term_naive(p, kind, n), (kind, n)


class TestDoublingCount:
    """The doubling route walks the u-pair from index 1 up to n - 1, then reads
    x'(n) from u'(n-1) and u'(n)."""

    @pytest.mark.parametrize(
        "n", [1, 2, 3, *(2**k + j for k in (2, 5, 10, 17) for j in (-1, 0, 1))]
    )
    def test_multiplication_count(self, n: int) -> None:
        # each level of the walk 7, each set bit of n - 1 below the leading
        # one 2 more; the readout 3, and 2 more at odd n; n = 1 walks nothing
        walk = n - 1
        levels, steps = max(walk.bit_length() - 1, 0), max(bin(walk).count("1") - 1, 0)
        counter = OpCounter()
        term_doubling(P_STAR, W, n, counter)
        assert counter.muls == 7 * levels + 2 * steps + 3 + 2 * (n % 2)


class TestIdentitiesAtDepth:
    """Cassini (L1.1) and the addition rule (L1.2) of u, written out here as
    plain Fraction formulas and evaluated on matrix-route terms far out; no
    comparison with the doubling route."""

    @pytest.mark.parametrize(
        ("p", "n"),
        [(P_STAR, 2**16), (P_STAR, 2**16 + 1), (FIBONACCI, 2**16 + 2), (FIBONACCI, 2**16 + 3),
         (RATIONAL, 2**12), (RATIONAL, 2**12 + 1)],
    )
    def test_cassini(self, p: Params, n: int) -> None:
        # (a/b)^zeta(n) u(n)^2 - (a/b)^zeta(n+1) u(n-1) u(n+1) = (a/b) (-c)^(n-1)
        ab = p.a / p.b
        u = {k: term_matrix(p, U, k) for k in (n - 1, n, n + 1)}
        lhs = ab ** (n % 2) * u[n] ** 2 - ab ** ((n + 1) % 2) * u[n - 1] * u[n + 1]
        assert lhs == ab * (-p.c) ** (n - 1)

    @pytest.mark.parametrize(
        ("p", "m", "n"),
        [(P_STAR, 2**15 + 1, 2**15 + 2), (P_STAR, 2**15, 2**15 + 4),
         (FIBONACCI, 2**15 + 3, 2**15), (FIBONACCI, 2**15 + 1, 2**15 + 1),
         (RATIONAL, 2**11 + 1, 2**11 + 2), (RATIONAL, 2**11, 2**11 + 4)],
    )
    def test_addition(self, p: Params, m: int, n: int) -> None:
        # (b/a)^zeta(mn+n) u(m) u(n+1) + (b/a)^zeta(mn+m) c u(n) u(m-1) = u(n+m)
        ba = p.b / p.a
        u = {k: term_matrix(p, U, k) for k in (m - 1, m, n, n + 1, n + m)}
        lhs = (ba ** ((m * n + n) % 2) * u[m] * u[n + 1]
               + ba ** ((m * n + m) % 2) * p.c * u[n] * u[m - 1])
        assert lhs == u[n + m]


# The modular oracle: the defining recurrence walked on residues modulo a
# prime.  It shares nothing with the integer point, the scale, doubling or
# the matrix, and reaches indices the Fraction walk cannot.  Equal residues
# are a fingerprint of equality, not a proof of it.
PRIMES = (2**61 - 1, 2**31 - 1)


def residue(x: Fraction, prime: int) -> int:
    return x.numerator * pow(x.denominator, -1, prime) % prime


def walk_mod(p: Params, kind: SequenceKind, n: int, prime: int) -> int:
    """x(n) mod prime by |n| steps of w(k) = chi(k) w(k-1) + c w(k-2), backward for n < 0."""
    a, b, c = (residue(x, prime) for x in (p.a, p.b, p.c))
    lo, hi = (residue(x, prime) for x in initial_pair(p, kind))  # x(k), x(k+1) at k = 0
    for k in range(1, n):  # x(k+1) = chi(k+1) x(k) + c x(k-1)
        lo, hi = hi, ((a if k % 2 else b) * hi + c * lo) % prime
    c_inv = pow(c, -1, prime)
    for k in range(0, n, -1):  # x(k-1) = (x(k+1) - chi(k+1) x(k)) / c
        lo, hi = (hi - (b if k % 2 == 0 else a) * lo) * c_inv % prime, lo
    return hi if n > 0 else lo


def assert_fast_routes_match_the_walk(p: Params, kind: SequenceKind, n: int) -> None:
    dens = [x.denominator for x in (p.a, p.b, p.c, p.w0, p.w1)]
    for prime in PRIMES:
        if p.c.numerator % prime == 0 or any(d % prime == 0 for d in dens):
            continue
        walked = walk_mod(p, kind, n, prime)
        for route in (term_doubling, term_matrix):
            got = residue(route(p, kind, n), prime)
            assert got == walked, (route.__name__, kind, n, prime)


class TestModularOracle:
    """Both fast routes against the recurrence itself, walked modulo fixed primes."""

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_walk_matches_the_fraction_walk(self, kind: SequenceKind) -> None:
        for n in range(-40, 41):
            expected = term_naive(RATIONAL, kind, n)
            for prime in PRIMES:
                assert walk_mod(RATIONAL, kind, n, prime) == residue(expected, prime), n

    @settings(max_examples=25)
    @given(p=rational_points(), n=st.integers(-(2**14), 2**14))
    @example(p=RATIONAL, n=2**14)
    @example(p=RATIONAL, n=-(2**14))
    def test_fast_routes_at_depth(self, p: Params, n: int) -> None:
        for kind in SequenceKind:
            assert_fast_routes_match_the_walk(p, kind, n)

    @pytest.mark.parametrize(
        "p", [FIBONACCI, P_STAR, RATIONAL], ids=["fibonacci", "p_star", "rational"]
    )
    @pytest.mark.parametrize("n", [10**5, -(10**5)])
    def test_fast_routes_at_ten_to_the_fifth(self, p: Params, n: int) -> None:
        assert_fast_routes_match_the_walk(p, W, n)


class TestLargeIndex:
    def test_fibonacci_spot_at_large_n(self) -> None:
        fib = Params(1, 1, 1, 0, 1)
        n = 10_000
        value = term_doubling(fib, U, n)
        assert value == term_matrix(fib, U, n)
        # Binet sanity: digit count of F_n is floor(n*log10(phi)) +- 1
        digits = len(str(value))
        assert abs(digits - n * math.log10((1 + math.sqrt(5)) / 2)) <= 1

    def test_doubling_cheaper_than_matrix(self) -> None:
        doubling, matrix = OpCounter(), OpCounter()
        term_doubling(P_STAR, U, 2**20, counter=doubling)
        term_matrix(P_STAR, U, 2**20, counter=matrix)
        assert doubling.muls < matrix.muls


class TestIntegerPointScaling:
    """Both routes evaluate at the scaled integer point and divide once."""

    @given(p=smooth_points(), n=st.integers(-300, 300))
    def test_shared_factor_denominators(self, p: Params, n: int) -> None:
        for kind in SequenceKind:
            expected = term_naive(p, kind, n)
            for value in (term_doubling(p, kind, n), term_matrix(p, kind, n)):
                assert value == expected, kind
                assert math.gcd(value.numerator, value.denominator) == 1

    def test_rational_point_far_out(self) -> None:
        p = Params(Fraction(1, 2), 3, Fraction(-2, 5), 1, 1)
        for kind in SequenceKind:
            for n in (4096, 4097, -4096, -4097):
                expected = term_naive(p, kind, n)
                assert term_doubling(p, kind, n) == expected, (kind, n)
                assert term_matrix(p, kind, n) == expected, (kind, n)

    @pytest.mark.parametrize(("w0", "w1", "common"), [(1, 1, 25), (Fraction(1, 3), 2, 150)])
    def test_reduced_past_a_shared_factor(self, w0: Fraction, w1: Fraction, common: int) -> None:
        # x'(n) and its scale share a factor here, so both routes must reduce
        # the quotient exactly as the public constructor does
        p, n = Params(Fraction(1, 2), 3, Fraction(-2, 5), w0, w1), 2**18 + 3
        pt = _integer_point(p, W)
        numer, den = _from_u(pt, n, *_u_pair(pt, n - 1, None), None), _scale(pt, n)
        assert math.gcd(numer, den) == common
        plain = Fraction(numer, den)
        for value in (term_doubling(p, W, n), term_matrix(p, W, n)):
            assert (value.numerator, value.denominator) == (plain.numerator, plain.denominator)
