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
from biperiodic.fastpath import _u_pair
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


# (e, muls) for term_matrix at P*, kind W, n = 2e + 1 and 2e + 2
MATRIX_COUNTS = [
    # no loop level: ab + c, ac and d (3), x2 (2), P y (4), the row of P^2 y
    # (2), s0 d and s0 t (2), the readout's three products and s0 d^h (4),
    # and y = P (x2, x1) (4) when e is odd
    (0, 17),
    (1, 21),
    # h = 1: the loop starts at P, so still no level
    (2, 17),
    (3, 21),
    # e = 2^k - 1: h = 2^(k-1) - 1 has k - 1 set bits, so k - 2 levels that
    # square (6) and multiply by P (3)
    *((2**k - 1, 9 * (k - 2) + 21) for k in (3, 5, 10, 17)),
    # e = 2^k: h = 2^(k-1), so k - 1 levels that only square
    *((2**k, 6 * (k - 1) + 17) for k in (2, 5, 10, 17)),
]


class TestMatrixReadout:
    """The matrix route keeps P^h as (alpha, beta) with P^h = alpha P + beta I,
    stops at h = e // 2 for e = (n - 1) // 2, and reads x'(n) from alpha, beta,
    d^h and the selected rows s_j of P^j P^(e mod 2) (x2, x1)."""

    @pytest.mark.parametrize(("e", "muls"), MATRIX_COUNTS, ids=[str(e) for e, _ in MATRIX_COUNTS])
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
    """The doubling route walks the u-pair from index 1 up to k = n // 2, then
    reads x'(n) with one full-size product."""

    @pytest.mark.parametrize(
        "n", [1, 2, 3, *(2**k + j for k in (2, 5, 10, 17) for j in (-1, 0, 1))]
    )
    def test_multiplication_count(self, n: int) -> None:
        # the walk's constants 3; each level 7, and 1 more from odd k; each
        # set bit of k below the leading one 3; the readout b x0, ab and
        # a chi(k) (3), alpha and beta (4, and 6 at odd n), the three
        # products, the division and x (-c)^k (5); n = 1 walks nothing
        walk = n // 2
        levels, steps = max(walk.bit_length() - 1, 0), max(bin(walk).count("1") - 1, 0)
        odd_levels = bin(walk >> 1).count("1")
        constants = 3 if walk else 0
        counter = OpCounter()
        term_doubling(P_STAR, W, n, counter)
        assert counter.muls == (
            constants + 7 * levels + odd_levels + 3 * steps + 12 + 2 * (n % 2)
        )


# Edge points of the readouts and of the matrix route's t = 0 case.
BRANCH_POINTS = {
    # t = ab + 2c = 0 with d = 1: P^2 = -I, and v(k) = 0 at every k = 2 mod 4
    "v-at-2,1,-1": (Params(2, 1, -1), V),
    # t = 0 with d = 4, so (-d)^h carries a shift
    "v-at-4,1,-2": (Params(4, 1, -2), V),
    "w-at-4,1,-2": (Params(4, 1, -2), W),
    # w1 = b w0, so c x'(-1) = x1 - b x0 = 0
    "w-at-1/2,3,-2/5,2,6": (Params(Fraction(1, 2), 3, Fraction(-2, 5), 2, 6), W),
    # every term is 0
    "zero": (Params(2, 3, 1, 0, 0), W),
    # w(5) = 0, so matrix's s2 = x'(5) is 0 at n = 1 mod 4
    "w-at-1,1,1,5,-3": (Params(1, 1, 1, 5, -3), W),
}

integer_coefficients = st.integers(-9, 9).filter(bool)


def matrix_power(m: list[list[int]], h: int) -> list[list[int]]:
    """m^h for a 2x2 int matrix, by h plain products."""
    out = [[1, 0], [0, 1]]
    for _ in range(h):
        (p, q), (r, s) = out
        out = [[p * m[0][0] + q * m[1][0], p * m[0][1] + q * m[1][1]],
               [r * m[0][0] + s * m[1][0], r * m[0][1] + s * m[1][1]]]
    return out


class RecordingCounter(OpCounter):
    """An ``OpCounter`` that also keeps the set of amounts it was given."""

    def __init__(self) -> None:
        super().__init__()
        self.amounts: set[int] = set()

    def add(self, n: int = 1) -> None:
        self.amounts.add(n)
        super().add(n)


# The amount each branch of a route adds to its counter, as the routes count.
DOUBLING_BRANCHES = {
    3: "the walk's constants, or a set bit of k",
    7: "a level from even k",
    8: "a level from odd k",
    12: "the readout at even n",
    14: "the readout at odd n",
}
MATRIX_BRANCHES = {
    6: "a level",
    9: "a level with a set bit of h",
    7: "t = 0 at even e",
    11: "t = 0 at odd e",
    17: "the readout at even e",
    21: "the readout at odd e",
}


class TestQuadraticForm:
    """Both routes read their term from a binary quadratic form in the walk's
    last pair, and rest on a form that equals a power of c: L1.1 for the
    doubling pair, det(alpha P + beta I) = d^h for the matrix."""

    @settings(max_examples=40)
    @given(
        a=integer_coefficients, b=integer_coefficients, c=integer_coefficients,
        x0=st.integers(-9, 9), x1=st.integers(-9, 9), n=st.integers(1, 120),
    )
    @example(a=1, b=1, c=1, x0=0, x1=1, n=37)
    @example(a=4, b=1, c=-2, x0=3, x1=5, n=29)
    @example(a=2, b=3, c=-4, x0=2, x1=6, n=30)
    def test_matches_the_form_written_out(
        self, a: int, b: int, c: int, x0: int, x1: int, n: int
    ) -> None:
        # at an int point with an int start the integer point is the point
        # itself and every scale is 1, so each route returns x'(n)
        p = Params(a, b, c, x0, x1)
        # doubling: a x'(n) = alpha X^2 + beta X Y + gamma Y^2 at (X, Y) =
        # (u'(k), u'(k+1)), k = n // 2, from the last level's identities
        u = [0, 1]
        for j in range(1, n // 2 + 2):
            u.append((b if j % 2 == 0 else a) * u[j] + c * u[j - 1])
        k = n // 2
        x, y = u[k], u[k + 1]
        chi_k, chi_k1 = (b, a) if k % 2 else (a, b)
        r = x1 - b * x0
        if n % 2:
            alpha, beta, gamma = c * chi_k1 * r, 2 * b * c * x0, chi_k * x1
        else:
            alpha, beta, gamma = chi_k1 * (c * x0 - a * r), 2 * a * r, chi_k * x0
        assert a * term_doubling(p, W, n) == alpha * x * x + beta * x * y + gamma * y * y
        # matrix: x'(n) = s2 alpha^2 + 2 s1 alpha beta + s0 beta^2 with
        # P^h = alpha P + beta I, h = e // 2, e = (n - 1) // 2, and s_j the
        # selected row of P^j P^(e mod 2) (x'(2), x'(1))
        transfer = [[a * b + c, a * c], [b, c]]
        e = (n - 1) // 2
        row = 1 if n % 2 else 0
        start = [a * x1 + c * x0, x1]
        s0, s1, s2 = (
            sum(m[row][i] * start[i] for i in range(2))
            for m in (matrix_power(transfer, e % 2 + j) for j in range(3))
        )
        power = matrix_power(transfer, e // 2)
        alpha = power[1][0] // b
        beta = power[1][1] - alpha * c
        assert term_matrix(p, W, n) == (
            s2 * alpha * alpha + 2 * s1 * alpha * beta + s0 * beta * beta
        )


    @settings(max_examples=30)
    @given(a=integer_coefficients, b=integer_coefficients, c=integer_coefficients)
    @example(a=1, b=1, c=1)
    @example(a=4, b=1, c=-2)
    def test_doubling_identity_on_a_plain_walk(self, a: int, b: int, c: int) -> None:
        # u'(k+1) = chi(k+1) u'(k) + c u'(k-1) from (0, 1), chi = a at even
        # index and b at odd
        u = [0, 1]
        for k in range(1, 302):
            u.append((b if k % 2 == 0 else a) * u[k] + c * u[k - 1])
        pt = _integer_point(Params(a, b, c), U)
        for k in range(301):
            chi_k, chi_k1 = (b, a) if k % 2 else (a, b)
            x, y = u[k], u[k + 1]
            assert chi_k * y * y - a * b * x * y - c * chi_k1 * x * x == a * (-c) ** k, k
            assert _u_pair(pt, k, None) == (x, y, (-c) ** k), k

    @given(
        a=integer_coefficients, b=integer_coefficients, c=integer_coefficients,
        h=st.integers(0, 60),
    )
    @example(a=4, b=1, c=-2, h=7)
    def test_determinant_of_a_power(self, a: int, b: int, c: int, h: int) -> None:
        transfer = [[a * b + c, a * c], [b, c]]
        t, d = a * b + 2 * c, c * c
        power = matrix_power(transfer, h)
        # P^h = alpha P + beta I: the bottom left of I is 0
        alpha = power[1][0] // b
        beta = power[1][1] - alpha * c
        assert power == [[alpha * (a * b + c) + beta, alpha * a * c], [alpha * b, alpha * c + beta]]
        assert d * alpha * alpha + t * alpha * beta + beta * beta == d**h

    @pytest.mark.parametrize(("p", "kind"), list(BRANCH_POINTS.values()), ids=list(BRANCH_POINTS))
    def test_branch_points_match_the_naive_walk(self, p: Params, kind: SequenceKind) -> None:
        for n in range(-300, 301):
            expected = term_naive(p, kind, n)
            assert term_doubling(p, kind, n) == expected, n
            assert term_matrix(p, kind, n) == expected, n

    @pytest.mark.parametrize(("p", "kind"), list(BRANCH_POINTS.values()), ids=list(BRANCH_POINTS))
    def test_branch_points_agree_past_2_to_the_12(self, p: Params, kind: SequenceKind) -> None:
        for j in range(-1, 4):
            for n in (2**12 + j, -(2**12 + j)):
                assert term_doubling(p, kind, n) == term_matrix(p, kind, n), n

    @pytest.mark.parametrize(
        "p",
        [Params(2, 1, -1), Params(4, 1, -2, 3, 5), Params(6, 1, -3, 2, 7)],
        ids=["d=1", "d=4", "d=9"],
    )
    def test_matrix_route_at_zero_trace_runs_no_loop(self, p: Params) -> None:
        # t = 0 at the point and at its reflection; the count of the t = 0
        # case is 7, and 4 more when e is odd, at every index
        for n in (*range(1, 40), 2**12 + 1, 2**12 + 3, 10**5):
            for index in (n, -n):
                counter = OpCounter()
                value = term_matrix(p, W, index, counter)
                assert counter.muls == 7 + 4 * ((n - 1) // 2 % 2), index
                if n < 40:
                    assert value == term_naive(p, W, index), index

    def test_each_route_reaches_every_branch(self) -> None:
        # each branch adds its own amount to the counter, so the amounts a
        # route added name the branches it ran
        for route, branches in (
            (term_doubling, DOUBLING_BRANCHES), (term_matrix, MATRIX_BRANCHES)
        ):
            counter = RecordingCounter()
            for p, kind in BRANCH_POINTS.values():
                for n in range(-20, 21):
                    route(p, kind, n, counter)
            assert counter.amounts == set(branches), route.__name__


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

    def test_route_counts_at_p_star(self) -> None:
        # which route counts fewer depends on the bits of the index, not on
        # the route: at P*, U the order at 2^20 flips at 10^5
        for n, counts in ((2**20, (149, 174)), (10**5, (141, 126))):
            doubling, matrix = OpCounter(), OpCounter()
            term_doubling(P_STAR, U, n, counter=doubling)
            term_matrix(P_STAR, U, n, counter=matrix)
            assert (doubling.muls, matrix.muls) == counts, n


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
        # x'(n) = x1 u'(n) + c x0 (b/a) u'(n-1) at odd n, where u'(n-1) is a
        # multiple of a
        u_prev, u_n, _ = _u_pair(pt, n - 1, None)
        assert u_prev % pt.a == 0
        numer, den = pt.x1 * u_n + pt.c * pt.x0 * pt.b * (u_prev // pt.a), _scale(pt, n)
        assert math.gcd(numer, den) == common
        plain = Fraction(numer, den)
        for value in (term_doubling(p, W, n), term_matrix(p, W, n)):
            assert (value.numerator, value.denominator) == (plain.numerator, plain.denominator)
