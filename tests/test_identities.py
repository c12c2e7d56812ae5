from __future__ import annotations

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from biperiodic import identities
from biperiodic.core import (
    DegenerateParametersError,
    Params,
    SequenceKind,
    TermTable,
    _kind_tables,
    discriminant,
    table_notation,
    term_naive,
    zeta,
)
from biperiodic.exact import Mat2, mat_det, mat_inv, mat_mul, mat_pow, rat_pow
from biperiodic.identities import (
    Family,
    IdentityId,
    SingularSeriesError,
    SkipRecord,
    SumConstants,
    SuiteConfig,
    _identity,
    _k_algebra,
    _pair_pow,
    _Point,
    _Ratio,
    _report,
    _tables,
    _validate_sum_indices,
    _y_sum,
    check_addition,
    check_binomial,
    check_cassini,
    check_catalan,
    check_partial_sum,
    check_product_sum,
    check_square_difference,
    check_square_sum,
    check_u_identity,
    check_uv_identity,
    delta_weight,
    run_suite,
    sum_closed,
    sum_constants,
    sum_direct,
    sum_oracle,
)
from biperiodic.matforms import build, MatrixTag
from conftest import P_STAR, no_digit_limit, random_params

DEGENERATE = Params(1, 1, Fraction(-1, 4))  # discriminant 0
SINGULAR_SUM = Params(1, 3, Fraction(-2, 3))  # det(I - K^1) = 0
PRINTED_ZERO = Params(1, 4, 3)  # printed constant 0 at m = 2, corrected 105


def small_indices(lo: int = 1, hi: int = 6) -> st.SearchStrategy[int]:
    return st.integers(min_value=lo, max_value=hi)


nonzero_rationals = st.fractions(-4, 4, max_denominator=6).filter(bool)
# run_suite's parameter grid: numerators in [-5, 5], denominators in [1, 5]
grid_nonzero = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 5))
grid_any = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5))
grid_points = st.builds(Params, grid_nonzero, grid_nonzero, grid_nonzero, grid_any, grid_any)
# w0 and mu*w1 have different denominators here, so the W scale has M > 1
RATIONAL_W = Params(Fraction(1, 2), 3, Fraction(-2, 5), Fraction(1, 3), 2)


def matrix_series_oracle(p: Params, m: int, n: int, r: int) -> tuple[Fraction, Fraction]:
    """The geometric series on Mat2 products, the reference for sum_oracle."""
    _validate_sum_indices(m, n, r)
    if discriminant(p) == 0:
        raise DegenerateParametersError("discriminant is zero for these parameters")
    k = build(MatrixTag.K, p)
    k_m = mat_pow(k, m)
    resolvent = Mat2.identity() - k_m
    if mat_det(resolvent) == 0:
        raise SingularSeriesError("partial-sum constant det(I - K^m) is zero for this m")
    k_r = mat_pow(k, r)
    k_top = mat_mul(mat_pow(k_m, n + 1), k_r)
    total = mat_mul(mat_inv(resolvent), k_r - k_top)
    return 2 * total.m21, 2 * total.m11


# The Fraction forms of the direct sum, the closed form and the constants, the
# references for the int forms of sum_direct, sum_closed and sum_constants.


def fraction_sum_constants(p: Params, m: int) -> SumConstants:
    v_m = TermTable(p, SequenceKind.V)[m]
    z = zeta(m)
    printed = 1 - p.a ** z * v_m + (p.a * p.b) ** z * (-p.c) ** m
    corrected = 1 - (p.a * p.b) ** (m // 2) * p.a ** z * v_m + (-(p.a * p.b * p.c)) ** m
    return SumConstants(printed, corrected)


def fraction_direct_sum(p: Params, xs: TermTable, shift: int, m: int, n: int, r: int) -> Fraction:
    """One weighted partial sum by plain term-by-term addition."""
    total = Fraction(0)
    for j in range(n + 1):
        t = m * j + r
        total += (p.a * p.b) ** (t // 2) * p.a ** (zeta(t) + shift) * xs[t]
    return total


def fraction_closed_sum(
    p: Params,
    xs: TermTable,
    shift: int,
    m: int,
    n: int,
    r: int,
    consts: SumConstants,
    corrected: bool,
) -> Fraction | None:
    """One partial sum from the scalar closed form (see :func:`sum_closed`)."""
    d = consts.d_corrected if corrected else consts.d_printed
    if d == 0:
        if corrected:
            raise SingularSeriesError(
                "partial-sum constant det(I - K^m) is zero for this m"
            )
        return None
    bracket_weight = (p.a * p.b) ** (m // 2) if corrected else Fraction(1)
    tail_sign = -1 if corrected else 1
    top = m * n + m + r
    zm = zeta(m)

    def bracket(t: int, sign: int) -> Fraction:
        weight = (-p.c) ** m * p.a ** (zm * zeta(t + 1)) * p.b ** (zm * zeta(t))
        return xs[t] + sign * bracket_weight * weight * xs[t - m]

    def outer(t: int) -> Fraction:
        return (p.a * p.b) ** (t // 2) * p.a ** (zeta(t) + shift)

    return (outer(r) * bracket(r, -1) - outer(top) * bracket(top, tail_sign)) / d


def fraction_sum_closed(
    p: Params, m: int, n: int, r: int, corrected: bool
) -> tuple[Fraction, Fraction] | None:
    consts = fraction_sum_constants(p, m)
    u, v = TermTable(p, SequenceKind.U), TermTable(p, SequenceKind.V)
    u_sum = fraction_closed_sum(p, u, -1, m, n, r, consts, corrected)
    if u_sum is None:
        return None
    return u_sum, fraction_closed_sum(p, v, 0, m, n, r, consts, corrected)


# The Fraction forms of the L1, L2 and w checkers, the references for their
# int forms: each reads Fraction terms from fresh tables and returns (lhs, rhs).


def fraction_weights(p: Params) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """(b/a)^e and (a/b)^e for e = 0 and 1."""
    return (Fraction(1), p.b / p.a), (Fraction(1), p.a / p.b)


def fraction_w_invariant(p: Params) -> Fraction:
    return p.w1 * p.w1 - p.b * p.w0 * p.w1 - p.c * (p.b / p.a) * p.w0 * p.w0


def fraction_u_identity(p: Params, sub: int, m: int, n: int) -> tuple[Fraction, Fraction]:
    u = TermTable(p, SequenceKind.U)
    ba, ab = fraction_weights(p)
    if sub == 1:
        lhs = ab[zeta(n)] * u[n] ** 2 - ab[zeta(n + 1)] * u[n - 1] * u[n + 1]
        return lhs, ab[1] * (-p.c) ** (n - 1)
    if sub == 2:
        lhs = ba[zeta(m * n + n)] * u[m] * u[n + 1] + ba[zeta(m * n + m)] * p.c * u[n] * u[m - 1]
        return lhs, u[n + m]
    if sub == 3:
        lhs = ba[zeta(m * n + m)] * u[n] * u[m + 1] - ba[zeta(m * n + n)] * u[m] * u[n + 1]
        return lhs, (-p.c) ** m * u[n - m]
    lhs = ba[zeta(m * n + n)] * u[m] * u[n - m + 1] + p.c * ba[zeta(m * n)] * u[m - 1] * u[n - m]
    return lhs, u[n]


def fraction_uv_identity(p: Params, sub: int, m: int, n: int) -> tuple[Fraction, Fraction]:
    if discriminant(p) == 0:
        raise DegenerateParametersError("discriminant is zero for these parameters")
    u, v = TermTable(p, SequenceKind.U), TermTable(p, SequenceKind.V)
    ba, ab = fraction_weights(p)
    q = discriminant(p) / (p.a * p.a)
    if sub == 1:
        return v[n] ** 2 - q * u[n] ** 2, 4 * ba[zeta(n)] * (-p.c) ** n
    zz = zeta(n) * zeta(m)
    if sub == 2:
        return v[m] * v[n] + q * u[m] * u[n], 2 * ba[zz] * v[n + m]
    if sub == 3:
        return u[m] * v[n] + u[n] * v[m], 2 * ba[zz] * u[n + m]
    if sub == 4:
        return v[m] * v[n] - q * u[m] * u[n], 2 * (-p.c) ** m * ba[zz] * v[n - m]
    if sub == 5:
        return u[n] * v[m] - u[m] * v[n], 2 * (-p.c) ** m * ba[zz] * u[n - m]
    if sub == 6:
        return v[n + m] + (-p.c) ** m * v[n - m], ab[zz] * v[m] * v[n]
    return u[n + m] + (-p.c) ** m * u[n - m], ab[zz] * u[n] * v[m]


def fraction_cassini(p: Params, n: int) -> tuple[Fraction, Fraction]:
    w = TermTable(p, SequenceKind.W)
    ba, _ = fraction_weights(p)
    lhs = ba[zeta(n)] * w[n - 1] * w[n + 1] - ba[zeta(n + 1)] * w[n] ** 2
    return lhs, (-1) ** n * p.c ** (n - 1) * fraction_w_invariant(p)


def fraction_addition(p: Params, n: int, q: int) -> tuple[Fraction, Fraction]:
    u, w = TermTable(p, SequenceKind.U), TermTable(p, SequenceKind.W)
    ba, _ = fraction_weights(p)
    rhs = (
        ba[zeta(n + 1) * zeta(q)] * u[n] * w[q + 1]
        + p.c * ba[zeta(n) * zeta(q + 1)] * u[n - 1] * w[q]
    )
    return w[n + q], rhs


def fraction_catalan(p: Params, n: int, pp: int, q: int) -> tuple[Fraction, Fraction]:
    u, w = TermTable(p, SequenceKind.U), TermTable(p, SequenceKind.W)
    ba, _ = fraction_weights(p)
    zpq = zeta(pp) * zeta(q)
    lhs = ba[zeta(n) * zpq] * w[n + pp] * w[n + q] - ba[zeta(n + 1) * zpq] * w[n] * w[n + pp + q]
    weight = ba[zeta(n) * zeta(pp + 1) * zeta(q + 1)]
    return lhs, weight * (-p.c) ** n * u[pp] * u[q] * fraction_w_invariant(p)


def fraction_product_sum(p: Params, m: int, n: int) -> tuple[Fraction, Fraction]:
    w = TermTable(p, SequenceKind.W)
    ba, _ = fraction_weights(p)
    lhs = ba[zeta(m * n + n)] * w[n + 1] * w[m] + ba[zeta(m * n + m)] * p.c * w[n] * w[m - 1]
    return lhs, p.w1 * w[m + n] + ba[zeta(m + n)] * p.c * p.w0 * w[m + n - 1]


def fraction_square_sum(p: Params, n: int) -> tuple[Fraction, Fraction]:
    w = TermTable(p, SequenceKind.W)
    ba, _ = fraction_weights(p)
    lhs = ba[zeta(n)] * w[n + 1] ** 2 + ba[zeta(n + 1)] * p.c * w[n] ** 2
    return lhs, p.w1 * w[2 * n + 1] + ba[1] * p.c * p.w0 * w[2 * n]


def fraction_square_difference(p: Params, n: int) -> tuple[Fraction, Fraction]:
    w = TermTable(p, SequenceKind.W)
    lhs = w[n + 1] ** 2 - p.c * p.c * w[n - 1] ** 2
    return lhs, p.a ** zeta(n) * p.b ** zeta(n + 1) * (p.w1 * w[2 * n] + p.c * p.w0 * w[2 * n - 1])


class TestIdentityId:
    def test_str_forms(self) -> None:
        assert str(IdentityId(Family.L2, 7)) == "L2.7"
        assert str(IdentityId(Family.SUM, "u")) == "SUM.u"
        assert str(IdentityId(Family.T34)) == "T34"

    def test_sort_is_family_then_sub(self) -> None:
        ids = [
            IdentityId(Family.T34),
            IdentityId(Family.L1, 2),
            IdentityId(Family.L1, 1),
            IdentityId(Family.SUM, "v"),
        ]
        ordered = sorted(ids, key=lambda i: i.sort_key)
        assert [str(i) for i in ordered] == ["L1.1", "L1.2", "SUM.v", "T34"]


class TestPoint:
    """One derivation of a point's integer point gives the tables and constants."""

    @given(p=grid_points)
    @example(p=P_STAR)
    @example(p=DEGENERATE)
    @example(p=RATIONAL_W)
    def test_tables_ratios_and_shared_reads(self, p: Params) -> None:
        pt = _Point(p)
        assert (pt.u.kind, pt.v.kind, pt.w.kind) == tuple(SequenceKind)
        for kind, table, ratios in zip(SequenceKind, _kind_tables(p), (pt.us, pt.vs, pt.ws)):
            assert (table.params, table.kind) == (p, kind)
            fresh = TermTable(p, kind)
            for k in range(-30, 61):  # the reads below 0 build the mirror tables
                assert table.pair(k) == fresh.pair(k), (kind, k)
                assert table[k] == fresh[k], (kind, k)
            assert table._mirror is not None
            for k in (-7, 0, 5):
                assert ratios[k] is ratios[k]
                assert Fraction(ratios[k].num, ratios[k].den) == fresh[k]
        assert Fraction(pt.ba[1].num, pt.ba[1].den) == p.b / p.a
        assert Fraction(pt.ab[1].num, pt.ab[1].den) == p.a / p.b
        assert pt.ba[1].den > 0 and pt.ab[1].den > 0

    def test_y_tables_are_built_on_the_first_sum(self) -> None:
        _tables.cache_clear()
        try:
            check_u_identity(P_STAR, 2, 3, 4)
            check_uv_identity(P_STAR, 2, 3, 4)
            check_cassini(P_STAR, 3)
            pt = _tables(P_STAR)
            assert pt._ys is None
            check_partial_sum(P_STAR, 2, 3, 1, "u")
            assert _tables(P_STAR) is pt and pt._ys is not None
            y_u, y_v = pt._ys
            check_partial_sum(P_STAR, 3, 2, 0, "v")
            assert pt.ys[0] is y_u and pt.ys[1] is y_v
        finally:
            _tables.cache_clear()


class TestReport:
    unreduced = st.tuples(st.integers(-40, 40), st.integers(1, 40), st.integers(1, 12))

    @given(left=unreduced, right=unreduced, same=st.booleans())
    @example(left=(0, 3, 1), right=(0, 7, 5), same=False)
    @example(left=(-2, 3, 4), right=(2, 3, 4), same=False)
    @example(left=(-6, 4, 3), right=(-3, 2, 1), same=False)
    def test_passed_by_cross_multiplication(
        self, left: tuple[int, int, int], right: tuple[int, int, int], same: bool
    ) -> None:
        if same:  # the value of left over another shared factor
            right = (left[0], left[1], right[2])
        (ln, ld, lg), (rn, rd, rg) = left, right
        lhs, rhs = _Ratio(ln * lg, ld * lg), _Ratio(rn * rg, rd * rg)
        report = _report(_identity(Family.L1, 1), P_STAR, {"n": 1}, lhs, rhs)
        assert report.passed is (Fraction(ln, ld) == Fraction(rn, rd))
        assert report.lhs == Fraction(ln, ld) and report.rhs == Fraction(rn, rd)
        assert report.to_dict()["pass"] is report.passed

    def test_an_altered_term_fails(self) -> None:
        _tables.cache_clear()
        try:
            assert check_cassini(P_STAR, 1).passed
            ws = _tables(P_STAR).ws
            ws[2] = ws[2] + _Ratio(1)
            report = check_cassini(P_STAR, 1)
            assert report.passed is False
            assert report.to_dict()["pass"] is False
        finally:
            _tables.cache_clear()

    def test_checks_share_one_id(self) -> None:
        first, second = check_uv_identity(P_STAR, 2, 1, 3), check_uv_identity(P_STAR, 2, 3, 1)
        assert first.id is second.id is _identity(Family.L2, 2)
        assert check_cassini(P_STAR, 2).id is _identity(Family.CASSINI_W)
        fresh = IdentityId(Family.L2, 2)
        assert fresh == first.id and fresh is not first.id and str(fresh) == "L2.2"


class TestUIdentities:
    def test_square_vs_neighbors_worked(self) -> None:
        r = check_u_identity(P_STAR, 1, 1, 2)
        assert r.passed and r.lhs == Fraction(-2, 3)

    def test_addition_worked(self) -> None:
        r = check_u_identity(P_STAR, 2, 2, 4)
        assert r.passed and r.rhs == 126

    def test_telescoping_reconstructs_u4(self) -> None:
        r = check_u_identity(P_STAR, 4, 2, 4)
        assert r.passed and r.lhs == 16 and r.rhs == 16

    def test_subtraction_worked(self) -> None:
        r = check_u_identity(P_STAR, 3, 1, 3)
        assert r.passed and r.lhs == -2 and r.rhs == -2

    def test_subtraction_mixed_parity(self) -> None:
        # the parity exponents only matter when m and n differ mod 2
        r = check_u_identity(P_STAR, 3, 2, 1)
        assert r.passed and r.lhs == 1 and r.rhs == 1

    def test_telescoping_worked(self) -> None:
        assert check_u_identity(P_STAR, 4, 2, 5).passed

    def test_random_storm(self) -> None:
        rng = random.Random(101)
        for _ in range(60):
            p = random_params(rng)
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            for sub in (1, 2, 3, 4):
                r = check_u_identity(p, sub, m, n)
                assert r.passed, (sub, p, m, n, r.lhs, r.rhs)

    def test_specialized_at_c_equal_one(self) -> None:
        # pinning c = 1 keeps every relation exact (the one-parameter family)
        rng = random.Random(211)
        for _ in range(30):
            base = random_params(rng)
            p = Params(base.a, base.b, 1, base.w0, base.w1)
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            for sub in (1, 2, 3, 4):
                assert check_u_identity(p, sub, m, n).passed

    def test_bad_sub_rejected(self) -> None:
        with pytest.raises(ValueError):
            check_u_identity(P_STAR, 5, 1, 1)


class TestUVIdentities:
    @pytest.mark.parametrize(
        ("sub", "m", "n", "value"),
        [(1, 1, 2, 4), (3, 2, 1, 14), (7, 1, 3, 14)],
    )
    def test_worked_points(self, sub: int, m: int, n: int, value: int) -> None:
        r = check_uv_identity(P_STAR, sub, m, n)
        assert r.passed and r.rhs == value

    def test_all_seven_random(self) -> None:
        rng = random.Random(103)
        checked = 0
        while checked < 40:
            p = random_params(rng)
            if p.a * p.b * (p.a * p.b + 4 * p.c) == 0:
                continue
            checked += 1
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            for sub in range(1, 8):
                r = check_uv_identity(p, sub, m, n)
                assert r.passed, (sub, p, m, n, r.lhs, r.rhs)

    def test_degenerate_rejected(self) -> None:
        with pytest.raises(DegenerateParametersError):
            check_uv_identity(DEGENERATE, 1, 1, 2)


class TestQuadraticFamilies:
    def test_cassini_worked(self) -> None:
        assert check_cassini(P_STAR, 2).lhs == Fraction(-7, 2)
        assert check_cassini(P_STAR, 1).lhs == Fraction(7, 2)

    def test_addition_worked(self) -> None:
        assert check_addition(P_STAR, 2, 3).lhs == 79
        assert check_addition(P_STAR, 1, 1).lhs == 3

    def test_catalan_worked(self) -> None:
        assert check_catalan(P_STAR, 1, 1, 1).lhs == Fraction(7, 2)

    def test_catalan_specializes_to_cassini(self) -> None:
        # p = q makes the index pattern (n-p, n+p, n, n) match the square form
        rng = random.Random(107)
        for _ in range(20):
            p = random_params(rng)
            n, q = rng.randint(2, 7), rng.randint(1, 4)
            assert check_catalan(p, n, q, q).passed

    def test_product_sum_worked(self) -> None:
        assert check_product_sum(P_STAR, 3, 2).lhs == Fraction(227, 2)

    def test_square_sum_worked(self) -> None:
        assert check_square_sum(P_STAR, 2).lhs == Fraction(227, 2)

    def test_square_difference_worked(self) -> None:
        assert check_square_difference(P_STAR, 2).lhs == 99

    def test_random_storm(self) -> None:
        rng = random.Random(109)
        for _ in range(40):
            p = random_params(rng)
            n, q = rng.randint(1, 7), rng.randint(1, 5)
            assert check_cassini(p, n).passed
            assert check_addition(p, n, q).passed
            assert check_catalan(p, n, rng.randint(1, 4), rng.randint(1, 4)).passed
            assert check_product_sum(p, rng.randint(1, 6), n).passed
            assert check_square_sum(p, n).passed
            assert check_square_difference(p, n).passed


# Every converted sub-identity: its checker, its Fraction reference, the value
# of its sub-identity argument (None where it takes none) and its index names.
CONVERTED = [
    *((check_u_identity, fraction_u_identity, sub, ("m", "n")) for sub in (1, 2, 3, 4)),
    *((check_uv_identity, fraction_uv_identity, sub, ("m", "n")) for sub in range(1, 8)),
    (check_cassini, fraction_cassini, None, ("n",)),
    (check_addition, fraction_addition, None, ("n", "q")),
    (check_catalan, fraction_catalan, None, ("n", "pp", "q")),
    (check_product_sum, fraction_product_sum, None, ("m", "n")),
    (check_square_sum, fraction_square_sum, None, ("n",)),
    (check_square_difference, fraction_square_difference, None, ("n",)),
]


class TestIntCheckers:
    """The ratio forms of L1, L2 and the w families against their Fraction forms."""

    @given(p=grid_points, m=st.integers(1, 24), n=st.integers(1, 24), q=st.integers(1, 24))
    @example(p=DEGENERATE, m=3, n=5, q=2)
    # m > n: L1.3, L2.4 and L2.5 read u and v at n - m < 0
    @example(p=RATIONAL_W, m=24, n=1, q=24)
    @example(p=P_STAR, m=5, n=2, q=3)
    def test_reports_equal_the_fraction_sides(self, p: Params, m: int, n: int, q: int) -> None:
        values = {"m": m, "n": n, "pp": m, "q": q}
        for check, reference, sub, names in CONVERTED:
            args = (*(() if sub is None else (sub,)), *(values[name] for name in names))
            try:
                lhs, rhs = reference(p, *args)
                expected: tuple = (lhs, rhs, True)
            except DegenerateParametersError as exc:
                expected = type(exc), str(exc)
            try:
                report = check(p, *args)
                got: tuple = (report.lhs, report.rhs, report.passed)
            except DegenerateParametersError as exc:
                got = type(exc), str(exc)
            assert got == expected, (check.__name__, sub, args)
        if m > n:
            pt = _tables(p)
            assert pt.u._mirror is not None
            assert (pt.v._mirror is not None) == (discriminant(p) != 0)

    @pytest.mark.parametrize("sub", range(1, 8))
    def test_zero_discriminant_still_raises(self, sub: int) -> None:
        assert discriminant(DEGENERATE) == 0
        with pytest.raises(DegenerateParametersError, match="discriminant is zero"):
            check_uv_identity(DEGENERATE, sub, 2, 3)


class TestPartialSums:
    def test_constants_worked(self) -> None:
        sc1 = sum_constants(P_STAR, 1)
        assert (sc1.d_printed, sc1.d_corrected) == (-11, -11)
        sc2 = sum_constants(P_STAR, 2)
        assert (sc2.d_printed, sc2.d_corrected) == (-6, -11)

    def test_corrected_constant_is_the_determinant(self) -> None:
        rng = random.Random(113)
        checked = 0
        while checked < 20:
            p = random_params(rng)
            if p.a * p.b * (p.a * p.b + 4 * p.c) == 0:
                continue
            checked += 1
            k = build(MatrixTag.K, p)
            for m in range(1, 6):
                expected = mat_det(Mat2.identity() - mat_pow(k, m))
                assert sum_constants(p, m).d_corrected == expected

    def test_oracle_worked_values(self) -> None:
        assert sum_oracle(P_STAR, 1, 1, 0) == (1, 8)
        assert sum_oracle(P_STAR, 2, 1, 0) == (6, 50)

    def test_three_way_agreement(self) -> None:
        rng = random.Random(127)
        checked = 0
        while checked < 12:
            p = random_params(rng)
            if p.a * p.b * (p.a * p.b + 4 * p.c) == 0:
                continue
            try:
                for m in range(1, 5):
                    for n in range(0, 5):
                        for r in range(0, 3):
                            direct = sum_direct(p, m, n, r)
                            assert sum_oracle(p, m, n, r) == direct
                            assert sum_closed(p, m, n, r) == direct
            except SingularSeriesError:
                continue
            checked += 1

    def test_printed_form_disagrees_at_worked_points(self) -> None:
        printed = sum_closed(P_STAR, 2, 1, 0, corrected=False)
        assert printed is not None and printed[0] == Fraction(323, 6)
        printed = sum_closed(P_STAR, 1, 1, 0, corrected=False)
        assert printed is not None and printed[0] == Fraction(-1, 11)

    def test_report_carries_printed_comparison(self) -> None:
        _tables.cache_clear()
        r = check_partial_sum(P_STAR, 2, 1, 0, seq="u")
        assert r.passed
        assert r.printed_form_value == Fraction(323, 6)
        assert r.printed_form_matches is False
        assert check_partial_sum(P_STAR, 2, 1, 0, seq="v").passed
        # at r < m no closed form reads an index below 0, so no mirror table is built
        assert _tables(P_STAR).u._mirror is None and _tables(P_STAR).v._mirror is None

    def test_report_v_sum(self) -> None:
        r = check_partial_sum(P_STAR, 1, 1, 0, seq="v")
        assert r.passed and r.lhs == 8

    def test_degenerate_rejected(self) -> None:
        with pytest.raises(DegenerateParametersError):
            sum_oracle(DEGENERATE, 1, 1, 0)

    def test_singular_series_rejected(self) -> None:
        assert sum_constants(SINGULAR_SUM, 1).d_corrected == 0
        with pytest.raises(SingularSeriesError):
            sum_oracle(SINGULAR_SUM, 1, 2, 0)
        with pytest.raises(SingularSeriesError):
            sum_closed(SINGULAR_SUM, 1, 2, 0)


    @given(
        abc=st.tuples(nonzero_rationals, nonzero_rationals, nonzero_rationals),
        e=st.integers(0, 40),
    )
    def test_pair_power_is_the_power_of_k(
        self, abc: tuple[Fraction, Fraction, Fraction], e: int
    ) -> None:
        p = Params(*abc)
        assume(discriminant(p) != 0)
        scale, g, delta = _k_algebra(p)
        assert delta == scale * scale * discriminant(p)
        x, y = _pair_pow(g, 1, e, delta)
        denom = (2 * scale) ** e
        as_matrix = Mat2.identity().scaled(Fraction(x, denom)) + build(MatrixTag.H, p).scaled(
            Fraction(y * scale, denom)
        )
        assert as_matrix == mat_pow(build(MatrixTag.K, p), e)

    @given(
        abc=st.tuples(grid_nonzero, grid_nonzero, grid_nonzero),
        m=st.integers(1, 24),
        n=st.integers(0, 24),
        r=st.integers(0, 24),
    )
    @example(abc=(DEGENERATE.a, DEGENERATE.b, DEGENERATE.c), m=1, n=1, r=0)
    @example(abc=(SINGULAR_SUM.a, SINGULAR_SUM.b, SINGULAR_SUM.c), m=1, n=2, r=0)
    @example(abc=(Fraction(1, 2), Fraction(3), Fraction(-2, 5)), m=24, n=24, r=24)
    def test_oracle_equals_the_matrix_series(
        self, abc: tuple[Fraction, Fraction, Fraction], m: int, n: int, r: int
    ) -> None:
        p = Params(*abc)

        def outcome(oracle) -> object:
            try:
                return oracle(p, m, n, r)
            except (DegenerateParametersError, SingularSeriesError) as exc:
                return type(exc), str(exc)

        assert outcome(sum_oracle) == outcome(matrix_series_oracle)

    @given(
        abc=st.tuples(grid_nonzero, grid_nonzero, grid_nonzero),
        m=st.integers(1, 24),
        n=st.integers(0, 24),
        r=st.integers(0, 24),
    )
    @example(abc=(DEGENERATE.a, DEGENERATE.b, DEGENERATE.c), m=1, n=1, r=0)
    @example(abc=(SINGULAR_SUM.a, SINGULAR_SUM.b, SINGULAR_SUM.c), m=1, n=2, r=0)
    @example(abc=(PRINTED_ZERO.a, PRINTED_ZERO.b, PRINTED_ZERO.c), m=2, n=3, r=1)
    @example(abc=(Fraction(1, 2), Fraction(3), Fraction(-2, 5)), m=24, n=24, r=3)
    # n = 0 and r = 0: a read at t = 0, top - m = r, and r - m < 0 in one case
    @example(abc=(Fraction(1, 2), Fraction(3), Fraction(-2, 5)), m=5, n=0, r=0)
    @example(abc=(P_STAR.a, P_STAR.b, P_STAR.c), m=1, n=0, r=0)
    # a < 0, so y's denominator carries a negative factor; at n = 0,
    # top = r + m and each closed form reads that index twice
    @example(abc=(Fraction(-5, 3), Fraction(-5, 4), Fraction(1)), m=1, n=0, r=0)
    @example(abc=(Fraction(-5, 3), Fraction(-5, 4), Fraction(1)), m=3, n=0, r=2)
    def test_int_sums_equal_the_fraction_sums(
        self, abc: tuple[Fraction, Fraction, Fraction], m: int, n: int, r: int
    ) -> None:
        p = Params(*abc)
        u, v = TermTable(p, SequenceKind.U), TermTable(p, SequenceKind.V)

        def outcome(form, *args) -> object:
            try:
                return form(*args)
            except SingularSeriesError as exc:
                return type(exc), str(exc)

        assert sum_direct(p, m, n, r) == (
            fraction_direct_sum(p, u, -1, m, n, r),
            fraction_direct_sum(p, v, 0, m, n, r),
        )
        assert sum_constants(p, m) == fraction_sum_constants(p, m)
        for corrected in (True, False):
            assert outcome(sum_closed, p, m, n, r, corrected) == outcome(
                fraction_sum_closed, p, m, n, r, corrected
            )

    @given(p=grid_points)
    @example(p=Params(Fraction(-5, 3), Fraction(-5, 4), 1))
    def test_y_sum_denominator_is_positive(self, p: Params) -> None:
        for seq, ys in zip("uv", _Point(p).ys):
            for t in range(25):
                assert _y_sum(ys, [(t, 1)])[1] > 0, (seq, t)
            assert _y_sum(ys, [(t, -1) for t in range(25)])[1] > 0, seq

    @given(abc=st.tuples(grid_nonzero, grid_nonzero, grid_nonzero))
    @example(abc=(DEGENERATE.a, DEGENERATE.b, DEGENERATE.c))
    def test_weighted_terms_are_entries_of_the_powers_of_k(
        self, abc: tuple[Fraction, Fraction, Fraction]
    ) -> None:
        # y(t), the term the sums add at t, is 2K^t[2,1] for u and 2K^t[1,1] for v
        p = Params(*abc)
        k = build(MatrixTag.K, p)
        for ys, entry in zip(_Point(p).ys, ("m21", "m11")):
            for t in range(25):
                y = _y_sum(ys, [(t, 1)])
                assert Fraction(*y) == 2 * getattr(mat_pow(k, t), entry), (entry, t)

    @given(p=grid_points)
    @example(p=P_STAR)
    @example(p=DEGENERATE)
    @example(p=RATIONAL_W)
    def test_y_tables_are_the_weighted_terms(self, p: Params) -> None:
        # y_u and y_v, kinds U and V at (ab, ab, abc), against the weight of
        # their definition times the naive walk, and A^n from y_u's terms
        y_u, y_v = _Point(p).ys
        ab, abc = p.a * p.b, p.a * p.b * p.c
        for ys, kind, shift in ((y_u, SequenceKind.U, -1), (y_v, SequenceKind.V, 0)):
            for t in range(60):
                weight = ab ** (t // 2) * p.a ** (zeta(t) + shift)
                assert ys[t] == weight * term_naive(p, kind, t), (kind, t)
        a = build(MatrixTag.A, p)
        for n in range(1, 30):
            expected = Mat2(y_u[n + 1], abc * y_u[n], y_u[n], abc * y_u[n - 1])
            assert mat_pow(a, n) == expected, n

    def test_closed_sums_read_each_sum_once(self, monkeypatch: pytest.MonkeyPatch) -> None:
        # tr(K^m) is one table read; then sum_closed sums only the requested
        # form for u and for v, and the check its direct sum and its two forms
        calls = []

        def counted(*args):
            calls.append(args)
            return _y_sum(*args)

        monkeypatch.setattr(identities, "_y_sum", counted)
        for corrected in (True, False):
            calls.clear()
            sum_closed(P_STAR, 2, 3, 1, corrected)
            assert len(calls) == 2, corrected
        calls.clear()
        check_partial_sum(P_STAR, 2, 3, 1, "u")
        assert len(calls) == 3

    @pytest.mark.parametrize("seq", ["u", "v"])
    def test_check_picks_from_the_pair_forms(self, seq: str) -> None:
        pick = 0 if seq == "u" else 1
        rng = random.Random(149)
        cases = [(PRINTED_ZERO, 2, 3, 1), (P_STAR, 2, 1, 0), (P_STAR, 3, 4, 2)]
        cases += [
            (random_params(rng), rng.randint(1, 6), rng.randint(0, 6), rng.randint(0, 6))
            for _ in range(20)
        ]
        checked = 0
        for p, m, n, r in cases:
            try:
                oracle = sum_oracle(p, m, n, r)[pick]
            except (DegenerateParametersError, SingularSeriesError):
                continue
            direct = sum_direct(p, m, n, r)[pick]
            closed = sum_closed(p, m, n, r)[pick]
            printed = sum_closed(p, m, n, r, corrected=False)
            printed_value = None if printed is None else printed[pick]
            report = check_partial_sum(p, m, n, r, seq)
            assert (report.lhs, report.rhs, report.printed_form_value, report.passed) == (
                direct,
                closed,
                printed_value,
                direct == oracle == closed,
            )
            checked += 1
        assert checked >= 15
        assert check_partial_sum(PRINTED_ZERO, 2, 3, 1, seq).printed_form_value is None


class TestBinomialTransform:
    def test_delta_weights_worked(self) -> None:
        assert delta_weight(P_STAR, 2, 1, 1, 0) == 6
        assert delta_weight(P_STAR, 2, 1, 1, 1) == 9

    def test_reconstructs_u3(self) -> None:
        r = check_binomial(P_STAR, 2, 1, 1, seq="u")
        assert r.passed and r.lhs == 7

    def test_reconstructs_u4(self) -> None:
        r = check_binomial(P_STAR, 2, 0, 4, seq="u")
        assert r.passed and r.lhs == 16

    def test_collapses_at_n_zero(self) -> None:
        rng = random.Random(131)
        for _ in range(15):
            p = random_params(rng)
            for r_idx in range(0, 5):
                rep = check_binomial(p, 3, 0, r_idx, seq="u")
                assert rep.passed and rep.lhs == rep.rhs

    def test_v_variant(self) -> None:
        rng = random.Random(137)
        for _ in range(15):
            p = random_params(rng)
            m = rng.randint(2, 5)
            rep = check_binomial(p, m, rng.randint(0, 4), rng.randint(0, 3), seq="v")
            assert rep.passed

    def test_u_random(self) -> None:
        rng = random.Random(139)
        for _ in range(25):
            p = random_params(rng)
            rep = check_binomial(p, rng.randint(2, 6), rng.randint(0, 4), rng.randint(0, 4), seq="u")
            assert rep.passed

    @given(
        abc=st.tuples(*[st.fractions(-4, 4, max_denominator=6).filter(bool)] * 3),
        m=st.integers(2, 7),
        n=st.integers(0, 8),
        r=st.integers(0, 5),
        seq=st.sampled_from(["u", "v"]),
    )
    @example(abc=(DEGENERATE.a, DEGENERATE.b, DEGENERATE.c), m=3, n=4, r=2, seq="u")
    @example(abc=(DEGENERATE.a, DEGENERATE.b, DEGENERATE.c), m=2, n=5, r=1, seq="v")
    @example(abc=(Fraction(1, 2), Fraction(3), Fraction(-2, 5)), m=4, n=0, r=3, seq="u")
    @example(abc=(Fraction(1, 2), Fraction(3), Fraction(-2, 5)), m=24, n=24, r=5, seq="u")
    @example(abc=(Fraction(1, 2), Fraction(3), Fraction(-2, 5)), m=24, n=24, r=5, seq="v")
    def test_carried_sum_matches_the_per_summand_formula(
        self, abc: tuple[Fraction, Fraction, Fraction], m: int, n: int, r: int, seq: str
    ) -> None:
        p = Params(*abc)
        kind = SequenceKind.U if seq == "u" else SequenceKind.V
        u_m, u_prev = term_naive(p, SequenceKind.U, m), term_naive(p, SequenceKind.U, m - 1)
        total = sum(
            math.comb(n, i)
            * rat_pow(p.c, n - i)
            * rat_pow(u_m, i)
            * rat_pow(u_prev, n - i)
            * term_naive(p, kind, i + r)
            * delta_weight(p, m, n, r, i)
            for i in range(n + 1)
        )
        target = m * n + r
        prefactor = rat_pow(p.a, 1 - zeta(target)) / rat_pow(p.a * p.b, target // 2)
        assert check_binomial(p, m, n, r, seq).rhs == prefactor * total

    def test_m_below_two_rejected(self) -> None:
        with pytest.raises(ValueError):
            check_binomial(P_STAR, 1, 1, 0, seq="u")


class TestRunSuite:
    def test_default_config_zero_failures(self) -> None:
        summary = run_suite(SuiteConfig(samples=20, seed=9))
        assert summary.failed == 0
        assert summary.passed > 0

    def test_deterministic(self) -> None:
        cfg = SuiteConfig(samples=10, seed=4)
        first = json.dumps(run_suite(cfg).to_dict(), sort_keys=True)
        second = json.dumps(run_suite(cfg).to_dict(), sort_keys=True)
        assert first == second

    def test_different_seeds_differ(self) -> None:
        one = run_suite(SuiteConfig(samples=10, seed=1)).to_dict()
        two = run_suite(SuiteConfig(samples=10, seed=2)).to_dict()
        assert one != two

    def test_checkers_are_looked_up_at_each_call(self, monkeypatch: pytest.MonkeyPatch) -> None:
        # a tracer swaps wrappers over the module attributes before run_suite
        config = SuiteConfig(samples=5, seed=8, max_index=6)
        plain = run_suite(config)
        calls: dict[str, int] = {}

        def counting(name: str):
            real = getattr(identities, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("check_cassini", "check_uv_identity"):
            monkeypatch.setattr(identities, name, counting(name))
        wrapped = run_suite(config)
        assert calls == {"check_cassini": 5, "check_uv_identity": 7 * 5}
        assert wrapped.results == plain.results and wrapped.skipped == plain.skipped
        assert wrapped.to_dict() == plain.to_dict()

    def test_results_in_family_order(self) -> None:
        summary = run_suite(SuiteConfig(samples=4, seed=5))
        keys = [r.id.sort_key for r in summary.results]
        assert keys == sorted(keys)

    def test_sample_order_within_each_identity(self) -> None:
        # the sort by identity alone must keep each identity's reports and
        # skips in the order of the samples that made them
        points = (P_STAR, DEGENERATE, RATIONAL_W)
        summary = run_suite(SuiteConfig(samples=7, seed=6, params=points))
        skipped_at: dict[IdentityId, list[int]] = {}
        for record in summary.skipped:
            skipped_at.setdefault(record.id, []).append(record.sample)
        ran_at: dict[IdentityId, list[Params]] = {}
        for report in summary.results:
            ran_at.setdefault(report.id, []).append(report.params)
        assert skipped_at  # the degenerate point skips L2 and SUM
        for ident in ran_at.keys() | skipped_at.keys():
            skips = skipped_at.get(ident, [])
            assert skips == sorted(skips), ident
            expected = [points[s % 3] for s in range(7) if s not in skips]
            assert ran_at.get(ident, []) == expected, ident

    def test_family_subset(self) -> None:
        summary = run_suite(SuiteConfig(families=(Family.CASSINI_W,), samples=6, seed=3))
        assert {r.id.family for r in summary.results} == {Family.CASSINI_W}
        assert summary.passed == 6

    def test_pinned_degenerate_params_skip_cleanly(self) -> None:
        summary = run_suite(SuiteConfig(samples=3, seed=1, params=(DEGENERATE,)))
        assert summary.failed == 0
        skipped_families = {r.id.family for r in summary.skipped}
        assert Family.L2 in skipped_families and Family.SUM in skipped_families
        ran_families = {r.id.family for r in summary.results}
        assert Family.L1 in ran_families and Family.ADDITION in ran_families
        for record in summary.skipped:
            if record.id.family is Family.L2:
                assert "discriminant" in record.reason

    def test_pinned_singular_sum_skips(self) -> None:
        summary = run_suite(
            SuiteConfig(families=(Family.SUM,), samples=3, seed=2, params=(SINGULAR_SUM,))
        )
        assert summary.failed == 0
        assert any("zero for this m" in r.reason for r in summary.skipped)

    def test_to_dict_shape(self) -> None:
        payload = run_suite(SuiteConfig(families=(Family.T34,), samples=2, seed=0)).to_dict()
        assert payload["suite"] == "T34"
        assert payload["failed"] == 0
        assert len(payload["results"]) == 2
        row = payload["results"][0]
        assert {"id", "params", "indices", "lhs", "rhs", "pass"} <= set(row)

    def test_to_dict_renders_values_past_the_digit_limit(self) -> None:
        report = check_binomial(Params(Fraction(1, 2), 3, Fraction(-2, 5), 1, 1), 128, 128, 5, "u")
        assert report.passed
        payload = report.to_dict()
        num_text, den_text = payload["lhs"].split("/")
        assert len(num_text) > 4300 and len(den_text) > 4300
        assert payload["rhs"] == payload["lhs"]

        def parse(digits: str) -> int:  # chunks stay below any int<->str limit
            sign, digits = (-1, digits[1:]) if digits.startswith("-") else (1, digits)
            value = 0
            for start in range(0, len(digits), 1000):
                chunk = digits[start : start + 1000]
                value = value * 10 ** len(chunk) + int(chunk)
            return sign * value

        assert parse(num_text) == report.lhs.numerator
        assert parse(den_text) == report.lhs.denominator
        tiny_a = Params(Fraction(1, 10**5000), 1, 1)
        skip = SkipRecord(IdentityId(Family.L2, 1), 0, "reason", tiny_a)
        assert skip.to_dict()["params"]["a"] == "1/1" + "0" * 5000

    def test_records_of_one_point_share_one_params_dict(self) -> None:
        points = (P_STAR, DEGENERATE, RATIONAL_W)
        summary = run_suite(SuiteConfig(samples=7, seed=6, params=points))
        payload = summary.to_dict()
        assert payload["skipped"]
        records = [*summary.results, *summary.skipped]
        rows = [*payload["results"], *payload["skipped"]]
        shared: dict[int, dict] = {}
        for record, row in zip(records, rows, strict=True):
            # each record renders the same payload on its own
            assert row == record.to_dict()
            assert shared.setdefault(id(record.params), row["params"]) is row["params"]
        assert len(shared) == len(points)
        assert len({id(text) for text in shared.values()}) == len(points)

    def test_invalid_samples_rejected(self) -> None:
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(samples=0))

    @pytest.mark.parametrize(
        ("config", "message"),
        [(SuiteConfig(families=()), "families"), (SuiteConfig(params=()), "params")],
        ids=["no-families", "no-params"],
    )
    def test_a_run_that_checks_or_pins_nothing_is_refused(
        self, config: SuiteConfig, message: str
    ) -> None:
        with pytest.raises(ValueError, match=message):
            run_suite(config)

    @given(seed=st.integers(0, 2**16))
    def test_any_seed_passes_small_run(self, seed: int) -> None:
        summary = run_suite(SuiteConfig(samples=2, seed=seed, max_index=6))
        assert summary.failed == 0


def generated_repr(obj: object) -> str:
    """The ``repr()`` a plain dataclass of the same name and fields gives ``obj``."""
    names = [f.name for f in dataclasses.fields(obj)]
    mirror = dataclasses.make_dataclass(type(obj).__name__, names)
    return repr(mirror(*(getattr(obj, name) for name in names)))


class TestRepr:
    def test_small_point_pinned(self) -> None:
        p = Params(Fraction(1, 2), 3, Fraction(-2, 5), 1, 1)
        assert repr(p) == (
            "Params(a=Fraction(1, 2), b=Fraction(3, 1), c=Fraction(-2, 5), "
            "w0=Fraction(1, 1), w1=Fraction(1, 1))"
        )
        report = check_cassini(p, 2)
        assert repr(report) == generated_repr(report)

    def test_values_past_the_digit_limit(self) -> None:
        report = check_binomial(Params(Fraction(1, 2), 3, Fraction(-2, 5), 1, 1), 128, 128, 5, "u")
        tiny_a = Params(Fraction(1, 10**5000), 1, 1)
        skip = SkipRecord(IdentityId(Family.L2, 1), 0, "reason", tiny_a)
        shown = repr(report), repr(skip)
        assert "a=Fraction(1, 1" + "0" * 5000 + ")" in shown[1]
        with no_digit_limit():
            assert shown == (generated_repr(report), generated_repr(skip))

    def test_matrix_constants_and_notation_past_the_digit_limit(self) -> None:
        big = Fraction(1, 10**5000)
        matrix = Mat2(big, 1, 1, 1)
        constants = sum_constants(Params(Fraction(1, 2), 3, Fraction(-2, 5), 1, 1), 20000)
        shown = repr(matrix), table_notation(Params(big, 1, 1)), repr(constants)
        with no_digit_limit():
            assert shown == (
                generated_repr(matrix),
                f"w(0,1;{big},1,1)",
                generated_repr(constants),
            )
