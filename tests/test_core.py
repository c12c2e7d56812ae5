from __future__ import annotations

import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biperiodic import identities
from biperiodic.core import (
    DegenerateParametersError,
    Params,
    SequenceKind,
    TermTable,
    _integer_point,
    _IntegerPoint,
    _reflected_point,
    _scale,
    _term,
    chi,
    discriminant,
    initial_pair,
    reflect_u,
    reflect_v,
    reflect_w,
    reflected,
    table_notation,
    term_naive,
    term_range,
    zeta,
)
from biperiodic.fastpath import term_fast
from biperiodic.matforms import build
from biperiodic.oracles import negative_term, v_from_u, w_from_u
from conftest import P_STAR, random_params

U, V, W = SequenceKind.U, SequenceKind.V, SequenceKind.W

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero = rationals.filter(lambda x: x != 0)
points = st.builds(Params, nonzero, nonzero, nonzero, rationals, rationals)
# Denominators that share factors, so the lcm of a point's denominators is
# smaller than their product.
shared_denominators = st.sampled_from([1, 2, 3, 4, 6, 9, 10, 12, 15, 18, 30])
shared_rationals = st.builds(Fraction, st.integers(-30, 30), shared_denominators)
shared_nonzero = shared_rationals.filter(lambda x: x != 0)
shared_points = st.builds(
    Params, shared_nonzero, shared_nonzero, shared_nonzero, shared_rationals, shared_rationals
)


class TestParams:
    def test_coercion(self) -> None:
        p = Params("1/2", 3, Fraction(1), 0, "4")
        assert p.a == Fraction(1, 2) and p.w1 == 4

    @pytest.mark.parametrize("field", ["a", "b", "c"])
    def test_zero_coefficient_rejected(self, field: str) -> None:
        kwargs = {"a": 1, "b": 1, "c": 1, field: 0}
        with pytest.raises(ValueError):
            Params(**kwargs)

    def test_zero_initials_allowed(self) -> None:
        assert Params(1, 1, 1, 0, 0).w0 == 0

    def test_float_rejected(self) -> None:
        with pytest.raises(TypeError):
            Params(1.5, 1, 1)

    def test_notation(self) -> None:
        assert table_notation(P_STAR) == "w(1,1;2,3,1)"
        assert table_notation(Params(1, 1, 2, 0, 1)) == "w(0,1;1,1,2)"


class TestParity:
    @given(n=st.integers(-1000, 1000))
    def test_zeta_is_parity(self, n: int) -> None:
        assert zeta(n) in (0, 1)
        assert zeta(n) == zeta(n + 2)

    def test_zeta_negative(self) -> None:
        assert zeta(-3) == 1 and zeta(-4) == 0

    @given(n=st.integers(-100, 100))
    def test_chi_alternates(self, n: int) -> None:
        expected = P_STAR.a if n % 2 == 0 else P_STAR.b
        assert chi(P_STAR, n) == expected


# frozen expected tables at P*, computed by hand from the two-term recurrence
EXPECTED_U = [Fraction(x) for x in (0, 1, 2, 7, 16, 55, 126)]
EXPECTED_V = [Fraction(x) for x in (2, 3, 8, 27, 62, 213, 488)]
EXPECTED_W = [Fraction(x) for x in (1, 1, 3, 10, 23, 79, 181)]


class TestTermNaive:
    @pytest.mark.parametrize(
        ("kind", "table"), [(U, EXPECTED_U), (V, EXPECTED_V), (W, EXPECTED_W)]
    )
    def test_forward_tables(self, kind: SequenceKind, table: list[Fraction]) -> None:
        got = [term_naive(P_STAR, kind, n) for n in range(len(table))]
        assert got == table

    def test_initials(self) -> None:
        assert initial_pair(P_STAR, U) == (0, 1)
        assert initial_pair(P_STAR, V) == (2, 3)
        assert initial_pair(P_STAR, W) == (1, 1)

    def test_negative_spots(self) -> None:
        assert term_naive(P_STAR, W, -1) == -2
        assert term_naive(P_STAR, U, -2) == -2
        assert term_naive(P_STAR, V, -1) == -3

    def test_recurrence_holds_forward_and_backward(self) -> None:
        rng = random.Random(41)
        for _ in range(10):
            p = random_params(rng)
            for kind in SequenceKind:
                run = term_range(p, kind, -30, 60)
                terms = dict(zip(range(-30, 61), run))
                for n in range(-28, 61):
                    assert terms[n] == chi(p, n) * terms[n - 1] + p.c * terms[n - 2]

    def test_backward_step_recovers_w0(self) -> None:
        # one reverse application of the recurrence undoes one forward step
        rng = random.Random(43)
        for _ in range(30):
            p = random_params(rng)
            w1, w2 = term_naive(p, W, 1), term_naive(p, W, 2)
            assert (w2 - chi(p, 2) * w1) / p.c == p.w0

    def test_classical_fibonacci_specialization(self) -> None:
        fib = [0, 1]
        while len(fib) < 30:
            fib.append(fib[-1] + fib[-2])
        p = Params(1, 1, 1)
        assert term_range(p, U, 0, 29) == fib

    def test_counter_two_muls_per_step(self) -> None:
        from biperiodic.exact import OpCounter

        counter = OpCounter()
        term_naive(P_STAR, U, 10, counter)
        assert counter.muls == 2 * 9

    def test_range_matches_pointwise(self) -> None:
        lo, hi = -5, 12
        run = term_range(P_STAR, W, lo, hi)
        assert run == [term_naive(P_STAR, W, n) for n in range(lo, hi + 1)]

    def test_range_singleton(self) -> None:
        assert term_range(P_STAR, U, 0, 0) == [0]

    def test_range_reversed_rejected(self) -> None:
        with pytest.raises(ValueError):
            term_range(P_STAR, U, 3, 1)


class TestDiscriminant:
    def test_at_p_star(self) -> None:
        assert discriminant(P_STAR) == 60

    def test_degenerate_point(self) -> None:
        # ab(ab + 4c) = 0 when c = -ab/4
        assert discriminant(Params(1, 1, Fraction(-1, 4))) == 0


def least_multiplier(*values: Fraction) -> int:
    """The least positive int k that makes k x an integer for every x, by trial."""
    return next(
        k for k in count(1) if all(k * x.numerator % x.denominator == 0 for x in values)
    )


class TestReflections:
    """Negative indices via the closed reflection laws."""

    def test_u_reflection_table(self) -> None:
        for n in range(1, 10):
            u_n = term_naive(P_STAR, U, n)
            assert reflect_u(P_STAR, n, u_n) == term_naive(P_STAR, U, -n)

    def test_v_reflection_table(self) -> None:
        for n in range(1, 10):
            v_n = term_naive(P_STAR, V, n)
            assert reflect_v(P_STAR, n, v_n) == term_naive(P_STAR, V, -n)

    def test_w_reflection_table(self) -> None:
        for n in range(1, 10):
            u_n = term_naive(P_STAR, U, n)
            u_next = term_naive(P_STAR, U, n + 1)
            assert reflect_w(P_STAR, n, u_n, u_next) == term_naive(P_STAR, W, -n)

    def test_reflections_random_params(self) -> None:
        rng = random.Random(17)
        for _ in range(30):
            p = random_params(rng)
            for n in range(1, 8):
                assert negative_term(p, U, n) == term_naive(p, U, -n)
                assert negative_term(p, V, n) == term_naive(p, V, -n)
                assert negative_term(p, W, n) == term_naive(p, W, -n)

    def test_nonpositive_index_rejected(self) -> None:
        with pytest.raises(ValueError):
            reflect_u(P_STAR, 0, Fraction(0))
        with pytest.raises(ValueError):
            negative_term(P_STAR, W, -1)

    @settings(max_examples=40)
    @given(p=points, kind=st.sampled_from(SequenceKind), k=st.integers(0, 64))
    def test_reflected_point(self, p: Params, kind: SequenceKind, k: int) -> None:
        # the reflected point's W-sequence runs the given sequence backward,
        # and reflecting it again gives back the point with its initial pair
        mirror = reflected(p, kind)
        assert reflected(mirror, W) == Params(p.a, p.b, p.c, *initial_pair(p, kind))
        assert TermTable(mirror, W)[k] == term_naive(p, kind, -k)

    @settings(max_examples=300)
    @given(p=st.one_of(points, shared_points), kind=st.sampled_from(SequenceKind))
    # c < 0 with |numerator| > 1
    @example(p=Params("1/2", 3, "-2/5", "1/3", 2), kind=W)
    @example(p=Params(6, "9/4", "-10/3", "1/3", 2), kind=V)
    # x1 - b x0 = 0, so the reflected x1 is 0
    @example(p=Params(2, 3, 5, 1, 3), kind=W)
    @example(p=Params("1/2", "-3/4", "-6", "4/5", "-3/5"), kind=W)
    # w0 and w1 with denominators coprime to those of a, b and c
    @example(p=Params("1/2", "3/5", "-4/3", "2/7", "5/11"), kind=W)
    def test_reflected_integer_point(self, p: Params, kind: SequenceKind) -> None:
        # the int derivation is the integer point of the stated reflection
        got, want = _reflected_point(p, kind), _integer_point(reflected(p, kind), W)
        for slot in _IntegerPoint.__slots__:
            assert getattr(got, slot) == getattr(want, slot), slot
            assert type(getattr(got, slot)) is int, slot

    @settings(max_examples=200, deadline=None)
    @given(p=st.one_of(points, shared_points))
    # mu = 5 and mu = 12, so U's start carries a factor mu > 1
    @example(p=Params("1/2", 3, "-2/5", "1/3", 2))
    @example(p=Params(6, "9/4", "-10/3", "1/3", 2))
    # b = 1 and lam c = 1, so mu = 1, not lcm(den b, den c) = 2
    @example(p=Params("1/2", 1, "1/2", 0, 0))
    # every gcd that reduces the reflected point is above 1
    @example(p=Params("4/9", "4/3", "-2/3", "1/3", 2))
    def test_integer_point_contract(self, p: Params) -> None:
        # lam = den a, mu and M are the least ints that make the point and its
        # start integers, and every field is the stated multiple
        for kind in SequenceKind:
            for pt, q in (
                (_integer_point(p, kind), Params(p.a, p.b, p.c, *initial_pair(p, kind))),
                (_reflected_point(p, kind), reflected(p, kind)),
            ):
                lam, mu, m = pt.lam, pt.mu, pt.m
                assert lam == q.a.denominator, kind
                assert mu == least_multiplier(q.b, lam * q.c), kind
                assert m == least_multiplier(q.w0, mu * q.w1), kind
                want = (lam * q.a, mu * q.b, lam * mu * q.c, m * q.w0, m * mu * q.w1)
                assert (pt.a, pt.b, pt.c, pt.x0, pt.x1) == want, kind
                for slot in _IntegerPoint.__slots__:
                    assert type(getattr(pt, slot)) is int, (kind, slot)

    @pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda kind: kind.value)
    def test_mirror_table_at_the_rational_point(self, kind: SequenceKind) -> None:
        p = Params("1/2", 3, "-2/5", "1/3", 2)
        table = TermTable(p, kind)
        for k in range(-1, -41, -1):
            assert table[k] == term_naive(p, kind, k), k


class TestKindBridges:
    """w and v rebuilt from the u-sequence."""

    def test_w_from_u_spots(self) -> None:
        for n in range(1, 12):
            assert w_from_u(P_STAR, n) == term_naive(P_STAR, W, n)

    def test_v_from_u_spots(self) -> None:
        for n in range(1, 12):
            assert v_from_u(P_STAR, n) == term_naive(P_STAR, V, n)

    def test_bridges_random_params(self) -> None:
        rng = random.Random(23)
        for _ in range(20):
            p = random_params(rng)
            for n in range(1, 8):
                assert w_from_u(p, n) == term_naive(p, W, n)
                assert v_from_u(p, n) == term_naive(p, V, n)

    def test_bridges_and_reflection_wide_sweep(self) -> None:
        # 100 parameter sets, indices up to 50
        rng = random.Random(29)
        for _ in range(100):
            p = random_params(rng)
            n = rng.randint(1, 50)
            assert w_from_u(p, n) == term_naive(p, W, n)
            assert v_from_u(p, n) == term_naive(p, V, n)
            assert negative_term(p, U, n) == term_naive(p, U, -n)


def check_outcome(check, p: Params, args: tuple):
    """A checker's report, or the type of the precondition error it raised."""
    try:
        return check(p, *args)
    except (DegenerateParametersError, identities.SingularSeriesError) as exc:
        return type(exc)


# one call per table-reading checker; several reach negative indices
MEMO_CHECKS = (
    (identities.check_u_identity, (3, 9, 5)),
    (identities.check_uv_identity, (4, 6, 2)),
    (identities.check_partial_sum, (3, 4, 2, "v")),
    (identities.check_binomial, (3, 4, 5, "u")),
    (identities.check_catalan, (4, 3, 5)),
    (identities.check_square_difference, (7,)),
)


class TestTermTable:
    """The lazily extended table against the oracle, and the identities memo."""

    @settings(max_examples=20)
    @given(p=points, order=st.permutations(range(-64, 65)))
    def test_lookups_in_any_order_match_naive(self, p: Params, order: list[int]) -> None:
        for kind in SequenceKind:
            table = TermTable(p, kind)
            for n in order:
                assert table[n] == term_naive(p, kind, n)

    @settings(max_examples=20)
    @given(p=points, order=st.permutations(range(-64, 65)))
    def test_pairs_are_the_terms(self, p: Params, order: list[int]) -> None:
        for kind in SequenceKind:
            table = TermTable(p, kind)
            # the fast routes divide by the same scale, at the same point
            point, mirror = _integer_point(p, kind), _integer_point(reflected(p, kind), W)
            pairs = {}
            for k in order:
                num, den = pairs[k] = table.pair(k)
                assert den > 0 and Fraction(num, den) == table[k] == term_naive(p, kind, k)
                assert den == (_scale(point, k) if k >= 0 else _scale(mirror, -k))
            # upward denominators divide upward, by the factor pair_sum applies
            for k in range(64):
                assert pairs[k + 1][1] % pairs[k][1] == 0

    @pytest.mark.parametrize(
        "p",
        [Params(1, 1, 1, 0, 1), P_STAR, Params("1/2", 3, "-2/5", "1/3", 2)],
        ids=["fibonacci", "pstar", "rational"],
    )
    def test_carried_scale_is_the_scale(self, p: Params) -> None:
        for kind in SequenceKind:
            point, mirror = _integer_point(p, kind), _integer_point(reflected(p, kind), W)
            table = TermTable(p, kind)
            for k in range(201):
                assert table.pair(k)[1] == _scale(point, k), (kind, k)
            for k in range(1, 201):
                assert table.pair(-k)[1] == _scale(mirror, k), (kind, -k)
        # the rational point's W initial pair has a denominator M > 1
        assert _integer_point(Params("1/2", 3, "-2/5", "1/3", 2), W).m > 1

    @settings(max_examples=15, deadline=None)
    @given(p=shared_points, picks=st.lists(st.integers(-64, 700), max_size=6))
    def test_integer_walk_matches_naive(self, p: Params, picks: list[int]) -> None:
        # the walk to 700 comes first, so the later reads below it build
        # their terms from the stored numerators
        for kind in SequenceKind:
            table = TermTable(p, kind)
            for n in (700, *picks, -64, 1, 0):
                assert table[n] == term_naive(p, kind, n)

    def test_shared_tables_under_threads(self) -> None:
        # more threads than cores walk each fresh table at once, each thread
        # in its own order, so extensions of one table overlap
        p = Params("1/2", 3, "-2/5", "1/3", 2)
        tables = [TermTable(p, W) for _ in range(40)]
        rng = random.Random(53)
        orders = [rng.sample(range(-64, 65), 129) for _ in range(8)]
        seen: list[list[list[Fraction]]] = [[] for _ in orders]
        barrier = threading.Barrier(len(orders), timeout=10)

        def walk(order: list[int], out: list[list[Fraction]]) -> None:
            for table in tables:
                barrier.wait()
                out.append([table[n] for n in order])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk, args=pair) for pair in zip(orders, seen)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        for order, out in zip(orders, seen):
            assert out == [[term_naive(p, W, n) for n in order]] * len(tables)

    def test_walked_table_holds_little_beyond_its_numerators(self) -> None:
        # a walked table keeps x'(k) and what a dict needs to hold it; a
        # scale stored per index would about double the bytes
        p = Params("1/2", 3, "-2/5", "1/3", 2)
        for kind in SequenceKind:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                table = TermTable(p, kind)
                table.pair(4000)
                traced = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            numerators = sum(sys.getsizeof(table.pair(k)[0]) for k in range(4001))
            assert traced <= 1.5 * numerators, (kind, traced, numerators)

    @settings(max_examples=15)
    @given(p=points, q=points)
    def test_memo_keeps_points_apart(self, p: Params, q: Params) -> None:
        fresh = {}
        for point in (p, q):
            for check, args in MEMO_CHECKS:
                identities._tables.cache_clear()
                fresh[point, check] = check_outcome(check, point, args)
        for check, args in MEMO_CHECKS:
            for point in (p, q):
                assert check_outcome(check, point, args) == fresh[point, check]


@st.composite
def ascending_terms(draw: st.DrawFn) -> list[tuple[int, int]]:
    """(k, coef) pairs, k ascending in 0..200 by strides 0..5, so an index may repeat.

    The coefficients include 0, 1 and -1 and ints up to 2^64 of either sign.
    """
    k, terms = draw(st.integers(0, 200)), []
    coefs = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(2**64), 2**64))
    for stride in draw(st.lists(st.integers(0, 5), max_size=60)):
        if k > 200:
            break
        terms.append((k, draw(coefs)))
        k += stride
    return terms


FIXED_POINTS = [Params(1, 1, 1, 0, 1), P_STAR, Params("1/2", 3, "-2/5", "1/3", 2)]
# every third index with a 0 coefficient among them, and 7, 7, 8 for a
# repeat and strides of 0 and 1
STRIDED = sorted([(k, k % 5 - 2) for k in range(0, 201, 3)] + [(7, -4), (7, 0), (8, 1)])


class TestPairSum:
    """``TermTable.pair_sum`` against the exact sum of the terms it adds."""

    @settings(max_examples=40)
    @given(p=points, terms=ascending_terms())
    @example(p=FIXED_POINTS[0], terms=STRIDED)
    @example(p=FIXED_POINTS[1], terms=STRIDED)
    @example(p=FIXED_POINTS[2], terms=STRIDED)
    @example(p=FIXED_POINTS[2], terms=[(3, 1), (4, -1), (9, 2)])
    def test_matches_the_fraction_sum(self, p: Params, terms: list[tuple[int, int]]) -> None:
        ab = p.a * p.b
        # the point itself and its y point (ab, ab, abc), whose tables SUM and BINOM sum
        for q in (p, Params(ab, ab, ab * p.c)):
            for kind in SequenceKind:
                table = TermTable(q, kind)
                num, den = table.pair_sum(terms)
                expected = sum((coef * table[k] for k, coef in terms), Fraction(0))
                assert Fraction(num, den) == expected, (q, kind)
                last = terms[-1][0] if terms else 0
                assert den == _scale(_integer_point(q, kind), last), (q, kind)

    @pytest.mark.parametrize("p", FIXED_POINTS, ids=["fibonacci", "pstar", "rational"])
    def test_one_term_is_the_pair(self, p: Params) -> None:
        for kind in SequenceKind:
            table = TermTable(p, kind)
            for k in range(61):
                assert table.pair_sum([(k, 1)]) == table.pair(k), (kind, k)

    @pytest.mark.parametrize("terms", [[(-1, 1)], [(3, 1), (2, 1)], [(0, 1), (2, 1), (-2, 1)]])
    def test_a_negative_or_descending_index_raises(self, terms: list[tuple[int, int]]) -> None:
        with pytest.raises(ValueError, match="ascending"):
            TermTable(P_STAR, U).pair_sum(terms)


class TestScale:
    """``_scale`` builds M lam^floor(k/2) mu^ceil(k/2) from the odd part of lam mu
    and a shift."""

    @pytest.mark.parametrize(
        ("p", "kinds", "lam_mu", "m"),
        [
            (Params(1, 1, 1, 0, 1), list(SequenceKind), (1, 1), 1),
            (Params("1/3", 5, 1), list(SequenceKind), (3, 3), 1),
            # lam mu is a power of two at the reflected point
            (Params("1/2", 3, "-2/5", "1/3", 2), [W], (10, 8), 3),
        ],
        ids=["fibonacci", "odd", "rational"],
    )
    def test_matches_the_rule_written_out(
        self, p: Params, kinds: list[SequenceKind], lam_mu: tuple[int, int], m: int
    ) -> None:
        for kind in kinds:
            for pt, product in zip((_integer_point(p, kind), _reflected_point(p, kind)), lam_mu):
                assert (pt.lam * pt.mu, pt.m) == (product, m), kind
                for k in (*range(201), *(2**16 + j for j in range(4))):
                    rule = pt.m * pt.lam ** (k // 2) * pt.mu ** ((k + 1) // 2)
                    assert _scale(pt, k) == rule, (kind, k)


@st.composite
def scaled_numerators(draw: st.DrawFn) -> tuple[_IntegerPoint, int, int]:
    """A point's scale data, an index k >= 0 and a numerator to reduce over its scale.

    Half of the numerators are lam^e mu^f q with e, f up to 64, so a common
    factor is often a high prime power.
    """
    lam, mu, m = draw(st.integers(1, 36)), draw(st.integers(1, 36)), draw(st.integers(1, 144))
    k = draw(st.integers(0, 160))
    plain = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(2**300), 2**300))
    powers = st.builds(
        lambda e, f, q: lam**e * mu**f * q,
        st.integers(0, 64), st.integers(0, 64), st.integers(-(10**6), 10**6),
    )
    return _IntegerPoint(lam, mu, m, 1, 1, 1, 0, 1), k, draw(st.one_of(plain, powers))


class TestTerm:
    """``_term`` reduces a numerator over its scale to lowest terms."""

    @given(case=scaled_numerators())
    def test_matches_public_constructor(self, case: tuple[_IntegerPoint, int, int]) -> None:
        pt, k, numer = case
        built, public = _term(pt, numer, k), Fraction(numer, _scale(pt, k))
        assert (built.numerator, built.denominator) == (public.numerator, public.denominator)
        assert built == public and hash(built) == hash(public)


FIBONACCI = Params(1, 1, 1)


@pytest.mark.parametrize(
    ("call", "expected"),
    [
        (lambda: initial_pair(P_STAR, "w"), "SequenceKind"),
        (lambda: term_naive(P_STAR, "v", 5), "SequenceKind"),
        (lambda: TermTable(P_STAR, "v"), "SequenceKind"),
        (lambda: term_fast(P_STAR, "v", -5), "SequenceKind"),
        (lambda: negative_term(P_STAR, "v", 3), "SequenceKind"),
        (lambda: term_fast(FIBONACCI, U, 30, "matrix"), "Method"),
        (lambda: term_fast(FIBONACCI, U, 30, "bogus"), "Method"),
        (lambda: build("U", P_STAR), "MatrixTag"),
        (lambda: identities.run_suite(identities.SuiteConfig(families=("L1",))), "Family"),
    ],
    ids=["initial_pair", "term_naive", "TermTable", "term_fast-reflected", "negative_term",
         "term_fast-method", "term_fast-bogus", "build", "run_suite"],
)
def test_a_value_that_is_not_a_member_raises(call, expected: str) -> None:
    # each if-chain tests its last member too, so no stray value runs as it
    with pytest.raises(TypeError, match=expected):
        call()
