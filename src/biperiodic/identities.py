"""Exact verification of the sequence identities.

Every check evaluates both sides of one identity at a concrete parameter
point and index tuple, entirely in rational arithmetic, and reports exact
structural equality.  There is no tolerance anywhere.

Families:

==========  =================================================================
L1.1-L1.4   quadratic, addition, subtraction, and convolution identities of
            the u-sequence alone
L2.1-L2.7   mixed u/v identities; require a nonzero discriminant
SUM.u/.v    weighted partial sums along an arithmetic index progression,
            checked three ways: direct summation, the matrix geometric
            series (evaluated on pairs of ints in the algebra that K
            generates), and the scalar closed form with the
            determinant-derived constant.  A simplified variant of the
            constant (the "printed form", which drops the (ab)^floor(m/2)
            weight and flips one sign) is evaluated alongside for comparison
            only: its mismatches are expected and reported as warnings,
            never failures.
BINOM.u/.v  binomial expansion of the term at index mn+r in powers of u(m)
            and u(m-1)
CASSINI_W   Cassini-style quadratic for w
ADDITION    w(n+q) decomposed through u(n), u(n-1)
CATALAN     Catalan-style product difference for w
PRODSUM     product-sum symmetry for w
COR31       sum-of-squares specialization of PRODSUM at m = n+1
T34         difference-of-squares companion of COR31
==========  =================================================================

``run_suite`` samples parameter points and index tuples deterministically
from a seed and runs any subset of the families, recording skips whenever a
precondition (nonzero discriminant, nonzero series constant) fails.  One
table keyed by :class:`Family` declares each family once: its checker, the
keyword that takes its sub-identity (``sub`` for L1/L2, ``seq`` for
SUM/BINOM), its sub-identities, and the least value of each index in draw
order.  Each index is drawn from its least value up to ``max_index``; the
parameters come from a fixed grid, numerators in [-5, 5] and denominators in
[1, 5].  Each call turns that table into a run plan once, one entry per
(family, sub) with its checker, its index bounds, its keywords and one
shared :class:`IdentityId`, whose text is rendered once; a check then only
draws its indices and calls its checker.

The checkers read u, v and w terms from one :class:`~biperiodic.core.TermTable`
per sequence, held in a one-entry memo keyed by the parameter point.
``run_suite`` checks one point per sample, so every check of a sample reads
the same three tables, and each term is walked once per sample.  The three
tables come from one derivation of the point's integer point; only each
kind's start differs.  L1, L2 and the w families run on unreduced ratios
num/den of ints, den > 0: they read each term as its table's pair
(:meth:`~biperiodic.core.TermTable.pair`), built into a ratio on its first
read and shared by every later one, multiply and add with no gcd, decide
``passed`` by cross-multiplying the two sides, and reduce each side once for
the report.  The memo also holds the point's constants as such
ratios: a, b, c, w0, w1, b/a and a/b (the parity weights (b/a)^e and
(a/b)^e only take e = 0 or 1, so they are lookups), q = D/a^2 =
b^2 + 4c(b/a), zero exactly where the discriminant D is, and the w
invariant w1^2 - b w0 w1 - c (b/a) w0^2; and, for SUM and BINOM, ab = tr K
as a reduced ratio.  SUM and BINOM reduce each reported value once, too.
A point hashes its fields once, on the first lookup (see
:class:`~biperiodic.core.Params`).  The geometric series of
:func:`sum_oracle` stays independent of the tables, of the scalar closed
form and of the fast routes: it multiplies pairs of ints that stand for
elements of the algebra K generates, with its own helpers, and builds no
matrix.

A SUM check sums only its own sequence: one direct sum, and one corrected
and one printed closed form.  The pair-returning :func:`sum_direct` and
:func:`sum_closed` run the same per-sequence helpers for u and for v;
:func:`sum_closed` reads tr(K^m) once for both and evaluates only the form
it returns.  SUM and BINOM read one weighted term,
y(t) = (ab)^floor(t/2) a^(zeta(t)+s) x(t) with s = -1 for u and 0 for v,
which is 2K^t[2,1] for u and 2K^t[1,1] for v.  As tr K = ab and
det K = -abc, y(t+2) = ab y(t+1) + abc y(t): y_u and y_v are kinds U and V
at (ab, ab, abc), the sequences of the companion A of
:mod:`~biperiodic.matforms`, in two term tables built on a point's first
SUM or BINOM check.  Two facts about 2x2 matrices give both families.  By
Cayley-Hamilton, K^m = y_u(m) K + abc y_u(m-1) I, whose n-th power times K^r
is BINOM: y(mn+r) = sum_i C(n,i) y_u(m)^i (abc y_u(m-1))^(n-i) y(i+r).  The
adjugate is adj(X) = tr(X) I - X, so adj(I - K^m) = (1 - tr(K^m)) I + K^m,
with tr(K^m) = y_v(m), and the series (I - K^m)^-1 (K^r - K^top),
top = m(n+1) + r, is the corrected closed form

    ((1 - tr(K^m)) (y(r) - y(top)) + y(r+m) - y(top+m)) / det(I - K^m),

which reads y at t >= 0 only, with det(I - K^m) = 1 - tr(K^m) + (ab)^m (-c)^m.
:func:`_y_sum` adds int coef times y'(t) over ascending t >= 0, over the y
table's scale: the direct sum, each closed-form numerator and BINOM's
expansion are one such sum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple

from .core import DegenerateParametersError, Params, TermTable, _kind_tables, zeta
from .exact import Rational, dataclass_repr, to_text
from .exact import _coprime_fraction

__all__ = [
    "Family",
    "IdentityId",
    "IdentityReport",
    "SumConstants",
    "SingularSeriesError",
    "SuiteConfig",
    "SkipRecord",
    "SuiteSummary",
    "check_u_identity",
    "check_uv_identity",
    "check_cassini",
    "check_addition",
    "check_catalan",
    "check_product_sum",
    "check_square_sum",
    "check_square_difference",
    "sum_constants",
    "sum_oracle",
    "sum_direct",
    "sum_closed",
    "check_partial_sum",
    "delta_weight",
    "check_binomial",
    "run_suite",
]


class SingularSeriesError(ValueError):
    """The partial-sum constant det(I - K^m) vanishes at this step length."""


class Family(Enum):
    L1 = "L1"
    L2 = "L2"
    SUM = "SUM"
    BINOM = "BINOM"
    CASSINI_W = "CASSINI_W"
    ADDITION = "ADDITION"
    CATALAN = "CATALAN"
    PRODSUM = "PRODSUM"
    COR31 = "COR31"
    T34 = "T34"


_FAMILY_ORDER = {f: i for i, f in enumerate(Family)}


@dataclass(frozen=True)
class IdentityId:
    """One verifiable identity: a family plus an optional sub-identity tag.

    Its text and its sort key are computed on first use and kept.
    """

    family: Family
    sub: int | str | None = None

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        if self.sub is None:
            return self.family.value
        return f"{self.family.value}.{self.sub}"

    @cached_property
    def sort_key(self) -> tuple[int, str]:
        return _FAMILY_ORDER[self.family], "" if self.sub is None else str(self.sub)


_IDS: dict[tuple[Family, int | str | None], IdentityId] = {}


def _identity(family: Family, sub: int | str | None = None) -> IdentityId:
    """The one shared id of (family, sub), so its text is rendered once."""
    ident = _IDS.get((family, sub))
    if ident is None:
        ident = _IDS[family, sub] = IdentityId(family, sub)
    return ident


def _params_dict(p: Params) -> dict[str, str]:
    return {name: to_text(getattr(p, name)) for name in ("a", "b", "c", "w0", "w1")}


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check at one parameter/index point.

    ``passed`` means exact equality of the sides (for SUM: three-way equality
    of direct sum, matrix oracle, and corrected closed form).
    ``printed_form_value`` is set for SUM only; ``printed_form_matches``
    compares it against the true sum ``lhs`` and is informational.
    """

    id: IdentityId
    params: Params
    indices: dict[str, int]
    lhs: Rational
    rhs: Rational
    passed: bool
    printed_form_value: Rational | None = None

    __repr__ = dataclass_repr

    @property
    def printed_form_matches(self) -> bool | None:
        """Whether the printed form equals the sum; None where it has no value."""
        if self.printed_form_value is None:
            return None
        return self.printed_form_value == self.lhs

    def to_dict(self) -> dict:
        return self._payload(_params_dict(self.params))

    def _payload(self, params: dict[str, str]) -> dict:
        payload: dict = {
            "id": self.id._text,
            "params": params,
            "indices": dict(self.indices),
            "lhs": to_text(self.lhs),
            "rhs": to_text(self.rhs),
            "pass": self.passed,
        }
        if self.printed_form_value is not None:
            payload["printed_form_value"] = to_text(self.printed_form_value)
        if self.printed_form_matches is not None:
            payload["printed_form_matches"] = self.printed_form_matches
        return payload


@dataclass(frozen=True)
class SumConstants:
    """The two normalizing constants of the partial-sum closed form.

    ``d_corrected`` equals det(I - K^m) and is the constant that actually
    normalizes the sum; ``d_printed`` is the simplified variant kept for
    comparison.
    """

    d_printed: Rational
    d_corrected: Rational

    __repr__ = dataclass_repr


class _Ratio:
    """num/den on ints, den > 0, never reduced: the arithmetic of the checkers.

    Ratios multiply by ratios and by ints, add, subtract, negate, divide by
    nonzero ratios and take powers e >= 0 on ints only; no gcd is taken and
    no ``Fraction`` is built until :func:`_reduced` reduces a value once.
    Every operation returns a new ratio and none changes one in place, so one
    ratio may be shared by every check that reads it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1) -> None:
        self.num, self.den = num, den

    def __mul__(self, other: _Ratio | int) -> _Ratio:
        if type(other) is int:
            return _Ratio(self.num * other, self.den)
        return _Ratio(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __add__(self, other: _Ratio) -> _Ratio:
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> _Ratio:
        return _Ratio(-self.num, self.den)

    def __sub__(self, other: _Ratio) -> _Ratio:
        return _Ratio(self.num * other.den - other.num * self.den, self.den * other.den)

    def __truediv__(self, other: _Ratio) -> _Ratio:
        sign = -1 if other.num < 0 else 1  # keeps den > 0
        return _Ratio(sign * self.num * other.den, sign * self.den * other.num)

    def __pow__(self, e: int) -> _Ratio:
        return _Ratio(self.num**e, self.den**e)


def _ratio(x: Rational) -> _Ratio:
    return _Ratio(x.numerator, x.denominator)


def _reduced(x: _Ratio) -> Rational:
    g = math.gcd(x.num, x.den)
    return _coprime_fraction(x.num // g, x.den // g)


class _Ratios(dict):
    """The terms of one table as ratios: ``xs[k]`` is the table's pair at k.

    The ratio at k is built on its first read and kept, so every check of
    a point shares it, and a later read is a plain dict lookup.  Two threads
    that race on one index each store an equal ratio.
    """

    __slots__ = ("pair",)

    def __init__(self, table: TermTable) -> None:
        self.pair = table.pair

    def __missing__(self, k: int) -> _Ratio:
        x = self[k] = _Ratio(*self.pair(k))
        return x


class _Point:
    """The term tables and the scalar constants of one parameter point.

    ``u``, ``v`` and ``w`` are the tables, built from one derivation of the
    point's integer point (:func:`~biperiodic.core._kind_tables`), and
    ``us``, ``vs`` and ``ws`` their terms as ratios.  The constants are those
    of the module docstring: ``ba[e]`` and ``ab[e]`` are (b/a)^e and (a/b)^e
    for e = 0 and 1, unreduced ratios of the numerators and denominators, and
    ``w_inv`` is the w invariant; ``tr_k`` is tr K = ab, reduced, since the
    powers of ab in SUM's constants and in BINOM's weight are built from it.
    ``ys`` holds the y tables of SUM and BINOM; L1, L2 and the w families
    never build them.
    """

    __slots__ = (
        "u", "v", "w", "us", "vs", "ws", "a", "b", "c", "w0", "w1", "ba", "ab", "q", "w_inv",
        "tr_k", "_ys",
    )

    def __init__(self, p: Params) -> None:
        self.u, self.v, self.w = _kind_tables(p)
        self.us, self.vs, self.ws = _Ratios(self.u), _Ratios(self.v), _Ratios(self.w)
        a, b, c, w0, w1 = (_ratio(x) for x in (p.a, p.b, p.c, p.w0, p.w1))
        self.a, self.b, self.c, self.w0, self.w1 = a, b, c, w0, w1
        one, ba = _Ratio(1), b / a
        self.ba, self.ab = (one, ba), (one, a / b)
        self.q = b * b + 4 * c * ba
        self.w_inv = w1 * w1 - b * w0 * w1 - c * ba * w0 * w0
        self.tr_k = _ratio(p.a * p.b)
        self._ys: tuple[TermTable, TermTable] | None = None

    @property
    def ys(self) -> tuple[TermTable, TermTable]:
        """(y_u, y_v), kinds U and V at (ab, ab, abc), built on the first read."""
        if self._ys is None:  # two threads that race here each build equal tables
            ab = _reduced(self.tr_k)
            self._ys = _kind_tables(Params(ab, ab, _reduced(self.tr_k * self.c)))[:2]
        return self._ys


@lru_cache(maxsize=1)
def _tables(p: Params) -> _Point:
    """The term tables and constants of the most recently checked point."""
    return _Point(p)


def _report(
    ident: IdentityId, p: Params, indices: dict[str, int], lhs: _Ratio, rhs: _Ratio
) -> IdentityReport:
    """The report of one check: ``passed`` by cross-multiplying the unreduced sides.

    Both dens are positive, so lhs = rhs exactly where lhs.num rhs.den =
    rhs.num lhs.den; each side is then reduced once for the report.
    """
    passed = lhs.num * rhs.den == rhs.num * lhs.den
    return IdentityReport(ident, p, indices, _reduced(lhs), _reduced(rhs), passed)


def check_u_identity(p: Params, sub: int, m: int, n: int) -> IdentityReport:
    """One of the four single-sequence identities of u (family L1).

    Sub-identity 1 uses only n; the others use m and n, both >= 1.
    """
    if sub not in (1, 2, 3, 4):
        raise ValueError(f"L1 has sub-identities 1..4, not {sub!r}")
    if n < 1 or (sub != 1 and m < 1):
        raise ValueError("indices must be >= 1")
    pt = _tables(p)
    u, ba = pt.us, pt.ba
    if sub == 1:
        lhs = pt.ab[zeta(n)] * u[n] ** 2 - pt.ab[zeta(n + 1)] * u[n - 1] * u[n + 1]
        rhs = pt.ab[1] * (-pt.c) ** (n - 1)
        return _report(_identity(Family.L1, sub), p, {"n": n}, lhs, rhs)
    if sub == 2:
        lhs = ba[zeta(m * n + n)] * u[m] * u[n + 1] + ba[zeta(m * n + m)] * pt.c * u[n] * u[m - 1]
        rhs = u[n + m]
    elif sub == 3:
        # exponents from comparing U^n (U^m)^-1 = U^(n-m) entrywise
        lhs = ba[zeta(m * n + m)] * u[n] * u[m + 1] - ba[zeta(m * n + n)] * u[m] * u[n + 1]
        rhs = (-pt.c) ** m * u[n - m]
    else:
        lhs = (
            ba[zeta(m * n + n)] * u[m] * u[n - m + 1]
            + pt.c * ba[zeta(m * n)] * u[m - 1] * u[n - m]
        )
        rhs = u[n]
    return _report(_identity(Family.L1, sub), p, {"m": m, "n": n}, lhs, rhs)


def check_uv_identity(p: Params, sub: int, m: int, n: int) -> IdentityReport:
    """One of the seven mixed u/v identities (family L2).

    All of them live in the generic case, so a zero discriminant raises
    :class:`DegenerateParametersError`.  Sub-identity 1 uses only n.
    """
    if sub not in (1, 2, 3, 4, 5, 6, 7):
        raise ValueError(f"L2 has sub-identities 1..7, not {sub!r}")
    if n < 1 or (sub != 1 and m < 1):
        raise ValueError("indices must be >= 1")
    pt = _tables(p)
    if pt.q.num == 0:
        raise DegenerateParametersError("discriminant is zero for these parameters")
    u, v, q = pt.us, pt.vs, pt.q
    if sub == 1:
        lhs = v[n] ** 2 - q * u[n] ** 2
        rhs = 4 * pt.ba[zeta(n)] * (-pt.c) ** n
        return _report(_identity(Family.L2, sub), p, {"n": n}, lhs, rhs)
    zz = zeta(n) * zeta(m)
    if sub == 2:
        lhs = v[m] * v[n] + q * u[m] * u[n]
        rhs = 2 * pt.ba[zz] * v[n + m]
    elif sub == 3:
        lhs = u[m] * v[n] + u[n] * v[m]
        rhs = 2 * pt.ba[zz] * u[n + m]
    elif sub == 4:
        lhs = v[m] * v[n] - q * u[m] * u[n]
        rhs = 2 * (-pt.c) ** m * pt.ba[zz] * v[n - m]
    elif sub == 5:
        lhs = u[n] * v[m] - u[m] * v[n]
        rhs = 2 * (-pt.c) ** m * pt.ba[zz] * u[n - m]
    elif sub == 6:
        lhs = v[n + m] + (-pt.c) ** m * v[n - m]
        rhs = pt.ab[zz] * v[m] * v[n]
    else:
        lhs = u[n + m] + (-pt.c) ** m * u[n - m]
        rhs = pt.ab[zz] * u[n] * v[m]
    return _report(_identity(Family.L2, sub), p, {"m": m, "n": n}, lhs, rhs)


def check_cassini(p: Params, n: int) -> IdentityReport:
    """Cassini-style quadratic for w at index n >= 1 (family CASSINI_W)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pt = _tables(p)
    w, ba = pt.ws, pt.ba
    lhs = ba[zeta(n)] * w[n - 1] * w[n + 1] - ba[zeta(n + 1)] * w[n] ** 2
    rhs = (-1) ** n * pt.c ** (n - 1) * pt.w_inv
    return _report(_identity(Family.CASSINI_W), p, {"n": n}, lhs, rhs)


def check_addition(p: Params, n: int, q: int) -> IdentityReport:
    """Index-addition rule w(n+q) = f(u(n), u(n-1), w(q), w(q+1)); n, q >= 1."""
    if n < 1 or q < 1:
        raise ValueError("indices must be >= 1")
    pt = _tables(p)
    u, w, ba = pt.us, pt.ws, pt.ba
    lhs = w[n + q]
    rhs = (
        ba[zeta(n + 1) * zeta(q)] * u[n] * w[q + 1]
        + pt.c * ba[zeta(n) * zeta(q + 1)] * u[n - 1] * w[q]
    )
    return _report(_identity(Family.ADDITION), p, {"n": n, "q": q}, lhs, rhs)


def check_catalan(p: Params, n: int, pp: int, q: int) -> IdentityReport:
    """Catalan-style product difference for w; all three indices >= 1."""
    if n < 1 or pp < 1 or q < 1:
        raise ValueError("indices must be >= 1")
    pt = _tables(p)
    u, w, ba = pt.us, pt.ws, pt.ba
    zpq = zeta(pp) * zeta(q)
    lhs = ba[zeta(n) * zpq] * w[n + pp] * w[n + q] - ba[zeta(n + 1) * zpq] * w[n] * w[n + pp + q]
    rhs = ba[zeta(n) * zeta(pp + 1) * zeta(q + 1)] * (-pt.c) ** n * u[pp] * u[q] * pt.w_inv
    return _report(_identity(Family.CATALAN), p, {"n": n, "pp": pp, "q": q}, lhs, rhs)


def check_product_sum(p: Params, m: int, n: int) -> IdentityReport:
    """Product-sum symmetry for w; m, n >= 1 (family PRODSUM)."""
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    pt = _tables(p)
    w, ba = pt.ws, pt.ba
    lhs = ba[zeta(m * n + n)] * w[n + 1] * w[m] + ba[zeta(m * n + m)] * pt.c * w[n] * w[m - 1]
    rhs = pt.w1 * w[m + n] + ba[zeta(m + n)] * pt.c * pt.w0 * w[m + n - 1]
    return _report(_identity(Family.PRODSUM), p, {"m": m, "n": n}, lhs, rhs)


def check_square_sum(p: Params, n: int) -> IdentityReport:
    """Sum-of-squares specialization of PRODSUM at m = n+1 (family COR31)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pt = _tables(p)
    w, ba = pt.ws, pt.ba
    lhs = ba[zeta(n)] * w[n + 1] ** 2 + ba[zeta(n + 1)] * pt.c * w[n] ** 2
    rhs = pt.w1 * w[2 * n + 1] + ba[1] * pt.c * pt.w0 * w[2 * n]
    return _report(_identity(Family.COR31), p, {"n": n}, lhs, rhs)


def check_square_difference(p: Params, n: int) -> IdentityReport:
    """Difference-of-squares companion of COR31; n >= 1 (family T34)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pt = _tables(p)
    w = pt.ws
    lhs = w[n + 1] ** 2 - pt.c * pt.c * w[n - 1] ** 2
    rhs = pt.a ** zeta(n) * pt.b ** zeta(n + 1) * (pt.w1 * w[2 * n] + pt.c * pt.w0 * w[2 * n - 1])
    return _report(_identity(Family.T34), p, {"n": n}, lhs, rhs)


def _constants(p: Params, m: int) -> tuple[_Ratio, _Ratio, _Ratio]:
    """(tr, corrected, printed): tr = tr(K^m) = y_v(m) and both constants from it.

    corrected = det(I - K^m) = 1 - tr + (ab)^m (-c)^m.  Since y_v(m) =
    (ab)^floor(m/2) a^z v(m), z = zeta(m), the printed constant of
    :func:`sum_constants` is 1 - tr / (ab)^floor(m/2) + (ab)^z (-c)^m.
    """
    pt = _tables(p)
    tr = _Ratio(*pt.ys[1].pair(m))
    c_m = (-pt.c) ** m
    corrected = _Ratio(1) - tr + pt.tr_k**m * c_m
    printed = _Ratio(1) - tr / pt.tr_k ** (m // 2) + pt.tr_k ** zeta(m) * c_m
    return tr, corrected, printed


def sum_constants(p: Params, m: int) -> SumConstants:
    """Both normalizing constants of the partial-sum closed form at step m.

    printed = 1 - a^z v(m) + (ab)^z (-c)^m and
    corrected = 1 - (ab)^floor(m/2) a^z v(m) + (-abc)^m, with z = zeta(m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _, corrected, printed = _constants(p, m)
    return SumConstants(_reduced(printed), _reduced(corrected))


def _validate_sum_indices(m: int, n: int, r: int) -> None:
    if m < 1 or n < 0 or r < 0:
        raise ValueError("partial sums need m >= 1, n >= 0, r >= 0")


def _k_algebra(p: Params) -> tuple[int, int, int]:
    """The integers (L, G, Delta) of K = (G + s)/(2L), where s = L*H and s^2 = Delta.

    L = lcm(den(ab), den(c)), G = L*ab and Delta = G^2 + 4*G*(L*c) = L^2 * D.
    """
    ab = p.a * p.b
    scale = math.lcm(ab.denominator, p.c.denominator)
    g = ab.numerator * (scale // ab.denominator)
    c = p.c.numerator * (scale // p.c.denominator)
    return scale, g, g * g + 4 * g * c


def _pair_mul(x1: int, y1: int, x2: int, y2: int, delta: int) -> tuple[int, int]:
    """(x1 + y1 s)(x2 + y2 s) with s^2 = delta."""
    return x1 * x2 + y1 * y2 * delta, x1 * y2 + x2 * y1


def _pair_pow(x: int, y: int, e: int, delta: int) -> tuple[int, int]:
    """(x + y s)^e with s^2 = delta, e >= 0, by left-to-right square-and-multiply."""
    rx, ry = 1, 0
    for bit in bin(e)[2:]:
        rx, ry = rx * rx + ry * ry * delta, 2 * rx * ry
        if bit == "1":
            rx, ry = _pair_mul(rx, ry, x, y, delta)
    return rx, ry


def sum_oracle(p: Params, m: int, n: int, r: int) -> tuple[Rational, Rational]:
    """Both weighted partial sums read off the matrix geometric series.

    Evaluates (I - K^m)^-1 (K^r - K^(m(n+1)+r)) exactly and doubles the
    (2,1) and (1,1) entries to obtain the u- and v-sums.  Requires a nonzero
    discriminant and a nonsingular I - K^m.

    The series is evaluated on pairs of ints in the commutative algebra that
    K generates.  H = [[0, D], [1, 0]] has H^2 = D*I, and K = (ab*I + H)/2.
    With the integers L, G and Delta of :func:`_k_algebra`,
    K = (G + sqrt(Delta))/(2L), where s = sqrt(Delta) stands for L*H: the
    pair (x, y) is x + y s, the matrix x*I + y*L*H, and pairs multiply as
    those matrices do.  So K^e = (x_e + y_e s)/(2L)^e with
    (x_e, y_e) = (G + s)^e.  With Q = (2L)^m, I - K^m = (A + B s)/Q for
    (A, B) = (Q - x_m, -y_m).  In place of a matrix inverse, its inverse is
    the conjugate over the norm, Q(A - B s)/N, where
    N = A^2 - B^2 Delta = Q^2 det(I - K^m); so N = 0 is the singular case.
    The sum is (X + Y s)/(N (2L)^(mn+r)) with
    X + Y s = (A - B s)(x_r + y_r s)(Q^(n+1) - (x_m + y_m s)^(n+1)), and its
    (2,1) and (1,1) entries are Y*L and X over that denominator.
    """
    _validate_sum_indices(m, n, r)
    scale, g, delta = _k_algebra(p)
    if delta == 0:
        raise DegenerateParametersError("discriminant is zero for these parameters")
    x_m, y_m = _pair_pow(g, 1, m, delta)
    q = (2 * scale) ** m
    res_x, res_y = q - x_m, -y_m
    norm = res_x * res_x - res_y * res_y * delta
    if norm == 0:
        raise SingularSeriesError("partial-sum constant det(I - K^m) is zero for this m")
    x_r, y_r = _pair_pow(g, 1, r, delta)
    x_top, y_top = _pair_pow(x_m, y_m, n + 1, delta)
    x, y = _pair_mul(res_x, -res_y, x_r, y_r, delta)
    x, y = _pair_mul(x, y, q ** (n + 1) - x_top, -y_top, delta)
    den = norm * (2 * scale) ** (m * n + r)
    return Fraction(2 * y * scale, den), Fraction(2 * x, den)


def _y_sum(ys: TermTable, terms: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of coef y(t) over (t, coef) in ascending t >= 0, as (num, den), den > 0.

    ``ys`` is a y table; its pair at t is (y'(t), scale(t)), and every scale
    is positive and divides the next (see
    :meth:`~biperiodic.core.TermTable.pair`), so the sum runs on ints over
    the scale of its last index.  An index may repeat.  The pair is not
    reduced.
    """
    num, den = 0, 1
    for t, coef in terms:
        y, y_den = ys.pair(t)
        num = num * (y_den // den) + coef * y
        den = y_den
    return num, den


def _direct_sum(ys: TermTable, m: int, n: int, r: int) -> _Ratio:
    """One weighted partial sum, y(r) + y(m + r) + ... + y(mn + r), unreduced."""
    return _Ratio(*_y_sum(ys, [(t, 1) for t in range(r, m * n + r + 1, m)]))


def _closed_sum(
    p: Params,
    ys: TermTable,
    m: int,
    n: int,
    r: int,
    constants: tuple[_Ratio, _Ratio, _Ratio],
    corrected: bool,
) -> Rational | None:
    """The corrected or the printed closed form of one partial sum, or None.

    ``constants`` is :func:`_constants` at m.  With tr(K^m) = t/one,
    (ab)^floor(m/2) = g/h and d the form's constant, the form is one
    :func:`_y_sum` on y(r), y(r+m), y(top), y(top+m): coefficients
    (one - t, one, t - one, -one) over one d, or (g one - h t, h one,
    -(g one + h t), h one) over g one d (see :func:`sum_closed`); None where
    d = 0.
    """
    tr, d_corrected, d_printed = constants
    t, one = tr.num, tr.den
    if corrected:
        coefs, under = (one - t, one, t - one, -one), d_corrected * one
    else:
        weight = _tables(p).tr_k ** (m // 2)
        g, h = weight.num, weight.den
        coefs = (g * one - h * t, h * one, -(g * one + h * t), h * one)
        under = d_printed * (g * one)
    if under.num == 0:
        return None
    top = m * n + m + r
    terms = list(zip((r, r + m, top, top + m), coefs))
    return _reduced(_Ratio(*_y_sum(ys, terms)) / under)


def sum_direct(p: Params, m: int, n: int, r: int) -> tuple[Rational, Rational]:
    """Both weighted partial sums by plain term-by-term addition.

    u-sum: sum over j = 0..n of (ab)^floor((mj+r)/2) a^(zeta(mj+r)-1) u(mj+r);
    the v-sum carries a^zeta(mj+r) instead.  Each sum is added on ints over
    one denominator and reduced once.
    """
    _validate_sum_indices(m, n, r)
    y_u, y_v = _tables(p).ys
    return _reduced(_direct_sum(y_u, m, n, r)), _reduced(_direct_sum(y_v, m, n, r))


def sum_closed(
    p: Params, m: int, n: int, r: int, corrected: bool = True
) -> tuple[Rational, Rational] | None:
    """Both partial sums from the scalar closed form.

    With ``corrected=True`` this is the adjugate form of the module
    docstring, which equals the true sums (a zero det(I - K^m) raises
    :class:`SingularSeriesError`).  With ``corrected=False`` it is the
    simplified variant (y(r) - k y(r-m) - y(top) - k y(top-m)) / d_printed,
    k = kappa / w, kappa = (-abc)^m and w = (ab)^floor(m/2); a zero
    ``d_printed`` returns None.  Its value is reached at indices t >= 0:
    adj(K^m) = kappa K^-m gives kappa y(t-m) = tr(K^m) y(t) - y(t+m), so w
    times its numerator is
    (w - tr(K^m)) y(r) + y(r+m) - (w + tr(K^m)) y(top) + y(top+m).
    """
    _validate_sum_indices(m, n, r)
    y_u, y_v = _tables(p).ys
    constants = _constants(p, m)
    u_sum = _closed_sum(p, y_u, m, n, r, constants, corrected)
    if u_sum is None:
        if corrected:
            raise SingularSeriesError("partial-sum constant det(I - K^m) is zero for this m")
        return None
    return u_sum, _closed_sum(p, y_v, m, n, r, constants, corrected)


def check_partial_sum(p: Params, m: int, n: int, r: int, seq: str = "u") -> IdentityReport:
    """Three-way check of one weighted partial sum (family SUM).

    ``passed`` requires the direct sum, the matrix-series oracle, and the
    corrected closed form to agree exactly.  The simplified-constant value
    rides along in ``printed_form_value`` and is compared informally.
    Only the sequence ``seq`` is summed, and tr(K^m), from which both
    constants come, is read once for both closed forms.
    """
    if seq not in ("u", "v"):
        raise ValueError(f"seq must be 'u' or 'v', not {seq!r}")
    _validate_sum_indices(m, n, r)
    oracle = sum_oracle(p, m, n, r)[0 if seq == "u" else 1]
    ys = _tables(p).ys[0 if seq == "u" else 1]
    direct = _reduced(_direct_sum(ys, m, n, r))
    # the oracle has raised SingularSeriesError where det(I - K^m) is zero
    constants = _constants(p, m)
    closed_value = _closed_sum(p, ys, m, n, r, constants, True)
    printed_value = _closed_sum(p, ys, m, n, r, constants, False)
    return IdentityReport(
        _identity(Family.SUM, seq),
        p,
        {"m": m, "n": n, "r": r},
        direct,
        closed_value,
        direct == oracle == closed_value,
        printed_value,
    )


def delta_weight(p: Params, m: int, n: int, r: int, i: int) -> Rational:
    """The parity bookkeeping weight of one binomial summand.

    (ab)^(floor((i+r)/2) + n*floor(m/2)) * a^(-zeta(m+1)*i - 1 + zeta(i+r))
    * b^(zeta(m)*(n-i)), defined for m >= 2 and 0 <= i <= n.  It is the
    reference for :func:`check_binomial`: with t = mn+r, the sum over i of
    comb(n, i) c^(n-i) u(m)^i u(m-1)^(n-i) x(i+r) times this weight is
    x(t) (ab)^floor(t/2) a^(zeta(t)-1).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n")
    e_ab = (i + r) // 2 + n * (m // 2)
    e_a = -zeta(m + 1) * i - 1 + zeta(i + r)
    e_b = zeta(m) * (n - i)
    return (p.a * p.b) ** e_ab * p.a ** e_a * p.b ** e_b


def check_binomial(p: Params, m: int, n: int, r: int, seq: str = "u") -> IdentityReport:
    """Binomial expansion of the term at index mn+r (family BINOM).

    The right side is the Cayley-Hamilton expansion of y(mn+r) in the module
    docstring, one :func:`_y_sum` with integer coefficients, over the weight
    (ab)^floor((mn+r)/2) a^e of y at mn+r, on ratios and reduced once; the
    two coefficients of K^m are each reduced once first, since their n-th
    powers scale the sum.  :func:`delta_weight` is the per-summand reference
    for it; m >= 2, n >= 0, r >= 0.
    """
    if seq not in ("u", "v"):
        raise ValueError(f"seq must be 'u' or 'v', not {seq!r}")
    if m < 2 or n < 0 or r < 0:
        raise ValueError("binomial expansion needs m >= 2, n >= 0, r >= 0")
    target = m * n + r
    pt = _tables(p)
    y_u, y_v = pt.ys
    xs, ys, shift = (pt.u, y_u, -1) if seq == "u" else (pt.v, y_v, 0)
    # the coefficients of K^m = y_u(m) K + abc y_u(m-1) I, each reduced once,
    # over one denominator d: their n-th powers scale every coefficient below
    head = y_u[m]
    tail = _reduced(pt.tr_k * pt.c * _Ratio(*y_u.pair(m - 1)))
    d = math.lcm(head.denominator, tail.denominator)
    heads = accumulate(repeat(head.numerator * (d // head.denominator), n), mul, initial=1)
    tails = list(accumulate(repeat(tail.numerator * (d // tail.denominator), n), mul, initial=1))
    terms = [(i + r, math.comb(n, i) * head_i * tails[n - i]) for i, head_i in enumerate(heads)]
    num, den = _y_sum(ys, terms)
    # the weight of y at the target, (ab)^floor(target/2) a^e with e in {-1, 0, 1}
    e = zeta(target) + shift
    weight = pt.tr_k ** (target // 2) * (pt.a**e if e >= 0 else _Ratio(1) / pt.a)
    lhs, rhs = xs[target], _reduced(_Ratio(num, den * d**n) / weight)
    return IdentityReport(
        _identity(Family.BINOM, seq), p, {"m": m, "n": n, "r": r}, lhs, rhs, lhs == rhs
    )


_GRID_BOUND = 5  # parameter draws: numerators in [-5, 5], denominators in [1, 5]


@dataclass(frozen=True)
class SuiteConfig:
    """Sampling plan for :func:`run_suite`.

    Parameters are drawn from the rational grid with numerators in [-5, 5]
    (nonzero for a, b, c) and denominators in [1, 5].  Each index is drawn
    from its family's least value up to ``max_index`` (or equal to that least
    value when it exceeds ``max_index``).  Passing ``params`` pins the
    parameter points (cycled through) instead of drawing them, which the index
    draws still follow deterministically.  An empty ``families`` or an empty
    ``params`` would check nothing or pin nothing, and :func:`run_suite`
    refuses both.
    """

    families: tuple[Family, ...] = tuple(Family)
    samples: int = 100
    seed: int = 0
    max_index: int = 8
    params: tuple[Params, ...] | None = None


@dataclass(frozen=True)
class SkipRecord:
    """One sub-identity skipped at one sample because a precondition failed."""

    id: IdentityId
    sample: int
    reason: str
    params: Params

    def to_dict(self) -> dict:
        return self._payload(_params_dict(self.params))

    def _payload(self, params: dict[str, str]) -> dict:
        return {"id": self.id._text, "sample": self.sample, "reason": self.reason, "params": params}


@dataclass
class SuiteSummary:
    """All reports and skips of one suite run, with aggregate counts."""

    families: tuple[Family, ...]
    seed: int
    samples: int
    results: list[IdentityReport] = field(default_factory=list)
    skipped: list[SkipRecord] = field(default_factory=list)
    passed: int = 0
    failed: int = 0

    def to_dict(self) -> dict:
        """The summary as plain data; the records of one point share one params dict.

        Each point's parameters are rendered once, keyed by the identity of
        its ``Params`` object: the records hold every such object alive
        while this runs, so no two of them share an id, and the lookup
        compares no ``Fraction``.
        """
        rendered: dict[int, dict[str, str]] = {}

        def params(p: Params) -> dict[str, str]:
            text = rendered.get(id(p))
            if text is None:
                text = rendered[id(p)] = _params_dict(p)
            return text

        return {
            "suite": "+".join(f.value for f in self.families),
            "seed": self.seed,
            "samples": self.samples,
            "results": [r._payload(params(r.params)) for r in self.results],
            "skipped": [s._payload(params(s.params)) for s in self.skipped],
            "passed": self.passed,
            "failed": self.failed,
        }


def _draw_params(rng: random.Random) -> Params:
    def nonzero() -> Fraction:
        num = 0
        while num == 0:
            num = rng.randint(-_GRID_BOUND, _GRID_BOUND)
        return Fraction(num, rng.randint(1, _GRID_BOUND))

    def any_value() -> Fraction:
        return Fraction(rng.randint(-_GRID_BOUND, _GRID_BOUND), rng.randint(1, _GRID_BOUND))

    return Params(nonzero(), nonzero(), nonzero(), any_value(), any_value())


class _Spec(NamedTuple):
    """How :func:`run_suite` samples and checks one family."""

    checker: str  # name of the module-level checker
    keyword: str | None  # the checker's keyword for the sub-identity, if it takes one
    subs: tuple[int | str | None, ...]
    floors: dict[str, int]  # least value of each index keyword, in draw order


# Checkers are named rather than bound and looked up at each run_suite call,
# so a wrapper set over a module attribute before the call sees its checks.
_FAMILIES: dict[Family, _Spec] = {
    Family.L1: _Spec("check_u_identity", "sub", (1, 2, 3, 4), {"m": 1, "n": 1}),
    Family.L2: _Spec("check_uv_identity", "sub", (1, 2, 3, 4, 5, 6, 7), {"m": 1, "n": 1}),
    Family.SUM: _Spec("check_partial_sum", "seq", ("u", "v"), {"m": 1, "n": 0, "r": 0}),
    Family.BINOM: _Spec("check_binomial", "seq", ("u", "v"), {"m": 2, "n": 0, "r": 0}),
    Family.CASSINI_W: _Spec("check_cassini", None, (None,), {"n": 1}),
    Family.ADDITION: _Spec("check_addition", None, (None,), {"n": 1, "q": 1}),
    Family.CATALAN: _Spec("check_catalan", None, (None,), {"n": 1, "pp": 1, "q": 1}),
    Family.PRODSUM: _Spec("check_product_sum", None, (None,), {"m": 1, "n": 1}),
    Family.COR31: _Spec("check_square_sum", None, (None,), {"n": 1}),
    Family.T34: _Spec("check_square_difference", None, (None,), {"n": 1}),
}


def run_suite(config: SuiteConfig) -> SuiteSummary:
    """Run the configured families over deterministically sampled points.

    A fixed seed reproduces the identical summary, byte for byte, because
    parameter and index draws happen in a fixed order and reports are sorted
    by identity, in sample order within each.  Precondition failures (zero
    discriminant, zero series constant) become skip records, never failures.
    A ``families`` entry that is not a :class:`Family` raises ``TypeError``;
    an empty ``families`` or ``params``, ``samples`` < 1 or ``max_index`` < 1
    raises ``ValueError``.

    The call first builds its run plan, one entry per (family, sub): the
    shared :class:`IdentityId`, the checker looked up by name, each index
    with its draw bounds, and the sub-identity's keywords.  A check then
    only draws its indices and calls its checker.
    """
    if not set(config.families) <= set(Family):
        raise TypeError(f"families must hold Family members: {', '.join(Family.__members__)}")
    if not config.families:
        raise ValueError("families must name at least one family")
    if config.params is not None and not config.params:
        raise ValueError("params, when given, must hold at least one point")
    if config.samples < 1:
        raise ValueError("samples must be >= 1")
    if config.max_index < 1:
        raise ValueError("max_index must be >= 1")
    families = tuple(f for f in Family if f in set(config.families))
    top, plan = config.max_index, []
    for family in families:
        spec = _FAMILIES[family]
        checker = globals()[spec.checker]
        bounds = tuple((name, least, max(least, top)) for name, least in spec.floors.items())
        for sub in spec.subs:
            keyword = {} if spec.keyword is None else {spec.keyword: sub}
            plan.append((_identity(family, sub), checker, bounds, keyword))
    rng = random.Random(config.seed)
    randint = rng.randint
    results: list[IdentityReport] = []
    skipped: list[SkipRecord] = []
    for sample in range(config.samples):
        if config.params:
            p = config.params[sample % len(config.params)]
        else:
            p = _draw_params(rng)
        for ident, checker, bounds, keyword in plan:
            idx = {name: randint(least, most) for name, least, most in bounds}
            try:
                results.append(checker(p, **idx, **keyword))
            except (DegenerateParametersError, SingularSeriesError) as exc:
                skipped.append(SkipRecord(ident, sample, str(exc), p))
    # stable sorts: within one identity the records stay in sample order
    results.sort(key=lambda rep: rep.id.sort_key)
    skipped.sort(key=lambda rec: rec.id.sort_key)
    passed = sum(1 for rep in results if rep.passed)
    return SuiteSummary(
        families,
        config.seed,
        config.samples,
        results,
        skipped,
        passed,
        len(results) - passed,
    )
