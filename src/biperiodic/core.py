"""Sequence parameters, parity coefficients, and the linear-time term engine.

The family computed throughout this package is the two-periodic second-order
recurrence

    w(n) = chi(n) * w(n-1) + c * w(n-2)      for n >= 2,

where the linear coefficient alternates with the parity of the index:
chi(n) = a when n is even, b when n is odd.  Running the recurrence backward
extends every sequence to negative indices:

    w(n) = (w(n+2) - chi(n+2) * w(n+1)) / c.

Three initial-value conventions are distinguished by :class:`SequenceKind`;
everything else about an instance lives in :class:`Params`.

This module is the slow, obviously-correct route: terms are produced by
stepping the recurrence |n| times.  The logarithmic-time routes in
:mod:`biperiodic.fastpath` are checked against it.  :func:`term_naive` walks
from the initial pair on every call, on ``Fraction`` values, in either
direction, and is the anchor; :class:`TermTable` keeps the terms it has
walked, so repeated lookups at one parameter point cost only the steps not
yet taken, and :func:`term_range` reads a fresh table index by index.  The
closed reflections ``reflect_*`` read no term: :mod:`biperiodic.oracles`
feeds them terms of :func:`term_naive`, the only route it reads terms by.

A table and both fast routes walk on Python ints at one integer point,
derived by ``_point`` alone, for a point and for its reflection alike.  With
lam = den a and mu = lcm(den b, den c / gcd(den c, lam)), (A, B, C) = (lam a,
mu b, lam mu c) are integers.  Every kind starts there as W does, from its
pair (x0, x1) of :func:`initial_pair`: x'(0) = M x0 and x'(1) = M mu x1,
where M is the least positive int that makes both integers (1 for U and V,
since mu b = B).  Then x' runs the recurrence at (A, B, C), and for every
k >= 0

    x(k) = x'(k) / (M lam^floor(k/2) mu^ceil(k/2)).

This scale, ``_scale``, is the denominator the terms carry, built in this
module only: a :class:`TermTable` stores x'(k) alone, and ``_term`` builds
the scale of k to make x(k) from x'(k), for a table and the fast routes
alike.  Every prime of it divides the small base lam mu M, so ``_term``
reduces over it by remainders and gcds against that base, without the
public constructor's general gcd, which is quadratic in the term size.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .exact import OpCounter, Rational, as_rational, dataclass_repr, rat_pow, to_text
from .exact import _coprime_fraction

__all__ = [
    "SequenceKind",
    "Params",
    "DegenerateParametersError",
    "chi",
    "zeta",
    "initial_pair",
    "table_notation",
    "discriminant",
    "reflected",
    "term_naive",
    "TermTable",
    "term_range",
    "reflect_u",
    "reflect_v",
    "reflect_w",
]


class DegenerateParametersError(ValueError):
    """A parameter point violates a nonzero-discriminant precondition."""


class SequenceKind(Enum):
    """Initial-value convention for a sequence instance.

    U starts (0, 1); V starts (2, b), where b is taken from the parameters;
    W starts at the explicit (w0, w1) pair carried by :class:`Params`.
    """

    U = "u"
    V = "v"
    W = "w"


@dataclass(frozen=True)
class Params:
    """Defining data (a, b, c, w0, w1) of one sequence instance.

    a, b, c must all be nonzero; w0, w1 are arbitrary and default to (0, 1).
    Degenerate combinations such as a zero discriminant are allowed here;
    the operations that cannot tolerate them reject them individually.

    The hash is the hash of the field tuple, computed on the first ``hash()``
    and kept, so a point used as a memo key hashes its five fields once.
    """

    a: Rational
    b: Rational
    c: Rational
    w0: Rational = Fraction(0)
    w1: Rational = Fraction(1)

    __repr__ = dataclass_repr

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "w0", "w1"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.a == 0 or self.b == 0 or self.c == 0:
            raise ValueError("parameters a, b, c must all be nonzero")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.a, self.b, self.c, self.w0, self.w1))


def table_notation(p: Params) -> str:
    """Compact display form ``w(w0,w1;a,b,c)`` of a parameter point."""
    return f"w({to_text(p.w0)},{to_text(p.w1)};{to_text(p.a)},{to_text(p.b)},{to_text(p.c)})"


def zeta(n: int) -> int:
    """Parity indicator: 0 for even n, 1 for odd n, for every integer n."""
    return n % 2


def chi(p: Params, n: int) -> Rational:
    """The alternating linear coefficient: a at even indices, b at odd ones."""
    return p.a if n % 2 == 0 else p.b


def _kind_error(kind: object) -> TypeError:
    return TypeError(f"kind must be a SequenceKind (U, V or W), not {kind!r}")


# the fixed initial terms of U and V, built once: every integer point starts
# from initial_pair, and a Fraction is immutable
_ZERO, _ONE, _TWO = Fraction(0), Fraction(1), Fraction(2)


def initial_pair(p: Params, kind: SequenceKind) -> tuple[Rational, Rational]:
    """Terms at indices 0 and 1 for the given initial-value convention.

    A ``kind`` that is not a :class:`SequenceKind` raises ``TypeError``.
    """
    if kind is SequenceKind.U:
        return _ZERO, _ONE
    if kind is SequenceKind.V:
        return _TWO, p.b
    if kind is SequenceKind.W:
        return p.w0, p.w1
    raise _kind_error(kind)


def discriminant(p: Params) -> Rational:
    """The quantity a^2 b^2 + 4abc separating the generic and degenerate cases."""
    ab = p.a * p.b
    return ab * ab + 4 * ab * p.c


def reflected(p: Params, kind: SequenceKind) -> Params:
    """The point whose W-sequence at index k is the given sequence at index -k.

    Read backward, w(n) = chi(n) w(n-1) + c w(n-2) is

        x(-k) = (-chi(k) / c) x(-k+1) + (1 / c) x(-k+2),

    the same family at (-a/c, -b/c, 1/c), started from x(0) and
    x(-1) = (x(1) - b x(0)) / c.  Reflecting that point again (as kind W)
    gives back (a, b, c, x(0), x(1)).
    """
    x0, x1 = initial_pair(p, kind)
    return Params(-p.a / p.c, -p.b / p.c, 1 / p.c, x0, (x1 - p.b * x0) / p.c)


def term_naive(
    p: Params, kind: SequenceKind, n: int, counter: OpCounter | None = None
) -> Rational:
    """Term at index n by stepping the recurrence |n| times.

    This is the oracle path: deliberately simple, linear time, used to anchor
    every faster route.  Negative indices run the recurrence backward, which
    divides by c at each step (c is nonzero by construction).
    """
    t0, t1 = initial_pair(p, kind)
    if n == 0:
        return t0
    if n > 0:
        prev, cur = t0, t1
        for k in range(2, n + 1):
            prev, cur = cur, chi(p, k) * cur + p.c * prev
            if counter is not None:
                counter.add(2)
        return cur
    lower, upper = t0, t1
    for k in range(-1, n - 1, -1):
        stepped = (upper - chi(p, k + 2) * lower) / p.c
        lower, upper = stepped, lower
        if counter is not None:
            counter.add(2)
    return lower


class _IntegerPoint:
    """The integer point (a, b, c) = (lam a, mu b, lam mu c) and one kind's start.

    (x0, x1) = (M x0, M mu x1) is the kind's initial pair scaled to ints,
    and m is M.  lam mu is also held split, once per point, as odd 2^shift
    with odd an odd int, so that ``_scale`` builds a power of lam mu with
    one ``pow`` of odd and one left shift.  A plain slotted class, because
    a dataclass adds about 3 ms to each import from source.
    """

    __slots__ = ("lam", "mu", "m", "a", "b", "c", "x0", "x1", "odd", "shift")

    def __init__(
        self, lam: int, mu: int, m: int, a: int, b: int, c: int, x0: int, x1: int
    ) -> None:
        self.lam, self.mu, self.m = lam, mu, m
        self.a, self.b, self.c = a, b, c
        self.x0, self.x1 = x0, x1
        lam_mu = lam * mu
        self.shift = (lam_mu & -lam_mu).bit_length() - 1
        self.odd = lam_mu >> self.shift


def _point(
    an: int, ad: int, bn: int, bd: int, cn: int, cd: int, x0n: int, x0d: int, x1n: int, x1d: int
) -> _IntegerPoint:
    """The integer point of (a, b, c) = (an/ad, bn/bd, cn/cd), started at (x0n/x0d, x1n/x1d).

    Every value is a reduced numerator and denominator, with denominator > 0.
    lam = ad and mu = lcm(bd, cd / gcd(cd, lam)) is the least positive int
    that makes B = mu b and C = lam mu c integers.  mu x1 is reduced by
    gcd(mu, x1d), and M = lcm(x0d, x1d') is the least positive int that
    makes x'(0) = M x0 and x'(1) = M mu x1 integers.
    """
    lam = ad
    mu = math.lcm(bd, cd // math.gcd(cd, lam))
    g = math.gcd(mu, x1d)
    x1n, x1d = mu // g * x1n, x1d // g
    m = math.lcm(x0d, x1d)
    b, c = bn * (mu // bd), cn * (lam * mu // cd)
    return _IntegerPoint(lam, mu, m, an, b, c, x0n * (m // x0d), x1n * (m // x1d))


def _integer_point(p: Params, kind: SequenceKind) -> _IntegerPoint:
    """The integer point of p, started from the initial pair of ``kind``."""
    x0, x1 = initial_pair(p, kind)
    a, b, c = p.a, p.b, p.c
    return _point(
        a.numerator, a.denominator, b.numerator, b.denominator, c.numerator, c.denominator,
        x0.numerator, x0.denominator, x1.numerator, x1.denominator,
    )


def _reflected_point(p: Params, kind: SequenceKind) -> _IntegerPoint:
    """``_integer_point(reflected(p, kind), W)``, from p's numerators and denominators.

    The reflected point (-a/c, -b/c, 1/c) with initial pair (x0, (x1 - b x0) / c)
    of :func:`reflected` is reduced here on ints, with c's sign moved into
    its numerator first: -a/c and -b/c by one pair of gcds each, 1/c as
    cd/cn, and the reflected x1 by one gcd.  No ``Fraction`` or ``Params``
    is built; :func:`_point` derives the integer point.
    """
    x0, x1 = initial_pair(p, kind)
    an, ad, bn, bd = p.a.numerator, p.a.denominator, p.b.numerator, p.b.denominator
    cn, cd = p.c.numerator, p.c.denominator
    if cn < 0:  # 1/c = cd/cn with cn > 0
        cn, cd = -cn, -cd
    g, h = math.gcd(an, cn), math.gcd(cd, ad)
    ran, rad = -(an // g) * (cd // h), ad // h * (cn // g)
    g, h = math.gcd(bn, cn), math.gcd(cd, bd)
    rbn, rbd = -(bn // g) * (cd // h), bd // h * (cn // g)
    # the reflected x1, (x1 - b x0) / c, in lowest terms
    x0n, x0d, x1n, x1d = x0.numerator, x0.denominator, x1.numerator, x1.denominator
    num, den = cd * (x1n * x0d * bd - bn * x0n * x1d), x1d * x0d * bd * cn
    g = math.gcd(num, den)
    return _point(ran, rad, rbn, rbd, cd, cn, x0n, x0d, num // g, den // g)


def _scale(pt: _IntegerPoint, k: int) -> int:
    """The denominator x'(k) carries at index k >= 0, so x(k) = x'(k) / _scale(pt, k).

    It is M lam^floor(k/2) mu^ceil(k/2): from odd to even k the scale gains
    a factor lam, and from even to odd a factor mu.  It is built as M (lam
    mu)^floor(k/2), times mu at odd k, with (lam mu)^h = odd^h 2^(shift h)
    from the split the point holds: one ``pow`` of the odd part and one left
    shift.  At (1/2, 3, -2/5), k = 2^16 + 171, that took 0.44 ms against
    0.69 ms for two ``pow``s and their product, and 3 us against 0.24 ms at
    its reflected point, where lam mu = 8 (Python 3.11).
    """
    h = k // 2
    return (pt.m * pt.mu ** (k % 2) * pt.odd**h) << (pt.shift * h)


def _term(pt: _IntegerPoint, numer: int, k: int) -> Rational:
    """x(k) in lowest terms from numer = x'(k), k >= 0, over den = ``_scale(pt, k)``.

    Every prime of den divides the small base lam mu M, so a common factor
    of numer and den is gcd(numer mod base, base, den mod base): remainders
    by a small int, linear in the operands, and no gcd of two large values.
    A common factor h is squared while its square still divides both, so a
    high power of it leaves in a few passes.
    """
    den = _scale(pt, k)
    base = pt.lam * pt.mu * pt.m
    h = math.gcd(numer % base, base, den % base)
    while h > 1:
        while numer % (square := h * h) == 0 and den % square == 0:
            h = square
        numer, den = numer // h, den // h
        h = math.gcd(numer % base, base, den % base)
    return _coprime_fraction(numer, den)


class TermTable:
    """Terms of one sequence at one parameter point, walked on demand.

    ``table[n]`` is the term at any integer n, ``table.pair(n)`` the term at
    n as an unreduced pair of ints and ``table.pair_sum(terms)`` a sum of
    terms as one.  A lookup past the walked window extends it by the
    forward step, so every term is computed once per table however often it
    is read.

    The walk runs upward on Python ints at the integer point (A, B, C) of
    the module docstring, from its initial pair:

        x'(k) = chi'(k) x'(k-1) + C x'(k-2),   chi'(k) = A at even k, B at odd k,

    has integer coefficients, so no step reduces a fraction.  The table
    stores x'(k) and nothing else, and a read builds the scale it needs.
    Index -k is index k of a mirror table, built on the first negative
    read, that holds only the integer point of kind W at the reflected
    point (see :func:`reflected`), derived on ints by ``_reflected_point``;
    reflecting twice gives back this point, so the mirror is only ever read
    at k >= 0.
    """

    def __init__(self, p: Params, kind: SequenceKind) -> None:
        self._walk_from(p, kind, _integer_point(p, kind))

    def _walk_from(self, p: Params | None, kind: SequenceKind, pt: _IntegerPoint) -> None:
        self.params, self.kind, self._point = p, kind, pt
        # x'(k) for 0 <= k < len(self._xs)
        self._xs = {0: pt.x0, 1: pt.x1}
        self._mirror: TermTable | None = None

    def __getitem__(self, key: int) -> Rational:
        if key < 0:
            return self._reflection()[-key]
        if key >= len(self._xs):
            self._extend_up(key)
        return _term(self._point, self._xs[key], key)

    def pair(self, k: int) -> tuple[int, int]:
        """The term at index k as the unreduced pair (N, den) of ints, den > 0.

        At k >= 0 it is (x'(k), ``_scale`` of k); index -k is the mirror's pair at k.
        """
        if k < 0:
            return self._reflection().pair(-k)
        if k >= len(self._xs):
            self._extend_up(k)
        return self._xs[k], _scale(self._point, k)

    def pair_sum(self, terms: Iterable[tuple[int, int]]) -> tuple[int, int]:
        """The sum of coef x(k) over (k, coef), k >= 0 ascending, as an unreduced (N, den).

        den is ``_scale`` of the last index, or of 0 with no terms, and an
        index may repeat.  From one index j to the next k the scale gains
        lam^(floor(k/2) - floor(j/2)) mu^(ceil(k/2) - ceil(j/2)), a small int
        that multiplies the running sum of the stored x'(j), so one scale is
        built, not one per term.  A negative or descending index raises
        ``ValueError``, as its factor would be a float.
        """
        pt, xs = self._point, self._xs
        num = j = 0
        for k, coef in terms:
            if k < j:
                raise ValueError(f"indices must be >= 0 and ascending, not {k} after {j}")
            if k >= len(xs):
                self._extend_up(k)
            num = num * (pt.lam ** (k // 2 - j // 2) * pt.mu ** ((k + 1) // 2 - (j + 1) // 2))
            num += coef * xs[k]
            j = k
        return num, _scale(pt, j)

    def _reflection(self) -> TermTable:
        mirror = self._mirror
        if mirror is None:
            # two threads may each build one; both hold equal values
            # a mirror has no Params: it is only read at k >= 0, so it never reflects
            mirror = object.__new__(TermTable)
            mirror._walk_from(None, SequenceKind.W, _reflected_point(self.params, self.kind))
            self._mirror = mirror
        return mirror

    def _extend_up(self, n: int) -> None:
        # Stores index k only after k - 1 is stored, so the indices held are
        # always 0..len - 1.  Two callers extending the same table at once
        # therefore only rewrite equal values.
        pt, xs = self._point, self._xs
        even, odd, c = pt.a, pt.b, pt.c
        hi = len(xs) - 1
        prev, cur = xs[hi - 1], xs[hi]
        for k in range(hi + 1, n + 1):
            prev, cur = cur, (odd if k % 2 else even) * cur + c * prev
            xs[k] = cur


def term_range(p: Params, kind: SequenceKind, lo: int, hi: int) -> list[Rational]:
    """Terms at indices lo..hi inclusive, in one upward walk per sign of index."""
    if lo > hi:
        raise ValueError(f"empty index range: {lo}..{hi}")
    table = TermTable(p, kind)
    return [table[k] for k in range(lo, hi + 1)]


def reflect_u(p: Params, n: int, u_n: Rational) -> Rational:
    """u(-n) from u(n) for n >= 1: u(-n) = (-1)^(n+1) u(n) / c^n."""
    if n < 1:
        raise ValueError("reflection is defined for n >= 1")
    sign = 1 if n % 2 else -1
    return sign * u_n / rat_pow(p.c, n)


def reflect_v(p: Params, n: int, v_n: Rational) -> Rational:
    """v(-n) from v(n) for n >= 1: v(-n) = (-1)^n v(n) / c^n."""
    if n < 1:
        raise ValueError("reflection is defined for n >= 1")
    sign = -1 if n % 2 else 1
    return sign * v_n / rat_pow(p.c, n)


def reflect_w(p: Params, n: int, u_n: Rational, u_next: Rational) -> Rational:
    """w(-n) from u(n), u(n+1) for n >= 1.

    (-c)^n w(-n) = (b/a)^zeta(n) w0 u(n+1) - w1 u(n).
    """
    if n < 1:
        raise ValueError("reflection is defined for n >= 1")
    ratio = p.b / p.a if zeta(n) else Fraction(1)
    return (ratio * p.w0 * u_next - p.w1 * u_n) / rat_pow(-p.c, n)
