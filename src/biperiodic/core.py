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
yet taken, and :func:`term_range` reads a fresh table index by index.

A table and both fast routes walk on Python ints at one integer point.  With
lam = den a and mu = lcm(den b, den c / gcd(den c, lam)), (A, B, C) = (lam a,
mu b, lam mu c) are integers.  Every kind starts there as W does, from its
pair (x0, x1) of :func:`initial_pair`: x'(0) = M x0 and x'(1) = M mu x1,
where M is the least positive int that makes both integers (1 for U and V,
since mu b = B).  Then x' runs the recurrence at (A, B, C), and for every
k >= 0

    x(k) = x'(k) / (M lam^floor(k/2) mu^ceil(k/2)).

This scale, ``_scale``, is the denominator the terms actually carry, and
each one divides the next.  It is stated there only: a :class:`TermTable`
stores x'(k) alone and computes the scale of an index when it is read, as
the fast routes do for the one index they jump to.  Every prime of it
divides the small base lam mu M, so ``_term`` reduces x'(k) over it by
remainders and gcds against that base, and builds the ``Fraction`` without
the public constructor's general gcd, which is quadratic in the term size.
"""

from __future__ import annotations

import math
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
    "w_from_u",
    "v_from_u",
    "reflect_u",
    "reflect_v",
    "reflect_w",
    "negative_term",
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
    and m is M, so the scale of index k is m lam^floor(k/2) mu^ceil(k/2).
    A plain slotted class, because a dataclass adds about 3 ms to each
    import from source.
    """

    __slots__ = ("lam", "mu", "m", "a", "b", "c", "x0", "x1")

    def __init__(
        self, lam: int, mu: int, m: int, a: int, b: int, c: int, x0: int, x1: int
    ) -> None:
        self.lam, self.mu, self.m = lam, mu, m
        self.a, self.b, self.c = a, b, c
        self.x0, self.x1 = x0, x1


def _start(
    lam: int, mu: int, a: int, b: int, c: int, x0: Rational, x1n: int, x1d: int
) -> _IntegerPoint:
    """The integer point (a, b, c) started at x'(0) = M x0 and x'(1) = M mu x1.

    x1 = x1n / x1d is in lowest terms with x1d > 0; mu x1 is reduced by
    gcd(mu, x1d), and M is the least positive int that makes both integers.
    """
    g = math.gcd(mu, x1d)
    x1n, x1d = mu // g * x1n, x1d // g
    x0d = x0.denominator
    m = math.lcm(x0d, x1d)
    return _IntegerPoint(lam, mu, m, a, b, c, x0.numerator * (m // x0d), x1n * (m // x1d))


def _coefficients(p: Params) -> tuple[int, int, int, int, int]:
    """(lam, mu, A, B, C) of p's integer point, shared by every kind."""
    lam = p.a.denominator
    mu = math.lcm(p.b.denominator, p.c.denominator // math.gcd(p.c.denominator, lam))
    b = p.b.numerator * (mu // p.b.denominator)
    c = p.c.numerator * (lam * mu // p.c.denominator)
    return lam, mu, p.a.numerator, b, c


def _integer_point(p: Params, kind: SequenceKind) -> _IntegerPoint:
    """The integer point of p, started from the initial pair of ``kind``."""
    x0, x1 = initial_pair(p, kind)
    return _start(*_coefficients(p), x0, x1.numerator, x1.denominator)


def _reflected_point(p: Params, kind: SequenceKind) -> _IntegerPoint:
    """``_integer_point(reflected(p, kind), W)``, derived on ints from p's fractions.

    The reflected point (-a/c, -b/c, 1/c) with initial pair (x0, (x1 - b x0) / c)
    of :func:`reflected` is reduced here from the numerators and denominators
    of p by one gcd per value, with c's sign moved into its numerator first,
    and no ``Fraction`` or ``Params`` is built.
    """
    x0, x1 = initial_pair(p, kind)
    an, ad, bn, bd = p.a.numerator, p.a.denominator, p.b.numerator, p.b.denominator
    cn, cd = p.c.numerator, p.c.denominator
    if cn < 0:  # 1/c = cd/cn with cn > 0
        cn, cd = -cn, -cd
    g, h = math.gcd(an, cn), math.gcd(cd, ad)
    lam, a = ad // h * (cn // g), -(an // g) * (cd // h)
    g, h = math.gcd(bn, cn), math.gcd(cd, bd)
    b_den = bd // h * (cn // g)
    mu = math.lcm(b_den, cn // math.gcd(cn, lam))
    b, c = -(bn // g) * (cd // h) * (mu // b_den), cd * (lam * mu // cn)
    # the reflected x1, (x1 - b x0) / c, in lowest terms
    x0n, x0d, x1n, x1d = x0.numerator, x0.denominator, x1.numerator, x1.denominator
    num, den = cd * (x1n * x0d * bd - bn * x0n * x1d), x1d * x0d * bd * cn
    g = math.gcd(num, den)
    return _start(lam, mu, a, b, c, x0, num // g, den // g)


def _scale(pt: _IntegerPoint, k: int) -> int:
    """The denominator x'(k) carries at index k >= 0, so x(k) = x'(k) / _scale(pt, k).

    It is M lam^floor(k/2) mu^ceil(k/2): from odd to even k the scale gains
    a factor lam, and from even to odd a factor mu.
    """
    return pt.m * pt.lam ** (k // 2) * pt.mu ** ((k + 1) // 2)


def _term(pt: _IntegerPoint, numer: int, den: int) -> Rational:
    """x(k) in lowest terms from numer = x'(k) and its scale den = ``_scale(pt, k)``.

    The caller passes the scale it read from ``_scale``.  Every prime of it
    divides the small base lam mu M, so a common factor of numer and den is
    gcd(numer mod base, base, den mod base): remainders by a small int,
    linear in the operands, and no gcd of two large values.  A common factor h is squared while its
    square still divides both, so a high power of it leaves in a few passes.
    """
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

    ``table[n]`` is the term at any integer n; ``table.pair(n)`` is the term
    at n as an unreduced pair of ints.  A lookup past the walked window
    extends it by the forward step, so every term is computed once per table
    however often it is read.

    The walk runs upward on Python ints at the integer point (A, B, C) of
    the module docstring, from its initial pair:

        x'(k) = chi'(k) x'(k-1) + C x'(k-2),   chi'(k) = A at even k, B at odd k,

    has integer coefficients, so no step reduces a fraction.  The table
    stores x'(k) and nothing else.  ``pair(k)`` returns the stored x'(k)
    with ``_scale`` of k and builds no ``Fraction``; ``table[k]`` hands that
    pair to ``_term``, which reduces by the factors of the scale, on every
    read of an index k >= 0.  Index -k is index k of a mirror table, built
    on the first negative read, that holds only the integer point of kind W
    at the reflected point (see :func:`reflected`), derived on ints by
    ``_reflected_point``; reflecting twice gives back this point, so the
    mirror is only ever read at k >= 0.
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
        return _term(self._point, *self.pair(key))

    def pair(self, k: int) -> tuple[int, int]:
        """The term at index k as the unreduced pair (N, den) of ints, den > 0.

        ``Fraction(N, den) == table[k]``.  At k >= 0 the pair is
        (x'(k), ``_scale`` of k), so the denominator at an index k >= 0
        divides the denominator at every higher index.  Index -k is read from the mirror
        table, so its denominator is that table's scale(k).
        """
        if k < 0:
            return self._reflection().pair(-k)
        if k >= len(self._xs):
            self._extend_up(k)
        return self._xs[k], _scale(self._point, k)

    def _reflection(self) -> TermTable:
        mirror = self._mirror
        if mirror is None:
            # two threads may each build one; both hold equal values
            mirror = _table(None, SequenceKind.W, _reflected_point(self.params, self.kind))
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


def _table(p: Params | None, kind: SequenceKind, pt: _IntegerPoint) -> TermTable:
    """The table that walks from the integer point pt, which is p's of ``kind``.

    A mirror table has no ``Params`` of its own (p is None): it is only read
    at indices k >= 0, so it never reflects.
    """
    table = object.__new__(TermTable)
    table._walk_from(p, kind, pt)
    return table


def _kind_tables(p: Params) -> tuple[TermTable, TermTable, TermTable]:
    """``TermTable(p, kind)`` for U, V and W, from one derivation of p's integer point.

    Only each kind's start, its initial pair and M, differs.
    """
    coefficients = _coefficients(p)

    def table(kind: SequenceKind) -> TermTable:
        x0, x1 = initial_pair(p, kind)
        return _table(p, kind, _start(*coefficients, x0, x1.numerator, x1.denominator))

    return table(SequenceKind.U), table(SequenceKind.V), table(SequenceKind.W)


def term_range(p: Params, kind: SequenceKind, lo: int, hi: int) -> list[Rational]:
    """Terms at indices lo..hi inclusive, in one upward walk per sign of index."""
    if lo > hi:
        raise ValueError(f"empty index range: {lo}..{hi}")
    table = TermTable(p, kind)
    return [table[k] for k in range(lo, hi + 1)]


def _from_u(p: Params, n: int, pair: tuple[Rational, Rational]) -> Rational:
    """x(n) of the initial pair (x0, x1) from u(n), u(n-1): x1 u(n) + c (b/a)^zeta(n) x0 u(n-1)."""
    x0, x1 = pair
    u_prev, u_n = term_range(p, SequenceKind.U, n - 1, n)
    ratio = p.b / p.a if zeta(n) else Fraction(1)
    return u_n * x1 + p.c * ratio * u_prev * x0


def w_from_u(p: Params, n: int) -> Rational:
    """w(n) for n >= 1 assembled from u-terms instead of the w recurrence."""
    if n < 1:
        raise ValueError("w_from_u is defined for n >= 1")
    return _from_u(p, n, (p.w0, p.w1))


def v_from_u(p: Params, n: int) -> Rational:
    """v(n) for n >= 1 assembled from u-terms instead of the v recurrence."""
    if n < 1:
        raise ValueError("v_from_u is defined for n >= 1")
    return _from_u(p, n, initial_pair(p, SequenceKind.V))


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


def negative_term(p: Params, kind: SequenceKind, n: int) -> Rational:
    """Term at index -n (n >= 1) via the closed negative-index forms.

    Independent of the backward recurrence, so the two negative-index routes
    cross-check each other.  A ``kind`` that is not a :class:`SequenceKind`
    raises ``TypeError``.
    """
    if n < 1:
        raise ValueError("negative_term expects n >= 1 and returns the term at -n")
    if kind is SequenceKind.U:
        return reflect_u(p, n, term_naive(p, SequenceKind.U, n))
    if kind is SequenceKind.V:
        return reflect_v(p, n, term_naive(p, SequenceKind.V, n))
    if kind is SequenceKind.W:
        u_n, u_next = term_range(p, SequenceKind.U, n, n + 1)
        return reflect_w(p, n, u_n, u_next)
    raise _kind_error(kind)
