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
yet taken, and :func:`term_range` is a slice of a fresh table.  A table walks
only upward, on Python ints, scaled by the known denominator m d^k of index k
(d = lcm of the denominators of a, b, c; m = lcm of those of the initial
pair).  It builds one ``Fraction`` per index, the first time that index is
read with ``table[k]``; ``table.pair(k)`` reads the same term as an
unreduced pair of ints and builds none.  Negative indices are positive
indices of the reflected point (see :func:`reflected`), read from a mirror
table there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .exact import OpCounter, Rational, as_rational, dataclass_repr, rat_pow, to_text

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


def initial_pair(p: Params, kind: SequenceKind) -> tuple[Rational, Rational]:
    """Terms at indices 0 and 1 for the given initial-value convention."""
    if kind is SequenceKind.U:
        return Fraction(0), Fraction(1)
    if kind is SequenceKind.V:
        return Fraction(2), p.b
    return p.w0, p.w1


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


class TermTable:
    """Terms of one sequence at one parameter point, walked on demand.

    ``table[n]`` is the term at any integer n; ``table[lo:stop]`` is the list
    of terms at lo..stop-1; ``table.pair(n)`` is the term at n as an
    unreduced pair of ints.  A lookup past the walked window extends it by
    the forward step, so every term is computed once per table however often
    it is read.

    The walk runs upward on Python ints.  With d = lcm(den a, den b, den c)
    and m = lcm(den x(0), den x(1)), the term is x(k) = N_k / (m d^k), where

        N_k = (chi(k) d) N_{k-1} + (c d^2) N_{k-2}

    has integer coefficients, so no step reduces a fraction.  ``pair(k)``
    returns (N_k, m d^k) and builds no ``Fraction``; ``table[k]`` builds the
    one ``Fraction`` of an index k >= 0 the first time it is read and keeps
    it.  Index -k is index k of a mirror table at the reflected point (see
    :func:`reflected`), built on the first negative read; reflecting twice
    gives back this point, so the mirror is only ever read at k >= 0.
    """

    def __init__(self, p: Params, kind: SequenceKind) -> None:
        self.params, self.kind = p, kind
        t0, t1 = initial_pair(p, kind)
        a, b, c = p.a, p.b, p.c
        d = math.lcm(a.denominator, b.denominator, c.denominator)
        m = math.lcm(t0.denominator, t1.denominator)
        self._d, self._m = d, m
        self._steps = (
            a.numerator * (d // a.denominator),
            b.numerator * (d // b.denominator),
            c.numerator * (d // c.denominator) * d,
        )
        self._nums = {  # N_k for 0 <= k <= hi
            0: t0.numerator * (m // t0.denominator),
            1: t1.numerator * (m // t1.denominator) * d,
        }
        self._terms = {0: t0, 1: t1}  # built Fractions, at some 0 <= k <= hi
        self._hi = 1
        self._mirror: TermTable | None = None

    def __getitem__(self, key: int | slice) -> Rational | list[Rational]:
        if isinstance(key, slice):
            if key.start is None or key.stop is None or key.step is not None:
                raise ValueError("term slices need a start and a stop and no step")
            return [self[k] for k in range(key.start, key.stop)]
        term = self._terms.get(key)
        if term is None:
            if key < 0:
                return self._reflection()[-key]
            term = self._terms[key] = Fraction(*self.pair(key))
        return term

    def pair(self, k: int) -> tuple[int, int]:
        """The term at index k as the unreduced pair (N, den) of ints, den > 0.

        ``Fraction(N, den) == table[k]``.  At k >= 0 the pair is
        (N_k, m d^k), so the denominator at an index k >= 0 divides the
        denominator at every higher index.  Index -k is read from the mirror
        table, so its denominator is that table's m d^k.
        """
        if k < 0:
            return self._reflection().pair(-k)
        if k > self._hi:
            self._extend_up(k)
        return self._nums[k], self._m * self._d**k

    def _reflection(self) -> TermTable:
        mirror = self._mirror
        if mirror is None:
            # two threads may each build one; both hold equal values
            mirror = self._mirror = TermTable(reflected(self.params, self.kind), SequenceKind.W)
        return mirror

    def _extend_up(self, n: int) -> None:
        # Reads the bound once and moves it only after the value at the new
        # bound is stored, so every index up to the bound always has its
        # value.  Two callers extending the same table at once therefore
        # only rewrite equal values.
        (even, odd, cdd), nums, hi = self._steps, self._nums, self._hi
        prev, cur = nums[hi - 1], nums[hi]
        for k in range(hi + 1, n + 1):
            prev, cur = cur, (odd if k % 2 else even) * cur + cdd * prev
            nums[k] = cur
            self._hi = k


def term_range(p: Params, kind: SequenceKind, lo: int, hi: int) -> list[Rational]:
    """Terms at indices lo..hi inclusive, in one upward walk per sign of index."""
    if lo > hi:
        raise ValueError(f"empty index range: {lo}..{hi}")
    return TermTable(p, kind)[lo : hi + 1]


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
    cross-check each other.
    """
    if n < 1:
        raise ValueError("negative_term expects n >= 1 and returns the term at -n")
    if kind is SequenceKind.U:
        return reflect_u(p, n, term_naive(p, SequenceKind.U, n))
    if kind is SequenceKind.V:
        return reflect_v(p, n, term_naive(p, SequenceKind.V, n))
    u_n, u_next = term_range(p, SequenceKind.U, n, n + 1)
    return reflect_w(p, n, u_n, u_next)
