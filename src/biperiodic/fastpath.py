"""Logarithmic-time term evaluation.

Two independent fast routes are provided next to the linear-time oracle:

* ``matrix`` -- binary powers of the period-2 transfer matrix, which
  advances a pair of consecutive terms by one full period of the recurrence;
  the term is read as one row of the half power times one column, never
  from a last full square;
* ``doubling`` -- index doubling on the pair (u(n), u(n+1)), driven by the
  addition identities of the u-sequence.

Both routes run on Python ints at the integer point of
:mod:`biperiodic.core`, where every kind starts as W does from its initial
pair and the scale of index n is one formula, ``core._scale``.  Each route
computes that scale once and builds one Fraction per result from x'(n) and
the scale through ``core._term``.  Every prime of the scale divides the
small base lam mu M, so ``_term`` strips the common factor by remainders
and gcds against the base, each linear in the size of the result, and
never runs the general gcd of the public ``Fraction`` constructor, which is
quadratic in that size and would be most of the cost of a large term at a
rational point.  A
negative index -n is index n of kind W at the reflected point (-a/c, -b/c,
1/c) of :func:`biperiodic.core.reflected`, whose integer point
``core._reflected_point`` derives on ints from the point's numerators and
denominators, with no reflected ``Params`` built.  So the routes only ever
evaluate n >= 1, and a counter passed at -n counts that reflected walk.

Both must agree with the oracle exactly, on every input; the test suite
enforces the three-way agreement.  The backward recurrence of
:func:`~biperiodic.core.term_naive` and the closed reflection formulas of
:mod:`biperiodic.core` stay oracle-only.
"""

from __future__ import annotations

from enum import Enum

from .core import Params, SequenceKind, initial_pair, term_naive
from .core import _integer_point, _IntegerPoint, _reflected_point, _scale, _term
from .exact import OpCounter, Rational

__all__ = [
    "Method",
    "OpCounter",
    "uv_doubling",
    "term_doubling",
    "term_matrix",
    "term_fast",
]


class Method(Enum):
    NAIVE = "naive"
    MATRIX = "matrix"
    DOUBLING = "doubling"


def _exact_div(x: int, d: int) -> int:
    quotient, remainder = divmod(x, d)
    if remainder:
        raise ArithmeticError(f"inexact division by {d} at an integer point")
    return quotient


def _from_u(pt: _IntegerPoint, k: int, u_prev: int, u_k: int, counter: OpCounter | None) -> int:
    """x'(k) = x1 u'(k) + c x0 (b/a)^zeta(k) u'(k-1) for k >= 1.

    At odd k, u'(k-1) has an even index and so is a multiple of a, and the
    division by a is exact.  The counter gets 3 operations, and 2 more at
    odd k.
    """
    tail = pt.c * pt.x0 * u_prev
    if k % 2:
        tail = _exact_div(pt.b * tail, pt.a)
    if counter is not None:
        counter.add(5 if k % 2 else 3)
    return pt.x1 * u_k + tail


def _u_pair(pt: _IntegerPoint, n: int, counter: OpCounter | None) -> tuple[int, int]:
    """(u'(n), u'(n+1)) at the integer point for n >= 0, by index doubling.

    u' is the sequence at the integer point from (u'(0), u'(1)) = (0, 1), so
    the U kind's x' there is x1 u'.  The walk starts at (u'(1), u'(2)) =
    (1, a), because u'(-1) = 1/c is not an integer.  One level maps the
    pair at k to the pair at 2k:

        u(2k)   = u(k) (2 u(k+1) - chi(k+1) u(k)),
        u(2k+1) = (b/a)^zeta(k) u(k+1)^2 + (b/a)^zeta(k+1) c u(k)^2,

    the first because c u(k-1) = u(k+1) - chi(k+1) u(k).  Every even-index
    term is a multiple of a, so the division by a is exact.
    """
    if n == 0:
        return 0, 1
    a, b, c = pt.a, pt.b, pt.c
    u_k, u_k1 = 1, a
    odd = True  # parity of the index k of u_k
    for bit in bin(n)[3:]:
        if odd:
            u_even = u_k * (2 * u_k1 - a * u_k)
            u_odd = _exact_div(b * (u_k1 * u_k1), a) + c * (u_k * u_k)
        else:
            u_even = u_k * (2 * u_k1 - b * u_k)
            u_odd = u_k1 * u_k1 + _exact_div(b * c * (u_k * u_k), a)
        if counter is not None:
            counter.add(7)
        u_k, u_k1 = u_even, u_odd
        odd = bit == "1"
        if odd:
            u_k, u_k1 = u_k1, a * u_k1 + c * u_k
            if counter is not None:
                counter.add(2)
    return u_k, u_k1


def uv_doubling(
    p: Params, n: int, counter: OpCounter | None = None
) -> tuple[Rational, Rational]:
    """The pair (u(n), u(n+1)) in O(log n) multiplications, n >= 0.

    The pair (u'(n), u'(n+1)) is doubled on ints at the integer point (see
    the module docstring and ``_u_pair``).  The U kind's x' is x1 u', so
    each term is x1 u' reduced over its scale into one Fraction.  The
    counter, when given, accrues the exact number of integer
    multiplications and divisions of the walk.
    """
    if n < 0:
        raise ValueError("doubling is defined for n >= 0")
    pt = _integer_point(p, SequenceKind.U)
    u_n, u_next = _u_pair(pt, n, counter)
    return _term(pt, pt.x1 * u_n, _scale(pt, n)), _term(pt, pt.x1 * u_next, _scale(pt, n + 1))


def term_doubling(
    p: Params, kind: SequenceKind, n: int, counter: OpCounter | None = None
) -> Rational:
    """Term at any integer index via pair doubling on the u-sequence.

    x'(n) for n >= 1 combines u'(n-1) and u'(n), which come from ``_u_pair``
    on ints at the integer point, and the result is one Fraction (see the
    module docstring).  A negative index is the same route at the integer
    point of the reflected point, from ``_reflected_point``.
    """
    if n == 0:
        return initial_pair(p, kind)[0]
    pt, n = (_reflected_point(p, kind), -n) if n < 0 else (_integer_point(p, kind), n)
    return _term(pt, _from_u(pt, n, *_u_pair(pt, n - 1, counter), counter), _scale(pt, n))


def _square(m: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    m11, m12, m21, m22 = m
    cross = m12 * m21
    trace = m11 + m22
    return m11 * m11 + cross, m12 * trace, m21 * trace, m22 * m22 + cross


def term_matrix(
    p: Params, kind: SequenceKind, n: int, counter: OpCounter | None = None
) -> Rational:
    """Term at any integer index via binary powers of the period-2 transfer matrix.

    At the integer point, P = [[a, c], [1, 0]] [[b, c], [1, 0]] = [[ab + c,
    ac], [b, c]] maps (x'(j+1), x'(j)) to (x'(j+3), x'(j+2)) for odd j.  One
    single step takes the initial pair to (x'(2), x'(1)), and P^e with
    e = (n-1)//2 takes that to (x'(2e+2), x'(2e+1)), so x'(n) for n >= 1 is
    read from the top row when n is even and from the bottom row when n is
    odd.  The loop builds P^h with h = e // 2, most significant bit first:
    each level squares the power and a set bit multiplies it by P, whose
    entries are small.  The last level is not squared out: P^e = P^h P^h
    P^(e mod 2), so x'(n) is that row of P^h times the column
    P^h P^(e mod 2) (x'(2), x'(1)), two half-size products where a full
    square would take five.  The result is one Fraction (see the module
    docstring).  A negative index is the same route at the integer point of
    the reflected point, from ``_reflected_point``.
    """
    if n == 0:
        return initial_pair(p, kind)[0]
    pt, n = (_reflected_point(p, kind), -n) if n < 0 else (_integer_point(p, kind), n)
    a, b, c, x0, x1 = pt.a, pt.b, pt.c, pt.x0, pt.x1
    x2 = a * x1 + c * x0
    ab_c, ac = a * b + c, a * c
    half, odd_e = divmod((n - 1) // 2, 2)
    power = (1, 0, 0, 1)
    for bit in bin(half)[2:] if half else "":
        power = _square(power)
        if bit == "1":
            m11, m12, m21, m22 = power
            power = (m11 * ab_c + m12 * b, m11 * ac + m12 * c,
                     m21 * ab_c + m22 * b, m21 * ac + m22 * c)
        if counter is not None:
            counter.add(13 if bit == "1" else 5)
    y1, y2 = (ab_c * x2 + ac * x1, b * x2 + c * x1) if odd_e else (x2, x1)
    m11, m12, m21, m22 = power
    col1, col2 = m11 * y1 + m12 * y2, m21 * y1 + m22 * y2
    numer = m21 * col1 + m22 * col2 if n % 2 else m11 * col1 + m12 * col2
    if counter is not None:
        # x2, ab + c and ac (4); P (x2, x1) when e is odd (4); the column
        # (4); the row by the column (2)
        counter.add(10 + 4 * odd_e)
    return _term(pt, numer, _scale(pt, n))


def term_fast(
    p: Params,
    kind: SequenceKind,
    n: int,
    method: Method = Method.DOUBLING,
    counter: OpCounter | None = None,
) -> Rational:
    """Term at index n by the chosen evaluation strategy.

    All three methods return identical rationals on every input; they differ
    only in cost (naive is Theta(|n|) steps, the other two O(log |n|)
    multiplications on term-sized values).  A ``method`` that is not a
    :class:`Method`, or a ``kind`` that is not a ``SequenceKind``, raises
    ``TypeError``.
    """
    if method is Method.NAIVE:
        return term_naive(p, kind, n, counter)
    if method is Method.MATRIX:
        return term_matrix(p, kind, n, counter)
    if method is Method.DOUBLING:
        return term_doubling(p, kind, n, counter)
    raise TypeError(f"method must be a Method (NAIVE, MATRIX or DOUBLING), not {method!r}")
