"""Logarithmic-time term evaluation.

Two independent fast routes are provided next to the linear-time oracle:

* ``matrix`` -- binary powers of the period-2 transfer matrix P, which
  advances a pair of consecutive terms by one full period of the recurrence.
  By Cayley-Hamilton every power of P is alpha P + beta I, so a power is
  kept as the two ints (alpha, beta) and a level is three squares; the term
  is read from the half power, never from a last full square;
* ``doubling`` -- index doubling on the pair (u(n), u(n+1)), driven by the
  addition identities of the u-sequence, three squares a level; the term is
  read from the pair at n // 2 as one quadratic form.

In both, the readout is one binary quadratic form of the two half-size
values the loop ends with, evaluated by ``_quadratic_form`` as two squares.

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
:func:`~biperiodic.core.term_naive` and :mod:`biperiodic.oracles`, which reads
terms through ``term_naive`` only, stay off the fast routes.
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


def _quadratic_form(
    alpha: int, beta: int, gamma: int, x: int, y: int, counter: OpCounter | None
) -> int:
    """alpha x^2 + beta x y + gamma y^2, for small alpha, beta, gamma and full-size x, y.

    Completing the square,

        4 alpha Q = (2 alpha x + beta y)^2 - (beta^2 - 4 alpha gamma) y^2,

    so the form takes two full-size squares and one exact division by
    4 alpha, where x (alpha x + beta y) + gamma y^2 takes a product and a
    square; CPython squares a 40k-70k-bit int at about 1/1.45 the cost of a
    product.  At alpha = 0 the form is gamma y^2 + beta y x, so x and y swap
    roles, and at alpha = gamma = 0 it is beta x y.  The counter gets 8
    operations, or 2 for beta x y; a product by 2 or 4 is not counted.
    """
    if not alpha:
        if not gamma:
            if counter is not None:
                counter.add(2)
            return beta * x * y
        alpha, gamma, x, y = gamma, alpha, y, x
    t = 2 * alpha * x + beta * y
    form = _exact_div(t * t - (beta * beta - 4 * alpha * gamma) * (y * y), 4 * alpha)
    if counter is not None:
        # alpha x, beta y, the two squares, beta^2, alpha gamma, the product
        # by the discriminant and the division
        counter.add(8)
    return form


def _u_pair(pt: _IntegerPoint, n: int, counter: OpCounter | None) -> tuple[int, int]:
    """(u'(n), u'(n+1)) at the integer point for n >= 0, by index doubling.

    u' is the sequence at the integer point from (u'(0), u'(1)) = (0, 1), so
    the U kind's x' there is x1 u'.  The walk starts at (u'(1), u'(2)) =
    (1, a), because u'(-1) = 1/c is not an integer.  With chi(j) = a at even
    j and b at odd j, one level maps the pair at k to the pair at 2k:

        u(2k)     = 2 u(k) u(k+1) - chi(k+1) u(k)^2,
        a u(2k+1) = chi(k) u(k+1)^2 + c chi(k+1) u(k)^2,

    the first because c u(k-1) = u(k+1) - chi(k+1) u(k).  Every even-index
    term is a multiple of a, so the division by a is exact.  The level's
    only full-size products are three squares: u(k)^2, u(k+1)^2 and
    (u(k) + u(k+1))^2, which less the other two is 2 u(k) u(k+1).  The
    counter gets 7 operations a level and 2 more for each set bit of n
    below the leading one.
    """
    if n == 0:
        return 0, 1
    a, b, c = pt.a, pt.b, pt.c
    u_k, u_k1 = 1, a
    odd = True  # parity of the index k of u_k
    for bit in bin(n)[3:]:
        xx, yy, both = u_k * u_k, u_k1 * u_k1, u_k + u_k1
        two_xy = both * both - xx - yy
        if odd:
            u_k, u_k1 = two_xy - a * xx, _exact_div(b * yy, a) + c * xx
        else:
            u_k, u_k1 = two_xy - b * xx, yy + _exact_div(b * c * xx, a)
        if counter is not None:
            counter.add(7)
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

    For n >= 1, x'(n) = x1 u'(n) + c x0 (b/a)^zeta(n) u'(n-1), with zeta(n)
    = n mod 2.  ``_u_pair`` doubles on ints only up to (X, Y) = (u'(k),
    u'(k+1)) with k = n // 2; the last level's identities put u'(n) and
    u'(n-1) in terms of X and Y, so that

        a x'(n) = X (alpha X + beta Y) + gamma Y^2,

    with small ints alpha, beta and gamma built from the point and the
    parities of n and k.  The readout is that form, two full-size squares
    by ``_quadratic_form``, and one exact division by a.  The result is one
    Fraction (see the module docstring).  A negative index is the same
    route at the integer point of the reflected point, from
    ``_reflected_point``.
    """
    if n == 0:
        return initial_pair(p, kind)[0]
    pt, n = (_reflected_point(p, kind), -n) if n < 0 else (_integer_point(p, kind), n)
    a, b, c, x0, x1 = pt.a, pt.b, pt.c, pt.x0, pt.x1
    k = n // 2
    u_k, u_k1 = _u_pair(pt, k, counter)
    # chi(k) and chi(k+1) of ``_u_pair``; r = x1 - b x0 is c x'(-1)
    chi_k, chi_k1 = (b, a) if k % 2 else (a, b)
    r = x1 - b * x0
    if n % 2:  # a x1 u'(2k+1) + b c x0 u'(2k)
        alpha, beta, gamma = c * chi_k1 * r, 2 * b * c * x0, chi_k * x1
    else:  # a r u'(2k) + a x0 u'(2k+1), since c u'(2k-1) = u'(2k+1) - b u'(2k)
        ar = a * r
        alpha, beta, gamma = chi_k1 * (c * x0 - ar), 2 * ar, chi_k * x0
    numer = _exact_div(_quadratic_form(alpha, beta, gamma, u_k, u_k1, counter), a)
    if counter is not None:
        # r (1); alpha, beta and gamma (5 at odd n, 4 at even n); the
        # division (1); the form counts itself
        counter.add(7 if n % 2 else 6)
    return _term(pt, numer, _scale(pt, n))


def term_matrix(
    p: Params, kind: SequenceKind, n: int, counter: OpCounter | None = None
) -> Rational:
    """Term at any integer index via binary powers of the period-2 transfer matrix.

    At the integer point, P = [[a, c], [1, 0]] [[b, c], [1, 0]] = [[ab + c,
    ac], [b, c]] maps (x'(j+1), x'(j)) to (x'(j+3), x'(j+2)) for odd j.  One
    single step takes the initial pair to (x'(2), x'(1)), and P^e with
    e = (n-1)//2 takes that to (x'(2e+2), x'(2e+1)), so x'(n) for n >= 1 is
    read from the top row when n is even and from the bottom row when n is
    odd.  By Cayley-Hamilton P^2 = t P - d I, with trace t = ab + 2c and
    determinant d = c^2, so every power of P is alpha P + beta I and is
    kept as the two ints (alpha, beta).  The loop builds P^h with h = e // 2,
    most significant bit first.  A level squares:

        alpha' = t alpha^2 + 2 alpha beta,    beta' = beta^2 - d alpha^2,

    from the three squares alpha^2, beta^2 and (alpha + beta)^2, and a set
    bit multiplies by P: (alpha, beta) -> (t alpha + beta, -d alpha).  The
    last level is not squared out: with y = P^(e mod 2) (x'(2), x'(1)) and
    s_j the selected row of P^j y, P^e y = (alpha P + beta I)^2 y gives

        x'(n) = s2 alpha^2 + 2 s1 alpha beta + s0 beta^2,

    a quadratic form in (alpha, beta) with the small ints s_j as its
    coefficients, read as two full-size squares by ``_quadratic_form``.
    The result is one Fraction (see the module docstring).  A negative index
    is the same route at the integer point of the reflected point, from
    ``_reflected_point``.
    """
    if n == 0:
        return initial_pair(p, kind)[0]
    pt, n = (_reflected_point(p, kind), -n) if n < 0 else (_integer_point(p, kind), n)
    a, b, c, x0, x1 = pt.a, pt.b, pt.c, pt.x0, pt.x1
    ab_c, ac = a * b + c, a * c
    t, d = ab_c + c, c * c
    half, odd_e = divmod((n - 1) // 2, 2)
    alpha, beta = 0, 1
    for bit in bin(half)[2:] if half else "":
        aa, bb, both = alpha * alpha, beta * beta, alpha + beta
        alpha, beta = t * aa + both * both - aa - bb, bb - d * aa
        if bit == "1":
            alpha, beta = t * alpha + beta, -d * alpha
        if counter is not None:
            counter.add(7 if bit == "1" else 5)
    y1, y2 = a * x1 + c * x0, x1
    if odd_e:
        y1, y2 = ab_c * y1 + ac * y2, b * y1 + c * y2
    z1, z2 = ab_c * y1 + ac * y2, b * y1 + c * y2  # P y
    if n % 2:
        s0, s1, s2 = y2, z2, b * z1 + c * z2
    else:
        s0, s1, s2 = y1, z1, ab_c * z1 + ac * z2
    numer = _quadratic_form(s2, 2 * s1, s0, alpha, beta, counter)
    if counter is not None:
        # ab + c, ac and d (3); x'(2) (2); P (x'(2), x'(1)) when e is odd
        # (4); P y (4); the row of P^2 y (2); the form counts itself
        counter.add(11 + 4 * odd_e)
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
