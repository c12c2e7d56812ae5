"""Logarithmic-time term evaluation.

Two independent fast routes are provided next to the linear-time oracle:

* ``matrix`` -- binary powers of the period-2 transfer matrix P, which
  advances a pair of consecutive terms by one full period of the recurrence.
  By Cayley-Hamilton every power of P is alpha P + beta I, so a power is
  kept as the two ints (alpha, beta), and det(P^h) = d^h gives alpha beta
  from alpha^2, beta^2 and d^h: a level is two squares, and the term is
  read from the half power as one product;
* ``doubling`` -- index doubling on the pair (u(n), u(n+1)), driven by the
  addition identities of the u-sequence and its quadratic identity (L1.1),
  which gives u(k) u(k+1) from the two squares and (-c)^k: a level is two
  squares, and the term is read from the pair at n // 2 as one product.

Both loops carry their power of c, (-c)^k or d^h = c^(2h), as a power of
its odd part, squared along the walk, and a left shift, so no power of two
is ever squared as an int.  Every division of both routes is exact and
checked.

Both routes run on Python ints at the integer point of
:mod:`biperiodic.core`, where every kind starts as W does from its initial
pair, and build one Fraction per result from x'(n) through
``core._term(pt, x'(n), n)``.  It reads the scale of n, which only
:mod:`biperiodic.core` builds, and strips the common factor by remainders
and gcds against the small base lam mu M, each linear in the size of the
result, never running the general gcd of the public ``Fraction``
constructor, which is quadratic in that size and would be most of the
cost of a large term at a rational point.  A negative index -n is index n
of kind W at the reflected point (-a/c, -b/c, 1/c) of
:func:`biperiodic.core.reflected`, whose integer point
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
from .core import _integer_point, _IntegerPoint, _reflected_point, _term
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


def _u_pair(pt: _IntegerPoint, n: int, counter: OpCounter | None) -> tuple[int, int, int]:
    """(u'(n), u'(n+1), (-c)^n) at the integer point for n >= 0, by index doubling.

    u' is the sequence at the integer point from (u'(0), u'(1)) = (0, 1), so
    the U kind's x' there is x1 u'.  The walk starts at (u'(1), u'(2)) =
    (1, a), because u'(-1) = 1/c is not an integer.  With chi(j) = a at even
    j and b at odd j, one level maps the pair (X, Y) at k to the pair at 2k:

        u(2k)     = 2 X Y - chi(k+1) X^2,
        a u(2k+1) = chi(k) Y^2 + c chi(k+1) X^2,

    the first because c u(k-1) = u(k+1) - chi(k+1) u(k).  The quadratic
    identity L1.1 at the integer point,

        chi(k) Y^2 - ab X Y - c chi(k+1) X^2 = a (-c)^k,

    gives X Y from the two squares and the power, so X^2 and Y^2 are the
    level's only full-size products.  At odd k, with q = b Y^2 / a and the
    trace t = ab + 2c of ``term_matrix``, that makes

        u(2k+1) = q + c X^2,
        b u(2k) = 2 q - t X^2 - 2 (-c)^k,

    and at even k, with q = bc X^2 / a,

        u(2k+1) = Y^2 + q,
        b u(2k) = 2 (Y^2 - q) - b^2 X^2 - 2 (-c)^k.

    Every even-index term is a multiple of a, so the division by a is
    exact, and the division by b gives the int u(2k); both are checked.
    With -c = odd 2^shift, 2 (-c)^k is odd^k shifted left by shift k + 1,
    and odd^k is squared along the walk.  The counter gets 3 operations for
    the constants t, bc and b^2, then 8 a level from odd k and 7 from even
    k (the two squares, the products by the constants, the two divisions
    and the square of odd^k), and 3 more for each set bit of n below the
    leading one.
    """
    if n == 0:
        return 0, 1, 1
    a, b, c = pt.a, pt.b, pt.c
    shift = (c & -c).bit_length() - 1
    odd = -c >> shift
    t, bc, b_b = a * b + 2 * c, b * c, b * b
    if counter is not None:
        counter.add(3)
    u_k, u_k1, power, exp = 1, a, odd, shift + 1  # power = odd^k, exp = shift k + 1
    odd_k = True
    for bit in bin(n)[3:]:
        xx, yy = u_k * u_k, u_k1 * u_k1
        if odd_k:
            q, rem = divmod(b * yy, a)
            u_k1 = q + c * xx
            u_k, rem2 = divmod(2 * q - t * xx - (power << exp), b)
        else:
            q, rem = divmod(bc * xx, a)
            u_k1 = yy + q
            u_k, rem2 = divmod(2 * (yy - q) - b_b * xx - (power << exp), b)
        if rem or rem2:
            raise ArithmeticError("inexact division at an integer point")
        if counter is not None:
            counter.add(8 if odd_k else 7)
        power *= power
        exp += exp - 1
        odd_k = bit == "1"
        if odd_k:
            u_k, u_k1 = u_k1, a * u_k1 + c * u_k
            power *= odd
            exp += shift
            if counter is not None:
                counter.add(3)
    return u_k, u_k1, power << (shift * n)


def uv_doubling(
    p: Params, n: int, counter: OpCounter | None = None
) -> tuple[Rational, Rational]:
    """The pair (u(n), u(n+1)) in O(log n) multiplications, n >= 0.

    The pair (u'(n), u'(n+1)) is doubled on ints at the integer point (see
    the module docstring and ``_u_pair``), and each term is the U kind's
    x' = x1 u' made one Fraction.  The counter, when given, accrues the
    exact number of integer multiplications and divisions of the walk.
    """
    if n < 0:
        raise ValueError("doubling is defined for n >= 0")
    pt = _integer_point(p, SequenceKind.U)
    u_n, u_next, _ = _u_pair(pt, n, counter)
    return _term(pt, pt.x1 * u_n, n), _term(pt, pt.x1 * u_next, n + 1)


def term_doubling(
    p: Params, kind: SequenceKind, n: int, counter: OpCounter | None = None
) -> Rational:
    """Term at any integer index via pair doubling on the u-sequence.

    For n >= 1, x'(n) = x1 u'(n) + c x0 (b/a)^zeta(n) u'(n-1), with zeta(n)
    = n mod 2.  ``_u_pair`` doubles on ints only up to (X, Y) = (u'(k),
    u'(k+1)) with k = n // 2, and (-c)^k.  The last level's identities put
    a x'(n) as a quadratic form in X and Y, and the quadratic identity L1.1
    of ``_u_pair`` trades its Y^2 term for X Y, X^2 and (-c)^k, so that

        x'(n) = X (alpha X + beta Y) / (a chi(k)) + x (-c)^k,

    with x = x1 at odd n and x0 at even n, and small ints alpha and beta
    built from the point and the parities of n and k:

        odd n:   alpha = abc (2 x1 - b x0),         beta = b chi(k) (2c x0 + a x1),
        even n:  alpha = ab ((ab + 2c) x0 - a x1),  beta = a chi(k) (2 x1 - b x0).

    The readout is one full-size product and one exact division.  The
    result is one Fraction (see the module docstring).  A negative index is
    the same route at the integer point of the reflected point, from
    ``_reflected_point``.
    """
    if n == 0:
        return initial_pair(p, kind)[0]
    pt, n = (_reflected_point(p, kind), -n) if n < 0 else (_integer_point(p, kind), n)
    a, b, c, x0, x1 = pt.a, pt.b, pt.c, pt.x0, pt.x1
    k = n // 2
    u_k, u_k1, power = _u_pair(pt, k, counter)
    # chi(k) of ``_u_pair``
    chi_k = b if k % 2 else a
    ab, den, s = a * b, a * chi_k, 2 * x1 - b * x0
    if n % 2:
        alpha, beta, x = ab * c * s, b * chi_k * (2 * c * x0 + a * x1), x1
    else:
        alpha, beta, x = ab * ((ab + 2 * c) * x0 - a * x1), den * s, x0
    numer, rem = divmod(u_k * (alpha * u_k + beta * u_k1), den)
    if rem:
        raise ArithmeticError("inexact division at an integer point")
    numer += x * power
    if counter is not None:
        # b x0, ab and a chi(k) (3); alpha and beta (6 at odd n, 4 at even
        # n); the three products, the division and x (-c)^k (5)
        counter.add(14 if n % 2 else 12)
    return _term(pt, numer, n)


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
    kept as the two ints (alpha, beta).  Its determinant is

        det(alpha P + beta I) = d alpha^2 + t alpha beta + beta^2 = d^h.

    The loop builds P^h with h = e // 2 from P, most significant bit
    first.  A level squares:

        alpha' = t alpha^2 + 2 alpha beta,    beta' = beta^2 - d alpha^2,

    with alpha beta = (d^h - d alpha^2 - beta^2) / t, so its only full-size
    products are alpha^2 and beta^2, and a set bit multiplies by P:
    (alpha, beta) -> (t alpha + beta, -d alpha).  With d = odd 2^shift,
    d^h is odd^h shifted left by shift h, and odd^h is squared along the
    loop.  The last level is not squared out: with y = P^(e mod 2) (x'(2),
    x'(1)) and s_j the selected row of P^j y, P^e y = (alpha P + beta I)^2 y
    and the determinant give

        x'(n) = alpha ((s2 - s0 d) alpha + (2 s1 - s0 t) beta) + s0 d^h,

    one full-size product and no division.  At t = 0, P^2 = -d I, so
    x'(n) = (-d)^h s0 with no loop.  The result is one Fraction (see the
    module docstring).  A negative index is the same route at the integer
    point of the reflected point, from ``_reflected_point``.
    """
    if n == 0:
        return initial_pair(p, kind)[0]
    pt, n = (_reflected_point(p, kind), -n) if n < 0 else (_integer_point(p, kind), n)
    a, b, c, x0, x1 = pt.a, pt.b, pt.c, pt.x0, pt.x1
    ab_c, ac = a * b + c, a * c
    t, d = ab_c + c, c * c
    half, odd_e = divmod((n - 1) // 2, 2)
    shift = 2 * (c & -c).bit_length() - 2
    odd = d >> shift
    y1, y2 = a * x1 + c * x0, x1
    if odd_e:
        y1, y2 = ab_c * y1 + ac * y2, b * y1 + c * y2
    if not t:
        if counter is not None:
            # ab + c, ac and d (3); x'(2) (2); P (x'(2), x'(1)) when e is
            # odd (4); the power of -odd, counted as one, and its product
            # by s0 (2)
            counter.add(7 + 4 * odd_e)
        numer = ((y2 if n % 2 else y1) * pow(-odd, half)) << (shift * half)
        return _term(pt, numer, n)
    z1, z2 = ab_c * y1 + ac * y2, b * y1 + c * y2  # P y
    if n % 2:
        s0, s1, s2 = y2, z2, b * z1 + c * z2
    else:
        s0, s1, s2 = y1, z1, ab_c * z1 + ac * z2
    # P^1, or P^0 when half = 0, with power = odd^h and exp = shift h
    alpha, beta, power, exp = (1, 0, odd, shift) if half else (0, 1, 1, 0)
    for bit in bin(half)[3:]:
        aa, bb = alpha * alpha, beta * beta
        d_aa = d * aa
        alpha_beta, rem = divmod((power << exp) - d_aa - bb, t)
        if rem:
            raise ArithmeticError("inexact division at an integer point")
        alpha, beta = t * aa + 2 * alpha_beta, bb - d_aa
        power *= power
        exp += exp
        if bit == "1":
            alpha, beta = t * alpha + beta, -d * alpha
            power *= odd
            exp += shift
        if counter is not None:
            # the two squares, d alpha^2, the division, t alpha^2 and the
            # square of odd^h (6); t alpha, d alpha and odd^h odd (3)
            counter.add(9 if bit == "1" else 6)
    numer = alpha * ((s2 - s0 * d) * alpha + (2 * s1 - s0 * t) * beta) + (s0 * power << exp)
    if counter is not None:
        # ab + c, ac and d (3); x'(2) (2); P (x'(2), x'(1)) when e is odd
        # (4); P y (4); the row of P^2 y (2); s0 d and s0 t (2); the three
        # products of the readout and s0 d^h (4)
        counter.add(17 + 4 * odd_e)
    return _term(pt, numer, n)


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
