"""The oracle side: the references that the fast routes and the checkers are checked against.

Every term read here comes from :func:`~biperiodic.core.term_naive`, the plain
``Fraction`` walk, and from nothing else: no term table, no ``term_range`` and no
private helper of :mod:`biperiodic.core`, so no cross-check shares code with what it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (
    DegenerateParametersError, Params, SequenceKind, initial_pair, reflect_u, reflect_v,
    reflect_w, term_naive, zeta,
)
from .exact import Rational

__all__ = [
    "SingularSeriesError", "w_from_u", "v_from_u", "negative_term", "sum_oracle", "delta_weight",
]


class SingularSeriesError(ValueError):
    """The partial-sum constant det(I - K^m) vanishes at this step length."""


def _from_u(p: Params, n: int, pair: tuple[Rational, Rational]) -> Rational:
    """x(n) of the initial pair (x0, x1) from u(n), u(n-1): x1 u(n) + c (b/a)^zeta(n) x0 u(n-1)."""
    x0, x1 = pair
    u_prev, u_n = term_naive(p, SequenceKind.U, n - 1), term_naive(p, SequenceKind.U, n)
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


def negative_term(p: Params, kind: SequenceKind, n: int) -> Rational:
    """Term at index -n (n >= 1) via the closed negative-index forms.

    Independent of the backward recurrence, so the two negative-index routes
    cross-check each other.  A ``kind`` that is not a :class:`SequenceKind`
    raises ``TypeError``.
    """
    if n < 1:
        raise ValueError("negative_term expects n >= 1 and returns the term at -n")
    if kind is SequenceKind.W:
        u_n, u_next = term_naive(p, SequenceKind.U, n), term_naive(p, SequenceKind.U, n + 1)
        return reflect_w(p, n, u_n, u_next)
    # term_naive raises the TypeError of a kind that is not a SequenceKind
    reflect = reflect_u if kind is SequenceKind.U else reflect_v
    return reflect(p, n, term_naive(p, kind, n))


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
    u_sum, v_sum = _oracle_sums(p, m, n, r)
    return Fraction(*u_sum), Fraction(*v_sum)


def _oracle_sums(p: Params, m: int, n: int, r: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The u- and v-sums of :func:`sum_oracle` as unreduced pairs (num, den), den > 0.

    A SUM check compares the one of its own sequence and reduces neither.
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
    if den < 0:
        x, y, den = -x, -y, -den
    return (2 * y * scale, den), (2 * x, den)


def delta_weight(p: Params, m: int, n: int, r: int, i: int) -> Rational:
    """The parity bookkeeping weight of one binomial summand.

    (ab)^(floor((i+r)/2) + n*floor(m/2)) * a^(-zeta(m+1)*i - 1 + zeta(i+r))
    * b^(zeta(m)*(n-i)), defined for m >= 2 and 0 <= i <= n.  It is the
    reference for :func:`~biperiodic.identities.check_binomial`: with t = mn+r,
    the sum over i of comb(n, i) c^(n-i) u(m)^i u(m-1)^(n-i) x(i+r) times this
    weight is x(t) (ab)^floor(t/2) a^(zeta(t)-1).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n")
    e_ab = (i + r) // 2 + n * (m // 2)
    e_a = -zeta(m + 1) * i - 1 + zeta(i + r)
    e_b = zeta(m) * (n - i)
    return (p.a * p.b) ** e_ab * p.a ** e_a * p.b ** e_b
