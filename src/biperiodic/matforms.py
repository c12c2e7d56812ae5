"""The structural 2x2 matrices of the family and closed forms for their powers.

Five matrices, tagged U, K, H, T, A, encode the recurrence:

    U = [[ab, cb], [a, 0]]                      u-companion
    K = (1/2) [[ab, D], [1, ab]]                u/v coupling (D = discriminant)
    H = [[0, D], [1, 0]]                        trace-free companion of K
    T = [[ab w1 + cb w0, cb w1], [a w1, cb w0]] initial-value coupling
    A = [[ab, abc], [1, 0]]                     alternate companion

Every ``*_power_closed`` function assembles the n-th power entrywise from
sequence terms produced by the linear-time recurrence, so it is a route to
the same matrix that is fully independent of square-and-multiply; agreement
of the two is a primary test surface.  One entrywise form, U^k on
(x(k-1), x(k), x(k+1)), holds the parity weights and the scale
(ab)^floor(k/2).  U^n is that form on u-terms, T U^n is the form of U^(n+1)
on w-terms, and A^n = D U^n D^-1 with D = diag(1, 1/a).  K^n is assembled
from u(n) and v(n), and its coefficients in {H, I} and {K, I} are read from
its entries, since K = (ab I + H) / 2.
"""

from __future__ import annotations

from enum import Enum

from .core import (
    DegenerateParametersError,
    Params,
    SequenceKind,
    discriminant,
    term_naive,
    term_range,
    zeta,
)
from .exact import Mat2, Rational, rat_pow

__all__ = [
    "MatrixTag",
    "build",
    "u_power_closed",
    "k_power_closed",
    "k_power_decompose",
    "tu_power_closed",
    "a_power_closed",
]


class MatrixTag(Enum):
    U = "U"
    K = "K"
    H = "H"
    T = "T"
    A = "A"


def build(tag: MatrixTag, p: Params) -> Mat2:
    """Construct the tagged matrix at a parameter point.

    Every tag is constructible for all valid parameters; a zero discriminant
    merely collapses K and H (their power closed forms reject that case, the
    plain matrices do not).  A ``tag`` that is not a :class:`MatrixTag`
    raises ``TypeError``.
    """
    ab = p.a * p.b
    if tag is MatrixTag.U:
        return Mat2(ab, p.c * p.b, p.a, 0)
    if tag is MatrixTag.K:
        d = discriminant(p)
        return Mat2(ab, d, 1, ab).scaled(Rational(1, 2))
    if tag is MatrixTag.H:
        return Mat2(0, discriminant(p), 1, 0)
    if tag is MatrixTag.T:
        return Mat2(
            ab * p.w1 + p.c * p.b * p.w0,
            p.c * p.b * p.w1,
            p.a * p.w1,
            p.c * p.b * p.w0,
        )
    if tag is MatrixTag.A:
        return Mat2(ab, ab * p.c, 1, 0)
    raise TypeError(f"tag must be a MatrixTag (U, K, H, T or A), not {tag!r}")


def _u_form(p: Params, k: int, terms: list[Rational]) -> Mat2:
    """The entrywise form of U^k, k >= 0, filled with (x(k-1), x(k), x(k+1)).

    The entries carry the three terms under the parity weights b^zeta(k),
    a^zeta(k) and a^-zeta(k+1), and the scale (ab)^floor(k/2).
    """
    x_prev, x_k, x_next = terms
    z, z1 = zeta(k), zeta(k + 1)
    return Mat2(
        rat_pow(p.b, z) * x_next,
        p.c * p.b * rat_pow(p.a, -z1) * x_k,
        rat_pow(p.a, z) * x_k,
        p.c * rat_pow(p.b, z) * x_prev,
    ).scaled(rat_pow(p.a * p.b, k // 2))


def u_power_closed(p: Params, n: int) -> Mat2:
    """U^n assembled from u-terms, for any integer n.

    For n >= 0 it is the entrywise form of U^n on u(n-1), u(n), u(n+1).
    Since det U = -abc, U^-k = adj(U^k) / (-abc)^k: the form at k with its
    diagonal swapped and its off-diagonal negated.
    """
    if n < 0:
        m = u_power_closed(p, -n)
        return Mat2(m.m22, -m.m12, -m.m21, m.m11).scaled(rat_pow(-(p.a * p.b * p.c), n))
    return _u_form(p, n, term_range(p, SequenceKind.U, n - 1, n + 1))


def k_power_closed(p: Params, n: int) -> Mat2:
    """K^n assembled from u- and v-terms; n >= 0, nonzero discriminant required."""
    if n < 0:
        raise ValueError("closed form is stated for n >= 0")
    d = discriminant(p)
    if d == 0:
        raise DegenerateParametersError("discriminant is zero for these parameters")
    u_n = term_naive(p, SequenceKind.U, n)
    v_n = term_naive(p, SequenceKind.V, n)
    z = zeta(n)
    half_scale = rat_pow(p.a * p.b, n // 2) / 2
    diag = rat_pow(p.a, z) * v_n
    off = rat_pow(p.a, z - 1) * u_n
    return Mat2(diag, d * off, off, diag).scaled(half_scale)


def k_power_decompose(
    p: Params, n: int
) -> tuple[tuple[Rational, Rational], tuple[Rational, Rational]]:
    """Coefficients of K^n in the bases {H, I} and {K, I}.

    Returns ``((alpha, beta), (gamma, delta))`` with
    K^n = alpha H + beta I = gamma K + delta I; n >= 0 and a nonzero
    discriminant are required.  Since H = [[0, D], [1, 0]], alpha and beta
    are the entries [2,1] and [1,1] of K^n; since H = 2K - ab I,
    gamma = 2 alpha and delta = beta - ab alpha.
    """
    if n < 0:
        raise ValueError("decomposition is stated for n >= 0")
    power = k_power_closed(p, n)
    alpha, beta = power.m21, power.m11
    return (alpha, beta), (2 * alpha, beta - p.a * p.b * alpha)


def tu_power_closed(p: Params, n: int) -> Mat2:
    """T U^n assembled from w-terms; n >= 0.

    T U^n = cb w0 U^n + w1 U^(n+1) has the entrywise form of U^(n+1),
    filled with w(n), w(n+1), w(n+2) in place of the u-terms.
    """
    if n < 0:
        raise ValueError("closed form is stated for n >= 0")
    return _u_form(p, n + 1, term_range(p, SequenceKind.W, n, n + 2))


def a_power_closed(p: Params, n: int) -> Mat2:
    """A^n assembled from u-terms; n >= 0.

    A = D U D^-1 with D = diag(1, 1/a), so A^n is U^n with its [1,2] entry
    times a and its [2,1] entry divided by a.
    """
    if n < 0:
        raise ValueError("closed form is stated for n >= 0")
    m = u_power_closed(p, n)
    return Mat2(m.m11, m.m12 * p.a, m.m21 / p.a, m.m22)
