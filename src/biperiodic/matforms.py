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
of the two is a primary test surface.
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
    plain matrices do not).
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
    return Mat2(ab, ab * p.c, 1, 0)


def u_power_closed(p: Params, n: int) -> Mat2:
    """U^n assembled from u-terms, for any integer n.

    For n >= 0 the entries carry u(n-1), u(n), u(n+1) under parity weights
    and the scale (ab)^floor(n/2).  Since det U = -abc, U^-k = adj(U^k) /
    (-abc)^k: the form at k with its diagonal swapped and its off-diagonal
    negated.
    """
    if n < 0:
        m = u_power_closed(p, -n)
        return Mat2(m.m22, -m.m12, -m.m21, m.m11).scaled(rat_pow(-(p.a * p.b * p.c), n))
    u_prev, u_n, u_next = term_range(p, SequenceKind.U, n - 1, n + 1)
    z, z1 = zeta(n), zeta(n + 1)
    scale = rat_pow(p.a * p.b, n // 2)
    return Mat2(
        rat_pow(p.b, z) * u_next,
        p.c * p.b * rat_pow(p.a, -z1) * u_n,
        rat_pow(p.a, z) * u_n,
        p.c * rat_pow(p.b, z) * u_prev,
    ).scaled(scale)


def _require_generic(p: Params) -> None:
    if discriminant(p) == 0:
        raise DegenerateParametersError(
            "discriminant is zero for these parameters"
        )


def k_power_closed(p: Params, n: int) -> Mat2:
    """K^n assembled from u- and v-terms; n >= 0, nonzero discriminant required."""
    if n < 0:
        raise ValueError("closed form is stated for n >= 0")
    _require_generic(p)
    u_n = term_naive(p, SequenceKind.U, n)
    v_n = term_naive(p, SequenceKind.V, n)
    z = zeta(n)
    half_scale = rat_pow(p.a * p.b, n // 2) / 2
    diag = rat_pow(p.a, z) * v_n
    off = rat_pow(p.a, z - 1) * u_n
    return Mat2(diag, discriminant(p) * off, off, diag).scaled(half_scale)


def k_power_decompose(
    p: Params, n: int
) -> tuple[tuple[Rational, Rational], tuple[Rational, Rational]]:
    """Coefficients of K^n in the bases {H, I} and {K, I}.

    Returns ``((alpha, beta), (gamma, delta))`` with
    K^n = alpha H + beta I = gamma K + delta I; n >= 0 and a nonzero
    discriminant are required.
    """
    if n < 0:
        raise ValueError("decomposition is stated for n >= 0")
    _require_generic(p)
    u_prev, u_n = term_range(p, SequenceKind.U, n - 1, n)
    v_n = term_naive(p, SequenceKind.V, n)
    scale = rat_pow(p.a * p.b, n // 2)
    z = zeta(n)
    alpha = scale / 2 * rat_pow(p.a, z - 1) * u_n
    beta = scale / 2 * rat_pow(p.a, z) * v_n
    gamma = scale * rat_pow(p.a, z - 1) * u_n
    delta = scale * p.c * rat_pow(p.b, z) * u_prev
    return (alpha, beta), (gamma, delta)


def tu_power_closed(p: Params, n: int) -> Mat2:
    """T U^n assembled from w-terms; n >= 0.

    Entries carry w(n), w(n+1), w(n+2) under parity weights and the scale
    (ab)^floor((n+1)/2).
    """
    if n < 0:
        raise ValueError("closed form is stated for n >= 0")
    w_n, w_next, w_next2 = term_range(p, SequenceKind.W, n, n + 2)
    z, z1 = zeta(n), zeta(n + 1)
    scale = rat_pow(p.a * p.b, (n + 1) // 2)
    return Mat2(
        rat_pow(p.b, z1) * w_next2,
        p.c * p.b * rat_pow(p.a, -z) * w_next,
        rat_pow(p.a, z1) * w_next,
        p.c * rat_pow(p.b, z1) * w_n,
    ).scaled(scale)


def a_power_closed(p: Params, n: int) -> Mat2:
    """A^n assembled from u-terms; n >= 0.

    Same term content as U^n but with the parity weights of the off-diagonal
    entries swapped, matching A's different corner placement of a and c.
    """
    if n < 0:
        raise ValueError("closed form is stated for n >= 0")
    u_prev, u_n, u_next = term_range(p, SequenceKind.U, n - 1, n + 1)
    z, z1 = zeta(n), zeta(n + 1)
    scale = rat_pow(p.a * p.b, n // 2)
    return Mat2(
        rat_pow(p.b, z) * u_next,
        p.c * p.b * rat_pow(p.a, z) * u_n,
        rat_pow(p.a, -z1) * u_n,
        p.c * rat_pow(p.b, z) * u_prev,
    ).scaled(scale)
