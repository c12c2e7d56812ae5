"""Logarithmic-time term evaluation.

Two independent fast routes are provided next to the linear-time oracle:

* ``matrix`` -- binary powers of the period-2 transfer matrix, which
  advances a pair of consecutive terms by one full period of the recurrence;
* ``doubling`` -- index doubling on the pair (u(n), u(n+1)), driven by the
  addition identities of the u-sequence.

Both must agree with the oracle exactly, on every input; the test suite
enforces the three-way agreement.  Negative indices always route through the
positive-index fast path plus the closed reflection formulas, so the backward
recurrence stays oracle-only.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .core import (
    Params,
    SequenceKind,
    initial_pair,
    reflect_u,
    reflect_v,
    reflect_w,
    term_naive,
    v_from_u_terms,
    w_from_u_terms,
)
from .exact import Mat2, OpCounter, Rational, mat_pow

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


def uv_doubling(
    p: Params, n: int, counter: OpCounter | None = None
) -> tuple[Rational, Rational]:
    """The pair (u(n), u(n+1)) in O(log n) multiplications, n >= 0.

    One halving level maps (u(k), u(k+1)) to the pair at index 2k:

        u(2k)   = u(k) * (u(k+1) + c * u(k-1)),
        u(2k+1) = (b/a)^zeta(k) u(k+1)^2 + (b/a)^zeta(k+1) c u(k)^2,

    with u(k-1) recovered from one recurrence step; a set bit then advances
    the pair by a single forward step.  Bits are consumed most significant
    first.  The counter, when given, accrues the exact number of rational
    multiplications/divisions performed.
    """
    if n < 0:
        raise ValueError("doubling is defined for n >= 0")
    u_k: Rational = Fraction(0)
    u_k1: Rational = Fraction(1)
    if n == 0:
        return u_k, u_k1
    ratio = p.b / p.a
    if counter is not None:
        counter.add(1)
    k = 0
    for bit in bin(n)[2:]:
        step_coeff = p.a if k % 2 else p.b
        u_prev = (u_k1 - step_coeff * u_k) / p.c
        u_even = u_k * (u_k1 + p.c * u_prev)
        if k % 2:
            u_odd = ratio * (u_k1 * u_k1) + p.c * (u_k * u_k)
        else:
            u_odd = u_k1 * u_k1 + ratio * (p.c * (u_k * u_k))
        if counter is not None:
            counter.add(8)
        k, u_k, u_k1 = 2 * k, u_even, u_odd
        if bit == "1":
            u_k, u_k1 = u_k1, p.a * u_k1 + p.c * u_k
            k += 1
            if counter is not None:
                counter.add(2)
    return u_k, u_k1


def term_matrix(
    p: Params, kind: SequenceKind, n: int, counter: OpCounter | None = None
) -> Rational:
    """Term at any integer index via binary powers of the period-2 transfer matrix.

    P = [[a, c], [1, 0]] [[b, c], [1, 0]] = [[ab + c, ac], [b, c]] maps
    (x(j+1), x(j)) to (x(j+3), x(j+2)) for odd j.  One single step takes the
    kind's initial pair to (x(2), x(1)), and P^m with m = (k-1)//2 takes that
    to (x(2m+2), x(2m+1)), so x(k) for k >= 1 is read from the top row when
    k is even and from the bottom row when k is odd.  Negative indices use
    the reflection formulas: u(-k) and v(-k) reflect the term at k, and
    w(-k) reflects u(k) and u(k+1), the second read from the other row or
    one more step.  No entry is rescaled, so positive indices need no division.
    """
    if n == 0:
        return initial_pair(p, kind)[0]
    if n < 0 and kind is not SequenceKind.W:
        reflect = reflect_u if kind is SequenceKind.U else reflect_v
        return reflect(p, -n, term_matrix(p, kind, -n, counter))
    k = abs(n)
    x0, x1 = initial_pair(p, kind if n > 0 else SequenceKind.U)
    x2 = p.a * x1 + p.c * x0
    transfer = Mat2(p.a * p.b + p.c, p.a * p.c, p.b, p.c)
    power = mat_pow(transfer, (k - 1) // 2, counter)
    if n > 0:
        if counter is not None:
            counter.add(6)
        if k % 2:
            return power.m21 * x2 + power.m22 * x1
        return power.m11 * x2 + power.m12 * x1
    top = power.m11 * x2 + power.m12 * x1
    bottom = power.m21 * x2 + power.m22 * x1
    if counter is not None:
        counter.add(8 if k % 2 else 10)
    if k % 2:
        return reflect_w(p, k, bottom, top)
    return reflect_w(p, k, top, p.b * top + p.c * bottom)


def term_doubling(
    p: Params, kind: SequenceKind, n: int, counter: OpCounter | None = None
) -> Rational:
    """Term at any integer index via pair doubling on the u-sequence."""
    if kind is SequenceKind.U:
        if n >= 0:
            return uv_doubling(p, n, counter)[0]
        return reflect_u(p, -n, uv_doubling(p, -n, counter)[0])
    if kind is SequenceKind.V:
        if n == 0:
            return Fraction(2)
        if n < 0:
            return reflect_v(p, -n, term_doubling(p, kind, -n, counter))
        u_prev, u_n = uv_doubling(p, n - 1, counter)
        return v_from_u_terms(p, n, u_n, u_prev)
    if n == 0:
        return p.w0
    if n < 0:
        u_n, u_next = uv_doubling(p, -n, counter)
        return reflect_w(p, -n, u_n, u_next)
    u_prev, u_n = uv_doubling(p, n - 1, counter)
    return w_from_u_terms(p, n, u_n, u_prev)


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
    multiplications on term-sized values).
    """
    if method is Method.NAIVE:
        return term_naive(p, kind, n, counter)
    if method is Method.MATRIX:
        return term_matrix(p, kind, n, counter)
    return term_doubling(p, kind, n, counter)
