from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from biperiodic.core import Params

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

# the worked-example parameter point used throughout: a=2, b=3, c=1, w0=w1=1
P_STAR = Params(2, 3, 1, 1, 1)


@pytest.fixture
def p_star() -> Params:
    return P_STAR


def random_params(rng: random.Random, bound: int = 5, integer_w: bool = False) -> Params:
    """One random parameter point with nonzero a, b, c."""

    def nonzero() -> Fraction:
        while True:
            value = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            if value != 0:
                return value

    def any_rational() -> Fraction:
        if integer_w:
            return Fraction(rng.randint(-bound, bound))
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    return Params(nonzero(), nonzero(), nonzero(), any_rational(), any_rational())


@contextmanager
def no_digit_limit():
    """Lift the int<->str digit limit of Python >= 3.10.7 for the block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)
