"""The benchmark's workloads: request sets drawn from a seed, and their checks.

A workload is a fixed list of requests.  The closed loop in ``run.py`` issues
them one at a time, in list order, over and over, each request when the
previous one returns.  ``call`` is the timed part; ``check`` runs after the
clock stops and compares the outcome with a value fixed outside the timed
region, so no timed call ever checks itself.

* ``term_bignum``: ``term_doubling`` and ``term_matrix`` at |n| near 2^16 for
  kinds U, V, W, both signs and both parities, at three fixed points.  Each
  result must hash to a frozen digest (``expected.json``), so both routes
  agree with each other and with the commit that froze them.
* ``term_small``: ``term_fast`` at 1 <= |n| <= 64 with every kind, method and
  index taken equally often, half on seeded random rationals and half on
  catalog names resolved inside the timed call; each result must equal
  ``term_naive``.
* ``verify_suite``: ``cli.main(["verify", "--suite", "all", ...])`` with
  stdout captured, in a shallow and a deep configuration for verify seeds
  drawn from a frozen pool; each call must exit 0, report no failure, and
  print JSON whose sha256 is frozen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from statistics import median

from biperiodic import catalog, cli, fastpath
from biperiodic.core import Params, SequenceKind, term_naive
from biperiodic.exact import OpCounter
from biperiodic.fastpath import Method

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# term_bignum: the integer point, the worked point P* and a rational point.
BIGNUM_POINTS = {
    "fibonacci": Params(1, 1, 1, 0, 1),
    "pstar": Params(2, 3, 1, 1, 1),
    "rational": Params(Fraction(1, 2), 3, Fraction(-2, 5), 1, 1),
}
# |n| = 2^16 + offset; the seed picks one offset per (point, kind, sign, parity).
BIGNUM_BASE = 1 << 16
BIGNUM_OFFSETS = {0: (0, 40, 170, 510), 1: (1, 41, 171, 511)}
BIGNUM_METHODS = (Method.DOUBLING, Method.MATRIX)

# term_small: catalog names, mixed with random points of the run_suite grid.
SMALL_NAMES = (
    "fibonacci", "lucas", "pell", "pell-lucas", "jacobsthal", "jacobsthal-lucas",
    "k-fibonacci(3)", "k-lucas(2)", "k-lucas-classical(5/2)", "horadam(2,1,3,-2)",
    "biperiodic-fibonacci(2,3)", "biperiodic-lucas(1/2,3)",
    "biperiodic-horadam(1,1,2,-3)", "generalized-biperiodic-fibonacci(2,3,1)",
    "generalized-biperiodic-lucas(1/2,3,-2/5)",
)
SMALL_MAX_INDEX = 64
SMALL_BOUND = 5

# verify_suite: (samples, max index) per configuration, and the frozen pool
# of verify seeds from which each run draws VERIFY_SEEDS_PER_RUN.
VERIFY_CONFIGS = {"shallow": (100, 8), "deep": (25, 24)}
VERIFY_TINY_CONFIGS = {"shallow": (4, 8), "deep": (2, 24)}
VERIFY_SEED_POOL = tuple(range(12))
VERIFY_SEEDS_PER_RUN = 8


@dataclass(frozen=True)
class Request:
    """One call of a workload; ``route`` groups requests for the breakdown."""

    route: str
    key: str
    args: tuple


def value_digest(value: Fraction) -> str:
    """sha256 of a rational's (numerator, denominator) bytes, free of int->str limits."""
    num, den = value.numerator, value.denominator
    num_bytes = num.to_bytes(num.bit_length() // 8 + 1, "big", signed=True)
    den_bytes = den.to_bytes(den.bit_length() // 8 + 1, "big")
    return hashlib.sha256(len(num_bytes).to_bytes(8, "big") + num_bytes + den_bytes).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class TermBignum:
    name = "term_bignum"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = random.Random(seed)
        self.expected = load_expected()["term_bignum"]
        points = ("fibonacci",) if tiny else tuple(BIGNUM_POINTS)
        self.requests = []
        for point in points:
            for kind in SequenceKind:
                for sign in (1, -1):
                    for parity in (0, 1):
                        n = sign * (BIGNUM_BASE + rng.choice(BIGNUM_OFFSETS[parity]))
                        for method in BIGNUM_METHODS:
                            self.requests.append(
                                Request(method.value, bignum_key(point, kind, n),
                                        (BIGNUM_POINTS[point], kind, n, method)))
        rng.shuffle(self.requests)

    @staticmethod
    def call(request: Request, counter: OpCounter | None = None):
        p, kind, n, method = request.args
        if method is Method.DOUBLING:
            return fastpath.term_doubling(p, kind, n, counter)
        return fastpath.term_matrix(p, kind, n, counter)

    def check(self, request: Request, result) -> bool:
        return value_digest(result) == self.expected[request.key]

    @staticmethod
    def trace_counts(result) -> dict[str, int]:
        return {"fastpath.result_bits": _bits(result)}

    @staticmethod
    def breakdown(times: dict[Request, list[float]]) -> dict[str, tuple[float, str]]:
        """Batch time per method, so a doubling change is not hidden under matrix time."""
        return {
            f"bignum_{method.value}_s": (
                sum(median(ts) for r, ts in times.items() if r.route == method.value), "s")
            for method in BIGNUM_METHODS
        }


def bignum_key(point: str, kind: SequenceKind, n: int) -> str:
    return f"{point}/{kind.value}/{n}"


class TermSmall:
    name = "term_small"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = random.Random(seed)
        indices = [n for n in range(-SMALL_MAX_INDEX, SMALL_MAX_INDEX + 1) if n]
        if tiny:
            indices = rng.sample(indices, 2)
        self.requests = []
        self.expected: dict[Request, Fraction] = {}
        for kind in SequenceKind:
            for method in Method:
                for n in indices:
                    for source in ("random", "catalog"):
                        if source == "random":
                            p = _random_params(rng)
                            args = (p, None, kind, n, method)
                        else:
                            name = rng.choice(SMALL_NAMES)
                            p = catalog.lookup(name).params
                            args = (None, name, kind, n, method)
                        request = Request(method.value, f"{source}:{len(self.requests)}", args)
                        self.requests.append(request)
                        self.expected[request] = term_naive(p, kind, n)
        rng.shuffle(self.requests)

    @staticmethod
    def call(request: Request, counter: OpCounter | None = None):
        p, name, kind, n, method = request.args
        if name is not None:
            p = catalog.lookup(name).params
        return fastpath.term_fast(p, kind, n, method, counter)

    def check(self, request: Request, result) -> bool:
        return result == self.expected[request]

    @staticmethod
    def trace_counts(result) -> dict[str, int]:
        return {"fastpath.result_bits": _bits(result)}

    @staticmethod
    def breakdown(times: dict[Request, list[float]]) -> dict[str, tuple[float, str]]:
        """Per-call figures over every timed call, and the median per method."""
        calls = sorted(t for ts in times.values() for t in ts)
        figures = {
            "small_calls": (len(calls), "count"),
            "small_calls_per_s": (len(calls) / sum(calls), "1/s"),
            "small_call_us_p50": (median(calls) * 1e6, "us"),
            "small_call_us_p99": (calls[int(0.99 * len(calls))] * 1e6, "us"),
        }
        for method in Method:
            method_calls = [t for r, ts in times.items() if r.route == method.value for t in ts]
            figures[f"small_{method.value}_us_p50"] = (median(method_calls) * 1e6, "us")
        return figures


def _bits(value: Fraction) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def _random_params(rng: random.Random) -> Params:
    """A point of the run_suite grid: |numerator| <= 5, 1 <= denominator <= 5."""

    def nonzero() -> Fraction:
        num = 0
        while num == 0:
            num = rng.randint(-SMALL_BOUND, SMALL_BOUND)
        return Fraction(num, rng.randint(1, SMALL_BOUND))

    def any_value() -> Fraction:
        return Fraction(rng.randint(-SMALL_BOUND, SMALL_BOUND), rng.randint(1, SMALL_BOUND))

    return Params(nonzero(), nonzero(), nonzero(), any_value(), any_value())


class VerifySuite:
    name = "verify_suite"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = random.Random(seed)
        self.expected = load_expected()["verify_suite"]
        configs = VERIFY_TINY_CONFIGS if tiny else VERIFY_CONFIGS
        prefix = "tiny-" if tiny else ""
        seeds = rng.sample(VERIFY_SEED_POOL, 1 if tiny else VERIFY_SEEDS_PER_RUN)
        self.requests = [
            Request(config, f"{prefix}{config}/{verify_seed}",
                    verify_argv(verify_seed, *configs[config]))
            for verify_seed in seeds
            for config in configs
        ]
        rng.shuffle(self.requests)

    @staticmethod
    def call(request: Request, counter: OpCounter | None = None):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(request.args))
        return code, out.getvalue()

    def check(self, request: Request, result) -> bool:
        code, text = result
        if code != 0 or json.loads(text)["failed"] != 0:
            return False
        return hashlib.sha256(text.encode()).hexdigest() == self.expected[request.key]

    @staticmethod
    def trace_counts(result) -> dict[str, int]:
        return {"cli.output_bytes": len(result[1].encode())}

    @staticmethod
    def breakdown(times: dict[Request, list[float]]) -> dict[str, tuple[float, str]]:
        """Median wall time of one cli.main call per configuration."""
        return {
            f"verify_{config}_s": (
                median(median(ts) for r, ts in times.items() if r.route == config), "s")
            for config in VERIFY_CONFIGS
        }


def verify_argv(verify_seed: int, samples: int, max_index: int) -> tuple[str, ...]:
    return ("verify", "--suite", "all", "--report", "json", "--seed", str(verify_seed),
            "--samples", str(samples), "--max-index", str(max_index))


WORKLOADS = {w.name: w for w in (TermBignum, TermSmall, VerifySuite)}
