"""Spans around the public functions of each ``biperiodic`` module.

The tracer never edits the package: it swaps a recording wrapper into every
module namespace that binds a traced function (``identities`` binds
``term_naive`` by name, ``fastpath`` binds ``mat_mul``, and so on), and puts
the originals back when the traced call returns.  Each call records one span
(name, parent span, request id, start, end) in memory; self time is a span's
duration minus the durations of its direct children, which is exact because
the benchmark is single-threaded and spans nest.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from statistics import median

from biperiodic.exact import OpCounter

# Traced functions: (module, function, span name, count hook).  A count hook
# maps (positional args, result) to (count name, amount) pairs.
_TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("exact", "mat_mul", "exact.mat_mul", None),
    ("exact", "mat_pow", "exact.mat_pow", None),
    ("exact", "mat_inv", "exact.mat_inv", None),
    ("exact", "rat_pow", "exact.rat_pow", None),
    ("core", "term_naive", "core.term_naive",
     lambda args, result: (("core.term_naive.steps", abs(args[2])),)),
    ("core", "term_range", "core.term_range",
     lambda args, result: (("core.term_range.terms", args[3] - args[2] + 1),)),
    ("core", "reflect_u", "core.reflect", None),
    ("core", "reflect_v", "core.reflect", None),
    ("core", "reflect_w", "core.reflect", None),
    ("matforms", "build", "matforms.build", None),
    ("fastpath", "uv_doubling", "fastpath.uv_doubling", None),
    ("fastpath", "term_doubling", "fastpath.term_doubling", None),
    ("fastpath", "term_matrix", "fastpath.term_matrix", None),
    ("identities", "check_u_identity", "identities.L1", None),
    ("identities", "check_uv_identity", "identities.L2", None),
    ("identities", "check_partial_sum", "identities.SUM", None),
    ("identities", "check_binomial", "identities.BINOM", None),
    ("identities", "check_cassini", "identities.CASSINI_W", None),
    ("identities", "check_addition", "identities.ADDITION", None),
    ("identities", "check_catalan", "identities.CATALAN", None),
    ("identities", "check_product_sum", "identities.PRODSUM", None),
    ("identities", "check_square_sum", "identities.COR31", None),
    ("identities", "check_square_difference", "identities.T34", None),
    ("identities", "sum_direct", "identities.sum_direct", None),
    ("identities", "sum_closed", "identities.sum_closed", None),
    ("identities", "sum_oracle", "identities.sum_oracle", None),
    ("identities", "run_suite", "identities.run_suite",
     lambda args, result: (
         ("identities.checks", len(result.results)),
         ("identities.skips", len(result.skipped)),
         ("identities.failed", result.failed),
     )),
    ("catalog", "lookup", "catalog.lookup", None),
    ("cli", "main", "cli.main", None),
)

_FAMILIES = ("L1", "L2", "SUM", "BINOM", "CASSINI_W", "ADDITION", "CATALAN",
             "PRODSUM", "COR31", "T34")

# Every per-layer metric a traced run reports, with its unit, in print order.
# Names are <span>.<stat>: calls, self_s (duration minus child spans) or s
# (whole duration); the rest are counts recorded at the same boundaries.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("fastpath.term_doubling.calls", "count"),
    ("fastpath.term_doubling.self_s", "s"),
    ("fastpath.uv_doubling.calls", "count"),
    ("fastpath.uv_doubling.self_s", "s"),
    ("fastpath.term_matrix.calls", "count"),
    ("fastpath.term_matrix.self_s", "s"),
    ("fastpath.result_bits", "bits"),
    ("exact.opcounter.muls", "count"),
    ("exact.mat_pow.calls", "count"),
    ("exact.mat_pow.self_s", "s"),
    ("exact.mat_mul.calls", "count"),
    ("exact.mat_mul.self_s", "s"),
    ("exact.mat_inv.calls", "count"),
    ("exact.rat_pow.calls", "count"),
    ("exact.rat_pow.self_s", "s"),
    ("matforms.build.calls", "count"),
    ("matforms.build.self_s", "s"),
    ("core.term_naive.calls", "count"),
    ("core.term_naive.steps", "count"),
    ("core.term_naive.self_s", "s"),
    ("core.term_range.calls", "count"),
    ("core.term_range.terms", "count"),
    ("core.term_range.self_s", "s"),
    ("core.reflect.calls", "count"),
    ("core.reflect.self_s", "s"),
    ("identities.run_suite.calls", "count"),
    *((f"identities.{family}.s", "s") for family in _FAMILIES),
    ("identities.sum_direct.s", "s"),
    ("identities.sum_closed.s", "s"),
    ("identities.sum_oracle.s", "s"),
    ("identities.checks", "count"),
    ("identities.skips", "count"),
    ("identities.failed", "count"),
    ("catalog.lookup.calls", "count"),
    ("catalog.lookup.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans while installed; enter it around each traced call.

    Spans and counts accumulate over every entry, so one tracer covers a pass.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, request, start_ns, end_ns]
        self.counts: dict[str, int] = defaultdict(int)
        self.request = -1
        self._counter = OpCounter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if name == "biperiodic" or name.startswith("biperiodic.")]
        for module_name, func_name, span_name, hook in _TARGETS:
            original = getattr(sys.modules[f"biperiodic.{module_name}"], func_name)
            wrapper = self._wrap(span_name, original, hook)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._restore.append((module, func_name, original))
                    setattr(module, func_name, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, func_name, original in reversed(self._restore):
            setattr(module, func_name, original)
        self._restore.clear()

    def _wrap(self, name: str, func: Callable, hook: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.request, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                for count_name, amount in hook(args, result):
                    counts[count_name] += amount
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def begin_request(self, request: int) -> OpCounter:
        """Open the benchmark's own root span for one request; returns its mul counter."""
        self.request = request
        self._counter = OpCounter()
        self._stack.append(len(self.spans))
        self.spans.append(["request", -1, request, time.perf_counter_ns(), 0])
        return self._counter

    def end_request(self) -> None:
        self.spans[self._stack.pop()][4] = time.perf_counter_ns()
        self.counts["exact.opcounter.muls"] += self._counter.muls

    def add_counts(self, counts: dict[str, int]) -> None:
        for name, amount in counts.items():
            self.counts[name] += amount

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of this tracer's pass, keyed as in PER_LAYER."""
        calls: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for name, parent, _request, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        for (name, _parent, _request, start, end), inner in zip(self.spans, child_ns):
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - inner
        values: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            span, _, stat = metric.rpartition(".")
            if stat == "calls":
                values[metric] = calls[span]
            elif stat == "self_s":
                values[metric] = self_ns[span] / 1e9
            elif stat == "s":
                values[metric] = total_ns[span] / 1e9
            else:
                values[metric] = self.counts[metric]
        values["trace.spans"] = len(self.spans)
        return values

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines: id, parent, request, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, (name, parent, request, start, end) in enumerate(self.spans):
                out.write(json.dumps([index, parent, request, name, start, end]) + "\n")


def median_metrics(passes: Iterable[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced passes of one run."""
    passes = list(passes)
    return {name: median(p[name] for p in passes) for name in passes[0]}
