"""Benchmark of the biperiodic library: one workload per process, closed loop.

    python3 perfbench/run.py --workload term_bignum --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One caller issues the workload's requests one after another, each
when the previous one returns, until ``--seconds`` have passed and every
request has run at least once.  Each result is checked outside the timed
region.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, taken with tracing off; the
gated times are divided by the time of a reference computation run in
between, which removes most of the machine's own drift in speed.
``--trace 1`` runs each request untraced and then traced, pass after pass,
and reports the per-layer metrics of the traced calls (medians over passes)
and the tracing overhead, and writes the spans of the last pass to
``perfbench/out/spans-<workload>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from array import array
from fractions import Fraction
from statistics import geometric_mean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Timed fresh interpreters per run for setup_s, after one untimed start that
# leaves the bytecode cache warm, as every later start of the CLI finds it.
SETUP_RUNS = 15
SETUP_CODE = "import biperiodic, biperiodic.cli; biperiodic.cli.build_parser()"

END_TO_END = (
    ("setup_s", "s"),
    ("batch_ref", "ref"),
    ("call_geomean_ref", "ref"),
    ("peak_rss_mb", "MB"),
)

# The reference: fixed work that no change to the library can alter, made of
# the three kinds of work the workloads do (an interpreter loop, small-rational
# and bignum-rational Fraction arithmetic).  It runs between requests, about
# every REFERENCE_EVERY_S of the run, so its median tracks how fast the machine
# is during this very run.
REFERENCE_EVERY_S = 0.5
_REF_X = Fraction(3 ** 4000, 7 ** 3000)
_REF_Y = Fraction(5 ** 3600, 11 ** 2800)


def reference() -> float:
    """Seconds taken by one round of the reference work."""
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    small = Fraction(0)
    for i in range(1, 600):
        small += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 4 + 1)
    for _ in range(3):
        _REF_X * _REF_Y + _REF_X / _REF_Y
    return time.perf_counter() - start


class Tally:
    """Operations attempted and failed over a run, with the first failure kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def record(self, request, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"{request.key} ({request.route}): {error}"


def issue(workload, request, tally: Tally, tracer=None, index: int = 0) -> float:
    """One timed call of the request, then its check; returns the call's seconds."""
    counter = tracer.begin_request(index) if tracer is not None else None
    start = time.perf_counter()
    try:
        result = workload.call(request, counter)
    except Exception:
        error = traceback.format_exc()
    else:
        error = None
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_request()
    if error is None:
        try:
            if not workload.check(request, result):
                error = "result differs from the expected value"
            elif tracer is not None:
                tracer.add_counts(workload.trace_counts(result))
        except Exception:
            error = traceback.format_exc()
    tally.record(request, error)
    return elapsed


def warm_up(workload) -> None:
    """One untimed call, so first-call costs of the process (argparse, regex and
    codec caches) fall outside every timed pass."""
    workload.call(workload.requests[0])


def untraced_run(workload, seconds: float, tally: Tally, setup_runs: int):
    """End-to-end metrics: set-up time, then the closed loop with tracing off."""
    setup_s = measure_setup(setup_runs)
    warm_up(workload)
    requests = workload.requests
    # Compact float arrays, so the samples kept add little to peak_rss_mb.
    times: dict = {request: array("d") for request in requests}
    references = [reference()]
    next_reference = time.perf_counter() + REFERENCE_EVERY_S
    deadline = time.perf_counter() + seconds
    issued = 0
    while issued < len(requests) or time.perf_counter() < deadline:
        request = requests[issued % len(requests)]
        times[request].append(issue(workload, request, tally))
        issued += 1
        if time.perf_counter() >= next_reference:
            references.append(reference())
            next_reference = time.perf_counter() + REFERENCE_EVERY_S
    # One median per request, so a cut-off last pass does not tilt the mix.
    per_request = [median(ts) for ts in times.values()]
    batch_s = sum(per_request)
    call_geomean_s = geometric_mean(per_request)
    reference_s = median(references)
    metrics = {
        "setup_s": setup_s,
        "batch_ref": batch_s / reference_s,
        "call_geomean_ref": call_geomean_s / reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "batch_s": (batch_s, "s"),
        "call_ms_geomean": (call_geomean_s * 1e3, "ms"),
        "reference_ms": (reference_s * 1e3, "ms"),
        "references": (len(references), "count"),
        "passes": (issued / len(requests), "count"),
        **workload.breakdown(times),
    }
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, details


def traced_run(workload, seconds: float, tally: Tally):
    """Per-layer metrics: each request runs untraced, then traced, pass after pass."""
    import tracing

    warm_up(workload)
    layers, untraced_passes, traced_passes = [], [], []
    deadline = time.perf_counter() + seconds
    while not layers or time.perf_counter() < deadline:
        tracer = tracing.Tracer()
        untraced = traced = 0.0
        for index, request in enumerate(workload.requests):
            untraced += issue(workload, request, tally)
            with tracer:
                traced += issue(workload, request, tally, tracer, index)
        # Paired per request, so a slow spell of the machine hits both sides.
        layers.append({**tracer.layer_metrics(), "trace.overhead_s": traced - untraced})
        untraced_passes.append(untraced)
        traced_passes.append(traced)
    values = tracing.median_metrics(layers)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload.name}.jsonl.gz")
    tracer.write(spans_path)
    print(f"spans of the last traced pass: {os.path.relpath(spans_path, ROOT)}")
    details = {
        "passes": (len(layers), "count"),
        "untraced_pass_s": (median(untraced_passes), "s"),
        "traced_pass_s": (median(traced_passes), "s"),
    }
    return {name: (values[name], unit) for name, unit in tracing.PER_LAYER}, details


def measure_setup(runs: int) -> float:
    """Median wall time of a fresh interpreter importing the package and the CLI parser."""
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, "-c", SETUP_CODE]
    times = []
    for attempt in range(runs + 1):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if attempt:
            times.append(time.perf_counter() - start)
    return median(times)


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git": _git_sha(),
        "seed": seed,
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, or 'unknown' when the checkout is not its own git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
        return out[1]
    return "unknown"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["term_bignum", "term_small", "verify_suite"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; every request still runs at least once")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few requests per workload, for the benchmark's self-test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "biperiodic", "__init__.py")):
        print(f"error: no biperiodic package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    print("env " + json.dumps(environment(args.seed)))
    print(f"workload {args.workload}: {len(workload.requests)} requests per pass")
    tally = Tally()
    if args.trace:
        metrics, details = traced_run(workload, args.seconds, tally)
    else:
        metrics, details = untraced_run(workload, args.seconds, tally,
                                        1 if args.tiny else SETUP_RUNS)
    for name, (value, unit) in {**metrics, **details}.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print(f"  {'ops_attempted':<32} {tally.attempted:>16} count")
    print(f"  {'ops_failed':<32} {tally.failed:>16} count")
    if tally.first_failure:
        print(f"first failure: {tally.first_failure}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
