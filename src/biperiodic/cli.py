"""Command-line interface.

Subcommands:

* ``term``     one term of a sequence
* ``gen``      a contiguous run of terms
* ``verify``   run identity suites over seeded samples
* ``bench``    cross-check and time the evaluation methods
* ``catalog``  list the named sequences

All numeric input is exact -- integers or ``p/q`` literals, never decimals;
a negative literal such as ``--c -2/5`` is a value.  Rationals render as
``num/den`` (``/den`` omitted for an integer) at any size through
:func:`biperiodic.exact.to_text`, which leaves the interpreter's int -> str
digit limit, and with it input parsing, as it is.  Exit codes: 0 success, 1
verification or cross-check failure, 2 usage or parameter error, or any other
error, and 141 (what a shell reports for SIGPIPE) when the reader of stdout
goes away, as in ``biperiodic gen ... | head``; that exit is silent.

The linear-time walks (``term --method naive``, ``gen``, ``bench`` with the
naive method) refuse any index beyond ``_NAIVE_INDEX_CAP`` (10^7) in absolute
value with exit code 2, before any work is done.  ``verify`` refuses a
``--max-index`` above ``_VERIFY_INDEX_CAP`` (128) the same way: its work grows
steeply with the index (``--suite all --samples 3`` at the default seed takes
about 0.17 s at 64 and 0.53 s at 128 on 2 vCPUs).  It also refuses
``--samples`` above ``_VERIFY_SAMPLE_CAP`` (10^4): time and memory grow
linearly with the samples, and every report is held until the run ends
(``--suite all --samples 10000 --report json`` at the default index bound
takes about 13 s and 340 MB on 2 vCPUs, for 39 MB of output).  ``bench``
refuses a ``--repeat`` above ``_BENCH_REPEAT_CAP`` (1000) the same way: each
repeat is one more timed call per index and method, and every timing is held
until the median is taken.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from collections import Counter
from statistics import median

from .catalog import UnknownSequenceError, entries, extra_entries, lookup
from .core import Params, SequenceKind, table_notation, term_range
from .exact import OpCounter, parse_rational, to_text
from .fastpath import Method, term_fast
from .identities import Family, SuiteConfig, SuiteSummary, run_suite

__all__ = ["main", "run", "build_parser"]

_NAIVE_INDEX_CAP = 10_000_000
_VERIFY_INDEX_CAP = 128
_VERIFY_SAMPLE_CAP = 10_000
_BENCH_REPEAT_CAP = 1000
_EXIT_BROKEN_PIPE = 141

_SUITES: dict[str, tuple[Family, ...]] = {
    "all": tuple(Family),
    "l1": (Family.L1,),
    "l2": (Family.L2,),
    "sum": (Family.SUM,),
    "binom": (Family.BINOM,),
    "cassini": (Family.CASSINI_W,),
    "addition": (Family.ADDITION,),
    "catalan": (Family.CATALAN,),
    "prodsum": (Family.PRODSUM, Family.COR31, Family.T34),
}


class CliError(Exception):
    """A usage or parameter problem; mapped to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reads a negative ``p/q`` literal, as in ``--c -2/5``, as a value."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)  # subparsers are of this class too
        self._negative_number_matcher = re.compile(r"^-\d+(?:/\d+)?$|^-\d*\.\d+$")


def _refuse_naive_index(n: int) -> None:
    """Reject a linear-time walk to index n before any of it is done."""
    if abs(n) > _NAIVE_INDEX_CAP:
        raise CliError(
            f"the linear walk takes |n| steps; refusing |n| > {_NAIVE_INDEX_CAP}"
        )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _rational(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _method(text: str) -> Method:
    try:
        return Method(text)
    except ValueError:
        valid = ", ".join(m.value for m in Method)
        raise argparse.ArgumentTypeError(f"unknown method {text!r} (valid: {valid})") from None


def _comma_list(parse_piece, noun: str):
    """An argparse type for a comma list of pieces; blanks are dropped."""

    def parse(text: str) -> list:
        pieces = [piece.strip() for piece in text.split(",") if piece.strip()]
        if not pieces:
            raise argparse.ArgumentTypeError(f"empty {noun} list")
        return [parse_piece(piece) for piece in pieces]

    return parse


def _add_sequence_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seq", help="catalog name, e.g. fibonacci or k-fibonacci(3)")
    parser.add_argument("--a", type=_rational, help="even-index coefficient (nonzero)")
    parser.add_argument("--b", type=_rational, help="odd-index coefficient (nonzero)")
    parser.add_argument("--c", type=_rational, help="second-order coefficient (nonzero)")
    parser.add_argument("--w0", type=_rational, help="w-kind initial term at index 0")
    parser.add_argument("--w1", type=_rational, help="w-kind initial term at index 1")
    parser.add_argument(
        "--kind",
        choices=[k.value for k in SequenceKind],
        help="initial-value convention (default: w, or the catalog entry's kind)",
    )


def _resolve_sequence(args: argparse.Namespace) -> tuple[Params, SequenceKind]:
    explicit = (args.a, args.b, args.c)
    if args.seq:
        if any(value is not None for value in (*explicit, args.w0, args.w1)):
            raise CliError("give either --seq or explicit --a/--b/--c/--w0/--w1, not both")
        try:
            named = lookup(args.seq)
        except UnknownSequenceError as exc:
            raise CliError(str(exc)) from None
        kind = SequenceKind(args.kind) if args.kind else named.kind
        return named.params, kind
    if any(value is None for value in explicit):
        raise CliError("provide --seq NAME or all of --a, --b, --c")
    try:
        params = Params(
            args.a,
            args.b,
            args.c,
            args.w0 if args.w0 is not None else 0,
            args.w1 if args.w1 is not None else 1,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    kind = SequenceKind(args.kind) if args.kind else SequenceKind.W
    return params, kind


def cmd_term(args: argparse.Namespace) -> int:
    if args.method == Method.NAIVE.value:
        _refuse_naive_index(args.index)
    params, kind = _resolve_sequence(args)
    text = to_text(term_fast(params, kind, args.index, Method(args.method)))
    if args.format == "json":
        text = json.dumps({"n": args.index, "value": text})
    elif args.format == "csv":
        text = f"n,value\n{args.index},{text}"
    print(text)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    _refuse_naive_index(max(abs(args.start), abs(args.stop)))
    params, kind = _resolve_sequence(args)
    if args.start > args.stop:
        raise CliError("--from must not exceed --to")
    values = term_range(params, kind, args.start, args.stop)
    rows = list(zip(range(args.start, args.stop + 1), map(to_text, values)))
    if args.format == "json":
        text = json.dumps([{"n": n, "value": v} for n, v in rows])
    elif args.format == "plain":
        text = "\n".join(f"{n}\t{v}" for n, v in rows)
    else:
        text = "n,value\n" + "\n".join(f"{n},{v}" for n, v in rows)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from None
    else:
        print(text)
    return 0


def _print_plain_verify(summary: SuiteSummary, suite: str) -> None:
    print(f"suite={suite} seed={summary.seed} samples={summary.samples}")
    totals = Counter(str(report.id) for report in summary.results)
    passes = Counter(str(report.id) for report in summary.results if report.passed)
    for name, total in totals.items():  # first-seen order
        marker = "ok" if passes[name] == total else "FAIL"
        print(f"  {name:<12} {passes[name]}/{total} passed  [{marker}]")
    skips = Counter((str(record.id), record.reason) for record in summary.skipped)
    for (name, reason), count in sorted(skips.items()):
        print(f"  skipped {name} x{count}: {reason}")
    printed = [report for report in summary.results if report.printed_form_matches is not None]
    checks = Counter(str(report.id) for report in printed)
    mismatches = Counter(str(report.id) for report in printed if not report.printed_form_matches)
    for name, bad in sorted(mismatches.items()):
        print(
            f"  warning: printed-form mismatch for {name} in {bad}/{checks[name]} checks "
            "(simplified constant; informational only)"
        )
    print(f"passed={summary.passed} failed={summary.failed} skipped={len(summary.skipped)}")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_index > _VERIFY_INDEX_CAP:
        raise CliError(
            f"verify work grows steeply with the index; refusing --max-index > {_VERIFY_INDEX_CAP}"
        )
    if args.samples > _VERIFY_SAMPLE_CAP:
        raise CliError(
            f"verify holds every report until it ends; refusing --samples > {_VERIFY_SAMPLE_CAP}"
        )
    config = SuiteConfig(
        families=_SUITES[args.suite],
        samples=args.samples,
        seed=args.seed,
        max_index=args.max_index,
    )
    summary = run_suite(config)
    if args.report == "json":
        payload = summary.to_dict()
        payload["suite"] = args.suite
        # a fresh tree with no cycles, so the check would find nothing
        print(json.dumps(payload, check_circular=False))
    else:
        _print_plain_verify(summary, args.suite)
    return 1 if summary.failed else 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.repeat > _BENCH_REPEAT_CAP:
        raise CliError(
            f"each repeat is one more timed call per index and method; "
            f"refusing --repeat > {_BENCH_REPEAT_CAP}"
        )
    params, kind = _resolve_sequence(args)
    methods = args.methods
    if Method.NAIVE in methods:
        _refuse_naive_index(max(args.n_list))
    rows = []
    for n in args.n_list:
        seen: dict[Method, object] = {}
        for method in methods:
            counter = OpCounter()
            seen[method] = term_fast(params, kind, n, method, counter)  # counted, untimed
            times = []
            for _ in range(args.repeat):
                start = time.perf_counter()
                term_fast(params, kind, n, method)
                times.append(time.perf_counter() - start)
            rows.append(
                {
                    "method": method.value,
                    "n": n,
                    "muls": counter.muls,
                    "seconds": median(times),
                }
            )
        if len(set(seen.values())) > 1:
            print(f"error: methods disagree at n={n}", file=sys.stderr)
            return 1
    if args.format == "json":
        print(
            json.dumps(
                {
                    "sequence": table_notation(params),
                    "kind": kind.value,
                    "repeat": args.repeat,
                    "results": rows,
                }
            )
        )
    else:
        print(f"sequence {table_notation(params)} kind={kind.value} repeat={args.repeat}")
        print(f"{'method':<10} {'n':>10} {'muls':>12} {'seconds':>12}")
        for row in rows:
            print(
                f"{row['method']:<10} {row['n']:>10} {row['muls']:>12} "
                f"{row['seconds']:>12.6f}"
            )
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    def describe(entry):
        return {
            "name": entry.name_pattern,
            "notation": entry.notation,
            "kind": entry.kind.value,
            "display_name": entry.display_name,
        }

    rows = [describe(e) for e in entries()]
    extras = [describe(e) for e in extra_entries()]
    if args.format == "json":
        print(json.dumps({"entries": rows, "extra": extras}))
        return 0

    def print_rows(group):
        for row in group:
            print(
                f"{row['name']:<42} {row['notation']:<22} kind={row['kind']}  "
                f"{row['display_name']}"
            )

    print_rows(rows)
    print("extra lookup-only keys:")
    print_rows(extras)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="biperiodic",
        description="Exact evaluation and identity verification for bi-periodic "
        "Horadam sequences.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    term = commands.add_parser("term", help="print one term")
    _add_sequence_args(term)
    term.add_argument("-n", "--index", type=int, required=True, help="term index (any integer)")
    term.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default=Method.DOUBLING.value,
        help="evaluation strategy (default: doubling)",
    )
    term.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    term.set_defaults(handler=cmd_term)

    gen = commands.add_parser("gen", help="print a run of terms")
    _add_sequence_args(gen)
    gen.add_argument("--from", dest="start", type=int, required=True, help="first index")
    gen.add_argument("--to", dest="stop", type=int, required=True, help="last index (inclusive)")
    gen.add_argument("--format", choices=["csv", "json", "plain"], default="csv")
    gen.add_argument("--out", help="write to this file instead of stdout")
    gen.set_defaults(handler=cmd_gen)

    verify = commands.add_parser("verify", help="verify identity families")
    verify.add_argument("--suite", choices=sorted(_SUITES), default="all")
    verify.add_argument(
        "--samples",
        type=_positive_int,
        default=100,
        help=f"parameter points to sample (default 100, at most {_VERIFY_SAMPLE_CAP})",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--max-index",
        type=_positive_int,
        default=8,
        help=f"largest sampled index (default 8, at most {_VERIFY_INDEX_CAP})",
    )
    verify.add_argument("--report", choices=["plain", "json"], default="plain")
    verify.set_defaults(handler=cmd_verify)

    bench = commands.add_parser("bench", help="cross-check and time the methods")
    _add_sequence_args(bench)
    bench.add_argument(
        "--n-list",
        type=_comma_list(_positive_int, "index"),
        required=True,
        help="comma-separated indices, all >= 1",
    )
    bench.add_argument(
        "--methods",
        type=_comma_list(_method, "method"),
        default=[Method.MATRIX, Method.DOUBLING],
        help="comma-separated subset of naive,matrix,doubling",
    )
    bench.add_argument(
        "--repeat",
        type=_positive_int,
        default=1,
        help=f"timed calls per index and method (default 1, at most {_BENCH_REPEAT_CAP})",
    )
    bench.add_argument("--format", choices=["plain", "json"], default="plain")
    bench.set_defaults(handler=cmd_bench)

    catalog = commands.add_parser("catalog", help="list named sequences")
    catalog.add_argument("action", choices=["list"])
    catalog.add_argument("--format", choices=["plain", "json"], default="plain")
    catalog.set_defaults(handler=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader has gone.  Python flushes stdout once more at exit, so
        # point it at devnull to keep that flush quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_BROKEN_PIPE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
