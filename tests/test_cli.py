from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import biperiodic
import biperiodic.cli as cli
import biperiodic.identities as identities
from biperiodic.catalog import lookup
from biperiodic.cli import main
from biperiodic.fastpath import term_doubling
from conftest import no_digit_limit


# sha256 of the stdout of `verify --suite all --seed 7 --report json`; a change
# of any value, any draw or the report format changes it.
FIXED_SEED_REPORT_SHA256 = "0210a977479fb0f1f10eb7a660db27bec7a8e53937f12672c9a7c9464b72bf7e"
# The same for `verify --suite all --samples 5 --max-index 24 --seed 3 --report
# json`, whose SUM and BINOM checks read terms up to index about 600.
HIGH_INDEX_REPORT_ARGS = ["verify", "--suite", "all", "--samples", "5", "--max-index", "24",
                          "--seed", "3", "--report", "json"]
HIGH_INDEX_REPORT_SHA256 = "7a1e88a75631db88fb758ffc7fac44bb2254219467a0a7011eead50e569cd1ed"
# The same at the lowest index bound, `--samples 5 --max-index 1 --seed 3`: BINOM
# draws m from [2, 2] and SUM draws n and r from 0.
LOWEST_INDEX_REPORT_ARGS = ["verify", "--suite", "all", "--samples", "5", "--max-index", "1",
                            "--seed", "3", "--report", "json"]
LOWEST_INDEX_REPORT_SHA256 = "cf7afa0d255da261816d9ac439574416316b38b2edd677f72fe318ffcfe3ed5d"
# sha256 of the plain stdout of `verify --suite all --samples 30 --seed 11`: it
# has both SUM skip reasons and a printed-form warning for part of the SUM checks.
PLAIN_SKIP_REPORT_ARGS = ["verify", "--suite", "all", "--samples", "30", "--seed", "11"]
PLAIN_SKIP_REPORT_SHA256 = "6189eaa84ead9b75c4175c986d3dcaf3cc7de0e5f6297b938dcf3b7a4dcdc967"
# The same for the plain stdout of `verify --suite all --seed 7`.
PLAIN_FIXED_SEED_REPORT_SHA256 = "a806c84eb51f180cd934f72765f1669a19c308a1e0aaf58b0147b2c0cc7158a0"
# The same for the stdout of `catalog list`.
CATALOG_LIST_SHA256 = "5b6bea04cb3a076e58f9c341e95ae10bfcb781597e8db72db6e4bcfd1d00f59a"

CAP = cli._NAIVE_INDEX_CAP
README = Path(__file__).resolve().parents[1] / "README.md"


def refuse_work(*args, **kwargs):
    raise AssertionError("the command did work it should have refused")


class TestTerm:
    def test_worked_value(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = main(["term", "--a", "2", "--b", "3", "--c", "1", "--w0", "1", "--w1", "1", "--kind", "w", "-n", "5"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "79"

    def test_catalog_sequence(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["term", "--seq", "fibonacci", "--kind", "u", "-n", "10"]) == 0
        assert capsys.readouterr().out.strip() == "55"

    def test_negative_index(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["term", "--a", "2", "--b", "3", "--c", "1", "--kind", "u", "-n", "-2"]) == 0
        assert capsys.readouterr().out.strip() == "-2"

    def test_rational_output(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["term", "--a", "1/2", "--b", "3", "--c", "1", "--kind", "u", "-n", "4"]) == 0
        assert "/" in capsys.readouterr().out

    def test_json_format(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["term", "--seq", "fibonacci", "-n", "7", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n": 7, "value": "13"}

    def test_output_matches_library_rendering(self, capsys: pytest.CaptureFixture[str]) -> None:
        from biperiodic.core import Params, SequenceKind
        from biperiodic.fastpath import term_fast

        args = ["term", "--a=-2/3", "--b", "5", "--c", "1/7", "--kind", "v", "-n", "11"]
        assert main(args) == 0
        rendered = capsys.readouterr().out.strip()
        expected = term_fast(Params("-2/3", 5, "1/7"), SequenceKind.V, 11)
        assert rendered == str(expected)

    @pytest.mark.parametrize(
        "args",
        [
            ["--a", "1/2", "--b", "3", "--c", "-2/5", "--kind", "u", "-n", "-9"],
            ["--a", "1/2", "--b", "3", "--c=-2/5", "--kind", "u", "--index=-9"],
            ["--c", "-2/5", "--a", "2/4", "--kind", "u", "--b", "3/1", "--index", "-9"],
        ],
    )
    def test_negative_fraction_literal_is_a_value(
        self, args: list[str], capsys: pytest.CaptureFixture[str]
    ) -> None:
        assert main(["term", *args]) == 0
        assert capsys.readouterr().out.strip() == "-2440625/8192"

    def test_option_after_value_taking_option_still_an_option(
        self, capsys: pytest.CaptureFixture[str]
    ) -> None:
        assert main(["term", "--seq", "fibonacci", "--c", "-n", "5"]) == 2
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [CAP + 1, -(CAP + 1)])
    def test_naive_cap_exit_2(
        self, n: int, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
    ) -> None:
        monkeypatch.setattr(cli, "term_fast", refuse_work)
        assert main(["term", "--seq", "fibonacci", "--method", "naive", "-n", str(n)]) == 2
        assert "refusing" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["naive", "matrix", "doubling"])
    def test_methods_agree(self, method: str, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["term", "--seq", "pell", "-n", "9", "--method", method]) == 0
        assert capsys.readouterr().out.strip() == "985"

    def test_unknown_sequence_exit_2(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["term", "--seq", "nope", "-n", "1"]) == 2
        assert "unknown sequence" in capsys.readouterr().err

    def test_zero_coefficient_exit_2(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["term", "--a", "0", "--b", "1", "--c", "1", "-n", "1"]) == 2

    def test_decimal_literal_exit_2(self) -> None:
        assert main(["term", "--a", "0.5", "--b", "1", "--c", "1", "-n", "1"]) == 2

    @pytest.mark.parametrize(
        "command",
        [["term", "-n", "3"], ["gen", "--from", "0", "--to", "3"], ["bench", "--n-list", "3"]],
        ids=["term", "gen", "bench"],
    )
    @pytest.mark.parametrize(
        "explicit",
        [["--a", "2"], ["--w0", "5"], ["--w1", "7"], ["--w0", "5", "--w1", "7"]],
        ids=["a", "w0", "w1", "w0-w1"],
    )
    def test_seq_and_explicit_params_conflict(
        self, command: list[str], explicit: list[str], capsys: pytest.CaptureFixture[str]
    ) -> None:
        assert main([*command, "--seq", "fibonacci", *explicit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            "error: give either --seq or explicit --a/--b/--c/--w0/--w1, not both"
        )

    def test_no_sequence_at_all(self) -> None:
        assert main(["term", "-n", "1"]) == 2


class TestGen:
    def test_csv_default(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["gen", "--seq", "fibonacci", "--from", "0", "--to", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,value"
        assert [l.split(",")[1] for l in lines[1:]] == ["0", "1", "1", "2", "3", "5", "8", "13"]

    def test_kind_v_run(self, capsys: pytest.CaptureFixture[str]) -> None:
        args = ["gen", "--a", "2", "--b", "3", "--c", "1", "--kind", "v", "--from", "0", "--to", "4"]
        assert main(args) == 0
        values = [l.split(",")[1] for l in capsys.readouterr().out.strip().splitlines()[1:]]
        assert values == ["2", "3", "8", "27", "62"]

    def test_single_row_range(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["gen", "--seq", "fibonacci", "--kind", "u", "--from", "0", "--to", "0"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[1] == "0,0"

    def test_json_rows(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["gen", "--seq", "pell", "--from", "2", "--to", "4", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [{"n": 2, "value": "2"}, {"n": 3, "value": "5"}, {"n": 4, "value": "12"}]

    def test_out_file(self, tmp_path, capsys: pytest.CaptureFixture[str]) -> None:
        target = tmp_path / "run.csv"
        assert main(["gen", "--seq", "fibonacci", "--from", "0", "--to", "3", "--out", str(target)]) == 0
        assert target.read_text().strip().splitlines()[-1] == "3,2"

    def test_unwritable_out_exit_2(self, tmp_path) -> None:
        target = tmp_path / "missing" / "run.csv"
        assert main(["gen", "--seq", "fibonacci", "--from", "0", "--to", "3", "--out", str(target)]) == 2

    def test_reversed_range_exit_2(self) -> None:
        assert main(["gen", "--seq", "fibonacci", "--from", "5", "--to", "2"]) == 2

    @pytest.mark.parametrize(
        ("start", "stop"), [(0, CAP + 1), (-(CAP + 1), 0)]
    )
    def test_cap_exit_2(
        self,
        start: int,
        stop: int,
        monkeypatch: pytest.MonkeyPatch,
        capsys: pytest.CaptureFixture[str],
    ) -> None:
        monkeypatch.setattr(cli, "term_range", refuse_work)
        assert main(["gen", "--seq", "fibonacci", "--from", str(start), "--to", str(stop)]) == 2
        err = capsys.readouterr().err
        assert "refusing" in err
        # gen has no --method, so the refusal names none
        assert "naive method" not in err


class TestVerify:
    def test_all_suite_passes(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = main(["verify", "--suite", "all", "--samples", "5", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "failed=0" in out

    def test_sum_suite_warns_about_printed_form(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = main(["verify", "--suite", "sum", "--samples", "10", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "printed-form mismatch" in out

    def test_json_report(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = main(["verify", "--suite", "l1", "--samples", "4", "--seed", "2", "--report", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "l1"
        assert payload["failed"] == 0
        assert payload["seed"] == 2

    def test_seed_determinism(self, capsys: pytest.CaptureFixture[str]) -> None:
        main(["verify", "--suite", "l2", "--samples", "6", "--seed", "3", "--report", "json"])
        first = capsys.readouterr().out
        main(["verify", "--suite", "l2", "--samples", "6", "--seed", "3", "--report", "json"])
        assert capsys.readouterr().out == first

    def test_fixed_seed_report_digest(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["verify", "--suite", "all", "--seed", "7", "--report", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FIXED_SEED_REPORT_SHA256

    def test_high_index_report_digest(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(HIGH_INDEX_REPORT_ARGS) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HIGH_INDEX_REPORT_SHA256

    def test_lowest_index_report_digest(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(LOWEST_INDEX_REPORT_ARGS) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LOWEST_INDEX_REPORT_SHA256

    def test_plain_skip_report_digest(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(PLAIN_SKIP_REPORT_ARGS) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PLAIN_SKIP_REPORT_SHA256

    def test_plain_fixed_seed_report_digest(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["verify", "--suite", "all", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PLAIN_FIXED_SEED_REPORT_SHA256

    def test_plain_fail_marker(
        self, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
    ) -> None:
        real = identities.check_cassini
        calls = []

        def first_fails(*args, **kwargs):
            report = real(*args, **kwargs)
            calls.append(report)
            return dataclasses.replace(report, passed=len(calls) > 1)

        monkeypatch.setattr(identities, "check_cassini", first_fails)
        assert main(["verify", "--suite", "cassini", "--samples", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "  CASSINI_W    1/2 passed  [FAIL]" in lines
        assert lines[-1] == "passed=1 failed=1 skipped=0"

    def test_bogus_suite_exit_2(self) -> None:
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_max_index_cap_exit_2(
        self, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
    ) -> None:
        monkeypatch.setattr(cli, "run_suite", refuse_work)
        cap = cli._VERIFY_INDEX_CAP
        assert main(["verify", "--samples", "1", "--max-index", str(cap + 1)]) == 2
        assert "refusing --max-index" in capsys.readouterr().err

    @pytest.mark.parametrize("excess", [1, 10**8])
    def test_sample_cap_exit_2(
        self, excess: int, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
    ) -> None:
        monkeypatch.setattr(cli, "run_suite", refuse_work)
        samples = cli._VERIFY_SAMPLE_CAP + excess
        assert main(["verify", "--samples", str(samples), "--max-index", "1"]) == 2
        assert "refusing --samples" in capsys.readouterr().err

    def test_sample_cap_itself_runs_and_is_in_help(
        self, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
    ) -> None:
        real, seen = cli.run_suite, []

        def one_sample(config: identities.SuiteConfig) -> identities.SuiteSummary:
            seen.append(config.samples)
            return real(dataclasses.replace(config, samples=1))

        monkeypatch.setattr(cli, "run_suite", one_sample)
        cap = cli._VERIFY_SAMPLE_CAP
        assert main(["verify", "--suite", "l1", "--samples", str(cap), "--max-index", "1"]) == 0
        assert seen == [cap]
        capsys.readouterr()
        assert main(["verify", "--help"]) == 0
        assert f"(default 100, at most {cap})" in " ".join(capsys.readouterr().out.split())

    def test_failure_exits_1(self, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]) -> None:
        real = cli.run_suite

        def broken(config):
            summary = real(config)
            object.__setattr__(summary, "failed", 1)
            return summary

        monkeypatch.setattr(cli, "run_suite", broken)
        assert main(["verify", "--suite", "cassini", "--samples", "2"]) == 1


class TestBench:
    def test_plain_table(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = main(["bench", "--seq", "fibonacci", "--n-list", "64,256", "--repeat", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "doubling" in out and "matrix" in out and "muls" in out
        masked = re.sub(r" +\d+\.\d{6}$", " S", out, flags=re.MULTILINE)
        # matrix: e = 31 and 127 are odd, h = 15 and 63 take 3 and 5 levels
        # with a set bit (9 each) after 21 outside the loop; doubling: the
        # walk's constants (3), k = 32 and 128 take 5 and 7 levels (7 each,
        # 1 more from k = 1), no set bit below the leading one, and 12 for
        # the readout at even n
        assert masked.splitlines() == [
            "sequence w(0,1;1,1,1) kind=w repeat=2",
            "method              n         muls      seconds",
            "matrix             64           48 S",
            "doubling           64           51 S",
            "matrix            256           66 S",
            "doubling          256           65 S",
        ]

    def test_json_rows(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = main(["bench", "--seq", "pell", "--n-list", "32", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sequence"] == "w(0,1;2,2,1)"
        rows = payload["results"]
        assert {row["method"] for row in rows} == {"matrix", "doubling"}
        assert all(row["n"] == 32 and row["muls"] > 0 for row in rows)

    def test_naive_allowed_when_small(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["bench", "--seq", "fibonacci", "--n-list", "100", "--methods", "naive,doubling"]) == 0

    def test_naive_cap_exit_2(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = main(["bench", "--seq", "fibonacci", "--n-list", "20000000", "--methods", "naive"])
        assert code == 2
        assert "refusing" in capsys.readouterr().err

    def test_cross_check_mismatch_exit_1(self, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]) -> None:
        from biperiodic.fastpath import Method, term_fast as real_term_fast

        def skewed(p, kind, n, method=Method.DOUBLING, counter=None):
            value = real_term_fast(p, kind, n, method=method, counter=counter)
            return value + 1 if method is Method.MATRIX else value

        monkeypatch.setattr(cli, "term_fast", skewed)
        code = main(["bench", "--seq", "fibonacci", "--n-list", "16"])
        assert code == 1
        assert "disagree" in capsys.readouterr().err

    def test_zero_index_rejected(self) -> None:
        assert main(["bench", "--seq", "fibonacci", "--n-list", "0"]) == 2

    @pytest.mark.parametrize("excess", [1, 10**9])
    def test_repeat_cap_exit_2(
        self, excess: int, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
    ) -> None:
        monkeypatch.setattr(cli, "term_fast", refuse_work)
        repeat = cli._BENCH_REPEAT_CAP + excess
        assert main(["bench", "--seq", "fibonacci", "--n-list", "1", "--repeat", str(repeat)]) == 2
        assert "refusing --repeat" in capsys.readouterr().err

    def test_repeat_cap_itself_runs_and_is_in_help(self, capsys: pytest.CaptureFixture[str]) -> None:
        cap = cli._BENCH_REPEAT_CAP
        args = ["bench", "--seq", "fibonacci", "--n-list", "1", "--repeat", str(cap), "--format", "json"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["repeat"] == cap
        assert main(["bench", "--help"]) == 0
        assert f"(default 1, at most {cap})" in " ".join(capsys.readouterr().out.split())

    def test_timed_calls_carry_no_counter(
        self, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
    ) -> None:
        # the clock is read once before and once after each timed call, so a
        # call made after an odd number of reads is a timed one
        from biperiodic.fastpath import Method, term_fast as real_term_fast

        reads: list[None] = []
        calls: list[tuple[bool, object]] = []

        def clock() -> float:
            reads.append(None)
            return float(len(reads))

        def recording(p, kind, n, method=Method.DOUBLING, counter=None):
            calls.append((len(reads) % 2 == 1, counter))
            return real_term_fast(p, kind, n, method, counter)

        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=clock))
        monkeypatch.setattr(cli, "term_fast", recording)
        assert main(["bench", "--seq", "fibonacci", "--n-list", "64,256", "--repeat", "3"]) == 0
        timed = [counter for is_timed, counter in calls if is_timed]
        counted = [counter for is_timed, counter in calls if not is_timed]
        assert len(timed) == 2 * 2 * 3 and all(counter is None for counter in timed)
        assert len(counted) == 2 * 2 and all(counter is not None for counter in counted)
        assert "matrix             64           48 " in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            (["--n-list", ","], "argument --n-list: empty index list"),
            (["--n-list", "1", "--methods", ","], "argument --methods: empty method list"),
            (
                ["--n-list", "1", "--methods", "naive,foo"],
                "argument --methods: unknown method 'foo' (valid: naive, matrix, doubling)",
            ),
        ],
    )
    def test_list_errors(
        self, args: list[str], message: str, capsys: pytest.CaptureFixture[str]
    ) -> None:
        assert main(["bench", "--seq", "fibonacci", *args]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"biperiodic bench: error: {message}"


class TestCatalog:
    def test_list_plain(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "jacobsthal-lucas" in out and "w(2,1;1,1,2)" in out
        assert "extra lookup-only keys:" in out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CATALOG_LIST_SHA256

    def test_list_json(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["catalog", "list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["entries"]) == 14
        assert payload["extra"][0]["name"] == "k-lucas-classical(k)"
        assert payload["entries"][7]["notation"] == "w(2,1;1,1,1)"

    def test_rows_in_table_order(self, capsys: pytest.CaptureFixture[str]) -> None:
        main(["catalog", "list"])
        out = capsys.readouterr().out
        first = out.strip().splitlines()[0]
        assert first.startswith("generalized-biperiodic-fibonacci")


class TestLargeValues:
    """Values past Python's 4300-digit int->str limit print in full."""

    def test_term_past_digit_limit(self, capsys: pytest.CaptureFixture[str]) -> None:
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert main(["term", "--seq", "fibonacci", "-n", "100000"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out) == 20899
        fib = lookup("fibonacci")
        with no_digit_limit():
            assert out == str(term_doubling(fib.params, fib.kind, 100000))
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_gen_past_digit_limit(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["gen", "--seq", "fibonacci", "--from", "20600", "--to", "20603"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        index, value = last.split(",")
        assert index == "20603" and len(value) > 4300
        fib = lookup("fibonacci")
        with no_digit_limit():
            assert value == str(term_doubling(fib.params, fib.kind, 20603))

    def test_values_print_without_touching_the_digit_limit(
        self, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
    ) -> None:
        fib = lookup("fibonacci")
        with no_digit_limit():
            term = str(term_doubling(fib.params, fib.kind, 100000))
            rows = [(n, str(term_doubling(fib.params, fib.kind, n))) for n in range(20600, 20604)]

        def refuse(limit: int) -> None:
            raise AssertionError("the process-wide digit limit was changed")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        term_args = ["term", "--seq", "fibonacci", "-n", "100000", "--format"]
        assert main([*term_args, "plain"]) == 0
        assert capsys.readouterr().out == term + "\n"
        assert main([*term_args, "json"]) == 0
        assert capsys.readouterr().out == json.dumps({"n": 100000, "value": term}) + "\n"
        assert main([*term_args, "csv"]) == 0
        assert capsys.readouterr().out == f"n,value\n100000,{term}\n"
        gen_args = ["gen", "--seq", "fibonacci", "--from", "20600", "--to", "20603", "--format"]
        assert main([*gen_args, "csv"]) == 0
        assert capsys.readouterr().out == "n,value\n" + "".join(f"{n},{v}\n" for n, v in rows)
        assert main([*gen_args, "plain"]) == 0
        assert capsys.readouterr().out == "".join(f"{n}\t{v}\n" for n, v in rows)
        assert main([*gen_args, "json"]) == 0
        assert json.loads(capsys.readouterr().out) == [{"n": n, "value": v} for n, v in rows]

    def test_unexpected_error_exit_2(self, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]) -> None:
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "term_fast", broken)
        assert main(["term", "--seq", "fibonacci", "-n", "5"]) == 2
        assert capsys.readouterr().err.startswith("error: RuntimeError: boom")


class TestTopLevel:
    def test_no_command_exit_2(self) -> None:
        assert main([]) == 2

    def test_readme_cli_examples_exit_0(self, capsys: pytest.CaptureFixture[str]) -> None:
        section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
        block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
        commands = [line.split("#", 1)[0].strip() for line in block.splitlines()]
        commands = [c for c in commands if c]
        assert len(commands) == 9
        for command in commands:
            words = shlex.split(command)
            prefix = 1 if words[0] == "biperiodic" else 3
            assert words[:prefix] in (["biperiodic"], ["python", "-m", "biperiodic"])
            assert main(words[prefix:]) == 0, command
            capsys.readouterr()

    def test_unknown_command_exit_2(self) -> None:
        assert main(["frobnicate"]) == 2

    def test_help_exit_0(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert main(["--help"]) == 0
        assert "term" in capsys.readouterr().out

    def test_module_entry_point(self) -> None:
        src = str(Path(biperiodic.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        done = subprocess.run(
            [sys.executable, "-m", "biperiodic", "term", "--seq", "fibonacci", "-n", "10"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "55"

    def test_closed_pipe_exits_quietly(self) -> None:
        # the output (about 2.6 MB) is far larger than a pipe's buffer, so
        # the writer is still writing when the reader closes its end
        src = str(Path(biperiodic.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "biperiodic", "gen", "--seq", "fibonacci",
             "--from", "0", "--to", "5000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            lines = [proc.stdout.readline(), proc.stdout.readline()]
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert lines == [b"n,value\n", b"0,0\n"]
        assert err == b""
        assert code == cli._EXIT_BROKEN_PIPE
