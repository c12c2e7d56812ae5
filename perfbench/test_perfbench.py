"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced run emits every per-layer metric with the expected zeros,
that a corrupted expected value is counted as a failed operation, and that
the benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def tiny_run(capsys, workload: str, trace: int) -> tuple[dict, str]:
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--tiny"])
    assert code == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def assert_metrics(result: dict, out: str, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in out.splitlines())


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(capsys, workload):
    result, out = tiny_run(capsys, workload, 0)
    assert_metrics(result, out, BENCHMARK["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(capsys, workload):
    result, out = tiny_run(capsys, workload, 1)
    assert_metrics(result, out, BENCHMARK["per_layer"])
    assert result["correct"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    fastpath_calls = values["fastpath.term_doubling.calls"] + values["fastpath.term_matrix.calls"]
    if workload == "verify_suite":
        assert fastpath_calls == 0
        assert values["identities.checks"] > 0 and values["cli.output_bytes"] > 0
    else:
        assert fastpath_calls > 0 and values["exact.opcounter.muls"] > 0
        assert values["identities.run_suite.calls"] == 0 and values["identities.checks"] == 0
    if workload == "term_small":
        assert values["catalog.lookup.calls"] > 0


@pytest.mark.parametrize("workload, failures", [
    ("verify_suite", 1),
    # both routes of the request whose digest is wrong must miss it
    ("term_bignum", 2),
])
def test_wrong_digest_counts_as_failed(capsys, monkeypatch, workload, failures):
    broken = copy.deepcopy(workloads.load_expected())
    key = workloads.WORKLOADS[workload](5, tiny=True).requests[0].key
    broken[workload][key] = "0" * 64
    monkeypatch.setattr(workloads, "load_expected", lambda: broken)
    result, _ = tiny_run(capsys, workload, 0)
    assert result["failed"] == failures and not result["correct"]


def test_wrong_expected_term_counts_as_failed():
    workload = workloads.TermSmall(5, tiny=True)
    victim = workload.requests[0]
    workload.expected[victim] += 1
    tally = run.Tally()
    for request in workload.requests:
        run.issue(workload, request, tally)
    assert (tally.attempted, tally.failed) == (len(workload.requests), 1)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "term_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
