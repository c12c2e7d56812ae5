"""Write ``expected.json``: the frozen digests the workloads check against.

    python3 perfbench/freeze.py

Covers every request a seed can draw: each term_bignum (point, kind, n) of
the offset pool, computed with ``term_doubling`` and cross-checked against
``term_matrix``, and the sha256 of ``verify --report json`` output for each
pool seed in the full and the tiny configurations.  Regenerate only when the
library's values or the verify report are meant to change; the digests in the
repository were taken at the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from biperiodic.core import SequenceKind  # noqa: E402
from biperiodic.fastpath import term_doubling, term_matrix  # noqa: E402


def bignum_digests() -> dict[str, str]:
    digests = {}
    for point, p in workloads.BIGNUM_POINTS.items():
        for kind in SequenceKind:
            for offsets in workloads.BIGNUM_OFFSETS.values():
                for offset in offsets:
                    for sign in (1, -1):
                        n = sign * (workloads.BIGNUM_BASE + offset)
                        value = term_doubling(p, kind, n)
                        if term_matrix(p, kind, n) != value:
                            raise SystemExit(f"doubling and matrix disagree at {point} {kind} {n}")
                        digests[workloads.bignum_key(point, kind, n)] = workloads.value_digest(value)
    return digests


def verify_digests() -> dict[str, str]:
    digests = {}
    for prefix, configs in (("", workloads.VERIFY_CONFIGS), ("tiny-", workloads.VERIFY_TINY_CONFIGS)):
        for verify_seed in workloads.VERIFY_SEED_POOL:
            for config, (samples, max_index) in configs.items():
                request = workloads.Request(
                    config, "", workloads.verify_argv(verify_seed, samples, max_index))
                code, text = workloads.VerifySuite.call(request)
                if code != 0 or json.loads(text)["failed"] != 0:
                    raise SystemExit(f"verify failed for {config} seed {verify_seed}")
                digests[f"{prefix}{config}/{verify_seed}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def main() -> None:
    expected = {"term_bignum": bignum_digests(), "verify_suite": verify_digests()}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
