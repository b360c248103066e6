"""Two traced runs of the same code must agree exactly on counts and digests.

Run from the checkout root:

    python3 -m pytest bench/repeat_check.py

The file name keeps these tests out of the repository's default test run:
each case runs its workload four times, about two minutes in all.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

# Wall-clock seconds and the byte sizes of files that carry runtime columns
# vary between runs; every other per-layer metric is a count or a ratio of
# counts.
EXACT_UNITS = ("count", "ratio")


def traced_run(workload: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=900, check=True,
    )
    info, result = proc.stdout.splitlines()[-2:]
    return json.loads(info), json.loads(result)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_and_digest_repeat(workload):
    runs = [traced_run(workload) for _ in range(2)]
    for info, result in runs:
        assert result["correct"], info["failures"]
    (info_a, result_a), (info_b, result_b) = runs
    assert info_a["digest"] == info_b["digest"]

    def exact(result):
        return {
            name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] in EXACT_UNITS
        }

    assert exact(result_a) == exact(result_b)
    assert exact(result_a)["harness.run_method.calls"] > 0
