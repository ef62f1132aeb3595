"""Fast smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json on 32x32 cubes, untraced and traced,
and checks that every metric is present with its unit and a finite value,
that no operation failed, and that tracing leaves the output fingerprint
unchanged.  Run from the root of a checkout:

    python3 -m pytest -q codecbench/smoke_test.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--side", "32"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload):
    fingerprints = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        record, result = run_bench(workload, trace)
        assert record["workload"] == workload
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert record["failed_frac"] == 0 and not record["failures"]
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
            assert math.isfinite(metric["value"]), name
        fingerprints.append(record["fingerprint"])
    assert fingerprints[0] == fingerprints[1]
