"""Tests of the benchmark itself, at smoke size.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_pass_is_correct(workload):
    result = run.measure(workload, seed=3, seconds=0.01, trace=False, smoke=True)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in ("setup_s", "wall_s"):
        assert result["metrics"][name] > 0
    assert result["extra"]["peak_rss_mb"] > 0


def test_count_metrics_repeat_across_traced_runs():
    counts = []
    for _ in range(2):
        merged = {}
        for workload in sorted(WORKLOADS):
            result = run.measure(workload, seed=5, seconds=0.01, trace=True, smoke=True)
            assert result["correct"], result["problems"]
            for name in COUNT_METRICS:
                merged[f"{workload}:{name}"] = result["metrics"][name]
        counts.append(merged)
    assert counts[0] == counts[1]
    # every count is exercised by some workload
    for name in COUNT_METRICS:
        assert any(v > 0 for k, v in counts[0].items() if k.endswith(":" + name)), name


def test_tracer_restores_the_library():
    q = run.import_qfsp()
    before = (q.cli.main, q.classifier.hs_discriminant, q.package.thermal_form,
              q.linalg.MetricCalculus.__dict__["eigh"])
    result = run.measure("families", seed=1, seconds=0.01, trace=True, smoke=True)
    after = (q.cli.main, q.classifier.hs_discriminant, q.package.thermal_form,
             q.linalg.MetricCalculus.__dict__["eigh"])
    assert before == after
    assert result["metrics"]["classifier.blocks"] > 0
    assert result["metrics"]["classifier.hs_discriminant.calls"] > 0
