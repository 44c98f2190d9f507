"""The benchmark's traced path, run as the benchmark's traced run runs it.

Each workload of fracbench/workloads.py does its set-up and task 0 (seed 0,
no reference files) inside the span tracer; no check may fail and every
per-layer metric must be finite.  This catches a library change that breaks
a workload's call or the tracer's reading of its arguments.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "fracbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_task_zero(name):
    wl = workloads.WORKLOADS[name](0)
    with tracer.Tracer() as trace:
        failed = [f"setup {c.name}: {c.detail}" for c in wl.setup() if not c.passed]
        failed += [f"task 0 {c.name}: {c.detail}" for c in wl.run_task(0).failed_checks]
    assert not failed
    metrics = trace.per_layer_metrics()
    assert metrics and all(math.isfinite(v) for v in metrics.values())
    assert metrics["sl_core.eigen_system.calls"] > 0
