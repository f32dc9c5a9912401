"""The benchmark's own tests: tiny-scale smoke runs and the verdict check.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from repro.flow.actions import ActionList, Output  # noqa: E402
from workloads import WORKLOADS, verdict_errors  # noqa: E402


def declared_metrics(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run_bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace), "--scale", "tiny",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_declared_workloads_exist():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_declared_metric(workload, trace, kind):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    emitted = {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert emitted == declared_metrics(kind)
    if trace == 0:
        # End-to-end metrics are chosen to be non-zero.
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_verdict_check_catches_a_corrupted_rule_action():
    state = WORKLOADS["replay-cold"].setup(seed=3, scale="tiny")
    for step in state.steps():
        step()
    cache = state.simulator.system.cache
    pipeline = state.pipeline
    assert verdict_errors("switch", cache, pipeline, state.flows) == []

    # Corrupt the terminal rule of the first cached chain: it now sends
    # the packet somewhere the slow path would not.
    flow = next(f for f in state.flows if cache.lookup(f).hit)
    _result, replay = cache.lookup_traced(flow)
    _table, rule = replay.matched[-1]
    port = rule.actions.output_port()
    rule.actions = ActionList([Output(1 if port is None else port + 1)])

    errors = verdict_errors("switch", cache, pipeline, state.flows)
    assert errors, "a corrupted cached action must diverge from the slow path"
    assert any(str(flow) in error for error in errors)
