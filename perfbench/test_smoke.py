"""Self-check of the benchmark: every workload in smoke mode.

Each workload runs one cycle per phase.  The end-to-end run must emit
every end-to-end metric of BENCHMARK.json with its unit and fail no op;
the traced run must emit every per-layer metric and give a self time to
every layer the workload is meant to exercise.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers whose self time each workload must make positive.
EXERCISED = {
    "ew-seesaw": {"verify.ew", "linalg.eigh"},
    "qw-sectors": {"verify.qw", "algebra.vertices", "algebra.in_algebra"},
    "probe-trials": {"verify.probe", "algebra.random_element",
                     "algebra.classical_state"},
    "cli-roundtrip": {"cli.main", "linalg.save", "linalg.load",
                      "witnesses.construct", "verify.ew", "verify.qw",
                      "algebra.vertices", "algebra.in_algebra"},
}


@functools.cache
def run(workload, trace, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    tagged = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("layers", "verdicts"):
            tagged[key] = json.loads(rest)
    return lines, tagged, json.loads(lines[-1])


def check_result(result, lines, spec_key):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert any(line.split() == ["fail_ratio", "0", "ratio"] for line in lines)
    for metric in SPEC[spec_key]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert set(result["metrics"]) == {m["name"] for m in SPEC[spec_key]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, _, result = run(workload, 0, 1)
    check_result(result, lines, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    lines, tagged, result = run(workload, 1, 1)
    check_result(result, lines, "per_layer")
    timed = {layer for layer, s in tagged["layers"].items() if s > 0}
    assert EXERCISED[workload] <= timed


def test_every_layer_is_exercised():
    layers = set(run("cli-roundtrip", 1, 1)[1]["layers"])
    assert set().union(*EXERCISED.values()) == layers


def test_named_verdicts_agree_across_seeds():
    verdicts = [run("ew-seesaw", 0, seed)[1]["verdicts"] for seed in (1, 2)]
    assert len(verdicts[0]) == 8
    assert verdicts[0] == verdicts[1]
