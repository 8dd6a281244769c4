"""Tests of the benchmark itself: every workload completes a short run and
reports each metric BENCHMARK.json names, with its unit, and an injected
fault in blindq's outputs is caught by the output checks."""

import json
import os
import subprocess
import sys

import pytest

import blindq
import blindq.cli
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_short_run_reports_every_metric(name, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0
    assert "failed_frac = 0.0" in out.stdout


def _one_round(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, str(tmp_path))
    plain, _, _ = worker.run_rounds(wl, 0.0, trace=False)
    (res,) = plain
    return res


def test_tail_split_fault_fails_sweep_points(tmp_path, monkeypatch):
    real = blindq.cli.tail_split

    def broken(*args, **kwargs):
        split = real(*args, **kwargs)
        return type(split)(split.small * (1 + 1e-9), split.large, split.threshold,
                           split.cycles_used)

    monkeypatch.setattr(blindq.cli, "tail_split", broken)
    res = _one_round("sweep-heavy", tmp_path)
    assert res.failed == res.attempted == 21


def test_cycle_fault_fails_file_session(tmp_path, monkeypatch):
    real = blindq.cli.busy_periods
    monkeypatch.setattr(blindq.cli, "busy_periods", lambda inst: real(inst)[:-1])
    res = _one_round("files-light", tmp_path)
    # the seven simulate outputs disagree with the truncated instance cycles
    assert res.failed == 7 and res.attempted == 9


def test_oracle_fault_fails_tiny_instances(tmp_path, monkeypatch):
    real = blindq.brute_force_min_flow
    monkeypatch.setattr(blindq, "brute_force_min_flow", lambda inst: real(inst) + 1e-6)
    res = _one_round("tiny-batch", tmp_path)
    assert 0 < res.failed < res.attempted
    assert all("brute force" in f for f in res.failures)


def test_raising_call_fails_its_operations(tmp_path, monkeypatch):
    real = blindq.simulate

    def flaky(inst, policy, seed=0):
        if len(inst) == 1:
            raise RuntimeError("injected")
        return real(inst, policy, seed=seed)

    monkeypatch.setattr(blindq, "simulate", flaky)
    res = _one_round("tiny-batch", tmp_path)
    assert res.attempted == 7 * workloads.TinyBatch.INSTANCES
    assert 0 < res.failed < res.attempted and res.failed % 7 == 0
    assert all("injected" in f for f in res.failures)


def test_raising_command_fails_its_operation(tmp_path, monkeypatch):
    real = blindq.cli.simulate

    def flaky(inst, policy, seed=0):
        if policy == "ps":
            raise RuntimeError("injected")
        return real(inst, policy, seed=seed)

    monkeypatch.setattr(blindq.cli, "simulate", flaky)
    res = _one_round("files-light", tmp_path)
    assert res.failed == 1 and res.attempted == 9
    assert "simulate ps exited -1" in res.failures[0]
