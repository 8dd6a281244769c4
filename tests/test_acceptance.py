"""Full-scale acceptance suite; one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` (several minutes) or use the
CLI equivalent `blindq verify --profile full`.

Criterion 2 is a known, deliberate red: the exact SRPT mean sojourn in the
M/M/1 queue at load 0.9 (3.552 by independent quadrature, reproduced by the
simulator) sits ~17% above the heavy-traffic asymptote 10/(1 + ln 10) that
the criterion targets with a 10% band.  The check is kept as stated rather
than widened; see README and the criterion's details.
"""

import json
import math
import os
from collections import deque

import pytest

import blindq.instance
import blindq.simulator
from blindq import acceptance

PROFILE = acceptance.PROFILES["full"]
SEED = acceptance.DEFAULT_SEED
JOBS = os.cpu_count() or 1


def _run(criterion) -> acceptance.CriterionResult:
    res = criterion(PROFILE, SEED, JOBS)
    print(res.line())
    return res


@pytest.fixture(scope="module")
def theorem_sweep():
    r10, r11 = acceptance.c10_c11_theorem_sweep(PROFILE, SEED, JOBS)
    return r10, r11


def _explain(res: acceptance.CriterionResult) -> str:
    return f"criterion {res.cid}: {json.dumps(res.details, default=str)[:1500]}"


def test_criterion_01_blind_mm1_sojourn():
    res = _run(acceptance.c1_blind_mm1)
    assert res.passed, _explain(res)


def test_criterion_02_srpt_heavy_traffic():
    res = _run(acceptance.c2_srpt_heavy_traffic)
    assert res.passed, _explain(res)


def test_criterion_03_busy_period_moments():
    res = _run(acceptance.c3_busy_period_moments)
    assert res.passed, _explain(res)


def test_criterion_04_cycle_count_and_idle_identity():
    res = _run(acceptance.c4_cycle_count_identity)
    assert res.passed, _explain(res)


def test_criterion_05_exponent_recovery():
    res = _run(acceptance.c5_exponent_recovery)
    assert res.passed, _explain(res)


def test_criterion_06_srpt_optimality():
    res = _run(acceptance.c6_srpt_optimality)
    assert res.passed, _explain(res)


def test_criterion_07_work_conservation():
    res = _run(acceptance.c7_work_conservation)
    assert res.passed, _explain(res)


def test_criterion_08_scaling_coupling():
    res = _run(acceptance.c8_scaling_coupling)
    assert res.passed, _explain(res)


def test_criterion_09_order_preservation():
    res = _run(acceptance.c9_order_preservation)
    assert res.passed, _explain(res)


def test_criterion_10_bounded_normalized_ratio(theorem_sweep):
    res = theorem_sweep[0]
    print(res.line())
    assert res.passed, _explain(res)


def test_criterion_11_tail_split_exactness(theorem_sweep):
    res = theorem_sweep[1]
    print(res.line())
    assert res.passed, _explain(res)


def test_criterion_09_fails_on_order_violation(monkeypatch):
    # C9 walks the queue kernel's levels before every event.  A kernel whose
    # queues take each job at the front loses release order within a level.
    smoke = acceptance.PROFILES["smoke"]
    assert acceptance.c9_order_preservation(smoke, SEED, 1).passed

    class FrontDeque(deque):
        def append(self, x):
            self.appendleft(x)

    monkeypatch.setattr(blindq.simulator, "deque", FrontDeque)
    res = acceptance.c9_order_preservation(smoke, SEED, 1)
    assert not res.passed
    errors = [v["error"] for v in res.details["violations"]]
    assert any("queue order violated" in e for e in errors)


def test_criterion_09_reads_the_cached_busy_periods(monkeypatch):
    # C9 calls the queue kernel itself, on the gate that simulate builds: inf
    # exactly where a busy period of the instance's cached walk opens (and
    # past the last job), each other arrival's release, and one walk per
    # instance
    smoke = acceptance.PROFILES["smoke"]
    made, given, walks = [], [], []
    real_instance, real_kernel = acceptance._random_instance, acceptance._queue_kernel
    real_walk = blindq.instance._walk

    def instance(*args, **kwargs):
        made.append(real_instance(*args, **kwargs))
        return made[-1]

    def kernel(rel, siz, gate, *args, **kwargs):
        given.append(list(gate))
        return real_kernel(rel, siz, given[-1], *args, **kwargs)

    monkeypatch.setattr(acceptance, "_random_instance", instance)
    monkeypatch.setattr(acceptance, "_queue_kernel", kernel)
    monkeypatch.setattr(blindq.instance, "_walk", lambda *a: walks.append(1) or real_walk(*a))
    assert acceptance.c9_order_preservation(smoke, SEED, 1).passed
    assert len(given) == len(made) == len(walks) > 0
    for inst, gate in zip(made, given):
        n = len(inst)
        openers = {c.first_job_id - 1 for c in blindq.busy_periods(inst)}
        assert len(gate) == n + 1
        assert {k for k, g in enumerate(gate) if g == math.inf} == openers | {n}
        assert all(gate[k] == inst.releases[k] for k in range(n) if k not in openers)
    assert len(walks) == len(made)
