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
import os
from collections import deque

import pytest

import blindq.instance
import blindq.simulator
from blindq import acceptance

PROFILE = acceptance.PROFILES["full"]
SEED = acceptance.DEFAULT_SEED
JOBS = os.cpu_count() or 1


def _run(cid: int) -> acceptance.CriterionResult:
    res = acceptance.run_criterion(cid, "full", SEED, JOBS)
    print(res.line())
    return res


@pytest.fixture(scope="module")
def theorem_sweep():
    r10, r11 = acceptance.c10_c11_theorem_sweep(PROFILE, SEED, JOBS)
    return r10, r11


def _explain(res: acceptance.CriterionResult) -> str:
    return f"criterion {res.cid}: {json.dumps(res.details, default=str)[:1500]}"


def test_criterion_01_blind_mm1_sojourn():
    res = _run(1)
    assert res.passed, _explain(res)


def test_criterion_02_srpt_heavy_traffic():
    res = _run(2)
    assert res.passed, _explain(res)


def test_criterion_03_busy_period_moments():
    res = _run(3)
    assert res.passed, _explain(res)


def test_criterion_04_cycle_count_and_idle_identity():
    res = _run(4)
    assert res.passed, _explain(res)


def test_criterion_05_exponent_recovery():
    res = _run(5)
    assert res.passed, _explain(res)


def test_criterion_06_srpt_optimality():
    res = _run(6)
    assert res.passed, _explain(res)


def test_criterion_07_work_conservation():
    res = _run(7)
    assert res.passed, _explain(res)


def test_criterion_08_scaling_coupling():
    res = _run(8)
    assert res.passed, _explain(res)


def test_criterion_09_order_preservation():
    res = _run(9)
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
    # C9 calls the queue kernel itself, on the busy periods that simulate
    # reads: the instance's cached ones, walked once per instance
    smoke = acceptance.PROFILES["smoke"]
    made, given, walks = [], [], []
    real_instance, real_kernel = acceptance._random_instance, acceptance._queue_kernel
    real_walk = blindq.instance._walk

    def instance(*args, **kwargs):
        made.append(real_instance(*args, **kwargs))
        return made[-1]

    def kernel(rel, siz, lasts, *args, **kwargs):
        given.append(list(lasts))
        return real_kernel(rel, siz, given[-1], *args, **kwargs)

    monkeypatch.setattr(acceptance, "_random_instance", instance)
    monkeypatch.setattr(acceptance, "_queue_kernel", kernel)
    monkeypatch.setattr(blindq.instance, "_walk", lambda *a: walks.append(1) or real_walk(*a))
    assert acceptance.c9_order_preservation(smoke, SEED, 1).passed
    assert len(given) == len(made) == len(walks) > 0
    for inst, lasts in zip(made, given):
        assert lasts == [c.last_job_id for c in blindq.busy_periods(inst)]
    assert len(walks) == len(made)
