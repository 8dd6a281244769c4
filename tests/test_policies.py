import math
from collections import deque
from heapq import heappop, heappush

import numpy as np
import pytest

import blindq as bq
from blindq.errors import InternalConsistencyError, ParameterError
from blindq.policies import (
    Ermlf,
    Fb,
    Fifo,
    Mlf,
    Ps,
    Rmlf,
    Srpt,
    _MlfJob,
    make_policy,
    verify_order_invariant,
)


class FakeStream:
    """Scripted uniforms for deterministic beta draws."""

    def __init__(self, us):
        self.us = list(us)

    def uniform(self):
        return self.us.pop(0)


# u close to 1 makes beta > 1, i.e. factor exactly 1, for any j >= 2
U_FACTOR_ONE = 1.0 - 1e-9


def u_for_beta(j, beta):
    return 1.0 - math.exp(-12.0 * beta * math.log(j))


def serve_for(pol, work):
    """Give the served group `work` units of service per member, as the
    simulator does between events (the groups here hold one job)."""
    g, _ = pol.serve()
    g.v += work


def admit(pol, jid, t, size):
    """Release a job into pol and enter it in its group, as the simulator does."""
    g = pol.arrival(jid, t) if pol.blind else pol.arrival(jid, t, size)
    heappush(g.heap, (g.v + size, jid))
    return g


def members(g):
    return sorted(jid for _, jid in g.heap)


class TestBetaDraws:
    def test_first_job_degenerate(self):
        bf = bq.beta_from_uniform(1, 0.37)
        assert bf.beta == math.inf
        assert bf.factor == 1.0

    def test_inverse_cdf_boundary(self):
        bf = bq.beta_from_uniform(2, 0.0)
        assert bf.beta == 0.0
        assert bf.factor == 2.0

    def test_inverse_cdf_midpoint(self):
        bf = bq.beta_from_uniform(3, 0.5)
        expected = math.log(2.0) / (12.0 * math.log(3.0))
        assert bf.beta == pytest.approx(expected)
        assert bf.beta == pytest.approx(0.052578, abs=1e-6)
        assert bf.factor == pytest.approx(2.0 - expected)

    def test_factor_range(self):
        for j in (2, 3, 10, 1000):
            for u in (0.0, 0.1, 0.5, 0.9, 0.999999):
                f = bq.beta_from_uniform(j, u).factor
                assert 1.0 <= f <= 2.0

    def test_draw_consumes_one_uniform_even_for_first_job(self):
        s = bq.make_stream(0, 2)
        bq.draw_beta(1, s)
        assert s.counter == 1
        bq.draw_beta(2, s)
        assert s.counter == 2

    def test_invalid_index(self):
        with pytest.raises(ParameterError):
            bq.beta_from_uniform(0, 0.5)


class TestMlfTarget:
    """Targets 2**level * factor, as the MLF-family policies set them."""

    def test_examples(self):
        pol = Rmlf(FakeStream([0.9]))
        job = pol.arrival(1, 0.0)            # level 0, factor 1
        assert job.target == 1.0
        pol = Rmlf(FakeStream([u_for_beta(2, 0.5)]))
        job = pol.arrival(2, 0.0)            # factor 1.5
        for _ in range(3):
            serve_for(pol, pol.serve()[1])
            pol.internal_event()
        assert job.level == 3
        assert job.target == pytest.approx(12.0, rel=1e-12)
        pol = Ermlf(FakeStream([0.4, 0.0]))  # j=2, u=0: factor 2
        pol.arrival(1, 0.0)
        serve_for(pol, 0.6)
        pol.arrival(2, 0.6)                  # star backed by level -1
        assert pol.jobs[2].target == 1.0

    def test_accepts_beta_factor(self):
        bf = bq.beta_from_uniform(1, 0.2)
        pol = Rmlf(FakeStream([0.2]))
        job = pol.arrival(1, 0.0)
        assert job.factor == bf.factor
        for _ in range(2):
            serve_for(pol, pol.serve()[1])
            pol.internal_event()
        assert (job.level, job.target) == (2, 4.0)

    def test_doubling_is_exact(self):
        for level in range(-20, 20):
            pol = Ermlf(FakeStream([]))
            job = _MlfJob(1.7, None, math.ldexp(1.7, level))
            pol.jobs = {1: job}
            pol.star = 1
            pol.internal_event()
            assert job.level == level + 1
            assert job.target == 2.0 * math.ldexp(1.7, level)


class TestDecisionRules:
    """Which group each policy serves, and how many members share it."""

    def test_srpt_strict_minimum(self):
        pol = Srpt()
        admit(pol, 3, 0.0, 2.0)
        g7 = admit(pol, 7, 1.0, 1.5)
        assert pol.serve() == (g7, math.inf)

    def test_srpt_idle(self):
        pol = Srpt()
        g = admit(pol, 1, 0.0, 2.0)
        heappop(g.heap)
        pol.completion(1)
        assert pol.heap == []
        r = bq.simulate(bq.Instance([0.0, 5.0], [1.0, 1.0]), "srpt")
        assert np.array_equal(r.completions, [1.0, 6.0])
        assert r.cycles[1].I == 4.0

    def test_srpt_tie_breaks(self):
        pol = Srpt()
        g1 = admit(pol, 1, 0.0, 1.0)
        admit(pol, 2, 5.0, 1.0)
        assert pol.serve()[0] is g1
        pol = Srpt()
        admit(pol, 2, 0.0, 1.0)
        g1 = admit(pol, 1, 0.0, 1.0)
        assert pol.serve()[0] is g1

    def test_fifo(self):
        pol = Fifo()
        g1 = admit(pol, 1, 0.0, 1.0)
        g2 = admit(pol, 2, 1.0, 1.0)
        assert pol.serve() == (g1, math.inf)
        heappop(g1.heap)
        pol.completion(1)
        assert pol.serve() == (g2, math.inf)
        heappop(g2.heap)
        pol.completion(2)
        assert not pol.order

    def test_share_rates_ps(self):
        pol = Ps()
        admit(pol, 1, 0.0, 5.0)
        serve_for(pol, 3.0)
        admit(pol, 2, 3.0, 5.0)
        g, gap = pol.serve()
        assert members(g) == [1, 2]          # rate 1/2 each
        assert gap == math.inf

    def test_share_rates_fb_strict(self):
        pol = Fb()
        admit(pol, 1, 0.0, 5.0)
        serve_for(pol, 1.0)
        admit(pol, 2, 1.0, 5.0)
        g, gap = pol.serve()
        assert members(g) == [2]
        assert gap == 1.0                    # J2 catches J1 at attained 1

    def test_share_rates_fb_tie(self):
        pol = Fb()
        admit(pol, 3, 0.0, 9.0)
        serve_for(pol, 2.0)
        admit(pol, 1, 2.0, 9.0)
        serve_for(pol, 0.5)
        admit(pol, 2, 2.5, 9.0)
        assert members(pol.serve()[0]) == [2]
        serve_for(pol, pol.serve()[1])
        pol.internal_event()                 # J2 reaches J1's 0.5
        g, gap = pol.serve()
        assert members(g) == [1, 2]
        assert g.v == 0.5
        assert gap == 1.5                    # J3's attained 2.0

    def test_share_rates_sum_to_one(self):
        pol = Fb()
        for jid in (1, 2, 3):
            admit(pol, jid, 0.3 * (jid - 1), 9.0)
            serve_for(pol, 0.3)
            if jid > 1:
                pol.internal_event()
        g, gap = pol.serve()
        assert members(g) == [1, 2, 3]
        assert sum(1.0 / len(g.heap) for _ in g.heap) == pytest.approx(1.0)
        assert gap == math.inf

    def test_share_rates_unknown(self):
        # policies without tie sets serve one job and never change on their own
        for pol in (Fifo(), Srpt()):
            admit(pol, 1, 0.0, 1.0)
            admit(pol, 2, 0.5, 1.0)
            g, gap = pol.serve()
            assert len(g.heap) == 1
            assert gap == math.inf
            with pytest.raises(InternalConsistencyError):
                pol.internal_event()


class TestRmlfTransitions:
    def test_serves_front_of_lowest_queue(self):
        pol = Rmlf(FakeStream([]))
        pol.jobs = {1: _MlfJob(1.0, 1, 2.0), 2: _MlfJob(1.0, 1, 2.0),
                    3: _MlfJob(1.0, 0, 1.0)}
        pol.queues = {1: deque([1, 2]), 0: deque([3])}
        assert pol.serve()[0] is pol.jobs[3]

    def test_arrival_preempts_when_q0_was_empty(self):
        pol = Rmlf(FakeStream([0.5, 0.5]))
        pol.arrival(1, 0.0)
        serve_for(pol, pol.serve()[1])
        pol.internal_event()             # J1 now in Q1; Q0 empty
        assert pol.jobs[1].level == 1
        pol.arrival(2, 5.0)
        assert pol.serve()[0] is pol.jobs[2]   # new arrival runs
        assert pol.queues[1][0] == 1     # preempted job stays at its front

    def test_target_hit_doubles(self):
        pol = Rmlf(FakeStream([0.9]))    # j=1: factor 1 regardless of u
        pol.arrival(1, 0.0)
        assert pol.jobs[1].target == 1.0
        serve_for(pol, 1.0)
        pol.internal_event()
        assert pol.jobs[1].level == 1
        assert pol.jobs[1].target == 2.0
        assert pol.jobs[1].v == 1.0

    def test_completion_requires_front(self):
        pol = Rmlf(FakeStream([0.1, 0.1]))
        pol.arrival(1, 0.0)
        pol.arrival(2, 0.5)
        with pytest.raises(InternalConsistencyError):
            pol.completion(2)            # J2 is behind J1 in Q0

    def test_mlf_factor_forced_to_two(self):
        pol = Mlf()
        pol.arrival(1, 0.0)
        pol.arrival(2, 0.5)
        assert pol.jobs[1].target == 2.0
        assert pol.jobs[2].target == 2.0


class TestErmlfArrival:
    def test_empty_system_initial_target(self):
        pol = Ermlf(FakeStream([0.3]))
        pol.arrival(1, 0.0)              # j=1: factor exactly 1
        assert pol.star == 1
        assert pol.jobs[1].target == 1.0

    def test_empty_system_midrange_factor(self):
        # first job completes, system empties, second arrival sees case (a)
        pol = Ermlf(FakeStream([0.3, u_for_beta(2, 0.5)]))
        pol.arrival(1, 0.0)
        serve_for(pol, 0.7)
        pol.completion(1)
        pol.arrival(2, 1.0)
        assert pol.jobs[2].target == pytest.approx(1.5, rel=1e-12)

    def test_nonempty_system_star_empty(self):
        pol = Ermlf(FakeStream([U_FACTOR_ONE]))
        pol.jobs = {1: _MlfJob(1.0, 2, 4.0)}
        pol.jobs[1].level = 2
        pol.queues = {2: deque([1])}
        pol.arrival(2, 3.0)
        assert pol.jobs[2].target == 2.0     # 2**(2-1) * 1
        assert pol.star == 2

    def test_displacement_of_star_occupant(self):
        pol = Ermlf(FakeStream([0.4, 0.6]))  # j=1 factor 1; j=2 anything
        pol.arrival(1, 0.0)
        serve_for(pol, 0.6)                  # J1 attained 0.6 < target 1
        pol.arrival(2, 0.6)
        assert pol.jobs[1].level == 0        # lowest z with 0.6 <= 2**z
        assert pol.jobs[1].target == 1.0
        assert list(pol.queues[0]) == [1]
        assert pol.star == 2

    def test_star_exit_enqueues_behind_older(self):
        pol = Ermlf(FakeStream([0.9, U_FACTOR_ONE]))
        pol.arrival(1, 0.0)
        serve_for(pol, 0.6)
        pol.arrival(2, 0.6)                  # J1 -> Q0; J2 in star, target 0.5
        serve_for(pol, 0.5)                  # J2 reaches its initial target
        pol.internal_event()                 # star exit lands in Q0, behind J1
        assert list(pol.queues[0]) == [1, 2]
        verify_order_invariant(pol)


class TestErmlfStarExit:
    @pytest.mark.parametrize("factor,target,level,new_target", [
        (1.0, 0.5, 0, 1.0),    # star backed by level -1
        (1.0, 1.0, 1, 2.0),
        (1.5, 3.0, 2, 6.0),    # 2**1 * 1.5 doubles to 6
    ])
    def test_requeue_on_initial_target(self, factor, target, level, new_target):
        pol = Ermlf(FakeStream([]))
        job = _MlfJob(factor, None, target)
        job.v = target * 0.99
        pol.jobs = {1: job}
        pol.star = 1
        pol.internal_event()
        assert job.level == level
        assert job.target == new_target
        assert list(pol.queues[level]) == [1]

    def test_helpers(self):
        assert bq.lowest_unreached_level(0.6, 1.0) == 0
        assert bq.lowest_unreached_level(0.5, 1.0) == -1
        assert bq.lowest_unreached_level(1.0, 1.0) == 0
        assert bq.lowest_unreached_level(0.001, 1.0) == -9
        assert bq.star_exit_level(0.5, 1.0) == 0
        assert bq.star_exit_level(4.0, 1.0) == 3
        with pytest.raises(InternalConsistencyError):
            bq.star_exit_level(0.7, 1.0)

    def test_star_holds_most_recent_only(self):
        pol = Ermlf(FakeStream([0.2, 0.2]))
        pol.arrival(1, 0.0)
        serve_for(pol, 0.4)
        pol.arrival(2, 0.4)
        assert pol.star == 2
        assert 1 not in [pol.star]


class TestOrderInvariant:
    def test_detects_cross_queue_violation(self):
        pol = Rmlf(FakeStream([]))
        pol.queues = {0: deque([1]), 1: deque([2])}  # older job in lower queue
        pol.jobs = {1: _MlfJob(1.0, 0, 1.0), 2: _MlfJob(1.0, 1, 2.0)}
        with pytest.raises(InternalConsistencyError):
            verify_order_invariant(pol)

    def test_detects_within_queue_violation(self):
        pol = Rmlf(FakeStream([]))
        pol.queues = {0: deque([2, 1])}
        pol.jobs = {1: _MlfJob(1.0, 0, 1.0), 2: _MlfJob(1.0, 0, 1.0)}
        with pytest.raises(InternalConsistencyError):
            verify_order_invariant(pol)

    def test_accepts_valid_state(self):
        pol = Ermlf(FakeStream([]))
        pol.queues = {2: deque([1, 2]), 0: deque([3])}
        pol.star = 4
        verify_order_invariant(pol)


class TestBlindness:
    def test_state_carries_no_sizes_for_blind_policies(self):
        # structural check: only SRPT state stores remaining work
        for cls in (Fifo, Ps, Fb):
            pol = cls()
            pol.arrival(1, 0.0)
            state = vars(pol)
            assert all("remaining" not in str(k) for k in state)
        assert not Srpt.blind
        for name in bq.POLICY_NAMES:
            pol = make_policy(name, bq.make_stream(0, 2))
            assert pol.blind == (name != "srpt")

    def test_unknown_policy(self):
        with pytest.raises(ParameterError):
            make_policy("nosuch")
