import math
from fractions import Fraction
from heapq import heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blindq as bq
from blindq.errors import ParameterError
from blindq.policies import Fb, Fifo, Ps, Rmlf


def random_instance(rng, max_jobs=12, small_sizes=False):
    n = int(rng.integers(1, max_jobs + 1))
    gaps = rng.exponential(1.0, n)
    rel = np.cumsum(gaps) - gaps[0]
    sizes = rng.uniform(0.05, 2.5, n)
    if small_sizes:
        sizes[rng.integers(0, n)] = rng.uniform(0.02, 1.5)
    return bq.Instance(rel, sizes)


TWO_JOBS = bq.Instance([0.0, 1.0], [3.0, 1.0])


class TestHandSimulations:
    def test_srpt(self):
        r = bq.simulate(TWO_JOBS, "srpt")
        assert np.array_equal(r.sojourns, [4.0, 1.0])
        assert r.total_flow() == 5.0

    def test_fifo(self):
        r = bq.simulate(TWO_JOBS, "fifo")
        assert np.array_equal(r.sojourns, [3.0, 3.0])
        assert r.total_flow() == 6.0

    def test_ps_equal_split(self):
        inst = bq.Instance([0.0, 1e-12], [1.0, 1.0])
        r = bq.simulate(inst, "ps")
        assert r.completions[0] == pytest.approx(2.0, abs=1e-11)
        assert r.completions[1] == pytest.approx(2.0, abs=1e-11)

    def test_fb_simultaneous_completions_in_id_order(self):
        inst = bq.Instance([0.0, 1e-12], [1.0, 1.0])
        r = bq.simulate(inst, "fb")
        assert r.completions[0] == pytest.approx(2.0, abs=1e-11)
        assert r.completions[1] == pytest.approx(2.0, abs=1e-11)
        assert len(r.cycles) == 1
        assert r.cycles[0].N == 2

    def test_cycle_records(self):
        r = bq.simulate(TWO_JOBS, "srpt")
        c = r.cycles[0]
        assert (c.first_job_id, c.last_job_id, c.N) == (1, 2, 2)
        assert c.P == pytest.approx(4.0)
        assert c.I is None
        assert c.sojourn_sum == pytest.approx(5.0)


class _Logged:
    """Mixin recording the events the simulator dispatches to a policy."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def completion(self, jid):
        self.log.append(("completion", jid))
        super().completion(jid)

    def internal_event(self):
        self.log.append(("target", self.serve()[0].v))
        super().internal_event()


class _LoggedRmlf(_Logged, Rmlf):
    pass


class _LoggedFb(_Logged, Fb):
    pass


class _LoggedPs(_Logged, Ps):
    pass


class _LoggedFifo(_Logged, Fifo):
    pass


class TestNextInternalEvent:
    def test_single_job_completion(self):
        pol = bq.make_policy("fifo")
        g = pol.arrival(1, 0.0)
        heappush(g.heap, (2.5, 1))
        assert pol.serve() == (g, math.inf)    # completion after 2.5, no target
        pol = _LoggedFifo()
        r = bq.simulate(bq.Instance([0.0], [2.5]), pol)
        assert pol.log == [("completion", 1)]
        assert r.completions[0] == 2.5

    def test_rmlf_target_before_completion(self):
        pol = Rmlf(bq.make_stream(0, 2))
        job = pol.arrival(1, 0.0)
        job.v = 0.4
        job.target = 1.0
        assert pol.serve() == (job, pytest.approx(0.6))
        # job 1 always has factor 1: targets 1, 2, 4, 8 are hit before size 10
        pol = _LoggedRmlf(bq.make_stream(0, 2))
        r = bq.simulate(bq.Instance([0.0], [10.0]), pol)
        assert pol.log == [("target", 1.0), ("target", 2.0), ("target", 4.0),
                           ("target", 8.0), ("completion", 1)]
        assert r.completions[0] == 10.0

    def test_fb_pair_completion_id_order(self):
        # two unit jobs released together share one group and finish after
        # 2.0, lower id first
        pol = Fb()
        for jid in (1, 2):
            g = pol.arrival(jid, 0.0)
            heappush(g.heap, (g.v + 1.0, jid))
        pol.internal_event()                   # J2 reaches J1's attained 0
        g, gap = pol.serve()
        assert gap == math.inf
        assert ((g.heap[0][0] - g.v) * len(g.heap), g.heap[0][1]) == (2.0, 1)
        # J2 catches up with J1's attained 1 at t = 2; the merged pair then
        # needs 2.0 more and completes together, lower id first.
        pol = _LoggedFb()
        r = bq.simulate(bq.Instance([0.0, 1.0], [2.0, 2.0]), pol)
        assert pol.log == [("target", 1.0), ("completion", 1), ("completion", 2)]
        assert np.array_equal(r.completions, [4.0, 4.0])

    def test_coincident_completions_lowest_id_first(self):
        # J2 finishes 2e-12 ahead of J1, within EVENT_SNAP: J1 goes first.
        pol = _LoggedPs()
        r = bq.simulate(bq.Instance([0.0, 1e-12], [1.0, 1.0 - 2e-12]), pol)
        assert pol.log == [("completion", 1), ("completion", 2)]
        assert r.completions == pytest.approx([2.0, 2.0], abs=1e-11)

    def test_idle(self):
        # an empty system schedules nothing: the next release opens a cycle
        pol = _LoggedPs()
        r = bq.simulate(bq.Instance([0.0, 3.0], [1.0, 1.0]), pol)
        assert pol.log == [("completion", 1), ("completion", 2)]
        assert np.array_equal(r.completions, [1.0, 4.0])
        assert [(c.start, c.end, c.I) for c in r.cycles] == [(0.0, 1.0, None), (3.0, 4.0, 2.0)]


def _reference_completions(rel, siz, policy):
    """Exact rational-arithmetic simulation of srpt, fifo, ps and fb with the
    simulator's dispatch order: earliest event, then completion < tie-set
    merge < arrival, then lowest job id."""
    rem, att = {}, {}
    done = [None] * len(rel)
    t, i = Fraction(0), 0
    while i < len(rel) or rem:
        if not rem:
            t = rel[i]
            rem[i + 1], att[i + 1] = siz[i], Fraction(0)
            i += 1
            continue
        if policy == "srpt":
            served = [min(rem, key=lambda j: (rem[j], rel[j - 1], j))]
        elif policy == "fifo":
            served = [min(rem)]
        elif policy == "ps":
            served = list(rem)
        else:
            least = min(att.values())
            served = [j for j in att if att[j] == least]
        k = len(served)
        cands = [(rem[j] * k, 0, j) for j in served]
        if policy == "fb" and len(served) < len(att):
            nxt = min(a for j, a in att.items() if j not in served)
            cands.append(((nxt - att[served[0]]) * k, 1, 0))
        if i < len(rel):
            cands.append((rel[i] - t, 2, i + 1))
        dt, kind, jid = min(cands)
        t += dt
        for j in served:
            rem[j] -= dt / k
            att[j] += dt / k
        if kind == 0:
            del rem[jid], att[jid]
            done[jid - 1] = t
        elif kind == 2:
            rem[jid], att[jid] = siz[jid - 1], Fraction(0)
            i += 1
    return done


@st.composite
def dyadic_instances(draw):
    n = draw(st.integers(1, 10))
    gaps = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 32), min_size=n, max_size=n))
    rel = [Fraction(sum(gaps[:k + 1]) - 1, 4) for k in range(n)]
    return rel, [Fraction(s, 8) for s in sizes]


class TestExactReference:
    @settings(max_examples=150, deadline=None)
    @given(dyadic_instances(), st.sampled_from(["srpt", "fifo", "ps", "fb"]))
    def test_matches_rational_simulation(self, case, policy):
        rel, siz = case
        inst = bq.Instance([float(r) for r in rel], [float(s) for s in siz])
        res = bq.simulate(inst, policy)
        ref = [float(c) for c in _reference_completions(rel, siz, policy)]
        assert res.completions == pytest.approx(ref, rel=1e-12)
        busy = bq.busy_periods(inst)
        assert [c.N for c in res.cycles] == [c.N for c in busy]
        for c_sim, c_ref in zip(res.cycles, busy):
            assert c_sim.start == pytest.approx(c_ref.start, rel=1e-12)
            assert c_sim.end == pytest.approx(c_ref.end, rel=1e-12)


class TestBruteForce:
    def test_single_job(self):
        assert bq.brute_force_min_flow(bq.Instance([0.0], [5.0])) == 5.0

    def test_two_jobs(self):
        assert bq.brute_force_min_flow(TWO_JOBS) == 5.0

    def test_three_jobs_matches_srpt(self):
        inst = bq.Instance([0.0, 1.0, 2.0], [4.0, 2.0, 1.0])
        assert bq.brute_force_min_flow(inst) == pytest.approx(
            bq.simulate(inst, "srpt").total_flow(), abs=1e-9)

    def test_size_limit(self):
        inst = bq.Instance([0.0, 1.0, 2.0, 3.0, 4.0], [1.0] * 5)
        with pytest.raises(ParameterError):
            bq.brute_force_min_flow(inst)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(100)
        for _ in range(200):
            inst = random_instance(rng, 4)
            srpt = bq.simulate(inst, "srpt").total_flow()
            assert abs(srpt - bq.brute_force_min_flow(inst)) < 1e-9


class TestInvariants:
    @pytest.mark.parametrize("policy", bq.POLICY_NAMES)
    def test_work_conservation(self, policy):
        rng = np.random.default_rng(200)
        for k in range(20):
            inst = random_instance(rng, 15)
            res = bq.simulate(inst, policy, seed=k)
            ref = bq.busy_periods(inst)
            assert len(res.cycles) == len(ref)
            for c_sim, c_ref in zip(res.cycles, ref):
                assert abs(c_sim.start - c_ref.start) < 1e-9
                assert abs(c_sim.end - c_ref.end) < 1e-9
                assert c_sim.N == c_ref.N

    def test_srpt_pathwise_optimality(self):
        rng = np.random.default_rng(300)
        for k in range(50):
            inst = random_instance(rng, 15)
            srpt = bq.simulate(inst, "srpt").total_flow()
            for policy in bq.POLICY_NAMES:
                flow = bq.simulate(inst, policy, seed=k).total_flow()
                assert srpt <= flow + 1e-9 * max(1.0, srpt)

    def test_sojourns_positive_and_bounded_by_cycle(self):
        rng = np.random.default_rng(400)
        inst = random_instance(rng, 30)
        for policy in bq.POLICY_NAMES:
            res = bq.simulate(inst, policy, seed=1)
            assert np.all(res.sojourns > 0)
            for c in res.cycles:
                assert c.sojourn_sum <= c.N * c.P + 1e-9

    def test_workload_at_arrival_matches_lindley(self):
        rng = np.random.default_rng(500)
        inst = random_instance(rng, 40)
        walk = bq.lindley_walk(inst)
        for policy in ("ps", "rmlf", "srpt"):
            res = bq.simulate(inst, policy, seed=2)
            assert np.max(np.abs(res.work_at_arrival - walk.W)) < 1e-9

    def test_determinism(self):
        rng = np.random.default_rng(600)
        inst = random_instance(rng, 25)
        for policy in ("rmlf", "ermlf", "fb"):
            a = bq.simulate(inst, policy, seed=42)
            b = bq.simulate(inst, policy, seed=42)
            assert np.array_equal(a.completions, b.completions)
            assert a.cycles == b.cycles


class TestScalingCoupling:
    def test_per_job_sojourns_scale(self):
        rng = np.random.default_rng(700)
        for k in range(30):
            inst = random_instance(rng, 20, small_sizes=True)
            g = bq.scaling_exponent(inst)
            rmlf_inst = bq.scale(inst, 2.0 ** (-g))
            t_e = bq.simulate(inst, "ermlf", seed=k).sojourns
            t_r = bq.simulate(rmlf_inst, "rmlf", seed=k).sojourns
            assert np.max(np.abs(t_e - (2.0 ** g) * t_r) / ((2.0 ** g) * t_r)) < 1e-9

    def test_identity_when_g_zero(self):
        inst = bq.Instance([0.0, 1.0], [2.5, 3.0])   # min size in [2, 4): g = 0
        assert bq.scaling_exponent(inst) == 0
        t_e = bq.simulate(inst, "ermlf", seed=5).sojourns
        t_r = bq.simulate(inst, "rmlf", seed=5).sojourns
        assert np.max(np.abs(t_e - t_r)) < 1e-9


class TestExports:
    def test_jobs_csv(self):
        text = bq.jobs_to_csv(bq.simulate(TWO_JOBS, "srpt"))
        lines = text.strip().split("\n")
        assert lines[0] == "id,release,size,completion,sojourn"
        assert len(lines) == 3
        assert lines[1].startswith("1,0.0,3.0,4.0,4.0")

    def test_cycles_csv(self):
        text = bq.sim_cycles_to_csv(bq.simulate(TWO_JOBS, "fifo"))
        lines = text.strip().split("\n")
        assert lines[0] == "cycle,N,P,I,sum_sojourn"
        assert lines[1] == "1,2,4.0,,6.0"

    def test_summary(self):
        s = bq.summary_stats(bq.simulate(TWO_JOBS, "fifo"))
        assert s["jobs"] == 2
        assert s["cycles"] == 1
        assert s["total_flow"] == 6.0
        assert s["mean_sojourn"] == 3.0
