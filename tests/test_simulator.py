import csv
import io
import math
from fractions import Fraction
from heapq import heappush

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blindq as bq
from blindq import acceptance
from blindq.errors import ParameterError
from blindq.instance import cycle_records
from blindq.simulator import FACTOR_BLOCK, RANDOMIZED, _gate, _queue_kernel
from reference import REFERENCES, Fb, Fifo, Ps, Rmlf, run


TWO_JOBS = bq.Instance([0.0, 1.0], [3.0, 1.0])


class TestHandSimulations:
    def test_srpt(self):
        r = bq.simulate(TWO_JOBS, "srpt")
        assert np.array_equal(r.sojourns, [4.0, 1.0])
        assert r.total_flow() == 5.0

    def test_srpt_no_preemption_on_exact_tie(self):
        # at t = 1 job 1 has 2 units left, as much as job 2 needs: job 1 keeps
        # the server (preempting on the tie would give [5.0, 3.0])
        r = bq.simulate(bq.Instance([0.0, 1.0], [3.0, 2.0]), "srpt")
        assert r.completions.tolist() == [3.0, 5.0]

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

    @pytest.mark.parametrize("policy", bq.POLICY_NAMES)
    def test_completion_on_an_arrival_time(self, policy):
        # job 1 needs 0.1 + 0.2 = 0.30000000000000004, one ulp past job 2's
        # release 0.3: inside the coincidence window, so job 1 completes at
        # the event time 0.3, before job 2 arrives
        r = bq.simulate(bq.Instance([0.0, 0.3], [0.1 + 0.2, 1.0]), policy)
        assert r.completions.tolist() == [0.3, 1.3]

    def test_cycle_records(self):
        r = bq.simulate(TWO_JOBS, "srpt")
        c = r.cycles[0]
        assert (c.first_job_id, c.last_job_id, c.N) == (1, 2, 2)
        assert c.P == pytest.approx(4.0)
        assert c.I is None
        assert c.sojourn_sum == pytest.approx(5.0)

    def test_results_compare_by_identity(self):
        # a generated __eq__ would compare the completions arrays inside a
        # tuple and raise on arrays of 2 or more jobs
        a, b = bq.simulate(TWO_JOBS, "srpt"), bq.simulate(TWO_JOBS, "srpt")
        assert a != b
        assert a == a
        assert np.array_equal(a.completions, b.completions)


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
        pol = Fifo()
        g = pol.arrival(1, 0.0)
        heappush(g.heap, (2.5, 1))
        assert pol.serve() == (g, math.inf)    # completion after 2.5, no target
        pol = _LoggedFifo()
        r = run(bq.Instance([0.0], [2.5]), pol)
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
        r = run(bq.Instance([0.0], [10.0]), pol)
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
        r = run(bq.Instance([0.0, 1.0], [2.0, 2.0]), pol)
        assert pol.log == [("target", 1.0), ("completion", 1), ("completion", 2)]
        assert np.array_equal(r.completions, [4.0, 4.0])

    def test_coincident_completions_lowest_id_first(self):
        # J1 has 1 unit left when J2 (size 1) arrives: both finish at exactly
        # t = 3, and J1 goes first
        pol = _LoggedPs()
        r = run(bq.Instance([0.0, 1.0], [2.0, 1.0]), pol)
        assert pol.log == [("completion", 1), ("completion", 2)]
        assert r.completions.tolist() == [3.0, 3.0]

    @pytest.mark.parametrize("g", [0, -40])
    def test_near_coincident_completions_in_time_order(self, g):
        # J2 finishes 2e-12 (relative) ahead of J1: it goes first, at every scale
        inst = bq.scale(bq.Instance([0.0, 1e-12], [1.0, 1.0 - 2e-12]), 2.0 ** g)
        pol = _LoggedPs()
        r = run(inst, pol)
        assert pol.log == [("completion", 2), ("completion", 1)]
        assert r.completions[1] < r.completions[0]
        assert r.completions.tolist() == [2.0 ** g * 1.9999999999980003,
                                          2.0 ** g * 1.9999999999970002]
        assert bq.simulate(inst, "ps").completions.tobytes() == r.completions.tobytes()

    def test_fb_tie_cluster_completes_after_late_arrival(self):
        # det:1 sizes: J1-J4 share attained 0.25 at t = 1 and would all finish
        # at t = 4; J5 arrives 2**-31 earlier, so the cluster is suspended
        # 2**-33 short of its end.  J5 catches up, and the five finish
        # together at t = 5, in id order.
        inst = bq.Instance([0.0, 0.25, 0.5, 0.75, 4.0 - 2.0 ** -31], [1.0] * 5)
        pol = _LoggedFb()
        r = run(inst, pol)
        assert pol.log[-5:] == [("completion", j) for j in range(1, 6)]
        assert r.completions.tolist() == [5.0] * 5
        assert bq.simulate(inst, "fb").completions.tobytes() == r.completions.tobytes()

    def test_fb_det_sizes_complete_in_id_order(self):
        # Equal sizes give tie clusters of one exact virtual finish time; the
        # older job never has less attained service, so jobs leave in id order.
        inst = bq.generate(bq.exponential_mean(1.0 / 0.95), bq.deterministic(1.0), 30, seed=3)
        pol = _LoggedFb()
        r = run(inst, pol)
        done = [jid for kind, jid in pol.log if kind == "completion"]
        assert done == list(range(1, len(inst) + 1))
        assert np.all(np.diff(r.completions) >= 0)
        named = bq.simulate(inst, "fb")
        assert named.completions.tobytes() == r.completions.tobytes()
        assert repr(named.cycles) == repr(r.cycles)

    def test_idle(self):
        # an empty system schedules nothing: the next release opens a cycle
        pol = _LoggedPs()
        r = run(bq.Instance([0.0, 3.0], [1.0, 1.0]), pol)
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


# FB serves jobs 1 and 4-8 together from t = 4.45, at attained 0.7.  In
# exact arithmetic jobs 1 and 4-7 finish at t = 7, as job 9 arrives; 0.7 and
# 4.45 are rounded, and compared exactly the float times put the arrival
# first, so job 9 ran before the group's last ulps and jobs 1 and 4-7 moved
# from t = 7 to 7.125.
FB_LATTICE_TIE = ([Fraction(k, 4) for k in (0, 1, 2, 3, 4, 5, 6, 15, 28)],
                  [Fraction(k, 8) for k in (9, 1, 1, 9, 9, 9, 9, 10, 1)])


class TestExactReference:
    @settings(max_examples=150, deadline=None)
    @given(dyadic_instances(), st.sampled_from(["srpt", "fifo", "ps", "fb"]))
    @example(FB_LATTICE_TIE, "fb")
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


@st.composite
def kernel_instances(draw):
    """Small instances for the kernel/engine comparison: dyadic gaps and
    sizes (exact ties), one repeated size (as det sizes give), sizes down
    to 2**-40 (deep negative eRMLF levels), offsets of a few 1e-10 (events
    near, but not at, a tie), long gaps (single-job cycles), and n = 0."""
    n = draw(st.integers(0, 12))
    repeated = draw(st.sampled_from([1.0, 0.75, 3.0]))
    jitter = st.integers(-3, 3).map(lambda k: k * 3e-10)
    gap = st.one_of(st.integers(1, 16).map(lambda k: k / 8), st.just(8.0),
                    st.floats(0.01, 3.0),
                    st.integers(20, 40).map(lambda e: 2.0 ** -e))
    size = st.one_of(st.integers(1, 32).map(lambda k: k / 8), st.just(repeated),
                     st.floats(0.01, 4.0),
                     st.tuples(st.integers(1, 40), st.floats(1.0, 2.0)).map(
                         lambda p: p[1] * 2.0 ** -p[0]))
    rel, t = [], draw(st.sampled_from([0.0, 0.5]))
    for _ in range(n):
        rel.append(t)
        t += draw(gap) + max(0.0, draw(jitter))
    sizes = [max(2.0 ** -40, draw(size) + draw(jitter)) for _ in range(n)]
    return bq.Instance(rel, sizes)


class TestKernelMatchesEngine:
    """simulate(inst, name) runs each policy in its fused loop; its protocol
    reference (tests/reference.py) runs in the protocol engine.  Same bits."""

    @pytest.mark.parametrize("policy", bq.POLICY_NAMES)
    @settings(max_examples=150, deadline=None)
    @given(inst=kernel_instances(), seed=st.integers(0, 2**32))
    def test_bitwise_equal(self, policy, inst, seed):
        named = bq.simulate(inst, policy, seed=seed)
        engine = run(inst, REFERENCES[policy](bq.make_stream(seed, bq.POLICY_SUBSTREAM)))
        assert named.completions.tobytes() == engine.completions.tobytes()
        assert repr(named.cycles) == repr(engine.cycles)   # repr: exact floats
        assert named.policy == engine.policy == policy

    @pytest.mark.parametrize("policy", RANDOMIZED)
    def test_bitwise_equal_across_factor_blocks(self, policy):
        # 10k jobs: the kernel refills its factor block several times, the
        # engine draws one uniform per arrival
        inst = bq.generate(bq.exponential_mean(1.25), bq.exponential_mean(1.0), 2000, seed=4)
        assert len(inst) > 2 * FACTOR_BLOCK
        named = bq.simulate(inst, policy, seed=-17)
        engine = run(inst, REFERENCES[policy](bq.make_stream(-17, bq.POLICY_SUBSTREAM)))
        assert named.completions.tobytes() == engine.completions.tobytes()
        assert repr(named.cycles) == repr(engine.cycles)

    @pytest.mark.parametrize("policy", bq.POLICY_NAMES)
    @pytest.mark.parametrize("size", ["exp:1", "pareto:2.2"])
    def test_bitwise_equal_in_deep_queues(self, policy, size):
        # rho 0.95: busy periods of thousands of jobs reach what short ones
        # rarely do (here MLF levels up to 7, eRMLF levels down to about
        # -12, FB stacks of over 10 groups, heap merges of dozens of jobs)
        # and cross factor blocks
        sizes = bq.parse_spec(size)
        inst = bq.generate(bq.exponential_mean(bq.moments(sizes)[0] / 0.95), sizes, 400, seed=5)
        assert len(inst) > 2 * FACTOR_BLOCK
        assert max(c.N for c in bq.busy_periods(inst)) > 4000
        named = bq.simulate(inst, policy, seed=-17)
        engine = run(inst, REFERENCES[policy](bq.make_stream(-17, bq.POLICY_SUBSTREAM)))
        assert named.completions.tobytes() == engine.completions.tobytes()
        assert repr(named.cycles) == repr(engine.cycles)

    @pytest.mark.parametrize("policy", ["fifo", "mlf", "rmlf", "ermlf"])
    @settings(max_examples=100, deadline=None)
    @given(inst=kernel_instances(), seed=st.integers(0, 2**32))
    def test_order_checked_loop_is_the_one_simulate_runs(self, policy, inst, seed):
        # acceptance criterion 9 checks the queue order in _queue_kernel
        # with check_order: that run makes simulate's decisions, bit for bit
        rel = inst.releases.tolist()
        completions, closes = _queue_kernel(rel, inst.sizes.tolist(), _gate(rel, inst), policy,
                                            seed, check_order=True)
        named = bq.simulate(inst, policy, seed=seed)
        assert np.array(completions).tobytes() == named.completions.tobytes()
        assert repr(cycle_records(rel, closes)) == repr(named.cycles)

    @pytest.mark.parametrize("policy", bq.POLICY_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(inst=kernel_instances(), seed=st.integers(0, 2**32))
    def test_same_bits_with_busy_periods_cached_first(self, policy, inst, seed):
        # the loops read the instance's cached busy periods, walked by
        # simulate itself or by an earlier busy_periods call
        fresh = bq.simulate(bq.Instance(inst.releases, inst.sizes), policy, seed=seed)
        bq.busy_periods(inst)
        cached = bq.simulate(inst, policy, seed=seed)
        assert cached.completions.tobytes() == fresh.completions.tobytes()
        assert repr(cached.cycles) == repr(fresh.cycles)

    def test_empty_instance(self):
        for policy in bq.POLICY_NAMES:
            res = bq.simulate(bq.Instance([], []), policy)
            assert res.completions.size == 0 and res.cycles == []

    def test_non_string_policy_rejected(self):
        # simulate runs policies by name only; a policy object is not a name
        for policy in (Fifo(), None, 3):
            with pytest.raises(ParameterError):
                bq.simulate(TWO_JOBS, policy)


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

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_oracle_agreement_random(self, seed):
        inst = acceptance._random_instance(np.random.default_rng(seed), 4)
        srpt = bq.simulate(inst, "srpt").total_flow()
        assert abs(srpt - bq.brute_force_min_flow(inst)) < 1e-9


class TestInvariants:
    # Decimal ties, as a hand-written instance file has them: 0.4 + 0.3 = 0.7
    # is no tie in binary, and different sums of the same work round to
    # either side of it.  In the first instance the loops' own sums put job 3
    # inside the first busy period, in the second they empty the system
    # before job 4 arrives; the workload recursion decides both.
    DECIMAL_TIES = [([0.0, 0.2, 0.7], [0.4, 0.3, 0.8]),
                    ([0.0, 0.1, 0.4, 1.4], [0.3, 1.0, 0.1, 1.4])]

    @staticmethod
    def _assert_cycles_follow_busy_periods(inst, policies=bq.POLICY_NAMES, seed=1):
        # equal first ids give equal cycle starts
        busy = bq.busy_periods(inst)
        for policy in policies:
            res = bq.simulate(inst, policy, seed=seed)
            assert ([(c.first_job_id, c.N) for c in res.cycles]
                    == [(c.first_job_id, c.N) for c in busy]), policy
            for c_sim, c_ref in zip(res.cycles, busy):
                assert abs(c_sim.end - c_ref.end) <= acceptance.EXACT_TOL

    @pytest.mark.parametrize("policy", bq.POLICY_NAMES)
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_work_conservation(self, policy, seed):
        inst = acceptance._random_instance(np.random.default_rng(seed), 15)
        self._assert_cycles_follow_busy_periods(inst, [policy], seed)

    @pytest.mark.parametrize("case", DECIMAL_TIES)
    def test_decimal_tie_cycles(self, case):
        self._assert_cycles_follow_busy_periods(bq.Instance(*case))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 15)), min_size=1, max_size=12))
    def test_decimal_ties_follow_busy_periods(self, steps):
        rel = [float(f"{r:.1f}") for r in np.cumsum([g / 10 for g, _ in steps])]
        self._assert_cycles_follow_busy_periods(bq.Instance(rel, [b / 10 for _, b in steps]))

    @pytest.mark.parametrize("policy", bq.POLICY_NAMES)
    def test_idle_time_not_negative_after_decimal_tie(self, policy):
        # ps and ermlf end the first busy period at 0.7000000000000001 by
        # their own arithmetic, an ulp past job 3's release at 0.7, which
        # waits for it: the idle time before job 3's cycle is 0, as in
        # busy_periods, while P stays the loop's own
        inst = bq.Instance(*self.DECIMAL_TIES[0])
        res = bq.simulate(inst, policy, seed=1)
        assert [c.I for c in res.cycles] == [None, 0.0]
        assert [c.I for c in bq.busy_periods(inst)] == [None, 0.0]
        assert res.cycles[0].P == (0.7000000000000001 if policy in ("ps", "ermlf") else 0.7)

    @settings(max_examples=100, deadline=None)
    @given(inst=kernel_instances(), policy=st.sampled_from(bq.POLICY_NAMES),
           seed=st.integers(0, 2**32))
    def test_idle_time_not_negative(self, inst, policy, seed):
        cycles = bq.simulate(inst, policy, seed=seed).cycles + bq.busy_periods(inst)
        assert all(c.I is None or c.I >= 0 for c in cycles)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_srpt_pathwise_optimality(self, seed):
        inst = acceptance._random_instance(np.random.default_rng(seed), 15)
        srpt = bq.simulate(inst, "srpt").total_flow()
        for policy in bq.POLICY_NAMES:
            flow = bq.simulate(inst, policy, seed=seed).total_flow()
            assert srpt <= flow + 1e-9 * max(1.0, srpt)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_sojourns_positive_and_bounded_by_cycle(self, seed):
        inst = acceptance._random_instance(np.random.default_rng(seed), 30)
        for policy in bq.POLICY_NAMES:
            res = bq.simulate(inst, policy, seed=seed)
            assert np.all(res.sojourns > 0)
            for c in res.cycles:
                assert c.sojourn_sum <= c.N * c.P + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_determinism(self, seed):
        inst = acceptance._random_instance(np.random.default_rng(seed), 25)
        for policy in bq.POLICY_NAMES:
            a = bq.simulate(inst, policy, seed=seed)
            b = bq.simulate(inst, policy, seed=seed)
            assert np.array_equal(a.completions, b.completions)
            assert a.cycles == b.cycles


class TestGate:
    """_gate: inf where a busy period of the instance's walk opens, and past
    the last job; every other arrival's release, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(inst=kernel_instances())
    @example(inst=bq.Instance([], []))
    @example(inst=bq.Instance(*TestInvariants.DECIMAL_TIES[0]))
    @example(inst=bq.Instance(*TestInvariants.DECIMAL_TIES[1]))
    @example(inst=bq.generate(bq.exponential_mean(1.25), bq.exponential_mean(1.0), 20, seed=4))
    def test_inf_exactly_at_busy_period_openers(self, inst):
        n = len(inst)
        gate = _gate(inst.releases.tolist(), inst)
        openers = {c.first_job_id - 1 for c in bq.busy_periods(inst)} | {n}
        assert len(gate) == n + 1
        assert {k for k, g in enumerate(gate) if g == math.inf} == openers
        inside = [k for k in range(n) if k not in openers]
        assert np.array(gate)[inside].tobytes() == inst.releases[inside].tobytes()


class TestScalingCoupling:
    @settings(max_examples=200, deadline=None)
    @given(inst=kernel_instances(), g=st.integers(-60, 60),
           policy=st.sampled_from(["srpt", "fifo", "ps", "fb"]))
    def test_scale_equivariant(self, inst, g, policy):
        # no comparison depends on the time unit, and scaling by 2**g is exact
        scaled = bq.scale(inst, 2.0 ** g)
        res = bq.simulate(scaled, policy)
        assert res.completions.tobytes() == (bq.simulate(inst, policy).completions
                                             * 2.0 ** g).tobytes()
        assert len(res.cycles) == len(bq.busy_periods(scaled)) == len(bq.busy_periods(inst))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), h=st.integers(-60, 60))
    def test_coupling_at_every_scale(self, seed, h):
        # criterion 8's check, with its instances and tolerance, at time unit 2**h
        rng = np.random.default_rng(seed)
        inst = bq.scale(acceptance._random_instance(rng, 40, small_sizes=True), 2.0 ** h)
        g = bq.scaling_exponent(inst)
        s = int(rng.integers(0, 2**60))
        t_e = bq.simulate(inst, "ermlf", seed=s).sojourns
        t_r = bq.simulate(bq.scale(inst, 2.0 ** -g), "rmlf", seed=s).sojourns
        err = np.max(np.abs(t_e - 2.0 ** g * t_r) / (2.0 ** g * t_r))
        assert err <= acceptance.EXACT_TOL

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

    @settings(max_examples=40, deadline=None)
    @given(inst=kernel_instances(), policy=st.sampled_from(["fifo", "ps"]))
    def test_byte_identical_to_csv_writer(self, inst, policy):
        # The rows csv.writer was given before the three exports shared one
        # writer; the first cycle's I is None, written as an empty field.
        def writer_text(header, rows):
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
            return buf.getvalue()

        res = bq.simulate(inst, policy)
        assert bq.jobs_to_csv(res) == writer_text(
            ["id", "release", "size", "completion", "sojourn"],
            [[k + 1, repr(float(inst.releases[k])), repr(float(inst.sizes[k])),
              repr(float(res.completions[k])), repr(float(res.sojourns[k]))]
             for k in range(res.n_jobs())])
        assert bq.sim_cycles_to_csv(res) == writer_text(
            ["cycle", "N", "P", "I", "sum_sojourn"],
            [[idx, c.N, repr(c.P), "" if c.I is None else repr(c.I), repr(c.sojourn_sum)]
             for idx, c in enumerate(res.cycles, start=1)])
        cycles = bq.busy_periods(inst)
        assert bq.cycles_to_csv(cycles) == writer_text(
            ["cycle_index", "N", "P", "I", "start", "end"],
            [[idx, c.N, repr(c.P), "" if c.I is None else repr(c.I),
              repr(c.start), repr(c.end)] for idx, c in enumerate(cycles, start=1)])

    def test_written_to_path(self, tmp_path):
        res = bq.simulate(bq.Instance([0.0, 5.0], [1.0, 2.0]), "fifo")
        for fn in (bq.jobs_to_csv, bq.sim_cycles_to_csv):
            path = tmp_path / "out.csv"
            assert fn(res, path) is None
            assert path.read_text() == fn(res)
        assert bq.sim_cycles_to_csv(res).split("\n")[1:3] == ["1,1,1.0,,1.0", "2,1,2.0,4.0,2.0"]

    def test_summary(self):
        s = bq.summary_stats(bq.simulate(TWO_JOBS, "fifo"))
        assert s["jobs"] == 2
        assert s["cycles"] == 1
        assert s["total_flow"] == 6.0
        assert s["mean_sojourn"] == 3.0
