import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

import blindq as bq
from blindq.errors import InsufficientDataError, ParameterError


def fake_result(cycles, rho=None, mu=None):
    empty = np.empty(0)
    return bq.SimResult("test", None, empty, empty, empty, empty,
                        list(cycles), rho, mu)


def cyc(n, p, idle, sojourn_sum, first=1):
    last = first + n - 1
    return bq.CycleRecord(first, last, n, p, idle, 0.0, p, sojourn_sum)


def srpt_mg1_mean_exact(lam: float) -> float:
    """Independent oracle: mean sojourn of SRPT in M/M/1 with unit-mean sizes
    (arrival rate lam) via the classical size-conditional formulas."""
    def rho(x):
        return lam * (1.0 - math.exp(-x) * (1.0 + x))

    def m2(x):
        return 2.0 - math.exp(-x) * (x * x + 2.0 * x + 2.0)

    def wait(x):
        return lam * (m2(x) + x * x * math.exp(-x)) / (2.0 * (1.0 - rho(x)) ** 2)

    def residence(x):
        return integrate.quad(lambda t: 1.0 / (1.0 - rho(t)), 0, x, limit=200)[0]

    val, _ = integrate.quad(lambda x: (wait(x) + residence(x)) * math.exp(-x),
                            0, 60, limit=400)
    return val


class TestRegenMeanSojourn:
    def test_exact_ratio(self):
        cycles = [cyc(2, 3.0, None, 4.0), cyc(2, 3.0, 1.0, 4.0, first=3)]
        est = bq.regen_mean_sojourn(fake_result(cycles))
        assert est.point == 2.0
        assert est.functional == "T"
        assert est.cycles_used == 2

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            bq.regen_mean_sojourn(fake_result([cyc(1, 1.0, None, 1.0)]))

    def test_mm1_blind_policy_covers_conway_value(self):
        inst = bq.generate(bq.exponential_mean(2.0), bq.exponential_mean(1.0),
                           30_000, seed=1001)
        est = bq.regen_mean_sojourn(bq.simulate(inst, "ps", seed=1001))
        assert abs(est.point - 2.0) <= est.ci_halfwidth

    def test_srpt_against_quadrature_oracle(self):
        lam = 0.9
        exact = srpt_mg1_mean_exact(lam)
        inst = bq.generate(bq.exponential_mean(1.0 / lam), bq.exponential_mean(1.0),
                           30_000, seed=1002)
        est = bq.regen_mean_sojourn(bq.simulate(inst, "srpt", seed=1002))
        assert abs(est.point - exact) <= 2.0 * est.ci_halfwidth

    def test_blind_policy_cis_mutually_overlap(self):
        # memoryless sizes make every blind policy equivalent in mean
        inst = bq.generate(bq.exponential_mean(2.0), bq.exponential_mean(1.0),
                           20_000, seed=1011)
        ests = [bq.regen_mean_sojourn(bq.simulate(inst, p, seed=1011))
                for p in ("fifo", "ps", "fb", "mlf", "rmlf", "ermlf")]
        for a in ests:
            assert abs(a.point - 2.0) <= a.ci_halfwidth
            for b in ests:
                assert abs(a.point - b.point) <= a.ci_halfwidth + b.ci_halfwidth


class TestFunctionalMoment:
    def test_busy_period_mean_mm1(self):
        inst = bq.generate(bq.exponential_mean(1.25), bq.exponential_mean(1.0),
                           100_000, seed=1003)
        est = bq.functional_moment(bq.busy_periods(inst), "P", 1.0)
        assert abs(est.point - 5.0) <= 2.0 * est.ci_halfwidth
        assert abs(est.point - 5.0) / 5.0 < 0.05

    def test_busy_period_second_moment_mm1(self):
        inst = bq.generate(bq.exponential_mean(2.0), bq.exponential_mean(1.0),
                           100_000, seed=1004)
        est = bq.functional_moment(bq.busy_periods(inst), "P", 2.0)
        assert abs(est.point - 16.0) / 16.0 < 0.10

    def test_cycle_count_mean_mg1(self):
        # E[N] = 1/(1-rho) for Poisson arrivals via E[I] = mu E[N], E[I] = E[A]
        inst = bq.generate(bq.exponential_mean(1.25), bq.uniform(0.5, 1.5),
                           100_000, seed=1005)
        est = bq.functional_moment(bq.busy_periods(inst), "N", 1.0)
        assert abs(est.point - 5.0) / 5.0 < 0.03

    def test_idle_skips_first_cycle(self):
        cycles = [cyc(1, 1.0, None, 1.0), cyc(1, 1.0, 2.0, 1.0, first=2)]
        est = bq.functional_moment(cycles, "I", 1.0)
        assert est.point == 2.0
        assert est.cycles_used == 1

    def test_kappa_above_alpha_warns(self):
        cycles = [cyc(1, 1.0, None, 1.0), cyc(1, 2.0, 1.0, 2.0, first=2)]
        with pytest.warns(RuntimeWarning):
            bq.functional_moment(cycles, "P", 3.0, alpha=2.5)

    def test_errors(self):
        with pytest.raises(InsufficientDataError):
            bq.functional_moment([], "P", 1.0)
        with pytest.raises(ParameterError):
            bq.functional_moment([cyc(1, 1.0, None, 1.0)], "P", 0.5)
        with pytest.raises(ParameterError):
            bq.functional_moment([cyc(1, 1.0, None, 1.0)], "Q", 1.0)


class TestInIdentity:
    def test_deterministic_exact(self):
        inst = bq.generate(bq.deterministic(2.0), bq.deterministic(1.0), 5, seed=0)
        report = bq.check_IN_identity(bq.busy_periods(inst), inst.meta.mu)
        assert report.lhs == 1.0
        assert report.rhs == 1.0
        assert report.rel_gap == 0.0
        assert report.covers_zero()

    def test_mm1_gap_covers_zero(self):
        inst = bq.generate(bq.exponential_mean(1.25), bq.exponential_mean(1.0),
                           50_000, seed=3)
        report = bq.check_IN_identity(bq.busy_periods(inst), inst.meta.mu)
        assert report.covers_zero()

    def test_nominal_coverage_across_seeds(self):
        fails = 0
        for s in range(20):
            inst = bq.generate(bq.exponential_mean(1.25), bq.exponential_mean(1.0),
                               5_000, seed=3000 + s)
            rep = bq.check_IN_identity(bq.busy_periods(inst), inst.meta.mu)
            fails += not rep.covers_zero()
        assert fails <= 4   # 95% nominal; 20 trials

    def test_single_cycle_insufficient(self):
        inst = bq.generate(bq.deterministic(2.0), bq.deterministic(1.0), 1, seed=0)
        with pytest.raises(InsufficientDataError):
            bq.check_IN_identity(bq.busy_periods(inst), 1.0)


class TestLindleyWalk:
    def test_negative_drift_never_reflects(self):
        inst = bq.generate(bq.deterministic(2.0), bq.deterministic(1.0), 10, seed=0)
        walk = bq.lindley_walk(inst)
        assert np.all(walk.W == 0.0)

    def test_single_step(self):
        walk = bq.lindley_walk(bq.Instance([0.0, 1.0], [3.0, 1.0]))
        assert np.array_equal(walk.W, [0.0, 2.0])
        assert np.array_equal(walk.S, [0.0, 2.0])

    def test_pollaczek_khinchine_mean(self):
        # M/M/1 rho=0.5, E[B]=1: E[W] = lam E[B^2] / (2 (1-rho)) = 1.0
        inst = bq.generate(bq.exponential_mean(2.0), bq.exponential_mean(1.0),
                           50_000, seed=1007)
        walk = bq.lindley_walk(inst)
        assert abs(walk.W.mean() - 1.0) < 0.05

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        gaps = rng.exponential(1.0, 200)
        inst = bq.Instance(np.cumsum(gaps) - gaps[0], rng.uniform(0.1, 2.0, 200))
        assert np.all(bq.lindley_walk(inst).W >= 0.0)


class TestTailSplit:
    def test_threshold_formula(self):
        # s = 1.2 keeps zeta = 10 above its floor (4+2s)/(2-s) = 8
        params = bq.AnalysisParams(s=1.2, zeta=10.0)
        assert params.n0(0.5) == 1024.0

    def test_threshold_overflow_named(self):
        # (1 - 0.999)**-200 = 1e600 is past the largest float
        params = bq.AnalysisParams(zeta=200.0)
        assert params.n0(0.5) == 2.0 ** 200
        with pytest.raises(bq.ParameterError, match=r"rho=0\.999, zeta=200\.0"):
            params.n0(0.999)

    def test_all_small(self):
        cycles = [cyc(2, 3.0, None, 4.0), cyc(2, 3.0, 1.0, 4.0, first=3)]
        split = bq.tail_split(fake_result(cycles, rho=0.5), bq.AnalysisParams())
        assert split.large == 0.0
        assert split.small == 2.0

    def test_partition_identity(self):
        inst = bq.generate(bq.exponential_mean(1.25), bq.exponential_mean(1.0),
                           5_000, seed=1008)
        res = bq.simulate(inst, "ermlf", seed=1008)
        est = bq.regen_mean_sojourn(res)
        # low threshold so both sides of the split are non-empty
        split = bq.tail_split(dataclasses.replace(res, rho=0.1),
                              bq.AnalysisParams(s=1.2, zeta=8.5))
        assert split.large > 0.0
        assert abs(split.total - est.point) <= 1e-12 * est.point

    def test_requires_rho(self):
        cycles = [cyc(2, 3.0, None, 4.0), cyc(2, 3.0, 1.0, 4.0, first=3)]
        with pytest.raises(ParameterError):
            bq.tail_split(fake_result(cycles), bq.AnalysisParams())


class TestHolder:
    def test_exponent_arithmetic(self):
        p_order, p_outer, n_tail = bq.holder_exponents(1.5)
        assert p_order == pytest.approx(3.0)
        assert p_outer == pytest.approx(1.0 / 3.0)
        assert n_tail == pytest.approx(1.0 / 6.0)

    def test_single_cycle_insufficient(self):
        with pytest.raises(InsufficientDataError):
            bq.holder_diagnostic(fake_result([cyc(1, 1.0, None, 1.0)], rho=0.5),
                                 bq.AnalysisParams())

    def test_bound_dominates_measured_contribution(self):
        inst = bq.generate(bq.exponential_mean(1.25), bq.exponential_mean(1.0),
                           20_000, seed=1009)
        res = bq.simulate(inst, "ermlf", seed=1009)
        params = bq.AnalysisParams()
        split = bq.tail_split(res, params)
        bound = bq.holder_diagnostic(res, params)
        assert split.large <= bound

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            bq.AnalysisParams(s=0.9)               # below the valid range
        with pytest.raises(ParameterError):
            bq.AnalysisParams(s=1.5, zeta=14.0)    # needs > 14 at s=1.5
        with pytest.raises(ParameterError):
            bq.AnalysisParams(alpha=1.5)           # needs alpha > 2
        with pytest.raises(ParameterError):
            bq.AnalysisParams(alpha=3.0, s=1.4)    # below alpha/(alpha-1)
        bq.AnalysisParams(alpha=3.0, s=1.6, zeta=20.0)


class TestExponentFit:
    def test_exact_power_law(self):
        pts = [(r, 2.7 * (1 - r) ** -1.0) for r in (0.5, 0.6, 0.7, 0.8, 0.9)]
        fit = bq.exponent_fit(pts)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.stderr < 1e-9

    def test_target_exponent_for_second_moment(self):
        kappa = 2.0
        assert 1.0 - 2.0 * kappa == -3.0

    def test_recovers_busy_period_exponent(self):
        pts = []
        for rho in (0.5, 0.6, 0.7, 0.8):
            inst = bq.generate(bq.exponential_mean(1.0 / rho), bq.exponential_mean(1.0),
                               50_000, seed=1010 + int(10 * rho))
            pts.append((rho, bq.functional_moment(bq.busy_periods(inst), "P", 2.0).point))
        fit = bq.exponent_fit(pts)
        assert abs(fit.slope - (-3.0)) < 0.4

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            bq.exponent_fit([(0.5, 1.0), (0.6, 2.0)])
        with pytest.raises(InsufficientDataError):
            bq.exponent_fit([(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)])


class TestRatioCurve:
    def test_self_ratio_is_one(self):
        pts = [(0.5, 2.0), (0.9, 10.0)]
        rows = bq.ratio_curve(pts, pts)
        assert all(row.ratio == 1.0 for row in rows)

    def test_normalizer_value(self):
        rows = bq.ratio_curve([(0.9, 3.0)], [(0.9, 3.0)])
        assert rows[0].normalized == pytest.approx(1.0 / math.log(10.0))
        assert math.log(10.0) == pytest.approx(2.3026, abs=1e-4)

    def test_grid_mismatch(self):
        with pytest.raises(ParameterError):
            bq.ratio_curve([(0.5, 2.0)], [(0.6, 2.0)])
