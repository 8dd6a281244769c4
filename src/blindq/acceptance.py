"""Acceptance suite: eleven verifiable properties of the simulator and its
estimators, runnable at three scales (full / quick / smoke).

Tolerances for statistically estimated quantities widen on the reduced
profiles (fewer cycles, more noise); structural identities and exact
couplings keep their tolerances everywhere.  The SRPT heavy-traffic check
(criterion 2) compares against the asymptote 1/((1-rho) log(e/(1-rho)))
at rho=0.9 with a fixed 10% band; the exact finite-load value computed by
independent quadrature is ~17% above that asymptote, so the check fails on
every profile with a correct simulator.  It is kept as stated and reported
honestly; see the criterion details and README.  Criterion 9 checks queue
order in the queue kernel that runs rmlf and ermlf, before every event.
Every seed is derive_seed(master, label), one label per criterion and point.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .distributions import derive_seed, exponential_mean, uniform as uniform_spec
from .errors import InternalConsistencyError
from .estimators import (
    AnalysisParams,
    check_IN_identity,
    exponent_fit,
    functional_moment,
    holder_diagnostic,
    regen_mean_sojourn,
    tail_split,
)
from .instance import Instance, busy_periods, generate, scale, scaling_exponent
from .simulator import (POLICY_NAMES, RANDOMIZED, _gate, _queue_kernel, brute_force_min_flow,
                        simulate)

DEFAULT_SEED = 20260809

BLIND_POLICIES = tuple(p for p in POLICY_NAMES if p != "srpt")

SRPT_HT_TARGET = 10.0 / (1.0 + math.log(10.0))   # asymptote at rho = 0.9

# Check tolerance of the criteria that compare two computations of one
# quantity (C6-C8: SRPT against brute force, cycle ends against the workload
# recursion, eRMLF against scaled RMLF), which differ by rounding only.  The
# simulator itself uses no absolute tolerance (simulator.TIE is relative).
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class Profile:
    name: str
    cycle_factor: float   # scales cycle counts
    count_factor: float   # scales instance/trajectory counts
    tol_factor: float     # widens noise-dominated tolerances


PROFILES = {
    "full": Profile("full", 1.0, 1.0, 1.0),
    "quick": Profile("quick", 1.0 / 20.0, 1.0 / 5.0, 5.0),
    "smoke": Profile("smoke", 1.0 / 200.0, 1.0 / 25.0, 20.0),
}


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[C{self.cid:02d}] {status}  {self.name}"


def _cycles(profile: Profile, full_count: int) -> int:
    return max(200, int(full_count * profile.cycle_factor))


def _count(profile: Profile, full_count: int) -> int:
    return max(10, int(full_count * profile.count_factor))


def _mm1(rho: float, cycles: int, seed: int) -> Instance:
    return generate(exponential_mean(1.0 / rho), exponential_mean(1.0), cycles, seed=seed)


def pmap(fn, payloads, jobs):
    """[fn(p) for p in payloads], in order; over a pool of min(jobs, payloads)
    worker processes when that is above 1 (fn must then be a module-level
    function)."""
    workers = min(jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


# --- criterion 1: blind-policy M/M/1 sojourn --------------------------------

def _c1_point(payload):
    policy, rho, cycles, seed = payload
    inst = _mm1(rho, cycles, seed)
    est = regen_mean_sojourn(simulate(inst, policy, seed=seed))
    return {"policy": policy, "rho": rho, "point": est.point,
            "ci": est.ci_halfwidth, "cycles": est.cycles_used}


def c1_blind_mm1(profile: Profile, seed: int, jobs: int) -> CriterionResult:
    cycles = _cycles(profile, 200_000)
    rel_tol = 0.02 * profile.tol_factor
    payloads = [(policy, rho, cycles, derive_seed(seed, f"c1:{policy}:{rho}"))
                for policy in BLIND_POLICIES for rho in (0.5, 0.8)]
    rows = pmap(_c1_point, payloads, jobs)
    for row in rows:
        target = 1.0 / (1.0 - row["rho"])
        row["target"] = target
        # CI coverage is widened on reduced profiles along with the other
        # noise-dominated tolerances; factor 1 on the full profile.
        row["covers"] = abs(row["point"] - target) <= row["ci"] * profile.tol_factor
        row["rel_err"] = abs(row["point"] - target) / target
        row["ok"] = row["covers"] and row["rel_err"] <= rel_tol
    return CriterionResult(1, "blind-policy M/M/1 mean sojourn = E[B]/(1-rho)",
                           all(r["ok"] for r in rows),
                           {"rel_tol": rel_tol, "cycles": cycles, "runs": rows})


# --- criterion 2: SRPT M/M/1 heavy traffic -----------------------------------

def c2_srpt_heavy_traffic(profile: Profile, seed: int, jobs: int) -> CriterionResult:
    cycles = _cycles(profile, 200_000)
    s = derive_seed(seed, "c2")
    inst = _mm1(0.9, cycles, s)
    est = regen_mean_sojourn(simulate(inst, "srpt", seed=s))
    rel_err = abs(est.point - SRPT_HT_TARGET) / SRPT_HT_TARGET
    # 10% band fixed on all profiles: the gap to the asymptote is bias, not
    # estimation noise (exact value at rho=0.9 is ~3.552, 17% above target).
    passed = rel_err <= 0.10
    return CriterionResult(2, "SRPT M/M/1 rho=0.9 within 10% of 10/(1+ln 10)",
                           passed,
                           {"point": est.point, "ci": est.ci_halfwidth,
                            "target": SRPT_HT_TARGET, "rel_err": rel_err,
                            "cycles": cycles,
                            "exact_finite_load_value": 3.5521,
                            "note": "known red: asymptote is ~17% below the exact "
                                    "finite-load value, outside the stated band"})


# --- criterion 3: busy-period moments ----------------------------------------

def c3_busy_period_moments(profile: Profile, seed: int, jobs: int) -> CriterionResult:
    checks = []
    cyc1 = _cycles(profile, 200_000)
    inst = _mm1(0.8, cyc1, derive_seed(seed, "c3:P1"))
    est = functional_moment(busy_periods(inst), "P", 1.0)
    tol = 0.02 * profile.tol_factor
    checks.append({"stat": "E[P] @ rho=0.8", "point": est.point, "ci": est.ci_halfwidth,
                   "target": 5.0, "rel_tol": tol,
                   "ok": abs(est.point - 5.0) <= est.ci_halfwidth * profile.tol_factor
                         and abs(est.point - 5.0) / 5.0 <= tol})
    cyc2 = _cycles(profile, 1_000_000)
    inst = _mm1(0.5, cyc2, derive_seed(seed, "c3:P2"))
    est = functional_moment(busy_periods(inst), "P", 2.0)
    tol = 0.10 * profile.tol_factor
    checks.append({"stat": "E[P^2] @ rho=0.5", "point": est.point, "ci": est.ci_halfwidth,
                   "target": 16.0, "rel_tol": tol,
                   "ok": abs(est.point - 16.0) <= est.ci_halfwidth * profile.tol_factor
                         and abs(est.point - 16.0) / 16.0 <= tol})
    return CriterionResult(3, "M/M/1 busy-period moments E[P], E[P^2]",
                           all(c["ok"] for c in checks), {"checks": checks})


# --- criterion 4: E[N] oracle and the idle/arrivals identity ------------------

def c4_cycle_count_identity(profile: Profile, seed: int, jobs: int) -> CriterionResult:
    cycles = _cycles(profile, 200_000)
    tol = 0.02 * profile.tol_factor
    checks = []
    for rho in (0.5, 0.8):
        # M/G/1 with a non-exponential size law; E[N] = 1/(1-rho) because
        # Poisson arrivals make E[I] = E[A].
        inst = generate(exponential_mean(1.0 / rho), uniform_spec(0.5, 1.5),
                        cycles, seed=derive_seed(seed, f"c4:N:{rho}"))
        est = functional_moment(busy_periods(inst), "N", 1.0)
        target = 1.0 / (1.0 - rho)
        checks.append({"stat": f"E[N] @ rho={rho}", "point": est.point,
                       "ci": est.ci_halfwidth, "target": target, "rel_tol": tol,
                       "ok": abs(est.point - target) / target <= tol})
    # GI/GI/1: uniform arrivals, exponential sizes, rho = 0.8.
    inst = generate(uniform_spec(0.75, 1.75), exponential_mean(1.0),
                    _cycles(profile, 100_000), seed=derive_seed(seed, "c4:IN"))
    report = check_IN_identity(busy_periods(inst), inst.meta.mu)
    checks.append({"stat": "E[I] - mu E[N] @ uniform/exp rho=0.8",
                   "lhs": report.lhs, "rhs": report.rhs,
                   "gap_halfwidth": report.gap_halfwidth,
                   "ok": report.covers_zero()})
    return CriterionResult(4, "E[N] = 1/(1-rho) for M/G/1; idle identity gap covers 0",
                           all(c["ok"] for c in checks), {"checks": checks})


# --- criterion 5: heavy-traffic exponent recovery ------------------------------

def _c5_point(payload):
    rho, cycles, seed = payload
    cyc = busy_periods(_mm1(rho, cycles, seed))
    p2 = functional_moment(cyc, "P", 2.0)
    n2 = functional_moment(cyc, "N", 2.0)
    return rho, p2.point, n2.point


def c5_exponent_recovery(profile: Profile, seed: int, jobs: int) -> CriterionResult:
    cycles = _cycles(profile, 400_000)
    grid = (0.5, 0.6, 0.7, 0.8, 0.9)
    payloads = [(rho, cycles, derive_seed(seed, f"c5:{rho}")) for rho in grid]
    pts = pmap(_c5_point, payloads, jobs)
    fit_p = exponent_fit([(rho, p2) for rho, p2, _ in pts])
    fit_n = exponent_fit([(rho, n2) for rho, _, n2 in pts])
    half = 0.3 * profile.tol_factor
    lo, hi = -3.0 - half, -3.0 + half
    ok_p = lo <= fit_p.slope <= hi
    ok_n = lo <= fit_n.slope <= hi
    return CriterionResult(5, "exponent fits of E[P^2], E[N^2] in [-3.3, -2.7]",
                           ok_p and ok_n,
                           {"cycles_per_point": cycles,
                            "slope_P2": fit_p.slope, "stderr_P2": fit_p.stderr,
                            "slope_N2": fit_n.slope, "stderr_N2": fit_n.stderr,
                            "band": [lo, hi]})


# --- random instances shared by criteria 6-9 ---------------------------------

def _random_instance(rng: np.random.Generator, max_jobs: int,
                     small_sizes: bool = False) -> Instance:
    n = int(rng.integers(1, max_jobs + 1))
    gaps = rng.exponential(1.0, n)
    releases = np.cumsum(gaps) - gaps[0]
    style = rng.integers(0, 3)
    if style == 0:
        sizes = rng.uniform(0.05, 3.0, n)
    elif style == 1:
        sizes = rng.exponential(1.0, n) + 0.01
    else:
        sizes = rng.pareto(2.5, n) + 0.05
    if small_sizes:
        sizes = np.minimum(sizes, 1.95)
        sizes[rng.integers(0, n)] = rng.uniform(0.01, 1.5)
    return Instance(releases, sizes)


def c6_srpt_optimality(profile: Profile, seed: int, jobs: int) -> CriterionResult:
    n_inst = _count(profile, 1000)
    n_seeds = 5 if profile.name == "full" else 2
    rng = np.random.default_rng(derive_seed(seed, "c6"))
    worst_gap = 0.0
    violations = []
    for k in range(n_inst):
        inst = _random_instance(rng, 20)
        srpt_flow = simulate(inst, "srpt", seed=0).total_flow()
        slack = EXACT_TOL * max(1.0, srpt_flow)
        for policy in BLIND_POLICIES:
            seeds = range(n_seeds) if policy in RANDOMIZED else (0,)
            for s in seeds:
                flow = simulate(inst, policy, seed=s).total_flow()
                gap = srpt_flow - flow
                worst_gap = max(worst_gap, gap)
                if gap > slack:
                    violations.append({"instance": k, "policy": policy, "seed": s,
                                       "srpt": srpt_flow, "other": flow})
    rng2 = np.random.default_rng(derive_seed(seed, "c6:bf"))
    n_bf = _count(profile, 1000)
    worst_bf = 0.0
    for k in range(n_bf):
        inst = _random_instance(rng2, 4)
        srpt_flow = simulate(inst, "srpt", seed=0).total_flow()
        opt = brute_force_min_flow(inst)
        err = abs(srpt_flow - opt)
        worst_bf = max(worst_bf, err)
        if err > EXACT_TOL:
            violations.append({"instance": k, "policy": "brute-force", "srpt": srpt_flow,
                               "optimum": opt})
    return CriterionResult(6, "SRPT path-wise optimality and brute-force agreement",
                           not violations,
                           {"instances": n_inst, "bf_instances": n_bf,
                            "seeds_per_randomized_policy": n_seeds,
                            "worst_excess_over_best_policy": worst_gap,
                            "worst_bf_error": worst_bf,
                            "violations": violations[:10]})


def c7_work_conservation(profile: Profile, seed: int, jobs: int) -> CriterionResult:
    n_inst = _count(profile, 100)
    rng = np.random.default_rng(derive_seed(seed, "c7"))
    worst = 0.0
    bad = []
    for k in range(n_inst):
        inst = _random_instance(rng, 30)
        ref = busy_periods(inst)
        for policy in POLICY_NAMES:
            res = simulate(inst, policy, seed=k)
            if len(res.cycles) != len(ref):
                bad.append({"instance": k, "policy": policy, "why": "cycle count"})
                continue
            for c_sim, c_ref in zip(res.cycles, ref):
                err = max(abs(c_sim.start - c_ref.start), abs(c_sim.end - c_ref.end))
                worst = max(worst, err)
                if err > EXACT_TOL or c_sim.N != c_ref.N:
                    bad.append({"instance": k, "policy": policy, "err": err})
    return CriterionResult(7, "simulator busy intervals match the workload recursion",
                           not bad,
                           {"instances": n_inst, "worst_err": worst,
                            "violations": bad[:10]})


def c8_scaling_coupling(profile: Profile, seed: int, jobs: int) -> CriterionResult:
    n_inst = _count(profile, 200)
    rng = np.random.default_rng(derive_seed(seed, "c8"))
    worst = 0.0
    bad = []
    for k in range(n_inst):
        inst = _random_instance(rng, 40, small_sizes=True)
        g = scaling_exponent(inst)
        factor = 2.0 ** g
        rmlf_inst = scale(inst, 2.0 ** (-g))
        s = int(rng.integers(0, 2**60))
        t_e = simulate(inst, "ermlf", seed=s).sojourns
        t_r = simulate(rmlf_inst, "rmlf", seed=s).sojourns
        err = float(np.max(np.abs(t_e - factor * t_r) / (factor * t_r)))
        worst = max(worst, err)
        if err > EXACT_TOL:
            bad.append({"instance": k, "g": g, "err": err})
    return CriterionResult(8, "per-job sojourns satisfy T_ermlf = 2^g T_rmlf under "
                              "coupled randomness",
                           not bad,
                           {"instances": n_inst, "worst_rel_err": worst,
                            "violations": bad[:10]})


def c9_order_preservation(profile: Profile, seed: int, jobs: int) -> CriterionResult:
    n_traj = _count(profile, 10_000)
    rng = np.random.default_rng(derive_seed(seed, "c9"))
    bad = []
    for k in range(n_traj):
        inst = _random_instance(rng, 30, small_sizes=bool(k % 2))
        name = "rmlf" if k % 2 == 0 else "ermlf"
        s = int(rng.integers(0, 2**60))
        # the queue kernel that simulate(inst, name, seed=s) runs, on the
        # gate that simulate builds, with its queue order checked before
        # every event
        rel = inst.releases.tolist()
        try:
            _queue_kernel(rel, inst.sizes.tolist(), _gate(rel, inst), name, s, check_order=True)
        except InternalConsistencyError as exc:
            bad.append({"trajectory": k, "policy": name, "error": str(exc)})
    return CriterionResult(9, "RMLF/eRMLF never violate queue-order preservation",
                           not bad,
                           {"trajectories": n_traj, "violations": bad[:10]})


# --- criteria 10 and 11: normalized sojourn ratio sweep ------------------------

def _c10_point(payload):
    rho, cycles, seed_e, seed_s = payload
    inst_e = _mm1(rho, cycles, seed_e)
    res_e = simulate(inst_e, "ermlf", seed=seed_e)
    est_e = regen_mean_sojourn(res_e)
    inst_s = _mm1(rho, cycles, seed_s)
    est_s = regen_mean_sojourn(simulate(inst_s, "srpt", seed=seed_s))
    params = AnalysisParams()
    split = tail_split(res_e, params)
    bound = holder_diagnostic(res_e, params)
    regen_point = est_e.point
    return {"rho": rho,
            "t_ermlf": est_e.point, "t_srpt": est_s.point,
            "normalized": est_e.point / (est_s.point * math.log(1.0 / (1.0 - rho))),
            "tail_small": split.small, "tail_large": split.large,
            "tail_threshold": split.threshold,
            "holder_bound": bound,
            "split_residual": abs(split.total - regen_point) / regen_point}


def c10_c11_theorem_sweep(profile: Profile, seed: int, jobs: int
                          ) -> tuple[CriterionResult, CriterionResult]:
    cycles = _cycles(profile, 100_000)
    grid = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
    payloads = [(rho, cycles,
                 derive_seed(seed, f"c10:e:{rho}"), derive_seed(seed, f"c10:s:{rho}"))
                for rho in grid]
    rows = pmap(_c10_point, payloads, jobs)
    base = rows[0]["normalized"]
    peak = max(r["normalized"] for r in rows)
    bounded = peak <= 2.0 * base
    holder_ok = all(r["tail_large"] <= r["holder_bound"] for r in rows)
    r10 = CriterionResult(10, "normalized ratio E[T_ermlf]/(E[T_srpt] log(1/(1-rho))) "
                              "bounded; large-cycle contribution below its bound",
                          bounded and holder_ok,
                          {"cycles_per_point": cycles, "rows": rows,
                           "normalized_at_0.5": base, "normalized_peak": peak})
    worst_resid = max(r["split_residual"] for r in rows)
    r11 = CriterionResult(11, "tail split reconstructs the regenerative mean to 1e-12",
                          worst_resid <= 1e-12,
                          {"worst_relative_residual": worst_resid,
                           "points": len(rows)})
    return r10, r11


# --- runner --------------------------------------------------------------------

_SINGLE = {
    1: c1_blind_mm1,
    2: c2_srpt_heavy_traffic,
    3: c3_busy_period_moments,
    4: c4_cycle_count_identity,
    5: c5_exponent_recovery,
    6: c6_srpt_optimality,
    7: c7_work_conservation,
    8: c8_scaling_coupling,
    9: c9_order_preservation,
}


def run_all(profile: str = "full", seed: int = DEFAULT_SEED, jobs: int = 1,
            progress=None) -> list[CriterionResult]:
    prof = PROFILES[profile]
    results: list[CriterionResult] = []
    for cid in sorted(_SINGLE):
        res = _SINGLE[cid](prof, seed, jobs)
        results.append(res)
        if progress:
            progress(res.line())
    r10, r11 = c10_c11_theorem_sweep(prof, seed, jobs)
    for res in (r10, r11):
        results.append(res)
        if progress:
            progress(res.line())
    return results
