"""Regenerative statistics: ratio estimators over i.i.d. busy cycles, busy
period functional moments, the Lindley workload walk, the small/large cycle
split with its Hoelder plug-in bound, and heavy-traffic exponent fits."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .instance import Instance
from .simulator import SimResult

Z95 = 1.96


@dataclass(frozen=True)
class MomentEstimate:
    functional: str        # P | N | I | T
    kappa: float
    point: float
    ci_halfwidth: float    # 95%
    cycles_used: int


@dataclass(frozen=True)
class AnalysisParams:
    """Small/large cycle threshold parameters.

    s must lie in (alpha/(alpha-1), 2) and zeta above (4+2s)/(2-s); the
    split threshold at load rho is then N0 = (1-rho)**-zeta.
    """

    alpha: float = math.inf
    s: float = 1.5
    zeta: float = 15.0

    def __post_init__(self):
        if not self.alpha > 2:
            raise ParameterError(
                f"size law needs a finite moment order above 2, got alpha={self.alpha}")
        lower = 1.0 if math.isinf(self.alpha) else self.alpha / (self.alpha - 1.0)
        if not lower < self.s < 2.0:
            raise ParameterError(f"s={self.s} outside ({lower}, 2)")
        zmin = (4.0 + 2.0 * self.s) / (2.0 - self.s)
        if not zmin < self.zeta < math.inf:
            raise ParameterError(f"zeta={self.zeta} must be finite and exceed {zmin}")

    def n0(self, rho: float) -> float:
        if not 0 < rho < 1:
            raise ParameterError(f"rho must lie in (0, 1), got {rho}")
        try:
            return (1.0 - rho) ** (-self.zeta)
        except OverflowError:
            raise ParameterError(f"N0 overflows at rho={rho}, zeta={self.zeta}") from None


@dataclass(frozen=True)
class NetputWalk:
    S: np.ndarray   # partial sums of (size - following interarrival)
    W: np.ndarray   # workload found by each arrival, reflected recursion


class RatioRow(NamedTuple):
    rho: float
    t_policy: float
    t_srpt: float
    ratio: float
    normalized: float   # ratio / log(1/(1-rho))


@dataclass(frozen=True)
class INIdentityReport:
    lhs: float             # mean idle period
    rhs: float             # mu * mean cycle arrivals
    rel_gap: float
    gap_halfwidth: float   # 95% halfwidth of lhs - rhs
    cycles_used: int

    def covers_zero(self) -> bool:
        return abs(self.lhs - self.rhs) <= self.gap_halfwidth


@dataclass(frozen=True)
class TailSplit:
    small: float
    large: float
    threshold: float
    cycles_used: int

    @property
    def total(self) -> float:
        return self.small + self.large


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    stderr: float
    intercept: float
    n_points: int


def regen_mean_sojourn(result: SimResult) -> MomentEstimate:
    """Ratio estimator sum(cycle sojourn sums) / sum(cycle arrivals), with a
    delta-method CI over the i.i.d. cycle pairs."""
    cyc = result.cycles
    n = len(cyc)
    if n < 2:
        raise InsufficientDataError(f"need >= 2 complete cycles, got {n}")
    s = np.array([c.sojourn_sum for c in cyc])
    m = np.array([c.N for c in cyc], dtype=float)
    point = float(s.sum() / m.sum())
    z = s - point * m
    se = math.sqrt(float(z @ z) / (n - 1)) / (float(m.mean()) * math.sqrt(n))
    return MomentEstimate("T", 1.0, point, Z95 * se, n)


def functional_moment(cycles, functional: str, kappa: float,
                      alpha: float | None = None) -> MomentEstimate:
    """Sample mean of the kappa-th powers of a busy-period functional (P, N
    or I) over a list of cycle records."""
    if kappa < 1:
        raise ParameterError(f"kappa must be >= 1, got {kappa}")
    functional = functional.upper()
    if functional == "P":
        xs = [c.P for c in cycles]
    elif functional == "N":
        xs = [float(c.N) for c in cycles]
    elif functional == "I":
        xs = [c.I for c in cycles if c.I is not None]
    else:
        raise ParameterError(f"unknown functional {functional!r}")
    xs = np.asarray(xs, dtype=float)
    n = int(xs.size)
    if n == 0:
        raise InsufficientDataError(f"no samples for functional {functional}")
    if alpha is not None and kappa > alpha:
        warnings.warn(
            f"kappa={kappa} exceeds the size law's finite moment order alpha={alpha}; "
            "the empirical moment is finite but does not estimate a finite quantity",
            RuntimeWarning, stacklevel=2)
    pw = xs ** kappa
    point = float(pw.mean())
    hw = math.inf if n < 2 else Z95 * float(pw.std(ddof=1)) / math.sqrt(n)
    return MomentEstimate(functional, float(kappa), point, hw, n)


def check_IN_identity(cycles, mu: float) -> INIdentityReport:
    """Both sides of E[idle] = mu * E[cycle arrivals], estimated from the
    same cycles, with a joint CI on their difference."""
    pairs = [(c.I, float(c.N)) for c in cycles if c.I is not None]
    n = len(pairs)
    if n < 2:
        raise InsufficientDataError(f"need >= 2 cycles with idle records, got {n}")
    idle = np.array([p[0] for p in pairs])
    num = np.array([p[1] for p in pairs])
    lhs = float(idle.mean())
    rhs = mu * float(num.mean())
    d = idle - mu * num
    hw = Z95 * float(d.std(ddof=1)) / math.sqrt(n)
    rel = (lhs - rhs) / rhs if rhs else math.inf
    return INIdentityReport(lhs, rhs, rel, hw, n)


def lindley_walk(inst: Instance) -> NetputWalk:
    """Netput partial sums and the reflected workload-at-arrival sequence.

    W[0] = 0 and W[m] = max(W[m-1] + size[m-1] - gap[m-1], 0), so W[m] is the
    workload the (m+1)-th arrival finds, its own size excluded."""
    n = len(inst)
    if n == 0:
        return NetputWalk(np.empty(0), np.empty(0))
    rel = inst.releases.tolist()
    siz = inst.sizes.tolist()
    s_vals = [0.0] * n
    w_vals = [0.0] * n
    s = 0.0
    w = 0.0
    for m in range(1, n):
        x = siz[m - 1] - (rel[m] - rel[m - 1])
        s += x
        w += x
        if w < 0.0:
            w = 0.0
        s_vals[m] = s
        w_vals[m] = w
    return NetputWalk(np.array(s_vals), np.array(w_vals))


def tail_split(result: SimResult, params: AnalysisParams) -> TailSplit:
    """Exact decomposition of the regenerative mean sojourn into the
    contributions of cycles with N <= N0 and N > N0, N0 taken at result.rho."""
    if result.rho is None:
        raise ParameterError("rho unknown: the simulated instance carries no load")
    n0 = params.n0(result.rho)
    cyc = result.cycles
    if len(cyc) < 2:
        raise InsufficientDataError("need >= 2 complete cycles")
    s = np.array([c.sojourn_sum for c in cyc])
    m = np.array([c.N for c in cyc], dtype=float)
    denom = m.sum()
    small_mask = m <= n0
    small = float(s[small_mask].sum() / denom)
    large = float(s[~small_mask].sum() / denom)
    return TailSplit(small, large, n0, len(cyc))


def holder_exponents(s: float) -> tuple[float, float, float]:
    """(P moment order s/(s-1), its outer power (s-1)/s, N tail power
    (2-s)/(2s)) as used by the large-cycle bound."""
    return s / (s - 1.0), (s - 1.0) / s, (2.0 - s) / (2.0 * s)


def holder_diagnostic(result: SimResult, params: AnalysisParams) -> float:
    """Plug-in estimate of the Hoelder/Markov upper bound on the large-cycle
    sojourn contribution:
    E[P^(s/(s-1))]^((s-1)/s) * E[N^2]^(1/2) * E[N]^((2-s)/(2s)-1) / N0^((2-s)/(2s)),
    with N0 taken at result.rho."""
    if result.rho is None:
        raise ParameterError("rho unknown: the simulated instance carries no load")
    cyc = result.cycles
    if len(cyc) < 2:
        raise InsufficientDataError("need >= 2 complete cycles")
    p_order, p_outer, n_tail = holder_exponents(params.s)
    if p_order > params.alpha:
        warnings.warn(
            f"P moment order {p_order} exceeds alpha={params.alpha}",
            RuntimeWarning, stacklevel=2)
    p = np.array([c.P for c in cyc])
    m = np.array([c.N for c in cyc], dtype=float)
    ep = float((p ** p_order).mean())
    en2 = float((m ** 2).mean())
    en = float(m.mean())
    n0 = params.n0(result.rho)
    return (ep ** p_outer) * math.sqrt(en2) * (en ** (n_tail - 1.0)) / (n0 ** n_tail)


def exponent_fit(points) -> ExponentFit:
    """Least-squares slope of log(moment) against log(1 - rho).

    points: iterable of (rho, positive estimate)."""
    pts = [(float(r), float(e)) for r, e in points]
    rhos = [r for r, _ in pts]
    if len(set(rhos)) < 3:
        raise InsufficientDataError("need >= 3 points with distinct rho")
    x = np.log1p(-np.array(rhos))            # log(1 - rho)
    y = np.log(np.array([v for _, v in pts]))
    n = len(pts)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = n - 2
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else 0.0
    return ExponentFit(slope, stderr, intercept, n)


def ratio_curve(points_policy, points_srpt) -> list[RatioRow]:
    """Tabulated per-load sojourn ratios against SRPT; grids must match.
    Each argument is a list of (rho, mean sojourn).  No pass/fail judgement
    is applied (the bound's constant is unspecified)."""
    pp = [(float(r), float(t)) for r, t in points_policy]
    ps = [(float(r), float(t)) for r, t in points_srpt]
    if [r for r, _ in pp] != [r for r, _ in ps]:
        raise ParameterError("rho grids of the two policies do not match")
    rows = []
    for (rho, tp), (_, ts) in zip(pp, ps):
        ratio = tp / ts
        rows.append(RatioRow(rho, tp, ts, ratio, ratio / math.log(1.0 / (1.0 - rho))))
    return rows
