"""Regenerative statistics: ratio estimators over i.i.d. busy cycles, busy
period functional moments, the small/large cycle split with its Hoelder
plug-in bound, and heavy-traffic exponent fits.  Estimators over cycles
take the list of cycle records first, and the load rho or arrival rate mu
where they need one; none reads jobs or runs the workload recursion."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InsufficientDataError, ParameterError

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


def regen_mean_sojourn(cycles) -> MomentEstimate:
    """Ratio estimator sum(cycle sojourn sums) / sum(cycle arrivals), with a
    delta-method CI over the i.i.d. cycle pairs."""
    n = len(cycles)
    if n < 2:
        raise InsufficientDataError(f"need >= 2 complete cycles, got {n}")
    s = np.array([c.sojourn_sum for c in cycles])
    m = np.array([c.N for c in cycles], dtype=float)
    point = float(s.sum() / m.sum())
    z = s - point * m
    se = math.sqrt(float(z @ z) / (n - 1)) / (float(m.mean()) * math.sqrt(n))
    return MomentEstimate("T", 1.0, point, Z95 * se, n)


def functional_moment(cycles, functional: str, kappa: float) -> MomentEstimate:
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
    return INIdentityReport(lhs, rhs, hw, n)


def tail_split(cycles, rho: float, params: AnalysisParams) -> TailSplit:
    """Exact decomposition of the regenerative mean sojourn into the
    contributions of cycles with N <= N0 and N > N0, N0 taken at rho."""
    n0 = params.n0(rho)
    if len(cycles) < 2:
        raise InsufficientDataError("need >= 2 complete cycles")
    s = np.array([c.sojourn_sum for c in cycles])
    m = np.array([c.N for c in cycles], dtype=float)
    denom = m.sum()
    small_mask = m <= n0
    small = float(s[small_mask].sum() / denom)
    large = float(s[~small_mask].sum() / denom)
    return TailSplit(small, large, n0, len(cycles))


def holder_diagnostic(cycles, rho: float, params: AnalysisParams) -> float:
    """Plug-in estimate of the Hoelder/Markov upper bound on the large-cycle
    sojourn contribution:
    E[P^(s/(s-1))]^((s-1)/s) * E[N^2]^(1/2) * E[N]^((2-s)/(2s)-1) / N0^((2-s)/(2s)),
    with N0 taken at rho."""
    n0 = params.n0(rho)
    if len(cycles) < 2:
        raise InsufficientDataError("need >= 2 complete cycles")
    s = params.s
    p_order, p_outer, n_tail = s / (s - 1.0), (s - 1.0) / s, (2.0 - s) / (2.0 * s)
    p = np.array([c.P for c in cycles])
    m = np.array([c.N for c in cycles], dtype=float)
    ep = float((p ** p_order).mean())
    en2 = float((m ** 2).mean())
    en = float(m.mean())
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
    stderr = math.sqrt(float(resid @ resid) / (n - 2) / sxx)
    return ExponentFit(slope, stderr, intercept)


def ratio_normaliser(rho: float) -> float:
    """log(1/(1-rho)), ratio_curve's divisor; raises where it rounds to 0."""
    norm = math.log(1.0 / (1.0 - rho))
    if norm == 0.0:
        raise ParameterError(f"rho={rho} is too small: log(1/(1-rho)) rounds to 0")
    return norm


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
        rows.append(RatioRow(rho, tp, ts, ratio, ratio / ratio_normaliser(rho)))
    return rows
