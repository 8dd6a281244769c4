"""Event-driven execution of a policy on an instance.

Continuous time is advanced event-to-event; between events the policy's
served group of k jobs receives service at rate 1/k per member (see
policies), which moves only that group's virtual clock.
Candidate events within EVENT_SNAP of the earliest one are treated as
coincident and dispatched in the order completion < target hit < arrival
(a job whose remaining work and target gap vanish together completes, it
does not migrate).  State landed on by an event is snapped exactly (remaining
to zero, attained to the target), so scaling an instance by a power of two
scales every simulated time exactly.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import NamedTuple

import numpy as np

from .distributions import POLICY_SUBSTREAM, make_stream
from .errors import InternalConsistencyError, ParameterError
from .instance import Instance
from .policies import RANDOMIZED, Policy, make_policy

EVENT_SNAP = 1e-9


class SimCycle(NamedTuple):
    first_job_id: int
    last_job_id: int
    N: int
    P: float
    I: float | None
    start: float
    end: float
    sojourn_sum: float


@dataclass
class SimResult:
    policy: str
    seed: int | None
    releases: np.ndarray
    sizes: np.ndarray
    completions: np.ndarray
    sojourns: np.ndarray
    work_at_arrival: np.ndarray   # workload found by each arrival, own size excluded
    cycles: list[SimCycle]
    rho: float | None = None
    mu: float | None = None

    def total_flow(self) -> float:
        return float(self.sojourns.sum())

    def n_jobs(self) -> int:
        return int(self.releases.size)


def simulate(inst: Instance, policy: str | Policy, seed: int = 0) -> SimResult:
    """Run policy on inst; exact per-job sojourns and per-cycle statistics.

    Each event costs O(log n) in the number n of jobs in the system: only
    the served group's virtual clock moves, and its members leave it in
    order of their virtual finishing times."""
    if isinstance(policy, str):
        stream = make_stream(seed, POLICY_SUBSTREAM) if policy.lower() in RANDOMIZED else None
        pol = make_policy(policy, stream)
    else:
        pol = policy
    rel = inst.releases.tolist()
    siz = inst.sizes.tolist()
    n = len(rel)
    completions = [0.0] * n
    work_at = [0.0] * n
    cycles: list[SimCycle] = []
    arrival, completion, serve = pol.arrival, pol.completion, pol.serve
    internal_event = pol.internal_event
    blind = pol.blind
    inf = math.inf

    i = 0                # next arrival index (jid = i + 1)
    in_system = 0
    t = 0.0
    busy_end = 0.0       # cycle start + sizes released so far
    prev_end: float | None = None
    cyc_start = 0.0
    cyc_first = cyc_last = 0
    cyc_sojourn = 0.0

    while i < n or in_system:
        if in_system:
            g, gap = serve()
            heap = g.heap
            k = len(heap)
            if not k:
                raise InternalConsistencyError(
                    f"{pol.name} idles while {in_system} jobs are unfinished")
            v = g.v
            vfin, jid = heap[0]
            d_done = (vfin - v) * k
            d_target = gap * k
            d_arrive = rel[i] - t if i < n else inf
            dt = d_done if d_done < d_target else d_target
            if d_arrive < dt:
                dt = d_arrive
            lim = dt + EVENT_SNAP
            if dt > 0.0:
                t += dt
                g.v = v + dt / k

            if d_done <= lim:
                if (k > 1 and (heap[1][0] - v) * k <= lim) or (k > 2 and (heap[2][0] - v) * k <= lim):
                    jid = _coincident_completion(heap, v, k, lim)
                else:
                    heappop(heap)
                    if dt == d_done:
                        g.v = vfin   # the finishing job's remaining work is exactly zero
                in_system -= 1
                completion(jid)
                completions[jid - 1] = t
                cyc_sojourn += t - rel[jid - 1]
                if not in_system:
                    idle = None if prev_end is None else cyc_start - prev_end
                    cycles.append(SimCycle(cyc_first, cyc_last, cyc_last - cyc_first + 1,
                                           t - cyc_start, idle, cyc_start, t, cyc_sojourn))
                    prev_end = t
                continue
            if d_target <= lim:
                internal_event()
                continue
        else:
            # Idle server: a cycle opens exactly on the next release.
            cyc_start = busy_end = rel[i]
            cyc_first = i + 1
            cyc_sojourn = 0.0
        # Arrival, into a busy system or opening a cycle.
        t = rel[i]
        jid = i + 1
        size = siz[i]
        work_at[i] = busy_end - t
        busy_end += size
        g = arrival(jid, t) if blind else arrival(jid, t, size)
        heappush(g.heap, (g.v + size, jid))
        in_system += 1
        cyc_last = jid
        i += 1

    rel_arr = inst.releases
    comp_arr = np.array(completions)
    meta = inst.meta
    return SimResult(
        policy=pol.name,
        seed=seed if isinstance(policy, str) else None,
        releases=rel_arr,
        sizes=inst.sizes,
        completions=comp_arr,
        sojourns=comp_arr - rel_arr,
        work_at_arrival=np.array(work_at),
        cycles=cycles,
        rho=None if meta is None else meta.rho,
        mu=None if meta is None else meta.mu,
    )


def _coincident_completion(heap, v, k, lim) -> int:
    """Remove the lowest-id member among those of the served group (k
    members at virtual time v) that finish within real time lim, and return
    its id.  The qualifying entries form a subtree at the top of the heap."""
    best = 0
    stack = [0]
    while stack:
        idx = stack.pop()
        if heap[idx][1] < heap[best][1]:
            best = idx
        for c in (2 * idx + 1, 2 * idx + 2):
            if c < k and (heap[c][0] - v) * k <= lim:
                stack.append(c)
    jid = heap[best][1]
    last = heap.pop()
    if best < len(heap):
        heap[best] = last
        heapify(heap)
    return jid


def brute_force_min_flow(inst: Instance) -> float:
    """Minimum total flow time over all preemptive schedules, by exhaustive
    search over which available job runs between consecutive event epochs
    (releases and completions); an optimal preemptive single-machine
    schedule only switches jobs at such epochs."""
    n = len(inst)
    if n > 4:
        raise ParameterError(f"brute force limited to 4 jobs, got {n}")
    if n == 0:
        return 0.0
    rel = inst.releases.tolist()
    siz = inst.sizes.tolist()
    best = math.inf

    def rec(t: float, rem: tuple, flow: float) -> None:
        nonlocal best
        if flow >= best:
            return
        unfinished = [j for j in range(n) if rem[j] > 0.0]
        if not unfinished:
            best = flow
            return
        active = [j for j in unfinished if rel[j] <= t]
        if not active:
            rec(min(rel[j] for j in unfinished), rem, flow)
            return
        nxt = min((rel[j] for j in unfinished if rel[j] > t), default=math.inf)
        for j in active:
            finish = t + rem[j]
            if finish <= nxt:
                nrem = rem[:j] + (0.0,) + rem[j + 1:]
                rec(finish, nrem, flow + (finish - rel[j]))
            else:
                nrem = rem[:j] + (rem[j] - (nxt - t),) + rem[j + 1:]
                rec(nxt, nrem, flow)

    rec(min(rel), tuple(siz), 0.0)
    return best


# --- exports -----------------------------------------------------------------

def jobs_to_csv(result: SimResult, path=None) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["id", "release", "size", "completion", "sojourn"])
    for k in range(result.n_jobs()):
        w.writerow([k + 1, repr(float(result.releases[k])), repr(float(result.sizes[k])),
                    repr(float(result.completions[k])), repr(float(result.sojourns[k]))])
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def sim_cycles_to_csv(result: SimResult, path=None) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["cycle", "N", "P", "I", "sum_sojourn"])
    for idx, c in enumerate(result.cycles, start=1):
        w.writerow([idx, c.N, repr(c.P), "" if c.I is None else repr(c.I),
                    repr(c.sojourn_sum)])
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def summary_stats(result: SimResult) -> dict:
    n = result.n_jobs()
    return {
        "policy": result.policy,
        "seed": result.seed,
        "jobs": n,
        "cycles": len(result.cycles),
        "total_flow": result.total_flow(),
        "mean_sojourn": result.total_flow() / n if n else None,
        "rho": result.rho,
        "mu": result.mu,
    }
