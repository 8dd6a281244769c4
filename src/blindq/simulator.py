"""Event-driven execution of a policy on an instance.

Continuous time is advanced event-to-event; between events the served
group of k jobs receives service at rate 1/k per member (one job under
srpt, fifo and the MLF family), which moves only that group's virtual clock.
Events whose times agree to TIE, relative, coincide and are dispatched in
the order completion < target hit < arrival (a job whose remaining work and
target gap vanish together completes, it does not migrate).  Members of a
shared group leave in order of virtual finish time, equal ones in id order,
by the (finish, id) heap key.  State landed on by an event is snapped
exactly (the group clock to the finishing member's, attained service to
the target).  No comparison uses an absolute tolerance, and scaling by a
power of two is exact in binary floating point, so scaling an instance by
2**g scales every srpt, fifo, ps and fb time by 2**g, bit for bit.

Busy periods are the same under every work-conserving policy, and the
workload recursion of instance.busy_periods decides them.  The loops do not
run that rule themselves: they read it from the instance, which keeps what
every run on it reads and no policy decides (instance.run_inputs): the
releases and sizes as lists, the gate, and each busy period's geometry.
The gate is an arrival's release where it falls inside the busy period
under way, inf where it opens the next one, so the loop holds that arrival
until its own jobs have completed.  Other sums of the same work can round
to either side of a release (0.4 + 0.3 against 0.7), so without this rule
the cycle count could depend on the policy.

Four loops apply these rules, each with its policies' decisions inlined:
_srpt_kernel runs srpt, _share_kernel ps and fb, _mlf_kernel fifo, mlf and
rmlf, and _ermlf_kernel ermlf; the random targets of rmlf and ermlf follow
the factor law of factors.  make_policy maps each name to its loop; every
loop takes (releases, sizes, gate, name, seed) and reads what its policies
need.  Each loop has one shape: an outer pass per arrival that finds the
system empty, around an inner loop that runs while jobs are in it.  The
served job or group lives in locals and goes back to per-job state only
when another takes the server, and each event's branch does only that
event's work: an arrival that leaves the served job in place touches no
per-job state.  In _mlf_kernel, level 0 is the index range [f0, i), so
such an arrival is i += 1.  An event costs O(log n) in the number n of
jobs in the system under srpt, ps and fb, and O(1) under the MLF family,
plus the number of non-empty levels when a completion empties the lowest
deque.  A loop returns only what its policy decides, the completion
times.  The cycle records are the instance's busy periods, as its walk
ends them, plus each period's sum of sojourns (instance.busy_periods), so
N, P, I, start and end are the same under every policy, bit for bit.  The
workload an arrival finds is its FIFO wait, the fifo run's sojourns minus
the sizes, up to rounding.  A SimResult is the instance plus those
decisions; its sojourns are completions minus releases.  The tests keep a
protocol engine that makes the same decisions through policy objects, one
method call per event, and check the loops against it bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

import numpy as np

from .distributions import make_stream  # noqa: F401  (bench/spans.py traces this name)
from .distributions import POLICY_SUBSTREAM, uniforms
from .errors import InternalConsistencyError, ParameterError
from .instance import CycleRecord, Instance, busy_periods, run_inputs, write_csv

# Events coincide when their times agree to 16-32 units in the last place of
# the event time t.  A group clock moves by dt / k, so a release and the end
# of a group of 5 jobs, equal in exact arithmetic, can differ in their last bits.
TIE = 2.0 ** -48


@dataclass(eq=False)
class SimResult:
    """The instance plus what the policy decided on it.  Results compare by
    identity; compare two runs' completions with np.array_equal."""
    policy: str
    seed: int | None
    instance: Instance
    completions: np.ndarray
    cycles: list[CycleRecord]

    @property
    def sojourns(self) -> np.ndarray:
        return self.completions - self.instance.releases

    def total_flow(self) -> float:
        return float(self.sojourns.sum())

    def n_jobs(self) -> int:
        return len(self.instance)


def simulate(inst: Instance, policy: str, seed: int = 0) -> SimResult:
    """Run the named policy on inst.  Returns completions, exact per job, in
    a SimResult whose cycles are the instance's busy periods
    (instance.busy_periods), each with the sum of its jobs' sojourns.

    Each policy runs in a fused loop with its decisions inlined, looked up
    by make_policy: srpt in _srpt_kernel, ps and fb in _share_kernel, fifo,
    mlf and rmlf in _mlf_kernel, whose level 0 is an index range, and ermlf
    in _ermlf_kernel.  The loop takes the releases, sizes and gate that the
    instance keeps for every run (instance.run_inputs), opens a busy period
    where the gate is inf, and serves it event by event with the served job
    or group in locals; the run adds only its completions and each busy
    period's sojourn sum.  An event costs O(log n) in the number n of jobs
    in the system under srpt, ps and fb; O(1) in the MLF loops, plus the
    number of non-empty levels when a completion empties the lowest one."""
    loop = make_policy(policy)
    name = policy.lower()
    rel, siz, gate, _ = run_inputs(inst)
    completions = loop(rel, siz, gate, name, seed)
    return SimResult(name, seed, inst, np.array(completions), busy_periods(inst, completions))


def make_policy(name: str):
    """The loop that runs the policy called name, in any case: a function
    of (releases, sizes, gate, name, seed), the first three
    instance.run_inputs', name in lower case, that returns completions."""
    try:
        return _LOOPS[name.lower()]
    except (AttributeError, KeyError):
        raise ParameterError(
            f"unknown policy {name!r}: expected one of {', '.join(POLICY_NAMES)}") from None


def _srpt_kernel(rel: list, siz: list, gate: list, name: str, seed: int):
    """Shortest remaining processing time; ties by the lower id, which is
    the earlier release (ids follow releases).

    The served job lives in locals: index j, size s and attained service a.
    Waiting jobs sit in one heap of (remaining, index, attained); a popped
    job's size is read back from siz.  A new job preempts only if its size
    is below the served job's s - a.  Returns completions."""
    n = len(rel)
    completions = [0.0] * n
    waiting: list[tuple] = []
    i = 0
    while i < n:
        t = rel[i]           # job i finds the system empty
        j, s, a = i, siz[i], 0.0
        i += 1
        nxt = gate[i]        # the next release if in the busy period under way, else inf
        while True:
            d_done = s - a
            d_arrive = nxt - t
            if d_done < d_arrive:
                if d_done > 0.0:
                    t += d_done
            else:
                if d_arrive > 0.0:
                    t += d_arrive
                    a += d_arrive
                if d_done > d_arrive + t * TIE:   # job i arrives
                    t = nxt
                    size = siz[i]
                    if size < s - a:
                        heappush(waiting, (s - a, j, a))
                        j, s, a = i, size, 0.0
                    else:
                        heappush(waiting, (size, i, 0.0))
                    i += 1
                    nxt = gate[i]
                    continue
            completions[j] = t
            if not waiting:
                break
            _, j, a = heappop(waiting)
            s = siz[j]
    return completions


def _share_kernel(rel: list, siz: list, gate: list, name: str, seed: int):
    """Processor sharing, or foreground-background when name is fb.

    The served group's k members each receive service at rate 1/k.  Its
    clock v grows by the service each member receives, and its heap holds
    (v at which the member finishes, index); the group lives in locals:
    v, heap, k and its first member (vfin, j).  PS serves one group per
    busy period.  Under FB the group's clock is its members' attained
    service: a new job opens a group of its own at v = 0 and suspends the
    served one.  Suspended groups wait on a stack of (clock, heap), least
    attained on top, whose clock top_v is cached (inf when the stack is
    empty).  When the served group reaches top_v the two merge, and the
    larger heap absorbs the smaller.  Returns completions."""
    n = len(rel)
    completions = [0.0] * n
    inf = math.inf
    fb = name == "fb"
    suspended: list[tuple[float, list]] = []
    top_v = inf
    i = 0
    while i < n:
        t = rel[i]           # job i finds the system empty: a group of one at v = 0
        v, vfin, j, k = 0.0, siz[i], i, 1
        heap = [(vfin, i)]
        i += 1
        nxt = gate[i]        # the next release if in the busy period under way, else inf
        while True:
            d_done = (vfin - v) * k
            d_target = (top_v - v) * k
            d_arrive = nxt - t
            if d_done <= d_target and d_done <= d_arrive:
                if d_done > 0.0:
                    t += d_done
            else:
                dt = d_target if d_target < d_arrive else d_arrive
                if dt > 0.0:
                    t += dt
                lim = dt + t * TIE
                if d_done > lim:
                    if d_target <= lim:
                        # FB: land exactly on the top's clock and merge with it
                        v, top = suspended.pop()
                        top_v = suspended[-1][0] if suspended else inf
                        if k < len(top):
                            heap, top = top, heap
                        for entry in top:
                            heappush(heap, entry)
                        k = len(heap)
                        vfin, j = heap[0]
                        continue
                    if dt > 0.0:     # job i arrives
                        v += dt / k
                    t = nxt
                    size = siz[i]
                    if fb:
                        suspended.append((v, heap))
                        top_v = v
                        v, vfin, j, k = 0.0, size, i, 1
                        heap = [(size, i)]
                    else:
                        fin = v + size
                        heappush(heap, (fin, i))
                        k += 1
                        if fin < vfin:
                            vfin, j = fin, i
                    i += 1
                    nxt = gate[i]
                    continue
            heappop(heap)        # job j completes
            v = vfin             # its remaining work is exactly zero
            completions[j] = t
            k -= 1
            if not k:
                if not suspended:
                    break
                v, heap = suspended.pop()
                top_v = suspended[-1][0] if suspended else inf
                k = len(heap)
            vfin, j = heap[0]
    return completions


THETA = 12.0
FACTOR_BLOCK = 1024   # RMLF factors per block; a loop holds one at a time
FACTOR_BLOCKS_KEPT = 8   # blocks memoised, about 256 KB


def factors(seed: int, start: int, n: int) -> list[float]:
    """The RMLF factors of jobs j = start+1 .. start+n under seed: job j's
    is max(1, 2 - beta), where beta = -log(1 - u) / (THETA log j) has
    P(beta <= x) = 1 - exp(-THETA x log j) and u is policy-stream uniform
    j-1.  Job 1's factor is 1 (its rate is 0); its uniform goes unused, so
    coupled runs stay aligned with the job index.  The uniforms are
    addressed by position (distributions.uniforms), so any split into
    blocks gives the same factors, and no call keeps state for the next.
    The last FACTOR_BLOCKS_KEPT blocks asked for are memoised by (seed,
    start, n), so rmlf and ermlf runs under one seed on up to that many
    blocks of jobs compute each block once.  The memo keeps the computed values as a tuple and every call
    returns a new list of them, so it never changes a value."""
    return list(_factor_block(seed, start, n))


@lru_cache(maxsize=FACTOR_BLOCKS_KEPT)
def _factor_block(seed: int, start: int, n: int) -> tuple[float, ...]:
    """factors' values.  The arithmetic stays in math: numpy's vectorised
    log1p and log may differ from libm in the last bit, which would move
    some factors."""
    log, log1p, inf = math.log, math.log1p, math.inf
    us = uniforms(seed, POLICY_SUBSTREAM, start, n).tolist()
    betas = [-log1p(-u) / (THETA * log(j)) if j > 1 else inf
             for j, u in enumerate(us, start + 1)]
    return tuple([2.0 - b if b < 1.0 else 1.0 for b in betas])


def _mlf_kernel(rel: list, siz: list, gate: list, name: str, seed: int,
                check_order: bool = False):
    """FIFO, MLF and RMLF in one loop.

    MLF runs the front of the lowest non-empty level.  A new job enters the
    back of level 0 with target 2**0 * factor; on reaching its target a job
    moves to the back of the next level and its target doubles.  The factor
    is 2 for mlf; rmlf reads it by index from blocks of FACTOR_BLOCK
    factors (factors) starting at multiples of FACTOR_BLOCK, addressed by
    stream position, so the blocks change no value.  FIFO is MLF with
    infinite targets: every job stays in level 0.

    Jobs enter level 0 in index order and leave it only from its front, so
    level 0 is the index range [f0, i) below the next arrival i: an arrival
    is i += 1, and a completion or demotion at level 0 is f0 += 1.  Only
    levels >= 1 are queues, one deque of job indices per level, with the
    lowest non-empty one in low and q (q is None when there is none).  The
    served job lives in locals (index j, size s, attained service a, target
    g): level 0's front f0 while level 0 is non-empty, else q's front.
    att[j] and tgt[j] hold a and g while another job is served, and tgt
    starts as each job's level-0 target; only level 0's front is ever
    served there, so its other jobs have attained nothing.  Each served job
    is a one-job group, so its arithmetic is _share_kernel's with k = 1.
    With check_order, the queue order is verified before every event, level
    0 as range(f0, i) (acceptance criterion 9).  Returns completions."""
    n = len(rel)
    completions = [0.0] * n
    att = [0.0] * n
    tgt = [math.inf if name == "fifo" else 2.0] * n   # rmlf: factors, block by block
    refill = 0 if name == "rmlf" else n               # the next job to start a factor block
    queues: dict[int, deque] = {}   # levels >= 1
    low = 0                  # lowest non-empty level >= 1, and q its queue
    q: deque | None = None
    f0 = i = 0               # level 0 is [f0, i)
    while i < n:
        t = rel[i]           # job i finds the system empty: f0 == i
        if i == refill:
            tgt[i:i + FACTOR_BLOCK] = factors(seed, i, min(FACTOR_BLOCK, n - i))
            refill += FACTOR_BLOCK
        j, s, a, g = i, siz[i], 0.0, tgt[i]
        i += 1
        nxt = gate[i]        # the next release if in the busy period under way, else inf
        while True:
            if check_order:
                _verify_order({**queues, 0: range(f0, i)}, -1)
            d_done = s - a
            d_target = g - a
            d_arrive = nxt - t
            if d_done <= d_target and d_done <= d_arrive:
                if d_done > 0.0:
                    t += d_done
            else:
                dt = d_target if d_target < d_arrive else d_arrive
                if dt > 0.0:
                    t += dt
                lim = dt + t * TIE
                if d_done > lim:
                    if d_target <= lim:
                        if j == f0:
                            # level 0's front moves to level 1, now the lowest queue
                            f0 += 1
                            low, q = 1, queues.get(1)
                            if q is None:
                                queues[1] = q = deque()
                            q.append(j)
                        else:
                            # the lowest queue's front moves up one level
                            q.popleft()
                            z = low + 1
                            qz = queues.get(z)
                            if qz is None:
                                queues[z] = qz = deque()
                            qz.append(j)
                            if not q:
                                del queues[low]
                                low, q = z, qz
                        a = g            # exact landing on the target
                        g = a * 2.0
                        k = f0 if f0 < i else q[0]   # the front of the lowest level
                        if k != j:       # another job takes the server
                            att[j], tgt[j] = a, g
                            j = k
                            s, a, g = siz[j], att[j], tgt[j]
                        continue
                    if dt > 0.0:     # job i arrives
                        a += dt
                    t = nxt
                    if i == refill:
                        tgt[i:i + FACTOR_BLOCK] = factors(seed, i, min(FACTOR_BLOCK, n - i))
                        refill += FACTOR_BLOCK
                    if f0 == i:      # level 0 is empty: job i takes the server
                        att[j], tgt[j] = a, g
                        j, s, a, g = i, siz[i], 0.0, tgt[i]
                    i += 1           # job i joins level 0
                    nxt = gate[i]
                    continue
            completions[j] = t   # job j completes
            tgt[j] = 0.0         # hold no state for finished jobs
            if j == f0:
                f0 += 1
                if f0 < i:
                    j = f0
                    s, a, g = siz[j], 0.0, tgt[j]
                    continue
                if q is None:
                    break
            else:
                att[j] = 0.0
                q.popleft()
                if not q:
                    del queues[low]
                    if not queues:
                        q = None
                        break
                    low = min(queues)
                    q = queues[low]
            j = q[0]
            s, a, g = siz[j], att[j], tgt[j]
    return completions


def _ermlf_kernel(rel: list, siz: list, gate: list, name: str, seed: int,
                  check_order: bool = False):
    """eRMLF: RMLF with levels below 0 and a star slot for the most recent
    arrival, served first until it completes, reaches its initial target or
    is displaced by the next arrival.  Targets are _mlf_kernel's, with the
    factors of rmlf; a star's initial target sits one level below the
    lowest non-empty level.

    The queues hold job indices, one deque per level, the lowest non-empty
    one in low and q.  The served job lives in locals as in _mlf_kernel,
    and star_f is the star's factor.  With check_order, the queue order is
    verified before every event (acceptance criterion 9).  Returns
    completions."""
    n = len(rel)
    completions = [0.0] * n
    frexp, ldexp = math.frexp, math.ldexp
    att = [0.0] * n
    tgt = [0.0] * n          # factors, block by block
    refill = 0               # the next job to start a factor block
    queues: dict[int, deque] = {}
    low: int | None = None   # lowest non-empty level, and q its queue
    q: deque | None = None
    star = -1                # the star slot: its job and factor
    star_f = 0.0
    i = 0
    while i < n:
        t = rel[i]           # job i finds the system empty
        if i == refill:
            tgt[i:i + FACTOR_BLOCK] = factors(seed, i, min(FACTOR_BLOCK, n - i))
            refill += FACTOR_BLOCK
        j, s, a, g = i, siz[i], 0.0, tgt[i]
        star, star_f = i, g
        i += 1
        nxt = gate[i]        # the next release if in the busy period under way, else inf
        while True:
            if check_order:
                _verify_order(queues, star)
            d_done = s - a
            d_target = g - a
            d_arrive = nxt - t
            if d_done <= d_target and d_done <= d_arrive:
                if d_done > 0.0:
                    t += d_done
            else:
                dt = d_target if d_target < d_arrive else d_arrive
                if dt > 0.0:
                    t += dt
                lim = dt + t * TIE
                if d_done > lim:
                    if d_target <= lim:
                        if star >= 0:
                            # The star leaves its slot for the level its target
                            # was set from on entry: the lowest one, or 1 in an
                            # empty system.  No other job is served while it
                            # holds the slot, so that level is still the lowest.
                            star = -1
                            if q is None:
                                low = 1
                                queues[1] = q = deque()
                            q.append(j)
                        else:
                            # demote the front of the lowest queue one level
                            q.popleft()
                            z = low + 1
                            qz = queues.get(z)
                            if qz is None:
                                queues[z] = qz = deque()
                            qz.append(j)
                            if not q:
                                del queues[low]
                                low, q = z, qz
                        a = g            # exact landing on the target
                        g = a * 2.0
                        if q[0] != j:    # an older job takes the server
                            att[j], tgt[j] = a, g
                            j = q[0]
                            s, a, g = siz[j], att[j], tgt[j]
                        continue
                    if dt > 0.0:     # job i arrives and takes the server
                        a += dt
                    t = nxt
                    if i == refill:
                        tgt[i:i + FACTOR_BLOCK] = factors(seed, i, min(FACTOR_BLOCK, n - i))
                        refill += FACTOR_BLOCK
                    att[j], tgt[j] = a, g
                    if star >= 0:
                        # the displaced star enters the lowest level z with
                        # a <= 2**z * factor (exact by frexp); order
                        # preservation puts it lowest
                        m, e = frexp(a / star_f)
                        z = e - 1 if m == 0.5 else e
                        tgt[j] = ldexp(star_f, z)
                        qz = queues.get(z)
                        if qz is None:
                            queues[z] = qz = deque()
                            if low is None or z < low:
                                low, q = z, qz
                        qz.append(j)
                        if low != z:
                            raise InternalConsistencyError(
                                "order preservation violated on displacement")
                    star, star_f = i, tgt[i]
                    g = ldexp(star_f, low - 1)
                    j, s, a = i, siz[i], 0.0
                    i += 1
                    nxt = gate[i]
                    continue
            completions[j] = t   # job j completes
            att[j] = tgt[j] = 0.0    # hold no state for finished jobs
            if star >= 0:
                star = -1
            else:
                q.popleft()
                if not q:
                    del queues[low]
                    if queues:
                        low = min(queues)
                        q = queues[low]
                    else:
                        low = q = None
            if q is None:
                break
            j = q[0]
            s, a, g = siz[j], att[j], tgt[j]
    return completions


def _verify_order(queues: dict, star: int) -> None:
    """Raise unless job indices strictly increase from the highest level to
    the lowest, front to back, then the star (-1 for none): no older
    unfinished job sits in a lower level than a younger one, or behind it in
    the same level.  queues maps each level to its jobs, a deque or, for
    _mlf_kernel's level 0, a range."""
    seq = [j for z in sorted(queues, reverse=True) for j in queues[z]]
    if star >= 0:
        seq.append(star)
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise InternalConsistencyError(f"queue order violated: {[j + 1 for j in seq]}")


# name -> loop, each a function of (releases, sizes, gate, name, seed)
_LOOPS = {"srpt": _srpt_kernel, "fifo": _mlf_kernel, "ps": _share_kernel, "fb": _share_kernel,
          "mlf": _mlf_kernel, "rmlf": _mlf_kernel, "ermlf": _ermlf_kernel}
POLICY_NAMES = tuple(_LOOPS)
RANDOMIZED = ("rmlf", "ermlf")   # the policies that draw from a random stream


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

def jobs_to_csv(result: SimResult, path=None) -> str | None:
    """CSV export with columns (id, release, size, completion, sojourn); the
    text when path is None, else written to path (see write_csv)."""
    inst = result.instance
    return write_csv(["id", "release", "size", "completion", "sojourn"],
                     [np.arange(1, len(inst) + 1), inst.releases, inst.sizes,
                      result.completions, result.sojourns], path)


def sim_cycles_to_csv(result: SimResult, path=None) -> str | None:
    """CSV export with columns (cycle, N, P, I, sum_sojourn); the text when
    path is None, else written to path (see write_csv)."""
    cycles = result.cycles
    return write_csv(["cycle", "N", "P", "I", "sum_sojourn"],
                     [np.arange(1, len(cycles) + 1), [c.N for c in cycles],
                      [c.P for c in cycles], [c.I for c in cycles],
                      [c.sojourn_sum for c in cycles]], path)


def summary_stats(result: SimResult) -> dict:
    n = result.n_jobs()
    flow = result.total_flow()
    meta = result.instance.meta
    return {
        "policy": result.policy,
        "seed": result.seed,
        "jobs": n,
        "cycles": len(result.cycles),
        "total_flow": flow,
        "mean_sojourn": flow / n if n else None,
        "rho": None if meta is None else meta.rho,
        "mu": None if meta is None else meta.mu,
    }
