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
run that rule themselves: they read it from the instance, which walks its
busy periods once (generate hands over its own walk) and caches them.  Each
loop reads one gate per run (_gate): an arrival's release where it falls
inside the busy period under way, inf where it opens the next one, so the
loop holds that arrival until its own jobs have completed.  Other sums of
the same work can round to either side of a release (0.4 + 0.3 against
0.7), so without this rule the cycle count could depend on the policy.

Three loops apply these rules, each with its policies' decisions inlined:
_srpt_kernel runs srpt, _share_kernel ps and fb, and _queue_kernel fifo and
the MLF family, whose random targets (rmlf, ermlf) follow the factor law
of factors.  make_policy maps each name to its loop; every loop takes
(releases, sizes, gate, name, seed) and reads what its policies need.  Each
loop has one shape: an outer pass per arrival that finds the system empty,
around an inner loop that runs while jobs are in it.  The served job or
group lives in locals and goes back to per-job state only when another
takes the server, and each event's branch does only that event's work: an
arrival that leaves the served job in place touches no per-job state.  A
loop keeps only what its policy decides: the completion times, and for each
busy period the sum of its sojourns, noted when its last job completes.
instance.cycle_records builds the cycle records from those closes.  The
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
from heapq import heappop, heappush

import numpy as np

from .distributions import make_stream  # noqa: F401  (bench/spans.py traces this name)
from .distributions import POLICY_SUBSTREAM, uniforms
from .errors import InternalConsistencyError, ParameterError
from .instance import CycleRecord, Instance, busy_ends, cycle_records, write_csv

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
    """Run the named policy on inst: exact per-job completions and per-cycle
    records, each with the cycle's sojourn sum.

    Each policy runs in a fused loop with its decisions inlined, looked up
    by make_policy: srpt in _srpt_kernel, ps and fb in _share_kernel, fifo
    and the MLF family in _queue_kernel.  The loop reads the gate built from
    the instance's busy periods (_gate), opens a busy period where it is
    inf, serves it event by event with the served job or group in locals,
    and returns its completions and one (jobs arrived, end time, sojourn
    sum) close per busy period, from which instance.cycle_records builds
    the cycles.  An event costs O(log n) in the number n of jobs in the
    system under srpt, ps and fb; O(1) in the queue kernel, plus the number
    of non-empty levels when a completion empties the lowest one."""
    loop = make_policy(policy)
    name = policy.lower()
    rel = inst.releases.tolist()
    completions, closes = loop(rel, inst.sizes.tolist(), _gate(rel, inst), name, seed)
    return SimResult(name, seed, inst, np.array(completions), cycle_records(rel, closes))


def _gate(rel: list, inst: Instance) -> list:
    """Where each arrival may be taken: rel[k] where job k arrives inside
    the busy period under way, inf where job k opens a busy period (job 0
    included) and at k = n.  Built per run from the instance's cached walk
    (instance.busy_ends), and not cached itself: it is as long as rel."""
    gate = rel + [math.inf]
    gate[0] = math.inf
    for k in busy_ends(inst)[0]:
        gate[k] = math.inf
    return gate


def make_policy(name: str):
    """The loop that runs the policy called name, in any case: a function
    of (releases, sizes, gate, name, seed), name in lower case, returning
    completions and cycle closes; the gate is _gate's."""
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
    is below the served job's s - a.  Returns completions and cycle closes."""
    n = len(rel)
    completions = [0.0] * n
    closes: list[tuple] = []
    waiting: list[tuple] = []
    inf = math.inf
    cyc_sojourn = 0.0
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
            cyc_sojourn += t - rel[j]
            if not waiting:
                break
            _, j, a = heappop(waiting)
            s = siz[j]
        if nxt == inf:
            closes.append((i, t, cyc_sojourn))
            cyc_sojourn = 0.0
    return completions, closes


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
    larger heap absorbs the smaller.  Returns completions and cycle closes."""
    n = len(rel)
    completions = [0.0] * n
    closes: list[tuple] = []
    inf = math.inf
    fb = name == "fb"
    suspended: list[tuple[float, list]] = []
    top_v = inf
    cyc_sojourn = 0.0
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
            cyc_sojourn += t - rel[j]
            k -= 1
            if not k:
                if not suspended:
                    break
                v, heap = suspended.pop()
                top_v = suspended[-1][0] if suspended else inf
                k = len(heap)
            vfin, j = heap[0]
        if nxt == inf:
            closes.append((i, t, cyc_sojourn))
            cyc_sojourn = 0.0
    return completions, closes


THETA = 12.0
FACTOR_BLOCK = 1024   # RMLF factors per block; a simulate call holds one at a time


def factors(seed: int, start: int, n: int) -> list[float]:
    """The RMLF factors of jobs j = start+1 .. start+n under seed: job j's
    is max(1, 2 - beta), where beta = -log(1 - u) / (THETA log j) has
    P(beta <= x) = 1 - exp(-THETA x log j) and u is policy-stream uniform
    j-1.  Job 1's factor is 1 (its rate is 0); its uniform goes unused, so
    coupled runs stay aligned with the job index.  The uniforms are
    addressed by position (distributions.uniforms), so any split into
    blocks gives the same factors, and no call keeps state for the next.
    The arithmetic stays in math: numpy's vectorised log1p and log may
    differ from libm in the last bit, which would move some factors."""
    log, log1p, inf = math.log, math.log1p, math.inf
    us = uniforms(seed, POLICY_SUBSTREAM, start, n).tolist()
    betas = [-log1p(-u) / (THETA * log(j)) if j > 1 else inf
             for j, u in enumerate(us, start + 1)]
    return [2.0 - b if b < 1.0 else 1.0 for b in betas]


def _queue_kernel(rel: list, siz: list, gate: list, name: str, seed: int,
                  check_order: bool = False):
    """FIFO and the MLF family in one loop.

    MLF runs the front of the lowest non-empty level.  A new job enters the
    back of level 0 with target 2**0 * factor; on reaching its target a job
    moves to the back of the next level and its target doubles.  The factor
    is 2 for mlf; rmlf and ermlf read it by index from blocks of
    FACTOR_BLOCK factors (factors) starting at multiples of FACTOR_BLOCK,
    addressed by stream position, so the blocks change no value.  FIFO is
    MLF with infinite targets.  eRMLF adds levels below 0 and a star slot
    for the most recent arrival, served first until it completes, reaches
    its initial target or is displaced by the next arrival.

    The queues hold job indices, one deque per level.  The served job lives
    in locals (index j, size s, attained service a, target g); att[j] and
    tgt[j] hold a and g while another job is served, and tgt starts as each
    job's level-0 target.  Each served job is a one-job group, so its
    arithmetic is _share_kernel's with k = 1.  With check_order, the queue
    order is verified before every event (acceptance criterion 9).  Returns
    completions and cycle closes."""
    n = len(rel)
    completions = [0.0] * n
    closes: list[tuple] = []
    inf = math.inf
    frexp, ldexp = math.frexp, math.ldexp
    erm = name == "ermlf"
    att = [0.0] * n
    tgt = [inf if name == "fifo" else 2.0] * n   # rmlf/ermlf: factors, block by block
    refill = 0 if name in RANDOMIZED else n      # the next job to start a factor block
    queues: dict[int, deque] = {}
    low: int | None = None   # lowest non-empty level, and q its queue
    q: deque | None = None
    star = -1                # eRMLF's star slot: its job and factor
    star_f = 0.0
    cyc_sojourn = 0.0
    i = 0
    while i < n:
        if check_order:
            _verify_order(queues, star)
        t = rel[i]           # job i finds the system empty
        if i == refill:
            tgt[i:i + FACTOR_BLOCK] = factors(seed, i, min(FACTOR_BLOCK, n - i))
            refill += FACTOR_BLOCK
        j, s, a, g = i, siz[i], 0.0, tgt[i]
        if erm:
            star, star_f = i, g
        else:
            low = 0
            queues[0] = q = deque((i,))
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
                    if dt > 0.0:     # job i arrives
                        a += dt
                    t = nxt
                    if i == refill:
                        tgt[i:i + FACTOR_BLOCK] = factors(seed, i, min(FACTOR_BLOCK, n - i))
                        refill += FACTOR_BLOCK
                    if low == 0 and not erm:
                        q.append(i)  # behind the served job
                    else:            # job i takes the server
                        att[j], tgt[j] = a, g
                        if not erm:  # no queue below level 0 outside eRMLF
                            low = 0
                            queues[0] = q = deque((i,))
                            g = tgt[i]
                        else:
                            if star >= 0:
                                # the displaced star enters the lowest level z
                                # with a <= 2**z * factor (exact by frexp);
                                # order preservation puts it lowest
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
            cyc_sojourn += t - rel[j]
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
        if nxt == inf:
            closes.append((i, t, cyc_sojourn))
            cyc_sojourn = 0.0
    return completions, closes


def _verify_order(queues: dict, star: int) -> None:
    """Raise unless job indices strictly increase from the highest level to
    the lowest, front to back, then the star: no older unfinished job sits
    in a lower level than a younger one, or behind it in the same level."""
    seq = [j for z in sorted(queues, reverse=True) for j in queues[z]]
    if star >= 0:
        seq.append(star)
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise InternalConsistencyError(f"queue order violated: {[j + 1 for j in seq]}")


# name -> loop, each a function of (releases, sizes, gate, name, seed)
_LOOPS = {"srpt": _srpt_kernel, "fifo": _queue_kernel, "ps": _share_kernel, "fb": _share_kernel,
          "mlf": _queue_kernel, "rmlf": _queue_kernel, "ermlf": _queue_kernel}
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
