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
the MLF family.  make_policy maps each name to its loop.  A loop keeps only
what its policy decides: the completion times, and for each busy period the
sum of its sojourns, noted when its last job completes.
instance.cycle_records builds the cycle records from those closes, and the
workload each arrival finds is the instance's Lindley walk
(estimators.lindley_walk).  The tests keep a protocol engine that makes the
same decisions through policy objects, one method call per event, and check
the loops against it bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .distributions import make_stream  # noqa: F401  (bench/spans.py traces this name)
from .errors import InternalConsistencyError, ParameterError
from .instance import CycleRecord, Instance, busy_ends, cycle_records, write_csv
from .policies import MAX_BLOCK, factors

# Events coincide when their times agree to 16-32 units in the last place of
# the event time t.  A group clock moves by dt / k, so a release and the end
# of a group of 5 jobs, equal in exact arithmetic, can differ in their last bits.
TIE = 2.0 ** -48


@dataclass
class SimResult:
    policy: str
    seed: int | None
    releases: np.ndarray
    sizes: np.ndarray
    completions: np.ndarray
    sojourns: np.ndarray
    cycles: list[CycleRecord]
    rho: float | None = None
    mu: float | None = None

    def total_flow(self) -> float:
        return float(self.sojourns.sum())

    def n_jobs(self) -> int:
        return int(self.releases.size)


def simulate(inst: Instance, policy: str, seed: int = 0) -> SimResult:
    """Run the named policy on inst; exact per-job sojourns and per-cycle
    records, each with the cycle's sojourn sum.

    Each policy runs in a fused loop with its decisions inlined, looked up
    by make_policy: srpt in _srpt_kernel, ps and fb in _share_kernel, fifo
    and the MLF family in _queue_kernel.  The loop reads the gate built from
    the instance's busy periods (_gate), and returns its completions and one
    (jobs arrived, end time, sojourn sum) close per busy period, from which
    instance.cycle_records builds the cycles.  An event costs O(log n) in
    the number n of jobs in the system under srpt, ps and fb; O(1) in the
    queue kernel, plus the number of non-empty levels when a completion
    empties the lowest one."""
    loop = make_policy(policy)
    rel = inst.releases.tolist()
    completions, closes = loop(rel, inst.sizes.tolist(), _gate(rel, inst), seed)
    rel_arr = inst.releases
    comp_arr = np.array(completions)
    meta = inst.meta
    return SimResult(
        policy=policy.lower(),
        seed=seed,
        releases=rel_arr,
        sizes=inst.sizes,
        completions=comp_arr,
        sojourns=comp_arr - rel_arr,
        cycles=cycle_records(rel, closes),
        rho=None if meta is None else meta.rho,
        mu=None if meta is None else meta.mu,
    )


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
    of (releases, sizes, gate, seed) returning completions and cycle closes;
    the gate is _gate's."""
    try:
        return _LOOPS[name.lower()]
    except (AttributeError, KeyError):
        raise ParameterError(
            f"unknown policy {name!r}: expected one of {', '.join(POLICY_NAMES)}") from None


def _srpt_kernel(rel: list, siz: list, gate: list):
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
    j = -1
    s = a = 0.0
    inf = math.inf

    i = 0
    in_system = 0
    t = 0.0
    cyc_sojourn = 0.0

    while i < n or in_system:
        if in_system:
            d_done = s - a
            d_arrive = nxt - t
            dt = d_done if d_done < d_arrive else d_arrive
            if dt > 0.0:
                t += dt
                a += dt
            if d_done <= dt + t * TIE:
                in_system -= 1
                completions[j] = t
                cyc_sojourn += t - rel[j]
                if in_system:
                    _, j, a = heappop(waiting)
                    s = siz[j]
                elif nxt == inf:
                    closes.append((i, t, cyc_sojourn))
                    cyc_sojourn = 0.0
                continue
        t = rel[i]
        size = siz[i]
        if not in_system:
            j, s, a = i, size, 0.0
        elif size < s - a:
            heappush(waiting, (s - a, j, a))
            j, s, a = i, size, 0.0
        else:
            heappush(waiting, (size, i, 0.0))
        in_system += 1
        i += 1
        nxt = gate[i]    # the next release if in the busy period under way, else inf
    return completions, closes


def _share_kernel(rel: list, siz: list, gate: list, fb: bool):
    """Processor sharing, or foreground-background when fb is true.

    The served group's k members each receive service at rate 1/k.  Its
    clock v grows by the service each member receives, and its heap holds
    (v at which the member finishes, index).  PS serves one group per busy
    period.  Under FB the group's clock is its members' attained service: a
    new job opens a group of its own at v = 0 and suspends the served one.
    Suspended groups wait on a stack of (clock, heap), least attained on
    top, whose clock top_v is cached (inf when the stack is empty).  When
    the served group reaches top_v the two merge, and the larger heap
    absorbs the smaller.  Returns completions and cycle closes."""
    n = len(rel)
    completions = [0.0] * n
    closes: list[tuple] = []
    inf = math.inf
    v = 0.0              # the served group's clock and heap
    heap: list[tuple[float, int]] = []
    suspended: list[tuple[float, list]] = []
    top_v = inf

    i = 0
    in_system = 0
    t = 0.0
    cyc_sojourn = 0.0

    while i < n or in_system:
        if in_system:
            k = len(heap)
            v0 = v
            vfin, j = heap[0]
            d_done = (vfin - v0) * k
            d_target = (top_v - v0) * k
            d_arrive = nxt - t
            dt = d_done if d_done < d_target else d_target
            if d_arrive < dt:
                dt = d_arrive
            if dt > 0.0:
                t += dt
                v = v0 + dt / k
            lim = dt + t * TIE

            if d_done <= lim:
                heappop(heap)
                v = vfin         # the finishing job's remaining work is exactly zero
                in_system -= 1
                if not heap and suspended:
                    v, heap = suspended.pop()
                    top_v = suspended[-1][0] if suspended else inf
                completions[j] = t
                cyc_sojourn += t - rel[j]
                if not in_system and nxt == inf:
                    closes.append((i, t, cyc_sojourn))
                    cyc_sojourn = 0.0
                continue
            if d_target <= lim:
                # FB: land exactly on the top's clock and merge with it
                v, top = suspended.pop()
                top_v = suspended[-1][0] if suspended else inf
                if len(heap) < len(top):
                    heap, top = top, heap
                for entry in top:
                    heappush(heap, entry)
                continue
        t = rel[i]
        size = siz[i]
        if fb:
            if in_system:
                suspended.append((v, heap))
                top_v = v
                heap = []
            v = 0.0
        elif not heap:
            v = 0.0          # PS: one group per busy period
        heappush(heap, (v + size, i))
        in_system += 1
        i += 1
        nxt = gate[i]    # the next release if in the busy period under way, else inf
    return completions, closes


def _queue_kernel(rel: list, siz: list, gate: list, name: str, seed: int,
                  check_order: bool = False):
    """FIFO and the MLF family in one loop.

    MLF runs the front of the lowest non-empty level.  A new job enters the
    back of level 0 with target 2**0 * factor; on reaching its target a job
    moves to the back of the next level and its target doubles.  The factor
    is 2 for mlf; rmlf and ermlf read it by index from blocks of at most
    MAX_BLOCK factors (policies.factors), addressed by stream position, so
    the blocks change no value.  FIFO is MLF with infinite targets.  eRMLF
    adds levels below 0 and a star slot for the most recent arrival, served
    first until it completes, reaches its initial target or is displaced by
    the next arrival.

    Job j (0-based) has attained service att[j] and target tgt[j], and the
    queues hold job indices, one deque per level.  Each served job is a
    one-job group, so its arithmetic is _share_kernel's with k = 1.  With
    check_order, the queue order is verified before every event (acceptance
    criterion 9).  Returns completions and cycle closes."""
    n = len(rel)
    completions = [0.0] * n
    closes: list[tuple] = []
    inf = math.inf
    frexp, ldexp = math.frexp, math.ldexp
    att = [0.0] * n
    tgt = [0.0] * n
    erm = name == "ermlf"
    randomized = name in RANDOMIZED
    f = inf if name == "fifo" else 2.0     # fixed factor of fifo and mlf
    fs, fs_base, fs_end = [], 0, 0   # rmlf/ermlf: factors of jobs fs_base+1 .. fs_end
    queues: dict[int, deque] = {}
    low: int | None = None   # lowest non-empty level, and q its queue
    q: deque | None = None
    star = -1                # eRMLF's star slot: its job and factor
    star_f = 0.0

    i = 0
    in_system = 0
    t = 0.0
    cyc_sojourn = 0.0

    while i < n or in_system:
        if check_order:
            _verify_order(queues, star)
        if in_system:
            j = star if star >= 0 else q[0]
            v = att[j]
            d_done = siz[j] - v
            d_target = tgt[j] - v
            d_arrive = nxt - t
            dt = d_done if d_done < d_target else d_target
            if d_arrive < dt:
                dt = d_arrive
            if dt > 0.0:
                t += dt
                att[j] = v + dt
            lim = dt + t * TIE

            if d_done <= lim:
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
                in_system -= 1
                att[j] = tgt[j] = 0.0    # hold no state for finished jobs
                completions[j] = t
                cyc_sojourn += t - rel[j]
                if not in_system and nxt == inf:
                    closes.append((i, t, cyc_sojourn))
                    cyc_sojourn = 0.0
                continue
            if d_target <= lim:
                if star >= 0:
                    # The star leaves its slot for the level its target was
                    # set from on entry: the lowest one, or 1 in an empty
                    # system.  No other job is served while it holds the
                    # slot, so that level is still the lowest.
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
                v = tgt[j]
                att[j] = v       # exact landing on the target
                tgt[j] = v * 2.0
                continue
        t = rel[i]
        if randomized:
            if i == fs_end:
                fs_base, fs_end = i, min(i + MAX_BLOCK, n)
                fs = factors(seed, i, fs_end - i)
            f = fs[i - fs_base]
        if erm:
            if star >= 0:
                # the displaced star enters the lowest level z with att <=
                # 2**z * factor (exact by frexp); order preservation puts it lowest
                m, e = frexp(att[star] / star_f)
                z = e - 1 if m == 0.5 else e
                tgt[star] = ldexp(star_f, z)
                qz = queues.get(z)
                if qz is None:
                    queues[z] = qz = deque()
                    if low is None or z < low:
                        low, q = z, qz
                qz.append(star)
                if low != z:
                    raise InternalConsistencyError("order preservation violated on displacement")
            star, star_f = i, f
            tgt[i] = f if low is None else ldexp(f, low - 1)
        else:
            tgt[i] = f
            if low == 0:
                q.append(i)
            else:            # no queue below level 0 outside eRMLF
                low = 0
                queues[0] = q = deque((i,))
        in_system += 1
        i += 1
        nxt = gate[i]    # the next release if in the busy period under way, else inf
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


# name -> loop, each a function of (releases, sizes, gate, seed)
_LOOPS = {
    "srpt": lambda rel, siz, gate, seed: _srpt_kernel(rel, siz, gate),
    "fifo": lambda rel, siz, gate, seed: _queue_kernel(rel, siz, gate, "fifo", seed),
    "ps": lambda rel, siz, gate, seed: _share_kernel(rel, siz, gate, False),
    "fb": lambda rel, siz, gate, seed: _share_kernel(rel, siz, gate, True),
    "mlf": lambda rel, siz, gate, seed: _queue_kernel(rel, siz, gate, "mlf", seed),
    "rmlf": lambda rel, siz, gate, seed: _queue_kernel(rel, siz, gate, "rmlf", seed),
    "ermlf": lambda rel, siz, gate, seed: _queue_kernel(rel, siz, gate, "ermlf", seed),
}
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

def jobs_to_csv(result: SimResult, path=None) -> str:
    return write_csv(["id", "release", "size", "completion", "sojourn"],
                     [np.arange(1, result.n_jobs() + 1), result.releases, result.sizes,
                      result.completions, result.sojourns], path)


def sim_cycles_to_csv(result: SimResult, path=None) -> str:
    cycles = result.cycles
    return write_csv(["cycle", "N", "P", "I", "sum_sojourn"],
                     [np.arange(1, len(cycles) + 1), [c.N for c in cycles],
                      [c.P for c in cycles], [c.I for c in cycles],
                      [c.sojourn_sum for c in cycles]], path)


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
