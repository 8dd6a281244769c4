"""Preemptive single-server scheduling disciplines as pure state machines.

Seven policies: srpt, fifo, ps, fb, mlf, rmlf, ermlf.  All are blind (they
never see job sizes) except SRPT, whose state alone carries remaining work.
The multilevel-feedback family keeps jobs in priority queues and demotes a
job one level each time its attained service reaches a randomized target.

Every policy serves one Group of jobs at a time, each of its k members at
rate 1/k: priority policies serve a group of one job, PS one group per busy
period, FB the least-attained tie set.  The driving loop (see simulator)
owns sizes and completion tracking: it advances only the served group's
virtual clock and keeps each group's members in a heap by the virtual time
at which they finish.  It interacts with a policy through:

    arrival(jid, t[, size]) -> Group  new job released; it joins the returned
                                      group at that group's current clock;
                                      size only for non-blind policies
    serve() -> (Group, gap)           the group served now, and the distance,
                                      in its virtual time, to the next change
                                      the policy makes on its own (target hit
                                      or tie-set merge); inf if none
    internal_event()                  apply the change announced by the
                                      immediately preceding serve()
    completion(jid)                   jid finished and left the served group
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import NamedTuple

from .distributions import RandomStream
from .errors import InternalConsistencyError, ParameterError

THETA = 12.0


class BetaFactor(NamedTuple):
    """Randomized target multiplier of one job: factor = max(1, 2 - beta)."""
    j: int
    beta: float        # +inf for j = 1 (degenerate rate theta * ln 1 = 0)
    factor: float      # always in [1, 2]


def beta_from_uniform(j: int, u: float) -> BetaFactor:
    """Inverse-CDF draw of beta with P(beta <= x) = 1 - exp(-theta x ln j)."""
    if j < 1:
        raise ParameterError(f"job index must be >= 1, got {j}")
    if j == 1:
        return BetaFactor(1, math.inf, 1.0)
    beta = -math.log1p(-u) / (THETA * math.log(j))
    return BetaFactor(j, beta, max(1.0, 2.0 - beta))


def draw_beta(j: int, stream: RandomStream) -> BetaFactor:
    # Always consumes exactly one uniform, including j = 1, so that coupled
    # runs stay aligned draw-for-draw with the job index.
    return beta_from_uniform(j, stream.uniform())


def lowest_unreached_level(attained: float, factor: float) -> int:
    """min{z : attained <= 2**z * factor}; exact via frexp, no logarithms."""
    if attained <= 0:
        raise InternalConsistencyError("displaced job has no attained service")
    m, e = math.frexp(attained / factor)
    return e - 1 if m == 0.5 else e


def star_exit_level(attained: float, factor: float) -> int:
    """Destination log2(attained/factor) + 1; must be an integer."""
    lg = math.log2(attained / factor)
    k = round(lg)
    if abs(lg - k) > 1e-9:
        raise InternalConsistencyError(
            f"star target {attained!r} is not a power of two multiple of {factor!r}")
    return k + 1


class Group:
    """Jobs served together, each at rate 1/k while the group holds k jobs.

    v is the group's virtual time: it grows by the service each member
    receives, so a member that joined at v0 has attained v - v0.  heap holds
    (v at which the member finishes, jid).  The simulator enters and removes
    entries; policies only merge groups and test whether one is empty, so
    blind ones never see a size.
    """

    __slots__ = ("v", "heap")

    def __init__(self):
        self.v = 0.0
        self.heap: list[tuple[float, int]] = []

    def merge(self, other: Group) -> Group:
        """Union with a group at the same virtual time: the larger heap
        absorbs the smaller one, and the absorbing group is returned."""
        big, small = (self, other) if len(self.heap) >= len(other.heap) else (other, self)
        for entry in small.heap:
            heappush(big.heap, entry)
        return big


class Policy:
    name = "?"
    blind = True

    def arrival(self, jid: int, t: float) -> Group:
        raise NotImplementedError

    def completion(self, jid: int) -> None:
        raise NotImplementedError

    def serve(self) -> tuple[Group, float]:
        raise NotImplementedError

    def internal_event(self) -> None:
        raise InternalConsistencyError(f"{self.name} has no internal events")


class Srpt(Policy):
    """Shortest remaining processing time; ties by earlier release, then id.
    Only the head of the heap is served, so only its key goes stale."""

    name = "srpt"
    blind = False

    def __init__(self):
        self.heap: list[tuple[float, float, int, Group]] = []  # (remaining, release, id, group)

    def arrival(self, jid, t, size):
        heap = self.heap
        if heap:
            _, rel, hid, hg = heap[0]
            heap[0] = (hg.heap[0][0] - hg.v, rel, hid, hg)  # a smaller key keeps the heap
        g = Group()
        heappush(heap, (size, t, jid, g))
        return g

    def completion(self, jid):
        heappop(self.heap)

    def serve(self):
        return self.heap[0][3], math.inf


class Fifo(Policy):
    name = "fifo"

    def __init__(self):
        self.order: deque[Group] = deque()  # arrival order == release order

    def arrival(self, jid, t):
        g = Group()
        self.order.append(g)
        return g

    def completion(self, jid):
        self.order.popleft()

    def serve(self):
        return self.order[0], math.inf


class Ps(Policy):
    """Processor sharing: every job in the system, one group per busy period."""

    name = "ps"

    def __init__(self):
        self.group = Group()

    def arrival(self, jid, t):
        if not self.group.heap:
            self.group = Group()
        return self.group

    def completion(self, jid):
        pass

    def serve(self):
        return self.group, math.inf


class Fb(Policy):
    """Foreground-background: serve the least-attained set, shared equally.

    A group's virtual time is its members' attained service.  Groups the
    served one preempted wait on a stack, the least attained on top; when
    the served group reaches the top's level the two merge.
    """

    name = "fb"

    def __init__(self):
        self.served: Group | None = None
        self.suspended: list[Group] = []

    def arrival(self, jid, t):
        if self.served is not None:
            self.suspended.append(self.served)
        self.served = Group()
        return self.served

    def completion(self, jid):
        if not self.served.heap:
            self.served = self.suspended.pop() if self.suspended else None

    def serve(self):
        g = self.served
        return g, (self.suspended[-1].v - g.v if self.suspended else math.inf)

    def internal_event(self):
        top = self.suspended.pop()
        self.served.v = top.v   # land exactly on the level just reached
        self.served = self.served.merge(top)


class _MlfJob(Group):
    """One job of the MLF family, served alone: v is its attained service."""

    __slots__ = ("level", "target", "factor")

    def __init__(self, factor: float, level: int | None, target: float):
        self.v = 0.0
        self.heap = []
        self.level = level
        self.target = target
        self.factor = factor


class Rmlf(Policy):
    """Randomized multilevel feedback over queues Q0, Q1, ...

    Always runs the front of the lowest non-empty queue.  A new job enters
    the back of Q0 with target 2**0 * factor; on reaching its target a job
    moves down one queue and the target doubles.  The star slot is eRMLF's
    and stays empty here.
    """

    name = "rmlf"

    def __init__(self, stream: RandomStream | None = None):
        if stream is None:
            raise ParameterError(f"{self.name} requires a random stream")
        self.stream = stream
        self.queues: dict[int, deque[int]] = {}
        self.jobs: dict[int, _MlfJob] = {}
        self.star: int | None = None

    def _factor(self, jid: int) -> float:
        return draw_beta(jid, self.stream).factor

    def arrival(self, jid, t):
        f = self._factor(jid)
        job = self.jobs[jid] = _MlfJob(f, 0, f)
        self._enqueue(0, jid)
        return job

    def _enqueue(self, level: int, jid: int) -> None:
        q = self.queues.get(level)
        if q is None:
            self.queues[level] = q = deque()
        q.append(jid)

    def completion(self, jid):
        if self.star == jid:
            self.star = None
        else:
            level = self.jobs[jid].level
            q = self.queues[level]
            if q[0] != jid:
                raise InternalConsistencyError(f"job {jid} is not at the front of Q{level}")
            q.popleft()
            if not q:
                del self.queues[level]
        del self.jobs[jid]

    def serve(self):
        jid = self.star
        if jid is None:
            jid = self.queues[min(self.queues)][0]
        job = self.jobs[jid]
        return job, job.target - job.v

    def internal_event(self):
        if self.star is None:
            z = min(self.queues)
            q = self.queues[z]
            jid = q.popleft()
            if not q:
                del self.queues[z]
            job = self.jobs[jid]
            job.level = z + 1
        else:
            jid, self.star = self.star, None
            job = self.jobs[jid]
            job.level = star_exit_level(job.target, job.factor)
        job.v = job.target  # exact landing on the target
        job.target *= 2.0
        self._enqueue(job.level, jid)

    def order_snapshot(self) -> list[int]:
        """Job ids from highest queue to lowest, front to back, then the star."""
        seq: list[int] = []
        for z in sorted(self.queues, reverse=True):
            seq.extend(self.queues[z])
        if self.star is not None:
            seq.append(self.star)
        return seq


class Mlf(Rmlf):
    """Deterministic multilevel feedback: every factor forced to 2, so the
    targets are exactly 2**(i+1).  Consumes no randomness."""

    name = "mlf"

    def __init__(self):
        self.queues = {}
        self.jobs = {}
        self.star = None

    def _factor(self, jid):
        return 2.0


class Ermlf(Rmlf):
    """RMLF extended to arbitrarily small job sizes.

    Queues Q_z for all integers z plus a one-slot queue for the most recent
    arrival, which is served at top priority until it completes, reaches its
    initial target, or is displaced by the next arrival.
    """

    name = "ermlf"

    def arrival(self, jid, t):
        f = self._factor(jid)
        if self.star is not None:
            prev = self.star
            if prev != jid - 1:
                raise InternalConsistencyError(
                    f"star slot held {prev}, expected most recent arrival {jid - 1}")
            pj = self.jobs[prev]
            z = lowest_unreached_level(pj.v, pj.factor)
            pj.level = z
            pj.target = math.ldexp(pj.factor, z)
            self._enqueue(z, prev)
            self.star = None
            if min(self.queues) != z:
                raise InternalConsistencyError("order preservation violated on displacement")
        if self.queues:
            target = math.ldexp(f, min(self.queues) - 1)
        else:
            target = f  # empty system: initial target 2**0 * factor
        job = self.jobs[jid] = _MlfJob(f, None, target)
        self.star = jid
        return job


def verify_order_invariant(policy) -> None:
    """Raise if an older unfinished job sits in a lower queue than a younger
    one, or behind it within the same queue."""
    seq = policy.order_snapshot()
    for a, b in zip(seq, seq[1:]):
        if a >= b:
            raise InternalConsistencyError(f"queue order violated: {seq}")


POLICY_NAMES = ("srpt", "fifo", "ps", "fb", "mlf", "rmlf", "ermlf")
RANDOMIZED = ("rmlf", "ermlf")   # the policies that draw from a random stream

_CONSTRUCTORS = {
    "srpt": lambda stream: Srpt(),
    "fifo": lambda stream: Fifo(),
    "ps": lambda stream: Ps(),
    "fb": lambda stream: Fb(),
    "mlf": lambda stream: Mlf(),
    "rmlf": Rmlf,
    "ermlf": Ermlf,
}


def make_policy(name: str, stream: RandomStream | None = None) -> Policy:
    try:
        ctor = _CONSTRUCTORS[name.lower()]
    except KeyError:
        raise ParameterError(
            f"unknown policy {name!r}; choose from {', '.join(POLICY_NAMES)}") from None
    return ctor(stream)
