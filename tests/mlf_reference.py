"""Protocol reference for fifo and the MLF family (mlf, rmlf, ermlf).

blindq runs these four policies only by name, in the fused queue kernel
(blindq.simulator._queue_kernel).  The classes here make the same decisions
through the equal-share Policy protocol (see blindq.policies), so that
simulate(inst, policy_object) runs them in the protocol engine: the tests
compare the two paths bit for bit and step the policies event by event.
The beta draw helpers and star_exit_level state, one value at a time, the
arithmetic the kernel inlines.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from blindq.distributions import RandomStream
from blindq.errors import InternalConsistencyError, ParameterError
from blindq.policies import THETA, Group, Policy, factor_draw, lowest_unreached_level


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


def star_exit_level(attained: float, factor: float) -> int:
    """Destination log2(attained/factor) + 1; attained/factor must be an
    exact power of two, as the star's targets ldexp(factor, k) are."""
    m, e = math.frexp(attained / factor)
    if m != 0.5:
        raise InternalConsistencyError(
            f"star target {attained!r} is not a power of two multiple of {factor!r}")
    return e


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


class _MlfJob(Group):
    """One job of the MLF family, served alone: v is its attained service.
    A job in eRMLF's star slot holds, as its level, the queue it enters on
    reaching its initial target."""

    __slots__ = ("jid", "level", "target", "factor")

    def __init__(self, jid: int, factor: float, level: int, target: float):
        self.v = 0.0
        self.heap = []
        self.jid = jid
        self.level = level
        self.target = target
        self.factor = factor


class Mlf(Policy):
    """Multilevel feedback over queues Q0, Q1, ...

    Always runs the front of the lowest non-empty queue.  A new job enters
    the back of Q0 with target 2**0 * factor; on reaching its target a job
    moves down one queue and the target doubles.  Deterministic MLF forces
    every factor to 2, so the targets are exactly 2**(i+1), and consumes no
    randomness.  The star slot is eRMLF's and stays empty otherwise.
    """

    name = "mlf"

    def __init__(self):
        self.queues: dict[int, deque[_MlfJob]] = {}
        self.low: int | None = None        # lowest non-empty level
        self.star: _MlfJob | None = None

    def _factor(self, jid: int) -> float:
        return 2.0

    def arrival(self, jid, t):
        f = self._factor(jid)
        job = _MlfJob(jid, f, 0, f)
        self._enqueue(job)
        return job

    def _enqueue(self, job: _MlfJob) -> None:
        level = job.level
        q = self.queues.get(level)
        if q is None:
            self.queues[level] = q = deque()
            if self.low is None or level < self.low:
                self.low = level
        q.append(job)

    def completion(self, jid):
        job = self.star
        if job is not None:
            self.star = None
        else:
            z = self.low
            q = self.queues[z]
            job = q.popleft()
            if not q:
                del self.queues[z]
                self.low = min(self.queues) if self.queues else None
        if job.jid != jid:
            raise InternalConsistencyError(
                f"job {jid} completed, but job {job.jid} was the one served")

    def serve(self):
        job = self.star
        if job is None:
            job = self.queues[self.low][0]
        return job, job.target - job.v

    def internal_event(self):
        job = self.star
        if job is None:
            # Demote the front of the lowest queue one level.  If that
            # empties its queue, the new lowest level is the one it enters.
            queues = self.queues
            z = self.low
            q = queues[z]
            job = q.popleft()
            if not q:
                del queues[z]
                self.low = z + 1
            job.level = z = z + 1
            q = queues.get(z)
            if q is None:
                queues[z] = q = deque()
            q.append(job)
        else:
            self.star = None    # to the level recorded when its target was set
            self._enqueue(job)
        job.v = job.target      # exact landing on the target
        job.target *= 2.0

    def order_snapshot(self) -> list[int]:
        """Job ids from highest queue to lowest, front to back, then the star."""
        seq: list[int] = []
        for z in sorted(self.queues, reverse=True):
            seq.extend(job.jid for job in self.queues[z])
        if self.star is not None:
            seq.append(self.star.jid)
        return seq


class Rmlf(Mlf):
    """Randomized multilevel feedback: job j's factor is max(1, 2 - beta_j),
    beta_j drawn from one policy-stream uniform per arrival, in arrival
    order (see factor_draw)."""

    name = "rmlf"

    def __init__(self, stream: RandomStream | None = None):
        if stream is None:
            raise ParameterError(f"{self.name} requires a random stream")
        super().__init__()
        self._factor = factor_draw(stream)


class Ermlf(Rmlf):
    """RMLF extended to arbitrarily small job sizes.

    Queues Q_z for all integers z plus a one-slot queue for the most recent
    arrival, which is served at top priority until it completes, reaches its
    initial target, or is displaced by the next arrival.
    """

    name = "ermlf"

    def arrival(self, jid, t):
        f = self._factor(jid)
        prev = self.star
        if prev is not None:
            if prev.jid != jid - 1:
                raise InternalConsistencyError(
                    f"star slot held {prev.jid}, expected most recent arrival {jid - 1}")
            z = lowest_unreached_level(prev.v, prev.factor)
            prev.level = z
            prev.target = math.ldexp(prev.factor, z)
            self._enqueue(prev)
            if self.low != z:
                raise InternalConsistencyError("order preservation violated on displacement")
        low = self.low
        if low is None:
            job = _MlfJob(jid, f, 1, f)   # empty system: initial target 2**0 * factor
        else:
            job = _MlfJob(jid, f, low, math.ldexp(f, low - 1))
        self.star = job
        return job


def verify_order_invariant(policy) -> None:
    """Raise if an older unfinished job sits in a lower queue than a younger
    one, or behind it within the same queue."""
    seq = policy.order_snapshot()
    for a, b in zip(seq, seq[1:]):
        if a >= b:
            raise InternalConsistencyError(f"queue order violated: {seq}")


# name -> constructor taking the policy stream, for each policy the queue
# kernel runs by name
REFERENCES = {
    "fifo": lambda stream: Fifo(),
    "mlf": lambda stream: Mlf(),
    "rmlf": Rmlf,
    "ermlf": Ermlf,
}
