"""Preemptive single-server scheduling disciplines.

Seven policies: srpt, fifo, ps, fb, mlf, rmlf, ermlf.  All are blind (they
never see job sizes) except SRPT.  The multilevel-feedback family (mlf,
rmlf, ermlf) keeps jobs in priority queues and demotes a job one level each
time its attained service reaches a target 2**level * factor; rmlf and
ermlf randomize the factor (factor_draw).

Fifo and the MLF family run only in simulate's fused queue kernel
(simulator._queue_kernel), with FIFO as MLF with infinite targets; the
kernel takes the factor draw and eRMLF's displacement level from the
helpers here.  SRPT, PS and FB are the classes below, state machines that
serve one Group of jobs at a time, each of its k members at rate 1/k: SRPT
a group of one job, PS one group per busy period, FB the least-attained tie
set.  The protocol engine (see simulator) owns sizes and completion
tracking: it advances only the served group's virtual clock and keeps each
group's members in a heap by the virtual time at which they finish.  It
interacts with a policy through:

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
from heapq import heappop, heappush

from .distributions import RandomStream
from .errors import InternalConsistencyError, ParameterError

THETA = 12.0
# Policy-stream uniforms fetched per block by rmlf/ermlf: the first block
# costs about one scalar draw, and blocks double up to MAX_BLOCK.
FIRST_BLOCK = 16
MAX_BLOCK = 4096


def factor_draw(stream: RandomStream):
    """The RMLF factor draw: a function of the job index j that takes the
    next policy-stream uniform u and returns job j's target factor
    max(1, 2 - beta), where beta = -log(1 - u) / (THETA log j) has
    P(beta <= x) = 1 - exp(-THETA x log j); job 1's factor is 1, and it
    still consumes its uniform, so coupled runs stay aligned with the job
    index.  Called once per arrival in arrival order.  The uniforms come in
    blocks that start at FIRST_BLOCK, for instances of a few jobs, and
    double up to MAX_BLOCK; a draw is a pure function of its counter, so
    the block sizes never change a factor."""
    block = FIRST_BLOCK
    next_u = iter(()).__next__   # exhausted: the first call fetches a block
    log, log1p = math.log, math.log1p

    def draw(j: int) -> float:
        nonlocal block, next_u
        try:
            u = next_u()
        except StopIteration:
            next_u = iter(stream.uniforms(block).tolist()).__next__
            block = min(2 * block, MAX_BLOCK)
            u = next_u()
        if j == 1:
            return 1.0
        beta = -log1p(-u) / (THETA * log(j))
        f = 2.0 - beta
        return f if f > 1.0 else 1.0

    return draw


def lowest_unreached_level(attained: float, factor: float) -> int:
    """min{z : attained <= 2**z * factor}; exact via frexp, no logarithms."""
    if attained <= 0:
        raise InternalConsistencyError("displaced job has no attained service")
    m, e = math.frexp(attained / factor)
    return e - 1 if m == 0.5 else e


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


POLICY_NAMES = ("srpt", "fifo", "ps", "fb", "mlf", "rmlf", "ermlf")
RANDOMIZED = ("rmlf", "ermlf")   # the policies that draw from a random stream

_CONSTRUCTORS = {"srpt": Srpt, "ps": Ps, "fb": Fb}


def make_policy(name: str) -> Policy:
    """The protocol policy for srpt, ps or fb.  Fifo and the MLF family have
    no Policy class: simulate runs them by name in its queue kernel."""
    try:
        return _CONSTRUCTORS[name.lower()]()
    except KeyError:
        raise ParameterError(
            f"unknown policy {name!r}: simulate takes {', '.join(POLICY_NAMES)} "
            f"by name; make_policy builds {', '.join(_CONSTRUCTORS)}") from None
