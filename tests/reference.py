"""Protocol reference for the seven policies.

blindq runs every policy by name in a fused loop (blindq.simulator.make_policy).
The classes here make the same decisions through the equal-share Policy
protocol, one method call per event, and run(inst, policy) executes them in
the protocol engine: the tests compare the two paths bit for bit and step
the policies event by event.  The beta draw helpers, lowest_unreached_level
and star_exit_level state, one value at a time, the arithmetic the queue
kernel inlines.

A policy is a state machine that serves one Group of jobs at a time, each
of its k members at rate 1/k: SRPT, FIFO and the MLF family a group of one
job, PS one group per busy period, FB the least-attained tie set.  The
engine owns sizes and completion tracking: it advances only the served
group's virtual clock and keeps each group's members in a heap by the
virtual time at which they finish.  It interacts with a policy through:

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

The file's last section holds the line-by-line forms of the instance text
layer (serialize, parse, write_csv), the oracles of blindq.instance's
numpy-backed reader and row-format writer.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from blindq.errors import InternalConsistencyError, ParameterError, ParseError
from blindq.instance import FILE_HEADER, CycleRecord, Instance
from blindq.simulator import THETA, SimResult

TIE = 2.0 ** -48   # the simulator's tie window, relative to the event time


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


def draw_beta(j: int, stream: np.random.Generator) -> BetaFactor:
    # Always consumes exactly one uniform, including j = 1, so that coupled
    # runs stay aligned draw-for-draw with the job index.
    return beta_from_uniform(j, float(stream.random()))


def factor_draw(stream: np.random.Generator):
    """The reference's RMLF draw: a function of the job index j, called once
    per arrival in arrival order, that returns job j's factor from the next
    policy-stream uniform, one scalar draw per call.  The MLF loops read
    the same factors in blocks addressed by stream position
    (blindq.simulator.factors), so the tests compare two independent paths."""
    return lambda j: draw_beta(j, stream).factor


def lowest_unreached_level(attained: float, factor: float) -> int:
    """min{z : attained <= 2**z * factor}; exact via frexp, no logarithms."""
    if attained <= 0:
        raise InternalConsistencyError("displaced job has no attained service")
    m, e = math.frexp(attained / factor)
    return e - 1 if m == 0.5 else e


def star_exit_level(attained: float, factor: float) -> int:
    """Destination log2(attained/factor) + 1; attained/factor must be an
    exact power of two, as the star's targets ldexp(factor, k) are."""
    m, e = math.frexp(attained / factor)
    if m != 0.5:
        raise InternalConsistencyError(
            f"star target {attained!r} is not a power of two multiple of {factor!r}")
    return e


class Group:
    """Jobs served together, each at rate 1/k while the group holds k jobs.

    v is the group's virtual time: it grows by the service each member
    receives, so a member that joined at v0 has attained v - v0.  heap holds
    (v at which the member finishes, jid).  The engine enters and removes
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


class Rmlf(Mlf):
    """Randomized multilevel feedback: job j's factor is max(1, 2 - beta_j),
    beta_j drawn from one policy-stream uniform per arrival, in arrival
    order (see factor_draw)."""

    name = "rmlf"

    def __init__(self, stream: np.random.Generator | None = None):
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


def _protocol_engine(rel: list, siz: list, pol: Policy):
    """Equal-share protocol engine: only the served group's virtual clock
    moves, and its members leave it in order of their virtual finishing
    times, lowest id first among exact ties.  Events coincide when their
    times agree to TIE relative: completion < internal event < arrival.
    Busy periods are those of the workload recursion, which the engine runs
    itself (busy_end), independently of blindq.busy_periods: an arrival
    that opens one waits until the system is empty.  Returns completions
    and cycles, each cycle ending at its last completion."""
    n = len(rel)
    completions = [0.0] * n
    cycles: list[CycleRecord] = []
    arrival, completion, serve = pol.arrival, pol.completion, pol.serve
    internal_event = pol.internal_event
    blind = pol.blind
    inf = math.inf

    i = 0                # next arrival index (jid = i + 1)
    in_system = 0
    t = 0.0
    prev_end: float | None = None
    cyc_start = 0.0
    cyc_first = cyc_last = 0
    cyc_sojourn = 0.0
    busy_end = -inf      # the workload recursion's busy-period end

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
            # an arrival that opens the next busy period waits for this one to end
            d_arrive = rel[i] - t if i < n and rel[i] < busy_end else inf
            dt = d_done if d_done < d_target else d_target
            if d_arrive < dt:
                dt = d_arrive
            if dt > 0.0:
                t += dt
                g.v = v + dt / k
            lim = dt + t * TIE

            if d_done <= lim:
                heappop(heap)    # exact ties leave lowest id first, by the heap key
                g.v = vfin       # the finishing job's remaining work is exactly zero
                in_system -= 1
                completion(jid)
                completions[jid - 1] = t
                cyc_sojourn += t - rel[jid - 1]
                if not in_system and d_arrive == inf:
                    idle = None if prev_end is None else cyc_start - prev_end
                    cycles.append(CycleRecord(cyc_first, cyc_last, cyc_last - cyc_first + 1,
                                              t - cyc_start, idle, cyc_start, t, cyc_sojourn))
                    prev_end = t
                continue
            if d_target <= lim:
                internal_event()
                continue
        # Arrival, into a busy system or opening a cycle exactly on its release.
        t = rel[i]
        jid = i + 1
        size = siz[i]
        if t < busy_end:
            busy_end += size
        else:
            busy_end = t + size
            cyc_start = t
            cyc_first = jid
            cyc_sojourn = 0.0
        g = arrival(jid, t) if blind else arrival(jid, t, size)
        heappush(g.heap, (g.v + size, jid))
        in_system += 1
        cyc_last = jid
        i += 1
    return completions, cycles


def run(inst: Instance, pol: Policy) -> SimResult:
    """simulate's result for pol, executed by the protocol engine."""
    completions, cycles = _protocol_engine(
        inst.releases.tolist(), inst.sizes.tolist(), pol)
    return SimResult(pol.name, None, inst, np.array(completions), cycles)


# name -> constructor taking the policy stream, for each policy simulate
# runs by name
REFERENCES = {
    "srpt": lambda stream: Srpt(),
    "fifo": lambda stream: Fifo(),
    "ps": lambda stream: Ps(),
    "fb": lambda stream: Fb(),
    "mlf": lambda stream: Mlf(),
    "rmlf": Rmlf,
    "ermlf": Ermlf,
}


# --- instance text I/O ----------------------------------------------------------
# The line-by-line forms of blindq.instance's file and CSV text, kept as they
# were before the fast paths: the tests compare values and errors against them.

def serialize(inst: Instance, path=None) -> str:
    """Text form: header line, then one 'release size' pair per line."""
    lines = [FILE_HEADER]
    lines.extend(f"{float(r)!r} {float(s)!r}"
                 for r, s in zip(inst.releases, inst.sizes))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def parse(source) -> Instance:
    """Inverse of serialize; raises ParseError naming the offending line."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source) as fh:
            text = fh.read()
    lines = text.splitlines()
    if not lines or lines[0].strip() != FILE_HEADER:
        raise ParseError(f"expected header {FILE_HEADER!r}", line=1)
    rels: list[float] = []
    szs: list[float] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'release size', got {raw!r}", line=lineno)
        try:
            r, s = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric field in {raw!r}", line=lineno) from None
        if not math.isfinite(r) or not math.isfinite(s):
            raise ParseError(f"non-finite value in {raw!r}", line=lineno)
        if s <= 0:
            raise ParseError(f"non-positive size {s!r}", line=lineno)
        if rels and r <= rels[-1]:
            raise ParseError(
                f"release {r!r} not after previous release {rels[-1]!r}", line=lineno)
        if not rels and r < 0:
            raise ParseError(f"negative first release {r!r}", line=lineno)
        rels.append(r)
        szs.append(s)
    return Instance(np.array(rels), np.array(szs))


CSV_CHUNK = 4096


def write_csv(header: list[str], columns: list, path=None) -> str:
    """CSV text: the header line, then one line per row of the equally long
    columns (lists, or 1-D arrays read through tolist()).  A value is
    written as str() (a float's shortest round-trip repr) and None as an
    empty field; values never hold a comma, quote or newline, so no field
    needs quoting.  Also written to path, if given."""
    parts = [",".join(header)]
    for a in range(0, len(columns[0]), CSV_CHUNK):
        fields = []
        for col in columns:
            part = col[a:a + CSV_CHUNK]
            if isinstance(part, np.ndarray):
                part = part.tolist()
            fields.append(map(str, part) if None not in part
                          else ["" if x is None else str(x) for x in part])
        parts.append("\n".join(map(",".join, zip(*fields))))
    text = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
