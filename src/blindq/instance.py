"""Finite job instances: construction, validation, scaling, file I/O, and
policy-independent busy periods from one walk of the workload process
(_walk), through which generate also draws its jobs."""

from __future__ import annotations

import io
import math
import operator
import re
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .distributions import (
    ARRIVAL_SUBSTREAM,
    SIZE_SUBSTREAM,
    DistributionSpec,
    make_stream,
    sample_block,
    system_load,
)
from .errors import EmptyInstanceError, ParameterError, ParseError

FILE_HEADER = "# blindq-instance v1"

MAX_BLOCK = 1 << 15   # samples per stream drawn at once by generate


class CycleRecord(NamedTuple):
    first_job_id: int
    last_job_id: int
    N: int           # arrivals in the cycle
    P: float         # busy duration, end - start
    I: float | None  # idle time preceding the cycle; None for the first
    start: float
    end: float
    sojourn_sum: float | None = None   # sum of the cycle's sojourns under a policy


@dataclass(frozen=True)
class InstanceMeta:
    rho: float | None = None
    mu: float | None = None


class Instance:
    """Immutable ordered job list; releases finite and strictly increasing,
    sizes finite and > 0.

    An instance keeps, in private slots, what every run on it reads and no
    policy decides (run_inputs): its releases, sizes and gate as lists and
    each busy period's geometry, built on first use from one walk of the
    workload process, which generate hands over (_busy) or the build makes.
    That cache holds about 72 B per job of lists plus one tuple per busy
    period, for as long as the instance lives; a pickled instance carries
    none of it."""

    __slots__ = ("releases", "sizes", "meta", "_busy", "_run")

    def __init__(self, releases, sizes, meta: InstanceMeta | None = None):
        releases = np.asarray(releases, dtype=float)
        sizes = np.asarray(sizes, dtype=float)
        if releases.shape != sizes.shape or releases.ndim != 1:
            raise ParameterError("releases and sizes must be 1-D and equally long")
        if releases.size:
            if not (np.isfinite(releases).all() and np.isfinite(sizes).all()):
                raise ParameterError("releases and sizes must be finite")
            if releases[0] < 0:
                raise ParameterError(f"first release must be >= 0, got {releases[0]}")
            if not np.all(np.diff(releases) > 0):
                raise ParameterError("release times must be strictly increasing")
            if not np.all(sizes > 0):
                raise ParameterError("job sizes must be strictly positive")
        releases.setflags(write=False)
        sizes.setflags(write=False)
        object.__setattr__(self, "releases", releases)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "meta", meta)
        object.__setattr__(self, "_busy", None)
        object.__setattr__(self, "_run", None)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Instance is immutable")

    def __reduce__(self):
        # rebuilt through __init__ and its checks; the cache is walked anew
        return Instance, (self.releases, self.sizes, self.meta)

    def __len__(self) -> int:
        return int(self.releases.size)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Instance)
                and np.array_equal(self.releases, other.releases)
                and np.array_equal(self.sizes, other.sizes))

    def __repr__(self) -> str:
        return f"Instance({len(self)} jobs)"


def generate(arrival: DistributionSpec, size: DistributionSpec,
             target_cycles: int, seed: int = 0) -> Instance:
    """Instance containing exactly target_cycles complete busy periods.

    Generation draws its jobs through _walk, block by block, until the
    workload recursion closes the target-th cycle; the arrival that would
    open the next cycle is discarded.  The instance keeps where that walk
    ended each busy period, so run_inputs does not walk it again.
    """
    rho, mu = system_load(arrival, size)  # raises on unstable input
    meta = InstanceMeta(rho=rho, mu=mu)
    target_cycles = operator.index(target_cycles)   # a fraction would never close the walk
    if target_cycles < 0:
        raise ParameterError("target_cycles must be >= 0")
    if target_cycles == 0:
        return Instance(np.empty(0), np.empty(0), meta)
    astream = make_stream(seed, ARRIVAL_SUBSTREAM)
    bstream = make_stream(seed, SIZE_SUBSTREAM)
    parts: list[tuple[np.ndarray, np.ndarray]] = []   # (releases, sizes) as drawn

    def blocks():
        # Job 0 is released at 0; job k >= 1 arrives the k-th gap after job
        # k-1.  Later jobs come in blocks of (gap, size) pairs, sized from the
        # expected job count (1/(1-rho) per cycle in M/G/1) with a margin and
        # doubled up to MAX_BLOCK.  Draws and transforms act element by
        # element and cumsum adds in order, so block sizes never change a
        # value.  The walk asks for a block only once it has read the last.
        rels, sizes = np.zeros(1), sample_block(size, bstream, 1)
        chunk = min(MAX_BLOCK, int(1.25 * target_cycles / (1.0 - rho)) + 16)
        while True:
            parts.append((rels, sizes))
            yield zip(rels.tolist(), sizes.tolist())
            gaps = sample_block(arrival, astream, chunk)
            rels = np.cumsum(np.concatenate((rels[-1:], gaps)))[1:]
            sizes = sample_block(size, bstream, chunk)
            chunk = min(2 * chunk, MAX_BLOCK)

    busy = _walk(chain.from_iterable(blocks()), target_cycles)
    n = busy[0][-1]   # jobs kept: the next arrival would open a new cycle
    rels, sizes = map(list, zip(*parts))
    k = n - sum(map(len, rels[:-1]))   # jobs kept of the last block: cut it before copying
    rels[-1], sizes[-1] = rels[-1][:k], sizes[-1][:k]
    inst = Instance(np.concatenate(rels), np.concatenate(sizes), meta)
    object.__setattr__(inst, "_busy", busy)
    return inst


def busy_periods(inst: Instance, completions: list | None = None) -> list[CycleRecord]:
    """Busy periods from the workload process alone: unit-speed drain between
    releases, jump by the job size at each release.  Policy-independent: an
    arrival at or after the running end (start plus sizes, summed in release
    order) opens the next one.  This walk (_walk) is the one busy-period
    rule: generate draws its jobs through it, every simulator loop reads it
    (the gate of run_inputs), and these are the only cycle records, built
    from the geometry run_inputs keeps.  With a policy's completions, as
    simulate gives them, each record holds its jobs' sojourns summed in
    index order.  The walk opens a period only at or after the previous
    end, so no idle time is negative."""
    rel, _, _, periods = run_inputs(inst)
    if completions is None:
        return list(periods)
    new = tuple.__new__   # the record, without the NamedTuple's Python-level __new__
    out: list[CycleRecord] = []
    sojourns = map(operator.sub, completions, rel)   # read period by period
    for p in periods:
        total = 0.0
        for x in islice(sojourns, p.N):
            total += x
        out.append(new(CycleRecord, p[:7] + (total,)))
    return out


def run_inputs(inst: Instance) -> tuple[list, list, list, list[CycleRecord]]:
    """What every run on inst reads and no policy decides: the releases rel
    and the sizes as lists; the gate, rel[k] where job k arrives inside the
    busy period under way and inf where job k opens one (job 0 included)
    and at k = n; and each busy period's record, without a sojourn sum.
    Built once per instance (_build_run) and kept: callers must not change
    the lists."""
    run = inst._run
    if run is None:
        run = _build_run(inst)
        object.__setattr__(inst, "_run", run)
        object.__setattr__(inst, "_busy", None)   # the geometry holds the walk now
    return run


def _build_run(inst: Instance) -> tuple[list, list, list, list[CycleRecord]]:
    """run_inputs' lists, from generate's walk or from a walk of the lists."""
    rel = inst.releases.tolist()
    siz = inst.sizes.tolist()
    lasts, ends = inst._busy or _walk(zip(rel, siz))
    inf = math.inf
    gate = rel + [inf]
    gate[0] = inf
    periods: list[CycleRecord] = []
    new = tuple.__new__
    first = 0
    prev_end: float | None = None
    for last, end in zip(lasts, ends):
        gate[last] = inf   # job last opens the next busy period, or is n
        start = rel[first]
        periods.append(new(CycleRecord, (first + 1, last, last - first, end - start,
                                         None if prev_end is None else start - prev_end,
                                         start, end, None)))
        first, prev_end = last, end
    return rel, siz, gate, periods


def _walk(jobs, stop: int | None = None) -> tuple[list[int], list[float]]:
    """The workload recursion over (release, size) pairs in release order:
    an arrival at or after the running end closes the busy period under way,
    and the last job closes the last one.  With stop, the walk returns at the
    stop-th close, before the arrival that makes it, so the last close's job
    count is the number of jobs it kept."""
    lasts: list[int] = []
    ends: list[float] = []
    busy_end = -math.inf
    i = 0
    for r, b in jobs:
        if r >= busy_end:
            if i:
                lasts.append(i)
                ends.append(busy_end)
                if stop and len(ends) == stop:   # without a stop, no len() per close
                    return lasts, ends
            busy_end = r + b
        else:
            busy_end += b
        i += 1
    if i:
        lasts.append(i)
        ends.append(busy_end)
    return lasts, ends


def scaling_exponent(inst: Instance) -> int:
    """Largest g with 2**-g * min(size) >= 2.  With min size = m * 2**e,
    0.5 <= m < 1 (math.frexp, exact), that is g = e - 2; floor(log2(...))
    would not do, as math.log2 rounds up to k one ulp below 2**k."""
    if len(inst) == 0:
        raise EmptyInstanceError("scaling exponent of an empty instance")
    return math.frexp(float(inst.sizes.min()))[1] - 2


def scale(inst: Instance, factor: float) -> Instance:
    """Every release and size multiplied by factor; job ids unchanged."""
    if not factor > 0:
        raise ParameterError(f"scale factor must be > 0, got {factor}")
    meta = inst.meta
    if meta is not None:
        meta = InstanceMeta(rho=meta.rho,
                            mu=None if meta.mu is None else meta.mu * factor)
    return Instance(inst.releases * factor, inst.sizes * factor, meta)


def serialize(inst: Instance, path=None) -> str | None:
    """Text form: header line, then one 'release size' pair per line, each
    value the float's shortest round-trip repr.  Returned when path is None,
    otherwise written to path chunk by chunk (see _write)."""
    return _write(FILE_HEADER, [inst.releases, inst.sizes], " ", path)


_HEADER_LINE = (FILE_HEADER + "\n").encode()
# Bytes of a plain body: printable ASCII but '#', tabs, and '\n' line ends.
_PLAIN = bytes(range(0x20, 0x7f)).replace(b"#", b"") + b"\t\n"
_FIELD = re.compile(rb"[^ \t\n]")


def _plain(data: bytes) -> bool:
    """True if data is serialize's header line and a plain body holding a
    field.  numpy's whitespace reader splits such text into the same lines
    and fields as str.splitlines and str.split, skips the same blank lines,
    and warns of no data only on a body without a field."""
    return (data.startswith(_HEADER_LINE)
            and data.translate(None, _PLAIN) == b"#"   # the header's own '#'
            and _FIELD.search(data, len(_HEADER_LINE)) is not None)


def parse(source) -> Instance:
    """Inverse of serialize: an instance from a path or a file object, text
    or UTF-8 bytes.  Raises ParseError naming the offending line.

    A plain file (see _plain) is read by numpy's C reader, which converts
    each field with CPython's own string-to-double, so the bits are float()'s.
    Every other file, and one that reader or Instance rejects, goes through
    the line scan, which alone decides errors."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    if isinstance(data, str):
        text, data = data, data.encode("utf-8", "surrogatepass")
    else:
        text = None
    if _plain(data):
        body = io.BytesIO(data)   # shares data's buffer
        body.seek(len(_HEADER_LINE))
        try:
            rels, sizes = np.ascontiguousarray(np.loadtxt(body, comments=None, ndmin=2).T)
            return Instance(rels, sizes)
        except ValueError:   # numpy's, the unpacking's (lines not of two
            pass             # fields) or Instance's: the line scan decides
    return _scan(_decode(data) if text is None else text)


def _decode(data: bytes) -> str:
    """data as UTF-8 text; a byte that is not raises ParseError naming its
    line, counted as str.splitlines counts lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8 text",
                         line=line) from None


def _scan(text: str) -> Instance:
    """The file format, line by line: header, then 'release size' lines;
    blank lines and full-line '#' comments are skipped."""
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


def cycles_to_csv(cycles: list[CycleRecord], path=None) -> str | None:
    """CSV export with columns (cycle_index, N, P, I, start, end); the text
    when path is None, else written to path (see write_csv)."""
    return write_csv(["cycle_index", "N", "P", "I", "start", "end"],
                     [np.arange(1, len(cycles) + 1), [c.N for c in cycles],
                      [c.P for c in cycles], [c.I for c in cycles],
                      [c.start for c in cycles], [c.end for c in cycles]], path)


CSV_CHUNK = 4096   # rows formatted at a time: bounds the writer's temporary strings


def write_csv(header: list[str], columns: list, path=None) -> str | None:
    """CSV text: the header line, then one line per row of the equally long
    columns (sequences, or 1-D arrays read through tolist()).  A value is
    written as str() (a float's shortest round-trip repr) and None as an
    empty field; values never hold a comma, quote or newline, so no field
    needs quoting.  Returns the text when path is None; otherwise writes it
    to path, CSV_CHUNK rows at a time, and returns None."""
    return _write(",".join(header), columns, ",", path)


def _write(head: str, columns: list, sep: str, path) -> str | None:
    """The head line, then the rows of the columns, their values written as
    '%s' (str()) with None as '', joined by sep.  One format string covers
    CSV_CHUNK rows.  With a path, the file is opened first and each chunk is
    written as soon as it is formatted, so no more than one chunk's text is
    held, and None is returned; without one, the text is returned."""
    if path is None:
        return "".join(_rows(head, columns, sep))
    with open(path, "w") as fh:
        fh.writelines(_rows(head, columns, sep))
    return None


def _rows(head: str, columns: list, sep: str):
    """Yields the head line, then the text of each CSV_CHUNK rows."""
    row = sep.join(["%s"] * len(columns)) + "\n"
    yield head + "\n"
    for a in range(0, len(columns[0]), CSV_CHUNK):
        fields = []
        for col in columns:
            part = col[a:a + CSV_CHUNK]
            if isinstance(part, np.ndarray):
                part = part.tolist()
            if None in part:
                part = ["" if x is None else x for x in part]
            fields.append(part)
        yield row * len(fields[0]) % tuple(chain.from_iterable(zip(*fields)))
