"""Seeded sampling of interarrival/job-size laws with exact moment metadata.

Streams are counter-based: make_stream returns numpy's Philox generator
keyed by (seed, substream), and a draw is a pure function of (seed,
substream, its position), which uniforms addresses directly; replications
can be coupled or parallelised without coordination.  Substream conventions:

    0  interarrival times
    1  job sizes
    2  policy randomness (target randomisation)
"""

from __future__ import annotations

import hashlib
import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, UnstableSystemError

ARRIVAL_SUBSTREAM = 0
SIZE_SUBSTREAM = 1
POLICY_SUBSTREAM = 2

# Smallest uniform fed into inverse CDFs; keeps every sample strictly positive.
_U_FLOOR = 2.0 ** -53
_MASK64 = 0xFFFFFFFFFFFFFFFF

_LOCK = threading.Lock()
_PHILOX: list = []   # uniforms' Philox, its generator and fresh state, made on first use


def _key(seed: int, substream: int) -> tuple[int, int]:
    """The Philox key of (seed, substream), each taken modulo 2**64; a value
    that is not an integer raises TypeError rather than running as its floor."""
    return operator.index(seed) & _MASK64, operator.index(substream) & _MASK64


def make_stream(seed: int, substream: int) -> np.random.Generator:
    """The uniform source of (seed, substream): a Philox generator whose
    random(n) gives the next n uniforms in [0, 1)."""
    key = np.array(_key(seed, substream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniforms(seed: int, substream: int, start: int, n: int) -> np.ndarray:
    """Uniforms start .. start+n-1 of make_stream(seed, substream), with no
    generator built: a Philox at counter c with an empty buffer draws
    uniforms 4c, 4c+1, ... next, so one per-process Philox is re-keyed at
    counter start // 4 and its first start % 4 draws are dropped."""
    with _LOCK:
        if not _PHILOX:   # not at import: numpy imports numpy.random on first use
            bitgen = np.random.Philox(0)
            _PHILOX.extend((bitgen, np.random.Generator(bitgen), bitgen.state))
        bitgen, generator, state = _PHILOX
        counter, key = state["state"]["counter"], state["state"]["key"]
        counter[0], (key[0], key[1]) = start // 4, _key(seed, substream)
        bitgen.state = state
        return generator.random(start % 4 + n)[start % 4:]


def derive_seed(master: int, *parts) -> int:
    """A 63-bit seed: sha256 of master and parts joined by ':', truncated."""
    text = ":".join(map(str, (master, *parts)))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class DistributionSpec:
    """Tagged description of a positive law plus its parameters.

    kinds: exponential(rate), deterministic(value), uniform(lo, hi),
    pareto(shape), hyperexponential(w1..wk, rate1..ratek) with weights as
    given (so its text round-trips), scaled(inner, divisor) which divides
    inner samples by divisor in (0, 1).  Kind and params are checked on
    construction, so no function here meets an unknown kind.
    """

    kind: str
    params: tuple[float, ...] = ()
    inner: "DistributionSpec | None" = field(default=None)

    def __post_init__(self):
        rule = _PARAM_RULES.get(self.kind)
        if rule is None:
            raise ParameterError(f"unknown distribution kind {self.kind!r}")
        if not (all(map(math.isfinite, self.params)) and rule[1](self.params, self.inner)):
            raise ParameterError(f"{self.kind} needs {rule[0]}, all finite, got {self.params}")

    def __str__(self) -> str:
        return format_spec(self)


# kind -> (what its params must be, the check on (params, inner))
_PARAM_RULES = {
    "exponential": ("one rate > 0", lambda p, inner: len(p) == 1 and p[0] > 0),
    "deterministic": ("one value > 0", lambda p, inner: len(p) == 1 and p[0] > 0),
    "uniform": ("0 < lo < hi", lambda p, inner: len(p) == 2 and 0 < p[0] < p[1]),
    "pareto": ("one shape > 1, for a finite mean", lambda p, inner: len(p) == 1 and p[0] > 1),
    "hyperexponential": ("k >= 1 weights then k rates, all > 0, and weights > 0 once normalised",
                         lambda p, inner: len(p) >= 2 and len(p) % 2 == 0
                         and all(x > 0 for x in p) and all(w > 0 for w in mixture_weights(p))),
    "scaled": ("one divisor in (0, 1) and an inner law",
               lambda p, inner: len(p) == 1 and 0 < p[0] < 1
               and isinstance(inner, DistributionSpec)),
}


def exponential_mean(mean: float) -> DistributionSpec:
    if not mean > 0:
        raise ParameterError(f"exponential mean must be > 0, got {mean}")
    return DistributionSpec("exponential", (1.0 / float(mean),))


def deterministic(value: float) -> DistributionSpec:
    return DistributionSpec("deterministic", (float(value),))


def uniform(lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec("uniform", (float(lo), float(hi)))


def pareto(shape: float) -> DistributionSpec:
    # Scale fixed at 1 (support [1, inf), CDF 1 - x^-shape); rescale via scaled().
    return DistributionSpec("pareto", (float(shape),))


def hyperexponential(weights, rates) -> DistributionSpec:
    weights = tuple(float(w) for w in weights)
    rates = tuple(float(r) for r in rates)
    if len(weights) != len(rates) or not weights:
        raise ParameterError("hyperexponential needs matching, non-empty weights and rates")
    return DistributionSpec("hyperexponential", weights + rates)


def mixture_weights(params: tuple) -> tuple[float, ...]:
    """A hyperexponential spec's weights, which it keeps as given, normalised."""
    weights = params[:len(params) // 2]
    total = sum(weights)
    return tuple(w / total for w in weights)


def scaled(inner: DistributionSpec, divisor: float) -> DistributionSpec:
    return DistributionSpec("scaled", (float(divisor),), inner=inner)


def sample_block(spec: DistributionSpec, stream: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. samples, each from the next uniforms of the stream in order.

    Uniforms consumed per sample: exponential, uniform and pareto 1,
    deterministic 0, hyperexponential 2 (component, then exponential), and
    scaled as its inner law.  Every transform acts element by element, so n
    samples drawn in one block equal the same samples drawn in any split.
    """
    n = int(n)
    k, p = spec.kind, spec.params
    if k == "exponential":
        u = np.maximum(stream.random(n), _U_FLOOR)
        return -np.log1p(-u) / p[0]
    if k == "deterministic":
        return np.full(n, p[0])
    if k == "uniform":
        u = np.maximum(stream.random(n), _U_FLOOR)
        return p[0] + (p[1] - p[0]) * u
    if k == "pareto":
        u = stream.random(n)
        return np.power(1.0 - u, -1.0 / p[0])
    if k == "hyperexponential":
        m = len(p) // 2
        cumw = np.cumsum(mixture_weights(p))
        rates = np.array(p[m:])
        u = stream.random(2 * n).reshape(n, 2)
        idx = np.minimum(np.searchsorted(cumw, u[:, 0], side="right"), m - 1)
        ue = np.maximum(u[:, 1], _U_FLOOR)
        return -np.log1p(-ue) / rates[idx]
    return sample_block(spec.inner, stream, n) / p[0]   # scaled


def moments(spec: DistributionSpec) -> tuple[float, float, float]:
    """Exact (mean, second moment, sup of finite moment orders); inf allowed."""
    k, p = spec.kind, spec.params
    if k == "exponential":
        rate = p[0]
        return 1.0 / rate, 2.0 / rate**2, math.inf
    if k == "deterministic":
        return p[0], p[0] ** 2, math.inf
    if k == "uniform":
        lo, hi = p
        return (lo + hi) / 2.0, (lo * lo + lo * hi + hi * hi) / 3.0, math.inf
    if k == "pareto":
        b = p[0]
        mean = b / (b - 1.0)
        second = b / (b - 2.0) if b > 2 else math.inf
        return mean, second, b
    if k == "hyperexponential":
        w, rates = mixture_weights(p), p[len(p) // 2:]
        mean = sum(wi / ri for wi, ri in zip(w, rates))
        second = sum(2.0 * wi / ri**2 for wi, ri in zip(w, rates))
        return mean, second, math.inf
    mean, second, alpha = moments(spec.inner)   # scaled
    r = p[0]
    return mean / r, second / r**2, alpha


def system_load(arrival: DistributionSpec, size: DistributionSpec) -> tuple[float, float]:
    """(rho, mu) of the queue: rho = E[B]/E[A], mu = E[A] - E[B]."""
    ea = moments(arrival)[0]
    eb = moments(size)[0]
    if eb >= ea:
        raise UnstableSystemError(
            f"unstable system: load E[size]/E[interarrival] = {eb}/{ea} >= 1")
    rho = eb / ea
    mu = ea * (1.0 - rho)
    return rho, mu


# --- compact text form (used by the CLI and config files) -------------------
#
#   exp:<mean>                       exponential with the given MEAN
#   det:<value>                      deterministic
#   uniform:<lo>,<hi>                uniform on (lo, hi)
#   pareto:<shape>                   Pareto, scale 1, support [1, inf)
#   hyperexp:<w1>,..,<wk>;<r1>,..,<rk>   mixture weights; component rates
#   scaled:<divisor>:<inner>         inner samples divided by divisor

def parse_spec(text: str) -> DistributionSpec:
    text = text.strip()
    kind, sep, rest = text.partition(":")
    kind = kind.lower()
    try:
        if kind in ("exp", "exponential"):
            return exponential_mean(float(rest))
        if kind in ("det", "deterministic"):
            return deterministic(float(rest))
        if kind == "uniform":
            lo, hi = (float(x) for x in rest.split(","))
            return uniform(lo, hi)
        if kind == "pareto":
            return pareto(float(rest))
        if kind in ("hyperexp", "hyperexponential"):
            wpart, _, rpart = rest.partition(";")
            w = [float(x) for x in wpart.split(",")]
            r = [float(x) for x in rpart.split(",")]
            return hyperexponential(w, r)
        if kind == "scaled":
            divisor, _, inner = rest.partition(":")
            return scaled(parse_spec(inner), float(divisor))
    except ParameterError:
        raise
    except ValueError as exc:
        raise ParameterError(f"cannot parse distribution {text!r}: {exc}") from None
    raise ParameterError(f"unknown distribution kind in {text!r}")


def format_spec(spec: DistributionSpec) -> str:
    k, p = spec.kind, spec.params
    if k == "exponential":
        return f"exp:{1.0 / p[0]!r}"
    if k == "deterministic":
        return f"det:{p[0]!r}"
    if k == "uniform":
        return f"uniform:{p[0]!r},{p[1]!r}"
    if k == "pareto":
        return f"pareto:{p[0]!r}"
    if k == "hyperexponential":
        m = len(p) // 2
        w = ",".join(repr(x) for x in p[:m])
        r = ",".join(repr(x) for x in p[m:])
        return f"hyperexp:{w};{r}"
    return f"scaled:{p[0]!r}:{format_spec(spec.inner)}"   # scaled
