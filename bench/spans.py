"""In-memory span tracing of blindq's layers, installed from outside the package.

A traced run replaces the module-level names through which blindq's modules
reach each other (for example ``blindq.cli.simulate`` or
``blindq.simulator.make_policy``) with wrappers that open a span, call the
original and close the span.  Nothing under ``src/`` is edited; ``traced()``
puts every original name back when it exits.

Each span name aggregates calls, busy seconds (the span's duration), self
seconds (duration minus the time its child spans cover) and items (jobs,
rows or samples handled, whatever the layer's unit of work is).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import blindq
import blindq.cli
import blindq.instance
import blindq.simulator


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


@dataclass
class SimCell:
    """Exact sums behind one (policy, load label) simulate cell."""
    sojourn_sum: float = 0.0
    busy_time: float = 0.0


class Tracer:
    """Span aggregates for one traced workload; ``label`` names the load of
    instances that carry no rho of their own (parsed or hand-built ones)."""

    def __init__(self, label: str):
        self.label = label
        self.spans: dict[str, SpanStats] = {}
        self.cells: dict[tuple[str, str], SimCell] = {}
        self._child_s: list[float] = []   # child time per open span

    @contextlib.contextmanager
    def span(self, name: str):
        self._child_s.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            child = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += dur
            st = self.spans.setdefault(name, SpanStats())
            st.calls += 1
            st.busy_s += dur
            st.self_s += dur - child

    def add_items(self, name: str, n: int) -> None:
        self.spans.setdefault(name, SpanStats()).items += int(n)

    def load_label(self, inst) -> str:
        rho = None if inst.meta is None else inst.meta.rho
        return self.label if rho is None else f"rho{round(rho * 100):02d}"

    # --- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, items=None):
        """fn inside a span; items(args, result) counts its unit of work."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if items is not None:
                self.add_items(name, items(args, out))
            return out
        return wrapper

    def wrap_simulate(self, fn):
        def wrapper(inst, policy, *args, **kwargs):
            load = self.load_label(inst)
            name = f"simulator.simulate.{policy}.{load}"
            with self.span(name):
                res = fn(inst, policy, *args, **kwargs)
            self.add_items(name, len(inst))
            cell = self.cells.setdefault((policy, load), SimCell())
            cell.sojourn_sum += float(res.sojourns.sum())
            cell.busy_time += sum(c.P for c in res.cycles)
            return res
        return wrapper


def _n_jobs(args, out):
    return len(out)


# (module, attribute, span name, item counter).  Each attribute is the name
# the calling module looks up at call time, so replacing it reroutes every
# call the workloads make into that layer.
_PLAIN = [
    (blindq.cli, "generate", "instance.generate", _n_jobs),
    (blindq.cli, "busy_periods", "instance.busy_periods", lambda a, o: len(a[0])),
    (blindq.cli, "parse", "instance.parse", _n_jobs),
    (blindq.cli, "serialize", "instance.serialize", lambda a, o: len(a[0])),
    (blindq.cli, "cycles_to_csv", "instance.cycles_to_csv", lambda a, o: len(a[0])),
    (blindq.cli, "jobs_to_csv", "simulator.jobs_to_csv", lambda a, o: a[0].n_jobs()),
    (blindq.cli, "sim_cycles_to_csv", "simulator.sim_cycles_to_csv",
     lambda a, o: len(a[0].cycles)),
    (blindq.cli, "summary_stats", "simulator.summary_stats", None),
    (blindq.cli, "regen_mean_sojourn", "estimators.regen_mean_sojourn", None),
    (blindq.cli, "tail_split", "estimators.tail_split", None),
    (blindq.cli, "holder_diagnostic", "estimators.holder_diagnostic", None),
    (blindq.cli, "functional_moment", "estimators.functional_moment", None),
    (blindq.cli, "exponent_fit", "estimators.exponent_fit", None),
    (blindq.cli, "ratio_curve", "estimators.ratio_curve", None),
    (blindq.instance, "make_stream", "distributions.make_stream", None),
    (blindq.instance, "sample_block", "distributions.sample_block", lambda a, o: len(o)),
    (blindq.simulator, "make_stream", "distributions.make_stream", None),
    (blindq.simulator, "make_policy", "policies.make_policy", None),
    (blindq, "busy_periods", "instance.busy_periods", lambda a, o: len(a[0])),
    (blindq, "brute_force_min_flow", "simulator.brute_force_min_flow",
     lambda a, o: len(a[0])),
]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route blindq's inter-module calls through tracer's wrappers."""
    saved = []
    try:
        for mod, attr, name, items in _PLAIN:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), items))
        for mod in (blindq.cli, blindq):
            saved.append((mod, "simulate", mod.simulate))
            mod.simulate = tracer.wrap_simulate(mod.simulate)
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
