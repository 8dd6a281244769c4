"""One benchmark process: set up a workload, run its rounds, check them.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only] --workdir DIR

Prints ``READY <time.monotonic()>`` once blindq is imported and the first
round's inputs are built, then (unless --setup-only) runs rounds until their
summed wall time reaches S seconds and prints one JSON line with the
results.  run.py starts this process; see it for the metrics' meaning.

With --trace 1 the rounds come in pairs on the same inputs, one untraced and
one traced, alternating which goes first; end-to-end figures come from the
untraced rounds and per-layer figures from the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time

import numpy as np

import blindq

import spans
import workloads


def _null_span(name):
    return contextlib.nullcontext()


def run_rounds(wl, seconds: float, trace: bool, first_inputs=None):
    """(untraced rounds, traced rounds, tracer or None)."""
    tracer = spans.Tracer(wl.label) if trace else None
    plain, traced = [], []
    measured = 0.0
    k = 0
    while k == 0 or measured < seconds:
        inp = first_inputs if k == 0 and first_inputs is not None else wl.prepare(k)
        order = (False, True) if k % 2 == 0 else (True, False)
        for with_trace in (order if trace else (False,)):
            if with_trace:
                with spans.traced(tracer):
                    t0 = time.perf_counter()
                    out = wl.run(inp, tracer.span)
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = wl.run(inp, _null_span)
                wall = time.perf_counter() - t0
            res = wl.check(inp, out)
            res.wall_s = wall
            measured += wall
            (traced if with_trace else plain).append(res)
        k += 1
    return plain, traced, tracer


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def time_to_1pct(rounds) -> float:
    """Host seconds to bring every estimate to +-1%: a round's wall time
    times the largest factor by which an estimate's sample must grow,
    each taken as a median over rounds."""
    keys = set().union(*(r.growth for r in rounds))
    growth = max((_median([r.growth[k] for r in rounds if k in r.growth]) for k in keys),
                 default=math.nan)
    return _median([r.wall_s for r in rounds]) * growth


def end_to_end(rounds) -> dict:
    lat = [ms for r in rounds for ms in r.op_ms] or [math.nan]
    return {
        "jobs_per_s": (_median([r.jobs / r.wall_s for r in rounds]), "jobs/s"),
        "time_to_1pct_s": (time_to_1pct(rounds), "s"),
        "op_p50_ms": (float(np.percentile(lat, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(lat, 90)), "ms"),
        "op_p99_ms": (float(np.percentile(lat, 99)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LOADS = ("rho50", "rho85", "rho90", "rho95")
ROWS = ("simulator.jobs_to_csv", "simulator.sim_cycles_to_csv",
        "instance.cycles_to_csv", "instance.serialize", "instance.parse")
BUSY = ("distributions.make_stream", "distributions.sample_block",
        "policies.make_policy", "instance.generate", "instance.busy_periods",
        "simulator.simulate", "simulator.brute_force_min_flow") + ROWS + tuple(
    f"estimators.{fn}" for fn in ("regen_mean_sojourn", "tail_split",
                                  "holder_diagnostic", "functional_moment",
                                  "exponent_fit"))
TOP = ("cli.sweep", "cli.instance_gen", "cli.instance_cycles", "cli.simulate",
       "batch.instance")


def per_layer(tracer, plain, traced) -> dict:
    sp = tracer.spans
    wall = sum(r.wall_s for r in traced)

    def total(prefix):
        """(calls, busy_s, items) over span names equal to or under prefix."""
        c = b = n = 0
        for name, st in sp.items():
            if name == prefix or name.startswith(prefix + "."):
                c, b, n = c + st.calls, b + st.busy_s, n + st.items
        return c, b, n

    def rate(num, den):
        return num / den if den > 0 else 0.0

    out = {}
    for pol in workloads.POLICIES:
        calls, busy, jobs = total(f"simulator.simulate.{pol}")
        out[f"simulator.simulate.{pol}.jobs_per_s"] = (rate(jobs, busy), "jobs/s")
        out[f"simulator.simulate.{pol}.calls_per_s"] = (rate(calls, busy), "calls/s")
        for load in LOADS:
            _, busy, jobs = total(f"simulator.simulate.{pol}.{load}")
            cell = tracer.cells.get((pol, load))
            out[f"simulator.simulate.{pol}.{load}.jobs_per_s"] = (rate(jobs, busy), "jobs/s")
            out[f"simulator.simulate.{pol}.{load}.mean_in_system"] = (
                rate(cell.sojourn_sum, cell.busy_time) if cell else 0.0, "jobs")
    for name in ROWS:
        _, busy, rows = total(name)
        out[f"{name}.rows_per_s"] = (rate(rows, busy), "rows/s")
    for name in BUSY:
        out[f"{name}.busy_frac"] = (rate(total(name)[1], wall), "frac")
    _, busy, gen_jobs = total("instance.generate")
    out["instance.generate.jobs_per_s"] = (rate(gen_jobs, busy), "jobs/s")
    # generate keeps one interarrival and one size per job from its blocks
    out["distributions.sample_block.used_frac"] = (
        rate(2 * gen_jobs, total("distributions.sample_block")[2]), "frac")
    top_busy = sum(sp[n].busy_s for n in TOP if n in sp)
    top_self = sum(sp[n].self_s for n in TOP if n in sp)
    out["cli.self_frac"] = (rate(top_self, wall), "frac")
    out["trace.covered_frac"] = (rate(top_busy, wall), "frac")
    # Paired rounds ran the same inputs, so the wall ratio is the rate ratio.
    ratios = [p.wall_s / t.wall_s for p, t in zip(plain, traced)]
    out["trace_overhead_frac"] = (1.0 - _median(ratios), "frac")
    return out


def load_table(tracer) -> list[str]:
    """Per-(policy, load) simulate rates, with jobs and mean number in system."""
    loads = [ld for ld in LOADS if any((p, ld) in tracer.cells for p in workloads.POLICIES)]
    if not loads:
        return []
    lines = ["simulate jobs/s by load (traced rounds; jobs simulated, "
             "mean number in system L):",
             "| rho  | " + " | ".join(workloads.POLICIES) + " |",
             "|------|" + "|".join("-" * (len(p) + 2) for p in workloads.POLICIES) + "|"]
    for ld in loads:
        cells = []
        for pol in workloads.POLICIES:
            st = tracer.spans.get(f"simulator.simulate.{pol}.{ld}")
            cell = tracer.cells.get((pol, ld))
            if st is None or cell is None:
                cells.append("-")
                continue
            cells.append(f"{st.items / st.busy_s / 1e3:.0f}k ({st.items} jobs, "
                         f"L={cell.sojourn_sum / cell.busy_time:.3g})")
        lines.append(f"| 0.{ld[3:]} | " + " | ".join(cells) + " |")
    return lines


def summarise(plain, traced, tracer) -> dict:
    rounds = plain + traced
    first = plain[0]
    counts = {key: sum(getattr(r, key) for r in rounds)
              for key in ("jobs", "cycles", "simulate_calls", "attempted", "failed")}
    lines = [f"rounds: {len(plain)} untraced" + (f" + {len(traced)} traced" if traced else ""),
             "counts (all rounds): " + ", ".join(f"{k}={v}" for k, v in counts.items()),
             f"operation latency samples: {sum(len(r.op_ms) for r in plain)}",
             "sojourn digest per policy (round 0, not gated): "
             + ", ".join(f"{p}={d}" for p, d in first.digests.items())]
    for r in rounds:
        lines.extend(f"FAILED: {f}" for f in r.failures[:5])
    result = {"counts": counts, "lines": lines,
              "end_to_end": end_to_end(plain)}
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, plain, traced)
        lines.extend(load_table(tracer))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    first = wl.prepare(0)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0
    plain, traced, tracer = run_rounds(wl, args.seconds, bool(args.trace), first)
    result = summarise(plain, traced, tracer)
    result["sizes"] = wl.sizes
    result["blindq_file"] = blindq.__file__
    result["numpy"] = np.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
