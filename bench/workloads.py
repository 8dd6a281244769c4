"""The three benchmark workloads.

Each workload is replicated in rounds.  Round k draws its inputs from a seed
derived from (workload seed, k), so a run is a pure function of its seed and
of how many rounds fit in the measured time.  A round has three phases:

    prepare(k)        build the round's inputs            (not timed)
    run(inp, span)    call blindq's public entry points   (timed)
    check(inp, out)   verify outputs, count work          (not timed)

``span(name)`` is a context manager around each top-level operation: a
no-op in untraced rounds, a tracer span in traced ones.  Every workload
runs in one process; the sweep uses ``--jobs 1``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import blindq
import blindq.cli

POLICIES = ("srpt", "fifo", "ps", "fb", "mlf", "rmlf", "ermlf")
BLIND = POLICIES[1:]
EXACT_TOL = 1e-9      # the acceptance suite's tolerance for exact identities
SPLIT_TOL = 1e-12     # criterion 11: tail split reconstructs the mean


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class RoundResult:
    wall_s: float = 0.0
    jobs: int = 0
    cycles: int = 0
    simulate_calls: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)   # latency of each operation
    # estimate -> (CI half-width / 1% of the point estimate)^2: the factor by
    # which the round's sample must grow to bring that estimate to +-1%
    growth: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)  # policy -> sojourn digest

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


def _cli(argv) -> tuple[int, str]:
    """blindq.cli.main in-process, its stdout captured.  An exception that
    escapes the CLI is a failed operation, reported as exit code -1 with
    the exception as output; the benchmark keeps running."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = blindq.cli.main(argv)
    except Exception:
        return -1, traceback.format_exc().splitlines()[-1]
    return code, buf.getvalue()


class SweepHeavy:
    """`blindq sweep --jobs 1`: M/M/1 at r = 0.85, 0.9, 0.95, all seven
    policies.  Heavy traffic, where queue length sets the cost per event."""

    name = "sweep-heavy"
    label = "rho"          # sweep instances carry their own rho
    GRID = (0.85, 0.9, 0.95)
    CYCLES = 300           # per (point, policy)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.sizes = (f"{len(self.GRID)} points x {len(POLICIES)} policies x "
                      f"{self.CYCLES} cycles per round, exp:1/exp:1, sweep --jobs 1")

    def prepare(self, k: int) -> dict:
        seed = derive_seed(self.seed, f"{self.name}:{k}")
        config = os.path.join(self.workdir, "sweep.ini")
        with open(config, "w") as fh:
            fh.write("[system]\narrival = exp:1\nsize = exp:1\n"
                     f"[sweep]\ngrid = {','.join(map(str, self.GRID))}\n"
                     f"policies = {','.join(POLICIES)}\n"
                     f"cycles = {self.CYCLES}\nseed = {seed}\n")
        return {"config": config, "out": os.path.join(self.workdir, "sweep_out")}

    def run(self, inp: dict, span) -> dict:
        # Each (point, policy) is one operation; time it where cmd_sweep
        # calls it.  With --jobs 1 the call goes through this module global.
        lat = []
        point = blindq.cli._sweep_point

        def timed_point(payload):
            t0 = time.perf_counter()
            try:
                return point(payload)
            finally:
                lat.append((time.perf_counter() - t0) * 1e3)

        blindq.cli._sweep_point = timed_point
        try:
            with span("cli.sweep"):
                code, text = _cli(["sweep", "--config", inp["config"],
                                   "--out", inp["out"], "--jobs", "1"])
        finally:
            blindq.cli._sweep_point = point
        return {"code": code, "text": text, "op_ms": lat}

    def check(self, inp: dict, out: dict) -> RoundResult:
        res = RoundResult(op_ms=out["op_ms"])
        n_ops = len(self.GRID) * len(POLICIES)
        res.attempted = n_ops
        if out["code"] != 0:
            for _ in range(n_ops):
                res.fail(f"sweep exited {out['code']}: {out['text'][-200:]}")
            return res
        with open(os.path.join(inp["out"], "summary.json")) as fh:
            points = json.load(fh)["points"]
        jobs = {}
        with open(os.path.join(inp["out"], "estimates.csv")) as fh:
            for row in csv.DictReader(fh):
                if row["functional"] == "N" and float(row["kappa"]) == 1.0:
                    # mean cycle arrivals x cycles = jobs, exact up to rounding
                    key = (float(row["rho"]), row["policy"])
                    jobs[key] = round(float(row["point"]) * int(row["cycles"]))
        seen = set()
        for p in points:
            key = (p["rho"], p["policy"])
            vals = (p["t_point"], p["t_ci"], p["tail_small"], p["tail_large"])
            resid = abs(p["tail_small"] + p["tail_large"] - p["t_point"])
            if key in seen or not all(math.isfinite(v) for v in vals) \
                    or key not in jobs or resid > SPLIT_TOL * abs(p["t_point"]):
                res.fail(f"point {key}: values {vals}, split residual {resid}")
                continue
            seen.add(key)
            res.jobs += jobs[key]
            res.cycles += p["cycles"]
            res.simulate_calls += 1
            res.growth[key] = (p["t_ci"] / (0.01 * p["t_point"])) ** 2
        missing = n_ops - len(seen) - res.failed
        for _ in range(max(0, missing)):
            res.fail("sweep point missing from summary.json")
        for pol in POLICIES:
            res.digests[pol] = _digest(
                (p["rho"], p["t_point"], p["t_ci"], p["tail_small"], p["tail_large"])
                for p in points if p["policy"] == pol)
        return res


class FilesLight:
    """A file-based CLI session at rho = 0.5: instance gen, instance cycles,
    then simulate --instance for each policy.  Short queues, so the generic
    event loop, instance file I/O and the CSV exports do most of the work."""

    name = "files-light"
    label = "rho50"        # parsed instance files carry no rho
    CYCLES = 8000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.sizes = (f"{self.CYCLES} cycles per round (~{2 * self.CYCLES} jobs), "
                      f"exp:2/exp:1, {2 + len(POLICIES)} CLI commands per round")

    def prepare(self, k: int) -> dict:
        return {"seed": derive_seed(self.seed, f"{self.name}:{k}"),
                "inst": os.path.join(self.workdir, "inst.txt"),
                "prefix": os.path.join(self.workdir, "run")}

    def run(self, inp: dict, span) -> dict:
        s = str(inp["seed"])
        cmds = [("cli.instance_gen", ["instance", "gen", "--arrival", "exp:2",
                                      "--size", "exp:1", "--cycles", str(self.CYCLES),
                                      "--seed", s, "--out", inp["inst"]]),
                ("cli.instance_cycles", ["instance", "cycles", "--in", inp["inst"]])]
        cmds += [("cli.simulate", ["simulate", "--instance", inp["inst"], "--policy", pol,
                                   "--seed", s, "--out", f"{inp['prefix']}.{pol}"])
                 for pol in POLICIES]
        codes, lat, cycles_text = [], [], ""
        for name, argv in cmds:
            t0 = time.perf_counter()
            with span(name):
                code, text = _cli(argv)
            lat.append((time.perf_counter() - t0) * 1e3)
            codes.append(code)
            if argv[1] == "cycles":
                cycles_text = text
        return {"codes": codes, "op_ms": lat, "cycles_csv": cycles_text}

    def check(self, inp: dict, out: dict) -> RoundResult:
        res = RoundResult(op_ms=out["op_ms"])
        res.attempted = len(out["codes"])
        gen_code, cyc_code, *sim_codes = out["codes"]
        for name, code in (("instance gen", gen_code), ("instance cycles", cyc_code)):
            if code != 0:
                res.fail(f"{name} exited {code}")
        ref = [(int(r["N"]), float(r["P"]))
               for r in csv.DictReader(io.StringIO(out["cycles_csv"]))]
        summaries = {}
        for pol, code in zip(POLICIES, sim_codes):
            prefix = f"{inp['prefix']}.{pol}"
            if code != 0:
                res.fail(f"simulate {pol} exited {code}")
                continue
            with open(f"{prefix}.summary.json") as fh:
                summ = json.load(fh)
            with open(f"{prefix}.cycles.csv") as fh:
                got = [(int(r["N"]), float(r["P"])) for r in csv.DictReader(fh)]
            with open(f"{prefix}.jobs.csv", "rb") as fh:
                res.digests[pol] = _digest([fh.read()])
            # C7: busy periods do not depend on the policy.
            if len(got) != len(ref) or any(
                    n != rn or abs(p - rp) > EXACT_TOL * max(1.0, rp)
                    for (n, p), (rn, rp) in zip(got, ref)):
                res.fail(f"simulate {pol}: cycles.csv differs from instance cycles")
                continue
            summaries[pol] = summ
        # C6: SRPT minimises total flow on the shared instance.
        if "srpt" in summaries:
            srpt = summaries["srpt"]["total_flow"]
            for pol in BLIND:
                if pol in summaries and srpt - summaries[pol]["total_flow"] \
                        > EXACT_TOL * max(1.0, srpt):
                    res.fail(f"srpt total flow {srpt} above {pol}'s")
                    summaries.pop(pol)
        for pol, summ in summaries.items():
            res.jobs += summ["jobs"]
            res.cycles += summ["cycles"]
            res.simulate_calls += 1
            est = summ["regen_mean_sojourn"]
            res.growth[pol] = (est["ci"] / (0.01 * est["point"])) ** 2
        return res


def tiny_instance(rng: np.random.Generator) -> blindq.Instance:
    """1-40 jobs with the acceptance suite's C6-C9 shapes: exponential gaps;
    uniform, exponential or Pareto sizes; a quarter capped below 2 with one
    small job, as in the scaling-coupling criterion."""
    n = int(rng.integers(1, 41))
    gaps = rng.exponential(1.0, n)
    releases = np.cumsum(gaps) - gaps[0]
    style = rng.integers(0, 3)
    if style == 0:
        sizes = rng.uniform(0.05, 3.0, n)
    elif style == 1:
        sizes = rng.exponential(1.0, n) + 0.01
    else:
        sizes = rng.pareto(2.5, n) + 0.05
    if rng.integers(0, 4) == 0:
        sizes = np.minimum(sizes, 1.95)
        sizes[rng.integers(0, n)] = rng.uniform(0.01, 1.5)
    return blindq.Instance(releases, sizes)


class TinyBatch:
    """Library calls on many tiny instances, as the acceptance suite makes
    them: busy_periods, simulate under every policy, and the brute-force
    oracle on instances of at most 4 jobs.  Per-call set-up dominates."""

    name = "tiny-batch"
    label = "tiny"
    INSTANCES = 250
    BF_MAX_JOBS = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.sizes = (f"{self.INSTANCES} instances of 1-40 jobs per round, "
                      f"brute force on <= {self.BF_MAX_JOBS} jobs")

    def prepare(self, k: int) -> list:
        rng = np.random.default_rng(derive_seed(self.seed, f"{self.name}:{k}"))
        return [tiny_instance(rng) for _ in range(self.INSTANCES)]

    def run(self, insts: list, span) -> dict:
        outs, lat = [], []
        for i, inst in enumerate(insts):
            t0 = time.perf_counter()
            try:
                with span("batch.instance"):
                    ref = blindq.busy_periods(inst)
                    sims = {pol: blindq.simulate(inst, pol, seed=i) for pol in POLICIES}
                    opt = (blindq.brute_force_min_flow(inst)
                           if len(inst) <= self.BF_MAX_JOBS else None)
            except Exception:   # a failed operation; the batch goes on
                outs.append(traceback.format_exc().splitlines()[-1])
                continue
            lat.append((time.perf_counter() - t0) * 1e3)
            outs.append((ref, sims, opt))
        return {"outs": outs, "op_ms": lat}

    def check(self, insts: list, out: dict) -> RoundResult:
        res = RoundResult(op_ms=out["op_ms"])
        ratios = {pol: [] for pol in BLIND}
        sojourns = {pol: [] for pol in POLICIES}
        for i, (inst, got) in enumerate(zip(insts, out["outs"])):
            if isinstance(got, str):
                res.attempted += len(POLICIES)
                for pol in POLICIES:
                    res.fail(f"instance {i} {pol}: raised {got}")
                continue
            ref, sims, opt = got
            srpt = sims["srpt"].total_flow()
            for pol, sim in sims.items():
                res.attempted += 1
                sojourns[pol].append(sim.sojourns.tobytes())
                # C7: the simulator's busy periods match the workload recursion.
                if len(sim.cycles) != len(ref) or any(
                        c.N != r.N or abs(c.start - r.start) > EXACT_TOL
                        or abs(c.end - r.end) > EXACT_TOL
                        for c, r in zip(sim.cycles, ref)):
                    res.fail(f"instance {i} {pol}: cycles differ from busy_periods")
                    continue
                flow = sim.total_flow()
                if pol == "srpt":
                    if opt is not None and abs(srpt - opt) > EXACT_TOL:
                        res.fail(f"instance {i}: srpt {srpt} != brute force {opt}")
                        continue
                elif srpt - flow > EXACT_TOL * max(1.0, srpt):   # C6
                    res.fail(f"instance {i}: srpt {srpt} above {pol} {flow}")
                    continue
                else:
                    ratios[pol].append(flow / srpt)
                res.jobs += len(inst)
                res.cycles += len(sim.cycles)
                res.simulate_calls += 1
        # The batch estimates each blind policy's mean flow ratio to SRPT.
        for pol, vals in ratios.items():
            if len(vals) >= 2:
                v = np.array(vals)
                hw = 1.96 * float(v.std(ddof=1)) / math.sqrt(v.size)
                res.growth[pol] = (hw / (0.01 * float(v.mean()))) ** 2
        res.digests = {pol: _digest(parts) for pol, parts in sojourns.items()}
        return res


WORKLOADS = {w.name: w for w in (SweepHeavy, FilesLight, TinyBatch)}
