"""Command-line front end.

Subcommands: simulate, sweep, verify, instance gen, instance cycles.

Distribution notation (also used in config files):
    exp:<mean>             exponential with the given mean
    det:<value>            deterministic
    uniform:<lo>,<hi>      uniform on (lo, hi), 0 < lo < hi
    pareto:<shape>         Pareto, scale 1, support [1, inf)
    hyperexp:<w1>,..;<r1>,..  hyperexponential (weights; rates)
    scaled:<r>:<inner>     inner samples divided by r in (0, 1)

Sweep config (INI):
    [system]   arrival, size                      distribution specs
    [sweep]    grid, policies, cycles, seed       r values / names / int / int
    [analysis] kappas, s, zeta                    moment orders / split params

A sweep config is UTF-8 INI text with only the sections and options above
(none under [DEFAULT]), checked in full, s and zeta against the size law
included, before any point runs or the output directory is made.

Every output is a pure function of (config, seed); timestamps appear only
inside a "meta" JSON field.  Each sweep point has one seed,
sha256(master:point) truncated to 63 bits, so it reruns independently.  It
seeds the point's one instance, generated once and run under every policy
(common random numbers), and the rmlf/ermlf factors, as in
`simulate --arrival ... --seed`.  A grid point is one task of the worker
pool, so a worker holds one instance at a time, and at most
min(--jobs, points) workers start; --jobs must be at least 1.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

from . import acceptance
from .distributions import (
    DistributionSpec,
    derive_seed,
    format_spec,
    moments,
    parse_spec,
    scaled,
    system_load,
)
from .errors import BlindqError, ParameterError
from .estimators import (
    AnalysisParams,
    exponent_fit,
    functional_moment,
    holder_diagnostic,
    ratio_curve,
    ratio_normaliser,
    regen_mean_sojourn,
    tail_split,
)
from .instance import busy_periods, cycles_to_csv, generate, parse, serialize, write_csv
from .simulator import (POLICY_NAMES, jobs_to_csv, make_policy, sim_cycles_to_csv,
                        simulate, summary_stats)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _jobs(args) -> int:
    """--jobs, else env BLINDQ_JOBS (empty counts as unset), else the CPU
    count; a value set by either must be an integer of at least 1."""
    source, value = "--jobs", args.jobs
    if value is None:
        source, value = "BLINDQ_JOBS", os.environ.get("BLINDQ_JOBS")
        if not value:
            return os.cpu_count() or 1
        try:
            value = int(value)
        except ValueError:
            raise ParameterError(f"BLINDQ_JOBS must be an integer, got {value!r}") from None
    if value < 1:
        raise ParameterError(f"{source} must be >= 1, got {value}")
    return value


def _check_out_dir(path: str) -> None:
    """Raise before any work if a file cannot be written at path: the
    directory it is to be written in (path's directory, the current one if
    path names none) is missing, or path is itself a directory."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ParameterError(f"output directory {folder!r} does not exist")
    if os.path.isdir(path):
        raise ParameterError(f"output path {path!r} is a directory")


def _write_json(path: str, obj) -> None:
    """obj as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(path: str, header: list[str], rows: list) -> None:
    """Rows written through write_csv, which takes columns."""
    write_csv(header, list(zip(*rows)) or [()] * len(header), path)


# --- simulate ----------------------------------------------------------------

def _load_instance(args):
    """The --instance file, given with no generation option, else _generate's."""
    given = [f"--{k}" for k in ("arrival", "size", "cycles") if getattr(args, k) is not None]
    if args.instance:
        if given:
            raise ParameterError(f"--instance cannot be given with {', '.join(given)}")
        return parse(args.instance)
    if not (args.arrival and args.size and args.cycles is not None):
        raise ParameterError("need either --instance or --arrival/--size/--cycles")
    return _generate(args)


def _generate(args):
    """generate on --arrival, --size, --cycles and --seed, once the load is
    known to be stable and the cycle count not negative."""
    arrival, size = parse_spec(args.arrival), parse_spec(args.size)
    system_load(arrival, size)   # raises on an unstable load
    if args.cycles < 0:
        raise ParameterError(f"--cycles must be >= 0, got {args.cycles}")
    return generate(arrival, size, args.cycles, seed=args.seed)


def cmd_simulate(args) -> int:
    paths = [f"{args.out}.{part}" for part in ("jobs.csv", "cycles.csv", "summary.json")]
    for path in paths:
        _check_out_dir(path)
    make_policy(args.policy)   # raises on an unknown name
    inst = _load_instance(args)
    result = simulate(inst, args.policy, seed=args.seed)
    summary = summary_stats(result)
    if len(result.cycles) >= 2:
        est = regen_mean_sojourn(result.cycles)
        summary["regen_mean_sojourn"] = {"point": est.point, "ci": est.ci_halfwidth,
                                         "cycles": est.cycles_used}
    summary["meta"] = {"created": _now()}
    jobs_path, cycles_path, summary_path = paths
    jobs_to_csv(result, jobs_path)
    sim_cycles_to_csv(result, cycles_path)
    _write_json(summary_path, summary)
    mean = summary["mean_sojourn"]   # None on an instance without jobs
    print(f"{result.policy}: {summary['jobs']} jobs, {summary['cycles']} cycles, "
          f"total flow {summary['total_flow']:.6g}, "
          f"mean sojourn {'n/a' if mean is None else format(mean, '.6g')}")
    print(f"wrote {', '.join(paths)}")
    return 0


# --- sweep -------------------------------------------------------------------

@dataclass
class SweepConfig:
    arrival: DistributionSpec
    size: DistributionSpec
    grid: list[float]
    policies: list[str]
    cycles: int
    seed: int
    kappas: list[float]
    params: AnalysisParams   # s and zeta, checked against the size law's alpha

    # The only options load accepts, by section; [DEFAULT] may hold none,
    # since configparser copies its keys into every section.
    OPTIONS = {"DEFAULT": (), "system": ("arrival", "size"),
               "sweep": ("grid", "policies", "cycles", "seed"), "analysis": ("kappas", "s", "zeta")}

    @classmethod
    def load(cls, path: str) -> "SweepConfig":
        cp = configparser.ConfigParser()
        try:
            if not cp.read(path, encoding="utf-8"):
                raise OSError(f"cannot read config file {path!r}")
            for section in cp:   # [DEFAULT] first
                if section not in cls.OPTIONS:
                    raise ValueError(f"unknown section [{section}]")
                for key in cp[section]:
                    if key not in cls.OPTIONS[section]:
                        raise ValueError(f"unknown option {key!r} in [{section}]")
            arrival = parse_spec(cp.get("system", "arrival"))
            size = parse_spec(cp.get("system", "size"))
            grid = [float(x) for x in cp.get("sweep", "grid").split(",") if x.strip()]
            policies = [p.strip().lower()
                        for p in cp.get("sweep", "policies").split(",") if p.strip()]
            cycles = cp.getint("sweep", "cycles")
            seed = cp.getint("sweep", "seed", fallback=0)
            kappas = [float(x) for x in cp.get("analysis", "kappas", fallback="1,2").split(",")
                      if x.strip()]
            split = {k: cp.getfloat("analysis", k) for k in ("s", "zeta")
                     if cp.has_option("analysis", k)}   # AnalysisParams holds the defaults
        except (configparser.Error, ValueError) as exc:
            raise ParameterError(f"bad sweep config: {exc}") from None
        params = AnalysisParams(alpha=moments(size)[2], **split)
        cfg = cls(arrival, size, grid, policies, cycles, seed, kappas, params)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not self.grid:
            raise ParameterError("sweep grid is empty")
        if any(not 0 < r < 1 for r in self.grid):
            raise ParameterError("grid values must lie in (0, 1)")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ParameterError("grid values must be strictly increasing")
        if not self.policies:
            raise ParameterError("no policies selected")
        for k, p in enumerate(self.policies):
            make_policy(p)   # raises on an unknown name
            if p in self.policies[:k]:
                raise ParameterError(f"policy {p!r} is listed more than once")
        if self.cycles < 100:
            raise ParameterError("cycles per point must be >= 100")
        if any(not 1 <= k < math.inf for k in self.kappas):
            raise ParameterError(f"kappas must be finite and >= 1, got {self.kappas}")
        if len({f"{k:g}" for k in self.kappas}) < len(self.kappas):   # fit keys
            raise ParameterError(f"kappas must differ in 6 significant digits, got {self.kappas}")
        for r in self.grid:   # every point's load: stable, a finite N0, a ratio normaliser
            rho = system_load(scaled(self.arrival, r), self.size)[0]
            self.params.n0(rho)
            ratio_normaliser(rho)
        above = [k for k in self.kappas if k > self.params.alpha]
        if above:
            warnings.warn(f"kappas {above} exceed alpha={self.params.alpha}, the size law's "
                          "finite moment order: their moments estimate no finite quantity",
                          RuntimeWarning, stacklevel=3)


def _sweep_point(task: tuple) -> dict:
    """One (grid point, policy) run, given as (checked config, point index,
    policy index, the point's instance, the point's seed)."""
    cfg, pi, qi, inst, seed = task
    policy = cfg.policies[qi]
    cycles = simulate(inst, policy, seed=seed).cycles
    rho = inst.meta.rho
    params = cfg.params
    est = regen_mean_sojourn(cycles)
    split = tail_split(cycles, rho, params)
    bound = holder_diagnostic(cycles, rho, params)
    mrows = []
    for kappa in cfg.kappas:
        for fn in ("P", "N"):
            m = functional_moment(cycles, fn, kappa)
            mrows.append((fn, kappa, m.point, m.ci_halfwidth, m.cycles_used))
    return {
        "point_index": pi,
        "policy_index": qi,
        "policy": policy,
        "r": cfg.grid[pi],
        "rho": rho,
        "mu": inst.meta.mu,
        "seed": seed,
        "cycles": len(cycles),
        "t_point": est.point,
        "t_ci": est.ci_halfwidth,
        "moments": mrows,
        "tail_small": split.small,
        "tail_large": split.large,
        "tail_threshold": split.threshold,
        "holder_bound": bound,
    }


def _sweep_grid_point(task: tuple) -> list[dict]:
    """Every policy's run at one grid point, in policy order, given as
    (checked config, point index); module-level so it pickles for workers.
    The point's one instance is generated here under the point's seed and
    run under every policy (common random numbers)."""
    cfg, pi = task
    seed = derive_seed(cfg.seed, pi)
    inst = generate(scaled(cfg.arrival, cfg.grid[pi]), cfg.size, cfg.cycles, seed=seed)
    return [_sweep_point((cfg, pi, qi, inst, seed)) for qi in range(len(cfg.policies))]


def cmd_sweep(args) -> int:
    jobs = _jobs(args)
    cfg = SweepConfig.load(args.config)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    for name in ("estimates.csv", "ratios.csv", "exponents.json", "summary.json"):
        _check_out_dir(os.path.join(outdir, name))
    points = acceptance.pmap(_sweep_grid_point, [(cfg, pi) for pi in range(len(cfg.grid))],
                             jobs)
    results = [d for runs in points for d in runs]

    estimates = []
    for d in results:
        estimates.append(("T", 1.0, d["rho"], d["t_point"], d["t_ci"], d["cycles"], d["policy"]))
        for fn, kappa, point, ci, ncyc in d["moments"]:
            estimates.append((fn, kappa, d["rho"], point, ci, ncyc, d["policy"]))
    _write_rows(os.path.join(outdir, "estimates.csv"),
                ["functional", "kappa", "rho", "point", "ci", "cycles", "policy"], estimates)

    columns = list(zip(*points))   # columns[qi]: policy qi's run at each point
    ratios = []
    if "srpt" in cfg.policies:
        srpt_pts = [(d["rho"], d["t_point"]) for d in columns[cfg.policies.index("srpt")]]
        for pol, column in zip(cfg.policies, columns):
            if pol == "srpt":
                continue
            pol_pts = [(d["rho"], d["t_point"]) for d in column]
            for row in ratio_curve(pol_pts, srpt_pts):
                ratios.append((row.rho, pol, row.t_policy, row.t_srpt, row.ratio, row.normalized))
    _write_rows(os.path.join(outdir, "ratios.csv"),
                ["rho", "policy", "t_policy", "t_srpt", "ratio", "normalized"], ratios)

    # Busy-period functionals are policy independent, and every policy at a
    # point runs on the same instance; fit on the first policy's rows.
    fits = {}
    if len(cfg.grid) >= 3:
        for j, (fn, kappa, *_) in enumerate(columns[0][0]["moments"]):
            fit = exponent_fit([(d["rho"], d["moments"][j][2]) for d in columns[0]])
            fits[f"{fn}^{kappa:g}"] = {"slope": fit.slope, "stderr": fit.stderr,
                                       "intercept": fit.intercept,
                                       "target": 1.0 - 2.0 * kappa}
    _write_json(os.path.join(outdir, "exponents.json"), {"fits": fits, "policy": cfg.policies[0]})

    summary = {
        "config": {
            "arrival": format_spec(cfg.arrival),
            "size": format_spec(cfg.size),
            "grid": cfg.grid,
            "policies": cfg.policies,
            "cycles": cfg.cycles,
            "seed": cfg.seed,
            "kappas": cfg.kappas,
            "s": cfg.params.s,
            "zeta": cfg.params.zeta,
        },
        "points": [{k: v for k, v in d.items() if k != "moments"} for d in results],
        "meta": {"created": _now()},
    }
    _write_json(os.path.join(outdir, "summary.json"), summary)
    print(f"sweep complete: {len(cfg.grid)} points x {len(cfg.policies)} policies "
          f"-> {outdir}/")
    return 0


# --- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    jobs = _jobs(args)
    if args.report:
        _check_out_dir(args.report)
    results = acceptance.run_all(profile=args.profile, seed=args.seed, jobs=jobs,
                                 progress=lambda s: print(s, flush=True))
    report = {
        "profile": args.profile,
        "seed": args.seed,
        "criteria": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
        "meta": {"created": _now()},
    }
    if args.report:
        _write_json(args.report, report)
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if report["all_passed"] else 1


# --- instance utilities --------------------------------------------------------

def cmd_instance_gen(args) -> int:
    _check_out_dir(args.out)
    inst = _generate(args)
    serialize(inst, args.out)
    print(f"wrote {len(inst)} jobs ({args.cycles} cycles) to {args.out}")
    return 0


def cmd_instance_cycles(args) -> int:
    if args.out:
        _check_out_dir(args.out)
    inst = parse(args.infile)
    cycles = busy_periods(inst)
    text = cycles_to_csv(cycles, args.out)
    if args.out:
        print(f"wrote {len(cycles)} cycles to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blindq",
        description="Preemptive single-server queue simulation: blind "
                    "multilevel-feedback policies vs SRPT and classical baselines.")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one policy on one instance")
    sim.add_argument("--instance", help="instance file (blindq-instance v1)")
    sim.add_argument("--arrival", help="interarrival spec, e.g. exp:1.25")
    sim.add_argument("--size", help="job size spec, e.g. exp:1")
    sim.add_argument("--cycles", type=int, help="busy periods to generate")
    sim.add_argument("--policy", required=True,
                     help="one of " + " | ".join(POLICY_NAMES))
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default="simout", help="output file prefix")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="heavy-traffic sweep from a config file")
    sw.add_argument("--config", required=True, help="INI config, see module help")
    sw.add_argument("--out", default="sweep_out", help="output directory")
    sw.add_argument("--jobs", type=int, default=None,
                    help="parallel workers (default: BLINDQ_JOBS or cpu count)")
    sw.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="run the acceptance suite")
    ver.add_argument("--profile", choices=tuple(acceptance.PROFILES), default="quick")
    ver.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    ver.add_argument("--jobs", type=int, default=None)
    ver.add_argument("--report", help="write JSON verdicts here")
    ver.set_defaults(func=cmd_verify)

    instp = sub.add_parser("instance", help="instance file utilities")
    isub = instp.add_subparsers(dest="subcommand", required=True)
    gen = isub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--arrival", required=True)
    gen.add_argument("--size", required=True)
    gen.add_argument("--cycles", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_instance_gen)
    cyc = isub.add_parser("cycles", help="busy-period decomposition to CSV")
    cyc.add_argument("--in", dest="infile", required=True)
    cyc.add_argument("--out", default=None)
    cyc.set_defaults(func=cmd_instance_cycles)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()   # once per process: parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (BlindqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
