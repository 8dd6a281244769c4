"""blindq benchmark: one command, every metric by name and unit.

    python3 bench/run.py --workload sweep-heavy|files-light|tiny-batch \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; blindq is imported from ./src.
The workload runs in a fresh worker process (bench/worker.py) that repeats
rounds of it until S seconds have been measured and checks every round's
outputs.  Before it, further fresh processes only set the workload up, so
that set-up time is a median too.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json, with --trace 1 its per-layer ones.  The lines before it
report machine facts, workload sizes, exact counts, failed_frac, sojourn
digests and, when traced, a per-(policy, load) simulate table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
SETUP_PROBES = 5       # set-up-only processes, besides the measuring one
DEADLINE_S = 170       # a run must end within 180 s


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_worker(args, workdir: str, env: dict, deadline: float, setup_only: bool):
    """(setup seconds, stdout lines) of one worker process."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir] + (["--setup-only"] if setup_only else [])
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:   # deadline or interrupt: never leave the worker running
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError("worker ran past the deadline") from None
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = out.splitlines()
    ready = [ln for ln in lines if ln.startswith("READY ")]
    if not ready:
        raise RuntimeError("worker never reported READY")
    return float(ready[0].split()[1]) - t0, lines


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "blindq", "__init__.py")):
        return fail(f"no blindq sources under {src}")

    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    deadline = start + DEADLINE_S
    try:
        setups = [run_worker(args, workdir, env, deadline, True)[0] for _ in range(SETUP_PROBES)]
        setup_s, lines = run_worker(args, workdir, env, deadline, False)
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(setup_s)
    result = json.loads(lines[-1])
    if not os.path.realpath(result["blindq_file"]).startswith(os.path.realpath(src)):
        return fail(f"imported blindq from {result['blindq_file']}, not {src}")

    metrics = dict(result["end_to_end"])
    metrics["setup_s"] = (statistics.median(setups), "s")
    counts = result["counts"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s measured, "
          f"trace {args.trace}")
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {result['numpy']}, git {git_sha()}")
    print(f"sizes: {result['sizes']}")
    print("one process per run, sweep --jobs 1: parallel scaling is not measured")
    for ln in result["lines"]:
        print(ln)
    print(f"failed_frac = {counts['failed'] / counts['attempted']!r} "
          f"({counts['failed']} of {counts['attempted']} operations)")
    print(f"setup_s samples ({len(setups)} fresh processes): "
          + ", ".join(f"{s:.4f}" for s in setups))
    gated = {m["name"] for m in spec["end_to_end"]}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}" + ("" if name in gated else "  (reported, not gated)"))

    kind = "per_layer" if args.trace else "end_to_end"
    values = result["per_layer"] if args.trace else metrics
    if args.trace:
        for name, (value, unit) in values.items():
            print(f"{name} = {value!r} {unit}")
    out = {}
    for m in spec[kind]:
        if m["name"] not in values:
            return fail(f"{m['name']} is in BENCHMARK.json but was not measured")
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            return fail(f"{m['name']}: unit {unit!r}, BENCHMARK.json says {m['unit']!r}")
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": counts["failed"] == 0, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
