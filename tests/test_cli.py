import ast
import concurrent.futures
import csv
import gc
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import blindq as bq
import blindq.cli
from blindq import acceptance
from blindq.cli import derive_seed, main


TWO_JOBS_TEXT = "# blindq-instance v1\n0 3\n1 1\n"


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_meta(obj):
    obj = dict(obj)
    obj.pop("meta", None)
    return obj


class TestSimulateCommand:
    def test_instance_file_srpt(self, tmp_path, capsys):
        inst_file = tmp_path / "two_jobs.txt"
        inst_file.write_text(TWO_JOBS_TEXT)
        out = tmp_path / "run"
        rc = main(["simulate", "--instance", str(inst_file), "--policy", "srpt",
                   "--out", str(out)])
        assert rc == 0
        summary = read_json(f"{out}.summary.json")
        assert summary["total_flow"] == 5.0
        assert "srpt" in capsys.readouterr().out

    def _check_empty_run(self, out, capsys):
        summary = read_json(f"{out}.summary.json")
        assert (summary["jobs"], summary["cycles"], summary["mean_sojourn"]) == (0, 0, None)
        for suffix in (".jobs.csv", ".cycles.csv"):
            with open(f"{out}{suffix}") as fh:
                assert len(fh.read().splitlines()) == 1   # header only
        assert "0 jobs, 0 cycles" in capsys.readouterr().out

    def test_empty_instance_file(self, tmp_path, capsys):
        inst_file = tmp_path / "empty.txt"
        inst_file.write_text("# blindq-instance v1\n")
        out = tmp_path / "run"
        assert main(["simulate", "--instance", str(inst_file), "--policy", "srpt",
                     "--out", str(out)]) == 0
        self._check_empty_run(out, capsys)

    def test_zero_cycles(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--arrival", "exp:1.25", "--size", "exp:1",
                     "--cycles", "0", "--policy", "ps", "--out", str(out)]) == 0
        self._check_empty_run(out, capsys)

    def test_generated_run_is_deterministic(self, tmp_path):
        args = ["simulate", "--arrival", "exp:1.25", "--size", "exp:1",
                "--cycles", "300", "--policy", "fifo", "--seed", "7"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for suffix in (".jobs.csv", ".cycles.csv"):
            assert (tmp_path / f"a{suffix}").read_bytes() == \
                   (tmp_path / f"b{suffix}").read_bytes()
        assert strip_meta(read_json(f"{out1}.summary.json")) == \
               strip_meta(read_json(f"{out2}.summary.json"))


SWEEP_CONFIG = """
[system]
arrival = exp:1
size = exp:1

[sweep]
grid = 0.5, 0.8
policies = srpt, rmlf
cycles = 400
seed = 11

[analysis]
kappas = 1, 2
s = 1.5
zeta = 15
"""


def sweep_text(text=SWEEP_CONFIG, **edits):
    """text with the line of each edited option set to its value, or
    dropped for None."""
    for key, value in edits.items():
        line = next(x for x in text.splitlines() if x.startswith(f"{key} = "))
        text = text.replace(line + "\n", "" if value is None else f"{key} = {value}\n")
    return text


def run_sweep(tmp_path, text=SWEEP_CONFIG, out="o", jobs="1"):
    """The output directory of a sweep on text, which must succeed."""
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / out), "--jobs", jobs]) == 0
    return tmp_path / out


class TestSweepCommand:
    def test_cardinality_contract(self, tmp_path):
        outdir = run_sweep(tmp_path)
        with open(outdir / "estimates.csv") as fh:
            rows = list(csv.DictReader(fh))
        t_rows = [r for r in rows if r["functional"] == "T"]
        assert len(t_rows) == 4            # 2 grid points x 2 policies
        with open(outdir / "ratios.csv") as fh:
            ratio_rows = list(csv.DictReader(fh))
        assert len(ratio_rows) == 2        # rmlf vs srpt at 2 points
        summary = read_json(outdir / "summary.json")
        assert len(summary["points"]) == 4
        # the Example Model: scaling interarrivals by r gives load r
        assert {round(p["rho"], 10) for p in summary["points"]} == {0.5, 0.8}

    def test_blind_policy_covers_conway_value(self, tmp_path):
        outdir = run_sweep(tmp_path, sweep_text(policies="fifo", grid="0.5", cycles="20000"))
        with open(outdir / "estimates.csv") as fh:
            t_row = next(r for r in csv.DictReader(fh) if r["functional"] == "T")
        assert abs(float(t_row["point"]) - 2.0) <= float(t_row["ci"])

    def test_partial_analysis_section_keeps_other_default(self, tmp_path):
        # a key the config leaves out takes AnalysisParams' default
        out = run_sweep(tmp_path, sweep_text(s=None, zeta="16"))
        config = read_json(out / "summary.json")["config"]
        assert (config["s"], config["zeta"]) == (bq.AnalysisParams().s, 16.0)

    def test_kappa_above_alpha_warns_once(self, tmp_path, monkeypatch):
        # an empirical moment of order kappa > alpha is finite but estimates
        # no finite quantity: the config check warns once, before any point
        # runs, and the points themselves warn no more
        text = sweep_text(size="pareto:2.5", arrival="exp:4", kappas="1, 3", s="1.8", zeta="40")
        real = blindq.cli._sweep_grid_point
        warned_at_point = []

        def point(task):
            warned_at_point.append(len(record))
            return real(task)

        monkeypatch.setattr(blindq.cli, "_sweep_grid_point", point)
        with pytest.warns(RuntimeWarning, match=r"kappas \[3.0\] exceed alpha=2.5,") as record:
            run_sweep(tmp_path, text)
        assert len(record) == 1
        assert warned_at_point == [1, 1]

    def test_points_sample_the_configured_laws(self, tmp_path):
        # these weights move by one ulp when re-parsed from their text form;
        # every point still has the load of the specs parsed from the config
        size = "hyperexp:0.01,0.01,0.08;3,2,1"
        out = run_sweep(tmp_path, sweep_text(size=size))
        arrival, law = bq.parse_spec("exp:1"), bq.parse_spec(size)
        for p in read_json(out / "summary.json")["points"]:
            assert (p["rho"], p["mu"]) == bq.system_load(bq.scaled(arrival, p["r"]), law)

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = run_sweep(tmp_path, out="o1"), run_sweep(tmp_path, out="o2", jobs="2")
        for name in ("estimates.csv", "ratios.csv", "exponents.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert strip_meta(read_json(out1 / "summary.json")) == \
               strip_meta(read_json(out2 / "summary.json"))

    def test_policies_share_each_point_instance(self, tmp_path):
        # every policy at a point runs on one instance under one seed, so
        # the per-cycle N, and so every N moment, is the same for all
        out = run_sweep(tmp_path, sweep_text(policies="srpt, fifo, ps, fb, mlf, rmlf, ermlf"))
        with open(out / "estimates.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["functional"] == "N"]
        by_point = {}
        for r in rows:
            by_point.setdefault(r["rho"], set()).add((r["kappa"], r["point"], r["ci"], r["cycles"]))
        assert len(by_point) == 2
        assert all(len(moments) == 2 for moments in by_point.values())   # one per kappa
        points = read_json(out / "summary.json")["points"]
        for pi in (0, 1):
            at = [p for p in points if p["point_index"] == pi]
            assert len(at) == 7
            assert {p["seed"] for p in at} == {derive_seed(11, pi)}

    def test_one_instance_per_point(self, tmp_path, monkeypatch):
        # --jobs 1 generates each point once, and the previous point's
        # instance is gone before the next one is generated
        def alive():
            gc.collect()
            return sum(isinstance(o, bq.Instance) for o in gc.get_objects())

        real = blindq.cli.generate
        alive_at_call = []

        def counted(*args, **kwargs):
            alive_at_call.append(alive() - before)
            return real(*args, **kwargs)

        monkeypatch.setattr(blindq.cli, "generate", counted)
        before = alive()
        run_sweep(tmp_path, sweep_text(grid="0.5, 0.7, 0.8"))
        assert alive_at_call == [0, 0, 0]
        assert alive() == before

    def test_each_point_generated_once_in_parallel(self, tmp_path, monkeypatch):
        # workers forked after the patch inherit it, and each appends a line
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the patched generate only under fork")
        real = blindq.cli.generate
        log = tmp_path / "generated.log"

        def logged(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(blindq.cli, "generate", logged)
        run_sweep(tmp_path, sweep_text(grid="0.5, 0.7, 0.8"), jobs="2")
        assert len(log.read_text().splitlines()) == 3

    def test_outputs_do_not_depend_on_policy_order(self, tmp_path):
        # ratios.csv and the fits index each point's runs by policy position
        outs = [run_sweep(tmp_path, sweep_text(policies=policies), out=f"o{k}")
                for k, policies in enumerate(("srpt, fifo, ermlf", "fifo, ermlf, srpt"))]
        for name in ("ratios.csv", "estimates.csv"):
            rows = [set((o / name).read_text().splitlines()) for o in outs]
            assert rows[0] == rows[1]
        assert len((outs[0] / "ratios.csv").read_text().splitlines()) == 1 + 2 * 2

        def by_run(out):
            return {(p["point_index"], p["policy"]): {k: v for k, v in p.items()
                                                      if k != "policy_index"}
                    for p in read_json(out / "summary.json")["points"]}
        runs = [by_run(o) for o in outs]
        assert len(runs[0]) == 2 * 3
        assert runs[0] == runs[1]


class TestInstanceCommands:
    def test_gen_and_cycles_roundtrip(self, tmp_path):
        inst_file = tmp_path / "inst.txt"
        assert main(["instance", "gen", "--arrival", "det:2", "--size", "det:1",
                     "--cycles", "3", "--seed", "0", "--out", str(inst_file)]) == 0
        inst = bq.parse(inst_file)
        assert len(inst) == 3
        csv_file = tmp_path / "cycles.csv"
        assert main(["instance", "cycles", "--in", str(inst_file),
                     "--out", str(csv_file)]) == 0
        with open(csv_file) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(r["N"] == "1" for r in rows)

    def test_cycles_to_stdout(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.txt"
        inst_file.write_text(TWO_JOBS_TEXT)
        assert main(["instance", "cycles", "--in", str(inst_file)]) == 0
        assert "cycle_index" in capsys.readouterr().out

    def test_parse_error_exit(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("# blindq-instance v1\n0 3\n0 1\n")
        assert main(["instance", "cycles", "--in", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["simulate", "cycles"])
    def test_non_utf8_file_exit(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# blindq-instance v1\n0 3\n\xff 1\n")
        argv = (["simulate", "--instance", str(bad), "--policy", "fifo",
                 "--out", str(tmp_path / "run")] if command == "simulate"
                else ["instance", "cycles", "--in", str(bad)])
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: line 3: byte 0xff is not UTF-8 text\n"


class TestMissingOutputDirectory:
    """An output path that cannot be written is a row of REJECTED; one in
    the current directory can."""

    def test_current_directory_is_present(self, tmp_path, monkeypatch):
        # a bare file name writes into the current directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "inst.txt").write_text(TWO_JOBS_TEXT)
        assert main(["instance", "cycles", "--in", "inst.txt", "--out", "cycles.csv"]) == 0
        assert (tmp_path / "cycles.csv").read_text().startswith("cycle_index,")


# --- inputs rejected before any work ------------------------------------------

def sweep_case(id, message, text=SWEEP_CONFIG, jobs="1", env=None, **edits):
    """A row that runs sweep on sweep_text(text, **edits), with --jobs
    unless jobs is None."""
    argv = ["sweep", "--config", "{cfg}", "--out", "{out}"] + (["--jobs", jobs] if jobs else [])
    return pytest.param(argv, message, sweep_text(text, **edits), env, (), id=id)


def command_case(id, message, *argv, env=None, mkdir=()):
    """A row that runs argv, with SWEEP_CONFIG at {cfg}."""
    return pytest.param(list(argv), message, SWEEP_CONFIG, env, mkdir, id=id)


# command -> (its argv up to the output path, the output path a directory blocks);
# simulate writes three files named from its --out prefix, so a directory
# at the prefix itself is no obstacle, one at its last file is
WRITERS = {
    "simulate": (["simulate", "--arrival", "exp:2", "--size", "exp:1", "--cycles", "20000",
                  "--policy", "ermlf", "--out"], "{out}.summary.json"),
    "verify": (["verify", "--profile", "smoke", "--jobs", "1", "--report"], "{out}"),
    "gen": (["instance", "gen", "--arrival", "exp:2", "--size", "exp:1", "--cycles", "10",
             "--out"], "{out}"),
    "cycles": (["instance", "cycles", "--in", "{inst}", "--out"], "{out}"),
    "sweep": (["sweep", "--config", "{cfg}", "--jobs", "1", "--out"], "{out}/summary.json"),
}

BAD_JOBS_ENV = (("junk", "junk", "error: BLINDQ_JOBS must be an integer, got 'junk'\n"),
                ("zero", "0", "error: BLINDQ_JOBS must be >= 1, got 0\n"),
                ("negative", "-3", "error: BLINDQ_JOBS must be >= 1, got -3\n"))

# Every input error of the CLI, one row each: (argv, the message on stderr,
# all of it when it ends in a newline, the text at {cfg}, BLINDQ_JOBS or None
# to unset it, the directories made before the run).  {tmp} is the run's
# directory, {inst} a two-job instance file, {out} a path that only those
# directories may make.
REJECTED = [
    command_case("simulate-unknown-policy", "unknown policy 'nosuch'",
                 "simulate", "--instance", "{inst}", "--policy", "nosuch", "--out", "{out}"),
    command_case("simulate-unknown-policy-generated", "unknown policy 'nosuch'",
                 "simulate", "--arrival", "exp:1.05", "--size", "exp:1", "--cycles", "1000000",
                 "--policy", "nosuch", "--out", "{out}"),
    command_case("simulate-missing-inputs",
                 "error: need either --instance or --arrival/--size/--cycles\n",
                 "simulate", "--policy", "srpt", "--out", "{out}"),
    command_case("gen-infinite-parameter", "error: pareto needs one shape > 1",
                 "instance", "gen", "--arrival", "exp:2", "--size", "pareto:inf",
                 "--cycles", "10", "--out", "{out}"),
    # the load and the cycle count are checked before generate runs
    *(command_case(f"{name}-{what}", message, *argv, "--arrival", arrival, "--size", "exp:1",
                   "--cycles", cycles, "--out", "{out}")
      for name, argv in (("simulate", ("simulate", "--policy", "srpt")), ("gen", ("instance", "gen")))
      for what, arrival, cycles, message in (
          ("unstable-load", "exp:1", "10",
           "error: unstable system: load E[size]/E[interarrival] = 1.0/1.0 >= 1\n"),
          ("negative-cycles", "exp:2", "-1", "error: --cycles must be >= 0, got -1\n"))),
    # an instance file takes no generation options, valid or not
    command_case("simulate-instance-with-generation-options",
                 "error: --instance cannot be given with --arrival, --size, --cycles\n",
                 "simulate", "--instance", "{inst}", "--arrival", "exp:9", "--size", "pareto:0.5",
                 "--cycles", "7", "--policy", "srpt", "--out", "{out}"),
    command_case("simulate-instance-with-cycles",
                 "error: --instance cannot be given with --cycles\n",
                 "simulate", "--instance", "{inst}", "--cycles", "0", "--policy", "srpt",
                 "--out", "{out}"),
    *(command_case(f"{name}-missing-directory",
                   "error: output directory '{tmp}/missing' does not exist\n",
                   *argv, "{tmp}/missing/out")
      for name, (argv, _) in WRITERS.items() if name != "sweep"),   # sweep makes its own
    *(command_case(f"{name}-output-is-directory", f"error: output path '{blocked}' is a directory\n",
                   *argv, "{out}", mkdir=("{out}", blocked))
      for name, (argv, blocked) in WRITERS.items()),
    sweep_case("sweep-empty-grid", "sweep grid is empty", grid=""),
    sweep_case("sweep-grid-out-of-range", "grid values must lie in (0, 1)", grid="0.5, 1.2"),
    sweep_case("sweep-non-increasing-grid", "grid values must be strictly increasing",
               grid="0.8, 0.5"),
    sweep_case("sweep-no-policies", "no policies selected", policies=","),
    sweep_case("sweep-unknown-policy", "unknown policy 'nosuch'", policies="srpt, nosuch"),
    sweep_case("sweep-repeated-policy", "policy 'srpt' is listed more than once",
               policies="srpt, fifo, srpt"),
    sweep_case("sweep-repeated-policy-any-case", "policy 'rmlf' is listed more than once",
               policies="rmlf, srpt, RMLF"),
    sweep_case("sweep-bad-cycles", "cycles per point must be >= 100", cycles="10"),
    sweep_case("sweep-no-cycles", "bad sweep config: No option 'cycles' in section: 'sweep'",
               cycles=None),
    sweep_case("sweep-kappa-below-one", "kappas must be finite and >= 1, got [0.5, 2.0]",
               kappas="0.5, 2"),
    sweep_case("sweep-kappas-nan-inf", "kappas must be finite", kappas="nan, inf"),
    sweep_case("sweep-kappas-inf", "kappas must be finite", kappas="1, inf"),
    # exponents.json keys each fit by kappa to 6 significant digits
    sweep_case("sweep-repeated-kappa", "kappas must differ in 6 significant digits",
               kappas="1, 2, 1.0"),
    sweep_case("sweep-kappas-equal-to-6-digits", "kappas must differ in 6 significant digits",
               kappas="1, 1.0000001, 2"),
    sweep_case("sweep-zeta-inf", "zeta=inf must be finite", zeta="inf"),
    sweep_case("sweep-s-nan", "s=nan outside", s="nan"),
    sweep_case("sweep-s-inf", "s=inf outside", s="inf"),
    # the default s = 1.5 lies below alpha/(alpha-1) = 5/3 for pareto:2.5
    sweep_case("sweep-s-below-size-law", "s=1.5", size="pareto:2.5", s=None, zeta=None),
    # every grid point is checked: a load past 1, an N0 past the largest
    # float, a load whose ratio normaliser log(1/(1-rho)) rounds to 0
    sweep_case("sweep-unstable-point", "unstable system: load E[size]/E[interarrival] = 2.0/1.11",
               size="exp:2", grid="0.3, 0.9"),
    sweep_case("sweep-n0-overflow", "N0 overflows at rho=0.99", grid="0.5, 0.999", zeta="200"),
    sweep_case("sweep-rho-too-small", "rho=1e-17 is too small", grid="1e-17, 0.5",
               policies="srpt, fifo"),
    sweep_case("sweep-repeated-section", "section 'system' already exists",
               text=SWEEP_CONFIG + "[system]\nsize = exp:2\n"),
    sweep_case("sweep-repeated-option", "option 'arrival' in section 'system' already exists",
               text=SWEEP_CONFIG.replace("size = exp:1", "size = exp:1\narrival = exp:2")),
    sweep_case("sweep-no-section-header", "bad sweep config: File contains no section headers",
               text=SWEEP_CONFIG.replace("[system]\n", "")),
    sweep_case("sweep-non-utf8", "bad sweep config: 'utf-8' codec can't decode byte 0xff",
               text=SWEEP_CONFIG + "# \xff\n"),   # written as latin-1: one byte 0xff
    command_case("sweep-missing-file", "cannot read config file",
                 "sweep", "--config", "{tmp}/missing.ini", "--out", "{out}", "--jobs", "1"),
    sweep_case("sweep-unknown-option", "bad sweep config: unknown option 'sede' in [sweep]",
               text=SWEEP_CONFIG.replace("seed = 11", "sede = 11")),
    sweep_case("sweep-default-section", "bad sweep config: unknown option 'seed' in [DEFAULT]",
               text="[DEFAULT]\nseed = 11\n" + SWEEP_CONFIG),
    sweep_case("sweep-unknown-section", "bad sweep config: unknown section [output]",
               text=SWEEP_CONFIG + "[output]\n"),
    sweep_case("sweep-jobs-zero", "error: --jobs must be >= 1, got 0\n", jobs="0"),
    sweep_case("sweep-jobs-negative", "error: --jobs must be >= 1, got -3\n", jobs="-3"),
    command_case("verify-jobs-zero", "error: --jobs must be >= 1, got 0\n",
                 "verify", "--profile", "smoke", "--jobs", "0"),
    command_case("verify-jobs-negative", "error: --jobs must be >= 1, got -3\n",
                 "verify", "--profile", "smoke", "--jobs", "-3"),
    *(sweep_case(f"sweep-env-{name}", message, jobs=None, env=env)
      for name, env, message in BAD_JOBS_ENV),
    *(command_case(f"verify-env-{name}", message, "verify", "--profile", "smoke", env=env)
      for name, env, message in BAD_JOBS_ENV),
]


def assert_rejected(tmp, monkeypatch, capsys, argv, message, text, env, mkdir):
    """main(argv) exits 2 with message on stderr, having run no work and
    written nothing under tmp."""
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the input was rejected")

    for name in ("generate", "parse", "simulate", "_sweep_grid_point"):
        monkeypatch.setattr(blindq.cli, name, no_work)
    for name in ("run_all", "pmap"):
        monkeypatch.setattr(acceptance, name, no_work)
    if env is None:
        monkeypatch.delenv("BLINDQ_JOBS", raising=False)
    else:
        monkeypatch.setenv("BLINDQ_JOBS", env)
    names = {"tmp": tmp, "cfg": tmp / "sweep.ini", "inst": tmp / "inst.txt", "out": tmp / "out"}
    names["cfg"].write_bytes(text.encode("latin-1"))
    names["inst"].write_text(TWO_JOBS_TEXT)
    for path in mkdir:
        os.makedirs(path.format(**names), exist_ok=True)
    before = sorted(tmp.rglob("*"))
    assert main([arg.format(**names) for arg in argv]) == 2
    err, message = capsys.readouterr().err, message.format(**names)
    assert (err == message) if message.endswith("\n") else (message in err), err
    assert sorted(tmp.rglob("*")) == before


class TestRejectedBeforeWork:
    """Every input error exits 2 with its message before anything is
    generated, parsed, simulated or verified, and before anything is written."""

    @pytest.mark.parametrize("argv, message, text, env, mkdir", REJECTED)
    def test_rejected(self, tmp_path, monkeypatch, capsys, argv, message, text, env, mkdir):
        assert_rejected(tmp_path, monkeypatch, capsys, argv, message, text, env, mkdir)

    def test_every_raise_has_a_row(self, tmp_path, monkeypatch, capsys):
        # a new check in cli.py needs a row of REJECTED that reaches it
        path, reached = blindq.cli.__file__, set()

        def trace(frame, event, arg):
            if frame.f_code.co_filename == path:
                reached.add(frame.f_lineno)
                return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            for k, row in enumerate(REJECTED):
                (tmp_path / str(k)).mkdir()
                assert_rejected(tmp_path / str(k), monkeypatch, capsys, *row.values)
        finally:
            sys.settrace(previous)
        with open(path) as fh:
            tree = ast.parse(fh.read())
        assert sorted({n.lineno for n in ast.walk(tree) if isinstance(n, ast.Raise)} - reached) == []


def test_parser_built_once(tmp_path, monkeypatch):
    built = []
    real = blindq.cli.build_parser
    monkeypatch.setattr(blindq.cli, "build_parser", lambda: built.append(1) or real())
    blindq.cli._parser.cache_clear()
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(TWO_JOBS_TEXT)
    for _ in range(3):
        assert main(["instance", "cycles", "--in", str(inst_file)]) == 0
    assert built == [1]


class TestVerifyCommand:
    def test_exit_codes_follow_results(self, tmp_path, monkeypatch):
        def fake_run_all(profile, seed, jobs, progress=None):
            return [acceptance.CriterionResult(1, "ok", True, {})]
        monkeypatch.setattr(acceptance, "run_all", fake_run_all)
        report = tmp_path / "report.json"
        assert main(["verify", "--profile", "quick", "--report", str(report)]) == 0
        assert read_json(report)["all_passed"] is True

    def test_tampered_tolerance_fails(self, tmp_path, monkeypatch):
        def fake_run_all(profile, seed, jobs, progress=None):
            return [acceptance.CriterionResult(1, "ok", True, {}),
                    acceptance.CriterionResult(2, "bad", False, {"why": "tolerance"})]
        monkeypatch.setattr(acceptance, "run_all", fake_run_all)
        report = tmp_path / "report.json"
        assert main(["verify", "--report", str(report)]) == 1
        data = read_json(report)
        assert data["all_passed"] is False
        assert [c["passed"] for c in data["criteria"]] == [True, False]

    def test_smoke_profile_end_to_end(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["verify", "--profile", "smoke", "--jobs", "1",
                   "--report", str(report)])
        data = read_json(report)
        ids = list(range(1, 12))
        assert [c["id"] for c in data["criteria"]] == ids
        progress = [line[:5] for line in capsys.readouterr().out.splitlines()
                    if line.startswith("[C")]
        assert progress == [f"[C{cid:02d}]" for cid in ids]
        assert rc == (0 if data["all_passed"] else 1)


class TestHelpers:
    def test_derive_seed_is_stable_and_spread(self):
        s1 = derive_seed(42, 0, 0)
        assert s1 == derive_seed(42, 0, 0)
        assert s1 != derive_seed(42, 0, 1)
        assert s1 != derive_seed(42, 1, 0)
        assert s1 != derive_seed(43, 0, 0)
        assert 0 <= s1 < 2 ** 63

    @staticmethod
    def _workers(monkeypatch, tmp_path, command, *argv):
        """main's exit code, and the worker counts that run_all and pmap
        were handed; neither runs anything."""
        seen = []
        monkeypatch.setattr(acceptance, "run_all",
                            lambda profile, seed, jobs, progress=None: seen.append(jobs) or [])
        monkeypatch.setattr(acceptance, "pmap",
                            lambda fn, payloads, jobs: seen.append(jobs) or [])
        monkeypatch.setattr(blindq.cli, "generate", None)
        if command == "sweep":
            cfg = tmp_path / "sweep.ini"
            # no srpt: the faked pmap returns no runs to take ratios against
            cfg.write_text(SWEEP_CONFIG.replace("srpt, rmlf", "rmlf"))
            argv = ("--config", str(cfg), "--out", str(tmp_path / "o")) + argv
        return main([command, *argv]), seen

    def test_jobs_env_default(self, monkeypatch, tmp_path):
        # an empty variable counts as unset
        for command in ("sweep", "verify"):
            monkeypatch.setenv("BLINDQ_JOBS", "3")
            assert self._workers(monkeypatch, tmp_path, command) == (0, [3])
            monkeypatch.setenv("BLINDQ_JOBS", "")
            assert self._workers(monkeypatch, tmp_path, command) == (0, [os.cpu_count() or 1])
            monkeypatch.delenv("BLINDQ_JOBS")
            assert self._workers(monkeypatch, tmp_path, command) == (0, [os.cpu_count() or 1])
            # --jobs wins over the variable, even one that is rejected alone
            for env in ("junk", "0", "-3"):
                monkeypatch.setenv("BLINDQ_JOBS", env)
                assert self._workers(monkeypatch, tmp_path, command, "--jobs", "2") == (0, [2])

    def test_pmap_starts_at_most_one_worker_per_payload(self, monkeypatch):
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        assert acceptance.pmap(abs, [-1, -2, 3], 64) == [1, 2, 3]
        assert started == [3]


class TestModuleEntry:
    def test_python_m_blindq_help(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(bq.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "blindq", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "usage" in proc.stdout

    def test_import_loads_no_process_pool(self):
        # only pmap with more than one worker imports the pool machinery
        src = os.path.dirname(os.path.dirname(os.path.abspath(bq.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, blindq, blindq.cli; "
                "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
