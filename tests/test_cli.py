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

    def test_unknown_policy_fails(self, tmp_path):
        inst_file = tmp_path / "two_jobs.txt"
        inst_file.write_text(TWO_JOBS_TEXT)
        rc = main(["simulate", "--instance", str(inst_file), "--policy", "nosuch",
                   "--out", str(tmp_path / "x")])
        assert rc != 0

    def test_missing_inputs_fails(self, tmp_path):
        rc = main(["simulate", "--policy", "srpt", "--out", str(tmp_path / "x")])
        assert rc != 0

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


class TestSweepCommand:
    def test_cardinality_contract(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG)
        outdir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(outdir),
                     "--jobs", "1"]) == 0
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
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG.replace("srpt, rmlf", "fifo")
                       .replace("grid = 0.5, 0.8", "grid = 0.5")
                       .replace("cycles = 400", "cycles = 20000"))
        outdir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(outdir),
                     "--jobs", "1"]) == 0
        with open(outdir / "estimates.csv") as fh:
            t_row = next(r for r in csv.DictReader(fh) if r["functional"] == "T")
        assert abs(float(t_row["point"]) - 2.0) <= float(t_row["ci"])

    @pytest.mark.parametrize("text, message", [
        pytest.param(SWEEP_CONFIG.replace("grid = 0.5, 0.8", "grid ="),
                     "sweep grid is empty", id="empty-grid"),
        pytest.param(SWEEP_CONFIG.replace("cycles = 400", "cycles = 10"),
                     "cycles per point must be >= 100", id="bad-cycles"),
        pytest.param(SWEEP_CONFIG.replace("grid = 0.5, 0.8", "grid = 0.8, 0.5"),
                     "grid values must be strictly increasing", id="non-increasing-grid"),
        pytest.param(SWEEP_CONFIG.replace("srpt, rmlf", "srpt, nosuch"),
                     "unknown policy 'nosuch'", id="unknown-policy"),
        pytest.param(SWEEP_CONFIG + "[system]\nsize = exp:2\n",
                     "section 'system' already exists", id="repeated-section"),
        pytest.param(SWEEP_CONFIG.replace("size = exp:1", "size = exp:1\narrival = exp:2"),
                     "option 'arrival' in section 'system' already exists",
                     id="repeated-option"),
        pytest.param(SWEEP_CONFIG.replace("[system]\n", ""),
                     "bad sweep config: File contains no section headers",
                     id="no-section-header"),
        pytest.param(SWEEP_CONFIG.replace("seed = 11", "seed = 11\n# \xff"),
                     "bad sweep config: 'utf-8' codec can't decode byte 0xff",
                     id="non-utf8"),
        pytest.param(None, "cannot read config file", id="missing-file"),
        pytest.param(SWEEP_CONFIG.replace("seed = 11", "sede = 11"),
                     "bad sweep config: unknown option 'sede' in [sweep]", id="unknown-option"),
        pytest.param("[DEFAULT]\nseed = 11\n" + SWEEP_CONFIG,
                     "bad sweep config: unknown option 'seed' in [DEFAULT]", id="default-section"),
        pytest.param(SWEEP_CONFIG + "[output]\n",
                     "bad sweep config: unknown section [output]", id="unknown-section"),
    ])
    def test_bad_config_rejected(self, tmp_path, capsys, text, message):
        # rejected before any point runs: no output directory is written
        cfg = tmp_path / "sweep.ini"
        if text is not None:
            cfg.write_bytes(text.encode("latin-1"))   # "\xff" is one byte 0xff
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_policy_rejected(self, tmp_path, capsys):
        # rejected before any point runs: no output directory is written
        for policies in ("srpt, fifo, srpt", "rmlf, srpt, RMLF"):
            cfg = tmp_path / "sweep.ini"
            cfg.write_text(SWEEP_CONFIG.replace("srpt, rmlf", policies))
            out = tmp_path / "o"
            assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
            assert "is listed more than once" in capsys.readouterr().err
            assert not out.exists()

    def test_analysis_params_checked_against_size_law(self, tmp_path, capsys):
        # the default s = 1.5 lies below alpha/(alpha-1) = 5/3 for pareto:2.5;
        # rejected before any point runs: no output directory is written
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG.replace("size = exp:1", "size = pareto:2.5")
                       .replace("s = 1.5\nzeta = 15\n", ""))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
        assert "s=1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_partial_analysis_section_keeps_other_default(self, tmp_path):
        # a key the config leaves out takes AnalysisParams' default
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG.replace("s = 1.5\nzeta = 15\n", "zeta = 16\n"))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
        config = read_json(out / "summary.json")["config"]
        assert (config["s"], config["zeta"]) == (bq.AnalysisParams().s, 16.0)

    @pytest.mark.parametrize("edits, message", [
        ({"size = exp:1": "size = exp:2", "grid = 0.5, 0.8": "grid = 0.3, 0.9"},
         "unstable system: load E[size]/E[interarrival] = 2.0/1.11"),
        ({"grid = 0.5, 0.8": "grid = 0.5, 0.999", "zeta = 15": "zeta = 200"},
         "N0 overflows at rho=0.99"),
        ({"grid = 0.5, 0.8": "grid = 1e-17, 0.5", "srpt, rmlf": "srpt, fifo"},
         "rho=1e-17 is too small"),
    ])
    def test_every_grid_point_checked(self, tmp_path, capsys, monkeypatch, edits, message):
        # a load past 1, an N0 past the largest float or a load whose ratio
        # normaliser log(1/(1-rho)) rounds to 0 at one grid point is
        # rejected before any point runs: no output directory is written
        def no_point(task):
            raise AssertionError("a grid point ran")
        monkeypatch.setattr(blindq.cli, "_sweep_grid_point", no_point)
        text = SWEEP_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("kappas = nan, inf", "kappas must be finite"),
        ("kappas = 1, inf", "kappas must be finite"),
        ("zeta = inf", "zeta=inf must be finite"),
        ("s = nan", "s=nan outside"),
        ("s = inf", "s=inf outside"),
    ])
    def test_non_finite_analysis_params_rejected(self, tmp_path, capsys, line, message):
        # NaN and inf pass a one-sided bound such as k < 1 being false;
        # rejected before any point runs: no output directory is written
        key = line.split(" = ")[0]
        old = next(x for x in SWEEP_CONFIG.splitlines() if x.startswith(key + " ="))
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG.replace(old, line))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kappas", ["1, 2, 1.0", "1, 1.0000001, 2"])
    def test_repeated_kappa_rejected(self, tmp_path, capsys, kappas):
        # exponents.json keys each fit by kappa to 6 significant digits
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG.replace("kappas = 1, 2", f"kappas = {kappas}"))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
        assert "kappas must differ in 6 significant digits" in capsys.readouterr().err
        assert not out.exists()

    def test_points_sample_the_configured_laws(self, tmp_path):
        # these weights move by one ulp when re-parsed from their text form;
        # every point still has the load of the specs parsed from the config
        size = "hyperexp:0.01,0.01,0.08;3,2,1"
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG.replace("size = exp:1", f"size = {size}"))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
        arrival, law = bq.parse_spec("exp:1"), bq.parse_spec(size)
        for p in read_json(out / "summary.json")["points"]:
            assert (p["rho"], p["mu"]) == bq.system_load(bq.scaled(arrival, p["r"]), law)

    def test_deterministic_outputs(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
        for name in ("estimates.csv", "ratios.csv", "exponents.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert strip_meta(read_json(out1 / "summary.json")) == \
               strip_meta(read_json(out2 / "summary.json"))

    def test_policies_share_each_point_instance(self, tmp_path):
        # every policy at a point runs on one instance under one seed, so
        # the per-cycle N, and so every N moment, is the same for all
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG.replace("srpt, rmlf", "srpt, fifo, ps, fb, mlf, rmlf, ermlf"))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
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
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG.replace("grid = 0.5, 0.8", "grid = 0.5, 0.7, 0.8"))
        before = alive()
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--jobs", "1"]) == 0
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
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG.replace("grid = 0.5, 0.8", "grid = 0.5, 0.7, 0.8"))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--jobs", "2"]) == 0
        assert len(log.read_text().splitlines()) == 3

    def test_outputs_do_not_depend_on_policy_order(self, tmp_path):
        # ratios.csv and the fits index each point's runs by policy position
        outs = []
        for policies in ("srpt, fifo, ermlf", "fifo, ermlf, srpt"):
            cfg = tmp_path / "sweep.ini"
            cfg.write_text(SWEEP_CONFIG.replace("srpt, rmlf", policies))
            out = tmp_path / f"o{len(outs)}"
            assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
            outs.append(out)
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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, monkeypatch, jobs):
        # rejected before any point runs: no output directory is written
        monkeypatch.setattr(blindq.cli, "generate", None)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()


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

    def test_infinite_parameter_exit(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        assert main(["instance", "gen", "--arrival", "exp:2", "--size", "pareto:inf",
                     "--cycles", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestMissingOutputDirectory:
    """An output path in a missing directory, or one that is a directory,
    exits 2 before any work runs."""

    @pytest.mark.parametrize("command", ["simulate", "verify", "gen", "cycles"])
    def test_exits_before_work(self, tmp_path, capsys, monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")
        for name in ("generate", "parse", "simulate"):
            monkeypatch.setattr(blindq.cli, name, never)
        monkeypatch.setattr(acceptance, "run_all", never)
        inst_file = tmp_path / "inst.txt"
        inst_file.write_text(TWO_JOBS_TEXT)

        def run(out):
            argv = {
                "simulate": ["simulate", "--arrival", "exp:2", "--size", "exp:1",
                             "--cycles", "20000", "--policy", "ermlf", "--out", out],
                "verify": ["verify", "--profile", "smoke", "--jobs", "1", "--report", out],
                "gen": ["instance", "gen", "--arrival", "exp:2", "--size", "exp:1",
                        "--cycles", "10", "--out", out],
                "cycles": ["instance", "cycles", "--in", str(inst_file), "--out", out],
            }[command]
            assert main(argv) == 2
            return capsys.readouterr().err

        err = run(str(tmp_path / "missing" / "out"))
        assert err == f"error: output directory {str(tmp_path / 'missing')!r} does not exist\n"
        assert not (tmp_path / "missing").exists()
        # simulate writes three files named from its --out prefix: a directory
        # at the prefix itself is no obstacle, one at the last file is
        out = tmp_path / "out"
        out.mkdir()
        blocked = tmp_path / "out.summary.json" if command == "simulate" else out
        blocked.mkdir(exist_ok=True)
        assert run(str(out)) == f"error: output path {str(blocked)!r} is a directory\n"

    def test_current_directory_is_present(self, tmp_path, monkeypatch):
        # a bare file name writes into the current directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "inst.txt").write_text(TWO_JOBS_TEXT)
        assert main(["instance", "cycles", "--in", "inst.txt", "--out", "cycles.csv"]) == 0
        assert (tmp_path / "cycles.csv").read_text().startswith("cycle_index,")


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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, monkeypatch, jobs):
        calls = []
        monkeypatch.setattr(acceptance, "run_all", lambda *a, **k: calls.append(1))
        assert main(["verify", "--profile", "smoke", "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert calls == []

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

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("env", ["junk", "0", "-3"])
    def test_bad_jobs_env_rejected(self, monkeypatch, tmp_path, capsys, command, env):
        # rejected, naming its source, before any point or criterion runs
        monkeypatch.setenv("BLINDQ_JOBS", env)
        assert self._workers(monkeypatch, tmp_path, command) == (2, [])
        assert "BLINDQ_JOBS" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # --jobs wins over the variable
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
