"""Golden reproducibility: SHA-256 digests of seeded outputs, pinned bit for bit.

The generate digests cover releases and sizes of each case; the simulate
digests cover, per policy, the completion times over every case; the busy
period digests cover repr() of busy_periods over the same cases.  The
small-size digests pin completions and busy periods on instances whose
sizes reach 1e-9 and below (deep negative eRMLF levels, and an M/M/1
instance at time unit 2**-30, where every policy and busy_periods count
the 40 busy periods generate built).  Unit-scale and small-size pins are
kept apart, so a change meant to alter only one of them re-records only
that set.  A policy run's cycle records are busy_periods' records plus
each period's sojourn sum, its jobs' completions minus releases added in
index order (checked exactly in test_simulator), so these pins and the
completion pins cover them.  The landing digests pin PS and FB completions
on M/M/1 instances where a completion must land the group clock exactly on
the finishing job's virtual finish time.  The sweep digests cover the four
files of a small `blindq sweep` (summary.json without its "meta"
timestamp); they rest on the per-point seed contract, one seed and one
instance per grid point, shared by every policy.  The file-session
digests cover the bytes of the CLI's file path: the `instance gen` file,
the `instance cycles` stdout, and each policy's `simulate --instance`
outputs (summary.json without "meta").  Kept apart, a failure
names the layer whose output changed.  A change that is meant to alter
seeded outputs must say so and re-record these values; a speed-up must
leave them as they are.  The values also rest on numpy's elementwise
log1p and power, so a numpy build whose results differ in the last bit
fails here too.
"""

import hashlib
import json

import pytest

import blindq as bq
from blindq.cli import main

SIZES = {
    "exp": bq.exponential_mean(1.0),
    "det": bq.deterministic(1.0),
    "pareto": bq.pareto(2.5),
}
# Cycle counts give 100-700 jobs per case (E[N] = 1/(1-r) for M/M/1).
CYCLES = {0.5: 150, 0.9: 40, 0.95: 25}
CASES = [(name, r) for name in SIZES for r in CYCLES]

GENERATE_DIGESTS = {
    ('exp', 0.5): "a05c308309e34605d9eb6c19b3973d572c8e570e4a71a06cf9db6f25a68c590d",  # 308 jobs
    ('exp', 0.9): "18b8e1241bc8bf4ce9dabac49714243d1a39b19e3ce9fed16ff69341181e9bb1",  # 293 jobs
    ('exp', 0.95): "e84f922f5a0e69609d699cc4dabec2d0f83f0436225be880cfdeac4e7267321d",  # 120 jobs
    ('det', 0.5): "125e01814ed887c3922c03f9aa8390473d3755b01bdde3cf8c762775f884f63b",  # 304 jobs
    ('det', 0.9): "4e3128e9a968b7d91233073fb638366d18769be12838cec23215dafabf556183",  # 274 jobs
    ('det', 0.95): "2fc0f1cf1779a9d8f71b3e5cffc1fb840a5630c09c430d8b1d64d9709934f42d",  # 593 jobs
    ('pareto', 0.5): "4fa3e0519fd58ab62ac1c088ccc2a7234bc7a30bd3c3414e149f5cc0a792c69f",  # 317 jobs
    ('pareto', 0.9): "b3b24ae841b4cf1a454cb8d0c6deecb9f4d300564587df0a69aec8cc268fc8de",  # 324 jobs
    ('pareto', 0.95): "0cee6b313c83cbf9b998dd6293ac0078f52c5338bc0ff694617a5cf7d8560409",  # 701 jobs
}

SIMULATE_DIGESTS = {
    "srpt": "ce3f8eb19d3a9e0fc02c68463c49e6b1f9f435baaf8d8f3cd1a8a797873c37cb",
    "fifo": "0e36b974a60926e3179e39bca54a1a8cb03825a1bcf589ae1a36313896fef168",
    "ps": "38b9f0e4b111d9616c0f71d9b7aeb5910fa653c9eec72e99777ef0419b5bcc9c",
    "fb": "500230f638d82964c2a7d86dfc95cdf9d821c4e6901445f3d0e1e2a411754230",
    "mlf": "7a4704b5e94b77b129e9f078f70087a9d704f4861fc4d15d85df0a8e01d3f86f",
    "rmlf": "ca540545083e7cf4c88e1f618cbdf867fde186de7cdb01629c031bbd9b222f28",
    "ermlf": "6f0136fe7297264237709c92dd3da00792942389205f26e9e9a3be3f9d60017c",
}

# Completions over _small_instances(), seed 7.
SMALL_SIMULATE_DIGESTS = {
    "srpt": "9ad512936021273f0b79fa40e8864daf607c9780b0b3622b4508fcdfeb433b2c",
    "fifo": "b1628061039d20e60a865c72ad660d200affa5eb8fbb367aa97cb463dadac0ef",
    "ps": "f066fd280da35cec99bd836826618fe1ffe4f14e54fb745cad2ef2919bc90efe",
    "fb": "0f7baca9cc1fd02689f36291e5979300cfbc523c708b59020892535f0b6f5682",
    "mlf": "b10187e254078e0dd0648350620c00913dbe0d89293fd28de1f8c62f90886b16",
    "rmlf": "9bdfb7b3d87bc07d1773f48a15e90eab92eee478f76e686901ac81cc974b55b4",
    "ermlf": "df9ca19185d802f79a0e3ae8212771c55b08d6d3955c447c4e0d0f9c7f69c4e0",
}

# repr() of busy_periods over CASES ("cases") and over _small_instances()
# ("small").
BUSY_PERIOD_DIGESTS = {
    "cases": "aadb950c1bd9683d1872c84176550a54b11657c683162915a5f902a28ec56772",
    "small": "9701dbfcdd2429eada77790fa69102e30c33fab0ef1bc94f01cdfe1f3d2efd2f",
}

# Completions on M/M/1 instances (rho 0.8, 50 cycles) at LANDING_SEEDS.  Without
# the exact landing of the group clock after a completion, ps completions
# change at seeds 8 and 13 and fb completions at seed 23.
LANDING_SEEDS = (8, 13, 23)
LANDING_DIGESTS = {
    "ps": "9b549bcc7f8a01c494974775b5de50d633412947c003b9c97875a4681739a907",
    "fb": "a1034005ac3715da141c40dbc1e2e7335006a6ede8f823a2b2a4f7a442d85f68",
}


def _small_instances():
    """Half the sizes near 1e-6 (down to 1e-9) among unit-scale ones, 1132
    jobs; and an M/M/1 instance scaled by 2**-30 (sizes 4e-12 to 7e-9)."""
    size = bq.hyperexponential([0.5, 0.5], [0.55, 2.0 ** 20])
    arrival = bq.exponential_mean(bq.moments(size)[0] / 0.9)
    mixed = bq.generate(arrival, size, 60, seed=90)
    mm1 = bq.generate(bq.exponential_mean(1.0 / 0.9), bq.exponential_mean(1.0), 40, seed=900)
    return [mixed, bq.scale(mm1, 2.0 ** -30)]


def _instance(name, r):
    size = SIZES[name]
    arrival = bq.exponential_mean(bq.moments(size)[0] / r)
    return bq.generate(arrival, size, CYCLES[r], seed=round(1000 * r))


def _sha(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _sha_repr(values):
    h = hashlib.sha256()
    for v in values:
        h.update(repr(v).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def instances():
    return {case: _instance(*case) for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=[f"{n}-{r}" for n, r in CASES])
def test_generate_digest(instances, case):
    inst = instances[case]
    assert 100 <= len(inst) <= 1000
    assert _sha([inst.releases, inst.sizes]) == GENERATE_DIGESTS[case]


@pytest.mark.parametrize("policy", bq.POLICY_NAMES)
def test_simulate_digest(instances, policy):
    comps = [bq.simulate(instances[case], policy, seed=7).completions for case in CASES]
    assert _sha(comps) == SIMULATE_DIGESTS[policy]


@pytest.fixture(scope="module")
def small_instances():
    return _small_instances()


@pytest.mark.parametrize("policy", sorted(SMALL_SIMULATE_DIGESTS))
def test_small_size_simulate_digest(small_instances, policy):
    comps = [bq.simulate(inst, policy, seed=7).completions for inst in small_instances]
    assert _sha(comps) == SMALL_SIMULATE_DIGESTS[policy]


def test_busy_periods_digest(instances):
    cycles = [bq.busy_periods(instances[case]) for case in CASES]
    assert _sha_repr(cycles) == BUSY_PERIOD_DIGESTS["cases"]


def test_small_size_busy_periods_digest(small_instances):
    assert _sha_repr(map(bq.busy_periods, small_instances)) == BUSY_PERIOD_DIGESTS["small"]


def test_small_mm1_cycle_count(small_instances):
    # generate built the 2**-30-scaled M/M/1 instance with 40 busy periods
    mm1 = small_instances[1]
    assert len(bq.busy_periods(mm1)) == 40
    for policy in bq.POLICY_NAMES:
        assert len(bq.simulate(mm1, policy, seed=7).cycles) == 40


@pytest.mark.parametrize("policy", sorted(LANDING_DIGESTS))
def test_exact_landing_digest(policy):
    comps = [bq.simulate(bq.generate(bq.exponential_mean(1.25), bq.exponential_mean(1.0),
                                     50, seed=s), policy).completions
             for s in LANDING_SEEDS]
    assert _sha(comps) == LANDING_DIGESTS[policy]


SWEEP_CONFIG = """
[system]
arrival = exp:1
size = hyperexp:0.5,0.5;2,0.6667

[sweep]
grid = 0.5, 0.7, 0.9
policies = srpt, fifo, ps, fb, mlf, rmlf, ermlf
cycles = 300
seed = 5
"""

SWEEP_DIGESTS = {
    "estimates.csv": "0faf8dcd087c3ccdbce9735ae4d3e9234a8c79d8e8e130ff265e3c7828387b34",
    "ratios.csv": "e2bc5390c73e35e3c0ec904bb6dab26ef86e384f600cb0172b6b2e1c5d36457b",
    "exponents.json": "64da2ca3467928aef48126d3d51455f13e26071b7c71d0ebcf10d22b4708ee9a",
    "summary.json": "1dae3e41293905bfbf020a7e0295387bac6baf58cf5e05ce0aae5d19a0b17adf",
}


def test_sweep_digests(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in ("estimates.csv", "ratios.csv", "exponents.json")}
    summary = json.loads((out / "summary.json").read_text())
    del summary["meta"]
    got["summary.json"] = hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert got == SWEEP_DIGESTS


# The file session: `instance gen` (exp:2 arrivals, exp:1 sizes, 300
# cycles, seed 3, 564 jobs), `instance cycles` on that file, and
# `simulate --instance` under every policy at seed 3.  Per policy: jobs.csv,
# cycles.csv and summary.json without its "meta" timestamp.
FILE_SESSION_DIGESTS = {
    "instance": "35e4c91e0e6d8b555e93e1c3cf25dd51c77feb45409d8474789a9da3f990262c",
    "cycles_stdout": "4bba13be361d6800c28ce91169bb921e2257911ef47c634dff5c3066a75d13f8",
    "srpt": ("c64f37a048983284c1e763cc17773d134a1aa3555ce69f2169ccb7f6c6732110",
             "9e4700d87ee4cb8287f4075f2cb9c476718aaf7b1112ac24d13a7b74adf873fb",
             "7d1a7b3c1a360553beb9646e3a5352ac8f9c72932be710d5c44e6270b557ebe4"),
    "fifo": ("b62798ef368b394e67b515eeb811a66ce369a42907584be11722824c01da9c66",
             "b70d5ef9aba1bd03332d78a410ce9d4f14c54ec606f0fc32dd0c37ac620eaa70",
             "4da40415a8559915a19991edbbe1577effaa590b61625304b7047a92738caec3"),
    "ps": ("ab66df0916b395d2b4495eb9ed658ab3f0d98efe7913470c2b9951de4c4be02a",
           "cbf27ce37a4bef348cc289e96fe6f964debb92ee44365e13b5cdd24d42c6b5fb",
           "65e67b310ca977854a47762cba11fec9feb2a5c65f045032f885f4cdd0358df8"),
    "fb": ("a24b9c090fc7270a8783c356ceaefa7969be9136a34c0ffd8e30d54a6a403793",
           "c5f8bf4875641f18e0b6ddac91462823b8b0885885bbe497ac5968c468f2c92d",
           "56fe8279fc9b084a2d60b916b806994805f7ff963aa974791cad43d810d1723a"),
    "mlf": ("4a274a35bbb4df85b7bcc2b98faac14f0d639aed2b74f5c15cf6272d68ca82c8",
            "7a8241262f87dc88d623909a251bf07ee85d986f1155472f31d0ffcd591a2231",
            "55b048784d55ccc98f0e5addb7ed1b33191aaa737aa40efccfe71e7672a7bf20"),
    "rmlf": ("7c061d93e27a21438ddea7850df8fd33b8cbd9fb75127d65ebbbb9ea1890cace",
             "5a582af6e52abf12008e4d4ed0bd6c8ceea70168915caa8a44e14dc4b32f854c",
             "4deb59470f6e87efd765f2880113d62625018b37f13cd815c2924a1e8dc141c1"),
    "ermlf": ("4743e3e52e09d2fd1bd7911f8612930075a3869e90d6668037add592a800fbd6",
              "5df9c1b113a3d2c62e0362fa243a0403129a12d610a7e8483a69ad75b6a9b672",
              "9924b12e288c05bd696aa48788ae22c0db4981011acd14fe1a79bfc8860038ce"),
}


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("session") / "inst.txt"
    assert main(["instance", "gen", "--arrival", "exp:2", "--size", "exp:1",
                 "--cycles", "300", "--seed", "3", "--out", str(path)]) == 0
    return path


def test_instance_file_digest(instance_file):
    digest = hashlib.sha256(instance_file.read_bytes()).hexdigest()
    assert digest == FILE_SESSION_DIGESTS["instance"]


def test_instance_cycles_digest(instance_file, capsys):
    capsys.readouterr()
    assert main(["instance", "cycles", "--in", str(instance_file)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FILE_SESSION_DIGESTS["cycles_stdout"]


@pytest.mark.parametrize("policy", bq.POLICY_NAMES)
def test_simulate_instance_file_digests(instance_file, tmp_path, policy):
    prefix = tmp_path / policy
    assert main(["simulate", "--instance", str(instance_file), "--policy", policy,
                 "--seed", "3", "--out", str(prefix)]) == 0
    got = [hashlib.sha256((tmp_path / f"{policy}.{name}").read_bytes()).hexdigest()
           for name in ("jobs.csv", "cycles.csv")]
    summary = json.loads((tmp_path / f"{policy}.summary.json").read_text())
    del summary["meta"]
    got.append(hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest())
    assert tuple(got) == FILE_SESSION_DIGESTS[policy]
