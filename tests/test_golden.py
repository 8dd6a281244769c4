"""Golden reproducibility: SHA-256 digests of seeded outputs, pinned bit for bit.

The generate digests cover releases and sizes of each case; the simulate
digests cover, per policy, the completion times over every case; the cycle
digests cover repr() of every policy's cycle records, and of busy_periods,
over the same cases.  The small-size digests pin completions and cycle
records on instances whose sizes reach 1e-9 and below (deep negative eRMLF
levels, and an M/M/1 instance at time unit 2**-30, where every policy and
busy_periods count the 40 busy periods generate built).  Unit-scale and
small-size pins are kept apart, so a change meant to alter only one of them
re-records only that set.  The landing digests pin PS and FB completions
on M/M/1 instances where a completion must land the group clock exactly on
the finishing job's virtual finish time.  The sweep digests cover the four
files of a small `blindq sweep` (summary.json without its "meta"
timestamp); they rest on the per-point seed contract, one seed and one
instance per grid point, shared by every policy.  Kept apart, a failure
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

# repr() of the cycle records over CASES, seed 7; "busy_periods" is the
# policy-independent decomposition of the same instances.
CYCLE_DIGESTS = {
    "srpt": "570933cebdca47b05beeb2726882c0ecbc05a7c2fdb3eda1dd38736aee9df392",
    "fifo": "bcefd4ddab124b32bf5071628692ac83d1b93de9c721712ae0d695ff56ac68e6",
    "ps": "0826228a4495a6e72955029776a04a04fde50a253da155b7ed0d2293f6c68f22",
    "fb": "fe3bfb3654ff3549277f2912c1ab1ceae60886beb5d0698884ed5d0cb7ace159",
    "mlf": "e90e4bf7b6537b7a2fcf24e7df2cd8325b66a5013cc206dd271226437c47efe2",
    "rmlf": "603a1e7aeebdb8d9e7854119c2e2e03b5b540e0db73debadd8da4d2969542e6f",
    "ermlf": "65442d2f9a9f4c42bcd935fbcac2c5fe2287ff0bc39ff24dda102c2f555cbcbb",
    "busy_periods": "aadb950c1bd9683d1872c84176550a54b11657c683162915a5f902a28ec56772",
}

# The same over _small_instances(), seed 7.
SMALL_CYCLE_DIGESTS = {
    "srpt": "56998103948513233a2933b5d13d73957917f2256fb00cb39b0d7c108da39f0d",
    "fifo": "65bdc5f2d7e2d8740e6777f049517732946bd00ea9265f731bfbc777bd63c010",
    "ps": "1c59ed8348e14dc28f96e2b5a0de56d5f31d1d8175bd391a5f2f790caa9a9ea1",
    "fb": "b91c1ee9b130cc204f98dbb34c0e99d5a372151f10fb3708fb3b6101a5d1f7b2",
    "mlf": "b3824e6cb045488520f72b1b799ef613807fcf456859c40f8f4cb529e49a9fcc",
    "rmlf": "85076d364bdc56904b3ae55bf13382af69e7a308e1a4203901315debcef056a9",
    "ermlf": "545bbe9e71650a1d5c32d4e1852e1f3f1962e69cd3a4e693f94cb3deb65b28ed",
    "busy_periods": "9701dbfcdd2429eada77790fa69102e30c33fab0ef1bc94f01cdfe1f3d2efd2f",
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


@pytest.mark.parametrize("policy", bq.POLICY_NAMES)
def test_cycle_digest(instances, policy):
    cycles = [bq.simulate(instances[case], policy, seed=7).cycles for case in CASES]
    assert _sha_repr(cycles) == CYCLE_DIGESTS[policy]


def test_busy_periods_digest(instances):
    cycles = [bq.busy_periods(instances[case]) for case in CASES]
    assert _sha_repr(cycles) == CYCLE_DIGESTS["busy_periods"]


@pytest.mark.parametrize("policy", bq.POLICY_NAMES)
def test_small_size_cycle_digest(small_instances, policy):
    cycles = [bq.simulate(inst, policy, seed=7).cycles for inst in small_instances]
    assert _sha_repr(cycles) == SMALL_CYCLE_DIGESTS[policy]


def test_small_size_busy_periods_digest(small_instances):
    assert _sha_repr(map(bq.busy_periods, small_instances)) == SMALL_CYCLE_DIGESTS["busy_periods"]


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
    "estimates.csv": "26716ddced404885c24e28e8e120d78abea011cc63929d2ce12826b56c5c2bb4",
    "ratios.csv": "9c0b8a275be0784bc511f1467b356c1d3d2d3d8b81d8cc9f7476785055b1efc3",
    "exponents.json": "2b33d4f0efa2a8462f396575b3bb0e3a4b736617bb7a348a685ee1559184749f",
    "summary.json": "ccd0948a752ec2960cde0ed50bf12f2374d5df4eaacbc47a05347e06e120339a",
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
