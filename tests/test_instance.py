import io
import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blindq as bq
import blindq.instance as instance_module
from blindq import acceptance
from blindq.errors import EmptyInstanceError, ParameterError, ParseError
from blindq.instance import FILE_HEADER
import reference


class TestConstruction:
    def test_invariants_enforced(self):
        with pytest.raises(ParameterError):
            bq.Instance([0.0, 0.0], [1.0, 1.0])       # duplicate release
        with pytest.raises(ParameterError):
            bq.Instance([1.0, 0.5], [1.0, 1.0])       # decreasing
        with pytest.raises(ParameterError):
            bq.Instance([-1.0, 0.5], [1.0, 1.0])      # negative first release
        with pytest.raises(ParameterError):
            bq.Instance([0.0, 1.0], [1.0, 0.0])       # zero size

    @pytest.mark.parametrize("releases, sizes", [
        ([math.nan], [1.0]),
        ([0.0], [math.inf]),
        ([0.0, math.inf], [1.0, 1.0]),
    ], ids=["nan-release", "inf-size", "inf-release"])
    def test_non_finite_rejected(self, releases, sizes):
        with pytest.raises(ParameterError, match="finite"):
            bq.Instance(releases, sizes)

    def test_immutability(self):
        inst = bq.Instance([0.0], [1.0])
        with pytest.raises(AttributeError):
            inst.releases = None
        with pytest.raises(ValueError):
            inst.sizes[0] = 2.0

    def test_pickle_round_trip(self):
        # unpickling goes through __init__, not the immutability guard
        meta = bq.InstanceMeta(rho=0.5, mu=1.0)
        for inst in (bq.Instance([0.0, 1.0], [0.5, 0.5]), bq.Instance([0.0, 1.0], [0.5, 0.5], meta),
                     bq.generate(bq.exponential_mean(2.0), bq.exponential_mean(1.0), 30, seed=3)):
            copy = pickle.loads(pickle.dumps(inst))
            assert copy == inst and copy.meta == inst.meta
            assert not copy.releases.flags.writeable and not copy.sizes.flags.writeable
            with pytest.raises(AttributeError):
                copy.meta = None
            assert bq.busy_periods(copy) == bq.busy_periods(inst)

    def test_pickle_leaves_the_cache_behind(self):
        inst = bq.generate(bq.exponential_mean(2.0), bq.exponential_mean(1.0), 30, seed=3)
        bare = bq.Instance(inst.releases, inst.sizes, inst.meta)
        assert pickle.dumps(inst) == pickle.dumps(bare)


class TestGenerate:
    def test_deterministic_pattern(self):
        inst = bq.generate(bq.deterministic(2.0), bq.deterministic(1.0), 3, seed=0)
        assert np.array_equal(inst.releases, [0.0, 2.0, 4.0])
        assert np.array_equal(inst.sizes, [1.0, 1.0, 1.0])
        cycles = bq.busy_periods(inst)
        assert [c.N for c in cycles] == [1, 1, 1]
        assert [c.P for c in cycles] == [1.0, 1.0, 1.0]
        assert [c.I for c in cycles] == [None, 1.0, 1.0]

    def test_zero_cycles(self):
        inst = bq.generate(bq.exponential_mean(1.0), bq.exponential_mean(0.5), 0, seed=0)
        assert len(inst) == 0

    def test_exact_cycle_count(self):
        inst = bq.generate(bq.exponential_mean(1.25), bq.exponential_mean(1.0),
                           500, seed=3)
        assert len(bq.busy_periods(inst)) == 500

    def test_cycles_and_seed_must_be_integers(self):
        # the walk stops at exactly target_cycles busy periods, so a fraction
        # would draw blocks until memory ran out, and a float seed would run
        # as its floor
        arrival, size = bq.exponential_mean(2.0), bq.exponential_mean(1.0)
        with pytest.raises(TypeError):
            bq.generate(arrival, size, 10.5)
        with pytest.raises(TypeError):
            bq.generate(arrival, size, 10, seed=2.9)
        assert bq.generate(arrival, size, np.int64(10), seed=np.int64(2)) == \
            bq.generate(arrival, size, 10, seed=2)

    def test_unstable_propagates(self):
        with pytest.raises(bq.UnstableSystemError):
            bq.generate(bq.exponential_mean(1.0), bq.exponential_mean(1.0), 10, seed=0)

    def test_determinism(self):
        a = bq.generate(bq.exponential_mean(2.0), bq.exponential_mean(1.0), 100, seed=9)
        b = bq.generate(bq.exponential_mean(2.0), bq.exponential_mean(1.0), 100, seed=9)
        assert a == b

    def test_empirical_load(self):
        # busy fraction sum(P)/(sum(P)+sum(I)) -> rho within 3 SE at 1e4 cycles
        inst = bq.generate(bq.exponential_mean(1.25), bq.exponential_mean(1.0),
                           10_000, seed=14)
        cycles = bq.busy_periods(inst)
        p = np.array([c.P for c in cycles[1:]])
        tot = p + np.array([c.I for c in cycles[1:]])
        frac = p.sum() / tot.sum()
        resid = p - frac * tot
        se = math.sqrt(float(resid @ resid) / (len(p) - 1)) / (tot.mean() * math.sqrt(len(p)))
        assert abs(frac - 0.8) <= 3 * se


SIZE_LAWS = [bq.exponential_mean(1.0), bq.deterministic(1.0), bq.uniform(0.5, 1.5),
             bq.pareto(2.5), bq.hyperexponential([0.9, 0.1], [2.0, 0.2]),
             bq.scaled(bq.exponential_mean(1.0), 0.5)]
HYPER = SIZE_LAWS[4]


def stream_contract(size, rho, seed, cycles):
    """Check that generate's sizes and interarrival gaps are the first samples
    of substreams 1 and 0, whatever its block sizes; return how many blocks
    of gaps it drew."""
    arrival = bq.exponential_mean(bq.moments(size)[0] / rho)
    blocks = []
    real = instance_module.sample_block

    def counted(spec, stream, n):
        blocks.append(spec)
        return real(spec, stream, n)

    with mock.patch.object(instance_module, "sample_block", counted):
        inst = bq.generate(arrival, size, cycles, seed=seed)
    n = len(inst)
    sizes = bq.sample_block(size, bq.make_stream(seed, bq.SIZE_SUBSTREAM), n)
    gaps = bq.sample_block(arrival, bq.make_stream(seed, bq.ARRIVAL_SUBSTREAM), n - 1)
    assert inst.sizes.tobytes() == sizes.tobytes()
    assert inst.releases.tobytes() == np.concatenate(([0.0], np.cumsum(gaps))).tobytes()
    assert len(bq.busy_periods(inst)) == cycles
    return sum(spec is arrival for spec in blocks)


class TestGenerateStreamContract:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SIZE_LAWS), st.floats(0.2, 0.99),
           st.integers(0, 2**40), st.integers(1, 40))
    def test_any_spec(self, size, rho, seed, cycles):
        stream_contract(size, rho, seed, cycles)

    @pytest.mark.parametrize("size,rho,seed,cycles", [
        (HYPER, 0.95, 1, 1),                      # one long busy period
        (bq.exponential_mean(1.0), 0.95, 7, 3),   # high load
    ])
    def test_refilled_blocks(self, size, rho, seed, cycles):
        # the first block is too small here, so later blocks continue the streams
        assert stream_contract(size, rho, seed, cycles) > 1


class TestBusyPeriods:
    def test_two_job_cycle(self):
        cycles = bq.busy_periods(bq.Instance([0.0, 1.0], [3.0, 1.0]))
        assert cycles == [bq.CycleRecord(1, 2, 2, 4.0, None, 0.0, 4.0)]

    def test_empty(self):
        assert bq.busy_periods(bq.Instance([], [])) == []

    def test_walked_once_per_instance(self, monkeypatch):
        walks = []
        real = instance_module._walk
        monkeypatch.setattr(instance_module, "_walk", lambda *a: walks.append(1) or real(*a))
        inst = acceptance._random_instance(np.random.default_rng(2), 50)
        first = bq.busy_periods(inst)
        first.clear()                     # each call returns a new list
        again = bq.busy_periods(inst)
        assert again and again == bq.busy_periods(inst)
        for policy in bq.POLICY_NAMES:
            bq.simulate(inst, policy)
        assert len(walks) == 1
        # generate walks its jobs once, as it draws them, and hands that walk
        # over: none after it
        gen = bq.generate(bq.exponential_mean(1.25), bq.exponential_mean(1.0), 40, seed=8)
        assert len(walks) == 2
        bq.busy_periods(gen)
        for policy in bq.POLICY_NAMES:
            bq.simulate(gen, policy)
        assert len(walks) == 2

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([bq.exponential_mean(1.0), bq.deterministic(1.0),
                                 bq.pareto(2.5), bq.uniform(0.5, 1.5)]),
           rho=st.sampled_from([0.3, 0.8, 0.95]), seed=st.integers(0, 2**40),
           cycles=st.integers(0, 60))
    def test_generate_hands_over_the_walk(self, size, rho, seed, cycles):
        # the cycles generate keeps are those a fresh walk of its jobs gives
        inst = bq.generate(bq.exponential_mean(bq.moments(size)[0] / rho), size, cycles, seed=seed)
        walked = bq.busy_periods(bq.Instance(inst.releases, inst.sizes))
        assert repr(bq.busy_periods(inst)) == repr(walked)   # repr: exact floats
        assert len(walked) == cycles

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_cycle_invariants_random(self, seed):
        inst = acceptance._random_instance(np.random.default_rng(seed), 500)
        cycles = bq.busy_periods(inst)
        assert cycles[0].I is None
        assert sum(c.N for c in cycles) == len(inst)
        for c in cycles:
            assert c.P == pytest.approx(c.end - c.start, abs=0)
            assert c.N == c.last_job_id - c.first_job_id + 1
            work = float(inst.sizes[c.first_job_id - 1:c.last_job_id].sum())
            assert abs(work - c.P) < 1e-9
            if c.I is not None:
                assert c.I >= 0


class TestScaling:
    def test_exponent_examples(self):
        assert bq.scaling_exponent(bq.Instance([0.0], [0.3])) == -3
        assert 8 * 0.3 >= 2
        assert bq.scaling_exponent(bq.Instance([0.0], [2.0])) == 0
        assert bq.scaling_exponent(bq.Instance([0.0], [4.0])) == 1

    @given(st.floats(0.001, 8.0))
    @example(7.999999999999999)   # log2 rounds it up to 3
    def test_exponent_guarantee_random(self, bmin):
        g = bq.scaling_exponent(bq.Instance([0.0], [bmin]))
        assert 2.0 ** (-g) * bmin >= 2.0 > 2.0 ** (-g - 1) * bmin

    def test_empty_instance(self):
        with pytest.raises(EmptyInstanceError):
            bq.scaling_exponent(bq.Instance([], []))

    def test_scale_identity(self):
        inst = bq.Instance([0.0, 0.5], [0.3, 0.6])
        assert bq.scale(inst, 1.0) == inst

    def test_scale_elementwise(self):
        inst = bq.scale(bq.Instance([0.0, 0.5], [0.3, 0.6]), 8.0)
        assert np.array_equal(inst.releases, [0.0, 4.0])
        assert np.array_equal(inst.sizes, [2.4, 4.8])

    def test_scale_roundtrip_power_of_two(self):
        inst = bq.Instance([0.0, 0.7, 1.9], [1.3, 0.4, 2.2])
        assert bq.scale(bq.scale(inst, 2.0), 0.5) == inst

    @pytest.mark.parametrize("factor", [0.5, 2.0, 3.7])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_busy_periods_invariant_under_scale(self, factor, seed):
        inst = acceptance._random_instance(np.random.default_rng(seed), 300)
        before = bq.busy_periods(inst)
        after = bq.busy_periods(bq.scale(inst, factor))
        assert [c.N for c in before] == [c.N for c in after]
        # A power of two scales every record exactly.  Another factor moves
        # the walk's sequential sums by their rounding, which is relative to
        # the cycle's end: an idle time, the difference of two large times,
        # can move by far more than its own ulps.
        exact = math.frexp(factor)[0] == 0.5
        for b, a in zip(before, after):
            tol = 0.0 if exact else (len(inst) + 4) * 2.0 ** -52 * a.end
            assert abs(a.P - b.P * factor) <= tol
            assert (a.I is None) == (b.I is None)
            if b.I is not None:
                assert abs(a.I - b.I * factor) <= tol


class TestFileFormat:
    def test_parse_basic(self):
        inst = bq.parse(io.StringIO("# blindq-instance v1\n0 3\n1 1\n"))
        assert inst == bq.Instance([0.0, 1.0], [3.0, 1.0])

    def test_round_trip_exact(self):
        inst = bq.Instance([0.0, 0.1, 2.5000000001], [3.0, 1e-7, 2.0])
        again = bq.parse(io.StringIO(bq.serialize(inst)))
        assert again == inst

    def test_serialize_normalizes(self):
        text = "# blindq-instance v1\n0.50 1.0\n2 2.50\n"
        inst = bq.parse(io.StringIO(text))
        normalized = bq.serialize(inst)
        assert normalized == bq.serialize(bq.parse(io.StringIO(normalized)))

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            bq.parse(io.StringIO("0 3\n1 1\n"))
        assert err.value.line == 1

    def test_duplicate_release(self):
        with pytest.raises(ParseError) as err:
            bq.parse(io.StringIO("# blindq-instance v1\n0 3\n0 1\n"))
        assert err.value.line == 3

    def test_bad_size(self):
        with pytest.raises(ParseError) as err:
            bq.parse(io.StringIO("# blindq-instance v1\n0 -3\n"))
        assert err.value.line == 2

    def test_malformed_line(self):
        with pytest.raises(ParseError) as err:
            bq.parse(io.StringIO("# blindq-instance v1\n0 3 9\n"))
        assert err.value.line == 2

    def test_file_round_trip(self, tmp_path):
        inst = bq.generate(bq.exponential_mean(1.0), bq.exponential_mean(0.5), 20, seed=4)
        path = tmp_path / "inst.txt"
        bq.serialize(inst, path)
        assert bq.parse(path) == inst

    @given(st.lists(
        st.tuples(st.floats(0.001, 50.0), st.floats(1e-6, 100.0)),
        min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, pairs):
        rel = np.cumsum([g for g, _ in pairs]) - pairs[0][0]
        inst = bq.Instance(rel, [s for _, s in pairs])
        assert bq.parse(io.StringIO(bq.serialize(inst))) == inst


class TestCyclesCsv:
    def test_columns_and_blank_idle(self):
        inst = bq.Instance([0.0, 1.0, 6.0], [3.0, 1.0, 1.0])
        text = bq.cycles_to_csv(bq.busy_periods(inst))
        lines = text.strip().split("\n")
        assert lines[0] == "cycle_index,N,P,I,start,end"
        assert lines[1].split(",")[3] == ""     # first cycle has no idle record
        assert len(lines) == 3


# --- the text layer against its line-by-line forms (tests/reference.py) ----------

# Every str.splitlines break but \u2029, and a space that joins two lines
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", " "]
HEADERS = [FILE_HEADER, f"  {FILE_HEADER}\t", "#blindq-instance v1",
           "# blindq-instance v2", "", f"{FILE_HEADER} # v1", "0 1"]
# Fields float() and numpy's reader may judge apart or that fail later checks:
# underscores, non-finite and overflowing values, non-ASCII digits, hex.
ODD_FIELDS = ["1_000", "nan", "inf", "-inf", "Infinity", "1e-400", "1e400", "\u0663",
              "\uff11.5", "0", "-0.0", "-1", "abc", "0x10", "+1.5", ".5", "5.", "1e", "1,5"]


@st.composite
def instance_texts(draw):
    """Instance file texts, from valid to broken: header variants, blank
    lines, full-line and inline '#', 1-3 fields per line separated by
    spaces and tabs, every Python line break, duplicate releases, negative
    first releases, non-positive sizes and odd fields."""
    noise = draw(st.sampled_from([0, 0, 1, 3]))   # how often a line goes wrong

    def odd():
        return noise > 0 and draw(st.integers(0, 12 // noise)) == 0

    plain = draw(st.booleans())   # '\n' line ends only
    lines = [draw(st.sampled_from(HEADERS)) if odd() else FILE_HEADER]
    fmts = [repr, "{:.17g}".format, "{:.17e}".format] + ["{:.3g}".format] * (noise > 0)
    fmt = draw(st.sampled_from(fmts))
    t = draw(st.sampled_from([0.0, -0.0, 0.25])) - (1.0 if odd() else 0.0)
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t \t"])))
            continue
        if odd():
            lines.append(draw(st.sampled_from(["# note", "  #", "#1 2"])))
            continue
        t += 0.0 if odd() else draw(st.one_of(st.sampled_from([0.1, 0.5, 2.5e-7, 3.0]),
                                               st.floats(1e-3, 1e6)))
        size = (draw(st.sampled_from([0.0, -1.0, math.nan, math.inf])) if odd()
                else draw(st.one_of(st.sampled_from([1.0, 0.3, 1e-9]),
                                    st.floats(5e-324, 1e300))))
        fields = [fmt(t), fmt(size)]
        if odd():
            fields[draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_FIELDS))
        if odd():
            fields = (fields + ["7"])[:draw(st.sampled_from([1, 3]))]
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(fields)
                     + draw(st.sampled_from(["", " "])) + (" # inline" if odd() else ""))
    breaks = [draw(st.just("\n") if plain else st.sampled_from(LINE_BREAKS))
              for _ in lines]
    if draw(st.booleans()):
        breaks[-1] = ""   # no line break at the end of the file
    return "".join(line + end for line, end in zip(lines, breaks))


def parse_outcome(parse, source):
    """The bits an instance holds, or the ParseError's line and message."""
    try:
        inst = parse(source)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    return "ok", inst.releases.tobytes(), inst.sizes.tobytes()


class TestParseMatchesLineScan:
    @pytest.mark.filterwarnings("error")   # numpy's "input contained no data" too
    @settings(max_examples=500, deadline=None)
    @given(text=instance_texts())
    @example(text=FILE_HEADER)                             # header only
    @example(text=FILE_HEADER + "\n \n\t\n")               # no field
    @example(text=FILE_HEADER + "\n1_000 2\n2000 1\n")     # float() only
    @example(text=FILE_HEADER + "\n0 1\n\u0663 2\n")       # non-ASCII digit
    @example(text=FILE_HEADER + "\n0 1e-400\n")            # size rounds to 0
    @example(text=FILE_HEADER + "\n0 1\n1 nan\n")
    @example(text=FILE_HEADER + "\r\n0 1\r\n2 1\r\n")
    @example(text=FILE_HEADER + "\n0 1\n1 1 1\n2 1 1\n")   # 3 fields on every row
    @example(text=FILE_HEADER + "\n0\n1\n")                # 1 field on every row
    @example(text=FILE_HEADER + "\n0\r1\n")                # two lines of one field
    @example(text=FILE_HEADER + "\n0\x1c1\n")
    @example(text=FILE_HEADER + "\n0\x0c1\n")
    def test_same_values_and_errors(self, text):
        expected = parse_outcome(reference.parse, io.StringIO(text))
        assert parse_outcome(bq.parse, io.StringIO(text)) == expected
        assert parse_outcome(bq.parse, io.BytesIO(text.encode())) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1e12), st.floats(5e-324, 1e300)),
                    min_size=1, max_size=40))
    def test_serialize_output_skips_line_scan(self, pairs):
        # numpy's reader takes every file serialize writes; the line scan is
        # only for hand-written files and errors
        rel = np.unique([r for r, _ in pairs])
        inst = bq.Instance(rel, [s for _, s in pairs][:rel.size])
        text = bq.serialize(inst)
        assert text == reference.serialize(inst)
        with mock.patch.object(instance_module, "_scan", side_effect=AssertionError):
            assert bq.parse(io.StringIO(text)) == inst
            assert bq.parse(io.BytesIO(text.encode())) == inst

    def test_instance_file_skips_line_scan(self, tmp_path):
        inst = bq.generate(bq.exponential_mean(2.0), bq.exponential_mean(1.0), 200, seed=8)
        path = tmp_path / "inst.txt"
        bq.serialize(inst, path)
        with mock.patch.object(instance_module, "_scan", side_effect=AssertionError):
            again = bq.parse(path)
        assert again.releases.tobytes() == inst.releases.tobytes()
        assert again.sizes.tobytes() == inst.sizes.tobytes()
        assert again.releases.flags.c_contiguous and again.sizes.flags.c_contiguous

    def test_line_scan_names_the_line(self):
        # numpy's reader rejects the file; the scan names the first bad line
        with pytest.raises(ParseError, match="line 4: non-numeric field"):
            bq.parse(io.StringIO(FILE_HEADER + "\n0 1\n\n2 x\n3 y\n"))

    def test_utf8_bytes(self):
        text = FILE_HEADER + "\n# José's jobs\n0 3\n1 1\n"
        assert bq.parse(io.BytesIO(text.encode())) == bq.Instance([0.0, 1.0], [3.0, 1.0])

    def test_bytes_not_utf8(self, tmp_path):
        data = (FILE_HEADER + "\n0 3\n").encode() + b"1 \xff\n"
        with pytest.raises(ParseError, match="line 3: byte 0xff is not UTF-8") as err:
            bq.parse(io.BytesIO(data))
        assert err.value.line == 3
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\r".join([FILE_HEADER.encode(), b"0 3", b"# caf\xe9", b"1 1"]))
        with pytest.raises(ParseError) as err:
            bq.parse(path)
        assert err.value.line == 3


def csv_columns(n):
    """n-row columns of the value types the CSV writer meets: arrays of
    floats, ints and bools; lists and tuples of floats (non-finite too),
    ints, bools, strings, None and numpy scalars."""
    scalar = st.one_of(
        st.floats(), st.integers(), st.booleans(), st.none(),
        st.text(st.characters(blacklist_characters=",\n\r"), max_size=4),
        st.floats().map(np.float64), st.floats(width=32).map(np.float32),
        st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_))
    column = st.one_of(
        st.lists(st.floats(), min_size=n, max_size=n).map(np.array),
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n).map(np.array),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
        st.lists(scalar, min_size=n, max_size=n),
        st.lists(st.one_of(st.none(), st.floats()), min_size=n, max_size=n).map(tuple))
    return st.lists(column, min_size=1, max_size=6)


class TestWriteCsvMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_text(self, data):
        columns = data.draw(st.integers(0, 6).flatmap(csv_columns))
        header = [f"c{k}" for k in range(len(columns))]
        assert instance_module.write_csv(header, columns) == reference.write_csv(header, columns)

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9000])
    def test_chunk_edges(self, n, tmp_path):
        rng = np.random.default_rng(n)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        special = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 0.1, 1e16] * (n // 49 + 1)
        floats[::7] = special[:len(floats[::7])]
        idle = [None] + floats[1:].tolist()
        with np.errstate(over="ignore"):   # float32 scalars, inf beyond its range
            singles = list(floats.astype(np.float32))
        columns = [np.arange(1, n + 1), floats, idle, (floats > 0).tolist(), singles]
        header = ["id", "x", "idle", "pos", "x32"]
        path = tmp_path / "out.csv"
        assert instance_module.write_csv(header, columns, path) is None
        text = path.read_text()
        assert text == reference.write_csv(header, columns)
        assert text.count("\n") == n + 1

    def test_path_write_holds_one_chunk(self, tmp_path):
        # 200k rows of an int and four float columns: the file is about 16 MB,
        # and written chunk by chunk the writer holds well under 8 MB of it
        n = 200_000
        rng = np.random.default_rng(7)
        columns = [np.arange(1, n + 1)] + [rng.exponential(size=n) for _ in range(4)]
        header = ["id", "a", "b", "c", "d"]
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert instance_module.write_csv(header, columns, path) is None
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert path.read_text() == instance_module.write_csv(header, columns)
