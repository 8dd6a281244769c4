import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy import integrate

import blindq as bq
from blindq.distributions import uniforms
from blindq.errors import ParameterError, UnstableSystemError

# seeds across the range make_stream masks to 64 bits, negative ones included
SEEDS = st.integers(-2**64, 2**64)


def quad_moments(spec):
    """Independent oracle: mean and second moment by numerical quadrature
    against the density of each supported kind."""
    k, p = spec.kind, spec.params
    if k == "exponential":
        pdf, lo, hi = (lambda x: p[0] * math.exp(-p[0] * x)), 0.0, np.inf
    elif k == "uniform":
        pdf, lo, hi = (lambda x: 1.0 / (p[1] - p[0])), p[0], p[1]
    elif k == "pareto":
        b = p[0]
        pdf, lo, hi = (lambda x: b * x ** (-b - 1.0)), 1.0, np.inf
    elif k == "hyperexponential":
        m = len(p) // 2
        w, rates = [wi / sum(p[:m]) for wi in p[:m]], p[m:]
        pdf = lambda x: sum(wi * ri * math.exp(-ri * x) for wi, ri in zip(w, rates))
        lo, hi = 0.0, np.inf
    else:
        raise ValueError(k)
    mean = integrate.quad(lambda x: x * pdf(x), lo, hi)[0]
    second = integrate.quad(lambda x: x * x * pdf(x), lo, hi)[0]
    return mean, second


class TestMoments:
    def test_exponential_closed_form(self):
        assert bq.moments(bq.exponential_mean(1.0)) == (1.0, 2.0, math.inf)

    def test_exponential_mean_keeps_the_rate_exactly(self):
        # the tests write exponential laws by their means 1 / rate
        for rate in (1.0, 2.0, 0.8, 5.0):
            assert bq.exponential_mean(1.0 / rate).params == (rate,)

    def test_deterministic(self):
        assert bq.moments(bq.deterministic(2.0)) == (2.0, 4.0, math.inf)

    def test_pareto_heavy(self):
        mean, second, alpha = bq.moments(bq.pareto(1.5))
        assert mean == pytest.approx(3.0)          # 1.5 / 0.5
        assert second == math.inf
        assert alpha == 1.5

    def test_pareto_second_moment_boundary(self):
        assert math.isinf(bq.moments(bq.pareto(2.0))[1])
        assert math.isinf(bq.moments(bq.pareto(1.9))[1])
        assert bq.moments(bq.pareto(2.5))[1] == pytest.approx(2.5 / 0.5)

    @pytest.mark.parametrize("spec", [
        bq.exponential_mean(1.25),
        bq.uniform(0.5, 1.5),
        bq.pareto(2.5),
        bq.hyperexponential([0.4, 0.6], [2.0, 0.5]),
    ])
    def test_against_quadrature(self, spec):
        mean, second = quad_moments(spec)
        got = bq.moments(spec)
        assert got[0] == pytest.approx(mean, rel=1e-8)
        assert got[1] == pytest.approx(second, rel=1e-8)

    def test_scaled_moments(self):
        inner = bq.exponential_mean(1.0)
        mean, second, alpha = bq.moments(bq.scaled(inner, 0.5))
        assert mean == pytest.approx(2.0)
        assert second == pytest.approx(8.0)
        assert alpha == math.inf


class TestStreams:
    def test_seeding_is_pure(self):
        a = bq.make_stream(42, 0).random(10)
        b = bq.make_stream(42, 0).random(10)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = bq.make_stream(42, 0).random()
        b = bq.make_stream(42, 1).random()
        assert a != b

    def test_partitioning_invariance(self):
        s1 = bq.make_stream(7, 3)
        s2 = bq.make_stream(7, 3)
        a = s1.random(5)
        b = np.array([s2.random() for _ in range(5)])
        assert np.array_equal(a, b)
        # both streams stand at the sixth uniform
        assert s1.random() == s2.random() == bq.make_stream(7, 3).random(6)[5]

    def test_counter_consumption_per_kind(self):
        for spec, n in [(bq.exponential_mean(1.0), 1), (bq.deterministic(1.0), 0),
                        (bq.uniform(0.5, 1.5), 1), (bq.pareto(2.0), 1),
                        (bq.hyperexponential([0.5, 0.5], [1.0, 2.0]), 2),
                        (bq.scaled(bq.exponential_mean(1.0), 0.5), 1)]:
            s = bq.make_stream(1, 0)
            bq.sample_block(spec, s, 1)
            # the next draw is the fresh stream's (n+1)-th uniform
            assert s.random() == bq.make_stream(1, 0).random(n + 1)[n], spec.kind


class TestUniforms:
    """uniforms(seed, sub, start, n) is a window of make_stream(seed, sub)."""

    @settings(max_examples=300, deadline=None)
    @given(SEEDS, st.integers(0, 3), st.integers(0, 80), st.integers(0, 40))
    def test_window_of_the_stream(self, seed, sub, start, n):
        expected = bq.make_stream(seed, sub).random(start + n)[start:]
        assert uniforms(seed, sub, start, n).tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(SEEDS, st.integers(0, 50), st.integers(1, 3), st.integers(1, 20))
    def test_starts_off_the_philox_block(self, seed, block, offset, n):
        # start = 4 * block + offset sits inside a four-uniform Philox block
        start = 4 * block + offset
        expected = bq.make_stream(seed, 2).random(start + n)[start:]
        assert uniforms(seed, 2, start, n).tobytes() == expected.tobytes()

    def test_key_must_be_an_integer(self):
        # a fraction would run as its floor; numpy integers keep their bits,
        # each key taken modulo 2**64
        for seed, sub in ((1.5, 2), (1, 2.0)):
            with pytest.raises(TypeError):
                bq.make_stream(seed, sub)
            with pytest.raises(TypeError):
                uniforms(seed, sub, 0, 4)
        for seed in (np.int64(7), np.int64(-1), np.uint64(2**64 - 1)):
            expected = bq.make_stream(int(seed) % 2**64, 2).random(6).tobytes()
            assert bq.make_stream(seed, np.int64(2)).random(6).tobytes() == expected
            assert uniforms(seed, np.int64(2), 0, 6).tobytes() == expected
        inst = bq.generate(bq.exponential_mean(2.0), bq.exponential_mean(1.0), 5, seed=1)
        with pytest.raises(TypeError):
            bq.simulate(inst, "rmlf", seed=1.5)

    def test_empty_window(self):
        for start in (0, 1, 5, 1000):
            assert uniforms(3, 2, start, 0).size == 0

    @settings(max_examples=100, deadline=None)
    @given(SEEDS, SEEDS, st.integers(0, 30), st.integers(0, 30))
    def test_interleaved_calls(self, seed_a, seed_b, k, m):
        # a call for another key between two windows changes neither
        first = uniforms(seed_a, 0, 0, k)
        other = uniforms(seed_b, 1, m, 7)
        rest = uniforms(seed_a, 0, k, 9)
        stream = bq.make_stream(seed_a, 0).random(k + 9)
        assert np.concatenate([first, rest]).tobytes() == stream.tobytes()
        assert other.tobytes() == bq.make_stream(seed_b, 1).random(m + 7)[m:].tobytes()

    def test_threads_draw_concurrently(self):
        # more threads than cores, switching often: a call re-keyed by
        # another thread between its key and its draw would return the
        # other key's uniforms
        cases = [(seed, seed % 3, (7 * seed) % 41, 1 + seed % 17) for seed in range(-200, 200)]
        expected = {c: bq.make_stream(c[0], c[1]).random(c[2] + c[3])[c[2]:].tobytes()
                    for c in cases}
        n_threads = 4
        start = threading.Barrier(n_threads)
        wrong = []

        def worker(mine):
            start.wait()
            for _ in range(20):
                wrong.extend(c for c in mine if uniforms(*c).tobytes() != expected[c])

        threads = [threading.Thread(target=worker, args=(cases[k::n_threads],))
                   for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []


class TestSampling:
    def test_deterministic_sample(self):
        assert bq.sample_block(bq.deterministic(1.0), bq.make_stream(0, 0), 1)[0] == 1.0

    def test_scaled_deterministic(self):
        spec = bq.scaled(bq.deterministic(1.0), 0.5)
        assert bq.sample_block(spec, bq.make_stream(0, 0), 1)[0] == 2.0

    def test_exponential_law_of_large_numbers(self):
        # mean over 1e6 draws within 5 standard errors of the analytic mean
        s = bq.make_stream(2024, 1)
        xs = bq.sample_block(bq.exponential_mean(1.0), s, 1_000_000)
        assert abs(xs.mean() - 1.0) < 5.0 / math.sqrt(1_000_000)

    @pytest.mark.parametrize("spec", [
        bq.exponential_mean(0.5),
        bq.uniform(0.25, 1.75),
        bq.pareto(3.0),
        bq.hyperexponential([0.3, 0.7], [0.5, 3.0]),
        bq.scaled(bq.exponential_mean(1.0), 0.8),
        bq.deterministic(0.7),
    ])
    def test_mean_within_five_se(self, spec):
        mean, second, _ = bq.moments(spec)
        n = 1_000_000
        xs = bq.sample_block(spec, bq.make_stream(77, 1), n)
        var = second - mean * mean
        se = math.sqrt(var / n)
        assert abs(xs.mean() - mean) <= max(5.0 * se, 1e-12)

    def test_heavy_tail_mean_loose(self):
        # infinite variance: no CLT rate, just a loose consistency check
        xs = bq.sample_block(bq.pareto(1.5), bq.make_stream(5, 1), 1_000_000)
        assert abs(xs.mean() - 3.0) < 0.5

    def test_quantile_coupling_of_scaled(self):
        base = bq.hyperexponential([0.5, 0.5], [1.0, 4.0])
        spec = bq.scaled(base, 0.25)
        a = bq.sample_block(base, bq.make_stream(11, 1), 1000)
        b = bq.sample_block(spec, bq.make_stream(11, 1), 1000)
        assert np.array_equal(b, a / 0.25)

    def test_samples_strictly_positive(self):
        for spec in (bq.exponential_mean(0.2), bq.uniform(0.1, 0.2), bq.pareto(1.2),
                     bq.hyperexponential([1.0], [3.0])):
            xs = bq.sample_block(spec, bq.make_stream(3, 1), 10_000)
            assert np.all(xs > 0)


class TestSystemLoad:
    def test_basic_arithmetic(self):
        rho, mu = bq.system_load(bq.exponential_mean(1.25), bq.exponential_mean(1.0))
        assert rho == pytest.approx(0.8)
        assert mu == pytest.approx(0.25)

    def test_example_model_load_equals_divisor(self):
        arrival = bq.scaled(bq.exponential_mean(1.0), 0.9)
        rho, _ = bq.system_load(arrival, bq.exponential_mean(1.0))
        assert rho == pytest.approx(0.9)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystemError):
            bq.system_load(bq.deterministic(1.0), bq.deterministic(1.0))


class TestValidationAndText:
    @pytest.mark.parametrize("bad", [
        lambda: bq.DistributionSpec("exponential", (0.0,)),
        lambda: bq.exponential_mean(-1.0),
        lambda: bq.deterministic(0.0),
        lambda: bq.uniform(0.0, 1.0),
        lambda: bq.uniform(2.0, 1.0),
        lambda: bq.pareto(1.0),
        lambda: bq.hyperexponential([0.5], [1.0, 2.0]),
        lambda: bq.hyperexponential([], []),
        lambda: bq.scaled(bq.exponential_mean(1.0), 1.0),
        lambda: bq.scaled(bq.exponential_mean(1.0), 0.0),
        # specs built directly, without a factory
        lambda: bq.generate(bq.DistributionSpec("exponential", (-1.0,)), bq.exponential_mean(1.0),
                            10),
        lambda: bq.generate(bq.DistributionSpec("nosuch", (1.0,)), bq.exponential_mean(1.0),
                            10),
        lambda: bq.generate(bq.DistributionSpec("scaled", (0.5,)), bq.exponential_mean(1.0),
                            10),
        # weights whose sum overflows, or whose share underflows to 0
        lambda: bq.hyperexponential([math.inf, 1.0], [1.0, 2.0]),
        lambda: bq.hyperexponential([1e308, 1e308], [1.0, 2.0]),
        lambda: bq.hyperexponential([5e-324, 1e300], [1.0, 2.0]),
        # infinite parameters: nan or infinite moments
        lambda: bq.parse_spec("pareto:inf"),
        lambda: bq.parse_spec("det:inf"),
        lambda: bq.parse_spec("uniform:1,inf"),
        lambda: bq.parse_spec("exp:1e-320"),      # the rate 1/1e-320 overflows
        lambda: bq.parse_spec("hyperexp:1;inf"),
    ])
    def test_invalid_parameters(self, bad):
        with pytest.raises(ParameterError):
            bad()

    @pytest.mark.parametrize("text", [
        "exp:1.25", "det:1", "uniform:0.5,1.5", "pareto:1.5",
        "hyperexp:0.4,0.6;2,0.5", "scaled:0.9:exp:1",
    ])
    def test_text_round_trip(self, text):
        spec = bq.parse_spec(text)
        again = bq.parse_spec(bq.format_spec(spec))
        assert again == spec

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(
        *[st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)] * (2 * k))))
    def test_hyperexponential_text_round_trip(self, params):
        # the spec keeps its weights as given, so its text names the same law
        k = len(params) // 2
        try:
            spec = bq.hyperexponential(params[:k], params[k:])
        except ParameterError:
            reject()   # weights no law has: their sum overflows, or a share underflows
        assert bq.parse_spec(bq.format_spec(spec)) == spec

    def test_hyperexponential_weights_normalised_where_used(self):
        # weights summing to 10 give the law of the same weights summing to 1
        a = bq.hyperexponential([1.0, 1.0, 8.0], [3.0, 2.0, 1.0])
        b = bq.hyperexponential([0.1, 0.1, 0.8], [3.0, 2.0, 1.0])
        assert bq.moments(a) == pytest.approx(bq.moments(b), rel=1e-15)
        assert np.allclose(bq.sample_block(a, bq.make_stream(4, 1), 1000),
                           bq.sample_block(b, bq.make_stream(4, 1), 1000), rtol=1e-15)

    def test_exp_text_uses_mean(self):
        spec = bq.parse_spec("exp:1.25")
        assert bq.moments(spec)[0] == pytest.approx(1.25)

    def test_parse_errors(self):
        for text in ("nosuch:1", "exp:abc", "uniform:1", "scaled:0.5:junk:1"):
            with pytest.raises(ParameterError):
                bq.parse_spec(text)
