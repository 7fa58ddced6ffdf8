"""Rejection and direct manifold samplers, determinism, benchmark output."""

import itertools
import math
import platform
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkekin import (
    JointLayout,
    SamplerConfig,
    benchmark,
    build_transform,
    manifold_residual,
    sample,
    sample_direct,
    sample_direct_batched,
    sample_rejection_independent,
    sample_rejection_resolved,
)
from clarkekin.clarke import TWO_PI
from clarkekin.csvio import csv_chunks, displacement_header, read_csv, write_text
from clarkekin.sampling import (
    _BLOCK_DOUBLES,
    _DIRECT_BLOCK,
    _HIST_BLOCK,
    ALL_METHODS,
    DEFAULT_ITERATION_CAP,
    DIRECT_METHODS,
    _joint_counts,
    _zero_sum_rows,
    histogram_csv,
    stats_csv,
)

D = 0.001  # 1 mm radius, the desk-scale benchmark geometry
RHO_MAX = D * np.pi


def config3(seed=0, rho_min=-RHO_MAX, rho_max=RHO_MAX, eps=1e-5):
    return SamplerConfig(
        layout=JointLayout(n=3, d=D), rho_min=rho_min, rho_max=rho_max, rounding_epsilon=eps, seed=seed
    )


def per_draw_a_oracle(cfg, k, iteration_cap=DEFAULT_ITERATION_CAP):
    """Method (a) with one draw per iteration: (columns, iterations)."""
    n = cfg.layout.n
    span = cfg.rho_max - cfg.rho_min
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    columns = np.empty((n, k))
    accepted = 0
    iterations = 0
    while accepted < k:
        if iterations >= iteration_cap:
            raise RuntimeError(
                f"method (a) exceeded {iteration_cap} attempts with only "
                f"{accepted}/{k} samples accepted; widen rounding_epsilon or raise the cap"
            )
        candidate = cfg.rho_min + span * rng.random(n)
        iterations += 1
        if round(float(candidate.sum()) / cfg.rounding_epsilon) == 0:
            columns[:, accepted] = candidate
            accepted += 1
    return columns, iterations


def per_draw_b_oracle(cfg, k, iteration_cap=DEFAULT_ITERATION_CAP):
    """Method (b) with one draw per iteration: (columns, iterations)."""
    span = cfg.rho_max - cfg.rho_min
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    columns = np.empty((3, k))
    accepted = 0
    iterations = 0
    while accepted < k:
        if iterations >= iteration_cap:
            raise RuntimeError(
                f"method (b) exceeded {iteration_cap} attempts with only "
                f"{accepted}/{k} samples accepted"
            )
        pair = cfg.rho_min + span * rng.random(2)
        rho1 = -(pair[0] + pair[1])
        iterations += 1
        if cfg.rho_min <= rho1 <= cfg.rho_max:
            columns[0, accepted] = rho1
            columns[1, accepted] = pair[0]
            columns[2, accepted] = pair[1]
            accepted += 1
    return columns, iterations


SAMPLER_AND_ORACLE = {
    "a": (sample_rejection_independent, per_draw_a_oracle),
    "b": (sample_rejection_resolved, per_draw_b_oracle),
}


# The radial laws written out here, not taken from DIRECT_METHODS, so that a
# wrong law in the library fails the bitwise tests: amplitude L from uniforms u.
RADIAL_LAW_ORACLES = {
    "line": lambda cfg, u: cfg.rho_min + (cfg.rho_max - cfg.rho_min) * u,
    "disk": lambda cfg, u: cfg.rho_max * np.sqrt(u),
    "annulus": lambda cfg, u: np.sqrt(cfg.rho_min**2 + (cfg.rho_max**2 - cfg.rho_min**2) * u),
}


def trig_direct_columns_oracle(cfg, radial, u2):
    """Direct-method columns from cos(psi) and sin(psi) of the layout, recomputed per call."""
    theta = TWO_PI * u2[:, 0]
    amp = RADIAL_LAW_ORACLES[radial](cfg, u2[:, 1])
    xi_re = amp * np.cos(theta)
    xi_im = amp * np.sin(theta)
    psi = cfg.layout.psi
    return np.cos(psi)[:, None] * xi_re[None, :] + np.sin(psi)[:, None] * xi_im[None, :]


def per_sample_direct_oracle(cfg, k, radial):
    """Direct sampling with one (1, 2) draw of uniforms per sample, each column from the trig oracle."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    columns = np.empty((cfg.layout.n, k))
    for i in range(k):
        columns[:, i : i + 1] = trig_direct_columns_oracle(cfg, radial, rng.random((1, 2)))
    return columns


def resolved_rate_oracle(cfg):
    """Method (b)'s chance of acceptance for continuous candidates, in exact arithmetic.

    The candidates are uniform on [rho_min, rho_min + span], span rounded as
    the sampler rounds it; their sum u + v has a triangular density on
    [2*rho_min, 2*rho_min + 2*span], and rho_1 = -(u + v) is accepted when
    the sum lies in [-rho_max, -rho_min].
    """
    lo, span = Fraction(cfg.rho_min), Fraction(cfg.rho_max - cfg.rho_min)

    def cdf(sum_):
        t = min(max((sum_ - 2 * lo) / span, Fraction(0)), Fraction(2))
        return t * t / 2 if t <= 1 else 1 - (2 - t) ** 2 / 2

    return float(cdf(-Fraction(cfg.rho_min)) - cdf(-Fraction(cfg.rho_max)))


def independent_rate_oracle(cfg):
    """Method (a)'s chance of acceptance for continuous candidates: P(|sum| <= eps/2).

    The candidates are rho_min + span*U, so the sum is n*rho_min + span*S,
    S the Irwin-Hall sum of n uniforms, whose CDF is the alternating sum
    sum_j (-1)**j * C(n, j) * (x - j)**n / n! over j <= x. In floats that
    sum is stable only for small n: its terms reach C(n, n/2) * n**n / n!,
    about 1.3e3 at n = 6 (an absolute error near 1e-13 on a chance near
    1e-3) but 6e44 at n = 64, where every digit cancels.
    """
    n, span = cfg.layout.n, cfg.rho_max - cfg.rho_min

    def cdf(x):
        x = min(max(x, 0.0), float(n))
        return sum((-1) ** j * math.comb(n, j) * (x - j) ** n for j in range(math.floor(x) + 1)) / math.factorial(n)

    half = 0.5 * cfg.rounding_epsilon
    return cdf((half - n * cfg.rho_min) / span) - cdf((-half - n * cfg.rho_min) / span)


def pooled_histograms_oracle(cfg, k, methods, runs, vectorized, annulus_rho_min):
    """Per method, the columns of every run pooled, then one np.histogram per joint."""
    edges = np.linspace(cfg.rho_min, cfg.rho_max, 51)
    histograms = []
    for mi, method in enumerate(methods):
        method_cfg = replace(cfg, rho_min=annulus_rho_min) if method == "e" else cfg
        seeds = [
            int(np.random.SeedSequence(cfg.seed, spawn_key=(mi, run)).generate_state(1, np.uint64)[0])
            for run in range(runs)
        ]
        pooled = np.concatenate(
            [sample(replace(method_cfg, seed=seed), k, method, vectorized)[0].columns for seed in seeds], axis=1
        )
        histograms.append(np.vstack([np.histogram(pooled[j], bins=edges)[0] for j in range(cfg.layout.n)]))
    return edges, histograms


def peak_bytes(fn):
    """fn's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def recording_rng(shapes):
    """A stand-in for sampling._rng whose generators append the shape of every random() draw to shapes."""

    class Recording:
        def __init__(self, seed):
            self.rng = np.random.Generator(np.random.PCG64(seed))

        def random(self, shape):
            shapes.append(shape)
            return self.rng.random(shape)

    return Recording


class NoDraws:
    """A stand-in for sampling._rng for a run that must be refused before its first draw."""

    def __init__(self, seed):
        pass

    def random(self, shape):
        raise AssertionError("drew before refusing")


def stats_csv_oracle(results):
    """The stats table joined value by value as "%.17g"."""
    lines = ["method,time_s,factor,iterations,resamples,success_rate"]
    for r in results:
        values = [r.time_mean, r.factor, r.iterations_mean, r.resamples_mean, r.success_rate]
        lines.append(",".join([r.method] + ["%.17g" % v for v in values]))
    return "\n".join(lines) + "\n"


def histogram_csv_oracle(result, joint):
    """One bin per line: its two edges as 17 significant digits, then the integer count."""
    lines = ["bin_lo,bin_hi,count"]
    counts = result.histograms[joint]
    for lo, hi, c in zip(result.bin_edges[:-1], result.bin_edges[1:], counts):
        lines.append("%.17g,%.17g,%d" % (lo, hi, int(c)))
    return "\n".join(lines) + "\n"


@st.composite
def rejection_cases(draw):
    """(method, config, k) with at most about 10^5 draws per case.

    Method (a) draws asymmetric bounds [-scale*(1 - t), scale*(1 + t)] at
    scales from 1e-150 to 1e150, so the block filter's margin is checked at
    every scale; method (b) keeps the symmetric desk-scale bounds.
    """
    method = draw(st.sampled_from("ab"))
    n = draw(st.integers(3, 64)) if method == "a" else 3
    scale, tilt = RHO_MAX, 0.0
    if method == "a":
        scale = 10.0 ** draw(st.floats(-150, 150))
        # The joint sum has mean n*scale*t and deviation scale*sqrt(n/3), so
        # zero lies within one deviation of the mean.
        tilt = draw(st.floats(-1.0, 1.0)) / math.sqrt(3.0 * n)
    # The joint sum has density about exp(-z**2/2)/(scale*sqrt(2*pi*n/3)) at
    # zero, z = sqrt(3n)*t, so this epsilon accepts about `rate` of the
    # draws of method (a).
    rate = draw(st.floats(3e-3, 0.3))
    eps = rate * scale * math.sqrt(2.0 * math.pi * n / 3.0) * math.exp(1.5 * n * tilt**2)
    cfg = SamplerConfig(
        layout=JointLayout(n=n, d=D),
        rho_min=-scale * (1.0 - tilt),
        rho_max=scale * (1.0 + tilt),
        rounding_epsilon=eps,
        seed=draw(st.integers(0, 2**63)),
    )
    return method, cfg, draw(st.integers(0, 200))


class TestBlockDrawsMatchPerDrawOracle:
    @settings(max_examples=120, deadline=None)
    @given(rejection_cases())
    def test_bit_identical_to_one_draw_per_iteration(self, case):
        method, cfg, k = case
        sampler, oracle = SAMPLER_AND_ORACLE[method]
        batch, stats = sampler(cfg, k)
        columns, iterations = oracle(cfg, k)
        assert np.array_equal(batch.columns, columns)
        assert stats.iterations == iterations
        assert stats.resamples == iterations - k
        assert stats.success_rate == (1.0 if iterations == 0 else k / iterations)

    @pytest.mark.parametrize("method", ["a", "b"])
    def test_k_th_hit_on_the_cap_succeeds(self, method):
        sampler, oracle = SAMPLER_AND_ORACLE[method]
        cfg = config3(seed=21, eps=1e-4)
        columns, iterations = oracle(cfg, 40)
        batch, stats = sampler(cfg, 40, iteration_cap=iterations)
        assert np.array_equal(batch.columns, columns)
        assert stats.iterations == iterations

    @pytest.mark.parametrize("method", ["a", "b"])
    def test_one_below_the_cap_raises(self, method):
        sampler, oracle = SAMPLER_AND_ORACLE[method]
        cfg = config3(seed=21, eps=1e-4)
        _, iterations = oracle(cfg, 40)
        with pytest.raises(RuntimeError, match="exceeded") as raised:
            sampler(cfg, 40, iteration_cap=iterations - 1)
        with pytest.raises(RuntimeError, match="exceeded") as expected:
            oracle(cfg, 40, iteration_cap=iterations - 1)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("method", ["a", "b"])
    def test_blocks_stay_bounded(self, monkeypatch, method):
        # These bounds accept a draw with chance about 1e-10 (a) and 1e-7 (b),
        # so 10^6 draws end at the cap with fewer than 10 samples.
        shapes = []
        monkeypatch.setattr("clarkekin.sampling._rng", recording_rng(shapes))
        sampler, _ = SAMPLER_AND_ORACLE[method]
        cfg = config3(eps=1e-12) if method == "a" else config3(rho_min=-1.5e-4, rho_max=1.0)
        with pytest.raises(RuntimeError, match="exceeded"):
            sampler(cfg, 10, iteration_cap=10**6)
        assert sum(rows for rows, _ in shapes) == 10**6
        assert max(rows * width for rows, width in shapes) <= _BLOCK_DOUBLES


    @pytest.mark.parametrize("method", ["a", "b"])
    def test_overflowing_candidates_run_to_the_cap_without_a_warning(self, method):
        # Candidates near -1e308 overflow in method (a)'s sum and (b)'s
        # resolved joint; an infinite value is rejected, silently. Either
        # method accepts a draw of these bounds with chance below 1e-14, so
        # it refuses the run at once. A grid of 1e300 (a), or rho_max = 1e303
        # (b, chance about 4.5e-10), lets it run to the cap.
        sampler, _ = SAMPLER_AND_ORACLE[method]
        cfg = config3(rho_min=-1e308, rho_max=RHO_MAX)
        runnable = replace(cfg, rounding_epsilon=1e300) if method == "a" else replace(cfg, rho_max=1e303)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^method \({method}\) is hopeless"):
                sampler(cfg, 1, iteration_cap=10_000)
            with pytest.raises(RuntimeError, match=rf"^method \({method}\) exceeded 10000 attempts with only 0/1"):
                sampler(runnable, 1, iteration_cap=10_000)

    def test_unknown_radial_law(self):
        with pytest.raises(ValueError, match="unknown radial law 'ring'"):
            sample_direct(config3(), 1, "ring")


def rows_summing_to(target, n, rng, count, scale):
    """Up to count rows of n values whose numpy row sum is exactly target."""
    rows = []
    for _ in range(20 * count):
        row = rng.uniform(-scale, scale, (1, n))
        for _ in range(8):
            gap = target - row.sum(axis=1)[0]
            if gap == 0.0:
                rows.append(row[0])
                break
            row[0, rng.integers(n)] += gap
        if len(rows) == count:
            break
    return rows


def boundary_rows(n, eps, rng):
    """Rows whose numpy row sum is +-eps/2 or one ulp to either side."""
    rows = []
    for half in (0.5 * eps, -0.5 * eps):
        for target in (np.nextafter(half, -np.inf), half, np.nextafter(half, np.inf)):
            # One value and zeros sums exactly in every order.
            lone = np.zeros(n)
            lone[rng.integers(n)] = target
            rows.append(lone)
            for scale in (eps, 30.0 * eps):
                rows += rows_summing_to(target, n, rng, 8, scale)
    return np.array(rows)


def overflowing_rows(n, eps):
    """Rows near +-1.7e308 whose partial sums overflow in some orders only.

    The +-M values take every order over a few slots, with a small value
    that decides the rounded sum when they cancel. Some slots are ones that
    numpy's eight interleaved accumulators (from 8 joints on) add first.
    """
    M = 1.7e308
    rows = []
    for values in ((M, M, -M), (M, -M, 0.25 * eps), (M, M, -M, -M, 0.25 * eps), (M, M, -M, -M, 0.75 * eps)):
        for slots in ((0, 1, 2, 3, 4), (0, 1, 8, 9, 16), (0, 4, n // 2, n - 2, n - 1)):
            slots = list(slots[: len(values)])
            if len(set(slots)) < len(values) or max(slots) >= n:
                continue
            for order in sorted(set(itertools.permutations(values))):
                row = np.zeros(n)
                row[slots] = order
                rows.append(row)
    return np.array(rows)


class TestZeroSumRows:
    @pytest.mark.parametrize("n", [3, 7, 8, 9, 64])
    @pytest.mark.parametrize("eps", [1e-5, 2.0**-17, 3e-300, 1e300, 5 * 2.0**-1074])
    def test_decides_every_row_as_the_exact_test(self, n, eps):
        rng = np.random.default_rng(n)
        near = boundary_rows(n, eps, rng)
        sums = near.sum(axis=1)
        for half in (0.5 * eps, -0.5 * eps):
            for target in (np.nextafter(half, -np.inf), half, np.nextafter(half, np.inf)):
                assert np.count_nonzero(sums == target) >= 2
        # The boundary rows alone, bounded by their own largest value, then
        # mixed with the overflowing rows.
        mixed = np.concatenate([near, overflowing_rows(n, eps)])
        for block in (near, mixed[rng.permutation(len(mixed))]):
            with np.errstate(over="ignore", invalid="ignore"):
                expected = np.flatnonzero(np.rint(block.sum(axis=1) / eps) == 0)
                got = _zero_sum_rows(block, eps, float(np.abs(block).max()))
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", [3, 6, 64])
    def test_sums_past_the_float_range_skip_the_exact_test(self, n):
        # Candidates of bounds [-1e308, pi mm] overflow numpy's row sums; the
        # scaled BLAS sum cannot overflow, so it rejects them all outright
        # and no row is summed again.
        class Recording(np.ndarray):
            def __getitem__(self, index):
                taken.append(np.size(index))
                return super().__getitem__(index)

        taken = []
        block = -1e308 + (RHO_MAX + 1e308) * np.random.default_rng(n).random((1000, n))
        with np.errstate(over="ignore"):
            assert np.isinf(block.sum(axis=1)).any()
        assert _zero_sum_rows(block.view(Recording), 1e-5, 1e308).size == 0
        assert taken == [0]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 64), st.integers(1, 300), st.floats(-300, 300), st.integers(0, 2**32))
    def test_subset_sums_repeat_the_block_sums(self, n, rows, log_scale, seed):
        # The exact test sums only the rows near the grid; numpy must give
        # them the bits it gives them inside the whole block.
        rng = np.random.default_rng(seed)
        block = rng.uniform(-1.0, 1.0, (rows, n)) * 10.0**log_scale
        idx = np.flatnonzero(rng.random(rows) < rng.random())
        assert np.array_equal(block[idx].sum(axis=1), block.sum(axis=1)[idx])


class TestConfig:
    def test_bounds_order(self):
        with pytest.raises(ValueError, match="rho_max > rho_min"):
            config3(rho_min=0.1, rho_max=0.1)

    def test_rounding_epsilon(self):
        with pytest.raises(ValueError, match="positive"):
            config3(eps=0.0)

    def test_span_must_be_finite(self):
        # 1e308 - (-1e308) overflows; the direct laws would print inf and NaN.
        with pytest.raises(ValueError, match=r"^rho_max - rho_min must be finite, got \[-1e\+308, 1e\+308\]$"):
            config3(rho_min=-1e308, rho_max=1e308)

    def test_widest_finite_span_samples(self):
        # 8e307 - (-8e307) = 1.6e308 is still finite.
        cfg = config3(seed=3, rho_min=-8e307, rho_max=8e307)
        for method in "cd":
            batch, _ = sample(cfg, 500, method)
            assert np.all(np.isfinite(batch.columns))
            assert np.max(np.abs(batch.columns)) <= 8e307


class TestRejectionIndependent:
    def test_empty_request(self):
        batch, stats = sample_rejection_independent(config3(), 0)
        assert batch.columns.shape == (3, 0)
        assert stats.iterations == 0
        assert stats.success_rate == 1.0

    def test_accepted_columns_obey_bounds_and_rounded_sum(self):
        cfg = config3(seed=5)
        batch, stats = sample_rejection_independent(cfg, 50)
        assert batch.columns.shape == (3, 50)
        assert batch.columns.min() >= cfg.rho_min
        assert batch.columns.max() <= cfg.rho_max
        sums = batch.columns.sum(axis=0)
        assert np.all(np.round(sums / cfg.rounding_epsilon) == 0.0)
        assert np.max(np.abs(sums)) <= cfg.rounding_epsilon
        assert stats.resamples == stats.iterations - 50

    def test_success_rate_near_analytic(self):
        # Sum of three uniforms on [-a, a] has density 3/(8a) at zero; the
        # acceptance window is rounding_epsilon wide, giving
        # 3*eps/(8a) = 1.19e-3 for eps = 0.01 mm and a = pi mm.
        cfg = config3(seed=42)
        _, stats = sample_rejection_independent(cfg, 200)
        assert 0.9e-3 < stats.success_rate < 1.5e-3

    def test_generalizes_beyond_three_joints(self):
        cfg = SamplerConfig(
            layout=JointLayout(n=5, d=D),
            rho_min=-RHO_MAX,
            rho_max=RHO_MAX,
            rounding_epsilon=1e-4,
            seed=1,
        )
        batch, _ = sample_rejection_independent(cfg, 20)
        assert batch.columns.shape == (5, 20)
        assert np.max(np.abs(batch.columns.sum(axis=0))) <= cfg.rounding_epsilon

    def test_samples_the_sum_slice_which_is_the_manifold_only_at_three_joints(self):
        # At n = 3 the Clarke manifold is the plane sum(rho) = 0; from n = 4
        # it is a 2-D subspace of that slice, and method (a) tests only the sum.
        eps, residuals = 1e-5, {}
        for n in (3, 4):
            cfg = SamplerConfig(JointLayout(n=n, d=D), -RHO_MAX, RHO_MAX, rounding_epsilon=eps, seed=3)
            columns = sample(cfg, 100, "a")[0].columns
            t = build_transform(n)
            residuals[n] = max(manifold_residual(t, columns[:, i]) for i in range(100))
            assert max(abs(math.fsum(columns[:, i])) for i in range(100)) <= eps / 2
        assert residuals[3] <= eps
        assert residuals[4] > 100 * eps

    def test_iteration_cap(self):
        # A draw is accepted with chance about 1.6e-10: 10^5 attempts give
        # 10 samples with chance about 1.6e-6, too much to refuse at once.
        cfg = config3(eps=1e-12, seed=0)
        with pytest.raises(RuntimeError, match="exceeded"):
            sample_rejection_independent(cfg, 10, iteration_cap=100_000)

    @pytest.mark.parametrize("eps, cap, k", [(1e-12, 2000, 10), (1e-12, 10**8, 10**5), (1e-5, 1000, 10**7)])
    def test_hopeless_runs_are_refused_before_any_draw(self, monkeypatch, eps, cap, k):
        # cap * (about eps/span) < 1e-6 * k: by Markov's inequality the cap
        # gives k samples with chance below 1e-6.
        monkeypatch.setattr("clarkekin.sampling._rng", NoDraws)
        refusal = r"^method \(a\) is hopeless: a draw is accepted with chance at most"
        with pytest.raises(ValueError, match=refusal) as raised:
            sample_rejection_independent(config3(eps=eps), k, iteration_cap=cap)
        assert "\n" not in str(raised.value)

    @pytest.mark.parametrize("n", [3, 5, 12, 64])
    def test_a_cap_that_can_succeed_is_not_refused(self, n):
        # A cap whose Markov bound on the chance of 10^6 samples is about
        # 2e-6 at the measured rate (about 2.2e-3 for every n) runs to the
        # cap: the refusal's bound on the rate lies above the true one.
        eps = 1e-5 * math.sqrt(n)
        cfg = SamplerConfig(JointLayout(n=n, d=D), -RHO_MAX, RHO_MAX, rounding_epsilon=eps, seed=3)
        _, stats = sample_rejection_independent(cfg, 100)
        cap = math.ceil(2e-6 * 10**6 / stats.success_rate)
        with pytest.raises(RuntimeError, match=rf"exceeded {cap} attempts"):
            sample_rejection_independent(cfg, 10**6, iteration_cap=cap)

    @pytest.mark.parametrize("rho_min, rho_max", [(1e-4, RHO_MAX), (-RHO_MAX, -1e-4), (4e-6, 5e-6), (-4e-6, -3e-6)])
    def test_bounds_that_never_accept_fail_fast(self, rho_min, rho_max):
        # A draw sums to at least 3*rho_min or at most 3*rho_max, past
        # rounding_epsilon/2 = 5e-6: refused before any draw, not at the cap.
        with pytest.raises(ValueError, match=r"method \(a\) can never accept"):
            sample_rejection_independent(config3(rho_min=rho_min, rho_max=rho_max), 1)

    def test_just_feasible_bounds_still_sample(self):
        # Sums in [3e-6, 6e-6) round to zero up to rounding_epsilon/2 = 5e-6.
        cfg = config3(seed=5, rho_min=1e-6, rho_max=2e-6)
        batch, _ = sample_rejection_independent(cfg, 50)
        assert batch.columns.shape == (3, 50)
        assert np.max(batch.columns.sum(axis=0)) <= cfg.rounding_epsilon / 2
        # Sums in [9e-6, 1.2e-5) all lie past the half grid: refused at once.
        with pytest.raises(ValueError, match=r"method \(a\) can never accept"):
            sample_rejection_independent(config3(rho_min=3e-6, rho_max=4e-6), 1, iteration_cap=1000)

    @pytest.mark.parametrize("rho_min, rho_max", [(1.6e-6, 1.8e-6), (-1.8e-6, -1.6e-6)])
    def test_bounds_reaching_into_the_half_grid_sample(self, rho_min, rho_max):
        # Sums in [4.8e-6, 5.4e-6): about a sixth of them round to zero.
        cfg = config3(seed=6, rho_min=rho_min, rho_max=rho_max)
        batch, stats = sample_rejection_independent(cfg, 40)
        assert batch.columns.shape == (3, 40)
        assert np.max(np.abs(batch.columns.sum(axis=0))) <= cfg.rounding_epsilon / 2
        assert 0.08 < stats.success_rate < 0.3

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(3, 64),
        st.floats(-200, 200),
        st.one_of(st.integers(-64, 64).map(lambda j: 1.0 + j * 2.0**-52), st.floats(1 - 1e-6, 1 + 1e-6)),
        st.floats(0.0, 100.0),
        st.booleans(),
    )
    def test_refused_exactly_when_no_draw_can_accept(self, n, log_eps, jitter, width, negative):
        # Bounds whose sums sit at the half grid, give or take a few ulps.
        # The extreme draw is rho_min at u = 0 (positive bounds) or the
        # largest candidate, at u = 1 - 2**-53 (negative bounds); sums are
        # monotone, so a draw can be accepted iff the extreme one is.
        eps = 10.0**log_eps
        edge = jitter * 0.5 * eps / n
        rho_min, rho_max = (-edge * (1.0 + width), -edge) if negative else (edge, edge * (1.0 + width))
        if not rho_max > rho_min:
            return
        cfg = SamplerConfig(JointLayout(n=n, d=D), rho_min, rho_max, rounding_epsilon=eps)
        extreme = rho_min + (rho_max - rho_min) * (1.0 - 2.0**-53) if negative else rho_min
        assert rho_min <= extreme <= rho_max
        ratio = np.full((1, n), extreme).sum(axis=1)[0] / eps
        try:
            sample_rejection_independent(cfg, 1, iteration_cap=1)
            refused = False
        except RuntimeError:
            refused = False
        except ValueError:
            refused = True
        if np.rint(ratio) == 0:
            assert not refused
        elif abs(ratio) > 0.5 * (1 + 1e-9):
            assert refused

    def test_margin_covers_the_rounding_of_the_sum(self):
        # n*rho_min/eps rounds to just past 1/2, but the 47-term sum of
        # rho_min (the draw at u = 0) rounds to just under it: the draw
        # can be accepted, so the bounds must not be refused.
        n, eps, rho_min = 47, 99750680.87883866, 1061177.4561578583
        assert n * rho_min / eps > 0.5
        assert np.rint(np.full((1, n), rho_min).sum(axis=1)[0] / eps) == 0
        cfg = SamplerConfig(JointLayout(n=n, d=D), rho_min, 75694469.49075718, rounding_epsilon=eps)
        with pytest.raises(RuntimeError, match="exceeded"):
            sample_rejection_independent(cfg, 1, iteration_cap=1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "q, eps",
        [(0.5, 1e-5), (0.3, 1e-2 * 2 * RHO_MAX), (0.65, 5e-3 * 2 * RHO_MAX)],
        ids=["paper", "q0.3", "q0.65"],
    )
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_acceptance_rate_within_five_binomial_deviations(self, n, q, eps, seed):
        # Bounds [-q*span, (1 - q)*span], span = 2*d*pi; q = 0.5 with eps =
        # 1e-5 is the paper's setting (rate about 1/840 at n = 3). The k-th
        # hit ends a run of N draws, and k lies within 5 deviations of N*p,
        # p the Irwin-Hall rate. n stops at 6, where the oracle's float sum
        # still meets exact rational arithmetic within 2e-13 of p (see
        # independent_rate_oracle).
        span = 2 * RHO_MAX
        cfg = SamplerConfig(JointLayout(n=n, d=D), -q * span, (1.0 - q) * span, rounding_epsilon=eps, seed=seed)
        p = independent_rate_oracle(cfg)
        k = 5000
        _, stats = sample_rejection_independent(cfg, k)
        draws = stats.iterations
        assert abs(k - draws * p) <= 5.0 * math.sqrt(draws * p * (1.0 - p))

    def test_accepted_rho1_symmetric(self):
        # The marginal of each joint under the sum constraint is symmetric
        # about zero; check the histogram skewness of rho_1. A coarse
        # acceptance grid keeps the attempt count small.
        cfg = config3(seed=11, eps=1e-4)
        batch, _ = sample_rejection_independent(cfg, 10_000)
        r1 = batch.columns[0]
        skew = np.mean((r1 - r1.mean()) ** 3) / np.std(r1) ** 3
        assert abs(skew) < 0.05


class TestRejectionResolved:
    def test_requires_three_joints(self):
        cfg = SamplerConfig(layout=JointLayout(n=4, d=D), rho_min=-RHO_MAX, rho_max=RHO_MAX, seed=0)
        with pytest.raises(ValueError, match="3 joints"):
            sample_rejection_resolved(cfg, 1)

    @pytest.mark.parametrize("rho_min, rho_max", [(1e-4, RHO_MAX), (0.0, RHO_MAX), (-RHO_MAX, 0.0), (-RHO_MAX, -1e-4)])
    def test_bounds_that_never_accept_fail_fast(self, rho_min, rho_max):
        # rho_1 = -(rho_2 + rho_3) falls inside the bounds only if they straddle 0.
        with pytest.raises(ValueError, match=r"method \(b\) can never accept"):
            sample_rejection_resolved(config3(rho_min=rho_min, rho_max=rho_max), 1)

    def test_just_feasible_bounds_still_sample(self):
        cfg = config3(seed=5, rho_min=-1e-4, rho_max=RHO_MAX)
        batch, _ = sample_rejection_resolved(cfg, 50)
        assert batch.columns.shape == (3, 50)
        assert batch.columns[0].min() >= cfg.rho_min

    def test_resolved_joint_exact(self):
        batch, _ = sample_rejection_resolved(config3(seed=2), 500)
        assert np.array_equal(batch.columns[0], -(batch.columns[1] + batch.columns[2]))
        assert batch.columns[0].min() >= -RHO_MAX
        assert batch.columns[0].max() <= RHO_MAX
        assert np.max(np.abs(batch.columns.sum(axis=0))) < 1e-18

    def test_success_rate_three_quarters(self):
        # P(|U1 + U2| <= a) = 3/4 for independent uniforms on [-a, a].
        _, stats = sample_rejection_resolved(config3(seed=3), 20_000)
        assert stats.success_rate == pytest.approx(0.75, abs=0.01)

    def test_empty_request(self):
        batch, stats = sample_rejection_resolved(config3(), 0)
        assert batch.columns.shape == (3, 0)
        assert stats.iterations == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("q", [0.03, 0.2, 0.45, 0.5, 0.8, 0.97])
    def test_acceptance_rate_within_five_binomial_deviations(self, q, seed):
        # Bounds [-q*span, (1 - q)*span]: the k-th hit ends a run of N
        # draws, and k lies within 5 deviations of N*p, p the exact rate.
        span = 2 * RHO_MAX
        cfg = config3(seed=seed, rho_min=-q * span, rho_max=(1.0 - q) * span)
        p = resolved_rate_oracle(cfg)
        k = 5000
        _, stats = sample_rejection_resolved(cfg, k)
        n = stats.iterations
        assert abs(k - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p))

    @pytest.mark.parametrize(
        "rho_min, rho_max",
        [(-RHO_MAX, RHO_MAX), (-RHO_MAX, 3 * RHO_MAX), (-1e-4, 1.0), (-1.0, 1e-4), (-1e308, 1e303), (-1e-300, 1e-295)],
    )
    def test_refused_when_the_closed_form_makes_the_cap_hopeless(self, monkeypatch, rho_min, rho_max):
        # The chance in exact arithmetic is the oracle. A cap that reaches k
        # samples with Markov bound 2e-6 runs; one with 0.5e-6 is refused
        # before any draw.
        cfg = config3(seed=7, rho_min=rho_min, rho_max=rho_max)
        p = resolved_rate_oracle(cfg)
        assert p > 0.0
        try:
            sample_rejection_resolved(cfg, 1, iteration_cap=math.ceil(2e-6 / p))
        except RuntimeError:
            pass
        monkeypatch.setattr("clarkekin.sampling._rng", NoDraws)
        with pytest.raises(ValueError, match=r"^method \(b\) is hopeless: a draw is accepted with chance at most") as raised:
            sample_rejection_resolved(cfg, 10**9, iteration_cap=math.floor(500 / p))
        assert "\n" not in str(raised.value)


class TestDirect:
    @pytest.mark.parametrize("radial", ["line", "disk", "annulus"])
    def test_never_resamples(self, radial):
        cfg = config3(seed=4, rho_min=0.1 * RHO_MAX if radial == "annulus" else -RHO_MAX)
        batch, stats = sample_direct(cfg, 256, radial)
        assert stats.iterations == 256
        assert stats.resamples == 0
        assert stats.success_rate == 1.0
        assert batch.columns.shape == (3, 256)

    @pytest.mark.parametrize("radial", ["line", "disk", "annulus"])
    def test_every_sample_on_manifold(self, radial):
        cfg = config3(seed=5, rho_min=0.1 * RHO_MAX if radial == "annulus" else -RHO_MAX)
        t = build_transform(3)
        batch, _ = sample_direct(cfg, 200, radial)
        assert np.max(np.abs(batch.columns.sum(axis=0))) < 1e-12
        for i in range(200):
            assert manifold_residual(t, batch.columns[:, i]) < 1e-12

    def test_joint_values_bounded_by_amplitude(self):
        cfg = config3(seed=6)
        batch, _ = sample_direct(cfg, 5000, "line")
        assert np.max(np.abs(batch.columns)) <= RHO_MAX + 1e-12

    def test_annulus_requires_positive_inner_radius(self):
        with pytest.raises(ValueError, match="rho_min > 0"):
            sample_direct(config3(), 1, "annulus")

    @pytest.mark.parametrize("draw", [sample_direct, sample_direct_batched])
    def test_annulus_needs_a_finite_rho_max_square(self, draw):
        # (1e200)**2 is past the float range.
        with pytest.raises(ValueError, match=r"^annulus sampling needs a finite rho_max\*\*2, got rho_max=1e\+200$"):
            draw(config3(rho_min=1e199, rho_max=1e200), 3, "annulus")

    def test_annulus_with_the_largest_square_samples(self):
        # 1.34e154**2 = 1.7956e308, just under the float range.
        cfg = config3(seed=4, rho_min=1.34e153, rho_max=1.34e154)
        batch, _ = sample_direct(cfg, 200, "annulus")
        assert np.all(np.isfinite(batch.columns))
        assert np.array_equal(batch.columns, sample_direct_batched(cfg, 200, "annulus").columns)

    def test_unknown_radial(self):
        with pytest.raises(ValueError, match="radial"):
            sample_direct(config3(), 1, "square")

    def test_disk_mean_squared_amplitude(self):
        # Uniform-area disk: E[L^2] = rho_max^2 / 2.
        cfg = config3(seed=7)
        batch, _ = sample_direct(cfg, 20_000, "disk")
        amp2 = (build_transform(3).forward @ batch.columns)
        l2 = np.sum(amp2 * amp2, axis=0)
        assert l2.mean() == pytest.approx(RHO_MAX**2 / 2.0, rel=0.01)

    def test_annulus_amplitude_range(self):
        cfg = config3(seed=8, rho_min=0.4 * RHO_MAX)
        batch, _ = sample_direct(cfg, 5000, "annulus")
        amps = np.linalg.norm(build_transform(3).forward @ batch.columns, axis=0)
        assert amps.min() >= 0.4 * RHO_MAX - 1e-12
        assert amps.max() <= RHO_MAX + 1e-12

    def test_line_concentrates_near_center(self):
        # Uniform amplitudes put more mass near the middle of the disk
        # than the area-uniform law does.
        k = 20_000
        line, _ = sample_direct(config3(seed=9), k, "line")
        disk, _ = sample_direct(config3(seed=9), k, "disk")
        fwd = build_transform(3).forward
        frac_line = np.mean(np.linalg.norm(fwd @ line.columns, axis=0) < RHO_MAX / 2)
        frac_disk = np.mean(np.linalg.norm(fwd @ disk.columns, axis=0) < RHO_MAX / 2)
        assert frac_line - frac_disk >= 0.2


class TestDirectColumns:
    @pytest.mark.parametrize("n", range(3, 65))
    def test_bitwise_equal_to_trig_oracle(self, n):
        # Both kernels take the doubles of one (17, 2) draw from the seed's stream.
        cfg = SamplerConfig(layout=JointLayout(n=n, d=D), rho_min=0.1 * RHO_MAX, rho_max=RHO_MAX, seed=n)
        u2 = np.random.Generator(np.random.PCG64(n)).random((17, 2))
        assert sorted(radial for radial, _ in DIRECT_METHODS.values()) == sorted(RADIAL_LAW_ORACLES)
        for radial in RADIAL_LAW_ORACLES:
            expected = trig_direct_columns_oracle(cfg, radial, u2).tobytes()
            assert sample_direct_batched(cfg, 17, radial).columns.tobytes() == expected
            assert sample_direct(cfg, 17, radial)[0].columns.tobytes() == expected


class TestTrigPremise:
    # sample_direct takes cos and sin from math, sample_direct_batched from
    # numpy: the two give the same bits only while these agree.
    @pytest.mark.parametrize("name", ["cos", "sin"])
    def test_numpy_float64_trig_is_the_c_librarys(self, name):
        angles = TWO_PI * np.random.Generator(np.random.PCG64(27)).random(10**6)
        edges = [0.0, *(q * (TWO_PI / 4) for q in range(-4, 5)), TWO_PI * (1.0 - 2.0**-53)]
        angles = np.concatenate([edges, angles])
        got = getattr(np, name)(angles)
        want = np.array([getattr(math, name)(a) for a in angles.tolist()])
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        if differ.size:
            i = differ[0]
            pytest.fail(
                f"np.{name} differs from math.{name} at {differ.size} of {angles.size} angles, first at "
                f"{float(angles[i])!r}: {float(got[i])!r} != {float(want[i])!r} (numpy {np.__version__}, "
                f"{platform.machine()}, libc {platform.libc_ver()}); sample_direct == sample_direct_batched "
                "bit for bit rests on this equality"
            )


class TestBatchedBlocks:
    B = _DIRECT_BLOCK

    @pytest.mark.parametrize("n", [3, 5, 12, 64])
    @pytest.mark.parametrize("k", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_bit_identical_to_sequential(self, n, k):
        cfg = SamplerConfig(JointLayout(n=n, d=D), 0.1 * RHO_MAX, RHO_MAX, seed=n * k)
        radial = ("line", "disk", "annulus")[k % 3]
        sequential, _ = sample_direct(cfg, k, radial)
        assert sample_direct_batched(cfg, k, radial).columns.tobytes() == sequential.columns.tobytes()

    @pytest.mark.parametrize("draw", [sample_direct, sample_direct_batched], ids=["sequential", "batched"])
    def test_no_draw_exceeds_one_block(self, monkeypatch, draw):
        # Both direct paths draw each block's uniforms at once, from the one stream.
        shapes = []
        monkeypatch.setattr("clarkekin.sampling._rng", recording_rng(shapes))
        draw(config3(seed=5), 2 * self.B + 3, "disk")
        assert shapes == [(self.B, 2), (self.B, 2), (3, 2)]

    def test_needs_its_output_plus_one_block(self):
        # The 3 x 10^6 output takes 24 MB; one block of working set fits in 2 MiB.
        batch, peak = peak_bytes(lambda: sample_direct_batched(config3(seed=6), 10**6, "disk"))
        assert batch.columns.nbytes == 24 * 10**6
        assert peak < batch.columns.nbytes + 2 * 2**20


class TestFixedMemory:
    """Each sampler fills one (n, k) output; its working set does not grow with k."""

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: sample_direct(config3(seed=6), 10**6, "disk"),
            lambda: sample_rejection_resolved(config3(seed=6), 10**6),
            # A grid as wide as the bounds accepts most draws, so the run is quick.
            lambda: sample_rejection_independent(config3(seed=6, eps=RHO_MAX), 10**6),
        ],
        ids=["direct", "b", "a"],
    )
    def test_needs_its_output_plus_six_mib(self, draw):
        # The 3 x 10^6 output takes 24 MB. A grown buffer and its copy, or a
        # list of blocks joined and stacked, took twice that and more.
        (batch, _), peak = peak_bytes(draw)
        assert batch.columns.nbytes == 24 * 10**6
        assert batch.columns.flags.c_contiguous and not batch.columns.flags.writeable
        assert peak <= batch.columns.nbytes + 6 * 2**20


@st.composite
def direct_cases(draw):
    """(config, k, radial law) with n in [3, 64] and bounds across decades."""
    radial = draw(st.sampled_from(["line", "disk", "annulus"]))
    rho_max = 10.0 ** draw(st.floats(-150, 150))
    inner = draw(st.floats(1e-3, 0.999)) * rho_max
    rho_min = inner if radial == "annulus" else draw(st.sampled_from([-rho_max, -inner, inner]))
    cfg = SamplerConfig(
        layout=JointLayout(n=draw(st.integers(3, 64)), d=D),
        rho_min=rho_min,
        rho_max=rho_max,
        seed=draw(st.integers(0, 2**63)),
    )
    return cfg, draw(st.integers(0, 300)), radial


class TestSequentialDirectMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(direct_cases())
    def test_sequential_oracle_and_batched_agree(self, case):
        cfg, k, radial = case
        batch, stats = sample_direct(cfg, k, radial)
        assert batch.columns.shape == (cfg.layout.n, k)
        assert batch.columns.flags.c_contiguous and not batch.columns.flags.writeable
        assert np.array_equal(batch.columns, per_sample_direct_oracle(cfg, k, radial))
        assert np.array_equal(batch.columns, sample_direct_batched(cfg, k, radial).columns)
        assert stats.iterations == k and stats.resamples == 0 and stats.success_rate == 1.0


class TestDeterminism:
    def test_same_seed_same_batch(self):
        a1, s1 = sample_direct(config3(seed=10), 100, "disk")
        a2, s2 = sample_direct(config3(seed=10), 100, "disk")
        assert np.array_equal(a1.columns, a2.columns)
        assert s1.iterations == s2.iterations

    def test_different_seed_differs(self):
        a1, _ = sample_direct(config3(seed=10), 100, "disk")
        a2, _ = sample_direct(config3(seed=11), 100, "disk")
        assert not np.array_equal(a1.columns, a2.columns)

    @pytest.mark.parametrize("radial", ["line", "disk"])
    def test_batched_bitwise_equals_sequential(self, radial):
        cfg = config3(seed=12)
        sequential, _ = sample_direct(cfg, 1000, radial)
        batched = sample_direct_batched(cfg, 1000, radial)
        assert np.array_equal(sequential.columns, batched.columns)

    def test_batched_k1_equals_single(self):
        cfg = config3(seed=13)
        one, _ = sample_direct(cfg, 1, "line")
        assert np.array_equal(one.columns, sample_direct_batched(cfg, 1, "line").columns)

    def test_rejection_deterministic(self):
        b1, s1 = sample_rejection_resolved(config3(seed=14), 300)
        b2, s2 = sample_rejection_resolved(config3(seed=14), 300)
        assert np.array_equal(b1.columns, b2.columns)
        assert s1.iterations == s2.iterations

    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_one_seed_gives_equal_stats_and_columns(self, method, vectorized):
        # No sampler reads a clock: a call is a function of its config and k.
        cfg = config3(seed=17, rho_min=0.1 * RHO_MAX if method == "e" else -RHO_MAX)
        (b1, s1), (b2, s2) = (sample(cfg, 50, method, vectorized) for _ in range(2))
        assert s1 == s2 and s1.method == method
        assert b1.columns.tobytes() == b2.columns.tobytes() and b1.columns.shape == (3, 50)


class TestBenchmark:
    def test_structure_and_rates(self):
        cfg = config3(seed=15)
        results = benchmark(cfg, 200, methods=("b", "c", "d", "e"), runs=3, annulus_rho_min=0.1 * RHO_MAX)
        by_method = {r.method: r for r in results}
        assert set(by_method) == {"b", "c", "d", "e"}
        assert by_method["c"].factor == 1.0
        for m in ("c", "d", "e"):
            r = by_method[m]
            assert r.success_rate == 1.0
            assert r.resamples_mean == 0.0
            assert r.iterations_mean == 200.0
        assert 0.70 < by_method["b"].success_rate < 0.80
        assert len(by_method["b"].runs) == 3
        assert by_method["b"].histograms.shape == (3, 50)

    def test_seeded_runs_differ_but_replay(self):
        cfg = config3(seed=16)
        r1 = benchmark(cfg, 50, methods=("c",), runs=2)
        r2 = benchmark(cfg, 50, methods=("c",), runs=2)
        assert np.array_equal(r1[0].histograms, r2[0].histograms)
        assert r1[0].runs[0].iterations == 50

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="k >= 1"):
            benchmark(config3(), 0)

    def test_runs_zero_rejected(self):
        with pytest.raises(ValueError, match="runs >= 1"):
            benchmark(config3(), 10, runs=0)

    @pytest.mark.parametrize("methods", [(), ("c", "c"), ("b", "c", "b")])
    def test_empty_or_repeated_methods_rejected(self, methods):
        with pytest.raises(ValueError, match="^benchmark needs each method once, got "):
            benchmark(config3(), 10, methods=methods)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda cfg: sample_rejection_independent(cfg, -3),
            lambda cfg: sample_rejection_resolved(cfg, -3),
            lambda cfg: sample_direct(cfg, -3, "disk"),
            lambda cfg: sample_direct_batched(cfg, -3, "disk"),
        ]
        + [lambda cfg, m=m: sample(cfg, -1, m) for m in "abcde"],
    )
    def test_negative_k_rejected(self, draw):
        with pytest.raises(ValueError, match=r"^k must be >= 0, got -\d$"):
            draw(config3(rho_min=0.1 * RHO_MAX))

    def test_dispatch(self):
        batch, stats = sample(config3(seed=17), 10, "c")
        assert stats.method == "c"
        with pytest.raises(ValueError, match="unknown sampling method"):
            sample(config3(), 1, "z")

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_vectorized_gives_the_same_samples_and_counts(self, method):
        cfg = config3(seed=19, rho_min=0.1 * RHO_MAX if method == "e" else -RHO_MAX, eps=1e-4)
        batch, stats = sample(cfg, 30, method)
        vbatch, vstats = sample(cfg, 30, method, vectorized=True)
        assert vbatch.columns.tobytes() == batch.columns.tobytes()
        assert vbatch.method == vstats.method == method
        assert not vbatch.columns.flags.writeable
        assert (vstats.iterations, vstats.resamples, vstats.success_rate) == (
            stats.iterations,
            stats.resamples,
            stats.success_rate,
        )

    @pytest.mark.parametrize("method", ["c", "d", "e"])
    def test_vectorized_direct_runs_the_batched_kernel(self, monkeypatch, method):
        def refuse(*args):
            raise AssertionError("sample_direct was called")

        monkeypatch.setattr("clarkekin.sampling.sample_direct", refuse)
        batch, stats = sample(config3(seed=20, rho_min=0.1 * RHO_MAX), 5, method, vectorized=True)
        assert batch.columns.shape == (3, 5)
        assert (stats.iterations, stats.resamples, stats.success_rate) == (5, 0, 1.0)

    def test_benchmark_vectorized_pools_the_same_samples(self):
        cfg = config3(seed=21, eps=1e-4)
        plain = benchmark(cfg, 20, runs=2, annulus_rho_min=0.1 * RHO_MAX)
        batched = benchmark(cfg, 20, runs=2, vectorized=True, annulus_rho_min=0.1 * RHO_MAX)
        for r, v in zip(plain, batched, strict=True):
            assert r.method == v.method
            assert np.array_equal(r.histograms, v.histograms)
            assert [s.iterations for s in r.runs] == [s.iterations for s in v.runs]

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_histograms_pool_every_run(self, vectorized):
        cfg = config3(seed=23, eps=1e-4)
        results = benchmark(cfg, 40, runs=3, vectorized=vectorized, annulus_rho_min=0.1 * RHO_MAX)
        edges, histograms = pooled_histograms_oracle(cfg, 40, ALL_METHODS, 3, vectorized, 0.1 * RHO_MAX)
        for r, expected in zip(results, histograms, strict=True):
            assert r.bin_edges.tobytes() == edges.tobytes()
            assert r.histograms.dtype == expected.dtype and np.array_equal(r.histograms, expected)

    def test_keeps_one_run_of_samples_at_a_time(self):
        # One vectorized run of 10^5 samples at n = 3 takes 2.4 MB; five
        # runs pooled took five times that, twice over.
        _, peak = peak_bytes(
            lambda: benchmark(config3(seed=24), 10**5, methods=("c", "d", "e"), runs=5, vectorized=True, annulus_rho_min=0.1 * RHO_MAX)
        )
        assert peak < 3 * 10**5 * 8 + 2 * 2**20

    def test_benchmark_checks_every_letter_before_sampling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sampler ran before the method letters were checked")

        monkeypatch.setattr("clarkekin.sampling.sample_direct", refuse)
        with pytest.raises(ValueError, match=r"^unknown method 'q'; choose from a,b,c,d,e$"):
            benchmark(config3(), 10, methods=("c", "q"))


class TestJointCounts:
    B = _HIST_BLOCK

    @pytest.mark.parametrize("n", [3, 7])
    @pytest.mark.parametrize("k", [1, B - 1, B, B + 1])
    def test_matches_numpy_histogram_row_by_row(self, n, k):
        # Values on every edge and one ulp either side, at both ends of each
        # row (so in the first and the last sort block), and outside the edges.
        cfg = config3()
        edges = np.linspace(cfg.rho_min, cfg.rho_max, 51)
        span = cfg.rho_max - cfg.rho_min
        special = np.concatenate([
            [edges[0], edges[-1], cfg.rho_min - span, cfg.rho_max + span],
            edges[1:-1], np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        ])
        rng = np.random.Generator(np.random.PCG64(n * k))
        columns = rng.uniform(cfg.rho_min - span / 4, cfg.rho_max + span / 4, (n, k))
        for j in range(n):
            for i, value in enumerate(np.roll(special, -j)[: (k + 1) // 2]):
                columns[j, i] = columns[j, k - 1 - i] = value
        counts = _joint_counts(columns, edges)
        expected = np.vstack([np.histogram(row, bins=edges)[0] for row in columns])
        assert counts.dtype == expected.dtype
        assert np.array_equal(counts, expected)


class TestCsv:
    def test_batch_round_trip_bit_exact(self, tmp_path):
        batch, _ = sample_direct(config3(seed=18), 64, "disk")
        path = tmp_path / "batch.csv"
        write_text(path, csv_chunks(displacement_header(3), batch.columns.T))
        assert np.array_equal(read_csv(path, [displacement_header(3)])[1].T, batch.columns)

    def test_stats_csv_columns(self):
        results = benchmark(config3(seed=19), 20, methods=("c", "d"), runs=2)
        text = stats_csv(results)
        lines = text.strip().split("\n")
        assert lines[0] == "method,time_s,factor,iterations,resamples,success_rate"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "c"

    def test_tables_match_the_per_value_oracles(self):
        results = benchmark(config3(seed=22), 30, methods=("b", "c", "e"), runs=2, annulus_rho_min=0.1 * RHO_MAX)
        results.append(replace(results[0], method="x", factor=math.inf))
        results.append(replace(results[1], method="y", factor=math.nan, time_mean=-0.0))
        assert stats_csv(results) == stats_csv_oracle(results)
        for r in results:
            for joint in range(3):
                assert histogram_csv(r, joint) == histogram_csv_oracle(r, joint)

    def test_histogram_csv_header(self):
        results = benchmark(config3(seed=20), 20, methods=("c",), runs=1)
        text = histogram_csv(results[0], joint=0)
        lines = text.strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 51
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total <= 20  # values outside the edges fall out of the count
