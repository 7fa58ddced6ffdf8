"""Joint-space samplers for the displacement manifold and their benchmark.

Five methods, named after the letters used throughout the stats output:

  a: independent per-joint uniform draws, rejected unless the sum rounds
     to zero at the configured granularity (wasteful by design); it samples
     the slice sum(rho) ~ 0, which is the 2-D Clarke manifold only at n = 3;
  b: resolve rho_1 = -(rho_2 + rho_3) and reject when rho_1 leaves the
     bounds (three joints only);
  c: direct on the manifold, amplitude uniform on a line;
  d: direct, amplitude shaped for a uniform disk;
  e: direct, amplitude shaped for a uniform annulus.

The rejection methods draw blocks of candidates from one PCG64 stream and
test each block at once, accepting in stream order. Consecutive draws
consume the stream exactly as one draw per iteration would, so accepted
columns, iterations and success rates are bit-identical to a per-draw loop
for every seed; draws past the k-th hit are neither counted nor returned.
Method (a) decides a block approximately first: one BLAS product sums
every row, scaled by a power of two above 2n so that no order overflows,
and a row whose approximate sum lies past the half grid by more than any
two summation orders can differ is rejected. The few rows left, near the
grid, take the exact test on numpy's row sums, which give a row the same
bits inside any block. So every decision is the exact test's, for every n
and every BLAS. Both methods bound their acceptance rate in closed form
and refuse a run that the iteration cap cannot complete.

Direct methods draw an angle theta = 2*pi*U and an amplitude L per sample
(in that order) and map through the transform's right-inverse, so every
sample satisfies the displacement constraint by construction and the
success rate is exactly 1. Both direct paths run one block loop (_direct)
of at most _DIRECT_BLOCK samples, which draws a block's uniforms at once as
one (b, 2) array from the stream. Each call binds its radial law's
constants once, and one formula (_clarke_pair), a closure over math or
numpy, gives the block's Clarke pairs: mapped per sample over Python floats
with math's sqrt, cos and sin on the sequential path, once per block on the
array's columns with numpy's on the batched one; one joint map writes the
block's joints. sqrt rounds correctly
and the rest is IEEE-exact, so the two are bit-identical under one seed
wherever numpy's float64 cos and sin are the C library's, as they are for
numpy 2.4.6 on x86_64 with glibc 2.36; TestTrigPremise checks that equality.
Every sampler fills one preallocated C-contiguous (n, k) output and returns
it read-only, so it needs that output plus one block's fixed working set,
whatever k and n. No sampler reads a clock; benchmark() times its runs and
counts their joints on its own bin edges with np.histogram's rule
(_joint_counts).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .clarke import TWO_PI, JointLayout, _built, _owned, _readonly, build_transform, check_finite
from .csvio import csv_chunks, format_rows

REJECTION_METHODS = ("a", "b")


def _line(cfg, sqrt):
    lo, span = cfg.rho_min, cfg.rho_max - cfg.rho_min
    return lambda u: lo + span * u


def _disk(cfg, sqrt):
    hi = cfg.rho_max
    return lambda u: hi * sqrt(u)


def _annulus(cfg, sqrt):
    lo2, span2 = cfg.rho_min**2, cfg.rho_max**2 - cfg.rho_min**2
    return lambda u: sqrt(lo2 + span2 * u)


# The direct methods: letter -> (radial law, law(cfg, sqrt)). A law reads
# cfg's bounds once per sampler call and returns amplitude(u), L from a
# uniform u. sample() dispatches through this one table. sqrt is math.sqrt
# for one float and np.sqrt for an array (_clarke_pair passes its
# namespace's); both round correctly, so a law gives the same bits either way.
DIRECT_METHODS = {"c": ("line", _line), "d": ("disk", _disk), "e": ("annulus", _annulus)}
ALL_METHODS = REJECTION_METHODS + tuple(DIRECT_METHODS)

_LAW_METHODS = {law: method for method, (law, _) in DIRECT_METHODS.items()}

DEFAULT_ITERATION_CAP = 10**8

# A rejection block holds at most this many uniforms (2 MiB of doubles).
_BLOCK_DOUBLES = 2**18

# A batched direct block holds at most this many samples. Its (b, 2)
# uniforms and per-joint rows are small enough for the allocator to reuse
# from block to block; blocks four to eight times larger page-fault anew.
_DIRECT_BLOCK = 2**14

# Histogram bins per joint over [rho_min, rho_max] in benchmark(), and the
# values _joint_counts sorts at once, np.histogram's own block.
_HIST_BINS = 50
_HIST_BLOCK = 2**16


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling bounds, acceptance granularity and PRNG seed.

    rho_min/rho_max bound the per-joint displacements (rejection methods)
    and the amplitude L (direct methods); their span must be finite.
    rounding_epsilon is the grid at which method (a) rounds the
    displacement sum before comparing with zero; it directly controls that
    method's acceptance rate.
    """

    layout: JointLayout
    rho_min: float
    rho_max: float
    rounding_epsilon: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        check_finite("rho_min", self.rho_min, None)
        check_finite("rho_max", self.rho_max, None)
        if not self.rho_max > self.rho_min:
            raise ValueError(f"need rho_max > rho_min, got [{self.rho_min}, {self.rho_max}]")
        if not math.isfinite(self.rho_max - self.rho_min):
            raise ValueError(f"rho_max - rho_min must be finite, got [{self.rho_min}, {self.rho_max}]")
        check_finite("rounding_epsilon", self.rounding_epsilon)


@dataclass(frozen=True)
class SampleBatch:
    """k displacement samples as the columns of a read-only n x k matrix.

    A sampler's batch holds its own C-contiguous matrix, frozen in place; a caller's columns are copied (clarke._owned).
    """

    columns: np.ndarray
    method: str

    def __post_init__(self):
        object.__setattr__(self, "columns", _owned(self.columns))


@dataclass(frozen=True)
class SamplingStats:
    """Cost accounting for one sampler call, a function of the config and k.

    iterations counts every attempted draw, resamples the rejected ones;
    success_rate = requested/iterations (1.0 for an empty request). It holds
    no time, so one seed gives equal stats; benchmark() times each run.
    """

    method: str
    iterations: int
    resamples: int
    success_rate: float


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _stream(cfg: SamplerConfig, k: int) -> np.random.Generator:
    """The PCG64 stream of cfg.seed for k samples; every sampler opens one here, so k is checked once."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return _rng(cfg.seed)


def _finalize(method: str, columns: np.ndarray, iterations: int, k: int) -> tuple[SampleBatch, SamplingStats]:
    # The sampler's own output, frozen in place and not copied (clarke._built); dataclasses.replace of it copies.
    batch = _built(SampleBatch, columns=_readonly(columns), method=method)
    rate = 1.0 if iterations == 0 else k / iterations
    return batch, SamplingStats(method=method, iterations=iterations, resamples=iterations - k, success_rate=rate)


def _accept_in_blocks(
    rng: np.random.Generator, cfg: SamplerConfig, out: np.ndarray, iteration_cap: int, accept, p_max: float, method: str,
    hint="",
) -> int:
    """Fill out, (width, k), with the first k accepted candidates as columns; the draws they took.

    A candidate is rho_min + span * rng.random(width). Blocks of consecutive
    candidates come from the one stream and are tested at once, so the k-th
    hit falls on the same draw as with one draw per iteration; iterations is
    that draw's index plus one. A block's hits go straight into the next
    columns of out. The first block holds the draws k hits take at p_max,
    the bound on a draw's chance of acceptance, a later one those the rest
    take at the rate seen so far; none reaches past iteration_cap or
    _BLOCK_DOUBLES. The RuntimeError when iteration_cap draws were not
    enough names the method and ends in hint. accept(block) returns the indices of the accepted rows in
    ascending order. Overflow in accept is ignored: an inf sum is rejected.
    """
    width, k = out.shape
    span = cfg.rho_max - cfg.rho_min
    accepted = 0
    iterations = 0
    wanted = math.ceil(k / min(p_max, 1.0))
    while accepted < k and iterations < iteration_cap:
        need = k - accepted
        rows = min(wanted, max(1, _BLOCK_DOUBLES // width), iteration_cap - iterations)
        # rho_min + span*u, in place: the same two IEEE operations.
        block = rng.random((rows, width))
        block *= span
        block += cfg.rho_min
        with np.errstate(over="ignore"):
            hits = accept(block)[:need]
        out[:, accepted : accepted + hits.size] = block[hits].T
        accepted += hits.size
        iterations += int(hits[-1]) + 1 if accepted == k else rows
        wanted = (k - accepted) * (iterations + 1) // (accepted + 1)
    if accepted < k:
        raise RuntimeError(
            f"method ({method}) exceeded {iteration_cap} attempts with only "
            f"{accepted}/{k} samples accepted{hint}"
        )
    return iterations


def _zero_sum_rows(block: np.ndarray, eps: float, largest: float) -> np.ndarray:
    """Indices of the rows whose sum rounds to zero: np.rint(block.sum(axis=1) / eps) == 0.

    largest bounds |block|, which must be finite. Rows whose BLAS sum is far
    from the half grid are rejected outright; the rest take the exact test
    (see the module docstring).
    """
    n = block.shape[1]
    # The BLAS sums rho/m, m a power of two above 2n: it adds at most n/m < 1/2 times largest, so
    # no order overflows, and the scaling is exact but for the subnormals. rint gives 0 only when
    # |sum| <= eps/2 + 2**-54 * eps. Any order of summation rounds the sum by at most
    # (n - 1)*2**-53 * sum|rho|, so two orders differ by less than n*n*2**-52 * largest. The slack
    # doubles that, which also covers the ulp past eps/2 (a row that reaches it has a value past
    # eps/(2n)), and divides by m; n*2**-1074, which does not underflow, covers the subnormal
    # products and the division's rounding. So this BLAS product decides no output bit: its slack
    # covers any order, and every row it keeps takes the exact test.
    m = 2.0 ** (n.bit_length() + 1)
    slack = (0.5 * eps + n * n * 2.0**-51 * largest) / m + n * 2.0**-1074
    approx = block.dot(np.full(n, 1.0 / m))
    near = np.flatnonzero(np.abs(approx) <= slack)
    return near[np.rint(block[near].sum(axis=1) / eps) == 0]


def _refuse_hopeless(method: str, p_max: float, iteration_cap: int, k: int, advice: str) -> None:
    """Refuse a run whose cap, at chance p_max per draw, gives k samples with chance below 1e-6 (Markov)."""
    if iteration_cap * p_max < 1e-6 * k:
        raise ValueError(
            f"method ({method}) is hopeless: a draw is accepted with chance at most {p_max:.3g}, so "
            f"{iteration_cap} attempts reach k={k} samples with chance below 1e-6; {advice}"
        )


def sample_rejection_independent(
    cfg: SamplerConfig, k: int, iteration_cap: int = DEFAULT_ITERATION_CAP
) -> tuple[SampleBatch, SamplingStats]:
    """Method (a): per-joint uniform draws filtered on the rounded sum.

    A draw is accepted when its displacement sum, rounded half-to-even at
    granularity rounding_epsilon, equals zero, i.e. when |sum/eps| <= 1/2.
    Works for any n, but from n = 4 it meets only that sum constraint: its samples
    lie off the 2-D Clarke manifold. Candidate blocks are tested in stream order,
    bit-identical to one draw per iteration; _zero_sum_rows filters a block
    with one BLAS sum and tests the few rows near the grid exactly.

    Two kinds of bounds raise ValueError before any draw. A draw sums to
    about [n*rho_min, n*rho_max), so bounds whose every sum lies past the
    half grid can never accept. And the sum of n joints has a density no
    higher than one joint's, 1/span, so a draw is accepted with chance at
    most about eps/span; when iteration_cap draws reach k samples with
    chance below 1e-6 by Markov's inequality, the run is hopeless and
    refused. Raises RuntimeError when iteration_cap attempts did not
    produce k samples.
    """
    rng = _stream(cfg, k)
    # A candidate rho_min + span*u lies in [rho_min, rho_max] (u < 1 keeps
    # it at or below rho_max), but the sum of n of them may round toward
    # zero by up to (n - 1) ulps. The margin covers that with room to spare,
    # so bounds that can accept are never refused.
    n, eps = cfg.layout.n, cfg.rounding_epsilon
    lo, hi = n * cfg.rho_min, n * cfg.rho_max
    half = 0.5 * (1.0 + n * 2.0**-50)
    if lo / eps > half or hi / eps < -half:
        raise ValueError(
            f"method (a) can never accept: every draw sums to [{lo:.6g}, {hi:.6g}), "
            f"farther than rounding_epsilon/2={eps / 2:.6g} from zero"
        )
    # p bounds the chance of a draw. A candidate lies within 2**-53 * (2*span
    # + largest) of a continuous uniform, whose n-fold sum has density at
    # most 1/span; numpy's sum moves it by (n - 1)*2**-53 * n*largest at most
    # and 2**-1074 a joint covers subnormals: error = n*2**-53 * ((n + 1)*
    # largest + 2*span) + n*2**-1074, p = (eps*(1 + 2**-51) + 2*error)/span.
    span, largest = cfg.rho_max - cfg.rho_min, max(-cfg.rho_min, cfg.rho_max)
    p_max = (eps * (1.0 + 2.0**-51) + n * 2.0**-1073) / span + n * 2.0**-52 * ((n + 1) * (largest / span) + 2.0)
    _refuse_hopeless("a", p_max, iteration_cap, k, "widen rounding_epsilon, narrow the bounds or raise the cap")
    columns = np.empty((n, k))
    iterations = _accept_in_blocks(
        rng, cfg, columns, iteration_cap, lambda block: _zero_sum_rows(block, eps, largest), p_max, "a",
        "; widen rounding_epsilon or raise the cap",
    )
    return _finalize("a", columns, iterations, k)


def sample_rejection_resolved(
    cfg: SamplerConfig, k: int, iteration_cap: int = DEFAULT_ITERATION_CAP
) -> tuple[SampleBatch, SamplingStats]:
    """Method (b): draw rho_2, rho_3 and resolve rho_1 = -(rho_2 + rho_3).

    The constraint holds identically; a draw is rejected only when the
    resolved rho_1 leaves [rho_min, rho_max]. Defined for three joints
    and for rho_min < 0 < rho_max, the bounds under which a resolved rho_1
    can fall inside them. Candidate blocks are tested in stream order,
    bit-identical to one draw per iteration.

    The sum of two candidates has a triangular density on [2*rho_min,
    2*rho_max], so a draw is accepted with a closed-form chance (3/4 at
    symmetric bounds). Bounded above by that chance widened by the rounding
    of the candidates and of their sum, it refuses a hopeless run before
    any draw, as method (a) does. Raises RuntimeError when iteration_cap
    attempts did not produce k samples.
    """
    if cfg.layout.n != 3:
        raise ValueError(f"method (b) resolves one of exactly 3 joints, got n={cfg.layout.n}")

    def in_bounds(pairs):
        rho1 = -(pairs[:, 0] + pairs[:, 1])
        return np.flatnonzero((cfg.rho_min <= rho1) & (rho1 <= cfg.rho_max))

    rng = _stream(cfg, k)
    if not cfg.rho_min < 0.0 < cfg.rho_max:
        raise ValueError(
            f"method (b) can never accept: rho_1 = -(rho_2 + rho_3) lies outside "
            f"[{cfg.rho_min:.6g}, {cfg.rho_max:.6g}] unless rho_min < 0 < rho_max"
        )
    # In units of span from 2*rho_min, the sum of two continuous uniforms on
    # [rho_min, rho_min + span] has density t on [0, 1] and 2 - t on [1, 2];
    # -rho_1 lies in [-rho_max, -rho_min] when t lies in [3q - 1, 3q], q =
    # -rho_min/span. A candidate lies within 2**-53 * (2*span + largest) +
    # 2**-1075 of such a uniform and their sum rounds by 2**-52 * largest,
    # which widens the chance by at most 2**-50 * (1 + largest/span) +
    # 2**-1073/span; this formula rounds by 21 ulps at most. With largest <=
    # span, 5 * 2**-50 + 2**-1072/span covers both.
    span = cfg.rho_max - cfg.rho_min
    q3 = 3.0 * (-cfg.rho_min / span)

    def cdf(t):
        return 0.5 * t * t if t <= 1.0 else 1.0 - 0.5 * (2.0 - t) ** 2

    p_max = cdf(min(q3, 2.0)) - cdf(max(q3 - 1.0, 0.0)) + 5 * 2.0**-50 + 2.0**-1072 / span
    _refuse_hopeless("b", p_max, iteration_cap, k, "move the bounds toward symmetric or raise the cap")
    columns = np.empty((3, k))
    iterations = _accept_in_blocks(rng, cfg, columns[1:], iteration_cap, in_bounds, p_max, "b")
    # rho_1 = -(rho_2 + rho_3), in place: the same two IEEE operations.
    np.add(columns[1], columns[2], out=columns[0])
    np.negative(columns[0], out=columns[0])
    return _finalize("b", columns, iterations, k)


def _clarke_pair(cfg: SamplerConfig, law, xp):
    """pair(u_angle, u_amp) -> L*(cos theta, sin theta), the Clarke coordinates of direct samples.

    The one direct-sampling formula, a closure over the namespace xp, whose
    sqrt, cos and sin it binds once with law's amplitude: two floats (xp =
    math) give one sample, two (b,) arrays (xp = numpy) give b. Both paths
    get the same bits where numpy's float64 cos and sin are the C library's.
    """
    amplitude, cos, sin = law(cfg, xp.sqrt), xp.cos, xp.sin

    def pair(u_angle, u_amp):
        theta = TWO_PI * u_angle
        amp = amplitude(u_amp)
        return amp * cos(theta), amp * sin(theta)

    return pair


def _direct(cfg: SamplerConfig, k: int, radial: str, xp, pairs) -> tuple[SampleBatch, SamplingStats]:
    """k direct samples of the radial law into one (n, k) output, _DIRECT_BLOCK at a time.

    Each block of b samples draws its uniforms once, as rng.random((b, 2)):
    the doubles a single (k, 2) draw would give, (theta, L) in turn.
    pairs(pair, u2) turns them into Clarke pairs, two (b,) arrays x, y, with
    the formula pair = _clarke_pair(cfg, law, xp) built once per call.
    Joint j of a block is then c_j*x + s_j*y, (c_j, s_j) the right-inverse's
    row: the one joint map.
    """
    method = _LAW_METHODS.get(radial)
    if method is None:
        raise ValueError(f"unknown radial law {radial!r}; expected line, disk or annulus")
    if radial == "annulus" and not cfg.rho_min > 0.0:
        raise ValueError(f"annulus sampling needs rho_min > 0, got {cfg.rho_min}")
    if radial == "annulus" and not math.isfinite(cfg.rho_max * cfg.rho_max):
        raise ValueError(f"annulus sampling needs a finite rho_max**2, got rho_max={cfg.rho_max}")
    pair = _clarke_pair(cfg, DIRECT_METHODS[method][1], xp)
    rng = _stream(cfg, k)
    inverse = build_transform(cfg.layout).inverse
    c, s = inverse[:, :1], inverse[:, 1:]
    columns = np.empty((cfg.layout.n, k))
    for start in range(0, k, _DIRECT_BLOCK):
        block = columns[:, start : start + _DIRECT_BLOCK]
        x, y = pairs(pair, rng.random((block.shape[1], 2)))
        np.multiply(c, x, out=block)
        block += s * y
    return _finalize(method, columns, iterations=k, k=k)


def sample_direct(cfg: SamplerConfig, k: int, radial: str) -> tuple[SampleBatch, SamplingStats]:
    """Direct manifold sampling, one Clarke pair per loop iteration.

    radial selects the amplitude law: "line" (method c), "disk" (d) or
    "annulus" (e, needs rho_min > 0). Never resamples: iterations = k and
    success_rate = 1.0 for every seed. _direct draws each block's uniforms
    at once; the formula is mapped over the block's two lists of Python
    floats, one sample per call, with math's sqrt, cos and sin, and _direct
    maps the block's pairs to joints. Bit-identical to sample_direct_batched
    wherever numpy's float64 cos and sin are the C library's (TestTrigPremise
    checks it).
    """
    def pairs(pair, u2):
        xy = np.fromiter(itertools.chain.from_iterable(map(pair, *u2.T.tolist())), float, 2 * len(u2))
        return xy[0::2], xy[1::2]

    return _direct(cfg, k, radial, math, pairs)


def sample_direct_batched(cfg: SamplerConfig, k: int, radial: str) -> SampleBatch:
    """Vectorized direct sampling, one Clarke-pair formula per block of uniforms.

    Each block of at most _DIRECT_BLOCK samples forms its Clarke pairs on the
    columns of its (b, 2) draw; no temporary grows with k. Bit-identical to
    k sequential sample_direct draws under the same seed, because both paths
    draw the same blocks and evaluate the same formula.
    """
    return _direct(cfg, k, radial, np, lambda pair, u2: pair(u2[:, 0], u2[:, 1]))[0]


def sample(cfg: SamplerConfig, k: int, method: str, vectorized: bool = False) -> tuple[SampleBatch, SamplingStats]:
    """k samples by method letter a-e; the one place that picks a method's kernel.

    vectorized=True runs c, d and e through sample_direct_batched (same bits,
    iterations = k); a and b ignore it: their block loop is already vectorized.
    """
    if method == "a":
        return sample_rejection_independent(cfg, k)
    if method == "b":
        return sample_rejection_resolved(cfg, k)
    if method not in DIRECT_METHODS:
        raise ValueError(f"unknown sampling method {method!r}; expected one of {ALL_METHODS}")
    if not vectorized:
        return sample_direct(cfg, k, DIRECT_METHODS[method][0])
    batch = sample_direct_batched(cfg, k, DIRECT_METHODS[method][0])
    return _finalize(method, batch.columns, iterations=k, k=k)


@dataclass(frozen=True)
class MethodBenchmark:
    """Aggregated five-run statistics and histograms for one method."""

    method: str
    runs: tuple[SamplingStats, ...]
    time_mean: float
    time_std: float
    iterations_mean: float
    iterations_std: float
    resamples_mean: float
    success_rate: float
    factor: float
    bin_edges: np.ndarray
    histograms: np.ndarray  # one row of bin counts per joint


def _joint_counts(columns: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Each row's bin counts on edges, as np.histogram(row, bins=edges)[0] gives them, one row per joint.

    np.histogram's rule for given edges, without its checks of edges that
    benchmark() built: each block of _HIST_BLOCK values of a row, sorted,
    adds how many lie below each edge but the last and how many lie at or
    below the last; the counts are the differences, so values outside the
    edges count in no bin. Memory holds one sorted block. Sorting beats an
    O(k) bin index (x - lo)*scale with an edge fix-up and bincount, and
    np.histogram, on three rows of 50 bins: 0.039, 0.083 and 0.181 ms at
    k = 10^3, 0.179, 0.331 and 0.416 ms at 10^4, 2.02, 5.13 and 5.68 ms at 10^5.
    """
    cumulative = np.zeros((columns.shape[0], edges.size), np.intp)
    for row, counted in zip(columns, cumulative):
        for start in range(0, row.size, _HIST_BLOCK):
            block = np.sort(row[start : start + _HIST_BLOCK])
            counted[:-1] += block.searchsorted(edges[:-1], "left")
            counted[-1] += block.searchsorted(edges[-1], "right")
    return np.diff(cumulative)


def _run_seed(base_seed: int, method_index: int, run: int) -> int:
    child = np.random.SeedSequence(base_seed, spawn_key=(method_index, run))
    return int(child.generate_state(1, np.uint64)[0])


def benchmark(
    cfg: SamplerConfig,
    k: int,
    methods=ALL_METHODS,
    runs: int = 5,
    vectorized: bool = False,
    annulus_rho_min: float | None = None,
) -> list[MethodBenchmark]:
    """Run each method `runs` times for k samples and aggregate the cost.

    Every method letter is checked before any runs; the list must name at
    least one method and none twice. Each sample() call is timed here, the
    one clock of the samplers; the wall times are averaged per method
    and normalized into `factor` against method (c) when present, else
    against the fastest method. Histograms count the samples of all runs
    on _HIST_BINS fixed bins over [rho_min, rho_max]; each run's counts are
    added as the run ends and its columns dropped, so memory holds one
    run's samples at a time. Each run is one sample() call, with
    vectorized passed on.

    annulus_rho_min, when given, overrides rho_min for method (e) only, so
    the annulus inner radius can stay positive while the other methods use
    symmetric bounds.
    """
    for method in methods:
        if method not in ALL_METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {','.join(ALL_METHODS)}")
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"benchmark needs each method once, got {','.join(methods) or 'none'}")
    if k < 1 or runs < 1:
        raise ValueError(f"benchmark needs k >= 1 and runs >= 1, got k={k}, runs={runs}")
    edges = _readonly(np.linspace(cfg.rho_min, cfg.rho_max, _HIST_BINS + 1))
    results: list[MethodBenchmark] = []
    for mi, method in enumerate(methods):
        method_cfg = cfg
        if method == "e" and annulus_rho_min is not None:
            method_cfg = replace(cfg, rho_min=annulus_rho_min)

        # A run's batch dies as counted returns, before the next run draws.
        def counted(seed):
            run_cfg = replace(method_cfg, seed=seed)
            t0 = time.perf_counter()
            batch, stats = sample(run_cfg, k, method, vectorized)
            seconds = time.perf_counter() - t0
            return stats, seconds, _joint_counts(batch.columns, edges)

        stats_list, seconds, counts = zip(*(counted(_run_seed(cfg.seed, mi, run)) for run in range(runs)))
        hist = sum(counts)
        times = np.array(seconds)
        iters = np.array([s.iterations for s in stats_list], dtype=float)
        results.append(
            MethodBenchmark(
                method=method,
                runs=tuple(stats_list),
                time_mean=float(times.mean()),
                time_std=float(times.std(ddof=1)) if runs > 1 else 0.0,
                iterations_mean=float(iters.mean()),
                iterations_std=float(iters.std(ddof=1)) if runs > 1 else 0.0,
                resamples_mean=float(np.mean([s.resamples for s in stats_list])),
                success_rate=runs * k / float(iters.sum()),
                factor=math.nan,
                bin_edges=edges,
                histograms=_readonly(hist),
            )
        )
    by_method = {r.method: r.time_mean for r in results}
    reference = by_method.get("c", min(by_method.values()))
    return [replace(r, factor=r.time_mean / reference if reference > 0.0 else math.inf) for r in results]


def stats_csv(results: list[MethodBenchmark]) -> str:
    """Stats table with columns method,time_s,factor,iterations,resamples,success_rate."""
    lines = ["method,time_s,factor,iterations,resamples,success_rate\n"]
    for r in results:
        values = [r.time_mean, r.factor, r.iterations_mean, r.resamples_mean, r.success_rate]
        lines.append(r.method + "," + format_rows([values]))
    return "".join(lines)


def histogram_csv(result: MethodBenchmark, joint: int) -> str:
    """Per-joint histogram with columns bin_lo,bin_hi,count."""
    edges = result.bin_edges
    return "".join(csv_chunks(["bin_lo", "bin_hi", "count"], np.column_stack([edges[:-1], edges[1:], result.histograms[joint]])))
