"""Joint-space samplers for the displacement manifold and their benchmark.

Five methods, named after the letters used throughout the stats output:

  a: independent per-joint uniform draws, rejected unless the sum rounds
     to zero at the configured granularity (wasteful by design);
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

Direct methods draw an angle theta = 2*pi*U and an amplitude L per sample
(in that order) and map through the transform's right-inverse, so every
sample satisfies the displacement constraint by construction and the
success rate is exactly 1. One formula (_clarke_pair) serves both direct
paths: the sequential one feeds it two Python floats per sample, the
batched one two (k,) arrays from one block of the same stream. Both take
cos and sin from numpy and do the rest in IEEE-exact operations, so the
two are bit-identical under one seed.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .clarke import TWO_PI, JointLayout, build_transform, check_finite
from .csvio import csv_text, displacement_header, format_rows, read_csv, write_csv

REJECTION_METHODS = ("a", "b")

# The direct methods: letter -> (radial law, amplitude L from a uniform u).
# sample(), benchmark() and the CLI dispatch through this one table. sqrt
# is math.sqrt for one float and np.sqrt for an array; both round
# correctly, so a law gives the same bits either way.
DIRECT_METHODS = {
    "c": ("line", lambda cfg, u, sqrt: cfg.rho_min + (cfg.rho_max - cfg.rho_min) * u),
    "d": ("disk", lambda cfg, u, sqrt: cfg.rho_max * sqrt(u)),
    "e": ("annulus", lambda cfg, u, sqrt: sqrt(cfg.rho_min**2 + (cfg.rho_max**2 - cfg.rho_min**2) * u)),
}
ALL_METHODS = REJECTION_METHODS + tuple(DIRECT_METHODS)

DEFAULT_ITERATION_CAP = 10**8

# A rejection block holds at most this many uniforms (2 MiB of doubles).
_BLOCK_DOUBLES = 2**18

# Histogram bins per joint over [rho_min, rho_max] in benchmark().
_HIST_BINS = 50


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
    """k displacement samples as the columns of an n x k matrix."""

    columns: np.ndarray
    method: str


@dataclass(frozen=True)
class SamplingStats:
    """Cost accounting for one sampler call.

    iterations counts every attempted draw, resamples the rejected ones;
    success_rate = requested/iterations (1.0 for an empty request).
    """

    method: str
    wall_time: float
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


def _finalize(method: str, columns: np.ndarray, wall: float, iterations: int, k: int) -> tuple[SampleBatch, SamplingStats]:
    columns = np.ascontiguousarray(columns)
    columns.setflags(write=False)
    rate = 1.0 if iterations == 0 else k / iterations
    stats = SamplingStats(
        method=method,
        wall_time=wall,
        iterations=iterations,
        resamples=iterations - k,
        success_rate=rate,
    )
    return SampleBatch(columns=columns, method=method), stats


def _accept_in_blocks(
    rng: np.random.Generator, cfg: SamplerConfig, width: int, k: int, iteration_cap: int, accept
) -> tuple[np.ndarray, int]:
    """The first k accepted candidate rows and the number of draws they took.

    A candidate is rho_min + span * rng.random(width). Blocks of consecutive
    candidates come from the one stream and are tested at once, so the k-th
    hit falls on the same draw as with one draw per iteration; iterations is
    that draw's index plus one. A block is sized from the acceptance rate
    seen so far and never reaches past iteration_cap or _BLOCK_DOUBLES, so
    fewer than k rows come back when iteration_cap draws were not enough.
    """
    span = cfg.rho_max - cfg.rho_min
    kept = [np.empty((0, width))]
    accepted = 0
    iterations = 0
    while accepted < k and iterations < iteration_cap:
        need = k - accepted
        rows = min(
            need * (iterations + 1) // (accepted + 1),
            max(1, _BLOCK_DOUBLES // width),
            iteration_cap - iterations,
        )
        block = cfg.rho_min + span * rng.random((rows, width))
        hits = np.flatnonzero(accept(block))[:need]
        kept.append(block[hits])
        accepted += hits.size
        iterations += int(hits[-1]) + 1 if accepted == k else rows
    return np.concatenate(kept), iterations


def sample_rejection_independent(
    cfg: SamplerConfig, k: int, iteration_cap: int = DEFAULT_ITERATION_CAP
) -> tuple[SampleBatch, SamplingStats]:
    """Method (a): per-joint uniform draws filtered on the rounded sum.

    A draw is accepted when its displacement sum, rounded half-to-even at
    granularity rounding_epsilon, equals zero, i.e. when |sum/eps| <= 1/2.
    Works for any n. Candidate blocks are tested in stream order,
    bit-identical to one draw per iteration. A draw sums to about
    [n*rho_min, n*rho_max), so bounds whose every sum lies past the half
    grid can never accept and raise ValueError at once. Raises RuntimeError
    when iteration_cap attempts did not produce k samples.
    """

    def sum_rounds_to_zero(block):
        return np.rint(block.sum(axis=1) / cfg.rounding_epsilon) == 0

    t0 = time.perf_counter()
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
    rows, iterations = _accept_in_blocks(rng, cfg, n, k, iteration_cap, sum_rounds_to_zero)
    if len(rows) < k:
        raise RuntimeError(
            f"method (a) exceeded {iteration_cap} attempts with only "
            f"{len(rows)}/{k} samples accepted; widen rounding_epsilon or raise the cap"
        )
    return _finalize("a", rows.T, time.perf_counter() - t0, iterations, k)


def sample_rejection_resolved(
    cfg: SamplerConfig, k: int, iteration_cap: int = DEFAULT_ITERATION_CAP
) -> tuple[SampleBatch, SamplingStats]:
    """Method (b): draw rho_2, rho_3 and resolve rho_1 = -(rho_2 + rho_3).

    The constraint holds identically; a draw is rejected only when the
    resolved rho_1 leaves [rho_min, rho_max]. Defined for three joints
    and for rho_min < 0 < rho_max, the bounds under which a resolved rho_1
    can fall inside them. Candidate blocks are tested in stream order,
    bit-identical to one draw per iteration.
    """
    if cfg.layout.n != 3:
        raise ValueError(f"method (b) resolves one of exactly 3 joints, got n={cfg.layout.n}")

    def in_bounds(pairs):
        rho1 = -(pairs[:, 0] + pairs[:, 1])
        return (cfg.rho_min <= rho1) & (rho1 <= cfg.rho_max)

    t0 = time.perf_counter()
    rng = _stream(cfg, k)
    if not cfg.rho_min < 0.0 < cfg.rho_max:
        raise ValueError(
            f"method (b) can never accept: rho_1 = -(rho_2 + rho_3) lies outside "
            f"[{cfg.rho_min:.6g}, {cfg.rho_max:.6g}] unless rho_min < 0 < rho_max"
        )
    pairs, iterations = _accept_in_blocks(rng, cfg, 2, k, iteration_cap, in_bounds)
    if len(pairs) < k:
        raise RuntimeError(
            f"method (b) exceeded {iteration_cap} attempts with only "
            f"{len(pairs)}/{k} samples accepted"
        )
    columns = np.vstack([-(pairs[:, 0] + pairs[:, 1]), pairs.T])
    return _finalize("b", columns, time.perf_counter() - t0, iterations, k)


def _radial_law(cfg: SamplerConfig, radial: str):
    """The method letter and amplitude law of a radial law name, checked against cfg."""
    for method, (name, amplitude) in DIRECT_METHODS.items():
        if name == radial:
            if radial == "annulus" and not cfg.rho_min > 0.0:
                raise ValueError(f"annulus sampling needs rho_min > 0, got {cfg.rho_min}")
            if radial == "annulus" and not math.isfinite(cfg.rho_max * cfg.rho_max):
                raise ValueError(f"annulus sampling needs a finite rho_max**2, got rho_max={cfg.rho_max}")
            return method, amplitude
    raise ValueError(f"unknown radial law {radial!r}; expected line, disk or annulus")


def _clarke_pair(cfg: SamplerConfig, amplitude, sqrt, u_angle, u_amp):
    """Clarke coordinates L*(cos theta, sin theta) of direct samples, from their uniforms.

    The one direct-sampling formula: two floats (sqrt = math.sqrt) give one
    sample, two (k,) arrays (sqrt = np.sqrt) give k. cos and sin are numpy's
    either way, so both paths get the same bits.
    """
    theta = TWO_PI * u_angle
    amp = amplitude(cfg, u_amp, sqrt)
    return amp * np.cos(theta), amp * np.sin(theta)


def _direct_columns(cfg: SamplerConfig, amplitude, u_angle: np.ndarray, u_amp: np.ndarray) -> np.ndarray:
    """The n x k columns of k direct samples: the right-inverse's columns times the Clarke pairs.

    Elementwise products and one sum per joint, the same operations
    sample_direct does on floats, keep the two paths bit-identical.
    """
    x, y = _clarke_pair(cfg, amplitude, np.sqrt, u_angle, u_amp)
    inverse = build_transform(cfg.layout).inverse
    return inverse[:, :1] * x + inverse[:, 1:] * y


def sample_direct(cfg: SamplerConfig, k: int, radial: str) -> tuple[SampleBatch, SamplingStats]:
    """Direct manifold sampling, one sample per loop iteration.

    radial selects the amplitude law: "line" (method c), "disk" (d) or
    "annulus" (e, needs rho_min > 0). Never resamples: iterations = k and
    success_rate = 1.0 for every seed. Each iteration takes its own two
    uniforms from the stream and computes one n-joint sample on Python
    floats, with numpy's cos and sin; the rows go into one (k, n) buffer,
    transposed once. Bit-identical to sample_direct_batched.
    """
    method, amplitude = _radial_law(cfg, radial)
    rng = _stream(cfg, k)
    inverse = build_transform(cfg.layout).inverse.tolist()
    rows = array("d")
    t0 = time.perf_counter()
    for _ in range(k):
        x, y = _clarke_pair(cfg, amplitude, math.sqrt, *rng.random(2).tolist())
        # numpy's cos and sin return numpy scalars; the joints are cheaper on floats.
        x, y = float(x), float(y)
        rows.extend([c * x + s * y for c, s in inverse])
    columns = np.frombuffer(rows).reshape(k, cfg.layout.n).T
    wall = time.perf_counter() - t0
    return _finalize(method, columns, wall, iterations=k, k=k)


def sample_direct_batched(cfg: SamplerConfig, k: int, radial: str) -> SampleBatch:
    """Vectorized direct sampling: one block of uniforms for all k samples.

    Bit-identical to k sequential sample_direct draws under the same seed,
    because the PRNG stream is consumed in the same (theta, L) order and
    both paths evaluate the same formula.
    """
    method, amplitude = _radial_law(cfg, radial)
    rng = _stream(cfg, k)
    u2 = rng.random((k, 2))
    columns = _direct_columns(cfg, amplitude, u2[:, 0], u2[:, 1])
    columns.setflags(write=False)
    return SampleBatch(columns=columns, method=method)


def sample(cfg: SamplerConfig, k: int, method: str) -> tuple[SampleBatch, SamplingStats]:
    """Dispatch on a method letter a-e."""
    if method == "a":
        return sample_rejection_independent(cfg, k)
    if method == "b":
        return sample_rejection_resolved(cfg, k)
    if method in DIRECT_METHODS:
        return sample_direct(cfg, k, DIRECT_METHODS[method][0])
    raise ValueError(f"unknown sampling method {method!r}; expected one of {ALL_METHODS}")


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

    Wall times are averaged per method and normalized into `factor` against
    method (c) when present, else against the fastest method. Histograms
    pool the samples of all runs on _HIST_BINS fixed bins over
    [rho_min, rho_max]. With vectorized=True the direct methods are timed
    through their batched implementation instead of the sequential loop.

    annulus_rho_min, when given, overrides rho_min for method (e) only, so
    the annulus inner radius can stay positive while the other methods use
    symmetric bounds.
    """
    if k < 1 or runs < 1:
        raise ValueError(f"benchmark needs k >= 1 and runs >= 1, got k={k}, runs={runs}")
    edges = np.linspace(cfg.rho_min, cfg.rho_max, _HIST_BINS + 1)
    results: list[MethodBenchmark] = []
    for mi, method in enumerate(methods):
        method_cfg = cfg
        if method == "e" and annulus_rho_min is not None:
            method_cfg = replace(cfg, rho_min=annulus_rho_min)
        stats_list: list[SamplingStats] = []
        pooled: list[np.ndarray] = []
        for run in range(runs):
            run_cfg = replace(method_cfg, seed=_run_seed(cfg.seed, mi, run))
            if vectorized and method in DIRECT_METHODS:
                t0 = time.perf_counter()
                batch = sample_direct_batched(run_cfg, k, DIRECT_METHODS[method][0])
                wall = time.perf_counter() - t0
                stats = SamplingStats(method, wall, iterations=k, resamples=0, success_rate=1.0)
            else:
                batch, stats = sample(run_cfg, k, method)
            stats_list.append(stats)
            pooled.append(batch.columns)
        samples = np.concatenate(pooled, axis=1)
        hist = np.vstack([np.histogram(samples[j], bins=edges)[0] for j in range(cfg.layout.n)])
        times = np.array([s.wall_time for s in stats_list])
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
                histograms=hist,
            )
        )
    by_method = {r.method: r.time_mean for r in results}
    reference = by_method.get("c", min(by_method.values()))
    return [replace(r, factor=r.time_mean / reference if reference > 0.0 else math.inf) for r in results]


def save_batch_csv(batch: SampleBatch, path) -> None:
    """Write one sample per row with header rho_1..rho_n, 17 significant digits."""
    write_csv(path, displacement_header(batch.columns.shape[0]), batch.columns.T)


def load_batch_csv(path) -> np.ndarray:
    """Read a batch CSV back into an n x k column matrix (lossless)."""
    header, rows = read_csv(path)
    if header != displacement_header(len(header)):
        raise ValueError(f"{path}: not a sample batch CSV (header {','.join(header)!r})")
    return rows.T


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
    return csv_text(["bin_lo", "bin_hi", "count"], np.column_stack([edges[:-1], edges[1:], result.histograms[joint]]))
