"""Closed-loop displacement control simulated in Clarke space.

The controller maps the measured joint displacements onto the manifold,
forms the two-dimensional error against the desired Clarke coordinates,
applies a proportional gain with reference feedforward (precompensation),
and maps the command back to joint space. Because the command leaves
through the transform's right-inverse it satisfies the displacement
constraint at every tick regardless of measurement noise.

Actuators are modelled as independent first-order lag (PT1) elements,
discretized exactly (zero-order hold), so the plant alone is stable for
any positive time constant and sample time. The closed loop is not: on
the manifold its pole is a - (1 - a)*kp with a = exp(-dt/tau), for the
feedforward and the pure proportional law alike, so run_simulation
refuses kp >= (1 + a)/(1 - a), about 500 at dt = 1 ms and tau = 0.25 s.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .arcspace import SegmentGeometry
from .clarke import _built, _owned, _product, _readonly, _sum, all_finite, as_clarke, as_displacement, build_transform, check_finite
from .csvio import csv_chunks, write_text


@dataclass(frozen=True)
class ControllerConfig:
    """Proportional gain, sample time and segment geometry.

    feedforward=True gives the precompensated law u = xi_d + kp*e; with
    False the plain proportional law u = kp*e is used for comparison.
    """

    kp: float
    dt: float
    geometry: SegmentGeometry
    feedforward: bool = True

    def __post_init__(self):
        check_finite("kp", self.kp)
        check_finite("dt", self.dt)


@dataclass(frozen=True)
class PT1Plant:
    """First-order lag actuators: per joint, tau*x' + x = u. The state is read-only; a caller's is copied (clarke._owned)."""

    tau: float
    state: np.ndarray

    def __post_init__(self):
        check_finite("time constant tau", self.tau)
        state = _owned(self.state)
        if state.ndim != 1 or not all_finite(state):
            raise ValueError("plant state must be a finite vector")
        object.__setattr__(self, "state", state)


@dataclass(frozen=True)
class NoiseModel:
    """Additive measurement noise, uniform on [-epsilon, epsilon] per joint.

    bias adds a constant offset to every measured joint (a calibration
    offset; the controller is invariant to it). quantum > 0 snaps the
    noisy reading to a grid of that resolution before the bias is added,
    the way an encoder count would; 0 disables quantization.
    """

    epsilon: float
    seed: int = 0
    bias: float = 0.0
    quantum: float = 0.0

    def __post_init__(self):
        check_finite("noise half-width epsilon", self.epsilon, "non-negative")
        if self.epsilon > sys.float_info.max / 2:  # the draws span 2*epsilon
            raise ValueError(f"noise half-width epsilon must be at most {sys.float_info.max / 2!r}, got {self.epsilon}")
        check_finite("bias", self.bias, None)
        check_finite("quantum", self.quantum, "non-negative")


@dataclass(frozen=True)
class TrajectorySpec:
    """Waypoints in Clarke space plus symmetric kinematic limits.

    v_max caps the per-coordinate speed (m/s), a_max and d_max the
    per-coordinate acceleration and deceleration (m/s^2). The trajectory
    comes to rest at every waypoint.
    """

    waypoints: tuple
    v_max: float
    a_max: float
    d_max: float

    def __post_init__(self):
        pts = tuple(_owned(as_clarke(w)) for w in self.waypoints)
        if len(pts) < 2:
            raise ValueError(f"need at least 2 waypoints, got {len(pts)}")
        for name in ("v_max", "a_max", "d_max"):
            check_finite(name, getattr(self, name))
        object.__setattr__(self, "waypoints", pts)


@dataclass(frozen=True)
class SimTrace:
    """Time series of one run: desired, measured, commanded and plant state.

    All four arrays are n x T, for one joint count n, with one column per tick; time holds the tick instants in
    seconds. Each is read-only: one run_simulation computed, frozen in place, or a copy of a caller's (clarke._owned).
    """

    time: np.ndarray
    rho_desired: np.ndarray
    rho_measured: np.ndarray
    rho_command: np.ndarray
    rho_plant: np.ndarray

    def __post_init__(self):
        time = _owned(self.time)
        if time.ndim != 1:
            raise ValueError(f"time must be a vector, got shape {time.shape}")
        object.__setattr__(self, "time", time)
        t = len(time)
        for name in ("rho_desired", "rho_measured", "rho_command", "rho_plant"):
            arr = _owned(getattr(self, name))
            if arr.ndim != 2:
                raise ValueError(f"{name} must be an n x T array, got shape {arr.shape}")
            if arr.shape[1] != t:
                raise ValueError(f"{name} has {arr.shape[1]} columns for {t} ticks")
            object.__setattr__(self, name, arr)
            if arr.shape[0] != self.rho_desired.shape[0]:
                raise ValueError(f"{name} has {arr.shape[0]} joints, rho_desired has {self.rho_desired.shape[0]}")


def controller_step(cfg: ControllerConfig, xi_desired, rho_measured) -> np.ndarray:
    """One controller evaluation: measured joints in, commanded joints out.

    The measurement is centered before the transform (n*rho - sum(rho), rescaled after the matrix product).
    Centering changes nothing mathematically since the transform annihilates constant vectors, but it cancels
    a shared offset in exact arithmetic instead of leaving it to the vanishing row sums of the matrix.

    All on Python floats, the Clarke pair never an array: the centring sum left to right (clarke._sum), both
    products in clarke._product's order. A command whose |re| + |im| passes the float range raises OverflowError.
    """
    t = build_transform(cfg.geometry.layout.n)
    d_re, d_im = as_clarke(xi_desired)
    rho_m = as_displacement(rho_measured, t.n)
    n, total = float(t.n), _sum(rho_m)
    m_re, m_im = _product(t.forward, [n * r - total for r in rho_m])
    e_re, e_im = d_re - m_re / t.n, d_im - m_im / t.n
    kp = cfg.kp
    if cfg.feedforward:
        c_re, c_im = d_re + kp * e_re, d_im + kp * e_im
    else:
        c_re, c_im = kp * e_re, kp * e_im
    if not math.isfinite(abs(c_re) + abs(c_im)):
        raise OverflowError(f"the Clarke command ({c_re:.6g}, {c_im:.6g}) overflows")
    return np.array(_product(t.inverse, (c_re, c_im)))


def plant_step(plant: PT1Plant, command, dt: float) -> PT1Plant:
    """Advance the PT1 actuators by dt under a held command.

    Exact zero-order-hold discretization x+ = a*x + (1-a)*u with a = exp(-dt/tau), on Python floats
    with numpy's bits; stable for every dt, tau > 0. dt and the command are checked here; the plant's
    tau was checked when it was built, so the next plant is built (clarke._built) without checking it again,
    and its state is not checked either: with a in [0, 1], a*x + (1-a)*u of finite x and u rounds below the
    overflow threshold even at the largest float.
    """
    check_finite("dt", dt)
    u = as_displacement(command, len(plant.state))
    a = math.exp(-dt / plant.tau)
    state = np.array([a * x + (1.0 - a) * v for x, v in zip(plant.state.tolist(), u)])
    return _built(PT1Plant, tau=plant.tau, state=_readonly(state))


def _profile_durations(length: float, v: float, a: float, d: float) -> tuple[float, float, float, float]:
    # Rest-to-rest scalar profile over `length`: returns accel, cruise and
    # decel durations plus the peak speed (trapezoid, or triangle when the
    # ramps meet before cruise speed is reached). Where the triangle's square
    # underflows, the peak is sqrt(2*length*m/(1 + m/M)), m = min(a, d) and
    # M = max(a, d), formed from factors that cannot underflow: a positive
    # length never gets a profile of zero time.
    ramp = v * v / (2.0 * a) + v * v / (2.0 * d)
    if length >= ramp:
        peak = v
        cruise = (length - ramp) / v
    else:
        square = 2.0 * length * a * d / (a + d)
        if square < sys.float_info.min:
            m, big = min(a, d), max(a, d)
            peak = math.sqrt(2.0 * length) * (math.sqrt(m) / math.sqrt(1.0 + m / big))
        else:
            peak = math.sqrt(square)
        cruise = 0.0
    return peak / a, cruise, peak / d, peak


# np.arange past 2**63 - 1 ticks returns an empty float array instead of raising.
_TICK_LIMIT = float(2**63)
_BLOCK = 256  # ticks the closed loop lists before one store: unbounded lists keep about 250 B per tick


def generate_trajectory(layout, spec: TrajectorySpec, dt: float) -> np.ndarray:
    """Joint-space reference through the waypoints, one column per tick.

    Between consecutive waypoints the Clarke coordinates move on a straight
    line under a trapezoidal speed profile, scaled so that the faster
    coordinate exactly respects v_max/a_max/d_max. Each leg is stretched to
    a whole number of ticks (never violating the limits), and its last tick
    is at its goal, at rest. The result is mapped to joints through the
    right-inverse (clarke._product), so every column lies on the manifold.

    Each leg is one array expression over its ticks. A leg numpy cannot
    tick, or a reference past the float range, raises ValueError.
    """
    check_finite("dt", dt)
    t = build_transform(layout)
    a, d = spec.a_max, spec.d_max
    points = np.array(spec.waypoints)
    # Branches np.select does not pick may overflow; a picked one that does
    # reaches the joint reference, which is checked once at the end.
    with np.errstate(over="ignore", invalid="ignore"):
        xi_legs = [points[0][:, None]]
        for leg, (start, goal) in enumerate(zip(points[:-1], points[1:]), start=1):
            too_long = f"leg {leg} (waypoint {leg} to {leg + 1}) is too long to tick"
            delta = goal - start
            if not all_finite(delta):
                raise ValueError(f"{too_long}: goal - start is not finite")
            length = float(np.max(np.abs(delta)))
            if length == 0.0:
                xi_legs.append(goal[:, None])
                continue
            t_acc, t_cruise, t_dec, peak = _profile_durations(length, spec.v_max, a, d)
            total = t_acc + t_cruise + t_dec
            count = total / dt - 1e-12
            too_long += f": {count:.6g} ticks ({total} s at dt={dt})"
            if not count < _TICK_LIMIT:
                raise ValueError(too_long)
            ticks = max(1, math.ceil(count))
            try:
                j = np.arange(1, ticks + 1)
            except (MemoryError, ValueError):
                raise ValueError(too_long) from None
            tk = np.minimum(j * dt * (total / (ticks * dt)), total)
            tk[-1] = total  # the dilation may round the leg's end down, even to 0
            remaining = total - tk
            # The scalar profile's branches in its order: rest, arrived, accel, cruise, decel.
            s = np.select(
                [tk <= 0.0, tk >= total, tk < t_acc, tk < t_acc + t_cruise],
                [0.0, length, 0.5 * a * tk * tk, 0.5 * a * t_acc * t_acc + peak * (tk - t_acc)],
                length - 0.5 * d * remaining * remaining,
            )
            xi_legs.append(start[:, None] + (s / length) * delta[:, None])
        joints = _product(t.inverse, np.concatenate(xi_legs, axis=1))
    if not all_finite(joints):
        raise ValueError("the joint-space reference is not finite: the waypoints are too large")
    return joints


def _read(raw: np.ndarray, noise: NoiseModel) -> np.ndarray:
    # Plant state plus noise in, reading out: optional quantization, then bias.
    if noise.quantum > 0.0:
        raw = np.round(raw / noise.quantum) * noise.quantum
    return raw + noise.bias


def _check_stable(cfg: ControllerConfig, plant: PT1Plant) -> None:
    # The closed-loop pole a - (1 - a)*kp is below 1 for every kp > 0 and
    # above -1 only for kp < (1 + a)/(1 - a); expm1 keeps 1 - a exact for
    # dt much smaller than tau.
    x = cfg.dt / plant.tau
    bound = (1.0 + math.exp(-x)) / -math.expm1(-x)
    if not cfg.kp < bound:
        raise ValueError(
            f"kp={cfg.kp} makes the closed loop unstable: the stability bound is "
            f"kp < (1 + a)/(1 - a) = {bound:.6g} with a = exp(-dt/tau), dt={cfg.dt}, tau={plant.tau}"
        )


def run_simulation(
    cfg: ControllerConfig,
    plant: PT1Plant,
    noise: NoiseModel,
    trajectory: np.ndarray,
    closed_loop: bool = True,
) -> SimTrace:
    """Simulate the loop tick by tick over a joint-space reference.

    Per tick the closed loop measures (plant state, noise draw, optional
    quantization, then bias), evaluates controller_step and advances the
    plant through plant_step, storing commands and states _BLOCK ticks at
    a time. closed_loop=False feeds the reference straight to the actuators,
    for open-loop comparisons: its reference checked once, then one ZOH
    recurrence per joint on Python floats, with the bits of plant_step.
    Deterministic for a given noise seed: the noise is drawn as one T x n
    block from the same PCG64 stream, bitwise the values of T per-tick
    draws, so seeded traces are unchanged. Raises ValueError if the loop
    leaves the float range, and for the closed loop if kp is at or past
    the stability bound (1 + a)/(1 - a), a = exp(-dt/tau). Its trace holds
    one frozen copy of the trajectory and the run's own arrays, never copied.
    """
    if closed_loop:
        _check_stable(cfg, plant)
    n = cfg.geometry.layout.n
    t = build_transform(n)
    trajectory = _owned(trajectory)
    if trajectory.ndim != 2 or trajectory.shape[0] != n:
        raise ValueError(f"trajectory must be n x T with n={n}, got {trajectory.shape}")
    ticks = trajectory.shape[1]
    if ticks == 0:
        p = _readonly(np.array(_product(t.inverse, _product(t.forward, plant.state.tolist()))))[:, None]
        x = plant.state.reshape(n, 1)
        return _built(SimTrace, time=_readonly(np.zeros(1)), rho_desired=p, rho_measured=x, rho_command=p, rho_plant=x)
    # One row per tick; states[i] is the plant state read at tick i.
    states = np.empty((ticks + 1, n))
    states[0] = plant.state
    try:
        draws = np.random.Generator(np.random.PCG64(noise.seed)).uniform(-noise.epsilon, noise.epsilon, (ticks, n))
        with np.errstate(over="raise", invalid="raise"):
            if closed_loop:
                command = np.empty((ticks, n))
                desired = _product(t.forward, trajectory).T
                for start in range(0, ticks, _BLOCK):
                    cmds, xs = [], []
                    for xi_d, draw in zip(desired[start : start + _BLOCK], draws[start : start + _BLOCK]):
                        cmds.append(cmd := controller_step(cfg, xi_d, _read(plant.state + draw, noise)))
                        plant = plant_step(plant, cmd, cfg.dt)
                        xs.append(plant.state)
                    command[start : start + _BLOCK], states[start + 1 : start + 1 + _BLOCK] = cmds, xs
            else:
                command = as_displacement(trajectory, n, batch=True).T
                a = math.exp(-cfg.dt / plant.tau)
                # Per joint on floats, plant_step's a*x + (1 - a)*u summed the other way round: the same bits.
                for j, (x, u) in enumerate(zip(plant.state.tolist(), trajectory)):
                    states[1:, j] = [x := v + a * x for v in ((1.0 - a) * u).tolist()]
            measured = _readonly(_read(states[:-1] + draws, noise)).T
    except (FloatingPointError, OverflowError) as exc:
        raise ValueError(f"simulation left the float range: {exc}") from None
    time, command, states = _readonly(cfg.dt * np.arange(ticks)), _readonly(command).T, _readonly(states)[1:].T
    return _built(SimTrace, time=time, rho_desired=trajectory, rho_measured=measured, rho_command=command, rho_plant=states)


def clarke_tracking_rms(trace: SimTrace) -> float:
    """RMS of the Clarke-space error between desired and plant displacement.

    Where the mean square overflows or falls below the normal range, the
    error is first scaled by an exact power of two, so a nonzero error
    never reads 0. An RMS past the float range raises ValueError.
    """
    exponent = 0
    with np.errstate(over="ignore", invalid="ignore"):
        err = _product(build_transform(trace.rho_desired.shape[0]).forward, trace.rho_desired - trace.rho_plant)
        square = np.mean(np.sum(err * err, axis=0))
        if not sys.float_info.min <= square < math.inf and np.any(err):
            exponent = math.frexp(np.max(np.abs(err)))[1]
            scaled = np.ldexp(err, -exponent)
            square = np.mean(np.sum(scaled * scaled, axis=0))
        rms = float(np.ldexp(np.sqrt(square), exponent))
    if not math.isfinite(rms):
        raise ValueError(f"the Clarke tracking RMS passes the float range: {rms}")
    return rms


@dataclass(frozen=True)
class NoisePropagationReport:
    """How a single-joint measurement error spreads over all joints.

    spread is the manifold projection of sigma at joint `joint_index`; its
    entries follow (2*sigma/n)*cos(psi_i - psi_k). norm_ratio is the
    measured |spread|^2 / sigma^2, equal to 2/n for the amplitude-invariant
    matrix pair used here. norm_ratio_unscaled (n/2) is the value the same
    construction yields without the 2/n amplitude normalization of the
    forward matrix; it is reported for comparison only.
    """

    n: int
    joint_index: int
    sigma: float
    spread: np.ndarray
    peak: float
    squared_norm: float
    norm_ratio: float
    norm_ratio_closed_form: float
    norm_ratio_unscaled: float

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "spread": self.spread.tolist()}


def noise_propagation(layout, sigma: float, joint_index: int) -> NoisePropagationReport:
    """Project a single-joint error of size sigma onto the manifold.

    The projection is inverse @ (forward @ fault), O(n) in time and memory;
    no n x n matrix is built; its squared norm adds left to right (clarke._sum). The reported
    norm_ratio is measured, not checked: its agreement with the closed form 2/n is a test property.
    """
    check_finite("sigma", sigma, None)
    if sigma != 0.0 and not sys.float_info.min <= sigma * sigma < math.inf:
        raise ValueError(f"sigma must be 0 or have a normal, finite square, got {sigma}")
    t = build_transform(layout)
    if not 0 <= joint_index < t.n:
        raise ValueError(f"joint index must be in [0, {t.n}), got {joint_index}")
    fault = [0.0] * t.n
    fault[joint_index] = float(sigma)
    spread = _product(t.inverse, _product(t.forward, fault))
    squared = _sum([s * s for s in spread])
    return NoisePropagationReport(
        n=t.n,
        joint_index=joint_index,
        sigma=sigma,
        spread=_readonly(np.array(spread)),
        peak=spread[joint_index],
        squared_norm=squared,
        norm_ratio=squared / (sigma * sigma) if sigma != 0.0 else 0.0,
        norm_ratio_closed_form=2.0 / t.n,
        norm_ratio_unscaled=t.n / 2.0,
    )


def _trace_header(n: int) -> list[str]:
    """Columns t, rho_d_1..n, rho_m_1..n, rho_cmd_1..n, rho_plant_1..n of a trace CSV."""
    return ["t"] + [f"{prefix}_{i + 1}" for prefix in ("rho_d", "rho_m", "rho_cmd", "rho_plant") for i in range(n)]


def save_trace_csv(trace: SimTrace, path) -> None:
    """Write a trace as CSV, one row per tick, under the _trace_header columns."""
    joints = (trace.rho_desired.T, trace.rho_measured.T, trace.rho_command.T, trace.rho_plant.T)
    write_text(path, csv_chunks(_trace_header(trace.rho_desired.shape[0]), trace.time[:, None], *joints))


def trace_to_dict(trace: SimTrace) -> dict:
    arrays = {f.name: getattr(trace, f.name).tolist() for f in fields(trace)}
    return {"t": arrays.pop("time"), **arrays}
