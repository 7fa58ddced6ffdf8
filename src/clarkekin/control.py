"""Closed-loop displacement control simulated in Clarke space.

The controller maps the measured joint displacements onto the manifold,
forms the two-dimensional error against the desired Clarke coordinates,
applies a proportional gain with reference feedforward (precompensation),
and maps the command back to joint space. Because the command leaves
through the transform's right-inverse it satisfies the displacement
constraint at every tick regardless of measurement noise.

Actuators are modelled as independent first-order lag (PT1) elements,
discretized exactly (zero-order hold), so the loop is unconditionally
stable for any positive time constant and sample time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .arcspace import SegmentGeometry
from .clarke import all_finite, as_clarke, as_displacement, build_transform, check_finite, projector
from .csvio import read_csv, write_csv


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
    """First-order lag actuators: per joint, tau*x' + x = u."""

    tau: float
    state: np.ndarray

    def __post_init__(self):
        check_finite("time constant tau", self.tau)
        state = np.ascontiguousarray(self.state, dtype=float)
        if state.ndim != 1 or not all_finite(state):
            raise ValueError("plant state must be a finite vector")
        state.setflags(write=False)
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
        pts = tuple(as_clarke(w) for w in self.waypoints)
        if len(pts) < 2:
            raise ValueError(f"need at least 2 waypoints, got {len(pts)}")
        for name in ("v_max", "a_max", "d_max"):
            check_finite(name, getattr(self, name))
        object.__setattr__(self, "waypoints", pts)


@dataclass(frozen=True)
class SimTrace:
    """Time series of one run: desired, measured, commanded and plant state.

    All four arrays are n x T with one column per tick; time holds the tick
    instants in seconds.
    """

    time: np.ndarray
    rho_desired: np.ndarray
    rho_measured: np.ndarray
    rho_command: np.ndarray
    rho_plant: np.ndarray

    def __post_init__(self):
        t = len(self.time)
        for name in ("rho_desired", "rho_measured", "rho_command", "rho_plant"):
            arr = getattr(self, name)
            if arr.shape[1] != t:
                raise ValueError(f"{name} has {arr.shape[1]} columns for {t} ticks")


def controller_step(cfg: ControllerConfig, xi_desired, rho_measured) -> np.ndarray:
    """One controller evaluation: measured joints in, commanded joints out.

    The measurement is centered before the transform (n*rho - sum(rho),
    rescaled inside the matrix product). Centering changes nothing
    mathematically since the transform annihilates constant vectors, but it
    cancels a shared offset in exact arithmetic instead of leaving it to
    the vanishing row sums of the matrix.
    """
    t = build_transform(cfg.geometry.layout.n)
    xi_d = as_clarke(xi_desired)
    rho_m = as_displacement(rho_measured, t.n)
    centered_scaled = t.n * rho_m - np.add.reduce(rho_m)
    xi_m = t.forward.dot(centered_scaled) / t.n
    error = xi_d - xi_m
    xi_cmd = xi_d + cfg.kp * error if cfg.feedforward else cfg.kp * error
    return t.inverse.dot(xi_cmd)


def plant_step(plant: PT1Plant, command, dt: float) -> PT1Plant:
    """Advance the PT1 actuators by dt under a held command.

    Exact zero-order-hold discretization x+ = a*x + (1-a)*u with
    a = exp(-dt/tau); stable for every dt, tau > 0.
    """
    check_finite("dt", dt)
    u = as_displacement(command, len(plant.state))
    a = math.exp(-dt / plant.tau)
    return PT1Plant(tau=plant.tau, state=a * plant.state + (1.0 - a) * u)


def _profile_durations(length: float, v: float, a: float, d: float) -> tuple[float, float, float, float]:
    # Rest-to-rest scalar profile over `length`: returns accel, cruise and
    # decel durations plus the peak speed (trapezoid, or triangle when the
    # ramps meet before cruise speed is reached).
    ramp = v * v / (2.0 * a) + v * v / (2.0 * d)
    if length >= ramp:
        peak = v
        cruise = (length - ramp) / v
    else:
        peak = math.sqrt(2.0 * length * a * d / (a + d))
        cruise = 0.0
    return peak / a, cruise, peak / d, peak


# np.arange past 2**63 - 1 ticks returns an empty float array instead of raising.
_TICK_LIMIT = float(2**63)


def generate_trajectory(layout, spec: TrajectorySpec, dt: float) -> np.ndarray:
    """Joint-space reference through the waypoints, one column per tick.

    Between consecutive waypoints the Clarke coordinates move on a straight
    line under a trapezoidal speed profile, scaled so that the faster
    coordinate exactly respects v_max/a_max/d_max. Each leg is stretched to
    a whole number of ticks (never violating the limits) and ends at rest.
    The result is mapped to joints through the right-inverse, so every
    column lies on the manifold.

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
            remaining = total - tk
            # The scalar profile's branches in its order: rest, arrived, accel, cruise, decel.
            s = np.select(
                [tk <= 0.0, tk >= total, tk < t_acc, tk < t_acc + t_cruise],
                [0.0, length, 0.5 * a * tk * tk, 0.5 * a * t_acc * t_acc + peak * (tk - t_acc)],
                length - 0.5 * d * remaining * remaining,
            )
            xi_legs.append(start[:, None] + (s / length) * delta[:, None])
        joints = t.inverse @ np.concatenate(xi_legs, axis=1)
    if not all_finite(joints):
        raise ValueError("the joint-space reference is not finite: the waypoints are too large")
    return joints


def _read(raw: np.ndarray, noise: NoiseModel) -> np.ndarray:
    # Plant state plus noise in, reading out: optional quantization, then bias.
    if noise.quantum > 0.0:
        raw = np.round(raw / noise.quantum) * noise.quantum
    return raw + noise.bias


def run_simulation(
    cfg: ControllerConfig,
    plant: PT1Plant,
    noise: NoiseModel,
    trajectory: np.ndarray,
    closed_loop: bool = True,
) -> SimTrace:
    """Simulate the loop tick by tick over a joint-space reference.

    Per tick: measure (plant state, noise draw, optional quantization, then
    bias), evaluate the controller, advance the plant. closed_loop=False
    feeds the reference straight to the actuators instead, for open-loop
    comparisons. Deterministic for a given noise seed: the noise is drawn
    as one T x n block from the same PCG64 stream, bitwise the values of T
    per-tick draws, so seeded traces are unchanged. Raises ValueError if
    the loop leaves the float range.
    """
    n = cfg.geometry.layout.n
    t = build_transform(n)
    trajectory = np.asarray(trajectory, dtype=float)
    if trajectory.ndim != 2 or trajectory.shape[0] != n:
        raise ValueError(f"trajectory must be n x T with n={n}, got {trajectory.shape}")
    ticks = trajectory.shape[1]
    if ticks == 0:
        rest = (t.inverse @ (t.forward @ plant.state)).reshape(n, 1)
        col = plant.state.reshape(n, 1)
        return SimTrace(np.array([0.0]), rest, col.copy(), rest.copy(), col.copy())
    # One row per tick; states[i] is the plant state read at tick i.
    states = np.empty((ticks + 1, n))
    states[0] = plant.state
    rows = trajectory.T
    try:
        draws = np.random.Generator(np.random.PCG64(noise.seed)).uniform(-noise.epsilon, noise.epsilon, (ticks, n))
        with np.errstate(over="raise", invalid="raise"):
            if closed_loop:
                measured, command = np.empty((2, ticks, n))
                for i in range(ticks):
                    measured[i] = reading = _read(plant.state + draws[i], noise)
                    command[i] = cmd = controller_step(cfg, t.forward.dot(rows[i]), reading)
                    plant = plant_step(plant, cmd, cfg.dt)
                    states[i + 1] = plant.state
            else:
                for i in range(ticks):
                    plant = plant_step(plant, rows[i], cfg.dt)
                    states[i + 1] = plant.state
                measured, command = _read(states[:-1] + draws, noise), rows
    except (FloatingPointError, OverflowError) as exc:
        raise ValueError(f"simulation left the float range: {exc}") from None
    return SimTrace(cfg.dt * np.arange(ticks), trajectory.copy(), measured.T.copy(), command.T.copy(), states[1:].T.copy())


def clarke_tracking_rms(trace: SimTrace, transform_) -> float:
    """RMS of the Clarke-space error between desired and plant displacement."""
    err = transform_.forward @ (trace.rho_desired - trace.rho_plant)
    return float(np.sqrt(np.mean(np.sum(err * err, axis=0))))


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

    Raises if the measured squared-norm ratio deviates from the closed form
    2/n by more than 1e-12, which would indicate a broken transform pair.
    """
    check_finite("sigma", sigma, None)
    if sigma != 0.0 and not sys.float_info.min <= sigma * sigma < math.inf:
        raise ValueError(f"sigma must be 0 or have a normal, finite square, got {sigma}")
    t = build_transform(layout)
    if not 0 <= joint_index < t.n:
        raise ValueError(f"joint index must be in [0, {t.n}), got {joint_index}")
    fault = np.zeros(t.n)
    fault[joint_index] = sigma
    spread = projector(t) @ fault
    squared = float(spread @ spread)
    ratio = squared / (sigma * sigma) if sigma != 0.0 else 0.0
    closed_form = 2.0 / t.n
    if sigma != 0.0 and abs(ratio - closed_form) > 1e-12:
        raise AssertionError(f"norm ratio {ratio} deviates from closed form {closed_form}")
    return NoisePropagationReport(
        n=t.n,
        joint_index=joint_index,
        sigma=sigma,
        spread=spread,
        peak=float(spread[joint_index]),
        squared_norm=squared,
        norm_ratio=ratio,
        norm_ratio_closed_form=closed_form,
        norm_ratio_unscaled=t.n / 2.0,
    )


def _trace_header(n: int) -> list[str]:
    """Columns t, rho_d_1..n, rho_m_1..n, rho_cmd_1..n, rho_plant_1..n of a trace CSV."""
    return ["t"] + [f"{prefix}_{i + 1}" for prefix in ("rho_d", "rho_m", "rho_cmd", "rho_plant") for i in range(n)]


def save_trace_csv(trace: SimTrace, path) -> None:
    """Write a trace as CSV, one row per tick, under the _trace_header columns."""
    columns = (trace.time, trace.rho_desired, trace.rho_measured, trace.rho_command, trace.rho_plant)
    write_csv(path, _trace_header(trace.rho_desired.shape[0]), np.vstack(columns).T)


def trace_to_dict(trace: SimTrace) -> dict:
    arrays = {f.name: getattr(trace, f.name).tolist() for f in fields(trace)}
    return {"t": arrays.pop("time"), **arrays}


def load_trace_csv(path) -> SimTrace:
    """Read a trace CSV back (lossless at 17 significant digits).

    Line 1 must be the header save_trace_csv writes for some n >= 1.
    """
    header, rows = read_csv(path)
    n = (len(header) - 1) // 4
    if n < 1 or header != _trace_header(n):
        expected = "t,rho_d_1..n,rho_m_1..n,rho_cmd_1..n,rho_plant_1..n"
        raise ValueError(f"{path}: line 1 must be the trace header {expected}, got {','.join(header)!r}")
    data = rows.T
    return SimTrace(
        time=data[0],
        rho_desired=data[1 : 1 + n],
        rho_measured=data[1 + n : 1 + 2 * n],
        rho_command=data[1 + 2 * n : 1 + 3 * n],
        rho_plant=data[1 + 3 * n :],
    )
