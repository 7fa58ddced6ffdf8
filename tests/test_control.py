"""Controller law, PT1 plant, trajectory profile, closed-loop simulation."""

import dataclasses
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clarkekin import (
    ControllerConfig,
    JointLayout,
    NoiseModel,
    PT1Plant,
    SegmentGeometry,
    SimTrace,
    TrajectorySpec,
    build_transform,
    clarke_tracking_rms,
    controller_step,
    generate_trajectory,
    inverse_transform,
    manifold_residual,
    noise_propagation,
    plant_step,
    projector,
    run_simulation,
)
from clarkekin.clarke import _product, all_finite, as_clarke, as_displacement, transform
from clarkekin.control import _profile_durations, _trace_header, save_trace_csv
from clarkekin.csvio import read_csv
from test_products import left_to_right, left_to_right_sum

V_MAX = 0.01 * np.pi
A_MAX = 0.1 * np.pi


@pytest.fixture
def geom():
    return SegmentGeometry(layout=JointLayout(n=5, d=0.01), l=0.1)


@pytest.fixture
def cfg(geom):
    return ControllerConfig(kp=125.0, dt=1e-3, geometry=geom)


def spec_between(a, b, *more):
    return TrajectorySpec(
        waypoints=tuple(np.asarray(w, dtype=float) for w in (a, b, *more)),
        v_max=V_MAX,
        a_max=A_MAX,
        d_max=A_MAX,
    )


def reference_controller_step(cfg, xi_desired, rho_measured):
    """controller_step on numpy arrays, with the left-to-right sum and products of test_products: the oracle."""
    t = build_transform(cfg.geometry.layout.n)
    xi_d = np.array(as_clarke(xi_desired))
    rho_m = np.array(as_displacement(rho_measured, t.n))
    centered_scaled = t.n * rho_m - left_to_right_sum(rho_m.tolist())
    xi_m = left_to_right(t.forward, centered_scaled) / t.n
    error = xi_d - xi_m
    xi_cmd = xi_d + cfg.kp * error if cfg.feedforward else cfg.kp * error
    return left_to_right(t.inverse, xi_cmd)


# Finite floats, the largest ones and 1.7e308 among them.
edge_floats = st.one_of(
    st.sampled_from([np.finfo(float).max, -np.finfo(float).max, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def reference_plant_step(plant, command, dt):
    """The PT1 step x+ = a*x + (1 - a)*u, a = exp(-dt/tau), into a checked PT1Plant: the oracle."""
    a = math.exp(-dt / plant.tau)
    return PT1Plant(plant.tau, a * plant.state + (1.0 - a) * np.asarray(command, dtype=float))


def _profile_position(t, t_acc, t_cruise, t_dec, peak, a, d, length):
    # The scalar rest-to-rest profile, one tick at a time.
    total = t_acc + t_cruise + t_dec
    if t <= 0.0:
        return 0.0
    if t >= total:
        return length
    if t < t_acc:
        return 0.5 * a * t * t
    if t < t_acc + t_cruise:
        return 0.5 * a * t_acc * t_acc + peak * (t - t_acc)
    remaining = total - t
    return length - 0.5 * d * remaining * remaining


def per_tick_clarke_pairs(spec, dt):
    """generate_trajectory's Clarke pairs, one _profile_position call and one column per tick."""
    xi_cols = [np.asarray(spec.waypoints[0], dtype=float)]
    for start, goal in zip(spec.waypoints[:-1], spec.waypoints[1:]):
        delta = goal - start
        length = float(np.max(np.abs(delta)))
        if length == 0.0:
            xi_cols.append(goal.copy())
            continue
        t_acc, t_cruise, t_dec, peak = _profile_durations(length, spec.v_max, spec.a_max, spec.d_max)
        total = t_acc + t_cruise + t_dec
        ticks = max(1, math.ceil(total / dt - 1e-12))
        dilation = total / (ticks * dt)
        for j in range(1, ticks + 1):
            # The last tick of a leg is at its end, even where the dilation rounds it down.
            tk = total if j == ticks else min(j * dt * dilation, total)
            s = _profile_position(tk, t_acc, t_cruise, t_dec, peak, spec.a_max, spec.d_max, length)
            xi_cols.append(start + (s / length) * delta)
    return np.column_stack(xi_cols)


def per_tick_trajectory_oracle(layout, spec, dt):
    """generate_trajectory as one column per tick: each tick's Clarke pair through its own product."""
    t = build_transform(layout)
    return np.column_stack([left_to_right(t.inverse, xi) for xi in per_tick_clarke_pairs(spec, dt).T])


def per_tick_simulation_oracle(cfg, plant, noise, trajectory, closed_loop=True):
    """run_simulation with one noise draw per tick and one column store per
    tick, stepping through the test's own controller and plant steps."""
    n = cfg.geometry.layout.n
    t = build_transform(n)
    ticks = trajectory.shape[1]
    rng = np.random.Generator(np.random.PCG64(noise.seed))
    measured = np.empty((n, ticks))
    command = np.empty((n, ticks))
    plant_states = np.empty((n, ticks))
    for i in range(ticks):
        reading = plant.state + rng.uniform(-noise.epsilon, noise.epsilon, n)
        if noise.quantum > 0.0:
            reading = np.round(reading / noise.quantum) * noise.quantum
        reading = reading + noise.bias
        rho_d = trajectory[:, i]
        if closed_loop:
            cmd = reference_controller_step(cfg, left_to_right(t.forward, rho_d), reading)
        else:
            cmd = rho_d
        plant = reference_plant_step(plant, cmd, cfg.dt)
        measured[:, i] = reading
        command[:, i] = cmd
        plant_states[:, i] = plant.state
    return (cfg.dt * np.arange(ticks), trajectory.copy(), measured, command, plant_states)


class TestControllerStep:
    def test_zero_error_fixed_point(self, cfg):
        t = build_transform(5)
        xi_d = np.array([0.012, -0.004])
        rho_star = inverse_transform(t, xi_d)
        cmd = controller_step(cfg, xi_d, rho_star)
        assert np.max(np.abs(cmd - rho_star)) < 1e-12

    def test_step_from_rest(self, cfg):
        t = build_transform(5)
        c = 0.02
        cmd = controller_step(cfg, np.array([c, 0.0]), np.zeros(5))
        expected = (1.0 + cfg.kp) * c * t.inverse[:, 0]
        assert np.max(np.abs(cmd - expected)) < 1e-12

    def test_command_always_on_manifold(self, cfg):
        t = build_transform(5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            cmd = controller_step(cfg, rng.uniform(-0.03, 0.03, 2), rng.uniform(-0.05, 0.05, 5))
            assert manifold_residual(t, cmd) < 1e-12

    def test_bias_rejected_bitwise_on_grid_values(self, cfg):
        # Measurements on a dyadic grid with a dyadic offset: all sums in the
        # centering step are exact, so the commands match bit for bit.
        rng = np.random.default_rng(1)
        xi_d = np.array([0.01, -0.02])
        for _ in range(100):
            rho_m = np.round(rng.uniform(-0.05, 0.05, 5) * 2**30) / 2**30
            base = controller_step(cfg, xi_d, rho_m)
            for mu in (2.0**-8, -3.0 * 2.0**-10, 0.25):
                assert np.array_equal(base, controller_step(cfg, xi_d, rho_m + mu))

    def test_bias_rejected_for_arbitrary_floats(self, cfg):
        rng = np.random.default_rng(2)
        xi_d = np.array([0.005, 0.015])
        for _ in range(100):
            rho_m = rng.uniform(-0.05, 0.05, 5)
            base = controller_step(cfg, xi_d, rho_m)
            shifted = controller_step(cfg, xi_d, rho_m + rng.uniform(-1.0, 1.0))
            assert np.max(np.abs(base - shifted)) < 1e-13

    def test_pure_proportional_variant(self, geom):
        pure = ControllerConfig(kp=10.0, dt=1e-3, geometry=geom, feedforward=False)
        t = build_transform(5)
        c = 0.02
        cmd = controller_step(pure, np.array([c, 0.0]), np.zeros(5))
        assert np.max(np.abs(cmd - 10.0 * c * t.inverse[:, 0])) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(3, 64),
        feedforward=st.booleans(),
        kp=st.floats(1e-3, 1e4),
        scale=st.floats(-6, 2).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_reference(self, n, feedforward, kp, scale, seed):
        geom = SegmentGeometry(layout=JointLayout(n=n, d=0.01), l=0.1)
        cfg = ControllerConfig(kp=kp, dt=1e-3, geometry=geom, feedforward=feedforward)
        rng = np.random.default_rng(seed)
        xi_d, rho_m = rng.uniform(-scale, scale, 2), rng.uniform(-scale, scale, n)
        assert np.array_equal(controller_step(cfg, xi_d, rho_m), reference_controller_step(cfg, xi_d, rho_m))

    @pytest.mark.parametrize("feedforward", [True, False])
    def test_overflowing_command_is_refused_in_one_line(self, geom, feedforward):
        # kp*error passes the float range on the first; on the second both
        # Clarke floats are finite, but a joint of inverse @ command is not.
        cfg = ControllerConfig(kp=125.0, dt=1e-3, geometry=geom, feedforward=feedforward)
        with pytest.raises(OverflowError, match=r"^the Clarke command \(-?inf, -?(0|inf)\) overflows$"):
            controller_step(cfg, [1e307, 0.0], np.zeros(5))
        cfg = dataclasses.replace(cfg, kp=16.0 if feedforward else 17.0)
        with pytest.raises(OverflowError, match=r"^the Clarke command \(1\.7e\+308, 1\.7e\+308\) overflows$"):
            controller_step(cfg, [1e307, 1e307], np.zeros(5))

    def test_validation(self, geom):
        with pytest.raises(ValueError, match="kp"):
            ControllerConfig(kp=0.0, dt=1e-3, geometry=geom)
        with pytest.raises(ValueError, match="dt"):
            ControllerConfig(kp=1.0, dt=0.0, geometry=geom)


class TestBatchesRejected:
    """The per-tick steps take one displacement vector, never a batch.

    controller_step centers its measurement with a sum over the joints; on
    an n x k matrix that sum would run over every column at once.
    """

    def test_controller_step(self, cfg):
        with pytest.raises(ValueError, match=r"shape \(5,\)"):
            controller_step(cfg, np.array([0.01, 0.0]), np.zeros((5, 3)))

    def test_plant_step(self):
        plant = PT1Plant(tau=0.25, state=np.zeros(5))
        with pytest.raises(ValueError, match=r"shape \(5,\)"):
            plant_step(plant, np.zeros((5, 3)), 1e-3)


class TestPlantStep:
    def test_equilibrium(self):
        plant = PT1Plant(tau=0.25, state=np.full(5, 0.37))
        stepped = plant_step(plant, np.full(5, 0.37), 1e-3)
        assert np.array_equal(stepped.state, plant.state)

    def test_step_response_at_one_time_constant(self):
        tau = 0.25
        dt = 1e-3
        plant = PT1Plant(tau=tau, state=np.zeros(3))
        target = np.full(3, 0.8)
        for _ in range(round(tau / dt)):
            plant = plant_step(plant, target, dt)
        assert np.max(np.abs(plant.state - 0.8 * (1.0 - math.exp(-1.0)))) < 1e-9

    def test_small_dt_limit_matches_ode(self):
        tau = 0.1
        x = np.array([0.2, -0.1])
        u = np.array([1.0, 0.5])
        for dt in (1e-5, 1e-6, 1e-7):
            stepped = plant_step(PT1Plant(tau=tau, state=x), u, dt)
            rate = (stepped.state - x) / dt
            assert np.max(np.abs(rate - (u - x) / tau)) < np.max(np.abs(u - x)) / tau * dt / tau * 2

    def test_monotone_approach(self):
        plant = PT1Plant(tau=0.05, state=np.array([0.0, 1.0]))
        target = np.array([1.0, 0.0])
        previous_gap = np.abs(target - plant.state)
        for _ in range(200):
            plant = plant_step(plant, target, 1e-3)
            gap = np.abs(target - plant.state)
            assert np.all(gap <= previous_gap)
            previous_gap = gap

    def test_unconditional_stability_large_dt(self):
        plant = PT1Plant(tau=1e-3, state=np.zeros(2))
        stepped = plant_step(plant, np.array([1.0, -1.0]), 10.0)
        assert np.all(np.abs(stepped.state) <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="time constant"):
            PT1Plant(tau=0.0, state=np.zeros(3))
        with pytest.raises(ValueError, match="dt"):
            plant_step(PT1Plant(tau=1.0, state=np.zeros(3)), np.zeros(3), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 64),
        dt=st.floats(-6, 1).map(lambda e: 10.0**e),
        tau=st.floats(-3, 3).map(lambda e: 10.0**e),
        state_scale=st.floats(-300, 300).map(lambda e: 10.0**e),
        command_scale=st.floats(-300, 300).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_reference(self, n, dt, tau, state_scale, command_scale, seed):
        rng = np.random.default_rng(seed)
        plant = PT1Plant(tau=tau, state=rng.uniform(-state_scale, state_scale, n))
        command = rng.uniform(-command_scale, command_scale, n)
        stepped = plant_step(plant, command, dt)
        assert type(stepped) is PT1Plant and stepped.tau == tau
        assert np.array_equal(stepped.state, reference_plant_step(plant, command, dt).state)

    @pytest.mark.parametrize("slot", range(5))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_command_refused(self, slot, bad):
        command = np.zeros(5)
        command[slot] = bad
        with pytest.raises(ValueError, match="^displacement vector entries must be finite$"):
            plant_step(PT1Plant(tau=0.25, state=np.zeros(5)), command, 1e-3)

    @pytest.mark.parametrize("dt", [1e-6, 1e-3, 0.3, 1.0, 10.0])
    def test_state_at_the_float_edge_stays_finite(self, dt):
        # a*x + (1 - a)*u with a = exp(-dt/tau) is a convex combination: at
        # 1.7e308 and the largest float it stays finite, without a warning.
        top = np.finfo(float).max
        plant = PT1Plant(tau=0.25, state=np.array([1.7e308, -1.7e308, top, -top, top]))
        command = np.array([top, -top, 1.7e308, -top, top])
        stepped = plant_step(plant, command, dt)
        assert np.array_equal(stepped.state, reference_plant_step(plant, command, dt).state)

    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(st.tuples(edge_floats, edge_floats), min_size=1, max_size=8),
        ratio=st.one_of(
            st.floats(-17.0, 3.0).map(lambda e: 10.0**e),
            st.sampled_from([1e-300, 1e-17, math.log(2.0), 0.7, 745.0, 746.0, 1e300]),
        ),
        tau=st.floats(-3, 3).map(lambda e: 10.0**e),
    )
    def test_no_finite_state_and_command_overflow(self, pairs, ratio, tau):
        # plant_step does not check the state it builds. a = exp(-dt/tau)
        # runs from 1 (dt/tau below 1.1e-16) through 0.5 down to 0 (dt/tau
        # past 745), and a*x + (1 - a)*u of finite x and u stays finite up to
        # the largest float, without a warning.
        dt = ratio * tau
        assume(0.0 < dt < math.inf)
        x, u = (np.array(column) for column in zip(*pairs))
        plant = PT1Plant(tau=tau, state=x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stepped = plant_step(plant, u, dt)
        assert all_finite(stepped.state)
        assert np.array_equal(stepped.state, reference_plant_step(plant, u, dt).state)

    def test_built_state_is_read_only(self):
        stepped = plant_step(PT1Plant(tau=0.25, state=np.zeros(5)), np.ones(5), 1e-3)
        with pytest.raises(ValueError, match="read-only"):
            stepped.state[0] = 1.0

    def test_copy_of_a_built_plant_is_checked(self):
        stepped = plant_step(PT1Plant(tau=0.25, state=np.zeros(5)), np.ones(5), 1e-3)
        with pytest.raises(ValueError, match="time constant tau must be finite and positive, got 0.0"):
            dataclasses.replace(stepped, tau=0.0)
        with pytest.raises(ValueError, match="^plant state must be a finite vector$"):
            dataclasses.replace(stepped, state=np.full(5, np.inf))


class TestTrajectory:
    def test_identical_waypoints_constant(self, geom):
        traj = generate_trajectory(geom.layout, spec_between([0.01, 0.0], [0.01, 0.0]), 1e-3)
        assert traj.shape[1] == 2
        assert np.max(np.abs(traj[:, 0] - traj[:, 1])) == 0.0

    def test_duration_matches_analytic_trapezoid(self, geom):
        c = 0.02
        dt = 1e-3
        traj = generate_trajectory(geom.layout, spec_between([0.0, 0.0], [c, 0.0]), dt)
        analytic = V_MAX / A_MAX + c / V_MAX  # t_acc + t_dec + cruise for a = d
        ticks = traj.shape[1] - 1
        assert abs(ticks * dt - analytic) < dt

    def test_triangle_profile_duration(self, geom):
        c = 1e-4  # too short to reach cruise speed
        dt = 1e-3
        traj = generate_trajectory(geom.layout, spec_between([0.0, 0.0], [c, 0.0]), dt)
        peak = math.sqrt(2.0 * c * A_MAX * A_MAX / (2 * A_MAX))
        analytic = 2.0 * peak / A_MAX
        assert abs((traj.shape[1] - 1) * dt - analytic) < dt

    def test_velocity_and_acceleration_limits(self, geom):
        dt = 1e-3
        t = build_transform(5)
        traj = generate_trajectory(
            geom.layout, spec_between([0.0, 0.0], [0.02, -0.01], [-0.015, 0.02]), dt
        )
        xi = t.forward @ traj
        vel = np.diff(xi, axis=1) / dt
        assert np.max(np.abs(vel)) <= V_MAX + 1e-9
        acc = np.diff(xi, n=2, axis=1) / dt**2
        assert np.max(np.abs(acc)) <= A_MAX * (1.0 + 1e-9) + 1e-9

    def test_rests_at_waypoints(self, geom):
        dt = 1e-3
        waypoints = ([0.0, 0.0], [0.015, 0.01], [-0.01, 0.02])
        t = build_transform(5)
        traj = generate_trajectory(geom.layout, spec_between(*waypoints), dt)
        xi = t.forward @ traj
        for w in waypoints:
            dist = np.linalg.norm(xi - np.asarray(w)[:, None], axis=0)
            hit = int(np.argmin(dist))
            assert dist[hit] < 1e-12
            if 0 < hit < xi.shape[1] - 1:
                near_speed = np.linalg.norm(xi[:, hit + 1] - xi[:, hit]) / dt
                assert near_speed <= A_MAX * dt * 1.5

    def test_columns_on_manifold(self, geom):
        t = build_transform(5)
        traj = generate_trajectory(geom.layout, spec_between([0.0, 0.0], [0.01, 0.02]), 1e-3)
        for i in range(0, traj.shape[1], 17):
            assert manifold_residual(t, traj[:, i]) < 1e-12

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(3, 12),
        scale=st.floats(-6, 1).map(lambda e: 10.0**e),
        raw=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=2, max_size=5),
        repeat=st.integers(0, 5),
        limits=st.tuples(*[st.floats(-3, 1).map(lambda e: 10.0**e)] * 3),
        longest_ticks=st.integers(1, 1500),
    )
    # A leg of 5e-324 whose triangle square underflows: its profile still takes time.
    @example(n=3, scale=1.0, raw=[(0.0, 0.0), (0.0, 5e-324)], repeat=0, limits=(1.0, 1.0, 0.1), longest_ticks=1)
    def test_bitwise_equal_to_per_tick_oracle(self, n, scale, raw, repeat, limits, longest_ticks):
        # repeat < len(raw) doubles that waypoint, which gives a zero-length
        # leg; limits across decades give trapezoid and triangle legs, and dt
        # is chosen so the longest leg takes about longest_ticks ticks.
        points = [scale * np.array(p) for p in raw]
        if repeat < len(points):
            points.insert(repeat, points[repeat].copy())
        v, a, d = limits
        spec = TrajectorySpec(waypoints=tuple(points), v_max=v, a_max=a, d_max=d)
        lengths = [float(np.max(np.abs(q - p))) for p, q in zip(spec.waypoints[:-1], spec.waypoints[1:])]
        longest = max([sum(_profile_durations(x, v, a, d)[:3]) for x in lengths if x > 0.0], default=1.0)
        layout = JointLayout(n=n, d=0.01)
        dt = longest / longest_ticks
        expected = per_tick_trajectory_oracle(layout, spec, dt)
        assert np.array_equal(generate_trajectory(layout, spec, dt), expected)

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_every_column_has_the_bits_of_its_own_clarke_pair(self, n):
        # A batch column of the right-inverse product rounds as the product
        # of that column alone; one matrix-matrix product rounds unlike it.
        t = build_transform(n)
        spec = spec_between([0.0, 0.0], [0.02, -0.01], [-0.015, 0.02], [0.003, 0.0])
        pairs = per_tick_clarke_pairs(spec, 1e-3)
        joints = generate_trajectory(n, spec, 1e-3)
        assert joints.shape == (n, pairs.shape[1]) and joints.shape[1] > 1000
        assert joints.tobytes() == np.column_stack([_product(t.inverse, xi) for xi in pairs.T]).tobytes()
        assert joints.tobytes() == left_to_right(t.inverse, pairs).tobytes()

    def test_every_leg_ends_at_its_goal(self):
        # The leg takes 2e-150 s, one tick of 1e300 s: total/(ticks*dt)
        # underflows to 0, and the last tick still reads the goal.
        t = build_transform(3)
        goal = np.array([1e-300, 0.0])
        spec = TrajectorySpec(waypoints=(np.zeros(2), goal), v_max=1.0, a_max=1.0, d_max=1.0)
        joints = generate_trajectory(3, spec, 1e300)
        assert joints.shape == (3, 2)
        assert joints[:, -1].tobytes() == left_to_right(t.inverse, goal).tobytes()
        assert np.array_equal(joints, per_tick_trajectory_oracle(3, spec, 1e300))

    @pytest.mark.parametrize("dt", [-1e-3, 0.0, math.inf, math.nan])
    def test_dt_must_be_finite_and_positive(self, geom, dt):
        # Unchecked, -1e-3 and inf gave the whole 0.3 s leg in one tick, 0 a ZeroDivisionError.
        spec = TrajectorySpec(waypoints=(np.zeros(2), np.array([0.02, 0.0])), v_max=0.1, a_max=1.0, d_max=1.0)
        with pytest.raises(ValueError, match=f"^dt must be finite and positive, got {re.escape(str(dt))}$"):
            generate_trajectory(geom.layout, spec, dt)

    @pytest.mark.parametrize("dt", [1e-16, 1e-18, 1e-19])
    def test_enormous_leg_fails_fast(self, geom, dt):
        # A 2 s leg at these steps needs 2e16 (more than the address space
        # holds), 2e18 (more bytes than numpy can index) and 2e19 (more ticks
        # than an index can count) ticks; none of them is allocated.
        spec = TrajectorySpec(waypoints=(np.zeros(2), np.array([1.0, 0.0])), v_max=1.0, a_max=1.0, d_max=1.0)
        with pytest.raises(ValueError, match=r"leg 1 \(waypoint 1 to 2\) is too long to tick: 2e\+1\d ticks"):
            generate_trajectory(geom.layout, spec, dt)

    @pytest.mark.parametrize(
        "length, limits",
        [(5e-324, (1.0, 1.0, 0.1)), (5e-324, (1.0, 5e-324, 5e-324)), (1e-3, (1.0, 1e-170, 1e-170)), (1e-200, (1.0, 1e-200, 1e300))],
    )
    def test_underflowing_triangle_still_takes_time(self, length, limits):
        # 2*length*a*d/(a + d) underflows to 0 for each of these legs.
        v, a, d = limits
        assert 2.0 * length * a * d / (a + d) == 0.0
        t_acc, t_cruise, t_dec, peak = _profile_durations(length, v, a, d)
        assert peak > 0.0 and t_acc + t_cruise + t_dec > 0.0
        # The exact peak sqrt(2*length*a*d/(a + d)), from exact rationals.
        exact = Fraction(2) * Fraction(length) * Fraction(a) * Fraction(d) / (Fraction(a) + Fraction(d))
        assert abs(Fraction(peak) ** 2 / exact - 1) < Fraction(1, 10**14)

    def test_non_finite_leg_extent_rejected(self, geom):
        spec = spec_between([-1e308, 0.0], [-1e308, 0.0], [-1e308, 0.0], [1e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"leg 3 .* goal - start is not finite"):
                generate_trajectory(geom.layout, spec, 1e-3)

    def test_non_finite_joint_reference_rejected(self, geom):
        # Finite in Clarke space, but the right-inverse overflows some joints.
        spec = spec_between([1.7e308, 1.7e308], [1.7e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="joint-space reference is not finite"):
                generate_trajectory(geom.layout, spec, 1e-3)

    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError, match="2 waypoints"):
            TrajectorySpec(waypoints=(np.zeros(2),), v_max=1.0, a_max=1.0, d_max=1.0)

    def test_limits_positive(self):
        with pytest.raises(ValueError, match="positive"):
            TrajectorySpec(waypoints=(np.zeros(2), np.ones(2)), v_max=0.0, a_max=1.0, d_max=1.0)


# The settings the float-edge examples of the per-tick oracle test share.
EDGE = dict(n=5, ticks=40, feedforward=True, epsilon=2.5e-3, bias=2.0**-10, seed=3, dt=1e-3, tau=0.25, stability=0.5)


class TestSimulation:
    def test_deterministic(self, cfg, geom):
        traj = generate_trajectory(geom.layout, spec_between([0.0, 0.0], [0.02, 0.01]), cfg.dt)
        noise = NoiseModel(epsilon=2.5e-3, seed=7)
        plant = PT1Plant(tau=0.25, state=np.zeros(5))
        t1 = run_simulation(cfg, plant, noise, traj)
        t2 = run_simulation(cfg, plant, noise, traj)
        assert np.array_equal(t1.rho_command, t2.rho_command)
        assert np.array_equal(t1.rho_measured, t2.rho_measured)
        assert np.array_equal(t1.rho_plant, t2.rho_plant)

    def test_commands_on_manifold_under_noise(self, cfg, geom):
        t = build_transform(5)
        traj = generate_trajectory(geom.layout, spec_between([0.0, 0.0], [0.015, -0.01]), cfg.dt)
        trace = run_simulation(cfg, PT1Plant(tau=0.25, state=np.zeros(5)), NoiseModel(2.5e-3, seed=3), traj)
        for i in range(0, trace.rho_command.shape[1], 13):
            assert manifold_residual(t, trace.rho_command[:, i]) < 1e-12

    @pytest.mark.parametrize("shape", [(5,), (4, 3), (5, 3, 1)])
    def test_trajectory_of_another_shape_is_refused(self, cfg, shape):
        with pytest.raises(ValueError, match=rf"trajectory must be n x T with n=5, got \({shape[0]},"):
            run_simulation(cfg, PT1Plant(tau=0.25, state=np.zeros(5)), NoiseModel(0.0), np.zeros(shape))

    def test_trace_columns_must_match_its_ticks(self):
        with pytest.raises(ValueError, match="^rho_command has 2 columns for 3 ticks$"):
            SimTrace(np.zeros(3), np.zeros((5, 3)), np.zeros((5, 3)), np.zeros((5, 2)), np.zeros((5, 3)))

    @pytest.mark.parametrize("joints", [3, 5])
    @pytest.mark.parametrize("name", ["rho_measured", "rho_command", "rho_plant"])
    def test_trace_holds_one_joint_count(self, tmp_path, name, joints):
        # A trace of 4 joints with one array of 3 or 5 was accepted, and its CSV rows
        # then held 16 or 18 values under a header of 17 names.
        fields = ("rho_desired", "rho_measured", "rho_command", "rho_plant")
        arrays = {field: np.zeros((joints if field == name else 4, 2)) for field in fields}
        with pytest.raises(ValueError, match=f"^{name} has {joints} joints, rho_desired has 4$"):
            SimTrace(np.zeros(2), **arrays)
        trace = SimTrace(np.zeros(2), **dict(arrays, **{name: np.zeros((4, 2))}))
        save_trace_csv(trace, tmp_path / "trace.csv")
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert {len(row.split(",")) for row in rows} == {17}

    @pytest.mark.parametrize("given", [np.zeros(3), [0.0, 0.0, 0.0], np.zeros((5, 3, 1))])
    def test_trace_arrays_must_be_n_x_t(self, given):
        # A vector or a list was an IndexError or AttributeError; each array is now checked as a matrix.
        shape = np.shape(given)
        with pytest.raises(ValueError, match=rf"^rho_measured must be an n x T array, got shape {re.escape(str(shape))}$"):
            SimTrace(np.zeros(3), np.zeros((5, 3)), given, np.zeros((5, 3)), np.zeros((5, 3)))

    def test_trace_time_must_be_a_vector(self):
        with pytest.raises(ValueError, match=r"^time must be a vector, got shape \(1, 3\)$"):
            SimTrace(np.zeros((1, 3)), np.zeros((5, 3)), np.zeros((5, 3)), np.zeros((5, 3)), np.zeros((5, 3)))

    def test_zero_length_trajectory(self, cfg):
        state = np.array([0.01, 0.0, -0.01, 0.005, -0.005])
        trace = run_simulation(cfg, PT1Plant(tau=0.25, state=state), NoiseModel(0.0), np.empty((5, 0)))
        assert trace.rho_plant.shape == (5, 1)
        assert np.array_equal(trace.rho_plant[:, 0], state)
        assert trace.time[0] == 0.0

    def test_noise_free_step_converges_to_reference(self, cfg, geom):
        # With precompensation on a unity-gain plant the constant-reference
        # fixed point is the reference itself.
        t = build_transform(5)
        xi_ref = np.array([0.01, -0.005])
        traj = np.tile(inverse_transform(t, xi_ref)[:, None], (1, 3000))
        trace = run_simulation(cfg, PT1Plant(tau=0.25, state=np.zeros(5)), NoiseModel(0.0), traj)
        final_xi = t.forward @ trace.rho_plant[:, -1]
        assert np.linalg.norm(final_xi - xi_ref) < 0.01 * np.linalg.norm(xi_ref)

    def test_noise_free_loop_is_linear(self, cfg, geom):
        t = build_transform(5)
        traj = generate_trajectory(geom.layout, spec_between([0.0, 0.0], [0.012, 0.004]), cfg.dt)
        base = run_simulation(cfg, PT1Plant(tau=0.25, state=np.zeros(5)), NoiseModel(0.0), traj)
        scaled = run_simulation(cfg, PT1Plant(tau=0.25, state=np.zeros(5)), NoiseModel(0.0), 3.0 * traj)
        assert np.max(np.abs(scaled.rho_plant - 3.0 * base.rho_plant)) < 1e-9

    def test_closed_loop_beats_open_loop(self, cfg, geom):
        traj = generate_trajectory(geom.layout, spec_between([0.0, 0.0], [0.02, 0.01], [0.0, 0.025]), cfg.dt)
        plant = PT1Plant(tau=0.25, state=np.zeros(5))
        noise = NoiseModel(epsilon=2.5e-3, seed=21)
        closed = run_simulation(cfg, plant, noise, traj, closed_loop=True)
        opened = run_simulation(cfg, plant, noise, traj, closed_loop=False)
        assert clarke_tracking_rms(closed) < clarke_tracking_rms(opened)

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_rms_is_that_of_the_per_column_transform_pairs(self, n):
        # On traces of 1 to 4 ticks an error column that rounds unlike its
        # own transform call shows in the RMS (on about a fifth of them for
        # one matrix-matrix product).
        t, rng = build_transform(n), np.random.default_rng([32, n])
        for _ in range(200):
            ticks = int(rng.integers(1, 5))
            desired, plant = 0.01 * rng.standard_normal((2, n, ticks))
            trace = SimTrace(1e-3 * np.arange(ticks), desired, desired, desired, plant)
            err = np.column_stack([transform(t, rho) for rho in (desired - plant).T])
            assert clarke_tracking_rms(trace) == float(np.sqrt(np.mean(np.sum(err * err, axis=0))))

    @pytest.mark.parametrize("plant_sign", [0.0, -1.0])
    def test_rms_past_the_float_range_is_a_value_error(self, plant_sign):
        # At n = 4, joints of +-1.7e308 make an error of 1.7e308 in both
        # Clarke coordinates, an RMS of 2.4e308; against the opposite plant
        # the joint error overflows as well.
        desired = np.array([[1.7e308], [1.7e308], [-1.7e308], [-1.7e308]])
        trace = SimTrace(np.zeros(1), desired, desired, desired, plant_sign * desired)
        with pytest.raises(ValueError, match="^the Clarke tracking RMS passes the float range"):
            clarke_tracking_rms(trace)
        assert clarke_tracking_rms(SimTrace(np.zeros(1), desired, desired, desired, desired)) == 0.0

    def test_bias_leaves_commands_bitwise_unchanged(self, cfg, geom):
        # Quantized encoder readings plus a grid-aligned constant offset:
        # the offset cancels exactly in the controller, so the whole
        # command trace is unchanged bit for bit even with noise active.
        traj = generate_trajectory(geom.layout, spec_between([0.0, 0.0], [0.02, 0.01]), cfg.dt)
        plant = PT1Plant(tau=0.25, state=np.zeros(5))
        quantum = 2.0**-40
        clean = run_simulation(cfg, plant, NoiseModel(2.5e-3, seed=5, bias=0.0, quantum=quantum), traj)
        biased = run_simulation(cfg, plant, NoiseModel(2.5e-3, seed=5, bias=2.0**-10, quantum=quantum), traj)
        assert np.array_equal(clean.rho_command, biased.rho_command)
        assert np.array_equal(clean.rho_plant, biased.rho_plant)
        assert np.array_equal(clean.rho_measured + 2.0**-10, biased.rho_measured)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 64),
        ticks=st.integers(1, 400),
        closed_loop=st.booleans(),
        feedforward=st.booleans(),
        epsilon=st.sampled_from([0.0, 2.5e-3]) | st.floats(1e-6, 1e-2),
        bias=st.sampled_from([0.0, 2.0**-10]) | st.floats(-1e-2, 1e-2),
        quantum=st.sampled_from([0.0, 2.0**-40]) | st.floats(1e-6, 1e-3),
        seed=st.integers(0, 2**32 - 1),
        dt=st.floats(1e-4, 1e-2),
        tau=st.floats(0.05, 1.0),
        stability=st.floats(0.01, 0.95),
        state_fill=st.none(),
        traj_exp=st.just(0),
    )
    # The open loop at the float edge: a plant state near +-1.7e308, a
    # reference scaled by 2**1028 to joints near 1.2e308, and both at once.
    # Quantizing a reading near 1.7e308 overflows, in the loop and the
    # oracle alike.
    @example(**EDGE, closed_loop=False, quantum=0.0, state_fill=1.7e308, traj_exp=0)
    @example(**EDGE, closed_loop=False, quantum=0.0, state_fill=-1.7e308, traj_exp=1028)
    @example(**EDGE, closed_loop=False, quantum=0.0, state_fill=None, traj_exp=1028)
    @example(**EDGE, closed_loop=False, quantum=2.0**-40, state_fill=-1.7e308, traj_exp=0)
    def test_bitwise_equal_to_per_tick_oracle(
        self, n, ticks, closed_loop, feedforward, epsilon, bias, quantum, seed, dt, tau, stability, state_fill, traj_exp
    ):
        # kp stays below (1 + a) / (1 - a), a = exp(-dt/tau), so the loop's
        # pole a - (1 - a)*kp lies inside the unit circle.
        a = math.exp(-dt / tau)
        geom = SegmentGeometry(layout=JointLayout(n=n, d=0.01), l=0.1)
        cfg = ControllerConfig(kp=stability * (1.0 + a) / (1.0 - a), dt=dt, geometry=geom, feedforward=feedforward)
        rng = np.random.default_rng(seed)
        traj = np.ldexp(build_transform(n).inverse @ rng.uniform(-0.03, 0.03, (2, ticks)), traj_exp)
        state = rng.uniform(-1e-3, 1e-3, n) if state_fill is None else np.full(n, state_fill)
        plant = PT1Plant(tau=tau, state=state)
        noise = NoiseModel(epsilon=epsilon, seed=seed, bias=bias, quantum=quantum)
        try:
            trace = run_simulation(cfg, plant, noise, traj, closed_loop=closed_loop)
        except ValueError as exc:
            with pytest.raises(FloatingPointError) as oracle_exc, np.errstate(over="raise", invalid="raise"):
                per_tick_simulation_oracle(cfg, plant, noise, traj, closed_loop=closed_loop)
            assert str(exc) == f"simulation left the float range: {oracle_exc.value}"
            return
        expected = per_tick_simulation_oracle(cfg, plant, noise, traj, closed_loop=closed_loop)
        got = (trace.time, trace.rho_desired, trace.rho_measured, trace.rho_command, trace.rho_plant)
        for name, g, e in zip(("time", "desired", "measured", "command", "plant"), got, expected):
            assert np.array_equal(g, e), name

    def test_public_steps_run_every_tick(self, cfg, geom, monkeypatch):
        # The traced control-sim benchmark counts these calls; a loop that
        # bypasses them must fail here first.
        import clarkekin.control as control

        calls = {"controller_step": 0, "plant_step": 0}

        def counting(name):
            original = getattr(control, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(control, name, counting(name))
        traj = generate_trajectory(geom.layout, spec_between([0.0, 0.0], [0.01, 0.005]), cfg.dt)
        ticks = traj.shape[1]
        plant = PT1Plant(tau=0.25, state=np.zeros(5))
        run_simulation(cfg, plant, NoiseModel(1e-3, seed=1), traj, closed_loop=True)
        assert calls == {"controller_step": ticks, "plant_step": ticks}
        # The open loop is one recurrence; test_bitwise_equal_to_per_tick_oracle
        # pins its bits to a plant step per tick.
        calls.update(controller_step=0, plant_step=0)
        run_simulation(cfg, plant, NoiseModel(1e-3, seed=1), traj, closed_loop=False)
        assert calls == {"controller_step": 0, "plant_step": 0}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("tick", [0, 7, -1])
    def test_open_loop_refuses_a_non_finite_reference(self, cfg, bad, tick):
        traj = np.tile(inverse_transform(build_transform(5), [0.01, 0.0])[:, None], (1, 15))
        traj[2, tick] = bad
        with pytest.raises(ValueError, match="^displacement vector entries must be finite$"):
            run_simulation(cfg, PT1Plant(tau=0.25, state=np.zeros(5)), NoiseModel(1e-3), traj, closed_loop=False)

    @pytest.mark.parametrize("closed_loop", [True, False])
    def test_overflow_is_a_value_error(self, geom, closed_loop):
        # kp far above the stability bound is refused before the closed loop
        # runs; a reading past the float range breaks the open loop.
        cfg = ControllerConfig(kp=1e6, dt=1e-3, geometry=geom)
        state = np.full(5, 1.7e308) if not closed_loop else np.zeros(5)
        traj = np.tile(inverse_transform(build_transform(5), [0.01, 0.0])[:, None], (1, 200))
        match = r"stability bound is kp < \(1 \+ a\)/\(1 - a\) = 500\.001" if closed_loop else "float range"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                run_simulation(cfg, PT1Plant(tau=0.25, state=state), NoiseModel(1e307, bias=1e308), traj, closed_loop)

    def test_noise_wider_than_the_float_range_is_refused(self, cfg):
        # The draws span 2*epsilon, which overflows past half the largest float.
        half = sys.float_info.max / 2
        above = math.nextafter(half, math.inf)
        message = f"noise half-width epsilon must be at most {half!r}, got {above!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NoiseModel(above)
        # At the limit the draws stay finite: an open loop at rest reads them.
        plant = PT1Plant(tau=0.25, state=np.zeros(5))
        trace = run_simulation(cfg, plant, NoiseModel(half, seed=2), np.zeros((5, 4)), closed_loop=False)
        assert all_finite(trace.rho_measured) and np.max(np.abs(trace.rho_measured)) > 1e306

    def test_closed_loop_overflow_is_a_value_error(self, cfg):
        # A stable gain, but a reading past the float range.
        traj = np.tile(inverse_transform(build_transform(5), [0.01, 0.0])[:, None], (1, 200))
        plant = PT1Plant(tau=0.25, state=np.full(5, 1.7e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float range"):
                run_simulation(cfg, plant, NoiseModel(1e307, bias=1e308), traj, closed_loop=True)

    def test_overflowing_command_is_a_value_error(self, cfg):
        # A stable gain and finite readings, but a reference so large that
        # the controller's command passes the float range.
        traj = np.tile(inverse_transform(build_transform(5), [1e307, 0.0])[:, None], (1, 3))
        plant = PT1Plant(tau=0.25, state=np.zeros(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^simulation left the float range: the Clarke command .* overflows$"):
                run_simulation(cfg, plant, NoiseModel(0.0), traj, closed_loop=True)

    @settings(max_examples=100, deadline=None)
    @given(
        dt=st.floats(1e-6, 1.0),
        tau=st.floats(1e-3, 1e3),
        feedforward=st.booleans(),
        margin=st.sampled_from([1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]),
    )
    def test_stability_bound(self, dt, tau, feedforward, margin):
        # The closed-loop pole a - (1 - a)*kp leaves the unit circle at
        # kp = (1 + a)/(1 - a): just under it the loop runs, from it on the
        # closed loop is refused and the open loop still runs.
        a = math.exp(-dt / tau)
        bound = (1.0 + a) / -math.expm1(-dt / tau)
        geom = SegmentGeometry(layout=JointLayout(n=5, d=0.01), l=0.1)
        cfg = ControllerConfig(kp=margin * bound, dt=dt, geometry=geom, feedforward=feedforward)
        plant = PT1Plant(tau=tau, state=np.zeros(5))
        traj = np.tile(inverse_transform(build_transform(5), [0.01, 0.0])[:, None], (1, 3))
        run_simulation(cfg, plant, NoiseModel(0.0), traj, closed_loop=False)
        if cfg.kp < bound:
            run_simulation(cfg, plant, NoiseModel(0.0), traj)
        else:
            with pytest.raises(ValueError, match="stability bound"):
                run_simulation(cfg, plant, NoiseModel(0.0), traj)

    def test_trace_csv_round_trip(self, cfg, geom, tmp_path):
        traj = generate_trajectory(geom.layout, spec_between([0.0, 0.0], [0.01, 0.0]), cfg.dt)
        trace = run_simulation(cfg, PT1Plant(tau=0.25, state=np.zeros(5)), NoiseModel(1e-3, seed=2), traj)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        back = read_csv(path, [_trace_header(5)])[1].T
        assert np.array_equal(back[0], trace.time)
        assert np.array_equal(back[1:6], trace.rho_desired)
        assert np.array_equal(back[6:11], trace.rho_measured)
        assert np.array_equal(back[11:16], trace.rho_command)
        assert np.array_equal(back[16:], trace.rho_plant)

    def test_trace_csv_streams_without_a_copy_of_the_trace(self, tmp_path):
        # Four times the ticks, and the peak past the trace's own arrays stays
        # put: a (1 + 4n, T) copy of the trace took 1.68 MB more per 10,000
        # ticks at n = 5.
        beyond = []
        for ticks in (2_000, 8_000):
            rows = np.random.default_rng(ticks).random((1 + 4 * 5, ticks))
            trace = SimTrace(rows[0], rows[1:6], rows[6:11], rows[11:16], rows[16:])
            tracemalloc.start()
            try:
                save_trace_csv(trace, tmp_path / f"trace{ticks}.csv")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            beyond.append(peak)
            back = read_csv(tmp_path / f"trace{ticks}.csv", [_trace_header(5)])[1].T
            assert np.array_equal(back[0], trace.time) and np.array_equal(back[16:], trace.rho_plant)
        assert beyond[1] <= beyond[0] + 2**18 and max(beyond) <= 2**20


class TestNoisePropagation:
    def test_n4_single_joint(self):
        report = noise_propagation(JointLayout(n=4, d=0.01), sigma=1.0, joint_index=0)
        assert np.max(np.abs(report.spread - [0.5, 0.0, -0.5, 0.0])) < 1e-12
        assert report.peak == pytest.approx(0.5, abs=1e-12)

    def test_cosine_pattern(self):
        layout = JointLayout(n=7, d=0.01)
        sigma = 0.3
        for k in (0, 3, 6):
            report = noise_propagation(layout, sigma=sigma, joint_index=k)
            expected = (2.0 * sigma / 7) * np.cos(layout.psi - layout.psi[k])
            assert np.max(np.abs(report.spread - expected)) < 1e-12

    def test_norm_ratio_and_alternative(self):
        for n in (3, 5, 12):
            report = noise_propagation(JointLayout(n=n, d=0.01), sigma=2.0, joint_index=1)
            assert report.norm_ratio == pytest.approx(2.0 / n, abs=1e-12)
            assert report.norm_ratio_closed_form == 2.0 / n
            assert report.norm_ratio_unscaled == n / 2.0

    def test_projection_idempotent_on_spread(self):
        from clarkekin import projector

        t = build_transform(6)
        report = noise_propagation(JointLayout(n=6, d=0.01), sigma=1.0, joint_index=2)
        again = projector(t) @ report.spread
        assert np.max(np.abs(again - report.spread)) < 1e-14

    def test_bias_annihilated(self):
        t = build_transform(5)
        from clarkekin import projector

        assert np.max(np.abs(projector(t) @ np.ones(5))) < 1e-14

    def test_bad_joint_index(self):
        with pytest.raises(ValueError, match="joint index"):
            noise_propagation(JointLayout(n=4, d=0.01), sigma=1.0, joint_index=4)

    @pytest.mark.parametrize("n", range(3, 65))
    def test_ratio_and_spread_every_joint(self, n):
        # The closed form 2/n and the n x n projector product are the oracles;
        # the O(n) projection agrees with the product up to rounding order.
        t = build_transform(n)
        for sigma in (1.0, 0.7, -1.3):
            for k in range(n):
                report = noise_propagation(n, sigma, k)
                fault = np.zeros(n)
                fault[k] = sigma
                assert abs(report.norm_ratio - 2.0 / n) <= 1e-12
                assert np.max(np.abs(report.spread - projector(t) @ fault)) <= 1e-16 * abs(sigma)

    def test_builds_no_n_by_n_matrix(self):
        # The 4096 x 4096 projector alone would take 128 MiB.
        tracemalloc.start()
        try:
            noise_propagation(4096, 0.7, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_report_serializable(self):
        import json

        report = noise_propagation(JointLayout(n=5, d=0.01), sigma=1.0, joint_index=0)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n"] == 5
        assert len(payload["spread"]) == 5
