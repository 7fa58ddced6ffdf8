"""Controller law, PT1 plant, trajectory profile, closed-loop simulation."""

import math

import numpy as np
import pytest

from clarkekin import (
    ControllerConfig,
    JointLayout,
    NoiseModel,
    PT1Plant,
    SegmentGeometry,
    TrajectorySpec,
    build_transform,
    clarke_tracking_rms,
    controller_step,
    generate_trajectory,
    inverse_transform,
    manifold_residual,
    noise_propagation,
    plant_step,
    run_simulation,
)
from clarkekin.control import load_trace_csv, save_trace_csv

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

    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError, match="2 waypoints"):
            TrajectorySpec(waypoints=(np.zeros(2),), v_max=1.0, a_max=1.0, d_max=1.0)

    def test_limits_positive(self):
        with pytest.raises(ValueError, match="positive"):
            TrajectorySpec(waypoints=(np.zeros(2), np.ones(2)), v_max=0.0, a_max=1.0, d_max=1.0)


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
        t = build_transform(5)
        traj = generate_trajectory(geom.layout, spec_between([0.0, 0.0], [0.02, 0.01], [0.0, 0.025]), cfg.dt)
        plant = PT1Plant(tau=0.25, state=np.zeros(5))
        noise = NoiseModel(epsilon=2.5e-3, seed=21)
        closed = run_simulation(cfg, plant, noise, traj, closed_loop=True)
        opened = run_simulation(cfg, plant, noise, traj, closed_loop=False)
        assert clarke_tracking_rms(closed, t) < clarke_tracking_rms(opened, t)

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

    def test_trace_csv_round_trip(self, cfg, geom, tmp_path):
        traj = generate_trajectory(geom.layout, spec_between([0.0, 0.0], [0.01, 0.0]), cfg.dt)
        trace = run_simulation(cfg, PT1Plant(tau=0.25, state=np.zeros(5)), NoiseModel(1e-3, seed=2), traj)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        back = load_trace_csv(path)
        assert np.array_equal(back.time, trace.time)
        assert np.array_equal(back.rho_desired, trace.rho_desired)
        assert np.array_equal(back.rho_measured, trace.rho_measured)
        assert np.array_equal(back.rho_command, trace.rho_command)
        assert np.array_equal(back.rho_plant, trace.rho_plant)

    @pytest.mark.parametrize(
        "header", ["a,b,c", "t", "t,rho_d_1,rho_m_1,rho_cmd_1,rho_plant_2", "t,rho_m_1,rho_d_1,rho_cmd_1,rho_plant_1"]
    )
    def test_load_trace_rejects_foreign_header(self, tmp_path, header):
        path = tmp_path / "trace.csv"
        width = len(header.split(","))
        path.write_text(header + "\n" + (",".join(["0"] * width) + "\n") * 2)
        with pytest.raises(ValueError, match="trace header"):
            load_trace_csv(path)


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

    def test_report_serializable(self):
        import json

        report = noise_propagation(JointLayout(n=5, d=0.01), sigma=1.0, joint_index=0)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n"] == 5
        assert len(payload["spread"]) == 5
