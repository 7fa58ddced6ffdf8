"""Command-line interface: outputs, exit codes, batch round trips."""

import json
import math
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import clarkekin
from clarkekin import (
    ControllerConfig,
    JointLayout,
    NoiseModel,
    PT1Plant,
    SegmentGeometry,
    build_transform,
    fk_direct,
    run_simulation,
)
from clarkekin import cli
from clarkekin.cli import build_parser, main
from clarkekin.control import _trace_header
from clarkekin.csvio import csv_chunks, displacement_header, read_csv, write_text
from test_products import left_to_right


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrix:
    def test_n3_values(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--n", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("forward")
        row1 = [float(v) for v in lines[1].split()]
        assert row1 == pytest.approx([2 / 3, -1 / 3, -1 / 3], abs=1e-14)
        row2 = [float(v) for v in lines[2].split()]
        assert row2 == pytest.approx([0.0, math.sqrt(3) / 3, -math.sqrt(3) / 3], abs=1e-14)

    def test_n4_values(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--n", "4")
        assert code == 0
        row1 = [float(v) for v in out.strip().split("\n")[1].split()]
        assert row1 == pytest.approx([0.5, 0.0, -0.5, 0.0], abs=1e-15)

    def test_n2_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "matrix", "--n", "2")
        assert code == 3
        assert "at least 3" in err


class TestTransform:
    def test_forward(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--n", "3", "--rho", "1,-0.5,-0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["rho_re"] == pytest.approx(1.0, abs=1e-14)
        assert payload["rho_im"] == pytest.approx(0.0, abs=1e-14)

    def test_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--n", "4", "--xi", "0,1")
        payload = json.loads(out)
        assert payload["rho"] == pytest.approx([0.0, 1.0, 0.0, -1.0], abs=1e-14)

    def test_requires_exactly_one_direction(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--n", "3")
        assert code == 2
        assert "exactly one" in err

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--method", "z"])
        assert exc.value.code == 2


IK_SOURCES = "give exactly one of --position, --rotation, --pose or --in FILE"


class TestKinematics:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fk"], "give exactly one of --rho or --in FILE"),
            (["fk", "--rho", "0,0,0", "--in", "rows.csv"], "give exactly one of --rho or --in FILE"),
            (["ik"], IK_SOURCES),
            (["ik", "--position", "0,0,0.1", "--rotation", "1,0,0,0,1,0,0,0,1"], IK_SOURCES),
        ],
    )
    def test_exactly_one_target_or_source(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "key, value", [("position", "0.5,0.5,0.5"), ("rotation", "1,0,0,0,1,0,0,0,1"), ("pose", "1,0,0,0,1,0,0,0,1,0,0,0.1")]
    )
    def test_ik_in_refuses_a_target_beside_it(self, capsys, tmp_path, key, value):
        # The file's answer would be printed and the target ignored.
        rows, cfg = tmp_path / "positions.csv", tmp_path / "run.cfg"
        rows.write_text("px,py,pz\n0,0,0.1\n")
        cfg.write_text(f"{key} = {value}\n")
        for given in ([f"--{key}={value}"], ["--config", str(cfg)]):
            assert run_cli(capsys, "ik", "--in", str(rows), *given) == (2, "", f"error: {IK_SOURCES}\n")

    def test_fk_zero(self, capsys):
        code, out, _ = run_cli(capsys, "fk", "--n", "5", "--l", "0.1", "--rho", "0,0,0,0,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["position"] == pytest.approx([0.0, 0.0, 0.1], abs=1e-9)
        r = np.array(payload["rotation"])
        assert np.max(np.abs(r - np.eye(3))) < 1e-9

    def test_ik_of_straight_position(self, capsys):
        code, out, _ = run_cli(capsys, "ik", "--n", "5", "--l", "0.1", "--position", "0,0,0.1")
        payload = json.loads(out)
        assert np.max(np.abs(payload["rho"])) < 1e-12

    @pytest.mark.parametrize("position", ["0.5,0,0.5", "1e200,0,1e200", "1.5e308,0,1.5e308"])
    def test_ik_off_the_reachable_surface(self, capsys, position):
        code, out, err = run_cli_strict(capsys, ["ik", "--position", position])
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: target position is off the reachable surface")

    def test_ik_pose_off_the_arc_of_its_rotation(self, capsys):
        # The identity's arc ends at (0, 0, l), not at (0, 0, l/2).
        code, out, err = run_cli_strict(capsys, ["ik", "--l", "0.1", "--pose", "1,0,0,0,1,0,0,0,1,0,0,0.05"])
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "not the tip of the arc its rotation describes" in err

    @pytest.mark.parametrize(
        "flag, values",
        [
            # Ry(-0.5): bent backward.
            ("--rotation", "0.8775825618903728,0,-0.479425538604203,0,1,0,0.479425538604203,0,0.8775825618903728"),
            # Rz(0.5) at (0, 0, l): turned about the tangent of a straight segment.
            ("--pose", "0.8775825618903728,-0.479425538604203,0,0.479425538604203,0.8775825618903728,0,0,0,1,0,0,0.1"),
        ],
    )
    def test_ik_rotation_no_arc_reaches(self, capsys, flag, values):
        code, out, err = run_cli_strict(capsys, ["ik", "--l", "0.1", flag, values])
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: target rotation is the tip frame of no arc")

    @pytest.mark.parametrize(
        "rho, reason",
        [("1e308,1e308,1e308", "rounding moves the bend"), ("0.1,-0.05,-0.05", "FK's domain")],
    )
    def test_fk_in_refuses_a_file_with_one_row_outside_the_domain(self, capsys, tmp_path, rho, reason):
        src = tmp_path / "rho.csv"
        src.write_text(f"rho_1,rho_2,rho_3\n0,0,0\n{rho}\n")
        code, out, err = run_cli_strict(capsys, ["fk", "--n", "3", "--d", "0.01", "--in", str(src)])
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and reason in err

    def test_ik_in_refuses_a_stack_with_one_unreachable_row(self, capsys, tmp_path):
        # The first row is the straight tip, the second lies past it.
        src = tmp_path / "pos.csv"
        src.write_text("px,py,pz\n0,0,0.1\n0,0,0.2\n")
        code, out, err = run_cli_strict(capsys, ["ik", "--in", str(src)])
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "off the reachable surface" in err

    def test_ik_prohibited_region(self, capsys):
        code, _, err = run_cli(capsys, "ik", "--n", "5", "--position", "0.01,0,-0.02")
        assert code == 3
        assert "p_z" in err

    def test_fk_ik_fk_batch_round_trip(self, capsys, tmp_path):
        rho_file = tmp_path / "rho.csv"
        from clarkekin import JointLayout, SamplerConfig, sample_direct_batched

        layout = JointLayout(n=4, d=0.01)
        cfg = SamplerConfig(layout=layout, rho_min=0.1 * 0.01 * np.pi, rho_max=0.9 * 0.01 * np.pi, seed=9)
        write_text(rho_file, csv_chunks(displacement_header(4), sample_direct_batched(cfg, 25, "annulus").columns.T))

        pose_file = tmp_path / "poses.csv"
        code, _, _ = run_cli(capsys, "fk", "--n", "4", "--in", str(rho_file), "--out", str(pose_file))
        assert code == 0
        rho_back_file = tmp_path / "rho_back.csv"
        code, _, _ = run_cli(capsys, "ik", "--n", "4", "--in", str(pose_file), "--out", str(rho_back_file))
        assert code == 0
        pose_again_file = tmp_path / "poses_again.csv"
        code, _, _ = run_cli(capsys, "fk", "--n", "4", "--in", str(rho_back_file), "--out", str(pose_again_file))
        assert code == 0

        def read(path):
            with open(path) as fh:
                fh.readline()
                return np.array([[float(v) for v in line.split(",")] for line in fh if line.strip()])

        first = read(pose_file)
        again = read(pose_again_file)
        assert np.max(np.abs(first - again)) < 1e-9


POSE_HEADER = "r11,r12,r13,r21,r22,r23,r31,r32,r33,px,py,pz"


class TestBatchCsv:
    """fk/ik --in: header rule, shape checks, one kernel call per file."""

    def write(self, tmp_path, text, name="in.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def poses_file(self, capsys, tmp_path, rows):
        from clarkekin import JointLayout, SamplerConfig, sample_direct_batched

        cfg = SamplerConfig(layout=JointLayout(n=4, d=0.01), rho_min=0.001, rho_max=0.028, seed=5)
        rho_file = tmp_path / "rho.csv"
        write_text(rho_file, csv_chunks(displacement_header(4), sample_direct_batched(cfg, rows, "annulus").columns.T))
        pose_file = tmp_path / "poses.csv"
        code, _, _ = run_cli(capsys, "fk", "--n", "4", "--in", str(rho_file), "--out", str(pose_file))
        assert code == 0
        return rho_file, pose_file

    def assert_domain_error(self, capsys, *argv, match):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert match in err
        return err

    def test_headerless_file_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "0.01,-0.005,-0.005\n0.02,-0.01,-0.01\n")
        self.assert_domain_error(capsys, "fk", "--n", "3", "--in", path, match="header")

    def test_wrong_header_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "rho_1,rho_2,rho_3,rho_4\n0.01,0,-0.01,0\n")
        self.assert_domain_error(capsys, "fk", "--n", "3", "--in", path, match="rho_1,rho_2,rho_3")
        path = self.write(tmp_path, "rho_1,rho_2,rho_3\n0.01,0,-0.01\n")
        self.assert_domain_error(capsys, "ik", "--n", "3", "--in", path, match="px,py,pz")

    def test_wrong_column_count_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "px,py,pz\n0.01,0,0.09,1\n")
        self.assert_domain_error(capsys, "ik", "--n", "3", "--in", path, match="values")

    def test_ragged_and_non_numeric_rows_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "rho_1,rho_2,rho_3\n0.01,-0.005,-0.005\n0.01,-0.01\n")
        self.assert_domain_error(capsys, "fk", "--n", "3", "--in", path, match="in.csv")
        path = self.write(tmp_path, "px,py,pz\n0.01,zero,0.09\n")
        self.assert_domain_error(capsys, "ik", "--n", "3", "--in", path, match="zero")

    def test_nan_rows_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "px,py,pz\n0.01,0,0.09\nnan,0,nan\n")
        self.assert_domain_error(capsys, "ik", "--n", "3", "--in", path, match="finite")
        path = self.write(tmp_path, "rho_1,rho_2,rho_3\n0.01,nan,-0.005\n")
        self.assert_domain_error(capsys, "fk", "--n", "3", "--in", path, match="finite")

    def test_invalid_pose_row_rejected(self, capsys, tmp_path):
        _, pose_file = self.poses_file(capsys, tmp_path, 4)
        lines = pose_file.read_text().split("\n")
        lines[2] = ",".join(["2"] + lines[2].split(",")[1:])
        path = self.write(tmp_path, "\n".join(lines), "bad_poses.csv")
        self.assert_domain_error(capsys, "ik", "--n", "4", "--in", path, match="orthonormal")

    @pytest.mark.parametrize(
        "command, header, out_header",
        [
            ("fk", "rho_1,rho_2,rho_3", POSE_HEADER),
            ("ik", POSE_HEADER, "rho_1,rho_2,rho_3"),
            ("ik", "px,py,pz", "rho_1,rho_2,rho_3"),
        ],
    )
    def test_header_only_gives_header_only(self, capsys, tmp_path, command, header, out_header):
        path = self.write(tmp_path, header + "\n")
        code, out, _ = run_cli(capsys, command, "--n", "3", "--in", path)
        assert code == 0
        assert out == out_header + "\n"

    def test_three_position_rows_give_three_solutions(self, capsys, tmp_path):
        rho_file, pose_file = self.poses_file(capsys, tmp_path, 3)
        rows = [line.split(",")[9:] for line in pose_file.read_text().strip().split("\n")[1:]]
        path = self.write(tmp_path, "px,py,pz\n" + "\n".join(",".join(r) for r in rows) + "\n", "pos.csv")
        code, out, _ = run_cli(capsys, "ik", "--n", "4", "--in", path)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rho_1,rho_2,rho_3,rho_4"
        back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        expected = np.loadtxt(rho_file, delimiter=",", skiprows=1)
        assert back.shape == (3, 4)
        assert np.max(np.abs(back - expected)) < 1e-9


class TestSample:
    def test_seeded_csv_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code, _, err = run_cli(
                capsys, "sample", "--method", "d", "--k", "50", "--seed", "7", "--out", str(f)
            )
            assert code == 0
            assert "success_rate=1" in err
        assert f1.read_bytes() == f2.read_bytes()

    def test_stdout_goes_through_sys_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--method", "d", "--k", "4", "--seed", "7")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rho_1,rho_2,rho_3"
        assert len(lines) == 5

    def test_annulus_bad_bounds(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sample",
            "--method",
            "e",
            "--k",
            "5",
            "--rho-min",
            "-0.01",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "rho_min > 0" in err

    @pytest.mark.parametrize("method", ["c", "d", "e"])
    def test_direct_methods_take_the_batched_kernel(self, capsys, monkeypatch, method):
        def refuse(*args):
            raise AssertionError("sample_direct was called")

        monkeypatch.setattr("clarkekin.sampling.sample_direct", refuse)
        code, out, err = run_cli(capsys, "sample", "--method", method, "--k", "4")
        assert code == 0 and out.count("\n") == 5
        assert err.count("\n") == 1 and err.startswith(f"method {method}: k=4 iterations=4 ")

    def test_annulus_default_inner_radius(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sample", "--method", "e", "--k", "5", "--out", str(tmp_path / "e.csv"))
        assert code == 0


class TestBench:
    def test_csv_and_histograms(self, capsys, tmp_path):
        hist_dir = tmp_path / "hists"
        out = tmp_path / "stats.csv"
        code, _, _ = run_cli(
            capsys,
            "bench",
            "--methods",
            "b,c,d,e",
            "--k",
            "100",
            "--runs",
            "2",
            "--format",
            "csv",
            "--out",
            str(out),
            "--hist-dir",
            str(hist_dir),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "method,time_s,factor,iterations,resamples,success_rate"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        for m in ("c", "d", "e"):
            assert float(rows[m][5]) == 1.0
            assert float(rows[m][4]) == 0.0
        assert (hist_dir / "hist_c_joint1.csv").exists()
        assert (hist_dir / "hist_e_joint3.csv").exists()

    def test_unknown_method(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--methods", "a,q")
        assert code == 3
        assert "unknown method" in err


class TestSimulate:
    def test_summary_and_determinism(self, capsys, tmp_path):
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        outs = []
        for f in (t1, t2):
            code, out, _ = run_cli(
                capsys,
                "simulate",
                "--waypoints",
                "0,0,0.02,0.01",
                "--seed",
                "7",
                "--trace-out",
                str(f),
            )
            assert code == 0
            outs.append(json.loads(out))
        assert t1.read_bytes() == t2.read_bytes()
        summary = outs[0]
        assert summary["rms_closed_loop"] < summary["rms_open_loop"]
        assert summary == outs[1]
        assert summary["config"]["n"] == 5
        assert summary["config"]["kp"] == 125.0

    @pytest.mark.parametrize("law", [[], ["--pure-p"]])
    def test_unstable_gain_is_one_line(self, capsys, law):
        # At dt = 1 ms and tau = 0.25 s the closed-loop pole leaves the unit
        # circle at kp = 500.001, for either law.
        code, out, err = run_cli_strict(capsys, ["simulate", "--kp", "510", "--noise", "0"] + law)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "stability bound" in err and "500.001" in err

    def test_gain_under_the_bound_runs(self, capsys):
        code, out, err = run_cli_strict(capsys, ["simulate", "--kp", "499", "--noise", "0"])
        assert code == 0 and err == ""
        assert math.isfinite(json.loads(out)["rms_closed_loop"])

    def test_default_waypoints_run(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--noise", "0", "--seed", "3")
        assert code == 0
        summary = json.loads(out)
        assert summary["ticks"] > 100
        assert summary["rms_closed_loop"] < summary["rms_open_loop"]

    def test_leg_too_long_to_tick(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--waypoints", "0,0,1e308,1e308", "--noise", "0")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "leg 1" in err and "too long" in err

    def test_leg_whose_triangle_underflows_is_too_long(self, capsys):
        # 2*length*a*d/(a + d) underflows to 0 for this leg; a profile of zero
        # time would give a reference that never leaves its start.
        argv = ["simulate", "--waypoints", "0,0,0.001,0", "--a-max", "1e-170", "--d-max", "1e-170", "--noise", "0"]
        code, out, err = run_cli_strict(capsys, argv)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "leg 1 (waypoint 1 to 2) is too long to tick: 6.32456e+86 ticks" in err

    def test_enormous_leg_fails_fast(self, capsys):
        # About 3e304 ticks: refused before any tick array is built.
        code, out, err = run_cli_strict(capsys, ["simulate", "--waypoints", "0,0,1e300,0", "--noise", "0"])
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "leg 1" in err and "e+304 ticks" in err

    def test_noise_past_half_the_float_range_is_refused(self, capsys):
        code, out, err = run_cli_strict(capsys, ["simulate", "--noise", "1e308"])
        assert (code, out) == (3, "")
        assert err == "error: noise half-width epsilon must be at most 8.988465674311579e+307, got 1e+308\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--waypoints=-1e308,0,1e308,0", "--noise", "0"],
            ["--waypoints", "1e308,1e308,1e308,1e308"],
            ["--noise", "1e308"],
        ],
    )
    def test_float_range_errors_are_one_line(self, capsys, argv):
        code, out, err = run_cli_strict(capsys, ["simulate"] + argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")


def strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN."""

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def summary_and_errors(capsys, tmp_path, argv):
    """A default-geometry simulate summary, and the Clarke tracking error of each loop by summary key."""
    path = tmp_path / "trace.csv"
    code, out, err = run_cli_strict(capsys, ["simulate", "--format", "csv", "--trace-out", str(path)] + argv)
    assert code == 0 and err == ""
    columns = read_csv(path, [_trace_header(5)])[1].T
    desired, closed = columns[1:6], columns[16:]
    cfg = ControllerConfig(kp=125.0, dt=1e-3, geometry=SegmentGeometry(layout=JointLayout(n=5, d=0.01), l=0.1))
    plant = PT1Plant(tau=0.25, state=np.zeros(5))
    opened = run_simulation(cfg, plant, NoiseModel(0.0), desired, closed_loop=False).rho_plant
    forward = build_transform(5).forward
    plants = {"rms_closed_loop": closed, "rms_open_loop": opened}
    return strict_json(out), {key: left_to_right(forward, desired - states) for key, states in plants.items()}


class TestSimulateRms:
    @pytest.mark.parametrize(
        "argv", [["--noise", "1e160"], ["--noise", "1e300"], ["--noise", "0", "--waypoints", "0,0,1e-200,0"]]
    )
    def test_rms_outside_the_square_range(self, capsys, tmp_path, argv):
        # The squared error overflows under 1e160 noise and underflows on a
        # 1e-200 reference. Each RMS is still that of the error within a few
        # ulps of math.hypot, which scales its arguments itself.
        summary, errors = summary_and_errors(capsys, tmp_path, argv)
        for key, err in errors.items():
            want = math.hypot(*err.ravel().tolist()) / math.sqrt(err.shape[1])
            assert 0.0 < summary[key] < math.inf
            assert abs(summary[key] - want) <= 4 * math.ulp(want), key

    def test_default_summary_keeps_the_plain_rms(self, capsys, tmp_path):
        # Where the mean square is finite and normal, the RMS keeps the bits
        # of the plain formula, and so the summary keeps its bytes.
        summary, errors = summary_and_errors(capsys, tmp_path, [])
        for key, err in errors.items():
            assert summary[key] == float(np.sqrt(np.mean(np.sum(err * err, axis=0)))), key


class TestNoiseReport:
    def test_fields(self, capsys):
        code, out, _ = run_cli(capsys, "noise-report", "--n", "4", "--sigma", "1", "--joint", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["spread"] == pytest.approx([0.5, 0.0, -0.5, 0.0], abs=1e-12)
        assert payload["norm_ratio"] == pytest.approx(0.5, abs=1e-12)
        assert payload["norm_ratio_unscaled"] == 2.0

    def test_bad_joint(self, capsys):
        code, _, err = run_cli(capsys, "noise-report", "--n", "4", "--joint", "9")
        assert code == 3
        assert "joint index" in err

    @pytest.mark.parametrize(
        "sigma, reason", [("inf", "must be finite"), ("nan", "must be finite"), ("1e308", "square"), ("1e-200", "square")]
    )
    def test_out_of_range_sigma(self, capsys, sigma, reason):
        # 1e308 squared overflows and 1e-200 squared underflows to zero.
        code, out, err = run_cli(capsys, "noise-report", "--sigma", sigma)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and reason in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "12566", "--method", "c", "--k", "2"],
        ["noise-report", "--n", "12566"],
    ],
)
def test_large_joint_counts_run(capsys, argv):
    # On 12566 joints the trigonometric sums exceed 1e-12 in floating point.
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["ik", "--position", "1,2"], "--position needs 3 values"),
        (["ik", "--position", "0,0,0.1,0"], "--position needs 3 values"),
        (["ik", "--rotation", "1,0,0,0,1,0,0,0"], "--rotation needs 9 row-major values, got 8"),
        (["ik", "--pose", "1,0,0,0,1,0,0,0,1,0,0"], "--pose needs 9 rotation + 3 position values, got 11"),
        (["simulate", "--waypoints", "0,0,0.001"], "--waypoints needs an even number (>= 4) of values"),
        (["simulate", "--waypoints", "0,0"], "--waypoints needs an even number (>= 4) of values"),
        (["transform", "--rho", "1,x,-1"], "could not parse float list '1,x,-1'"),
        (["transform", "--n", "3", "--rho", "0.01,,-0.01,0"], "could not parse float list '0.01,,-0.01,0'"),
        (["transform", "--n", "3", "--rho", "0.01,-0.01,0,"], "could not parse float list '0.01,-0.01,0,'"),
        (["transform", "--n", "3", "--rho", "0.01;-0.01;0"], "could not parse float list '0.01;-0.01;0'"),
        (["ik", "--position", "0,,0.1"], "could not parse float list '0,,0.1'"),
        (["simulate", "--waypoints", "0,0,,0.01,0"], "could not parse float list '0,0,,0.01,0'"),
        (["simulate", "--waypoints", ""], "could not parse float list ''"),
        (["sample", "--method", "a", "--k", "-3"], "k must be >= 0"),
        (["sample", "--method", "b", "--k", "-3"], "k must be >= 0"),
        (["sample", "--method", "c", "--k", "-3"], "k must be >= 0"),
        (["sample", "--method", "d", "--k", "-3"], "k must be >= 0"),
        (["sample", "--method", "e", "--k", "-3"], "k must be >= 0"),
        (["bench", "--runs", "0"], "runs >= 1"),
        (["sample", "--method", "a", "--rho-min", "0.0001", "--k", "1"], "method (a) can never accept"),
        (["sample", "--method", "b", "--rho-min", "0.0001", "--k", "1"], "method (b) can never accept"),
        (["bench", "--methods", "b", "--rho-min", "0.0001"], "method (b) can never accept"),
        (["bench", "--methods", ""], "unknown method ''; choose from a,b,c,d,e"),
        (["bench", "--methods", ","], "unknown method ''; choose from a,b,c,d,e"),
        (["bench", "--methods", "c,,d"], "unknown method ''; choose from a,b,c,d,e"),
        (["bench", "--methods", "c,c"], "each method once, got c,c"),
        # 10^15 columns need 24 PB, past any address space, so the batched
        # kernel's one allocation fails before it touches memory.
        (["sample", "--method", "c", "--k", "1000000000000000"], "Unable to allocate"),
        (["bench", "--methods", "c", "--vectorized", "--k", "1000000000000000"], "Unable to allocate"),
    ],
)
def test_bad_counts_are_one_line_domain_errors(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and reason in err


class TestConfigFile:
    def test_defaults_from_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("n = 4\nsigma = 2.0\njoint = 1\n")
        code, out, _ = run_cli(
            capsys, "noise-report", "--config", str(config), "--joint", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4  # from file
        assert payload["sigma"] == 2.0  # from file
        assert payload["joint_index"] == 0  # flag wins

    def test_malformed_config(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("n = 4\nthis line is wrong\n")
        code, _, err = run_cli(capsys, "noise-report", "--config", str(config))
        assert code == 2
        assert "bad.cfg:2" in err

    @staticmethod
    def config(tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_numeric_looking_string_stays_a_string(self, capsys, tmp_path):
        # rho = 0 is the string "0" for --rho: one value for three joints
        # is a domain error with one line, not an AttributeError.
        code, _, err = run_cli(capsys, "fk", "--config", self.config(tmp_path, "rho = 0\n"))
        assert code == 3
        assert err.count("\n") == 1 and "shape" in err

    def test_empty_field_in_a_float_list_is_a_domain_error(self, capsys, tmp_path):
        # The file's list is read like the flag's: the empty field is refused,
        # not skipped into the three-value list 0.01,-0.01,0.
        code, out, err = run_cli(capsys, "transform", "--config", self.config(tmp_path, "rho = 0.01,,-0.01,0\n"))
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and err.startswith("error: could not parse float list '0.01,,-0.01,0'")

    def test_numeric_out_is_a_file_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "matrix", "--config", self.config(tmp_path, "out = 123\n"))
        assert code == 0
        assert out == ""
        assert (tmp_path / "123").read_text().startswith("forward")

    def test_argparse_checks_choices(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--config", self.config(tmp_path, "method = z\n")])
        assert exc.value.code == 2

    def test_in_key_names_the_flag(self, capsys, tmp_path):
        rows = tmp_path / "rho.csv"
        rows.write_text("rho_1,rho_2,rho_3\n0,0,0\n")
        code, out, _ = run_cli(capsys, "fk", "--config", self.config(tmp_path, f"in = {rows}\n"))
        assert code == 0
        assert out.splitlines()[0] == "r11,r12,r13,r21,r22,r23,r31,r32,r33,px,py,pz"

    @pytest.mark.parametrize("key", ["bogus", "infile", "func"])
    def test_unknown_key_is_a_usage_error(self, capsys, tmp_path, key):
        code, out, err = run_cli(capsys, "noise-report", "--config", self.config(tmp_path, f"n = 4\n{key} = 1\n"))
        assert code == 2 and out == ""
        assert err == f"error: {tmp_path / 'run.cfg'}:2: {key} is not an option of noise-report\n"

    def test_comment_and_blank_lines_are_skipped(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "# the fault\n\n   # on joint 2\njoint = 2  # zero-based\n")
        code, out, _ = run_cli(capsys, "noise-report", "--config", cfg)
        assert code == 0 and json.loads(out)["joint_index"] == 2

    def test_empty_key(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "noise-report", "--config", self.config(tmp_path, "n = 4\n = 3\n"))
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / 'run.cfg'}:2: empty key\n"

    @pytest.mark.parametrize("value, pure_p", [("true", True), ("yes", True), ("false", False), ("0", False)])
    def test_switch_values(self, capsys, tmp_path, value, pure_p):
        cfg = self.config(tmp_path, f"waypoints = 0,0,0.0001,0\npure_p = {value}\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 0
        assert json.loads(out)["config"]["feedforward"] == (not pure_p)

    def test_bad_switch_value(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config", self.config(tmp_path, "pure_p = maybe\n"))
        assert code == 2
        assert "run.cfg:1" in err

    def test_dashed_and_underscored_keys(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "method = c\nk = 3\nrho_max = 0.002\nrho-min = 0.001\n")
        code, out, _ = run_cli(capsys, "sample", "--config", cfg)
        assert code == 0
        amplitudes = [float(v) for v in out.splitlines()[1].split(",")]
        assert max(abs(v) for v in amplitudes) <= 0.002


class RecordingArgs:
    """Parsed arguments that record the name of every attribute a command reads."""

    def __init__(self, args):
        self.__dict__.update(args=args, read=set())

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.args, name)


def command_modes(tmp_path) -> list[list[str]]:
    """Each subcommand once per mode: every branch that reads different flags."""
    pose = fk_direct(SegmentGeometry(layout=JointLayout(n=3, d=0.01), l=0.1), np.array([0.001, -0.0005, -0.0005]))
    rotation = ",".join(map(repr, pose.rotation.ravel().tolist()))
    position = ",".join(map(repr, pose.position.tolist()))
    rows, positions = tmp_path / "rho.csv", tmp_path / "positions.csv"
    rows.write_text("rho_1,rho_2,rho_3\n0.001,-0.0005,-0.0005\n")
    positions.write_text(f"px,py,pz\n{position}\n")
    trace = ["--trace-out", str(tmp_path / "trace")]
    return [
        ["matrix"],
        ["transform", "--rho=1,-0.5,-0.5"],
        ["transform", "--xi=0,1"],
        ["fk", "--rho=0.001,-0.0005,-0.0005"],
        ["fk", "--in", str(rows)],
        ["ik", f"--position={position}"],
        ["ik", f"--rotation={rotation}"],
        ["ik", f"--pose={rotation},{position}"],
        ["ik", "--in", str(positions)],
        *(["sample", "--method", method, "--k", "5"] for method in "abcde"),
        ["bench", "--methods", "c", "--k", "5", "--runs", "1"],
        ["simulate", *trace],
        ["simulate", "--pure-p", *trace],
        ["noise-report"],
    ]


def test_every_subcommand_reads_every_flag_it_declares(capsys, tmp_path):
    # main reads --config; the command reads every other flag in one of its modes.
    unread = {}
    for argv in command_modes(tmp_path):
        args = build_parser().parse_args([*argv, "--out", str(tmp_path / "out")])
        recorder = RecordingArgs(args)
        assert args.func(recorder) == 0, argv
        unread.setdefault(argv[0], set(vars(args)) - {"command", "func", "config"})
        unread[argv[0]] -= recorder.read
    capsys.readouterr()
    subcommands = next(action.choices for action in build_parser()._actions if action.dest == "command")
    assert sorted(unread) == sorted(subcommands)
    unread = {command: sorted(flags) for command, flags in unread.items() if flags}
    assert not unread, f"declared but never read: {unread}"


REMOVED_FLAGS = {
    "matrix": ["--d", "--l", "--seed", "--format"],
    "transform": ["--d", "--l", "--seed"],
    "fk": ["--seed"],
    "ik": ["--seed"],
    "sample": ["--l", "--format", "--vectorized"],
    "bench": ["--l"],
    "noise-report": ["--d", "--l", "--seed", "--format"],
}
FLAG_VALUES = {"--d": "0.01", "--l": "0.1", "--seed": "1", "--format": "csv", "--vectorized": "true"}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in REMOVED_FLAGS.items() for f in flags])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, tmp_path, command, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = {FLAG_VALUES[flag]}\n")
    with pytest.raises(SystemExit) as exc:
        main([command, flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {cfg}:1: {flag[2:]} is not an option of {command}\n")


@pytest.mark.parametrize("command, flag, value", [("simulate", "--k", "5"), ("bench", "--method", "c"), ("sample", "--meth", "c")])
def test_a_flag_prefix_is_a_usage_error(capsys, tmp_path, command, flag, value):
    # Flags are matched whole: argparse would take --k for --kp, --method for --methods and --meth for --method.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {cfg}:1: {flag[2:]} is not an option of {command}\n")


# Each subcommand whose --seed help promises an echo: a short run, and how its output shows seed 7.
SEED_ECHOES = {
    "sample": (["--k", "3"], lambda out, err: "seed=7" in err.split()),
    "simulate": (["--waypoints", "0,0,0.001,0"], lambda out, err: json.loads(out)["seed"] == 7),
}


def test_every_seed_help_that_promises_an_echo_is_kept(capsys):
    subcommands = next(action.choices for action in build_parser()._actions if action.dest == "command")
    helps = {
        name: action.help for name, p in subcommands.items() for action in p._actions if action.dest == "seed"
    }
    assert sorted(helps) == ["bench", "sample", "simulate"]
    assert sorted(name for name, text in helps.items() if "printed with the output" in text) == sorted(SEED_ECHOES)
    for name, (argv, echoed) in SEED_ECHOES.items():
        code, out, err = run_cli(capsys, name, "--seed", "7", *argv)
        assert code == 0 and echoed(out, err), (name, out, err)


@pytest.mark.parametrize("command, rows", [("fk", "rho_1,rho_2,rho_3\n0,0,0\n"), ("ik", "px,py,pz\n0,0,0.1\n")])
def test_in_writes_csv_and_refuses_format_json(capsys, tmp_path, command, rows):
    src, cfg = tmp_path / "rows.csv", tmp_path / "run.cfg"
    src.write_text(rows)
    cfg.write_text("format = json\n")
    for given in (["--format", "json"], ["--config", str(cfg)]):
        code, out, err = run_cli(capsys, command, "--in", str(src), *given)
        assert code == 2 and out == ""
        assert err == "error: --in writes CSV; --format json applies to one value only\n"
    code, out, _ = run_cli(capsys, command, "--in", str(src))
    assert code == 0 and out.count("\n") == 2
    assert run_cli(capsys, command, "--in", str(src), "--format", "csv") == (0, out, "")


def test_non_finite_flag_value_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "sample", "--d", "inf")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "finite" in err


# A valid command line per float-list flag: (argv before the flag, flag, values).
VALID_FLOAT_FLAGS = {
    "noise-report --sigma": (["noise-report", "--n", "5", "--joint", "2"], "--sigma", ["0.001"]),
    "simulate --waypoints": (["simulate", "--noise", "0"], "--waypoints", ["0", "0", "0.001", "0.001"]),
    "fk --rho": (["fk", "--n", "3"], "--rho", ["0.001", "-0.0005", "-0.0005"]),
}
BAD_FLOATS = ("inf", "-inf", "nan", "Infinity", "-NaN", "1e308", "-1e308", "1.7976931348623157e308")


def run_cli_strict(capsys, argv):
    """(exit code, stdout, stderr); argparse exits count, a warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(VALID_FLOAT_FLAGS))
def test_valid_float_flag_commands_succeed(capsys, name):
    head, flag, values = VALID_FLOAT_FLAGS[name]
    code, _, err = run_cli_strict(capsys, head + [f"{flag}={','.join(values)}"])
    assert code == 0 and err == ""


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(VALID_FLOAT_FLAGS)), st.sampled_from(BAD_FLOATS), st.data())
def test_bad_float_in_a_valid_command_fails_in_one_line(capsys, name, bad, data):
    head, flag, values = VALID_FLOAT_FLAGS[name]
    values = list(values)
    values[data.draw(st.integers(0, len(values) - 1))] = bad
    code, out, err = run_cli_strict(capsys, head + [f"{flag}={','.join(values)}"])
    assert code in (2, 3)
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        *(
            (["sample", "--method", m, "--rho-min=-1e308", "--rho-max=1e308", "--k", "2"], "rho_max - rho_min must be finite")
            for m in "abcde"
        ),
        (["bench", "--rho-min=-1e308", "--rho-max=1e308"], "rho_max - rho_min must be finite"),
        (["sample", "--method", "e", "--rho-max", "1e200", "--k", "3"], "finite rho_max**2"),
        (["bench", "--methods", "e", "--rho-max", "1e200"], "finite rho_max**2"),
        (["sample", "--method", "a", "--rho-min", "3e-6", "--rho-max", "4e-6", "--k", "1"], "method (a) can never accept"),
        (["sample", "--method", "a", "--rho-min=-1e308", "--k", "1"], "method (a) is hopeless"),
        (["sample", "--method", "b", "--rho-min=-1e308", "--k", "1"], "method (b) is hopeless"),
    ],
)
def test_sampling_bounds_that_cannot_work_are_one_line(capsys, argv, reason):
    # Each is refused before the first draw, with no warning.
    t0 = time.perf_counter()
    code, out, err = run_cli_strict(capsys, argv)
    assert time.perf_counter() - t0 < 0.5
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and reason in err


# A tip frame Ry(1 rad), the frame of a bend of 1 rad in the x-z plane.
_TIP_FRAME = "0.5403023058681398,0,0.8414709848078965,0,1,0,-0.8414709848078965,0,0.5403023058681398"


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--n", "3", "--rho", "0.001,-0.0005,-0.0005"],
        ["transform", "--n", "5", "--xi", "0.001,0.002"],
        ["transform", "--n", "5", "--xi", "1.3e308,1.3e308"],
        ["transform", "--n", "3", "--rho=1.7e308,-1.7e308,-1.7e308"],
        ["transform", "--n", "64", "--xi=-1.7e308,1.7e308"],
        ["transform", "--n", "4", "--xi=1.7e308,0"],
        ["fk", "--rho", "0.001,-0.0005,-0.0005"],
        ["fk", "--rho=1e308,-5e307,-5e307"],
        ["fk", "--d", "1e308", "--rho=1e308,-5e307,-5e307"],
        ["ik", "--position", "0.01,0,0.09"],
        ["ik", "--rotation", _TIP_FRAME],
        ["ik", "--pose", _TIP_FRAME + ",0.01,0,0.09"],
        ["ik", "--position=1e308,1e308,1e308"],
        ["ik", "--d", "1e308", "--rotation", _TIP_FRAME],
        ["noise-report"],
        ["noise-report", "--n", "64", "--sigma=-1.7e308"],
        ["simulate"],
        ["simulate", "--noise", "1e300"],
        ["bench", "--k", "20", "--runs", "1", "--methods", "c,d,e"],
        ["bench", "--k", "5", "--runs", "1", "--methods", "c,d,e", "--rho-max", "1e150"],
    ],
)
def test_json_outputs_are_strict_or_refused_in_one_line(capsys, argv):
    # Every JSON path at its defaults and at extreme finite inputs: the output
    # parses without Infinity or NaN, or the command exits 2 or 3 with one
    # stderr line and no warning.
    code, out, err = run_cli_strict(capsys, argv)
    if code == 0:
        strict_json(out)
        assert err == ""
    else:
        assert code in (2, 3) and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "Warning" not in err


def _finite_rows(text, skip=0):
    """The data rows of CSV text; each value past the first `skip` must be a finite float."""
    rows = [line.split(",")[skip:] for line in text.splitlines()[1:]]
    assert rows and all(math.isfinite(float(v)) for row in rows for v in row)
    return rows


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--method", "c", "--rho-min=-8e307", "--rho-max=8e307", "--k", "50"],
        ["sample", "--method", "e", "--rho-max", "1.34e154", "--k", "50"],
        ["sample", "--method", "a", "--rho-min", "1.6e-6", "--rho-max", "1.8e-6", "--k", "2"],
        ["bench", "--methods", "e", "--rho-max", "1.34e154", "--k", "20", "--runs", "2", "--format", "csv"],
    ],
)
def test_just_feasible_sampling_bounds_run(capsys, argv):
    # sample writes one stats line to stderr, bench none.
    bench = argv[0] == "bench"
    code, out, err = run_cli_strict(capsys, argv)
    assert code == 0 and err.count("\n") == (not bench), err
    _finite_rows(out, skip=bench)


# Sampling commands that take --rho-min/--rho-max, for the bad-bound property.
SAMPLING_COMMANDS = {
    **{f"sample {m}": ["sample", "--method", m, "--k", "20"] for m in "cde"},
    "bench": ["bench", "--methods", "c,d,e", "--k", "10", "--runs", "2", "--format", "csv"],
}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(sorted(SAMPLING_COMMANDS)),
    st.sampled_from(["--rho-min", "--rho-max"]),
    st.sampled_from(BAD_FLOATS),
    st.integers(3, 64),
)
def test_bad_sampling_bound_gives_finite_samples_or_one_line(capsys, name, flag, bad, n):
    code, out, err = run_cli_strict(capsys, SAMPLING_COMMANDS[name] + ["--n", str(n), f"{flag}={bad}"])
    if code == 0:
        assert err.count("\n") == (name != "bench") and "Warning" not in err
        _finite_rows(out, skip=name == "bench")
    else:
        assert code in (2, 3) and out == ""
        assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err


def test_parser_built_once_and_calls_do_not_leak(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run_cli(capsys, "noise-report", "--sigma", "2")
    assert code == 0 and json.loads(out)["sigma"] == 2.0
    code, out, _ = run_cli(capsys, "noise-report")
    assert code == 0 and json.loads(out)["sigma"] == 1.0


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "clarkekin.cli", "matrix", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "forward" in proc.stdout


def test_console_entry_point_reads_config_and_version(capsys, tmp_path):
    # main() with no arguments takes sys.argv; --config needs the list itself to place the file's tokens.
    config = tmp_path / "run.cfg"
    config.write_text("n = 4\nsigma = 2.0\njoint = 1\n")
    argv = ["noise-report", "--config", str(config), "--joint", "0"]
    proc = subprocess.run([sys.executable, "-m", "clarkekin.cli", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli(capsys, *argv)[1] and json.loads(proc.stdout)["joint_index"] == 0
    proc = subprocess.run([sys.executable, "-m", "clarkekin.cli", "--version"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"clarkekin {clarkekin.__version__}\n", "")


IK_POSITION = "--position=-0.0019715429862298814,-0.0022647031558552804,0.099939868941973459"
SIM = ["simulate", "--waypoints", "0,0,0.02,0.01", "--noise", "0"]


class TestRerunToTheSamePath:
    """A second, shorter run over the same path leaves exactly its own bytes."""

    @pytest.mark.parametrize(
        "first, second, flag",
        [
            (["fk", "--rho", "0.001,-0.002,0.001"], ["fk", "--rho", "0.001,-0.002,0.001", "--format", "csv"], "--out"),
            (["ik", "--n", "5", IK_POSITION], ["ik", "--n", "5", IK_POSITION, "--format", "csv"], "--out"),
            (["sample", "--method", "c", "--k", "50"], ["sample", "--method", "c", "--k", "5"], "--out"),
            (["matrix", "--n", "8"], ["matrix", "--n", "3"], "--out"),
            (SIM + ["--pure-p", "--n", "12", "--seed", "123456789"], SIM + ["--n", "3"], "--out"),
            (SIM + ["--n", "12", "--format", "csv"], SIM + ["--n", "3", "--format", "csv"], "--trace-out"),
            (SIM + ["--n", "12"], SIM + ["--n", "3"], "--trace-out"),
        ],
        ids=["fk", "ik", "sample", "matrix", "simulate", "trace-csv", "trace-json"],
    )
    def test_out_file(self, capsys, tmp_path, first, second, flag):
        path, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run_cli(capsys, *first, flag, str(path))[0] == 0
        longer = path.read_bytes()
        assert run_cli(capsys, *second, flag, str(path))[0] == 0
        assert run_cli(capsys, *second, flag, str(fresh))[0] == 0
        assert len(fresh.read_bytes()) < len(longer)
        assert path.read_bytes() == fresh.read_bytes()

    def test_bench_out(self, capsys, tmp_path):
        # Timings differ from run to run, so the file is checked against
        # its own parse: a stale tail would not survive it.
        path = tmp_path / "stats.json"
        base = ["bench", "--k", "20", "--runs", "1", "--out", str(path)]
        assert run_cli(capsys, *base, "--methods", "c,d,e")[0] == 0
        assert run_cli(capsys, *base, "--methods", "c")[0] == 0
        text = path.read_text()
        assert [r["method"] for r in json.loads(text)] == ["c"]
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_hist_dir(self, capsys, tmp_path):
        hist, fresh = tmp_path / "hist", tmp_path / "fresh"
        base = ["bench", "--methods", "c,e", "--runs", "1", "--seed", "4"]
        assert run_cli(capsys, *base, "--k", "5000", "--hist-dir", str(hist))[0] == 0
        longer = {p.name: p.read_bytes() for p in hist.iterdir()}
        assert run_cli(capsys, *base, "--k", "5", "--hist-dir", str(hist))[0] == 0
        assert run_cli(capsys, *base, "--k", "5", "--hist-dir", str(fresh))[0] == 0
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(longer) and len(names) == 6
        for name in names:
            assert len((fresh / name).read_bytes()) < len(longer[name])
            assert (hist / name).read_bytes() == (fresh / name).read_bytes()

    def test_fk_in_and_out_the_same_file(self, capsys, tmp_path):
        rows, fresh = tmp_path / "rows.csv", tmp_path / "fresh.csv"
        assert run_cli(capsys, "sample", "--method", "e", "--d", "0.01", "--k", "40", "--out", str(rows))[0] == 0
        assert run_cli(capsys, "fk", "--in", str(rows), "--out", str(fresh))[0] == 0
        assert run_cli(capsys, "fk", "--in", str(rows), "--out", str(rows))[0] == 0
        assert rows.read_bytes() == fresh.read_bytes()


def test_matrix_reads_back_to_the_transform_bits(capsys):
    for n in (3, 4, 7):
        code, out, _ = run_cli(capsys, "matrix", "--n", str(n))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"forward (2 x {n}):" and lines[3] == f"inverse ({n} x 2):"
        forward = np.array([[float(v) for v in line.split()] for line in lines[1:3]])
        inverse = np.array([[float(v) for v in line.split()] for line in lines[4:]])
        t = build_transform(n)
        assert forward.tobytes() == t.forward.tobytes()
        assert inverse.tobytes() == t.inverse.tobytes()


def peak_bytes(fn):
    """fn's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestStreamedCsv:
    """sample, fk --in and ik --in format their rows a block at a time, never the whole file."""

    def test_sample_out_needs_its_samples_plus_four_mib(self, tmp_path):
        # The 3 x k samples take 4.8 MB; the whole file's text, with a
        # Python float per value, took seven times that.
        out, k = tmp_path / "s.csv", 200_000
        code, peak = peak_bytes(lambda: main(["sample", "--k", str(k), "--out", str(out)]))
        assert code == 0
        assert peak <= 3 * k * 8 + 4 * 2**20
        assert out.read_text().count("\n") == k + 1

    def test_fk_in_out_needs_what_fk_needs_plus_four_mib(self, tmp_path):
        # Reading 40,000 rows and computing their poses peaks inside
        # fk_direct; writing the 12-column file may add one block's text.
        rows, out = tmp_path / "rows.csv", tmp_path / "poses.csv"
        assert main(["sample", "--d", "0.01", "--k", "40000", "--out", str(rows)]) == 0
        geom = SegmentGeometry(layout=JointLayout(n=3, d=0.01), l=0.1)
        _, computing = peak_bytes(lambda: fk_direct(geom, read_csv(rows, [displacement_header(3)])[1].T))
        code, peak = peak_bytes(lambda: main(["fk", "--in", str(rows), "--out", str(out)]))
        assert code == 0
        assert peak <= computing + 4 * 2**20
        assert out.read_text().count("\n") == 40_001

    def test_fk_in_writes_its_pose_stack_without_a_copy(self, tmp_path, monkeypatch):
        # Twice the rows, and still nothing past fk_direct's own peak. With
        # fk_direct's stack built beforehand, the command needs what reading
        # the rows needs and one block: a (k, 12) copy of the stack took
        # 0.96 MB more per 10,000 rows.
        geom = SegmentGeometry(layout=JointLayout(n=3, d=0.01), l=0.1)
        beyond_fk, beyond_reading = [], []
        for k in (10_000, 20_000):
            rows, out = tmp_path / f"rows{k}.csv", tmp_path / f"poses{k}.csv"
            assert main(["sample", "--d", "0.01", "--k", str(k), "--out", str(rows)]) == 0
            argv = ["fk", "--in", str(rows), "--out", str(out)]
            _, computing = peak_bytes(lambda: fk_direct(geom, read_csv(rows, [displacement_header(3)])[1].T))
            code, peak = peak_bytes(lambda: main(argv))
            assert code == 0
            beyond_fk.append(peak - computing)
            text = out.read_text()
            stack = fk_direct(geom, read_csv(rows, [displacement_header(3)])[1].T)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "fk_direct", lambda g, rho: stack)
                _, reading = peak_bytes(lambda: read_csv(rows, [displacement_header(3)]))
                code, peak = peak_bytes(lambda: main(argv))
            assert code == 0 and out.read_text() == text
            beyond_reading.append(peak - reading)
        assert beyond_fk[1] <= beyond_fk[0] + 2**18
        assert beyond_reading[1] <= beyond_reading[0] + 2**18 and max(beyond_reading) <= 2**19

    @pytest.mark.parametrize(
        "argv, first, err",
        [
            (["sample", "--k", "400000"], "rho_1,rho_2,rho_3\n", "method e: k=400000 iterations="),
            (["matrix", "--n", "200000"], "forward (2 x 200000):\n", ""),
        ],
        ids=["sample", "matrix"],
    )
    def test_closed_stdout_ends_the_output_not_the_command(self, argv, first, err):
        # The reader takes one line and leaves; the rest of the output meets
        # a closed pipe. No error line, no "Exception ignored" at exit.
        with subprocess.Popen(
            [sys.executable, "-m", "clarkekin.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        ) as proc:
            assert proc.stdout.readline() == first
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 0, stderr
            assert stderr.startswith(err) and stderr.count("\n") == (1 if err else 0)
