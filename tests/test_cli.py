"""Command-line interface: outputs, exit codes, batch round trips."""

import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clarkekin.cli import build_parser, main


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


class TestKinematics:
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

    def test_ik_prohibited_region(self, capsys):
        code, _, err = run_cli(capsys, "ik", "--n", "5", "--position", "0.01,0,-0.02")
        assert code == 3
        assert "p_z" in err

    def test_fk_ik_fk_batch_round_trip(self, capsys, tmp_path):
        rho_file = tmp_path / "rho.csv"
        from clarkekin import JointLayout, SamplerConfig, sample_direct_batched
        from clarkekin.sampling import save_batch_csv

        layout = JointLayout(n=4, d=0.01)
        cfg = SamplerConfig(layout=layout, rho_min=0.1 * 0.01 * np.pi, rho_max=0.9 * 0.01 * np.pi, seed=9)
        save_batch_csv(sample_direct_batched(cfg, 25, "annulus"), rho_file)

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
        from clarkekin.sampling import save_batch_csv

        cfg = SamplerConfig(layout=JointLayout(n=4, d=0.01), rho_min=0.001, rho_max=0.028, seed=5)
        rho_file = tmp_path / "rho.csv"
        save_batch_csv(sample_direct_batched(cfg, rows, "annulus"), rho_file)
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

    @pytest.mark.parametrize("method", ["a", "b"])
    def test_vectorized_rejection_method_is_a_domain_error(self, capsys, method):
        code, out, err = run_cli(capsys, "sample", "--method", method, "--k", "4", "--vectorized")
        assert code == 3
        assert out == ""
        assert err == f"error: --vectorized applies to direct methods c/d/e, not {method!r}\n"

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

    def test_enormous_leg_fails_fast(self, capsys):
        # About 3e304 ticks: refused before any tick array is built.
        code, out, err = run_cli_strict(capsys, ["simulate", "--waypoints", "0,0,1e300,0", "--noise", "0"])
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "leg 1" in err and "e+304 ticks" in err

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
        (["sample", "--method", "a", "--k", "-3"], "k must be >= 0"),
        (["sample", "--method", "b", "--k", "-3"], "k must be >= 0"),
        (["sample", "--method", "c", "--k", "-3"], "k must be >= 0"),
        (["sample", "--method", "d", "--k", "-3"], "k must be >= 0"),
        (["sample", "--method", "e", "--k", "-3"], "k must be >= 0"),
        (["sample", "--method", "e", "--k", "-3", "--vectorized"], "k must be >= 0"),
        (["bench", "--runs", "0"], "runs >= 1"),
        (["sample", "--method", "a", "--rho-min", "0.0001", "--k", "1"], "method (a) can never accept"),
        (["sample", "--method", "b", "--rho-min", "0.0001", "--k", "1"], "method (b) can never accept"),
        (["bench", "--methods", "b", "--rho-min", "0.0001"], "method (b) can never accept"),
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
        with pytest.raises(SystemExit) as exc:
            main(["noise-report", "--config", self.config(tmp_path, f"{key} = 1\n")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value, vectorized", [("true", True), ("yes", True), ("false", False), ("0", False)])
    def test_switch_values(self, capsys, tmp_path, value, vectorized):
        cfg = self.config(tmp_path, f"method = c\nk = 5\nvectorized = {value}\n")
        code, _, err = run_cli(capsys, "sample", "--config", cfg)
        assert code == 0
        assert ("vectorized" in err) == vectorized

    def test_bad_switch_value(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sample", "--config", self.config(tmp_path, "vectorized = maybe\n"))
        assert code == 2
        assert "run.cfg:1" in err

    def test_dashed_and_underscored_keys(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "method = c\nk = 3\nrho_max = 0.002\nrho-min = 0.001\n")
        code, out, _ = run_cli(capsys, "sample", "--config", cfg, "--format", "csv")
        assert code == 0
        amplitudes = [float(v) for v in out.splitlines()[1].split(",")]
        assert max(abs(v) for v in amplitudes) <= 0.002


def test_non_finite_flag_value_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "noise-report", "--d", "inf")
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
        (["sample", "--method", "c", "--rho-min=-1e308", "--rho-max=1e308", "--k", "2", "--vectorized"], "rho_max - rho_min must be finite"),
        (["bench", "--rho-min=-1e308", "--rho-max=1e308"], "rho_max - rho_min must be finite"),
        (["sample", "--method", "e", "--rho-max", "1e200", "--k", "3"], "finite rho_max**2"),
        (["sample", "--method", "e", "--rho-max", "1e200", "--k", "3", "--vectorized"], "finite rho_max**2"),
        (["bench", "--methods", "e", "--rho-max", "1e200"], "finite rho_max**2"),
        (["sample", "--method", "a", "--rho-min", "3e-6", "--rho-max", "4e-6", "--k", "1"], "method (a) can never accept"),
    ],
)
def test_sampling_bounds_that_cannot_work_are_one_line(capsys, argv, reason):
    # Each is refused before the first draw, with no warning.
    t0 = time.perf_counter()
    code, out, err = run_cli_strict(capsys, argv)
    assert time.perf_counter() - t0 < 0.5
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and reason in err


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
        ["sample", "--method", "e", "--rho-max", "1.34e154", "--k", "50", "--vectorized"],
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
    **{f"sample {m} --vectorized": ["sample", "--method", m, "--k", "20", "--vectorized"] for m in "cde"},
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
    code, _, err = run_cli(capsys, "sample", "--method", "c", "--k", "4", "--vectorized")
    assert code == 0 and "vectorized" in err
    code, _, err = run_cli(capsys, "sample", "--method", "c", "--k", "4")
    assert code == 0 and "vectorized" not in err and "iterations=4" in err


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
