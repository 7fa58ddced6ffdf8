"""Print one SHA-256 per output of every CLI subcommand, after the platform it ran on.

    python tests/output_hashes.py > hashes.txt

Run it on two commits and diff the two files: an empty diff shows that
every output below kept its bytes. Its output on the last commit that
changed an output on purpose is the ledger, tests/output_hashes.txt, which
test_output_ledger.py compares against. It covers:

- `simulate` seeds 1-5: the summary and the trace as CSV and as JSON;
- `fk --in` and `ik --in` on pose rows and on position rows, n = 3, 5, 12;
- a 1 kHz loop of controller_step, plant_step and fk_direct at n = 5 over
  a seeded reference: the command, plant state and pose of every tick;
- `sample --out`: methods a (k = 4,000) and b at n = 3, and c, d and e at
  n = 3 and 12, each with its stderr stats line without its `time_s` field;
- `bench --hist-dir` over a-e, sequential and `--vectorized`: the JSON
  without its timings (`time_s_mean`, `time_s_std`, `factor`) and every
  histogram CSV it writes;
- `bench --format csv`, sequential and `--vectorized`, without its `time_s`
  and `factor` columns;
- the one-value commands as CSV and as JSON, n = 3, 5, 12: `transform
  --rho` and `--xi`, `fk --rho`, and `ik --position`, `--rotation` and
  `--pose` on the pose that `fk --rho` printed as CSV;
- `matrix` at n = 3, 5, 12;
- `noise-report` at n = 3, 5, 12, on three joints and error sizes each.

Inputs come from numpy's seeded generators, not from the library, and
every product here and in the library adds left to right in IEEE floats,
so no bit comes from the BLAS. The numbers still depend on numpy's build
(its cos and sin) and the CPU, so compare two commits on one machine; the
first lines, each starting with "#", name the numpy version, the CPU model
and the machine type. pytest does not collect this file: its name does not
start with test_.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clarkekin import control, kinematics  # noqa: E402
from clarkekin.arcspace import SegmentGeometry  # noqa: E402
from clarkekin.clarke import JointLayout  # noqa: E402
from clarkekin.cli import main  # noqa: E402

D, L = 0.01, 0.1


def cli_output(argv: list[str], path: Path) -> bytes:
    """The bytes `clarkekin argv --out path` writes; exits on a failed command."""
    code = main([*argv, "--out", str(path)])
    if code != 0:
        sys.exit(f"clarkekin {' '.join(argv)} exited {code}")
    return path.read_bytes()


def simulate_outputs(tmp: Path):
    # --format picks the trace's format; the summary is JSON either way.
    for seed in range(1, 6):
        for fmt in ("csv", "json"):
            trace = tmp / f"trace_{seed}.{fmt}"
            argv = ["simulate", "--seed", str(seed), "--format", fmt, "--trace-out", str(trace)]
            summary = cli_output(argv, tmp / f"summary_{seed}.json")
            if fmt == "csv":
                yield f"simulate seed={seed} summary", summary
            yield f"simulate seed={seed} trace {fmt}", trace.read_bytes()


def kinematics_outputs(tmp: Path):
    for n in (3, 5, 12):
        rng = np.random.default_rng([26, n])
        amp = 0.99 * D * math.pi * rng.random(500)
        amp[:5] = 0.0
        psi = 2.0 * math.pi * np.arange(n) / n
        rho = amp[:, None] * np.cos(psi[None, :] - 2.0 * math.pi * rng.random(500)[:, None])
        rows = tmp / f"rho_{n}.csv"
        header = ",".join(f"rho_{i + 1}" for i in range(n)) + "\n"
        rows.write_text(header + "".join(",".join(map(repr, r)) + "\n" for r in rho.tolist()))
        geom = ["--n", str(n), "--d", repr(D), "--l", repr(L)]
        poses = tmp / f"pose_{n}.csv"
        yield f"fk --in n={n}", cli_output(["fk", *geom, "--in", str(rows)], poses)
        lines = poses.read_text().splitlines()
        positions = tmp / f"pos_{n}.csv"
        positions.write_text("".join(",".join(line.split(",")[9:]) + "\n" for line in lines))
        yield f"ik --in pose rows n={n}", cli_output(["ik", *geom, "--in", str(poses)], tmp / f"ik_pose_{n}.csv")
        yield f"ik --in position rows n={n}", cli_output(["ik", *geom, "--in", str(positions)], tmp / f"ik_pos_{n}.csv")


def sampler_outputs(tmp: Path):
    # The time_s field of sample's stderr line and bench's timing fields are
    # dropped here: times are not outputs.
    # Method a accepts about one draw in 840, so it runs a tenth of the samples.
    runs = [("a", 3, 4000), ("b", 3, 40000)] + [(m, n, 40000) for m in "cde" for n in (3, 12)]
    for method, n, k in runs:
        argv = ["sample", "--method", method, "--n", str(n), "--k", str(k), "--seed", "27"]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            samples = cli_output(argv, tmp / "sample.csv")
        yield " ".join(argv), samples
        stats = " ".join(field for field in err.getvalue().split(" ") if not field.startswith("time_s="))
        yield f"{' '.join(argv)} stderr without time_s", stats.encode()
    for flags in ([], ["--vectorized"]):
        argv = ["bench", "--k", "2000", "--runs", "3", "--seed", "27", *flags]
        hists = tmp / f"hist{len(flags)}"
        results = json.loads(cli_output([*argv, "--hist-dir", str(hists)], tmp / "bench.json"))
        for r in results:
            for timing in ("time_s_mean", "time_s_std", "factor"):
                del r[timing]
        yield f"{' '.join(argv)} JSON", json.dumps(results).encode()
        for path in sorted(hists.iterdir()):
            yield f"{' '.join(argv)} {path.name}", path.read_bytes()


def bench_csv_outputs(tmp: Path):
    # The time_s and factor columns are timings, not outputs.
    for flags in ([], ["--vectorized"]):
        argv = ["bench", "--k", "2000", "--runs", "3", "--seed", "27", "--format", "csv", *flags]
        with contextlib.redirect_stderr(io.StringIO()):
            rows = [line.split(",") for line in cli_output(argv, tmp / "bench.csv").decode().splitlines()]
        assert rows[0][1:3] == ["time_s", "factor"], rows[0]
        yield " ".join(argv), "".join(",".join(row[:1] + row[3:]) + "\n" for row in rows).encode()


def payload_outputs(tmp: Path):
    # One value in, one CSV row per key out, or one JSON object.
    for n in (3, 5, 12):
        rng = np.random.default_rng([28, n])
        geom = ["--n", str(n), "--d", repr(D), "--l", repr(L)]
        psi = 2.0 * math.pi * np.arange(n) / n
        for j in range(3):
            amp, theta = 0.99 * D * math.pi * rng.random(), 2.0 * math.pi * rng.random()
            rho = ",".join(map(repr, (amp * np.cos(psi - theta)).tolist()))
            xi = ",".join(map(repr, (amp * rng.standard_normal(2)).tolist()))
            pose = cli_output(["fk", *geom, "--format", "csv", f"--rho={rho}"], tmp / "pose.csv")
            rotation, position = (line.split(",", 1)[1] for line in pose.decode().splitlines())
            runs = [("transform", "--rho", rho), ("transform", "--xi", xi), ("fk", "--rho", rho)]
            targets = (("--position", position), ("--rotation", rotation), ("--pose", f"{rotation},{position}"))
            runs += [("ik", flag, value) for flag, value in targets]
            for fmt in ("csv", "json"):
                for command, flag, value in runs:
                    shared = ["--n", str(n)] if command == "transform" else geom
                    argv = [command, *shared, "--format", fmt, f"{flag}={value}"]
                    yield f"{command} {flag} --format {fmt} n={n} #{j}", cli_output(argv, tmp / "payload")


def report_outputs(tmp: Path):
    for n in (3, 5, 12):
        yield f"matrix n={n}", cli_output(["matrix", "--n", str(n)], tmp / "matrix.txt")
        for joint, sigma in ((0, 1.0), (1, 0.001), (n - 1, 2.5e-3)):
            argv = ["noise-report", "--n", str(n), "--joint", str(joint), "--sigma", repr(sigma)]
            yield " ".join(argv), cli_output(argv, tmp / "report.json")


def realtime_outputs():
    n, dt = 5, 1e-3
    geom = SegmentGeometry(layout=JointLayout(n=n, d=D), l=L)
    cfg = control.ControllerConfig(kp=125.0, dt=dt, geometry=geom)
    rng = np.random.default_rng(26)
    r = math.pi * D * np.sqrt(0.01 + 0.99 * rng.random(5))
    theta = 2.0 * math.pi * rng.random(5)
    waypoints = tuple(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    spec = control.TrajectorySpec(waypoints=waypoints, v_max=0.01 * math.pi, a_max=0.1 * math.pi, d_max=0.1 * math.pi)
    psi = 2.0 * math.pi * np.arange(n) / n
    forward = (2.0 / n) * np.vstack([np.cos(psi), np.sin(psi)])
    reference = control.generate_trajectory(geom.layout, spec, dt)
    xi_ref = forward[:, :1] * reference[0]  # forward @ reference, added left to right
    for j in range(1, n):
        xi_ref += forward[:, j : j + 1] * reference[j]
    xi_ref = xi_ref.T
    noise = rng.uniform(-2.5e-3, 2.5e-3, (xi_ref.shape[0], n))
    plant = control.PT1Plant(tau=0.25, state=np.zeros(n))
    commands, states, poses = [], [], []
    for xi, eps in zip(xi_ref, noise):
        command = control.controller_step(cfg, xi, plant.state + eps)
        plant = control.plant_step(plant, command, dt)
        pose = kinematics.fk_direct(geom, plant.state)
        commands.append(command.tobytes())
        states.append(plant.state.tobytes())
        poses.append(pose.rotation.tobytes() + pose.position.tobytes())
    ticks = xi_ref.shape[0]
    yield f"realtime ticks={ticks} commands", b"".join(commands)
    yield f"realtime ticks={ticks} plant states", b"".join(states)
    yield f"realtime ticks={ticks} poses", b"".join(poses)


def platform_record() -> dict[str, str]:
    """What output bits depend on besides the code: numpy, the CPU model, the machine type.

    No BLAS: every product adds left to right in IEEE floats (clarke._product).
    """
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {"numpy": np.__version__, "cpu": cpu, "machine": platform.machine()}


def hashes() -> list[tuple[str, str]]:
    """(name, SHA-256) of every output, in the order they are printed."""
    with tempfile.TemporaryDirectory() as tmp:
        return [
            (name, hashlib.sha256(data).hexdigest())
            for name, data in (
                *simulate_outputs(Path(tmp)),
                *kinematics_outputs(Path(tmp)),
                *realtime_outputs(),
                *sampler_outputs(Path(tmp)),
                *bench_csv_outputs(Path(tmp)),
                *payload_outputs(Path(tmp)),
                *report_outputs(Path(tmp)),
            )
        ]


def read_ledger(path: Path) -> tuple[dict[str, str], dict[str, str]]:
    """The platform record and the {name: SHA-256} of a file this tool printed."""
    record, digests = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(": ", 1)
            record[key] = value
        else:
            digest, name = line.split("  ", 1)
            digests[name] = digest
    return record, digests


def main_hashes() -> None:
    for key, value in platform_record().items():
        print(f"# {key}: {value}")
    for name, digest in hashes():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main_hashes()
