"""The four workloads: seeded inputs, one round of work, and output checks.

A round is a fixed amount of work whose inputs depend only on the seed, so
every count in it (calls, rows, ticks, bytes, sampler iterations) repeats
exactly from round to round and from run to run. The runner repeats rounds
until the measuring time is up.

Every workload reports its timed calls as ``Call``. A phase is one
user-visible kind of work with its own rate (``fk`` rows, ``a`` samples,
simulated ``ticks``); a group is one exact call that repeats identically
in every round. Each call is bracketed by the host probe (host.probe_us).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clarkekin import cli, control, kinematics
from clarkekin.arcspace import SegmentGeometry
from clarkekin.clarke import JointLayout
from host import probe_us


@dataclass
class Call:
    group: str
    phase: str
    seconds: float
    units: int
    probe_us: float  # host.probe_us around the call


@dataclass
class Round:
    calls: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (name, ok, detail)
    health: dict = field(default_factory=dict)
    tick_ns: np.ndarray | None = None
    tick_probe_us: np.ndarray | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def gauge(self, name: str, value: float) -> None:
        self.health[name] = max(self.health.get(name, 0.0), float(value))

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tag])))


def _psi(n: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(n) / n


def _manifold_residual(columns: np.ndarray) -> float:
    """max |P x - x| over the columns, with P built here from its closed form.

    P_ij = (2/n) cos(psi_i - psi_j) is the manifold projector; it does not
    reuse the library's matrices, so it checks them too.
    """
    n = columns.shape[0]
    psi = _psi(n)
    proj = (2.0 / n) * np.cos(psi[:, None] - psi[None, :])
    return float(np.max(np.abs(proj @ columns - columns))) if columns.size else 0.0


def _orthonormality_error(rotations: np.ndarray) -> float:
    """max |R^T R - I| over a stack of 3x3 rotations."""
    gram = np.einsum("kji,kjl->kil", rotations, rotations)
    return float(np.max(np.abs(gram - np.eye(3))))


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


class Workload:
    name = ""
    phases: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def _cli(self, rnd: Round, group: str, phase: str, units: int, argv: list[str], inputs=(), outputs=()) -> bool:
        """One timed in-process CLI call; counts its file bytes in and out."""
        before = probe_us()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
        seconds = time.perf_counter() - t0
        rnd.calls.append(Call(group, phase, seconds, units, (before + probe_us()) / 2))
        rnd.count("cli.calls", 1)
        rnd.count("cli.bytes_in", sum(p.stat().st_size for p in inputs))
        rnd.count("cli.bytes_out", sum(p.stat().st_size for p in outputs if p.exists()))
        rnd.check(f"{group}: exit 0", code == 0, f"exit {code}")
        return code == 0


class KinBatch(Workload):
    """fk --in, then ik --in on the pose rows and on their position rows."""

    name = "kin-batch"
    phases = ("fk", "ik")
    JOINTS = (3, 5, 12)
    ROWS_PER_N = 1000
    D, L = 0.01, 0.1
    TOL = 1e-9  # the library's FK->IK acceptance bound

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rho = {}
        for n in self.JOINTS:
            rng = _rng(seed, 1, n)
            rows = self.ROWS_PER_N
            amp = 0.99 * self.D * math.pi * rng.random(rows)
            # About 1% of the rows are the exactly straight segment.
            amp[rng.choice(rows, size=rows // 100, replace=False)] = 0.0
            theta = 2.0 * math.pi * rng.random(rows)
            rho = amp[:, None] * np.cos(_psi(n)[None, :] - theta[:, None])
            self.rho[n] = rho
            _write_csv(self._path("rho", n), [f"rho_{i + 1}" for i in range(n)], rho)

    def _path(self, kind: str, n: int) -> Path:
        return self.workdir / f"{kind}_n{n}.csv"

    def run_round(self) -> Round:
        rnd = Round()
        for n in self.JOINTS:
            rows = self.ROWS_PER_N
            geom = ["--n", str(n), "--d", repr(self.D), "--l", repr(self.L)]
            rho_in, poses, positions = self._path("rho", n), self._path("pose", n), self._path("pos", n)
            back_pose, back_pos = self._path("ik_pose", n), self._path("ik_pos", n)
            if not self._cli(rnd, f"fk n={n}", "fk", rows, ["fk", *geom, "--in", str(rho_in), "--out", str(poses)], [rho_in], [poses]):
                continue
            header, pose_rows = _read_csv(poses)
            rnd.check(f"fk n={n}: rows", pose_rows.shape == (rows, 12), str(pose_rows.shape))
            rnd.gauge("health.rotation_orth_err_max", _orthonormality_error(pose_rows[:, :9].reshape(-1, 3, 3)))
            _write_csv(positions, header[9:], pose_rows[:, 9:])
            for kind, src, dst in (("pose", poses, back_pose), ("position", positions, back_pos)):
                group = f"ik {kind} n={n}"
                if not self._cli(rnd, group, "ik", rows, ["ik", *geom, "--in", str(src), "--out", str(dst)], [src], [dst]):
                    continue
                _, rho_back = _read_csv(dst)
                err = float(np.max(np.abs(rho_back - self.rho[n]))) if rho_back.shape == self.rho[n].shape else math.inf
                rnd.check(f"{group}: round trip <= {self.TOL:g}", err <= self.TOL, f"max error {err:.3e}")
                rnd.gauge("health.roundtrip_err_max", err)
                rnd.gauge("health.manifold_residual_max", _manifold_residual(rho_back.T))
            rnd.count("rows", 3 * rows)
        return rnd


class Sampler(Workload):
    """cli bench per method at the paper's setting: n = 3, d = 1 mm, +-d*pi."""

    name = "sampler"
    phases = ("a", "b", "direct", "batched")
    RUNS = 5
    # (phase, methods, k, extra flags). k is sized so that each acceptance
    # check below holds by more than 3.9 standard deviations on every seed.
    CALLS = (
        ("a", "a", 50, ()),
        ("b", "b", 10_000, ()),
        ("direct", "c,d,e", 1_000, ()),
        ("batched", "c,d,e", 100_000, ("--vectorized",)),
    )

    def run_round(self) -> Round:
        rnd = Round()
        for phase, methods, k, extra in self.CALLS:
            out = self.workdir / f"bench_{phase}.json"
            hist = self.workdir / f"hist_{phase}"
            method_list = methods.split(",")
            hist_files = [hist / f"hist_{m}_joint{j}.csv" for m in method_list for j in (1, 2, 3)]
            argv = [
                "bench", "--n", "3", "--d", "0.001", "--methods", methods, "--k", str(k),
                "--runs", str(self.RUNS), "--seed", str(self.seed), "--format", "json",
                "--out", str(out), "--hist-dir", str(hist), *extra,
            ]
            samples = k * self.RUNS * len(method_list)
            # The JSON carries wall times, so its size is not a count; only
            # the histogram bytes are.
            if not self._cli(rnd, f"bench {phase}", phase, 0, argv, (), hist_files):
                continue
            # A phase's unit is one draw, accepted or not: the number of
            # draws a rejection method needs varies with the seed, its cost
            # per draw does not.
            for result in json.loads(out.read_text()):
                m, rate = result["method"], result["success_rate"]
                draws = round(result["iterations_mean"] * self.RUNS)
                rnd.calls[-1].units += draws
                rnd.count(f"iterations.{phase}.{m}", draws)
                if m == "a":
                    rnd.check("a: success rate in [0.9e-3, 1.5e-3]", 0.9e-3 <= rate <= 1.5e-3, f"{rate:.4e}")
                elif m == "b":
                    rnd.check("b: success rate 0.75 +- 0.01", abs(rate - 0.75) <= 0.01, f"{rate:.4f}")
                else:
                    rnd.check(f"{m} ({phase}): success 1, no resamples", rate == 1.0 and result["resamples_mean"] == 0, f"{rate}, {result['resamples_mean']}")
            for path in hist_files:
                counts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2]
                # Every sample lands in a bin: bounds are +-d*pi and the
                # annulus radius never exceeds d*pi.
                rnd.check(f"{path.name}: all samples binned", counts.sum() == k * self.RUNS, f"{counts.sum():.0f}")
            rnd.count(f"samples.{phase}", samples)
        return rnd


class ControlSim(Workload):
    """cli simulate (closed and open loop) with --trace-out, several seeds."""

    name = "control-sim"
    phases = ("sim",)
    SEEDS = 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sim_seeds = [int(s) for s in np.random.SeedSequence([seed, 3]).generate_state(self.SEEDS)]

    def run_round(self) -> Round:
        rnd = Round()
        for j, sim_seed in enumerate(self.sim_seeds):
            summary_path = self.workdir / f"summary_{j}.json"
            trace_path = self.workdir / f"trace_{j}.csv"
            argv = ["simulate", "--seed", str(sim_seed), "--format", "csv", "--trace-out", str(trace_path), "--out", str(summary_path)]
            if not self._cli(rnd, f"simulate #{j}", "sim", 0, argv, (), [trace_path, summary_path]):
                continue
            summary = json.loads(summary_path.read_text())
            ticks = int(summary["ticks"])
            rnd.calls[-1].units = ticks
            rnd.count("ticks", ticks)
            rnd.check(
                f"simulate #{j}: closed-loop rms < open-loop rms",
                summary["rms_closed_loop"] < summary["rms_open_loop"],
                f"{summary['rms_closed_loop']:.3e} vs {summary['rms_open_loop']:.3e}",
            )
            header, data = _read_csv(trace_path)
            n = (len(header) - 1) // 4
            commands, plant = data[:, 1 + 2 * n : 1 + 3 * n].T, data[:, 1 + 3 * n :].T
            residual = _manifold_residual(commands)
            rnd.check(f"simulate #{j}: trace rows", data.shape[0] == ticks, str(data.shape[0]))
            rnd.check(f"simulate #{j}: commands on manifold <= 1e-12", residual <= 1e-12, f"{residual:.3e}")
            rnd.gauge("health.manifold_residual_max", residual)
            rnd.gauge("health.plant_nullspace_max", _manifold_residual(plant))
        return rnd


class RealtimeLoop(Workload):
    """Scalar 1 kHz loop: controller_step, plant_step, fk_direct per tick."""

    name = "realtime-loop"
    phases = ("tick",)
    N, D, L = 5, 0.01, 0.1
    KP, DT, TAU, NOISE = 125.0, 1e-3, 0.25, 2.5e-3
    CHUNK = 250  # ticks between two host probes

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        layout = JointLayout(n=self.N, d=self.D)
        self.geom = SegmentGeometry(layout=layout, l=self.L)
        self.cfg = control.ControllerConfig(kp=self.KP, dt=self.DT, geometry=self.geom)
        rng = _rng(seed, 4)
        # Five waypoints on the annulus between 10% and 100% of d*pi.
        r = math.pi * self.D * np.sqrt(0.01 + 0.99 * rng.random(5))
        theta = 2.0 * math.pi * rng.random(5)
        waypoints = tuple(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
        spec = control.TrajectorySpec(waypoints=waypoints, v_max=0.01 * math.pi, a_max=0.1 * math.pi, d_max=0.1 * math.pi)
        reference = control.generate_trajectory(layout, spec, self.DT)
        psi = _psi(self.N)
        self.xi_ref = np.ascontiguousarray(((2.0 / self.N) * np.vstack([np.cos(psi), np.sin(psi)]) @ reference).T)
        self.noise = rng.uniform(-self.NOISE, self.NOISE, (self.xi_ref.shape[0], self.N))

    def run_round(self) -> Round:
        rnd = Round()
        ticks = self.xi_ref.shape[0]
        step, advance, fk = control.controller_step, control.plant_step, kinematics.fk_direct
        cfg, geom, dt, xi_ref, noise = self.cfg, self.geom, self.DT, self.xi_ref, self.noise
        clock = time.perf_counter_ns
        tick_ns = np.empty(ticks, dtype=np.int64)
        tick_probe = np.empty(ticks)
        commands = np.empty((ticks, self.N))
        states = np.empty((ticks, self.N))
        rotations = np.empty((ticks, 3, 3))
        plant = control.PT1Plant(tau=self.TAU, state=np.zeros(self.N))
        before = probe_us()
        for lo in range(0, ticks, self.CHUNK):
            hi = min(lo + self.CHUNK, ticks)
            for i in range(lo, hi):
                t0 = clock()
                command = step(cfg, xi_ref[i], plant.state + noise[i])
                plant = advance(plant, command, dt)
                pose = fk(geom, plant.state)
                tick_ns[i] = clock() - t0
                commands[i] = command
                states[i] = plant.state
                rotations[i] = pose.rotation
            after = probe_us()
            tick_probe[lo:hi] = (before + after) / 2
            before = after
        rnd.tick_ns, rnd.tick_probe_us = tick_ns, tick_probe
        rnd.calls.append(Call("tick", "tick", float(tick_ns.sum()) / 1e9, ticks, float(np.mean(tick_probe))))
        rnd.count("ticks", ticks)
        residual = _manifold_residual(commands.T)
        rnd.check("realtime: commands on manifold <= 1e-12", residual <= 1e-12, f"{residual:.3e}")
        rnd.gauge("health.manifold_residual_max", residual)
        rnd.gauge("health.plant_nullspace_max", _manifold_residual(states.T))
        rnd.gauge("health.rotation_orth_err_max", _orthonormality_error(rotations))
        return rnd


WORKLOADS = {w.name: w for w in (KinBatch, Sampler, ControlSim, RealtimeLoop)}
