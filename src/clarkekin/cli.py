"""Command-line front end: transforms, kinematics, sampling and simulation.

Subcommands: matrix, transform, fk, ik, sample, bench, simulate,
noise-report. Each takes --n, --out and --config, and those of --d, --l,
--seed and --format that its command reads; any other flag or config key
is a usage error. Every randomized subcommand takes an explicit --seed
(default 0) so results are replayable; sample's stderr line and simulate's
summary echo it. Exit codes: 0 success, 2 usage error, 3 domain/precondition
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .arcspace import SegmentGeometry
from .clarke import JointLayout, build_transform, inverse_transform, transform
from .control import (
    ControllerConfig,
    NoiseModel,
    PT1Plant,
    TrajectorySpec,
    clarke_tracking_rms,
    generate_trajectory,
    noise_propagation,
    run_simulation,
    save_trace_csv,
    trace_to_dict,
)
from .csvio import csv_chunks, displacement_header, format_float, format_rows, read_csv, write_text
from .kinematics import Pose, fk_direct, ik, ik_position
from .sampling import (
    ALL_METHODS,
    SamplerConfig,
    benchmark,
    histogram_csv,
    sample,
    sample_direct_batched,
    stats_csv,
)

USAGE_ERROR = 2
DOMAIN_ERROR = 3


class UsageError(Exception):
    """Inconsistent or missing arguments; maps to exit code 2."""


POSE_HEADER = [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)] + ["px", "py", "pz"]
POSITION_HEADER = ["px", "py", "pz"]


def _parse_floats(text: str, count: int | None = None, needs: str = "") -> np.ndarray:
    try:
        vals = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"could not parse float list {text!r}: {exc}") from None
    if count is not None and len(vals) != count:
        raise ValueError(f"{needs}, got {len(vals)}")
    return vals


def _emit(chunks, out: str | None) -> None:
    if out:
        write_text(out, chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (`| head -1`): the output ends, not the command,
        # and neither its rest nor the flush at exit meets the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _geometry(args) -> SegmentGeometry:
    return SegmentGeometry(layout=JointLayout(n=args.n, d=args.d), l=args.l)


def cmd_matrix(args) -> int:
    t = build_transform(args.n)

    def lines():
        for name, m in (("forward", t.forward), ("inverse", t.inverse)):
            yield f"{name} ({m.shape[0]} x {m.shape[1]}):\n"
            yield from ("  " + "  ".join(map(format_float, row)) + "\n" for row in m)

    _emit(lines(), args.out)
    return 0


def cmd_transform(args) -> int:
    t = build_transform(args.n)
    if (args.rho is None) == (args.xi is None):
        raise UsageError("give exactly one of --rho (forward) or --xi (inverse)")
    if args.rho is not None:
        xi = transform(t, _parse_floats(args.rho))
        payload = {"rho_re": xi[0], "rho_im": xi[1]}
    else:
        rho = inverse_transform(t, _parse_floats(args.xi))
        payload = {"rho": list(rho)}
    _emit((_format_payload(payload, args.format),), args.out)
    return 0


def _format_payload(payload: dict, fmt: str | None) -> str:
    # JSON unless --format csv. fk and ik leave --format unset by default, so
    # that their --in, which writes CSV, can refuse a given --format json.
    if fmt == "csv":
        return "".join(key + "," + format_rows(np.reshape(value, (1, -1))) for key, value in payload.items())
    return json.dumps(payload, indent=2, default=float) + "\n"


def _refuse_json_rows(args) -> None:
    if args.format == "json":
        raise UsageError("--in writes CSV; --format json applies to one value only")


def cmd_fk(args) -> int:
    geom = _geometry(args)
    if (args.rho is None) == (args.infile is None):
        raise UsageError("give exactly one of --rho or --in FILE")
    if args.rho is not None:
        pose = fk_direct(geom, _parse_floats(args.rho))
        payload = {"rotation": pose.rotation.tolist(), "position": pose.position.tolist()}
        _emit((_format_payload(payload, args.format),), args.out)
        return 0
    _refuse_json_rows(args)
    _, rows = read_csv(args.infile, [displacement_header(args.n)])
    poses = fk_direct(geom, rows.T)
    _emit(csv_chunks(POSE_HEADER, poses.rotation.reshape(-1, 9), poses.position), args.out)
    return 0


def _target_from_args(args):
    if args.position is not None:
        return _parse_floats(args.position, 3, "--position needs 3 values px,py,pz")
    if args.rotation is not None:
        return _parse_floats(args.rotation, 9, "--rotation needs 9 row-major values").reshape(3, 3)
    vals = _parse_floats(args.pose, 12, "--pose needs 9 rotation + 3 position values")
    return Pose(rotation=vals[:9].reshape(3, 3), position=vals[9:])


def cmd_ik(args) -> int:
    geom = _geometry(args)
    if sum(v is not None for v in (args.position, args.rotation, args.pose, args.infile)) != 1:
        raise UsageError("give exactly one of --position, --rotation, --pose or --in FILE")
    if args.infile is not None:
        _refuse_json_rows(args)
        header, rows = read_csv(args.infile, [POSE_HEADER, POSITION_HEADER])
        if header == POSE_HEADER:
            rho = ik(geom, Pose(rotation=rows[:, :9].reshape(-1, 3, 3), position=rows[:, 9:]))
        else:
            rho = ik_position(geom, rows)
        _emit(csv_chunks(displacement_header(args.n), rho.T), args.out)
        return 0
    rho = ik(geom, _target_from_args(args))
    _emit((_format_payload({"rho": list(rho)}, args.format),), args.out)
    return 0


def _sampler_config(args, method: str | None = None) -> SamplerConfig:
    layout = JointLayout(n=args.n, d=args.d)
    rho_max = args.rho_max if args.rho_max is not None else layout.d * np.pi
    if args.rho_min is not None:
        rho_min = args.rho_min
    elif method == "e":
        # The annulus needs a positive inner radius; a tenth of the outer
        # radius is the documented default when no bound is given.
        rho_min = 0.1 * rho_max
    else:
        rho_min = -rho_max
    return SamplerConfig(
        layout=layout,
        rho_min=rho_min,
        rho_max=rho_max,
        rounding_epsilon=args.rounding_eps,
        seed=args.seed,
    )


def cmd_sample(args) -> int:
    cfg = _sampler_config(args, method=args.method)
    t0 = time.perf_counter()
    batch, stats = sample(cfg, args.k, args.method, vectorized=True)
    seconds = time.perf_counter() - t0
    _emit(csv_chunks(displacement_header(cfg.layout.n), batch.columns.T), args.out)
    sys.stderr.write(
        f"method {stats.method}: k={args.k} iterations={stats.iterations} resamples={stats.resamples} "
        f"success_rate={format_float(stats.success_rate)} time_s={format_float(seconds)} seed={args.seed}\n"
    )
    return 0


def cmd_bench(args) -> int:
    cfg = _sampler_config(args)
    methods = tuple(m.strip() for m in args.methods.split(","))
    results = benchmark(
        cfg,
        args.k,
        methods=methods,
        runs=args.runs,
        vectorized=args.vectorized,
        annulus_rho_min=_sampler_config(args, "e").rho_min,
    )
    if args.format == "json":
        payload = [
            {
                "method": r.method,
                "time_s_mean": r.time_mean,
                "time_s_std": r.time_std,
                "factor": r.factor,
                "iterations_mean": r.iterations_mean,
                "iterations_std": r.iterations_std,
                "resamples_mean": r.resamples_mean,
                "success_rate": r.success_rate,
            }
            for r in results
        ]
        _emit((json.dumps(payload, indent=2) + "\n",), args.out)
    else:
        _emit((stats_csv(results),), args.out)
    if args.hist_dir:
        os.makedirs(args.hist_dir, exist_ok=True)
        for r in results:
            for j in range(cfg.layout.n):
                _emit((histogram_csv(r, j),), os.path.join(args.hist_dir, f"hist_{r.method}_joint{j + 1}.csv"))
    return 0


def _default_waypoints(layout: JointLayout, seed: int, count: int = 5) -> tuple:
    # Start, goal and vias drawn on the annulus between 10% and 100% of the
    # half-circle displacement d*pi.
    cfg = SamplerConfig(
        layout=layout,
        rho_min=0.1 * layout.d * np.pi,
        rho_max=layout.d * np.pi,
        seed=seed,
    )
    batch = sample_direct_batched(cfg, count, "annulus")
    return tuple(transform(build_transform(layout.n), batch.columns).T)


def cmd_simulate(args) -> int:
    geom = _geometry(args)
    cfg = ControllerConfig(kp=args.kp, dt=args.dt, geometry=geom, feedforward=not args.pure_p)
    layout = geom.layout
    if args.waypoints is not None:
        vals = _parse_floats(args.waypoints)
        if len(vals) < 4 or len(vals) % 2:
            raise ValueError("--waypoints needs an even number (>= 4) of values: re1,im1,re2,im2,...")
        waypoints = tuple(vals.reshape(-1, 2))
    else:
        waypoints = _default_waypoints(layout, args.seed)
    spec = TrajectorySpec(
        waypoints=waypoints,
        v_max=args.v_max,
        a_max=args.a_max,
        d_max=args.d_max,
    )
    trajectory = generate_trajectory(layout, spec, args.dt)
    plant = PT1Plant(tau=args.tau, state=np.zeros(layout.n))
    noise = NoiseModel(epsilon=args.noise, seed=args.seed)
    closed = run_simulation(cfg, plant, noise, trajectory, closed_loop=True)
    opened = run_simulation(cfg, plant, noise, trajectory, closed_loop=False)
    summary = {
        "seed": args.seed,
        "ticks": int(len(closed.time)),
        "duration_s": float(closed.time[-1]),
        "rms_closed_loop": clarke_tracking_rms(closed),
        "rms_open_loop": clarke_tracking_rms(opened),
        "config": {
            "n": layout.n,
            "d": layout.d,
            "l": geom.l,
            "kp": args.kp,
            "dt": args.dt,
            "tau": args.tau,
            "noise": args.noise,
            "feedforward": not args.pure_p,
        },
    }
    if args.trace_out:
        if args.format == "json":
            _emit((json.dumps(trace_to_dict(closed)),), args.trace_out)
        else:
            save_trace_csv(closed, args.trace_out)
    _emit((json.dumps(summary, indent=2) + "\n",), args.out)
    return 0


def cmd_noise_report(args) -> int:
    report = noise_propagation(args.n, args.sigma, args.joint)
    _emit((json.dumps(report.to_dict(), indent=2) + "\n",), args.out)
    return 0


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _config_tokens(path: str, args) -> list[tuple[int, str, str]]:
    """The KEY = VALUE lines of a config file as (line number, key, argv token).

    The token is --key-with-dashes=VALUE. A switch (a flag that takes no
    value, False unless given) becomes the bare flag when its value is true
    and is left out when it is false.
    Every other value is parsed and checked by argparse like a typed flag.
    """
    tokens = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected KEY = VALUE, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise UsageError(f"{path}:{lineno}: empty key")
            flag = "--" + key.replace("_", "-")
            if not isinstance(getattr(args, key.replace("-", "_"), None), bool):
                tokens.append((lineno, key, f"{flag}={value}"))
            elif value.lower() in _TRUE:
                tokens.append((lineno, key, flag))
            elif value.lower() not in _FALSE:
                raise UsageError(f"{path}:{lineno}: {key} is a switch, give true or false, got {value!r}")
    return tokens


def _add_common(
    p: argparse.ArgumentParser, *reads: str, n: int = 3, d: float = 0.01, l: float = 0.1, fmt: str | None = "json",
    seed: str = "PRNG seed (printed with the output)",
) -> None:
    # --n, --out, --config, and the shared flags named in `reads`. Sampling
    # subcommands default to the 1 mm benchmark radius; the kinematics and
    # control ones to the 10 mm segment geometry. seed is --seed's help.
    p.add_argument("--n", type=int, default=n, help="number of displacement joints")
    if "d" in reads:
        p.add_argument("--d", type=float, default=d, help="joint radius from the center-line, m")
    if "l" in reads:
        p.add_argument("--l", type=float, default=l, help="segment length, m")
    if "seed" in reads:
        p.add_argument("--seed", type=int, default=0, help=seed)
    if "format" in reads:
        p.add_argument("--format", choices=("csv", "json"), default=fmt, help="output format")
    p.add_argument("--out", default=None, help="write the primary output to this path")
    p.add_argument("--config", default=None, help="KEY = VALUE defaults file; flags override it")


def _add_sampler_flags(p: argparse.ArgumentParser, *reads: str, **common) -> None:
    # The flags sample and bench share, on the sampling defaults.
    _add_common(p, *reads, "d", "seed", d=0.001, **common)
    p.add_argument("--k", type=int, default=1000, help="number of samples (per run for bench)")
    p.add_argument("--rho-min", type=float, default=None, help="lower bound, m (default -d*pi)")
    p.add_argument("--rho-max", type=float, default=None, help="upper bound, m (default d*pi)")
    p.add_argument("--rounding-eps", type=float, default=1e-5, help="method (a) sum granularity, m")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="clarkekin",
        allow_abbrev=False,
        description="Clarke-transform toolkit for displacement-actuated continuum robots",
    )
    parser.add_argument("--version", action="version", version=f"clarkekin {__version__}")
    # Flags and config keys are matched whole: argparse would take a prefix, --k for --kp.
    whole = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=whole)

    p = sub.add_parser("matrix", help="print the transform matrix pair for n joints")
    _add_common(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("transform", help="apply the transform or its inverse to a vector")
    _add_common(p, "format")
    p.add_argument("--rho", help="comma-separated displacements, forward direction")
    p.add_argument("--xi", help="comma-separated Clarke pair, inverse direction")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("fk", help="forward kinematics from displacements")
    _add_common(p, "d", "l", "format", fmt=None)
    p.add_argument("--rho", help="comma-separated displacements")
    p.add_argument("--in", dest="infile", help="batch CSV: header rho_1..rho_n, one displacement row per line")
    p.set_defaults(func=cmd_fk)

    p = sub.add_parser("ik", help="inverse kinematics to a position, rotation or pose")
    _add_common(p, "d", "l", "format", fmt=None)
    p.add_argument("--position", help="px,py,pz")
    p.add_argument("--rotation", help="9 row-major rotation entries")
    p.add_argument("--pose", help="9 rotation entries followed by px,py,pz")
    p.add_argument("--in", dest="infile", help="batch CSV: header r11..r33,px,py,pz (poses) or px,py,pz (positions)")
    p.set_defaults(func=cmd_ik)

    p = sub.add_parser("sample", help="draw displacement samples with one method")
    _add_sampler_flags(p)
    p.add_argument("--method", choices=ALL_METHODS, default="e")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("bench", help="time the sampling methods and emit stats/histograms")
    _add_sampler_flags(p, "format", seed="base PRNG seed; each run samples on a seed spawned from it")
    p.add_argument("--methods", default=",".join(ALL_METHODS), help="comma list from a,b,c,d,e")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--hist-dir", default=None, help="write per-joint histogram CSVs here")
    p.add_argument("--vectorized", action="store_true", help="time c/d/e through the batched kernel; a and b are unchanged")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("simulate", help="closed-loop displacement control simulation")
    _add_common(p, "d", "l", "seed", "format", n=5)
    p.add_argument("--kp", type=float, default=125.0, help="proportional gain")
    p.add_argument("--dt", type=float, default=1e-3, help="sample time, s")
    p.add_argument("--tau", type=float, default=0.25, help="actuator time constant, s")
    p.add_argument("--noise", type=float, default=2.5e-3, help="measurement noise half-width, m")
    p.add_argument("--v-max", type=float, default=0.01 * np.pi, help="Clarke speed limit, m/s")
    p.add_argument("--a-max", type=float, default=0.1 * np.pi, help="acceleration limit, m/s^2")
    p.add_argument("--d-max", type=float, default=0.1 * np.pi, help="deceleration limit, m/s^2")
    p.add_argument("--waypoints", default=None, help="re1,im1,re2,im2,... (default: 5 seeded draws)")
    p.add_argument("--pure-p", action="store_true", help="drop the reference feedforward term")
    p.add_argument("--trace-out", default=None, help="write the closed-loop trace here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("noise-report", help="single-joint error spread over the manifold")
    _add_common(p)
    p.add_argument("--sigma", type=float, default=1.0, help="error size on the faulty joint, m")
    p.add_argument("--joint", type=int, default=0, help="zero-based faulty joint index")
    p.set_defaults(func=cmd_noise_report)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's tokens go right after the subcommand, so a flag on
            # the command line comes later and wins: argparse keeps the last.
            at = argv.index(args.command) + 1
            path, lines = args.config, _config_tokens(args.config, args)
            args, unknown = parser.parse_known_args(argv[:at] + [token for _, _, token in lines] + argv[at:])
            for lineno, key, token in lines:
                if token in unknown:
                    raise UsageError(f"{path}:{lineno}: {key} is not an option of {args.command}")
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
