"""Measurement loop: rounds, host scaling, metrics and the result line.

Imported by run.py after it has pinned BLAS to one thread and put src/ on
the import path.

Host scaling. On a shared machine the same code runs in fast and slow
phases (about 1.8x apart) that last from under a second to over a minute,
longer than a run. Every timed call is therefore bracketed by a fixed
calibration kernel (host.probe_us) and its time is scaled by
PROBE_REF_US / probe, which states it at the speed the kernel has in the
fast phase of the reference machine. The kernel calls no library code, so
a change to the library moves the scaled figures as it moves the raw
ones; the report carries the raw figures too.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import host
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent

# host.probe_us in the fast phase of the reference machine: Intel Xeon,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6.
PROBE_REF_US = 220.0
SETUP_REPEATS = 7

# Layers each workload exercises (README.md, per-layer table); a traced run in
# which one of them records no call fails.
SERVES = {
    "kin-batch": (
        "cli.main", "kinematics.fk_direct", "kinematics.ik", "kinematics.Pose",
        "clarke.build_transform", "clarke.as_displacement", "arcspace",
    ),
    "sampler": ("cli.main", "sampling.a", "sampling.b", "sampling.direct", "sampling.batched", "sampling.benchmark"),
    "control-sim": (
        "cli.main", "clarke.build_transform", "clarke.as_displacement", "clarke.as_clarke", "arcspace",
        "sampling.batched", "control.controller_step", "control.plant_step", "control.run_simulation",
        "control.generate_trajectory", "control.save_trace_csv",
    ),
    "realtime-loop": (
        "kinematics.fk_direct", "kinematics.Pose", "clarke.build_transform", "clarke.as_displacement",
        "clarke.as_clarke", "control.controller_step", "control.plant_step",
    ),
}
# Health gauges and their units; a gauge that does not apply reads 0.
HEALTH = {
    "health.roundtrip_err_max": "m",
    "health.manifold_residual_max": "m",
    "health.rotation_orth_err_max": "1",
    "health.plant_nullspace_max": "m",
}
SAMPLERS = ("a", "b", "direct", "batched")


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def scaled(call) -> float:
    """Seconds of a call at the reference host speed."""
    return call.seconds * PROBE_REF_US / call.probe_us


def end_to_end(wl, rounds, setup, rss_mb) -> tuple[dict, dict]:
    """The gated metrics and the per-phase figures behind them."""
    # Per phase, the median over rounds of units over scaled seconds: a
    # median shrugs off the odd call whose host phase changed mid-call.
    rates, raw_rates = {}, {}
    for phase in wl.phases:
        per_round = [[c for c in r.calls if c.phase == phase] for r in rounds]
        rates[phase] = statistics.median(sum(c.units for c in cs) / sum(map(scaled, cs)) for cs in per_round)
        raw_rates[phase] = statistics.median(sum(c.units for c in cs) / sum(c.seconds for c in cs) for cs in per_round)
    if rounds[0].tick_ns is not None:
        ticks_us = np.concatenate([r.tick_ns / 1e3 * (PROBE_REF_US / r.tick_probe_us) for r in rounds])
        raw_us = np.concatenate([r.tick_ns / 1e3 for r in rounds])
        p50, p90 = quantile(ticks_us, 0.5), quantile(ticks_us, 0.9)
        extra = {
            "tick_samples": int(ticks_us.size),
            "tick_p99_us": quantile(ticks_us, 0.99),
            "raw_tick_p50_us": quantile(raw_us, 0.5),
            "raw_tick_p90_us": quantile(raw_us, 0.9),
            "raw_tick_p99_us": quantile(raw_us, 0.99),
        }
    else:
        # Time per unit of each exact call, one sample per round, and its
        # median over rounds. A run has too few rounds for a stable tail
        # per call, so the percentiles run over the calls of the mix: p50
        # is the geometric mean of the medians, so every call weighs alike,
        # and p90 the 90th percentile of the medians, the slow calls.
        groups = {}
        for c in (c for r in rounds for c in r.calls):
            groups.setdefault(c.group, []).append(scaled(c) / c.units * 1e6)
        medians = {g: quantile(v, 0.5) for g, v in groups.items()}
        p50, p90 = geomean(medians.values()), quantile(list(medians.values()), 0.9)
        extra = {"rounds_per_call": min(len(v) for v in groups.values()), "per_call_p50_us": medians}
    metrics = {
        "setup_s": (statistics.median(t * PROBE_REF_US / probe for t, probe in setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "throughput_per_s": (geomean(rates.values()), "1/s"),
        "op_p50_us": (p50, "us"),
        "op_p90_us": (p90, "us"),
    }
    detail = {
        "named": named_metrics(wl.name, rates, p50, p90, extra, rounds[0].counts),
        "phase_rates_per_s": rates,
        "raw_phase_rates_per_s": raw_rates,
        "raw_throughput_per_s": geomean(raw_rates.values()),
        "raw_setup_s": statistics.median(t for t, _ in setup),
        **extra,
    }
    return metrics, detail


def named_metrics(workload, rates, p50, p90, extra, counts) -> dict:
    """The workload's own figures under the names users know them by."""
    if workload == "kin-batch":
        named = {"fk_rows_per_s": (rates["fk"], "1/s"), "ik_rows_per_s": (rates["ik"], "1/s")}
    elif workload == "sampler":
        named = {}
        for phase, rate in rates.items():
            draws = sum(v for k, v in counts.items() if k.startswith(f"iterations.{phase}."))
            named[f"samples_per_s.{phase}"] = (rate * counts[f"samples.{phase}"] / draws, "1/s")
    elif workload == "control-sim":
        named = {"sim_ticks_per_s": (rates["sim"], "1/s")}
    else:
        named = {"tick_p50_us": (p50, "us"), "tick_p90_us": (p90, "us"), "tick_p99_us": (extra["tick_p99_us"], "us")}
    return {name: {"value": value, "unit": unit} for name, (value, unit) in named.items()}


def per_layer(wl, traced, untraced, counts) -> tuple[dict, list]:
    """Per-round layer metrics from the traced rounds, and any failures.

    traced holds (scaled seconds, scale, fold) per traced round; calls and
    counters come from the first, self times are medians over all.
    """
    failures = []
    first = traced[0][2]
    calls = {label: v["calls"] for label, v in first["layers"].items()}
    for _, _, fold in traced[1:]:
        if {label: v["calls"] for label, v in fold["layers"].items()} != calls or fold["counters"] != first["counters"]:
            failures.append("traced call counts differ between rounds of one seed")
            break
    failures += [f"{label} recorded no call on {wl.name}" for label in SERVES[wl.name] if calls[label] == 0]

    def self_s(label):
        return statistics.median(fold["layers"][label]["self_ns"] / 1e9 * scale for _, scale, fold in traced)

    m = {}
    for label in tracer.LABELS:
        if not label.startswith("sampling."):
            m[f"{label}.calls"] = (calls[label], "count")
            m[f"{label}.self_s"] = (self_s(label), "s")
    counters = first["counters"]
    for name in SAMPLERS:
        iterations = counters.get(f"sampling.{name}.iterations", 0)
        accepted = counters.get(f"sampling.{name}.accepted", 0)
        m[f"sampling.{name}.self_s"] = (self_s(f"sampling.{name}"), "s")
        m[f"sampling.{name}.iterations"] = (iterations, "count")
        m[f"sampling.{name}.accept_ratio"] = (accepted / iterations if iterations else 0.0, "ratio")
    m["sampling.benchmark.self_s"] = (self_s("sampling.benchmark"), "s")
    m["control.ticks"] = (counters.get("control.ticks", 0), "count")
    m["cli.bytes_in"] = (counts.get("cli.bytes_in", 0), "B")
    m["cli.bytes_out"] = (counts.get("cli.bytes_out", 0), "B")
    traced_s = statistics.median(seconds for seconds, _, _ in traced)
    m["tracing.overhead_ratio"] = (traced_s / statistics.median(untraced), "ratio")
    return m, failures


def run(args) -> int:
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, workdir) -> int:
    calib_before = host.calibration_us()
    setup = [] if args.trace else host.setup_seconds(ROOT, SETUP_REPEATS)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    rounds = [wl.run_round()]  # warm-up: fills caches, checked but not timed
    # The program's peak: set-up, inputs and one round. Later rounds repeat
    # that work; only the benchmark's own records of them grow.
    rss_mb = host.peak_rss_mb()
    tr = tracer.Tracer() if args.trace else None
    traced, untraced = [], []
    deadline = time.perf_counter() + args.seconds
    # Traced and untraced rounds alternate, so both see the same host phases.
    while time.perf_counter() < deadline or (tr and not traced):
        if tr and len(untraced) > len(traced):
            tr.install()
            try:
                rnd = wl.run_round()
            finally:
                tr.uninstall()
            scale = statistics.median(PROBE_REF_US / c.probe_us for c in rnd.calls)
            traced.append((sum(map(scaled, rnd.calls)), scale, tr.fold()))
        else:
            rnd = wl.run_round()
            untraced.append(sum(map(scaled, rnd.calls)))
        rounds.append(rnd)
    calib_after = host.calibration_us()

    checks = [c for r in rounds for c in r.checks]
    reference = rounds[0].counts
    for i, r in enumerate(rounds[1:], start=1):
        checks.append((f"round {i}: counts equal round 0", r.counts == reference, ""))
    health = {name: max(r.health.get(name, 0.0) for r in rounds) for name in HEALTH}
    probes = [c.probe_us for r in rounds for c in r.calls]
    report = {
        "workload": wl.name,
        "metadata": host.metadata(ROOT, args.seed),
        "rounds": len(rounds) - 1,
        "counts_per_round": reference,
        "health": health,
        "host": {"calib_before_us": calib_before, "calib_after_us": calib_after, "probe_median_us": statistics.median(probes), "probe_ref_us": PROBE_REF_US},
        "wait_s": 0.0,
        "wait_note": "one thread, no queue: no layer waits",
    }
    if args.trace:
        metrics, failures = per_layer(wl, traced, untraced, reference)
        checks += [(failure, False, "trace") for failure in failures]
        metrics.update({name: (value, HEALTH[name]) for name, value in health.items()})
        metrics["host.calib_us"] = (statistics.median(probes), "us")
    else:
        metrics, report["detail"] = end_to_end(wl, rounds[1:], setup, rss_mb)
    failed = [c for c in checks if not c[1]]
    report["failed_checks"] = [f"{name}: {detail}" for name, _, detail in failed[:20]]
    print(json.dumps(report, default=float))
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1
