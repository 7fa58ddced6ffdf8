#!/usr/bin/env python3
"""clarkekin benchmark: four workloads through the CLI and the public API.

    python3 perfbench/run.py --workload kin-batch --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Workloads (see workloads.py): ``kin-batch``, ``sampler``,
``control-sim``, ``realtime-loop``. Every input is generated from --seed.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced rounds and reports the per-layer metrics
(calls and self time per round, sampler work, bytes, health gauges) and
the tracing overhead. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with run metadata, the per-phase figures behind each metric, raw
(unscaled) timings, health gauges and the host probe. The exit code is 0
only when every output check passed, 2 when the sources are missing.
See README.md for the metrics and the host scaling.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("kin-batch", "sampler", "control-sim", "realtime-loop")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time after set-up and warm-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "clarkekin" / "__init__.py").is_file():
        sys.stderr.write(f"error: no clarkekin sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    # Pin BLAS to one thread before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    return measure.run(args)


if __name__ == "__main__":
    sys.exit(main())
