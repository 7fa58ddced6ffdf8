"""Host-side measurements: set-up time, calibration probe, memory, metadata."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# What a user's first command pays before any work: a fresh interpreter,
# the CLI import (numpy included) and the first transform-cache fill. The
# child then reports when that was done and probes the CPU it ran on.
_SETUP_CODE = """\
import time
import clarkekin.cli
from clarkekin.clarke import build_transform
build_transform(5)
done = time.perf_counter()
import host
print(done, host.probe_us())
"""


def setup_seconds(root: Path, repeats: int) -> list[tuple[float, float]]:
    """(seconds, probe_us) of `repeats` fresh set-ups.

    The time runs from starting the child to the child's own clock reading
    after its set-up (perf_counter is system-wide on Linux), and the probe
    is the child's, taken right after on whichever CPU it ran. One
    unmeasured start first compiles the bytecode caches, which a user pays
    once per install, not once per command.
    """
    # The child inherits the BLAS thread pins that run.py set.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(Path(__file__).resolve().parent)])}
    cmd = [sys.executable, "-c", _SETUP_CODE]
    out = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        if proc.returncode:
            raise RuntimeError(f"set-up interpreter exited with {proc.returncode}")
        done, probe = (float(v) for v in proc.stdout.split())
        if i:
            out.append((done - t0, probe))
    return out


@dataclass(frozen=True)
class _Box:
    value: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.value)):
            raise ValueError("non-finite")


_PROBE_MATRIX = np.cos(np.arange(10.0)).reshape(2, 5)


def _kernel_us() -> float:
    m = _PROBE_MATRIX
    t0 = time.perf_counter_ns()
    x = np.zeros(5)
    for i in range(10):
        y = m @ (x + 0.001 * i)
        r = math.hypot(y[0], y[1]) + 1e-12
        z = np.array([[y[0] / r, -y[1] / r, 0.0], [y[1] / r, y[0] / r, 0.0], [0.0, 0.0, 1.0]])
        _Box(z @ z.T)
        x = m.T @ y * 0.5
        line = ",".join(format(float(v), ".17g") for v in z.ravel())
        x[0] += sum(float(v) for v in line.split(",")) * 1e-9
    return (time.perf_counter_ns() - t0) / 1e3


def probe_us(runs: int = 5) -> float:
    """Median time of `runs` runs of a fixed calibration kernel, in us.

    The kernel mixes what the library and its CLI spend their time on
    (small numpy products, scalar math, array construction, a validating
    frozen dataclass, float formatting and parsing) but calls no library
    code, so it moves only with the host. On shared machines the same code
    runs in faster and slower phases that last from under a second to over
    a minute; the kernel slows with them.
    """
    return statistics.median(_kernel_us() for _ in range(runs))


def calibration_us(repeats: int = 5) -> float:
    """Median of `repeats` probe_us calls: the host.calib_us gauge."""
    return statistics.median(probe_us() for _ in range(repeats))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _revision(root: Path) -> dict:
    """Git commit when the checkout has one, and always a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    out = {"src_sha256": digest.hexdigest()[:16], "commit": None}
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            out["commit"] = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            out["commit"] = ref
    return out


def metadata(root: Path, seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        **_revision(root),
    }
