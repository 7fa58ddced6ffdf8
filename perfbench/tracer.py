"""In-memory span tracer that wraps clarkekin's public functions from outside.

Each traced function is replaced, in every module namespace that holds it
(``clarkekin.cli.fk_direct`` as well as ``clarkekin.kinematics.fk_direct``
and the package re-export), by a wrapper that records one span: label,
start, end and the index of the enclosing span. Classes are traced through
their ``__init__``. Spans stay in memory until ``fold`` turns them into
per-label call counts and self time (span duration minus the time covered
by its direct child spans) and clears them.

The library runs on one thread with no queue, so no span ever waits.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# label, module, attribute. Several attributes may share one label; the
# arcspace layer is traced as a whole.
TARGETS = (
    ("cli.main", "clarkekin.cli", "main"),
    ("kinematics.fk_direct", "clarkekin.kinematics", "fk_direct"),
    ("kinematics.ik", "clarkekin.kinematics", "ik"),
    ("kinematics.Pose", "clarkekin.kinematics", "Pose"),
    ("clarke.build_transform", "clarkekin.clarke", "build_transform"),
    ("clarke.as_displacement", "clarkekin.clarke", "as_displacement"),
    ("clarke.as_clarke", "clarkekin.clarke", "as_clarke"),
    ("arcspace", "clarkekin.arcspace", "AngleAngle"),
    ("arcspace", "clarkekin.arcspace", "CurvatureAngle"),
    ("arcspace", "clarkekin.arcspace", "CurvatureCurvature"),
    ("arcspace", "clarkekin.arcspace", "SegmentGeometry"),
    ("arcspace", "clarkekin.arcspace", "ccr_to_car"),
    ("arcspace", "clarkekin.arcspace", "car_to_ccr"),
    ("arcspace", "clarkekin.arcspace", "car_to_aar"),
    ("arcspace", "clarkekin.arcspace", "aar_to_car"),
    ("arcspace", "clarkekin.arcspace", "_as_car"),
    ("arcspace", "clarkekin.arcspace", "clarke_from_arc"),
    ("arcspace", "clarkekin.arcspace", "arc_from_clarke"),
    ("arcspace", "clarkekin.arcspace", "virtual_displacement"),
    ("sampling.a", "clarkekin.sampling", "sample_rejection_independent"),
    ("sampling.b", "clarkekin.sampling", "sample_rejection_resolved"),
    ("sampling.direct", "clarkekin.sampling", "sample_direct"),
    ("sampling.batched", "clarkekin.sampling", "sample_direct_batched"),
    ("sampling.benchmark", "clarkekin.sampling", "benchmark"),
    ("control.controller_step", "clarkekin.control", "controller_step"),
    ("control.plant_step", "clarkekin.control", "plant_step"),
    ("control.run_simulation", "clarkekin.control", "run_simulation"),
    ("control.generate_trajectory", "clarkekin.control", "generate_trajectory"),
    ("control.save_trace_csv", "clarkekin.control", "save_trace_csv"),
)


def _sampler_counts(result):
    # (SampleBatch, SamplingStats) from the per-method samplers, a bare
    # SampleBatch from the batched one.
    if isinstance(result, tuple):
        batch, stats = result
        return stats.iterations, batch.columns.shape[1]
    k = result.columns.shape[1]
    return k, k


# Labels whose return value carries a count: label -> (counter names, fn).
COUNTERS = {
    "sampling.a": (("sampling.a.iterations", "sampling.a.accepted"), _sampler_counts),
    "sampling.b": (("sampling.b.iterations", "sampling.b.accepted"), _sampler_counts),
    "sampling.direct": (("sampling.direct.iterations", "sampling.direct.accepted"), _sampler_counts),
    "sampling.batched": (("sampling.batched.iterations", "sampling.batched.accepted"), _sampler_counts),
    "control.run_simulation": (("control.ticks",), lambda trace: (len(trace.time),)),
}

LABELS = tuple(dict.fromkeys(label for label, _, _ in TARGETS))


@dataclass
class Tracer:
    """Records spans while installed; ``fold`` aggregates and clears them."""

    spans: list = field(default_factory=list)  # [label, start_ns, end_ns, parent]
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def _wrap_function(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for name, value in zip(counter[0], counter[1](result)):
                    self.counters[name] = self.counters.get(name, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; raises if one is missing from the library."""
        modules = [m for name, m in list(sys.modules.items()) if name == "clarkekin" or name.startswith("clarkekin.")]
        for label, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise LookupError(f"traced function {module_name}.{attr} does not exist")
            original = getattr(module, attr)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._undo.append((original, "__init__", init))
                setattr(original, "__init__", self._wrap_function(label, init))
                continue
            wrapped = self._wrap_function(label, original)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, name, original))
                        setattr(holder, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            holder, name, original = self._undo.pop()
            setattr(holder, name, original)

    def fold(self) -> dict:
        """Per-label {calls, self_ns} of the recorded spans; clears them."""
        out = {label: {"calls": 0, "self_ns": 0} for label in LABELS}
        child_ns = [0] * len(self.spans)
        # Children always come after their parent, so one reverse pass has
        # every child's duration summed before its parent is reached.
        for i in range(len(self.spans) - 1, -1, -1):
            label, start, end, parent = self.spans[i]
            duration = end - start
            entry = out[label]
            entry["calls"] += 1
            entry["self_ns"] += duration - child_ns[i]
            if parent >= 0:
                child_ns[parent] += duration
        self.spans.clear()
        counters, self.counters = self.counters, {}
        return {"layers": out, "counters": counters}

