"""The functions the benchmark tracer wraps exist in the library.

perfbench/tracer.py names (label, module, attribute) targets and fails a
traced run if one is missing; this test fails first, in the unit suite,
when a target is deleted or renamed.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from clarkekin import JointLayout, SegmentGeometry

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    # Read the TARGETS literal from the source; nothing of perfbench runs.
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACER} has no TARGETS")


TARGETS = _targets()


@pytest.mark.parametrize("label, module_name, attr", TARGETS, ids=[f"{m}.{a}" for _, m, a in TARGETS])
def test_traced_target_exists(label, module_name, attr):
    module = importlib.import_module(module_name)
    assert hasattr(module, attr), f"{label}: {module_name}.{attr} does not exist"
    target = getattr(module, attr)
    if isinstance(target, type):
        # The tracer wraps a class through the __init__ in its own __dict__.
        assert "__init__" in vars(target), f"{module_name}.{attr} defines no __init__ of its own"
    else:
        assert callable(target)


MEASURE = TRACER.parent / "measure.py"


def _serves():
    # Read the SERVES literal from the source, as _targets reads TARGETS.
    for node in ast.parse(MEASURE.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SERVES"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{MEASURE} has no SERVES")


def _recorded_calls(monkeypatch, run):
    """Per-label call counts of what run() calls with the tracer installed.

    The tracer swaps the module attributes that hold each target, so a
    dispatch that bypasses those names, or a class built without its
    traced __init__, would leave a label without calls. run looks the
    library's functions up on their modules after installation."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    # Its dataclass looks its module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)
    spec.loader.exec_module(tracer_module)
    importlib.import_module("clarkekin.cli")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        run()
        layers = tracer.fold()["layers"]
    finally:
        tracer.uninstall()
    return {label: entry["calls"] for label, entry in layers.items()}


def _assert_serves(workload, calls):
    missing = [label for label in _serves()[workload] if calls[label] == 0]
    assert not missing, f"no traced call on {missing}"


def test_sampler_bench_calls_reach_every_traced_sampler(tmp_path, monkeypatch):
    def run():
        cli = importlib.import_module("clarkekin.cli")
        bench = ["bench", "--k", "5", "--runs", "1", "--out", str(tmp_path / "stats.json")]
        assert cli.main(bench + ["--methods", "a,b,c,d,e"]) == 0
        assert cli.main(bench + ["--methods", "c,d,e", "--vectorized"]) == 0

    _assert_serves("sampler", _recorded_calls(monkeypatch, run))


def test_realtime_tick_calls_reach_every_traced_layer(monkeypatch):
    # One tick of the realtime loop at n = 5: controller_step, plant_step,
    # then fk_direct, whose Pose the tracer counts through Pose.__init__.
    def run():
        control = importlib.import_module("clarkekin.control")
        kinematics = importlib.import_module("clarkekin.kinematics")
        geom = SegmentGeometry(layout=JointLayout(n=5, d=0.01), l=0.1)
        cfg = control.ControllerConfig(kp=125.0, dt=1e-3, geometry=geom)
        plant = control.PT1Plant(tau=0.25, state=np.zeros(5))
        command = control.controller_step(cfg, [0.01, 0.005], plant.state)
        plant = control.plant_step(plant, command, 1e-3)
        kinematics.fk_direct(geom, plant.state)

    _assert_serves("realtime-loop", _recorded_calls(monkeypatch, run))


def test_kin_batch_calls_reach_every_traced_layer(tmp_path, monkeypatch):
    # A few rows through fk --in, then ik --in on the pose rows and on
    # their position rows, as the kin-batch workload runs them.
    rho = tmp_path / "rho.csv"
    rho.write_text("rho_1,rho_2,rho_3\n0,0,0\n0.01,-0.005,-0.005\n-0.002,0.003,-0.001\n")
    poses, positions = tmp_path / "pose.csv", tmp_path / "pos.csv"

    def run():
        cli = importlib.import_module("clarkekin.cli")
        geom = ["--n", "3", "--d", "0.01", "--l", "0.1"]
        assert cli.main(["fk", *geom, "--in", str(rho), "--out", str(poses)]) == 0
        header, *rows = poses.read_text().splitlines()
        positions.write_text("\n".join(",".join(line.split(",")[9:]) for line in [header, *rows]) + "\n")
        for src in (poses, positions):
            assert cli.main(["ik", *geom, "--in", str(src), "--out", str(tmp_path / f"ik_{src.name}")]) == 0

    _assert_serves("kin-batch", _recorded_calls(monkeypatch, run))
