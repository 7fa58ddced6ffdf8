"""One builder: clarke._built is the only code in src/ that makes a value without running its type's __init__.

A value the library computed from checked inputs (a stepped plant, a
sampler's batch, a simulation trace) is built by `_built`: no check, no
copy, its arrays frozen in place by the caller. The guard reads src/ and
fails on any `__new__` or `__dict__` reference outside `_built`, and on any
assignment to `__class__` outside `kinematics._BuiltPose`, which runs
`Pose.__init__` so that the benchmark's `kinematics.Pose` counter sees every
pose the library builds.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import clarkekin
from clarkekin import (
    ControllerConfig,
    JointLayout,
    NoiseModel,
    PT1Plant,
    SamplerConfig,
    SegmentGeometry,
    SimTrace,
    TrajectorySpec,
    generate_trajectory,
    plant_step,
    run_simulation,
    sample,
)
from clarkekin.clarke import _built, _readonly

# The one place each kind of reach past __init__ may stand: (module, enclosing Class.function).
ALLOWED = {"past __init__": ("clarke.py", "_built"), "__class__ assigned": ("kinematics.py", "_BuiltPose.__post_init__")}


def _kind(node) -> str | None:
    """"past __init__" for x.__new__ or x.__dict__, "__class__ assigned" for x.__class__ = ... or a
    setattr(x, "__class__", ...) / object.__setattr__(x, "__class__", ...) call, else None."""
    if isinstance(node, ast.Attribute) and node.attr in ("__new__", "__dict__"):
        return "past __init__"
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if any(isinstance(t, ast.Attribute) and t.attr == "__class__" for t in targets):
            return "__class__ assigned"
    if isinstance(node, ast.Call) and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
        setter = getattr(node.func, "id", None) == "setattr" or getattr(node.func, "attr", None) == "__setattr__"
        if setter and node.args[1].value == "__class__":
            return "__class__ assigned"
    return None


def reaches(tree) -> list[tuple[int, str, str, str]]:
    """(line, enclosing Class.function, kind, source) of each reach past __init__ and __class__ assignment in tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            kind = _kind(child)
            if kind:
                found.append((child.lineno, scope, kind, ast.unparse(child)))
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_only_built_makes_a_value_past_init():
    modules = sorted(Path(clarkekin.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    found = {}
    for module in modules:
        for line, scope, kind, source in reaches(ast.parse(module.read_text(), str(module))):
            found.setdefault((kind, module.name, scope), []).append(f"{module.name}:{line} in {scope}: {source}")
    stray = [site for (kind, *where), sites in found.items() if tuple(where) != ALLOWED[kind] for site in sites]
    assert not stray, "values made past __init__ outside clarke._built and kinematics._BuiltPose:\n" + "\n".join(stray)
    assert set(found) == {(kind, *where) for kind, where in ALLOWED.items()}


@pytest.mark.parametrize(
    "code, kinds",
    [
        ("plant = object.__new__(PT1Plant)", ["past __init__"]),
        ("new = object.__new__", ["past __init__"]),
        ("batch = SampleBatch.__new__(SampleBatch)", ["past __init__"]),
        ("value.__dict__.update(fields)", ["past __init__"]),
        ("vars(value)", []),
        ("self.__class__ = Pose", ["__class__ assigned"]),
        ("object.__setattr__(self, '__class__', Pose)", ["__class__ assigned"]),
        ("setattr(self, '__class__', Pose)", ["__class__ assigned"]),
        ("object.__setattr__(self, 'state', state)", []),
        ("cls = self.__class__", []),
        ("_built(PT1Plant, tau=tau, state=state)", []),
        ("PT1Plant(tau, state)", []),
    ],
)
def test_the_guard_sees_every_form(code, kinds):
    assert [kind for _, _, kind, _ in reaches(ast.parse(code))] == kinds


def test_the_guard_names_the_enclosing_function():
    code = "class P:\n    def __post_init__(self):\n        object.__setattr__(self, '__class__', Q)\nv = object.__new__(P)"
    found = [
        (3, "P.__post_init__", "__class__ assigned", "object.__setattr__(self, '__class__', Q)"),
        (4, "<module>", "past __init__", "object.__new__"),
    ]
    assert reaches(ast.parse(code)) == found


def test_built_runs_no_check_and_copies_nothing():
    state = _readonly(np.zeros(3))
    plant = _built(PT1Plant, tau=-1.0, state=state)  # a tau PT1Plant.__init__ refuses
    assert type(plant) is PT1Plant and plant.tau == -1.0 and plant.state is state
    with pytest.raises(dataclasses.FrozenInstanceError):
        plant.tau = 0.25
    with pytest.raises(ValueError, match="^time constant tau must be finite and positive"):
        dataclasses.replace(plant)  # a copy is a caller's value, checked
    copied = dataclasses.replace(plant, tau=0.25)
    assert np.array_equal(copied.state, state) and not np.shares_memory(copied.state, state)


def _frozen_for_good(a: np.ndarray) -> bool:
    # Read-only, and no write flag can be set again: its owner is frozen too.
    if a.flags.writeable:
        return False
    try:
        a.view().setflags(write=True)
    except ValueError:
        return True
    return False


@pytest.fixture
def loop():
    geom = SegmentGeometry(JointLayout(n=5, d=0.01), l=0.1)
    cfg = ControllerConfig(kp=125.0, dt=1e-3, geometry=geom)
    spec = TrajectorySpec((np.zeros(2), np.array([2e-3, 1e-3])), 0.01, 0.1, 0.1)
    return cfg, generate_trajectory(geom.layout, spec, cfg.dt)


@pytest.mark.parametrize("closed_loop", [True, False])
def test_a_run_holds_one_copy_of_the_trajectory_and_its_own_arrays(loop, closed_loop):
    cfg, trajectory = loop
    assert trajectory.flags.writeable
    trace = run_simulation(cfg, PT1Plant(0.25, np.zeros(5)), NoiseModel(1e-4, seed=3), trajectory, closed_loop)
    held = [getattr(trace, f.name) for f in dataclasses.fields(trace)]
    assert all(_frozen_for_good(a) for a in held)
    assert not any(np.shares_memory(a, trajectory) for a in held)
    assert np.array_equal(trace.rho_desired, trajectory)
    # The open loop's command is the trajectory's one copy, not a second one.
    assert np.shares_memory(trace.rho_command, trace.rho_desired) == (not closed_loop)
    assert type(trace) is SimTrace and trace.rho_plant.shape == trajectory.shape


def test_a_zero_tick_run_and_a_stepped_plant_hold_arrays_frozen_for_good():
    geom = SegmentGeometry(JointLayout(n=5, d=0.01), l=0.1)
    cfg = ControllerConfig(kp=125.0, dt=1e-3, geometry=geom)
    plant = PT1Plant(0.25, np.arange(5.0))
    trace = run_simulation(cfg, plant, NoiseModel(0.0), np.empty((5, 0)))
    assert all(_frozen_for_good(getattr(trace, f.name)) for f in dataclasses.fields(trace))
    stepped = plant_step(plant, np.zeros(5), 1e-3)
    assert type(stepped) is PT1Plant and _frozen_for_good(stepped.state)
    batch, _ = sample(SamplerConfig(JointLayout(n=3, d=1e-3), rho_min=-1e-3, rho_max=1e-3), 4, "a")
    assert _frozen_for_good(batch.columns) and batch.method == "a"
