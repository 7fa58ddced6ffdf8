"""Public types own their arrays: each holds read-only float64 arrays that the caller's cannot change.

The value types take the arrays a caller passes through clarke._owned,
which always copies once into a frozen C-order float array: a read-only
array may still be written through its writeable owner, or through a
writeable view taken before it was frozen. What the library returns is
frozen by clarke._readonly.
"""

import dataclasses

import numpy as np
import pytest

from clarkekin import (
    ControllerConfig,
    JointLayout,
    NoiseModel,
    Pose,
    PT1Plant,
    SampleBatch,
    SamplerConfig,
    SegmentGeometry,
    SimTrace,
    TrajectorySpec,
    benchmark,
    generate_trajectory,
    noise_propagation,
    run_simulation,
    sample,
)
from clarkekin.clarke import _owned, _readonly


def test_owned_always_returns_a_new_frozen_copy():
    read_only = (_readonly(np.zeros((3, 4))[:, 1:3]), _readonly(np.arange(4.0)), _readonly(np.zeros(3, np.float32)))
    for given in ([[1, 2], [3, 4]], np.arange(4).reshape(2, 2), np.zeros((4, 3)).T, np.zeros(3)) + read_only:
        owned = _owned(given)
        assert owned is not given
        assert owned.dtype == np.float64 and owned.flags.c_contiguous and not owned.flags.writeable
        assert not np.shares_memory(owned, np.asarray(given))
        assert np.array_equal(owned, np.asarray(given))


def _aliased(owner: np.ndarray, form: str) -> tuple[np.ndarray, np.ndarray]:
    """(a read-only array to pass, a writeable array that writes into it)."""
    if form == "read-only view":
        return _readonly(owner[...]), owner
    writer = owner[...]  # a writeable view, taken before its owner is frozen
    return _readonly(owner), writer


_TICKS = np.arange(3) * 1e-3

# name: (the array to alias, the value built on it, the array the value holds for it)
_HOLDERS = {
    "pose rotation": (lambda: np.eye(3), lambda a: Pose(a, [0.0, 0.0, 0.1]), lambda v: v.rotation),
    "pose position": (lambda: np.array([0.0, 0.0, 0.1]), lambda a: Pose(np.eye(3), a), lambda v: v.position),
    "stack rotation": (lambda: np.tile(np.eye(3), (4, 1, 1)), lambda a: Pose(a, np.zeros((4, 3))), lambda v: v.rotation),
    "plant state": (lambda: np.zeros(5), lambda a: PT1Plant(0.25, a), lambda v: v.state),
    "trace time": (lambda: _TICKS.copy(), lambda a: SimTrace(a, *[np.zeros((5, 3))] * 4), lambda v: v.time),
    "trace rows": (lambda: np.zeros((5, 3)), lambda a: SimTrace(_TICKS, a, a, a, a), lambda v: v.rho_plant),
    "batch columns": (lambda: np.zeros((5, 7)), lambda a: SampleBatch(a, "e"), lambda v: v.columns),
    "spec waypoint": (
        lambda: np.array([1e-3, 0.0]),
        lambda a: TrajectorySpec((a, [0.0, 1e-3]), 1.0, 1.0, 1.0),
        lambda v: v.waypoints[0],
    ),
}


@pytest.mark.parametrize("form", ["read-only view", "frozen owner"])
@pytest.mark.parametrize("name", sorted(_HOLDERS))
def test_a_write_through_an_alias_changes_no_value(name, form):
    make, build, held = _HOLDERS[name]
    given, writer = _aliased(make(), form)
    assert not given.flags.writeable and writer.flags.writeable
    value = build(given)
    before = held(value).copy()
    writer[(0,) * writer.ndim] = 2.0
    assert given[(0,) * given.ndim] == 2.0  # the alias is real
    assert np.array_equal(held(value), before), name
    assert not np.shares_memory(held(value), given), name


def test_replace_copies_what_it_keeps():
    pose = Pose(np.eye(3), [0.0, 0.0, 0.1])
    moved = dataclasses.replace(pose, position=[0.0, 0.0, 0.2])
    assert np.array_equal(moved.rotation, pose.rotation) and not np.shares_memory(moved.rotation, pose.rotation)
    batch, _ = sample(SamplerConfig(JointLayout(n=3, d=1e-3), rho_min=-1e-3, rho_max=1e-3), 2, "c")
    renamed = dataclasses.replace(batch, method="d")
    assert np.array_equal(renamed.columns, batch.columns) and not np.shares_memory(renamed.columns, batch.columns)


def _held_arrays(value) -> list[np.ndarray]:
    # Every array a value type holds, in its fields or in a tuple field.
    arrays = []
    for f in dataclasses.fields(value):
        v = getattr(value, f.name)
        arrays.extend(v if isinstance(v, tuple) and v and isinstance(v[0], np.ndarray) else [v])
    return [a for a in arrays if isinstance(a, np.ndarray)]


def test_public_types_own_their_arrays():
    geom = SegmentGeometry(JointLayout(n=5, d=0.01), l=0.1)
    rotation, position = np.eye(3), np.array([0.0, 0.0, 0.1])
    rotations, positions = np.tile(rotation, (4, 1, 1)), np.tile(position, (4, 1))
    state = np.zeros(5)
    waypoint = np.array([1e-3, 0.0])
    time, rows = np.arange(3) * 1e-3, np.zeros((5, 3))
    columns = np.zeros((5, 7))
    built = {
        "pose": ((rotation, position), Pose(rotation, position)),
        "stack": ((rotations, positions), Pose(rotations, positions)),
        "plant": ((state,), PT1Plant(0.25, state)),
        "spec": ((waypoint,), TrajectorySpec((waypoint, [0.0, 1e-3]), 1.0, 1.0, 1.0)),
        "trace": ((time, rows), SimTrace(time, rows, rows, rows, rows)),
        "batch": ((columns,), SampleBatch(columns, "e")),
    }
    for name, (inputs, value) in built.items():
        held = _held_arrays(value)
        assert held, name
        for a in held:
            assert not a.flags.writeable, name
            assert a.dtype == np.float64, name
        for given in inputs:
            assert given.flags.writeable, name
            assert not any(np.shares_memory(given, a) for a in held), name
    waypoint[0] = 5.0
    assert built["spec"][1].waypoints[0][0] == 1e-3

    # What the library returns is frozen as well.
    cfg = ControllerConfig(kp=125.0, dt=1e-3, geometry=geom)
    spec = TrajectorySpec((np.zeros(2), np.array([1e-3, 0.0])), 0.01, 0.1, 0.1)
    trajectory = generate_trajectory(geom.layout, spec, cfg.dt)
    for closed_loop in (True, False):
        trace = run_simulation(cfg, PT1Plant(0.25, np.zeros(5)), NoiseModel(1e-4, seed=1), trajectory, closed_loop)
        assert all(not a.flags.writeable for a in _held_arrays(trace))
        assert not np.shares_memory(trace.rho_desired, trajectory)
    empty = run_simulation(cfg, PT1Plant(0.25, state), NoiseModel(0.0), np.empty((5, 0)))
    assert all(not a.flags.writeable for a in _held_arrays(empty))
    assert not noise_propagation(5, 1e-3, 2).spread.flags.writeable
    sampler = SamplerConfig(JointLayout(n=3, d=1e-3), rho_min=-1e-3, rho_max=1e-3)
    for result in benchmark(sampler, 20, methods=("c", "d"), runs=2):
        assert not result.bin_edges.flags.writeable and not result.histograms.flags.writeable

