"""A checked displacement column is listed once, by the check, and handed on as its Python floats.

clarke.as_displacement lists one column to sum its entries and returns that
list; inside the library the column stays floats until a public function
returns it. The counts are the `tolist` calls sys.setprofile sees for one
n = 5 call, after a first call has filled build_transform's cache:

- controller_step: the Clarke pair's (as_clarke) and the measurement's;
- plant_step: the plant state's and the command's;
- fk_direct and transform: the column's alone.

No product on the realtime tick (controller_step, plant_step, fk_direct, as
perfbench's realtime-loop calls them) gets a 1-D array: clarke._product
reads one column as Python floats, and a 1-D array of np.float64 gives the
same bits, only slower.
"""

import sys
from unittest import mock

import numpy as np
import pytest

from clarkekin import (
    ControllerConfig, JointLayout, PT1Plant, SegmentGeometry, build_transform, clarke, control, controller_step,
    fk_direct, kinematics, plant_step, transform,
)

GEOM = SegmentGeometry(layout=JointLayout(n=5, d=0.01), l=0.1)
CFG = ControllerConfig(kp=125.0, dt=1e-3, geometry=GEOM)
XI = np.array([0.004, -0.002])
RHO = np.array([0.0012, -0.0031, 0.0007, 0.0025, -0.0013])
PLANT = PT1Plant(tau=0.25, state=RHO)

CALLS = {
    "controller_step": (lambda: controller_step(CFG, XI, RHO + 1e-4), 2),
    "plant_step": (lambda: plant_step(PLANT, RHO, 1e-3), 2),
    "fk_direct": (lambda: fk_direct(GEOM, RHO), 1),
    "transform": (lambda: transform(build_transform(5), RHO), 1),
}


def listings(call) -> int:
    """The number of `tolist` calls that call() makes, counted by sys.setprofile."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and getattr(arg, "__name__", None) == "tolist":
            count += 1

    call()  # fills build_transform's cache, which lists each new matrix once
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("name", CALLS)
def test_one_listing_per_input(name):
    call, expected = CALLS[name]
    assert listings(call) == expected


def test_the_counter_sees_a_listing():
    assert listings(lambda: RHO.tolist()) == 1


def test_no_product_on_the_realtime_tick_gets_an_array_column():
    given = []

    def record(m, x):
        given.append(np.ndim(x) if isinstance(x, np.ndarray) else type(x).__name__)
        return product(m, x)

    product = clarke._product
    plant = PT1Plant(tau=0.25, state=np.zeros(5))
    with mock.patch.object(control, "_product", record), mock.patch.object(kinematics, "_product", record), \
            mock.patch.object(clarke, "_product", record):
        for _ in range(3):
            command = controller_step(CFG, XI, plant.state + 1e-4)
            plant = plant_step(plant, command, CFG.dt)
            fk_direct(GEOM, plant.state)
    # Per tick: the controller's two products, FK's one, each on a list or a tuple.
    assert given == ["list", "tuple", "list"] * 3
