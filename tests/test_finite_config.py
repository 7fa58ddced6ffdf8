"""Every configuration value rejects NaN and the infinities."""

import math

import numpy as np
import pytest

from clarkekin import (
    AngleAngle,
    ControllerConfig,
    CurvatureAngle,
    CurvatureCurvature,
    JointLayout,
    NoiseModel,
    PT1Plant,
    SamplerConfig,
    SegmentGeometry,
    TrajectorySpec,
)

LAYOUT = JointLayout(n=3, d=0.01)
GEOM = SegmentGeometry(layout=LAYOUT, l=0.1)
WAYPOINTS = (np.zeros(2), np.ones(2))

# field name -> constructor taking the value of that field, every other
# field valid.
FIELDS = {
    "JointLayout.d": lambda v: JointLayout(n=3, d=v),
    "SegmentGeometry.l": lambda v: SegmentGeometry(layout=LAYOUT, l=v),
    "ControllerConfig.kp": lambda v: ControllerConfig(kp=v, dt=1e-3, geometry=GEOM),
    "ControllerConfig.dt": lambda v: ControllerConfig(kp=1.0, dt=v, geometry=GEOM),
    "PT1Plant.tau": lambda v: PT1Plant(tau=v, state=np.zeros(3)),
    "NoiseModel.epsilon": lambda v: NoiseModel(epsilon=v),
    "NoiseModel.bias": lambda v: NoiseModel(epsilon=0.0, bias=v),
    "NoiseModel.quantum": lambda v: NoiseModel(epsilon=0.0, quantum=v),
    "SamplerConfig.rho_min": lambda v: SamplerConfig(layout=LAYOUT, rho_min=v, rho_max=0.01),
    "SamplerConfig.rho_max": lambda v: SamplerConfig(layout=LAYOUT, rho_min=-0.01, rho_max=v),
    "SamplerConfig.rounding_epsilon": lambda v: SamplerConfig(
        layout=LAYOUT, rho_min=-0.01, rho_max=0.01, rounding_epsilon=v
    ),
    "TrajectorySpec.v_max": lambda v: TrajectorySpec(WAYPOINTS, v_max=v, a_max=1.0, d_max=1.0),
    "TrajectorySpec.a_max": lambda v: TrajectorySpec(WAYPOINTS, v_max=1.0, a_max=v, d_max=1.0),
    "TrajectorySpec.d_max": lambda v: TrajectorySpec(WAYPOINTS, v_max=1.0, a_max=1.0, d_max=v),
    "CurvatureAngle.kappa": lambda v: CurvatureAngle(kappa=v, theta=0.0),
    "CurvatureAngle.theta": lambda v: CurvatureAngle(kappa=1.0, theta=v),
    "CurvatureCurvature.kappa_x": lambda v: CurvatureCurvature(kappa_x=v, kappa_y=0.0),
    "CurvatureCurvature.kappa_y": lambda v: CurvatureCurvature(kappa_x=0.0, kappa_y=v),
    "AngleAngle.phi": lambda v: AngleAngle(phi=v, theta=0.0),
    "AngleAngle.theta": lambda v: AngleAngle(phi=1.0, theta=v),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_non_finite_value_rejected(field, value):
    with pytest.raises(ValueError, match="finite"):
        FIELDS[field](value)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_finite_value_accepted(field):
    FIELDS[field](0.005)
