"""Arc-space representations of a constant-curvature segment.

Four equivalent parameterizations are in use for a bent segment of fixed
length l: curvature-angle (kappa, theta), curvature-curvature
(kappa_x, kappa_y), angle-angle (phi, theta) with phi = kappa*l, and the
pair (kappa*cos(theta), kappa*sin(theta)) which is the curvature-curvature
form written out. Conversions route through the curvature-angle form.

Convention: kappa >= 0 with theta covering the full circle, and theta = 0
for a straight segment (kappa = 0).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .clarke import JointLayout, _angle, _in_float_range, as_clarke, check_finite


@dataclass(frozen=True)
class CurvatureAngle:
    """Curvature kappa (1/m, >= 0) and bending-plane angle theta (rad)."""

    kappa: float
    theta: float

    def __post_init__(self):
        check_finite("curvature", self.kappa, "non-negative")
        check_finite("bending-plane angle", self.theta, None)


@dataclass(frozen=True)
class CurvatureCurvature:
    """Cartesian curvature components (1/m), unconstrained sign."""

    kappa_x: float
    kappa_y: float

    def __post_init__(self):
        check_finite("kappa_x", self.kappa_x, None)
        check_finite("kappa_y", self.kappa_y, None)


@dataclass(frozen=True)
class AngleAngle:
    """Bending angle phi = kappa*l (rad, >= 0) and plane angle theta (rad)."""

    phi: float
    theta: float

    def __post_init__(self):
        check_finite("bending angle", self.phi, "non-negative")
        check_finite("bending-plane angle", self.theta, None)


@dataclass(frozen=True)
class SegmentGeometry:
    """Joint layout plus the constant segment length l (m).

    FK raises a smaller bend to l times the smallest normal float, so l is
    refused where that bend reaches FK's 1e-9 rad tolerance (l >= 4.49e298).
    """

    layout: JointLayout
    l: float

    def __post_init__(self):
        check_finite("segment length", self.l)
        if not self.l * sys.float_info.min < 1e-9:
            raise ValueError(
                f"segment length must be below {1e-9 / sys.float_info.min:.4g} m, "
                f"where FK's least bend reaches 1e-9 rad, got {self.l}"
            )


def ccr_to_car(cc: CurvatureCurvature) -> CurvatureAngle:
    """Curvature-curvature to curvature-angle, theta in (-pi, pi].

    (0, 0) maps to (0, 0), with either sign of zero: a straight segment
    carries theta = 0.
    """
    return CurvatureAngle(kappa=math.hypot(cc.kappa_x, cc.kappa_y), theta=_angle(cc.kappa_x, cc.kappa_y))


def car_to_ccr(ca: CurvatureAngle) -> CurvatureCurvature:
    """Curvature-angle to curvature-curvature: (kappa*cos, kappa*sin)."""
    return CurvatureCurvature(
        kappa_x=ca.kappa * math.cos(ca.theta),
        kappa_y=ca.kappa * math.sin(ca.theta),
    )


def car_to_aar(ca: CurvatureAngle, l: float) -> AngleAngle:
    """Curvature-angle to angle-angle via phi = kappa*l."""
    check_finite("segment length", l)
    return AngleAngle(phi=ca.kappa * l, theta=ca.theta)


def aar_to_car(aa: AngleAngle, l: float) -> CurvatureAngle:
    """Angle-angle to curvature-angle via kappa = phi/l."""
    check_finite("segment length", l)
    return CurvatureAngle(kappa=aa.phi / l, theta=aa.theta)


def _as_car(arc) -> CurvatureAngle:
    if isinstance(arc, CurvatureAngle):
        return arc
    if isinstance(arc, CurvatureCurvature):
        return ccr_to_car(arc)
    raise TypeError(f"expected CurvatureAngle or CurvatureCurvature, got {type(arc).__name__}")


def clarke_from_arc(geom: SegmentGeometry, arc) -> np.ndarray:
    """Clarke coordinates of a constant-curvature bend.

    rho_re = d*l*kappa*cos(theta) and rho_im = d*l*kappa*sin(theta); the
    magnitude of the pair is the virtual displacement d*l*kappa. Accepts
    either arc representation; refuses an arc whose pair overflows.
    """
    dl = geom.layout.d * geom.l
    if isinstance(arc, CurvatureCurvature):
        xi = np.array([dl * arc.kappa_x, dl * arc.kappa_y])
    else:
        ca = _as_car(arc)
        xi = np.array([dl * ca.kappa * math.cos(ca.theta), dl * ca.kappa * math.sin(ca.theta)])
    return _in_float_range(xi, "the Clarke coordinates of this arc")


def arc_from_clarke(geom: SegmentGeometry, xi) -> CurvatureAngle:
    """Arc parameters of the bend encoded by Clarke coordinates.

    kappa = |xi| / (d*l) and theta = atan2(rho_im, rho_re) in (-pi, pi];
    the origin, with either sign of zero, maps to the straight segment (0, 0).
    """
    re, im = as_clarke(xi)
    return CurvatureAngle(kappa=math.hypot(re, im) / (geom.layout.d * geom.l), theta=_angle(re, im))


def virtual_displacement(geom: SegmentGeometry, ca: CurvatureAngle) -> tuple[float, float, float]:
    """Virtual displacement of a bend and its two plane projections.

    Returns (total, proj_x, proj_y) in meters where total = d*l*kappa is the
    maximum displacement, lying in the bending plane, and the projections
    onto the xz- and yz-planes equal the Clarke coordinates. Always
    satisfies total^2 = proj_x^2 + proj_y^2. Refuses a bend whose total
    overflows; the projections never exceed it.
    """
    total = geom.layout.d * geom.l * ca.kappa
    if not math.isfinite(total):
        raise ValueError("the virtual displacement of this arc is past the float range")
    return total, total * math.cos(ca.theta), total * math.sin(ca.theta)
