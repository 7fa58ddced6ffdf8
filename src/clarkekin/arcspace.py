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
from dataclasses import dataclass, field

import numpy as np

from .clarke import JointLayout, _in_float_range, as_clarke, check_finite


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

    least_bend (rad), derived from l, is the bend that FK, f_ind and IK
    raise a smaller one to: l times the smallest normal float, so the
    radius l/phi stays finite, and never below the smallest float 5e-324,
    which l*float_min underflows past for l < 2^-52. l is refused where
    least_bend reaches FK's 1e-9 rad tolerance (l >= 4.49e298).
    """

    layout: JointLayout
    l: float
    least_bend: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_finite("segment length", self.l)
        least_bend = max(self.l * sys.float_info.min, 5e-324)
        if not least_bend < 1e-9:
            raise ValueError(
                f"segment length must be below {1e-9 / sys.float_info.min:.4g} m, "
                f"where FK's least bend reaches 1e-9 rad, got {self.l}"
            )
        object.__setattr__(self, "least_bend", least_bend)


def _angle(x: float, y: float) -> float:
    """The angle of the 2-vector (x, y) in (-pi, pi], and 0 at the origin.

    atan2(y + 0.0, x + 0.0): + 0.0 turns -0.0 into +0.0, so no signed zero
    turns the angle. atan2 still rounds to -pi for x < 0 and y < 0 above
    about -3.4e-16*|x|; that is folded to pi.
    """
    angle = math.atan2(y + 0.0, x + 0.0)
    return math.pi if angle == -math.pi else angle


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

    rho_re = d*(l*kappa)*cos(theta) and rho_im = d*(l*kappa)*sin(theta);
    the magnitude of the pair is the virtual displacement d*(l*kappa). The
    bend l*kappa comes first, so no d*l underflows. Accepts either arc
    representation; refuses an arc whose bend or pair overflows.
    """
    d, l = geom.layout.d, geom.l
    if isinstance(arc, CurvatureCurvature):
        xi = np.array([d * (l * arc.kappa_x), d * (l * arc.kappa_y)])
    else:
        xi = np.array(virtual_displacement(geom, _as_car(arc))[1:])
    return _in_float_range(xi, "the Clarke coordinates of this arc")


def arc_from_clarke(geom: SegmentGeometry, xi) -> CurvatureAngle:
    """Arc parameters of the bend encoded by Clarke coordinates.

    kappa = (|xi|/d)/l, the bend over l, so no d*l underflows, and theta =
    atan2(rho_im, rho_re) in (-pi, pi]; the origin, with either sign of
    zero, maps to the straight segment (0, 0).
    """
    return _arc_of_pair(geom, *as_clarke(xi))


def _arc_of_pair(geom: SegmentGeometry, re: float, im: float) -> CurvatureAngle:
    # arc_from_clarke's arc of the Clarke pair (re, im), for a pair the library computed and does not check again.
    return CurvatureAngle(kappa=math.hypot(re, im) / geom.layout.d / geom.l, theta=_angle(re, im))


def virtual_displacement(geom: SegmentGeometry, ca: CurvatureAngle) -> tuple[float, float, float]:
    """Virtual displacement of a bend and its two plane projections.

    Returns (total, proj_x, proj_y) in meters where total = d*(l*kappa) is
    the maximum displacement, lying in the bending plane, and the projections
    onto the xz- and yz-planes equal the Clarke coordinates. Always
    satisfies total^2 = proj_x^2 + proj_y^2. Refuses a bend whose total
    overflows; the projections never exceed it.
    """
    total = geom.layout.d * (geom.l * ca.kappa)
    if not math.isfinite(total):
        raise ValueError("the virtual displacement of this arc is past the float range")
    return total, total * math.cos(ca.theta), total * math.sin(ca.theta)
