"""Closed-form kinematics of a single constant-curvature segment.

Two mappings compose into the kinematics: the robot-dependent mapping
between joint displacements and arc parameters (f_dep, f_dep_inverse),
which is linear in the curvature components, and the robot-independent
mapping between arc parameters and the tip pose (f_ind, f_ind_inverse).

The tip frame convention is R = Rz(theta) @ Ry(kappa*l): the frame is
rotated into the bending plane, so R is the identity only under the
straight-segment convention theta(kappa=0) = 0.

fk_direct composes both mappings without ever branching on the curvature:
it evaluates the exact arc of the Clarke pair xi for any bend below a full
circle, in the plane xi/|xi|: a division, never an angle, so a batch row
has the bits of its single call. One formula, _arc, gives the frame and tip of every arc that FK,
f_ind and IK's check build, each bend raised to the segment's least_bend
(SegmentGeometry), so its radius l/phi stays finite. IK's domain is
smaller: p_z > 0, a bend below pi. IK accepts a target only when
fk_direct of the displacements it returns gives the target back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .arcspace import CurvatureAngle, CurvatureCurvature, SegmentGeometry, _arc_of_pair, _as_car, clarke_from_arc
from .clarke import (
    ClarkeTransform, _owned, _product, _readonly, all_finite, as_displacement, build_transform, inverse_transform, manifold_residual
)

# Targets with p_z at or below this height (meters) are rejected: the tip of
# a forward-bending constant-curvature segment never reaches the p_z <= 0
# half-space.
POSITION_Z_FLOOR = 1e-9

# Distance, relative to |p|, between a target position p and the tip FK
# gives for IK's displacements, past which IK refuses the target.
REACH_TOL = 1e-9

# Manifold residual accepted by f_dep_curvature_angle before it refuses
# to interpret a displacement vector as a constant-curvature bend.
MANIFOLD_TOL = 1e-9

# Rounding error (rad) that the forward transform may put on the bend
# before FK refuses a displacement vector: past it, a common mode, which
# bends nothing, would read as a bend.
BEND_ROUNDING_TOL = 1e-9

# Elementwise functions by the number of dimensions of rho in fk_direct or
# of a target in IK: one column or target runs on Python floats, as fast as
# the scalar formula, and a batch in one numpy pass that rounds as they do
# (cos and sin where numpy's are the C library's, TestTrigPremise), save
# atan2, for rotation IK's bend alone; a checked column (as_displacement's list, without ndim) takes 1. split gives
# an array's rows; largest_abs (of a column), largest and least give the largest |entry|, largest and least
# entry (+inf if none) as one float, worst the largest |entry| of a list of
# entries, failing `<= tol` on a NaN; pose views a frozen buffer of a frame's
# nine row-major entries and a tip's three as one pose or a stack.
_ELEMENTWISE = {
    1: SimpleNamespace(
        sqrt=math.sqrt, atan2=math.atan2, maximum=max, minimum=min, cos=math.cos, sin=math.sin,
        split=np.ndarray.tolist, largest_abs=lambda r: max(map(abs, r)), largest=float, least=float,
        worst=lambda v: max(math.inf if e != e else abs(e) for e in v), pose=lambda a: (a[:9].reshape(3, 3), a[9:]),
    ),
    2: SimpleNamespace(
        sqrt=np.sqrt, atan2=np.arctan2, maximum=np.maximum, minimum=np.minimum, cos=np.cos, sin=np.sin,
        split=tuple, largest_abs=lambda r: float(abs(r).max(initial=0.0)), largest=lambda a: float(a.max(initial=0.0)),
        worst=lambda v: float(abs(np.array(v)).max(initial=0.0)), least=lambda a: float(a.min(initial=math.inf)),
        pose=lambda a: (a[:9].T.reshape(-1, 3, 3), a[9:].T),
    ),
}


def _polar(x, y, elementwise) -> tuple:
    """|(x, y)| and (x, y)/|(x, y)|, floats or (k,) arrays: (x, y) over m = max(|x|, |y|), then over the root
    of its sum of squares, which neither overflows nor turns subnormal to tilt the plane. IEEE operations, whose
    bits floats and rows share. At the origin, either sign of zero, the divisor is 1 and u = 1: theta = 0."""
    m = elementwise.maximum(abs(x), abs(y))
    unit = m + (m == 0.0)
    u, v = (x + 0.0) / unit + (m == 0.0), (y + 0.0) / unit
    s = elementwise.sqrt(u * u + v * v)
    return m * s, u / s, v / s


def _check_rotations(m, elementwise, what: str) -> None:
    # m[j][i] is entry (i, j) of one rotation (floats) or of each rotation of
    # a stack ((k,) rows). Each test is written as `not err <= tol`, so a NaN
    # fails it; a huge or non-finite entry fails it without a warning.
    with np.errstate(over="ignore", invalid="ignore"):  # gram: R^T R - I on and above its diagonal, columns a, b
        gram = [a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - (a is b) for i, a in enumerate(m) for b in m[i:]]
        if not elementwise.worst(gram) <= 1e-9:
            raise ValueError(f"{what} is not orthonormal")
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    if not elementwise.worst([det - 1.0]) <= 1e-9:
        raise ValueError(f"{what} must have determinant +1")


@dataclass(frozen=True)
class Pose:
    """Tip pose: rotation matrix and position vector in meters.

    One pose has a (3, 3) rotation and a (3,) position. A stack of k poses
    has a (k, 3, 3) rotation and a (k, 3) position, pose i at index i.
    A pose or stack built by the caller is rejected, by one formula for
    both, if any rotation is not orthonormal with determinant +1 (within
    1e-9) or any entry is not finite. The poses fk_direct, f_ind and
    recover_pose_from_position return are not checked again; a copy of one
    made with dataclasses.replace is. The pose holds read-only float64 arrays
    (clarke._owned): it copies what the caller passes, read-only or not.
    """

    rotation: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        rotation = _owned(self.rotation)
        position = _owned(self.position)
        if rotation.shape[-2:] != (3, 3) or rotation.ndim > 3 or position.shape != rotation.shape[:-1]:
            raise ValueError(
                "pose needs a (3, 3) rotation and a (3,) position, "
                "or a (k, 3, 3) rotation and a (k, 3) position for a stack"
            )
        elementwise = _ELEMENTWISE[rotation.ndim - 1]
        _check_rotations(elementwise.split(rotation.T), elementwise, "rotation matrix")
        if not all_finite(position):
            raise ValueError("position entries must be finite")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "position", position)


class _BuiltPose(Pose):
    # A pose the library computed (_built_pose): a rotation Rz(theta) @ Ry(phi) from the cos and sin of two angles
    # and a finite position. It runs Pose.__init__, checks nothing, then becomes a Pose, so dataclasses.replace
    # checks a caller's copy. Not clarke._built, which skips __init__: the realtime-loop benchmark counts each pose
    # the library builds as a kinematics.Pose call (perfbench/measure.py SERVES), and would see none.
    def __post_init__(self):
        object.__setattr__(self, "__class__", Pose)


def _built_pose(entries, elementwise) -> Pose:
    """The pose of a frame's nine row-major entries and a tip's three, floats or (k,) arrays, as views of one frozen buffer."""
    return _BuiltPose(*elementwise.pose(_readonly(np.array(entries))))


def _arc(ct, st, phi, inv_kappa, elementwise) -> tuple:
    """The twelve entries of the arc of radius inv_kappa bent by phi in the plane at (cos, sin) = (ct, st).

    Rz(theta) @ Ry(phi) row-major, then the tip x, y, z: floats or (k,)
    arrays. The bow 2*sin(phi/2)^2 is 1 - cos(phi) without its cancellation
    near the straight pose, so the tip keeps full precision; it squares by a
    product, as a float's ** 2 calls C pow, which numpy's does not.
    """
    cp, sp, half = elementwise.cos(phi), elementwise.sin(phi), elementwise.sin(phi / 2.0)
    zero = 0.0 * abs(ct)  # +0.0 shaped like ct; 0.0 * ct is -0.0 for ct < 0
    bow = 2.0 * (half * half) * inv_kappa
    return ct * cp, -st, ct * sp, st * cp, ct, st * sp, -sp, zero, cp, ct * bow, st * bow, sp * inv_kappa


def f_dep_inverse(geom: SegmentGeometry, arc) -> np.ndarray:
    """Displacements realizing an arc: rho = inverse @ clarke_from_arc(arc).

    Accepts either arc representation and refuses one whose displacements
    overflow; the result lies on the manifold, linear in the curvatures.
    """
    return inverse_transform(build_transform(geom.layout), clarke_from_arc(geom, arc))


def f_dep(geom: SegmentGeometry, rho) -> CurvatureCurvature:
    """Curvature components of a displacement vector: (_product(forward, rho)/d)/l.

    The bend over d first, so no d*l underflows. For rho off the manifold
    this equals f_dep of the projected vector, by linearity.
    """
    t = build_transform(geom.layout)
    re, im = _product(t.forward, as_displacement(rho, t.n))
    d, l = geom.layout.d, geom.l
    return CurvatureCurvature(kappa_x=re / d / l, kappa_y=im / d / l)


def _fk_clarke(geom: SegmentGeometry, t: ClarkeTransform, rho):
    """The plane (cos theta, sin theta) = xi/|xi| of the Clarke pair xi of rho, n floats or (n, k), and its bend
    |xi|/d (_polar): floats for one column (clarke._product's), (k,) arrays for a batch. Refuses rho outside FK's domain.

    The transform sums n products of entries at most 2/n, so its rounding
    moves the bend |xi|/d by up to about 2n*2^-53*max|rho|/d; that must
    stay below BEND_ROUNDING_TOL, tested before the product, which
    overflows on some of the vectors it refuses. And the bend must stay
    below a full circle, past which the arc closes on itself.
    """
    elementwise, d = _ELEMENTWISE[getattr(rho, "ndim", 1)], geom.layout.d
    top = elementwise.largest_abs(rho)
    rounding = 2.0 * t.n * 2.0**-53 * top / d
    if not rounding < BEND_ROUNDING_TOL:
        raise ValueError(
            f"displacements up to {top:.3e} m are too large for d={d:.6g} m: the transform's "
            f"rounding moves the bend by up to {rounding:.3e} rad, past {BEND_ROUNDING_TOL:.0e}"
        )
    amplitude, ct, st = _polar(*_product(t.forward, rho), elementwise)
    widest = elementwise.largest(amplitude)
    if not widest < 2.0 * math.pi * d:
        raise ValueError(
            f"displacements bend the segment by {widest / d / math.pi:.6g}*pi rad, a full circle "
            f"or more: FK's domain is |xi| < 2*pi*d"
        )
    return ct, st, amplitude / d


def f_dep_curvature_angle(geom: SegmentGeometry, rho) -> CurvatureAngle:
    """Curvature and bending-plane angle of an on-manifold displacement vector.

    kappa = (|xi|/d)/l in the plane of its Clarke coordinates xi, bit for bit
    arc_from_clarke's arc of xi; rho = 0 gives the straight segment (0, 0).
    Rejects vectors outside FK's domain as fk_direct does, then vectors
    whose projector residual exceeds MANIFOLD_TOL instead of reading a bend
    into a vector that is not one; f_dep projects such a vector silently.
    """
    t = build_transform(geom.layout)
    rho = as_displacement(rho, t.n)
    _fk_clarke(geom, t, rho)
    residual = manifold_residual(t, rho)
    if residual > MANIFOLD_TOL:
        raise ValueError(
            f"displacement vector is off the manifold: projector residual "
            f"{residual:.3e} exceeds {MANIFOLD_TOL:.1e}"
        )
    return _arc_of_pair(geom, *_product(t.forward, rho))


def f_ind(geom: SegmentGeometry, arc) -> Pose:
    """Tip pose of a constant-curvature bend of length l.

    For kappa > 0 the tip sits on a circular arc of radius 1/kappa in the
    bending plane; kappa = 0 yields the straight pose (identity rotation,
    position (0, 0, l)). A bend kappa*l below geom.least_bend, whose radius
    would overflow, is raised to it: the rotation moves by < 3e-308*l, or
    by 5e-324 for l < 2^-52. A bend kappa*l past the largest float is refused.
    """
    ca, elementwise = _as_car(arc), _ELEMENTWISE[1]
    if ca.kappa == 0.0:
        return _built_pose((1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, geom.l), elementwise)
    phi = max(ca.kappa * geom.l, geom.least_bend)
    if not math.isfinite(phi):
        raise ValueError(f"curvature kappa={ca.kappa:.6g} 1/m bends a segment of l={geom.l:.6g} m past the float range")
    return _built_pose(_arc(math.cos(ca.theta), math.sin(ca.theta), phi, geom.l / phi, elementwise), elementwise)


def fk_direct(geom: SegmentGeometry, rho) -> Pose:
    """Forward kinematics straight from displacements, with no branch on kappa.

    rho is one displacement column (n,), giving one Pose, or a batch of k
    columns (n, k), giving a stacked Pose with (k, 3, 3) rotations and
    (k, 3) positions: one formula, on `math` for one column and on numpy
    for a batch. Each Clarke pair comes from clarke._product, which gives a
    batch column the bits of the single-column call, as does every later
    step: a row of a batch is its single call bit for bit.

    It computes what f_ind(arc_from_clarke(xi)) computes for the Clarke
    pair xi = forward @ rho: the arc bent by |xi|/d, raised to least_bend
    as f_ind raises it, in the plane (cos theta, sin theta) = xi/|xi|
    (_polar), (1, 0) at rho = 0, the straight pose. Where |xi|/(d*l)
    underflows to 0, f_ind's straight branch takes theta = 0, and this
    keeps the plane of xi. rho outside FK's domain (_fk_clarke) is refused.
    """
    t = build_transform(geom.layout)
    rho = as_displacement(rho, t.n, batch=True)
    elementwise = _ELEMENTWISE[getattr(rho, "ndim", 1)]
    ct, st, phi = _fk_clarke(geom, t, rho)
    phi = elementwise.maximum(phi, geom.least_bend)
    return _built_pose(_arc(ct, st, phi, geom.l / phi, elementwise), elementwise)


def _check_position_target(x, y, z, elementwise) -> None:
    # The coordinates of one position (floats) or of a stack ((k,) rows).
    if not elementwise.worst((x, y, z)) < math.inf:
        raise ValueError("target position entries must be finite")
    if not elementwise.least(elementwise.maximum(elementwise.maximum(abs(x), abs(y)), abs(z))) > 0.0:
        raise ValueError("target position at the origin is prohibited")
    lowest = elementwise.least(z)
    if not lowest > POSITION_Z_FLOOR:
        raise ValueError(
            f"target p_z={lowest:.3e} is in the prohibited region: the reachable "
            f"workspace requires p_z > {POSITION_Z_FLOOR:.1e} m"
        )


def _fk_gives_back(geom: SegmentGeometry, bx, by, elementwise, r, p, what: str) -> np.ndarray:
    """The displacements rho = d * _product(inverse, (bx, by)) of the bend IK found
    for a target, (n,) or (n, k), refused unless fk_direct of them gives
    the target back: IK's one acceptance rule. Each position p = (x, y, z)
    within REACH_TOL*|p|, each rotation r (r[j][i] is entry (i, j)) within
    1e-9 entrywise; None where the target has none. Floats for one target,
    (k,) rows for a stack; what, with an {l} field, names a position target.

    The tip is fk_direct's arc of rho (_arc), frame and all: the plane and the bend |xi|/d of its Clarke
    pair xi = _product(forward, rho). Each distance is a _polar magnitude, so a row is accepted or refused
    as its single call is. A bend of a full
    circle or more, outside FK's domain, is held at 2*pi, whose tip is the
    base, |p| from the target. Overflow gives a NaN or infinite rho, refused
    without a warning as a target that needs displacements past the float
    range; even a rotation's bend, at most pi, overflows at d = 1e308.
    """
    t, d = build_transform(geom.layout), geom.layout.d
    with np.errstate(over="ignore", invalid="ignore"):
        rho = d * np.asarray(_product(t.inverse, (bx, by)))
        amplitude, ct, st = _polar(*_product(t.forward, elementwise.split(rho)), elementwise)
        phi = elementwise.maximum(elementwise.minimum(amplitude / d, 2.0 * math.pi), geom.least_bend)
        arc = _arc(ct, st, phi, geom.l / phi, elementwise)  # entry (i, j) of the frame at 3*i + j
        if p is not None:
            tx, ty, tz = arc[-3:]
            x, y, z = p
            gap = _polar(_polar(tx - x, ty - y, elementwise)[0], tz - z, elementwise)[0]
            norm = _polar(_polar(x, y, elementwise)[0], z, elementwise)[0]
            ratio = gap / norm
            if not elementwise.largest(ratio) <= REACH_TOL:
                i = np.argmin(np.ravel(ratio) <= REACH_TOL)
                where, gap, norm = what.format(l=geom.l), np.ravel(gap)[i], np.ravel(norm)[i]
                ends = f"ends {gap:.3e} m away"
                if not all_finite(np.reshape(rho, (t.n, -1))[:, i]):
                    ends = "needs displacements past the float range"
                raise ValueError(f"target position is {where} {ends} (|p|={norm:.6g} m)")
    if r is not None:
        gap = elementwise.worst([arc[3 * i + j] - r[j][i] for i in range(3) for j in range(3)])
        if not gap <= 1e-9:
            if not all_finite(rho):
                raise ValueError(f"target rotation needs displacements past the float range at d={d:.6g} m")
            raise ValueError(f"target rotation is the tip frame of no arc: the frame of IK's bend is {gap:.3e} off")
    return rho


def ik_position(geom: SegmentGeometry, positions) -> np.ndarray:
    """Closed-form inverse kinematics to tip positions.

    positions is one position (3,), giving an (n,) displacement vector, or
    a stack (k, 3), giving (n, k) displacement columns, column i the
    single-position call bit for bit. Positions have their own entry point
    because ik reads a (3, 3) array as one rotation, never as three
    positions. Positions with p_z at or below POSITION_Z_FLOOR, the origin
    and non-finite entries are rejected. Otherwise IK bends toward p by
    l*(kappa_x, kappa_y) = 2l*(p_x, p_y)/|p|^2 and returns the displacements
    of that bend, refused unless fk_direct of them gives p back within
    REACH_TOL*|p|. |p|^2 overflows only far out of reach, where the bend is
    zero, refused. A stack is rejected if any row fails.
    """
    p = np.asarray(positions, dtype=float)
    if p.shape[-1:] != (3,) or p.ndim > 2:
        raise ValueError(f"positions must have shape (3,) or (k, 3), got {p.shape}")
    elementwise = _ELEMENTWISE[p.ndim]
    x, y, z = elementwise.split(p.T)
    _check_position_target(x, y, z, elementwise)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = 2.0 * geom.l / (x * x + y * y + z * z)
        bx, by = scale * x, scale * y
    what = "off the reachable surface: the arc of length l={l:.6g} m bent toward it"
    return _fk_gives_back(geom, bx, by, elementwise, None, (x, y, z), what)


def ik(geom: SegmentGeometry, target) -> np.ndarray:
    """Closed-form inverse kinematics to a position, rotation, or pose target.

    The target's bending vector l*(kappa_x, kappa_y) mapped to joints,
    rho = d * inverse @ bend, with no branch on the curvature. Returns the
    displacement vector on the manifold that reproduces the target under
    fk_direct: (n,) for one target, and (n, k) columns for a stacked Pose
    of k poses, column i within 1e-14 absolute of the call on pose i alone,
    as only the bend's atan2 is numpy's for a stack. A position (3,) goes
    to ik_position, and so do stacks of positions. A target is accepted
    only when fk_direct of the returned displacements gives it back:
    rotations within 1e-9 entrywise, positions within REACH_TOL*|p|. A
    rotation, alone or in a Pose, gives its bend by itself: phi =
    atan2(|R[2, :2]|, R[2, 2]) toward (R[1, 1], -R[0, 1]). So a
    rotation-only target fixes the bending plane and kappa*l but not l; the
    returned displacements are independent of l.
    """
    if isinstance(target, Pose):
        # A Pose holds checked (or built) rotations; its positions' region remains to be checked.
        elementwise = _ELEMENTWISE[target.position.ndim]
        p = elementwise.split(target.position.T)
        _check_position_target(*p, elementwise)
        r = elementwise.split(target.rotation.T)  # r[j][i] is entry (i, j) of each rotation
    elif np.shape(target) == (3, 3):
        elementwise, p = _ELEMENTWISE[1], None
        r = elementwise.split(np.asarray(target, dtype=float).T)
        _check_rotations(r, elementwise, "target rotation matrix")
    else:
        p = np.asarray(target, dtype=float)
        if p.shape != (3,):
            raise TypeError(
                "target must be a position (3,), a rotation (3, 3), or a Pose "
                f"(a stack of positions goes to ik_position), got shape {p.shape}"
            )
        return ik_position(geom, p)
    # The bend of the tip frame Rz(theta) @ Ry(phi), from the rotation alone,
    # so l never enters: phi = atan2(|R[2, :2]|, R[2, 2]) in [0, pi] toward
    # (cos theta, sin theta) = (R[1, 1], -R[0, 1]).
    phi = elementwise.atan2(_polar(r[0][2], r[1][2], elementwise)[0], r[2][2])
    bx, by = phi * r[1][1], -phi * r[1][0]
    what = "not the tip of the arc its rotation describes: that arc of length l={l:.6g} m"
    return _fk_gives_back(geom, bx, by, elementwise, r, p, what)


def f_ind_inverse(geom: SegmentGeometry, target) -> CurvatureCurvature:
    """Arc curvatures reaching a task-space target: f_dep of ik's displacements.

    The target may be a tip position (3-vector), a tip rotation (3x3), or a
    full Pose (one pose, not a stack). It is refused where ik refuses it:
    unless fk_direct of the displacements gives the target back. So the
    curvatures are those FK reads from the displacements ik returns.
    """
    rho = ik(geom, target)
    if rho.ndim != 1:
        raise ValueError("f_ind_inverse takes one pose, not a stack")
    return f_dep(geom, rho)


def recover_pose_from_position(geom: SegmentGeometry, p) -> Pose:
    """Reconstruct the full tip pose from the tip position alone: f_ind of f_ind_inverse.

    p must be one position (3,), never a (3, 3) array, which IK reads as a
    rotation. It is refused exactly where ik refuses it (at or below
    POSITION_Z_FLOOR, the origin, non-finite entries, off the reachable
    surface). The returned pose is the arc of the curvatures FK reads from
    IK's displacements, whose tip fk_direct puts within REACH_TOL*|p| of p;
    on the z-axis it is the straight pose.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"position must have shape (3,), got {p.shape}")
    return f_ind(geom, f_ind_inverse(geom, p))
