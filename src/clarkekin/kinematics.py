"""Closed-form kinematics of a single constant-curvature segment.

Two mappings compose into the kinematics: the robot-dependent mapping
between joint displacements and arc parameters (f_dep, f_dep_inverse),
which is linear in the curvature components, and the robot-independent
mapping between arc parameters and the tip pose (f_ind, f_ind_inverse).

The tip frame convention is R = Rz(theta) @ Ry(kappa*l): the frame is
rotated into the bending plane, so R is the identity only under the
straight-segment convention theta(kappa=0) = 0.

fk_direct composes both mappings without ever branching on the curvature;
an epsilon-regularization keeps every expression defined at rho = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arcspace import CurvatureAngle, CurvatureCurvature, SegmentGeometry, _as_car, car_to_ccr
from .clarke import all_finite, as_displacement, build_transform, check_finite, manifold_residual

# Targets with p_z at or below this height (meters) are rejected: the tip of
# a forward-bending constant-curvature segment never reaches the p_z <= 0
# half-space, and the pose formulas divide by p_z.
POSITION_Z_FLOOR = 1e-9

# Manifold residual accepted by f_dep_curvature_angle before it refuses
# to interpret a displacement vector as a constant-curvature bend.
MANIFOLD_TOL = 1e-9

_I3 = np.eye(3)
_I3.setflags(write=False)

# Elementwise functions by the number of dimensions of rho in fk_direct:
# `math` for one column keeps it bit-identical to the scalar formula and
# as fast, numpy evaluates a batch of columns in one pass.
_ELEMENTWISE = {1: math, 2: np}


@dataclass(frozen=True)
class RegularizationConfig:
    """Additive epsilon (meters) applied to the displacement norm in fk_direct."""

    epsilon: float = 1e-12

    def __post_init__(self):
        check_finite("epsilon", self.epsilon)


def _check_rotations(r: np.ndarray, what: str) -> None:
    # One vectorized check over a (3, 3) matrix or a (k, 3, 3) stack. Each
    # test is written as `not err <= tol`, so a NaN entry fails it. The
    # cofactor expansion costs less than np.linalg.det on one matrix and a
    # tenth of it on a stack.
    gram_err = np.abs(r.swapaxes(-1, -2) @ r - _I3).max(initial=0.0)
    if not gram_err <= 1e-9:
        raise ValueError(f"{what} is not orthonormal")
    # det(R) = det(R^T); .T moves a batch axis last, so m[i, j] is entry
    # (i, j) of every transposed matrix.
    m = r.T
    det = (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )
    if not np.abs(det - 1.0).max(initial=0.0) <= 1e-9:
        raise ValueError(f"{what} must have determinant +1")


@dataclass(frozen=True)
class Pose:
    """Tip pose: rotation matrix and position vector in meters.

    One pose has a (3, 3) rotation and a (3,) position. A stack of k poses
    has a (k, 3, 3) rotation and a (k, 3) position, pose i at index i.
    One vectorized check rejects the whole pose or stack if any rotation
    is not orthonormal with determinant +1 (within 1e-9) or any entry is
    not finite.
    """

    rotation: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        rotation = np.asarray(self.rotation, dtype=float)
        position = np.asarray(self.position, dtype=float)
        if rotation.shape[-2:] != (3, 3) or rotation.ndim > 3 or position.shape != rotation.shape[:-1]:
            raise ValueError(
                "pose needs a (3, 3) rotation and a (3,) position, "
                "or a (k, 3, 3) rotation and a (k, 3) position for a stack"
            )
        _check_rotations(rotation, "rotation matrix")
        if not all_finite(position):
            raise ValueError("position entries must be finite")
        rotation.setflags(write=False)
        position.setflags(write=False)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "position", position)


_DEFAULT_REG = RegularizationConfig()


def _rotation(ct, st, cp, sp) -> np.ndarray:
    """Rz(theta) @ Ry(phi) from cos/sin of theta and phi: (3, 3), or (k, 3, 3) from (k,) arrays."""
    zero = 0.0 * abs(ct)  # +0.0 shaped like ct; 0.0 * ct is -0.0 for ct < 0
    # Built entry-major and transposed, so a batch index moves to the
    # front and a single rotation comes out as written: the literal holds
    # the columns of the rotation.
    return np.array(
        [
            [ct * cp, st * cp, -sp],
            [-st, ct, zero],
            [ct * sp, st * sp, cp],
        ]
    ).T


def _joints(geom: SegmentGeometry, bend: np.ndarray) -> np.ndarray:
    """rho = d * inverse @ bend of bending vectors l*(kappa_x, kappa_y), (2,) or (2, k)."""
    return geom.layout.d * (build_transform(geom.layout).inverse @ bend)


def f_dep_inverse(geom: SegmentGeometry, arc) -> np.ndarray:
    """Displacements realizing an arc: rho = d*l*inverse @ [kappa_x, kappa_y].

    Accepts either arc representation; the result lies on the displacement
    manifold and is linear in the curvature components.
    """
    cc = arc if isinstance(arc, CurvatureCurvature) else car_to_ccr(_as_car(arc))
    return _joints(geom, geom.l * np.array([cc.kappa_x, cc.kappa_y]))


def f_dep(geom: SegmentGeometry, rho) -> CurvatureCurvature:
    """Curvature components of a displacement vector: (1/(d*l)) * forward @ rho.

    For rho off the manifold this equals f_dep of the projected vector,
    by linearity.
    """
    t = build_transform(geom.layout)
    rho = as_displacement(rho, t.n)
    kxy = (t.forward @ rho) / (geom.layout.d * geom.l)
    return CurvatureCurvature(kappa_x=float(kxy[0]), kappa_y=float(kxy[1]))


def f_dep_curvature_angle(geom: SegmentGeometry, rho) -> CurvatureAngle:
    """Curvature and bending-plane angle of an on-manifold displacement vector.

    kappa = sqrt(2*n)/(d*l*n) * |rho| and theta = atan2 of the Clarke
    coordinates; theta = 0 when rho = 0. Rejects vectors whose projector
    residual exceeds MANIFOLD_TOL, because the norm-based curvature formula
    is only valid on the manifold.
    """
    t = build_transform(geom.layout)
    rho = as_displacement(rho, t.n)
    residual = manifold_residual(t, rho)
    if residual > MANIFOLD_TOL:
        raise ValueError(
            f"displacement vector is off the manifold: projector residual "
            f"{residual:.3e} exceeds {MANIFOLD_TOL:.1e}"
        )
    n = t.n
    d = geom.layout.d
    kappa = math.sqrt(2.0 * n) / (d * geom.l * n) * float(np.linalg.norm(rho))
    xi = t.forward @ rho
    theta = math.atan2(xi[1], xi[0])
    return CurvatureAngle(kappa=kappa, theta=theta)


def f_ind(geom: SegmentGeometry, arc) -> Pose:
    """Tip pose of a constant-curvature bend of length l.

    For kappa > 0 the tip sits on a circular arc of radius 1/kappa in the
    bending plane; kappa = 0 yields the straight pose (identity rotation,
    position (0, 0, l)).
    """
    ca = _as_car(arc)
    l = geom.l
    if ca.kappa == 0.0:
        return Pose(rotation=np.eye(3), position=np.array([0.0, 0.0, l]))
    phi = ca.kappa * l
    ct, st = math.cos(ca.theta), math.sin(ca.theta)
    cp, sp = math.cos(phi), math.sin(phi)
    bow = (1.0 - cp) / ca.kappa
    position = np.array([ct * bow, st * bow, sp / ca.kappa])
    return Pose(rotation=_rotation(ct, st, cp, sp), position=position)


def fk_direct(geom: SegmentGeometry, rho, reg: RegularizationConfig | None = None) -> Pose:
    """Forward kinematics straight from displacements, with no branch on kappa.

    rho is one displacement column (n,), giving one Pose, or a batch of k
    columns (n, k), giving a stacked Pose with (k, 3, 3) rotations and
    (k, 3) positions. One formula serves both. A single column evaluates
    its elementwise functions with `math` and a batch with numpy, so a row
    of a batch agrees with the single-column call within 1e-14 absolute
    (numpy's cos, sin and hypot and a matrix-matrix product differ from
    their scalar counterparts in the last bits), not bit for bit.

    Every quantity is derived from the regularized Clarke amplitude
    A = |xi + (delta, 0)| + delta^2 with delta the Clarke-space image of the
    configured epsilon. The nudge along +x pins the straight configuration
    to theta = 0, so rho = 0 evaluates to the straight pose without any
    conditional; the introduced error is linear in epsilon.
    """
    eps = (reg or _DEFAULT_REG).epsilon
    t = build_transform(geom.layout)
    rho = as_displacement(rho, t.n, batch=True)
    elementwise = _ELEMENTWISE[rho.ndim]
    d = geom.layout.d
    l = geom.l

    xi = t.forward @ rho
    delta = math.sqrt(2.0 / t.n) * eps
    w_re = xi[0] + delta
    w_im = xi[1]
    amp = elementwise.hypot(w_re, w_im) + delta * delta
    ct = w_re / amp
    st = w_im / amp
    phi = amp / d
    cp = elementwise.cos(phi)
    sp = elementwise.sin(phi)
    inv_kappa = d * l / amp
    bow = (1.0 - cp) * inv_kappa
    # Transposed, so a batch index moves to the front: (k, 3) positions.
    position = np.array([ct * bow, st * bow, sp * inv_kappa]).T
    return Pose(rotation=_rotation(ct, st, cp, sp), position=position)


def _check_position_target(p: np.ndarray) -> None:
    # p is one position (3,) or a stack (k, 3).
    if not all_finite(p):
        raise ValueError("target position entries must be finite")
    x, y, z = p.T
    if not (x * x + y * y + z * z != 0.0).all():
        raise ValueError("target position at the origin is prohibited")
    if not (z > POSITION_Z_FLOOR).all():
        raise ValueError(
            f"target p_z={np.min(z):.3e} is in the prohibited region: the reachable "
            f"workspace requires p_z > {POSITION_Z_FLOOR:.1e} m"
        )


def _bend(geom: SegmentGeometry, target, positions: bool = False) -> np.ndarray:
    """The bending vector phi*(cos theta, sin theta) = l*(kappa_x, kappa_y) of IK targets.

    The target is a Pose (one or a stack), a rotation (3, 3) or a position
    (3,); with positions=True, a position (3,) or a stack (k, 3), never a
    rotation. Gives (2,) for one target and (2, k) for a stack. In the tip
    frame R = Rz(theta) @ Ry(phi), R[1, 1] = cos(theta), R[0, 1] = -sin(theta).
    """
    if isinstance(target, Pose) and not positions:
        # A Pose checked its rotations when it was built; the region of its
        # positions is what remains. sin(phi) = -R[2, 0] and
        # p_z = l*sin(phi)/phi. Transposed, a stack's entries index as
        # r[j, i] = R[..., i, j] with the batch axis last.
        _check_position_target(target.position)
        r = target.rotation.T
        return (-geom.l * r[0, 2] / target.position.T[2]) * np.array([r[1, 1], -r[1, 0]])
    if np.shape(target) == (3, 3) and not positions:
        # phi comes from the rotation alone, so l never enters: the result
        # does not depend on the segment length, bit for bit.
        r = np.asarray(target, dtype=float)
        _check_rotations(r, "target rotation matrix")
        phi = math.atan2(-r[2, 0], r[2, 2])
        return phi * np.array([r[1, 1], -r[0, 1]])
    p = np.asarray(target, dtype=float)
    if not positions and p.shape != (3,):
        raise TypeError(
            "target must be a position (3,), a rotation (3, 3), or a Pose "
            f"(a stack of positions goes to ik_position), got shape {p.shape}"
        )
    if p.shape[-1:] != (3,) or p.ndim > 2:
        raise ValueError(f"positions must have shape (3,) or (k, 3), got {p.shape}")
    _check_position_target(p)
    x, y, z = p.T
    return (2.0 * geom.l / (x * x + y * y + z * z)) * np.array([x, y])


def f_ind_inverse(geom: SegmentGeometry, target) -> CurvatureCurvature:
    """Arc curvatures reaching a task-space target: its bending vector over l.

    The target may be a tip position (3-vector), a tip rotation (3x3), or a
    full Pose (one pose, not a stack). Positions with p_z at or below
    POSITION_Z_FLOOR, and the origin, are rejected as unreachable. ik is
    f_dep_inverse of this map's result, computed without the division by l.
    """
    bend = _bend(geom, target)
    if bend.ndim != 1:
        raise ValueError("f_ind_inverse takes one pose, not a stack")
    kx, ky = bend / geom.l
    return CurvatureCurvature(kappa_x=float(kx), kappa_y=float(ky))


def ik_position(geom: SegmentGeometry, positions) -> np.ndarray:
    """Closed-form inverse kinematics to tip positions: f_dep_inverse ∘ f_ind_inverse.

    positions is one position (3,), giving an (n,) displacement vector, or
    a stack (k, 3), giving (n, k) displacement columns; row i agrees with
    the single-position call within 1e-14 absolute. Positions have their
    own entry point because ik reads a (3, 3) array as one rotation, never
    as three positions. Positions with p_z at or below POSITION_Z_FLOOR,
    the origin and non-finite entries are rejected.
    """
    return _joints(geom, _bend(geom, positions, positions=True))


def ik(geom: SegmentGeometry, target) -> np.ndarray:
    """Closed-form inverse kinematics to a position, rotation, or pose target.

    ik = f_dep_inverse ∘ f_ind_inverse: the target's bending vector
    l*(kappa_x, kappa_y) mapped to joints, with no branch on the curvature.
    Returns the displacement vector on the manifold that reproduces the
    target under fk_direct: (n,) for one target, and (n, k) columns for a
    stacked Pose of k poses, column i within 1e-14 absolute of the call on
    pose i alone. Stacks of positions go to ik_position. A rotation-only
    target fixes the bending plane and the product kappa*l but not the
    segment length; the returned displacements are independent of l.
    """
    return _joints(geom, _bend(geom, target))


def recover_pose_from_position(geom: SegmentGeometry, p) -> Pose:
    """Reconstruct the full tip pose from the tip position alone.

    The four trigonometric building blocks of the rotation follow in closed
    form from p: with r = hypot(p_x, p_y) and s = |p|^2,

        cos(theta) = p_x / r          sin(theta) = p_y / r
        sin(kappa*l) = 2*p_z*r / s    cos(kappa*l) = (p_z^2 - r^2) / s.

    Positions on the z-axis take the straight-segment convention R = I.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"position must have shape (3,), got {p.shape}")
    _check_position_target(p)
    r = math.hypot(p[0], p[1])
    if r == 0.0:
        return Pose(rotation=np.eye(3), position=p)
    s = float(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
    ct = p[0] / r
    st = p[1] / r
    sp = 2.0 * p[2] * r / s
    cp = (p[2] * p[2] - r * r) / s
    return Pose(rotation=_rotation(ct, st, cp, sp), position=p)
