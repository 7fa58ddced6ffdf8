"""Generalized Clarke transform for displacement-actuated joints.

The transform pairs a wide 2 x n matrix with its tall n x 2 right-inverse.
Applied to a vector of n joint displacements it yields the two Clarke
coordinates (rho_re, rho_im); applied the other way it reconstructs a full
displacement vector that satisfies the coupling constraint sum(rho) = 0.
Only the amplitude-invariant scaling (2/n on the forward matrix) is
provided; the power-invariant variant is intentionally out of scope.

All values are SI: displacements in meters, angles in radians. Every type
here is immutable after construction and every operation is a pure
function, so a ClarkeTransform can be shared across threads freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# Tolerance for the constructive invariants of the matrices themselves.
_LAYOUT_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry is finite: an exact count that never warns, unlike a sum."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def as_displacement(rho, n: int, batch: bool = False) -> np.ndarray:
    """Validate and return a length-n displacement vector as a float array.

    With batch=True an n x k matrix of displacement columns is accepted as
    well; callers that reduce over the joints leave it off, so they reject
    a batch instead of reducing over every column at once.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (n,) and not (batch and rho.ndim == 2 and rho.shape[0] == n):
        shapes = f"({n},) or ({n}, k)" if batch else f"({n},)"
        raise ValueError(f"displacement vector must have shape {shapes}, got {rho.shape}")
    if not all_finite(rho):
        raise ValueError("displacement vector entries must be finite")
    return rho


def as_clarke(xi) -> np.ndarray:
    """Validate and return Clarke coordinates as a length-2 float array."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise ValueError(f"Clarke coordinates must have shape (2,), got {xi.shape}")
    if not all_finite(xi):
        raise ValueError("Clarke coordinates must be finite")
    return xi


def check_finite(name: str, value, sign: str | None = "positive") -> None:
    """Raise ValueError unless value is finite and, with sign set, of that sign.

    sign is "positive", "non-negative" or None for any finite value; NaN
    and the infinities always fail. Shared by every configuration type.
    """
    in_sign = sign is None or value > 0.0 or (sign == "non-negative" and value == 0.0)
    if not (math.isfinite(value) and in_sign):
        raise ValueError(f"{name} must be finite{' and ' + sign if sign else ''}, got {value}")


def _joint_count(n) -> int:
    if int(n) != n:
        raise ValueError(f"joint count must be an integer, got {n!r}")
    if n < 3:
        raise ValueError(f"need at least 3 joints, got n={int(n)}")
    return int(n)


@dataclass(frozen=True)
class JointLayout:
    """n displacement joints equally distributed on a circle of radius d.

    The i-th joint sits at angle psi_i = 2*pi*(i-1)/n in the cross-section,
    at distance d (meters) from the center-line.
    """

    n: int
    d: float
    psi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _joint_count(self.n))
        check_finite("joint radius d", self.d)
        psi = TWO_PI * np.arange(self.n) / self.n
        # Equal distribution makes both trigonometric sums vanish; guard the
        # construction against accidental edits.
        if abs(np.cos(psi).sum()) > _LAYOUT_TOL or abs(np.sin(psi).sum()) > _LAYOUT_TOL:
            raise AssertionError("joint angles do not cancel; layout is not equally distributed")
        object.__setattr__(self, "psi", _readonly(psi))


@dataclass(frozen=True)
class ClarkeTransform:
    """Cached transform matrices for one joint count n.

    forward  : 2 x n matrix, rows (2/n)*cos(psi_j) and (2/n)*sin(psi_j).
    inverse  : n x 2 right-inverse, row i equal to [cos(psi_i), sin(psi_i)].
    """

    n: int
    forward: np.ndarray
    inverse: np.ndarray


_TRANSFORM_CACHE: dict[int, ClarkeTransform] = {}


def build_transform(layout: JointLayout | int) -> ClarkeTransform:
    """Construct (or fetch from cache) the transform pair for a layout.

    Accepts a JointLayout or a bare joint count; the matrices depend only
    on n. Rejects n < 3 and a non-integral n; the check runs only on a
    cache miss, since a cached count has passed it already.
    """
    n = layout.n if isinstance(layout, JointLayout) else layout
    cached = _TRANSFORM_CACHE.get(n)
    if cached is not None:
        return cached
    n = _joint_count(n)
    psi = TWO_PI * np.arange(n) / n
    cos_psi = np.cos(psi)
    sin_psi = np.sin(psi)
    forward = _readonly((2.0 / n) * np.vstack([cos_psi, sin_psi]))
    inverse = _readonly(np.column_stack([cos_psi, sin_psi]))
    t = ClarkeTransform(n=n, forward=forward, inverse=inverse)
    _TRANSFORM_CACHE[n] = t
    return t


def transform(t: ClarkeTransform, rho) -> np.ndarray:
    """Map n displacements to Clarke coordinates (rho_re, rho_im).

    An n x k matrix of displacement columns maps column by column to a
    2 x k matrix.
    """
    rho = as_displacement(rho, t.n, batch=True)
    return t.forward @ rho


def inverse_transform(t: ClarkeTransform, xi) -> np.ndarray:
    """Map Clarke coordinates back to the n displacements.

    The result always satisfies sum(rho) = 0 up to roundoff, i.e. it lies
    on the 2-dof displacement manifold.
    """
    xi = as_clarke(xi)
    return t.inverse @ xi


def projector(t: ClarkeTransform) -> np.ndarray:
    """The n x n manifold projector P = inverse @ forward.

    P is a symmetric circulant matrix with entries (2/n)*cos(2*pi*(i-j)/n);
    it is idempotent, has rank 2, and annihilates constant vectors.
    """
    return t.inverse @ t.forward


def manifold_residual(t: ClarkeTransform, rho) -> float:
    """Max-norm distance of rho from its projection onto the manifold."""
    rho = as_displacement(rho, t.n)
    return float(np.max(np.abs(t.inverse @ (t.forward @ rho) - rho)))


def is_on_manifold(t: ClarkeTransform, rho, tol: float = 1e-12) -> bool:
    """Whether rho lies on the displacement manifold within tol.

    Checks both the scalar constraint |sum(rho)| <= tol and the projector
    residual. The scalar sum alone characterizes the manifold only for
    n = 3; for n >= 4 vectors such as [1, -1, 1, -1] sum to zero yet are
    geometrically infeasible, so full subspace membership is required.
    """
    check_finite("tolerance", tol)
    rho = as_displacement(rho, t.n)
    if abs(float(rho.sum())) > tol:
        return False
    return manifold_residual(t, rho) <= tol


def rectangular_to_polar(xi) -> tuple[float, float]:
    """Convert Clarke coordinates to (amplitude, angle).

    amplitude = hypot(rho_re, rho_im) >= 0 and angle = atan2(rho_im, rho_re)
    in (-pi, pi]. The origin maps to (0.0, 0.0) by convention (the
    continuous limit along the +x direction).
    """
    xi = as_clarke(xi)
    amplitude = math.hypot(xi[0], xi[1])
    angle = math.atan2(xi[1], xi[0])
    if angle == -math.pi:
        angle = math.pi
    return amplitude, angle


def polar_to_rectangular(amplitude: float, angle: float) -> np.ndarray:
    """Convert polar (amplitude, angle) to Clarke coordinates."""
    check_finite("amplitude", amplitude, "non-negative")
    check_finite("angle", angle, None)
    return np.array([amplitude * math.cos(angle), amplitude * math.sin(angle)])


def wrap_to_two_pi(angle: float) -> float:
    """Normalize an angle from atan2 range into [0, 2*pi)."""
    check_finite("angle", angle, None)
    wrapped = math.fmod(angle, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    return wrapped
