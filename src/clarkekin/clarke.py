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


def _readonly(a: np.ndarray) -> np.ndarray:
    """Freeze a in place and return it: the one place in the package that makes an array read-only."""
    a.setflags(write=False)
    return a


def _owned(a) -> np.ndarray:
    """A value type's own copy of an input: always a new frozen C-order float64 array, as a read-only one may share a writeable owner."""
    return _readonly(np.array(a, dtype=float, order="C"))


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry is finite: an exact count that never warns, unlike a sum."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def as_displacement(rho, n: int, batch: bool = False) -> list | np.ndarray:
    """Validate a length-n displacement vector and return it as its n Python floats, a list.

    With batch=True an n x k matrix of displacement columns is accepted as
    well, and returned as a float array; callers that reduce over the joints leave it off, so they reject
    a batch instead of reducing over every column at once.

    One column is checked by the sum of its entries as Python floats, which
    never warns: a finite sum proves them finite, and the floats are handed
    on, never listed again. A sum that is not finite and a batch take
    all_finite's exact count, which accepts finite entries whose sum overflows.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (n,) and not (batch and rho.ndim == 2 and rho.shape[0] == n):
        shapes = f"({n},) or ({n}, k)" if batch else f"({n},)"
        raise ValueError(f"displacement vector must have shape {shapes}, got {rho.shape}")
    checked = rho.tolist() if rho.ndim == 1 else rho
    if rho.ndim == 1 and math.isfinite(sum(checked)):
        return checked
    if not all_finite(rho):
        raise ValueError("displacement vector entries must be finite")
    return checked


def as_clarke(xi) -> tuple[float, float]:
    """Validate Clarke coordinates, a length-2 vector, and return them as the two floats (re, im)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise ValueError(f"Clarke coordinates must have shape (2,), got {xi.shape}")
    re, im = xi.tolist()
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError("Clarke coordinates must be finite")
    return re, im


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
    at distance d (meters) from the center-line. Any integer n >= 3 is
    accepted; the cancelling trigonometric sums are a test property.
    """

    n: int
    d: float
    psi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _joint_count(self.n))
        check_finite("joint radius d", self.d)
        object.__setattr__(self, "psi", _readonly(TWO_PI * np.arange(self.n) / self.n))


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

# Each cached matrix's entries as n pairs of Python floats, listed once by build_transform,
# keyed by its id: a cached matrix lives as long as this module, so no other array has it.
_ENTRIES: dict[int, list] = {}


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
    _ENTRIES[id(forward)], _ENTRIES[id(inverse)] = forward.T.tolist(), inverse.tolist()
    _TRANSFORM_CACHE[n] = t
    return t


def _sum(terms) -> float:
    """The terms added left to right from the first: not builtin sum (compensated from 3.12) nor add.reduce."""
    total = -0.0  # -0.0 + x is x for every float x
    for term in terms:
        total += term
    return total


def _product(m: np.ndarray, x):
    """m times x, m a cached transform matrix: entry i is m[i][0]*x[0] + m[i][1]*x[1] + ..., left to right.

    Every transform product goes through here, in this one IEEE order from the first product, so no bit comes
    from the BLAS and -0.0 adds alike on both paths. One column, a sequence of Python floats (as_displacement's
    list), runs over build_transform's listed entries and gives a list; a batch (a 2-D array or c (k,) rows) runs
    the same multiplies and in-place adds on its rows and gives an r x k array, each column the bits of its single call.
    """
    if isinstance(x[0], float):
        if len(x) == 2:  # the inverse matrix: n rows of two products
            x0, x1 = x
            return [a * x0 + b * x1 for a, b in _ENTRIES[id(m)]]
        re = im = -0.0  # the forward matrix: two sums of n products, from -0.0, which adds as nothing
        for (c, s), v in zip(_ENTRIES[id(m)], x):
            re += c * v
            im += s * v
        return [re, im]
    out = m[:, :1] * x[0]
    for j in range(1, m.shape[1]):
        out += m[:, j, None] * x[j]
    return out


def _in_float_range(result: np.ndarray, what: str) -> np.ndarray:
    # A result computed without a warning (np.errstate, Python floats), refused if it overflowed.
    if not all_finite(result):
        raise ValueError(f"{what} are past the float range")
    return result


def transform(t: ClarkeTransform, rho) -> np.ndarray:
    """Map n displacements to Clarke coordinates (rho_re, rho_im).

    An n x k matrix of displacement columns maps column by column to a
    2 x k matrix, each column the bits of the call on that column alone.
    Displacements whose Clarke coordinates overflow are refused.
    """
    rho = as_displacement(rho, t.n, batch=True)
    with np.errstate(over="ignore", invalid="ignore"):
        return _in_float_range(np.asarray(_product(t.forward, rho)), "the Clarke coordinates of these displacements")


def inverse_transform(t: ClarkeTransform, xi) -> np.ndarray:
    """Map Clarke coordinates back to the n displacements.

    The result always satisfies sum(rho) = 0 up to roundoff, i.e. it lies
    on the 2-dof displacement manifold. Clarke coordinates whose
    displacements overflow are refused.
    """
    return _in_float_range(np.array(_product(t.inverse, as_clarke(xi))), "the displacements of these Clarke coordinates")


def projector(t: ClarkeTransform) -> np.ndarray:
    """The n x n manifold projector P = inverse @ forward, column by column.

    P is a symmetric circulant matrix with entries (2/n)*cos(2*pi*(i-j)/n);
    it is idempotent, has rank 2, and annihilates constant vectors.
    """
    return _product(t.inverse, t.forward)


def manifold_residual(t: ClarkeTransform, rho) -> float:
    """Max-norm distance of rho from its projection onto the manifold."""
    rho = as_displacement(rho, t.n)
    return float(np.max(np.abs(np.subtract(_product(t.inverse, _product(t.forward, rho)), rho))))
