"""An exact oracle for the transform matrices, in stdlib decimal.

cos and sin of psi_i = 2*pi*i/n are computed to 60 significant digits:
pi by Machin's formula, the angle reduced to its nearest quarter turn
q*pi/2 plus a rest of at most pi/4 (an exact fraction of pi/2), a Taylor
series on the rest, and q quarter turns as exact sign swaps. Every float
converts to a Decimal exactly, so the error of a matrix entry is measured
to about 1e-60, far below the float ulps it is compared with.

The bound the tests state for build_transform(n): every `inverse` entry is
within 16 * 2**-53 of cos(psi_i) or sin(psi_i), and every `forward` entry
within (2/n) * 16 * 2**-53 of (2/n)*cos(psi_i) or (2/n)*sin(psi_i). The
worst case over the counts below is about 9.6 * 2**-53.

The products on those matrices get the entry bound plus the rounding of a
dot product, which holds in any summation order, with or without FMA: each
coordinate of transform(t, rho) is within (2/n) * (16 + n + 1) * 2**-53 *
sum|rho_j| of the exact sum over the exact entries, and each entry of
inverse_transform(t, xi) within (16 + 3) * 2**-53 * (|xi_re| + |xi_im|),
each plus n * 2**-1074 for products that fall among the subnormals. The
worst cases measured are about 6.5 and 9.8 in those units. One column is
checked per call: each column of a batch has the bits of its own call.

FK's plane and amplitude (kinematics._polar) are checked against sqrt in
decimal at 50 digits: cos and sin of the plane within 2 * 2**-53, and the
amplitude within 2.5 * 2**-53 relative plus 2**-1074.
"""

import functools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from clarkekin import build_transform, inverse_transform, transform
from clarkekin.kinematics import _ELEMENTWISE, _polar

DIGITS = 60
_GUARD = 10  # extra working digits
_TINY = Decimal(10) ** -(DIGITS + 5)
ULP_BOUND = 16  # in units of 2**-53
ULP = Decimal(2) ** -53
SUBNORMAL = Decimal(2) ** -1074
COUNTS = list(range(3, 65)) + [100, 257, 1000]
DECADES = (-12, -6, 0, 6, 12)


def _atan_inverse(x: int) -> Decimal:
    # atan(1/x) by its Taylor series, for an integer x > 1.
    total, power, k = Decimal(0), Decimal(1) / x, 0
    while power > _TINY:
        total += (-1) ** k * power / (2 * k + 1)
        power /= x * x
        k += 1
    return total


def _pi() -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DIGITS + _GUARD
        return 16 * _atan_inverse(5) - 4 * _atan_inverse(239)


PI = _pi()


def _cos_sin_taylor(x: Decimal) -> tuple[Decimal, Decimal]:
    # cos x and sin x by their Taylor series, for |x| <= pi/4.
    x2 = x * x
    c = s = Decimal(0)
    term_c, term_s, k = Decimal(1), x, 0
    while abs(term_c) > _TINY or abs(term_s) > _TINY:
        c += term_c
        s += term_s
        term_c = -term_c * x2 / ((2 * k + 1) * (2 * k + 2))
        term_s = -term_s * x2 / ((2 * k + 2) * (2 * k + 3))
        k += 1
    return c, s


def exact_cos_sin(i: int, n: int) -> tuple[Decimal, Decimal]:
    """cos and sin of 2*pi*i/n to DIGITS significant digits (absolute error below 1e-60)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + _GUARD
        quarters = Fraction(4 * i, n)
        q = round(quarters)
        rest = quarters - q  # in [-1/2, 1/2]: an angle of at most pi/4
        c, s = _cos_sin_taylor(PI / 2 * rest.numerator / rest.denominator)
        for _ in range(q % 4):
            c, s = -s, c  # a quarter turn: cos(x + pi/2) = -sin x, sin(x + pi/2) = cos x
        return c, s


@functools.cache
def exact_circle(n: int) -> tuple[tuple[Decimal, Decimal], ...]:
    """exact_cos_sin(i, n) for every joint i, computed once per n."""
    return tuple(exact_cos_sin(i, n) for i in range(n))


def worst_errors(n: int) -> tuple[Decimal, Decimal]:
    """The largest |entry - exact| of build_transform(n).inverse and of .forward, in units of 2**-53."""
    t = build_transform(n)
    worst_inverse = worst_forward = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = DIGITS + _GUARD
        for i, point in enumerate(exact_circle(n)):
            for column, exact in enumerate(point):
                worst_inverse = max(worst_inverse, abs(Decimal(float(t.inverse[i, column])) - exact))
                worst_forward = max(worst_forward, abs(Decimal(float(t.forward[column, i])) - 2 * exact / n))
        return worst_inverse / ULP, worst_forward * n / 2 / ULP


def seeded_columns(n: int, length: int) -> list[list[float]]:
    """Columns of `length` values seeded by n: one at each scale 10**e in DECADES, one spread over all of them."""
    rng = random.Random(n)
    columns = [[rng.gauss(0, 1) * 10.0**e for _ in range(length)] for e in DECADES]
    columns.append([rng.choice((-1, 1)) * 10.0 ** rng.uniform(DECADES[0], DECADES[-1]) for _ in range(length)])
    return columns


class TestOracle:
    def test_pi(self):
        assert str(PI).startswith("3.14159265358979323846264338327950288419716939937510582097494459")

    @pytest.mark.parametrize(
        "i, n, cos, sin",
        [(0, 4, 1, 0), (1, 4, 0, 1), (2, 4, -1, 0), (3, 4, 0, -1), (1, 6, "0.5", None), (1, 12, None, "0.5"), (2, 3, "-0.5", None)],
    )
    def test_exact_values(self, i, n, cos, sin):
        c, s = exact_cos_sin(i, n)
        for got, want in ((c, cos), (s, sin)):
            if want is not None:
                assert abs(got - Decimal(want)) < Decimal(10) ** -DIGITS

    @pytest.mark.parametrize("n", [3, 7, 64, 1000])
    def test_agrees_with_math_and_lies_on_the_circle(self, n):
        for i in range(n):
            c, s = exact_cos_sin(i, n)
            assert abs(c * c + s * s - 1) < Decimal(10) ** -DIGITS
            angle = 2 * math.pi * i / n
            assert abs(float(c) - math.cos(angle)) < 1e-12 and abs(float(s) - math.sin(angle)) < 1e-12


@pytest.mark.parametrize("n", COUNTS)
def test_transform_entries_are_within_the_stated_bound(n):
    inverse, forward = worst_errors(n)
    assert inverse <= ULP_BOUND, f"inverse entry {float(inverse):.3g} * 2**-53 from exact at n={n}"
    assert forward <= ULP_BOUND, f"forward entry {float(forward):.3g} * (2/n) * 2**-53 from exact at n={n}"


@pytest.mark.parametrize("n", COUNTS)
def test_transform_is_within_the_stated_bound(n):
    t, circle = build_transform(n), exact_circle(n)
    with localcontext() as ctx:
        ctx.prec = DIGITS + _GUARD
        for rho in seeded_columns(n, n):
            xi = transform(t, np.array(rho))
            rho = [Decimal(v) for v in rho]
            bound = 2 * (ULP_BOUND + n + 1) * ULP * sum(map(abs, rho)) / n + n * SUBNORMAL
            for column, got in enumerate(xi.tolist()):
                exact = 2 * sum(point[column] * v for point, v in zip(circle, rho)) / n
                error = abs(Decimal(got) - exact)
                assert error <= bound, f"Clarke coordinate {column} off by {float(error / bound):.3g} bounds at n={n}"


@pytest.mark.parametrize("n", COUNTS)
def test_inverse_transform_is_within_the_stated_bound(n):
    t, circle = build_transform(n), exact_circle(n)
    with localcontext() as ctx:
        ctx.prec = DIGITS + _GUARD
        for xi in seeded_columns(n, 2):
            rho = inverse_transform(t, np.array(xi))
            re, im = map(Decimal, xi)
            bound = (ULP_BOUND + 3) * ULP * (abs(re) + abs(im)) + n * SUBNORMAL
            for i, (got, (c, s)) in enumerate(zip(rho.tolist(), circle)):
                error = abs(Decimal(got) - (c * re + s * im))
                assert error <= bound, f"displacement {i} off by {float(error / bound):.3g} bounds at n={n}"


PLANE_DIGITS = 50
PLANE_BOUND = 2  # cos and sin, in units of 2**-53
AMPLITUDE_BOUND = Decimal("2.5")  # relative, in units of 2**-53, plus 2**-1074


def plane_pairs(count: int, seed: int) -> list[tuple[float, float]]:
    """count pairs (x, y) of either sign over 624 decades, 10**-323.6 (5e-324) to
    10**300, the smaller entry 10**0 to 10**600 below the larger or flushed to a
    signed zero; signed zeros, subnormals and the pinned pairs first."""
    rng = random.Random(seed)
    pairs = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (5e-324, 5e-324), (-5e-324, 5e-324)]
    pairs += [(5e-324, -0.0), (-0.0, -5e-324), (2.2250738585072014e-308, 5e-324), (1e300, -1e-300), (-3.0, 4.0)]
    while len(pairs) < count:
        e = rng.uniform(-323.6, 300.0)
        gap = rng.choice([0.0, rng.uniform(0.0, 3.0), rng.uniform(0.0, 40.0), rng.uniform(0.0, 600.0)])
        large, small = (rng.choice((-1.0, 1.0)) * 10.0 ** max(e - g, -400.0) for g in (0.0, gap))
        pairs.append((large, small) if rng.random() < 0.5 else (small, large))
    return pairs


class TestPlane:
    """_polar(x, y) = (|v|, cos, sin) of v = (x, y), FK's amplitude and plane,
    within the stated bounds of the exact values on 20,000 pairs, with one
    set of bits for a pair alone and as a row of a batch. Over 2*10**6 more
    pairs the worst seen was 1.97 for the plane and 2.42 for |v|; a
    first-order count of the five roundings allows about 2.3 and 3.25."""

    PAIRS = plane_pairs(20000, seed=6)

    def test_one_pair_and_a_batch_are_within_the_bounds(self):
        xs, ys = np.array(self.PAIRS).T
        singles = [_polar(x, y, _ELEMENTWISE[1]) for x, y in self.PAIRS]
        assert np.array(singles).T.tobytes() == np.array(_polar(xs, ys, _ELEMENTWISE[2])).tobytes()
        with localcontext() as ctx:
            ctx.prec = PLANE_DIGITS
            for (x, y), got in zip(self.PAIRS, singles):
                exact = (Decimal(x) ** 2 + Decimal(y) ** 2).sqrt()
                if exact == 0:
                    # The origin, with either sign of zero, is the plane theta = 0.
                    assert [math.copysign(1.0, v) * abs(v) for v in got] == [0.0, 1.0, 0.0]
                    assert all(math.copysign(1.0, v) == 1.0 for v in got)
                    continue
                amplitude, cos, sin = map(Decimal, got)
                where = f"at ({x!r}, {y!r})"
                assert abs(amplitude - exact) <= AMPLITUDE_BOUND * ULP * exact + SUBNORMAL, where
                assert abs(cos - Decimal(x) / exact) <= PLANE_BOUND * ULP, where
                assert abs(sin - Decimal(y) / exact) <= PLANE_BOUND * ULP, where

    def test_the_least_subnormal_pair_is_at_45_degrees(self):
        # (x, y)/hypot(x, y) reads (5e-324, 5e-324) as the plane (1, 1):
        # hypot rounds sqrt(2)*5e-324 to 5e-324. Dividing by max(|x|, |y|)
        # first keeps the plane a unit vector.
        for elementwise, pair in ((_ELEMENTWISE[1], (5e-324, 5e-324)), (_ELEMENTWISE[2], np.full((2, 3), 5e-324))):
            amplitude, cos, sin = _polar(*pair, elementwise)
            assert np.all(amplitude == 5e-324)
            assert np.all(cos == sin) and np.all(abs(cos - math.sqrt(0.5)) <= PLANE_BOUND * 2.0**-53)
