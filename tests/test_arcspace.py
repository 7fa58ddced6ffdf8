"""Arc-space representations and their conversions."""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkekin import (
    AngleAngle,
    CurvatureAngle,
    CurvatureCurvature,
    JointLayout,
    SegmentGeometry,
    aar_to_car,
    arc_from_clarke,
    build_transform,
    car_to_aar,
    car_to_ccr,
    ccr_to_car,
    clarke_from_arc,
    f_dep,
    f_dep_curvature_angle,
    f_dep_inverse,
    virtual_displacement,
)
from clarkekin.arcspace import _angle
from clarkekin.clarke import all_finite
from test_products import left_to_right


@pytest.fixture
def geom():
    return SegmentGeometry(layout=JointLayout(n=4, d=0.01), l=0.1)


class TestTypes:
    def test_negative_curvature_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CurvatureAngle(kappa=-1.0, theta=0.0)

    def test_negative_bend_angle_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            AngleAngle(phi=-0.1, theta=0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            CurvatureCurvature(kappa_x=math.inf, kappa_y=0.0)

    def test_bad_segment_length(self):
        with pytest.raises(ValueError, match="positive"):
            SegmentGeometry(layout=JointLayout(n=3, d=0.01), l=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda v: CurvatureAngle(v, 0.0), "curvature"),
            (lambda v: CurvatureAngle(1.0, v), "bending-plane angle"),
            (lambda v: CurvatureCurvature(v, 0.0), "kappa_x"),
            (lambda v: CurvatureCurvature(0.0, v), "kappa_y"),
            (lambda v: AngleAngle(v, 0.0), "bending angle"),
            (lambda v: AngleAngle(1.0, v), "bending-plane angle"),
        ],
        ids=["car-kappa", "car-theta", "ccr-kappa_x", "ccr-kappa_y", "aar-phi", "aar-theta"],
    )
    def test_a_non_finite_field_is_refused_by_name(self, make, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make(value)


class TestCcrCar:
    def test_straight_convention(self):
        ca = ccr_to_car(CurvatureCurvature(0.0, 0.0))
        assert (ca.kappa, ca.theta) == (0.0, 0.0)

    def test_plain_x(self):
        ca = ccr_to_car(CurvatureCurvature(1.0, 0.0))
        assert (ca.kappa, ca.theta) == (1.0, 0.0)

    def test_negative_y(self):
        ca = ccr_to_car(CurvatureCurvature(0.0, -2.0))
        assert ca.kappa == pytest.approx(2.0, abs=1e-15)
        assert ca.theta == pytest.approx(-np.pi / 2, abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cc = CurvatureCurvature(*rng.uniform(-30, 30, 2))
            back = car_to_ccr(ccr_to_car(cc))
            assert abs(back.kappa_x - cc.kappa_x) < 1e-12
            assert abs(back.kappa_y - cc.kappa_y) < 1e-12

    def test_car_examples(self):
        cc = car_to_ccr(CurvatureAngle(2.0, np.pi / 2))
        assert abs(cc.kappa_x) < 1e-15
        assert cc.kappa_y == pytest.approx(2.0, abs=1e-15)
        cc = car_to_ccr(CurvatureAngle(1.0, np.pi / 4))
        assert cc.kappa_x == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert cc.kappa_y == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ca = CurvatureAngle(rng.uniform(0, 50), rng.uniform(-7, 7))
            cc = car_to_ccr(ca)
            assert math.hypot(cc.kappa_x, cc.kappa_y) == pytest.approx(ca.kappa, abs=1e-12)


class TestAngleAngle:
    def test_linear_relation(self):
        ca = CurvatureAngle(kappa=12.0, theta=1.3)
        aa = car_to_aar(ca, l=0.1)
        assert aa.phi == pytest.approx(1.2, abs=1e-15)
        assert aa.theta == 1.3
        back = aar_to_car(aa, l=0.1)
        assert back.kappa == pytest.approx(12.0, rel=1e-15)

    def test_needs_positive_length(self):
        with pytest.raises(ValueError, match="positive"):
            car_to_aar(CurvatureAngle(1.0, 0.0), l=-0.1)

    @pytest.mark.parametrize("l", [0.0, -0.1, math.inf, math.nan])
    def test_back_needs_a_finite_positive_length(self, l):
        # Unchecked, 0 was a ZeroDivisionError, -0.1 was blamed on the curvature and inf gave a straight arc.
        with pytest.raises(ValueError, match=f"^segment length must be finite and positive, got {l}$"):
            aar_to_car(AngleAngle(phi=1.2, theta=1.3), l=l)


class TestClarkeFromArc:
    def test_straight(self, geom):
        assert np.max(np.abs(clarke_from_arc(geom, CurvatureAngle(0.0, 1.0)))) == 0.0

    def test_half_circle_amplitude(self):
        # kappa = pi/l bends the segment into a half circle; the
        # displacement amplitude peaks at d*pi.
        geom = SegmentGeometry(layout=JointLayout(n=4, d=0.01), l=0.1)
        xi = clarke_from_arc(geom, CurvatureAngle(np.pi / 0.1, 0.0))
        assert xi[0] == pytest.approx(0.01 * np.pi, rel=1e-12)
        assert abs(xi[1]) < 1e-15

    def test_pure_y_plane(self, geom):
        kappa = 1.0 / (geom.layout.d * geom.l)  # makes d*l*kappa = 1
        xi = clarke_from_arc(geom, CurvatureAngle(kappa, np.pi / 2))
        assert abs(xi[0]) < 1e-12
        assert xi[1] == pytest.approx(1.0, rel=1e-12)

    def test_linear_in_curvature_components(self, geom):
        rng = np.random.default_rng(2)
        scale = geom.layout.d * geom.l
        for _ in range(100):
            kx, ky = rng.uniform(-40, 40, 2)
            xi = clarke_from_arc(geom, CurvatureCurvature(kx, ky))
            assert np.max(np.abs(xi - scale * np.array([kx, ky]))) < 1e-15

    def test_magnitude_is_virtual_displacement(self, geom):
        ca = CurvatureAngle(17.0, 2.2)
        xi = clarke_from_arc(geom, ca)
        assert np.linalg.norm(xi) == pytest.approx(geom.layout.d * geom.l * ca.kappa, rel=1e-12)

    @pytest.mark.parametrize("arc", [AngleAngle(1.0, 0.5), (17.0, 2.2)])
    def test_other_arc_types_are_refused(self, geom, arc):
        with pytest.raises(TypeError, match=rf"^expected CurvatureAngle or CurvatureCurvature, got {type(arc).__name__}$"):
            clarke_from_arc(geom, arc)


class TestArcFromClarke:
    def test_origin(self, geom):
        ca = arc_from_clarke(geom, [0.0, 0.0])
        assert (ca.kappa, ca.theta) == (0.0, 0.0)

    def test_half_circle_inverse(self, geom):
        ca = arc_from_clarke(geom, [geom.layout.d * np.pi, 0.0])
        assert ca.kappa == pytest.approx(np.pi / geom.l, rel=1e-12)
        assert ca.theta == 0.0

    def test_round_trip(self, geom):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            xi = rng.uniform(-0.05, 0.05, 2)
            back = clarke_from_arc(geom, arc_from_clarke(geom, xi))
            assert np.max(np.abs(back - xi)) < 1e-12


class TestPairAmplitudes:
    """ccr_to_car and arc_from_clarke take a pair's amplitude by hypot: one
    past the float range is refused as a non-finite curvature, with no
    warning, and the largest finite amplitudes are kept."""

    @pytest.mark.parametrize("pair", [(1.7e308, 1.7e308), (-1.7e308, 1.7e308), (1.3e308, -1.3e308)])
    @pytest.mark.parametrize(
        "to_arc",
        [
            lambda x, y: ccr_to_car(CurvatureCurvature(x, y)),
            lambda x, y: arc_from_clarke(SegmentGeometry(JointLayout(3, 1.0), 1.0), [x, y]),
        ],
        ids=["ccr_to_car", "arc_from_clarke"],
    )
    def test_an_amplitude_past_the_float_range_is_refused(self, to_arc, pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^curvature must be finite and non-negative, got inf$"):
                to_arc(*pair)

    def test_the_largest_amplitudes_are_kept(self):
        big = sys.float_info.max
        unit = SegmentGeometry(JointLayout(3, 1.0), 1.0)
        for to_arc in (lambda x, y: ccr_to_car(CurvatureCurvature(x, y)), lambda x, y: arc_from_clarke(unit, [x, y])):
            ca = to_arc(big, 0.0)
            assert (ca.kappa, ca.theta) == (big, 0.0)
            ca = to_arc(-1.2e308, -1.2e308)
            assert ca.kappa == math.hypot(1.2e308, 1.2e308)
            assert ca.theta == pytest.approx(-3 * math.pi / 4, abs=1e-15)


class TestVirtualDisplacement:
    def test_straight(self, geom):
        assert virtual_displacement(geom, CurvatureAngle(0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_bending_plane_aligned_with_x(self, geom):
        total, px, py = virtual_displacement(geom, CurvatureAngle(9.0, 0.0))
        assert py == 0.0
        assert px == total

    def test_pythagoras_and_consistency(self, geom):
        rng = np.random.default_rng(4)
        for _ in range(200):
            ca = CurvatureAngle(rng.uniform(0, 40), rng.uniform(-7, 7))
            total, px, py = virtual_displacement(geom, ca)
            assert total * total == pytest.approx(px * px + py * py, rel=1e-12, abs=1e-30)
            xi = clarke_from_arc(geom, ca)
            assert px == pytest.approx(xi[0], abs=1e-15)
            assert py == pytest.approx(xi[1], abs=1e-15)
            assert total == pytest.approx(geom.layout.d * geom.l * ca.kappa, rel=1e-14)


class TestTinySegments:
    """The arc maps form the bend first, l*kappa or |xi|/d, so the product
    d*l, which underflows to 0 at d = l = 1e-170 and loses digits at 1e-160,
    never forms: a bend of 0.1 rad keeps full precision, with no warning."""

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1.0])
    def test_a_tenth_of_a_radian(self, scale):
        geom = SegmentGeometry(JointLayout(5, scale), scale)
        ca = CurvatureAngle(0.1 / scale, 0.5)
        total = scale * 0.1
        pair = [total * math.cos(0.5), total * math.sin(0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert clarke_from_arc(geom, ca) == pytest.approx(pair, rel=1e-15)
            assert virtual_displacement(geom, ca) == pytest.approx((total, *pair), rel=1e-15)
            for back in (arc_from_clarke(geom, pair), f_dep_curvature_angle(geom, f_dep_inverse(geom, ca))):
                assert (back.kappa, back.theta) == pytest.approx((ca.kappa, ca.theta), rel=1e-14)
            rho = f_dep_inverse(geom, ca)
            assert np.max(np.abs(rho - total * np.cos(2.0 * np.pi * np.arange(5) / 5 - 0.5))) <= 1e-14 * total
            cc = f_dep(geom, rho)
            assert (cc.kappa_x, cc.kappa_y) == pytest.approx([ca.kappa * math.cos(0.5), ca.kappa * math.sin(0.5)], rel=1e-14)


def unchecked_clarke_from_arc(geom, arc):
    """clarke_from_arc with no float-range check: its formula, in its order."""
    d, l = geom.layout.d, geom.l
    if isinstance(arc, CurvatureCurvature):
        return np.array([d * (l * arc.kappa_x), d * (l * arc.kappa_y)])
    scale = d * (l * arc.kappa)
    return np.array([scale * math.cos(arc.theta), scale * math.sin(arc.theta)])


class TestArcMapsPastTheFloatRange:
    """clarke_from_arc, f_dep_inverse and virtual_displacement return a finite
    result with the bits of their unchecked formula, or refuse it in one
    line; they never warn."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(3, 64),
        st.floats(-300.0, 300.0),
        st.floats(-300.0, 298.0),
        st.floats(-1.7e308, 1.7e308) | st.sampled_from([1.7e308, -1.7e308, 1e306, 0.0]),
        st.floats(-1.7e308, 1.7e308) | st.sampled_from([1.7e308, -1.7e308, 1e306, 0.0]),
    )
    def test_results_are_finite_or_refused(self, n, log_d, log_l, kx, ky):
        geom = SegmentGeometry(JointLayout(n, 10.0**log_d), 10.0**log_l)
        inverse = build_transform(n).inverse
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arc in (CurvatureCurvature(kx, ky), CurvatureAngle(abs(kx), ky % 7.0)):
                with np.errstate(over="ignore", invalid="ignore"):
                    xi = unchecked_clarke_from_arc(geom, arc)
                    rho = left_to_right(inverse, xi)
                if not all_finite(xi):
                    for call in (lambda: clarke_from_arc(geom, arc), lambda: f_dep_inverse(geom, arc)):
                        with pytest.raises(ValueError, match="past the float range"):
                            call()
                    continue
                assert clarke_from_arc(geom, arc).tobytes() == xi.tobytes()
                if all_finite(rho):
                    assert f_dep_inverse(geom, arc).tobytes() == rho.tobytes()
                else:
                    with pytest.raises(ValueError, match="past the float range"):
                        f_dep_inverse(geom, arc)
            ca = CurvatureAngle(abs(kx), ky % 7.0)
            total = geom.layout.d * (geom.l * ca.kappa)
            if math.isfinite(total):
                expected = (total, total * math.cos(ca.theta), total * math.sin(ca.theta))
                assert virtual_displacement(geom, ca) == expected
            else:
                with pytest.raises(ValueError, match="past the float range"):
                    virtual_displacement(geom, ca)

    def test_the_reported_cases(self):
        geom = SegmentGeometry(JointLayout(5, 1.0), 1e3)
        for call in (
            lambda: f_dep_inverse(geom, CurvatureCurvature(1e306, 1e306)),
            lambda: clarke_from_arc(geom, CurvatureCurvature(1e306, -1e306)),
            lambda: virtual_displacement(geom, CurvatureAngle(1e306, 1.0)),
        ):
            with pytest.raises(ValueError, match="past the float range"):
                call()


def angles_of(x, y):
    """The angle of (x, y) by the rule itself, arc_from_clarke and ccr_to_car."""
    geom = SegmentGeometry(JointLayout(3, 0.01), 0.1)
    return _angle(x, y), arc_from_clarke(geom, [x, y]).theta, ccr_to_car(CurvatureCurvature(x, y)).theta


class TestOneAngleRule:
    """arcspace._angle, arc_from_clarke and ccr_to_car give a 2-vector
    one angle: atan2(y + 0.0, x + 0.0) in (-pi, pi], and +0.0 at the origin."""

    @pytest.mark.parametrize("x, y", list(itertools.product([0.0, -0.0], repeat=2)))
    def test_the_origin_with_either_sign_of_zero(self, x, y):
        for angle in angles_of(x, y):
            assert angle == 0.0 and math.copysign(1.0, angle) == 1.0

    @pytest.mark.parametrize(
        "x, y",
        [(x, y) for x in (-1e-3, -1.0, -1e300) for y in (0.0, -0.0, -1e-20, -5e-324)] + [(-5e-324, 0.0), (-5e-324, -0.0)],
    )
    def test_the_negative_x_axis_is_pi(self, x, y):
        # Under a bare atan2, y = -0.0 gives -pi, and so does a y below zero
        # by less than about 3e-16*|x|, where the angle rounds to -pi.
        assert angles_of(x, y) == (math.pi,) * 3

    @pytest.mark.parametrize("x, y", [(1.0, -0.0), (2.0, 0.0), (5e-324, -0.0)])
    def test_the_positive_x_axis_is_zero(self, x, y):
        for angle in angles_of(x, y):
            assert angle == 0.0 and math.copysign(1.0, angle) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))
    def test_all_three_agree_in_the_half_open_range(self, x, y):
        angles = angles_of(x, y)
        assert angles[0] == angles[1] == angles[2]
        assert -math.pi < angles[0] <= math.pi
        if x or y:
            assert angles[0] == math.atan2(y, x) or (angles[0] == math.pi and math.atan2(y, x) == -math.pi)
