"""Robot-dependent mappings, branchless FK, closed-form IK, pose recovery."""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import sys
import tokenize
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clarkekin import (
    CurvatureAngle,
    CurvatureCurvature,
    JointLayout,
    Pose,
    SamplerConfig,
    SegmentGeometry,
    arc_from_clarke,
    build_transform,
    f_dep,
    f_dep_curvature_angle,
    f_dep_inverse,
    f_ind,
    f_ind_inverse,
    fk_direct,
    ik,
    ik_position,
    inverse_transform,
    manifold_residual,
    recover_pose_from_position,
    sample_direct_batched,
    transform,
)
from clarkekin import clarke, kinematics
from clarkekin.cli import main
from clarkekin.clarke import _product, all_finite
from clarkekin.kinematics import (
    _ELEMENTWISE,
    BEND_ROUNDING_TOL,
    POSITION_Z_FLOOR,
    REACH_TOL,
    _arc,
    _built_pose,
    _fk_clarke,
    _fk_gives_back,
    _polar,
)
from test_products import left_to_right


def make_geom(n=5, d=0.01, l=0.1):
    return SegmentGeometry(layout=JointLayout(n=n, d=d), l=l)


def manifold_samples(geom, k, seed=0, lo=0.1, hi=0.95):
    """Random on-manifold displacement columns with bending angle in
    (lo*pi, hi*pi), clear of both the straight pose and the p_z = 0 rim."""
    d = geom.layout.d
    cfg = SamplerConfig(layout=geom.layout, rho_min=lo * d * np.pi, rho_max=hi * d * np.pi, seed=seed)
    return sample_direct_batched(cfg, k, "annulus").columns


class TestFDep:
    def test_inverse_zero(self):
        geom = make_geom()
        assert np.max(np.abs(f_dep_inverse(geom, CurvatureCurvature(0.0, 0.0)))) == 0.0

    def test_inverse_example_n3(self):
        geom = make_geom(n=3)
        rho = f_dep_inverse(geom, CurvatureCurvature(10.0, 0.0))
        assert np.max(np.abs(rho - [0.01, -0.005, -0.005])) < 1e-15

    def test_inverse_matches_per_joint_cosine(self):
        # Same map written joint by joint: rho_i = d*l*kappa*cos(psi_i - theta).
        rng = np.random.default_rng(0)
        for n in (3, 4, 5, 8):
            geom = make_geom(n=n)
            psi = geom.layout.psi
            for _ in range(50):
                kappa = rng.uniform(0.0, 30.0)
                theta = rng.uniform(-np.pi, np.pi)
                via_matrix = f_dep_inverse(geom, CurvatureAngle(kappa, theta))
                per_joint = geom.layout.d * geom.l * kappa * np.cos(psi - theta)
                assert np.max(np.abs(via_matrix - per_joint)) < 1e-12

    def test_forward_zero(self):
        cc = f_dep(make_geom(), np.zeros(5))
        assert (cc.kappa_x, cc.kappa_y) == (0.0, 0.0)

    def test_forward_example_n3(self):
        cc = f_dep(make_geom(n=3), [0.01, -0.005, -0.005])
        assert cc.kappa_x == pytest.approx(10.0, rel=1e-12)
        assert abs(cc.kappa_y) < 1e-9

    def test_round_trip_curvatures(self):
        rng = np.random.default_rng(1)
        for n in (3, 4, 5, 8):
            geom = make_geom(n=n)
            for _ in range(200):
                cc = CurvatureCurvature(*rng.uniform(-40, 40, 2))
                back = f_dep(geom, f_dep_inverse(geom, cc))
                assert abs(back.kappa_x - cc.kappa_x) < 1e-12
                assert abs(back.kappa_y - cc.kappa_y) < 1e-12

    def test_inverse_then_forward_is_projection(self):
        geom = make_geom(n=6)
        t = build_transform(6)
        rng = np.random.default_rng(2)
        rho = rng.standard_normal(6)
        projected = f_dep_inverse(geom, f_dep(geom, rho))
        assert np.max(np.abs(projected - t.inverse @ (t.forward @ rho))) < 1e-14
        on_q = inverse_transform(t, rng.standard_normal(2))
        assert np.max(np.abs(f_dep_inverse(geom, f_dep(geom, on_q)) - on_q)) < 1e-14

    def test_off_manifold_equals_projected(self):
        geom = make_geom(n=4)
        t = build_transform(4)
        rho = np.array([1.0, -1.0, 1.0, -1.0])
        direct = f_dep(geom, rho)
        proj = f_dep(geom, t.inverse @ (t.forward @ rho))
        assert abs(direct.kappa_x - proj.kappa_x) < 1e-12
        assert abs(direct.kappa_y - proj.kappa_y) < 1e-12


class TestFDepCurvatureAngle:
    def test_zero(self):
        ca = f_dep_curvature_angle(make_geom(), np.zeros(5))
        assert (ca.kappa, ca.theta) == (0.0, 0.0)

    def test_first_column_direction(self):
        geom = make_geom(n=5)
        t = build_transform(5)
        kappa0 = 7.5
        rho = geom.layout.d * geom.l * kappa0 * t.inverse[:, 0]
        ca = f_dep_curvature_angle(geom, rho)
        assert ca.kappa == pytest.approx(kappa0, rel=1e-12)
        assert abs(ca.theta) < 1e-12

    def test_two_curvature_formulas_agree(self):
        # kappa from the Clarke amplitude and from the scaled joint norm.
        rng = np.random.default_rng(3)
        for n in (3, 5, 8):
            geom = make_geom(n=n)
            t = build_transform(n)
            d, l = geom.layout.d, geom.l
            for _ in range(100):
                rho = inverse_transform(t, rng.uniform(-0.03, 0.03, 2))
                via_norm = math.sqrt(2 * n) / (d * l * n) * np.linalg.norm(rho)
                via_clarke = np.linalg.norm(t.forward @ rho) / (d * l)
                assert via_norm == pytest.approx(via_clarke, rel=1e-12, abs=1e-12)
                assert f_dep_curvature_angle(geom, rho).kappa == pytest.approx(via_norm, rel=1e-12)

    def test_consistent_with_f_dep(self):
        geom = make_geom(n=4)
        rho = manifold_samples(geom, 1, seed=5)[:, 0]
        ca = f_dep_curvature_angle(geom, rho)
        cc = f_dep(geom, rho)
        assert ca.kappa * math.cos(ca.theta) == pytest.approx(cc.kappa_x, rel=1e-12, abs=1e-12)
        assert ca.kappa * math.sin(ca.theta) == pytest.approx(cc.kappa_y, rel=1e-12, abs=1e-12)

    def test_off_manifold_rejected_naming_residual(self):
        geom = make_geom(n=4)
        with pytest.raises(ValueError, match="residual"):
            f_dep_curvature_angle(geom, [1.0, -1.0, 1.0, -1.0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(3, 64),
        st.floats(-4.0, 2.0).map(lambda e: 10.0**e),
        st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, 1.999 * np.pi]) | st.floats(0.0, 1.99 * np.pi),
        st.floats(-np.pi, np.pi),
    )
    @example(5, 0.01, 0.1, 1.0, 0.5)  # the plane's division read kappa one ulp off
    @example(3, 1.0, 1.0, 1e-300, 3.0)
    def test_the_arc_of_its_clarke_pair_bit_for_bit(self, n, d, l, bend, theta):
        # An on-manifold column of any bend in FK's domain, near-straight and
        # near-full-circle included: kappa and theta are arc_from_clarke's of
        # the column's Clarke pair, to the bit.
        geom, t = make_geom(n=n, d=d, l=l), build_transform(n)
        rho = inverse_transform(t, [bend * d * math.cos(theta), bend * d * math.sin(theta)])
        got, expected = f_dep_curvature_angle(geom, rho), arc_from_clarke(geom, transform(t, rho))
        assert (got.kappa.hex(), got.theta.hex()) == (expected.kappa.hex(), expected.theta.hex())


class TestFInd:
    def test_straight(self):
        pose = f_ind(make_geom(), CurvatureAngle(0.0, 0.0))
        assert np.array_equal(pose.rotation, np.eye(3))
        assert np.max(np.abs(pose.position - [0.0, 0.0, 0.1])) == 0.0

    def test_half_circle(self):
        geom = make_geom()
        pose = f_ind(geom, CurvatureAngle(np.pi / geom.l, 0.0))
        assert np.max(np.abs(pose.position - [2 * geom.l / np.pi, 0.0, 0.0])) < 1e-12

    def test_quarter_circle(self):
        geom = make_geom()
        pose = f_ind(geom, CurvatureAngle(np.pi / (2 * geom.l), 0.0))
        expect = 2 * geom.l / np.pi
        assert np.max(np.abs(pose.position - [expect, 0.0, expect])) < 1e-12

    def test_curvature_below_the_smallest_normal_float(self):
        # Its radius overflows and kappa*l loses bits, yet the tip is the
        # arc's: (0, 0, l) to rounding, in the plane theta.
        geom = make_geom(l=0.1)
        for kappa in (5e-324, 1e-310, 2e-308):
            pose = f_ind(geom, CurvatureAngle(kappa, 1.0))
            assert np.max(np.abs(pose.position - [0.0, 0.0, geom.l])) <= 1e-15 * geom.l
            assert np.max(np.abs(pose.rotation - rotation_from_angles(1.0, 0.0, 0.0))) <= 1e-300

    def test_bend_past_the_float_range_is_refused(self):
        geom = make_geom(l=10.0)
        message = rejection(lambda: f_ind(geom, CurvatureAngle(1e308, 0.0)))
        assert "kappa=1e+308" in message and "l=10 " in message and "\n" not in message

    def test_rotation_structure(self):
        geom = make_geom()
        rng = np.random.default_rng(4)
        for _ in range(50):
            kappa = rng.uniform(0.1, 0.9) * np.pi / geom.l
            theta = rng.uniform(-np.pi, np.pi)
            pose = f_ind(geom, CurvatureAngle(kappa, theta))
            phi = kappa * geom.l
            assert pose.rotation[2, 0] == pytest.approx(-math.sin(phi), abs=1e-15)
            assert pose.rotation[2, 2] == pytest.approx(math.cos(phi), abs=1e-15)
            assert pose.rotation[0, 1] == pytest.approx(-math.sin(theta), abs=1e-15)
            assert pose.rotation[1, 1] == pytest.approx(math.cos(theta), abs=1e-15)
            assert pose.rotation[2, 1] == 0.0


def _function_has_branch_tokens(func) -> bool:
    import inspect

    source = inspect.getsource(func)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME and tok.string in ("if", "else", "elif", "while"):
            return True
    return False


class TestFkDirect:
    def test_straight_regularized(self):
        # rho = 0 is the straight arc, its curvature raised to the smallest
        # normal float: the identity and (0, 0, l) to rounding.
        geom = make_geom()
        pose = fk_direct(geom, np.zeros(5))
        assert np.max(np.abs(pose.position - [0.0, 0.0, geom.l])) <= 1e-15 * geom.l
        assert np.max(np.abs(pose.rotation - np.eye(3))) <= 1e-300

    def test_no_branch_in_implementation(self):
        assert not _function_has_branch_tokens(fk_direct)

    def test_no_branch_in_the_shared_tail(self):
        # fk_direct hands its bend to these; they must not branch either.
        for func in (_polar, _arc, _built_pose):
            assert not _function_has_branch_tokens(func)

    def test_both_shapes_define_the_same_elementwise_names(self):
        # A helper the shared tail calls must exist for one column and for a
        # batch alike, or one of the two shapes fails only when it runs.
        assert vars(_ELEMENTWISE[1]).keys() == vars(_ELEMENTWISE[2]).keys()

    def test_agrees_with_composed_path(self):
        # Bends from 0.1*pi to 0.95*pi, then small ones (|rho| well below
        # 1e-3), where an amplitude nudged away from zero tilts the plane.
        for n in (3, 4, 5, 8):
            geom = make_geom(n=n)
            for lo, hi, large in ((0.1, 0.95, True), (1e-9, 1e-3, False)):
                cols = manifold_samples(geom, 100, seed=n, lo=lo, hi=hi)
                for i in range(cols.shape[1]):
                    rho = cols[:, i]
                    assert (np.linalg.norm(rho) > 1e-3) == large
                    direct = fk_direct(geom, rho)
                    composed = f_ind(geom, f_dep_curvature_angle(geom, rho))
                    assert np.max(np.abs(direct.position - composed.position)) < 1e-9
                    assert np.linalg.norm(direct.rotation - composed.rotation) < 1e-9

    def test_half_circle_displacement(self):
        geom = make_geom()
        t = build_transform(5)
        rho = inverse_transform(t, [geom.layout.d * np.pi, 0.0])
        pose = fk_direct(geom, rho)
        assert np.max(np.abs(pose.position - [2 * geom.l / np.pi, 0.0, 0.0])) < 1e-9

    def test_continuity_through_zero(self):
        geom = make_geom()
        t = build_transform(5)
        eps = 1e-12
        direction = inverse_transform(t, [0.7, 0.3])
        p0 = fk_direct(geom, np.zeros(5)).position
        for scale in (1e-16, 1e-15, 1e-14):
            for sign in (+1.0, -1.0):
                p = fk_direct(geom, sign * scale * direction).position
                assert np.max(np.abs(p - p0)) < 10 * eps * geom.l


def test_taylor_series_oracle():
    # Truncated expansions of sin(kl)/k and (1-cos(kl))/k against direct
    # evaluation in the small-angle regime. The versine is evaluated as
    # 2*sin(x/2)^2, the cancellation-free form of 1-cos(x).
    l = 0.1
    rng = np.random.default_rng(5)
    for kappa in rng.uniform(1e-8, 1e-3 / l, 200):
        x = kappa * l
        sinc_series = l - l**3 * kappa**2 / 6.0 + l**5 * kappa**4 / 120.0 - l**7 * kappa**6 / 5040.0
        vers_series = l**2 * kappa / 2.0 - l**4 * kappa**3 / 24.0 + l**6 * kappa**5 / 720.0
        assert math.sin(x) / kappa == pytest.approx(sinc_series, abs=1e-12)
        assert 2.0 * math.sin(x / 2.0) ** 2 / kappa == pytest.approx(vers_series, abs=1e-12)


class TestFIndInverse:
    def test_straight_position(self):
        geom = make_geom()
        cc = f_ind_inverse(geom, np.array([0.0, 0.0, geom.l]))
        assert (cc.kappa_x, cc.kappa_y) == (0.0, 0.0)

    def test_quarter_circle_position(self):
        geom = make_geom()
        p = np.array([2 * geom.l / np.pi, 0.0, 2 * geom.l / np.pi])
        cc = f_ind_inverse(geom, p)
        assert cc.kappa_x == pytest.approx(np.pi / (2 * geom.l), rel=1e-12)
        assert abs(cc.kappa_y) < 1e-9

    def test_rotation_target_round_trip(self):
        geom = make_geom()
        pose = f_ind(geom, CurvatureAngle(5.0, np.pi / 3))
        cc = f_ind_inverse(geom, pose.rotation)
        assert cc.kappa_x == pytest.approx(5.0 * math.cos(np.pi / 3), rel=1e-12)
        assert cc.kappa_y == pytest.approx(5.0 * math.sin(np.pi / 3), rel=1e-12)

    def test_pose_target_round_trip(self):
        geom = make_geom()
        pose = f_ind(geom, CurvatureAngle(8.0, -2.0))
        cc = f_ind_inverse(geom, pose)
        assert cc.kappa_x == pytest.approx(8.0 * math.cos(-2.0), rel=1e-11)
        assert cc.kappa_y == pytest.approx(8.0 * math.sin(-2.0), rel=1e-11)

    def test_position_table_consistency(self):
        # kappa from the position column equals the norm of its curvature
        # components.
        geom = make_geom()
        rng = np.random.default_rng(6)
        for _ in range(100):
            pose = f_ind(geom, CurvatureAngle(rng.uniform(0.5, 25.0), rng.uniform(-np.pi, np.pi)))
            p = pose.position
            cc = f_ind_inverse(geom, p)
            s = float(p @ p)
            kappa_direct = 2.0 * math.hypot(p[0], p[1]) / s
            assert math.hypot(cc.kappa_x, cc.kappa_y) == pytest.approx(kappa_direct, rel=1e-12)

    def test_half_circle_position_prohibited(self):
        geom = make_geom()
        with pytest.raises(ValueError, match="p_z"):
            f_ind_inverse(geom, np.array([2 * geom.l / np.pi, 0.0, 0.0]))

    def test_origin_prohibited(self):
        geom = make_geom()
        with pytest.raises(ValueError, match="origin"):
            f_ind_inverse(geom, np.zeros(3))

    def test_invalid_rotation_rejected(self):
        geom = make_geom()
        with pytest.raises(ValueError, match="rotation"):
            f_ind_inverse(geom, 2.0 * np.eye(3))


class TestIk:
    def test_straight_target(self):
        geom = make_geom()
        rho = ik(geom, np.array([0.0, 0.0, geom.l]))
        assert np.max(np.abs(rho)) < 1e-15

    def test_quarter_circle_pose(self):
        geom = make_geom()
        pose = f_ind(geom, CurvatureAngle(np.pi / (2 * geom.l), 0.0))
        rho = ik(geom, pose)
        expected = f_dep_inverse(geom, CurvatureAngle(np.pi / (2 * geom.l), 0.0))
        assert np.max(np.abs(rho - expected)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_fk_ik_round_trip(self, n):
        geom = make_geom(n=n)
        t = build_transform(n)
        cols = manifold_samples(geom, 200, seed=10 + n)
        for i in range(cols.shape[1]):
            rho = cols[:, i]
            pose = fk_direct(geom, rho)
            for target in (pose.position, pose, pose.rotation):
                back = ik(geom, target)
                assert manifold_residual(t, back) <= 1e-9
                assert np.max(np.abs(back - rho)) < 1e-9
            again = fk_direct(geom, ik(geom, pose))
            assert np.max(np.abs(again.position - pose.position)) < 1e-9
            assert np.linalg.norm(again.rotation - pose.rotation) < 1e-9

    def test_orientation_only_independent_of_length(self):
        # The rotation fixes kappa*l, so the displacement solution does not
        # involve l at all: different lengths give bitwise equal output.
        layout = JointLayout(n=5, d=0.01)
        geom1 = SegmentGeometry(layout=layout, l=0.1)
        geom2 = SegmentGeometry(layout=layout, l=0.2)
        pose = f_ind(geom1, CurvatureAngle(6.0, 1.1))
        rho1 = ik(geom1, pose.rotation)
        rho2 = ik(geom2, pose.rotation)
        assert np.array_equal(rho1, rho2)
        # The recovered curvature components scale inversely with l.
        cc1 = f_ind_inverse(geom1, pose.rotation)
        cc2 = f_ind_inverse(geom2, pose.rotation)
        assert cc1.kappa_x == pytest.approx(2.0 * cc2.kappa_x, rel=1e-12)
        assert cc1.kappa_y == pytest.approx(2.0 * cc2.kappa_y, rel=1e-12)

    def test_matches_composition(self):
        geom = make_geom(n=4)
        pose = f_ind(geom, CurvatureAngle(9.0, 0.4))
        via_table = ik(geom, pose)
        via_composition = f_dep_inverse(geom, f_ind_inverse(geom, pose))
        assert np.max(np.abs(via_table - via_composition)) < 1e-12

    def test_prohibited_region(self):
        geom = make_geom()
        with pytest.raises(ValueError, match="p_z"):
            ik(geom, np.array([0.01, 0.0, -0.05]))

    def test_pose_off_the_arc_of_its_rotation_is_refused(self):
        # The identity describes the straight arc, whose tip is (0, 0, l):
        # no displacements reach the identity at (0, 0, l/2).
        geom = make_geom(l=0.1)
        pose = Pose(rotation=np.eye(3), position=[0.0, 0.0, 0.05])
        for refused in (lambda: ik(geom, pose), lambda: f_ind_inverse(geom, pose)):
            with pytest.raises(ValueError, match="not the tip of the arc its rotation describes"):
                refused()

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, 1.0 - 1e-6, 1e300])
    def test_stack_with_one_pose_off_its_arc_is_refused_without_a_warning(self, scale):
        geom = make_geom()
        poses = fk_direct(geom, manifold_samples(geom, 3, seed=8))
        position = poses.position.copy()
        position[1] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ik(geom, poses)  # as FK built them
            with pytest.raises(ValueError, match="not the tip of the arc"):
                ik(geom, Pose(rotation=poses.rotation, position=position))

    @pytest.mark.parametrize(
        "alpha, beta, gamma, gap",
        # Twisted about the tip tangent; bent backward, which IK reads as a
        # bend of 0.5 toward +x; turned about z with no bend, which IK reads
        # as straight.
        [(0.4, 0.8, 0.5, 0.34), (0.0, -0.5, 0.0, 0.96), (0.5, 0.0, 0.0, 0.48)],
    )
    def test_rotation_no_arc_reaches_is_refused(self, alpha, beta, gamma, gap):
        geom = make_geom(n=5, l=0.1)
        r = rotation_from_angles(alpha, beta, gamma)
        # The frame of the bend IK finds misses r by gap in some entry.
        bx, by = math.atan2(math.hypot(r[2, 0], r[2, 1]), r[2, 2]) * np.array([r[1, 1], -r[0, 1]])
        rebuilt = rotation_from_angles(math.atan2(by + 0.0, bx + 0.0), math.hypot(bx, by), 0.0)
        assert np.max(np.abs(rebuilt - r)) == pytest.approx(gap, abs=0.01)
        for refused in (lambda: ik(geom, r), lambda: f_ind_inverse(geom, r)):
            with pytest.raises(ValueError, match="target rotation is the tip frame of no arc"):
                refused()

    @pytest.mark.parametrize("alpha, beta, phi", [(0.0, -0.5, 0.5), (0.5, 0.0, 0.0)])
    def test_pose_whose_rotation_no_arc_reaches_is_refused(self, alpha, beta, phi):
        # Rz(alpha) @ Ry(beta) at the tip of the bend phi toward +x, which
        # passes the arc-end test: Ry(-0.5) at the tip of a 0.5 rad bend,
        # and Rz(0.5) at (0, 0, l). Alone and in a stack after a good pose.
        geom = make_geom(n=5, l=0.1)
        rotation = rotation_from_angles(alpha, beta, 0.0)
        position = arc_end_oracle(geom.l, phi, 0.0)
        fine = fk_direct(geom, manifold_samples(geom, 1, seed=3)[:, 0])
        for target in (
            Pose(rotation=rotation, position=position),
            Pose(rotation=np.stack([fine.rotation, rotation]), position=np.stack([fine.position, position])),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="target rotation is the tip frame of no arc"):
                    ik(geom, target)

    @pytest.mark.parametrize("beta", [-1e-300, -1e-12])
    def test_backward_bend_within_the_tolerance_of_straight_is_accepted(self, beta):
        # IK reads Ry(beta) as the bend |beta| toward +x, whose frame is
        # within 2|beta| of Ry(beta).
        geom = make_geom(n=5, l=0.1)
        r = rotation_from_angles(0.0, beta, 0.0)
        for rho in (ik(geom, r), f_dep_inverse(geom, f_ind_inverse(geom, r))):
            assert np.max(np.abs(fk_direct(geom, rho).rotation - r)) <= 1e-9

    def test_backward_bend_past_the_tolerance_is_refused(self):
        geom = make_geom(n=5, l=0.1)
        message = rejection(lambda: ik(geom, rotation_from_angles(0.0, -2e-9, 0.0)))
        assert message.startswith("target rotation is the tip frame of no arc") and "\n" not in message

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_fk_frames_of_straight_and_tiny_bends_are_accepted(self, n):
        # Rows as the kin-batch benchmark draws them, plus bends of 1e-12 m
        # of displacement and exactly straight columns, as one stack and as
        # single rotations.
        geom = make_geom(n=n)
        rng = np.random.default_rng(n)
        amp = 0.99 * rng.random(200)
        amp[:20] = 0.0
        amp[20:40] = 1e-12 / (geom.layout.d * np.pi)
        cols = displacement_columns(n, geom.layout.d, amp, 2.0 * np.pi * rng.random(200))
        poses = fk_direct(geom, cols)
        assert np.max(np.abs(ik(geom, poses) - cols)) <= 1e-9
        for i in range(cols.shape[1]):
            assert np.max(np.abs(ik(geom, poses.rotation[i]) - cols[:, i])) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(3, 64),
        st.floats(-4.0, 0.0),
        st.floats(-3.0, 1.0),
        st.floats(-np.pi, np.pi),
        st.floats(-323.3, -290.0),  # beta from 5e-324 to 1e-290
    )
    @example(n=5, log_d=-2.0, log_l=-1.0, theta=1.0, log_beta=math.log10(2.2250738585e-313))
    def test_subnormal_bends_are_refused_or_given_back(self, n, log_d, log_l, theta, log_beta):
        # Rz(theta) @ Ry(beta) with a subnormal beta: the displacements of
        # that bend are subnormal too and may lose the bending plane. IK
        # refuses the target then; whatever it returns, FK gives back.
        geom = make_geom(n=n, d=10.0**log_d, l=10.0**log_l)
        beta = 10.0**log_beta
        rotation = rotation_from_angles(theta, beta, 0.0)
        for target in (rotation, Pose(rotation=rotation, position=arc_end_oracle(geom.l, beta, theta))):
            try:
                rho = ik(geom, target)
            except ValueError as exc:
                assert str(exc).startswith("target rotation is the tip frame of no arc")
                continue
            pose = fk_direct(geom, rho)
            assert np.max(np.abs(pose.rotation - rotation)) <= 1e-9
            if isinstance(target, Pose):
                assert np.max(np.abs(pose.position - target.position)) <= REACH_TOL * np.linalg.norm(target.position)


@st.composite
def reach_cases(draw):
    """A geometry, a bend angle phi and a bending-plane angle theta: phi
    from exactly straight through near the half circle to past it."""
    n = draw(st.integers(3, 64))
    d = 10.0 ** draw(st.floats(-4.0, 0.0))
    l = 10.0 ** draw(st.floats(-3.0, 1.0))
    phi = draw(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, 1e-6),
            st.floats(1e-6, np.pi),
            st.floats(1.0, 7.0).map(lambda e: np.pi * (1.0 - 10.0**-e)),
            st.floats(np.pi, 1.5 * np.pi),
        )
    )
    return make_geom(n=n, d=d, l=l), phi, draw(st.floats(-np.pi, np.pi))


def arc_end_oracle(l, phi, theta):
    """Tip of an arc of length l bent by phi in the plane theta, in chord form:
    the chord l*sinc(phi/(2*pi)) at phi/2 from the z-axis. Unlike 1 - cos(phi),
    no term cancels near the straight pose."""
    chord = l * np.sinc(phi / (2.0 * np.pi))
    return chord * np.array([np.sin(phi / 2) * np.cos(theta), np.sin(phi / 2) * np.sin(theta), np.cos(phi / 2)])


def fk_oracle(geom, rho):
    ca = f_dep_curvature_angle(geom, rho)
    return arc_end_oracle(geom.l, ca.kappa * geom.l, ca.theta)


class TestNearStraightTip:
    """Near the straight pose the tip keeps full precision; a bow of
    1 - cos(phi) would lose up to 4.9e-10 m at l = 0.1 and 4.9e-8 m at l = 10."""

    @pytest.mark.parametrize("l", [0.1, 10.0])
    def test_tip_within_1e_15_l_of_the_arc_end(self, l):
        geom = make_geom(n=3, d=0.01, l=l)
        arcs = [CurvatureAngle(phi / l, theta) for phi in np.geomspace(1e-10, 1e-2, 81) for theta in (0.3, -2.0)]
        cols = np.stack([f_dep_inverse(geom, ca) for ca in arcs], axis=1)
        batch = fk_direct(geom, cols).position
        for i, ca in enumerate(arcs):
            exact = arc_end_oracle(l, ca.kappa * l, ca.theta)
            assert np.max(np.abs(f_ind(geom, ca).position - exact)) <= 1e-15 * l
            for tip in (fk_direct(geom, cols[:, i]).position, batch[i]):
                assert np.max(np.abs(tip - fk_oracle(geom, cols[:, i]))) <= 1e-15 * l


def exact_arc_oracle(geom, xi):
    """What fk_direct computes for a Clarke pair xi (2,): f_ind of its arc."""
    return f_ind(geom, arc_from_clarke(geom, xi))


def divided_polar(x, y):
    """(|v|, cos, sin) of v = (x, y) written apart from kinematics._polar,
    with a branch at the origin: v over max(|x|, |y|), then over the root
    of the sum of its squares. + 0.0 turns -0.0 into +0.0."""
    m = max(abs(x), abs(y))
    if m == 0.0:
        return 0.0, 1.0, 0.0
    u, v = (x + 0.0) / m, (y + 0.0) / m
    s = math.sqrt(u * u + v * v)
    return m * s, u / s, v / s


def rowwise_polar(x, y):
    """divided_polar of each row (x[i], y[i]) of two (k,) arrays, as three (k,) arrays."""
    return np.array([divided_polar(a, b) for a, b in zip(x.tolist(), y.tolist())]).reshape(-1, 3).T


def in_fk_domain(geom, rho, amplitude):
    """FK's domain from its definition: the bend amplitude/d below a full
    circle, and the transform's rounding bound 2n*2^-53*max|rho|/d on that
    bend below BEND_ROUNDING_TOL. amplitude is |xi| rounded as FK rounds it
    (divided_polar), one rule for a column and for each row of a batch;
    its last bit decides a bend at 2*pi*d."""
    n, d = geom.layout.n, geom.layout.d
    return amplitude < 2.0 * math.pi * d and 2.0 * n * 2.0**-53 * np.max(np.abs(rho)) / d < BEND_ROUNDING_TOL


def assert_exact_arc(geom, pose, xi):
    exact = exact_arc_oracle(geom, xi)
    assert np.max(np.abs(pose.rotation - exact.rotation)) <= 1e-14
    assert np.max(np.abs(pose.position - exact.position)) <= 1e-14 * geom.l


def cli_run(argv):
    """(exit code, stdout, stderr) of the CLI on argv; a warning raises."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def geometry_flags(geom):
    return ["--n", str(geom.layout.n), "--d", repr(geom.layout.d), "--l", repr(geom.l)]


def cli_fk(geom, rho):
    """(exit code, stdout, stderr) of `fk --rho`; a warning raises."""
    return cli_run(["fk", *geometry_flags(geom), "--rho=" + ",".join(map(repr, np.asarray(rho).tolist()))])


def assert_refused(geom, rho, match):
    with pytest.raises(ValueError, match=match):
        fk_direct(geom, rho)
    code, out, err = cli_fk(geom, rho)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and match in err


# A column at n = 27, d = l = 1 at the edge of FK's domain. Its Clarke pair
# has |xi| = 6.2831853071795858, 4.4e-16 below the float 2*pi. math.hypot
# and np.hypot round it to 2*pi, FK's divided amplitude to an ulp past it:
# refused. A matrix-matrix product rounds the pair of the same column to
# one np.hypot rounds below 2*pi; a batch takes the single call's pair and
# amplitude, so it refuses too.
BATCH_HYPOT_SPLIT_RHO = [
    6.087856292036114, 6.2822462315726995, 6.1379586506663735,
    5.662772130151243, 4.882304098345726, 3.838629788861078,
    2.5880139538666422, 1.1978776167368115, -0.25683661277036457,
    -1.6977047140034096, -3.0470491146700462, -4.2321263088655545,
    -5.189048478305056, -5.866227701143995, -6.227157070197816,
    -6.252378789757742, -5.9405331503939, -5.30843183124263,
    -4.390151578032706, -3.2351971169026545, -1.9058323418008212,
    -0.4737236518461844, 0.9839236027982662, 2.388527281336736,
    3.664364835891099, 4.7426555336570875, 5.565268444012996,
]


@st.composite
def fk_domain_cases(draw):
    """A geometry and one displacement column: a bend phi in the plane theta
    plus a common mode. phi is exactly 0, down to 1e-300, near pi, past pi
    up to and beyond 2*pi; the common mode goes up to 1e308."""
    n = draw(st.integers(3, 64))
    geom = make_geom(n=n, d=10.0 ** draw(st.floats(-4.0, 0.0)), l=10.0 ** draw(st.floats(-3.0, 1.0)))
    phi = draw(
        st.one_of(
            st.just(0.0),
            st.floats(-300.0, -1.0).map(lambda e: 10.0**e),
            st.floats(0.0, 2.0 * np.pi),
            st.floats(1.0, 15.0).map(lambda e: np.pi * (1.0 - 10.0**-e)),
            st.floats(1.0, 15.0).map(lambda e: 2.0 * np.pi * (1.0 - 10.0**-e)),
            st.floats(2.0 * np.pi, 4.0 * np.pi),
        )
    )
    common = draw(st.just(0.0) | st.floats(-20.0, 308.0).map(lambda e: 10.0**e)) * draw(st.sampled_from([1.0, -1.0]))
    psi = 2.0 * np.pi * np.arange(n) / n
    return geom, geom.layout.d * phi * np.cos(psi - draw(st.floats(-np.pi, np.pi))) + common


class TestExactArc:
    """fk_direct is f_ind of the arc of the Clarke pair on FK's domain, and
    refuses every displacement outside it in one line."""

    @settings(max_examples=400, deadline=None)
    @given(fk_domain_cases())
    @example((make_geom(n=27, d=1.0, l=1.0), np.array(BATCH_HYPOT_SPLIT_RHO)))
    def test_matches_the_arc_oracle_or_refuses(self, case):
        geom, rho = case
        t = build_transform(geom.layout.n)
        cols = np.stack([rho, np.zeros_like(rho), rho], axis=1)
        xi = left_to_right(t.forward, rho)
        # A batch column has the Clarke pair and the amplitude of the call
        # on it alone, so one amplitude decides both.
        inside = in_fk_domain(geom, rho, divided_polar(*xi.tolist())[0])
        for x, xis in ((rho, xi[:, None]), (cols, left_to_right(t.forward, cols))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if inside:
                    poses = fk_direct(geom, x)
                    for rotation, position, pair in zip(poses.rotation.reshape(-1, 3, 3), poses.position.reshape(-1, 3), xis.T):
                        assert_exact_arc(geom, Pose(rotation=rotation, position=position), pair)
                    continue
                with pytest.raises(ValueError, match="FK's domain|rounding moves the bend"):
                    fk_direct(geom, x)
        if not inside:
            code, out, err = cli_fk(geom, rho)
            assert code == 3 and out == "" and err.count("\n") == 1 and err.startswith("error: ")

    def test_no_singular_point_where_the_nudged_amplitude_was_short(self):
        # A nudge of xi by delta = sqrt(2/n)*1e-12 along +x, with delta^2
        # added to the amplitude, refused this pair near (-delta, 0) as
        # "not orthonormal".
        geom = make_geom(n=5)
        rho = np.array(
            [
                -6.324555320336758e-13,
                -1.954395075848548e-13,
                5.116672736016927e-13,
                5.116672736016928e-13,
                -1.9543950758485465e-13,
            ]
        )
        t = build_transform(5)
        assert_exact_arc(geom, fk_direct(geom, rho), t.forward @ rho)
        code, _, err = cli_fk(geom, rho)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("d, l", [(1e-4, 1e-3), (1.0, 10.0)])
    def test_zero_and_subnormal_pairs_keep_a_finite_radius(self, d, l):
        # At n = 4 the forward matrix is 0.5*[[1, 0, -1, 0], [0, 1, 0, -1]],
        # so these columns have the Clarke pairs 0, (5e-324, -5e-324),
        # (-5e-324, 0) and (5e-311, -5e-311). A radius d*l/|xi| overflows
        # there, and at d*l = 10 so does l/(|xi|/d) unless phi is floored.
        # The tip is straight, in the plane of xi: Rz(theta). (f_ind of
        # arc_from_clarke takes theta = 0 where |xi|/(d*l) underflows to 0.)
        geom = make_geom(n=4, d=d, l=l)
        t = build_transform(4)
        cols = np.array([[-0.0, 1e-323, 0.0, 1e-310], [0.0, -1e-323, 0.0, 0.0], [0.0, 0.0, 1e-323, 0.0], [-0.0, 0.0, 0.0, 1e-310]])
        poses = fk_direct(geom, cols)
        for i in range(cols.shape[1]):
            xi = t.forward @ cols[:, i]
            assert i == 0 or 0.0 < math.hypot(*xi) < sys.float_info.min
            straight = rotation_from_angles(math.atan2(xi[1] + 0.0, xi[0] + 0.0), 0.0, 0.0)
            for pose in (fk_direct(geom, cols[:, i]), Pose(rotation=poses.rotation[i], position=poses.position[i])):
                assert np.max(np.abs(pose.rotation - straight)) <= 1e-15
                assert np.max(np.abs(pose.position - [0.0, 0.0, geom.l])) <= 1e-15 * geom.l

    @pytest.mark.parametrize("l", [5e-324, 1e-320, 1e-300, 1e-17, 2.0**-53, 2.0**-52])
    def test_segments_below_2_to_the_minus_52_keep_a_finite_radius(self, l, tmp_path):
        # l times the smallest normal float underflows to 0 below l = 2^-52,
        # so the bend is floored at the smallest float there and l/phi stays
        # finite: the straight pose from one column, a batch, f_ind and the
        # CLI, and no displacement for IK of the identity.
        geom = make_geom(n=3, d=0.01, l=l)
        batch = fk_direct(geom, np.zeros((3, 2)))
        poses = [fk_direct(geom, np.zeros(3)), f_ind(geom, CurvatureAngle(1e-310, 0.0))]
        poses += [Pose(rotation=r, position=p) for r, p in zip(batch.rotation, batch.position)]
        code, out, err = cli_fk(geom, np.zeros(3))
        assert code == 0 and err == ""
        poses.append(Pose(**json.loads(out)))
        src = tmp_path / "rho.csv"
        src.write_text("rho_1,rho_2,rho_3\n0,0,0\n")
        code, out, err = cli_run(["fk", *geometry_flags(geom), "--in", str(src)])
        assert code == 0 and err == ""
        row = np.array(out.splitlines()[1].split(","), dtype=float)
        poses.append(Pose(rotation=row[:9].reshape(3, 3), position=row[9:]))
        for pose in poses:
            assert np.max(np.abs(pose.rotation - np.eye(3))) <= 1e-15
            assert np.max(np.abs(pose.position - [0.0, 0.0, l])) <= 1e-15 * l + 5e-324
        assert not ik(geom, np.eye(3)).any()
        code, out, err = cli_run(["ik", *geometry_flags(geom), "--rotation", "1,0,0,0,1,0,0,0,1"])
        assert code == 0 and err == "" and json.loads(out)["rho"] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("l", [5e-324, 1e-320, 1e-300, 2.0**-60, 2.0**-53, 2.0**-52, 1e-3, 0.1, 1e3, 1e100, 4.4e298])
    def test_the_segment_computes_its_least_bend(self, l):
        # l*float_min, and 5e-324 where that underflows (l < 2^-52); a copy
        # with another length computes its own.
        geom = make_geom(n=3, l=l)
        assert geom.least_bend == max(l * sys.float_info.min, 5e-324) > 0.0
        assert (geom.least_bend == 5e-324) == (l <= 2.0**-52)
        for other in (1e-310, 0.5, 1e200):
            copy = dataclasses.replace(geom, l=other)
            assert copy.least_bend == max(other * sys.float_info.min, 5e-324)
            assert copy == make_geom(n=3, l=other) and "least_bend" not in repr(copy)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(5e-324, sys.float_info.max),
        st.sampled_from([0.0, 5e-324, 1e-310, 1e-100, 1e-12]),
        st.floats(-np.pi, np.pi),
    )
    @example(4.49e298, 0.0, 0.0)
    @example(4.5e298, 0.0, 0.0)
    @example(sys.float_info.max, 5e-324, 0.0)
    def test_straight_at_every_length_or_refused(self, l, bend, theta):
        # FK raises a smaller bend to l*float_min, a real bend for long
        # segments: the tip of zero displacements tilted 0.22 rad at
        # l = 1e307. SegmentGeometry refuses l exactly where that bend
        # reaches 1e-9 rad; every length it takes keeps the straight pose.
        try:
            geom = make_geom(n=3, d=0.01, l=l)
        except ValueError as exc:
            assert l * sys.float_info.min >= 1e-9
            assert str(exc).startswith("segment length must be below 4.494e+298 m")
            return
        poses = [fk_direct(geom, np.zeros(3)), f_ind(geom, CurvatureAngle(0.0, theta))]
        batch = fk_direct(geom, np.zeros((3, 2)))
        poses += [Pose(rotation=r, position=p) for r, p in zip(batch.rotation, batch.position)]
        for pose in poses:
            assert np.max(np.abs(pose.rotation - np.eye(3))) <= 1e-9
        # A bend, however small, keeps its plane: the straight pose Rz(theta).
        if 0.0 < bend / l < math.inf:
            pose = f_ind(geom, CurvatureAngle(bend / l, theta))
            assert np.max(np.abs(pose.rotation - rotation_from_angles(theta, 0.0, 0.0))) <= 1e-9

    def test_cli_refuses_a_segment_past_the_longest(self):
        code, out, err = cli_run(["fk", "--rho", "0,0,0", "--l", "1e308"])
        assert code == 3 and out == ""
        assert err == "error: segment length must be below 4.494e+298 m, where FK's least bend reaches 1e-9 rad, got 1e+308\n"

    def test_bending_plane_is_not_tilted(self):
        # The nudge tilted the rotation by about delta/|xi|: 1.05e-9 at a
        # bend of 0.06 rad, 6.3e-9 at 0.01 and 6.3e-7 at 1e-4 (n = 5, d = 0.01).
        geom = make_geom(n=5, d=0.01)
        t = build_transform(5)
        thetas = np.linspace(-np.pi, np.pi, 9)
        for phi in (0.06, 0.01, 1e-4):
            cols = displacement_columns(5, geom.layout.d, np.full(9, phi / np.pi), thetas)
            for i in range(cols.shape[1]):
                assert_exact_arc(geom, fk_direct(geom, cols[:, i]), t.forward @ cols[:, i])
        # 1,000 columns as the kin-batch benchmark draws them: amplitudes up
        # to 0.99*d*pi, 1% exactly straight, as one batch.
        rng = np.random.default_rng(11)
        amp = 0.99 * rng.random(1000)
        amp[rng.choice(1000, 10, replace=False)] = 0.0
        cols = displacement_columns(5, geom.layout.d, amp, 2.0 * np.pi * rng.random(1000))
        poses = fk_direct(geom, cols)
        for i, xi in enumerate((t.forward @ cols).T):
            assert_exact_arc(geom, Pose(rotation=poses.rotation[i], position=poses.position[i]), xi)

    def test_small_bend_on_a_thin_segment_round_trips(self):
        # The nudge shifted the bend by about epsilon/d: at n = 3, d = 1e-4,
        # l = 1 and a bend of 5.9e-7 rad the round trip missed by 4.08e-9 m.
        geom = make_geom(n=3, d=1e-4, l=1.0)
        for theta in (0.0, 0.3, -2.0, np.pi):
            pose = fk_direct(geom, f_dep_inverse(geom, CurvatureAngle(5.9e-7 / geom.l, theta)))
            assert np.max(np.abs(pose.position - arc_end_oracle(geom.l, 5.9e-7, theta))) <= 1e-15 * geom.l
            for target in (pose, pose.position):
                again = fk_direct(geom, ik(geom, target))
                assert np.max(np.abs(again.position - pose.position)) <= 1e-9

    @pytest.mark.parametrize("common", [1e308, 1e14, 1e10, -1e10])
    def test_common_mode_the_transform_cannot_resolve_is_refused(self, common):
        # At n = 3, d = 0.01 the transform's rounding residue of these read
        # as bends: far past a full circle at 1e308, 0.72*pi at 1e14 and
        # 8e-5*pi at 1e10.
        assert_refused(make_geom(n=3, d=0.01), np.full(3, common), "rounding moves the bend")

    def test_common_mode_within_the_rounding_bound_bends_by_less_than_it(self):
        # Its residue bends by less than BEND_ROUNDING_TOL, in whatever plane
        # the residue points: the tip tangent and position stay straight.
        geom = make_geom(n=5, d=0.01)
        pose = fk_direct(geom, np.full(5, 1e3))
        assert np.max(np.abs(pose.rotation[:, 2] - [0.0, 0.0, 1.0])) <= BEND_ROUNDING_TOL
        assert np.max(np.abs(pose.position - [0.0, 0.0, geom.l])) <= BEND_ROUNDING_TOL * geom.l

    def test_fk_refuses_before_the_product_overflows(self):
        # forward @ rho overflows on these; the rounding bound refuses them
        # first, with no warning, alone, in a batch and at the CLI.
        geom = make_geom(n=3, d=0.01)
        rho = np.array([1.7e308, -1.7e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rounding moves the bend"):
                fk_direct(geom, np.stack([np.zeros(3), rho], axis=1))
        assert_refused(geom, rho, "rounding moves the bend")

    def test_f_dep_curvature_angle_refuses_before_the_residual_overflows(self):
        # The manifold residual and the forward product both overflow here.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rounding moves the bend"):
                f_dep_curvature_angle(make_geom(n=3, d=0.01), [1.7e308, -1.7e308, 1.7e308])

    def test_full_circle_or_more_is_refused(self):
        # 3.18*pi: the arc closes on itself.
        geom = make_geom(n=3, d=0.01)
        assert_refused(geom, [0.1, -0.05, -0.05], "FK's domain")
        with pytest.raises(ValueError, match="FK's domain"):
            f_dep_curvature_angle(geom, [0.1, -0.05, -0.05])
        # One column out of the domain refuses the batch.
        cols = displacement_columns(3, geom.layout.d, [0.5, 2.0, 0.1], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="FK's domain"):
            fk_direct(geom, cols)

    @pytest.mark.parametrize("n, fraction", [(3, 1.2), (5, 1.032)])
    def test_bends_past_pi_below_a_full_circle_are_arcs(self, n, fraction):
        # 1.2*pi at n = 3; 1.032*pi, which the realtime loop's plant reaches,
        # at n = 5. Their tips lie below the base.
        geom = make_geom(n=n, d=0.01)
        rho = displacement_columns(n, geom.layout.d, [fraction], [0.7])[:, 0]
        pose = fk_direct(geom, rho)
        assert_exact_arc(geom, pose, build_transform(n).forward @ rho)
        assert pose.position[2] < 0.0


class TestReach:
    """IK accepts exactly the positions a bend below pi reaches, and their
    displacements reach them again."""

    @settings(max_examples=300, deadline=None)
    @given(reach_cases())
    def test_reached_targets_round_trip_and_scaled_ones_are_refused(self, case):
        geom, phi, theta = case
        exact = arc_end_oracle(geom.l, phi, theta)
        # fk_direct's tip of the same bend, as `fk --in` writes it.
        computed = fk_direct(geom, f_dep_inverse(geom, CurvatureAngle(phi / geom.l, theta))).position
        for p in (exact, computed):
            if p[2] <= POSITION_Z_FLOOR:
                # The half circle and past it.
                with pytest.raises(ValueError, match="p_z"):
                    ik(geom, p)
                continue
            for rho in (
                ik(geom, p),
                ik_position(geom, np.stack([p, p]))[:, 1],
                f_dep_inverse(geom, f_ind_inverse(geom, p)),
            ):
                assert np.max(np.abs(fk_oracle(geom, rho) - p)) <= 1e-9
        if exact[2] <= POSITION_Z_FLOOR:
            return
        for q in (exact * (1.0 + 1e-6), exact * (1.0 - 1e-6)):
            for refused in (
                lambda: ik(geom, q),
                lambda: ik_position(geom, np.stack([exact, q])),
                lambda: f_ind_inverse(geom, q),
            ):
                with pytest.raises(ValueError, match="reachable surface|p_z"):
                    refused()

    def test_mirror_sheet_past_the_half_circle_is_refused(self):
        # |p| equals the chord (2l/phi)*sin(phi/2) here too, but for the
        # bend phi = 3*pi/2, whose tip lies below the base at -p_z.
        geom = make_geom(l=0.1)
        alpha = np.pi / 4
        p = geom.l * np.sin(alpha) / (np.pi - alpha) * np.array([np.sin(alpha), 0.0, np.cos(alpha)])
        with pytest.raises(ValueError, match="reachable surface"):
            ik(geom, p)

    def test_sheet_of_bends_past_a_full_circle_is_refused(self):
        # The tip of a bend of 2.5*pi lies above the base again, and IK's
        # bend toward it is that bend, outside FK's domain.
        geom = make_geom(l=0.1)
        p = arc_end_oracle(geom.l, 2.5 * np.pi, 0.3)
        assert p[2] > POSITION_Z_FLOOR
        for refused in (lambda: ik(geom, p), lambda: ik_position(geom, np.stack([p, p]))):
            with pytest.raises(ValueError, match="reachable surface"):
                refused()

    def test_far_target_refused_without_a_warning(self):
        geom = make_geom()
        with pytest.raises(ValueError, match="reachable surface"):
            ik_position(geom, np.array([[0.0, 0.0, geom.l], [1e200, 0.0, 1e200]]))

    def test_overflowing_displacements_are_named_not_a_nan_gap(self):
        # d*inverse @ bend overflows here, and FK of it is NaN: the refusal
        # says so instead of a NaN gap. A row refused first keeps its gap.
        # l = 4e298 is just below the longest segment SegmentGeometry takes.
        geom = make_geom(d=1e300, l=4e298)
        near, far = [1e-3, 0.0, 1e-8], [0.5e300, 0.0, 0.5e300]
        overflow = r"bent toward it needs displacements past the float range \(\|p\|=0\.001 m\)$"
        for refused in (lambda: ik_position(geom, near), lambda: ik_position(geom, np.array([near, far]))):
            with pytest.raises(ValueError, match=overflow):
                refused()
        with pytest.raises(ValueError, match=r"ends 6\.794e\+299 m away"):
            ik_position(geom, np.array([far, near]))
        # A rotation's bend is at most pi, which d = 1e308 still overflows.
        with pytest.raises(ValueError, match=r"^target rotation needs displacements past the float range at d=1e\+308 m$"):
            ik(make_geom(d=1e308), rotation_from_angles(0.0, 3.0, 0.0))


@st.composite
def scaled_target_cases(draw):
    """A geometry, a bend phi below the half circle, a plane theta, and a
    relative scale s for the target position: 0, or +-1e-12 to +-1e-6."""
    geom = make_geom(
        n=draw(st.integers(3, 64)), d=10.0 ** draw(st.floats(-4.0, 0.0)), l=10.0 ** draw(st.floats(-3.0, 1.0))
    )
    phi = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(1e-6, 0.999 * np.pi)))
    scale = draw(st.one_of(st.just(0.0), st.floats(-12.0, -6.0).map(lambda e: 10.0**e)))
    return geom, phi, draw(st.floats(-np.pi, np.pi)), scale * draw(st.sampled_from([1.0, -1.0]))


class TestAcceptanceMatchesTheChordOracle:
    """IK accepts a target when FK of the displacements it returns gives the
    target back. The chord form of the arc's end, which IK does not compute,
    is the oracle: a target within 0.5*REACH_TOL*|p| of the end of its arc is accepted, one
    at 2*REACH_TOL*|p| or more is refused, and one target and a stack
    holding it decide alike."""

    @settings(max_examples=300, deadline=None)
    @given(scaled_target_cases())
    def test_positions_and_poses_one_at_a_time_and_stacked(self, case):
        geom, phi, theta, s = case
        tip = arc_end_oracle(geom.l, phi, theta)
        q = tip * (1.0 + s)
        # A position target's arc is bent toward q by 2l*|q_xy|/|q|^2; a
        # Pose target's arc is the bend of its rotation, here (phi, theta).
        toward_q = arc_end_oracle(geom.l, 2.0 * geom.l * math.hypot(q[0], q[1]) / (q @ q), math.atan2(q[1], q[0]))
        frame = f_ind(geom, CurvatureAngle(phi / geom.l, theta)).rotation
        fine = fk_direct(geom, manifold_samples(geom, 1, seed=5)[:, 0])
        targets = [
            (
                np.linalg.norm(q - toward_q),
                lambda: ik(geom, q),
                lambda: ik_position(geom, np.stack([fine.position, q])),
            ),
            (
                np.linalg.norm(q - tip),
                lambda: ik(geom, Pose(rotation=frame, position=q)),
                lambda: ik(geom, Pose(rotation=np.stack([fine.rotation, frame]), position=np.stack([fine.position, q]))),
            ),
        ]
        norm = np.linalg.norm(q)
        for gap, one, stack in targets:
            accepted = rejection(one) is None
            assert accepted == (rejection(stack) is None)
            if gap <= 0.5 * REACH_TOL * norm:
                assert accepted
            if gap >= 2.0 * REACH_TOL * norm:
                assert not accepted


def recovered_rotation_oracle(p):
    """The tip rotation of an off-axis position in closed form: with
    r = hypot(p_x, p_y) and s = |p|^2, cos(theta) = p_x/r, sin(theta) = p_y/r,
    sin(phi) = 2*p_z*r/s and cos(phi) = (p_z^2 - r^2)/s."""
    r = math.hypot(p[0], p[1])
    s = float(p @ p)
    ct, st = p[0] / r, p[1] / r
    sp, cp = 2.0 * p[2] * r / s, (p[2] * p[2] - r * r) / s
    return np.array([[ct * cp, -st, ct * sp], [st * cp, ct, st * sp], [-sp, 0.0, cp]])


class TestRecoverPose:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(3, 64),
        st.floats(-4.0, 0.0),
        st.floats(-3.0, 1.0),
        # From 1e-300 rad up, p_x and p_y are normal floats and fix theta.
        st.floats(1e-300, 0.99 * np.pi),
        st.floats(-np.pi, np.pi),
    )
    def test_matches_the_closed_form_oracle(self, n, log_d, log_l, phi, theta):
        geom = make_geom(n=n, d=10.0**log_d, l=10.0**log_l)
        p = arc_end_oracle(geom.l, phi, theta)
        pose = recover_pose_from_position(geom, p)
        assert np.max(np.abs(pose.rotation - recovered_rotation_oracle(p))) <= 1e-12
        assert np.max(np.abs(pose.position - p)) <= 1e-12 * np.linalg.norm(p)

    @pytest.mark.parametrize("p", [[0.5, 0.0, 0.5], [1e200, 0.0, 1e200], [0.0, 0.0, 0.05]])
    def test_unreachable_refused_without_a_warning(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="reachable surface"):
                recover_pose_from_position(make_geom(l=0.1), p)

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (3, 1)])
    def test_one_position_only(self, shape):
        with pytest.raises(ValueError, match=rf"^position must have shape \(3,\), got \({shape[0]},"):
            recover_pose_from_position(make_geom(l=0.1), np.full(shape, 0.01))

    def test_on_axis_straight_convention(self):
        geom = make_geom()
        pose = recover_pose_from_position(geom, np.array([0.0, 0.0, geom.l]))
        assert np.array_equal(pose.rotation, np.eye(3))

    def test_quarter_circle(self):
        geom = make_geom()
        reference = f_ind(geom, CurvatureAngle(np.pi / (2 * geom.l), 0.0))
        pose = recover_pose_from_position(geom, reference.position)
        assert np.linalg.norm(pose.rotation - reference.rotation) < 1e-9

    def test_matches_forward_of_inverse(self):
        geom = make_geom()
        rng = np.random.default_rng(7)
        for _ in range(300):
            ca = CurvatureAngle(rng.uniform(0.5, 0.95 * np.pi / geom.l), rng.uniform(-np.pi, np.pi))
            reference = f_ind(geom, ca)
            pose = recover_pose_from_position(geom, reference.position)
            assert np.linalg.norm(pose.rotation - reference.rotation) < 1e-9
            assert np.max(np.abs(pose.rotation.T @ pose.rotation - np.eye(3))) < 1e-9

    def test_prohibited(self):
        geom = make_geom()
        with pytest.raises(ValueError, match="p_z"):
            recover_pose_from_position(geom, np.array([0.01, 0.01, 0.0]))


class TestPoseType:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(rotation=np.eye(3) * 1.1, position=np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            Pose(rotation=r, position=np.zeros(3))

    def test_arrays_read_only(self):
        pose = Pose(rotation=np.eye(3), position=np.zeros(3))
        with pytest.raises((ValueError, AttributeError)):
            pose.position[0] = 1.0

    def test_copy_of_a_built_pose_is_checked(self):
        # dataclasses.replace builds the copy through the pose's class.
        built = fk_direct(make_geom(), np.zeros(5))
        assert type(built) is Pose
        with pytest.raises(ValueError, match="orthonormal"):
            dataclasses.replace(built, rotation=np.full((3, 3), np.nan))
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(built, position=[0.0, math.inf, 0.1])


def written_out_arc(ct, st_, phi, inv_kappa, elementwise):
    """The arc of radius inv_kappa bent by phi in the plane at (ct, st_),
    written apart from kinematics._arc: the frame Rz(theta) @ Ry(phi) as a
    nested literal of its columns, the tip as one more array, each with a
    batch index at the front. The bow squares sin(phi/2) as a product."""
    cp, sp, half = elementwise.cos(phi), elementwise.sin(phi), elementwise.sin(phi / 2.0)
    bow = 2.0 * (half * half) * inv_kappa
    return nested_literal_rotation(ct, st_, cp, sp), np.array([ct * bow, st_ * bow, sp * inv_kappa]).T


def two_array_pose_oracle(geom, rho):
    """fk_direct's pose built as two arrays, the frame and the tip, for one column or a batch."""
    elementwise = _ELEMENTWISE[rho.ndim]
    ct, st_, phi = _fk_clarke(geom, build_transform(geom.layout), rho)
    phi = elementwise.maximum(phi, geom.least_bend)
    return written_out_arc(ct, st_, phi, geom.l / phi, elementwise)


def f_ind_oracle(geom, kappa, theta):
    """f_ind's pose of (kappa, theta) as two arrays: the straight pose at
    kappa = 0, else the arc bent by kappa*l raised to l*float_min, or to
    5e-324 where that underflows."""
    if kappa == 0.0:
        return np.eye(3), np.array([0.0, 0.0, geom.l])
    phi = max(kappa * geom.l, geom.l * sys.float_info.min, 5e-324)
    return written_out_arc(math.cos(theta), math.sin(theta), phi, geom.l / phi, _ELEMENTWISE[1])


def bases(a):
    """a and every array it views, down to the one that owns the memory."""
    while a is not None:
        yield a
        a = a.base


class TestOneBufferPose:
    """fk_direct and f_ind build a pose's rotation and position as views of one frozen buffer."""

    @staticmethod
    def columns(n, seed):
        geom = make_geom(n=n)
        d = geom.layout.d
        straight, near_half = np.zeros(n), inverse_transform(build_transform(n), [d * np.pi * (1 - 1e-12), 0.0])
        return geom, np.column_stack([straight, near_half, manifold_samples(geom, 200, seed=seed, lo=1e-9, hi=0.999)])

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_bits_of_the_two_array_oracle(self, n):
        # fk_direct's poses of straight, near-half-circle and random columns,
        # one by one and as a batch, then f_ind's straight and bent poses, a
        # bend of 1e-310/m raised to the least bend among them.
        geom, cols = self.columns(n, seed=n)
        built = [(fk_direct(geom, rho), two_array_pose_oracle(geom, rho)) for rho in [*cols.T, cols]]
        for kappa, theta in itertools.product((0.0, 1e-310, 1e-3, 10.0, 31.0), (0.0, -2.5, 0.3, math.pi)):
            built.append((f_ind(geom, CurvatureAngle(kappa, theta)), f_ind_oracle(geom, kappa, theta)))
        for pose, (rotation, position) in built:
            assert type(pose) is Pose
            assert pose.rotation.shape == rotation.shape and pose.rotation.tobytes() == rotation.tobytes()
            assert pose.position.shape == position.shape and pose.position.tobytes() == position.tobytes()

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_read_only_down_to_the_buffer(self, n):
        # f_ind's straight and bent poses are built the same way.
        geom, cols = self.columns(n, seed=100 + n)
        poses = [fk_direct(geom, rho) for rho in (cols[:, 0], cols[:, 1], cols[:, 2], cols)]
        for pose in poses + [f_ind(geom, CurvatureAngle(kappa, 0.3)) for kappa in (0.0, 10.0)]:
            assert type(pose) is Pose
            for a in (pose.rotation, pose.position):
                assert not any(b.flags.writeable for b in bases(a))
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 1.0

    def test_a_copy_checks_its_new_position(self):
        geom, cols = self.columns(5, seed=7)
        pose = fk_direct(geom, cols[:, 2])
        for bad in ([0.0, math.nan, 0.1], [math.inf, 0.0, 0.1]):
            with pytest.raises(ValueError, match="^position entries must be finite$"):
                dataclasses.replace(pose, position=bad)
        with pytest.raises(ValueError, match="pose needs"):
            dataclasses.replace(pose, position=[0.0, 0.1])
        moved = dataclasses.replace(pose, position=[0.0, 0.0, 0.2])
        assert type(moved) is Pose and np.array_equal(moved.rotation, pose.rotation) and moved.position.tolist() == [0.0, 0.0, 0.2]


def scalar_fk_oracle(geom, rho):
    """The single-column FK formula written with scalar math only.

    The reference that the one-column path of fk_direct must reproduce
    bit for bit.
    """
    t = build_transform(geom.layout.n)
    d = geom.layout.d
    l = geom.l
    xi = left_to_right(t.forward, rho)
    amplitude, ct, st = divided_polar(*xi.tolist())
    phi = max(amplitude / d, sys.float_info.min * l)
    cp = math.cos(phi)
    sp = math.sin(phi)
    inv_kappa = l / phi
    half = math.sin(phi / 2.0)
    bow = 2.0 * (half * half) * inv_kappa
    position = np.array([ct * bow, st * bow, sp * inv_kappa])
    rotation = np.array(
        [
            [ct * cp, -st, ct * sp],
            [st * cp, ct, st * sp],
            [-sp, 0.0, cp],
        ]
    )
    return rotation, position


def displacement_columns(n, d, amplitude_fractions, thetas):
    """Columns amp*cos(psi - theta) with amp = fraction*d*pi."""
    psi = 2.0 * np.pi * np.arange(n) / n
    amp = np.asarray(amplitude_fractions) * d * np.pi
    return amp[None, :] * np.cos(psi[:, None] - np.asarray(thetas)[None, :])


# Pose IK's bend is an atan2, numpy's for a stack and math's for one pose.
BATCH_TOL = 1e-14

fractions = st.one_of(st.just(0.0), st.floats(0.0, 0.99))
angles = st.floats(-np.pi, np.pi)


@st.composite
def fk_batches(draw):
    n = draw(st.integers(3, 64))
    d = draw(st.sampled_from([1e-3, 1e-2, 1e-1]))
    l = draw(st.sampled_from([0.01, 0.1, 1.0]))
    pairs = draw(st.lists(st.tuples(fractions, angles), min_size=1, max_size=12))
    cols = displacement_columns(n, d, [f for f, _ in pairs], [a for _, a in pairs])
    return make_geom(n=n, d=d, l=l), cols


# Batches at n = 8, d = 1e-3, l = 0.01 whose second column is subnormal,
# about 1e-311 m and 1e-321 m. A matrix-matrix product rounds its tiny
# Clarke pair unlike the product on that column alone, (7.66e-322,
# 6.47e-322) against (7.6e-322, 6.4e-322) for the second, which put the
# rows' rotations 9.4e-13 and 4.5e-4 off the single calls'.
SUBNORMAL_PSI = 2.0 * np.pi * np.arange(8) / 8
SUBNORMAL_BATCHES = [
    displacement_columns(8, 1e-3, [0.5, 3.2e-309], [0.3, -0.2]),
    np.stack([0.5e-3 * np.pi * np.cos(SUBNORMAL_PSI - 0.3), 1e-321 * np.cos(SUBNORMAL_PSI - 0.7)], axis=1),
]


@st.composite
def wide_batches(draw):
    """Up to 12 columns at n in [3, 64], d and l across decades, each bent
    by a fraction of d*pi that is 0, down to the subnormals, or up to 1.99."""
    n = draw(st.integers(3, 64))
    d, l = (10.0 ** draw(st.floats(-4.0, 1.0)) for _ in range(2))
    amplitude = st.sampled_from([0.0, 5e-324]) | st.floats(-330.0, -1.0).map(lambda e: 10.0**e) | st.floats(0.0, 1.99)
    pairs = draw(st.lists(st.tuples(amplitude, angles), min_size=1, max_size=12))
    return make_geom(n=n, d=d, l=l), displacement_columns(n, d, *zip(*pairs))


class TestBatch:
    # A row is its single call bit for bit where numpy's cos and sin are the
    # C library's (tests/test_sampling.py::TestTrigPremise): FK's phi still
    # goes through them. The plane and every amplitude are IEEE divisions
    # and roots (kinematics._polar), which numpy and math round alike.
    @settings(max_examples=200, deadline=None)
    @given(wide_batches())
    @example((make_geom(n=8, d=1e-3, l=0.01), SUBNORMAL_BATCHES[0]))
    @example((make_geom(n=8, d=1e-3, l=0.01), SUBNORMAL_BATCHES[1]))
    def test_fk_batch_rows_match_single_calls(self, case):
        geom, cols = case
        poses = fk_direct(geom, cols)
        k = cols.shape[1]
        assert poses.rotation.shape == (k, 3, 3)
        assert poses.position.shape == (k, 3)
        for i in range(k):
            one = fk_direct(geom, cols[:, i])
            assert poses.rotation[i].tobytes() == one.rotation.tobytes()
            assert poses.position[i].tobytes() == one.position.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(wide_batches())
    def test_position_ik_rows_are_their_single_calls(self, case):
        # FK then IK, on the batch and on each column alone. Past a half
        # circle a tip may lie at or below POSITION_Z_FLOOR: a row IK refuses
        # alone refuses the stack, and only such a row does.
        geom, cols = case
        positions = fk_direct(geom, cols).position
        singles = []
        for rho in cols.T:
            try:
                singles.append(ik_position(geom, fk_direct(geom, rho).position))
            except ValueError:
                singles.append(None)
        accepted = [rho is not None for rho in singles]
        expected = np.array([rho for rho in singles if rho is not None]).reshape(-1, geom.layout.n).T
        assert ik_position(geom, positions[accepted]).tobytes() == expected.tobytes()
        if not all(accepted):
            with pytest.raises(ValueError):
                ik_position(geom, positions)

    @settings(max_examples=200, deadline=None)
    @given(fk_batches())
    def test_single_column_is_bitwise_the_scalar_formula(self, case):
        geom, cols = case
        for i in range(cols.shape[1]):
            pose = fk_direct(geom, cols[:, i])
            rotation, position = scalar_fk_oracle(geom, cols[:, i])
            assert pose.rotation.tobytes() == rotation.tobytes()
            assert pose.position.tobytes() == position.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(fk_batches())
    def test_ik_batch_matches_per_target_calls(self, case):
        geom, cols = case
        # Bend angles stay below pi, so every tip has p_z > 0 and is reachable.
        poses = fk_direct(geom, cols)
        by_pose = ik(geom, poses)
        by_position = ik_position(geom, poses.position)
        assert by_pose.shape == by_position.shape == cols.shape
        for i in range(cols.shape[1]):
            one = Pose(rotation=poses.rotation[i], position=poses.position[i])
            assert np.max(np.abs(by_pose[:, i] - ik(geom, one))) <= BATCH_TOL
            assert by_position[:, i].tobytes() == ik(geom, one.position).tobytes()

    def test_batch_round_trip(self):
        geom = make_geom(n=12)
        cols = manifold_samples(geom, 500, seed=3)
        poses = fk_direct(geom, cols)
        assert np.max(np.abs(ik(geom, poses) - cols)) < 1e-9
        assert np.max(np.abs(ik_position(geom, poses.position) - cols)) < 1e-9

    def test_empty_batch(self):
        geom = make_geom(n=4)
        poses = fk_direct(geom, np.empty((4, 0)))
        assert poses.rotation.shape == (0, 3, 3)
        assert poses.position.shape == (0, 3)
        assert ik(geom, poses).shape == (4, 0)
        assert ik_position(geom, np.empty((0, 3))).shape == (4, 0)

    def test_three_positions_are_not_a_rotation(self):
        geom = make_geom(n=5)
        cols = manifold_samples(geom, 3, seed=4)
        positions = fk_direct(geom, cols).position
        assert positions.shape == (3, 3)
        assert np.max(np.abs(ik_position(geom, positions) - cols)) < 1e-9
        # ik reads the same (3, 3) array as one rotation, which it is not.
        with pytest.raises(ValueError, match="rotation"):
            ik(geom, positions)

    def test_ik_rejects_position_stack(self):
        geom = make_geom()
        with pytest.raises(TypeError, match="ik_position"):
            ik(geom, np.tile([0.0, 0.0, 0.1], (4, 1)))

    def test_ik_position_rejects_bad_shapes(self):
        geom = make_geom()
        for bad in (np.zeros(4), np.zeros((2, 2)), np.zeros((2, 3, 3))):
            with pytest.raises(ValueError, match="shape"):
                ik_position(geom, bad)

    def test_stack_rejected_when_one_target_is_unreachable(self):
        geom = make_geom()
        positions = np.array([[0.01, 0.0, 0.09], [0.01, 0.0, -0.05]])
        with pytest.raises(ValueError, match="p_z"):
            ik_position(geom, positions)

    def test_f_ind_inverse_rejects_pose_stack(self):
        geom = make_geom()
        poses = fk_direct(geom, manifold_samples(geom, 2, seed=6))
        with pytest.raises(ValueError, match="stack"):
            f_ind_inverse(geom, poses)


def nested_literal_rotation(ct, st, cp, sp):
    """Rz(theta) @ Ry(phi) as a nested literal of its columns, transposed so
    that a batch index moves to the front: built apart from _arc's flat,
    row-major tuple."""
    zero = 0.0 * abs(ct)
    return np.array([[ct * cp, st * cp, -sp], [-st, ct, zero], [ct * sp, st * sp, cp]]).T


def left_to_right_fk_oracle(geom, rho):
    """fk_direct with the left-to-right products of test_products and the
    nested-literal frame, on Python floats for one column (n,) and on numpy
    arrays for a batch (n, k): the reference whose bits fk_direct keeps on
    both shapes."""
    t = build_transform(geom.layout.n)
    d, l = geom.layout.d, geom.l
    if rho.ndim == 1:
        amplitude, ct, st = divided_polar(*left_to_right(t.forward, rho).tolist())
        maximum, cos, sin = max, math.cos, math.sin
    else:
        amplitude, ct, st = rowwise_polar(*left_to_right(t.forward, rho))
        maximum, cos, sin = np.maximum, np.cos, np.sin
    phi = maximum(amplitude / d, sys.float_info.min * l)
    inv_kappa = l / phi
    cp, sp, half = cos(phi), sin(phi), sin(phi / 2.0)
    bow = 2.0 * (half * half) * inv_kappa
    return nested_literal_rotation(ct, st, cp, sp), np.array([ct * bow, st * bow, sp * inv_kappa]).T


def left_to_right_ik_position_oracle(geom, p):
    """ik_position's displacements with the left-to-right product: d * inverse @ (2l/|p|^2)*(p_x, p_y)."""
    t = build_transform(geom.layout.n)
    x, y, z = p.T
    scale = 2.0 * geom.l / (x * x + y * y + z * z)
    return geom.layout.d * left_to_right(t.inverse, np.array([scale * x, scale * y]))


@st.composite
def fk_shapes(draw):
    """One column (n,) or a batch (n, k), k in {0, 1, 2, 17}, at scales down to subnormal."""
    n = draw(st.integers(3, 64))
    d = draw(st.sampled_from([1e-3, 1e-2, 1e-1]))
    l = draw(st.sampled_from([0.01, 0.1, 1.0]))
    k = draw(st.sampled_from([None, 0, 1, 2, 17]))
    scale = draw(st.sampled_from([1.0, 1e-9, 1e-300, 1e-310]))
    width = 1 if k is None else k
    pairs = draw(st.lists(st.tuples(fractions, angles), min_size=width, max_size=width))
    cols = scale * displacement_columns(n, d, [f for f, _ in pairs], [a for _, a in pairs])
    return make_geom(n=n, d=d, l=l), cols[:, 0] if k is None else cols


class TestLeftToRightOracle:
    """fk_direct and ik_position give the bits of the left-to-right products
    and the nested-literal frame, -0.0 included, for one column and for
    batches."""

    @settings(max_examples=300, deadline=None)
    @given(fk_shapes())
    def test_fk_direct(self, case):
        geom, rho = case
        pose = fk_direct(geom, rho)
        rotation, position = left_to_right_fk_oracle(geom, rho)
        assert type(pose) is Pose
        assert pose.rotation.shape == ((3, 3) if rho.ndim == 1 else (rho.shape[1], 3, 3))
        assert pose.rotation.shape == rotation.shape and pose.position.shape == position.shape
        assert pose.rotation.tobytes() == rotation.tobytes()
        assert pose.position.tobytes() == position.tobytes()
        assert not pose.rotation.flags.writeable and not pose.position.flags.writeable

    @settings(max_examples=150, deadline=None)
    @given(fk_shapes())
    def test_ik_position(self, case):
        # Bend angles stay below pi, so every tip is reachable.
        geom, rho = case
        p = fk_direct(geom, rho).position
        expected = left_to_right_ik_position_oracle(geom, p)
        got = ik_position(geom, p)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def clarke_products(call):
    """Every transform product that call() forms, in order."""
    formed = []

    def record(m, x):
        product = _product(m, x)
        formed.append(np.asarray(product))
        return product

    with mock.patch.object(clarke, "_product", record), mock.patch.object(kinematics, "_product", record):
        call()
    return formed


@st.composite
def product_batches(draw):
    """k in [1, 12] displacement columns at n in [3, 64], each a part on the
    manifold plus a common mode, and k bends, at one scale from 5e-324 to 1e3."""
    n = draw(st.integers(3, 64))
    k = draw(st.integers(1, 12))
    scale = draw(st.sampled_from([5e-324, 1e-321, 1e-311]) | st.floats(-320.0, 3.0).map(lambda e: 10.0**e))
    pairs = draw(st.lists(st.tuples(fractions, angles), min_size=k, max_size=k))
    common = draw(st.lists(st.just(0.0) | st.floats(-100.0, 100.0), min_size=k, max_size=k))
    cols = scale * (displacement_columns(n, 1.0 / np.pi, *zip(*pairs)) + np.array(common))
    bends = scale * np.array(draw(st.lists(st.tuples(angles, angles), min_size=k, max_size=k))).T
    # d far above every column keeps them in FK's domain.
    return make_geom(n=n, d=1e4, l=1.0), cols, bends


class TestOneRoundingPerColumn:
    """Each transform product of a batch gives a column the bits of the call
    on that column alone: transform, FK's Clarke pair and both products of
    IK's check, -0.0 included."""

    @settings(max_examples=200, deadline=None)
    @given(product_batches())
    def test_batch_pairs_are_the_single_pairs(self, case):
        geom, cols, bends = case
        t = build_transform(geom.layout.n)
        batch = [
            clarke_products(lambda: transform(t, cols)),
            clarke_products(lambda: _fk_clarke(geom, t, cols)),
            clarke_products(lambda: _fk_gives_back(geom, *bends, _ELEMENTWISE[2], None, None, "")),
        ]
        for i in range(cols.shape[1]):
            single = [
                clarke_products(lambda: transform(t, cols[:, i])),
                clarke_products(lambda: _fk_clarke(geom, t, cols[:, i])),
                clarke_products(lambda: _fk_gives_back(geom, *bends[:, i].tolist(), _ELEMENTWISE[1], None, None, "")),
            ]
            assert [len(p) for p in batch] == [len(p) for p in single] == [1, 1, 2]
            for of_batch, of_single in zip(sum(batch, []), sum(single, [])):
                assert of_batch[:, i].tobytes() == of_single.tobytes()


class TestNonFinite:
    def test_pose_rejects_nan_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(rotation=np.full((3, 3), np.nan), position=np.array([0.0, 0.0, 0.1]))

    def test_pose_rejects_non_finite_position(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                Pose(rotation=np.eye(3), position=np.array([0.0, bad, 0.1]))

    def test_pose_stack_rejects_one_bad_member(self):
        rotation = np.stack([np.eye(3), np.eye(3)])
        rotation[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(rotation=rotation, position=np.zeros((2, 3)))
        reflection = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0])])
        with pytest.raises(ValueError, match="determinant"):
            Pose(rotation=reflection, position=np.zeros((2, 3)))

    def test_pose_rejects_mismatched_stack(self):
        with pytest.raises(ValueError, match="stack"):
            Pose(rotation=np.stack([np.eye(3)] * 2), position=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="stack"):
            Pose(rotation=np.zeros((1, 2, 3, 3)), position=np.zeros((1, 2, 3)))

    @pytest.mark.parametrize(
        "target", [[np.nan, 0.0, np.nan], [0.0, 0.0, np.nan], [np.inf, 0.0, 0.1], [0.01, 0.0, np.inf]]
    )
    def test_ik_rejects_non_finite_position(self, target):
        with pytest.raises(ValueError, match="finite"):
            ik(make_geom(), target)

    def test_ik_rejects_nan_rotation(self):
        with pytest.raises(ValueError, match="rotation"):
            ik(make_geom(), np.full((3, 3), np.nan))


def rejection(make):
    """The ValueError message make() raises, or None when it returns."""
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


_I3 = np.eye(3)


def numpy_rotation_check(r, what):
    """The rotation check as one numpy pass over a rotation (3, 3) or a stack
    (k, 3, 3): the library's former _check_rotations, kept as the oracle its
    elementwise formula must match on both shapes."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram_err = np.abs(r.swapaxes(-1, -2) @ r - _I3).max(initial=0.0)
        if not gram_err <= 1e-9:
            raise ValueError(f"{what} is not orthonormal")
        # det(R) = det(R^T); .T moves a batch axis last, so m[i, j] is
        # entry (i, j) of every transposed matrix.
        m = r.T
        det = (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
    if not np.abs(det - 1.0).max(initial=0.0) <= 1e-9:
        raise ValueError(f"{what} must have determinant +1")


def numpy_position_check(p):
    """The position target check as one numpy pass over a position (3,) or a
    stack (k, 3): the library's former _check_position_target, kept as the
    oracle its elementwise formula must match on both shapes."""
    if not all_finite(p):
        raise ValueError("target position entries must be finite")
    z = p.T[2]
    if not (p != 0.0).any(axis=-1).all():
        raise ValueError("target position at the origin is prohibited")
    if not (z > POSITION_Z_FLOOR).all():
        raise ValueError(
            f"target p_z={np.min(z):.3e} is in the prohibited region: the reachable "
            f"workspace requires p_z > {POSITION_Z_FLOOR:.1e} m"
        )


def rotation_oracle(r, what="rotation matrix"):
    """The numpy check of a stack, numpy_rotation_check, on r as a stack of one."""
    return rejection(lambda: numpy_rotation_check(np.asarray(r, dtype=float)[None], what))


def assert_ik_decides_on_the_rotation(r):
    """ik on a rotation target refuses as the rotation check does where that
    refuses r. Otherwise it never answers wrongly: it refuses r as no arc's
    tip frame, as it must where r[2, 1] twists about the tip tangent by more
    than 1e-9 or r[2, 0] bends backward by more than 1e-8 (a tip frame
    Rz(theta) @ Ry(phi) has R[2, 1] = 0 and R[2, 0] = -sin(phi) <= 0 for phi
    in [0, pi]), or FK of its displacements is r within 1e-9."""
    geom = make_geom()
    checked = rotation_oracle(r, "target rotation matrix")
    outcome = rejection(lambda: ik(geom, r))
    if checked is not None:
        assert outcome == checked
    elif outcome is None:
        assert abs(r[2, 1]) <= 1e-9 and r[2, 0] <= 1e-8
        assert np.max(np.abs(fk_direct(geom, ik(geom, r)).rotation - r)) <= 1e-9 + 1e-12
    else:
        assert outcome.startswith("target rotation is the tip frame of no arc")


def rotation_from_angles(alpha, beta, gamma):
    """Rz(alpha) @ Ry(beta) @ Rz(gamma)."""

    def rz(a):
        return np.array([[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]])

    ry = np.array([[math.cos(beta), 0.0, math.sin(beta)], [0.0, 1.0, 0.0], [-math.sin(beta), 0.0, math.cos(beta)]])
    return rz(alpha) @ ry @ rz(gamma)


# The 24 rotations with entries in {-1, 0, 1}. Their columns are exact,
# so a perturbation built on them has a known error to the last bit.
SIGNED_PERMUTATIONS = [
    m
    for m in (
        np.eye(3)[list(perm)] * signs
        for perm in itertools.permutations(range(3))
        for signs in itertools.product((1.0, -1.0), repeat=3)
    )
    if np.linalg.det(m) > 0.0
]
NON_FINITE = (math.nan, math.inf, -math.inf)
# Errors just under and just over the 1e-9 tolerance, of either sign.
EDGE_ERRORS = [sign * 1e-9 * (1.0 + side * 1e-6) for sign in (1.0, -1.0) for side in (1.0, -1.0)]
angle = st.floats(-math.pi, math.pi)


class TestOnePoseChecksMatchTheStackOracle:
    """One pose and a stack of one are checked by the same numpy pass and must decide alike."""

    @settings(max_examples=150, deadline=None)
    @given(angle, angle, angle, st.integers(0, 8), st.sampled_from(NON_FINITE + (None,)))
    @example(alpha=0.0, beta=2.2250738585e-313, gamma=1.0, slot=0, bad=None)
    def test_general_rotations_and_non_finite_slots(self, alpha, beta, gamma, slot, bad):
        r = rotation_from_angles(alpha, beta, gamma)
        if bad is not None:
            r.flat[slot] = bad
        for rotation in (r, r * [1.0, 1.0, -1.0]):  # the second one negates column 2
            expected = rotation_oracle(rotation)
            assert rejection(lambda: Pose(rotation=rotation, position=[0.0, 0.0, 0.1])) == expected
            assert_ik_decides_on_the_rotation(rotation)
        assert rotation_oracle(r) == (None if bad is None else "rotation matrix is not orthonormal")

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(SIGNED_PERMUTATIONS),
        st.sampled_from(["gram diagonal", "gram off-diagonal", "determinant"]),
        st.integers(0, 2),
        st.integers(1, 2),
        st.sampled_from(EDGE_ERRORS),
    )
    def test_errors_at_the_tolerance(self, base, kind, j, shift, err):
        r = base.copy()
        if kind == "gram diagonal":
            r[:, j] *= math.sqrt(1.0 + err)  # (R^T R)[j, j] - 1 = err
        elif kind == "gram off-diagonal":
            r[:, j] += err * r[:, (j + shift) % 3]  # (R^T R)[j, k] = err, det unchanged
        else:
            r *= (1.0 + err) ** (1.0 / 3.0)  # det - 1 = err, Gram error 2*err/3
        expected = rotation_oracle(r)
        assert rejection(lambda: Pose(rotation=r, position=[0.0, 0.0, 0.1])) == expected
        assert_ik_decides_on_the_rotation(r)
        # The cases straddle the tolerance: both paths see the same side.
        failing = "must have determinant +1" if kind == "determinant" else "is not orthonormal"
        assert expected == (None if abs(err) < 1e-9 else "rotation matrix " + failing)

    @pytest.mark.parametrize("base", SIGNED_PERMUTATIONS[:4])
    def test_reflections(self, base):
        for flip in np.eye(3):
            r = base * (1.0 - 2.0 * flip)  # one column negated
            assert rotation_oracle(r) == "rotation matrix must have determinant +1"
            assert rejection(lambda: Pose(rotation=r, position=[0.0, 0.0, 0.1])) == rotation_oracle(r)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2), st.sampled_from(NON_FINITE + (None, 0.0, -1e308, 5e-324)))
    def test_positions(self, slot, value):
        p = np.array([0.01, -0.02, 0.09])
        if value is not None:
            p[slot] = value
        one = rejection(lambda: Pose(rotation=np.eye(3), position=p))
        stack = rejection(lambda: Pose(rotation=np.eye(3)[None], position=p[None]))
        assert one == stack == (None if math.isfinite(p[slot]) else "position entries must be finite")


def position_oracle(p):
    """The numpy check of a stack, numpy_position_check, on p as a stack of one."""
    return rejection(lambda: numpy_position_check(np.asarray(p, dtype=float)[None]))


TARGET_CHECK_MESSAGES = ("target position entries", "target position at the origin", "target p_z=")
# Per slot: each non-finite value, both zeros, subnormals, 1e+-300 and p_z at
# and next to the floor.
POSITION_SLOT_VALUES = (
    NON_FINITE
    + (0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e-300, -1e-300, 1e300, -1e300, 0.05)
    + (POSITION_Z_FLOOR, math.nextafter(POSITION_Z_FLOOR, 0.0), math.nextafter(POSITION_Z_FLOOR, 1.0))
)


class TestOnePositionCheckMatchesTheStackOracle:
    """The position target check decides one position (3,), a stack of one
    (1, 3) and the position of one Pose as the numpy pass over a stack did."""

    @staticmethod
    def check_outcome(call):
        """call's refusal when it is a target check, else None: a target that
        passes the checks may still be refused as out of reach."""
        outcome = rejection(call)
        return outcome if outcome is not None and outcome.startswith(TARGET_CHECK_MESSAGES) else None

    def test_every_slot_value(self):
        geom = make_geom()
        for p in itertools.product(POSITION_SLOT_VALUES, repeat=3):
            p = np.array(p)
            expected = position_oracle(p)
            assert self.check_outcome(lambda: ik_position(geom, p)) == expected
            assert self.check_outcome(lambda: ik_position(geom, p[None])) == expected
            assert self.check_outcome(lambda: ik(geom, p)) == expected
            if all_finite(p):  # Pose itself refuses a non-finite position
                assert self.check_outcome(lambda: ik(geom, Pose(rotation=np.eye(3), position=p))) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from(POSITION_SLOT_VALUES)] * 3), min_size=0, max_size=6))
    def test_stacks(self, rows):
        geom = make_geom()
        p = np.array(rows).reshape(-1, 3)
        expected = rejection(lambda: numpy_position_check(p))
        assert self.check_outcome(lambda: ik_position(geom, p)) == expected
        if all_finite(p):
            stack = Pose(rotation=np.broadcast_to(np.eye(3), (len(p), 3, 3)), position=p)
            assert self.check_outcome(lambda: ik(geom, stack)) == expected


@st.composite
def built_pose_cases(draw):
    """A geometry, a bend phi and a plane theta: phi exactly 0, down to
    1e-300, near pi and up to just below 2*pi."""
    geom = make_geom(
        n=draw(st.integers(3, 64)), d=10.0 ** draw(st.floats(-4.0, 0.0)), l=10.0 ** draw(st.floats(-3.0, 1.0))
    )
    phi = draw(
        st.one_of(
            st.just(0.0),
            st.floats(-300.0, -1.0).map(lambda e: 10.0**e),
            st.floats(0.0, 6.0),
            st.floats(1.0, 15.0).map(lambda e: np.pi * (1.0 - 10.0**-e)),
            st.floats(1.0, 11.0).map(lambda e: 2.0 * np.pi * (1.0 - 10.0**-e)),
        )
    )
    return geom, phi, draw(st.floats(-np.pi, np.pi))


def assert_passes_the_pose_checks(pose):
    # What Pose.__post_init__ checks on a pose the caller builds.
    numpy_rotation_check(pose.rotation, "rotation matrix")
    assert all_finite(pose.position)


class TestBuiltPosesPassTheChecks:
    """fk_direct, f_ind and recover_pose_from_position build their poses
    without the checks a caller's Pose gets; every pose they return passes
    them."""

    @settings(max_examples=300, deadline=None)
    @given(built_pose_cases())
    def test_fk_direct_f_ind_and_recovery(self, case):
        geom, phi, theta = case
        col = displacement_columns(geom.layout.n, geom.layout.d, [phi / np.pi], [theta])
        ca = CurvatureAngle(phi / geom.l, theta)
        poses = [fk_direct(geom, col[:, 0]), fk_direct(geom, np.repeat(col, 3, axis=1)), f_ind(geom, ca)]
        tip = arc_end_oracle(geom.l, phi, theta)
        if tip[2] > POSITION_Z_FLOOR:
            poses.append(recover_pose_from_position(geom, tip))
        for pose in poses:
            assert isinstance(pose, Pose)
            assert_passes_the_pose_checks(pose)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-3.0, 1.0), st.floats(0.0, sys.float_info.max), st.floats(-np.pi, np.pi))
    def test_f_ind_curvatures_up_to_the_float_range(self, log_l, kappa, theta):
        geom = make_geom(l=10.0**log_l)
        assume(math.isfinite(kappa * geom.l))  # past it the bend itself overflows
        assert_passes_the_pose_checks(f_ind(geom, CurvatureAngle(kappa, theta)))


class TestIkComposition:
    @settings(max_examples=150, deadline=None)
    @given(fk_batches())
    def test_ik_is_f_dep_inverse_of_f_ind_inverse(self, case):
        # Bend angles up to 0.99*pi: every tip has p_z > 0 and is reachable.
        geom, cols = case
        poses = fk_direct(geom, cols)
        for i in range(cols.shape[1]):
            pose = Pose(rotation=poses.rotation[i], position=poses.position[i])
            for target in (pose.position, pose.rotation, pose):
                composed = f_dep_inverse(geom, f_ind_inverse(geom, target))
                assert np.max(np.abs(ik(geom, target) - composed)) <= 1e-12

    def test_zero_rotation_entry_is_positive_zero(self):
        # R[2, 1] is +0.0 even where cos(theta) < 0, on every path that
        # builds a rotation; 0.0 * cos(theta) would give -0.0 there.
        geom = make_geom(n=5)
        theta = 2.5
        cols = displacement_columns(5, geom.layout.d, [0.5, 0.3], [theta, -theta])
        ca = CurvatureAngle(kappa=5.0, theta=theta)
        rotations = [
            fk_direct(geom, cols[:, 0]).rotation,
            fk_direct(geom, cols).rotation,
            f_ind(geom, ca).rotation,
            recover_pose_from_position(geom, f_ind(geom, ca).position).rotation,
        ]
        for rotation in rotations:
            assert rotation[..., 0, 0].min() < 0.0
            assert not np.signbit(rotation[..., 2, 1]).any()
