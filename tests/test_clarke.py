"""Core transform: matrix construction, algebraic identities, coordinate ops."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clarkekin import (
    JointLayout,
    build_transform,
    inverse_transform,
    is_on_manifold,
    manifold_residual,
    polar_to_rectangular,
    projector,
    rectangular_to_polar,
    transform,
    wrap_to_two_pi,
)
from clarkekin.clarke import TWO_PI, all_finite, as_clarke, as_displacement

N_RANGE = range(3, 65)


def manifold_point(n, rng, scale=1.0):
    t = build_transform(n)
    return t.inverse @ (scale * rng.standard_normal(2))


class TestJointLayout:
    @pytest.mark.parametrize("n", N_RANGE)
    def test_angles(self, n):
        layout = JointLayout(n=n, d=0.02)
        assert layout.psi[0] == 0.0
        assert np.all(np.diff(layout.psi) > 0)
        assert layout.psi[-1] < 2 * np.pi
        assert abs(np.cos(layout.psi).sum()) < 1e-12
        assert abs(np.sin(layout.psi).sum()) < 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="at least 3"):
            JointLayout(n=2, d=0.01)

    def test_accepts_any_large_n(self):
        # The trigonometric sums of 12566 angles exceed 1e-12 in floating
        # point; the layout is still valid, as build_transform agrees.
        layout = JointLayout(n=12566, d=0.01)
        assert layout.psi.shape == (12566,)
        assert np.array_equal(layout.psi, TWO_PI * np.arange(12566) / 12566)
        assert build_transform(layout).n == 12566

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError, match="positive"):
            JointLayout(n=3, d=0.0)

    def test_immutable(self):
        layout = JointLayout(n=3, d=0.01)
        with pytest.raises((ValueError, AttributeError)):
            layout.psi[0] = 1.0


class TestBuildTransform:
    def test_n3_is_reduced_amplitude_invariant_matrix(self):
        t = build_transform(3)
        expected = np.array(
            [
                [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0],
                [0.0, math.sqrt(3.0) / 3.0, -math.sqrt(3.0) / 3.0],
            ]
        )
        assert np.max(np.abs(t.forward - expected)) < 1e-15

    def test_n3_inverse_rows(self):
        t = build_transform(3)
        expected = np.array([[1.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0], [-0.5, -math.sqrt(3.0) / 2.0]])
        assert np.max(np.abs(t.inverse - expected)) < 1e-15

    def test_n4_differential_pattern(self):
        t = build_transform(4)
        expected = 0.5 * np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
        assert np.max(np.abs(t.forward - expected)) < 1e-15

    def test_rejects_n2(self):
        with pytest.raises(ValueError, match="at least 3"):
            build_transform(2)

    def test_accepts_layout(self):
        layout = JointLayout(n=5, d=0.01)
        assert build_transform(layout) is build_transform(5)

    def test_cached_and_deterministic(self):
        assert build_transform(7) is build_transform(7)

    def test_rejects_non_integral_n(self):
        build_transform(3)  # a cached n = 3 must not answer for 3.7
        for bad in (3.7, 5.5, 64.01):
            with pytest.raises(ValueError, match="integer"):
                build_transform(bad)
        assert build_transform(4.0) is build_transform(4)


class TestDisplacementBatches:
    """as_displacement accepts n x k columns only where callers work column-wise."""

    def test_transform_is_column_wise(self):
        rng = np.random.default_rng(11)
        for n in (3, 5, 12, 64):
            t = build_transform(n)
            cols = rng.standard_normal((n, 7))
            batch = transform(t, cols)
            assert batch.shape == (2, 7)
            for i in range(7):
                assert np.max(np.abs(batch[:, i] - transform(t, cols[:, i]))) <= 1e-14

    def test_reducing_callers_reject_batches(self):
        t = build_transform(4)
        cols = np.zeros((4, 3))
        with pytest.raises(ValueError, match=r"shape \(4,\)"):
            manifold_residual(t, cols)
        with pytest.raises(ValueError, match=r"shape \(4,\)"):
            is_on_manifold(t, cols)

    def test_batch_shape_errors(self):
        t = build_transform(4)
        for bad in (np.zeros((3, 2)), np.zeros((4, 2, 1)), np.zeros(())):
            with pytest.raises(ValueError, match="shape"):
                transform(t, bad)
        with pytest.raises(ValueError, match="finite"):
            transform(t, np.array([[0.0], [np.nan], [0.0], [0.0]]))


class TestMatrixIdentities:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 64])
    def test_right_inverse(self, n):
        t = build_transform(n)
        assert np.max(np.abs(t.forward @ t.inverse - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 64])
    def test_transpose_relation(self, n):
        t = build_transform(n)
        assert np.max(np.abs(t.forward.T - (2.0 / n) * t.inverse)) < 1e-15

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 64])
    def test_projector_idempotent_rank2(self, n):
        p = projector(build_transform(n))
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert abs(np.trace(p) - 2.0) < 1e-12
        sv = np.linalg.svd(p, compute_uv=False)
        assert sv[-1] < 1e-10
        assert np.sum(np.abs(sv - 1.0) < 1e-10) == 2
        assert abs(np.linalg.det(p)) < 1e-10

    def test_projector_entries_n3(self):
        p = projector(build_transform(3))
        expected = np.array(
            [
                [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0],
                [-1.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0],
                [-1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0],
            ]
        )
        assert np.max(np.abs(p - expected)) < 1e-15

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_projector_circulant_cosine_entries(self, n):
        p = projector(build_transform(n))
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        expected = (2.0 / n) * np.cos(2.0 * np.pi * (i - j) / n)
        assert np.max(np.abs(p - expected)) < 1e-14
        assert np.max(np.abs(p - p.T)) < 1e-15

    @pytest.mark.parametrize("n", [3, 6, 31])
    def test_projector_kills_bias_and_keeps_diagonal(self, n):
        p = projector(build_transform(n))
        assert np.max(np.abs(p @ np.ones(n))) < 1e-14
        assert np.max(np.abs(np.diag(p) - 2.0 / n)) < 1e-15


class TestTransform:
    def test_first_column_pair(self):
        t = build_transform(3)
        xi = transform(t, [1.0, -0.5, -0.5])
        assert np.max(np.abs(xi - [1.0, 0.0])) < 1e-15

    def test_all_ones_vanish(self):
        t = build_transform(5)
        assert np.max(np.abs(transform(t, np.ones(5)))) < 1e-15

    def test_n4_differential_reading(self):
        t = build_transform(4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(-1, 1, 2)
            xi = transform(t, [a, b, -a, -b])
            assert np.max(np.abs(xi - [a, b])) < 1e-15

    def test_linearity(self):
        t = build_transform(6)
        rng = np.random.default_rng(1)
        for _ in range(50):
            r1, r2 = rng.standard_normal((2, 6))
            a, b = rng.standard_normal(2)
            lhs = transform(t, a * r1 + b * r2)
            rhs = a * transform(t, r1) + b * transform(t, r2)
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_selection_rows(self):
        t = build_transform(5)
        rng = np.random.default_rng(2)
        rho = rng.standard_normal(5)
        xi = transform(t, rho)
        assert xi[0] == pytest.approx(np.array([1.0, 0.0]) @ t.forward @ rho, abs=1e-16)
        assert xi[1] == pytest.approx(np.array([0.0, 1.0]) @ t.forward @ rho, abs=1e-16)

    def test_one_hot_scaled_by_two_over_n(self):
        # The forward matrix carries the 2/n amplitude normalization, so a
        # one-hot vector maps to (2/n)*(cos psi_k, sin psi_k).
        for n in (3, 4, 7):
            t = build_transform(n)
            layout = JointLayout(n=n, d=0.01)
            for k in range(n):
                hot = np.zeros(n)
                hot[k] = 1.0
                expected = (2.0 / n) * np.array([np.cos(layout.psi[k]), np.sin(layout.psi[k])])
                assert np.max(np.abs(transform(t, hot) - expected)) < 1e-15

    def test_bias_annihilation(self):
        t = build_transform(8)
        rng = np.random.default_rng(3)
        rho = rng.standard_normal(8)
        base = transform(t, rho)
        for mu in (-3.0, 0.017, 250.0):
            assert np.max(np.abs(transform(t, rho + mu) - base)) < 1e-12

    def test_length_mismatch(self):
        t = build_transform(4)
        with pytest.raises(ValueError, match="shape"):
            transform(t, [1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        t = build_transform(3)
        with pytest.raises(ValueError, match="finite"):
            transform(t, [np.nan, 0.0, 0.0])


class TestInverseTransform:
    def test_first_column(self):
        t = build_transform(3)
        rho = inverse_transform(t, [1.0, 0.0])
        assert np.max(np.abs(rho - [1.0, -0.5, -0.5])) < 1e-15

    def test_n4_second_column(self):
        t = build_transform(4)
        rho = inverse_transform(t, [0.0, 1.0])
        assert np.max(np.abs(rho - [0.0, 1.0, 0.0, -1.0])) < 1e-15

    @pytest.mark.parametrize("n", [3, 5, 9, 32])
    def test_unit_circle_on_manifold(self, n):
        t = build_transform(n)
        layout = JointLayout(n=n, d=0.01)
        rng = np.random.default_rng(4)
        for alpha in rng.uniform(0.0, 2 * np.pi, 20):
            rho = inverse_transform(t, [np.cos(alpha), np.sin(alpha)])
            assert np.max(np.abs(rho - np.cos(layout.psi - alpha))) < 1e-14
            angular_dist = np.abs((layout.psi - alpha + np.pi) % (2 * np.pi) - np.pi)
            assert rho.max() == pytest.approx(np.cos(angular_dist.min()), abs=1e-12)

    @pytest.mark.parametrize("n", N_RANGE)
    def test_round_trip_amplitude_invariant_for_all_n(self, n):
        t = build_transform(n)
        xi = np.array([0.37, -1.2])
        back = transform(t, inverse_transform(t, xi))
        assert np.max(np.abs(back - xi)) < 1e-12

    def test_result_sums_to_zero(self):
        rng = np.random.default_rng(5)
        for n in (3, 4, 11):
            t = build_transform(n)
            for _ in range(20):
                rho = inverse_transform(t, rng.standard_normal(2))
                assert abs(rho.sum()) < 1e-12


# Entries up to the edge of the float range, and small ones that keep a
# product finite.
huge_entries = st.one_of(st.floats(-1.7e308, 1.7e308), st.sampled_from([1.7e308, -1.7e308, 1.3e308, -1.3e308, 0.0]))


class TestTransformPairPastTheFloatRange:
    """A result past the float range is refused, never returned as inf or NaN."""

    @staticmethod
    def decide(call, unchecked):
        """call's result must have the bits of the unchecked product where that
        is finite; elsewhere call must raise a one-line ValueError. No warning
        either way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                expected = unchecked()
            if all_finite(expected):
                assert call().tobytes() == expected.tobytes()
            else:
                with pytest.raises(ValueError, match="past the float range") as exc:
                    call()
                assert "\n" not in str(exc.value)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 64).flatmap(lambda n: st.lists(huge_entries, min_size=n, max_size=n)))
    @example(rho=[1.7e308, -1.7e308, -1.7e308])
    def test_transform(self, rho):
        t = build_transform(len(rho))
        rho = np.array(rho)
        self.decide(lambda: transform(t, rho), lambda: t.forward.dot(rho))
        batch = np.stack([rho, rho[::-1]], axis=1)
        self.decide(lambda: transform(t, batch), lambda: np.stack([t.forward.dot(c) for c in batch.T], axis=1))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 64), huge_entries, huge_entries)
    def test_inverse_transform(self, n, re, im):
        t = build_transform(n)
        self.decide(lambda: inverse_transform(t, [re, im]), lambda: t.inverse @ np.array([re, im]))

    def test_the_two_cli_cases(self):
        with pytest.raises(ValueError, match="displacements of these Clarke coordinates are past the float range"):
            inverse_transform(build_transform(5), [1.3e308, 1.3e308])
        with pytest.raises(ValueError, match="Clarke coordinates of these displacements are past the float range"):
            transform(build_transform(3), [1.7e308, -1.7e308, -1.7e308])


def as_clarke_oracle(xi):
    """The numpy finiteness check of a Clarke pair: the ValueError message, or None."""
    return None if all_finite(np.asarray(xi, dtype=float)) else "Clarke coordinates must be finite"


class TestAsClarke:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 1),
        st.sampled_from([math.nan, math.inf, -math.inf, None, 0.0, -0.0, 1e308, -5e-324]),
        st.floats(-1.0, 1.0),
    )
    def test_float_check_matches_the_numpy_oracle(self, slot, value, other):
        xi = [other, other]
        if value is not None:
            xi[slot] = value
        try:
            got = np.array(as_clarke(xi))
        except ValueError as exc:
            assert str(exc) == as_clarke_oracle(xi)
        else:
            assert as_clarke_oracle(xi) is None
            assert got.dtype == float and got.tobytes() == np.array(xi, dtype=float).tobytes()

    @pytest.mark.parametrize("bad", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], np.zeros((2, 1))])
    def test_shape(self, bad):
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            as_clarke(bad)


def as_displacement_oracle(rho):
    """all_finite's exact count over a column or a batch: the ValueError message, or None."""
    return None if all_finite(rho) else "displacement vector entries must be finite"


# Finite entries whose Python sum overflows or is signed zero, subnormals,
# and the non-finite values a one-column sum must not let through.
DISPLACEMENT_ENTRIES = (
    st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324, -5e-324, 2.2e-308, 0.0, -0.0])
    | st.floats(-1.0, 1.0)
)


class TestOneColumnCheck:
    """One column is checked on Python floats and a batch by all_finite; both refuse what all_finite refuses."""

    @staticmethod
    def assert_matches_the_oracle(rho):
        n = rho.shape[0]
        for x, batch in ((rho, False), (rho, True), (rho[:, None], True)):
            expected = as_displacement_oracle(x)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if expected is not None:
                    with pytest.raises(ValueError, match="^displacement vector entries must be finite$"):
                        as_displacement(x, n, batch=batch)
                    continue
                got = as_displacement(x, n, batch=batch)
            assert got.shape == x.shape and got.tobytes() == x.tobytes()

    @pytest.mark.parametrize("n", [3, 5, 12, 64])
    def test_a_non_finite_entry_anywhere_is_refused(self, n):
        base = np.linspace(-0.01, 0.01, n)
        for i in range(n):
            for bad in (math.nan, math.inf, -math.inf):
                rho = base.copy()
                rho[i] = bad
                self.assert_matches_the_oracle(rho)
            rho = base.copy()
            rho[i], rho[(i + 1) % n] = math.inf, -math.inf  # sums to NaN
            self.assert_matches_the_oracle(rho)

    @pytest.mark.parametrize("n", [3, 5, 12, 64])
    def test_finite_columns_are_accepted_even_where_their_sum_overflows(self, n):
        for rho in (
            np.full(n, 1.7e308),
            np.full(n, -1.7e308),
            np.where(np.arange(n) % 2 == 0, 1.7e308, 5e-324),
            np.full(n, 5e-324),
            np.full(n, -0.0),
        ):
            assert as_displacement_oracle(rho) is None
            self.assert_matches_the_oracle(rho)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from([3, 5, 12, 64]))
    def test_matches_all_finite(self, data, n):
        self.assert_matches_the_oracle(data.draw(arrays(np.float64, (n,), elements=DISPLACEMENT_ENTRIES)))


class TestMagnitudeRelations:
    @pytest.mark.parametrize("n", [3, 4, 5, 16])
    def test_clarke_norm_scaling(self, n):
        t = build_transform(n)
        rng = np.random.default_rng(6)
        for _ in range(25):
            rho = manifold_point(n, rng)
            xi = transform(t, rho)
            assert xi @ xi == pytest.approx((2.0 / n) * (rho @ rho), rel=1e-12)
            assert np.linalg.norm(rho) == pytest.approx(
                math.sqrt(n / 2.0) * np.linalg.norm(xi), rel=1e-12
            )

    def test_manifold_closed_under_linear_combination(self):
        n = 7
        t = build_transform(n)
        rng = np.random.default_rng(7)
        for _ in range(25):
            r1 = manifold_point(n, rng)
            r2 = manifold_point(n, rng)
            a, b = rng.standard_normal(2)
            assert is_on_manifold(t, a * r1 + b * r2, tol=1e-9)


class TestIsOnManifold:
    def test_alternating_n4_rejected(self):
        t = build_transform(4)
        assert not is_on_manifold(t, [1.0, -1.0, 1.0, -1.0], tol=1e-9)

    def test_simple_n3_accepted(self):
        t = build_transform(3)
        assert is_on_manifold(t, [1.0, -0.5, -0.5], tol=1e-9)

    def test_constructed_points_accepted(self):
        t = build_transform(5)
        rng = np.random.default_rng(8)
        for _ in range(20):
            assert is_on_manifold(t, inverse_transform(t, rng.standard_normal(2)), tol=1e-12)

    def test_sum_violation_rejected(self):
        t = build_transform(3)
        assert not is_on_manifold(t, [1.0, 0.0, 0.0], tol=1e-9)

    def test_bad_tolerance(self):
        t = build_transform(3)
        with pytest.raises(ValueError, match="positive"):
            is_on_manifold(t, [0.0, 0.0, 0.0], tol=0.0)

    def test_residual_zero_on_manifold(self):
        t = build_transform(6)
        rho = inverse_transform(t, [0.3, 0.4])
        assert manifold_residual(t, rho) < 1e-15


class TestPolarForms:
    def test_examples(self):
        assert rectangular_to_polar([1.0, 0.0]) == (1.0, 0.0)
        amp, ang = rectangular_to_polar([0.0, 2.0])
        assert amp == pytest.approx(2.0, abs=1e-15)
        assert ang == pytest.approx(np.pi / 2, abs=1e-15)
        amp, ang = rectangular_to_polar([-1.0, -1.0])
        assert amp == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert ang == pytest.approx(-3 * np.pi / 4, abs=1e-15)

    def test_origin_convention(self):
        assert rectangular_to_polar([0.0, 0.0]) == (0.0, 0.0)

    def test_angle_range_half_open(self):
        _, ang = rectangular_to_polar([-1.0, 0.0])
        assert ang == pytest.approx(np.pi)
        _, ang = rectangular_to_polar([-1.0, -0.0])
        assert -np.pi < ang <= np.pi

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            xi = rng.standard_normal(2)
            amp, ang = rectangular_to_polar(xi)
            back = polar_to_rectangular(amp, ang)
            assert np.max(np.abs(back - xi)) < 1e-12

    def test_polar_examples(self):
        assert np.max(np.abs(polar_to_rectangular(1.0, 0.0) - [1.0, 0.0])) < 1e-15
        assert np.max(np.abs(polar_to_rectangular(2.0, np.pi / 2) - [0.0, 2.0])) < 1e-15

    def test_norm_preserved(self):
        d = 0.01
        for alpha in np.linspace(0, 6.0, 13):
            xi = polar_to_rectangular(d * np.pi, alpha)
            assert np.linalg.norm(xi) == pytest.approx(d * np.pi, rel=1e-15)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            polar_to_rectangular(-1.0, 0.0)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="angle must be finite"):
            polar_to_rectangular(1.0, angle)


def displacement_from_rectangular(layout, rho_re, rho_im):
    """Per-joint displacements rho_i = rho_re*cos(psi_i) + rho_im*sin(psi_i).

    Computed joint by joint from the layout angles: an oracle for
    inverse_transform written independently of the transform matrices.
    """
    return rho_re * np.cos(layout.psi) + rho_im * np.sin(layout.psi)


class TestDisplacementFromRectangular:
    def test_example_n3(self):
        layout = JointLayout(n=3, d=0.01)
        rho = displacement_from_rectangular(layout, 1.0, 0.0)
        assert np.max(np.abs(rho - [1.0, -0.5, -0.5])) < 1e-15

    def test_zero(self):
        layout = JointLayout(n=9, d=0.01)
        assert np.max(np.abs(displacement_from_rectangular(layout, 0.0, 0.0))) == 0.0

    def test_matches_inverse_transform(self):
        rng = np.random.default_rng(10)
        for n in (3, 4, 6, 15):
            layout = JointLayout(n=n, d=0.01)
            t = build_transform(n)
            for _ in range(30):
                re, im = rng.standard_normal(2)
                direct = displacement_from_rectangular(layout, re, im)
                via_matrix = inverse_transform(t, [re, im])
                assert np.max(np.abs(direct - via_matrix)) < 1e-14


def test_wrap_to_two_pi():
    assert wrap_to_two_pi(0.0) == 0.0
    assert wrap_to_two_pi(-np.pi / 2) == pytest.approx(3 * np.pi / 2, abs=1e-15)
    assert wrap_to_two_pi(7.0) == pytest.approx(7.0 - 2 * np.pi, abs=1e-15)
    assert 0.0 <= wrap_to_two_pi(-1e-9) < 2 * np.pi
    # fmod(a, TWO_PI) + TWO_PI rounds up to TWO_PI for these; 0 is the nearest value in range.
    for tiny in (-1e-17, -2.2e-16, -4.4e-16, -5e-324):
        assert wrap_to_two_pi(tiny) == 0.0


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_wrap_to_two_pi_stays_in_range(angle):
    assert 0.0 <= wrap_to_two_pi(angle) < TWO_PI


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_wrap_to_two_pi_rejects_non_finite(angle):
    with pytest.raises(ValueError, match="angle must be finite"):
        wrap_to_two_pi(angle)


# Entries that break a sum-based shortcut: inf + -inf is NaN, and 1e308 + 1e308 overflows.
EXTREMES = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, -0.0, 1.0]) | st.floats()


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(["(0,)", "(n,)", "(k, 3)", "(k, 3, 3)"]), st.integers(1, 64))
def test_all_finite_counts_exactly_and_never_warns(data, shape_name, size):
    shape = {"(0,)": (0,), "(n,)": (size,), "(k, 3)": (size, 3), "(k, 3, 3)": (size, 3, 3)}[shape_name]
    a = data.draw(arrays(np.float64, shape, elements=EXTREMES))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all_finite(a) == bool(np.isfinite(a).all())
