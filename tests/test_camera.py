import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishrope import (
    ConfigError,
    DomainError,
    Extrinsics,
    InverseLut,
    KannalaBrandtCamera,
    OutOfImageCircleError,
)
from fishrope.camera import CLAMP_BAND_FRACTION
from fishrope.fixtures import downward_extrinsics, fixture_cameras

from .oracles import bisect_theta, poly_radius


def toy_camera(coeffs=(1.0, 0.0), theta_max=1.0, pp=(100.0, 100.0), size=(200, 200)):
    return KannalaBrandtCamera(
        coeffs=coeffs, principal_point=pp, theta_max=theta_max, image_size=size
    )


class TestConstruction:
    def test_rejects_empty_coeffs(self):
        with pytest.raises(ConfigError):
            toy_camera(coeffs=())

    def test_rejects_nonpositive_k1(self):
        with pytest.raises(ConfigError):
            toy_camera(coeffs=(0.0, 1.0))
        with pytest.raises(ConfigError):
            toy_camera(coeffs=(-1.0,))

    def test_rejects_bad_theta_max(self):
        with pytest.raises(ConfigError):
            toy_camera(theta_max=0.0)
        with pytest.raises(ConfigError):
            toy_camera(theta_max=math.pi + 0.1)

    def test_rejects_principal_point_outside_image(self):
        with pytest.raises(ConfigError):
            toy_camera(pp=(250.0, 100.0))

    def test_rejects_nonmonotone_polynomial(self):
        # r' = 1 - 3*theta^2 turns negative before theta_max = 1.
        with pytest.raises(ConfigError):
            toy_camera(coeffs=(1.0, -1.0))

    @pytest.mark.parametrize(
        "coeffs, theta_max, message",
        [
            ((1e308, 1e308), 3.0, "not strictly increasing"),
            ((1.0, 1e308), 1.5, "not strictly increasing"),
            ((1e308,), 3.0, "r\\(theta_max\\) is inf"),
        ],
    )
    def test_rejects_overflowing_polynomial(self, coeffs, theta_max, message):
        # overflow gives NaN derivative samples or an infinite r_max, which
        # must be refused without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match=message):
                toy_camera(coeffs=coeffs, theta_max=theta_max)

    @pytest.mark.parametrize(
        "size", [(200.7, 200), (200, math.nan), (math.inf, 200), (200, "200"), (200, None)]
    )
    def test_rejects_image_size_that_is_not_whole(self, size):
        # 200.7 used to be truncated to 200 without a word
        with pytest.raises(ConfigError, match="image size must be whole numbers"):
            toy_camera(size=size)

    def test_integral_float_image_size_loads(self):
        camera = toy_camera(size=(200.0, np.float64(200.0)))
        assert camera.image_size == (200, 200)
        assert all(type(s) is int for s in camera.image_size)

    def test_fixture_cameras_construct(self):
        cams = fixture_cameras()
        assert set(cams) == {"linear", "k2", "wide"}


class TestProject:
    def test_identity_polynomial(self):
        cam = toy_camera(coeffs=(1.0, 0.0, 0.0, 0.0))
        u, v = cam.project(0.5, 0.0)
        assert (u, v) == pytest.approx((100.5, 100.0), abs=1e-15)

    def test_optical_axis_maps_to_principal_point(self):
        cam = toy_camera()
        for phi in (0.0, 1.0, -2.5, math.pi - 1e-9):
            assert cam.project(0.0, phi) == pytest.approx((100.0, 100.0))

    def test_polynomial_evaluation_against_scalar_oracle(self):
        cam = KannalaBrandtCamera(
            coeffs=(300.0, 20.0, 0.0, 0.0),
            principal_point=(320.0, 240.0),
            theta_max=1.0,
            image_size=(640, 480),
        )
        u, v = cam.project(0.8, math.pi / 2)
        # independent scalar evaluation: 300*0.8 + 20*0.8**3 = 250.24
        assert poly_radius(cam.coeffs, 0.8) == pytest.approx(250.24, abs=1e-12)
        assert v - 240.0 == pytest.approx(250.24, abs=1e-9)
        assert u == pytest.approx(320.0, abs=1e-9)

    def test_rejects_theta_outside_domain(self):
        cam = toy_camera()
        with pytest.raises(DomainError) as exc:
            cam.project(1.5, 0.0)
        assert "1.5" in str(exc.value)
        with pytest.raises(DomainError):
            cam.project(-0.1, 0.0)
        with pytest.raises(DomainError):
            cam.project(float("nan"), 0.0)

    def test_rejects_phi_outside_domain(self):
        # the closed [-pi, pi] that AngularCoord enforces; the first bad value is named
        cam = toy_camera()
        for phi in (math.pi, -math.pi):
            cam.project(0.5, phi)
        for phi in (math.nextafter(math.pi, 4.0), -4.0, 1e300):
            with pytest.raises(DomainError, match=re.escape(f"azimuth {phi!r} outside")):
                cam.project(np.full(3, 0.5), np.array([0.0, phi, 2e300]))

    def test_vectorized_matches_scalar(self):
        cam = fixture_cameras()["wide"]
        theta = np.linspace(0.0, cam.theta_max, 17)
        phi = np.linspace(-math.pi, math.pi, 17, endpoint=False)
        u, v = cam.project(theta, phi)
        for i in range(len(theta)):
            ui, vi = cam.project(float(theta[i]), float(phi[i]))
            assert (ui, vi) == (u[i], v[i])


class TestUnproject:
    def test_linear_model_inverts_exactly(self):
        cam = toy_camera(coeffs=(1.0, 0.0))
        theta, phi = cam.unproject_newton(100.5, 100.0)
        assert theta == pytest.approx(0.5, abs=1e-12)
        assert phi == 0.0

    def test_principal_point_convention(self):
        cam = toy_camera()
        theta, phi = cam.unproject_newton(100.0, 100.0)
        assert (theta, phi) == (0.0, 0.0)
        # scalar input gives 0-d results
        assert np.shape(theta) == np.shape(phi) == ()

    def test_k2_radius_against_bisection_oracle(self):
        cam = KannalaBrandtCamera(
            coeffs=(300.0, 20.0),
            principal_point=(320.0, 240.0),
            theta_max=1.0,
            image_size=(640, 480),
        )
        theta, _ = cam.unproject_newton(320.0 + 250.24, 240.0, iterations=None)
        oracle = bisect_theta(cam.coeffs, cam.theta_max, 250.24)
        assert theta == pytest.approx(0.8, abs=1e-9)
        assert theta == pytest.approx(oracle, abs=1e-9)

    def test_clamp_band_and_rejection(self, wide_camera):
        r_max = wide_camera.r_max
        cx, cy = wide_camera.principal_point
        inside_band = cx + r_max * (1.0 + 0.5e-3)
        theta, _ = wide_camera.unproject_newton(inside_band, cy, iterations=None)
        assert theta == pytest.approx(wide_camera.theta_max, abs=1e-9)
        with pytest.raises(OutOfImageCircleError):
            wide_camera.unproject_newton(cx + r_max * 1.01, cy)

    def test_nonfinite_pixels_rejected(self, wide_camera):
        with pytest.raises(DomainError):
            wide_camera.unproject_newton(float("inf"), 0.0)

    def test_iterations_must_be_positive(self, wide_camera):
        with pytest.raises(DomainError):
            wide_camera.unproject_newton(512.0, 600.0, iterations=0)

    @settings(max_examples=150, deadline=None)
    @given(
        theta=st.floats(min_value=0.0, max_value=1.658, allow_nan=False),
        phi=st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True),
    )
    def test_roundtrip_property_wide(self, theta, phi):
        cam = fixture_cameras()["wide"]
        u, v = cam.project(theta, phi)
        back_theta, back_phi = cam.unproject_newton(u, v, iterations=None)
        assert back_theta == pytest.approx(theta, abs=1e-9)
        if theta > 1e-7:
            # compare azimuths modulo 2*pi: a phi one ulp below +pi can
            # land exactly on the seam and legitimately return as -pi
            dphi = abs(back_phi - phi)
            assert min(dphi, 2.0 * math.pi - dphi) == pytest.approx(0.0, abs=1e-6)


class TestLut:
    def test_linear_entries(self):
        cam = toy_camera(coeffs=(1.0, 0.0))
        lut = cam.build_lut(5)
        np.testing.assert_allclose(lut.entries, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)

    def test_endpoint_reaches_theta_max(self):
        for cam in fixture_cameras().values():
            lut = cam.build_lut(64)
            assert lut.entries[0] == 0.0
            assert lut.entries[-1] == pytest.approx(cam.theta_max, abs=1e-9)

    def test_each_camera_keeps_one_default_table(self, wide_camera):
        lut = wide_camera.lut
        assert lut is wide_camera.lut
        assert lut.entries.tobytes() == wide_camera.build_lut().entries.tobytes()
        assert (lut.r_max, lut.theta_max) == (wide_camera.r_max, wide_camera.theta_max)

    def test_resolution_must_be_at_least_two(self, wide_camera):
        with pytest.raises(ConfigError):
            wide_camera.build_lut(1)

    def test_resolution_is_the_entry_count(self, wide_camera):
        lut = wide_camera.build_lut(37)
        assert lut.resolution == len(lut.entries) == 37
        with pytest.raises(TypeError):
            InverseLut(entries=lut.entries, resolution=37, r_max=lut.r_max, theta_max=1.0)

    @pytest.mark.parametrize("theta_max", [math.nan, math.inf, 1.5])
    def test_endpoint_must_match_a_finite_theta_max(self, theta_max):
        entries = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ConfigError, match="does not reach theta_max"):
            InverseLut(entries=entries, r_max=10.0, theta_max=theta_max)

    def test_nan_entry_is_not_increasing(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            InverseLut(entries=np.array([0.0, math.nan, 1.0]), r_max=10.0, theta_max=1.0)

    def test_lookup_against_bisection_oracle(self, k2_camera):
        lut = k2_camera.build_lut(4096)
        rng = np.random.default_rng(7)
        radii = rng.uniform(0.0, k2_camera.r_max, 2000)
        got = lut.lookup(radii)
        expected = np.array(
            [bisect_theta(k2_camera.coeffs, k2_camera.theta_max, r) for r in radii]
        )
        assert np.max(np.abs(got - expected)) < 1e-6

    def test_lookup_midpoint_interpolates(self, wide_camera):
        lut = wide_camera.build_lut(128)
        step = lut.r_max / 127
        r_mid = 3 * step + step / 2
        expected = 0.5 * (lut.entries[3] + lut.entries[4])
        assert lut.lookup(r_mid) == pytest.approx(expected, abs=1e-12)

    def test_lookup_zero_and_errors(self, wide_camera):
        lut = wide_camera.build_lut(128)
        assert lut.lookup(0.0) == 0.0
        with pytest.raises(OutOfImageCircleError):
            lut.lookup(lut.r_max * 1.01)
        with pytest.raises(DomainError):
            lut.lookup(-1.0)

    @pytest.mark.parametrize("as_array", [False, True], ids=["0d", "1d"])
    @pytest.mark.parametrize(
        "factor, error",
        [(math.nan, DomainError), (-1.0, DomainError), (1.01, OutOfImageCircleError)],
        ids=["nan", "negative", "beyond"],
    )
    def test_newton_and_lut_share_radius_guard(self, wide_camera, factor, error, as_array):
        lut = wide_camera.build_lut(128)
        bad = factor if factor < 0.0 else factor * wide_camera.r_max
        r = np.array([0.5 * wide_camera.r_max, bad]) if as_array else bad
        raised = []
        for invert in (wide_camera.radius_to_theta, lut.lookup):
            with pytest.raises(DomainError) as info:
                invert(r)
            raised.append(type(info.value))
            assert str(bad) in str(info.value)
        assert raised == [error, error]
        in_band = wide_camera.r_max * (1.0 + 0.5 * CLAMP_BAND_FRACTION)
        in_band = np.array([in_band]) if as_array else in_band
        for invert in (wide_camera.radius_to_theta, lut.lookup):
            assert np.all(invert(in_band) == pytest.approx(wide_camera.theta_max, abs=1e-9))

    def test_agreement_with_newton_sweep(self, wide_camera):
        lut = wide_camera.build_lut(4096)
        radii = np.linspace(0.0, wide_camera.r_max, 10000)
        newton = wide_camera.radius_to_theta(radii, iterations=None)
        assert np.max(np.abs(lut.lookup(radii) - newton)) < 1e-6


class TestExtentRatio:
    def test_linear_model_is_one(self, linear_camera):
        assert linear_camera.angular_extent_ratio(2.0) == pytest.approx(1.0, abs=1e-9)

    def test_ratio_at_least_one_when_derivative_grows(self, k2_camera, wide_camera):
        # derivative increases with theta for these fixtures, so a pixel
        # step at the center spans at least as much angle as at the rim
        for cam in (k2_camera, wide_camera):
            thetas = np.linspace(0.0, cam.theta_max, 512)
            deriv = cam.radial_derivative(thetas)
            assert np.all(np.diff(deriv) >= 0.0)
            assert cam.angular_extent_ratio(0.01 * cam.r_max) >= 1.0

    def test_wide_fixture_falls_in_documented_window(self, wide_camera):
        # regression fixture: value computed by this implementation
        ratio = wide_camera.angular_extent_ratio(0.05 * wide_camera.r_max)
        assert 3.0 <= ratio <= 5.0
        assert ratio == pytest.approx(3.8964721547447114, rel=1e-9)

    def test_offset_validation(self, wide_camera):
        with pytest.raises(DomainError):
            wide_camera.angular_extent_ratio(0.0)
        with pytest.raises(DomainError):
            wide_camera.angular_extent_ratio(0.2 * wide_camera.r_max)


class TestExtrinsics:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ConfigError):
            Extrinsics(rotation=np.eye(3) * 2.0, translation=np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["rotation", "translation"])
    def test_rejects_non_finite(self, bad, where):
        # NaN fails every comparison, so the orthonormality test let it through
        rotation, translation = np.eye(3), np.zeros(3)
        (rotation if where == "rotation" else translation).flat[0] = bad
        with pytest.raises(ConfigError, match="must be finite"):
            Extrinsics(rotation=rotation, translation=translation)
        with pytest.raises(ConfigError, match="must be finite"):
            Extrinsics(rotation=np.full((3, 3), bad), translation=translation)

    def test_rejects_reflection(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ConfigError):
            Extrinsics(rotation=flip, translation=np.zeros(3))

    def test_identity_on_axis(self):
        theta, phi, in_front = Extrinsics.identity().ray_angles([0.0, 0.0, 5.0])
        assert (theta, phi, in_front) == (0.0, 0.0, True)

    def test_identity_45_degrees(self):
        theta, phi, in_front = Extrinsics.identity().ray_angles([1.0, 0.0, 1.0])
        assert in_front
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert phi == pytest.approx(0.0, abs=1e-12)

    def test_downward_camera_ground_point(self):
        # camera 1 m up looking straight down; ground point 0.5 m along +x
        theta, phi, in_front = downward_extrinsics(1.0).ray_angles([0.5, 0.0, 0.0])
        assert in_front
        assert theta == pytest.approx(math.atan(0.5), abs=1e-12)
        assert phi == pytest.approx(0.0, abs=1e-12)

    def test_behind_camera_is_masked(self):
        # behind (z < 0) and in the image plane (z = 0) are both masked, not raised
        points = [[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1.0]]
        theta, phi, in_front = Extrinsics.identity().ray_angles(points)
        assert in_front.tolist() == [False, False, True]
        assert np.all(np.isnan(theta[:2])) and np.all(np.isnan(phi[:2]))
        assert np.all(np.isfinite(theta[2:])) and np.all(np.isfinite(phi[2:]))

    def test_compose_matches_sequential_transform(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            qa, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            if np.linalg.det(qa) < 0:
                qa[:, 0] = -qa[:, 0]
            qb, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            if np.linalg.det(qb) < 0:
                qb[:, 0] = -qb[:, 0]
            a = Extrinsics(rotation=qa, translation=rng.standard_normal(3))
            b = Extrinsics(rotation=qb, translation=rng.standard_normal(3))
            c = a.compose(b)
            p = rng.standard_normal(3)
            np.testing.assert_allclose(c.transform(p), a.transform(b.transform(p)), atol=1e-12)
            # orthonormality preserved under composition
            assert np.max(np.abs(c.rotation.T @ c.rotation - np.eye(3))) < 1e-9

    def test_look_at_roll_rotates_image_axes(self):
        base = Extrinsics.look_at((0.0, 0.0, 2.0), (5.0, 0.0, 0.0))
        rolled = Extrinsics.look_at((0.0, 0.0, 2.0), (5.0, 0.0, 0.0), roll=math.pi / 2)
        # optical axis unchanged, lateral axes swapped
        np.testing.assert_allclose(base.rotation[2], rolled.rotation[2], atol=1e-12)
        np.testing.assert_allclose(rolled.rotation[0], base.rotation[1], atol=1e-12)

    def test_camera_center_roundtrip(self):
        ext = Extrinsics.look_at((1.0, -2.0, 3.0), (4.0, 0.0, 0.0))
        np.testing.assert_allclose(ext.camera_center, [1.0, -2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(ext.transform(ext.camera_center), 0.0, atol=1e-12)


class TestFixedIterationAccuracy:
    @pytest.mark.parametrize("name", ["linear", "k2", "wide"])
    def test_five_iterations_meet_tolerance(self, name):
        cam = fixture_cameras()[name]
        rng = np.random.default_rng(11)
        theta = rng.uniform(0.0, cam.theta_max, 2000)
        phi = rng.uniform(-math.pi, math.pi, 2000)
        u, v = cam.project(theta, phi)
        t5, _ = cam.unproject_newton(u, v, iterations=5)
        assert np.max(np.abs(t5 - theta)) < 1e-5

    def test_concave_polynomial_also_converges(self):
        # peripherally compressing model (negative k2, extent ratio < 1):
        # the paraxial seed underestimates, yet five iterations suffice
        cam = KannalaBrandtCamera(
            coeffs=(200.0, -60.0, 0.0),
            principal_point=(320.0, 320.0),
            theta_max=1.0,
            image_size=(640, 640),
        )
        assert cam.angular_extent_ratio(0.05 * cam.r_max) < 1.0
        rng = np.random.default_rng(12)
        theta = rng.uniform(0.0, cam.theta_max, 5000)
        phi = rng.uniform(-math.pi, math.pi, 5000)
        u, v = cam.project(theta, phi)
        t5, _ = cam.unproject_newton(u, v, iterations=5)
        tc, _ = cam.unproject_newton(u, v, iterations=None)
        assert np.max(np.abs(t5 - theta)) < 1e-5
        assert np.max(np.abs(tc - theta)) < 1e-9

