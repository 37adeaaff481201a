import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishrope import (
    BevGrid,
    BevGridSpec,
    ConfigError,
    KannalaBrandtCamera,
    PatchGrid,
    bev_angles,
    patch_angles,
)
from fishrope.fixtures import downward_extrinsics, fixture_cameras, scene_extrinsics


class TestPatchAngles:
    def test_four_fold_symmetry(self, linear_camera):
        grid = patch_angles(linear_camera, 100)
        assert grid.grid_dims == (2, 2)
        thetas = grid.coords[..., 0].reshape(-1)
        phis = sorted(grid.coords[..., 1].reshape(-1))
        assert np.all(grid.valid_mask)
        np.testing.assert_allclose(thetas, thetas[0], atol=1e-12)
        np.testing.assert_allclose(
            phis, [-3 * math.pi / 4, -math.pi / 4, math.pi / 4, 3 * math.pi / 4], atol=1e-12
        )

    def test_patch_covering_principal_point(self, linear_camera):
        grid = patch_angles(linear_camera, 200)
        assert grid.grid_dims == (1, 1)
        assert grid.coords[0, 0, 0] == 0.0
        assert grid.coords[0, 0, 1] == 0.0

    def test_matches_per_pixel_unproject(self, k2_camera):
        # element-wise oracle: direct Newton at each patch center pixel
        grid = patch_angles(k2_camera, 40)
        rows, cols = grid.grid_dims
        for r in range(rows):
            for c in range(cols):
                if not grid.valid_mask[r, c]:
                    continue
                u, v = grid.centers_px[r, c]
                theta, phi = k2_camera.unproject_newton(u, v, iterations=None)
                assert grid.coords[r, c, 0] == pytest.approx(theta, abs=1e-6)
                assert grid.coords[r, c, 1] == pytest.approx(phi, abs=1e-12)

    def test_partial_edge_patches_keep_true_center(self):
        cam = KannalaBrandtCamera(
            coeffs=(100.0, 0.0),
            principal_point=(50.0, 50.0),
            theta_max=1.0,
            image_size=(110, 70),
        )
        grid = patch_angles(cam, 50)
        assert grid.grid_dims == (2, 3)
        # last column spans pixels [100, 110): center 105; last row [50, 70): center 60
        assert grid.centers_px[0, 2, 0] == 105.0
        assert grid.centers_px[1, 0, 1] == 60.0

    def test_out_of_circle_masked_not_error(self, wide_camera):
        grid = patch_angles(wide_camera, 64)
        assert not np.all(grid.valid_mask)
        assert np.all(np.isnan(grid.coords[~grid.valid_mask][:, 0]))
        coords, _ = grid.flat_valid()
        assert np.all(coords[:, 0] <= wide_camera.theta_max + 1e-12)
        assert np.all((coords[:, 1] >= -math.pi) & (coords[:, 1] < math.pi))

    def test_patch_size_validation(self, wide_camera):
        with pytest.raises(ConfigError):
            patch_angles(wide_camera, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        radius=st.floats(min_value=0.0, max_value=506.0),
        phi_a=st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True),
        phi_b=st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True),
    )
    def test_equal_radius_equal_theta(self, radius, phi_a, phi_b):
        cam = fixture_cameras()["wide"]
        cx, cy = cam.principal_point
        theta_a, _ = cam.unproject_newton(
            cx + radius * math.cos(phi_a), cy + radius * math.sin(phi_a), iterations=None
        )
        theta_b, _ = cam.unproject_newton(
            cx + radius * math.cos(phi_b), cy + radius * math.sin(phi_b), iterations=None
        )
        assert theta_a == pytest.approx(theta_b, abs=1e-9)


class TestBevGridSpec:
    def test_from_extent_matches_reference_resolution(self):
        # 100 x 100 m at 0.2 m/cell discretizes to 500 x 500
        spec = BevGridSpec((100.0, 100.0), 0.2)
        assert spec.dims == (500, 500)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_resolution_and_extent(self, bad):
        with pytest.raises(ConfigError, match="resolution must be positive and finite"):
            BevGridSpec(extent=(4.0, 4.0), resolution=bad)
        with pytest.raises(ConfigError, match="extent must be positive and finite"):
            BevGridSpec(extent=(4.0, bad), resolution=1.0)

    def test_dims_are_derived_not_settable(self):
        assert BevGridSpec(extent=(4.2, 3.0), resolution=1.0).dims == (4, 3)
        with pytest.raises(TypeError):
            BevGridSpec(dims=(4, 4), extent=(4.0, 4.0), resolution=1.0)

    def test_rejects_fewer_than_one_cell_a_side(self):
        with pytest.raises(ConfigError, match="each side needs at least one"):
            BevGridSpec(extent=(0.4, 4.0), resolution=1.0)

    @pytest.mark.parametrize(
        "extent, resolution",
        [((30.0, 30.0), 1e-9), ((1e300, 1e300), 1e-300), ((4097.0, 4096.0), 1.0)],
    )
    def test_from_extent_rejects_grids_over_the_cell_ceiling(self, extent, resolution):
        with pytest.raises(ConfigError, match="above the limit"):
            BevGridSpec(extent, resolution)

    def test_from_extent_accepts_the_ceiling_itself(self):
        assert BevGridSpec((4096.0, 4096.0), 1.0).dims == (4096, 4096)

    def test_cell_centers_layout(self):
        spec = BevGridSpec(extent=(2.0, 2.0), resolution=1.0)
        centers = spec.cell_centers()
        np.testing.assert_allclose(centers[0, 0], [-0.5, -0.5, 0.0])
        np.testing.assert_allclose(centers[1, 1], [0.5, 0.5, 0.0])


class TestBevAngles:
    def test_center_cell_on_axis(self, wide_camera):
        spec = BevGridSpec(extent=(3.0, 3.0), resolution=1.0)
        bev = bev_angles(spec, wide_camera, downward_extrinsics(5.0))
        assert bev.cell_angles[1, 1, 0] == pytest.approx(0.0, abs=1e-12)
        assert bev.visibility_mask[1, 1]

    def test_equal_ground_radius_shares_theta_and_phi_matches_azimuth(self, wide_camera):
        spec = BevGridSpec((20.0, 20.0), 0.5)
        bev = bev_angles(spec, wide_camera, downward_extrinsics(5.0))
        coords, world = bev.flat_visible()
        rho = np.hypot(world[:, 0], world[:, 1])
        # pick the ring of cells at one exact radius
        ring = np.isclose(rho, rho[7])
        assert np.count_nonzero(ring) >= 4
        np.testing.assert_allclose(coords[ring, 0], coords[ring, 0][0], atol=1e-12)
        # viewing the plane from above mirrors orientation: for this pose
        # (camera x along world x) the image azimuth is minus the ground azimuth
        azimuth = np.arctan2(world[ring, 1], world[ring, 0])
        np.testing.assert_allclose(coords[ring, 1], -azimuth, atol=1e-12)

    def test_cells_behind_camera_masked(self, wide_camera):
        # oblique camera: cells far behind the image plane are invisible
        spec = BevGridSpec((30.0, 30.0), 0.5)
        bev = bev_angles(spec, wide_camera, scene_extrinsics())
        assert 0 < bev.n_visible < bev.spec.dims[0] * bev.spec.dims[1]
        assert np.all(np.isnan(bev.cell_angles[~bev.visibility_mask]))

    def test_visibility_fraction_matches_cone_footprint(self):
        # straight-down camera with a narrow cone: the visible region is a
        # disk of radius h*tan(theta_max); compare the mask fraction with
        # the closed-form area ratio on the reference 500x500 grid
        camera = KannalaBrandtCamera(
            coeffs=(100.0, 5.0),
            principal_point=(256.0, 256.0),
            theta_max=1.2,
            image_size=(512, 512),
        )
        height = 10.0
        spec = BevGridSpec((100.0, 100.0), 0.2)
        bev = bev_angles(spec, camera, downward_extrinsics(height))
        footprint_radius = height * math.tan(1.2)
        analytic = math.pi * footprint_radius**2 / (100.0 * 100.0)
        measured = bev.n_visible / (500 * 500)
        assert measured == pytest.approx(analytic, rel=0.01)

    def test_projection_consistency_with_mask(self):
        camera = KannalaBrandtCamera(
            coeffs=(100.0, 5.0),
            principal_point=(256.0, 256.0),
            theta_max=1.2,
            image_size=(512, 512),
        )
        spec = BevGridSpec((100.0, 100.0), 1.0)
        bev = bev_angles(spec, camera, downward_extrinsics(10.0))
        coords, _ = bev.flat_visible()
        u, v = camera.project(coords[:, 0], coords[:, 1])
        w, h = camera.image_size
        assert np.all((u >= 0) & (u <= w) & (v >= 0) & (v <= h))
        # masked-out cells are exactly those failing the angular criterion,
        # so none of them admits a projection inside theta_max
        theta, _, in_front = downward_extrinsics(10.0).ray_angles(
            bev.cell_world[~bev.visibility_mask]
        )
        assert np.all(~in_front | (theta > camera.theta_max))

    def test_grid_carries_camera_token(self, wide_camera):
        spec = BevGridSpec(extent=(4.0, 4.0), resolution=1.0)
        bev = bev_angles(spec, wide_camera, downward_extrinsics(5.0))
        assert bev.camera_token == wide_camera.fingerprint


class TestAngleInvariants:
    """PatchGrid and BevGrid refuse the same masked-in angles."""

    @staticmethod
    def _grids(theta, phi):
        angles = np.array([[[theta, phi], [math.nan, math.nan]]])
        mask = np.array([[True, False]])
        yield lambda: PatchGrid(
            patch_size=1,
            coords=angles,
            valid_mask=mask,
            centers_px=np.zeros((1, 2, 2)),
            theta_max=1.0,
            camera_token="t",
        )
        yield lambda: BevGrid(
            spec=BevGridSpec(extent=(1.0, 2.0), resolution=1.0),
            cell_angles=angles,
            visibility_mask=mask,
            theta_max=1.0,
            camera_token="t",
        )

    @pytest.mark.parametrize(
        "theta, phi",
        [(0.5, 7.0), (0.5, -9.0), (0.5, math.pi), (0.5, math.nan), (-0.1, 0.0), (1.1, 0.0),
         (math.inf, 0.0), (math.nan, 0.0)],
    )
    def test_out_of_range_angles_refused(self, theta, phi):
        for build, what in zip(self._grids(theta, phi), ("patch", "BEV")):
            with pytest.raises(ConfigError, match=f"masked-in {what} angles violate"):
                build()

    def test_in_range_angles_accepted(self):
        for build in self._grids(1.0 + 1e-13, -math.pi):
            build()

    def test_derived_shapes(self, wide_camera):
        grid = patch_angles(wide_camera, 64)
        assert grid.grid_dims == grid.coords.shape[:2] == grid.valid_mask.shape
        spec = BevGridSpec(extent=(3.0, 2.0), resolution=1.0)
        bev = bev_angles(spec, wide_camera, downward_extrinsics(5.0))
        np.testing.assert_array_equal(bev.cell_world, spec.cell_centers())
        assert bev.cell_world is bev.cell_world and not bev.cell_world.flags.writeable
