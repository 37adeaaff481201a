"""Angular coordinate grids for image patches and BEV cells.

Every token that enters attention is bound to a (theta, phi) pair in the
lens spherical coordinate system.  This module produces those pairs:
per-patch angles through the camera's own inverse table (`camera.lut`),
and per-cell angles by forward projection of ground-plane cell centers.

Out-of-domain entries (patch centers outside the image circle, cells
behind the camera or past theta_max) become mask entries, never errors:
grids keep their full rectangular shape and carry NaN angles where the
mask is False.  Both grids check their masked-in angles on one path,
`_check_angles`: finite, theta in [0, theta_max + 1e-12], phi in
[-pi, pi).  No grid stores a size its arrays or spec already fix:
BevGridSpec.dims, BevGrid.cell_world and PatchGrid.grid_dims are
derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .camera import Extrinsics, KannalaBrandtCamera, _azimuth, _readonly
from .errors import ConfigError

# Most cells a BEV or patch grid may hold (a 4096 x 4096 grid).  The lift's
# grids are ~10^4 cells; the cap turns a mistyped resolution or image size
# into a config error before any per-cell array is allocated.
MAX_BEV_CELLS = 4096 * 4096
# Largest patch side, in pixels.  A patch wider than the image is clipped
# to it, so a larger size changes nothing; the cap keeps a mistyped size
# inside the integer range of the tiling arithmetic.
MAX_PATCH_SIZE = 2**16


def _check_angles(angles: np.ndarray, mask: np.ndarray, theta_max: float, what: str) -> None:
    """Refuse masked-in (theta, phi) outside theta in [0, theta_max], phi in [-pi, pi).

    A NaN fails every comparison, so only theta needs its own finite test
    (in case theta_max is infinite).
    """
    theta, phi = angles[mask].T
    ok = np.isfinite(theta) & (theta >= 0.0) & (theta <= theta_max + 1e-12)
    if not np.all(ok & (phi >= -np.pi) & (phi < np.pi)):
        raise ConfigError(f"masked-in {what} angles violate angular invariants")


@dataclass(frozen=True)
class PatchGrid:
    """Angular coordinates of patch centers over a fisheye image.

    coords has shape (rows, cols, 2) holding (theta, phi) per patch, and
    fixes grid_dims = (rows, cols); centers_px the matching pixel
    centers; valid_mask flags patches whose center lies inside the image
    circle.  Masked-out entries hold NaN angles.  Edge patches clipped by
    the image boundary keep the center of their actual pixel extent.
    """

    patch_size: int
    coords: np.ndarray
    valid_mask: np.ndarray
    centers_px: np.ndarray
    theta_max: float
    camera_token: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _readonly(self.coords))
        object.__setattr__(self, "centers_px", _readonly(self.centers_px))
        object.__setattr__(self, "valid_mask", _readonly(self.valid_mask, dtype=bool))
        if self.coords.ndim != 3 or self.coords.shape[2] != 2:
            raise ConfigError(f"coords shape {self.coords.shape} is not (rows, cols, 2)")
        if self.valid_mask.shape != self.grid_dims or self.centers_px.shape != self.coords.shape:
            raise ConfigError("mask/centers shapes inconsistent with grid dims")
        _check_angles(self.coords, self.valid_mask, self.theta_max, "patch")

    @property
    def grid_dims(self) -> tuple[int, int]:
        return self.coords.shape[:2]

    @property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.valid_mask))

    def flat_valid(self) -> tuple[np.ndarray, np.ndarray]:
        """(coords, centers_px) restricted to valid patches, row-major order."""
        m = self.valid_mask.reshape(-1)
        return (
            self.coords.reshape(-1, 2)[m],
            self.centers_px.reshape(-1, 2)[m],
        )


def patch_angles(camera: KannalaBrandtCamera, patch_size: int) -> PatchGrid:
    """Angular coordinates at every patch center of a tiled image.

    The image is tiled with patch_size x patch_size cells starting at the
    top-left corner; a partial last row/column is kept with the center of
    its clipped extent.  Theta comes from the camera's own default
    inverse table, `camera.lut` (built on first use), and phi from atan2.
    """
    if patch_size < 1:
        raise ConfigError(f"patch size must be >= 1, got {patch_size}")
    if patch_size > MAX_PATCH_SIZE:
        raise ConfigError(f"patch size {patch_size} is above the limit of {MAX_PATCH_SIZE}")
    w, h = camera.image_size
    cols = -(-w // patch_size)
    rows = -(-h // patch_size)
    if rows * cols > MAX_BEV_CELLS:
        raise ConfigError(
            f"image size {camera.image_size} at patch size {patch_size} gives {rows}x{cols} "
            f"patches, above the limit of {MAX_BEV_CELLS}"
        )
    col_start = np.arange(cols) * patch_size
    row_start = np.arange(rows) * patch_size
    cu = (col_start + np.minimum(col_start + patch_size, w)) / 2.0
    cv = (row_start + np.minimum(row_start + patch_size, h)) / 2.0
    u, v = np.meshgrid(cu, cv)

    cx, cy = camera.principal_point
    du = u - cx
    dv = v - cy
    r = np.hypot(du, dv)
    valid = r <= camera.r_max

    theta = np.full_like(r, np.nan)
    theta[valid] = camera.lut.lookup(r[valid])
    phi = np.where(valid, _azimuth(dv, du, r), np.nan)

    return PatchGrid(
        patch_size=patch_size,
        coords=np.stack([theta, phi], axis=-1),
        valid_mask=valid,
        centers_px=np.stack([u, v], axis=-1),
        theta_max=camera.theta_max,
        camera_token=camera.fingerprint,
    )


@dataclass(frozen=True)
class BevGridSpec:
    """Discretization of the ground plane: square cells spanning extent meters.

    extent = (x_extent, y_extent) meters, finite and positive, cut into
    dims = (n_x, n_y) = round(extent / resolution) cells, at least one a
    side and at most MAX_BEV_CELLS in all.  The grid is centered on the
    world origin with cell (i, j) centered at
    x = -x_extent/2 + (i + 0.5) * resolution (and likewise in y).
    """

    extent: tuple[float, float]
    resolution: float
    dims: tuple[int, int] = field(init=False)

    def __post_init__(self) -> None:
        extent = tuple(float(e) for e in self.extent)
        resolution = float(self.resolution)
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "resolution", resolution)
        if not (math.isfinite(resolution) and resolution > 0.0):
            raise ConfigError(f"resolution must be positive and finite, got {resolution}")
        if not all(math.isfinite(e) and e > 0.0 for e in extent):
            raise ConfigError(f"extent must be positive and finite, got {extent}")
        cells = (extent[0] / resolution) * (extent[1] / resolution)
        if cells > MAX_BEV_CELLS:
            raise ConfigError(
                f"extent {extent} at resolution {resolution} gives {cells:.3g} "
                f"cells, above the limit of {MAX_BEV_CELLS}"
            )
        dims = (round(extent[0] / resolution), round(extent[1] / resolution))
        if min(dims) < 1:
            raise ConfigError(
                f"extent {extent} at resolution {resolution} rounds to {dims} "
                "cells; each side needs at least one"
            )
        object.__setattr__(self, "dims", dims)

    def cell_centers(self) -> np.ndarray:
        """World (x, y, 0) centers, shape (n_x, n_y, 3)."""
        nx, ny = self.dims
        xs = -self.extent[0] / 2.0 + (np.arange(nx) + 0.5) * self.resolution
        ys = -self.extent[1] / 2.0 + (np.arange(ny) + 0.5) * self.resolution
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([gx, gy, np.zeros_like(gx)], axis=-1)


@dataclass(frozen=True)
class BevGrid:
    """Ground-plane grid with per-cell angular coordinates under a camera.

    cell_angles holds the projected (theta, phi) per cell; visibility_mask
    flags cells in front of the camera with theta <= theta_max.
    Masked-out cells hold NaN angles.  cell_world, the (x, y, 0) centers,
    is computed from spec on first use.
    """

    spec: BevGridSpec
    cell_angles: np.ndarray
    visibility_mask: np.ndarray
    theta_max: float
    camera_token: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "cell_angles", _readonly(self.cell_angles))
        object.__setattr__(self, "visibility_mask", _readonly(self.visibility_mask, dtype=bool))
        if self.cell_angles.shape != (*self.spec.dims, 2):
            raise ConfigError("BEV grid array shapes inconsistent with spec dims")
        if self.visibility_mask.shape != self.spec.dims:
            raise ConfigError("visibility mask shape inconsistent with spec dims")
        _check_angles(self.cell_angles, self.visibility_mask, self.theta_max, "BEV")

    @cached_property
    def cell_world(self) -> np.ndarray:
        return _readonly(self.spec.cell_centers())

    @property
    def n_visible(self) -> int:
        return int(np.count_nonzero(self.visibility_mask))

    def flat_visible(self) -> tuple[np.ndarray, np.ndarray]:
        """(angles, world points) restricted to visible cells, row-major order."""
        m = self.visibility_mask.reshape(-1)
        return (
            self.cell_angles.reshape(-1, 2)[m],
            self.cell_world.reshape(-1, 3)[m],
        )


def bev_angles(
    spec: BevGridSpec,
    camera: KannalaBrandtCamera,
    extrinsics: Extrinsics,
) -> BevGrid:
    """Project ground-plane cell centers into lens angular coordinates.

    Cells sit on the z = 0 world plane (flat-ground assumption).  A cell
    is visible iff its center maps in front of the camera and within the
    lens field of view (theta <= theta_max).
    """
    world = spec.cell_centers()
    theta, phi, in_front = extrinsics.ray_angles(world)
    with np.errstate(invalid="ignore"):
        visible = in_front & (theta <= camera.theta_max)
    theta = np.where(visible, theta, np.nan)
    phi = np.where(visible, phi, np.nan)
    return BevGrid(
        spec=spec,
        cell_angles=np.stack([theta, phi], axis=-1),
        visibility_mask=visible,
        theta_max=camera.theta_max,
        camera_token=camera.fingerprint,
    )
