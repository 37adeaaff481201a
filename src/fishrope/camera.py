"""Kannala-Brandt fisheye camera geometry.

Radial model: a ray with incidence angle theta (radians from the optical
axis) lands at image radius

    r(theta) = k1*theta + k2*theta**3 + k3*theta**5 + ...

and at pixel coordinates

    u = cx + r(theta) * cos(phi)
    v = cy + r(theta) * sin(phi)

where phi is the azimuth of the ray's image-plane projection about the
principal point.  The inverse map (radius -> angle) has no closed form;
it is solved with Newton's method seeded at the paraxial estimate
theta0 = r / k1, or read from a precomputed lookup table with linear
interpolation.

Conventions: the camera frame is right-handed with the optical axis
along +z; phi = atan2(y, x) reported in [-pi, pi); the degenerate
on-axis case (r = 0) returns phi = 0.  Pixels up to a small band
(CLAMP_BAND_FRACTION * r_max) beyond the image circle are clamped onto
it rather than extrapolating the polynomial outside its fitted range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _products
from .errors import ConfigError, DomainError, OutOfImageCircleError

# Fraction of r_max tolerated (and clamped) beyond the image circle.
CLAMP_BAND_FRACTION = 1e-3

# Sample count used to verify strict monotonicity of r(theta) at construction.
_MONOTONE_SAMPLES = 1024

DEFAULT_NEWTON_ITERATIONS = 5
FULL_CONVERGENCE_TOL = 1e-12
FULL_CONVERGENCE_MAX_ITER = 50
# Most fixed Newton steps a caller may ask for; full convergence takes at
# most FULL_CONVERGENCE_MAX_ITER, so more only spins.
MAX_NEWTON_ITERATIONS = 1000

DEFAULT_LUT_RESOLUTION = 4096
# Largest LUT (32 MiB of entries), 64 times the benchmark's 65536.
MAX_LUT_RESOLUTION = 2**22


def _azimuth(y, x, radius):
    """phi = atan2(y, x) on [-pi, pi), and 0 on the axis, where radius is 0."""
    phi = np.arctan2(y, x)
    return np.where(radius == 0.0, 0.0, np.where(phi >= math.pi, phi - 2.0 * math.pi, phi))


def _clamped_radius(r, r_max: float) -> np.ndarray:
    """Check radii against the model's domain and clamp the band onto r_max.

    Non-finite or negative radii raise DomainError; radii beyond the
    clamp band (CLAMP_BAND_FRACTION * r_max past the image circle) raise
    OutOfImageCircleError.  Each message names the first offending radius.
    """
    r = np.asarray(r, dtype=np.float64)
    limit = r_max * (1.0 + CLAMP_BAND_FRACTION)
    for bad, error, what in (
        (~np.isfinite(r), DomainError, "non-finite radius"),
        (r < 0.0, DomainError, "negative radius"),
        (r > limit, OutOfImageCircleError, "radius beyond image circle"),
    ):
        if np.any(bad):
            raise error(
                f"{what} {float(r[bad].flat[0])} (r_max={r_max}, clamp limit={limit})"
            )
    return np.minimum(r, r_max)


def _readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    a = np.array(a, dtype=dtype, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class KannalaBrandtCamera:
    """Intrinsic fisheye model with radial polynomial coefficients.

    coeffs: (k1, ..., kK) applied to odd powers of theta; k1 > 0.
    principal_point: (cx, cy) in pixels, inside the image bounds.
    theta_max: maximum incidence angle in radians, in (0, pi].
    image_size: (width, height) in pixels, whole numbers (1024.0 loads as 1024).

    Construction verifies that r(theta) is strictly increasing on
    [0, theta_max] by sampling its derivative, and that r_max is finite;
    it fails otherwise.  Instances are immutable and safe to share across
    threads; `lut`, the default inverse table, is built on first use.
    """

    coeffs: tuple[float, ...]
    principal_point: tuple[float, float]
    theta_max: float
    image_size: tuple[int, int]

    def __post_init__(self) -> None:
        coeffs = tuple(float(k) for k in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(
            self, "principal_point", tuple(float(c) for c in self.principal_point)
        )
        object.__setattr__(self, "theta_max", float(self.theta_max))
        try:
            size = tuple(int(s) for s in self.image_size)
        except (TypeError, ValueError, OverflowError):  # nan, inf, None, "abc"
            size = None
        if size is None or size != tuple(self.image_size):
            raise ConfigError(f"image size must be whole numbers, got {self.image_size}")
        object.__setattr__(self, "image_size", size)

        if len(coeffs) < 1:
            raise ConfigError("need at least one radial coefficient")
        if not all(math.isfinite(k) for k in coeffs):
            raise ConfigError(f"non-finite radial coefficients {coeffs}")
        if coeffs[0] <= 0.0:
            raise ConfigError(f"k1 must be positive, got {coeffs[0]}")
        if not (0.0 < self.theta_max <= math.pi) or not math.isfinite(self.theta_max):
            raise ConfigError(f"theta_max must lie in (0, pi], got {self.theta_max}")
        w, h = self.image_size
        if w < 1 or h < 1:
            raise ConfigError(f"image size must be positive, got {self.image_size}")
        cx, cy = self.principal_point
        if not (0.0 <= cx <= w and 0.0 <= cy <= h):
            raise ConfigError(
                f"principal point {self.principal_point} outside image bounds {self.image_size}"
            )
        thetas = np.linspace(0.0, self.theta_max, _MONOTONE_SAMPLES)
        # Huge coefficients overflow to inf, and inf * 0 gives NaN samples,
        # which only `> 0` refuses.
        with np.errstate(over="ignore", invalid="ignore"):
            increasing = np.all(self.radial_derivative(thetas) > 0.0)
            r_max = self.r_max
        if not increasing:
            raise ConfigError(
                "radial polynomial is not strictly increasing on [0, theta_max] "
                "(a sampled derivative is not positive, or is NaN)"
            )
        if not math.isfinite(r_max):
            raise ConfigError(f"image circle radius r(theta_max) is {r_max}, not finite")

    @cached_property
    def r_max(self) -> float:
        """Image-circle radius in pixels: r(theta_max)."""
        return float(self.radial(self.theta_max))

    @cached_property
    def fingerprint(self) -> str:
        """Deterministic identity token; grids derived from this camera carry it."""
        return (
            f"kb|coeffs={self.coeffs!r}|pp={self.principal_point!r}"
            f"|theta_max={self.theta_max!r}|size={self.image_size!r}"
        )

    @cached_property
    def lut(self) -> "InverseLut":
        """This camera's inverse table at DEFAULT_LUT_RESOLUTION, built once."""
        return self.build_lut()

    # -- forward model ------------------------------------------------------

    def radial(self, theta):
        """Evaluate r(theta) = sum_j k_j theta^(2j-1) (Horner in theta^2)."""
        theta = np.asarray(theta, dtype=np.float64)
        t2 = theta * theta
        acc = np.zeros_like(theta)
        for k in reversed(self.coeffs):
            acc = acc * t2 + k
        return acc * theta

    def radial_derivative(self, theta):
        """Evaluate r'(theta) = sum_j (2j-1) k_j theta^(2j-2)."""
        theta = np.asarray(theta, dtype=np.float64)
        t2 = theta * theta
        acc = np.zeros_like(theta)
        for j in reversed(range(len(self.coeffs))):
            acc = acc * t2 + (2 * j + 1) * self.coeffs[j]
        return acc

    def project(self, theta, phi):
        """Map incidence/azimuth angles to pixel coordinates (u, v).

        u and v have the broadcast shape of theta and phi.  Raises
        DomainError if any theta falls outside [0, theta_max] or any phi
        outside the closed [-pi, pi].
        """
        theta = np.asarray(theta, dtype=np.float64)
        phi = np.asarray(phi, dtype=np.float64)
        if not np.all(np.isfinite(theta)) or not np.all(np.isfinite(phi)):
            raise DomainError("non-finite projection input")
        bad = (theta < 0.0) | (theta > self.theta_max)
        if np.any(bad):
            raise DomainError(
                f"incidence angle {float(theta[bad].flat[0])} outside [0, {self.theta_max}]"
            )
        bad = np.abs(phi) > math.pi
        if np.any(bad):
            raise DomainError(f"azimuth {float(phi[bad].flat[0])} outside [-pi, pi]")
        r = self.radial(theta)
        cx, cy = self.principal_point
        return cx + r * np.cos(phi), cy + r * np.sin(phi)

    # -- inverse model ------------------------------------------------------

    def radius_to_theta(self, r, iterations: int | None = None):
        """Invert the radial polynomial: find theta with r(theta) = r.

        iterations=None runs Newton to full convergence (|step| below
        FULL_CONVERGENCE_TOL, at most FULL_CONVERGENCE_MAX_ITER steps);
        an integer runs exactly that many fixed iterations.  The iterate
        starts at the paraxial estimate r / k1 and is clamped to
        [0, theta_max] so the polynomial is never evaluated outside its
        fitted range.  Radii within the clamp band above r_max are
        clamped onto the image circle; radii beyond it raise
        OutOfImageCircleError.
        """
        if iterations is not None and iterations < 1:
            raise DomainError(f"iteration count must be >= 1, got {iterations}")
        if iterations is not None and iterations > MAX_NEWTON_ITERATIONS:
            raise ConfigError(
                f"iteration count {iterations} is above the limit of {MAX_NEWTON_ITERATIONS}"
            )
        r = _clamped_radius(r, self.r_max)
        theta = np.clip(r / self.coeffs[0], 0.0, self.theta_max)
        for _ in range(FULL_CONVERGENCE_MAX_ITER if iterations is None else iterations):
            step = (self.radial(theta) - r) / self.radial_derivative(theta)
            theta = np.clip(theta - step, 0.0, self.theta_max)
            if iterations is None and np.max(np.abs(step)) < FULL_CONVERGENCE_TOL:
                break
        return theta

    def unproject_newton(
        self, u, v, iterations: int | None = DEFAULT_NEWTON_ITERATIONS
    ):
        """Recover (theta, phi) from pixel coordinates by Newton inversion.

        theta and phi have the broadcast shape of u and v.  phi = 0 at the
        principal point, where the azimuth is undefined.
        """
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if not np.all(np.isfinite(u)) or not np.all(np.isfinite(v)):
            raise DomainError("non-finite pixel coordinates")
        cx, cy = self.principal_point
        du = u - cx
        dv = v - cy
        r = np.hypot(du, dv)
        phi = _azimuth(dv, du, r)
        return self.radius_to_theta(r, iterations), phi

    def build_lut(self, resolution: int = DEFAULT_LUT_RESOLUTION) -> "InverseLut":
        """Tabulate the inverse radial map on a uniform radius grid.

        Each call builds a new table with fully converged Newton; lookups
        then cost one linear interpolation (`lut` keeps the default one).
        """
        if resolution < 2:
            raise ConfigError(f"LUT resolution must be >= 2, got {resolution}")
        if resolution > MAX_LUT_RESOLUTION:
            raise ConfigError(
                f"LUT resolution {resolution} is above the limit of {MAX_LUT_RESOLUTION}"
            )
        radii = np.linspace(0.0, self.r_max, resolution)
        entries = self.radius_to_theta(radii, iterations=None)
        return InverseLut(entries=entries, r_max=self.r_max, theta_max=self.theta_max)

    def angular_extent_ratio(self, pixel_offset: float) -> float:
        """Incidence-angle change per fixed pixel offset: center vs periphery.

        Returns dtheta([0, d]) / dtheta([0.9*r_max, 0.9*r_max + d]) for
        offset d, a measure of how much more angle a central pixel step
        subtends than a peripheral one.  Equals 1 for an equidistant
        (linear) model.
        """
        pixel_offset = float(pixel_offset)
        if not pixel_offset > 0.0:
            raise DomainError(f"pixel offset must be positive, got {pixel_offset}")
        if 0.9 * self.r_max + pixel_offset > self.r_max:
            raise DomainError(
                f"pixel offset {pixel_offset} too large for periphery interval "
                f"(must be <= 0.1 * r_max = {0.1 * self.r_max})"
            )
        center = self.radius_to_theta(pixel_offset, iterations=None)
        edge0 = self.radius_to_theta(0.9 * self.r_max, iterations=None)
        edge1 = self.radius_to_theta(0.9 * self.r_max + pixel_offset, iterations=None)
        return float(center / (edge1 - edge0))


@dataclass(frozen=True)
class InverseLut:
    """Uniformly spaced radius -> incidence-angle table.

    entries[i] holds theta at radius i * r_max / (resolution - 1), where
    resolution = len(entries) >= 2, computed to full Newton convergence.
    Entries are strictly increasing, start at 0, and end within 1e-9 of
    theta_max; r_max is finite and positive.
    """

    entries: np.ndarray
    r_max: float
    theta_max: float

    def __post_init__(self) -> None:
        entries = _readonly(self.entries)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 1 or len(entries) < 2:
            raise ConfigError("LUT entries must be a 1-D array of at least 2 values")
        if not (math.isfinite(self.r_max) and self.r_max > 0.0):
            raise ConfigError(f"LUT r_max must be finite and positive, got {self.r_max}")
        if entries[0] != 0.0:
            raise ConfigError(f"LUT must start at 0, got {entries[0]}")
        # Written so that a NaN entry or theta_max fails the comparison.
        if not np.all(np.diff(entries) > 0.0):
            raise ConfigError("LUT entries must be strictly increasing")
        if not abs(entries[-1] - self.theta_max) <= 1e-9:
            raise ConfigError(
                f"LUT endpoint {entries[-1]} does not reach theta_max {self.theta_max}"
            )

    @property
    def resolution(self) -> int:
        return len(self.entries)

    def lookup(self, r):
        """Linear interpolation of theta at radius r, in r's shape (clamp band as in Newton)."""
        r = _clamped_radius(r, self.r_max)
        step = self.r_max / (self.resolution - 1)
        pos = r / step
        lo = np.minimum(pos.astype(np.int64), self.resolution - 2)
        frac = pos - lo
        return self.entries[lo] * (1.0 - frac) + self.entries[lo + 1] * frac


@dataclass(frozen=True)
class Extrinsics:
    """Rigid world -> camera transform: p_cam = rotation @ p_world + translation.

    Both must be finite; rotation must be orthonormal with determinant +1
    within 1e-9.
    """

    rotation: np.ndarray
    translation: np.ndarray

    _ORTHO_TOL = 1e-9

    def __post_init__(self) -> None:
        rot = _readonly(self.rotation)
        t = _readonly(self.translation)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", t)
        if rot.shape != (3, 3) or t.shape != (3,):
            raise ConfigError(
                f"extrinsics need a 3x3 rotation and 3-vector translation, "
                f"got {rot.shape} and {t.shape}"
            )
        if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(t))):
            raise ConfigError("extrinsics rotation and translation must be finite")
        if np.max(np.abs(rot.T @ rot - np.eye(3))) > self._ORTHO_TOL:
            raise ConfigError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(rot) - 1.0) > self._ORTHO_TOL:
            raise ConfigError("rotation determinant is not +1 within 1e-9")

    @classmethod
    def identity(cls) -> "Extrinsics":
        return cls(rotation=np.eye(3), translation=np.zeros(3))

    @classmethod
    def look_at(cls, position, target, up=(0.0, 0.0, 1.0), roll: float = 0.0) -> "Extrinsics":
        """Camera at `position` with the optical axis (+z) toward `target`.

        The camera x axis is chosen perpendicular to the world `up` hint,
        y completes the right-handed frame (pointing "down" for the
        conventional up).  `roll` then rotates the image axes about the
        optical axis (positive x-toward-y); e.g. roll = pi/2 points the
        azimuth seam (phi = +/-pi, the -x image direction) toward `up`.
        """
        position = np.asarray(position, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        up = np.asarray(up, dtype=np.float64)
        forward = target - position
        norm = np.linalg.norm(forward)
        if norm == 0.0:
            raise ConfigError("look_at target coincides with camera position")
        z = forward / norm
        x = np.cross(z, up)
        if np.linalg.norm(x) < 1e-12:
            # Optical axis parallel to `up`: pick a fixed lateral reference.
            x = np.cross(z, np.array([1.0, 0.0, 0.0]))
            if np.linalg.norm(x) < 1e-12:
                x = np.cross(z, np.array([0.0, 1.0, 0.0]))
        x = x / np.linalg.norm(x)
        y = np.cross(z, x)
        if roll:
            c, s = math.cos(roll), math.sin(roll)
            x, y = c * x + s * y, -s * x + c * y
        rot_cam_to_world = np.stack([x, y, z], axis=1)
        rotation = rot_cam_to_world.T
        return cls(rotation=rotation, translation=-rotation @ position)

    @cached_property
    def camera_center(self) -> np.ndarray:
        """Camera position in world coordinates (-R^T t)."""
        return _readonly(-self.rotation.T @ self.translation)

    def transform(self, points):
        """Apply world -> camera to points of shape (..., 3)."""
        points = np.asarray(points, dtype=np.float64)
        if points.shape[-1] != 3:
            raise ConfigError(f"points must have shape (..., 3), got {points.shape}")
        return points @ self.rotation.T + self.translation

    def compose(self, inner: "Extrinsics") -> "Extrinsics":
        """Rigid composition: (self o inner)(p) = self(inner(p))."""
        return Extrinsics(
            rotation=_products.matmul(self.rotation, inner.rotation),
            translation=self.rotation @ inner.translation + self.translation,
        )

    def ray_angles(self, points):
        """Per-point (theta, phi, in_front) for world points of shape (..., 3).

        theta is the angle to the optical axis, phi the azimuth in the
        camera frame; entries behind the camera (z_cam <= 0) are NaN
        with in_front False.  Does not raise: intended for grid masking.
        """
        p_cam = self.transform(points)
        x, y, z = p_cam[..., 0], p_cam[..., 1], p_cam[..., 2]
        in_front = z > 0.0
        rho = np.hypot(x, y)
        theta = np.where(in_front, np.arctan2(rho, z), np.nan)
        phi = np.where(in_front, _azimuth(y, x, rho), np.nan)
        return theta, phi, in_front
