"""Built-in fixture cameras and scenes.

Real automotive calibration values are proprietary to their datasets, so
the repository works against synthetic cameras:

  linear     equidistant fisheye r = 100 theta, the degenerate baseline.
  k2         two-coefficient model with mild distortion.
  wide       four-coefficient model tuned so a fixed pixel step at the
             image center subtends a few times more angle than at the
             periphery (angular_extent_ratio between 3 and 5), with the
             image circle fully inside the frame.

`scripts/make_fixture_camera.py` regenerates the calibration file for
the wide camera from these constants and re-verifies the ratio window.
"""

from __future__ import annotations

import numpy as np

from .camera import Extrinsics, KannalaBrandtCamera

# Wide-angle fixture: theta_max ~ 95 deg, r_max ~ 506 px inside a 1024 px frame.
WIDE_COEFFS = (160.0, 40.0, 4.0, 0.25)
WIDE_THETA_MAX = 1.658
WIDE_IMAGE_SIZE = (1024, 1024)
WIDE_PRINCIPAL_POINT = (512.0, 512.0)
EXTENT_RATIO_WINDOW = (3.0, 5.0)

# Frozen BEV lifting scene: camera 5 m up, optical axis toward the ground
# point (6, 0); the checker square size and origin keep the axis-ground
# polar-ambiguity region inside one label square.
SCENE_CAMERA_HEIGHT = 5.0
SCENE_LOOK_TARGET = (6.0, 0.0, 0.0)
SCENE_CHECKER_SQUARE = 10.0
SCENE_CHECKER_ORIGIN = (2.0, -4.0)


def linear_camera() -> KannalaBrandtCamera:
    """Equidistant fisheye r(theta) = k1 * theta, not a pinhole (r = f tan theta)."""
    return KannalaBrandtCamera(
        coeffs=(100.0, 0.0),
        principal_point=(100.0, 100.0),
        theta_max=1.0,
        image_size=(200, 200),
    )


def k2_camera() -> KannalaBrandtCamera:
    """Two-coefficient model with mild cubic distortion."""
    return KannalaBrandtCamera(
        coeffs=(300.0, 20.0),
        principal_point=(320.0, 240.0),
        theta_max=1.0,
        image_size=(640, 480),
    )


def wide_camera() -> KannalaBrandtCamera:
    """Strongly distorted wide-angle fixture; extent ratio falls in [3, 5]."""
    return KannalaBrandtCamera(
        coeffs=WIDE_COEFFS,
        principal_point=WIDE_PRINCIPAL_POINT,
        theta_max=WIDE_THETA_MAX,
        image_size=WIDE_IMAGE_SIZE,
    )


def fixture_cameras() -> dict[str, KannalaBrandtCamera]:
    return {"linear": linear_camera(), "k2": k2_camera(), "wide": wide_camera()}


def scene_extrinsics() -> Extrinsics:
    """Oblique downward-looking pose for ground-plane lifting scenes."""
    return Extrinsics.look_at(position=(0.0, 0.0, SCENE_CAMERA_HEIGHT), target=SCENE_LOOK_TARGET)


def scene_pattern():
    """Checkerboard used by the frozen lifting scene."""
    from .experiments import CheckerPattern

    return CheckerPattern(square=SCENE_CHECKER_SQUARE, origin=SCENE_CHECKER_ORIGIN)


def downward_extrinsics(height: float) -> Extrinsics:
    """Straight-down pose over the world origin, camera x aligned with world x."""
    return Extrinsics.look_at(
        position=np.array([0.0, 0.0, float(height)]),
        target=np.zeros(3),
        up=(0.0, 1.0, 0.0),
    )
