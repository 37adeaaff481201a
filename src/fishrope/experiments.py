"""Desk-scale executable experiments and the invariant selfcheck.

Three entry points:

  retrieval_bench   angular retrieval: keys are patch tokens carrying one
                    shared probe feature, queries are copies of that
                    feature placed at random coordinates inside the image
                    circle.  Because every rotation plane of the probe is
                    a unit vector, the largest logit identifies the key
                    with the smallest frequency-weighted angular
                    separation, so top-1 accuracy against the
                    great-circle nearest key measures how faithfully an
                    encoding represents angular geometry.  No training.

  bev_roundtrip     purely geometric correspondence: ground-plane labels
                    are rendered into patch tokens by ray casting, then
                    recovered per BEV cell by argmax cross-attention with
                    the same probe construction; accuracy is the fraction
                    of visible cells recovering their own label.

  selfcheck         executes every documented invariant with fixed seeds
                    and reports measured values against tolerances.

Reports serialize deterministically: given equal seeds and configs the
emitted documents are byte-identical.  Wall-clock timings are kept out
of the serialized form for that reason and reported separately.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import attention, rope
from .angular import BevGridSpec, bev_angles, patch_angles
from .attention import AttentionConfig, ProjectionWeights, TokenGrid
from .camera import Extrinsics, KannalaBrandtCamera
from .errors import ConfigError, EmptyOverlapError
from .fixtures import fixture_cameras, scene_extrinsics, wide_camera
from .rope import ENCODINGS, RotaryConfig

REPORT_FORMAT_VERSION = 1

# Draws per block in the rotary property checks.  A block shares one config
# and goes through the batched kernel at once; bounding it keeps peak memory
# flat in the draw count.
ROPE_CHECK_BLOCK = 50

# Ceilings on the experiment sizes a user can ask for, well above the
# defaults (16 and 512), so a mistyped value is a config error rather than
# a huge allocation or a run that does not end.
MAX_FEATURE_DIM = 1024
MAX_BENCH_QUERIES = 2**16


def probe_feature(dim: int) -> np.ndarray:
    """Unit vector in every rotation plane: (1, 0, 1, 0, ...)."""
    if dim < 2 or dim % 2 != 0:
        raise ConfigError(f"probe dim must be even and >= 2, got {dim}")
    return np.tile(np.array([1.0, 0.0]), dim // 2)


def ray_directions(coords: np.ndarray) -> np.ndarray:
    """Unit ray directions for (theta, phi) rows, camera-frame (+z optical axis)."""
    theta = coords[..., 0]
    phi = coords[..., 1]
    sin_t = np.sin(theta)
    return np.stack(
        [sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)], axis=-1
    )


def _attention_config(
    encoding: str, feature_dim: int, base: float, image_size
) -> AttentionConfig:
    rotary = None
    if encoding in ("axial_rope", "fishrope"):
        rotary = RotaryConfig(dim=feature_dim, base=base)
    return AttentionConfig(
        heads=1,
        head_dim=feature_dim,
        encoding=encoding,
        rotary=rotary,
        image_size=tuple(image_size) if encoding == "axial_rope" else None,
    )


def _probe_tokens(
    encoding: str,
    angles: np.ndarray,
    pixels: np.ndarray,
    camera: KannalaBrandtCamera,
    feature_dim: int,
) -> TokenGrid:
    """Probe-feature tokens at the coordinates `encoding` reads.

    fishrope reads angles, the other encodings pixels.  The sinusoidal
    baseline is fed pixels normalized to [0, 1] so its encoding varies
    smoothly over the image, mirroring the axial rotary normalization.
    """
    if encoding == "fishrope":
        coords = angles
    elif encoding == "sinusoidal":
        w, h = camera.image_size
        coords = pixels / np.array([float(w), float(h)])
    else:
        coords = pixels
    n = len(coords)
    return TokenGrid(
        features=np.tile(probe_feature(feature_dim), (n, 1)),
        coords=coords,
        mask=np.ones(n, dtype=bool),
        camera_token=camera.fingerprint,
    )


def _check_encodings(encodings: tuple[str, ...], feature_dim: int) -> None:
    """Experiment configs need known encodings and a dim every encoding takes."""
    if not encodings:
        raise ConfigError("at least one encoding is required")
    unknown = set(encodings) - set(ENCODINGS)
    if unknown:
        raise ConfigError(f"unknown encodings {sorted(unknown)}")
    if feature_dim > MAX_FEATURE_DIM:
        raise ConfigError(f"feature_dim {feature_dim} is above the limit of {MAX_FEATURE_DIM}")
    if feature_dim < 4 or feature_dim % 4 != 0:
        raise ConfigError(f"feature_dim must be a positive multiple of 4, got {feature_dim}")


def _require_two_keys(n_keys: int, patch_size: int, experiment: str) -> None:
    """With one key every encoding picks it, so the score says nothing."""
    if n_keys < 2:
        raise ConfigError(
            f"patch size {patch_size} leaves {n_keys} key; {experiment} needs at least 2"
        )


class _ScoredReport:
    """Per-encoding scores; each `results` row is one score minus its runtime."""

    def score(self, encoding: str):
        for s in self.scores:
            if s.encoding == encoding:
                return s
        raise KeyError(encoding)

    def _results(self) -> list[dict]:
        return [
            {f.name: getattr(s, f.name) for f in fields(s) if f.name != "runtime_s"}
            for s in self.scores
        ]


# ---------------------------------------------------------------------------
# retrieval bench
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetrievalBenchConfig:
    """Angular-retrieval benchmark settings.

    periphery_band bounds (as fractions of r_max) the radius range of the
    periphery-weighted query set; wrap_margin is the |phi| distance from
    the +/-pi seam within which queries are reported separately.
    """

    camera: KannalaBrandtCamera
    patch_size: int = 64
    n_queries: int = 512
    seed: int = 0
    encodings: tuple[str, ...] = ENCODINGS
    feature_dim: int = 16
    base: float = 10000.0
    periphery_band: tuple[float, float] = (0.7, 0.98)
    wrap_margin: float = 0.2

    def __post_init__(self) -> None:
        if self.n_queries < 1:
            raise ConfigError(f"n_queries must be >= 1, got {self.n_queries}")
        if self.n_queries > MAX_BENCH_QUERIES:
            raise ConfigError(
                f"n_queries {self.n_queries} is above the limit of {MAX_BENCH_QUERIES}"
            )
        _check_encodings(self.encodings, self.feature_dim)
        lo, hi = self.periphery_band
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigError(f"bad periphery band {self.periphery_band}")


@dataclass(frozen=True)
class EncodingScore:
    encoding: str
    top1_accuracy: float
    mean_rank: float
    periphery_accuracy: float
    periphery_mean_rank: float
    wrap_accuracy: float | None
    runtime_s: float


@dataclass(frozen=True)
class BenchReport(_ScoredReport):
    """Per-encoding retrieval scores; deterministic given config and seed."""

    config_summary: dict
    camera_fingerprint: str
    extent_ratio: float
    degenerate_camera: bool
    n_keys: int
    wrap_query_count: int
    scores: tuple[EncodingScore, ...]

    def as_dict(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "kind": "retrieval_bench",
            "config": self.config_summary,
            "camera": {
                "fingerprint": self.camera_fingerprint,
                "extent_ratio": self.extent_ratio,
                "degenerate": self.degenerate_camera,
            },
            "n_keys": self.n_keys,
            "wrap_query_count": self.wrap_query_count,
            "results": self._results(),
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["encoding", "query_set", "top1_accuracy", "mean_rank"]
        rows = []
        for s in self.scores:
            rows.append([s.encoding, "uniform", s.top1_accuracy, s.mean_rank])
            rows.append(
                [s.encoding, "periphery", s.periphery_accuracy, s.periphery_mean_rank]
            )
        return header, rows


def _argmax_with_random_ties(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Row argmax with exact ties broken uniformly at random (seeded).

    Draws one scalar rng.integers(count) per tied row, in row order; the
    array form of integers buffers its draws and would shift the stream.
    """
    is_peak = rows == rows.max(axis=1, keepdims=True)
    counts = np.count_nonzero(is_peak, axis=1)
    out = np.argmax(is_peak, axis=1)
    tied = np.flatnonzero(counts > 1)
    if tied.size:
        draws = np.array([rng.integers(int(counts[i])) for i in tied])
        seen = np.cumsum(is_peak[tied], axis=1)
        out[tied] = np.argmax(seen > draws[:, None], axis=1)
    return out


def _ranks_of(rows: np.ndarray, targets: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """1-based rank of targets under descending logits, ties broken by perm."""
    picked = np.arange(rows.shape[0])
    target = rows[picked, targets][:, None]
    ahead = (rows > target) | ((rows == target) & (perm < perm[targets][:, None]))
    return 1 + np.count_nonzero(ahead, axis=1)


def retrieval_bench(config: RetrievalBenchConfig, return_detail: bool = False):
    """Run the angular-retrieval benchmark; see the module docstring.

    Deterministic for a fixed config: query draws and tie-breaking use
    seeds derived from config.seed.  With return_detail=True also returns
    per-encoding logits and chosen indices for cross-checking.
    """
    camera = config.camera
    lut = camera.build_lut()
    grid = patch_angles(camera, config.patch_size, lut)
    key_coords, key_px = grid.flat_valid()
    n_keys = key_coords.shape[0]
    if n_keys == 0:
        raise EmptyOverlapError("no patch centers fall inside the image circle")
    _require_two_keys(n_keys, config.patch_size, "retrieval")

    offset = 0.05 * camera.r_max
    extent_ratio = camera.angular_extent_ratio(offset)
    degenerate = extent_ratio <= 1.5

    rng = np.random.default_rng(config.seed)
    cx, cy = camera.principal_point

    def draw(radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phi = rng.uniform(-math.pi, math.pi, len(radii))
        px = np.stack([cx + radii * np.cos(phi), cy + radii * np.sin(phi)], axis=-1)
        coords = np.stack([lut.lookup(radii), phi], axis=-1)
        return coords, px

    uniform_r = camera.r_max * np.sqrt(rng.uniform(0.0, 1.0, config.n_queries))
    uniform_coords, uniform_px = draw(uniform_r)
    lo, hi = config.periphery_band
    peri_r = camera.r_max * rng.uniform(lo, hi, config.n_queries)
    peri_coords, peri_px = draw(peri_r)

    key_dirs = ray_directions(key_coords)
    truth_uniform = np.argmax(ray_directions(uniform_coords) @ key_dirs.T, axis=1)
    truth_peri = np.argmax(ray_directions(peri_coords) @ key_dirs.T, axis=1)
    wrap_mask = np.abs(np.abs(uniform_coords[:, 1]) - math.pi) < config.wrap_margin

    weights = ProjectionWeights.identity(config.feature_dim)

    scores = []
    detail: dict[str, dict] = {}
    for idx, encoding in enumerate(config.encodings):
        att = _attention_config(encoding, config.feature_dim, config.base, camera.image_size)
        keys = _probe_tokens(encoding, key_coords, key_px, camera, config.feature_dim)
        enc_rng = np.random.default_rng([config.seed, 1000 + idx])
        perm = enc_rng.permutation(n_keys)
        t0 = time.perf_counter()
        per_set = {}
        for set_name, coords, px, truth in (
            ("uniform", uniform_coords, uniform_px, truth_uniform),
            ("periphery", peri_coords, peri_px, truth_peri),
        ):
            queries = _probe_tokens(encoding, coords, px, camera, config.feature_dim)
            logits = attention.logit_matrix(queries, keys, weights, att)
            chosen = _argmax_with_random_ties(logits, enc_rng)
            ranks = _ranks_of(logits, truth, perm)
            per_set[set_name] = {
                "logits": logits,
                "chosen": chosen,
                "truth": truth,
                "accuracy": float(np.mean(chosen == truth)),
                "mean_rank": float(np.mean(ranks)),
            }
        runtime = time.perf_counter() - t0
        wrap_acc = None
        if np.any(wrap_mask):
            u = per_set["uniform"]
            wrap_acc = float(np.mean(u["chosen"][wrap_mask] == u["truth"][wrap_mask]))
        scores.append(
            EncodingScore(
                encoding=encoding,
                top1_accuracy=per_set["uniform"]["accuracy"],
                mean_rank=per_set["uniform"]["mean_rank"],
                periphery_accuracy=per_set["periphery"]["accuracy"],
                periphery_mean_rank=per_set["periphery"]["mean_rank"],
                wrap_accuracy=wrap_acc,
                runtime_s=runtime,
            )
        )
        detail[encoding] = per_set

    report = BenchReport(
        config_summary={
            "seed": config.seed,
            "patch_size": config.patch_size,
            "n_queries": config.n_queries,
            "feature_dim": config.feature_dim,
            "base": config.base,
            "periphery_band": list(config.periphery_band),
            "wrap_margin": config.wrap_margin,
            "encodings": list(config.encodings),
        },
        camera_fingerprint=camera.fingerprint,
        extent_ratio=float(extent_ratio),
        degenerate_camera=bool(degenerate),
        n_keys=n_keys,
        wrap_query_count=int(np.count_nonzero(wrap_mask)),
        scores=tuple(scores),
    )
    if return_detail:
        detail["query_coords"] = {"uniform": uniform_coords, "periphery": peri_coords}
        detail["key_coords"] = key_coords
        return report, detail
    return report


# ---------------------------------------------------------------------------
# BEV round-trip
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckerPattern:
    """Two-label checkerboard on the ground plane with the given square size.

    origin anchors a square corner, letting scenes center a square on a
    chosen point (e.g. the optical-axis ground intersection, where polar
    azimuth ambiguity concentrates retrieval displacement).
    """

    square: float = 6.0
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.square) and self.square > 0.0):
            raise ConfigError(f"checker square must be positive and finite, got {self.square}")
        if not all(math.isfinite(c) for c in self.origin):
            raise ConfigError(f"checker origin must be finite, got {self.origin}")

    def labels_at(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64) - self.origin[0]
        y = np.asarray(y, dtype=np.float64) - self.origin[1]
        return ((np.floor(x / self.square) + np.floor(y / self.square)) % 2).astype(
            np.int64
        )


@dataclass(frozen=True)
class UniformPattern:
    """Single-label ground plane (degenerate round-trip calibration case)."""

    label: int = 0

    def labels_at(self, x, y) -> np.ndarray:
        return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, self.label)


@dataclass(frozen=True)
class LiftConfig:
    """Scene settings for the BEV correspondence round-trip."""

    extent: tuple[float, float] = (30.0, 30.0)
    resolution: float = 0.5
    patch_size: int = 16
    feature_dim: int = 16
    base: float = 10000.0
    encodings: tuple[str, ...] = ("fishrope", "axial_rope")
    peripheral_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        _check_encodings(self.encodings, self.feature_dim)
        if not (0.0 < self.peripheral_fraction < 1.0):
            raise ConfigError(
                f"peripheral fraction must be in (0, 1), got {self.peripheral_fraction}"
            )


@dataclass(frozen=True)
class LiftScore:
    encoding: str
    overall_accuracy: float
    peripheral_accuracy: float
    bands: tuple[dict, ...]
    runtime_s: float


@dataclass(frozen=True)
class LiftReport(_ScoredReport):
    """BEV round-trip correspondence accuracies."""

    config_summary: dict
    camera_fingerprint: str
    n_visible: int
    n_keys: int
    scores: tuple[LiftScore, ...]

    def as_dict(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "kind": "bev_lift",
            "config": self.config_summary,
            "camera": {"fingerprint": self.camera_fingerprint},
            "n_visible": self.n_visible,
            "n_keys": self.n_keys,
            "results": self._results(),
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["encoding", "region", "accuracy", "n_cells"]
        rows = []
        for s in self.scores:
            rows.append([s.encoding, "overall", s.overall_accuracy, self.n_visible])
            for band in s.bands:
                rows.append([s.encoding, band["region"], band["accuracy"], band["n_cells"]])
        return header, rows


def ground_intersections(
    coords: np.ndarray, extrinsics: Extrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Intersect per-token camera rays with the z=0 world plane.

    Returns (points (N, 3), hit mask); rays parallel to or pointing away
    from the plane miss.
    """
    dirs_cam = ray_directions(coords)
    dirs_world = dirs_cam @ extrinsics.rotation
    center = extrinsics.camera_center
    dz = dirs_world[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -center[2] / dz
    hit = np.isfinite(t) & (t > 0.0)
    t = np.where(hit, t, 0.0)
    points = center[None, :] + t[:, None] * dirs_world
    points[~hit] = np.nan
    return points, hit


def bev_roundtrip(
    camera: KannalaBrandtCamera,
    extrinsics: Extrinsics,
    pattern,
    config: LiftConfig = LiftConfig(),
) -> LiftReport:
    """Geometric BEV correspondence accuracy; see the module docstring.

    Renders ground labels into image patches by ray casting, lifts them
    back per visible BEV cell via argmax cross-attention logits under
    each encoding, and scores label agreement.  Peripheral cells are the
    outer `peripheral_fraction` of visible cells ranked by projected
    image radius.
    """
    lut = camera.build_lut()
    grid = patch_angles(camera, config.patch_size, lut)
    patch_coords, patch_px = grid.flat_valid()
    hits, hit_mask = ground_intersections(patch_coords, extrinsics)
    if not np.any(hit_mask):
        raise EmptyOverlapError("no image patch sees the ground plane")
    key_coords = patch_coords[hit_mask]
    key_px = patch_px[hit_mask]
    key_labels = pattern.labels_at(hits[hit_mask, 0], hits[hit_mask, 1])
    n_keys = key_coords.shape[0]
    _require_two_keys(n_keys, config.patch_size, "lift")

    spec = BevGridSpec.from_extent(config.extent, config.resolution)
    bev = bev_angles(spec, camera, extrinsics)
    if bev.n_visible == 0:
        raise EmptyOverlapError("no BEV cell is visible to the camera")
    cell_coords, cell_world = bev.flat_visible()
    true_labels = pattern.labels_at(cell_world[:, 0], cell_world[:, 1])
    cell_px = np.stack(camera.project(cell_coords[:, 0], cell_coords[:, 1]), axis=-1)

    cx, cy = camera.principal_point
    radius = np.hypot(cell_px[:, 0] - cx, cell_px[:, 1] - cy)
    q_peri = np.quantile(radius, 1.0 - config.peripheral_fraction)
    q_inner = np.quantile(radius, 0.4)
    peripheral = radius >= q_peri
    bands = (
        ("inner", radius < q_inner),
        ("mid", (radius >= q_inner) & (radius < q_peri)),
        ("outer", peripheral),
    )

    weights = ProjectionWeights.identity(config.feature_dim)
    scores = []
    for encoding in config.encodings:
        att = _attention_config(encoding, config.feature_dim, config.base, camera.image_size)
        keys = _probe_tokens(encoding, key_coords, key_px, camera, config.feature_dim)
        queries = _probe_tokens(encoding, cell_coords, cell_px, camera, config.feature_dim)
        t0 = time.perf_counter()
        chosen = attention.logit_argmax(queries, keys, weights, att)
        runtime = time.perf_counter() - t0
        correct = key_labels[chosen] == true_labels
        band_entries = tuple(
            {
                "region": name,
                "accuracy": float(np.mean(correct[mask])) if np.any(mask) else None,
                "n_cells": int(np.count_nonzero(mask)),
            }
            for name, mask in bands
        )
        scores.append(
            LiftScore(
                encoding=encoding,
                overall_accuracy=float(np.mean(correct)),
                peripheral_accuracy=float(np.mean(correct[peripheral])),
                bands=band_entries,
                runtime_s=runtime,
            )
        )

    return LiftReport(
        config_summary={
            "extent": list(config.extent),
            "resolution": config.resolution,
            "patch_size": config.patch_size,
            "feature_dim": config.feature_dim,
            "base": config.base,
            "encodings": list(config.encodings),
            "peripheral_fraction": config.peripheral_fraction,
            "seed": config.seed,
            "pattern": repr(pattern),
        },
        camera_fingerprint=camera.fingerprint,
        n_visible=bev.n_visible,
        n_keys=n_keys,
        scores=tuple(scores),
    )


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} {self.name}: measured={self.measured:.3e} tolerance={self.tolerance:.3e}"
        return text + (f" ({self.note})" if self.note else "")


@dataclass(frozen=True)
class SelfCheckReport:
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_dict(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "kind": "selfcheck",
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "measured": r.measured,
                    "tolerance": r.tolerance,
                    "note": r.note,
                }
                for r in self.results
            ],
        }


def _sample_coords(rng: np.random.Generator, n: int, theta_max: float) -> np.ndarray:
    theta = rng.uniform(0.0, theta_max, n)
    phi = rng.uniform(-math.pi, math.pi, n)
    return np.stack([theta, phi], axis=-1)


def check_camera_roundtrip(seed: int = 0, n: int = 10000) -> list[CheckResult]:
    """unproject(project(theta, phi)) errors, converged and 5-iteration Newton."""
    out = []
    for name, camera in fixture_cameras().items():
        rng = np.random.default_rng([seed, 1])
        theta = rng.uniform(0.0, camera.theta_max, n)
        phi = rng.uniform(-math.pi, math.pi, n)
        u, v = camera.project(theta, phi)
        for mode, iterations, tol in (("converged", None, 1e-9), ("five_iter", 5, 1e-5)):
            t2, p2 = camera.unproject_newton(u, v, iterations=iterations)
            dtheta = float(np.max(np.abs(t2 - theta)))
            nonzero = theta > 0
            dphi = float(np.max(np.abs(p2[nonzero] - phi[nonzero]))) if np.any(nonzero) else 0.0
            out.append(
                CheckResult(
                    name=f"camera.round_trip.{mode}.theta[{name}]",
                    passed=dtheta < tol,
                    measured=dtheta,
                    tolerance=tol,
                )
            )
            out.append(
                CheckResult(
                    name=f"camera.round_trip.{mode}.phi[{name}]",
                    passed=dphi < 1e-9,
                    measured=dphi,
                    tolerance=1e-9,
                )
            )
    return out


def check_monotonicity() -> list[CheckResult]:
    """r'(theta) > 0 on a dense sample; LUT entries strictly increasing."""
    out = []
    for name, camera in fixture_cameras().items():
        thetas = np.linspace(0.0, camera.theta_max, 4096)
        min_deriv = float(np.min(camera.radial_derivative(thetas)))
        out.append(
            CheckResult(
                name=f"camera.monotone_radial[{name}]",
                passed=min_deriv > 0.0,
                measured=min_deriv,
                tolerance=0.0,
                note="minimum sampled derivative; must be positive",
            )
        )
        lut = camera.build_lut(1024)
        min_gap = float(np.min(np.diff(lut.entries)))
        out.append(
            CheckResult(
                name=f"camera.lut_monotone[{name}]",
                passed=min_gap > 0.0,
                measured=min_gap,
                tolerance=0.0,
                note="minimum LUT entry gap; must be positive",
            )
        )
    return out


def check_paraxial() -> list[CheckResult]:
    """Small-angle linearity: |theta - r/k1| / theta < 1e-3 for theta < 0.01 theta_max."""
    out = []
    for name, camera in fixture_cameras().items():
        thetas = np.linspace(1e-8, 0.01 * camera.theta_max, 256)
        r = camera.radial(thetas)
        rel = float(np.max(np.abs(thetas - r / camera.coeffs[0]) / thetas))
        out.append(
            CheckResult(
                name=f"camera.paraxial_linearity[{name}]",
                passed=rel < 1e-3,
                measured=rel,
                tolerance=1e-3,
            )
        )
    return out


def check_extrinsic_composition(seed: int = 0) -> list[CheckResult]:
    """Composition of random rigid transforms stays orthonormal within 1e-9."""
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(64):
        a = _random_extrinsics(rng)
        b = _random_extrinsics(rng)
        c = a.compose(b)
        err = max(
            float(np.max(np.abs(c.rotation.T @ c.rotation - np.eye(3)))),
            abs(float(np.linalg.det(c.rotation)) - 1.0),
        )
        worst = max(worst, err)
    return [
        CheckResult(
            name="camera.extrinsic_composition",
            passed=worst < 1e-9,
            measured=worst,
            tolerance=1e-9,
        )
    ]


def _random_extrinsics(rng: np.random.Generator) -> Extrinsics:
    # Orthonormalize a random matrix into a proper rotation.
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Extrinsics(rotation=q, translation=rng.standard_normal(3))


def check_radial_symmetry(seed: int = 0) -> list[CheckResult]:
    """Pixels equidistant from the principal point share one incidence angle."""
    out = []
    rng = np.random.default_rng([seed, 3])
    for name, camera in fixture_cameras().items():
        radii = rng.uniform(0.0, camera.r_max, 256)
        phi_a = rng.uniform(-math.pi, math.pi, 256)
        phi_b = rng.uniform(-math.pi, math.pi, 256)
        cx, cy = camera.principal_point
        ta, _ = camera.unproject_newton(
            cx + radii * np.cos(phi_a), cy + radii * np.sin(phi_a), iterations=None
        )
        tb, _ = camera.unproject_newton(
            cx + radii * np.cos(phi_b), cy + radii * np.sin(phi_b), iterations=None
        )
        err = float(np.max(np.abs(ta - tb)))
        out.append(
            CheckResult(
                name=f"angular.radial_symmetry[{name}]",
                passed=err < 1e-9,
                measured=err,
                tolerance=1e-9,
            )
        )
    return out


def check_angle_ranges() -> list[CheckResult]:
    """Patch grids: phi in [-pi, pi), theta <= theta_max on valid entries."""
    out = []
    for name, camera in fixture_cameras().items():
        grid = patch_angles(camera, max(camera.image_size) // 16)
        coords, _ = grid.flat_valid()
        ok = bool(
            np.all(coords[:, 1] >= -math.pi)
            and np.all(coords[:, 1] < math.pi)
            and np.all(coords[:, 0] <= camera.theta_max + 1e-12)
            and np.all(coords[:, 0] >= 0.0)
        )
        out.append(
            CheckResult(
                name=f"angular.angle_ranges[{name}]",
                passed=ok,
                measured=0.0 if ok else 1.0,
                tolerance=0.0,
                note="violation indicator",
            )
        )
    return out


def check_bev_projection_consistency() -> list[CheckResult]:
    """Visible BEV cells project inside the image; invisible cells do not project."""
    camera = KannalaBrandtCamera(
        coeffs=(100.0, 5.0),
        principal_point=(256.0, 256.0),
        theta_max=1.2,
        image_size=(512, 512),
    )
    from .fixtures import downward_extrinsics

    extr = downward_extrinsics(10.0)
    spec = BevGridSpec.from_extent((100.0, 100.0), 1.0)
    bev = bev_angles(spec, camera, extr)
    coords, _ = bev.flat_visible()
    u, v = camera.project(coords[:, 0], coords[:, 1])
    w, h = camera.image_size
    inside = (u >= 0) & (u <= w) & (v >= 0) & (v <= h)
    ok = bool(np.all(inside)) and bev.n_visible > 0
    return [
        CheckResult(
            name="angular.bev_projection_consistency",
            passed=ok,
            measured=0.0 if ok else 1.0,
            tolerance=0.0,
            note=f"{bev.n_visible} visible cells all project in-image",
        )
    ]


def _blocks(n: int):
    """Row counts of consecutive rotary-check blocks covering n draws."""
    for start in range(0, n, ROPE_CHECK_BLOCK):
        yield min(ROPE_CHECK_BLOCK, n - start)


def check_norm_preservation(seed: int = 0, n: int = 2000) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 4])
    worst = 0.0
    for rows in _blocks(n):
        config = RotaryConfig(dim=int(rng.choice([4, 8, 16, 32])))
        x = rng.standard_normal((rows, config.dim))
        y = rope.apply_rotary_batch(x, _sample_coords(rng, rows, 2.0), config)
        gap = np.abs(np.linalg.norm(y, axis=1) - np.linalg.norm(x, axis=1))
        worst = max(worst, float(np.max(gap)))
    return [
        CheckResult(
            name="rope.norm_preservation",
            passed=worst < 1e-12,
            measured=worst,
            tolerance=1e-12,
        )
    ]


def check_relative_identity(
    seed: int = 0, n_draws: int = 10000, relative_fn=None
) -> list[CheckResult]:
    """Absolute-form logit equals the relative form over random draws.

    Draws come in blocks sharing one RotaryConfig; relative_fn is called
    once per block with (rows, dim) q and k and per-row delta arrays.  It
    is injectable so a deliberately corrupted rotation can be shown to
    fail the check (mutation fixture).
    """
    if relative_fn is None:
        relative_fn = rope.relative_logit
    rng = np.random.default_rng([seed, 5])
    worst = 0.0
    for rows in _blocks(n_draws):
        dim = int(rng.choice([4, 8, 16]))
        theta_dims = int(rng.choice([d for d in range(0, dim + 1, 2)]))
        config = RotaryConfig(
            dim=dim, theta_dims=theta_dims, base=float(rng.uniform(2.0, 10000.0))
        )
        q = rng.standard_normal((rows, dim))
        k = rng.standard_normal((rows, dim))
        cm = _sample_coords(rng, rows, 2.0)
        cn = _sample_coords(rng, rows, 2.0)
        absolute = np.sum(
            rope.apply_rotary_batch(q, cm, config) * rope.apply_rotary_batch(k, cn, config),
            axis=1,
        )
        relative = relative_fn(q, k, (cn[:, 0] - cm[:, 0], cn[:, 1] - cm[:, 1]), config)
        worst = max(worst, float(np.max(np.abs(absolute - relative))))
    return [
        CheckResult(
            name="rope.relative_identity",
            passed=worst < 1e-12,
            measured=worst,
            tolerance=1e-12,
            note=f"{n_draws} random draws",
        )
    ]


def check_rotation_composition(seed: int = 0, n: int = 2000) -> list[CheckResult]:
    """rotate(rotate(x, a), b - a) equals rotate(x, b) for every schedule.

    Each block draws one schedule and rotates through a theta-only
    RotaryConfig, whose theta schedule is that schedule.
    """
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    for rows in _blocks(n):
        dim = 2 * int(rng.choice([1, 2, 4, 8]))
        config = RotaryConfig(dim=dim, theta_dims=dim, base=float(rng.uniform(2.0, 10000.0)))
        x = rng.standard_normal((rows, dim))
        a = rng.uniform(-6.0, 6.0, rows)
        b = rng.uniform(-6.0, 6.0, rows)

        def rotate(v, angle):
            return rope.apply_rotary_batch(v, np.stack([angle, np.zeros(rows)], -1), config)

        via = rotate(rotate(x, a), b - a)
        worst = max(worst, float(np.max(np.abs(via - rotate(x, b)))))
    return [
        CheckResult(
            name="rope.rotation_composition",
            passed=worst < 1e-12,
            measured=worst,
            tolerance=1e-12,
        )
    ]


def check_self_logit_max(seed: int = 0) -> list[CheckResult]:
    """With q = k and nonzero pairs, the logit peaks at zero separation."""
    rng = np.random.default_rng([seed, 7])
    config = RotaryConfig(dim=16)
    margin = np.inf
    for _ in range(200):
        q = rng.standard_normal(16)
        deltas = np.concatenate([np.zeros((1, 2)), rng.uniform(-3.0, 3.0, (50, 2))])
        logits = rope.relative_logit(q, q, (deltas[:, 0], deltas[:, 1]), config)
        margin = min(margin, float(np.min(logits[0] - logits[1:])))
    return [
        CheckResult(
            name="rope.self_logit_max",
            passed=bool(margin >= -1e-12),
            measured=float(-margin),
            tolerance=1e-12,
            note="max excess of shifted logit over zero-separation logit",
        )
    ]


def check_softmax_rows(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 8])
    n, dim = 12, 8
    mask = np.ones(n, dtype=bool)
    mask[rng.choice(n, 4, replace=False)] = False
    tokens = TokenGrid(
        features=rng.standard_normal((n, dim)),
        coords=_sample_coords(rng, n, 1.5),
        mask=mask,
    )
    weights = ProjectionWeights.random(dim, seed=3)
    config = _attention_config("fishrope", dim, 10000.0, (100, 100))
    logits = attention.logit_matrix(tokens, tokens, weights, config)
    attn = attention._masked_softmax(logits[None], mask)[0]
    row_err = float(np.max(np.abs(np.sum(attn, axis=-1) - 1.0)))
    masked_weight = float(np.max(attn[:, ~mask])) if np.any(~mask) else 0.0
    return [
        CheckResult(
            name="attention.softmax_rows",
            passed=row_err < 1e-12 and masked_weight == 0.0,
            measured=max(row_err, masked_weight),
            tolerance=1e-12,
            note="row-sum deviation and largest masked-key weight",
        )
    ]


def check_shift_invariance(seed: int = 0) -> list[CheckResult]:
    """Constant coordinate offsets leave rotary logit matrices unchanged."""
    rng = np.random.default_rng([seed, 9])
    n, dim = 10, 8
    weights = ProjectionWeights.random(dim, seed=4)
    out = []
    for encoding, shift in (("fishrope", (0.37, -0.81)), ("axial_rope", (13.0, -7.0))):
        config = _attention_config(encoding, dim, 10000.0, (640, 480))
        coords = (
            _sample_coords(rng, n, 1.5)
            if encoding == "fishrope"
            else rng.uniform(0, 400, (n, 2))
        )
        features = rng.standard_normal((n, dim))
        mask = np.ones(n, dtype=bool)
        base = attention.logit_matrix(
            TokenGrid(features=features, coords=coords, mask=mask),
            TokenGrid(features=features, coords=coords, mask=mask),
            weights,
            config,
        )
        shifted_coords = coords + np.asarray(shift)
        shifted = attention.logit_matrix(
            TokenGrid(features=features, coords=shifted_coords, mask=mask),
            TokenGrid(features=features, coords=shifted_coords, mask=mask),
            weights,
            config,
        )
        err = float(np.max(np.abs(base - shifted)))
        out.append(
            CheckResult(
                name=f"attention.shift_invariance[{encoding}]",
                passed=err < 1e-10,
                measured=err,
                tolerance=1e-10,
            )
        )
    return out


def check_stability(seed: int = 0) -> list[CheckResult]:
    """Outputs stay finite for feature magnitudes up to 1e3."""
    rng = np.random.default_rng([seed, 10])
    n, dim = 8, 8
    tokens = TokenGrid(
        features=rng.uniform(-1e3, 1e3, (n, dim)),
        coords=_sample_coords(rng, n, 1.5),
        mask=np.ones(n, dtype=bool),
    )
    weights = ProjectionWeights.random(dim, seed=5)
    config = _attention_config("fishrope", dim, 10000.0, (100, 100))
    out = attention.self_attention(tokens, weights, config)
    finite = bool(np.all(np.isfinite(out)))
    return [
        CheckResult(
            name="attention.stability_large_inputs",
            passed=finite,
            measured=0.0 if finite else 1.0,
            tolerance=0.0,
            note="non-finite output indicator",
        )
    ]


def fd_self_attention_jacobian(
    tokens: TokenGrid,
    weights: ProjectionWeights,
    config: AttentionConfig,
    step: float = 1e-5,
) -> np.ndarray:
    """Central finite-difference Jacobian of self_attention w.r.t. features."""
    n, d = tokens.n_tokens, config.model_dim
    jac = np.zeros((n * d, n * d))
    base = np.array(tokens.features)
    for col in range(n * d):
        m, j = divmod(col, d)
        for sign in (+1.0, -1.0):
            bumped = base.copy()
            bumped[m, j] += sign * step
            out = attention.self_attention(
                TokenGrid(
                    features=bumped,
                    coords=tokens.coords,
                    mask=tokens.mask,
                    camera_token=tokens.camera_token,
                ),
                weights,
                config,
            )
            jac[:, col] += sign * out.reshape(-1) / (2.0 * step)
    return jac


def check_gradient(seed: int = 0) -> list[CheckResult]:
    """Analytic Jacobian of self-attention vs central finite differences."""
    rng = np.random.default_rng([seed, 11])
    n, dim = 4, 8
    tokens = TokenGrid(
        features=rng.standard_normal((n, dim)),
        coords=_sample_coords(rng, n, 1.5),
        mask=np.ones(n, dtype=bool),
    )
    weights = ProjectionWeights.random(dim, seed=6)
    config = _attention_config("fishrope", dim, 10000.0, (100, 100))
    analytic = attention.self_attention_jacobian(tokens, weights, config)
    numeric = fd_self_attention_jacobian(tokens, weights, config)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    rel = float(np.max(np.abs(analytic - numeric) / scale))
    return [
        CheckResult(
            name="attention.gradient_check",
            passed=rel < 1e-4,
            measured=rel,
            tolerance=1e-4,
        )
    ]


def _small_bench_config(seed: int = 0) -> RetrievalBenchConfig:
    return RetrievalBenchConfig(
        camera=wide_camera(), patch_size=128, n_queries=64, seed=seed
    )


def check_bench_determinism(seed: int = 0) -> list[CheckResult]:
    from .formats import dump_report_yaml

    a = dump_report_yaml(retrieval_bench(_small_bench_config(seed)).as_dict())
    b = dump_report_yaml(retrieval_bench(_small_bench_config(seed)).as_dict())
    same = a == b
    return [
        CheckResult(
            name="experiments.bench_determinism",
            passed=same,
            measured=0.0 if same else 1.0,
            tolerance=0.0,
            note="serialized report mismatch indicator",
        )
    ]


def check_bench_matches_relative_logit(seed: int = 0) -> list[CheckResult]:
    """Bench logits equal direct relative-form evaluation on a linear camera."""
    from .fixtures import linear_camera

    config = RetrievalBenchConfig(
        camera=linear_camera(),
        patch_size=50,
        n_queries=32,
        seed=seed,
        encodings=("fishrope",),
    )
    _, detail = retrieval_bench(config, return_detail=True)
    logits = detail["fishrope"]["uniform"]["logits"]
    query_coords = detail["query_coords"]["uniform"]
    key_coords = detail["key_coords"]
    probe = probe_feature(config.feature_dim)
    rcfg = RotaryConfig(dim=config.feature_dim, base=config.base)
    tau = 1.0 / math.sqrt(config.feature_dim)
    delta = key_coords[None, :, :] - query_coords[::4, None, :]
    expected = tau * rope.relative_logit(probe, probe, (delta[..., 0], delta[..., 1]), rcfg)
    worst = float(np.max(np.abs(expected - logits[::4])))
    return [
        CheckResult(
            name="experiments.bench_matches_relative_logit",
            passed=worst < 1e-10,
            measured=worst,
            tolerance=1e-10,
        )
    ]


def check_lift_monotone(seed: int = 0) -> list[CheckResult]:
    """Round-trip accuracy does not improve as patches coarsen (8 -> 16 -> 32)."""
    camera = wide_camera()
    extr = scene_extrinsics()
    pattern = CheckerPattern(square=6.0)
    accs = []
    for patch_size in (8, 16, 32):
        cfg = LiftConfig(
            extent=(20.0, 20.0),
            resolution=1.0,
            patch_size=patch_size,
            encodings=("fishrope",),
            seed=seed,
        )
        report = bev_roundtrip(camera, extr, pattern, cfg)
        accs.append(report.score("fishrope").overall_accuracy)
    monotone = accs[0] >= accs[1] >= accs[2]
    return [
        CheckResult(
            name="experiments.lift_monotone_patch_size",
            passed=monotone,
            measured=float(min(accs[0] - accs[1], accs[1] - accs[2])),
            tolerance=0.0,
            note=f"accuracies {accs} for patch sizes (8, 16, 32)",
        )
    ]


def selfcheck(seed: int = 0) -> SelfCheckReport:
    """Execute every documented invariant with fixed seeds."""
    results: list[CheckResult] = []
    results += check_camera_roundtrip(seed)
    results += check_monotonicity()
    results += check_paraxial()
    results += check_extrinsic_composition(seed)
    results += check_radial_symmetry(seed)
    results += check_angle_ranges()
    results += check_bev_projection_consistency()
    results += check_norm_preservation(seed)
    results += check_relative_identity(seed)
    results += check_rotation_composition(seed)
    results += check_self_logit_max(seed)
    results += check_softmax_rows(seed)
    results += check_shift_invariance(seed)
    results += check_stability(seed)
    results += check_gradient(seed)
    results += check_bench_determinism(seed)
    results += check_bench_matches_relative_logit(seed)
    results += check_lift_monotone(seed)
    return SelfCheckReport(results=tuple(results))
