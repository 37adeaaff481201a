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
                    and reports measured values against tolerances.  The
                    rotary checks draw each dim's samples once, as whole
                    arrays, and form every row's plane angles from its
                    config's frequency table, so rows under different
                    configs share one kernel call.  The elementwise
                    camera checks and the rotary checks run in a forked
                    child on a second core while this process runs the
                    rest (`_parallel.fork_split`), with the same results
                    as one process gives.  Every matrix product behind
                    a measured value fits `_products`' fixed-order gate;
                    the rest (the lift check's tiles, the bench's ground
                    truth, the determinism flag's bench) feed argmax
                    picks, which clear any kernel's rounding
                    (tests/test_margins.py), or one flag over two
                    reports, so the report holds under every BLAS kernel.

Reports serialize deterministically: given equal seeds and configs the
emitted documents are byte-identical.  Wall-clock timings are kept out
of the serialized form for that reason and reported separately.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import _parallel, _products, attention, rope
from .angular import BevGridSpec, bev_angles, patch_angles
from .attention import AttentionConfig, ProjectionWeights, TokenGrid
from .camera import Extrinsics, KannalaBrandtCamera
from .errors import ConfigError, EmptyOverlapError
from .fixtures import (
    downward_extrinsics,
    fixture_cameras,
    linear_camera,
    scene_extrinsics,
    wide_camera,
)
from .rope import ENCODINGS, RotaryConfig, rotate_planes

REPORT_FORMAT_VERSION = 1

# Ceilings on the experiment sizes a user can ask for, well above the
# defaults (16 and 512), so a mistyped value is a config error rather than
# a huge allocation or a run that does not end.
MAX_FEATURE_DIM = 1024
MAX_BENCH_QUERIES = 2**16
# The bench holds one dense n_queries x n_keys float64 logit buffer, which
# every product overwrites, plus _select's temporaries; this caps those
# logits only, not the key-side token arrays, which grow with n_keys x
# feature_dim.  In-process `cli.main` runs peaked at 218 MiB ru_maxrss just
# under the cap with few keys (`bench --patch-size 16 --n-queries 5336`, 3144
# keys) and at 534 MiB with many (`--patch-size 1 --n-queries 20`, 805 368
# keys, 16.1 M pairs) (Linux x86-64, numpy 2.4.6, one BLAS thread).
MAX_BENCH_LOGITS = 2**24

_FD_STEP = 1e-5  # feature step of fd_self_attention_jacobian's central differences

# Fixed scoring constants; every report records them in its `config` block.
PERIPHERY_BAND = (0.7, 0.98)  # bench periphery query radii, as fractions of r_max
WRAP_MARGIN = 0.2  # |phi| distance from the +/-pi seam of the bench's seam queries
PERIPHERAL_FRACTION = 0.3  # outer share of visible cells that lift scores as peripheral


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


def _probe_tokens(
    encoding: str,
    angles: np.ndarray,
    pixels: np.ndarray,
    camera: KannalaBrandtCamera,
    feature_dim: int,
) -> TokenGrid:
    """Probe-feature tokens at the coordinates `encoding` reads.

    The one place that picks each encoding's coords: fishrope reads
    (theta, phi), every other encoding pixels / (W, H), which vary
    smoothly over [0, 1] of the image (`none` never reads them).  The
    rotary kernel rotates by exactly these coords, so a scale on the
    angles belongs here too.
    """
    if encoding == "fishrope":
        coords = angles
    else:
        w, h = camera.image_size
        coords = pixels / np.array([float(w), float(h)])
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
    repeated = sorted({e for e in encodings if encodings.count(e) > 1})
    if repeated:
        raise ConfigError(f"repeated encodings {repeated}")
    if feature_dim > MAX_FEATURE_DIM:
        raise ConfigError(f"feature_dim {feature_dim} is above the limit of {MAX_FEATURE_DIM}")
    if feature_dim < 4 or feature_dim % 4 != 0:
        raise ConfigError(f"feature_dim must be a positive multiple of 4, got {feature_dim}")


def _check_seed(seed: int) -> None:
    """numpy's default_rng takes only non-negative seeds."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


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

    def _as_dict(self, kind: str, camera: dict, **counts) -> dict:
        """The report document: camera holds the entries beside the fingerprint."""
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "kind": kind,
            "config": self.config_summary,
            "camera": {"fingerprint": self.camera_fingerprint, **camera},
            **counts,
            "results": [
                {f.name: getattr(s, f.name) for f in fields(s) if f.name != "runtime_s"}
                for s in self.scores
            ],
        }


# ---------------------------------------------------------------------------
# retrieval bench
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetrievalBenchConfig:
    """Angular-retrieval benchmark settings.

    Periphery queries are drawn at radii in PERIPHERY_BAND (fractions of
    r_max); uniform queries within WRAP_MARGIN of the +/-pi seam are
    reported separately.
    """

    camera: KannalaBrandtCamera
    patch_size: int = 64
    n_queries: int = 512
    seed: int = 0
    encodings: tuple[str, ...] = ENCODINGS
    feature_dim: int = 16

    def __post_init__(self) -> None:
        if self.n_queries < 1:
            raise ConfigError(f"n_queries must be >= 1, got {self.n_queries}")
        if self.n_queries > MAX_BENCH_QUERIES:
            raise ConfigError(
                f"n_queries {self.n_queries} is above the limit of {MAX_BENCH_QUERIES}"
            )
        _check_encodings(self.encodings, self.feature_dim)
        _check_seed(self.seed)


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
        return self._as_dict(
            "retrieval_bench",
            {"extent_ratio": self.extent_ratio, "degenerate": self.degenerate_camera},
            n_keys=self.n_keys,
            wrap_query_count=self.wrap_query_count,
        )

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["encoding", "query_set", "top1_accuracy", "mean_rank"]
        rows = []
        for s in self.scores:
            rows.append([s.encoding, "uniform", s.top1_accuracy, s.mean_rank])
            rows.append(
                [s.encoding, "periphery", s.periphery_accuracy, s.periphery_mean_rank]
            )
        return header, rows


def _select(
    rows: np.ndarray, targets: np.ndarray, perm: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Row picks with exact ties broken at random, and 1-based target ranks.

    chosen is each row's argmax, a tie among its peak keys broken by one
    draw below the tied count.  One rng.integers(counts) call draws for
    every tied row, in row order.  For int64 draws that gives the values
    and generator state of one scalar rng.integers(count) per tied row,
    the loop in tests/oracles.py: checked on numpy 2.4.6, and
    TestSelection repeats the check on whatever numpy runs the suite.  A
    row holding NaN has no peak equal to its max: it takes column 0 and
    draws nothing.  A row whose every key ties, as every row does under
    `none`, takes its draw as its pick.

    ranks orders each row's keys by descending logit, keys level with
    the target by perm, a permutation of the column indices, as a
    lexsort by (-logit, perm) does for a finite target.  A target at its
    row's peak ranks 1, plus the peak-tied keys that perm puts ahead of
    it: perm[target] of them in a row whose every key ties, a count over
    the peak keys in a partly tied row.  Only rows whose target is below
    the peak pay for the > and == comparisons; a NaN target is one of
    them and ranks 1, since nothing compares above or level with it.  The
    comparisons run over the whole matrix when such rows are most of it,
    as under `sinusoidal`, and over the gathered rows otherwise.  Their
    perm comparison runs only when one of those rows holds another logit
    equal to its target's.
    """
    n_rows, n_cols = rows.shape
    picked = np.arange(n_rows)
    chosen = np.argmax(rows, axis=1)  # the first NaN where a row holds one
    peak = rows[picked, chosen]
    has_peak = peak == peak
    chosen[~has_peak] = 0
    is_peak = rows == peak[:, None]
    target = rows[picked, targets]
    below = np.flatnonzero(~(target == peak))
    ranks = np.ones(n_rows, dtype=np.intp)
    # Each row with a peak holds it at least once, so any surplus is a tie.
    if np.count_nonzero(is_peak) > np.count_nonzero(has_peak):
        counts = np.count_nonzero(is_peak, axis=1)
        tied = np.flatnonzero(counts > 1)
        tied_counts = counts[tied]
        draws = rng.integers(tied_counts)
        # A row whose every key sits at its peak picks its draw, and perm
        # alone ranks its target.
        all_tied = tied_counts == n_cols
        full, partial = tied[all_tied], tied[~all_tied]
        chosen[full] = draws[all_tied]
        ranks[full] += perm[targets[full]]
        partial_counts, partial_peaks = tied_counts[~all_tied], is_peak[partial]
        first = np.cumsum(partial_counts) - partial_counts
        picks = np.flatnonzero(partial_peaks)[first + draws[~all_tied]]
        chosen[partial] = picks % n_cols
        # A tied row whose target is below its peak is ranked again below.
        partial_peaks &= perm < perm[targets[partial], None]
        ranks[partial] += np.count_nonzero(partial_peaks, axis=1)
    if below.size:
        sub = slice(None) if 2 * below.size > n_rows else below
        part, level_of = rows[sub], target[sub, None]
        ahead = part > level_of
        level = part == level_of
        # Each row holds its target's logit once, unless that logit is NaN.
        if np.count_nonzero(level) > np.count_nonzero(level_of == level_of):
            ahead |= level & (perm < perm[targets[sub], None])
        ranks[sub] = 1 + np.count_nonzero(ahead, axis=1)
    return chosen, ranks


def _config_block(config, **constants) -> dict:
    """A report's `config` block: every field of config but its camera, and constants."""
    block = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "camera"}
    return {**block, **constants}


def _bench_inputs(config: RetrievalBenchConfig):
    """The bench's keys and its two query sets, each with its ground truth.

    Returns (key_coords, key_px, query_sets, wrap_mask).  query_sets
    holds (coords, px, truth) for the uniform queries, then the periphery
    queries, drawn in that order from one generator seeded with
    config.seed; truth is each query's great-circle nearest key.
    wrap_mask flags the uniform queries within WRAP_MARGIN of the seam.
    """
    camera = config.camera
    lut = camera.build_lut()
    grid = patch_angles(camera, config.patch_size, lut)
    key_coords, key_px = grid.flat_valid()
    n_keys = key_coords.shape[0]
    if n_keys == 0:
        raise EmptyOverlapError("no patch centers fall inside the image circle")
    _require_two_keys(n_keys, config.patch_size, "retrieval")
    if config.n_queries * n_keys > MAX_BENCH_LOGITS:
        raise ConfigError(
            f"n_queries {config.n_queries} x {n_keys} keys (patch size {config.patch_size}) "
            f"is above the limit of {MAX_BENCH_LOGITS} logits"
        )

    rng = np.random.default_rng(config.seed)
    cx, cy = camera.principal_point
    key_dirs = ray_directions(key_coords)

    def draw(radii: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        phi = rng.uniform(-math.pi, math.pi, len(radii))
        px = np.stack([cx + radii * np.cos(phi), cy + radii * np.sin(phi)], axis=-1)
        coords = np.stack([lut.lookup(radii), phi], axis=-1)
        return coords, px, np.argmax(ray_directions(coords) @ key_dirs.T, axis=1)

    uniform = draw(camera.r_max * np.sqrt(rng.uniform(0.0, 1.0, config.n_queries)))
    lo, hi = PERIPHERY_BAND
    periphery = draw(camera.r_max * rng.uniform(lo, hi, config.n_queries))
    wrap_mask = np.abs(np.abs(uniform[0][:, 1]) - math.pi) < WRAP_MARGIN
    return key_coords, key_px, (uniform, periphery), wrap_mask


def _bench_logits(config, encoding: str, key_coords, key_px, query_sets, out: np.ndarray):
    """Yield one encoding's bench logits of each query set, each filled into out.

    The keys are built, projected and rotated once, since a rotary logit
    turns each key by its own coords only; every query set's logits then
    overwrite out, an (n_queries, n_keys) array, so a caller must consume
    each fill before asking for the next.
    """
    weights = ProjectionWeights.identity(config.feature_dim)
    att = AttentionConfig(head_dim=config.feature_dim, encoding=encoding)

    def tokens(at, at_px):
        return _probe_tokens(encoding, at, at_px, config.camera, config.feature_dim)

    k = attention._projected(tokens(key_coords, key_px), weights.wk, att)
    for coords, px, _ in query_sets:
        q = attention._projected(tokens(coords, px), weights.wq, att)
        yield attention._fill_logits(q, k, att.scale, out)


def retrieval_bench(config: RetrievalBenchConfig) -> BenchReport:
    """Run the angular-retrieval benchmark; see the module docstring.

    Deterministic for a fixed config: query draws and tie-breaking use
    seeds derived from config.seed.  Every (encoding, query set) product
    is filled into one (n_queries, n_keys) logit buffer, allocated once
    per call, and _select consumes each fill before the next one.
    """
    camera = config.camera
    key_coords, key_px, query_sets, wrap_mask = _bench_inputs(config)
    n_keys = key_coords.shape[0]
    extent_ratio = camera.angular_extent_ratio(0.05 * camera.r_max)
    # One buffer for all 2 x len(encodings) products: a fresh result per
    # product faulted its pages in each time (384 page faults per default
    # op; none with the buffer reused).
    logits = np.empty((config.n_queries, n_keys))

    scores = []
    for idx, encoding in enumerate(config.encodings):
        enc_rng = np.random.default_rng([config.seed, 1000 + idx])
        perm = enc_rng.permutation(n_keys)
        t0 = time.perf_counter()
        picked = []  # (hits, mean rank) of each query set
        fills = _bench_logits(config, encoding, key_coords, key_px, query_sets, logits)
        for (_, _, truth), filled in zip(query_sets, fills):
            chosen, ranks = _select(filled, truth, perm, enc_rng)
            picked.append((chosen == truth, float(np.mean(ranks))))
        runtime = time.perf_counter() - t0
        (hits, mean_rank), (periphery_hits, periphery_mean_rank) = picked
        scores.append(
            EncodingScore(
                encoding=encoding,
                top1_accuracy=float(np.mean(hits)),
                mean_rank=mean_rank,
                periphery_accuracy=float(np.mean(periphery_hits)),
                periphery_mean_rank=periphery_mean_rank,
                wrap_accuracy=float(np.mean(hits[wrap_mask])) if np.any(wrap_mask) else None,
                runtime_s=runtime,
            )
        )

    return BenchReport(
        config_summary=_config_block(
            config, base=rope.DEFAULT_BASE, periphery_band=PERIPHERY_BAND, wrap_margin=WRAP_MARGIN
        ),
        camera_fingerprint=camera.fingerprint,
        extent_ratio=float(extent_ratio),
        degenerate_camera=bool(extent_ratio <= 1.5),
        n_keys=n_keys,
        wrap_query_count=int(np.count_nonzero(wrap_mask)),
        scores=tuple(scores),
    )


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
        """Square parity at (x, y); ConfigError where squares cannot be told apart.

        That is where a square index (x - origin) / square is non-finite or
        at least 2**52 in magnitude, so float64 keeps no fraction of it.
        """
        with np.errstate(over="ignore"):
            ix = (np.asarray(x, dtype=np.float64) - self.origin[0]) / self.square
            iy = (np.asarray(y, dtype=np.float64) - self.origin[1]) / self.square
        for idx in (ix, iy):
            bad = ~(np.abs(idx) < 2.0**52)
            if np.any(bad):
                raise ConfigError(
                    f"checker square index {float(idx[bad].flat[0])} is non-finite or "
                    f"at least 2**52 in magnitude: square {self.square} at origin "
                    f"{self.origin} cannot label the ground"
                )
        return ((np.floor(ix) + np.floor(iy)) % 2).astype(np.int64)


def _require_two_labels(pattern, labels: np.ndarray, what: str) -> None:
    """A pattern that gives one label everywhere makes every pick right."""
    if np.all(labels == labels[0]):
        raise ConfigError(
            f"{pattern!r} gives every {what} label {int(labels[0])}, "
            "so any pick would score 1"
        )


@dataclass(frozen=True)
class LiftConfig:
    """Scene settings for the BEV correspondence round-trip."""

    extent: tuple[float, float] = (30.0, 30.0)
    resolution: float = 0.5
    patch_size: int = 16
    feature_dim: int = 16
    encodings: tuple[str, ...] = ("fishrope", "axial_rope")
    seed: int = 0

    def __post_init__(self) -> None:
        _check_encodings(self.encodings, self.feature_dim)
        _check_seed(self.seed)


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
        return self._as_dict("bev_lift", {}, n_visible=self.n_visible, n_keys=self.n_keys)

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
    outer PERIPHERAL_FRACTION of visible cells ranked by projected
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
    _require_two_labels(pattern, key_labels, "image patch key")

    spec = BevGridSpec(config.extent, config.resolution)
    bev = bev_angles(spec, camera, extrinsics)
    if bev.n_visible == 0:
        raise EmptyOverlapError("no BEV cell is visible to the camera")
    cell_coords, cell_world = bev.flat_visible()
    true_labels = pattern.labels_at(cell_world[:, 0], cell_world[:, 1])
    _require_two_labels(pattern, true_labels, "visible BEV cell")
    cell_px = np.stack(camera.project(cell_coords[:, 0], cell_coords[:, 1]), axis=-1)

    cx, cy = camera.principal_point
    radius = np.hypot(cell_px[:, 0] - cx, cell_px[:, 1] - cy)
    q_peri = np.quantile(radius, 1.0 - PERIPHERAL_FRACTION)
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
        att = AttentionConfig(head_dim=config.feature_dim, encoding=encoding)
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
        config_summary=_config_block(
            config,
            base=rope.DEFAULT_BASE,
            peripheral_fraction=PERIPHERAL_FRACTION,
            pattern=repr(pattern),
        ),
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

    @classmethod
    def below(cls, name: str, measured: float, tolerance: float, note: str = "") -> CheckResult:
        """Passes when measured < tolerance, so a NaN measurement fails."""
        return cls(name, bool(measured < tolerance), measured, tolerance, note)

    @classmethod
    def flag(cls, name: str, ok: bool, note: str) -> CheckResult:
        """An indicator check: measured 0 when ok, else 1, against tolerance 0."""
        return cls(name, bool(ok), 0.0 if ok else 1.0, 0.0, note)

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
            "checks": [asdict(r) for r in self.results],
        }


def _sample_coords(rng: np.random.Generator, n: int, theta_max: float) -> np.ndarray:
    theta = rng.uniform(0.0, theta_max, n)
    phi = rng.uniform(-math.pi, math.pi, n)
    return np.stack([theta, phi], axis=-1)


def check_camera_roundtrip(seed: int = 0) -> list[CheckResult]:
    """unproject(project(theta, phi)) errors, converged and 5-iteration Newton."""
    out = []
    for name, camera in fixture_cameras().items():
        rng = np.random.default_rng([seed, 1])
        theta = rng.uniform(0.0, camera.theta_max, 10000)
        phi = rng.uniform(-math.pi, math.pi, 10000)
        u, v = camera.project(theta, phi)
        for mode, iterations, tol in (("converged", None, 1e-9), ("five_iter", 5, 1e-5)):
            t2, p2 = camera.unproject_newton(u, v, iterations=iterations)
            dtheta = float(np.max(np.abs(t2 - theta)))
            nonzero = theta > 0
            dphi = float(np.max(np.abs(p2[nonzero] - phi[nonzero]))) if np.any(nonzero) else 0.0
            out.append(CheckResult.below(f"camera.round_trip.{mode}.theta[{name}]", dtheta, tol))
            out.append(CheckResult.below(f"camera.round_trip.{mode}.phi[{name}]", dphi, 1e-9))
    return out


def check_monotonicity() -> list[CheckResult]:
    """r'(theta) > 0 on a dense sample; LUT entries strictly increasing.

    InverseLut's constructor refuses a table that is not strictly
    increasing, so a refused table is a violation, measured as NaN.
    """
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
        try:
            min_gap = float(np.min(np.diff(camera.build_lut(1024).entries)))
        except ConfigError:
            min_gap = math.nan
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
        out.append(CheckResult.below(f"camera.paraxial_linearity[{name}]", rel, 1e-3))
    return out


def _rotations(normals: np.ndarray) -> np.ndarray:
    """Proper rotations (n, 3, 3) from normals (n, 3, 3), in elementwise numpy only.

    Gram-Schmidt turns the first two columns into the first two axes and
    their cross product is the third, so det is +1 without a sign flip.
    Every sum runs in an order numpy fixes, so the bits do not depend on
    the LAPACK and BLAS kernels that np.linalg.qr would call.
    """
    a, b = normals[..., 0], normals[..., 1]
    x = a / np.sqrt(np.einsum("ni,ni->n", a, a))[:, None]
    b = b - np.einsum("ni,ni->n", x, b)[:, None] * x
    y = b / np.sqrt(np.einsum("ni,ni->n", b, b))[:, None]
    return np.stack([x, y, np.cross(x, y)], axis=-1)


def check_extrinsic_composition(seed: int = 0) -> list[CheckResult]:
    """Composition of 64 random rigid transform pairs stays orthonormal within 1e-9.

    Each transform takes 12 normals in draw order, a 3 x 3 matrix and
    then its translation; `_rotations` turns the matrix into a rotation.
    Each composed rotation R gives max |R^T R - I| and |det R - 1|, with
    det R the triple product of its columns, all in fixed-order sums.
    Extrinsics refuses a rotation that is not orthonormal within 1e-9, so
    a refused pose or composition is a violation, measured as NaN.
    """
    draws = np.random.default_rng([seed, 2]).standard_normal((128, 12))
    rotations = _rotations(draws[:, :9].reshape(128, 3, 3))
    try:
        poses = [Extrinsics(rotation=r, translation=t) for r, t in zip(rotations, draws[:, 9:])]
        composed = np.stack([a.compose(b).rotation for a, b in zip(poses[::2], poses[1::2])])
    except ConfigError:
        return [CheckResult.below("camera.extrinsic_composition", math.nan, 1e-9)]
    cols = composed.swapaxes(1, 2)
    det = np.einsum("ni,ni->n", cols[:, 0], np.cross(cols[:, 1], cols[:, 2]))
    worst = max(
        float(np.max(np.abs(_products.matmul(cols, composed) - np.eye(3)))),
        float(np.max(np.abs(det - 1.0))),
    )
    return [CheckResult.below("camera.extrinsic_composition", worst, 1e-9)]


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
        out.append(CheckResult.below(f"angular.radial_symmetry[{name}]", err, 1e-9))
    return out


def check_angle_ranges() -> list[CheckResult]:
    """Patch grids: phi in [-pi, pi), theta in [0, theta_max] on valid entries.

    PatchGrid's constructor holds the bounds and refuses a grid that
    breaks them, so a refused grid is a violation.
    """
    out = []
    for name, camera in fixture_cameras().items():
        try:
            patch_angles(camera, max(camera.image_size) // 16)
            ok = True
        except ConfigError:
            ok = False
        out.append(CheckResult.flag(f"angular.angle_ranges[{name}]", ok, "violation indicator"))
    return out


def check_bev_projection_consistency() -> list[CheckResult]:
    """Visible BEV cells project inside the image; invisible cells do not project.

    BevGrid's constructor holds the angle bounds and refuses a grid that
    breaks them, so a refused grid is a violation.
    """
    camera = KannalaBrandtCamera(
        coeffs=(100.0, 5.0),
        principal_point=(256.0, 256.0),
        theta_max=1.2,
        image_size=(512, 512),
    )
    extr = downward_extrinsics(10.0)
    spec = BevGridSpec((100.0, 100.0), 1.0)
    name = "angular.bev_projection_consistency"
    try:
        bev = bev_angles(spec, camera, extr)
    except ConfigError:
        return [CheckResult.flag(name, False, "BEV grid refused its angles")]
    coords, _ = bev.flat_visible()
    u, v = camera.project(coords[:, 0], coords[:, 1])
    w, h = camera.image_size
    inside = (u >= 0) & (u <= w) & (v >= 0) & (v <= h)
    ok = bool(np.all(inside)) and bev.n_visible > 0
    return [CheckResult.flag(name, ok, f"{bev.n_visible} visible cells all project in-image")]


def _plane_freqs(dim: int, theta_dims: np.ndarray, bases: np.ndarray):
    """Plane frequencies (n, dim/2) and phi-plane flags of n configs of one dim.

    Row i holds RotaryConfig(dim, theta_dims[i], bases[i]).plane_freqs,
    the same bits, and where its plane_axis reads phi.
    """
    planes = np.arange(dim // 2)
    half = theta_dims[:, None] // 2
    phi = planes >= half
    index = np.where(phi, planes - half, planes)
    sub_dims = np.where(phi, dim - 2 * half, 2 * half)
    return bases[:, None] ** (-2.0 * index / sub_dims), phi


# In the rotary checks each drawn config rotates the _CONFIG_DRAWS rows
# drawn under it.  A check draws once per dim, as whole arrays: the
# configs of that dim, then all their rows.
_CONFIG_DRAWS = 50
_NORM_DIMS = (4, 8, 16, 32)
_IDENTITY_DIMS = (4, 8, 16)
_COMPOSITION_DIMS = (2, 4, 8, 16)


def _configs_per_dim(rng: np.random.Generator, n_configs: int, dims: tuple) -> list:
    """(dim, configs of that dim) for each of dims, from n_configs uniform picks."""
    counts = np.bincount(rng.integers(len(dims), size=n_configs), minlength=len(dims))
    return [(dim, int(n)) for dim, n in zip(dims, counts) if n]


def check_norm_preservation(seed: int = 0) -> list[CheckResult]:
    """Rotation keeps every row's norm over 2000 rows of 40 default configs."""
    rng = np.random.default_rng([seed, 4])
    worst = 0.0
    for dim, n in _configs_per_dim(rng, 40, _NORM_DIMS):
        rows = n * _CONFIG_DRAWS
        x = rng.standard_normal((rows, dim))
        y = rotate_planes(x, RotaryConfig(dim=dim).plane_angles(_sample_coords(rng, rows, 2.0)))
        gap = np.abs(np.linalg.norm(y, axis=1) - np.linalg.norm(x, axis=1))
        worst = max(worst, float(np.max(gap)))
    return [CheckResult.below("rope.norm_preservation", worst, 1e-12)]


def check_relative_identity(seed: int = 0) -> list[CheckResult]:
    """Absolute-form logit equals the relative form over 10000 random draws.

    200 configs each draw a dim, then per dim a theta split and a base
    for each of its configs, and 50 rows per config of q, k, coord_m and
    coord_n.  Each row's plane angles come from its config's frequency
    table.  rope.rotated_logit(q, k, angles) is called once per dim with
    (rows, dim) q and k and the (rows, dim/2) angles of coord_n -
    coord_m, and gives each row's relative-form logit.
    """
    rng = np.random.default_rng([seed, 5])
    worst = 0.0
    for dim, n in _configs_per_dim(rng, 200, _IDENTITY_DIMS):
        theta_dims = 2 * rng.integers(dim // 2 + 1, size=n)
        freqs, phi = (
            np.repeat(a, _CONFIG_DRAWS, axis=0)
            for a in _plane_freqs(dim, theta_dims, rng.uniform(2.0, 10000.0, n))
        )
        rows = n * _CONFIG_DRAWS
        q = rng.standard_normal((rows, dim))
        k = rng.standard_normal((rows, dim))
        cm = _sample_coords(rng, rows, 2.0)
        cn = _sample_coords(rng, rows, 2.0)
        at_m, at_n, between = (
            np.where(phi, c[:, 1:], c[:, :1]) * freqs for c in (cm, cn, cn - cm)
        )
        absolute = np.sum(rotate_planes(q, at_m) * rotate_planes(k, at_n), axis=1)
        worst = max(worst, float(np.max(np.abs(absolute - rope.rotated_logit(q, k, between)))))
    return [CheckResult.below("rope.relative_identity", worst, 1e-12, "10000 random draws")]


def check_rotation_composition(seed: int = 0) -> list[CheckResult]:
    """rotate(rotate(x, a), b - a) equals rotate(x, b) for every schedule.

    40 theta-only configs each draw a dim, then per dim a base for each
    of its configs and 50 rows per config of x, a and b.
    """
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    for dim, n in _configs_per_dim(rng, 40, _COMPOSITION_DIMS):
        freqs, _ = _plane_freqs(dim, np.full(n, dim), rng.uniform(2.0, 10000.0, n))
        freqs = np.repeat(freqs, _CONFIG_DRAWS, axis=0)
        rows = n * _CONFIG_DRAWS
        x = rng.standard_normal((rows, dim))
        a = rng.uniform(-6.0, 6.0, rows)
        b = rng.uniform(-6.0, 6.0, rows)
        at_a, a_to_b, at_b = (angle[:, None] * freqs for angle in (a, b - a, b))
        via = rotate_planes(rotate_planes(x, at_a), a_to_b)
        worst = max(worst, float(np.max(np.abs(via - rotate_planes(x, at_b)))))
    return [CheckResult.below("rope.rotation_composition", worst, 1e-12)]


def check_self_logit_max(seed: int = 0) -> list[CheckResult]:
    """With q = k and nonzero pairs, the logit peaks at zero separation.

    200 draws of q, then 50 separations for each, as whole arrays.  The
    logits of every q at zero and at its 50 separations come from one
    `rope.rotated_logit` call, which adds each logit over dims left to
    right.
    """
    rng = np.random.default_rng([seed, 7])
    q = rng.standard_normal((200, 16))
    deltas = np.zeros((200, 51, 2))
    deltas[:, 1:] = rng.uniform(-3.0, 3.0, (200, 50, 2))
    q = np.broadcast_to(q[:, None], (200, 51, 16))
    logits = rope.rotated_logit(q, q, RotaryConfig(dim=16).plane_angles(deltas))
    worst = float(np.min(logits[:, :1] - logits[:, 1:]))
    return [
        CheckResult(
            name="rope.self_logit_max",
            passed=bool(worst >= -1e-12),
            measured=float(-worst),
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
    config = AttentionConfig(head_dim=dim, encoding="fishrope")
    logits = attention.logit_matrix(tokens, tokens, weights, config)
    attn = attention._masked_softmax(logits, mask)
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
        config = AttentionConfig(head_dim=dim, encoding=encoding)
        coords = (
            _sample_coords(rng, n, 1.5)
            if encoding == "fishrope"
            else rng.uniform(0, 400, (n, 2))
        )
        features = rng.standard_normal((n, dim))
        mask = np.ones(n, dtype=bool)
        shifted_coords = coords + np.asarray(shift)
        if encoding == "axial_rope":  # pixels of a 640 x 480 image, as _probe_tokens feeds them
            size = np.array([640.0, 480.0])
            coords, shifted_coords = coords / size, shifted_coords / size
        grids = [
            TokenGrid(features=features, coords=c, mask=mask) for c in (coords, shifted_coords)
        ]
        base, shifted = (attention.logit_matrix(g, g, weights, config) for g in grids)
        err = float(np.max(np.abs(base - shifted)))
        out.append(CheckResult.below(f"attention.shift_invariance[{encoding}]", err, 1e-10))
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
    config = AttentionConfig(head_dim=dim, encoding="fishrope")
    out = attention.self_attention(tokens, weights, config)
    finite = bool(np.all(np.isfinite(out)))
    return [
        CheckResult.flag("attention.stability_large_inputs", finite, "non-finite output indicator")
    ]


def fd_self_attention_jacobian(
    tokens: TokenGrid, weights: ProjectionWeights, config: AttentionConfig
) -> np.ndarray:
    """Central finite-difference Jacobian of self_attention w.r.t. features."""
    n, d = tokens.n_tokens, config.head_dim
    jac = np.zeros((n * d, n * d))
    base = np.array(tokens.features)
    for col in range(n * d):
        m, j = divmod(col, d)
        for sign in (+1.0, -1.0):
            bumped = base.copy()
            bumped[m, j] += sign * _FD_STEP
            out = attention.self_attention(replace(tokens, features=bumped), weights, config)
            jac[:, col] += sign * out.reshape(-1) / (2.0 * _FD_STEP)
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
    config = AttentionConfig(head_dim=dim, encoding="fishrope")
    analytic = attention.self_attention_jacobian(tokens, weights, config)
    numeric = fd_self_attention_jacobian(tokens, weights, config)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    rel = float(np.max(np.abs(analytic - numeric) / scale))
    return [CheckResult.below("attention.gradient_check", rel, 1e-4)]


def _small_bench_config(seed: int = 0) -> RetrievalBenchConfig:
    return RetrievalBenchConfig(
        camera=wide_camera(), patch_size=128, n_queries=64, seed=seed
    )


def check_bench_determinism(seed: int = 0) -> list[CheckResult]:
    from .formats import dump_report_yaml

    a = dump_report_yaml(retrieval_bench(_small_bench_config(seed)).as_dict())
    b = dump_report_yaml(retrieval_bench(_small_bench_config(seed)).as_dict())
    return [
        CheckResult.flag(
            "experiments.bench_determinism", a == b, "serialized report mismatch indicator"
        )
    ]


def check_bench_matches_relative_logit(seed: int = 0) -> list[CheckResult]:
    """Bench logits equal direct relative-form evaluation on a linear camera."""
    config = RetrievalBenchConfig(
        camera=linear_camera(),
        patch_size=50,
        n_queries=32,
        seed=seed,
        encodings=("fishrope",),
    )
    key_coords, key_px, query_sets, _ = _bench_inputs(config)
    query_coords = query_sets[0][0]
    logits = np.empty((config.n_queries, len(key_coords)))
    next(_bench_logits(config, "fishrope", key_coords, key_px, query_sets, logits))
    probe = probe_feature(config.feature_dim)
    rcfg = RotaryConfig(dim=config.feature_dim)
    tau = 1.0 / math.sqrt(config.feature_dim)
    delta = key_coords[None, :, :] - query_coords[::4, None, :]
    expected = tau * rope.relative_logit(probe, probe, (delta[..., 0], delta[..., 1]), rcfg)
    worst = float(np.max(np.abs(expected - logits[::4])))
    return [CheckResult.below("experiments.bench_matches_relative_logit", worst, 1e-10)]


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


def _selfcheck_plan(seed: int) -> tuple:
    """Every selfcheck check in report order, as (runs in the child, check) pairs.

    The child's checks use elementwise numpy only: no Extrinsics, no
    LAPACK and no tile threads, so they are safe in a forked process.
    The parent keeps extrinsic composition, BEV projection and the
    downstream checks, which use all three.
    """
    return (
        (True, lambda: check_camera_roundtrip(seed)),
        (True, check_monotonicity),
        (True, check_paraxial),
        (False, lambda: check_extrinsic_composition(seed)),
        (True, lambda: check_radial_symmetry(seed)),
        (True, check_angle_ranges),
        (False, check_bev_projection_consistency),
        (True, lambda: check_norm_preservation(seed)),
        (True, lambda: check_relative_identity(seed)),
        (True, lambda: check_rotation_composition(seed)),
        (True, lambda: check_self_logit_max(seed)),
        (False, lambda: check_softmax_rows(seed)),
        (False, lambda: check_shift_invariance(seed)),
        (False, lambda: check_stability(seed)),
        (False, lambda: check_gradient(seed)),
        (False, lambda: check_bench_determinism(seed)),
        (False, lambda: check_bench_matches_relative_logit(seed)),
        (False, lambda: check_lift_monotone(seed)),
    )


def selfcheck(seed: int = 0) -> SelfCheckReport:
    """Execute every documented invariant with fixed seeds.

    The camera and rotary checks run in a forked child, through
    `_parallel.fork_split`, while this process runs the others; the child
    sends its results back pickled.  When the fork gate says no, this
    process runs both shares in turn, the parent's first.  Either way the
    two shares are joined in plan order by one path, and every check
    draws from its own seeded generator, so running order cannot change
    a result.
    """
    _check_seed(seed)
    plan = _selfcheck_plan(seed)

    def share(in_child: bool) -> list[list[CheckResult]]:
        return [check() for child, check in plan if child == in_child]

    split = _parallel.fork_split(
        lambda out: pickle.dump(share(True), out),
        lambda: share(False),
        pickle.load,
        "the process running the camera and rotary checks",
    )
    parent, child = (iter(part) for part in split or (share(False), share(True)))
    per_check = [next(child if in_child else parent) for in_child, _ in plan]
    return SelfCheckReport(results=tuple(r for results in per_check for r in results))
