"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from fishrope import (
    AttentionConfig,
    ProjectionWeights,
    RetrievalBenchConfig,
    RotaryConfig,
    TokenGrid,
    logit_matrix,
    relative_logit,
    retrieval_bench,
    self_attention,
    self_attention_jacobian,
    tokens_from_bev,
    tokens_from_patches,
)
from fishrope.angular import BevGridSpec, bev_angles, patch_angles
from fishrope.cli import main
from fishrope.fixtures import downward_extrinsics, fixture_cameras, wide_camera
from fishrope.rope import apply_rotary_batch

from .conftest import CALIBRATION_FILE


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert passed, detail


def _vec_bisect(coeffs, theta_max, radii, iters=60):
    """Vectorized bisection oracle on the power-sum polynomial."""

    def poly(t):
        return sum(k * t ** (2 * j + 1) for j, k in enumerate(coeffs))

    lo = np.zeros_like(radii)
    hi = np.full_like(radii, theta_max)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = poly(mid) < radii
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_criterion_1_relative_position_identity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10000):
        dim = int(rng.choice([4, 8, 16]))
        theta_dims = int(rng.choice(np.arange(0, dim + 1, 2)))
        config = RotaryConfig(
            dim=dim, theta_dims=theta_dims, base=float(rng.uniform(2.0, 10000.0))
        )
        q = rng.standard_normal(dim)
        k = rng.standard_normal(dim)
        cm = (rng.uniform(0.0, 1.7), rng.uniform(-math.pi, math.pi))
        cn = (rng.uniform(0.0, 1.7), rng.uniform(-math.pi, math.pi))
        absolute = float(
            apply_rotary_batch(q[None], [cm], config)[0]
            @ apply_rotary_batch(k[None], [cn], config)[0]
        )
        relative = relative_logit(q, k, (cn[0] - cm[0], cn[1] - cm[1]), config)
        worst = max(worst, abs(absolute - relative))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-12 and elapsed < 5.0,
        f"relative-position identity over 1e4 draws: max |abs - rel| = {worst:.3e} "
        f"(< 1e-12), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_kb_roundtrip():
    start = time.perf_counter()
    worst_converged = worst_phi = worst_five = 0.0
    for name, cam in fixture_cameras().items():
        rng = np.random.default_rng(99)
        theta = rng.uniform(0.0, cam.theta_max, 10000)
        phi = rng.uniform(-math.pi, math.pi, 10000)
        u, v = cam.project(theta, phi)
        t_conv, p_conv = cam.unproject_newton(u, v, iterations=None)
        t_five, _ = cam.unproject_newton(u, v, iterations=5)
        worst_converged = max(worst_converged, float(np.max(np.abs(t_conv - theta))))
        worst_phi = max(worst_phi, float(np.max(np.abs(p_conv - phi))))
        worst_five = max(worst_five, float(np.max(np.abs(t_five - theta))))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst_converged < 1e-9 and worst_phi < 1e-9 and worst_five < 1e-5
        and elapsed < 5.0,
        f"KB round-trip on linear/K2/K4: converged dtheta {worst_converged:.3e} "
        f"(< 1e-9), dphi {worst_phi:.3e} (< 1e-9), 5-iteration dtheta "
        f"{worst_five:.3e} (< 1e-5), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_3_lut_fidelity():
    worst = 0.0
    for name, cam in fixture_cameras().items():
        lut = cam.build_lut(4096)
        rng = np.random.default_rng(5)
        radii = rng.uniform(0.0, cam.r_max, 100000)
        oracle = _vec_bisect(cam.coeffs, cam.theta_max, radii)
        worst = max(worst, float(np.max(np.abs(lut.lookup(radii) - oracle))))
    _report(
        3,
        worst < 1e-6,
        f"LUT fidelity at resolution 4096, 1e5-radius sweep per fixture camera: "
        f"max |lut - bisection| = {worst:.3e} (< 1e-6)",
    )


def test_criterion_4_paraxial_property():
    worst = 0.0
    for name, cam in fixture_cameras().items():
        theta = np.linspace(1e-9, 0.01 * cam.theta_max, 4096)
        r = cam.radial(theta)
        worst = max(worst, float(np.max(np.abs(theta - r / cam.coeffs[0]) / theta)))
    _report(
        4,
        worst < 1e-3,
        f"paraxial linearity |theta - r/k1|/theta on all fixtures: max {worst:.3e} "
        f"(< 1e-3 for theta < 0.01 theta_max)",
    )


def test_criterion_5_angular_offset_invariance():
    rng = np.random.default_rng(42)
    n, dim = 6, 8
    features = rng.standard_normal((n, dim))
    coords = np.stack([rng.uniform(0, 1.5, n), rng.uniform(-np.pi, np.pi, n)], axis=-1)
    mask = np.ones(n, bool)
    weights = ProjectionWeights.random(dim, seed=42)
    shift = np.array([0.37, -0.81])

    fish = AttentionConfig(head_dim=dim, encoding="fishrope")
    base = logit_matrix(
        TokenGrid(features=features, coords=coords, mask=mask),
        TokenGrid(features=features, coords=coords, mask=mask),
        weights,
        fish,
    )
    shifted = logit_matrix(
        TokenGrid(features=features, coords=coords + shift, mask=mask),
        TokenGrid(features=features, coords=coords + shift, mask=mask),
        weights,
        fish,
    )
    fish_delta = float(np.max(np.abs(base - shifted)))

    sin = AttentionConfig(head_dim=dim, encoding="sinusoidal")
    sin_base = logit_matrix(
        TokenGrid(features=features, coords=coords, mask=mask),
        TokenGrid(features=features, coords=coords, mask=mask),
        weights,
        sin,
    )
    sin_shifted = logit_matrix(
        TokenGrid(features=features, coords=coords + shift, mask=mask),
        TokenGrid(features=features, coords=coords + shift, mask=mask),
        weights,
        sin,
    )
    sin_delta = float(np.max(np.abs(sin_base - sin_shifted)))
    frozen = 0.9530455994292699
    _report(
        5,
        fish_delta < 1e-10 and abs(sin_delta - frozen) < 1e-9,
        f"constant (0.37, -0.81) offset: fishrope logit change {fish_delta:.3e} "
        f"(< 1e-10); sinusoidal counterexample changes by {sin_delta:.6f} "
        f"(frozen {frozen:.6f})",
    )


def test_criterion_6_gradient_check():
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        n, dim = 4, 8
        tokens = TokenGrid(
            features=rng.standard_normal((n, dim)),
            coords=np.stack(
                [rng.uniform(0, 1.5, n), rng.uniform(-math.pi, math.pi, n)], axis=-1
            ),
            mask=np.ones(n, bool),
        )
        weights = ProjectionWeights.random(dim, seed=seed + 100)
        config = AttentionConfig(head_dim=dim, encoding="fishrope")
        analytic = self_attention_jacobian(tokens, weights, config)

        # independent central finite differences, step 1e-5
        step = 1e-5
        numeric = np.zeros_like(analytic)
        base_feats = np.array(tokens.features)
        for col in range(n * dim):
            m, j = divmod(col, dim)
            plus = base_feats.copy()
            plus[m, j] += step
            minus = base_feats.copy()
            minus[m, j] -= step
            out_plus = self_attention(
                TokenGrid(features=plus, coords=tokens.coords, mask=tokens.mask),
                weights,
                config,
            )
            out_minus = self_attention(
                TokenGrid(features=minus, coords=tokens.coords, mask=tokens.mask),
                weights,
                config,
            )
            numeric[:, col] = (out_plus - out_minus).reshape(-1) / (2 * step)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
    _report(
        6,
        worst < 1e-4,
        f"self-attention Jacobian, analytic vs central differences (step 1e-5) on "
        f"three random 4-token d=8 instances: max relative error {worst:.3e} (< 1e-4)",
    )


def test_criterion_7_mechanism_benchmark():
    start = time.perf_counter()
    cam = wide_camera()
    ratio = cam.angular_extent_ratio(0.05 * cam.r_max)
    report = retrieval_bench(RetrievalBenchConfig(camera=cam))
    elapsed = time.perf_counter() - start
    fish = report.score("fishrope")
    axial = report.score("axial_rope")
    none = report.score("none")
    ordering = fish.top1_accuracy >= axial.top1_accuracy >= none.top1_accuracy
    margin = fish.periphery_accuracy - axial.periphery_accuracy
    _report(
        7,
        3.0 <= ratio <= 5.0 and ordering and margin > 0.0 and elapsed < 30.0,
        f"retrieval bench on the K=4 fixture (extent ratio {ratio:.3f} in [3, 5]): "
        f"top-1 fishrope {fish.top1_accuracy:.4f} >= axial {axial.top1_accuracy:.4f} "
        f">= none {none.top1_accuracy:.4f}; periphery margin {margin:+.4f} (> 0); "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_8_bev_roundtrip():
    from fishrope import LiftConfig, bev_roundtrip
    from fishrope.fixtures import scene_extrinsics, scene_pattern

    start = time.perf_counter()
    report = bev_roundtrip(
        wide_camera(), scene_extrinsics(), scene_pattern(), LiftConfig()
    )
    elapsed = time.perf_counter() - start
    fish = report.score("fishrope")
    axial = report.score("axial_rope")
    _report(
        8,
        fish.overall_accuracy > 0.9
        and fish.peripheral_accuracy > axial.peripheral_accuracy
        and elapsed < 60.0,
        f"BEV round-trip on the fixture scene: fishrope overall "
        f"{fish.overall_accuracy:.4f} (> 0.9); outer-30% band fishrope "
        f"{fish.peripheral_accuracy:.4f} > axial {axial.peripheral_accuracy:.4f}; "
        f"runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_9_determinism(tmp_path):
    calib = str(CALIBRATION_FILE)
    bench_args = ["bench", "--calib", calib, "--seed", "3", "--n-queries", "128",
                  "--patch-size", "64"]
    a, b = tmp_path / "bench_a.yaml", tmp_path / "bench_b.yaml"
    assert main(bench_args + ["--out", str(a)]) == 0
    assert main(bench_args + ["--out", str(b)]) == 0
    bench_same = a.read_bytes() == b.read_bytes()

    lift_args = ["lift", "--calib", calib, "--seed", "3", "--extent", "20", "20",
                 "--resolution", "0.5", "--patch-size", "32"]
    c, d = tmp_path / "lift_a.yaml", tmp_path / "lift_b.yaml"
    assert main(lift_args + ["--out", str(c)]) == 0
    assert main(lift_args + ["--out", str(d)]) == 0
    lift_same = c.read_bytes() == d.read_bytes()
    _report(
        9,
        bench_same and lift_same,
        f"identical seeds produce byte-identical reports: bench {bench_same}, "
        f"lift {lift_same}",
    )


def test_criterion_10_brute_force_oracle():
    cam = wide_camera()
    rng = np.random.default_rng(77)
    dim = 8
    patch = patch_angles(cam, 128)  # 8x8 keys
    bev = bev_angles(
        BevGridSpec(extent=(10.0, 10.0), resolution=1.0),
        cam,
        downward_extrinsics(6.0),
    )
    keys = tokens_from_patches(patch, rng.standard_normal((64, dim)))
    queries = tokens_from_bev(bev, rng.standard_normal((100, dim)))
    weights = ProjectionWeights.random(dim, seed=78)
    config = AttentionConfig(head_dim=dim, encoding="fishrope")
    logits = logit_matrix(queries, keys, weights, config)
    q_proj = queries.features @ weights.wq.T
    k_proj = keys.features @ weights.wk.T
    rcfg = RotaryConfig(dim=dim)
    worst = 0.0
    for qi in range(100):
        for ki in range(64):
            if not (queries.mask[qi] and keys.mask[ki]):
                continue
            delta = (
                keys.coords[ki, 0] - queries.coords[qi, 0],
                keys.coords[ki, 1] - queries.coords[qi, 1],
            )
            expected = config.scale * relative_logit(q_proj[qi], k_proj[ki], delta, rcfg)
            worst = max(worst, abs(expected - float(logits[qi, ki])))
    _report(
        10,
        worst < 1e-10,
        f"cross-attention logits (10x10 queries x 8x8 keys) vs double-loop "
        f"relative-form oracle: max |diff| = {worst:.3e} (< 1e-10)",
    )
