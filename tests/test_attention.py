import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fishrope import (
    AttentionConfig,
    ConfigError,
    EmptyAttentionError,
    Extrinsics,
    ProjectionWeights,
    RotaryConfig,
    ShapeError,
    TokenGrid,
    cross_attention,
    logit_argmax,
    logit_matrix,
    relative_logit,
    self_attention,
    self_attention_jacobian,
    tokens_from_bev,
    tokens_from_patches,
)
from fishrope import _products, attention
from fishrope.angular import BevGridSpec, bev_angles, patch_angles
from fishrope.experiments import fd_self_attention_jacobian, probe_feature
from fishrope.fixtures import downward_extrinsics, wide_camera
from .oracles import dense_cross_attention
from .test_parallel import _cores, _count_starts


def angular_tokens(rng, n, dim, mask=None):
    coords = np.stack(
        [rng.uniform(0.0, 1.5, n), rng.uniform(-math.pi, math.pi, n)], axis=-1
    )
    return TokenGrid(
        features=rng.standard_normal((n, dim)),
        coords=coords,
        mask=np.ones(n, dtype=bool) if mask is None else mask,
    )


def fishrope_config(dim):
    return AttentionConfig(head_dim=dim, encoding="fishrope")


class TestTokenGrid:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            TokenGrid(features=np.zeros((3, 4)), coords=np.zeros((2, 2)), mask=np.ones(3, bool))
        with pytest.raises(ShapeError):
            TokenGrid(features=np.zeros((3, 4)), coords=np.zeros((3, 2)), mask=np.ones(2, bool))

    def test_masked_in_coords_must_be_finite(self):
        coords = np.zeros((3, 2))
        coords[1, 0] = np.nan
        with pytest.raises(ConfigError):
            TokenGrid(features=np.zeros((3, 4)), coords=coords, mask=np.ones(3, bool))
        # fine when the offending token is masked out
        mask = np.array([True, False, True])
        grid = TokenGrid(features=np.zeros((3, 4)), coords=coords, mask=mask)
        assert grid.n_tokens == 3

    def test_builders_carry_camera_token(self):
        cam = wide_camera()
        grid = patch_angles(cam, 128)
        feats = np.zeros((grid.grid_dims[0] * grid.grid_dims[1], 8))
        tokens = tokens_from_patches(grid, feats)
        assert tokens.camera_token == cam.fingerprint
        bev = bev_angles(
            BevGridSpec(extent=(4.0, 4.0), resolution=1.0),
            cam,
            downward_extrinsics(5.0),
        )
        qtokens = tokens_from_bev(bev, np.zeros((16, 8)))
        assert qtokens.camera_token == cam.fingerprint


class TestAttentionConfig:
    def test_unknown_encoding(self):
        with pytest.raises(ConfigError):
            AttentionConfig(encoding="learned")

    @pytest.mark.parametrize("encoding", ["axial_rope", "fishrope"])
    def test_rotary_config_follows_head_dim(self, encoding):
        assert AttentionConfig(head_dim=12, encoding=encoding).rotary == RotaryConfig(dim=12)
        with pytest.raises(ConfigError, match="even"):
            AttentionConfig(head_dim=7, encoding=encoding)

    def test_default_temperature(self):
        config = AttentionConfig(head_dim=16)
        assert config.scale == pytest.approx(0.25)


class TestSelfAttention:
    def test_single_token_returns_value_projection(self):
        rng = np.random.default_rng(0)
        tokens = angular_tokens(rng, 1, 8)
        weights = ProjectionWeights.random(8, seed=1)
        out = self_attention(tokens, weights, fishrope_config(8))
        np.testing.assert_allclose(out[0], weights.wv @ tokens.features[0], atol=1e-12)

    def test_two_identical_tokens_split_attention_evenly(self):
        features = np.tile(np.arange(1.0, 9.0), (2, 1))
        tokens = TokenGrid(features=features, coords=np.zeros((2, 2)), mask=np.ones(2, bool))
        weights = ProjectionWeights.random(8, seed=2)
        config = AttentionConfig(head_dim=8, encoding="none")
        from fishrope.attention import _masked_softmax

        logits = logit_matrix(tokens, tokens, weights, config)
        attn = _masked_softmax(logits, tokens.mask)
        np.testing.assert_allclose(attn, 0.5, atol=1e-15)
        out = self_attention(tokens, weights, config)
        # uniform 0.5/0.5 over two identical values reproduces the value itself
        np.testing.assert_allclose(out[0], weights.wv @ features[0], atol=1e-12)
        np.testing.assert_allclose(out[0], out[1], atol=1e-15)

    def test_all_masked_raises(self):
        rng = np.random.default_rng(1)
        tokens = angular_tokens(rng, 4, 8, mask=np.zeros(4, bool))
        with pytest.raises(EmptyAttentionError):
            self_attention(tokens, ProjectionWeights.identity(8), fishrope_config(8))

    def test_masked_rows_zero_and_excluded(self):
        rng = np.random.default_rng(2)
        mask = np.array([True, False, True, True])
        tokens = angular_tokens(rng, 4, 8, mask=mask)
        weights = ProjectionWeights.random(8, seed=3)
        config = fishrope_config(8)
        out = self_attention(tokens, weights, config)
        np.testing.assert_array_equal(out[1], 0.0)
        # removing the masked token entirely must not change the rest
        keep = mask
        reduced = TokenGrid(
            features=tokens.features[keep], coords=tokens.coords[keep], mask=np.ones(3, bool)
        )
        out_reduced = self_attention(reduced, weights, config)
        np.testing.assert_allclose(out[keep], out_reduced, atol=1e-12)

    def test_probe_attention_concentrates_on_smallest_rotation_difference(self):
        # q = k probe construction: every logit equals the relative-form
        # recomputation, and the key whose per-plane rotation differences
        # are all smallest (both |dtheta| and |dphi| below every rival's)
        # receives the largest weight
        dim = 8
        probe = probe_feature(dim)
        coords = np.array([[0.2, 0.1], [0.25, 0.15], [0.9, -2.0], [1.4, 2.5]])
        tokens = TokenGrid(
            features=np.tile(probe, (4, 1)), coords=coords, mask=np.ones(4, bool)
        )
        config = fishrope_config(dim)
        logits = logit_matrix(tokens, tokens, ProjectionWeights.identity(dim), config)
        rcfg = RotaryConfig(dim=dim)
        for i in range(4):
            expected = [
                config.scale
                * relative_logit(
                    probe,
                    probe,
                    (coords[j, 0] - coords[i, 0], coords[j, 1] - coords[i, 1]),
                    rcfg,
                )
                for j in range(4)
            ]
            np.testing.assert_allclose(logits[i], expected, atol=1e-12)
        # key 1 dominates per-plane for the probe at key 0 and vice versa
        assert np.argmax(logits[0, 1:]) == 0
        assert np.argmax(np.delete(logits[1], 1)) == 0
        weights = self_attention(
            tokens, ProjectionWeights.identity(dim), config
        )
        assert np.all(np.isfinite(weights))

    def test_outputs_finite_for_large_magnitudes(self):
        rng = np.random.default_rng(3)
        tokens = TokenGrid(
            features=rng.uniform(-1e3, 1e3, (6, 8)),
            coords=np.stack([rng.uniform(0, 1.5, 6), rng.uniform(-3, 3, 6)], axis=-1),
            mask=np.ones(6, bool),
        )
        out = self_attention(tokens, ProjectionWeights.random(8, seed=4), fishrope_config(8))
        assert np.all(np.isfinite(out))

class TestLogitMatrix:
    def test_encoding_none_plain_scaled_dot_products(self):
        rng = np.random.default_rng(5)
        q = angular_tokens(rng, 3, 8)
        k = angular_tokens(rng, 4, 8)
        weights = ProjectionWeights.random(8, seed=6)
        config = AttentionConfig(head_dim=8, encoding="none")
        logits = logit_matrix(q, k, weights, config)
        expected = config.scale * (q.features @ weights.wq.T) @ (k.features @ weights.wk.T).T
        np.testing.assert_allclose(logits, expected, atol=1e-12)

    def test_fishrope_shift_invariance(self):
        rng = np.random.default_rng(6)
        tokens = angular_tokens(rng, 8, 8)
        weights = ProjectionWeights.random(8, seed=7)
        config = fishrope_config(8)
        base = logit_matrix(tokens, tokens, weights, config)
        shifted_tokens = TokenGrid(
            features=tokens.features,
            coords=tokens.coords + np.array([0.31, -0.62]),
            mask=tokens.mask,
        )
        shifted = logit_matrix(shifted_tokens, shifted_tokens, weights, config)
        assert np.max(np.abs(base - shifted)) < 1e-10

    def test_sinusoidal_shift_counterexample_frozen(self):
        # frozen fixture: the same constant shift changes additive-PE logits
        rng = np.random.default_rng(42)
        n, dim = 6, 8
        features = rng.standard_normal((n, dim))
        coords = np.stack(
            [rng.uniform(0, 1.5, n), rng.uniform(-np.pi, np.pi, n)], axis=-1
        )
        mask = np.ones(n, bool)
        weights = ProjectionWeights.random(dim, seed=42)
        config = AttentionConfig(head_dim=dim, encoding="sinusoidal")
        shift = np.array([0.37, -0.81])
        base = logit_matrix(
            TokenGrid(features=features, coords=coords, mask=mask),
            TokenGrid(features=features, coords=coords, mask=mask),
            weights,
            config,
        )
        shifted = logit_matrix(
            TokenGrid(features=features, coords=coords + shift, mask=mask),
            TokenGrid(features=features, coords=coords + shift, mask=mask),
            weights,
            config,
        )
        delta = float(np.max(np.abs(base - shifted)))
        assert delta == pytest.approx(0.9530455994292699, abs=1e-9)
        assert base[0, 0] == pytest.approx(-1.6053067489459008, abs=1e-9)
        assert shifted[0, 0] == pytest.approx(-2.5583523483751707, abs=1e-9)

    def test_tiles_land_in_the_result(self, monkeypatch):
        # 128 rows of 1024 keys per uncut tile, cut to the 122 rows of
        # SMALL_GEMM_MACS at dim 8: 17 tiles dealt to 2 workers.  A 1 MiB
        # buffer per worker would add 2 MiB; projections and the key copy
        # take about 1.4 (N_q + N_k) dim float64s
        _cores(monkeypatch, 2)
        n_q, n_k, dim = 2048, 1024, 8
        assert _products.LOGIT_TILE // _products.MAX_TILE_WORKERS // n_k == 128
        rng = np.random.default_rng(30)
        q = angular_tokens(rng, n_q, dim)
        k = angular_tokens(rng, n_k, dim)
        weights = ProjectionWeights.random(dim, seed=31)
        tracemalloc.start()
        try:
            logits = logit_matrix(q, k, weights, fishrope_config(dim))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < logits.nbytes + 4 * (n_q + n_k) * dim * 8


class TestLogitArgmax:
    N_KEYS = 10

    @pytest.mark.parametrize("n_queries", [3, 4, 8, 9, 13])
    @pytest.mark.parametrize("encoding", ["none", "sinusoidal", "fishrope"])
    def test_matches_dense_argmax_across_tiles(self, monkeypatch, n_queries, encoding):
        # 80 logits make two 40-logit tiles of 4 query rows against 10 keys:
        # n_queries covers below one tile, exact multiples, and ragged last tiles
        monkeypatch.setattr(_products, "LOGIT_TILE", 80)
        rng = np.random.default_rng(21)
        q = angular_tokens(rng, n_queries, 8)
        k = angular_tokens(rng, self.N_KEYS, 8)
        weights = ProjectionWeights.random(8, seed=22)
        config = (
            fishrope_config(8)
            if encoding == "fishrope"
            else AttentionConfig(head_dim=8, encoding=encoding)
        )
        chosen = logit_argmax(q, k, weights, config)
        assert chosen.shape == (n_queries,)
        assert np.array_equal(chosen, np.argmax(logit_matrix(q, k, weights, config), axis=-1))

    def test_all_tied_rows_pick_first_key(self, monkeypatch):
        monkeypatch.setattr(_products, "LOGIT_TILE", 80)
        probe = probe_feature(8)
        rng = np.random.default_rng(23)
        q = angular_tokens(rng, 9, 8)
        k = angular_tokens(rng, self.N_KEYS, 8)
        q = TokenGrid(features=np.tile(probe, (9, 1)), coords=q.coords, mask=q.mask)
        k = TokenGrid(features=np.tile(probe, (self.N_KEYS, 1)), coords=k.coords, mask=k.mask)
        config = AttentionConfig(head_dim=8, encoding="none")
        weights = ProjectionWeights.identity(8)
        logits = logit_matrix(q, k, weights, config)
        assert np.all(logits == logits[0, 0])
        assert np.array_equal(logit_argmax(q, k, weights, config), np.zeros(9, dtype=int))

    @pytest.mark.parametrize("head_dim", [4, 8, 16])
    def test_near_tie_picks_larger_unscaled_product(self, monkeypatch, head_dim):
        # every query's products with keys 2 and 6 are adjacent floats; at
        # head_dim 8 both round to one scaled logit, so the dense argmax keeps
        # key 2, while 1/sqrt(4) and 1/sqrt(16) scale exactly
        monkeypatch.setattr(_products, "LOGIT_TILE", 80)
        low = 1.625
        features = np.ones((self.N_KEYS, head_dim))
        features[2], features[6] = low, np.nextafter(low, np.inf)
        k = TokenGrid(
            features=features, coords=np.zeros((self.N_KEYS, 2)), mask=np.ones(self.N_KEYS, bool)
        )
        q = TokenGrid(
            features=np.eye(head_dim)[np.arange(9) % head_dim],
            coords=np.zeros((9, 2)),
            mask=np.ones(9, bool),
        )
        config = AttentionConfig(head_dim=head_dim, encoding="none")
        weights = ProjectionWeights.identity(head_dim)
        chosen = logit_argmax(q, k, weights, config)
        logits = logit_matrix(q, k, weights, config)
        assert np.array_equal(chosen, np.full(9, 6))
        if head_dim == 8:
            assert np.all(logits[:, 2] == logits[:, 6])
            assert np.array_equal(np.argmax(logits, axis=-1), np.full(9, 2))
        else:
            assert np.array_equal(chosen, np.argmax(logits, axis=-1))

    def test_peak_memory_bounded_by_tiles(self):
        n, dim = 4096, 16
        rng = np.random.default_rng(26)
        q = angular_tokens(rng, n, dim)
        k = angular_tokens(rng, n, dim)
        weights = ProjectionWeights.random(dim, seed=27)
        config = fishrope_config(dim)
        dense_bytes = n * n * 8  # 128 MiB
        tracemalloc.start()
        try:
            chosen = logit_argmax(q, k, weights, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chosen.shape == (n,)
        assert peak < dense_bytes / 4

    def test_peak_memory_near_one_tile(self):
        # one tile of LOGIT_TILE float64 logits plus 1 MiB of q and k:
        # about 3 MiB at 2**18 logits; a 2**21-logit tile needs 17 MiB
        n, dim = 4096, 16
        rng = np.random.default_rng(26)
        q = angular_tokens(rng, n, dim)
        k = angular_tokens(rng, n, dim)
        weights = ProjectionWeights.random(dim, seed=27)
        tracemalloc.start()
        try:
            logit_argmax(q, k, weights, fishrope_config(dim))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestCrossAttention:
    def _grids(self, rng, nq=6, nk=5, dim=8):
        queries = angular_tokens(rng, nq, dim)
        keys = angular_tokens(rng, nk, dim)
        return queries, keys

    @pytest.mark.parametrize("n_queries", [3, 9])
    @pytest.mark.parametrize("split", [1, 2])
    @pytest.mark.parametrize("encoding", ["none", "sinusoidal", "axial_rope", "fishrope"])
    def test_streamed_equals_dense_oracle(self, monkeypatch, encoding, split, n_queries):
        # 80 // split logits in flight make tiles of 4 query rows against 10
        # keys, or of 2 rows when split is 2, so 9 queries end on a ragged tile
        monkeypatch.setattr(_products, "LOGIT_TILE", 80 // split)
        rng = np.random.default_rng(30)
        dim = 8
        qmask = np.ones(n_queries, bool)
        qmask[1] = False
        kmask = np.ones(10, bool)
        kmask[[2, 7]] = False
        queries = angular_tokens(rng, n_queries, dim, mask=qmask)
        keys = angular_tokens(rng, 10, dim, mask=kmask)
        weights = ProjectionWeights.random(dim, seed=31)
        config = AttentionConfig(head_dim=dim, encoding=encoding)
        out, flags = cross_attention(queries, keys, weights, config)
        logits = logit_matrix(queries, keys, weights, config)
        # built through the kernel's own product, which at these sizes runs
        # in numpy's fixed summation order, not in BLAS
        values = _products.matmul(attention._embed(keys, config), weights.wv.T)
        # the oracle takes a leading heads axis; the kernels have one head
        expected = dense_cross_attention(logits[None], kmask, values[None], flags)
        np.testing.assert_array_equal(flags, qmask)
        np.testing.assert_array_equal(out, expected)
        self_out = self_attention(queries, weights, config)
        logits = logit_matrix(queries, queries, weights, config)
        values = _products.matmul(attention._embed(queries, config), weights.wv.T)
        expected = dense_cross_attention(logits[None], qmask, values[None], qmask)
        np.testing.assert_array_equal(self_out, expected)

    def test_peak_memory_bounded_by_tiles(self):
        # each (4096, 4096) float64 array is 128 MiB; streamed, the peak is
        # a few tiles, about 8 MiB
        n, dim = 4096, 16
        rng = np.random.default_rng(32)
        queries = angular_tokens(rng, n, dim)
        keys = angular_tokens(rng, n, dim)
        weights = ProjectionWeights.random(dim, seed=33)
        tracemalloc.start()
        try:
            out, _ = cross_attention(queries, keys, weights, fishrope_config(dim))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n, dim)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("kernel", [cross_attention, logit_matrix, logit_argmax])
    def test_camera_mismatch_rejected(self, kernel):
        # each kernel refuses, even when no key is valid and nothing is scored
        rng = np.random.default_rng(7)
        queries, keys = self._grids(rng)
        queries = TokenGrid(
            features=queries.features, coords=queries.coords, mask=queries.mask,
            camera_token="cam-a",
        )
        for key_mask in (keys.mask, np.zeros(5, bool)):
            other = TokenGrid(
                features=keys.features, coords=keys.coords, mask=key_mask,
                camera_token="cam-b",
            )
            with pytest.raises(ConfigError, match="different cameras"):
                kernel(queries, other, ProjectionWeights.identity(8), fishrope_config(8))

    def test_all_keys_masked_yields_zero_and_flag(self):
        rng = np.random.default_rng(8)
        queries, keys = self._grids(rng)
        keys = TokenGrid(
            features=keys.features, coords=keys.coords, mask=np.zeros(5, bool)
        )
        out, flags = cross_attention(
            queries, keys, ProjectionWeights.identity(8), fishrope_config(8)
        )
        np.testing.assert_array_equal(out, 0.0)
        assert not np.any(flags)

    def test_masked_query_rows_zero_flagged(self):
        rng = np.random.default_rng(9)
        queries, keys = self._grids(rng)
        qmask = np.array([True, False, True, True, False, True])
        queries = TokenGrid(features=queries.features, coords=queries.coords, mask=qmask)
        out, flags = cross_attention(
            queries, keys, ProjectionWeights.random(8, seed=10), fishrope_config(8)
        )
        np.testing.assert_array_equal(flags, qmask)
        np.testing.assert_array_equal(out[~qmask], 0.0)
        assert np.all(np.isfinite(out))

    def test_weights_rows_sum_to_one_over_valid_keys(self):
        rng = np.random.default_rng(10)
        queries, keys = self._grids(rng)
        kmask = np.array([True, False, True, True, False])
        keys = TokenGrid(features=keys.features, coords=keys.coords, mask=kmask)
        weights = ProjectionWeights.random(8, seed=11)
        config = fishrope_config(8)
        from fishrope.attention import _masked_softmax

        logits = logit_matrix(queries, keys, weights, config)
        attn = _masked_softmax(logits, kmask)
        np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(attn[:, ~kmask], 0.0)

    def test_zero_angular_separation_receives_max_logit(self):
        # a query whose (theta, phi) coincides with one key, with q = k
        # probe features, must prefer exactly that key
        dim = 8
        probe = probe_feature(dim)
        key_coords = np.array([[0.3, 0.4], [0.9, -1.2], [1.3, 2.2], [0.6, -2.9]])
        keys = TokenGrid(
            features=np.tile(probe, (4, 1)), coords=key_coords, mask=np.ones(4, bool)
        )
        for match in range(4):
            queries = TokenGrid(
                features=probe[None, :], coords=key_coords[match : match + 1],
                mask=np.ones(1, bool),
            )
            logits = logit_matrix(
                queries, keys, ProjectionWeights.identity(dim), fishrope_config(dim)
            )
            assert np.argmax(logits[0]) == match

    def test_brute_force_relative_logit_equivalence(self):
        # 10x10 BEV queries vs 8x8 patch keys, random features
        cam = wide_camera()
        rng = np.random.default_rng(11)
        dim = 8
        patch = patch_angles(cam, 128)  # 8x8 grid
        bev = bev_angles(
            BevGridSpec(extent=(10.0, 10.0), resolution=1.0),
            cam,
            downward_extrinsics(6.0),
        )
        keys = tokens_from_patches(patch, rng.standard_normal((64, dim)))
        queries = tokens_from_bev(bev, rng.standard_normal((100, dim)))
        weights = ProjectionWeights.random(dim, seed=12)
        config = fishrope_config(dim)
        logits = logit_matrix(queries, keys, weights, config)
        rcfg = RotaryConfig(dim=dim)
        q_proj = queries.features @ weights.wq.T
        k_proj = keys.features @ weights.wk.T
        for qi in range(100):
            if not queries.mask[qi]:
                continue
            for ki in range(64):
                if not keys.mask[ki]:
                    continue
                delta = (
                    keys.coords[ki, 0] - queries.coords[qi, 0],
                    keys.coords[ki, 1] - queries.coords[qi, 1],
                )
                expected = config.scale * relative_logit(
                    q_proj[qi], k_proj[ki], delta, rcfg
                )
                assert abs(expected - logits[qi, ki]) < 1e-10


class TestTilePool:
    """Tiles streamed by 1 or by several threads give the same bits."""

    N_QUERIES, N_KEYS = 13, 10

    def _outputs(self, width):
        rng = np.random.default_rng(40)
        qmask = np.ones(self.N_QUERIES, bool)
        qmask[4] = False
        kmask = np.ones(self.N_KEYS, bool)
        kmask[[1, 8]] = False
        queries = angular_tokens(rng, self.N_QUERIES, 8 * width, mask=qmask)
        keys = angular_tokens(rng, self.N_KEYS, 8 * width, mask=kmask)
        weights = ProjectionWeights.random(8 * width, seed=41)
        config = fishrope_config(8 * width)
        out, flags = cross_attention(queries, keys, weights, config)
        return (
            logit_argmax(queries, keys, weights, config),
            logit_matrix(queries, keys, weights, config),
            out,
            flags,
        )

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_worker_count_changes_no_bit(self, monkeypatch, width, max_workers):
        # 3 rows of 10 keys per tile, whatever the worker count or the head
        # width (8 or 16): 13 queries make 5 tiles, the last one ragged;
        # 4 workers outnumber 2 cores, and a short switch interval
        # interleaves them as often as it can
        monkeypatch.setattr(_products, "MAX_TILE_WORKERS", max_workers)
        monkeypatch.setattr(_products, "LOGIT_TILE", 30 * max_workers)
        _cores(monkeypatch, 1)
        serial = self._outputs(width)
        _cores(monkeypatch, max_workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = self._outputs(width)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, pooled):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_threads_that_cannot_start_change_no_bit(self, monkeypatch, max_workers):
        # the calling thread streams the tiles of every refused worker
        monkeypatch.setattr(_products, "MAX_TILE_WORKERS", max_workers)
        monkeypatch.setattr(_products, "LOGIT_TILE", 30 * max_workers)
        _cores(monkeypatch, 1)
        serial = self._outputs(1)
        _cores(monkeypatch, max_workers)
        starts = []

        def refuse(thread):
            starts.append(1)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        refused = self._outputs(1)
        assert len(starts) == 3 * (max_workers - 1)  # argmax, matrix, cross-attention
        for a, b in zip(serial, refused):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("cores, threads", [(1, 1), (2, 2), (8, 2)])
    def test_each_row_once_on_capped_threads(self, monkeypatch, cores, threads):
        monkeypatch.setattr(_products, "LOGIT_TILE", 60)
        _cores(monkeypatch, cores)
        rng = np.random.default_rng(42)
        q, k = rng.standard_normal((13, 4)), rng.standard_normal((10, 4))
        seen, idents = np.zeros(13, int), set()

        def record(rows, tile):
            # 30 logits per tile on any worker count: 3 rows, then 1 ragged
            assert tile.shape == (min(3, 13 - rows.start), 10)
            assert rows.stop == rows.start + tile.shape[0]
            seen[rows] += 1
            idents.add(threading.get_ident())

        _products.for_each_tile(q, k, record)
        np.testing.assert_array_equal(seen, 1)
        assert len(idents) == threads

    @pytest.mark.parametrize(
        "n_q, n_k, dim, rows, threads",
        [
            (9240, 7472, 16, 8, 2),  # the scaled lift scene: cut from 17 rows
            (1024, 208, 16, 300, 2),  # two 630-row tiles: cut
            (512, 208, 16, 512, 1),  # the bench, one tile: uncut
            (9240, 208, 64, 630, 2),  # head_dim above SMALL_GEMM_MAX_DIM: uncut
            (1000, 29850, 16, 4, 2),  # a cut would leave 2 rows: uncut
        ],
    )
    def test_tile_rows_on_the_traffic_shapes(self, monkeypatch, n_q, n_k, dim, rows, threads):
        # only a product of two or more uncut tiles is cut, so no call
        # starts a thread that LOGIT_TILE-row tiles would not have started;
        # in the cut tiles the matmul stays in OpenBLAS's small-matrix kernel
        _cores(monkeypatch, 2)
        starts = _count_starts(monkeypatch)
        seen, idents = [], set()

        def record(_, tile):
            seen.append(tile.shape[0])
            idents.add(threading.get_ident())

        _products.for_each_tile(np.zeros((n_q, dim)), np.zeros((n_k, dim)), record)
        uncut = min(n_q, _products.LOGIT_TILE // _products.MAX_TILE_WORKERS // n_k)
        whole, ragged = divmod(n_q, rows)
        assert sorted(seen, reverse=True) == [rows] * whole + [ragged] * (ragged > 0)
        assert len(idents) == threads == min(2, -(-n_q // uncut))
        assert len(starts) == threads - 1
        if rows < uncut:
            assert rows * n_k * dim <= _products.SMALL_GEMM_MACS
            assert rows >= _products.SMALL_GEMM_MIN_ROWS

    def test_keys_and_buffers_start_on_a_cache_line(self, monkeypatch):
        # where malloc put the key copy moved the scaled lift's matmuls by
        # 15-20 %; without out, each tile starts its worker's buffer.  4100
        # queries put every product above FIXED_ORDER_OUTPUTS, so in BLAS
        _cores(monkeypatch, 1)
        matmul, seen = np.matmul, []

        def record(a, b, out):
            seen.append((b.ctypes.data % 64, out.ctypes.data % 64))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", record)
        rng = np.random.default_rng(44)
        for n_k in (1, 3, 10, 13):
            q, k = rng.standard_normal((4100, 4)), rng.standard_normal((n_k, 4))
            _products.for_each_tile(q, k, lambda rows, tile: None)
        assert seen == [(0, 0)] * 4

    @pytest.mark.parametrize("n_q, n_k, path", [(32, 32, "einsum"), (25, 41, "matmul")])
    def test_products_up_to_1024_outputs_take_einsum(self, monkeypatch, n_q, n_k, path):
        # FIXED_ORDER_OUTPUTS outputs run in numpy's fixed summation order,
        # one more in BLAS.  The tile gate counts the whole product once per
        # call, so every tile takes one path (LOGIT_TILE 80 cuts 32 x 32 into
        # 32 one-row tiles); matmul, for the projections and the value
        # product, gates each product it is given
        assert n_q * n_k == _products.FIXED_ORDER_OUTPUTS + (path == "matmul")
        monkeypatch.setattr(_products, "LOGIT_TILE", 80)
        calls = {"einsum": 0, "matmul": 0}
        for name in calls:

            def spy(*args, _real=getattr(np, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, spy)
        rng = np.random.default_rng(45)
        q, k = rng.standard_normal((n_q, 8)), rng.standard_normal((n_k, 8))
        other = "matmul" if path == "einsum" else "einsum"
        logits, tiles = np.empty((n_q, n_k)), []

        def keep(rows, tile):
            logits[rows] = tile
            tiles.append(rows)

        _products.for_each_tile(q, k, keep)
        assert calls == {path: len(tiles), other: 0}
        calls.update(einsum=0, matmul=0)
        product = _products.matmul(q, k.T)
        assert calls == {path: 1, other: 0}
        # the tile shape sets the summation order, so the bits may differ
        np.testing.assert_allclose(product, logits, rtol=0, atol=1e-13)
        # the one constant moves every path: at 0 the tiles, matmul,
        # Extrinsics.compose and a 3-token cross_attention (its value
        # product included) all run in BLAS, and back at its own value each
        # is back on its path above, the small products in einsum
        pose = Extrinsics.identity()
        grid = TokenGrid(features=q[:3], coords=np.zeros((3, 2)), mask=np.ones(3, bool))
        weights, config = ProjectionWeights.identity(8), AttentionConfig(head_dim=8)
        for gate, small_path in ((0, "matmul"), (_products.FIXED_ORDER_OUTPUTS, "einsum")):
            monkeypatch.setattr(_products, "FIXED_ORDER_OUTPUTS", gate)
            product_path = path if gate else "matmul"
            for run, want in (
                (lambda: _products.for_each_tile(q, k, keep), product_path),
                (lambda: _products.matmul(q, k.T), product_path),
                (lambda: pose.compose(pose), small_path),
                (lambda: cross_attention(grid, grid, weights, config), small_path),
            ):
                calls.update(einsum=0, matmul=0)
                run()
                unwanted = "matmul" if want == "einsum" else "einsum"
                assert calls[want] > 0 and calls[unwanted] == 0, (gate, want)

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        # rows 3..5 are the second tile, which worker 1 streams
        monkeypatch.setattr(_products, "LOGIT_TILE", 60)
        _cores(monkeypatch, 2)
        rng = np.random.default_rng(43)
        q, k = rng.standard_normal((13, 4)), rng.standard_normal((10, 4))
        before = threading.active_count()

        def fail_on_second_tile(rows, tile):
            if rows.start == 3:
                assert threading.current_thread() is not threading.main_thread()
                raise ValueError("tile 1 failed")

        with pytest.raises(ValueError, match="tile 1 failed"):
            _products.for_each_tile(q, k, fail_on_second_tile)
        assert threading.active_count() == before


class TestJacobian:
    @pytest.mark.parametrize(
        "encoding, n, masked",
        [
            pytest.param(encoding, n, masked, id=encoding + suffix)
            for n, masked, suffix in ((4, (), ""), (9, (2, 6), "-n9-masked-nan"))
            for encoding in ("none", "sinusoidal", "axial_rope", "fishrope")
        ],
    )
    def test_analytic_matches_finite_differences(self, encoding, n, masked):
        rng = np.random.default_rng(13)
        dim = 8
        if encoding == "axial_rope":  # pixels of a 640 x 480 image, normalized
            coords = rng.uniform(0, 500, (n, 2)) / (640, 480)
        else:
            coords = np.stack(
                [rng.uniform(0, 1.5, n), rng.uniform(-math.pi, math.pi, n)], axis=-1
            )
        mask = np.ones(n, bool)
        mask[list(masked)] = False
        coords[~mask] = np.nan
        tokens = TokenGrid(features=rng.standard_normal((n, dim)), coords=coords, mask=mask)
        weights = ProjectionWeights.random(dim, seed=14)
        config = AttentionConfig(head_dim=dim, encoding=encoding)
        analytic = self_attention_jacobian(tokens, weights, config)
        numeric = fd_self_attention_jacobian(tokens, weights, config)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    def test_respects_mask(self):
        rng = np.random.default_rng(14)
        mask = np.array([True, True, False, True])
        tokens = angular_tokens(rng, 4, 8, mask=mask)
        weights = ProjectionWeights.random(8, seed=15)
        config = fishrope_config(8)
        analytic = self_attention_jacobian(tokens, weights, config)
        numeric = fd_self_attention_jacobian(tokens, weights, config)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-4
        # masked token contributes nothing in either direction
        np.testing.assert_array_equal(analytic[16:24], 0.0)
        np.testing.assert_array_equal(analytic[:, 16:24], 0.0)
