import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishrope import (
    AttentionConfig,
    ConfigError,
    ProjectionWeights,
    RotaryConfig,
    ShapeError,
    TokenGrid,
    logit_matrix,
    relative_logit,
)
from fishrope.experiments import _probe_tokens
from fishrope.fixtures import k2_camera
from fishrope.rope import (
    DEFAULT_BASE,
    ROTARY_TILE,
    apply_rotary_batch,
    rotate_planes,
    sinusoidal_pe_batch,
)

from .oracles import dense_rotation, two_pass_rotary


def _rotate(x, coord, config):
    """apply_rotary_batch on the one-row array of a single vector."""
    return apply_rotary_batch(np.asarray(x, dtype=np.float64)[None], [coord], config)[0]


class TestSchedule:
    """Plane frequencies of a theta-only config: the one subspace's schedule."""

    @staticmethod
    def _freqs(dims, base):
        return RotaryConfig(dim=dims, theta_dims=dims, base=base).plane_freqs

    def test_dims8_base10000(self):
        np.testing.assert_allclose(self._freqs(8, 10000.0), [1.0, 0.1, 0.01, 0.001], rtol=1e-12)

    def test_dims2_single_plane(self):
        for base in (2.0, 100.0, 10000.0):
            np.testing.assert_allclose(self._freqs(2, base), [1.0])

    def test_dims4_base100(self):
        np.testing.assert_allclose(self._freqs(4, 100.0), [1.0, 0.1], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RotaryConfig(dim=3)
        with pytest.raises(ConfigError):
            RotaryConfig(dim=0)
        with pytest.raises(ConfigError):
            RotaryConfig(dim=4, base=1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        half=st.integers(min_value=1, max_value=64),
        base=st.floats(min_value=1.001, max_value=1e6),
    )
    def test_invariants_hold(self, half, base):
        freqs = self._freqs(2 * half, base)
        assert freqs[0] == 1.0
        assert np.all(freqs > 0.0)
        assert np.all(np.diff(freqs) < 0.0) or len(freqs) == 1


class TestRotatePairs:
    """Plane rotation of consecutive pairs, through a theta-only config."""

    def test_quarter_turn(self):
        out = _rotate([1.0, 0.0], (math.pi / 2, 0.0), RotaryConfig(dim=2, theta_dims=2))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_zero_angle_is_identity(self):
        x = np.arange(8.0)
        np.testing.assert_allclose(_rotate(x, (0.0, 0.0), RotaryConfig(dim=8, theta_dims=8)), x)

    def test_per_plane_frequencies(self):
        config = RotaryConfig(dim=4, theta_dims=4, base=100.0)  # freqs [1, 0.1]
        out = _rotate([1.0, 0.0, 1.0, 0.0], (1.0, 0.0), config)
        expected = [math.cos(1.0), math.sin(1.0), math.cos(0.1), math.sin(0.1)]
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_shape_mismatch(self):
        config = RotaryConfig(dim=2, theta_dims=2)
        with pytest.raises(ShapeError):
            apply_rotary_batch([[1.0, 0.0, 0.0]], [(1.0, 0.0)], config)
        with pytest.raises(ShapeError):
            apply_rotary_batch([[1.0, 0.0]], [(1.0, 0.0), (2.0, 0.0)], config)


class TestApplyFishrope:
    def test_zero_coord_is_identity(self):
        config = RotaryConfig(dim=8)
        x = np.random.default_rng(0).standard_normal(8)
        np.testing.assert_allclose(_rotate(x, (0.0, 0.0), config), x)

    def test_theta_only_variant_equals_full_dim_rotation(self):
        config = RotaryConfig(dim=8, theta_dims=8)
        x = np.random.default_rng(1).standard_normal(8)
        got = _rotate(x, (0.7, 2.0), config)  # phi has no subspace
        np.testing.assert_array_equal(got, _rotate(x, (0.7, 0.0), config))
        np.testing.assert_allclose(
            got, dense_rotation(8, 8, 10000.0, 0.7, 0.0) @ x, atol=1e-15
        )

    def test_matches_dense_matrix_oracle_on_one_hot(self):
        config = RotaryConfig(dim=8)
        mat = dense_rotation(8, 4, 10000.0, 0.3, 1.2)
        for i in range(8):
            x = np.zeros(8)
            x[i] = 1.0
            got = _rotate(x, (0.3, 1.2), config)
            np.testing.assert_allclose(got, mat[:, i], atol=1e-15)

    def test_matches_dense_matrix_oracle_random(self):
        rng = np.random.default_rng(2)
        for dim, td, base, scale in [(8, 4, 10000.0, 1.0), (12, 8, 50.0, 2.5), (6, 0, 7.0, 1.0)]:
            # a caller scales the angles by scaling the coordinates it rotates by
            config = RotaryConfig(dim=dim, theta_dims=td, base=base)
            mat = dense_rotation(dim, td, base, 0.9, -2.1, angle_scale=scale)
            x = rng.standard_normal(dim)
            np.testing.assert_allclose(
                _rotate(x, (scale * 0.9, scale * -2.1), config), mat @ x, atol=1e-13
            )

    def test_product_rotation_matrix_agrees_with_oracle(self):
        # The rotation-block build of self_attention_jacobian: rotate the rows
        # of the identity, so row c is A e_c and the transpose is A.
        config = RotaryConfig(dim=10, theta_dims=6, base=300.0)
        rows = apply_rotary_batch(np.eye(10), np.tile((0.4, -1.0), (10, 1)), config)
        np.testing.assert_allclose(
            rows.T, dense_rotation(10, 6, 300.0, 0.4, -1.0), atol=1e-15
        )

    @pytest.mark.parametrize("base", [2.0, 7.3, 100.0, 10000.0])
    def test_one_pass_equals_two_pass_bit_for_bit(self, base):
        # every dim 2..64 and every even theta split, 0 and dim included
        rng = np.random.default_rng(3)
        for dim in range(2, 65, 2):
            for theta_dims in range(0, dim + 1, 2):
                x = rng.standard_normal((9, dim))
                positions = rng.uniform(-7.0, 7.0, (9, 2))
                got = apply_rotary_batch(x, positions, RotaryConfig(dim, theta_dims, base))
                want = two_pass_rotary(x, positions, dim, theta_dims, base)
                assert got.tobytes() == want.tobytes(), (dim, theta_dims)

    def test_tiles_equal_two_pass_bit_for_bit(self):
        # rows spanning several ROTARY_TILE tiles, of distinct rows and of one shared row
        rng = np.random.default_rng(4)
        for dim, theta_dims in [(2, 2), (16, 6), (64, 64)]:
            rows = 3 * ROTARY_TILE // (dim // 2) + 5
            positions = rng.uniform(-7.0, 7.0, (rows, 2))
            shared = np.broadcast_to(rng.standard_normal(dim), (rows, dim))
            for x in (rng.standard_normal((rows, dim)), shared):
                got = apply_rotary_batch(x, positions, RotaryConfig(dim, theta_dims))
                want = two_pass_rotary(x, positions, dim, theta_dims, DEFAULT_BASE)
                assert got.tobytes() == want.tobytes(), (dim, theta_dims)

    @staticmethod
    def _assert_mixed_configs_equal_oracles(rng, dim, rows):
        """One kernel call over rows whose configs cycle through every even theta split.

        Each config has its own base; every row must equal both oracles
        run on that config's rows alone.
        """
        configs = [
            RotaryConfig(dim, theta_dims, float(rng.uniform(2.0, 10000.0)))
            for theta_dims in range(0, dim + 1, 2)
        ]
        which = np.arange(rows) % len(configs)
        x = rng.standard_normal((rows, dim))
        positions = rng.uniform(-7.0, 7.0, (rows, 2))
        angles = np.empty((rows, dim // 2))
        for i, c in enumerate(configs):
            angles[which == i] = c.plane_angles(positions[which == i])
        got = rotate_planes(x, angles)
        for i, c in enumerate(configs):
            own = (x[which == i], positions[which == i])
            want = two_pass_rotary(*own, c.dim, c.theta_dims, c.base)
            assert got[which == i].tobytes() == want.tobytes(), c
            assert got[which == i].tobytes() == apply_rotary_batch(*own, c).tobytes(), c

    def test_kernel_per_row_angles_equal_two_pass_bit_for_bit(self):
        # every dim 2..64, each in one call mixing every even theta split
        rng = np.random.default_rng(5)
        for dim in range(2, 65, 2):
            self._assert_mixed_configs_equal_oracles(rng, dim, 3 * (dim // 2 + 1))

    def test_kernel_ragged_tiles_equal_two_pass_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for dim in (2, 16, 64):
            rows = 2 * ROTARY_TILE // (dim // 2) + 7
            self._assert_mixed_configs_equal_oracles(rng, dim, rows)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            _rotate(np.zeros(6), (0.1, 0.2), RotaryConfig(dim=8))
        with pytest.raises(ShapeError):
            apply_rotary_batch(np.zeros(8), [(0.1, 0.2)], RotaryConfig(dim=8))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RotaryConfig(dim=7)
        with pytest.raises(ConfigError):
            RotaryConfig(dim=8, theta_dims=3)
        with pytest.raises(ConfigError):
            RotaryConfig(dim=8, theta_dims=10)
        with pytest.raises(ConfigError):
            RotaryConfig(dim=8, base=0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        dim_half=st.integers(min_value=1, max_value=16),
        theta=st.floats(min_value=0.0, max_value=3.0),
        phi=st.floats(min_value=-math.pi, max_value=math.pi),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_norm_preserved(self, dim_half, theta, phi, seed):
        dim = 2 * dim_half
        config = RotaryConfig(dim=dim, theta_dims=2 * (dim_half // 2))
        x = np.random.default_rng(seed).standard_normal(dim)
        out = _rotate(x, (theta, phi), config)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), abs=1e-12)


def _logits(encoding, features, coords):
    """Single-head logit_matrix of tokens over themselves, identity weights."""
    config = AttentionConfig(head_dim=8, encoding=encoding)
    tokens = TokenGrid(features=features, coords=coords, mask=np.ones(len(coords), bool))
    return logit_matrix(tokens, tokens, ProjectionWeights.identity(8), config)


class TestAxialRope:
    """axial_rope is fishrope fed pixels normalized by the image size."""

    def test_zero_pixel_is_identity(self):
        x = np.random.default_rng(3).standard_normal((4, 8))
        np.testing.assert_array_equal(
            _logits("axial_rope", x, np.zeros((4, 2))),
            _logits("none", x, np.zeros((4, 2))),
        )

    def test_probe_tokens_normalize_pixels(self):
        # the experiments feed every encoding but fishrope pixels / (W, H)
        rng = np.random.default_rng(4)
        camera = k2_camera()  # 640 x 480, so a swapped W and H shows
        angles = rng.uniform(0.0, 1.0, (12, 2))
        pixels = rng.uniform(0.0, 1.0, (12, 2)) * (640.0, 480.0)
        for encoding in ("none", "sinusoidal", "axial_rope"):
            tokens = _probe_tokens(encoding, angles, pixels, camera, 8)
            np.testing.assert_array_equal(tokens.coords, pixels / np.array([640.0, 480.0]))
        tokens = _probe_tokens("fishrope", angles, pixels, camera, 8)
        np.testing.assert_array_equal(tokens.coords, angles)

    def test_definitional_substitution(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 8))
        coords = rng.uniform(0.0, 1.0, (12, 2))
        np.testing.assert_array_equal(
            _logits("axial_rope", x, coords), _logits("fishrope", x, coords)
        )

    def test_dense_matrix_oracle(self):
        x = np.random.default_rng(5).standard_normal((2, 8))
        pixels = np.array([[100.0, 250.0], [320.0, 120.0]])
        mats = [dense_rotation(8, 4, 10000.0, u / 640.0, v / 480.0) for u, v in pixels]
        rotated = np.stack([m @ row for m, row in zip(mats, x)])
        np.testing.assert_allclose(
            _logits("axial_rope", x, pixels / (640.0, 480.0)),
            rotated @ rotated.T / math.sqrt(8),
            atol=1e-14,
        )


class TestSinusoidal:
    def test_zero_position_alternating_pattern(self):
        pe = sinusoidal_pe_batch([(0.0, 0.0)], 8)[0]
        np.testing.assert_allclose(pe, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_equal_positions_equal_encodings(self):
        a, b = sinusoidal_pe_batch([(0.4, -1.0), (0.4, -1.0)], 16)
        np.testing.assert_array_equal(a, b)

    def test_matches_scalar_closed_form(self):
        # entry pairs (2i, 2i+1) of each half are sin/cos(p * base^(-4i/dim))
        dim, base = 12, DEFAULT_BASE
        a, b = 0.8, -2.3
        pe = sinusoidal_pe_batch([(a, b)], dim)[0]
        half = dim // 2
        for i in range(half // 2):
            freq = base ** (-2.0 * i / half)
            assert pe[2 * i] == pytest.approx(math.sin(a * freq), abs=1e-15)
            assert pe[2 * i + 1] == pytest.approx(math.cos(a * freq), abs=1e-15)
            assert pe[half + 2 * i] == pytest.approx(math.sin(b * freq), abs=1e-15)
            assert pe[half + 2 * i + 1] == pytest.approx(math.cos(b * freq), abs=1e-15)

    def test_dim_validation(self):
        with pytest.raises(ConfigError):
            sinusoidal_pe_batch([(0.0, 0.0)], 6)
        with pytest.raises(ShapeError):
            sinusoidal_pe_batch([0.0, 0.0], 8)


class TestRelativeLogit:
    def test_zero_delta_is_plain_inner_product(self):
        rng = np.random.default_rng(7)
        q, k = rng.standard_normal(8), rng.standard_normal(8)
        config = RotaryConfig(dim=8)
        assert relative_logit(q, k, (0.0, 0.0), config) == pytest.approx(
            float(q @ k), abs=1e-12
        )

    def test_single_plane_closed_form(self):
        # q = k = unit pair in one theta plane: logit = cos(dtheta * w0)
        config = RotaryConfig(dim=4, theta_dims=2)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        assert relative_logit(q, q, (0.2, 0.0), config) == pytest.approx(
            math.cos(0.2), abs=1e-15
        )

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        dim=st.sampled_from([4, 8, 16, 32]),
        theta_m=st.floats(min_value=0.0, max_value=1.7),
        theta_n=st.floats(min_value=0.0, max_value=1.7),
        phi_m=st.floats(min_value=-math.pi, max_value=math.pi),
        phi_n=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_identity_with_absolute_form(self, seed, dim, theta_m, theta_n, phi_m, phi_n):
        rng = np.random.default_rng(seed)
        config = RotaryConfig(dim=dim)
        q, k = rng.standard_normal(dim), rng.standard_normal(dim)
        absolute = float(
            _rotate(q, (theta_m, phi_m), config) @ _rotate(k, (theta_n, phi_n), config)
        )
        relative = relative_logit(
            q, k, (theta_n - theta_m, phi_n - phi_m), config
        )
        assert absolute == pytest.approx(relative, abs=1e-12)

    def test_without_wrap_seam_deltas_differ(self):
        config = RotaryConfig(dim=8)
        rng = np.random.default_rng(9)
        q, k = rng.standard_normal(8), rng.standard_normal(8)
        near_two_pi = 2.0 * math.pi - 0.1
        assert relative_logit(q, k, (0.3, near_two_pi), config) != pytest.approx(
            relative_logit(q, k, (0.3, -0.1), config), abs=1e-6
        )

    def test_self_logit_peaks_at_zero_separation(self):
        config = RotaryConfig(dim=16)
        rng = np.random.default_rng(10)
        q = rng.standard_normal(16)
        peak = relative_logit(q, q, (0.0, 0.0), config)
        for _ in range(500):
            delta = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert relative_logit(q, q, delta, config) <= peak + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(min_value=-6.0, max_value=6.0),
        beta=st.floats(min_value=-6.0, max_value=6.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_orthogonality_composition(self, alpha, beta, seed):
        # rotating by alpha then by (beta - alpha) equals rotating by beta
        config = RotaryConfig(dim=8, theta_dims=8, base=500.0)
        x = np.random.default_rng(seed).standard_normal(8)
        via = _rotate(_rotate(x, (alpha, 0.0), config), (beta - alpha, 0.0), config)
        np.testing.assert_allclose(via, _rotate(x, (beta, 0.0), config), atol=1e-12)


class TestRelativeLogitBatch:
    DIM, THETA_DIMS, BASE = 12, 4, 300.0

    def _draws(self, seed, n=64):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((n, self.DIM))
        k = rng.standard_normal((n, self.DIM))
        dtheta = rng.uniform(-2.0, 2.0, n)
        dphi = rng.uniform(-3 * math.pi, 3 * math.pi, n)
        # exact seam and multiple-of-pi deltas
        dphi[:6] = [math.pi, -math.pi, 2 * math.pi, 3 * math.pi, -3 * math.pi, 0.0]
        return q, k, dtheta, dphi

    def test_batch_equals_scalar_rows_and_dense_oracle(self):
        config = RotaryConfig(dim=self.DIM, theta_dims=self.THETA_DIMS, base=self.BASE)
        q, k, dtheta, dphi = self._draws(12)
        batch = relative_logit(q, k, (dtheta, dphi), config)
        assert batch.shape == (len(q),)
        for i in range(len(q)):
            scalar = relative_logit(q[i], k[i], (dtheta[i], dphi[i]), config)
            assert isinstance(scalar, float)
            assert batch[i] == pytest.approx(scalar, abs=1e-15)
            mat = dense_rotation(self.DIM, self.THETA_DIMS, self.BASE, dtheta[i], dphi[i])
            assert batch[i] == pytest.approx(float(q[i] @ mat @ k[i]), abs=1e-12)

    def test_shared_k_equals_repeated_k_bit_for_bit(self):
        config = RotaryConfig(dim=self.DIM, theta_dims=self.THETA_DIMS, base=self.BASE)
        q, k, dtheta, dphi = self._draws(15)
        shared = relative_logit(q[0], k[0], (dtheta, dphi), config)  # broadcast: stride 0
        repeated = relative_logit(q[0], np.repeat(k[:1], len(k), axis=0), (dtheta, dphi), config)
        np.testing.assert_array_equal(shared, repeated)

    def test_broadcasts_over_batch_shape(self):
        config = RotaryConfig(dim=8)
        rng = np.random.default_rng(14)
        q = rng.standard_normal(8)
        k = rng.standard_normal((3, 1, 8))
        dtheta = rng.uniform(-1.0, 1.0, (3, 5))
        got = relative_logit(q, k, (dtheta, 0.25), config)
        assert got.shape == (3, 5)
        for a in range(3):
            for b in range(5):
                assert got[a, b] == pytest.approx(
                    relative_logit(q, k[a, 0], (dtheta[a, b], 0.25), config), abs=1e-15
                )

    def test_last_axis_must_be_dim(self):
        with pytest.raises(ShapeError):
            relative_logit(np.zeros((4, 6)), np.zeros(8), (0.0, 0.0), RotaryConfig(dim=8))
