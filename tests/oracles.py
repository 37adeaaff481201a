"""Independent oracles for the test suite.

Deliberately naive implementations that share no code path with the
package: plain power-sum polynomial evaluation, bisection inversion,
dense rotation matrices assembled entry by entry, the per-row loop
forms of the retrieval bench's tie-breaking argmax and ranking, and
attention over the whole (heads, N_q, N_k) logit matrix at once.  The
rotary selfcheck oracles are the exception: they redraw each check's
samples and evaluate them through the public rope API, one RotaryConfig
at a time, and import nothing from `experiments`, whose whole-array
checks they restate.
"""

import math

import numpy as np

from fishrope.rope import RotaryConfig, apply_rotary_batch, relative_logit

# Rows drawn under each config of the rotary selfchecks.
CONFIG_DRAWS = 50


def poly_radius(coeffs, theta: float) -> float:
    """r(theta) as a direct power sum (no Horner, no numpy)."""
    return sum(k * theta ** (2 * j + 1) for j, k in enumerate(coeffs))


def bisect_theta(coeffs, theta_max: float, r: float, tol: float = 1e-12) -> float:
    """Invert the monotone radial polynomial by bisection on [0, theta_max]."""
    lo, hi = 0.0, theta_max
    if r <= 0.0:
        return 0.0
    if r >= poly_radius(coeffs, theta_max):
        return theta_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if poly_radius(coeffs, mid) < r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dense_rotation(dim: int, theta_dims: int, base: float, theta: float, phi: float,
                   angle_scale: float = 1.0) -> np.ndarray:
    """Explicit block-diagonal rotation matrix, assembled independently."""
    mat = np.eye(dim)
    specs = []
    if theta_dims > 0:
        specs.append((0, theta_dims, theta))
    if dim - theta_dims > 0:
        specs.append((theta_dims, dim - theta_dims, phi))
    for offset, size, angle in specs:
        for i in range(size // 2):
            freq = base ** (-2.0 * i / size)
            ang = angle_scale * angle * freq
            c, s = math.cos(ang), math.sin(ang)
            j = offset + 2 * i
            mat[j, j] = c
            mat[j, j + 1] = -s
            mat[j + 1, j] = s
            mat[j + 1, j + 1] = c
    return mat


def argmax_with_random_ties_loop(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-row argmax, exact ties broken by one rng.integers draw per tied row."""
    out = np.empty(rows.shape[0], dtype=np.int64)
    peak = rows.max(axis=1)
    for i in range(rows.shape[0]):
        candidates = np.flatnonzero(rows[i] == peak[i])
        out[i] = candidates[rng.integers(len(candidates))] if len(candidates) > 1 else candidates[0]
    return out


def ranks_of_loop(rows: np.ndarray, targets: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """1-based rank of each target after a full lexsort by (-logit, perm)."""
    ranks = np.empty(rows.shape[0], dtype=np.int64)
    for i in range(rows.shape[0]):
        order = np.lexsort((perm, -rows[i]))
        ranks[i] = int(np.flatnonzero(order == targets[i])[0]) + 1
    return ranks


def dense_cross_attention(logits: np.ndarray, key_mask: np.ndarray, values: np.ndarray,
                          query_flags: np.ndarray) -> np.ndarray:
    """Masked softmax and value product over all logits at once.

    logits is (heads, N_q, N_k), values (heads, N_k, head_dim); returns
    (N_q, heads * head_dim) with the rows of unflagged queries zeroed.
    """
    neg = np.where(key_mask[None, None, :], logits, -np.inf)
    peak = np.max(neg, axis=-1, keepdims=True)
    expd = np.exp(neg - peak)
    expd = np.where(key_mask[None, None, :], expd, 0.0)
    attn = expd / np.sum(expd, axis=-1, keepdims=True)
    out_heads = np.einsum("hqk,hkd->hqd", attn, values)
    heads, n_q, head_dim = out_heads.shape
    out = np.moveaxis(out_heads, 0, 1).reshape(n_q, heads * head_dim)
    return np.where(query_flags[:, None], out, 0.0)


def two_pass_rotary(x: np.ndarray, positions: np.ndarray, dim: int, theta_dims: int,
                    base: float) -> np.ndarray:
    """Rotate rows of x (N, dim) one subspace at a time, theta then phi.

    Each non-empty subspace builds its own (N, planes) angle array from
    its own geometric schedule and rotates its columns' consecutive pairs.
    """
    out = np.empty_like(x)
    for cols, size, angle in ((slice(0, theta_dims), theta_dims, positions[:, 0]),
                              (slice(theta_dims, dim), dim - theta_dims, positions[:, 1])):
        if size == 0:
            continue
        freqs = base ** (-2.0 * np.arange(size // 2, dtype=np.float64) / size)
        ang = angle[:, None] * freqs[None, :]
        c, s = np.cos(ang), np.sin(ang)
        sub = x[:, cols]
        even, odd = sub[:, 0::2], sub[:, 1::2]
        rotated = np.empty_like(sub)
        rotated[:, 0::2] = even * c - odd * s
        rotated[:, 1::2] = even * s + odd * c
        out[:, cols] = rotated
    return out


def _coords(rng: np.random.Generator, n: int) -> np.ndarray:
    """n (theta, phi) rows: theta in [0, 2), then phi in [-pi, pi)."""
    theta = rng.uniform(0.0, 2.0, n)
    return np.stack([theta, rng.uniform(-math.pi, math.pi, n)], axis=-1)


def _configs_per_dim(rng: np.random.Generator, n_configs: int, dims):
    """(dim, number of configs) per dim, in the order of dims, skipping unpicked dims."""
    picks = rng.integers(len(dims), size=n_configs)
    return [(dim, int(np.sum(picks == i))) for i, dim in enumerate(dims) if np.any(picks == i)]


def _blocks(n_configs: int):
    """The rows of each of n_configs configs."""
    return [slice(c * CONFIG_DRAWS, (c + 1) * CONFIG_DRAWS) for c in range(n_configs)]


def norm_preservation_loop(seed: int) -> float:
    """Largest norm change of `check_norm_preservation`'s draws."""
    rng = np.random.default_rng([seed, 4])
    worst = 0.0
    for dim, n in _configs_per_dim(rng, 40, (4, 8, 16, 32)):
        x = rng.standard_normal((n * CONFIG_DRAWS, dim))
        coords = _coords(rng, n * CONFIG_DRAWS)
        for rows in _blocks(n):
            y = apply_rotary_batch(x[rows], coords[rows], RotaryConfig(dim=dim))
            gap = np.abs(np.linalg.norm(y, axis=1) - np.linalg.norm(x[rows], axis=1))
            worst = max(worst, float(np.max(gap)))
    return worst


def relative_identity_loop(seed: int) -> float:
    """Largest absolute-minus-relative logit gap of `check_relative_identity`'s draws."""
    rng = np.random.default_rng([seed, 5])
    worst = 0.0
    for dim, n in _configs_per_dim(rng, 200, (4, 8, 16)):
        theta_dims = 2 * rng.integers(dim // 2 + 1, size=n)
        bases = rng.uniform(2.0, 10000.0, n)
        q = rng.standard_normal((n * CONFIG_DRAWS, dim))
        k = rng.standard_normal((n * CONFIG_DRAWS, dim))
        cm = _coords(rng, n * CONFIG_DRAWS)
        cn = _coords(rng, n * CONFIG_DRAWS)
        for c, rows in enumerate(_blocks(n)):
            config = RotaryConfig(dim, int(theta_dims[c]), float(bases[c]))
            absolute = np.sum(
                apply_rotary_batch(q[rows], cm[rows], config)
                * apply_rotary_batch(k[rows], cn[rows], config),
                axis=1,
            )
            delta = (cn[rows, 0] - cm[rows, 0], cn[rows, 1] - cm[rows, 1])
            relative = relative_logit(q[rows], k[rows], delta, config)
            worst = max(worst, float(np.max(np.abs(absolute - relative))))
    return worst


def rotation_composition_loop(seed: int) -> float:
    """Largest two-step-minus-one-step gap of `check_rotation_composition`'s draws."""
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    for dim, n in _configs_per_dim(rng, 40, (2, 4, 8, 16)):
        bases = rng.uniform(2.0, 10000.0, n)
        x = rng.standard_normal((n * CONFIG_DRAWS, dim))
        a = rng.uniform(-6.0, 6.0, n * CONFIG_DRAWS)
        b = rng.uniform(-6.0, 6.0, n * CONFIG_DRAWS)
        for c, rows in enumerate(_blocks(n)):
            config = RotaryConfig(dim, dim, float(bases[c]))

            def rotate(v, angle):
                positions = np.stack([angle, np.zeros(CONFIG_DRAWS)], axis=-1)
                return apply_rotary_batch(v, positions, config)

            via = rotate(rotate(x[rows], a[rows]), b[rows] - a[rows])
            worst = max(worst, float(np.max(np.abs(via - rotate(x[rows], b[rows])))))
    return worst


def self_logit_margin_loop(seed: int) -> float:
    """Smallest zero-minus-shifted logit margin of `check_self_logit_max`'s draws."""
    rng = np.random.default_rng([seed, 7])
    q = rng.standard_normal((200, 16))
    shifts = rng.uniform(-3.0, 3.0, (200, 50, 2))
    margin = math.inf
    for qi, shift in zip(q, shifts):
        deltas = np.concatenate([np.zeros((1, 2)), shift])
        logits = relative_logit(qi, qi, (deltas[:, 0], deltas[:, 1]), RotaryConfig(dim=16))
        margin = min(margin, float(np.min(logits[0] - logits[1:])))
    return margin
