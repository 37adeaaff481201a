"""Reference attention kernels with pluggable position encoding.

Single-layer scaled dot-product attention over token grids, in the two
configurations the angular machinery feeds: self-attention over image
patch tokens and cross-attention from BEV cell queries to image patch
keys.  Position enters through one of four encodings:

    none        no positional signal
    sinusoidal  additive two-axis sin/cos added to features before projection
    axial_rope  rotary over the coordinates given; the experiments feed
                it pixels / (W, H)
    fishrope    rotary over lens angular coordinates (theta, phi)

The two rotary encodings are one kernel fed different coords, through
RotaryConfig(dim=head_dim).  The kernels are single-head: features,
projections and rotations all have head_dim entries, and logits are
inner products scaled by 1/sqrt(head_dim).  Every kernel over a query
and a key grid refuses grids from different cameras.  Products go
through `_products`, whose docstring holds the gate and tile rules: the
projections, tile value products and Jacobian products through
`_products.matmul`, the logits through `_products.for_each_tile`.
_fill_logits (and so logit_matrix) and cross_attention scale each
tile, and logit_argmax does not, because a positive scale cannot
reorder a row.  Softmax rows are max-subtracted and exclude masked keys
entirely (equivalent to -inf logits), so weights over valid keys always
sum to 1.  cross_attention (and so self_attention) and logit_argmax run
the exact softmax, the value product or the row argmax tile by tile in
one buffer per worker, so memory stays bounded by about
_products.LOGIT_TILE logits instead of growing with N_q x N_k.  Only an
(N_q, N_k) array that its caller asked for holds all the logits at
once: _fill_logits writes each tile straight into its rows of the
caller's array, with no buffer, logit_matrix passes it a new one, and
the retrieval bench one array that it reuses for every product.
self_attention_jacobian, whose result is larger still, forms its own
dense logits; every other consumer goes through the tiles, so dense and
streamed results are bit-identical.

Everything here is a pure function of immutable inputs; no state is
shared between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _products, rope
from .angular import BevGrid, PatchGrid
from .camera import _readonly
from .errors import ConfigError, EmptyAttentionError, ShapeError
from .rope import ENCODINGS, RotaryConfig

_ROTARY = ("axial_rope", "fishrope")


@dataclass(frozen=True)
class TokenGrid:
    """Feature vectors bound to positions.

    coords holds (theta, phi) angular pairs, or pixels / (W, H) for the
    Cartesian encodings; mask flags usable tokens.  Masked-in tokens
    must carry finite coords.  camera_token identifies the camera the
    coords were derived from; the kernels refuse to mix grids from
    different cameras.
    """

    features: np.ndarray
    coords: np.ndarray
    mask: np.ndarray
    camera_token: str | None = None

    def __post_init__(self) -> None:
        features = _readonly(self.features)
        coords = _readonly(self.coords)
        mask = _readonly(self.mask, dtype=bool)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "mask", mask)
        n = features.shape[0] if features.ndim == 2 else -1
        if features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {features.shape}")
        if coords.shape != (n, 2):
            raise ShapeError(f"coords must have shape ({n}, 2), got {coords.shape}")
        if mask.shape != (n,):
            raise ShapeError(f"mask must have shape ({n},), got {mask.shape}")
        if np.any(~np.isfinite(coords[mask])):
            raise ConfigError("masked-in tokens carry non-finite coords")

    @property
    def n_tokens(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _grid_tokens(features, coords, mask, camera_token) -> TokenGrid:
    """Row-major (theta, phi) tokens of a grid; masked-out entries get zeroed coords."""
    mask = mask.reshape(-1)
    coords = np.where(mask[:, None], coords.reshape(-1, 2), 0.0)
    return TokenGrid(features=features, coords=coords, mask=mask, camera_token=camera_token)


def tokens_from_patches(grid: PatchGrid, features: np.ndarray) -> TokenGrid:
    """Patch-center (theta, phi) tokens, row-major, one feature row per patch."""
    return _grid_tokens(features, grid.coords, grid.valid_mask, grid.camera_token)


def tokens_from_bev(grid: BevGrid, features: np.ndarray) -> TokenGrid:
    """BEV-cell (theta, phi) query tokens, row-major, one feature row per cell."""
    return _grid_tokens(features, grid.cell_angles, grid.visibility_mask, grid.camera_token)


@dataclass(frozen=True)
class ProjectionWeights:
    """Query/key/value projections of the one head, each (head_dim, head_dim)."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray

    def __post_init__(self) -> None:
        for name in ("wq", "wk", "wv"):
            mat = _readonly(getattr(self, name))
            object.__setattr__(self, name, mat)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ShapeError(f"{name} must be square, got shape {mat.shape}")
        if not (self.wq.shape == self.wk.shape == self.wv.shape):
            raise ShapeError("projection matrices must share one shape")

    @property
    def dim(self) -> int:
        return self.wq.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "ProjectionWeights":
        eye = np.eye(dim)
        return cls(wq=eye, wk=eye, wv=eye)

    @classmethod
    def random(cls, dim: int, seed: int = 0) -> "ProjectionWeights":
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(dim)
        return cls(*(rng.standard_normal((dim, dim)) * scale for _ in range(3)))


@dataclass(frozen=True)
class AttentionConfig:
    """One attention head of head_dim and its position encoding.

    Features, projections and rotations all have head_dim entries; logits
    are scaled by 1/sqrt(head_dim).  The rotary encodings rotate through
    `rotary`, RotaryConfig(dim=head_dim).
    """

    head_dim: int = 8
    encoding: str = "none"

    def __post_init__(self) -> None:
        if self.encoding not in ENCODINGS:
            raise ConfigError(
                f"unknown encoding {self.encoding!r}; expected one of {ENCODINGS}"
            )
        if self.head_dim < 1:
            raise ConfigError("head_dim must be positive")
        if self.encoding in _ROTARY:
            _ = self.rotary  # refuses an odd head_dim here rather than at first use
        if self.encoding == "sinusoidal" and self.head_dim % 4 != 0:
            raise ConfigError("sinusoidal encoding requires head_dim divisible by 4")

    @cached_property
    def rotary(self) -> RotaryConfig:
        return RotaryConfig(dim=self.head_dim)

    @property
    def scale(self) -> float:
        return 1.0 / np.sqrt(self.head_dim)


def _embed(grid: TokenGrid, config: AttentionConfig) -> np.ndarray:
    """Token features with additive PE applied where the encoding calls for it."""
    x = grid.features
    if x.shape[1] != config.head_dim:
        raise ShapeError(
            f"feature dim {x.shape[1]} does not match head_dim {config.head_dim}"
        )
    if config.encoding == "sinusoidal":
        pe = rope.sinusoidal_pe_batch(grid.coords, config.head_dim)
        x = x + np.where(grid.mask[:, None], pe, 0.0)
    return x


def _projected_qk(
    queries: TokenGrid,
    keys: TokenGrid,
    weights: ProjectionWeights,
    config: AttentionConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Encoded, projected and rotated (q, k), each (N, head_dim).

    Every kernel over two grids starts here, so each refuses grids from
    different cameras, whose coordinates share no angular space.
    """
    if (
        queries.camera_token is not None
        and keys.camera_token is not None
        and queries.camera_token != keys.camera_token
    ):
        raise ConfigError("query and key grids come from different cameras")
    if weights.dim != config.head_dim:
        raise ShapeError(
            f"weights dim {weights.dim} does not match head_dim {config.head_dim}"
        )
    return _projected(queries, weights.wq, config), _projected(keys, weights.wk, config)


def _projected(grid: TokenGrid, weight: np.ndarray, config: AttentionConfig) -> np.ndarray:
    """One side's encoded, projected and rotated vectors, (N, head_dim).

    A rotary logit turns each token by its own coords only, so a side's
    vectors do not depend on the grid they meet: a caller that scores
    several query grids against one key grid can project the keys once.
    """
    x = _products.matmul(_embed(grid, config), weight.T)
    if config.encoding in _ROTARY:
        x = rope.apply_rotary_batch(x, grid.coords, config.rotary)
    return x


def logit_matrix(
    queries: TokenGrid,
    keys: TokenGrid,
    weights: ProjectionWeights,
    config: AttentionConfig,
) -> np.ndarray:
    """Raw pre-softmax logits, (N_q, N_k).

    Each tile's products land in their rows of the result and are scaled
    there, so the result is the only (N_q, N_k) allocation.  No masking
    is applied here; this is the test surface for the relative-position
    properties.
    """
    q, k = _projected_qk(queries, keys, weights, config)
    return _fill_logits(q, k, config.scale, np.empty((len(q), len(k))))


def _fill_logits(q: np.ndarray, k: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """Write the logits scale * q @ k^T into out, an (N_q, N_k) C-contiguous array.

    Each tile's products land in their rows of out and are scaled there,
    so a caller that reuses out across products allocates nothing here
    but the key copy.  Returns out.
    """
    _products.for_each_tile(q, k, lambda rows, t: np.multiply(t, scale, out=t), out=out)
    return out


def logit_argmax(
    queries: TokenGrid,
    keys: TokenGrid,
    weights: ProjectionWeights,
    config: AttentionConfig,
) -> np.ndarray:
    """Row argmax of the logits, (N_q,).

    Ranks the unscaled products q.k, first-occurrence ties included, and
    streams over query tiles, so memory stays bounded by about
    _products.LOGIT_TILE logits whatever N_q is.  It equals
    np.argmax(logit_matrix(...), axis=-1) bit for bit when 1/sqrt(head_dim)
    is a power of two (head_dim 4, 16, 64, 256; subnormal logits aside).
    Otherwise it can differ only where a row's top products round to one
    scaled logit, and there it picks the larger product.
    """
    q, k = _projected_qk(queries, keys, weights, config)
    chosen = np.empty(len(q), dtype=np.intp)
    _products.for_each_tile(q, k, lambda rows, t: t.argmax(-1, out=chosen[rows]))
    return chosen


def _masked_softmax(logits: np.ndarray, key_mask: np.ndarray) -> np.ndarray:
    """Row softmax over valid keys only; max-subtracted for stability.

    logits has shape (N_q, N_k) and is left untouched.  Rows are
    assumed to have at least one valid key; masked keys get exactly zero
    weight.  After the masked copy every step works in place.
    """
    expd = np.where(key_mask, logits, -np.inf)
    expd -= np.max(expd, axis=-1, keepdims=True)
    np.exp(expd, out=expd)
    expd[:, ~key_mask] = 0.0
    expd /= np.sum(expd, axis=-1, keepdims=True)
    return expd


def self_attention(
    tokens: TokenGrid, weights: ProjectionWeights, config: AttentionConfig
) -> np.ndarray:
    """Single-layer self-attention over a token grid.

    Queries and keys carry the configured position encoding; masked
    tokens neither attend nor get attended to, and their output rows are
    zero.  Raises EmptyAttentionError when no token is valid.
    """
    if not np.any(tokens.mask):
        raise EmptyAttentionError("self-attention over a fully masked token grid")
    return cross_attention(tokens, tokens, weights, config)[0]


def cross_attention(
    queries: TokenGrid,
    keys: TokenGrid,
    weights: ProjectionWeights,
    config: AttentionConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-attention from query tokens to key tokens, streamed over query tiles.

    Both grids must come from the same camera so their coordinates share
    one angular space.  Returns (outputs, flags); a query that is masked
    out, or that faces no valid key, yields a zero row and a False flag.
    Softmax and the value product run per tile of whole query rows, so
    memory stays bounded by about _products.LOGIT_TILE logits (at least
    one row of N_k per worker).
    """
    q, k = _projected_qk(queries, keys, weights, config)
    flags = queries.mask & bool(np.any(keys.mask))
    if not np.any(flags):
        return np.zeros((queries.n_tokens, config.head_dim)), flags
    v = _products.matmul(_embed(keys, config), weights.wv.T)
    out = np.empty((queries.n_tokens, config.head_dim))

    def attend(rows: slice, tile: np.ndarray) -> None:
        tile *= config.scale
        attn = _masked_softmax(tile, keys.mask)
        out[rows] = _products.matmul(attn, v)

    _products.for_each_tile(q, k, attend)
    return np.where(flags[:, None], out, 0.0), flags


def self_attention_jacobian(
    tokens: TokenGrid, weights: ProjectionWeights, config: AttentionConfig
) -> np.ndarray:
    """Analytic Jacobian of self_attention outputs w.r.t. input features.

    Chain rule through the (linear) position rotation and the softmax.
    Returns shape (N*D, N*D) with the (i, m) block
    holding d out_i / d x_m.
    """
    if not np.any(tokens.mask):
        raise EmptyAttentionError("self-attention over a fully masked token grid")
    n, d = tokens.n_tokens, config.head_dim
    valid = np.flatnonzero(tokens.mask)
    x = _embed(tokens, config)[valid]
    if config.encoding in _ROTARY:
        positions = np.repeat(tokens.coords[valid], d, axis=0)
        eye = np.tile(np.eye(d), (len(valid), 1))
        # Row c of each (d, d) block is A_i e_c, so the blocks are A_i transposed.
        rot = rope.apply_rotary_batch(eye, positions, config.rotary)
        rot = rot.reshape(-1, d, d).swapaxes(1, 2)
    else:
        rot = np.broadcast_to(np.eye(d), (len(valid), d, d))
    bq = _products.matmul(rot, weights.wq)  # bq[i] = A_i Wq
    bk = _products.matmul(rot, weights.wk)
    q = np.einsum("nij,nj->ni", bq, x)
    k = np.einsum("nij,nj->ni", bk, x)
    v = _products.matmul(x, weights.wv.T)
    tau = config.scale
    attn = _masked_softmax(tau * _products.matmul(q, k.T), np.ones(len(valid), bool))
    out = _products.matmul(attn, v)

    # d logit_ij / d x_m = [m == i] gq[i, j] + [m == j] gk[i, j], and
    # d a_ij / d x_m = a_ij * (d logit_ij / d x_m - sum_l a_il d logit_il / d x_m),
    # so block (i, m) = [m == i] diag[i] + a_im (v_m - out_i) (x) gk[i, m] + a_im Wv.
    gq = tau * np.einsum("jc,icd->ijd", k, bq)
    gk = tau * np.einsum("ic,jcd->ijd", q, bk)
    diag = np.einsum("ij,jc,ijd->icd", attn, v, gq) - np.einsum(
        "ic,id->icd", out, np.einsum("ij,ijd->id", attn, gq)
    )
    blocks = np.einsum("im,imc,imd->icmd", attn, v[None] - out[:, None], gk)
    blocks += np.einsum("im,cd->icmd", attn, weights.wv)
    blocks[np.arange(len(valid)), :, np.arange(len(valid)), :] += diag
    jac = np.zeros((n, d, n, d))
    jac[np.ix_(valid, np.arange(d), valid, np.arange(d))] = blocks
    return jac.reshape(n * d, n * d)
