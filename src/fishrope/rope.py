"""Rotary position machinery over lens angular coordinates.

A feature vector of even dimension d is split into a theta-subspace and
a phi-subspace.  Within a subspace, consecutive dimension pairs
(2i, 2i+1) form rotation planes; plane i is rotated by angle * freqs[i]
where the frequency schedule is

    freqs[i] = base ** (-2 * i / subspace_dims),   i = 0 .. subspace_dims/2 - 1

so freqs[0] = 1 and frequencies decay geometrically.  Each subspace gets
its own schedule over its own dimension count, which keeps freqs[0] = 1
under any split.

`_plane_schedules` computes that schedule, and nothing else does: for n
configs of one dim, each plane's frequency (theta planes first) and the
position column it reads.  A RotaryConfig caches its row as
`plane_freqs` and `plane_axis`, and `plane_angles` forms
positions[:, plane_axis] * plane_freqs; `sinusoidal_pe_batch` is sin
and cos of the default config's angles.  `rotate_planes`, the one
rotation kernel, turns each row's dim/2 planes by that row's own angles,
ROTARY_TILE angles at a time, so rows of one dim under different configs
rotate in one call; `apply_rotary_batch` hands it all its rows' angles
at once, and the result equals a per-subspace loop's bit for bit.

Because every rotation is orthogonal, inner products of rotated vectors
depend only on coordinate differences:

    <rot(q, m), rot(k, n)> = <q, rot(k, n - m)>

which `relative_logit` evaluates directly.  Angles are consumed as raw
radians (theta in [0, theta_max], phi in [-pi, pi)); a caller that wants
another scale multiplies the coordinates.  Azimuth differences are
NOT wrapped, so a pair straddling the phi = +/-pi seam is treated as
far apart by every non-integer frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ShapeError

# Closed set of position encodings understood by the attention kernels.
ENCODINGS = ("none", "sinusoidal", "axial_rope", "fishrope")

DEFAULT_BASE = 10000.0

# Plane angles (whole rows) that `rotate_planes` rotates at a time: 64 KiB.
ROTARY_TILE = 2**13


def _plane_schedules(dim: int, theta_dims, bases) -> tuple[np.ndarray, np.ndarray]:
    """Plane frequencies and position columns (n, dim/2) of n configs of one dim.

    Row i is the schedule of RotaryConfig(dim, theta_dims[i], bases[i]):
    its theta planes, then its phi planes, each subspace on its own
    geometric schedule.  axis[i, p] is the position column (0 theta,
    1 phi) that plane p of config i reads.
    """
    planes = np.arange(dim // 2)
    half = np.asarray(theta_dims)[:, None] // 2
    axis = (planes >= half).astype(int)
    index = planes - half * axis
    sub_dims = np.where(axis, dim - 2 * half, 2 * half)
    return np.asarray(bases, dtype=np.float64)[:, None] ** (-2.0 * index / sub_dims), axis


@dataclass(frozen=True)
class RotaryConfig:
    """Dimension split and frequency base for angular rotary embeddings.

    dim: total embedding dimension (even).
    theta_dims: dimensions allocated to the theta-subspace (even,
        0 <= theta_dims <= dim); defaults to an equal dim/2 split.
        theta_dims = dim gives the theta-only variant.
    base: frequency base shared by both subspace schedules.
    """

    dim: int
    theta_dims: int | None = None
    base: float = DEFAULT_BASE

    def __post_init__(self) -> None:
        default_split = self.theta_dims is None
        if default_split:
            object.__setattr__(self, "theta_dims", self.dim // 2)
        if self.dim < 2 or self.dim % 2 != 0:
            raise ConfigError(f"embedding dim must be even and >= 2, got {self.dim}")
        if default_split and self.dim % 4 != 0:
            raise ConfigError(
                f"the default equal theta/phi split needs a dim divisible by 4, got {self.dim}"
            )
        if not (0 <= self.theta_dims <= self.dim) or self.theta_dims % 2 != 0:
            raise ConfigError(
                f"theta_dims must be even and within [0, dim], got {self.theta_dims}"
            )
        if (self.dim - self.theta_dims) % 2 != 0:
            raise ConfigError("phi subspace dimension must be even")
        if not self.base > 1.0:
            raise ConfigError(f"frequency base must exceed 1, got {self.base}")

    @property
    def phi_dims(self) -> int:
        return self.dim - self.theta_dims

    @cached_property
    def _schedule(self) -> tuple[np.ndarray, np.ndarray]:
        schedule = _plane_schedules(self.dim, [self.theta_dims], [self.base])
        for rows in schedule:
            rows.setflags(write=False)
        return tuple(rows[0] for rows in schedule)

    @property
    def plane_freqs(self) -> np.ndarray:
        """Frequency of each of the dim/2 planes: the theta schedule, then the phi one."""
        return self._schedule[0]

    @property
    def plane_axis(self) -> np.ndarray:
        """Position column (0 theta, 1 phi) that rotates each plane."""
        return self._schedule[1]

    def plane_angles(self, positions: np.ndarray) -> np.ndarray:
        """Angles (..., dim/2) of every plane at positions (..., 2), as a new array."""
        angles = positions[..., self.plane_axis]
        angles *= self.plane_freqs
        return angles


def rotate_planes(x: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """x (N, 2P) with each row's consecutive pairs rotated, as a new array.

    The one rotation kernel.  Pair p of row n turns by angles[n, p]
    (angles is (N, P)), so every row can carry its own config.  It works
    ROTARY_TILE angles at a time and overwrites angles with their sines;
    the tile's cosines are the one other array it holds beside the result.
    """
    out = np.empty_like(x)
    step = max(1, ROTARY_TILE // angles.shape[1])
    for start in range(0, len(x), step):
        rows = slice(start, start + step)
        even = x[rows, 0::2]
        odd = x[rows, 1::2]
        c = np.cos(angles[rows])
        s = np.sin(angles[rows], out=angles[rows])
        out_even = out[rows, 0::2]
        out_odd = out[rows, 1::2]
        np.multiply(even, c, out=out_even)
        np.multiply(odd, c, out=out_odd)
        np.subtract(out_even, np.multiply(odd, s, out=c), out=out_even)
        np.add(np.multiply(even, s, out=s), out_odd, out=out_odd)
    return out


def apply_rotary_batch(x, positions, config: RotaryConfig) -> np.ndarray:
    """Rotate rows of x (N, dim) by positions (N, 2) under one config.

    positions carry (theta, phi) pairs, or normalized pixel pairs for
    the Cartesian baseline; rows rotate independently.  The first
    config.theta_dims entries rotate through the theta schedule, the
    rest through the phi schedule.  The (N, dim/2) plane angles are
    formed at once and rotated by `rotate_planes`.  The attention
    kernels all go through here; a single vector is a one-row array.
    """
    x = np.asarray(x, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.dim:
        raise ShapeError(f"features must have shape (N, {config.dim}), got {x.shape}")
    if positions.shape != (x.shape[0], 2):
        raise ShapeError(
            f"positions must have shape ({x.shape[0]}, 2), got {positions.shape}"
        )
    return rotate_planes(x, config.plane_angles(positions))


def rotated_logit(q: np.ndarray, k: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """<q, rot(k, angles)> over the last axis, dims added left to right.

    k is (..., dim) and angles (..., dim/2) plane angles for each of its
    rows (overwritten, as in `rotate_planes`); q broadcasts against k.
    np.sum's order would follow the memory layout of the rotated k, so a
    shared k and a batched one would round apart; the fixed order makes
    each logit's bits independent of the shapes of the call.
    """
    dim = k.shape[-1]
    flat = k.reshape(-1, dim)
    rotated = rotate_planes(flat, angles.reshape(-1, dim // 2))
    products = q * rotated.reshape(k.shape)
    acc = products[..., 0].copy()
    for i in range(1, dim):
        acc += products[..., i]
    return acc


def relative_logit(q, k, delta, config: RotaryConfig):
    """Attention logit from coordinate differences alone.

    Computes <q, rot(k, delta)> for delta = (dtheta, dphi) = coord_k -
    coord_q, which equals the inner product of the absolutely rotated q
    and k.  q and k have shape (..., dim); dtheta and dphi are scalars or
    arrays, and all four broadcast over the leading batch shape.  Returns
    an array of that shape, or a float when the batch shape is empty,
    from `rotated_logit`.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape[-1:] != (config.dim,) or k.shape[-1:] != (config.dim,):
        raise ShapeError(
            f"q and k must have shape (..., {config.dim}), got {q.shape} and {k.shape}"
        )
    dtheta, dphi = (np.asarray(d, dtype=np.float64) for d in delta)
    batch = np.broadcast_shapes(q.shape[:-1], k.shape[:-1], dtheta.shape, dphi.shape)
    positions = np.empty(batch + (2,))
    positions[..., 0] = dtheta
    positions[..., 1] = dphi
    k = np.broadcast_to(k, batch + (config.dim,))
    return rotated_logit(q, k, config.plane_angles(positions))[()]


def sinusoidal_pe_batch(positions, dim: int) -> np.ndarray:
    """Additive two-axis sinusoidal encoding of (theta, phi) or pixel rows (N, 2).

    Interleaved (sin, cos) of RotaryConfig(dim=dim).plane_angles: each
    axis owns dim/2 entries, its planes' geometric schedule of base
    DEFAULT_BASE, so position 0 encodes to the alternating pattern
    (0, 1, 0, 1, ...).  dim must be divisible by 4.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ShapeError(f"positions must have shape (N, 2), got {positions.shape}")
    if dim < 4 or dim % 4 != 0:
        raise ConfigError(f"sinusoidal dim must be divisible by 4, got {dim}")
    angles = RotaryConfig(dim=dim).plane_angles(positions)
    out = np.empty((positions.shape[0], dim), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out
