"""Matrix products and logit tiles: every rule that decides how a product is formed.

The fixed-order gate.  A product with at most FIXED_ORDER_OUTPUTS
outputs runs as np.einsum without `optimize`, in a summation order
numpy's own code fixes, and not in BLAS: OpenBLAS 0.3.31's kernels with
FMA (SkylakeX, Haswell) and without (Sandybridge, Prescott), small-matrix
path or not, round small products apart.  Larger products, all of the
default bench's, stay in BLAS matmul, where their speed is; every product
behind a measured selfcheck value fits the bound (tests/test_experiments.py
checks both).  `_product` holds the gate, which `matmul` applies to each
product and `for_each_tile` once per call, so all its tiles take one path.

The logit tiles.  `for_each_tile` forms q @ k^T over tiles of whole
query rows, and never splits the key axis.  LOGIT_TILE logits (2 MiB of
float64, one per-core L2) is the working set of all tiles in flight:
each holds at most LOGIT_TILE // MAX_TILE_WORKERS logits (at least one
row, at most N_q), and up to MAX_TILE_WORKERS threads, the package's own
apart from any BLAS threads, stream them at once.  Where that leaves
more than one tile and head_dim is at most SMALL_GEMM_MAX_DIM, a tile is
also cut to SMALL_GEMM_MACS multiply-adds (rows x N_k x head_dim), the
size up to which OpenBLAS 0.3.31 multiplies in its small-matrix kernel
without packing either operand, unless that leaves fewer than
SMALL_GEMM_MIN_ROWS rows.  README.md's attention entry gives the timings
behind each limit.  A cut product spans at least two uncut tiles, so at
MAX_TILE_WORKERS = 2 the cut starts no thread that they would not.
Tiles are dealt round-robin to one worker per usable core, at most
MAX_TILE_WORKERS, run by `_parallel.fan_out` with the calling thread as
worker 0.  The tile shape does not depend on the worker count, so
neither does BLAS rounding, which can depend on the shape of a product,
and every tile writes only its own rows: no result depends on the
worker count or the host.  The keys are copied once, transposed and
C-contiguous, into `_aligned_empty` memory, as are the tile buffers:
16 or 48 bytes past a 64-byte line, where malloc can put it, the keys
slowed the scaled lift scene's 8-row tile matmuls by 15-20 % (OpenBLAS
0.3.31, SkylakeX).

Callers reach every name here as `_products.<name>` at use time, so
patching one attribute of this module governs every product, and a
module that imports this one runs none of it until a product is formed.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import _parallel

FIXED_ORDER_OUTPUTS = 1024
LOGIT_TILE = 1 << 18
MAX_TILE_WORKERS = 2  # also fixes the tile shape on every host
SMALL_GEMM_MACS = 10**6
SMALL_GEMM_MAX_DIM = 32
SMALL_GEMM_MIN_ROWS = 4


def _product(outputs: int, subscripts: str):
    """The function forming a product of `outputs` outputs: einsum over subscripts, or matmul."""
    if outputs <= FIXED_ORDER_OUTPUTS:
        return partial(np.einsum, subscripts)
    return np.matmul


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, where b stacks no more matrices than a, through the fixed-order gate."""
    return _product(math.prod(a.shape[:-1]) * b.shape[-1], "...ij,...jk->...ik")(a, b)


def _aligned_empty(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialised float64 array whose data starts on a 64-byte line."""
    size = shape[0] * shape[1] * 8
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + size].view(np.float64).reshape(shape)


def for_each_tile(q: np.ndarray, k: np.ndarray, fn, out: np.ndarray | None = None) -> None:
    """Call fn(rows, tile) on every query tile of the unscaled logits q @ k^T.

    With out, an (N_q, N_k) C-contiguous array, tile is out[rows] and
    holds that tile's products, so no worker buffer is allocated.
    Without it, tile is a buffer that the worker's next tile overwrites.
    Workers share only the read-only q and keys, and fn must write only
    its own rows.
    """
    n_q, n_k = len(q), len(k)
    k_t = _aligned_empty((k.shape[1], n_k))
    k_t[...] = k.T
    step = max(1, min(n_q, LOGIT_TILE // MAX_TILE_WORKERS // max(1, n_k)))
    dim = q.shape[1]
    small = SMALL_GEMM_MACS // max(1, n_k * dim)
    if step < n_q and dim <= SMALL_GEMM_MAX_DIM and small >= SMALL_GEMM_MIN_ROWS:
        step = min(step, small)
    starts = range(0, n_q, step)
    n_workers = max(1, min(_parallel.usable_cores(), MAX_TILE_WORKERS, len(starts)))
    if out is None:
        bufs = [_aligned_empty((step, n_k)) for _ in range(n_workers)]
    product = _product(n_q * n_k, "qc,ck->qk")

    def work(w: int) -> None:
        for start in starts[w::n_workers]:
            stop = min(start + step, n_q)
            rows = slice(start, stop)
            tile = bufs[w][: stop - start] if out is None else out[rows]
            fn(rows, product(q[rows], k_t, out=tile))

    _parallel.fan_out(work, n_workers)
