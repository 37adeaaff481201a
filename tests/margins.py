"""Rounding margins of argmax picks and target ranks over q @ k^T.

An inner product of K float64 terms, summed in any order and with or
without fused multiply-adds, lies within gamma_K |q|.|k| of its exact
value, gamma_K = K u / (1 - K u) with u = 2**-53 (Higham, "Accuracy and
Stability of Numerical Algorithms", 2nd ed., section 3.1), and
|q|.|k| <= ||q|| ||k||.  Two summation orders, such as two tile shapes or
two BLAS kernels, can therefore order keys a and b of one query apart
only where, in either order's products, the two lie within
2 gamma_K ||q|| (||k_a|| + ||k_b||) of each other.  A row whose top key
leads every other key by more than that has a pick no order can move.
Where every entry of q and k is an integer and K max|q| max|k| is below
2**53, every partial sum is an exact integer, so any order gives the
same products and even exact ties are safe.

Like tests/oracles.py this shares no code with the package.
"""

import numpy as np

U = 2.0**-53
ROWS = 512  # query rows per product block, 30 MiB of float64 at 7472 keys


def gamma(k: int) -> float:
    return k * U / (1.0 - k * U)


def exact_products(q: np.ndarray, k: np.ndarray) -> bool:
    """Every product q_i.k_j is exact, whatever the summation order."""
    integral = np.all(q == np.round(q)) and np.all(k == np.round(k))
    return bool(integral) and q.shape[1] * np.abs(q).max() * np.abs(k).max() < 2.0**53


def unsafe_rows(q: np.ndarray, k: np.ndarray, targets=None) -> np.ndarray:
    """Rows whose pick some summation order of q @ k^T could move.

    Without targets the pick is the row's argmax, and a row is unsafe
    where its top key does not lead the runner-up by the margin of the
    module docstring (an exact tie never does).  With targets, one key
    per row, a row is unsafe where any other key lies within that margin
    of the target, so the target's rank could move.
    """
    if exact_products(q, k):
        return np.empty(0, dtype=np.intp)
    g2 = 2.0 * gamma(q.shape[1])
    k_norm = np.linalg.norm(k, axis=1)
    k_max = k_norm.max()
    unsafe = []
    for start in range(0, len(q), ROWS):
        block = slice(start, start + ROWS)
        products = q[block] @ k.T
        at = np.arange(len(products))
        if targets is None:
            lead = np.argmax(products, axis=1)
            top = products[at, lead].copy()
            products[at, lead] = -np.inf
            gap = top - products.max(axis=1)
        else:
            lead = targets[block]
            gap = np.abs(products - products[at, lead][:, None])
            gap[at, lead] = np.inf
            gap = gap.min(axis=1)
        bound = g2 * np.linalg.norm(q[block], axis=1) * (k_norm[lead] + k_max)
        unsafe.append(start + np.flatnonzero(~(gap > bound)))
    return np.concatenate(unsafe)
