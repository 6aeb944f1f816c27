"""Exact integer kernel: the ordered product of stabilizer-tableau rows.

One vectorized numpy path in exact int64 arithmetic on the rows a product
uses, whatever integer type the tableau stores; tests/helpers.py keeps
the plain loop it replaced as the reference it must match bit for bit.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel path; numpy is the only one."""
    return "numpy"


def rowprod(xs, zs, phases, xpow, zpow, d: int):
    """Ordered product of tableau rows with full phase tracking.

    Computes prod_i row[n+i]**xpow[i] (ascending i), then
    prod_i row[i]**zpow[i] (ascending i). Rows are given by their exponent
    blocks xs, zs of shape (2n, n) and tau exponents phases of shape (2n,);
    a power <= 0 contributes nothing. Returns (x, z, phase) of the product;
    x, z are mod d and phase is mod 2d.

    xpow and zpow may also be stacks of shape (m, n): the m products are
    then taken in one pass over the rows any of them uses, and x, z come
    back with shape (m, n) and phase as an int64 array of shape (m,).

    Moving the k-th copy of a row past the accumulated product costs
    tau**(2 acc_z . x), so the phase is sum k ph + 2 sum k (prefix kz) . x
    over the rows in order, plus k(k-1) z . x for a row's own repeats.
    """
    xs, zs, phases = np.asarray(xs), np.asarray(zs), np.asarray(phases)
    n = xs.shape[1]
    powers = np.concatenate([np.asarray(xpow, dtype=np.int64),
                             np.asarray(zpow, dtype=np.int64)], axis=-1)
    single = powers.ndim == 1
    powers = np.maximum(powers.reshape(-1, 2 * n), 0)
    used = np.flatnonzero(powers.any(axis=0))
    k = powers[:, used]  # (m, u)
    rows = (used + n) % (2 * n)  # xpow[i] -> row n+i, zpow[i] -> row i
    # gather the rows used, then widen: the tableau may be stored narrower
    x = np.asarray(xs[rows], dtype=np.int64)
    z = np.asarray(zs[rows], dtype=np.int64)
    ph_rows = np.asarray(phases[rows], dtype=np.int64)
    kz = k[:, :, None] * z
    before = np.cumsum(kz, axis=1) - kz  # Z exponents of the rows to the left
    cross = np.einsum("mij,ij->mi", before, x)
    own = np.einsum("ij,ij->i", z, x)
    ph = (k @ ph_rows + 2 * (k * cross).sum(axis=1)
          + (k * (k - 1)) @ own) % (2 * d)
    px, pz = (k @ x) % d, (k @ z) % d
    if single:
        return px[0], pz[0], int(ph[0])
    return px, pz, ph
