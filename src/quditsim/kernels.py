"""Exact integer kernel: the ordered product of stabilizer-tableau rows.

One vectorized numpy path in exact int64 arithmetic on the rows a product
uses, whatever integer type the tableau stores; tests/helpers.py keeps
the plain loop it replaced as the reference it must match bit for bit.
ordered_product multiplies out the rows it is given, raised to a stack of
powers; Tableau picks the rows of its conjugations and frame updates and
hands them to it, and its gate tables hand it generator images.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel path; numpy is the only one."""
    return "numpy"


def ordered_product(x, z, phases, k, d: int):
    """Products prod_a row_a**k[j, a] of the given rows, in row order.

    Row a is tau**phases[a] X**x[a] Z**z[a], with exponent blocks x, z of
    shape (u, n) in any integer type and phases of shape (u,); k is an
    (m, u) stack of powers >= 0, one product per row of k. Returns x, z of
    shape (m, n) mod d and the phases as an int64 array of shape (m,) mod
    2d.

    Moving the k-th copy of a row past the accumulated product costs
    tau**(2 acc_z . x), so the phase is sum_a k_a ph_a + 2 sum_a k_a cross_a
    + sum_a k_a(k_a - 1) z_a . x_a, where cross_a = sum_{b<a} k_b z_b . x_a
    collects the Z blocks of the rows to the left of row a. cross is
    contracted in the cheaper order for the shape: through prefix sums of
    k z over the rows, O(m u n), for fewer products than rows (a single
    conjugation), else through the u x u matrix z_b . x_a, O(u^2 n), which
    also skips the prefix sums (a frame update: m = u).

    X**d = Z**d = 1, and the result reads x and z only modulo d: adding a
    multiple of d to an exponent moves the returned exponents by multiples
    of d, each cross term by a multiple of 2d (its factor 2) and each own
    term too (k(k - 1) is even). So any such shift changes no output bit.
    """
    # widen: the tableau may be stored narrower
    x = np.asarray(x, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    ph_rows = np.asarray(phases, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    if len(k) >= len(x):
        g = z @ x.T  # g[b, a] = z_b . x_a
        r = np.arange(len(g))
        cross = k @ np.where(r[:, None] < r, g, 0)
        own = g.diagonal()
    else:
        kz = k[:, :, None] * z
        before = np.cumsum(kz, axis=1) - kz  # Z exponents of rows to the left
        cross = np.einsum("mij,ij->mi", before, x)
        own = np.einsum("ij,ij->i", z, x)
    ph = (k @ ph_rows + 2 * (k * cross).sum(axis=1)
          + (k * (k - 1)) @ own) % (2 * d)
    return (k @ x) % d, (k @ z) % d, ph

