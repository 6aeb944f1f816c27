"""Exact integer kernel: the ordered product of stabilizer-tableau rows.

One vectorized numpy path in exact int64 arithmetic on the rows a product
uses, whatever integer type the tableau stores; tests/helpers.py keeps
the plain loop it replaced as the reference it must match bit for bit.
ordered_product multiplies out the rows it is given, raised to a stack of
powers; Tableau picks the rows of its conjugations and frame updates and
hands them to it, its gate tables hand it generator images, and the engine's
commuted sum hands it the conjugated generators of a T step. A frame update
raises the same few rows to the same small stack of powers over and over,
so product_weights takes out the part of the phase that depends only on the
powers once, and weighted_product applies it to any rows with a few matmuls.
The phase rule lives in this module only.
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
    contracted in the cheaper order for the shape. For fewer products than
    rows (a single conjugation) it goes through the inclusive prefix sums
    upto_a = sum_{b<=a} k_b z_b, O(m u n): cross_a = upto_a . x_a - k_a
    z_a . x_a, which folds the own term into -k_a(k_a + 1) z_a . x_a, and
    the last prefix is the product's Z block. Otherwise (a frame update or
    a gate table, m >= u) it goes through the u x u matrix z_b . x_a,
    O(u^2 n), which skips the prefix sums and keeps the working set at
    O(m u), however many products there are.

    X**d = Z**d = 1, and the result reads x and z only modulo d: adding a
    multiple of d to an exponent moves the returned exponents by multiples
    of d, each cross term by a multiple of 2d (its factor 2) and each own
    term too (k(k - 1) and k(k + 1) are even). So any such shift changes no
    output bit.
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
        ph = 2 * (k * cross).sum(axis=1) + (k * (k - 1)) @ g.diagonal()
        z_out = k @ z
    else:
        upto = k[:, :, None] * z
        np.cumsum(upto, axis=1, out=upto)  # Z exponents of rows up to a
        cross = np.einsum("mij,ij->mi", upto, x)
        own = np.einsum("ij,ij->i", z, x)
        ph = 2 * (k * cross).sum(axis=1) - (k * (k + 1)) @ own
        z_out = upto[:, -1]
    ph = (k @ ph_rows + ph) % (2 * d)
    return (k @ x) % d, z_out % d, ph


def product_weights(k):
    """The part of ordered_product's phase that depends on the powers only,
    for rows raised to the (m, u) stack k: k itself as int64 and the
    bilinear weights w of shape (m, u * u), both read-only.

    w[j, b * u + a] is 2 k_jb k_ja for b < a, k_ja (k_ja - 1) for b = a and
    0 for b > a, so that for any rows the phase of product j is
    k_j . ph + w_j . g with g[b, a] = z_b . x_a, the cross and own terms of
    ordered_product in one sum. It takes m u^2 integers, so it is meant for
    a small stack applied many times (a frame's absorptions), not for a
    gate table's d^(2k) products.
    """
    k = np.array(k, dtype=np.int64)
    m, u = k.shape
    w = 2 * k[:, :, None] * k[:, None, :]
    w *= np.triu(np.ones((u, u), dtype=np.int64), 1)
    w[:, np.arange(u), np.arange(u)] = k * (k - 1)
    w = w.reshape(m, u * u)
    for a in (k, w):
        a.setflags(write=False)
    return k, w


def weighted_product(x, z, phases, weights, d: int):
    """ordered_product of the rows x, z, phases (shape (u, n) and (u,)),
    raised to the stack whose product_weights are `weights`: the same
    returns, bit for bit, from five small matrix products. The rows are read
    modulo d as in ordered_product: the weights are even, so a shift of a
    multiple of d moves each phase by a multiple of 2d."""
    k, w = weights
    x = np.asarray(x, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    ph = (k @ np.asarray(phases, dtype=np.int64)
          + w @ (z @ x.T).reshape(-1)) % (2 * d)
    return (k @ x) % d, (k @ z) % d, ph
