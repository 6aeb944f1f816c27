"""The vectorized row product against the loop reference and PauliString:
kernels.ordered_product on the rows it is given, and the tableau's row
product, which picks a tableau's rows by their powers and hands them to it."""

import numpy as np
import pytest

from quditsim import kernels
from quditsim.pauli import PauliString
from quditsim.tableau import Tableau

from helpers import rowprod_loop


def _random_rows(rng, n, d):
    xs = rng.integers(0, d, size=(2 * n, n))
    zs = rng.integers(0, d, size=(2 * n, n))
    phases = rng.integers(0, 2 * d, size=2 * n)
    return xs, zs, phases


@pytest.mark.parametrize("d", [2, 3, 5])
def test_rowprod_matches_loop_reference(d):
    """Bit for bit, on random rows and raw powers (some >= d, some <= 0)."""
    rng = np.random.default_rng(13 + d)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        xs, zs, phases = _random_rows(rng, n, d)
        xpow = rng.integers(-1, 2 * d, size=n)
        zpow = rng.integers(-1, 2 * d, size=n)
        kx, kz, kp = Tableau(d, n, xs, zs, phases)._rowprod(xpow, zpow)
        rx, rz, rp = rowprod_loop(xs, zs, phases, xpow, zpow, d)
        assert kx.dtype == np.int64 and kz.dtype == np.int64
        assert np.array_equal(kx, rx)
        assert np.array_equal(kz, rz)
        assert type(kp) is int and kp == rp


def test_rowprod_matches_pauli_multiplication():
    """The row product must equal naive PauliString accumulation."""
    rng = np.random.default_rng(14)
    for d in (2, 3, 5):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            xs, zs, phases = _random_rows(rng, n, d)
            xpow = rng.integers(0, d, size=n)
            zpow = rng.integers(0, d, size=n)
            acc = PauliString.identity(d, n)
            for i in range(n):
                row = PauliString(d, xs[n + i], zs[n + i], phases[n + i])
                for _k in range(int(xpow[i])):
                    acc = acc * row
            for i in range(n):
                row = PauliString(d, xs[i], zs[i], phases[i])
                for _k in range(int(zpow[i])):
                    acc = acc * row
            kx, kz, kp = Tableau(d, n, xs, zs, phases)._rowprod(xpow, zpow)
            assert np.array_equal(kx, acc.x)
            assert np.array_equal(kz, acc.z)
            assert kp == acc.phase


@pytest.mark.parametrize("d", [2, 3, 5, 131])
def test_ordered_product_matches_pauli_multiplication_in_both_orders(d):
    """The rows given, in their order, each multiplied in k times: bit for
    bit on either side of the switch between the prefix-sum contraction
    (fewer products than rows) and the row-pair one (at least as many)."""
    rng = np.random.default_rng(15 + d)
    for u in range(1, 9):
        for m in sorted({1, max(1, u - 1), u, u + 3}):
            n = int(rng.integers(1, 7))
            x = rng.integers(0, d, size=(u, n)).astype(np.uint16)
            z = rng.integers(0, d, size=(u, n)).astype(np.uint16)
            ph = rng.integers(0, 2 * d, size=u).astype(np.uint16)
            k = rng.integers(0, 2 * d, size=(m, u))
            kx, kz, kp = kernels.ordered_product(x, z, ph, k, d)
            assert kx.shape == kz.shape == (m, n) and kp.shape == (m,)
            for j in range(m):
                acc = PauliString.identity(d, n)
                for a in range(u):
                    row = PauliString(d, x[a], z[a], ph[a])
                    for _ in range(int(k[j, a])):
                        acc = acc * row
                assert np.array_equal(kx[j], acc.x)
                assert np.array_equal(kz[j], acc.z)
                assert kp[j] == acc.phase


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_ordered_product_reads_exponents_mod_d(d):
    """Adding multiples of d to the X and Z blocks leaves every output bit
    alone, in both contractions: the tableau passes its codes x*d + z
    as the Z blocks."""
    rng = np.random.default_rng(40 + d)
    for u, m in ((6, 1), (6, 6), (4, 9)):
        x = rng.integers(0, d, size=(u, 5))
        z = rng.integers(0, d, size=(u, 5))
        ph = rng.integers(0, 2 * d, size=u)
        k = rng.integers(0, 2 * d, size=(m, u))
        want = kernels.ordered_product(x, z, ph, k, d)
        for xs, zs in ((x, x * d + z),
                       (x + d * rng.integers(0, 4, x.shape), z)):
            got = kernels.ordered_product(xs, zs, ph, k, d)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


def test_backend_reports_mode():
    assert kernels.backend() == "numpy"


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_weighted_product_matches_ordered_product_and_loop(d):
    """The cached-weights form equals ordered_product bit for bit on random
    rows, read as codes x*d + z too, and equals rowprod_loop when the rows
    are a tableau's destabilizers then stabilizers."""
    rng = np.random.default_rng(90 + d)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        xs, zs, phases = _random_rows(rng, n, d)
        k = rng.integers(0, 2 * d, size=(int(rng.integers(1, 9)), 2 * n))
        weights = kernels.product_weights(k)
        want = kernels.ordered_product(xs, zs, phases, k, d)
        for z_rows in (zs, xs * d + zs):
            got = kernels.weighted_product(xs, z_rows, phases, weights, d)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b)
        order = np.r_[n:2 * n, 0:n]  # rowprod_loop's row order
        got = kernels.weighted_product(xs[order], zs[order], phases[order],
                                       weights, d)
        for j, powers in enumerate(k):
            rx, rz, rp = rowprod_loop(xs, zs, phases, powers[:n], powers[n:], d)
            assert np.array_equal(got[0][j], rx)
            assert np.array_equal(got[1][j], rz)
            assert got[2][j] == rp


def test_product_weights_are_read_only_copies():
    k = np.array([[1, 2, 0], [2, 2, 1]])
    kk, w = kernels.product_weights(k)
    assert kk.shape == (2, 3) and w.shape == (2, 9)
    assert not kk.flags.writeable and not w.flags.writeable
    k[0, 0] = 5  # the caller's stack is not aliased
    assert kk[0, 0] == 1
    # w[j, b*u + a]: 2 k_b k_a above the diagonal, k_a(k_a - 1) on it
    assert w[1].reshape(3, 3).tolist() == [[2, 8, 4], [0, 2, 4], [0, 0, 0]]
