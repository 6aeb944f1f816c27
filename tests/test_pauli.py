"""Pauli algebra against an independently built dense oracle."""

import pickle

import numpy as np
import pytest

from quditsim import pauli as pauli_module
from quditsim.mps import Mps
from quditsim.pauli import (
    PauliString,
    PauliSum,
    QuditDim,
    decompose_unitary,
    phase_factor,
    site_matrix,
)
from quditsim.statevector import DenseState
from helpers import (
    commutation_exponent, dense_pauli, random_pauli_exponents, random_unitary,
)
from property_suites import run_pauli_dense_suite


def test_quditdim_accepts_primes():
    for d in (2, 3, 5):
        assert QuditDim(d) == d


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15])
def test_quditdim_rejects_nonprime(bad):
    with pytest.raises(ValueError):
        QuditDim(bad)


def test_phase_normalized_into_range():
    p = PauliString(3, [1], [0], phase=7)
    assert p.phase == 1
    q = PauliString(3, [1], [0], phase=-1)
    assert q.phase == 5


def test_single_rejects_sites_outside_the_chain():
    assert PauliString.single(3, 4, 3, 1, 0) == PauliString(3, [0, 0, 0, 1],
                                                            [0, 0, 0, 0])
    for site in (-1, 4):
        with pytest.raises(ValueError, match="out of range"):
            PauliString.single(3, 4, site, 1, 0)


def test_multiply_z_times_x_qutrit():
    # Z0 * X0 = tau**2 X0 Z0 = omega X0 Z0
    z = PauliString.single(3, 1, 0, z=1)
    x = PauliString.single(3, 1, 0, x=1)
    prod = z * x
    assert prod.phase == 2
    assert prod.x[0] == 1 and prod.z[0] == 1


def test_multiply_identity_leaves_operand():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        n = 3
        xs, zs, ph = random_pauli_exponents(rng, d, n)
        p = PauliString(d, xs, zs, ph)
        ident = PauliString.identity(d, n)
        assert ident * p == p
        assert p * ident == p


def test_xz_squared_matches_dense():
    p = PauliString.single(3, 1, 0, x=1, z=1)
    sq = p * p
    np.testing.assert_allclose(
        dense_pauli(3, sq.x, sq.z, sq.phase),
        dense_pauli(3, p.x, p.z, p.phase) @ dense_pauli(3, p.x, p.z, p.phase),
        atol=1e-12)


def test_multiply_and_commutation_dense_quick():
    assert run_pauli_dense_suite(150) <= 1e-12


def test_associativity_exact():
    rng = np.random.default_rng(2)
    for _ in range(120):
        d = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 5))
        ps = [PauliString(d, *random_pauli_exponents(rng, d, n)) for _ in range(3)]
        a, b, c = ps
        assert (a * b) * c == a * (b * c)


def test_order_d_collapses_exponents():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        x, z, _ = random_pauli_exponents(rng, d, 3)
        p = PauliString(d, x, z, 0)
        pd = p.power(d)
        assert not pd.x.any() and not pd.z.any()


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_power_matches_repeated_multiplication(d):
    """The closed form equals k-fold __mul__ for k in [0, 2d], phases
    included, and a negative power raises."""
    rng = np.random.default_rng(40 + d)
    for _ in range(8):
        p = PauliString(d, *random_pauli_exponents(rng, d, 4))
        acc = PauliString.identity(d, 4)
        for k in range(2 * d + 1):
            assert p.power(k) == acc
            acc = acc * p
    with pytest.raises(ValueError):
        p.power(-1)


def test_commutation_defining_relation():
    z = PauliString.single(3, 1, 0, z=1)
    x = PauliString.single(3, 1, 0, x=1)
    assert commutation_exponent(z, x) == 1
    assert commutation_exponent(x, x) == 0


def test_dagger_is_conjugate_transpose():
    rng = np.random.default_rng(4)
    for _ in range(60):
        d = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 4))
        p = PauliString(d, *random_pauli_exponents(rng, d, n))
        np.testing.assert_allclose(
            p.dagger().to_matrix(),
            p.to_matrix().conj().T, atol=1e-12)


def test_to_matrix_qubit_x():
    p = PauliString.single(2, 1, 0, x=1)
    np.testing.assert_allclose(p.to_matrix(), [[0, 1], [1, 0]], atol=0)


def test_to_matrix_qutrit_x_wraparound():
    m = PauliString.single(3, 1, 0, x=1).to_matrix()
    col = m[:, 2]  # X|2> = |0>
    np.testing.assert_allclose(col, [1, 0, 0], atol=0)


def test_to_matrix_y_is_xz_product():
    x = PauliString.single(3, 1, 0, x=1)
    z = PauliString.single(3, 1, 0, z=1)
    y = PauliString.single(3, 1, 0, x=1, z=1)
    np.testing.assert_allclose(y.to_matrix(), x.to_matrix() @ z.to_matrix(),
                               atol=1e-14)


def test_to_matrix_size_guard():
    p = PauliString.identity(2, 15)
    with pytest.raises(ValueError):
        p.to_matrix()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan),
                                 complex(-np.inf, 0.0)])
def test_pauli_sum_refuses_a_non_finite_coefficient(bad):
    # |nan| >= COEFF_DROP_TOL is False, so a NaN term used to be dropped
    # and the sum applied as the identity without a word
    eye, x1 = PauliString.identity(3, 4), PauliString.single(3, 4, 1, x=1)
    with pytest.raises(ValueError, match="not finite"):
        PauliSum(3, 4, [(1.0, eye), (bad, x1)])


# the one dense-size guard's wording, whichever site runs it
GUARD_MESSAGE = r"^dense size \d+\*\*\d+ = \d+ exceeds the guard 16384$"


@pytest.mark.parametrize("terms", [1, 0])
def test_pauli_sum_to_matrix_guards_before_it_allocates(terms):
    # 2**30 amplitudes a side: a zeros matrix formed before the guard would
    # be 16 EiB, which numpy refuses with its own message, not the guard's
    p = PauliString.single(2, 30, 3, x=1, z=1)
    ps = PauliSum(2, 30, [(1.0, p)][:terms])
    assert len(ps) == terms
    with pytest.raises(ValueError, match="guard"):
        ps.to_matrix()


def _guarded_call(site):
    """(subject, call) for one of the five sites that build d**n dense
    arrays; subject is the object the call must leave as it was."""
    d, n = 2, 30
    p = PauliString(d, [1] + [0] * (n - 1), [0] * (n - 1) + [2], phase=1)
    ps = PauliSum(d, n, [(0.6, p), (0.8j, PauliString.identity(d, n))])
    chain = Mps.product_state(n, d)
    # a 131^2-a-side operator without its 4.7 GB: one zero, broadcast
    wide = np.broadcast_to(np.complex128(0), (131 ** 2, 131 ** 2))
    return {
        "PauliString.to_matrix": (p, p.to_matrix),
        "PauliSum.to_matrix": (ps, ps.to_matrix),
        "Mps.to_dense": (chain, chain.to_dense),
        "DenseState": (None, lambda: DenseState(d, n)),
        "decompose_unitary": (None, lambda: decompose_unitary(wide, 131)),
    }[site]


@pytest.mark.parametrize("site", [
    "PauliString.to_matrix", "PauliSum.to_matrix", "Mps.to_dense",
    "DenseState", "decompose_unitary",
])
def test_every_dense_site_raises_the_one_guard(site):
    subject, call = _guarded_call(site)
    before = pickle.dumps(subject)
    with pytest.raises(ValueError, match=GUARD_MESSAGE):
        call()
    assert pickle.dumps(subject) == before


def test_to_text_forms():
    p = PauliString(3, [1, 0, 1], [0, 0, 2], phase=3)
    assert p.to_text() == "t^3 X0^1 X2^1 Z2^2"
    assert PauliString.identity(2, 2).to_text() == "t^0 I"


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_site_matrix_matches_dense_pauli(d):
    """The closed form against matrix powers of the dense shift and clock,
    for scalar exponents and for a (term, site) stack of them."""
    for x in range(d):
        for z in range(d):
            np.testing.assert_allclose(site_matrix(d, x, z),
                                       dense_pauli(d, [x], [z]), atol=1e-14)
    rng = np.random.default_rng(d)
    xs, zs = rng.integers(0, d, (4, 3)), rng.integers(0, d, (4, 3))
    mats = site_matrix(d, xs, zs)
    assert mats.shape == (4, 3, d, d)
    for t, s in np.ndindex(4, 3):
        assert mats[t, s].tobytes() == \
            site_matrix(d, int(xs[t, s]), int(zs[t, s])).tobytes()
        np.testing.assert_allclose(
            mats[t, s], dense_pauli(d, [xs[t, s]], [zs[t, s]]), atol=1e-14)


def test_phase_factor_is_tau_power():
    assert phase_factor(2, 3) == pytest.approx(np.exp(2j * np.pi / 3))
    assert phase_factor(3, 3) == pytest.approx(-1.0)


# -- decompose_unitary ------------------------------------------------------


def _trace_coeffs(u, d, k):
    """Brute-force trace-formula oracle, independent of the implementation."""
    from itertools import product as iproduct
    out = {}
    for xs in iproduct(range(d), repeat=k):
        for zs in iproduct(range(d), repeat=k):
            b = dense_pauli(d, xs, zs)
            c = np.trace(u @ b.conj().T) / d ** k
            if abs(c) > 1e-14:
                out[(xs, zs)] = c
    return out


def test_decompose_identity():
    ps = decompose_unitary(np.eye(3), 3)
    assert len(ps) == 1
    c, p = ps.terms[0]
    assert c == pytest.approx(1.0)
    assert not p.x.any() and not p.z.any()


def test_decompose_t2_two_terms():
    t2 = np.diag([1.0, np.exp(1j * np.pi / 4)])
    ps = decompose_unitary(t2, 2)
    oracle = _trace_coeffs(t2, 2, 1)
    assert len(ps) == 2 == len(oracle)
    for c, p in ps:
        key = (tuple(p.x), tuple(p.z))
        assert key in oracle
        assert c == pytest.approx(oracle[key], abs=1e-14)
    np.testing.assert_allclose(ps.to_matrix(), t2, atol=1e-12)


def test_decompose_t3_three_diagonal_terms():
    t3 = np.diag([1.0, np.exp(1j * np.pi / 9), np.exp(8j * np.pi / 9)])
    ps = decompose_unitary(t3, 3)
    assert len(ps) == 3
    for _, p in ps:
        assert not p.x.any()
    np.testing.assert_allclose(ps.to_matrix(), t3, atol=1e-12)


def _assert_matches_oracle(ps, u, d, k):
    """Same terms in product order (x-exponents, then z-exponents) and the
    same coefficients as the brute-force trace formula."""
    oracle = _trace_coeffs(u, d, k)
    assert [(tuple(p.x), tuple(p.z)) for _, p in ps] == list(oracle)
    for c, p in ps:
        assert abs(c - oracle[(tuple(p.x), tuple(p.z))]) <= 1e-14


def test_decompose_random_roundtrip():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5, 7):
        u = random_unitary(rng, d)
        ps = decompose_unitary(u, d)
        np.testing.assert_allclose(ps.to_matrix(), u, atol=1e-12)
        _assert_matches_oracle(ps, u, d, 1)


def test_decompose_two_site_roundtrip():
    rng = np.random.default_rng(6)
    for d in (2, 3, 5, 7):
        u = random_unitary(rng, d * d)
        ps = decompose_unitary(u, d)
        assert ps.n_sites == 2
        np.testing.assert_allclose(ps.to_matrix(), u, atol=1e-12)
        _assert_matches_oracle(ps, u, d, 2)


def test_decompose_rejects_nonunitary():
    with pytest.raises(ValueError):
        decompose_unitary(np.ones((3, 3)), 3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            decompose_unitary(np.full((2, 2), bad), 2)
        u = np.eye(4, dtype=complex)
        u[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            decompose_unitary(u, 2)


def test_decompose_rejects_bad_size():
    with pytest.raises(ValueError):
        decompose_unitary(np.eye(4), 3)


def _sum_bits(ps):
    """A PauliSum's terms as exact tuples: coefficient, exponents, phase."""
    return [(complex(c).real.hex(), complex(c).imag.hex(), p.x.tobytes(),
             p.z.tobytes(), p.phase) for c, p in ps.terms]


@pytest.fixture
def empty_memo(monkeypatch):
    memo = {}
    monkeypatch.setattr(pauli_module, "_DECOMPOSE_MEMO", memo)
    return memo


@pytest.mark.parametrize("d, k", [(2, 1), (3, 1), (7, 1), (3, 2)])
def test_decompose_memo_returns_equal_terms(d, k, empty_memo):
    """A repeat call and an equal matrix held in another array (a
    Fortran-ordered copy, a nested list) return the first call's terms bit
    for bit, from one memo entry; so does a call after the memo is
    cleared."""
    rng = np.random.default_rng(40 + d + k)
    u = random_unitary(rng, d ** k)
    first = decompose_unitary(u, d)
    assert len(empty_memo) == 1
    for same in (u, np.asfortranarray(u), u.tolist()):
        assert _sum_bits(decompose_unitary(same, d)) == _sum_bits(first)
    assert len(empty_memo) == 1
    empty_memo.clear()
    assert _sum_bits(decompose_unitary(u, d)) == _sum_bits(first)


def test_decompose_memo_is_not_aliased_by_a_returned_sum(empty_memo):
    """Changing a returned sum, its term list, a string's phase or (which
    raises) its exponents, leaves a later call's terms as they were."""
    u = np.diag(np.exp(1j * np.array([0.0, 0.4, 1.1])))
    want = _sum_bits(decompose_unitary(u, 3))
    ps = decompose_unitary(u, 3)
    c, p = ps.terms[1]
    with pytest.raises(ValueError):
        p.z[0] = 0
    with pytest.raises(ValueError):
        p.x.setflags(write=True)
    p.phase = 1
    ps.terms[0] = (2.0, p)
    ps.terms.append((c, p))
    assert _sum_bits(decompose_unitary(u, 3)) == want
    again = decompose_unitary(u, 3)
    assert again.terms is not ps.terms
    assert all(a is not b for (_, a), (_, b) in zip(again.terms, ps.terms))


@pytest.mark.parametrize("bad", [np.ones((3, 3)), np.diag([1.0, 1.0, 1.1]),
                                 np.full((3, 3), np.nan),
                                 np.diag([1.0, np.inf, 1.0])],
                         ids=["rank-one", "scaled", "nan", "inf"])
def test_decompose_memo_never_stores_a_rejected_operator(bad, empty_memo):
    for _ in range(3):
        with pytest.raises(ValueError):
            decompose_unitary(bad, 3)
    assert not empty_memo


def test_decompose_memo_is_bounded(monkeypatch, empty_memo):
    """At most _MEMO_SIZE operators, the oldest dropped first, and none
    above _MEMO_MATRIX_BYTES."""
    monkeypatch.setattr(pauli_module, "_MEMO_SIZE", 4)
    rng = np.random.default_rng(8)
    us = [random_unitary(rng, 3) for _ in range(7)]
    for u in us:
        decompose_unitary(u, 3)
        assert len(empty_memo) <= 4
    assert [key[1] for key in empty_memo] == [u.tobytes() for u in us[3:]]
    big = random_unitary(rng, 121)  # two sites at d = 11: 234 KB
    assert big.nbytes > pauli_module._MEMO_MATRIX_BYTES
    decompose_unitary(big, 11)
    assert len(empty_memo) == 4 and (11, big.tobytes()) not in empty_memo


def test_pauli_sum_merges_phase_and_duplicates():
    d = 3
    p_plain = PauliString.single(d, 1, 0, x=1)
    p_phased = PauliString.single(d, 1, 0, x=1, phase=2)  # tau**2 * X
    s = PauliSum(d, 1, [(1.0, p_plain), (1.0, p_phased)])
    assert len(s) == 1
    c, p = s.terms[0]
    assert p.phase == 0
    assert c == pytest.approx(1.0 + np.exp(2j * np.pi / 3))


def test_pauli_sum_drops_tiny_terms():
    d = 2
    p = PauliString.single(d, 1, 0, x=1)
    q = PauliString.single(d, 1, 0, z=1)
    s = PauliSum(d, 1, [(1e-16, p), (0.5, q)])
    assert len(s) == 1
