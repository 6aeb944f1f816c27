"""Tests for the qudit matrix-product-state simulator."""

import numpy as np
import pytest

from quditsim.circuits import Circuit, GateOp, gate_matrix, random_clifford_word
from quditsim.mps import (
    Mps,
    PauliMpo,
    TruncationPolicy,
    bond_ceiling,
    mps_model_bytes,
    robust_svd,
)
from quditsim.pauli import (
    PauliString, PauliSum, decompose_unitary, site_matrix,
)
from quditsim.statevector import DenseState, run_circuit

from helpers import dense_pauli, embed_gate, pauli_mpo_per_site, random_unitary


def mps_from_ops(n, d, ops, policy=None):
    m = Mps.product_state(n, d, policy=policy)
    for u, sites in ops:
        m.apply_unitary(u, sites)
    return m


def dense_from_ops(n, d, ops):
    v = np.zeros(d**n, dtype=np.complex128)
    v[0] = 1.0
    for u, sites in ops:
        v = embed_gate(u, list(sites), n, d) @ v
    return v


def random_op_list(rng, n, d, count):
    ops = []
    for _ in range(count):
        if n >= 2 and rng.random() < 0.6:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append((random_unitary(rng, d * d), (int(a), int(b))))
        else:
            ops.append((random_unitary(rng, d), (int(rng.integers(n)),)))
    return ops


# ----------------------------------------------------------------------
# construction and observers


@pytest.mark.parametrize("d", [2, 3, 5])
def test_product_state_basics(d):
    m = Mps.product_state(4, d, digits=[1 % d, 0, d - 1, 0])
    assert m.bond_dims() == [1, 1, 1]
    assert m.norm() == pytest.approx(1.0)
    v = m.to_dense()
    idx = ((1 % d) * d + 0) * d * d + (d - 1) * d + 0
    assert v[idx] == pytest.approx(1.0)
    assert np.count_nonzero(v) == 1
    assert m.amplitude([1 % d, 0, d - 1, 0]) == pytest.approx(1.0)


def test_product_state_validation():
    with pytest.raises(ValueError):
        Mps.product_state(3, 3, digits=[0, 3, 0])
    with pytest.raises(ValueError):
        Mps.product_state(3, 3, digits=[0, 0])
    with pytest.raises(ValueError):
        Mps.product_state(0, 3)


def test_constructor_validation():
    t = np.zeros((1, 2, 1), dtype=complex)
    t[0, 0, 0] = 1.0
    wide = np.zeros((1, 2, 2), dtype=complex)
    wide[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        Mps(2, [t, wide])  # right boundary bond is 2
    with pytest.raises(ValueError):
        Mps(2, [wide.transpose(2, 1, 0), t])  # left boundary bond is 2
    with pytest.raises(ValueError):
        Mps(2, [t, np.zeros((2, 2, 1), dtype=complex)])  # bond mismatch
    with pytest.raises(ValueError):
        Mps(2, [t, t], center=5)
    with pytest.raises(ValueError):
        Mps(4, [t, t])  # composite dimension


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(chi_max=0)
    with pytest.raises(ValueError):
        TruncationPolicy(cutoff=1.0)
    with pytest.raises(ValueError):
        TruncationPolicy(cutoff=-0.1)
    p = TruncationPolicy(chi_max=7, cutoff=0.0)
    assert p.chi_max == 7 and p.cutoff == 0.0


def test_policy_rank_counts_each_row_at_the_cutoff():
    s = np.array([[1.0, 0.5, 1e-3, 0.0], [2.0, 2.0, 2e-3, 1e-13], [0.0] * 4])
    assert TruncationPolicy(cutoff=1e-2).rank(s).tolist() == [2, 2, 0]
    assert TruncationPolicy().rank(s).tolist() == [3, 3, 0]
    assert TruncationPolicy(cutoff=0.0).rank(s[1]) == 4


def test_bond_ceiling_is_the_smaller_side():
    assert [bond_ceiling(3, 5, b) for b in range(1, 5)] == [3, 9, 9, 3]
    assert bond_ceiling(2, 2, 1) == 2


@pytest.mark.parametrize("chi_max", [2.5, 2.0, "2", True, np.float64(2.0)])
def test_policy_rejects_non_integral_chi_max(chi_max):
    with pytest.raises(ValueError, match="chi_max must be an integer"):
        TruncationPolicy(chi_max=chi_max)


@pytest.mark.parametrize("chi_max", [np.int64(2), np.int32(2), np.uint8(2)])
def test_policy_accepts_numpy_integer_chi_max(chi_max):
    p = TruncationPolicy(chi_max=chi_max)
    assert p.chi_max == 2 and type(p.chi_max) is int
    m = entangled_chain(policy=p)
    assert max(m.bond_dims()) <= 2


def test_entropy_of_product_state_is_zero():
    m = Mps.product_state(5, 3)
    for bond in range(1, 5):
        assert m.entanglement_entropy(bond) == pytest.approx(0.0, abs=1e-14)


def test_schmidt_and_entropy_bond_range():
    m = Mps.product_state(3, 2)
    with pytest.raises(ValueError):
        m.schmidt_spectrum(0)
    with pytest.raises(ValueError):
        m.schmidt_spectrum(3)


# ----------------------------------------------------------------------
# canonical form


def test_move_center_preserves_state_and_canonical_form():
    rng = np.random.default_rng(7)
    ops = random_op_list(rng, 4, 3, 8)
    m = mps_from_ops(4, 3, ops)
    ref = m.to_dense()
    for target in [0, 3, 1, 2, 0]:
        m.move_center(target)
        assert m.center == target
        assert m.canonical_ok()
        np.testing.assert_allclose(m.to_dense(), ref, atol=1e-12)
    with pytest.raises(ValueError):
        m.move_center(4)


def test_norm_stays_one_after_random_ops():
    rng = np.random.default_rng(8)
    m = Mps.product_state(5, 2)
    for u, sites in random_op_list(rng, 5, 2, 30):
        m.apply_unitary(u, sites)
        assert abs(m.norm() - 1.0) < 1e-10


# ----------------------------------------------------------------------
# gates against the dense oracle


def test_bell_pair_entropy_and_spectrum():
    m = Mps.product_state(2, 2)
    m.apply_single_site(0, gate_matrix(GateOp("H", (0,)), 2))
    m.apply_two_site(0, gate_matrix(GateOp("SUM", (0, 1)), 2))
    assert m.bond_dims() == [2]
    np.testing.assert_allclose(
        m.schmidt_spectrum(1), [2**-0.5, 2**-0.5], atol=1e-12
    )
    assert m.entanglement_entropy(1) == pytest.approx(np.log(2), abs=1e-12)


def test_qutrit_pair_entropy_reaches_log3():
    m = Mps.product_state(2, 3)
    m.apply_single_site(0, gate_matrix(GateOp("H", (0,)), 3))
    m.apply_two_site(0, gate_matrix(GateOp("SUM", (0, 1)), 3))
    assert m.entanglement_entropy(1) == pytest.approx(np.log(3), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_single_site_gate_matches_dense(d):
    rng = np.random.default_rng(100 + d)
    ops = [(random_unitary(rng, d), (i,)) for i in (0, 2, 1)]
    m = mps_from_ops(3, d, ops)
    np.testing.assert_allclose(m.to_dense(), dense_from_ops(3, d, ops), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_adjacent_two_site_gate_matches_dense(d):
    rng = np.random.default_rng(200 + d)
    ops = [
        (random_unitary(rng, d * d), (0, 1)),
        (random_unitary(rng, d * d), (1, 2)),
        (random_unitary(rng, d * d), (0, 1)),
    ]
    m = mps_from_ops(3, d, ops)
    got, want = m.to_dense(), dense_from_ops(3, d, ops)
    phase = want @ got.conj()
    np.testing.assert_allclose(got * phase / abs(phase), want, atol=1e-10)


@pytest.mark.parametrize("sites", [(1, 0), (2, 0), (0, 2), (0, 3), (3, 1), (4, 0)])
@pytest.mark.parametrize("d", [2, 3])
def test_routed_two_site_gate_matches_dense(d, sites):
    rng = np.random.default_rng(300 + d + 10 * sites[0] + 100 * sites[1])
    n = 5
    u = random_unitary(rng, d * d)
    pre = random_op_list(rng, n, d, 4)
    ops = pre + [(u, sites)]
    m = mps_from_ops(n, d, ops)
    got, want = m.to_dense(), dense_from_ops(n, d, ops)
    overlap = abs(np.vdot(want, got))
    assert overlap > 1 - 1e-10


def test_apply_unitary_validation():
    m = Mps.product_state(3, 2)
    u4 = np.eye(4)
    with pytest.raises(ValueError):
        m.apply_unitary(u4, (0, 0))
    with pytest.raises(ValueError):
        m.apply_unitary(u4, (0, 3))
    with pytest.raises(ValueError):
        m.apply_unitary(u4, (0, 1, 2))
    with pytest.raises(ValueError):
        m.apply_two_site(2, u4)
    with pytest.raises(ValueError):
        m.apply_two_site(0, np.eye(2))
    with pytest.raises(ValueError):
        m.apply_single_site(3, np.eye(2))
    with pytest.raises(ValueError):
        m.apply_single_site(0, np.eye(4))


def test_non_unitary_input_raises():
    m = Mps.product_state(2, 2)
    with pytest.raises(ValueError, match="unitarity"):
        m.apply_single_site(0, 2.0 * np.eye(2))
    with pytest.raises(ValueError, match="unitarity"):
        m.apply_two_site(0, 0.5 * np.eye(4))


@pytest.mark.parametrize("bad", ["nan", "inf", "shape"])
@pytest.mark.parametrize("sites", [(1,), (1, 2), (2, 1), (0, 3), (3, 0)])
def test_bad_operator_raises_with_state_untouched(bad, sites):
    d = 3
    m = Mps.product_state(4, d)
    rng = np.random.default_rng(5)
    m.apply_unitary(random_unitary(rng, d * d), (0, 1))
    m.apply_unitary(random_unitary(rng, d * d), (2, 3))
    before = [t.copy() for t in m.tensors]
    center = m.center
    if bad == "shape":
        u = np.eye(d ** len(sites) + 1, dtype=complex)
    else:
        u = np.eye(d ** len(sites), dtype=complex)
        u[0, -1] = float(bad)
    calls = [lambda: m.apply_unitary(u, sites)]
    if len(sites) == 1:
        calls.append(lambda: m.apply_single_site(sites[0], u))
    elif sites[1] == sites[0] + 1:
        calls.append(lambda: m.apply_two_site(sites[0], u))
    for call in calls:
        with pytest.raises(ValueError, match="non-finite|must be"):
            call()
        assert m.center == center
        assert all(np.array_equal(t, b) for t, b in zip(m.tensors, before))


# ----------------------------------------------------------------------
# truncation


def test_truncation_error_equals_discarded_weight():
    rng = np.random.default_rng(42)
    d = 3
    u = random_unitary(rng, d * d)
    ref = DenseState(d, 2)
    ref.apply_unitary(u, [0, 1])
    sigma = ref.schmidt_values(1)
    m = Mps.product_state(2, d, policy=TruncationPolicy(chi_max=1))
    err = m.apply_two_site(0, u)
    want = float(np.sum(sigma[1:] ** 2))
    assert err == pytest.approx(want, abs=1e-12)
    # state renormalized after the cut
    assert m.norm() == pytest.approx(1.0, abs=1e-12)
    assert m.bond_dims() == [1]


def test_truncation_error_zero_without_truncation():
    rng = np.random.default_rng(43)
    m = Mps.product_state(2, 2)
    err = m.apply_two_site(0, random_unitary(rng, 4))
    assert err == pytest.approx(0.0, abs=1e-14)


def test_chi_max_is_enforced():
    rng = np.random.default_rng(44)
    m = Mps.product_state(6, 2, policy=TruncationPolicy(chi_max=3))
    for u, sites in random_op_list(rng, 6, 2, 40):
        m.apply_unitary(u, sites)
    assert max(m.bond_dims()) <= 3
    assert m.norm() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_bond_ceiling_never_exceeded(d):
    rng = np.random.default_rng(50 + d)
    n = 5
    m = Mps.product_state(n, d)
    for u, sites in random_op_list(rng, n, d, 40):
        m.apply_unitary(u, sites)
        for b, chi in enumerate(m.bond_dims(), start=1):
            assert chi <= d ** min(b, n - b)


def test_split_pair_rejects_bond_past_ceiling():
    """The ceiling check raises, so it survives python -O."""
    rng = np.random.default_rng(57)
    m = Mps.product_state(3, 2)  # bond 1 holds at most 2
    theta = rng.standard_normal((3, 2, 2, 3)) + 0j  # rank 6 across the cut
    with pytest.raises(RuntimeError, match="structural ceiling"):
        m._split_pair(0, theta)


def entangled_chain(d=3, n=4, policy=None, seed=6):
    """A chain with bonds above 1 everywhere, its center on site 1."""
    rng = np.random.default_rng(seed)
    m = Mps.product_state(n, d, policy=policy)
    for i in (0, 2, 1):
        m.apply_two_site(i, random_unitary(rng, d * d))
    m.move_center(1)
    return m


def rotated_pair(m, i, u):
    """The pair tensor of bond i with u applied, as apply_two_site forms it."""
    d = m.d
    return np.tensordot(u.reshape(d, d, d, d), m.pair_tensor(i),
                        axes=([2, 3], [1, 2])).transpose(2, 0, 1, 3)


@pytest.mark.parametrize("chi_max", [None, 2])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_split_pair_equals_apply_two_site(chi_max, i):
    m = entangled_chain(policy=TruncationPolicy(chi_max=chi_max))
    m.move_center(i)
    u = random_unitary(np.random.default_rng(7), 9)
    ref = m.copy()
    want = ref.apply_two_site(i, u)
    got = m.split_pair(i, rotated_pair(m, i, u))
    assert got == want
    if chi_max is not None and i == 1:
        assert got > 0.0
    assert m.center == ref.center == i + 1
    assert all(np.array_equal(a, b) for a, b in zip(m.tensors, ref.tensors))


def test_split_pair_accepts_center_on_right_site():
    m = entangled_chain()
    theta = m.pair_tensor(0)
    m.move_center(1)
    assert m.split_pair(0, theta) == pytest.approx(0.0, abs=1e-14)
    assert m.center == 1 and m.canonical_ok()


@pytest.mark.parametrize("center", [0, 1, 2, 3])
def test_apply_two_site_moves_the_center_only_onto_its_pair(center,
                                                            monkeypatch):
    # the split is exact with the center on either site of the pair, so a
    # center already on site i + 1 must not be pushed back to i first
    m = entangled_chain()
    m.move_center(center)
    before = m.to_dense()
    pushes = []
    for name in ("_push_left", "_push_right"):
        monkeypatch.setattr(Mps, name, lambda self, j, f=getattr(Mps, name):
                            (pushes.append(j), f(self, j)))
    u = random_unitary(np.random.default_rng(8), 9)
    assert m.apply_two_site(1, u) == pytest.approx(0.0, abs=1e-14)
    assert len(pushes) == max(1 - center, 0) + max(center - 2, 0)
    assert m.center == 2 and m.canonical_ok()
    np.testing.assert_allclose(m.to_dense(),
                               embed_gate(u, (1, 2), 4, 3) @ before,
                               atol=1e-10)


def test_split_pair_reports_a_tiny_discarded_weight():
    # a difference of two sums near 1 would cancel the 1e-26 tail to 0
    m = Mps.product_state(2, 3)
    theta = np.diag([0.8, 0.6, 1e-13]).astype(complex).reshape(1, 3, 3, 1)
    assert m.split_pair(0, theta) == pytest.approx(1e-26, rel=1e-6, abs=0)
    assert m.bond_dims() == [2]


SIX_VALUES = (0.6, 0.5, 0.5, 0.3, 0.2, 0.1)  # squares sum to 1


@pytest.mark.parametrize("spectrum, chi_max, kept", [
    (SIX_VALUES, 2, 1),  # the tied pair straddles the cut: keep neither
    (SIX_VALUES, 3, 3),  # the cut falls after the tied pair
    (SIX_VALUES, 4, 4),
    ((6 ** -0.5,) * 6, 2, 2),  # tied from the largest value: keep chi_max
])
def test_chi_max_cut_keeps_tied_values_together(spectrum, chi_max, kept):
    d = 7
    m = Mps.product_state(2, d, policy=TruncationPolicy(chi_max=chi_max))
    s = np.zeros(d)
    s[:len(spectrum)] = spectrum
    theta = np.diag(s).astype(complex).reshape(1, d, d, 1)
    err = m.split_pair(0, theta)
    assert m.bond_dims() == [kept]
    assert err == pytest.approx(float(s[kept:] @ s[kept:]), abs=1e-14)
    np.testing.assert_allclose(
        m.schmidt_spectrum(1), s[:kept] / np.linalg.norm(s[:kept]),
        atol=1e-14)


@pytest.mark.parametrize("bad", [
    "left_site -1", "left_site n-1", "left bond", "right bond", "site dim",
    "rank", "center", "nan", "inf",
])
def test_split_pair_rejects_bad_input_with_state_untouched(bad):
    m = entangled_chain()
    i = 1
    theta = m.pair_tensor(i)
    if bad == "left_site -1":
        i = -1
    elif bad == "left_site n-1":
        i = m.n - 1
    elif bad == "left bond":
        theta = theta[:-1]
    elif bad == "right bond":
        theta = theta[..., :-1]
    elif bad == "site dim":
        theta = theta[:, :-1]
    elif bad == "rank":
        theta = theta.reshape(theta.shape[0], 9, -1)
    elif bad == "center":
        m.move_center(3)
    else:
        theta = theta.copy()
        theta[0, 1, 2, 0] = float(bad)
    before = [t.copy() for t in m.tensors]
    center = m.center
    with pytest.raises(ValueError, match="out of range|shape|center|non-finite"):
        m.split_pair(i, theta)
    assert m.center == center
    assert all(np.array_equal(t, b) for t, b in zip(m.tensors, before))


def test_pair_tensor_contracts_the_bond():
    m = entangled_chain()
    for i in range(m.n - 1):
        want = np.einsum("lsm,mtr->lstr", m.tensors[i], m.tensors[i + 1])
        np.testing.assert_allclose(m.pair_tensor(i), want, atol=1e-14)
    for i in (-1, m.n - 1):
        with pytest.raises(ValueError, match="out of range"):
            m.pair_tensor(i)


def test_truncate_left_rejects_bond_past_ceiling():
    rng = np.random.default_rng(58)
    m = Mps.product_state(4, 2)  # bond 2 holds at most 4
    m.tensors[1] = rng.standard_normal((1, 2, 6)) + 0j
    m.tensors[2] = rng.standard_normal((6, 2, 6)) + 0j  # rank 6 across the cut
    with pytest.raises(RuntimeError, match="structural ceiling"):
        m._truncate_left(2)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_regime_matches_statevector(d, seed):
    # zero cutoff: fidelity against the dense engine stays at one
    n = 5
    rng = np.random.default_rng(1000 + 10 * d + seed)
    ops = random_clifford_word(n, d, length=24, rng_seed=seed)
    for _ in range(6):
        theta = rng.uniform(0, 2 * np.pi, size=d)
        ops.append(GateOp("U1", (int(rng.integers(n)),), tuple(theta)))
    circ = Circuit(n, d, tuple(ops))
    dense = run_circuit(circ)
    m = Mps.product_state(n, d, policy=TruncationPolicy(cutoff=0.0))
    for op in circ.ops:
        m.apply_unitary(gate_matrix(op, d), op.sites)
    overlap = abs(np.vdot(dense.amps, m.to_dense()))
    assert overlap >= 1 - 1e-9


def test_schmidt_spectrum_matches_dense():
    rng = np.random.default_rng(45)
    n, d = 4, 2
    ops = random_op_list(rng, n, d, 12)
    m = mps_from_ops(n, d, ops)
    v = dense_from_ops(n, d, ops)
    ref = DenseState(d, n, max_dim=v.size)
    ref.amps = v.reshape(ref.amps.shape)
    for bond in range(1, n):
        got = m.schmidt_spectrum(bond)
        want = ref.schmidt_values(bond)
        k = min(got.size, want.size)
        np.testing.assert_allclose(got[:k], want[:k], atol=1e-10)
        assert np.all(got[k:] < 1e-10) and np.all(want[k:] < 1e-10)


def test_amplitude_matches_dense():
    rng = np.random.default_rng(46)
    n, d = 4, 3
    ops = random_op_list(rng, n, d, 10)
    m = mps_from_ops(n, d, ops)
    v = dense_from_ops(n, d, ops)
    for _ in range(10):
        digits = [int(rng.integers(d)) for _ in range(n)]
        idx = int(np.ravel_multi_index(digits, (d,) * n))
        assert m.amplitude(digits) == pytest.approx(v[idx], abs=1e-10)


# ----------------------------------------------------------------------
# Pauli-sum application and MPO


def test_mpo_dense_reconstruction_small_chain():
    rng = np.random.default_rng(60)
    d, n = 2, 3
    terms = []
    for _ in range(4):
        x = rng.integers(d, size=n)
        z = rng.integers(d, size=n)
        c = rng.normal() + 1j * rng.normal()
        terms.append((c, PauliString(d, x, z, int(rng.integers(2 * d)))))
    ps = PauliSum(d, n, terms)
    mpo = PauliMpo(ps)
    assert mpo.bond == len(ps)
    want = sum(
        c * dense_pauli(d, p.x, p.z, p.phase) for c, p in ps.terms
    )
    np.testing.assert_allclose(mpo.to_matrix(), want, atol=1e-12)


def test_mpo_single_site_chain():
    ps = PauliSum(3, 1, [(0.5, PauliString.single(3, 1, 0, 0, 1)),
                         (0.5j, PauliString.single(3, 1, 0, 1, 2))])
    mpo = PauliMpo(ps)
    want = 0.5 * site_matrix(3, 0, 1) + 0.5j * site_matrix(3, 1, 2)
    np.testing.assert_allclose(mpo.to_matrix(), want, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_mpo_tensors_bit_identical_to_per_site_reference(n, d, k):
    rng = np.random.default_rng(100 * d + 10 * n + k)
    terms = [(complex(rng.normal(), rng.normal()),
              PauliString(d, rng.integers(d, size=n), rng.integers(d, size=n),
                          int(rng.integers(2 * d))))
             for _ in range(k)]
    got = PauliMpo(PauliSum(d, n, terms)).tensors
    want = pauli_mpo_per_site(PauliSum(d, n, terms))
    assert len(got) == len(want) == n
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_expectation_mpo_matches_dense():
    rng = np.random.default_rng(61)
    d, n = 3, 3
    ops = random_op_list(rng, n, d, 8)
    m = mps_from_ops(n, d, ops)
    v = dense_from_ops(n, d, ops)
    terms = []
    for _ in range(3):
        x = rng.integers(d, size=n)
        z = rng.integers(d, size=n)
        terms.append((complex(rng.normal(), rng.normal()),
                      PauliString(d, x, z)))
    ps = PauliSum(d, n, terms)
    mpo = PauliMpo(ps)
    want = v.conj() @ (mpo.to_matrix() @ v)
    assert m.expectation_mpo(mpo) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_apply_single_term_pauli_sum(d):
    rng = np.random.default_rng(62 + d)
    n = 3
    ops = random_op_list(rng, n, d, 6)
    m = mps_from_ops(n, d, ops)
    v = dense_from_ops(n, d, ops)
    p = PauliString(d, rng.integers(d, size=n), rng.integers(d, size=n),
                    int(rng.integers(2 * d)))
    ps = PauliSum(d, n, [(1.0, p)])
    err = m.apply_pauli_sum(ps)
    assert err == 0.0
    want = dense_pauli(d, p.x, p.z, p.phase) @ v
    np.testing.assert_allclose(m.to_dense(), want, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_apply_multi_term_pauli_sum_unitary(d):
    # a genuine k-term unitary: Pauli expansion of a random 2-site unitary
    rng = np.random.default_rng(63 + d)
    n = 4
    u = random_unitary(rng, d * d)
    ps2 = decompose_unitary(u, d)
    # embed on sites (1, 2) of a 4-site chain
    terms = []
    for c, p in ps2.terms:
        x = np.zeros(n, dtype=np.int64)
        z = np.zeros(n, dtype=np.int64)
        x[1:3], z[1:3] = p.x, p.z
        terms.append((c, PauliString(d, x, z)))
    ps = PauliSum(d, n, terms)
    ops = random_op_list(rng, n, d, 5)
    m = mps_from_ops(n, d, ops)
    v = dense_from_ops(n, d, ops)
    err = m.apply_pauli_sum(ps)
    want = embed_gate(u, [1, 2], n, d) @ v
    overlap = abs(np.vdot(want, m.to_dense()))
    assert overlap > 1 - 1e-10
    assert err < 1e-12
    assert m.canonical_ok()
    assert m.center == 0


def test_apply_pauli_sum_rejects_non_unitary():
    d, n = 2, 3
    eye = PauliString.identity(d, n)
    z0 = PauliString.single(d, n, 0, 0, 1)
    proj = PauliSum(d, n, [(0.5, eye), (0.5, z0)])
    m = Mps.product_state(n, d)
    m.apply_single_site(0, gate_matrix(GateOp("H", (0,)), d))
    scaled = PauliSum(d, n, [(2.0, z0)])
    for chain, ps in ((m, proj), (Mps.product_state(n, d), scaled)):
        # a rejected sum leaves the chain as it was, as a rejected gate does
        before = [t.tobytes() for t in chain.tensors], chain.center
        with pytest.raises(ValueError, match="not unitary"):
            chain.apply_pauli_sum(ps)
        assert ([t.tobytes() for t in chain.tensors], chain.center) == before


def test_apply_pauli_sum_shape_checks():
    m = Mps.product_state(3, 2)
    with pytest.raises(ValueError):
        m.apply_pauli_sum(PauliSum(2, 2, [(1.0, PauliString.identity(2, 2))]))
    with pytest.raises(ValueError):
        m.apply_pauli_sum(PauliSum(2, 3, []))
    with pytest.raises(TypeError):
        m.apply_pauli_sum(PauliString.identity(2, 3))


def test_mpo_grows_bonds_by_at_most_term_count():
    rng = np.random.default_rng(64)
    d, n = 2, 4
    u = random_unitary(rng, d * d)
    ps2 = decompose_unitary(u, d)
    k = len(ps2)
    ops = random_op_list(rng, n, d, 6)
    m = mps_from_ops(n, d, ops)
    before = m.bond_dims()
    terms = []
    for c, p in ps2.terms:
        x = np.zeros(n, dtype=np.int64)
        z = np.zeros(n, dtype=np.int64)
        x[0:2], z[0:2] = p.x, p.z
        terms.append((c, PauliString(d, x, z)))
    # contract the raw MPO without the compression sweep
    raw = m.copy()
    mpo = PauliMpo(PauliSum(d, n, terms))
    for i in range(n):
        w = mpo.tensors[i]
        t = raw.tensors[i]
        x_ = np.tensordot(w, t, axes=([2], [1])).transpose(0, 3, 1, 2, 4)
        a_, l_, s_, b_, r_ = x_.shape
        raw.tensors[i] = x_.reshape(a_ * l_, s_, b_ * r_)
    after = raw.bond_dims()
    assert all(a <= k * b for a, b in zip(after, before))


# ----------------------------------------------------------------------
# memory model


def test_memory_model_product_state():
    # two qutrits, both bonds trivial: 2 tensors of 3 amplitudes each
    assert mps_model_bytes([1], 3) == 96


def test_memory_model_saturated_chain():
    n, d = 12, 3
    chi = [d ** min(b, n - b) for b in range(1, n)]
    assert mps_model_bytes(chi, d) == 19131840


def test_memory_model_matches_tensor_storage():
    rng = np.random.default_rng(65)
    m = mps_from_ops(5, 2, random_op_list(rng, 5, 2, 20))
    direct = sum(16 * t.shape[0] * t.shape[1] * t.shape[2] for t in m.tensors)
    assert mps_model_bytes(m.bond_dims(), 2) == direct


# ----------------------------------------------------------------------
# robust_svd


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def failing_svd(real_svd, fails):
    def svd(a, *args, **kwargs):
        if fails(np.asarray(a)):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)
    return svd


@pytest.mark.parametrize("shape", [(6, 4), (5, 3, 7), (2, 3, 4, 4)])
def test_robust_svd_gesvd_fallback_matches(shape, monkeypatch):
    mat = random_complex(np.random.default_rng(8), shape)
    want = np.linalg.svd(mat, compute_uv=False)
    monkeypatch.setattr(
        np.linalg, "svd", failing_svd(np.linalg.svd, lambda a: True)
    )
    s = robust_svd(mat, compute_uv=False)
    assert s.shape == shape[:-2] + (min(shape[-2:]),)
    np.testing.assert_allclose(s, want, rtol=0, atol=1e-12)
    u, s_uv, vh = robust_svd(mat)
    k = min(shape[-2:])
    assert u.shape == shape[:-1] + (k,)
    assert s_uv.shape == s.shape
    assert vh.shape == shape[:-2] + (k, shape[-1])
    np.testing.assert_allclose(s_uv, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        (u * s_uv[..., None, :]) @ vh, mat, rtol=0, atol=1e-12
    )


def test_dense_schmidt_values_fall_back_to_gesvd(monkeypatch):
    # the dense oracle's spectra go through robust_svd too, so a gesdd
    # failure there recovers as it does in the MPS backends
    amps = random_complex(np.random.default_rng(11), 3 ** 4)
    state = DenseState(3, 4, amps / np.linalg.norm(amps))
    want = [np.linalg.svd(state.amps.reshape(3 ** c, -1), compute_uv=False)
            for c in (1, 2, 3)]
    monkeypatch.setattr(
        np.linalg, "svd", failing_svd(np.linalg.svd, lambda a: True)
    )
    for cut, w in zip((1, 2, 3), want):
        np.testing.assert_allclose(state.schmidt_values(cut), w,
                                   rtol=0, atol=1e-12)


def test_robust_svd_stack_retries_each_matrix(monkeypatch):
    # only the stacked call fails: each matrix is then decomposed on its
    # own by the fast driver, bit for bit as a single call would
    mats = random_complex(np.random.default_rng(9), (5, 6, 4))
    want = np.stack([np.linalg.svd(m, compute_uv=False) for m in mats])
    monkeypatch.setattr(
        np.linalg, "svd", failing_svd(np.linalg.svd, lambda a: a.ndim > 2)
    )
    assert np.array_equal(robust_svd(mats, compute_uv=False), want)


def test_robust_svd_stack_matches_single_calls():
    mats = random_complex(np.random.default_rng(10), (7, 9, 3))
    got = robust_svd(mats, compute_uv=False)
    assert got.shape == (7, 3)
    for m, s in zip(mats, got):
        assert np.array_equal(s, robust_svd(m, compute_uv=False))
