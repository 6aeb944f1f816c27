"""Tableau tests against the dense conjugation oracle.

The heavy lifting is test_generator_images_dense: every Clifford gate name,
every basis row, every d, exponents and phases compared against U P U^dagger
computed densely. Everything downstream (forward/inverse conjugation,
right-composition) reuses words whose dense unitaries are built by the
package-independent helpers.
"""

import tracemalloc

import numpy as np
import pytest

from quditsim import tableau
from quditsim.circuits import random_clifford_word
from quditsim.gcamps import tableau_bytes
from quditsim.gates import TWO_SITE_NAMES, GateOp, inverse_gate, invert_word
from quditsim.pauli import PauliString
from quditsim.tableau import (
    Tableau, _generator_images, _image_tables, identity_tableau,
)

from helpers import (
    CLIFFORD_NAMES,
    _exponent_image_tables,
    apply_word_per_gate,
    commutation_exponent,
    dense_pauli,
    dense_word_unitary,
    gate,
    local_frame,
    random_clifford_gates,
    random_pauli_exponents,
    reference_generator_images,
    right_multiply_full,
    rowprod_loop,
    swap_word,
)

DS = [2, 3, 5]


def random_tableau(rng, n, d, length):
    """Tableau plus the word that built it, so tests can go dense."""
    word = random_clifford_gates(rng, n, d, length)
    t = identity_tableau(n, d)
    t.apply_word(word)
    return t, word


# -- construction ---------------------------------------------------------------

def test_identity_rows_d2():
    t = identity_tableau(2, 2)
    assert t.row(0).to_text() == "t^0 Z0^1"
    assert t.row(1).to_text() == "t^0 Z1^1"
    assert t.row(2).to_text() == "t^0 X0^1"
    assert t.row(3).to_text() == "t^0 X1^1"
    assert np.all(t.phases == 0)


def test_identity_rows_d3_single_site():
    t = identity_tableau(1, 3)
    assert t.row(0) == PauliString(3, [0], [1])
    assert t.row(1) == PauliString(3, [1], [0])


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_identity_symplectic(n, d):
    assert identity_tableau(n, d).symplectic_ok()


def test_identity_rejects_bad_n():
    with pytest.raises(ValueError):
        identity_tableau(0, 3)


# -- single gate images ----------------------------------------------------------

def test_hadamard_maps_stabilizer_to_x():
    t = identity_tableau(1, 2)
    t.apply_gate(gate("H", 0))
    assert t.row(0) == PauliString(2, [1], [0])


def test_phase_gate_qutrit_destabilizer():
    t = identity_tableau(1, 3)
    t.apply_gate(gate("S", 0))
    assert t.row(1) == PauliString(3, [1], [1], 0)


def test_phase_gate_qubit_destabilizer_has_odd_phase():
    # Y = tau X Z at d=2
    t = identity_tableau(1, 2)
    t.apply_gate(gate("S", 0))
    assert t.row(1) == PauliString(2, [1], [1], 1)


def test_sum_qutrit_all_rows_dense():
    t = identity_tableau(2, 3)
    t.apply_gate(gate("SUM", 0, 1))
    u = dense_word_unitary([gate("SUM", 0, 1)], 2, 3)
    basis = [(0, PauliString(3, [0, 0], [1, 0])),
             (1, PauliString(3, [0, 0], [0, 1])),
             (2, PauliString(3, [1, 0], [0, 0])),
             (3, PauliString(3, [0, 1], [0, 0]))]
    for r, p in basis:
        want = u @ p.to_matrix() @ u.conj().T
        assert np.allclose(t.row(r).to_matrix(), want, atol=1e-12)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("name", CLIFFORD_NAMES)
def test_generator_images_dense(name, d):
    """Exponents and phases of every image row match dense conjugation."""
    two_site = name in TWO_SITE_NAMES
    placements = [(0, 1), (1, 0)] if two_site else [(0,), (1,)]
    for sites in placements:
        g = GateOp(name, sites)
        t = identity_tableau(2, d)
        t.apply_gate(g)
        u = dense_word_unitary([g], 2, d)
        for r in range(4):
            p = identity_tableau(2, d).row(r)
            want = u @ p.to_matrix() @ u.conj().T
            assert np.allclose(t.row(r).to_matrix(), want, atol=1e-12), \
                f"{name} on {sites}, row {r}"


@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("name", CLIFFORD_NAMES)
def test_image_tables_match_hand_written_images(name, d):
    """Tables read off gate_matrix equal the ones multiplied out of the
    hand-written generator images, entry for entry, phases included."""
    codes, phase = _image_tables(name, d)
    xo, zo, po = _exponent_image_tables(name, d)
    k = codes.shape[0]
    assert codes.shape == (k, d ** (2 * k)) and phase.shape == (d ** (2 * k),)
    xs, zs = np.divmod(codes.T.reshape(xo.shape), d)
    assert np.array_equal(xs, xo)
    assert np.array_equal(zs, zo)
    assert np.array_equal(phase.reshape(po.shape), po)


@pytest.mark.parametrize("d", [61, 101, 131])
def test_one_site_words_at_large_d(d):
    """One-site tables build at every stored d: a power of a floating root
    of unity drifts into spurious image terms by d=61."""
    names = ("H", "Hdg", "S", "Sdg", "X", "Z")
    for name in names:
        assert _generator_images(name, d) == list(
            reference_generator_images(name, d)), name
    t = identity_tableau(2, d)
    t.apply_gate(gate("H", 0))
    assert t.row(0) == PauliString(d, [d - 1, 0], [0, 0])
    assert t.row(2) == PauliString(d, [0, 0], [1, 0])
    t.apply_word([gate("H", 0)] * 3)
    assert t == identity_tableau(2, d)
    word = [gate(name, site) for site in (0, 1) for name in names]
    t.apply_word(word + invert_word(word, d))
    assert t == identity_tableau(2, d)


def test_generator_images_refuse_a_matrix_that_is_not_clifford():
    # T at d=3 takes X to a sum of Paulis, which no table entry can hold
    with pytest.raises(ArithmeticError, match="terms"):
        _generator_images("T", 3)


@pytest.mark.parametrize("d", DS)
def test_apply_gate_on_nontrivial_rows_dense(d):
    """Image tables must be right on all exponent pairs, not just generators."""
    rng = np.random.default_rng(90 + d)
    t, word = random_tableau(rng, 2, d, 12)
    for name in CLIFFORD_NAMES:
        sites = (1, 0) if name in TWO_SITE_NAMES else (1,)
        g = GateOp(name, sites)
        t2 = t.copy().apply_gate(g)
        u = dense_word_unitary(word + [g], 2, d)
        for r in range(4):
            p = identity_tableau(2, d).row(r)
            want = u @ p.to_matrix() @ u.conj().T
            assert np.allclose(t2.row(r).to_matrix(), want, atol=1e-11)


def test_apply_gate_rejects_out_of_range():
    t = identity_tableau(2, 3)
    with pytest.raises(ValueError):
        t.apply_gate(gate("H", 2))
    with pytest.raises(ValueError):
        t.apply_gate(gate("SUM", 0, 5))


# -- layered word updates ---------------------------------------------------------

def names_for(n):
    return [g for g in CLIFFORD_NAMES if n > 1 or g not in TWO_SITE_NAMES]


def every_name_word(rng, n, length):
    """Gates of every Clifford name that fits n sites, on random sites, so
    a word revisits its sites and layers hold gates of several names."""
    names = names_for(n)
    word = []
    for _ in range(length):
        name = names[int(rng.integers(len(names)))]
        k = 2 if name in TWO_SITE_NAMES else 1
        sites = rng.choice(n, size=k, replace=False)
        word.append(GateOp(name, tuple(int(s) for s in sites)))
    return word


def assert_bit_identical(got, want):
    for a, b in ((got.xs, want.xs), (got.zs, want.zs),
                 (got.phases, want.phases)):
        assert a.dtype == b.dtype == (np.uint8 if got.d <= 127 else np.uint16)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", [1, 3, 8])
def test_apply_word_matches_per_gate_loop(n, d):
    rng = np.random.default_rng(1000 * d + n)
    for _ in range(4):
        start = apply_word_per_gate(identity_tableau(n, d),
                                    every_name_word(rng, n, 3 * n))
        word = every_name_word(rng, n, 60)
        assert {g.name for g in word} == set(names_for(n))
        got = start.copy().apply_word(word)
        assert_bit_identical(got, apply_word_per_gate(start, word))
        assert got.symplectic_ok()


def test_apply_word_matches_per_gate_loop_at_width():
    # one width-shaped block: d=3, n=96, 768 gates
    word = random_clifford_word(96, 3, length=768, rng_seed=5)
    start = apply_word_per_gate(identity_tableau(96, 3),
                                random_clifford_word(96, 3, 200, rng_seed=6))
    got = start.copy().apply_word(iter(word))
    assert_bit_identical(got, apply_word_per_gate(start, word))


def test_apply_word_empty_is_a_no_op():
    t = identity_tableau(3, 5).apply_word([gate("S", 1), gate("SUM", 2, 0)])
    before = t.copy()
    assert t.apply_word([]) is t
    assert t == before


def test_apply_word_out_of_range_leaves_tableau_untouched():
    t = identity_tableau(3, 3).apply_word([gate("S", 1), gate("SUM", 0, 2)])
    before = t.copy()
    with pytest.raises(ValueError):
        t.apply_word([gate("H", 0), gate("SUM", 1, 7)])
    assert t == before


@pytest.mark.parametrize("bad", [
    (3, GateOp("T", (1,))),
    (3, GateOp("U1", (0,), (0.1, 0.2, 0.3))),
    (5, GateOp("T", (1,))),
    (3, GateOp("RZ", (2,), (0.3,))),
    (5, GateOp("U1", (0,), (0.1, 0.2, 0.3))),
])
def test_apply_word_non_clifford_leaves_tableau_untouched(bad):
    # the name is refused before any matrix is asked for, so T at d=5 or RZ
    # at d=3 report a non-Clifford gate, not a missing matrix
    d, bad = bad
    t = identity_tableau(3, d).apply_word([gate("S", 1), gate("SUM", 0, 2)])
    before = t.copy()
    with pytest.raises(ValueError, match=f"^{bad.name} is not a Clifford gate$"):
        t.apply_word([gate("H", 0), bad, gate("SUM", 1, 2)])
    assert t == before


@pytest.mark.parametrize("d", DS)
def test_native_swap_matches_swap_word(d):
    """SWAP's own image table is bit-identical to its five-gate word, on
    adjacent, distant and reversed sites of a random tableau."""
    rng = np.random.default_rng(700 + d)
    start, _ = random_tableau(rng, 6, d, 40)
    for a, b in [(2, 3), (3, 2), (0, 5), (5, 1)]:
        got = start.copy().apply_word([gate("SWAP", a, b)])
        assert_bit_identical(got, start.copy().apply_word(swap_word(a, b)))


# -- forward conjugation ----------------------------------------------------------

@pytest.mark.parametrize("d", DS)
def test_conjugate_forward_identity(d):
    rng = np.random.default_rng(7)
    t = identity_tableau(3, d)
    for _ in range(5):
        x, z, ph = random_pauli_exponents(rng, d, 3)
        p = PauliString(d, x, z, ph)
        assert t.conjugate_forward(p) == p


def test_conjugate_forward_after_h():
    t = identity_tableau(1, 2)
    t.apply_gate(gate("H", 0))
    assert t.conjugate_forward(PauliString(2, [0], [1])) == PauliString(2, [1], [0])


@pytest.mark.parametrize("d", DS)
def test_conjugate_forward_random_word_dense(d):
    rng = np.random.default_rng(40 + d)
    t, word = random_tableau(rng, 3, d, 20)
    u = dense_word_unitary(word, 3, d)
    for _ in range(6):
        x, z, ph = random_pauli_exponents(rng, d, 3)
        p = PauliString(d, x, z, ph)
        got = t.conjugate_forward(p)
        want = u @ dense_pauli(d, x, z, ph) @ u.conj().T
        assert np.allclose(got.to_matrix(), want, atol=1e-11)


def test_conjugate_forward_shape_mismatch():
    t = identity_tableau(2, 3)
    with pytest.raises(ValueError):
        t.conjugate_forward(PauliString(3, [1], [0]))
    with pytest.raises(ValueError):
        t.conjugate_forward(PauliString(2, [1, 0], [0, 0]))


# -- inverse conjugation ------------------------------------------------------------

def test_conjugate_inverse_identity_tableau():
    p = PauliString(3, [1, 0], [0, 1], 4)
    t = identity_tableau(2, 3)
    assert t.conjugate_inverse(p) == p


@pytest.mark.parametrize("d", DS)
def test_conjugate_inverse_roundtrip_exact(d):
    rng = np.random.default_rng(60 + d)
    for _ in range(8):
        t, _ = random_tableau(rng, 3, d, 30)
        x, z, ph = random_pauli_exponents(rng, d, 3)
        q = PauliString(d, x, z, ph)
        p = t.conjugate_forward(q)
        back = t.conjugate_inverse(p)
        assert back == q  # exact, including phase


@pytest.mark.parametrize("d", [2, 3])
def test_conjugate_inverse_dense(d):
    rng = np.random.default_rng(77 + d)
    t, word = random_tableau(rng, 3, d, 30)
    u = dense_word_unitary(word, 3, d)
    for _ in range(6):
        x, z, ph = random_pauli_exponents(rng, d, 3)
        p = PauliString(d, x, z, ph)
        got = t.conjugate_inverse(p)
        want = u.conj().T @ dense_pauli(d, x, z, ph) @ u
        assert np.allclose(got.to_matrix(), want, atol=1e-11)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", [8, 40])
def test_conjugate_inverse_forward_roundtrip_wide(n, d):
    """The closed form at widths far past the dense oracle, phase included."""
    rng = np.random.default_rng(1000 * n + d)
    t, _ = random_tableau(rng, n, d, 6 * n)
    assert t.symplectic_ok()
    for _ in range(6):
        x, z, ph = random_pauli_exponents(rng, d, n)
        q = PauliString(d, x, z, ph)
        p = t.conjugate_forward(q)
        assert t.conjugate_inverse(p) == q
        assert t.conjugate_forward(t.conjugate_inverse(q)) == q


def test_conjugate_inverse_corrupted_tableau_raises():
    base = identity_tableau(2, 3)
    zs = base.zs.copy()
    zs[1] = zs[0]  # duplicate stabilizer row: exponent matrix singular
    t = Tableau(3, 2, base.xs, zs, base.phases)
    with pytest.raises(np.linalg.LinAlgError):
        t.conjugate_inverse(PauliString(3, [0, 0], [0, 1]))


# -- right multiplication -------------------------------------------------------------

def test_right_multiply_empty_word():
    # the empty word's local tableau is the identity
    rng = np.random.default_rng(3)
    t, _ = random_tableau(rng, 3, 3, 15)
    before = t.dump()
    t.right_multiply(identity_tableau(2, 3), (2, 0))
    assert t.dump() == before


def test_right_multiply_identity_base():
    t = identity_tableau(2, 3).right_multiply(*local_frame([gate("H", 0)], 3))
    want = identity_tableau(2, 3).apply_gate(gate("H", 0))
    assert t == want


@pytest.mark.parametrize("d", [2, 3])
def test_right_multiply_dense(d):
    rng = np.random.default_rng(85 + d)
    t, word_a = random_tableau(rng, 3, d, 15)
    word_b = [gate("SUM", 2, 1), gate("H", 2), gate("S", 1), gate("SUMdg", 1, 2),
              gate("SWAP", 0, 2)]
    t.right_multiply(*local_frame(word_b, d))
    u = dense_word_unitary(word_a, 3, d) @ dense_word_unitary(word_b, 3, d)
    for r in range(6):
        p = identity_tableau(3, d).row(r)
        want = u @ p.to_matrix() @ u.conj().T
        assert np.allclose(t.row(r).to_matrix(), want, atol=1e-11)


@pytest.mark.parametrize("d", [2, 3])
def test_right_multiply_matches_prepended_word(d):
    # C, then W on the right, equals applying W first and then C's word
    rng = np.random.default_rng(19 + d)
    t, word = random_tableau(rng, 3, d, 10)
    extra = random_clifford_gates(rng, 3, d, 6)
    t.right_multiply(*local_frame(extra, d))
    ref = identity_tableau(3, d).apply_word(extra).apply_word(word)
    assert t == ref


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", [8, 24])
def test_right_multiply_two_site_matches_full_construction(n, d):
    rng = np.random.default_rng(300 + 7 * n + d)
    for _ in range(6):
        t, _ = random_tableau(rng, n, d, 5 * n)
        i = int(rng.integers(0, n - 1))
        word = [gate("SUM", i + 1, i), gate("H", i), gate("S", i + 1),
                gate("SUMdg", i, i + 1), gate("Hdg", i + 1)]
        want = right_multiply_full(t, word)
        before = t.copy()
        t.right_multiply(*local_frame(word, d))
        assert t == want
        assert t.symplectic_ok()
        others = [r for r in range(2 * n) if r % n not in (i, i + 1)]
        assert t.xs[others].tobytes() == before.xs[others].tobytes()
        assert t.zs[others].tobytes() == before.zs[others].tobytes()
        assert t.phases[others].tobytes() == before.phases[others].tobytes()


def test_right_multiply_far_apart_sites():
    rng = np.random.default_rng(4)
    t, _ = random_tableau(rng, 9, 3, 40)
    word = [gate("SUM", 7, 1), gate("S", 4), gate("SUMdg", 1, 7),
            gate("SWAP", 8, 1)]
    want = right_multiply_full(t, word)
    assert t.right_multiply(*local_frame(word, 3)) == want


@pytest.mark.parametrize("d", [*DS, 7])
@pytest.mark.parametrize("sites", [(5, 4, 3), (6, 1, 3), (8, 0), (0, 8), (2,)],
                         ids=["descending", "shuffled", "far", "far-ascending",
                              "one-site"])
def test_right_multiply_any_site_order_matches_full_construction(sites, d):
    """A local tableau placed on sites in any order and at any distance
    equals the full construction on the word mapped to those sites, bit
    for bit, phases included, on a first call and on a second one that
    reads the cached absorption weights; every changed row is rowprod_loop
    of the old rows raised to the matching row of the local tableau."""
    rng = np.random.default_rng(500 + 11 * d + sum(sites))
    n, m = 9, len(sites)
    t, _ = random_tableau(rng, n, d, 60)
    local_word = random_clifford_word(m, d, length=12, rng_seed=d + m)
    if m > 1:
        local_word += [gate("SWAP", 0, m - 1), gate("Hdg", m - 1),
                       gate("SUMdg", m - 1, 0), gate("X", 0), gate("Z", m - 1)]
    local = identity_tableau(m, d).apply_word(local_word)
    mapped = [GateOp(g.name, tuple(sites[s] for s in g.sites))
              for g in local_word]
    for _ in range(2):
        old = t.copy()
        want = right_multiply_full(t, mapped)
        assert_bit_identical(t.right_multiply(local, sites), want)
        assert t.symplectic_ok()
        for j in range(2 * m):
            row = local.row(j)
            xpow = np.zeros(n, dtype=np.int64)
            zpow = np.zeros(n, dtype=np.int64)
            xpow[list(sites)], zpow[list(sites)] = row.x, row.z
            x, z, ph = rowprod_loop(old.xs, old.zs, old.phases, xpow, zpow, d)
            r = sites[j % m] + (n if j >= m else 0)
            assert t.row(r) == PauliString(d, x, z, ph + row.phase)


@pytest.mark.parametrize("local_d, sites", [
    (5, (0, 1)), (3, (0, 1, 2)), (3, (1,)), (3, (1, 1)), (3, (1, 3)),
    (3, (-1, 0)),
], ids=["wrong-d", "extra-site", "missing-site", "repeated-site", "past-n",
        "negative"])
def test_right_multiply_rejects_mismatch_untouched(local_d, sites):
    rng = np.random.default_rng(8)
    t, _ = random_tableau(rng, 3, 3, 20)
    before = t.copy()
    local = identity_tableau(2, local_d).apply_word([gate("SUM", 0, 1)])
    with pytest.raises(ValueError):
        t.right_multiply(local, sites)
    assert_bit_identical(t, before)


def test_right_multiply_rejects_out_of_range():
    t = identity_tableau(3, 3)
    with pytest.raises(ValueError):
        t.right_multiply(*local_frame([gate("SUM", 1, 3)], 3))


def test_absorption_cache_is_bounded_and_read_only(monkeypatch):
    """Past its size the cache drops its oldest entry, every entry is
    read-only, and a dropped or evicted frame still composes exactly."""
    monkeypatch.setattr(tableau, "_WEIGHTS_CACHE", {})
    monkeypatch.setattr(tableau, "_WEIGHTS_CACHE_SIZE", 3)
    rng = np.random.default_rng(77)
    t, _ = random_tableau(rng, 5, 3, 30)
    words = [[gate("H", 0)], [gate("S", 1)], [gate("SUM", 0, 1)],
             [gate("SUMdg", 1, 0)], [gate("SWAP", 0, 1)], [gate("H", 0)]]
    for word in words:
        local = identity_tableau(2, 3).apply_word(word)
        want = right_multiply_full(t, [GateOp(g.name, tuple(
            (3, 1)[s] for s in g.sites)) for g in word])
        assert t.right_multiply(local, (3, 1)) == want
        assert len(tableau._WEIGHTS_CACHE) <= 3
    for k, w in tableau._WEIGHTS_CACHE.values():
        assert not k.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 1


# -- invariants ---------------------------------------------------------------------

@pytest.mark.parametrize("d", DS)
def test_gate_inverse_restores_exactly(d):
    rng = np.random.default_rng(23 + d)
    t, _ = random_tableau(rng, 3, d, 10)
    for name in CLIFFORD_NAMES:
        sites = (0, 2) if name in TWO_SITE_NAMES else (1,)
        g = GateOp(name, sites)
        t2 = t.copy().apply_gate(g)
        for h in inverse_gate(g, d):
            t2.apply_gate(h)
        assert t2 == t


@pytest.mark.parametrize("d", DS)
def test_symplectic_preserved_by_random_words(d):
    rng = np.random.default_rng(31 + d)
    for _ in range(40):
        t, _ = random_tableau(rng, 4, d, 25)
        assert t.symplectic_ok()
        assert commutation_exponent(t.row(0), t.row(4)) == 1


@pytest.mark.parametrize("d", [2, 3])
def test_clifford_only_expectations_match_dense(d):
    """Measurement-free Pauli expectations from the tableau alone.

    For |psi> = C|0...0>, <psi|P|psi> = <0|C^dag P C|0> which is the inverse
    image's phase when its X block vanishes on every site, else zero.
    """
    rng = np.random.default_rng(101 + d)
    for _ in range(10):
        t, word = random_tableau(rng, 3, d, 18)
        u = dense_word_unitary(word, 3, d)
        psi = u[:, 0]
        x, z, ph = random_pauli_exponents(rng, d, 3)
        p = PauliString(d, x, z, ph)
        q = t.conjugate_inverse(p)
        got = q.phase_value() if not q.x.any() else 0.0
        want = psi.conj() @ (dense_pauli(d, x, z, ph) @ psi)
        assert abs(got - want) < 1e-12


# -- storage width ---------------------------------------------------------------------

# one byte holds every exponent and phase for d <= 127; at 11 and 13 the
# commutation and row products overflow it many times over
TIGHT_DS = [11, 13]
WIDE_N = 24


def assert_stored_as(t, dtype):
    for a in (t.xs, t.zs, t.phases):
        assert a.dtype == dtype


def test_constructor_refuses_values_a_narrow_cast_would_wrap():
    """-1 cast to uint8 reads 255, and 255 mod 3 = 0 where -1 mod 3 = 2; a
    z of d packs into the code of x + 1. An exponent outside [0, d) or a
    phase outside [0, 2d) raises instead of wrapping."""
    d, n = 3, 2
    base = identity_tableau(n, d)
    for which, bad in ((0, -1), (0, d), (1, -1), (1, d)):
        blocks = [base.xs.astype(np.int64), base.zs.astype(np.int64)]
        blocks[which][1, 0] = bad
        with pytest.raises(ValueError, match="exponents"):
            Tableau(d, n, *blocks, base.phases)
    for bad in (-1, 2 * d):
        phases = base.phases.astype(np.int64)
        phases[2] = bad
        with pytest.raises(ValueError, match="phases"):
            Tableau(d, n, base.xs, base.zs, phases)
    phases[2] = 2 * d - 1
    assert_stored_as(Tableau(d, n, base.xs, base.zs, phases), np.uint8)


def test_exponents_are_read_only_decodings():
    """xs and zs decode the stored codes; writing to them raises rather
    than changing a copy that the tableau never reads back."""
    rng = np.random.default_rng(5)
    t, _ = random_tableau(rng, 6, 5, 30)
    assert np.array_equal(t.codes, t.xs.astype(np.int64) * 5 + t.zs)
    for a in (t.xs, t.zs):
        with pytest.raises(ValueError):
            a[0, 0] = 1
    with pytest.raises(AttributeError):
        t.xs = t.zs


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [1, 8, 96])
def test_stored_bytes_are_the_memory_model(n, d):
    """One byte per code and per phase up to d = 13: tableau_bytes(n)
    bytes, at the largest values and after a word."""
    rng = np.random.default_rng(10 * n + d)
    xs = rng.integers(0, d, (2 * n, n))
    zs = rng.integers(0, d, (2 * n, n))
    phases = rng.integers(0, 2 * d, 2 * n)
    xs[0, 0], zs[0, 0], phases[0] = d - 1, d - 1, 2 * d - 1
    t = Tableau(d, n, xs, zs, phases)
    assert int(t.codes.max()) == d * d - 1
    t.apply_word([GateOp(name, (int(s),)) for name, s in zip(
        rng.choice(["H", "S", "X", "Z"], 4 * n), rng.integers(0, n, 4 * n))])
    for a in (t.codes, t.phases):
        assert a.dtype == np.uint8
    assert t.nbytes == tableau_bytes(n)


@pytest.mark.parametrize("d, code_type, phase_type", [
    (17, np.uint16, np.uint8), (131, np.uint16, np.uint16),
    (251, np.uint16, np.uint16), (257, np.uint32, np.uint16)])
def test_code_width_past_d_13(d, code_type, phase_type):
    """Two bytes per code from d = 17 up to d = 251, the last prime with
    d^2 - 1 < 2^16, and four from d = 257."""
    n = 5
    rng = np.random.default_rng(d)
    xs = rng.integers(0, d, (2 * n, n))
    zs = rng.integers(0, d, (2 * n, n))
    xs[0, 0], zs[0, 0] = d - 1, d - 1
    t = Tableau(d, n, xs, zs, rng.integers(0, 2 * d, 2 * n))
    assert t.codes.dtype == code_type and t.phases.dtype == phase_type
    assert int(t.codes.max()) == d * d - 1
    assert np.array_equal(t.xs, xs) and np.array_equal(t.zs, zs)
    assert t.nbytes == (2 * n * n * np.dtype(code_type).itemsize
                        + 2 * n * np.dtype(phase_type).itemsize)


def test_word_update_peaks_below_20_bytes_per_entry():
    """A width-shaped word (8n gates) at n = 256, d = 3 works in one int64
    site-major copy of the codes: its traced peak stays below 20 bytes per
    (row, site). Packing and unpacking two exponent arrays took 26.5."""
    n, d = 256, 3
    t = identity_tableau(n, d).apply_word(
        random_clifford_word(n, d, length=8 * n, rng_seed=1))  # builds tables
    word = random_clifford_word(n, d, length=8 * n, rng_seed=2)
    tracemalloc.start()
    try:
        t.apply_word(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (2 * n * n) < 20


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("rows", [1, 5, 7])
def test_apply_word_in_row_blocks_matches_one_block(rows, d, monkeypatch):
    # a budget of `rows` int64 rows of n codes: blocks of 5 and 7 end inside
    # the stabilizer half and straddle the stabilizer/destabilizer boundary
    n = 8
    rng = np.random.default_rng(900 + 10 * d + rows)
    t, _ = random_tableau(rng, n, d, 4 * n)
    word = every_name_word(rng, n, 80)
    want = t.copy().apply_word(word)
    monkeypatch.setattr(tableau, "WORKING_SET_BYTES", 8 * n * rows)
    got = t.copy().apply_word(word)
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.phases, want.phases)
    assert_bit_identical(got, apply_word_per_gate(t, word))


def test_word_update_at_n_1024_keeps_the_working_set_budget():
    """A width-shaped word (8n gates) at n = 1024, d = 3 works in int64 row
    blocks of at most WORKING_SET_BYTES: its traced peak stays below 4 MiB
    (2.2 MiB). One site-major copy of all 2n rows traced 28.2 MiB."""
    n, d = 1024, 3
    t = identity_tableau(n, d).apply_word(
        random_clifford_word(n, d, length=n, rng_seed=1))  # builds tables
    word = random_clifford_word(n, d, length=8 * n, rng_seed=2)
    tracemalloc.start()
    try:
        t.apply_word(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20


@pytest.mark.parametrize("d", TIGHT_DS)
def test_apply_word_matches_per_gate_loop_where_a_byte_is_tight(d):
    rng = np.random.default_rng(70 + d)
    t, _ = random_tableau(rng, WIDE_N, d, 4 * WIDE_N)
    word = random_clifford_gates(rng, WIDE_N, d, 300)
    want = apply_word_per_gate(t, word)
    t.apply_word(word)
    assert_bit_identical(t, want)
    assert_stored_as(t, np.uint8)
    assert t.symplectic_ok()


@pytest.mark.parametrize("d", TIGHT_DS)
@pytest.mark.parametrize("sites", [(23, 4, 3), (6, 1, 13), (20, 0), (0, 20)],
                         ids=["descending", "shuffled", "far", "far-ascending"])
def test_right_multiply_matches_full_construction_where_a_byte_is_tight(
        sites, d):
    rng = np.random.default_rng(800 + 11 * d + sum(sites))
    m = len(sites)
    t, _ = random_tableau(rng, WIDE_N, d, 4 * WIDE_N)
    local_word = random_clifford_word(m, d, length=12, rng_seed=d + m)
    local_word += [gate("SWAP", 0, m - 1), gate("Hdg", m - 1),
                   gate("SUMdg", m - 1, 0), gate("X", 0), gate("Z", m - 1)]
    local = identity_tableau(m, d).apply_word(local_word)
    mapped = [GateOp(g.name, tuple(sites[s] for s in g.sites))
              for g in local_word]
    want = right_multiply_full(t, mapped)
    t.right_multiply(local, sites)
    assert_bit_identical(t, want)
    assert_stored_as(t, np.uint8)
    assert t.symplectic_ok()


@pytest.mark.parametrize("d", TIGHT_DS)
def test_conjugate_inverse_roundtrip_where_a_byte_is_tight(d):
    rng = np.random.default_rng(90 + d)
    t = identity_tableau(WIDE_N, d).apply_word(
        random_clifford_gates(rng, WIDE_N, d, 300))
    assert_stored_as(t, np.uint8)
    assert t.symplectic_ok()
    for _ in range(6):
        x, z, ph = random_pauli_exponents(rng, d, WIDE_N)
        q = PauliString(d, x, z, ph)
        assert t.conjugate_inverse(t.conjugate_forward(q)) == q
        assert t.conjugate_forward(t.conjugate_inverse(q)) == q


def hand_written_frame(name, d):
    """Local tableau of one Clifford gate from its hand-written generator
    images, built without the package's image tables."""
    images = reference_generator_images(name, d)  # X_0, Z_0[, X_1, Z_1]
    k = len(images) // 2
    rows = images[1::2] + images[0::2]  # Z rows first, then X rows
    return Tableau(d, k, [p.x for p in rows], [p.z for p in rows],
                   [p.phase for p in rows])


def test_two_byte_storage_past_d_127():
    d, n = 131, WIDE_N
    t = identity_tableau(n, d)
    assert_stored_as(t, np.uint16)
    before = t.copy()
    t.right_multiply(identity_tableau(2, d), (5, 17))
    assert t == before
    # scramble the frame with gates whose tables are never built at d=131
    rng = np.random.default_rng(131)
    frames = [hand_written_frame(name, d) for name in ("H", "S", "SUM")]
    for _ in range(200):
        local = frames[int(rng.integers(0, 3))]
        sites = rng.choice(n, size=local.n, replace=False).tolist()
        t.right_multiply(local, sites)
    assert_stored_as(t, np.uint16)
    assert t.symplectic_ok()
    assert int(t.xs.max()) > 127 and int(t.phases.max()) > 255
    for _ in range(4):
        x, z, ph = random_pauli_exponents(rng, d, n)
        q = PauliString(d, x, z, ph)
        assert t.conjugate_inverse(t.conjugate_forward(q)) == q
        assert t.conjugate_forward(t.conjugate_inverse(q)) == q


def clifford_frame(rng, n, d):
    """A genuine n-site Clifford frame: a random word's tableau for d <= 7;
    past that, where the two-site tables are not built, 4n hand-written H,
    S and SUM frames placed on random sites."""
    if d <= 7:
        return random_tableau(rng, n, d, 4 * n)[0]
    t = identity_tableau(n, d)
    frames = [hand_written_frame(name, d) for name in ("H", "S", "SUM")]
    for _ in range(4 * n):
        local = frames[int(rng.integers(0, 3))]
        t.right_multiply(local, rng.choice(n, size=local.n, replace=False))
    return t


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 5, 7, 131])
def test_right_multiply_matches_row_loop_and_full_construction(d, m):
    """On Clifford frames, each of the 2m new rows equals the plain row
    loop over the old frame at the local row's exponents placed on the
    sites, plus the local row's phase, bit for bit, with the sites
    scrambled and apart and the local rows arbitrary integers; for d <= 7
    a local word's tableau also equals the full construction."""
    rng = np.random.default_rng(1000 + 10 * d + m)
    n = 11
    for _ in range(6):
        t = clifford_frame(rng, n, d)
        assert t.symplectic_ok()
        sites = rng.choice(n, size=m, replace=False).tolist()
        local = Tableau(d, m, rng.integers(0, d, (2 * m, m)),
                        rng.integers(0, d, (2 * m, m)),
                        rng.integers(0, 2 * d, 2 * m))
        xs, zs, phases = t.xs.copy(), t.zs.copy(), t.phases.copy()
        for r, target in enumerate(sites + [n + s for s in sites]):
            xpow, zpow = np.zeros(n, np.int64), np.zeros(n, np.int64)
            xpow[sites], zpow[sites] = local.xs[r], local.zs[r]
            x, z, ph = rowprod_loop(t.xs, t.zs, t.phases, xpow, zpow, d)
            xs[target], zs[target] = x, z
            phases[target] = (ph + int(local.phases[r])) % (2 * d)
        want = Tableau(d, n, xs, zs, phases)
        got = t.copy().right_multiply(local, sites)
        assert_bit_identical(got, want)
        if d > 7:
            continue
        local_word = random_clifford_word(m, d, length=10, rng_seed=int(
            rng.integers(1 << 30)))
        mapped = [GateOp(g.name, tuple(sites[s] for s in g.sites))
                  for g in local_word]
        got = t.copy().right_multiply(
            identity_tableau(m, d).apply_word(local_word), sites)
        assert_bit_identical(got, right_multiply_full(t, mapped))
        assert got.symplectic_ok()


# -- serialization ---------------------------------------------------------------------

def test_dump_golden():
    t = identity_tableau(2, 3)
    assert t.dump() == ("0 0 | 1 0 | 0\n"
                        "0 0 | 0 1 | 0\n"
                        "1 0 | 0 0 | 0\n"
                        "0 1 | 0 0 | 0")


def test_dump_roundtrip_values():
    rng = np.random.default_rng(2)
    t, _ = random_tableau(rng, 2, 5, 12)
    lines = t.dump().splitlines()
    assert len(lines) == 4
    for r, line in enumerate(lines):
        xs, zs, ph = line.split(" | ")
        assert [int(v) for v in xs.split()] == list(t.xs[r])
        assert [int(v) for v in zs.split()] == list(t.zs[r])
        assert int(ph) == t.phases[r]
