"""Gates: GateOp validation, dense matrices, inversion, the swap identity,
plus self-checks of the embedding oracle the tableau tests lean on."""

import dataclasses

import numpy as np
import pytest

from quditsim.gates import (
    NON_CLIFFORD_NAMES,
    TWO_SITE_NAMES,
    GateOp,
    gate_matrix,
    inverse_gate,
    invert_word,
)

from helpers import (
    CLIFFORD_NAMES,
    dense_clock,
    dense_shift,
    dense_word_unitary,
    embed_gate,
    embed_single,
    gate,
    random_clifford_gates,
    sum_permutation,
    swap_permutation,
    swap_word,
)

DS = [2, 3, 5]



def sites_for(name):
    return (0, 1) if name in TWO_SITE_NAMES else (0,)


def matrix(name, d):
    return gate_matrix(GateOp(name, sites_for(name)), d)


# -- dense forms -------------------------------------------------------------

@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("name", CLIFFORD_NAMES)
def test_clifford_gate_matrix_is_unitary(name, d):
    u = matrix(name, d)
    dim = u.shape[0]
    assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)


def test_hadamard_d2():
    want = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert np.allclose(matrix("H", 2), want, atol=1e-15)


def test_phase_gate_d3():
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(matrix("S", 3), np.diag([1, 1, w]), atol=1e-15)


def test_phase_gate_d2():
    assert np.allclose(matrix("S", 2), np.diag([1, 1j]), atol=1e-15)


@pytest.mark.parametrize("d", DS)
def test_shift_and_clock(d):
    assert np.allclose(matrix("X", d), dense_shift(d), atol=1e-15)
    assert np.allclose(matrix("Z", d), dense_clock(d), atol=1e-15)


@pytest.mark.parametrize("d", DS)
def test_sum_is_the_expected_permutation(d):
    assert np.allclose(matrix("SUM", d), sum_permutation(2, d, 0, 1),
                       atol=1e-15)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("name", ["Hdg", "Sdg", "SUMdg"])
def test_dg_names_are_daggers(name, d):
    base = matrix(name[:-2], d)
    assert np.allclose(matrix(name, d), base.conj().T, atol=1e-15)


# -- embedding oracle self-checks ---------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_embed_gate_matches_kron_single(d):
    rng = np.random.default_rng(11)
    u = np.linalg.qr(rng.standard_normal((d, d))
                     + 1j * rng.standard_normal((d, d)))[0]
    for site in range(3):
        assert np.allclose(embed_gate(u, [site], 3, d),
                           embed_single(u, site, 3, d), atol=1e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_embed_gate_sum_orders(d):
    u = matrix("SUM", d)
    assert np.allclose(embed_gate(u, [0, 1], 2, d), sum_permutation(2, d, 0, 1))
    assert np.allclose(embed_gate(u, [1, 0], 2, d), sum_permutation(2, d, 1, 0))
    assert np.allclose(embed_gate(u, [2, 0], 3, d), sum_permutation(3, d, 2, 0))
    assert np.allclose(embed_gate(u, [0, 2], 3, d), sum_permutation(3, d, 0, 2))


# -- inversion ----------------------------------------------------------------

@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("name", CLIFFORD_NAMES)
def test_inverse_gate_cancels(name, d):
    g = GateOp(name, sites_for(name))
    n = len(g.sites)
    u = dense_word_unitary([g] + inverse_gate(g, d), n, d)
    assert np.allclose(u, np.eye(d ** n), atol=1e-12)


@pytest.mark.parametrize("name", sorted(NON_CLIFFORD_NAMES))
def test_inverse_gate_rejects_non_clifford(name):
    params = {"RZ": (0.5,), "U1": (0.1, 0.2)}.get(name, ())
    with pytest.raises(ValueError, match="not a Clifford gate"):
        inverse_gate(GateOp(name, (0,), params), 2)


@pytest.mark.parametrize("d", DS)
def test_invert_word_cancels(d):
    rng = np.random.default_rng(500 + d)
    word = random_clifford_gates(rng, 3, d, 25)
    word += [gate("X", 1), gate("Z", 2), gate("Hdg", 0), gate("SUMdg", 2, 0),
             gate("Sdg", 1), gate("SWAP", 0, 2)]
    u = dense_word_unitary(word + invert_word(word, d), 3, d)
    assert np.allclose(u, np.eye(d ** 3), atol=1e-10)


# -- swap ----------------------------------------------------------------------

@pytest.mark.parametrize("d", DS)
def test_swap_word_dense(d):
    u = dense_word_unitary(swap_word(0, 1), 2, d)
    assert np.allclose(u, swap_permutation(2, d, 0, 1), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_swap_word_nonadjacent_and_reversed(d):
    assert np.allclose(dense_word_unitary(swap_word(2, 0), 3, d),
                       swap_permutation(3, d, 2, 0), atol=1e-12)
    assert np.allclose(dense_word_unitary(swap_word(1, 0), 2, d),
                       swap_permutation(2, d, 1, 0), atol=1e-12)


# -- validation -----------------------------------------------------------------

def test_gate_validation():
    with pytest.raises(ValueError):
        GateOp("CNOT", (0, 1))
    with pytest.raises(ValueError):
        GateOp("H", (0, 1))
    with pytest.raises(ValueError):
        GateOp("SUM", (1,))
    with pytest.raises(ValueError):
        GateOp("SUM", (2, 2))
    with pytest.raises(ValueError):
        GateOp("S", (-1,))
    g = gate("SUM", 0, 3)
    assert g.name == "SUM" and g.sites == (0, 3) and g.is_clifford
    assert not GateOp("T", (0,)).is_clifford


def test_gateop_is_slotted_and_frozen():
    g = GateOp("SUM", (0, 1))
    assert not hasattr(g, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.name = "H"
    assert g == GateOp("SUM", [0, 1]) and hash(g) == hash(GateOp("SUM", (0, 1)))
