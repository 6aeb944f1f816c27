"""Dense oracle sanity: if these fail, every downstream comparison is moot."""

import numpy as np
import pytest

from quditsim.circuits import Circuit, GateOp, gate_matrix
from quditsim.pauli import PauliString
from quditsim.statevector import DenseState, fidelity, run_circuit

from helpers import (
    basis_state, dense_pauli, random_pauli_exponents, random_unitary,
)


def test_bell_amplitudes():
    c = Circuit(2, 2, [GateOp("H", (0,)), GateOp("SUM", (0, 1))])
    s = run_circuit(c)
    want = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(s.amps, want, atol=1e-14)


def test_fidelity_self_is_one():
    rng = np.random.default_rng(1)
    s = DenseState(3, 2, amps=random_unitary(rng, 9)[:, 0])
    assert abs(fidelity(s, s) - 1) < 1e-12


def test_qutrit_bell_schmidt_values():
    c = Circuit(2, 3, [GateOp("H", (0,)), GateOp("SUM", (0, 1))])
    s = run_circuit(c)
    vals = s.schmidt_values(1)
    assert np.allclose(vals, np.full(3, 1 / np.sqrt(3)), atol=1e-12)


def test_basis_state_and_amplitude():
    s = basis_state(2, 2, (1, 0))
    assert s.amplitude((1, 0)) == 1
    assert s.amplitude((0, 1)) == 0
    with pytest.raises(ValueError):
        basis_state(2, 2, (2, 0))
    with pytest.raises(ValueError):
        s.amplitude((0, 5))
    for digits in ([0], [0, 0, 0, 0]):  # too few or too many digits
        with pytest.raises(ValueError):
            DenseState(2, 3).amplitude(digits)


def test_apply_unitary_validation():
    s = DenseState(2, 3)
    with pytest.raises(ValueError):
        s.apply_unitary(np.eye(4), [0])  # wrong operator size for one site
    with pytest.raises(ValueError):
        s.apply_unitary(np.eye(2), [3])
    with pytest.raises(ValueError):
        s.apply_unitary(np.eye(4), [1, 1])


def test_size_guard_and_override():
    with pytest.raises(ValueError):
        DenseState(3, 10)
    s = DenseState(3, 10, max_dim=3 ** 10)
    assert s.amps.size == 3 ** 10


@pytest.mark.parametrize("d", [2, 3])
def test_two_site_gate_any_order_matches_dense(d):
    # control on a later site than target must still put control first
    rng = np.random.default_rng(5 + d)
    u = random_unitary(rng, d * d)
    s = DenseState(d, 3, amps=random_unitary(rng, d ** 3)[:, 0])
    from helpers import embed_gate
    want = embed_gate(u, [2, 0], 3, d) @ s.amps
    got = s.copy().apply_unitary(u, [2, 0]).amps
    assert np.allclose(got, want, atol=1e-12)


def test_norm_preserved_over_1000_gates():
    from quditsim.circuits import gate_matrix, random_clifford_word

    rng = np.random.default_rng(77)
    s = DenseState(3, 4)
    word = random_clifford_word(4, 3, length=1000, rng_seed=9)
    for g in word:
        s.apply_unitary(gate_matrix(g, 3), g.sites)
    # sprinkle non-Clifford diagonals too
    for _ in range(20):
        th = rng.uniform(0, 2 * np.pi, size=3)
        s.apply_unitary(np.diag(np.exp(1j * th)), [int(rng.integers(0, 4))])
    assert abs(s.norm() - 1) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_pauli_expectation_matches_dense(d):
    rng = np.random.default_rng(13 + d)
    n = 3
    psi = random_unitary(rng, d ** n)[:, 0]
    s = DenseState(d, n, amps=psi)
    for _ in range(5):
        x, z, ph = random_pauli_exponents(rng, d, n)
        p = PauliString(d, x, z, ph)
        want = psi.conj() @ (dense_pauli(d, x, z, ph) @ psi)
        assert abs(s.pauli_expectation(p) - want) < 1e-11


def test_schmidt_cut_validation():
    s = DenseState(2, 3)
    with pytest.raises(ValueError):
        s.schmidt_values(0)
    with pytest.raises(ValueError):
        s.schmidt_values(3)


def test_run_circuit_applies_in_order():
    # X then Z ordering matters in the phase picked up on |1>
    d = 3
    c = Circuit(1, d, [GateOp("X", (0,)), GateOp("Z", (0,))])
    s = run_circuit(c)
    w = np.exp(2j * np.pi / d)
    want = np.zeros(d, dtype=complex)
    want[1] = w  # Z after X: phase w**1 on |1>
    assert np.allclose(s.amps, want, atol=1e-14)
    assert np.allclose(run_circuit(c).amps,
                       gate_matrix(GateOp("Z", (0,)), d)
                       @ gate_matrix(GateOp("X", (0,)), d)
                       @ DenseState(d, 1).amps, atol=1e-14)
