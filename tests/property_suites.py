"""Randomized property suites sized by the caller.

The per-module tests run these at a quick count; the acceptance suite reruns
them at full count with the documented tolerances.
"""

import numpy as np

from quditsim.circuits import random_clifford_word
from quditsim.pauli import PauliString
from quditsim.tableau import identity_tableau
from helpers import commutation_exponent, dense_pauli, random_pauli_exponents


def run_pauli_dense_suite(cases, seed=7070):
    """multiply and commutation_exponent vs dense matrices, d in {2,3,5}.

    Returns the worst deviation seen (must be <= 1e-12 for the caller to
    assert on).
    """
    rng = np.random.default_rng(seed)
    dims = [2, 3, 5]
    worst = 0.0
    for _ in range(cases):
        d = dims[rng.integers(0, len(dims))]
        n = int(rng.integers(1, 4))
        xa, za, pa = random_pauli_exponents(rng, d, n)
        xb, zb, pb = random_pauli_exponents(rng, d, n)
        a = PauliString(d, xa, za, pa)
        b = PauliString(d, xb, zb, pb)
        da = dense_pauli(d, xa, za, pa)
        db = dense_pauli(d, xb, zb, pb)

        prod = a * b
        dev = np.max(np.abs(dense_pauli(d, prod.x, prod.z, prod.phase) - da @ db))
        worst = max(worst, dev)

        c = commutation_exponent(a, b)
        w = np.exp(2j * np.pi / d)
        dev = np.max(np.abs(da @ db - w ** c * (db @ da)))
        worst = max(worst, dev)
    return worst


def run_symplectic_word_suite(words, seed=7171):
    """Random gate words applied to fresh tableaus; every result must keep
    the symplectic pairing structure. Returns the number of words checked.
    """
    rng = np.random.default_rng(seed)
    dims = [2, 3, 5]
    checked = 0
    for w in range(words):
        d = dims[rng.integers(0, len(dims))]
        n = int(rng.integers(1, 5))
        length = int(rng.integers(1, 25))
        t = identity_tableau(n, d)
        t.apply_word(random_clifford_word(n, d, length=length,
                                          rng_seed=int(rng.integers(1 << 30))))
        if not t.symplectic_ok():
            raise AssertionError(f"symplectic invariant broken at word {w}")
        checked += 1
    return checked


def run_conjugation_roundtrip_suite(cases, seed=7272):
    """conjugate_forward after conjugate_inverse (and the reverse order)
    must reproduce the input string exactly, phase included. Returns the
    number of exact round-trips.
    """
    rng = np.random.default_rng(seed)
    dims = [2, 3, 5]
    ok = 0
    for _ in range(cases):
        d = dims[rng.integers(0, len(dims))]
        n = int(rng.integers(1, 5))
        t = identity_tableau(n, d)
        t.apply_word(random_clifford_word(n, d, length=int(rng.integers(5, 40)),
                                          rng_seed=int(rng.integers(1 << 30))))
        x, z, ph = random_pauli_exponents(rng, d, n)
        p = PauliString(d, x, z, ph)
        back = t.conjugate_forward(t.conjugate_inverse(p))
        again = t.conjugate_inverse(t.conjugate_forward(p))
        for q in (back, again):
            if q.key() != p.key() or q.phase != p.phase:
                raise AssertionError("conjugation round-trip drifted")
        ok += 1
    return ok
