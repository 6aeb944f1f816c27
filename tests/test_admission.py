"""One admission rule for operators and one rule for gates by dimension.

Every entry point that takes a dense operator admits it through
pauli.checked_unitary, so each rejects the same inputs with the same
ValueError and leaves its state bit-identical. Circuit and gate_matrix
admit ops through gates.check_dimension, so they reject the same
(name, d, params) cases.
"""

import numpy as np
import pytest

from quditsim.circuits import (
    Circuit, CircuitParseError, GateOp, parse, t_doped_circuit,
)
from quditsim.disentanglers import generate_catalog
from quditsim.gates import GATE_NAMES, TWO_SITE_NAMES, gate_matrix
from quditsim.gcamps import new_state
from quditsim.mps import Mps
from quditsim.pauli import decompose_unitary
from quditsim.statevector import DenseState

from helpers import random_unitary

D = 3


@pytest.fixture(scope="module")
def cat3():
    return generate_catalog(D)


def dense_state(rng, cat3):
    amps = rng.standard_normal(D ** 3) + 1j * rng.standard_normal(D ** 3)
    return DenseState(D, 3, amps / np.linalg.norm(amps))


def entangled_mps(rng, cat3):
    m = Mps.product_state(4, D)
    for sites in ((0, 1), (2, 3), (1, 2)):
        m.apply_unitary(random_unitary(rng, D * D), sites)
    return m


def gcamps_state(rng, cat3):
    st = new_state(4, D, cat3)
    for op in t_doped_circuit(4, D, layers=6, rng_seed=3, block_len=8).ops:
        st.apply_op(op)
    assert min(st.mps.bond_dims()) > 1
    return st


def no_state(rng, cat3):
    return None


def snapshot(st):
    """Copies of everything an entry point could change."""
    if st is None:
        return []
    if isinstance(st, DenseState):
        return [st.amps.copy()]
    if isinstance(st, Mps):
        return [t.copy() for t in st.tensors] + [st.center]
    t = st.tableau
    return [t.xs.copy(), t.zs.copy(), t.phases.copy(), *snapshot(st.mps)]


# name: (state builder, sites the operator spans, call)
ENTRY_POINTS = {
    "DenseState.apply_unitary 1 site":
        (dense_state, 1, lambda st, u: st.apply_unitary(u, [1])),
    "DenseState.apply_unitary 2 sites":
        (dense_state, 2, lambda st, u: st.apply_unitary(u, [2, 0])),
    "Mps.apply_single_site":
        (entangled_mps, 1, lambda m, u: m.apply_single_site(1, u)),
    "Mps.apply_two_site":
        (entangled_mps, 2, lambda m, u: m.apply_two_site(1, u)),
    "Mps.apply_unitary adjacent":
        (entangled_mps, 2, lambda m, u: m.apply_unitary(u, (2, 1))),
    "Mps.apply_unitary distant":
        (entangled_mps, 2, lambda m, u: m.apply_unitary(u, (0, 3))),
    "GcampsState.apply_non_clifford":
        (gcamps_state, 1, lambda st, u: st.apply_non_clifford(2, u)),
    "decompose_unitary 1 site":
        (no_state, 1, lambda _, u: decompose_unitary(u, D)),
    "decompose_unitary 2 sites":
        (no_state, 2, lambda _, u: decompose_unitary(u, D)),
}

BAD = {
    "nan": "non-finite",
    "inf": "non-finite",
    "scaled": "deviates from unitarity",
    "shape": "must be",
}


def bad_operator(rng, k, bad):
    dim = D ** k
    if bad == "shape":
        return random_unitary(rng, dim + 1)
    u = random_unitary(rng, dim)
    if bad == "scaled":
        return u * (1 + 1e-9)
    u[0, -1] = float(bad)
    return u


@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_entry_point_rejects_the_same_operators(entry, bad, cat3):
    build, k, call = ENTRY_POINTS[entry]
    rng = np.random.default_rng(list(ENTRY_POINTS).index(entry))
    st = build(rng, cat3)
    before = snapshot(st)
    with pytest.raises(ValueError, match=BAD[bad]):
        call(st, bad_operator(rng, k, bad))
    after = snapshot(st)
    assert len(after) == len(before)
    for a, b in zip(after, before):
        assert np.array_equal(a, b)
    call(st, random_unitary(rng, D ** k))  # a unitary is still admitted


def gate_cases(d):
    """Every GateOp that GateOp itself admits, over a spread of params."""
    params = [(), (0.3,), (0.1, 0.2), (0.1, 0.2, 0.3),
              (0.1, 0.2, 0.3, 0.4, 0.5)]
    for name in GATE_NAMES:
        sites = (0, 1) if name in TWO_SITE_NAMES else (0,)
        for p in params:
            try:
                yield GateOp(name, sites, p)
            except ValueError:
                continue


def rejection(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("d", [2, 3, 5])
def test_circuit_and_gate_matrix_reject_the_same_gates(d):
    rejected = 0
    for op in gate_cases(d):
        want = rejection(lambda: gate_matrix(op, d))
        assert rejection(lambda: Circuit(2, d, [op])) == want, op
        text = f"# qsim v1 d={d} n=2\n" + " ".join(
            [op.name, *map(str, op.sites), *(f"{p:.17g}" for p in op.params)])
        if want is None:
            assert parse(text).ops == [op]
        else:
            rejected += 1
            with pytest.raises(CircuitParseError) as info:
                parse(text)
            assert str(info.value) == f"line 2: {want}"
    # U1 with the wrong count at every d; T, Tdg and RZ where undefined
    assert rejected == {2: 3, 3: 4, 5: 6}[d]
