"""Hybrid engine tests: Clifford frame times MPS with catalog disentangling."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from quditsim.circuits import (
    Circuit,
    GateOp,
    gate_matrix,
    random_clifford_word,
    t_doped_circuit,
)
from quditsim import gcamps
from quditsim.disentanglers import (
    DisentanglerCatalog,
    DisentanglerEntry,
    generate_catalog,
    word_symplectic,
)
from quditsim.gates import invert_word
from quditsim.gcamps import GcampsState, new_state, tableau_bytes
from quditsim.mps import Mps, TruncationPolicy, mps_model_bytes
from quditsim.pauli import PauliString
from quditsim.statevector import DenseState, run_circuit
from quditsim.tableau import Tableau, identity_tableau

from helpers import (
    commuted_sum_per_term,
    dense_pauli,
    objective_scalar,
    random_clifford_gates,
    random_unitary,
    reference_gcamps_state,
    relabel_sites,
)

HADAMARD2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# T layers of the n=8 crossover shape: enough for the bonds to reach their
# ceiling (16 at d=2, 81 at d=3)
CROSSOVER_LAYERS = {2: 28, 3: 20}


@pytest.fixture(scope="module")
def cat2():
    return generate_catalog(2)


@pytest.fixture(scope="module")
def cat3():
    return generate_catalog(3)


def catalog_for(d, cat2, cat3):
    return cat2 if d == 2 else cat3


def sum_matrix(d):
    m = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            m[a * d + (a + b) % d, a * d + b] = 1.0
    return m


def replay_overlap(st, ref_amps):
    v = st.dense_vector()
    return abs(np.vdot(v, ref_amps))


# -- construction -----------------------------------------------------------


def test_new_state_is_fresh_product(cat3):
    st = new_state(4, 3, cat3)
    assert st.n == 4 and st.d == 3
    assert st.mps.bond_dims() == [1, 1, 1]
    assert st.tableau.symplectic_ok()
    assert st.gate_log is None
    assert abs(st.mps.amplitude([0, 0, 0, 0]) - 1.0) < 1e-14


def test_new_state_verification_mode_has_log(cat2):
    st = new_state(2, 2, cat2, verify=True)
    assert st.gate_log is not None
    assert st.gate_log.cliffords == [] and st.gate_log.absorbed == []


def test_new_state_rejects_mismatched_catalog(cat2):
    with pytest.raises(ValueError, match="catalog"):
        new_state(3, 3, cat2)


def test_state_rejects_non_catalog():
    with pytest.raises(TypeError):
        GcampsState(identity_tableau(2, 2), Mps.product_state(2, 2), object())


def test_new_state_accepts_policy(cat2):
    pol = TruncationPolicy(chi_max=7, cutoff=1e-10)
    st = new_state(3, 2, cat2, policy=pol)
    assert st.mps.policy == pol


# -- Clifford path ----------------------------------------------------------


def test_apply_clifford_never_touches_mps(cat3):
    st = new_state(4, 3, cat3)
    before = [t.copy() for t in st.mps.tensors]
    for g in random_clifford_word(4, 3, length=60, rng_seed=3):
        st.apply_op(g)
    assert st.mps.bond_dims() == [1, 1, 1]
    for got, want in zip(st.mps.tensors, before):
        assert np.array_equal(got, want)


def test_clifford_expectations_match_dense(cat3):
    n, d = 5, 3
    st = new_state(n, d, cat3)
    word = random_clifford_word(n, d, length=100, rng_seed=9)
    st.apply_clifford_word(word)
    dense = DenseState(d, n)
    for g in word:
        dense.apply_unitary(gate_matrix(g, d), g.sites)
    rng = np.random.default_rng(41)
    for _ in range(12):
        p = PauliString(d, rng.integers(0, d, n), rng.integers(0, d, n))
        want = np.vdot(dense.amps, p.to_matrix() @ dense.amps)
        assert abs(st.expectation(p) - want) < 1e-10


def test_clifford_word_replays_in_log(cat2):
    st = new_state(3, 2, cat2, verify=True)
    word = random_clifford_word(3, 2, length=40, rng_seed=7)
    st.apply_clifford_word(word)
    dense = DenseState(2, 3)
    for g in word:
        dense.apply_unitary(gate_matrix(g, 2), g.sites)
    assert replay_overlap(st, dense.amps) > 1 - 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_clifford_only_runs_keep_all_bonds_one(d, cat2, cat3):
    st = new_state(6, d, catalog_for(d, cat2, cat3))
    ops = []
    rng = np.random.default_rng(17)
    for g in random_clifford_word(6, d, length=300, rng_seed=23):
        ops.append(g)
        if rng.random() < 0.05:
            a, b = rng.choice(6, size=2, replace=False)
            ops.append(GateOp("SWAP", (int(a), int(b))))
    for op in ops:
        assert st.apply_op(op) is None
    assert st.mps.bond_dims() == [1] * 5
    assert st.tableau.symplectic_ok()


# -- non-Clifford pipeline --------------------------------------------------


def test_non_clifford_validation(cat2):
    st = new_state(2, 2, cat2)
    with pytest.raises(ValueError, match="unitary"):
        st.apply_non_clifford(0, np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="operator is not unitary"):
        st.apply_non_clifford(0, np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="d x d"):
        st.apply_non_clifford(0, np.eye(4))
    with pytest.raises(ValueError, match="site"):
        st.apply_non_clifford(5, np.eye(2))


@pytest.mark.parametrize("d", [2, 3])
def test_clifford_gate_through_pipeline_is_exact(d, cat2, cat3):
    # S is Clifford; routing it through the expansion pipeline must still
    # produce the same physical state and fully disentangle.
    n = 3
    st = new_state(n, d, catalog_for(d, cat2, cat3), verify=True)
    prep = random_clifford_word(n, d, length=30, rng_seed=d)
    st.apply_clifford_word(prep)
    st.apply_non_clifford(1, gate_matrix(GateOp("S", (0,)), d))
    dense = DenseState(d, n)
    for g in prep:
        dense.apply_unitary(gate_matrix(g, d), g.sites)
    dense.apply_unitary(gate_matrix(GateOp("S", (0,)), d), (1,))
    assert replay_overlap(st, dense.amps) > 1 - 1e-10
    assert st.mps.bond_dims() == [1] * (n - 1)


def test_single_site_chain_edge_case(cat2):
    st = new_state(1, 2, cat2, verify=True)
    st.apply_op(GateOp("H", (0,)))
    t = np.diag([1.0, np.exp(1j * np.pi / 4)])
    report = st.apply_non_clifford(0, t)
    assert report.bonds_visited == [] and report.gates_applied == []
    dense = DenseState(2, 1)
    dense.apply_unitary(HADAMARD2, (0,))
    dense.apply_unitary(t, (0,))
    assert replay_overlap(st, dense.amps) > 1 - 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_t_gate_after_random_clifford_matches_dense(d, cat2, cat3):
    n = 5
    st = new_state(n, d, catalog_for(d, cat2, cat3), verify=True)
    word = random_clifford_word(n, d, length=50, rng_seed=100 + d)
    st.apply_clifford_word(word)
    u = gate_matrix(GateOp("T", (2,)), d)
    st.apply_non_clifford(2, u)
    dense = DenseState(d, n)
    for g in word:
        dense.apply_unitary(gate_matrix(g, d), g.sites)
    dense.apply_unitary(u, (2,))
    assert replay_overlap(st, dense.amps) > 1 - 1e-8


@pytest.mark.parametrize("d,seed", [(2, 5), (2, 6), (3, 5), (3, 6)])
def test_t_doped_circuit_matches_dense(d, seed, cat2, cat3):
    n = 5
    circ = t_doped_circuit(n, d, layers=4, rng_seed=seed)
    st = new_state(n, d, catalog_for(d, cat2, cat3), verify=True)
    for op in circ.ops:
        st.apply_op(op)
    dense = run_circuit(circ)
    assert replay_overlap(st, dense.amps) > 1 - 1e-8


def test_apply_op_returns_report_only_for_non_clifford(cat3):
    st = new_state(3, 3, cat3)
    assert st.apply_op(GateOp("H", (0,))) is None
    out = st.apply_op(GateOp("T", (0,)))
    assert out is not None and hasattr(out, "gates_applied")


def test_pipeline_u1_gate(cat3):
    # arbitrary diagonal single-site unitary through the same pipeline
    n, d = 4, 3
    circ = t_doped_circuit(n, d, layers=2, rng_seed=2)
    ops = list(circ.ops) + [GateOp("U1", (1,), (0.3, -1.1, 0.7))]
    st = new_state(n, d, cat3, verify=True)
    for op in ops:
        st.apply_op(op)
    dense = run_circuit(Circuit(n, d, ops))
    assert replay_overlap(st, dense.amps) > 1 - 1e-8


# -- disentangling ----------------------------------------------------------


def test_bell_pair_disentangles_to_product(cat2):
    st = new_state(2, 2, cat2, verify=True)
    st.mps.apply_single_site(0, HADAMARD2)
    st.mps.apply_two_site(0, sum_matrix(2))
    bell = st.mps.to_dense().copy()
    assert st.mps.bond_dims() == [2]
    report = st.disentangle((0, 2))
    assert st.mps.bond_dims() == [1]
    assert len(report.gates_applied) >= 1
    before = report.objective_before[0]
    after = report.objective_after[0]
    assert (after[0], round(after[1], 9)) < (before[0], round(before[1], 9))
    # physical state unchanged: C absorbed the inverse of what hit the MPS
    assert replay_overlap(st, bell) > 1 - 1e-12


def test_qutrit_pair_disentangles_to_product(cat3):
    st = new_state(2, 3, cat3, verify=True)
    w = np.exp(2j * np.pi / 3)
    f3 = np.array([[1, 1, 1], [1, w, w * w], [1, w * w, w]], dtype=complex)
    f3 /= np.sqrt(3)
    st.mps.apply_single_site(0, f3)
    st.mps.apply_two_site(0, sum_matrix(3))
    ref = st.mps.to_dense().copy()
    assert st.mps.bond_dims() == [3]
    st.disentangle((0, 2))
    assert st.mps.bond_dims() == [1]
    assert replay_overlap(st, ref) > 1 - 1e-12


def test_disentangle_noop_on_product(cat3):
    st = new_state(4, 3, cat3)
    report = st.disentangle()
    assert report.gates_applied == []
    assert report.passes == 1
    assert not report.early_termination
    assert report.bonds_visited == [0, 1, 2]


def test_disentangle_window_validation(cat2):
    st = new_state(3, 2, cat2)
    for bad in ((0, 9), (2, 1)):
        with pytest.raises(ValueError, match="window"):
            st.disentangle(bad)
    empty = st.disentangle((1, 2))
    assert empty.bonds_visited == [] and empty.passes == 0


def test_disentangle_preserves_state_with_generic_entanglement(cat2):
    # random (non-Clifford) two-site unitaries entangle the MPS; the sweep
    # may or may not reduce chi but must never change the physical state
    rng = np.random.default_rng(77)
    st = new_state(4, 2, cat2, verify=True)
    for i in (0, 1, 2):
        st.mps.apply_two_site(i, random_unitary(rng, 4))
    ref = st.mps.to_dense().copy()
    st.disentangle()
    assert replay_overlap(st, ref) > 1 - 1e-10


def test_objective_never_increases_across_reports(cat2):
    circ = t_doped_circuit(4, 2, layers=5, rng_seed=31)
    st = new_state(4, 2, cat2)
    for op in circ.ops:
        report = st.apply_op(op)
        if report is None:
            continue
        for bond, before in report.objective_before.items():
            after = report.objective_after[bond]
            assert (after[0], after[1] - 1e-9) <= before


def test_report_contents_are_well_formed(cat3):
    circ = t_doped_circuit(5, 3, layers=3, rng_seed=13)
    st = new_state(5, 3, cat3)
    seen_any = False
    for op in circ.ops:
        report = st.apply_op(op)
        if report is None or not report.bonds_visited:
            continue
        seen_any = True
        assert 1 <= report.passes <= 4
        for idx, site in report.gates_applied:
            assert 0 <= idx < cat3.n_entries
            assert 0 <= site < 4
            assert cat3.entries[idx].entangling
        for bond in report.bonds_visited:
            assert 0 <= bond < 4
            assert bond in report.objective_before
            assert bond in report.objective_after
    assert seen_any


def test_pass_limit_one_flags_early_termination(cat2):
    st = new_state(2, 2, cat2)
    st.mps.apply_single_site(0, HADAMARD2)
    st.mps.apply_two_site(0, sum_matrix(2))
    report = st.disentangle((0, 2), pass_limit=1)
    # the single allowed pass accepted a gate, so the sweep could not prove
    # convergence before hitting the limit
    assert report.passes == 1
    assert report.gates_applied
    assert report.early_termination


def test_absorbed_words_change_tableau_not_state(cat2):
    st = new_state(2, 2, cat2, verify=True)
    st.mps.apply_single_site(0, HADAMARD2)
    st.mps.apply_two_site(0, sum_matrix(2))
    frame_before = st.tableau.dump()
    st.disentangle((0, 2))
    assert st.tableau.dump() != frame_before
    assert st.gate_log.absorbed
    assert st.tableau.symplectic_ok()


# -- observables ------------------------------------------------------------


def test_expectation_fresh_state(cat3):
    st = new_state(3, 3, cat3)
    z0 = PauliString.single(3, 3, 0, 0, 1)
    x0 = PauliString.single(3, 3, 0, 1, 0)
    assert abs(st.expectation(z0) - 1.0) < 1e-14
    assert abs(st.expectation(x0)) < 1e-14


def test_expectation_shape_mismatch(cat3):
    st = new_state(3, 3, cat3)
    with pytest.raises(ValueError):
        st.expectation(PauliString.single(3, 4, 0, 0, 1))
    with pytest.raises(ValueError):
        st.expectation(PauliString.single(2, 3, 0, 0, 1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_expectation_matches_dense_after_t_doping(seed, cat3):
    n, d = 5, 3
    circ = t_doped_circuit(n, d, layers=3, rng_seed=40 + seed)
    st = new_state(n, d, cat3)
    for op in circ.ops:
        st.apply_op(op)
    dense = run_circuit(circ)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        x = rng.integers(0, d, n)
        z = rng.integers(0, d, n)
        phase = int(rng.integers(0, 2 * d))
        p = PauliString(d, x, z, phase)
        want = np.vdot(dense.amps, dense_pauli(d, x, z, phase) @ dense.amps)
        got = st.expectation(p)
        assert abs(got - want) < 1e-8
        assert abs(st.hermitian_expectation(p) - want.real) < 1e-8


def test_hermitian_expectation_is_real_part(cat2):
    st = new_state(2, 2, cat2)
    st.apply_op(GateOp("H", (0,)))
    st.apply_op(GateOp("S", (0,)))
    p = PauliString.single(2, 2, 0, 1, 1, phase=1)
    assert st.hermitian_expectation(p) == pytest.approx(st.expectation(p).real)


# -- memory accounting ------------------------------------------------------


def test_memory_estimate_product_pair(cat3):
    st = new_state(2, 3, cat3)
    assert tableau_bytes(2) == 2 * 2 * 3
    assert st.memory_estimate() - tableau_bytes(2) == 96
    assert st.memory_estimate(worst_case=True) - tableau_bytes(2) == 288


def test_memory_estimate_tracks_actual_bonds(cat2):
    st = new_state(3, 2, cat2)
    st.mps.apply_two_site(0, sum_matrix(2))
    st.mps.apply_single_site(0, HADAMARD2)
    st.mps.apply_two_site(0, sum_matrix(2))
    chi = st.mps.bond_dims()
    want = mps_model_bytes(chi, 2) + tableau_bytes(3)
    assert st.memory_estimate() == want


def test_memory_worst_case_caps_at_structural_ceiling(cat2):
    st = new_state(4, 2, cat2)
    # saturate by hand: ceiling bonds for n=4 d=2 are [2, 4, 2]
    tensors = []
    dims = [1, 2, 4, 2, 1]
    for i in range(4):
        tensors.append(np.zeros((dims[i], 2, dims[i + 1]), dtype=complex))
        tensors[-1][0, 0, 0] = 1.0
    st.mps = Mps(2, tensors, center=0, policy=st.mps.policy)
    assert st.memory_estimate(worst_case=True) == st.memory_estimate()


def test_memory_saturated_closed_form(cat3):
    n, d = 12, 3
    dims = [1] + [d ** min(b, n - b) for b in range(1, n)] + [1]
    tensors = [
        np.zeros((dims[i], d, dims[i + 1]), dtype=complex) for i in range(n)
    ]
    for t in tensors:
        t[0, 0, 0] = 1.0
    st = new_state(n, d, cat3)
    st.mps = Mps(d, tensors, center=0, policy=st.mps.policy)
    assert st.memory_estimate() - tableau_bytes(n) == 19_131_840
    assert st.memory_estimate(worst_case=True) == st.memory_estimate()


def sum_catalog(d):
    """Identity plus one SUM: a catalog for a d whose full catalog is too
    large to build in a test, enough for the engine to scan and absorb."""
    entries = []
    for word in ((), (GateOp("SUM", (0, 1)),)):
        entries.append(DisentanglerEntry(word_symplectic(word, d), word, 1,
                                         entangling=bool(word)))
    return DisentanglerCatalog(d, 2, entries)


def scrambled_state(rng, n, d, cat2, cat3):
    """A fresh state whose frame holds a random Clifford word."""
    cat = sum_catalog(d) if d >= 5 else catalog_for(d, cat2, cat3)
    st = new_state(n, d, cat)
    return st.apply_clifford_word(random_clifford_gates(rng, n, d, 6 * n))


def sum_bits(ps):
    """A PauliSum's terms as exact tuples: coefficient, exponents, phase."""
    return [(c, p.x.tobytes(), p.z.tobytes(), p.phase) for c, p in ps.terms]


def named_non_cliffords(d):
    """Matrices of the named non-Clifford gates that d admits."""
    ops = [GateOp("U1", (0,), tuple(0.3 * j * j + 0.1 for j in range(d)))]
    if d in (2, 3):
        ops += [GateOp("T", (0,)), GateOp("Tdg", (0,))]
    if d == 2:
        ops.append(GateOp("RZ", (0,), (0.7,)))
    return [gate_matrix(op, d) for op in ops]


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_commuted_sum_matches_per_term_conjugation(d, cat2, cat3):
    """The sum built from one conjugation per generator and one ordered
    product over their images equals the per-term conjugate_inverse
    reference bit for bit, coefficients and strings alike, for random
    non-diagonal unitaries and the named non-Clifford gates, on every site
    of scrambled frames; a repeat, which the decomposition memo serves,
    too."""
    rng = np.random.default_rng(60 + d)
    n = 7
    for _ in range(3):
        st = scrambled_state(rng, n, d, cat2, cat3)
        us = [random_unitary(rng, d) for _ in range(2)] + named_non_cliffords(d)
        for site in range(n):
            for u in us:
                want = commuted_sum_per_term(st.tableau, site, u)
                for _ in range(2):
                    got = st.commuted_sum(site, u)
                    assert sum_bits(got) == sum_bits(want)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_t_step_conjugates_each_generator_at_most_once(d, cat2, cat3,
                                                       monkeypatch):
    """A step conjugates X and Z at most once each, only the generators its
    terms use: two calls for a non-diagonal u, one for a diagonal one and
    none for the identity, whose only term needs neither."""
    calls = []
    original = Tableau.conjugate_inverse

    def counted(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(Tableau, "conjugate_inverse", counted)
    rng = np.random.default_rng(70 + d)
    st = scrambled_state(rng, 6, d, cat2, cat3)
    for u, want in ([(random_unitary(rng, d), 2), (np.eye(d), 0)]
                    + [(v, 1) for v in named_non_cliffords(d)]):
        calls.clear()
        st.apply_non_clifford(3, u)
        assert len(calls) == want
        assert len({p.key() for p in calls}) == want


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 8, 96])
def test_memory_model_is_the_stored_bytes(n, d, cat2, cat3):
    """After a width-shaped run (two non-Clifford layers after 8n-gate
    Clifford blocks), tableau_bytes(n) is exactly what the tableau stores,
    and memory_estimate is the MPS model plus those bytes."""
    st = new_state(n, d, {2: cat2, 3: cat3}.get(d) or sum_catalog(d))
    u = np.diag(np.exp(0.3j * np.arange(d)))  # diagonal, not Clifford
    for layer in range(2):
        st.apply_clifford_word(random_clifford_word(
            n, d, length=8 * n, rng_seed=10 * n + d + layer))
        st.apply_non_clifford(0, u)
    t = st.tableau
    assert t != identity_tableau(n, d)
    for a in (t.codes, t.phases):
        assert a.dtype == np.uint8
    assert tableau_bytes(n) == t.codes.nbytes + t.phases.nbytes == t.nbytes
    assert st.memory_estimate() == (mps_model_bytes(st.mps.bond_dims(), d)
                                    + tableau_bytes(n))


# -- bookkeeping ------------------------------------------------------------


def test_dense_vector_requires_verification_mode(cat2):
    st = new_state(2, 2, cat2)
    with pytest.raises(RuntimeError, match="verification"):
        st.dense_vector()


def test_copy_is_independent(cat2):
    st = new_state(3, 2, cat2, verify=True)
    st.apply_op(GateOp("H", (0,)))
    twin = st.copy()
    twin.apply_op(GateOp("H", (1,)))
    twin.apply_non_clifford(0, np.diag([1.0, 1j]) @ HADAMARD2 @ np.diag([1.0, -1j]))
    assert len(st.gate_log.cliffords) == 1
    assert st.tableau.dump() != twin.tableau.dump()
    z1 = PauliString.single(2, 3, 1, 0, 1)
    assert abs(st.expectation(z1) - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [GateOp("T", (1,)),
                                 GateOp("U1", (0,), (0.3, -0.7))])
def test_non_clifford_in_word_leaves_frame_and_log_untouched(bad, cat2):
    st = new_state(3, 2, cat2, verify=True)
    st.apply_clifford_word([GateOp("H", (0,)), GateOp("SUM", (0, 2))])
    tableau, log = st.tableau.copy(), st.gate_log.copy()
    with pytest.raises(ValueError, match="not a Clifford gate"):
        st.apply_clifford_word([GateOp("S", (1,)), bad])
    assert st.tableau == tableau
    assert st.gate_log == log


def test_gate_log_partition(cat3):
    n, d = 5, 3
    circ = t_doped_circuit(n, d, layers=6, rng_seed=11, block_len=3 * n)
    st = new_state(n, d, cat3, verify=True)
    applied = []
    for op in circ.ops:
        report = st.apply_op(op)
        if report is not None:
            applied += report.gates_applied
    assert st.gate_log.cliffords == [op for op in circ.ops if op.is_clifford]
    # one (inverse word over sites 0, 1; bond sites) pair per accepted gate
    assert len(st.gate_log.absorbed) == len(applied)
    for (word, sites), (idx, i) in zip(st.gate_log.absorbed, applied):
        assert sites == (i, i + 1)
        assert word == tuple(invert_word(cat3.entries[idx].word, d))
    assert len({sites for _, sites in st.gate_log.absorbed}) > 1
    oracle = run_circuit(circ)
    assert abs(np.vdot(oracle.amps, st.dense_vector())) > 1 - 1e-10


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("where", ["quarter", "middle", "last"])
def test_sweep_leaves_product_bonds_wherever_t_lands(d, where, cat2, cat3):
    # width-shaped circuits (n=48, two T layers after 8n-gate blocks) with
    # every site relabelled so that T lands inside the chain or at its far
    # edge; each T step must end with every bond a product, within the
    # pass limit
    n = 48
    site = {"quarter": n // 4, "middle": n // 2, "last": n - 1}[where]
    for seed in range(3):
        circ = relabel_sites(
            t_doped_circuit(n, d, layers=2, rng_seed=seed, block_len=8 * n),
            site)
        st = new_state(n, d, catalog_for(d, cat2, cat3))
        for op in circ.ops:
            report = st.apply_op(op)
            if report is None:
                continue
            assert op.sites == (site,)
            assert not report.early_termination
            assert st.mps.bond_dims() == [1] * (n - 1)


# -- batched scan against the brute-force reference ---------------------------


def mid_chain_circuit(n, d, layers, seed):
    """Random Clifford blocks with T on sites n//2 and n-1 after each."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(layers):
        for g in random_clifford_gates(rng, n, d, 2 * n):
            ops.append(g)
        ops.append(GateOp("T", (n // 2,)))
        ops.append(GateOp("T", (n - 1,)))
    return Circuit(n, d, ops)


def run_against_reference(circ, catalog, policy=None, cuts=None):
    """Run circ on the engine and on reference_gcamps_state, which visits
    every bond of every pass and scans every candidate at each visit; the
    two make the same choices, and the engine visits exactly the bonds the
    reference visits while they are neither settled nor products. Returns
    a Counter: gates "absorbed", the "peak" rank met, the "engine"'s and
    the reference's ("full") visits, and the reasons the engine skipped the
    rest ("settled", "product").

    Objectives agree in rank, and in entropy to 1e-12: a skipped bond
    carries its objective where the reference computes it afresh, and the
    visits the engine skips leave its MPS in another gauge.

    With cuts, a list that a truncation_cuts fixture fills, no chi_max
    truncation may cut through tied Schmidt values, since the policy keeps a
    tied group whole, and both sides must discard the same weights at every
    op.
    """
    st = new_state(circ.n, circ.d, catalog, policy=policy)
    ref = reference_gcamps_state(circ.n, circ.d, catalog, policy=policy)
    stats = Counter(peak=1)
    for op in circ.ops:
        if cuts is None:
            got, want = st.apply_op(op), ref.apply_op(op)
        else:
            del cuts[:]
            got = st.apply_op(op)
            mine = cuts[:]
            del cuts[:]
            want = ref.apply_op(op)
            assert not any(tie for _, tie in mine + cuts)
            assert [w for w, _ in mine] == pytest.approx(
                [w for w, _ in cuts], abs=1e-12)
        assert st.mps.bond_dims() == ref.mps.bond_dims()
        if got is None:
            assert want is None
            continue
        assert got.gates_applied == want.gates_applied
        assert (got.passes, got.early_termination) == (
            want.passes, want.early_termination
        )
        if not want.passes:  # no bond changed, so no disentangle run
            assert got == want
            continue
        assert got.bonds_visited == [
            i for i, skip in zip(want.bonds_visited, want.skippable)
            if skip is None
        ]
        window = len(set(want.bonds_visited))
        assert len(want.bonds_visited) == want.passes * window
        assert len(got.bonds_visited) + got.bonds_skipped == len(
            want.bonds_visited)
        for mine, theirs in ((got.objective_before, want.objective_before),
                             (got.objective_after, want.objective_after)):
            assert mine.keys() == theirs.keys()
            for bond, (rank, entropy) in mine.items():
                assert rank == theirs[bond][0]
                assert abs(entropy - theirs[bond][1]) <= 1e-12
        stats.update(skip for skip in want.skippable if skip is not None)
        stats["engine"] += len(got.bonds_visited)
        stats["full"] += len(want.bonds_visited)
        stats["absorbed"] += len(got.gates_applied)
        stats["peak"] = max(
            [stats["peak"]]
            + [rank for rank, _ in got.objective_before.values()])
    assert np.array_equal(st.tableau.xs, ref.tableau.xs)
    assert np.array_equal(st.tableau.zs, ref.tableau.zs)
    assert np.array_equal(st.tableau.phases, ref.tableau.phases)
    return stats


def assert_scan_matches_reference(circ, catalog, policy=None):
    stats = run_against_reference(circ, catalog, policy=policy)
    assert stats["absorbed"] > 0  # the scan had choices to make
    return stats["peak"]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_batched_scan_matches_reference_t_doped(d, seed, cat2, cat3):
    circ = t_doped_circuit(6, d, layers=6, rng_seed=seed, block_len=12)
    assert_scan_matches_reference(circ, catalog_for(d, cat2, cat3))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [5, 17])
def test_batched_scan_matches_reference_mid_chain(d, seed, cat2, cat3):
    circ = mid_chain_circuit(6, d, layers=4, seed=seed)
    assert assert_scan_matches_reference(circ, catalog_for(d, cat2, cat3)) > 1


def test_batched_scan_matches_reference_with_chi_max(cat3):
    circ = t_doped_circuit(6, 3, layers=8, rng_seed=41, block_len=12)
    policy = TruncationPolicy(chi_max=3)
    assert assert_scan_matches_reference(circ, cat3, policy=policy) == 3


def test_batched_scan_matches_reference_in_small_chunks(cat3, monkeypatch):
    # 2000 bytes: 6 candidates per chunk at a 3 x 3 bond, one at 9 x 9
    monkeypatch.setattr(gcamps, "_SCAN_CHUNK_BYTES", 2000)
    circ = mid_chain_circuit(6, 3, layers=4, seed=23)
    assert_scan_matches_reference(circ, cat3)


def test_crossover_shaped_scan_keeps_the_working_set_budget(cat3, monkeypatch):
    # n=8, d=3: the bonds reach 81, and a pair between two bonds of 27
    # makes 81 x 81 candidate matrices of 105 KB; a batch holds them twice,
    # as the product and its transposed copy, so 4 fit a 1 MB budget and
    # the largest step traces 1.28 MB. Batches of up to 8 MB (79 matrices)
    # traced 7.2 MB here, and 1 MB batches counted once (9 matrices) 2.3 MB
    peaks = []
    disentangle = GcampsState.disentangle

    def traced(self, *args, **kwargs):
        chi = max(self.mps.bond_dims())
        tracemalloc.start()
        try:
            return disentangle(self, *args, **kwargs)
        finally:
            peaks.append((chi, tracemalloc.get_traced_memory()[1]))
            tracemalloc.stop()

    monkeypatch.setattr(GcampsState, "disentangle", traced)
    st = new_state(8, 3, cat3)
    for op in t_doped_circuit(8, 3, layers=CROSSOVER_LAYERS[3], rng_seed=1,
                              block_len=16).ops:
        st.apply_op(op)
    assert max(chi for chi, _ in peaks) == 81
    assert max(peak for _, peak in peaks) <= 1.3 * (1 << 20)


@pytest.fixture
def scan_log(monkeypatch):
    """Engine bond visits as (product, candidate rows scored): whether the
    bond was left a product, and the candidate matrices counted through a
    patched gcamps.robust_svd, less the first batch's row 0, the bond as it
    stands."""
    rows, visits = [], []
    svd, optimize = gcamps.robust_svd, GcampsState._optimize_bond

    def counting_svd(a, compute_uv=True):
        rows.append(a.shape[0])
        return svd(a, compute_uv=compute_uv)

    def logged(self, i, report):
        first = len(rows)
        out = optimize(self, i, report)
        product = gcamps._unbeatable(report.objective_after[i])
        visits.append((product, sum(rows[first:]) - 1))
        return out

    monkeypatch.setattr(gcamps, "robust_svd", counting_svd)
    monkeypatch.setattr(GcampsState, "_optimize_bond", logged)
    return visits


def test_width_shaped_scan_exits_early_and_matches_reference(cat3, scan_log):
    # d=3, n=24, two T layers after 8n-gate blocks: the bonds stay near 1,
    # so a product-making candidate usually turns up in the first batches
    circ = t_doped_circuit(24, 3, layers=2, rng_seed=7, block_len=8 * 24)
    assert_scan_matches_reference(circ, cat3)
    full = len(cat3.entangling_stack()[0])
    scored = [n for _, n in scan_log if n]
    assert scored and max(scored) <= full
    assert min(scored) < full


def test_scan_stopped_at_position_p_scored_at_most_2p_plus_1(cat3, monkeypatch):
    # the batches hold 1, 2, 4, ... candidates, so a scan that stops on an
    # unbeatable winner at entangling position p has scored at most 2p + 1
    circ = t_doped_circuit(24, 3, layers=2, rng_seed=7, block_len=8 * 24)
    indices = cat3.entangling_stack()[0]
    stops = []
    optimize = GcampsState._optimize_bond

    def logged(self, i, report):
        scored = report.candidates_scored
        out = optimize(self, i, report)
        if out and gcamps._unbeatable(report.objective_after[i]):
            p = int(np.searchsorted(indices, report.gates_applied[-1][0]))
            stops.append((p, report.candidates_scored - scored))
        return out

    monkeypatch.setattr(GcampsState, "_optimize_bond", logged)
    assert_scan_matches_reference(circ, cat3)
    assert stops and any(p > 0 for p, _ in stops)
    assert all(n <= 2 * p + 1 for p, n in stops), stops


def test_crossover_shaped_scan_skips_settled_bonds(cat3):
    # d=3, T layers after 2n-gate blocks: bonds grow past what the catalog
    # can undo, so later passes meet bonds that accepted nothing; the engine
    # visits none of them, nor any product bond, and makes the choices of
    # the reference, which visits and scans them all
    circ = t_doped_circuit(6, 3, layers=12, rng_seed=2, block_len=12)
    visits = run_against_reference(circ, cat3)
    assert visits["absorbed"] > 0
    assert visits["engine"] < visits["full"]
    assert visits["settled"] > 0


def test_candidates_scored_counts_the_scanned_rows(cat3, scan_log):
    circ = mid_chain_circuit(6, 3, layers=4, seed=23)
    st = new_state(circ.n, circ.d, cat3)
    scored = 0
    for op in circ.ops:
        report = st.apply_op(op)
        if report is not None:
            scored += report.candidates_scored
    assert scored == sum(n for _, n in scan_log) > 0


def test_product_bond_is_skipped_on_the_next_pass(cat2):
    st = new_state(4, 2, cat2)
    st.mps.apply_single_site(1, HADAMARD2)
    st.mps.apply_two_site(1, sum_matrix(2))
    report = st.disentangle()
    # pass 1 visits all three bonds and leaves them products; pass 2 has
    # nothing to visit, so it accepts nothing and ends the run
    assert report.passes == 2 and len(report.gates_applied) == 1
    assert report.bonds_visited == [0, 1, 2] and report.bonds_skipped == 3
    assert len(report.bonds_visited) + report.bonds_skipped == report.passes * 3
    assert st.mps.bond_dims() == [1, 1, 1]
    assert report.objective_after[1] == (1, pytest.approx(0.0, abs=1e-12))


# -- skipping settled bonds against the full-visit reference ---------------


@pytest.fixture
def truncation_cuts(monkeypatch):
    """(discarded weight, tie) per truncating SVD that chi_max cut short of
    the cutoff's rank; tie is True when the last kept and the first dropped
    singular values agree to 1e-9 of the largest."""
    cuts = []
    truncated_svd = Mps._truncated_svd

    def recorded(self, mat, bond):
        out = truncated_svd(self, mat, bond)
        k, err = out[1].size, out[3]
        s = np.linalg.svd(mat, compute_uv=False)
        if k < s.size and s[k] > self.policy.cutoff * s[0]:
            cuts.append((err, bool(s[k - 1] - s[k] <= 1e-9 * s[0])))
        return out

    monkeypatch.setattr(Mps, "_truncated_svd", recorded)
    return cuts


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("shape", ["width", "crossover", "chi_max"])
def test_skipping_settled_bonds_keeps_the_choices(shape, d, seed, cat2, cat3,
                                                  request):
    policy, cuts = None, None
    if shape == "width":
        circ = t_doped_circuit(24, d, layers=2, rng_seed=seed,
                               block_len=8 * 24)
    elif shape == "crossover":
        circ = t_doped_circuit(8, d, layers=CROSSOVER_LAYERS[d],
                               rng_seed=seed, block_len=16)
    else:
        circ = t_doped_circuit(8, d, layers=10, rng_seed=seed, block_len=16)
        policy = TruncationPolicy(chi_max=2)
        cuts = request.getfixturevalue("truncation_cuts")
    visits = run_against_reference(
        circ, catalog_for(d, cat2, cat3), policy=policy, cuts=cuts)
    assert visits["engine"] < visits["full"]


@pytest.mark.parametrize("d", [2, 3])
def test_local_tableau_of_every_inverse_catalog_word(d, cat2, cat3):
    cat = catalog_for(d, cat2, cat3)
    absorptions = cat.absorptions()
    for idx in cat.entangling_stack()[0]:
        inverse = invert_word(cat.entries[idx].word, d)
        word, w = absorptions[idx]
        assert list(word) == inverse
        assert w == identity_tableau(2, d).apply_word(inverse)
        for a in (w.codes, w.phases):
            assert not a.flags.writeable
    # absorbing the last word at another bond uses the same two-site tableau
    shifted = [GateOp(g.name, tuple(3 + s for s in g.sites)) for g in inverse]
    assert (identity_tableau(6, d).right_multiply(w, (3, 4))
            == identity_tableau(6, d).apply_word(shifted))


# -- absorption of the scored candidate -----------------------------------------


def test_objectives_match_the_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(19)
    s = -np.sort(-np.abs(rng.standard_normal((6, 9))), axis=1)
    s[1, 1:] = 0.0  # a product: rank 1
    s[2] = 0.0  # an all-zero row
    s[3, 4:] = 1e-14 * s[3, 0]  # below the cutoff
    # with the all-zero row (masked) and without it (unmasked)
    for rows in (s, np.delete(s, 2, axis=0)):
        got = gcamps._objectives(rows, TruncationPolicy(cutoff=1e-12))
        for row, (rank, entropy) in zip(rows, got):
            want = objective_scalar(row, 1e-12)
            assert rank == want[0]
            assert (np.float64(entropy).tobytes()
                    == np.float64(want[1]).tobytes())
    got = gcamps._objectives(s, TruncationPolicy(cutoff=1e-12))
    assert got[2] == (0, 0.0) and not np.signbit(got[2][1])
    assert np.signbit(got[1][1])  # a product row reads -0.0, as -ln(1)


@pytest.mark.parametrize("shape", ["width", "crossover", "chi_max"])
def test_absorbed_pair_equals_apply_two_site(shape, cat3, monkeypatch):
    """Every accepted candidate's scored pair tensor, split in place, leaves
    the same bits as applying its catalog unitary to a copy taken just
    before the absorption."""
    policy = None
    if shape == "width":
        circ = t_doped_circuit(24, 3, layers=2, rng_seed=7, block_len=8 * 24)
    elif shape == "crossover":
        circ = t_doped_circuit(8, 3, layers=28, rng_seed=3, block_len=16)
    else:
        circ = t_doped_circuit(8, 3, layers=10, rng_seed=5, block_len=16)
        policy = TruncationPolicy(chi_max=2)
    splits = []
    split, optimize = Mps.split_pair, GcampsState._optimize_bond

    def recorded_split(self, i, theta):
        before = self.copy()
        err = split(self, i, theta)
        splits.append((before, err))
        return err

    checked = []

    def checked_optimize(self, i, report):
        del splits[:]
        if not optimize(self, i, report):
            assert not splits
            return 0
        (before, err), = splits
        idx, site = report.gates_applied[-1]
        assert site == i
        want = before.apply_two_site(i, cat3.unitaries()[idx])
        assert err == want
        assert self.mps.center == before.center
        for a, b in zip(self.mps.tensors, before.tensors):
            assert np.array_equal(a, b)
        checked.append(err)
        return 1

    monkeypatch.setattr(Mps, "split_pair", recorded_split)
    monkeypatch.setattr(GcampsState, "_optimize_bond", checked_optimize)
    st = new_state(circ.n, circ.d, cat3, policy=policy)
    peak = 1
    for op in circ.ops:
        st.apply_op(op)
        peak = max([peak] + st.mps.bond_dims())
    assert checked
    if shape != "width":  # the bonds reach the ceiling or the cap
        assert peak == (81 if shape == "crossover" else 2)
    # an accepted candidate never ranks above the bond it replaces, so its
    # split discards no more than the weight below the cutoff
    assert max(checked) <= 1e-20
