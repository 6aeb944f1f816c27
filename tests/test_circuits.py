"""Circuit IR: text format round-trips, gate matrices, the Clifford/tableau
consistency sweep, and the random generators."""

import numpy as np
import pytest

from quditsim.circuits import (
    Circuit,
    CircuitParseError,
    GateOp,
    _sample_word,
    emit,
    gate_matrix,
    parse,
    random_clifford_word,
    t_doped_circuit,
)
from quditsim.disentanglers import two_site_word_unitary
from quditsim.gates import swap_matrix
from quditsim.pauli import decompose_unitary, phase_factor
from quditsim.statevector import run_circuit
from quditsim.tableau import identity_tableau

from helpers import (
    CLIFFORD_NAMES, dense_pauli, dense_word_unitary, embed_gate,
    sample_word_from_pool, swap_word,
)


# -- gate matrices ----------------------------------------------------------------

def test_hadamard_d2_matrix():
    want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(gate_matrix(GateOp("H", (0,)), 2), want)


def test_phase_gate_d3_matrix():
    m = gate_matrix(GateOp("S", (0,)), 3)
    assert np.allclose(m, np.diag([1, 1, phase_factor(2, 3)]), atol=1e-15)


def test_sum_d3_action():
    m = gate_matrix(GateOp("SUM", (0, 1)), 3)
    vec = np.zeros(9)
    vec[1 * 3 + 2] = 1.0  # |1,2>
    out = m @ vec
    assert abs(out[1 * 3 + 0] - 1) < 1e-15  # -> |1,0>
    assert np.count_nonzero(np.abs(out) > 1e-12) == 1


def test_t_matrices():
    t2 = gate_matrix(GateOp("T", (0,)), 2)
    assert np.allclose(t2, np.diag([1, np.exp(1j * np.pi / 4)]), atol=1e-15)
    t3 = gate_matrix(GateOp("T", (0,)), 3)
    assert np.allclose(t3, np.diag([1, np.exp(1j * np.pi / 9),
                                    np.exp(8j * np.pi / 9)]), atol=1e-15)
    assert np.allclose(gate_matrix(GateOp("Tdg", (0,)), 3), t3.conj().T)


def test_rz_equals_t_up_to_global_phase():
    rz = gate_matrix(GateOp("RZ", (0,), (np.pi / 4,)), 2)
    t = gate_matrix(GateOp("T", (0,)), 2)
    assert np.allclose(np.exp(1j * np.pi / 8) * rz, t, atol=1e-15)


def test_u1_diagonal():
    th = (0.3, -1.2, 2.5)
    m = gate_matrix(GateOp("U1", (0,), th), 3)
    assert np.allclose(m, np.diag(np.exp(1j * np.array(th))), atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_swap_matrix(d):
    m = gate_matrix(GateOp("SWAP", (0, 1)), d)
    for i in range(d):
        for j in range(d):
            assert m[j * d + i, i * d + j] == 1
    assert np.count_nonzero(m) == d * d
    assert np.allclose(swap_matrix(d),
                       two_site_word_unitary(swap_word(0, 1), d), atol=1e-12)


# -- Clifford ops against the oracle and the tableau -----------------------------------

@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("name", CLIFFORD_NAMES)
def test_clifford_word_matches_gate_matrix(name, d):
    """gate_matrix agrees with the package-independent reference matrices."""
    sites = (1, 0) if name in ("SUM", "SUMdg", "SWAP") else (1,)
    op = GateOp(name, sites)
    dense_from_word = dense_word_unitary([op], 2, d)
    dense_direct = embed_gate(gate_matrix(op, d), sites, 2, d)
    assert np.allclose(dense_from_word, dense_direct, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("name", CLIFFORD_NAMES)
def test_clifford_tableau_consistency_exhaustive(name, d):
    """Tableau updates match dense conjugation for every basis Pauli."""
    sites = (0, 1) if name in ("SUM", "SUMdg", "SWAP") else (0,)
    op = GateOp(name, sites)
    t = identity_tableau(2, d).apply_word([op])
    u = embed_gate(gate_matrix(op, d), sites, 2, d)
    for r in range(4):
        p = identity_tableau(2, d).row(r)
        want = u @ p.to_matrix() @ u.conj().T
        assert np.allclose(t.row(r).to_matrix(), want, atol=1e-12), (name, r)


@pytest.mark.parametrize("d", [2, 3])
def test_t_gate_is_non_clifford(d):
    t = gate_matrix(GateOp("T", (0,)), d)
    x = dense_pauli(d, [1], [0])
    conj = t @ x @ t.conj().T
    assert len(decompose_unitary(conj, d)) >= 2


# -- op and circuit validation ----------------------------------------------------------

def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp("CZ", (0,))
    with pytest.raises(ValueError):
        GateOp("H", (0, 1))
    with pytest.raises(ValueError):
        GateOp("SUM", (1, 1))
    with pytest.raises(ValueError):
        GateOp("RZ", (0,))  # missing angle
    with pytest.raises(ValueError):
        GateOp("H", (0,), (1.0,))  # stray param
    with pytest.raises(ValueError):
        GateOp("U1", (0,))
    assert GateOp("T", (0,)).is_clifford is False
    assert GateOp("SUM", (0, 1)).is_clifford is True


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, 3, [GateOp("H", (5,))])
    with pytest.raises(ValueError):
        Circuit(2, 3, [GateOp("RZ", (0,), (0.5,))])  # RZ only at d=2
    with pytest.raises(ValueError):
        Circuit(2, 3, [GateOp("U1", (0,), (0.1, 0.2))])  # needs d params
    with pytest.raises(ValueError):
        Circuit(2, 5, [GateOp("T", (0,))])  # no T matrix at d=5
    with pytest.raises(ValueError):
        Circuit(2, 4, [])  # composite d


# -- text format ----------------------------------------------------------------------

def test_parse_simple():
    c = parse("# qsim v1 d=3 n=2\nH 0\nSUM 0 1\n")
    assert c.n == 2 and c.d == 3
    assert c.ops == [GateOp("H", (0,)), GateOp("SUM", (0, 1))]


def test_parse_flags_non_clifford():
    c = parse("# qsim v1 d=2 n=1\nT 0\n")
    assert c.ops[0].is_clifford is False


def test_emit_golden():
    c = Circuit(2, 2, [GateOp("H", (0,)), GateOp("RZ", (1,), (np.pi / 4,))],
                {"seed": "7"})
    want = ("# qsim v1 d=2 n=2\n"
            "# meta seed=7\n"
            "H 0\n"
            "RZ 1 0.78539816339744828\n")
    assert emit(c) == want


def test_roundtrip_all_names():
    ops = [GateOp("H", (0,)), GateOp("Hdg", (1,)), GateOp("S", (2,)),
           GateOp("Sdg", (0,)), GateOp("X", (1,)), GateOp("Z", (2,)),
           GateOp("SUM", (0, 2)), GateOp("SUMdg", (2, 1)), GateOp("SWAP", (1, 0)),
           GateOp("T", (0,)), GateOp("Tdg", (1,)),
           GateOp("U1", (2,), (0.1, -2.7182818284590452, 3.1415926535897931))]
    c = Circuit(3, 3, ops, {"a": "1", "b": "two words"})
    assert parse(emit(c)) == c


def test_roundtrip_rz_17_digits():
    c = Circuit(1, 2, [GateOp("RZ", (0,), (1 / 3,))])
    assert parse(emit(c)) == c


def test_roundtrip_random_circuits():
    rng = np.random.default_rng(21)
    for _ in range(10):
        c = t_doped_circuit(4, 3, layers=2, rng_seed=int(rng.integers(1 << 30)),
                            block_len=6)
        assert parse(emit(c)) == c


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CircuitParseError, match="line 1"):
        parse("H 0\n")
    with pytest.raises(CircuitParseError, match="line 2"):
        parse("# qsim v1 d=2 n=2\nFOO 0\n")
    with pytest.raises(CircuitParseError, match="line 3"):
        parse("# qsim v1 d=2 n=2\nH 0\nSUM 0 9\n")
    with pytest.raises(CircuitParseError, match="line 2"):
        parse("# qsim v1 d=2 n=2\nH zero\n")
    with pytest.raises(CircuitParseError, match="line 2"):
        parse("# qsim v1 d=2 n=2\nRZ 0\n")
    with pytest.raises(CircuitParseError, match="line 2"):
        parse("# qsim v1 d=2 n=2\nH 0 1.5\n")
    with pytest.raises(CircuitParseError):
        parse("")
    with pytest.raises(CircuitParseError, match="line 1"):
        parse("# qsim v2 d=2 n=2\nH 0\n")
    with pytest.raises(CircuitParseError, match="line 1"):
        parse("# qsim v1 d=4 n=2\nH 0\n")
    with pytest.raises(CircuitParseError, match="line 2: RZ is defined"):
        parse("# qsim v1 d=3 n=2\nRZ 0 1.0\n")
    with pytest.raises(CircuitParseError, match="line 3: T gate"):
        parse("# qsim v1 d=5 n=2\nH 1\nT 0\n")
    with pytest.raises(CircuitParseError, match="line 2: U1 needs 3"):
        parse("# qsim v1 d=3 n=2\nU1 0 0.5 0.25\n")
    with pytest.raises(CircuitParseError, match="line 1: need at least one"):
        parse("# qsim v1 d=2 n=0\n")
    with pytest.raises(CircuitParseError, match="line 3: U1 params must be finite"):
        parse("# qsim v1 d=3 n=2\nH 0\nU1 1 nan 0.5 0.25\n")
    with pytest.raises(CircuitParseError, match="line 2: RZ params must be finite"):
        parse("# qsim v1 d=2 n=2\nRZ 1 inf\n")
    with pytest.raises(CircuitParseError, match="line 2: RZ params must be finite"):
        parse("# qsim v1 d=2 n=2\nRZ 1 -inf\n")


def test_comments_ignored():
    c = parse("# qsim v1 d=2 n=1\n# a comment\n\nH 0\n# another\n")
    assert len(c.ops) == 1


# -- random circuit generators -------------------------------------------------------

def test_random_word_deterministic():
    a = random_clifford_word(4, 3, length=50, rng_seed=123)
    b = random_clifford_word(4, 3, length=50, rng_seed=123)
    assert a == b
    assert len(a) == 50


def test_random_word_default_length():
    assert len(random_clifford_word(4, 2, rng_seed=1)) == 5 * 16


def test_random_word_single_site_has_no_sum():
    word = random_clifford_word(1, 3, length=40, rng_seed=5)
    assert all(g.name in ("H", "S") for g in word)


def test_random_word_preserves_symplectic():
    word = random_clifford_word(4, 3, length=80, rng_seed=8)
    t = identity_tableau(4, 3).apply_word(word)
    assert t.symplectic_ok()


def test_random_word_rejects_zero_length():
    with pytest.raises(ValueError):
        random_clifford_word(3, 2, length=0)


def test_t_doped_structure():
    c = t_doped_circuit(3, 3, layers=3, rng_seed=11, block_len=7)
    t_ops = [op for op in c.ops if op.name == "T"]
    assert len(t_ops) == 3
    assert all(op.sites == (0,) for op in t_ops)
    assert len(c.ops) == 3 * (7 + 1)
    # clifford blocks only contain pool names
    assert all(op.name in ("H", "S", "SUM", "T") for op in c.ops)


def test_t_doped_rejects_zero_layers():
    with pytest.raises(ValueError):
        t_doped_circuit(3, 3, layers=0)


@pytest.mark.parametrize("block_len", [0, -1])
def test_t_doped_rejects_block_len_below_one(block_len):
    with pytest.raises(ValueError, match=f"block_len must be >= 1, got {block_len}"):
        t_doped_circuit(3, 3, layers=1, block_len=block_len)


def test_t_doped_deterministic_bytes():
    a = emit(t_doped_circuit(12, 3, layers=24, rng_seed=42, block_len=10))
    b = emit(t_doped_circuit(12, 3, layers=24, rng_seed=42, block_len=10))
    assert a == b
    assert a.encode() == b.encode()


def test_t_doped_default_block_is_5n_squared():
    c = t_doped_circuit(2, 2, layers=1, rng_seed=0)
    assert len(c.ops) == 5 * 4 + 1


def test_t_doped_runs_dense():
    c = t_doped_circuit(3, 3, layers=2, rng_seed=3, block_len=5)
    s = run_circuit(c)
    assert abs(s.norm() - 1) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 96])
@pytest.mark.parametrize("seed", [0, 5, 731])
def test_sampled_word_matches_listed_pool(n, seed):
    got_rng = np.random.default_rng(seed)
    want_rng = np.random.default_rng(seed)
    # consecutive blocks from one generator, as t_doped_circuit draws them
    for length in (1, 7, 8 * n, 5 * n * n):
        got = _sample_word(got_rng, n, length)
        assert got == sample_word_from_pool(want_rng, n, length)
        assert all(type(g) is GateOp for g in got)
    assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)


def test_sampled_words_share_equal_ops():
    # two seeds' width-sized blocks draw many of the same pool entries; each
    # is one shared frozen GateOp, so kept circuits do not copy it
    n = 96
    a = _sample_word(np.random.default_rng(1), n, 8 * n)
    b = _sample_word(np.random.default_rng(2), n, 8 * n)
    first = {g: g for g in a}
    common = [g for g in b if g in first]
    assert len(common) > 8
    assert all(g is first[g] for g in common)
    c = random_clifford_word(n, 3, length=8 * n, rng_seed=1)
    assert all(g is h for g, h in zip(a, c))
