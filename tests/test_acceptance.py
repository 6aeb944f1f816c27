"""End-to-end acceptance runs for the whole package.

Each test here exercises a released behavior at its stated tolerance and
wall-time budget: catalog generation through the CLI, hybrid-engine replay
against the dense oracle, Clifford-only scaling, bond-dimension regimes on
T-doped circuits, per-shot runtime ordering against the raw-MPS backend,
exact memory-model recomputation, the full-count algebra property suites,
and cutoff-free MPS exactness.

The heavyweight shared inputs (the two disentangler catalogs, the timed
benchmark grid) are module-scoped fixtures so each is built exactly once.
"""

import contextlib
import io
import time
from collections import defaultdict
from statistics import fmean

import numpy as np
import pytest

from quditsim import cli
from quditsim.bench import bench_tdoped, worst_case_chi
from quditsim.circuits import (
    Circuit,
    GateOp,
    TWO_SITE_NAMES,
    gate_matrix,
    random_clifford_word,
    t_doped_circuit,
)
from quditsim.disentanglers import load_catalog
from quditsim.gates import inverse_gate
from quditsim.gcamps import new_state
from quditsim.mps import Mps, TruncationPolicy, mps_model_bytes
from quditsim.pauli import PauliString, decompose_unitary
from quditsim.statevector import run_circuit

from property_suites import (
    run_conjugation_roundtrip_suite,
    run_pauli_dense_suite,
    run_symplectic_word_suite,
)
from helpers import random_pauli_exponents

# Wall-time budgets in seconds. Generous on purpose: they guard against
# complexity blowups, not against a slow machine.
CATALOG_BUDGET = {2: 60.0, 3: 600.0}
ORACLE_SWEEP_BUDGET = 300.0
CLIFFORD_BULK_BUDGET = 10.0
GRID_BUDGET = 1800.0

GRID_N = 12
GRID_LAYERS = 6
GRID_SHOTS = 10


@pytest.fixture(scope="module")
def catalog_runs(tmp_path_factory):
    """Generate both catalogs through the CLI, timing each run."""
    root = tmp_path_factory.mktemp("catalogs")
    out = {}
    for d in (2, 3):
        path = root / f"catalog_d{d}.txt"
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["disentanglers", "--d", str(d), "--out", str(path)])
        out[d] = (rc, time.perf_counter() - t0, buf.getvalue(), path)
    return out


@pytest.fixture(scope="module")
def cat2(catalog_runs):
    return load_catalog(catalog_runs[2][3])


@pytest.fixture(scope="module")
def cat3(catalog_runs):
    return load_catalog(catalog_runs[3][3])


@pytest.fixture(scope="module")
def runtime_grid(cat2, cat3):
    """Timed benchmark grid: d in {2, 3} x {gcamps, mps}, 10 shots each."""
    grids = {}
    t0 = time.perf_counter()
    for d, cat in ((2, cat2), (3, cat3)):
        grids[d] = bench_tdoped(d, GRID_N, GRID_LAYERS, shots=GRID_SHOTS,
                                seed=42, backends=("gcamps", "mps"),
                                catalog=cat)
    return grids, time.perf_counter() - t0


@pytest.mark.parametrize("d,classes,order", [(2, 20, 720), (3, 90, 51840)])
def test_catalog_counts_and_generation_time(catalog_runs, d, classes, order):
    rc, dt, text, path = catalog_runs[d]
    assert rc == 0
    assert f"d={d} entangling_classes={classes} group_order={order}" \
        in text.splitlines()
    assert dt < CATALOG_BUDGET[d]
    saved = load_catalog(path)
    assert saved.n_entries == classes
    assert saved.group_order == order


def test_engine_replay_matches_dense_oracle_on_doped_circuits(cat2, cat3):
    cats = {2: cat2, 3: cat3}
    rng = np.random.default_rng(4242)
    t0 = time.perf_counter()
    for case in range(50):
        d = 2 if case % 2 == 0 else 3
        n = int(rng.integers(2, 7))
        layers = int(rng.integers(1, 11))
        circ = t_doped_circuit(n, d, layers,
                               rng_seed=int(rng.integers(0, 2 ** 32)))
        state = new_state(n, d, cats[d], verify=True)
        for op in circ.ops:
            state.apply_op(op)
        oracle = run_circuit(circ, max_dim=d ** n)
        replay = state.dense_vector(max_dim=d ** n)
        fid = abs(np.vdot(oracle.amps, replay)) ** 2
        assert fid >= 1 - 1e-8
        for _ in range(20):
            x, z, w = random_pauli_exponents(rng, d, n)
            p = PauliString(d, x, z, w)
            want = oracle.pauli_expectation(p)
            assert abs(state.expectation(p) - want) <= 1e-8
            assert abs(state.hermitian_expectation(p) - want.real) <= 1e-8
    assert time.perf_counter() - t0 < ORACLE_SWEEP_BUDGET


def test_clifford_only_bulk_run_stays_product(cat3):
    n = 20
    word = random_clifford_word(n, 3, length=10_000, rng_seed=97)
    state = new_state(n, 3, cat3)
    t0 = time.perf_counter()
    for g in word:
        state.apply_op(g)
    dt = time.perf_counter() - t0
    assert state.mps.bond_dims() == [1] * (n - 1)
    # the Clifford path must never have touched the MPS factor at all
    fresh = Mps.product_state(n, 3)
    assert all(np.array_equal(a, b)
               for a, b in zip(state.mps.tensors, fresh.tensors))
    assert dt < CLIFFORD_BULK_BUDGET


def test_inverse_circuit_echo_past_the_dense_guard(cat3):
    # A width-shaped run (d=3, n=96, 2 T layers after 8n-gate blocks), far
    # past the dense guard, then its inverse op by op: every absorption on
    # the way goes through Tableau.right_multiply, and the state must come
    # back to |0...0>.
    n, d = 96, 3
    circ = t_doped_circuit(n, d, layers=2, rng_seed=3, block_len=8 * n)
    state = new_state(n, d, cat3)
    undo = []
    for op in reversed(circ.ops):
        undo += ([GateOp("Tdg", op.sites)] if op.name == "T"
                 else inverse_gate(op, d))
    absorbed = 0
    for op in circ.ops + undo:
        report = state.apply_op(op)
        if report is not None:
            absorbed += len(report.gates_applied)
    assert absorbed > 0
    assert state.tableau.symplectic_ok()
    for i in range(n):
        z = state.expectation(PauliString.single(d, n, i, 0, 1))
        assert abs(z - 1) <= 1e-8


def test_low_doping_engine_bonds_stay_small(cat3):
    records = bench_tdoped(3, GRID_N, GRID_LAYERS, shots=20, seed=7,
                           backends=("gcamps",), catalog=cat3)
    peak = defaultdict(int)
    for rec in records:
        peak[rec.shot] = max(peak[rec.shot], rec.chi_max)
    assert len(peak) == 20
    within = sum(1 for v in peak.values() if v <= 3 ** 2)
    assert within >= 18


def test_undoped_mps_saturates_within_two_layers():
    # Raw-MPS contrast case at the circuit generator's default block length:
    # the bond ceiling 3^6 = 729 must be hit inside the first 2 layers. The
    # run stops at first contact, which keeps the saturated tail unpaid.
    for seed in (101, 202):
        circ = t_doped_circuit(GRID_N, 3, layers=2, rng_seed=seed)
        m = Mps.product_state(GRID_N, 3)
        layer = 1
        hit = None
        for op in circ.ops:
            m.apply_unitary(gate_matrix(op, 3), op.sites)
            if max(m.bond_dims()) >= 729:
                hit = layer
                break
            if not op.is_clifford:
                layer += 1
        assert hit is not None and hit <= 2


def _per_shot_seconds(records, backend):
    totals = defaultdict(float)
    for rec in records:
        if rec.backend == backend:
            totals[rec.shot] += rec.dt_seconds
    return [totals[s] for s in sorted(totals)]


def test_engine_outpaces_raw_mps_per_shot(runtime_grid):
    grids, wall = runtime_grid
    speedup = {}
    for d in (2, 3):
        engine = _per_shot_seconds(grids[d], "gcamps")
        raw = _per_shot_seconds(grids[d], "mps")
        assert len(engine) == GRID_SHOTS and len(raw) == GRID_SHOTS
        assert fmean(engine) < fmean(raw)
        speedup[d] = fmean(raw) / fmean(engine)
    assert speedup[3] > speedup[2]
    assert wall < GRID_BUDGET


def test_memory_columns_recompute_from_bond_profiles(runtime_grid):
    grids, _ = runtime_grid
    for d in (2, 3):
        assert grids[d], "grid must hold records"
        for rec in grids[d]:
            chi = list(rec.chi_vector)
            assert rec.mem_bytes == mps_model_bytes(chi, d)
            assert rec.mem_worst_bytes == mps_model_bytes(
                worst_case_chi(chi, d, rec.n), d)


def test_saturated_memory_closed_form():
    chi = [3 ** min(b, GRID_N - b) for b in range(1, GRID_N)]
    assert mps_model_bytes(chi, 3) == 19_131_840


def test_pauli_algebra_dense_suite_full_count():
    assert run_pauli_dense_suite(1000) <= 1e-12


def test_symplectic_invariant_full_count():
    assert run_symplectic_word_suite(1000) == 1000


def test_conjugation_round_trip_full_count():
    assert run_conjugation_roundtrip_suite(1000) == 1000


def _full_gate_set(d):
    ops = [GateOp(name, (0,)) for name in ("H", "Hdg", "S", "Sdg", "X", "Z")]
    if d in (2, 3):
        ops += [GateOp("T", (0,)), GateOp("Tdg", (0,))]
    if d == 2:
        ops.append(GateOp("RZ", (0,), (0.7321,)))
    ops.append(GateOp("U1", (0,), tuple(0.2 + 0.31 * k for k in range(d))))
    ops += [GateOp(name, (0, 1)) for name in TWO_SITE_NAMES]
    return ops


@pytest.mark.parametrize("d", [2, 3, 5])
def test_unitary_decomposition_reconstructs_full_gate_set(d):
    for op in _full_gate_set(d):
        u = gate_matrix(op, d)
        rebuilt = decompose_unitary(u, d).to_matrix()
        assert np.max(np.abs(rebuilt - u)) <= 1e-12, op.name


_MIXED_POOL = ("H", "Hdg", "S", "Sdg", "X", "Z",
               "SUM", "SUMdg", "SWAP", "T", "U1")


def _random_mixed_circuit(rng, n, d, n_gates=30):
    ops = []
    for _ in range(n_gates):
        name = _MIXED_POOL[int(rng.integers(0, len(_MIXED_POOL)))]
        if name in TWO_SITE_NAMES:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append(GateOp(name, (int(a), int(b))))
        elif name == "U1":
            ops.append(GateOp("U1", (int(rng.integers(0, n)),),
                              tuple(rng.uniform(0.0, 2.0 * np.pi, size=d))))
        else:
            ops.append(GateOp(name, (int(rng.integers(0, n)),)))
    return Circuit(n, d, ops)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_cutoff_zero_mps_matches_dense(d, n):
    rng = np.random.default_rng(9000 + 10 * d + n)
    for _ in range(2):
        circ = _random_mixed_circuit(rng, n, d)
        m = Mps.product_state(n, d, policy=TruncationPolicy(cutoff=0.0))
        for op in circ.ops:
            m.apply_unitary(gate_matrix(op, d), op.sites)
            bonds = m.bond_dims()
            assert all(c <= d ** min(i + 1, n - i - 1)
                       for i, c in enumerate(bonds))
        oracle = run_circuit(circ, max_dim=d ** n)
        fid = abs(np.vdot(oracle.amps, m.to_dense(d ** n))) ** 2
        assert fid >= 1 - 1e-9
