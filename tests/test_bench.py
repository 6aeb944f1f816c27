"""Benchmark harness tests: records, boundaries, models, determinism."""

from pathlib import Path

import numpy as np
import pytest

from quditsim.bench import (
    BACKENDS,
    CSV_HEADER,
    BenchRecord,
    bench_tdoped,
    parse_csv_row,
    run_on_backend,
    shot_seed,
    worst_case_chi,
    write_csv,
    write_json,
)
from quditsim.circuits import (
    Circuit, GateOp, random_clifford_word, t_doped_circuit,
)
from quditsim.gcamps import GcampsState, new_state
from quditsim.mps import TruncationPolicy, mps_model_bytes
from quditsim.statevector import run_circuit

GOLDEN_ROWS = Path(__file__).with_name("bench_golden_d3_n5.csv")


def strip_timing(records):
    return [
        (r.backend, r.d, r.n, r.shot, r.seed, r.layer, r.chi_max,
         r.chi_vector, r.mem_bytes, r.mem_worst_bytes)
        for r in records
    ]


def test_csv_header_layout():
    assert CSV_HEADER == ("backend,d,n,shot,seed,layer,chi_max,chi_vector,"
                          "mem_bytes,mem_worst_bytes,dt_seconds")


def test_record_csv_round_trip():
    rec = BenchRecord("gcamps", 3, 5, 2, 11, 4, 9, (3, 9, 9, 3),
                      6768, 6768, 0.125)
    back = parse_csv_row(rec.csv_row())
    assert back == BenchRecord("gcamps", 3, 5, 2, 11, 4, 9, (3, 9, 9, 3),
                               6768, 6768, 0.125)


def test_parse_csv_row_rejects_bad_field_count():
    with pytest.raises(ValueError, match="11"):
        parse_csv_row("a,b,c")


def test_worst_case_chi_grows_by_d_with_ceiling():
    assert worst_case_chi([1, 1, 1], 3, 4) == [3, 3, 3]
    assert worst_case_chi([3, 9, 3], 3, 4) == [3, 9, 3]  # already at ceiling
    assert worst_case_chi([2, 2, 2], 2, 4) == [2, 4, 2]


def test_unknown_backend_rejected():
    circ = Circuit(2, 2, [GateOp("H", (0,))])
    with pytest.raises(ValueError, match="backend"):
        run_on_backend("tensor-train", circ)


@pytest.mark.parametrize("backend", BACKENDS)
def test_clifford_only_circuit_yields_one_row(backend):
    circ = Circuit(5, 3, random_clifford_word(5, 3, length=40, rng_seed=3))
    records, _ = run_on_backend(backend, circ)
    assert len(records) == 1
    assert records[0].layer == 1
    if backend == "gcamps":  # the frame absorbs every Clifford
        want = (1, 1, 1, 1)
    else:
        oracle = run_circuit(circ)
        want = tuple(int(np.count_nonzero(s > 1e-12 * s[0]))
                     for s in map(oracle.schmidt_values, range(1, 5)))
    assert records[0].chi_vector == want
    assert records[0].chi_max == max(want)


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_circuit_still_yields_a_row(backend):
    circ = Circuit(3, 2, [])
    records, _ = run_on_backend(backend, circ)
    assert len(records) == 1
    assert records[0].layer == 1
    assert records[0].chi_vector == (1, 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_clifford_block_after_last_t_closes_one_more_layer(backend):
    d = 3
    ops = [GateOp("H", (0,)), GateOp("T", (0,)),
           GateOp("SUM", (0, 1)), GateOp("H", (2,))]
    records, _ = run_on_backend(backend, Circuit(4, d, ops))
    assert [r.layer for r in records] == [1, 2]
    assert records[0].chi_vector == (1, 1, 1)
    # the trailing SUM entangles sites 0 and 1 unless the frame absorbs it
    want = (1, 1, 1) if backend == "gcamps" else (d, 1, 1)
    assert records[1].chi_vector == want


def mixed_circuit(n, d, seed):
    """Every Clifford op name, SWAPs included, with T and Tdg on random
    sites, two non-Cliffords in a row, and a trailing Clifford block."""
    rng = np.random.default_rng(seed)
    one = ["H", "Hdg", "S", "Sdg", "X", "Z"]
    ops = []
    for layer in range(5):
        for _ in range(3 * n):
            name = (one + ["SUM", "SUMdg", "SWAP"])[int(rng.integers(9))]
            k = 2 if name in ("SUM", "SUMdg", "SWAP") else 1
            sites = rng.choice(n, size=k, replace=False)
            ops.append(GateOp(name, tuple(int(s) for s in sites)))
        ops.append(GateOp("T" if layer % 2 else "Tdg",
                          (int(rng.integers(n)),)))
        if layer == 2:
            ops.append(GateOp("T", (int(rng.integers(n)),)))
    ops += [GateOp("SWAP", (0, n - 1)), GateOp("Hdg", (1,))]
    return Circuit(n, d, ops)


@pytest.mark.parametrize("d", [2, 3])
def test_gcamps_layers_log_per_op_words_and_replay(d):
    circ = mixed_circuit(5, d, seed=40 + d)
    records, st = run_on_backend("gcamps", circ, verify=True)
    assert len(records) == 7  # six non-Clifford ops and the trailing block
    # the log holds the circuit's own Clifford ops, SWAP not expanded
    assert st.gate_log.cliffords == [op for op in circ.ops if op.is_clifford]
    oracle = run_circuit(circ)
    assert abs(np.vdot(oracle.amps, st.dense_vector())) > 1 - 1e-10
    # op by op through apply_op: the same frame, bonds and log
    ref = new_state(circ.n, d, st.catalog, verify=True)
    for op in circ.ops:
        ref.apply_op(op)
    assert ref.tableau == st.tableau
    assert ref.mps.bond_dims() == st.mps.bond_dims()
    assert ref.gate_log.cliffords == st.gate_log.cliffords
    assert ref.gate_log.absorbed == st.gate_log.absorbed


def test_gcamps_run_hands_every_non_clifford_op_to_apply_op(monkeypatch):
    # perfbench collects the DisentangleReports by patching this method
    seen = []
    apply_op = GcampsState.apply_op

    def spy(state, op):
        seen.append(op)
        return apply_op(state, op)

    monkeypatch.setattr(GcampsState, "apply_op", spy)
    circ = mixed_circuit(5, 3, seed=7)
    run_on_backend("gcamps", circ)
    assert seen == [op for op in circ.ops if not op.is_clifford]


def test_bench_tdoped_matches_golden_rows():
    # every CSV column but dt_seconds, pinned for all three backends
    rows = bench_tdoped(3, 5, 4, shots=2, seed=0, backends=BACKENDS)
    got = [line.rsplit(",", 1)[0]
           for line in [CSV_HEADER] + [r.csv_row() for r in rows]]
    assert got == GOLDEN_ROWS.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("backend", ["gcamps", "mps", "statevector"])
def test_rows_per_layer_and_schema(backend):
    n, d, layers = 4, 2, 3
    circ = t_doped_circuit(n, d, layers=layers, rng_seed=8, block_len=12)
    records, _ = run_on_backend(backend, circ, shot=5, seed=77)
    assert [r.layer for r in records] == list(range(1, layers + 1))
    for r in records:
        assert r.backend == backend
        assert (r.d, r.n, r.shot, r.seed) == (d, n, 5, 77)
        assert len(r.chi_vector) == n - 1
        assert r.chi_max == max(r.chi_vector)
        assert r.mem_bytes == mps_model_bytes(list(r.chi_vector), d)
        want_worst = mps_model_bytes(worst_case_chi(r.chi_vector, d, n), d)
        assert r.mem_worst_bytes == want_worst
        assert r.dt_seconds >= 0.0


def test_mps_and_statevector_report_equal_ranks():
    # at effectively zero truncation both backends see the same Schmidt ranks
    circ = t_doped_circuit(4, 3, layers=3, rng_seed=21, block_len=10)
    mps_rows, _ = run_on_backend("mps", circ)
    sv_rows, _ = run_on_backend("statevector", circ)
    for a, b in zip(mps_rows, sv_rows):
        assert a.chi_vector == b.chi_vector


@pytest.mark.parametrize("cutoff, want", [(1e-12, (2,)), (0.5, (1,))])
def test_mps_and_statevector_count_ranks_at_the_run_cutoff(cutoff, want):
    # H T H on site 0 then SUM leaves Schmidt values cos(pi/8) and
    # sin(pi/8), ratio tan(pi/8) = 0.414: kept at the default cutoff,
    # dropped at 0.5 by every backend that the run's policy governs
    ops = [GateOp("H", (0,)), GateOp("T", (0,)), GateOp("H", (0,)),
           GateOp("SUM", (0, 1))]
    circ = Circuit(2, 2, ops)
    policy = TruncationPolicy(cutoff=cutoff)
    for backend in ("mps", "statevector"):
        rows, _ = run_on_backend(backend, circ, policy=policy)
        assert [r.chi_vector for r in rows] == [(1,), want]


def test_gcamps_verify_state_matches_oracle():
    circ = t_doped_circuit(5, 2, layers=4, rng_seed=13)
    _, st = run_on_backend("gcamps", circ, verify=True)
    oracle = run_circuit(circ)
    assert abs(np.vdot(st.dense_vector(), oracle.amps)) > 1 - 1e-8


def test_shot_seed_derivation():
    assert shot_seed(3, 0) == 3_000_009
    assert shot_seed(3, 7) == 3 * 1_000_003 + 7
    assert len({shot_seed(1, s) for s in range(100)}) == 100


def test_bench_tdoped_row_order_and_determinism():
    a = bench_tdoped(2, 4, 2, shots=2, seed=9, backends=("gcamps", "mps"))
    b = bench_tdoped(2, 4, 2, shots=2, seed=9, backends=("gcamps", "mps"))
    assert strip_timing(a) == strip_timing(b)
    keys = [(r.backend, r.shot, r.layer) for r in a]
    assert keys == [(bk, s, l) for bk in ("gcamps", "mps")
                    for s in range(2) for l in (1, 2)]
    assert {r.seed for r in a} == {9}


def test_bench_tdoped_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        bench_tdoped(2, 4, 2, shots=1, seed=0, backends=("gcamps", "qft"))


@pytest.mark.parametrize("sites, shots, want", [
    (0, 1, "sites must be >= 1, got 0"), (-1, 1, "sites must be >= 1, got -1"),
    (3, 0, "shots must be >= 1, got 0"), (3, -2, "shots must be >= 1, got -2"),
])
def test_bench_tdoped_refuses_a_count_below_one(sites, shots, want):
    """Zero or negative shots used to return no rows at all, and zero sites
    failed on the default block length, an argument nobody gave."""
    with pytest.raises(ValueError, match=f"^{want}$"):
        bench_tdoped(2, sites, 1, shots=shots, seed=0)


def test_bench_tdoped_accepts_preloaded_catalog():
    from quditsim.disentanglers import generate_catalog

    base = bench_tdoped(2, 3, 2, shots=1, seed=3, backends=("gcamps",))
    given = bench_tdoped(2, 3, 2, shots=1, seed=3, backends=("gcamps",),
                         catalog=generate_catalog(2))
    assert strip_timing(given) == strip_timing(base)


def test_write_csv_and_json_round_trip(tmp_path):
    records = bench_tdoped(2, 3, 2, shots=1, seed=2, backends=("gcamps",))
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    write_csv(csv_path, records)
    write_json(json_path, records)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    parsed = [parse_csv_row(ln) for ln in lines[1:]]
    assert strip_timing(parsed) == strip_timing(records)
    for p, r in zip(parsed, records):
        assert p.dt_seconds == pytest.approx(r.dt_seconds, abs=1e-6)

    import json

    payload = json.loads(json_path.read_text())
    assert len(payload) == len(records)
    assert payload[0]["backend"] == "gcamps"
    assert payload[0]["chi_vector"] == list(records[0].chi_vector)


def test_backends_constant():
    assert BACKENDS == ("gcamps", "mps", "statevector")
