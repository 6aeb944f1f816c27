"""Benchmark harness: run circuits on any backend and record per-layer rows.

A layer boundary is every non-Clifford op; the trailing ops of a circuit
(or a circuit with no non-Clifford at all) close one final layer so every
run yields at least one row. Each row snapshots the bond profile right
after its boundary, the memory model recomputed from that profile, and the
wall time spent since the previous boundary.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np

from .circuits import Circuit, gate_matrix, t_doped_circuit
from .disentanglers import generate_catalog
from .gcamps import new_state
from .mps import Mps, TruncationPolicy, mps_model_bytes, worst_case_chi
from .statevector import DenseState

__all__ = [
    "BenchRecord",
    "CSV_HEADER",
    "bench_tdoped",
    "parse_csv_row",
    "run_on_backend",
    "worst_case_chi",
    "write_csv",
    "write_json",
    "BACKENDS",
]

CSV_HEADER = ("backend,d,n,shot,seed,layer,chi_max,chi_vector,"
              "mem_bytes,mem_worst_bytes,dt_seconds")
BACKENDS = ("gcamps", "mps", "statevector")

_RANK_TOL = 1e-12  # relative threshold for dense Schmidt ranks


@dataclass(frozen=True)
class BenchRecord:
    backend: str
    d: int
    n: int
    shot: int
    seed: int
    layer: int
    chi_max: int
    chi_vector: tuple
    mem_bytes: int
    mem_worst_bytes: int
    dt_seconds: float

    def csv_row(self) -> str:
        chi = "|".join(str(c) for c in self.chi_vector)
        return (f"{self.backend},{self.d},{self.n},{self.shot},{self.seed},"
                f"{self.layer},{self.chi_max},{chi},{self.mem_bytes},"
                f"{self.mem_worst_bytes},{self.dt_seconds:.6f}")


def parse_csv_row(line: str) -> BenchRecord:
    parts = line.strip().split(",")
    if len(parts) != 11:
        raise ValueError(f"expected 11 CSV fields, got {len(parts)}")
    chi = tuple(int(c) for c in parts[7].split("|")) if parts[7] else ()
    return BenchRecord(
        backend=parts[0], d=int(parts[1]), n=int(parts[2]),
        shot=int(parts[3]), seed=int(parts[4]), layer=int(parts[5]),
        chi_max=int(parts[6]), chi_vector=chi, mem_bytes=int(parts[8]),
        mem_worst_bytes=int(parts[9]), dt_seconds=float(parts[10]),
    )


def _record(backend, circ, shot, seed, layer, chi, dt) -> BenchRecord:
    chi = [int(c) for c in chi]
    worst = worst_case_chi(chi, circ.d, circ.n)
    return BenchRecord(
        backend=backend, d=circ.d, n=circ.n, shot=shot, seed=seed,
        layer=layer, chi_max=max(chi, default=1),
        chi_vector=tuple(chi),
        mem_bytes=mps_model_bytes(chi, circ.d),
        mem_worst_bytes=mps_model_bytes(worst, circ.d),
        dt_seconds=float(dt),
    )


def _op_layers(ops):
    """The ops cut after every non-Clifford op; trailing Clifford ops close
    one more layer."""
    start = 0
    for k, op in enumerate(ops):
        if not op.is_clifford:
            yield ops[start:k + 1]
            start = k + 1
    if start < len(ops):
        yield ops[start:]


def _dense_ranks(state: DenseState):
    out = []
    for cut in range(1, state.n):
        s = state.schmidt_values(cut)
        out.append(int(np.count_nonzero(s > _RANK_TOL * s[0])))
    return out


def _start(backend, circ, policy, catalog, verify):
    """What differs by backend: the fresh state, a callable applying one
    layer of ops to it, and a callable reading its bond profile.

    gcamps folds a layer's Clifford ops into its tableau as one word and
    hands the closing non-Clifford op to GcampsState.apply_op.
    """
    n, d = circ.n, circ.d
    if backend == "gcamps":
        if catalog is None:
            catalog = _cached_catalog(d)
        st = new_state(n, d, catalog, policy=policy, verify=verify)

        def apply_layer(ops):
            last = None if ops[-1].is_clifford else ops[-1]
            cliffords = ops if last is None else ops[:-1]
            st.apply_clifford_word(cliffords)
            if last is not None:
                st.apply_op(last)

        return st, apply_layer, st.mps.bond_dims
    if backend == "mps":
        st = Mps.product_state(n, d, policy=policy)
        profile = st.bond_dims
    else:
        st = DenseState(d, n)
        profile = partial(_dense_ranks, st)

    def apply_layer(ops):
        for op in ops:
            st.apply_unitary(gate_matrix(op, d), op.sites)

    return st, apply_layer, profile


def run_on_backend(backend, circ: Circuit, *, shot=0, seed=0, policy=None,
                   catalog=None, verify=False):
    """Run one circuit on one backend; returns (records, final_state)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if policy is None:
        policy = TruncationPolicy()
    records = []
    t0 = time.perf_counter()
    st, apply_layer, profile = _start(backend, circ, policy, catalog, verify)
    for ops in _op_layers(circ.ops):
        apply_layer(ops)
        now = time.perf_counter()
        records.append(_record(backend, circ, shot, seed, len(records) + 1,
                               profile(), now - t0))
        t0 = now
    if not records:  # an empty circuit still closes one layer
        records.append(_record(backend, circ, shot, seed, 1, profile(),
                               time.perf_counter() - t0))
    return records, st


@lru_cache(maxsize=None)
def _cached_catalog(d):
    return generate_catalog(d)


def shot_seed(seed: int, shot: int) -> int:
    return seed * 1_000_003 + shot


def bench_tdoped(d, sites, layers, shots, seed, backends=("gcamps", "mps"),
                 block_len=None, policy=None, catalog=None):
    """T-doped benchmark sweep; returns rows in (backend, shot, layer) order.

    block_len defaults to 2n here (not the circuit generator's 5n^2): the
    raw-MPS comparison backend pays per-gate tensor work at saturated bond
    dimension, and 2n keeps the sweep affordable while staying scrambling
    enough for the regime comparison. Pass a preloaded `catalog` to skip
    the cached in-process generation.
    """
    backends = tuple(backends)
    for b in backends:
        if b not in BACKENDS:
            raise ValueError(f"unknown backend {b!r}")
    if block_len is None:
        block_len = 2 * sites

    circuits = [t_doped_circuit(sites, d, layers, rng_seed=shot_seed(seed, shot),
                                block_len=block_len) for shot in range(shots)]
    out = []
    for b in backends:
        for shot, circ in enumerate(circuits):
            recs, _ = run_on_backend(b, circ, shot=shot, seed=seed,
                                     policy=policy, catalog=catalog)
            out.extend(recs)
    return out


def write_csv(path, records):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def write_json(path, records):
    payload = [asdict(rec) | {"chi_vector": list(rec.chi_vector)}
               for rec in records]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
