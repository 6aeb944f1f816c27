#!/usr/bin/env python3
"""quditsim benchmark: seeded T-doped workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

The package is imported from ./src, so nothing needs installing. One
process runs one circuit after another (a closed loop, shots serial) with
BLAS pinned to one thread. A run builds the disentangler catalogs (timed
as set-up), then runs blocks of fresh circuits generated from --seed until
--seconds are spent, timing a fixed reference computation between shots,
checks final states against computations made apart from the engine, and
prints one JSON result as its last line. --trace 1 runs every block a
second time with tracing on and prints the per-layer metrics instead. See
perfbench/README.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

try:
    import numpy as np

    import quditsim
    from quditsim import PauliString, bench, disentanglers, kernels, statevector
    from quditsim.circuits import GateOp, t_doped_circuit
    from quditsim.gcamps import GcampsState, tableau_bytes

    if HERE.parent / "src" not in Path(quditsim.__file__).resolve().parents:
        raise ImportError(f"found another copy at {quditsim.__file__}")
except ImportError as exc:  # run outside a checkout that holds src/
    print(f"error: cannot import quditsim from {HERE.parent / 'src'}: {exc}",
          file=sys.stderr)
    sys.exit(2)

from tracing import Tracer, span_names  # noqa: E402

FIDELITY_TOL = 1e-8
EXPECT_TOL = 1e-8
SETUP_REPS = 3
MIN_BLOCKS = 3
REF_SHARE = 0.1
OUT_DIR = HERE / "out"

# name -> circuit families (d, n, layers, block length per site), circuits
# per family in one block, every how many circuits of a family the raw MPS
# backend also runs (0: never), the correctness check, and how many blocks
# from the start of the run it covers (every shot's bond profile and memory
# model are checked in any case). A run measures block after block of fresh
# seeded circuits until --seconds are spent, so it holds as many distinct
# circuits as the time allows and a slow host does not make it longer.
WORKLOADS = {
    "paper-grid": {
        "families": ((2, 12, 6, 2), (3, 8, 6, 2)),
        "per_block": 8,
        "mps_every": 8,
        "check": "oracle",
        "check_blocks": 2,
    },
    "width": {
        "families": ((3, 96, 2, 8),),
        "per_block": 1,
        "mps_every": 0,
        "check": "echo",
        "check_blocks": 1,
    },
    "crossover": {
        "families": ((3, 8, 28, 2),),
        "per_block": 1,
        "mps_every": 0,
        "check": "oracle",
        "check_blocks": 4,
    },
}

_INVERSE = {"H": "Hdg", "Hdg": "H", "S": "Sdg", "Sdg": "S",
            "SUM": "SUMdg", "SUMdg": "SUM", "T": "Tdg", "Tdg": "T"}


def make_block(name, seed, b):
    """Block `b` of the workload's circuits for this seed: (circuit, backends)
    pairs in run order."""
    spec = WORKLOADS[name]
    wid = list(WORKLOADS).index(name)
    every = spec["mps_every"]
    entries = []
    for k in range(b * spec["per_block"], (b + 1) * spec["per_block"]):
        backends = ("gcamps", "mps") if every and k % every == 0 \
            else ("gcamps",)
        for f, (d, n, layers, block) in enumerate(spec["families"]):
            entries.append((t_doped_circuit(
                n, d, layers, rng_seed=(seed, wid, f, k), block_len=block * n),
                backends))
    return entries


class Reference:
    """A fixed computation, timed between shots, that tracks the core's speed.

    Complex SVDs from 9x9 to 81x81 and an integer loop in the interpreter,
    the kinds of work a shot does. It lives in this file, so no change to
    quditsim makes it faster or slower; dividing shot time by its mean time
    cancels what the host does to the speed of the core while the run lasts.
    Each call draws its matrices afresh (from a fixed cycle of seeds), so
    they land in new places in memory: the same arrays held for a whole run
    ran up to 13 % faster or slower from one process to the next.
    """

    SHAPES = [(9, 9)] * 24 + [(27, 27)] * 4 + [(81, 27), (81, 81)]

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self._work()  # warm-up, not counted

    def _work(self):
        rng = np.random.default_rng(self.calls % 64)
        acc = 0.0
        for shape in self.SHAPES:
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            acc += float(np.linalg.svd(m, full_matrices=False)[1][0])
        x = 0
        for i in range(6000):
            x = (x * 31 + i) % 1000003
        return acc + x

    def fill(self, seconds):
        """Run the computation for REF_SHARE of `seconds`, at least once."""
        spent = 0.0
        while spent < REF_SHARE * seconds or not spent:
            t0 = time.perf_counter()
            self._work()
            dt = time.perf_counter() - t0
            self.calls += 1
            self.seconds += dt
            spent += dt

    def mean_s(self):
        return self.seconds / self.calls


def environment():
    import scipy

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "QSIM_THREADS": os.environ.get("QSIM_THREADS"),
        "QSIM_NUMBA": os.environ.get("QSIM_NUMBA"),
        "kernel_backend": kernels.backend(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "python": platform.python_version(),
    }


def build_catalogs(dims, reps):
    """Build every catalog `reps` times; returns (catalogs, median seconds)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        cats = {d: disentanglers.generate_catalog(d) for d in dims}
        times.append(time.perf_counter() - t0)
    for cat in cats.values():
        cat.unitaries()  # fill the lazy cache before any shot is timed
    return cats, statistics.median(times)


class ReportLog:
    """Collects the DisentangleReports that GcampsState.apply_op returns."""

    def __init__(self):
        self.reports = []
        self._orig = GcampsState.__dict__["apply_op"]
        log = self.reports
        orig = self._orig

        def apply_op(state, op):
            rep = orig(state, op)
            if rep is not None:
                log.append(rep)
            return rep

        GcampsState.apply_op = apply_op

    def take(self):
        out = list(self.reports)
        self.reports.clear()
        return out

    def close(self):
        GcampsState.apply_op = self._orig


class Shot:
    __slots__ = ("backend", "index", "circ", "ops", "wall_s", "cpu_s",
                 "records", "reports", "state")

    def digest(self):
        """Per-layer bond profiles and every accepted (entry index, bond)."""
        chi = [list(r.chi_vector) for r in self.records]
        gates = [list(g) for rep in self.reports for g in rep.gates_applied]
        return [self.backend, self.index, chi, gates]


def shot_labels(entries, label):
    return {f"{label}.c{i}.{b}" for i, (_, bs) in enumerate(entries)
            for b in bs}


def run_block(entries, first_index, catalogs, log, tracer, label, ref,
              keep_state=False):
    """One pass over a block; returns (shots, failed).

    With a Reference, each shot is followed by reference calls that take
    REF_SHARE of the shot's time, so the reference samples the host's speed
    evenly over the time the shots ran.
    """
    shots, failed = [], 0
    for i, (circ, backends) in enumerate(entries):
        for backend in backends:
            if tracer is not None:
                tracer.shot = f"{label}.c{i}.{backend}"
            log.take()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                records, state = bench.run_on_backend(
                    backend, circ, catalog=catalogs[circ.d], verify=True)
            except Exception:  # count the shot as failed and keep running
                traceback.print_exc()
                failed += 1
                continue
            shot = Shot()
            shot.wall_s = time.perf_counter() - t0
            shot.cpu_s = time.process_time() - c0
            shot.backend, shot.index = backend, first_index + i
            shot.circ, shot.ops = circ, len(circ.ops)
            shot.records, shot.reports = records, log.take()
            shot.state = state if keep_state else None
            shots.append(shot)
            if ref is not None:
                ref.fill(shot.wall_s)
    return shots, failed


# -- correctness checks ---------------------------------------------------------


def check_records(circ, shot):
    """Bond ceiling d^min(b, n-b) and the memory model, recomputed here."""
    d, n = circ.d, circ.n
    for rec in shot.records:
        chi = list(rec.chi_vector)
        if len(chi) != n - 1:
            return "bond profile has the wrong length"
        if any(c < 1 or c > d ** min(b, n - b) for b, c in enumerate(chi, 1)):
            return f"bond above its ceiling in layer {rec.layer}: {chi}"
        dims = [1] + chi + [1]
        mem = sum(16 * d * a * b for a, b in zip(dims, dims[1:]))
        if mem != rec.mem_bytes:
            return f"mem_bytes {rec.mem_bytes} != {mem} from the bond profile"
    return None


def random_paulis(d, n, rng, count):
    out = [PauliString.single(d, n, i, 0, 1) for i in range(n)]
    for _ in range(count):
        x = rng.integers(0, d, n) * (rng.random(n) < 0.3)
        z = rng.integers(0, d, n) * (rng.random(n) < 0.3)
        out.append(PauliString(d, x, z))
    return out


def check_oracle(circ, shot, rng, oracle):
    """Fidelity against the dense oracle; for gcamps also Pauli expectations."""
    dim = circ.d ** circ.n
    st = shot.state
    vec = (st.dense_vector(max_dim=dim) if shot.backend == "gcamps"
           else st.to_dense(max_dim=dim))
    fid = abs(np.vdot(oracle.amps, vec))
    if fid < 1 - FIDELITY_TOL:
        return f"fidelity {fid:.12f} against the dense oracle"
    if shot.backend == "gcamps":
        for p in random_paulis(circ.d, circ.n, rng, 4):
            got, want = st.expectation(p), oracle.pauli_expectation(p)
            if abs(got - want) > EXPECT_TOL:
                return f"<{p.to_text()}> = {got:.10f}, oracle {want:.10f}"
    return None


def check_echo(circ, shot):
    """Undo the circuit on the timed state: every <Z_i> must return to 1."""
    st = shot.state
    for op in reversed(circ.ops):
        st.apply_op(GateOp(_INVERSE[op.name], op.sites))
    if not st.tableau.symplectic_ok():
        return "tableau is not symplectic after the echo"
    for i in range(circ.n):
        z = st.expectation(PauliString.single(circ.d, circ.n, i, 0, 1))
        if abs(z - 1) > EXPECT_TOL:
            return f"<Z_{i}> = {z:.10f} after the echo"
    return None


def run_checks(kind, shots, first_unchecked, seed):
    """Problems found; the oracle or echo check covers only the shots whose
    circuit index is below `first_unchecked`."""
    rng = np.random.default_rng(seed)
    oracles = {}  # circuit index -> dense oracle state, shared by backends
    problems = []
    for shot in shots:
        circ = shot.circ
        try:
            msg = check_records(circ, shot)
            if shot.index >= first_unchecked:
                pass
            elif msg is None and kind == "oracle":
                if shot.index not in oracles:
                    oracles[shot.index] = statevector.run_circuit(
                        circ, max_dim=circ.d ** circ.n)
                msg = check_oracle(circ, shot, rng, oracles[shot.index])
            elif msg is None and kind == "echo" and shot.index == 0:
                msg = check_echo(circ, shot)
        except Exception as exc:  # a check that raises is a failed check
            msg = f"{type(exc).__name__}: {exc}"
        if msg is not None:
            problems.append(f"{shot.backend} circuit {shot.index}: {msg}")
    return problems


# -- metrics ----------------------------------------------------------------------


def speed(shots, backend, clock="wall_s"):
    """(mean seconds per circuit, circuit ops per second) on one backend."""
    mine = [s for s in shots if s.backend == backend]
    if not mine:
        return 0.0, 0.0
    busy = sum(getattr(s, clock) for s in mine)
    return busy / len(mine), sum(s.ops for s in mine) / busy


def peaks(shots, backend):
    """(largest bond over all shots, mean of each shot's largest memory model).

    For gcamps the memory model includes tableau_bytes(n).
    """
    chi, mem = [], []
    for s in shots:
        if s.backend != backend:
            continue
        extra = tableau_bytes(len(s.records[0].chi_vector) + 1) \
            if backend == "gcamps" else 0
        chi.append(max(r.chi_max for r in s.records))
        mem.append(max(r.mem_bytes for r in s.records) + extra)
    if not chi:
        return 0, 0.0
    return max(chi), statistics.fmean(mem)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_s, shots, ref, rss_mb):
    shot_s, _ = speed(shots, "gcamps")
    _, mem = peaks(shots, "gcamps")
    return {
        "setup_s": metric(setup_s, "s"),
        "gcamps.shot_rel": metric(shot_s / ref.mean_s(), "ref"),
        "gcamps.peak_mem_bytes": metric(mem, "bytes"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(tracer, plain, traced, traced_labels, ref):
    """Per traced block (per setup for generate_catalog)."""
    n_traced = len(traced)
    calls, self_s = tracer.totals(traced_labels)
    s_calls, s_self = tracer.totals({"setup"})
    out = {}
    for name in span_names():
        if name == "disentanglers.generate_catalog":
            c, t = s_calls[name] / SETUP_REPS, s_self[name] / SETUP_REPS
        else:
            c, t = calls[name] / n_traced, self_s[name] / n_traced
        out[f"{name}.calls"] = metric(c, "count")
        out[f"{name}.self_s"] = metric(t, "s")
    plain = [s for shots in plain for s in shots]
    traced = [s for shots in traced for s in shots]
    reports = [rep for s in traced for rep in s.reports]
    visited = sum(len(r.bonds_visited) for r in reports) / n_traced
    absorbed = sum(len(r.gates_applied) for r in reports) / n_traced
    scored = calls["gcamps.robust_svd"] / n_traced - visited
    out["gcamps.bonds_visited"] = metric(visited, "count")
    out["gcamps.gates_absorbed"] = metric(absorbed, "count")
    out["gcamps.passes"] = metric(
        sum(r.passes for r in reports) / n_traced, "count")
    out["gcamps.early_terminations"] = metric(
        sum(r.early_termination for r in reports) / n_traced, "count")
    out["gcamps.candidates_scored"] = metric(scored, "count")
    out["gcamps.accept_ratio"] = metric(absorbed / scored if scored else 0.0,
                                        "ratio")
    for backend in ("gcamps", "mps"):
        shot_s, gates = speed(plain, backend)
        cpu_s, _ = speed(plain, backend, clock="cpu_s")
        traced_s, _ = speed(traced, backend)
        chi, mem = peaks(plain, backend)
        out[f"{backend}.shots"] = metric(
            sum(s.backend == backend for s in traced) / n_traced, "count")
        out[f"{backend}.peak_chi"] = metric(chi, "count")
        out[f"{backend}.shot_s"] = metric(shot_s, "s")
        out[f"{backend}.gates_per_s"] = metric(gates, "ops/s")
        if backend == "mps":
            out["mps.peak_mem_bytes"] = metric(mem, "bytes")
        out[f"{backend}.cpu_shot_s"] = metric(cpu_s, "s")
        out[f"{backend}.traced_shot_s"] = metric(traced_s, "s")
        out[f"{backend}.trace_overhead_s"] = metric(traced_s - shot_s, "s")
    out["ref.call_s"] = metric(ref.mean_s(), "s")
    out["trace.spans"] = metric(
        sum(1 for sp in tracer.spans if sp[4] in traced_labels) / n_traced,
        "count")
    return out


def fingerprint(shots):
    blob = json.dumps([s.digest() for s in shots], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- run loop ---------------------------------------------------------------------


def run(args):
    spec = WORKLOADS[args.workload]
    dims = sorted({fam[0] for fam in spec["families"]})
    tracer = Tracer() if args.trace else None
    print(json.dumps({"env": environment()}), flush=True)

    if tracer is not None:
        tracer.install()
    catalogs, setup_s = build_catalogs(
        dims, 1 if args.fingerprint else SETUP_REPS)
    if tracer is not None:
        tracer.uninstall()

    log = ReportLog()
    ref = Reference()
    plain, traced, traced_labels = [], [], set()
    attempted = failed = n_entries = 0
    problems = []
    t_start = time.perf_counter()
    try:
        while True:
            entries = make_block(args.workload, args.seed, len(plain))
            shots, bad = run_block(
                entries, n_entries, catalogs, log, None, None, ref,
                keep_state=len(plain) < spec["check_blocks"])
            plain.append(shots)
            failed += bad
            attempted += sum(len(bs) for _, bs in entries)
            if tracer is not None:  # the same block again, traced
                label = f"b{len(traced)}"
                tracer.install()
                traced_labels.update(shot_labels(entries, label))
                try:
                    shots, bad = run_block(entries, n_entries, catalogs, log,
                                           tracer, label, None)
                finally:
                    tracer.uninstall()
                if [s.digest() for s in shots] != \
                        [s.digest() for s in plain[-1]]:
                    problems.append(f"traced block {label} made other "
                                    "engine choices than its plain run")
                traced.append(shots)
                failed += bad
                attempted += sum(len(bs) for _, bs in entries)
            n_entries += len(entries)
            if len(plain) < MIN_BLOCKS:
                continue
            elapsed = time.perf_counter() - t_start
            if args.fingerprint or elapsed * (1 + 1 / len(plain)) > args.seconds:
                break
        measured_s = time.perf_counter() - t_start
        head = [s for shots in plain[:MIN_BLOCKS] for s in shots]
        print_info = {"workload": args.workload, "seed": args.seed,
                      "fingerprint": fingerprint(head)}
        if args.fingerprint:
            print(json.dumps(print_info))
            return 0
        # The first block once more, untimed: the engine must repeat itself.
        again, _ = run_block(make_block(args.workload, args.seed, 0), 0,
                             catalogs, log, None, None, None)
        if [s.digest() for s in again] != [s.digest() for s in plain[0]]:
            problems.append("a second run of block 0 made other engine "
                            "choices than the first")
    finally:
        log.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    shots = [s for block in plain for s in block]
    t_check = time.perf_counter()
    checked = spec["check_blocks"] * spec["per_block"] * len(spec["families"])
    problems += run_checks(spec["check"], shots, checked, args.seed)
    check_s = time.perf_counter() - t_check
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    print_info.update({
        "blocks": len(plain), "shots": len(shots),
        "traced_blocks": len(traced),
        "measured_s": round(measured_s, 3), "check_s": round(check_s, 3),
        "ref_calls": ref.calls, "ref_call_s": ref.mean_s(),
        "peak_chi": {b: peaks(shots, b)[0]
                     for b in sorted({s.backend for s in shots})},
    })
    print(json.dumps(print_info), flush=True)

    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.csv.gz")
        metrics = per_layer(tracer, plain, traced, traced_labels, ref)
    else:
        metrics = end_to_end(setup_s, shots, ref, rss_mb)
    print(json.dumps({"correct": not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def compare(path_a, path_b):
    """Ratio b/a of every metric in two saved outputs of this script."""
    def load(path):
        env = result = None
        for line in Path(path).read_text().splitlines():
            if line.startswith("{"):
                obj = json.loads(line)
                env = obj.get("env", env)
                result = obj if "metrics" in obj else result
        if env is None or result is None:
            raise SystemExit(f"error: {path} holds no benchmark output")
        return env, result["metrics"]

    (env_a, m_a), (env_b, m_b) = load(path_a), load(path_b)
    ok = env_a["kernel_backend"] == env_b["kernel_backend"]
    if not ok:
        print(f"NOT COMPARABLE: kernel backend {env_a['kernel_backend']} vs "
              f"{env_b['kernel_backend']}")
    for key in ("numpy", "blas", "blas_threads", "nproc"):
        if env_a.get(key) != env_b.get(key):
            print(f"note: {key} differs: {env_a.get(key)} vs {env_b.get(key)}")
    for name in sorted(set(m_a) & set(m_b)):
        a, b = m_a[name]["value"], m_b[name]["value"]
        ratio = f"{b / a:.4f}" if a else "n/a"
        print(f"{name:40s} {a:14.6g} {b:14.6g} {ratio}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fingerprint", action="store_true",
                    help="run the first blocks untimed and print only their "
                    "fingerprint")
    ap.add_argument("--compare", nargs=2, metavar="OUTPUT",
                    help="compare two saved outputs of this script")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
