"""Command-line entry point.

Exit codes: 0 success, 1 verification mismatch, 2 I/O or input errors.
main() is the one place that maps an error to its exit code.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench
from .circuits import parse
from .disentanglers import generate_catalog, load_catalog, save_catalog
from .mps import TruncationPolicy
from .statevector import run_circuit

_VERIFY_TOL = 1e-8


def _policy(args) -> TruncationPolicy:
    return TruncationPolicy(chi_max=args.chi_max, cutoff=args.cutoff)


def cmd_run(args) -> int:
    if args.catalog is not None and args.backend != "gcamps":
        raise ValueError("--catalog applies to the gcamps backend only")
    with open(args.circuit, "r", encoding="utf-8") as fh:
        circ = parse(fh.read())
    catalog = None
    if args.catalog:
        catalog = load_catalog(args.catalog)
        if catalog.d != circ.d:
            raise ValueError(
                f"catalog d={catalog.d} does not match circuit d={circ.d}"
            )
    records, state = bench.run_on_backend(
        args.backend, circ, policy=_policy(args), catalog=catalog,
        verify=args.verify,
    )
    if args.report:
        bench.write_csv(args.report, records)
    else:
        print(bench.CSV_HEADER)
        for rec in records:
            print(rec.csv_row())

    if args.verify:
        oracle = run_circuit(circ)
        if args.backend == "gcamps":
            vec = state.dense_vector()
        elif args.backend == "mps":
            vec = state.to_dense()
        else:
            vec = state.amps
        fid = abs(np.vdot(vec, oracle.amps))
        print(f"verify_fidelity={fid:.12f}")
        if not 1.0 - fid <= _VERIFY_TOL:
            print(f"error: verification fidelity {fid} below tolerance",
                  file=sys.stderr)
            return 1
    return 0


def cmd_bench_tdoped(args) -> int:
    records = bench.bench_tdoped(
        args.d, args.sites, args.layers, args.shots, args.seed,
        backends=tuple(args.backends.split(",")), block_len=args.block_len,
        policy=_policy(args),
    )
    bench.write_csv(args.out, records)
    if args.json:
        bench.write_json(args.json, records)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_disentanglers(args) -> int:
    catalog = generate_catalog(args.d, allow_large=args.allow_large)
    save_catalog(catalog, args.out)
    print(f"d={catalog.d} entangling_classes={catalog.n_entries} "
          f"group_order={catalog.group_order}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quditsim",
        description="Qudit circuit simulator: tableau, MPS, and hybrid backends",
    )
    sub = p.add_subparsers(dest="command", required=True)

    truncation = argparse.ArgumentParser(add_help=False)
    truncation.add_argument("--chi-max", type=int, default=None, dest="chi_max")
    truncation.add_argument("--cutoff", type=float,
                            default=TruncationPolicy.cutoff)

    run = sub.add_parser("run", parents=[truncation],
                         help="simulate one circuit file")
    run.add_argument("--backend", choices=bench.BACKENDS, default="gcamps")
    run.add_argument("--circuit", required=True, help="circuit text file")
    run.add_argument("--catalog", default=None,
                     help="disentangler catalog file (gcamps only; generated "
                     "if omitted)")
    run.add_argument("--verify", action="store_true",
                     help="cross-check against the dense oracle (small n only)")
    run.add_argument("--report", default=None, help="CSV output path")
    run.set_defaults(func=cmd_run)

    tb = sub.add_parser("bench-tdoped", parents=[truncation],
                        help="T-doped benchmark sweep")
    tb.add_argument("--d", type=int, required=True)
    tb.add_argument("--sites", type=int, required=True)
    tb.add_argument("--layers", type=int, required=True)
    tb.add_argument("--shots", type=int, default=10)
    tb.add_argument("--seed", type=int, default=0)
    tb.add_argument("--backends", default="gcamps,mps",
                    help="comma-separated backend list")
    tb.add_argument("--out", required=True, help="CSV output path")
    tb.add_argument("--json", default=None, help="JSON mirror output path")
    tb.add_argument("--block-len", type=int, default=None, dest="block_len",
                    help="Clifford gates per layer (default 2*sites)")
    tb.set_defaults(func=cmd_bench_tdoped)

    dis = sub.add_parser("disentanglers", help="build and save a catalog")
    dis.add_argument("--d", type=int, required=True)
    dis.add_argument("--out", required=True, help="catalog output path")
    dis.add_argument("--allow-large", action="store_true", dest="allow_large",
                     help="permit enumerations beyond the memory guard")
    dis.set_defaults(func=cmd_disentanglers)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
