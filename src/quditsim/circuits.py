"""Circuit IR: the gate list over n qudits, a line-oriented text format,
and the random T-doped Clifford circuits the benchmark runs on. Ops are
the GateOps of `gates`, which every backend and the tableau take as they
are.

Text format (bit-exact, LF endings):

    # qsim v1 d=<d> n=<n>
    # meta <key>=<value>        (optional, round-tripped)
    <NAME> <site> [<site2>] [<param>...]

Params are decimal floats printed with 17 significant digits so emit/parse
round-trips are exact. `#` starts a comment line.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# gate_matrix is re-exported: callers and the tracer use circuits.gate_matrix
from .gates import (  # noqa: F401
    GATE_NAMES, TWO_SITE_NAMES, GateOp, check_dimension, gate_matrix,
)
from .pauli import QuditDim

_HEADER_PREFIX = "# qsim v1 "


class CircuitParseError(ValueError):
    """Raised with the offending line number in the message."""


class Circuit:
    """Ordered gate list over n qudits of prime dimension d."""

    def __init__(self, n: int, d: int, ops=(), metadata=None):
        self.n = int(n)
        self.d = int(QuditDim(d))
        if self.n < 1:
            raise ValueError("need at least one site")
        self.ops = list(ops)
        self.metadata = dict(metadata or {})
        for op in self.ops:
            self._check_op(op)

    def _check_op(self, op: GateOp) -> None:
        if any(s >= self.n for s in op.sites):
            raise ValueError(f"{op.name} sites {op.sites} exceed n={self.n}")
        check_dimension(op, self.d)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Circuit) and self.n == other.n
                and self.d == other.d and self.ops == other.ops
                and self.metadata == other.metadata)

    def __repr__(self) -> str:
        return f"Circuit(n={self.n}, d={self.d}, ops={len(self.ops)})"


# -- text format ---------------------------------------------------------------


def emit(circuit: Circuit) -> str:
    lines = [f"# qsim v1 d={circuit.d} n={circuit.n}"]
    for k in sorted(circuit.metadata):
        lines.append(f"# meta {k}={circuit.metadata[k]}")
    for op in circuit.ops:
        parts = [op.name] + [str(s) for s in op.sites]
        parts += [f"{p:.17g}" for p in op.params]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse(text: str) -> Circuit:
    circ = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if circ is None:
            if not line.startswith(_HEADER_PREFIX):
                raise CircuitParseError(
                    f"line {ln}: expected header '# qsim v1 d=<d> n=<n>'")
            try:
                fields = dict(tok.split("=", 1) for tok in
                              line[len(_HEADER_PREFIX):].split())
                d = int(fields["d"])
                n = int(fields["n"])
            except (KeyError, ValueError):
                raise CircuitParseError(f"line {ln}: malformed header {line!r}")
            try:
                circ = Circuit(n, d)
            except ValueError as e:
                raise CircuitParseError(f"line {ln}: {e}")
            continue
        if line.startswith("# meta "):
            body = line[len("# meta "):]
            if "=" not in body:
                raise CircuitParseError(f"line {ln}: malformed metadata {line!r}")
            k, v = body.split("=", 1)
            circ.metadata[k] = v
            continue
        if line.startswith("#"):
            continue
        toks = line.split()
        name = toks[0]
        if name not in GATE_NAMES:
            raise CircuitParseError(f"line {ln}: unknown gate name {name!r}")
        n_sites = 2 if name in TWO_SITE_NAMES else 1
        site_toks = toks[1:1 + n_sites]
        param_toks = toks[1 + n_sites:]
        try:
            sites = tuple(int(t) for t in site_toks)
        except ValueError:
            raise CircuitParseError(f"line {ln}: bad site token in {line!r}")
        if len(sites) != n_sites:
            raise CircuitParseError(f"line {ln}: {name} needs {n_sites} site(s)")
        try:
            params = tuple(float(t) for t in param_toks)
        except ValueError:
            raise CircuitParseError(f"line {ln}: bad parameter token in {line!r}")
        try:
            op = GateOp(name, sites, params)
            circ._check_op(op)
        except ValueError as e:
            raise CircuitParseError(f"line {ln}: {e}")
        circ.ops.append(op)
    if circ is None:
        raise CircuitParseError("line 1: empty input, header missing")
    return circ


# -- random circuits --------------------------------------------------------------


@lru_cache(maxsize=1 << 14)
def _pool_gate(p: int, n: int) -> GateOp:
    """Entry p of the n-site pool H_0..H_{n-1}, S_0..S_{n-1}, then SUM_ab
    for a != b in row-major (a, b) order, mapped arithmetically without
    listing the n^2-entry pool. Cached, so every circuit drawn from the
    pool shares one frozen GateOp per entry (n=96's 9,312 entries fit)."""
    if p < n:
        return GateOp("H", (p,))
    if p < 2 * n:
        return GateOp("S", (p - n,))
    a, b = divmod(p - 2 * n, n - 1)
    return GateOp("SUM", (a, b + (b >= a)))


def _sample_word(rng, n: int, length: int) -> list:
    """`length` i.i.d. draws from the pool of _pool_gate."""
    if n < 1:
        raise ValueError(f"site count n must be >= 1, got {n}")
    picks = rng.integers(0, 2 * n + n * (n - 1), size=int(length)).tolist()
    return [_pool_gate(p, n) for p in picks]


def random_clifford_word(n: int, d: int, length=None, rng_seed=0) -> list:
    """Uniform i.i.d. generator word over {H_i, S_i} U {SUM_ab, a != b}.

    Not a uniform draw over the Clifford group; long words mix well enough
    for benchmarking, and the length knob is exposed. Default 5n^2.
    """
    int(QuditDim(d))
    if length is None:
        length = 5 * n * n
    if length < 1:
        raise ValueError("word length must be >= 1")
    return _sample_word(np.random.default_rng(rng_seed), n, length)


def t_doped_circuit(n: int, d: int, layers: int, rng_seed=0,
                    block_len=None) -> Circuit:
    """layers x (random Clifford block, then T on site 0).

    The number of T gates equals `layers`. block_len defaults to the
    random_clifford_word default.
    """
    d = int(QuditDim(d))
    if layers < 1:
        raise ValueError("need at least one layer")
    if block_len is None:
        block_len = 5 * n * n
    if block_len < 1:
        raise ValueError(f"block_len must be >= 1, got {block_len}")
    rng = np.random.default_rng(rng_seed)
    ops = []
    for _ in range(int(layers)):
        ops.extend(_sample_word(rng, n, block_len))
        ops.append(GateOp("T", (0,)))
    meta = {"kind": "t-doped", "seed": str(rng_seed),
            "layers": str(layers), "block": str(block_len)}
    return Circuit(n, d, ops, meta)
