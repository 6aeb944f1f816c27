"""Gates for prime-dimensional qudits: the one gate object, GateOp, its
names, and their dense matrices.

The Clifford names are the generating set {H, S, X, Z, SUM}, the explicit
inverses Hdg, Sdg and SUMdg, and SWAP; T, Tdg, RZ and U1 are the
non-Clifford ones. The same GateOp runs from circuit text through the dense
and MPS backends to the Clifford tableau and the disentangler catalog. A
gate knows its name, sites and params only; the qudit dimension d always
comes from the object it acts on, so the same word can drive a tableau at
d=2 and a dense oracle at d=5 in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import QuditDim, clock_matrix, omega, shift_matrix, tau

ONE_SITE_NAMES = ("H", "Hdg", "S", "Sdg", "X", "Z", "T", "Tdg", "RZ", "U1")
TWO_SITE_NAMES = ("SUM", "SUMdg", "SWAP")
GATE_NAMES = ONE_SITE_NAMES + TWO_SITE_NAMES
NON_CLIFFORD_NAMES = frozenset({"T", "Tdg", "RZ", "U1"})

_INVERSE_NAME = {"H": "Hdg", "Hdg": "H", "S": "Sdg", "Sdg": "S",
                 "SUM": "SUMdg", "SUMdg": "SUM", "SWAP": "SWAP"}


@dataclass(frozen=True, slots=True)
class GateOp:
    name: str
    sites: tuple
    params: tuple = ()

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate name {self.name!r}")
        sites = tuple(int(s) for s in self.sites)
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "params", params)
        want = 2 if self.name in TWO_SITE_NAMES else 1
        if len(sites) != want:
            raise ValueError(f"{self.name} takes {want} site(s), got {len(sites)}")
        if any(s < 0 for s in sites):
            raise ValueError("site indices must be nonnegative")
        if want == 2 and sites[0] == sites[1]:
            raise ValueError(f"{self.name} sites must differ")
        if not all(map(math.isfinite, params)):
            raise ValueError(f"{self.name} params must be finite")
        if self.name == "RZ":
            if len(params) != 1:
                raise ValueError("RZ takes exactly one angle parameter")
        elif self.name == "U1":
            if not params:
                raise ValueError("U1 needs d diagonal phase parameters")
        elif params:
            raise ValueError(f"{self.name} takes no parameters")

    @property
    def is_clifford(self) -> bool:
        return self.name not in NON_CLIFFORD_NAMES


def _matrix(name: str, params: tuple, d: int) -> np.ndarray:
    if name == "H":
        jj = np.arange(d)
        return omega(d) ** np.outer(jj, jj) / np.sqrt(d)
    if name == "S":
        jj = np.arange(d)
        if d % 2:
            return np.diag(omega(d) ** (jj * (jj - 1) // 2))
        return np.diag(tau(d) ** (jj * jj))
    if name == "X":
        return shift_matrix(d)
    if name == "Z":
        return clock_matrix(d)
    if name == "SUM":
        m = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                m[i * d + (i + j) % d, i * d + j] = 1.0
        return m
    if name == "SWAP":
        return swap_matrix(d)
    if name == "T":
        if d == 2:
            return np.diag([1.0, np.exp(1j * np.pi / 4)])
        return np.diag([1.0, np.exp(1j * np.pi / 9), np.exp(8j * np.pi / 9)])
    if name == "RZ":
        th = params[0]
        return np.diag([np.exp(-0.5j * th), np.exp(0.5j * th)])
    if name == "U1":
        return np.diag(np.exp(1j * np.asarray(params)))
    raise ValueError(f"unknown gate name {name!r}")


def check_dimension(op: GateOp, d: int) -> None:
    """Raise ValueError when op has no matrix at qudit dimension d: T and
    Tdg exist at d in {2, 3} only, RZ at d = 2 only, and U1 takes d params.
    Circuit and gate_matrix both admit ops by this one rule."""
    if op.name in ("T", "Tdg") and d not in (2, 3):
        raise ValueError("T gate matrices are defined for d in {2, 3}")
    if op.name == "RZ" and d != 2:
        raise ValueError("RZ is defined for d=2 only")
    if op.name == "U1" and len(op.params) != d:
        raise ValueError(f"U1 needs {d} params, got {len(op.params)}")


def gate_matrix(op: GateOp, d: int) -> np.ndarray:
    """Dense unitary of one op: d x d, or d^2 x d^2 with the first listed
    site on the first tensor leg. Each `dg` name is its base's dagger."""
    d = int(QuditDim(d))
    check_dimension(op, d)
    if op.name.endswith("dg"):
        return _matrix(op.name[:-2], op.params, d).conj().T
    return _matrix(op.name, op.params, d)


def inverse_gate(g: GateOp, d: int) -> list:
    """Inverse of one Clifford op as a word; X and Z invert by repetition."""
    if g.name in _INVERSE_NAME:
        return [GateOp(_INVERSE_NAME[g.name], g.sites)]
    if g.name in ("X", "Z"):
        return [g] * (int(d) - 1)
    raise ValueError(f"{g.name} is not a Clifford gate")


def invert_word(word, d: int) -> list:
    """Word for the inverse unitary, in application order."""
    out = []
    for g in reversed(list(word)):
        out.extend(inverse_gate(g, d))
    return out


def swap_matrix(d: int) -> np.ndarray:
    """Dense d^2 x d^2 SWAP: |i,j> -> |j,i>."""
    eye = np.eye(d * d, dtype=np.complex128)
    return eye.reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)


def swap_legs(u, d: int) -> np.ndarray:
    """The same two-site operator with its legs in (second, first) order,
    i.e. SWAP u SWAP for a d^2 x d^2 matrix u."""
    return (np.asarray(u).reshape(d, d, d, d).transpose(1, 0, 3, 2)
            .reshape(d * d, d * d))
