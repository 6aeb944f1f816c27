"""Clifford generator gates for prime-dimensional qudits.

The generating set is {H, S, X, Z, SUM} plus explicit inverses for the
non-self-inverse ones. A gate knows its kind and sites only; the qudit
dimension d always comes from the object it acts on, so the same word can
drive a tableau at d=2 and a dense oracle at d=5 in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import QuditDim, clock_matrix, omega, shift_matrix, tau

ONE_SITE_KINDS = ("H", "H_inv", "S", "S_inv", "X", "Z")
TWO_SITE_KINDS = ("SUM", "SUM_inv")
GATE_KINDS = ONE_SITE_KINDS + TWO_SITE_KINDS

_INVERSE_KIND = {"H": "H_inv", "H_inv": "H", "S": "S_inv", "S_inv": "S",
                 "SUM": "SUM_inv", "SUM_inv": "SUM"}


@dataclass(frozen=True)
class CliffordGate:
    kind: str
    sites: tuple

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        sites = tuple(int(s) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        want = 1 if self.kind in ONE_SITE_KINDS else 2
        if len(sites) != want:
            raise ValueError(f"{self.kind} takes {want} site(s), got {len(sites)}")
        if any(s < 0 for s in sites):
            raise ValueError("site indices must be nonnegative")
        if want == 2 and sites[0] == sites[1]:
            raise ValueError("SUM control and target must differ")


def gate(kind: str, *sites: int) -> CliffordGate:
    """Shorthand constructor: gate('SUM', 0, 1)."""
    return CliffordGate(kind, tuple(sites))


def kind_unitary(kind: str, d: int) -> np.ndarray:
    """Dense unitary of a gate kind: d x d, or d^2 x d^2 with the control
    on the first tensor leg."""
    d = int(QuditDim(d))
    if kind.endswith("_inv"):
        return kind_unitary(kind[:-4], d).conj().T
    if kind == "H":
        jj = np.arange(d)
        return omega(d) ** np.outer(jj, jj) / np.sqrt(d)
    if kind == "S":
        jj = np.arange(d)
        if d % 2:
            return np.diag(omega(d) ** (jj * (jj - 1) // 2))
        return np.diag(tau(d) ** (jj * jj))
    if kind == "X":
        return shift_matrix(d)
    if kind == "Z":
        return clock_matrix(d)
    if kind == "SUM":
        m = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                m[i * d + (i + j) % d, i * d + j] = 1.0
        return m
    raise ValueError(f"unknown gate kind {kind!r}")


def gate_unitary(g: CliffordGate, d: int) -> np.ndarray:
    return kind_unitary(g.kind, d)


def inverse_gate(g: CliffordGate, d: int) -> list:
    """Inverse of one gate as a word; X and Z invert by repetition."""
    if g.kind in _INVERSE_KIND:
        return [CliffordGate(_INVERSE_KIND[g.kind], g.sites)]
    return [CliffordGate(g.kind, g.sites)] * (int(d) - 1)


def invert_word(word, d: int) -> list:
    """Word for the inverse unitary, in application order."""
    out = []
    for g in reversed(list(word)):
        out.extend(inverse_gate(g, d))
    return out


def swap_word(a: int, b: int) -> list:
    """SWAP(a, b) over the generator set, valid for every prime d.

    Three SUMs leave |i,j> as |-j,i>; H applied twice is the parity
    permutation |k> -> |-k>, which repairs the sign on site a. At d=2
    the parity is the identity and this reduces to the usual CNOT triple.
    """
    return [gate("SUM", a, b), gate("SUM_inv", b, a), gate("SUM", a, b),
            gate("H", a), gate("H", a)]


def swap_matrix(d: int) -> np.ndarray:
    """Dense d^2 x d^2 SWAP: |i,j> -> |j,i>."""
    eye = np.eye(d * d, dtype=np.complex128)
    return eye.reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)


def swap_legs(u, d: int) -> np.ndarray:
    """The same two-site operator with its legs in (second, first) order,
    i.e. SWAP u SWAP for a d^2 x d^2 matrix u."""
    return (np.asarray(u).reshape(d, d, d, d).transpose(1, 0, 3, 2)
            .reshape(d * d, d * d))
