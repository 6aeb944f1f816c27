"""Dense reference simulator.

This is the brute-force oracle the rest of the package is tested against.
Gates contract against single state axes, so the working set is one d**n
vector; the d**n x d**n operator is never materialized. Still exponential,
hence the size guard, pauli.check_dense_size, which every constructor runs
before it allocates; max_dim overrides its default limit.
"""

from __future__ import annotations

import numpy as np

from .mps import robust_svd
from .pauli import (
    PauliString, QuditDim, check_dense_size, checked_unitary, site_matrix,
)


class DenseState:
    """Complex amplitude vector over n qudits, site 0 on the slowest index."""

    __slots__ = ("d", "n", "amps")

    def __init__(self, d: int, n: int, amps=None, max_dim: int | None = None):
        self.d = int(QuditDim(d))
        self.n = int(n)
        dim = check_dense_size(self.d, self.n, max_dim)
        if amps is None:
            self.amps = np.zeros(dim, dtype=complex)
            self.amps[0] = 1.0
        else:
            self.amps = np.asarray(amps, dtype=complex).reshape(dim).copy()

    @classmethod
    def basis_state(cls, d: int, n: int, digits, max_dim=None) -> "DenseState":
        digits = [int(v) for v in digits]
        d = int(QuditDim(d))
        if len(digits) != n or any(v < 0 or v >= d for v in digits):
            raise ValueError("digits must be n values in range(d)")
        s = cls(d, n, max_dim=max_dim)
        s.amps[0] = 0.0
        idx = 0
        for v in digits:
            idx = idx * d + v
        s.amps[idx] = 1.0
        return s

    def copy(self) -> "DenseState":
        return DenseState(self.d, self.n, self.amps, max_dim=self.amps.size)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def amplitude(self, digits) -> complex:
        digits = list(digits)
        if len(digits) != self.n:
            raise ValueError("digit string length must equal the site count")
        idx = 0
        for v in digits:
            v = int(v)
            if v < 0 or v >= self.d:
                raise ValueError("digit out of range")
            idx = idx * self.d + v
        return complex(self.amps[idx])

    def apply_unitary(self, u, sites) -> "DenseState":
        """Contract a 1- or 2-site operator against the given state axes.

        The operator's tensor legs follow the order of `sites`, so controlled
        gates keep their control on the first listed site. An operator that
        checked_unitary rejects, or a bad site list, raises ValueError with
        the amplitudes untouched.
        """
        sites = [int(s) for s in sites]
        k = len(sites)
        u = checked_unitary(u, self.d, k)
        if len(set(sites)) != k or any(s < 0 or s >= self.n for s in sites):
            raise ValueError(f"bad site list {sites}")
        psi = self.amps.reshape([self.d] * self.n)
        g = u.reshape([self.d] * (2 * k))
        psi = np.tensordot(g, psi, axes=(list(range(k, 2 * k)), sites))
        psi = np.moveaxis(psi, list(range(k)), sites)
        self.amps = np.ascontiguousarray(psi).reshape(-1)
        return self

    def pauli_expectation(self, p: PauliString) -> complex:
        """<psi| P |psi> via per-site contractions."""
        if p.d != self.d or p.n_sites != self.n:
            raise ValueError("Pauli string shape does not match state")
        work = self.copy()
        for i in range(self.n):
            if p.x[i] or p.z[i]:
                work.apply_unitary(site_matrix(self.d, int(p.x[i]), int(p.z[i])),
                                   [i])
        return complex(p.phase_value() * np.vdot(self.amps, work.amps))

    def schmidt_values(self, cut: int) -> np.ndarray:
        """Singular values across the bond after `cut` sites (1 <= cut < n)."""
        if cut < 1 or cut >= self.n:
            raise ValueError(f"cut must lie strictly inside the chain, got {cut}")
        block = self.amps.reshape(self.d ** cut, self.d ** (self.n - cut))
        return robust_svd(block, compute_uv=False)


def fidelity(a: DenseState, b: DenseState) -> float:
    """|<a|b>|."""
    if a.d != b.d or a.n != b.n:
        raise ValueError("states differ in shape")
    return float(abs(np.vdot(a.amps, b.amps)))


def run_circuit(circuit, max_dim: int | None = None) -> DenseState:
    """Evolve |0...0> through a Circuit (see the circuits module)."""
    from .circuits import gate_matrix

    s = DenseState(circuit.d, circuit.n, max_dim=max_dim)
    for op in circuit.ops:
        s.apply_unitary(gate_matrix(op, circuit.d), op.sites)
    return s
