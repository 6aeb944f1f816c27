"""Generalized Pauli algebra for prime-dimensional qudits.

Conventions used throughout the package:

  - omega = exp(2*pi*1j/d) and tau = exp(1j*pi/d), so tau**2 == omega and
    tau**(2*d) == 1. Scalar phases are stored as integer tau exponents
    modulo 2d, one convention for every parity of d.
  - A string denotes tau**phase * prod_i X_i**x[i] * Z_i**z[i] with X before
    Z on every site and sites in ascending order.
  - X|j> = |j+1 mod d>,  Z|j> = omega**j |j>,  X Z = omega**(-1) Z X.
  - Multiplying strings only ever adds even tau exponents (moving Z**a past
    X**b costs omega**(a*b)); odd exponents enter through gate images such
    as the even-d phase gate, where Y = tau * X * Z.

Dense realizations put site 0 on the leftmost Kronecker factor, so the basis
state |s_0 s_1 ... s_{n-1}> has index sum(s_i * d**(n-1-i)).

The package's input rules live here: checked_unitary admits operators, and
check_dense_size guards every dense d**n vector or matrix before allocation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DENSE_DIM_GUARD = 2 ** 14
COEFF_DROP_TOL = 1e-14
UNITARY_TOL = 1e-10


def _is_prime(v: int) -> bool:
    if v < 2:
        return False
    f = 2
    while f * f <= v:
        if v % f == 0:
            return False
        f += 1
    return True


class QuditDim(int):
    """A prime qudit dimension; behaves as a plain int everywhere else."""

    def __new__(cls, d):
        d = int(d)
        if not _is_prime(d):
            raise ValueError(f"qudit dimension must be prime (>= 2), got {d}")
        return super().__new__(cls, d)


def tau(d: int) -> complex:
    return np.exp(1j * np.pi / d)


def omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def phase_factor(k: int, d: int) -> complex:
    """The scalar tau**k."""
    return np.exp(1j * np.pi * (k % (2 * d)) / d)


def check_dense_size(d: int, n: int, max_dim: int | None = None) -> int:
    """d**n, or ValueError past max_dim (default DENSE_DIM_GUARD): the one
    dense-size guard, which callers run before they allocate."""
    limit = DENSE_DIM_GUARD if max_dim is None else int(max_dim)
    dim = int(d) ** int(n)
    if dim > limit:
        raise ValueError(f"dense size {d}**{n} = {dim} exceeds the guard {limit}")
    return dim


def checked_unitary(u, d: int, k: int = 1) -> np.ndarray:
    """u as a complex128 array of d**k x d**k matrices, one or a stack along
    leading axes; the one admission rule for operators in the package.

    Raises ValueError for another shape, a non-finite entry, or a deviation
    max|u u^dagger - 1| above UNITARY_TOL in any matrix, so a caller that
    checks first changes no state for an operator it cannot apply.
    """
    u = np.asarray(u, dtype=np.complex128)
    dim = int(d) ** k
    if u.ndim < 2 or u.shape[-2:] != (dim, dim):
        side = "d" if k == 1 else f"d^{k}"
        raise ValueError(f"operator must be {side} x {side}")
    if not np.isfinite(u).all():
        raise ValueError("operator is not unitary: non-finite entries")
    gram = u @ u.conj().swapaxes(-1, -2)
    dev = np.abs(gram - np.eye(dim)).max(initial=0.0)
    if not dev <= UNITARY_TOL:
        raise ValueError(
            f"operator is not unitary: it deviates from unitarity by {dev:.3g}")
    return u


def shift_matrix(d: int) -> np.ndarray:
    """Dense X: X|j> = |j+1 mod d>."""
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[(j + 1) % d, j] = 1.0
    return m


def clock_matrix(d: int) -> np.ndarray:
    """Dense Z: Z|j> = omega**j |j>."""
    return np.diag(omega(d) ** np.arange(d))


def site_matrix(d: int, x: int, z: int) -> np.ndarray:
    """Dense X**x @ Z**z for one site."""
    return np.linalg.matrix_power(shift_matrix(d), x % d) @ \
        np.linalg.matrix_power(clock_matrix(d), z % d)


@lru_cache(maxsize=8)
def site_matrix_table(d: int) -> np.ndarray:
    """Read-only (d, d, d, d) array whose [x, z] entry is site_matrix(d, x, z)
    for exponents in 0..d-1; built once per d."""
    d = int(QuditDim(d))
    table = np.array([[site_matrix(d, x, z) for z in range(d)]
                      for x in range(d)])
    table.setflags(write=False)
    return table


class PauliString:
    """tau**phase * prod_i X_i**x[i] Z_i**z[i] on n_sites qudits."""

    __slots__ = ("d", "x", "z", "phase")

    def __init__(self, d, x, z, phase: int = 0):
        self.d = int(QuditDim(d))
        self.x = np.asarray(x, dtype=np.int64) % self.d
        self.z = np.asarray(z, dtype=np.int64) % self.d
        if self.x.ndim != 1 or self.x.shape != self.z.shape:
            raise ValueError("x and z must be 1-d exponent vectors of equal length")
        self.phase = int(phase) % (2 * self.d)

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, d: int, n: int) -> "PauliString":
        return cls(d, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))

    @classmethod
    def single(cls, d: int, n: int, site: int, x: int = 0, z: int = 0,
               phase: int = 0) -> "PauliString":
        """A string supported on one site."""
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for n={n}")
        xs = np.zeros(n, dtype=np.int64)
        zs = np.zeros(n, dtype=np.int64)
        xs[site] = x
        zs[site] = z
        return cls(d, xs, zs, phase)

    @property
    def n_sites(self) -> int:
        return self.x.shape[0]

    def copy(self) -> "PauliString":
        return PauliString(self.d, self.x.copy(), self.z.copy(), self.phase)

    # -- algebra -----------------------------------------------------------

    def _check_compatible(self, other: "PauliString") -> None:
        if self.d != other.d or self.n_sites != other.n_sites:
            raise ValueError("operands differ in qudit dimension or site count")

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Product self * other in canonical order.

        Moving other's X block through self's Z block contributes
        omega**(sum z_a * x_b), i.e. 2*sum(z_a*x_b) tau units.
        """
        self._check_compatible(other)
        d = self.d
        ph = (self.phase + other.phase + 2 * int(self.z @ other.x)) % (2 * d)
        return PauliString(d, (self.x + other.x) % d, (self.z + other.z) % d, ph)

    def power(self, k: int) -> "PauliString":
        """self**k for k >= 0 by repeated multiplication."""
        if k < 0:
            raise ValueError("negative powers not supported; use dagger()")
        out = PauliString.identity(self.d, self.n_sites)
        for _ in range(k):
            out = out * self
        return out

    def dagger(self) -> "PauliString":
        """Hermitian adjoint: reorders Z**-z X**-x back to canonical form."""
        d = self.d
        ph = (-self.phase + 2 * int(self.z @ self.x)) % (2 * d)
        return PauliString(d, -self.x % d, -self.z % d, ph)

    def commutation_exponent(self, other: "PauliString") -> int:
        """c with self*other = omega**c * other*self."""
        self._check_compatible(other)
        return int((self.z @ other.x - self.x @ other.z) % self.d)

    # -- realization and serialization --------------------------------------

    def phase_value(self) -> complex:
        return phase_factor(self.phase, self.d)

    def to_matrix(self) -> np.ndarray:
        """Dense d**n x d**n matrix, behind check_dense_size."""
        d, n = self.d, self.n_sites
        check_dense_size(d, n)
        m = np.eye(1, dtype=complex)
        for i in range(n):
            m = np.kron(m, site_matrix(d, int(self.x[i]), int(self.z[i])))
        return self.phase_value() * m

    def to_text(self) -> str:
        """Debug form like 't^3 X0^1 Z2^2'; identity renders as 't^0 I'."""
        parts = [f"t^{self.phase}"]
        for i in range(self.n_sites):
            if self.x[i]:
                parts.append(f"X{i}^{self.x[i]}")
            if self.z[i]:
                parts.append(f"Z{i}^{self.z[i]}")
        if len(parts) == 1:
            parts.append("I")
        return " ".join(parts)

    def key(self) -> bytes:
        """Hashable exponent-vector key (phase excluded)."""
        return self.x.tobytes() + self.z.tobytes()

    def __eq__(self, other) -> bool:
        return (isinstance(other, PauliString) and self.d == other.d
                and self.phase == other.phase
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.z, other.z))

    def __hash__(self):
        return hash((self.d, self.phase, self.key()))

    def __repr__(self) -> str:
        return f"PauliString(d={self.d}, {self.to_text()!r})"


class PauliSum:
    """Complex combination sum_j c_j * P_j of phase-free Pauli strings.

    Construction folds each term's tau phase into its coefficient, merges
    terms with equal exponent vectors, and drops |c| < COEFF_DROP_TOL.
    """

    def __init__(self, d: int, n: int, terms):
        self.d = int(QuditDim(d))
        self.n_sites = int(n)
        merged: dict[bytes, tuple[complex, PauliString]] = {}
        for coeff, ps in terms:
            if ps.d != self.d or ps.n_sites != self.n_sites:
                raise ValueError("term shape mismatch")
            if ps.phase:
                coeff = coeff * ps.phase_value()
                ps = PauliString(ps.d, ps.x, ps.z, 0)
            k = ps.key()
            if k in merged:
                merged[k] = (merged[k][0] + coeff, merged[k][1])
            else:
                merged[k] = (complex(coeff), ps)
        self.terms = [(c, p) for c, p in merged.values()
                      if abs(c) >= COEFF_DROP_TOL]

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def to_matrix(self) -> np.ndarray:
        dim = check_dense_size(self.d, self.n_sites)
        out = np.zeros((dim, dim), dtype=complex)
        for c, p in self.terms:
            out += c * p.to_matrix()
        return out


def decompose_unitary(u, d: int) -> PauliSum:
    """Expand a 1- or 2-site unitary in the Pauli basis, in closed form.

    Coefficients are c_xz = Tr(u @ (X**x Z**z)^dagger) / d**k: u contracted
    with one factor of site_matrix_table(d) per leg, no basis matrix built.
    Terms run x-exponents, then z-exponents, row-major. The kept terms are
    contracted with the same table to verify u to 1e-12 before returning.

    Args:
        u: dense d**k x d**k unitary, k in {1, 2}, admitted by
            checked_unitary.
        d: qudit dimension.

    Returns:
        PauliSum over k sites.
    """
    d = int(QuditDim(d))
    k = {(d, d): 1, (d * d, d * d): 2}.get(np.shape(u))
    if k is None:
        raise ValueError("operator must be d x d or d^2 x d^2")
    dim = check_dense_size(d, k)
    u = checked_unitary(u, d, k)

    table = site_matrix_table(d)
    if k == 1:
        c = np.einsum("pr,abpr->ab", u, table.conj()) / dim
    else:  # leg by leg, so no (d**4, d**2, d**2) basis stack is formed
        half = np.einsum("pqrs,abpr->abqs", u.reshape(d, d, d, d), table.conj())
        c = np.einsum("abqs,cdqs->acbd", half, table.conj()) / dim
    c = np.where(np.abs(c) >= COEFF_DROP_TOL, c, 0)
    if k == 1:
        recon = np.einsum("ab,abpr->pr", c, table)
    else:
        half = np.einsum("acbd,cdqs->abqs", c, table)
        recon = np.einsum("abqs,abpr->pqrs", half, table).reshape(dim, dim)
    if not np.max(np.abs(recon - u)) <= 1e-12:
        raise ArithmeticError("Pauli-basis reconstruction failed tolerance")
    return PauliSum(d, k, [(c[i], PauliString(d, i[:k], i[k:]))
                           for i in zip(*np.nonzero(c))])
