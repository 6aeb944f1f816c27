"""Generalized Pauli algebra for prime-dimensional qudits.

Conventions used throughout the package:

  - omega = exp(2*pi*1j/d) and tau = exp(1j*pi/d), so tau**2 == omega and
    tau**(2*d) == 1. Scalar phases are stored as integer tau exponents
    modulo 2d, one convention for every parity of d, and every dense phase
    is evaluated by phase_factor from its exponent reduced mod 2d, never as
    a power of a floating root of unity, whose error grows with the
    exponent.
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

decompose_unitary memoizes the Pauli expansion of each small operator it
admits, keyed by d, its site count and the operator's bytes, in a bounded
functools.lru_cache: the hybrid engine expands the same T matrix at every
non-Clifford step. Only admitted operators are stored, and every call
returns a fresh PauliSum of fresh strings whose exponent arrays are
read-only views, so no caller can change what a later call returns.

String products, powers and adjoints go through kernels.ordered_product,
which owns the phase rule of a row product.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import kernels

DENSE_DIM_GUARD = 2 ** 14
COEFF_DROP_TOL = 1e-14
UNITARY_TOL = 1e-10

# decompose_unitary memoizes operators of at most this many bytes
_MEMO_MATRIX_BYTES = 1 << 14


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


def phase_factor(k, d: int):
    """tau**k for an integer k, or elementwise for an integer array k."""
    return np.exp(1j * np.pi * (k % (2 * d)) / d)


def check_dense_size(d: int, n: int, max_dim: int | None = None) -> int:
    """d**n, or ValueError past max_dim (default DENSE_DIM_GUARD): the one
    dense-size guard, which callers run before they allocate."""
    if int(n) < 0:
        raise ValueError(f"site count must be >= 0, got {n}")
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


def site_matrix(d: int, x, z) -> np.ndarray:
    """Dense X**x @ Z**z for one site, for integer exponents or for arrays
    of them of one shape s: an s + (d, d) array. Column r holds its one
    nonzero, omega**(z*r), in row (r + x) mod d."""
    x, z = np.asarray(x), np.asarray(z)
    r = np.arange(d)
    out = np.zeros(x.shape + (d, d), dtype=np.complex128)
    blocks = out.reshape(-1, d * d)  # one flattened matrix per exponent pair
    blocks[np.arange(x.size)[:, None], (r + x.reshape(-1, 1)) % d * d + r] = \
        phase_factor(2 * z.reshape(-1, 1) * r, d)
    return out


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

    @classmethod
    def _unchecked(cls, d: int, x, z, phase: int = 0) -> "PauliString":
        """A string over int64 exponents already in [0, d) and a phase
        already in [0, 2d), taken over as they are."""
        p = cls.__new__(cls)
        p.d, p.x, p.z, p.phase = d, x, z, phase
        return p

    @property
    def n_sites(self) -> int:
        return self.x.shape[0]

    def copy(self) -> "PauliString":
        return PauliString(self.d, self.x.copy(), self.z.copy(), self.phase)

    # -- algebra -----------------------------------------------------------

    def _check_compatible(self, other: "PauliString") -> None:
        if self.d != other.d or self.n_sites != other.n_sites:
            raise ValueError("operands differ in qudit dimension or site count")

    def _product(self, x, z, phases, k) -> "PauliString":
        """kernels.ordered_product of the rows x, z, phases to powers k."""
        x, z, ph = kernels.ordered_product(x, z, phases, [k], self.d)
        return PauliString._unchecked(self.d, x[0], z[0], int(ph[0]))

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Product self * other in canonical order: moving other's X block
        through self's Z block costs omega**(z_self . x_other)."""
        self._check_compatible(other)
        return self._product([self.x, other.x], [self.z, other.z],
                             [self.phase, other.phase], [1, 1])

    def power(self, k: int) -> "PauliString":
        """self**k for k >= 0: the j-th copy moves its X block past the Z
        block of the copies before it."""
        k = int(k)
        if k < 0:
            raise ValueError("negative powers not supported; use dagger()")
        return self._product([self.x], [self.z], [self.phase], [k])

    def dagger(self) -> "PauliString":
        """Hermitian adjoint: the product of the rows tau**-phase Z**-z
        and X**-x, in canonical form."""
        zero = np.zeros_like(self.x)
        return self._product([zero, -self.x], [-self.z, zero],
                             [-self.phase, 0], [1, 1])

    # -- realization and serialization --------------------------------------

    def phase_value(self) -> complex:
        return phase_factor(self.phase, self.d)

    def to_matrix(self) -> np.ndarray:
        """Dense d**n x d**n matrix, behind check_dense_size."""
        d, n = self.d, self.n_sites
        check_dense_size(d, n)
        m = np.eye(1, dtype=complex)
        for site in site_matrix(d, self.x, self.z):
            m = np.kron(m, site)
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
    terms with equal exponent vectors, and drops |c| < COEFF_DROP_TOL. A
    non-finite coefficient raises ValueError: a NaN would fail that test
    and drop its term without a word.
    """

    def __init__(self, d: int, n: int, terms):
        self.d = int(QuditDim(d))
        self.n_sites = int(n)
        merged: dict[bytes, tuple[complex, PauliString]] = {}
        for coeff, ps in terms:
            if ps.d != self.d or ps.n_sites != self.n_sites:
                raise ValueError("term shape mismatch")
            if not np.isfinite(coeff):
                raise ValueError(f"coefficient {coeff} is not finite")
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

    Coefficients are c_xz = Tr(u @ (X**x Z**z)^dagger) / d**k. X**x Z**z
    has its nonzeros on the x-th cyclic diagonal, [(r+x) mod d, r] =
    omega**(z*r), so on each leg c is the discrete Fourier transform of
    u's cyclic diagonals, taken with one exact DFT matrix. Terms run
    x-exponents, then z-exponents, row-major. Every entry of u lies on one
    cyclic diagonal per leg, so transforming the kept terms back verifies
    u to 1e-12 before returning.

    The expansion of an admitted operator of at most _MEMO_MATRIX_BYTES is
    memoized by _memo_terms's lru_cache, keyed by d, k and the bytes of u
    as C-ordered complex128: an engine expands the same T matrix at every
    step, and an equal matrix held in another array hits too. A memoized
    operator is admitted already, so a hit skips the checks and the
    transform; an operator that fails them raises on every call and is
    never stored. Each call returns a fresh PauliSum of fresh strings over
    read-only exponent views, so a caller that changes a returned sum
    cannot reach the memo.

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
    u = np.asarray(u, dtype=np.complex128)
    terms = (_memo_terms(d, k, u.tobytes()) if u.nbytes <= _MEMO_MATRIX_BYTES
             else _pauli_terms(u, d, k))
    out = PauliSum.__new__(PauliSum)
    out.d, out.n_sites = d, k
    out.terms = [(c, PauliString._unchecked(d, x.view(), z.view()))
                 for c, x, z in terms]
    return out


@lru_cache(maxsize=64)
def _memo_terms(d: int, k: int, data: bytes):
    """_pauli_terms of the d**k x d**k operator whose C-ordered complex128
    bytes are data, memoized for the 64 operators used last."""
    return _pauli_terms(np.frombuffer(data, dtype=np.complex128).reshape(
        d ** k, d ** k), d, k)


def _pauli_terms(u, d: int, k: int):
    """decompose_unitary's expansion of u over k sites, uncached: a tuple
    of (coefficient, x, z) with read-only exponent arrays, after u passes
    check_dense_size and checked_unitary."""
    dim = check_dense_size(d, k)
    u = checked_unitary(u, d, k)

    r = np.arange(d)
    shift = (r[:, None] + r) % d  # shift[x, r] = (r + x) mod d
    f = phase_factor(2 * np.outer(r, r), d)  # f[r, z] = omega**(z*r)
    f_bar = f.conj()
    if k == 1:
        diag = u[shift, r]  # diag[x, r]
        c = diag @ f_bar / dim
    else:  # diag[x0, x1, r0, r1], c[x0, x1, z0, z1]
        diag = u.reshape(d, d, d, d)[shift[:, None, :, None],
                                     shift[None, :, None, :], r[:, None], r]
        c = f_bar @ diag @ f_bar / dim
    c = np.where(np.abs(c) >= COEFF_DROP_TOL, c, 0)
    recon = c @ f if k == 1 else f @ c @ f
    if not np.max(np.abs(recon - diag)) <= 1e-12:
        raise ArithmeticError("Pauli-basis reconstruction failed tolerance")
    terms = []
    for c_i, p in PauliSum(d, k, [(c[i], PauliString(d, i[:k], i[k:]))
                                  for i in zip(*np.nonzero(c))]):
        for a in (p.x, p.z):
            a.setflags(write=False)
        terms.append((c_i, p.x, p.z))
    return tuple(terms)
