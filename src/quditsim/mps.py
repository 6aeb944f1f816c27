"""Matrix-product-state simulator for chains of prime-dimensional qudits.

The state is stored as a list of rank-3 tensors with legs (left bond,
physical, right bond) and a single orthogonality center: every tensor left
of the center is left-orthonormal, every tensor right of it is
right-orthonormal.  Two-site updates split the pair tensor with an SVD and
truncate under a :class:`TruncationPolicy`; the discarded weight is returned
to the caller.  The state is renormalized after every public operation.
TruncationPolicy.rank (the Schmidt rank at the cutoff) and bond_ceiling
(d^min(b, n-b)) are the rules every backend reports bonds by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import swap_legs, swap_matrix
from .pauli import (
    PauliSum, QuditDim, check_dense_size, checked_unitary, site_matrix_table,
)

__all__ = [
    "TruncationPolicy",
    "Mps",
    "PauliMpo",
    "bond_ceiling",
    "mps_model_bytes",
    "robust_svd",
    "worst_case_chi",
]

_NORM_DRIFT_TOL = 1e-8
# singular values closer than this times the largest are tied
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class TruncationPolicy:
    """Bond-truncation rule: keep at most chi_max singular values and drop
    any with sigma/sigma_max below the relative cutoff.

    A chi_max cut never splits a group of tied singular values, neighbours
    within 1e-9 * sigma_max of each other, since which of a tied group's
    vectors survive would depend on the gauge, not on the state: the cut
    moves down to the first value of the group straddling it. When that
    group starts at sigma_max, chi_max values are kept, and only that
    truncation stays gauge-dependent.
    """

    chi_max: int | None = None
    cutoff: float = 1e-12

    def __post_init__(self):
        chi = self.chi_max
        if chi is not None:
            # a float or string would only fail at the first cut, mid-update
            if isinstance(chi, bool) or not isinstance(chi, (int, np.integer)):
                raise ValueError(f"chi_max must be an integer, got {chi!r}")
            if chi < 1:
                raise ValueError("chi_max must be at least 1")
            object.__setattr__(self, "chi_max", int(chi))
        if not 0.0 <= self.cutoff < 1.0:
            raise ValueError("cutoff must lie in [0, 1)")

    def rank(self, s):
        """Schmidt rank of each row of s, descending singular values along
        the last axis: the count above cutoff times the row's largest. An
        all-zero row has rank 0."""
        return (s > self.cutoff * s[..., :1]).sum(axis=-1)


def robust_svd(mat, compute_uv=True):
    """SVD that survives gesdd non-convergence.

    LAPACK's fast divide-and-conquer driver can fail on the flat, highly
    degenerate spectra stabilizer states produce; the slower gesvd driver
    handles them, so it serves as the fallback.

    A stack of shape (..., M, N) is decomposed in one call over its leading
    axes, and the results carry the same leading axes. If any matrix in the
    stack fails, every matrix is retried on its own, so each one that
    converges keeps its gesdd result and only a failing one falls back.
    """
    try:
        return np.linalg.svd(mat, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        mat = np.asarray(mat)
        if mat.ndim > 2:
            parts = [robust_svd(m, compute_uv)
                     for m in mat.reshape((-1,) + mat.shape[-2:])]
            out = tuple(np.stack(f).reshape(mat.shape[:-2] + f[0].shape)
                        for f in (zip(*parts) if compute_uv else [parts]))
            return out if compute_uv else out[0]
        from scipy.linalg import svd as _scipy_svd

        return _scipy_svd(mat, full_matrices=False, compute_uv=compute_uv,
                          lapack_driver="gesvd")


def _carry_left(t, carry):
    """t (l, d, m) contracted with carry (m, k) over its right bond, as the
    one np.dot that np.tensordot would make, without its axis bookkeeping."""
    l, d_, m = t.shape
    return np.dot(t.reshape(l * d_, m), carry).reshape(l, d_, -1)


class Mps:
    """Qudit chain in mixed-canonical form."""

    __slots__ = ("d", "n", "tensors", "center", "policy")

    def __init__(self, d, tensors, center=0, policy=None):
        self.d = QuditDim(d)
        self.n = len(tensors)
        if self.n < 1:
            raise ValueError("chain needs at least one site")
        for i, t in enumerate(tensors):
            if t.ndim != 3 or t.shape[1] != self.d:
                raise ValueError(f"tensor {i} is not (chi, d, chi)")
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have dimension 1")
        for i in range(self.n - 1):
            if tensors[i].shape[2] != tensors[i + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {i} and {i+1}")
        if not 0 <= center < self.n:
            raise ValueError("center out of range")
        self.tensors = [np.ascontiguousarray(t, dtype=np.complex128) for t in tensors]
        self.center = int(center)
        self.policy = policy if policy is not None else TruncationPolicy()

    @classmethod
    def product_state(cls, n, d, digits=None, policy=None):
        d = QuditDim(d)
        if digits is None:
            digits = [0] * n
        digits = [int(x) for x in digits]
        if len(digits) != n:
            raise ValueError("digit string length must equal the site count")
        tensors = []
        for x in digits:
            if not 0 <= x < d:
                raise ValueError(f"digit {x} out of range for dimension {d}")
            t = np.zeros((1, d, 1), dtype=np.complex128)
            t[0, x, 0] = 1.0
            tensors.append(t)
        return cls(d, tensors, center=0, policy=policy)

    def copy(self):
        out = Mps.__new__(Mps)
        out.d = self.d
        out.n = self.n
        out.tensors = [t.copy() for t in self.tensors]
        out.center = self.center
        out.policy = self.policy
        return out

    # ------------------------------------------------------------------
    # observers

    def bond_dims(self):
        return [self.tensors[i].shape[2] for i in range(self.n - 1)]

    def norm(self):
        e = np.ones((1, 1), dtype=np.complex128)
        for t in self.tensors:
            e = np.einsum("xy,xsp,ysq->pq", e, t.conj(), t)
        return float(np.sqrt(abs(e[0, 0].real)))

    def amplitude(self, digits):
        digits = [int(x) for x in digits]
        if len(digits) != self.n:
            raise ValueError("digit string length must equal the site count")
        v = np.ones(1, dtype=np.complex128)
        for i, x in enumerate(digits):
            if not 0 <= x < self.d:
                raise ValueError(f"digit {x} out of range for dimension {self.d}")
            v = v @ self.tensors[i][:, x, :]
        return complex(v[0])

    def to_dense(self, max_dim=None):
        check_dense_size(self.d, self.n, max_dim)
        acc = np.ones((1, 1), dtype=np.complex128)
        for t in self.tensors:
            acc = np.tensordot(acc, t, axes=([1], [0])).reshape(-1, t.shape[2])
        return acc.reshape(-1)

    def schmidt_spectrum(self, bond):
        """Singular values across the cut with `bond` sites on the left."""
        if not 1 <= bond <= self.n - 1:
            raise ValueError("bond must lie strictly inside the chain")
        self.move_center(bond - 1)
        t = self.tensors[bond - 1]
        l, d_, r = t.shape
        return robust_svd(t.reshape(l * d_, r), compute_uv=False)

    def entanglement_entropy(self, bond):
        s = self.schmidt_spectrum(bond)
        p = s * s
        p = p[p > 1e-300]
        return float(-(p * np.log(p)).sum())

    def canonical_ok(self, tol=1e-10):
        for i in range(self.center):
            t = self.tensors[i]
            g = np.einsum("lsr,lsq->rq", t.conj(), t)
            if np.abs(g - np.eye(t.shape[2])).max() > tol:
                return False
        for i in range(self.center + 1, self.n):
            t = self.tensors[i]
            g = np.einsum("lsr,qsr->lq", t, t.conj())
            if np.abs(g - np.eye(t.shape[0])).max() > tol:
                return False
        return True

    # ------------------------------------------------------------------
    # canonical-form plumbing

    def _push_right(self, i):
        t = self.tensors[i]
        l, d_, r = t.shape
        q, rr = np.linalg.qr(t.reshape(l * d_, r))
        self.tensors[i] = q.reshape(l, d_, q.shape[1])
        nxt = self.tensors[i + 1]
        _, d2, r2 = nxt.shape
        self.tensors[i + 1] = np.dot(rr, nxt.reshape(r, d2 * r2)).reshape(
            -1, d2, r2)
        self.center = i + 1

    def _push_left(self, i):
        t = self.tensors[i]
        l, d_, r = t.shape
        q, rr = np.linalg.qr(t.reshape(l, d_ * r).conj().T)
        self.tensors[i] = q.conj().T.reshape(q.shape[1], d_, r)
        self.tensors[i - 1] = _carry_left(self.tensors[i - 1], rr.conj().T)
        self.center = i - 1

    def move_center(self, site):
        if not 0 <= site < self.n:
            raise ValueError("center target out of range")
        while self.center < site:
            self._push_right(self.center)
        while self.center > site:
            self._push_left(self.center)

    def _truncated_svd(self, mat, bond):
        """SVD of mat cut to the policy's rank at `bond`, below its ceiling:
        u, kept singular values at unit norm, vh, and the discarded weight."""
        u, s, vh = robust_svd(mat)
        if s.size == 0:
            raise np.linalg.LinAlgError("empty singular spectrum")
        k = max(int(self.policy.rank(s)), 1)
        chi_max = self.policy.chi_max
        if chi_max is not None and k > chi_max:
            # the last gap wider than a tie at or before the cut, if any
            gaps = np.flatnonzero(s[:chi_max] - s[1:chi_max + 1]
                                  > _TIE_TOL * s[0])
            k = int(gaps[-1]) + 1 if gaps.size else chi_max
        cap = bond_ceiling(self.d, self.n, bond)
        if k > cap:
            raise RuntimeError(f"bond {bond} grew to {k}, past the "
                               f"structural ceiling {cap}")
        err = float(s[k:] @ s[k:])
        return u[:, :k], s[:k] / np.linalg.norm(s[:k]), vh[:k], err

    def pair_tensor(self, left_site):
        """Pair tensor (l, d, d, r) of sites left_site and left_site + 1,
        contracted over the bond between them; the center stays put."""
        i = int(left_site)
        if not 0 <= i < self.n - 1:
            raise ValueError("left_site out of range")
        a, b = self.tensors[i], self.tensors[i + 1]
        l, d_, m = a.shape
        r = b.shape[2]
        return np.dot(a.reshape(l * d_, m), b.reshape(m, d_ * r)).reshape(
            l, d_, d_, r)

    def split_pair(self, left_site, theta):
        """Replace sites (left_site, left_site + 1) by the truncating SVD
        split of the pair tensor theta, legs (left bond, left site, right
        site, right bond); the center lands on left_site + 1.

        theta must keep the outer bonds of the pair and the center must lie
        on the pair, so the rest of the chain stays canonical. Returns the
        discarded Schmidt weight, as apply_two_site does. A left_site out
        of range, a shape that disagrees with the neighbouring bonds, a
        center off the pair or a non-finite entry raises ValueError before
        any tensor or the center changes.
        """
        i = int(left_site)
        if not 0 <= i < self.n - 1:
            raise ValueError("left_site out of range")
        theta = np.asarray(theta, dtype=np.complex128)
        want = (self.tensors[i].shape[0], self.d, self.d,
                self.tensors[i + 1].shape[2])
        if theta.shape != want:
            raise ValueError(f"pair tensor must have shape {want}, "
                             f"got {theta.shape}")
        if self.center not in (i, i + 1):
            raise ValueError(f"center {self.center} is not on the pair "
                             f"({i}, {i + 1})")
        if not np.isfinite(theta).all():
            raise ValueError("pair tensor has non-finite entries")
        return self._split_pair(i, theta)

    def _split_pair(self, i, theta):
        l, d1, d2, r = theta.shape
        u, su, vh, err = self._truncated_svd(theta.reshape(l * d1, d2 * r), i + 1)
        self.tensors[i] = u.reshape(l, d1, -1)
        self.tensors[i + 1] = (su[:, None] * vh).reshape(-1, d2, r)
        self.center = i + 1
        return err

    # ------------------------------------------------------------------
    # gates

    def apply_single_site(self, site, u):
        if not 0 <= site < self.n:
            raise ValueError("site out of range")
        u = checked_unitary(u, self.d)
        self.tensors[site] = np.einsum("ab,lbr->lar", u, self.tensors[site])
        return 0.0

    def apply_two_site(self, left_site, u):
        """Apply a two-site operator to (left_site, left_site + 1).

        Operator legs follow (left site, right site) in row-major order.
        Returns the discarded Schmidt weight, i.e. 1 - |psi|^2 before the
        kept spectrum is renormalized. Every gate method raises ValueError,
        with the chain untouched, for an operator checked_unitary rejects.
        """
        i = int(left_site)
        if not 0 <= i < self.n - 1:
            raise ValueError("left_site out of range")
        d = self.d
        u = checked_unitary(u, d, 2)
        # _split_pair is exact with the center on either site of the pair
        self.move_center(min(max(self.center, i), i + 1))
        theta = np.tensordot(
            u.reshape(d, d, d, d), self.pair_tensor(i), axes=([2, 3], [1, 2])
        ).transpose(2, 0, 1, 3)
        return self._split_pair(i, theta)

    def apply_unitary(self, u, sites):
        """Route an operator onto arbitrary sites.

        Non-adjacent pairs are handled with a swap network: the right site is
        moved next to the left one with adjacent swaps, the gate is applied,
        and the swaps are undone.  Returns accumulated truncation error.
        """
        sites = [int(s) for s in sites]
        if len(sites) == 1:
            return self.apply_single_site(sites[0], u)
        if len(sites) != 2:
            raise ValueError("only one- and two-site operators are supported")
        a, b = sites
        if a == b:
            raise ValueError("sites must be distinct")
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError("site out of range")
        # checked before the swap network moves any tensor
        u = checked_unitary(u, self.d, 2)
        if a > b:
            u = swap_legs(u, self.d)
            a, b = b, a
        if b == a + 1:
            return self.apply_two_site(a, u)
        sw = swap_matrix(self.d)
        err = 0.0
        for k in range(b - 1, a, -1):
            err += self.apply_two_site(k, sw)
        err += self.apply_two_site(a, u)
        for k in range(a + 1, b):
            err += self.apply_two_site(k, sw)
        return err

    # ------------------------------------------------------------------
    # operator sums

    def apply_pauli_sum(self, ps):
        """Apply a Pauli operator sum, which must be unitary as a whole.

        Every sum, a single term included, takes one path: it is contracted
        as an MPO of bond dimension equal to its term count and then
        compressed, and a norm drift beyond 1e-8 reports a non-unitary sum.
        """
        if not isinstance(ps, PauliSum):
            raise TypeError("expected a PauliSum")
        if ps.d != self.d or ps.n_sites != self.n:
            raise ValueError("operator does not match the chain")
        return self._apply_mpo(PauliMpo(ps))  # an empty sum raises there

    def _apply_mpo(self, mpo):
        n = self.n
        for i, w in enumerate(mpo.tensors):
            x = np.tensordot(w, self.tensors[i], axes=([2], [1]))
            x = x.transpose(0, 3, 1, 2, 4)  # (bond, left, out, bond, right)
            a_, l_, s_, b_, r_ = x.shape
            self.tensors[i] = np.ascontiguousarray(x).reshape(a_ * l_, s_, b_ * r_)
        self.center = 0
        for i in range(n - 1):
            self._push_right(i)
        nrm = float(np.linalg.norm(self.tensors[n - 1]))
        if abs(nrm - 1.0) > _NORM_DRIFT_TOL:
            raise ValueError(f"operator sum is not unitary: norm drifted to {nrm:.6g}")
        self.tensors[n - 1] = self.tensors[n - 1] / nrm
        err = 0.0
        for i in range(n - 1, 0, -1):
            err += self._truncate_left(i)
        return err

    def _truncate_left(self, i):
        t = self.tensors[i]
        l, d_, r = t.shape
        u, su, vh, err = self._truncated_svd(t.reshape(l, d_ * r), i)
        self.tensors[i] = vh.reshape(-1, d_, r)
        self.tensors[i - 1] = _carry_left(self.tensors[i - 1], u * su[None, :])
        self.center = i - 1
        return err

    def expectation_mpo(self, mpo):
        if mpo.d != self.d or mpo.n != self.n:
            raise ValueError("operator does not match the chain")
        e = np.ones((1, 1, 1), dtype=np.complex128)
        for i in range(self.n):
            e = np.einsum(
                "xay,xtp,atsb,ysq->pbq",
                e,
                self.tensors[i].conj(),
                mpo.tensors[i],
                self.tensors[i],
                optimize=True,
            )
        return complex(e[0, 0, 0])


class PauliMpo:
    """MPO form of a Pauli operator sum.

    Bond dimension equals the term count; the bond index selects the term at
    every site (diagonal structure) and the scalar coefficients sit in the
    site-0 tensor.  Tensor legs are (bond, out, in, bond).
    """

    __slots__ = ("d", "n", "bond", "tensors")

    def __init__(self, ps):
        if not isinstance(ps, PauliSum):
            raise TypeError("expected a PauliSum")
        k = len(ps)
        if k == 0:
            raise ValueError("empty operator sum")
        self.d = ps.d
        self.n = ps.n_sites
        self.bond = k
        d, n = self.d, self.n
        xs = np.array([p.x for _, p in ps.terms])
        zs = np.array([p.z for _, p in ps.terms])
        mats = site_matrix_table(d)[xs, zs]  # (term, site, out, in), a copy
        # the coefficients sit on site 0, each product taken as c * m
        mats[:, 0] = np.array([c for c, _ in ps.terms])[:, None, None] * mats[:, 0]
        if n == 1:  # one site closes both outer bonds: its terms add up
            self.tensors = [sum(mats[:, None, 0, :, :, None],
                                np.zeros((1, d, d, 1), complex))]
            return
        terms = np.arange(k)
        middle = np.zeros((n - 2, k, d, d, k), dtype=np.complex128)
        middle[:, terms, :, :, terms] = mats[:, 1:n - 1]
        first = np.moveaxis(mats[:, 0], 0, -1)[None]
        last = mats[:, n - 1, :, :, None]
        self.tensors = [np.ascontiguousarray(first), *middle,
                        np.ascontiguousarray(last)]

    def to_matrix(self):
        check_dense_size(self.d, self.n)
        acc = self.tensors[0][0]  # (out, in, bond)
        for w in self.tensors[1:]:
            x = np.tensordot(acc, w, axes=([2], [0]))  # (O, I, s, t, b)
            o, i_, s, t, b = x.shape
            acc = x.transpose(0, 2, 1, 3, 4).reshape(o * s, i_ * t, b)
        return acc[:, :, 0]


def mps_model_bytes(chi, d):
    """Memory model at 16 bytes per stored amplitude for a bond profile."""
    dims = [1] + [int(c) for c in chi] + [1]
    return sum(16 * int(d) * dims[i] * dims[i + 1] for i in range(len(dims) - 1))


def bond_ceiling(d, n, bond):
    """Structural ceiling d^min(b, n-b) on bond b of an n-site chain."""
    return d ** min(bond, n - bond)


def worst_case_chi(chi, d, n):
    """Pre-optimisation peak model: every bond grows by a factor d, capped
    by bond_ceiling."""
    return [min(c * d, bond_ceiling(d, n, b))
            for b, c in zip(range(1, n), chi)]
