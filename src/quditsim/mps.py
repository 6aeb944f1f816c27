"""Matrix-product-state simulator for chains of prime-dimensional qudits.

The state is stored as a list of rank-3 tensors with legs (left bond,
physical, right bond) and a single orthogonality center: every tensor left
of the center is left-orthonormal, every tensor right of it is
right-orthonormal.  Two-site updates split the pair tensor with an SVD and
truncate under a :class:`TruncationPolicy`; the discarded weight is returned
to the caller.  The state is renormalized after every public operation.
TruncationPolicy.rank (the Schmidt rank at the cutoff) and bond_ceiling
(d^min(b, n-b)) are the rules every backend reports bonds by.

A Pauli sum is applied as the direct sum of one Pauli-moved copy of the
chain per term, brought to canonical form by one QR sweep and compressed
by one truncating SVD sweep back. When every bond is 1 the sweeps run over
the sites the sum moves only: a site every term maps to a multiple of its
own vector, within a bound set by the policy's cutoff, has its multiples
folded into the coefficients and goes back in place, and the center ends
on the first moved site (Mps.apply_pauli_sum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import swap_legs, swap_matrix
from .pauli import (
    PauliSum, QuditDim, check_dense_size, checked_unitary, phase_factor,
)

__all__ = [
    "TruncationPolicy",
    "Mps",
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
        all-zero row has rank 0. One spectrum takes the scalar form, which
        costs less and gives the same integer."""
        if s.ndim == 1 and s.size:
            return np.count_nonzero(s > self.cutoff * s[0])
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


def _qr_right(tensors, i):
    """Left-orthonormalize tensors[i] in place in the list, carrying its R
    factor into tensors[i + 1]."""
    t = tensors[i]
    l, d_, r = t.shape
    q, rr = np.linalg.qr(t.reshape(l * d_, r))
    tensors[i] = q.reshape(l, d_, q.shape[1])
    nxt = tensors[i + 1]
    _, d2, r2 = nxt.shape
    tensors[i + 1] = np.dot(rr, nxt.reshape(r, d2 * r2)).reshape(-1, d2, r2)


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
        return float(np.sqrt(abs(self.overlap(self).real)))

    def overlap(self, other):
        """<self|other>, the conjugate on self as np.vdot takes it, by one
        transfer matrix swept left to right; the bonds of the two chains
        may differ. A chain of another d or length raises ValueError."""
        if not isinstance(other, Mps):
            raise TypeError("expected an Mps")
        if other.d != self.d or other.n != self.n:
            raise ValueError("chains differ in qudit dimension or length")
        e = np.ones((1, 1), dtype=np.complex128)
        for a, b in zip(self.tensors, other.tensors):
            la, d_, ra = a.shape
            e = np.dot(e, b.reshape(b.shape[0], -1)).reshape(la * d_, -1)
            e = np.dot(a.reshape(la * d_, ra).conj().T, e)
        return complex(e[0, 0])

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

    # ------------------------------------------------------------------
    # canonical-form plumbing

    def _push_right(self, i):
        _qr_right(self.tensors, i)
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
        kept = s[:k]
        # np.linalg.norm of a real vector is this square root, bit for bit
        return u[:, :k], kept / np.sqrt(kept @ kept), vh[:k], err

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

        The chain of the sum applied to the state, the direct sum of one
        Pauli-moved copy of the chain per term, is brought to canonical
        form by one QR sweep and compressed by one truncating SVD sweep
        back; the center lands on the first site of the swept chain. The
        new chain is built on a new list and committed only once its norm
        passes and both sweeps are done, so a sum that fails raises with
        the chain as it was: a norm drift beyond 1e-8 reports a
        non-unitary sum.

        When every bond is 1 the sweeps run over the moved sites only. A
        site is fixed when every term maps its vector v to a multiple of
        v up to a residual of at most cutoff / (2 n k) times |v|, for k
        terms on n sites and the policy's relative cutoff. The multiples
        fold into the coefficients, the direct sum is built on the other
        sites, and each fixed site goes back as the identity on the bond
        it sits in times v / |v|; when no site moves, the center is the
        one site the sum lands on. This is the projection of the exact
        state onto v on the fixed sites. With sum |c_a|^2 = 1 it changes
        the state by less than cutoff / (2 sqrt(k)), so every Schmidt
        value it removes lies under the cutoff the sweep applies, and its
        weight counts in the norm check and in the returned discarded
        weight. At cutoff 0 only exact fixed points are fixed.
        """
        n = self.n
        if all(t.shape[2] == 1 for t in self.tensors):
            sites, unit, work, dropped = self._moved_sum_tensors(ps)
        else:
            sites, dropped = range(n), 0.0
            work = self._pauli_sum_tensors(ps)
        m = len(work)
        for p in range(m - 1):
            _qr_right(work, p)
        nrm = float(np.linalg.norm(work[m - 1]))
        total = float(np.hypot(nrm, np.sqrt(dropped)))
        if not abs(total - 1.0) <= _NORM_DRIFT_TOL:  # a NaN norm fails too
            raise ValueError("operator sum is not unitary: norm drifted to "
                             f"{total:.6g}")
        work[m - 1] = work[m - 1] / nrm
        err = dropped / (total * total)
        for p in range(m - 1, 0, -1):
            # every cut between two swept sites carries the same bond, and
            # the one nearest an end of the chain has the lowest ceiling
            a, b = sites[p - 1], sites[p]
            bond = a + 1 if min(a + 1, n - a - 1) <= min(b, n - b) else b
            err += self._truncate_left(work, p, bond)
        if m < n:  # the fixed sites go back around the swept ones
            out = list(unit[:, None, :, None])
            for p, i in enumerate(sites):
                out[i] = work[p]
                chi = work[p].shape[2]
                # the fixed sites up to the next swept one carry its bond
                if chi > 1 and sites[p + 1] > i + 1:
                    out[i + 1:sites[p + 1]] = list(
                        np.eye(chi)[:, None, :]
                        * unit[i + 1:sites[p + 1], None, :, None])
            work = out
        self.tensors[:] = work
        self.center = sites[0]
        return err

    def _truncate_left(self, work, i, bond):
        """Truncating SVD split of work[i] across its left bond, the chain's
        bond `bond`, carrying the rest into work[i - 1]; returns the
        discarded weight."""
        t = work[i]
        l, d_, r = t.shape
        u, su, vh, err = self._truncated_svd(t.reshape(l, d_ * r), bond)
        work[i] = vh.reshape(-1, d_, r)
        work[i - 1] = _carry_left(work[i - 1], u * su[None, :])
        return err

    def _moved_sum_tensors(self, ps):
        """On a chain of bonds 1, split the sites into those the sum moves
        and the fixed ones, under apply_pauli_sum's bound. Returns the
        moved sites, the unit site vectors, the uncompressed site tensors
        of the sum on the moved sites, with the fixed sites' multiples and
        the coefficients on the first, and the weight the projection onto
        the fixed vectors drops: sum_ab conj(c_a) c_b G_ab (prod_f (L + R)_ab
        - prod_f L_ab) over the fixed sites f, with G_ab the overlaps of the
        copies on the moved sites, L_ab those of the multiples and R_ab of
        the residuals.
        """
        coeffs, src, phase = self._term_tables(ps)
        n, k = self.n, len(coeffs)
        vecs = np.concatenate(self.tensors).reshape(n, -1)
        sq = np.einsum("id,id->i", vecs.conj(), vecs).real
        # a zero vector stays zero, so it is fixed with multiple 0
        unit = vecs / np.sqrt(np.where(sq > 0.0, sq, 1.0))[:, None]
        moved = phase * vecs[np.arange(n)[:, None], src]  # (term, site, level)
        lam = np.einsum("id,aid->ai", unit.conj(), moved)
        res = moved - lam[:, :, None] * unit
        res2 = np.einsum("aid,aid->ai", res.conj(), res).real
        tol = self.policy.cutoff / (2 * n * k)
        fixed = (res2 <= tol * tol * sq).all(axis=0)  # a NaN site moves
        if fixed.all():
            fixed[self.center] = False
        sites = np.flatnonzero(~fixed).tolist()
        lam, res = lam[:, fixed], res[:, fixed]
        on = moved[:, sites]
        dropped = 0.0
        if res.any():  # exact fixed points drop nothing
            lam2 = lam.conj()[:, None] * lam[None]
            gram = lam2 + np.einsum("aid,bid->abi", res.conj(), res)
            gram_on = np.einsum("aid,bid->abi", on.conj(), on).prod(axis=2)
            drop = coeffs.conj() @ (
                gram_on * (gram.prod(axis=2) - lam2.prod(axis=2))) @ coeffs
            dropped = max(float(drop.real), 0.0)
        folded = coeffs * lam.prod(axis=1)
        copies = list(on.transpose(1, 0, 2)[:, :, None, :, None])
        copies[0] = folded[:, None, None, None] * copies[0]
        return sites, unit, _direct_sum(copies), dropped

    def _term_tables(self, ps):
        """Coefficients (k,), source levels and phases (k, n, d) of a sum:
        X**x Z**z sends |s> to omega**(z s) |s + x>, so site i of term a
        reads input level (r - x_ai) mod d into output level r with phase
        omega**(z_ai (r - x_ai)). A sum of another shape raises ValueError,
        an empty one too."""
        if not isinstance(ps, PauliSum):
            raise TypeError("expected a PauliSum")
        if ps.d != self.d or ps.n_sites != self.n:
            raise ValueError("operator does not match the chain")
        if len(ps) == 0:
            raise ValueError("empty operator sum")
        d = self.d
        xs = np.array([p.x for _, p in ps.terms])
        zs = np.array([p.z for _, p in ps.terms])
        src = (np.arange(d) - xs[:, :, None]) % d  # (term, site, out level)
        phase = phase_factor(2 * zs[:, :, None] * src, d)
        return np.array([c for c, _ in ps.terms]), src, phase

    def _pauli_sum_tensors(self, ps):
        """Site tensors of sum_a c_a P_a |self>, uncompressed: the direct
        sum of one Pauli-moved copy of the chain per term (_term_tables),
        with the coefficients on site 0.
        """
        coeffs, src, phase = self._term_tables(ps)
        phase[:, 0] *= coeffs[:, None]
        # copy a of site i: (term, left, out level, right)
        return _direct_sum([
            phase[:, i, None, :, None] * t[:, src[:, i]].transpose(1, 0, 2, 3)
            for i, t in enumerate(self.tensors)])


def _direct_sum(copies):
    """Site tensors of the sum of k chains, from each site's stack of its k
    copies, (term, left, level, right): copy a sits on block a of every
    inner bond and the outer bonds close by summing over the copies, so on
    a single site the copies add up."""
    m = len(copies)
    k = copies[0].shape[0]
    terms = np.arange(k)
    out = []
    for i, c in enumerate(copies):
        _, l, d, r = c.shape
        if m == 1:
            out.append(c.sum(axis=0))
        elif i == 0:
            out.append(c.transpose(1, 2, 0, 3).reshape(1, d, k * r))
        elif i == m - 1:
            out.append(c.reshape(k * l, d, 1))
        else:
            w = np.zeros((k, l, d, k, r), dtype=np.complex128)
            w[terms, :, :, terms] = c
            out.append(w.reshape(k * l, d, k * r))
    return out


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
