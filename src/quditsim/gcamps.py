"""Hybrid simulator holding a Clifford frame C and an MPS: state = C|mps>.

Clifford gates touch only the tableau (zero tensor work). A non-Clifford
single-site unitary u runs the four-stage pipeline: expand u in the Pauli
basis (decompose_unitary, whose memo expands the T matrix of every step
once), commute each term through C as u~ = C^dag u C (valid because
u C = C (C^dag u C); one conjugation per generator X, Z and one
kernels.ordered_product of their images for all the terms), apply the
resulting operator sum to the MPS, then try to push the created
entanglement back into C by sweeping the two-site catalog over the
affected bonds, left to right whatever the gate's site: a cut inside the
commuted strings' support stays entangled until one side of it has been
collapsed, and collapsing proceeds from the window's edge inward. An
accepted catalog gate Q moves the MPS to Q|mps> while C absorbs the
inverse, C <- C Q^dag, so the physical state never changes; the absorption
(Tableau.right_multiply) reuses the product weights the tableau caches for
each catalog frame, so only the frame's rows are multiplied out per
accepted gate. Q|mps> is not formed a second time: the pair tensor the
scan scored for Q is split in place by the MPS's own truncating SVD
(Mps.split_pair), which leaves the same bits as Mps.apply_two_site would.

The bond objective is lexicographic: first the Schmidt rank at the policy
cutoff (TruncationPolicy.rank, the truncated bond dimension), then the Renyi-2
entropy -ln(sum sigma^4) as a continuous tie-break. Only strictly better
candidates are accepted, so the objective never increases. The entangling
candidates at a bond are scored in catalog order, a batch at a time (one
stacked SVD and one vectorized objective per batch), and the winner is the
first entry of the best score, so ties resolve to the earliest entry. The
scan stops at the first candidate that makes the bond a product, since no
later one can beat it. One usually turns up early, so the batches grow
from one: the first holds the bond as it stands and the first candidate,
and each later one doubles, so a scan that stops at candidate p has scored
at most 2p + 1. A bond is settled when its last scan in a disentangle run
accepted nothing and its neighbourhood has seen no gate since, or when it
is a product across its cut, which no candidate can beat. A settled bond is
skipped outright, with no center move and no SVD: its objective cannot have
changed, so the report carries the one from its last visit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .circuits import GateOp, gate_matrix
from .disentanglers import DisentanglerCatalog
from .mps import (
    Mps, TruncationPolicy, mps_model_bytes, robust_svd, worst_case_chi,
)
from .pauli import PauliString, PauliSum, decompose_unitary
from .statevector import DenseState
from .tableau import WORKING_SET_BYTES, identity_tableau

__all__ = [
    "GcampsState",
    "DisentangleReport",
    "GateLog",
    "new_state",
    "tableau_bytes",
]

_TIE_EPS = 1e-12
_DEFAULT_PASS_LIMIT = 4
# bytes of candidate pair tensors formed at once, the one working-set
# budget tableau.apply_word also keeps; a batch holds the matmul output and
# its transposed copy together, so 4 candidates of 81 x 81 per batch for a
# qutrit pair between two bonds of 27
_SCAN_CHUNK_BYTES = WORKING_SET_BYTES


def tableau_bytes(n: int) -> int:
    """Bytes of an n-site tableau: 2n^2 codes x*d + z and 2n phases at one
    byte each, 2n(n+1) in all. Exact for d <= 13; beyond, each code takes
    two bytes up to d = 251 and four past it (tableau.code_dtype), and past
    d = 127 each phase takes two (tableau.storage_dtype).
    GcampsState.memory_estimate, which reads the tableau's own size,
    counts them."""
    return 2 * n * (n + 1)


@dataclass
class GateLog:
    """Chronological record of everything folded into C.

    C factors as L * R: circuit Cliffords compose on the left of C, absorbed
    disentangler inverses append on the right, and the two accumulations
    never interleave algebraically. Replay onto a vector therefore applies
    the absorbed words in reverse order first, then the circuit gates in
    order. Each absorbed entry is a (word, sites) pair: a word over local
    sites 0..m-1 whose local site j acts on sites[j].
    """

    cliffords: list = field(default_factory=list)
    absorbed: list = field(default_factory=list)

    def copy(self):
        return GateLog(list(self.cliffords), list(self.absorbed))


@dataclass
class DisentangleReport:
    """Outcome of one disentangle run.

    Every pass walks the whole window: each bond is either visited (listed
    in bonds_visited, in visiting order) or skipped as settled (counted in
    bonds_skipped). objective_before holds a bond's objective at its first
    visit and objective_after the one its last visit left, which a skipped
    bond carries unchanged. candidates_scored counts the candidate pair
    tensors whose spectra the scans computed.
    """

    bonds_visited: list = field(default_factory=list)
    gates_applied: list = field(default_factory=list)  # (entry index, left site)
    objective_before: dict = field(default_factory=dict)
    objective_after: dict = field(default_factory=dict)
    early_termination: bool = False
    passes: int = 0
    bonds_skipped: int = 0
    candidates_scored: int = 0


def _objectives(s, policy):
    """(policy.rank, Renyi-2 entropy) for each row of s, a stack of
    descending singular values; an all-zero row scores (0, 0.0).

    The entropy is -ln(sum s^4 / (sum s^2)^2), computed in place on one
    copy of s and two row-length arrays. The division, the log and the
    negation skip an all-zero row, whose sum s^4 is +0.0 and stays so; a
    mask costs more than the arithmetic on rows this short, so it is only
    passed when such a row is there.
    """
    s2 = s * s
    total = s2.sum(axis=1)
    live = total > 0.0
    where = True if live.all() else live
    np.multiply(s2, s2, out=s2)
    entropy = s2.sum(axis=1)
    np.multiply(total, total, out=total)
    np.divide(entropy, total, out=entropy, where=where)
    np.log(entropy, out=entropy, where=where)
    np.negative(entropy, out=entropy, where=where)
    return list(zip(policy.rank(s).tolist(), entropy.tolist()))


def _better(a, b):
    return a[0] < b[0] or (a[0] == b[0] and a[1] < b[1] - _TIE_EPS)


def _unbeatable(obj):
    """True when no bond objective can be _better than obj, a product
    across the cut (rank at most 1, entropy at most _TIE_EPS).

    Beating it would take rank 0, which no candidate reaches from a nonzero
    state because the catalog's unitaries keep the norm, or a Renyi-2
    entropy below obj's minus _TIE_EPS, which is at most 0, and
    -ln(sum p^2) is never negative.
    """
    return obj[0] <= 1 and obj[1] <= _TIE_EPS


class GcampsState:
    """Mutable C|mps> pair with a shared disentangler catalog."""

    __slots__ = ("tableau", "mps", "catalog", "gate_log")

    def __init__(self, tableau, mps, catalog, gate_log=None):
        if tableau.n != mps.n or tableau.d != mps.d:
            raise ValueError("tableau and MPS shapes disagree")
        if not isinstance(catalog, DisentanglerCatalog):
            raise TypeError("expected a DisentanglerCatalog")
        if catalog.d != mps.d:
            raise ValueError(
                f"catalog is for d={catalog.d}, state has d={mps.d}"
            )
        self.tableau = tableau
        self.mps = mps
        self.catalog = catalog
        self.gate_log = gate_log

    @property
    def d(self):
        return self.mps.d

    @property
    def n(self):
        return self.mps.n

    def copy(self):
        log = self.gate_log.copy() if self.gate_log is not None else None
        return GcampsState(
            self.tableau.copy(), self.mps.copy(), self.catalog, log
        )

    # ------------------------------------------------------------------
    # Clifford path: tableau only

    def apply_clifford_word(self, word):
        """Fold a word into C in one layered tableau update."""
        word = tuple(word)
        self.tableau.apply_word(word)
        if self.gate_log is not None:
            self.gate_log.cliffords.extend(word)
        return self

    # ------------------------------------------------------------------
    # non-Clifford pipeline

    def commuted_sum(self, site, u) -> PauliSum:
        """C^dagger u C for a one-site unitary u on `site`, as a Pauli sum
        over the chain, the operator the MPS must take for u.

        u is expanded as sum c X^x Z^z on its site by decompose_unitary,
        whose memo returns the expansion of a matrix it has seen (the T
        matrix of every step) without a second transform. Conjugation is
        a group homomorphism, so each term's image is the exact product
        (C^dagger X C)^x (C^dagger Z C)^z: X and Z are each conjugated
        through the tableau at most once, and only if some term uses
        them, and the identity term needs neither. The images of all
        terms, exponents and phases, are one kernels.ordered_product of
        the conjugated generators raised to the terms' exponents.
        """
        n, d = self.n, self.d
        site = int(site)
        if not 0 <= site < n:
            raise ValueError("site out of range")
        if np.shape(u) != (d, d):
            raise ValueError("operator must be d x d")
        # decompose_unitary admits u through checked_unitary
        local = decompose_unitary(u, d).terms
        powers = np.array([(p.x[0], p.z[0]) for _, p in local])
        used = powers.any(axis=0)
        gens = [self.tableau.conjugate_inverse(
                    PauliString.single(d, n, site, *unit))
                for unit, use in zip(((1, 0), (0, 1)), used) if use]
        xs, zs, phases = kernels.ordered_product(
            np.reshape([g.x for g in gens], (len(gens), n)),
            np.reshape([g.z for g in gens], (len(gens), n)),
            [g.phase for g in gens], powers[:, used], d)
        return PauliSum(d, n, [
            (c, PauliString._unchecked(d, x, z, int(ph)))
            for (c, _), x, z, ph in zip(local, xs, zs, phases)])

    def apply_non_clifford(self, site, u) -> DisentangleReport:
        """Apply a one-site unitary u on `site`: its commuted sum goes
        into the MPS, then the bonds it changed are disentangled."""
        n = self.n
        commuted = self.commuted_sum(site, u)
        before = self.mps.bond_dims()
        self.mps.apply_pauli_sum(commuted)
        after = self.mps.bond_dims()
        changed = [b for b in range(n - 1) if before[b] != after[b]]
        if not changed:
            return DisentangleReport()
        return self.disentangle(window=(min(changed), max(changed) + 2))

    # ------------------------------------------------------------------
    # disentangling

    def disentangle(self, window=None,
                    pass_limit=_DEFAULT_PASS_LIMIT) -> DisentangleReport:
        """Sweep the bonds of window (sites lo..hi-1, default the chain)
        left to right until a pass accepts no gate or pass_limit passes
        have run; early_termination is set when the last allowed pass
        still accepted a gate.

        The order ignores the site the non-Clifford gate hit: a cut inside
        the commuted strings' support stays entangled until one side of it
        has been collapsed, and collapsing proceeds from the window's edge
        inward. Each pass offers every bond that is not settled to
        _optimize_bond; a settled bond keeps the objective of its last
        visit, and a pass that visits nothing ends the run.
        """
        n = self.n
        if window is None:
            window = (0, n)
        lo, hi = int(window[0]), int(window[1])
        if not 0 <= lo <= hi <= n:
            raise ValueError("window out of range")
        report = DisentangleReport()
        bonds = range(lo, hi - 1)
        if not bonds:
            return report
        # Bonds whose last scan in this run accepted nothing. A candidate at
        # bond i is scored by the spectrum across cut i after it acts on
        # sites i, i+1; a gate on sites j, j+1 lying wholly on one side of
        # that cut (j < i-1 or j > i+1) commutes with it and cannot change
        # that spectrum, so only bonds j-1, j, j+1 need a rescan. A chi_max
        # truncation is a projector, which can change the spectrum across
        # any cut, so with chi_max set every bond does.
        settled = set()
        # Bonds left a product across their cut. A later gate at bond j != i
        # acts on one side of that cut, and so does its chi_max truncation,
        # a projector on the side of cut j away from cut i. No operator on
        # one side can entangle across the cut, so the bond stays a product,
        # which no candidate can beat.
        products = set()
        truncating = self.mps.policy.chi_max is not None
        accepted = 0
        while report.passes < pass_limit:
            report.passes += 1
            accepted = 0
            for i in bonds:
                if i in settled or i in products:
                    report.bonds_skipped += 1
                    continue
                if not self._optimize_bond(i, report):
                    settled.add(i)
                else:
                    accepted += 1
                    if truncating:
                        settled.clear()
                    else:
                        settled.difference_update((i - 1, i, i + 1))
                if _unbeatable(report.objective_after[i]):
                    products.add(i)
            if accepted == 0:
                break
        report.early_termination = bool(
            report.passes == pass_limit and accepted > 0
        )
        return report

    def _optimize_bond(self, i, report) -> int:
        """Apply the catalog entry that best disentangles bond i, if any
        strictly beats the bond as it stands; returns 1 if one was applied.

        Only entangling entries are scored (a local factor cannot change
        the spectrum). They are scored in catalog order a batch at a time,
        one stacked SVD call and one vectorized objective per batch. The
        first batch holds the bond as it stands (row 0) and the first
        candidate; each later batch holds twice the candidates of the one
        before, at least one and as many as fit _SCAN_CHUNK_BYTES
        (tableau.WORKING_SET_BYTES, 1 MB) twice: the product and the
        transposed copy the SVD reads are alive together. The scores
        are walked in catalog order, so ties resolve to the earliest entry
        and the winner does not depend on where the batches end, and the
        walk stops at the first _unbeatable score, the bond's own included.
        Every candidate row of a batch counts toward the report's
        candidates_scored. disentangle calls this only on bonds that are
        not settled.

        The winner is absorbed from the pair tensor it was scored on: that
        row of the batch's product is split at bond i by Mps.split_pair,
        with no second contraction and no second look at the catalog
        unitary, which DisentanglerCatalog.entangling_stack checked when
        it was built.
        """
        mps = self.mps
        d = self.d
        mps.move_center(i)
        theta = mps.pair_tensor(i)
        l, _, _, r = theta.shape
        policy = mps.policy
        paired = theta.transpose(1, 2, 0, 3).reshape(d * d, l * r)
        indices, stack = self.catalog.entangling_stack()
        budget = max(1, _SCAN_CHUNK_BYTES // (2 * paired.nbytes))
        best_idx, best_theta = -1, None
        start, size = 0, 1
        while True:
            stop = min(start + size, len(indices))
            y = (stack[start:stop] @ paired).reshape(-1, d, d, l, r)
            y = y.transpose(0, 3, 1, 2, 4).reshape(-1, l * d, d * r)
            lead = int(start == 0)
            if lead:
                y = np.concatenate((theta.reshape(1, l * d, d * r), y))
            scores = _objectives(robust_svd(y, compute_uv=False), policy)
            report.candidates_scored += stop - start
            if lead:
                best = scores[0]
                report.bonds_visited.append(i)
                report.objective_before.setdefault(i, best)
                report.objective_after[i] = best
            winner = -1
            for k in range(lead, len(scores)):
                if _unbeatable(best):
                    break
                if _better(scores[k], best):
                    best, winner = scores[k], k
            if winner >= 0:  # copied, so the batch is freed before the next
                best_idx = int(indices[start + winner - lead])
                best_theta = y[winner].reshape(l, d, d, r).copy()
            if _unbeatable(best) or stop == len(indices):
                break
            start, size = stop, min(2 * size, budget)
        if best_idx < 0:
            return 0
        mps.split_pair(i, best_theta)
        word, frame = self.catalog.absorptions()[best_idx]
        self.tableau.right_multiply(frame, (i, i + 1))
        if self.gate_log is not None:
            self.gate_log.absorbed.append((word, (i, i + 1)))
        report.gates_applied.append((best_idx, i))
        report.objective_after[i] = best
        return 1

    # ------------------------------------------------------------------
    # observables

    def expectation(self, sigma: PauliString) -> complex:
        if sigma.d != self.d or sigma.n_sites != self.n:
            raise ValueError("operator does not match the state")
        q = self.tableau.conjugate_inverse(sigma)
        # one Pauli string moves every site by a unitary, so its copy of
        # the chain keeps the canonical form and the center
        moved = self.mps._pauli_sum_tensors(PauliSum(self.d, self.n, [(1.0, q)]))
        return self.mps.overlap(Mps(self.d, moved, center=self.mps.center))

    def hermitian_expectation(self, sigma: PauliString) -> float:
        # <(sigma + sigma^dag)/2> is the real part of <sigma>
        return float(self.expectation(sigma).real)

    # ------------------------------------------------------------------
    # accounting and verification

    def memory_estimate(self, worst_case: bool = False) -> int:
        """Modeled MPS bytes (at the worst-case bonds if asked) plus the
        bytes the tableau actually stores."""
        chi = self.mps.bond_dims()
        if worst_case:
            chi = worst_case_chi(chi, self.d, self.n)
        return mps_model_bytes(chi, self.d) + self.tableau.nbytes

    def dense_vector(self, max_dim: int | None = None) -> np.ndarray:
        """Contract the MPS and replay C onto it. Needs the gate log."""
        if self.gate_log is None:
            raise RuntimeError("dense replay requires verification mode")
        ref = DenseState(self.d, self.n, self.mps.to_dense(max_dim), max_dim)
        for word, sites in reversed(self.gate_log.absorbed):
            for g in word:
                ref.apply_unitary(gate_matrix(g, self.d),
                                  [sites[s] for s in g.sites])
        for g in self.gate_log.cliffords:
            ref.apply_unitary(gate_matrix(g, self.d), g.sites)
        return ref.amps.reshape(-1)

    # ------------------------------------------------------------------
    # circuit driver

    def apply_op(self, op: GateOp):
        """Route one circuit operation; returns a report for non-Cliffords."""
        if op.is_clifford:
            self.apply_clifford_word((op,))
            return None
        return self.apply_non_clifford(op.sites[0], gate_matrix(op, self.d))


def new_state(n, d, catalog, policy=None, verify=False) -> GcampsState:
    """Fresh C|mps>: identity tableau over |0...0>."""
    if policy is None:
        policy = TruncationPolicy()
    mps = Mps.product_state(n, d, policy=policy)
    log = GateLog() if verify else None
    return GcampsState(identity_tableau(n, d), mps, catalog, log)
