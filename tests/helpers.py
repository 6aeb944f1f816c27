"""Independent dense oracles shared by the test modules.

Everything here is built from first principles (np.roll / np.diag / kron)
without calling the package's own realization code, so package bugs cannot
cancel out in comparisons. The exceptions are the brute-force references
at the end: the plain loops that the package's vectorized paths replaced,
the five-gate SWAP word that the tableau's native SWAP replaced, and the
hand-written gate images that the tableau's tables, derived from
gate_matrix, must reproduce.
"""

from functools import lru_cache
from itertools import product

import numpy as np

CLIFFORD_NAMES = ("H", "Hdg", "S", "Sdg", "X", "Z", "SUM", "SUMdg", "SWAP")


def dense_shift(d):
    """X|j> = |j+1 mod d> as a permutation matrix."""
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def dense_clock(d):
    """Z = diag(omega**j)."""
    w = np.exp(2j * np.pi / d)
    return np.diag(w ** np.arange(d))


def dense_pauli(d, x, z, phase=0):
    """tau**phase * kron_i X**x[i] Z**z[i], site 0 on the left factor."""
    m = np.eye(1, dtype=complex)
    for xi, zi in zip(x, z):
        sx = np.linalg.matrix_power(dense_shift(d), int(xi) % d)
        sz = np.linalg.matrix_power(dense_clock(d), int(zi) % d)
        m = np.kron(m, sx @ sz)
    tau = np.exp(1j * np.pi / d)
    return tau ** (phase % (2 * d)) * m


def random_pauli_exponents(rng, d, n):
    x = rng.integers(0, d, size=n)
    z = rng.integers(0, d, size=n)
    phase = int(rng.integers(0, 2 * d))
    return x, z, phase


def random_unitary(rng, dim):
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kron_all(mats):
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def embed_single(u, site, n, d):
    """I x ... x u x ... x I with u at the given site."""
    mats = [np.eye(d, dtype=complex)] * n
    mats[site] = u
    return kron_all(mats)


def embed_gate(u, sites, n, d):
    """Embed a 1- or 2-site operator into an n-site register.

    The operator's tensor legs follow the order of `sites`, so a controlled
    gate with the control on its first leg lands control-first regardless of
    whether the site indices ascend.
    """
    sites = list(sites)
    k = len(sites)
    g = np.asarray(u, dtype=complex).reshape([d] * (2 * k))
    t = np.eye(d ** n, dtype=complex).reshape([d] * (2 * n))
    t = np.tensordot(g, t, axes=(list(range(k, 2 * k)), sites))
    rest = [ax for ax in range(n) if ax not in sites]
    src = [0] * n
    for j, s in enumerate(sites):
        src[s] = j
    for r, s in enumerate(rest):
        src[s] = k + r
    t = np.transpose(t, src + list(range(n, 2 * n)))
    return t.reshape(d ** n, d ** n)


def sum_permutation(n, d, c, t):
    """SUM(c, t) on n sites as an explicit basis permutation."""
    dim = d ** n
    m = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        digits = [(idx // d ** (n - 1 - s)) % d for s in range(n)]
        digits[t] = (digits[t] + digits[c]) % d
        out = sum(v * d ** (n - 1 - s) for s, v in enumerate(digits))
        m[out, idx] = 1.0
    return m


def swap_permutation(n, d, a, b):
    """SWAP(a, b) on n sites as an explicit basis permutation."""
    dim = d ** n
    m = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        digits = [(idx // d ** (n - 1 - s)) % d for s in range(n)]
        digits[a], digits[b] = digits[b], digits[a]
        out = sum(v * d ** (n - 1 - s) for s, v in enumerate(digits))
        m[out, idx] = 1.0
    return m


def reference_gate_matrix(name, d):
    """Dense matrix of a Clifford gate name, two-site gates control-first;
    each `dg` name is its base's dagger."""
    if name.endswith("dg"):
        return reference_gate_matrix(name[:-2], d).conj().T
    j = np.arange(d)
    w = np.exp(2j * np.pi / d)
    if name == "H":
        return w ** np.outer(j, j) / np.sqrt(d)
    if name == "S":
        return np.diag([1, 1j]) if d == 2 else np.diag(w ** (j * (j - 1) // 2))
    if name == "X":
        return dense_shift(d)
    if name == "Z":
        return dense_clock(d)
    if name == "SUM":
        return sum_permutation(2, d, 0, 1)
    if name == "SWAP":
        return swap_permutation(2, d, 0, 1)
    raise ValueError(f"no reference matrix for {name!r}")


def dense_word_unitary(word, n, d):
    """Dense unitary of a Clifford word applied circuit-style."""
    u = np.eye(d ** n, dtype=complex)
    for g in word:
        u = embed_gate(reference_gate_matrix(g.name, d), g.sites, n, d) @ u
    return u


def gate(name, *sites):
    """Shorthand for test words: gate('SUM', 0, 1)."""
    from quditsim.gates import GateOp

    return GateOp(name, sites)


def relabel_sites(circ, shift):
    """circ with every site s moved cyclically to (s + shift) % n, so a T
    that t_doped_circuit puts on site 0 lands on site shift % n."""
    from quditsim.circuits import Circuit
    from quditsim.gates import GateOp

    n = circ.n
    ops = [GateOp(op.name, tuple((s + shift) % n for s in op.sites), op.params)
           for op in circ.ops]
    return Circuit(n, circ.d, ops, circ.metadata)


def random_clifford_gates(rng, n, d, length):
    """Plain generator-word sampler for oracle tests (package-independent)."""
    pool = [("H", 1), ("S", 1), ("SUM", 2)] if n > 1 else [("H", 1), ("S", 1)]
    out = []
    for _ in range(length):
        name, arity = pool[rng.integers(0, len(pool))]
        if arity == 1:
            out.append(gate(name, int(rng.integers(0, n))))
        else:
            a = int(rng.integers(0, n))
            b = int(rng.integers(0, n - 1))
            b = b + 1 if b >= a else b
            out.append(gate("SUM", a, b))
    return out


def sample_word_from_pool(rng, n, length):
    """Reference for circuits._sample_word: the pool it replaced, listed in
    full (H_0..H_{n-1}, S_0..S_{n-1}, then SUM_ab for a != b in row-major
    order) and indexed by the same draws."""
    pool = [("H", (i,)) for i in range(n)] + [("S", (i,)) for i in range(n)]
    pool += [("SUM", (a, b)) for a in range(n) for b in range(n) if a != b]
    picks = rng.integers(0, len(pool), size=int(length))
    return [gate(pool[int(i)][0], *pool[int(i)][1]) for i in picks]


def rowprod_loop(xs, zs, phases, xpow, zpow, d):
    """Reference for kernels.rowprod: multiply the rows out one copy at a time.

    Destabilizer rows n+i raised to xpow[i] (ascending i), then stabilizer
    rows i raised to zpow[i]; a power <= 0 contributes nothing. Each copy
    costs tau**(2 acc_z . x) to move past the accumulated product.
    """
    xs, zs, phases = (np.asarray(v, dtype=np.int64) for v in (xs, zs, phases))
    n = xs.shape[1]
    acc_x = np.zeros(n, dtype=np.int64)
    acc_z = np.zeros(n, dtype=np.int64)
    ph = 0
    steps = [(n + i, xpow[i]) for i in range(n)] + [(i, zpow[i]) for i in range(n)]
    for r, k in steps:
        for _ in range(int(k)):
            ph = (ph + int(phases[r]) + 2 * int(acc_z @ xs[r])) % (2 * d)
            acc_x = (acc_x + xs[r]) % d
            acc_z = (acc_z + zs[r]) % d
    return acc_x, acc_z, ph


def swap_word(a, b):
    """Reference for the tableau's native SWAP: SWAP(a, b) over the
    generator set, valid for every prime d.

    Three SUMs leave |i,j> as |-j,i>; H applied twice is the parity
    permutation |k> -> |-k>, which repairs the sign on site a. At d=2
    the parity is the identity and this reduces to the usual CNOT triple.
    """
    return [gate("SUM", a, b), gate("SUMdg", b, a), gate("SUM", a, b),
            gate("H", a), gate("H", a)]


def reference_generator_images(name, d):
    """Reference for the tableau's generator images: g P g^dagger written
    out by hand for each Clifford name, as PauliStrings.

    One-site gates return (image of X, image of Z) on a one-site register;
    two-site gates return images of (X_c, Z_c, X_t, Z_t) on a two-site
    register with site 0 as the control (the first listed site). The
    even-d phase gate picks up the odd tau exponent that makes
    Y = tau X Z unitary of order 2d.
    """
    from quditsim.pauli import PauliString as P

    eps = 1 if d % 2 == 0 else 0
    if name == "H":
        return P(d, [0], [1]), P(d, [d - 1], [0])
    if name == "Hdg":
        return P(d, [0], [d - 1]), P(d, [1], [0])
    if name == "S":
        return P(d, [1], [1], eps), P(d, [0], [1])
    if name == "Sdg":
        return P(d, [1], [d - 1], -eps), P(d, [0], [1])
    if name == "X":
        return P(d, [1], [0]), P(d, [0], [1], 2 * d - 2)
    if name == "Z":
        return P(d, [1], [0], 2), P(d, [0], [1])
    if name == "SUM":
        return (P(d, [1, 1], [0, 0]), P(d, [0, 0], [1, 0]),
                P(d, [0, 1], [0, 0]), P(d, [0, 0], [d - 1, 1]))
    if name == "SUMdg":
        return (P(d, [1, d - 1], [0, 0]), P(d, [0, 0], [1, 0]),
                P(d, [0, 1], [0, 0]), P(d, [0, 0], [1, 1]))
    if name == "SWAP":
        return (P(d, [0, 1], [0, 0]), P(d, [0, 0], [0, 1]),
                P(d, [1, 0], [0, 0]), P(d, [0, 0], [1, 0]))
    raise ValueError(f"{name} is not a Clifford gate")


@lru_cache(maxsize=None)
def _exponent_image_tables(name, d):
    """(x, z) exponents and phase of the image of every Pauli on a gate's
    sites, indexed by (x0, z0[, x1, z1]), multiplied out of the
    hand-written generator images one power at a time."""
    images = reference_generator_images(name, d)
    k = len(images) // 2
    xo = np.empty((d,) * (2 * k) + (k,), dtype=np.int64)
    zo = np.empty_like(xo)
    po = np.empty((d,) * (2 * k), dtype=np.int64)
    for exps in product(range(d), repeat=2 * k):
        q = images[0].power(exps[0])
        for img, e in zip(images[1:], exps[1:]):
            q = q * img.power(e)
        xo[exps], zo[exps], po[exps] = q.x, q.z, q.phase
    return xo, zo, po


def apply_word_per_gate(t, word):
    """Reference for Tableau.apply_word: the per-gate loop it replaced.

    Each gate rewrites the exponent columns of its sites over all 2n rows
    through its image tables and adds its phase increments mod 2d, one gate
    at a time. Returns a new tableau.
    """
    d = t.d
    out = t.copy()
    for g in word:
        xo, zo, po = _exponent_image_tables(g.name, d)
        sites = list(g.sites)
        old = tuple(col for s in sites
                    for col in (out.xs[:, s].copy(), out.zs[:, s].copy()))
        out.xs[:, sites] = xo[old]
        out.zs[:, sites] = zo[old]
        out.phases[:] = (out.phases + po[old]) % (2 * d)
    return out


def pauli_mpo_per_site(ps):
    """Reference for PauliMpo's tensors: the constructor it replaced, one
    site_matrix call per (term, site) and one diagonal slot at a time."""
    from quditsim.pauli import site_matrix

    k, d, n = len(ps), ps.d, ps.n_sites
    mats = [[site_matrix(d, int(p.x[i]), int(p.z[i])) for i in range(n)]
            for _, p in ps.terms]
    coeffs = [c for c, _ in ps.terms]
    if n == 1:
        w = np.zeros((1, d, d, 1), dtype=np.complex128)
        for c, row in zip(coeffs, mats):
            w[0, :, :, 0] += c * row[0]
        return [w]
    first = np.zeros((1, d, d, k), dtype=np.complex128)
    for m in range(k):
        first[0, :, :, m] = coeffs[m] * mats[m][0]
    tensors = [first]
    for i in range(1, n - 1):
        w = np.zeros((k, d, d, k), dtype=np.complex128)
        for m in range(k):
            w[m, :, :, m] = mats[m][i]
        tensors.append(w)
    last = np.zeros((k, d, d, 1), dtype=np.complex128)
    for m in range(k):
        last[m, :, :, 0] = mats[m][n - 1]
    tensors.append(last)
    return tensors


def right_multiply_full(t, word):
    """Reference for Tableau.right_multiply: the full construction it
    replaced, pushing every row of an n-site tableau for the word through
    conjugate_forward. Returns a new tableau."""
    from quditsim.tableau import identity_tableau

    w = identity_tableau(t.n, t.d).apply_word(word)
    out = t.copy()
    for r in range(2 * t.n):
        q = t.conjugate_forward(w.row(r))
        out.xs[r], out.zs[r], out.phases[r] = q.x, q.z, q.phase
    return out


def local_frame(word, d):
    """(local tableau, sites) of a word for Tableau.right_multiply.

    The word's sites, in the order they first appear, become local sites
    0..m-1; the local tableau is the relabelled word applied to a fresh
    m-site tableau.
    """
    from quditsim.gates import GateOp
    from quditsim.tableau import identity_tableau

    sites = list(dict.fromkeys(s for g in word for s in g.sites))
    local = {s: j for j, s in enumerate(sites)}
    w = identity_tableau(len(sites), d).apply_word(
        [GateOp(g.name, tuple(local[s] for s in g.sites)) for g in word])
    return w, tuple(sites)


def objective_scalar(s, cutoff):
    """Reference bond objective: (rank above the cutoff, Renyi-2 entropy)."""
    s2 = s * s
    total = float(s2.sum())
    if total <= 0.0:
        return (0, 0.0)
    rank = int(np.count_nonzero(s > cutoff * s[0]))
    p2 = float((s2 * s2).sum()) / (total * total)
    return (rank, float(-np.log(p2)))


def reference_gcamps_state(n, d, catalog, policy=None):
    """Fresh C|mps> whose disentangle visits every bond of every pass and
    scores every catalog entry at each visit.

    This is the engine's sweep without its skips: each pass walks the whole
    window, settled, product or not, and each visit is the brute-force scan,
    one SVD and one scalar objective per entangling entry, in catalog order,
    keeping the first strictly better one. The engine, which skips settled
    and product bonds and exits its batched scan early, must make the same
    choices, so a bond it skips must have no better candidate here. The
    settled and product bookkeeping only labels the visits: each report
    gets `skippable`, one entry per entry of bonds_visited, None where the
    engine visits the bond too, else why the engine skips it, "product" for
    a bond left a product across its cut and "settled" for any other bond
    whose last scan accepted nothing with no gate on bonds i-1, i or i+1
    since (any gate at all when chi_max is set). The accepted gate is
    absorbed by the full construction, so the frame is an independent check
    on the engine's Tableau.right_multiply.
    """
    from quditsim.gates import GateOp, invert_word
    from quditsim.gcamps import (
        DisentangleReport, GcampsState, _DEFAULT_PASS_LIMIT, _better,
        _unbeatable,
    )
    from quditsim.mps import Mps, TruncationPolicy, robust_svd
    from quditsim.tableau import identity_tableau

    class ReferenceGcampsState(GcampsState):
        __slots__ = ()

        def disentangle(self, window=None, pass_limit=_DEFAULT_PASS_LIMIT):
            lo, hi = (0, self.n) if window is None else window
            report = DisentangleReport()
            report.skippable = []
            bonds = range(lo, hi - 1)
            if not bonds:
                return report
            settled, products = set(), set()
            truncating = self.mps.policy.chi_max is not None
            accepted = 0
            while report.passes < pass_limit:
                report.passes += 1
                accepted = 0
                for i in bonds:
                    report.skippable.append(
                        "product" if i in products
                        else "settled" if i in settled else None)
                    ok = self._optimize_bond(i, report)
                    if _unbeatable(report.objective_after[i]):
                        products.add(i)
                    if not ok:
                        settled.add(i)
                        continue
                    accepted += 1
                    if truncating:
                        settled.clear()
                    else:
                        settled.difference_update((i - 1, i, i + 1))
                if accepted == 0:
                    break
            report.early_termination = bool(
                report.passes == pass_limit and accepted > 0
            )
            return report

        def _optimize_bond(self, i, report):
            # scans every candidate in full, with no early exit, even at a
            # product bond
            mps = self.mps
            mps.move_center(i)
            theta = np.tensordot(
                mps.tensors[i], mps.tensors[i + 1], axes=([2], [0])
            )
            l, _, _, r = theta.shape
            cutoff = mps.policy.cutoff
            s0 = robust_svd(theta.reshape(l * d, d * r), compute_uv=False)
            current = objective_scalar(s0, cutoff)
            report.bonds_visited.append(i)
            report.objective_before.setdefault(i, current)
            report.objective_after[i] = current
            paired = theta.transpose(1, 2, 0, 3).reshape(d * d, l * r)
            best, best_idx = current, -1
            unitaries = self.catalog.unitaries()
            for idx, entry in enumerate(self.catalog.entries):
                if not entry.entangling:
                    continue
                y = (unitaries[idx] @ paired).reshape(d, d, l, r)
                y = y.transpose(2, 0, 1, 3).reshape(l * d, d * r)
                obj = objective_scalar(robust_svd(y, compute_uv=False), cutoff)
                if _better(obj, best):
                    best, best_idx = obj, idx
            if best_idx < 0:
                return 0
            mps.apply_two_site(i, unitaries[best_idx])
            mapped = tuple(
                GateOp(g.name, tuple(i + s_ for s_ in g.sites))
                for g in self.catalog.entries[best_idx].word
            )
            self.tableau = right_multiply_full(
                self.tableau, invert_word(mapped, d)
            )
            report.gates_applied.append((best_idx, i))
            report.objective_after[i] = best
            return 1

    if policy is None:
        policy = TruncationPolicy()
    return ReferenceGcampsState(
        identity_tableau(n, d), Mps.product_state(n, d, policy=policy), catalog
    )
