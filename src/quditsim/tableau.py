"""Qudit stabilizer tableau: a Clifford C held as conjugation images.

Row i (0 <= i < n) stores C Z_i C^dagger, row n+i stores C X_i C^dagger,
each as a full PauliString with its own tau-exponent phase.

Words are sequences of Clifford GateOps, the circuit's own ops: H, Hdg, S,
Sdg, X, Z, SUM, SUMdg and SWAP, each with its own image table. A
non-Clifford op in a word raises ValueError before anything changes.

A Clifford word is applied in as-soon-as-possible layers: each gate goes
one layer past the last gate on any of its sites, so the gates of a layer
act on disjoint sites and commute. The tableau is packed site-major, one
code x*d + z per (site, row), and each (layer, name) rewrites the codes of
all its sites over all 2n rows with one lookup in a flat table of that
gate's images. Gates on disjoint sites change disjoint codes and their
phase increments add mod 2d, so the result is bit-identical to
applying the gates one at a time. Every table entry, phase included, is
produced by explicit string multiplication, never by a precomputed phase
polynomial, so the even/odd-d case split cannot creep in as a bug source.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import kernels
from .gates import GateOp
from .pauli import PauliString, QuditDim

# (name, d) -> flat code/phase lookup arrays, built lazily
_IMAGE_CACHE: dict = {}


def _base_images(name: str, d: int):
    """Conjugation images g P g^dagger of the generator Paulis.

    One-site gates return (image of X, image of Z) on a one-site register;
    two-site gates return images of (X_c, Z_c, X_t, Z_t) on a two-site
    register with site 0 as the control (the first listed site). The
    even-d phase gate picks up the odd tau exponent that makes
    Y = tau X Z unitary of order 2d.
    """
    P = PauliString
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


def _image_tables(name: str, d: int):
    """Flat lookup tables mapping packed site codes x*d + z to their
    conjugated images.

    A one-site gate gives (code, phase), indexed by the site's code. A
    two-site gate gives (control code, target code, phase), indexed by
    control code * d^2 + target code. Built once per (name, d) by
    multiplying out powers of the generator images, so the phase column is
    exact by construction; the arrays are read-only.
    """
    key = (name, d)
    hit = _IMAGE_CACHE.get(key)
    if hit is not None:
        return hit
    images = _base_images(name, d)
    if len(images) == 2:
        gx, gz = images
        code = np.empty(d * d, dtype=np.int64)
        po = np.empty(d * d, dtype=np.int64)
        for x, z in product(range(d), repeat=2):
            q = gx.power(x) * gz.power(z)
            code[x * d + z] = q.x[0] * d + q.z[0]
            po[x * d + z] = q.phase
        out = (code, po)
    else:
        gxc, gzc, gxt, gzt = images
        size = d**4
        cc = np.empty(size, dtype=np.int64)
        tc = np.empty(size, dtype=np.int64)
        po = np.empty(size, dtype=np.int64)
        for k, (xc, zc, xt, zt) in enumerate(product(range(d), repeat=4)):
            q = gxc.power(xc) * gzc.power(zc) * gxt.power(xt) * gzt.power(zt)
            cc[k] = q.x[0] * d + q.z[0]
            tc[k] = q.x[1] * d + q.z[1]
            po[k] = q.phase
        out = (cc, tc, po)
    for a in out:
        a.setflags(write=False)
    _IMAGE_CACHE[key] = out
    return out


def _layers(word, n: int):
    """A word's gates in as-soon-as-possible layers, as sorted
    ((layer, name), sites) pairs: one site index per one-site gate, a
    (first, second) pair per two-site gate. Every site is checked against
    n."""
    depth = [0] * n
    groups = {}
    for g in word:
        sites = g.sites
        if max(sites) >= n:
            raise ValueError(f"gate sites {sites} exceed n={n}")
        if len(sites) == 1:
            (a,) = sites
            layer = depth[a]
            depth[a] = layer + 1
            groups.setdefault((layer, g.name), []).append(a)
        else:
            a, b = sites
            layer = max(depth[a], depth[b])
            depth[a] = depth[b] = layer + 1
            groups.setdefault((layer, g.name), []).append(sites)
    return sorted(groups.items())


class Tableau:
    """2n rows of exponents plus phases; see module docstring for layout."""

    __slots__ = ("d", "n", "xs", "zs", "phases")

    def __init__(self, d: int, n: int, xs, zs, phases):
        self.d = int(QuditDim(d))
        self.n = int(n)
        self.xs = np.asarray(xs, dtype=np.int64)
        self.zs = np.asarray(zs, dtype=np.int64)
        self.phases = np.asarray(phases, dtype=np.int64)
        if self.xs.shape != (2 * self.n, self.n) or self.zs.shape != self.xs.shape:
            raise ValueError("exponent blocks must have shape (2n, n)")
        if self.phases.shape != (2 * self.n,):
            raise ValueError("phase column must have shape (2n,)")

    def copy(self) -> "Tableau":
        return Tableau(self.d, self.n, self.xs.copy(), self.zs.copy(),
                       self.phases.copy())

    def row(self, r: int) -> PauliString:
        return PauliString(self.d, self.xs[r].copy(), self.zs[r].copy(),
                           int(self.phases[r]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tableau) and self.d == other.d
                and self.n == other.n
                and np.array_equal(self.xs, other.xs)
                and np.array_equal(self.zs, other.zs)
                and np.array_equal(self.phases, other.phases))

    # -- gate updates --------------------------------------------------------

    def apply_gate(self, g: GateOp) -> "Tableau":
        """Replace every row P by g P g^dagger (stored Clifford becomes gC)."""
        return self.apply_word((g,))

    def apply_word(self, word) -> "Tableau":
        """Apply a word's gates in order: the stored Clifford becomes W C.

        The rows are packed once into site-major codes, rewritten one
        (layer, name) at a time (see the module docstring), and unpacked
        into fresh arrays that replace the old ones only at the end. A word
        that reaches past n (checked before any work) or holds a
        non-Clifford op (which has no image table) raises ValueError with
        the tableau untouched.
        """
        groups = _layers(word, self.n)
        if not groups:
            return self
        d = self.d
        codes = (self.xs * d + self.zs).T.copy()  # (n, 2n)
        dphase = np.zeros(2 * self.n, dtype=np.int64)
        for (_, name), sites in groups:
            tables = _image_tables(name, d)
            if len(tables) == 2:
                image, phase = tables
                old = codes[sites]
                codes[sites] = image[old]
            else:
                cimage, timage, phase = tables
                c, t = np.array(sites).T
                old = codes[c] * (d * d) + codes[t]
                codes[c] = cimage[old]
                codes[t] = timage[old]
            dphase += phase[old].sum(axis=0)
        xs, zs = np.divmod(codes.T, d)
        self.xs = np.ascontiguousarray(xs)
        self.zs = np.ascontiguousarray(zs)
        self.phases = (self.phases + dphase) % (2 * d)
        return self

    # -- conjugation ---------------------------------------------------------

    def _check_shape(self, p: PauliString) -> None:
        if p.d != self.d or p.n_sites != self.n:
            raise ValueError("Pauli string shape does not match tableau")

    def conjugate_forward(self, p: PauliString) -> PauliString:
        """C p C^dagger via the ordered row product.

        Destabilizer rows realize the X exponents, stabilizer rows the Z
        exponents; p's own phase rides along as a scalar.
        """
        self._check_shape(p)
        x, z, ph = kernels.rowprod(self.xs, self.zs, self.phases,
                                   p.x, p.z, self.d)
        return PauliString(self.d, x, z, (ph + p.phase) % (2 * self.d))

    def conjugate_inverse(self, p: PauliString) -> PauliString:
        """C^dagger p C in closed form from commutation exponents, O(n^2).

        For p = C q C^dagger the symplectic relations (see symplectic_ok)
        give q's exponents directly: its X power on site j is
        c(stab_j, p) = -c(p, stab_j) and its Z power is c(p, destab_j),
        mod d. The row product for those powers is then multiplied out
        forward; it must reproduce p's exponents (else the tableau is
        corrupted and LinAlgError is raised), and its phase fixes q's.
        """
        self._check_shape(p)
        n, d = self.n, self.d
        xpow = (self.zs[:n] @ p.x - self.xs[:n] @ p.z) % d
        zpow = (self.xs[n:] @ p.z - self.zs[n:] @ p.x) % d
        rx, rz, rph = kernels.rowprod(self.xs, self.zs, self.phases,
                                      xpow, zpow, d)
        if not (np.array_equal(rx, p.x) and np.array_equal(rz, p.z)):
            raise np.linalg.LinAlgError("tableau rows do not span the Pauli group")
        return PauliString(d, xpow, zpow, (p.phase - rph) % (2 * d))

    def right_multiply(self, local: "Tableau", sites) -> "Tableau":
        """Compose on the right: stored C becomes C W, for the Clifford W
        whose m-site tableau is `local`, its local site j acting on
        sites[j].

        W acts only on those m sites, so only rows s and n+s of them
        change: each new row is C (W B W^dagger) C^dagger for a basis
        element B on those sites, and W B W^dagger is the matching row of
        `local` with its columns placed on `sites`. The 2m new rows are
        multiplied out of the old ones by a single stacked rowprod; the
        other 2n - 2m rows are not touched, so a two-site W costs O(n). The
        sites may come in any order and at any distance. A local tableau of
        another d, a site count other than local.n, a repeated site or one
        outside [0, n) raises ValueError with the tableau untouched.
        """
        n, d = self.n, self.d
        sites = list(sites)
        if local.d != d:
            raise ValueError(f"local tableau has d={local.d}, frame has d={d}")
        if len(sites) != local.n:
            raise ValueError(
                f"{len(sites)} sites given for a {local.n}-site tableau")
        if len(set(sites)) != len(sites):
            raise ValueError(f"sites {sites} repeat a site")
        if not all(0 <= s < n for s in sites):
            raise ValueError(f"sites {sites} fall outside [0, {n})")
        xpow = np.zeros((2 * len(sites), n), dtype=np.int64)
        zpow = np.zeros_like(xpow)
        xpow[:, sites] = local.xs
        zpow[:, sites] = local.zs
        x, z, ph = kernels.rowprod(self.xs, self.zs, self.phases,
                                   xpow, zpow, d)
        targets = sites + [n + s for s in sites]
        self.xs[targets] = x
        self.zs[targets] = z
        self.phases[targets] = (ph + local.phases) % (2 * d)
        return self

    # -- structure -----------------------------------------------------------

    def exponent_matrix(self) -> np.ndarray:
        """2n x 2n matrix over Z_d whose columns are the row exponent
        vectors (x over z), destabilizers first then stabilizers."""
        n = self.n
        m = np.empty((2 * n, 2 * n), dtype=np.int64)
        m[:n, :n] = self.xs[n:].T
        m[n:, :n] = self.zs[n:].T
        m[:n, n:] = self.xs[:n].T
        m[n:, n:] = self.zs[:n].T
        return m

    def commutation_matrix(self) -> np.ndarray:
        """Pairwise commutation exponents c(row_i, row_j) over Z_d."""
        return (self.zs @ self.xs.T - self.xs @ self.zs.T) % self.d

    def symplectic_ok(self) -> bool:
        """Rows commute except each stabilizer with its own destabilizer,
        where c(stab_i, destab_i) = 1 by the defining relation Z X = w X Z."""
        n, d = self.n, self.d
        want = np.zeros((2 * n, 2 * n), dtype=np.int64)
        want[:n, n:] = np.eye(n, dtype=np.int64)
        want[n:, :n] = (d - 1) * np.eye(n, dtype=np.int64)
        return np.array_equal(self.commutation_matrix(), want % d)

    def dump(self) -> str:
        """Debug dump: one `x-vector | z-vector | phase` line per row,
        stabilizers first, exact integers."""
        lines = []
        for r in range(2 * self.n):
            xs = " ".join(str(int(v)) for v in self.xs[r])
            zs = " ".join(str(int(v)) for v in self.zs[r])
            lines.append(f"{xs} | {zs} | {int(self.phases[r])}")
        return "\n".join(lines)


def identity_tableau(n: int, d: int) -> Tableau:
    """Tableau of the identity Clifford: row i = Z_i, row n+i = X_i."""
    d = int(QuditDim(d))
    if n < 1:
        raise ValueError("need at least one site")
    xs = np.zeros((2 * n, n), dtype=np.int64)
    zs = np.zeros((2 * n, n), dtype=np.int64)
    zs[:n] = np.eye(n, dtype=np.int64)
    xs[n:] = np.eye(n, dtype=np.int64)
    return Tableau(d, n, xs, zs, np.zeros(2 * n, dtype=np.int64))
