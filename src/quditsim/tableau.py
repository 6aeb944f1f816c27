"""Qudit stabilizer tableau: a Clifford C held as conjugation images.

Row i (0 <= i < n) stores C Z_i C^dagger, row n+i stores C X_i C^dagger,
each as a full PauliString with its own tau-exponent phase.

Exponents lie in [0, d) and phases in [0, 2d), so the arrays are stored in
the narrowest unsigned type that holds 2d - 1 (storage_dtype): one byte per
entry up to d = 127. Every product is taken in int64 working copies of
just the entries it reads, since a product of two uint8 arrays wraps mod
256 without a word.

Words are sequences of Clifford GateOps, the circuit's own ops: H, Hdg, S,
Sdg, X, Z, SUM, SUMdg and SWAP. A non-Clifford op in a word raises
ValueError before anything changes.

A Clifford word is applied in as-soon-as-possible layers: each gate goes
one layer past the last gate on any of its sites, so the gates of a layer
act on disjoint sites and commute. The tableau is packed site-major, one
code x*d + z per (site, row), and each (layer, name) rewrites the codes of
all its sites over all 2n rows with one lookup in a table of that gate's
images, indexed by the codes of its k sites. Gates on disjoint sites
change disjoint codes and their phase increments add mod 2d, so the
result is bit-identical to applying the gates one at a time.

A gate's action is defined once, by its matrix in gates.gate_matrix. The
table reads the images of the 2k generators X_j, Z_j off that matrix:
each is conjugated densely and decomposed, and must come out as a single
Pauli string times a power of tau. Every table entry, phase included, is
then one row of a kernels.ordered_product call over the generator images,
stacked over all d^(2k) exponent vectors, never a precomputed phase
polynomial, so the even/odd-d case split cannot creep in as a bug source.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import kernels
from .gates import NON_CLIFFORD_NAMES, TWO_SITE_NAMES, GateOp, gate_matrix
from .pauli import PauliString, QuditDim, decompose_unitary, phase_factor

# (name, d) -> read-only code/phase lookup arrays, built lazily
_IMAGE_CACHE: dict = {}


def _generator_images(name: str, d: int):
    """Images g P g^dagger of the generators (X_0, Z_0, ..., X_{k-1},
    Z_{k-1}) of the gate's k-site register, read off gate_matrix.

    Each image must decompose into one Pauli string whose coefficient is
    tau**ph for an integer ph, to 1e-9; anything else raises
    ArithmeticError, since the gate would then not be Clifford.
    """
    k = 2 if name in TWO_SITE_NAMES else 1
    u = gate_matrix(GateOp(name, range(k)), d)
    u_dag = u.conj().T
    images = []
    for j, (x, z) in product(range(k), ((1, 0), (0, 1))):
        # a Pauli has one nonzero per column, so gen @ u^dagger moves row
        # c of u^dagger to the row of column c's nonzero and phases it
        gen = PauliString.single(d, k, j, x, z).to_matrix()
        rows, cols = np.nonzero(gen)
        moved = np.empty_like(u_dag)
        moved[rows] = gen[rows, cols][:, None] * u_dag[cols]
        terms = decompose_unitary(u @ moved, d).terms
        if len(terms) != 1:
            raise ArithmeticError(f"{name} maps a Pauli to {len(terms)} terms")
        (c, p), = terms
        ph = round(np.angle(c) * d / np.pi) % (2 * d)
        if not abs(c - phase_factor(ph, d)) <= 1e-9:
            raise ArithmeticError(f"{name} image coefficient {c} is not a "
                                  "power of tau")
        images.append(PauliString(d, p.x, p.z, ph))
    return images


def _image_tables(name: str, d: int):
    """(codes, phase) lookup tables for a Clifford gate on k sites.

    Both are indexed by the k sites' packed codes x*d + z read as one
    base-d^2 number, first listed site first: codes[j, i] is the code of
    the image on site j and phase[i] its tau exponent. Built once per
    (name, d) by one kernels.ordered_product call over the generator
    images' powers, so the phase column is exact by construction; the
    arrays are read-only.
    """
    key = (name, d)
    hit = _IMAGE_CACHE.get(key)
    if hit is not None:
        return hit
    if name in NON_CLIFFORD_NAMES:
        raise ValueError(f"{name} is not a Clifford gate")
    images = _generator_images(name, d)
    # np.indices counts the powers of (X_0, Z_0, ..., X_{k-1}, Z_{k-1}) in
    # base d, the packed index, and the images come in that same order
    exps = np.indices((d,) * len(images)).reshape(len(images), -1).T
    x, z, phase = kernels.ordered_product(
        [p.x for p in images], [p.z for p in images],
        [p.phase for p in images], exps, d)
    codes = np.ascontiguousarray((x * d + z).T)
    out = (codes, phase)
    for a in out:
        a.setflags(write=False)
    _IMAGE_CACHE[key] = out
    return out


def storage_dtype(d: int) -> np.dtype:
    """Narrowest unsigned type holding every stored value, exponents below
    d and phases below 2d: uint8 for d <= 127, uint16 beyond."""
    return np.min_scalar_type(2 * int(d) - 1)


def _layers(word, n: int):
    """A word's gates in as-soon-as-possible layers, as sorted
    ((layer, name), sites) pairs, the sites of all the group's gates in one
    flat list, gate after gate. A site past n raises ValueError (GateOp
    already refuses negative ones)."""
    depth = [0] * n
    groups = {}
    try:
        for g in word:
            sites = g.sites
            layer = max(map(depth.__getitem__, sites))
            for s in sites:
                depth[s] = layer + 1
            groups.setdefault((layer, g.name), []).extend(sites)
    except IndexError:
        raise ValueError(f"gate sites {sites} exceed n={n}") from None
    return sorted(groups.items())


class Tableau:
    """2n rows of exponents plus phases; see module docstring for layout.

    The constructor raises ValueError for an exponent outside [0, d) or a
    phase outside [0, 2d), then stores copies in storage_dtype(d).
    """

    __slots__ = ("d", "n", "xs", "zs", "phases")

    def __init__(self, d: int, n: int, xs, zs, phases):
        self.d = int(QuditDim(d))
        self.n = int(n)
        xs, zs, phases = map(np.asarray, (xs, zs, phases))
        if xs.shape != (2 * self.n, self.n) or zs.shape != xs.shape:
            raise ValueError("exponent blocks must have shape (2n, n)")
        if phases.shape != (2 * self.n,):
            raise ValueError("phase column must have shape (2n,)")
        # checked before narrowing: a cast would turn -1 into 255 silently
        for a, bound, what in ((xs, self.d, "exponents"),
                               (zs, self.d, "exponents"),
                               (phases, 2 * self.d, "phases")):
            if a.dtype.kind not in "iu" or (
                    a.size and (a.min() < 0 or a.max() >= bound)):
                raise ValueError(f"{what} must be integers in [0, {bound})")
        dtype = storage_dtype(self.d)
        self.xs, self.zs, self.phases = (a.astype(dtype)
                                         for a in (xs, zs, phases))

    def copy(self) -> "Tableau":
        return Tableau(self.d, self.n, self.xs, self.zs, self.phases)

    @property
    def nbytes(self) -> int:
        """Bytes of the stored exponents and phases."""
        return self.xs.nbytes + self.zs.nbytes + self.phases.nbytes

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
        into fresh arrays of the storage type that replace the old ones
        only at the end. A word that reaches past n (checked before any
        work) or holds a non-Clifford op (which has no image table) raises
        ValueError with the tableau untouched.
        """
        groups = _layers(word, self.n)
        if not groups:
            return self
        d = self.d
        # int64 codes: narrower index arrays make every lookup slower
        codes = (self.xs.astype(np.int64) * d + self.zs).T.copy()  # (n, 2n)
        dphase = np.zeros(2 * self.n, dtype=np.int64)
        for (_, name), sites in groups:
            image, phase = _image_tables(name, d)
            # row j: the j-th site of every gate
            legs = np.array(sites).reshape(-1, len(image)).T
            packed = codes[legs[0]]
            for leg in legs[1:]:
                packed = packed * (d * d) + codes[leg]
            for leg, leg_image in zip(legs, image):
                codes[leg] = leg_image[packed]
            dphase += phase[packed].sum(axis=0)
        dtype = self.xs.dtype
        xs, zs = np.divmod(codes.T, d)
        self.xs = np.ascontiguousarray(xs, dtype=dtype)
        self.zs = np.ascontiguousarray(zs, dtype=dtype)
        self.phases = ((self.phases + dphase) % (2 * d)).astype(dtype)
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
        Only the columns of p's support enter the commutation exponents.
        """
        self._check_shape(p)
        n, d = self.n, self.d
        cols = np.flatnonzero(p.x | p.z)
        c = (self.zs[:, cols].astype(np.int64) @ p.x[cols]
             - self.xs[:, cols].astype(np.int64) @ p.z[cols])  # c(row, p)
        xpow, zpow = c[:n] % d, -c[n:] % d
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
        `local` with its columns placed on `sites`. The 2m old rows of the
        sites, X rows before Z rows, are raised to `local`'s exponents by
        one kernels.ordered_product call, the product rowprod takes once it
        has picked its rows; the other 2n - 2m rows are not read or
        touched, so a two-site W costs O(n). The
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
        # W B W^dagger is canonical, X before Z on every site, and the X
        # images (rows n+s) commute among themselves, as do the Z images
        targets = sites + [n + s for s in sites]
        rows = targets[len(sites):] + sites
        x, z, ph = kernels.ordered_product(
            self.xs[rows], self.zs[rows], self.phases[rows],
            np.concatenate((local.xs, local.zs), axis=1), d)
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
        xs, zs = self.xs.astype(np.int64), self.zs.astype(np.int64)
        return (zs @ xs.T - xs @ zs.T) % self.d

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
