"""Qudit stabilizer tableau: a Clifford C held as conjugation images.

Row i (0 <= i < n) stores C Z_i C^dagger, row n+i stores C X_i C^dagger,
each as a full PauliString with its own tau-exponent phase.

Each (row, site) is stored as one code x*d + z in [0, d^2), an array of
shape (2n, n) in the narrowest unsigned type that holds d^2 - 1
(code_dtype): one byte per entry up to d = 13, two up to d = 251 and
four beyond. Phases lie in [0, 2d) and take the narrowest type that
holds 2d - 1 (storage_dtype), one byte up to d = 127. The exponents xs
and zs are decoded from the codes on demand into read-only arrays; the
updates and conjugations read the codes of just the rows and columns they
need. Every product is taken in int64 working copies of those entries,
since a product of two uint8 arrays wraps mod 256 without a word.

Words are sequences of Clifford GateOps, the circuit's own ops: H, Hdg, S,
Sdg, X, Z, SUM, SUMdg and SWAP. A non-Clifford op in a word raises
ValueError before anything changes.

A Clifford word is applied in as-soon-as-possible layers: each gate goes
one layer past the last gate on any of its sites, so the gates of a layer
act on disjoint sites and commute. The rows are taken a block at a time,
as many as fit WORKING_SET_BYTES in an int64 site-major working copy of
their codes, and each (layer, name) rewrites the codes of all its sites
over the block's rows with one lookup in a table of that gate's images,
indexed by the codes of its k sites. Gates on disjoint sites change
disjoint codes and their phase increments add mod 2d, and a gate updates
each row on its own, so the result is bit-identical to applying the gates
one at a time, whatever the blocks. Up to n = 256 all 2n rows make one
block.

A gate's action is defined once, by its matrix in gates.gate_matrix. The
table reads the images of the 2k generators X_j, Z_j off that matrix:
each is conjugated densely and decomposed, and must come out as a single
Pauli string times a power of tau. Every table entry, phase included, is
then one row of a kernels.ordered_product call over the generator images,
stacked over all d^(2k) exponent vectors, never a precomputed phase
polynomial, so the even/odd-d case split cannot creep in as a bug source.

A right-multiplication by an m-site local tableau (an absorbed
disentangler) raises the 2m old rows of its sites to the local tableau's
exponents. The part of that product that depends on the local tableau
alone, its exponents as powers and the phase rule's bilinear weights, is
kernels.product_weights, cached read-only once per local tableau (keyed by
d, m and its codes, at most _WEIGHTS_CACHE_SIZE entries); each absorption
then hands the gathered rows and the cached weights to
kernels.weighted_product, a few matmuls. The phase rule itself lives in
kernels only.

A tableau whose codes or phases are read-only (the catalog's cached
frames) refuses every in-place update with ValueError before anything
changes.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import kernels
from .gates import NON_CLIFFORD_NAMES, TWO_SITE_NAMES, GateOp, gate_matrix
from .pauli import PauliString, QuditDim, decompose_unitary, phase_factor

# bytes of the largest scratch array one engine step may form: the int64
# working copy of apply_word's row block here, and the disentangler's
# batches of candidate pair tensors in gcamps
WORKING_SET_BYTES = 1 << 20

# (name, d) -> read-only code/phase lookup arrays, built lazily
_IMAGE_CACHE: dict = {}

# (d, m, codes of an m-site local tableau) -> read-only
# kernels.product_weights of its decoded exponents, the powers
# right_multiply raises a frame's 2m rows to; the oldest entry goes first
# past _WEIGHTS_CACHE_SIZE, which holds every entry of a d <= 5 catalog
_WEIGHTS_CACHE: dict = {}
_WEIGHTS_CACHE_SIZE = 1024


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


def _absorption_weights(local: "Tableau"):
    """kernels.product_weights of a local tableau's rows as powers, X
    blocks before Z blocks: row j of local raises the frame's old X rows
    of its sites, then their Z rows, to local's exponents (x_j, z_j).
    Cached by local's d, site count and codes, so an equal tableau held
    in another array hits too and a changed one never reads stale
    weights."""
    key = (local.d, local.n, local.codes.tobytes())
    hit = _WEIGHTS_CACHE.get(key)
    if hit is None:
        x, z = local._split(local.codes.astype(np.int64))
        hit = kernels.product_weights(np.concatenate((x, z), axis=1))
        if len(_WEIGHTS_CACHE) >= _WEIGHTS_CACHE_SIZE:
            del _WEIGHTS_CACHE[next(iter(_WEIGHTS_CACHE))]
        _WEIGHTS_CACHE[key] = hit
    return hit


def storage_dtype(d: int) -> np.dtype:
    """Narrowest unsigned type holding every phase, below 2d, and every
    decoded exponent: uint8 for d <= 127, uint16 beyond."""
    return np.min_scalar_type(2 * int(d) - 1)


def code_dtype(d: int) -> np.dtype:
    """Narrowest unsigned type holding every code x*d + z, below d^2:
    uint8 for d <= 13, uint16 up to d = 251, uint32 beyond."""
    return np.min_scalar_type(int(d) * int(d) - 1)


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
    """2n rows of codes plus phases; see module docstring for layout.

    The constructor takes the exponent blocks xs, zs and the phases,
    raises ValueError for an exponent outside [0, d) or a phase outside
    [0, 2d), then stores the codes in code_dtype(d) and the phases in
    storage_dtype(d).
    """

    __slots__ = ("d", "n", "codes", "phases")

    def __init__(self, d: int, n: int, xs, zs, phases):
        self.d = int(QuditDim(d))
        self.n = int(n)
        xs, zs, phases = map(np.asarray, (xs, zs, phases))
        if xs.shape != (2 * self.n, self.n) or zs.shape != xs.shape:
            raise ValueError("exponent blocks must have shape (2n, n)")
        if phases.shape != (2 * self.n,):
            raise ValueError("phase column must have shape (2n,)")
        # checked before packing: a cast would turn -1 into 255 silently
        for a, bound, what in ((xs, self.d, "exponents"),
                               (zs, self.d, "exponents"),
                               (phases, 2 * self.d, "phases")):
            if a.dtype.kind not in "iu" or (
                    a.size and (a.min() < 0 or a.max() >= bound)):
                raise ValueError(f"{what} must be integers in [0, {bound})")
        self.codes = (xs.astype(np.int64) * self.d
                      + zs.astype(np.int64)).astype(code_dtype(self.d))
        self.phases = phases.astype(storage_dtype(self.d))

    @classmethod
    def _from_codes(cls, d: int, n: int, codes, phases) -> "Tableau":
        """A tableau that takes over already packed codes and phases,
        unchecked."""
        t = cls.__new__(cls)
        t.d, t.n, t.codes, t.phases = d, n, codes, phases
        return t

    def copy(self) -> "Tableau":
        return Tableau._from_codes(self.d, self.n, self.codes.copy(),
                                   self.phases.copy())

    def _split(self, codes):
        """x and z of codes x*d + z, in the codes' own type. Floor division
        of the narrow codes by the scalar d is the fastest exact decode
        numpy offers: a d^2-entry lookup table first widens every index
        to intp, and np.divmod does not divide by a constant."""
        x = codes // self.d
        return x, codes - x * self.d

    def _decoded(self, which: int) -> np.ndarray:
        a = self._split(self.codes)[which].astype(self.phases.dtype,
                                                  copy=False)
        a.setflags(write=False)
        return a

    @property
    def xs(self) -> np.ndarray:
        """X exponents, shape (2n, n), decoded into a read-only array."""
        return self._decoded(0)

    @property
    def zs(self) -> np.ndarray:
        """Z exponents, shape (2n, n), decoded into a read-only array."""
        return self._decoded(1)

    @property
    def nbytes(self) -> int:
        """Bytes of the stored codes and phases."""
        return self.codes.nbytes + self.phases.nbytes

    def row(self, r: int) -> PauliString:
        return PauliString(self.d, *self._split(self.codes[r]),
                           int(self.phases[r]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tableau) and self.d == other.d
                and self.n == other.n
                and np.array_equal(self.codes, other.codes)
                and np.array_equal(self.phases, other.phases))

    def _check_writable(self) -> None:
        if not (self.codes.flags.writeable and self.phases.flags.writeable):
            raise ValueError("tableau is read-only")

    def _rowprod(self, xpow, zpow):
        """Ordered row product with full phase tracking:
        prod_i row[n+i]**xpow[i] (ascending i), then prod_i row[i]**zpow[i]
        (ascending i); a power <= 0 contributes nothing. Returns (x, z,
        phase): x, z int64 mod d and phase an int mod 2d."""
        n = self.n
        powers = np.maximum(np.concatenate([np.asarray(xpow, dtype=np.int64),
                                            np.asarray(zpow, dtype=np.int64)]),
                            0)
        used = np.flatnonzero(powers)
        # xpow[i] -> row n+i, zpow[i] -> row i; only those rows' codes are
        # gathered, and the codes x*d + z, congruent to z mod d, serve as
        # the Z blocks, since the product reads exponents only mod d
        rows = (used + n) % (2 * n)
        codes = self.codes[rows]
        x, z, ph = kernels.ordered_product(codes // self.d, codes,
                                           self.phases[rows],
                                           powers[None, used], self.d)
        return x[0], z[0], int(ph[0])

    # -- gate updates --------------------------------------------------------

    def apply_gate(self, g: GateOp) -> "Tableau":
        """Replace every row P by g P g^dagger (stored Clifford becomes gC)."""
        return self.apply_word((g,))

    def apply_word(self, word) -> "Tableau":
        """Apply a word's gates in order: the stored Clifford becomes W C.

        The rows are rewritten a block at a time (see the module
        docstring): each block's codes are copied into a site-major int64
        working array of at most WORKING_SET_BYTES, rewritten one (layer,
        name) at a time and cast back into the stored codes. A read-only
        tableau, a word that reaches past n or one that holds a
        non-Clifford op (which has no image table) raises ValueError with
        the tableau untouched: all of it is checked, and every table
        built, before the first block.
        """
        self._check_writable()
        n, d = self.n, self.d
        steps = []
        for (_, name), sites in _layers(word, n):
            image, phase = _image_tables(name, d)
            # row j: the j-th site of every gate
            steps.append((image, phase,
                          np.array(sites).reshape(-1, len(image)).T))
        if not steps:
            return self
        block = max(1, WORKING_SET_BYTES // (8 * n))
        for lo in range(0, 2 * n, block):
            rows = slice(lo, lo + block)
            # int64 codes: narrower index arrays make every lookup slower
            codes = self.codes[rows].T.astype(np.int64, order="C")
            dphase = np.zeros(codes.shape[1], dtype=np.int64)
            for image, phase, legs in steps:
                packed = codes[legs[0]]
                for leg in legs[1:]:
                    packed = packed * (d * d) + codes[leg]
                for leg, leg_image in zip(legs, image):
                    codes[leg] = leg_image[packed]
                dphase += phase[packed].sum(axis=0)
            self.codes[rows] = codes.T
            self.phases[rows] = (self.phases[rows] + dphase) % (2 * d)
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
        x, z, ph = self._rowprod(p.x, p.z)
        return PauliString(self.d, x, z, (ph + p.phase) % (2 * self.d))

    def conjugate_inverse(self, p: PauliString) -> PauliString:
        """C^dagger p C in closed form from commutation exponents, O(n^2).

        For p = C q C^dagger the symplectic relations (see symplectic_ok)
        give q's exponents directly: its X power on site j is
        c(stab_j, p) = -c(p, stab_j) and its Z power is c(p, destab_j),
        mod d. The row product for those powers is then multiplied out
        forward; it must reproduce p's exponents (else the tableau is
        corrupted and LinAlgError is raised), and its phase fixes q's.
        Only the codes of p's support columns enter the commutation
        exponents, and only the rows the product uses enter the product.
        """
        self._check_shape(p)
        n, d = self.n, self.d
        cols = np.flatnonzero(p.x | p.z)
        codes = self.codes[:, cols]  # congruent to z mod d
        c = codes @ p.x[cols] - (codes // d) @ p.z[cols]  # c(row, p) mod d
        xpow, zpow = c[:n] % d, -c[n:] % d
        rx, rz, rph = self._rowprod(xpow, zpow)
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
        sites, X rows before Z rows, are gathered once and raised to
        `local`'s decoded exponents by kernels.weighted_product, from the
        product_weights cached for `local` (_absorption_weights), then
        encoded back once; the other 2n - 2m rows are not read or
        touched, so a two-site W costs O(n). The sites may come in any
        order and at any distance. A local tableau of another d, a site
        count other than local.n, a repeated site, one outside [0, n) or a
        read-only frame raises ValueError with the tableau untouched.
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
        self._check_writable()
        # W B W^dagger is canonical, X before Z on every site, and the X
        # images (rows n+s) commute among themselves, as do the Z images
        targets = sites + [n + s for s in sites]
        rows = targets[len(sites):] + sites
        # the codes x*d + z, congruent to z mod d, serve as the Z blocks
        codes = self.codes[rows].astype(np.int64)
        x, z, ph = kernels.weighted_product(
            codes // d, codes, self.phases[rows], _absorption_weights(local),
            d)
        self.codes[targets] = x * d + z
        self.phases[targets] = (ph + local.phases) % (2 * d)
        return self

    # -- structure -----------------------------------------------------------

    def exponent_matrix(self) -> np.ndarray:
        """2n x 2n matrix over Z_d whose columns are the row exponent
        vectors (x over z), destabilizers first then stabilizers."""
        n = self.n
        xs, zs = self._split(self.codes)
        m = np.empty((2 * n, 2 * n), dtype=np.int64)
        m[:n, :n] = xs[n:].T
        m[n:, :n] = zs[n:].T
        m[:n, n:] = xs[:n].T
        m[n:, n:] = zs[:n].T
        return m

    def commutation_matrix(self) -> np.ndarray:
        """Pairwise commutation exponents c(row_i, row_j) over Z_d."""
        xs, zs = (a.astype(np.int64) for a in self._split(self.codes))
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
        for x, z, ph in zip(*self._split(self.codes), self.phases):
            xs = " ".join(str(int(v)) for v in x)
            zs = " ".join(str(int(v)) for v in z)
            lines.append(f"{xs} | {zs} | {int(ph)}")
        return "\n".join(lines)


def identity_tableau(n: int, d: int) -> Tableau:
    """Tableau of the identity Clifford: row i = Z_i, row n+i = X_i."""
    d = int(QuditDim(d))
    if n < 1:
        raise ValueError("need at least one site")
    codes = np.zeros((2 * n, n), dtype=code_dtype(d))
    codes[:n] = np.eye(n, dtype=codes.dtype)  # code 1: z = 1
    codes[n:] = d * np.eye(n, dtype=codes.dtype)  # code d: x = 1
    return Tableau._from_codes(d, n, codes,
                               np.zeros(2 * n, dtype=storage_dtype(d)))
