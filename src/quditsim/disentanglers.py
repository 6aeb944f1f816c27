"""Catalog of two-qudit Clifford classes with distinct entangling action.

Phases and Pauli factors never move entanglement, so two-site Cliffords are
enumerated at the symplectic level: 4x4 matrices over Z_d acting on the
exponent layout (x0, x1, z0, z1). Gates that differ only by a local Clifford
applied AFTER the two-site gate produce identical Schmidt spectra on every
input state, so the group is partitioned into cosets L*g of the local
subgroup L acting from the left, and one lexicographically minimal
representative is kept per coset. The coset of the locals themselves is
retained but flagged as non-entangling.

The group is one breadth-first closure over {H0, H1, S0, S1, SUM01, SUM10},
run over int64 codes: each matrix is one code, each level is decoded,
multiplied by the generators and re-encoded in bounded chunks, and each
element keeps only its code, a parent pointer and the generator that
reached it. The local subgroup is the closure's local elements. Only the
coset representatives get a word, a shortest one rebuilt from the parent
pointers; replaying it through a fresh two-site tableau must reproduce the
matrix exactly, which doubles as an integrity check for saved catalog
files.
"""

from __future__ import annotations

import numpy as np

from .gates import GateOp, gate_matrix, invert_word, swap_legs
from .pauli import QuditDim, checked_unitary
from .tableau import identity_tableau

__all__ = [
    "DisentanglerEntry",
    "DisentanglerCatalog",
    "GroupClosure",
    "group_closure",
    "generate_catalog",
    "save_catalog",
    "load_catalog",
    "symplectic_form",
    "is_symplectic",
    "is_local_matrix",
    "word_symplectic",
    "GENERATOR_TOKENS",
]

GENERATOR_TOKENS = ("H0", "H1", "S0", "S1", "SUM01", "SUM10")

# elements whose BFS would outgrow memory need an explicit opt-in: the
# closure keeps 13 bytes per element (int64 code, int32 parent, int8
# generator), 122 MB at d=5, and a level's candidate buffers add more on top
# (a d=5 build traced a 455 MB peak)
_ENUM_GUARD = 100_000

# frontier codes decoded and multiplied at a time: each chunk's int64
# products take 6 * 128 bytes per code, so this bounds a level's working set
_CHUNK = 1024

_FILE_VERSION = "# qsim-catalog v1"


def token_gate(token: str) -> GateOp:
    if token.startswith("SUM"):
        sites = token[3:]
        if sorted(sites) != ["0", "1"]:
            raise ValueError(f"bad word token {token!r}")
        return GateOp("SUM", (int(sites[0]), int(sites[1])))
    name, site = token[:-1], token[-1:]
    if name not in ("H", "S") or site not in ("0", "1"):
        raise ValueError(f"bad word token {token!r}")
    return GateOp(name, (int(site),))


def gate_token(g: GateOp) -> str:
    return g.name + "".join(str(s) for s in g.sites)


def symplectic_form(d: int) -> np.ndarray:
    d = int(QuditDim(d))
    j = np.zeros((4, 4), dtype=np.int64)
    j[0, 2] = j[1, 3] = d - 1
    j[2, 0] = j[3, 1] = 1
    return j


def is_symplectic(m, d: int) -> bool:
    m = np.asarray(m, dtype=np.int64)
    if m.shape != (4, 4):
        return False
    j = symplectic_form(d)
    return bool(np.array_equal((m.T @ j @ m) % d, j))


# entries that couple a site-0 exponent (index 0 or 2) to a site-1 one
_CROSS = np.add.outer(np.arange(4), np.arange(4)) % 2 == 1


def is_local_matrix(m):
    """True where a matrix, or each matrix of a stack, never mixes site-0
    and site-1 exponents."""
    return ~np.asarray(m)[..., _CROSS].any(axis=-1)


def word_symplectic(word, d: int) -> np.ndarray:
    """Replay a two-site word through a fresh tableau and read off its
    symplectic action."""
    t = identity_tableau(2, d)
    t.apply_word(word)
    return t.exponent_matrix() % d


def group_order_formula(d: int) -> int:
    """|Sp(4, d)| = d^4 (d^2 - 1)(d^4 - 1)."""
    d = int(QuditDim(d))
    return d**4 * (d * d - 1) * (d**4 - 1)


def _local_order(d: int) -> int:
    """|Sp(2, d) x Sp(2, d)| = (d (d^2 - 1))^2."""
    return (d * (d * d - 1)) ** 2


def _weights(d: int) -> np.ndarray:
    return d ** np.arange(15, -1, -1, dtype=np.int64)


def _codes(mats, d: int) -> np.ndarray:
    """One int64 per 4x4 matrix over Z_d: its entries as base-d digits,
    row-major, so integer order is the lexicographic order of the entries."""
    return np.asarray(mats, dtype=np.int64).reshape(-1, 16) @ _weights(d)


def _decode(codes, d: int) -> np.ndarray:
    """The 4x4 matrices of a sequence of codes; inverts _codes."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, 1)
    return (codes // _weights(d) % d).reshape(-1, 4, 4)


class GroupClosure:
    """Every two-site symplectic matrix over Z_d in breadth-first order,
    held as one int64 code per element.

    Element 0 is the identity; element i is `generator[i]` (an index into
    GENERATOR_TOKENS) applied after element `parent[i]`, so `word(i)`
    rebuilds a shortest generator word from the parent pointers.
    """

    def __init__(self, d, codes, parent, generator):
        self.d = int(d)
        self.codes = codes
        self.parent = parent
        self.generator = generator

    def matrices(self) -> np.ndarray:
        """Every element's matrix, decoded from its code on each call."""
        return _decode(self.codes, self.d)

    def word(self, i: int) -> tuple:
        tokens = []
        while self.parent[i] >= 0:
            tokens.append(GENERATOR_TOKENS[self.generator[i]])
            i = self.parent[i]
        return tuple(token_gate(t) for t in reversed(tokens))


def group_closure(d: int, allow_large: bool = False) -> GroupClosure:
    """Breadth-first closure of {H0, H1, S0, S1, SUM01, SUM10} from the
    identity over int64 codes.

    Each level decodes its frontier _CHUNK codes at a time, multiplies by
    every generator and re-encodes the products. The candidates are ordered
    generator-major, then by frontier position, and the first occurrence of
    each new code is kept. One generator maps distinct matrices to distinct
    ones, so a tie is always decided by the lower generator index and the
    frontier may stay in code order. Dimensions whose group outgrows the
    memory guard require allow_large=True.
    """
    d = int(QuditDim(d))
    order = group_order_formula(d)
    if order > _ENUM_GUARD and not allow_large:
        raise ValueError(
            f"group of size {order} exceeds the memory guard; "
            "pass allow_large=True to proceed"
        )
    if d**16 > np.iinfo(np.int64).max:
        raise ValueError(f"d={d} matrices do not fit one int64 code")
    gens = np.stack([word_symplectic([token_gate(t)], d) for t in GENERATOR_TOKENS])
    codes = np.empty(order, dtype=np.int64)
    parent = np.empty(order, dtype=np.min_scalar_type(-order))
    generator = np.empty(order, dtype=np.int8)
    codes[0] = _codes(np.eye(4, dtype=np.int64), d)[0]
    parent[0] = generator[0] = -1
    seen = codes[:1]  # sorted
    start, end = 0, 1  # the frontier is codes[start:end]
    while start < end:
        frontier, n = codes[start:end], end - start
        # candidate k is generator k // n applied to frontier element k % n;
        # only candidates outside `seen` are kept
        cands, ks = [], []
        for lo in range(0, n, _CHUNK):
            mats = _decode(frontier[lo:lo + _CHUNK], d)
            prods = gens[:, None] @ mats
            prods %= d
            c = _codes(prods, d).reshape(len(gens), -1)
            k = n * np.arange(len(gens))[:, None] + np.arange(lo, lo + len(mats))
            new = seen.take(np.searchsorted(seen, c), mode="clip") != c
            cands.append(c[new])
            ks.append(k[new])
        cands, ks = np.concatenate(cands), np.concatenate(ks)
        # each new code once, with its least k, in code order
        by_code = np.lexsort((ks, cands))
        cands, ks = cands[by_code], ks[by_code]
        first = np.ones(len(cands), dtype=bool)
        first[1:] = cands[1:] != cands[:-1]
        fresh, ks = cands[first], ks[first]
        nxt = end + len(fresh)
        if nxt > order:
            raise RuntimeError("closure exceeded the expected group order")
        codes[end:nxt] = fresh
        parent[end:nxt] = start + ks % n
        generator[end:nxt] = ks // n
        seen = np.sort(np.concatenate([seen, fresh]), kind="stable")
        start, end = end, nxt
    if end != order:
        raise RuntimeError(
            f"BFS closure found {end} elements, expected {order}"
        )
    return GroupClosure(d, codes, parent, generator)


class DisentanglerEntry:
    """One left-local coset: its lexicographic-minimum matrix, a shortest
    synthesis word for that matrix, the coset size, and whether the coset
    can change entanglement at all."""

    __slots__ = ("representative", "word", "class_size", "entangling")

    def __init__(self, representative, word, class_size, entangling):
        rep = np.array(representative, dtype=np.int64)
        rep.setflags(write=False)
        self.representative = rep
        self.word = tuple(word)
        self.class_size = int(class_size)
        self.entangling = bool(entangling)

    def __eq__(self, other):
        if not isinstance(other, DisentanglerEntry):
            return NotImplemented
        return (
            np.array_equal(self.representative, other.representative)
            and self.word == other.word
            and self.class_size == other.class_size
            and self.entangling == other.entangling
        )

    def __repr__(self):
        tag = "entangling" if self.entangling else "local"
        return (
            f"DisentanglerEntry({tag}, class_size={self.class_size}, "
            f"word={' '.join(gate_token(g) for g in self.word) or '<empty>'})"
        )


class DisentanglerCatalog:
    """Immutable list of coset entries for one qudit dimension."""

    def __init__(self, d, group_order, entries):
        self.d = QuditDim(d)
        self.group_order = int(group_order)
        self.entries = tuple(entries)
        self._unitaries = None
        self._entangling = None
        self._absorptions = None

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, DisentanglerCatalog):
            return NotImplemented
        return (
            self.d == other.d
            and self.group_order == other.group_order
            and self.entries == other.entries
        )

    def unitaries(self):
        """Dense d^2 x d^2 unitaries of every entry word, cached."""
        if self._unitaries is None:
            self._unitaries = tuple(
                two_site_word_unitary(e.word, self.d) for e in self.entries
            )
        return self._unitaries

    def absorptions(self):
        """Per entry, the inverse of its word over sites (0, 1), in
        application order, and that inverse's read-only two-site tableau,
        which Tableau.right_multiply composes into a frame; built on first
        use and cached."""
        if self._absorptions is None:
            out = []
            for e in self.entries:
                word = tuple(invert_word(e.word, self.d))
                frame = identity_tableau(2, self.d).apply_word(word)
                for a in (frame.xs, frame.zs, frame.phases):
                    a.setflags(write=False)
                out.append((word, frame))
            self._absorptions = tuple(out)
        return self._absorptions

    def entangling_stack(self):
        """Catalog indices of the entangling entries, ascending, and their
        unitaries stacked in that order as an (m, d^2, d^2) array; built on
        first use, cached and read-only.

        The engine absorbs a scored candidate without looking at its
        unitary again, so the build admits the whole stack through
        checked_unitary in one call: it raises ValueError when any stacked
        matrix has a non-finite entry or is not unitary.
        """
        if self._entangling is None:
            us = self.unitaries()
            idx = np.array(
                [k for k, e in enumerate(self.entries) if e.entangling],
                dtype=np.intp,
            )
            dd = int(self.d) ** 2
            stack = np.array([us[k] for k in idx], dtype=np.complex128)
            stack = checked_unitary(stack.reshape(len(idx), dd, dd), self.d, 2)
            idx.setflags(write=False)
            stack.setflags(write=False)
            self._entangling = (idx, stack)
        return self._entangling


def two_site_word_unitary(word, d: int) -> np.ndarray:
    """Dense unitary of a word over sites {0, 1}, site 0 on the first leg."""
    d = int(QuditDim(d))
    u = np.eye(d * d, dtype=np.complex128)
    eye = np.eye(d, dtype=np.complex128)
    for g in word:
        m = gate_matrix(g, d)
        if len(g.sites) == 1:
            m = np.kron(m, eye) if g.sites[0] == 0 else np.kron(eye, m)
        elif g.sites == (1, 0):
            m = swap_legs(m, d)
        u = m @ u
    return u


def generate_catalog(d: int, allow_large: bool = False) -> DisentanglerCatalog:
    """Partition the two-site group into left-local cosets L*g.

    A local applied after the gate leaves every Schmidt spectrum unchanged,
    so each coset is one entanglement class. Cosets are taken in ascending
    order of their minimal members, which are their representatives; the
    coset equal to L itself is flagged non-entangling.
    """
    closure = group_closure(d, allow_large=allow_large)
    d, codes = closure.d, closure.codes
    locals_ = []
    for lo in range(0, len(codes), _CHUNK):
        mats = _decode(codes[lo:lo + _CHUNK], d)
        locals_.append(mats[is_local_matrix(mats)])
    locals_ = np.concatenate(locals_)
    if len(locals_) != _local_order(d):
        raise RuntimeError("local subgroup has unexpected size")
    by_code = np.argsort(codes)
    sorted_codes = codes[by_code]
    covered = np.zeros(len(codes), dtype=bool)
    entries = []
    for pos in range(len(codes)):
        if covered[pos]:
            continue
        # every element below pos is covered, so pos is its coset's minimum
        m = _decode(sorted_codes[pos], d)[0]
        hit = np.sort(np.searchsorted(sorted_codes, _codes(locals_ @ m % d, d)))
        if not np.diff(hit).all() or covered[hit].any():
            raise RuntimeError("coset size differs from the local order")
        covered[hit] = True
        rep = by_code[pos]
        entries.append(DisentanglerEntry(
            m, closure.word(rep), len(locals_), not is_local_matrix(m),
        ))
    if len(entries) * len(locals_) != len(codes):
        raise RuntimeError("cosets do not partition the group")
    return DisentanglerCatalog(d, len(codes), entries)


def save_catalog(catalog: DisentanglerCatalog, path) -> None:
    lines = [
        _FILE_VERSION,
        f"{catalog.d} {catalog.group_order} {catalog.n_entries}",
    ]
    for e in catalog.entries:
        digits = " ".join(str(int(v)) for v in e.representative.reshape(-1))
        tokens = " ".join(gate_token(g) for g in e.word)
        line = f"{digits} {e.class_size}"
        if tokens:
            line += f" {tokens}"
        lines.append(line)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_catalog(path) -> DisentanglerCatalog:
    """Parse and revalidate a catalog file.

    The header must give the group order of its dimension, every matrix
    must be symplectic, its word must replay to it through a fresh tableau,
    every class size must be the local order and sum to the group order,
    and no two entries may share a left-local coset; any failure raises
    ValueError.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [(ln, text.strip())
                 for ln, text in enumerate(fh.read().splitlines(), start=1)
                 if text.strip()]
    if not lines or lines[0][1] != _FILE_VERSION:
        raise ValueError("unsupported catalog file version")
    head = lines[1][1].split() if len(lines) > 1 else []
    if len(head) != 3:
        raise ValueError("malformed catalog header")
    try:
        d, group_order, n_entries = (int(v) for v in head)
        d = QuditDim(d)
    except ValueError as exc:
        raise ValueError(f"malformed catalog header: {exc}") from None
    if group_order != group_order_formula(d):
        raise ValueError(
            f"header group order {group_order} is not the d={d} order "
            f"{group_order_formula(d)}"
        )
    body = lines[2:]
    if len(body) != n_entries:
        raise ValueError(
            f"header promises {n_entries} entries, file has {len(body)}"
        )
    entries = []
    for ln, line in body:
        fields = line.split()
        if len(fields) < 17:
            raise ValueError(f"line {ln}: entry needs 16 digits and a size")
        try:
            digits = [int(v) for v in fields[:16]]
            class_size = int(fields[16])
        except ValueError:
            raise ValueError(f"line {ln}: non-integer field") from None
        if any(not 0 <= v < d for v in digits):
            raise ValueError(f"line {ln}: matrix digit out of Z_{d}")
        m = np.array(digits, dtype=np.int64).reshape(4, 4)
        if not is_symplectic(m, d):
            raise ValueError(f"line {ln}: matrix is not symplectic")
        try:
            word = tuple(token_gate(t) for t in fields[17:])
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
        if not np.array_equal(word_symplectic(word, d), m):
            raise ValueError(f"line {ln}: word does not replay to the matrix")
        entries.append(
            DisentanglerEntry(m, word, class_size, not is_local_matrix(m))
        )
    if sum(e.class_size for e in entries) != group_order:
        raise ValueError("class sizes do not sum to the group order")
    if any(e.class_size != _local_order(d) for e in entries):
        raise ValueError("a class size differs from the local order")
    # m_i and m_j share a coset L*g exactly when m_i m_j^-1 is local, and a
    # symplectic m has m^-1 = J^-1 m^T J with J^-1 = -J
    j = symplectic_form(d)
    reps = np.stack([e.representative for e in entries])
    inverses = -j @ reps.transpose(0, 2, 1) @ j
    shared = is_local_matrix(reps[:, None] @ inverses[None] % d)
    np.fill_diagonal(shared, False)
    if shared.any():
        raise ValueError("two entries lie in the same left-local coset")
    return DisentanglerCatalog(d, group_order, entries)
