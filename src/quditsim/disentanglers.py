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
run over int64 codes: a code is its matrix's four row codes in base d^4,
and a generator rewrites one or two rows as a fixed combination of at most
two rows, so each product is one or two lookups in a table of row codes.
Each element keeps only its code, a parent pointer and the generator that
reached it. A coset is found by its key, the Plucker coordinates of the
span of its site-0 rows, and only the coset representatives get a word, a
shortest one rebuilt from the parent pointers; replaying it through a fresh
two-site tableau must reproduce the matrix exactly, which doubles as an
integrity check for saved catalog files.
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

# codes handled at a time, frontier codes in the closure and group codes in
# the coset keys: a closure chunk's int64 row codes and products take 10 * 8
# bytes per code, so this bounds a level's working set
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


def _row_digits(d: int) -> np.ndarray:
    """The 4 base-d digits of every row code in [0, d^4), as a (d^4, 4)
    array: row u of a matrix has code u @ d^(3, 2, 1, 0)."""
    return np.arange(d**4)[:, None] // d ** np.arange(3, -1, -1) % d


def _row_moves(gens, d: int) -> list:
    """Per generator g, the rows that g @ m rewrites, as (r, srcs, table):
    row r of the product is sum_i g[r, srcs[i]] m[srcs[i]] mod d, and its
    code is table[sum_i rc[srcs[i]] d^(4 (len(srcs) - 1 - i))] for the row
    codes rc of m. Rows with g[r] = e_r are left out; one table per
    coefficient tuple, d^4 entries per row combined."""
    digits, tables, moves = _row_digits(d), {}, []
    for g in gens:
        moves.append([])
        for r in np.flatnonzero((g != np.eye(4, dtype=g.dtype)).any(axis=1)):
            srcs = np.flatnonzero(g[r])
            coefs = tuple(g[r, srcs].tolist())
            if coefs not in tables:
                rows = np.zeros((1, 4), dtype=np.int64)
                for c in coefs:
                    rows = (rows[:, None] + c * digits).reshape(-1, 4) % d
                tables[coefs] = (rows @ d ** np.arange(3, -1, -1)).astype(
                    np.min_scalar_type(d**4 - 1)
                )
            moves[-1].append((int(r), srcs.tolist(), tables[coefs]))
    return moves


_PLUCKER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _span_key(u, v, d: int):
    """The coset key of a symplectic matrix with site-0 rows u = m[0] and
    v = m[2] (last axis 4): the six Plucker coordinates u_i v_j - u_j v_i
    mod d of the pair, read as base-d digits.

    A local l recombines the site-0 rows (0, 2) among themselves by an
    element of Sp(2, d) = SL(2, d), which has determinant 1 and so keeps
    every coordinate, and the site-1 rows (1, 3) likewise. Conversely the
    coordinates fix the span W of u and v, and since u^T J v = -1 they fix
    the scale too, so two such pairs with one key differ by an SL(2, d)
    recombination; the site-1 rows of a symplectic matrix span the
    symplectic complement of W with the same pairing, so the key is
    constant exactly on each left-local coset L*m."""
    key = 0
    for i, j in _PLUCKER:
        key = key * d + (u[..., i] * v[..., j] - u[..., j] * v[..., i]) % d
    return key


def _class_keys(codes, d: int) -> np.ndarray:
    """_span_key of every code, _CHUNK codes at a time, read from one
    table over the (row 0, row 2) code pairs."""
    digits, q = _row_digits(d), d**4
    table = _span_key(digits[:, None], digits[None], d).reshape(-1)
    table = table.astype(np.min_scalar_type(d**6 - 1))
    keys = np.empty(len(codes), dtype=table.dtype)
    for lo in range(0, len(codes), _CHUNK):
        c = codes[lo:lo + _CHUNK]
        keys[lo:lo + _CHUNK] = table[c // q**3 * q + c // q % q]
    return keys


class GroupClosure:
    """Every two-site symplectic matrix over Z_d in breadth-first order,
    held as one int64 code per element.

    Element 0 is the identity; element i is `generator[i]` (an index into
    GENERATOR_TOKENS) applied after element `parent[i]`, so `word(i)`
    rebuilds a shortest generator word from the parent pointers, out of
    one GateOp per generator, built and checked once per closure.
    """

    def __init__(self, d, codes, parent, generator):
        self.d = int(d)
        self.codes = codes
        self.parent = parent
        self.generator = generator
        self._ops = tuple(token_gate(t) for t in GENERATOR_TOKENS)

    def matrices(self) -> np.ndarray:
        """Every element's matrix, decoded from its code on each call."""
        return _decode(self.codes, self.d)

    def word(self, i: int) -> tuple:
        ops = []
        while self.parent[i] >= 0:
            ops.append(self._ops[self.generator[i]])
            i = self.parent[i]
        return tuple(reversed(ops))


def group_closure(d: int, allow_large: bool = False) -> GroupClosure:
    """Breadth-first closure of {H0, H1, S0, S1, SUM01, SUM10} from the
    identity over int64 codes.

    Each level splits its frontier, _CHUNK codes at a time, into four row
    codes and forms every generator's product by rewriting the one or two
    rows that generator changes through its _row_moves tables. The
    candidates are ordered generator-major, then by frontier position, and
    the first occurrence of each new code is kept. One generator maps
    distinct matrices to distinct ones, so a tie is always decided by the
    lower generator index and the frontier may stay in code order.
    Dimensions whose group outgrows the memory guard require
    allow_large=True.
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
    moves = _row_moves(
        [word_symplectic([token_gate(t)], d) for t in GENERATOR_TOKENS], d
    )
    q = d**4  # row r of a code weighs q^(3 - r)
    weights = [q**3, q**2, q, 1]
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
            chunk = frontier[lo:lo + _CHUNK]
            rows = [chunk // w % q for w in weights]
            c = np.empty((len(moves), len(chunk)), dtype=np.int64)
            for out, changed in zip(c, moves):
                out[:] = chunk
                for r, srcs, table in changed:
                    at = rows[srcs[0]]
                    for src in srcs[1:]:
                        at = at * q + rows[src]
                    out += (table[at] - rows[r]) * weights[r]
            k = n * np.arange(len(moves))[:, None] + np.arange(lo, lo + len(chunk))
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
        # two sorted runs: the stable sort (timsort) finds both and merges
        # them in one pass, faster than np.insert or a scatter of both
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
                for a in (frame.codes, frame.phases):
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
    so each coset is one entanglement class, and _span_key names it. One
    sort by (key, code) puts each coset's minimal member, its
    representative, first in its run of keys. Cosets are taken in ascending
    order of their representatives; the coset equal to L itself is flagged
    non-entangling.
    """
    closure = group_closure(d, allow_large=allow_large)
    d, codes = closure.d, closure.codes
    keys = _class_keys(codes, d)
    by_class = np.lexsort((codes, keys))
    keys = keys[by_class]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    size = _local_order(d)
    if (np.diff(starts, append=len(codes)) != size).any():
        raise RuntimeError("coset size differs from the local order")
    reps = by_class[starts]
    reps = reps[np.argsort(codes[reps])]
    entries = [
        DisentanglerEntry(m, closure.word(rep), size, not is_local_matrix(m))
        for rep, m in zip(reps, _decode(codes[reps], d))
    ]
    if len(entries) * size != len(codes):
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
    # every matrix is symplectic by now, so the key names its coset
    reps = np.stack([e.representative for e in entries])
    if len(np.unique(_span_key(reps[:, 0], reps[:, 2], d))) != len(reps):
        raise ValueError("two entries lie in the same left-local coset")
    return DisentanglerCatalog(d, group_order, entries)
