"""Catalog of two-qudit Clifford classes with distinct entangling action.

Phases and Pauli factors never move entanglement, so two-site Cliffords are
enumerated at the symplectic level: 4x4 matrices over Z_d acting on the
exponent layout (x0, x1, z0, z1). Gates that differ only by a local Clifford
applied AFTER the two-site gate produce identical Schmidt spectra on every
input state, so the group is partitioned into cosets L*g of the local
subgroup L acting from the left, and one lexicographically minimal
representative is kept per coset. The coset of the locals themselves is
retained but flagged as non-entangling.

Every element carries a shortest generator word found by breadth-first
search over {H0, H1, S0, S1, SUM01, SUM10}; replaying the word through a
fresh two-site tableau must reproduce the matrix exactly, which doubles as
an integrity check for saved catalog files.
"""

from __future__ import annotations

import numpy as np

from .gates import CliffordGate, gate_unitary, swap_legs
from .pauli import QuditDim
from .tableau import identity_tableau

__all__ = [
    "DisentanglerEntry",
    "DisentanglerCatalog",
    "enumerate_group",
    "local_group",
    "reduce_to_catalog",
    "generate_catalog",
    "save_catalog",
    "load_catalog",
    "symplectic_form",
    "is_symplectic",
    "is_local_matrix",
    "word_symplectic",
    "GENERATOR_TOKENS",
    "LOCAL_TOKENS",
]

GENERATOR_TOKENS = ("H0", "H1", "S0", "S1", "SUM01", "SUM10")
LOCAL_TOKENS = ("H0", "H1", "S0", "S1")

# elements whose BFS would outgrow memory need an explicit opt-in
_ENUM_GUARD = 100_000

_FILE_VERSION = "# qsim-catalog v1"


def token_gate(token: str) -> CliffordGate:
    if token.startswith("SUM"):
        sites = token[3:]
        if sorted(sites) != ["0", "1"]:
            raise ValueError(f"bad word token {token!r}")
        return CliffordGate("SUM", (int(sites[0]), int(sites[1])))
    kind, site = token[:-1], token[-1:]
    if kind not in ("H", "S") or site not in ("0", "1"):
        raise ValueError(f"bad word token {token!r}")
    return CliffordGate(kind, (int(site),))


def gate_token(g: CliffordGate) -> str:
    return g.kind + "".join(str(s) for s in g.sites)


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


def is_local_matrix(m) -> bool:
    """True when the matrix never mixes site-0 and site-1 exponents."""
    m = np.asarray(m)
    site0 = (0, 2)
    site1 = (1, 3)
    return not (
        m[np.ix_(site0, site1)].any() or m[np.ix_(site1, site0)].any()
    )


def word_symplectic(word, d: int) -> np.ndarray:
    """Replay a two-site word through a fresh tableau and read off its
    symplectic action."""
    t = identity_tableau(2, d)
    t.apply_word(word)
    return t.exponent_matrix() % d


def _generator_matrices(d: int) -> dict:
    out = {}
    for token in GENERATOR_TOKENS:
        out[token] = word_symplectic([token_gate(token)], d)
    return out


def _key(m) -> bytes:
    return np.ascontiguousarray(m, dtype=np.uint8).tobytes()


def _bfs(d: int, tokens, expected_order: int) -> dict:
    """Breadth-first closure from the identity under the given generators.

    Returns {matrix key: (matrix, word bytes)} where the word stores indices
    into `tokens` in application order and is shortest-found.
    """
    gens = [_generator_matrices(d)[t] for t in tokens]
    eye = np.eye(4, dtype=np.int64)
    seen = {_key(eye): (eye, b"")}
    frontier = [(eye, b"")]
    while frontier:
        stack = np.stack([m for m, _ in frontier])
        nxt = []
        for gi, g in enumerate(gens):
            prods = np.einsum("ij,njk->nik", g, stack) % d
            for (m, word), pm in zip(frontier, prods):
                k = _key(pm)
                if k not in seen:
                    entry = (pm, word + bytes([gi]))
                    seen[k] = entry
                    nxt.append(entry)
        frontier = nxt
        if len(seen) > expected_order:
            raise RuntimeError("closure exceeded the expected group order")
    return seen


def _word_from_bytes(word: bytes, tokens) -> tuple:
    return tuple(token_gate(tokens[b]) for b in word)


def group_order_formula(d: int) -> int:
    """|Sp(4, d)| = d^4 (d^2 - 1)(d^4 - 1)."""
    d = int(QuditDim(d))
    return d**4 * (d * d - 1) * (d**4 - 1)


def enumerate_group(d: int, allow_large: bool = False) -> dict:
    """All two-site symplectic matrices over Z_d with shortest words.

    Returns {key: (matrix, word)} where word is a tuple of CliffordGate on
    sites {0, 1}. Dimensions whose group outgrows the memory guard require
    allow_large=True.
    """
    d = int(QuditDim(d))
    order = group_order_formula(d)
    if order > _ENUM_GUARD and not allow_large:
        raise ValueError(
            f"group of size {order} exceeds the memory guard; "
            "pass allow_large=True to proceed"
        )
    raw = _bfs(d, GENERATOR_TOKENS, order)
    if len(raw) != order:
        raise RuntimeError(
            f"BFS closure found {len(raw)} elements, expected {order}"
        )
    return {
        k: (m, _word_from_bytes(w, GENERATOR_TOKENS))
        for k, (m, w) in raw.items()
    }


def local_group(d: int) -> dict:
    """The subgroup generated by single-site gates only."""
    d = int(QuditDim(d))
    per_site = d * (d * d - 1)
    raw = _bfs(d, LOCAL_TOKENS, per_site * per_site)
    if len(raw) != per_site * per_site:
        raise RuntimeError("local closure has unexpected size")
    return {
        k: (m, _word_from_bytes(w, LOCAL_TOKENS))
        for k, (m, w) in raw.items()
    }


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

    def entangling_stack(self):
        """Catalog indices of the entangling entries, ascending, and their
        unitaries stacked in that order as an (m, d^2, d^2) array; built on
        first use, cached and read-only."""
        if self._entangling is None:
            us = self.unitaries()
            idx = np.array(
                [k for k, e in enumerate(self.entries) if e.entangling],
                dtype=np.intp,
            )
            dd = int(self.d) ** 2
            stack = np.array([us[k] for k in idx], dtype=np.complex128)
            stack = stack.reshape(len(idx), dd, dd)
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
        m = gate_unitary(g, d)
        if len(g.sites) == 1:
            m = np.kron(m, eye) if g.sites[0] == 0 else np.kron(eye, m)
        elif g.sites == (1, 0):
            m = swap_legs(m, d)
        u = m @ u
    return u


def reduce_to_catalog(group: dict, d: int) -> DisentanglerCatalog:
    """Partition an enumerated group into left-local cosets L*g.

    A local applied after the gate leaves every Schmidt spectrum unchanged,
    so each coset is one entanglement class. Entries are sorted by their
    representative matrices; the coset equal to L itself is flagged
    non-entangling.
    """
    d = int(QuditDim(d))
    locals_ = local_group(d)
    l_stack = np.stack([m for m, _ in locals_.values()])
    identity_key = _key(np.eye(4, dtype=np.int64))
    seen = set()
    entries = []
    for k in sorted(group):
        if k in seen:
            continue
        g = group[k][0]
        coset = np.einsum("nij,jk->nik", l_stack, g) % d
        keys = {_key(m) for m in coset}
        if len(keys) != len(l_stack):
            raise RuntimeError("coset size differs from the local order")
        seen |= keys
        rep_key = min(keys)
        rep, word = group[rep_key]
        entries.append(
            DisentanglerEntry(rep, word, len(keys), identity_key not in keys)
        )
    if sum(e.class_size for e in entries) != len(group):
        raise RuntimeError("cosets do not partition the group")
    entries.sort(key=lambda e: tuple(e.representative.reshape(-1)))
    return DisentanglerCatalog(d, len(group), entries)


def generate_catalog(d: int, allow_large: bool = False) -> DisentanglerCatalog:
    return reduce_to_catalog(enumerate_group(d, allow_large=allow_large), d)


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

    Every matrix must be symplectic, its word must replay to it through a
    fresh tableau, and class sizes must sum to the group order; any failure
    raises ValueError.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0] != _FILE_VERSION:
        raise ValueError("unsupported catalog file version")
    head = lines[1].split() if len(lines) > 1 else []
    if len(head) != 3:
        raise ValueError("malformed catalog header")
    try:
        d, group_order, n_entries = (int(v) for v in head)
        d = QuditDim(d)
    except ValueError as exc:
        raise ValueError(f"malformed catalog header: {exc}") from None
    body = lines[2:]
    if len(body) != n_entries:
        raise ValueError(
            f"header promises {n_entries} entries, file has {len(body)}"
        )
    entries = []
    for ln, line in enumerate(body, start=3):
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
        word = tuple(token_gate(t) for t in fields[17:])
        if not np.array_equal(word_symplectic(word, d), m):
            raise ValueError(f"line {ln}: word does not replay to the matrix")
        entries.append(
            DisentanglerEntry(m, word, class_size, not is_local_matrix(m))
        )
    if sum(e.class_size for e in entries) != group_order:
        raise ValueError("class sizes do not sum to the group order")
    return DisentanglerCatalog(d, group_order, entries)
