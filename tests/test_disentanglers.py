"""Tests for the two-qudit entanglement-class catalog."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quditsim import disentanglers
from quditsim.disentanglers import (
    DisentanglerCatalog,
    DisentanglerEntry,
    gate_token,
    generate_catalog,
    group_closure,
    group_order_formula,
    is_local_matrix,
    is_symplectic,
    load_catalog,
    save_catalog,
    symplectic_form,
    token_gate,
    two_site_word_unitary,
    word_symplectic,
    GENERATOR_TOKENS,
)
from quditsim.gates import GateOp, gate_matrix, invert_word
from quditsim.tableau import identity_tableau

from helpers import closure_by_matmul, sum_permutation

DATA = Path(__file__).with_name("data")


@pytest.fixture(scope="module")
def group2():
    return group_closure(2)


@pytest.fixture(scope="module")
def group3():
    return group_closure(3)


@pytest.fixture(scope="module")
def catalog2():
    return generate_catalog(2)


@pytest.fixture(scope="module")
def catalog3():
    return generate_catalog(3)


def local_elements(closure):
    """Matrices and words of the closure's local elements."""
    mats = closure.matrices()
    idx = np.flatnonzero(is_local_matrix(mats))
    return mats[idx], [closure.word(i) for i in idx]


def element_index(closure, m):
    hit = np.flatnonzero((closure.matrices() == m).all(axis=(1, 2)))
    assert len(hit) == 1
    return int(hit[0])


def dense_schmidt(v, d):
    return np.linalg.svd(np.asarray(v).reshape(d, d), compute_uv=False)


# ----------------------------------------------------------------------
# tokens and generator matrices


def test_token_roundtrip():
    for token in GENERATOR_TOKENS:
        assert gate_token(token_gate(token)) == token
    assert token_gate("SUM10") == GateOp("SUM", (1, 0))
    for bad in ("H2", "SUM00", "SUM12", "T0", "Q1", "S"):
        with pytest.raises(ValueError):
            token_gate(bad)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_generator_matrices_hand_derived(d):
    # single-site blocks act on (x_i, z_i); H: X->Z, Z->-X; S: X->XZ, Z->Z
    h = np.array([[0, d - 1], [1, 0]])
    s = np.array([[1, 0], [1, 1]])
    for site in (0, 1):
        for name, block in (("H", h), ("S", s)):
            m = np.eye(4, dtype=np.int64)
            idx = (site, site + 2)
            m[np.ix_(idx, idx)] = block % d
            got = word_symplectic([GateOp(name, (site,))], d)
            np.testing.assert_array_equal(got, m)
    sum01 = np.eye(4, dtype=np.int64)
    sum01[1, 0] = 1
    sum01[2, 3] = d - 1
    np.testing.assert_array_equal(
        word_symplectic([GateOp("SUM", (0, 1))], d), sum01
    )
    sum10 = np.eye(4, dtype=np.int64)
    sum10[0, 1] = 1
    sum10[3, 2] = d - 1
    np.testing.assert_array_equal(
        word_symplectic([GateOp("SUM", (1, 0))], d), sum10
    )


@pytest.mark.parametrize("d", [2, 3, 5])
def test_generators_preserve_symplectic_form(d):
    for token in GENERATOR_TOKENS:
        assert is_symplectic(word_symplectic([token_gate(token)], d), d)


def test_symplectic_form_pairing():
    j = symplectic_form(3)
    # c(Z0, X0) = +1 with vectors (x0, x1, z0, z1)
    z0 = np.array([0, 0, 1, 0])
    x0 = np.array([1, 0, 0, 0])
    assert (z0 @ j @ x0) % 3 == 1
    assert (x0 @ j @ z0) % 3 == 3 - 1


def test_is_symplectic_rejects_junk():
    assert not is_symplectic(np.zeros((4, 4), dtype=int), 2)
    assert not is_symplectic(np.eye(3, dtype=int), 2)
    assert is_symplectic(np.eye(4, dtype=int), 5)


# ----------------------------------------------------------------------
# group enumeration


def test_group_order_formula_values():
    assert group_order_formula(2) == 720
    assert group_order_formula(3) == 51840
    assert group_order_formula(5) == 9360000


def test_enumerate_group_d2_order(group2):
    assert len(group2.matrices()) == 720
    assert len(np.unique(group2.codes)) == 720


def test_enumerate_group_d3_order(group3):
    assert len(group3.matrices()) == 51840
    assert len(np.unique(group3.codes)) == 51840


@pytest.fixture(scope="module")
def matmul_closures():
    return {d: closure_by_matmul(d) for d in (2, 3)}


def assert_closure_equals(got, want):
    for name, b in zip(("codes", "parent", "generator"), want):
        a = getattr(got, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("d", [2, 3])
def test_closure_equals_the_matmul_reference(d, matmul_closures, request):
    # the row-code tables form the products the 4x4 matmuls formed, so the
    # BFS keeps the same elements in the same order with the same pointers
    assert_closure_equals(request.getfixturevalue(f"group{d}"),
                          matmul_closures[d])


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("d", [2, 3])
def test_closure_and_catalog_do_not_depend_on_chunk_size(
    d, chunk, matmul_closures, monkeypatch, request
):
    monkeypatch.setattr(disentanglers, "_CHUNK", chunk)
    assert_closure_equals(group_closure(d), matmul_closures[d])
    assert generate_catalog(d) == request.getfixturevalue(f"catalog{d}")


def test_catalog_build_traced_peak_stays_small():
    # the closure keeps one int64 code per element and works in _CHUNK
    # slices, and so do the coset keys: a build traces 2.9 MB. A build that
    # held every level as int64 4x4 stacks peaked near 45 MB, one that
    # searched each coset through the 576 locals 3.9 MB, and keys taken
    # 65,536 codes at a time broke a 12 MB bound
    generate_catalog(3)  # fills lazy caches outside the build
    tracemalloc.start()
    try:
        generate_catalog(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_memory_guard_requires_opt_in():
    with pytest.raises(ValueError, match="memory guard"):
        generate_catalog(5)


def test_identity_has_empty_word(group2):
    i = element_index(group2, np.eye(4, dtype=np.int64))
    assert i == 0
    assert group2.word(i) == ()


def test_every_d2_element_symplectic_and_replayable(group2):
    for i, m in enumerate(group2.matrices()):
        assert is_symplectic(m, 2)
        np.testing.assert_array_equal(word_symplectic(group2.word(i), 2), m)


def test_sampled_d3_elements_symplectic_and_replayable(group3):
    rng = np.random.default_rng(11)
    mats = group3.matrices()
    for i in rng.choice(len(mats), size=200, replace=False):
        m = mats[int(i)]
        assert is_symplectic(m, 3)
        np.testing.assert_array_equal(
            word_symplectic(group3.word(int(i)), 3), m
        )


@pytest.mark.parametrize("d", [2, 3])
def test_generators_have_length_one_words(d, group2, group3):
    group = group2 if d == 2 else group3
    for token in GENERATOR_TOKENS:
        m = word_symplectic([token_gate(token)], d)
        assert len(group.word(element_index(group, m))) == 1


@pytest.mark.parametrize("d,size", [(2, 36), (3, 576)])
def test_local_group_order(d, size, request):
    mats, _ = local_elements(request.getfixturevalue(f"group{d}"))
    assert len(mats) == size
    for m in mats:
        assert is_local_matrix(m)
        assert is_symplectic(m, d)


@pytest.mark.parametrize("d", [2, 3])
def test_is_local_matrix_on_a_stack(d, request):
    mats = request.getfixturevalue(f"group{d}").matrices()
    assert is_local_matrix(mats).tolist() == [is_local_matrix(m) for m in mats]


def test_class_key_is_constant_on_cosets_and_tells_them_apart_d2(group2):
    keys = disentanglers._class_keys(group2.codes, 2)
    assert len(np.unique(keys)) == 20
    loc, _ = local_elements(group2)
    images = loc[:, None] @ group2.matrices()[None] % 2
    got = disentanglers._class_keys(disentanglers._codes(images, 2), 2)
    assert (got.reshape(36, 720) == keys).all()


def test_class_key_takes_ninety_values_and_ignores_locals_d3(group3):
    mats = group3.matrices()
    keys = disentanglers._class_keys(group3.codes, 3)
    np.testing.assert_array_equal(
        keys, disentanglers._span_key(mats[:, 0], mats[:, 2], 3)
    )
    assert len(np.unique(keys)) == 90
    idx = np.random.default_rng(13).choice(len(mats), size=50, replace=False)
    loc, _ = local_elements(group3)
    images = loc[:, None] @ mats[idx][None] % 3
    got = disentanglers._class_keys(disentanglers._codes(images, 3), 3)
    assert (got.reshape(576, 50) == keys[idx]).all()


# ----------------------------------------------------------------------
# catalog reduction


def test_catalog_d2_has_twenty_classes(catalog2):
    assert catalog2.n_entries == 20
    assert catalog2.group_order == 720


def test_catalog_d3_has_ninety_classes(catalog3):
    assert catalog3.n_entries == 90
    assert catalog3.group_order == 51840


@pytest.mark.parametrize("cat_name,loc_size", [("catalog2", 36), ("catalog3", 576)])
def test_class_sizes_sum_to_group_order(cat_name, loc_size, request):
    cat = request.getfixturevalue(cat_name)
    assert all(e.class_size == loc_size for e in cat.entries)
    assert sum(e.class_size for e in cat.entries) == cat.group_order
    assert cat.n_entries * loc_size == cat.group_order


@pytest.mark.parametrize("cat_name", ["catalog2", "catalog3"])
def test_exactly_one_non_entangling_class(cat_name, request):
    cat = request.getfixturevalue(cat_name)
    flags = [e.entangling for e in cat.entries]
    assert flags.count(False) == 1
    local_entry = cat.entries[flags.index(False)]
    assert is_local_matrix(local_entry.representative)
    for e in cat.entries:
        if e.entangling:
            assert not is_local_matrix(e.representative)


@pytest.mark.parametrize("cat_name", ["catalog2", "catalog3"])
def test_entry_words_replay_to_representatives(cat_name, request):
    cat = request.getfixturevalue(cat_name)
    for e in cat.entries:
        np.testing.assert_array_equal(
            word_symplectic(e.word, cat.d), e.representative
        )
        assert is_symplectic(e.representative, cat.d)


def test_cosets_partition_exhaustively_d2(group2, catalog2):
    loc, _ = local_elements(group2)
    seen = set()
    for e in catalog2.entries:
        keys = {
            np.ascontiguousarray(m % 2, dtype=np.uint8).tobytes()
            for m in np.einsum("nij,jk->nik", loc, e.representative)
        }
        assert len(keys) == 36
        assert not (seen & keys), "cosets overlap"
        seen |= keys
    assert len(seen) == 720


def test_no_left_local_links_distinct_reps_d3_sampled(group3, catalog3):
    rng = np.random.default_rng(12)
    loc, _ = local_elements(group3)
    entries = catalog3.entries
    for _ in range(40):
        i, j = rng.choice(len(entries), size=2, replace=False)
        imgs = np.einsum("nij,jk->nik", loc, entries[int(i)].representative) % 3
        target = entries[int(j)].representative
        assert not any(np.array_equal(m, target) for m in imgs)


def test_representative_is_coset_lex_minimum_d2(group2, catalog2):
    loc, _ = local_elements(group2)
    for e in catalog2.entries[:5]:
        coset = np.einsum("nij,jk->nik", loc, e.representative) % 2
        flat = sorted(tuple(m.reshape(-1)) for m in coset)
        assert tuple(e.representative.reshape(-1)) == flat[0]


def test_catalog_generation_is_deterministic():
    a = generate_catalog(2)
    b = generate_catalog(2)
    assert a == b


# ----------------------------------------------------------------------
# entanglement-class semantics against the dense oracle


@pytest.mark.parametrize("d", [2, 3])
def test_coset_members_share_schmidt_spectra(d, request):
    # a local after the gate never changes the Schmidt spectrum, on any input
    cat = request.getfixturevalue(f"catalog{d}")
    _, loc_words = local_elements(request.getfixturevalue(f"group{d}"))
    rng = np.random.default_rng(20 + d)
    states = [np.zeros(d * d, dtype=complex)]
    states[0][0] = 1.0  # |00>
    for _ in range(3):
        v = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        states.append(v / np.linalg.norm(v))
    picks = rng.choice(cat.n_entries, size=6, replace=False)
    for idx in picks:
        e = cat.entries[int(idx)]
        ug = two_site_word_unitary(e.word, d)
        for _ in range(4):
            lw = loc_words[int(rng.integers(len(loc_words)))]
            ul = two_site_word_unitary(lw, d)
            for v in states:
                np.testing.assert_allclose(
                    dense_schmidt(ul @ (ug @ v), d),
                    dense_schmidt(ug @ v, d),
                    atol=1e-12,
                )


def test_non_entangling_class_fixes_product_states(catalog2):
    e = next(e for e in catalog2.entries if not e.entangling)
    u = two_site_word_unitary(e.word, 2)
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        s = dense_schmidt(u @ v, 2)
        assert s[1] < 1e-12  # still rank one


def is_swap_structured(m):
    # every site-0 exponent maps onto site 1 and vice versa
    site0 = (0, 2)
    site1 = (1, 3)
    m = np.asarray(m)
    return not (
        m[np.ix_(site0, site0)].any() or m[np.ix_(site1, site1)].any()
    )


def test_product_input_entanglement_characterizes_classes(catalog2):
    # on isolated two-qubit product inputs, exactly the local class and the
    # site-exchange class act trivially; every other class entangles some
    # single-qubit stabilizer product
    s = 2**-0.5
    single = [
        np.array([1, 0], dtype=complex),
        np.array([0, 1], dtype=complex),
        np.array([s, s]),
        np.array([s, -s]),
        np.array([s, 1j * s]),
        np.array([s, -1j * s]),
    ]
    inputs = [np.kron(a, b) for a in single for b in single]
    swap_seen = 0
    for e in catalog2.entries:
        u = two_site_word_unitary(e.word, 2)
        witnessed = any(
            dense_schmidt(u @ v, 2)[1] > 1e-9 for v in inputs
        )
        if is_swap_structured(e.representative):
            swap_seen += 1
            assert e.entangling  # flagged: it is not the identity coset
            assert not witnessed  # but it cannot entangle isolated products
        elif not e.entangling:
            assert not witnessed
        else:
            assert witnessed
    assert swap_seen == 1


def test_unitaries_are_cached_and_unitary(catalog2):
    us = catalog2.unitaries()
    assert us is catalog2.unitaries()
    assert len(us) == catalog2.n_entries
    for u in us:
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_entangling_stack_is_lazy_cached_and_in_catalog_order():
    cat = generate_catalog(2)
    assert cat._entangling is None  # generation does not build it
    idx, stack = cat.entangling_stack()
    again = cat.entangling_stack()
    assert again[0] is idx and again[1] is stack
    want = [k for k, e in enumerate(cat.entries) if e.entangling]
    assert idx.tolist() == want
    us = cat.unitaries()
    assert stack.shape == (len(want), 4, 4)
    for row, k in enumerate(want):
        assert np.array_equal(stack[row], us[k])
    assert not stack.flags.writeable and not idx.flags.writeable


@pytest.mark.parametrize("bad", ["nan", "inf", "scaled"])
def test_entangling_stack_rejects_a_bad_unitary(bad, catalog2, monkeypatch):
    victim = next(e.word for e in catalog2.entries if e.entangling)
    honest = disentanglers.two_site_word_unitary

    def corrupt(word, d):
        u = honest(word, d)
        if word != victim:
            return u
        if bad == "scaled":
            return u * (1 + 1e-9)
        u[1, 2] = float(bad)
        return u

    monkeypatch.setattr(disentanglers, "two_site_word_unitary", corrupt)
    cat = DisentanglerCatalog(catalog2.d, catalog2.group_order,
                              catalog2.entries)
    with pytest.raises(ValueError, match="non-finite|unitarity"):
        cat.entangling_stack()


@pytest.mark.parametrize("d", [2, 3])
def test_two_site_word_unitary_embedding(d):
    h = gate_matrix(GateOp("H", (0,)), d)
    np.testing.assert_allclose(
        two_site_word_unitary([GateOp("H", (0,))], d),
        np.kron(h, np.eye(d)),
        atol=1e-13,
    )
    np.testing.assert_allclose(
        two_site_word_unitary([GateOp("H", (1,))], d),
        np.kron(np.eye(d), h),
        atol=1e-13,
    )
    np.testing.assert_allclose(
        two_site_word_unitary([GateOp("SUM", (1, 0))], d),
        sum_permutation(2, d, 1, 0),
        atol=1e-13,
    )


# ----------------------------------------------------------------------
# persistence


def test_save_load_roundtrip_d2(tmp_path, catalog2):
    p = tmp_path / "cat2.txt"
    save_catalog(catalog2, p)
    assert load_catalog(p) == catalog2


def test_save_load_roundtrip_d3(tmp_path, catalog3):
    p = tmp_path / "cat3.txt"
    save_catalog(catalog3, p)
    loaded = load_catalog(p)
    assert loaded == catalog3
    assert loaded.n_entries == 90


@pytest.mark.parametrize("d", [2, 3])
def test_generated_catalog_matches_golden_file(tmp_path, d):
    # entries, words and order decide the scan's tie-breaks, so a rebuilt
    # catalog must match the pinned file byte for byte
    p = tmp_path / f"cat{d}.txt"
    save_catalog(generate_catalog(d), p)
    assert p.read_bytes() == (DATA / f"catalog_d{d}.txt").read_bytes()


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_catalog(tmp_path / "absent.txt")


def test_load_rejects_wrong_version(tmp_path, catalog2):
    p = tmp_path / "cat.txt"
    save_catalog(catalog2, p)
    text = p.read_text()
    p.write_text(text.replace("qsim-catalog v1", "qsim-catalog v2", 1))
    with pytest.raises(ValueError, match="version"):
        load_catalog(p)


def test_load_rejects_header_only_file(tmp_path):
    p = tmp_path / "cat.txt"
    p.write_text("# qsim-catalog v1\n")
    with pytest.raises(ValueError, match="malformed catalog header"):
        load_catalog(p)


def test_load_rejects_tampered_matrix(tmp_path, catalog2):
    p = tmp_path / "cat.txt"
    save_catalog(catalog2, p)
    lines = p.read_text().splitlines()
    fields = lines[2].split()
    fields[0] = str((int(fields[0]) + 1) % 2)
    lines[2] = " ".join(fields)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="symplectic|replay"):
        load_catalog(p)


def test_load_rejects_tampered_word(tmp_path, catalog2):
    p = tmp_path / "cat.txt"
    save_catalog(catalog2, p)
    lines = p.read_text().splitlines()
    target = next(
        i for i, ln in enumerate(lines[2:], start=2) if len(ln.split()) > 17
    )
    fields = lines[target].split()
    fields.append("H0")  # extend the word; replay no longer matches
    lines[target] = " ".join(fields)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="replay"):
        load_catalog(p)


@pytest.mark.parametrize("token", ["Q0", "H2", "SUM00"])
def test_load_rejects_bad_word_token_with_its_line(tmp_path, catalog2, token):
    p = tmp_path / "cat.txt"
    save_catalog(catalog2, p)
    lines = p.read_text().splitlines()
    lines[3] += f" {token}"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line 4: bad word token '{token}'$"):
        load_catalog(p)
    # blank lines are skipped but still counted
    p.write_text("\n".join(lines[:2] + ["", "  "] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match=f"^line 6: bad word token '{token}'$"):
        load_catalog(p)


def test_load_rejects_tampered_class_size(tmp_path, catalog2):
    p = tmp_path / "cat.txt"
    save_catalog(catalog2, p)
    lines = p.read_text().splitlines()
    fields = lines[2].split()
    fields[16] = "35"
    lines[2] = " ".join(fields)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="sum"):
        load_catalog(p)


def test_load_rejects_entry_count_mismatch(tmp_path, catalog2):
    p = tmp_path / "cat.txt"
    save_catalog(catalog2, p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="entries"):
        load_catalog(p)


def test_load_rejects_short_entry_line(tmp_path, catalog2):
    p = tmp_path / "cat.txt"
    save_catalog(catalog2, p)
    lines = p.read_text().splitlines()
    lines[2] = "0 1 0 0"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="digits"):
        load_catalog(p)


def write_catalog_lines(path, header, entries):
    path.write_text("\n".join(["# qsim-catalog v1", header, *entries]) + "\n")


def golden_entry_lines(d):
    return (DATA / f"catalog_d{d}.txt").read_text().splitlines()[2:]


def test_load_rejects_wrong_group_order(tmp_path):
    # two true classes whose sizes sum to the header's (wrong) order
    p = tmp_path / "cat.txt"
    write_catalog_lines(p, "2 72 2", golden_entry_lines(2)[:2])
    with pytest.raises(ValueError, match="group order"):
        load_catalog(p)


def test_load_rejects_repeated_coset(tmp_path):
    # twenty copies of one class fill the order but cover one coset only
    p = tmp_path / "cat.txt"
    write_catalog_lines(p, "2 720 20", [golden_entry_lines(2)[1]] * 20)
    with pytest.raises(ValueError, match="same left-local coset"):
        load_catalog(p)


def test_load_rejects_class_size_other_than_local_order(tmp_path):
    p = tmp_path / "cat.txt"
    entries = []
    for line in golden_entry_lines(2)[:2]:
        fields = line.split()
        fields[16] = "360"
        entries.append(" ".join(fields))
    write_catalog_lines(p, "2 720 2", entries)
    with pytest.raises(ValueError, match="class size differs"):
        load_catalog(p)


def test_load_rejects_distinct_members_of_one_coset(tmp_path, group3, catalog3):
    # a left-local image of an entry is another matrix of the same class
    loc, _ = local_elements(group3)
    e = catalog3.entries[1]
    other = loc[5] @ e.representative % 3
    assert not np.array_equal(other, e.representative)
    entries = list(catalog3.entries)
    entries[0] = DisentanglerEntry(
        other, group3.word(element_index(group3, other)), e.class_size, True
    )
    p = tmp_path / "cat.txt"
    save_catalog(DisentanglerCatalog(3, catalog3.group_order, entries), p)
    with pytest.raises(ValueError, match="same left-local coset"):
        load_catalog(p)


def test_load_rejects_a_local_image_of_another_entry(tmp_path, catalog3):
    # entry 1's word followed by a local gate replays to l * rep, a member of
    # entry 1's coset other than its minimum, in place of entry 0
    e = catalog3.entries[1]
    word = e.word + (GateOp("H", (0,)),)
    m = word_symplectic(word, 3)
    h0 = word_symplectic(word[-1:], 3)
    np.testing.assert_array_equal(m, h0 @ e.representative % 3)
    assert tuple(m.reshape(-1)) > tuple(e.representative.reshape(-1))
    entries = list(catalog3.entries)
    entries[0] = DisentanglerEntry(m, word, e.class_size, True)
    p = tmp_path / "cat.txt"
    save_catalog(DisentanglerCatalog(3, catalog3.group_order, entries), p)
    with pytest.raises(ValueError, match="same left-local coset"):
        load_catalog(p)


@pytest.mark.parametrize("d", [2, 3])
def test_inverse_words_are_cached_entry_inverses(d):
    cat = generate_catalog(d)
    assert cat._absorptions is None  # not built with the catalog
    absorptions = cat.absorptions()
    assert cat.absorptions() is absorptions
    assert isinstance(absorptions, tuple) and len(absorptions) == cat.n_entries
    for entry, (word, frame) in zip(cat.entries, absorptions):
        assert isinstance(word, tuple)
        assert list(word) == invert_word(entry.word, d)
        assert frame == identity_tableau(2, d).apply_word(word)
        for a in (frame.codes, frame.phases, frame.xs, frame.zs):
            assert not a.flags.writeable
    with pytest.raises(AttributeError):
        absorptions[-1][0][0].sites = (1,)  # frozen gates


@pytest.mark.parametrize("d", [2, 3])
def test_cached_frames_refuse_every_in_place_update(d):
    """A cached frame is composed into every state that absorbs its entry,
    so apply_word and right_multiply on it raise before anything changes,
    and its storage stays read-only."""
    cat = generate_catalog(d)
    frame = cat.absorptions()[1][1]
    before = frame.copy()
    with pytest.raises(ValueError, match="read-only"):
        frame.apply_word([GateOp("H", (0,))])
    with pytest.raises(ValueError, match="read-only"):
        frame.apply_word([])
    with pytest.raises(ValueError, match="read-only"):
        frame.right_multiply(identity_tableau(1, d), (1,))
    assert frame == before
    assert cat.absorptions()[1][1] is frame
    for a in (frame.codes, frame.phases):
        assert not a.flags.writeable


def test_entry_repr_mentions_class():
    e = DisentanglerEntry(np.eye(4, dtype=int), (), 36, False)
    assert "local" in repr(e)
    assert "DisentanglerEntry" in repr(e)


def test_catalog_equality_discriminates(catalog2):
    other = DisentanglerCatalog(catalog2.d, catalog2.group_order,
                                catalog2.entries[:-1])
    assert catalog2 != other
    assert catalog2 == DisentanglerCatalog(
        catalog2.d, catalog2.group_order, catalog2.entries
    )
