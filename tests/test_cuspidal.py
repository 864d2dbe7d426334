import hashlib
from functools import cache
from math import comb

import pytest

from cdx import cuspidal, hypersimplex, ncpoly
from cdx.cuspidal import (
    _compute,
    cd_cuspidal,
    check_key,
    cuspidal_matroid,
    dual_key,
    memo_clear,
    memo_snapshot,
    vertex_count,
)
from cdx.errors import InvalidParams
from cdx.hypersimplex import cd_hypersimplex, cd_hypersimplex_product, factor_faces
from cdx.matroid import is_connected_split, split_profile
from cdx.ncpoly import NcPoly, normalize_mixed
from cdx.oracle import oracle_cd_index
from cdx.product import cd_product
from reference import emve_mixed, g_cd


def valid_keys(max_n):
    out = []
    for n in range(4, max_n + 1):
        for k in range(1, n):
            for h in range(2, n):
                for r in range(1, min(k, h)):
                    try:
                        check_key(k, n, r, h)
                    except InvalidParams:
                        continue
                    out.append((k, n, r, h))
    return out


@cache
def reference_cuspidal(k, n, r, h):
    """The recursion one face type at a time, each with its own product
    and a copying sum, on its own results all the way down; the
    cut-plane products come from the flag-vector kernel."""
    acc = emve_mixed(n - 1, vertex_count(k, n, r, h))
    for c1 in range(0, min(k, h + 1)):
        for c2 in range(0, min(k - c1, n - h + 1)):
            for d1 in range(0, min(n - k, h - c1 + 1)):
                for d2 in range(0, min(n - k - d1, n - h - c2 + 1)):
                    if c1 + c2 + d1 + d2 == 0:
                        continue
                    count = (comb(h, c1) * comb(n - h, c2)
                             * comb(h - c1, d1) * comb(n - h - c2, d2))
                    kk = k - c1 - c2
                    nn = n - c1 - c2 - d1 - d2
                    free_f = h - c1 - d1
                    free_out = (n - h) - c2 - d2
                    lo = c1 + max(0, kk - free_out)
                    hi = c1 + min(free_f, kk)
                    if lo >= r:
                        continue
                    w = g_cd(c1 + c2 + d1 + d2 - 1)
                    if hi <= r:
                        acc = acc + count * (cd_hypersimplex(kk, nn) * w)
                    else:
                        acc = acc + count * (reference_cuspidal(kk, nn, r - c1, free_f) * w)
    for k1, n1, ct1 in factor_faces(r, h):
        for k2, n2, ct2 in factor_faces(k - r, n - h):
            dm = (n1 - 1) + (n2 - 1)
            if dm < 1:
                continue
            piece = cd_product(cd_hypersimplex(k1, n1), cd_hypersimplex(k2, n2))
            acc = acc + (ct1 * ct2) * (piece * g_cd((n - 2) - dm))
    return normalize_mixed(acc)


def test_grouped_recursion_matches_the_per_face_type_sum():
    for key in valid_keys(10):
        assert _compute(*key) == reference_cuspidal(*key), key


# sha256 of .text() for keys above the range of the reference recursions,
# recorded with the chain sum on word dicts, an independent implementation
PINNED = [
    (cd_cuspidal, (7, 14, 3, 7), "4cc6ba3d831c6b79cf504f49bbf4965455f2dfe673442b0870ff3dfb0b752891"),
    (cd_cuspidal, (8, 16, 7, 8), "90c4658bad85aac512f6b8fddd01098830c7f091d9b1b348238bbd600248bf99"),
    (cd_cuspidal, (8, 16, 4, 8), "01073428763d6076adcd5709d90468b43e8a1382d9abba8b436d0dc9dcd1a9ca"),
    (cd_cuspidal, (10, 20, 5, 10), "a1e6ec1be7c7f779d15ab6f002602e30357432b33b75b44e87e279a8553c9179"),
    (cd_hypersimplex_product, (3, 7, 4, 10),
     "43a21feac6effd81f33931be25ec02033db52bc084fc39bd51bbf03dd2666c0d"),
    (cd_hypersimplex_product, (4, 9, 4, 9),
     "f00d0753edca7693cea3e517213e187c9434ad4e18b1fb4288c4212f95e6e221"),
]


def test_pinned_digests_above_the_reference_range():
    for fn, key, digest in PINNED:
        assert hashlib.sha256(fn(*key).text().encode()).hexdigest() == digest, key


# sha256 of .text() for results packed at 128 bits, recorded when every
# 64-bit face was re-encoded from its term dict instead of repacked
PINNED_WIDE = [
    (cd_hypersimplex, (11, 22), "225d858fe7a909215a7aeb349bc70d7126bb467f71f6062b4b0d2d6a03234652"),
    (cd_hypersimplex, (12, 24), "ef32c40e428dcd6e588155c391cd540799a1bcbadf0c518943eebada5c77a97c"),
    (cd_cuspidal, (11, 22, 5, 11), "43afb852cebc806a22a1f1db95efcb32dab5d65a8b22f71bb540d69767e6dab8"),
    (cd_cuspidal, (12, 24, 6, 12), "c6e79f695aaf2ee8887ed5c45b32e7107fc1856be55dca3d051807a1f395d738"),
]


def test_pinned_digests_past_the_64_bit_slots():
    # cold, so their 64-bit faces are widened on the way
    hypersimplex.memo_clear()
    cuspidal.memo_clear()
    for fn, key, digest in PINNED_WIDE:
        p = fn(*key)
        assert min(p._vec[2]) == 128, key
        assert hashlib.sha256(p.text().encode()).hexdigest() == digest, key


def unpacked_max(p):
    """The largest |coefficient| of a packed result, every slot decoded."""
    deg, _, packs = p._vec
    bits = min(packs)
    vals = ncpoly._unpack(packs[bits], ncpoly._cd_count(deg), bits)
    return max(max(vals), -min(vals))


# sha256 of the sorted (table, key, slot width, largest |coefficient|) of
# every memo entry after a cold sweep over each hypersimplex with n <= 22
# and each cuspidal key with n <= 14, recorded when chain_sum decoded
# every result to read its maximum
WIDTHS_AND_MAXIMA = "a34a626fbf5b835a85c6ee5f823a3983285ff7fab6e4c7b2b6c71e1575e24f9d"


def test_pinned_slot_widths_and_maxima():
    hypersimplex.memo_clear()
    cuspidal.memo_clear()
    cd_hypersimplex(10, 20)
    # only the maxima of faces are read, and the top result is no face
    table = hypersimplex.memo_snapshot()
    assert [key for key, p in table.items() if p._vec[1] is None] == [(10, 20)]
    for key, p in table.items():
        assert p._vec[1] in (None, unpacked_max(p)), key
    hypersimplex.memo_clear()
    for n in range(1, 23):
        for k in range(n + 1):
            cd_hypersimplex(k, n)
    for key in valid_keys(14):
        cd_cuspidal(*key)
    rows = []
    for name, table in [("hypersimplex", hypersimplex.memo_snapshot()),
                        ("products", hypersimplex.PRODUCTS.snapshot()),
                        ("cuspidal", memo_snapshot())]:
        for key, p in table.items():
            top = ncpoly._top(p, p._vec[0])
            assert top == unpacked_max(p), (name, key)
            rows.append((name, key, min(p._vec[2]), top))
    rows.sort()
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == WIDTHS_AND_MAXIMA


def memo_entries():
    return [p for table in (hypersimplex.memo_snapshot(), hypersimplex.PRODUCTS.snapshot(),
                            memo_snapshot())
            for p in table.values()]


def test_recursion_results_stay_packed():
    hypersimplex.memo_clear()
    cuspidal.memo_clear()
    cd_cuspidal(8, 16, 4, 8)
    entries = memo_entries()
    assert len(entries) > 100
    assert all(p._dict is None for p in entries)
    texts = [p.text() for p in entries]
    terms = [p.terms() for p in entries]
    assert all(p._dict is None for p in entries)
    # both read the packing as the term dict would
    for p, text, t in zip(entries, texts, terms):
        assert NcPoly(t).text() == text
        assert NcPoly.from_text(text) == p and p._dict == t


def test_the_recursions_build_no_chain_weight(monkeypatch):
    # sha256 of .text(), each value equal to its reference recursion
    want = [
        (cd_hypersimplex, (5, 11), "2c3037a72157dcb1d7e71978ac5806230db7cc3ebd2122b5b10ab296ebe41fae"),
        (cd_cuspidal, (5, 12, 3, 6), "0acd84f5fcae9cd2c8c7a125c9a13a9ad3b6d623b9f24d62036a53c12505dc3e"),
    ] + [entry for entry in PINNED if entry[1] == (3, 7, 4, 10)]

    def refuse(*args):
        raise AssertionError("chain weight built for %r" % (args,))

    # a chain weight is a product of polynomials (see reference.g_cd)
    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(NcPoly, name, refuse)
    hypersimplex.memo_clear()
    cuspidal.memo_clear()
    for fn, key, digest in want:
        assert hashlib.sha256(fn(*key).text().encode()).hexdigest() == digest, key


def test_the_cut_plane_enters_as_one_facet_per_key(monkeypatch):
    # the faces in the cut plane are those of one facet, so each computed
    # key asks for exactly one product of two hypersimplices
    calls = []

    def product(*args):
        calls.append(args)
        return cd_hypersimplex_product(*args)

    monkeypatch.setattr(cuspidal, "cd_hypersimplex_product", product)
    memo_clear()
    for key in valid_keys(10) + [(8, 16, 4, 8)]:
        cd_cuspidal(*key)
    want = [(r, h, k - r, n - h) for k, n, r, h in memo_snapshot()]
    assert sorted(calls) == sorted(want)


def test_key_validation():
    check_key(2, 4, 1, 2)
    check_key(4, 8, 3, 4)
    for bad in [(2, 4, 2, 3), (2, 4, 1, 4), (1, 3, 1, 2), (3, 5, 1, 3),
                (2, 4, 0, 2), (5, 5, 2, 3)]:
        with pytest.raises(InvalidParams):
            check_key(*bad)


def test_dual_key_is_an_involution():
    for key in valid_keys(9):
        dk = dual_key(*key)
        check_key(*dk)  # the dual of a valid key is valid
        assert type(dk) is tuple and dual_key(*dk) == key


def test_vertex_counts():
    assert vertex_count(2, 4, 1, 2) == 5  # square pyramid
    assert vertex_count(3, 7, 2, 3) == 34
    assert vertex_count(*dual_key(3, 7, 2, 3)) == 34


def test_square_pyramid():
    assert cd_cuspidal(2, 4, 1, 2).text() == "ccc + 3*cd + 3*dc"


def test_matches_oracle_everywhere_small():
    for key in valid_keys(7):
        got = cd_cuspidal(*key)
        want = oracle_cd_index(cuspidal_matroid(*key))
        assert got == want, key


def test_duality():
    for key in valid_keys(8):
        assert _compute(*key) == _compute(*dual_key(*key)), key


def test_memo_stores_one_entry_per_polytope():
    memo_clear()
    assert dual_key(3, 9, 2, 4) == (6, 9, 4, 5)
    p = cd_cuspidal(3, 9, 2, 4)
    assert cd_cuspidal(*dual_key(3, 9, 2, 4)) is p
    snap = memo_snapshot()
    assert (3, 9, 2, 4) in snap and (6, 9, 4, 5) not in snap
    # every face below is stored under the smaller of its keys only
    assert all(key <= dual_key(*key) for key in snap)


def test_cuspidal_matroid_structure():
    M = cuspidal_matroid(3, 7, 2, 4)
    assert is_connected_split(M)
    prof = split_profile(M)
    assert prof.lam == {(2, 4): 1}
    assert prof.mu == {}
    assert len(M.basis_masks()) == vertex_count(3, 7, 2, 4)


def test_degree_and_nonnegativity():
    for key in valid_keys(8):
        p = cd_cuspidal(*key)
        assert p.is_homogeneous() and p.degree() == key[1] - 1
        assert all(c > 0 for c in p.terms().values())


def test_invalid_key_raises():
    with pytest.raises(InvalidParams):
        cd_cuspidal(2, 4, 2, 3)
    with pytest.raises(InvalidParams):
        cuspidal_matroid(3, 5, 1, 3)
