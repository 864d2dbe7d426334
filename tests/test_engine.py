import hashlib
from itertools import product
from math import comb

import pytest

from cdx import cuspidal, hypersimplex, ncpoly
from cdx.cli import corpus
from cdx.engine import (
    _w_compute,
    cd_index,
    cd_sparse_paving,
    cd_split_matroid,
    check_result,
    check_w_key,
    w_key,
    w_term,
)
from cdx.errors import (
    CdxError,
    InternalError,
    InvalidParams,
    NotConnected,
    NotSparsePaving,
    NotSplit,
    UnsupportedMatroid,
)
from cdx.hypersimplex import cd_hypersimplex
from cdx.matroid import (
    Matroid,
    example_535,
    example_m1,
    example_m2,
    example_m3,
    fano,
    mk4,
    split_profile,
    vamos,
)
from cdx.ncpoly import NcPoly
from cdx.oracle import oracle_cd_index
from cdx.product import cd_product


def reference_w(alpha, beta, a, b, n):
    """The modular-pair term one piece at a time, each with its own two
    products and a copying sum; the products of hypersimplices come from
    the flag-vector kernel."""
    out = NcPoly.zero()
    for p in range(1, alpha + 1):
        for q in range(1, beta + 1):
            for i in range(p + 1, a - alpha + p + 1):
                for j in range(q + 1, b - beta + q + 1):
                    if n - i - j == 0:
                        continue
                    piece = cd_product(cd_hypersimplex(p, i), cd_hypersimplex(q, j))
                    out = out + (
                        comb(a, i) * comb(b, j)
                        * comb(a - i, alpha - p) * comb(b - j, beta - q)
                    ) * (piece * NcPoly.word("d") * cd_hypersimplex(1, n - i - j))
    return out


def test_grouped_w_term_matches_the_per_piece_sum():
    keys = {w_key(*shape, M.n) for _, M in corpus(9)
            for shape in split_profile(M).mu}
    assert len(keys) == 22
    # and every shape of two flats of rank below their size, up to n = 10
    for n in range(4, 11):
        for a in range(2, n - 1):
            for b in range(2, n - a + 1):
                for alpha in range(1, a):
                    for beta in range(1, b):
                        key = (alpha, beta, a, b, n)
                        if w_key(*key) == key:
                            check_w_key(*key)
                            keys.add(key)
    for key in sorted(keys):
        assert _w_compute(*key) == reference_w(*key), key


# sha256 of .text() for w keys above the range of reference_w, recorded
# with the sum over (p, q, i, j) that reference_w also runs, an
# independent implementation
PINNED_W = [
    ((2, 3, 5, 7, 16), "f7ea77043a9ff775b280f773ee69945c8b3b0d9582b6cd0912894830dcee4b66"),
    ((3, 3, 6, 6, 20), "e5be22bfb64071f3cb73eb11a2bc9a5967c2f27eb095e736b7583d41bb95a58d"),
    ((4, 5, 8, 9, 20), "c0527ded94d6b74a1c7417e1722ad850d3beedddfa6c4aa7e11d596329b68abf"),
]


def test_pinned_w_digests_above_the_reference_range():
    for key, digest in PINNED_W:
        assert hashlib.sha256(w_term(*key).text().encode()).hexdigest() == digest, key


def test_w_term_equals_its_dual_pairs_term():
    # the dual matroid's modular pair has the shapes (b - beta, b) and
    # (a - alpha, a), and its base polytope is the image under x -> 1 - x
    checked = 0
    for n in range(4, 13):
        for a in range(2, n - 1):
            for b in range(2, n - a + 1):
                for alpha in range(1, a):
                    for beta in range(1, b):
                        key = (alpha, beta, a, b, n)
                        if w_key(*key) == key:
                            assert w_term(*key) == w_term(*w_key(b - beta, a - alpha, b, a, n)), key
                            checked += 1
    assert checked == 671


def test_w_term_minimal_overlap_closed_form():
    ccd_2dd = NcPoly.from_text("ccd + 2*dd")
    for n in range(5, 10):
        assert w_term(1, 1, 2, 2, n) == ccd_2dd * cd_hypersimplex(1, n - 4)


def test_w_term_degenerate_empty_sum():
    assert w_term(2, 1, 2, 2, 9) == NcPoly.zero()
    assert w_term(1, 1, 1, 2, 9) == NcPoly.zero()


def test_w_term_symmetry():
    for args in [(1, 2, 2, 4), (1, 1, 2, 3), (2, 1, 3, 2), (1, 3, 3, 4)]:
        alpha, beta, a, b = args
        n = a + b + 3
        assert w_term(alpha, beta, a, b, n) == w_term(beta, alpha, b, a, n)
    assert w_key(2, 1, 3, 2, 9) == w_key(1, 2, 2, 3, 9)


def test_w_term_validation():
    with pytest.raises(InvalidParams):
        w_term(0, 1, 2, 2, 9)
    with pytest.raises(InvalidParams):
        w_term(1, 1, 2, 2, 3)


def test_uniform_is_plain_hypersimplex():
    assert cd_split_matroid(Matroid.uniform(2, 6)) == cd_hypersimplex(2, 6)


def test_single_flat_is_cuspidal():
    from cdx.cuspidal import cd_cuspidal, cuspidal_matroid

    assert cd_split_matroid(cuspidal_matroid(3, 7, 1, 3)) == cd_cuspidal(3, 7, 1, 3)


def test_m2_equals_m3_but_not_m1():
    m1 = cd_split_matroid(example_m1())
    m2 = cd_split_matroid(example_m2())
    m3 = cd_split_matroid(example_m3())
    assert m2 == m3
    assert m1 != m2
    assert m2 - m1 == w_term(1, 1, 2, 2, 8)


def test_not_connected_and_not_split():
    square = Matroid.from_bases(4, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(NotConnected):
        cd_split_matroid(square)
    nested = Matroid.from_cyclic_flats(6, 3, [((0, 1), 1), ((0, 1, 2, 3), 2)])
    with pytest.raises(NotSplit):
        cd_split_matroid(nested)


def test_sparse_paving_path_agrees():
    for M in (fano(), vamos(), mk4(), example_535(), example_m1()):
        assert cd_sparse_paving(M) == cd_split_matroid(M)


def test_sparse_paving_rejections():
    from cdx.cuspidal import cuspidal_matroid

    with pytest.raises(NotSparsePaving):
        cd_sparse_paving(cuspidal_matroid(3, 7, 2, 4))
    square = Matroid.from_bases(4, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(NotConnected):
        cd_sparse_paving(square)


def test_cd_index_componentwise():
    square = Matroid.from_bases(4, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert cd_index(square) == NcPoly.from_text("cc + 2*d")
    point = Matroid.from_bases(1, 1, [(0,)])
    assert cd_index(point) == NcPoly.one()
    # a coloop glued onto the Fano matroid multiplies by the unit
    glued = Matroid.from_bases(
        8, 4, [tuple(b) + (7,) for b in fano().bases()]
    )
    assert cd_index(glued) == cd_split_matroid(fano())


def test_cd_index_mixed_components():
    seg = [(0,), (1,)]
    tri = [(2,), (3,), (4,)]
    bases = [(a[0], b[0]) for a in seg for b in tri]
    M = Matroid.from_bases(5, 2, bases)
    want = cd_product(NcPoly.word("c"), cd_hypersimplex(1, 3))
    assert cd_index(M) == want
    assert cd_index(M) == oracle_cd_index(M)


def test_oracle_fallback():
    nested = Matroid.from_cyclic_flats(6, 3, [((0, 1), 1), ((0, 1, 2, 3), 2)])
    with pytest.raises(UnsupportedMatroid):
        cd_index(nested)
    got = cd_index(nested, oracle_fallback=True)
    assert got == oracle_cd_index(nested)
    assert all(c > 0 for c in got.terms().values())


def test_dual_invariance():
    for M in (fano(), example_535(), example_m1(), mk4()):
        assert cd_split_matroid(M) == cd_split_matroid(M.dual())


def test_profile_determines_polynomial():
    # same (n, k, lambda, mu) profile, different labeled matroids
    a = Matroid.from_cyclic_flats(6, 3, [((0, 1, 2), 2)])
    b = Matroid.from_cyclic_flats(6, 3, [((3, 4, 5), 2)])
    assert cd_split_matroid(a) == cd_split_matroid(b)


def two_flat_families(ns):
    """(n, k, flats) for every pair of flat parameters (r(F), |F|) <=
    (r(G), |G|) on n elements with rank k, where |F & G| = r(F) + r(G) - k
    is what a modular pair needs: F the first |F| elements, G starting at
    the last |F & G| of them."""
    for n in ns:
        for k in range(1, n):
            for rf, hf, rg, hg in product(range(k), range(1, n), range(k), range(1, n)):
                g = rf + rg - k
                if rf < hf and rg < hg and (rf, hf) <= (rg, hg) and 0 <= g \
                        and hf - g + hg <= n:
                    yield n, k, [(range(hf), rf), (range(hf - g, hf - g + hg), rg)]


def test_general_modular_pair_shapes_match_the_oracle():
    # every corpus modular pair has alpha = beta = 1; these have alpha or beta >= 2
    profiles = {}
    for n, k, flats in two_flat_families(range(6, 9)):
        try:
            M = Matroid.from_cyclic_flats(n, k, flats)
            prof = split_profile(M)
        except CdxError:
            continue
        if any(alpha >= 2 or beta >= 2 for alpha, beta, _, _ in prof.mu):
            key = (n, k, tuple(sorted(prof.lam.items())), tuple(sorted(prof.mu.items())))
            profiles.setdefault(key, M)
    shapes = {s for M in profiles.values() for s in split_profile(M).mu}
    assert (len(profiles), len(shapes)) == (45, 13)
    for M in profiles.values():
        assert cd_index(M) == oracle_cd_index(M), split_profile(M)


def test_cd_index_runs_the_split_test_once_per_component(monkeypatch):
    from cdx import engine

    seen = []

    def counted(M):
        seen.append(M.n)
        return split_profile(M)

    monkeypatch.setattr(engine, "split_profile", counted)
    # the Fano matroid plus a triangle, on disjoint ground sets
    bases = [tuple(b) + (e,) for b in fano().bases() for e in (7, 8, 9)]
    M = Matroid.from_bases(10, 4, bases)
    got = cd_index(M)
    assert sorted(seen) == [3, 7]
    assert got == cd_product(cd_split_matroid(fano()), cd_hypersimplex(1, 3))


def test_result_check_reads_the_vertex_count_off_the_index():
    # a point has one basis; the segment and the triangle 2 and 3 vertices
    assert cd_index(Matroid.uniform(0, 3)) == 1
    assert cd_index(Matroid.from_bases(3, 1, [[0], [1]])) == NcPoly.word("c")
    check_result(Matroid.uniform(1, 3), cd_hypersimplex(1, 3))
    for wrong in (NcPoly.one(), NcPoly.word("c"), NcPoly.zero()):
        with pytest.raises(InternalError):
            check_result(Matroid.uniform(1, 3), wrong)
    # the tetrahedron's 4 vertices, but a negative coefficient
    with pytest.raises(InternalError, match="negative"):
        check_result(Matroid.uniform(1, 4), NcPoly.from_text("ccc - 5*cd + 2*dc"))
    # three vertices each, but no polytope's cd-index: c^2 must have
    # coefficient 1, and every word degree 2
    for text in ("3*d", "cc + d + c"):
        with pytest.raises(InternalError, match="not a polytope's"):
            check_result(Matroid.uniform(1, 3), NcPoly.from_text(text))


def test_a_top_level_result_is_decoded_once(monkeypatch):
    # chain_sum reads its faces' maxima from their words, so only the
    # formula's own terms are decoded, each once, when add_scaled reads them
    hypersimplex.memo_clear()
    cuspidal.memo_clear()
    decoded = []
    unpack = ncpoly._unpack

    def counted(x, length, bits):
        decoded.append(x)
        return unpack(x, length, bits)

    monkeypatch.setattr(ncpoly, "_unpack", counted)
    M = cuspidal.cuspidal_matroid(4, 9, 2, 4)
    got = cd_index(M)
    terms = [cd_hypersimplex(4, 9), cuspidal.cd_cuspidal(4, 9, 2, 4)]
    assert sorted(decoded) == sorted(p._vec[2][min(p._vec[2])] for p in terms)
    assert cd_index(M) == got and len(decoded) == 2
