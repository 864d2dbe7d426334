from functools import cache
from itertools import combinations
from math import comb
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdx.errors import InvalidParams, NotCdEquivalent
from cdx import hypersimplex
from cdx.hypersimplex import (
    _check_params,
    _compute,
    cd_hypersimplex,
    cd_hypersimplex_product,
    face_type_counts,
    memo_clear,
    memo_snapshot,
)
from cdx.matroid import Matroid
from cdx.ncpoly import (
    A,
    B,
    C,
    D,
    NcPoly,
    cd_order,
    cd_to_ab,
    chain_sum,
    expand_ab,
    normalize_mixed,
    word_key,
)
from cdx.oracle import oracle_cd_index
from cdx.product import cd_product
from reference import emve_mixed, g_cd, reference_chain_sum


class FaceSpec(NamedTuple):
    """A face of dimension >= 1: pinned coordinate sets and its type."""

    ones: frozenset  # coordinates fixed to 1
    zeros: frozenset  # coordinates fixed to 0
    k: int  # the face is a (k, n) hypersimplex
    n: int

    @property
    def dim(self):
        return self.n - 1


def faces_of_hypersimplex(k, n):
    """All faces of dimension >= 1 as explicit FaceSpec pairs (0-based ground)."""
    _check_params(k, n)
    ground = range(n)
    out = []
    for i, j in face_type_counts(k, n):
        for C in combinations(ground, i):
            rest = [e for e in ground if e not in C]
            for D in combinations(rest, j):
                out.append(FaceSpec(frozenset(C), frozenset(D), k - i, n - i - j))
    return out


def reference_chain_count(k, n):
    """The stratified chain count of the (k, n) hypersimplex, one face type
    (i, j) at a time, each with its own product and a copying sum."""
    acc = emve_mixed(n - 1, comb(n, k))
    for (i, j), count in face_type_counts(k, n).items():
        acc = acc + count * (reference_hypersimplex(k - i, n - i - j) * g_cd(i + j - 1))
    return acc


@cache
def reference_hypersimplex(k, n):
    """The recursion on its own results all the way down."""
    if k == 0 or k == n:
        return NcPoly.one()
    return normalize_mixed(reference_chain_count(k, n))


def test_chain_counts_are_cd_polynomials_with_their_ab_expansion():
    E = A - B
    for n in range(2, 10):
        for k in range(1, n):
            acc = reference_chain_count(k, n)
            assert cd_to_ab(normalize_mixed(acc)) == expand_ab(acc), (k, n)
            # the same count in the letters a and b: each chain of faces
            # adds a b for its last face and a - b for each dimension above
            ab = E ** (n - 1) + comb(n, k) * (B * E ** (n - 2))
            for (i, j), count in face_type_counts(k, n).items():
                face = cd_to_ab(reference_hypersimplex(k - i, n - i - j))
                ab = ab + count * (face * B * E ** (i + j - 1))
            assert expand_ab(acc) == ab, (k, n)
            for word in ("a" * (n - 1), "cbc"):
                with pytest.raises(NotCdEquivalent):
                    normalize_mixed(acc + NcPoly.word(word))


def test_grouped_recursion_matches_the_per_face_type_sum():
    # k runs over both sides of each dual pair (k, n - k)
    for n in range(2, 15):
        for k in range(1, n):
            assert _compute(k, n) == reference_hypersimplex(k, n), (k, n)


def test_chain_sum_raises_on_a_residue_after_collecting_trailing_b():
    # the (2, 5) hypersimplex with one vertex too many or too few: the
    # residue is off times the trailing-b words of g_cd(3), and the kernel
    # names the first by word_key, as normalize_mixed does on that count
    faces = [(i + j, cd_hypersimplex(2 - i, 5 - i - j), count)
             for (i, j), count in face_type_counts(2, 5).items()]
    assert chain_sum(4, comb(5, 2), faces) == cd_hypersimplex(2, 5)
    first = min((w for w in g_cd(3).words() if w.endswith("b")), key=word_key)
    for off in (1, -1):
        want = "residue %d*%s after collecting trailing b" % (off * g_cd(3).coeff(first), first)
        with pytest.raises(NotCdEquivalent) as err:
            chain_sum(4, comb(5, 2) + off, faces)
        assert str(err.value) == want
        with pytest.raises(NotCdEquivalent) as err:
            normalize_mixed(reference_chain_count(2, 5) + off * g_cd(3))
        assert str(err.value) == want


@st.composite
def chain_sum_inputs(draw):
    """(dim, f0, faces) for chain_sum: either the faces of a hypersimplex
    of dimension dim, its vertex count off by at most one, or random cd
    faces, none to two per codimension.  A random face's coefficients
    are small, or up to about 2^40 or 2^80 in absolute value, and some
    counts reach 2^53, which takes the kernel to 128- and 192-bit slots.
    Some triples are split in two that list the same face object."""
    dim = draw(st.integers(0, 12))
    if dim and draw(st.booleans()):
        n = dim + 1
        k = draw(st.integers(1, dim))
        f0 = max(1, comb(n, k) + draw(st.sampled_from([0, 0, 1, -1])))
        faces = [(i + j, cd_hypersimplex(k - i, n - i - j), count)
                 for (i, j), count in face_type_counts(k, n).items()]
    else:
        f0 = draw(st.integers(1, 60))
        rnd = draw(st.randoms(use_true_random=False))
        faces = []
        for c in range(1, dim):
            for _ in range(draw(st.integers(0, 2))):
                shift = draw(st.sampled_from([0, 0, 34, 74]))
                face = NcPoly([(w, (rnd.randint(-9, 40) << shift) + rnd.randint(-9, 40))
                               for w in cd_order(dim - c) if rnd.random() < 0.7])
                if face:
                    count = draw(st.integers(1, 30)) << draw(st.sampled_from([0, 0, 48]))
                    faces.append((c, face, count))
    out = []
    for c, face, count in faces:
        if draw(st.booleans()):
            part = draw(st.integers(0, count))
            out += [(c, face, part), (c, face, count - part)]
        else:
            out.append((c, face, count))
    return dim, f0, out


def outcome(fn, *args):
    """fn(*args), or the message of the NotCdEquivalent it raises."""
    try:
        return "ok", fn(*args)
    except NotCdEquivalent as err:
        return "residue", str(err)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(chain_sum_inputs())
def test_chain_sum_equals_the_reference_chain_count(args):
    dim, f0, faces = args
    acc = emve_mixed(dim, f0)
    for c, face, count in faces:
        acc = acc + count * (face * g_cd(c - 1))
    got = outcome(chain_sum, dim, f0, faces)
    assert got == outcome(normalize_mixed, acc)
    assert got == outcome(reference_chain_sum, dim, f0, faces)


def test_chain_sum_equals_the_list_kernel_on_every_hypersimplex_up_to_n22():
    # from n = 22 on a coefficient needs more than 63 bits, so the last
    # row runs on 128-bit slots
    for n in range(3, 23):
        for k in range(1, n // 2 + 1):
            faces = [(i + j, cd_hypersimplex(k - i, n - i - j), count)
                     for (i, j), count in face_type_counts(k, n).items()]
            got = chain_sum(n - 1, comb(n, k), faces)
            assert got == reference_chain_sum(n - 1, comb(n, k), faces), (k, n)
    assert max(got.terms().values()).bit_length() > 63


def test_the_recursion_lists_no_cd_words():
    # chain_sum reads only word counts; the words are listed for text(),
    # terms() and the term dicts alone
    memo_clear()
    cd_order.cache_clear()
    cd_hypersimplex(10, 20)
    assert cd_order.cache_info().currsize == 0


def test_chain_sum_in_low_dimensions_of_both_parities():
    assert chain_sum(0, 1, []) == NcPoly.one()
    assert chain_sum(1, 2, []) == C  # a segment
    for m in range(3, 9):  # an m-gon
        assert chain_sum(2, m, [(1, C, m)]) == C * C + (m - 2) * D
    assert chain_sum(3, 4, [(1, C * C + D, 4), (2, C, 6)]) == cd_hypersimplex(1, 4)
    with pytest.raises(NotCdEquivalent, match=r"^residue 1\*b after"):
        chain_sum(1, 3, [])
    with pytest.raises(NotCdEquivalent, match=r"^residue -1\*cb after"):
        chain_sum(2, 4, [(1, C, 3)])


@pytest.mark.parametrize("edge", [2**63, 2**127])
def test_chain_sum_coefficients_at_the_edge_of_a_slot(edge):
    # an m-gon's d coefficient m - 2, and the residue of a vertex count
    # f0 against edges -m, each just inside or just past a slot width
    for m in range(edge - 3, edge + 4):
        assert chain_sum(2, m, [(1, C, m)]) == C * C + (m - 2) * D
        for f0 in (1, 2):
            want = "residue %d*cb after collecting trailing b" % (-m - f0)
            for kernel in (chain_sum, reference_chain_sum):
                with pytest.raises(NotCdEquivalent) as err:
                    kernel(2, f0, [(1, C, -m)])
                assert str(err.value) == want


def test_chain_sum_slot_bound_doubles_each_step():
    # f0 edges cancel the trailing b of the f0 vertices, and with no other
    # face the last block of p0, f0 - 2 after one step, doubles each step:
    # at dim 6 it is 4 (f0 - 2), past 64 bits, though a bound that did not
    # double, 1 + f0 + f0, fits in 64 bits
    for f0 in (5, 2**61 + 2, 2**62 - 1):
        got = chain_sum(6, f0, [(5, C, f0)])
        assert got == reference_chain_sum(6, f0, [(5, C, f0)])
        assert got.coeff("ddd") == 4 * (f0 - 2)


def test_chain_sum_rejects_faces_outside_its_range():
    for c, face in [(0, C), (4, C), (1, B), (1, cd_hypersimplex(1, 3)), (2, C + D)]:
        with pytest.raises(InvalidParams):
            chain_sum(4, 10, [(c, face, 1)])
    with pytest.raises(InvalidParams):
        chain_sum(4, 0, [])


def test_small_values():
    assert cd_hypersimplex(0, 1) == NcPoly.one()
    assert cd_hypersimplex(1, 1) == NcPoly.one()
    assert cd_hypersimplex(1, 2) == NcPoly.word("c")
    assert cd_hypersimplex(1, 3) == NcPoly.from_text("cc + d")
    assert cd_hypersimplex(2, 3) == NcPoly.from_text("cc + d")
    assert cd_hypersimplex(1, 4) == NcPoly.from_text("ccc + 2*cd + 2*dc")


def test_octahedron():
    assert cd_hypersimplex(2, 4).text() == "ccc + 6*cd + 4*dc"


def test_degree_matches_dimension():
    for n in range(2, 9):
        for k in range(1, n):
            p = cd_hypersimplex(k, n)
            assert p.is_homogeneous()
            assert p.degree() == n - 1


def test_duality_both_computations_agree():
    # run the recursion for k and for n-k directly, no canonicalization
    for n in range(3, 10):
        for k in range(1, n):
            assert _compute(k, n) == _compute(n - k, n)


def test_face_counts_match_explicit_enumeration():
    for k, n in [(1, 3), (2, 4), (2, 5), (3, 6)]:
        typed_total = sum(face_type_counts(k, n).values())
        faces = faces_of_hypersimplex(k, n)
        assert len(faces) == typed_total
        for f in faces:
            assert f.ones.isdisjoint(f.zeros)
            assert f.k == k - len(f.ones)
            assert f.n == n - len(f.ones) - len(f.zeros)
            assert f.dim >= 1


def test_index_set_excludes_empty_pair():
    assert (0, 0) not in face_type_counts(2, 5)
    # all faces keep at least a segment
    assert all(n_removed <= 5 - 2 for i, j in face_type_counts(2, 5)
               for n_removed in [i + j])


def test_octahedron_face_census():
    # 8 triangles and 12 edges
    by_dim = {}
    for (i, j), ct in face_type_counts(2, 4).items():
        dim = (4 - i - j) - 1
        by_dim[dim] = by_dim.get(dim, 0) + ct
    assert by_dim == {2: 8, 1: 12}


def test_against_oracle_small():
    for n in range(2, 7):
        for k in range(1, n):
            assert cd_hypersimplex(k, n) == oracle_cd_index(Matroid.uniform(k, n))


def test_mirror_symmetry_of_expansion():
    p = cd_to_ab(cd_hypersimplex(3, 7))
    assert p.mirror() == p


def test_coefficients_nonnegative():
    for n in range(2, 10):
        for k in range(1, n):
            assert all(c > 0 for c in cd_hypersimplex(k, n).terms().values())


def test_memoized_and_canonicalized():
    a = cd_hypersimplex(3, 8)
    b = cd_hypersimplex(5, 8)
    assert a is b
    assert (3, 8) in memo_snapshot()


def test_hypersimplex_product_equals_cd_product():
    keys = [(0, 1), (1, 1), (0, 3), (2, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 6)]
    for k1, n1 in keys:
        for k2, n2 in keys:
            want = cd_product(cd_hypersimplex(k1, n1), cd_hypersimplex(k2, n2))
            assert cd_hypersimplex_product(k1, n1, k2, n2) == want, (k1, n1, k2, n2)
            assert cd_hypersimplex_product(k2, n2, k1, n1) == want, (k1, n1, k2, n2)


def test_hypersimplex_product_point_factor_is_the_other_factor():
    assert cd_hypersimplex_product(0, 4, 2, 5) is cd_hypersimplex(2, 5)
    assert cd_hypersimplex_product(3, 5, 4, 4) is cd_hypersimplex(2, 5)
    assert cd_hypersimplex_product(1, 1, 0, 1) == NcPoly.one()


def test_hypersimplex_product_memo_is_emptied_by_memo_clear():
    memo_clear()
    a = cd_hypersimplex_product(2, 5, 1, 4)
    # the unordered pair of canonical keys is one entry
    assert cd_hypersimplex_product(3, 4, 3, 5) is a
    # the recursion also stores the products of faces, each under the
    # sorted pair of canonical keys of hypersimplices of dimension >= 1
    snap = hypersimplex.PRODUCTS.snapshot()
    assert snap[1, 4, 2, 5] is a
    for k1, n1, k2, n2 in snap:
        assert 1 <= k1 <= n1 - k1 and 1 <= k2 <= n2 - k2 and (k1, n1) <= (k2, n2)
    memo_clear()
    assert hypersimplex.PRODUCTS.snapshot() == {}
    assert memo_snapshot() == {}
    assert cd_hypersimplex_product(1, 4, 2, 5) == a


def test_hypersimplex_product_invalid_params():
    with pytest.raises(InvalidParams):
        cd_hypersimplex_product(3, 2, 1, 3)
    with pytest.raises(InvalidParams):
        cd_hypersimplex_product(1, 3, 0, 0)


def test_memo_check_rejects_noncanonical():
    assert hypersimplex._check_key(3, 8) == 7
    for key in [(5, 8), (0, 5), (1, 2), (2, 3)]:
        with pytest.raises(InvalidParams):
            hypersimplex._check_key(*key)


def test_invalid_params():
    with pytest.raises(InvalidParams):
        cd_hypersimplex(3, 2)
    with pytest.raises(InvalidParams):
        cd_hypersimplex(-1, 4)
    with pytest.raises(InvalidParams):
        cd_hypersimplex(0, 0)
    with pytest.raises(InvalidParams):
        faces_of_hypersimplex(5, 4)
