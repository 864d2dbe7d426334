"""The product kernel against the oracle and against the convolution it
replaced.

The reference below is the former kernel: for each subset S of
dimensions it enumerates every splitting of S into weakly
nondecreasing (e, g) pairs, and looks the factors' flag entries up by
frozenset, the improper top dimension of a factor dropped from its set.
"""

import pytest

from cdx.errors import InvalidParams
from cdx.hypersimplex import cd_hypersimplex, cd_hypersimplex_product
from cdx.matroid import Matroid, _bits, _family
from cdx.ncpoly import FlagFVector, NcPoly, cd_to_flag_f, flag_to_cd
from cdx.oracle import oracle_cd_index
from cdx.product import cd_product, cd_product_all


def reference_product(p, q):
    dp, dq = p.degree(), q.degree()
    fp = cd_to_flag_f(p, dp)
    fq = cd_to_flag_f(q, dq)

    def extended(fv, dims):
        return fv.f(frozenset(d for d in dims if d != fv.dim))

    D = dp + dq
    entries = {}
    for smask in range(1 << D):
        S = _bits(smask)
        total = 0
        # split each chain dimension s into e + g, both weakly nondecreasing
        stack = [(0, 0, 0, ())]  # index into S, min e, min g, e-sequence
        while stack:
            i, emin, gmin, seq = stack.pop()
            if i == len(S):
                e_dims = frozenset(seq)
                g_dims = frozenset(s - e for s, e in zip(S, seq))
                total += extended(fp, e_dims) * extended(fq, g_dims)
                continue
            s = S[i]
            for e in range(max(emin, s - dq), min(dp, s - gmin) + 1):
                stack.append((i + 1, e, s - e, seq + (e,)))
        entries[frozenset(S)] = total
    return flag_to_cd(FlagFVector(D, entries))


C = NcPoly.word("c")
# the point, the segment, and every hypersimplex with n <= 7 up to duality
FACTORS = [NcPoly.one(), C] + [cd_hypersimplex(k, n)
                               for n in range(3, 8) for k in range(1, n // 2 + 1)]


def direct_sum(*matroids):
    n = sum(M.n for M in matroids)
    rank = sum(M.rank for M in matroids)
    masks = [0]
    at = 0
    for M in matroids:
        masks = [b | m << at for b in masks for m in M.basis_masks()]
        at += M.n
    return Matroid(n, rank, _family(masks, n))


def test_point_is_the_unit():
    one = NcPoly.one()
    c = NcPoly.word("c")
    assert cd_product(one, c) == c
    assert cd_product(c, one) == c
    assert cd_product(one, one) == one
    # a point factor returns the other factor without a convolution
    p = cd_hypersimplex(3, 7)
    assert cd_product(one, p) is p
    assert cd_product(p, one) is p


def test_square():
    c = NcPoly.word("c")
    assert cd_product(c, c) == NcPoly.from_text("cc + 2*d")


def test_cube_and_prism_against_oracle():
    seg = Matroid.uniform(1, 2)
    tri = Matroid.uniform(1, 3)
    c = NcPoly.word("c")
    cube = direct_sum(seg, seg, seg)
    assert cd_product_all([c, c, c]) == oracle_cd_index(cube)
    prism = direct_sum(seg, tri)
    assert cd_product(c, cd_hypersimplex(1, 3)) == oracle_cd_index(prism)


def test_products_of_hypersimplices_against_oracle():
    pairs = [(1, 2, 1, 3), (1, 2, 2, 4), (1, 3, 1, 3), (2, 4, 2, 4),
             (2, 5, 1, 3), (1, 2, 2, 5), (1, 2, 1, 2)]
    for k1, n1, k2, n2 in pairs:
        got = cd_product(cd_hypersimplex(k1, n1), cd_hypersimplex(k2, n2))
        want = oracle_cd_index(direct_sum(Matroid.uniform(k1, n1),
                                          Matroid.uniform(k2, n2)))
        assert got == want, (k1, n1, k2, n2)


def test_commutative_and_associative():
    ps = [cd_hypersimplex(1, 3), cd_hypersimplex(2, 4), NcPoly.word("c")]
    for a in ps:
        for b in ps:
            assert cd_product(a, b) == cd_product(b, a)
    a, b, c = ps
    assert cd_product(cd_product(a, b), c) == cd_product(a, cd_product(b, c))


def test_degrees_add():
    p = cd_product(cd_hypersimplex(2, 5), cd_hypersimplex(2, 4))
    assert p.degree() == 4 + 3
    assert p.is_homogeneous()


def test_rejects_bad_inputs():
    with pytest.raises(InvalidParams):
        cd_product(NcPoly.word("c") + NcPoly.one(), NcPoly.word("c"))
    with pytest.raises(InvalidParams):
        cd_product(NcPoly.zero(), NcPoly.word("c"))
    # a point's cd-index is 1, not another constant
    with pytest.raises(InvalidParams):
        cd_product(NcPoly({"": 2}), NcPoly.word("c"))
    with pytest.raises(InvalidParams):
        cd_product(NcPoly.word("c"), NcPoly({"": 5}))


def test_kernel_matches_reference_on_hypersimplices():
    checked = 0
    for i, p in enumerate(FACTORS):
        for q in FACTORS[i:]:
            if p.degree() + q.degree() <= 9:
                got = cd_product(p, q)
                assert got == reference_product(p, q), (p.text(), q.text())
                assert cd_product(q, p) == got
                checked += 1
    assert checked == 64


def test_kernel_matches_reference_on_other_factors():
    cube = cd_product_all([C, C, C])
    stacked = cd_product(C, cd_product(C, cd_hypersimplex(1, 3)))
    assert stacked.degree() == 4
    for p in (cube, stacked):
        for q in [cube, stacked] + FACTORS:
            if p.degree() + q.degree() <= 9:
                assert cd_product(p, q) == reference_product(p, q), (p.text(), q.text())
                assert cd_product(q, p) == cd_product(p, q)


def test_stratified_hypersimplex_products_match_the_chain_walk():
    # every pair of hypersimplices of dimension >= 1 up to duality, with
    # the product of degree <= 9
    shapes = [(k, n) for n in range(2, 11) for k in range(1, n // 2 + 1)]
    checked = 0
    for k1, n1 in shapes:
        for k2, n2 in shapes:
            if n1 + n2 - 2 <= 9:
                want = cd_product(cd_hypersimplex(k1, n1), cd_hypersimplex(k2, n2))
                assert cd_hypersimplex_product(k1, n1, k2, n2) == want, (k1, n1, k2, n2)
                assert cd_hypersimplex_product(n2 - k2, n2, k1, n1) == want
                checked += 1
    assert checked == 120
