"""The per-matroid rank table against the basis-scan enumeration it replaced.

The reference below is the cyclic flat sweep as it was before the rank
table: every subset's rank is the largest intersection with a basis, a
flat is a set equal to its closure, and a cyclic set keeps its rank
when any one element is removed.
"""

import pytest

from cdx import cli
from cdx.cuspidal import cuspidal_matroid
from cdx.errors import ScaleExceeded
from cdx.matroid import (
    CyclicFlat,
    Matroid,
    example_m1,
    fano,
    mk4,
    sparse_paving,
    vamos,
)


def reference_ranks(M):
    bases = M.basis_masks()
    return [max((b & m).bit_count() for b in bases) for m in range(1 << M.n)]


def reference_cyclic_flats(M, ranks):
    def bits(m):
        return [e for e in range(M.n) if m >> e & 1]

    def closure_mask(m):
        out = m
        for e in range(M.n):
            bit = 1 << e
            if not m & bit and ranks[m | bit] == ranks[m]:
                out |= bit
        return out

    out = []
    for m in range(1 << M.n):
        r = ranks[m]
        if closure_mask(m) != m:
            continue
        if any(ranks[m & ~(1 << e)] != r for e in bits(m)):
            continue
        out.append(CyclicFlat(frozenset(bits(m)), r))
    out.sort(key=lambda f: (len(f.elements), sorted(f.elements)))
    return out


def assert_matches_reference(M, name):
    ranks = reference_ranks(M)
    assert [M.rank_of(m) for m in range(1 << M.n)] == ranks, name
    assert M.cyclic_flats() == reference_cyclic_flats(M, ranks), name


def test_verify_corpus_matches_reference():
    items = cli.corpus(8)
    assert len(items) == 186
    for name, M in items:
        assert_matches_reference(M, name)


@pytest.mark.parametrize("make", [
    fano,
    vamos,
    mk4,
    example_m1,
    lambda: cuspidal_matroid(5, 12, 3, 6),
    lambda: sparse_paving(12, 6, [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 6, 7),
                                  (4, 5, 8, 9, 10, 11)]),
    # a loop (element 0) beside a uniform matroid: the only circuit through
    # 0 is {0}, and {0} is a proper cyclic flat
    lambda: Matroid.from_bases(5, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
], ids=["fano", "vamos", "mk4", "example-m1", "cuspidal-5-12-3-6", "sparse-12-6",
        "loop-plus-u24"])
def test_named_matroids_match_reference(make):
    assert_matches_reference(make(), "")


def test_closure_reads_the_table():
    F = fano()
    assert F.closure({0, 1}) == frozenset({0, 1, 2})
    assert F.closure({0, 1, 3}) == frozenset(range(7))
    assert F.closure(0b1) == frozenset({0})


def test_above_the_cap_rank_scans_the_bases():
    U = Matroid.uniform(3, 13)
    assert U.rank_of({0, 1, 2, 3, 4}) == 3
    assert U.closure({0, 1}) == frozenset({0, 1})
    with pytest.raises(ScaleExceeded):
        U.cyclic_flats()
