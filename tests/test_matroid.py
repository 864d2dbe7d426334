from itertools import combinations
from math import comb

import pytest

from cdx import matroid
from cdx.errors import (
    EmptyMatroid,
    InvalidParams,
    NotAMatroid,
    NotConnected,
    NotSplit,
    PresentationMismatch,
    ScaleExceeded,
)
from cdx.matroid import (
    Matroid,
    _family,
    example_535,
    example_m1,
    example_m2,
    example_m3,
    fano,
    is_connected_split,
    is_sparse_paving,
    mk4,
    sparse_paving,
    split_profile,
    vamos,
)


def test_uniform_basics():
    M = Matroid.uniform(2, 4)
    assert len(M.basis_masks()) == 6
    assert M.rank_of({0, 1, 2}) == 2
    assert M.rank_of({3}) == 1
    assert M.proper_cyclic_flats() == []


def test_from_bases_roundtrip():
    M = Matroid.from_bases(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
    assert M == Matroid.uniform(2, 4)
    assert M.bases()[0] == (0, 1)


def test_not_a_matroid():
    # connected, but without {2,4} and {3,4} the rank is not submodular
    with pytest.raises(NotAMatroid, match=r"not submodular: .* at S=\[4\], x=2, y=3"):
        Matroid.from_bases(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3)])
    # four singleton components, whose ranks add up to 4, not 2
    with pytest.raises(NotAMatroid, match=r"not submodular: .* at S=\[3\], x=1, y=2"):
        Matroid.from_bases(4, 2, [(0, 1), (2, 3)])
    with pytest.raises(NotAMatroid):
        Matroid.from_bases(4, 2, [(0, 1), (0, 1, 2)])
    # two flats meeting in more than r(F) + r(G) - k cut out no matroid
    with pytest.raises(NotAMatroid, match=r"at S=\[1, 2, 6\], x=3, y=4"):
        Matroid.from_cyclic_flats(6, 4, [((0, 1, 2, 5), 3), ((0, 1, 3, 5), 3)])


def test_from_bases_refuses_above_the_cap_before_enumerating(monkeypatch):
    def enumerates(*args):
        raise AssertionError("enumerated the subsets above the cap")

    # from_bases builds the family, then the levels for the axiom check
    monkeypatch.setattr(matroid, "_family", enumerates)
    monkeypatch.setattr(Matroid, "_tabulated", enumerates)
    # U(1,9) on elements 0-8 beside U(2,4) on 9-12: a matroid, but n = 13
    family = [(u,) + t for u in range(9) for t in combinations(range(9, 13), 2)]
    with pytest.raises(ScaleExceeded, match="rank tables capped at n=12, got n=13"):
        Matroid.from_bases(13, 3, family)
    with pytest.raises(ScaleExceeded, match="got n=24"):
        Matroid.from_bases(24, 2, [(a, b) for a in range(12) for b in range(12, 24)])
    for k in (0, 13):  # points are refused too
        with pytest.raises(ScaleExceeded):
            Matroid.from_bases(13, k, [range(k)])
    # malformed bases are still reported as such
    with pytest.raises(InvalidParams):
        Matroid.from_bases(13, 1, [(13,)])
    with pytest.raises(NotAMatroid, match="does not have size"):
        Matroid.from_bases(13, 3, [(0, 1)])


def test_coloop_family_is_a_matroid():
    # {1,2},{1,3} on three elements: element 1 is a coloop, still a matroid
    M = Matroid.from_bases(3, 2, [(0, 1), (0, 2)])
    assert len(M.component_sets()) == 2
    assert not M.is_connected()


def test_empty_matroid():
    with pytest.raises(EmptyMatroid):
        Matroid.from_bases(3, 2, [])
    with pytest.raises(EmptyMatroid):
        # rank-0 cap on three of four elements leaves no rank-2 basis
        Matroid.from_cyclic_flats(4, 2, [((0, 1, 2), 0)])


def test_presentation_mismatch():
    # a rank-2 cap on a 3-set cuts nothing, so it is not a cyclic flat
    with pytest.raises(PresentationMismatch):
        Matroid.from_cyclic_flats(4, 2, [((0, 1, 2), 2)])


def test_from_cyclic_flats_wants_proper_nonempty():
    with pytest.raises(InvalidParams):
        Matroid.from_cyclic_flats(4, 2, [((), 0)])
    with pytest.raises(InvalidParams):
        Matroid.from_cyclic_flats(4, 2, [((0, 1, 2, 3), 1)])


def test_from_cyclic_flats_refuses_above_the_cap_before_enumerating(monkeypatch):
    def enumerates(*args):
        raise AssertionError("enumerated subsets above the cap")

    monkeypatch.setattr(Matroid, "uniform", classmethod(enumerates))
    monkeypatch.setattr(matroid, "_levels", enumerates)
    with pytest.raises(ScaleExceeded, match="rank tables capped at n=12"):
        Matroid.from_cyclic_flats(20, 10, [(range(5), 3)])
    with pytest.raises(ScaleExceeded, match="rank tables capped at n=12"):
        Matroid.from_cyclic_flats(13, 6, [])
    # a malformed flat is still reported as such
    with pytest.raises(InvalidParams):
        Matroid.from_cyclic_flats(13, 6, [((0, 1, 2), 7)])


def test_uniform_refuses_above_the_cap_before_enumerating(monkeypatch):
    def enumerates(*args):
        raise AssertionError("enumerated bases above the cap")

    monkeypatch.setattr(matroid, "_families", enumerates)
    for k, n in ((1, 13), (10, 20), (63, 64), (0, 20), (20, 20), (9, 99)):
        with pytest.raises(ScaleExceeded, match="rank tables capped at n=12"):
            Matroid.uniform(k, n)
    monkeypatch.undo()
    # U(0, n) and U(n, n) have one basis each, and their polytope is a point
    from cdx.engine import cd_index

    for k in (0, 12):
        U = Matroid.uniform(k, 12)
        assert U.basis_masks() == [(1 << k) - 1]
        assert cd_index(U) == 1
    assert len(Matroid.uniform(6, 12).basis_masks()) == comb(12, 6)


def test_from_cyclic_flats_empty_list_is_uniform():
    assert Matroid.from_cyclic_flats(4, 2, []) == Matroid.uniform(2, 4)


def test_fano():
    F = fano()
    assert F.n == 7 and F.rank == 3
    assert len(F.basis_masks()) == comb(7, 3) - 7
    proper = F.proper_cyclic_flats()
    assert len(proper) == 7
    assert all(f.rank == 2 and len(f.elements) == 3 for f in proper)
    # improper cyclic flats are present too
    all_flats = F.cyclic_flats()
    assert (frozenset(), 0) in {(f.elements, f.rank) for f in all_flats}
    assert (frozenset(range(7)), 3) in {(f.elements, f.rank) for f in all_flats}


def test_vamos():
    V = vamos()
    assert V.n == 8 and V.rank == 4
    assert len(V.basis_masks()) == comb(8, 4) - 5
    assert len(V.proper_cyclic_flats()) == 5


def nonbases(M):
    """The rank-sized subsets that are not bases, as sorted tuples."""
    bases = set(M.bases())
    return [c for c in combinations(range(M.n), M.rank) if c not in bases]


def test_example_535():
    M = example_535()
    assert len(M.basis_masks()) == comb(5, 3) - 2
    assert nonbases(M) == [(0, 1, 2), (0, 3, 4)]


def test_cyclic_flats_of_dual():
    for M in (fano(), example_535(), example_m1(), Matroid.uniform(3, 6)):
        D = M.dual()
        ground = frozenset(range(M.n))
        want = {
            (ground - f.elements, len(ground - f.elements) - M.rank + f.rank)
            for f in M.cyclic_flats()
        }
        got = {(f.elements, f.rank) for f in D.cyclic_flats()}
        assert got == want


def test_dual_of_dual():
    M = example_m2()
    assert M.dual().dual() == M


def test_connected_components_square():
    M = Matroid.from_bases(4, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
    comps = M.connected_components()
    assert len(comps) == 2
    assert all(c.n == 2 and c.rank == 1 for c in comps)
    assert fano().is_connected()


def test_relaxation_monotonicity():
    F = fano()
    line = F.proper_cyclic_flats()[0].elements
    R = F.relax(line)
    assert len(R.basis_masks()) == len(F.basis_masks()) + 1
    remaining = {f.elements for f in R.proper_cyclic_flats()}
    assert line not in remaining
    assert len(remaining) == 6


def reference_is_connected_split(M):
    """The relaxation loop is_connected_split replaced: relax a proper
    cyclic flat incomparable to every other one until none is left; M is
    split when the last matroid is uniform."""
    if not M.is_connected():
        return False
    cur = M
    while True:
        proper = [f.elements for f in cur.proper_cyclic_flats()]
        if not proper:
            return len(cur.basis_masks()) == comb(cur.n, cur.rank)
        free = [f for f in proper if all(f == g or not (f <= g or g <= f) for g in proper)]
        if not free:
            return False
        cur = cur.relax(free[0])


def non_split_fixtures():
    """The matroids outside the split class that the tests build."""
    fano_bases = fano().bases()
    return [
        Matroid.from_cyclic_flats(6, 3, [((0, 1), 1), ((0, 1, 2, 3), 2)]),
        Matroid.from_cyclic_flats(10, 4, [((0, 1, 2), 2), ((0, 1, 2, 3, 4, 5), 3)]),
        Matroid.from_bases(4, 2, [(0, 2), (0, 3), (1, 2), (1, 3)]),
        Matroid.from_bases(3, 2, [(0, 1), (0, 2)]),
        Matroid.from_bases(5, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
        Matroid.from_bases(8, 4, [b + (7,) for b in fano_bases]),
        Matroid.from_bases(10, 4, [b + (e,) for b in fano_bases for e in (7, 8, 9)]),
        Matroid.from_bases(5, 3, [(0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4)]),
    ]


def test_split_test_matches_the_relaxation_loop():
    from cdx.cli import corpus

    for name, M in corpus(9):
        assert is_connected_split(M) and reference_is_connected_split(M), name
    for M in non_split_fixtures():
        assert not is_connected_split(M) and not reference_is_connected_split(M), M


def test_modular_pairs_meet_in_an_independent_set():
    """split_profile counts a modular pair F, G as shapes less |F & G|
    without checking that F & G is independent; its docstring shows that
    it is.  Check that on corpus(9) and the n = 12 compute items, and that
    the count is that of the pairs with |F & G| = r(F) + r(G) - k."""
    from cdx.cli import corpus
    from cdx.cuspidal import cuspidal_matroid

    matroids = [M for _, M in corpus(9)] + [
        cuspidal_matroid(5, 12, 3, 6),
        sparse_paving(12, 6, [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 6, 7), (4, 5, 8, 9, 10, 11)]),
    ]
    checked = 0
    for M in matroids:
        modular = [fa.elements & fb.elements
                   for fa, fb in combinations(M.proper_cyclic_flats(), 2)
                   if len(fa.elements & fb.elements) == fa.rank + fb.rank - M.rank]
        assert sum(split_profile(M).mu.values()) == len(modular), M
        for inter in modular:
            assert M.rank_of(inter) == len(inter), (M, sorted(inter))
        checked += sum(1 for inter in modular if inter)
    assert checked > 50  # pairs where the check is not vacuous: 84 of 177


def test_split_profile_refuses_what_is_not_connected_split():
    reasons = [
        "nested proper cyclic flats [1, 2] < [1, 2, 3, 4]",
        "nested proper cyclic flats [1, 2, 3] < [1, 2, 3, 4, 5, 6]",
        "not connected: components [[1, 2], [3, 4]]",
        "not connected: components [[1], [2, 3]]",
        "not connected: components [[1], [2, 3, 4, 5]]",
        "not connected: components [[1, 2, 3, 4, 5, 6, 7], [8]]",
        "not connected: components [[1, 2, 3, 4, 5, 6, 7], [8, 9, 10]]",
        "not connected: components [[1, 2], [3, 4], [5]]",
    ]
    for M, reason in zip(non_split_fixtures(), reasons, strict=True):
        error = NotConnected if not M.is_connected() else NotSplit
        with pytest.raises(error) as exc:
            split_profile(M)
        assert str(exc.value) == reason
        assert is_connected_split(M) == (False, reason)


def test_is_connected_split_uniform_and_sparse():
    assert is_connected_split(Matroid.uniform(3, 7))
    assert is_connected_split(fano())
    assert is_connected_split(vamos())
    assert is_connected_split(mk4())
    assert is_connected_split(example_535())


def test_is_connected_split_rejects_disconnected():
    M = Matroid.from_bases(4, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
    chk = is_connected_split(M)
    assert not chk
    assert "not connected" in chk.reason


def test_is_connected_split_rejects_nested_flats():
    M = Matroid.from_cyclic_flats(6, 3, [((0, 1), 1), ((0, 1, 2, 3), 2)])
    assert M.is_connected()
    chk = is_connected_split(M)
    assert not chk
    assert "nested" in chk.reason


def test_split_profile_fano_vamos():
    p = split_profile(fano())
    assert p.lam == {(2, 3): 7}
    assert p.mu == {(1, 1, 2, 2): 21}
    q = split_profile(vamos())
    assert q.lam == {(3, 4): 5}
    assert q.mu == {(1, 1, 2, 2): 8}


def test_split_profile_m2_has_no_modular_pair():
    p = split_profile(example_m2())
    assert p.lam == {(3, 4): 2}
    assert p.mu == {}
    q = split_profile(example_m1())
    assert q.mu == {(1, 1, 2, 2): 1}


def test_split_profile_rank2_classes():
    # three parallel classes of sizes 2,2,1: every class pair is modular
    bases = [(x, y) for x in (0, 1) for y in (2, 3)]
    bases += [(x, 4) for x in (0, 1, 2, 3)]
    M = Matroid.from_bases(5, 2, bases)
    p = split_profile(M)
    assert p.lam == {(1, 2): 2}
    assert p.mu == {(1, 1, 2, 2): 1}


def test_mu_bound():
    p = split_profile(fano())
    total = sum(p.lam.values())
    assert sum(p.mu.values()) <= comb(total, 2)


def test_is_sparse_paving():
    assert is_sparse_paving(fano())
    assert is_sparse_paving(vamos())
    assert is_sparse_paving(example_m3())
    assert is_sparse_paving(Matroid.uniform(2, 5))  # vacuously
    from cdx.cuspidal import cuspidal_matroid
    assert not is_sparse_paving(cuspidal_matroid(3, 7, 2, 4))


def test_mk4():
    M = mk4()
    assert len(M.basis_masks()) == comb(6, 3) - 4
    p = split_profile(M)
    assert p.lam == {(2, 3): 4}
    assert sum(p.mu.values()) == 6


def test_scale_guards():
    with pytest.raises(InvalidParams):
        Matroid.uniform(9, 8)
    with pytest.raises(ScaleExceeded):
        Matroid.uniform(9, 99)
    with pytest.raises(ScaleExceeded):
        Matroid.uniform(32, 64)
    with pytest.raises(ScaleExceeded):
        Matroid.uniform(7, 14).cyclic_flats()


def test_restriction_relabels():
    M = Matroid.from_bases(5, 3, [(0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4)])
    comps = sorted(M.component_sets(), key=min)
    assert comps == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]
    sub = M.restriction_to_component(frozenset({2, 3}))
    assert sub.n == 2 and sub.rank == 1


def reference_component_sets(M):
    """The partition from every basis-exchange move of every basis."""
    parent = list(range(M.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    bs = set(M.basis_masks())
    for b in bs:
        for x in range(M.n):
            if not b >> x & 1:
                continue
            for y in range(M.n):
                if not b >> y & 1 and b & ~(1 << x) | (1 << y) in bs:
                    parent[find(x)] = find(y)
    groups = {}
    for e in range(M.n):
        groups.setdefault(find(e), set()).add(e)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def fano_beside_a_triangle_a_loop_and_a_coloop():
    # fano (elements 0-6) next to a triangle (7-9), a loop (10), a coloop (11)
    return Matroid(12, 5, _family(
        [b | 1 << t | 1 << 11 for b in fano().basis_masks() for t in (7, 8, 9)], 12))


def test_component_sets_match_the_all_bases_sweep():
    from cdx.cli import _FIXED_BUILTINS, corpus
    from cdx.cuspidal import cuspidal_matroid

    disconnected = fano_beside_a_triangle_a_loop_and_a_coloop()
    matroids = ([M for _, M in corpus(8)] + [f() for f in _FIXED_BUILTINS.values()]
                + [cuspidal_matroid(5, 12, 3, 6), disconnected])
    for M in matroids:
        assert M.component_sets() == reference_component_sets(M), M
    assert disconnected.component_sets() == [
        frozenset(range(7)), frozenset({7, 8, 9}), frozenset({10}), frozenset({11})]


def test_family_operations_match_their_per_mask_references():
    """dual, relax, restriction_to_component and basis_count act on the
    family int; check each against a loop over the basis masks."""
    from cdx.cli import _FIXED_BUILTINS, corpus
    from cdx.cuspidal import cuspidal_matroid

    matroids = ([M for _, M in corpus(8)] + [f() for f in _FIXED_BUILTINS.values()]
                + [cuspidal_matroid(5, 12, 3, 6), fano_beside_a_triangle_a_loop_and_a_coloop()])
    for M in matroids:
        masks = M.basis_masks()
        assert masks == sorted(set(masks)) and M.basis_count() == len(masks), M
        full = (1 << M.n) - 1
        D = M.dual()
        assert (D.n, D.rank) == (M.n, M.n - M.rank), M
        assert D.basis_masks() == sorted(full ^ b for b in masks), M
        k_sets = [sum(1 << e for e in c) for c in combinations(range(M.n), M.rank)]
        for f in M.proper_cyclic_flats():
            fm = sum(1 << e for e in f.elements)
            over = [b for b in k_sets if (b & fm).bit_count() > f.rank]
            R = M.relax(f.elements)
            assert (R.n, R.rank) == (M.n, M.rank), (M, f)
            assert R.basis_masks() == sorted(set(masks) | set(over)), (M, f)
        with pytest.raises(InvalidParams, match="adds no bases"):
            M.relax(())
        for comp in M.component_sets():
            elems = sorted(comp)
            cm = sum(1 << e for e in elems)
            r = max((b & cm).bit_count() for b in masks)
            want = {sum(1 << i for i, e in enumerate(elems) if b >> e & 1)
                    for b in masks if (b & cm).bit_count() == r}
            C = M.restriction_to_component(comp)
            assert (C.n, C.rank) == (len(elems), r), (M, elems)
            assert C.basis_masks() == sorted(want), (M, elems)
            assert C.basis_count() == len(want), (M, elems)
