"""Properties of the matroid axiom check and the split test, on random
k-set families and cyclic flat lists (fuzz_inputs.matroid_candidates)
judged by a basis exchange scan in both directions, the axiom check
against a per-pair submodularity scan of the whole rank table, and the
components of direct sums of uniform matroids whose summands interleave
in element order."""

import json
import os
import tempfile
from itertools import combinations, product
from math import prod

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdx import cli
from cdx.engine import cd_index
from cdx.errors import NotAMatroid
from cdx.hypersimplex import cd_hypersimplex
from cdx.matroid import Matroid, _bits, _family, _mask, _shown, is_connected_split
from cdx.product import cd_product_all
from fuzz_inputs import matroid_candidates
from test_matroid import reference_component_sets, reference_is_connected_split
from test_rank_table import loop_rank_table


def candidate_family(obj):
    """The k-sets of a matroid_candidates object, 0-based: its bases, or
    the uniform k-sets that meet each flat in at most its rank."""
    n, k = obj["n"], obj["rank"]
    if "bases" in obj:
        return [tuple(e - 1 for e in b) for b in obj["bases"]]
    flats = [({e - 1 for e in f["set"]}, f["rank"]) for f in obj["cyclic_flats"]]
    return [c for c in combinations(range(n), k)
            if all(len(s.intersection(c)) <= r for s, r in flats)]


def exchange_holds(family):
    """The basis exchange axiom, scanned over every ordered pair: for each
    x in B1 - B2 some y in B2 - B1 has B1 - x + y in the family."""
    fam = {frozenset(b) for b in family}
    return all(any(b1 - {x} | {y} in fam for y in b2 - b1)
               for b1 in fam for b2 in fam for x in b1 - b2)


def pair_scan_check_axioms(M):
    """The axiom check as one group of array steps per pair x < y, on the
    loop-built rank table of the whole ground set: the first pair with a
    violation, then its smallest S, names the witness."""
    r = np.frombuffer(loop_rank_table(M), dtype=np.uint8)  # ranks <= 12: no uint8 wrap
    masks = np.arange(1 << M.n)
    for x, y in combinations(range(M.n), 2):
        bx, by = 1 << x, 1 << y
        s = masks[masks & (bx | by) == 0]
        bad = s[r[s | bx] + r[s | by] < r[s | bx | by] + r[s]]
        if bad.size:
            raise NotAMatroid("rank not submodular: r(S+x) + r(S+y) < r(S+x+y) + r(S) at "
                              "S=%r, x=%d, y=%d" % (_shown(_bits(int(bad[0]))), x + 1, y + 1))


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(matroid_candidates())
def test_axiom_check_names_the_pair_scan_witness(obj):
    family = candidate_family(obj)
    if not family or exchange_holds(family):
        return
    with pytest.raises(NotAMatroid) as scanned:
        pair_scan_check_axioms(Matroid(obj["n"], obj["rank"],
                                       _family([_mask(b) for b in family], obj["n"])))
    with pytest.raises(NotAMatroid) as checked:
        Matroid.from_bases(obj["n"], obj["rank"], family)
    assert str(checked.value) == str(scanned.value), obj


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(matroid_candidates())
def test_compute_refuses_what_is_not_a_matroid(obj):
    family = candidate_family(obj)
    if family and exchange_holds(family):
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        assert cli.main(["compute", "--file", path]) == 2, obj


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(matroid_candidates())
def test_split_test_matches_the_relaxation_loop_on_matroids(obj):
    family = candidate_family(obj)
    if not (family and exchange_holds(family)):
        return
    M = Matroid.from_bases(obj["n"], obj["rank"], family)
    split = bool(is_connected_split(M))
    assert split == reference_is_connected_split(M), obj
    if split:
        for fa, fb in combinations(M.proper_cyclic_flats(), 2):
            assert len(fa.elements & fb.elements) <= fa.rank + fb.rank - M.rank, obj


@st.composite
def shuffled_uniform_sums(draw):
    """The summands (k, m) of a direct sum of uniform matroids U(k, m) on at
    most 12 elements in all, loops U(0, 1) and coloops U(1, 1) among them,
    and the order of the ground set that deals out their elements."""
    parts, n = [], 0
    while n < 12 and (len(parts) < 2 or draw(st.booleans())):
        m = draw(st.integers(1, min(8, 12 - n)))
        parts.append((draw(st.integers(0, 1) if m == 1 else st.integers(1, m - 1)), m))
        n += m
    return parts, draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(shuffled_uniform_sums())
def test_components_of_interleaved_uniform_sums(drawn):
    parts, order = drawn
    blocks, at = [], 0
    for k, m in parts:
        blocks.append((k, order[at:at + m]))
        at += m
    bases = [sum(pick, ()) for pick in product(*[combinations(elems, k) for k, elems in blocks])]
    M = Matroid.from_bases(len(order), sum(k for k, _ in parts), bases)
    comps = M.component_sets()
    assert comps == reference_component_sets(M), drawn
    # each summand with 0 < k < m is connected, a loop or coloop is alone
    blocks.sort(key=lambda b: min(b[1]))
    assert comps == [frozenset(elems) for _, elems in blocks], drawn
    subs = M.connected_components()
    assert [(C.n, C.rank) for C in subs] == [(len(elems), k) for k, elems in blocks], drawn
    assert subs == [Matroid.uniform(C.rank, C.n) for C in subs], drawn
    assert prod(C.basis_count() for C in subs) == M.basis_count(), drawn
    # the components' cd-indices taken from the summands, not from M
    assert cd_index(M) == cd_product_all([cd_hypersimplex(k, m) for k, m in parts]), drawn
