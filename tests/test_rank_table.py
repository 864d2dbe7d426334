"""`rank_of` on every mask and the cyclic flat sweep against the
basis-scan enumeration they replaced.

The reference below is the cyclic flat sweep as it was before any rank
table: every subset's rank is the largest intersection with a basis, a
flat is a set equal to its closure, and a cyclic set keeps its rank
when any one element is removed.  The second pair of references is a
rank table and the cyclic flat sweep as Python loops over the masks,
as they were before the whole-table passes over the subset masks.
"""

import json
import os
import subprocess
import sys

import pytest

from cdx import cli
from cdx.cuspidal import cuspidal_matroid
from cdx.matroid import (
    CyclicFlat,
    Matroid,
    example_m1,
    fano,
    mk4,
    sparse_paving,
    vamos,
)
from cdx.oracle import oracle_cd_index


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


def loop_rank_table(M):
    """A downward pass from the basis masks marks the independent sets; an
    upward pass gives an independent set its size and any other set the
    largest rank among its one-smaller subsets."""
    full = 1 << M.n
    indep = bytearray(full)
    for b in M.basis_masks():
        indep[b] = 1
    for m in range(full - 1, 0, -1):
        if indep[m]:
            t = m
            while t:
                low = t & -t
                indep[m ^ low] = 1
                t ^= low
    ranks = bytearray(full)
    for m in range(1, full):
        if indep[m]:
            ranks[m] = m.bit_count()
            continue
        best = 0
        t = m
        while t:
            low = t & -t
            r = ranks[m ^ low]
            if r > best:
                best = r
            t ^= low
        ranks[m] = best
    return bytes(ranks)


def loop_cyclic_flats(M, ranks):
    """A flat gains rank from every element added; a cyclic set keeps its
    rank when any one element is removed."""
    def bits(m):
        return [e for e in range(M.n) if m >> e & 1]

    full = (1 << M.n) - 1
    out = []
    for m in range(full + 1):
        r = ranks[m]
        if m and r == m.bit_count():
            continue  # nonempty and independent, so not cyclic
        if any(ranks[m | (1 << e)] == r for e in bits(full ^ m)):
            continue
        if any(ranks[m ^ (1 << e)] != r for e in bits(m)):
            continue
        out.append(CyclicFlat(frozenset(bits(m)), r))
    out.sort(key=lambda f: (len(f.elements), sorted(f.elements)))
    return out


def assert_matches_reference(M, name):
    ranks = reference_ranks(M)
    assert [M.rank_of(m) for m in range(1 << M.n)] == ranks, name
    assert M.cyclic_flats() == reference_cyclic_flats(M, ranks), name
    table = loop_rank_table(M)
    assert bytes(M.rank_of(m) for m in range(1 << M.n)) == table, name
    assert M.cyclic_flats() == loop_cyclic_flats(M, table), name


def loop_and_coloop():
    """Element 0 a loop, 1 and 2 parallel, 3 a coloop."""
    return Matroid.from_bases(4, 2, [(1, 3), (2, 3)])


def test_verify_corpus_matches_reference():
    items = cli.corpus(9)
    assert len(items) == 302
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
    # the same with the loop last: a set of rank j holding the last element
    # holds no independent j-set with it, so only the last step of the
    # upward closure reaches it
    lambda: Matroid.from_bases(5, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    # one-element ground sets, where a family of subsets has two bits
    lambda: Matroid.from_bases(1, 0, [()]),
    lambda: Matroid.from_bases(1, 1, [(0,)]),
    loop_and_coloop,
    lambda: loop_and_coloop().connected_components()[0],
    lambda: loop_and_coloop().connected_components()[2],
], ids=["fano", "vamos", "mk4", "example-m1", "cuspidal-5-12-3-6", "sparse-12-6",
        "loop-plus-u24", "u24-plus-loop", "loop", "coloop", "loop-parallel-pair-coloop",
        "its-loop", "its-coloop"])
def test_named_matroids_match_reference(make):
    assert_matches_reference(make(), "")


def test_one_element_components_are_what_they_seem():
    loop, pair, coloop = loop_and_coloop().connected_components()
    assert (loop.n, loop.rank, [loop.rank_of(m) for m in (0, 1)]) == (1, 0, [0, 0])
    assert loop.cyclic_flats() == [CyclicFlat(frozenset({0}), 0)]
    assert (coloop.n, coloop.rank, [coloop.rank_of(m) for m in (0, 1)]) == (1, 1, [0, 1])
    assert coloop.cyclic_flats() == [CyclicFlat(frozenset(), 0)]
    assert pair.cyclic_flats() == [CyclicFlat(frozenset(), 0), CyclicFlat(frozenset({0, 1}), 1)]


def run_fresh(code, *args):
    """stdout of code run in a fresh interpreter on this checkout's src/."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_importing_ncpoly_and_matroid_leaves_numpy_unloaded():
    # nor do the recursions' modules, nor the hypersimplex recursion itself:
    # numpy alone would add about 14 MB to such a process's peak memory
    code = ("import sys, cdx.ncpoly, cdx.matroid, cdx.hypersimplex, cdx.cuspidal, cdx.engine\n"
            "for n in range(2, 11):\n"
            "    for k in range(1, n):\n"
            "        cdx.hypersimplex.cd_hypersimplex(k, n)\n"
            "print('numpy' in sys.modules)")
    assert run_fresh(code).strip() == "False"


def test_compute_leaves_numpy_unloaded_until_the_oracle_fallback(tmp_path):
    # only the oracle loads numpy: verify and --oracle-fallback need it,
    # compute on a split matroid never does
    bases = tmp_path / "square.json"
    bases.write_text(json.dumps({"n": 4, "rank": 2, "bases": [[1, 3], [1, 4], [2, 3], [2, 4]]}))
    flats = tmp_path / "sparse.json"
    flats.write_text(json.dumps({"n": 8, "rank": 4, "cyclic_flats": [
        {"set": [1, 2, 3, 4], "rank": 3}, {"set": [1, 2, 5, 6], "rank": 3}]}))
    nested = tmp_path / "nested.json"  # connected and not split
    nested.write_text(json.dumps({"n": 6, "rank": 3, "cyclic_flats": [
        {"set": [1, 2], "rank": 1}, {"set": [1, 2, 3, 4], "rank": 2}]}))
    code = ("import contextlib, io, sys\n"
            "from cdx.cli import main\n"
            "inputs = [['--builtin', 'fano'], ['--builtin', 'vamos'],\n"
            "          ['--builtin', 'cuspidal', '--k', '5', '--n', '12', '--r', '3', '--h', '6'],\n"
            "          ['--file', sys.argv[1]], ['--file', sys.argv[2]]]\n"
            "for args in inputs:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(['compute', *args, '--f-vector', '--flag-f']) == 0, args\n"
            "print('numpy' in sys.modules)\n"
            "main(['compute', '--file', sys.argv[3], '--oracle-fallback'])\n"
            "print('numpy' in sys.modules)\n")
    unloaded, fallback, loaded = run_fresh(code, str(bases), str(flats), str(nested)).splitlines()
    assert (unloaded, loaded) == ("False", "True")
    M = Matroid.from_cyclic_flats(6, 3, [((0, 1), 1), ((0, 1, 2, 3), 2)])
    assert fallback == oracle_cd_index(M).text()
