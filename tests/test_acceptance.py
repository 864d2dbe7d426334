"""Acceptance gate: one test per shipped guarantee, with its time budget.

Every numeric value asserted here was frozen from an independent
computation before the recursion code produced it.
"""

import random
import time

from cdx import cli, engine, matroid
from cdx.cuspidal import _compute as cuspidal_compute
from cdx.cuspidal import check_key, dual_key
from cdx.cuspidal import memo_clear as cuspidal_clear
from cdx.errors import InvalidParams
from cdx.hypersimplex import _compute as hyp_compute
from cdx.hypersimplex import cd_hypersimplex
from cdx.hypersimplex import memo_clear as hyp_clear
from cdx.ncpoly import NcPoly, ab_to_cd, cd_f_vector, cd_to_ab, cd_to_flag_f
from cdx.oracle import eulerian_check, face_lattice, oracle_cd_index

DELTA_2_5_CD = "cccc + 8*ccd + 20*cdc + 8*dcc + 14*dd"

DELTA_2_5_AB = (
    "aaaa + 9*aaab + 29*aaba + 21*aabb + 29*abaa + 51*abab + 31*abba"
    " + 9*abbb + 9*baaa + 31*baab + 51*baba + 29*babb + 21*bbaa"
    " + 29*bbab + 9*bbba + bbbb"
)


def test_criterion_1_small_hypersimplex_exact():
    t0 = time.perf_counter()
    p = cd_hypersimplex(2, 5)
    dt = time.perf_counter() - t0
    assert p.text() == DELTA_2_5_CD
    assert dt < 1.0


def test_criterion_2_ab_expansion_exact():
    t0 = time.perf_counter()
    ab = cd_to_ab(cd_hypersimplex(2, 5))
    dt = time.perf_counter() - t0
    assert ab.text() == DELTA_2_5_AB
    assert len(ab.terms()) == 16
    assert dt < 1.0


def test_criterion_3_three_rank4_matroids():
    t0 = time.perf_counter()
    p1 = engine.cd_index(matroid.example_m1())
    p2 = engine.cd_index(matroid.example_m2())
    p3 = engine.cd_index(matroid.example_m3())
    dt = time.perf_counter() - t0
    assert p1.text() == cli.PAPER_VALUES["example-m1"]
    assert p2.text() == cli.PAPER_VALUES["example-m2"]
    assert p3 == p2
    assert p1 != p2
    assert p2 - p1 == engine.w_term(1, 1, 2, 2, 8)
    assert dt < 10.0


def test_criterion_4_fano_and_vamos_cold():
    hyp_clear()
    cuspidal_clear()
    engine.w_memo_clear()
    t0 = time.perf_counter()
    fano = matroid.fano()
    prof = matroid.split_profile(fano)
    assert sum(prof.lam.values()) == 7
    assert sum(prof.mu.values()) == 21
    pf = engine.cd_index(fano)
    assert pf.text() == cli.PAPER_VALUES["fano"]
    assert len(pf.terms()) == 13

    vamos = matroid.vamos()
    prof = matroid.split_profile(vamos)
    assert sum(prof.lam.values()) == 5
    assert sum(prof.mu.values()) == 8
    pv = engine.cd_index(vamos)
    assert pv.text() == cli.PAPER_VALUES["vamos"]
    dt = time.perf_counter() - t0
    assert dt < 30.0


def test_criterion_5_sparse_fast_path_matches_general():
    t0 = time.perf_counter()
    cases = [("fano", matroid.fano()), ("vamos", matroid.vamos())]
    generated = [item for item in cli.corpus(9) if item[0].startswith("sparse-")]
    assert len(generated) >= 50
    cases += generated
    for name, m in cases:
        assert engine.cd_sparse_paving(m) == engine.cd_split_matroid(m), name
    dt = time.perf_counter() - t0
    assert dt < 120.0


def test_criterion_6_formula_equals_oracle_on_corpus():
    t0 = time.perf_counter()
    items = cli.corpus(7)
    assert len(items) > 100
    for name, m in items:
        assert engine.cd_index(m) == oracle_cd_index(m), name
    dt = time.perf_counter() - t0
    assert dt < 600.0


def test_criterion_7_w_closed_form_and_duality():
    c2d_plus_2d2 = NcPoly.word("ccd") + 2 * NcPoly.word("dd")
    for n in range(5, 13):
        want = c2d_plus_2d2 * cd_hypersimplex(1, n - 4)
        assert engine.w_term(1, 1, 2, 2, n) == want, n
    for n in range(2, 10):
        for k in range(1, n):
            assert hyp_compute(k, n) == hyp_compute(n - k, n), (k, n)
    for n in range(4, 10):
        for k in range(1, n):
            for h in range(2, n):
                for r in range(1, min(k, h)):
                    try:
                        check_key(k, n, r, h)
                    except InvalidParams:
                        continue
                    dk, dn, dr, dh = dual_key(k, n, r, h)
                    assert cuspidal_compute(k, n, r, h) == \
                        cuspidal_compute(dk, dn, dr, dh), (k, n, r, h)


def _random_cd_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        deg = rng.randint(0, 10)
        w = []
        while deg > 0:
            if deg >= 2 and rng.random() < 0.5:
                w.append("d")
                deg -= 2
            else:
                w.append("c")
                deg -= 1
        coeff = rng.randint(-99, 99)
        if coeff:
            terms["".join(w)] = terms.get("".join(w), 0) + coeff
    return NcPoly(terms)


def test_criterion_8_property_suite():
    rng = random.Random(20260822)
    for _ in range(1000):
        p = _random_cd_poly(rng)
        assert ab_to_cd(cd_to_ab(p)) == p

    computed = [cd_hypersimplex(k, n) for n in range(2, 9) for k in range(1, n)]
    computed += [engine.cd_index(matroid.fano()),
                 engine.cd_index(matroid.vamos()),
                 engine.cd_index(matroid.example_m1())]
    for p in computed:
        ab = cd_to_ab(p)
        assert ab.mirror() == ab
        fv = cd_to_flag_f(p, p.degree())
        assert cd_f_vector(p, p.degree()) == fv.f_vector()
        assert fv.f(frozenset()) == 1
        for s, val in fv.entries().items():
            assert val >= 0, s
        for coeff in p.terms().values():
            assert coeff >= 0

    for name, m in cli.corpus(6):
        ok, witness = eulerian_check(face_lattice(m))
        assert ok, (name, witness)
