import random
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdx.errors import (
    CdxError,
    DegreeMismatch,
    InvalidAlphabet,
    InvalidParams,
    NegativeFlag,
    NoCdForm,
    NotCdEquivalent,
)
from cdx.ncpoly import (
    A,
    B,
    C,
    D,
    FlagFVector,
    NcPoly,
    ab_to_cd,
    cd_to_ab,
    cd_f_vector,
    cd_order,
    cd_to_flag_f,
    chain_sum,
    expand_ab,
    flag_to_ab,
    flag_to_cd,
    normalize_mixed,
    word_degree,
)
from cdx import cli, cuspidal, engine, hypersimplex, ncpoly
from cdx.hypersimplex import cd_hypersimplex, face_type_counts
from reference import emve_mixed, g_cd

# (a-b)^2 = c^2 - 2d, b(a-b) = d - cb, a - b = c - 2b as ab expansions
E = A - B


def test_word_degree():
    assert word_degree("") == 0
    assert word_degree("abc") == 3
    assert word_degree("d") == 2
    assert word_degree("cdc") == 4


def test_noncommutative_mul():
    p = (C + D) * (C - D)
    assert p == NcPoly({"cc": 1, "cd": -1, "dc": 1, "dd": -1})
    assert C * D != D * C


def test_scalar_and_pow():
    assert 3 * C - C == 2 * C
    assert (C - C) == NcPoly.zero()
    assert E**2 == NcPoly({"aa": 1, "ab": -1, "ba": -1, "bb": 1})
    assert C**0 == NcPoly.one()


def test_letter_identities():
    # the letter algebra used everywhere downstream
    assert expand_ab(C * C - 2 * D) == E * E
    assert expand_ab(D - C * B) == B * E
    assert expand_ab(C - 2 * B) == E
    # [b, (a-b)^2] = [d, c]
    assert B * E**2 - E**2 * B == expand_ab(D * C - C * D)


def test_invalid_alphabet():
    with pytest.raises(InvalidAlphabet):
        NcPoly({"cx": 1})
    with pytest.raises(InvalidAlphabet):
        cd_to_ab(A + C)
    with pytest.raises(InvalidAlphabet):
        ab_to_cd(C)


def test_invalid_alphabet_with_zero_coefficient():
    # a foreign letter is refused whatever its coefficient
    with pytest.raises(InvalidAlphabet):
        NcPoly.from_text("0*x + c")
    with pytest.raises(InvalidAlphabet):
        NcPoly({"cx": 0})
    with pytest.raises(InvalidAlphabet):
        NcPoly.from_text("x - x")


def test_cd_to_ab_basics():
    assert cd_to_ab(C) == A + B
    assert cd_to_ab(D) == A * B + B * A
    assert cd_to_ab(NcPoly.one()) == NcPoly.one()


def test_ab_to_cd_basics():
    assert ab_to_cd(A + B) == C
    assert ab_to_cd(A * B + B * A) == D
    assert ab_to_cd(E * E) == C * C - 2 * D
    assert ab_to_cd(NcPoly({"": 5})) == NcPoly({"": 5})


def test_ab_to_cd_rejects():
    with pytest.raises(NoCdForm):
        ab_to_cd(A)
    with pytest.raises(NoCdForm):
        ab_to_cd(A * A)
    with pytest.raises(NoCdForm):
        ab_to_cd(A * B)  # not symmetric
    with pytest.raises(NoCdForm):
        ab_to_cd(cd_to_ab(D) + A * B)  # 2ab + ba
    with pytest.raises(NoCdForm):
        ab_to_cd(expand_ab(C**3) - A * B * A - B * A * B)
    # aa + bb is symmetric and does land in the cd algebra
    assert ab_to_cd(A * A + B * B) == C * C - D


def test_roundtrip_small():
    for p in [C, D, C * C, C * D + 3 * D * C, (C + D) ** 3, NcPoly.one()]:
        assert ab_to_cd(cd_to_ab(p)) == p


def test_roundtrip_random():
    rng = random.Random(7)
    cd_words = {0: [""]}
    for deg in range(1, 11):
        ws = ["c" + w for w in cd_words[deg - 1]]
        if deg >= 2:
            ws += ["d" + w for w in cd_words[deg - 2]]
        cd_words[deg] = ws
    for _ in range(120):
        deg = rng.randint(1, 10)
        ws = cd_words[deg]
        p = NcPoly({w: rng.randint(-9, 9) for w in rng.sample(ws, min(len(ws), 5))})
        assert ab_to_cd(cd_to_ab(p)) == p


def test_mirror_symmetry_of_cd_expansion():
    rng = random.Random(11)
    for _ in range(40):
        words = ["c" * rng.randint(0, 2) + "d" + "c" * rng.randint(0, 2) for _ in range(3)]
        p = NcPoly({w: rng.randint(1, 5) for w in words})
        ab = cd_to_ab(p)
        assert ab.mirror() == ab


def test_g_cd_first_values():
    assert g_cd(0) == B
    assert g_cd(1) == D - C * B
    assert g_cd(2) == (C * C - 2 * D) * B + D * C - C * D


def test_g_cd_matches_ab_definition():
    for t in range(13):
        assert expand_ab(g_cd(t)) == B * E**t


def test_g_cd_invalid():
    with pytest.raises(InvalidParams):
        g_cd(-1)


def emve(dim, num_vertices):
    """(a-b)^dim + num_vertices * b(a-b)^(dim-1); just 1 when dim = 0.

    The reference for emve_mixed, which writes the same polynomial with
    every b a trailing letter.
    """
    if dim < 0:
        raise InvalidParams("dimension must be >= 0")
    if num_vertices < 1:
        raise InvalidParams("a polytope has at least one vertex")
    if dim == 0:
        return NcPoly.one()
    return E**dim + num_vertices * (B * E ** (dim - 1))


def test_emve():
    assert emve(0, 1) == NcPoly.one()
    assert emve(1, 2) == A + B
    assert emve(4, 10) == E**4 + 10 * (B * E**3)
    with pytest.raises(InvalidParams):
        emve(-1, 1)
    with pytest.raises(InvalidParams):
        emve(2, 0)


def test_emve_mixed_agrees():
    for dim in range(9):
        for nv in (1, 2, 7):
            assert expand_ab(emve_mixed(dim, nv)) == expand_ab(emve(dim, nv))


def test_normalize_mixed():
    assert normalize_mixed(D - C * B + C * B) == D
    assert normalize_mixed(C) == C
    assert normalize_mixed(C + D) == C + D
    # segment: EmVe(1, 2) = (c-2b) + 2b
    assert normalize_mixed(emve_mixed(1, 2)) == C
    with pytest.raises(NotCdEquivalent):
        normalize_mixed(B)
    with pytest.raises(NotCdEquivalent):
        normalize_mixed(C * B * C)  # b stuck in the middle
    # an a is never read as part of a c: a + b is not a chain count
    with pytest.raises(NotCdEquivalent):
        normalize_mixed(A + B)
    # the error names the first word that is not a cd word by word_key
    with pytest.raises(NotCdEquivalent, match=r"residue 3\*cb "):
        normalize_mixed(D * C + 3 * C * B + 2 * D * B)
    with pytest.raises(NotCdEquivalent, match=r"-2\*a is neither"):
        normalize_mixed(C * B * C - 2 * A)


def cd_words_of_degree(d):
    """Every cd word of degree d, from all strings over c and d."""
    return {"".join(w) for m in range(d + 1) for w in product("cd", repeat=m)
            if word_degree("".join(w)) == d}


def test_cd_order_lists_each_cd_word_once_in_suffix_blocks():
    for d in range(13):
        order = cd_order(d)
        assert len(order) == len(set(order)) and set(order) == cd_words_of_degree(d), d
        for e in range(d + 1):
            prefixes = cd_order(d - e)
            for u in cd_words_of_degree(e):
                at = [i for i, w in enumerate(order) if w.endswith(u)]
                # one block, its prefixes in the order of cd_order(d - e)
                assert at == list(range(at[0], at[0] + len(prefixes))), (d, u)
                assert [order[i][:len(order[i]) - len(u)] for i in at] == list(prefixes)


def slot_extremes(bits):
    half = 1 << (bits - 1)
    return [0, 1, -1, half - 1, -(half - 1), -half]


@pytest.mark.parametrize("bits", [64, 128, 192])
def test_packed_slots_round_trip(bits):
    vals = slot_extremes(bits)
    for order in (vals, vals[::-1]):
        x = ncpoly._pack(order, bits)
        assert x == sum(v << bits * i for i, v in enumerate(order))
        assert list(ncpoly._unpack(x, len(order), bits)) == order
    for v in vals:
        assert list(ncpoly._unpack(ncpoly._pack([v], bits), 1, bits)) == [v]
    # trailing zero slots read back as zeros
    assert list(ncpoly._unpack(ncpoly._pack([-1], bits), 3, bits)) == [-1, 0, 0]


def test_slot_width_is_the_least_multiple_of_64_holding_the_bound():
    assert ncpoly._width(0) == 64
    assert ncpoly._width(2**63 - 1) == 64
    assert ncpoly._width(2**63) == 128
    assert ncpoly._width(2**127 - 1) == 128
    assert ncpoly._width(2**127) == 192


def test_per_slot_decode_agrees_with_the_64_bit_one():
    # _unpack reads 64-bit words; a slot's own signed bytes must agree
    rng = random.Random(5)
    for bits in (64, 128, 192):
        half = 1 << (bits - 1)
        vals = slot_extremes(bits) + [rng.randint(-half, half - 1) for _ in range(50)]
        x = ncpoly._pack(vals, bits)
        off = ncpoly._offset(len(vals), bits)
        raw = ((x + off) ^ off).to_bytes(bits // 8 * len(vals), "little")
        size = bits // 8
        per_slot = [int.from_bytes(raw[i:i + size], "little", signed=True)
                    for i in range(0, len(raw), size)]
        assert per_slot == list(ncpoly._unpack(x, len(vals), bits)) == vals, bits


@pytest.mark.parametrize("wide", [128, 192])
def test_widening_a_packing_equals_packing_at_the_wider_width(wide):
    rng = random.Random(wide)
    vals = slot_extremes(64) + [rng.randint(-2**63, 2**63 - 1) for _ in range(50)]
    for order in (vals, vals[::-1], [-1], [0, 0, 2**63 - 1]):
        x = ncpoly._pack(order, 64)
        assert ncpoly._repack(x, len(order), 64, wide) == ncpoly._pack(order, wide)
        # and back, every value still in range
        assert ncpoly._repack(ncpoly._pack(order, wide), len(order), wide, 64) == x
    # a 128-bit packing widened to 192 bits
    vals = slot_extremes(128)
    assert ncpoly._repack(ncpoly._pack(vals, 128), len(vals), 128, 192) == ncpoly._pack(vals, 192)


def test_a_chain_sum_result_is_repacked_from_its_own_packing():
    hypersimplex.memo_clear()
    p = cd_hypersimplex(5, 11)
    assert p._dict is None and set(p._vec[2]) == {64}
    for wide in (128, 192):
        x = ncpoly._packed(p, 10, wide)
        assert p._dict is None
        assert x == ncpoly._pack([p.terms().get(w, 0) for w in cd_order(10)], wide)
    assert set(p._vec[2]) == {64, 128, 192}
    assert p == NcPoly(p.terms()) and p._dict is not None


def hypersimplex_off_facet(k, n):
    """(f0, faces) of the (k, n) hypersimplex off its facet x_n = 0: the
    vertices with x_n = 1, and the faces pinned by (C, D), n not in D."""
    faces = [(i + j, cd_hypersimplex(k - i, n - i - j), comb(n - 1, j) * comb(n - j, i))
             for i, j in face_type_counts(k, n)]
    return comb(n - 1, k - 1), faces


def test_chain_sum_with_a_facet_term_on_every_hypersimplex_up_to_n14():
    # n - 1 runs over both parities of the dimension
    for n in range(3, 15):
        for k in range(1, n - 1):
            f0, faces = hypersimplex_off_facet(k, n)
            got = chain_sum(n - 1, f0, faces, facet=cd_hypersimplex(k, n - 1))
            assert got == cd_hypersimplex(k, n), (k, n)


def test_chain_sum_with_a_perturbed_facet_leaves_a_residue():
    for k, n in [(2, 5), (3, 7), (2, 6)]:
        f0, faces = hypersimplex_off_facet(k, n)
        tail = "c" * (n - 2)
        facet = cd_hypersimplex(k, n - 1) + NcPoly.word(tail)
        with pytest.raises(NotCdEquivalent, match=r"^residue -1\*%sb after" % tail):
            chain_sum(n - 1, f0, faces, facet=facet)


def test_chain_sum_facet_coefficients_set_the_slot_width():
    # a segment with one vertex off the facet {q}: c q - (q - 1) b, whose
    # residue sits at the edge of a 64-bit slot only through the facet
    for q in range(2**63 - 3, 2**63 + 4):
        with pytest.raises(NotCdEquivalent) as err:
            chain_sum(1, 1, [], facet=NcPoly({"": q}))
        assert str(err.value) == "residue %d*b after collecting trailing b" % (1 - q)
    # t times a segment: the bound t + t reaches 2^63 only with the facet
    for t, bits in [(2**62 - 1, 64), (2**62, 128)]:
        got = chain_sum(1, t, [], facet=NcPoly({"": t}))
        assert got == t * C
        assert set(got._vec[2]) == {bits}
    with pytest.raises(InvalidParams):
        chain_sum(0, 1, [], facet=NcPoly.one())
    with pytest.raises(InvalidParams):
        chain_sum(3, 4, [], facet=C)  # not of degree dim - 1


def test_text_form():
    p = NcPoly({"cccc": 1, "ccd": 8, "cdc": 20, "dcc": 8, "dd": 14})
    assert p.text() == "cccc + 8*ccd + 20*cdc + 8*dcc + 14*dd"
    assert (C * C + 2 * D).text() == "cc + 2*d"
    assert NcPoly.zero().text() == "0"
    assert NcPoly.one().text() == "1"
    assert (C - D).text() == "c - d"
    assert (-C).text() == "-c"
    assert (NcPoly({"": -3})).text() == "-3"


def test_text_order_is_graded_then_lex():
    p = NcPoly({"dd": 1, "cccc": 1, "cdc": 1, "dcc": 1, "ccd": 1, "cc": 1, "d": 1})
    assert p.words() == ["cc", "d", "cccc", "ccd", "cdc", "dcc", "dd"]


def test_from_text():
    for p in [C, C * C + 2 * D, NcPoly({"cdc": 20, "dd": -3}), NcPoly.one(), NcPoly.zero()]:
        assert NcPoly.from_text(p.text()) == p
    assert NcPoly.from_text("cc + 2*d") == C * C + 2 * D
    assert NcPoly.from_text("a + -2*b") == A - 2 * B
    assert NcPoly.from_text("3") == NcPoly({"": 3})
    with pytest.raises(InvalidParams):
        NcPoly.from_text("c^4")
    with pytest.raises(InvalidParams):
        NcPoly.from_text("2*")
    with pytest.raises(InvalidAlphabet):
        NcPoly.from_text("cxc")
    # CPython converts at most 4300 digits to an int by default
    for text in ("1" * 5000, "c + %s*d" % ("7" * 5000)):
        with pytest.raises(InvalidParams, match="5000 digits"):
            NcPoly.from_text(text)


def test_flag_segment():
    fv = cd_to_flag_f(C, 1)
    assert fv.f(()) == 1
    assert fv.f({0}) == 2
    assert fv.f_vector() == (2,)


def test_flag_triangle():
    fv = cd_to_flag_f(C * C + D, 2)
    assert fv.f_vector() == (3, 3)
    assert fv.f({0, 1}) == 6


def test_flag_octahedron():
    # cd-index of the octahedron, derived by hand from the stratified sum
    p = C**3 + 6 * C * D + 4 * D * C
    fv = cd_to_flag_f(p, 3)
    assert fv.f_vector() == (6, 12, 8)
    assert fv.f({0, 1}) == 24
    assert fv.f({0, 2}) == 24
    assert fv.f({1, 2}) == 24
    assert fv.f({0, 1, 2}) == 48


def test_flag_roundtrip():
    for p, dim in [(NcPoly.one(), 0), (C, 1), (C * C + D, 2), (C**3 + 6 * C * D + 4 * D * C, 3)]:
        fv = cd_to_flag_f(p, dim)
        assert flag_to_cd(fv) == p
        assert ab_to_cd(flag_to_ab(fv)) == p


def test_flag_errors():
    with pytest.raises(DegreeMismatch):
        cd_to_flag_f(C, 2)
    with pytest.raises(DegreeMismatch):
        cd_to_flag_f(C + NcPoly.one(), 1)
    with pytest.raises(NegativeFlag):
        cd_to_flag_f(-C, 1)
    with pytest.raises(InvalidParams):
        FlagFVector(1, {frozenset(): 2})
    with pytest.raises(NegativeFlag):
        FlagFVector(1, {frozenset(): 1, frozenset({0}): -1})


def test_flag_fvector_api():
    fv = FlagFVector(2, {frozenset(): 1, frozenset({0}): 3, frozenset({1}): 3, frozenset({0, 1}): 6})
    assert fv.f({0}) == 3
    assert fv == cd_to_flag_f(C * C + D, 2)


def test_flag_fvector_from_a_sparse_dict_keeps_its_checks():
    with pytest.raises(InvalidParams):
        FlagFVector(2, {frozenset({0}): 3})  # no empty set: f of it would be 0
    with pytest.raises(InvalidParams):
        FlagFVector(2, {frozenset(): 1, frozenset({2}): 1})
    with pytest.raises(NegativeFlag):
        FlagFVector(2, {frozenset(): 1, frozenset({0, 1}): -6})
    with pytest.raises(InvalidParams):
        FlagFVector(-1, {})
    fv = FlagFVector(2, {(): 1, (1,): 3})
    assert fv.f({1}) == 3 and fv.f({0}) == 0 and fv.f({5}) == 0
    assert fv.entries() == {frozenset(): 1, frozenset({0}): 0, frozenset({1}): 3,
                            frozenset({0, 1}): 0}
    assert fv == FlagFVector.from_vector(2, [1, 0, 3, 0])


def test_flag_fvector_from_vector_checks():
    with pytest.raises(NegativeFlag, match=r"f_\[0, 1\] = -1"):
        FlagFVector.from_vector(2, [1, 2, 2, -1])
    with pytest.raises(InvalidParams):
        FlagFVector.from_vector(2, [2, 2, 2, 4])
    with pytest.raises(InvalidParams):
        FlagFVector.from_vector(2, [1, 2])
    assert FlagFVector.from_vector(0, [1]).f_vector() == ()


def reference_flag_f(p, dim):
    """The former cd_to_flag_f, as a list by mask: expand p into ab words;
    f_S is the sum of the coefficients of the words with b only on S,
    found by a subset-sum pass over the masks."""
    size = 1 << dim
    vec = [0] * size
    for w, k in expand_ab(p).terms().items():
        vec[sum(1 << i for i, ch in enumerate(w) if ch == "b")] = k
    for i in range(dim):
        bit = 1 << i
        for mask in range(size):
            if mask & bit:
                vec[mask] += vec[mask ^ bit]
    return vec


def cd_words(max_degree):
    words = {0: [""], 1: ["c"]}
    for deg in range(2, max_degree + 1):
        words[deg] = ["c" + w for w in words[deg - 1]] + ["d" + w for w in words[deg - 2]]
    return words


def test_flag_kernel_matches_the_ab_expansion_on_every_cd_word():
    for deg, ws in cd_words(10).items():
        for w in ws:
            assert ncpoly._flag_vector({w: 1}, deg) == reference_flag_f(NcPoly.word(w), deg), w


def test_flag_kernel_matches_the_ab_expansion_on_random_combinations():
    rng = random.Random(5)
    words = cd_words(10)
    for _ in range(100):
        deg = rng.randint(0, 10)
        ws = words[deg]
        p = NcPoly({w: rng.randint(-9, 9) for w in rng.sample(ws, min(len(ws), 6))})
        assert ncpoly._flag_vector(p.terms(), deg) == reference_flag_f(p, deg)
        # a polytope-like index: one c^deg, the rest nonnegative
        q = NcPoly({w: 1 if w == "c" * deg else rng.randint(0, 9) for w in ws})
        assert cd_to_flag_f(q, deg).vector() == reference_flag_f(q, deg)


@pytest.mark.parametrize("k, n", [(8, 16), (10, 20)])
def test_flag_kernel_face_counts_of_large_hypersimplices(k, n):
    # the face counts by dimension, summed apart from the recursion: a face
    # pinned by (i, j) is the (k - i, n - i - j) hypersimplex
    want = [0] * (n - 1)
    want[0] = comb(n, k)
    for (i, j), count in face_type_counts(k, n).items():
        want[n - i - j - 1] += count
    assert list(cd_to_flag_f(cd_hypersimplex(k, n), n - 1).f_vector()) == want


def test_f_vector_of_small_polytopes():
    assert cd_f_vector(NcPoly.one(), 0) == ()
    assert cd_f_vector(C, 1) == (2,)
    for m in range(3, 12):  # the m-gon: cc + (m - 2) d
        assert cd_f_vector(C * C + (m - 2) * D, 2) == (m, m)
    assert cd_f_vector(C**3 + 6 * C * D + 4 * D * C, 3) == (6, 12, 8)


def test_f_vector_raises_where_the_flag_vector_does():
    cases = [
        (C, 2, DegreeMismatch),
        (C + NcPoly.one(), 1, DegreeMismatch),
        (NcPoly.zero(), 0, DegreeMismatch),
        (-C, 1, NegativeFlag),
        (C * C - 3 * D, 2, NegativeFlag),
        (A, 1, InvalidAlphabet),
        (C * C + B * C, 2, InvalidAlphabet),
        (2 * C, 1, InvalidParams),  # f of the empty set must be 1
        (NcPoly.zero(), -1, InvalidParams),
    ]
    for p, dim, err in cases:
        for fn in (cd_to_flag_f, cd_f_vector):
            with pytest.raises(err):
                fn(p, dim)
    for fn in (cd_to_flag_f, cd_f_vector):  # f = (1, -1, 0)
        with pytest.raises(NegativeFlag, match=r"f_\[1\] = -1"):
            fn(C**3 - 2 * C * D - D * C, 3)


def _is_cuspidal_key(key):
    try:
        cuspidal.check_key(*key)
    except InvalidParams:
        return False
    return True


def test_f_vector_equals_the_flag_vector_on_computed_indices():
    computed = [cd_hypersimplex(k, n) for n in range(2, 17) for k in range(1, n)]
    computed += [cuspidal.cd_cuspidal(*key) for key in product(range(13), repeat=4)
                 if _is_cuspidal_key(key)]
    computed += [engine.cd_index(M) for _, M in cli.corpus(9)]
    assert len(computed) == 120 + 495 + 302
    for p in computed:
        d = p.degree()
        assert cd_f_vector(p, d) == cd_to_flag_f(p, d).f_vector(), p


@st.composite
def nonnegative_cd_polys(draw):
    """(p, dim): a cd polynomial of degree dim <= 12 with nonnegative
    coefficients, c^dim most often with coefficient 1."""
    dim = draw(st.integers(0, 12))
    terms = draw(st.dictionaries(st.sampled_from(cd_order(dim)),
                                 st.integers(0, 10**12) | st.integers(0, 9), max_size=12))
    if draw(st.integers(0, 3)):
        terms["c" * dim] = 1
    return NcPoly(terms), dim


@settings(max_examples=200, derandomize=True, deadline=None)
@given(nonnegative_cd_polys())
def test_f_vector_equals_the_flag_vector_on_drawn_polynomials(args):
    p, dim = args
    try:
        want = cd_to_flag_f(p, dim).f_vector()
    except CdxError as exc:  # no terms, or f of the empty set is not 1
        with pytest.raises(type(exc)):
            cd_f_vector(p, dim)
    else:
        assert cd_f_vector(p, dim) == want
