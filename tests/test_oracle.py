import random
from functools import lru_cache
from itertools import permutations
from math import comb

import numpy as np
import pytest

from cdx import cli, oracle
from cdx.cuspidal import cd_cuspidal, cuspidal_matroid
from cdx.errors import InternalError, ScaleExceeded
from cdx.hypersimplex import cd_hypersimplex, face_type_counts
from cdx.matroid import Matroid, _bits, example_535, fano
from cdx.ncpoly import FlagFVector, NcPoly, cd_f_vector, flag_to_ab
from cdx.oracle import (
    FaceLattice,
    eulerian_check,
    face_lattice,
    oracle_cd_index,
    oracle_flag_f,
)
from reference import reference_face_dims
from test_product import direct_sum


@lru_cache(maxsize=None)
def _weight_vectors(n):
    """All surjections from n coordinates onto {0..m-1}, m = 1..n.

    Each one's argmax face is a face of the polytope, and every face
    arises this way: take the chain of ever-larger level sets.
    """
    parts = []

    def rec(i, blocks):
        if i == n:
            parts.append([tuple(b) for b in blocks])
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    rows = []
    for blocks in parts:
        m = len(blocks)
        for perm in permutations(range(m)):
            w = [0] * n
            for bi in range(m):
                for e in blocks[bi]:
                    w[e] = perm[bi]
            rows.append(w)
    return np.array(rows, dtype=np.int32)


def _indicator(masks, width):
    """0/1 float64 matrix with one row per bitmask; column j is bit j."""
    nbytes = (width + 7) // 8 or 1
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(rows, axis=1, bitorder="little")[:, :width].astype(np.float64)


def _containment(A, B):
    """C[i, j] == 1.0 iff face A[i] lies inside face B[j], given the faces'
    vertex indicator rows."""
    return (A @ (1.0 - B).T == 0).astype(np.float64)


def reference_flag_f(L):
    """The flag f-vector by the former oracle_flag_f: one indicator
    matrix per layer, one containment matrix per pair of layers."""
    D = L.dim
    nverts = len(L.vertex_masks)
    layers = [_indicator([f for f, fd in zip(L.faces, L.dims) if fd == d], nverts)
              for d in range(D)]
    # tops[d]: the masks S with max(S) == d, and one row per S whose
    # entry j counts the chains of type S ending in face j of layer d
    tops = [([1 << d], [np.ones((1, len(layers[d])))]) for d in range(D)]
    flags = [1] + [0] * ((1 << D) - 1)
    for t in range(D):
        sets, rows = tops[t]
        vecs = np.vstack(rows)
        for S, total in zip(sets, vecs.sum(axis=1)):
            flags[S] = int(total)
        for d in range(t + 1, D):
            tops[d][1].append(vecs @ _containment(layers[t], layers[d]))
            tops[d][0].extend(S | 1 << d for S in sets)
    return FlagFVector.from_vector(D, flags)


def reference_face_lattice(M):
    """Face masks of the base polytope by maximizing every weight vector
    with distinct level structure over the vertices; empty face included."""
    verts = M.basis_masks()
    V = np.array([[(b >> i) & 1 for i in range(M.n)] for b in verts], dtype=np.int32)
    S = _weight_vectors(M.n) @ V.T
    packed = np.packbits(S == S.max(axis=1, keepdims=True), axis=1, bitorder="little")
    return {0} | {int.from_bytes(row, "little") for row in set(map(bytes, packed))}


def _row_rank(rows):
    """Exact rank of a small integer matrix, division-free elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        pv = prow[c]
        for i in range(rank + 1, len(mat)):
            v = mat[i][c]
            if v:
                mat[i] = [a * pv - v * b for a, b in zip(mat[i], prow)]
        rank += 1
    return rank


def _affine_dim(vectors):
    if not vectors:
        return -1
    base = vectors[0]
    rows = [[x - y for x, y in zip(v, base)] for v in vectors[1:]]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    return _row_rank(rows)


CORPUS7 = cli.corpus(7)
LOOP = Matroid.uniform(0, 1)
COLOOP = Matroid.uniform(1, 1)
# corpus(n) is all connected; here separators other than the empty set
# and E cut the elements into classes, and loops and coloops are classes
DISCONNECTED = [
    ("U(1,2)+U(1,2)+loop", direct_sum(Matroid.uniform(1, 2), Matroid.uniform(1, 2), LOOP)),
    ("fano+coloop+loop", direct_sum(fano(), COLOOP, LOOP)),
    ("U(1,3)+U(2,4)", direct_sum(Matroid.uniform(1, 3), Matroid.uniform(2, 4))),
    ("coloop+U(2,4)+loop", direct_sum(COLOOP, Matroid.uniform(2, 4), LOOP)),
    ("U(2,4)+U(2,4)", direct_sum(Matroid.uniform(2, 4), Matroid.uniform(2, 4))),
    ("U(0,3)", Matroid.uniform(0, 3)),
    ("U(3,3)", Matroid.uniform(3, 3)),
]


@pytest.mark.parametrize("name,M", CORPUS7, ids=[name for name, _ in CORPUS7])
def test_facet_closure_matches_the_weight_vector_scan(name, M):
    assert set(face_lattice(M).faces) == reference_face_lattice(M)


@pytest.mark.parametrize("name,M", CORPUS7 + [("uniform-4-8", Matroid.uniform(4, 8))],
                         ids=[name for name, _ in CORPUS7] + ["uniform-4-8"])
def test_flag_f_matches_the_per_layer_pair_reference(name, M):
    L = face_lattice(M)
    assert oracle_flag_f(L) == reference_flag_f(L)


def test_faces_are_sorted_and_packed_row_by_row():
    # U(4, 8) has 70 vertices, so its masks span more than 64 bits
    for M in [M for _, M in CORPUS7] + [Matroid.uniform(4, 8)]:
        L = face_lattice(M)
        assert list(zip(L.dims.tolist(), L.faces)) == sorted(zip(L.dims.tolist(), L.faces))
        assert [int.from_bytes(row.tobytes(), "little") for row in L.packed] == L.faces
        assert L.faces[0] == 0 and L.dims[0] == -1


def test_a_lattice_built_by_hand_is_sorted_and_packed():
    L = face_lattice(Matroid.uniform(2, 5))
    again = FaceLattice(L.vertex_masks, L.faces[::-1], L.dims.tolist()[::-1])
    assert again.faces == L.faces
    assert again.dims.tolist() == L.dims.tolist()
    assert np.array_equal(again.packed, L.packed)
    assert again.f_vector() == L.f_vector()
    assert oracle_flag_f(again) == oracle_flag_f(L)


def test_component_count_dimensions_match_affine_rank():
    for name, M in CORPUS7 + DISCONNECTED:
        L = face_lattice(M)
        verts = [[(b >> i) & 1 for i in range(M.n)] for b in L.vertex_masks]
        for fm, d in zip(L.faces, L.dims):
            assert _affine_dim([verts[j] for j in _bits(fm)]) == d, (name, _bits(fm))


def _assert_matches_the_reference_dims(name, M):
    """faces, dims and packed rows equal those of the fundamental-graph
    dimension pass on the same faces, sorted the same way."""
    L = face_lattice(M)
    m = len(L.vertex_masks)
    faces = sorted(L.faces)
    packed = oracle._pack(faces, m)
    V = oracle._unpack(oracle._pack(L.vertex_masks, M.n), M.n)
    dims = reference_face_dims(M.n, M.rank, V, packed)
    order = np.argsort(dims, kind="stable")
    assert L.faces == [faces[i] for i in order], name
    assert L.dims.tolist() == dims[order].tolist(), name
    assert np.array_equal(L.packed, packed[order]), name


def test_face_dims_match_the_reference():
    corpus = cli.corpus(8)
    for name, M in corpus + [(name + "*", M.dual()) for name, M in corpus[::7]]:
        _assert_matches_the_reference_dims(name, M)


def test_disconnected_face_dims_match_the_reference():
    for name, M in DISCONNECTED:
        _assert_matches_the_reference_dims(name, M)


def test_triangle_faces():
    L = face_lattice(Matroid.uniform(1, 3))
    # 3 vertices, 3 edges, the triangle, the empty face
    assert L.f_vector() == (3, 3)
    assert L.face_count() == 8
    assert L.dim == 2


def test_point():
    L = face_lattice(Matroid.from_bases(1, 1, [(0,)]))
    assert L.dim == 0
    assert oracle_cd_index(Matroid.from_bases(1, 1, [(0,)])) == NcPoly.one()


def test_octahedron_lattice():
    M = Matroid.uniform(2, 4)
    L = face_lattice(M)
    assert L.f_vector() == (6, 12, 8)
    fv = oracle_flag_f(L)
    assert fv.f(frozenset()) == 1
    assert fv.f(frozenset({0})) == 6
    assert fv.f(frozenset({0, 1})) == 24
    assert fv.f(frozenset({0, 1, 2})) == 48


def test_square_and_cd():
    M = Matroid.from_bases(4, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
    L = face_lattice(M)
    assert L.dim == 2  # n minus number of components
    assert L.f_vector() == (4, 4)
    assert oracle_cd_index(M) == NcPoly.from_text("cc + 2*d")


def test_hypersimplex_2_5_value():
    got = oracle_cd_index(Matroid.uniform(2, 5))
    assert got == NcPoly.from_text("cccc + 8*ccd + 20*cdc + 8*dcc + 14*dd")


def test_face_count_identity():
    # oracle face count = typed faces + vertices + improper + empty
    for k, n in [(1, 4), (2, 4), (2, 5), (3, 6)]:
        L = face_lattice(Matroid.uniform(k, n))
        want = sum(face_type_counts(k, n).values()) + comb(n, k) + 2
        assert L.face_count() == want


def test_example_535_contains_central_square():
    L = face_lattice(example_535())
    squares = [
        f for i, f in enumerate(L.faces)
        if L.dims[i] == 2 and bin(f).count("1") == 4
    ]
    assert squares, "the two cut facets must intersect in a quadrilateral"


def test_eulerian_on_real_lattices():
    for M in (Matroid.uniform(2, 4), Matroid.uniform(2, 5), example_535()):
        ok, witness = eulerian_check(face_lattice(M))
        assert ok, witness


def test_eulerian_detects_mutation():
    L = face_lattice(Matroid.uniform(2, 4))
    keep = [i for i, d in enumerate(L.dims) if d != 1]
    keep += [i for i, d in enumerate(L.dims) if d == 1][1:]  # drop one edge
    mutated = FaceLattice(
        L.vertex_masks,
        [L.faces[i] for i in sorted(keep)],
        [L.dims[i] for i in sorted(keep)],
    )
    ok, witness = eulerian_check(mutated)
    assert not ok
    assert witness is not None


def meet_closed_check(L):
    """Intersection of two faces' vertex sets must again be a face."""
    fs = set(L.faces)
    faces = L.faces
    for i in range(len(faces)):
        for j in range(i + 1, len(faces)):
            if faces[i] & faces[j] not in fs:
                return False, (_bits(faces[i]), _bits(faces[j]))
    return True, None


def test_meet_closed():
    for M in (Matroid.uniform(2, 4), example_535(), Matroid.uniform(3, 6)):
        ok, _ = meet_closed_check(face_lattice(M))
        assert ok


def test_closure_matches_the_plain_facet_closure():
    for name, M in cli.corpus(8):
        L = face_lattice(M)
        facets = [f for f, d in zip(L.faces, L.dims) if d == L.dim - 1]
        faces = set(facets)
        new = faces
        while new:
            new = {f & g for f in new for g in facets} - faces
            faces |= new
        assert set(L.faces) == faces | {0, L.faces[-1]}, name


def _edmonds_rows(M):
    """The distinct vertex sets F_S = {B : |B & S| = max over the bases}
    over every subset S, as bitmasks over vertex indices."""
    V = _indicator(M.basis_masks(), M.n)
    meet = _indicator(range(1 << M.n), M.n) @ V.T
    return {sum(1 << int(j) for j in np.flatnonzero(row == row.max())) for row in meet}


def test_closure_is_the_same_for_any_generator_order():
    rng = random.Random(8)
    for name, M in cli.corpus(8):
        want = set(face_lattice(M).faces)
        full = (1 << len(M.basis_masks())) - 1
        ascending = sorted(_edmonds_rows(M), key=lambda g: (g.bit_count(), g))
        shuffled = ascending[:]
        rng.shuffle(shuffled)
        for order in (ascending, ascending[::-1], shuffled):
            assert oracle._close(order, full)[0] == want, name


def test_face_count_past_the_cap(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_MAX_N", 10)
    L = face_lattice(cuspidal_matroid(5, 10, 2, 5))
    assert L.face_count() == 17334
    assert L.f_vector() == cd_f_vector(cd_cuspidal(5, 10, 2, 5), 9)


def test_flag_to_ab_mirror_symmetry():
    ab = flag_to_ab(oracle_flag_f(face_lattice(Matroid.uniform(2, 4))))
    assert ab.mirror() == ab


def test_fano_oracle_runs_at_n7():
    p = oracle_cd_index(fano())
    assert p.degree() == 6
    assert all(c > 0 for c in p.terms().values())


def test_oracle_reaches_n9():
    assert oracle_cd_index(Matroid.uniform(4, 9)) == cd_hypersimplex(4, 9)


def test_flag_counts_refuse_inexact_float_sums(monkeypatch):
    monkeypatch.setattr(oracle, "_EXACT", 48.0)
    L = face_lattice(Matroid.uniform(2, 4))
    with pytest.raises(InternalError):
        oracle_flag_f(L)  # the octahedron has 48 full flags
    monkeypatch.setattr(oracle, "_EXACT", 49.0)
    assert oracle_flag_f(L).f(frozenset({0, 1, 2})) == 48


def test_containment_refuses_inexact_float32_counts(monkeypatch):
    L = face_lattice(Matroid.uniform(2, 4))
    monkeypatch.setattr(oracle, "_EXACT32", 6)
    with pytest.raises(InternalError, match="past exact float32"):
        oracle_flag_f(L)  # the octahedron has 6 vertices
    with pytest.raises(InternalError, match="past exact float32"):
        eulerian_check(L)
    with pytest.raises(InternalError, match="past exact float32"):
        face_lattice(Matroid.uniform(2, 4))  # the face-by-facet incidence
    monkeypatch.setattr(oracle, "_EXACT32", 7)
    assert oracle_flag_f(L).f(frozenset({0, 1, 2})) == 48


def test_scale_guard():
    with pytest.raises(ScaleExceeded, match=r"closes the faces of all 2\^n subsets; refusing n=10 > 9"):
        face_lattice(Matroid.uniform(2, 10))
    assert oracle.DEFAULT_MAX_N == 9
