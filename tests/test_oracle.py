from math import comb

import pytest

from cdx.errors import ScaleExceeded
from cdx.hypersimplex import face_type_counts
from cdx.matroid import Matroid, _bits, example_535, fano
from cdx.ncpoly import NcPoly, flag_to_ab
from cdx.oracle import (
    FaceLattice,
    eulerian_check,
    face_lattice,
    oracle_cd_index,
    oracle_flag_f,
)


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


def test_flag_to_ab_mirror_symmetry():
    ab = flag_to_ab(oracle_flag_f(face_lattice(Matroid.uniform(2, 4))))
    assert ab.mirror() == ab


def test_fano_oracle_runs_at_n7():
    p = oracle_cd_index(fano())
    assert p.degree() == 6
    assert all(c > 0 for c in p.terms().values())


def test_scale_guard():
    with pytest.raises(ScaleExceeded):
        face_lattice(Matroid.uniform(2, 9))
    # explicit override allows it in principle; cap check only
    face_lattice(Matroid.uniform(1, 2), max_n=2)
