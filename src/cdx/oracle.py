"""Brute-force face lattice of a matroid base polytope.

Deliberately independent of the recursion modules: faces are found by
maximizing every integer weight vector with distinct level structure
over the vertex set (0/1 indicator vectors of the bases), dimensions by
exact integer Gaussian elimination, and the flag vector by counting
chains through dimension-graded incidence matrices.  Only the ab-to-cd
conversion and the bitmask-to-element-list helper are shared.
"""

from itertools import permutations

import numpy as np

from .errors import InvalidParams, ScaleExceeded
from .matroid import _bits
from .ncpoly import FlagFVector, NcPoly, ab_to_cd, flag_to_ab

DEFAULT_MAX_N = 8

_weight_memo = {}


def _weight_vectors(n):
    """All surjections from n coordinates onto {0..m-1}, m = 1..n.

    Each one's argmax face is a face of the polytope, and every face
    arises this way: take the chain of ever-larger level sets.
    """
    got = _weight_memo.get(n)
    if got is not None:
        return got
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
    arr = np.array(rows, dtype=np.int16)
    _weight_memo[n] = arr
    return arr


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


class FaceLattice:
    """Faces of a base polytope as vertex-index bitmasks, graded by dimension.

    faces[i] is a bitmask over vertex indices; the empty face is mask 0.
    Containment of faces is bitmask containment.
    """

    def __init__(self, vertex_masks, face_masks, dims):
        self.vertex_masks = vertex_masks
        order = sorted(range(len(face_masks)), key=lambda i: (dims[i], face_masks[i]))
        self.faces = [face_masks[i] for i in order]
        self.dims = [dims[i] for i in order]
        self.dim = self.dims[-1]
        self.by_dim = {}
        for i, d in enumerate(self.dims):
            self.by_dim.setdefault(d, []).append(i)

    def f_vector(self):
        """Counts of faces of each dimension 0..dim-1 (proper faces only)."""
        return tuple(len(self.by_dim.get(d, ())) for d in range(self.dim))

    def face_count(self):
        return len(self.faces)


def face_lattice(M, max_n=DEFAULT_MAX_N):
    """Enumerate every face of the base polytope of M, empty face included."""
    if M.n > max_n:
        raise ScaleExceeded(
            "oracle face enumeration is %d! weight classes; refusing n=%d > %d"
            % (M.n, M.n, max_n)
        )
    verts = M.basis_masks()
    n = M.n
    V = np.array([[(b >> i) & 1 for i in range(n)] for b in verts], dtype=np.int16)
    W = _weight_vectors(n)
    seen = set()
    chunk = 200_000
    for lo in range(0, len(W), chunk):
        S = W[lo:lo + chunk].astype(np.int32) @ V.T.astype(np.int32)
        mask = S == S.max(axis=1, keepdims=True)
        packed = np.packbits(mask, axis=1)
        seen.update(map(bytes, packed))
    nfv = len(verts)
    face_masks = []
    for row in seen:
        bits = np.unpackbits(np.frombuffer(row, dtype=np.uint8))[:nfv]
        fm = 0
        for j in np.nonzero(bits)[0]:
            fm |= 1 << int(j)
        face_masks.append(fm)
    face_masks.append(0)  # empty face
    vert_vectors = [[(b >> i) & 1 for i in range(n)] for b in verts]
    dims = []
    for fm in face_masks:
        pts = [vert_vectors[j] for j in range(nfv) if fm >> j & 1]
        dims.append(_affine_dim(pts))
    return FaceLattice(verts, face_masks, dims)


def oracle_flag_f(L):
    """Flag f-vector of the boundary, from chains of proper faces."""
    D = L.dim
    layers = {d: [L.faces[i] for i in L.by_dim.get(d, ())] for d in range(D)}
    inc = {}
    for d1 in range(D):
        for d2 in range(d1 + 1, D):
            A = layers[d1]
            B = layers[d2]
            Z = np.zeros((len(A), len(B)), dtype=np.int64)
            for i, fa in enumerate(A):
                for j, fb in enumerate(B):
                    if fa & fb == fa:
                        Z[i, j] = 1
            inc[(d1, d2)] = Z
    entries = {}
    for smask in range(1 << D):
        S = [d for d in range(D) if smask >> d & 1]
        if not S:
            entries[frozenset()] = 1
            continue
        vec = np.ones(len(layers[S[0]]), dtype=np.int64)
        for d1, d2 in zip(S, S[1:]):
            vec = vec @ inc[(d1, d2)]
        entries[frozenset(S)] = int(vec.sum())
    return FlagFVector(D, entries)


def oracle_cd_index(M, max_n=DEFAULT_MAX_N):
    return ab_to_cd(flag_to_ab(oracle_flag_f(face_lattice(M, max_n=max_n))))


def eulerian_check(L):
    """Every interval of length >= 2 in the full lattice (empty face and
    the polytope itself included) must have equally many elements of
    each parity.  Returns (True, None) or (False, witness_interval)."""
    faces = L.faces
    dims = np.array(L.dims, dtype=np.int64)
    m = len(faces)
    nfv = len(L.vertex_masks)
    V = np.zeros((m, nfv), dtype=np.int64)
    for i, fm in enumerate(faces):
        for j in range(nfv):
            if fm >> j & 1:
                V[i, j] = 1
    # contain[i, j] == 1 iff face i's vertex set is inside face j's
    stray = V @ (1 - V).T
    contain = (stray == 0).astype(np.int64)
    sign = np.where(dims % 2 == 0, 1, -1)
    total = (contain * sign[np.newaxis, :]) @ contain
    # total[b, t] = signed count of faces in the interval [b, t]
    span = dims[np.newaxis, :] - dims[:, np.newaxis]
    bad = (total != 0) & (span >= 2) & (contain == 1)
    if bad.any():
        b, t = map(int, np.argwhere(bad)[0])
        return False, (_bits(faces[b]), _bits(faces[t]), int(dims[b]), int(dims[t]))
    return True, None
