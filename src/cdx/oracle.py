"""Brute-force face lattice of a matroid base polytope.

Deliberately independent of the recursion modules and of the matroid
rank table.  Faces come from Edmonds' description of the base polytope,
P(M) = {x >= 0 : x(S) <= r(S) for all S, x(E) = r(E)}: with r(S) taken
as the largest |B & S| over the bases, every proper face is an
intersection of the faces F_S = {B : |B & S| = r(S)}, so the faces are
the closure of the facets under intersection, plus the polytope and the
empty face.  Each face is the base polytope of a direct sum of minors
(Feichtner-Sturmfels, 2005), so its dimension is n minus the number of
connected components of the matroid whose bases are its vertices, read
from the fundamental graph of one vertex.  The flag vector counts chains
through dimension-graded containment matrices.  Only the flag-to-cd peel
(ncpoly.flag_to_cd) and the bitmask-to-element-list helper are shared.
"""

import numpy as np

from .errors import InternalError, ScaleExceeded
from .matroid import _bits
from .ncpoly import FlagFVector, flag_to_cd

DEFAULT_MAX_N = 9

# float64 sums of nonnegative integers are exact below this
_EXACT = float(1 << 53)
# faces per column block of a containment matrix in oracle_flag_f
_BLOCK = 512


def _indicator(masks, width):
    """0/1 float64 matrix with one row per bitmask; column j is bit j."""
    nbytes = (width + 7) // 8 or 1
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(rows, axis=1, bitorder="little")[:, :width].astype(np.float64)


def _containment(A, B):
    """C[i, j] == 1.0 iff face A[i] lies inside face B[j], given the faces'
    vertex indicator rows (see _indicator).

    One float64 matmul counts the vertices of A[i] outside B[j]; it is
    exact, since no count exceeds the vertex count.
    """
    return (A @ (1.0 - B).T == 0).astype(np.float64)


def _component_count(n, edges):
    """Connected components of a graph on 0..n-1, by union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for x, y in edges:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
            count -= 1
    return count


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


def face_lattice(M):
    """Enumerate every face of the base polytope of M, empty face included."""
    n = M.n
    if n > DEFAULT_MAX_N:
        raise ScaleExceeded(
            "oracle face enumeration closes the faces of all 2^n subsets; "
            "refusing n=%d > %d" % (n, DEFAULT_MAX_N)
        )
    verts = M.basis_masks()
    m = len(verts)
    V = _indicator(verts, n)
    # meet[S, j] = |S & B_j| for every subset S; F_S is where a row peaks
    meet = _indicator(range(1 << n), n) @ V.T
    tight = np.packbits(meet == meet.max(axis=1, keepdims=True), axis=1, bitorder="little")
    full = (1 << m) - 1
    gens = list({int.from_bytes(row.tobytes(), "little") for row in tight} - {full})
    # the facets: generators inside no other generator
    G = _indicator(gens, m)
    inside = _containment(G, G).sum(axis=1)
    facets = [g for g, c in zip(gens, inside) if c == 1]
    faces = set(facets)
    new = faces
    while new:
        new = {f & g for f in new for g in facets} - faces
        faces |= new
    faces = list(faces | {full, 0})
    # adj[i]: (bit of j, x, y) for each vertex B_j = B_i - x + y
    adj = [[] for _ in verts]
    for i, j in zip(*np.nonzero(V @ V.T == M.rank - 1)):
        bi, bj = verts[i], verts[j]
        adj[i].append((1 << int(j), (bi & ~bj).bit_length() - 1, (bj & ~bi).bit_length() - 1))
    # dim F = n - (components of the matroid whose bases are F's vertices)
    dims = []
    for f in faces:
        edges = [(x, y) for bit, x, y in adj[(f & -f).bit_length() - 1] if f & bit]
        dims.append(n - _component_count(n, edges) if f else -1)
    return FaceLattice(verts, faces, dims)


def oracle_flag_f(L):
    """Flag f-vector of the boundary, from chains of proper faces."""
    D = L.dim
    nverts = len(L.vertex_masks)
    layers = [_indicator([L.faces[i] for i in L.by_dim.get(d, ())], nverts)
              for d in range(D)]
    # tops[d]: the masks S with max(S) == d, and one row per S whose
    # entry j counts the chains of type S ending in face j of layer d
    tops = [([1 << d], [np.ones((1, len(layers[d])))]) for d in range(D)]
    flags = [1] + [0] * ((1 << D) - 1)
    for t in range(D):
        sets, rows = tops[t]
        vecs = np.vstack(rows)
        totals = vecs.sum(axis=1)
        if totals.max() >= _EXACT:
            raise InternalError("flag counts with top dimension %d reach 2^53, "
                                "past exact float64" % t)
        for S, total in zip(sets, totals):
            flags[S] = int(total)
        for d in range(t + 1, D):
            # one column block of the containment matrix at a time bounds memory
            up = layers[d]
            tops[d][1].append(np.hstack([
                vecs @ _containment(layers[t], up[lo:lo + _BLOCK])
                for lo in range(0, len(up), _BLOCK)]))
            tops[d][0].extend(S | 1 << d for S in sets)
    return FlagFVector.from_vector(D, flags)


def oracle_cd_index(M):
    return flag_to_cd(oracle_flag_f(face_lattice(M)))


def eulerian_check(L):
    """Every interval of length >= 2 in the full lattice (empty face and
    the polytope itself included) must have equally many elements of
    each parity.  Returns (True, None) or (False, witness_interval)."""
    faces = L.faces
    dims = np.array(L.dims)
    V = _indicator(faces, len(L.vertex_masks))
    contain = _containment(V, V)
    sign = np.where(dims % 2 == 0, 1.0, -1.0)
    # total[b, t] = signed count of faces in the interval [b, t]
    total = (contain * sign[np.newaxis, :]) @ contain
    span = dims[np.newaxis, :] - dims[:, np.newaxis]
    bad = (total != 0) & (span >= 2) & (contain == 1)
    if bad.any():
        b, t = map(int, np.argwhere(bad)[0])
        return False, (_bits(faces[b]), _bits(faces[t]), int(dims[b]), int(dims[t]))
    return True, None
