"""Brute-force face lattice of a matroid base polytope.

Deliberately independent of the recursion modules and of the matroid
rank levels.  Faces come from Edmonds' description of the base polytope,
P(M) = {x >= 0 : x(S) <= r(S) for all S, x(E) = r(E)}: with r(S) taken
as the largest |B & S| over the bases, every proper face is an
intersection of the faces F_S = {B : |B & S| = r(S)}, so the faces are
the closure of the distinct rows F_S under intersection, plus the
polytope and the empty face.  The closure runs on a hash set of vertex
bitmasks and takes one row at a time, largest first: a row that is
already in the set is an intersection of rows closed before it and is
skipped, and any other row g adds f & g for every face f so far.
Every step after it is a whole-array pass over one packed incidence
array, the faces sorted by mask with row i holding the vertex bits of
face i, ⌈m/8⌉ bytes for m vertices.

Dimensions come from the facets.  Taken largest first, the rows that
add to the set are the facets: any other proper face is the intersection
of the facets through it, all larger, so closed before it.  The subsets
S tight on a face F (F inside F_S) are closed under union and
intersection, by submodularity, so their indicators span as many
dimensions as there are classes of elements that no tight S separates,
and dim F is n minus that count.  The least S of each facet through F,
with the separators (the S whose row is every vertex), span the same
space, and a family's class count lies between its rank and that of all
tight S, so they give the same count: one containment pass against the
facets and one matmul against their split pairs count it for every
face.  A stable sort on dimension then keeps the mask order inside each
dimension, so layer d is a contiguous row range.

The same pass keeps that face x facet incidence, in the sorted row
order.  Every proper face is the intersection of the facets through it,
so face i lies in face j exactly when every facet through j passes
through i: a containment count sums over the facets, not the vertices
(at n <= 9, at most 21 against up to 126).  Chains are counted
through containment blocks, one lower layer against the higher faces,
in float32 (a count of facets or vertices is exact below 2^24); the
chain counts stay float64.  oracle_cd_index counts only the sparse
chain types, the sets S within 0..D-2 with no two consecutive
dimensions, so no layer meets the next one up and no chain reaches a
facet; by Bayer and Billera these Fib(D + 1) counts fix the cd-index,
which one peel (ncpoly.sparse_flag_to_cd) gives.  As a check on the
lattice, the cd-index's f-vector must be the lattice's: the facet count
is not a sparse entry, and the cd-index gives it by Euler's relation.
oracle_flag_f counts every chain type, through the vertex rows, for the
whole flag vector; the same walk does both, given the rows and the
least step in dimension.  Only the peel and the bitmask-to-element-list
helper are shared.
"""

import numpy as np

from .errors import InternalError, ScaleExceeded
from .matroid import _bits
from .ncpoly import FlagFVector, cd_f_vector, sparse_flag_to_cd

DEFAULT_MAX_N = 9

# float64 sums of nonnegative integers are exact below this
_EXACT = float(1 << 53)
# float32 sums of 0/1 entries are exact below this; a containment count
# sums one entry per vertex or per facet
_EXACT32 = 1 << 24
# entries per containment block: a lower layer against as many higher
# faces as fit, or as many faces against the facets, so a block's
# float32 counts and float64 0/1 stay small
_CELLS = 1 << 18


def _pack(masks, width):
    """uint8 rows, one per bitmask: bit j of row i is bit j of masks[i]."""
    nbytes = (width + 7) // 8 or 1
    raw = b"".join([m.to_bytes(nbytes, "little") for m in masks])
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)


def _unpack(rows, width):
    """0/1 float32 matrix of packed rows; column j is bit j."""
    return np.unpackbits(rows, axis=1, count=width, bitorder="little").astype(np.float32)


def _containment(A, outside):
    """C[i, j] == 1.0 iff face A[i] lies inside face j, given A's vertex
    indicator rows and, for face j, the indicator of the vertices
    outside it (1 - its row); or, over the facets, the indicator of the
    facets that miss A[i] (1 - its incidence row) and face j's incidence
    row.

    One float32 matmul counts the vertices of A[i] outside face j, or
    the facets through j that miss A[i]; it is exact while the vertex or
    facet count stays below 2^24.
    """
    if A.shape[1] >= _EXACT32:
        raise InternalError("containment counts over %d vertices or facets reach 2^24, "
                            "past exact float32" % A.shape[1])
    return (A @ outside.T == 0).astype(np.float64)


class FaceLattice:
    """Faces of a base polytope as vertex-index bitmasks, graded by dimension.

    faces[i] is a bitmask over vertex indices; the empty face is mask 0.
    The faces are sorted by (dimension, mask), and packed[i] holds the bits
    of faces[i] as uint8 rows (see _pack), so the faces of dimension d are
    rows lo[d]:lo[d + 1].  Containment of faces is bitmask containment.
    incidence[i, j] is whether face i lies in facet j, rows in the same
    order; oracle_cd_index needs it, oracle_flag_f does not.  When packed
    is not given, the faces are sorted and packed here, and there is no
    incidence.
    """

    def __init__(self, vertex_masks, faces, dims, packed=None, incidence=None):
        self.vertex_masks = vertex_masks
        if packed is None:
            dims, faces = zip(*sorted(zip(dims, faces)))
            packed = _pack(faces, len(vertex_masks))
        self.faces = list(faces)
        self.dims = np.asarray(dims, dtype=np.intp)
        self.packed = packed
        self.incidence = incidence
        self.dim = int(self.dims[-1])
        self.lo = np.searchsorted(self.dims, np.arange(self.dim + 2))

    def f_vector(self):
        """Counts of faces of each dimension 0..dim-1 (proper faces only)."""
        return tuple(int(c) for c in np.diff(self.lo[:self.dim + 1]))

    def face_count(self):
        return len(self.faces)


def _close(generators, full):
    """Every intersection of the generators (bitmasks inside full), with
    full itself and the empty set, the same set for any order; and the
    generators that added to it, in order.

    After each generator the set holds every intersection of the
    generators taken so far, so a generator already in it adds nothing.
    """
    faces, taken = {full}, []
    for g in generators:
        if g not in faces:
            faces |= {f & g for f in faces}
            taken.append(g)
    faces.add(0)
    return faces, taken


def _apart(subsets):
    """(len(subsets), n, n) bool: entry [i, x, y] is whether the 0/1 row
    subsets[i] holds exactly one of x and y."""
    return subsets[:, :, np.newaxis] != subsets[:, np.newaxis, :]


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
    V = _unpack(_pack(verts, n), n)
    # meet[S, j] = |S & B_j| for every subset S; F_S is where a row peaks
    subsets = _unpack(_pack(range(1 << n), n), n)
    meet = subsets @ V.T
    tight = np.packbits(meet == meet.max(axis=1, keepdims=True), axis=1, bitorder="little")
    # each distinct row with the least S giving it: later keys overwrite
    keys = [int.from_bytes(row.tobytes(), "little") for row in tight]
    least = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    full = (1 << m) - 1
    faces, facets = _close(sorted(least, key=int.bit_count, reverse=True), full)
    faces = sorted(faces)
    packed = _pack(faces, m)
    # elements x, y lie in one class of a face when every facet through
    # it and every separator (a subset whose row is full) holds both or
    # neither; n minus the class count is the count of elements with a
    # lower element in their class
    split = _apart(subsets[[least[g] for g in facets]]).reshape(len(facets), n * n)
    cut = _apart(subsets[[S for S, g in enumerate(keys) if g == full]]).any(axis=0)
    outside = 1 - _unpack(_pack(facets, m), m)
    lower = np.tri(n, k=-1, dtype=bool)
    dims = np.empty(len(faces), dtype=np.intp)
    incidence = np.empty((len(faces), len(facets)), dtype=bool)
    # a block's vertex rows and pair counts stay within _CELLS entries
    step = max(1, _CELLS // (m + n * n))
    for r0 in range(0, len(faces), step):
        inc = _containment(_unpack(packed[r0:r0 + step], m), outside)
        incidence[r0:r0 + len(inc)] = inc
        apart = (inc @ split).reshape(-1, n, n) != 0
        dims[r0:r0 + len(inc)] = (~(apart | cut) & lower).any(axis=2).sum(axis=1)
    dims[0] = -1
    order = np.argsort(dims, kind="stable")
    return FaceLattice(verts, [faces[i] for i in order], dims[order], packed[order],
                       incidence[order])


def _chain_counts(L, below, above, stride):
    """Flag counts by mask, 2^D of them: f_S for every chain type S whose
    dimensions lie below D + 1 - stride and differ by at least stride,
    and 0 for every other S.

    below[i] @ above[j] is 0 exactly when face i lies in face j, for the
    rows from layer 0 up (row 0 is L.lo[0]).
    """
    lo = L.lo - L.lo[0]
    top = L.dim + 1 - stride
    # tops[d]: the masks S with max(S) == d, and one row per S whose
    # entry j counts the chains of type S ending in face j of layer d
    tops = [([1 << d], [np.ones((1, lo[d + 1] - lo[d]))]) for d in range(top)]
    flags = [1] + [0] * ((1 << L.dim) - 1)
    for t in range(top):
        sets, rows = tops[t]
        vecs = np.vstack(rows)
        totals = vecs.sum(axis=1)
        if totals.max() >= _EXACT:
            raise InternalError("flag counts with top dimension %d reach 2^53, "
                                "past exact float64" % t)
        for S, total in zip(sets, totals):
            flags[S] = int(total)
        # up[:, j]: chains of each type through layer t into higher face j,
        # one column block of the containment at a time to bound memory
        first = min(t + stride, top)  # the lowest layer a chain steps up to
        base, end = lo[first], lo[top]
        up = np.empty((len(sets), end - base))
        step = max(1, _CELLS // max(1, lo[t + 1] - lo[t]))
        for c in range(base, end, step):
            block = above[c:min(c + step, end)]
            up[:, c - base:c - base + len(block)] = (
                vecs @ _containment(below[lo[t]:lo[t + 1]], block))
        for d in range(first, top):
            tops[d][1].append(up[:, lo[d] - base:lo[d + 1] - base])
            tops[d][0].extend(S | 1 << d for S in sets)
    return flags


def oracle_flag_f(L):
    """Flag f-vector of the boundary, from chains of proper faces, every
    chain type counted through the vertex rows."""
    X = _unpack(L.packed[L.lo[0]:L.lo[L.dim]], len(L.vertex_masks))
    return FlagFVector.from_vector(L.dim, _chain_counts(L, X, 1 - X, 1))


def sparse_flag_counts(L):
    """Flag counts by mask, 2^D of them, f_S for the Fib(D + 1) sparse
    sets S (within 0..D-2, no two consecutive) and 0 for the rest, with
    containment tested through the facet incidence."""
    inc = L.incidence[L.lo[0]:L.lo[L.dim]].astype(np.float32)
    return _chain_counts(L, 1 - inc, inc, 2)


def oracle_cd_index(M):
    """The cd-index of M's base polytope from the sparse flag counts of
    its face lattice; InternalError unless its f-vector is the lattice's."""
    L = face_lattice(M)
    D = L.dim
    p = sparse_flag_to_cd(D, sparse_flag_counts(L))
    f = cd_f_vector(p, D)
    if f != L.f_vector():
        raise InternalError("the face lattice has f-vector %s, but its sparse flag "
                            "counts give %s" % (L.f_vector(), f))
    return p


def eulerian_check(L):
    """Every interval of length >= 2 in the full lattice (empty face and
    the polytope itself included) must have equally many elements of
    each parity.  Returns (True, None) or (False, witness_interval)."""
    dims = L.dims
    X = _unpack(L.packed, len(L.vertex_masks))
    contain = _containment(X, 1 - X)
    sign = np.where(dims % 2 == 0, 1.0, -1.0)
    # total[b, t] = signed count of faces in the interval [b, t]
    total = (contain * sign[np.newaxis, :]) @ contain
    span = dims[np.newaxis, :] - dims[:, np.newaxis]
    bad = (total != 0) & (span >= 2) & (contain == 1)
    if bad.any():
        b, t = map(int, np.argwhere(bad)[0])
        return False, (_bits(L.faces[b]), _bits(L.faces[t]), int(dims[b]), int(dims[t]))
    return True, None
