"""Chain weights in the mixed letters b, c, d, which the recursions once
summed word by word: b(a-b)^t and (a-b)^dim written with b only as a
trailing letter.  The recursions now run Horner's rule on packed
coefficient slots (ncpoly.chain_sum) and build none of these; the tests
keep them as the reference chain count that the recursions must equal.

reference_chain_sum is the kernel chain_sum replaced: the same Horner
steps on lists of exact ints, one comprehension per step.

reference_poly_from_json is the cache record reader cli.poly_from_json
replaced: the same rules, checked one word at a time.

reference_cuspidal_faces is the ambient-face loop cuspidal._compute
replaced: one count per pinning, each face canonicalized on its own.

reference_face_dims is the dimension pass oracle.face_lattice replaced:
each face is the base polytope of a direct sum of minors
(Feichtner-Sturmfels, 2005), so its dimension is n minus the connected
components of the fundamental graph of one of its vertices.
"""

from functools import cache
from math import comb

import numpy as np

from cdx.cuspidal import dual_key
from cdx.errors import InvalidParams, NotCdEquivalent
from cdx.ncpoly import B, C, D, NcPoly, cd_order, from_terms, word_degree


@cache
def _csq_minus_2d_pow(m):
    return (C * C - 2 * D) ** m


@cache
def g_cd(t):
    """Mixed form of b(a-b)^t in the letters b, c, d, with b only trailing.

    g(0) = b, g(1) = d - cb, and for t >= 2 the identity
    b(a-b)^2 = (a-b)^2 b + dc - cd peels two letters at a time:

        g(t) = (cc-2d) g(t-2) + (dc-cd) (cc-2d)^((t-2)/2)          t even
        g(t) = (cc-2d) g(t-2) + (dc-cd) (cc-2d)^((t-3)/2) (c-2b)   t odd
    """
    if not isinstance(t, int) or t < 0:
        raise InvalidParams("g_cd needs t >= 0, got %r" % (t,))
    if t == 0:
        return B
    if t == 1:
        return D - C * B
    base = C * C - 2 * D
    comm = D * C - C * D
    if t % 2 == 0:
        return base * g_cd(t - 2) + comm * _csq_minus_2d_pow((t - 2) // 2)
    return base * g_cd(t - 2) + comm * _csq_minus_2d_pow((t - 3) // 2) * (C - 2 * B)


def emve_mixed(dim, num_vertices):
    """(a-b)^dim + num_vertices * b(a-b)^(dim-1), just 1 when dim = 0, with
    every b a trailing letter.

    The empty-plus-vertex part of the stratified chain count: the empty
    chain contributes (a-b)^dim and each vertex b(a-b)^(dim-1).
    """
    if dim < 0:
        raise InvalidParams("dimension must be >= 0")
    if num_vertices < 1:
        raise InvalidParams("a polytope has at least one vertex")
    if dim == 0:
        return NcPoly.one()
    return _e_mixed(dim) + num_vertices * g_cd(dim - 1)


def _e_mixed(dim):
    """(a-b)^dim with every b a trailing letter."""
    head = _csq_minus_2d_pow(dim // 2)
    return head * (C - 2 * B) if dim % 2 else head


def _vector(p, deg):
    """The coefficients of p over cd_order(deg)."""
    t = p.terms()
    vec = [t.get(w, 0) for w in cd_order(deg)]
    if len(vec) - vec.count(0) != len(t):
        raise InvalidParams("a face cd-index is not a cd polynomial of degree %d" % deg)
    return vec


def reference_chain_sum(dim, f0, faces):
    """ncpoly.chain_sum on coefficient lists: the state p0 + p1 b holds p0
    over cd_order(e) and p1 over cd_order(e - 1), and each Horner step
    builds the new lists by concatenation and comprehensions."""
    if dim < 0:
        raise InvalidParams("dimension must be >= 0")
    if f0 < 1:
        raise InvalidParams("a polytope has at least one vertex")
    for c, _, _ in faces:
        if not 0 < c < dim:
            raise InvalidParams("a face of codimension %d in dimension %d" % (c, dim))
    if dim == 0:
        return NcPoly.one()
    sums = {dim: [f0]}
    for c, face, count in faces:
        v = _vector(face, dim - c)
        vec = sums.get(c)
        sums[c] = ([count * x for x in v] if vec is None
                   else [a + count * x for a, x in zip(vec, v)])
    e, p0, p1 = (1, [1], [f0 - 2]) if dim % 2 else (0, [1], [])
    while e < dim:
        size, short = len(p0), len(p1)
        v = sums.get(dim - e) or [0] * size
        w = sums.get(dim - e - 1) or [0] * (size + short)
        tail = p1 + [0] * (size - short)
        p0, p1 = (p0 + p1 + [y - 2 * x - z for x, z, y in zip(p0, tail, v)],
                  [a - y + z for a, y, z in zip(w, v, tail)]
                  + [a - 2 * z for a, z in zip(w[size:], p1)])
        e += 2
    if any(p1):
        w, y = min((w, y) for w, y in zip(cd_order(dim - 1), p1) if y)
        raise NotCdEquivalent("residue %d*%sb after collecting trailing b" % (y, w))
    return NcPoly({w: y for w, y in zip(cd_order(dim), p0) if y})


def reference_poly_from_json(obj, degree):
    """cli.poly_from_json word by word: each word over c, d of the given
    degree, each coefficient an int (not a bool) or a string that int()
    reads; anything else raises ValueError."""
    terms = {}
    for w, c in obj.items():
        if not (set(w) <= {"c", "d"} and word_degree(w) == degree
                and ((isinstance(c, int) and not isinstance(c, bool))
                     or isinstance(c, str))):
            raise ValueError("%r: %r is not a cd term of degree %d" % (w, c, degree))
        terms[w] = int(c)
    return from_terms(terms)


def reference_cuspidal_faces(k, n, r, h):
    """The ambient faces of the (k, n, r, h) cuspidal polytope as
    {(codim, kind, canonical key): count}, one pinning at a time: c1 and
    c2 elements of F and outside it pinned to 1, d1 and d2 to 0, for each
    pinning whose minimum of x(F) is below r.  A face whose maximum of
    x(F) is at most r is a whole "hypersimplex" under (min(k', n' - k'),
    n'); any other is "cuspidal" under the smaller of its key and its
    dual's."""
    out = {}
    for c1 in range(r):
        for c2 in range(0, min(k - c1, n - h + 1)):
            kk = k - c1 - c2
            for d1 in range(0, min(n - k, h - c1 + 1)):
                free_f = h - c1 - d1
                hi = c1 + min(free_f, kk)
                for d2 in range(0, min(n - k - d1, n - h - c2 + 1, (n - h) - (k - r))):
                    codim = c1 + c2 + d1 + d2
                    if codim == 0:
                        continue
                    m = n - codim
                    if hi <= r:
                        face = (codim, "hypersimplex", (min(kk, m - kk), m))
                    else:
                        key = (kk, m, r - c1, free_f)
                        face = (codim, "cuspidal", min(key, dual_key(*key)))
                    count = (comb(h, c1) * comb(n - h, c2)
                             * comb(h - c1, d1) * comb(n - h - c2, d2))
                    out[face] = out.get(face, 0) + count
    return out


# faces per row block of the dimension pass
_BLOCK = 512
# _LOWBIT[b]: index of the lowest set bit of the byte b (0 for b = 0)
_LOWBIT = np.array([(b & -b).bit_length() - 1 if b else 0 for b in range(256)],
                   dtype=np.intp)


def reference_face_dims(n, rank, V, packed):
    """dim of each face of packed (rows sorted by mask, row 0 the empty
    face), given the vertices' 0/1 rows V: n minus the components of the
    fundamental graph of its first vertex, restricted to the exchanges
    that stay inside the face.

    For a block of faces at a time: the first vertex of each face, the
    exchange edges of that vertex that stay inside the face, one
    bincount into an (n, faces) array of per-element neighbour bitmasks,
    n Warshall steps to close them, and the component count is the
    number of elements lowest in their closure.
    """
    m = len(V)
    # the exchange edges: B_j = B_i - x + y, in row-major order of (i, j)
    I, J = np.nonzero(V @ V.T == rank - 1)
    diff = V[I] - V[J]
    X, Y = diff.argmax(axis=1), diff.argmin(axis=1)
    # vertex i's edges padded to width slots: the byte and bit of B_j in a
    # packed row (mask 0 in an unused slot), and x and y
    deg = np.bincount(I, minlength=m)
    width = int(deg.max()) if len(I) else 0
    slot = np.arange(len(I)) - (np.cumsum(deg) - deg)[I]
    tabByte = np.zeros((m, width), dtype=np.intp)
    tabBit = np.zeros((m, width), dtype=np.uint8)
    tabX = np.zeros((m, width), dtype=np.intp)
    tabY = np.zeros((m, width), dtype=np.intp)
    tabByte[I, slot], tabBit[I, slot], tabX[I, slot], tabY[I, slot] = J >> 3, 1 << (J & 7), X, Y
    elem = np.arange(n)
    below = ((1 << elem) - 1)[:, np.newaxis]
    dims = np.empty(len(packed), dtype=np.intp)
    for r0 in range(0, len(packed), _BLOCK):
        P = packed[r0:r0 + _BLOCK]
        rows = np.arange(len(P))[:, np.newaxis]
        byte = (P != 0).argmax(axis=1)
        first = 8 * byte + _LOWBIT[P[rows[:, 0], byte]]
        inside = (P[rows, tabByte[first]] & tabBit[first]) != 0
        x, y = tabX[first], tabY[first]
        # each element's neighbours as a bitmask; the pairs (x, y) of one
        # vertex are distinct, so the sum over an element's edges is an OR
        nbr = np.bincount(np.concatenate([(rows * n + x).ravel(), (rows * n + y).ravel()]),
                          weights=np.concatenate([(inside << y).ravel(), (inside << x).ravel()]),
                          minlength=len(P) * n)
        R = nbr.reshape(len(P), n).T.astype(np.int64) | (1 << elem)[:, np.newaxis]
        for k in range(n):
            R |= (R >> k & 1) * R[k]
        dims[r0:r0 + len(P)] = n - (R & below == 0).sum(axis=0)
    dims[0] = -1
    return dims
