"""cd-index of hypersimplices and of their products, by the stratified
chain count ``ncpoly.chain_sum``: a polytope's cd-index from those of
its faces, summed per codimension.

The faces of dimension at least one of the (k, n) hypersimplex are cut
out by disjoint pairs (C, D): coordinates pinned to 1 on C and 0 on D,
with |C| < k and |D| < n - k, leaving the (k - |C|, n - |C u D|)
hypersimplex on the remaining ground set.  The codimension is the face
size m = |C u D|.

The faces of a product of two hypersimplices are the products F1 x F2
of their faces, vertices and the factors themselves included, with
dim(F1 x F2) = dim F1 + dim F2; ``factor_faces`` lists them with their
counts.  The product recursion runs on these smaller products, so it
never builds a flag vector.  The cuspidal and modular-pair terms take
products of two hypersimplices; ``cd_hypersimplex_product`` memoizes
them beside the recursion's own table, and ``memo_clear`` empties both.

Different pinnings, or face pairs, of one codimension are often the same
polytope up to the symmetry x -> 1 - x, so both recursions sum their
counts per codimension and canonical key (min(k, n - k), n), or sorted
pair of such keys, and look each one up once.
"""

from functools import cache
from math import comb

from .errors import InvalidParams
from .memo import Memo
from .ncpoly import chain_sum


def face_type_counts(k, n):
    """Map (i, j) = (|C|, |D|) -> the number of faces of dimension >= 1
    pinned by such a pair."""
    return {(i, j): comb(n, i) * comb(n - i, j)
            for i in range(k) for j in range(max(0, 1 - i), n - k)}


def _check_params(k, n):
    if n < 1 or k < 0 or k > n:
        raise InvalidParams("hypersimplex needs 0 <= k <= n, n >= 1, got k=%d n=%d" % (k, n))


# the point and the (1, 2) hypersimplex, packed like every other
# recursion result, so that no face or factor needs its words listed
POINT = chain_sum(0, 1, [])
SEGMENT = chain_sum(1, 2, [])


def cd_hypersimplex(k, n):
    """cd-index of the (k, n) hypersimplex, memoized on (min(k, n-k), n).
    A key found as given is returned unchecked: the table holds only
    checked canonical keys (see memo)."""
    got = MEMO.get((k, n))
    if got is not None:
        return got
    _check_params(k, n)
    if k == 0 or k == n:
        return POINT  # a single vertex
    if n == 2:
        return SEGMENT
    return MEMO.lookup((min(k, n - k), n))


def cd_hypersimplex_product(k1, n1, k2, n2):
    """cd-index of the product of the (k1, n1) and (k2, n2) hypersimplices,
    memoized on the sorted pair of canonical (min(k, n-k), n) keys."""
    _check_params(k1, n1)
    _check_params(k2, n2)
    if k1 == 0 or k1 == n1:
        return cd_hypersimplex(k2, n2)
    if k2 == 0 or k2 == n2:
        return cd_hypersimplex(k1, n1)
    pair = sorted([(min(k1, n1 - k1), n1), (min(k2, n2 - k2), n2)])
    return PRODUCTS.lookup(pair[0] + pair[1])


def _check_key(k, n):
    """The keys cd_hypersimplex stores; the cd-index there has degree n - 1.
    The result cache runs it on each hypersimplex record it reads."""
    if not 1 <= k <= n - k or n < 3:
        raise InvalidParams("bad hypersimplex memo key (%d, %d)" % (k, n))
    return n - 1


def factor_faces(k, h):
    """Faces of the (k, h) hypersimplex as (k', h', count) triples, each
    face a (k', h') hypersimplex; the polytope itself and its vertices
    (the point (0, 1)) included."""
    out = [(k, h, 1)]
    for (i, j), ct in face_type_counts(k, h).items():
        out.append((k - i, h - i - j, ct))
    out.append((0, 1, comb(h, k)))
    return out


def _compute(k, n):
    # recursion run for the given k as-is; duality tests call both sides
    counts = {}  # (codimension, canonical key) -> count
    for (i, j), count in face_type_counts(k, n).items():
        key = (i + j, min(k - i, n - k - j), n - i - j)
        counts[key] = counts.get(key, 0) + count
    faces = [(c, cd_hypersimplex(kk, m), count) for (c, kk, m), count in counts.items()]
    return chain_sum(n - 1, comb(n, k), faces)


@cache
def _canonical_faces(k, h):
    """factor_faces(k, h) with counts summed per canonical key (min(k',
    h' - k'), h'), as ((k', h'), count) pairs; a vertex is (0, 1)."""
    counts = {}
    for a, m, ct in factor_faces(k, h):
        key = (min(a, m - a), m)
        counts[key] = counts.get(key, 0) + ct
    return tuple(counts.items())


def _product(k1, n1, k2, n2):
    # a pair of faces of dimension >= 1 is looked up in PRODUCTS directly,
    # its key already a sorted pair of canonical keys
    dim = n1 + n2 - 2
    counts = {}
    second = _canonical_faces(k2, n2)
    for key1, ct1 in _canonical_faces(k1, n1):
        for key2, ct2 in second:
            c = dim - (key1[1] - 1) - (key2[1] - 1)
            if 0 < c < dim:  # not the product itself, not a vertex
                pair = (c,) + (key1 + key2 if key1 <= key2 else key2 + key1)
                counts[pair] = counts.get(pair, 0) + ct1 * ct2
    faces = []
    for (c, a, m1, b, m2), count in counts.items():
        # a vertex factor, key (0, 1), sorts first
        face = cd_hypersimplex(b, m2) if a == 0 else PRODUCTS.lookup((a, m1, b, m2))
        faces.append((c, face, count))
    return chain_sum(dim, comb(n1, k1) * comb(n2, k2), faces)


MEMO = Memo(_compute)
PRODUCTS = Memo(_product)
memo_snapshot = MEMO.snapshot


def memo_clear():
    MEMO.clear()
    PRODUCTS.clear()
