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
"""

from math import comb

from .errors import InvalidParams
from .memo import Memo
from .ncpoly import NcPoly, chain_sum


def face_type_counts(k, n):
    """Map (i, j) = (|C|, |D|) -> the number of faces of dimension >= 1
    pinned by such a pair."""
    return {(i, j): comb(n, i) * comb(n - i, j)
            for i in range(k) for j in range(max(0, 1 - i), n - k)}


def _check_params(k, n):
    if n < 1 or k < 0 or k > n:
        raise InvalidParams("hypersimplex needs 0 <= k <= n, n >= 1, got k=%d n=%d" % (k, n))


# the (1, 2) hypersimplex, packed like every other recursion result, so
# that no face of the recursion needs its words listed
SEGMENT = chain_sum(1, 2, [])


def cd_hypersimplex(k, n):
    """cd-index of the (k, n) hypersimplex, memoized on (min(k, n-k), n)."""
    _check_params(k, n)
    if k == 0 or k == n:
        return NcPoly.one()  # a single vertex
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
    faces = [(i + j, cd_hypersimplex(k - i, n - i - j), count)
             for (i, j), count in face_type_counts(k, n).items()]
    return chain_sum(n - 1, comb(n, k), faces)


def _product(k1, n1, k2, n2):
    dim = n1 + n2 - 2
    faces = []
    for a, m1, ct1 in factor_faces(k1, n1):
        for b, m2, ct2 in factor_faces(k2, n2):
            c = dim - (m1 - 1) - (m2 - 1)
            if 0 < c < dim:  # not the product itself, not a vertex
                faces.append((c, cd_hypersimplex_product(a, m1, b, m2), ct1 * ct2))
    return chain_sum(dim, comb(n1, k1) * comb(n2, k2), faces)


MEMO = Memo(_compute)
PRODUCTS = Memo(_product)
memo_snapshot = MEMO.snapshot


def memo_clear():
    MEMO.clear()
    PRODUCTS.clear()
