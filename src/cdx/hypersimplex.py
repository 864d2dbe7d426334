"""cd-index of hypersimplices via the stratified chain-count recursion.

The faces of dimension at least one of the (k, n) hypersimplex are cut
out by disjoint pairs (C, D): coordinates pinned to 1 on C and 0 on D,
with |C| < k and |D| < n - k, leaving the (k - |C|, n - |C u D|)
hypersimplex on the remaining ground set.  Each face contributes its
cd-index times the trailing chain weight g_cd(|C u D| - 1); with the
empty-chain and vertex terms this gives a mixed expression whose cd
part is the cd-index.

The weight depends only on the face size m = |C u D|, so the recursion
works one m at a time: it sums count * cd_hypersimplex(k - i, n - m)
over the face types (i, m - i) into one coefficient dict, with no
product, then multiplies that sum once by g_cd(m - 1), adding the terms
into a single accumulator in place.  Only one group is held at a time.
``normalize_mixed`` then extracts the cd part and checks that no
trailing-b residue is left.

The cuspidal and modular-pair terms take products of two
hypersimplices; ``cd_hypersimplex_product`` memoizes those beside the
recursion's own table, and ``memo_clear`` empties both.
"""

from math import comb

from .errors import InvalidParams
from . import ncpoly
from .memo import Memo
from .ncpoly import NcPoly, emve_mixed, g_cd, normalize_mixed
from .product import cd_product


def face_index_set(k, n):
    """Index pairs (i, j) = (|C|, |D|) for the faces of dimension >= 1."""
    return [
        (i, j)
        for i in range(0, k)
        for j in range(max(0, 1 - i), n - k)
    ]


def face_type_counts(k, n):
    """Map (i, j) -> number of faces with |C| = i, |D| = j."""
    return {(i, j): comb(n, i) * comb(n - i, j) for i, j in face_index_set(k, n)}


def _check_params(k, n):
    if n < 1 or k < 0 or k > n:
        raise InvalidParams("hypersimplex needs 0 <= k <= n, n >= 1, got k=%d n=%d" % (k, n))


def cd_hypersimplex(k, n):
    """cd-index of the (k, n) hypersimplex, memoized on (min(k, n-k), n)."""
    _check_params(k, n)
    if k == 0 or k == n:
        return NcPoly.one()  # a single vertex
    if n == 2:
        return ncpoly.C
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
    """The keys cd_hypersimplex stores; the cd-index there has degree n - 1."""
    if not 1 <= k <= n - k or n < 3:
        raise InvalidParams("bad hypersimplex memo key (%d, %d)" % (k, n))
    return n - 1


def _check_pair(k1, n1, k2, n2):
    """The keys cd_hypersimplex_product stores: a sorted pair of canonical
    keys of hypersimplices of dimension >= 1; the product has degree
    n1 + n2 - 2."""
    if not (1 <= k1 <= n1 - k1 and 1 <= k2 <= n2 - k2 and (k1, n1) <= (k2, n2)):
        raise InvalidParams("bad hypersimplex product key %r" % ((k1, n1, k2, n2),))
    return n1 + n2 - 2


def _product(k1, n1, k2, n2):
    return cd_product(cd_hypersimplex(k1, n1), cd_hypersimplex(k2, n2))


def _compute(k, n):
    # recursion run for the given k as-is; duality tests call both sides
    by_size = {}
    for (i, j), count in face_type_counts(k, n).items():
        by_size.setdefault(i + j, []).append((k - i, count))
    acc = dict(emve_mixed(n - 1, comb(n, k))._t)
    get = acc.get
    for m, faces in by_size.items():
        group = {}
        for face_k, count in faces:
            for w, c in cd_hypersimplex(face_k, n - m)._t.items():
                group[w] = group.get(w, 0) + count * c
        weight = g_cd(m - 1)._t.items()
        for w1, c1 in group.items():
            for w2, c2 in weight:
                w = w1 + w2
                acc[w] = get(w, 0) + c1 * c2
    mixed = NcPoly.__new__(NcPoly)
    mixed._t = {w: c for w, c in acc.items() if c}
    return normalize_mixed(mixed)


MEMO = Memo(_check_key, _compute)
PRODUCTS = Memo(_check_pair, _product)
memo_snapshot = MEMO.snapshot


def memo_clear():
    MEMO.clear()
    PRODUCTS.clear()
