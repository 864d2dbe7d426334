"""cd-index of hypersimplices via the stratified chain-count recursion.

The faces of dimension at least one of the (k, n) hypersimplex are cut
out by disjoint pairs (C, D): coordinates pinned to 1 on C and 0 on D,
with |C| < k and |D| < n - k, leaving a smaller hypersimplex on the
remaining ground set.  Summing each face's cd-index times the trailing
chain weight g_cd(|C u D| - 1), plus the empty-chain and vertex terms,
gives a mixed expression whose cd part is the cd-index.

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
    acc = emve_mixed(n - 1, comb(n, k))
    for (i, j), count in face_type_counts(k, n).items():
        acc = acc + count * (cd_hypersimplex(k - i, n - i - j) * g_cd(i + j - 1))
    return normalize_mixed(acc)


MEMO = Memo(_check_key, _compute)
PRODUCTS = Memo(_check_pair, _product)
memo_snapshot = MEMO.snapshot


def memo_clear():
    MEMO.clear()
    PRODUCTS.clear()
