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

import threading
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import InvalidParams
from . import ncpoly
from .ncpoly import NcPoly, emve_mixed, g_cd, normalize_mixed
from .product import cd_product


class FaceSpec(NamedTuple):
    """A face of dimension >= 1: pinned coordinate sets and its type."""

    ones: frozenset  # coordinates fixed to 1
    zeros: frozenset  # coordinates fixed to 0
    k: int  # the face is a (k, n) hypersimplex
    n: int

    @property
    def dim(self):
        return self.n - 1


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


def faces_of_hypersimplex(k, n):
    """All faces of dimension >= 1 as explicit FaceSpec pairs (0-based ground)."""
    _check_params(k, n)
    ground = range(n)
    out = []
    for i, j in face_index_set(k, n):
        for C in combinations(ground, i):
            rest = [e for e in ground if e not in C]
            for D in combinations(rest, j):
                out.append(FaceSpec(frozenset(C), frozenset(D), k - i, n - i - j))
    return out


def _check_params(k, n):
    if n < 1 or k < 0 or k > n:
        raise InvalidParams("hypersimplex needs 0 <= k <= n, n >= 1, got k=%d n=%d" % (k, n))


_memo = {}
_products = {}  # sorted pair of canonical keys -> cd-index of the product
_lock = threading.Lock()


def cd_hypersimplex(k, n):
    """cd-index of the (k, n) hypersimplex, memoized on (min(k, n-k), n)."""
    _check_params(k, n)
    if k == 0 or k == n:
        return NcPoly.one()  # a single vertex
    k = min(k, n - k)
    if n == 2:
        return ncpoly.C
    key = (k, n)
    with _lock:
        got = _memo.get(key)
    if got is not None:
        return got
    p = _compute(k, n)
    with _lock:
        _memo.setdefault(key, p)
    return p


def cd_hypersimplex_product(k1, n1, k2, n2):
    """cd-index of the product of the (k1, n1) and (k2, n2) hypersimplices,
    memoized on the sorted pair of canonical (min(k, n-k), n) keys."""
    _check_params(k1, n1)
    _check_params(k2, n2)
    if k1 == 0 or k1 == n1:
        return cd_hypersimplex(k2, n2)
    if k2 == 0 or k2 == n2:
        return cd_hypersimplex(k1, n1)
    key = tuple(sorted([(min(k1, n1 - k1), n1), (min(k2, n2 - k2), n2)]))
    with _lock:
        got = _products.get(key)
    if got is not None:
        return got
    (k1, n1), (k2, n2) = key
    p = cd_product(cd_hypersimplex(k1, n1), cd_hypersimplex(k2, n2))
    with _lock:
        _products.setdefault(key, p)
    return p


def _compute(k, n):
    # recursion run for the given k as-is; duality tests call both sides
    acc = emve_mixed(n - 1, comb(n, k))
    for (i, j), count in face_type_counts(k, n).items():
        acc = acc + count * (cd_hypersimplex(k - i, n - i - j) * g_cd(i + j - 1))
    return normalize_mixed(acc)


def memo_snapshot():
    with _lock:
        return dict(_memo)


def memo_install(key, poly):
    k, n = key
    _check_params(k, n)
    if k != min(k, n - k):
        raise InvalidParams("memo key must be canonical, got %r" % (key,))
    with _lock:
        _memo.setdefault((k, n), poly)


def memo_clear():
    with _lock:
        _memo.clear()
        _products.clear()
