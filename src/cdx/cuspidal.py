"""cd-index of cuspidal matroids: a hypersimplex cut by one flat constraint.

The (k, n, r, h) cuspidal matroid has the bases of the (k, n) uniform
matroid that meet a fixed h-element set F in at most r elements; its
base polytope is the hypersimplex truncated by x(F) <= r.  The faces
in the cut hyperplane x(F) = r are the faces of one facet, the product
of the (r, h) and (k - r, n - h) hypersimplices, and ``chain_sum``
takes all of them as that facet's one term Psi(Q) a.  The other faces
are ambient hypersimplex faces whose minimum of x(F) lies below r:
kept whole when their maximum is at most r, and truncated to smaller
cuspidal polytopes when r lies strictly between.  An ambient face
pinned by c1 elements of F and c2 outside it to 1, and by d1 and d2 to
0, has minimum c1 + max(0, k - (n - h) - c1 + d2), which is below r
exactly when c1 < r and d2 < (n - h) - (k - r), so the loop runs over
those pinnings alone.  Its codimension is c1 + c2 + d1 + d2, and the
vertices off the cut plane are the bases meeting F in fewer than r
elements.  Its maximum of x(F), c1 + min(h - c1 - d1, k - c1 - c2), is
at most r exactly when k - c1 - c2 <= r - c1 or d1 >= h - r, so that test
runs once per (c1, c2).  Many pinnings give the same whole face, a (k', n')
hypersimplex, so their counts are summed per codimension and canonical
key (min(k', n' - k'), n') first, and each key is looked up once.  A cut
face is one per pinning, looked up under the smaller of its key and its
dual's, computed in the loop, so the lookup hits as given.

The dual matroid's polytope is the image of this one under x -> 1 - x,
so both have one cd-index.  ``cd_cuspidal`` stores it once, under the
smaller of the two keys, as ``cd_hypersimplex`` stores (k, n) under
(min(k, n - k), n); ``check_key`` accepts either key, so a cache record
under the other one still loads.
"""

from functools import cache
from math import comb

from .errors import InvalidParams
from .memo import Memo
from .ncpoly import chain_sum
from .hypersimplex import cd_hypersimplex, cd_hypersimplex_product
from .matroid import Matroid, _check_size
from .product import cd_product  # noqa: F401  see ROADMAP item 7


def check_key(k, n, r, h):
    """The key is valid when F (size h, rank r) is a proper cyclic flat
    of a connected rank-k matroid on n elements: 1 <= r < min(k, h),
    h < n, and k - (n - h) < r.  Returns the degree n - 1 of the
    cd-index."""
    if not (1 <= r < k and r < h and h < n and k < n):
        raise InvalidParams("bad cuspidal key (k=%d, n=%d, r=%d, h=%d)" % (k, n, r, h))
    if r <= k - (n - h):
        raise InvalidParams(
            "cuspidal key (k=%d, n=%d, r=%d, h=%d) forces coloops" % (k, n, r, h)
        )
    return n - 1


def dual_key(k, n, r, h):
    """Key of the dual matroid (complemented bases)."""
    return (n - k, n, r + (n - h) - k, n - h)


def vertex_count(k, n, r, h):
    return sum(
        comb(h, t) * comb(n - h, k - t)
        for t in range(max(0, k - (n - h)), r + 1)
    )


def cd_cuspidal(k, n, r, h):
    """cd-index of the (k, n, r, h) cuspidal matroid's base polytope,
    memoized on the smaller of its key and its dual's.  A key found as
    given is returned unchecked: the table holds only checked canonical
    keys (see memo)."""
    got = MEMO.get((k, n, r, h))
    if got is None:
        check_key(k, n, r, h)
        got = MEMO.lookup(min((k, n, r, h), dual_key(k, n, r, h)))
    return got


@cache
def _binomials(m):
    """C(m, i) for i = 0 .. m."""
    return tuple(comb(m, i) for i in range(m + 1))


def _face_counts(k, n, r, h):
    """The ambient faces: {(codim, k', n'): count} of the whole
    hypersimplex faces, keys canonical, and a list of (codim, canonical
    cuspidal key, count) of the cut ones, one per pinning."""
    g = n - h  # the elements outside F
    hyper, cut = {}, []
    bh, bg = _binomials(h), _binomials(g)
    stop = g - (k - r)  # d2 below it keeps the minimum of x(F) below r
    for c1 in range(r):  # r < min(k, h)
        n1, bf, rr = bh[c1], _binomials(h - c1), r - c1
        d1_end = min(n - k, h - c1 + 1)
        for c2 in range(0, min(k - c1, g + 1)):
            n2, bo, kk = n1 * bg[c2], _binomials(g - c2), k - c1 - c2
            d2_end = min(stop, g - c2 + 1)
            # max x(F) = c1 + min(h - c1 - d1, kk) exceeds r exactly when
            # kk > rr and d1 < h - r: those faces are cut, the rest whole
            split = 0 if kk <= rr else min(h - r, d1_end)
            for d1 in range(split):
                n3, free_f, base = n2 * bf[d1], h - c1 - d1, c1 + c2 + d1
                for d2 in range(0 if base else 1, min(n - k - d1, d2_end)):
                    m = n - base - d2
                    key = (kk, m, rr, free_f)
                    if kk + kk >= m:  # else the key is below its dual's
                        key = min(key, (m - kk, m, rr + (m - free_f) - kk, m - free_f))
                    cut.append((base + d2, key, n3 * bo[d2]))
            # a whole face is the (kk, m) hypersimplex, m = n - codim, so
            # its counts are summed by d1 + d2 before they reach the dict
            by_s = [0] * (n - k)
            for d1 in range(split, d1_end):
                n3 = bf[d1]
                for d2 in range(0 if c1 + c2 + d1 else 1, min(n - k - d1, d2_end)):
                    by_s[d1 + d2] += n3 * bo[d2]
            for s, count in enumerate(by_s):
                if count:
                    m = n - c1 - c2 - s
                    key = (c1 + c2 + s, min(kk, m - kk), m)
                    hyper[key] = hyper.get(key, 0) + n2 * count
    return hyper, cut


def _compute(k, n, r, h):
    hyper, cut = _face_counts(k, n, r, h)  # each key looked up once
    faces = [(c, cd_cuspidal(*key), count) for c, key, count in cut]
    faces += [(c, cd_hypersimplex(kk, m), count) for (c, kk, m), count in hyper.items()]
    # the faces in the cut plane are those of one facet, the product of
    # the (r, h) and (k - r, n - h) hypersimplices; the vertices off it
    # meet F in at most r - 1 elements
    return chain_sum(n - 1, vertex_count(k, n, r - 1, h), faces,
                     facet=cd_hypersimplex_product(r, h, k - r, n - h))


def cuspidal_matroid(k, n, r, h):
    """The matroid itself: bases meeting the first h elements at most r times."""
    check_key(k, n, r, h)
    _check_size(n)  # before the h elements of F are listed
    return Matroid.from_cyclic_flats(n, k, [(tuple(range(h)), r)])


MEMO = Memo(_compute)
memo_snapshot = MEMO.snapshot
memo_clear = MEMO.clear
