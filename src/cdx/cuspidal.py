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
elements.

The dual matroid's polytope is the image of this one under x -> 1 - x,
so both have one cd-index.  ``cd_cuspidal`` stores it once, under the
smaller of the two keys, as ``cd_hypersimplex`` stores (k, n) under
(min(k, n - k), n); ``check_key`` accepts either key, so a cache record
under the other one still loads.
"""

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
    memoized on the smaller of its key and its dual's."""
    check_key(k, n, r, h)
    return MEMO.lookup(min((k, n, r, h), dual_key(k, n, r, h)))


def _compute(k, n, r, h):
    # ambient faces, by how the pinned sets meet F and its complement,
    # bounded to those whose minimum of x(F) stays below r; many pinnings
    # give the same face, so counts are summed per face first
    ambient = {}  # (codimension, cd function, its arguments) -> count
    for c1 in range(r):  # r < min(k, h)
        n1 = comb(h, c1)
        for c2 in range(0, min(k - c1, n - h + 1)):
            n2 = n1 * comb(n - h, c2)
            kk = k - c1 - c2
            for d1 in range(0, min(n - k, h - c1 + 1)):
                n3 = n2 * comb(h - c1, d1)
                free_f = h - c1 - d1
                hi = c1 + min(free_f, kk)
                for d2 in range(0, min(n - k - d1, n - h - c2 + 1, (n - h) - (k - r))):
                    codim = c1 + c2 + d1 + d2
                    if codim == 0:
                        continue
                    if hi <= r:
                        face = (codim, cd_hypersimplex, (kk, n - codim))
                    else:
                        face = (codim, cd_cuspidal, (kk, n - codim, r - c1, free_f))
                    ambient[face] = ambient.get(face, 0) + n3 * comb(n - h - c2, d2)
    faces = [(c, fn(*args), count) for (c, fn, args), count in ambient.items()]
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
