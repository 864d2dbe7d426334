"""cd-index of cuspidal matroids: a hypersimplex cut by one flat constraint.

The (k, n, r, h) cuspidal matroid has the bases of the (k, n) uniform
matroid that meet a fixed h-element set F in at most r elements; its
base polytope is the hypersimplex truncated by x(F) <= r.  Faces come
in three kinds: ambient hypersimplex faces kept whole (max of x(F) on
the face at most r), ambient faces truncated to smaller cuspidal
polytopes (r strictly between the face's min and max), and faces lying
in the cut hyperplane itself, which form a product of two
hypersimplices.  Ambient faces whose minimum already reaches r
contribute nothing new.

The face cd-indices go to ``ncpoly.chain_sum`` summed by codimension:
c1 + c2 + d1 + d2 for an ambient face pinned by c1 + c2 elements to 1
and d1 + d2 to 0, and n - 1 - dm for a cut-plane face of dimension dm.

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
from .hypersimplex import factor_faces, cd_hypersimplex, cd_hypersimplex_product
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
    # ambient faces, by how the pinned sets meet F and its complement;
    # many pinnings give the same face, so counts are summed per face first
    ambient = {}  # (codimension, cd function, its arguments) -> count
    for c1 in range(0, min(k, h + 1)):
        for c2 in range(0, min(k - c1, n - h + 1)):
            for d1 in range(0, min(n - k, h - c1 + 1)):
                for d2 in range(0, min(n - k - d1, n - h - c2 + 1)):
                    codim = c1 + c2 + d1 + d2
                    if codim == 0:
                        continue
                    kk = k - c1 - c2
                    nn = n - codim
                    free_f = h - c1 - d1
                    free_out = (n - h) - c2 - d2
                    lo = c1 + max(0, kk - free_out)
                    hi = c1 + min(free_f, kk)
                    if lo >= r:
                        continue  # meets the polytope only inside the cut plane
                    if hi <= r:
                        face = (codim, cd_hypersimplex, (kk, nn))
                    else:
                        face = (codim, cd_cuspidal, (kk, nn, r - c1, free_f))
                    count = (comb(h, c1) * comb(n - h, c2)
                             * comb(h - c1, d1) * comb(n - h - c2, d2))
                    ambient[face] = ambient.get(face, 0) + count
    faces = [(c, fn(*args), count) for (c, fn, args), count in ambient.items()]
    # faces inside the cut plane: products of two hypersimplices
    for k1, n1, ct1 in factor_faces(r, h):
        for k2, n2, ct2 in factor_faces(k - r, n - h):
            dm = (n1 - 1) + (n2 - 1)
            if dm < 1:
                continue
            faces.append((n - 1 - dm, cd_hypersimplex_product(k1, n1, k2, n2), ct1 * ct2))
    return chain_sum(n - 1, vertex_count(k, n, r, h), faces)


def cuspidal_matroid(k, n, r, h):
    """The matroid itself: bases meeting the first h elements at most r times."""
    from .matroid import Matroid

    check_key(k, n, r, h)
    return Matroid.from_cyclic_flats(n, k, [(tuple(range(h)), r)])


MEMO = Memo(check_key, _compute)
memo_snapshot = MEMO.snapshot
memo_clear = MEMO.clear
