"""cd-index of a cartesian product of polytopes, from their flag f-vectors.

It serves only ``cd_product_all``, the product over the connected
components of a matroid (at most 12 elements in all).  Products of two
hypersimplices have their own face recursion in ``hypersimplex``.

Faces of V x W are the products F x G of nonempty faces, the improper
faces V and W included, and dim(F x G) = dim F + dim G.  A chain of
proper faces of the product is therefore a chain of dimension pairs
(e, g), weakly increasing in each coordinate and strictly increasing
in e + g < dim V + dim W, together with a chain of faces of V using
the distinct e values and a chain of faces of W using the distinct g
values.  A repeated e means the same face of V; e = dim V means V
itself, which adds nothing to the count.

The kernel walks these pair chains depth first, carrying three bit
masks: S of the sums e + g, T of the e values and U of the g values.
Each node of the walk, the empty chain included, adds fV[T] * fW[U] to
the product's flag entry at S.  The factors' flag vectors are flat
lists indexed by mask; each is stored twice over, so the improper top
bit reads the same entry as the mask without it.
"""

from .errors import InvalidParams
from .ncpoly import NcPoly, cd_to_flag_f, flag_to_cd, FlagFVector


def cd_product(p, q):
    """cd-index of the product of two polytopes given their cd-indices."""
    for x in (p, q):
        if not x.is_homogeneous():
            raise InvalidParams("cd-index of a polytope must be homogeneous")
        if x.coeff("c" * x.degree()) != 1:  # c^D, or a point's 1
            raise InvalidParams("not a polytope cd-index: %s" % x.text())
    dp, dq = p.degree(), q.degree()
    if dp == 0:
        return q  # V is a point
    if dq == 0:
        return p
    # bit dim of a factor, its improper top face, reads the mask without it
    fp = cd_to_flag_f(p, dp).vector() * 2
    fq = cd_to_flag_f(q, dq).vector() * 2
    D = dp + dq
    # the pairs that may follow (e0, g0) in a chain, as entries
    # (bit of e, bit of g, bit of e + g, the pairs that may follow (e, g))
    after = {(e, g): [] for e in range(dp + 1) for g in range(dq + 1)}

    def fill(pairs, e0, g0, s0):
        for e in range(e0, dp + 1):
            for g in range(max(g0, s0 + 1 - e), min(dq, D - 1 - e) + 1):
                pairs.append((1 << e, 1 << g, 1 << (e + g), after[e, g]))

    for (e0, g0), pairs in after.items():
        fill(pairs, e0, g0, e0 + g0)
    first = []
    fill(first, 0, 0, -1)
    out = [0] * (1 << D)
    out[0] = 1  # the empty chain

    def walk(pairs, S, T, U):
        for be, bg, bs, more in pairs:
            S2, T2, U2 = S | bs, T | be, U | bg
            out[S2] += fp[T2] * fq[U2]
            if more:
                walk(more, S2, T2, U2)

    walk(first, 0, 0, 0)
    return flag_to_cd(FlagFVector.from_vector(D, out))


def cd_product_all(polys):
    """Product over a sequence of cd-indices; empty product is the point."""
    out = NcPoly.one()
    for p in polys:
        out = cd_product(out, p)
    return out
