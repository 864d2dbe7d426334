"""Chain weights in the mixed letters b, c, d, which the recursions once
summed word by word: b(a-b)^t and (a-b)^dim written with b only as a
trailing letter.  The recursions now run Horner's rule on coefficient
lists (ncpoly.chain_sum) and build none of these; the tests keep them as
the reference chain count that the recursions must equal.
"""

from functools import cache

from cdx.errors import InvalidParams
from cdx.ncpoly import B, C, D, NcPoly


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
