"""cd-index of connected split matroids, and the component dispatcher.

The closed formula: start from the hypersimplex of the same rank and
size, add each proper cyclic flat's cuspidal correction, and subtract a
product-of-hypersimplices term for each modular pair of proper cyclic
flats.  Disconnected matroids are handled componentwise, since the base
polytope of a direct sum is the product of the summands' polytopes.
"""

from .errors import (
    DegreeMismatch,
    InternalError,
    InvalidAlphabet,
    InvalidParams,
    NotConnected,
    NotSparsePaving,
    NotSplit,
    UnsupportedMatroid,
)
from .memo import Memo
from .ncpoly import NcPoly, cd_f_vector, cd_sum, d_product
from .hypersimplex import cd_hypersimplex, cd_hypersimplex_product, factor_faces
from .cuspidal import cd_cuspidal
from .product import cd_product, cd_product_all  # noqa: F401  cd_product: see ROADMAP item 7
from .matroid import is_sparse_paving, split_profile

def w_key(alpha, beta, a, b, n):
    (alpha, a), (beta, b) = sorted([(alpha, a), (beta, b)])
    return (alpha, beta, a, b, n)


def check_w_key(alpha, beta, a, b, n):
    """The keys w_term stores: canonical shapes; the term has degree n - 1."""
    key = (alpha, beta, a, b, n)
    if min(alpha, beta, a, b) < 1 or n < a + b or w_key(*key) != key:
        raise InvalidParams("bad modular pair key %r" % (key,))
    return n - 1


def w_term(alpha, beta, a, b, n):
    """Correction term for a modular pair of proper cyclic flats.

    alpha, beta are the ranks and a, b the sizes of the two flats with
    the common intersection removed; n is the ground size of the whole
    matroid.  Symmetric in the two (rank, size) pairs.
    """
    key = w_key(alpha, beta, a, b, n)
    check_w_key(*key)
    return W_MEMO.lookup(key)


def _w_compute(alpha, beta, a, b, n):
    # products of a face of each flat's hypersimplex, summed by size
    # n1 + n2, each sum times d * simplex(n - n1 - n2) once
    by_size = {}
    for k1, n1, ct1 in factor_faces(alpha, a):
        for k2, n2, ct2 in factor_faces(beta, b):
            # no vertex factor; n1 + n2 = n would be the whole cut plane
            if 0 < k1 < n1 and 0 < k2 < n2 and n1 + n2 < n:
                by_size.setdefault(n1 + n2, []).append(
                    (cd_hypersimplex_product(k1, n1, k2, n2), ct1 * ct2))
    terms = [(d_product(cd_sum(s - 2, group), s - 2, cd_hypersimplex(1, n - s), n - s - 1), 1)
             for s, group in by_size.items()]
    return cd_sum(n - 1, terms)


W_MEMO = Memo(_w_compute)
w_memo_snapshot = W_MEMO.snapshot
w_memo_clear = W_MEMO.clear


def cd_split_matroid(M):
    """Closed-formula cd-index of a connected split matroid; NotConnected
    or NotSplit for any other matroid."""
    return _split_formula(split_profile(M))


def _split_formula(prof):
    """The closed formula, from the SplitProfile alone."""
    k, n = prof.k, prof.n
    return cd_sum(n - 1, [(cd_hypersimplex(k, n), 1 - sum(prof.lam.values()))]
                  + [(cd_cuspidal(k, n, r, h), cnt) for (r, h), cnt in prof.lam.items()]
                  + [(w_term(alpha, beta, a, b, n), -cnt)
                     for (alpha, beta, a, b), cnt in prof.mu.items()])


def cd_sparse_paving(M):
    """Fast path: every proper cyclic flat is a circuit hyperplane."""
    if not M.is_connected():
        raise NotConnected("not connected")
    if not is_sparse_paving(M):
        raise NotSparsePaving(
            "a proper cyclic flat is not a circuit hyperplane: %r"
            % (M.proper_cyclic_flats(),)
        )
    k, n = M.rank, M.n
    chs = [f.elements for f in M.proper_cyclic_flats()]
    lam = len(chs)
    mu = sum(
        1
        for idx, f in enumerate(chs)
        for g in chs[idx + 1:]
        if len(f & g) == k - 2
    )
    out = cd_hypersimplex(k, n)
    if lam:
        out = out + lam * (cd_cuspidal(k, n, k - 1, k) - out)
    if mu:
        corr = (NcPoly.word("ccd") + 2 * NcPoly.word("dd")) * cd_hypersimplex(1, n - 4)
        out = out - mu * corr
    return out


def cd_index(M, oracle_fallback=False):
    """cd-index of any matroid base polytope this package can reach.

    Split components go through the closed formula; other components
    can fall back to the brute-force oracle when allowed."""
    parts = []
    for sub in M.connected_components():
        try:
            prof = split_profile(sub)
        except NotSplit:
            if not oracle_fallback:
                raise UnsupportedMatroid(
                    "component on %d elements is not split; "
                    "rerun with the oracle fallback enabled" % sub.n
                ) from None
            from . import oracle  # only here: it loads numpy, which no other path needs

            parts.append(oracle.oracle_cd_index(sub))
        else:
            parts.append(_split_formula(prof))
    out = cd_product_all(parts)
    check_result(M, out)
    return out


def check_result(M, p):
    """Raise InternalError unless the cd-index p of M's base polytope has
    no negative coefficient and as many vertices as M has bases.

    The vertex count is f_0 of cd_f_vector, whose checks (a homogeneous
    cd polynomial, c^D with coefficient 1) come out as InternalError too;
    a point's one vertex is the coefficient of the empty word.
    """
    D = p.degree()  # decodes a packed p once and keeps its words
    for w, k in p.terms().items():
        if k < 0:
            raise InternalError("cd-index has the negative coefficient %d*%s" % (k, w))
    try:
        f0 = cd_f_vector(p, D)[0] if D > 0 else p.coeff("")
    except (DegreeMismatch, InvalidAlphabet, InvalidParams) as exc:
        raise InternalError("cd-index is not a polytope's: %s" % exc) from None
    bases = M.basis_count()
    if f0 != bases:
        raise InternalError("cd-index has %d vertices, the matroid has %d bases" % (f0, bases))
