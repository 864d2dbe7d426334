"""Exact polynomials in the noncommuting letters a, b, c, d.

Coefficients are Python ints, words are plain strings over "abcd".  The
letters a, b, c have degree 1 and d has degree 2, so a word's degree is
its length plus its number of d's.  Serialization and iteration order is
degree first, then lexicographic with a < b < c < d.

The module also owns the conversions between the equivalent encodings of
the same face-count data:

* cd polynomials and their ab expansions (c -> a+b, d -> ab+ba),
* the inverse rewriting of a symmetric ab polynomial into c and d,
* flag count vectors f_S, S a set of dimensions, and their ab-index.

The ab -> cd direction works in the basis c = a+b, e = a-b.  A word over
{a,b} of length m expands into words over {c,e} with denominator 2^m and
signs given by the positions where b meets e, which is a Walsh-Hadamard
transform of the coefficient vector.  Words of c and d are exactly the
{c,e} words whose maximal e-runs all have even length, via ee = cc - 2d.
"""

import re
from functools import cache

from .errors import (
    DegreeMismatch,
    InvalidAlphabet,
    InvalidParams,
    NegativeFlag,
    NoCdForm,
    NotCdEquivalent,
)

LETTERS = "abcd"

_TOKEN = re.compile(r"[+-]|(?:\d+\s*\*\s*)?[A-Za-z]+|\d+")


def word_degree(w):
    """Degree of a word: a, b, c count one, d counts two."""
    return len(w) + w.count("d")


def word_key(w):
    return (word_degree(w), w)


class NcPoly:
    """Integer combination of words over the alphabet abcd."""

    __slots__ = ("_t",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        t = {}
        for w, k in items:
            for ch in w:
                if ch not in LETTERS:
                    raise InvalidAlphabet("letter %r in word %r" % (ch, w))
            if k == 0:
                continue
            t[w] = t.get(w, 0) + k
        self._t = {w: k for w, k in t.items() if k}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({"": 1})

    @classmethod
    def word(cls, w, k=1):
        return cls({w: k})

    def coeff(self, w):
        return self._t.get(w, 0)

    def terms(self):
        """Term dict copy, word -> coefficient."""
        return dict(self._t)

    def words(self):
        return sorted(self._t, key=word_key)

    def letters(self):
        return set("".join(self._t))

    def degree(self):
        """Largest word degree, or -1 for the zero polynomial."""
        return max((word_degree(w) for w in self._t), default=-1)

    def is_homogeneous(self):
        return len({word_degree(w) for w in self._t}) <= 1

    def mirror(self):
        """Swap the letters a and b in every word."""
        swap = str.maketrans("ab", "ba")
        return NcPoly({w.translate(swap): k for w, k in self._t.items()})

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, int):
            return self._t == ({"": other} if other else {})
        if isinstance(other, NcPoly):
            return self._t == other._t
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = NcPoly({"": other})
        if not isinstance(other, NcPoly):
            return NotImplemented
        t = dict(self._t)
        add_scaled(t, other, 1)
        return from_terms(t)

    __radd__ = __add__

    def __neg__(self):
        return from_terms({w: -k for w, k in self._t.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, NcPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return from_terms({w: k * other for w, k in self._t.items()})
        if not isinstance(other, NcPoly):
            return NotImplemented
        t = {}
        add_product(t, self._t, other)
        return from_terms(t)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise InvalidParams("exponent must be a nonnegative int")
        out = NcPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def text(self):
        """Canonical text form, e.g. "cc + 2*d"; "0" for zero."""
        if not self._t:
            return "0"
        parts = []
        for i, w in enumerate(self.words()):
            k = self._t[w]
            sign = "-" if k < 0 else "+"
            mag = abs(k)
            if w == "":
                body = str(mag)
            elif mag == 1:
                body = w
            else:
                body = "%d*%s" % (mag, w)
            if i == 0:
                parts.append(body if k > 0 else "-" + body)
            else:
                parts.append("%s %s" % (sign, body))
        return " ".join(parts)

    @classmethod
    def from_text(cls, s):
        """Parse the canonical text form (also accepts "a + -2*b")."""
        if s.strip() in ("", "0"):
            return cls()
        terms = []
        sign = 1
        expect_term = True
        pos = 0
        n = len(s)
        while pos < n:
            if s[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(s, pos)
            if not m:
                raise InvalidParams("bad syntax at %r in %r" % (s[pos : pos + 8], s))
            tok = m.group()
            pos = m.end()
            if tok == "+" or tok == "-":
                if expect_term:
                    sign = -sign if tok == "-" else sign
                else:
                    sign = -1 if tok == "-" else 1
                    expect_term = True
                continue
            if not expect_term:
                raise InvalidParams("missing operator before %r in %r" % (tok, s))
            tm = re.fullmatch(r"(?:(\d+)\s*\*\s*)?([a-zA-Z]+)|(\d+)", tok)
            if tm.group(3) is not None:
                terms.append(("", sign * int(tm.group(3))))
            else:
                k = int(tm.group(1)) if tm.group(1) is not None else 1
                terms.append((tm.group(2), sign * k))
            sign = 1
            expect_term = False
        if expect_term:
            raise InvalidParams("dangling operator in %r" % s)
        return cls(terms)

    def __repr__(self):
        return "NcPoly(%r)" % self.text()


A = NcPoly.word("a")
B = NcPoly.word("b")
C = NcPoly.word("c")
D = NcPoly.word("d")

_EXPAND = {"a": ("a",), "b": ("b",), "c": ("a", "b"), "d": ("ab", "ba")}


def expand_ab(p):
    """Rewrite any mixed polynomial into the letters a and b."""
    t = {}
    for w, k in p._t.items():
        cur = {"": k}
        for ch in w:
            nxt = {}
            for u, kk in cur.items():
                for piece in _EXPAND[ch]:
                    v = u + piece
                    nxt[v] = nxt.get(v, 0) + kk
            cur = nxt
        for u, kk in cur.items():
            t[u] = t.get(u, 0) + kk
    return from_terms(t)


def cd_to_ab(p):
    """Expand c -> a+b and d -> ab+ba.  Input must use only c and d."""
    bad = p.letters() - set("cd")
    if bad:
        raise InvalidAlphabet("cd polynomial contains %s" % ", ".join(sorted(bad)))
    return expand_ab(p)


_B_AS_ONE = str.maketrans("ab", "01")


def _b_mask(w):
    """Mask of the positions of b in a word over a, b."""
    return int("0" + w[::-1].translate(_B_AS_ONE), 2)


def _wht(vec):
    # in-place unnormalized Walsh-Hadamard transform
    n = len(vec)
    h = 1
    while h < n:
        for start in range(0, n, h * 2):
            for i in range(start, start + h):
                x = vec[i]
                y = vec[i + h]
                vec[i] = x + y
                vec[i + h] = x - y
        h *= 2


@cache
def _csq_minus_2d_pow(m):
    return (C * C - 2 * D) ** m


def _ce_bits_to_cd(bits, m):
    """cd expansion of a {c,e} word, e marked by set bits; None if an e-run is odd."""
    factors = []
    i = 0
    while i < m:
        if not (bits >> i) & 1:
            j = i
            while j < m and not (bits >> j) & 1:
                j += 1
            factors.append(NcPoly.word("c" * (j - i)))
            i = j
        else:
            j = i
            while j < m and (bits >> j) & 1:
                j += 1
            run = j - i
            if run % 2:
                return None
            factors.append(_csq_minus_2d_pow(run // 2))
            i = j
    out = NcPoly.one()
    for f in factors:
        out = out * f
    return out


def ab_to_cd(p):
    """Rewrite a polynomial in a and b as one in c and d.

    Raises NoCdForm when no integer cd form exists, reporting a witness:
    either a surviving {c,e} word with an odd e-run (the input was not
    symmetric enough) or a coefficient that fails to clear the power of
    two coming from a = (c+e)/2, b = (c-e)/2.
    """
    bad = p.letters() - set("ab")
    if bad:
        raise InvalidAlphabet("ab polynomial contains %s" % ", ".join(sorted(bad)))
    blocks = {}
    for w, k in p._t.items():
        blocks.setdefault(len(w), {})[w] = k
    total = NcPoly()
    for m, block in sorted(blocks.items()):
        if m == 0:
            total = total + block[""]
            continue
        size = 1 << m
        vec = [0] * size
        for w, k in block.items():
            vec[_b_mask(w)] = k
        _wht(vec)
        acc = {}
        for u in range(size):
            k = vec[u]
            if k == 0:
                continue
            q = _ce_bits_to_cd(u, m)
            if q is None:
                witness = "".join("e" if (u >> i) & 1 else "c" for i in range(m))
                raise NoCdForm("odd e-run survives at %s" % witness)
            add_scaled(acc, q, k)
        out = {}
        for w, k in acc.items():
            if k % size:
                raise NoCdForm("coefficient %d/%d at %s is not an integer" % (k, size, w))
            out[w] = k // size
        total = total + NcPoly(out)
    return total


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
    head = _csq_minus_2d_pow(dim // 2)
    if dim % 2:
        head = _csq_minus_2d_pow(dim // 2) * (C - 2 * B)
    return head + num_vertices * g_cd(dim - 1)


def add_scaled(acc, p, k):
    """acc += k * p in place, acc a term dict."""
    get = acc.get
    for w, c in p._t.items():
        acc[w] = get(w, 0) + k * c


def add_product(acc, left, right):
    """acc += left * right in place; acc and left are term dicts, right
    an NcPoly."""
    get = acc.get
    right = right._t.items()
    for w1, c1 in left.items():
        for w2, c2 in right:
            w = w1 + w2
            acc[w] = get(w, 0) + c1 * c2


def from_terms(t):
    """NcPoly of a term dict over valid words, zero terms dropped."""
    out = NcPoly.__new__(NcPoly)
    out._t = {w: c for w, c in t.items() if c}
    return out


def chain_sum(dim, f0, groups):
    """cd-index of a polytope P of dimension dim with f0 vertices.

    Psi(P) is the cd part of emve_mixed(dim, f0) plus, over the faces F
    with 1 <= dim F < dim, Psi(F) times the chain weight g_cd(c - 1) of
    its codimension c = dim - dim F.  groups maps each c to the term dict
    of Psi(F) summed over the faces of codimension c, so each group is
    multiplied once, into one accumulator in place.
    """
    acc = dict(emve_mixed(dim, f0)._t)
    for c, group in groups.items():
        add_product(acc, group, g_cd(c - 1))
    return normalize_mixed(from_terms(acc))


_TRAILING = re.compile(r"^[cd]*b?$")


def normalize_mixed(p, debug=False):
    """Extract the cd polynomial from a mixed chain-count expression.

    When every word is a cd word with at most one trailing b, the input
    splits as p0(c,d) + p1(c,d) b; a genuinely cd-equivalent expression
    has p1 = 0 identically (words ending in b cannot contribute to a
    symmetric ab expansion), so p0 is returned and a nonzero p1 raises
    NotCdEquivalent.  Any other shape is settled by full ab expansion.
    With debug=True the cheap path is double checked by round trip.
    """
    if all(_TRAILING.fullmatch(w) for w in p._t):
        p0 = {}
        p1 = {}
        for w, k in p._t.items():
            if w.endswith("b"):
                p1[w[:-1]] = k
            else:
                p0[w] = k
        if p1:
            w = sorted(p1, key=word_key)[0]
            raise NotCdEquivalent("residue %d*%sb after collecting trailing b" % (p1[w], w))
        out = from_terms(p0)  # _TRAILING has checked every word
        if debug and cd_to_ab(out) != expand_ab(p):
            raise NotCdEquivalent("ab expansion differs from extracted cd part")
        return out
    try:
        return ab_to_cd(expand_ab(p))
    except NoCdForm as err:
        raise NotCdEquivalent(str(err)) from err


class FlagFVector:
    """Flag counts f_S of a polytope of dimension dim, S within {0..dim-1}.

    f_S counts chains of distinct nonempty proper faces using each
    dimension in S exactly once.  f of the empty set is 1.
    """

    __slots__ = ("dim", "_f")

    def __init__(self, dim, entries):
        if dim < 0:
            raise InvalidParams("dimension must be >= 0")
        f = {}
        for S, v in entries.items():
            S = frozenset(S)
            if not S <= set(range(dim)):
                raise InvalidParams("flag set %s outside 0..%d" % (sorted(S), dim - 1))
            if v < 0:
                raise NegativeFlag("f_%s = %d" % (sorted(S), v))
            f[S] = v
        if f.get(frozenset(), 0) != 1:
            raise InvalidParams("f of the empty set must be 1")
        self.dim = dim
        self._f = f

    def f(self, S):
        return self._f.get(frozenset(S), 0)

    def entries(self):
        return dict(self._f)

    def f_vector(self):
        """Face counts by dimension (f_0, ..., f_{dim-1})."""
        return tuple(self.f({i}) for i in range(self.dim))

    def __eq__(self, other):
        if not isinstance(other, FlagFVector):
            return NotImplemented
        if self.dim != other.dim:
            return False
        keys = set(self._f) | set(other._f)
        return all(self.f(S) == other.f(S) for S in keys)

    def __repr__(self):
        return "FlagFVector(dim=%d, f=%r)" % (
            self.dim,
            {tuple(sorted(S)): v for S, v in sorted(self._f.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))},
        )


def cd_to_flag_f(p, dim):
    """Flag f-vector encoded by a cd polynomial of degree dim.

    Inverts the ab-index: the word with b exactly at the positions of T
    has coefficient sum over S within T of (-1)^|T-S| f_S, so f_S is the
    subset sum of the pure-word coefficients.
    """
    bad = p.letters() - set("cd")
    if bad:
        raise InvalidAlphabet("cd polynomial contains %s" % ", ".join(sorted(bad)))
    if not p.is_homogeneous() or p.degree() != dim:
        raise DegreeMismatch("expected homogeneous of degree %d, got degree %s" % (dim, p.degree()))
    ab = expand_ab(p)
    size = 1 << dim
    vec = [0] * size
    for w, k in ab._t.items():
        vec[_b_mask(w)] = k
    for i in range(dim):
        bit = 1 << i
        for mask in range(size):
            if mask & bit:
                vec[mask] += vec[mask ^ bit]
    entries = {}
    for mask in range(size):
        entries[frozenset(i for i in range(dim) if (mask >> i) & 1)] = vec[mask]
    return FlagFVector(dim, entries)


def flag_to_ab(fv):
    """The ab-index: sum over S of f_S times the word with b on S, a-b off S."""
    dim = fv.dim
    size = 1 << dim
    vec = [0] * size
    for S, v in fv.entries().items():
        vec[sum(1 << i for i in S)] = v
    # Moebius transform: coefficient of the pure word with b at T is
    # sum over S within T of (-1)^{|T|-|S|} f_S.
    for i in range(dim):
        bit = 1 << i
        for mask in range(size):
            if mask & bit:
                vec[mask] -= vec[mask ^ bit]
    t = {}
    for mask in range(size):
        if vec[mask]:
            w = "".join("b" if (mask >> i) & 1 else "a" for i in range(dim))
            t[w] = vec[mask]
    return NcPoly(t)


def flag_to_cd(fv):
    return ab_to_cd(flag_to_ab(fv))
