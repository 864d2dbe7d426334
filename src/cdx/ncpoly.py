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

A flag vector is one list indexed by the mask of S.  It is read straight
off the cd words: f_S sums the coefficients of the ab words with b only
on S, and each letter of a cd word counts its own choices, so a word's
share of f_S is a product of per-position factors, 1 + [i in S] for a c
at position i and [i in S] + [i+1 in S] for a d at positions i, i+1.
The f-vector, f_S at the sets S = {i}, needs only the words with at
most one d, so cd_f_vector reads it off dim coefficients.

The way back peels the same factors off the flag sums, first letter
first, so ab -> cd is a subset-sum pass over the ab coefficients and
then that peel.

The recursions' kernel, chain_sum, works on coefficient lists instead
of word dicts.  cd_order(d) lists the cd words of degree d with the
last letter most significant: those ending in c in the order of
cd_order(d - 1), then those ending in d in the order of cd_order(d - 2).
So a list over cd_order(d - 1) times c is the start of cd_order(d),
and a list over cd_order(d - 2) times d the part from offset
len(cd_order(d - 1)) on.  chain_sum runs Horner's rule in (a-b)^2 on
a state p0 + p1 b, p0 and p1 such lists, two codimensions a step, and
builds no chain weight; p1, the words with a trailing b, must end up
zero.  It reads only the lengths of the lists, _cd_count(d), which are
Fibonacci numbers, so it lists no word: only text, terms and the term
dicts do.

Each list x runs through the kernel packed into one Python int, the
sum of x[i] * 2^(bits * i), in slots of a width bits that is a multiple
of 64.  Packing is linear and a shift by bits * len is a concatenation,
so a face sum is a sum of count times packed face, and a Horner step is
a few big-int shifts and additions, whatever the length of the lists.
Slots may overflow in between, as every operation is exact on the
whole int; only the final state is read back, and an a-priori bound on
its coefficients picks the width.  The coefficients stay exact: they
reach 56 bits at dimension 19, where the slots are still 64 bits wide,
and 64 bits at dimension 21.

A chain_sum result keeps only that form: its degree, its packed ints
by slot width, and its largest |coefficient|, which a later sum needs
for its slot bound.  That maximum is read once, the first time a sum
takes the result as a face, and kept; a result no sum takes is never
read.  It is read from the packing's 64-bit words, not decoded: a
nonnegative packing whose slots all have a clear top bit holds its
slot values as its own digits.  When a sum with wider slots takes a
result as a face, the wider packing is copied from the narrowest one
by strided byte copies, never re-encoded from words.  text and terms
read the packing and keep nothing.  The readers that need words, the
arithmetic, coeff, ==, hash and every other reader of the term dict,
build it from the packing on first use and keep it.  So the
recursions' memo tables hold packed ints alone, and only the entries
that a caller reads as words, such as the terms of the split formula
and the products in a modular-pair term, get a dict.
"""

import re
import struct
import sys
from functools import cache
from itertools import compress

from .errors import (
    DegreeMismatch,
    InvalidAlphabet,
    InvalidParams,
    NegativeFlag,
    NoCdForm,
    NotCdEquivalent,
)
from .matroid import _bits

LETTERS = "abcd"

# one term of the text form: a run of signs, then N*word, word or N
_TERM = re.compile(r"([-+\s]*)(?:(?:(\d+)\s*\*\s*)?([A-Za-z]+)|(\d+))")


def word_degree(w):
    """Degree of a word: a, b, c count one, d counts two."""
    return len(w) + w.count("d")


def word_key(w):
    return (word_degree(w), w)


class NcPoly:
    """Integer combination of words over the alphabet abcd.

    A polynomial built from terms holds its term dict _t; a chain_sum
    result holds only its packing _vec until a reader of _t builds the
    dict, and reads its largest |coefficient| only when a later sum
    takes it as a face (see the module docstring).
    """

    __slots__ = ("_dict", "_vec")

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
        self._dict = {w: k for w, k in t.items() if k}
        self._vec = None

    @property
    def _t(self):
        """The term dict, word -> nonzero coefficient."""
        t = self._dict
        if t is None:
            t = self._dict = dict(_packed_terms(self._vec))
        return t

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
        if self._dict is None:
            return dict(_packed_terms(self._vec))
        return dict(self._dict)

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
        if self._dict is None:
            # one degree, so word_key order is the words' own order
            order, vals = _slot_values(self._vec)
            items = [(order[i], vals[i]) for i in _sorted_positions(self._vec[0]) if vals[i]]
        else:
            items = [(w, self._dict[w]) for w in self.words()]
        if not items:
            return "0"
        parts = []
        try:
            for i, (w, k) in enumerate(items):
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
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise InvalidParams("a coefficient is too long to print") from None
        return " ".join(parts)

    @classmethod
    def from_text(cls, s):
        """Parse the canonical text form, terms N*word, word or N, each
        after a run of signs that every term but the first needs; an odd
        count of minus signs negates the term ("cc + 2*d", "a + -2*b")."""
        terms, pos, end = [], 0, len(s.rstrip())
        while pos < end:
            m = _TERM.match(s, pos)
            if not m or (terms and not m.group(1).strip()):
                raise InvalidParams("bad syntax at %r in %r" % (s[pos : pos + 8], s))
            signs, digits, word = m.group(1), m.group(2) or m.group(4), m.group(3) or ""
            try:
                k = int(digits) if digits else 1
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise InvalidParams("coefficient of %d digits is too long to read"
                                    % len(digits)) from None
            terms.append((word, -k if signs.count("-") % 2 else k))
            pos = m.end()
        return cls(terms)

    def __repr__(self):
        try:
            return "NcPoly(%r)" % self.text()
        except InvalidParams:
            return "NcPoly(<%d terms, a coefficient too long to print>)" % len(self._t)


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


def ab_to_cd(p):
    """Rewrite a polynomial in a and b as one in c and d.

    The words of each length m are one block: their coefficients by mask
    of the b positions, summed over subsets, are the flag sums f_S, which
    _cd_words peels into cd words.  It raises NoCdForm when there is no cd
    form; an integer input has an integer one whenever it has one at all.
    """
    bad = p.letters() - set("ab")
    if bad:
        raise InvalidAlphabet("ab polynomial contains %s" % ", ".join(sorted(bad)))
    blocks = {}
    for w, k in p._t.items():
        blocks.setdefault(len(w), {})[_b_mask(w)] = k
    out = {}
    for m, block in blocks.items():
        vec = [block.get(mask, 0) for mask in range(1 << m)]
        _subset_sums(vec, m, 1)
        _cd_words(vec, m, "", out)
    return from_terms(out)


def _subset_sums(vec, dim, sign):
    """vec[S] += sign * vec[S - {i}] for each i in S, dimension by
    dimension, in place: summed over subsets, or with sign -1 undone."""
    for i in range(dim):
        bit = 1 << i
        for mask in range(len(vec)):
            if mask & bit:
                vec[mask] += sign * vec[mask ^ bit]


def _cd_words(f, dim, prefix, out):
    """Add to the term dict out, each word after prefix, the cd polynomial
    of degree dim whose flag sums by mask (see _flag_vector) are f.

    With u and v the flag sums of the words after a first c and after a
    first d, f[4m] = u[2m], f[4m+1] = 2u[2m] + v[m], f[4m+2] = u[2m+1] +
    v[m] and f[4m+3] = 2f[4m+2], so u and v follow and recurse.  It raises
    NoCdForm when the last identity fails, or when v is not zero at dim 1.
    """
    if not any(f):
        return
    if dim == 0:
        out[prefix] = f[0]
        return
    v = [y - 2 * x for x, y in zip(f[0::4], f[1::4])]
    if f[3::4] != [2 * x for x in f[2::4]] or (dim == 1 and v[0]):
        raise NoCdForm("the flag sums after %r fit no cd word" % prefix)
    u = [0] * (1 << (dim - 1))
    u[0::2] = f[0::4]
    u[1::2] = [x - y for x, y in zip(f[2::4], v)]
    _cd_words(u, dim - 1, prefix + "c", out)
    if dim > 1:
        _cd_words(v, dim - 2, prefix + "d", out)


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
    """NcPoly of a term dict over valid words, zero terms dropped.  It takes
    ownership of t: the dict is kept, unless it holds a zero, and the
    caller must not change it afterwards."""
    out = NcPoly.__new__(NcPoly)
    out._dict = t if 0 not in t.values() else {w: c for w, c in t.items() if c}
    out._vec = None
    return out


@cache
def cd_order(d):
    """The cd words of degree d, the last letter most significant.

    The words ending in c come first, then those ending in d, each part
    in the order of its prefixes.  So the words ending in a given cd word
    u form one block, whose prefixes follow cd_order(d - degree of u).
    """
    if d < 0:
        return ()
    if d <= 1:
        return ("c" * d,)
    return tuple([w + "c" for w in cd_order(d - 1)] + [w + "d" for w in cd_order(d - 2)])


@cache
def _cd_count(d):
    """len(cd_order(d)), a Fibonacci number, without building the words."""
    if d < 0:
        return 0
    if d <= 1:
        return 1
    return _cd_count(d - 1) + _cd_count(d - 2)


def _width(top):
    """Slot width in bits, a multiple of 64, whose two's complement holds
    every int of absolute value at most top."""
    return 64 * (top.bit_length() // 64 + 1)


def _offset(length, bits, wide=None):
    """2^(bits - 1) in each of length slots of the given width, or of
    wide bits when wide is given."""
    pad = bytes(((wide or bits) - bits) // 8)
    return int.from_bytes((bytes(bits // 8 - 1) + b"\x80" + pad) * length, "little")


def _pack(vals, bits):
    """The sum of vals[i] * 2^(bits * i), each vals[i] in the slot's
    two's complement range.  Only faces built from terms, and narrowing,
    which no input in reach needs, take this path, so it need not be
    fast."""
    size = bits // 8
    raw = b"".join([x.to_bytes(size, "little", signed=True) for x in vals])
    off = _offset(len(vals), bits)
    return (int.from_bytes(raw, "little") ^ off) - off


def _unpack(x, length, bits):
    """The length slot values vals with _pack(vals, bits) == x.

    Adding 2^(bits - 1) to every slot makes each one nonnegative and
    below 2^bits, so nothing carries into the next slot; flipping the
    top bit back leaves each slot in two's complement.  A slot of m
    64-bit words is its signed top word, then each lower word shifted
    in, one list pass per word."""
    off = _offset(length, bits)
    raw = ((x + off) ^ off).to_bytes(length * bits // 8, "little")
    m = bits // 64
    fmt = "<%d%%s" % (length * m)
    vals = struct.unpack(fmt % "q", raw)[m - 1::m]
    if m > 1:
        low = struct.unpack(fmt % "Q", raw)
        for j in range(m - 2, -1, -1):
            vals = [v << 64 | w for v, w in zip(vals, low[j::m])]
    return vals


def _repack(x, length, bits, wide):
    """_pack(vals, wide) from x = _pack(vals, bits), every vals[i] in the
    range of both widths.

    To widen, x plus the offset holds vals[i] + 2^(bits - 1), nonnegative
    and below 2^bits, in slot i.  Its bytes go by strided copies into the
    low bytes of slots of wide bits, and the same offsets at that spacing
    come off again.  Narrowing goes through the slot values."""
    if wide < bits:
        return _pack(_unpack(x, length, bits), wide)
    size, big = bits // 8, wide // 8
    raw = (x + _offset(length, bits)).to_bytes(length * size, "little")
    out = bytearray(length * big)
    for j in range(size):
        out[j::big] = raw[j::size]
    return int.from_bytes(out, "little") - _offset(length, bits, wide)


def _max_abs(x, length, bits):
    """max |vals[i]| for x = _pack(vals, bits), len(vals) == length.

    When x >= 0 and no slot's top 64-bit word reaches 2^63, x's unsigned
    digits base 2^bits are below 2^(bits - 1).  They are then a signed
    packing of x as well, and since that is unique, they are vals: every
    coefficient is >= 0, and the largest is the largest slot, its words
    compared top word first.  The bytes are taken in the host's byte
    order, which memoryview's native "Q" format assumes, so a slot's
    words run low to high on a little-endian host and high to low on a
    big-endian one.  Any other x is decoded by _unpack."""
    if x >= 0:
        m = bits // 64
        words = memoryview(x.to_bytes(length * bits // 8, sys.byteorder)).cast("Q")
        if m == 1:
            best = (max(words),)
        else:
            cols = [words[j::m] for j in range(m)]
            if sys.byteorder == "little":
                cols.reverse()  # a slot's top word comes last
            best = max(zip(*cols))
        if best[0] < 1 << 63:
            out = 0
            for w in best:
                out = out << 64 | w
            return out
    vals = _unpack(x, length, bits)
    return max(max(vals), -min(vals))


def _slot_values(vec):
    """(cd_order(deg), the coefficients over it) of the packed
    coefficients vec = [deg, top, packs], read at the narrowest width."""
    deg, _, packs = vec
    bits = min(packs)
    return cd_order(deg), _unpack(packs[bits], _cd_count(deg), bits)


def _packed_terms(vec):
    """The (word, coefficient) pairs of the nonzero slots of vec."""
    order, vals = _slot_values(vec)
    return compress(zip(order, vals), vals)


@cache
def _sorted_positions(d):
    """The positions in cd_order(d) of the cd words of degree d, taken in
    sorted order."""
    order = cd_order(d)
    return sorted(range(len(order)), key=order.__getitem__)


def _coeff_info(p, deg):
    """[deg, max |coefficient|, {slot width: packed coefficients}] of p
    over cd_order(deg), cached on p; InvalidParams unless p is a cd
    polynomial of degree deg (or zero).  A chain_sum result holds its
    own from the start, with the maximum None until _top reads it."""
    got = p._vec
    if got is None or got[0] != deg:
        t = p._t
        vals = [t.get(w, 0) for w in cd_order(deg)]
        if len(vals) - vals.count(0) != len(t):
            raise InvalidParams("a face cd-index is not a cd polynomial of degree %d" % deg)
        got = p._vec = [deg, max(map(abs, vals)), {}]
    return got


def _top(p, deg):
    """p's largest |coefficient| over cd_order(deg), read from its
    narrowest packing on first use and kept."""
    info = _coeff_info(p, deg)
    if info[1] is None:
        packs = info[2]
        bits = min(packs)
        info[1] = _max_abs(packs[bits], _cd_count(deg), bits)
    return info[1]


def _packed(p, deg, bits):
    """p's coefficients over cd_order(deg) packed in slots of bits,
    repacked from its narrowest packing, or from its term dict when it
    has none."""
    packs = _coeff_info(p, deg)[2]
    x = packs.get(bits)
    if x is None:
        if packs:
            old = min(packs)
            x = _repack(packs[old], _cd_count(deg), old, bits)
        else:
            t = p._t
            x = _pack([t.get(w, 0) for w in cd_order(deg)], bits)
        packs[bits] = x
    return x


def chain_sum(dim, f0, faces, facet=None):
    """cd-index of a polytope P of dimension dim with f0 vertices.

    Psi(P) is the cd part of the stratified chain count

        (a-b)^dim + sum over c of V_c b(a-b)^(c-1),

    V_c the sum of the cd-indices of the faces of codimension c and
    V_dim = f0.  faces lists (c, Psi(F), count) triples, 1 <= c < dim.
    The counts of the same face polynomial object (as a memo table
    returns it) are summed per codimension first.

    With facet = Psi(Q) for a facet Q of P, faces and f0 list only the
    faces and vertices of P that are not in Q, and Q's own faces enter
    as one term.  By the same chain sum on Q, Psi(Q) = (a-b)^(dim-1)
    + sum over G < Q of Psi(G) b(a-b)^(dim Q - dim G - 1), the faces of
    Q (Q included) and the (a-b)^dim term sum to Psi(Q)(a-b) + Psi(Q) b,
    so

        Psi(P) = sum over c of V_c b(a-b)^(c-1) + Psi(Q) a

    (Stanley, 1994).  The Horner start below then drops (a-b)^dim, and
    Psi(Q) a = Psi(Q) c - Psi(Q) b is added to the final state.

    The count is built by Horner's rule in (a-b)^2, two codimensions a
    step, from X = 1 (dim even) or X = (c - 2b) + f0 b (dim odd), or with
    a facet from X = 0 or X = f0 b.  The state X = p0 + p1 b holds p0 over
    cd_order(e) and p1 over cd_order(e - 1), and by b(a-b)^2 = (a-b)^2 b
    + dc - cd one step is

        X (a-b)^2 + V b(a-b) + W b
            = p0 (cc-2d) + p1 (dc-cd) + V d + (p1 (cc-2d) - V c + W) b

    with V and W the face sums of degrees e and e + 1.  In
    cd_order(e + 2), p0 cc fills the start, p1 dc follows at offset
    len(cd_order(e)), and p0 d, p1 cd and V d land at offset
    len(cd_order(e + 1)); the new p1 fills cd_order(e + 1) the same way.

    Each list x is packed into one int, the sum of x[i] * 2^(bits * i).
    Packing is linear, and placing a list at an offset is a left shift by
    bits times the offset, so a face sum is the sum of count times packed
    face, and with size and short the lengths of cd_order(e) and
    cd_order(e - 1) a step is

        p0, p1 = (p0 + (p1 << bits size) + ((V - 2 p0 - p1) << bits (size + short)),
                  W - V + p1 - (p1 << bits size + 1))

    whatever the length of the lists.  Slots may overflow in between, as
    every operation is exact on the whole int; only the final p0 and p1
    are read back, so only their coefficients must fit a slot.  With v,
    w bounds on the coefficients of V, W (the sum over their faces of
    |count| times the largest face coefficient), top starts at f0 (dim
    odd) or p0 and becomes 2 top + v + w each step.  It bounds the state
    and |R| + w, R = V - 2 p0 - p1 the step's last block: the new p0 is
    old p0, old p1 and R, the new p1 is W - V + p1 and W - 2 p1, and the
    next R is V' + R - W, V' - W and V' - 2 R in those blocks, the first
    V - f0 (dim odd) or V - 2 p0.  bits is the least multiple of 64
    holding the final top, plus max |Psi(Q)| when a facet is given.  So
    p1 is zero exactly when its int is.  The result is a cd polynomial
    exactly when p1 ends up zero (Stanley, 1994), and otherwise
    NotCdEquivalent names the first residue word by word_key.
    """
    if dim < 0:
        raise InvalidParams("dimension must be >= 0")
    if f0 < 1:
        raise InvalidParams("a polytope has at least one vertex")
    groups = {}  # codimension -> {id(face): [face, count]}
    for c, face, count in faces:
        if not 0 < c < dim:
            raise InvalidParams("a face of codimension %d in dimension %d" % (c, dim))
        group = groups.setdefault(c, {})
        entry = group.get(id(face))
        if entry is None:
            group[id(face)] = [face, count]
        else:
            entry[1] += count
    if dim == 0:
        if facet is not None:
            raise InvalidParams("a point has no facet")
        return NcPoly.one()
    tops = {dim: f0}  # bounds on the coefficients of each face sum
    for c, group in groups.items():
        tops[c] = sum([abs(k) * _top(face, dim - c) for face, k in group.values()])
    # the state before the first step: (a-b)^dim starts at 1 or c - 2b,
    # and without it (a facet given) at 0 or f0 b
    odd = dim % 2
    if facet is None:
        p0, p1 = 1, f0 - 2 if odd else 0
    else:
        p0, p1 = 0, f0 if odd else 0
    top = f0 if odd else p0
    for s in range(odd, dim, 2):
        top = 2 * top + tops.get(dim - s, 0) + tops.get(dim - s - 1, 0)
    if facet is not None:
        top += _top(facet, dim - 1)
    bits = _width(top)
    sums = {dim: f0}
    for c, group in groups.items():
        sums[c] = sum([k * _packed(face, dim - c, bits) for face, k in group.values()])
    e = odd
    while e < dim:
        size, short = _cd_count(e), _cd_count(e - 1)
        v, w = sums.get(dim - e, 0), sums.get(dim - e - 1, 0)
        p0, p1 = (p0 + (p1 << bits * size) + ((v - 2 * p0 - p1) << bits * (size + short)),
                  w - v + p1 - (p1 << bits * size + 1))
        e += 2
    if facet is not None:
        # Psi(Q) a = Psi(Q) c - Psi(Q) b, and Psi(Q) c fills the start of
        # cd_order(dim)
        q = _packed(facet, dim - 1, bits)
        p0, p1 = p0 + q, p1 - q
    if p1:
        vals = _unpack(p1, _cd_count(dim - 1), bits)
        w, y = min((w, y) for w, y in zip(cd_order(dim - 1), vals) if y)
        raise NotCdEquivalent("residue %d*%sb after collecting trailing b" % (y, w))
    p = NcPoly.__new__(NcPoly)
    p._dict = None  # built from the packing on first use
    p._vec = [dim, None, {bits: p0}]  # the maximum read by _top on first use
    return p


_TRAILING = re.compile(r"^[cd]*b?$")


def normalize_mixed(p):
    """The cd polynomial of a stratified chain count, p itself.

    Every recursion's chain count has the shape p0(c,d) + p1(c,d) b, and
    it is cd-equivalent exactly when p1 = 0 (Stanley, 1994): words ending
    in b cannot contribute to a symmetric ab expansion.  So p is returned
    unchanged when every word is a cd word, and otherwise NotCdEquivalent
    names the first other word by word_key: a residue when it is a cd word
    and a trailing b, any other shape when not.
    """
    if p.letters() <= {"c", "d"}:
        return p
    w = min((w for w in p._t if w.strip("cd")), key=word_key)
    if _TRAILING.fullmatch(w):
        raise NotCdEquivalent("residue %d*%s after collecting trailing b" % (p._t[w], w))
    raise NotCdEquivalent("%d*%s is neither a cd word nor one with a trailing b"
                          % (p._t[w], w))


class FlagFVector:
    """Flag counts f_S of a polytope of dimension dim, S within {0..dim-1}.

    f_S counts chains of distinct nonempty proper faces using each
    dimension in S exactly once.  f of the empty set is 1.  The counts
    are one list indexed by the mask of S, bit i standing for dimension i.
    """

    __slots__ = ("dim", "_v")

    def __init__(self, dim, entries):
        v = [0] * (1 << max(dim, 0))
        for S, x in entries.items():
            S = frozenset(S)
            if not S <= set(range(dim)):
                raise InvalidParams("flag set %s outside 0..%d" % (sorted(S), dim - 1))
            v[sum(1 << i for i in S)] = x
        self._fill(dim, v)

    @classmethod
    def from_vector(cls, dim, v):
        """The flag vector whose f_S is v[mask of S]."""
        out = cls.__new__(cls)
        out._fill(dim, v)
        return out

    def _fill(self, dim, v):
        if dim < 0 or len(v) != 1 << dim:
            raise InvalidParams("%d flag entries for dimension %d" % (len(v), dim))
        if min(v) < 0:
            mask = next(m for m, x in enumerate(v) if x < 0)
            raise NegativeFlag("f_%s = %d" % (_bits(mask), v[mask]))
        if v[0] != 1:
            raise InvalidParams("f of the empty set must be 1")
        self.dim = dim
        self._v = v

    def f(self, S):
        S = set(S)
        return self._v[sum(1 << i for i in S)] if S <= set(range(self.dim)) else 0

    def vector(self):
        """f_S by mask of S, as a new list."""
        return list(self._v)

    def entries(self):
        """f_S by frozenset S, every S within {0..dim-1}."""
        return {frozenset(_bits(mask)): x for mask, x in enumerate(self._v)}

    def f_vector(self):
        """Face counts by dimension (f_0, ..., f_{dim-1})."""
        return tuple(self._v[1 << i] for i in range(self.dim))

    def __eq__(self, other):
        if not isinstance(other, FlagFVector):
            return NotImplemented
        return self.dim == other.dim and self._v == other._v

    def __repr__(self):
        return "FlagFVector(dim=%d, by_mask=%r)" % (self.dim, self._v)


def _flag_vector(terms, dim):
    """The flag sums by mask of a term dict of cd words of degree dim: the
    first letter's factor reads the low bits of the mask, and the rest of
    each word is a smaller instance on the mask shifted down."""
    if dim == 0:
        return [terms.get("", 0)]
    rest = {"c": {}, "d": {}}
    for w, k in terms.items():
        rest[w[0]][w[1:]] = k
    out = [0] * (1 << dim)
    if rest["c"]:
        v = _flag_vector(rest["c"], dim - 1)
        out[0::2] = v
        out[1::2] = [2 * x for x in v]
    if rest["d"]:
        v = _flag_vector(rest["d"], dim - 2)
        out[1::4] = [x + y for x, y in zip(out[1::4], v)]
        out[2::4] = [x + y for x, y in zip(out[2::4], v)]
        out[3::4] = [x + 2 * y for x, y in zip(out[3::4], v)]
    return out


def _check_cd(p, dim):
    """InvalidAlphabet unless p uses only c and d, InvalidParams for a
    negative dim, DegreeMismatch unless p is homogeneous of degree dim.
    One pass over the words gives each its degree, or None when a letter
    other than c and d is left after stripping them."""
    degrees = {None if w.strip("cd") else word_degree(w) for w in p._t}
    if None in degrees:
        bad = p.letters() - set("cd")
        raise InvalidAlphabet("cd polynomial contains %s" % ", ".join(sorted(bad)))
    if dim < 0:
        raise InvalidParams("dimension must be >= 0")
    if degrees != {dim}:
        raise DegreeMismatch("expected homogeneous of degree %d, got degree %s"
                             % (dim, max(degrees, default=-1)))


def cd_to_flag_f(p, dim):
    """Flag f-vector encoded by a cd polynomial of degree dim, all 2^dim
    entries; cd_f_vector reads the f-vector alone off dim coefficients.

    f_S sums the coefficients of the ab words with b only on S.  A cd
    word expands letter by letter, so its share of f_S is a product of
    per-position factors: a c at position i gives 1 + [i in S] (a, or b
    when i is in S), a d at positions i, i+1 gives [i in S] + [i+1 in S]
    (ba, ab).  The flag vector over all masks follows by recursion on
    the first letter, with no ab expansion.
    """
    _check_cd(p, dim)
    return FlagFVector.from_vector(dim, _flag_vector(p._t, dim))


def cd_f_vector(p, dim):
    """Face counts by dimension (f_0, ..., f_{dim-1}) encoded by a cd
    polynomial of degree dim, equal to cd_to_flag_f(p, dim).f_vector().

    At S = {i} the factors of cd_to_flag_f are 2 for a c at i, 1 for any
    other c, 1 for a d covering i and 0 for any other d.  So only words
    with at most one d count, and

        f_i = 2 [c^dim] + [c^i d c^(dim-i-2)] + [c^(i-1) d c^(dim-i-1)]

    (Stanley, Flag f-vectors and the cd-index, 1994).  f of the empty set
    is [c^dim].  The checks are cd_to_flag_f's on the entries read:
    NegativeFlag on the first negative one by mask, then InvalidParams
    unless f of the empty set is 1.
    """
    _check_cd(p, dim)
    t = p._t
    top = t.get("c" * dim, 0)
    f = [2 * top] * dim
    for j in range(dim - 1):  # a d at j, j + 1 counts in f_j and f_{j+1}
        x = t.get("c" * j + "d" + "c" * (dim - j - 2), 0)
        f[j] += x
        f[j + 1] += x
    for S, x in [([], top)] + [([i], x) for i, x in enumerate(f)]:
        if x < 0:
            raise NegativeFlag("f_%s = %d" % (S, x))
    if top != 1:
        raise InvalidParams("f of the empty set must be 1")
    return tuple(f)


def flag_to_ab(fv):
    """The ab-index: sum over S of f_S times the word with b on S, a-b off S.

    The word with b exactly on T has coefficient sum over S within T of
    (-1)^|T-S| f_S, the subset sums undone.
    """
    vec = fv.vector()
    _subset_sums(vec, fv.dim, -1)
    t = {}
    for mask, k in enumerate(vec):
        if k:
            t["".join("b" if mask >> i & 1 else "a" for i in range(fv.dim))] = k
    return from_terms(t)


def flag_to_cd(fv):
    """The cd-index with flag vector fv; NoCdForm when there is none."""
    out = {}
    _cd_words(fv._v, fv.dim, "", out)
    return from_terms(out)
