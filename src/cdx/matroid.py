"""Matroids on small ground sets, each stored as one family int of its bases.

Ground set is 0-based internally; the CLI layer does the 1-based file
translation, and diagnostics print elements 1-based.  Everything here
is desk scale: no matroid has more than _ENUM_CAP = 12 elements.  Every
constructor checks that in `_check_size`, after its argument checks and
before it enumerates any set.

A family of subsets is one Python int with bit S set for each member
mask S: at n = 12 a family is a 4096-bit int, and one big-int operation
acts on every subset at once.  A Matroid holds its bases as one family
and in no other form.  WITH[e], the family of the sets holding e, is
built once per n (``_families``).  For a family T, (T & WITH[e]) >> 2^e
takes each member holding e to the set without e, and (T & ~WITH[e]) <<
2^e each member without e to the set with e.  So n such steps close
the bases downwards to the independent sets, and n more close the
independent j-sets upwards to {S : r(S) >= j}, for each j up to the
rank.  For any basis family r(S) = max |B & S| over the bases B is the
number of levels holding S.  One step per level gives G[x] = {S
without x : r(S+x) > r(S)} for each element x, which the axiom check
and the cyclic flat sweep read.  The components need no levels: they
are those of the fundamental graph of one basis B, with an edge b - x
whenever B - b + x is a basis, so k(n - k) bit tests on the family.

Nothing here loads numpy, and nothing on the way from a matroid to its
cd-index does; only the brute-force oracle does, for `cdx verify` and
the oracle fallback.
"""

from functools import cache
from itertools import combinations, compress
from typing import NamedTuple

from .errors import (
    EmptyMatroid,
    InvalidParams,
    NotAMatroid,
    NotConnected,
    NotSplit,
    PresentationMismatch,
    ScaleExceeded,
)

_ENUM_CAP = 12  # 2^n subset sweeps beyond this are not desk scale


def _check_size(n):
    """ScaleExceeded above the cap, before any set is enumerated."""
    if n > _ENUM_CAP:
        raise ScaleExceeded("rank tables capped at n=%d, got n=%d" % (_ENUM_CAP, n))


def _elements(elems, n):
    """elems as a frozenset when each lies in 0 <= e < n, else None.
    Nothing is shifted by an element, so a huge n or element costs
    nothing before `_check_size`."""
    s = frozenset(elems)
    return s if all(0 <= e < n for e in s) else None


def _mask(elems):
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def _shown(elems):
    """Elements as diagnostics print them: sorted and 1-based."""
    return [e + 1 for e in sorted(elems)]


# a byte 0 or 1 and the binary digit that spells it
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask):
    """The set bits of mask, ascending.  A family of subsets is read in
    one pass over its binary digits, not one big-int step per member."""
    if mask >> 64:
        digits = bin(mask)[:1:-1].encode().translate(_FROM_DIGITS)
        return list(compress(range(len(digits)), digits))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _levels(n, x, top):
    """[{S : |S & x| = j} for j = 0, ..., top], each a family of subset
    masks of n elements; see the module docstring.  Element e doubles
    the table: the sets with e are those without it shifted by 2^e, one
    level up when e is in x.  Levels above top are never built."""
    levels = [1] + [0] * top
    for e in range(n):
        step = 1 << e
        if x >> e & 1:
            for j in range(top, 0, -1):
                levels[j] |= levels[j - 1] << step
        else:
            for j in range(top + 1):
                levels[j] |= levels[j] << step
    return levels


@cache
def _families(n):
    """(WITH, SIZE) for the subsets of n elements: WITH[e] the family of
    the sets holding e, SIZE[j] that of the sets of size j."""
    return (tuple(_levels(n, 1 << e, 1)[1] for e in range(n)),
            tuple(_levels(n, (1 << n) - 1, n)))


def _family(masks, n):
    """The family of the given subset masks of n elements."""
    flags = bytearray(1 << n)
    for m in masks:
        flags[m] = 1
    return int(flags.translate(_TO_DIGITS)[::-1], 2)


class CyclicFlat(NamedTuple):
    elements: frozenset
    rank: int


class Matroid:
    """A matroid given by its bases as one family int, bit S set for each basis S."""

    def __init__(self, n, rank, family):
        self.n = n
        self.rank = rank
        self.family = family
        self._tables = None  # (levels, G), built on first use
        self._cyclic = None
        self._components = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_bases(cls, n, rank, bases):
        """Build from an iterable of bases (iterables of 0-based elements),
        checking the matroid axioms."""
        if n < 1 or not 0 <= rank <= n:
            raise InvalidParams("need n >= 1 and 0 <= rank <= n, got n=%d rank=%d" % (n, rank))
        sets = []
        for b in bases:
            s = _elements(b, n)
            if s is None:
                raise InvalidParams("basis %r out of range for n=%d" % (b, n))
            if len(s) != rank:
                raise NotAMatroid("basis %r does not have size %d" % (_shown(s), rank))
            sets.append(s)
        _check_size(n)
        if not sets:
            raise EmptyMatroid("no bases given")
        M = cls(n, rank, _family(map(_mask, sets), n))
        M._check_axioms()
        return M

    @classmethod
    def uniform(cls, k, n):
        """U(k, n)."""
        if n < 1 or not 0 <= k <= n:
            raise InvalidParams("uniform matroid needs n >= 1 and 0 <= k <= n, got k=%d n=%d"
                                % (k, n))
        _check_size(n)
        return cls(n, k, _families(n)[1][k])

    @classmethod
    def from_cyclic_flats(cls, n, rank, flats):
        """Build from (elements, rank) pairs by cutting the uniform bases.

        Keeps every k-subset B with |B & F| <= rank(F) for each given
        flat, checks the matroid axioms, then re-derives the cyclic flats
        and checks they match the input family.
        """
        if n < 1 or not 0 <= rank <= n:
            raise InvalidParams("need n >= 1 and 0 <= rank <= n, got n=%d rank=%d" % (n, rank))
        fam = []
        for elems, r in flats:
            s = _elements(elems, n)
            if s is None or not 0 <= r <= rank:
                raise InvalidParams("flat (%r, %d) out of range" % (_shown(elems), r))
            if not 0 < len(s) < n:
                raise InvalidParams("cyclic flat presentations list proper nonempty flats only")
            fam.append((s, r))
        _check_size(n)
        keep = _families(n)[1][rank]
        for s, r in fam:
            keep &= sum(_levels(n, _mask(s), r))  # |S & F| <= r; the levels are disjoint
        if not keep:
            raise EmptyMatroid("the given cyclic flats cut out no bases")
        M = cls(n, rank, keep)
        M._check_axioms()
        # the improper cyclic flats (empty set, full ground set) need not be listed
        derived = {(f.elements, f.rank) for f in M.proper_cyclic_flats()}
        given = set(fam)
        missing, extra = given - derived, derived - given
        if missing or extra:
            raise PresentationMismatch(
                "cyclic flats re-derived from the cut bases differ from the input: "
                "missing=%r extra=%r" % (sorted((_shown(s), r) for s, r in missing),
                                         sorted((_shown(s), r) for s, r in extra))
            )
        return M

    # -- basics -------------------------------------------------------

    def bases(self):
        """Bases as a sorted list of sorted tuples."""
        return sorted(tuple(_bits(m)) for m in self.basis_masks())

    def basis_masks(self):
        return _bits(self.family)

    def basis_count(self):
        return self.family.bit_count()

    def __eq__(self, other):
        return isinstance(other, Matroid) and (
            (self.n, self.rank, self.family) == (other.n, other.rank, other.family))

    def __hash__(self):
        return hash((self.n, self.rank, self.family))

    def __repr__(self):
        return "Matroid(n=%d, rank=%d, %d bases)" % (self.n, self.rank, self.basis_count())

    def _check_axioms(self):
        """Raise NotAMatroid unless the bases are a matroid's.  For sets of
        one size k, r(S) = max |B & S| starts at 0 and grows by 0 or 1 per
        element, so it is a matroid's rank function exactly when r(S+x) +
        r(S+y) >= r(S+x+y) + r(S) for all S and x, y outside S.  That
        matroid's bases are the k-sets with r(B) = k, the given sets and no
        others, so one pass over the whole table decides it, whatever the
        components.  D_x(S) = r(S+x) - r(S) is 0 or 1, and the inequality
        says D_x(S) >= D_x(S+y): G[x] holds S whenever it holds S+y.  The
        inequality is symmetric in x and y, so one step per pair x < y
        finds the violations; the first pair with one, then its smallest
        mask S, names the witness."""
        with_e = _families(self.n)[0]
        gains = self._tabulated()[1]
        for x in range(self.n):
            g = gains[x]
            for y in range(x + 1, self.n):
                bad = ((g & with_e[y]) >> (1 << y)) & ~g
                if bad:
                    s = (bad & -bad).bit_length() - 1
                    raise NotAMatroid("rank not submodular: r(S+x) + r(S+y) < r(S+x+y) + r(S) "
                                      "at S=%r, x=%d, y=%d" % (_shown(_bits(s)), x + 1, y + 1))

    # -- rank machinery -----------------------------------------------

    def _tabulated(self):
        """(levels, G), built together on first use; see the module
        docstring.  levels[j - 1] is {S : r(S) >= j}, and S+x gains rank
        over S exactly when some level holds S+x but not S."""
        if self._tables is None:
            with_e, size = _families(self.n)
            indep = self.family
            for e, w in enumerate(with_e):
                indep |= (indep & w) >> (1 << e)
            levels = []
            for j in range(1, self.rank + 1):
                level = indep & size[j]
                for e, w in enumerate(with_e):
                    level |= (level & ~w) << (1 << e)
                levels.append(level)
            gains = []
            for x, w in enumerate(with_e):
                g = 0
                for level in levels:
                    g |= ((level & w) >> (1 << x)) & ~level
                gains.append(g)
            self._tables = (tuple(levels), tuple(gains))
        return self._tables

    def rank_of(self, subset):
        """r(S): the number of rank levels that hold S."""
        m = subset if isinstance(subset, int) else _mask(subset)
        return sum(level >> m & 1 for level in self._tabulated()[0])

    def cyclic_flats(self):
        """All cyclic flats (flats that are unions of circuits), improper included.

        A flat S gains rank from every element x added: S is in G[x] for
        each x outside S.  A cyclic set S keeps its rank when any one
        element e is removed: S - e is in no G[e].
        """
        if self._cyclic is None:
            gains = self._tabulated()[1]
            with_e = _families(self.n)[0]
            flats = (1 << (1 << self.n)) - 1
            for x, (g, w) in enumerate(zip(gains, with_e)):
                flats &= (g | w) & ~(g << (1 << x))
            out = [CyclicFlat(frozenset(_bits(m)), self.rank_of(m)) for m in _bits(flats)]
            out.sort(key=lambda f: (len(f.elements), sorted(f.elements)))
            self._cyclic = out
        return list(self._cyclic)

    def proper_cyclic_flats(self):
        return [f for f in self.cyclic_flats() if 0 < len(f.elements) < self.n]

    # -- structure ----------------------------------------------------

    def dual(self):
        """E - S is mask 2^n - 1 - S: reversing 2^n digits sends bit S there."""
        digits = format(self.family, "0%db" % (1 << self.n))
        return Matroid(self.n, self.n - self.rank, int(digits[::-1], 2))

    def component_sets(self):
        """Ground set partition into connected components, sorted by least
        element; found on first use and kept."""
        if self._components is None:
            self._components = self._fundamental_parts()
        return list(self._components)

    def _fundamental_parts(self):
        """The components of the fundamental graph of the least basis B
        (see the module docstring).  The parts start as the elements of B,
        and each x outside B joins the parts that its fundamental circuit
        meets: a loop's circuit is x alone, and a coloop is in none, so
        both stay singletons."""
        fam = self.family
        base = (fam & -fam).bit_length() - 1
        swaps = [(1 << b, base ^ 1 << b) for b in _bits(base)]  # b and B - b
        parts = [bit for bit, _ in swaps]
        for x in _bits(((1 << self.n) - 1) ^ base):
            circuit = 0
            for bit, swap in swaps:
                if fam >> (swap | 1 << x) & 1:
                    circuit |= bit
            joined, apart = 1 << x, []
            for p in parts:
                if p & circuit:
                    joined |= p
                else:
                    apart.append(p)
            parts = apart + [joined]
        return sorted((frozenset(_bits(p)) for p in parts), key=min)

    def connected_components(self):
        """One standalone matroid per component, elements relabeled, from
        one listing of the basis masks."""
        comps = self.component_sets()
        if len(comps) == 1:
            return [self]  # keeps the levels, cyclic flats and components
        masks = self.basis_masks()
        return [_restriction(masks, c) for c in comps]

    def is_connected(self):
        return len(self.component_sets()) == 1

    def restriction_to_component(self, comp):
        """Standalone matroid on a component, elements relabeled to 0..len-1."""
        if len(comp) == self.n:
            return self  # keeps the levels and cyclic flats already built
        return _restriction(self.basis_masks(), comp)

    def relax(self, elems):
        """Add every rank-size subset meeting elems in more than its rank."""
        fm = _mask(elems)
        added = _families(self.n)[1][self.rank] & ~sum(_levels(self.n, fm, self.rank_of(fm)))
        if not added:
            raise InvalidParams("relaxation of %r adds no bases" % (_shown(_bits(fm)),))
        return Matroid(self.n, self.rank, self.family | added)


def _restriction(masks, comp):
    """M|C for a component C, from the basis masks of M, elements relabeled
    to 0..|C|-1: each basis B meets C in a basis of M|C, so r(C) = |B & C|."""
    elems = sorted(comp)
    cm = _mask(elems)
    parts = [_mask(i for i, e in enumerate(elems) if p >> e & 1) for p in {b & cm for b in masks}]
    return Matroid(len(elems), (masks[0] & cm).bit_count(), _family(parts, len(elems)))


# -- split recognition ------------------------------------------------


class SplitCheck(NamedTuple):
    ok: bool
    reason: str

    def __bool__(self):
        return self.ok


class SplitProfile(NamedTuple):
    n: int
    k: int
    lam: dict  # (r, h) -> number of proper cyclic flats of that shape
    mu: dict  # (alpha, beta, a, b) -> number of modular pairs of that shape


def split_profile(M):
    """The profile of a connected split matroid: its proper cyclic flats
    counted by (rank, size), and its modular pairs by shape.

    Raises NotConnected unless M is connected, and NotSplit on the first
    proper cyclic flat that contains another.  Otherwise M is split by the
    criterion of Bérczi, Király, Schwarcz, Yamaguchi and Yokoi (Hypergraph
    characterization of split matroids, JCTA 2023).  Its inequality
    |F & G| <= r(F) + r(G) - k holds for incomparable proper cyclic flats
    F, G when no pair is nested: a circuit in F & G would close to a
    proper cyclic flat strictly inside F, and cl(F | G) would be one
    strictly containing F unless it is the ground set, so F & G is
    independent, r(F | G) = k, and submodularity gives the inequality.
    That needs M to be a matroid, which from_bases and from_cyclic_flats
    check.  With no proper cyclic flat M is uniform, since the cyclic
    flats and their ranks determine a matroid.

    A pair is modular when the inequality is an equality.  Its
    intersection is independent, as above, so each flat less the
    intersection has rank r - |F & G| on h - |F & G| elements.
    """
    comps = M.component_sets()
    if len(comps) > 1:
        raise NotConnected("not connected: components %s" % [_shown(c) for c in comps])
    k = M.rank
    flats = M.proper_cyclic_flats()
    lam = {}
    for f in flats:
        key = (f.rank, len(f.elements))
        lam[key] = lam.get(key, 0) + 1
    mu = {}
    # sorted by size, so a nested pair comes smaller first
    for fa, fb in combinations(flats, 2):
        if fa.elements < fb.elements:
            raise NotSplit("nested proper cyclic flats %s < %s"
                           % (_shown(fa.elements), _shown(fb.elements)))
        gamma = len(fa.elements & fb.elements)
        if fa.rank + fb.rank != gamma + k:
            continue
        pa = (fa.rank - gamma, len(fa.elements) - gamma)
        pb = (fb.rank - gamma, len(fb.elements) - gamma)
        (alpha, a), (beta, b) = sorted([pa, pb])
        key = (alpha, beta, a, b)
        mu[key] = mu.get(key, 0) + 1
    return SplitProfile(M.n, k, lam, mu)


def is_connected_split(M):
    """Whether split_profile accepts M, with its reason when it does not."""
    try:
        split_profile(M)
    except (NotConnected, NotSplit) as exc:
        return SplitCheck(False, str(exc))
    return SplitCheck(True, "")


def is_sparse_paving(M):
    """Every proper cyclic flat is a circuit hyperplane: rank k-1, size k."""
    k = M.rank
    return all(f.rank == k - 1 and len(f.elements) == k
               for f in M.proper_cyclic_flats())


# -- named small matroids ---------------------------------------------


def fano():
    """Rank 3 on 7 points, seven 3-point lines."""
    lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    return Matroid.from_cyclic_flats(7, 3, [(l, 2) for l in lines])


def vamos():
    """Rank 4 on 8 points, five 4-element circuit hyperplanes."""
    planes = [(0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5), (0, 1, 6, 7), (2, 3, 6, 7)]
    return Matroid.from_cyclic_flats(8, 4, [(p, 3) for p in planes])


def mk4():
    """Cycle matroid of the complete graph on 4 vertices (rank 3 on 6 edges)."""
    triangles = [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]
    return Matroid.from_cyclic_flats(6, 3, [(t, 2) for t in triangles])


def sparse_paving(n, rank, circuit_hyperplanes):
    """Uniform bases minus the listed rank-sized circuit hyperplanes."""
    return Matroid.from_cyclic_flats(
        n, rank, [(ch, rank - 1) for ch in circuit_hyperplanes]
    )


def example_m1():
    return sparse_paving(8, 4, [(0, 1, 2, 3), (0, 1, 4, 5)])


def example_m2():
    return sparse_paving(8, 4, [(0, 1, 2, 3), (0, 4, 5, 6)])


def example_m3():
    return sparse_paving(8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)])


def example_535():
    return sparse_paving(5, 3, [(0, 1, 2), (0, 3, 4)])
