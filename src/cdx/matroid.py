"""Matroids on small ground sets, stored as explicit basis bitmasks.

Ground set is 0-based internally; the CLI layer does the 1-based file
translation, and diagnostics print elements 1-based.  Everything here
is desk scale: subset enumeration caps at n = 12, and the matroid axiom
check reads one rank table per connected component.

Up to that cap each matroid computes the rank of every subset once, on
first use, into a table of 2^n bytes (4 KB at n = 12), indexed by mask.
For each element e, the sets without e and the sets with e are two
basic-slice views of such a numpy array (``_halves``).  n in-place ORs
of the with-e view into the without-e view mark every subset of a basis
independent; an independent set's rank is its size, and n in-place
maxima of the without-e view into the with-e view give any other set the
largest rank below it.  For any basis family that equals max |B & S|
over the bases B.  Rank queries, the axiom check and the cyclic flat
sweep read this table, the last two by O(n) whole-array steps on the
same views.  Above the cap ``rank_of`` scans the bases per query, and
asking for the table or the cyclic flats, or building a connected
uniform matroid or one from cyclic flats, raises ScaleExceeded.
"""

from itertools import combinations
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


def _mask(elems):
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def _shown(elems):
    """Elements as diagnostics print them: sorted and 1-based."""
    return [e + 1 for e in sorted(elems)]


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _halves(a, e):
    """The sets without e and the sets with e, as two views of an array
    indexed by subset mask: reshaped to (2^(n-e-1), 2, 2^e) it has bit e
    on the middle axis.  Indexing that axis keeps the other two, so even
    at n = 1 both halves are views, not scalars."""
    v = a.reshape(-1, 2, 1 << e)
    return v[:, 0], v[:, 1]


def _sizes(n):
    """|S| for every subset mask S, as uint8."""
    import numpy as np

    sizes = np.zeros(1 << n, dtype=np.uint8)
    for e in range(n):
        _, with_e = _halves(sizes, e)
        with_e += 1
    return sizes


def _not_submodular(grows, labels):
    """NotAMatroid naming S, x, y where bit x of grows[S] (D_x(S)) is
    clear and bit x of grows[S+y] is set, on the elements labels: the
    first pair x < y, then the smallest mask S.  The inequality is
    symmetric in x and y, so the pair is x in the violations along y."""
    import numpy as np

    n = len(labels)
    along = []
    for y in range(n):
        without_y, with_y = _halves(grows, y)
        along.append(int(np.bitwise_or.reduce(with_y & ~without_y, axis=None)))
    x, y = min((x, y) for y in range(n) for x in _bits(along[y]) if x < y)
    masks = np.arange(1 << n)
    s = masks[masks & (1 << x | 1 << y) == 0]
    bad = s[(grows[s | 1 << y] & ~grows[s]) >> x & 1 == 1]
    S = _shown(labels[e] for e in _bits(int(bad[0])))
    return NotAMatroid("rank not submodular: r(S+x) + r(S+y) < r(S+x+y) + r(S) at "
                       "S=%r, x=%d, y=%d" % (S, labels[x] + 1, labels[y] + 1))


class CyclicFlat(NamedTuple):
    elements: frozenset
    rank: int


class Matroid:
    """A matroid given by its set of bases."""

    def __init__(self, n, rank, basis_masks):
        self.n = n
        self.rank = rank
        self._bases = frozenset(basis_masks)
        self._ranks = None  # rank of every subset, built on first use
        self._cyclic = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_bases(cls, n, rank, bases):
        """Build from an iterable of bases (iterables of 0-based elements),
        checking the matroid axioms."""
        if n < 1 or n > 64 or rank < 0 or rank > n:
            raise InvalidParams("need 1 <= n <= 64 and 0 <= rank <= n, got n=%d rank=%d" % (n, rank))
        masks = set()
        for b in bases:
            m = _mask(b) if not isinstance(b, int) else b
            if m < 0 or m >> n:
                raise InvalidParams("basis %r out of range for n=%d" % (b, n))
            if m.bit_count() != rank:
                raise NotAMatroid("basis %r does not have size %d" % (_shown(_bits(m)), rank))
            masks.add(m)
        if not masks:
            raise EmptyMatroid("no bases given")
        M = cls(n, rank, masks)
        M._check_axioms()
        return M

    @classmethod
    def uniform(cls, k, n):
        """U(k, n).  It is connected when 0 < k < n, and then its cyclic
        flats need the rank table, so above the subset cap that raises
        ScaleExceeded before any basis is enumerated; U(0, n) and U(n, n)
        have one basis each."""
        if not 0 <= k <= n or n < 1 or n > 64:
            raise InvalidParams("uniform matroid needs 0 <= k <= n, 1 <= n <= 64")
        if 0 < k < n and n > _ENUM_CAP:
            raise ScaleExceeded("rank tables capped at n=%d" % _ENUM_CAP)
        return cls(n, k, {_mask(c) for c in combinations(range(n), k)})

    @classmethod
    def from_cyclic_flats(cls, n, rank, flats):
        """Build from (elements, rank) pairs by cutting the uniform bases.

        Keeps every k-subset B with |B & F| <= rank(F) for each given
        flat, checks the matroid axioms, then re-derives the cyclic flats
        and checks they match the input family.  Above the subset cap the
        re-derivation is out of reach, so that raises ScaleExceeded before
        any set is enumerated.
        """
        if n < 1 or n > 64 or rank < 0 or rank > n:
            raise InvalidParams("need 1 <= n <= 64 and 0 <= rank <= n")
        fam = []
        for elems, r in flats:
            fm = _mask(elems)
            if fm >> n or not 0 <= r <= rank:
                raise InvalidParams("flat (%r, %d) out of range" % (_shown(elems), r))
            if fm == 0 or fm == (1 << n) - 1:
                raise InvalidParams("cyclic flat presentations list proper nonempty flats only")
            fam.append((fm, r))
        if n > _ENUM_CAP:
            raise ScaleExceeded("rank tables capped at n=%d" % _ENUM_CAP)
        import numpy as np  # here, so that importing ncpoly, which uses _bits, does not load it

        sizes = _sizes(n)
        subsets = np.arange(1 << n, dtype=np.uint16)
        keep = sizes == rank
        for fm, r in fam:
            keep &= sizes[subsets & fm] <= r
        masks = set(np.flatnonzero(keep).tolist())
        if not masks:
            raise EmptyMatroid("the given cyclic flats cut out no bases")
        M = cls(n, rank, masks)
        M._check_axioms()
        # the improper cyclic flats (empty set, full ground set) need not be listed
        derived = {(f.elements, f.rank) for f in M.proper_cyclic_flats()}
        given = {(frozenset(_bits(fm)), r) for fm, r in fam}
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
        return sorted(tuple(_bits(m)) for m in self._bases)

    def basis_masks(self):
        return sorted(self._bases)

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and (self.n, self.rank, self._bases) == (other.n, other.rank, other._bases)
        )

    def __hash__(self):
        return hash((self.n, self.rank, self._bases))

    def __repr__(self):
        return "Matroid(n=%d, rank=%d, %d bases)" % (self.n, self.rank, len(self._bases))

    def _check_axioms(self):
        """Raise NotAMatroid unless the bases are a matroid's.  Built from
        equal-size sets, a rank table r(S) = max |B & S| is a matroid's rank
        function, with exactly those sets as bases, iff r(S+x) + r(S+y) >=
        r(S+x+y) + r(S) for all S and x, y outside S; each component's table
        is checked.  In such a table D_x(S) = r(S+x) - r(S) is 0 or 1, and
        the inequality says D_x(S) >= D_x(S+y).  So with D_x(S) for all x
        at once as the bits of one integer per S, no bit may appear when
        any y is added, which is n array steps.  The component ranks must
        add up to self.rank, so each basis meets each component in its
        rank, and the bases must be all combinations of the components'
        bases."""
        import numpy as np  # here, so that importing ncpoly, which uses _bits, does not load it

        comps = self.component_sets()
        count, rank = 1, 0
        for comp in comps:
            sub, labels = self.restriction_to_component(comp), sorted(comp)
            n = sub.n
            r = np.frombuffer(sub._rank_table(), dtype=np.uint8)
            # bit x: D_x(S), clear for S with x; n <= 12, as _rank_table checks
            grows = np.zeros(1 << n, dtype=np.uint16)
            for x in range(n):
                without_x, with_x = _halves(r, x)
                grows_without_x, _ = _halves(grows, x)
                grows_without_x |= np.left_shift(without_x < with_x, x, dtype=np.uint16)
            for y in range(n):
                without_y, with_y = _halves(grows, y)
                if np.any(with_y & ~without_y):
                    raise _not_submodular(grows, labels)
            count *= len(sub._bases)
            rank += sub.rank
        if (count, rank) != (len(self._bases), self.rank):
            raise NotAMatroid("the bases are not those of a direct sum of matroids on "
                              "the components %s" % [_shown(c) for c in comps])

    # -- rank machinery -----------------------------------------------

    def _rank_table(self):
        """Rank of every subset mask, as 2^n bytes; see the module docstring."""
        if self._ranks is None:
            if self.n > _ENUM_CAP:
                raise ScaleExceeded("rank tables capped at n=%d" % _ENUM_CAP)
            import numpy as np  # here, so that importing ncpoly, which uses _bits, does not load it

            indep = np.zeros(1 << self.n, dtype=np.bool_)
            indep[np.fromiter(self._bases, dtype=np.intp, count=len(self._bases))] = True
            for e in range(self.n):
                without_e, with_e = _halves(indep, e)
                without_e |= with_e
            ranks = _sizes(self.n)
            ranks *= indep
            for e in range(self.n):
                without_e, with_e = _halves(ranks, e)
                np.maximum(with_e, without_e, out=with_e)
            self._ranks = ranks.tobytes()
        return self._ranks

    def rank_of(self, subset):
        m = subset if isinstance(subset, int) else _mask(subset)
        if self.n <= _ENUM_CAP:
            return self._rank_table()[m]
        return max((b & m).bit_count() for b in self._bases)

    def cyclic_flats(self):
        """All cyclic flats (flats that are unions of circuits), improper included.

        A flat gains rank from every element added; a cyclic set keeps
        its rank when any one element is removed.
        """
        if self._cyclic is None:
            import numpy as np  # here, so that importing ncpoly, which uses _bits, does not load it

            ranks = self._rank_table()
            r = np.frombuffer(ranks, dtype=np.uint8)
            keep = np.ones(r.shape, dtype=np.bool_)
            for e in range(self.n):
                without_e, with_e = _halves(r, e)
                keep_without, keep_with = _halves(keep, e)
                keep_without &= without_e < with_e
                keep_with &= without_e == with_e
            out = [CyclicFlat(frozenset(_bits(m)), ranks[m])
                   for m in np.flatnonzero(keep).tolist()]
            out.sort(key=lambda f: (len(f.elements), sorted(f.elements)))
            self._cyclic = out
        return list(self._cyclic)

    def proper_cyclic_flats(self):
        return [f for f in self.cyclic_flats() if 0 < len(f.elements) < self.n]

    # -- structure ----------------------------------------------------

    def dual(self):
        full = (1 << self.n) - 1
        return Matroid(self.n, self.n - self.rank, {full ^ b for b in self._bases})

    def component_sets(self):
        """Ground set partition into connected components: those of the
        fundamental graph of one basis B, joining x in B to y outside B
        when B - x + y is a basis (Krogdahl).  Loops and coloops stay
        singletons."""
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        bs = self._bases
        b = min(bs)
        outside = _bits(((1 << self.n) - 1) ^ b)
        for x in _bits(b):
            stripped = b & ~(1 << x)
            for y in outside:
                if stripped | (1 << y) in bs:
                    union(x, y)
        groups = {}
        for e in range(self.n):
            groups.setdefault(find(e), []).append(e)
        return sorted((frozenset(g) for g in groups.values()), key=lambda s: min(s))

    def connected_components(self):
        """One standalone matroid per component, elements relabeled."""
        return [self.restriction_to_component(c) for c in self.component_sets()]

    def is_connected(self):
        return len(self.component_sets()) == 1

    def restriction_to_component(self, comp):
        """Standalone matroid on a component, elements relabeled to 0..len-1."""
        if len(comp) == self.n:
            return self  # keeps the rank table and cyclic flats already built
        elems = sorted(comp)
        pos = {e: i for i, e in enumerate(elems)}
        cm = _mask(elems)
        r = self.rank_of(cm)
        masks = {_mask(pos[e] for e in _bits(b & cm)) for b in self._bases
                 if (b & cm).bit_count() == r}
        return Matroid(len(elems), r, masks)

    def relax(self, elems):
        """Add every rank-size subset meeting elems in more than its rank."""
        fm = _mask(elems)
        r = self.rank_of(fm)
        added = {b for b in Matroid.uniform(self.rank, self.n)._bases
                 if (b & fm).bit_count() > r}
        if not added:
            raise InvalidParams("relaxation of %r adds no bases" % (_shown(_bits(fm)),))
        return Matroid(self.n, self.rank, self._bases | added)


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
