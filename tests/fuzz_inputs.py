"""Hypothesis inputs shared by the property tests: any JSON value, bytes
damaged as by an interrupted write or a bad disk, random k-set families
and cyclic flat lists, some of them matroids and some not, and direct
sums of uniform matroids above the size cap."""

from itertools import combinations
from math import comb, prod

from hypothesis import strategies as st

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def damaged_bytes(draw, data):
    """data whole, cut short, or with one byte overwritten by any value
    (any byte from 0x80 up leaves the text no longer UTF-8)."""
    how = draw(st.sampled_from(["whole", "cut", "byte"]))
    at = draw(st.integers(0, max(0, len(data) - 1)))
    if how == "cut":
        return data[:at]
    if how == "byte":
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    return data


@st.composite
def matroid_candidates(draw):
    """A bases or cyclic flats object on n <= 8 elements, 1-based as in a
    matroid file: all k-sets but some dropped, or the uniform bases cut by
    one to four random flats.  Each flat, of size h and rank r, has
    1 <= r < min(k, h) and k - (n - h) < r, so a cut by one flat is a
    connected matroid; a cut by more often is not a matroid, and dropped
    k-sets seldom leave one."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 8))
        k = draw(st.integers(1, n - 1))
        every = [[e + 1 for e in c] for c in combinations(range(n), k)]
        dropped = draw(st.sets(st.integers(0, len(every) - 1)))
        return {"n": n, "rank": k, "bases": [b for i, b in enumerate(every) if i not in dropped]}
    n = draw(st.integers(4, 8))
    k = draw(st.integers(2, n - 2))
    flats = []
    for _ in range(draw(st.integers(1, 4))):
        elems = draw(st.lists(st.integers(1, n), min_size=2, max_size=n - 2, unique=True))
        h = len(elems)
        rank = draw(st.integers(max(1, k - (n - h) + 1), min(k, h) - 1))
        flats.append({"set": sorted(elems), "rank": rank})
    return {"n": n, "rank": k, "cyclic_flats": flats}


@st.composite
def uniform_direct_sums(draw):
    """(k, m) for each summand U(k, m) of a direct sum of two to four
    uniform matroids on 13 to 40 elements in all.  The sum has at most
    2000 bases, so that its bases file stays small: a summand that would
    pass that count is a point, U(0, m) or U(m, m), instead."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4)
                 .filter(lambda s: 13 <= sum(s) <= 40))
    summands = []
    for m in sizes:
        k = draw(st.integers(0, m))
        if prod(comb(j, i) for i, j in summands) * comb(m, k) > 2000:
            k = draw(st.sampled_from([0, m]))
        summands.append((k, m))
    return summands
