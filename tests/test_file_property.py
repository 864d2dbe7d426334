"""Property: any matroid file either loads or raises a CdxError whose
documented exit code is 2, 3 or 4, never an uncaught exception."""

import json
import os
import tempfile
from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdx import cli
from cdx.errors import CdxError
from cdx.matroid import Matroid
from fuzz_inputs import damaged_bytes, json_values

not_an_int = json_values.filter(lambda v: not isinstance(v, int) or isinstance(v, bool))


@st.composite
def matroid_objects(draw):
    """A bases or cyclic flats object on n <= 8 elements, near enough to a
    matroid that many load, with at most one field or element damaged."""
    n = draw(st.integers(1, 8))  # so that a file that loads is cheap to build
    rank = draw(st.integers(0, n))
    obj = {"n": n, "rank": rank}
    if draw(st.booleans()):
        every = [list(b) for b in combinations(range(1, n + 1), rank)]
        dropped = draw(st.sets(st.integers(0, len(every) - 1), max_size=3))
        obj["bases"] = [b for i, b in enumerate(every) if i not in dropped]
    else:
        flat = st.fixed_dictionaries({
            "set": st.lists(st.integers(1, n), unique=True, max_size=n).map(sorted),
            "rank": st.integers(0, rank),
        })
        obj["cyclic_flats"] = draw(st.lists(flat, max_size=3))
    what = draw(st.sampled_from(["none", "none", "n", "rank", "bases",
                                 "cyclic_flats", "drop", "element"]))
    if what == "n":
        obj["n"] = draw(st.integers(-1, 8) | not_an_int)
    elif what in ("rank", "bases", "cyclic_flats"):
        obj[what] = draw(st.integers(-1, 9) | json_values)
    elif what == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif what == "element":
        sets = obj["bases"] if "bases" in obj else [f["set"] for f in obj["cyclic_flats"]]
        sets = [s for s in sets if s]
        if sets:
            s = draw(st.sampled_from(sets))
            s[draw(st.integers(0, len(s) - 1))] = draw(st.integers(-1, 9) | json_values)
    return obj


@st.composite
def matroid_files(draw):
    """The bytes of a matroid file: a JSON value, whole, cut short or with
    one byte overwritten, or any bytes at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64))
    return damaged_bytes(draw, json.dumps(draw(matroid_objects() | json_values)).encode())


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(matroid_files())
def test_any_matroid_file_loads_or_gives_an_input_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            M = cli.load_matroid_file(path)
        except CdxError as exc:
            assert cli.EXIT_CODES.get(exc.code) in (2, 3, 4), exc
        else:
            assert isinstance(M, Matroid)
