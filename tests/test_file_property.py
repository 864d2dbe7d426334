"""Properties: any matroid file either loads or raises a CdxError whose
documented exit code is 2, 3 or 4, never an uncaught exception, and any
file of more than 12 elements exits 4 before anything is computed."""

import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cdx import cli, engine
from cdx.errors import CdxError
from cdx.matroid import Matroid
from fuzz_inputs import damaged_bytes, json_values, uniform_direct_sums

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


def direct_sum_objects(summands):
    """The bases object and the cyclic flats object of the direct sum of
    the U(k, m) in summands, each on the next m elements, 1-based.  The
    sum's cyclic flats are the unions of one cyclic flat per summand:
    U(k, m) has the empty set unless k = 0 and its whole set unless k = m."""
    n, rank = sum(m for _, m in summands), sum(k for k, _ in summands)
    bases, flats, start = [[]], [([], 0)], 1
    for k, m in summands:
        elems = list(range(start, start + m))
        start += m
        bases = [b + list(c) for b in bases for c in combinations(elems, k)]
        own = ([([], 0)] if k > 0 else []) + ([(elems, k)] if k < m else [])
        flats = [(s + t, r + q) for s, r in flats for t, q in own]
    cyclic = [{"set": s, "rank": r} for s, r in flats if 0 < len(s) < n]
    return [{"n": n, "rank": rank, "bases": bases},
            {"n": n, "rank": rank, "cyclic_flats": cyclic}]


def test_both_direct_sum_objects_load_as_one_matroid_within_the_cap(tmp_path):
    for summands in ([(1, 3), (2, 4)], [(0, 2), (1, 2), (3, 3)], [(2, 5), (1, 2), (2, 2)]):
        loaded = []
        for i, obj in enumerate(direct_sum_objects(summands)):
            path = tmp_path / ("m%d.json" % i)
            path.write_text(json.dumps(obj))
            loaded.append(cli.load_matroid_file(str(path)))
        assert loaded[0] == loaded[1], summands


@settings(max_examples=100, deadline=None, derandomize=True)
@given(uniform_direct_sums())
@example([(1, 12), (1, 12)])  # 144 bases on 24 elements
@example([(1, 1), (0, 98)])  # more elements than one 64-bit word has bits
def test_every_matroid_file_above_the_cap_exits_4_before_computing(summands):
    n = sum(m for _, m in summands)
    computes = mock.patch.object(engine, "cd_index",
                                 side_effect=AssertionError("computed above the cap"))
    with tempfile.TemporaryDirectory() as tmp, computes:
        for obj in direct_sum_objects(summands):
            path = os.path.join(tmp, "m.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(["compute", "--file", path])
            assert (rc, out.getvalue()) == (4, ""), (obj, err.getvalue())
            assert "SCALE_EXCEEDED" in err.getvalue(), err.getvalue()
            assert "got n=%d" % n in err.getvalue(), err.getvalue()


def test_a_huge_n_exits_4_before_any_mask_is_built(tmp_path):
    """An element at n = 10**12 is in range, but 1 << 10**12 would take
    125 GB; the cap comes first, for bases and for cyclic flats alike."""
    n = 10 ** 12
    for obj in ({"n": n, "rank": 1, "bases": [[n]]},
                {"n": n, "rank": 1, "cyclic_flats": [{"set": [n], "rank": 0}]}):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(["compute", "--file", str(path)])
        assert time.perf_counter() - start < 1, obj
        assert (rc, out.getvalue()) == (4, ""), (obj, err.getvalue())
        assert "got n=%d" % n in err.getvalue(), err.getvalue()
