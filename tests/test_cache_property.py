"""Properties: any single line in a cache file leaves both cache readers
with a documented exit code and never an uncaught exception, and the
whole-record checks of cli.poly_from_json accept exactly the records the
per-word reference accepts."""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cdx import cli, cuspidal, engine, hypersimplex
from fuzz_inputs import damaged_bytes, json_values
from reference import reference_poly_from_json

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}


def run_cli(*argv):
    """``cdx`` in-process on empty memo tables, as in a fresh process."""
    for clear in (hypersimplex.memo_clear, cuspidal.memo_clear, engine.w_memo_clear):
        clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


@functools.lru_cache(maxsize=None)
def fano_records():
    """The records a cold fano run writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.jsonl")
        run_cli("compute", "--builtin", "fano", "--cache", path)
        with open(path) as fh:
            return [line.strip() for line in fh]


coefficients = (st.integers(-5, 10**6) | st.text("0123456789-.e", max_size=5)
                | st.floats() | st.booleans() | json_values)


@st.composite
def cd_words(draw, degree, alphabet="cd"):
    """A word over the alphabet of the given degree, where d counts two and
    any other letter one; the empty word for a degree of 0 or less."""
    letters = []
    while degree > 0:
        letter = draw(st.sampled_from(alphabet if degree > 1 else alphabet.replace("d", "")))
        letters.append(letter)
        degree -= 2 if letter == "d" else 1
    return "".join(letters)


@st.composite
def damaged_records(draw):
    """A record of a fano run with at most one field damaged, so that many
    lines pass the parse and reach the key check, the degree check or the
    formula itself.  Key entries stay below 13, the largest ground set
    the command line computes, so a record that passes its check is
    cheap to recompute; only "key-and-cd" goes further.  It moves the
    ground set size n of the key up to 40, a key its table still stores,
    and writes a cd of the new degree, so the record passes every check
    and reaches the degree bound of `verify --cache`."""
    rec = json.loads(draw(st.sampled_from(fano_records())))
    words = sorted(rec["cd"])
    what = draw(st.sampled_from(["none", "v", "kind", "key", "key-entry",
                                 "coefficient", "new-word", "lost-word",
                                 "key-and-cd"]))
    if what == "v":
        rec["v"] = draw(json_values)
    elif what == "kind":
        rec["kind"] = draw(st.sampled_from(sorted(cli._KINDS) + ["product"]) | json_values)
    elif what == "key":
        rec["key"] = draw(st.lists(st.integers(-1, 12), max_size=6)
                          | json_values.filter(lambda v: not isinstance(v, list)))
    elif what == "key-entry":
        rec["key"][draw(st.integers(0, len(rec["key"]) - 1))] = draw(st.integers(-1, 12))
    elif what == "coefficient":
        rec["cd"][draw(st.sampled_from(words))] = draw(coefficients)
    elif what == "new-word":
        rec["cd"][draw(st.text("cdx", max_size=8))] = draw(st.integers(-5, 5))
    elif what == "lost-word":
        del rec["cd"][draw(st.sampled_from(words))]
    elif what == "key-and-cd":
        at = -1 if rec["kind"] == "w" else 1  # where the key holds n
        n = draw(st.integers(13, 40) | st.integers(rec["key"][at], 12))
        rec["key"][at] = n
        rec["cd"] = draw(st.dictionaries(cd_words(n - 1), st.integers(1, 10**6),
                                         min_size=1, max_size=3))
    return rec


@st.composite
def cache_lines(draw):
    """One cache line as bytes: a record whole, cut short as by an
    interrupted write, or with one byte overwritten as by a damaged disk."""
    return damaged_bytes(draw, json.dumps(draw(damaged_records() | json_values)).encode())


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cache_lines())
def test_any_cache_line_gives_a_documented_exit_code(line):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.jsonl")
        with open(path, "wb") as fh:
            fh.write(line + b"\n")
        verify_rc, _ = run_cli("verify", "--cache", path)
        assert verify_rc in DOCUMENTED_EXIT_CODES
        rc, out = run_cli("compute", "--builtin", "fano", "--cache", path)
        assert rc in DOCUMENTED_EXIT_CODES
    if rc == 0 and out.strip() != cli.PAPER_VALUES["fano"]:
        # a record that changed the answer is caught by verify --cache
        assert verify_rc == 1


int_strings = st.sampled_from(["7", " 7", "1_0", "-3", "0"]) | st.integers().map(str)
any_coefficients = (st.integers() | st.booleans() | st.floats() | st.just(1e400)
                    | int_strings | st.sampled_from(["1.5", "", "9" * 5000])
                    | st.text("0123456789 _-+.e", max_size=6))


@st.composite
def cd_values(draw):
    """A degree and a record's cd value for it: well-formed, with words and
    coefficients that may break any rule, or not an object at all."""
    degree = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(["cd", "near", "not-an-object"]))
    # words over c, d, x of degree degree - 1, degree or degree + 1
    near_words = st.integers(-1, 1).flatmap(lambda k: cd_words(degree + k, "cdx"))
    if shape == "cd":
        cd = draw(st.dictionaries(cd_words(degree), st.integers() | int_strings,
                                  max_size=4))
    elif shape == "near":
        cd = draw(st.dictionaries(near_words, any_coefficients, max_size=4))
    else:
        cd = draw(st.lists(near_words, max_size=3) | st.text("cdx", max_size=4)
                  | st.integers() | st.floats() | st.none())
    return cd, degree


def read_with(reader, cd, degree):
    """The polynomial reader makes of cd, or the type of error it raises."""
    try:
        return reader(cd, degree)
    except (ValueError, AttributeError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cd_values())
@example(({"cc": " 7", "d": "1_0"}, 2))
@example(({"": "-3"}, 0))
@example(({"xx": "1"}, 2))
@example(({"cc": 1e400}, 2))
@example(({"cc": True}, 2))
@example(({"cc": "9" * 5000}, 2))
@example((["cc"], 2))
def test_whole_record_checks_match_the_per_word_reference(value):
    cd, degree = value
    got = read_with(cli.poly_from_json, cd, degree)
    want = read_with(reference_poly_from_json, cd, degree)
    assert got == want
