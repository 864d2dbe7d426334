"""Property: any string either parses as a polynomial or raises a CdxError,
the canonical text form of any polynomial parses back to it, and the
one-regex parser agrees with the token-by-token parser it replaced."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from cdx.errors import CdxError, InvalidParams
from cdx.ncpoly import NcPoly
from fuzz_inputs import damaged_bytes

# CPython converts an int of at most 4300 digits to and from text
DIGITS_LIMIT = 4300
words = st.text(alphabet="abcd", max_size=6)
digit_counts = st.integers(DIGITS_LIMIT - 10, DIGITS_LIMIT + 10)
nines = digit_counts.map(lambda d: 10**d - 1)

small = st.integers(-(10**30), 10**30) | st.integers(-9, 9)
small_polys = st.dictionaries(words, small, max_size=6).map(NcPoly)
polys = st.dictionaries(
    words, small | nines | nines.map(lambda k: -k), max_size=6).map(NcPoly)

# near the grammar: letters in and out of the alphabet, digits, operators
NEAR = "abcdABxy0123456789+-* \t\n"
near_text = st.text(alphabet=NEAR, max_size=40)

_TOKEN = re.compile(r"[+-]|(?:\d+\s*\*\s*)?[A-Za-z]+|\d+")


def reference_from_text(s):
    """The parser NcPoly.from_text replaced: one token at a time, with a
    sign and an expect_term state between tokens."""
    if s.strip() in ("", "0"):
        return NcPoly()
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
        digits = tm.group(1) or tm.group(3)
        try:
            k = int(digits) if digits else 1
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise InvalidParams("coefficient of %d digits is too long to read"
                                % len(digits)) from None
        terms.append((tm.group(2) or "", sign * k))
        sign = 1
        expect_term = False
    if expect_term:
        raise InvalidParams("dangling operator in %r" % s)
    return NcPoly(terms)


def parsed_or_error_class(parse, text):
    try:
        return parse(text)
    except CdxError as exc:
        return type(exc)


def parses_or_refuses(text):
    try:
        NcPoly.from_text(text)
    except CdxError:
        pass


@settings(max_examples=300, derandomize=True)
@given(polys)
def test_text_round_trip(p):
    try:
        text = p.text()
    except InvalidParams:
        assert any(abs(k) >= 10**DIGITS_LIMIT for k in p.terms().values())
        assert "too long to print" in repr(p)
        return
    assert NcPoly.from_text(text) == p


@settings(max_examples=100, derandomize=True)
@given(digit_counts, words)
def test_coefficient_text_past_the_digit_limit_is_refused(d, w):
    text = "9" * d + ("*" + w if w else "")
    try:
        p = NcPoly.from_text(text)
    except InvalidParams:
        assert d > DIGITS_LIMIT
    else:
        assert d <= DIGITS_LIMIT and p == NcPoly.word(w, 10**d - 1)


@settings(max_examples=300, derandomize=True)
@given(near_text | st.text(max_size=40))
def test_any_text_parses_or_raises_a_cdx_error(text):
    parses_or_refuses(text)


EDGE_TEXTS = ["", " ", "0", " 0 ", "-0", "+", "-", "- - c", "--c", "+-c", "2c", "c c",
              "c+", "c +\n", "2*", "2 * c", "2*\tc", "1 2", "c -+- d", "c - -2*d",
              "c^4", "x", "x +", "0*x + c", "3 - 3"]


@settings(max_examples=1000, derandomize=True)
@given(st.text(alphabet=NEAR + "^", max_size=40))
def test_from_text_agrees_with_the_token_parser(text):
    assert (parsed_or_error_class(NcPoly.from_text, text)
            == parsed_or_error_class(reference_from_text, text))


def test_from_text_agrees_with_the_token_parser_on_edge_cases():
    for text in EDGE_TEXTS:
        assert (parsed_or_error_class(NcPoly.from_text, text)
                == parsed_or_error_class(reference_from_text, text)), text


@st.composite
def damaged_texts(draw):
    """A canonical text form cut short or with one byte overwritten, each
    byte read as one character."""
    data = draw(small_polys).text().encode()
    return damaged_bytes(draw, data).decode("latin-1")


@settings(max_examples=200, derandomize=True)
@given(damaged_texts())
def test_damaged_text_parses_or_raises_a_cdx_error(text):
    parses_or_refuses(text)

