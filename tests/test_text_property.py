"""Property: any string either parses as a polynomial or raises a CdxError,
and the canonical text form of any polynomial parses back to it."""

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
near_text = st.text(alphabet="abcdABxy0123456789+-* \t\n", max_size=40)


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

