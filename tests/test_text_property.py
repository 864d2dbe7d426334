"""Property: any string either parses as a polynomial or raises a CdxError,
and the canonical text form of any polynomial parses back to it."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cdx.errors import CdxError
from cdx.ncpoly import NcPoly
from fuzz_inputs import damaged_bytes

polys = st.dictionaries(
    st.text(alphabet="abcd", max_size=6),
    st.integers(-(10**30), 10**30) | st.integers(-9, 9),
    max_size=6,
).map(NcPoly)

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
    assert NcPoly.from_text(p.text()) == p


@settings(max_examples=300, derandomize=True)
@given(near_text | st.text(max_size=40))
def test_any_text_parses_or_raises_a_cdx_error(text):
    parses_or_refuses(text)


@st.composite
def damaged_texts(draw):
    """A canonical text form cut short or with one byte overwritten, each
    byte read as one character."""
    data = draw(polys).text().encode()
    return damaged_bytes(draw, data).decode("latin-1")


@settings(max_examples=200, derandomize=True)
@given(damaged_texts())
def test_damaged_text_parses_or_raises_a_cdx_error(text):
    parses_or_refuses(text)

