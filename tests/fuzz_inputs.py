"""Hypothesis inputs shared by the property tests: any JSON value, and
bytes damaged as by an interrupted write or a bad disk."""

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
