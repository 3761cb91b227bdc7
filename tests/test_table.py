import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oamsense import table


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.uint64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
                  elements=st.integers(0, 2**64 - 1)))
@example(np.array([0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000,
                   0xFFF8000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
                   0x0000000000000001, 0x800FFFFFFFFFFFFF], dtype=np.uint64))
@example(np.array([[0x3FF8000000000000, 0x7FF8000000000000],
                   [0xFFF8000000000000, 0xBFF8000000000000]], dtype=np.uint64))
def test_format_cells_is_repr_of_every_bit_pattern(bits):
    values = bits.view(np.float64)
    text = table.format_cells(values)
    assert text.shape == np.ascontiguousarray(values).shape
    assert text.ravel().tolist() == [repr(float(v)) for v in values.ravel()]


def test_write_table_text_cells_and_empty_table(tmp_path):
    # a text cell replaces its float, blank or not; None keeps the float's repr
    path = tmp_path / "t.csv"
    text = np.array([[None, ""], [None, None], ["error:no fit", None]], dtype=object)
    columns = ([-0.0, np.nan, 1.0], [np.nan, 2.5, -np.nan])
    table.write_table(path, "a,b", columns, text)
    assert path.read_text() == "a,b\n-0.0,\nnan,2.5\nerror:no fit,nan\n"
    assert list(table.rows(columns, text)) == path.read_text().splitlines()[1:]
    assert list(table.rows(columns)) == ["-0.0,nan", "nan,2.5", "1.0,nan"]
    table.write_table(path, None, (np.empty(0), np.empty(0)), np.empty((0, 2), dtype=object))
    assert path.read_text() == ""
    table.write_table(path, "a,b", (np.empty(0), np.empty(0)))
    assert path.read_text() == "a,b\n"
