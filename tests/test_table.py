from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oamsense import table
from oracles import save_raster_per_cell


# A text cell in place of a float: None keeps the float's repr, "" is blank.
TEXT = st.one_of(st.none(), st.none(), st.sampled_from(["", "error:no fit", "-0.0"]))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.uint64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                  elements=st.integers(0, 2**64 - 1)).flatmap(
           lambda bits: st.tuples(st.just(bits), st.none() | hnp.arrays(object, bits.shape,
                                                                        elements=TEXT))),
       st.integers(1, 7))
@example((np.array([[0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000,
                     0xFFF8000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
                     0x0000000000000001, 0x800FFFFFFFFFFFFF]], dtype=np.uint64), None), 7)
@example((np.array([[0x3FF8000000000000, 0x7FF8000000000000],
                    [0xFFF8000000000000, 0xBFF8000000000000]], dtype=np.uint64),
          np.array([[None, "error:no fit"], ["", None]], dtype=object)), 1)
def test_rows_is_repr_of_every_bit_pattern(tmp_path_factory, table_text, block_cells):
    # blocks of 1-7 cells: a table of one block and of many, text cells on
    # either side of a block's edge, and empty tables
    bits, text = table_text
    matrix = bits.view(np.float64)
    path = tmp_path_factory.mktemp("rows")
    with mock.patch.object(table, "_BLOCK_CELLS", block_cells):
        table.write_table(path / "rows.csv", None, matrix.T, text)
    save_raster_per_cell(matrix, path / "per_cell.csv", text)
    assert (path / "rows.csv").read_bytes() == (path / "per_cell.csv").read_bytes()


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
