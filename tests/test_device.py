import functools
import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oamsense import device
from oracles import interpolate_per_call, mode_record

TWO_PI = 2.0 * math.pi

GOOD_ROWS = """\
l_s_um,w_h_um,l_h_um,branch,omega_m_hz,m_eff_kg,r_eff_m,q_m,g_om_hz_per_m
8.0,7.0,1.0,twist-like,7.0e6,1e-13,1e-4,1e6,2e18
10.0,7.0,1.0,twist-like,6.0e6,2e-13,2e-4,1e6,16e18
12.0,7.0,1.0,twist-like,5.0e6,3e-13,4e-4,1e6,2e18
8.0,7.0,1.0,bounce-like,5.96e6,2.7e-14,1e-3,1e6,32e18
10.0,7.0,1.0,bounce-like,5.96e6,2.7e-14,2e-4,1e6,16e18
12.0,7.0,1.0,bounce-like,5.96e6,2.7e-14,9e-4,1e6,32e18
"""


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "dev.csv"
    path.write_text("# tiny fixture table\n" + GOOD_ROWS)
    return path


def test_sample_dataset_shape_and_resonance():
    ds = device.load_sample_dataset()
    assert ds.branches() == ("bounce-like", "twist-like")
    twist = ds.records_for("twist-like")
    bounce = ds.records_for("bounce-like")
    assert len(twist) == 11 and len(bounce) == 11
    # branch frequencies come closest (equal) at l_s = 10 um
    gaps = np.abs(twist["omega_m"] - bounce["omega_m"])
    i = int(np.argmin(gaps))
    assert twist[i]["l_s_um"] == 10.0
    assert gaps[i] == 0.0


def test_sample_dataset_anchor_values():
    ds = device.load_sample_dataset()
    t12 = device.interpolate(ds, "twist-like", 12.0)
    b12 = device.interpolate(ds, "bounce-like", 12.0)
    assert t12["omega_m"] / TWO_PI == pytest.approx(4.81e6, rel=1e-12)
    assert b12["omega_m"] / TWO_PI == pytest.approx(5.96e6, rel=1e-12)
    # off-resonance bounce coupling ~ 32 GHz/nm, bounce mass 27 pg
    b8 = device.interpolate(ds, "bounce-like", 8.0)
    assert b8["g_om"] / TWO_PI == pytest.approx(32e18, rel=1e-2)
    assert b8["m_eff"] == pytest.approx(27e-15, rel=1e-12)


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(device.DatasetError, match="empty"):
        device.load_dataset(path)


def test_header_only_is_error(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text(device.HEADER + "\n")
    with pytest.raises(device.DatasetError, match="no data rows"):
        device.load_dataset(path)


@pytest.mark.parametrize("row, name", [
    ("10.0,7.0,1.0,twist-like,6.0e6,0.0", "m_eff"),
    ("10.0,0,1.0,twist-like,6.0e6,2e-13", "w_h_um"),
    ("-1,7.0,1.0,twist-like,6.0e6,2e-13", "l_s_um"),
], ids=["m_eff", "w_h_um", "l_s_um"])
def test_zero_m_eff_names_row(tmp_path, row, name):
    bad = GOOD_ROWS.replace("10.0,7.0,1.0,twist-like,6.0e6,2e-13", row)
    path = tmp_path / "bad.csv"
    path.write_text(bad)
    with pytest.raises(device.DatasetError, match=f"line 3: .* field {name} must be > 0"):
        device.load_dataset(path)


def test_wrong_column_count_names_row(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text(device.HEADER + "\n1.0,2.0,3.0\n")
    with pytest.raises(device.DatasetError, match="line 2.*9 columns"):
        device.load_dataset(path)


def test_duplicate_key_rejected(tmp_path):
    dup = GOOD_ROWS + "12.0,7.0,1.0,twist-like,5.0e6,3e-13,4e-4,1e6,2e18\n"
    path = tmp_path / "dup.csv"
    path.write_text(dup)
    message = f"{path}, line 8: repeats the twist-like row at l_s = 12.0 um of line 4"
    with pytest.raises(device.DatasetError, match=re.escape(message)):
        device.load_dataset(path)


def test_unknown_branch_rejected(tmp_path):
    path = tmp_path / "branch.csv"
    path.write_text(
        device.HEADER + "\n8.0,7.0,1.0,wobble,7.0e6,1e-13,1e-4,1e6,2e18\n"
    )
    with pytest.raises(device.DatasetError, match="line 2.*unknown branch"):
        device.load_dataset(path)


def test_see_saw_branch_rejected(tmp_path):
    # no data and no model produce a see-saw mode
    path = tmp_path / "see_saw.csv"
    path.write_text(device.HEADER + "\n8.0,7.0,1.0,see-saw,7.0e6,1e-13,1e-4,1e6,2e18\n")
    with pytest.raises(device.DatasetError, match="line 2: unknown branch 'see-saw'"):
        device.load_dataset(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "hdr2.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(device.DatasetError, match="bad header"):
        device.load_dataset(path)


def test_interpolation_identity_at_knots(small_file):
    ds = device.load_dataset(small_file)
    for rec in ds.records:
        got = device.interpolate(ds, rec["branch"], rec["l_s_um"])
        assert got == rec


def test_interpolation_midpoint_is_mean(small_file):
    ds = device.load_dataset(small_file)
    recs = ds.records_for("twist-like")
    mid = device.interpolate(ds, "twist-like", 9.0)
    for attr in ("omega_m", "m_eff", "r_eff", "q_m", "g_om"):
        a, b = recs[0][attr], recs[1][attr]
        assert mid[attr] == pytest.approx(0.5 * (a + b), rel=1e-15)


def test_interpolation_monotone_between_knots(small_file):
    ds = device.load_dataset(small_file)
    recs = ds.records_for("twist-like")
    queries = np.linspace(8.0, 10.0, 17)
    values = [device.interpolate(ds, "twist-like", q)["m_eff"] for q in queries]
    assert all(x < y for x, y in zip(values, values[1:]))
    lo = min(recs[0]["m_eff"], recs[1]["m_eff"])
    hi = max(recs[0]["m_eff"], recs[1]["m_eff"])
    assert all(lo <= v <= hi for v in values)


def test_out_of_domain_states_bounds(small_file):
    ds = device.load_dataset(small_file)
    with pytest.raises(device.DatasetError, match=r"\[8.0, 12.0\]"):
        device.interpolate(ds, "twist-like", 13.0)


def test_missing_branch_lists_available(small_file):
    ds = device.load_dataset(small_file)
    with pytest.raises(device.DatasetError, match="hybrid-lower"):
        device.interpolate(ds, "hybrid-lower", 10.0)


def test_q_m_override(small_file):
    ds = device.load_dataset(small_file)
    rec = device.interpolate(ds, "twist-like", 10.0, q_m_override=500.0)
    assert rec["q_m"] == 500.0
    assert rec["omega_m"] == ds.records_for("twist-like")[1]["omega_m"]


def test_direct_construction_matches_loaded(small_file):
    ds = device.load_dataset(small_file)
    direct = device.DeviceDataset(records=ds.records[::-1])
    assert direct.branches() == ("bounce-like", "twist-like")
    assert np.array_equal(direct.records_for("twist-like"), ds.records_for("twist-like"))
    assert np.array_equal(direct.records, ds.records)
    assert direct.domain("bounce-like") == (8.0, 12.0)
    mid = device.interpolate(ds, "twist-like", 9.0)
    assert device.interpolate(direct, "twist-like", 9.0) == mid
    again = device.DeviceDataset(records=ds.records, provenance=ds.provenance)
    assert np.array_equal(again.records, ds.records) and again.provenance == ds.provenance
    # the rows are sorted by (branch, l_s) once, and the table is read-only
    assert ds.records["branch"].tolist() == ["bounce-like"] * 3 + ["twist-like"] * 3
    assert not ds.records.flags.writeable


def test_direct_construction_rejects_overlong_branch():
    # numpy cuts a string to the field width; the cut must not yield a valid label
    assert device.MODE_DTYPE["branch"] == np.dtype("U13")
    row = (10.0, 7.0, 1.0, "hybrid-lower-x", 6.0e6, 2e-13, 2e-4, 1e6, 16e18)
    with pytest.raises(device.DatasetError, match="unknown branch 'hybrid-lower-'"):
        device.DeviceDataset(records=[row])


def test_direct_construction_rejects_repeated_l_s(small_file):
    ds = device.load_dataset(small_file)
    with pytest.raises(device.DatasetError, match="strictly increasing"):
        device.DeviceDataset(records=np.concatenate([ds.records, ds.records[:1]]))


@functools.cache
def _sample():
    return device.load_sample_dataset()


def _bits(rec):
    """Branch and float.hex of each field of a record or of one grid row."""
    values = [rec[name] for name in device.MODE_DTYPE.names if name != "branch"]
    return str(rec["branch"]), tuple(float(v).hex() for v in values)


@st.composite
def _grid_case(draw):
    branch = draw(st.sampled_from(("twist-like", "bounce-like")))
    knots = _sample().records_for(branch)["l_s_um"].tolist()
    lo, hi = knots[0], knots[-1]
    inner = draw(st.lists(st.floats(lo, hi), max_size=40))
    grid = sorted(set(knots + inner))
    q_m = draw(st.none() | st.floats(1.0, 1e9))
    return branch, grid, q_m


@settings(max_examples=60, deadline=None)
@given(_grid_case())
def test_grid_matches_per_call_oracle(case):
    branch, grid, q_m = case
    ds = _sample()
    got = device.interpolate_grid(ds, branch, np.array(grid), q_m_override=q_m)
    want = [interpolate_per_call(ds, branch, l_s, q_m) for l_s in grid]
    assert got.dtype == device.MODE_DTYPE and got.shape == (len(grid),)
    assert [_bits(r) for r in got] == [_bits(r) for r in want]
    if grid:
        assert device.interpolate(ds, branch, grid[-1], q_m) == want[-1]


def test_grid_knots_equal_stored_records():
    ds = _sample()
    recs = ds.records_for("twist-like")
    grid = recs["l_s_um"]
    got = device.interpolate_grid(ds, "twist-like", grid)
    assert np.array_equal(got, recs)
    assert [_bits(r) for r in got] == [_bits(r) for r in recs]
    overridden = device.interpolate_grid(ds, "twist-like", grid, q_m_override=7.0)
    assert overridden["q_m"].tolist() == [7.0] * len(recs)
    assert overridden["omega_m"].tolist() == recs["omega_m"].tolist()


@pytest.mark.parametrize("q_m", [0.0, -1.0, float("nan")])
def test_nonpositive_q_m_override_rejected(q_m):
    for l_s_values in ([9.0, 10.0], []):
        with pytest.raises(device.DatasetError, match="record field q_m must be > 0"):
            device.interpolate_grid(_sample(), "twist-like", l_s_values, q_m_override=q_m)
    with pytest.raises(device.DatasetError, match="record field q_m must be > 0"):
        device.interpolate(_sample(), "twist-like", 10.0, q_m_override=q_m)


@pytest.mark.parametrize("grid, bad", [
    ([9.0, 10.0, 18.5, 19.0], "18.5"),
    ([7.5, 9.0, 10.0], "7.5"),
    ([9.0, float("nan"), 10.0], "nan"),
])
def test_grid_outside_domain_names_first_point(grid, bad):
    with pytest.raises(device.DatasetError,
                       match=rf"l_s = {bad} um outside branch 'twist-like' domain \[8.0, 18.0\]"):
        device.interpolate_grid(_sample(), "twist-like", grid)


def test_load_crossings_groups_by_hanger_width():
    groups = device.load_crossings(device.sample_anticrossing_path())
    assert list(groups) == [5.0, 7.0, 9.0]
    for rows in groups.values():
        assert rows.shape[1] == 3
        assert np.all(np.diff(rows[:, 0]) > 0.0)
        assert np.all(rows[:, 1] < rows[:, 2])
    assert groups[5.0][0, 1] == TWO_PI * 5903636.828329092


def test_load_crossings_bad_header_names_file_and_line(tmp_path):
    path = tmp_path / "cross.csv"
    path.write_text("# note\nw_h,l_s,f_lo,f_hi\n7.0,9.0,5.0e6,6.0e6\n")
    with pytest.raises(device.DatasetError, match=re.escape(f"{path}, line 2: bad header")):
        device.load_crossings(path)


def test_data_tool_reproduces_bundled_files(tmp_path):
    tool = Path(__file__).resolve().parents[1] / "tools" / "generate_sample_data.py"
    spec = importlib.util.spec_from_file_location("generate_sample_data", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.DATA_DIR = tmp_path
    module.main()
    for name, bundled in (("sample_device.csv", device.sample_dataset_path()),
                          ("sample_anticrossing.csv", device.sample_anticrossing_path())):
        assert (tmp_path / name).read_bytes() == bundled.read_bytes()


def test_geometry_invariants():
    # the geometry checks run first, so a row with several faults names l_s_um
    row = mode_record(l_s_um=-1.0, w_h_um=7.0, l_h_um=1.0, branch="wobble",
                      omega_m=0.0, m_eff=0.0, r_eff=1e-4, q_m=1e6, g_om=-1.0)
    with pytest.raises(device.DatasetError, match="^geometry field l_s_um must be > 0$"):
        device.DeviceDataset(records=[row])
