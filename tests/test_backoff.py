"""Backoff window table and contention-unit arithmetic."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecomac_backoff import (
    DEFAULT_TABLE,
    BackoffTable,
    ContentionWindow,
    compute_tcu,
    rbc_pmf,
    sample_rbc,
)
from ecomac_backoff.errors import ConfigError

# window per failure count, transcribed independently of the table constant
EXPECTED_WINDOWS = {
    0: (1, 7), 1: (1, 7),
    2: (0, 7), 3: (0, 7),
    4: (0, 6), 5: (0, 6), 6: (0, 6),
    7: (0, 5), 8: (0, 5),
    9: (0, 4), 10: (0, 4),
    11: (0, 3), 12: (0, 3),
}


def test_default_table_windows():
    assert DEFAULT_TABLE.e_max == 12
    assert DEFAULT_TABLE.b_max == 7
    for e, (lo, hi) in EXPECTED_WINDOWS.items():
        win = DEFAULT_TABLE.window_for(e)
        assert (win.lo, win.hi) == (lo, hi)


def test_window_width_and_values():
    win = ContentionWindow(0, 6)
    assert win.width == 7
    assert list(win.values()) == list(range(7))


def test_window_for_rejects_out_of_range():
    with pytest.raises(ConfigError):
        DEFAULT_TABLE.window_for(13)
    with pytest.raises(ConfigError):
        DEFAULT_TABLE.window_for(-1)


def test_pmf_is_uniform_over_the_window():
    for e, (lo, hi) in EXPECTED_WINDOWS.items():
        pmf = rbc_pmf(DEFAULT_TABLE, e)
        width = hi - lo + 1
        assert set(pmf) == set(range(lo, hi + 1))
        assert all(p == 1.0 / width for p in pmf.values())
        assert abs(sum(pmf.values()) - 1.0) < 1e-12


def test_window_validation():
    with pytest.raises(ConfigError):
        ContentionWindow(5, 3)
    with pytest.raises(ConfigError):
        ContentionWindow(-1, 3)


@pytest.mark.parametrize("lo,hi", [(True, 3), (0, True), (0.0, 3), (0, 3.0), ("0", 3)])
def test_window_bounds_must_be_integers(lo, hi):
    # True would pass for 1, and a float bound would reach range()
    with pytest.raises(ConfigError, match="integers"):
        ContentionWindow(lo, hi)


@pytest.mark.parametrize("rows", [
    ((0, 1, ContentionWindow(1, 7)), (3, 12, ContentionWindow(0, 7))),   # gap at e=2
    ((0, 2, ContentionWindow(1, 7)), (2, 12, ContentionWindow(0, 7))),   # overlap at e=2
    ((1, 12, ContentionWindow(1, 7)),),                                  # misses e=0
    ((0, 5, ContentionWindow(0, 4)), (6, 12, ContentionWindow(0, 6))),   # upper bound grows
    ((0, 3, ContentionWindow(1, 7)), (4, 2, ContentionWindow(0, 7))),    # empty row
    (),                                                                  # no rows
    ((0, 2.5, ContentionWindow(0, 3)),),                                 # float e_hi
    ((0.0, 2, ContentionWindow(0, 3)),),                                 # float e_lo
    ((False, 2, ContentionWindow(0, 3)),),                               # bool e_lo
    ((0, 2, (0, 3)),),                                                   # no window
    ((0, 2),),                                                           # short row
    [(0, 2, ContentionWindow(0, 3))],                                    # list of rows
    ([0, 2, ContentionWindow(0, 3)],),                                   # list row
])
def test_table_validation_rejects_malformed_rows(rows):
    with pytest.raises(ConfigError):
        BackoffTable(rows)


@pytest.mark.parametrize("rows,e_max,b_max", [
    (DEFAULT_TABLE.rows, 12, 7),
    (((0, 4, ContentionWindow(0, 3)),), 4, 3),
    (((0, 1, ContentionWindow(1, 3)), (2, 6, ContentionWindow(0, 3))), 6, 3),
    (((0, 0, ContentionWindow(2, 2)), (1, 2, ContentionWindow(0, 1))), 2, 2),
])
def test_table_bounds_are_derived_from_the_rows(rows, e_max, b_max):
    # the rows are the whole table: the last e_hi caps failures and the
    # first window's hi is the largest counter
    assert [f.name for f in dataclasses.fields(BackoffTable)] == ["rows"]
    table = BackoffTable(rows)
    assert (table.e_max, table.b_max) == (e_max, b_max)
    assert table.window_for(e_max) == rows[-1][2]
    with pytest.raises(ConfigError):
        table.window_for(e_max + 1)


def test_table_upper_bounds_may_repeat():
    rows = ((0, 6, ContentionWindow(1, 7)), (7, 12, ContentionWindow(0, 7)))
    table = BackoffTable(rows)
    assert table.window_for(7).hi == 7


def test_contention_unit_composition():
    # 2 radio switches + control frame + RSSI probe, all in microseconds
    assert compute_tcu(850, 12000, 12) == 13712
    # hand-computed second point: 2*550 + 2000 + 12
    assert compute_tcu(550, 2000, 12) == 3112
    assert compute_tcu(0, 1, 0) == 1


def test_timing_params_validation():
    with pytest.raises(ConfigError, match="t_mxsrt_us"):
        compute_tcu(-1, 12000, 12)
    with pytest.raises(ConfigError, match="t_rssi_us"):
        compute_tcu(850, 12000, 12.5)
    with pytest.raises(ConfigError, match="t_frmctrl_us"):
        compute_tcu(850, -1, 12)
    with pytest.raises(ConfigError, match="t_mxsrt_us"):
        compute_tcu(True, 0, 0)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
def test_samples_stay_inside_the_window(e, seed):
    rng = np.random.default_rng(seed)
    win = DEFAULT_TABLE.window_for(e)
    v = sample_rbc(DEFAULT_TABLE, e, rng)
    assert win.lo <= v <= win.hi


@pytest.mark.parametrize("e,df,crit", [(0, 6, 22.46), (12, 3, 16.27)])
def test_sampling_is_uniform(e, df, crit):
    # chi-square at the 0.001 level, fixed stream
    rng = np.random.default_rng(1234)
    win = DEFAULT_TABLE.window_for(e)
    n = 1000 * win.width
    draws = np.array([sample_rbc(DEFAULT_TABLE, e, rng) for _ in range(n)])
    counts = np.bincount(draws - win.lo, minlength=win.width)
    chi2 = ((counts - 1000.0) ** 2 / 1000.0).sum()
    assert chi2 < crit, counts
