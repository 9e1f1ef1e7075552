"""Backoff tables shared by the engine tests, fixed ones and generated ones, and
generated timings."""

from hypothesis import strategies as st

from ecomac_backoff import BackoffTable, ContentionWindow

# every failure count draws 0 or 1, so rounds collide often and packets
# reach the failure cap
REJECT_HEAVY = BackoffTable(((0, 1, ContentionWindow(0, 1)),))


@st.composite
def table_rows(draw):
    """Rows of a small table: 1-3 rows, windows inside 0..4, e_max <= 4.

    Upper bounds never grow, and a table is just its rows, so any draw
    builds a valid ``BackoffTable``.
    """
    n_rows = draw(st.integers(1, 3))
    ends = sorted(draw(st.sets(st.integers(0, 4), min_size=n_rows, max_size=n_rows)))
    highs = sorted(draw(st.lists(st.integers(0, 4), min_size=n_rows, max_size=n_rows)),
                   reverse=True)
    rows, e_lo = [], 0
    for e_hi, hi in zip(ends, highs):
        rows.append((e_lo, e_hi, ContentionWindow(draw(st.integers(0, hi)), hi)))
        e_lo = e_hi + 1
    return tuple(rows)


def tables(*fixed: BackoffTable):
    """One of the fixed tables, or a table built from generated rows."""
    return st.one_of(st.sampled_from(fixed), table_rows().map(BackoffTable))


@st.composite
def timings(draw):
    """A scenario's timing keys: d_switch 0..2, d_frame 1..6, d_rssi 0..2
    and cts_timeout from ``max(1, d_rssi)``, the least a config accepts, to 4.
    """
    d_rssi = draw(st.integers(0, 2))
    return {"d_switch": draw(st.integers(0, 2)), "d_frame": draw(st.integers(1, 6)),
            "d_rssi": d_rssi, "cts_timeout": draw(st.integers(max(1, d_rssi), 4))}
