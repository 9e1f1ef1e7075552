"""Contention windows, backoff counter distributions, and carrier-sense timing.

A sender that has failed to deliver its current packet ``e`` times draws its
random backoff counter (rbc) uniformly from the contention window assigned to
``e`` by a :class:`BackoffTable`.  The counter is decremented once per
contention unit of idle listening, so the backoff delay is ``rbc`` contention
units.  The contention unit duration itself is fixed by radio timing via
:func:`compute_tcu`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


def is_int(v) -> bool:
    """An int that is not a bool: True is no count."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class ContentionWindow:
    """Inclusive integer range [lo, hi] a backoff counter is drawn from."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (is_int(self.lo) and is_int(self.hi)):
            raise ConfigError(f"contention window bounds must be integers, "
                              f"got [{self.lo!r}, {self.hi!r}]")
        if not (0 <= self.lo <= self.hi):
            raise ConfigError(f"contention window [{self.lo}, {self.hi}] needs 0 <= lo <= hi")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def values(self) -> range:
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True)
class BackoffTable:
    """Maps the per-packet failure count e to a contention window.

    ``rows`` is a tuple of ``(e_lo, e_hi, window)`` tuples, and it is the
    whole table.  The rows must tile ``[0, e_max]`` contiguously,
    and window upper bounds must not grow as e grows: repeated failures
    tighten, never widen, the spread of backoff delays.  The failure cap
    ``e_max`` and the largest counter ``b_max`` follow from the rows.
    """

    rows: tuple[tuple[int, int, ContentionWindow], ...]

    def __post_init__(self):
        # tuples, not lists, so a table and the scenarios holding it hash
        if not isinstance(self.rows, tuple):
            raise ConfigError(f"backoff table rows must be a tuple, got {self.rows!r}")
        if not self.rows:
            raise ConfigError("backoff table needs at least one row")
        expect = 0
        prev_hi = None
        for row in self.rows:
            if not (isinstance(row, tuple) and len(row) == 3 and is_int(row[0])
                    and is_int(row[1]) and isinstance(row[2], ContentionWindow)):
                raise ConfigError(f"backoff table row {row!r} is not an "
                                  f"(int, int, ContentionWindow) tuple")
            e_lo, e_hi, win = row
            if e_lo != expect:
                raise ConfigError(f"backoff table rows must tile 0..e_max; gap or overlap at e={e_lo}")
            if e_hi < e_lo:
                raise ConfigError(f"backoff table row [{e_lo}..{e_hi}] is empty")
            if prev_hi is not None and win.hi > prev_hi:
                raise ConfigError("window upper bounds must be non-increasing in e")
            prev_hi = win.hi
            expect = e_hi + 1

    @property
    def e_max(self) -> int:
        """Failure cap: the last row's e_hi."""
        return self.rows[-1][1]

    @property
    def b_max(self) -> int:
        """Largest backoff counter: the first window's hi, as bounds never grow."""
        return self.rows[0][2].hi

    def window_for(self, e: int) -> ContentionWindow:
        """Contention window for failure count e; e must lie in [0, e_max]."""
        if not 0 <= e <= self.e_max:
            raise ConfigError(f"failure count e={e} outside [0, {self.e_max}]")
        for e_lo, e_hi, win in self.rows:
            if e_lo <= e <= e_hi:
                return win
        raise AssertionError("unreachable: rows tile the domain")


#: Default window table: windows tighten from [1,7] down to [0,3] as failures mount.
DEFAULT_TABLE = BackoffTable(
    rows=(
        (0, 1, ContentionWindow(1, 7)),
        (2, 3, ContentionWindow(0, 7)),
        (4, 6, ContentionWindow(0, 6)),
        (7, 8, ContentionWindow(0, 5)),
        (9, 10, ContentionWindow(0, 4)),
        (11, 12, ContentionWindow(0, 3)),
    ),
)


def rbc_pmf(table: BackoffTable, e: int) -> dict[int, float]:
    """Uniform pmf of the backoff counter drawn at failure count e."""
    win = table.window_for(e)
    p = 1.0 / win.width
    return {v: p for v in win.values()}


def sample_rbc(table: BackoffTable, e: int, rng) -> int:
    """Draw one backoff counter for failure count e from a numpy Generator."""
    win = table.window_for(e)
    return int(rng.integers(win.lo, win.hi + 1))


def compute_tcu(t_mxsrt_us: int, t_frmctrl_us: int, t_rssi_us: int) -> int:
    """Contention unit in microseconds: two switches + one control frame + one probe.

    The unit is sized so that a winner's RTS and the receiver's CTS onset both
    land inside a rival's current unit of idle listening.  Arguments are
    radio timings in integer microseconds: one RX/TX (or TX/RX) switch, one
    control frame on the air, and one RSSI channel probe.
    """
    timings = {"t_mxsrt_us": t_mxsrt_us, "t_frmctrl_us": t_frmctrl_us, "t_rssi_us": t_rssi_us}
    for name, v in timings.items():
        if not is_int(v) or v < 0:
            raise ConfigError(f"{name} must be a non-negative integer, got {v!r}")
    return 2 * t_mxsrt_us + t_frmctrl_us + t_rssi_us
