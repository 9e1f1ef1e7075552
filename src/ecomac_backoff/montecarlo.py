"""Monte Carlo simulation of the contention model.

Runs are driven by the same automaton as the exact engine.  The only
randomness is the per-sender backoff draw, sampled in ascending sender order
with one generator call each.  A run carries only each sender's round
context ``(e, msgs)``, with ``msgs == 0`` for a done sender.

:func:`simulate` runs a batch in lockstep, one round per pass over every
live run, and a pass is a fixed handful of numpy calls.  A pass draws,
groups, answers and crosses.  It draws every run's counters in one gather
from the runs' streams, each sender's window read in one gather from
per-e tables with a last row for done senders.  One helper,
:func:`_answer_draws`, answers the draws: it sorts each run's draws,
groups the sorted draw vectors into distinct ones (:func:`_distinct_rows`,
by a radix sort when their codes fit 16 bits), answers them all in one
call of the automaton's shift and fold, :meth:`Automaton._shift_fold`,
which :meth:`Automaton.round_outcomes` reads too, and gathers end phases,
ticks, idle ticks and deadlock flags back to the senders.  The pass then
crosses the boundary in one gather from a table that settles each (end
phase, e, msgs) key with :meth:`Automaton.settle` the first time a pass
meets it (:meth:`Automaton.crossings`).  A pass writes
no per-run counter: it buffers the arrays it holds, and the buffer is
folded into the batch's per-run arrays once per flush, of `_LANES`
lane-rounds, and at the end of the batch.
The automaton shifts each vector down to its smallest active draw d1 and
folds it at the parking horizon h onto a canonical key, in numpy, and
rebuilds each row from its canonical row, adding d1 units of ticks and of
each active sender's idle ticks.  Python runs only for a key no batch has
met: the automaton's round table plays it one tick at a time and reads
once whether its last sender, a canonical key's representative, is parked
or latched in a collision; h is bisected through the same table.  A
zero-based key whose canonical row does neither is played in full, once
(see :meth:`Automaton.round_outcomes`).  Both tables live on the
automaton, and calls share one per equal :class:`ScenarioConfig`, for the
last `_AUTOMATA` configs: a repeat batch fills neither table again.

A traced run (:func:`run_once`) replays the same draws through the exact
engine's step function, :meth:`Automaton.successor_distribution`,
recording every :class:`GlobalState` it enters.  It reads neither table,
so comparing it with a batch checks both against the exact model.

Each run gets its own counter-based stream keyed by (seed, run index), so
any subset of runs can be reproduced independently and results do not
depend on scheduling.  :func:`run_rng` defines a run's stream.  Philox is
counter-based (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC 2011), so a batch computes the next blocks of every
run's stream in one array pass, finds where each word a row needs lies
from the row's position, and turns words into counters with the rule
``Generator.integers`` uses (Lemire, "Fast random integer generation in an
interval", ACM TOMACS 2019).  :func:`_philox` takes each round's two
128-bit products as one, and :class:`_Streams` sizes fills and refills: a
small batch fills whole rows of blocks at once, so its first fill is its
only Philox call unless a run outruns its row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .automata import (
    Automaton,
    GlobalState,
    ScenarioConfig,
    SenderPhase,
    StepKind,
)
from .backoff import sample_rbc
from .errors import ConfigError, check_finite


#: configs whose automata calls share, the least recently used dropped first
_AUTOMATA = 16


@functools.lru_cache(maxsize=_AUTOMATA)
def _automaton(cfg: ScenarioConfig) -> Automaton:
    """The automaton that every call on a config equal to `cfg` shares."""
    return Automaton(cfg)


@dataclass
class RunStats:
    """Outcome counters of one simulated run."""

    successes: np.ndarray   # (n_senders, e_max+1) deliveries by failure count
    rejects: np.ndarray     # (n_senders,) packets dropped at the failure cap
    idle_ticks: np.ndarray  # (n_senders,) ticks spent listening in countdown
    ticks: int              # elapsed model ticks (draws and resets take none)
    rounds: int             # contention rounds entered
    deadlocked: bool


def run_once(cfg: ScenarioConfig, rng: np.random.Generator,
             trace: list[GlobalState]) -> RunStats:
    """Replay one run step by step, appending every state it enters to `trace`.

    The run walks the exact engine's step function.  A draw step makes the
    generator calls of a batch run (ascending sender order, one
    :func:`sample_rbc` call per sender with packets left) and builds the
    drawn state with :meth:`Automaton.drawn_state`; a tick or boundary step
    takes the single branch of :meth:`Automaton.successor_distribution`,
    through its body ``Automaton._step`` with the step kind the loop has
    already read, so each state is classified once.  So
    ``run_once(cfg, run_rng(seed, r), trace)`` returns run `r` of
    ``simulate(cfg, n_runs, seed)``.
    """
    auto = _automaton(cfg)
    n = cfg.n_senders
    successes = np.zeros((n, cfg.e_max + 1), dtype=np.int64)
    rejects = np.zeros(n, dtype=np.int64)
    idle = [0] * n
    ticks = rounds = 0
    state = auto.initial_state()
    trace.append(state)
    kind = auto.step_kind(state)
    while kind not in (StepKind.TERMINAL, StepKind.DEADLOCK):
        if kind == StepKind.DRAW:
            rounds += 1
            state = auto.drawn_state(state, tuple([
                sample_rbc(cfg.table, sd.e, rng) if sd.msgs else -1 for sd in state.senders]))
        else:
            if kind == StepKind.TICK:
                ticks += 1
                for i, sd in enumerate(state.senders):
                    if sd.phase == SenderPhase.COUNTDOWN:
                        idle[i] += 1
            else:
                # a boundary step collects the senders' outcome phases
                for i, sd in enumerate(state.senders):
                    if sd.phase == SenderPhase.SUCCESS:
                        successes[i, sd.e] += 1
                    elif sd.phase == SenderPhase.REJECT:
                        rejects[i] += 1
            ((_, state),) = auto._step(state, kind)
        trace.append(state)
        kind = auto.step_kind(state)
    deadlocked = kind == StepKind.DEADLOCK
    if deadlocked:
        # a deadlock stops the round before its boundary: only the
        # deliveries it completed count
        for i, sd in enumerate(state.senders):
            if sd.phase == SenderPhase.SUCCESS:
                successes[i, sd.e] += 1
    return RunStats(successes, rejects, np.array(idle, dtype=np.int64), ticks, rounds,
                    deadlocked)


def run_rng(seed: int, run_index: int) -> np.random.Generator:
    """Counter-based stream of one run; reproducible in isolation.

    The key is built as uint64: from a list, numpy would round seeds at or
    above 2**63 through float64.
    """
    key = np.array([seed, run_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


#: runs simulated side by side; bounds a batch's working arrays
_LANES = 1 << 14

_M32 = np.uint64(0xFFFFFFFF)
# Philox4x64-10's round multipliers and key increments, as columns against
# the state's rows (c2, c0) and the key's rows (k1, k0)
_PHILOX_M = np.array([[0xCA5A826395121157], [0xD2E7470EE14C6C93]], dtype=np.uint64)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _M32, _PHILOX_M >> np.uint64(32)
_PHILOX_W = np.array([[0xBB67AE8584CAA73B], [0x9E3779B97F4A7C15]], dtype=np.uint64)


def _philox(seed: int, runs: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 blocks under the keys ``(seed, runs)`` at the counters
    ``(counters, 0, 0, 0)``: one row of four 64-bit outputs per entry.

    A round multiplies c0 by M0 and c2 by M1 into 128-bit products.  Here
    both products are one: the state's words c2 and c0 are the rows of one
    ``(2, N)`` array, multiplied by the column (M1, M0) in 32-bit halves
    (Warren, "Hacker's Delight", mulhu), and c3 and c1 are the rows of
    another.  The next (c2, c0) is the high products, rows swapped, xor
    (c3, c1) and the round key (k1, k0); the next (c3, c1) is the low
    products, rows swapped.  Every temporary lives in a buffer made once
    per call.
    """
    n = counters.size
    key = np.empty((2, n), dtype=np.uint64)
    key[0], key[1] = runs, seed
    a = np.zeros((2, n), dtype=np.uint64)  # (c2, c0)
    a[1] = counters
    b = np.zeros((2, n), dtype=np.uint64)  # (c3, c1)
    lo, hi, t, w = np.empty((4, 2, n), dtype=np.uint64)
    for rnd in range(10):
        if rnd:
            key += _PHILOX_W
        # lo and hi hold the state's low and high halves until the products
        np.bitwise_and(a, _M32, out=lo)
        np.right_shift(a, 32, out=hi)
        np.multiply(lo, _PHILOX_M_LO, out=t)
        t >>= 32
        np.multiply(hi, _PHILOX_M_LO, out=w)
        t += w  # below 2**64: (2**32 - 1)**2 + 2**32 - 1
        np.multiply(lo, _PHILOX_M_HI, out=w)
        np.multiply(a, _PHILOX_M, out=lo)
        np.bitwise_and(t, _M32, out=a)
        w += a
        t >>= 32
        w >>= 32
        hi *= _PHILOX_M_HI
        hi += t
        hi += w
        np.bitwise_xor(hi[::-1], b, out=a)
        a ^= key
        b, lo = lo[::-1], b[::-1]
    return np.stack((a[1], b[1], a[0], b[0]), axis=1)


#: a batch whose first fill computes fewer blocks than this is small, and
#: its refills fill rows that hold this many blocks in all; a Philox call
#: of this many blocks costs about twice one of a single block
_FILL_BLOCKS = 1 << 10


class _Streams:
    """The 32-bit words that ``run_rng(seed, r)`` feeds ``Generator.integers``,
    for many runs at once.

    Word k of run r is half ``k % 2`` (the low half first) of output
    ``k // 2 % 4`` of the Philox4x64-10 block at counter ``(k // 8 + 1, 0,
    0, 0)`` under the key ``(seed, r)``: numpy's Philox advances its counter
    before it computes a block, and a 32-bit draw takes a 64-bit output's
    low half and keeps the high half for the next one.

    A lane holds consecutive blocks from block ``block`` on, up to word
    ``end``, and its next word is ``pos``.  The first draw, of rows of k
    columns, fills every lane with a row of blocks in one Philox call.  A
    row is ``ceil(4k / 8)`` blocks, about four rows of words, unless the
    lanes' rows come to fewer than `_FILL_BLOCKS` blocks in all.  Then the
    batch is small, and a row is ``ceil(_FILL_BLOCKS / lanes)`` blocks.  A
    lane that runs out is refilled with a row of blocks from the block of
    its next word on.  Only the lanes that ran out are refilled, except in
    a small batch, where a lane that runs out takes every lane drawing
    with it.  So a small batch fills whole rows at once, makes few Philox
    calls, and none computes more than ``2 * _FILL_BLOCKS`` blocks.
    A refill is one array pass, and `calls` and `blocks` count the Philox
    calls and the blocks computed.  A draw takes every row's words in one
    gather, as a word's place is known from the lane's next word and the
    row's columns.
    """

    def __init__(self, seed: int, runs: np.ndarray):
        self.seed = seed
        self.runs = runs.astype(np.uint64)
        self.pos = np.zeros(len(runs), dtype=np.int64)    # next word
        self.block = np.zeros(len(runs), dtype=np.int64)  # first block held
        self.end = np.zeros(len(runs), dtype=np.int64)    # first word not held
        self.words = np.zeros((len(runs), 0), dtype=np.uint64)
        self.small = False
        self.calls = self.blocks = 0

    def _fill(self, lanes: np.ndarray, block: np.ndarray, blocks: int) -> None:
        """Give each lane its `blocks` blocks from block `block` on."""
        counters = (block[:, None] + np.arange(1, blocks + 1)).ravel().astype(np.uint64)
        out = _philox(self.seed, np.repeat(self.runs[lanes], blocks), counters)
        # a block's words: each output's low half, then its high half
        self.words[lanes, :8 * blocks] = out.astype("<u8", copy=False).view("<u4").reshape(
            len(lanes), -1)
        self.block[lanes] = block
        self.end[lanes] = (block + blocks) * 8
        self.calls += 1
        self.blocks += counters.size

    def _hold(self, lanes: np.ndarray, count: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
        """Make each lane hold its next `count` words where a row can: a lane
        that does not is refilled from its next word's block on.  Returns
        each lane's next word and whether the lane holds those words."""
        pos = self.pos[lanes]
        held = pos + count <= self.end[lanes]
        if not held.all():
            refill = np.ones_like(held) if self.small else ~held
            self._fill(lanes[refill], pos[refill] >> 3, self.words.shape[1] // 8)
            held = pos + count <= self.end[lanes]
        return pos, held

    def _next_words(self, lanes: np.ndarray) -> np.ndarray:
        pos, _ = self._hold(lanes, 1)
        self.pos[lanes] = pos + 1
        return self.words[lanes, pos - self.block[lanes] * 8]

    def integers(self, lanes: np.ndarray, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
        """``Generator.integers(lo, lo + width)`` for every entry of the
        ``(len(lanes), k)`` arrays `lo` and `width`, with widths from 1 to
        2**32: row i is drawn in the stream of lane ``lanes[i]``, one column
        after another.  The lanes must be distinct.

        numpy draws such a value from 32-bit words by Lemire's rule: a word
        x gives ``lo + (x * width >> 32)``, unless ``x * width mod 2**32``
        is below ``2**32 mod width``, in which case it takes the next word.
        A window of width 1 takes no word.  So a row's j-th wide column
        takes the row's j-th word unless an earlier word is redrawn: every
        row's words come in one gather, and only a row whose lane does not
        hold all its words, or that redraws, is drawn again one column
        after another.
        """
        out = lo.astype(np.int64)
        width = width.astype(np.uint64)
        wide = width > 1
        k = width.shape[1]
        rank = np.cumsum(wide, axis=1)  # the wide columns up to each column
        count = rank[:, -1]
        if not self.words.shape[1]:
            # the first draw: every lane's first fill, of a whole row, the
            # size of the rows its refills fill
            blocks, n = -(-4 * k // 8), len(self.runs)
            self.small = n * blocks < _FILL_BLOCKS
            rows = -(-_FILL_BLOCKS // n) if self.small else blocks
            self.words = np.zeros((n, 8 * rows), dtype=np.uint64)
            self._fill(np.arange(n), np.zeros(n, dtype=np.int64), rows)
        pos, fast = self._hold(lanes, count)
        # each row's first word in the flat words
        first = pos - self.block[lanes] * 8 + lanes * self.words.shape[1]
        # a width-1 column may read any word: (x * 1) >> 32 is 0, and its
        # bound 2**32 mod 1 never redraws; "clip" keeps a slow row's reads
        # inside the words
        m = np.take(self.words, rank - 1 + first[:, None], mode="clip") * width
        out += (m >> 32).astype(np.int64)
        self.pos[lanes] = pos + count
        # 2**32 mod width is below width, so only a low half below width
        # can be redrawn
        low = m & _M32
        short = low < width
        if short.any():
            at, col = np.nonzero(short)
            fast[at[low[at, col] < np.uint64(2**32) % width[at, col]]] = False
        slow = np.flatnonzero(~fast)
        if slow.size:
            out[slow] = lo[slow]
            self.pos[lanes[slow]] = pos[slow]
            threshold = np.uint64(2**32) % width
            for j in range(k):
                todo = slow[wide[slow, j]]
                while todo.size:
                    m = self._next_words(lanes[todo]) * width[todo, j]
                    ok = (m & _M32) >= threshold[todo, j]
                    out[todo[ok], j] += (m[ok] >> 32).astype(np.int64)
                    todo = todo[~ok]
        return out


def _distinct_rows(rows: np.ndarray, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `rows`, whose entries lie in ``[-1, radix - 2]``,
    and the index of each row among them.

    Rows are grouped on a mixed-radix code, the first column most
    significant, which one ``np.ravel_multi_index`` call extends by as many
    columns as keep it inside int64.  Between those calls the code is
    replaced by its rank among the distinct codes so far, so it never
    wraps.  The distinct codes are read off one stable sort of the codes,
    as ``np.unique`` reads them, but without its per-call overhead; codes
    whose span fits 16 bits are sorted as uint16, which numpy's stable sort
    orders by radix sort.
    """
    top = np.iinfo(np.int64).max
    columns = (rows + 1).T
    code, span = columns[0], radix  # codes lie in [0, span)
    j = 1
    while j < len(columns):
        if span > top // radix:
            _, code = np.unique(code, return_inverse=True)
            span = int(code.max()) + 1
        dims = [span]
        while j + len(dims) <= len(columns) and span * radix <= top:
            dims.append(radix)
            span *= radix
        code = np.ravel_multi_index((code, *columns[j:j + len(dims) - 1]), dims)
        j += len(dims) - 1
    if span <= 1 << 16:
        code = code.astype(np.uint16)
    order = code.argsort(kind="stable")
    sort = code[order]
    # where each run of equal codes starts in the sorted codes
    starts = np.empty(len(sort), dtype=bool)
    starts[:1] = True
    np.not_equal(sort[1:], sort[:-1], out=starts[1:])
    inverse = np.empty(len(sort), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return rows[order[starts]], inverse


def _answer_draws(auto: Automaton, draws: np.ndarray) -> tuple[np.ndarray, ...]:
    """The round that each row of `draws`, one run's counters in sender
    order with -1 for a done sender, opens on `auto`.

    Returns ``(ends, idle, ticks, deadlocked)``: each sender's end phase
    and idle ticks, and each row's ticks and deadlock flag.  The round
    table is keyed on sorted draws: a stable sort keeps tied senders in
    index order, the distinct sorted rows (:func:`_distinct_rows`) are
    shifted and folded in one :meth:`Automaton._shift_fold` call, and each
    sender takes its entry through the inverse of its row's sort.  Only the
    end phases are gathered from the table's ends: the receiver, and the
    counters of parked senders, are :meth:`Automaton.round_outcomes`'s.
    """
    k, n = draws.shape
    run = np.arange(k)[:, None]
    order = np.argsort(draws, axis=1, kind="stable")
    rows, inverse = _distinct_rows(draws[run, order], auto.cfg.b_max + 2)
    slots, at, _, idle, ticks, rest = auto._shift_fold(rows)
    # each sender's place in its sorted row, the inverse of the sort, gives
    # it its entry in its run's distinct row; on thousands of lanes one
    # scatter of the places costs half a second argsort
    place = np.empty_like(order)
    place[run, order] = np.arange(n)
    answer = inverse[:, None] * n + place
    ends = auto._ends[slots[:, None], at, 0]
    return ends.take(answer), idle.take(answer), ticks[inverse], rest[inverse, 4].astype(bool)


class _Tally:
    """A batch's per-run counters, buffered pass by pass and folded into its
    result arrays.

    A pass hands :meth:`played` its runs, each round's ticks, and each
    sender's idle ticks, end phase and failure count e, and :meth:`crossed`
    the runs that crossed the boundary and each sender's crossing event.
    The buffer keeps the arrays as they come, the end phases and events
    as flags of a delivery and of a drop, and `held` counts the
    lane-rounds it holds, never more than `_LANES`: a pass that would take
    it past folds the buffer first.  :meth:`fold` adds the buffer to the
    result arrays by exact int64 scatter-adds on flat indices, and empties
    it.
    """

    def __init__(self, successes: np.ndarray, rejects: np.ndarray, idle: np.ndarray,
                 ticks: np.ndarray, rounds: np.ndarray):
        self.successes, self.rejects, self.idle = successes, rejects, idle
        self.ticks, self.rounds = ticks, rounds
        self.held = 0
        self._played: list[tuple[np.ndarray, ...]] = []
        self._crossed: list[tuple[np.ndarray, np.ndarray]] = []

    def played(self, run: np.ndarray, ticks: np.ndarray, idle: np.ndarray,
               ends: np.ndarray, e: np.ndarray) -> None:
        if self.held + run.size > _LANES:
            self.fold()
        # numpy compares with a plain int about three times as fast as with
        # the enum
        self._played.append((run, ticks, idle, ends == int(SenderPhase.SUCCESS), e))
        self.held += run.size

    def crossed(self, run: np.ndarray, event: np.ndarray) -> None:
        # a dropped packet's event is 3
        self._crossed.append((run, event == 3))

    def fold(self) -> None:
        if self._played:
            run, ticks, idle, won, e = map(np.concatenate, zip(*self._played))
            np.add.at(self.rounds, run, 1)
            np.add.at(self.ticks, run, ticks)
            # each sender's flat index in the (n_runs, n) arrays
            at = run[:, None] * idle.shape[1] + np.arange(idle.shape[1])
            np.add.at(self.idle.reshape(-1), at, idle)
            np.add.at(self.successes.reshape(-1), (at * self.successes.shape[2] + e)[won], 1)
        if self._crossed:
            run, dropped = map(np.concatenate, zip(*self._crossed))
            # drops are few
            at, who = np.nonzero(dropped)
            np.add.at(self.rejects.reshape(-1), run[at] * dropped.shape[1] + who, 1)
        self.held = 0
        self._played.clear()
        self._crossed.clear()


@dataclass(eq=False)
class Aggregate:
    """Per-run outcome arrays of a simulation batch, in run-index order."""

    cfg: ScenarioConfig
    seed: int
    n_runs: int
    successes: np.ndarray   # (n_runs, n_senders, e_max+1)
    rejects: np.ndarray     # (n_runs, n_senders)
    idle_ticks: np.ndarray  # (n_runs, n_senders)
    ticks: np.ndarray       # (n_runs,)
    rounds: np.ndarray      # (n_runs,)
    deadlocked: np.ndarray  # (n_runs,) bool

    @property
    def n_deadlocked(self) -> int:
        return int(self.deadlocked.sum())

    def idle_seconds(self, sender: int) -> np.ndarray:
        """Idle listening seconds of `sender`, per run.

        Raises ConfigError when `seconds_per_tick` takes one past the float
        range.
        """
        with np.errstate(over="ignore"):
            seconds = self.idle_ticks[:, sender] * self.cfg.seconds_per_tick
        check_finite("idle time", "seconds_per_tick", float(seconds.max(initial=0.0)))
        return seconds


def mean_ci95(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and 95% normal confidence half-width (ddof=1)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise ConfigError("confidence intervals need at least two runs")
    half = 1.96 * samples.std(ddof=1) / np.sqrt(samples.size)
    return float(samples.mean()), float(half)


def simulate(cfg: ScenarioConfig, n_runs: int, seed: int) -> Aggregate:
    """Run `n_runs` independent simulations and collect their statistics.

    Runs go in lockstep, `_LANES` at a time, one round per pass, and a pass
    draws, groups, answers and crosses: every live run draws its round in
    one gather, each sender's window read from per-e tables whose last row
    serves done senders, and the pass answers through one helper,
    :func:`_answer_draws`.  It groups the runs' sorted draw vectors into
    distinct ones (by a radix sort when their codes fit 16 bits), answers
    those in one call of the automaton's shift and fold, and gives each
    sender its answer through the inverse of its run's sort.  A small
    batch's streams fill whole rows of Philox blocks at once
    (:class:`_Streams`).  Every sender then
    crosses the boundary in one gather from a dense table of
    :meth:`Automaton.settle` over (end phase, e, msgs)
    (:meth:`Automaton.crossings`), which settles each distinct key the
    first time a pass meets it.  A run leaves the pass when every sender is
    done or its round deadlocks.  The per-run counters are folded in once
    per flush: a pass buffers its runs' round results (:class:`_Tally`), and
    the buffer is added to the result arrays before it would hold more than
    `_LANES` lane-rounds, and at the end of the batch; only the deadlock
    flags are written per pass.  Both tables persist on the automaton that
    calls on an equal config share, for the last `_AUTOMATA` configs used,
    so a repeat call fills neither.  At DEBUG it logs, for this call alone,
    the streams' Philox calls and the blocks they computed, the round
    table's counts (rows played, the horizon's probes among them, and their
    ticks, the keys played in full, and the distinct sorted draw vectors of
    all passes answered from a parked representative, folded, and from one
    latched in a collision, latched), and the crossing keys settled.
    """
    if n_runs < 2:
        raise ConfigError("n_runs must be >= 2")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    auto = _automaton(cfg)
    before = dict(auto.round_counts)
    n = cfg.n_senders
    try:
        successes = np.zeros((n_runs, n, cfg.e_max + 1), dtype=np.int64)
    except ValueError:
        # numpy refuses a size past its index range before it tries to
        # allocate: a request too large to allocate all the same
        raise MemoryError(f"{n_runs} runs of {n} senders exceed the largest array") from None
    rejects = np.zeros((n_runs, n), dtype=np.int64)
    idle = np.zeros((n_runs, n), dtype=np.int64)
    ticks = np.zeros(n_runs, dtype=np.int64)
    rounds = np.zeros(n_runs, dtype=np.int64)
    deadlocked = np.zeros(n_runs, dtype=bool)
    # each e's window, and last a done sender's: the value -1 from a width-1
    # window, which takes no word
    windows = [cfg.table.window_for(e) for e in range(cfg.e_max + 1)]
    lo = np.array([w.lo for w in windows] + [-1], dtype=np.int64)
    width = np.array([w.width for w in windows] + [1], dtype=np.int64)
    start = np.array(auto.split(auto.initial_state())[0], dtype=np.int64)
    philox_calls = philox_blocks = 0
    tally = _Tally(successes, rejects, idle, ticks, rounds)
    for first in range(0, n_runs, _LANES):
        runs = np.arange(first, min(first + _LANES, n_runs))
        streams = _Streams(seed, runs)
        lane = np.arange(len(runs) if start[:, 1].any() else 0)
        e, msgs = np.tile(start[:, 0], (lane.size, 1)), np.tile(start[:, 1], (lane.size, 1))
        while lane.size:
            run = runs[lane]
            # a done sender's e is 0 (Automaton._reset), so it reads the
            # last window
            at = e - (msgs == 0)
            ends, row_idle, row_ticks, stuck = _answer_draws(
                auto, streams.integers(lane, lo.take(at), width.take(at)))
            # a deadlock stops the round before its boundary, and the
            # deliveries it completed count all the same
            tally.played(run, row_ticks, row_idle, ends, e)
            if stuck.any():
                deadlocked[run[stuck]] = True
                going = ~stuck
                lane, run, e, msgs, ends = lane[going], run[going], e[going], msgs[going], ends[going]
            cross = auto.crossings(ends, e, msgs)
            tally.crossed(run, cross[..., 2])
            e, msgs = cross[..., 0], cross[..., 1]
            going = msgs.any(axis=1)
            lane, e, msgs = lane[going], e[going], msgs[going]
        philox_calls += streams.calls
        philox_blocks += streams.blocks
    tally.fold()
    # imported here: logging is about a tenth of the package's cold import
    import logging
    counts = {k: v - before[k] for k, v in auto.round_counts.items()}
    logging.getLogger(__name__).debug(
        "simulate: %d runs, %d rounds, %d Philox calls, %d Philox blocks, %d rows played, "
        "%d plain ticks, %d played in full, %d rows folded, %d rows latched, "
        "%d crossing keys settled", n_runs, rounds.sum(), philox_calls, philox_blocks,
        counts["rows"], counts["ticks"], counts["full"], counts["folded"],
        counts["latched"], counts["settled"])
    return Aggregate(cfg, seed, n_runs, successes, rejects, idle, ticks, rounds, deadlocked)
