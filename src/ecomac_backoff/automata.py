"""Tick-level product automaton of N contending senders and one receiver.

One global state describes the system during one model tick, with two
zero-duration bookkeeping exceptions: the joint backoff draw that opens a
contention round and the round-boundary reset that closes it.  All
probabilistic branching happens in the draw step; every other state has at
most one successor, and a state with no successor at all is a deadlock.

Sender life cycle within a round::

    CHOOSE --draw--> COUNTDOWN --rbc=0--> SWITCH_RT -> SEND_RTS -> SWITCH_TR
        -> WAIT_CTS -> RECV_CTS -> SUCCESS          (CTS arrived)
                    -> SLEEP                        (timeout / receiver busy)

A countdown sender listens to the medium and decrements its backoff counter
after ``tcu_ticks`` consecutive idle ticks.  Senders are hidden from each
other: only the receiver's CTS transmission is observable, never a rival's
RTS.  A sender that hears the receiver transmit aborts to SLEEP keeping its
counter; the abort takes precedence over a decrement falling on the same
tick.  At the round boundary sleepers re-enter CHOOSE with e+1, and a sleeper
already at e_max rejects the packet instead (observable REJECT state, then
e resets to 0 for the next packet).

The receiver reacts to frame starts and ends within the same tick (the joint
update feeds it the senders' next phases), so a clean RTS is answered with a
CTS whose onset falls exactly 2*d_switch + d_frame ticks after the winner's
counter expired.  Two overlapping RTS latch the receiver in COLLISION for the
rest of the round and it never answers.  A sender that starts transmitting
while the receiver is itself committed to transmit (switching to or sending a
CTS, or draining W_END) has no defined transition: that global state is a
deadlock unless ``robust_mode`` adds a collision-absorbing fallback.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .backoff import DEFAULT_TABLE, BackoffTable, is_int, rbc_pmf
from .errors import ConfigError


class SenderPhase(IntEnum):
    CHOOSE = 0
    COUNTDOWN = 1
    SWITCH_RT = 2
    SEND_RTS = 3
    SWITCH_TR = 4
    WAIT_CTS = 5
    RECV_CTS = 6
    SLEEP = 7
    SUCCESS = 8
    REJECT = 9
    DONE = 10


class ReceiverPhase(IntEnum):
    W_START = 0
    W_RTS = 1
    RECEIVING = 2
    COLLISION = 3
    SWITCH_RT = 4
    SEND_CTS = 5
    W_END = 6


class StepKind(IntEnum):
    """What the next transition of a state is: one terminal self-loop, a
    deadlock (no transition at all), a zero-duration round-boundary reset,
    a zero-duration joint backoff draw, or a synchronized one-tick step."""
    TERMINAL = 0
    DEADLOCK = 1
    BOUNDARY = 2
    DRAW = 3
    TICK = 4


class SenderState(NamedTuple):
    phase: int
    e: int          # failures of the current packet, 0..e_max
    rbc: int        # backoff counter, -1 = not drawn
    msgs: int       # packets still to deliver (including the current one)
    ticks: int      # phase progress: idle ticks into the current contention
                    # unit for COUNTDOWN, remaining ticks otherwise


class ReceiverState(NamedTuple):
    phase: int
    winner: int     # sender being received / answered, -1 = none
    ticks: int      # remaining ticks of SWITCH_RT / SEND_CTS


class GlobalState(NamedTuple):
    senders: tuple[SenderState, ...]
    receiver: ReceiverState


@dataclass(frozen=True)
class ScenarioConfig:
    """Model parameters for one contention scenario.

    tcu_ticks defaults to 2*d_switch + d_frame + d_rssi: the contention unit
    covers two radio switches, one control frame, and one RSSI probe.  An
    explicit value is taken as given, so a contention-unit sizing study can
    set a shorter unit and expose the deadlocks it opens.  The derived value
    is stored in the field; ``dataclasses.replace`` of a timing keeps it
    unless ``tcu_ticks=None`` is passed along.
    """

    n_senders: int = 2
    nmax_msg: int = 1
    table: BackoffTable = DEFAULT_TABLE
    tcu_ticks: int | None = None
    d_switch: int = 1
    d_frame: int = 5
    d_rssi: int = 1
    cts_timeout: int = 3
    seconds_per_tick: float = 0.001714
    idle_power_mw: float = 13.5
    robust_mode: bool = False

    def __post_init__(self):
        if not is_int(self.n_senders) or self.n_senders < 1:
            raise ConfigError(f"n_senders must be an integer >= 1, got {self.n_senders!r}")
        if not is_int(self.nmax_msg) or self.nmax_msg < 0:
            raise ConfigError(f"nmax_msg must be an integer >= 0, got {self.nmax_msg!r}")
        for name in ("d_switch", "d_frame", "d_rssi", "cts_timeout"):
            v = getattr(self, name)
            if not is_int(v) or v < 0:
                raise ConfigError(f"{name} must be a non-negative integer, got {v!r}")
        if self.tcu_ticks is None:
            object.__setattr__(self, "tcu_ticks",
                               2 * self.d_switch + self.d_frame + self.d_rssi)
        if not is_int(self.tcu_ticks) or self.tcu_ticks < 1:
            raise ConfigError(f"tcu_ticks must be an integer >= 1, got {self.tcu_ticks!r}")
        if not isinstance(self.robust_mode, bool):
            raise ConfigError(f"robust_mode must be True or False, got {self.robust_mode!r}")
        if not isinstance(self.table, BackoffTable):
            raise ConfigError(f"table must be a BackoffTable, got {self.table!r}")
        for name in ("seconds_per_tick", "idle_power_mw"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Real) or isinstance(v, bool):
                raise ConfigError(f"{name} must be a number, got {v!r}")
        if self.d_frame < 1:
            raise ConfigError("d_frame must be >= 1")
        if self.cts_timeout < max(1, self.d_rssi):
            raise ConfigError("cts_timeout must be >= max(1, d_rssi)")
        if not (math.isfinite(self.seconds_per_tick) and self.seconds_per_tick > 0):
            raise ConfigError(f"seconds_per_tick must be finite and > 0, "
                              f"got {self.seconds_per_tick!r}")
        if not (math.isfinite(self.idle_power_mw) and self.idle_power_mw >= 0):
            raise ConfigError(f"idle_power_mw must be finite and >= 0, "
                              f"got {self.idle_power_mw!r}")

    @property
    def e_max(self) -> int:
        return self.table.e_max

    @property
    def b_max(self) -> int:
        return self.table.b_max

    def with_tcu(self, tcu_ticks: int) -> "ScenarioConfig":
        """Same scenario with a different contention unit."""
        return replace(self, tcu_ticks=tcu_ticks)


# the largest count or timing a scenario may hold for either engine: the
# exact engine stores each per state as int16, and the simulator plays the
# same rounds tick by tick and tabulates crossings over (e, msgs).  The keys
# a user sets come before the unit derived from them, so an overflow names
# the key that was set
_COUNT_MAX = 2**15 - 1
_COUNT_BOUNDS = ("n_senders", "nmax_msg", "d_switch", "d_frame", "cts_timeout",
                 "e_max", "b_max", "tcu_ticks")

_DONE_SENDER = SenderState(SenderPhase.DONE, 0, -1, 0, 0)
_IDLE_RECEIVER = ReceiverState(ReceiverPhase.W_START, -1, 0)
# the receiver right after a joint draw, listening for a request
_DRAWN_RECEIVER = ReceiverState(ReceiverPhase.W_RTS, -1, 0)

# receiver phases during which it is committed to its own transmission
_RECEIVER_COMMITTED = frozenset((
    ReceiverPhase.SWITCH_RT, ReceiverPhase.SEND_CTS, ReceiverPhase.W_END,
))

# the phase the tick rule tests each sender for, as a plain int
SEND_RTS = int(SenderPhase.SEND_RTS)


def initial_state(cfg: ScenarioConfig) -> GlobalState:
    """All senders ready to contend for their first packet, receiver idle."""
    if cfg.nmax_msg == 0:
        senders = (_DONE_SENDER,) * cfg.n_senders
    else:
        senders = (SenderState(SenderPhase.CHOOSE, 0, -1, cfg.nmax_msg, 0),) * cfg.n_senders
    return GlobalState(senders, _IDLE_RECEIVER)


_SENDER_PHASE_NAMES = {p: p.name.lower() for p in SenderPhase}
_RECEIVER_PHASE_NAMES = {p: p.name.lower() for p in ReceiverPhase}


def sender_labels(i: int, phase: int, e: int, rbc: int, msgs: int) -> tuple[str, ...]:
    """The four atomic propositions of sender `i`, sorted."""
    return tuple(sorted((f"s{i}_{_SENDER_PHASE_NAMES[phase]}", f"s{i}_e_{e}",
                         f"s{i}_rbc_{rbc}", f"s{i}_msgs_{msgs}")))


def receiver_label(phase: int) -> str:
    """The atomic proposition of the receiver's phase."""
    return f"r_{_RECEIVER_PHASE_NAMES[phase]}"


def label_order(n_senders: int) -> list[int]:
    """Sender indices in the order their labels sort, after the receiver's.

    Every label starts with its owner's prefix, ``r_`` or ``s<i>_``, and no
    prefix is a prefix of another, so two labels of different owners
    compare as their prefixes do: ``r_`` first, then ``s0_``, ``s10_``,
    ``s11_``, ..., ``s1_``, ``s2_``.  The receiver's label followed by each
    sender's sorted labels in this order is the sorted label set.
    """
    return sorted(range(n_senders), key=lambda i: f"s{i}_")


def label(state: GlobalState) -> frozenset[str]:
    """Atomic propositions of a state (sender phases, counters, receiver phase)."""
    props = {receiver_label(state.receiver.phase)}
    for i, sd in enumerate(state.senders):
        props.update(sender_labels(i, sd.phase, sd.e, sd.rbc, sd.msgs))
    return frozenset(props)


def label_text(state: GlobalState) -> str:
    """The labels of a state, sorted as strings and joined by commas."""
    parts = [receiver_label(state.receiver.phase)]
    for i in label_order(len(state.senders)):
        sd = state.senders[i]
        parts.extend(sender_labels(i, sd.phase, sd.e, sd.rbc, sd.msgs))
    return ",".join(parts)


class Automaton:
    """Successor-rule engine for one scenario; the single source of semantics.

    Every step rule takes a state as ``(context, projection)``
    (:meth:`split`): the tick rule, :meth:`_tick`, maps projections, so no
    tick can read or write a sender's ``e`` or ``msgs``; a draw
    (:meth:`draw_branches`) keeps the context; and :meth:`boundary` applies
    the boundary rule, :meth:`_reset`, to each sender.  The DTMC builder
    steps these pairs, and :meth:`successor_distribution` joins them into
    whole states.  The Monte Carlo simulator resolves each joint draw
    itself.  A batch draws a round for all its live runs at once, reads the
    rest of the round for all of a pass's distinct sorted draw vectors in
    one :meth:`_shift_fold` call, the core of :meth:`round_outcomes`, and
    crosses the round boundary through :meth:`crossings`, a table filled
    from :meth:`settle`; both tables live as long as the automaton.
    :meth:`_shift_fold` shifts and folds the vectors onto canonical keys
    in numpy, and the round table
    plays each key it has not met (:meth:`_fill`) by :meth:`_play`, one
    :meth:`_tick` at a time.  The table is the one place a round is played:
    the parking horizon's probes are table rows too.  A traced run builds
    the drawn state with :meth:`drawn_state` and takes every other step
    from :meth:`successor_distribution`.  Neither engine re-implements any
    protocol rule.
    """

    def __init__(self, cfg: ScenarioConfig):
        for name in _COUNT_BOUNDS:
            v = getattr(cfg, name)
            if v > _COUNT_MAX:
                unit = ("; unless set, it is 2*d_switch + d_frame + d_rssi"
                        if name == "tcu_ticks" else "")
                raise ConfigError(f"{name}={v} exceeds {_COUNT_MAX}, the largest value the "
                                  f"engines take (the exact engine stores it per state as "
                                  f"a 16-bit integer){unit}")
        self.cfg = cfg
        # draw branches per failure count: ((value, prob), ...) ascending;
        # the counts of one table row share its tuple
        self._draws = tuple(
            pmf for e_lo, e_hi, _ in cfg.table.rows
            for pmf in (tuple(rbc_pmf(cfg.table, e_lo).items()),) * (e_hi - e_lo + 1)
        )
        self._sender_step: dict = {}
        self._receiver_step: dict = {}
        # step kinds, keyed on (sender phases, receiver phase)
        self._kinds: dict = {}
        # the fold's parking horizon, read at the first round_outcomes call
        self._horizon: int | None = None
        # the round table: one row per key played (see _fill), as each
        # sender's end (phase, rbc, ticks), each sender's idle ticks, and
        # the rest: the end receiver's three fields, ticks, deadlocked,
        # parked, latched and the latched hold tick.  Beside it, each key's
        # row, keyed on the key's int64 bytes
        self._ends = np.zeros((0, cfg.n_senders, 3), dtype=np.int64)
        self._idle = np.zeros((0, cfg.n_senders), dtype=np.int64)
        self._rest = np.zeros((0, 8), dtype=np.int64)
        self._ids: dict = {}
        self._crossing: np.ndarray | None = None  # made by crossings
        # its rows played and their ticks, the keys played in full, the rows
        # answered from a representative that parked (folded) or latched in
        # a collision (latched), and the crossing keys settled
        self.round_counts = dict.fromkeys(
            ("rows", "ticks", "full", "folded", "latched", "settled"), 0)

    def initial_state(self) -> GlobalState:
        return initial_state(self.cfg)

    # -- sender micro-steps ------------------------------------------------

    def _pipeline_start(self) -> tuple[int, int]:
        # (phase, ticks) entered the instant the backoff counter hits zero
        if self.cfg.d_switch >= 1:
            return SenderPhase.SWITCH_RT, self.cfg.d_switch
        return SenderPhase.SEND_RTS, self.cfg.d_frame

    def _sender_rule(self, sd: tuple, ctx: int) -> tuple:
        """One tick of a single sender's ``(phase, rbc, ticks)``.

        ctx: 0 = receiver silent, 1 = receiver transmitting a CTS to someone
        else, 2 = receiver transmitting a CTS to this sender, 3 = receiver
        latched in COLLISION (consulted only in robust mode).  No reachable
        state sends a CTS to a sender in COUNTDOWN or past one in WAIT_CTS.
        """
        cfg = self.cfg
        phase, rbc, ticks = sd
        if phase == SenderPhase.COUNTDOWN:
            if ctx == 1:
                nxt = (SenderPhase.SLEEP, rbc, 0)
            elif ticks + 1 == cfg.tcu_ticks:
                if rbc == 1:
                    ph, tk = self._pipeline_start()
                    nxt = (ph, 0, tk)
                else:
                    nxt = (SenderPhase.COUNTDOWN, rbc - 1, 0)
            else:
                nxt = (SenderPhase.COUNTDOWN, rbc, ticks + 1)
        elif phase == SenderPhase.SWITCH_RT:
            if ticks > 1:
                nxt = (phase, rbc, ticks - 1)
            else:
                nxt = (SenderPhase.SEND_RTS, rbc, cfg.d_frame)
        elif phase == SenderPhase.SEND_RTS:
            if ticks > 1:
                nxt = (phase, rbc, ticks - 1)
            elif cfg.d_switch >= 1:
                nxt = (SenderPhase.SWITCH_TR, rbc, cfg.d_switch)
            else:
                nxt = (SenderPhase.WAIT_CTS, rbc, cfg.cts_timeout)
        elif phase == SenderPhase.SWITCH_TR:
            if ticks > 1:
                nxt = (phase, rbc, ticks - 1)
            else:
                nxt = (SenderPhase.WAIT_CTS, rbc, cfg.cts_timeout)
        elif phase == SenderPhase.WAIT_CTS:
            if ctx == 2:
                nxt = (SenderPhase.RECV_CTS, rbc, cfg.d_frame)
            elif ticks > 1:
                nxt = (phase, rbc, ticks - 1)
            else:
                nxt = (SenderPhase.SLEEP, rbc, 0)
        elif phase == SenderPhase.RECV_CTS:
            if ctx == 3:
                nxt = (SenderPhase.SLEEP, rbc, 0)
            elif ticks > 1:
                nxt = (phase, rbc, ticks - 1)
            else:
                nxt = (SenderPhase.SUCCESS, rbc, 0)
        elif phase in (SenderPhase.SLEEP, SenderPhase.SUCCESS,
                       SenderPhase.REJECT, SenderPhase.DONE):
            # outcome phases hold until the round boundary collects them
            nxt = sd
        else:
            raise AssertionError(f"sender phase {phase} has no tick rule")
        return nxt

    # -- receiver micro-step -----------------------------------------------

    def _receiver_next(self, rc: ReceiverState, tx_next: tuple[int, ...],
                       frame_end: tuple[int, ...]) -> ReceiverState:
        """One tick of the receiver, fed the senders' simultaneous activity.

        tx_next: senders transmitting during the next tick; frame_end:
        senders whose RTS completes with the current tick.
        """
        key = (rc, tx_next, frame_end)
        cached = self._receiver_step.get(key)
        if cached is not None:
            return cached
        cfg = self.cfg
        phase, winner, ticks = rc
        if phase == ReceiverPhase.W_RTS:
            if len(frame_end) >= 2:
                nxt = ReceiverState(ReceiverPhase.COLLISION, -1, 0)
            elif len(frame_end) == 1:
                nxt = self._answer(frame_end[0])
            elif len(tx_next) >= 2:
                nxt = ReceiverState(ReceiverPhase.COLLISION, -1, 0)
            elif len(tx_next) == 1:
                nxt = ReceiverState(ReceiverPhase.RECEIVING, tx_next[0], 0)
            else:
                nxt = rc
        elif phase == ReceiverPhase.RECEIVING:
            if winner in tx_next:
                nxt = rc if len(tx_next) == 1 else ReceiverState(ReceiverPhase.COLLISION, -1, 0)
            else:
                # the received frame just completed; commit to answering it
                nxt = self._answer(winner)
        elif phase == ReceiverPhase.COLLISION:
            nxt = rc
        elif phase == ReceiverPhase.SWITCH_RT:
            if ticks > 1:
                nxt = ReceiverState(phase, winner, ticks - 1)
            else:
                nxt = ReceiverState(ReceiverPhase.SEND_CTS, winner, cfg.d_frame)
        elif phase == ReceiverPhase.SEND_CTS:
            if ticks > 1:
                nxt = ReceiverState(phase, winner, ticks - 1)
            else:
                nxt = ReceiverState(ReceiverPhase.W_END, winner, 0)
        elif phase == ReceiverPhase.W_END:
            nxt = rc
        else:
            raise AssertionError(f"receiver phase {phase} has no tick rule")
        self._receiver_step[key] = nxt
        return nxt

    def _answer(self, winner: int) -> ReceiverState:
        if self.cfg.d_switch >= 1:
            return ReceiverState(ReceiverPhase.SWITCH_RT, winner, self.cfg.d_switch)
        return ReceiverState(ReceiverPhase.SEND_CTS, winner, self.cfg.d_frame)

    # -- round boundary ----------------------------------------------------

    def _reset(self, phase: int, e: int, msgs: int) -> tuple[int, int, int]:
        """The boundary rule: a sender's ``(phase, e, msgs)`` after one reset;
        a rejected packet takes a second."""
        if phase in (SenderPhase.SUCCESS, SenderPhase.REJECT):
            if msgs == 1:
                return SenderPhase.DONE, 0, 0
            return SenderPhase.CHOOSE, 0, msgs - 1
        if phase == SenderPhase.SLEEP:
            if e == self.cfg.e_max:
                return SenderPhase.REJECT, e, msgs
            return SenderPhase.CHOOSE, e + 1, msgs
        if phase in (SenderPhase.CHOOSE, SenderPhase.DONE):
            return phase, e, msgs
        raise AssertionError(f"sender phase {phase} cannot cross a round boundary")

    def boundary(self, context: tuple, projection: tuple) -> tuple[tuple, tuple]:
        """The boundary state ``(context, projection)`` after its reset: each
        sender through :meth:`_reset`, undrawn, and the receiver idle."""
        reset = [self._reset(sd[0], e, msgs)
                 for (e, msgs), sd in zip(context, projection[0])]
        return (tuple((e, msgs) for _, e, msgs in reset),
                (tuple((phase, -1, 0) for phase, _, _ in reset), _IDLE_RECEIVER))

    # -- full step ----------------------------------------------------------

    def step_kind(self, state: GlobalState | tuple) -> StepKind:
        """Classify the next transition without materializing it.

        Reads only phases, so `state` may be a state or its projection; the
        kind is memoized on the sender phases and the receiver phase.
        """
        senders, receiver = state
        key = (tuple([sd[0] for sd in senders]), receiver[0])
        kind = self._kinds.get(key)
        if kind is None:
            kind = self._kinds[key] = self._classify(*key)
        return kind

    def _classify(self, phases: tuple[int, ...], receiver_phase: int) -> StepKind:
        """The step kind of a state with these sender phases and receiver phase."""
        if all(p == SenderPhase.DONE for p in phases):
            return StepKind.TERMINAL

        # a frame arriving while the receiver is committed to its own
        # transmission has no defined transition
        if receiver_phase in _RECEIVER_COMMITTED and not self.cfg.robust_mode:
            if SenderPhase.SEND_RTS in phases:
                return StepKind.DEADLOCK

        # the round closes once every still-active sender has an outcome
        # (success, reject, or sleep); CHOOSE appears next to REJECT during
        # the extra reset step that converts a rejected packet
        settled = (SenderPhase.SUCCESS, SenderPhase.REJECT, SenderPhase.SLEEP)
        active = [p for p in phases if p != SenderPhase.DONE]
        if active and all(
            p in settled or p == SenderPhase.CHOOSE for p in active
        ) and any(p in settled for p in active):
            return StepKind.BOUNDARY

        if SenderPhase.CHOOSE in phases:
            return StepKind.DRAW
        return StepKind.TICK

    def successor_distribution(self, state: GlobalState) -> tuple[tuple[float, GlobalState], ...]:
        """Branches of one DTMC step as (probability, next state) pairs.

        Probabilities sum to 1 within 1e-12; an empty branch tuple marks a
        deadlock state.
        """
        return self._step(state, self.step_kind(state))

    def _step(self, state: GlobalState, kind: StepKind) -> tuple[tuple[float, GlobalState], ...]:
        """The successor distribution of `state`, whose step kind is `kind`."""
        if kind == StepKind.TERMINAL:
            return ((1.0, state),)
        if kind == StepKind.DEADLOCK:
            return ()
        context, projection = self.split(state)
        if kind == StepKind.BOUNDARY:
            branches = ((1.0, self.boundary(context, projection)),)
        elif kind == StepKind.DRAW:
            branches = ((p, (context, drawn))
                        for p, drawn in self.draw_branches(context, projection))
        else:
            branches = ((1.0, (context, self._tick(projection))),)
        return tuple((p, self.join(*nxt)) for p, nxt in branches)

    def _drawn(self, value: int) -> tuple:
        # (phase, rbc, ticks) right after drawing `value`; -1 is a done sender
        if value < 0:
            return _DONE_SENDER.phase, _DONE_SENDER.rbc, _DONE_SENDER.ticks
        if value == 0:
            ph, tk = self._pipeline_start()
            return ph, 0, tk
        return SenderPhase.COUNTDOWN, value, 0

    def drawn_state(self, state: GlobalState, draws: tuple[int, ...]) -> GlobalState:
        """Global state after the joint draw of the draw state `state`, in
        which each sender drew its counter in `draws`, -1 for a done sender."""
        context, _ = self.split(state)
        return self.join(context, (tuple(self._drawn(v) for v in draws), _DRAWN_RECEIVER))

    # -- round context and tick projection -----------------------------------

    @staticmethod
    def split(state: GlobalState) -> tuple[tuple, tuple]:
        """A state as ``(context, projection)``.

        The context is each sender's ``(e, msgs)``; the projection is each
        sender's ``(phase, rbc, ticks)`` plus the receiver.  No tick rule
        reads or writes a sender's ``e`` or ``msgs``, so a context holds
        for a whole round and a tick moves only the projection: the tick
        successor of a state is its context joined to :meth:`_tick` of its
        projection.
        """
        context = tuple((sd.e, sd.msgs) for sd in state.senders)
        senders = tuple((sd.phase, sd.rbc, sd.ticks) for sd in state.senders)
        return context, (senders, state.receiver)

    @staticmethod
    def join(context: tuple, projection: tuple) -> GlobalState:
        """The state that :meth:`split` takes to ``(context, projection)``."""
        senders, receiver = projection
        return GlobalState(tuple(
            SenderState(phase, e, rbc, msgs, ticks)
            for (e, msgs), (phase, rbc, ticks) in zip(context, senders)
        ), receiver)

    def next_projection(self, projection: tuple) -> tuple | None:
        """Projection of the tick successor; None when the next step is not
        a tick (terminal, deadlock, boundary or draw)."""
        if self.step_kind(projection) != StepKind.TICK:
            return None
        return self._tick(projection)

    def round_outcomes(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """The rest of the round opened by each sorted draw vector in the
        int64 array `rows` (-1 for a done sender), as arrays.

        Returns ``(ends, receiver, ticks, idle, deadlocked)`` with shapes
        ``(k, n, 3)``, ``(k, 3)``, ``(k,)``, ``(k, n)`` and ``(k,)``: the
        projection in which the round's ticks stop (every active sender
        settled, or a deadlock), as each sender's ``(phase, rbc, ticks)``
        in the order of its row and the receiver, whose ``winner`` is a
        position in the row; the ticks; each sender's idle ticks; and the
        deadlock flag.

        Every round opens with the receiver idle and each active sender
        fresh from its draw, and no tick reads ``e`` or ``msgs`` or tells
        senders apart.  So the outcome is a function of the drawn counters
        alone, and permuting them permutes it: one table keyed on the
        sorted counters serves every order, and a caller maps a row back
        through its own sort.  Each row is answered from the table row of
        its canonical key, in numpy; the table plays a key (:meth:`_fill`)
        only the first time it is asked for it.  The shift and fold below
        are :meth:`_shift_fold`, which the simulator's passes read without
        the end receiver and counters.

        Shifted: for the first d1 units, where d1 is a row's smallest active
        draw, every active sender only counts down and the receiver hears
        nothing; then each sender stands where a draw d1 lower starts it.
        So a row is answered by its zero-based key, each active draw less
        d1: the same end projection and deadlock flag, and d1 units more
        ticks, each an idle tick of every active sender.

        Folded: a sender still in COUNTDOWN feeds neither the receiver nor
        the other senders, and a larger draw stays in COUNTDOWN at least as
        long.  So the senders of a zero-based key at or above the parking
        horizon h (:meth:`_parking_horizon`) step alike while the one that
        drew least of them, the representative, counts down.  The
        canonical key keeps every draw below h and the representative at
        h, and marks the other capped senders done; a key with at most one
        sender at h and none above it is its own canonical key.  The
        canonical row answers the zero-based key in two cases, which
        :meth:`_fill` reads off every key it plays about the key's last
        sender, a canonical key's representative:

        - parked: the representative passes the parking check, ending in
          SLEEP with ``rbc >= 1``, which only a CTS heard in COUNTDOWN
          gives.  Each capped sender is parked at the same tick with the
          same idle ticks, and its counter is higher by its draw minus h.
        - latched: the receiver entered COLLISION while the representative
          still counted down.  The receiver then stays in COLLISION for the
          rest of the round, which so cannot deadlock, and each sender
          steps alone under the latched receiver's context.  A capped
          sender that drew v counts down v - h units more than the
          representative and then walks the representative's lone path, so
          it ends where the representative ends, with v - h units more
          idle ticks, and holds v - h units later.  The tick at which the
          representative holds comes from walking :meth:`_sender_rule`
          from its latched state.

        Either way the row equals what :meth:`_play` gives for the key,
        and both checks read the played canonical round, so the fold is
        exact at any horizon h >= 1; h only sets how often it applies.  A
        zero-based key whose canonical row does neither is played in full.
        ``round_counts`` adds the keys so played ("full"), and the rows of
        `rows` answered from a parked representative ("folded") and from a
        latched one ("latched").
        """
        slots, at, above, idle, ticks, rest = self._shift_fold(rows)
        ends = self._ends[slots[:, None], at]
        # each capped sender's draw above h: a parked one's counter is that
        # much higher
        ends[..., 1] += above * rest[:, 5:6]
        # a folded row's senders below h sit its lag, at[:, 0], places later
        # in its canonical row, and so does the winner
        receiver = rest[:, :3]
        receiver[:, 1] -= np.where(receiver[:, 1] >= 0, at[:, 0], 0)
        return ends, receiver, ticks, idle, rest[:, 4].astype(bool)

    def _shift_fold(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """The shift and fold of :meth:`round_outcomes`, stated once.

        Returns ``(slots, at, above, idle, ticks, rest)`` for the sorted
        draw vectors `rows`: each row's table slot, each sender's place in
        its slot's row, each capped sender's draw above h in a folded row
        (0 elsewhere), each sender's idle ticks, each row's ticks, and the
        slot's rest.  A sender's end is the slot row's entry at its place,
        with a parked sender's counter higher by its draw above h; the
        deadlock flag is ``rest[:, 4]``.  :meth:`round_outcomes` builds its
        full answer from these, and a caller that reads only the end phases
        gathers those alone.
        """
        tcu, top = self.cfg.tcu_ticks, self.cfg.b_max + 1
        # no draw reaches the cap when no key folds
        h = self._parking_horizon() or top
        active = rows >= 0
        # a row with no active sender, whose smallest draw reads top, has d1 0
        d1 = np.minimum.reduce(rows, axis=1, where=active, initial=top) % top
        zero = np.where(active, rows - d1[:, None], -1)
        capped = zero >= h
        m = capped.sum(axis=1)
        fold = (m >= 2) | (zero[:, -1] > h)
        # the capped senders become done, and the last comes back at h; a
        # row that does not fold stays as it is
        canon = np.where(capped, -1, zero)
        canon[:, -1] = np.minimum(zero[:, -1], h)
        canon.sort(axis=1)
        slots = self._slots(canon)
        rest = self._rest[slots]
        # a canonical row whose representative neither parked nor latched
        # answers no other key: those are played in full
        full = fold & (rest[:, 5] + rest[:, 6] == 0)
        if full.any():
            played = len(self._rest)
            slots[full] = self._slots(zero[full])
            self.round_counts["full"] += len(self._rest) - played
            rest = self._rest[slots]
            fold &= ~full
        parked, latched = (fold @ rest[:, 5:7]).tolist()
        self.round_counts["folded"] += parked
        self.round_counts["latched"] += latched
        # a folded row's senders below h sit m - 1 places later in its
        # canonical row, and each capped sender starts as the
        # representative, the canonical row's last sender
        n = rows.shape[1]
        at = np.minimum(np.arange(n) + np.where(fold, m - 1, 0)[:, None], n - 1)
        idle = self._idle[slots[:, None], at]
        # each capped sender's draw above h: a latched one spends that many
        # units more idle and holds that many units later.  A row that does
        # not fold has none, and its own last sender, if latched, holds
        # within its ticks
        above = np.where(capped & fold[:, None], zero - h, 0)
        lead = d1 * tcu
        latched = rest[:, 6] * tcu
        idle += above * latched[:, None] + lead[:, None] * active
        ticks = np.maximum(rest[:, 3], rest[:, 7] + above[:, -1] * latched) + lead
        return slots, at, above, idle, ticks, rest

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """The table row of each zero-based sorted key in `keys`, filling
        the keys not met before; a key is looked up by its bytes."""
        ids = self._ids
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        codes = keys.view(f"V{keys.itemsize * keys.shape[1]}").ravel().tolist()
        slots = [ids.get(code, -1) for code in codes]
        if -1 in slots:
            fresh = dict.fromkeys(code for code, slot in zip(codes, slots) if slot < 0)
            ends, idle, rest = zip(*[self._fill(np.frombuffer(code, dtype=np.int64).tolist())
                                     for code in fresh])
            ids.update(zip(fresh, range(len(self._rest), len(self._rest) + len(rest))))
            self._ends = np.concatenate((self._ends, np.array(ends, dtype=np.int64)))
            self._idle = np.concatenate((self._idle, np.array(idle, dtype=np.int64)))
            self._rest = np.concatenate((self._rest, np.array(rest, dtype=np.int64)))
            slots = [ids[code] for code in codes]
        return np.array(slots, dtype=np.intp)

    def _fill(self, key: list[int]) -> tuple:
        """The table row of the zero-based sorted key `key`, played by
        :meth:`_play`: each sender's end ``(phase, rbc, ticks)``, each
        sender's idle ticks, and the rest of the row.

        The rest holds the end receiver, the ticks and the deadlock flag,
        then the checks of :meth:`round_outcomes` on the key's last sender:
        1 if it parked, 1 if it latched, and the tick at which a latched
        one holds.  No check reads the horizon: :meth:`round_outcomes`
        reads them only for a folded row's canonical key, whose last sender
        is its representative.
        """
        latch: list = []
        (senders, receiver), ticks, idle, deadlocked = self._play(
            (tuple(self._drawn(v) for v in key), _DRAWN_RECEIVER), latch)
        self.round_counts["rows"] += 1
        self.round_counts["ticks"] += ticks
        parked = latched = held = 0
        # SLEEP keeps the counter it was entered with, and only a sender in
        # COUNTDOWN holds one above 0: a request's pipeline starts at 0
        if senders[-1][0] == SenderPhase.SLEEP and senders[-1][1] >= 1:
            parked = 1
        elif latch and (sd := latch[0][0][0][-1])[0] == SenderPhase.COUNTDOWN:
            latched = 1
            (_, at), held = latch[0]
            ctx = self._contexts(at)[0]
            while (nxt := self._sender_rule(sd, ctx)) != sd:
                sd, held = nxt, held + 1
        return senders, idle, (*receiver, ticks, deadlocked, parked, latched, held)

    def _parking_horizon(self) -> int:
        """The fold's horizon h, read from the table's own rounds.

        h is the smallest rival draw c such that in the round of draws
        ``(0, c)``, every other sender done, the winner's CTS parks the
        rival; 0, no fold, when no c up to ``b_max`` does, and with one
        sender, which has no rival.  A larger c stays in COUNTDOWN at least
        as long, so parking is monotone in c and a bisection finds h.  A tie
        collides, so c = 0 never parks.  Each probe looks up the round's
        table row (:meth:`_slots`) and reads its parked flag.
        """
        if self._horizon is None:
            n = self.cfg.n_senders
            lo, hi = 0, self.cfg.b_max + 1
            while n > 1 and hi - lo > 1:
                mid = (lo + hi) // 2
                [slot] = self._slots(np.array([(-1,) * (n - 2) + (0, mid)]))
                if self._rest[slot, 5]:
                    hi = mid
                else:
                    lo = mid
            self._horizon = hi if hi <= self.cfg.b_max else 0
        return self._horizon

    def settle(self, phase: int, e: int, msgs: int) -> tuple:
        """A sender's round-boundary crossing from end phase `phase`.

        Returns ``((e, msgs) of the next round, event)``, where the event
        is ``(e, is_reject)`` for a delivered or dropped packet and None
        otherwise; ``msgs == 0`` means the sender is done.  The crossing is
        :meth:`_reset`, applied twice when it rejects the packet.
        """
        phase_next, e_next, msgs_next = self._reset(phase, e, msgs)
        event = (e, False) if phase == SenderPhase.SUCCESS else None
        if phase_next == SenderPhase.REJECT:
            event = (e, True)
            _, e_next, msgs_next = self._reset(phase_next, e_next, msgs_next)
        return (e_next, msgs_next), event

    def crossings(self, ends: np.ndarray, e: np.ndarray, msgs: np.ndarray) -> np.ndarray:
        """:meth:`settle` of each sender's end phase, `e` and `msgs` in
        int64 arrays of one shape, as rows of (next e, next msgs, event),
        the event 1 for none, 2 for a delivery and 3 for a drop, taken from
        a dense table over (end phase, e, msgs) at each key's flat code.
        The keys that read event 0 are settled, once each, and taken again;
        ``round_counts`` adds them ("settled")."""
        shape = (len(SenderPhase), self.cfg.e_max + 1, self.cfg.nmax_msg + 1)
        if self._crossing is None:
            self._crossing = np.zeros((math.prod(shape), 3), dtype=np.int64)
        key = (ends * shape[1] + e) * shape[2] + msgs
        cross = self._crossing.take(key, axis=0)
        if not cross[..., 2].all():
            fresh = np.unique(key[cross[..., 2] == 0])
            self.round_counts["settled"] += fresh.size
            for code, *was in zip(fresh.tolist(), *(
                    k.tolist() for k in np.unravel_index(fresh, shape))):
                (e_next, msgs_next), event = self.settle(*was)
                self._crossing[code] = e_next, msgs_next, 1 if event is None else 2 + event[1]
            cross = self._crossing.take(key, axis=0)
        return cross

    def _play(self, projection: tuple, latch: list | None = None) -> tuple:
        """Tick `projection` through :meth:`_tick` until the next step is not
        a tick.

        Returns ``(end projection, ticks, idle ticks per sender,
        deadlocked)``.  :meth:`_fill` plays only zero-based keys, whose
        rounds are short.  When the receiver enters COLLISION, the
        projection and ticks at that tick are appended to `latch`, if
        given.
        """
        ticks, idle = 0, [0] * len(projection[0])
        while (kind := self.step_kind(projection)) == StepKind.TICK:
            for i, sd in enumerate(projection[0]):
                if sd[0] == SenderPhase.COUNTDOWN:
                    idle[i] += 1
            projection = self._tick(projection)
            ticks += 1
            if (latch is not None and not latch
                    and projection[1].phase == ReceiverPhase.COLLISION):
                latch.append((projection, ticks))
        return projection, ticks, tuple(idle), kind == StepKind.DEADLOCK

    def draw_count(self, context: tuple, projection: tuple) -> int:
        """The number of branches :meth:`draw_branches` yields: the product
        of the choosing senders' draw sizes.  Each branch draws a different
        value vector, so each is a distinct drawn projection."""
        return math.prod(len(self._draws[context[i][0]])
                         for i, sd in enumerate(projection[0]) if sd[0] == SenderPhase.CHOOSE)

    def draw_branches(self, context: tuple, projection: tuple) -> Iterator[tuple[float, tuple]]:
        """The draw state ``(context, projection)``'s branches as (probability,
        drawn projection), one at a time, in :meth:`successor_distribution`'s
        order; the context stays.

        All pending draws resolve jointly in one zero-duration step, so a
        row has up to 7**n branches; a caller can stop before the last.
        """
        senders = projection[0]
        choosing = [i for i, sd in enumerate(senders) if sd[0] == SenderPhase.CHOOSE]
        per_sender = [
            tuple((p, self._drawn(v)) for v, p in self._draws[context[i][0]])
            for i in choosing
        ]
        base = list(senders)
        for combo in itertools.product(*per_sender):
            prob = 1.0
            for i, (p, nxt) in zip(choosing, combo):
                prob *= p
                base[i] = nxt
            yield prob, (tuple(base), _DRAWN_RECEIVER)

    def _contexts(self, receiver: ReceiverState) -> tuple[int, int]:
        """The tick contexts the receiver sets its senders, as ``(context,
        cts_to)``: every sender hears `context` (see :meth:`_sender_rule`)
        except sender `cts_to`, the one a CTS is sent to, which hears 2;
        -1 when there is none."""
        if receiver.phase == ReceiverPhase.SEND_CTS:
            return 1, receiver.winner
        if self.cfg.robust_mode and receiver.phase == ReceiverPhase.COLLISION:
            return 3, -1
        return 0, -1

    def _tick(self, projection: tuple) -> tuple:
        """The tick rule: the projection one synchronized tick later.

        One pass over the senders takes each one's next ``(phase, rbc,
        ticks)`` from :meth:`_sender_rule`, cached on ``(sender, context)``,
        and collects what the receiver is fed: the senders transmitting in
        the next tick and those whose request ends with this one.
        """
        senders, receiver = projection
        base_ctx, cts_to = self._contexts(receiver)
        step = self._sender_step
        next_senders, tx_next, frame_end = [], [], []
        for i, sd in enumerate(senders):
            key = (sd, 2 if i == cts_to else base_ctx)
            nxt = step.get(key)
            if nxt is None:
                nxt = step[key] = self._sender_rule(*key)
            next_senders.append(nxt)
            if nxt[0] == SEND_RTS:
                tx_next.append(i)
            elif sd[0] == SEND_RTS:
                frame_end.append(i)
        if self.cfg.robust_mode and receiver.phase in _RECEIVER_COMMITTED and any(
                sd[0] == SEND_RTS for sd in senders):
            next_receiver = ReceiverState(ReceiverPhase.COLLISION, -1, 0)
        else:
            next_receiver = self._receiver_next(receiver, tuple(tx_next), tuple(frame_end))
        return tuple(next_senders), next_receiver
