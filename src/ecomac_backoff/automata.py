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
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import NamedTuple

from .backoff import DEFAULT_TABLE, BackoffTable, rbc_pmf
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


class TransitionDistribution(NamedTuple):
    """Branches of one DTMC step as (probability, next state) pairs.

    Probabilities sum to 1 within 1e-12; an empty branch tuple marks a
    deadlock state.
    """

    branches: tuple[tuple[float, GlobalState], ...]


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
        if not isinstance(self.n_senders, int) or self.n_senders < 1:
            raise ConfigError(f"n_senders must be an integer >= 1, got {self.n_senders!r}")
        if not isinstance(self.nmax_msg, int) or self.nmax_msg < 0:
            raise ConfigError(f"nmax_msg must be an integer >= 0, got {self.nmax_msg!r}")
        for name in ("d_switch", "d_frame", "d_rssi", "cts_timeout"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ConfigError(f"{name} must be a non-negative integer, got {v!r}")
        if self.tcu_ticks is None:
            object.__setattr__(self, "tcu_ticks",
                               2 * self.d_switch + self.d_frame + self.d_rssi)
        if not isinstance(self.tcu_ticks, int) or self.tcu_ticks < 1:
            raise ConfigError(f"tcu_ticks must be an integer >= 1, got {self.tcu_ticks!r}")
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


_DONE_SENDER = SenderState(SenderPhase.DONE, 0, -1, 0, 0)
_IDLE_RECEIVER = ReceiverState(ReceiverPhase.W_START, -1, 0)
# the receiver right after a joint draw, listening for a request
_DRAWN_RECEIVER = ReceiverState(ReceiverPhase.W_RTS, -1, 0)

# receiver phases during which it is committed to its own transmission
_RECEIVER_COMMITTED = frozenset((
    ReceiverPhase.SWITCH_RT, ReceiverPhase.SEND_CTS, ReceiverPhase.W_END,
))


def initial_state(cfg: ScenarioConfig) -> GlobalState:
    """All senders ready to contend for their first packet, receiver idle."""
    if cfg.nmax_msg == 0:
        senders = (_DONE_SENDER,) * cfg.n_senders
    else:
        senders = (SenderState(SenderPhase.CHOOSE, 0, -1, cfg.nmax_msg, 0),) * cfg.n_senders
    return GlobalState(senders, _IDLE_RECEIVER)


_SENDER_PHASE_NAMES = {p: p.name.lower() for p in SenderPhase}
_RECEIVER_PHASE_NAMES = {p: p.name.lower() for p in ReceiverPhase}


def label(state: GlobalState) -> frozenset[str]:
    """Atomic propositions of a state (sender phases, counters, receiver phase)."""
    props = set()
    for i, sd in enumerate(state.senders):
        props.add(f"s{i}_{_SENDER_PHASE_NAMES[sd.phase]}")
        props.add(f"s{i}_e_{sd.e}")
        props.add(f"s{i}_rbc_{sd.rbc}")
        props.add(f"s{i}_msgs_{sd.msgs}")
    props.add(f"r_{_RECEIVER_PHASE_NAMES[state.receiver.phase]}")
    return frozenset(props)


class Automaton:
    """Successor-rule engine for one scenario; the single source of semantics.

    The tick rule, :meth:`_tick`, takes and returns tick projections
    (:meth:`split`), so no tick can read or write a sender's ``e`` or
    ``msgs``.  Every tick goes through it: :meth:`successor_distribution`
    joins its result to the state's context, and the DTMC builder advances
    tick states through :meth:`next_projection`.  The Monte Carlo simulator
    resolves each joint draw itself; a batch reads the rest of the round
    from :meth:`round_outcome` and crosses the round boundary with
    :meth:`settle`, and a traced run builds the drawn state with
    :meth:`drawn_state` and takes every other step from
    :meth:`successor_distribution`, the step function the builder uses.
    Neither engine re-implements any protocol rule.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        # draw branches per failure count: ((value, prob), ...) ascending
        self._draws = tuple(
            tuple(rbc_pmf(cfg.table, e).items()) for e in range(cfg.e_max + 1)
        )
        self._sender_step: dict = {}
        self._receiver_step: dict = {}
        # the canonical round table, keyed on the sorted drawn counter vector
        self._rounds: dict = {}
        # a sender's round-boundary crossing, keyed on (end phase, e, msgs)
        self._settled: dict = {}

    def initial_state(self) -> GlobalState:
        return initial_state(self.cfg)

    # -- sender micro-steps ------------------------------------------------

    def _pipeline_start(self) -> tuple[int, int]:
        # (phase, ticks) entered the instant the backoff counter hits zero
        if self.cfg.d_switch >= 1:
            return SenderPhase.SWITCH_RT, self.cfg.d_switch
        return SenderPhase.SEND_RTS, self.cfg.d_frame

    def _sender_next(self, sd: tuple, ctx: int) -> tuple:
        """One tick of a single sender's ``(phase, rbc, ticks)``.

        ctx: 0 = receiver silent, 1 = receiver transmitting a CTS to someone
        else, 2 = receiver transmitting a CTS to this sender, 3 = receiver
        latched in COLLISION (consulted only in robust mode).
        """
        cached = self._sender_step.get((sd, ctx))
        if cached is not None:
            return cached
        cfg = self.cfg
        phase, rbc, ticks = sd
        if phase == SenderPhase.COUNTDOWN:
            if ctx in (1, 2):
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
            elif ctx == 1:
                nxt = (SenderPhase.SLEEP, rbc, 0)
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
        self._sender_step[(sd, ctx)] = nxt
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

    def _reset_sender(self, sd: SenderState) -> SenderState:
        phase = sd.phase
        if phase in (SenderPhase.SUCCESS, SenderPhase.REJECT):
            msgs = sd.msgs - 1
            if msgs == 0:
                return _DONE_SENDER
            return SenderState(SenderPhase.CHOOSE, 0, -1, msgs, 0)
        if phase == SenderPhase.SLEEP:
            if sd.e == self.cfg.e_max:
                return SenderState(SenderPhase.REJECT, sd.e, -1, sd.msgs, 0)
            return SenderState(SenderPhase.CHOOSE, sd.e + 1, -1, sd.msgs, 0)
        if phase in (SenderPhase.CHOOSE, SenderPhase.DONE):
            return sd
        raise AssertionError(f"sender phase {phase} cannot cross a round boundary")

    def _boundary(self, state: GlobalState) -> GlobalState:
        return GlobalState(
            tuple(self._reset_sender(sd) for sd in state.senders), _IDLE_RECEIVER
        )

    # -- full step ----------------------------------------------------------

    def step_kind(self, state: GlobalState | tuple) -> StepKind:
        """Classify the next transition without materializing it.

        Reads only phases, so `state` may be a state or its projection.
        """
        senders, receiver = state
        if all(sd[0] == SenderPhase.DONE for sd in senders):
            return StepKind.TERMINAL

        # a frame arriving while the receiver is committed to its own
        # transmission has no defined transition
        if receiver.phase in _RECEIVER_COMMITTED and not self.cfg.robust_mode:
            if any(sd[0] == SenderPhase.SEND_RTS for sd in senders):
                return StepKind.DEADLOCK

        # the round closes once every still-active sender has an outcome
        # (success, reject, or sleep); CHOOSE appears next to REJECT during
        # the extra reset step that converts a rejected packet
        settled = (SenderPhase.SUCCESS, SenderPhase.REJECT, SenderPhase.SLEEP)
        active = [sd[0] for sd in senders if sd[0] != SenderPhase.DONE]
        if active and all(
            p in settled or p == SenderPhase.CHOOSE for p in active
        ) and any(p in settled for p in active):
            return StepKind.BOUNDARY

        if any(sd[0] == SenderPhase.CHOOSE for sd in senders):
            return StepKind.DRAW
        return StepKind.TICK

    def successor_distribution(self, state: GlobalState) -> TransitionDistribution:
        kind = self.step_kind(state)
        if kind == StepKind.TERMINAL:
            return TransitionDistribution(((1.0, state),))
        if kind == StepKind.DEADLOCK:
            return TransitionDistribution(())
        if kind == StepKind.BOUNDARY:
            return TransitionDistribution(((1.0, self._boundary(state)),))
        if kind == StepKind.DRAW:
            return self._draw_step(state)
        context, projection = self.split(state)
        return TransitionDistribution(((1.0, self.join(context, self._tick(projection))),))

    def draw_outcome(self, sd: SenderState, value: int) -> SenderState:
        """Sender state right after drawing `value` backoff units."""
        phase, rbc, ticks = self._drawn(value)
        return SenderState(phase, sd.e, rbc, sd.msgs, ticks)

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

    def round_outcome(self, draws: tuple[int, ...]) -> tuple:
        """The rest of the round opened by the joint draw `draws`.

        `draws` holds each sender's drawn counter, -1 for a done sender.
        Returns ``(end projection, ticks, idle ticks per sender,
        deadlocked)``: the projection in which the round's ticks stop (every
        active sender settled, or a deadlock), with each sender's entries in
        the order of `draws`.

        Every round opens with the receiver idle and each active sender
        fresh from its draw, and no tick reads ``e`` or ``msgs`` or tells
        senders apart.  So the outcome is a function of the drawn counters
        alone, and permuting them permutes it.  One table keyed on the
        sorted counters serves every order: a miss plays the sorted round
        once through :meth:`_play`, and a lookup maps the row back through
        the sort permutation, the receiver's ``winner`` included.
        """
        order = sorted(range(len(draws)), key=draws.__getitem__)
        key = tuple(draws[i] for i in order)
        row = self._rounds.get(key)
        if row is None:
            row = self._rounds[key] = self._play(
                (tuple(self._drawn(v) for v in key), _DRAWN_RECEIVER))
        (ends, receiver), ticks, idle, deadlocked = row
        if key == draws:
            return row
        senders, spent = [None] * len(draws), [0] * len(draws)
        for pos, i in enumerate(order):
            senders[i] = ends[pos]
            spent[i] = idle[pos]
        if receiver.winner >= 0:
            receiver = receiver._replace(winner=order[receiver.winner])
        return (tuple(senders), receiver), ticks, tuple(spent), deadlocked

    def settle(self, phase: int, e: int, msgs: int) -> tuple:
        """A sender's round-boundary crossing from end phase `phase`.

        Returns ``((e, msgs) of the next round, event)``, where the event
        is ``(e, is_reject)`` for a delivered or dropped packet and None
        otherwise; ``msgs == 0`` means the sender is done.  The crossing is
        :meth:`_reset_sender`, applied twice when it rejects the packet,
        memoized on its arguments.
        """
        key = (phase, e, msgs)
        hit = self._settled.get(key)
        if hit is not None:
            return hit
        sd = self._reset_sender(SenderState(phase, e, -1, msgs, 0))
        event = (e, False) if phase == SenderPhase.SUCCESS else None
        if sd.phase == SenderPhase.REJECT:
            event = (e, True)
            sd = self._reset_sender(sd)
        hit = self._settled[key] = ((sd.e, sd.msgs), event)
        return hit

    def _play(self, projection: tuple) -> tuple:
        """Tick `projection` until the next step is not a tick.

        Returns ``(end projection, ticks, idle ticks per sender,
        deadlocked)``.
        """
        ticks, idle = 0, [0] * len(projection[0])
        kind = self.step_kind(projection)
        while kind == StepKind.TICK:
            for i, sd in enumerate(projection[0]):
                if sd[0] == SenderPhase.COUNTDOWN:
                    idle[i] += 1
            projection = self._tick(projection)
            ticks += 1
            kind = self.step_kind(projection)
        return projection, ticks, tuple(idle), kind == StepKind.DEADLOCK

    def _draw_step(self, state: GlobalState) -> TransitionDistribution:
        # all pending draws resolve jointly in one zero-duration step
        senders = state.senders
        choosing = [i for i, sd in enumerate(senders) if sd.phase == SenderPhase.CHOOSE]
        per_sender = [
            tuple((p, self.draw_outcome(senders[i], v)) for v, p in self._draws[senders[i].e])
            for i in choosing
        ]
        branches = []
        base = list(senders)
        for combo in itertools.product(*per_sender):
            prob = 1.0
            for i, (p, nxt) in zip(choosing, combo):
                prob *= p
                base[i] = nxt
            branches.append((prob, GlobalState(tuple(base), _DRAWN_RECEIVER)))
        return TransitionDistribution(tuple(branches))

    def _tick(self, projection: tuple) -> tuple:
        """The tick rule: the projection one synchronized tick later."""
        senders, receiver = projection
        rphase = receiver.phase

        if rphase == ReceiverPhase.SEND_CTS:
            base_ctx, cts_to = 1, receiver.winner
        elif self.cfg.robust_mode and rphase == ReceiverPhase.COLLISION:
            base_ctx, cts_to = 3, -1
        else:
            base_ctx, cts_to = 0, -1

        next_senders = tuple(
            self._sender_next(sd, 2 if i == cts_to else base_ctx)
            for i, sd in enumerate(senders)
        )

        tx_next = tuple(i for i, sd in enumerate(next_senders) if sd[0] == SenderPhase.SEND_RTS)
        frame_end = tuple(
            i for i, sd in enumerate(senders)
            if sd[0] == SenderPhase.SEND_RTS and next_senders[i][0] != SenderPhase.SEND_RTS
        )
        if self.cfg.robust_mode and rphase in _RECEIVER_COMMITTED and any(
                sd[0] == SenderPhase.SEND_RTS for sd in senders):
            next_receiver = ReceiverState(ReceiverPhase.COLLISION, -1, 0)
        else:
            next_receiver = self._receiver_next(receiver, tx_next, frame_end)

        return next_senders, next_receiver
