"""Tick-level semantics of the synchronized sender/receiver product."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecomac_backoff import (
    DEFAULT_TABLE,
    Automaton,
    BackoffTable,
    ContentionWindow,
    ReceiverPhase,
    ReceiverState,
    ScenarioConfig,
    SenderPhase,
    SenderState,
    StepKind,
    initial_state,
    label,
)
from ecomac_backoff.errors import ConfigError


def step1(auto, state):
    branches = auto.successor_distribution(state).branches
    assert len(branches) == 1, state
    return branches[0][1]


def walk_until(auto, state, pred, limit=20_000):
    for _ in range(limit):
        if pred(state):
            return state
        state = step1(auto, state)
    raise AssertionError("predicate never became true")


def branch_with_draws(auto, state, draws):
    for p, t in auto.successor_distribution(state).branches:
        if tuple(sd.rbc for sd in t.senders) == draws:
            return t
    raise AssertionError(f"no branch with draws {draws}")


# -- configuration validation -----------------------------------------------------


def test_contention_unit_defaults_to_the_timing_identity():
    # 2*d_switch + d_frame + d_rssi, evaluated on the timings given
    assert ScenarioConfig().tcu_ticks == 8
    assert ScenarioConfig(d_frame=6).tcu_ticks == 9
    assert ScenarioConfig(d_switch=0, d_frame=2, d_rssi=0).tcu_ticks == 2
    assert ScenarioConfig(tcu_ticks=8) == ScenarioConfig()


def test_explicit_contention_unit_is_taken_as_given():
    assert ScenarioConfig(tcu_ticks=9).tcu_ticks == 9
    cfg = ScenarioConfig().with_tcu(3)
    assert cfg == ScenarioConfig(tcu_ticks=3)
    assert cfg.d_frame == 5


@pytest.mark.parametrize("kwargs", [
    {"n_senders": 0},
    {"nmax_msg": -1},
    {"d_frame": 0, "tcu_ticks": 3},
    {"cts_timeout": 0},
    {"seconds_per_tick": 0.0},
    {"idle_power_mw": -1.0},
    {"tcu_ticks": 0},
])
def test_scenario_validation(kwargs):
    with pytest.raises(ConfigError):
        ScenarioConfig(**kwargs)


def test_no_packets_means_immediately_terminal():
    cfg = ScenarioConfig(n_senders=2, nmax_msg=0)
    auto = Automaton(cfg)
    init = auto.initial_state()
    assert all(sd.phase == SenderPhase.DONE for sd in init.senders)
    assert auto.successor_distribution(init).branches == ((1.0, init),)


# -- draw step ---------------------------------------------------------------------


def test_joint_draw_has_49_uniform_branches():
    auto = Automaton(ScenarioConfig())
    branches = auto.successor_distribution(auto.initial_state()).branches
    assert len(branches) == 49
    assert all(abs(p - 1 / 49) < 1e-15 for p, _ in branches)
    seen = {tuple(sd.rbc for sd in t.senders) for _, t in branches}
    assert seen == {(a, b) for a in range(1, 8) for b in range(1, 8)}
    for _, t in branches:
        assert t.receiver.phase == ReceiverPhase.W_RTS
        for sd in t.senders:
            assert sd.phase == SenderPhase.COUNTDOWN and sd.ticks == 0


def collide_once(auto, state):
    """Force a tie, then walk to the next joint draw."""
    draw = tuple(auto.cfg.table.window_for(sd.e).hi for sd in state.senders)
    s = branch_with_draws(auto, state, draw)
    return walk_until(auto, s, lambda st: all(
        sd.phase == SenderPhase.CHOOSE for sd in st.senders))


def test_draw_probabilities_follow_the_window_widths():
    # two failures widen both windows to [0, 7]
    auto = Automaton(ScenarioConfig())
    s = collide_once(auto, auto.initial_state())
    assert all(sd.e == 1 for sd in s.senders)
    s = collide_once(auto, s)
    assert all(sd.e == 2 for sd in s.senders)
    branches = auto.successor_distribution(s).branches
    assert len(branches) == 64
    assert all(abs(p - 1 / 64) < 1e-15 for p, _ in branches)


def test_zero_draw_skips_the_countdown():
    # a zero draw first becomes possible at two failures
    auto = Automaton(ScenarioConfig())
    s = collide_once(auto, auto.initial_state())
    s = collide_once(auto, s)
    zero = [t for _, t in auto.successor_distribution(s).branches
            if t.senders[0].rbc == 0]
    assert zero and zero[0].senders[0].phase == SenderPhase.SWITCH_RT


# -- lone sender timeline ----------------------------------------------------------


@pytest.mark.parametrize("draw", [1, 4, 7])
def test_lone_sender_listens_one_unit_per_backoff_step(draw):
    cfg = ScenarioConfig(n_senders=1, nmax_msg=1)
    auto = Automaton(cfg)
    s = branch_with_draws(auto, auto.initial_state(), (draw,))
    idle = 0
    while not all(sd.phase == SenderPhase.DONE for sd in s.senders):
        if s.senders[0].phase == SenderPhase.COUNTDOWN:
            idle += 1
        s = step1(auto, s)
    assert idle == cfg.tcu_ticks * draw


def test_lone_sender_succeeds_and_keeps_its_failure_count():
    auto = Automaton(ScenarioConfig(n_senders=1, nmax_msg=1))
    s = branch_with_draws(auto, auto.initial_state(), (2,))
    s = walk_until(auto, s, lambda st: st.senders[0].phase == SenderPhase.SUCCESS)
    assert s.senders[0].e == 0 and s.senders[0].msgs == 1
    done = step1(auto, s)
    assert done.senders[0].phase == SenderPhase.DONE
    assert step1(auto, done) == done


# -- two-sender timelines ----------------------------------------------------------


def test_smaller_draw_wins_and_loser_keeps_the_difference():
    cfg = ScenarioConfig()
    auto = Automaton(cfg)
    for a, b in [(1, 3), (2, 7), (1, 7)]:
        s = branch_with_draws(auto, auto.initial_state(), (a, b))
        s = walk_until(auto, s, lambda st: st.senders[1].phase == SenderPhase.SLEEP)
        assert s.senders[1].rbc == b - a
        s = walk_until(auto, s, lambda st: st.senders[0].phase == SenderPhase.SUCCESS)
        assert s.senders[0].e == 0


def test_loser_pays_one_extra_unit_of_listening():
    # the grant goes out on the last tick of the loser's current unit, so the
    # loser has listened (winner draw + 1) full units when it aborts
    cfg = ScenarioConfig()
    auto = Automaton(cfg)
    a, b = 2, 5
    s = branch_with_draws(auto, auto.initial_state(), (a, b))
    idle = 0
    while s.senders[1].phase != SenderPhase.SLEEP:
        if s.senders[1].phase == SenderPhase.COUNTDOWN:
            idle += 1
        s = step1(auto, s)
    assert idle == cfg.tcu_ticks * (a + 1)


def test_rival_rts_is_inaudible_to_a_countdown_sender():
    auto = Automaton(ScenarioConfig())
    s = branch_with_draws(auto, auto.initial_state(), (1, 3))
    s = walk_until(auto, s, lambda st: st.senders[0].phase == SenderPhase.SEND_RTS)
    # sender 1 keeps counting down through the whole foreign transmission
    while s.senders[0].phase == SenderPhase.SEND_RTS:
        assert s.senders[1].phase == SenderPhase.COUNTDOWN
        s = step1(auto, s)


def test_equal_draws_collide_and_both_back_off():
    auto = Automaton(ScenarioConfig())
    s = branch_with_draws(auto, auto.initial_state(), (2, 2))
    s = walk_until(auto, s, lambda st: st.receiver.phase == ReceiverPhase.COLLISION)
    assert all(sd.phase == SenderPhase.SEND_RTS for sd in s.senders)
    s = walk_until(auto, s, lambda st: all(
        sd.phase == SenderPhase.CHOOSE for sd in st.senders))
    assert all(sd.e == 1 and sd.msgs == 1 for sd in s.senders)


# -- failure cap and packet bookkeeping ---------------------------------------------

# degenerate single-value windows force a tie in every round
ALWAYS_COLLIDE = BackoffTable(((0, 12, ContentionWindow(1, 1)),))


def test_packets_are_dropped_only_at_the_failure_cap():
    cfg = ScenarioConfig(table=ALWAYS_COLLIDE)
    auto = Automaton(cfg)
    s = auto.initial_state()
    e_seen = set()
    while not all(sd.phase == SenderPhase.DONE for sd in s.senders):
        branches = auto.successor_distribution(s).branches
        assert len(branches) == 1
        if s.senders[0].phase == SenderPhase.REJECT:
            assert s.senders[0].e == 12
        if s.senders[0].phase == SenderPhase.CHOOSE:
            e_seen.add(s.senders[0].e)
        s = branches[0][1]
    assert e_seen == set(range(13))


def test_failure_counter_resets_for_the_next_packet():
    table = BackoffTable(((0, 12, ContentionWindow(1, 1)),))
    cfg = ScenarioConfig(n_senders=1, nmax_msg=2, table=table)
    auto = Automaton(cfg)
    s = auto.initial_state()
    s = walk_until(auto, s, lambda st: st.senders[0].phase == SenderPhase.SUCCESS)
    assert s.senders[0].msgs == 2
    s = step1(auto, s)
    assert s.senders[0].phase == SenderPhase.CHOOSE
    assert s.senders[0].msgs == 1 and s.senders[0].e == 0


# -- reduced contention unit ---------------------------------------------------------


def test_short_unit_gap_two_deadlocks():
    auto = Automaton(ScenarioConfig().with_tcu(3))
    s = branch_with_draws(auto, auto.initial_state(), (1, 3))
    for _ in range(100):
        branches = auto.successor_distribution(s).branches
        if not branches:
            break
        assert len(branches) == 1
        s = branches[0][1]
    else:
        raise AssertionError("expected a deadlock")
    assert any(sd.phase == SenderPhase.SEND_RTS for sd in s.senders)
    assert s.receiver.phase in (ReceiverPhase.SWITCH_RT, ReceiverPhase.SEND_CTS,
                                ReceiverPhase.W_END)


def test_short_unit_gap_two_collides_in_robust_mode():
    cfg = ScenarioConfig(tcu_ticks=3, robust_mode=True)
    auto = Automaton(cfg)
    s = branch_with_draws(auto, auto.initial_state(), (1, 3))
    s = walk_until(auto, s, lambda st: all(
        sd.phase == SenderPhase.CHOOSE for sd in st.senders))
    assert all(sd.e == 1 for sd in s.senders)


def test_short_unit_gap_three_aborts_cleanly():
    auto = Automaton(ScenarioConfig().with_tcu(3))
    s = branch_with_draws(auto, auto.initial_state(), (1, 4))
    s = walk_until(auto, s, lambda st: st.senders[0].phase == SenderPhase.SUCCESS)
    assert s.senders[1].phase == SenderPhase.SLEEP


# -- labels ----------------------------------------------------------------------------


def test_labels_expose_phases_and_counters():
    # senders are numbered from 0, like every sender= argument
    cfg = ScenarioConfig()
    props = label(initial_state(cfg))
    assert {"s0_choose", "s1_choose", "r_w_start", "s0_e_0", "s0_rbc_-1",
            "s0_msgs_1"} <= props
    assert not any(p.startswith("s2_") for p in props)


def test_tick_successor_of_a_projection_reads_the_receiver():
    # the same senders tick differently under a silent and a granting receiver
    auto = Automaton(ScenarioConfig())
    senders = ((SenderPhase.WAIT_CTS, 0, 2), (SenderPhase.COUNTDOWN, 3, 0))
    silent = auto.next_projection((senders, ReceiverState(ReceiverPhase.W_RTS, -1, 0)))
    granting = auto.next_projection((senders, ReceiverState(ReceiverPhase.SEND_CTS, 0, 3)))
    assert silent[0] == ((SenderPhase.WAIT_CTS, 0, 1), (SenderPhase.COUNTDOWN, 3, 1))
    assert granting[0] == ((SenderPhase.RECV_CTS, 0, 5), (SenderPhase.SLEEP, 3, 0))


def test_split_and_join_are_inverse_and_a_tick_moves_only_the_projection():
    # depth first over up to 5000 reachable states: all of both short-unit
    # models, so their deadlocks and robust mode's collision fallbacks (an
    # RTS starting while the receiver is committed) are classified too
    for cfg, deadlocks, fallbacks in (
        (ScenarioConfig(n_senders=2, nmax_msg=2), False, False),
        (ScenarioConfig(tcu_ticks=3), True, False),
        (ScenarioConfig(tcu_ticks=3, robust_mode=True), False, True),
    ):
        auto = Automaton(cfg)
        stack, seen = [auto.initial_state()], {auto.initial_state()}
        kinds, fallback_seen = set(), False
        while stack and len(seen) < 5000:
            state = stack.pop()
            context, projection = auto.split(state)
            assert auto.join(context, projection) == state
            kind = auto.step_kind(projection)
            assert kind == auto.step_kind(state)
            kinds.add(kind)
            fallback_seen |= kind == StepKind.TICK and state.receiver.phase in (
                ReceiverPhase.SWITCH_RT, ReceiverPhase.SEND_CTS, ReceiverPhase.W_END
            ) and any(sd.phase == SenderPhase.SEND_RTS for sd in state.senders)
            nxt = auto.next_projection(projection)
            branches = auto.successor_distribution(state).branches
            if kind == StepKind.TICK:
                assert branches == ((1.0, auto.join(context, nxt)),)
            else:
                assert nxt is None
            for _, succ in branches:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        assert (StepKind.DEADLOCK in kinds) == deadlocks, cfg
        assert fallback_seen == fallbacks, cfg


# every draw is 0, so all active senders collide in every round and each
# packet is dropped at the failure cap
_REJECT_EVERY_PACKET = BackoffTable(((0, 1, ContentionWindow(0, 0)),), e_max=1, b_max=0)
_REJECT_HEAVY = BackoffTable(((0, 1, ContentionWindow(0, 1)),), e_max=1, b_max=1)


@st.composite
def drawn_rounds(draw):
    """A config, the state right after a joint draw, and a sender permutation."""
    n = draw(st.integers(1, 4))
    cfg = ScenarioConfig(
        n_senders=n, nmax_msg=3, tcu_ticks=draw(st.sampled_from([3, 8, 13])),
        robust_mode=draw(st.booleans()),
        table=draw(st.sampled_from([DEFAULT_TABLE, _REJECT_HEAVY, _REJECT_EVERY_PACKET])))
    senders, draws = [], []
    for _ in range(n):
        msgs = draw(st.integers(0, 3))
        if msgs == 0:
            senders.append(SenderState(SenderPhase.DONE, 0, -1, 0, 0))
            draws.append(-1)
            continue
        e = draw(st.integers(0, cfg.e_max))
        win = cfg.table.window_for(e)
        senders.append(SenderState(SenderPhase.CHOOSE, e, -1, msgs, 0))
        draws.append(draw(st.integers(win.lo, win.hi)))
    drawn = Automaton(cfg).drawn_state(initial_state(cfg)._replace(senders=tuple(senders)),
                                       tuple(draws))
    return cfg, drawn, draw(st.permutations(range(n)))


def _permuted(perm, sequence):
    # sender j of the permuted round is sender perm[j] of the original
    return tuple(sequence[p] for p in perm)


@settings(max_examples=200, deadline=None)
@given(drawn_rounds())
def test_permuting_senders_permutes_the_round(case):
    cfg, drawn, perm = case
    auto = Automaton(cfg)
    slot = {p: j for j, p in enumerate(perm)}
    p_drawn = drawn._replace(senders=_permuted(perm, drawn.senders))
    (senders, receiver), ticks, idle, deadlocked = auto._play(auto.split(drawn)[1])
    (p_senders, p_receiver), p_ticks, p_idle, p_deadlocked = auto._play(auto.split(p_drawn)[1])

    if receiver.winner >= 0:
        receiver = receiver._replace(winner=slot[receiver.winner])
    assert (p_senders, p_receiver) == (_permuted(perm, senders), receiver)
    assert (p_ticks, p_deadlocked) == (ticks, deadlocked)
    assert p_idle == _permuted(perm, idle)

    # the canonical table answers both orders with what the ticks gave
    for d in (drawn, p_drawn):
        _, projection = auto.split(d)
        assert auto.round_outcome(tuple(sd.rbc for sd in d.senders)) == auto._play(projection)
