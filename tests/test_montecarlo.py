"""Monte Carlo runs: conservation, determinism, and agreement with the exact engine."""

import hashlib
import itertools
import logging
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecomac_backoff import (
    DEFAULT_TABLE,
    Automaton,
    BackoffTable,
    ContentionWindow,
    ScenarioConfig,
    SenderPhase,
    StepKind,
    expected_reward,
    idle_listening_rewards,
    mean_ci95,
    run_once,
    run_rng,
    simulate,
)
from ecomac_backoff import montecarlo
from ecomac_backoff.errors import ConfigError
from ecomac_backoff.montecarlo import _answer_draws, _distinct_rows, _philox, _Streams, _Tally

from backoff_tables import REJECT_HEAVY, tables, timings
from round_rows import outcome_rows


def test_every_packet_is_resolved_exactly_once(two_sender_cfg):
    agg = simulate(two_sender_cfg, 500, seed=5)
    resolved = agg.successes.sum(axis=2) + agg.rejects
    assert (resolved == two_sender_cfg.nmax_msg).all()
    assert agg.n_deadlocked == 0


def test_multi_packet_conservation():
    cfg = ScenarioConfig(n_senders=2, nmax_msg=3)
    agg = simulate(cfg, 300, seed=5)
    assert (agg.successes.sum(axis=2) + agg.rejects == 3).all()


def test_lone_sender_idle_equals_units_times_draw(lone_cfg):
    for r in range(30):
        trace = []
        stats = run_once(lone_cfg, run_rng(17, r), trace=trace)
        first_draw = trace[1].senders[0].rbc
        assert stats.idle_ticks[0] == lone_cfg.tcu_ticks * first_draw
        assert stats.rounds == 1
        assert stats.successes.sum() == 1


def test_lone_sender_mean_idle_matches_exact(lone_cfg, lone_model):
    agg = simulate(lone_cfg, 4000, seed=9)
    exact = expected_reward(
        lone_model, idle_listening_rewards(lone_model, 0),
        np.asarray(lone_model.sender_phase(0) == SenderPhase.DONE),
    )
    mean, ci = mean_ci95(agg.idle_seconds(0))
    assert abs(mean - exact) < 3 * (ci / 1.96)


def test_same_seed_reproduces_the_batch(two_sender_cfg):
    a = simulate(two_sender_cfg, 300, seed=21)
    b = simulate(two_sender_cfg, 300, seed=21)
    assert (a.successes == b.successes).all()
    assert (a.idle_ticks == b.idle_ticks).all()
    assert (a.ticks == b.ticks).all()
    assert (a.rounds == b.rounds).all()


def test_runs_are_independent_of_batch_size(two_sender_cfg):
    # run r is keyed by (seed, r), so a shorter batch is a prefix
    a = simulate(two_sender_cfg, 50, seed=33)
    b = simulate(two_sender_cfg, 200, seed=33)
    assert (a.successes == b.successes[:50]).all()
    assert (a.idle_ticks == b.idle_ticks[:50]).all()


@pytest.mark.parametrize("seed", [2**63, 2**63 + 12345, 2**64 - 1])
def test_seeds_above_2_63_key_exactly(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rng = run_rng(seed, 7)
    assert rng.bit_generator.state["state"]["key"].tolist() == [seed, 7]


def test_top_seed_does_not_draw_seed_zeros_stream():
    top = run_rng(2**64 - 1, 0).integers(2**63, size=8)
    assert (top != run_rng(0, 0).integers(2**63, size=8)).any()


@pytest.mark.parametrize("seed", [0, 12345, 2**63 - 1])
def test_seeds_below_2_63_keep_their_streams(seed):
    # the key a plain list gave before it was built as uint64
    old = np.random.Generator(np.random.Philox(key=[seed, 3]))
    assert (run_rng(seed, 3).integers(2**63, size=8) == old.integers(2**63, size=8)).all()


# a switch slower than a frame: a rival can start its request after the
# winner's grant, so a round can deliver a packet and then deadlock
_SLOW_SWITCH = {"d_switch": 2, "d_frame": 1, "d_rssi": 0, "cts_timeout": 1}


@settings(max_examples=25, deadline=None)
@given(n_senders=st.integers(1, 3), nmax_msg=st.integers(0, 3), robust=st.booleans(),
       tcu=st.sampled_from([1, 3, 8, 13]), table=tables(DEFAULT_TABLE, REJECT_HEAVY),
       timing=timings(), seed=st.integers(0, 2**64 - 1))
# most of these runs deadlock, or reach the failure cap; the two 3-sender
# batches at unit 3 and the one at unit 4 also answer keys from a
# representative latched in a collision (6, 7 and 8 keys)
@example(n_senders=3, nmax_msg=2, robust=False, tcu=3, table=DEFAULT_TABLE, timing={},
         seed=12345)
@example(n_senders=3, nmax_msg=2, robust=True, tcu=3, table=DEFAULT_TABLE, timing={},
         seed=12345)
@example(n_senders=2, nmax_msg=1, robust=False, tcu=1, table=DEFAULT_TABLE,
         timing=_SLOW_SWITCH, seed=0)
# unit 4 parks a rival two draws above the winner, so rows fold at horizon 2
@example(n_senders=3, nmax_msg=2, robust=False, tcu=4, table=DEFAULT_TABLE, timing={},
         seed=12345)
# no switch and a one-tick frame: the receiver still waiting for a request
# reads whose frame ended with the tick
@example(n_senders=3, nmax_msg=2, robust=False, tcu=3, table=DEFAULT_TABLE,
         timing={"d_switch": 0, "d_frame": 1, "d_rssi": 1, "cts_timeout": 3}, seed=12345)
def test_memoized_rounds_match_traced_runs(n_senders, nmax_msg, robust, tcu, table, timing,
                                           seed):
    # traced runs step through successor_distribution, which joins the tick,
    # draw and boundary rules the exact builder steps, so they check the
    # round table and the boundary table that batches read against the
    # exact model
    cfg = ScenarioConfig(n_senders=n_senders, nmax_msg=nmax_msg, table=table,
                         tcu_ticks=tcu, robust_mode=robust, **timing)
    agg = simulate(cfg, 30, seed)
    auto = Automaton(cfg)
    draw_branches = {}
    runs = []
    for r in range(agg.n_runs):
        trace = []
        runs.append(run_once(cfg, run_rng(seed, r), trace=trace))
        assert (not auto.successor_distribution(trace[-1])) == runs[-1].deadlocked
        # each traced draw is one of the exact model's draw branches
        for state, drawn in zip(trace, trace[1:]):
            if auto.step_kind(state) == StepKind.DRAW:
                if state not in draw_branches:
                    draw_branches[state] = {
                        nxt for p, nxt in auto.successor_distribution(state) if p > 0}
                assert drawn in draw_branches[state]
    for field in ("successes", "rejects", "idle_ticks", "ticks", "rounds", "deadlocked"):
        sampled = getattr(agg, field)
        traced = np.array([getattr(stats, field) for stats in runs])
        assert traced.dtype == sampled.dtype and traced.shape == sampled.shape
        assert (traced == sampled).all(), field


_DIGESTS = [
    (ScenarioConfig(n_senders=2), "07f29d8e02f891dc"),
    (ScenarioConfig(n_senders=5), "211ec60234900a99"),
    (ScenarioConfig(n_senders=8), "7c571acc630d9f4e"),
    (ScenarioConfig(nmax_msg=5), "4b8948e49be23e27"),
    (ScenarioConfig(n_senders=4, robust_mode=True), "d8443f3d5bb66c34"),
    # 261 of the 300 runs deadlock
    (ScenarioConfig(n_senders=4, tcu_ticks=3), "30bd63ce4d3acdcd"),
    (ScenarioConfig(n_senders=6, tcu_ticks=4), "376e6acc9c2a560d"),
    (ScenarioConfig(n_senders=3, d_switch=0), "1bd19ccbedda5e3f"),
]
_DIGEST_IDS = ["two", "five", "eight", "five_packets", "robust", "unit_3", "unit_4", "no_switch"]


def _digest(agg):
    h = hashlib.sha256()
    for field in ("successes", "rejects", "idle_ticks", "ticks", "rounds", "deadlocked"):
        a = getattr(agg, field)
        h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("cfg, digest", _DIGESTS, ids=_DIGEST_IDS)
def test_seeded_batches_keep_their_digests(cfg, digest):
    # a refactor of the round table or the batch keeps every seeded array
    # bit-identical: dtype, shape and bytes of each
    assert _digest(simulate(cfg, 300, 2026)) == digest


@pytest.mark.parametrize("at", range(len(_DIGESTS)), ids=_DIGEST_IDS)
def test_warm_batches_keep_their_digests_and_fill_nothing(at):
    # calls on equal configs share one automaton, so a batch on a config
    # that earlier batches have filled reads their round and crossing
    # tables: it hashes as the cold batch does, also after another
    # config's batch, and plays no row and settles no crossing key
    (cfg, digest), (other, _) = _DIGESTS[at], _DIGESTS[at - 1]
    montecarlo._automaton.cache_clear()
    assert _digest(simulate(cfg, 300, 2026)) == digest
    counts = montecarlo._automaton(cfg).round_counts
    filled = {k: counts[k] for k in ("rows", "ticks", "full", "settled")}
    assert filled["rows"] > 0 and filled["settled"] > 0
    assert _digest(simulate(cfg, 300, 2026)) == digest
    simulate(other, 300, 2026)
    assert _digest(simulate(cfg, 300, 2026)) == digest
    assert {k: counts[k] for k in filled} == filled


def test_equal_configs_share_one_automaton():
    # equal configs, the unit derived or given, share an automaton, and
    # configs that differ in the unit or the robust mode do not
    montecarlo._automaton.cache_clear()
    cfg = ScenarioConfig(n_senders=3)
    auto = montecarlo._automaton(cfg)
    assert montecarlo._automaton(ScenarioConfig(n_senders=3, tcu_ticks=8)) is auto
    assert auto.cfg == cfg
    for other in (cfg.with_tcu(4), ScenarioConfig(n_senders=3, robust_mode=True)):
        assert montecarlo._automaton(other) is not auto
        assert montecarlo._automaton(other).cfg == other
    assert auto.round_counts["rows"] == 0
    simulate(cfg, 20, seed=1)
    assert auto.round_counts["rows"] > 0


def test_shared_automata_drop_the_least_recently_used_config():
    bound = montecarlo._AUTOMATA
    cfgs = [ScenarioConfig(tcu_ticks=unit) for unit in range(1, bound + 3)]
    montecarlo._automaton.cache_clear()
    autos = [montecarlo._automaton(cfg) for cfg in cfgs[:bound]]
    # the first config is used again, so the second is the least recent
    assert montecarlo._automaton(cfgs[0]) is autos[0]
    newest = montecarlo._automaton(cfgs[bound])
    assert montecarlo._automaton.cache_info().currsize == bound
    assert all(montecarlo._automaton(cfg) is auto for cfg, auto in zip(cfgs[2:], autos[2:]))
    assert montecarlo._automaton(cfgs[0]) is autos[0]
    # the second config was dropped and comes back as a new automaton, and
    # the least recent one now, the newest before, goes in its place
    assert montecarlo._automaton(cfgs[1]) is not autos[1]
    assert montecarlo._automaton(cfgs[bound]) is not newest


def test_shared_tables_hand_out_copies():
    # a shared automaton's tables outlive every call, so no caller gets a
    # view of one
    auto = Automaton(ScenarioConfig(n_senders=3))
    rows = np.array([[0, 1, 2], [-1, 2, 5], [1, 1, 3]])
    answers = auto.round_outcomes(rows)
    e, msgs = np.zeros((2, 3), dtype=np.int64), np.ones((2, 3), dtype=np.int64)
    ends = np.full((2, 3), int(SenderPhase.SLEEP))
    cross = auto.crossings(ends, e, msgs)
    assert (cross == (1, 1, 1)).all()
    for got in (*answers, cross):
        for table in (auto._ends, auto._idle, auto._rest, auto._crossing):
            assert not np.shares_memory(got, table)


@pytest.mark.parametrize("msgs", [1, 3])
@pytest.mark.parametrize("e", [0, 11, 12], ids=["e0", "e11", "e_max"])
def test_settle_crosses_each_end_phase(e, msgs):
    # the boundary rule the batch's crossing table holds, for every phase a
    # round can end in: a delivery resets e and takes a packet; a sleep
    # raises e, and at e_max rejects the packet, whose second reset takes
    # it; a drawing or done sender keeps its context
    auto = Automaton(ScenarioConfig(nmax_msg=3))
    assert auto.cfg.e_max == 12
    assert auto.settle(SenderPhase.SUCCESS, e, msgs) == ((0, msgs - 1), (e, False))
    assert auto.settle(SenderPhase.REJECT, e, msgs) == ((0, msgs - 1), None)
    if e == 12:
        assert auto._reset(SenderPhase.SLEEP, e, msgs) == (SenderPhase.REJECT, e, msgs)
        assert auto.settle(SenderPhase.SLEEP, e, msgs) == ((0, msgs - 1), (e, True))
    else:
        assert auto.settle(SenderPhase.SLEEP, e, msgs) == ((e + 1, msgs), None)
    for phase in (SenderPhase.CHOOSE, SenderPhase.DONE):
        assert auto.settle(phase, e, msgs) == ((e, msgs), None)
    assert auto.settle(SenderPhase.DONE, 0, 0) == ((0, 0), None)
    for phase in set(SenderPhase) - {SenderPhase.SUCCESS, SenderPhase.REJECT,
                                     SenderPhase.SLEEP, SenderPhase.CHOOSE, SenderPhase.DONE}:
        with pytest.raises(AssertionError):
            auto.settle(phase, e, msgs)


@pytest.mark.parametrize("cfg", [ScenarioConfig(nmax_msg=5),
                                 ScenarioConfig(n_senders=4, robust_mode=True)],
                         ids=["five_packets", "robust"])
def test_batches_settle_each_crossing_key_once(monkeypatch, cfg):
    # a batch settles an (end phase, e, msgs) key the first time a pass
    # meets it, however many senders cross it there, and reads it from its
    # table after; the keys it settles are those its traced runs cross.
    # It counts first-time work, so no earlier batch shares the table
    montecarlo._automaton.cache_clear()
    settle, calls = Automaton.settle, []

    def counted(self, *key):
        calls.append(key)
        return settle(self, *key)

    monkeypatch.setattr(Automaton, "settle", counted)
    agg = simulate(cfg, 100, 2026)
    assert not agg.n_deadlocked
    assert len(calls) == len(set(calls))
    auto, crossed = Automaton(cfg), set()
    for r in range(agg.n_runs):
        trace = []
        run_once(cfg, run_rng(2026, r), trace)
        for state in trace:
            if auto.step_kind(state) == StepKind.BOUNDARY:
                crossed.update((sd.phase, sd.e, sd.msgs) for sd in state.senders)
    assert set(calls) == crossed


def _plain_round(auto, projection):
    """The reference round: the tick rule, one tick at a time."""
    tick, step_kind = auto._tick, auto.step_kind
    ticks, idle = 0, [0] * len(projection[0])
    while (kind := step_kind(projection)) == StepKind.TICK:
        idle = [t + (sd[0] == SenderPhase.COUNTDOWN) for t, sd in zip(idle, projection[0])]
        projection = tick(projection)
        ticks += 1
    return projection, ticks, tuple(idle), kind == StepKind.DEADLOCK


def _check_every_round(cfg, horizon=None):
    # every sorted draw vector, a done sender's -1 included; the table
    # fills each row, a miss, from a representative or with _play; returns
    # the automaton, whose round_counts say how.  A given horizon replaces
    # the one read off the rounds
    auto = Automaton(cfg)
    if horizon is not None:
        auto._horizon = horizon
    for draws in itertools.combinations_with_replacement(range(-1, cfg.b_max + 1),
                                                         cfg.n_senders):
        _, projection = auto.split(auto.drawn_state(auto.initial_state(), draws))
        assert outcome_rows(auto, [draws]) == [_plain_round(auto, projection)], (cfg, draws)
    return auto


@pytest.mark.parametrize("robust", [False, True])
@pytest.mark.parametrize("timing", [{}, _SLOW_SWITCH, {"d_switch": 0}],
                         ids=["default", "slow_switch", "no_switch"])
def test_round_table_matches_plain_ticks(timing, robust):
    # the table answers a key with a smallest draw above 0 from its
    # zero-based key; each row must equal the tick rule taken one tick at a
    # time, deadlocks and collisions included
    for n, tcu in itertools.product((1, 2, 3), (1, 2, 3, 4, 8, 13)):
        _check_every_round(ScenarioConfig(n_senders=n, tcu_ticks=tcu, robust_mode=robust,
                                          **timing))
    if not (timing or robust):
        _check_every_round(ScenarioConfig(n_senders=4))


@pytest.mark.parametrize("cfg", [ScenarioConfig(n_senders=5),
                                 ScenarioConfig(n_senders=5, robust_mode=True),
                                 ScenarioConfig(n_senders=5, tcu_ticks=4),
                                 ScenarioConfig(n_senders=5, tcu_ticks=3)],
                         ids=["default", "robust", "unit_4", "unit_3"])
def test_folded_rows_match_plain_ticks_at_five_senders(cfg):
    # at parking horizons 1, 1, 2 and 3, the senders at or above the
    # smallest draw plus the horizon are answered from one representative;
    # each row so answered must equal the tick rule, and some rows must come
    # from a parked representative and some from a latched one
    auto = _check_every_round(cfg)
    assert auto.round_counts["folded"] > 0
    assert auto.round_counts["latched"] > 0


def test_folded_and_latched_rows_match_plain_ticks_at_six_senders():
    # at six senders most keys have several senders at the cap, which one
    # representative answers, parked or counting down into a collision
    auto = _check_every_round(ScenarioConfig(n_senders=6))
    assert auto.round_counts["folded"] > 0
    assert auto.round_counts["latched"] > 0


@pytest.mark.parametrize("tcu, robust, horizon", [(4, False, 1), (2, True, 2), (8, False, 4)])
def test_representative_rows_match_plain_ticks_at_any_horizon(tcu, robust, horizon):
    # both checks read the played canonical round, so a horizon below the
    # one read off the rounds (units 4 and 2 read 2 and 4) or above it
    # (unit 8 reads 1) keeps every row exact; below it, a representative
    # can start its own request before the receiver latches
    auto = _check_every_round(ScenarioConfig(n_senders=4, tcu_ticks=tcu, robust_mode=robust),
                              horizon)
    assert auto.round_counts["latched"] > 0


@pytest.mark.parametrize("tcu, horizon", [(8, 1), (4, 2), (3, 3), (1, 0)])
def test_parking_horizon_is_read_off_the_rounds(tcu, horizon):
    # the smallest rival draw the winner of draw 0 parks, whatever the
    # number of done senders; at unit 1 no draw in the window is parked,
    # so no key folds
    for n in (2, 3):
        assert Automaton(ScenarioConfig(n_senders=n, tcu_ticks=tcu))._parking_horizon() == horizon
    if not horizon:
        assert _check_every_round(ScenarioConfig(n_senders=3, tcu_ticks=tcu)).round_counts[
            "folded"] == 0


@pytest.mark.parametrize("tcu", [8, 4, 3, 1])
def test_parking_horizon_probes_are_table_rows(tcu):
    # each bisection step looks up its probe's round in the table, so the
    # horizon plays one row a step, 3 over draws up to 7, and the round
    # table answers the horizon's canonical key, or at unit 1, where no
    # draw parks, the last probe at b_max, without playing it again.  One
    # sender has no rival: its horizon is 0, read without a probe
    for n in (2, 3):
        auto = Automaton(ScenarioConfig(n_senders=n, tcu_ticks=tcu))
        h = auto._parking_horizon()
        assert auto.round_counts["rows"] == 3
        auto.round_outcomes(np.array([(-1,) * (n - 2) + (0, h or auto.cfg.b_max)]))
        assert auto.round_counts["rows"] == 3
    auto = Automaton(ScenarioConfig(n_senders=1, tcu_ticks=tcu))
    assert auto._parking_horizon() == 0
    assert auto.round_counts["rows"] == 0


@pytest.mark.parametrize("cfg", [ScenarioConfig(n_senders=5),
                                 ScenarioConfig(n_senders=6, tcu_ticks=4),
                                 ScenarioConfig(n_senders=5, tcu_ticks=3),
                                 ScenarioConfig(n_senders=5, robust_mode=True)],
                         ids=["default", "six_unit_4", "unit_3", "robust"])
def test_round_outcomes_answer_every_sorted_vector_in_one_call(cfg):
    # one call shifts, folds and answers every sorted vector, a done
    # sender's -1 included, so rows sharing a canonical key are answered
    # side by side; each must equal the tick rule.  At unit 3 some keys
    # are played in full, their canonical row neither parked nor latched
    auto = Automaton(cfg)
    keys = list(itertools.combinations_with_replacement(range(-1, cfg.b_max + 1),
                                                        cfg.n_senders))
    for draws, got in zip(keys, outcome_rows(auto, keys)):
        _, projection = auto.split(auto.drawn_state(auto.initial_state(), draws))
        assert got == _plain_round(auto, projection), (cfg, draws)
    counts = auto.round_counts
    assert counts["folded"] > 0 and counts["latched"] > 0
    assert (counts["full"] > 0) == (cfg.tcu_ticks == 3)


@settings(max_examples=20, deadline=None)
@given(n_senders=st.integers(1, 3), robust=st.booleans(), tcu=st.sampled_from([1, 2, 3, 8]),
       table=tables(DEFAULT_TABLE, REJECT_HEAVY), timing=timings())
# no switch and a one-tick frame: the receiver still waiting for a request
# reads whose frame ended with the tick
@example(n_senders=3, robust=False, tcu=3, table=DEFAULT_TABLE,
         timing={"d_switch": 0, "d_frame": 1, "d_rssi": 1, "cts_timeout": 3})
def test_round_table_matches_plain_ticks_on_generated_tables(n_senders, robust, tcu, table,
                                                             timing):
    _check_every_round(ScenarioConfig(n_senders=n_senders, table=table, tcu_ticks=tcu,
                                      robust_mode=robust, **timing))


@pytest.mark.parametrize("seed", [0, 12345, 2**63 + 12345, 2**64 - 1])
def test_stream_draws_match_generator_integers(seed):
    # windows of 3 * 2**30 and 2**31 + 1 values redraw a word with
    # probability 1/4 and nearly 1/2, which no full run could finish with;
    # three lanes hold rows of ceil(1024 / 3) = 342 blocks, which their first
    # fill computes whole, and 400 rows of 11 draws take each lane past them
    runs = np.array([0, 1, 4999])
    streams = _Streams(seed, runs)
    generators = [run_rng(seed, int(r)) for r in runs]
    widths = [7, 1, 8, 3 * 2**30, 2**31 + 1, 2**32]
    for k in range(400):
        row = [widths[(k + j) % len(widths)] for j in range(11)]
        got = streams.integers(np.arange(len(runs)), np.full((len(runs), 11), 5),
                               np.tile(row, (len(runs), 1)))
        assert got.tolist() == [[int(g.integers(5, 5 + w)) for w in row] for g in generators]
    assert (streams.block >= 2).all()
    # a width-1 window takes no word from the stream
    before = streams.pos.copy()
    streams.integers(np.arange(len(runs)), np.zeros((len(runs), 2)), np.ones((len(runs), 2)))
    assert (streams.pos == before).all()
    # lanes that draw apart keep their own streams
    streams.integers(np.array([1]), np.zeros((1, 1)), np.full((1, 1), 7))
    generators[1].integers(0, 7)
    got = streams.integers(np.array([2, 0, 1]), np.zeros((3, 2)), np.full((3, 2), 8))
    assert got.tolist() == [[int(generators[i].integers(0, 8)) for _ in range(2)]
                            for i in (2, 0, 1)]


def test_stream_rows_that_redraw_or_outrun_their_words_match_generator_integers(monkeypatch):
    # five lanes hold rows of ceil(1024 / 5) = 205 blocks, which the first
    # draw's fill computes whole, and so does each refill.  In the second
    # draw, lane 0 redraws under Lemire's rule (windows of 2**31 + 1
    # values) and lane 1 needs 1700 words, more than a refilled row holds;
    # both are drawn word by word, and the other lanes in one gather
    seed, runs = 7, np.arange(5)
    streams = _Streams(seed, runs)
    generators = [run_rng(seed, int(r)) for r in runs]
    got = streams.integers(runs, np.zeros((5, 1)), np.full((5, 1), 7))
    assert got.ravel().tolist() == [int(g.integers(0, 7)) for g in generators]
    assert streams.end.tolist() == [8 * 205] * 5
    assert streams.words.shape[1] == 8 * 205
    assert (streams.calls, streams.blocks) == (1, 5 * 205)
    width = np.ones((5, 1700), dtype=np.int64)
    width[0, :4] = 2**31 + 1
    width[1] = 7
    width[2:, 5:8] = 9
    lo = np.full((5, 1700), 3)
    word_by_word = []
    next_words = _Streams._next_words

    def spy(self, lanes):
        word_by_word.extend(lanes.tolist())
        return next_words(self, lanes)

    monkeypatch.setattr(_Streams, "_next_words", spy)
    got = streams.integers(runs, lo, width)
    assert got.tolist() == [[int(g.integers(3, 3 + w)) for w in row]
                            for g, row in zip(generators, width.tolist())]
    assert set(word_by_word) == {0, 1}
    assert streams.pos[0] > 1 + 4  # lane 0 took a word more than its columns
    assert streams.pos[1] == 1 + 1700
    # lane 1 running out took every lane into its refill of a whole row,
    # and drawn word by word it ran out once more, alone
    assert (streams.end - streams.block * 8 == 8 * 205).all()
    assert (streams.calls, streams.blocks) == (3, 5 * 205 + 5 * 205 + 205)


def test_large_batch_streams_refill_only_the_lanes_that_run_out():
    # a first fill of one block for each of 1024 lanes computes 1024
    # blocks, so the batch is not small: a refill computes one-block rows
    # of only the lanes that run out.  One lane fewer makes the batch small,
    # with rows of ceil(1024 / 1023) = 2 blocks
    small = _Streams(3, np.arange(1023))
    small.integers(np.arange(1023), np.zeros((1023, 1)), np.full((1023, 1), 7))
    assert small.words.shape[1] == 16
    seed, runs = 3, np.arange(1024)
    streams = _Streams(seed, runs)
    streams.integers(runs, np.zeros((1024, 1)), np.full((1024, 1), 7))
    assert streams.words.shape[1] == 8
    generators = [run_rng(seed, r) for r in (9, 5, 12)]
    for g in generators:
        g.integers(0, 7)
    # lanes 9 and 5 read words 1-7, which they hold, and then 8 and 9 from
    # block 1; lane 12 reads words 1 and 2 beside them, and keeps its block
    for lanes, k in (([9, 5], 7), ([9, 5, 12], 2)):
        got = streams.integers(np.array(lanes), np.zeros((len(lanes), k)),
                               np.full((len(lanes), k), 9))
        assert got.tolist() == [g.integers(0, 9, size=k).tolist()
                                for g in generators[:len(lanes)]]
    assert (streams.calls, streams.blocks) == (2, 1024 + 2)
    assert streams.end.tolist() == [8] * 5 + [16] + [8] * 3 + [16] + [8] * 1014


def test_small_batch_streams_match_generator_integers_through_refills(monkeypatch):
    # five lanes hold rows of 205 blocks, so a lane that runs out takes
    # every drawing lane into the refill.  Rows of 40 columns mix window
    # widths, windows of 3 * 2**30 values redraw a word with probability
    # 1/4, and lanes leave the batch as it goes
    seed, runs = 2**64 - 1, np.array([0, 7, 2**63, 12, 4999])
    streams = _Streams(seed, runs)
    generators = [run_rng(seed, int(r)) for r in runs]
    redrawn = []
    next_words = _Streams._next_words

    def spy(self, lanes):
        redrawn.extend(lanes.tolist())
        return next_words(self, lanes)

    monkeypatch.setattr(_Streams, "_next_words", spy)
    rng = np.random.default_rng(11)
    widths = np.array([1, 2, 7, 9, 2**16 + 1, 3 * 2**30, 2**32])
    drawing = np.arange(5)
    for draw in range(260):
        if draw in (50, 120, 200):
            drawing = np.delete(drawing, 1)  # lanes 1, 2 and 3 leave
        width = rng.choice(widths, p=[0.3, 0.2, 0.2, 0.1, 0.1, 0.05, 0.05],
                           size=(len(drawing), 40))
        lo = rng.integers(-5, 5, size=width.shape)
        got = streams.integers(drawing, lo, width)
        assert got.tolist() == [generators[i].integers(lo_row, lo_row + w_row).tolist()
                                for i, lo_row, w_row in zip(drawing, lo, width)], draw
    assert streams.words.shape[1] == 8 * 205
    assert streams.calls >= 5  # the first fill and at least four refills
    assert set(redrawn) == set(range(5))
    # the lanes left stay in step with their generators
    got = streams.integers(drawing, np.zeros((2, 3)), np.full((2, 3), 2**32))
    assert got.tolist() == [generators[i].integers(0, 2**32, size=3).tolist() for i in drawing]


def _numpy_blocks(seed, run, counter, size=1):
    """numpy's Philox blocks under the key (seed, run) at the counters
    ``(counter, 0, 0, 0)`` on; numpy advances its counter before a block."""
    key = np.array([seed, run], dtype=np.uint64)
    bits = np.random.Philox(key=key, counter=(counter - 1) % 2**256)
    return bits.random_raw(4 * size).reshape(size, 4).tolist()


_U64 = st.integers(0, 2**64 - 1)


@settings(max_examples=40, deadline=None)
@given(seed=_U64, entries=st.lists(st.tuples(_U64, _U64), min_size=1, max_size=40))
@example(seed=0, entries=[(0, 0)])
@example(seed=2**64 - 1, entries=[(2**64 - 1, 2**64 - 1), (0, 0), (2**64 - 1, 0),
                                  (0, 2**64 - 1)])
def test_philox_blocks_match_numpys_philox_under_any_key(seed, entries):
    # every entry has its own run and counter, as a refill's lanes do
    runs, counters = (np.array(column, dtype=np.uint64) for column in zip(*entries))
    got = _philox(seed, runs, counters)
    assert got.dtype == np.uint64 and got.shape == (len(entries), 4)
    assert got.tolist() == [_numpy_blocks(seed, run, counter)[0] for run, counter in entries]


@settings(max_examples=15, deadline=None)
@given(seed=_U64, run=_U64, size=st.integers(1, 20_000), data=st.data())
@example(seed=2**64 - 1, run=0, size=1, data=None)
@example(seed=0, run=2**64 - 1, size=20_000, data=None)
def test_philox_blocks_match_numpys_philox_at_consecutive_counters(seed, run, size, data):
    # one key's blocks up to past a lane chunk's first fill of two-sender
    # rows; the last example ends at counter 2**64 - 1
    top = 2**64 - size
    counter = top if data is None else data.draw(st.integers(0, top))
    counters = np.arange(size, dtype=np.uint64) + np.uint64(counter)
    got = _philox(seed, np.full(size, run, dtype=np.uint64), counters)
    assert got.tolist() == _numpy_blocks(seed, run, counter, size)


def test_distinct_rows_never_share_a_code():
    # at radix 256 a plain mixed-radix code of a 9-sender row multiplies one
    # end column by 256**8 = 2**64, so int64 drops it: rows that differ only
    # there would share a code, whichever end carries the top digit
    radix, n = 256, 9
    rows = np.random.default_rng(3).integers(-1, radix - 1, size=(400, n))
    # rows 4k and 4k+1 differ only in the last column, 4k+2 and 4k+3 in the first
    for twin, col in ((1, -1), (3, 0)):
        rows[twin::4] = rows[twin - 1::4]
        rows[twin::4, col] = (rows[twin::4, col] + 2) % (radix - 1) - 1
    for order in (1, -1):
        plain = [sum((d + 1) * radix**i for i, d in enumerate(row[::order])) % 2**64
                 for row in rows[:4].tolist()]
        assert len(set(plain)) < 4
    distinct, inverse = _distinct_rows(rows, radix)
    assert (distinct[inverse] == rows).all()
    assert len(distinct) == len({tuple(row) for row in rows.tolist()})


def _rows_of_codes(codes, radix, width):
    # the rows whose mixed-radix codes, first column most significant, are `codes`
    digits = [np.asarray(codes)]
    for _ in range(width - 1):
        digits[0], low = np.divmod(digits[0], radix)
        digits.insert(1, low)
    return np.stack(digits, axis=1) - 1


def _wide_rows(distinct, rng, radix=256, width=9):
    # 400 rows drawn from `distinct` distinct rows; at 9 columns of radix 256
    # the span passes int64 before the last column, so the codes are ranked
    rows = rng.integers(-1, radix - 1, size=(distinct, width))
    return rows[rng.integers(0, distinct, size=400)]


@pytest.mark.parametrize("radix, rows", [
    # spans 8**5 = 2**15, 256**2 = 2**16 with both end codes, and 257**2
    # with each code from 2**16 up beside the code 2**16 below it, which a
    # 16-bit code would merge with it
    (8, np.random.default_rng(5).integers(-1, 7, size=(600, 5))),
    (256, _rows_of_codes([0, 2**16 - 1, 2**15, 0, 2**16 - 1, 7, 2**15], 256, 2)),
    (257, _rows_of_codes([2**16 + 5, 5, 257**2 - 1, 257**2 - 1 - 2**16, 2**16, 0, 5, 2**16 + 5],
                         257, 2)),
    # ranked codes: a final span of 30 * 256 fits 16 bits, one of 400 * 256 does not
    (256, _wide_rows(30, np.random.default_rng(6))),
    (256, _wide_rows(400, np.random.default_rng(7))),
    # a code of 19 columns at radix 9, or of 6 at a wide window's radix
    # 1026, is one int64 chunk; the next chunk starts from its ranks
    (9, _wide_rows(60, np.random.default_rng(8), 9, 20)),
    (9, _wide_rows(60, np.random.default_rng(9), 9, 21)),
    (9, _wide_rows(300, np.random.default_rng(10), 9, 24)),
    (1026, _wide_rows(60, np.random.default_rng(11), 1026, 7)),
    (1026, _wide_rows(300, np.random.default_rng(12), 1026, 13)),
], ids=["below_2_16", "at_2_16", "above_2_16", "ranked_below_2_16", "ranked_above_2_16",
        "chunks_of_19_and_1", "chunks_of_19_and_2", "chunks_of_19_and_5",
        "wide_chunks_of_6_and_1", "wide_chunks_of_6_6_and_1"])
def test_distinct_rows_match_numpys_unique_rows(radix, rows):
    # codes of a span that fits 16 bits are grouped by a radix sort; the
    # rows, their order and each row's index among them are np.unique's
    distinct, inverse = _distinct_rows(rows, radix)
    expect, expect_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert distinct.shape == expect.shape and (distinct == expect).all()
    assert inverse.tolist() == expect_inverse.ravel().tolist()


def _answer_block(auto, draws):
    """The block that _answer_draws replaced: a stable sort of each row,
    numpy's unique sorted rows, one round_outcomes call, and each sender's
    end phase and idle ticks mapped back through its row's sort."""
    order = np.argsort(draws, axis=1, kind="stable")
    rows, inverse = np.unique(np.take_along_axis(draws, order, axis=1), axis=0,
                              return_inverse=True)
    ends, _, ticks, idle, stuck = auto.round_outcomes(rows)
    inverse, place = inverse.ravel(), np.argsort(order, axis=1)
    return (np.take_along_axis(ends[inverse, :, 0], place, axis=1),
            np.take_along_axis(idle[inverse], place, axis=1), ticks[inverse], stuck[inverse])


def _check_answers(cfg, draws):
    # each path on an automaton of its own, so each fills its own tables;
    # returns the helper's answers and round counts
    helper, block = Automaton(cfg), Automaton(cfg)
    got, expect = _answer_draws(helper, draws), _answer_block(block, draws)
    for name, a, b in zip(("ends", "idle", "ticks", "deadlocked"), got, expect):
        assert a.dtype == b.dtype and a.shape == b.shape, (cfg, name)
        assert (a == b).all(), (cfg, name)
    assert helper.round_counts == block.round_counts, cfg
    return got, helper.round_counts


@pytest.mark.parametrize("robust", [False, True])
@pytest.mark.parametrize("tcu", [1, 3, 4, None], ids=["unit_1", "unit_3", "unit_4", "default"])
@pytest.mark.parametrize("n_senders", [2, 3, 4])
def test_answer_draws_match_the_block_on_every_sorted_vector(n_senders, tcu, robust):
    # every sorted draw vector, a done sender's -1 included, in one call:
    # units 1 and 3 deadlock unless robust, and unit 3 plays some keys in
    # full at 3 and 4 senders unless robust
    cfg = ScenarioConfig(n_senders=n_senders, tcu_ticks=tcu, robust_mode=robust)
    (_, _, _, stuck), counts = _check_answers(cfg, np.array(list(
        itertools.combinations_with_replacement(range(-1, cfg.b_max + 1), n_senders))))
    assert stuck.any() == (tcu in (1, 3) and not robust)
    assert (counts["full"] > 0) == (tcu == 3 and n_senders > 2 and not robust)


@settings(max_examples=25, deadline=None)
@given(n_senders=st.integers(2, 6), robust=st.booleans(), tcu=st.sampled_from([1, 2, 3, 4, 8]),
       table=tables(DEFAULT_TABLE, REJECT_HEAVY), timing=timings(), data=st.data())
@example(n_senders=4, robust=False, tcu=3, table=DEFAULT_TABLE, timing={}, data=None)
def test_answer_draws_match_the_block_on_generated_draws(n_senders, robust, tcu, table, timing,
                                                         data):
    # unsorted rows with ties and done senders; each row comes again with
    # its senders reversed, which sorts to the same row, so distinct sorted
    # rows serve several runs
    cfg = ScenarioConfig(n_senders=n_senders, table=table, tcu_ticks=tcu, robust_mode=robust,
                         **timing)
    if data is None:
        draws = np.array([[2, -1, 2, 0], [-1, -1, 5, 5], [7, 7, 7, -1], [-1] * 4])
    else:
        values = st.integers(-1, cfg.b_max)
        draws = np.array(data.draw(st.lists(st.lists(values, min_size=n_senders,
                                                      max_size=n_senders),
                                             min_size=1, max_size=30)))
    _check_answers(cfg, np.concatenate((draws, draws[:, ::-1])))


@pytest.mark.parametrize("n_senders, nmax_msg, n_runs", [(2, 5, 200), (6, 1, 40), (7, 1, 30),
                                                          (8, 1, 25)])
def test_small_batches_make_one_philox_call(monkeypatch, n_senders, nmax_msg, n_runs):
    # the batches of perfbench's sim-contended workload at seed 1: each is
    # small, so its first fill computes whole rows of ceil(1024 / n_runs)
    # blocks, and no lane outruns its row
    calls = []
    philox = montecarlo._philox

    def counted(seed, runs, counters):
        calls.append(counters.size)
        return philox(seed, runs, counters)

    monkeypatch.setattr(montecarlo, "_philox", counted)
    simulate(ScenarioConfig(n_senders=n_senders, nmax_msg=nmax_msg), n_runs, seed=1)
    assert calls == [-(-1024 // n_runs) * n_runs]


@pytest.mark.parametrize("cfg", [ScenarioConfig(nmax_msg=2), ScenarioConfig(n_senders=3, nmax_msg=2,
                                                                           tcu_ticks=3)],
                         ids=["two_senders", "deadlocking"])
def test_lane_chunks_do_not_change_the_batch(monkeypatch, cfg):
    whole = simulate(cfg, 50, seed=12345)
    monkeypatch.setattr(montecarlo, "_LANES", 7)
    chunked = simulate(cfg, 50, seed=12345)
    for field in ("successes", "rejects", "idle_ticks", "ticks", "rounds", "deadlocked"):
        a, b = getattr(whole, field), getattr(chunked, field)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert (a == b).all(), field


@pytest.mark.parametrize("at", range(len(_DIGESTS)), ids=_DIGEST_IDS)
def test_buffered_counters_fold_often_inside_a_lane_chunk(monkeypatch, at):
    # at 5 lane-rounds a flush, each chunk of 5 lanes folds its counters
    # before nearly every pass; every pinned batch, cold and warm, hashes as
    # it does when one flush holds the whole batch, and no flush ever holds
    # more lane-rounds than a chunk has lanes
    cfg, digest = _DIGESTS[at]
    monkeypatch.setattr(montecarlo, "_LANES", 5)
    held, folds = [], []
    played, fold, streams = _Tally.played, _Tally.fold, _Streams.__init__

    def counted_played(self, run, *rest):
        played(self, run, *rest)
        held.append(self.held)

    def counted_fold(self):
        folds[-1] += self.held > 0
        fold(self)

    def chunk(self, *args):
        folds.append(0)
        streams(self, *args)

    monkeypatch.setattr(_Tally, "played", counted_played)
    monkeypatch.setattr(_Tally, "fold", counted_fold)
    monkeypatch.setattr(_Streams, "__init__", chunk)
    montecarlo._automaton.cache_clear()
    assert _digest(simulate(cfg, 300, 2026)) == digest
    assert _digest(simulate(cfg, 300, 2026)) == digest
    assert len(folds) == 2 * 60 and max(held) <= 5
    assert max(folds) >= 3


def test_windows_beyond_32_bits_are_refused():
    # the batch draws a counter from one 32-bit word, as numpy does for
    # windows of at most 2**32 values; the engines take counters up to
    # 32767 in any case
    table = BackoffTable(((0, 0, ContentionWindow(0, 2**32)),))
    with pytest.raises(ConfigError, match="b_max"):
        simulate(ScenarioConfig(table=table), 2, seed=0)


@pytest.mark.parametrize("cfg, key", [
    (ScenarioConfig(nmax_msg=2**63), "nmax_msg"),
    (ScenarioConfig(n_senders=2**63), "n_senders"),
    (ScenarioConfig(table=BackoffTable(((0, 40000, ContentionWindow(0, 3)),))), "e_max"),
], ids=["nmax_msg", "n_senders", "e_max"])
def test_simulation_takes_the_exact_engines_count_bounds(cfg, key):
    # counts past int64 escaped as numpy errors, and larger tables were
    # tabulated in full; the simulator now refuses what build refuses
    for run in (lambda: simulate(cfg, 2, seed=0), lambda: run_once(cfg, run_rng(0, 0), [])):
        with pytest.raises(ConfigError, match=f"{key}=.* exceeds 32767"):
            run()


def test_deadlocked_runs_are_flagged_and_replayable():
    cfg = ScenarioConfig().with_tcu(3)
    agg = simulate(cfg, 300, seed=4)
    assert agg.n_deadlocked > 0
    r = int(agg.deadlocked.argmax())
    trace = []
    stats = run_once(cfg, run_rng(4, r), trace=trace)
    assert stats.deadlocked
    final = trace[-1]
    assert not Automaton(cfg).successor_distribution(final)
    assert any(sd.phase == SenderPhase.SEND_RTS for sd in final.senders)


def test_traced_runs_classify_each_state_once(monkeypatch):
    calls = []
    step_kind = Automaton.step_kind

    def counted(self, state):
        calls.append(state)
        return step_kind(self, state)

    monkeypatch.setattr(Automaton, "step_kind", counted)
    for cfg in (ScenarioConfig(nmax_msg=2), ScenarioConfig().with_tcu(3)):
        for r in range(5):
            trace, calls[:] = [], []
            run_once(cfg, run_rng(4, r), trace)
            assert calls == trace


def test_simulate_reports_its_counts_at_debug_level_only(caplog):
    cfg = ScenarioConfig(n_senders=3)
    with caplog.at_level(logging.WARNING):
        simulate(cfg, 50, seed=1)
    assert not caplog.records
    # the counts are the call's own, and the first call on a config fills
    # its tables
    montecarlo._automaton.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="ecomac_backoff.montecarlo"):
        agg = simulate(cfg, 50, seed=1)
    # the streams' first fill of a whole row, ceil(1024 / 50) = 21 blocks a
    # lane, is one Philox call, and no lane outruns it; the table plays 7
    # keys in 90 plain ticks: the 5 canonical keys the batch meets and the
    # horizon's probes (-1, 0, 4) and (-1, 0, 2), its third, (-1, 0, 1),
    # being one of the 5; no key is played in full; summed over the passes,
    # 54 distinct sorted draw vectors are answered from a parked
    # representative and 7 from a latched one; the crossing table settles
    # 12 keys: a sleep at e 0..4, a delivery at e 0..5, and a done sender
    [record] = caplog.records
    assert agg.rounds.sum() == 168
    assert record.getMessage() == ("simulate: 50 runs, 168 rounds, 1 Philox calls, "
                                   "1050 Philox blocks, 7 rows played, 90 plain ticks, "
                                   "0 played in full, 54 rows folded, 7 rows latched, "
                                   "12 crossing keys settled")
    # a repeat call reads the tables the first one filled: it plays,
    # probes and settles nothing, and answers as many rows from a
    # representative
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ecomac_backoff.montecarlo"):
        simulate(cfg, 50, seed=1)
    [record] = caplog.records
    assert record.getMessage() == ("simulate: 50 runs, 168 rounds, 1 Philox calls, "
                                   "1050 Philox blocks, 0 rows played, 0 plain ticks, "
                                   "0 played in full, 54 rows folded, 7 rows latched, "
                                   "0 crossing keys settled")


def test_success_rate_matches_the_draw_odds(two_sender_cfg):
    # the first round is won by the smaller of two draws from {1..7}
    agg = simulate(two_sender_cfg, 20_000, seed=12)
    won_clean = (agg.successes[:, 0, 0] > 0).astype(float)
    se = won_clean.std(ddof=1) / np.sqrt(len(won_clean))
    assert abs(won_clean.mean() - 21 / 49) < 3 * se


def test_runs_show_no_serial_correlation(two_sender_cfg):
    agg = simulate(two_sender_cfg, 5000, seed=8)
    x = agg.idle_seconds(0)
    x = x - x.mean()
    lag1 = (x[:-1] * x[1:]).mean() / (x * x).mean()
    assert abs(lag1) < 4 / np.sqrt(len(x))


def test_tick_accounting_excludes_zero_duration_steps(lone_cfg):
    # a lone winner spends draw*unit countdown ticks plus the fixed exchange:
    # two switches, request and grant frames, one tick waiting for the grant
    exchange = 2 * lone_cfg.d_switch + 2 * lone_cfg.d_frame + 1
    for r in range(10):
        trace = []
        stats = run_once(lone_cfg, run_rng(23, r), trace=trace)
        draw = trace[1].senders[0].rbc
        assert stats.ticks == lone_cfg.tcu_ticks * draw + exchange


def test_rejects_need_at_least_two_runs(two_sender_cfg):
    with pytest.raises(ConfigError):
        simulate(two_sender_cfg, 1, seed=0)
    with pytest.raises(ConfigError):
        mean_ci95(np.array([1.0]))


def test_mean_ci95_formula():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    mean, ci = mean_ci95(x)
    assert mean == 2.5
    assert abs(ci - 1.96 * x.std(ddof=1) / 2.0) < 1e-15
