"""Monte Carlo runs: conservation, determinism, and agreement with the exact engine."""

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
from ecomac_backoff.errors import ConfigError
from ecomac_backoff.montecarlo import _rekey


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


# every failure count draws 0 or 1, so rounds collide often and packets
# reach the failure cap
_REJECT_HEAVY = BackoffTable(((0, 1, ContentionWindow(0, 1)),), e_max=1, b_max=1)


# a switch slower than a frame: a rival can start its request after the
# winner's grant, so a round can deliver a packet and then deadlock
_SLOW_SWITCH = {"d_switch": 2, "d_frame": 1, "d_rssi": 0, "cts_timeout": 1}


@settings(max_examples=25, deadline=None)
@given(n_senders=st.integers(1, 3), nmax_msg=st.integers(0, 3), robust=st.booleans(),
       tcu=st.sampled_from([1, 3, 8, 13]), table=st.sampled_from([DEFAULT_TABLE, _REJECT_HEAVY]),
       timing=st.sampled_from([{}, _SLOW_SWITCH]), seed=st.integers(0, 2**64 - 1))
# most of these runs deadlock, or reach the failure cap
@example(n_senders=3, nmax_msg=2, robust=False, tcu=3, table=DEFAULT_TABLE, timing={},
         seed=12345)
@example(n_senders=3, nmax_msg=2, robust=True, tcu=3, table=DEFAULT_TABLE, timing={},
         seed=12345)
@example(n_senders=2, nmax_msg=1, robust=False, tcu=1, table=DEFAULT_TABLE,
         timing=_SLOW_SWITCH, seed=0)
def test_memoized_rounds_match_traced_runs(n_senders, nmax_msg, robust, tcu, table, timing,
                                           seed):
    # traced runs step through successor_distribution, the exact builder's
    # step function, so they check the round table and the boundary memo
    # that batches read against the exact model
    cfg = ScenarioConfig(n_senders=n_senders, nmax_msg=nmax_msg, table=table,
                         tcu_ticks=tcu, robust_mode=robust, **timing)
    agg = simulate(cfg, 30, seed)
    auto = Automaton(cfg)
    draw_branches = {}
    runs = []
    for r in range(agg.n_runs):
        trace = []
        runs.append(run_once(cfg, run_rng(seed, r), trace=trace))
        assert (not auto.successor_distribution(trace[-1]).branches) == runs[-1].deadlocked
        # each traced draw is one of the exact model's draw branches
        for state, drawn in zip(trace, trace[1:]):
            if auto.step_kind(state) == StepKind.DRAW:
                if state not in draw_branches:
                    draw_branches[state] = {
                        nxt for p, nxt in auto.successor_distribution(state).branches if p > 0}
                assert drawn in draw_branches[state]
    for field in ("successes", "rejects", "idle_ticks", "ticks", "rounds", "deadlocked"):
        sampled = getattr(agg, field)
        traced = np.array([getattr(stats, field) for stats in runs])
        assert traced.dtype == sampled.dtype and traced.shape == sampled.shape
        assert (traced == sampled).all(), field


@pytest.mark.parametrize("seed", [0, 12345, 2**63 + 12345, 2**64 - 1])
def test_reset_generator_draws_each_runs_stream(seed):
    rng = run_rng(99, 99)
    for r in (0, 1, 4999):
        rng.integers(0, 7)  # leaves half a 64-bit word buffered
        _rekey(rng, seed, r)
        fresh = run_rng(seed, r)
        for hi in (8, 2, 1, 2**63, 5, 8):
            assert rng.integers(0, hi) == fresh.integers(0, hi)
        assert (rng.integers(2**63, size=8) == fresh.integers(2**63, size=8)).all()


def test_deadlocked_runs_are_flagged_and_replayable():
    cfg = ScenarioConfig().with_tcu(3)
    agg = simulate(cfg, 300, seed=4)
    assert agg.n_deadlocked > 0
    r = int(agg.deadlocked.argmax())
    trace = []
    stats = run_once(cfg, run_rng(4, r), trace=trace)
    assert stats.deadlocked
    final = trace[-1]
    assert not Automaton(cfg).successor_distribution(final).branches
    assert any(sd.phase == SenderPhase.SEND_RTS for sd in final.senders)


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
