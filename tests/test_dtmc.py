"""Exact engine: state-space construction and verification queries."""

import logging
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecomac_backoff
from ecomac_backoff import (
    DEFAULT_TABLE,
    DTMC,
    Automaton,
    BackoffTable,
    ContentionWindow,
    ReceiverPhase,
    ScenarioConfig,
    SenderPhase,
    almost_sure_leads_to,
    build,
    check_invariant,
    dump_statespace,
    expected_entries,
    expected_reward,
    expected_visits,
    find_deadlocks,
    idle_listening_rewards,
    prob_reach,
)
from ecomac_backoff.dtmc import _solve_fixed_point
from ecomac_backoff.errors import (
    RewardUndefinedError,
    SolverError,
    StateSpaceLimitError,
)


def first_round_outcomes():
    """Brute force over the 49 equally likely first draws.

    The smaller draw wins the round; a tie collides.  Computed from the
    window arithmetic alone, independent of the automaton.
    """
    win1 = Fraction(sum(1 for a in range(1, 8) for b in range(1, 8) if a < b), 49)
    tie = Fraction(sum(1 for a in range(1, 8) for b in range(1, 8) if a == b), 49)
    return win1, tie


# -- construction ------------------------------------------------------------------


def test_lone_sender_chain_shape(lone_model):
    assert lone_model.n_states == 72
    assert lone_model.n_edges == 78
    assert int(lone_model.terminal_mask.sum()) == 1
    assert len(lone_model.deadlock_indices) == 0


def test_bfs_parents_precede_children(two_sender_model):
    d = two_sender_model
    assert d.parent[0] == -1
    assert (d.parent[1:] < np.arange(1, d.n_states)).all()


def test_rows_are_stochastic(two_sender_model):
    d = two_sender_model
    sums = np.add.reduceat(d.probs, d.indptr[:-1])
    sums[np.diff(d.indptr) == 0] = 1.0  # deadlock rows are empty
    assert np.abs(sums - 1.0).max() < 1e-12


def test_rebuild_is_deterministic(two_sender_cfg, two_sender_model):
    again = build(two_sender_cfg)
    assert (again.features == two_sender_model.features).all()
    assert (again.indptr == two_sender_model.indptr).all()
    assert (again.cols == two_sender_model.cols).all()
    assert (again.probs == two_sender_model.probs).all()


def test_state_cap_is_enforced(two_sender_cfg):
    with pytest.raises(StateSpaceLimitError):
        build(two_sender_cfg, max_states=100)


def test_feature_columns_reconstruct_states(two_sender_model):
    d = two_sender_model
    for idx in (0, 1, d.n_states // 2, d.n_states - 1):
        st = d.state_at(idx)
        assert d.sender_phase(0)[idx] == st.senders[0].phase
        assert d.sender_rbc(1)[idx] == st.senders[1].rbc
        assert d.receiver_phase()[idx] == st.receiver.phase
    assert d.labels_of(0) == {"s0_choose", "s1_choose", "r_w_start",
                              "s0_e_0", "s1_e_0", "s0_rbc_-1", "s1_rbc_-1",
                              "s0_msgs_1", "s1_msgs_1"}


def test_every_edge_leads_to_the_automaton_successor(two_sender_cfg, two_sender_model):
    # the feature rows decode to the very states the automaton stepped
    d = two_sender_model
    auto = Automaton(two_sender_cfg)
    assert d.state_at(0) == auto.initial_state()
    for i in range(d.n_states):
        lo, hi = d.indptr[i], d.indptr[i + 1]
        branches = auto.successor_distribution(d.state_at(i)).branches
        assert [d.state_at(j) for j in d.cols[lo:hi].tolist()] == [t for _, t in branches]
        assert d.probs[lo:hi].tolist() == [p for p, _ in branches]


def reference_build(cfg):
    """Plain BFS: one successor_distribution call per state, keyed on GlobalState."""
    auto = Automaton(cfg)
    states = [auto.initial_state()]
    index = {states[0]: 0}
    indptr, cols, probs, parent, deadlocks, terminal = [0], [], [], [-1], [], []
    for src, state in enumerate(states):
        branches = auto.successor_distribution(state).branches
        if not branches:
            deadlocks.append(src)
        terminal.append(len(branches) == 1 and branches[0][1] == state)
        for p, nxt in branches:
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                parent.append(src)
            cols.append(index[nxt])
            probs.append(p)
        indptr.append(len(cols))
    features = [[v for sd in s.senders for v in sd] + list(s.receiver) for s in states]
    return {"features": np.array(features, dtype=np.int16),
            "indptr": np.array(indptr, dtype=np.int64),
            "cols": np.array(cols, dtype=np.int32),
            "probs": np.array(probs, dtype=np.float64),
            "parent": np.array(parent, dtype=np.int32),
            "deadlock_indices": np.array(deadlocks, dtype=np.int64),
            "terminal_mask": np.array(terminal, dtype=bool)}


def assert_matches_reference(cfg):
    d = build(cfg)
    for name, want in reference_build(cfg).items():
        got = getattr(d, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert (got == want).all(), name


# every failure count draws 0 or 1, so rounds collide often and packets
# reach the failure cap
_REJECT_HEAVY = BackoffTable(((0, 1, ContentionWindow(0, 1)),), e_max=1, b_max=1)


@settings(max_examples=15, deadline=None)
@given(n_senders=st.integers(1, 2), nmax_msg=st.integers(0, 2), robust=st.booleans(),
       tcu=st.sampled_from([3, 8, 13]), d_switch=st.sampled_from([0, 1]),
       table=st.sampled_from([DEFAULT_TABLE, _REJECT_HEAVY]))
def test_build_matches_the_reference_bfs(n_senders, nmax_msg, robust, tcu, d_switch, table):
    assert_matches_reference(ScenarioConfig(
        n_senders=n_senders, nmax_msg=nmax_msg, robust_mode=robust, tcu_ticks=tcu,
        d_switch=d_switch, table=table))


def test_three_sender_build_matches_the_reference_bfs():
    assert_matches_reference(ScenarioConfig(n_senders=3, nmax_msg=1))


def test_build_reports_its_counts_at_debug_level_only(two_sender_cfg, caplog):
    with caplog.at_level(logging.WARNING):
        build(two_sender_cfg)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="ecomac_backoff.dtmc"):
        d = build(two_sender_cfg)
    [record] = caplog.records
    assert record.getMessage().startswith(
        f"build: {d.n_states} states, {d.n_edges} edges, ")
    assert record.getMessage().endswith(" successor_distribution calls")


def test_terminal_mask_is_exactly_the_all_done_states(two_sender_model):
    d = two_sender_model
    done = (d.sender_phase(0) == SenderPhase.DONE) & (d.sender_phase(1) == SenderPhase.DONE)
    assert (d.terminal_mask == np.asarray(done)).all()


# -- reachability ------------------------------------------------------------------


def test_first_round_win_probability(two_sender_model):
    d = two_sender_model
    win1, _ = first_round_outcomes()
    mask = np.asarray((d.sender_phase(0) == SenderPhase.SUCCESS) & (d.sender_e(0) == 0))
    assert abs(prob_reach(d, mask)[0] - float(win1)) < 1e-9


def test_first_round_collision_probability(two_sender_model):
    d = two_sender_model
    _, tie = first_round_outcomes()
    mask = np.asarray(
        (np.asarray(d.receiver_phase()) == ReceiverPhase.COLLISION)
        & (d.sender_e(0) == 0) & (d.sender_e(1) == 0)
    )
    assert abs(prob_reach(d, mask)[0] - float(tie)) < 1e-9


def test_outcome_probabilities_partition(two_sender_model):
    d = two_sender_model
    total = 0.0
    success = d.sender_phase(0) == SenderPhase.SUCCESS
    for k in range(13):
        total += prob_reach(d, np.asarray(success & (d.sender_e(0) == k)))[0]
    total += prob_reach(d, np.asarray(d.sender_phase(0) == SenderPhase.REJECT))[0]
    assert abs(total - 1.0) < 1e-9


def test_visits_and_entries_agree_with_reachability(two_sender_model):
    # with one packet each, outcome states are hit at most once
    d = two_sender_model
    mask = np.asarray(d.sender_phase(0) == SenderPhase.SUCCESS)
    p = prob_reach(d, mask)[0]
    assert abs(expected_visits(d, mask) - p) < 1e-9
    assert abs(expected_entries(d, mask) - p) < 1e-9


def test_visit_counts_reject_terminal_states(two_sender_model):
    with pytest.raises(ValueError):
        expected_visits(two_sender_model, two_sender_model.terminal_mask)


def _residual(d, x, pinned, rewards=None):
    """Largest |Px + r - x| over unpinned states, by a plain CSR matvec."""
    rows = np.repeat(np.arange(d.n_states), np.diff(d.indptr))
    y = np.bincount(rows, weights=d.probs * x[d.cols], minlength=d.n_states)
    if rewards is not None:
        y += rewards
    free = ~pinned
    return np.abs(y[free] - x[free]).max() if free.any() else 0.0


@settings(max_examples=12, deadline=None)
@given(n_senders=st.integers(1, 2), robust=st.booleans(),
       tcu=st.sampled_from([3, 8, 13]))
def test_level_solves_satisfy_the_fixed_point(n_senders, robust, tcu):
    d = build(ScenarioConfig(n_senders=n_senders, robust_mode=robust, tcu_ticks=tcu))
    n = d.n_states
    absorbing = d.terminal_mask | d.deadlock_mask()
    phase, e = d.sender_phase(0), d.sender_e(0)
    success = phase == SenderPhase.SUCCESS
    targets = np.stack([success, success & (e == 1), phase == SenderPhase.REJECT,
                        phase == SenderPhase.SLEEP], axis=1)
    # stacked masks are solved in one sweep, column for column like one mask
    stacked = prob_reach(d, targets)
    entries = expected_entries(d, targets)
    assert stacked.shape == targets.shape and entries.shape == (targets.shape[1],)
    for k in range(targets.shape[1]):
        x = prob_reach(d, targets[:, k])
        assert (stacked[:, k] == x).all()
        assert _residual(d, x, targets[:, k] | absorbing) <= 1e-12
        assert entries[k] == expected_entries(d, targets[:, k])
    # shortened units deadlock, so the reward runs until done or stuck
    target = np.asarray(phase == SenderPhase.DONE) | d.deadlock_mask()
    pinned = target | absorbing
    rewards = idle_listening_rewards(d, 0)
    x = _solve_fixed_point(d, pinned, np.zeros(n), rewards)
    assert _residual(d, x, pinned, rewards) <= 1e-12
    # expected_reward's sweep: reach and reward as two columns, pinned alike
    both = _solve_fixed_point(d, np.stack([pinned, pinned], axis=1),
                              np.stack([target, np.zeros(n, dtype=bool)], axis=1),
                              np.stack([np.zeros(n), rewards], axis=1))
    assert (both[:, 1] == x).all()
    assert _residual(d, both[:, 0], pinned) <= 1e-12
    assert expected_reward(d, rewards, target) == x[0]


def test_masks_of_the_wrong_shape_are_refused(lone_model):
    n = lone_model.n_states
    for shape in [(), (n - 1,), (n + 1,), (1, n), (n + 1, 2), (n, 2, 1)]:
        mask = np.zeros(shape, dtype=bool)
        with pytest.raises(ValueError, match="state mask has shape"):
            prob_reach(lone_model, mask)
        with pytest.raises(ValueError, match="state mask has shape"):
            expected_entries(lone_model, mask)


def test_cyclic_model_is_refused():
    # two states feeding each other: no level order exists
    d = DTMC(
        cfg=ScenarioConfig(n_senders=1), n_states=2,
        features=np.zeros((2, 8), dtype=np.int16),
        indptr=np.array([0, 1, 2], dtype=np.int64),
        cols=np.array([1, 0], dtype=np.int32),
        probs=np.array([1.0, 1.0]),
        parent=np.array([-1, 0], dtype=np.int32),
        deadlock_indices=np.empty(0, dtype=np.int64),
        terminal_mask=np.zeros(2, dtype=bool),
    )
    assert d.topo_levels()[1] is False
    with pytest.raises(SolverError):
        prob_reach(d, np.array([False, False]))
    with pytest.raises(SolverError):
        expected_visits(d, np.array([True, False]))


# -- rewards -----------------------------------------------------------------------


def test_lone_sender_idle_listening_reward(lone_model):
    # E[draw] = 4 units of 8 ticks at 0.001714 s per tick
    rewards = idle_listening_rewards(lone_model, 0)
    done = np.asarray(lone_model.sender_phase(0) == SenderPhase.DONE)
    assert abs(expected_reward(lone_model, rewards, done) - 0.054848) < 1e-9


def test_reward_requires_an_almost_sure_target(two_sender_model):
    d = two_sender_model
    rewards = idle_listening_rewards(d, 0)
    impossible = np.asarray((d.sender_phase(0) == SenderPhase.REJECT) & (d.sender_e(0) == 0))
    assert not impossible.any()
    with pytest.raises(RewardUndefinedError):
        expected_reward(d, rewards, impossible)


def test_reward_undefined_when_deadlocks_intervene():
    cfg = ScenarioConfig().with_tcu(3)
    d = build(cfg)
    done = np.asarray(d.sender_phase(0) == SenderPhase.DONE)
    with pytest.raises(RewardUndefinedError):
        expected_reward(d, idle_listening_rewards(d, 0), done)


# -- qualitative queries -------------------------------------------------------------


def test_invariant_violation_yields_a_shortest_trace(two_sender_model):
    d = two_sender_model
    report = check_invariant(
        d, np.asarray(d.sender_phase(0) != SenderPhase.SLEEP), "sender 1 never sleeps"
    )
    assert not report.holds
    trace = report.counterexample.indices
    assert trace[0] == 0
    assert d.sender_phase(0)[trace[-1]] == SenderPhase.SLEEP
    for u, v in zip(trace, trace[1:]):
        assert v in d.cols[d.indptr[u]:d.indptr[u + 1]]
    # BFS index order bounds the distance from the start
    assert all(np.asarray(d.sender_phase(0))[: trace[-1]] != SenderPhase.SLEEP)


def test_leads_to_holds_for_countdown_exhaustion(two_sender_model):
    d = two_sender_model
    trigger = np.asarray((d.sender_phase(0) == SenderPhase.COUNTDOWN) & (d.sender_rbc(0) == 1))
    report = almost_sure_leads_to(d, trigger, two_sender_model.terminal_mask, "drains")
    assert report.holds


def test_leads_to_fails_with_a_witness(two_sender_model):
    d = two_sender_model
    trigger = np.zeros(d.n_states, dtype=bool)
    trigger[0] = True
    goal = np.asarray((d.sender_phase(0) == SenderPhase.SUCCESS) & (d.sender_e(0) == 0))
    report = almost_sure_leads_to(d, trigger, goal, "always wins the first round")
    assert not report.holds
    trace = report.counterexample.indices
    assert trace[0] == 0
    # the witness ends where a zero-failure win is out of reach
    assert prob_reach(d, goal)[trace[-1]] == 0.0
    for u, v in zip(trace, trace[1:]):
        assert v in d.cols[d.indptr[u]:d.indptr[u + 1]]


def test_deadlock_traces_in_the_short_unit():
    d = build(ScenarioConfig().with_tcu(3))
    assert len(d.deadlock_indices) > 0
    traces = find_deadlocks(d, limit=3)
    for tr in traces:
        labels = d.labels_of(tr.indices[-1])
        assert any(l.endswith("_send_rts") for l in labels)
        assert labels & {"r_switch_rt", "r_send_cts", "r_w_end"}


def test_exact_engine_imports_no_scipy():
    src = str(Path(ecomac_backoff.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ecomac_backoff; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


# -- dumps --------------------------------------------------------------------------


def test_dump_format_and_determinism(lone_model, tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    dump_statespace(lone_model, p1)
    dump_statespace(lone_model, p2)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    assert b"\r" not in data
    lines = data.decode("ascii").splitlines()
    assert len(lines) == lone_model.n_states
    for line in lines[:5]:
        idx, labels, succs = line.split("\t")
        assert int(idx) >= 0
        parts = labels.split(",")
        assert parts == sorted(parts)
        for tok in succs.split():
            j, p = tok.split(":")
            assert 0 <= int(j) < lone_model.n_states
            assert 0.0 < float(p) <= 1.0
