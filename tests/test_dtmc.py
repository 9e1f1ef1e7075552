"""Exact engine: state-space construction and verification queries."""

import hashlib
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
    # the first draw row of six senders has 7**6 equal branches, whose
    # naive float sum misses 1 by more than the row audit's tolerance
    with pytest.raises(StateSpaceLimitError):
        build(ScenarioConfig(n_senders=6), max_states=100)


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


# SHA-256 of each DTMC array (its dtype and shape, then its bytes) and of
# the dump, recorded from an earlier exact engine: unlike the reference BFS,
# they pin the whole model without reaching the automaton under test.  No
# sampled output is pinned, as numpy does not promise stable streams.
_PINNED_CONFIGS = {
    "lone_three_packets": ScenarioConfig(n_senders=1, nmax_msg=3),
    "default": ScenarioConfig(),
    "three_senders": ScenarioConfig(n_senders=3, nmax_msg=1),
    "short_unit": ScenarioConfig(tcu_ticks=3),
    "robust_short_unit": ScenarioConfig(tcu_ticks=3, robust_mode=True),
    "reject_heavy": ScenarioConfig(nmax_msg=2, table=_REJECT_HEAVY),
}
_PINNED_DIGESTS = {
    "lone_three_packets": {
        "features": "cb05a3a20831a9103559b8430bc405bf7fd04a5b90f5d828f8c335ea47f39e00",
        "indptr": "8a8147f6c948d727a60516d80f576c0a31edd9e3799cb4cc9a0cfae0f5ce8dff",
        "cols": "ce13db0e3928cfb9f3cafc5e6f83ef8145615b21827717b8728c74ab110c1876",
        "probs": "f5380db2391c528615c0a43af81b496ba92a7d7b554e91b57bb9ed48215236f7",
        "parent": "6d511436523707589eddacdf1ec360ca607d28cccd109f3bd0239708ae6dd84a",
        "deadlock_indices": "55ae42cc1e37a5eb9f1634d077a895b753167504b99a5416b6affbd3512a86f6",
        "terminal_mask": "7d473c0576e9e327bd3a420f644b82b5420ac9a190704e2905811c9250d674b1",
        "dump": "4d813d68bea190e42283a878798eb7f5209fe3d46f7b656fa078c920318060c8",
    },
    "default": {
        "features": "8a4d9991dca0292a65ef3844d4e2b85d6167df72e4537c4e0732327db22ee37f",
        "indptr": "2826bfbcfbc65cd8887751cc83d7263392f1f3045bcc784e32ba1060e6c7c78b",
        "cols": "3c6cf474dbc3d7e97dbd303ac071c10c9edb06fc1aa79026b44cd83b031906bf",
        "probs": "1ee0d9401b9e62727c8153da0e182152435cc6e5379df8c4cb2729c042dec34f",
        "parent": "6c079d0ecf5e2f02f3245720ae49bc44d16cd86c88e6c5d2f0421ae9bfad3c81",
        "deadlock_indices": "55ae42cc1e37a5eb9f1634d077a895b753167504b99a5416b6affbd3512a86f6",
        "terminal_mask": "d812da7494a82a4abfa6de9efb1620e5bb0ab42471a4b6116ff9670ef5503024",
        "dump": "b093c75999582f25d5d934680c3e9c2073e632703032ab323c6356c6964d12e0",
    },
    "three_senders": {
        "features": "b71eeac83c3d1a5f72bd2a60f6a2436823b5b85df894d0226c595f6aededf1bf",
        "indptr": "1ac8048c6c04652740eb35150953b7f6b2de86d6ca30bee71f2f7a9ce75bb302",
        "cols": "cf12339d14290f18b9ff3c244db7f392525378ba6a692a33d5b33bb3b2bed947",
        "probs": "4e6d750f3fb5ccef5387d974fae99b5e30cf3ee760ab5ecedec46f35678f09d6",
        "parent": "a62ed38636dda3d851f6d97abe89cc087b9beabce9ff3b3e10b88b61e997e9f3",
        "deadlock_indices": "55ae42cc1e37a5eb9f1634d077a895b753167504b99a5416b6affbd3512a86f6",
        "terminal_mask": "c14155deaf47084429d2bd439563e2e5f5ac6b149591701bad1167be353f54ed",
        "dump": "8b44a977b90341fabb1fc981eb655527c3b816b5bf03d05811d987f80d87d700",
    },
    "short_unit": {
        "features": "aca13786151260260ff52cd327df3646e1b943aea15ff045f0909fe13cd65477",
        "indptr": "aa6ce9869d5d517fb352de3418df406d8d0014c0369a13bdbb48a184569d068b",
        "cols": "3f055bc15a924c08af1bbf0c8bcbb3a4d138894367a98ea37fab6f71b54ff618",
        "probs": "874e9e71c6de4efc7286daad8e18ef0d4d59598b657d83719f962188cde16bdf",
        "parent": "e3c84f7168df7bd7200c5a9c3953d0b7d88e01d5b31f256c2c7786b03da57a19",
        "deadlock_indices": "8497e5b0e2e3caf991a68a8679a6f36ebcd54bd7d6baaea81a33c6479a4612e2",
        "terminal_mask": "633a9aa29901aeda1c8d6c5c1ce9052f5a5ba7af167c63d1dc75dbdc3395e313",
        "dump": "cf28e6ac6c218515afa35ba7e81bf927dbac1b80329963580426d194a4c14828",
    },
    "robust_short_unit": {
        "features": "11953b8efc84f9ae7e745ae70144716227f311873c55402a7183423f77ddfe18",
        "indptr": "54e9f8c43c01a03c45f3a556441bec574a6c120aee594724c447356996db1dbc",
        "cols": "cf7cde4f91e0ba3483b28b8675c73a9d843cbbcf2940d2175949bb8a8aefd94b",
        "probs": "b3b5162f996d8ce16a21b282a45c4cbb3c5e1be35984be3356c1d44c7f29e1bb",
        "parent": "74b4b7a7a3a58840ff58bb8b0358138844b4c3493d577ca4f9c75a5dcbb31410",
        "deadlock_indices": "55ae42cc1e37a5eb9f1634d077a895b753167504b99a5416b6affbd3512a86f6",
        "terminal_mask": "f2a4b41e911cfc8e37ba2f3d84dec1b625841d3ac05dccbe28c1c33d30999fb9",
        "dump": "e366eefe8f2707d54fffeb8fbb0910f4e753bb694909cb598221ab0c9beca1c3",
    },
    "reject_heavy": {
        "features": "1d86bc88c4a67014611abaa7d536770ca155d5712aac262385740a108fe5bb7b",
        "indptr": "375c9dd61fd898ceeb4925a5a5ccac3d6269f5973ffb6e78e8804627c2249c42",
        "cols": "ada0d78a2ac3d911947f8c8d020e472d10b98a664204643cd54883cd530a21bd",
        "probs": "f4b09ff4873df5ba158d1d78013eb4a1cf50a9373f2f90ac19e04a889639beda",
        "parent": "a066eb4dacbbb5b90aa2e06a3f10cccfc3f6ed5fb9117fbc75ef8ee45f3b4b88",
        "deadlock_indices": "55ae42cc1e37a5eb9f1634d077a895b753167504b99a5416b6affbd3512a86f6",
        "terminal_mask": "575ab1f23b57bf39cd2d3738962cfff73d8aed9928926171dab2367787c43b4d",
        "dump": "6677f861530fda657fd746e19d1cd0d15fddc08c71b22e1ebcfc438f3b1ad053",
    },
}


@pytest.mark.parametrize("name", sorted(_PINNED_CONFIGS))
def test_build_output_matches_its_pinned_digests(name, tmp_path):
    d = build(_PINNED_CONFIGS[name])
    got = {}
    for array_name in ("features", "indptr", "cols", "probs", "parent",
                       "deadlock_indices", "terminal_mask"):
        a = getattr(d, array_name)
        got[array_name] = hashlib.sha256(
            f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()
    dump_statespace(d, tmp_path / "dump.txt")
    got["dump"] = hashlib.sha256((tmp_path / "dump.txt").read_bytes()).hexdigest()
    assert got == _PINNED_DIGESTS[name]


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
