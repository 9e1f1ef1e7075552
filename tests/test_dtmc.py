"""Exact engine: state-space construction and verification queries."""

import hashlib
import logging
import signal
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    find_deadlocks,
    idle_listening_rewards,
    label,
    reach_from_start,
    success_profile,
)
from ecomac_backoff import dtmc as dtmc_module
from ecomac_backoff.dtmc import _backward_closure, _backward_closures, _start_values
from ecomac_backoff.errors import (
    RewardUndefinedError,
    SolverError,
    StateSpaceLimitError,
)

from backoff_tables import REJECT_HEAVY, tables, timings


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


def test_frame_end_corners_pin_their_state_and_deadlock_counts():
    # with d_switch = 0 and d_frame = 1 a one-tick request can end while the
    # receiver still waits for one, so the receiver reads whose frame ended;
    # per (d_rssi, cts_timeout), (n_states, n_deadlocks) without and with
    # robust_mode
    table = {
        (0, 1): ((1321, 26), (1347, 0)),
        (0, 3): ((1347, 26), (1425, 0)),
        (1, 1): ((1903, 0), (1903, 0)),
        (1, 3): ((1929, 0), (1929, 0)),
    }
    for (d_rssi, cts_timeout), counts in table.items():
        for robust, want in zip((False, True), counts):
            d = build(ScenarioConfig(n_senders=2, d_switch=0, d_frame=1, d_rssi=d_rssi,
                                     cts_timeout=cts_timeout, robust_mode=robust))
            assert (d.n_states, d.deadlock_indices.size) == want, (d_rssi, cts_timeout, robust)


def test_timing_corners_pin_their_state_and_deadlock_counts():
    # the other 40 two-sender corners of d_switch in {0, 1}, d_frame in
    # {1, 2, 5}, d_rssi in {0, 1} and cts_timeout in {1, 3}, which no
    # workload builds; per (d_switch, d_frame) and (d_rssi, cts_timeout),
    # (n_states, n_deadlocks) without and with robust_mode.  Recorded before
    # the round walk counted the cap inline and the BFS numbering read a
    # layer of single-edge rows without a row gather
    table = {
        (0, 2): {(0, 1): ((2158, 26), (2210, 0)), (0, 3): ((2184, 26), (2288, 0)),
                 (1, 1): ((2766, 0), (2766, 0)), (1, 3): ((2792, 0), (2792, 0))},
        (0, 5): {(0, 1): ((4669, 26), (4799, 0)), (0, 3): ((4695, 26), (4877, 0)),
                 (1, 1): ((5355, 0), (5355, 0)), (1, 3): ((5381, 0), (5381, 0))},
        (1, 1): {(0, 1): ((2630, 26), (2708, 0)), (0, 3): ((2656, 26), (2786, 0)),
                 (1, 1): ((3186, 0), (3186, 0)), (1, 3): ((3212, 0), (3212, 0))},
        (1, 2): {(0, 1): ((3467, 26), (3545, 0)), (0, 3): ((3493, 26), (3623, 0)),
                 (1, 1): ((4049, 0), (4049, 0)), (1, 3): ((4075, 0), (4075, 0))},
        (1, 5): {(0, 1): ((5978, 26), (6134, 0)), (0, 3): ((6004, 26), (6212, 0)),
                 (1, 1): ((6638, 0), (6638, 0)), (1, 3): ((6664, 0), (6664, 0))},
    }
    for (d_switch, d_frame), rows in table.items():
        for (d_rssi, cts_timeout), counts in rows.items():
            for robust, want in zip((False, True), counts):
                corner = (d_switch, d_frame, d_rssi, cts_timeout, robust)
                d = build(ScenarioConfig(n_senders=2, d_switch=d_switch, d_frame=d_frame,
                                         d_rssi=d_rssi, cts_timeout=cts_timeout,
                                         robust_mode=robust))
                assert (d.n_states, d.deadlock_indices.size) == want, corner


@settings(max_examples=20, deadline=None)
@given(n_senders=st.integers(2, 3), robust=st.booleans(), tcu=st.sampled_from([None, 1, 3, 4]),
       timing=timings(), table=tables(DEFAULT_TABLE, REJECT_HEAVY))
@example(n_senders=3, robust=False, tcu=None, timing={}, table=DEFAULT_TABLE)
@example(n_senders=3, robust=True, tcu=3, timing={}, table=REJECT_HEAVY)
def test_cts_trigger_states_are_unreachable(n_senders, robust, tcu, timing, table):
    # the receiver answers only a request it heard alone: any other request
    # that overlaps it latches COLLISION, and one that starts later meets a
    # committed receiver, a deadlock or, in robust mode, COLLISION.  So
    # while a CTS goes out no rival waits for one, and its addressee has
    # left COUNTDOWN, and the tick rule has no branch for either state; a
    # rule change that reaches one fails here
    d = build(ScenarioConfig(n_senders=n_senders, nmax_msg=1, robust_mode=robust,
                             tcu_ticks=tcu, table=table, **timing))
    sending = d.receiver_phase() == ReceiverPhase.SEND_CTS
    for i in range(n_senders):
        phase, to_i = d.sender_phase(i), d.receiver_winner() == i
        assert not (sending & ~to_i & (phase == SenderPhase.WAIT_CTS)).any()
        assert not (sending & to_i & (phase == SenderPhase.COUNTDOWN)).any()


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


def test_state_cap_refuses_a_draw_row_before_holding_it():
    # the first draw row of six senders has 7**6 = 117 649 branches, more
    # than the cap, so it is refused before its first branch is held
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceLimitError):
            build(ScenarioConfig(n_senders=6), max_states=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_a_draw_row_past_the_cap_is_refused_before_its_first_branch():
    # 2 000 choosing senders make 7**2000 joint branches, each a distinct
    # drawn state, so the row's count alone refuses it
    taken = 0
    draw_branches = Automaton.draw_branches

    def counted(self, context, projection):
        nonlocal taken
        for branch in draw_branches(self, context, projection):
            taken += 1
            yield branch

    with patch.object(Automaton, "draw_branches", counted):
        with pytest.raises(StateSpaceLimitError):
            build(ScenarioConfig(n_senders=2000), max_states=5000)
    assert taken == 0


def test_state_cap_bounds_the_tick_steps():
    # a long unit makes long countdown chains; a build steps only the
    # projections of states it has found, so the cap bounds its steps too
    calls = 0
    next_projection = Automaton.next_projection

    def counted(self, projection):
        nonlocal calls
        calls += 1
        return next_projection(self, projection)

    with patch.object(Automaton, "next_projection", counted):
        with pytest.raises(StateSpaceLimitError):
            build(ScenarioConfig(tcu_ticks=4000), max_states=5000)
    assert calls <= 5000


def test_feature_columns_reconstruct_states(two_sender_model):
    d = two_sender_model
    for idx in (0, 1, d.n_states // 2, d.n_states - 1):
        st = d.state_at(idx)
        assert d.sender_phase(0)[idx] == st.senders[0].phase
        assert d.sender_rbc(1)[idx] == st.senders[1].rbc
        assert d.receiver_phase()[idx] == st.receiver.phase
    assert label(d.state_at(0)) == {"s0_choose", "s1_choose", "r_w_start",
                                    "s0_e_0", "s1_e_0", "s0_rbc_-1", "s1_rbc_-1",
                                    "s0_msgs_1", "s1_msgs_1"}


def test_every_edge_leads_to_the_automaton_successor(two_sender_model):
    # the feature rows decode to the very states the automaton stepped, also
    # where cached draw and boundary rows serve many contexts
    for d in (two_sender_model, build(_PINNED_CONFIGS["reject_heavy"])):
        auto = Automaton(d.cfg)
        assert d.state_at(0) == auto.initial_state()
        for i in range(d.n_states):
            lo, hi = d.indptr[i], d.indptr[i + 1]
            branches = auto.successor_distribution(d.state_at(i))
            assert [d.state_at(j) for j in d.cols[lo:hi].tolist()] == [t for _, t in branches]
            assert d.probs[lo:hi].tolist() == [p for p, _ in branches]


def test_build_never_forms_a_whole_state():
    # the builder steps (context, projection) pairs: stepping or joining a
    # GlobalState anywhere in a build fails it
    def refuse(*args, **kwargs):
        raise AssertionError("build formed a GlobalState")

    with patch.object(Automaton, "successor_distribution", refuse), \
            patch.object(Automaton, "join", staticmethod(refuse)):
        for cfg in _PINNED_CONFIGS.values():
            build(cfg)


def reference_build(cfg):
    """Plain BFS: one successor_distribution call per state, keyed on GlobalState."""
    auto = Automaton(cfg)
    states = [auto.initial_state()]
    index = {states[0]: 0}
    indptr, cols, probs, parent, deadlocks, terminal = [0], [], [], [-1], [], []
    for src, state in enumerate(states):
        branches = auto.successor_distribution(state)
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


# the narrowed table of the verifier benchmark, in which failure counts 0-1
# and 2-6 share their windows, and a table in which every draw is 0, so each
# draw row has one branch and lies on a run
_NARROWED = BackoffTable(((0, 1, ContentionWindow(1, 3)), (2, 6, ContentionWindow(0, 3))))
_DRAW_ZERO = BackoffTable(((0, 1, ContentionWindow(0, 0)),))


@settings(max_examples=15, deadline=None)
@given(n_senders=st.integers(1, 2), nmax_msg=st.integers(0, 2), robust=st.booleans(),
       tcu=st.sampled_from([3, 8, 13]), timing=timings(),
       table=tables(DEFAULT_TABLE, REJECT_HEAVY, _NARROWED))
def test_build_matches_the_reference_bfs(n_senders, nmax_msg, robust, tcu, timing, table):
    assert_matches_reference(ScenarioConfig(
        n_senders=n_senders, nmax_msg=nmax_msg, robust_mode=robust, tcu_ticks=tcu,
        table=table, **timing))


def test_shared_round_build_matches_the_reference_bfs():
    # 45 172 states: failure counts 0-1 and 2-6 share their windows, so each
    # explored round is stamped for many contexts
    assert_matches_reference(ScenarioConfig(nmax_msg=3, table=_NARROWED))


@pytest.mark.parametrize("cfg", [ScenarioConfig(), ScenarioConfig(nmax_msg=2, table=_NARROWED)],
                         ids=["defaults", "shared_rounds"])
def test_state_cap_admits_exactly_the_reachable_states(cfg):
    n = build(cfg).n_states
    assert build(cfg, max_states=n).n_states == n
    with pytest.raises(StateSpaceLimitError):
        build(cfg, max_states=n - 1)


def test_three_sender_build_matches_the_reference_bfs():
    assert_matches_reference(ScenarioConfig(n_senders=3, nmax_msg=1))


def test_three_sender_deadlocking_build_matches_the_reference_bfs():
    cfg = ScenarioConfig(n_senders=3, nmax_msg=1, tcu_ticks=3)
    assert len(build(cfg).deadlock_indices) > 0
    assert_matches_reference(cfg)


@pytest.mark.parametrize("rows, order, n_layers", [
    # the layer [1, 2, 3] has one edge per row, and 1 and 3 share the child
    # 5, which comes before 4 by first occurrence
    ([[1, 2, 3], [5], [4], [5], [], []], [0, 1, 2, 3, 5, 4], 3),
    # the layer [2, 1] has one edge per row, both to 3; 3 loops to itself
    ([[2, 1], [3], [3], [3]], [0, 2, 1, 3], 3),
    # the layer [1, 2] mixes three edges and one, repeats 3, and leads back
    # to the numbered 0
    ([[1, 2], [4, 3, 0], [3], [], []], [0, 1, 2, 4, 3], 3),
], ids=["single_edge_shared_child", "single_edge_merge", "mixed_repeat"])
def test_bfs_order_numbers_by_first_occurrence(rows, order, n_layers):
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    cols = np.array([j for row in rows for j in row], dtype=np.int32)
    got, layers = dtmc_module._bfs_order(indptr, cols)
    assert (got.tolist(), layers) == (order, n_layers)


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
    "reject_heavy": ScenarioConfig(nmax_msg=2, table=REJECT_HEAVY),
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


def reference_dump(d, path):
    """The per-state writer: one GlobalState, label set and sort per state."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for i in range(d.n_states):
            lo, hi = d.indptr[i], d.indptr[i + 1]
            succs = " ".join(
                f"{j}:{p:.12g}" for j, p in zip(d.cols[lo:hi].tolist(), d.probs[lo:hi].tolist()))
            fh.write(f"{i}\t{','.join(sorted(label(d.state_at(i))))}\t{succs}\n")


def test_dump_label_order_at_eleven_senders(tmp_path):
    # s10_ sorts before s1_, so the label field is not in sender order
    d = build(ScenarioConfig(n_senders=11, nmax_msg=1,
                             table=BackoffTable(((0, 1, ContentionWindow(2, 2)),))))
    dump_statespace(d, tmp_path / "dump.txt")
    lines = (tmp_path / "dump.txt").read_text().splitlines()
    assert len(lines) == d.n_states == 58
    for i, line in enumerate(lines):
        field = line.split("\t")[1]
        assert field == ",".join(sorted(label(d.state_at(i))))
        assert field.index("s10_") < field.index("s1_")


# the narrowed table draws with probability 1/3, whose digits run past
# the 12 printed
@settings(max_examples=15, deadline=None)
@given(shape=st.sampled_from([(1, 0), (1, 2), (2, 1), (2, 2), (3, 1)]), robust=st.booleans(),
       tcu=st.sampled_from([3, 8]), table=tables(_NARROWED), chunk=st.sampled_from([1, 7, 4096]))
def test_columnar_dump_matches_the_per_state_writer(shape, robust, tcu, table, chunk,
                                                    tmp_path_factory):
    n_senders, nmax_msg = shape
    d = build(ScenarioConfig(n_senders=n_senders, nmax_msg=nmax_msg, robust_mode=robust,
                             tcu_ticks=tcu, table=table))
    out = tmp_path_factory.mktemp("dump")
    reference_dump(d, out / "want.txt")
    # chunks of 1 and 7 states put chunk boundaries beside draw rows and deadlocks
    with patch.object(dtmc_module, "_DUMP_CHUNK", chunk):
        dump_statespace(d, out / "got.txt")
    assert (out / "got.txt").read_bytes() == (out / "want.txt").read_bytes()


def test_build_reports_its_counts_at_debug_level_only(two_sender_cfg, caplog):
    with caplog.at_level(logging.WARNING):
        build(two_sender_cfg)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="ecomac_backoff.dtmc"):
        d = build(two_sender_cfg)
    [record] = caplog.records
    assert record.getMessage().startswith(
        f"build: {d.n_states} states, {d.n_edges} edges, 178 layers, ")
    assert record.getMessage().endswith(" from cache)")


def test_plan_reports_its_counts_at_debug_level_only(two_sender_cfg, caplog):
    d = build(two_sender_cfg)
    with caplog.at_level(logging.WARNING):
        reach_from_start(d, d.terminal_mask)
    assert not caplog.records
    d = build(two_sender_cfg)
    with caplog.at_level(logging.DEBUG, logger="ecomac_backoff.dtmc"):
        reach_from_start(d, d.terminal_mask)
        reach_from_start(d, d.terminal_mask)
    # built once: 677 runs of about ten states leave 95 levels, not 718
    [record] = caplog.records
    assert record.getMessage() == ("plan: 6664 states, 677 runs, "
                                   "715 contracted nodes, 95 levels")


def test_terminal_mask_is_exactly_the_all_done_states(two_sender_model):
    d = two_sender_model
    done = (d.sender_phase(0) == SenderPhase.DONE) & (d.sender_phase(1) == SenderPhase.DONE)
    assert (d.terminal_mask == np.asarray(done)).all()


# -- reachability ------------------------------------------------------------------


def test_first_round_win_probability(two_sender_model):
    d = two_sender_model
    win1, _ = first_round_outcomes()
    mask = np.asarray((d.sender_phase(0) == SenderPhase.SUCCESS) & (d.sender_e(0) == 0))
    assert abs(reach_from_start(d, mask) - float(win1)) < 1e-9


def test_first_round_collision_probability(two_sender_model):
    d = two_sender_model
    _, tie = first_round_outcomes()
    mask = np.asarray(
        (np.asarray(d.receiver_phase()) == ReceiverPhase.COLLISION)
        & (d.sender_e(0) == 0) & (d.sender_e(1) == 0)
    )
    assert abs(reach_from_start(d, mask) - float(tie)) < 1e-9


def test_outcome_probabilities_partition(two_sender_model):
    d = two_sender_model
    total = 0.0
    success = d.sender_phase(0) == SenderPhase.SUCCESS
    for k in range(13):
        total += reach_from_start(d, np.asarray(success & (d.sender_e(0) == k)))
    total += reach_from_start(d, np.asarray(d.sender_phase(0) == SenderPhase.REJECT))
    assert abs(total - 1.0) < 1e-9


def test_visits_and_entries_agree_with_reachability(two_sender_model):
    # with one packet each, outcome states are hit at most once
    d = two_sender_model
    mask = np.asarray(d.sender_phase(0) == SenderPhase.SUCCESS)
    p = reach_from_start(d, mask)
    assert abs(expected_entries(d, mask) - p) < 1e-9


def test_entry_counts_reject_terminal_states(two_sender_model):
    with pytest.raises(ValueError, match="finite only for transient states"):
        expected_entries(two_sender_model, two_sender_model.terminal_mask)


def reference_solve(d, pinned, values, rewards=None):
    """Least solution of x = Px + r on the open chain (terminal self-loops
    dropped), each state pinned to `values` where `pinned`, by one sparse
    direct solve over all states."""
    from scipy.sparse import csc_matrix, identity
    from scipy.sparse.linalg import spsolve

    n = d.n_states
    rows = np.repeat(np.arange(n), np.diff(d.indptr))
    keep = (d.cols != rows) & ~pinned[rows]
    p = csc_matrix((d.probs[keep], (rows[keep], d.cols[keep])), shape=(n, n))
    b = np.where(pinned, values, 0.0 if rewards is None else rewards)
    return np.atleast_1d(spsolve((identity(n, format="csc") - p).tocsc(), b))


def close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=12, deadline=None)
@given(n_senders=st.integers(1, 2), nmax_msg=st.integers(0, 2), robust=st.booleans(),
       tcu=st.sampled_from([3, 8, 13]), timing=timings(),
       table=tables(DEFAULT_TABLE, REJECT_HEAVY, _NARROWED, _DRAW_ZERO))
def test_start_queries_match_a_sparse_direct_solve(n_senders, nmax_msg, robust, tcu, timing,
                                                  table):
    d = build(ScenarioConfig(n_senders=n_senders, nmax_msg=nmax_msg, robust_mode=robust,
                             tcu_ticks=tcu, table=table, **timing))
    n = d.n_states
    stuck = np.isin(np.arange(n), d.deadlock_indices)
    phase, e = d.sender_phase(0), d.sender_e(0)
    success = phase == SenderPhase.SUCCESS
    targets = np.stack([success, success & (e == 1), phase == SenderPhase.REJECT,
                        phase == SenderPhase.SLEEP], axis=1)
    # stacked masks are solved in one sweep, column for column like one mask
    reach = reach_from_start(d, targets)
    entries = expected_entries(d, targets)
    assert reach.shape == entries.shape == (targets.shape[1],)
    rows = np.repeat(np.arange(n), np.diff(d.indptr))
    for k, m in enumerate(targets.T):
        assert reach[k] == reach_from_start(d, m)
        assert close(reach[k], reference_solve(d, m, m * 1.0)[0])
        assert entries[k] == expected_entries(d, m)
        # entries, backward: each edge into the set from outside adds its
        # probability at its source; starting inside counts once
        inflow = np.bincount(rows, weights=d.probs * (m[d.cols] & ~m[rows]), minlength=n)
        want = reference_solve(d, np.zeros(n, dtype=bool), np.zeros(n), inflow)[0] + m[0]
        assert close(entries[k], want)
    rewards = idle_listening_rewards(d, 0)
    done = np.asarray(phase == SenderPhase.DONE)
    # idle time until done is defined only where done is reached almost
    # surely; until done or stuck, it always is
    if reference_solve(d, done, done * 1.0)[0] < 1.0 - 1e-9:
        with pytest.raises(RewardUndefinedError):
            expected_reward(d, rewards, done)
    else:
        assert close(expected_reward(d, rewards, done),
                     reference_solve(d, done, np.zeros(n), rewards)[0])
    # idle rewards lie on runs only; one per state also reaches the nodes
    target = done | stuck
    for r in (rewards, np.ones(n)):
        assert close(expected_reward(d, r, target), reference_solve(d, target, np.zeros(n), r)[0])


@settings(max_examples=12, deadline=None)
@given(n_senders=st.integers(1, 2), nmax_msg=st.integers(0, 2), robust=st.booleans(),
       tcu=st.sampled_from([3, 8, 13]),
       table=tables(DEFAULT_TABLE, REJECT_HEAVY, _NARROWED, _DRAW_ZERO))
def test_index_set_profiles_match_the_reference_solve(n_senders, nmax_msg, robust, tcu, table):
    cfg = ScenarioConfig(n_senders=n_senders, nmax_msg=nmax_msg, robust_mode=robust,
                         tcu_ticks=tcu, table=table)
    d = build(cfg)
    n, e_max = d.n_states, cfg.e_max
    phase, e = d.sender_phase(0), d.sender_e(0)
    success = phase == SenderPhase.SUCCESS
    exactly = [success & (e == k) for k in range(e_max + 1)]
    reject = phase == SenderPhase.REJECT
    # per sender: the 2*e_max + 3 reach columns, each solved on its own
    masks = exactly + [success & (e <= k) for k in range(e_max + 1)] + [reject]
    got = success_profile(cfg, mode="exact", dtmc=d)
    got = got.success_at.tolist() + got.cumulative.tolist() + [got.reject_prob]
    for x, m in zip(got, masks, strict=True):
        assert close(x, reference_solve(d, m, m * 1.0)[0])
    # per packet: each edge into the set from outside adds its probability
    # at its source; starting inside counts once
    got = success_profile(cfg, mode="exact", per_packet=True, dtmc=d)
    if nmax_msg == 0:
        assert not got.success_at.any() and got.reject_prob == 0.0
        return
    rows = np.repeat(np.arange(n), np.diff(d.indptr))
    nothing = np.zeros(n, dtype=bool)
    for x, m in zip(got.success_at.tolist() + [got.reject_prob], exactly + [reject], strict=True):
        inflow = np.bincount(rows, weights=d.probs * (m[d.cols] & ~m[rows]), minlength=n)
        assert close(x, (reference_solve(d, nothing, np.zeros(n), inflow)[0] + m[0]) / nmax_msg)


def test_no_stacked_masks_get_no_answers(lone_model):
    none = np.zeros((lone_model.n_states, 0), dtype=bool)
    for query in (reach_from_start, expected_entries):
        x = query(lone_model, none)
        assert x.dtype == np.float64 and x.shape == (0,)


def test_masks_of_the_wrong_shape_are_refused(lone_model):
    n = lone_model.n_states
    wrong = [(), (n - 1,), (n + 1,), (n + 5,), (1, n), (n + 1, 2), (n, 2, 1)]
    for shape in wrong:
        mask = np.zeros(shape, dtype=bool)
        with pytest.raises(ValueError, match="state mask has shape"):
            reach_from_start(lone_model, mask)
        with pytest.raises(ValueError, match="state mask has shape"):
            expected_entries(lone_model, mask)
    # the queries that take one mask refuse a stack of them too
    d, ok = lone_model, np.zeros(n, dtype=bool)
    for shape in wrong + [(n, 1), (n, 2)]:
        mask = np.zeros(shape, dtype=bool)
        for query in (lambda: check_invariant(d, ~mask, "all"),
                      lambda: almost_sure_leads_to(d, mask, ok, "leads"),
                      lambda: almost_sure_leads_to(d, ok, ~mask, "leads"),
                      lambda: expected_reward(d, np.zeros(n), mask)):
            with pytest.raises(ValueError, match="state mask has shape"):
                query()


def test_cyclic_model_is_refused():
    # two states feeding each other: no level order exists
    d = DTMC(
        cfg=ScenarioConfig(n_senders=1),
        features=np.zeros((2, 8), dtype=np.int16),
        indptr=np.array([0, 1, 2], dtype=np.int64),
        cols=np.array([1, 0], dtype=np.int32),
        probs=np.array([1.0, 1.0]),
    )
    assert d.topo_levels()[1] is False
    with pytest.raises(SolverError):
        reach_from_start(d, np.array([False, False]))
    with pytest.raises(SolverError):
        expected_entries(d, np.array([True, False]))


def hand_built(rows):
    """A one-sender DTMC whose row i lists state i's (successor, probability)
    pairs."""
    n = len(rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    return DTMC(
        cfg=ScenarioConfig(n_senders=1),
        features=np.zeros((n, 8), dtype=np.int16), indptr=indptr,
        cols=np.array([j for row in rows for j, _ in row], dtype=np.int32),
        probs=np.array([p for row in rows for _, p in row], dtype=np.float64),
    )


def test_deadlocks_terminals_and_parents_are_read_off_the_graph():
    # 3 has no edge, and 2 has only a self-loop
    d = hand_built([[(1, 0.5), (2, 0.5)], [(3, 1.0)], [(2, 1.0)], []])
    assert d.n_states == 4
    assert d.deadlock_indices.tolist() == [3]
    assert d.terminal_mask.tolist() == [False, False, True, False]
    assert d.parent.tolist() == [-1, 0, 0, 1]
    assert d.trace_to(3).indices == [0, 1, 3]
    # the cycle 1-2 has no way in: only a smaller predecessor is a parent,
    # so the tree has no cycle and every trace ends
    d = hand_built([[(3, 1.0)], [(2, 1.0)], [(1, 1.0)], []])
    assert d.parent.tolist() == [-1, -1, 1, 0]
    assert d.trace_to(1).indices == [1]
    assert d.trace_to(2).indices == [1, 2]


def solve_at_start(d, pinned, values, rewards=None):
    """The contracted solve's start values, checked against the sparse
    direct solve of every column.  Each column's pinned states share one
    value, and its nonzero rewards are passed as an index set."""
    pinned, values = np.reshape(pinned, (d.n_states, -1)), np.reshape(values, (d.n_states, -1))
    pins = [np.flatnonzero(m) for m in pinned.T]
    at = [np.unique(values[states, k]) for k, states in enumerate(pins)]
    assert all(v.size <= 1 for v in at)
    seeds = None
    if rewards is not None:
        rewards = np.reshape(rewards, (d.n_states, -1))
        seeds = [(np.flatnonzero(r), r[r != 0]) for r in rewards.T]
    x = _start_values(d, pins, [v[0] if v.size else 0.0 for v in at], seeds)
    for k in range(x.size):
        r = None if rewards is None else rewards[:, k]
        assert close(x[k], reference_solve(d, pinned[:, k], values[:, k], r)[0])
    return x


def contracted_nodes(d):
    return sorted(np.concatenate(d.topo_levels()[0]).tolist())


def test_a_merge_into_the_middle_of_a_run_starts_a_new_run():
    # 0 branches to the chains 1-2-3 and 4-5; 5 also enters 2, which splits
    # 1-2-3 into the runs 1 and 2-3
    d = hand_built([[(1, 0.5), (4, 0.5)], [(2, 1.0)], [(3, 1.0)], [(6, 1.0)],
                    [(5, 1.0)], [(2, 1.0)], []])
    assert contracted_nodes(d) == [0, 1, 2, 4, 6]
    pinned = np.arange(7) == 6
    rewards = np.arange(1, 8) * 0.25
    x2 = 0.75 + (1.0 + 1.0)
    x1, x4 = 0.5 + x2, 1.25 + (1.5 + x2)
    assert solve_at_start(d, pinned, pinned * 1.0, rewards).tolist() == [0.25 + 0.5 * (x1 + x4)]
    assert reach_from_start(d, pinned) == 1.0


def test_a_pinned_state_cuts_its_run_with_rewards_on_both_sides():
    # one run 0-1-2-3-4 into the sink 5; column 0 pins 2, column 1 pins 4
    d = hand_built([[(1, 1.0)], [(2, 1.0)], [(3, 1.0)], [(4, 1.0)], [(5, 1.0)], []])
    assert contracted_nodes(d) == [0, 5]
    pinned = np.zeros((6, 2), dtype=bool)
    pinned[2, 0] = pinned[4, 1] = True
    values = np.zeros((6, 2))
    values[2, 0], values[4, 1] = 7.0, -1.0
    rewards = np.repeat(np.arange(1.0, 7.0)[:, None], 2, axis=1)
    # the start takes the rewards before the pin, then the pinned value
    assert solve_at_start(d, pinned, values, rewards).tolist() == [1 + 2 + 7.0, 1 + 2 + 3 + 4 - 1.0]


def test_the_first_of_two_pins_on_a_run_decides_it():
    # one run 0-1-2-3-4-5 into the sink 6, pinned at 2 and at 4 in one column
    d = hand_built([[(1, 1.0)], [(2, 1.0)], [(3, 1.0)], [(4, 1.0)], [(5, 1.0)], [(6, 1.0)], []])
    assert contracted_nodes(d) == [0, 6]
    pinned = np.isin(np.arange(7), [2, 4])
    rewards = np.arange(1.0, 8.0)
    # the rewards at 2 and after it never count; the last pin would add 3 + 4
    assert solve_at_start(d, pinned, pinned * 10.0, rewards).tolist() == [1 + 2 + 10.0]
    assert expected_reward(d, rewards, pinned) == 1 + 2.0


def test_an_edge_into_a_set_inside_a_run_counts_at_its_source():
    # 0 branches to the run 1-2-3-4 and to 5, both into the sink 6
    d = hand_built([[(1, 0.25), (5, 0.75)], [(2, 1.0)], [(3, 1.0)], [(4, 1.0)], [(6, 1.0)],
                    [(6, 1.0)], []])
    assert contracted_nodes(d) == [0, 1, 5, 6]
    sets = np.stack([np.isin(np.arange(7), s) for s in ([3], [2, 4], [3, 6], [0, 1])], axis=1)
    # entered by 2 -> 3; by 1 -> 2 and 3 -> 4; by 2 -> 3, 4 -> 6 and 5 -> 6;
    # and once at the start
    assert expected_entries(d, sets).tolist() == [0.25, 0.5, 1.25, 1.0]


def test_the_initial_state_can_head_a_run():
    d = hand_built([[(1, 1.0)], [(2, 1.0)], [(3, 0.25), (4, 0.75)],
                    [(5, 1.0)], [(5, 1.0)], []])
    assert contracted_nodes(d) == [0, 2, 3, 4, 5]
    target = np.arange(6) == 3
    assert solve_at_start(d, target, target).tolist() == [0.25] and reach_from_start(d, target) == 0.25
    done = np.arange(6) == 5
    assert expected_reward(d, np.ones(6), done) == 4.0
    assert solve_at_start(d, done, np.zeros(6), np.ones(6)).tolist() == [4.0]
    # an unreachable state stepping into the initial state does not make
    # it part of its run
    d = hand_built([[(2, 1.0)], [(0, 1.0)], []])
    assert contracted_nodes(d) == [0, 1, 2]
    done = np.arange(3) == 2
    assert solve_at_start(d, done, done, np.ones(3)).tolist() == [2.0]
    assert reach_from_start(d, done) == 1.0 and expected_reward(d, np.ones(3), done) == 1.0


def test_an_unpinned_sink_takes_its_reward():
    d = hand_built([[(1, 0.5), (2, 0.5)], [(3, 1.0)], [(3, 1.0)], []])
    x = solve_at_start(d, np.zeros(4, dtype=bool), np.zeros(4), np.arange(1.0, 5.0))
    assert x.tolist() == [1.0 + 0.5 * (2.0 + 4.0) + 0.5 * (3.0 + 4.0)]


@pytest.mark.parametrize("rows", [
    # a merge into the middle of a run, which splits it
    [[(1, 0.5), (4, 0.5)], [(2, 1.0)], [(3, 1.0)], [(6, 1.0)], [(5, 1.0)], [(2, 1.0)], []],
    # the initial state heads a run into a branch
    [[(1, 1.0)], [(2, 1.0)], [(3, 0.25), (4, 0.75)], [(5, 1.0)], [(5, 1.0)], []],
    # an unreachable state steps into the initial state
    [[(2, 1.0)], [(0, 1.0)], []],
    None,
], ids=["merge_into_run", "start_heads_a_run", "into_the_start", "short_unit"])
def test_the_plan_numbers_its_nodes_level_by_level(rows):
    d = build(ScenarioConfig(tcu_ticks=3)) if rows is None else hand_built(rows)
    levels, acyclic = d.topo_levels()
    assert acyclic
    plan = dtmc_module._plan(d)
    assert plan.node.dtype == np.int32 and plan.start == plan.node[0]
    # the nodes of level l are bounds[l]:bounds[l + 1], in the level's order
    bounds = plan.bounds.tolist()
    assert len(bounds) == len(levels) + 1
    for states, lo, hi in zip(levels, bounds, bounds[1:]):
        assert plan.node[states].tolist() == list(range(lo, hi))
    # each level's edges leave its nodes, and every edge leads to a later level
    level = np.repeat(np.arange(len(levels)), np.diff(plan.bounds))
    edge_level = np.repeat(np.arange(len(levels)), np.diff(plan.edge_bounds))
    assert (level[plan.bounds[edge_level] + plan.seg] == edge_level).all()
    assert (level[plan.succ] > edge_level).all()
    # a run state's node is its head's, and its pos is its place on the run
    runs = dtmc_module._contract(d).runs
    for p, run in enumerate(runs):
        assert (plan.node[run] == plan.node[runs[0][:run.size]]).all()
        assert (plan.pos[run] == p).all()


@pytest.mark.parametrize("rows, levels", [
    # one-edge frontier rows 1 and 2 both feed 3
    ([[(1, 0.5), (2, 0.5)], [(3, 1.0)], [(3, 1.0)], [(4, 0.5), (5, 0.5)], [], []],
     [[0], [1, 2], [3], [4, 5]]),
    # branching frontier rows 1 and 2 both feed 3 and 4
    ([[(1, 0.5), (2, 0.5)], [(3, 0.5), (4, 0.5)], [(3, 0.5), (4, 0.5)], [(5, 1.0)], [(5, 1.0)],
      []],
     [[0], [1, 2], [3, 4], [5]]),
], ids=["one_edge_rows", "branching_rows"])
def test_topo_levels_list_a_head_fed_by_two_frontier_nodes_once(rows, levels):
    # the head is listed once per frontier edge into it, and its level
    # keeps it once
    got, acyclic = hand_built(rows).topo_levels()
    assert acyclic
    assert [level.tolist() for level in got] == levels


def test_the_plan_refuses_a_cyclic_model():
    with pytest.raises(SolverError):
        dtmc_module._plan(hand_built([[(1, 1.0)], [(2, 1.0)], [(1, 1.0)]]))


@contextmanager
def deadline(seconds):
    """Fail, instead of hanging, if the block runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("rows", [
    # a tail into the two-state cycle 1-2: 1 is entered twice, so its run
    # 1-2 leads back to itself
    [[(1, 1.0)], [(2, 1.0)], [(1, 1.0)]],
    # a cycle through the branching state 1
    [[(1, 1.0)], [(2, 0.5), (3, 0.5)], [(1, 1.0)], []],
    # a cycle with no way in, so no state of it heads a run
    [[(3, 1.0)], [(2, 1.0)], [(1, 1.0)], []],
], ids=["tail_into_cycle", "cycle_through_branch", "cycle_without_entry"])
def test_cycles_around_runs_are_refused(rows):
    d = hand_built(rows)
    n = d.n_states
    mask = np.arange(n) == n - 1
    with deadline(30):
        assert d.topo_levels()[1] is False
        for solve in (lambda: reach_from_start(d, mask),
                      lambda: expected_reward(d, np.ones(n), mask),
                      lambda: expected_entries(d, np.arange(n) == 0)):
            with pytest.raises(SolverError):
                solve()


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


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 64),
       density=st.sampled_from([0.0005, 0.01, 0.2]), blocked=st.booleans())
def test_packed_closures_match_the_single_column_closure(two_sender_model, seed, k, density,
                                                          blocked):
    d = two_sender_model
    rng = np.random.default_rng(seed)
    seeds = rng.random((d.n_states, k)) < density
    blocks = rng.random((d.n_states, k)) < 0.05 if blocked else None
    bits = np.uint64(1) << np.arange(k, dtype=np.uint64)

    def pack(masks):
        return np.bitwise_or.reduce(np.where(masks, bits, np.uint64(0)), axis=1)

    got = _backward_closures(d, pack(seeds), None if blocks is None else pack(blocks))
    for j in range(k):
        want = _backward_closure(d, seeds[:, j], None if blocks is None else blocks[:, j])
        assert ((got & bits[j]) != 0).tolist() == want.tolist(), j


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
    assert not _backward_closure(d, goal)[trace[-1]]
    for u, v in zip(trace, trace[1:]):
        assert v in d.cols[d.indptr[u]:d.indptr[u + 1]]


def test_deadlock_traces_in_the_short_unit():
    d = build(ScenarioConfig().with_tcu(3))
    assert len(d.deadlock_indices) > 0
    traces = find_deadlocks(d, limit=3)
    for tr in traces:
        labels = label(d.state_at(tr.indices[-1]))
        assert any(l.endswith("_send_rts") for l in labels)
        assert labels & {"r_switch_rt", "r_send_cts", "r_w_end"}


def test_find_deadlocks_refuses_a_negative_limit():
    d = build(ScenarioConfig(n_senders=2, tcu_ticks=3))
    assert len(find_deadlocks(d, limit=None)) == len(d.deadlock_indices) == 26
    assert find_deadlocks(d, limit=0) == []
    with pytest.raises(ValueError, match="limit"):
        find_deadlocks(d, limit=-1)


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
