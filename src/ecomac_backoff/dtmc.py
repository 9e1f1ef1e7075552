"""Explicit-state DTMC construction and verification routines.

States are discovered breadth first from the initial state, so indices are
replay stable for a fixed scenario and non-decreasing in distance from the
start: the smallest index violating a predicate yields a shortest
counterexample trace through the BFS parent tree.  Transitions live in a CSR
triple; full state tuples are reconstructed on demand from a compact int16
feature matrix.

The builder splits every state into its round context and its tick
projection (:meth:`Automaton.split`), interns both to ids, and keys its BFS
index on the pair packed into one int, ``c << 32 | q``.  A tick moves only the
projection, so a tick state's successor pairs its context with the
projection that :meth:`Automaton.next_projection` computes once per
projection; only draw, boundary, deadlock and terminal states are stepped
through ``successor_distribution``, on the joined state.  The feature matrix
is gathered from the interned tables by id once the search ends.

Apart from the self-loops of all-done terminal states the chain is a DAG
(packets only get consumed, failure counters only grow, and every tick makes
progress inside a round), so reachability probabilities, expected rewards,
and expected visit counts are each solved exactly by one substitution sweep
over topological levels (Kemeny & Snell, *Finite Markov Chains*).  A model
with a proper cycle is refused with SolverError.

One level plan, built on the first solve and cached on the model, holds each
level's edge gather over the self-loop-free CSR; every backward solve and the
forward occupation push share it.  A backward solve takes K targets as the
columns of an (n_states, K) array and answers them all in one sweep.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .automata import (
    Automaton,
    GlobalState,
    ReceiverState,
    ScenarioConfig,
    SenderPhase,
    SenderState,
    label,
)
from .errors import ConfigError, RewardUndefinedError, SolverError, StateSpaceLimitError

ROWSUM_TOL = 1e-12
MAX_STATES_DEFAULT = 10_000_000
# markers in build's per-projection tick table
_UNSTEPPED = -2
_NO_TICK = -1

# one feature row per state: (phase, e, rbc, msgs, ticks) per sender, then
# (phase, winner, ticks) for the receiver, stored as int16
N_SENDER_FIELDS = 5
N_RECEIVER_FIELDS = 3
_FEATURE_MAX = int(np.iinfo(np.int16).max)
# config values bounding some feature column
_FEATURE_BOUNDS = ("n_senders", "nmax_msg", "tcu_ticks", "d_switch", "d_frame",
                   "cts_timeout", "e_max", "b_max")


@dataclass
class Trace:
    """Path of state indices from the initial state to an endpoint."""

    indices: list[int]

    def render(self, dtmc: "DTMC") -> str:
        lines = []
        for step, idx in enumerate(self.indices):
            props = ",".join(sorted(label(dtmc.state_at(idx))))
            lines.append(f"{step:4d}  #{idx}  {props}")
        return "\n".join(lines)


@dataclass
class PropertyReport:
    """Verdict of one verification query, with a counterexample if violated."""

    name: str
    holds: bool
    detail: str = ""
    counterexample: Trace | None = None

    def oneline(self) -> str:
        verdict = "holds" if self.holds else "VIOLATED"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {verdict}{tail}"


@dataclass(eq=False)
class DTMC:
    """Explicit reachable state space of one scenario in BFS order."""

    cfg: ScenarioConfig
    n_states: int
    features: np.ndarray        # int16, one row per state
    indptr: np.ndarray          # int64, CSR row pointers
    cols: np.ndarray            # int32, CSR successor indices
    probs: np.ndarray           # float64, CSR branch probabilities
    parent: np.ndarray          # int32, BFS tree parent (-1 for the root)
    deadlock_indices: np.ndarray
    terminal_mask: np.ndarray   # bool, all-senders-done self-loop states

    _open: tuple | None = field(default=None, repr=False)
    _levels: tuple | None = field(default=None, repr=False)
    _plan: list | None = field(default=None, repr=False)
    _rev: tuple | None = field(default=None, repr=False)
    _rho: np.ndarray | None = field(default=None, repr=False)

    # -- state access --------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.cols)

    @property
    def n_senders(self) -> int:
        return self.cfg.n_senders

    def state_at(self, idx: int) -> GlobalState:
        row = self.features[idx]
        senders = tuple(
            SenderState(*map(int, row[i * N_SENDER_FIELDS:(i + 1) * N_SENDER_FIELDS]))
            for i in range(self.n_senders)
        )
        base = self.n_senders * N_SENDER_FIELDS
        return GlobalState(senders, ReceiverState(*map(int, row[base:base + N_RECEIVER_FIELDS])))

    def labels_of(self, idx: int) -> frozenset[str]:
        return label(self.state_at(idx))

    def trace_to(self, idx: int) -> Trace:
        path = [idx]
        while self.parent[path[-1]] >= 0:
            path.append(int(self.parent[path[-1]]))
        path.reverse()
        return Trace(path)

    # feature columns (views, do not mutate)

    def sender_phase(self, i: int) -> np.ndarray:
        return self.features[:, i * N_SENDER_FIELDS + 0]

    def sender_e(self, i: int) -> np.ndarray:
        return self.features[:, i * N_SENDER_FIELDS + 1]

    def sender_rbc(self, i: int) -> np.ndarray:
        return self.features[:, i * N_SENDER_FIELDS + 2]

    def receiver_phase(self) -> np.ndarray:
        return self.features[:, self.n_senders * N_SENDER_FIELDS + 0]

    def receiver_winner(self) -> np.ndarray:
        return self.features[:, self.n_senders * N_SENDER_FIELDS + 1]

    def deadlock_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_states, dtype=bool)
        mask[self.deadlock_indices] = True
        return mask

    # -- derived structures ---------------------------------------------------

    def open_csr(self):
        """CSR triple with self-loops removed (only terminals have them)."""
        if self._open is None:
            rows = _edge_rows(self.indptr)
            keep = self.cols != rows
            counts = np.bincount(rows[keep], minlength=self.n_states)
            indptr = np.zeros(self.n_states + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._open = (indptr, self.cols[keep], self.probs[keep])
        return self._open

    def reverse_csr(self):
        """Predecessor CSR over open edges, for backward closures."""
        if self._rev is None:
            indptr, cols, _ = self.open_csr()
            rows = _edge_rows(indptr)
            order = np.argsort(cols, kind="stable")
            rev_cols = rows[order]
            counts = np.bincount(cols, minlength=self.n_states)
            rev_indptr = np.zeros(self.n_states + 1, dtype=np.int64)
            np.cumsum(counts, out=rev_indptr[1:])
            self._rev = (rev_indptr, rev_cols)
        return self._rev

    def topo_levels(self) -> tuple[list[np.ndarray], bool]:
        """Kahn frontier rounds over open edges; edges cross levels forward.

        Returns (levels, acyclic); with a cyclic model some states stay
        unlevelled and the solvers refuse it.
        """
        if self._levels is None:
            indptr, cols, _ = self.open_csr()
            n = self.n_states
            in_deg = np.bincount(cols, minlength=n).astype(np.int64)
            frontier = np.flatnonzero(in_deg == 0)
            levels: list[np.ndarray] = []
            seen = 0
            while frontier.size:
                levels.append(frontier)
                seen += frontier.size
                heads = cols[_row_gather(indptr, frontier)]
                if heads.size == 0:
                    break
                np.subtract.at(in_deg, heads, 1)
                cand = np.unique(heads)
                frontier = cand[in_deg[cand] == 0]
            self._levels = (levels, seen == n)
        return self._levels


class _Level(NamedTuple):
    """The open edges leaving one topological level, in CSR order."""

    nodes: np.ndarray   # the level's states
    seg: np.ndarray     # per edge, its source's position in `nodes`
    cols: np.ndarray    # per edge, the successor state
    probs: np.ndarray   # per edge, the branch probability


def _level_plan(dtmc: DTMC) -> list[_Level]:
    """Per-level edge gathers of a model whose open edges form a DAG."""
    if dtmc._plan is None:
        levels, acyclic = dtmc.topo_levels()
        if not acyclic:
            raise SolverError("model has a cycle besides terminal self-loops; "
                              "level solves require a DAG")
        indptr, cols, probs = dtmc.open_csr()
        plan = []
        for nodes in levels:
            flat = _row_gather(indptr, nodes)
            seg = np.repeat(np.arange(nodes.size), indptr[nodes + 1] - indptr[nodes])
            plan.append(_Level(nodes, seg, cols[flat], probs[flat]))
        dtmc._plan = plan
    return dtmc._plan


def _edge_rows(indptr: np.ndarray) -> np.ndarray:
    """Source state of every edge of a CSR triple."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int32), np.diff(indptr))


def _row_gather(indptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Flat CSR positions of all edges leaving `nodes`, row blocks in order."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seg = np.zeros(len(nodes), dtype=np.int64)
    np.cumsum(counts[:-1], out=seg[1:])
    return np.repeat(starts - seg, counts) + np.arange(total, dtype=np.int64)


def build(cfg: ScenarioConfig, max_states: int = MAX_STATES_DEFAULT) -> DTMC:
    """Enumerate the reachable state space breadth first.

    Raises StateSpaceLimitError when more than `max_states` states are
    discovered, and ConfigError when `max_states` is below 1 or a config
    value does not fit the int16 feature matrix.  Every row taken from
    ``successor_distribution`` is audited to sum to 1 within 1e-12, with
    the sum correctly rounded by ``math.fsum`` (a naive sum of the 7**6
    branches of a 6-sender draw drifts past the tolerance); a tick row is
    one edge of probability 1.
    """
    if max_states < 1:
        raise ConfigError(f"max_states must be >= 1, got {max_states}")
    for name in _FEATURE_BOUNDS:
        v = getattr(cfg, name)
        if v > _FEATURE_MAX:
            raise ConfigError(f"{name}={v} exceeds {_FEATURE_MAX}, the largest "
                              "value the exact engine stores per state")
    auto = Automaton(cfg)

    # contexts and projections interned to ids; a state is an id pair, packed
    # into one int key (ids live in array("i"), so each fits in 32 bits)
    contexts: list[tuple] = []
    context_ids: dict[tuple, int] = {}
    projections: list[tuple] = []
    projection_ids: dict[tuple, int] = {}
    # per projection id: its tick successor's id, _NO_TICK, or _UNSTEPPED
    tick_next: list[int] = []

    def intern_projection(projection: tuple) -> int:
        q = projection_ids.get(projection)
        if q is None:
            q = projection_ids[projection] = len(projections)
            projections.append(projection)
            tick_next.append(_UNSTEPPED)
        return q

    def intern(state: GlobalState) -> int:
        context, projection = auto.split(state)
        c = context_ids.get(context)
        if c is None:
            c = context_ids[context] = len(contexts)
            contexts.append(context)
        return c << 32 | intern_projection(projection)

    init = intern(auto.initial_state())
    index: dict[int, int] = {init: 0}
    state_context = array("i", (init >> 32,))
    state_projection = array("i", (init & 0xFFFFFFFF,))
    parent = array("i", (-1,))
    indptr = array("q", (0,))
    cols = array("i")
    probs = array("d")
    deadlocks = array("q")
    terminals = array("q")
    n_distributed = 0

    src, n = 0, 1
    while src < n:
        c, q = state_context[src], state_projection[src]
        nq = tick_next[q]
        if nq == _UNSTEPPED:
            nxt = auto.next_projection(projections[q])
            nq = tick_next[q] = _NO_TICK if nxt is None else intern_projection(nxt)
        if nq != _NO_TICK:
            branches = ((1.0, c << 32 | nq),)
        else:
            n_distributed += 1
            state = auto.join(contexts[c], projections[q])
            branches = [(p, intern(nxt))
                        for p, nxt in auto.successor_distribution(state).branches]
            if not branches:
                deadlocks.append(src)
            total = math.fsum(p for p, _ in branches)
            if branches and abs(total - 1.0) > ROWSUM_TOL:
                raise SolverError(
                    f"transition row {src} sums to {total!r}, off by more than {ROWSUM_TOL}"
                )
        for p, key in branches:
            j = index.get(key)
            if j is None:
                if n >= max_states:
                    raise StateSpaceLimitError(
                        f"reachable state space exceeds {max_states} states"
                    )
                j = index[key] = n
                n += 1
                state_context.append(key >> 32)
                state_projection.append(key & 0xFFFFFFFF)
                parent.append(src)
            cols.append(j)
            probs.append(p)
        indptr.append(len(cols))
        if len(branches) == 1 and j == src:
            terminals.append(src)
        src += 1

    del index
    # imported here: logging is about a tenth of the package's cold import
    import logging
    logging.getLogger(__name__).debug(
        "build: %d states, %d edges, %d contexts, %d projections, "
        "%d successor_distribution calls",
        n, len(cols), len(contexts), len(projections), n_distributed)
    return DTMC(
        cfg=cfg,
        n_states=n,
        features=_features(cfg.n_senders, contexts, projections,
                           np.frombuffer(state_context, dtype=np.int32),
                           np.frombuffer(state_projection, dtype=np.int32)),
        indptr=np.frombuffer(indptr, dtype=np.int64),
        cols=np.frombuffer(cols, dtype=np.int32) if cols else np.empty(0, np.int32),
        probs=np.frombuffer(probs, dtype=np.float64) if probs else np.empty(0, np.float64),
        parent=np.frombuffer(parent, dtype=np.int32),
        deadlock_indices=np.frombuffer(deadlocks, dtype=np.int64) if deadlocks else np.empty(0, np.int64),
        terminal_mask=np.isin(np.arange(n), terminals),
    )


def _features(n_senders: int, contexts: list[tuple], projections: list[tuple],
              state_context: np.ndarray, state_projection: np.ndarray) -> np.ndarray:
    """The int16 feature matrix, gathered from the interned tables by id."""
    # per sender (e, msgs) and (phase, rbc, ticks); the receiver's three
    ctx = np.array(contexts, dtype=np.int16).reshape(-1, n_senders, 2)
    snd = np.array([p[0] for p in projections], dtype=np.int16).reshape(-1, n_senders, 3)
    rcv = np.array([p[1] for p in projections], dtype=np.int16).reshape(-1, N_RECEIVER_FIELDS)
    n = len(state_context)
    senders = np.empty((n, n_senders, N_SENDER_FIELDS), dtype=np.int16)
    senders[:, :, [0, 2, 4]] = snd[state_projection]
    senders[:, :, [1, 3]] = ctx[state_context]
    return np.hstack((senders.reshape(n, -1), rcv[state_projection]))


# -- linear solves -------------------------------------------------------------


def _solve_fixed_point(dtmc: DTMC, pinned: np.ndarray, values: np.ndarray,
                       rewards: np.ndarray | None = None) -> np.ndarray:
    """Least solutions of x = Px + r, each pinned to `values` where `pinned`.

    Arguments are (n_states,) for one solve or (n_states, K) for K solves,
    one per column, and the result has the shape of `pinned`.  One backward
    substitution sweep over the level plan answers every column; each
    unpinned state's successors lie on later levels, so the sweep is exact.
    """
    n = dtmc.n_states
    shape = np.shape(pinned)
    pinned = np.reshape(pinned, (n, -1))
    x = np.where(pinned, np.reshape(values, (n, -1)), 0.0)
    if rewards is not None:
        rewards = np.reshape(rewards, (n, -1))
    k = x.shape[1]
    columns = np.arange(k)
    for lvl in reversed(_level_plan(dtmc)):
        # one bin per (state, column), each summed in edge order
        bins = (lvl.seg[:, None] * k + columns).ravel()
        acc = np.bincount(bins, weights=(lvl.probs[:, None] * x[lvl.cols]).ravel(),
                          minlength=lvl.nodes.size * k).reshape(-1, k)
        if rewards is not None:
            acc = acc + rewards[lvl.nodes]
        x[lvl.nodes] = np.where(pinned[lvl.nodes], x[lvl.nodes], acc)
    return x.reshape(shape)


def _mask_columns(dtmc: DTMC, masks) -> np.ndarray:
    """One (n_states,) mask or a stack (n_states, K) as K bool columns."""
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim not in (1, 2) or masks.shape[0] != dtmc.n_states:
        raise ValueError(f"a state mask has shape ({dtmc.n_states},) or "
                         f"({dtmc.n_states}, K), got {masks.shape}")
    return masks.reshape(dtmc.n_states, -1)


def _absorbing(dtmc: DTMC) -> np.ndarray:
    return dtmc.terminal_mask | dtmc.deadlock_mask()


def prob_reach(dtmc: DTMC, target_mask: np.ndarray) -> np.ndarray:
    """Probability, per state, of eventually visiting the target set.

    `target_mask` is one mask of shape (n_states,) or K masks stacked as
    (n_states, K); all K are solved in one sweep and the result has the
    mask's shape.
    """
    targets = _mask_columns(dtmc, target_mask)
    x = _solve_fixed_point(dtmc, targets | _absorbing(dtmc)[:, None], targets)
    return x.reshape(np.shape(target_mask))


def expected_reward(dtmc: DTMC, state_rewards: np.ndarray,
                    target_mask: np.ndarray) -> float:
    """Expected reward accumulated from the initial state until the target.

    Rewards accrue on the source state of each transition; zero-duration
    bookkeeping states carry zero reward by construction of the caller's
    reward vector.  Defined only when the target is reached almost surely,
    which the same sweep checks in a second column.
    """
    target = _mask_columns(dtmc, target_mask)
    if target.shape[1] != 1:
        raise ValueError("expected_reward takes one target mask")
    # column 0 is the reach probability, column 1 the reward; both stop at
    # the target and at absorbing states
    pinned = np.repeat(target | _absorbing(dtmc)[:, None], 2, axis=1)
    values = np.hstack((target, np.zeros_like(target)))
    rewards = np.zeros(pinned.shape)
    rewards[:, 1] = state_rewards
    reach, reward = _solve_fixed_point(dtmc, pinned, values, rewards)[0]
    if reach < 1.0 - 1e-9:
        raise RewardUndefinedError(
            f"target reached with probability {reach:.12g} < 1; "
            "expected reward is undefined"
        )
    return float(reward)


def _occupation(dtmc: DTMC) -> np.ndarray:
    """Visit probability of every state, pushed forward level by level.

    Off-terminal parts of the chain are acyclic, so each state is visited at
    most once and occupation equals visit probability.
    """
    if dtmc._rho is None:
        rho = np.zeros(dtmc.n_states)
        rho[0] = 1.0
        for lvl in _level_plan(dtmc):
            np.add.at(rho, lvl.cols, rho[lvl.nodes][lvl.seg] * lvl.probs)
        dtmc._rho = rho
    return dtmc._rho


def expected_visits(dtmc: DTMC, state_mask: np.ndarray) -> float:
    """Expected number of visits to the masked states (must be transient)."""
    state_mask = np.asarray(state_mask, dtype=bool)
    if (state_mask & dtmc.terminal_mask).any():
        raise ValueError("visit counts are finite only for transient states")
    return float(_occupation(dtmc)[state_mask].sum())


def expected_entries(dtmc: DTMC, state_mask: np.ndarray) -> float | np.ndarray:
    """Expected number of transitions entering the masked set from outside.

    Counts each maximal stay once, unlike expected_visits, so it measures
    events (a delivery, a drop) even where an outcome phase persists for
    several states.  Starting inside the set counts as one entry.  Like
    prob_reach it takes one mask, answered as a float, or K stacked masks,
    answered as an array of K counts.
    """
    masks = _mask_columns(dtmc, state_mask)
    if (masks & dtmc.terminal_mask[:, None]).any():
        raise ValueError("entry counts are finite only for transient states")
    rho = _occupation(dtmc)
    indptr, cols, probs = dtmc.open_csr()
    rows = _edge_rows(indptr)
    flow = rho[rows] * probs
    totals = np.array([
        float(flow[m[cols] & ~m[rows]].sum()) + (1.0 if m[0] else 0.0)
        for m in masks.T
    ])
    return float(totals[0]) if np.ndim(state_mask) == 1 else totals


def idle_listening_rewards(dtmc: DTMC, sender: int | None = None) -> np.ndarray:
    """Seconds of carrier-sense listening accrued per state and tick.

    Counts senders sitting in their backoff countdown; zero-duration draw
    and round-boundary states contain no countdown phase and accrue nothing.
    """
    senders = range(dtmc.n_senders) if sender is None else (sender,)
    counting = np.zeros(dtmc.n_states, dtype=np.float64)
    for i in senders:
        counting += dtmc.sender_phase(i) == SenderPhase.COUNTDOWN
    return counting * dtmc.cfg.seconds_per_tick


# -- qualitative checks ---------------------------------------------------------


def check_invariant(dtmc: DTMC, good_mask: np.ndarray, name: str) -> PropertyReport:
    """Does every reachable state satisfy the predicate?

    The lowest violating BFS index gives a shortest counterexample trace.
    """
    good_mask = np.asarray(good_mask, dtype=bool)
    bad = np.flatnonzero(~good_mask)
    if bad.size == 0:
        return PropertyReport(name, True, f"all {dtmc.n_states} states satisfy the predicate")
    first = int(bad[0])
    return PropertyReport(
        name, False,
        f"{bad.size} of {dtmc.n_states} states violate the predicate; "
        f"shortest witness reaches state {first}",
        dtmc.trace_to(first),
    )


def _backward_closure(dtmc: DTMC, seed_mask: np.ndarray,
                      blocked_mask: np.ndarray | None = None) -> np.ndarray:
    """States that can reach the seed set, optionally not through blocked ones."""
    rev_indptr, rev_cols = dtmc.reverse_csr()
    reached = seed_mask.copy()
    frontier = np.flatnonzero(seed_mask)
    while frontier.size:
        preds = rev_cols[_row_gather(rev_indptr, frontier)]
        if preds.size == 0:
            break
        preds = np.unique(preds)
        fresh = ~reached[preds]
        if blocked_mask is not None:
            fresh &= ~blocked_mask[preds]
        frontier = preds[fresh]
        reached[frontier] = True
    return reached


def _forward_path(dtmc: DTMC, start: int, target_mask: np.ndarray,
                  blocked_mask: np.ndarray | None = None) -> list[int]:
    """Shortest edge path start -> target avoiding blocked states (BFS)."""
    if target_mask[start]:
        return [start]
    prev = {start: -1}
    frontier = deque((start,))
    while frontier:
        u = frontier.popleft()
        lo, hi = dtmc.indptr[u], dtmc.indptr[u + 1]
        for v in dtmc.cols[lo:hi].tolist():
            if v in prev:
                continue
            if blocked_mask is not None and blocked_mask[v] and not target_mask[v]:
                continue
            prev[v] = u
            if target_mask[v]:
                path = [v]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            frontier.append(v)
    raise AssertionError("closure promised a path that BFS cannot find")


def almost_sure_leads_to(dtmc: DTMC, trigger_mask: np.ndarray,
                         goal_mask: np.ndarray, name: str) -> PropertyReport:
    """From every reachable trigger state, is the goal reached with probability 1?

    Pure graph analysis: a trigger fails iff it can reach, without passing
    through the goal, some state from which the goal is unreachable.
    """
    trigger_mask = np.asarray(trigger_mask, dtype=bool)
    goal_mask = np.asarray(goal_mask, dtype=bool)
    n_triggers = int(trigger_mask.sum())
    if n_triggers == 0:
        return PropertyReport(name, True, "no reachable trigger state")
    can_reach_goal = _backward_closure(dtmc, goal_mask)
    doomed = ~can_reach_goal
    unsafe = _backward_closure(dtmc, doomed, blocked_mask=goal_mask)
    failing = trigger_mask & unsafe
    if not failing.any():
        return PropertyReport(
            name, True, f"{n_triggers} trigger states all reach the goal almost surely"
        )
    first = int(np.flatnonzero(failing)[0])
    prefix = dtmc.trace_to(first).indices
    suffix = _forward_path(dtmc, first, doomed, blocked_mask=goal_mask)
    return PropertyReport(
        name, False,
        f"{int(failing.sum())} of {n_triggers} trigger states can evade the goal; "
        f"witness continues to a state from which the goal is unreachable",
        Trace(prefix[:-1] + suffix),
    )


def find_deadlocks(dtmc: DTMC, limit: int | None = 10) -> list[Trace]:
    """Shortest traces to deadlocked states, lowest BFS indices first."""
    picks = dtmc.deadlock_indices if limit is None else dtmc.deadlock_indices[:limit]
    return [dtmc.trace_to(int(i)) for i in picks]


def dump_statespace(dtmc: DTMC, path) -> None:
    """Write one line per state: index, sorted labels, successor:probability."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for i in range(dtmc.n_states):
            lo, hi = dtmc.indptr[i], dtmc.indptr[i + 1]
            succs = " ".join(
                f"{j}:{p:.12g}"
                for j, p in zip(dtmc.cols[lo:hi].tolist(), dtmc.probs[lo:hi].tolist())
            )
            fh.write(f"{i}\t{','.join(sorted(dtmc.labels_of(i)))}\t{succs}\n")
