"""Explicit-state DTMC construction and verification routines.

States are discovered breadth first from the initial state, so indices are
replay stable for a fixed scenario and non-decreasing in distance from the
start: the smallest index violating a predicate yields a shortest
counterexample trace through the BFS parent tree.  A model holds its graph,
a CSR triple, and an int16 feature matrix that full states are rebuilt from
on demand; its state count, deadlocks, terminals and parents are read off it.

The builder splits every state into its round context and its tick
projection (:meth:`Automaton.split`), interns both to ids, and keys its BFS
index on the pair packed into one int, ``c << 32 | q``.  It takes the search
one layer at a time: the states found from one layer are the next, numbered
in order of first occurrence, exactly as a state-by-state BFS numbers them.
Every step is taken on the pair.  A tick moves only the projection, so the
tick rows of a layer are one gather from a per-projection table of the
successors that :meth:`Automaton.next_projection` computes once, or of the
step kind when it is no tick.  Draw rows (:meth:`Automaton.draw_branches`)
are cached on the projection and each sender's draw distribution, and
boundary rows (:meth:`Automaton.boundary`), one edge like a tick, on the
context and the sender phases.  Each layer's successor keys are then looked
up in the index in one batch.  The feature matrix is gathered from the
interned tables by id once the search ends.

Apart from the self-loops of all-done terminal states the chain is a DAG
(packets only get consumed, failure counters only grow, and every tick makes
progress inside a round), so reachability probabilities and expected rewards
are each solved exactly by one substitution sweep over topological levels
(Kemeny & Snell, *Finite Markov Chains*).  A model with a proper cycle is
refused with SolverError.

Almost every state has one successor, of probability 1, so the sweep runs
over a contracted graph.  A *run* is a maximal chain of such states in which
each state after the first is entered only from the one before it.  The
contracted graph's nodes are the run heads, the branching states and the
sinks, and each run is one edge from its head to its exit.  Inside a run a
state's value is the next pinned state's value, or the exit's, plus the
rewards on the way, so solves keep values only at the nodes.  One plan over
the nodes' levels, built on the first solve and cached on the model, serves
the backward solve and the forward occupation push.  Every query is asked
from the initial state, as PRISM asks them: the backward solve takes K
targets as the columns of an (n_states, K) array, answers them all in one
sweep and returns the initial state's K values, which ``reach_from_start``
and ``expected_reward`` read.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import count, filterfalse
from typing import NamedTuple

import numpy as np

from .automata import (
    Automaton,
    GlobalState,
    ReceiverState,
    ScenarioConfig,
    SenderPhase,
    SenderState,
    StepKind,
    label_order,
    label_text,
    receiver_label,
    sender_labels,
)
from .errors import ConfigError, RewardUndefinedError, SolverError, StateSpaceLimitError

ROWSUM_TOL = 1e-12
MAX_STATES_DEFAULT = 10_000_000
# markers in build's per-projection tick table: -1 - the kind of a step
# that is not a tick
_DRAW = -1 - StepKind.DRAW
_BOUNDARY = -1 - StepKind.BOUNDARY
_TERMINAL = -1 - StepKind.TERMINAL

# one feature row per state: (phase, e, rbc, msgs, ticks) per sender, then
# (phase, winner, ticks) for the receiver, stored as int16
N_SENDER_FIELDS = 5
N_RECEIVER_FIELDS = 3
# states per write of dump_statespace; bounds the text held at once
_DUMP_CHUNK = 4096


@dataclass
class Trace:
    """Path of state indices from the initial state to an endpoint."""

    indices: list[int]

    def render(self, dtmc: "DTMC") -> str:
        lines = []
        for step, idx in enumerate(self.indices):
            lines.append(f"{step:4d}  #{idx}  {label_text(dtmc.state_at(idx))}")
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
    features: np.ndarray        # int16, one row per state
    indptr: np.ndarray          # int64, CSR row pointers
    cols: np.ndarray            # int32, CSR successor indices
    probs: np.ndarray           # float64, CSR branch probabilities

    _open: tuple | None = field(default=None, repr=False)
    _runs: tuple | None = field(default=None, repr=False)
    _plan: tuple | None = field(default=None, repr=False)
    _rev: tuple | None = field(default=None, repr=False)

    # -- state access --------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.indptr) - 1

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

    def trace_to(self, idx: int) -> Trace:
        parent = self.parent
        path = [idx]
        while parent[path[-1]] >= 0:
            path.append(int(parent[path[-1]]))
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

    # -- derived structures ---------------------------------------------------

    @property
    def deadlock_indices(self) -> np.ndarray:
        """States with no successor at all, ascending."""
        return np.flatnonzero(np.diff(self.indptr) == 0)

    @property
    def terminal_mask(self) -> np.ndarray:
        """The states `open_csr` drops a self-loop from: only all-done
        states loop to themselves."""
        return np.diff(self.open_csr()[0]) != np.diff(self.indptr)

    @property
    def parent(self) -> np.ndarray:
        """Each state's BFS tree parent, -1 for the initial state: its
        smallest predecessor, the row a layered BFS reading rows in index
        order first finds it in.  Only a smaller one counts, so a hand-built
        cycle leaves no cycle in the tree."""
        rev_indptr, rev_cols = self.reverse_csr()
        # the stable sort lists each state's predecessors in ascending order
        fed = np.flatnonzero(np.diff(rev_indptr))
        first = rev_cols[rev_indptr[fed]]
        earlier = first < fed
        parent = np.full(self.n_states, -1, dtype=np.int32)
        parent[fed[earlier]] = first[earlier]
        return parent

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
        """Kahn frontier rounds over the run-contracted graph of open edges.

        Its nodes are run heads, branching states and sinks (see
        :func:`_contract`); each level holds their state ids, and edges
        cross levels forward.  Returns (levels, acyclic); with a cyclic
        model some states stay unlevelled and the solvers refuse it.  Not
        cached: the solve plan that reads it is.
        """
        indptr = self.open_csr()[0]
        g = _contract(self)
        cols = _contracted_cols(self, g)
        in_deg = np.bincount(cols[g.is_node[_edge_rows(indptr)]], minlength=self.n_states)
        frontier = np.flatnonzero((in_deg == 0) & g.is_node)
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
        return levels, g.covered and seen == int(g.is_node.sum())


class _Contraction(NamedTuple):
    """The runs of the open graph; contracting each to one edge from its
    head to its exit leaves a graph over the nodes."""

    is_node: np.ndarray     # bool per state: run head, branching state or sink
    covered: bool           # every state is a node or lies on a run
    runs: list[np.ndarray]  # runs[p]: state at position p of each run longer than p
    exits: np.ndarray       # per run, the node its last state steps to


def _contract(dtmc: DTMC) -> _Contraction:
    """The runs of the open graph, cached on the model.

    A run is a maximal chain of states, each with exactly one open
    successor, of probability 1, and each after the first with exactly one
    predecessor, the state before it.  The initial state always heads its
    run, so every solve finds it at a node.  Runs are ordered longest
    first, so the runs longer than p are a prefix and `runs[p]` lines up
    with it.  A cycle of run states with no way in has no head and leaves
    the model uncovered.
    """
    if dtmc._runs is None:
        indptr, cols, probs = dtmc.open_csr()
        n = dtmc.n_states
        single = np.diff(indptr) == 1
        single[single] = probs[indptr[:-1][single]] == 1.0
        nxt = np.full(n, -1, dtype=np.int32)
        nxt[single] = cols[indptr[:-1][single]]
        fed = np.zeros(n, dtype=bool)
        fed[nxt[single]] = True
        inner = single & fed & (np.bincount(cols, minlength=n) == 1)
        inner[0] = False
        heads = np.flatnonzero(single & ~inner).astype(np.int32)

        # walk every run at once, one position per round; a state inside
        # a run has one way in, so no two walks meet and none loops
        length = np.empty(heads.size, dtype=np.int64)
        exits = np.empty(heads.size, dtype=np.int32)
        walk, run, cur = [], np.arange(heads.size, dtype=np.int32), heads
        while cur.size:
            walk.append((run, cur))
            step = nxt[cur]
            stay = inner[step]
            length[run[~stay]] = len(walk)
            exits[run[~stay]] = step[~stay]
            run, cur = run[stay], step[stay]
        order = np.argsort(-length, kind="stable")
        rank = np.empty(heads.size, dtype=np.int32)
        rank[order] = np.arange(heads.size)
        runs = []
        for run, cur in walk:
            at = np.empty(cur.size, dtype=np.int32)
            at[rank[run]] = cur
            runs.append(at)
        dtmc._runs = _Contraction(
            ~inner, int(length.sum()) + int((~single).sum()) == n, runs, exits[order])
    return dtmc._runs


def _contracted_cols(dtmc: DTMC, g: _Contraction) -> np.ndarray:
    """The open CSR's successor column with each head's edge led to its
    run's exit: over the rows of the nodes, it is the contracted graph."""
    indptr, cols, _ = dtmc.open_csr()
    cols = cols.copy()
    if g.runs:
        cols[indptr[g.runs[0]]] = g.exits
    return cols


class _Plan(NamedTuple):
    """The contracted graph laid out for solves.

    The run heads are nodes 0..R-1, longest run first, so the states of
    `runs[p]` line up with the first nodes; branching states and sinks
    follow.
    """

    states: np.ndarray       # per node, its state id
    start: int               # the initial state's node
    order: np.ndarray        # the nodes, level by level
    bounds: np.ndarray       # per level, its first position in `order`; then its size
    edge_bounds: np.ndarray  # per level, its first edge; edges follow `order`
    seg: np.ndarray          # per edge, its source's position in its level
    succ: np.ndarray         # per edge, the successor node
    probs: np.ndarray        # per edge, the branch probability (1 for a run)
    runs: list[np.ndarray]   # as in _Contraction


def _plan(dtmc: DTMC) -> _Plan:
    """The solve plan of a model whose open edges form a DAG, cached on it."""
    if dtmc._plan is None:
        levels, acyclic = dtmc.topo_levels()
        if not acyclic:
            raise SolverError("model has a cycle besides terminal self-loops; "
                              "level solves require a DAG")
        g = _contract(dtmc)
        ordered = np.concatenate(levels)
        is_head = np.zeros(dtmc.n_states, dtype=bool)
        if g.runs:
            is_head[g.runs[0]] = True
        states = np.concatenate(g.runs[:1] + [ordered[~is_head[ordered]]])
        node_of = np.empty(dtmc.n_states, dtype=np.int64)
        node_of[states] = np.arange(states.size)
        sizes = np.array([lvl.size for lvl in levels])
        bounds = np.zeros(len(levels) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        indptr, _, probs = dtmc.open_csr()
        counts = indptr[ordered + 1] - indptr[ordered]
        firsts = np.zeros(ordered.size + 1, dtype=np.int64)
        np.cumsum(counts, out=firsts[1:])
        flat = _row_gather(indptr, ordered)
        seg = np.repeat(np.arange(ordered.size) - np.repeat(bounds[:-1], sizes), counts)
        dtmc._plan = _Plan(states, int(node_of[0]), node_of[ordered], bounds, firsts[bounds],
                           seg, node_of[_contracted_cols(dtmc, g)[flat]], probs[flat],
                           g.runs)
        # imported here: logging is about a tenth of the package's cold import
        import logging
        logging.getLogger(__name__).debug(
            "plan: %d states, %d runs, %d contracted nodes, %d levels",
            dtmc.n_states, len(g.exits), states.size, len(levels))
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


class _Builder:
    """The interned tables and the row caches of one build.

    Contexts and projections are interned to ids, and a state is the id
    pair packed into one int key, ``c << 32 | q``.  A draw keeps the
    context and its branches read only the projection and each choosing
    sender's draw distribution, so draw rows are cached on (projection id,
    each sender's distribution id) as probabilities and drawn projection
    ids, and each is audited once when it is filled.  A boundary step reads
    only each sender's phase, ``e`` and ``msgs`` and resets the receiver,
    so it is one edge of probability 1, cached on (context id, sender
    phases) as its successor key.
    """

    def __init__(self, cfg: ScenarioConfig, max_states: int):
        self.auto = Automaton(cfg)
        self.max_states = max_states
        self.contexts: list[tuple] = []
        self.context_ids: dict[tuple, int] = {}
        self.projections: list[tuple] = []
        self.projection_ids: dict[tuple, int] = {}
        # per projection id: its tick successor's id, or -1 - the kind of a
        # step that is not a tick
        self.tick_next = array("q")
        # per failure count its draw distribution's id, and per context id
        # each sender's: failure counts that share a window share draw rows
        ids: dict = {}
        self.draw_ids = [ids.setdefault(cfg.table.window_for(e), len(ids))
                         for e in range(cfg.e_max + 1)]
        self.context_draws: list[tuple] = []
        self.draw_rows: dict[tuple, tuple] = {}
        self.boundary_rows: dict[tuple, int] = {}
        self.index: dict[int, int] = {}
        self.counts = dict.fromkeys(("draw", "draw_cached", "boundary", "boundary_cached"), 0)

    def intern_projection(self, projection: tuple) -> int:
        q = self.projection_ids.get(projection)
        if q is None:
            q = self.projection_ids[projection] = len(self.projections)
            self.projections.append(projection)
        return q

    def intern(self, context: tuple, projection: tuple) -> int:
        c = self.context_ids.get(context)
        if c is None:
            c = self.context_ids[context] = len(self.contexts)
            self.contexts.append(context)
            self.context_draws.append(tuple(self.draw_ids[e] for e, _ in context))
        return c << 32 | self.intern_projection(projection)

    def rows(self, lo: int, frontier: np.ndarray) -> tuple:
        """The rows of the layer of states ``lo, lo + 1, ...`` keyed `frontier`.

        Returns ``(keys, probs, ends)``: every row's successor keys and
        probabilities, rows in order, and each row's end in them.  The tick
        rows are one gather from the per-projection table; a boundary row or
        a terminal self-loop is one edge too, and a deadlock none.
        """
        # every projection interned before this layer belongs to a discovered
        # state, so each is stepped once, in id order; one that `step`
        # interns here waits for the layer its states are found in
        for q in range(len(self.tick_next), len(self.projections)):
            self.tick_next.append(self.step(q))
        projection = frontier & 0xFFFFFFFF
        nq = np.frombuffer(self.tick_next, dtype=np.int64)[projection]
        # a tick keeps the context; other rows' keys are replaced below
        keys = frontier - projection + nq
        lens = np.ones(frontier.size, dtype=np.int64)
        others = np.flatnonzero(nq < 0)
        draws = []
        for r, key, kind in zip(others.tolist(), frontier[others].tolist(), nq[others].tolist()):
            c, q = key >> 32, key & 0xFFFFFFFF
            if kind == _BOUNDARY:
                keys[r] = self.boundary_row(c, q)
            elif kind == _DRAW:
                probs, qs = self.draw_row(lo + r, c, q)
                lens[r] = probs.size
                draws.append((probs, c << 32 | qs))
            elif kind == _TERMINAL:
                keys[r] = key
            else:
                lens[r] = 0
        keys = np.repeat(keys, lens)
        probs = np.ones(keys.size)
        if draws:
            at = np.repeat(nq == _DRAW, lens)
            keys[at] = np.concatenate([k for _, k in draws])
            probs[at] = np.concatenate([p for p, _ in draws])
        return keys, probs, np.cumsum(lens)

    def step(self, q: int) -> int:
        """The table entry of projection `q`."""
        projection = self.projections[q]
        nxt = self.auto.next_projection(projection)
        if nxt is not None:
            return self.intern_projection(nxt)
        return -1 - self.auto.step_kind(projection)

    def draw_row(self, src: int, c: int, q: int) -> tuple:
        """``(probs, drawn projection ids)`` of the draw from projection `q`
        under context `c`.

        Each branch is a distinct drawn state, so a miss raises before its
        first branch when the row alone has more than the cap.
        """
        self.counts["draw"] += 1
        key = (q, self.context_draws[c])
        row = self.draw_rows.get(key)
        if row is not None:
            self.counts["draw_cached"] += 1
            return row
        context, projection = self.contexts[c], self.projections[q]
        if self.auto.draw_count(context, projection) > self.max_states:
            raise StateSpaceLimitError(f"reachable state space exceeds {self.max_states} states")
        probs, qs = [], []
        for p, drawn in self.auto.draw_branches(context, projection):
            probs.append(p)
            qs.append(self.intern_projection(drawn))
        total = math.fsum(probs)
        if abs(total - 1.0) > ROWSUM_TOL:
            raise SolverError(
                f"transition row {src} sums to {total!r}, off by more than {ROWSUM_TOL}")
        row = self.draw_rows[key] = (np.array(probs, dtype=np.float64),
                                     np.array(qs, dtype=np.int64))
        return row

    def boundary_row(self, c: int, q: int) -> int:
        """The successor key of the round boundary from projection `q` under
        context `c`."""
        self.counts["boundary"] += 1
        key = (c, tuple([sd[0] for sd in self.projections[q][0]]))
        succ = self.boundary_rows.get(key)
        if succ is None:
            succ = self.boundary_rows[key] = self.intern(
                *self.auto.boundary(self.contexts[c], self.projections[q]))
        else:
            self.counts["boundary_cached"] += 1
        return succ


def _extend(out: array, values: np.ndarray) -> None:
    out.frombytes(values.astype(out.typecode).tobytes())


def build(cfg: ScenarioConfig, max_states: int = MAX_STATES_DEFAULT) -> DTMC:
    """Enumerate the reachable state space breadth first, one layer at a time.

    A layer is the states discovered from the layer before.  Its successor
    keys are looked up in the index in one batch, and the keys not found
    are numbered in order of first occurrence, exactly as a state-by-state
    BFS numbers them.  A layer records only its rows of the graph.

    Raises StateSpaceLimitError when more than `max_states` states are
    reachable, and ConfigError when `max_states` is below 1 or a config
    value does not fit the int16 feature matrix.  A draw row's up to 7**n
    branches are taken from ``Automaton.draw_branches`` the first time the
    row is met, and a row with more branches (``Automaton.draw_count``)
    than the cap is refused before its first.  Every draw row is audited to
    sum to 1 within 1e-12, with the sum correctly rounded by ``math.fsum``
    (a naive sum of the 7**6 branches of a 6-sender draw drifts past the
    tolerance); every other row is one edge of probability 1, or none at a
    deadlock.
    """
    if max_states < 1:
        raise ConfigError(f"max_states must be >= 1, got {max_states}")
    # the automaton refuses a count or timing past the int16 range
    b = _Builder(cfg, max_states)
    index = b.index
    new = [b.intern(*b.auto.split(b.auto.initial_state()))]
    index[new[0]] = 0
    state_context = array("i")
    state_projection = array("i")
    indptr = array("q", (0,))
    cols = array("i")
    probs = array("d")

    lo = n_layers = 0
    while new:
        n_layers += 1
        frontier = np.array(new, dtype=np.int64)
        _extend(state_context, frontier >> 32)
        _extend(state_projection, frontier & 0xFFFFFFFF)
        keys, row_probs, ends = b.rows(lo, frontier)
        n = len(index)
        keys = keys.tolist()
        new = list(filterfalse(index.__contains__, dict.fromkeys(keys)))
        if n + len(new) > max_states:
            raise StateSpaceLimitError(f"reachable state space exceeds {max_states} states")
        index.update(zip(new, count(n)))
        _extend(indptr, len(cols) + ends)
        cols.extend(map(index.__getitem__, keys))
        probs.frombytes(row_probs.tobytes())
        lo = n

    n = len(index)
    index.clear()
    # imported here: logging is about a tenth of the package's cold import
    import logging
    logging.getLogger(__name__).debug(
        "build: %d states, %d edges, %d layers, %d contexts, %d projections, "
        "%d draw rows (%d from cache), %d boundary rows (%d from cache)",
        n, len(cols), n_layers, len(b.contexts), len(b.projections), b.counts["draw"],
        b.counts["draw_cached"], b.counts["boundary"], b.counts["boundary_cached"])
    return DTMC(
        cfg=cfg,
        features=_features(cfg.n_senders, b.contexts, b.projections,
                           np.frombuffer(state_context, dtype=np.int32),
                           np.frombuffer(state_projection, dtype=np.int32)),
        indptr=np.frombuffer(indptr, dtype=np.int64),
        cols=np.frombuffer(cols, dtype=np.int32) if cols else np.empty(0, np.int32),
        probs=np.frombuffer(probs, dtype=np.float64) if probs else np.empty(0, np.float64),
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


def _solve(dtmc: DTMC, pinned: np.ndarray, values: np.ndarray,
           rewards: np.ndarray | None = None) -> np.ndarray:
    """Least solutions of x = Px + r at the initial state, (K,).

    Arguments are (n_states, K), one solve per column, each pinned to
    `values` where `pinned`.  Each run is first folded from its last state
    to its head: a pinned state cuts the run off at its value, and
    otherwise the run adds its rewards to its exit's value.  Then one
    backward sweep over the contracted nodes' levels answers every column;
    each node's successors lie on later levels, so it is exact.  Within a
    run the rewards are summed before the exit's value is added, so a
    reward solve can differ from state-by-state substitution in the last
    bits.
    """
    plan = _plan(dtmc)
    k = pinned.shape[1]
    n_runs = plan.runs[0].size if plan.runs else 0
    others = plan.states[n_runs:]
    # y starts at a node's value if it is pinned (for a head: if its run is
    # cut off), else at what it adds to the sum over its edges
    y = np.zeros((plan.states.size, k))
    pin = np.zeros(y.shape, dtype=bool)
    pin[n_runs:] = pinned[others]
    y[n_runs:] = np.where(pin[n_runs:], values[others],
                          0.0 if rewards is None else rewards[others])
    # runs[p] lines up with the first heads: one substitution step per
    # position, from the runs' next states back to their heads
    for states in reversed(plan.runs):
        fold, cut = y[:states.size], pinned[states]
        if rewards is not None:
            fold += rewards[states]
        np.copyto(fold, values[states], where=cut)
        pin[:states.size] |= cut
    columns = np.arange(k)
    for lo, hi, elo, ehi in reversed(list(zip(plan.bounds[:-1], plan.bounds[1:],
                                              plan.edge_bounds[:-1], plan.edge_bounds[1:]))):
        nodes = plan.order[lo:hi]
        # one bin per (node, column), each summed in edge order
        bins = (plan.seg[elo:ehi, None] * k + columns).ravel()
        acc = np.bincount(bins, weights=(plan.probs[elo:ehi, None] * y[plan.succ[elo:ehi]]).ravel(),
                          minlength=(hi - lo) * k).reshape(-1, k)
        # 0.0 + a == a, so a node without reward takes its sum unchanged;
        # a sink's empty sum leaves it at its reward
        here = y[nodes]
        np.add(here, acc, out=here, where=~pin[nodes])
        y[nodes] = here
    return y[plan.start]


def _mask_columns(dtmc: DTMC, masks) -> np.ndarray:
    """One (n_states,) mask or a stack (n_states, K) as K bool columns."""
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim not in (1, 2) or masks.shape[0] != dtmc.n_states:
        raise ValueError(f"a state mask has shape ({dtmc.n_states},) or "
                         f"({dtmc.n_states}, K), got {masks.shape}")
    return masks.reshape(dtmc.n_states, -1)


def _mask_vector(dtmc: DTMC, mask) -> np.ndarray:
    """One (n_states,) mask as a bool vector."""
    if np.ndim(mask) != 1:
        raise ValueError(f"a state mask has shape ({dtmc.n_states},) here, got {np.shape(mask)}")
    return _mask_columns(dtmc, mask)[:, 0]


def reach_from_start(dtmc: DTMC, target_mask: np.ndarray) -> float | np.ndarray:
    """Probability of eventually visiting the target set from the initial state.

    One mask of shape (n_states,) is answered as a float, and K masks
    stacked as (n_states, K) as an array of K probabilities, all from one
    sweep.
    """
    targets = _mask_columns(dtmc, target_mask)
    x = _solve(dtmc, targets, targets)
    return float(x[0]) if np.ndim(target_mask) == 1 else x


def expected_reward(dtmc: DTMC, state_rewards: np.ndarray,
                    target_mask: np.ndarray) -> float:
    """Expected reward accumulated from the initial state until the target.

    Rewards accrue on the source state of each transition; zero-duration
    bookkeeping states carry zero reward by construction of the caller's
    reward vector.  Defined only when the target is reached almost surely,
    which the same sweep checks in a second column.
    """
    target = _mask_vector(dtmc, target_mask)[:, None]
    # column 0 is the reach probability, column 1 the reward, both pinned
    # at the target; terminal and deadlocked states have no open successor,
    # so reaching one instead leaves the reach probability below 1
    values = np.hstack((target, np.zeros_like(target)))
    rewards = np.zeros(values.shape)
    rewards[:, 1] = state_rewards
    reach, reward = _solve(dtmc, np.repeat(target, 2, axis=1), values, rewards)
    if reach < 1.0 - 1e-9:
        raise RewardUndefinedError(
            f"target reached with probability {reach:.12g} < 1; "
            "expected reward is undefined"
        )
    return float(reward)


def _occupation(dtmc: DTMC) -> np.ndarray:
    """Visit probability of every state, pushed forward level by level.

    Off-terminal parts of the chain are acyclic, so each state is visited at
    most once and occupation equals visit probability.  The push runs over
    the contracted nodes; a state inside a run takes its head's value.
    """
    plan = _plan(dtmc)
    y = np.zeros(plan.states.size)
    y[plan.start] = 1.0
    for lo, elo, ehi in zip(plan.bounds[:-1], plan.edge_bounds[:-1], plan.edge_bounds[1:]):
        flow = y[plan.order[lo + plan.seg[elo:ehi]]] * plan.probs[elo:ehi]
        np.add.at(y, plan.succ[elo:ehi], flow)
    rho = np.empty(dtmc.n_states)
    rho[plan.states] = y
    for states in plan.runs[1:]:
        rho[states] = y[:states.size]
    return rho


def expected_entries(dtmc: DTMC, state_mask: np.ndarray) -> float | np.ndarray:
    """Expected number of transitions entering the masked set from outside.

    Counts each maximal stay once, so it measures events (a delivery, a
    drop) even where an outcome phase persists for several states.
    Starting inside the set counts as one entry.  Like reach_from_start it
    takes one mask, answered as a float, or K stacked masks, answered as an
    array of K counts.
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


def idle_listening_rewards(dtmc: DTMC, sender: int) -> np.ndarray:
    """Seconds of carrier-sense listening `sender` accrues per state and tick.

    A sender listens while it sits in its backoff countdown; zero-duration
    draw and round-boundary states contain no countdown phase and accrue
    nothing.
    """
    return (dtmc.sender_phase(sender) == SenderPhase.COUNTDOWN) * dtmc.cfg.seconds_per_tick


# -- qualitative checks ---------------------------------------------------------


def check_invariant(dtmc: DTMC, good_mask: np.ndarray, name: str) -> PropertyReport:
    """Does every reachable state satisfy the predicate?

    The lowest violating BFS index gives a shortest counterexample trace.
    """
    good_mask = _mask_vector(dtmc, good_mask)
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
    trigger_mask = _mask_vector(dtmc, trigger_mask)
    goal_mask = _mask_vector(dtmc, goal_mask)
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
    """Shortest traces to the first `limit` deadlocked states (all for None)."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be None or >= 0, got {limit}")
    picks = dtmc.deadlock_indices if limit is None else dtmc.deadlock_indices[:limit]
    return [dtmc.trace_to(int(i)) for i in picks]


def dump_statespace(dtmc: DTMC, path) -> None:
    """Write one line per state: index, sorted labels, successor:probability.

    The file is written column by column, in chunks of ``_DUMP_CHUNK``
    states.  Each sender's distinct ``(phase, e, rbc, msgs)`` blocks, the
    receiver's distinct phases and the distinct probabilities are formatted
    once; a line's label field joins its owners' texts in
    :func:`label_order`, which is the sorted order of its labels.
    """
    f, n = dtmc.features, dtmc.n_states
    phases, r_inv = np.unique(f[:, dtmc.n_senders * N_SENDER_FIELDS], return_inverse=True)
    columns = [(np.array([receiver_label(p) for p in phases.tolist()], dtype=object), r_inv)]
    for i in label_order(dtmc.n_senders):
        # a block's four int16 fields read as one int64, so np.unique sorts
        # plain integers rather than rows
        block = np.ascontiguousarray(f[:, i * N_SENDER_FIELDS:i * N_SENDER_FIELDS + 4])
        keys, inv = np.unique(block.view(np.int64).ravel(), return_inverse=True)
        blocks = keys.view(np.int16).reshape(-1, 4).tolist()
        texts = [",".join(sender_labels(i, *b)) for b in blocks]
        columns.append((np.array(texts, dtype=object), inv))
    probs, p_inv = np.unique(dtmc.probs, return_inverse=True)
    p_texts = np.array([f"{p:.12g}" for p in probs.tolist()], dtype=object)
    indptr = dtmc.indptr
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for lo in range(0, n, _DUMP_CHUNK):
            hi = min(lo + _DUMP_CHUNK, n)
            e_lo, e_hi = int(indptr[lo]), int(indptr[hi])
            labels = map(",".join, zip(*(texts[inv[lo:hi]].tolist() for texts, inv in columns)))
            succs = [f"{j}:{p}" for j, p in zip(dtmc.cols[e_lo:e_hi].tolist(),
                                                 p_texts[p_inv[e_lo:e_hi]].tolist())]
            bounds = (indptr[lo:hi + 1] - e_lo).tolist()
            fh.write("".join(f"{i}\t{lab}\t{' '.join(succs[a:b])}\n" for i, lab, a, b
                             in zip(range(lo, hi), labels, bounds, bounds[1:])))
