"""Explicit-state DTMC construction and verification routines.

States are discovered breadth first from the initial state, so indices are
replay stable for a fixed scenario and non-decreasing in distance from the
start: the smallest index violating a predicate yields a shortest
counterexample trace through the BFS parent tree.  A model holds its graph,
a CSR triple, and an int16 feature matrix that full states are rebuilt from
on demand; its state count, deadlocks, terminals and parents are read off it.

The builder splits every state into its round context and its tick
projection (:meth:`Automaton.split`) and interns both to ids.  A round is
entered with the receiver idle, at the initial state or at a round
boundary's successor, and no step inside it changes the context or idles
the receiver again.  So the states entered at ``(c, q0)`` are c paired with
the projections reachable from q0, and those read c only through each
sender's draw distribution.  Each distinct round is explored once, over
projection ids: a tick moves only the projection, through a per-projection
table of the successors that :meth:`Automaton.next_projection` computes
once, the round's one draw row (:meth:`Automaton.draw_branches`) is its
entry's, and each distinct set of sender phases at a round boundary is an
exit.  Each round is then stamped with numpy for every context that enters
it, each exit led to the entry that :meth:`Automaton.boundary` gives for
that context, and one pass over the stamped graph numbers the states level
by level, exactly as a state-by-state BFS numbers them.  The feature matrix
is gathered from the interned tables by id at the end.

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
rewards on the way, so solves keep values only at the nodes.  One plan, built
on the first solve and cached on the model, numbers the nodes level by
level, so a sweep reads and writes each level as one slice, and maps each
state to the node a pin there decides and to its position on that node's
run.  Every query is asked from the initial state, as PRISM asks them, and
every one is a seeding of one backward sweep: K columns, each pinning an
index set at one value and accruing sparse rewards.  A reach query pins its
targets at 1; an expected reward pins its target, once at 1 and once at 0
with the rewards; an entry count pins nothing and puts each entering edge's
probability on its source.  Masks stay the public input.  So a query costs its
targets and rewards plus the nodes times K, not the states times K.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
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
# the most states int32 CSR columns can index; a larger cap is cut to it
_INDEX_MAX = 2**31 - 1

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
        :func:`_contract`); each level holds their state ids, ascending,
        and edges cross levels forward.  The loop runs over node ranks: a
        level of one-edge rows skips the row gather, and only successors
        whose in-degree reaches 0 are sorted, a head fed by several frontier
        nodes kept once.  Returns (levels, acyclic); with a cyclic model some
        states stay unlevelled and the solvers refuse it.  Not cached: the
        solve plan that reads it is.
        """
        indptr = self.open_csr()[0]
        g = _contract(self)
        nodes = np.flatnonzero(g.is_node).astype(np.int32)
        rank = np.cumsum(g.is_node, dtype=np.int32) - 1
        # every contracted edge of a node leads to a node
        succ = rank[_contracted_cols(self, g)[_row_gather(indptr, nodes)]]
        node_ptr = np.append(0, np.cumsum(indptr[nodes + 1] - indptr[nodes]))
        single = np.diff(node_ptr) == 1
        in_deg = np.bincount(succ, minlength=nodes.size)
        frontier = np.flatnonzero(in_deg == 0)
        levels: list[np.ndarray] = []
        while frontier.size:
            levels.append(nodes[frontier])
            if single[frontier].all():
                heads = succ[node_ptr[frontier]]
            else:
                heads = succ[_row_gather(node_ptr, frontier)]
            np.subtract.at(in_deg, heads, 1)
            # a head fed by several frontier nodes is listed once per edge
            frontier = np.sort(heads[in_deg[heads] == 0])
            first = np.empty(frontier.size, dtype=bool)
            first[:1] = True
            np.not_equal(frontier[1:], frontier[:-1], out=first[1:])
            frontier = frontier[first]
        return levels, g.covered and sum(map(len, levels)) == nodes.size


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

    Level l holds the nodes ``bounds[l]:bounds[l + 1]``, so a sweep reads
    and writes it as a slice.  A pin decides its state's `node`, and a
    column's first pin on a run is the one with the smallest `pos` there.
    """

    start: int               # the initial state's node
    bounds: np.ndarray       # per level, its first node; then the node count
    edge_bounds: np.ndarray  # per level, its first edge; edges follow the nodes
    seg: np.ndarray          # per edge, its source's position in its level
    succ: np.ndarray         # int32, per edge the successor node
    probs: np.ndarray        # per edge, the branch probability (1 for a run)
    node: np.ndarray         # int32, per state the node a pin there decides: its own or its head's
    pos: np.ndarray          # int32, per state its position on its node's run, 0 at the node


def _plan(dtmc: DTMC) -> _Plan:
    """The solve plan of a model whose open edges form a DAG, cached on it.

    Nodes are numbered in the order :meth:`DTMC.topo_levels` lists them,
    and a run state's node is its head's, which `runs[p]` lines up with.
    """
    if dtmc._plan is None:
        levels, acyclic = dtmc.topo_levels()
        if not acyclic:
            raise SolverError("model has a cycle besides terminal self-loops; "
                              "level solves require a DAG")
        g = _contract(dtmc)
        states = np.concatenate(levels)
        node = np.empty(dtmc.n_states, dtype=np.int32)
        node[states] = np.arange(states.size, dtype=np.int32)
        pos = np.zeros(dtmc.n_states, dtype=np.int32)
        for p, run in enumerate(g.runs[1:], 1):
            node[run] = node[g.runs[0][:run.size]]
            pos[run] = p
        sizes = np.array([lvl.size for lvl in levels])
        bounds = np.append(0, np.cumsum(sizes))
        indptr, _, probs = dtmc.open_csr()
        counts = indptr[states + 1] - indptr[states]
        firsts = np.append(0, np.cumsum(counts))
        flat = _row_gather(indptr, states)
        seg = np.repeat(np.arange(states.size) - np.repeat(bounds[:-1], sizes), counts)
        dtmc._plan = _Plan(int(node[0]), bounds, firsts[bounds], seg,
                           node[_contracted_cols(dtmc, g)[flat]], probs[flat], node, pos)
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


class _Round(NamedTuple):
    """One round's graph over local state ids, its entry state first.

    An edge to a local id stays in the round; an edge ``-1 - x`` leaves it
    through exit x, a round boundary whose successor the entering context
    decides.
    """

    lens: np.ndarray         # int32, per local state its edge count
    cols: np.ndarray         # int32, per edge its local successor, or -1 - its exit
    probs: np.ndarray        # float64, per edge its probability
    projections: np.ndarray  # int32, per local state its projection id
    exits: list[int]         # per exit, a boundary projection id with its sender phases


class _Builder:
    """The interned tables, the explored rounds and the state count of one build.

    Contexts and projections are interned to ids, and a state is the id
    pair packed into one int key, ``c << 32 | q``.  A round is entered with
    the receiver idle and left through round boundaries, and no step inside
    it changes the context or idles the receiver again.  So the states
    entered at ``(c, q0)`` are c paired with the projections reachable from
    q0, and those read c only through each sender's draw distribution: a
    round is explored once per (q0, each sender's distribution id) and
    serves every context that enters it.  Its one draw row is its entry's,
    audited when it is taken.  A boundary step reads only each sender's
    phase, ``e`` and ``msgs`` and resets the receiver, so a round's exits
    are its distinct sender phases at a boundary, and each entry steps each
    exit once.
    """

    def __init__(self, cfg: ScenarioConfig, max_states: int):
        self.auto = Automaton(cfg)
        self.max_states = max_states
        self.n_states = 0
        self.contexts: list[tuple] = []
        self.context_ids: dict[tuple, int] = {}
        self.projections: list[tuple] = []
        self.projection_ids: dict[tuple, int] = {}
        # per projection id: its tick successor's id, -1 - the kind of a
        # step that is not a tick, or None before it is stepped
        self.tick_next: list[int | None] = []
        # per failure count its draw distribution's id, and per context id
        # each sender's: failure counts that share a window share rounds
        ids: dict = {}
        self.draw_ids = [ids.setdefault(cfg.table.window_for(e), len(ids))
                         for e in range(cfg.e_max + 1)]
        self.context_draws: list[tuple] = []
        self.rounds: list[_Round] = []
        self.round_ids: dict[tuple, int] = {}

    def intern_projection(self, projection: tuple) -> int:
        q = self.projection_ids.get(projection)
        if q is None:
            q = self.projection_ids[projection] = len(self.projections)
            self.projections.append(projection)
            self.tick_next.append(None)
        return q

    def intern(self, context: tuple, projection: tuple) -> int:
        c = self.context_ids.get(context)
        if c is None:
            c = self.context_ids[context] = len(self.contexts)
            self.contexts.append(context)
            self.context_draws.append(tuple(self.draw_ids[e] for e, _ in context))
        return c << 32 | self.intern_projection(projection)

    def grow(self, n: int) -> None:
        """Count `n` more reachable states, refusing a count past the cap."""
        self.n_states += n
        if self.n_states > self.max_states:
            raise StateSpaceLimitError(f"reachable state space exceeds {self.max_states} states")

    def round_of(self, c: int, q0: int) -> int:
        """The id of the round entered at projection `q0` under context `c`,
        whose states are counted."""
        key = (q0, self.context_draws[c])
        r = self.round_ids.get(key)
        if r is None:
            r = self.round_ids[key] = len(self.rounds)
            self.rounds.append(self.explore(c, q0))
        else:
            self.grow(self.rounds[r].lens.size)
        return r

    def explore(self, c: int, q0: int) -> _Round:
        """The round entered at projection `q0` under context `c`.

        Each local state is counted when it is found and stepped after, so
        the cap bounds the tick steps too.  A tick row, one edge of
        probability 1, is walked inline; a boundary row is one edge to its
        exit, a terminal state loops to itself, and a deadlock has no edge.
        """
        self.grow(1)
        count, cap = self.n_states, self.max_states
        tick_next, projections, step = self.tick_next, self.projections, self.step
        local = {q0: 0}
        find = local.get
        qs, lens, cols, draws = [q0], [], [], []
        found, add_len, add_col = qs.append, lens.append, cols.append
        exits: dict[tuple, int] = {}
        exit_qs: list[int] = []
        # qs grows as states are found, so the loop walks them breadth first
        for q in qs:
            nxt = tick_next[q]
            if nxt is None:
                nxt = tick_next[q] = step(q)
            if nxt >= 0:
                i = find(nxt)
                if i is None:
                    count += 1
                    if count > cap:
                        raise StateSpaceLimitError(f"reachable state space exceeds {cap} states")
                    i = local[nxt] = len(qs)
                    found(nxt)
                add_len(1)
                add_col(i)
                continue
            if nxt == _DRAW:
                row, succ = self.draw_row(c, q)
                draws.append((len(cols), row))
            elif nxt == _TERMINAL:
                succ = (q,)
            elif nxt == _BOUNDARY:
                x = exits.setdefault(tuple([sd[0] for sd in projections[q][0]]), len(exits))
                if x == len(exit_qs):
                    exit_qs.append(q)
                add_len(1)
                add_col(-1 - x)
                continue
            else:
                add_len(0)
                continue
            add_len(len(succ))
            for s in succ:
                i = find(s)
                if i is None:
                    count += 1
                    if count > cap:
                        raise StateSpaceLimitError(f"reachable state space exceeds {cap} states")
                    i = local[s] = len(qs)
                    found(s)
                add_col(i)
        self.n_states = count
        probs = np.ones(len(cols))
        for at, row in draws:
            probs[at:at + len(row)] = row
        return _Round(np.array(lens, dtype=np.int32), np.array(cols, dtype=np.int32),
                      probs, np.array(qs, dtype=np.int32), exit_qs)

    def step(self, q: int) -> int:
        """The tick table entry of projection `q`."""
        projection = self.projections[q]
        nxt = self.auto.next_projection(projection)
        if nxt is not None:
            return self.intern_projection(nxt)
        return -1 - self.auto.step_kind(projection)

    def draw_row(self, c: int, q: int) -> tuple:
        """``(probs, drawn projection ids)`` of the draw from projection `q`
        under context `c`.

        Each branch is a distinct drawn state, so the row raises before its
        first branch when it alone has more than the cap.
        """
        context, projection = self.contexts[c], self.projections[q]
        if self.auto.draw_count(context, projection) > self.max_states:
            raise StateSpaceLimitError(f"reachable state space exceeds {self.max_states} states")
        probs, qs = [], []
        for p, drawn in self.auto.draw_branches(context, projection):
            probs.append(p)
            qs.append(self.intern_projection(drawn))
        total = math.fsum(probs)
        if abs(total - 1.0) > ROWSUM_TOL:
            raise SolverError(f"the draw row of context {context} and projection {projection} "
                              f"sums to {total!r}, off by more than {ROWSUM_TOL}")
        return probs, qs


def build(cfg: ScenarioConfig, max_states: int = MAX_STATES_DEFAULT) -> DTMC:
    """Enumerate the reachable state space in breadth-first order.

    The search runs round by round.  A round is entered at the initial
    state or at a round boundary's successor, and its successor entries are
    queued in order of discovery.  Each distinct round is explored once,
    and its graph is then stamped with numpy for every entry that uses it:
    its rows tiled, its internal edges moved to the entry's block and its
    exits led to the roots of their successor entries.  One pass over the
    stamped graph then numbers the states level by level from the initial
    state, each level's new states in order of first occurrence, exactly as
    a state-by-state BFS numbers them.

    Raises StateSpaceLimitError when more than `max_states` states are
    reachable, and ConfigError when `max_states` is below 1 or a config
    value does not fit the int16 feature matrix.  A draw row's up to 7**n
    branches are taken from ``Automaton.draw_branches`` the first time its
    round is met, and a row with more branches (``Automaton.draw_count``)
    than the cap is refused before its first.  Every draw row is audited to
    sum to 1 within 1e-12, with the sum correctly rounded by ``math.fsum``
    (a naive sum of the 7**6 branches of a 6-sender draw drifts past the
    tolerance); every other row is one edge of probability 1, or none at a
    deadlock.
    """
    if max_states < 1:
        raise ConfigError(f"max_states must be >= 1, got {max_states}")
    # the automaton refuses a count or timing past the int16 range
    b = _Builder(cfg, min(max_states, _INDEX_MAX))
    keys = [b.intern(*b.auto.split(b.auto.initial_state()))]
    entries = {keys[0]: 0}
    # per round, the entries that use it and each one's exit entries
    users: list[list[int]] = []
    exit_entries: list[list[list[int]]] = []
    for e, key in enumerate(keys):
        c, q0 = key >> 32, key & 0xFFFFFFFF
        r = b.round_of(c, q0)
        if r == len(users):
            users.append([])
            exit_entries.append([])
        succ = []
        for q in b.rounds[r].exits:
            nxt = b.intern(*b.auto.boundary(b.contexts[c], b.projections[q]))
            if nxt not in entries:
                entries[nxt] = len(keys)
                keys.append(nxt)
            succ.append(entries[nxt])
        users[r].append(e)
        exit_entries[r].append(succ)

    indptr, cols, probs, state_context, state_projection, n_layers = _stamp_and_number(
        b.rounds, users, exit_entries, np.array(keys, dtype=np.int64) >> 32, b.n_states)
    # imported here: logging is about a tenth of the package's cold import
    import logging
    logging.getLogger(__name__).debug(
        "build: %d states, %d edges, %d layers, %d contexts, %d projections, "
        "%d round entries (%d rounds explored, %d from cache)",
        b.n_states, cols.size, n_layers, len(b.contexts), len(b.projections), len(keys),
        len(b.rounds), len(keys) - len(b.rounds))
    return DTMC(cfg=cfg,
                features=_features(cfg.n_senders, b.contexts, b.projections,
                                   state_context, state_projection),
                indptr=indptr, cols=cols, probs=probs)


def _stamp_and_number(rounds: list[_Round], users: list[list[int]],
                      exit_entries: list[list[list[int]]], entry_context: np.ndarray,
                      n: int) -> tuple:
    """Stamp every round for the entries that use it, then number the states.

    The stamped states lie round by round, each round's entries one block
    each in entry order, so the initial state is at position 0.  Returns
    the CSR triple in BFS order, each state's context and projection id,
    and the number of BFS levels.  The stamped index arrays are int32, and
    all stamped arrays go once the numbering has read them.
    """
    roots = np.empty(entry_context.size, dtype=np.int32)
    n_edges = at = 0
    for rd, ids in zip(rounds, users):
        roots[ids] = at + rd.lens.size * np.arange(len(ids), dtype=np.int32)
        at += rd.lens.size * len(ids)
        n_edges += rd.cols.size * len(ids)
    lens = np.empty(n, dtype=np.int32)
    context = np.empty(n, dtype=np.int32)
    projection = np.empty(n, dtype=np.int32)
    cols = np.empty(n_edges, dtype=np.int32)
    probs = np.empty(n_edges, dtype=np.float64)
    at = edge_at = 0
    for rd, ids, succ in zip(rounds, users, exit_entries):
        k, size, m = len(ids), rd.lens.size, rd.cols.size
        states, edges = slice(at, at + k * size), slice(edge_at, edge_at + k * m)
        lens[states] = np.tile(rd.lens, k)
        context[states] = np.repeat(entry_context[ids], size)
        projection[states] = np.tile(rd.projections, k)
        block = cols[edges].reshape(k, m)
        np.add(rd.cols, roots[ids, None], out=block)
        out = np.flatnonzero(rd.cols < 0)
        if out.size:
            block[:, out] = roots[np.array(succ, dtype=np.int64)[:, -1 - rd.cols[out]]]
        probs[edges] = np.tile(rd.probs, k)
        at, edge_at = at + k * size, edge_at + k * m

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    order, n_layers = _bfs_order(indptr, cols)
    number = np.empty(n, dtype=np.int32)
    number[order] = np.arange(n, dtype=np.int32)
    flat = _row_gather(indptr, order)
    bfs_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens[order], out=bfs_indptr[1:])
    return (bfs_indptr, number[cols[flat]], probs[flat], context[order], projection[order],
            n_layers)


def _bfs_order(indptr: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, int]:
    """The states of a CSR graph in the order a layered BFS from state 0
    numbers them, and the number of layers.

    A layer's successors are read row by row, each row's edges in order
    (a layer of one-edge rows without a row gather), and the ones not yet
    numbered form the next layer in order of first occurrence.
    """
    n = len(indptr) - 1
    single = np.diff(indptr) == 1
    fresh = np.ones(n, dtype=bool)
    fresh[0] = False
    # each successor writes its position here; whichever of two equal ones
    # wins, the other reads back a position not its own, so a layer's
    # successors are distinct iff every one reads back its own
    slot = np.empty(n, dtype=np.int32)
    layer = np.zeros(1, dtype=cols.dtype)
    layers = []
    while layer.size:
        layers.append(layer)
        if single[layer].all():
            succ = cols[indptr[layer]]
        else:
            succ = cols[_row_gather(indptr, layer)]
        succ = succ[fresh[succ]]
        at = np.arange(succ.size, dtype=np.int32)
        slot[succ] = at
        if not (slot[succ] == at).all():
            # np.unique sorts stably for return_index, so `first` is each
            # state's first occurrence
            first = np.unique(succ, return_index=True)[1]
            first.sort()
            succ = succ[first]
        fresh[succ] = False
        layer = succ
    return np.concatenate(layers), len(layers)


def _features(n_senders: int, contexts: list[tuple], projections: list[tuple],
              state_context: np.ndarray, state_projection: np.ndarray) -> np.ndarray:
    """The int16 feature matrix, gathered from the interned tables by id.

    Each table is read from its flattened tuples into full-width rows that
    are zero outside its own columns, so a state's row is the sum of its
    context's row and its projection's.
    """
    flat = chain.from_iterable
    n_contexts, n_projections = len(contexts), len(projections)
    # per sender (e, msgs) in a context's row, and per sender (phase, rbc,
    # ticks) and the receiver's three in a projection's
    senders = np.zeros((n_contexts, n_senders, N_SENDER_FIELDS), dtype=np.int16)
    senders[:, :, [1, 3]] = np.fromiter(flat(flat(contexts)), dtype=np.int16,
                                        count=n_contexts * n_senders * 2).reshape(-1, n_senders, 2)
    by_context = np.hstack((senders.reshape(n_contexts, -1),
                            np.zeros((n_contexts, N_RECEIVER_FIELDS), dtype=np.int16)))
    senders = np.zeros((n_projections, n_senders, N_SENDER_FIELDS), dtype=np.int16)
    senders[:, :, [0, 2, 4]] = np.fromiter(
        flat(flat(map(itemgetter(0), projections))), dtype=np.int16,
        count=n_projections * n_senders * 3).reshape(-1, n_senders, 3)
    by_projection = np.hstack((senders.reshape(n_projections, -1), np.fromiter(
        flat(map(itemgetter(1), projections)), dtype=np.int16,
        count=n_projections * N_RECEIVER_FIELDS).reshape(-1, N_RECEIVER_FIELDS)))
    features = by_projection.take(state_projection, axis=0)
    features += by_context.take(state_context, axis=0)
    return features


# -- linear solves -------------------------------------------------------------


def _start_values(dtmc: DTMC, pins: list[np.ndarray], values: np.ndarray | tuple,
                  rewards: list[tuple | None] | None = None) -> np.ndarray:
    """Least solutions of x = Px + r at the initial state, (K,).

    Column k pins the states `pins[k]` at the scalar `values[k]` and,
    unless `rewards` or its entry is None, accrues ``rewards[k] = (states,
    weights)``, states ascending.  A pin decides its node (``_Plan.node``):
    a run head takes the rewards on its run before the run's first pin,
    then the pinned value, and rewards after that pin never count.  Each
    node's rewards are summed in descending state order; BFS numbers a
    run's states in order, so a run is summed from its exit back to its
    head, as substitution meets them.  Then :func:`_sweep` answers every
    column.
    """
    plan = _plan(dtmc)
    n = plan.bounds[-1]
    pin = np.zeros((n, len(pins)), dtype=bool)
    for k, states in enumerate(pins):
        pin[plan.node[states], k] = True
    y = pin * np.asarray(values, dtype=np.float64)
    for k, reward in enumerate(rewards or ()):
        if reward is None:
            continue
        at, weights = reward
        if pins[k].size:
            # the smallest pinned position on each run is its first pin
            first = np.full(n, np.iinfo(np.int32).max, dtype=np.int32)
            np.minimum.at(first, plan.node[pins[k]], plan.pos[pins[k]])
            keep = plan.pos[at] < first[plan.node[at]]
            at, weights = at[keep], weights[keep]
        y[:, k] += np.bincount(plan.node[at[::-1]], weights[::-1], minlength=n)
    return _sweep(plan, y, pin)


def _sweep(plan: _Plan, y: np.ndarray, pin: np.ndarray) -> np.ndarray:
    """One backward sweep over the contracted nodes' levels, (K,) values
    at the initial state.

    `y` (nodes, K) holds each pinned node's value and what every other
    node adds to the sum over its edges; the sweep fills in the sums in
    place, a level's slice at a time.  Each node's successors lie on later
    levels, so it is exact.  ``np.bincount`` adds a node's edges in edge
    order, which ``np.add.reduceat`` does not, so every answer keeps its bits.
    """
    k = y.shape[1]
    columns = np.arange(k)
    free = ~pin
    b, e = plan.bounds.tolist(), plan.edge_bounds.tolist()
    for lo, hi, elo, ehi in reversed(list(zip(b, b[1:], e, e[1:]))):
        # one bin per (node, column)
        bins = (plan.seg[elo:ehi, None] * k + columns).ravel()
        acc = np.bincount(bins, weights=(plan.probs[elo:ehi, None] * y[plan.succ[elo:ehi]]).ravel(),
                          minlength=(hi - lo) * k).reshape(hi - lo, k)
        # 0.0 + a == a, so a node without reward takes its sum unchanged;
        # a sink's empty sum leaves it at its reward
        here = y[lo:hi]
        np.add(here, acc, out=here, where=free[lo:hi])
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


def _index_sets(dtmc: DTMC, masks) -> list[np.ndarray]:
    """One mask or K stacked masks as K arrays of state indices."""
    return [np.flatnonzero(m) for m in _mask_columns(dtmc, masks).T]


def _reach(dtmc: DTMC, targets: list[np.ndarray]) -> np.ndarray:
    """Probability of eventually visiting each of K target sets from the
    initial state, (K,); `targets` holds K arrays of state indices, each
    pinned at 1 with no rewards."""
    return _start_values(dtmc, targets, np.ones(len(targets)))


def reach_from_start(dtmc: DTMC, target_mask: np.ndarray) -> float | np.ndarray:
    """Probability of eventually visiting the target set from the initial state.

    One mask of shape (n_states,) is answered as a float, and K masks
    stacked as (n_states, K) as an array of K probabilities, all from one
    sweep.
    """
    x = _reach(dtmc, _index_sets(dtmc, target_mask))
    return float(x[0]) if np.ndim(target_mask) == 1 else x


def expected_reward(dtmc: DTMC, state_rewards: np.ndarray,
                    target_mask: np.ndarray) -> float:
    """Expected reward accumulated from the initial state until the target.

    Rewards accrue on the source state of each transition; zero-duration
    bookkeeping states carry zero reward by construction of the caller's
    reward vector.  Defined only when the target is reached almost surely.
    One sweep answers both: it pins the target in two columns, at 1 with
    no rewards for the reach probability, and at 0 with the nonzero
    rewards for the reward.
    """
    target = np.flatnonzero(_mask_vector(dtmc, target_mask))
    rewards = np.broadcast_to(np.asarray(state_rewards, dtype=np.float64), (dtmc.n_states,))
    earning = np.flatnonzero(rewards)
    # terminal and deadlocked states have no open successor, so reaching
    # one instead of the target leaves the reach probability below 1
    reach, reward = _start_values(dtmc, [target, target], (1.0, 0.0),
                                  [None, (earning, rewards[earning])])
    if reach < 1.0 - 1e-9:
        raise RewardUndefinedError(
            f"target reached with probability {reach:.12g} < 1; "
            "expected reward is undefined"
        )
    return float(reward)


def _entries(dtmc: DTMC, targets: list[np.ndarray]) -> np.ndarray:
    """Expected number of transitions entering each of K target sets from
    outside, (K,); `targets` holds K arrays of state indices.

    Only the edges into some target set can count, so they are gathered
    once.  A column pins nothing, and each of its edges from outside the
    set into it puts its probability on its source as a reward.
    """
    indptr, cols, probs = dtmc.open_csr()
    every = np.concatenate([np.empty(0, dtype=np.int64), *targets])
    if dtmc.terminal_mask[every].any():
        raise ValueError("entry counts are finite only for transient states")
    mark = np.zeros(dtmc.n_states, dtype=bool)
    mark[every] = True
    edges = np.flatnonzero(mark[cols])
    mark[every] = False
    sources = np.searchsorted(indptr, edges, side="right") - 1
    heads = cols[edges]
    rewards = []
    starts = np.zeros(len(targets))
    for k, states in enumerate(targets):
        mark[states] = True
        enter = mark[heads] & ~mark[sources]
        rewards.append((sources[enter], probs[edges[enter]]))
        # starting inside the set counts as one entry
        starts[k] = mark[0]
        mark[states] = False
    none = np.empty(0, dtype=np.int64)
    return _start_values(dtmc, [none] * len(targets), np.zeros(len(targets)), rewards) + starts


def expected_entries(dtmc: DTMC, state_mask: np.ndarray) -> float | np.ndarray:
    """Expected number of transitions entering the masked set from outside.

    Counts each maximal stay once, so it measures events (a delivery, a
    drop) even where an outcome phase persists for several states.
    Starting inside the set counts as one entry.  Like reach_from_start it
    takes one mask, answered as a float, or K stacked masks, answered as an
    array of K counts.
    """
    totals = _entries(dtmc, _index_sets(dtmc, state_mask))
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


def _backward_closures(dtmc: DTMC, seeds: np.ndarray,
                       blocked: np.ndarray | None = None) -> np.ndarray:
    """Up to 64 backward closures at once, column j in bit j of each state's
    uint64 word: per column, the states that can reach its seed set,
    optionally not through its blocked ones, as `_backward_closure`.

    Each level ORs the new bits of the frontier into its predecessors, so
    the columns share one level loop.
    """
    rev_indptr, rev_cols = dtmc.reverse_csr()
    reached = seeds.copy()
    frontier = np.flatnonzero(seeds)
    bits = seeds[frontier]
    while frontier.size:
        preds = rev_cols[_row_gather(rev_indptr, frontier)]
        if preds.size == 0:
            break
        spread = np.repeat(bits, rev_indptr[frontier + 1] - rev_indptr[frontier])
        order = np.argsort(preds)
        preds = preds[order]
        heads = np.flatnonzero(np.concatenate(([True], preds[1:] != preds[:-1])))
        frontier = preds[heads]
        bits = np.bitwise_or.reduceat(spread[order], heads) & ~reached[frontier]
        if blocked is not None:
            bits &= ~blocked[frontier]
        fresh = bits != 0
        frontier, bits = frontier[fresh], bits[fresh]
        reached[frontier] |= bits
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


def almost_sure_leads_to_words(dtmc: DTMC, triggers: np.ndarray,
                               goals: np.ndarray) -> np.ndarray:
    """Up to 64 `almost_sure_leads_to` checks at once, column j in bit j of
    each state's uint64 word: per column, the trigger states that can evade
    the goal.  A column holds iff its bit is clear in every word."""
    doomed = ~_backward_closures(dtmc, goals)
    return triggers & _backward_closures(dtmc, doomed, blocked=goals)


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
