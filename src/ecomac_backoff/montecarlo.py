"""Monte Carlo simulation of the contention model.

Runs are driven by the same automaton as the exact engine.  The only
randomness is the per-sender backoff draw, sampled in ascending sender order
with one generator call each.  An untraced run carries only each sender's
round context ``(e, msgs)``, with ``msgs == 0`` for a done sender: each round
draws, reads its end phases, idle ticks and ticks from the automaton's
canonical round table (:meth:`Automaton.round_outcome`, keyed on the sorted
draws), and crosses the boundary through :meth:`Automaton.settle`.  A traced
run (:func:`run_once`) replays the same draws through the exact engine's
step function, :meth:`Automaton.successor_distribution`, recording every
:class:`GlobalState` it enters.  It reads neither the round table nor the
boundary memo, so comparing it with a batch checks both against the exact
model.

Each run gets its own counter-based stream keyed by (seed, run index), so
any subset of runs can be reproduced independently and results do not
depend on scheduling.  :func:`run_rng` defines a run's stream; a batch
builds one generator and resets its key to each run's with
:func:`_rekey`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automata import (
    Automaton,
    GlobalState,
    ScenarioConfig,
    SenderPhase,
    StepKind,
)
from .backoff import sample_rbc
from .errors import ConfigError


@dataclass
class RunStats:
    """Outcome counters of one simulated run."""

    successes: np.ndarray   # (n_senders, e_max+1) deliveries by failure count
    rejects: np.ndarray     # (n_senders,) packets dropped at the failure cap
    idle_ticks: np.ndarray  # (n_senders,) ticks spent listening in countdown
    ticks: int              # elapsed model ticks (draws and resets take none)
    rounds: int             # contention rounds entered
    deadlocked: bool


def run_once(cfg: ScenarioConfig, rng: np.random.Generator,
             trace: list[GlobalState]) -> RunStats:
    """Replay one run step by step, appending every state it enters to `trace`.

    The run walks the exact engine's step function.  A draw step makes the
    generator calls of a batch run (ascending sender order, one
    :func:`sample_rbc` call per sender with packets left) and builds the
    drawn state with :meth:`Automaton.drawn_state`; a tick or boundary step
    takes the single branch of :meth:`Automaton.successor_distribution`.
    So ``run_once(cfg, run_rng(seed, r), trace)`` returns run `r` of
    ``simulate(cfg, n_runs, seed)``.
    """
    auto = Automaton(cfg)
    n = cfg.n_senders
    successes = np.zeros((n, cfg.e_max + 1), dtype=np.int64)
    rejects = np.zeros(n, dtype=np.int64)
    idle = [0] * n
    ticks = rounds = 0
    state = auto.initial_state()
    trace.append(state)
    kind = auto.step_kind(state)
    while kind not in (StepKind.TERMINAL, StepKind.DEADLOCK):
        if kind == StepKind.DRAW:
            rounds += 1
            state = auto.drawn_state(state, tuple([
                sample_rbc(cfg.table, sd.e, rng) if sd.msgs else -1 for sd in state.senders]))
        else:
            if kind == StepKind.TICK:
                ticks += 1
                for i, sd in enumerate(state.senders):
                    if sd.phase == SenderPhase.COUNTDOWN:
                        idle[i] += 1
            else:
                # a boundary step collects the senders' outcome phases
                for i, sd in enumerate(state.senders):
                    if sd.phase == SenderPhase.SUCCESS:
                        successes[i, sd.e] += 1
                    elif sd.phase == SenderPhase.REJECT:
                        rejects[i] += 1
            ((_, state),) = auto.successor_distribution(state).branches
        trace.append(state)
        kind = auto.step_kind(state)
    deadlocked = kind == StepKind.DEADLOCK
    if deadlocked:
        # a deadlock stops the round before its boundary: only the
        # deliveries it completed count
        for i, sd in enumerate(state.senders):
            if sd.phase == SenderPhase.SUCCESS:
                successes[i, sd.e] += 1
    return RunStats(successes, rejects, np.array(idle, dtype=np.int64), ticks, rounds,
                    deadlocked)


def _run(auto: Automaton, rng: np.random.Generator, contexts: tuple,
         successes: np.ndarray, rejects: np.ndarray, idle: np.ndarray) -> tuple[int, int, bool]:
    """The untraced run from the round contexts `contexts`: add its counts
    to the zeroed per-sender arrays and return ``(ticks, rounds,
    deadlocked)``."""
    table = auto.cfg.table
    spent = [0] * len(contexts)
    ticks = rounds = 0
    deadlocked = False
    active = any(msgs for _, msgs in contexts)
    while active:
        rounds += 1
        draws = tuple([sample_rbc(table, e, rng) if msgs else -1 for e, msgs in contexts])
        (ends, _), round_ticks, round_idle, deadlocked = auto.round_outcome(draws)
        ticks += round_ticks
        spent = [a + b for a, b in zip(spent, round_idle)]
        if deadlocked:
            # a deadlock stops the round before its boundary: only the
            # deliveries it completed count
            for i, ((phase, _, _), (e, _)) in enumerate(zip(ends, contexts)):
                if phase == SenderPhase.SUCCESS:
                    successes[i, e] += 1
            break
        nxt, active = [], False
        for i, (end, (e, msgs)) in enumerate(zip(ends, contexts)):
            context, event = auto.settle(end[0], e, msgs)
            nxt.append(context)
            active = active or context[1] > 0
            if event is not None:
                if event[1]:
                    rejects[i] += 1
                else:
                    successes[i, event[0]] += 1
        contexts = nxt
    idle += spent
    return ticks, rounds, deadlocked


def run_rng(seed: int, run_index: int) -> np.random.Generator:
    """Counter-based stream of one run; reproducible in isolation.

    The key is built as uint64: from a list, numpy would round seeds at or
    above 2**63 through float64.
    """
    key = np.array([seed, run_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(rng: np.random.Generator, seed: int, run_index: int) -> None:
    """Reset a generator from :func:`run_rng` to the start of the stream
    ``run_rng(seed, run_index)`` draws: the state of a fresh Philox with
    that key, set without building a new generator."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([seed, run_index], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


@dataclass(eq=False)
class Aggregate:
    """Per-run outcome arrays of a simulation batch, in run-index order."""

    cfg: ScenarioConfig
    seed: int
    n_runs: int
    successes: np.ndarray   # (n_runs, n_senders, e_max+1)
    rejects: np.ndarray     # (n_runs, n_senders)
    idle_ticks: np.ndarray  # (n_runs, n_senders)
    ticks: np.ndarray       # (n_runs,)
    rounds: np.ndarray      # (n_runs,)
    deadlocked: np.ndarray  # (n_runs,) bool

    @property
    def n_deadlocked(self) -> int:
        return int(self.deadlocked.sum())

    def idle_seconds(self, sender: int | None = None) -> np.ndarray:
        """Idle listening seconds per run, one sender or all combined."""
        t = self.idle_ticks.sum(axis=1) if sender is None else self.idle_ticks[:, sender]
        return t * self.cfg.seconds_per_tick


def mean_ci95(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and 95% normal confidence half-width (ddof=1)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise ConfigError("confidence intervals need at least two runs")
    half = 1.96 * samples.std(ddof=1) / np.sqrt(samples.size)
    return float(samples.mean()), float(half)


def simulate(cfg: ScenarioConfig, n_runs: int, seed: int) -> Aggregate:
    """Run `n_runs` independent simulations and collect their statistics."""
    if n_runs < 2:
        raise ConfigError("n_runs must be >= 2")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    auto = Automaton(cfg)
    n = cfg.n_senders
    successes = np.zeros((n_runs, n, cfg.e_max + 1), dtype=np.int64)
    rejects = np.zeros((n_runs, n), dtype=np.int64)
    idle = np.zeros((n_runs, n), dtype=np.int64)
    ticks = np.zeros(n_runs, dtype=np.int64)
    rounds = np.zeros(n_runs, dtype=np.int64)
    deadlocked = np.zeros(n_runs, dtype=bool)
    start = auto.split(auto.initial_state())[0]
    rng = run_rng(seed, 0)
    for r in range(n_runs):
        _rekey(rng, seed, r)
        ticks[r], rounds[r], deadlocked[r] = _run(auto, rng, start, successes[r],
                                                  rejects[r], idle[r])
    return Aggregate(cfg, seed, n_runs, successes, rejects, idle, ticks, rounds, deadlocked)
