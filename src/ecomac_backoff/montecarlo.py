"""Monte Carlo simulation of the contention model.

Runs are driven by the same automaton as the exact engine.  The only
randomness is the per-sender backoff draw, sampled in ascending sender order
with one generator call each; :meth:`Automaton.play_round` plays the rest of
each round.  Each run gets its own counter-based stream keyed by (seed, run
index), so any subset of runs can be reproduced independently and results do
not depend on scheduling.  Traced runs record every state they enter.
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
             automaton: Automaton | None = None,
             trace: list[GlobalState] | None = None) -> RunStats:
    """Simulate one run; with `trace`, append every state it enters."""
    auto = automaton if automaton is not None else Automaton(cfg)
    n = cfg.n_senders
    successes = np.zeros((n, cfg.e_max + 1), dtype=np.int64)
    rejects = np.zeros(n, dtype=np.int64)
    idle = [0] * n
    ticks = 0
    rounds = 0
    deadlocked = False

    state = auto.initial_state()
    if trace is not None:
        trace.append(state)
    while not deadlocked and auto.step_kind(state) == StepKind.DRAW:
        rounds += 1
        outcomes = {
            i: auto.draw_outcome(sd, sample_rbc(cfg.table, sd.e, rng))
            for i, sd in enumerate(state.senders)
            if sd.phase == SenderPhase.CHOOSE
        }
        state = auto.drawn_state(state, outcomes)
        if trace is not None:
            trace.append(state)
        state, round_ticks, round_idle, events, deadlocked = auto.play_round(state, trace)
        ticks += round_ticks
        idle = [a + b for a, b in zip(idle, round_idle)]
        for s, e, is_reject in events:
            if is_reject:
                rejects[s] += 1
            else:
                successes[s, e] += 1

    return RunStats(successes, rejects, np.array(idle, dtype=np.int64),
                    ticks, rounds, deadlocked)


def run_rng(seed: int, run_index: int) -> np.random.Generator:
    """Counter-based stream of one run; reproducible in isolation.

    The key is built as uint64: from a list, numpy would round seeds at or
    above 2**63 through float64.
    """
    key = np.array([seed, run_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def simulate(cfg: ScenarioConfig, n_runs: int, seed: int,
             automaton: Automaton | None = None) -> Aggregate:
    """Run `n_runs` independent simulations and collect their statistics."""
    if n_runs < 2:
        raise ConfigError("n_runs must be >= 2")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    auto = automaton if automaton is not None else Automaton(cfg)
    n = cfg.n_senders
    successes = np.zeros((n_runs, n, cfg.e_max + 1), dtype=np.int64)
    rejects = np.zeros((n_runs, n), dtype=np.int64)
    idle = np.zeros((n_runs, n), dtype=np.int64)
    ticks = np.zeros(n_runs, dtype=np.int64)
    rounds = np.zeros(n_runs, dtype=np.int64)
    deadlocked = np.zeros(n_runs, dtype=bool)
    for r in range(n_runs):
        stats = run_once(cfg, run_rng(seed, r), auto)
        successes[r] = stats.successes
        rejects[r] = stats.rejects
        idle[r] = stats.idle_ticks
        ticks[r] = stats.ticks
        rounds[r] = stats.rounds
        deadlocked[r] = stats.deadlocked
    return Aggregate(cfg, seed, n_runs, successes, rejects, idle, ticks, rounds, deadlocked)
