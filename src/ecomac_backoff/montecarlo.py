"""Monte Carlo simulation of the contention model.

Runs are driven by the same automaton as the exact engine: deterministic
steps come straight out of ``successor_distribution`` and the only randomness
is the per-sender backoff draw, sampled in ascending sender order with one
generator call each.  Each run gets its own counter-based stream keyed by
(seed, run index), so any subset of runs can be reproduced independently and
results do not depend on scheduling.

Deterministic stretches between draws are summarized into a bounded cache
(end state plus accumulated counters).  The cache never touches the random
stream, so simulations are bit-identical with and without it; traced runs
bypass it to recover the full state sequence.
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

_CACHE_LIMIT_DEFAULT = 300_000


@dataclass
class RunStats:
    """Outcome counters of one simulated run."""

    run_index: int
    successes: np.ndarray   # (n_senders, e_max+1) deliveries by failure count
    rejects: np.ndarray     # (n_senders,) packets dropped at the failure cap
    idle_ticks: np.ndarray  # (n_senders,) ticks spent listening in countdown
    ticks: int              # elapsed model ticks (draws and resets take none)
    rounds: int             # contention rounds entered
    deadlocked: bool


class _Segment:
    """Accumulated effect of a maximal run of deterministic steps."""

    __slots__ = ("end", "ticks", "idle", "events")

    def __init__(self, end, ticks, idle, events):
        self.end = end
        self.ticks = ticks
        self.idle = idle          # tuple[int, ...] per sender
        self.events = events      # tuple[(sender, e, is_reject), ...]


class Simulator:
    """Reusable per-scenario simulator with a deterministic-segment cache."""

    def __init__(self, cfg: ScenarioConfig, automaton: Automaton | None = None,
                 cache_limit: int = _CACHE_LIMIT_DEFAULT):
        self.cfg = cfg
        self.auto = automaton if automaton is not None else Automaton(cfg)
        self.cache_limit = cache_limit
        self._segments: dict[GlobalState, _Segment] = {}

    def run(self, rng: np.random.Generator, run_index: int = 0,
            trace: list[GlobalState] | None = None) -> RunStats:
        cfg = self.cfg
        auto = self.auto
        n = cfg.n_senders
        successes = np.zeros((n, cfg.e_max + 1), dtype=np.int64)
        rejects = np.zeros(n, dtype=np.int64)
        idle = np.zeros(n, dtype=np.int64)
        ticks = 0
        rounds = 0
        deadlocked = False

        state = auto.initial_state()
        if trace is not None:
            trace.append(state)
        while True:
            kind = auto.step_kind(state)
            if kind == StepKind.TERMINAL:
                break
            if kind == StepKind.DEADLOCK:
                deadlocked = True
                break
            if kind == StepKind.DRAW:
                rounds += 1
                outcomes = {
                    i: auto.draw_outcome(sd, sample_rbc(cfg.table, sd.e, rng))
                    for i, sd in enumerate(state.senders)
                    if sd.phase == SenderPhase.CHOOSE
                }
                state = auto.drawn_state(state, outcomes)
                if trace is not None:
                    trace.append(state)
                continue

            # deterministic stretch (boundary resets and ticks)
            if trace is None:
                seg = self._segments.get(state)
                if seg is not None:
                    ticks += seg.ticks
                    idle += seg.idle
                    for s, e, is_reject in seg.events:
                        if is_reject:
                            rejects[s] += 1
                        else:
                            successes[s, e] += 1
                    state = seg.end
                    continue
            start = state
            seg_ticks = 0
            seg_idle = [0] * n
            events: list[tuple[int, int, bool]] = []
            while kind in (StepKind.BOUNDARY, StepKind.TICK):
                if kind == StepKind.TICK:
                    seg_ticks += 1
                    for i, sd in enumerate(state.senders):
                        if sd.phase == SenderPhase.COUNTDOWN:
                            seg_idle[i] += 1
                nxt = auto.successor_distribution(state).branches[0][1]
                for i in range(n):
                    before = state.senders[i].phase
                    after = nxt.senders[i]
                    if after.phase == SenderPhase.SUCCESS and before != SenderPhase.SUCCESS:
                        events.append((i, after.e, False))
                    elif after.phase == SenderPhase.REJECT and before != SenderPhase.REJECT:
                        events.append((i, after.e, True))
                state = nxt
                if trace is not None:
                    trace.append(state)
                kind = auto.step_kind(state)
            ticks += seg_ticks
            idle += np.asarray(seg_idle, dtype=np.int64)
            for s, e, is_reject in events:
                if is_reject:
                    rejects[s] += 1
                else:
                    successes[s, e] += 1
            if trace is None and len(self._segments) < self.cache_limit:
                self._segments[start] = _Segment(
                    state, seg_ticks, tuple(seg_idle), tuple(events)
                )

        return RunStats(run_index, successes, rejects, idle, ticks, rounds, deadlocked)


def run_once(cfg: ScenarioConfig, rng: np.random.Generator,
             automaton: Automaton | None = None,
             trace: list[GlobalState] | None = None) -> RunStats:
    """Simulate one run without any caching (reference path for tests)."""
    return Simulator(cfg, automaton, cache_limit=0).run(rng, 0, trace)


def run_rng(seed: int, run_index: int) -> np.random.Generator:
    """Counter-based stream of one run; reproducible in isolation."""
    return np.random.Generator(np.random.Philox(key=[seed, run_index]))


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

    def delivered_within(self, sender: int, e_cap: int) -> np.ndarray:
        """Packets per run the sender delivered with at most e_cap failures."""
        return self.successes[:, sender, : e_cap + 1].sum(axis=1)

    def ever_delivered_within(self, sender: int, e_cap: int) -> np.ndarray:
        """Per-run indicator: did the sender deliver any packet with e <= e_cap."""
        return (self.delivered_within(sender, e_cap) > 0).astype(np.float64)


def mean_ci95(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and 95% normal confidence half-width (ddof=1)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise ConfigError("confidence intervals need at least two runs")
    half = 1.96 * samples.std(ddof=1) / np.sqrt(samples.size)
    return float(samples.mean()), float(half)


def simulate(cfg: ScenarioConfig, n_runs: int, seed: int,
             automaton: Automaton | None = None,
             simulator: Simulator | None = None) -> Aggregate:
    """Run `n_runs` independent simulations and collect their statistics."""
    if n_runs < 2:
        raise ConfigError("n_runs must be >= 2")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    sim = simulator if simulator is not None else Simulator(cfg, automaton)
    n = cfg.n_senders
    successes = np.zeros((n_runs, n, cfg.e_max + 1), dtype=np.int64)
    rejects = np.zeros((n_runs, n), dtype=np.int64)
    idle = np.zeros((n_runs, n), dtype=np.int64)
    ticks = np.zeros(n_runs, dtype=np.int64)
    rounds = np.zeros(n_runs, dtype=np.int64)
    deadlocked = np.zeros(n_runs, dtype=bool)
    for r in range(n_runs):
        stats = sim.run(run_rng(seed, r), r)
        successes[r] = stats.successes
        rejects[r] = stats.rejects
        idle[r] = stats.idle_ticks
        ticks[r] = stats.ticks
        rounds[r] = stats.rounds
        deadlocked[r] = stats.deadlocked
    return Aggregate(cfg, seed, n_runs, successes, rejects, idle, ticks, rounds, deadlocked)
