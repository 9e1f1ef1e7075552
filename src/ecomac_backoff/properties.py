"""Bundled verification workloads: validity battery, delivery profiles,
idle-listening cost, and the contention-unit sizing study.

Every quantity here is defined per sender; scenarios are symmetric in the
senders, so callers usually query sender 0.  Functions take an optional
prebuilt model to share the expensive state-space enumeration.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import dtmc as engine
from . import montecarlo as mc
from .automata import ReceiverPhase, ScenarioConfig, SenderPhase
from .dtmc import DTMC, PropertyReport
from .errors import ConfigError, StateSpaceLimitError

EXACT_STATES_CAP_DEFAULT = 2_000_000
# targets per reachability sweep: a sweep holds an (n_states, SOLVE_BLOCK)
# float64 array, so wider blocks buy little speed for much memory
SOLVE_BLOCK = 4

# verdicts a correct backoff model must produce; the third check is an
# existential claim the model is supposed to refute
BATTERY_EXPECTED = {
    "reject_only_at_failure_cap": True,
    "success_within_failure_bounds": True,
    "reject_below_failure_cap": False,
    "overlapping_rts_collide": True,
    "cts_preempts_rival_countdown": True,
}


def _model(cfg: ScenarioConfig, dtmc: DTMC | None,
           max_states: int = engine.MAX_STATES_DEFAULT) -> DTMC:
    if dtmc is not None:
        if dtmc.cfg != cfg:
            raise ValueError("prebuilt model was constructed for a different scenario")
        return dtmc
    return engine.build(cfg, max_states=max_states)


def _check_sender(cfg: ScenarioConfig, sender: int) -> None:
    if not 0 <= sender < cfg.n_senders:
        raise ConfigError(f"sender {sender} out of range for {cfg.n_senders} senders")


# -- validity battery ------------------------------------------------------------


def run_validity_battery(cfg: ScenarioConfig | None = None,
                         dtmc: DTMC | None = None) -> list[PropertyReport]:
    """Five structural checks of the backoff procedure on one scenario.

    The third check is an existential claim (a packet can be dropped before
    the failure cap) that a correct model refutes, so the expected verdict
    pattern on the default scenario is True, True, False, True, True.
    """
    cfg = cfg if cfg is not None else ScenarioConfig()
    d = _model(cfg, dtmc)
    n = cfg.n_senders
    e_max = cfg.e_max
    reports = []

    ok = np.ones(d.n_states, dtype=bool)
    for i in range(n):
        ok &= (d.sender_phase(i) != SenderPhase.REJECT) | (d.sender_e(i) == e_max)
    reports.append(engine.check_invariant(d, ok, "reject_only_at_failure_cap"))

    ok = np.ones(d.n_states, dtype=bool)
    for i in range(n):
        in_success = d.sender_phase(i) == SenderPhase.SUCCESS
        ok &= ~in_success | ((d.sender_e(i) >= 0) & (d.sender_e(i) <= e_max))
    reports.append(engine.check_invariant(d, ok, "success_within_failure_bounds"))

    early = np.zeros(d.n_states, dtype=bool)
    for i in range(n):
        early |= (d.sender_phase(i) == SenderPhase.REJECT) & (d.sender_e(i) < e_max)
    hits = np.flatnonzero(early)
    if hits.size:
        reports.append(PropertyReport(
            "reject_below_failure_cap", True,
            f"{hits.size} reachable states drop a packet below the failure cap",
            d.trace_to(int(hits[0])),
        ))
    else:
        reports.append(PropertyReport(
            "reject_below_failure_cap", False,
            "no reachable state drops a packet below the failure cap",
        ))

    rts_count = np.zeros(d.n_states, dtype=np.int64)
    for i in range(n):
        rts_count += d.sender_phase(i) == SenderPhase.SEND_RTS
    ok = (rts_count < 2) | (np.asarray(d.receiver_phase()) == ReceiverPhase.COLLISION)
    reports.append(engine.check_invariant(d, ok, "overlapping_rts_collide"))

    reports.append(_cts_preempts_rival_countdown(d))
    return reports


def _cts_preempts_rival_countdown(d: DTMC) -> PropertyReport:
    """A sender counting down when a grant goes out must end the round asleep
    with its remaining backoff intact, for every remaining count."""
    cfg = d.cfg
    receiver_granting = np.asarray(d.receiver_phase()) == ReceiverPhase.SEND_CTS
    winner = np.asarray(d.receiver_winner())
    total_triggers = 0
    ks_seen = set()
    for i in range(cfg.n_senders):
        rival_grant = receiver_granting & (winner != i) & (winner >= 0)
        counting = d.sender_phase(i) == SenderPhase.COUNTDOWN
        for k in range(1, cfg.b_max + 1):
            trigger = rival_grant & counting & (d.sender_rbc(i) == k)
            n_trig = int(trigger.sum())
            if n_trig == 0:
                continue
            total_triggers += n_trig
            ks_seen.add(k)
            goal = (d.sender_phase(i) == SenderPhase.SLEEP) & (d.sender_rbc(i) == k)
            sub = engine.almost_sure_leads_to(
                d, trigger, np.asarray(goal), "cts_preempts_rival_countdown"
            )
            if not sub.holds:
                sub.detail = f"sender {i} with {k} units left: " + sub.detail
                return sub
    if total_triggers == 0:
        return PropertyReport(
            "cts_preempts_rival_countdown", True,
            "vacuous: no reachable grant overlaps a rival countdown",
        )
    return PropertyReport(
        "cts_preempts_rival_countdown", True,
        f"{total_triggers} trigger states, remaining counts "
        f"{{{min(ks_seen)}..{max(ks_seen)}}} all park the rival with its counter intact",
    )


# -- delivery profile ------------------------------------------------------------


@dataclass(eq=False)
class ProfileResult:
    """Delivery outcome profile of one sender over the failure counter.

    success_at[k] is, per packet when per_packet is set, the expected share
    of packets delivered after exactly k failures, and otherwise the
    probability that some packet is delivered after exactly k failures.
    cumulative[k] aggregates k' <= k the same way; reject_prob mirrors it
    for packets dropped at the failure cap.  Sampling results carry normal
    standard errors; exact results leave them None.
    """

    cfg: ScenarioConfig
    sender: int
    mode: str                   # "exact" or "sampling"
    per_packet: bool
    success_at: np.ndarray
    cumulative: np.ndarray
    reject_prob: float
    stderr_at: np.ndarray | None = None
    stderr_cumulative: np.ndarray | None = None
    reject_stderr: float | None = None
    n_states: int | None = None
    n_runs: int | None = None
    seed: int | None = None
    n_deadlocked: int = 0


def success_profile(cfg: ScenarioConfig, sender: int = 0, mode: str = "auto",
                    per_packet: bool = False, n_runs: int = 10_000, seed: int = 0,
                    exact_cap: int = EXACT_STATES_CAP_DEFAULT,
                    dtmc: DTMC | None = None,
                    aggregate: mc.Aggregate | None = None) -> ProfileResult:
    """Distribution of delivery outcomes over the per-packet failure counter.

    mode "auto" tries the exact engine under a state budget and falls back
    to simulation; "exact" and "sampling" force one route.
    """
    if mode not in ("auto", "exact", "sampling"):
        raise ConfigError(f"unknown profile mode {mode!r}")
    _check_sender(cfg, sender)

    if mode != "sampling":
        try:
            d = _model(cfg, dtmc,
                       max_states=exact_cap if mode == "auto" else engine.MAX_STATES_DEFAULT)
        except StateSpaceLimitError:
            if mode == "exact":
                raise
            d = None
        if d is not None:
            return _exact_profile(d, sender, per_packet)

    agg = aggregate if aggregate is not None else mc.simulate(cfg, n_runs, seed)
    return _sampled_profile(agg, sender, per_packet)


def _exact_profile(d: DTMC, sender: int, per_packet: bool) -> ProfileResult:
    cfg = d.cfg
    e_max = cfg.e_max
    phase = d.sender_phase(sender)
    e = d.sender_e(sender)
    success = phase == SenderPhase.SUCCESS
    reject_mask = phase == SenderPhase.REJECT
    if per_packet:
        nmax = cfg.nmax_msg
        if nmax == 0:
            success_at = np.zeros(e_max + 1)
            reject = 0.0
        else:
            masks = [success & (e == k) for k in range(e_max + 1)] + [reject_mask]
            entries = engine.expected_entries(d, np.stack(masks, axis=1)) / nmax
            success_at, reject = entries[:-1], entries[-1]
        cumulative = np.cumsum(success_at)
    else:
        masks = itertools.chain((success & (e == k) for k in range(e_max + 1)),
                                (success & (e <= k) for k in range(e_max + 1)),
                                (reject_mask,))
        reach = _reach_from_start(d, masks)
        success_at, cumulative, reject = reach[:e_max + 1], reach[e_max + 1:-1], reach[-1]
    return ProfileResult(
        cfg, sender, "exact", per_packet, success_at, cumulative, float(reject),
        n_states=d.n_states,
    )


def _reach_from_start(d: DTMC, masks: Iterator[np.ndarray]) -> np.ndarray:
    """Reach probability of each target from the initial state, solved
    SOLVE_BLOCK targets per sweep; masks are drawn one block at a time."""
    out = []
    while block := list(itertools.islice(masks, SOLVE_BLOCK)):
        out.extend(engine.prob_reach(d, np.stack(block, axis=1))[0])
    return np.array(out)


def _sampled_profile(agg: mc.Aggregate, sender: int, per_packet: bool) -> ProfileResult:
    cfg = agg.cfg
    e_max = cfg.e_max
    n = agg.n_runs
    counts = agg.successes[:, sender, :].astype(np.float64)
    if per_packet:
        nmax = max(cfg.nmax_msg, 1)
        at = counts / nmax
        cum = np.cumsum(counts, axis=1) / nmax
        rej = agg.rejects[:, sender] / nmax
    else:
        at = (counts > 0).astype(np.float64)
        cum = (np.cumsum(counts, axis=1) > 0).astype(np.float64)
        rej = (agg.rejects[:, sender] > 0).astype(np.float64)
    root = np.sqrt(n)
    return ProfileResult(
        cfg, sender, "sampling", per_packet,
        at.mean(axis=0), cum.mean(axis=0), float(rej.mean()),
        stderr_at=at.std(axis=0, ddof=1) / root,
        stderr_cumulative=cum.std(axis=0, ddof=1) / root,
        reject_stderr=float(rej.std(ddof=1) / root),
        n_runs=n, seed=agg.seed, n_deadlocked=agg.n_deadlocked,
    )


# -- idle listening and energy ----------------------------------------------------


def idle_listening_time(cfg: ScenarioConfig, sender: int = 0,
                        dtmc: DTMC | None = None) -> float:
    """Expected seconds a sender spends carrier sensing until all its packets
    are resolved (delivered or dropped)."""
    _check_sender(cfg, sender)
    d = _model(cfg, dtmc)
    rewards = engine.idle_listening_rewards(d, sender)
    done = np.asarray(d.sender_phase(sender) == SenderPhase.DONE)
    return engine.expected_reward(d, rewards, done)


@dataclass(frozen=True)
class EnergyResult:
    sender: int
    idle_seconds: float
    power_mw: float

    @property
    def energy_mj(self) -> float:
        return self.idle_seconds * self.power_mw


def idle_listening_energy(cfg: ScenarioConfig, sender: int = 0,
                          dtmc: DTMC | None = None) -> EnergyResult:
    """Idle-listening energy at the configured radio idle power."""
    seconds = idle_listening_time(cfg, sender, dtmc)
    return EnergyResult(sender, seconds, cfg.idle_power_mw)


# -- contention-unit sizing study --------------------------------------------------


@dataclass(eq=False)
class StudyRow:
    variant: str
    tcu_ticks: int
    n_states: int
    n_deadlocks: int
    idle_seconds: float | None
    energy_mj: float | None
    deadlock_witness: str | None


@dataclass(eq=False)
class StudyReport:
    cfg: ScenarioConfig
    rows: list[StudyRow]


def tcu_variation_study(cfg: ScenarioConfig | None = None, sender: int = 0,
                        max_states: int = engine.MAX_STATES_DEFAULT) -> StudyReport:
    """Compare the scenario against contention units one frame longer and one
    frame shorter.

    A longer unit keeps the exchange deadlock free but pays more idle
    listening per backoff step; a shorter one opens timing windows in which
    a late transmission overlaps the grant, reported here as deadlocks with
    a shortest witness trace.
    """
    cfg = cfg if cfg is not None else ScenarioConfig()
    variants = [("initial", cfg.tcu_ticks),
                ("increased", cfg.tcu_ticks + cfg.d_frame),
                ("decreased", cfg.tcu_ticks - cfg.d_frame)]
    rows = []
    for name, tcu in variants:
        if tcu < 1:
            raise ConfigError(
                f"variant {name!r} needs tcu_ticks >= 1, got {tcu}"
            )
        vcfg = cfg if tcu == cfg.tcu_ticks else cfg.with_tcu(tcu)
        d = engine.build(vcfg, max_states=max_states)
        n_dead = len(d.deadlock_indices)
        if n_dead:
            witness = engine.find_deadlocks(d, limit=1)[0].render(d)
            rows.append(StudyRow(name, tcu, d.n_states, n_dead, None, None, witness))
        else:
            seconds = idle_listening_time(vcfg, sender, dtmc=d)
            rows.append(StudyRow(
                name, tcu, d.n_states, 0, seconds,
                seconds * vcfg.idle_power_mw, None,
            ))
        del d
    return StudyReport(cfg, rows)
