"""Exact and simulative analysis of a receiver-granted contention backoff.

The package models N senders racing for one receiver with uniformly drawn
backoff counters over failure-dependent windows, builds the exact
discrete-time Markov chain of the synchronized protocol product, checks
qualitative properties on it, computes idle-listening costs, and
cross-validates everything by Monte Carlo simulation of the same automaton.
"""

__version__ = "0.1.0"

from .automata import (
    Automaton,
    GlobalState,
    ReceiverPhase,
    ReceiverState,
    ScenarioConfig,
    SenderPhase,
    SenderState,
    StepKind,
    initial_state,
    label,
    label_text,
)
from .backoff import (
    DEFAULT_TABLE,
    BackoffTable,
    ContentionWindow,
    compute_tcu,
    rbc_pmf,
    sample_rbc,
)
from .dtmc import (
    DTMC,
    PropertyReport,
    Trace,
    almost_sure_leads_to,
    build,
    check_invariant,
    dump_statespace,
    expected_entries,
    expected_reward,
    find_deadlocks,
    idle_listening_rewards,
    reach_from_start,
)
from .errors import (
    ConfigError,
    RewardUndefinedError,
    SolverError,
    StateSpaceLimitError,
)
from .montecarlo import (
    Aggregate,
    RunStats,
    mean_ci95,
    run_once,
    run_rng,
    simulate,
)
from .properties import (
    BATTERY_EXPECTED,
    EnergyResult,
    ProfileResult,
    StudyReport,
    StudyRow,
    idle_listening_energy,
    idle_listening_time,
    run_validity_battery,
    success_profile,
    tcu_variation_study,
)
