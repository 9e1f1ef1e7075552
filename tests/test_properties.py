"""Validity battery, delivery profiles, energy figures, unit-sizing study."""

import dataclasses

import numpy as np
import pytest

from ecomac_backoff import dtmc as engine
from ecomac_backoff import montecarlo as mc
from ecomac_backoff.automata import ScenarioConfig
from ecomac_backoff.errors import ConfigError
from ecomac_backoff.properties import (
    BATTERY_EXPECTED,
    idle_listening_energy,
    idle_listening_time,
    run_validity_battery,
    success_profile,
    tcu_variation_study,
)


# -- validity battery ------------------------------------------------------------


def test_battery_matches_expected_pattern(two_sender_cfg, two_sender_model):
    reports = run_validity_battery(two_sender_cfg, dtmc=two_sender_model)
    assert [r.name for r in reports] == list(BATTERY_EXPECTED)
    assert [r.holds for r in reports] == list(BATTERY_EXPECTED.values())


def test_battery_details_and_onelines(two_sender_cfg, two_sender_model):
    reports = run_validity_battery(two_sender_cfg, dtmc=two_sender_model)
    by_name = {r.name: r for r in reports}

    # the existential drop claim fails by exhaustion, so no witness exists
    early = by_name["reject_below_failure_cap"]
    assert not early.holds and early.counterexample is None
    assert "no reachable state" in early.detail

    # the grant preemption check must have exercised every remaining count
    preempt = by_name["cts_preempts_rival_countdown"]
    assert "1..7" in preempt.detail and "trigger states" in preempt.detail

    for r in reports:
        line = r.oneline()
        assert r.name in line
        assert ("holds" in line) if r.holds else ("VIOLATED" in line)


def test_battery_builds_model_when_not_supplied():
    cfg = ScenarioConfig(n_senders=1, nmax_msg=1)
    reports = run_validity_battery(cfg)
    # a lone sender always wins round one: no rejects, no overlaps, no grants
    # to preempt anyone, so the two contention checks are vacuous
    by_name = {r.name: r for r in reports}
    assert by_name["reject_only_at_failure_cap"].holds
    assert not by_name["reject_below_failure_cap"].holds
    assert "vacuous" in by_name["cts_preempts_rival_countdown"].detail


# -- delivery profile ------------------------------------------------------------


def test_exact_profile_partitions_unit_mass(two_sender_cfg, two_sender_model):
    prof = success_profile(two_sender_cfg, sender=0, mode="exact",
                           dtmc=two_sender_model)
    assert prof.mode == "exact" and prof.n_states == two_sender_model.n_states
    assert prof.success_at.sum() + prof.reject_prob == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(prof.cumulative) >= -1e-12)
    assert prof.cumulative[-1] + prof.reject_prob == pytest.approx(1.0, abs=1e-9)
    # one unit of contention costs at most one failure, so round one resolves
    # at e=0 with the known 3/7 success share
    assert prof.success_at[0] == pytest.approx(3 / 7, abs=1e-9)
    assert prof.stderr_at is None and prof.reject_stderr is None


def test_per_packet_profile_partitions_unit_mass():
    cfg = ScenarioConfig(nmax_msg=2)
    prof = success_profile(cfg, sender=1, mode="exact", per_packet=True)
    assert prof.per_packet
    assert prof.success_at.sum() + prof.reject_prob == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(prof.cumulative, np.cumsum(prof.success_at))


def test_sampling_profile_agrees_with_exact(two_sender_cfg, two_sender_model):
    exact = success_profile(two_sender_cfg, mode="exact", dtmc=two_sender_model)
    sampled = success_profile(two_sender_cfg, mode="sampling",
                              n_runs=4000, seed=5)
    assert sampled.mode == "sampling"
    assert sampled.n_runs == 4000 and sampled.seed == 5

    def binom_se(p):
        return np.sqrt(p * (1 - p) / sampled.n_runs)

    # tail events too rare to appear in the sample leave stderr at zero, so
    # widen each band with the binomial error implied by the exact value
    tol = 4 * np.maximum(sampled.stderr_at, binom_se(exact.success_at)) + 1e-9
    assert np.all(np.abs(sampled.success_at - exact.success_at) <= tol)
    tol = 4 * np.maximum(sampled.stderr_cumulative,
                         binom_se(exact.cumulative)) + 1e-9
    assert np.all(np.abs(sampled.cumulative - exact.cumulative) <= tol)
    assert abs(sampled.reject_prob - exact.reject_prob) \
        <= 4 * max(sampled.reject_stderr, binom_se(exact.reject_prob)) + 1e-9


def test_sampling_reuses_a_prebuilt_aggregate(two_sender_cfg):
    agg = mc.simulate(two_sender_cfg, n_runs=200, seed=11)
    prof = success_profile(two_sender_cfg, mode="sampling", aggregate=agg)
    again = success_profile(two_sender_cfg, mode="sampling", aggregate=agg)
    assert prof.n_runs == 200 and prof.seed == 11
    assert np.array_equal(prof.success_at, again.success_at)


def test_auto_mode_falls_back_when_state_budget_is_tiny(two_sender_cfg):
    prof = success_profile(two_sender_cfg, mode="auto", exact_cap=50,
                           n_runs=300, seed=2)
    assert prof.mode == "sampling" and prof.n_runs == 300
    prof = success_profile(ScenarioConfig(n_senders=6), mode="auto", exact_cap=100,
                           n_runs=50, seed=2)
    assert prof.mode == "sampling" and prof.n_runs == 50


def test_auto_mode_prefers_exact_under_budget(two_sender_cfg, two_sender_model):
    prof = success_profile(two_sender_cfg, mode="auto",
                           exact_cap=two_sender_model.n_states + 1)
    assert prof.mode == "exact"


def test_profile_argument_validation(two_sender_cfg):
    with pytest.raises(ConfigError):
        success_profile(two_sender_cfg, mode="approximate")
    with pytest.raises(ConfigError):
        success_profile(two_sender_cfg, sender=2)
    with pytest.raises(ConfigError):
        success_profile(two_sender_cfg, sender=-1)


def test_empty_queue_profile_is_all_zero():
    cfg = ScenarioConfig(nmax_msg=0)
    for per_packet in (False, True):
        prof = success_profile(cfg, mode="exact", per_packet=per_packet)
        assert prof.success_at.sum() == 0.0
        assert prof.reject_prob == 0.0
        assert prof.n_states == 1


# -- idle listening and energy -----------------------------------------------------


def test_lone_sender_idle_time_and_energy(lone_cfg, lone_model):
    seconds = idle_listening_time(lone_cfg, dtmc=lone_model)
    assert seconds == pytest.approx(0.054848, abs=1e-9)
    res = idle_listening_energy(lone_cfg, dtmc=lone_model)
    assert res.power_mw == 13.5
    assert res.energy_mj == pytest.approx(0.740448, abs=1e-8)
    assert res.energy_mj == res.idle_seconds * res.power_mw


def test_idle_time_grows_with_queue_length(two_sender_model):
    times = [idle_listening_time(two_sender_model.cfg, dtmc=two_sender_model)]
    for nmax in (2, 3):
        times.append(idle_listening_time(ScenarioConfig(nmax_msg=nmax)))
    assert times[0] < times[1] < times[2]


@pytest.mark.parametrize("sender", [2, -1])
def test_idle_listening_rejects_an_out_of_range_sender(two_sender_cfg, two_sender_model,
                                                       sender):
    with pytest.raises(ConfigError, match=f"sender {sender} out of range for 2 senders"):
        idle_listening_time(two_sender_cfg, sender, dtmc=two_sender_model)
    with pytest.raises(ConfigError, match=f"sender {sender} out of range for 2 senders"):
        idle_listening_energy(two_sender_cfg, sender, dtmc=two_sender_model)


def test_prebuilt_model_must_match_scenario(lone_cfg, two_sender_model):
    with pytest.raises(ValueError):
        idle_listening_time(lone_cfg, dtmc=two_sender_model)


# -- contention-unit sizing study ---------------------------------------------------


def test_study_reports_all_three_variants(two_sender_cfg, lone_cfg):
    report = tcu_variation_study(two_sender_cfg)
    assert [row.variant for row in report.rows] == ["initial", "increased", "decreased"]
    initial, increased, decreased = report.rows

    assert initial.tcu_ticks == two_sender_cfg.tcu_ticks
    assert increased.tcu_ticks == two_sender_cfg.tcu_ticks + two_sender_cfg.d_frame
    assert decreased.tcu_ticks == two_sender_cfg.tcu_ticks - two_sender_cfg.d_frame

    for row in (initial, increased):
        assert row.n_deadlocks == 0 and row.deadlock_witness is None
        assert row.energy_mj == pytest.approx(row.idle_seconds * 13.5)
    # longer backoff units cost strictly more carrier sensing
    assert increased.idle_seconds > initial.idle_seconds
    # contention costs more than a solo exchange
    assert initial.idle_seconds > idle_listening_time(lone_cfg)

    assert decreased.n_deadlocks > 0
    assert decreased.idle_seconds is None and decreased.energy_mj is None
    witness = decreased.deadlock_witness
    assert "send_rts" in witness
    assert any(tag in witness for tag in ("r_switch_rt", "r_send_cts", "r_w_end"))


def test_study_rejects_units_too_short_to_shrink():
    cfg = ScenarioConfig(tcu_ticks=5)
    with pytest.raises(ConfigError, match="decreased"):
        tcu_variation_study(cfg)


def test_default_study_uses_default_scenario():
    report = tcu_variation_study()
    assert report.cfg == ScenarioConfig()
    assert dataclasses.asdict(ScenarioConfig())  # frozen dataclass stays a dataclass
