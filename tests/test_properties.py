"""Validity battery, delivery profiles, energy figures, unit-sizing study."""

import dataclasses
import math

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


# exact outputs for sender 0 at (n_senders, 1 packet), recorded from the
# earlier solver, which substituted every state level by level: the
# per-sender profile as float.hex, held to ==, and idle time and the
# per-packet profile, held within 1e-13 relative (solving a run at once
# sums its rewards in another order)
_PINNED_OUTPUTS = {
    2: {
        "success_at": [
            "0x1.b6db6db6db6dep-2", "0x1.f58d0fac687d9p-2", "0x1.1f58d0fac6880p-4",
            "0x1.4924924924924p-7", "0x1.4865811e99bfbp-10", "0x1.478b245bb1f3fp-13",
            "0x1.7655e068cb600p-16", "0x1.aa5394e920826p-19", "0x1.e53fea031a989p-22",
            "0x1.41a6b572b28b0p-24", "0x1.a9e91aa277e46p-27", "0x1.512ddfc09eea4p-29",
            "0x1.0a31b0a58aeebp-31",
        ],
        "cumulative": [
            "0x1.b6db6db6db6dep-2", "0x1.d6343eb1a1f5dp-1", "0x1.fa1f58d0fac6dp-1",
            "0x1.ff43eb1a1f592p-1", "0x1.ffe81ddaaea62p-1", "0x1.fffc968cf4612p-1",
            "0x1.ffff8338b532cp-1", "0x1.ffffedcd9a6d1p-1", "0x1.fffffcf799bd2p-1",
            "0x1.ffffff7ae7281p-1", "0x1.ffffffe5616edp-1", "0x1.fffffffa744ccp-1",
            "0x1.fffffffe9d139p-1",
        ],
        "reject": "0x1.62eceb8763e91p-33",
        "idle_s": 0.07925352548770931,
        "per_packet_at": [
            0.42857142857142855, 0.4897959183673469, 0.07015306122448976,
            0.010044642857142854, 0.0012527332361516033, 0.00015618492294877128,
            2.2312131849824464e-05, 3.176379881398622e-06, 4.519239668656576e-07,
            7.489025736630896e-08, 1.2395628805458037e-08, 2.45330153441357e-09,
            4.842042502132047e-10,
        ],
        "per_packet_reject": 1.6140141673773488e-10,
    },
    3: {
        "success_at": [
            "0x1.0fac687d63435p-2", "0x1.204e79560b4b4p-2", "0x1.46ff40eed5746p-2",
            "0x1.a452d871722e8p-4", "0x1.92fb75717cc3fp-6", "0x1.53e8631c2400cp-8",
            "0x1.23ed367e1e978p-10", "0x1.ea88ece32ff10p-13", "0x1.9835e2851f7b3p-15",
            "0x1.7342a0ddc3910p-17", "0x1.54e6fcbd047b1p-19", "0x1.61709b154b659p-21",
            "0x1.74aa85e2b5d68p-23",
        ],
        "cumulative": [
            "0x1.0fac687d63435p-2", "0x1.17fd70e9b747cp-1", "0x1.bb7d116122008p-1",
            "0x1.f0076c6f504c2p-1", "0x1.fc9f481adc32dp-1", "0x1.ff4718e114739p-1",
            "0x1.ffd90f7c53862p-1", "0x1.fff7b80b21b97p-1", "0x1.fffe18e2abcdep-1",
            "0x1.ffff8c254ca8dp-1", "0x1.ffffe15f0bdd1p-1", "0x1.fffff776158fap-1",
            "0x1.fffffd48bfa35p-1",
        ],
        "reject": "0x1.5ba02ddd4dce4p-24",
        "idle_s": 0.09914360240755228,
        "per_packet_at": [
            0.26530612244897955, 0.28154935443565177, 0.3193330903790087,
            0.10261807010750727, 0.024596085253460496, 0.005186580845602907,
            0.0011136116513897636, 0.0002339052508428716, 4.8662482222447624e-05,
            1.1064418170583736e-05, 2.5399200169828553e-06, 6.583330526604341e-07,
            1.7353617839139983e-07,
        ],
        "per_packet_reject": 8.093791544350266e-08,
    },
}


@pytest.mark.parametrize("n_senders", sorted(_PINNED_OUTPUTS))
def test_exact_outputs_match_their_pinned_values(n_senders):
    want = _PINNED_OUTPUTS[n_senders]
    cfg = ScenarioConfig(n_senders=n_senders)
    d = engine.build(cfg)
    prof = success_profile(cfg, mode="exact", dtmc=d)
    assert [float(v).hex() for v in prof.success_at] == want["success_at"]
    assert [float(v).hex() for v in prof.cumulative] == want["cumulative"]
    assert prof.reject_prob.hex() == want["reject"]
    assert idle_listening_time(cfg, dtmc=d) == pytest.approx(want["idle_s"], rel=1e-13, abs=0)
    prof = success_profile(cfg, mode="exact", per_packet=True, dtmc=d)
    np.testing.assert_allclose(prof.success_at, want["per_packet_at"], rtol=1e-13, atol=0)
    assert prof.reject_prob == pytest.approx(want["per_packet_reject"], rel=1e-13, abs=0)


# exact outputs for sender 0, recorded as float.hex while the per-packet
# profile was still a forward occupation push and the reward solve folded
# dense columns along the runs; idle time and the per-sender profile are
# held bit for bit, the per-packet profile within 1e-12 (its entering edges
# are now summed backward).  Per (n_senders, nmax_msg, robust_mode,
# tcu_ticks): idle seconds, the per-sender success_at, cumulative and
# reject_prob, then the per-packet success_at and reject_prob.
_FLOAT_PINS = {
    (1, 1, False, None): (
        "0x1.c15097c80841ep-5",
        "0x1.ffffffffffffep-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x1.ffffffffffffep-1 0x1.ffffffffffffep-1 0x1.ffffffffffffep-1 "
        "0x1.ffffffffffffep-1 0x1.ffffffffffffep-1 0x1.ffffffffffffep-1 "
        "0x1.ffffffffffffep-1 0x1.ffffffffffffep-1 0x1.ffffffffffffep-1 "
        "0x1.ffffffffffffep-1 0x1.ffffffffffffep-1 0x1.ffffffffffffep-1 "
        "0x1.ffffffffffffep-1",
        "0x0.0p+0",
        "0x1.ffffffffffffep-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0",
    ),
    (2, 1, False, None): (
        "0x1.449f5840ffa65p-4",
        "0x1.b6db6db6db6dep-2 0x1.f58d0fac687d9p-2 0x1.1f58d0fac6880p-4 "
        "0x1.4924924924924p-7 0x1.4865811e99bfbp-10 0x1.478b245bb1f3fp-13 "
        "0x1.7655e068cb600p-16 0x1.aa5394e920826p-19 0x1.e53fea031a989p-22 "
        "0x1.41a6b572b28b0p-24 0x1.a9e91aa277e46p-27 0x1.512ddfc09eea4p-29 "
        "0x1.0a31b0a58aeebp-31",
        "0x1.b6db6db6db6dep-2 0x1.d6343eb1a1f5dp-1 0x1.fa1f58d0fac6dp-1 "
        "0x1.ff43eb1a1f592p-1 0x1.ffe81ddaaea62p-1 0x1.fffc968cf4612p-1 "
        "0x1.ffff8338b532cp-1 0x1.ffffedcd9a6d1p-1 0x1.fffffcf799bd2p-1 "
        "0x1.ffffff7ae7281p-1 0x1.ffffffe5616edp-1 0x1.fffffffa744ccp-1 "
        "0x1.fffffffe9d139p-1",
        "0x1.62eceb8763e91p-33",
        "0x1.b6db6db6db6dbp-2 0x1.f58d0fac687d6p-2 0x1.1f58d0fac687bp-4 "
        "0x1.4924924924923p-7 0x1.4865811e99bfcp-10 0x1.478b245bb1f3bp-13 "
        "0x1.7655e068cb5f9p-16 0x1.aa5394e920824p-19 0x1.e53fea031a986p-22 "
        "0x1.41a6b572b28b0p-24 0x1.a9e91aa277e44p-27 0x1.512ddfc09eea1p-29 "
        "0x1.0a31b0a58aeecp-31",
        "0x1.62eceb8763e8fp-33",
    ),
    (2, 2, False, None): (
        "0x1.565dc09718907p-3",
        "0x1.9c29a01a28cb2p-1 0x1.8d7a3daeb650fp-2 0x1.977cdf8e2c77ep-2 "
        "0x1.78a3f011fa50fp-4 0x1.2ae1d7b535ae8p-6 0x1.5db5a7192c645p-9 "
        "0x1.c12c2115e2cc8p-12 0x1.272cb64cc29b5p-14 0x1.3eb78f8de2717p-17 "
        "0x1.a6747e4521a58p-20 0x1.d09ce8b03cbe3p-23 0x1.508e106f02ff0p-25 "
        "0x1.90ffc7df29058p-28",
        "0x1.9c29a01a28cb2p-1 0x1.fac8e442de434p-1 0x1.ffdf65f3907c1p-1 "
        "0x1.ffff3b02781d5p-1 0x1.fffffc2654b03p-1 0x1.ffffffe8cdb6ep-1 "
        "0x1.ffffffff8603cp-1 0x1.fffffffffdf00p-1 0x1.fffffffffff43p-1 "
        "0x1.0000000000001p+0 0x1.0000000000003p+0 0x1.0000000000003p+0 "
        "0x1.0000000000003p+0",
        "0x1.88bf6ae2d1434p-30",
        "0x1.fa34130a7c625p-2 0x1.f8886bf4de9ecp-3 0x1.9ec78242cab21p-3 "
        "0x1.795e0c3fbbe5cp-5 0x1.2af412bf3555ap-7 0x1.5db86969066f9p-10 "
        "0x1.c12ca5edbe832p-13 0x1.272cc1d16c2cdp-15 0x1.3eb7910ae31b4p-18 "
        "0x1.a6747e8ce09dbp-21 0x1.d09ce8bbfec12p-24 0x1.508e10708d80bp-26 "
        "0x1.90ffc7df699b6p-29",
        "0x1.88bf6ae2f004ep-31",
    ),
    (3, 1, False, None): (
        "0x1.96179a1f2b473p-4",
        "0x1.0fac687d63435p-2 0x1.204e79560b4b4p-2 0x1.46ff40eed5746p-2 "
        "0x1.a452d871722e8p-4 0x1.92fb75717cc3fp-6 0x1.53e8631c2400cp-8 "
        "0x1.23ed367e1e978p-10 0x1.ea88ece32ff10p-13 0x1.9835e2851f7b3p-15 "
        "0x1.7342a0ddc3910p-17 0x1.54e6fcbd047b1p-19 0x1.61709b154b659p-21 "
        "0x1.74aa85e2b5d68p-23",
        "0x1.0fac687d63435p-2 0x1.17fd70e9b747cp-1 0x1.bb7d116122008p-1 "
        "0x1.f0076c6f504c2p-1 0x1.fc9f481adc32dp-1 0x1.ff4718e114739p-1 "
        "0x1.ffd90f7c53862p-1 0x1.fff7b80b21b97p-1 0x1.fffe18e2abcdep-1 "
        "0x1.ffff8c254ca8dp-1 0x1.ffffe15f0bdd1p-1 0x1.fffff776158fap-1 "
        "0x1.fffffd48bfa35p-1",
        "0x1.5ba02ddd4dce4p-24",
        "0x1.0fac687d6343ep-2 0x1.204e79560b4d4p-2 0x1.46ff40eed5752p-2 "
        "0x1.a452d87172313p-4 0x1.92fb75717cc69p-6 0x1.53e8631c24034p-8 "
        "0x1.23ed367e1e98ap-10 0x1.ea88ece32feb2p-13 0x1.9835e2851f823p-15 "
        "0x1.7342a0ddc397ap-17 0x1.54e6fcbd04760p-19 0x1.61709b154b5f5p-21 "
        "0x1.74aa85e2b5e10p-23",
        "0x1.5ba02ddd4dd66p-24",
    ),
    (2, 2, True, 3): (
        "0x1.daf25c7f43192p-4",
        "0x1.ff888ba868ae9p-2 0x1.39d8a8b420f45p-2 0x1.4d0e724a59ae7p-2 "
        "0x1.e83d55ec9934cp-3 0x1.78ee8a0edfe59p-3 0x1.bf5367c48ff34p-4 "
        "0x1.28fa72ecc4d3cp-4 0x1.a2ef42a7d916ep-5 0x1.cde444510eb3dp-6 "
        "0x1.5159815d58eb3p-6 0x1.75dbb2a0f794dp-7 0x1.1f143e9be368dp-7 "
        "0x1.5265d0080da0bp-8",
        "0x1.ff888ba868ae9p-2 0x1.7de663d2201cfp-1 0x1.cbd9869c73a85p-1 "
        "0x1.eb84342875545p-1 0x1.f85da47d11ddep-1 0x1.fd10091c22fb4p-1 "
        "0x1.ff0821685f1efp-1 0x1.ffb1a813b3d35p-1 0x1.ffe2f5772afa0p-1 "
        "0x1.fff4c32564104p-1 0x1.fffa8739c4026p-1 0x1.fffcc8e6e2bfap-1 "
        "0x1.fffd8f18bfce2p-1",
        "0x1.bac20cf44259dp-7",
        "0x1.151754dcd7424p-2 0x1.5a0b75ad75ec9p-3 0x1.6c4e88879897fp-3 "
        "0x1.019309b6bc978p-3 0x1.84a13da165117p-4 0x1.c72c803afeccap-5 "
        "0x1.2ca0418b7826dp-5 0x1.a5d4c3cecd3d2p-6 0x1.cf728ae46927bp-7 "
        "0x1.51f0017ff146cp-7 0x1.7629f531f0f61p-8 0x1.1f33702e8bc91p-8 "
        "0x1.52781dbc1b9c5p-9",
        "0x1.bb5e46c44ecb7p-8",
    ),
}


@pytest.mark.parametrize("key", list(_FLOAT_PINS),
                         ids=lambda k: "n{}_m{}_robust{}_tcu{}".format(*k))
def test_exact_answers_match_their_float_pins(key):
    idle, at, cumulative, reject, packet_at, packet_reject = map(str.split, _FLOAT_PINS[key])
    n_senders, nmax_msg, robust, tcu = key
    cfg = ScenarioConfig(n_senders=n_senders, nmax_msg=nmax_msg, robust_mode=robust,
                         tcu_ticks=tcu)
    d = engine.build(cfg)
    assert [idle_listening_time(cfg, dtmc=d).hex()] == idle
    prof = success_profile(cfg, mode="exact", dtmc=d)
    assert [x.hex() for x in prof.success_at.tolist()] == at
    assert [x.hex() for x in prof.cumulative.tolist()] == cumulative
    assert [prof.reject_prob.hex()] == reject
    prof = success_profile(cfg, mode="exact", per_packet=True, dtmc=d)
    got = prof.success_at.tolist() + [prof.reject_prob]
    for x, want in zip(got, map(float.fromhex, packet_at + packet_reject), strict=True):
        assert abs(x - want) <= 1e-12 * max(1.0, abs(want))


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


def test_idle_times_past_the_float_range_are_refused():
    # a finite scale whose products overflow: refused by name, with no
    # numpy warning, by the exact and the sampled idle time alike
    cfg = ScenarioConfig(seconds_per_tick=1e308)
    with pytest.raises(ConfigError, match="exceeds the float range; seconds_per_tick"):
        idle_listening_time(cfg)
    agg = mc.simulate(cfg, 10, 1)
    with pytest.raises(ConfigError, match="exceeds the float range; seconds_per_tick"):
        agg.idle_seconds(0)
    # a scale that fits keeps every value
    assert (mc.simulate(ScenarioConfig(seconds_per_tick=1e300), 10, 1).idle_seconds(1)
            == agg.idle_ticks[:, 1] * 1e300).all()


def test_energies_past_the_float_range_are_refused():
    # the idle time fits and its energy does not: refused by name, by the
    # energy query and by the study, which reads each row's energy from it
    cfg = ScenarioConfig(n_senders=1, seconds_per_tick=1e300, idle_power_mw=1e10)
    assert math.isfinite(idle_listening_time(cfg))
    match = "idle energy exceeds the float range; seconds_per_tick or idle_power_mw"
    with pytest.raises(ConfigError, match=match):
        idle_listening_energy(cfg)
    with pytest.raises(ConfigError, match=match):
        tcu_variation_study(cfg)


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
