"""Acceptance gate.

One check per criterion, each announcing itself with a single line

    ACCEPTANCE <n> PASS: <what was checked>

(or FAIL, with the assertion re-raised for pytest to report).  Run with
``pytest tests/test_acceptance.py -s`` to see the lines stream; without -s
they surface only on failure.  Expensive exact figures are computed once
per scenario and cached as plain floats so later criteria reuse them.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from ecomac_backoff import dtmc as engine
from ecomac_backoff import montecarlo as mc
from ecomac_backoff import properties as props
from ecomac_backoff.automata import ReceiverPhase, ScenarioConfig, SenderPhase
from ecomac_backoff.backoff import compute_tcu
from ecomac_backoff.cli import main

AGREEMENT_SEED = 2026


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"\nACCEPTANCE {num} PASS: {desc}")


def indicator_bands_hold(got, want, n_runs):
    """Sampled event frequencies against exact probabilities at 3-sigma
    confidence.

    Cells whose expected hit count reaches the normal regime use the plain
    3-standard-error band on the true binomial error.  Rarer cells (a
    handful of expected hits in the whole batch) are Poisson distributed,
    where that band is meaningless; they get the exact tail test at the
    same significance level instead.
    """
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    lam = want * n_runs
    hits = np.rint(got * n_runs)
    se = np.sqrt(np.clip(want * (1.0 - want), 0.0, None) / n_runs)
    ok_normal = np.abs(got - want) <= 3 * se + 1e-12
    pval = np.where(hits >= lam,
                    stats.poisson.sf(hits - 1, lam),
                    stats.poisson.cdf(hits, lam))
    ok_rare = pval >= 0.0027
    return bool(np.all(np.where(lam >= 10, ok_normal, ok_rare)))


_EXACT: dict[int, dict] = {}


def exact_metrics(nmax: int) -> dict:
    """Exact idle time and delivery profile for 2 senders at this queue
    length, keeping only derived numbers so the models can be released."""
    if nmax not in _EXACT:
        cfg = ScenarioConfig(nmax_msg=nmax)
        d = engine.build(cfg)
        prof = props.success_profile(cfg, mode="exact", dtmc=d)
        _EXACT[nmax] = {
            "idle": props.idle_listening_time(cfg, dtmc=d),
            "success_at": prof.success_at,
            "cumulative": prof.cumulative,
            "reject": prof.reject_prob,
        }
        del d
    return _EXACT[nmax]


def test_criterion_01_contention_unit_arithmetic():
    with criterion(1, "compute_tcu(850, 12000, 12) == 13712 exactly"):
        assert compute_tcu(850, 12000, 12) == 13712


def test_criterion_02_validity_battery(two_sender_cfg, two_sender_model):
    desc = ("validity battery on 2-sender defaults verdicts "
            "true/true/false/true/true, grant preemption covering k=1..7")
    with criterion(2, desc):
        reports = props.run_validity_battery(two_sender_cfg, dtmc=two_sender_model)
        assert [r.holds for r in reports] == [True, True, False, True, True]
        assert "1..7" in reports[4].detail


def test_criterion_03_deadlock_study(two_sender_cfg, two_sender_model):
    desc = ("defaults deadlock free; contention unit shortened by one frame "
            "deadlocks, witness ends in a transmission into a busy receiver")
    with criterion(3, desc):
        assert len(two_sender_model.deadlock_indices) == 0
        short = two_sender_cfg.with_tcu(
            two_sender_cfg.tcu_ticks - two_sender_cfg.d_frame)
        d = engine.build(short)
        assert len(d.deadlock_indices) >= 1
        end = engine.find_deadlocks(d, limit=1)[0].indices[-1]
        sending = any(d.sender_phase(i)[end] == SenderPhase.SEND_RTS
                      for i in range(short.n_senders))
        busy = d.receiver_phase()[end] in (
            ReceiverPhase.SWITCH_RT, ReceiverPhase.SEND_CTS, ReceiverPhase.W_END)
        assert sending and busy


def test_criterion_04_lone_sender_closed_form(lone_cfg, lone_model):
    desc = ("lone sender, one packet: idle time 0.054848 s (+/- 1e-9), "
            "energy 0.740448 mJ (+/- 1e-8) at 13.5 mW")
    with criterion(4, desc):
        idle = props.idle_listening_time(lone_cfg, dtmc=lone_model)
        assert idle == pytest.approx(0.054848, abs=1e-9)
        res = props.idle_listening_energy(lone_cfg, dtmc=lone_model)
        assert res.energy_mj == pytest.approx(0.740448, abs=1e-8)


def test_criterion_05_two_sender_enumeration(two_sender_model):
    desc = ("2 senders, one packet: first-sender round-one success 3/7 and "
            "round-one collision 1/7 against a 49-draw enumeration (+/- 1e-9)")
    with criterion(5, desc):
        share = Fraction(1, 49)
        win = sum((share for a in range(1, 8) for b in range(1, 8) if a < b),
                  Fraction(0))
        tie = sum((share for a in range(1, 8) for b in range(1, 8) if a == b),
                  Fraction(0))
        assert win == Fraction(3, 7) and tie == Fraction(1, 7)

        d = two_sender_model
        first_win = np.asarray(
            (d.sender_phase(0) == SenderPhase.SUCCESS) & (d.sender_e(0) == 0))
        assert engine.reach_from_start(d, first_win) == pytest.approx(
            float(win), abs=1e-9)
        first_tie = np.asarray(
            (np.asarray(d.receiver_phase()) == ReceiverPhase.COLLISION)
            & (d.sender_e(0) == 0) & (d.sender_e(1) == 0))
        assert engine.reach_from_start(d, first_tie) == pytest.approx(
            float(tie), abs=1e-9)


def test_criterion_06_engine_simulation_agreement():
    desc = ("exact idle time and delivery profile match 10^5 seeded runs "
            "within 3 standard errors for every nmax in 1..5, under 5 min")
    with criterion(6, desc):
        t0 = time.perf_counter()
        for nmax in range(1, 6):
            cfg = ScenarioConfig(nmax_msg=nmax)
            exact = exact_metrics(nmax)
            agg = mc.simulate(cfg, 100_000, AGREEMENT_SEED)
            sampled = props.success_profile(cfg, mode="sampling", aggregate=agg)

            xs = agg.idle_seconds(0)
            se = xs.std(ddof=1) / np.sqrt(agg.n_runs)
            assert abs(xs.mean() - exact["idle"]) <= 3 * se

            for got, want in (
                (sampled.success_at, exact["success_at"]),
                (sampled.cumulative, exact["cumulative"]),
                (sampled.reject_prob, exact["reject"]),
            ):
                assert indicator_bands_hold(got, want, agg.n_runs)
            del agg
        assert time.perf_counter() - t0 < 300


def test_criterion_07_idle_time_monotone_in_queue():
    desc = "exact idle listening time strictly increases with nmax over 1..5"
    with criterion(7, desc):
        t0 = time.perf_counter()
        times = [exact_metrics(nmax)["idle"] for nmax in range(1, 6)]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert time.perf_counter() - t0 < 120


def test_criterion_08_contention_degrades_delivery():
    desc = ("cumulative delivery at every failure threshold non-increasing "
            "in sender count: 2..4 exact, 5..8 sampled within 3 sigma, "
            "under 10 min")
    with criterion(8, desc):
        t0 = time.perf_counter()
        prev = None
        for n in (2, 3, 4):
            prof = props.success_profile(ScenarioConfig(n_senders=n), mode="exact")
            if prev is not None:
                assert np.all(prof.cumulative <= prev + 1e-12)
            prev = prof.cumulative
        prev_prof = None
        for n in (5, 6, 7, 8):
            prof = props.success_profile(
                ScenarioConfig(n_senders=n), mode="sampling",
                n_runs=10_000, seed=AGREEMENT_SEED)
            if prev_prof is not None:
                slack = 3 * np.sqrt(prev_prof.stderr_cumulative ** 2
                                    + prof.stderr_cumulative ** 2)
                assert np.all(prof.cumulative <= prev_prof.cumulative + slack)
            prev_prof = prof
        assert time.perf_counter() - t0 < 600


def test_criterion_09_longer_unit_costs_energy():
    desc = ("idle energy with the contention unit one frame longer exceeds "
            "the initial unit for every nmax in 1..5, under 2 min")
    with criterion(9, desc):
        t0 = time.perf_counter()
        for nmax in range(1, 6):
            cfg = ScenarioConfig(nmax_msg=nmax)
            longer = cfg.with_tcu(cfg.tcu_ticks + cfg.d_frame)
            e_longer = props.idle_listening_energy(longer).energy_mj
            e_initial = exact_metrics(nmax)["idle"] * cfg.idle_power_mw
            assert e_longer > e_initial
        assert time.perf_counter() - t0 < 120


def test_criterion_10_byte_identical_reruns(tmp_path):
    desc = ("same-seed reruns of simulate, dump, and check produce "
            "byte-identical CSV files and state-space dumps")
    with criterion(10, desc):
        outputs = []
        for tag in ("first", "second"):
            csv = tmp_path / f"runs_{tag}.csv"
            dump = tmp_path / f"space_{tag}.txt"
            battery = tmp_path / f"battery_{tag}.csv"
            assert main(["simulate", "--runs", "300", "--seed", "7",
                         "--out", str(csv)]) == 0
            assert main(["dump", "--out", str(dump)]) == 0
            assert main(["check", "--out", str(battery)]) == 0
            outputs.append((csv.read_bytes(), dump.read_bytes(),
                            battery.read_bytes()))
        assert outputs[0] == outputs[1]
