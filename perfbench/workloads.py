"""The benchmark's workloads: fixed job lists over the package's public API.

A job has a timed ``run`` and an untimed ``check`` that validates the
output and returns the work it did (tick-level states for the exact
workloads, simulated runs for the sampling ones).  ``run`` looks every
package function up through its module at call time, so the traced run's
wrappers see each call.

Reference values in ``reference.json`` were taken from the package with
``make_reference.py``; exact results must match them within ``TOL``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ecomac_backoff import cli, dtmc, montecarlo, properties
from ecomac_backoff.automata import ScenarioConfig

TOL = 1e-9
LONE_SENDER_IDLE_S = 0.054848   # closed form: one sender, one packet
BATTERY_VERDICTS = ["1", "1", "0", "1", "1"]   # T,T,F,T,T as `check --out` writes them
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# (n_senders, nmax_msg); more packets lengthen the tick chains, more
# senders widen the joint draw to 7^n branches
EXACT_QUEUE = ((1, 1), (2, 1), (2, 2), (3, 1))

# two senders with two packets each; a failure cap of 6 and narrowed
# windows keep each CLI call near a second, so a run repeats it often
VERIFY_CONFIG = """\
n_senders = 2
nmax_msg = 2
window_table = 0..1:1..3; 2..6:0..3
"""

# (n_senders, nmax_msg, runs per batch)
SIM_CONTENDED = ((2, 5, 200), (6, 1, 40), (7, 1, 30), (8, 1, 25))
SIM_LIGHT = ((2, 1, 5_000),)


class Job(NamedTuple):
    span: str                                        # root span in traced runs
    run: Callable[[], object]                        # timed
    check: Callable[[object], tuple[int, list[str]]]  # untimed: (work, problems)


class Workload(NamedTuple):
    rate_name: str                                   # what the work count counts
    setup: Callable[[Path, int], list[Job]]          # scenario and config construction


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _mismatches(got, want, where: str) -> list[str]:
    """Paths at which `got` differs from `want`: ints exactly, floats within TOL."""
    if isinstance(want, dict):
        out = []
        for key, value in want.items():
            out += _mismatches(got[key], value, f"{where}.{key}")
        return out
    if isinstance(want, int):
        return [] if got == want else [f"{where}: {got} != {want}"]
    diff = np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float)))
    return [] if diff <= TOL else [f"{where}: off by {diff:.3e}"]


# -- exact-queue -------------------------------------------------------------------


def _profile(p) -> dict:
    return {"success_at": p.success_at.tolist(), "cumulative": p.cumulative.tolist(),
            "reject": p.reject_prob}


def exact_answers(cfg: ScenarioConfig) -> dict:
    """Build the chain and answer idle energy and both exact delivery profiles."""
    d = dtmc.build(cfg)
    energy = properties.idle_listening_energy(cfg, dtmc=d)
    per_sender = properties.success_profile(cfg, mode="exact", dtmc=d)
    per_packet = properties.success_profile(cfg, mode="exact", per_packet=True, dtmc=d)
    return {"states": d.n_states, "idle_s": energy.idle_seconds,
            "per_sender": _profile(per_sender), "per_packet": _profile(per_packet)}


def _check_exact(key: str, ref: dict, out: dict) -> tuple[int, list[str]]:
    problems = _mismatches(out, ref, key)
    if key == "n1_m1" and abs(out["idle_s"] - LONE_SENDER_IDLE_S) > TOL:
        problems.append(f"lone sender idle {out['idle_s']!r} s, expected {LONE_SENDER_IDLE_S}")
    return out["states"], problems


def _exact_queue(workdir: Path, seed: int) -> list[Job]:
    ref = load_reference()["exact-queue"]
    jobs = []
    for n, m in EXACT_QUEUE:
        key = f"n{n}_m{m}"
        cfg = ScenarioConfig(n_senders=n, nmax_msg=m)
        jobs.append(Job("bench.job", partial(exact_answers, cfg),
                        partial(_check_exact, key, ref[key])))
    return jobs


# -- verify-cli --------------------------------------------------------------------


def verify_scenario() -> ScenarioConfig:
    cfg, _run = cli.scenario_from_values(cli.parse_config_text(VERIFY_CONFIG))
    return cfg


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_battery(csv_path: Path, states: int, out) -> tuple[int, list[str]]:
    rc, _ = out
    if rc != 0:
        return states, [f"check exited {rc}"]
    verdicts = [row["verdict"] for row in _read_csv(csv_path)]
    if verdicts != BATTERY_VERDICTS:
        return states, [f"battery verdicts {verdicts}, expected {BATTERY_VERDICTS}"]
    return states, []


def _check_sweep(csv_path: Path, ref: dict, out) -> tuple[int, list[str]]:
    rc, _ = out
    if rc != 0:
        return 0, [f"sweep exited {rc}"]
    rows = {row["variant"]: row for row in _read_csv(csv_path)}
    problems = []
    for variant, want in ref.items():
        row = rows[variant]
        got = {"states": int(row["n_states"]), "deadlocks": int(row["n_deadlocks"])}
        if want["idle_s"] is not None:
            got["idle_s"] = float(row["idle_seconds"])
        problems += _mismatches(got, {k: v for k, v in want.items() if v is not None},
                                f"sweep.{variant}")
    if int(rows["decreased"]["n_deadlocks"]) < 1:
        problems.append("the shortened unit shows no deadlock")
    return sum(int(row["n_states"]) for row in rows.values()), problems


def _check_dump(dump_path: Path, states: int, out) -> tuple[int, list[str]]:
    rc, stdout = out
    if rc != 0:
        return 0, [f"dump exited {rc}"]
    reported = int(stdout.split()[0])
    lines = dump_path.read_bytes().count(b"\n")
    if not lines == reported == states:
        return lines, [f"dump has {lines} lines for {reported} states, expected {states}"]
    return lines, []


def _verify_cli(workdir: Path, seed: int) -> list[Job]:
    ref = load_reference()["verify-cli"]
    config = workdir / "verify.cfg"
    config.write_text(VERIFY_CONFIG)
    cli.load_config(str(config))
    battery, sweep, dump = (workdir / name for name in ("battery.csv", "sweep.csv", "space.txt"))
    states = ref["initial"]["states"]
    return [
        Job("cli.check", partial(_cli, ["check", "--config", str(config), "--out", str(battery)]),
            partial(_check_battery, battery, states)),
        Job("cli.sweep", partial(_cli, ["sweep", "--config", str(config), "--out", str(sweep)]),
            partial(_check_sweep, sweep, ref)),
        Job("cli.dump", partial(_cli, ["dump", "--config", str(config), "--out", str(dump)]),
            partial(_check_dump, dump, states)),
    ]


# -- sim-contended and sim-light ---------------------------------------------------


def _simulate(cfg: ScenarioConfig, runs: int, seed: int):
    return montecarlo.simulate(cfg, runs, seed)


def _idle_misses(agg, ref_idle: float) -> bool:
    xs = agg.idle_seconds(0)
    se = xs.std(ddof=1) / np.sqrt(agg.n_runs)
    return abs(xs.mean() - ref_idle) > 3 * se


def _check_sim(cfg: ScenarioConfig, seed: int, ref_idle: float | None, agg) -> tuple[int, list[str]]:
    problems = []
    if agg.n_deadlocked:
        problems.append(f"{agg.n_deadlocked} runs deadlocked")
    resolved = agg.successes.sum(axis=2) + agg.rejects
    if not (resolved == cfg.nmax_msg).all():
        problems.append("delivered plus rejected differs from nmax_msg")
    # a 3-standard-error band misses by chance in 0.27 % of seeds; a miss
    # counts only if an independent stream of the same size misses too
    if ref_idle is not None and _idle_misses(agg, ref_idle):
        again = _simulate(cfg, agg.n_runs, seed ^ (1 << 63))
        if _idle_misses(again, ref_idle):
            problems.append(f"sampled idle time misses the exact {ref_idle!r} s by more than 3 SE")
    return agg.n_runs, problems


def _sim_jobs(spec, workdir: Path, seed: int) -> list[Job]:
    ref = load_reference()["sim-idle-s"]
    jobs = []
    for n, m, runs in spec:
        cfg = ScenarioConfig(n_senders=n, nmax_msg=m)
        jobs.append(Job("bench.job", partial(_simulate, cfg, runs, seed),
                        partial(_check_sim, cfg, seed, ref.get(f"n{n}_m{m}"))))
    return jobs


WORKLOADS = {
    "exact-queue": Workload("exact_states_per_s", _exact_queue),
    "verify-cli": Workload("exact_states_per_s", _verify_cli),
    "sim-contended": Workload("sim_runs_per_s", partial(_sim_jobs, SIM_CONTENDED)),
    "sim-light": Workload("sim_runs_per_s", partial(_sim_jobs, SIM_LIGHT)),
}
