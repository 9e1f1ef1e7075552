"""Recompute reference.json, the exact values the benchmark checks against.

Run from the repository root, at the commit whose results are the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

It takes about a minute on two cores; the 2-sender, 5-packet idle time
alone builds a 1.25 M-state chain.
"""

from __future__ import annotations

import json

from ecomac_backoff import properties
from ecomac_backoff.automata import ScenarioConfig

import workloads


def main() -> None:
    exact = {f"n{n}_m{m}": workloads.exact_answers(ScenarioConfig(n_senders=n, nmax_msg=m))
             for n, m in workloads.EXACT_QUEUE}
    study = properties.tcu_variation_study(workloads.verify_scenario())
    sweep = {row.variant: {"states": row.n_states, "deadlocks": row.n_deadlocks,
                           "idle_s": row.idle_seconds} for row in study.rows}
    sim_idle = {f"n2_m{m}": properties.idle_listening_time(ScenarioConfig(nmax_msg=m))
                for m in sorted({m for n, m, _ in workloads.SIM_CONTENDED + workloads.SIM_LIGHT
                                 if n == 2})}
    ref = {"exact-queue": exact, "verify-cli": sweep, "sim-idle-s": sim_idle}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
