"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --trace 0 --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --out perfbench/results/baseline-e2e.json

Runs BENCHMARK.json's command once per workload and seed, one process at
a time, and keeps every run.  Per metric it reports the median, the
quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) / median,
next to the metric's bound.  For traced runs it also reports whether the
exact counts agree across runs that share a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
# per-layer metrics that must repeat exactly for a fixed seed
EXACT_COUNTS = (
    "dtmc.build.states", "dtmc.build.edges", "automata.steps",
    "dtmc.solve.calls", "montecarlo.rounds", "montecarlo.steps_per_round",
    "backoff.draws",
)


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    return dict(json.loads(done.stdout.strip().splitlines()[-1]), seed=seed)


def summarize(runs: list[dict], specs: list[dict]) -> dict:
    out = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        mid = median(values)
        row = {"unit": spec["unit"], "median": mid, "q1": q1, "q3": q3,
               "spread": (q3 - q1) / abs(mid) if mid else 0.0}
        if "bound" in spec:
            row["bound"] = spec["bound"]
        out[spec["name"]] = row
    return out


def counts_repeat(runs: list[dict], names) -> bool:
    by_seed: dict[int, set] = {}
    for r in runs:
        key = tuple(r["metrics"][n]["value"] for n in names)
        by_seed.setdefault(r["seed"], set()).add(key)
    return all(len(keys) == 1 for keys in by_seed.values())


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "platform": platform.platform()},
        "run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {},
    }
    for name in names:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(bench, name, seed, args.trace))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()
                if not args.trace or k in ("trace.wall_s", "trace.overhead_s")), flush=True)
        entry = {"all_correct": all(r["correct"] for r in runs),
                 "summary": summarize(runs, specs), "runs": runs}
        if args.trace:
            entry["exact_counts_repeat"] = counts_repeat(runs, EXACT_COUNTS)
        report["workloads"][name] = entry
        for metric, row in entry["summary"].items():
            if "bound" in row:
                print(f"  {metric}: median {row['median']:.6g} {row['unit']}, "
                      f"spread {row['spread']:.4f} (bound {row['bound']})", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
