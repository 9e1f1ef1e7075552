"""Benchmark runner: one workload, one seed, one process, one job at a time.

    python3 perfbench/run.py --workload exact-queue --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
A pass runs the workload's fixed job list once, closed loop with a single
client; passes repeat while another one fits in ``--seconds`` (at least
one).  Checks run after each job, outside the timed region.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
wall_s (each job's median repeat, summed), setup_s (median of
fresh-interpreter set-ups), peak_rss_mb and throughput_per_s (states or
runs per second); times are scaled to a reference host pace (see
``host_pace``).  With ``--trace 1`` untraced and traced passes take
turns, and the line carries the per-layer metrics plus the tracing
overhead; every span of the first traced pass is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
# the host's pace drifts by up to 1.6x for seconds at a time, so every
# timing is scaled by a fixed pure-Python loop timed right before and after
# it, to the pace at which that loop takes CAL_REF_S (a quiet 2.1 GHz Xeon)
CAL_LOOPS = 40_000
CAL_REF_S = 0.0045


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must lie in [0, 2**64)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def host_pace() -> float:
    """Fastest of three runs of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        total, seen = 0, {}
        for i in range(CAL_LOOPS):
            total += i * i
            seen[i & 1023] = total
        best = min(best, perf_counter() - t0)
    return best


def scaled(seconds: float, before: float) -> float:
    """`seconds` at the reference pace, from the pace before and after."""
    return seconds * 2 * CAL_REF_S / (before + host_pace())


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Import plus set-up time of the workload in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = host_pace()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return scaled(float(done.stdout.split()[-1]), before)


def run_pass(jobs, span) -> dict:
    """Run every job once; time `run`, then check its output untimed."""
    gc.collect()
    times = []
    work = 0
    failed = 0
    for job in jobs:
        before = host_pace()
        t0 = perf_counter()
        try:
            with span(job.span):
                out = job.run()
            times.append(scaled(perf_counter() - t0, before))
            done, problems = job.check(out)
        except Exception:
            traceback.print_exc()
            times.append(None)
            failed += 1
            continue
        del out
        work += done
        if problems:
            failed += 1
            for line in problems:
                print(f"check failed: {line}", file=sys.stderr)
    return {"times": times, "work": work, "attempted": len(jobs), "failed": failed}


def pass_wall(passes: list[dict]) -> float:
    """Sum over jobs of each job's median scaled time across passes."""
    return sum(median([t for t in ts if t is not None] or [0.0])
               for ts in zip(*(p["times"] for p in passes)))


def run_passes(one_pass, seconds: float) -> list[dict]:
    """Passes while another one of average length still fits in `seconds`."""
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ecomac_backoff" / "__init__.py").is_file():
        print(f"no package source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [probe_setup(args.workload, args.seed, workdir / f"probe{i}")
                  for i in range(SETUP_PROBES)]
        jobs = workload.setup(workdir, args.seed)
        if args.trace:
            metrics, passes = traced(jobs, args, spans)
        else:
            passes = run_passes(lambda: run_pass(jobs, untraced_span), args.seconds)
            wall = pass_wall(passes)
            metrics = {
                "wall_s": (wall, "s"),
                "setup_s": (median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "throughput_per_s": (max(p["work"] for p in passes) / wall, "1/s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"{workload.rate_name} = {metrics['throughput_per_s'][0]:.6g} 1/s")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} jobs, {len(passes)} passes)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def untraced_span(name):
    return nullcontext()


def traced(jobs, args, spans):
    """Untraced and traced passes in turn; per-layer metrics of the traced ones."""
    plain, traced_passes, per_pass = [], [], []

    def pair():
        plain.append(run_pass(jobs, untraced_span))
        rec = spans.Recorder()
        with spans.instrument(rec):
            traced_passes.append(run_pass(jobs, rec.span))
        if not per_pass:
            OUT.mkdir(exist_ok=True)
            rec.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        per_pass.append(spans.layer_metrics(rec))

    run_passes(pair, args.seconds)
    metrics = spans.combine(per_pass)
    metrics["trace.wall_s"] = pass_wall(traced_passes)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - pass_wall(plain)
    return ({k: (v, spans.LAYER_UNITS[k]) for k, v in metrics.items()},
            plain + traced_passes)


if __name__ == "__main__":
    sys.exit(main())
