"""Command line front end.

Subcommands: ``check`` runs the validity battery against its expected
verdicts, ``sweep`` runs the contention-unit sizing study, ``simulate`` runs
Monte Carlo batches, ``dump`` writes the reachable state space.  All output
files use LF line endings and 12-significant-digit floats, so reruns with
the same inputs are byte identical.

Exit codes: 0 success, 1 battery verdict mismatch, 2 configuration error,
unwritable output file or a request too large to allocate (such as an absurd
run count), 3 state-space cap exceeded, 4 simulation hit a deadlock.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from . import dtmc as engine
from . import montecarlo as mc
from . import properties as props
from .automata import ScenarioConfig, label_text
from .backoff import BackoffTable, ContentionWindow
from .errors import ConfigError, StateSpaceLimitError, check_finite

EXIT_OK = 0
EXIT_BATTERY = 1
EXIT_CONFIG = 2
EXIT_STATE_CAP = 3
EXIT_DEADLOCK = 4

_INT_KEYS = frozenset((
    "n_senders", "nmax_msg", "tcu_ticks", "d_switch", "d_frame", "d_rssi",
    "cts_timeout", "seed", "n_runs",
))
_FLOAT_KEYS = frozenset(("seconds_per_tick", "idle_power_mw"))
_BOOL_KEYS = frozenset(("robust_mode",))
_STR_KEYS = frozenset(("window_table",))
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS

_SCENARIO_KEYS = frozenset((
    "n_senders", "nmax_msg", "tcu_ticks", "d_switch", "d_frame", "d_rssi",
    "cts_timeout", "seconds_per_tick", "idle_power_mw", "robust_mode",
))

RUN_DEFAULTS = {"seed": 0, "n_runs": 10_000}


def parse_window_table(text: str) -> tuple[tuple[int, int, ContentionWindow], ...]:
    """Parse 'e_lo..e_hi:b_lo..b_hi; ...' into backoff table rows."""
    rows = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            erange, brange = part.split(":")
            e_lo, e_hi = (int(v) for v in erange.strip().split(".."))
            b_lo, b_hi = (int(v) for v in brange.strip().split(".."))
        except ValueError:
            raise ConfigError(
                f"window table entry {part!r} is not of the form e_lo..e_hi:b_lo..b_hi"
            ) from None
        rows.append((e_lo, e_hi, ContentionWindow(b_lo, b_hi)))
    if not rows:
        raise ConfigError("window_table has no entries")
    return tuple(rows)


def _parse_value(key: str, raw: str):
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} needs an integer, got {raw!r}") from None
    if key in _FLOAT_KEYS:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key} needs a number, got {raw!r}") from None
    if key in _BOOL_KEYS:
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{key} needs true or false, got {raw!r}")
    return raw


def parse_config_text(text: str) -> dict:
    """Parse 'key = value' lines; '#' starts a comment."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        try:
            values[key] = _parse_value(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return values


def scenario_from_values(values: dict) -> tuple[ScenarioConfig, dict]:
    """Split parsed keys into a scenario and run settings (seed, runs)."""
    run = dict(RUN_DEFAULTS)
    for key in RUN_DEFAULTS:
        if key in values:
            run[key] = values[key]

    kwargs = {k: values[k] for k in _SCENARIO_KEYS if k in values}
    if "window_table" in values:
        kwargs["table"] = BackoffTable(parse_window_table(values["window_table"]))
    return ScenarioConfig(**kwargs), run


def load_config(path: str | None) -> tuple[ScenarioConfig, dict]:
    if path is None:
        return ScenarioConfig(), dict(RUN_DEFAULTS)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return scenario_from_values(parse_config_text(text))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_trace_file(path: str, states, note: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(note + "\n")
        for step, state in enumerate(states):
            fh.write(f"{step:4d}  {label_text(state)}\n")


# -- subcommands -----------------------------------------------------------------


def _cmd_check(args) -> int:
    cfg, _run = load_config(args.config)
    d = engine.build(cfg, max_states=args.max_states)
    reports = props.run_validity_battery(cfg, dtmc=d)
    mismatches = 0
    rows = []
    for rep in reports:
        expected = props.BATTERY_EXPECTED[rep.name]
        agrees = rep.holds == expected
        mismatches += 0 if agrees else 1
        status = "as expected" if agrees else "MISMATCH"
        print(f"{rep.oneline()}  [{status}]")
        if not agrees and rep.counterexample is not None:
            print(rep.counterexample.render(d))
        rows.append([rep.name, rep.holds, expected, agrees, rep.detail])
    if args.out:
        _write_csv(args.out, ["check", "verdict", "expected", "agrees", "detail"],
                   [[r[0], r[1], r[2], r[3], f"\"{r[4]}\""] for r in rows])
    print(f"battery: {len(reports) - mismatches}/{len(reports)} checks as expected")
    return EXIT_OK if mismatches == 0 else EXIT_BATTERY


def _cmd_sweep(args) -> int:
    cfg, _run = load_config(args.config)
    # the study refuses an idle time or energy past the float range itself
    study = props.tcu_variation_study(cfg, max_states=args.max_states)
    rows = []
    for row in study.rows:
        print(f"{row.variant}: contention unit {row.tcu_ticks} ticks, "
              f"{row.n_states} states, {row.n_deadlocks} deadlocks, "
              f"idle {_fmt(row.idle_seconds) or 'n/a'} s, "
              f"energy {_fmt(row.energy_mj) or 'n/a'} mJ")
        if row.deadlock_witness:
            print("shortest deadlock witness:")
            print(row.deadlock_witness)
        rows.append([row.variant, row.tcu_ticks, row.n_states, row.n_deadlocks,
                     row.idle_seconds, row.energy_mj])
    if args.out:
        _write_csv(args.out,
                   ["variant", "tcu_ticks", "n_states", "n_deadlocks",
                    "idle_seconds", "energy_mj"], rows)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg, run = load_config(args.config)
    n_runs = args.runs if args.runs is not None else run["n_runs"]
    seed = args.seed if args.seed is not None else run["seed"]
    agg = mc.simulate(cfg, n_runs, seed)
    # every sender's idle seconds, refused past the float range before any
    # output; the mean and spread of finite ones can still overflow
    idle = [agg.idle_seconds(s) for s in range(cfg.n_senders)]
    with np.errstate(over="ignore", invalid="ignore"):
        mean_idle, ci = mc.mean_ci95(idle[0])
    check_finite("idle time", "seconds_per_tick", mean_idle, ci)

    if args.out:
        header = ["run", "sender", "delivered", "rejected", "idle_ticks",
                  "idle_seconds", "ticks", "rounds", "deadlocked"]
        header += [f"delivered_k{k}" for k in range(cfg.e_max + 1)]
        rows = []
        for r in range(agg.n_runs):
            for s in range(cfg.n_senders):
                row = [r, s, int(agg.successes[r, s].sum()), int(agg.rejects[r, s]),
                       int(agg.idle_ticks[r, s]), float(idle[s][r]),
                       int(agg.ticks[r]), int(agg.rounds[r]), bool(agg.deadlocked[r])]
                row += [int(v) for v in agg.successes[r, s]]
                rows.append(row)
        _write_csv(args.out, header, rows)

    delivered = agg.successes[:, 0, :].sum(axis=1).mean()
    print(f"{agg.n_runs} runs, seed {seed}: sender 0 idle {mean_idle:.12g} s "
          f"(+/- {ci:.12g}), delivered {delivered:.12g} of {cfg.nmax_msg} packets, "
          f"{agg.n_deadlocked} deadlocked runs")

    if agg.n_deadlocked:
        first = int(agg.deadlocked.argmax())
        states: list = []
        mc.run_once(cfg, mc.run_rng(seed, first), trace=states)
        _write_trace_file(
            args.deadlock_trace, states,
            f"run {first} of seed {seed} deadlocks after {len(states) - 1} steps",
        )
        print(f"deadlock trace of run {first} written to {args.deadlock_trace}",
              file=sys.stderr)
        return EXIT_DEADLOCK
    return EXIT_OK


def _cmd_dump(args) -> int:
    cfg, _run = load_config(args.config)
    d = engine.build(cfg, max_states=args.max_states)
    engine.dump_statespace(d, args.out)
    print(f"{d.n_states} states, {d.n_edges} transitions, "
          f"{len(d.deadlock_indices)} deadlocks -> {args.out}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecomac-backoff",
        description="Exact and simulative analysis of the contention backoff procedure",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="scenario file with 'key = value' lines")
    # simulate never builds a model, so only the other subcommands take a cap
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--max-states", type=int, default=engine.MAX_STATES_DEFAULT,
                        metavar="N", help="state-space cap (default %(default)s)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[capped],
                       help="run the validity battery against expected verdicts")
    p.add_argument("--out", metavar="CSV", help="write verdicts to CSV")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sweep", parents=[capped],
                       help="contention-unit sizing study (one frame longer/shorter)")
    p.add_argument("--out", metavar="CSV", help="write study rows to CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo batch")
    p.add_argument("--runs", type=int, metavar="N", help="number of runs")
    p.add_argument("--seed", type=int, metavar="S", help="stream seed")
    p.add_argument("--out", metavar="CSV", help="write per-run rows to CSV")
    p.add_argument("--deadlock-trace", metavar="FILE", default="deadlock_trace.txt",
                   help="trace file when a run deadlocks (default %(default)s)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("dump", parents=[capped], help="write the state space")
    p.add_argument("--out", metavar="FILE", required=True)
    p.set_defaults(func=_cmd_dump)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StateSpaceLimitError as exc:
        print(f"state-space limit: {exc}", file=sys.stderr)
        return EXIT_STATE_CAP
    except OSError as exc:
        # config files are read through load_config, so this is an output write
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"cannot allocate: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
