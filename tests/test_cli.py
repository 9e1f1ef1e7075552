"""Config parsing and end-to-end subcommand behaviour, driven in process."""

import io
import re
import signal
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, event, given, reject, settings
from hypothesis import strategies as st

from ecomac_backoff.backoff import DEFAULT_TABLE, ContentionWindow
from ecomac_backoff.cli import (
    _ALL_KEYS,
    EXIT_BATTERY,
    EXIT_CONFIG,
    EXIT_DEADLOCK,
    EXIT_OK,
    EXIT_STATE_CAP,
    load_config,
    main,
    parse_config_text,
    parse_window_table,
    scenario_from_values,
)
from ecomac_backoff.errors import ConfigError


# -- config text parsing -----------------------------------------------------------


def test_parse_config_text_types_and_comments():
    text = """\
# scenario
n_senders = 3          # inline comment
nmax_msg=2
seconds_per_tick = 0.001714

robust_mode = true
window_table = 0..12:0..7
seed = 42
"""
    values = parse_config_text(text)
    assert values == {
        "n_senders": 3, "nmax_msg": 2, "seconds_per_tick": 0.001714,
        "robust_mode": True, "window_table": "0..12:0..7", "seed": 42,
    }


@pytest.mark.parametrize("text,fragment", [
    ("n_senders 3", "line 1: expected 'key = value'"),
    ("\nn_sendres = 3", "line 2: unknown key"),
    ("seed = 1\nseed = 2", "line 2: duplicate key"),
    ("nmax_msg =", "line 1: key 'nmax_msg' has no value"),
    ("d_frame = five", "line 1: d_frame needs an integer"),
    ("idle_power_mw = warm", "line 1: idle_power_mw needs a number"),
    ("robust_mode = maybe", "line 1: robust_mode needs true or false"),
])
def test_parse_config_text_reports_the_offending_line(text, fragment):
    with pytest.raises(ConfigError, match=fragment.replace("(", "\\(")):
        parse_config_text(text)


def test_parse_window_table_round_trips_the_default_layout():
    rows = parse_window_table(
        "0..1:1..7; 2..3:0..7; 4..6:0..6; 7..8:0..5; 9..10:0..4; 11..12:0..3"
    )
    assert rows == DEFAULT_TABLE.rows
    assert parse_window_table("0..4:1..3;") == ((0, 4, ContentionWindow(1, 3)),)


@pytest.mark.parametrize("text", ["0..4", "0..4:1-3", "a..b:0..7", "", " ; "])
def test_parse_window_table_rejects_malformed_entries(text):
    with pytest.raises(ConfigError):
        parse_window_table(text)


def test_scenario_from_values_splits_run_settings():
    cfg, run = scenario_from_values({"n_senders": 3, "n_runs": 77, "seed": 5})
    assert cfg.n_senders == 3
    assert run == {"seed": 5, "n_runs": 77}
    cfg, run = scenario_from_values({})
    assert cfg.n_senders == 2 and run["n_runs"] == 10_000


def test_contention_unit_is_derived_unless_given():
    cfg, _ = scenario_from_values({"tcu_ticks": 3})
    assert cfg.tcu_ticks == 3
    # the identity is evaluated against the stage durations given alongside
    cfg, _ = scenario_from_values({"d_frame": 6})
    assert cfg.tcu_ticks == 9
    cfg, _ = scenario_from_values({"tcu_ticks": 5, "d_frame": 6})
    assert cfg.tcu_ticks == 5


def test_window_table_key_rebuilds_the_table():
    cfg, _ = scenario_from_values({"window_table": "0..2:0..3; 3..4:0..2"})
    assert cfg.table.window_for(3) == ContentionWindow(0, 2)
    # the failure cap and the largest counter fall out of the rows
    assert cfg.e_max == 4 and cfg.b_max == 3


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config("/nonexistent/scenario.conf")
    cfg, run = load_config(None)
    assert cfg.n_senders == 2 and run["seed"] == 0


# -- subcommands end to end ---------------------------------------------------------


def test_check_passes_on_defaults(capsys, tmp_path):
    out = tmp_path / "battery.csv"
    assert main(["check", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.count("[as expected]") == 5
    assert "battery: 5/5 checks as expected" in stdout
    data = out.read_bytes()
    assert b"\r" not in data
    lines = data.decode("ascii").splitlines()
    assert lines[0] == "check,verdict,expected,agrees,detail"
    assert len(lines) == 6


def test_check_passes_with_a_longer_frame(capsys, tmp_path):
    conf = tmp_path / "frame6.conf"
    conf.write_text("d_frame = 6\n")
    assert main(["check", "--config", str(conf)]) == EXIT_OK
    assert "battery: 5/5 checks as expected" in capsys.readouterr().out


# d_frame also sets the derived unit, so its own bound is checked first;
# the simulator takes the same scenarios as the exact engine
@pytest.mark.parametrize("key", ["cts_timeout", "nmax_msg", "d_frame"])
def test_values_beyond_the_state_encoding_exit_2(capsys, tmp_path, key):
    conf = tmp_path / "huge.conf"
    conf.write_text(f"{key} = 40000\n")
    for argv in (["check"], ["simulate", "--runs", "2"]):
        assert main(argv + ["--config", str(conf)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{key}=40000" in err


def test_derived_unit_beyond_the_state_encoding_exit_2(capsys, tmp_path):
    # every timing fits, but the unit they sum to does not
    conf = tmp_path / "unit.conf"
    conf.write_text("d_switch = 20000\n")
    assert main(["check", "--config", str(conf)]) == EXIT_CONFIG
    assert ("configuration error: tcu_ticks=40006 exceeds 32767, the largest value the "
            "engines take (the exact engine stores it per state as a 16-bit integer); "
            "unless set, it is 2*d_switch + d_frame + d_rssi" in capsys.readouterr().err)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", ["seconds_per_tick", "idle_power_mw"])
def test_non_finite_floats_exit_2(capsys, tmp_path, key, value):
    conf = tmp_path / "inf.conf"
    conf.write_text(f"{key} = {value}\n")
    for argv in (["simulate", "--runs", "2"], ["sweep"]):
        assert main(argv + ["--config", str(conf)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{key} must be finite" in err


@pytest.mark.parametrize("text, argv, key", [
    ("seconds_per_tick = 1e308", ["simulate", "--runs", "10"], "seconds_per_tick"),
    ("seconds_per_tick = 1e308", ["sweep"], "seconds_per_tick"),
    # the idle time fits, its energy does not
    ("seconds_per_tick = 1\nidle_power_mw = 1e308", ["sweep"], "idle_power_mw"),
], ids=["simulate", "sweep", "sweep_energy"])
def test_results_past_the_float_range_exit_2(capsys, tmp_path, text, argv, key):
    # finite scales whose products overflow: refused before anything is
    # printed or written, and with no numpy warning
    conf, out = tmp_path / "big.conf", tmp_path / "out.csv"
    conf.write_text(text + "\n")
    assert main(argv + ["--config", str(conf), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "exceeds the float range" in captured.err and key in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_rejects_seeds_outside_64_bits(capsys, seed):
    assert main(["simulate", "--runs", "2", "--seed", seed]) == EXIT_CONFIG
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err


def test_dump_is_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["dump", "--out", str(a)]) == EXIT_OK
    assert main(["dump", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()
    assert a.read_text().startswith("0\t")
    assert "states" in capsys.readouterr().out


def test_simulate_csv_is_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--runs", "60", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("run,sender,delivered,rejected,idle_ticks,")
    assert lines[0].endswith("delivered_k12")
    assert len(lines) == 1 + 60 * 2
    assert "60 runs, seed 3" in capsys.readouterr().out


def test_simulate_flags_override_config_file(capsys, tmp_path):
    conf = tmp_path / "scenario.conf"
    conf.write_text("n_runs = 50\nseed = 7\n")
    assert main(["simulate", "--config", str(conf)]) == EXIT_OK
    assert "50 runs, seed 7" in capsys.readouterr().out
    assert main(["simulate", "--config", str(conf),
                 "--runs", "20", "--seed", "1"]) == EXIT_OK
    assert "20 runs, seed 1" in capsys.readouterr().out


def test_simulate_deadlock_writes_trace_and_exits_4(capsys, tmp_path):
    conf = tmp_path / "short.conf"
    conf.write_text("tcu_ticks = 3\n")
    trace = tmp_path / "stuck.txt"
    code = main(["simulate", "--config", str(conf), "--runs", "40",
                 "--seed", "0", "--deadlock-trace", str(trace)])
    assert code == EXIT_DEADLOCK
    captured = capsys.readouterr()
    assert "deadlocked runs" in captured.out
    assert str(trace) in captured.err
    body = trace.read_text()
    assert "deadlocks after" in body.splitlines()[0]
    assert "send_rts" in body.splitlines()[-1]


def test_simulate_rejects_single_run(capsys):
    assert main(["simulate", "--runs", "1"]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_config_errors_exit_2_with_line_numbers(capsys, tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("n_senders = 2\nbogus = 1\n")
    assert main(["check", "--config", str(conf)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "line 2" in err


def test_state_cap_exits_3(capsys, tmp_path):
    assert main(["check", "--max-states", "100"]) == EXIT_STATE_CAP
    assert "state-space limit" in capsys.readouterr().err
    conf = tmp_path / "six.conf"
    conf.write_text("n_senders = 6\n")
    assert main(["check", "--config", str(conf), "--max-states", "100"]) == EXIT_STATE_CAP
    assert "state-space limit" in capsys.readouterr().err


def test_run_count_too_large_to_allocate_exits_2(capsys):
    # 10**13 runs ask for petabytes of per-run arrays, more than any
    # address space holds, so numpy refuses before allocating; 2**63 runs
    # are past the largest array shape numpy takes at all
    for runs in (10**13, 2**63):
        assert main(["simulate", "--runs", str(runs)]) == EXIT_CONFIG
        assert "cannot allocate" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_state_cap_below_one_exits_2(capsys, tmp_path, cap):
    assert main(["dump", "--max-states", cap, "--out", str(tmp_path / "x.txt")]) == EXIT_CONFIG
    assert f"max_states must be >= 1, got {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["exact_cap", "e_max", "b_max"])
def test_removed_exact_cap_key_is_unknown(capsys, tmp_path, key):
    # e_max and b_max are the window table's, so no key restates them
    conf = tmp_path / "cap.conf"
    conf.write_text(f"{key} = -5\n")
    assert main(["check", "--config", str(conf)]) == EXIT_CONFIG
    assert f"line 1: unknown key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dump", "--out"],
    ["check", "--out"],
    ["simulate", "--runs", "2", "--out"],
])
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.csv"
    assert main(argv + [str(target)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot write output" in err and str(target) in err


@pytest.mark.parametrize("command, option", [
    ("check", "--dump-statespace"),
    ("sweep", "--dump-statespace"),
    ("simulate", "--dump-statespace"),
    ("dump", "--dump-statespace"),
    ("simulate", "--max-states"),
], ids=["check", "sweep", "simulate", "dump", "simulate_max_states"])
def test_removed_options_are_refused(capsys, tmp_path, command, option):
    # dump --out is the one state-space writer, and simulate builds no model
    # to cap
    out, extra = tmp_path / "out.txt", tmp_path / "extra.txt"
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(out), option, str(extra)])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not out.exists() and not extra.exists()


def test_sweep_prints_rows_and_witness(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--out", str(a)]) == EXIT_OK
    stdout = capsys.readouterr().out
    for tag in ("initial:", "increased:", "decreased:"):
        assert tag in stdout
    assert "shortest deadlock witness:" in stdout
    assert main(["sweep", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "variant,tcu_ticks,n_states,n_deadlocks,idle_seconds,energy_mj"
    assert len(lines) == 4
    decreased = lines[3].split(",")
    assert decreased[0] == "decreased" and int(decreased[3]) > 0
    assert decreased[4] == "" and decreased[5] == ""


def test_sweep_builds_one_model_per_unit(capsys, monkeypatch):
    from ecomac_backoff import dtmc
    built = []
    build = dtmc.build

    def counted(cfg, *args, **kwargs):
        built.append(cfg.tcu_ticks)
        return build(cfg, *args, **kwargs)

    monkeypatch.setattr(dtmc, "build", counted)
    assert main(["sweep"]) == EXIT_OK
    assert built == [8, 13, 3]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_battery_mismatch_exits_1(capsys, monkeypatch):
    # no correct scenario flips a verdict, so force a mismatch by inverting
    # one expectation and confirm the reporting and exit code
    from ecomac_backoff import properties as props
    flipped = dict(props.BATTERY_EXPECTED, reject_below_failure_cap=True)
    monkeypatch.setattr(props, "BATTERY_EXPECTED", flipped)
    assert main(["check"]) == EXIT_BATTERY
    stdout = capsys.readouterr().out
    assert "[MISMATCH]" in stdout
    assert "battery: 4/5 checks as expected" in stdout


# -- the exit-code contract under generated inputs -------------------------------------

# spellings every key takes: zero and minus one, both sides of the int16
# range, past int32 and int64, a float past any product, non-finite and
# empty values, and bools
_BOUNDARY = ("0", "-1", "1", str(2**15 - 1), str(2**15 + 1), str(2**31), str(2**63),
             str(2**64), "1e308", "nan", "inf", "", "true", "off")
_TABLE_ENDS = st.sampled_from(("0", "1", "3", "7", "-1", str(2**15 - 1), str(2**15 + 1),
                               str(2**63), "", "x"))


@st.composite
def window_tables(draw):
    """Window table texts of 0-3 rows, each well formed or malformed."""
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        a, b, c, d = (draw(_TABLE_ENDS) for _ in range(4))
        rows.append(draw(st.sampled_from((f"{a}..{b}:{c}..{d}", f"{a}..{b}",
                                          f"{a}..{b}:{c}..{d}:{a}", f"{a}..{b}:{c}-{d}"))))
    return draw(st.sampled_from(("; ", ";;"))).join(rows) + draw(st.sampled_from(("", ";")))


# a valid value per key, so that whole scenarios also pass and run
_TYPICAL = {
    "n_senders": ("1", "2", "3"), "nmax_msg": ("0", "2"), "tcu_ticks": ("3", "8", "13"),
    "d_switch": ("0",), "d_frame": ("6",), "d_rssi": ("0",), "cts_timeout": ("5",),
    "seed": ("7",), "n_runs": ("20",), "seconds_per_tick": ("0.5", "1e300"),
    "idle_power_mw": ("1e300",), "robust_mode": ("yes", "false"),
    "window_table": ("0..1:1..3; 2..6:0..3", "0..0:0..0", "0..2:0..1"),
}


@st.composite
def configs(draw):
    """Up to three keys, each with a boundary value, a malformed table or a
    valid value."""
    keys = draw(st.lists(st.sampled_from(sorted(_ALL_KEYS)), unique=True, max_size=3))
    values = {}
    for key in keys:
        choices = [st.sampled_from(_BOUNDARY), st.sampled_from(_TYPICAL[key])]
        if key == "window_table":
            choices.append(window_tables())
        values[key] = draw(st.one_of(choices))
    return values


# a float token that is not finite, standing alone
_NON_FINITE = re.compile(r"(?<![A-Za-z0-9_])[-+]?(inf|nan)(?![A-Za-z0-9_])", re.I)
# a valid scenario with 32767 senders, packets, ticks per unit or counter
# values costs minutes to hours, which is no breach of the contract: such an
# example gets a short budget and is discarded past it.  Any other call must
# end within the long one.
_SIZES = ("n_senders", "nmax_msg", "tcu_ticks", "window_table")
_BUDGET_S, _SIZED_BUDGET_S = 30.0, 2.0


class _OverBudget(Exception):
    pass


@contextmanager
def budget(seconds):
    def expire(signum, frame):
        raise _OverBudget
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(values=configs(), command=st.sampled_from(("check", "sweep", "simulate", "dump")),
       cap=st.sampled_from(("-1", "0", "1", "2", "100", "5000")),
       runs=st.sampled_from(("-1", "0", "1", "2", "10", "50")),
       seed=st.sampled_from((None, "-1", "0", str(2**63), str(2**64 - 1), str(2**64))))
def test_every_input_leaves_through_a_documented_exit_code(values, command, cap, runs, seed,
                                                           tmp_path_factory):
    work = tmp_path_factory.mktemp("contract")
    conf = work / "scenario.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    argv = [command, "--config", str(conf), "--out", str(work / "out.txt")]
    if command == "simulate":
        argv += ["--runs", runs, "--deadlock-trace", str(work / "trace.txt")]
        argv += [] if seed is None else ["--seed", seed]
    else:
        argv += ["--max-states", cap]
    sized = any(str(2**15 - 1) in values.get(key, "") for key in _SIZES)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            with redirect_stdout(out), redirect_stderr(err), \
                    budget(_SIZED_BUDGET_S if sized else _BUDGET_S):
                code = main(argv)
        except SystemExit as exc:
            # only argparse exits
            code = exc.code
        except _OverBudget:
            assert sized, f"{argv} with {values} still running after {_BUDGET_S} s"
            event(f"{command} over budget")
            reject()
    event(f"{command} exit {code}")
    assert code in (EXIT_OK, EXIT_BATTERY, EXIT_CONFIG, EXIT_STATE_CAP, EXIT_DEADLOCK), \
        err.getvalue()
    for text in [out.getvalue()] + [f.read_text() for f in work.iterdir() if f != conf]:
        assert not _NON_FINITE.search(text), text[:500]
