"""Config parsing and end-to-end subcommand behaviour, driven in process."""

import pytest

from ecomac_backoff.backoff import DEFAULT_TABLE, ContentionWindow
from ecomac_backoff.cli import (
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


def test_failure_cap_keys_must_match_the_default_table():
    with pytest.raises(ConfigError, match="e_max=10 does not match"):
        scenario_from_values({"e_max": 10})
    with pytest.raises(ConfigError, match="b_max=5 does not match"):
        scenario_from_values({"b_max": 5})
    cfg, _ = scenario_from_values({"e_max": 12, "b_max": 7})
    assert cfg.e_max == 12 and cfg.b_max == 7


def test_window_table_key_rebuilds_the_table():
    values = {"window_table": "0..2:0..3; 3..4:0..2", "e_max": 4, "b_max": 3}
    cfg, _ = scenario_from_values(values)
    assert cfg.e_max == 4 and cfg.b_max == 3
    assert cfg.table.window_for(3) == ContentionWindow(0, 2)
    # bounds fall out of the rows when not given
    cfg, _ = scenario_from_values({"window_table": "0..2:0..3; 3..4:0..2"})
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


@pytest.mark.parametrize("key", ["cts_timeout", "nmax_msg"])
def test_values_beyond_the_state_encoding_exit_2(capsys, tmp_path, key):
    conf = tmp_path / "huge.conf"
    conf.write_text(f"{key} = 40000\n")
    assert main(["check", "--config", str(conf)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and f"{key}=40000" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", ["seconds_per_tick", "idle_power_mw"])
def test_non_finite_floats_exit_2(capsys, tmp_path, key, value):
    conf = tmp_path / "inf.conf"
    conf.write_text(f"{key} = {value}\n")
    for argv in (["simulate", "--runs", "2"], ["sweep"]):
        assert main(argv + ["--config", str(conf)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{key} must be finite" in err


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
    # address space holds, so numpy refuses before allocating
    assert main(["simulate", "--runs", "10000000000000"]) == EXIT_CONFIG
    assert "cannot allocate" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_state_cap_below_one_exits_2(capsys, tmp_path, cap):
    assert main(["dump", "--max-states", cap, "--out", str(tmp_path / "x.txt")]) == EXIT_CONFIG
    assert f"max_states must be >= 1, got {cap}" in capsys.readouterr().err


def test_removed_exact_cap_key_is_unknown(capsys, tmp_path):
    conf = tmp_path / "cap.conf"
    conf.write_text("exact_cap = -5\n")
    assert main(["check", "--config", str(conf)]) == EXIT_CONFIG
    assert "line 1: unknown key 'exact_cap'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dump", "--out"],
    ["check", "--out"],
    ["simulate", "--runs", "2", "--out"],
    ["check", "--dump-statespace"],
])
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.csv"
    assert main(argv + [str(target)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot write output" in err and str(target) in err


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
