"""CLI exit-code contract for malformed scenario documents: each is rejected
with exit code 1 and a diagnostic naming the offending path, never with a
traceback. So is a document that is not UTF-8 text, and an --out the run
cannot write, which fails before the run where it cannot be a directory.
An error while the simulation is built exits 2, as one in the run does.
Series rows are written as the CSV lines they are kept as."""

import json

import pytest

from adhoc_sim import cli
from adhoc_sim.membership import CloudletRuntime
from adhoc_sim.runner import Simulation


def _doc():
    return {
        "run": {"until": 60_000, "seed": 1},
        "fleet": [
            {
                "node_id": "n1",
                "capacity": {"cpu": 4, "memory": 8192, "storage": 100000, "network": 100},
                "churn": {
                    "kind": "stochastic",
                    "up": {"kind": "exponential", "mean": 60_000},
                    "down": {"kind": "exponential", "mean": 5_000},
                },
            }
        ],
        "cloudlets": [{"cloudlet_id": "kv", "engine": "kv_store"}],
    }


def _fleet_not_list(doc):
    doc["fleet"] = {"n1": doc["fleet"][0]}


def _node_not_object(doc):
    doc["fleet"] = ["n1"]


def _until_not_numeric(doc):
    doc["run"]["until"] = "ten minutes"


def _infinite_mean(doc):
    doc["fleet"][0]["churn"]["up"]["mean"] = float("inf")


def _run_not_object(doc):
    doc["run"] = 5


def _defaults_not_object(doc):
    doc["defaults"] = [1]


def _trailing_window_not_numeric(doc):
    doc["qos"] = {"mode": "estimator", "trailing_window_ms": "x"}


def _trailing_window_zero(doc):
    doc["qos"] = {"mode": "estimator", "trailing_window_ms": 0}


def _trailing_window_negative(doc):
    doc["qos"] = {"mode": "estimator", "trailing_window_ms": -5}


def _transition_without_state(doc):
    doc["fleet"][0]["churn"] = {"kind": "scripted", "transitions": [[100_000]]}


def _transition_time_not_numeric(doc):
    doc["fleet"][0]["churn"] = {"kind": "scripted", "transitions": [["x", "down"]]}


def _transitions_not_list(doc):
    doc["fleet"][0]["churn"] = {"kind": "scripted", "transitions": 5}


def _reservation_window_one_bound(doc):
    doc["reservations"] = [
        {"request_id": "r1", "cloudlet_id": "kv", "submit_ms": 1000,
         "demand": {"cpu": 1.0}, "window": [60_000]}
    ]


def _with_workload(doc):
    doc["workloads"] = [
        {"workload_id": "w", "kind": "kv_ops", "cloudlet": "kv",
         "arrival": {"kind": "poisson", "rate_per_s": 1.0}}
    ]
    return doc["workloads"][0]


def _trace_point_without_demand(doc):
    doc["fleet"][0]["user_load"] = {"kind": "trace", "points": [[0]]}


def _min_members_not_numeric(doc):
    doc["cloudlets"][0]["policy"] = {"min_members": "x"}


def _policy_not_object(doc):
    doc["cloudlets"][0]["policy"] = 5


def _arrival_not_object(doc):
    _with_workload(doc)["arrival"] = 5


def _count_not_numeric(doc):
    _with_workload(doc)["count"] = "x"


def _deploy_ms_not_numeric(doc):
    doc["defaults"] = {"deploy_ms": "x"}


def _epoch_not_numeric(doc):
    doc["adaptation"] = {"epoch_ms": "x"}


def _placement_overfills_node(doc):
    # four 1-cpu elements on a 4-cpu node that keeps 10% in reserve
    doc["cloudlets"][0]["initial_placement"] = ["n1", "n1", "n1", "n1"]


def _replication_exceeds_fleet(doc):
    doc["cloudlets"][0]["policy"] = {"target_replication": 99}


def _deploy_ms_negative(doc):
    doc["defaults"] = {"deploy_ms": -1}


def _shutdown_ms_negative(doc):
    doc["defaults"] = {"shutdown_ms": -1}


def _copy_cost_negative(doc):
    doc["defaults"] = {"copy_ms_per_mb": -1.0}


def _op_timeout_zero(doc):
    doc["defaults"] = {"op_timeout_ms": 0}


def _sample_interval_zero(doc):
    doc["defaults"] = {"sample_interval_ms": 0}


def _enabled_not_boolean(doc):
    doc["adaptation"] = {"enabled": "no"}


def _node_id_not_string(doc):
    doc["fleet"][0]["node_id"] = [1]


def _float_not_finite(doc):
    doc["defaults"] = {"scale_high_watermark": float("nan")}


def _weights_given(doc):
    doc["weights"] = {"w_perf": 10.0}


def _removed_weight_default_given(doc):
    doc["defaults"] = {"w_cost": 0.1}


def _epsilon_given(doc):
    doc["adaptation"] = {"epsilon": 1e-6}


def _qos_settings_in_defaults(doc):
    doc["defaults"] = {"qos_mode": "estimator", "trailing_window_ms": 60_000}


def _adaptation_settings_in_defaults(doc):
    doc["defaults"] = {"adaptation_enabled": False, "epoch_ms": 10_000}


def _unknown_node_key(doc):
    doc["fleet"][0]["colour"] = "red"


def _exhaustive_threshold_given(doc):
    doc["qos"] = {"exhaustive_threshold": 10}


def _removed_dist_kind(doc):
    doc["fleet"][0]["churn"]["down"] = {"kind": "two_point", "p": 0.5, "lo": 1000, "hi": 9000}


@pytest.mark.parametrize(
    "mutate, diagnostic",
    [
        (_fleet_not_list, "invalid: fleet: must be a list"),
        (_node_not_object, "invalid: fleet[0]: must be an object"),
        (_until_not_numeric, "invalid: run.until: must be an integer"),
        (_infinite_mean, "invalid: fleet[0].churn.up: exponential mean must be finite and > 0"),
        (_run_not_object, "invalid: run: must be an object"),
        (_defaults_not_object, "invalid: defaults: must be an object"),
        (_trailing_window_not_numeric, "invalid: qos.trailing_window_ms: must be an integer"),
        (_trailing_window_zero, "invalid: qos.trailing_window_ms: must be > 0"),
        (_trailing_window_negative, "invalid: qos.trailing_window_ms: must be > 0"),
        (_transition_without_state,
         "invalid: fleet[0].churn.transitions[0]: must be a [time_ms, state] pair"),
        (_transition_time_not_numeric,
         "invalid: fleet[0].churn.transitions[0]: must be a [time_ms, state] pair"),
        (_transitions_not_list, "invalid: fleet[0].churn.transitions: must be a list"),
        (_reservation_window_one_bound,
         "invalid: reservations[0].window: must be a [start_ms, end_ms] pair"),
        (_trace_point_without_demand,
         "invalid: fleet[0].user_load.points[0]: must be a [time_ms, demand] pair"),
        (_min_members_not_numeric, "invalid: cloudlets[0].policy.min_members: must be an integer"),
        (_policy_not_object, "invalid: cloudlets[0].policy: must be an object"),
        (_arrival_not_object, "invalid: workloads[0].arrival: must be an object"),
        (_count_not_numeric, "invalid: workloads[0].count: must be an integer"),
        (_deploy_ms_not_numeric, "invalid: defaults.deploy_ms: must be an integer"),
        (_epoch_not_numeric, "invalid: adaptation.epoch_ms: must be an integer"),
        (_placement_overfills_node,
         "invalid: cloudlets[0].initial_placement: an element of"),
        (_replication_exceeds_fleet,
         "invalid: cloudlets[0].policy.target_replication: 99 exceeds the fleet of 1 nodes"),
        (_deploy_ms_negative, "invalid: defaults.deploy_ms: must be >= 0"),
        (_shutdown_ms_negative, "invalid: defaults.shutdown_ms: must be >= 0"),
        (_copy_cost_negative, "invalid: defaults.copy_ms_per_mb: must be >= 0"),
        (_op_timeout_zero, "invalid: defaults.op_timeout_ms: must be > 0"),
        (_sample_interval_zero, "invalid: defaults.sample_interval_ms: must be > 0"),
        (_enabled_not_boolean, "invalid: adaptation.enabled: must be true or false"),
        (_node_id_not_string, "invalid: fleet[0].node_id: must be a non-empty string"),
        (_float_not_finite,
         "invalid: defaults.scale_high_watermark: must be a finite number"),
        (_weights_given, "invalid: unknown sections ['weights']"),
        (_removed_weight_default_given, "invalid: defaults: unknown keys ['w_cost']"),
        (_epsilon_given, "invalid: adaptation: unknown keys ['epsilon']"),
        (_qos_settings_in_defaults,
         "invalid: defaults: unknown keys ['qos_mode', 'trailing_window_ms']"),
        (_adaptation_settings_in_defaults,
         "invalid: defaults: unknown keys ['adaptation_enabled', 'epoch_ms']"),
        (_unknown_node_key, "invalid: fleet[0]: unknown keys ['colour']"),
        (_exhaustive_threshold_given, "invalid: qos: unknown keys ['exhaustive_threshold']"),
        (_removed_dist_kind,
         "invalid: fleet[0].churn.down: must be one of ['exponential', 'uniform', 'constant']"),
    ],
)
def test_malformed_scenario_exits_1_with_diagnostic(mutate, diagnostic, tmp_path, capsys):
    doc = _doc()
    mutate(doc)
    path = tmp_path / "scenario.json"
    # an overflowing literal, as a hand-written document would carry it
    path.write_text(json.dumps(doc).replace("Infinity", "1e309"))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        try:
            code = cli.main(command + ["--scenario", str(path)])
        except Exception as exc:  # a traceback, which the contract forbids
            pytest.fail(f"{command[0]} raised {exc!r}")
        err = capsys.readouterr().err
        assert code == cli.EXIT_INVALID
        assert diagnostic in err


def test_valid_scenario_runs(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_doc()))
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("until", ["-5", "0"])
def test_until_not_positive_exits_1_with_diagnostic(until, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_doc()))
    out = tmp_path / "out"
    try:
        code = cli.main(["run", "--scenario", str(path), "--out", str(out), "--until", until])
    except Exception as exc:  # a traceback, which the contract forbids
        pytest.fail(f"run raised {exc!r}")
    assert code == cli.EXIT_INVALID
    assert f"invalid: --until: must be > 0, got {until}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, diagnostic",
    [
        ("batch --scenarios {dir} --seeds x --out {out}",
         "invalid: --seeds: must be A..B or a single integer seed, got 'x'"),
        ("batch --scenarios {dir} --seeds 5..3 --out {out}",
         "invalid: --seeds: range '5..3' is empty"),
        ("batch --scenarios {missing} --seeds 1 --out {out}", "error: cannot read"),
        ("run --scenario {doc} --seed abc --out {out}",
         "invalid: adhoc-sim run: argument --seed: invalid int value: 'abc'"),
        ("run --out {out}",
         "invalid: adhoc-sim run: the following arguments are required: --scenario"),
        ("", "invalid: adhoc-sim: the following arguments are required: command"),
    ],
)
def test_bad_command_line_exits_1_with_one_line(args, diagnostic, tmp_path, capsys):
    """Usage errors and bad batch arguments exit 1, not argparse's 2 (the
    runtime-breach code), with one diagnostic line and nothing run."""
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    (scenarios / "doc.json").write_text(json.dumps(_doc()))
    out = tmp_path / "out"
    argv = args.format(
        dir=scenarios, doc=scenarios / "doc.json", missing=tmp_path / "missing", out=out
    ).split()
    try:
        code = cli.main(argv)
    except BaseException as exc:  # a traceback or an argparse exit
        pytest.fail(f"{argv} raised {exc!r}")
    assert code == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert diagnostic in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def _scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_doc()))
    return path


def _one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err


def _main_without_traceback(argv):
    try:
        return cli.main(argv)
    except BaseException as exc:  # a traceback, which the contract forbids
        pytest.fail(f"{argv} raised {exc!r}")


@pytest.mark.parametrize("events", [[], ["--events"]], ids=["plain", "events"])
@pytest.mark.parametrize("command, out", [
    ("run", "file"),  # FileExistsError
    ("run", "file/sub"),  # NotADirectoryError
    ("batch", "file"),  # FileExistsError, reported once for the batch
])
def test_out_that_cannot_be_a_directory_exits_1_before_the_run(
    command, out, events, tmp_path, capsys, monkeypatch
):
    path = _scenario_file(tmp_path)
    (tmp_path / "file").write_text("kept")

    def no_run(*args, **kwargs):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    if command == "run":
        argv = ["run", "--scenario", str(path)]
    else:  # two runs, one error line
        argv = ["batch", "--scenarios", str(tmp_path), "--seeds", "1..2"]
    code = _main_without_traceback(argv + ["--out", str(tmp_path / out)] + events)
    assert code == cli.EXIT_INVALID
    _one_error_line(capsys, "error: cannot write ")
    assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize("events, blocked", [
    ([], "summary.json"),  # written after the run
    (["--events"], "events.ndjson"),  # opened before it
], ids=["plain", "events"])
def test_output_file_that_cannot_be_written_exits_1(events, blocked, tmp_path, capsys):
    path = _scenario_file(tmp_path)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    argv = ["run", "--scenario", str(path), "--out", str(out), "--until", "1000"] + events
    assert _main_without_traceback(argv) == cli.EXIT_INVALID
    _one_error_line(capsys, f"error: cannot write {out}: ")


def test_scenario_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(_doc()).encode("utf-16-le"))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        code = _main_without_traceback(command + ["--scenario", str(path)])
        assert code == cli.EXIT_INVALID
        _one_error_line(capsys, f"error: {path} is not UTF-8 text: ")
    assert not (tmp_path / "out").exists()


def test_series_rows_are_written_as_their_csv_lines(tmp_path):
    """A row is kept as its CSV line; only the header, whose column names
    carry user ids, goes through csv.writer and its quoting."""
    cli.write_outputs(
        str(tmp_path), {}, ["0,1,0", "500,2,1"], ["time_ms", "c,1_serving", 'n"1_up'], fmt="csv"
    )
    assert (tmp_path / "series.csv").read_bytes() == (
        b'time_ms,"c,1_serving","n""1_up"\r\n0,1,0\r\n500,2,1\r\n'
    )
    assert not (tmp_path / "summary.json").exists()


def test_breach_without_events_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    """The output directory is made before the run, and a breach removes it
    again, with or without --events."""

    def broken(self, eid, sent_at):
        raise RuntimeError("injected")

    monkeypatch.setattr(CloudletRuntime, "heartbeat", broken)
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", str(_scenario_file(tmp_path)), "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    assert "runtime invariant breach" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("events", [False, True])
def test_error_while_deploying_the_initial_placement_exits_2(events, tmp_path, capsys,
                                                             monkeypatch):
    """An error raised while the simulation is built is a runtime breach, as
    the same error inside the event loop is: one line, exit 2, and no output
    directory left behind."""

    def broken(self, node_id, cloudlet_id, allocation):
        raise KeyError(node_id)

    monkeypatch.setattr(Simulation, "deploy_element", broken)
    out = tmp_path / "out"
    argv = ["run", "--scenario", str(_scenario_file(tmp_path)), "--out", str(out)]
    code = cli.main(argv + (["--events"] if events else []))
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime invariant breach: ")
    assert "KeyError('n1')" in err[0]
    assert not out.exists()
