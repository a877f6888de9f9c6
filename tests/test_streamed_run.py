"""A run with its event log streamed to a file: the same log and len as a
simulation that records into a bare in-memory EventLog, the same summary
and series as a run that keeps no log at all, a summary's metrics and
reservations and a series.csv that a fold of the file recomputes, no
LogEntry held by either kind of run, no file left by a breach, and the
element and membership caches the run reads never stale."""

import gc
import json
import os
import warnings

import pytest

from adhoc_sim import cli
from adhoc_sim.adaptation import GoalSpec, aggregate_metrics
from adhoc_sim.infrastructure import DEAD
from adhoc_sim.kernel import LogEntry, json_line
from adhoc_sim.membership import CloudletRuntime
from adhoc_sim.metrics import MetricsFold
from adhoc_sim.resources import ResourceVector
from adhoc_sim.runner import build_simulation, run_scenario
from adhoc_sim.scenario import load_scenario

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDENS = ("kv_churn_crash", "loss_and_rejection", "mixed", "mixed_window")


def _scenario(name):
    return load_scenario(os.path.join(GOLDEN_DIR, f"{name}.json"))


def _kept_log(scenario):
    """The log of the scenario's run recorded into a bare EventLog, which
    keeps every entry in memory, with the run_end record run_scenario adds."""
    simulation = build_simulation(scenario)
    simulation.run_until(scenario.run_until)
    simulation.sim.record("runner", {"event": "run_end"})
    return simulation.sim.log


@pytest.fixture(scope="module", params=GOLDENS)
def both_modes(request, tmp_path_factory):
    """(streamed run, events path, run without an events path, kept log) of
    one golden; a run is (summary, series rows, simulation)."""
    scenario = _scenario(request.param)
    path = str(tmp_path_factory.mktemp(request.param) / "events.ndjson")
    return (run_scenario(scenario, events_path=path), path, run_scenario(scenario),
            _kept_log(scenario))


def test_streamed_and_in_memory_logs_are_the_same(both_modes):
    streamed, path, folded, memory_log = both_modes
    streamed_log = streamed[2].sim.log
    with open(path, "rb") as fh:
        written = fh.read()
    expected = "".join(json_line(e.t, e.component, e.record) for e in memory_log)
    assert written == expected.encode("utf-8")
    assert len(streamed_log) == len(memory_log) == written.count(b"\n")
    assert len(folded[2].sim.log) == len(memory_log)
    round_trip = [
        LogEntry(e.t, e.component, json.loads(json.dumps(e.record))) for e in memory_log
    ]
    assert list(streamed_log) == round_trip
    assert streamed[:2] == folded[:2]
    with pytest.raises(TypeError):
        iter(folded[2].sim.log)  # the fold was its one reader


def test_summary_folded_on_append_equals_aggregate_of_the_file(both_modes, tmp_path):
    (summary, series, simulation), path, _folded, _memory_log = both_modes
    goal = GoalSpec(window=(0, summary["run_until"]))
    # the streamed log's iteration reads the file back
    recomputed = aggregate_metrics(simulation.sim.log, goal)
    assert json.loads(json.dumps(recomputed)) == json.loads(json.dumps(summary["metrics"]))
    fold = MetricsFold(goal)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            fold.add(entry["t"], entry["component"], entry["record"])
    written = json.loads(json.dumps({k: summary[k] for k in ("metrics", "reservations")}))
    assert {"metrics": fold.metrics(), "reservations": fold.reservations()} == written
    # series.csv too, byte for byte, from the file alone
    interval = summary["scenario"]["defaults"]["sample_interval_ms"]
    for out, (columns, rows) in (("run", series), ("file", fold.series(interval))):
        (tmp_path / out).mkdir()
        cli.write_outputs(str(tmp_path / out), summary, rows, columns, fmt="csv")
    run_csv = (tmp_path / "run" / "series.csv").read_bytes()
    assert (tmp_path / "file" / "series.csv").read_bytes() == run_csv
    assert run_csv.count(b"\n") == summary["run_until"] // interval + 2


def log_entries_alive():
    return sum(1 for obj in gc.get_objects() if type(obj) is LogEntry)


def test_streamed_run_holds_no_log_entry(tmp_path):
    scenario = _scenario("mixed")._replace(run_until=60_000)
    gc.collect()
    before = log_entries_alive()
    streamed = run_scenario(scenario, events_path=str(tmp_path / "events.ndjson"))
    folded = run_scenario(scenario)
    gc.collect()
    assert log_entries_alive() <= before
    # the count does see the entries of a bare EventLog, which keeps them
    memory_log = _kept_log(scenario)
    gc.collect()
    assert log_entries_alive() >= before + len(memory_log) > before
    assert len(streamed[2].sim.log) == len(folded[2].sim.log) == len(memory_log)


def test_breach_exits_2_and_leaves_no_event_log(tmp_path, monkeypatch, capsys):
    def broken(self, eid, sent_at):
        raise RuntimeError("injected")

    monkeypatch.setattr(CloudletRuntime, "heartbeat", broken)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        # a file object freed while still open warns
        warnings.simplefilter("always", ResourceWarning)
        code = cli.main([
            "run", "--scenario", os.path.join(GOLDEN_DIR, "mixed.json"),
            "--out", str(out), "--events",
        ])
        gc.collect()
    assert code == cli.EXIT_RUNTIME
    assert "runtime invariant breach" in capsys.readouterr().err
    assert not out.exists()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _fresh_committed(infra):
    total = ResourceVector.zero()
    for el in infra.elements.values():
        if el.state != DEAD:
            total = total + el.allocation
    return total


def _fresh_serving(runtime):
    return [
        runtime.elements[eid] for eid in sorted(runtime.view.members)
        if eid in runtime.elements and runtime.elements[eid].is_serving()
    ]


@pytest.mark.parametrize("name", ["kv_churn_crash", "mixed"])
def test_cached_views_equal_a_fresh_recomputation_after_every_event(name):
    scenario = _scenario(name)._replace(run_until=120_000)
    simulation = build_simulation(scenario)
    sim = simulation.sim
    dispatch = sim._dispatch
    checked = []

    def dispatch_and_check(entry):
        dispatch(entry)
        for node_id, infra in simulation.infras.items():
            assert infra.committed() == _fresh_committed(infra), (sim.now, node_id)
        for cid, runtime in simulation.cloudlets.items():
            assert runtime.serving_members() == _fresh_serving(runtime), (sim.now, cid)
        checked.append(entry[0])

    sim._dispatch = dispatch_and_check
    simulation.run_until(scenario.run_until)
    assert len(checked) > 1000
