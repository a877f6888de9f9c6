"""What a run holds in memory: a streamed event log writes each line as it
is appended and keeps none, a run without an events path keeps no log
entry at all (the summary's fold is the log's one reader), and the kv log
records of a run share one component string and one string per key. The
records that a run changes as it goes (tasks, elements, agreements) have
no instance dict. A completed op handle holds four slots: its result, its
error, its completion time (it is done once that is set) and no callbacks.
A kv write is one record, built once by its put: the replicas that store
it, the read repair that pushes it and every get that returns it hold that
same object."""

import gc
import os
import sys
import tracemalloc

import pytest
from test_engines import kv_fabric, settle
from test_streamed_run import log_entries_alive

from adhoc_sim.engines import Task
from adhoc_sim.infrastructure import CloudElement
from adhoc_sim.kernel import EventLog, json_line
from adhoc_sim.network import OpHandle
from adhoc_sim.nodes import DOWN, UP, ScriptedChurn
from adhoc_sim.qos import Agreement
from adhoc_sim.resources import ResourceVector
from adhoc_sim.runner import build_simulation, run_scenario
from adhoc_sim.scenario import load_scenario

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _record(i):
    return {"event": "get_ok", "key": f"k{i % 200}", "version": i}


def test_writing_the_event_log_holds_no_copy_of_it(tmp_path):
    path = tmp_path / "events.ndjson"
    tracemalloc.start()
    try:
        log = EventLog(str(path))
        for i in range(50_000):
            log.append(i, "kv:c1", _record(i))
        peak = tracemalloc.get_traced_memory()[1]
        log.close()
    finally:
        tracemalloc.stop()
    # the whole log as text is about 4 MB, as LogEntry objects and dicts more
    assert peak < 1_000_000, f"streaming the log peaked at {peak} bytes"
    assert len(log) == 50_000 and log.entries == []
    expected = "".join(json_line(i, "kv:c1", _record(i)) for i in range(50_000))
    assert path.read_bytes() == expected.encode("utf-8")


def test_a_run_without_an_events_path_keeps_no_log_entry():
    scenario = load_scenario(os.path.join(GOLDEN_DIR, "mixed.json"))
    gc.collect()
    before = log_entries_alive()
    tracemalloc.start()
    try:
        _summary, _rows, simulation = run_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gc.collect()
    assert log_entries_alive() == before
    # kept as LogEntry objects, the 3,157 entries of this run peak at about
    # 1.4 MB; folded and dropped, the run peaks at about 0.25 MB
    assert peak < 700_000, f"the run peaked at {peak} bytes"
    assert len(simulation.sim.log) == 3157


@pytest.mark.parametrize("record", [
    Task("t1", 1.0, arrival=0),
    CloudElement("e1", "n1", "c1", "compute", ResourceVector(1.0)),
    Agreement("a1", None, [("n1", None)]),
], ids=lambda record: type(record).__name__)
def test_a_record_a_run_updates_has_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


class TestOpHandle:
    def test_has_no_instance_dict(self):
        assert not hasattr(OpHandle(), "__dict__")

    def test_fits_a_64_byte_block(self):
        assert sys.getsizeof(OpHandle()) <= 64

    def test_done_once_finished(self):
        handle = OpHandle()
        assert not handle.done
        handle._finish(0, result="r")
        assert handle.done and handle.ok()

    def test_callbacks_run_once_in_registration_order(self):
        handle = OpHandle()
        calls = []
        for tag in ("a", "b", "c"):
            handle.on_complete(lambda h, tag=tag: calls.append((tag, h.result)))
        handle._finish(5, result="r")
        handle._finish(6, result="again")
        assert calls == [("a", "r"), ("b", "r"), ("c", "r")]

    def test_callback_after_finish_runs_at_once(self):
        handle = OpHandle()
        handle._finish(3, error=ValueError("x"))
        calls = []
        assert handle.on_complete(calls.append) is handle
        assert calls == [handle]

    def test_second_finish_keeps_the_first_outcome(self):
        handle = OpHandle()
        error = ValueError("first")
        handle._finish(3, error=error)
        handle._finish(9, result="late")
        assert (handle.done, handle.result, handle.error, handle.completed_at) == (
            True, None, error, 3
        )
        assert not handle.ok()


def test_kv_records_share_component_and_key_strings():
    scenario = load_scenario(os.path.join(GOLDEN_DIR, "kv_churn_crash.json"))
    scenario = scenario._replace(run_until=60_000)
    # a bare EventLog keeps the records as the run built them
    simulation = build_simulation(scenario)
    simulation.run_until(scenario.run_until)
    component = None
    keys = {}
    records = 0
    for entry in simulation.sim.log:
        if not entry.component.startswith("kv:"):
            continue
        records += 1
        component = component or entry.component
        assert entry.component is component
        key = entry.record["key"]
        assert keys.setdefault(key, key) is key, f"key {key!r} held as two strings"
    assert records > 100 and len(keys) > 50


class TestKvRecordSharing:
    def test_a_get_returns_the_record_the_acking_replicas_hold(self):
        s, kv, eids = kv_fabric()
        put = kv.put("x", "v1", size=100)
        settle(s)
        get = kv.get("x")
        settle(s)
        assert put.ok() and get.ok()
        acked = [e.record["replicas"] for e in s.sim.log if e.record["event"] == "put_ack"]
        assert len(acked) == 1 and len(acked[0]) >= 2
        for eid in acked[0]:
            assert s.cloudlets["c1"].elements[eid].engine.read("x") is get.result

    def test_read_repair_pushes_the_same_record(self):
        s, kv, eids = kv_fabric(churn={"n1": ScriptedChurn(((5000, DOWN), (10_000, UP)))})
        kv.put("x", "v1", size=100)
        s.run_until(6000)  # n1 down
        kv.put("x", "v2", size=100)
        s.run_until(13_000)  # n1 back with v1
        stale = s.cloudlets["c1"].elements[eids[0]].engine
        assert stale.read("x").version == 1
        get = kv.get("x")
        settle(s, 4000)  # the get and its repair push
        assert get.ok() and get.result.version == 2
        assert stale.read("x") is get.result
