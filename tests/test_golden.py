"""Golden-digest gate: the event log of each committed scenario is pinned by
its sha256, so a change meant to leave behaviour alone (a speed-up, a
refactor) must reproduce it byte for byte. A deliberate behaviour change
re-records the digests and says so in CHANGES.md. Each golden's series.csv
is pinned the same way.

- kv_churn_crash: a kv cloudlet over 400 keys on six nodes with stochastic
  churn, scripted crashes and restarts, and owner load.
- mixed: kv and compute cloudlets, an estimator broker with one reservation,
  owner load and churn.
- mixed_window: mixed with the estimator's trailing window cut to 60 s and
  the reservation submitted at 200 s, more than 60 s after n3's scripted
  outage, so the window forgets every outage and the broker reserves
  another node than over the full history.
- loss_and_rejection: scripted crashes of every compute node and of one
  single-replica kv node, with adaptation off and one reservation too large
  to admit, so the run loses and skips tasks, rejects a reservation and
  fails stale re-binds; no other golden reaches those paths.
- scale_in: a compute cloudlet on three idle nodes with min_members 1 and a
  light task stream, so the adaptation loop executes a RemoveElement plan
  (at 30 s; the two members left cannot lose another and still hold the
  load under the high watermark); the other goldens never scale in.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import adhoc_sim
from adhoc_sim import cli, engines
from adhoc_sim.errors import NoLiveElement
from adhoc_sim.runner import run_scenario
from adhoc_sim.scenario import load_scenario, parse_scenario

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

DIGESTS = {
    "kv_churn_crash": "cfe292046e74833f5cd5407c4a9de6520fd7a7ca0d9c4aab65569e7ee1cd2c88",
    "loss_and_rejection": "08edd9166f4c9be886d06748e6a78422f18995615eb06719314c5a1fc5a0ec47",
    "mixed": "08e2fbffef9f4b5c3682f88e5583c66a99fc115c8af1b7945ee7363d169ec9aa",
    "mixed_window": "a89249d93858b8bfb9ac37c916d97c9025e4f90aaf2340a7f52c59ecdfb315f5",
    "scale_in": "63e08c34c38a3f8a290544a997f4cba607e3badf2965dad04379d6daaa7ff5d7",
}


# series.csv of each golden, written by a run that keeps no event log
SERIES_DIGESTS = {
    "kv_churn_crash": "fe3443590611279e87f46d308f9e4137ef65d510d8d1f23ce728f2481b0030a9",
    "loss_and_rejection": "ee1b0bdbba423e971c6d777916faf753f0f20ca0437841c7c371243e9f314372",
    "mixed": "c0551b02639342a311ac842bc74f69f5d7e730323c0ef07bdf5853a5d9f01ec9",
    "mixed_window": "7c5df972b4c08a2df4093841ca2b9eec8b7b7bc85ba25909529b7dcce1e07f59",
    "scale_in": "831bb5b7fe43e28a592af1e2e9a052b420a3def9992742cf3dddd5c3fc24524f",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_event_log_digest(name, tmp_path):
    code = cli.main([
        "run",
        "--scenario", os.path.join(GOLDEN_DIR, f"{name}.json"),
        "--out", str(tmp_path),
        "--format", "json",
        "--events",
    ])
    assert code == cli.EXIT_OK
    with open(tmp_path / "events.ndjson", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SERIES_DIGESTS))
def test_series_digest(name, tmp_path):
    code = cli.main([
        "run",
        "--scenario", os.path.join(GOLDEN_DIR, f"{name}.json"),
        "--out", str(tmp_path),
        "--format", "csv",
    ])
    assert code == cli.EXIT_OK
    with open(tmp_path / "series.csv", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SERIES_DIGESTS[name]


def test_loss_and_rejection_reaches_the_paths_no_other_golden_does(monkeypatch, tmp_path):
    get = engines.KvService.get
    failed_rebinds = []

    def counting_get(service, key, bindings=None):
        rebinds = service.rebinds
        handle = get(service, key, bindings)
        if service.rebinds > rebinds and isinstance(handle.error, NoLiveElement):
            failed_rebinds.append(key)
        return handle

    monkeypatch.setattr(engines.KvService, "get", counting_get)
    scenario = load_scenario(os.path.join(GOLDEN_DIR, "loss_and_rejection.json"))
    # a run keeps its log only as the file it streams to
    summary, _rows, simulation = run_scenario(
        scenario, events_path=str(tmp_path / "events.ndjson")
    )
    events = [entry.record["event"] for entry in simulation.sim.log]
    for name in ("task_lost", "task_skipped", "agreement_rejected", "agreement_admitted"):
        assert name in events, name
    assert failed_rebinds
    assert {rid: r["admitted"] for rid, r in summary["reservations"].items()} == {
        "fits": True, "too_many": False,
    }


def test_scale_in_executes_a_remove(tmp_path):
    scenario = load_scenario(os.path.join(GOLDEN_DIR, "scale_in.json"))
    _summary, _rows, simulation = run_scenario(
        scenario, events_path=str(tmp_path / "events.ndjson")
    )
    executed = [
        action[0]
        for entry in simulation.sim.log
        if entry.record["event"] == "adapt_step"
        for action in entry.record["executed"]
    ]
    assert "remove" in executed


def test_mixed_window_reserves_by_its_window():
    """Over the 60 s before r1's submit at 200 s every node was up, and n2
    has the most headroom; over the full history n2's outage at 32-54 s
    ranks it below n4, which never went down."""
    with open(os.path.join(GOLDEN_DIR, "mixed_window.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    nodes = {}
    for window in (True, False):
        if not window:
            del doc["qos"]["trailing_window_ms"]
        summary, _rows, _simulation = run_scenario(parse_scenario(doc))
        nodes[window] = summary["reservations"]["r1"]["nodes"]
    assert nodes == {True: ["n2"], False: ["n4"]}


def test_kv_churn_crash_ends_with_every_key_at_target():
    """Repair is a rule that reads no node rating: keys whose replicas sit
    on nodes rated 1.0 (scripted churn) are repaired too."""
    _summary, _rows, simulation = run_scenario(
        load_scenario(os.path.join(GOLDEN_DIR, "kv_churn_crash.json"))
    )
    runtime = simulation.cloudlets["kv"]
    live = [
        sum(eid in runtime.view.members for eid in replicas)
        for replicas in runtime.metadata.replica_map.values()
    ]
    assert len(live) == 399
    assert min(live) == runtime.policy.target_replication == 3


def test_event_log_independent_of_hash_seed(tmp_path):
    """String hashes are salted per process: two processes with different
    PYTHONHASHSEED values write the same log only if no event order or
    record depends on the order in which a set iterates."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(adhoc_sim.__file__)))
    digests = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hashseed{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [
                sys.executable, "-m", "adhoc_sim.cli", "run",
                "--scenario", os.path.join(GOLDEN_DIR, "mixed.json"),
                "--out", str(out), "--format", "json", "--events",
            ],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        with open(out / "events.ndjson", "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    assert digests == [DIGESTS["mixed"]] * 2
