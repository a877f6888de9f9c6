import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _harness import check_quorum_safety, execute_schedule

from adhoc_sim.adaptation import AdaptationController, AdaptationPolicy
from adhoc_sim.engines import (
    COMPUTE,
    KV_STORE,
    KvReplicaEngine,
    Task,
    VersionedValue,
    majority,
    merge_read_replies,
)
from adhoc_sim.errors import (
    NoLiveElement,
    NoSourceReplica,
    QuorumUnavailable,
    UnknownKey,
)
from adhoc_sim.kernel import Dist
from adhoc_sim.membership import CloudletPolicy
from adhoc_sim.nodes import DOWN, UP, ScriptedChurn
from adhoc_sim.resources import ResourceVector as RV
from adhoc_sim.runner import Simulation

CAPACITY = RV(8, 8192, 100_000, 100)
ALLOC = RV(2.0, 512, 1024, 5)


def compute_fabric(n_nodes=2, seed=1, latency=Dist.constant(0), churn=None, alloc=ALLOC):
    s = Simulation(seed=seed, latency=latency)
    churn = churn or {}
    for i in range(1, n_nodes + 1):
        s.add_node(f"n{i}", CAPACITY, churn=churn.get(f"n{i}"), reserve_margin=RV.zero())
    s.add_cloudlet("c1", COMPUTE, CloudletPolicy(target_replication=1))
    eids = [s.deploy_element(f"n{i}", "c1", alloc) for i in range(1, n_nodes + 1)]
    s.start()
    s.run_until(2100)  # elements running and joined
    return s, s.compute_services["c1"], eids


def kv_fabric(n_nodes=3, k=3, seed=1, latency=Dist.uniform(5, 50), churn=None):
    s = Simulation(seed=seed, latency=latency)
    churn = churn or {}
    for i in range(1, n_nodes + 1):
        s.add_node(f"n{i}", CAPACITY, churn=churn.get(f"n{i}"), reserve_margin=RV.zero())
    s.add_cloudlet("c1", KV_STORE, CloudletPolicy(target_replication=k))
    eids = [s.deploy_element(f"n{i}", "c1", ALLOC) for i in range(1, min(n_nodes, k) + 1)]
    s.start()
    s.run_until(2100)
    return s, s.kv_services["c1"], eids


def held(engine, key="x"):
    """(version, value) of the record a replica holds for key."""
    record = engine.read(key)
    return (record.version, record.value)


def live_replica_counts(s, cloudlet_id="c1"):
    """key -> live replica count, as the adaptation loop's snapshot sees it."""
    snapshot = AdaptationController(s, AdaptationPolicy()).build_snapshot()
    return {ks.key: len(ks.live_replica_elements) for ks in snapshot.cloudlets[cloudlet_id].keys}


def settle(s, ms=2000):
    s.run_until(s.sim.now + ms)


def task_outcome(s, task_id):
    """(time, record) of the task's task_completed or task_lost record, or
    None while it is neither."""
    for entry in s.sim.log:
        rec = entry.record
        if rec.get("task") == task_id and rec["event"] in ("task_completed", "task_lost"):
            return entry.t, rec
    return None


def finished(s, task_id):
    """(element, time) at which the task completed; fails unless it did."""
    outcome = task_outcome(s, task_id)
    assert outcome is not None and outcome[1]["event"] == "task_completed", outcome
    return outcome[1]["element"], outcome[0]


def was_lost(s, task_id):
    outcome = task_outcome(s, task_id)
    return outcome is not None and outcome[1]["event"] == "task_lost"


class TestComputeTiming:
    def test_work_over_allocation(self):
        # 10 cpu-seconds on 2 cores, unthrottled, idle element -> 5000 ms
        s, service, eids = compute_fabric(n_nodes=1)
        t0 = s.sim.now
        service.submit_task(Task("t1", 10.0, arrival=t0), element_id=eids[0])
        s.run_until(t0 + 5000)
        assert finished(s, "t1") == (eids[0], t0 + 5000)

    def test_throttled_rate_doubles_duration(self):
        s, service, eids = compute_fabric(n_nodes=1)
        el = s.infras["n1"].elements[eids[0]]
        s.nodes["n1"].user_demand = RV(7.0)  # headroom 1.0 of 8
        s.infras["n1"].enforce_intrusiveness()
        assert el.throttle_factor == pytest.approx(0.5)
        t0 = s.sim.now
        service.submit_task(Task("t1", 10.0, arrival=t0), element_id=eids[0])
        s.run_until(t0 + 10_000)
        assert finished(s, "t1")[1] == t0 + 10_000

    def test_mid_task_throttle_rebases_remaining_work(self):
        s, service, eids = compute_fabric(n_nodes=1)
        el = s.infras["n1"].elements[eids[0]]
        t0 = s.sim.now
        service.submit_task(Task("t1", 10.0, arrival=t0), element_id=eids[0])
        s.run_until(t0 + 2500)  # 5 cpu-s consumed, 5 remain
        s.nodes["n1"].user_demand = RV(7.0)
        s.infras["n1"].enforce_intrusiveness()
        s.run_until(t0 + 2500 + 5000)
        assert finished(s, "t1")[1] == t0 + 7500

    def test_latency_lower_bound(self):
        s, service, eids = compute_fabric(n_nodes=1)
        rng = random.Random(7)
        t0 = s.sim.now
        works = []
        for i in range(20):
            work = round(rng.uniform(0.5, 8.0), 3)
            element_id = s.dispatcher.dispatch("c1")
            service.submit_task(Task(f"t{i}", work, arrival=s.sim.now), element_id)
            works.append(work)
        s.run_until(t0 + 600_000)
        assert service.completed == 20
        for i, work in enumerate(works):
            duration = finished(s, f"t{i}")[1] - t0
            assert duration >= work * 1000.0 / ALLOC.cpu - 1e-6

    def test_fifo_per_element(self):
        s, service, eids = compute_fabric(n_nodes=1)
        t0 = s.sim.now
        service.submit_task(Task("t1", 4.0, arrival=t0), element_id=eids[0])
        service.submit_task(Task("t2", 2.0, arrival=t0), element_id=eids[0])
        s.run_until(t0 + 10_000)
        assert finished(s, "t1")[1] == t0 + 2000
        assert finished(s, "t2")[1] == t0 + 3000


class TestComputeCrashRecovery:
    def test_crash_reschedules_once_elsewhere(self):
        s, service, eids = compute_fabric(
            n_nodes=2, churn={"n1": ScriptedChurn(((5000, DOWN),))}
        )
        t0 = s.sim.now
        service.submit_task(Task("t1", 20.0, arrival=t0), element_id=eids[0])
        s.run_until(60_000)
        element_id, finish = finished(s, "t1")
        assert element_id == eids[1]
        # re-executed from scratch: full 10s of work after the crash at t=5000
        assert finish == 5000 + 10_000

    def test_crash_with_no_alternative_loses_task(self):
        s, service, eids = compute_fabric(
            n_nodes=1, churn={"n1": ScriptedChurn(((5000, DOWN),))}
        )
        service.submit_task(Task("t1", 20.0, arrival=s.sim.now), element_id=eids[0])
        s.run_until(10_000)
        assert was_lost(s, "t1")
        assert (service.completed, service.lost) == (0, 1)

    def test_double_crash_loses_task_after_single_retry(self):
        """The second crash takes the last serving member."""
        s, service, eids = compute_fabric(
            n_nodes=2,
            churn={
                "n1": ScriptedChurn(((5000, DOWN),)),
                "n2": ScriptedChurn(((8000, DOWN),)),
            },
        )
        service.submit_task(Task("t1", 50.0, arrival=s.sim.now), element_id=eids[0])
        s.run_until(30_000)
        assert task_outcome(s, "t1")[1]["reason"] == "no live element for retry"
        assert service.lost == 1

    def test_a_task_interrupted_twice_completes_on_a_third_member(self):
        s, service, eids = compute_fabric(
            n_nodes=3,
            churn={
                "n1": ScriptedChurn(((5000, DOWN),)),
                "n2": ScriptedChurn(((8000, DOWN),)),
            },
        )
        service.submit_task(Task("t1", 50.0, arrival=s.sim.now), element_id=eids[0])
        s.run_until(60_000)
        retries = [e.record["element"] for e in s.sim.log
                   if e.record.get("event") == "task_retry"]
        assert retries == eids[1:]
        # re-executed from scratch after the second crash: 50 cpu-s on 2 cores
        assert finished(s, "t1") == (eids[2], 8000 + 25_000)
        assert (service.completed, service.lost) == (1, 0)

    def test_conservation_under_churn(self):
        churn = {
            "n1": ScriptedChurn(((40_000, DOWN), (80_000, UP))),
            "n2": ScriptedChurn(((120_000, DOWN),)),
        }
        s, service, eids = compute_fabric(n_nodes=2, churn=churn)
        rng = random.Random(3)
        t = s.sim.now
        for i in range(40):
            t += rng.randrange(1000, 8000)
            s.run_until(t)
            task = Task(f"t{i}", rng.uniform(1, 30), arrival=t)
            try:
                service.submit_task(task, s.dispatcher.dispatch("c1"))
            except NoLiveElement:
                pass  # skipped, as the task workload does
            assert service.submitted == service.completed + service.lost + service.in_flight()
        s.run_until(t + 400_000)
        assert service.in_flight() == 0
        assert service.submitted == service.completed + service.lost


class TestKvStore:
    def test_put_acks_at_majority_with_version_one(self):
        s, kv, eids = kv_fabric()
        h = kv.put("x", "v1", size=100)
        settle(s)
        assert h.ok()
        assert h.result == 1

    def test_sequential_puts_monotone_versions(self):
        s, kv, eids = kv_fabric()
        h1 = kv.put("x", "v1", size=100)
        settle(s)
        h2 = kv.put("x", "v2", size=100)
        settle(s)
        g = kv.get("x")
        settle(s)
        assert (h1.result, h2.result) == (1, 2)
        assert g.ok()
        assert g.result.version == 2
        assert g.result.value == "v2"

    def test_put_below_majority_unavailable(self):
        s, kv, eids = kv_fabric(
            churn={
                "n1": ScriptedChurn(((5000, DOWN),)),
                "n2": ScriptedChurn(((5000, DOWN),)),
            }
        )
        h0 = kv.put("x", "v1", size=100)
        settle(s)
        assert h0.ok()
        s.run_until(6000)  # two replicas crashed
        h = kv.put("x", "v2", size=100)
        settle(s, 5000)
        assert isinstance(h.error, QuorumUnavailable)

    def test_get_unknown_key(self):
        s, kv, eids = kv_fabric()
        h = kv.get("missing")
        assert isinstance(h.error, UnknownKey)

    def test_get_all_replicas_dead(self):
        s, kv, eids = kv_fabric(
            churn={
                "n1": ScriptedChurn(((5000, DOWN),)),
                "n2": ScriptedChurn(((5000, DOWN),)),
                "n3": ScriptedChurn(((5000, DOWN),)),
            }
        )
        h0 = kv.put("x", "v1", size=100)
        settle(s)
        assert h0.ok()
        s.run_until(6000)
        h = kv.get("x")
        settle(s, 5000)
        assert isinstance(h.error, QuorumUnavailable)

    def test_read_returns_max_version_and_repairs_stale(self):
        s, kv, eids = kv_fabric(
            churn={"n1": ScriptedChurn(((5000, DOWN), (10_000, UP)))}
        )
        h1 = kv.put("x", "v1", size=100)
        settle(s)
        assert h1.ok()
        s.run_until(6000)
        h2 = kv.put("x", "v2", size=100)  # n1 down: acked by the other two
        settle(s)
        assert h2.ok()
        s.run_until(13_000)  # n1 back, restarted with stale v1
        stale_engine = s.cloudlets["c1"].elements[eids[0]].engine
        assert held(stale_engine) == (1, "v1")
        g = kv.get("x")
        settle(s)
        assert g.ok() and g.result.version == 2
        settle(s)  # read-repair push arrives
        assert held(stale_engine) == (2, "v2")

    def test_acked_value_survives_single_crash(self):
        s, kv, eids = kv_fabric(churn={"n2": ScriptedChurn(((8000, DOWN),))})
        h = kv.put("x", "v1", size=100)
        settle(s)
        assert h.ok()
        s.run_until(9000)
        g = kv.get("x")
        settle(s, 5000)
        assert g.ok()
        assert g.result.version == 1 and g.result.value == "v1"

    def test_get_racing_a_newer_put_returns_the_size_of_its_version(self):
        s, kv, eids = kv_fabric()
        h1 = kv.put("x", "a", size=10)
        settle(s)
        assert h1.ok()
        h2 = kv.put("x", "b", size=20)  # its metadata round records size 20 first
        g = kv.get("x")
        settle(s)
        assert h2.ok() and g.ok()
        assert g.result == VersionedValue(key="x", value="a", version=1, size=10)


def counting_binds(s, cloudlet_id="c1"):
    """Shadow the runtime's bind with one that counts its calls."""
    runtime = s.cloudlets[cloudlet_id]
    calls = []
    bind = runtime.bind

    def counted(key):
        calls.append(key)
        return bind(key)

    runtime.bind = counted
    return runtime, calls


class TestKvBindings:
    def written(self, churn=None):
        s, kv, eids = kv_fabric(churn=churn)
        h = kv.put("x", "v1", size=100)
        settle(s)
        assert h.ok()
        return s, kv

    def test_stale_binding_rebinds_once_to_the_view_version(self):
        s, kv = self.written()
        runtime, calls = counting_binds(s)
        bindings = {"x": runtime.view.version - 1}
        g = kv.get("x", bindings)
        settle(s)
        assert g.ok() and g.result.version == 1
        assert calls == ["x"]
        assert bindings == {"x": runtime.view.version}
        assert kv.rebinds == 1
        assert [e.record["key"] for e in s.sim.log if e.record["event"] == "rebind"] == ["x"]

    def test_unbound_key_binds_without_a_rebind(self):
        s, kv = self.written()
        runtime, calls = counting_binds(s)
        bindings = {}
        kv.get("x", bindings)
        kv.get("x", bindings)
        settle(s)
        assert calls == ["x"]
        assert bindings == {"x": runtime.view.version}
        assert kv.rebinds == 0

    def test_failed_rebind_drops_the_entry_and_fails_the_get(self):
        s, kv = self.written(
            churn={f"n{i}": ScriptedChurn(((30_000, DOWN),)) for i in (1, 2, 3)}
        )
        bindings = {"x": s.cloudlets["c1"].view.version}
        s.run_until(70_000)  # every replica crashed and detected
        g = kv.get("x", bindings)
        assert isinstance(g.error, NoLiveElement)
        assert bindings == {}
        assert kv.rebinds == 1


class TestRepair:
    def repair_setup(self):
        s = Simulation(seed=5)
        for i in range(1, 5):
            churn = ScriptedChurn(((30_000, DOWN),)) if i == 1 else None
            s.add_node(f"n{i}", CAPACITY, churn=churn, reserve_margin=RV.zero())
        s.add_cloudlet("c1", KV_STORE, CloudletPolicy(target_replication=3))
        eids = [s.deploy_element(f"n{i}", "c1", ALLOC) for i in range(1, 4)]
        s.start()
        s.run_until(2100)
        kv = s.kv_services["c1"]
        h = kv.put("x", "v7", size=2048)
        settle(s)
        assert h.ok()
        return s, kv, eids

    def test_repair_restores_replica_count(self):
        s, kv, eids = self.repair_setup()
        s.run_until(70_000)  # n1 crashed and detected
        runtime = s.cloudlets["c1"]
        assert live_replica_counts(s) == {"x": 2}
        fresh = s.deploy_element("n4", "c1", ALLOC)
        s.run_until(75_000)
        h = kv.repair_replicas("x", fresh)
        settle(s, 5000)
        assert h.ok()
        assert h.result == 1  # highest live version copied
        assert live_replica_counts(s) == {"x": 3}
        assert fresh in runtime.metadata.replica_map["x"]
        assert held(runtime.elements[fresh].engine) == (1, "v7")

    def test_repair_copy_is_timed_by_the_size_of_the_version_it_copies(self):
        # a 100 MB put whose metadata round runs just before the repair: the
        # repair copies the acked 2 KiB version 1, so the copy takes no 10 s
        s, kv, eids = self.repair_setup()
        s.run_until(70_000)  # n1 crashed and detected
        fresh = s.deploy_element("n4", "c1", ALLOC)
        s.run_until(75_000)
        kv.put("x", "big", size=100 * 1024 * 1024)
        issued = s.sim.now
        h = kv.repair_replicas("x", fresh)
        settle(s, 15_000)
        assert h.ok() and h.result == 1
        assert h.completed_at - issued < 1000

    def test_repair_with_all_replicas_lost(self):
        s = Simulation(seed=5)
        for i in range(1, 5):
            churn = ScriptedChurn(((30_000, DOWN),)) if i <= 3 else None
            s.add_node(f"n{i}", CAPACITY, churn=churn, reserve_margin=RV.zero())
        s.add_cloudlet("c1", KV_STORE, CloudletPolicy(target_replication=3))
        [s.deploy_element(f"n{i}", "c1", ALLOC) for i in range(1, 4)]
        s.start()
        s.run_until(2100)
        kv = s.kv_services["c1"]
        put = kv.put("x", "v1", size=100)
        settle(s)
        assert put.ok()
        fresh = s.deploy_element("n4", "c1", ALLOC)
        s.run_until(70_000)  # all three replicas crashed
        h = kv.repair_replicas("x", fresh)
        settle(s, 5000)
        assert isinstance(h.error, NoSourceReplica)


def ref_merge_read_replies(replies):
    best_version = 0
    best_record = None
    for eid in sorted(replies):
        record = replies[eid]
        if record is None:
            continue
        if record.version > best_version:
            best_version, best_record = record.version, record
    stale = [
        eid
        for eid in sorted(replies)
        if (replies[eid].version if replies[eid] is not None else 0) < best_version
    ]
    return best_version, best_record, stale


read_replies = st.dictionaries(
    st.sampled_from([f"e{i}" for i in range(8)]),
    st.none()
    | st.builds(
        lambda version, value: VersionedValue("x", value, version),
        st.integers(0, 4),
        st.integers(0, 99),
    ),
)


class TestQuorumDecisionKernel:
    def test_majority(self):
        assert [majority(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 2, 3, 3]

    def test_merge_read_replies(self):
        replies = {
            "e1": VersionedValue("x", "old", 1),
            "e2": VersionedValue("x", "new", 2),
            "e3": None,
        }
        version, record, stale = merge_read_replies(replies)
        assert version == 2 and record is replies["e2"]
        assert stale == ["e1", "e3"]

    @given(read_replies)
    def test_merge_read_replies_matches_reference(self, replies):
        assert merge_read_replies(replies) == ref_merge_read_replies(replies)

    def test_exhaustive_interleaving_no_stale_reads(self):
        violations, runs = check_quorum_safety(k=3, max_ops=3, max_crashes=2)
        assert runs > 1000
        assert violations == []

    def test_harness_partial_write_blocks_no_later_quorum(self):
        # crash two replicas mid-put: the write lands only on replica 0 and
        # is never acked; with no majority left, later ops refuse cleanly
        ops = ["put", "put", "get"]
        outcomes, _ = execute_schedule(3, ops, [(2, 1), (2, 2)])
        first_put, second_put, get = outcomes
        assert not first_put.ok  # only replica 0 applied
        assert not second_put.ok  # version allocation refused below majority
        assert not get.ok

    def test_partial_write_superseded_by_later_acked_version(self):
        # version precedence on the replica store is order-insensitive, so an
        # unacked partial write loses to any later acked version
        partial = VersionedValue("x", "partial", 2)
        acked = VersionedValue("x", "acked", 3)
        rep = KvReplicaEngine()
        rep.apply_write(partial)
        rep.apply_write(acked)
        assert held(rep) == (3, "acked")
        rep2 = KvReplicaEngine()
        rep2.apply_write(acked)
        rep2.apply_write(partial)
        assert held(rep2) == (3, "acked")
