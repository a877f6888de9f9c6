import random

import pytest

from adhoc_sim import membership
from adhoc_sim.adaptation import AdaptationController, AdaptationPolicy
from adhoc_sim.engines import KV_STORE
from adhoc_sim.errors import (
    EngineMismatch,
    MetadataQuorumUnavailable,
    NoLiveElement,
    UnknownKey,
)
from adhoc_sim.kernel import Dist
from adhoc_sim.membership import CloudletPolicy
from adhoc_sim.nodes import DOWN, UP, ScriptedChurn
from adhoc_sim.resources import ResourceVector as RV
from adhoc_sim.runner import Simulation

ALLOC = RV(1.0, 512, 1024, 5)
CAPACITY = RV(4, 8192, 100_000, 100)


def kv_fabric(n_nodes=3, n_elements=None, k=3, h=10_000, m=3, seed=1,
              latency=Dist.uniform(5, 50), churn=None):
    s = Simulation(seed=seed, latency=latency)
    churn = churn or {}
    for i in range(1, n_nodes + 1):
        s.add_node(f"n{i}", CAPACITY, churn=churn.get(f"n{i}"), reserve_margin=RV.zero())
    policy = CloudletPolicy(
        target_replication=k, heartbeat_interval_ms=h, timeout_multiplier=m
    )
    runtime = s.add_cloudlet("c1", KV_STORE, policy)
    n_elements = n_nodes if n_elements is None else n_elements
    eids = [s.deploy_element(f"n{i}", "c1", ALLOC) for i in range(1, n_elements + 1)]
    s.start()
    return s, runtime, eids


def record_metadata_acks(monkeypatch):
    """The replies each metadata round decided on, in decision order."""
    acks = []

    class Recording(membership.Round):
        def __init__(self, *args, on_success, **kwargs):
            def success(replies):
                acks.append(replies)
                on_success(replies)

            super().__init__(*args, on_success=success, **kwargs)

    monkeypatch.setattr(membership, "Round", Recording)
    return acks


def live_replica_counts(s, cloudlet_id="c1"):
    """key -> live replica count, as the adaptation loop's snapshot sees it."""
    snapshot = AdaptationController(s, AdaptationPolicy()).build_snapshot()
    return {ks.key: len(ks.live_replica_elements) for ks in snapshot.cloudlets[cloudlet_id].keys}


class TestJoin:
    def test_first_join_gives_version_one(self):
        s, runtime, eids = kv_fabric(n_nodes=1)
        s.run_until(2100)
        assert runtime.view.member_ids() == [eids[0]]
        assert runtime.view.version == 1

    def test_rejoin_is_idempotent(self):
        s, runtime, eids = kv_fabric(n_nodes=1)
        s.run_until(2100)
        version = runtime.view.version
        el = runtime.elements[eids[0]]
        view = runtime.join(el)
        assert view.version == version
        assert view.member_ids() == [eids[0]]

    def test_engine_mismatch_rejected(self):
        s, runtime, eids = kv_fabric(n_nodes=1)
        s.run_until(2100)
        el = runtime.elements[eids[0]]
        object.__setattr__ if False else setattr(el, "engine_kind", "compute")
        with pytest.raises(EngineMismatch):
            runtime.join(el)

    def test_all_elements_join(self):
        s, runtime, eids = kv_fabric(n_nodes=3)
        s.run_until(2100)
        assert runtime.view.member_ids() == sorted(eids)
        assert runtime.view.version == 3


class TestFailureDetection:
    def test_threshold_is_strict(self):
        s, runtime, eids = kv_fabric(n_nodes=1, h=10_000, m=3)
        s.run_until(2100)
        eid = eids[0]
        runtime.view.last_heartbeat[eid] = 100_000
        # cancel the real expiry timers so the query is observed in isolation
        for handle in runtime._expiry_handles.values():
            s.sim.cancel(handle)
        runtime._expiry_handles.clear()
        assert runtime.detect_failures(130_000) == set()
        assert eid in runtime.view.members
        assert runtime.detect_failures(131_000) == {eid}
        assert eid not in runtime.view.members

    def test_suspect_and_leave_drop_a_serving_member_at_once(self):
        # the element still serves, so only the view change can drop it
        s, runtime, eids = kv_fabric(n_nodes=2, h=10_000, m=3)
        s.run_until(2100)
        assert [el.element_id for el in runtime.serving_members()] == sorted(eids)
        for handle in runtime._expiry_handles.values():
            s.sim.cancel(handle)
        runtime._expiry_handles.clear()
        runtime.view.last_heartbeat[eids[0]] = 0
        runtime.view.last_heartbeat[eids[1]] = 95_000
        assert runtime.detect_failures(100_000) == {eids[0]}
        assert [el.element_id for el in runtime.serving_members()] == [eids[1]]
        runtime.leave(eids[1])
        assert runtime.serving_members() == []

    def test_suspect_and_leave_drop_a_serving_member_from_the_pick(self):
        # the element still serves, so only the view change drops it from
        # the ranking a pick built before
        s, runtime, eids = kv_fabric(n_nodes=2, h=10_000, m=3)
        s.run_until(2100)
        assert runtime.best_effort_pick().element_id in eids
        for handle in runtime._expiry_handles.values():
            s.sim.cancel(handle)
        runtime._expiry_handles.clear()
        runtime.view.last_heartbeat[eids[0]] = 0
        runtime.view.last_heartbeat[eids[1]] = 95_000
        assert runtime.detect_failures(100_000) == {eids[0]}
        assert runtime.best_effort_pick().element_id == eids[1]
        with pytest.raises(NoLiveElement):
            runtime.best_effort_pick(exclude=eids[1])
        runtime.leave(eids[1])
        with pytest.raises(NoLiveElement):
            runtime.best_effort_pick()

    def test_clean_leave_removes_without_timeout(self):
        s, runtime, eids = kv_fabric(n_nodes=3)
        s.run_until(2100)
        v = runtime.view.version
        s.infras["n1"].destroy_element(eids[0])
        s.run_until(2100 + 200)
        assert eids[0] not in runtime.view.members
        assert runtime.view.version == v + 1

    def test_version_increments_once_per_change(self):
        s, runtime, eids = kv_fabric(
            n_nodes=3, churn={"n1": ScriptedChurn(((50_000, DOWN),))}
        )
        s.run_until(2100)
        v = runtime.view.version
        s.run_until(100_000)
        assert eids[0] not in runtime.view.members
        assert runtime.view.version == v + 1

    def test_detection_bound_over_random_crash_times(self):
        # crashed element leaves the view within m*h + L_max of the crash
        rng = random.Random(88)
        h, m, l_max = 10_000, 3, 50
        for trial in range(100):
            t_d = rng.randrange(3_000, 80_000)
            s, runtime, eids = kv_fabric(
                n_nodes=3,
                h=h,
                m=m,
                seed=trial,
                churn={"n1": ScriptedChurn(((t_d, DOWN),))},
            )
            s.run_until(t_d + m * h + l_max)
            assert eids[0] not in runtime.view.members, (trial, t_d)

    def test_restarted_element_rejoins(self):
        s, runtime, eids = kv_fabric(
            n_nodes=3, churn={"n1": ScriptedChurn(((50_000, DOWN), (120_000, UP)))}
        )
        s.run_until(100_000)
        assert eids[0] not in runtime.view.members
        s.run_until(123_000)  # recovery + deploy latency + join message
        assert eids[0] in runtime.view.members


class TestBind:
    def seeded(self, **kw):
        s, runtime, eids = kv_fabric(**kw)
        s.run_until(2100)
        service = s.kv_services["c1"]
        h = service.put("x", "v1", size=100)
        s.run_until(s.sim.now + 1000)
        assert h.ok(), h.error
        return s, runtime, eids, service

    def test_bind_returns_view_version(self):
        s, runtime, eids, _ = self.seeded()
        assert runtime.bind("x") == runtime.view.version

    def test_bind_filters_dead_replica(self):
        # x's replicas sit on n1-n3; n4's element stays a member throughout
        s, runtime, eids, _ = self.seeded(
            n_nodes=4,
            churn={
                "n1": ScriptedChurn(((10_000, DOWN),)),
                "n2": ScriptedChurn(((70_000, DOWN),)),
                "n3": ScriptedChurn(((70_000, DOWN),)),
            },
        )
        replicas = runtime.metadata.replica_map["x"]
        assert {runtime.elements[e].node_id for e in replicas} == {"n1", "n2", "n3"}
        v = runtime.view.version
        s.run_until(60_000)  # n1 detected: two replicas are still members
        assert runtime.view.version > v
        assert runtime.bind("x") == runtime.view.version
        s.run_until(120_000)  # every replica detected
        assert runtime.view.member_ids() == [eids[3]]
        with pytest.raises(NoLiveElement):
            runtime.bind("x")

    def test_bind_unknown_key(self):
        s, runtime, eids, _ = self.seeded()
        with pytest.raises(UnknownKey):
            runtime.bind("nope")

    def test_bind_empty_view(self):
        s, runtime, eids, _ = self.seeded(
            churn={f"n{i}": ScriptedChurn(((10_000, DOWN),)) for i in (1, 2, 3)}
        )
        s.run_until(60_000)
        assert runtime.view.member_ids() == []
        with pytest.raises(NoLiveElement):
            runtime.bind("x")

    def test_binding_staleness_detected(self):
        s, runtime, eids, _ = self.seeded(
            churn={"n1": ScriptedChurn(((10_000, DOWN),))}
        )
        binding = runtime.bind("x")
        assert not runtime.binding_stale(binding)
        s.run_until(60_000)
        assert runtime.binding_stale(binding)
        assert not runtime.binding_stale(runtime.bind("x"))


class TestMetadataQuorum:
    def test_two_of_three_live_commits(self):
        s, runtime, eids = kv_fabric(
            churn={"n1": ScriptedChurn(((10_000, DOWN),))}
        )
        s.run_until(12_000)  # n1 down, not yet detected: 2/3 serving
        handle = runtime.metadata_quorum_update(("ensure_key", "x"))
        s.run_until(13_000)
        assert handle.ok()
        assert handle.result["key_version"] == 1

    def test_one_of_three_live_fails(self):
        s, runtime, eids = kv_fabric(
            churn={
                "n1": ScriptedChurn(((10_000, DOWN),)),
                "n2": ScriptedChurn(((10_000, DOWN),)),
            }
        )
        s.run_until(12_000)
        handle = runtime.metadata_quorum_update(("ensure_key", "x"))
        s.run_until(13_000)
        assert isinstance(handle.error, MetadataQuorumUnavailable)

    def test_committed_version_readable_from_majority(self, monkeypatch):
        acks = record_metadata_acks(monkeypatch)
        s, runtime, eids = kv_fabric()
        s.run_until(2100)
        handle = runtime.metadata_quorum_update(("ensure_key", "x"))
        assert not handle.done  # commits only on the replicas' acks
        s.run_until(3000)
        assert handle.ok()
        [replies] = acks
        assert len(replies) >= 2 and set(replies) <= set(eids)
        assert set(replies.values()) == {runtime.metadata.version}

    def test_mutations_totally_ordered_any_delivery_interleaving(self, monkeypatch):
        # the coordinator assigns versions in issue order; each round's acks
        # carry its own version, whichever round the network decides first
        acks = record_metadata_acks(monkeypatch)
        orders = set()
        for seed in range(1, 9):
            acks.clear()
            s, runtime, eids = kv_fabric(seed=seed)
            s.run_until(2100)
            first = runtime.metadata_quorum_update(("ensure_key", "a"))
            second = runtime.metadata_quorum_update(("ensure_key", "b"))
            s.run_until(3000)
            assert first.ok() and second.ok()
            assert set(runtime.metadata.replica_map) == {"a", "b"}
            assert runtime.metadata.version == 2
            versions = [set(replies.values()) for replies in acks]
            assert all(len(replies) >= 2 for replies in acks)
            assert sorted(versions, key=min) == [{1}, {2}]
            orders.add(tuple(min(v) for v in versions))
        assert orders == {(1, 2), (2, 1)}


class TestReplicaPlacement:
    def test_distinct_nodes_when_enough_live(self):
        s, runtime, eids = kv_fabric(n_nodes=5, k=3)
        s.run_until(2100)
        service = s.kv_services["c1"]
        service.put("x", "v", size=10)
        s.run_until(4000)
        replicas = runtime.metadata.replica_map["x"]
        nodes = {runtime.elements[e].node_id for e in replicas}
        assert len(replicas) == 3
        assert len(nodes) == 3

    def test_under_replicated_keys_reported(self):
        s, runtime, eids = kv_fabric(
            churn={"n1": ScriptedChurn(((10_000, DOWN),))}
        )
        s.run_until(2100)
        s.kv_services["c1"].put("x", "v", size=10)
        s.run_until(5000)
        assert live_replica_counts(s) == {"x": 3}
        s.run_until(60_000)  # n1 crashed and detected
        assert live_replica_counts(s) == {"x": 2}
