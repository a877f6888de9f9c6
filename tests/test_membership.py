import random

import pytest

from adhoc_sim.engines import KV_STORE, KvReplicaEngine
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

    def test_bind_returns_live_replicas(self):
        s, runtime, eids, _ = self.seeded()
        binding = runtime.bind("client-1", key="x")
        assert sorted(binding.elements) == sorted(eids)
        assert binding.view_version == runtime.view.version

    def test_bind_filters_dead_replica(self):
        s, runtime, eids, _ = self.seeded(
            churn={"n1": ScriptedChurn(((10_000, DOWN),))}
        )
        v = runtime.view.version
        s.run_until(60_000)  # past detection
        binding = runtime.bind("client-1", key="x")
        assert eids[0] not in binding.elements
        assert len(binding.elements) == 2
        assert runtime.view.version > v

    def test_bind_unknown_key(self):
        s, runtime, eids, _ = self.seeded()
        with pytest.raises(UnknownKey):
            runtime.bind("client-1", key="nope")

    def test_bind_empty_view(self):
        s = Simulation(seed=1)
        s.add_node("n1", CAPACITY)
        runtime = s.add_cloudlet("c1", KV_STORE, CloudletPolicy())
        s.start()
        s.run_until(100)
        with pytest.raises(NoLiveElement):
            runtime.bind("client-1")

    def test_binding_staleness_detected(self):
        s, runtime, eids, _ = self.seeded(
            churn={"n1": ScriptedChurn(((10_000, DOWN),))}
        )
        binding = runtime.bind("client-1", key="x")
        assert not runtime.binding_stale(binding)
        s.run_until(60_000)
        assert runtime.binding_stale(binding)


class TestMetadataQuorum:
    def test_two_of_three_live_commits(self):
        s, runtime, eids = kv_fabric(
            churn={"n1": ScriptedChurn(((10_000, DOWN),))}
        )
        s.run_until(12_000)  # n1 down, not yet detected: 2/3 serving
        handle = runtime.metadata_quorum_update(("ensure_key", "x", 64))
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
        handle = runtime.metadata_quorum_update(("ensure_key", "x", 64))
        s.run_until(13_000)
        assert isinstance(handle.error, MetadataQuorumUnavailable)

    def test_committed_version_readable_from_majority(self):
        s, runtime, eids = kv_fabric()
        s.run_until(2100)
        handle = runtime.metadata_quorum_update(("ensure_key", "x", 64))
        s.run_until(3000)
        assert handle.ok()
        version = runtime.metadata.version
        watermarks = [runtime.elements[e].engine.metadata_watermark for e in eids]
        assert sum(1 for w in watermarks if w >= version) >= 2

    def test_mutations_totally_ordered_any_delivery_interleaving(self):
        # the sequencer assigns versions; replicas receive committed versions
        # in any order and must converge on the later one
        from itertools import permutations

        for order in permutations(range(6)):
            replicas = [KvReplicaEngine(None) for _ in range(3)]
            deliveries = [(r, 1) for r in range(3)] + [(r, 2) for r in range(3)]
            for idx in order:
                replica, version = deliveries[idx]
                replicas[replica].apply_metadata(version)
            for rep in replicas:
                assert rep.metadata_watermark == 2

        # the later version holds both mutations' effects, and a majority of
        # the metadata replicas acknowledged it
        s, runtime, eids = kv_fabric()
        s.run_until(2100)
        first = runtime.metadata_quorum_update(("ensure_key", "a", 8))
        second = runtime.metadata_quorum_update(("ensure_key", "b", 8))
        s.run_until(3000)
        assert first.ok() and second.ok()
        assert set(runtime.metadata.replica_map) == {"a", "b"}
        version = runtime.metadata.version
        assert version == 2
        watermarks = [runtime.elements[e].engine.metadata_watermark for e in eids]
        assert sum(1 for w in watermarks if w >= version) >= 2


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
        assert runtime.under_replicated_keys() == {}
        s.run_until(60_000)  # n1 crashed and detected
        assert runtime.under_replicated_keys() == {"x": 2}
