import pytest

from adhoc_sim.adaptation import (
    AdaptationPolicy,
    AddElement,
    CloudStateSnapshot,
    CloudletSnapshot,
    GoalSpec,
    KeySnapshot,
    MemberSnapshot,
    NodeSnapshot,
    RemoveElement,
    Rereplicate,
    aggregate_metrics,
    describe,
    generate_plans,
    select_plan,
)
from adhoc_sim.errors import IncompleteLog
from adhoc_sim.infrastructure import THROTTLED
from adhoc_sim.kernel import EventLog
from adhoc_sim.membership import CloudletPolicy
from adhoc_sim.nodes import DOWN, ScriptedChurn, TraceLoad
from adhoc_sim.resources import ResourceVector as RV
from adhoc_sim.runner import Simulation

ALLOC = RV(1.0, 512, 1024, 5)
WORK = 5.0  # mean cpu-seconds per task of the compute snapshots


def node_snap(node_id, free_cpu=4.0, up=True):
    return NodeSnapshot(node_id=node_id, up=up, available_headroom=RV(free_cpu, 2048, 20_000, 20))


def kv_cloudlet(live_per_key=3, members_on=None, utilization=0.5, n_keys=1,
                cloudlet_id="c1", min_members=3):
    """kv cloudlet whose keys all sit on the first live_per_key members;
    members_on lists node indices hosting members."""
    members_on = members_on if members_on is not None else [1, 2, 3]
    names = ["x"] if n_keys == 1 else [f"k{i:02d}" for i in range(n_keys)]
    members = tuple(MemberSnapshot(f"e{i:04d}", f"n{i}", effective_cpu=1.0) for i in members_on)
    replicas = tuple(f"e{i:04d}" for i in members_on[:live_per_key])
    replica_nodes = tuple(f"n{i}" for i in members_on[:live_per_key])
    return CloudletSnapshot(
        cloudlet_id=cloudlet_id,
        engine_kind="kv_store",
        members=members,
        keys=tuple(KeySnapshot(k, replicas, replica_nodes) for k in names),
        policy=CloudletPolicy(target_replication=3, min_members=min_members),
        utilization=utilization,
    )


def kv_snapshot(live_per_key=3, n_nodes=5, members_on=None, utilization=0.5,
                reserved=(), n_keys=1, min_members=3):
    cloudlet = kv_cloudlet(live_per_key, members_on, utilization, n_keys,
                           min_members=min_members)
    nodes = {f"n{i}": node_snap(f"n{i}") for i in range(1, n_nodes + 1)}
    return CloudStateSnapshot(
        nodes=nodes, cloudlets={"c1": cloudlet}, reserved_elements=frozenset(reserved),
    )


def compute_snapshot(utilization, n_members=2, n_nodes=6, rho=0.0, min_members=1):
    """Members of 2 cpu each on n1, n2, ...; tasks of WORK cpu-seconds
    arrive at the rate that offers the members the load rho."""
    members = tuple(
        MemberSnapshot(f"e{i:04d}", f"n{i}", effective_cpu=2.0)
        for i in range(1, n_members + 1)
    )
    cloudlet = CloudletSnapshot(
        cloudlet_id="c1",
        engine_kind="compute",
        members=members,
        keys=(),
        policy=CloudletPolicy(min_members=min_members),
        utilization=utilization,
        arrival_rate_per_ms=rho * 2.0 * n_members / WORK / 1000.0,
        mean_work_units=WORK,
    )
    free = {1: 1.0, 2: 2.0, 3: 3.5, 4: 2.5, 5: 4.0, 6: 3.0}
    nodes = {
        f"n{i}": node_snap(f"n{i}", free_cpu=free.get(i, 2.0)) for i in range(1, n_nodes + 1)
    }
    return CloudStateSnapshot(nodes=nodes, cloudlets={"c1": cloudlet})


def plans_of(snapshot, cid="c1"):
    return generate_plans(snapshot, snapshot.cloudlets[cid])


def select(snapshot, cid="c1"):
    return select_plan(snapshot, snapshot.cloudlets[cid])


def membership_actions(plan):
    return [a for a in plan if not isinstance(a, Rereplicate)]


class TestGeneratePlans:
    def test_healthy_snapshot_noop_only(self):
        assert plans_of(kv_snapshot(live_per_key=3, utilization=0.5)) == [()]

    def test_deficit_with_viable_member_yields_rereplicate(self):
        # key on 2 of 3 members: the spare member is the copy target
        plans = plans_of(kv_snapshot(live_per_key=2, members_on=[1, 2, 4]))
        assert plans == [(Rereplicate("c1", "x", "e0004"),)]

    def test_every_deficient_key_is_repaired_uncapped(self):
        # twenty deficient keys, all with the same spare member as target
        snap = kv_snapshot(live_per_key=2, members_on=[1, 2, 4], n_keys=20)
        [repairs] = plans_of(snap)
        assert [a.key for a in repairs] == [f"k{i:02d}" for i in range(20)]
        assert {a.target_element for a in repairs} == {"e0004"}
        assert select(snap) == repairs

    def test_keys_without_live_replica_or_at_target_are_not_repaired(self):
        snap = kv_snapshot(live_per_key=2, members_on=[1, 2, 4])
        cloudlet = snap.cloudlets["c1"]
        lost = KeySnapshot("lost", (), ())
        whole = KeySnapshot("whole", ("e0001", "e0002", "e0004"), ("n1", "n2", "n4"))
        snap = snap._replace(cloudlets={"c1": cloudlet._replace(keys=cloudlet.keys + (lost, whole))})
        assert [a.key for a in plans_of(snap)[0]] == ["x"]

    def test_deficit_without_member_target_yields_add_element(self):
        # all members hold the key: membership must grow before repair, on
        # the node with the most free cpu; all tie, so node id order
        plans = plans_of(kv_snapshot(live_per_key=2, members_on=[1, 2]))
        assert plans == [(AddElement("c1", "n3", ALLOC),)]

    def test_rule_add_follows_the_repairs_and_respects_max_members(self):
        # target 4: x (on e0001 and e0002) is copied to e0004; y, on all
        # three members, has no target and waits for the added member
        snap = kv_snapshot(live_per_key=2, members_on=[1, 2, 4])
        y = KeySnapshot("y", ("e0001", "e0002", "e0004"), ("n1", "n2", "n4"))
        cloudlet = snap.cloudlets["c1"]._replace(
            keys=snap.cloudlets["c1"].keys + (y,),
            policy=CloudletPolicy(target_replication=4, min_members=3),
        )
        assert plans_of(snap._replace(cloudlets={"c1": cloudlet})) == [
            (Rereplicate("c1", "x", "e0004"), AddElement("c1", "n3", ALLOC))
        ]
        full = cloudlet._replace(policy=cloudlet.policy._replace(max_members=3))
        assert plans_of(snap._replace(cloudlets={"c1": full})) == [
            (Rereplicate("c1", "x", "e0004"),)
        ]

    @pytest.mark.parametrize("rho, plan", [
        (0.5, ()),
        # nodes 3..6 are feasible (1, 2 host members); n5 has the most free cpu
        (1.2, (AddElement("c1", "n5", ALLOC),)),
    ])
    def test_busy_members_add_only_when_rho_exceeds_one(self, rho, plan):
        assert plans_of(compute_snapshot(utilization=0.9, rho=rho)) == [plan]

    def test_a_cloudlet_below_the_high_watermark_does_not_add(self):
        assert plans_of(compute_snapshot(utilization=0.8, rho=1.2)) == [()]

    def test_an_add_respects_max_members(self):
        snap = compute_snapshot(utilization=0.9, rho=1.2)
        cloudlet = snap.cloudlets["c1"]
        full = cloudlet._replace(policy=cloudlet.policy._replace(max_members=2))
        assert plans_of(snap._replace(cloudlets={"c1": full})) == [()]

    def test_low_watermark_remove_candidate(self):
        # with no arrivals the guard passes; e0001 is on the most constrained node
        plans = plans_of(compute_snapshot(utilization=0.1, n_members=2))
        assert plans == [(RemoveElement("c1", "e0001"),)]

    @pytest.mark.parametrize("rho, removes", [(0.2, True), (0.4, False)])
    def test_scale_in_guard_loses_one_more_member(self, rho, removes):
        # three members offered rho; removing e0001 and losing one more
        # leaves one member, which is offered 3 * rho
        plans = plans_of(compute_snapshot(utilization=0.1, n_members=3, rho=rho))
        assert plans == [(RemoveElement("c1", "e0001"),) if removes else ()]

    def test_the_guard_counts_the_largest_member_left_as_lost(self):
        # the arrivals ask for 2 cpu; e0001 (2 cpu, on the most constrained
        # node) would go, and with e0003 (6 cpu) lost as well, e0002's 2 cpu
        # would be offered rho 1.0
        snap = compute_snapshot(utilization=0.1, n_members=2, rho=0.5)
        cloudlet = snap.cloudlets["c1"]
        big = MemberSnapshot("e0003", "n3", effective_cpu=6.0)
        cloudlet = cloudlet._replace(members=cloudlet.members + (big,))
        assert plans_of(snap._replace(cloudlets={"c1": cloudlet})) == [()]

    def test_low_watermark_respects_min_members(self):
        plans = plans_of(compute_snapshot(utilization=0.1, n_members=2, min_members=2))
        assert plans == [()]

    def test_reserved_elements_never_removal_victims(self):
        snap = compute_snapshot(utilization=0.1, n_members=2)
        snap = snap._replace(reserved_elements=frozenset({"e0001"}))
        assert plans_of(snap) == [(RemoveElement("c1", "e0002"),)]

    def test_a_kv_cloudlet_never_scales_in(self):
        # e0004 and e0005 hold no key, the cloudlet is above min_members and
        # a kv cloudlet's utilisation reads 0.0
        healthy = kv_snapshot(live_per_key=3, members_on=[1, 2, 3, 4, 5], utilization=0.0,
                              min_members=1)
        assert plans_of(healthy) == [()]
        deficient = kv_snapshot(live_per_key=2, members_on=[1, 2, 4, 5], utilization=0.0,
                                min_members=1)
        assert plans_of(deficient) == [(Rereplicate("c1", "x", "e0004"),)]

    def test_monotone_candidates(self):
        # fixing the replica deficit never adds a membership change
        deficient = kv_snapshot(live_per_key=2, members_on=[1, 2, 4])
        healthy = kv_snapshot(live_per_key=3, members_on=[1, 2, 4])
        assert set(membership_actions(select(healthy))) <= set(
            membership_actions(select(deficient))
        )


class TestDescribe:
    def test_each_action_kind_and_the_empty_plan(self):
        plan = (
            AddElement("c1", "n5", ALLOC),
            RemoveElement("c1", "e0001"),
            Rereplicate("c1", "x", "e0004"),
        )
        assert describe(plan) == [
            ["add", "c1", "n5"],
            ["remove", "c1", "e0001"],
            ["rereplicate", "c1", "x", "e0004"],
        ]
        assert describe(()) == [["noop"]]


class TestSelectPlan:
    def test_replica_deficit_selects_repair(self):
        assert select(kv_snapshot(live_per_key=2, members_on=[1, 2, 4])) == (
            Rereplicate("c1", "x", "e0004"),
        )

    def test_healthy_state_keeps_noop(self):
        assert select(kv_snapshot(live_per_key=3)) == ()

    def test_plan_ignores_other_cloudlets_keys(self):
        # c1 plans the same whatever c2's keys hold or lack
        base = kv_snapshot(live_per_key=2, members_on=[1, 2])
        reference = select(base)
        for live in (1, 2, 3):
            for n_keys in (1, 30):
                other = kv_cloudlet(live, members_on=[3, 4, 5], n_keys=n_keys,
                                    cloudlet_id="c2")
                snap = base._replace(cloudlets={**base.cloudlets, "c2": other})
                assert select(snap) == reference, (live, n_keys)


def adapt_steps(s):
    return [e.record for e in s.sim.log if e.record.get("event") == "adapt_step"]


class TestAdaptStepInSim:
    def repair_sim(self, keys=("x",), crashed=(1,), n_nodes=4, p=0.9):
        """Three members on n1-n3 of n_nodes; the crashed nodes go down at
        100 s; every node is rated p."""
        s = Simulation(seed=3)
        for i in range(1, n_nodes + 1):
            churn = ScriptedChurn(((100_000, DOWN),)) if i in crashed else None
            s.add_node(f"n{i}", RV(8, 8192, 100_000, 100), churn=churn,
                       reserve_margin=RV.zero(), forecast_availability=p)
        s.add_cloudlet("c1", "kv_store", CloudletPolicy(target_replication=3, min_members=3))
        for i in range(1, 4):
            s.deploy_element(f"n{i}", "c1", ALLOC)
        s.attach_adaptation()
        s.start()
        s.run_until(2100)
        kv = s.kv_services["c1"]
        puts = [kv.put(key, "payload", size=4096) for key in keys]
        s.run_until(5000)
        assert all(put.ok() for put in puts)
        return s

    def test_two_epoch_membership_repair(self):
        s = self.repair_sim()
        runtime = s.cloudlets["c1"]
        # crash at 100s; detected ~130s; epoch at 150s adds a member on n4,
        # epoch at 180s re-replicates onto it
        s.run_until(200_000)
        keys = s.controller.build_snapshot().cloudlets["c1"].keys
        assert [len(ks.live_replica_elements) for ks in keys] == [3]
        replicas = runtime.metadata.replica_map["x"]
        nodes = {runtime.elements[e].node_id for e in replicas}
        assert "n4" in nodes
        executed = [r["executed"] for r in adapt_steps(s) if r["executed"]]
        assert executed == [[["add", "c1", "n4"]], [["rereplicate", "c1", "x", "e0004"]]]
        assert all(r["cloudlet"] == "c1" for r in adapt_steps(s))

    def test_keys_on_nodes_rated_one_are_repaired(self):
        """Two of three members lost on nodes rated 1.0: each epoch in which
        some key has no repair target adds one member by rule, and the next
        one copies every key onto it, until every key is back at three."""
        keys = [f"k{i}" for i in range(5)]
        s = self.repair_sim(keys, crashed=(1, 2), n_nodes=5, p=1.0)
        s.run_until(300_000)
        steps = [(r["plan"], r["executed"]) for r in adapt_steps(s) if r["executed"]]
        assert steps == [
            ([["add", "c1", "n4"]], [["add", "c1", "n4"]]),
            ([["rereplicate", "c1", k, "e0004"] for k in keys],) * 2,
            ([["add", "c1", "n5"]], [["add", "c1", "n5"]]),
            ([["rereplicate", "c1", k, "e0005"] for k in keys],) * 2,
        ]
        snapshot = s.controller.build_snapshot()
        assert {len(ks.live_replica_elements) for ks in snapshot.cloudlets["c1"].keys} == {3}

    def test_a_throttled_member_receives_its_repairs(self):
        """n1 crashes at 100 s; the key's repair target, e0004 on n4, is
        throttled by its owner's burst from 90 s on. A throttled member
        serves, so the epoch at 150 s copies the key onto it."""
        s = Simulation(seed=3)
        for i in range(1, 5):
            churn = ScriptedChurn(((100_000, DOWN),)) if i == 1 else None
            load = TraceLoad(((0, RV.zero()), (90_000, RV(7.5)))) if i == 4 else None
            s.add_node(f"n{i}", RV(8, 8192, 100_000, 100), churn=churn, user_load=load,
                       reserve_margin=RV.zero(), forecast_availability=0.9)
        s.add_cloudlet("c1", "kv_store", CloudletPolicy(target_replication=3, min_members=3))
        for i in range(1, 4):
            s.deploy_element(f"n{i}", "c1", ALLOC)
        s.attach_adaptation()
        s.start()
        s.run_until(2100)
        put = s.kv_services["c1"].put("x", "payload", size=4096)
        s.run_until(5000)
        assert put.ok()
        e4 = s.deploy_element("n4", "c1", ALLOC)
        s.run_until(150_000)
        assert s.cloudlets["c1"].elements[e4].state == THROTTLED
        s.run_until(200_000)
        executed = [r["executed"] for r in adapt_steps(s) if r["executed"]]
        assert executed == [[["rereplicate", "c1", "x", e4]]]
        assert not [e for e in s.sim.log if e.record.get("event") == "action_downgraded"]
        assert e4 in s.cloudlets["c1"].metadata.replica_map["x"]

    def test_more_than_eight_deficient_keys_repaired_in_one_epoch(self):
        keys = [f"k{i:02d}" for i in range(12)]
        s = self.repair_sim(keys)
        s.run_until(200_000)
        repairs = [r for r in adapt_steps(s)
                   if r["executed"] and r["executed"][0][0] == "rereplicate"]
        assert len(repairs) == 1
        assert [a[2] for a in repairs[0]["executed"]] == keys
        done = [e.record["key"] for e in s.sim.log if e.record.get("event") == "repair_done"]
        assert sorted(done) == keys
        snapshot = s.controller.build_snapshot()
        assert {len(ks.live_replica_elements) for ks in snapshot.cloudlets["c1"].keys} == {3}

    @pytest.mark.parametrize("n4_cpu,compute_adds", [(2.0, True), (1.5, False)])
    def test_each_cloudlet_executes_its_own_plan_in_one_epoch(self, n4_cpu, compute_adds):
        """A kv cloudlet (c1) needs a member for a key no member can take a
        copy of; a compute cloudlet (c2) needs cpu. n4 is the only node
        either can grow on. c1 plans and executes first; with room for one
        element only, c2's add on the same node is downgraded."""
        s = Simulation(seed=6)
        for i in range(1, 5):
            cpu = n4_cpu if i == 4 else 1.0
            s.add_node(f"n{i}", RV(cpu, 8192, 100_000, 100), reserve_margin=RV.zero(),
                       forecast_availability=0.9)
        s.add_cloudlet("c1", "kv_store", CloudletPolicy(target_replication=3, min_members=2))
        s.add_cloudlet("c2", "compute", CloudletPolicy(min_members=1))
        for i in (1, 2):
            s.deploy_element(f"n{i}", "c1", ALLOC)
        s.deploy_element("n3", "c2", ALLOC)
        controller = s.attach_adaptation(AdaptationPolicy(enabled=False))
        s.start()
        s.run_until(2100)
        put = s.kv_services["c1"].put("x", "v", size=64)
        s.run_until(5000)
        assert put.ok()
        snapshot = controller.build_snapshot()
        busy = snapshot.cloudlets["c2"]._replace(
            utilization=0.95, arrival_rate_per_ms=0.0004, mean_work_units=5.0
        )
        snapshot = snapshot._replace(cloudlets={**snapshot.cloudlets, "c2": busy})
        plans = controller.adapt_step(snapshot)
        assert plans == {"c1": (AddElement("c1", "n4", ALLOC),),
                         "c2": (AddElement("c2", "n4", ALLOC),)}
        steps = {r["cloudlet"]: r for r in adapt_steps(s)}
        assert steps["c1"]["executed"] == [["add", "c1", "n4"]]
        assert steps["c2"]["plan"] == [["add", "c2", "n4"]]
        downgraded = [e.record for e in s.sim.log
                      if e.record.get("event") == "action_downgraded"]
        if compute_adds:
            assert steps["c2"]["executed"] == [["add", "c2", "n4"]]
            assert downgraded == []
        else:
            assert steps["c2"]["executed"] == []
            assert downgraded == [{"event": "action_downgraded",
                                   "action": ["add", "c2", "n4"],
                                   "reason": "insufficient_headroom"}]

    def test_stale_snapshot_downgrades_add(self):
        s = Simulation(seed=4)
        for i in (1, 2):
            s.add_node(f"n{i}", RV(8, 8192, 100_000, 100), reserve_margin=RV.zero(),
                       forecast_availability=0.9)
        s.add_cloudlet("c1", "compute", CloudletPolicy(min_members=1))
        s.deploy_element("n1", "c1", ALLOC)
        controller = s.attach_adaptation()
        s.start()
        s.run_until(3000)
        # a plan from a snapshot that still shows n2 up, executed after n2 crashed
        s.nodes["n2"]._apply_liveness(DOWN)
        ok, reason = controller._execute_action(AddElement("c1", "n2", ALLOC))
        assert not ok and reason == "node_down"


class TestAggregateMetrics:
    def base_log(self, entries, run_end=1_000_000):
        log = EventLog()
        log.append(0, "runner", {"event": "run_start"})
        for t, component, record in entries:
            log.append(t, component, record)
        log.append(run_end, "runner", {"event": "run_end"})
        return log

    def element_state(self, t, eid, cid, serving):
        return (
            t,
            f"infra:n1",
            {
                "event": "element_state",
                "element": eid,
                "cloudlet": cid,
                "node": "n1",
                "state": "running" if serving else "dead",
                "reason": "x",
                "serving": serving,
                "throttle_factor": 1.0,
            },
        )

    def test_sole_element_live_60_percent(self):
        log = self.base_log(
            [
                self.element_state(0, "e1", "c1", True),
                self.element_state(600_000, "e1", "c1", False),
            ]
        )
        report = aggregate_metrics(log, GoalSpec(window=(0, 1_000_000)))
        assert report["cloudlet_availability"]["c1"] == {
            "num": 600_000,
            "den": 1_000_000,
            "value": 0.6,
        }

    def test_overlapping_elements_counted_once(self):
        log = self.base_log(
            [
                self.element_state(0, "e1", "c1", True),
                self.element_state(100_000, "e2", "c1", True),
                self.element_state(300_000, "e1", "c1", False),
                self.element_state(500_000, "e2", "c1", False),
            ]
        )
        report = aggregate_metrics(log, GoalSpec(window=(0, 1_000_000)))
        assert report["cloudlet_availability"]["c1"]["num"] == 500_000

    def test_unclosed_window_is_incomplete(self):
        log = self.base_log([], run_end=400_000)
        with pytest.raises(IncompleteLog):
            aggregate_metrics(log, GoalSpec(window=(0, 1_000_000)))

    def test_empty_window_zero_availability(self):
        log = self.base_log(
            [(0, "cloudlet:c1", {"event": "cloudlet_defined", "cloudlet": "c1",
                                 "engine": "kv_store"})]
        )
        report = aggregate_metrics(log, GoalSpec(window=(0, 1_000_000)))
        assert report["cloudlet_availability"]["c1"]["value"] == 0.0

    def test_violation_fraction(self):
        log = self.base_log(
            [
                (100_000, "infra:n1", {"event": "violation_start", "node": "n1"}),
                (150_000, "infra:n1", {"event": "violation_end", "node": "n1"}),
            ]
        )
        report = aggregate_metrics(log, GoalSpec(window=(0, 1_000_000)))
        assert report["intrusiveness"]["n1"] == {
            "num": 50_000,
            "den": 1_000_000,
            "value": 0.05,
        }

    def test_latency_percentiles_nearest_rank(self):
        entries = [
            (1000 + i, "compute:c1",
             {"event": "task_completed", "task": f"t{i}", "element": "e1",
              "latency_ms": (i + 1) * 10})
            for i in range(100)
        ]
        log = self.base_log(entries)
        report = aggregate_metrics(log, GoalSpec(window=(0, 1_000_000)))
        stats = report["task_latency"]["c1"]
        assert stats["p50"] == 500
        assert stats["p95"] == 950
        assert stats["p99"] == 990

    def test_agreement_satisfaction(self):
        entries = [
            (0, "broker", {"event": "agreement_admitted", "agreement": "a1",
                           "request": "r1", "cloudlet": "c1",
                           "nodes": ["n1"], "window": [100_000, 500_000],
                           "predicted_availability": 0.9}),
            (0, "broker", {"event": "agreement_element", "agreement": "a1",
                           "node": "n1", "element": "e1"}),
            self.element_state(50_000, "e1", "c1", True),
            self.element_state(300_000, "e1", "c1", False),
        ]
        log = self.base_log(entries)
        report = aggregate_metrics(log, GoalSpec(window=(0, 1_000_000)))
        # covered [100k, 300k) of a 400k window
        assert report["agreement_satisfaction"]["a1"] == {
            "num": 200_000,
            "den": 400_000,
            "value": 0.5,
        }
