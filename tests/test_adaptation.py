import random

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
    UtilityWeights,
    aggregate_metrics,
    describe,
    evaluate_plans,
    generate_plans,
    node_pressure,
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
EPSILON = AdaptationPolicy().epsilon


def node_snap(node_id, free_cpu=4.0, allocated=1.0, up=True):
    return NodeSnapshot(
        node_id=node_id,
        up=up,
        headroom=RV(6.0, 4096, 50_000, 50),
        available_headroom=RV(free_cpu, 2048, 20_000, 20),
        allocated_cpu=allocated,
    )


def kv_cloudlet(live_per_key=3, members_on=None, utilization=0.5, n_keys=1,
                cloudlet_id="c1", min_members=3):
    """kv cloudlet whose keys all sit on the first live_per_key members;
    members_on lists node indices hosting members."""
    members_on = members_on if members_on is not None else [1, 2, 3]
    names = ["x"] if n_keys == 1 else [f"k{i:02d}" for i in range(n_keys)]
    members = tuple(
        MemberSnapshot(f"e{i:04d}", f"n{i}", effective_cpu=1.0, allocation_cpu=1.0,
                       hosts_keys=tuple(names) if j < live_per_key else ())
        for j, i in enumerate(members_on)
    )
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


def compute_snapshot(utilization, n_members=2, n_nodes=6, arrival_rate=0.001,
                     min_members=1):
    members = tuple(
        MemberSnapshot(f"e{i:04d}", f"n{i}", effective_cpu=2.0, allocation_cpu=2.0)
        for i in range(1, n_members + 1)
    )
    cloudlet = CloudletSnapshot(
        cloudlet_id="c1",
        engine_kind="compute",
        members=members,
        keys=(),
        policy=CloudletPolicy(min_members=min_members),
        utilization=utilization,
        arrival_rate_per_ms=arrival_rate,
        mean_work_units=5.0,
    )
    free = {1: 1.0, 2: 2.0, 3: 3.5, 4: 2.5, 5: 4.0, 6: 3.0}
    nodes = {
        f"n{i}": node_snap(f"n{i}", free_cpu=free.get(i, 2.0)) for i in range(1, n_nodes + 1)
    }
    return CloudStateSnapshot(nodes=nodes, cloudlets={"c1": cloudlet})


def plans_of(snapshot, cid="c1"):
    return generate_plans(snapshot, snapshot.cloudlets[cid])


def select(snapshot, weights=UtilityWeights(), epsilon=EPSILON, cid="c1"):
    return select_plan(snapshot, snapshot.cloudlets[cid], weights, epsilon)


def scaling_actions(plans):
    """The scaling action of each candidate after the repairs alone."""
    return [plan[-1] for plan in plans[1:]]


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
        repairs = plans_of(snap)[0]
        assert [a.key for a in repairs] == [f"k{i:02d}" for i in range(20)]
        assert {a.target_element for a in repairs} == {"e0004"}
        plan, _, _ = select(snap)
        assert plan == repairs

    def test_keys_without_live_replica_or_at_target_are_not_repaired(self):
        snap = kv_snapshot(live_per_key=2, members_on=[1, 2, 4])
        cloudlet = snap.cloudlets["c1"]
        lost = KeySnapshot("lost", (), ())
        whole = KeySnapshot("whole", ("e0001", "e0002", "e0004"), ("n1", "n2", "n4"))
        snap = snap._replace(cloudlets={"c1": cloudlet._replace(keys=cloudlet.keys + (lost, whole))})
        assert [a.key for a in plans_of(snap)[0]] == ["x"]

    def test_deficit_without_member_target_yields_add_element(self):
        # all members hold the key: membership must grow before repair, by
        # rule, on the node with the most free cpu; all tie, so node id order
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

    def test_high_watermark_top3_feasible_nodes(self):
        plans = plans_of(compute_snapshot(utilization=0.95, n_members=2, n_nodes=6))
        adds = scaling_actions(plans)
        assert plans[0] == ()
        # nodes 3..6 are feasible (1,2 host members); top-3 by free cpu
        assert [a.node_id for a in adds] == ["n5", "n3", "n6"]

    def test_low_watermark_remove_candidate(self):
        plans = plans_of(compute_snapshot(utilization=0.1, n_members=2))
        assert scaling_actions(plans) == [RemoveElement("c1", "e0001")]  # most constrained node

    def test_low_watermark_respects_min_members(self):
        plans = plans_of(compute_snapshot(utilization=0.1, n_members=2, min_members=2))
        assert plans == [()]

    def test_reserved_elements_never_removal_victims(self):
        snap = compute_snapshot(utilization=0.1, n_members=2)
        snap = snap._replace(reserved_elements=frozenset({"e0001"}))
        assert scaling_actions(plans_of(snap)) == [RemoveElement("c1", "e0002")]

    def test_repair_targets_never_removal_victims(self):
        # e0004 and e0005 hold no key; e0004 takes this epoch's copy
        snap = kv_snapshot(live_per_key=2, members_on=[1, 2, 4, 5], utilization=0.0,
                           min_members=1)
        plans = plans_of(snap)
        assert plans[0] == (Rereplicate("c1", "x", "e0004"),)
        assert scaling_actions(plans) == [RemoveElement("c1", "e0005")]

    def test_monotone_candidates(self):
        # fixing the replica deficit never adds scaling candidates
        deficient = kv_snapshot(live_per_key=2, members_on=[1, 2, 4])
        healthy = kv_snapshot(live_per_key=3, members_on=[1, 2, 4])
        assert set(scaling_actions(plans_of(healthy))) <= set(
            scaling_actions(plans_of(deficient))
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


INTRUSION_AND_COST = UtilityWeights(w_perf=0, w_intr=1.0, w_cost=1.0)


class TestEvaluatePlan:
    def test_rule_actions_are_not_scored(self):
        # the copy onto e0004 is rated as the cloudlet stands: as no plan
        snap = kv_snapshot(live_per_key=2, members_on=[1, 2, 4])
        healthy = kv_snapshot(live_per_key=3, members_on=[1, 2, 4])
        [(plan, u)] = evaluate_plans(snap, snap.cloudlets["c1"], INTRUSION_AND_COST)
        assert plan == (Rereplicate("c1", "x", "e0004"),)
        assert evaluate_plans(healthy, healthy.cloudlets["c1"], INTRUSION_AND_COST) == [((), u)]
        assert u == pytest.approx(-1 / 6)  # five up nodes at 1/6 pressure, no cost

    def test_an_add_hosts_the_keys_no_member_can_take(self):
        # the add is a rule action: one candidate, without the add's
        # pressure or cost
        snap = kv_snapshot(live_per_key=2, members_on=[1, 2])
        scored = evaluate_plans(snap, snap.cloudlets["c1"], INTRUSION_AND_COST)
        assert scored == [((AddElement("c1", "n3", ALLOC),), pytest.approx(-1 / 6))]

    def test_a_cloudlet_without_arrivals_rates_performance_one(self):
        snap = compute_snapshot(utilization=0.5, arrival_rate=0.0)
        [(_, u)] = evaluate_plans(snap, snap.cloudlets["c1"],
                                  UtilityWeights(w_perf=1.0, w_intr=0, w_cost=0))
        assert u == 1.0

    def test_performance_counts_the_added_cpu(self):
        # 2 members x 2 cpu at 5 units per task serve 0.0008 tasks/ms
        snap = compute_snapshot(utilization=0.95, arrival_rate=0.0016)
        w = UtilityWeights(w_perf=1.0, w_intr=0, w_cost=0)
        scored = evaluate_plans(snap, snap.cloudlets["c1"], w)
        assert [u for _, u in scored] == pytest.approx([0.5, 0.625, 0.625, 0.625])

    def test_intrusion_moves_only_the_node_an_action_touches(self):
        # six up nodes at 1/6 pressure; an add on n5 takes it to 2/6
        snap = compute_snapshot(utilization=0.95)
        w = UtilityWeights(w_perf=0, w_intr=1.0, w_cost=0)
        scored = evaluate_plans(snap, snap.cloudlets["c1"], w)
        assert scored[0][1] == pytest.approx(-1 / 6)
        assert scored[1][1] == pytest.approx(-(5 / 6 + 2 / 6) / 6)
        assert node_pressure(snap) == (pytest.approx(1.0), 6)
        down = snap._replace(nodes={**snap.nodes, "n6": node_snap("n6", up=False)})
        assert node_pressure(down) == (pytest.approx(5 / 6), 5)

    def test_cost_reduces_utility(self):
        w = UtilityWeights(w_perf=0, w_intr=0, w_cost=1.0)
        add = compute_snapshot(utilization=0.95)
        assert evaluate_plans(add, add.cloudlets["c1"], w)[1][1] == pytest.approx(-1.0)
        rem = compute_snapshot(utilization=0.1)
        assert evaluate_plans(rem, rem.cloudlets["c1"], w)[1][1] == pytest.approx(-0.2)


class TestSelectPlan:
    def test_replica_deficit_selects_repair(self):
        plan, utility, noop_u = select(kv_snapshot(live_per_key=2, members_on=[1, 2, 4]))
        assert plan == (Rereplicate("c1", "x", "e0004"),)
        assert utility == noop_u

    def test_selection_equals_exhaustive_argmax(self):
        rng = random.Random(5)
        weights = UtilityWeights()
        for trial in range(50):
            kind = rng.choice(["kv", "compute"])
            if kind == "kv":
                live = rng.randint(1, 3)
                members = sorted(rng.sample(range(1, 6), rng.randint(live, 4)))
                snap = kv_snapshot(live_per_key=live, members_on=members,
                                   utilization=rng.random(), min_members=1)
            else:
                snap = compute_snapshot(
                    utilization=rng.random(), n_members=rng.randint(1, 3),
                    arrival_rate=rng.choice([0.0, 0.001, 0.01]),
                )
            scored = evaluate_plans(snap, snap.cloudlets["c1"], weights)
            best, best_u = scored[0]
            for plan, u in scored:
                if u > best_u:
                    best, best_u = plan, u
            repairs, noop_u = scored[0]
            if best_u > noop_u + EPSILON:
                expected = (best, best_u, noop_u)
            else:
                expected = (repairs, noop_u, noop_u)
            assert select(snap, weights) == expected, (trial, kind)

    def test_healthy_state_keeps_noop(self):
        assert select(kv_snapshot(live_per_key=3))[0] == ()

    def test_utility_ignores_other_cloudlets_keys(self):
        # c1 plans the same whatever c2's keys hold or lack
        base = kv_snapshot(live_per_key=2, members_on=[1, 2])
        reference = select(base)
        for live in (1, 2, 3):
            for n_keys in (1, 30):
                other = kv_cloudlet(live, members_on=[3, 4, 5], n_keys=n_keys,
                                    cloudlet_id="c2")
                snap = base._replace(cloudlets={**base.cloudlets, "c2": other})
                assert select(snap) == reference, (live, n_keys)

    def test_argmax_invariant_under_weight_scaling(self):
        rng = random.Random(17)
        base = UtilityWeights()
        for trial in range(30):
            live = rng.randint(1, 3)
            members = sorted(rng.sample(range(1, 6), rng.randint(max(live, 1), 4)))
            snap = kv_snapshot(live_per_key=live, members_on=members,
                               utilization=rng.random(), min_members=1)
            reference = select(snap, base)[0]
            for c in (0.1, 3, 10):
                scaled = UtilityWeights(*(w * c for w in base))
                assert select(snap, scaled)[0] == reference, (trial, c)


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
        # min_members 4 keeps the spare e0004 from being scaled in
        s.add_cloudlet("c1", "kv_store", CloudletPolicy(target_replication=3, min_members=4))
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
