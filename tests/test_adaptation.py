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
    NOOP_PLAN,
    RemoveElement,
    Rereplicate,
    UtilityWeights,
    aggregate_metrics,
    describe,
    evaluate_plan,
    generate_plans,
    select_plan,
)
from adhoc_sim.errors import IncompleteLog, InconsistentPlan
from adhoc_sim.kernel import EventLog
from adhoc_sim.membership import CloudletPolicy
from adhoc_sim.nodes import DOWN, ScriptedChurn
from adhoc_sim.resources import ResourceVector as RV
from adhoc_sim.runner import Simulation

ALLOC = RV(1.0, 512, 1024, 5)


def node_snap(node_id, p=0.9, free_cpu=4.0, allocated=1.0, up=True):
    return NodeSnapshot(
        node_id=node_id,
        up=up,
        availability=p,
        headroom=RV(6.0, 4096, 50_000, 50),
        available_headroom=RV(free_cpu, 2048, 20_000, 20),
        allocated_cpu=allocated,
    )


def kv_snapshot(live_per_key=3, n_nodes=5, members_on=None, utilization=0.5,
                reserved=(), agreements=()):
    """kv cloudlet with one key; members_on lists node indices hosting members."""
    members_on = members_on if members_on is not None else [1, 2, 3]
    members = tuple(
        MemberSnapshot(f"e{i:04d}", f"n{i}", effective_cpu=1.0, allocation_cpu=1.0,
                       hosts_keys=("x",) if i <= live_per_key else ())
        for i in members_on
    )
    replicas = tuple(f"e{i:04d}" for i in members_on[:live_per_key])
    replica_nodes = tuple(f"n{i}" for i in members_on[:live_per_key])
    cloudlet = CloudletSnapshot(
        cloudlet_id="c1",
        engine_kind="kv_store",
        members=members,
        keys=(KeySnapshot("x", replicas, replica_nodes, size=1_000_000),),
        policy=CloudletPolicy(target_replication=3, min_members=3),
        utilization=utilization,
    )
    nodes = {f"n{i}": node_snap(f"n{i}") for i in range(1, n_nodes + 1)}
    return CloudStateSnapshot(
        nodes=nodes, cloudlets={"c1": cloudlet},
        agreements=tuple(agreements), reserved_elements=frozenset(reserved),
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


class TestGeneratePlans:
    def test_healthy_snapshot_noop_only(self):
        snap = kv_snapshot(live_per_key=3, utilization=0.5)
        plans = generate_plans(snap, AdaptationPolicy())
        assert plans == [NOOP_PLAN]

    def test_deficit_with_viable_member_yields_rereplicate(self):
        # 4 members, key on 2 of them: the spare member is the copy target
        snap = kv_snapshot(live_per_key=2, members_on=[1, 2, 4])
        plans = generate_plans(snap, AdaptationPolicy())
        reps = [
            a
            for p in plans
            for a in p
            if isinstance(a, Rereplicate)
        ]
        assert reps
        assert reps[0].key == "x"
        assert reps[0].target_element == "e0004"

    def test_deficit_without_member_target_yields_add_element(self):
        # all members hold the key: membership must grow before repair
        snap = kv_snapshot(live_per_key=2, members_on=[1, 2])
        plans = generate_plans(snap, AdaptationPolicy())
        adds = [a for p in plans for a in p if isinstance(a, AddElement)]
        assert len(adds) == 1
        assert adds[0].node_id == "n3"  # highest free headroom among non-members

    def test_high_watermark_top3_feasible_nodes(self):
        snap = compute_snapshot(utilization=0.95, n_members=2, n_nodes=6)
        plans = generate_plans(snap, AdaptationPolicy())
        adds = [p[0] for p in plans if p and isinstance(p[0], AddElement)]
        assert len(adds) == 3
        # nodes 3..6 are feasible (1,2 host members); top-3 by free cpu
        assert [a.node_id for a in adds] == ["n5", "n3", "n6"]

    def test_low_watermark_remove_candidate(self):
        snap = compute_snapshot(utilization=0.1, n_members=2)
        plans = generate_plans(snap, AdaptationPolicy())
        removes = [p[0] for p in plans if p and isinstance(p[0], RemoveElement)]
        assert len(removes) == 1
        assert removes[0].element_id == "e0001"  # most constrained node

    def test_low_watermark_respects_min_members(self):
        snap = compute_snapshot(utilization=0.1, n_members=2, min_members=2)
        plans = generate_plans(snap, AdaptationPolicy())
        assert not [p for p in plans if p and isinstance(p[0], RemoveElement)]

    def test_reserved_elements_never_removal_victims(self):
        snap = compute_snapshot(utilization=0.1, n_members=2)
        snap = CloudStateSnapshot(
            nodes=snap.nodes, cloudlets=snap.cloudlets,
            reserved_elements=frozenset({"e0001"}),
        )
        plans = generate_plans(snap, AdaptationPolicy())
        removes = [p[0] for p in plans if p and isinstance(p[0], RemoveElement)]
        assert [r.element_id for r in removes] == ["e0002"]

    def test_monotone_candidates(self):
        # fixing the replica deficit never adds candidates
        deficient = kv_snapshot(live_per_key=2, members_on=[1, 2, 4])
        healthy = kv_snapshot(live_per_key=3, members_on=[1, 2, 4])
        policy = AdaptationPolicy()
        assert set(map(repr, generate_plans(healthy, policy))) <= set(
            map(repr, generate_plans(deficient, policy))
        )


class TestDescribe:
    def test_each_action_kind_and_the_empty_plan(self):
        plan = (
            AddElement("c1", "n5", ALLOC),
            RemoveElement("c1", "e0001"),
            Rereplicate("c1", "x", "e0001", "e0004", 1_000_000),
        )
        assert describe(plan) == [
            ["add", "c1", "n5"],
            ["remove", "c1", "e0001"],
            ["rereplicate", "c1", "x", "e0004"],
        ]
        assert describe(NOOP_PLAN) == describe(()) == [["noop"]]


class TestEvaluatePlan:
    def test_rereplicate_raises_key_availability(self):
        snap = kv_snapshot(live_per_key=2, members_on=[1, 2, 4])
        w_only_avail = UtilityWeights(w_avail=1.0, w_perf=0, w_intr=0, w_cost=0)
        noop_u = evaluate_plan(NOOP_PLAN, snap, w_only_avail)
        repair = (Rereplicate("c1", "x", "e0001", "e0004", 1_000_000),)
        repair_u = evaluate_plan(repair, snap, w_only_avail)
        assert noop_u == pytest.approx(0.99)  # 1 - 0.1^2
        assert repair_u == pytest.approx(0.999)  # 1 - 0.1^3

    def test_agreement_availability_counts(self):
        snap = kv_snapshot(
            live_per_key=3,
            agreements=[("n1", "n2")],
        )
        w = UtilityWeights(w_avail=1.0, w_perf=0, w_intr=0, w_cost=0)
        u = evaluate_plan(NOOP_PLAN, snap, w)
        assert u == pytest.approx((0.999 + 0.99) / 2)

    def test_inconsistent_remove_and_rereplicate(self):
        snap = kv_snapshot(live_per_key=2, members_on=[1, 2, 4])
        bad = (
            RemoveElement("c1", "e0004"),
            Rereplicate("c1", "x", "e0001", "e0004", 1_000_000),
        )
        with pytest.raises(InconsistentPlan):
            evaluate_plan(bad, snap, UtilityWeights())

    def test_add_element_over_headroom_inconsistent(self):
        snap = kv_snapshot()
        bad = (AddElement("c1", "n4", RV(99.0)),)
        with pytest.raises(InconsistentPlan):
            evaluate_plan(bad, snap, UtilityWeights())

    def test_cost_reduces_utility(self):
        snap = compute_snapshot(utilization=0.95)
        w = UtilityWeights(w_avail=0, w_perf=0, w_intr=0, w_cost=1.0)
        add = (AddElement("c1", "n5", ALLOC),)
        assert evaluate_plan(add, snap, w) == pytest.approx(-1.0)
        rem = (RemoveElement("c1", "e0001"),)
        assert evaluate_plan(rem, snap, w) == pytest.approx(-0.2)


class TestSelectPlan:
    def test_replica_deficit_selects_repair(self):
        snap = kv_snapshot(live_per_key=2, members_on=[1, 2, 4])
        plan, utility, noop_u = select_plan(snap, AdaptationPolicy(), UtilityWeights())
        assert any(isinstance(a, Rereplicate) for a in plan)
        assert utility > noop_u

    def test_selection_equals_exhaustive_argmax(self):
        # independent argmax over the candidate set with the same tie rules
        rng = random.Random(5)
        policy = AdaptationPolicy()
        weights = UtilityWeights()
        for trial in range(50):
            kind = rng.choice(["kv", "compute"])
            if kind == "kv":
                live = rng.randint(1, 3)
                members = sorted(rng.sample(range(1, 6), rng.randint(live, 4)))
                snap = kv_snapshot(live_per_key=live, members_on=members,
                                   utilization=rng.random())
            else:
                snap = compute_snapshot(
                    utilization=rng.random(), n_members=rng.randint(1, 3),
                    arrival_rate=rng.choice([0.0, 0.001, 0.01]),
                )
            chosen, utility, noop_u = select_plan(snap, policy, weights)
            best, best_u = None, None
            for p in generate_plans(snap, policy):
                u = evaluate_plan(p, snap, weights)
                if best is None or u > best_u or (u == best_u and len(p) < len(best)):
                    best, best_u = p, u
            noop_ref = evaluate_plan(NOOP_PLAN, snap, weights)
            expected = best if best_u > noop_ref + policy.epsilon else NOOP_PLAN
            assert chosen == expected, (trial, kind)

    def test_healthy_state_keeps_noop(self):
        snap = kv_snapshot(live_per_key=3)
        plan, _, _ = select_plan(snap, AdaptationPolicy(), UtilityWeights())
        assert plan == NOOP_PLAN

    def test_argmax_invariant_under_weight_scaling(self):
        rng = random.Random(17)
        policy = AdaptationPolicy()
        base = UtilityWeights()
        for trial in range(30):
            live = rng.randint(1, 3)
            members = sorted(rng.sample(range(1, 6), rng.randint(max(live, 1), 4)))
            snap = kv_snapshot(live_per_key=live, members_on=members,
                               utilization=rng.random())
            reference, _, _ = select_plan(snap, policy, base)
            for c in (0.1, 3, 10):
                scaled = UtilityWeights(
                    base.w_avail * c, base.w_perf * c, base.w_intr * c, base.w_cost * c
                )
                scaled_plan, _, _ = select_plan(snap, policy, scaled)
                assert scaled_plan == reference, (trial, c)


class TestAdaptStepInSim:
    def repair_sim(self):
        s = Simulation(seed=3)
        for i in range(1, 5):
            churn = ScriptedChurn(((100_000, DOWN),)) if i == 1 else None
            s.add_node(f"n{i}", RV(8, 8192, 100_000, 100), churn=churn,
                       reserve_margin=RV.zero(), forecast_availability=0.9)
        s.add_cloudlet("c1", "kv_store", CloudletPolicy(target_replication=3, min_members=3))
        for i in range(1, 4):
            s.deploy_element(f"n{i}", "c1", ALLOC)
        s.attach_adaptation()
        s.start()
        s.run_until(2100)
        kv = s.kv_services["c1"]
        put = kv.put("x", "payload", size=4096)
        s.run_until(5000)
        assert put.ok()
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
        adds = [
            e for e in s.sim.log
            if e.record.get("event") == "adapt_step" and e.record["executed"]
        ]
        assert adds

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
        snapshot = controller.build_snapshot()
        # hand-build a plan situation: force an AddElement on n2, then crash n2
        s.nodes["n2"]._apply_liveness(DOWN)
        from adhoc_sim.adaptation import AddElement as AE

        plan_snapshot = snapshot  # stale: still shows n2 up
        ok, reason = controller._execute_action(AE("c1", "n2", ALLOC))
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
