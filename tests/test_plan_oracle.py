"""The per-cloudlet plan scorer against the from-scratch reference in
``_plan_oracle``: on random snapshots, every candidate that
``evaluate_plans`` scores has the oracle's utility (to rounding), and
``select_plan`` takes the oracle's best candidate, or the rule actions alone
when no candidate beats them by epsilon.

Snapshots mix kv and compute cloudlets, cloudlets with no members or no keys,
keys with no live replica, nodes that are down or have zero headroom, and
members on nodes the snapshot does not list. A member's ``hosts_keys`` lists
the keys it is a live replica of, as the controller's snapshot does.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _plan_oracle
from adhoc_sim.adaptation import (
    AddElement,
    CloudletSnapshot,
    CloudStateSnapshot,
    KeySnapshot,
    MemberSnapshot,
    NodeSnapshot,
    RemoveElement,
    Rereplicate,
    UtilityWeights,
    evaluate_plans,
    select_plan,
)
from adhoc_sim.membership import CloudletPolicy
from adhoc_sim.resources import ResourceVector as RV

NODE_IDS = ("n1", "n2", "n3", "n4", "n5")
GHOST = "gone"  # a node id the snapshot does not list

cpus = st.floats(0.0, 8.0)
probabilities = st.floats(0.0, 1.0)


def node(node_id, up=True, headroom=6.0, free=4.0, allocated=1.0):
    return NodeSnapshot(node_id, up, RV(headroom, 4096, 50_000, 50),
                        RV(free, 2048, 20_000, 20), allocated)


def cloudlet(cid, kind, hosts, keys, policy, **fields):
    """Members e0, e1, ... on hosts; keys maps a key to the indices of its
    live replicas."""
    members = [MemberSnapshot(f"{cid}-e{i}", host, *cpu)
               for i, (host, cpu) in enumerate(hosts)]
    key_snapshots = tuple(
        KeySnapshot(k, tuple(members[i].element_id for i in replicas),
                    tuple(members[i].node_id for i in replicas))
        for k, replicas in sorted(keys.items())
    )
    members = tuple(
        m._replace(hosts_keys=tuple(ks.key for ks in key_snapshots
                                    if m.element_id in ks.live_replica_elements))
        for m in members
    )
    return CloudletSnapshot(cid, kind, members, key_snapshots, policy, **fields)


@st.composite
def cloudlet_snapshots(draw, cid, kind, node_ids):
    hosts = draw(st.lists(
        st.tuples(st.sampled_from(node_ids + (GHOST,)), st.tuples(cpus, cpus)), max_size=5
    ))
    keys = {}
    if kind == "kv_store":
        for k in range(draw(st.integers(0, 4))):
            keys[f"k{k}"] = draw(st.lists(st.integers(0, len(hosts) - 1), unique=True,
                                          max_size=3)) if hosts else []
    policy = CloudletPolicy(
        target_replication=draw(st.integers(1, 4)),
        min_members=draw(st.integers(0, 2)),
        max_members=draw(st.integers(2, 6)),
    )
    return cloudlet(
        cid, kind, hosts, keys, policy,
        utilization=draw(probabilities),
        arrival_rate_per_ms=draw(st.sampled_from([0.0, 0.001]) | probabilities),
        mean_work_units=draw(st.floats(0.0, 10.0)),
    )


@st.composite
def snapshots(draw):
    node_ids = NODE_IDS[: draw(st.integers(0, len(NODE_IDS)))]
    kinds = draw(st.lists(st.sampled_from(["kv_store", "compute"]), min_size=1, max_size=3))
    return CloudStateSnapshot(
        nodes={
            node_id: node(node_id, draw(st.booleans()),
                          draw(st.sampled_from([0.0, 2.0, 6.0])), draw(cpus), draw(cpus))
            for node_id in node_ids
        },
        cloudlets={
            f"c{i}": draw(cloudlet_snapshots(f"c{i}", kind, node_ids))
            for i, kind in enumerate(kinds)
        },
        reserved_elements=frozenset(draw(st.lists(st.sampled_from(["c0-e0", "c1-e1"])))),
    )


weights = st.builds(UtilityWeights, *(st.floats(0.0, 200.0) for _ in range(3)))


def shared_node_snapshot(utilization):
    """A kv cloudlet whose members e0 and e1 share node n1 and whose e3 sits
    on a node the snapshot does not list: x has a copy target (e2), y has
    none (e1 shares y's node n1) and waits for an added member, z has lost
    every replica, and e1 is the one spare member. A compute cloudlet at
    ``utilization`` has one member on n1. n2 is down and n5 has no
    headroom."""
    hosts = [("n1", (1.0, 1.0)), ("n1", (0.5, 1.0)), ("n4", (1.0, 1.0)), (GHOST, (1.0, 1.0))]
    kv = cloudlet(
        "kv", "kv_store", hosts, {"x": [0], "y": [0, 2, 3], "z": []},
        CloudletPolicy(target_replication=4, min_members=1),
        utilization=utilization,
    )
    compute = cloudlet(
        "cp", "compute", [("n1", (2.0, 2.0))], {}, CloudletPolicy(min_members=1),
        utilization=utilization, arrival_rate_per_ms=0.001, mean_work_units=5.0,
    )
    return CloudStateSnapshot(
        nodes={
            "n1": node("n1", free=1.0),
            "n2": node("n2", up=False, headroom=0.0, free=0.0, allocated=0.0),
            "n3": node("n3", free=6.0),
            "n4": node("n4", free=2.0),
            "n5": node("n5", headroom=0.0, free=3.0, allocated=0.0),
        },
        cloudlets={"kv": kv, "cp": compute},
    )


ALLOC = RV(1.0, 512, 1024, 5)
PINNED = (shared_node_snapshot(0.1), UtilityWeights())


@settings(max_examples=300, deadline=None)
@given(case=st.tuples(snapshots(), weights))
@example(case=PINNED)
@example(case=(shared_node_snapshot(0.9), UtilityWeights(1.0, 100.0, 0.0)))
def test_evaluate_plans_equals_the_oracle(case):
    snapshot, w = case
    for cl in snapshot.cloudlets.values():
        scored = evaluate_plans(snapshot, cl, w)
        rule = scored[0][0]
        for plan, utility in scored:
            expected = _plan_oracle.evaluate_plan(plan, rule, snapshot, cl, w)
            assert utility == pytest.approx(expected, rel=1e-9, abs=1e-9), plan


@settings(max_examples=150, deadline=None)
@given(case=st.tuples(snapshots(), weights), epsilon=st.sampled_from([0.0, 1e-6, 0.5]))
@example(case=PINNED, epsilon=1e-6)
def test_select_plan_equals_the_oracle(case, epsilon):
    snapshot, w = case
    tolerance = 1e-9
    for cl in snapshot.cloudlets.values():
        scored = evaluate_plans(snapshot, cl, w)
        rule = scored[0][0]
        oracle = {plan: _plan_oracle.evaluate_plan(plan, rule, snapshot, cl, w)
                  for plan, _ in scored}
        best = max(oracle.values())
        plan, utility, noop_utility = select_plan(snapshot, cl, w, epsilon)
        assert noop_utility == pytest.approx(oracle[rule], rel=1e-9, abs=1e-9)
        assert utility == pytest.approx(oracle[plan], rel=1e-9, abs=1e-9)
        if plan == rule:
            assert best <= oracle[rule] + epsilon + tolerance
        else:
            assert oracle[plan] >= best - tolerance
            assert oracle[plan] > oracle[rule] + epsilon - tolerance


def test_shared_node_snapshot_plans_touch_every_kind_of_key():
    """The pinned examples above plan a repair and, for the waiting key, a
    rule add on the node with the most free cpu; they score a removal of
    the spare member that leaves the repair target and the replica holders
    alone, and compute adds on an up node and on one with zero headroom."""
    def plans(snapshot, cid):
        return [plan for plan, _ in evaluate_plans(snapshot, snapshot.cloudlets[cid], w)]

    snapshot, w = PINNED
    rule = (Rereplicate("kv", "x", "kv-e2"), AddElement("kv", "n3", ALLOC))
    assert plans(snapshot, "kv") == [rule, rule + (RemoveElement("kv", "kv-e1"),)]
    busy = shared_node_snapshot(0.9)
    assert plans(busy, "kv") == [rule]
    assert plans(busy, "cp") == [()] + [
        (AddElement("cp", node_id, ALLOC),) for node_id in ("n3", "n5", "n4")
    ]
