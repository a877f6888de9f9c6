"""The one-pass plan evaluator against the five-pass reference in
``_plan_oracle``: on random snapshots and plans, ``evaluate_plan`` returns
exactly the oracle's utility (``==``, not approx), and both raise
``InconsistentPlan`` on the same plans. ``select_plan``, which rates the
no-op plan's availability terms once and lets each candidate recompute only
the keys it touches, returns exactly the plan and the utilities that the
oracle finds by scoring every candidate on its own.

Snapshots mix kv and compute cloudlets, cloudlets with no members or no keys,
nodes that are down or have zero headroom, members on nodes the snapshot does
not list, and agreements. Plans mix AddElement, RemoveElement and Rereplicate
actions; as ``generate_plans`` builds them, an action names elements of its
own cloudlet (or an id no member has), and a Rereplicate carries its key's
snapshot size.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _plan_oracle
from adhoc_sim.adaptation import (
    AdaptationPolicy,
    AddElement,
    CloudletSnapshot,
    CloudStateSnapshot,
    KeySnapshot,
    MemberSnapshot,
    NodeSnapshot,
    RemoveElement,
    Rereplicate,
    UtilityWeights,
    evaluate_plan,
    generate_plans,
    select_plan,
)
from adhoc_sim.errors import InconsistentPlan
from adhoc_sim.membership import CloudletPolicy
from adhoc_sim.resources import ResourceVector as RV

NODE_IDS = ("n1", "n2", "n3", "n4")
GHOST = "gone"  # a node id the snapshot does not list

cpus = st.floats(0.0, 8.0)
probabilities = st.floats(0.0, 1.0)


def node(node_id, up=True, p=0.9, headroom=6.0, free=4.0, allocated=1.0):
    return NodeSnapshot(node_id, up, p, RV(headroom, 4096, 50_000, 50),
                        RV(free, 2048, 20_000, 20), allocated)


def key(name, replicas, size):
    return KeySnapshot(name, tuple(m.element_id for m in replicas),
                       tuple(m.node_id for m in replicas), size)


@st.composite
def node_snapshots(draw, node_id):
    return node(node_id, draw(st.booleans()), draw(probabilities),
                draw(st.sampled_from([0.0, 2.0, 6.0])), draw(cpus), draw(cpus))


@st.composite
def cloudlet_snapshots(draw, cid, kind, node_ids):
    hosts = draw(st.lists(st.sampled_from(node_ids + (GHOST,)), max_size=4))
    members = tuple(
        MemberSnapshot(f"{cid}-e{i}", host, draw(cpus), draw(cpus))
        for i, host in enumerate(hosts)
    )
    keys = []
    if kind == "kv_store" and members:
        for k in range(draw(st.integers(0, 3))):
            replicas = draw(st.lists(st.sampled_from(members), unique=True, max_size=3))
            keys.append(key(f"k{k}", replicas, draw(st.integers(0, 10**7))))
    return CloudletSnapshot(
        cid, kind, members, tuple(keys),
        CloudletPolicy(target_replication=draw(st.integers(1, 4))),
        utilization=draw(probabilities),
        arrival_rate_per_ms=draw(st.sampled_from([0.0, 0.001]) | probabilities),
        mean_work_units=draw(st.floats(0.0, 10.0)),
    )


@st.composite
def snapshots(draw):
    node_ids = NODE_IDS[: draw(st.integers(0, len(NODE_IDS)))]
    kinds = draw(st.lists(st.sampled_from(["kv_store", "compute"]), min_size=1, max_size=3))
    agreements = draw(st.lists(
        st.lists(st.sampled_from(node_ids + (GHOST,)), min_size=1, max_size=3, unique=True)
        .map(tuple),
        max_size=2,
    ))
    return CloudStateSnapshot(
        nodes={node_id: draw(node_snapshots(node_id)) for node_id in node_ids},
        cloudlets={
            f"c{i}": draw(cloudlet_snapshots(f"c{i}", kind, node_ids))
            for i, kind in enumerate(kinds)
        },
        agreements=tuple(agreements),
    )


@st.composite
def actions(draw, snapshot):
    cid = draw(st.sampled_from(sorted(snapshot.cloudlets)))
    cloudlet = snapshot.cloudlets[cid]
    elements = st.sampled_from([m.element_id for m in cloudlet.members] + [f"{cid}-ghost"])
    kind = draw(st.sampled_from(["add", "remove"] + (["copy"] if cloudlet.keys else [])))
    if kind == "add":
        host = draw(st.sampled_from(sorted(snapshot.nodes) + [GHOST]))
        return AddElement(cid, host, RV(draw(cpus), 512, 1024, 5))
    if kind == "remove":
        return RemoveElement(cid, draw(elements))
    ks = draw(st.sampled_from(cloudlet.keys))
    return Rereplicate(cid, ks.key, draw(elements), draw(elements), ks.size)


@st.composite
def cases(draw):
    snapshot = draw(snapshots())
    plan = tuple(draw(st.lists(actions(snapshot), max_size=5)))
    weights = UtilityWeights(*(draw(st.floats(0.0, 200.0)) for _ in range(4)))
    return snapshot, plan, weights


def pinned_snapshot():
    """kv and compute cloudlets, an empty one of each, a down node, a node
    with zero headroom, and two agreements."""
    kv = (MemberSnapshot("e1", "n1", 1.0, 1.0), MemberSnapshot("e2", "n4", 1.0, 1.0),
          MemberSnapshot("e3", "n3", 0.5, 0.5))
    batch = (MemberSnapshot("b1", "n1", 2.0, 2.0), MemberSnapshot("b2", "n4", 1.5, 2.0))
    return CloudStateSnapshot(
        nodes={
            "n1": node("n1"),
            "n2": node("n2", up=False, headroom=0.0, free=0.0, allocated=0.0),
            "n3": node("n3", headroom=0.0, free=0.0, allocated=0.5),
            "n4": node("n4", p=0.5, free=2.0, allocated=3.0),
        },
        cloudlets={
            "kv": CloudletSnapshot("kv", "kv_store", kv,
                                   (key("x", kv[:2], 1000), key("y", kv[:1], 5)),
                                   CloudletPolicy(target_replication=3)),
            "kv_empty": CloudletSnapshot("kv_empty", "kv_store", kv[2:], (),
                                         CloudletPolicy()),
            "batch": CloudletSnapshot("batch", "compute", batch, (), CloudletPolicy(),
                                      arrival_rate_per_ms=0.01, mean_work_units=3.0),
            "idle": CloudletSnapshot("idle", "compute", (), (), CloudletPolicy(),
                                     arrival_rate_per_ms=0.001),
        },
        agreements=(("n1", "n4"), ("n2",)),
    )


PINNED = pinned_snapshot()
ALLOC = RV(1.0, 512, 1024, 5)
MIXED = (
    AddElement("kv", "n4", ALLOC),
    Rereplicate("kv", "y", "e1", "e3", 5),
    RemoveElement("batch", "b2"),
    AddElement("batch", "n1", ALLOC),
    Rereplicate("kv", "x", "e1", "e2", 1000),
)


@settings(max_examples=400, deadline=None)
@given(case=cases())
@example(case=(PINNED, (), UtilityWeights()))
@example(case=(PINNED, MIXED, UtilityWeights()))
@example(case=(PINNED, MIXED + (RemoveElement("kv", "e3"),), UtilityWeights()))
@example(case=(PINNED, (RemoveElement("kv", "e2"),) + MIXED, UtilityWeights()))
@example(case=(PINNED, (AddElement("kv", "n4", ALLOC), Rereplicate("kv", "y", "e1", "ghost", 5)),
               UtilityWeights()))
@example(case=(PINNED, (AddElement("idle", "n2", ALLOC),), UtilityWeights()))
@example(case=(PINNED, (AddElement("idle", "n3", ALLOC),), UtilityWeights()))
@example(case=(PINNED, (RemoveElement("kv", "e1"),), UtilityWeights()))
def test_evaluate_plan_equals_the_five_pass_oracle(case):
    snapshot, plan, weights = case
    try:
        expected = _plan_oracle.evaluate_plan(plan, snapshot, weights)
    except InconsistentPlan:
        with pytest.raises(InconsistentPlan):
            evaluate_plan(plan, snapshot, weights)
        return
    assert evaluate_plan(plan, snapshot, weights) == expected


def shared_node_snapshot(utilization):
    """A kv cloudlet whose members e1 and e2 share node n1: key x has two
    live replicas on one node, z its three replicas on two nodes (under
    target by distinct node, not by count), and no member can take a copy
    of w, so a repair needs a new member."""
    kv = (MemberSnapshot("e1", "n1", 1.0, 1.0), MemberSnapshot("e2", "n1", 0.5, 1.0),
          MemberSnapshot("e3", "n4", 1.0, 1.0))
    return CloudStateSnapshot(
        nodes={
            "n1": node("n1", free=1.0),
            "n2": node("n2", p=0.7),
            "n3": node("n3", p=0.6, free=6.0),
            "n4": node("n4", p=0.5, free=2.0),
        },
        cloudlets={"kv": CloudletSnapshot(
            "kv", "kv_store", kv,
            (key("w", (kv[0], kv[2]), 7), key("x", kv[:2], 1000), key("y", kv[:1], 5),
             key("z", kv, 20)),
            CloudletPolicy(target_replication=3), utilization=utilization,
        )},
        agreements=(("n2", "n3"),),
    )


# the intrusion a removal saves outweighs the availability it costs
REMOVAL_WINS = UtilityWeights(1.0, 0.0, 100.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(case=cases(), epsilon=st.sampled_from([0.0, 1e-6]))
@example(case=(PINNED, (), UtilityWeights()), epsilon=1e-6)
@example(case=(shared_node_snapshot(0.9), (), UtilityWeights()), epsilon=1e-6)
@example(case=(shared_node_snapshot(0.1), (), UtilityWeights()), epsilon=1e-6)
@example(case=(shared_node_snapshot(0.1), (), UtilityWeights(1.0, 0.0, 0.0, 0.0)), epsilon=0.0)
@example(case=(shared_node_snapshot(0.1), (), REMOVAL_WINS), epsilon=1e-6)
def test_select_plan_equals_the_oracle(case, epsilon):
    snapshot, _plan, weights = case
    policy = AdaptationPolicy(epsilon=epsilon)
    assert select_plan(snapshot, policy, weights) == _plan_oracle.select_plan(
        snapshot, policy, weights
    )


def test_shared_node_snapshot_plans_touch_every_kind_of_key():
    """The pinned examples above reach each case ``select_plan`` patches:
    re-replications, an AddElement into a cloudlet with keys under target
    by distinct node, and the removal of a replica holder."""
    plans = {
        u: generate_plans(shared_node_snapshot(u), AdaptationPolicy()) for u in (0.9, 0.1)
    }
    actions = [a for u in plans for plan in plans[u] for a in plan]
    assert {a.key for a in actions if isinstance(a, Rereplicate)} == {"x", "y"}
    assert any(isinstance(a, AddElement) for plan in plans[0.9] for a in plan)
    assert any(isinstance(a, AddElement) for plan in plans[0.1] for a in plan)  # for w
    removed = [a.element_id for plan in plans[0.1] for a in plan if isinstance(a, RemoveElement)]
    assert removed == ["e1"]  # the holder of every key
    assert select_plan(shared_node_snapshot(0.1), AdaptationPolicy(), REMOVAL_WINS)[0] == (
        RemoveElement("kv", "e1"),
    )
