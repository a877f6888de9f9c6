"""Reference scorer for ``adaptation.evaluate_plans``: each candidate plan is
rated from scratch, and no term is shared between candidates.

Availability walks every key of the cloudlet with the plan applied: a
removed member's replicas drop out, a Rereplicate adds its target's node,
and an AddElement's node joins each key with some but fewer than
``target_replication`` live replicas that the plan does not copy.
Performance sums the members that remain plus the added cpu. Intrusion
recomputes every up node's pressure with the plan's cpu change. It agrees
with the simulator's evaluator to rounding, not bit for bit: that one rates
the repairs once and adds each candidate's change to them.
"""

from adhoc_sim.adaptation import ADD_COST, REMOVE_COST, AddElement, RemoveElement, Rereplicate
from adhoc_sim.qos import availability_of


def evaluate_plan(plan: tuple, snapshot, cloudlet, weights) -> float:
    members = {m.element_id: m for m in cloudlet.members}
    copies = {a.key: members[a.target_element].node_id
              for a in plan if isinstance(a, Rereplicate)}
    added = [a for a in plan if isinstance(a, AddElement)]
    removed = [members[a.element_id] for a in plan if isinstance(a, RemoveElement)]
    return (
        weights.w_avail * _availability(snapshot, cloudlet, copies, added, removed)
        + weights.w_perf * _performance(cloudlet, added, removed)
        - weights.w_intr * _intrusion(snapshot, added, removed)
        - weights.w_cost * (ADD_COST * len(added) + REMOVE_COST * len(removed))
    )


def _availability(snapshot, cloudlet, copies, added, removed) -> float:
    gone = {m.element_id for m in removed}
    terms = []
    for ks in cloudlet.keys:
        nodes = {node for eid, node in zip(ks.live_replica_elements, ks.live_replica_nodes)
                 if eid not in gone}
        if ks.key in copies:
            nodes.add(copies[ks.key])
        elif 0 < len(ks.live_replica_elements) < cloudlet.policy.target_replication:
            nodes.update(a.node_id for a in added)
        ps = [snapshot.nodes[n].availability if n in snapshot.nodes else 0.0
              for n in sorted(nodes)]
        terms.append(availability_of(ps))
    return sum(terms) / len(terms) if terms else 1.0


def _performance(cloudlet, added, removed) -> float:
    if cloudlet.engine_kind != "compute" or cloudlet.arrival_rate_per_ms <= 0:
        return 1.0
    cpu = sum(m.effective_cpu for m in cloudlet.members if m not in removed)
    cpu += sum(a.allocation.cpu for a in added)
    tasks_per_ms = cpu / 1000.0 / max(cloudlet.mean_work_units, 1e-9)
    return min(1.0, tasks_per_ms / cloudlet.arrival_rate_per_ms)


def _intrusion(snapshot, added, removed) -> float:
    delta = {}
    for a in added:
        delta[a.node_id] = delta.get(a.node_id, 0.0) + a.allocation.cpu
    for m in removed:
        delta[m.node_id] = delta.get(m.node_id, 0.0) - m.allocation_cpu
    ratios = []
    for ns in snapshot.nodes.values():
        if not ns.up:
            continue
        allocated = ns.allocated_cpu + delta.get(ns.node_id, 0.0)
        if ns.headroom.cpu <= 0:
            ratios.append(1.0 if allocated > 0 else 0.0)
        else:
            ratios.append(min(1.0, max(0.0, allocated / ns.headroom.cpu)))
    return sum(ratios) / len(ratios) if ratios else 0.0
