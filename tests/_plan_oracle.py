"""Reference scorer for ``adaptation.evaluate_plans``: each candidate plan is
rated from scratch, and no term is shared between candidates.

A plan starts with the cloudlet's rule actions, which are not rated; only
the scaling action after them is. Performance sums the members that remain
plus the added cpu. Intrusion recomputes every up node's pressure with the
scaling action's cpu change. It agrees with the simulator's evaluator to
rounding, not bit for bit: that one rates the cloudlet as it stands once
and adds each candidate's change to it.
"""

from adhoc_sim.adaptation import ADD_COST, REMOVE_COST, AddElement, RemoveElement


def evaluate_plan(plan: tuple, rule: tuple, snapshot, cloudlet, weights) -> float:
    """The utility of ``plan``, which starts with the rule actions ``rule``."""
    assert plan[:len(rule)] == rule
    scaling = plan[len(rule):]
    members = {m.element_id: m for m in cloudlet.members}
    added = [a for a in scaling if isinstance(a, AddElement)]
    removed = [members[a.element_id] for a in scaling if isinstance(a, RemoveElement)]
    return (
        weights.w_perf * _performance(cloudlet, added, removed)
        - weights.w_intr * _intrusion(snapshot, added, removed)
        - weights.w_cost * (ADD_COST * len(added) + REMOVE_COST * len(removed))
    )


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
