"""Reference plan evaluator: the five-pass scoring that ``adaptation``
replaced with one effect pass, kept as an exact oracle.

Consistency, availability, performance, intrusion and cost each walk the plan
on their own; a Rereplicate is priced from its key's snapshot size, and an
element removal is found in an element -> allocation map over every member.
Availability walks every key of every plan, with a memo of its own per plan.
Every float is summed in the order the simulator's evaluator sums it, so the
two agree with ``==``.
"""

from adhoc_sim.adaptation import (
    ADD_COST,
    REMOVE_COST,
    REREPLICATE_COST_PER_BYTE,
    AddElement,
    RemoveElement,
    Rereplicate,
    generate_plans,
)
from adhoc_sim.errors import InconsistentPlan
from adhoc_sim.qos import availability_of


def evaluate_plan(plan: tuple, snapshot, weights) -> float:
    _check_consistent(plan, snapshot)
    avail = _predicted_availability(plan, snapshot)
    perf = _predicted_performance(plan, snapshot)
    intr = _predicted_intrusion(plan, snapshot)
    cost = _plan_cost(plan, snapshot)
    return (
        weights.w_avail * avail
        + weights.w_perf * perf
        - weights.w_intr * intr
        - weights.w_cost * cost
    )


def select_plan(snapshot, policy, weights) -> tuple:
    """``adaptation.select_plan``'s rule over ``evaluate_plan`` above: each
    candidate of ``generate_plans`` (the no-op plan first) scored on its own."""
    noop_utility = evaluate_plan((), snapshot, weights)
    best, best_u = (), noop_utility
    for plan in generate_plans(snapshot, policy)[1:]:
        u = evaluate_plan(plan, snapshot, weights)
        if u > best_u or (u == best_u and len(plan) < len(best)):
            best, best_u = plan, u
    if best_u <= noop_utility + policy.epsilon:
        return (), noop_utility, noop_utility
    return best, best_u, noop_utility


def _check_consistent(plan: tuple, snapshot) -> None:
    removed = {a.element_id for a in plan if isinstance(a, RemoveElement)}
    for a in plan:
        if isinstance(a, Rereplicate) and (
            a.target_element in removed or a.source_element in removed
        ):
            raise InconsistentPlan(
                f"plan removes element involved in re-replication of {a.key!r}"
            )
        if isinstance(a, AddElement):
            ns = snapshot.nodes.get(a.node_id)
            if ns is None or not ns.up:
                raise InconsistentPlan(f"AddElement targets unusable node {a.node_id}")
            if a.allocation.exceeds_any(ns.available_headroom):
                raise InconsistentPlan(
                    f"AddElement allocation exceeds headroom on {a.node_id}"
                )


def _node_availability(snapshot, node_id: str) -> float:
    ns = snapshot.nodes.get(node_id)
    return ns.availability if ns else 0.0


def _predicted_availability(plan: tuple, snapshot) -> float:
    """Mean, over kv keys and active agreements, of 1 - prod(1 - p) across
    the replica/reserved nodes after the plan."""
    added_node_by_cloudlet: dict[str, str] = {}
    removed_elements = set()
    retargeted: dict[tuple[str, str], str] = {}
    for a in plan:
        if isinstance(a, AddElement):
            added_node_by_cloudlet[a.cloudlet_id] = a.node_id
        elif isinstance(a, RemoveElement):
            removed_elements.add(a.element_id)
        elif isinstance(a, Rereplicate):
            retargeted[(a.cloudlet_id, a.key)] = a.target_element

    # many keys share a replica node set (on the benchmark workloads over
    # 95% of lookups hit): rate each distinct set once
    memo: dict[frozenset, float] = {}

    def at_least_one_up(nodes) -> float:
        key = frozenset(nodes)
        p = memo.get(key)
        if p is None:
            p = memo[key] = availability_of(
                [_node_availability(snapshot, node_id) for node_id in sorted(key)]
            )
        return p

    terms = []
    for cid in sorted(snapshot.cloudlets):
        cloudlet = snapshot.cloudlets[cid]
        if cloudlet.engine_kind != "kv_store":
            continue
        member_nodes = {m.element_id: m.node_id for m in cloudlet.members}
        for ks in cloudlet.keys:
            nodes = {
                node
                for eid, node in zip(ks.live_replica_elements, ks.live_replica_nodes)
                if eid not in removed_elements
            }
            target = retargeted.get((cid, ks.key))
            if target is not None and target in member_nodes:
                nodes.add(member_nodes[target])
            elif (
                cid in added_node_by_cloudlet
                and len(nodes) < cloudlet.policy.target_replication
            ):
                # a freshly added member is the prospective host for the
                # pending re-replication of deficient keys
                nodes.add(added_node_by_cloudlet[cid])
            terms.append(at_least_one_up(nodes))
    for reserved_nodes in snapshot.agreements:
        terms.append(at_least_one_up(reserved_nodes))
    if not terms:
        return 1.0
    return sum(terms) / len(terms)


def _predicted_performance(plan: tuple, snapshot) -> float:
    """Mean over compute cloudlets of min(1, service_rate / arrival_rate)."""
    added = {}
    removed = set()
    for a in plan:
        if isinstance(a, AddElement):
            added[a.cloudlet_id] = added.get(a.cloudlet_id, 0.0) + a.allocation.cpu
        elif isinstance(a, RemoveElement):
            removed.add(a.element_id)
    terms = []
    for cid in sorted(snapshot.cloudlets):
        cloudlet = snapshot.cloudlets[cid]
        if cloudlet.engine_kind != "compute":
            continue
        eff_cpu = sum(
            m.effective_cpu for m in cloudlet.members if m.element_id not in removed
        )
        eff_cpu += added.get(cid, 0.0)
        if cloudlet.arrival_rate_per_ms <= 0:
            terms.append(1.0)
            continue
        work = max(cloudlet.mean_work_units, 1e-9)
        service_rate = eff_cpu / 1000.0 / work  # tasks per ms
        terms.append(min(1.0, service_rate / cloudlet.arrival_rate_per_ms))
    if not terms:
        return 1.0
    return sum(terms) / len(terms)


def _predicted_intrusion(plan: tuple, snapshot) -> float:
    """Mean over up nodes of allocated/headroom cpu pressure, clamped to [0,1]."""
    delta: dict[str, float] = {}
    element_alloc: dict[str, tuple[str, float]] = {}
    for cid, cloudlet in snapshot.cloudlets.items():
        for m in cloudlet.members:
            element_alloc[m.element_id] = (m.node_id, m.allocation_cpu)
    for a in plan:
        if isinstance(a, AddElement):
            delta[a.node_id] = delta.get(a.node_id, 0.0) + a.allocation.cpu
        elif isinstance(a, RemoveElement) and a.element_id in element_alloc:
            node_id, cpu = element_alloc[a.element_id]
            delta[node_id] = delta.get(node_id, 0.0) - cpu
    ratios = []
    for node_id in sorted(snapshot.nodes):
        ns = snapshot.nodes[node_id]
        if not ns.up:
            continue
        allocated = ns.allocated_cpu + delta.get(node_id, 0.0)
        if ns.headroom.cpu <= 0:
            ratios.append(1.0 if allocated > 0 else 0.0)
        else:
            ratios.append(min(1.0, max(0.0, allocated / ns.headroom.cpu)))
    if not ratios:
        return 0.0
    return sum(ratios) / len(ratios)


def _plan_cost(plan: tuple, snapshot) -> float:
    sizes = {}
    for cid, cloudlet in snapshot.cloudlets.items():
        for ks in cloudlet.keys:
            sizes[(cid, ks.key)] = ks.size
    cost = 0.0
    for a in plan:
        if isinstance(a, AddElement):
            cost += ADD_COST
        elif isinstance(a, RemoveElement):
            cost += REMOVE_COST
        elif isinstance(a, Rereplicate):
            cost += sizes.get((a.cloudlet_id, a.key), 0) * REREPLICATE_COST_PER_BYTE
    return cost
