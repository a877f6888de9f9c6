"""Autonomic control loop: each epoch, enumerate speculative plans, score
them with a weighted multi-objective utility, and execute the best one under
hard non-intrusiveness constraints re-checked at execution time. A plan is a
tuple of actions; the empty plan ``NOOP_PLAN`` changes nothing.

U = w_avail*A' + w_perf*P' - w_intr*I' - w_cost*C, where A' is the mean
predicted availability over keys and agreements after the plan, P' the
predicted service/arrival ratio capped at 1, I' the mean per-node
allocation-to-headroom pressure, and C the summed action costs (deploy 1,
destroy 0.2, re-replication proportional to the bytes a ``Rereplicate``
carries). Scaling every weight by the same positive factor leaves the
selected plan unchanged.
A plan is walked once (``_effect``); the predictors read that effect, and
each cloudlet's snapshot carries its ``CloudletPolicy``. ``select_plan``
rates the no-op plan's availability terms once per snapshot, and each
candidate recomputes only the terms of the keys it touches (``_KeyTerms``).

``GoalSpec`` and ``aggregate_metrics``, the log aggregation of metrics.py,
stay importable from here.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import metrics
from .defaults import DEFAULTS
from .errors import InconsistentPlan
from .infrastructure import RUNNING
from .membership import CloudletPolicy
from .qos import availability_of
from .resources import ResourceVector

ADD_COST = 1.0
REMOVE_COST = 0.2
REREPLICATE_COST_PER_BYTE = 1e-6
MAX_REREPLICATE_CANDIDATES = 8  # deficient keys considered per cloudlet and epoch


class UtilityWeights(NamedTuple):
    w_avail: float = DEFAULTS["w_avail"]
    w_perf: float = DEFAULTS["w_perf"]
    w_intr: float = DEFAULTS["w_intr"]
    w_cost: float = DEFAULTS["w_cost"]


# -- plan actions (pure data) -------------------------------------------------


class AddElement(NamedTuple):
    cloudlet_id: str
    node_id: str
    allocation: ResourceVector


class RemoveElement(NamedTuple):
    cloudlet_id: str
    element_id: str


class Rereplicate(NamedTuple):
    cloudlet_id: str
    key: str
    source_element: str
    target_element: str
    size: int  # the key's bytes, which price the copy


NOOP_PLAN = ()


def describe(plan: tuple) -> list:
    """The plan as logged: one list per action; the empty plan is [["noop"]]."""
    out = []
    for a in plan:
        if isinstance(a, AddElement):
            out.append(["add", a.cloudlet_id, a.node_id])
        elif isinstance(a, RemoveElement):
            out.append(["remove", a.cloudlet_id, a.element_id])
        else:
            out.append(["rereplicate", a.cloudlet_id, a.key, a.target_element])
    return out or [["noop"]]


class AdaptationPolicy(NamedTuple):
    epoch_ms: int = DEFAULTS["epoch_ms"]
    max_actions_per_epoch: int = DEFAULTS["max_actions_per_epoch"]
    epsilon: float = DEFAULTS["epsilon"]
    enabled: bool = DEFAULTS["adaptation_enabled"]


# -- snapshot (pure data, constructed by the controller or by tests) -----------


class NodeSnapshot(NamedTuple):
    node_id: str
    up: bool
    availability: float  # forecast p
    headroom: ResourceVector
    available_headroom: ResourceVector
    allocated_cpu: float  # committed element allocations


class KeySnapshot(NamedTuple):
    key: str
    live_replica_elements: tuple
    live_replica_nodes: tuple
    size: int


class MemberSnapshot(NamedTuple):
    element_id: str
    node_id: str
    effective_cpu: float
    allocation_cpu: float = 0.0
    hosts_keys: tuple = ()


class CloudletSnapshot(NamedTuple):
    cloudlet_id: str
    engine_kind: str
    members: tuple  # MemberSnapshot, id ascending
    keys: tuple  # KeySnapshot, key ascending
    policy: CloudletPolicy  # replication target, member bounds, watermarks
    utilization: float = 0.0
    arrival_rate_per_ms: float = 0.0
    mean_work_units: float = 1.0
    element_allocation: ResourceVector = DEFAULTS["element_allocation"]


class CloudStateSnapshot(NamedTuple):
    nodes: dict
    cloudlets: dict
    agreements: tuple = ()  # reserved node ids of each active agreement
    reserved_elements: frozenset = frozenset()


# -- candidate generation -------------------------------------------------------


def generate_plans(snapshot: CloudStateSnapshot, policy: AdaptationPolicy) -> list[tuple]:
    """Deterministic candidate enumeration: the no-op plan, per-key
    re-replication (plus a bundled repair plan), membership repair when no
    member can take a copy, watermark-driven scale out (top-3 nodes by free
    headroom), and scale in."""
    plans: list[tuple] = [NOOP_PLAN]
    for cid in sorted(snapshot.cloudlets):
        cloudlet = snapshot.cloudlets[cid]
        if cloudlet.engine_kind == "kv_store":
            plans.extend(_repair_plans(snapshot, cloudlet, policy))
        plans.extend(_watermark_plans(snapshot, cloudlet))
    return plans


def _feasible_nodes(snapshot: CloudStateSnapshot, cloudlet: CloudletSnapshot) -> list[NodeSnapshot]:
    member_nodes = {m.node_id for m in cloudlet.members}
    out = [
        ns
        for ns in snapshot.nodes.values()
        if ns.up
        and ns.node_id not in member_nodes
        and cloudlet.element_allocation.le(ns.available_headroom)
    ]
    out.sort(key=lambda ns: (-ns.available_headroom.cpu, ns.node_id))
    return out


def _repair_plans(snapshot, cloudlet, policy) -> list[tuple]:
    deficient = [
        ks
        for ks in cloudlet.keys
        if len(ks.live_replica_elements) < cloudlet.policy.target_replication
        and len(ks.live_replica_elements) > 0
    ]
    if not deficient:
        return []
    deficient = deficient[:MAX_REREPLICATE_CANDIDATES]
    plans = []
    repair_actions = []
    needs_new_member = False
    for ks in deficient:
        target = _repair_target(cloudlet, ks)
        if target is None:
            needs_new_member = True
            continue
        action = Rereplicate(
            cloudlet.cloudlet_id, ks.key, min(ks.live_replica_elements), target.element_id,
            ks.size,
        )
        plans.append((action,))
        repair_actions.append(action)
    if len(repair_actions) > 1:
        plans.append(tuple(repair_actions[: policy.max_actions_per_epoch]))
    if needs_new_member:
        feasible = _feasible_nodes(snapshot, cloudlet)
        if feasible and len(cloudlet.members) < cloudlet.policy.max_members:
            plans.append((AddElement(
                cloudlet.cloudlet_id, feasible[0].node_id, cloudlet.element_allocation
            ),))
    return plans


def _repair_target(cloudlet, key_snapshot) -> Optional[MemberSnapshot]:
    """A live member not already holding the key, on a node without a replica."""
    holders = set(key_snapshot.live_replica_elements)
    holder_nodes = set(key_snapshot.live_replica_nodes)
    candidates = [
        m
        for m in cloudlet.members
        if m.element_id not in holders and m.node_id not in holder_nodes
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda m: (-m.effective_cpu, m.element_id))


def _watermark_plans(snapshot, cloudlet) -> list[tuple]:
    plans = []
    if (
        cloudlet.utilization > cloudlet.policy.scale_high_watermark
        and len(cloudlet.members) < cloudlet.policy.max_members
    ):
        for ns in _feasible_nodes(snapshot, cloudlet)[:3]:
            plans.append((AddElement(
                cloudlet.cloudlet_id, ns.node_id, cloudlet.element_allocation
            ),))
    if (
        cloudlet.utilization < cloudlet.policy.scale_low_watermark
        and len(cloudlet.members) > cloudlet.policy.min_members
    ):
        victim = _scale_in_victim(snapshot, cloudlet)
        if victim is not None:
            plans.append((RemoveElement(cloudlet.cloudlet_id, victim.element_id),))
    return plans


def _scale_in_victim(snapshot, cloudlet) -> Optional[MemberSnapshot]:
    """Spare member on the most constrained node; never a replica holder or a
    reserved element."""
    eligible = [
        m
        for m in cloudlet.members
        if not m.hosts_keys and m.element_id not in snapshot.reserved_elements
    ]
    if not eligible:
        return None

    def node_free_cpu(m):
        ns = snapshot.nodes.get(m.node_id)
        return ns.available_headroom.cpu if ns else 0.0

    return min(eligible, key=lambda m: (node_free_cpu(m), m.element_id))


# -- evaluation -------------------------------------------------------------------


def evaluate_plan(plan: tuple, snapshot: CloudStateSnapshot, weights: UtilityWeights,
                  key_terms: Optional["_KeyTerms"] = None) -> float:
    """The plan's utility. The plans of one snapshot share its ``key_terms``,
    so the no-op plan's availability terms are rated once."""
    if key_terms is None:
        key_terms = _KeyTerms(snapshot)
    added_node, added_cpu, removed, copy_node, cpu_delta, cost = _effect(plan, snapshot)
    return (
        weights.w_avail * key_terms.availability(added_node, removed, copy_node)
        + weights.w_perf * _predicted_performance(snapshot, added_cpu, removed)
        - weights.w_intr * _predicted_intrusion(snapshot, cpu_delta)
        - weights.w_cost * cost
    )


def _member(snapshot, cloudlet_id: str, element_id: str) -> Optional[MemberSnapshot]:
    members = snapshot.cloudlets[cloudlet_id].members
    return next((m for m in members if m.element_id == element_id), None)


def _effect(plan: tuple, snapshot: CloudStateSnapshot) -> tuple:
    """One pass in plan order: cloudlet -> last added node, cloudlet -> added
    cpu, removed elements, (cloudlet, key) -> node of the last copy target
    (None if no member), node -> allocated cpu delta, and the summed cost.
    Raises InconsistentPlan on an AddElement its node cannot host, or on
    removing an element that a re-replication reads or writes."""
    added_node, added_cpu, copy_node, cpu_delta = {}, {}, {}, {}
    removed, copying = set(), set()
    cost = 0.0
    for a in plan:
        if isinstance(a, AddElement):
            ns = snapshot.nodes.get(a.node_id)
            if ns is None or not ns.up or a.allocation.exceeds_any(ns.available_headroom):
                raise InconsistentPlan(f"AddElement node {a.node_id} is down or lacks headroom")
            added_node[a.cloudlet_id] = a.node_id
            added_cpu[a.cloudlet_id] = added_cpu.get(a.cloudlet_id, 0.0) + a.allocation.cpu
            cpu_delta[a.node_id] = cpu_delta.get(a.node_id, 0.0) + a.allocation.cpu
            cost += ADD_COST
        elif isinstance(a, RemoveElement):
            if a.element_id in copying:
                raise InconsistentPlan(f"plan removes re-replication element {a.element_id}")
            removed.add(a.element_id)
            m = _member(snapshot, a.cloudlet_id, a.element_id)
            if m is not None:
                cpu_delta[m.node_id] = cpu_delta.get(m.node_id, 0.0) - m.allocation_cpu
            cost += REMOVE_COST
        else:
            if a.source_element in removed or a.target_element in removed:
                raise InconsistentPlan(
                    f"plan removes element involved in re-replication of {a.key!r}"
                )
            copying.update((a.source_element, a.target_element))
            target = _member(snapshot, a.cloudlet_id, a.target_element)
            copy_node[(a.cloudlet_id, a.key)] = target.node_id if target else None
            cost += a.size * REREPLICATE_COST_PER_BYTE
    return added_node, added_cpu, removed, copy_node, cpu_delta, cost


class _KeyTerms:
    """Predicted availability over one snapshot: the mean, over kv keys and
    active agreements, of 1 - prod(1 - p) across the replica/reserved nodes
    after a plan.

    The no-op plan's terms are worked out once. A plan changes only the
    terms of keys it touches: a key with a replica in ``removed``, a key it
    re-replicates, and, in a cloudlet it adds a member to, a key under its
    replication target by distinct node. ``availability`` recomputes those
    and sums the whole patched list in key order, so the result has the bits
    of a full walk over every key."""

    def __init__(self, snapshot: CloudStateSnapshot):
        self._nodes = snapshot.nodes
        # many keys share a replica node set (on the benchmark workloads over
        # 95% of lookups hit): rate each distinct set once per snapshot
        self._memo: dict[frozenset, float] = {}
        self._keys = []  # (cloudlet id, replication target, KeySnapshot) per term
        self._index = {}  # (cloudlet id, key) -> term index
        self._held = {}  # element id -> indices of the keys it replicates
        self._under_target = {}  # cloudlet id -> indices of its keys under target
        terms = []
        for cid in sorted(snapshot.cloudlets):
            cloudlet = snapshot.cloudlets[cid]
            if cloudlet.engine_kind != "kv_store":
                continue
            target = cloudlet.policy.target_replication
            under = self._under_target[cid] = []
            for ks in cloudlet.keys:
                i = len(terms)
                self._keys.append((cid, target, ks))
                self._index[(cid, ks.key)] = i
                for eid in ks.live_replica_elements:
                    self._held.setdefault(eid, []).append(i)
                nodes = frozenset(ks.live_replica_nodes)
                if len(nodes) < target:
                    under.append(i)
                terms.append(self._rate(nodes))
        for reserved_nodes in snapshot.agreements:
            terms.append(self._rate(frozenset(reserved_nodes)))
        self._terms = terms
        self._noop = sum(terms) / len(terms) if terms else 1.0

    def _rate(self, nodes: frozenset) -> float:
        p = self._memo.get(nodes)
        if p is None:
            ps = []
            for node_id in sorted(nodes):
                ns = self._nodes.get(node_id)
                ps.append(ns.availability if ns else 0.0)
            p = self._memo[nodes] = availability_of(ps)
        return p

    def availability(self, added_node: dict, removed: set, copy_node: dict) -> float:
        touched = set()
        for eid in removed:
            touched.update(self._held.get(eid, ()))
        for cid_key in copy_node:
            i = self._index.get(cid_key)
            if i is not None:
                touched.add(i)
        for cid in added_node:
            touched.update(self._under_target.get(cid, ()))
        if not touched:
            return self._noop
        terms = self._terms.copy()
        for i in touched:
            cid, target, ks = self._keys[i]
            nodes = {
                node
                for eid, node in zip(ks.live_replica_elements, ks.live_replica_nodes)
                if eid not in removed
            }
            copy_to = copy_node.get((cid, ks.key))
            if copy_to is not None:
                nodes.add(copy_to)
            elif cid in added_node and len(nodes) < target:
                # a freshly added member is the prospective host for the
                # pending re-replication of deficient keys
                nodes.add(added_node[cid])
            terms[i] = self._rate(frozenset(nodes))
        return sum(terms) / len(terms)


def _predicted_performance(snapshot: CloudStateSnapshot, added_cpu: dict,
                           removed: set) -> float:
    """Mean over compute cloudlets of min(1, service_rate / arrival_rate)."""
    terms = []
    for cid in sorted(snapshot.cloudlets):
        cloudlet = snapshot.cloudlets[cid]
        if cloudlet.engine_kind != "compute":
            continue
        eff_cpu = sum(
            m.effective_cpu for m in cloudlet.members if m.element_id not in removed
        )
        eff_cpu += added_cpu.get(cid, 0.0)
        if cloudlet.arrival_rate_per_ms <= 0:
            terms.append(1.0)
            continue
        work = max(cloudlet.mean_work_units, 1e-9)
        service_rate = eff_cpu / 1000.0 / work  # tasks per ms
        terms.append(min(1.0, service_rate / cloudlet.arrival_rate_per_ms))
    if not terms:
        return 1.0
    return sum(terms) / len(terms)


def _predicted_intrusion(snapshot: CloudStateSnapshot, cpu_delta: dict) -> float:
    """Mean over up nodes of allocated/headroom cpu pressure, clamped to [0,1]."""
    ratios = []
    for node_id in sorted(snapshot.nodes):
        ns = snapshot.nodes[node_id]
        if not ns.up:
            continue
        allocated = ns.allocated_cpu + cpu_delta.get(node_id, 0.0)
        if ns.headroom.cpu <= 0:
            ratios.append(1.0 if allocated > 0 else 0.0)
        else:
            ratios.append(min(1.0, max(0.0, allocated / ns.headroom.cpu)))
    if not ratios:
        return 0.0
    return sum(ratios) / len(ratios)


def select_plan(
    snapshot: CloudStateSnapshot, policy: AdaptationPolicy, weights: UtilityWeights
) -> tuple[tuple, float, float]:
    """(plan, its utility, the no-op plan's utility) for the argmax-utility
    plan (ties: fewest actions, then enumeration order); falls back to the
    empty no-op plan unless the winner beats it by epsilon."""
    candidates = generate_plans(snapshot, policy)
    key_terms = _KeyTerms(snapshot)
    noop_utility = evaluate_plan(NOOP_PLAN, snapshot, weights, key_terms)
    best, best_u = NOOP_PLAN, noop_utility
    for plan in candidates:
        if plan is NOOP_PLAN:  # generate_plans lists it first; scored above
            continue
        u = evaluate_plan(plan, snapshot, weights, key_terms)
        if u > best_u or (u == best_u and len(plan) < len(best)):
            best, best_u = plan, u
    if best_u <= noop_utility + policy.epsilon:
        return NOOP_PLAN, noop_utility, noop_utility
    return best, best_u, noop_utility


# -- controller ---------------------------------------------------------------------


class AdaptationController:
    """Epoch-driven executor: build a snapshot, pick a plan, apply it through
    the infrastructure and engine operations with constraints re-checked
    against fresh node state."""

    def __init__(self, simulation, policy: AdaptationPolicy, weights: UtilityWeights):
        self.simulation = simulation
        self.policy = policy
        self.weights = weights
        self.sim = simulation.sim

    def start(self) -> None:
        if self.policy.enabled:
            self._schedule_epoch()

    def _schedule_epoch(self) -> None:
        self.sim.schedule(self._epoch, "adaptation", self.policy.epoch_ms)

    def _epoch(self) -> None:
        snapshot = self.build_snapshot()
        self.adapt_step(snapshot)
        self._schedule_epoch()

    # -- snapshot construction

    def build_snapshot(self) -> CloudStateSnapshot:
        s = self.simulation
        now = self.sim.now
        forecast = s.broker.forecaster.forecast_capacity((now, now + self.policy.epoch_ms))
        nodes = {}
        for node_id in sorted(s.nodes):
            node = s.nodes[node_id]
            infra = s.infras[node_id]
            up = node.is_up()
            headroom = node.headroom() if up else ResourceVector.zero()
            available = infra.available_headroom() if up else ResourceVector.zero()
            p = forecast[node_id].availability
            # records are built positionally: a NamedTuple built by keyword
            # costs about twice as much, once per node, key and member
            nodes[node_id] = NodeSnapshot(
                node_id, up, p, headroom, available, infra.committed().cpu
            )
        reserved = s.broker.reserved_element_ids()
        cloudlets = {}
        for cid in sorted(s.cloudlets):
            cloudlets[cid] = self._cloudlet_snapshot(cid, now)
        agreements = []
        for aid in sorted(s.broker.agreements):
            ag = s.broker.agreements[aid]
            if ag.state == "active":
                agreements.append(tuple(ag.reserved_nodes()))
        return CloudStateSnapshot(
            nodes=nodes,
            cloudlets=cloudlets,
            agreements=tuple(agreements),
            reserved_elements=frozenset(reserved),
        )

    def _cloudlet_snapshot(self, cid: str, now: int) -> CloudletSnapshot:
        s = self.simulation
        runtime = s.cloudlets[cid]
        holders: dict[str, list[str]] = {}
        keys = []
        if runtime.engine_kind == "kv_store":
            for key in sorted(runtime.metadata.replica_map):
                live = [
                    eid
                    for eid in runtime.metadata.replica_map[key]
                    if eid in runtime.view.members
                ]
                for eid in live:
                    holders.setdefault(eid, []).append(key)
                live_nodes = tuple(runtime.elements[eid].node_id for eid in live)
                keys.append(KeySnapshot(
                    key, tuple(live), live_nodes, runtime.metadata.key_sizes.get(key, 0)
                ))
        members = []
        for el in runtime.serving_members():
            members.append(MemberSnapshot(
                el.element_id, el.node_id, el.effective_usage().cpu, el.allocation.cpu,
                tuple(holders.get(el.element_id, ())),
            ))
        utilization = 0.0
        arrival_rate = 0.0
        mean_work = 1.0
        service = s.compute_services.get(cid)
        if service is not None and members:
            window = self.policy.epoch_ms
            busy = sum(
                runtime.elements[m.element_id].engine.busy_ms(max(0, now - window), now)
                for m in members
            )
            utilization = busy / (window * len(members)) if window else 0.0
            arrival_rate = service.arrival_rate_per_ms(window, now)
            if service.submitted:
                mean_work = service.total_work / service.submitted
        return CloudletSnapshot(
            cloudlet_id=cid,
            engine_kind=runtime.engine_kind,
            members=tuple(members),
            keys=tuple(keys),
            policy=runtime.policy,
            utilization=utilization,
            arrival_rate_per_ms=arrival_rate,
            mean_work_units=mean_work,
            element_allocation=s.element_allocations[cid],
        )

    # -- execution

    def adapt_step(self, snapshot: CloudStateSnapshot) -> tuple:
        """Select and execute the best plan for the snapshot. An action whose
        constraints fail at execution is skipped and logged as downgraded;
        the empty no-op plan executes nothing."""
        plan, utility, noop_utility = select_plan(snapshot, self.policy, self.weights)
        executed = []
        for action in plan:
            ok, reason = self._execute_action(action)
            if ok:
                executed.append(action)
            else:
                self.sim.record(
                    "adaptation",
                    {
                        "event": "action_downgraded",
                        "action": describe((action,))[0],
                        "reason": reason,
                    },
                )
        self.sim.record(
            "adaptation",
            {
                "event": "adapt_step",
                "plan": describe(plan),
                "executed": describe(executed) if executed else [],
                "utility": utility,
                "noop_utility": noop_utility,
            },
        )
        return plan

    def _execute_action(self, action) -> tuple[bool, str]:
        s = self.simulation
        if isinstance(action, AddElement):
            node = s.nodes.get(action.node_id)
            if node is None or not node.is_up():
                return False, "node_down"
            infra = s.infras[action.node_id]
            if action.allocation.exceeds_any(infra.available_headroom()):
                return False, "insufficient_headroom"
            s.deploy_element(action.node_id, action.cloudlet_id, action.allocation)
            return True, ""
        if isinstance(action, RemoveElement):
            runtime = s.cloudlets[action.cloudlet_id]
            el = runtime.elements.get(action.element_id)
            if el is None or not el.is_serving():
                return False, "element_not_serving"
            s.infras[el.node_id].destroy_element(action.element_id)
            return True, ""
        if isinstance(action, Rereplicate):
            runtime = s.cloudlets[action.cloudlet_id]
            el = runtime.elements.get(action.target_element)
            if el is None or el.state != RUNNING:
                return False, "target_not_running"
            service = s.kv_services[action.cloudlet_id]
            service.repair_replicas(action.key, action.target_element)
            return True, ""
        return False, "unknown_action"


# -- perfbench recomputes the summary from a log through these names

GoalSpec = metrics.GoalSpec
aggregate_metrics = metrics.aggregate_metrics
