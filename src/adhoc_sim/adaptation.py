"""Autonomic control loop, one per cloudlet (Kephart & Chess, "The Vision of
Autonomic Computing", IEEE Computer 2003). Each epoch the controller builds
one snapshot of the cloud. Then each cloudlet, in id order, plans over its
own part of that snapshot and executes its plan at once, with every
constraint re-checked against fresh node state. A plan is a tuple of
actions; the empty plan changes nothing.

A kv cloudlet keeps its replication by rule. Every key with some, but fewer
than ``target_replication``, live replicas gets one ``Rereplicate`` onto a
serving member that holds no replica of it and shares no node with one,
where such a member exists. When some deficient key has no such member and
the cloudlet is below ``max_members``, the plan then adds one
``AddElement`` on the non-member node with the most free cpu, so the next
epoch can repair that key. Rule actions are neither capped nor scored.

Scaling is scored. A cloudlet takes at most one scaling action after its
rule actions: an ``AddElement`` on one of the three non-member nodes with
the most free cpu (when utilisation is above the high watermark, which only
compute cloudlets cross), or a ``RemoveElement`` of a spare member (when
utilisation is below the low watermark). Each candidate is scored, in the
cloudlet's own terms, by

U = w_perf*P' - w_intr*I' - w_cost*C,

where P' is the cloudlet's predicted service/arrival ratio capped at 1 (1.0
for kv), I' the mean per-node allocation-to-headroom cpu pressure over up
nodes, and C the action's cost (add 1, remove 0.2). The rule actions alone
are rated as the cloudlet stands; a candidate is taken only if it beats
them by ``epsilon``. Scaling every weight by the same positive factor leaves
the choice unchanged. The snapshot is not updated between cloudlets, so an
add whose node's headroom a cloudlet earlier in the order took is
downgraded at execution, and logged.

``GoalSpec`` and ``aggregate_metrics``, the log aggregation of metrics.py,
stay importable from here.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import metrics
from .defaults import DEFAULTS
from .membership import CloudletPolicy
from .resources import ResourceVector

ADD_COST = 1.0
REMOVE_COST = 0.2


class UtilityWeights(NamedTuple):
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
    target_element: str


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
    epsilon: float = DEFAULTS["epsilon"]
    enabled: bool = DEFAULTS["adaptation_enabled"]


# -- snapshot (pure data, constructed by the controller or by tests) -----------


class NodeSnapshot(NamedTuple):
    node_id: str
    up: bool
    headroom: ResourceVector
    available_headroom: ResourceVector
    allocated_cpu: float  # committed element allocations


class KeySnapshot(NamedTuple):
    key: str
    live_replica_elements: tuple
    live_replica_nodes: tuple


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
    reserved_elements: frozenset = frozenset()


# -- candidate generation -------------------------------------------------------


def generate_plans(snapshot: CloudStateSnapshot, cloudlet: CloudletSnapshot) -> list[tuple]:
    """The cloudlet's candidate plans, in order: its rule actions alone (the
    repairs, then an add when some deficient key has no repair target), then
    the rule actions followed by each scaling action (adds on the top-3
    nodes by free headroom, then scale in)."""
    repairs, waiting = _repairs(cloudlet)
    policy = cloudlet.policy
    rule, scaling = repairs, []
    if (
        (waiting or cloudlet.utilization > policy.scale_high_watermark)
        and len(cloudlet.members) < policy.max_members
    ):
        adds = [
            AddElement(cloudlet.cloudlet_id, ns.node_id, cloudlet.element_allocation)
            for ns in _feasible_nodes(snapshot, cloudlet)[:3]
        ]
        if waiting:
            rule += tuple(adds[:1])
        else:
            scaling = adds
    if (
        cloudlet.utilization < policy.scale_low_watermark
        and len(cloudlet.members) > policy.min_members
    ):
        targets = {a.target_element for a in repairs}
        victim = _scale_in_victim(snapshot, cloudlet, targets)
        if victim is not None:
            scaling.append(RemoveElement(cloudlet.cloudlet_id, victim.element_id))
    return [rule] + [rule + (a,) for a in scaling]


def _repairs(cloudlet: CloudletSnapshot) -> tuple[tuple, bool]:
    """One Rereplicate per deficient key that has a repair target, key
    order; and whether some deficient key has none."""
    repairs, waiting = [], False
    for ks in cloudlet.keys:
        if 0 < len(ks.live_replica_elements) < cloudlet.policy.target_replication:
            target = _repair_target(cloudlet, ks)
            if target is None:
                waiting = True
            else:
                repairs.append(Rereplicate(cloudlet.cloudlet_id, ks.key, target.element_id))
    return tuple(repairs), waiting


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


def _feasible_nodes(snapshot: CloudStateSnapshot, cloudlet: CloudletSnapshot) -> list[NodeSnapshot]:
    """Up non-member nodes with room for an element: most free cpu first,
    node id ascending."""
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


def _scale_in_victim(snapshot, cloudlet, repair_targets) -> Optional[MemberSnapshot]:
    """Spare member on the most constrained node; never a replica holder, a
    repair target or a reserved element."""
    eligible = [
        m
        for m in cloudlet.members
        if not m.hosts_keys
        and m.element_id not in repair_targets
        and m.element_id not in snapshot.reserved_elements
    ]
    if not eligible:
        return None

    def node_free_cpu(m):
        ns = snapshot.nodes.get(m.node_id)
        return ns.available_headroom.cpu if ns else 0.0

    return min(eligible, key=lambda m: (node_free_cpu(m), m.element_id))


# -- evaluation -------------------------------------------------------------------


def _pressure(ns: NodeSnapshot, cpu_delta: float = 0.0) -> float:
    """A node's allocated/headroom cpu pressure, clamped to [0, 1]."""
    allocated = ns.allocated_cpu + cpu_delta
    if ns.headroom.cpu <= 0:
        return 1.0 if allocated > 0 else 0.0
    return min(1.0, max(0.0, allocated / ns.headroom.cpu))


def node_pressure(snapshot: CloudStateSnapshot) -> tuple[float, int]:
    """The summed pressure over up nodes before any action, and their count."""
    up = [ns for ns in snapshot.nodes.values() if ns.up]
    return sum(_pressure(ns) for ns in up), len(up)


def _performance(cloudlet: CloudletSnapshot, eff_cpu: float) -> float:
    """min(1, service_rate / arrival_rate) of a compute cloudlet; 1.0 for kv
    and for a cloudlet with no arrivals."""
    if cloudlet.engine_kind != "compute" or cloudlet.arrival_rate_per_ms <= 0:
        return 1.0
    work = max(cloudlet.mean_work_units, 1e-9)
    service_rate = eff_cpu / 1000.0 / work  # tasks per ms
    return min(1.0, service_rate / cloudlet.arrival_rate_per_ms)


def evaluate_plans(
    snapshot: CloudStateSnapshot,
    cloudlet: CloudletSnapshot,
    weights: UtilityWeights,
) -> list[tuple[tuple, float]]:
    """Each candidate of ``generate_plans`` with its utility, in order; the
    rule actions alone come first, rated as the cloudlet stands, and every
    other candidate is rated by its last action, the scaling one."""
    plans = generate_plans(snapshot, cloudlet)
    total_pressure, up_nodes = node_pressure(snapshot)
    members = {m.element_id: m for m in cloudlet.members}
    eff_cpu = sum(m.effective_cpu for m in cloudlet.members)

    def utility(action) -> float:
        cpu, intrusion, cost = eff_cpu, total_pressure, 0.0
        if isinstance(action, AddElement):
            cpu += action.allocation.cpu
            ns = snapshot.nodes[action.node_id]
            intrusion += _pressure(ns, action.allocation.cpu) - _pressure(ns)
            cost = ADD_COST
        elif isinstance(action, RemoveElement):
            m = members[action.element_id]
            cpu -= m.effective_cpu
            ns = snapshot.nodes.get(m.node_id)
            if ns is not None and ns.up:
                intrusion += _pressure(ns, -m.allocation_cpu) - _pressure(ns)
            cost = REMOVE_COST
        return (
            weights.w_perf * _performance(cloudlet, cpu)
            - weights.w_intr * (intrusion / up_nodes if up_nodes else 0.0)
            - weights.w_cost * cost
        )

    return [(plans[0], utility(None))] + [(plan, utility(plan[-1])) for plan in plans[1:]]


def select_plan(
    snapshot: CloudStateSnapshot,
    cloudlet: CloudletSnapshot,
    weights: UtilityWeights,
    epsilon: float,
) -> tuple[tuple, float, float]:
    """(plan, its utility, the rule actions' utility) for one cloudlet: the
    candidate with the highest utility, the first one on ties, unless it
    fails to beat the rule actions alone by epsilon."""
    scored = evaluate_plans(snapshot, cloudlet, weights)
    rule, noop_utility = scored[0]
    best, best_u = max(scored, key=lambda pair: pair[1])  # the first of equals
    if best_u <= noop_utility + epsilon:
        return rule, noop_utility, noop_utility
    return best, best_u, noop_utility


# -- controller ---------------------------------------------------------------------


class AdaptationController:
    """Epoch-driven executor: build a snapshot, then let each cloudlet pick
    and apply its plan through the infrastructure and engine operations,
    with constraints re-checked against fresh node state."""

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
        nodes = {}
        for node_id in sorted(s.nodes):
            node = s.nodes[node_id]
            infra = s.infras[node_id]
            up = node.is_up()
            headroom = node.headroom() if up else ResourceVector.zero()
            available = infra.available_headroom() if up else ResourceVector.zero()
            # records are built positionally: a NamedTuple built by keyword
            # costs about twice as much, once per node, key and member
            nodes[node_id] = NodeSnapshot(
                node_id, up, headroom, available, infra.committed().cpu
            )
        cloudlets = {}
        for cid in sorted(s.cloudlets):
            cloudlets[cid] = self._cloudlet_snapshot(cid, now)
        return CloudStateSnapshot(
            nodes=nodes,
            cloudlets=cloudlets,
            reserved_elements=frozenset(s.broker.reserved_element_ids()),
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
                keys.append(KeySnapshot(key, tuple(live), live_nodes))
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

    def adapt_step(self, snapshot: CloudStateSnapshot) -> dict:
        """Each cloudlet, in id order, selects its plan over the snapshot and
        executes it before the next one plans. An action whose constraints
        fail at execution is skipped and logged as downgraded. Returns
        cloudlet id -> its plan."""
        plans = {}
        for cid in sorted(snapshot.cloudlets):
            plan, utility, noop_utility = select_plan(
                snapshot, snapshot.cloudlets[cid], self.weights, self.policy.epsilon
            )
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
                    "cloudlet": cid,
                    "plan": describe(plan),
                    "executed": describe(executed) if executed else [],
                    "utility": utility,
                    "noop_utility": noop_utility,
                },
            )
            plans[cid] = plan
        return plans

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
            if el is None or not el.is_serving():
                return False, "target_not_serving"
            service = s.kv_services[action.cloudlet_id]
            service.repair_replicas(action.key, action.target_element)
            return True, ""
        return False, "unknown_action"


# -- perfbench recomputes the summary from a log through these names

GoalSpec = metrics.GoalSpec
aggregate_metrics = metrics.aggregate_metrics
