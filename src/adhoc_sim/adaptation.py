"""Autonomic control loop, one per cloudlet (Kephart & Chess, "The Vision of
Autonomic Computing", IEEE Computer 2003). Each epoch the controller builds
one snapshot of the cloud. Then each cloudlet, in id order, plans over its
own part of that snapshot by rule and executes its plan at once, with every
constraint re-checked against fresh node state. A plan is a tuple of
actions; the empty plan changes nothing. Nothing is scored.

A kv cloudlet keeps its replication. Every key with some, but fewer than
``target_replication``, live replicas gets one ``Rereplicate`` onto a
serving member that holds no replica of it and shares no node with one,
where such a member exists. When some deficient key has no such member and
the cloudlet is below ``max_members``, the plan then adds one
``AddElement`` on the non-member node with the most free cpu, so the next
epoch can repair that key. A kv cloudlet never scales in: nothing measures
its load.

A compute cloudlet scales on U, the busy fraction of its members over the
last epoch, and on the offered load rho = arrival rate x mean work / the
members' summed effective cpu. It adds one member, on the non-member node
with the most free cpu, when U is above ``scale_high_watermark``, rho is
above 1 (the members cannot serve the arrivals) and it is below
``max_members``. It removes a spare when U is below
``scale_low_watermark``, it is above ``min_members``, and the members left
would still hold rho under the high watermark with the largest of them
lost as well; with no arrivals that always holds. The spare is the
unreserved member on the node with the least free cpu.

The snapshot is not updated between cloudlets, so an add whose node's
headroom a cloudlet earlier in the order took is downgraded at execution,
and logged.

``GoalSpec`` and ``aggregate_metrics``, the log aggregation of metrics.py,
stay importable from here.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from . import metrics
from .defaults import DEFAULTS
from .membership import CloudletPolicy
from .resources import ResourceVector

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
    enabled: bool = DEFAULTS["adaptation_enabled"]


# -- snapshot (pure data, constructed by the controller or by tests) -----------


class NodeSnapshot(NamedTuple):
    node_id: str
    up: bool
    available_headroom: ResourceVector


class KeySnapshot(NamedTuple):
    key: str
    live_replica_elements: tuple
    live_replica_nodes: tuple


class MemberSnapshot(NamedTuple):
    element_id: str
    node_id: str
    effective_cpu: float


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


# -- planning -------------------------------------------------------------------


def generate_plans(snapshot: CloudStateSnapshot, cloudlet: CloudletSnapshot) -> list[tuple]:
    """The cloudlet's one plan, alone in a list: its repairs, then at most
    one membership change. That is an add when some deficient key has no
    repair target or the compute members are overloaded, else the removal
    of a spare when they are underloaded and can lose it."""
    plan, waiting = _repairs(cloudlet)
    policy = cloudlet.policy
    compute = cloudlet.engine_kind == "compute"
    cpu = sum(m.effective_cpu for m in cloudlet.members)
    if waiting or (
        compute
        and cloudlet.utilization > policy.scale_high_watermark
        and _offered_load(cloudlet, cpu) > 1.0
    ):
        if len(cloudlet.members) < policy.max_members:
            plan += tuple(
                AddElement(cloudlet.cloudlet_id, ns.node_id, cloudlet.element_allocation)
                for ns in _feasible_nodes(snapshot, cloudlet)[:1]
            )
    elif (
        compute
        and cloudlet.utilization < policy.scale_low_watermark
        and len(cloudlet.members) > policy.min_members
    ):
        victim = _scale_in_victim(snapshot, cloudlet)
        if victim is not None:
            # the members left, less the largest of them
            left = sorted(m.effective_cpu for m in cloudlet.members if m is not victim)[:-1]
            if _offered_load(cloudlet, sum(left)) < policy.scale_high_watermark:
                plan += (RemoveElement(cloudlet.cloudlet_id, victim.element_id),)
    return [plan]


def _offered_load(cloudlet: CloudletSnapshot, cpu: float) -> float:
    """rho: the cpu the arrivals ask for over ``cpu``; 0.0 with no arrivals."""
    demand = cloudlet.arrival_rate_per_ms * 1000.0 * cloudlet.mean_work_units
    if demand <= 0:
        return 0.0
    return demand / cpu if cpu > 0 else math.inf


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


def _scale_in_victim(snapshot, cloudlet) -> Optional[MemberSnapshot]:
    """The unreserved member on the most constrained node."""
    eligible = [m for m in cloudlet.members if m.element_id not in snapshot.reserved_elements]
    if not eligible:
        return None

    def node_free_cpu(m):
        ns = snapshot.nodes.get(m.node_id)
        return ns.available_headroom.cpu if ns else 0.0

    return min(eligible, key=lambda m: (node_free_cpu(m), m.element_id))


def select_plan(snapshot: CloudStateSnapshot, cloudlet: CloudletSnapshot) -> tuple:
    """The one cloudlet's plan."""
    return generate_plans(snapshot, cloudlet)[0]


# -- controller ---------------------------------------------------------------------


class AdaptationController:
    """Epoch-driven executor: build a snapshot, then let each cloudlet plan
    and apply its plan through the infrastructure and engine operations,
    with constraints re-checked against fresh node state."""

    def __init__(self, simulation, policy: AdaptationPolicy):
        self.simulation = simulation
        self.policy = policy
        self.sim = simulation.sim
        self._nodes: dict[str, NodeSnapshot] = {}  # kept between epochs, node id order

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
        """The cloud as the loop plans over it. Its node snapshots are the
        ones ``node_snapshots`` keeps; each cloudlet's part is built anew."""
        s = self.simulation
        now = self.sim.now
        cloudlets = {}
        for cid in sorted(s.cloudlets):
            cloudlets[cid] = self._cloudlet_snapshot(cid, now)
        return CloudStateSnapshot(
            nodes=self.node_snapshots(),
            cloudlets=cloudlets,
            reserved_elements=frozenset(s.broker.reserved_element_ids()),
        )

    def node_snapshots(self) -> dict:
        """node id -> its NodeSnapshot, node id order. One snapshot per node
        is kept between calls, and a call rebuilds only the nodes whose
        liveness, user demand or committed allocations changed since the
        last one (``Simulation.changed_nodes``); the rest is one dict copy."""
        s = self.simulation
        kept, changed = self._nodes, s.changed_nodes
        if len(kept) != len(s.nodes):  # the first call, or a node added since
            kept = changed = self._nodes = dict.fromkeys(sorted(s.nodes))
        for node_id in changed:
            up = s.nodes[node_id].is_up()
            available = s.infras[node_id].available_headroom() if up else ResourceVector.zero()
            # records are built positionally: a NamedTuple built by keyword
            # costs about twice as much, once per node, key and member
            kept[node_id] = NodeSnapshot(node_id, up, available)
        s.changed_nodes.clear()
        return dict(kept)

    def _cloudlet_snapshot(self, cid: str, now: int) -> CloudletSnapshot:
        s = self.simulation
        runtime = s.cloudlets[cid]
        keys = []
        if runtime.engine_kind == "kv_store":
            for key in sorted(runtime.metadata.replica_map):
                live = [
                    eid
                    for eid in runtime.metadata.replica_map[key]
                    if eid in runtime.view.members
                ]
                live_nodes = tuple(runtime.elements[eid].node_id for eid in live)
                keys.append(KeySnapshot(key, tuple(live), live_nodes))
        members = [
            MemberSnapshot(el.element_id, el.node_id, el.effective_usage().cpu)
            for el in runtime.serving_members()
        ]
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
        """Each cloudlet, in id order, plans over the snapshot and executes
        its plan before the next one plans. An action whose constraints
        fail at execution is skipped and logged as downgraded. Returns
        cloudlet id -> its plan."""
        plans = {}
        for cid in sorted(snapshot.cloudlets):
            plan = select_plan(snapshot, snapshot.cloudlets[cid])
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
