"""Autonomic control loop: each epoch, enumerate speculative plans, score
them with a weighted multi-objective utility, and execute the best one under
hard non-intrusiveness constraints re-checked at execution time.

U = w_avail*A' + w_perf*P' - w_intr*I' - w_cost*C, where A' is the mean
predicted availability over keys and agreements after the plan, P' the
predicted service/arrival ratio capped at 1, I' the mean per-node
allocation-to-headroom pressure, and C the summed action costs (deploy 1,
destroy 0.2, re-replication proportional to bytes). Scaling every weight by
the same positive factor leaves the selected plan unchanged.

Also hosts the pure log aggregation that turns raw events into goal-level
figures; the report is exactly recomputable from the log alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .errors import IncompleteLog, InconsistentPlan
from .infrastructure import DEAD, RUNNING
from .kernel import EventLog
from .qos import Forecaster
from .resources import ResourceVector

ADD_COST = 1.0
REMOVE_COST = 0.2
REREPLICATE_COST_PER_BYTE = 1e-6

DEFAULT_WEIGHTS = (100.0, 10.0, 1.0, 0.1)


@dataclass(frozen=True)
class UtilityWeights:
    w_avail: float = DEFAULT_WEIGHTS[0]
    w_perf: float = DEFAULT_WEIGHTS[1]
    w_intr: float = DEFAULT_WEIGHTS[2]
    w_cost: float = DEFAULT_WEIGHTS[3]

    def problems(self) -> list[str]:
        ws = (self.w_avail, self.w_perf, self.w_intr, self.w_cost)
        out = []
        if any(w < 0 for w in ws):
            out.append("utility weights must be non-negative")
        if all(w == 0 for w in ws):
            out.append("at least one utility weight must be positive")
        return out

    def scaled(self, c: float) -> "UtilityWeights":
        return UtilityWeights(
            self.w_avail * c, self.w_perf * c, self.w_intr * c, self.w_cost * c
        )


# -- plan actions (pure data) -------------------------------------------------


@dataclass(frozen=True)
class AddElement:
    cloudlet_id: str
    node_id: str
    allocation: ResourceVector


@dataclass(frozen=True)
class RemoveElement:
    cloudlet_id: str
    element_id: str


@dataclass(frozen=True)
class Rereplicate:
    cloudlet_id: str
    key: str
    source_element: str
    target_element: str


@dataclass(frozen=True)
class NoOp:
    pass


PlanAction = Union[AddElement, RemoveElement, Rereplicate, NoOp]


@dataclass(frozen=True)
class Plan:
    actions: tuple

    def is_noop(self) -> bool:
        return all(isinstance(a, NoOp) for a in self.actions)

    def describe(self) -> list:
        out = []
        for a in self.actions:
            if isinstance(a, AddElement):
                out.append(["add", a.cloudlet_id, a.node_id])
            elif isinstance(a, RemoveElement):
                out.append(["remove", a.cloudlet_id, a.element_id])
            elif isinstance(a, Rereplicate):
                out.append(["rereplicate", a.cloudlet_id, a.key, a.target_element])
            else:
                out.append(["noop"])
        return out


NOOP_PLAN = Plan(actions=(NoOp(),))


@dataclass(frozen=True)
class AdaptationPolicy:
    epoch_ms: int = 30_000
    max_actions_per_epoch: int = 3
    epsilon: float = 1e-6
    max_rereplicate_candidates: int = 8
    enabled: bool = True

    def problems(self) -> list[str]:
        out = []
        if self.epoch_ms <= 0:
            out.append("adaptation epoch_ms must be > 0")
        if self.max_actions_per_epoch < 1:
            out.append("max_actions_per_epoch must be >= 1")
        return out


# -- snapshot (pure data, constructed by the controller or by tests) -----------


@dataclass(frozen=True)
class NodeSnapshot:
    node_id: str
    up: bool
    availability: float  # forecast p
    headroom: ResourceVector
    available_headroom: ResourceVector
    allocated_cpu: float  # committed element allocations


@dataclass(frozen=True)
class KeySnapshot:
    key: str
    live_replica_elements: tuple
    live_replica_nodes: tuple
    size: int


@dataclass(frozen=True)
class MemberSnapshot:
    element_id: str
    node_id: str
    effective_cpu: float
    allocation_cpu: float = 0.0
    hosts_keys: tuple = ()


@dataclass(frozen=True)
class CloudletSnapshot:
    cloudlet_id: str
    engine_kind: str
    members: tuple  # MemberSnapshot, id ascending
    keys: tuple  # KeySnapshot, key ascending
    target_replication: int = 3
    min_members: int = 1
    max_members: int = 10
    high_watermark: float = 0.8
    low_watermark: float = 0.2
    utilization: float = 0.0
    arrival_rate_per_ms: float = 0.0
    mean_work_units: float = 1.0
    element_allocation: ResourceVector = ResourceVector(1.0, 512, 1024, 5)


@dataclass(frozen=True)
class AgreementSnapshot:
    agreement_id: str
    reserved_nodes: tuple
    reserved_elements: tuple


@dataclass(frozen=True)
class CloudStateSnapshot:
    at: int
    nodes: dict
    cloudlets: dict
    agreements: tuple = ()
    reserved_elements: frozenset = frozenset()


# -- candidate generation -------------------------------------------------------


def generate_plans(snapshot: CloudStateSnapshot, policy: AdaptationPolicy) -> list[Plan]:
    """Deterministic candidate enumeration: NoOp, per-key re-replication (plus
    a bundled repair plan), membership repair when no member can take a copy,
    watermark-driven scale out (top-3 nodes by free headroom), and scale in."""
    plans: list[Plan] = [NOOP_PLAN]
    for cid in sorted(snapshot.cloudlets):
        cloudlet = snapshot.cloudlets[cid]
        if cloudlet.engine_kind == "kv_store":
            plans.extend(_repair_plans(snapshot, cloudlet, policy))
        plans.extend(_watermark_plans(snapshot, cloudlet, policy))
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


def _repair_plans(snapshot, cloudlet, policy) -> list[Plan]:
    deficient = [
        ks
        for ks in cloudlet.keys
        if len(ks.live_replica_elements) < cloudlet.target_replication
        and len(ks.live_replica_elements) > 0
    ]
    if not deficient:
        return []
    deficient = deficient[: policy.max_rereplicate_candidates]
    plans = []
    repair_actions = []
    needs_new_member = False
    for ks in deficient:
        target = _repair_target(cloudlet, ks)
        if target is None:
            needs_new_member = True
            continue
        action = Rereplicate(
            cloudlet_id=cloudlet.cloudlet_id,
            key=ks.key,
            source_element=min(ks.live_replica_elements),
            target_element=target.element_id,
        )
        plans.append(Plan(actions=(action,)))
        repair_actions.append(action)
    if len(repair_actions) > 1:
        bundle = tuple(repair_actions[: policy.max_actions_per_epoch])
        plans.append(Plan(actions=bundle))
    if needs_new_member:
        feasible = _feasible_nodes(snapshot, cloudlet)
        if feasible and len(cloudlet.members) < cloudlet.max_members:
            plans.append(
                Plan(
                    actions=(
                        AddElement(
                            cloudlet_id=cloudlet.cloudlet_id,
                            node_id=feasible[0].node_id,
                            allocation=cloudlet.element_allocation,
                        ),
                    )
                )
            )
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


def _watermark_plans(snapshot, cloudlet, policy) -> list[Plan]:
    plans = []
    if (
        cloudlet.utilization > cloudlet.high_watermark
        and len(cloudlet.members) < cloudlet.max_members
    ):
        for ns in _feasible_nodes(snapshot, cloudlet)[:3]:
            plans.append(
                Plan(
                    actions=(
                        AddElement(
                            cloudlet_id=cloudlet.cloudlet_id,
                            node_id=ns.node_id,
                            allocation=cloudlet.element_allocation,
                        ),
                    )
                )
            )
    if (
        cloudlet.utilization < cloudlet.low_watermark
        and len(cloudlet.members) > cloudlet.min_members
    ):
        victim = _scale_in_victim(snapshot, cloudlet)
        if victim is not None:
            plans.append(
                Plan(
                    actions=(
                        RemoveElement(
                            cloudlet_id=cloudlet.cloudlet_id, element_id=victim.element_id
                        ),
                    )
                )
            )
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


def evaluate_plan(plan: Plan, snapshot: CloudStateSnapshot,
                  weights: UtilityWeights) -> float:
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


def _check_consistent(plan: Plan, snapshot: CloudStateSnapshot) -> None:
    removed = {a.element_id for a in plan.actions if isinstance(a, RemoveElement)}
    for a in plan.actions:
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


def _predicted_availability(plan: Plan, snapshot: CloudStateSnapshot) -> float:
    """Mean, over kv keys and active agreements, of 1 - prod(1 - p) across
    the replica/reserved nodes after the plan."""
    added_node_by_cloudlet: dict[str, str] = {}
    removed_elements = set()
    retargeted: dict[tuple[str, str], str] = {}
    for a in plan.actions:
        if isinstance(a, AddElement):
            added_node_by_cloudlet[a.cloudlet_id] = a.node_id
        elif isinstance(a, RemoveElement):
            removed_elements.add(a.element_id)
        elif isinstance(a, Rereplicate):
            retargeted[(a.cloudlet_id, a.key)] = a.target_element

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
                and len(nodes) < cloudlet.target_replication
            ):
                # a freshly added member is the prospective host for the
                # pending re-replication of deficient keys
                nodes.add(added_node_by_cloudlet[cid])
            terms.append(
                _at_least_one_up(sorted(nodes), snapshot)
            )
    for ag in snapshot.agreements:
        terms.append(_at_least_one_up(sorted(set(ag.reserved_nodes)), snapshot))
    if not terms:
        return 1.0
    return sum(terms) / len(terms)


def _at_least_one_up(node_ids, snapshot) -> float:
    q = 1.0
    for node_id in node_ids:
        q *= 1.0 - _node_availability(snapshot, node_id)
    return 1.0 - q


def _predicted_performance(plan: Plan, snapshot: CloudStateSnapshot) -> float:
    """Mean over compute cloudlets of min(1, service_rate / arrival_rate)."""
    added = {}
    removed = set()
    for a in plan.actions:
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


def _predicted_intrusion(plan: Plan, snapshot: CloudStateSnapshot) -> float:
    """Mean over up nodes of allocated/headroom cpu pressure, clamped to [0,1]."""
    delta: dict[str, float] = {}
    element_alloc: dict[str, tuple[str, float]] = {}
    for cid, cloudlet in snapshot.cloudlets.items():
        for m in cloudlet.members:
            element_alloc[m.element_id] = (m.node_id, m.allocation_cpu)
    for a in plan.actions:
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


def _plan_cost(plan: Plan, snapshot: CloudStateSnapshot) -> float:
    sizes = {}
    for cid, cloudlet in snapshot.cloudlets.items():
        for ks in cloudlet.keys:
            sizes[(cid, ks.key)] = ks.size
    cost = 0.0
    for a in plan.actions:
        if isinstance(a, AddElement):
            cost += ADD_COST
        elif isinstance(a, RemoveElement):
            cost += REMOVE_COST
        elif isinstance(a, Rereplicate):
            cost += sizes.get((a.cloudlet_id, a.key), 0) * REREPLICATE_COST_PER_BYTE
    return cost


def select_plan(
    snapshot: CloudStateSnapshot, policy: AdaptationPolicy, weights: UtilityWeights
) -> tuple[Plan, float, float]:
    """Argmax-utility plan (ties: fewest actions, then enumeration order);
    falls back to NoOp unless the winner beats NoOp by epsilon."""
    candidates = generate_plans(snapshot, policy)
    noop_utility = evaluate_plan(NOOP_PLAN, snapshot, weights)
    best, best_u = NOOP_PLAN, noop_utility
    for plan in candidates:
        u = evaluate_plan(plan, snapshot, weights)
        if u > best_u or (u == best_u and len(plan.actions) < len(best.actions)):
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
        forecaster = s.broker.forecaster if s.broker else None
        if forecaster is not None:
            forecast = forecaster.forecast_capacity((now, now + self.policy.epoch_ms))
        nodes = {}
        for node_id in sorted(s.nodes):
            node = s.nodes[node_id]
            infra = s.infras[node_id]
            up = node.is_up()
            headroom = node.headroom() if up else ResourceVector.zero()
            available = infra.available_headroom() if up else ResourceVector.zero()
            allocated = sum(
                el.allocation.cpu
                for el in infra.elements.values()
                if el.state != DEAD
            )
            if forecaster is not None:
                p = forecast.per_node[node_id].availability
            else:
                p = Forecaster._oracle_availability(node)
            nodes[node_id] = NodeSnapshot(
                node_id=node_id,
                up=up,
                availability=p,
                headroom=headroom,
                available_headroom=available,
                allocated_cpu=allocated,
            )
        reserved = s.broker.reserved_element_ids() if s.broker else set()
        cloudlets = {}
        for cid in sorted(s.cloudlets):
            cloudlets[cid] = self._cloudlet_snapshot(cid, now)
        agreements = []
        if s.broker:
            for aid in sorted(s.broker.agreements):
                ag = s.broker.agreements[aid]
                if ag.state == "active":
                    agreements.append(
                        AgreementSnapshot(
                            agreement_id=aid,
                            reserved_nodes=tuple(ag.reserved_nodes()),
                            reserved_elements=tuple(ag.reserved_elements()),
                        )
                    )
        return CloudStateSnapshot(
            at=now,
            nodes=nodes,
            cloudlets=cloudlets,
            agreements=tuple(agreements),
            reserved_elements=frozenset(reserved),
        )

    def _cloudlet_snapshot(self, cid: str, now: int) -> CloudletSnapshot:
        s = self.simulation
        runtime = s.cloudlets[cid]
        policy = runtime.policy
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
                keys.append(
                    KeySnapshot(
                        key=key,
                        live_replica_elements=tuple(live),
                        live_replica_nodes=tuple(
                            runtime.elements[eid].node_id for eid in live
                        ),
                        size=runtime.metadata.key_sizes.get(key, 0),
                    )
                )
        members = []
        for el in runtime.serving_members():
            members.append(
                MemberSnapshot(
                    element_id=el.element_id,
                    node_id=el.node_id,
                    effective_cpu=el.effective_usage().cpu,
                    allocation_cpu=el.allocation.cpu,
                    hosts_keys=tuple(holders.get(el.element_id, ())),
                )
            )
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
        alloc = s.element_allocations.get(cid, CloudletSnapshot.element_allocation)
        return CloudletSnapshot(
            cloudlet_id=cid,
            engine_kind=runtime.engine_kind,
            members=tuple(members),
            keys=tuple(keys),
            target_replication=policy.target_replication,
            min_members=policy.min_members,
            max_members=policy.max_members,
            high_watermark=policy.scale_high_watermark,
            low_watermark=policy.scale_low_watermark,
            utilization=utilization,
            arrival_rate_per_ms=arrival_rate,
            mean_work_units=mean_work,
            element_allocation=alloc,
        )

    # -- execution

    def adapt_step(self, snapshot: CloudStateSnapshot) -> Plan:
        """Select and execute the best plan for the snapshot; constraint
        failures downgrade individual actions to NoOp."""
        plan, utility, noop_utility = select_plan(snapshot, self.policy, self.weights)
        executed = []
        for action in plan.actions:
            if isinstance(action, NoOp):
                continue
            ok, reason = self._execute_action(action)
            if ok:
                executed.append(action)
            else:
                self.sim.record(
                    "adaptation",
                    {
                        "event": "action_downgraded",
                        "action": Plan(actions=(action,)).describe()[0],
                        "reason": reason,
                    },
                )
        self.sim.record(
            "adaptation",
            {
                "event": "adapt_step",
                "plan": plan.describe(),
                "executed": Plan(actions=tuple(executed)).describe() if executed else [],
                "utility": utility,
                "noop_utility": noop_utility,
            },
        )
        return plan

    def _execute_action(self, action: PlanAction) -> tuple[bool, str]:
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


# -- goal-level aggregation from the raw event log ------------------------------------


@dataclass(frozen=True)
class GoalSpec:
    window: tuple[int, int]


def _fraction(num: int, den: int) -> dict:
    return {"num": num, "den": den, "value": (num / den) if den else 0.0}


def nearest_rank(sorted_values: list, q: float):
    if not sorted_values:
        return None
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


def aggregate_metrics(log: EventLog, goal: GoalSpec) -> dict:
    """Recompute goal-level figures purely from the event log.

    Raises IncompleteLog when the queried window extends past the logged run
    end. All time fractions are exact integer ratios.
    """
    start, end = goal.window
    run_end = None
    for entry in log:
        if entry.record.get("event") == "run_end":
            run_end = entry.t
    if run_end is None or end > run_end:
        raise IncompleteLog(
            f"window [{start},{end}) not covered by the log (run_end={run_end})"
        )

    window_ms = end - start
    node_up_since: dict[str, int] = {}
    node_up_ms: dict[str, int] = {}
    serving: dict[str, set] = {}  # cloudlet -> serving element ids
    serving_since: dict[str, int] = {}
    cloudlet_live_ms: dict[str, int] = {}
    element_serving: dict[str, bool] = {}
    element_intervals: dict[str, list] = {}
    element_open: dict[str, int] = {}
    violation_since: dict[str, int] = {}
    violation_ms: dict[str, int] = {}
    node_ids: set = set()
    latencies: dict[str, list] = {}
    tasks: dict[str, dict] = {}
    agreements: dict[str, dict] = {}
    action_counts: dict[str, int] = {}
    downgrades = 0

    def clip(a: int, b: int) -> int:
        return max(0, min(b, end) - max(a, start))

    for entry in log:
        rec = entry.record
        event = rec.get("event")
        t = entry.t
        if event == "cloudlet_defined":
            cloudlet_live_ms.setdefault(rec["cloudlet"], 0)
        elif event == "element_state":
            eid = rec["element"]
            cid = rec["cloudlet"]
            now_serving = rec["serving"]
            was_serving = element_serving.get(eid, False)
            if now_serving and not was_serving:
                element_open[eid] = t
                group = serving.setdefault(cid, set())
                if not group:
                    serving_since[cid] = t
                group.add(eid)
            elif was_serving and not now_serving:
                element_intervals.setdefault(eid, []).append((element_open.pop(eid), t))
                group = serving.setdefault(cid, set())
                group.discard(eid)
                if not group and cid in serving_since:
                    cloudlet_live_ms[cid] = cloudlet_live_ms.get(cid, 0) + clip(
                        serving_since.pop(cid), t
                    )
            element_serving[eid] = now_serving
            cloudlet_live_ms.setdefault(cid, 0)
        elif event == "violation_start":
            violation_since[rec["node"]] = t
            node_ids.add(rec["node"])
        elif event == "violation_end":
            node = rec["node"]
            node_ids.add(node)
            if node in violation_since:
                violation_ms[node] = violation_ms.get(node, 0) + clip(
                    violation_since.pop(node), t
                )
        elif event == "node_defined":
            node_ids.add(rec["node"])
            node_up_since[rec["node"]] = t  # nodes start up
            node_up_ms.setdefault(rec["node"], 0)
        elif event == "node_up":
            node_ids.add(rec["node"])
            node_up_since.setdefault(rec["node"], t)
        elif event == "node_down":
            node = rec["node"]
            node_ids.add(node)
            since = node_up_since.pop(node, None)
            if since is not None:
                node_up_ms[node] = node_up_ms.get(node, 0) + clip(since, t)
        elif event == "task_completed":
            cid = entry.component.split(":", 1)[1]
            if start <= t < end:
                latencies.setdefault(cid, []).append(rec["latency_ms"])
            tasks.setdefault(cid, {"completed": 0, "lost": 0, "submitted": 0})
            tasks[cid]["completed"] += 1
        elif event == "task_lost":
            cid = entry.component.split(":", 1)[1]
            tasks.setdefault(cid, {"completed": 0, "lost": 0, "submitted": 0})
            tasks[cid]["lost"] += 1
        elif event == "task_submitted":
            cid = entry.component.split(":", 1)[1]
            tasks.setdefault(cid, {"completed": 0, "lost": 0, "submitted": 0})
            tasks[cid]["submitted"] += 1
        elif event == "agreement_admitted":
            agreements[rec["agreement"]] = {
                "window": tuple(rec["window"]),
                "elements": set(),
            }
        elif event == "agreement_element":
            if rec["agreement"] in agreements:
                agreements[rec["agreement"]]["elements"].add(rec["element"])
        elif event == "adapt_step":
            for desc in rec["executed"]:
                action_counts[desc[0]] = action_counts.get(desc[0], 0) + 1
        elif event == "action_downgraded":
            downgrades += 1

    # close intervals still open at run end
    for cid, since in serving_since.items():
        cloudlet_live_ms[cid] = cloudlet_live_ms.get(cid, 0) + clip(since, run_end)
    for eid, since in element_open.items():
        element_intervals.setdefault(eid, []).append((since, run_end))
    for node, since in violation_since.items():
        violation_ms[node] = violation_ms.get(node, 0) + clip(since, run_end)
    for node, since in node_up_since.items():
        node_up_ms[node] = node_up_ms.get(node, 0) + clip(since, run_end)

    availability = {
        cid: _fraction(live, window_ms)
        for cid, live in sorted(cloudlet_live_ms.items())
    }
    intrusiveness = {
        node: _fraction(violation_ms.get(node, 0), window_ms)
        for node in sorted(node_ids)
    }

    satisfaction = {}
    for aid in sorted(agreements):
        info = agreements[aid]
        a_start, a_end = info["window"]
        a_start, a_end = max(a_start, start), min(a_end, end)
        if a_end <= a_start:
            continue
        covered = _union_covered(
            [
                iv
                for eid in sorted(info["elements"])
                for iv in element_intervals.get(eid, [])
            ],
            a_start,
            a_end,
        )
        satisfaction[aid] = _fraction(covered, a_end - a_start)

    task_latency = {}
    for cid in sorted(latencies):
        values = sorted(latencies[cid])
        task_latency[cid] = {
            "count": len(values),
            "p50": nearest_rank(values, 0.50),
            "p95": nearest_rank(values, 0.95),
            "p99": nearest_rank(values, 0.99),
        }

    return {
        "window": [start, end],
        "cloudlet_availability": availability,
        "agreement_satisfaction": satisfaction,
        "intrusiveness": intrusiveness,
        "node_uptime": {
            node: _fraction(node_up_ms.get(node, 0), window_ms)
            for node in sorted(node_ids)
        },
        "task_latency": task_latency,
        "task_counts": {cid: dict(v) for cid, v in sorted(tasks.items())},
        "adaptation_actions": dict(sorted(action_counts.items())),
        "action_downgrades": downgrades,
    }


def _union_covered(intervals: list, start: int, end: int) -> int:
    """Total length of [start,end) covered by the union of the intervals."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    covered = 0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        covered += b - max(a, cursor)
        cursor = max(cursor, b)
    return covered
