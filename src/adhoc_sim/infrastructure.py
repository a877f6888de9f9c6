"""Per-node cloud infrastructure: element lifecycle and non-intrusiveness.

The element manager creates and destroys cloud elements; the node manager
watches the balance between harvested allocations and the primary user's
demand. When allocations exceed headroom for longer than the grace period it
first throttles element cpu (cheap, reversible), then evicts, largest first.
Only cpu can be reclaimed fractionally; memory/storage/network violations go
straight to eviction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import InsufficientHeadroom, NodeDown, UnknownElement
from .kernel import Simulator
from .nodes import Node
from .resources import ResourceVector

DEPLOYING = "deploying"
RUNNING = "running"
THROTTLED = "throttled"
EVICTING = "evicting"
DEAD = "dead"

SERVING_STATES = (RUNNING, THROTTLED)
ACTIVE_STATES = (DEPLOYING, RUNNING, THROTTLED)  # usage counts toward the node

DEFAULT_DEPLOY_MS = 2000
DEFAULT_SHUTDOWN_MS = 500

_EPS = 1e-9


class Ids:
    """Monotone id allocator shared by one simulation instance."""

    def __init__(self):
        self._counters: dict[str, int] = {}

    def next(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = n
        return f"{prefix}{n:04d}"


@dataclass
class CloudElement:
    element_id: str
    node_id: str
    cloudlet_id: str
    engine_kind: str
    allocation: ResourceVector
    state: str = DEPLOYING
    throttle_factor: float = 1.0
    evict_requested: bool = False
    engine: object = None  # attached by the engine layer

    def is_serving(self) -> bool:
        return self.state in SERVING_STATES

    def effective_usage(self) -> ResourceVector:
        """Resources the element currently consumes; throttling scales cpu,
        evicting/dead elements consume nothing."""
        if self.state == THROTTLED:
            a = self.allocation
            return ResourceVector(a.cpu * self.throttle_factor, a.memory, a.storage, a.network)
        if self.state in (DEPLOYING, RUNNING):
            return self.allocation
        return ResourceVector.zero()


@dataclass(frozen=True)
class IntrusivenessPolicy:
    grace_ms: int = 1000
    throttle_first: bool = True
    max_violation_fraction: float = 0.01
    throttle_floor: float = 0.1  # lowest cpu fraction a throttle may impose
    enforce: bool = True


@dataclass(frozen=True)
class NodeReport:
    node_id: str
    at: int
    headroom: ResourceVector
    user_demand: ResourceVector
    per_element_usage: dict
    per_element_allocation: dict
    violation_flag: bool


class NodeInfrastructure:
    """Element manager plus node modeller/manager for one node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        ids: Ids,
        policy: IntrusivenessPolicy = IntrusivenessPolicy(),
        deploy_ms: int = DEFAULT_DEPLOY_MS,
        shutdown_ms: int = DEFAULT_SHUTDOWN_MS,
    ):
        self.sim = sim
        self.node = node
        self.ids = ids
        self.policy = policy
        self.deploy_ms = deploy_ms
        self.shutdown_ms = shutdown_ms
        self.elements: dict[str, CloudElement] = {}
        # listeners receive (element, old_state, new_state, reason)
        self.on_element_transition: list[Callable] = []
        self.violating = False
        self.violation_history: list[tuple[int, bool]] = [(sim.now, False)]
        self._grace_handle = None
        self._pending: dict[str, object] = {}  # element_id -> scheduled transition handle
        self._component = f"infra:{node.node_id}"
        node.on_liveness_change.append(self._on_liveness_change)
        node.on_demand_change.append(lambda _n: self.reassess())

    # -- element manager ----------------------------------------------------

    def available_headroom(self) -> ResourceVector:
        """Headroom not yet committed to elements (evicting ones still hold
        their allocation until dead)."""
        committed = ResourceVector.zero()
        for el in self.elements.values():
            if el.state != DEAD:
                committed = committed + el.allocation
        return (self.node.headroom() - committed).clamped()

    def create_element(
        self, cloudlet_id: str, engine_kind: str, allocation: ResourceVector
    ) -> str:
        if not self.node.is_up():
            raise NodeDown(f"node {self.node.node_id} is down")
        if allocation.exceeds_any(self.available_headroom()):
            raise InsufficientHeadroom(
                f"allocation {allocation.as_dict()} exceeds available headroom "
                f"{self.available_headroom().as_dict()} on {self.node.node_id}"
            )
        element_id = self.ids.next("e")
        el = CloudElement(
            element_id=element_id,
            node_id=self.node.node_id,
            cloudlet_id=cloudlet_id,
            engine_kind=engine_kind,
            allocation=allocation,
        )
        self.elements[element_id] = el
        self._log_state(el, "deploy")
        self._pending[element_id] = self.sim.schedule(
            lambda: self._finish_deploy(element_id), self._component, self.deploy_ms
        )
        self.reassess()
        return element_id

    def _finish_deploy(self, element_id: str) -> None:
        el = self.elements.get(element_id)
        if el is None or el.state != DEPLOYING:
            return
        self._pending.pop(element_id, None)
        self._transition(el, RUNNING, "deploy")

    def destroy_element(self, element_id: str) -> None:
        el = self.elements.get(element_id)
        if el is None or el.state == DEAD:
            raise UnknownElement(f"no live element {element_id} on {self.node.node_id}")
        el.evict_requested = True
        self._cancel_pending(element_id)
        self._transition(el, EVICTING, "evict")
        self._pending[element_id] = self.sim.schedule(
            lambda: self._finish_shutdown(element_id), self._component, self.shutdown_ms
        )
        self.reassess()

    def _finish_shutdown(self, element_id: str) -> None:
        el = self.elements.get(element_id)
        if el is None or el.state != EVICTING:
            return
        self._pending.pop(element_id, None)
        self._transition(el, DEAD, "shutdown")
        self.reassess()

    def _cancel_pending(self, element_id: str) -> None:
        handle = self._pending.pop(element_id, None)
        if handle is not None:
            self.sim.cancel(handle)

    # -- crash / recovery ---------------------------------------------------

    def _on_liveness_change(self, node: Node) -> None:
        if node.is_up():
            self._on_node_up()
        else:
            self._on_node_down()

    def _on_node_down(self) -> None:
        for el in list(self.elements.values()):
            if el.state != DEAD:
                self._cancel_pending(el.element_id)
                self._transition(el, DEAD, "crash")
        if self.violating:
            self._set_violating(False)
        if self._grace_handle is not None:
            self.sim.cancel(self._grace_handle)
            self._grace_handle = None

    def _on_node_up(self) -> None:
        # persistent software restarts on boot; deliberately destroyed
        # elements stay dead
        for el in list(self.elements.values()):
            if el.state == DEAD and not el.evict_requested:
                el.throttle_factor = 1.0
                self._transition(el, DEPLOYING, "restart")
                self._pending[el.element_id] = self.sim.schedule(
                    (lambda eid: lambda: self._finish_deploy(eid))(el.element_id),
                    self._component,
                    self.deploy_ms,
                )
        self.reassess()

    # -- intrusiveness ------------------------------------------------------

    def total_usage(self) -> ResourceVector:
        total = ResourceVector.zero()
        for el in self.elements.values():
            total = total + el.effective_usage()
        return total

    def _is_violating(self) -> bool:
        if not self.node.is_up():
            return False
        usage = self.total_usage()
        head = self.node.headroom()
        return (
            usage.cpu > head.cpu + _EPS
            or usage.memory > head.memory + _EPS
            or usage.storage > head.storage + _EPS
            or usage.network > head.network + _EPS
        )

    def reassess(self) -> None:
        """Re-evaluate the violation state machine after any change to
        headroom or element usage."""
        if not self.node.is_up():
            return
        violating = self._is_violating()
        if violating and not self.violating:
            self._set_violating(True)
            if self.policy.enforce:
                self._grace_handle = self.sim.schedule(
                    self._grace_expired, self._component, self.policy.grace_ms
                )
        elif not violating and self.violating:
            self._set_violating(False)
            if self._grace_handle is not None:
                self.sim.cancel(self._grace_handle)
                self._grace_handle = None
        if not violating:
            self._unthrottle_to_fit()

    def _set_violating(self, value: bool) -> None:
        self.violating = value
        self.violation_history.append((self.sim.now, value))
        self.sim.record(
            self._component,
            {
                "event": "violation_start" if value else "violation_end",
                "node": self.node.node_id,
            },
        )

    def _grace_expired(self) -> None:
        self._grace_handle = None
        if self.violating:
            actions = self.enforce_intrusiveness(self.sim.now)
            if actions:
                self.sim.record(
                    self._component,
                    {"event": "enforcement", "node": self.node.node_id, "actions": actions},
                )
            self.reassess()

    def enforce_intrusiveness(self, t: int) -> list:
        """Apply the throttle-then-evict ladder; returns the control actions
        taken. Idempotent when there is no violation."""
        if not self.node.is_up():
            raise NodeDown(f"node {self.node.node_id} is down")
        if not self._is_violating():
            return []
        head = self.node.headroom()
        actions = []

        def active():
            return [el for el in self.elements.values() if el.state in ACTIVE_STATES]

        # memory/storage/network cannot be fractionally reclaimed: evict,
        # largest cpu allocation first, element_id ascending on ties
        def noncpu_over():
            usage = ResourceVector.zero()
            for el in active():
                usage = usage + el.effective_usage()
            return (
                usage.memory > head.memory + _EPS
                or usage.storage > head.storage + _EPS
                or usage.network > head.network + _EPS
            )

        eviction_order = sorted(active(), key=lambda e: (-e.allocation.cpu, e.element_id))
        for victim in eviction_order:
            if not noncpu_over():
                break
            self._evict(victim)
            actions.append(["evict", victim.element_id])

        # cpu phase: throttle down to fit, largest allocation first (larger
        # element_id loses ties), then evict if still infeasible
        deficit = sum(el.effective_usage().cpu for el in active()) - head.cpu
        if deficit > _EPS and self.policy.throttle_first:
            throttleable = sorted(
                (el for el in active() if el.state in (RUNNING, THROTTLED)),
                key=lambda e: (-e.allocation.cpu, _desc_key(e.element_id)),
            )
            for el in throttleable:
                if deficit <= _EPS:
                    break
                if el.allocation.cpu <= 0:
                    continue
                floor_cpu = el.allocation.cpu * self.policy.throttle_floor
                reducible = el.effective_usage().cpu - floor_cpu
                if reducible <= _EPS:
                    continue
                take = min(reducible, deficit)
                new_factor = (el.effective_usage().cpu - take) / el.allocation.cpu
                el.throttle_factor = new_factor
                self._transition(el, THROTTLED, "throttle")
                actions.append(["throttle", el.element_id, round(new_factor, 9)])
                deficit -= take
        if deficit > _EPS:
            for victim in sorted(active(), key=lambda e: (-e.allocation.cpu, e.element_id)):
                if deficit <= _EPS:
                    break
                freed = victim.effective_usage().cpu
                self._evict(victim)
                actions.append(["evict", victim.element_id])
                deficit -= freed
        return actions

    def _evict(self, el: CloudElement) -> None:
        el.evict_requested = True
        self._cancel_pending(el.element_id)
        self._transition(el, EVICTING, "evict")
        self._pending[el.element_id] = self.sim.schedule(
            (lambda eid: lambda: self._finish_shutdown(eid))(el.element_id),
            self._component,
            self.shutdown_ms,
        )

    def _unthrottle_to_fit(self) -> None:
        """Raise throttle factors while the cpu budget allows, id ascending."""
        if not self.node.is_up():
            return
        budget = self.node.headroom().cpu
        throttled = sorted(
            (el for el in self.elements.values() if el.state == THROTTLED),
            key=lambda e: e.element_id,
        )
        if not throttled:
            return
        for el in throttled:
            others = sum(
                o.effective_usage().cpu
                for o in self.elements.values()
                if o.element_id != el.element_id
            )
            room = budget - others
            if room <= 0:
                continue
            new_factor = min(1.0, room / el.allocation.cpu) if el.allocation.cpu > 0 else 1.0
            if new_factor > el.throttle_factor + _EPS:
                if new_factor >= 1.0 - _EPS:
                    el.throttle_factor = 1.0
                    self._transition(el, RUNNING, "unthrottle")
                else:
                    el.throttle_factor = new_factor
                    self._transition(el, THROTTLED, "unthrottle")

    # -- reporting ----------------------------------------------------------

    def publish_node_report(self, t: int) -> NodeReport:
        if not self.node.is_up():
            raise NodeDown(f"node {self.node.node_id} is down")
        usage = {}
        alloc = {}
        for eid in sorted(self.elements):
            el = self.elements[eid]
            if el.state in ACTIVE_STATES:
                usage[eid] = el.effective_usage().as_dict()
                alloc[eid] = el.allocation.as_dict()
        return NodeReport(
            node_id=self.node.node_id,
            at=t,
            headroom=self.node.headroom(),
            user_demand=self.node.user_demand,
            per_element_usage=usage,
            per_element_allocation=alloc,
            violation_flag=self.violating,
        )

    def violation_ms(self, start: int, end: int) -> int:
        """Milliseconds in violation within [start, end)."""
        total = 0
        hist = self.violation_history
        for i, (t, flag) in enumerate(hist):
            seg_start = max(t, start)
            seg_end = hist[i + 1][0] if i + 1 < len(hist) else end
            seg_end = min(seg_end, end)
            if flag and seg_end > seg_start:
                total += seg_end - seg_start
        return total

    # -- internals ----------------------------------------------------------

    def _transition(self, el: CloudElement, new_state: str, reason: str) -> None:
        old = el.state
        el.state = new_state
        if new_state == RUNNING and el.throttle_factor >= 1.0:
            el.throttle_factor = 1.0
        self._log_state(el, reason)
        for cb in self.on_element_transition:
            cb(el, old, new_state, reason)

    def _log_state(self, el: CloudElement, reason: str) -> None:
        self.sim.record(
            self._component,
            {
                "event": "element_state",
                "element": el.element_id,
                "cloudlet": el.cloudlet_id,
                "node": el.node_id,
                "state": el.state,
                "reason": reason,
                "serving": el.is_serving(),
                "throttle_factor": round(el.throttle_factor, 9),
            },
        )


def _desc_key(element_id: str) -> tuple:
    """Sort helper: inverts lexicographic order of an id."""
    return tuple(-ord(c) for c in element_id)
