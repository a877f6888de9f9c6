"""Per-node cloud infrastructure: element lifecycle and non-intrusiveness.

The element manager creates and destroys cloud elements; the node manager
watches the balance between harvested allocations and the primary user's
demand. When allocations exceed headroom for longer than the grace period it
enforces, largest cpu allocation first. Only cpu can be reclaimed
fractionally, so a memory, storage or network overload evicts until it fits;
a cpu overload throttles (cheap, reversible), then evicts.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .defaults import DEFAULTS
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

_EPS = 1e-9


class Ids:
    """Monotone id allocator shared by one simulation instance."""

    def __init__(self):
        self._counters: dict[str, int] = {}

    def next(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = n
        return f"{prefix}{n:04d}"


class CloudElement:
    """One element on a node: its cloudlet and allocation, its lifecycle
    state and cpu throttle, and the engine the engine layer attaches."""

    __slots__ = ("element_id", "node_id", "cloudlet_id", "engine_kind", "allocation",
                 "state", "throttle_factor", "evict_requested", "engine")

    def __init__(self, element_id: str, node_id: str, cloudlet_id: str, engine_kind: str,
                 allocation: ResourceVector, state: str = DEPLOYING):
        self.element_id = element_id
        self.node_id = node_id
        self.cloudlet_id = cloudlet_id
        self.engine_kind = engine_kind
        self.allocation = allocation
        self.state = state
        self.throttle_factor = 1.0
        self.evict_requested = False
        self.engine = None

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


class IntrusivenessPolicy(NamedTuple):
    grace_ms: int = DEFAULTS["grace_ms"]
    throttle_first: bool = DEFAULTS["throttle_first"]
    throttle_floor: float = DEFAULTS["throttle_floor"]  # lowest cpu fraction a throttle may impose
    enforce: bool = DEFAULTS["enforce"]


class NodeInfrastructure:
    """Element manager plus node modeller/manager for one node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        ids: Ids,
        policy: IntrusivenessPolicy = IntrusivenessPolicy(),
        deploy_ms: int = DEFAULTS["deploy_ms"],
        shutdown_ms: int = DEFAULTS["shutdown_ms"],
    ):
        self.sim = sim
        self.node = node
        self.ids = ids
        self.policy = policy
        self.deploy_ms = deploy_ms
        self.shutdown_ms = shutdown_ms
        self.elements: dict[str, CloudElement] = {}
        # listeners receive (element, old_state, new_state)
        self.on_element_transition: list[Callable] = []
        self.violating = False
        self._grace_handle = None
        self._pending: dict[str, object] = {}  # element_id -> scheduled transition handle
        self._component = f"infra:{node.node_id}"
        self._committed: Optional[ResourceVector] = None  # cleared on element changes
        node.on_liveness_change.append(self._on_liveness_change)
        node.on_demand_change.append(lambda _n: self.reassess())

    # -- element manager ----------------------------------------------------

    def committed(self) -> ResourceVector:
        """Sum of the allocations of elements not yet dead (evicting ones
        still hold theirs). Kept until an element is created or changes
        state."""
        if self._committed is None:
            total = ResourceVector.zero()
            for el in self.elements.values():
                if el.state != DEAD:
                    total = total + el.allocation
            self._committed = total
        return self._committed

    def available_headroom(self) -> ResourceVector:
        """Headroom not yet committed to elements."""
        return (self.node.headroom() - self.committed()).clamped()

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
        self._committed = None
        self._log_state(el, "deploy")
        self._move_after(self.deploy_ms, el, RUNNING, "deploy")
        self.reassess()
        return element_id

    def destroy_element(self, element_id: str) -> None:
        el = self.elements.get(element_id)
        if el is None or el.state == DEAD:
            raise UnknownElement(f"no live element {element_id} on {self.node.node_id}")
        self._evict(el)
        self.reassess()

    def _move_after(self, delay: int, el: CloudElement, new_state: str, reason: str) -> None:
        """Move `el` to `new_state` once `delay` has passed, if it is still
        in the state it is in now; a shutdown is followed by a reassess."""
        old = el.state

        def finish():
            if el.state != old:
                return
            self._pending.pop(el.element_id, None)
            self._transition(el, new_state, reason)
            if new_state == DEAD:
                self.reassess()

        self._pending[el.element_id] = self.sim.schedule(finish, self._component, delay)

    # -- crash / recovery ---------------------------------------------------

    def _on_liveness_change(self, node: Node) -> None:
        if node.is_up():
            # persistent software restarts on boot; deliberately destroyed
            # elements stay dead
            for el in list(self.elements.values()):
                if el.state == DEAD and not el.evict_requested:
                    el.throttle_factor = 1.0
                    self._transition(el, DEPLOYING, "restart")
                    self._move_after(self.deploy_ms, el, RUNNING, "deploy")
            self.reassess()
            return
        for el in list(self.elements.values()):
            if el.state != DEAD:
                self.sim.cancel(self._pending.pop(el.element_id, None))
                self._transition(el, DEAD, "crash")
        if self.violating:
            self._set_violating(False)

    # -- intrusiveness ------------------------------------------------------

    def total_usage(self) -> ResourceVector:
        total = ResourceVector.zero()
        for el in self.elements.values():
            total = total + el.effective_usage()
        return total

    def _over(self, head: ResourceVector, cpu: bool = True) -> bool:
        """Whether the elements' usage exceeds `head`; with `cpu` false only
        memory, storage and network count."""
        usage = self.total_usage()
        return (
            cpu and usage.cpu > head.cpu + _EPS
            or usage.memory > head.memory + _EPS
            or usage.storage > head.storage + _EPS
            or usage.network > head.network + _EPS
        )

    def _is_violating(self) -> bool:
        return self._over(self.node.headroom())

    def reassess(self) -> None:
        """Re-evaluate the violation state machine after any change to
        headroom or element usage."""
        if not self.node.is_up():
            return
        violating = self._is_violating()
        if violating != self.violating:
            self._set_violating(violating)
        if not violating:
            self._unthrottle_to_fit()

    def _set_violating(self, value: bool) -> None:
        """Log the start or end of a violation. A start arms the grace timer
        when enforcement is on; an end cancels it (a timer that has fired
        is cancelled to no effect). No timer is pending without a
        violation."""
        self.violating = value
        self.sim.record(
            self._component,
            {
                "event": "violation_start" if value else "violation_end",
                "node": self.node.node_id,
            },
        )
        if not value:
            self.sim.cancel(self._grace_handle)
        elif self.policy.enforce:
            self._grace_handle = self.sim.schedule(
                self._grace_expired, self._component, self.policy.grace_ms
            )

    def _grace_expired(self) -> None:
        actions = self.enforce_intrusiveness()
        if actions:
            self.sim.record(
                self._component,
                {"event": "enforcement", "node": self.node.node_id, "actions": actions},
            )
        self.reassess()

    def enforce_intrusiveness(self) -> list:
        """Apply the evict-then-throttle-then-evict ladder; returns the
        control actions taken. Idempotent when there is no violation."""
        if not self.node.is_up():
            raise NodeDown(f"node {self.node.node_id} is down")
        if not self._is_violating():
            return []
        head = self.node.headroom()
        actions = []

        # memory/storage/network cannot be fractionally reclaimed: evict,
        # largest cpu allocation first, element_id ascending on ties
        eviction_order = sorted(
            (el for el in self.elements.values() if el.state in ACTIVE_STATES),
            key=lambda e: (-e.allocation.cpu, e.element_id),
        )
        for victim in eviction_order:
            if not self._over(head, cpu=False):
                break
            self._evict(victim)
            actions.append(["evict", victim.element_id])

        # cpu phase: throttle down to fit, largest allocation first (larger
        # element_id loses ties), then evict in the same order as above
        deficit = self.total_usage().cpu - head.cpu
        if deficit > _EPS and self.policy.throttle_first:
            throttleable = sorted(
                (el for el in self.elements.values() if el.state in SERVING_STATES),
                key=lambda e: (e.allocation.cpu, e.element_id),
                reverse=True,
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
            for victim in eviction_order:
                if deficit <= _EPS:
                    break
                if victim.state not in ACTIVE_STATES:
                    continue
                freed = victim.effective_usage().cpu
                self._evict(victim)
                actions.append(["evict", victim.element_id])
                deficit -= freed
        return actions

    def _evict(self, el: CloudElement) -> None:
        el.evict_requested = True
        self.sim.cancel(self._pending.pop(el.element_id, None))
        self._transition(el, EVICTING, "evict")
        self._move_after(self.shutdown_ms, el, DEAD, "shutdown")

    def _unthrottle_to_fit(self) -> None:
        """Raise throttle factors while the cpu budget allows, id ascending."""
        budget = self.node.headroom().cpu
        throttled = sorted(
            (el for el in self.elements.values() if el.state == THROTTLED),
            key=lambda e: e.element_id,
        )
        for el in throttled:
            others = sum(
                o.effective_usage().cpu
                for o in self.elements.values()
                if o.element_id != el.element_id
            )
            room = budget - others
            if room <= 0:
                continue
            new_factor = min(1.0, room / el.allocation.cpu)  # only cpu > 0 is throttled
            if new_factor > el.throttle_factor + _EPS:
                if new_factor >= 1.0 - _EPS:
                    el.throttle_factor = 1.0
                    self._transition(el, RUNNING, "unthrottle")
                else:
                    el.throttle_factor = new_factor
                    self._transition(el, THROTTLED, "unthrottle")

    # -- internals ----------------------------------------------------------

    def _transition(self, el: CloudElement, new_state: str, reason: str) -> None:
        old = el.state
        el.state = new_state
        self._committed = None
        self._log_state(el, reason)
        for cb in self.on_element_transition:
            cb(el, old, new_state)

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
