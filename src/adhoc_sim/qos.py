"""QoS brokering and dispatch.

The broker admits reservation requests against forecast usable capacity held
in a per-node calendar, maximizing the predicted availability of the reserved
node set 1 - prod(1 - p_i); admitted agreements are pre-deployed shortly
before their window opens. The dispatcher routes reserved traffic to its
agreement's elements first and falls back to best effort (most cpu headroom,
element id ascending) otherwise.

Placement is greedy: the k most available calendar-feasible nodes
(availability desc, headroom desc, node id asc). Each node's feasibility is
decided on its own and every factor 1 - p_i is at most the one it displaces,
so no other k-subset has a smaller product: greedy top-k is optimal.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .defaults import DEFAULTS
from .errors import InsufficientHeadroom, NodeDown
from .kernel import Simulator
from .membership import CloudletRuntime
from .nodes import ChurnModel, MarkovLoad, Node, TraceLoad
from .resources import ResourceVector

ORACLE = "oracle"
ESTIMATOR = "estimator"

REJECT_AVAILABILITY = "availability_unreachable"
REJECT_CAPACITY = "capacity_exhausted"

ACTIVE = "active"
EXPIRED = "expired"


def availability_of(node_availabilities) -> float:
    """Probability that at least one of the nodes is up: 1 - prod(1 - p_i)."""
    q = 1.0
    for p in node_availabilities:
        q *= 1.0 - p
    return 1.0 - q


class ReservationRequest(NamedTuple):
    request_id: str
    cloudlet_id: str
    demand: ResourceVector  # per element
    element_count: int
    window: tuple[int, int]  # [start, end)
    availability_target: float


class Agreement:
    """An admitted reservation: its request, each reserved node with its
    element once pre-deployed, and whether it is active or expired."""

    __slots__ = ("agreement_id", "request", "reserved", "state")

    def __init__(self, agreement_id: str, request: ReservationRequest,
                 reserved: list[tuple[str, Optional[str]]]):
        self.agreement_id = agreement_id
        self.request = request
        self.reserved = reserved  # (node_id, element_id once deployed)
        self.state = ACTIVE

    def reserved_nodes(self) -> list[str]:
        return [node_id for node_id, _ in self.reserved]

    def reserved_elements(self) -> list[str]:
        return [eid for _, eid in self.reserved if eid is not None]


class NodeForecast(NamedTuple):
    node_id: str
    availability: float
    expected_headroom: ResourceVector


def oracle_availability(node: Node) -> float:
    """The node's long-run availability from its true churn parameters."""
    if node.forecast_availability is not None:
        return node.forecast_availability
    if isinstance(node.churn, ChurnModel):
        return node.churn.stationary_availability()
    return 1.0  # no stochastic churn model: assumed always on


class Forecaster:
    """Per-node availability and usable headroom, either from the true churn
    parameters (oracle mode) or from trailing observed history (estimator)."""

    def __init__(
        self,
        nodes: dict[str, Node],
        mode: str = DEFAULTS["qos_mode"],
        trailing_window_ms: int = DEFAULTS["trailing_window_ms"],
        now_fn: Callable[[], int] = lambda: 0,
    ):
        if mode not in (ORACLE, ESTIMATOR):
            raise ValueError(f"unknown forecast mode {mode!r}")
        self.nodes = nodes
        self.mode = mode
        self.trailing_window_ms = trailing_window_ms
        self.now_fn = now_fn

    def forecast_capacity(self, window: tuple[int, int]) -> dict[str, NodeForecast]:
        """node_id -> NodeForecast over the window, node id ascending."""
        per_node = {}
        oracle = self.mode == ORACLE
        if not oracle:
            now = self.now_fn()
            start = max(0, now - self.trailing_window_ms)
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if oracle:
                availability = oracle_availability(node)
                mean_demand = self._model_mean_demand(node, window)
            else:
                availability = node.uptime_fraction(start, now) if now > start else 1.0
                mean_demand = node.mean_demand(start, now)
            headroom = node.capacity.headroom(mean_demand, node.reserve_margin)
            per_node[node_id] = NodeForecast(node_id, availability, headroom)
        return per_node

    @staticmethod
    def _model_mean_demand(node: Node, window: tuple[int, int]) -> ResourceVector:
        load = node.user_load
        if isinstance(load, TraceLoad):
            return load.mean_over(window[0], window[1])
        if isinstance(load, MarkovLoad):
            return load.stationary_mean()
        return ResourceVector.zero()


class ReservationCalendar:
    """Per-node piecewise-constant reservation ledger."""

    def __init__(self):
        self.entries: dict[str, list[tuple[int, int, ResourceVector, str]]] = {}

    def add(self, node_id: str, window: tuple[int, int], demand: ResourceVector,
            agreement_id: str) -> None:
        self.entries.setdefault(node_id, []).append(
            (window[0], window[1], demand, agreement_id)
        )

    def remove_agreement(self, agreement_id: str) -> None:
        for node_id in list(self.entries):
            self.entries[node_id] = [
                e for e in self.entries[node_id] if e[3] != agreement_id
            ]
            if not self.entries[node_id]:
                del self.entries[node_id]

    def reserved_at(self, node_id: str, t: int) -> ResourceVector:
        total = ResourceVector.zero()
        for start, end, demand, _aid in self.entries.get(node_id, []):
            if start <= t < end:
                total = total + demand
        return total

    def feasible(self, node_id: str, window: tuple[int, int], demand: ResourceVector,
                 limit: ResourceVector) -> bool:
        """Would adding demand over window keep the node within limit at
        every instant? Reservations are piecewise constant, so checking each
        overlap boundary suffices."""
        points = {window[0]}
        for start, end, _d, _a in self.entries.get(node_id, []):
            if end > window[0] and start < window[1]:
                points.add(max(start, window[0]))
        for t in sorted(points):
            if (self.reserved_at(node_id, t) + demand).exceeds_any(limit):
                return False
        return True


class Broker:
    """Establishes and manages up-front agreements."""

    def __init__(
        self,
        sim: Simulator,
        nodes: dict[str, Node],
        forecaster: Forecaster,
        ids,
        deploy_fn: Callable[[str, str, ResourceVector], str],
        deploy_ms: int = DEFAULTS["deploy_ms"],
    ):
        self.sim = sim
        self.nodes = nodes
        self.forecaster = forecaster
        self.ids = ids
        self.deploy_fn = deploy_fn
        self.deploy_ms = deploy_ms
        self.calendar = ReservationCalendar()
        self.agreements: dict[str, Agreement] = {}

    # -- admission -------------------------------------------------------------

    def negotiate(self, request: ReservationRequest):
        """Admit iff some placement of element_count distinct nodes is
        calendar-feasible and meets the availability target; reserves and
        pre-deploys on admission. Returns the Agreement, or None on
        rejection; the log records the prediction either way."""
        forecast = self.forecaster.forecast_capacity(request.window)
        ordered = sorted(
            forecast.values(),
            key=lambda f: (-f.availability, -f.expected_headroom.cpu, f.node_id),
        )
        feasible = [
            f
            for f in ordered
            if self.calendar.feasible(
                f.node_id, request.window, request.demand, f.expected_headroom
            )
        ]
        if len(feasible) < request.element_count:
            return self._reject(request, REJECT_CAPACITY, None)
        chosen = feasible[: request.element_count]
        predicted = availability_of([f.availability for f in chosen])
        if predicted < request.availability_target:
            return self._reject(request, REJECT_AVAILABILITY, predicted)
        agreement = Agreement(
            agreement_id=self.ids.next("a"),
            request=request,
            reserved=[(f.node_id, None) for f in chosen],
        )
        self.agreements[agreement.agreement_id] = agreement
        for f in chosen:
            self.calendar.add(f.node_id, request.window, request.demand,
                              agreement.agreement_id)
        self.sim.record(
            "broker",
            {
                "event": "agreement_admitted",
                "agreement": agreement.agreement_id,
                "request": request.request_id,
                "cloudlet": request.cloudlet_id,
                "nodes": agreement.reserved_nodes(),
                "window": list(request.window),
                "predicted_availability": predicted,
            },
        )
        deploy_at = max(self.sim.now, request.window[0] - self.deploy_ms)
        self.sim.schedule(
            lambda: self._pre_deploy(agreement.agreement_id),
            "broker",
            deploy_at - self.sim.now,
        )
        self.sim.schedule(
            lambda: self._expire(agreement.agreement_id),
            "broker",
            request.window[1] - self.sim.now,
        )
        return agreement

    def _reject(self, request: ReservationRequest, reason: str,
                predicted: Optional[float]) -> None:
        self.sim.record(
            "broker",
            {
                "event": "agreement_rejected",
                "request": request.request_id,
                "reason": reason,
                "predicted_availability": predicted,
            },
        )

    def _pre_deploy(self, agreement_id: str) -> None:
        agreement = self.agreements.get(agreement_id)
        if agreement is None or agreement.state != ACTIVE:
            return
        request = agreement.request
        for i, (node_id, eid) in enumerate(agreement.reserved):
            if eid is not None:
                continue
            try:
                new_eid = self.deploy_fn(node_id, request.cloudlet_id, request.demand)
            except (NodeDown, InsufficientHeadroom) as exc:  # reservation kept, slot empty
                self.sim.record(
                    "broker",
                    {
                        "event": "pre_deploy_failed",
                        "agreement": agreement_id,
                        "node": node_id,
                        "error": type(exc).__name__,
                    },
                )
                continue
            agreement.reserved[i] = (node_id, new_eid)
            self.sim.record(
                "broker",
                {
                    "event": "agreement_element",
                    "agreement": agreement_id,
                    "node": node_id,
                    "element": new_eid,
                },
            )

    # -- lifecycle end ----------------------------------------------------------

    def _expire(self, agreement_id: str) -> None:
        agreement = self.agreements.get(agreement_id)
        if agreement is None or agreement.state != ACTIVE:
            return
        agreement.state = EXPIRED
        self.calendar.remove_agreement(agreement_id)
        # pre-deployed elements are handed over: they stay cloudlet members
        # and the adaptation loop decides whether to retain or remove them
        self.sim.record(
            "broker",
            {
                "event": "agreement_expired",
                "agreement": agreement_id,
                "elements": agreement.reserved_elements(),
            },
        )

    def reserved_element_ids(self) -> set[str]:
        out = set()
        for agreement in self.agreements.values():
            if agreement.state == ACTIVE:
                out.update(agreement.reserved_elements())
        return out


class Dispatcher:
    """Routes each task to its first element: a serving element reserved by
    the task's agreement, else the best-effort pick. The element returned
    is serving at the time of the call."""

    def __init__(self, sim: Simulator, cloudlets: dict[str, CloudletRuntime],
                 broker: Broker):
        self.sim = sim
        self.cloudlets = cloudlets
        self.broker = broker

    def dispatch(self, cloudlet_id: str, agreement_id: Optional[str] = None) -> str:
        runtime = self.cloudlets[cloudlet_id]
        if agreement_id is not None:
            agreement = self.broker.agreements.get(agreement_id)
            if agreement is None or agreement.state != ACTIVE:
                self.sim.record(
                    "dispatcher",
                    {"event": "unknown_agreement", "agreement": agreement_id},
                )
            else:
                for eid in agreement.reserved_elements():
                    el = runtime.elements.get(eid)
                    if el is not None and el.is_serving():
                        return eid
        el = runtime.best_effort_pick()
        return el.element_id
