"""Wires one simulation instance: nodes, per-node infrastructure, cloudlet
coordinators, engines, QoS, adaptation, and workload generators.

Every instance has its QoS layer (forecaster, broker and dispatcher); the
adaptation controller is attached on demand. Instances share nothing; a
batch may run many of them independently. The kernel runs model events
only; every output is folded from the event log (``metrics.MetricsFold``).
"""

from __future__ import annotations

from typing import Optional

from .defaults import DEFAULTS
from .engines import (
    COMPUTE,
    KV_STORE,
    ComputeElementEngine,
    ComputeService,
    KvReplicaEngine,
    KvService,
    Task,
)
from .errors import NoLiveElement
from .infrastructure import (
    DEAD,
    EVICTING,
    RUNNING,
    THROTTLED,
    CloudElement,
    Ids,
    IntrusivenessPolicy,
    NodeInfrastructure,
)
from .kernel import Dist, EventLog, SimulationAbort, Simulator
from .membership import CloudletPolicy, CloudletRuntime
from .metrics import GoalSpec, MetricsFold
from .network import Network
from .nodes import Node
from .qos import Agreement, Broker, Dispatcher, Forecaster
from .resources import ResourceVector


class Simulation:
    """One deterministic instance: all state machines driven by one kernel.

    The broker forecasts in ``qos_mode`` over ``trailing_window_ms`` of
    history, and the dispatcher routes every task through it.
    ``attach_adaptation`` adds the autonomic controller."""

    def __init__(
        self,
        seed: int = 0,
        latency: Dist = DEFAULTS["network_latency"],
        deploy_ms: int = DEFAULTS["deploy_ms"],
        shutdown_ms: int = DEFAULTS["shutdown_ms"],
        op_timeout_ms: int = DEFAULTS["op_timeout_ms"],
        copy_ms_per_mb: float = DEFAULTS["copy_ms_per_mb"],
        log: Optional[EventLog] = None,
        qos_mode: str = DEFAULTS["qos_mode"],
        trailing_window_ms: int = DEFAULTS["trailing_window_ms"],
    ):
        self.sim = Simulator(seed=seed, log=log)
        self.net = Network(self.sim, latency)
        self.ids = Ids()
        self.deploy_ms = deploy_ms
        self.shutdown_ms = shutdown_ms
        self.op_timeout_ms = op_timeout_ms
        self.copy_ms_per_mb = copy_ms_per_mb
        self.nodes: dict[str, Node] = {}
        self.infras: dict[str, NodeInfrastructure] = {}
        # the nodes whose liveness, user demand or committed allocations, so
        # available headroom, may have moved since the adaptation loop's last
        # snapshot, which empties it
        self.changed_nodes: set[str] = set()
        # one listener object for every node: a bound method made per node is
        # two more objects per node, enough to set off a collection inside the
        # build of a 20-node document (about 5% slower load-and-build)
        self._on_node_change = self._node_changed
        self.cloudlets: dict[str, CloudletRuntime] = {}
        self.kv_services: dict[str, KvService] = {}
        self.compute_services: dict[str, ComputeService] = {}
        forecaster = Forecaster(self.nodes, mode=qos_mode, trailing_window_ms=trailing_window_ms,
                                now_fn=lambda: self.sim.now)
        self.broker = Broker(self.sim, self.nodes, forecaster, self.ids,
                             deploy_fn=self.deploy_element, deploy_ms=deploy_ms)
        self.dispatcher = Dispatcher(self.sim, self.cloudlets, self.broker)
        self.controller = None
        self.element_allocations: dict[str, ResourceVector] = {}
        self.reservation_results: dict[str, Optional[Agreement]] = {}  # by request id
        self.workload_generators: list = []  # one per scenario workload
        self._started = False

    # -- construction ---------------------------------------------------------

    def add_node(
        self,
        node_id: str,
        capacity: ResourceVector,
        churn=None,
        user_load=None,
        reserve_margin: Optional[ResourceVector] = None,
        policy: Optional[IntrusivenessPolicy] = None,
        forecast_availability: Optional[float] = None,
    ) -> Node:
        node = Node(
            self.sim, node_id, capacity, churn=churn, user_load=user_load,
            reserve_margin=reserve_margin, forecast_availability=forecast_availability,
        )
        infra = NodeInfrastructure(
            self.sim,
            node,
            self.ids,
            policy=policy or IntrusivenessPolicy(),
            deploy_ms=self.deploy_ms,
            shutdown_ms=self.shutdown_ms,
        )
        infra.on_element_transition.append(self._route_transition)
        node.on_liveness_change.append(self._on_node_change)
        node.on_demand_change.append(self._on_node_change)
        self.nodes[node_id] = node
        self.infras[node_id] = infra
        self.sim.record(f"node:{node_id}", {"event": "node_defined", "node": node_id})
        return node

    def add_cloudlet(
        self,
        cloudlet_id: str,
        engine_kind: str,
        policy: Optional[CloudletPolicy] = None,
        element_allocation: ResourceVector = DEFAULTS["element_allocation"],
    ) -> CloudletRuntime:
        runtime = CloudletRuntime(
            self.sim,
            self.net,
            cloudlet_id,
            engine_kind,
            policy or CloudletPolicy(),
            self.nodes,
            metadata_timeout_ms=self.op_timeout_ms,
        )
        self.cloudlets[cloudlet_id] = runtime
        self.element_allocations[cloudlet_id] = element_allocation
        self.sim.record(
            f"cloudlet:{cloudlet_id}",
            {"event": "cloudlet_defined", "cloudlet": cloudlet_id, "engine": engine_kind},
        )
        if engine_kind == KV_STORE:
            self.kv_services[cloudlet_id] = KvService(
                self.sim,
                self.net,
                runtime,
                op_timeout_ms=self.op_timeout_ms,
                copy_ms_per_mb=self.copy_ms_per_mb,
            )
        elif engine_kind == COMPUTE:
            self.compute_services[cloudlet_id] = ComputeService(self.sim, self.net, runtime)
        else:
            raise ValueError(f"unknown engine kind {engine_kind!r}")
        return runtime

    def deploy_element(
        self, node_id: str, cloudlet_id: str, allocation: ResourceVector
    ) -> str:
        """Create an element and attach its engine and cloudlet registration."""
        runtime = self.cloudlets[cloudlet_id]
        infra = self.infras[node_id]
        eid = infra.create_element(cloudlet_id, runtime.engine_kind, allocation)
        self.changed_nodes.add(node_id)
        element = infra.elements[eid]
        runtime.attach_element(element)
        if runtime.engine_kind == KV_STORE:
            element.engine = KvReplicaEngine()
        else:
            service = self.compute_services[cloudlet_id]
            element.engine = ComputeElementEngine(self.sim, element, service.on_task_done)
        return eid

    def attach_adaptation(self, policy=None):
        """Create the autonomic controller; epochs begin once the run starts."""
        from .adaptation import AdaptationController, AdaptationPolicy

        self.controller = AdaptationController(self, policy or AdaptationPolicy())
        return self.controller

    # -- transition routing -----------------------------------------------------

    def _node_changed(self, node: Node) -> None:
        self.changed_nodes.add(node.node_id)

    def _route_transition(self, el: CloudElement, old: str, new: str) -> None:
        self.changed_nodes.add(el.node_id)
        # deploy_element attaches the runtime and the engine before any transition
        self.cloudlets[el.cloudlet_id].element_transition(el, old, new)
        if el.engine_kind != COMPUTE:
            return
        if new in (DEAD, EVICTING):
            self.compute_services[el.cloudlet_id].handle_element_failure(el)
        elif new in (RUNNING, THROTTLED):
            el.engine.on_rate_change()

    # -- execution ---------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for node_id in sorted(self.nodes):
            self.nodes[node_id].start()
        if self.controller is not None:
            self.controller.start()

    def run_until(self, t_end: int):
        self.start()
        return self.sim.run_until(t_end)


# -- scenario execution -----------------------------------------------------------


def _interarrival(arrival: dict) -> Dist:
    """The gap between two arrivals; a fixed interval draws nothing."""
    if arrival["kind"] == "poisson":
        return Dist.exponential(1000.0 / arrival["rate_per_s"])
    return Dist.constant(arrival["interval_ms"])


class TaskWorkload:
    """Generates compute tasks, routed through the dispatcher."""

    def __init__(self, simulation: Simulation, spec, horizon: int):
        self.s = simulation
        self.spec = spec
        self.horizon = horizon
        self.issued = 0
        self.skipped = 0
        sim = simulation.sim
        self._gap = _interarrival(spec.arrival).sampler(
            sim.stream(f"arrivals/{spec.workload_id}"), ms=True
        )
        self._work = spec.work_units.sampler(sim.stream(f"work/{spec.workload_id}"))
        sim.schedule(self._fire, f"workload:{spec.workload_id}", spec.start_ms)

    def _fire(self):
        s, spec = self.s, self.spec
        if spec.count is not None and self.issued >= spec.count:
            return
        now = s.sim.now
        agreement_id = None
        if spec.agreement_of is not None:
            result = s.reservation_results.get(spec.agreement_of)
            if result is not None:
                agreement_id = result.agreement_id
        task = Task(
            task_id=s.ids.next("t"),
            work_units=max(1e-6, self._work()),
            arrival=now,
        )
        self.issued += 1
        service = s.compute_services[spec.cloudlet]
        try:
            service.submit_task(task, s.dispatcher.dispatch(spec.cloudlet, agreement_id))
        except NoLiveElement:
            self.skipped += 1
            s.sim.record(
                f"workload:{spec.workload_id}",
                {"event": "task_skipped", "task": task.task_id},
            )
        delay = self._gap()
        if now + delay <= self.horizon:
            s.sim.schedule(self._fire, f"workload:{spec.workload_id}", delay)


class KvWorkload:
    """Generates put/get traffic against one kv cloudlet, exercising the
    bind/re-bind client path through its key -> binding table."""

    def __init__(self, simulation: Simulation, spec, horizon: int):
        self.s = simulation
        self.spec = spec
        self.horizon = horizon
        self.issued = 0
        self.seq = 0
        self.bindings = {}
        # one string per key index, shared by the log, the replica map and the stores
        self._keys: dict[int, str] = {}
        sim = simulation.sim
        self._gap = _interarrival(spec.arrival).sampler(
            sim.stream(f"arrivals/{spec.workload_id}"), ms=True
        )
        # each op draws its key, then whether it is a put, then a put's size
        ops = sim.stream(f"ops/{spec.workload_id}")
        self._unit = Dist.uniform(0.0, 1.0).sampler(ops)
        self._size = spec.value_size.sampler(ops, ms=True)
        sim.schedule(self._fire, f"workload:{spec.workload_id}", spec.start_ms)

    def _fire(self):
        s, spec = self.s, self.spec
        if spec.count is not None and self.issued >= spec.count:
            return
        now = s.sim.now
        self.issued += 1
        service = s.kv_services[spec.cloudlet]
        index = int(self._unit() * spec.key_space)
        key = self._keys.get(index)
        if key is None:
            key = self._keys[index] = f"k{index}"
        is_put = self._unit() < spec.put_ratio
        if is_put:
            self.seq += 1
            size = self._size()
            service.put(key, f"{spec.workload_id}:{self.seq}", size=size)
        else:
            service.get(key, self.bindings)
        delay = self._gap()
        if now + delay <= self.horizon:
            s.sim.schedule(self._fire, f"workload:{spec.workload_id}", delay)


def build_simulation(scenario, seed: Optional[int] = None,
                     log: Optional[EventLog] = None) -> Simulation:
    """Wire a Simulation instance from a validated Scenario. The simulation
    records into ``log`` from its first record on; by default into a new
    in-memory EventLog."""
    seed = scenario.seed if seed is None else seed
    d = scenario.defaults
    s = Simulation(
        seed=seed,
        latency=d["network_latency"],
        deploy_ms=d["deploy_ms"],
        shutdown_ms=d["shutdown_ms"],
        op_timeout_ms=d["op_timeout_ms"],
        copy_ms_per_mb=d["copy_ms_per_mb"],
        log=log,
        qos_mode=scenario.qos_mode,
        trailing_window_ms=scenario.trailing_window_ms,
    )
    s.sim.record("runner", {"event": "run_start", "seed": seed})
    for spec in scenario.fleet:
        s.add_node(
            spec.node_id,
            spec.capacity,
            churn=spec.churn,
            user_load=spec.user_load,
            reserve_margin=spec.reserve_margin,
            policy=spec.intrusiveness,
            forecast_availability=spec.forecast_availability,
        )
    s.attach_adaptation(scenario.adaptation)
    for spec in scenario.cloudlets:
        s.add_cloudlet(
            spec.cloudlet_id,
            spec.engine,
            spec.policy,
            element_allocation=spec.element_allocation,
        )
        for node_id in spec.nodes:
            s.deploy_element(node_id, spec.cloudlet_id, spec.element_allocation)
    for res in scenario.reservations:
        def submit(request=res.request):
            s.reservation_results[request.request_id] = s.broker.negotiate(request)

        s.sim.schedule(submit, "broker", res.submit_ms)
    for spec in scenario.workloads:
        cls = TaskWorkload if spec.kind == "tasks" else KvWorkload
        s.workload_generators.append(cls(s, spec, scenario.run_until))
    return s


def run_scenario(scenario, seed_override: Optional[int] = None,
                 events_path: Optional[str] = None):
    """Execute a validated scenario to run_until; returns (summary, (series
    columns, series rows), simulation), each series row its CSV line
    without the line end. Raises SimulationAbort on an invariant breach,
    in the build or in the run.

    The summary's metrics and reservation decisions and the series sampled
    every ``sample_interval_ms`` are folded from each record as it is
    logged, so the event log alone recomputes them. With
    ``events_path`` the event log is streamed to that file as it is
    recorded and closed when the run ends, and the simulation's log reads
    the file back; a run that raises deletes the file. Without it the fold
    is the log's one reader and no entry is kept: the simulation's log
    counts its entries but cannot be iterated."""

    from .scenario import scenario_to_json

    seed = scenario.seed if seed_override is None else seed_override
    fold = MetricsFold(GoalSpec(window=(0, scenario.run_until)))
    log = EventLog(events_path, fold.add)
    try:
        try:
            s = build_simulation(scenario, seed, log=log)
        except Exception as exc:  # a breach while deploying, as one in an event is
            raise SimulationAbort(0, "build_simulation", None, exc) from exc
        s.run_until(scenario.run_until)
        s.sim.record("runner", {"event": "run_end"})
    except BaseException:
        log.discard()
        raise
    log.close()
    summary = {
        "schema_version": 1,
        "seed": seed,
        "run_until": scenario.run_until,
        "scenario": scenario_to_json(scenario),
        "reservations": fold.reservations(),
        "metrics": fold.metrics(),
    }
    return summary, fold.series(scenario.defaults["sample_interval_ms"]), s
