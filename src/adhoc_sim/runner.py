"""Wires one simulation instance: nodes, per-node infrastructure, cloudlet
coordinators, engines, QoS, adaptation, and workload generators.

Instances share nothing; a batch may run many of them independently.
"""

from __future__ import annotations

from typing import Optional

from .engines import (
    COMPUTE,
    KV_STORE,
    ComputeElementEngine,
    ComputeService,
    KvReplicaEngine,
    KvService,
    Task,
)
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
from .kernel import Dist, Simulator
from .membership import CloudletPolicy, CloudletRuntime
from .network import DEFAULT_LATENCY, DEFAULT_OP_TIMEOUT_MS, Network
from .nodes import Node
from .resources import ResourceVector


class Simulation:
    """One deterministic instance: all state machines driven by one kernel."""

    def __init__(
        self,
        seed: int = 0,
        latency: Dist = DEFAULT_LATENCY,
        deploy_ms: int = 2000,
        shutdown_ms: int = 500,
        op_timeout_ms: int = DEFAULT_OP_TIMEOUT_MS,
        copy_ms_per_mb: float = 100.0,
    ):
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim, latency)
        self.ids = Ids()
        self.deploy_ms = deploy_ms
        self.shutdown_ms = shutdown_ms
        self.op_timeout_ms = op_timeout_ms
        self.copy_ms_per_mb = copy_ms_per_mb
        self.nodes: dict[str, Node] = {}
        self.infras: dict[str, NodeInfrastructure] = {}
        self.cloudlets: dict[str, CloudletRuntime] = {}
        self.kv_services: dict[str, KvService] = {}
        self.compute_services: dict[str, ComputeService] = {}
        self.broker = None
        self.dispatcher = None
        self.controller = None
        self.element_allocations: dict[str, ResourceVector] = {}
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
        self.nodes[node_id] = node
        self.infras[node_id] = infra
        self.sim.record(f"node:{node_id}", {"event": "node_defined", "node": node_id})
        return node

    def add_cloudlet(
        self,
        cloudlet_id: str,
        engine_kind: str,
        policy: Optional[CloudletPolicy] = None,
        element_allocation: Optional[ResourceVector] = None,
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
        self.element_allocations[cloudlet_id] = element_allocation or ResourceVector(
            1.0, 512, 1024, 5
        )
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
        element = infra.elements[eid]
        runtime.attach_element(element)
        if runtime.engine_kind == KV_STORE:
            element.engine = KvReplicaEngine(element)
        else:
            service = self.compute_services[cloudlet_id]
            element.engine = ComputeElementEngine(self.sim, element, service.on_task_done)
        return eid

    def attach_qos(
        self,
        mode: str = "oracle",
        trailing_window_ms: int = 500_000_000,
        exhaustive_threshold: int = 10,
    ):
        """Create the broker and dispatcher for this instance."""
        from .qos import Broker, Dispatcher, Forecaster

        forecaster = Forecaster(
            self.nodes,
            mode=mode,
            trailing_window_ms=trailing_window_ms,
            now_fn=lambda: self.sim.now,
        )
        self.broker = Broker(
            self.sim,
            self.nodes,
            forecaster,
            self.ids,
            deploy_fn=self.deploy_element,
            deploy_ms=self.deploy_ms,
            exhaustive_threshold=exhaustive_threshold,
        )
        self.dispatcher = Dispatcher(self.sim, self.cloudlets, self.broker)
        return self.broker

    def attach_adaptation(self, policy=None, weights=None):
        """Create the autonomic controller; epochs begin once the run starts."""
        from .adaptation import AdaptationController, AdaptationPolicy, UtilityWeights

        self.controller = AdaptationController(
            self,
            policy or AdaptationPolicy(),
            weights or UtilityWeights(),
        )
        return self.controller

    # -- transition routing -----------------------------------------------------

    def _route_transition(self, el: CloudElement, old: str, new: str, reason: str) -> None:
        runtime = self.cloudlets.get(el.cloudlet_id)
        if runtime is not None:
            runtime.element_transition(el, old, new, reason)
        engine = el.engine
        if not isinstance(engine, ComputeElementEngine):
            return
        if new in (DEAD, EVICTING):
            service = self.compute_services.get(el.cloudlet_id)
            if service is not None:
                service.handle_element_failure(el)
        elif new in (RUNNING, THROTTLED):
            engine.on_rate_change()

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


def _interarrival_ms(arrival: dict, stream) -> int:
    from .kernel import draw_ms

    if arrival["kind"] == "poisson":
        mean = 1000.0 / float(arrival["rate_per_s"])
        return draw_ms(stream, Dist.exponential(mean))
    return int(arrival["interval_ms"])


class TaskWorkload:
    """Generates compute tasks, routed through the dispatcher."""

    def __init__(self, simulation: Simulation, spec, horizon: int):
        self.s = simulation
        self.spec = spec
        self.horizon = horizon
        self.issued = 0
        self.skipped = 0
        self._stream = simulation.sim.stream(f"arrivals/{spec.workload_id}")
        self._work_stream = simulation.sim.stream(f"work/{spec.workload_id}")
        simulation.sim.schedule(
            self._fire, f"workload:{spec.workload_id}", spec.start_ms
        )

    def _fire(self):
        from .errors import NoLiveElement

        s, spec = self.s, self.spec
        if spec.count is not None and self.issued >= spec.count:
            return
        now = s.sim.now
        agreement_id = None
        if spec.agreement_of is not None:
            result = s.reservation_results.get(spec.agreement_of)
            if result is not None and hasattr(result, "agreement_id"):
                agreement_id = result.agreement_id
        task = Task(
            task_id=s.ids.next("t"),
            work_units=max(1e-6, spec.work_units.sample(self._work_stream)),
            arrival=now,
            agreement_id=agreement_id,
        )
        self.issued += 1
        service = s.compute_services[spec.cloudlet]
        try:
            element_id = None
            if s.dispatcher is not None:
                element_id = s.dispatcher.dispatch(spec.cloudlet, now, agreement_id)
            service.submit_task(task, element_id)
        except NoLiveElement:
            self.skipped += 1
            s.sim.record(
                f"workload:{spec.workload_id}",
                {"event": "task_skipped", "task": task.task_id},
            )
        delay = _interarrival_ms(spec.arrival, self._stream)
        if now + delay <= self.horizon:
            s.sim.schedule(self._fire, f"workload:{spec.workload_id}", delay)


class KvWorkload:
    """Generates put/get traffic against one kv cloudlet, exercising the
    bind/re-bind client path."""

    def __init__(self, simulation: Simulation, spec, horizon: int):
        self.s = simulation
        self.spec = spec
        self.horizon = horizon
        self.issued = 0
        self.seq = 0
        self.bindings = {}
        self._stream = simulation.sim.stream(f"arrivals/{spec.workload_id}")
        self._ops = simulation.sim.stream(f"ops/{spec.workload_id}")
        simulation.sim.schedule(
            self._fire, f"workload:{spec.workload_id}", spec.start_ms
        )

    def _fire(self):
        from .errors import AdhocSimError

        s, spec = self.s, self.spec
        if spec.count is not None and self.issued >= spec.count:
            return
        now = s.sim.now
        self.issued += 1
        service = s.kv_services[spec.cloudlet]
        runtime = s.cloudlets[spec.cloudlet]
        key = f"k{int(self._ops.uniform01() * spec.key_space)}"
        is_put = self._ops.uniform01() < spec.put_ratio
        if is_put:
            self.seq += 1
            size = max(0, round(spec.value_size.sample(self._ops)))
            service.put(key, f"{spec.workload_id}:{self.seq}", size=size)
        else:
            binding = self.bindings.get(key)
            if binding is None:
                try:
                    binding = runtime.bind(spec.workload_id, key)
                    self.bindings[key] = binding
                except AdhocSimError:
                    binding = None
            was_stale = binding is not None and runtime.binding_stale(binding)
            service.get(key, binding)
            if was_stale:
                try:
                    self.bindings[key] = runtime.bind(spec.workload_id, key)
                except AdhocSimError:
                    self.bindings.pop(key, None)
        delay = _interarrival_ms(spec.arrival, self._stream)
        if now + delay <= self.horizon:
            s.sim.schedule(self._fire, f"workload:{spec.workload_id}", delay)


def build_simulation(scenario, seed: Optional[int] = None) -> Simulation:
    """Wire a Simulation instance from a validated Scenario."""
    seed = scenario.seed if seed is None else seed
    d = scenario.defaults
    s = Simulation(
        seed=seed,
        latency=Dist.from_json(d["network_latency"]),
        deploy_ms=int(d["deploy_ms"]),
        shutdown_ms=int(d["shutdown_ms"]),
        op_timeout_ms=int(d["op_timeout_ms"]),
        copy_ms_per_mb=float(d["copy_ms_per_mb"]),
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
    s.attach_qos(
        mode=scenario.qos_mode,
        trailing_window_ms=scenario.trailing_window_ms,
        exhaustive_threshold=scenario.exhaustive_threshold,
    )
    s.attach_adaptation(scenario.adaptation, scenario.weights)
    for spec in scenario.cloudlets:
        s.add_cloudlet(
            spec.cloudlet_id,
            spec.engine,
            spec.policy,
            element_allocation=spec.element_allocation,
        )
        placement = spec.initial_placement
        if placement == "auto":
            want = (
                spec.policy.target_replication
                if spec.engine == KV_STORE
                else max(1, spec.policy.min_members)
            )
            ranked = sorted(
                scenario.fleet, key=lambda n: (-n.capacity.cpu, n.node_id)
            )
            placement = [n.node_id for n in ranked[:want]]
        for node_id in placement:
            s.deploy_element(node_id, spec.cloudlet_id, spec.element_allocation)
    s.reservation_results = {}
    for res in scenario.reservations:
        def submit(request=res.request):
            s.reservation_results[request.request_id] = s.broker.negotiate(request)

        s.sim.schedule(submit, "broker", res.submit_ms)
    s.workload_generators = []
    for spec in scenario.workloads:
        cls = TaskWorkload if spec.kind == "tasks" else KvWorkload
        s.workload_generators.append(cls(s, spec, scenario.run_until))
    # per-tick series sampling
    s.series_rows = []
    s.series_columns = (
        ["time_ms"]
        + [f"{c.cloudlet_id}_serving" for c in scenario.cloudlets]
        + [f"{n.node_id}_up" for n in scenario.fleet]
        + [f"{n.node_id}_violation" for n in scenario.fleet]
    )
    interval = int(d["sample_interval_ms"])

    def sample():
        row = [s.sim.now]
        for c in scenario.cloudlets:
            row.append(len(s.cloudlets[c.cloudlet_id].serving_members()))
        for n in scenario.fleet:
            row.append(1 if s.nodes[n.node_id].is_up() else 0)
        for n in scenario.fleet:
            row.append(1 if s.infras[n.node_id].violating else 0)
        s.series_rows.append(row)
        if s.sim.now + interval <= scenario.run_until:
            s.sim.schedule(sample, "sampler", interval)

    s.sim.schedule(sample, "sampler", 0)
    return s


def run_scenario(scenario, seed_override: Optional[int] = None):
    """Execute a validated scenario to run_until; returns (summary, series
    rows, simulation). Raises SimulationAbort on an invariant breach."""

    from .adaptation import GoalSpec, aggregate_metrics
    from .qos import Agreement

    seed = scenario.seed if seed_override is None else seed_override
    s = build_simulation(scenario, seed)
    s.run_until(scenario.run_until)
    s.sim.record("runner", {"event": "run_end"})
    metrics = aggregate_metrics(s.sim.log, GoalSpec(window=(0, scenario.run_until)))
    reservations = {}
    for rid, result in sorted(s.reservation_results.items()):
        if isinstance(result, Agreement):
            reservations[rid] = {
                "admitted": True,
                "agreement": result.agreement_id,
                "predicted_availability": result.predicted_availability,
                "nodes": result.reserved_nodes(),
            }
        else:
            reservations[rid] = {
                "admitted": False,
                "reason": result.reason,
                "predicted_availability": result.predicted_availability,
            }
    summary = {
        "schema_version": 1,
        "seed": seed,
        "run_until": scenario.run_until,
        "scenario": scenario.to_json(),
        "reservations": reservations,
        "metrics": metrics,
    }
    return summary, s.series_rows, s
