"""Wrapper tracing of the simulator's layers, installed from outside.

Each traced function is replaced, on its module or class, by a wrapper that
counts calls and accumulates inclusive and self time. Self time is a call's
duration minus the time of wrapped calls nested inside it, so summing self
time over every wrapped name never counts an interval twice. The layers are
the modules of ``adhoc_sim``; the kernel's share is what the other layers'
self times leave of the run's host time.

Wrappers call straight through, draw no random numbers and record nothing in
the event log, so a traced run writes the same ``events.ndjson`` as an
untraced one; the benchmark checks this on every traced run.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = (
    "kernel", "network", "membership", "engines", "nodes", "infrastructure",
    "qos", "adaptation", "scenario", "runner", "cli",
)

# (span name, module, attribute path). The layer is the span name's prefix.
# load_scenario and write_outputs are wrapped where cli looks them up.
SETUP_SPANS = (
    ("scenario.load", "cli", "load_scenario"),
    ("runner.build", "runner", "build_simulation"),
    ("adaptation.aggregate", "adaptation", "aggregate_metrics"),
    ("cli.write", "cli", "write_outputs"),
)

LAYER_SPANS = SETUP_SPANS + (
    ("kernel.dispatch", "kernel", "Simulator._dispatch"),
    ("kernel.schedule", "kernel", "Simulator.schedule"),
    ("kernel.rng", "kernel", "RngStream.next_u64"),
    ("network.send", "network", "Network.send"),
    ("network.send_to_element", "network", "Network.send_to_element"),
    ("network.round", "network", "Round.__init__"),
    ("membership.metadata_update", "membership", "CloudletRuntime.metadata_quorum_update"),
    ("membership.heartbeat", "membership", "CloudletRuntime.heartbeat"),
    ("membership.join", "membership", "CloudletRuntime.join"),
    ("membership.leave", "membership", "CloudletRuntime.leave"),
    ("membership.detect_failures", "membership", "CloudletRuntime.detect_failures"),
    ("membership.bind", "membership", "CloudletRuntime.bind"),
    ("membership.best_effort_pick", "membership", "CloudletRuntime.best_effort_pick"),
    ("engines.kv_put", "engines", "KvService.put"),
    ("engines.kv_get", "engines", "KvService.get"),
    ("engines.kv_repair", "engines", "KvService.repair_replicas"),
    ("engines.merge_read_replies", "engines", "merge_read_replies"),
    ("engines.submit_task", "engines", "ComputeService.submit_task"),
    ("engines.task_done", "engines", "ComputeService.on_task_done"),
    ("engines.element_failure", "engines", "ComputeService.handle_element_failure"),
    ("engines.busy_ms", "engines", "ComputeElementEngine.busy_ms"),
    ("nodes.up_ms", "nodes", "Node.up_ms"),
    ("nodes.uptime_fraction", "nodes", "Node.uptime_fraction"),
    ("nodes.mean_demand", "nodes", "Node.mean_demand"),
    ("nodes.headroom", "nodes", "Node.headroom"),
    ("infrastructure.reassess", "infrastructure", "NodeInfrastructure.reassess"),
    ("infrastructure.enforce", "infrastructure", "NodeInfrastructure.enforce_intrusiveness"),
    ("infrastructure.create_element", "infrastructure", "NodeInfrastructure.create_element"),
    ("infrastructure.available_headroom", "infrastructure",
     "NodeInfrastructure.available_headroom"),
    ("qos.forecast", "qos", "Forecaster.forecast_capacity"),
    ("qos.negotiate", "qos", "Broker.negotiate"),
    ("qos.dispatch", "qos", "Dispatcher.dispatch"),
    ("adaptation.epoch", "adaptation", "AdaptationController._epoch"),
    ("adaptation.snapshot", "adaptation", "AdaptationController.build_snapshot"),
    ("adaptation.select", "adaptation", "select_plan"),
    ("adaptation.generate_plans", "adaptation", "generate_plans"),
    ("adaptation.execute_action", "adaptation", "AdaptationController._execute_action"),
    ("runner.task_arrival", "runner", "TaskWorkload._fire"),
    ("runner.kv_arrival", "runner", "KvWorkload._fire"),
)

# spans whose return value feeds a counter: name -> f(result) -> amount
RESULT_COUNTERS = {
    "engines.merge_read_replies": ("engines.read_repairs", lambda r: len(r[2])),
    "qos.negotiate": ("qos.admitted", lambda r: int(hasattr(r, "agreement_id"))),
    "adaptation.generate_plans": ("adaptation.plans_generated", len),
    "adaptation.execute_action": ("adaptation.actions_executed", lambda r: int(r[0])),
}

# spans whose every duration is kept, in call order
KEEP_DURATIONS = ("adaptation.snapshot",)


class Tracer:
    """Per-name call counts, inclusive and self seconds, and counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.durations: dict[str, list] = {name: [] for name in KEEP_DURATIONS}
        self.missing: list[str] = []
        self._stack: list[float] = []  # time of wrapped children, per open span
        self._undo: list = []

    def _register(self, name: str) -> None:
        self.calls[name] = 0
        self.total_s[name] = self.self_s[name] = 0.0
        if name in RESULT_COUNTERS:
            self.counters[RESULT_COUNTERS[name][0]] = 0
        if name == "network.round":
            self.counters["network.rounds_quorate"] = 0

    def wrap(self, name: str, fn):
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        stack = self._stack
        clock = time.perf_counter
        counter = RESULT_COUNTERS.get(name)
        kept = self.durations.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                nested = stack.pop()
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - nested
                if stack:
                    stack[-1] += dur
                if kept is not None:
                    kept.append(dur)
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self, spans, package: str = "adhoc_sim") -> None:
        """Wrap each span's function. One the program no longer has is
        listed in ``missing`` and reads as never called."""
        for name, module_name, path in spans:
            self._register(name)
            owner = importlib.import_module(f"{package}.{module_name}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            if name == "network.round":
                wrapped = self._count_quorums(wrapped)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def _count_quorums(self, round_init):
        """Count rounds that reach quorum by wrapping each round's on_success."""
        counters = self.counters

        @functools.wraps(round_init)
        def init(self_round, *args, on_success, **kwargs):
            def success(replies):
                counters["network.rounds_quorate"] += 1
                return on_success(replies)

            return round_init(self_round, *args, on_success=success, **kwargs)

        return init

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out
