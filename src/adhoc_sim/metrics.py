"""Goal-level figures, the sampled series and reservation decisions folded
from the event log, one record at a time.

A ``MetricsFold`` takes each record in log order through a table keyed by
event name. It keeps each node's liveness and violation, each cloudlet's
"some element serves" and each element's serving as a flag
``kernel.StepHistory``, each cloudlet's count of serving view members as a
count history, plus task counts and latencies, the agreements' windows and
elements, and each reservation request's admission or rejection. A run
feeds it every record as the log records it, so neither the summary nor
series.csv needs a second pass over the log; ``aggregate_metrics`` feeds it
a log that already exists. Every output figure is therefore exactly
recomputable from the log alone, and all time fractions are exact integer
ratios of flag-history integrals over the goal window.
"""

from __future__ import annotations

import math
from operator import itemgetter, mul
from typing import NamedTuple

from .errors import IncompleteLog
from .kernel import StepHistory, flag_area


class GoalSpec(NamedTuple):
    window: tuple[int, int]


def _fraction(num: int, den: int) -> dict:
    return {"num": num, "den": den, "value": (num / den) if den else 0.0}


def nearest_rank(sorted_values: list, q: float):
    if not sorted_values:
        return None
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


def _cloudlet_of(component: str) -> str:
    """The cloudlet id of a ``compute:<cloudlet>`` component."""
    return component.split(":", 1)[1]


def _set_flag(histories: dict, key: str, t: int, flag, area=flag_area) -> None:
    """Step the history of ``key`` to ``flag`` (or a count, with area mul)
    at t; the key's first record starts its history, and a record that
    repeats the value adds no breakpoint."""
    history = histories.get(key)
    if history is None:
        histories[key] = StepHistory(t, flag, area)
    elif history.value_at(t) != flag:
        history.append(t, flag)


def _sampled(history: StepHistory, interval: int, samples: int) -> list:
    """The history's value, as text, at each of the first ``samples``
    multiples of interval: one list fill per breakpoint, not one lookup per
    sample. A later breakpoint overwrites the samples from its time on."""
    out = []
    for t, value in history:
        start = min(samples, -(-t // interval)) if out else 0
        out[start:] = [str(int(value))] * (samples - start)
    return out


def _any_holds(histories: list, start: int, end: int) -> int:
    """The ms of [start, end) in which at least one of the flag histories
    holds: the integral of a history with a breakpoint at each of theirs."""
    points = sorted(
        ((t, i, flag) for i, history in enumerate(histories) for t, flag in history),
        key=itemgetter(0),
    )
    if not points:
        return 0
    holding = set()
    any_history = StepHistory(points[0][0], False, flag_area)
    for t, i, flag in points:
        (holding.add if flag else holding.discard)(i)
        any_history.append(t, bool(holding))
    return any_history.integral(start, end)


class MetricsFold:
    """The summary metrics of one log over ``goal.window``, its series and
    its reservation decisions, folded as each record arrives through
    ``add(t, component, record)``. Time in a state is kept only as step
    histories, which hold their last value past the last record, so
    ``metrics()`` and ``series()`` read them without closing anything; both
    raise IncompleteLog while no ``run_end`` record covers the window.
    ``reservations()`` gives each request's decision as logged by the
    broker."""

    def __init__(self, goal: GoalSpec):
        self.start, self.end = goal.window
        self.run_end = None
        self.node_up: dict[str, StepHistory] = {}
        self.violating: dict[str, StepHistory] = {}
        self.cloudlet_live: dict[str, StepHistory] = {}  # some element serving
        self.element_serving: dict[str, StepHistory] = {}
        self.serving: dict[str, set] = {}  # cloudlet -> serving element ids
        self.members: dict[str, set] = {}  # cloudlet -> view member ids
        self.serving_members: dict[str, StepHistory] = {}  # cloudlet -> count
        self.latencies: dict[str, list] = {}
        self.tasks: dict[str, dict] = {}
        self.agreements: dict[str, tuple] = {}  # id -> (window, element ids)
        self.decisions: dict[str, dict] = {}  # request id -> reservation decision
        self.action_counts: dict[str, int] = {}
        self.downgrades = 0
        self._handlers = {
            "run_end": self._run_end,
            "cloudlet_defined": self._cloudlet_defined,
            "element_state": self._element_state,
            "membership": self._membership,
            "violation_start": self._violation_start,
            "violation_end": self._violation_end,
            "node_defined": self._node_defined,
            "node_up": self._node_up,
            "node_down": self._node_down,
            "task_completed": self._task_completed,
            "task_lost": self._task_lost,
            "task_submitted": self._task_submitted,
            "agreement_admitted": self._agreement_admitted,
            "agreement_rejected": self._agreement_rejected,
            "agreement_element": self._agreement_element,
            "adapt_step": self._adapt_step,
            "action_downgraded": self._action_downgraded,
        }

    def add(self, t: int, component: str, record: dict) -> None:
        handler = self._handlers.get(record.get("event"))
        if handler is not None:
            handler(t, component, record)

    # -- one handler per event name

    def _run_end(self, t, component, rec):
        self.run_end = t

    def _cloudlet_defined(self, t, component, rec):
        cid = rec["cloudlet"]
        _set_flag(self.cloudlet_live, cid, t, bool(self.serving.get(cid)))
        self._count_serving_members(t, cid)

    def _element_state(self, t, component, rec):
        eid, cid, serving = rec["element"], rec["cloudlet"], rec["serving"]
        group = self.serving.setdefault(cid, set())
        (group.add if serving else group.discard)(eid)
        _set_flag(self.element_serving, eid, t, serving)
        _set_flag(self.cloudlet_live, cid, t, bool(group))
        self._count_serving_members(t, cid)

    def _membership(self, t, component, rec):  # a join, a leave or a suspicion
        members = self.members.setdefault(rec["cloudlet"], set())
        (members.add if rec["change"] == "join" else members.discard)(rec["element"])
        self._count_serving_members(t, rec["cloudlet"])

    def _count_serving_members(self, t: int, cid: str) -> None:
        """The view members that serve, as ``CloudletRuntime.serving_members()``."""
        count = len(self.members.get(cid, set()) & self.serving.get(cid, set()))
        _set_flag(self.serving_members, cid, t, count, mul)

    def _violation_start(self, t, component, rec):
        _set_flag(self.violating, rec["node"], t, True)

    def _violation_end(self, t, component, rec):
        _set_flag(self.violating, rec["node"], t, False)

    def _node_defined(self, t, component, rec):  # up; not violating unless a record said so
        self._node_up(t, component, rec)
        self.violating.setdefault(rec["node"], StepHistory(t, False, flag_area))

    def _node_up(self, t, component, rec):
        _set_flag(self.node_up, rec["node"], t, True)

    def _node_down(self, t, component, rec):
        _set_flag(self.node_up, rec["node"], t, False)

    def _task_count(self, component: str) -> dict:
        return self.tasks.setdefault(
            _cloudlet_of(component), {"completed": 0, "lost": 0, "submitted": 0}
        )

    def _task_completed(self, t, component, rec):
        if self.start <= t < self.end:
            self.latencies.setdefault(_cloudlet_of(component), []).append(rec["latency_ms"])
        self._task_count(component)["completed"] += 1

    def _task_lost(self, t, component, rec):
        self._task_count(component)["lost"] += 1

    def _task_submitted(self, t, component, rec):
        self._task_count(component)["submitted"] += 1

    def _agreement_admitted(self, t, component, rec):
        self.agreements[rec["agreement"]] = (tuple(rec["window"]), set())
        self.decisions[rec["request"]] = {
            "admitted": True,
            "agreement": rec["agreement"],
            "predicted_availability": rec["predicted_availability"],
            "nodes": list(rec["nodes"]),
        }

    def _agreement_rejected(self, t, component, rec):
        self.decisions[rec["request"]] = {
            "admitted": False,
            "reason": rec["reason"],
            "predicted_availability": rec["predicted_availability"],
        }

    def _agreement_element(self, t, component, rec):
        if rec["agreement"] in self.agreements:
            self.agreements[rec["agreement"]][1].add(rec["element"])

    def _adapt_step(self, t, component, rec):
        for desc in rec["executed"]:
            self.action_counts[desc[0]] = self.action_counts.get(desc[0], 0) + 1

    def _action_downgraded(self, t, component, rec):
        self.downgrades += 1

    # -- the report

    def reservations(self) -> dict:
        """request id -> its admission or rejection, request id ascending."""
        return dict(sorted(self.decisions.items()))

    def _check_covered(self) -> None:
        if self.run_end is None or self.end > self.run_end:
            raise IncompleteLog(f"window [{self.start},{self.end}) not covered by the log "
                                f"(run_end={self.run_end})")

    def series(self, interval: int) -> tuple[list, list]:
        """series.csv's header and rows, each row its CSV line without the
        line end. A row at each multiple of ``interval`` from 0 to the
        window's end inclusive reads, as of the last record at or before its
        time, each cloudlet's count of serving view members, then each
        node's up flag and violation flag, all in definition order."""
        self._check_covered()
        named = [(f"{cid}_serving", h) for cid, h in self.serving_members.items()]
        named += [(f"{node}_up", h) for node, h in self.node_up.items()]
        named += [(f"{node}_violation", self.violating[node]) for node in self.node_up]
        samples = self.end // interval + 1
        values = [[str(k * interval) for k in range(samples)]]
        values += [_sampled(history, interval, samples) for _name, history in named]
        return ["time_ms"] + [name for name, _h in named], [",".join(r) for r in zip(*values)]

    def metrics(self) -> dict:
        self._check_covered()
        start, end = self.start, self.end
        window_ms = end - start

        def fraction_in(histories: dict, key: str) -> dict:
            history = histories.get(key)
            return _fraction(history.integral(start, end) if history else 0, window_ms)

        satisfaction = {}
        for aid in sorted(self.agreements):
            (a_start, a_end), elements = self.agreements[aid]
            a_start, a_end = max(a_start, start), min(a_end, end)
            if a_end <= a_start:
                continue
            histories = [
                self.element_serving[eid] for eid in sorted(elements)
                if eid in self.element_serving
            ]
            satisfaction[aid] = _fraction(
                _any_holds(histories, a_start, a_end), a_end - a_start
            )

        task_latency = {}
        for cid in sorted(self.latencies):
            values = sorted(self.latencies[cid])
            task_latency[cid] = {
                "count": len(values),
                "p50": nearest_rank(values, 0.50),
                "p95": nearest_rank(values, 0.95),
                "p99": nearest_rank(values, 0.99),
            }

        node_ids = sorted(self.node_up.keys() | self.violating.keys())
        return {
            "window": [start, end],
            "cloudlet_availability": {
                cid: fraction_in(self.cloudlet_live, cid) for cid in sorted(self.cloudlet_live)
            },
            "agreement_satisfaction": satisfaction,
            "intrusiveness": {node: fraction_in(self.violating, node) for node in node_ids},
            "node_uptime": {node: fraction_in(self.node_up, node) for node in node_ids},
            "task_latency": task_latency,
            "task_counts": {cid: dict(v) for cid, v in sorted(self.tasks.items())},
            "adaptation_actions": dict(sorted(self.action_counts.items())),
            "action_downgrades": self.downgrades,
        }


def aggregate_metrics(log, goal: GoalSpec) -> dict:
    """The summary metrics of a recorded log: every entry fed, in order, to
    one MetricsFold. Raises IncompleteLog when the window extends past the
    logged run end."""
    fold = MetricsFold(goal)
    for entry in log:
        fold.add(entry.t, entry.component, entry.record)
    return fold.metrics()
