"""Goal-level figures folded from the event log, one record at a time.

A ``MetricsFold`` takes each record in log order through a table keyed by
event name and keeps only what the report needs: node up intervals, element
serving intervals, violation intervals, task counts and latencies. A run
feeds it every record as the log records it, so the summary needs no second
pass over the log; ``aggregate_metrics`` feeds it a log that already exists.
The report is exactly recomputable from the log alone, and all time
fractions are exact integer ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IncompleteLog


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


def _cloudlet_of(component: str) -> str:
    """The cloudlet id of a ``compute:<cloudlet>`` component."""
    return component.split(":", 1)[1]


class MetricsFold:
    """The summary metrics of one log over ``goal.window``, folded as each
    record arrives through ``add(t, component, record)``. ``metrics()``
    closes the intervals still open at the logged run end without changing
    the fold, and raises IncompleteLog while no ``run_end`` record covers
    the window."""

    def __init__(self, goal: GoalSpec):
        self.start, self.end = goal.window
        self.run_end = None
        self.node_up_since: dict[str, int] = {}
        self.node_up_ms: dict[str, int] = {}
        self.serving: dict[str, set] = {}  # cloudlet -> serving element ids
        self.serving_since: dict[str, int] = {}
        self.cloudlet_live_ms: dict[str, int] = {}
        self.element_serving: dict[str, bool] = {}
        self.element_intervals: dict[str, list] = {}
        self.element_open: dict[str, int] = {}
        self.violation_since: dict[str, int] = {}
        self.violation_ms: dict[str, int] = {}
        self.node_ids: set = set()
        self.latencies: dict[str, list] = {}
        self.tasks: dict[str, dict] = {}
        self.agreements: dict[str, dict] = {}
        self.action_counts: dict[str, int] = {}
        self.downgrades = 0
        self._handlers = {
            "run_end": self._run_end,
            "cloudlet_defined": self._cloudlet_defined,
            "element_state": self._element_state,
            "violation_start": self._violation_start,
            "violation_end": self._violation_end,
            "node_defined": self._node_defined,
            "node_up": self._node_up,
            "node_down": self._node_down,
            "task_completed": self._task_completed,
            "task_lost": self._task_lost,
            "task_submitted": self._task_submitted,
            "agreement_admitted": self._agreement_admitted,
            "agreement_element": self._agreement_element,
            "adapt_step": self._adapt_step,
            "action_downgraded": self._action_downgraded,
        }

    def add(self, t: int, component: str, record: dict) -> None:
        handler = self._handlers.get(record.get("event"))
        if handler is not None:
            handler(t, component, record)

    def _clip(self, a: int, b: int) -> int:
        return max(0, min(b, self.end) - max(a, self.start))

    def _add_ms(self, totals: dict, key: str, since: int, t: int) -> None:
        totals[key] = totals.get(key, 0) + self._clip(since, t)

    # -- one handler per event name

    def _run_end(self, t, component, rec):
        self.run_end = t

    def _cloudlet_defined(self, t, component, rec):
        self.cloudlet_live_ms.setdefault(rec["cloudlet"], 0)

    def _element_state(self, t, component, rec):
        eid = rec["element"]
        cid = rec["cloudlet"]
        now_serving = rec["serving"]
        was_serving = self.element_serving.get(eid, False)
        if now_serving and not was_serving:
            self.element_open[eid] = t
            group = self.serving.setdefault(cid, set())
            if not group:
                self.serving_since[cid] = t
            group.add(eid)
        elif was_serving and not now_serving:
            self.element_intervals.setdefault(eid, []).append((self.element_open.pop(eid), t))
            group = self.serving.setdefault(cid, set())
            group.discard(eid)
            if not group and cid in self.serving_since:
                self._add_ms(self.cloudlet_live_ms, cid, self.serving_since.pop(cid), t)
        self.element_serving[eid] = now_serving
        self.cloudlet_live_ms.setdefault(cid, 0)

    def _violation_start(self, t, component, rec):
        self.violation_since[rec["node"]] = t
        self.node_ids.add(rec["node"])

    def _violation_end(self, t, component, rec):
        node = rec["node"]
        self.node_ids.add(node)
        if node in self.violation_since:
            self._add_ms(self.violation_ms, node, self.violation_since.pop(node), t)

    def _node_defined(self, t, component, rec):
        self.node_ids.add(rec["node"])
        self.node_up_since[rec["node"]] = t  # nodes start up
        self.node_up_ms.setdefault(rec["node"], 0)

    def _node_up(self, t, component, rec):
        self.node_ids.add(rec["node"])
        self.node_up_since.setdefault(rec["node"], t)

    def _node_down(self, t, component, rec):
        node = rec["node"]
        self.node_ids.add(node)
        since = self.node_up_since.pop(node, None)
        if since is not None:
            self._add_ms(self.node_up_ms, node, since, t)

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
        self.agreements[rec["agreement"]] = {"window": tuple(rec["window"]), "elements": set()}

    def _agreement_element(self, t, component, rec):
        if rec["agreement"] in self.agreements:
            self.agreements[rec["agreement"]]["elements"].add(rec["element"])

    def _adapt_step(self, t, component, rec):
        for desc in rec["executed"]:
            self.action_counts[desc[0]] = self.action_counts.get(desc[0], 0) + 1

    def _action_downgraded(self, t, component, rec):
        self.downgrades += 1

    # -- the report

    def metrics(self) -> dict:
        start, end, run_end = self.start, self.end, self.run_end
        if run_end is None or end > run_end:
            raise IncompleteLog(
                f"window [{start},{end}) not covered by the log (run_end={run_end})"
            )
        window_ms = end - start
        # close intervals still open at run end, on copies
        cloudlet_live_ms = dict(self.cloudlet_live_ms)
        for cid, since in self.serving_since.items():
            self._add_ms(cloudlet_live_ms, cid, since, run_end)
        element_intervals = {eid: list(ivs) for eid, ivs in self.element_intervals.items()}
        for eid, since in self.element_open.items():
            element_intervals.setdefault(eid, []).append((since, run_end))
        violation_ms = dict(self.violation_ms)
        for node, since in self.violation_since.items():
            self._add_ms(violation_ms, node, since, run_end)
        node_up_ms = dict(self.node_up_ms)
        for node, since in self.node_up_since.items():
            self._add_ms(node_up_ms, node, since, run_end)

        satisfaction = {}
        for aid in sorted(self.agreements):
            info = self.agreements[aid]
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
        for cid in sorted(self.latencies):
            values = sorted(self.latencies[cid])
            task_latency[cid] = {
                "count": len(values),
                "p50": nearest_rank(values, 0.50),
                "p95": nearest_rank(values, 0.95),
                "p99": nearest_rank(values, 0.99),
            }

        node_ids = sorted(self.node_ids)
        return {
            "window": [start, end],
            "cloudlet_availability": {
                cid: _fraction(live, window_ms)
                for cid, live in sorted(cloudlet_live_ms.items())
            },
            "agreement_satisfaction": satisfaction,
            "intrusiveness": {
                node: _fraction(violation_ms.get(node, 0), window_ms) for node in node_ids
            },
            "node_uptime": {
                node: _fraction(node_up_ms.get(node, 0), window_ms) for node in node_ids
            },
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
