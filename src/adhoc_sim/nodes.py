"""Physical machine model: capacity, churn, primary-user demand, headroom.

A node alternates Up/Down according to its churn model (or a scripted list of
transitions), while the primary user's demand follows either a piecewise
constant trace or a two-state Markov process. Headroom is what harvesting may
use: capacity minus user demand minus a reserve margin, clamped at zero.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .defaults import DEFAULTS
from .errors import NodeDown
from .kernel import Dist, Simulator, StepHistory
from .resources import ResourceVector

UP = "up"
DOWN = "down"


class ChurnModel(NamedTuple):
    """Alternating up/down durations; stationary availability is
    E_up / (E_up + E_down)."""

    up_duration: Dist
    down_duration: Dist

    def stationary_availability(self) -> float:
        e_up = self.up_duration.mean_value()
        e_down = self.down_duration.mean_value()
        return e_up / (e_up + e_down)


class ScriptedChurn(NamedTuple):
    """Explicit (time, up|down) transitions; used for forced-crash scenarios."""

    transitions: tuple[tuple[int, str], ...]


class TraceLoad(NamedTuple):
    """Step-function user demand: value of the last breakpoint at or before t,
    zero before the first breakpoint. Breakpoint times are >= 0 and strictly
    increasing, as the scenario schema requires; each query builds a
    ``StepHistory`` of the breakpoints, in O(breakpoints). A node asks for
    its demand once, at start; the oracle forecaster asks for a mean once
    per node and forecast."""

    points: tuple[tuple[int, ResourceVector], ...]

    def _history(self) -> StepHistory:
        zero = ResourceVector.zero()
        history = StepHistory(0, zero, ResourceVector.scale, zero)
        for t, demand in self.points:
            history.append(t, demand)
        return history

    def demand_at(self, t: int) -> ResourceVector:
        return self._history().value_at(t)

    def mean_over(self, start: int, end: int) -> ResourceVector:
        """Exact time-weighted mean of the step function over [start, end)."""
        if end <= start:
            return self.demand_at(start)
        return self._history().integral(start, end).scale(1.0 / (end - start))


class MarkovLoad(NamedTuple):
    """Two-state demand process: idle/active demands with exponential sojourns."""

    idle_demand: ResourceVector
    active_demand: ResourceVector
    mean_idle_ms: float
    mean_active_ms: float

    def stationary_mean(self) -> ResourceVector:
        total = self.mean_idle_ms + self.mean_active_ms
        return self.idle_demand.scale(self.mean_idle_ms / total) + self.active_demand.scale(
            self.mean_active_ms / total
        )


def _up_area(liveness: str, dt: int) -> int:
    return dt if liveness == UP else 0


class Node:
    """One machine: liveness, user demand, and accounting history.

    The node's infrastructure subscribes to liveness and demand changes, and
    so does the simulation, to record the node as changed for the adaptation
    loop's kept snapshot; each cloudlet with an element here subscribes to
    demand changes ahead of the infrastructure (its best-effort ranking reads
    the node's headroom). The node itself never touches hosted elements.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        capacity: ResourceVector,
        churn=None,
        user_load=None,
        reserve_margin: Optional[ResourceVector] = None,
        forecast_availability: Optional[float] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.capacity = capacity
        self.churn = churn
        self.user_load = user_load
        # externally supplied long-run availability estimate, for nodes whose
        # churn is scripted or unknown to the planner
        self.forecast_availability = forecast_availability
        if reserve_margin is None:
            reserve_margin = capacity.scale(DEFAULTS["margin_fraction"])
        self.reserve_margin = reserve_margin
        self.liveness = UP
        no_demand = ResourceVector.zero()
        self.user_demand = no_demand
        self.on_liveness_change: list[Callable[["Node"], None]] = []
        self.on_demand_change: list[Callable[["Node"], None]] = []
        # accounting: liveness history as (t, liveness), demand history as (t, demand)
        self.liveness_history = StepHistory(0, UP, _up_area)
        self.demand_history = StepHistory(0, no_demand, ResourceVector.scale, no_demand)
        self._component = f"node:{node_id}"

    @property
    def user_demand(self) -> ResourceVector:
        return self._user_demand

    @user_demand.setter
    def user_demand(self, demand: ResourceVector) -> None:
        # capacity and reserve_margin are fixed, so headroom follows demand alone
        self._user_demand = demand
        self._headroom = None

    # -- process wiring -----------------------------------------------------

    def start(self) -> None:
        """Schedule churn and user-load processes from t=0."""
        if isinstance(self.churn, ChurnModel):
            stream = self.sim.stream(f"churn/{self.node_id}")
            self._up_sojourn = self.churn.up_duration.sampler(stream, ms=True)
            self._down_sojourn = self.churn.down_duration.sampler(stream, ms=True)
            self._schedule_next_churn()
        elif isinstance(self.churn, ScriptedChurn):
            for t, liveness in self.churn.transitions:
                self.sim.schedule(
                    (lambda lv: lambda: self._apply_liveness(lv))(liveness),
                    self._component,
                    t - self.sim.now,
                )
        if isinstance(self.user_load, TraceLoad):
            initial = self.user_load.demand_at(self.sim.now)
            self._install_demand(initial, log=False)
            for t, demand in self.user_load.points:
                if t > self.sim.now:
                    self.sim.schedule(
                        (lambda d: lambda: self._install_demand(d))(demand),
                        self._component,
                        t - self.sim.now,
                    )
        elif isinstance(self.user_load, MarkovLoad):
            load = self.user_load
            stream = self.sim.stream(f"user/{self.node_id}")
            self._idle_sojourn = Dist.exponential(load.mean_idle_ms).sampler(stream, ms=True)
            self._active_sojourn = Dist.exponential(load.mean_active_ms).sampler(stream, ms=True)
            self._install_demand(load.idle_demand, log=False)
            self._schedule_markov_flip(active=True)

    def _schedule_next_churn(self) -> None:
        """Draw how long the current liveness lasts and schedule its flip."""
        up = self.liveness == UP
        delay = self._up_sojourn() if up else self._down_sojourn()
        new_liveness = DOWN if up else UP
        self.sim.schedule(
            lambda: (self._apply_liveness(new_liveness), self._schedule_next_churn()),
            self._component,
            delay,
        )

    def _schedule_markov_flip(self, active: bool) -> None:
        # the node turns active after an idle sojourn, and idle after an active one
        load = self.user_load
        delay = self._idle_sojourn() if active else self._active_sojourn()
        demand = load.active_demand if active else load.idle_demand

        def flip():
            self._install_demand(demand)
            self._schedule_markov_flip(active=not active)

        self.sim.schedule(flip, self._component, delay)

    # -- state transitions --------------------------------------------------

    def _apply_liveness(self, liveness: str) -> None:
        if liveness == self.liveness:
            return
        self.liveness = liveness
        self.liveness_history.append(self.sim.now, liveness)
        self.sim.record(
            self._component,
            {"event": "node_up" if liveness == UP else "node_down", "node": self.node_id},
        )
        for cb in self.on_liveness_change:
            cb(self)

    def _install_demand(self, demand: ResourceVector, log: bool = True) -> None:
        if demand == self.user_demand:
            return
        self.user_demand = demand
        self.demand_history.append(self.sim.now, demand)
        if log:
            self.sim.record(
                self._component,
                {"event": "user_demand", "node": self.node_id, "demand": demand.as_dict()},
            )
        for cb in self.on_demand_change:
            cb(self)

    # -- queries ------------------------------------------------------------

    def is_up(self) -> bool:
        return self.liveness == UP

    def headroom(self) -> ResourceVector:
        """capacity - user_demand - reserve_margin, clamped at zero."""
        if self.liveness != UP:
            raise NodeDown(f"node {self.node_id} is down")
        if self._headroom is None:
            self._headroom = self.capacity.headroom(self._user_demand, self.reserve_margin)
        return self._headroom

    # -- accounting ---------------------------------------------------------

    def up_ms(self, start: int, end: int) -> int:
        """Milliseconds spent Up within [start, end)."""
        return self.liveness_history.integral(start, end)

    def uptime_fraction(self, start: int, end: int) -> float:
        if end <= start:
            return 0.0
        return self.up_ms(start, end) / (end - start)

    def mean_demand(self, start: int, end: int) -> ResourceVector:
        """Time-weighted mean observed demand over [start, end)."""
        if end <= start:
            return self.user_demand
        return self.demand_history.integral(start, end).scale(1.0 / (end - start))
