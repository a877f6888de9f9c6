"""Simulated message passing: latency draws, loss on dead endpoints,
and quorum fan-out rounds.

All latencies come from the shared "net" stream so message traffic never
perturbs churn or workload draws.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .defaults import DEFAULTS
from .infrastructure import CloudElement
from .kernel import Dist, Simulator


class Network:
    """Schedules each message's delivery after a latency drawn, in whole
    milliseconds, from ``latency`` on the "net" stream: one draw per message,
    through a sampler built with the network."""

    def __init__(self, sim: Simulator, latency: Dist = DEFAULTS["network_latency"]):
        self.sim = sim
        self._delay = latency.sampler(sim.stream("net"), ms=True)

    def send(self, target: str, action: Callable[[], None], extra_delay: int = 0) -> None:
        """Deliver to an always-reachable (harness-hosted) component."""
        self.sim.schedule(action, target, self._delay() + extra_delay)

    def send_to_element(
        self,
        element: CloudElement,
        on_deliver: Callable[[], None],
        on_drop: Optional[Callable[[], None]] = None,
        extra_delay: int = 0,
    ) -> None:
        """Deliver to an element; dropped if it is not serving at delivery time."""

        def deliver():
            if element.is_serving():
                on_deliver()
            elif on_drop is not None:
                on_drop()

        self.sim.schedule(
            deliver, f"element:{element.element_id}", self._delay() + extra_delay
        )


def majority(n: int) -> int:
    """The quorum of n replicas: more than half of them."""
    return n // 2 + 1


class Round:
    """Fan-out to target elements, collect replies until quorum or timeout.

    on_element runs against a live element at request delivery and its return
    value travels back as the reply. Exactly one of on_success/on_failure
    fires; it receives the round's own dict of the replies gathered so far,
    to which no later reply is added.

    Once decided, the round drops its timeout event, whose payload refers
    back to the round; with no cycle left, reference counting frees the
    round and its callbacks as soon as its last message is delivered.
    """

    def __init__(
        self,
        net: Network,
        targets: list[CloudElement],
        on_element: Callable[[CloudElement], Any],
        quorum: int,
        timeout_ms: int,
        on_success: Callable[[dict], None],
        on_failure: Callable[[dict], None],
        on_late: Optional[Callable[[str, Any], None]] = None,
    ):
        self.net = net
        self.on_element = on_element
        self.quorum = quorum
        self.on_success = on_success
        self.on_failure = on_failure
        self.on_late = on_late
        self.replies: dict[str, Any] = {}
        self.done = False
        self._timeout_handle = net.sim.schedule(
            self._timed_out, "round:timeout", timeout_ms
        )
        for el in targets:
            self._request(el)
        self._check()  # quorum of zero completes immediately

    def _request(self, el: CloudElement) -> None:
        def deliver():
            result = self.on_element(el)
            self.net.send(f"round:reply:{el.element_id}", lambda: self._collect(el.element_id, result))

        self.net.send_to_element(el, deliver)

    def _collect(self, eid: str, result: Any) -> None:
        if self.done:
            if self.on_late is not None:
                self.on_late(eid, result)
            return
        self.replies[eid] = result
        self._check()

    def _check(self) -> None:
        if not self.done and len(self.replies) >= self.quorum:
            self.done = True
            self.net.sim.cancel(self._timeout_handle)
            self._timeout_handle = None
            self.on_success(self.replies)

    def _timed_out(self) -> None:
        self._timeout_handle = None
        if not self.done:
            self.done = True
            self.on_failure(self.replies)


class OpHandle:
    """Async operation outcome: result or error, filled at completion time.

    Clients keep their handles, so a handle has no ``__dict__``, stores each
    fact once (it is done once it has a completion time) and holds its
    callbacks only until they have run. A get's result is the record the
    replicas hold, not a copy of it.
    """

    __slots__ = ("result", "error", "completed_at", "_callbacks")

    def __init__(self):
        self.result: Any = None
        self.error: Optional[Exception] = None
        self.completed_at: Optional[int] = None
        self._callbacks: tuple[Callable[["OpHandle"], None], ...] = ()

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    def on_complete(self, cb: Callable[["OpHandle"], None]) -> "OpHandle":
        if self.done:
            cb(self)
        else:
            self._callbacks += (cb,)
        return self

    def _finish(self, at: int, result: Any = None, error: Optional[Exception] = None) -> None:
        if self.done:
            return
        self.result = result
        self.error = error
        self.completed_at = at
        callbacks, self._callbacks = self._callbacks, ()
        for cb in callbacks:
            cb(self)

    def ok(self) -> bool:
        return self.done and self.error is None
