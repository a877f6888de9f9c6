"""Deterministic discrete-event kernel.

Virtual time is integer milliseconds; there is no floating-point clock, so a
run is reproducible bit-for-bit across platforms. Events at equal timestamps
fire in insertion (seq) order. Randomness comes from named streams whose
draws are a pure function of (seed, stream_id, counter): adding a stochastic
process never perturbs the draws seen by another.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


class SimulationAbort(Exception):
    """An event handler raised: the run stops with the offending event identified."""

    def __init__(self, at: int, target: str, seq: int, cause: BaseException):
        self.at = at
        self.target = target
        self.seq = seq
        self.cause = cause
        super().__init__(
            f"aborted at t={at} while delivering event seq={seq} to {target!r}: {cause!r}"
        )


# ---------------------------------------------------------------------------
# Random streams and distribution specs


class RngStream:
    """Named reproducible stream: draw i is sha256(seed|stream_id|i)."""

    def __init__(self, seed: int, stream_id: str):
        self.seed = seed
        self.stream_id = stream_id
        self.counter = 0
        self._prefix = f"{seed}|{stream_id}|".encode()

    def next_u64(self) -> int:
        digest = hashlib.sha256(self._prefix + str(self.counter).encode()).digest()
        self.counter += 1
        return int.from_bytes(digest[:8], "big")

    def uniform01(self) -> float:
        # 53-bit mantissa; result in [0, 1)
        return (self.next_u64() >> 11) / float(1 << 53)


@dataclass(frozen=True)
class Dist:
    """Distribution spec: exponential(mean), uniform(a,b), constant(value),
    two_point(p, lo, hi) where hi is drawn with probability p."""

    kind: str
    mean: float = 0.0
    a: float = 0.0
    b: float = 0.0
    value: float = 0.0
    p: float = 0.0
    lo: float = 0.0
    hi: float = 0.0

    @staticmethod
    def exponential(mean: float) -> "Dist":
        return Dist(kind="exponential", mean=mean)

    @staticmethod
    def uniform(a: float, b: float) -> "Dist":
        return Dist(kind="uniform", a=a, b=b)

    @staticmethod
    def constant(value: float) -> "Dist":
        return Dist(kind="constant", value=value)

    @staticmethod
    def two_point(p: float, lo: float, hi: float) -> "Dist":
        return Dist(kind="two_point", p=p, lo=lo, hi=hi)

    def problems(self) -> list[str]:
        """Parameter diagnostics; empty means valid."""
        # a non-finite parameter would draw an infinite duration
        out = []
        if self.kind == "exponential":
            if not 0 < self.mean < math.inf:
                out.append(f"exponential mean must be finite and > 0, got {self.mean}")
        elif self.kind == "uniform":
            if not -math.inf < self.a <= self.b < math.inf:
                out.append(f"uniform requires finite a <= b, got a={self.a} b={self.b}")
        elif self.kind == "constant":
            if not math.isfinite(self.value):
                out.append(f"constant value must be finite, got {self.value}")
        elif self.kind == "two_point":
            if not 0.0 <= self.p <= 1.0:
                out.append(f"two_point p must be in [0,1], got {self.p}")
            if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
                out.append(f"two_point lo and hi must be finite, got lo={self.lo} hi={self.hi}")
        else:
            out.append(f"unknown distribution kind {self.kind!r}")
        return out

    def sample(self, stream: RngStream) -> float:
        if self.kind == "constant":
            return self.value
        u = stream.uniform01()
        if self.kind == "exponential":
            return -self.mean * math.log(1.0 - u)
        if self.kind == "uniform":
            return self.a + u * (self.b - self.a)
        if self.kind == "two_point":
            return self.hi if u < self.p else self.lo
        raise ValueError(f"unknown distribution kind {self.kind!r}")

    def mean_value(self) -> float:
        """Analytic mean, used by capacity forecasting."""
        if self.kind == "constant":
            return self.value
        if self.kind == "exponential":
            return self.mean
        if self.kind == "uniform":
            return (self.a + self.b) / 2.0
        if self.kind == "two_point":
            return self.p * self.hi + (1.0 - self.p) * self.lo
        raise ValueError(f"unknown distribution kind {self.kind!r}")

    def max_value(self) -> float:
        """Upper bound of the support; infinite for exponential."""
        if self.kind == "constant":
            return self.value
        if self.kind == "exponential":
            return math.inf
        if self.kind == "uniform":
            return self.b
        if self.kind == "two_point":
            return max(self.lo, self.hi)
        raise ValueError(f"unknown distribution kind {self.kind!r}")

    def to_json(self) -> dict:
        if self.kind == "exponential":
            return {"kind": "exponential", "mean": self.mean}
        if self.kind == "uniform":
            return {"kind": "uniform", "a": self.a, "b": self.b}
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        return {"kind": "two_point", "p": self.p, "lo": self.lo, "hi": self.hi}

    @staticmethod
    def from_json(obj: dict) -> "Dist":
        kind = obj.get("kind")
        if kind == "exponential":
            return Dist.exponential(float(obj["mean"]))
        if kind == "uniform":
            return Dist.uniform(float(obj["a"]), float(obj["b"]))
        if kind == "constant":
            return Dist.constant(float(obj["value"]))
        if kind == "two_point":
            return Dist.two_point(float(obj["p"]), float(obj["lo"]), float(obj["hi"]))
        raise ValueError(f"unknown distribution kind {kind!r}")


def draw(stream: RngStream, dist: Dist) -> float:
    """Sample dist on the stream, advancing its counter."""
    return dist.sample(stream)


def draw_ms(stream: RngStream, dist: Dist) -> int:
    """Sample a duration and round it to whole non-negative milliseconds."""
    return max(0, round(dist.sample(stream)))


# ---------------------------------------------------------------------------
# Event queue and log


@dataclass
class EventHandle:
    fire_at: int
    seq: int
    target: str
    payload: Any
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


@dataclass
class LogEntry:
    t: int
    component: str
    record: dict

    def to_json_line(self) -> str:
        return json.dumps(
            {"t": self.t, "component": self.component, "record": self.record},
            sort_keys=True,
            separators=(",", ":"),
        )


class EventLog:
    """Append-only, time-ordered record of what the simulation did."""

    def __init__(self):
        self.entries: list[LogEntry] = []

    def append(self, t: int, component: str, record: dict) -> None:
        if self.entries and t < self.entries[-1].t:
            raise ValueError(
                f"log entry at t={t} is earlier than last entry at t={self.entries[-1].t}"
            )
        self.entries.append(LogEntry(t, component, record))

    def to_ndjson(self) -> str:
        return "".join(e.to_json_line() + "\n" for e in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


# ---------------------------------------------------------------------------
# The kernel


class Simulator:
    """Single-logical-thread event kernel driving all state machines.

    Components register a handler under their component id; an event's payload
    is delivered to its target's handler. A payload that is itself callable
    may be scheduled against an unregistered target and is invoked directly
    (continuation style); the target id still attributes aborts and logs.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0
        self.log = EventLog()
        self._heap: list[tuple[int, int, EventHandle]] = []
        self._seq = 0
        self._handlers: dict[str, Callable[[Any], None]] = {}
        self._streams: dict[str, RngStream] = {}

    # -- streams

    def stream(self, stream_id: str) -> RngStream:
        st = self._streams.get(stream_id)
        if st is None:
            st = RngStream(self.seed, stream_id)
            self._streams[stream_id] = st
        return st

    # -- scheduling

    def register(self, component_id: str, handler: Callable[[Any], None]) -> None:
        if component_id in self._handlers:
            raise ValueError(f"component {component_id!r} already registered")
        self._handlers[component_id] = handler

    def schedule(self, payload: Any, target: str, delay: int) -> EventHandle:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        handle = EventHandle(self.now + int(delay), self._seq, target, payload)
        heapq.heappush(self._heap, (handle.fire_at, handle.seq, handle))
        self._seq += 1
        return handle

    def cancel(self, handle: EventHandle) -> None:
        handle.cancel()

    def record(self, component: str, record: dict) -> None:
        self.log.append(self.now, component, record)

    # -- execution

    def run_until(self, t_end: int) -> EventLog:
        if t_end < self.now:
            raise ValueError(f"t_end={t_end} is before now={self.now}")
        while self._heap and self._heap[0][0] <= t_end:
            fire_at, seq, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self.now = fire_at
            try:
                self._dispatch(handle)
            except SimulationAbort:
                raise
            except Exception as exc:
                raise SimulationAbort(self.now, handle.target, seq, exc) from exc
        self.now = t_end
        return self.log

    def _dispatch(self, handle: EventHandle) -> None:
        handler = self._handlers.get(handle.target)
        if handler is not None:
            handler(handle.payload)
        elif callable(handle.payload):
            handle.payload()
        else:
            raise ValueError(
                f"no handler for target {handle.target!r} and payload is not callable"
            )
