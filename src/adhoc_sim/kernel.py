"""Deterministic discrete-event kernel.

Virtual time is integer milliseconds; there is no floating-point clock, so a
run is reproducible bit-for-bit across platforms. Events at equal timestamps
fire in insertion (seq) order. Randomness comes from named streams whose
draws are a pure function of (seed, stream_id, counter): adding a stochastic
process never perturbs the draws seen by another. There is one draw path: a
process holds a ``Dist.sampler`` built once, which turns each
``RngStream.next_u64`` into a value; the distribution formulas live only
there. Every log line is encoded by one prebuilt JSON encoder.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from bisect import bisect_left, bisect_right
from heapq import heappop as _heappop, heappush as _heappush
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, NamedTuple, Optional


class SimulationAbort(Exception):
    """An event handler raised: the run stops with the offending event
    identified. ``seq`` is None when ``target`` raised before any event, as
    the build of a simulation may."""

    def __init__(self, at: int, target: str, seq: Optional[int], cause: BaseException):
        self.at = at
        self.target = target
        self.seq = seq
        self.cause = cause
        where = f"in {target!r}, before any event" if seq is None else (
            f"while delivering event seq={seq} to {target!r}"
        )
        super().__init__(f"aborted at t={at} {where}: {cause!r}")


# ---------------------------------------------------------------------------
# Random streams and distribution specs


# CPython's own SHA-256 costs less per call than OpenSSL's for a 10-20 byte
# input and gives the same digest; hashlib's serves an interpreter built
# without it
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256
_unpack_u64 = struct.Struct(">Q").unpack_from
_log = math.log


class RngStream:
    """Named reproducible stream: draw i is the first 8 bytes, read as a
    big-endian integer, of sha256(seed|stream_id|i). ``next_u64`` is the one
    draw entry point; a value of a distribution is drawn through a
    ``Dist.sampler`` over the stream."""

    __slots__ = ("counter", "_prefix")

    def __init__(self, seed: int, stream_id: str):
        self.counter = 0
        self._prefix = f"{seed}|{stream_id}|".encode()

    def next_u64(self) -> int:
        counter = self.counter
        self.counter = counter + 1
        return _unpack_u64(_sha256(self._prefix + b"%d" % counter).digest())[0]


def _whole_ms(x: float) -> int:
    """A duration rounded to whole non-negative milliseconds."""
    return max(0, round(x))


# the parameters each distribution kind takes
_DIST_PARAMS = {
    "exponential": ("mean",),
    "uniform": ("a", "b"),
    "constant": ("value",),
}


class Dist(NamedTuple):
    """Distribution spec: exponential(mean), uniform(a,b), constant(value).
    Values are drawn through ``sampler``, the one place that holds the
    formulas."""

    kind: str
    mean: float = 0.0
    a: float = 0.0
    b: float = 0.0
    value: float = 0.0

    @staticmethod
    def exponential(mean: float) -> "Dist":
        return Dist(kind="exponential", mean=mean)

    @staticmethod
    def uniform(a: float, b: float) -> "Dist":
        return Dist(kind="uniform", a=a, b=b)

    @staticmethod
    def constant(value: float) -> "Dist":
        return Dist(kind="constant", value=value)

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
        else:
            out.append(f"unknown distribution kind {self.kind!r}")
        return out

    def sampler(self, stream: RngStream, ms: bool = False) -> Callable[[], Any]:
        """A function that draws the next value from ``stream``; with ``ms``
        the value is rounded to whole non-negative milliseconds. A constant
        draws nothing; every other kind reads one ``next_u64`` per value as
        the 53-bit fraction u = (x >> 11) * 2**-53 in [0, 1), which is exact.

        The formulas live only here, each in one closure so that a draw is
        one Python call. The closure looks ``next_u64`` up on every draw,
        so a wrapper installed on ``RngStream`` sees each of them."""
        kind = self.kind
        if kind == "constant":
            value = _whole_ms(self.value) if ms else self.value
            return lambda: value
        if kind == "exponential":
            neg_mean = -self.mean
            if not ms:
                return lambda: neg_mean * _log(1.0 - (stream.next_u64() >> 11) * 2.0**-53)

            def exponential_ms():
                x = round(neg_mean * _log(1.0 - (stream.next_u64() >> 11) * 2.0**-53))
                return x if x > 0 else 0

            return exponential_ms
        if kind == "uniform":
            a, span = self.a, self.b - self.a
            if not ms:
                return lambda: a + (stream.next_u64() >> 11) * 2.0**-53 * span

            def uniform_ms():
                x = round(a + (stream.next_u64() >> 11) * 2.0**-53 * span)
                return x if x > 0 else 0

            return uniform_ms
        raise ValueError(f"unknown distribution kind {kind!r}")

    def mean_value(self) -> float:
        """Analytic mean, used by capacity forecasting."""
        if self.kind == "constant":
            return self.value
        if self.kind == "exponential":
            return self.mean
        if self.kind == "uniform":
            return (self.a + self.b) / 2.0
        raise ValueError(f"unknown distribution kind {self.kind!r}")

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for name in _DIST_PARAMS[self.kind]:
            out[name] = getattr(self, name)
        return out

    @staticmethod
    def from_json(obj: dict) -> "Dist":
        """Parse the document form: a kind and exactly its parameters, numbers
        that problems() accepts. Raises ValueError."""
        kind = obj.get("kind") if type(obj) is dict else None
        names = _DIST_PARAMS.get(kind) if type(kind) is str else None
        if names is None or len(obj) != len(names) + 1:
            raise ValueError(f"must be one of {list(_DIST_PARAMS)} with its parameters, got {obj!r}")
        params = {}
        for name in names:
            x = obj.get(name)
            if not (type(x) is float or type(x) is int and abs(x) <= sys.float_info.max):
                raise ValueError(f"{kind} takes the numbers {list(names)}, got {obj!r}")
            params[name] = float(x)
        dist = Dist(kind, **params)
        if dist.problems():
            raise ValueError("; ".join(dist.problems()))
        return dist


# ---------------------------------------------------------------------------
# Step-function history


def flag_area(flag: bool, dt: int) -> int:
    """Area of a boolean step over dt ms: dt while the flag holds."""
    return dt if flag else 0


class StepHistory:
    """Append-only step function of virtual time with its running integral.

    Breakpoints ``(t, value)`` arrive in non-decreasing time order. A value
    holds from its breakpoint until the next one (a repeated time makes a
    zero-length segment) and nothing is accrued before the first breakpoint.
    ``area(value, dt)`` is the integral of one segment of length dt > 0 and
    ``zero`` the empty integral. Each append folds the segment it closes into
    a prefix integral, so a window query is a ``bisect`` plus O(1) work.

    Exactness: integer areas are exact, so any window is a difference of two
    prefix integrals. A float or vector integral is the left fold from the
    first breakpoint that a scan of the whole history performs, so it is
    bit-identical to that scan when the window starts at or before the first
    breakpoint. A window that starts later is folded forward from the
    segment holding its start, in O(segments in the window); subtracting two
    prefix sums there would change the last bits of the result.

    ``len()`` and iteration over ``(t, value)`` pairs read the breakpoints.
    """

    __slots__ = ("_times", "_values", "_prefix", "_area")

    def __init__(self, t: int, value: Any, area: Callable[[Any, int], Any], zero: Any = 0):
        self._times = [t]
        self._values = [value]
        self._prefix = [zero]  # integral up to each breakpoint
        self._area = area

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self):
        return zip(self._times, self._values)

    def append(self, t: int, value: Any) -> None:
        total = self._prefix[-1]
        dt = t - self._times[-1]
        if dt > 0:
            total = total + self._area(self._values[-1], dt)
        self._times.append(t)
        self._values.append(value)
        self._prefix.append(total)

    def value_at(self, t: int) -> Any:
        """The value of the last breakpoint at or before t; the first value
        for a t before the first breakpoint."""
        return self._values[max(0, bisect_right(self._times, t) - 1)]

    def _integral_to(self, x: int) -> Any:
        """Integral from the first breakpoint up to x."""
        j = bisect_left(self._times, x) - 1
        if j < 0:
            return self._prefix[0]
        return self._prefix[j] + self._area(self._values[j], x - self._times[j])

    def integral(self, start: int, end: int) -> Any:
        """Integral of the step function over [start, end)."""
        total = self._prefix[0]
        if end <= start:
            return total
        times = self._times
        if start <= times[0]:
            return self._integral_to(end)
        if isinstance(total, int):
            return self._integral_to(end) - self._integral_to(start)
        values, area = self._values, self._area
        last = len(times) - 1
        for i in range(bisect_right(times, start) - 1, last + 1):
            seg_start = times[i]
            if seg_start >= end:
                break
            seg_end = min(times[i + 1], end) if i < last else end
            seg_start = max(seg_start, start)
            if seg_end > seg_start:
                total = total + area(values[i], seg_end - seg_start)
        return total


# ---------------------------------------------------------------------------
# Event queue and log


# sorted keys, no spaces: every record is encoded by one call of the C
# encoder, built once with the settings JSONEncoder.encode would pass it;
# where the C accelerator is missing, by JSONEncoder.encode itself
_encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
if c_make_encoder is None:
    _encode_record = lambda record, _level: (_encoder.encode(record),)  # noqa: E731
else:
    # (markers, default, encode_str, indent, key_sep, item_sep, sort_keys,
    # skipkeys, allow_nan); no markers: a record holds no reference cycle
    _encode_record = c_make_encoder(
        None, _encoder.default, encode_basestring_ascii, None, ":", ",", True, False, True
    )


def json_line(t: int, component: str, record: dict) -> str:
    """An entry's ndjson line, newline included: the object {"t",
    "component", "record"} with its keys in sorted order, as ``json.dumps``
    writes it with sorted keys and compact separators."""
    return '{"component":%s,"record":%s,"t":%d}\n' % (
        encode_basestring_ascii(component), "".join(_encode_record(record, 0)), t
    )


# a streamed log encodes and writes its entries this many at a time: encoding
# them in one burst costs measurably less host time than one at a time
# between events, and the entries held meanwhile are a few hundred KB at most
_STREAM_BATCH = 512


class LogEntry(NamedTuple):
    """One entry of an event log: its virtual time, component and record."""

    t: int
    component: str
    record: dict


class EventLog:
    """Append-only, time-ordered record of what the simulation did.

    ``fold``, when given, is called with ``(t, component, record)`` of each
    entry as it is appended, so a summary folded there needs no second pass
    over the log. What the log keeps besides depends on its arguments:

    - Neither (a bare ``EventLog()``): the log keeps every entry as a
      ``LogEntry`` in ``entries``, and iteration and ``len()`` read that
      list.
    - ``path``: the log writes each entry's ndjson line to the file at
      ``path``, a batch of entries at a time, and keeps no entry once it is
      written, so its size does not grow with the run. Iteration writes
      what is pending and reads the file back into ``LogEntry`` objects.
      ``close()`` writes what is pending and closes the file; ``discard()``
      closes and deletes it.
    - ``fold`` alone: the fold is the log's one reader, and the log keeps
      no entry at all; iterating it raises ``TypeError``.

    Unless the log keeps its entries in memory, ``len()`` counts the
    entries appended.
    """

    def __init__(self, path: Optional[str] = None,
                 fold: Optional[Callable[[int, str, dict], None]] = None):
        self.entries: list[LogEntry] = []
        self.path = path
        self._fold = fold
        self._keep = path is None and fold is None
        self._file = None if path is None else open(path, "w", encoding="utf-8")
        self._pending: list[tuple] = []  # (t, component, record) not yet written
        self._count = 0
        self._last_t = -math.inf

    def append(self, t: int, component: str, record: dict) -> None:
        if t < self._last_t:
            raise ValueError(f"log entry at t={t} is earlier than last entry at t={self._last_t}")
        self._last_t = t
        self._count += 1
        if self._keep:
            self.entries.append(LogEntry(t, component, record))
        elif self._file is not None:
            pending = self._pending
            pending.append((t, component, record))
            if len(pending) >= _STREAM_BATCH:
                self._flush()
        if self._fold is not None:
            self._fold(t, component, record)

    def _flush(self) -> None:
        """Encode and write the pending entries."""
        self._file.write("".join([json_line(t, c, r) for t, c, r in self._pending]))
        self._pending.clear()

    def close(self) -> None:
        if self._file is not None and not self._file.closed:
            self._flush()
            self._file.close()

    def discard(self) -> None:
        """Close a streamed log without writing what is pending, and delete
        its file."""
        self._pending.clear()
        self.close()
        if self.path is not None:
            os.remove(self.path)

    def _read_back(self):
        if not self._file.closed:
            self._flush()
            self._file.flush()
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                yield LogEntry(row["t"], row["component"], row["record"])

    def __iter__(self):
        if self._keep:
            return iter(self.entries)
        if self.path is None:
            raise TypeError("this log keeps no entries: only its fold reads them")
        return self._read_back()

    def __len__(self):
        return len(self.entries) if self._keep else self._count


# ---------------------------------------------------------------------------
# The kernel


class Simulator:
    """Single-logical-thread event kernel driving all state machines.

    An event is a callable payload, invoked with no arguments when it fires;
    its target id attributes aborts to a component. ``schedule`` returns the
    queue entry ``[fire_at, seq, payload, target]`` itself as the handle:
    ``cancel`` clears its payload slot, which frees what the payload held at
    once, and the run loop skips an entry whose payload is ``None``;
    ``cancel(None)`` does nothing.
    """

    def __init__(self, seed: int = 0, log: Optional[EventLog] = None):
        self.seed = seed
        self.now = 0
        self.log = EventLog() if log is None else log
        self._heap: list[list] = []  # [fire_at, seq, payload, target]
        self._seq = 0
        self._streams: dict[str, RngStream] = {}

    # -- streams

    def stream(self, stream_id: str) -> RngStream:
        st = self._streams.get(stream_id)
        if st is None:
            st = RngStream(self.seed, stream_id)
            self._streams[stream_id] = st
        return st

    # -- scheduling

    def schedule(self, payload: Callable[[], None], target: str, delay: int) -> list:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        seq = self._seq
        self._seq = seq + 1
        # seq is unique, so heap order never compares payloads
        entry = [self.now + int(delay), seq, payload, target]
        _heappush(self._heap, entry)
        return entry

    def cancel(self, handle: Optional[list]) -> None:
        if handle is not None:
            handle[2] = None

    def record(self, component: str, record: dict) -> None:
        self.log.append(self.now, component, record)

    # -- execution

    def run_until(self, t_end: int) -> EventLog:
        if t_end < self.now:
            raise ValueError(f"t_end={t_end} is before now={self.now}")
        heap = self._heap
        while heap and heap[0][0] <= t_end:
            entry = _heappop(heap)
            if entry[2] is None:
                continue
            self.now = entry[0]
            try:
                self._dispatch(entry)
            except SimulationAbort:
                raise
            except Exception as exc:
                raise SimulationAbort(self.now, entry[3], entry[1], exc) from exc
        self.now = t_end
        return self.log

    def _dispatch(self, entry: list) -> None:
        entry[2]()
