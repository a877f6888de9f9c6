"""Pluggable per-element engines: batch compute and a replicated,
versioned key-value store.

The kv store writes to a majority of a key's replica set before
acknowledging and reads back the highest version among a majority of
responses, repairing stale responders. Versions are allocated through the
cloudlet's metadata order, so concurrent writers to one key serialize.
Compute tasks run FIFO per element at allocation.cpu * throttle_factor
cores; a task interrupted by a crash is re-executed from scratch exactly
once on another live element.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
import math
from typing import Callable, Optional

from .errors import (
    NoLiveElement,
    NoSourceReplica,
    QuorumUnavailable,
    TaskLost,
    UnknownKey,
)
from .infrastructure import CloudElement
from .kernel import Simulator
from .membership import Binding, CloudletRuntime
from .network import Network, OpHandle, Round

COMPUTE = "compute"
KV_STORE = "kv_store"

ENGINE_KINDS = (COMPUTE, KV_STORE)

DEFAULT_COPY_MS_PER_MB = 100.0


# ---------------------------------------------------------------------------
# Quorum decision kernel (shared by the event-driven services and the
# synchronous interleaving harness in the test suite)


def majority(n: int) -> int:
    return n // 2 + 1


def merge_read_replies(replies: dict) -> tuple[int, object, list[str]]:
    """Pick the winning (version, value) among read replies and list the
    stale responders that need repair. A replica without the key replies
    (0, None)."""
    best_version = 0
    best_value = None
    for eid in sorted(replies):
        reply = replies[eid]
        if reply is None:
            continue
        version, value = reply
        if version > best_version:
            best_version, best_value = version, value
    stale = [
        eid
        for eid in sorted(replies)
        if (replies[eid][0] if replies[eid] is not None else 0) < best_version
    ]
    return best_version, best_value, stale


# ---------------------------------------------------------------------------
# Element-side engines


class KvReplicaEngine:
    """Per-element persistent store fragment plus metadata replica."""

    def __init__(self, element: CloudElement):
        self.element = element
        self.store: dict[str, tuple[int, object, int]] = {}  # key -> (version, value, size)
        self.metadata_watermark = 0

    def apply_write(self, key: str, version: int, value: object, size: int) -> int:
        current = self.store.get(key, (0, None, 0))[0]
        if version > current:
            self.store[key] = (version, value, size)
        return max(version, current)

    def read(self, key: str) -> Optional[tuple[int, object]]:
        entry = self.store.get(key)
        if entry is None:
            return None
        return (entry[0], entry[1])

    def apply_metadata(self, version: int) -> None:
        self.metadata_watermark = max(self.metadata_watermark, version)


@dataclass
class Task:
    task_id: str
    work_units: float  # cpu-seconds at one core
    arrival: int
    deadline: Optional[int] = None
    agreement_id: Optional[str] = None
    retried: bool = False


class ComputeElementEngine:
    """FIFO task execution at the element's effective cpu rate."""

    def __init__(self, sim: Simulator, element: CloudElement, on_task_done: Callable):
        self.sim = sim
        self.element = element
        self.on_task_done = on_task_done
        self.queue: deque[Task] = deque()
        self.current: Optional[Task] = None
        self._remaining: float = 0.0
        self._since: int = 0
        self._armed_rate: float = 0.0
        self._finish_handle = None
        self.busy_history: list[tuple[int, bool]] = []

    def effective_cpu(self) -> float:
        return self.element.allocation.cpu * self.element.throttle_factor

    def enqueue(self, task: Task) -> None:
        self.queue.append(task)
        self._maybe_start()

    def _maybe_start(self) -> None:
        if self.current is None and self.queue and self.element.is_serving():
            task = self.queue.popleft()
            self.current = task
            self._remaining = task.work_units
            self.busy_history.append((self.sim.now, True))
            self._arm_finish()

    def _arm_finish(self) -> None:
        self._since = self.sim.now
        self._armed_rate = self.effective_cpu()
        if self._armed_rate <= 0:
            self._finish_handle = None  # parked until the rate recovers
            return
        delay = math.ceil(self._remaining * 1000.0 / self._armed_rate)
        self._finish_handle = self.sim.schedule(
            self._finish, f"element:{self.element.element_id}", delay
        )

    def on_rate_change(self) -> None:
        """Throttle factor moved: settle work done at the armed rate, then
        re-arm the finish event at the new rate."""
        if self.current is not None:
            if self._finish_handle is not None:
                self.sim.cancel(self._finish_handle)
            elapsed = self.sim.now - self._since
            self._remaining = max(
                0.0, self._remaining - elapsed * self._armed_rate / 1000.0
            )
            self._arm_finish()
        else:
            self._maybe_start()

    def _finish(self) -> None:
        task = self.current
        self._finish_handle = None
        self.current = None
        self._remaining = 0.0
        self.busy_history.append((self.sim.now, False))
        self.on_task_done(task, self.element)
        self._maybe_start()

    def interrupt_all(self) -> list[Task]:
        """Crash/evict: return every queued and in-flight task; queue is volatile."""
        out = []
        if self.current is not None:
            out.append(self.current)
            if self._finish_handle is not None:
                self.sim.cancel(self._finish_handle)
                self._finish_handle = None
            self.current = None
            self.busy_history.append((self.sim.now, False))
        out.extend(self.queue)
        self.queue.clear()
        return out

    def busy_ms(self, start: int, end: int) -> int:
        total = 0
        hist = self.busy_history
        for i, (t, busy) in enumerate(hist):
            seg_start = max(t, start)
            seg_end = hist[i + 1][0] if i + 1 < len(hist) else end
            seg_end = min(seg_end, end)
            if busy and seg_end > seg_start:
                total += seg_end - seg_start
        return total


# ---------------------------------------------------------------------------
# Cloudlet-level services


@dataclass(frozen=True)
class VersionedValue:
    key: str
    value: object
    version: int
    size: int = 0


class KvService:
    """Client-path quorum operations against one kv cloudlet.

    A client holds a binding (live replica list plus view version) per key;
    an operation presented with a stale binding re-binds exactly once and
    proceeds against the fresh replica set.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        runtime: CloudletRuntime,
        op_timeout_ms: int = 2000,
        copy_ms_per_mb: float = DEFAULT_COPY_MS_PER_MB,
    ):
        self.sim = sim
        self.net = net
        self.runtime = runtime
        self.op_timeout_ms = op_timeout_ms
        self.copy_ms_per_mb = copy_ms_per_mb
        self.rebinds = 0

    def _replica_elements(self, replica_ids: list[str]) -> list[CloudElement]:
        return [
            self.runtime.elements[eid]
            for eid in replica_ids
            if eid in self.runtime.elements
        ]

    def _log_op(self, record: dict) -> None:
        self.sim.record(f"kv:{self.runtime.cloudlet_id}", record)

    # -- put ------------------------------------------------------------------

    def put(self, key: str, value: object, size: int = 0) -> OpHandle:
        """Write value; acknowledged once a majority of the key's replica set
        holds it. The first put creates the key through the metadata order."""
        handle = OpHandle("put")
        meta = self.runtime.metadata_quorum_update(("ensure_key", key, size))

        def after_meta(meta_handle: OpHandle):
            if not meta_handle.ok():
                handle._finish(self.sim.now, error=meta_handle.error)
                return
            version = meta_handle.result["key_version"]
            replicas = meta_handle.result["replicas"]
            targets = self._replica_elements(replicas)
            need = majority(len(replicas))

            def on_success(replies):
                self._log_op(
                    {"event": "put_ack", "key": key, "version": version,
                     "replicas": sorted(replies)}
                )
                handle._finish(self.sim.now, result=version)

            def on_failure(replies):
                handle._finish(
                    self.sim.now,
                    error=QuorumUnavailable(
                        f"put {key!r}: {len(replies)}/{len(replicas)} acks, need {need}"
                    ),
                )

            Round(
                self.net,
                targets,
                lambda el: el.engine.apply_write(key, version, value, size),
                quorum=need,
                timeout_ms=self.op_timeout_ms,
                on_success=on_success,
                on_failure=on_failure,
            )

        meta.on_complete(after_meta)
        return handle

    # -- get ------------------------------------------------------------------

    def get(self, key: str, binding: Optional[Binding] = None) -> OpHandle:
        """Read from a majority of the key's replica set; returns the highest
        version among responses and pushes it to stale responders."""
        handle = OpHandle("get")
        if key not in self.runtime.metadata.replica_map:
            handle._finish(self.sim.now, error=UnknownKey(f"key {key!r} unknown"))
            return handle
        if binding is not None and self.runtime.binding_stale(binding):
            # staleness signal: exactly one re-bind, then proceed
            self.rebinds += 1
            self._log_op({"event": "rebind", "key": key})
            try:
                binding = self.runtime.bind("kv-client", key)
            except (UnknownKey, NoLiveElement) as exc:
                handle._finish(self.sim.now, error=exc)
                return handle
        replicas = list(self.runtime.metadata.replica_map[key])
        targets = self._replica_elements(replicas)
        need = majority(len(replicas))
        winner: dict = {}

        def push_repair(eid, version, value, size):
            el = self.runtime.elements.get(eid)
            if el is not None:
                self.net.send_to_element(
                    el, lambda: el.engine.apply_write(key, version, value, size)
                )

        def on_success(replies):
            version, value, stale = merge_read_replies(replies)
            if version == 0:
                handle._finish(
                    self.sim.now, error=UnknownKey(f"key {key!r} has no acked value")
                )
                return
            size = self.runtime.metadata.key_sizes.get(key, 0)
            winner.update(version=version, value=value, size=size)
            for eid in stale:
                push_repair(eid, version, value, size)
            self._log_op({"event": "get_ok", "key": key, "version": version})
            handle._finish(
                self.sim.now, result=VersionedValue(key, value, version, size)
            )

        def on_failure(replies):
            handle._finish(
                self.sim.now,
                error=QuorumUnavailable(
                    f"get {key!r}: {len(replies)}/{len(replicas)} replies, need {need}"
                ),
            )

        def on_late(eid, reply):
            # a straggler replying after the quorum also gets read-repaired
            if winner and (reply is None or reply[0] < winner["version"]):
                push_repair(eid, winner["version"], winner["value"], winner["size"])

        Round(
            self.net,
            targets,
            lambda el: el.engine.read(key),
            quorum=need,
            timeout_ms=self.op_timeout_ms,
            on_success=on_success,
            on_failure=on_failure,
            on_late=on_late,
        )
        return handle

    # -- repair ----------------------------------------------------------------

    def repair_replicas(self, key: str, target_eid: str) -> OpHandle:
        """Copy the highest live version of key onto target and swap it into
        the replica set in place of the dead members."""
        handle = OpHandle("repair")
        if key not in self.runtime.metadata.replica_map:
            handle._finish(self.sim.now, error=UnknownKey(f"key {key!r} unknown"))
            return handle
        target = self.runtime.elements.get(target_eid)
        if target is None or not target.is_serving():
            handle._finish(
                self.sim.now, error=NoLiveElement(f"repair target {target_eid} not serving")
            )
            return handle
        replicas = list(self.runtime.metadata.replica_map[key])
        sources = [el for el in self._replica_elements(replicas) if el.is_serving()]
        if not sources:
            handle._finish(
                self.sim.now, error=NoSourceReplica(f"all replicas of {key!r} lost")
            )
            return handle

        def on_replies(replies):
            version, value, _stale = merge_read_replies(replies)
            if version == 0:
                # live replicas hold no data for the key (no put ever acked)
                version, value = 0, None
            size = self.runtime.metadata.key_sizes.get(key, 0)
            copy_delay = round(size / (1024.0 * 1024.0) * self.copy_ms_per_mb)

            def deliver_copy():
                target.engine.apply_write(key, version, value, size)
                live = [eid for eid in replicas if eid in self.runtime.view.members]
                new_set = live + [target_eid]
                meta = self.runtime.metadata_quorum_update(("set_replicas", key, new_set))

                def after_meta(meta_handle: OpHandle):
                    if meta_handle.ok():
                        self._log_op(
                            {"event": "repair_done", "key": key, "target": target_eid,
                             "version": version}
                        )
                        handle._finish(self.sim.now, result=version)
                    else:
                        handle._finish(self.sim.now, error=meta_handle.error)

                meta.on_complete(after_meta)

            self.net.send_to_element(
                target,
                deliver_copy,
                on_drop=lambda: handle._finish(
                    self.sim.now,
                    error=NoLiveElement(f"repair target {target_eid} died mid-copy"),
                ),
                extra_delay=copy_delay,
            )

        Round(
            self.net,
            sources,
            lambda el: el.engine.read(key),
            quorum=len(sources),
            timeout_ms=self.op_timeout_ms,
            on_success=on_replies,
            on_failure=lambda replies: (
                on_replies(replies)
                if replies
                else handle._finish(
                    self.sim.now, error=NoSourceReplica(f"no replica of {key!r} answered")
                )
            ),
        )
        return handle


class ComputeService:
    """Task submission, FIFO execution, and single-retry crash recovery."""

    def __init__(self, sim: Simulator, net: Network, runtime: CloudletRuntime):
        self.sim = sim
        self.net = net
        self.runtime = runtime
        self.submitted = 0
        self.completed = 0
        self.lost = 0
        self.total_work = 0.0
        self.in_transit = 0
        self._handles: dict[str, OpHandle] = {}
        self._arrival_times: list[int] = []

    def _log(self, record: dict) -> None:
        self.sim.record(f"compute:{self.runtime.cloudlet_id}", record)

    def submit_task(self, task: Task, element_id: Optional[str] = None) -> OpHandle:
        handle = OpHandle("task")
        self._handles[task.task_id] = handle
        self.submitted += 1
        self.total_work += task.work_units
        self._arrival_times.append(task.arrival)
        self._log(
            {"event": "task_submitted", "task": task.task_id, "work": task.work_units}
        )
        try:
            if element_id is not None:
                element = self.runtime.elements[element_id]
                if not element.is_serving():
                    raise NoLiveElement(f"element {element_id} not serving")
            else:
                element = self.runtime.best_effort_pick()
        except NoLiveElement as exc:
            self._lose(task, str(exc))
            return handle
        self._send_to(task, element)
        return handle

    def _send_to(self, task: Task, element: CloudElement) -> None:
        self.in_transit += 1

        def deliver():
            self.in_transit -= 1
            element.engine.enqueue(task)

        def dropped():
            self.in_transit -= 1
            self._retry_or_lose(task, exclude=element.element_id)

        self.net.send_to_element(element, deliver, on_drop=dropped)

    def on_task_done(self, task: Task, element: CloudElement) -> None:
        self.completed += 1
        latency = self.sim.now - task.arrival
        self._log(
            {
                "event": "task_completed",
                "task": task.task_id,
                "element": element.element_id,
                "latency_ms": latency,
            }
        )
        handle = self._handles.pop(task.task_id, None)
        if handle is not None:
            handle._finish(self.sim.now, result=(element.element_id, self.sim.now))

    def handle_element_failure(self, element: CloudElement) -> None:
        """Crash or eviction: recover the element's queued and running tasks."""
        engine = element.engine
        if engine is None:
            return
        for task in engine.interrupt_all():
            self._retry_or_lose(task, exclude=element.element_id)

    def _retry_or_lose(self, task: Task, exclude: str) -> None:
        if task.retried:
            self._lose(task, "already retried once")
            return
        task.retried = True
        candidates = [
            el for el in self.runtime.serving_members() if el.element_id != exclude
        ]
        if not candidates:
            self._lose(task, "no live element for retry")
            return
        element = min(
            candidates,
            key=lambda el: (-self.runtime.node_cpu_headroom(el.node_id), el.element_id),
        )
        self._log(
            {"event": "task_retry", "task": task.task_id, "element": element.element_id}
        )
        self._send_to(task, element)

    def _lose(self, task: Task, reason: str) -> None:
        self.lost += 1
        self._log({"event": "task_lost", "task": task.task_id, "reason": reason})
        handle = self._handles.pop(task.task_id, None)
        if handle is not None:
            handle._finish(self.sim.now, error=TaskLost(reason))

    def in_flight(self) -> int:
        """Tasks accepted but neither completed nor lost."""
        queued = 0
        for el in self.runtime.elements.values():
            if el.engine is not None and isinstance(el.engine, ComputeElementEngine):
                queued += len(el.engine.queue) + (1 if el.engine.current else 0)
        return queued + self.in_transit

    def arrival_rate_per_ms(self, window_ms: int, now: int) -> float:
        start = max(0, now - window_ms)
        recent = [t for t in self._arrival_times if t >= start]
        if now <= start:
            return 0.0
        return len(recent) / (now - start)
