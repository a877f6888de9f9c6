"""Pluggable per-element engines: batch compute and a replicated,
versioned key-value store.

The kv store writes to a majority of a key's replica set before
acknowledging and reads back the highest version among a majority of
responses, repairing stale responders. Versions are allocated through the
cloudlet's metadata order, so concurrent writers to one key serialize.
Each put builds one immutable VersionedValue; the replicas store it, reads
reply with it, read repair and re-replication push it, and a get returns
it, all by reference.
Compute tasks run FIFO per element at allocation.cpu * throttle_factor
cores; a task interrupted by a crash is re-executed from scratch on
another serving member each time, and lost once no such member is left.
"""

from __future__ import annotations

from collections import deque
import math
from typing import Callable, NamedTuple, Optional

from .defaults import DEFAULTS
from .errors import (
    NoLiveElement,
    NoSourceReplica,
    QuorumUnavailable,
    UnknownKey,
)
from .infrastructure import CloudElement
from .kernel import Simulator, StepHistory, flag_area
from .membership import CloudletRuntime
from .network import Network, OpHandle, Round, majority

COMPUTE = "compute"
KV_STORE = "kv_store"

ENGINE_KINDS = (COMPUTE, KV_STORE)


# ---------------------------------------------------------------------------
# Quorum decision kernel (shared by the event-driven services and the
# synchronous interleaving harness in the test suite)


class VersionedValue(NamedTuple):
    """One kv write. A put builds it once; the replicas that store it, read
    repair and the get that returns it all hold this same object."""

    key: str
    value: object
    version: int
    size: int = 0


def merge_read_replies(
    replies: dict,
) -> tuple[int, Optional[VersionedValue], list[str]]:
    """Pick the winning record among read replies and list the stale
    responders that need repair. A replica without the key replies None,
    which counts as version 0; with no record at all the winner is None."""
    best_version, best = 0, None
    versions = []
    for eid, record in sorted(replies.items()):
        version = record.version if record is not None else 0
        versions.append((eid, version))
        if version > best_version:
            best_version, best = version, record
    stale = [eid for eid, version in versions if version < best_version]
    return best_version, best, stale


# ---------------------------------------------------------------------------
# Element-side engines


class KvReplicaEngine:
    """Per-element persistent store fragment: each key maps to the record
    of the highest version this replica has applied."""

    def __init__(self):
        self.store: dict[str, VersionedValue] = {}

    def apply_write(self, record: VersionedValue) -> None:
        current = self.store.get(record.key)
        if current is None or record.version > current.version:
            self.store[record.key] = record

    def read(self, key: str) -> Optional[VersionedValue]:
        return self.store.get(key)


class Task:
    """A compute task: its work in cpu-seconds at one core and its arrival
    time."""

    __slots__ = ("task_id", "work_units", "arrival")

    def __init__(self, task_id: str, work_units: float, arrival: int):
        self.task_id = task_id
        self.work_units = work_units
        self.arrival = arrival


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
        self.busy_history = StepHistory(sim.now, False, flag_area)

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
            self.busy_history.append(self.sim.now, True)
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
        self.busy_history.append(self.sim.now, False)
        self.on_task_done(task, self.element)
        self._maybe_start()

    def interrupt_all(self) -> list[Task]:
        """Crash/evict: return every queued and in-flight task; queue is volatile."""
        out = []
        if self.current is not None:
            out.append(self.current)
            self.sim.cancel(self._finish_handle)
            self._finish_handle = None
            self.current = None
            self.busy_history.append(self.sim.now, False)
        out.extend(self.queue)
        self.queue.clear()
        return out

    def busy_ms(self, start: int, end: int) -> int:
        """Milliseconds spent running a task within [start, end)."""
        return self.busy_history.integral(start, end)


# ---------------------------------------------------------------------------
# Cloudlet-level services


class KvService:
    """Client-path quorum operations against one kv cloudlet.

    A client's binding to a key is the view version it bound at, kept in
    the client's key -> binding table. A get binds an unbound key; a get
    presented with a stale binding re-binds exactly once and proceeds
    against the key's current replica set.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        runtime: CloudletRuntime,
        op_timeout_ms: int = DEFAULTS["op_timeout_ms"],
        copy_ms_per_mb: float = DEFAULTS["copy_ms_per_mb"],
    ):
        self.sim = sim
        self.net = net
        self.runtime = runtime
        self.op_timeout_ms = op_timeout_ms
        self.copy_ms_per_mb = copy_ms_per_mb
        self.rebinds = 0
        self._component = f"kv:{runtime.cloudlet_id}"

    def _replica_elements(self, replica_ids: list[str]) -> list[CloudElement]:
        return [self.runtime.elements[eid] for eid in replica_ids]

    def _log_op(self, record: dict) -> None:
        self.sim.record(self._component, record)

    # -- put ------------------------------------------------------------------

    def put(self, key: str, value: object, size: int = 0) -> OpHandle:
        """Write value; acknowledged once a majority of the key's replica set
        holds it. The first put creates the key through the metadata order."""
        handle = OpHandle()
        meta = self.runtime.metadata_quorum_update(("ensure_key", key))

        def after_meta(meta_handle: OpHandle):
            if not meta_handle.ok():
                handle._finish(self.sim.now, error=meta_handle.error)
                return
            record = VersionedValue(key, value, meta_handle.result["key_version"], size)
            replicas = meta_handle.result["replicas"]
            targets = self._replica_elements(replicas)
            need = majority(len(replicas))

            def on_success(replies):
                self._log_op(
                    {"event": "put_ack", "key": key, "version": record.version,
                     "replicas": sorted(replies)}
                )
                handle._finish(self.sim.now, result=record.version)

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
                lambda el: el.engine.apply_write(record),
                quorum=need,
                timeout_ms=self.op_timeout_ms,
                on_success=on_success,
                on_failure=on_failure,
            )

        meta.on_complete(after_meta)
        return handle

    # -- get ------------------------------------------------------------------

    def get(self, key: str, bindings: Optional[dict[str, int]] = None) -> OpHandle:
        """Read from a majority of the key's replica set; returns the record
        of the highest version among responses and pushes it to stale
        responders.

        With a client's ``bindings`` table, an unbound key is bound first;
        if that fails it stays unbound and the read proceeds. A stale
        binding re-binds exactly once; if that fails the entry is dropped
        and the get fails with NoLiveElement."""
        handle = OpHandle()
        if key not in self.runtime.metadata.replica_map:
            handle._finish(self.sim.now, error=UnknownKey(f"key {key!r} unknown"))
            return handle
        if bindings is not None:
            binding = bindings.get(key)
            if binding is None:
                try:
                    bindings[key] = self.runtime.bind(key)
                except NoLiveElement:
                    pass  # the key stays unbound and the read proceeds
            elif self.runtime.binding_stale(binding):
                # staleness signal: exactly one re-bind, then proceed
                self.rebinds += 1
                self._log_op({"event": "rebind", "key": key})
                try:
                    bindings[key] = self.runtime.bind(key)
                except NoLiveElement as exc:
                    del bindings[key]
                    handle._finish(self.sim.now, error=exc)
                    return handle
        replicas = list(self.runtime.metadata.replica_map[key])
        targets = self._replica_elements(replicas)
        need = majority(len(replicas))
        winner = None

        def push_repair(eid):
            el = self.runtime.elements[eid]
            self.net.send_to_element(el, lambda: el.engine.apply_write(winner))

        def on_success(replies):
            nonlocal winner
            version, winner, stale = merge_read_replies(replies)
            if winner is None:
                handle._finish(
                    self.sim.now, error=UnknownKey(f"key {key!r} has no acked value")
                )
                return
            for eid in stale:
                push_repair(eid)
            self._log_op({"event": "get_ok", "key": key, "version": version})
            handle._finish(self.sim.now, result=winner)

        def on_failure(replies):
            handle._finish(
                self.sim.now,
                error=QuorumUnavailable(
                    f"get {key!r}: {len(replies)}/{len(replicas)} replies, need {need}"
                ),
            )

        def on_late(eid, reply):
            # a straggler replying after the quorum also gets read-repaired
            if winner is not None and (reply is None or reply.version < winner.version):
                push_repair(eid)

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
        """Copy the highest live version of key onto target, timed by that
        version's size, and swap it into the replica set in place of the
        dead members."""
        handle = OpHandle()
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
            version, record, _stale = merge_read_replies(replies)
            size = record.size if record is not None else 0
            copy_delay = round(size / (1024.0 * 1024.0) * self.copy_ms_per_mb)

            def deliver_copy():
                if record is not None:  # None: no live replica holds the key
                    target.engine.apply_write(record)
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
    """Task submission, FIFO execution, and crash recovery by retry."""

    def __init__(self, sim: Simulator, net: Network, runtime: CloudletRuntime):
        self.sim = sim
        self.net = net
        self.runtime = runtime
        self.submitted = 0
        self.completed = 0
        self.lost = 0
        self.total_work = 0.0
        self.in_transit = 0
        # submission times, oldest first, trimmed to the last window asked for
        self._arrival_times: deque[int] = deque()
        self._component = f"compute:{runtime.cloudlet_id}"

    def _log(self, record: dict) -> None:
        self.sim.record(self._component, record)

    def submit_task(self, task: Task, element_id: str) -> None:
        """Accept a task and send it to element_id, the element the
        dispatcher routed it to; its outcome is logged as task_completed or
        task_lost. A retry goes to the best-effort pick."""
        self.submitted += 1
        self.total_work += task.work_units
        self._arrival_times.append(task.arrival)
        self._log(
            {"event": "task_submitted", "task": task.task_id, "work": task.work_units}
        )
        self._send_to(task, self.runtime.elements[element_id])

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

    def handle_element_failure(self, element: CloudElement) -> None:
        """Crash or eviction: recover the element's queued and running tasks."""
        for task in element.engine.interrupt_all():
            self._retry_or_lose(task, exclude=element.element_id)

    def _retry_or_lose(self, task: Task, exclude: str) -> None:
        """Send an interrupted task to another serving member, as often as
        it is interrupted; it is lost only when no such member is left."""
        try:
            element = self.runtime.best_effort_pick(exclude=exclude)
        except NoLiveElement:
            self._lose(task, "no live element for retry")
            return
        self._log(
            {"event": "task_retry", "task": task.task_id, "element": element.element_id}
        )
        self._send_to(task, element)

    def _lose(self, task: Task, reason: str) -> None:
        self.lost += 1
        self._log({"event": "task_lost", "task": task.task_id, "reason": reason})

    def in_flight(self) -> int:
        """Tasks accepted but neither completed nor lost."""
        queued = 0
        for el in self.runtime.elements.values():
            queued += len(el.engine.queue) + (1 if el.engine.current else 0)
        return queued + self.in_transit

    def arrival_rate_per_ms(self, window_ms: int, now: int) -> float:
        """Submissions per ms over [now - window_ms, now]. Arrivals before
        the window are dropped, so a later call may not ask for a longer
        window."""
        start = max(0, now - window_ms)
        arrivals = self._arrival_times
        while arrivals and arrivals[0] < start:
            arrivals.popleft()
        if now <= start:
            return 0.0
        return len(arrivals) / (now - start)
