"""Per-cloudlet coordination: versioned membership, heartbeat failure
detection, replicated service metadata, and client binding.

Membership composition changes (join, leave, suspicion) each increment the
view version exactly once. Failure detection is heartbeat timeout: an element
is suspected when now - last_heartbeat > multiplier * interval (strict), so a
crashed element leaves the view within multiplier*interval + max network
latency of the crash.

Service metadata (the per-key replica map and version counters) is sequenced
by the coordinator, whose map is the only copy. Each mutation ships its
committed version to the first min(k, members) elements, which advance
their metadata watermark; it commits once a majority of those replicas
acknowledge. Suspected elements are removed immediately (fail-stop); there is
no rehabilitation phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import EngineMismatch, MetadataQuorumUnavailable, NoLiveElement, UnknownKey
from .infrastructure import DEAD, DEPLOYING, EVICTING, RUNNING, THROTTLED, CloudElement
from .kernel import Simulator
from .network import Network, OpHandle, Round
from .nodes import Node

DEFAULT_HEARTBEAT_MS = 10_000
DEFAULT_TIMEOUT_MULTIPLIER = 3


@dataclass(frozen=True)
class CloudletPolicy:
    target_replication: int = 3
    heartbeat_interval_ms: int = DEFAULT_HEARTBEAT_MS
    timeout_multiplier: int = DEFAULT_TIMEOUT_MULTIPLIER
    min_members: int = 1
    max_members: int = 10
    scale_high_watermark: float = 0.8
    scale_low_watermark: float = 0.2

    def problems(self) -> list[str]:
        out = []
        if self.target_replication < 1:
            out.append("target_replication must be >= 1")
        if self.timeout_multiplier < 2:
            out.append("timeout_multiplier must be >= 2")
        if self.min_members > self.max_members:
            out.append("min_members must be <= max_members")
        if self.heartbeat_interval_ms <= 0:
            out.append("heartbeat_interval_ms must be > 0")
        if not 0 <= self.scale_low_watermark <= self.scale_high_watermark <= 1:
            out.append("watermarks must satisfy 0 <= low <= high <= 1")
        return out


class MembershipView:
    def __init__(self):
        self.version = 0
        self.members: dict[str, tuple[str, str]] = {}  # eid -> (node_id, state)
        self.last_heartbeat: dict[str, int] = {}  # eid -> send time

    def member_ids(self) -> list[str]:
        return sorted(self.members)


@dataclass(frozen=True)
class Binding:
    cloudlet_id: str
    view_version: int
    elements: tuple[str, ...]
    key: Optional[str] = None


class MetadataState:
    """Replica map plus per-key version counters, totally ordered by the
    coordinator's metadata version."""

    def __init__(self):
        self.version = 0
        self.replica_map: dict[str, list[str]] = {}
        self.key_versions: dict[str, int] = {}
        self.key_sizes: dict[str, int] = {}


class CloudletRuntime:
    """Coordinator for one cloudlet, harness-hosted.

    Composition knowledge arrives through simulated messages (joins, leaves,
    heartbeats); the cosmetic member state field tracks element transitions
    directly without a version bump.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        cloudlet_id: str,
        engine_kind: str,
        policy: CloudletPolicy,
        nodes: dict[str, Node],
        metadata_timeout_ms: int = 2000,
    ):
        self.sim = sim
        self.net = net
        self.cloudlet_id = cloudlet_id
        self.engine_kind = engine_kind
        self.policy = policy
        self.nodes = nodes
        self.metadata_timeout_ms = metadata_timeout_ms
        self.view = MembershipView()
        self.metadata = MetadataState()
        self.elements: dict[str, CloudElement] = {}
        self.on_member_removed: list[Callable[[str], None]] = []
        self._hb_handles: dict[str, object] = {}
        self._expiry_handles: dict[str, object] = {}
        self._component = f"cloudlet:{cloudlet_id}"

    # -- element attachment and transition routing ---------------------------

    def attach_element(self, element: CloudElement) -> None:
        if element.engine_kind != self.engine_kind:
            raise EngineMismatch(
                f"element {element.element_id} has engine {element.engine_kind!r}, "
                f"cloudlet {self.cloudlet_id} runs {self.engine_kind!r}"
            )
        self.elements[element.element_id] = element

    def element_transition(self, el: CloudElement, old: str, new: str, reason: str) -> None:
        eid = el.element_id
        if new == RUNNING and old == DEPLOYING:
            self._start_heartbeats(el)
            sent_at = self.sim.now
            self.net.send(self._component, lambda: self.join(el, sent_at=sent_at))
        elif new == THROTTLED or (new == RUNNING and old == THROTTLED):
            if eid in self.view.members:
                node_id, _ = self.view.members[eid]
                self.view.members[eid] = (node_id, new)
        elif new == EVICTING:
            self._stop_heartbeats(eid)
            self.net.send(self._component, lambda: self.leave(eid))
        elif new == DEAD:
            self._stop_heartbeats(eid)  # crash: silence, timeout will detect

    # -- heartbeats ----------------------------------------------------------

    def _start_heartbeats(self, el: CloudElement) -> None:
        self._stop_heartbeats(el.element_id)
        self._schedule_beat(el)

    def _schedule_beat(self, el: CloudElement) -> None:
        def beat():
            if not el.is_serving():
                return
            sent_at = self.sim.now
            self.net.send(self._component, lambda: self.heartbeat(el.element_id, sent_at))
            self._schedule_beat(el)

        self._hb_handles[el.element_id] = self.sim.schedule(
            beat, f"element:{el.element_id}", self.policy.heartbeat_interval_ms
        )

    def _stop_heartbeats(self, eid: str) -> None:
        handle = self._hb_handles.pop(eid, None)
        if handle is not None:
            self.sim.cancel(handle)

    def _arm_expiry(self, eid: str, sent_at: int) -> None:
        old = self._expiry_handles.pop(eid, None)
        if old is not None:
            self.sim.cancel(old)
        timeout = self.policy.timeout_multiplier * self.policy.heartbeat_interval_ms
        fire_at = sent_at + timeout + 1
        self._expiry_handles[eid] = self.sim.schedule(
            lambda: self.detect_failures(self.sim.now),
            self._component,
            max(0, fire_at - self.sim.now),
        )

    # -- membership ----------------------------------------------------------

    def join(self, element: CloudElement, sent_at: Optional[int] = None) -> MembershipView:
        if element.engine_kind != self.engine_kind:
            raise EngineMismatch(
                f"join of {element.element_id}: engine {element.engine_kind!r} != "
                f"{self.engine_kind!r}"
            )
        eid = element.element_id
        sent_at = self.sim.now if sent_at is None else sent_at
        if eid in self.view.members:
            self.view.last_heartbeat[eid] = max(self.view.last_heartbeat.get(eid, 0), sent_at)
            return self.view  # idempotent re-join, version unchanged
        self.elements.setdefault(eid, element)
        self.view.members[eid] = (element.node_id, element.state)
        self.view.last_heartbeat[eid] = sent_at
        self.view.version += 1
        self._arm_expiry(eid, sent_at)
        self._log_membership("join", eid)
        return self.view

    def leave(self, eid: str) -> None:
        if eid not in self.view.members:
            return
        del self.view.members[eid]
        self.view.last_heartbeat.pop(eid, None)
        handle = self._expiry_handles.pop(eid, None)
        if handle is not None:
            self.sim.cancel(handle)
        self.view.version += 1
        self._log_membership("leave", eid)
        for cb in self.on_member_removed:
            cb(eid)

    def heartbeat(self, eid: str, sent_at: int) -> None:
        if eid not in self.view.members:
            return  # unknown or already removed; a later re-join re-adds
        if sent_at > self.view.last_heartbeat.get(eid, -1):
            self.view.last_heartbeat[eid] = sent_at
            self._arm_expiry(eid, sent_at)

    def detect_failures(self, t: int) -> set[str]:
        """Remove every member whose last heartbeat is older than
        multiplier*interval (strictly); returns the suspected ids."""
        timeout = self.policy.timeout_multiplier * self.policy.heartbeat_interval_ms
        suspected = {
            eid
            for eid, sent in self.view.last_heartbeat.items()
            if t - sent > timeout
        }
        for eid in sorted(suspected):
            del self.view.members[eid]
            del self.view.last_heartbeat[eid]
            handle = self._expiry_handles.pop(eid, None)
            if handle is not None:
                self.sim.cancel(handle)
            self.view.version += 1
            self._log_membership("suspect", eid)
            for cb in self.on_member_removed:
                cb(eid)
        return suspected

    def _log_membership(self, change: str, eid: str) -> None:
        self.sim.record(
            self._component,
            {
                "event": "membership",
                "cloudlet": self.cloudlet_id,
                "change": change,
                "element": eid,
                "version": self.view.version,
            },
        )

    # -- queries -------------------------------------------------------------

    def serving_members(self) -> list[CloudElement]:
        """View members that are actually serving right now, id ascending."""
        out = []
        for eid in self.view.member_ids():
            el = self.elements.get(eid)
            if el is not None and el.is_serving():
                out.append(el)
        return out

    def node_cpu_headroom(self, node_id: str) -> float:
        node = self.nodes.get(node_id)
        if node is None or not node.is_up():
            return 0.0
        return node.headroom().cpu

    def best_effort_pick(self) -> CloudElement:
        """Serving element whose node has the most cpu headroom, id ascending ties."""
        candidates = self.serving_members()
        if not candidates:
            raise NoLiveElement(f"cloudlet {self.cloudlet_id} has no live element")
        return min(
            candidates, key=lambda el: (-self.node_cpu_headroom(el.node_id), el.element_id)
        )

    def bind(self, client_id: str, key: Optional[str] = None) -> Binding:
        if key is not None:
            if key not in self.metadata.replica_map:
                raise UnknownKey(f"key {key!r} not in cloudlet {self.cloudlet_id}")
            live = [
                eid for eid in self.metadata.replica_map[key] if eid in self.view.members
            ]
            if not live:
                raise NoLiveElement(f"no live replica of {key!r}")
            return Binding(self.cloudlet_id, self.view.version, tuple(live), key)
        pick = self.best_effort_pick()
        return Binding(self.cloudlet_id, self.view.version, (pick.element_id,))

    def binding_stale(self, binding: Binding) -> bool:
        return binding.view_version < self.view.version

    # -- metadata quorum -----------------------------------------------------

    def metadata_replica_set(self) -> list[str]:
        k = self.policy.target_replication
        members = self.view.member_ids()
        return members[: min(k, len(members))]

    def metadata_quorum_update(self, mutation: tuple) -> OpHandle:
        """Apply a mutation in the coordinator's total order and ship the
        committed version (watermark) to the metadata replicas; the
        coordinator's map is the only copy. Commits once a majority of
        metadata replicas ack."""
        handle = OpHandle("metadata_update")
        meta_set = self.metadata_replica_set()
        live = [
            eid
            for eid in meta_set
            if eid in self.elements and self.elements[eid].is_serving()
        ]
        need = len(meta_set) // 2 + 1
        if not meta_set or len(live) < need:
            handle._finish(
                self.sim.now,
                error=MetadataQuorumUnavailable(
                    f"{len(live)}/{len(meta_set)} metadata replicas live, need {need}"
                ),
            )
            return handle
        result = self._apply_mutation(mutation)
        version = self.metadata.version
        self.sim.record(
            self._component,
            {
                "event": "metadata",
                "cloudlet": self.cloudlet_id,
                "version": version,
                "mutation": mutation[0],
                "result": result,
            },
        )

        targets = [self.elements[eid] for eid in meta_set]

        def apply_on(el: CloudElement):
            if el.engine is not None:
                el.engine.apply_metadata(version)
            return version

        Round(
            self.net,
            targets,
            apply_on,
            quorum=need,
            timeout_ms=self.metadata_timeout_ms,
            on_success=lambda replies: handle._finish(self.sim.now, result=result),
            on_failure=lambda replies: handle._finish(
                self.sim.now,
                error=MetadataQuorumUnavailable(
                    f"only {len(replies)}/{len(meta_set)} metadata acks"
                ),
            ),
        )
        return handle

    def _apply_mutation(self, mutation: tuple) -> dict:
        kind = mutation[0]
        if kind == "ensure_key":
            _, key, size = mutation
            if key not in self.metadata.replica_map:
                replicas = self._place_replicas()
                self.metadata.replica_map[key] = replicas
                self.metadata.key_versions[key] = 0
            self.metadata.key_versions[key] += 1
            self.metadata.key_sizes[key] = size
            self.metadata.version += 1
            return {
                "key": key,
                "key_version": self.metadata.key_versions[key],
                "replicas": list(self.metadata.replica_map[key]),
            }
        if kind == "set_replicas":
            _, key, replicas = mutation
            if key not in self.metadata.replica_map:
                raise UnknownKey(f"key {key!r} unknown")
            self.metadata.replica_map[key] = list(replicas)
            self.metadata.version += 1
            return {"key": key, "replicas": list(replicas)}
        raise ValueError(f"unknown metadata mutation {kind!r}")

    def _place_replicas(self) -> list[str]:
        """Choose up to k serving members on distinct nodes: highest headroom
        first, node_id ascending on ties."""
        k = self.policy.target_replication
        candidates = self.serving_members()
        candidates.sort(key=lambda el: (-self.node_cpu_headroom(el.node_id), el.node_id))
        chosen: list[str] = []
        used_nodes: set[str] = set()
        for el in candidates:
            if len(chosen) >= k:
                break
            if el.node_id in used_nodes:
                continue
            chosen.append(el.element_id)
            used_nodes.add(el.node_id)
        if len(chosen) < k:
            # fewer distinct nodes than k: allow same-node members
            for el in candidates:
                if len(chosen) >= k:
                    break
                if el.element_id not in chosen:
                    chosen.append(el.element_id)
        return chosen

    def under_replicated_keys(self) -> dict[str, int]:
        """key -> live replica count for keys below target replication."""
        out = {}
        for key in sorted(self.metadata.replica_map):
            live = sum(
                1 for eid in self.metadata.replica_map[key] if eid in self.view.members
            )
            if live < self.policy.target_replication:
                out[key] = live
        return out
