"""Per-cloudlet coordination: versioned membership, heartbeat failure
detection, replicated service metadata, and client binding.

Membership composition changes (join, leave, suspicion) each increment the
view version exactly once. Failure detection is heartbeat timeout: an element
is suspected when now - last_heartbeat > multiplier * interval (strict), so a
crashed element leaves the view within multiplier*interval + max network
latency of the crash.

Service metadata (the per-key replica map and version counters) is sequenced
by the coordinator, whose map is the only copy. Each mutation ships its
committed version to the first min(k, members) elements, which acknowledge
it; it commits once a majority of those replicas acknowledge. A client's
binding is the view version it bound at. Suspected elements are removed
immediately (fail-stop); there is no rehabilitation phase.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .defaults import DEFAULTS
from .errors import EngineMismatch, MetadataQuorumUnavailable, NoLiveElement, UnknownKey
from .infrastructure import DEAD, DEPLOYING, EVICTING, RUNNING, CloudElement
from .kernel import Simulator
from .network import Network, OpHandle, Round, majority
from .nodes import Node


class CloudletPolicy(NamedTuple):
    target_replication: int = DEFAULTS["target_replication"]
    heartbeat_interval_ms: int = DEFAULTS["heartbeat_interval_ms"]
    timeout_multiplier: int = DEFAULTS["timeout_multiplier"]
    min_members: int = DEFAULTS["min_members"]
    max_members: int = DEFAULTS["max_members"]
    scale_high_watermark: float = DEFAULTS["scale_high_watermark"]
    scale_low_watermark: float = DEFAULTS["scale_low_watermark"]


class MembershipView:
    def __init__(self):
        self.version = 0
        self.members: set[str] = set()
        self.last_heartbeat: dict[str, int] = {}  # eid -> send time

    def member_ids(self) -> list[str]:
        return sorted(self.members)


class MetadataState:
    """Replica map plus per-key version counters, totally ordered by the
    coordinator's metadata version."""

    def __init__(self):
        self.version = 0
        self.replica_map: dict[str, list[str]] = {}
        self.key_versions: dict[str, int] = {}


class CloudletRuntime:
    """Coordinator for one cloudlet, harness-hosted.

    Composition knowledge arrives through simulated messages (joins, leaves,
    heartbeats).
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        cloudlet_id: str,
        engine_kind: str,
        policy: CloudletPolicy,
        nodes: dict[str, Node],
        metadata_timeout_ms: int = DEFAULTS["op_timeout_ms"],
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
        self._hb_handles: dict[str, object] = {}
        self._expiry_handles: dict[str, object] = {}
        self._component = f"cloudlet:{cloudlet_id}"
        # both cleared on view or state changes; the ranking also on a
        # demand change of a node that hosts one of the elements
        self._serving: Optional[list[CloudElement]] = None
        self._ranked: Optional[list[CloudElement]] = None

    # -- element attachment and transition routing ---------------------------

    def attach_element(self, element: CloudElement) -> None:
        if element.engine_kind != self.engine_kind:
            raise EngineMismatch(
                f"element {element.element_id} has engine {element.engine_kind!r}, "
                f"cloudlet {self.cloudlet_id} runs {self.engine_kind!r}"
            )
        # a new element deploys and is no view member yet, so the serving
        # members and their ranking stay as they are
        self.elements[element.element_id] = element
        node = self.nodes.get(element.node_id)
        if node is not None and self._drop_ranking not in node.on_demand_change:
            # once per node, ahead of the node's infrastructure, so that no
            # pick made while it reassesses the new demand reads the old headroom
            node.on_demand_change.insert(0, self._drop_ranking)

    def _drop_ranking(self, _node: Node) -> None:
        self._ranked = None

    def element_transition(self, el: CloudElement, old: str, new: str) -> None:
        self._serving = self._ranked = None
        eid = el.element_id
        if new == RUNNING and old == DEPLOYING:
            self._schedule_beat(el)  # DEAD and EVICTING stopped any earlier beat
            sent_at = self.sim.now
            self.net.send(self._component, lambda: self.join(el, sent_at=sent_at))
        elif new == EVICTING:
            self._stop_heartbeats(eid)
            self.net.send(self._component, lambda: self.leave(eid))
        elif new == DEAD:
            self._stop_heartbeats(eid)  # crash: silence, timeout will detect

    # -- heartbeats ----------------------------------------------------------

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
        self.sim.cancel(self._hb_handles.pop(eid, None))

    def _arm_expiry(self, eid: str, sent_at: int) -> None:
        self.sim.cancel(self._expiry_handles.pop(eid, None))
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
        self.view.members.add(eid)
        self._serving = self._ranked = None
        self.view.last_heartbeat[eid] = sent_at
        self.view.version += 1
        self._arm_expiry(eid, sent_at)
        self._log_membership("join", eid)
        return self.view

    def leave(self, eid: str) -> None:
        if eid in self.view.members:
            self._remove(eid, "leave")

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
            self._remove(eid, "suspect")
        return suspected

    def _remove(self, eid: str, change: str) -> None:  # a leave or a suspicion
        self.view.members.remove(eid)
        self._serving = self._ranked = None
        del self.view.last_heartbeat[eid]
        self.sim.cancel(self._expiry_handles.pop(eid, None))
        self.view.version += 1
        self._log_membership(change, eid)

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
        """View members that are actually serving right now, id ascending.
        The list is kept, and shared between callers, until the view or an
        element's state changes: callers must not modify it. The ranking
        ``best_effort_pick`` reads is built from it and dropped with it."""
        if self._serving is None:
            self._serving = [
                el for el in map(self.elements.get, self.view.member_ids())
                if el is not None and el.is_serving()
            ]
        return self._serving

    def node_cpu_headroom(self, node_id: str) -> float:
        node = self.nodes.get(node_id)
        if node is None or not node.is_up():
            return 0.0
        return node.headroom().cpu

    def best_effort_pick(self, exclude: Optional[str] = None) -> CloudElement:
        """Serving element, other than `exclude`, whose node has the most cpu
        headroom, id ascending ties: the first such element of the serving
        members ranked by (-node cpu headroom, id). The ranking is built on
        the first pick after a change and kept until the serving members
        change or the user demand of a node hosting one of the cloudlet's
        elements does, the one input a node's headroom has besides its
        liveness. Liveness needs no watch: a node going down moves each of
        its elements to dead, which drops the ranking of that element's
        cloudlet before the cloudlet can pick again."""
        ranked = self._ranked
        if ranked is None:
            ranked = self._ranked = sorted(
                self.serving_members(),
                key=lambda el: (-self.node_cpu_headroom(el.node_id), el.element_id),
            )
        for el in ranked:
            if el.element_id != exclude:
                return el
        raise NoLiveElement(f"cloudlet {self.cloudlet_id} has no live element")

    def bind(self, key: str) -> int:
        """Bind a client to key: the view version it binds at, once the key
        is known and a replica of it is a view member."""
        if key not in self.metadata.replica_map:
            raise UnknownKey(f"key {key!r} not in cloudlet {self.cloudlet_id}")
        if not any(eid in self.view.members for eid in self.metadata.replica_map[key]):
            raise NoLiveElement(f"no live replica of {key!r}")
        return self.view.version

    def binding_stale(self, binding: int) -> bool:
        return binding < self.view.version

    # -- metadata quorum -----------------------------------------------------

    def metadata_replica_set(self) -> list[str]:
        k = self.policy.target_replication
        members = self.view.member_ids()
        return members[: min(k, len(members))]

    def metadata_quorum_update(self, mutation: tuple) -> OpHandle:
        """Apply a mutation in the coordinator's total order and ship the
        committed version to the metadata replicas, which acknowledge it;
        the coordinator's map is the only copy. Commits once a majority of
        metadata replicas ack."""
        handle = OpHandle()
        meta_set = self.metadata_replica_set()
        live = [
            eid
            for eid in meta_set
            if eid in self.elements and self.elements[eid].is_serving()
        ]
        need = majority(len(meta_set))
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

        Round(
            self.net,
            [self.elements[eid] for eid in meta_set],
            lambda el: version,
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
            _, key = mutation
            if key not in self.metadata.replica_map:
                replicas = self._place_replicas()
                self.metadata.replica_map[key] = replicas
                self.metadata.key_versions[key] = 0
            self.metadata.key_versions[key] += 1
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
        candidates = sorted(
            self.serving_members(),
            key=lambda el: (-self.node_cpu_headroom(el.node_id), el.node_id),
        )
        first_per_node: dict[str, str] = {}  # node -> its first candidate
        for el in candidates:
            first_per_node.setdefault(el.node_id, el.element_id)
        distinct = list(first_per_node.values())
        # fewer distinct nodes than k: same-node members fill the rest
        rest = [el.element_id for el in candidates if el.element_id not in distinct]
        return (distinct + rest)[: self.policy.target_replication]
