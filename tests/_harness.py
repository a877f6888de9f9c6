"""Synchronous quorum harness: drives the real replica engines and quorum
decision rules step by step so crash points can be enumerated exhaustively.

Each put expands into a version-allocation step, one delivery step per
replica, and a decide step; gets the same minus allocation. Crashes are
injected at step boundaries, which covers every partial-write and
partial-read the message-level protocol can produce for a single client.
"""

from dataclasses import dataclass

from adhoc_sim.engines import KvReplicaEngine, VersionedValue, majority, merge_read_replies


@dataclass
class OpOutcome:
    kind: str  # "put" | "get"
    ok: bool
    version: int = 0
    value: object = None
    majority_alive_at_decide: bool = False


class SyncQuorumHarness:
    """One key, k replicas, a single client issuing sequential operations."""

    def __init__(self, k: int = 3):
        self.k = k
        self.replicas = [KvReplicaEngine() for _ in range(k)]
        self.alive = [True] * k
        self.next_version = 0

    def crash(self, i: int) -> None:
        self.alive[i] = False

    def boundaries_for(self, ops: list[str]) -> int:
        """Number of crash-injection boundaries for an operation sequence."""
        total = 0
        for op in ops:
            total += (self.k + 2) if op == "put" else (self.k + 1)
        return total + 1  # trailing boundary


def execute_schedule(k: int, ops: list[str], crash_points: list[tuple[int, int]]):
    """Run ops (each "put" or "get") against fresh replicas, crashing the
    given replicas at the given step boundaries. Returns (outcomes,
    latest_acked_version_before_each_get)."""
    h = SyncQuorumHarness(k)
    boundary = 0

    def cross():
        nonlocal boundary
        for b, replica in crash_points:
            if b == boundary:
                h.crash(replica)
        boundary += 1

    outcomes = []
    latest_acked = 0
    acked_before_get = []
    value_seq = 0

    for op in ops:
        if op == "put":
            value_seq += 1
            value = f"v{value_seq}"
            cross()  # before version allocation
            live = sum(h.alive)
            if live < majority(k):
                # metadata quorum refuses: no version burned, no partial write
                for _ in range(k + 1):
                    cross()
                outcomes.append(OpOutcome("put", ok=False))
                continue
            h.next_version += 1
            version = h.next_version
            record = VersionedValue("x", value, version)
            acks = 0
            for i in range(k):
                cross()  # before each replica delivery
                if h.alive[i]:
                    h.replicas[i].apply_write(record)
                    acks += 1
            cross()  # before the decide step
            ok = acks >= majority(k)
            if ok:
                latest_acked = max(latest_acked, version)
            outcomes.append(OpOutcome("put", ok=ok, version=version, value=value))
        else:
            acked_before_get.append(latest_acked)
            replies = {}
            for i in range(k):
                cross()
                if h.alive[i]:
                    replies[f"e{i}"] = h.replicas[i].read("x")
            cross()
            majority_alive = sum(h.alive) >= majority(k)
            if len(replies) >= majority(k):
                version, record, _stale = merge_read_replies(replies)
                outcomes.append(
                    OpOutcome(
                        "get",
                        ok=True,
                        version=version,
                        value=record.value if record is not None else None,
                        majority_alive_at_decide=majority_alive,
                    )
                )
            else:
                outcomes.append(
                    OpOutcome("get", ok=False, majority_alive_at_decide=majority_alive)
                )
    return outcomes, acked_before_get


def enumerate_crash_schedules(k: int, boundaries: int, max_crashes: int = 2):
    """Every placement of up to max_crashes distinct-replica crashes."""
    yield []
    for b1 in range(boundaries):
        for r1 in range(k):
            yield [(b1, r1)]
    if max_crashes >= 2:
        for b1 in range(boundaries):
            for b2 in range(b1, boundaries):
                for r1 in range(k):
                    for r2 in range(k):
                        if r1 != r2:
                            yield [(b1, r1), (b2, r2)]


def all_op_sequences(max_ops: int = 3):
    seqs = []
    kinds = ["put", "get"]
    def extend(prefix):
        if prefix:
            seqs.append(list(prefix))
        if len(prefix) == max_ops:
            return
        for kind in kinds:
            extend(prefix + [kind])
    extend([])
    return seqs


def check_quorum_safety(k: int = 3, max_ops: int = 3, max_crashes: int = 2):
    """Exhaustively execute all schedules; returns (violations, runs)."""
    violations = []
    runs = 0
    for ops in all_op_sequences(max_ops):
        boundaries = SyncQuorumHarness(k).boundaries_for(ops)
        for crashes in enumerate_crash_schedules(k, boundaries, max_crashes):
            runs += 1
            outcomes, acked_before = execute_schedule(k, ops, crashes)
            gi = 0
            for out in outcomes:
                if out.kind != "get":
                    continue
                expected_floor = acked_before[gi]
                gi += 1
                if out.ok and out.version < expected_floor:
                    violations.append((ops, crashes, out, expected_floor))
    return violations, runs
