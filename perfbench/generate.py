"""Seeded scenario generator for the benchmark workloads.

Every document is a pure function of (workload, seed, replication): the
same arguments give byte-identical JSON, whatever the interpreter's hash
seed. The simulator only ever sees the generated document.

All three workloads share one shape -- a fleet with owner load, a kv
cloudlet and a compute cloudlet -- so that every end-to-end metric is
defined on every workload. They differ in which layer carries the load:

- kv_put_heavy: put-dominated kv over 1000 keys on a quiet fleet; every put
  runs a metadata quorum update. A light task stream keeps the compute
  metrics defined without loading dispatch or the history scans.
- kv_read_churn: read-dominated kv over 200 keys on a churning fleet;
  heartbeat failure detection, rebinds, read repair and re-replication run.
- compute_fleet: 100 churning nodes with Markov owner load, an estimator
  broker taking a reservation about every 10 minutes, and a task stream
  that best-effort dispatch herds onto few elements. A light kv stream keeps
  the kv metrics defined without loading the metadata path.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("kv_put_heavy", "kv_read_churn", "compute_fleet")

MIN_MS = 60_000
HOUR_MS = 3_600_000

# Simulated length of one replication. Fixed per workload, never derived
# from host speed, so simulated outcomes depend on the seed alone.
RUN_MS = {
    "kv_put_heavy": 3 * MIN_MS,
    "kv_read_churn": 20 * MIN_MS,
    "compute_fleet": 60 * MIN_MS,
}


def _exp(mean_ms: float) -> dict:
    return {"kind": "exponential", "mean": round(mean_ms, 3)}


def _jitter(rng: random.Random, mean: float) -> float:
    """mean +- 10%: seeds differ, the cost of a replication hardly."""
    return rng.uniform(0.9 * mean, 1.1 * mean)


def _node(rng: random.Random, i: int, cpus, up_ms, down_ms, owner) -> dict:
    cpu = cpus[i % len(cpus)]
    idle_frac, active_frac, idle_ms, active_ms = owner
    return {
        "node_id": f"n{i:03d}",
        "capacity": {"cpu": cpu, "memory": 16384, "storage": 200000, "network": 1000},
        "churn": {
            "kind": "stochastic",
            "up": _exp(_jitter(rng, up_ms)),
            "down": _exp(_jitter(rng, down_ms)),
        },
        "user_load": {
            "kind": "markov2",
            "idle_demand": {"cpu": round(cpu * idle_frac, 3), "memory": 1024},
            "active_demand": {"cpu": round(cpu * active_frac, 3), "memory": 2048},
            "mean_idle_ms": round(_jitter(rng, idle_ms), 3),
            "mean_active_ms": round(_jitter(rng, active_ms), 3),
        },
    }


def _kv_cloudlet() -> dict:
    return {"cloudlet_id": "kv", "engine": "kv_store", "policy": {"target_replication": 3}}


def _compute_cloudlet(min_members: int, max_members: int) -> dict:
    return {
        "cloudlet_id": "batch",
        "engine": "compute",
        "policy": {"min_members": min_members, "max_members": max_members},
    }


def _kv_ops(rate: float, put_ratio: float, keys: int) -> dict:
    return {
        "workload_id": "kv-client",
        "kind": "kv_ops",
        "cloudlet": "kv",
        "arrival": {"kind": "poisson", "rate_per_s": rate},
        "put_ratio": put_ratio,
        "key_space": keys,
        "value_size": {"kind": "constant", "value": 1024},
    }


def _tasks(rate: float, mean_work_s: float) -> dict:
    return {
        "workload_id": "tasks",
        "kind": "tasks",
        "cloudlet": "batch",
        "arrival": {"kind": "poisson", "rate_per_s": rate},
        "work_units": {"kind": "exponential", "mean": mean_work_s},
    }


def _kv_workload(rng, up_ms, down_ms, put_ratio, keys) -> dict:
    # owners: short cpu bursts every few minutes squeeze the headroom of the
    # nodes hosting elements, so enforcement throttles but never evicts
    owner = (0.1, 0.85, 90_000, 30_000)
    fleet = [_node(rng, i, (4, 8), up_ms, down_ms, owner) for i in range(1, 21)]
    return {
        "fleet": fleet,
        "cloudlets": [_kv_cloudlet(), _compute_cloudlet(2, 4)],
        "workloads": [_kv_ops(20.0, put_ratio, keys), _tasks(0.5, 1.0)],
        "qos": {"mode": "oracle"},
    }


def _compute_workload(rng, run_ms) -> dict:
    owner = (0.1, 0.85, 3 * MIN_MS, 90_000)
    fleet = [_node(rng, i, (2, 4, 8), 2 * HOUR_MS, 10 * MIN_MS, owner) for i in range(1, 101)]
    reservations = []
    t = rng.randint(30_000, 90_000)
    while t < run_ms:
        start = t + 60_000
        reservations.append({
            "request_id": f"r{len(reservations) + 1:03d}",
            "cloudlet_id": "batch",
            "submit_ms": t,
            "demand": {"cpu": 1.0, "memory": 512, "storage": 1024, "network": 5},
            "element_count": rng.choice((1, 2)),
            "window": [start, start + rng.randint(5 * MIN_MS, 15 * MIN_MS)],
            "availability_target": 0.9,
        })
        t += rng.randint(8 * MIN_MS, 12 * MIN_MS)
    return {
        "fleet": fleet,
        "cloudlets": [_kv_cloudlet(), _compute_cloudlet(3, 10)],
        "workloads": [_tasks(2.0, 3.0), _kv_ops(1.0, 0.5, 50)],
        "reservations": reservations,
        "qos": {"mode": "estimator"},
    }


def generate(workload: str, seed: int, replication: int = 0, run_ms: int | None = None) -> dict:
    """The scenario document for one replication of a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}|{seed}|{replication}")
    run_ms = RUN_MS[workload] if run_ms is None else run_ms
    if workload == "kv_put_heavy":
        body = _kv_workload(rng, 6 * HOUR_MS, 5 * MIN_MS, put_ratio=0.9, keys=1000)
    elif workload == "kv_read_churn":
        body = _kv_workload(rng, 30 * MIN_MS, 3 * MIN_MS, put_ratio=0.1, keys=200)
    else:
        body = _compute_workload(rng, run_ms)
    # Simulated latencies are whole milliseconds, so their percentiles would
    # tie across seeds; the latency bound varies a little between replications.
    latency = {"kind": "uniform", "a": 5, "b": round(rng.uniform(49.0, 51.0), 3)}
    return {
        "run": {"until": run_ms, "seed": rng.getrandbits(32)},
        "defaults": {"network_latency": latency},
        **body,
    }


def dump(doc: dict) -> bytes:
    """Canonical bytes of a document: what is written and hashed."""
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def digest(doc: dict) -> str:
    return hashlib.sha256(dump(doc)).hexdigest()
