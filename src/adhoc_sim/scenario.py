"""Scenario files: schema, defaults, validation, and serialization.

A scenario is a JSON document describing the fleet (capacity, churn, user
load, margins), the cloudlets, workload generators, QoS reservations, and
run controls. Loading fills every omitted field from the defaults table
below and echoes the completed form into the run summary, so an output is
always reproducible from itself.

Validation reports every violation found, not just the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .adaptation import AdaptationPolicy, UtilityWeights
from .engines import COMPUTE, ENGINE_KINDS, KV_STORE
from .errors import ScenarioParseError, ScenarioValidationError
from .infrastructure import IntrusivenessPolicy
from .kernel import Dist
from .membership import CloudletPolicy
from .nodes import DOWN, UP, ChurnModel, MarkovLoad, ScriptedChurn, TraceLoad
from .qos import ESTIMATOR, ORACLE, ReservationRequest
from .resources import ResourceVector

SCHEMA_VERSION = 1

# the one defaults table: every omitted scenario field comes from here and is
# echoed back into the summary for provenance
DEFAULTS = {
    "margin_fraction": 0.1,
    "deploy_ms": 2000,
    "shutdown_ms": 500,
    "network_latency": {"kind": "uniform", "a": 5, "b": 50},
    "op_timeout_ms": 2000,
    "copy_ms_per_mb": 100.0,
    "sample_interval_ms": 10_000,
    "grace_ms": 1000,
    "throttle_first": True,
    "max_violation_fraction": 0.01,
    "throttle_floor": 0.1,
    "enforce": True,
    "target_replication": 3,
    "heartbeat_interval_ms": 10_000,
    "timeout_multiplier": 3,
    "min_members": 1,
    "max_members": 10,
    "scale_high_watermark": 0.8,
    "scale_low_watermark": 0.2,
    "element_allocation": {"cpu": 1.0, "memory": 512, "storage": 1024, "network": 5},
    "qos_mode": ORACLE,
    "trailing_window_ms": 500_000_000,
    "exhaustive_threshold": 10,
    "adaptation_enabled": True,
    "epoch_ms": 30_000,
    "max_actions_per_epoch": 3,
    "epsilon": 1e-6,
    "w_avail": 100.0,
    "w_perf": 10.0,
    "w_intr": 1.0,
    "w_cost": 0.1,
    "workload_start_ms": 5000,
}


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    capacity: ResourceVector
    churn: object = None  # ChurnModel | ScriptedChurn | None
    user_load: object = None  # TraceLoad | MarkovLoad | None
    reserve_margin: Optional[ResourceVector] = None
    forecast_availability: Optional[float] = None
    intrusiveness: Optional[IntrusivenessPolicy] = None


@dataclass(frozen=True)
class CloudletSpec:
    cloudlet_id: str
    engine: str
    policy: CloudletPolicy
    element_allocation: ResourceVector
    initial_placement: object = "auto"  # "auto" | tuple of node ids


@dataclass(frozen=True)
class WorkloadSpec:
    workload_id: str
    kind: str  # "tasks" | "kv_ops"
    cloudlet: str
    arrival: dict  # {"kind": "poisson", "rate_per_s": r} | {"kind": "constant_interval", "interval_ms": i}
    start_ms: int
    count: Optional[int] = None
    work_units: Optional[Dist] = None
    agreement_of: Optional[str] = None
    put_ratio: float = 0.5
    key_space: int = 10
    value_size: Optional[Dist] = None


@dataclass(frozen=True)
class ReservationSpec:
    submit_ms: int
    request: ReservationRequest


@dataclass(frozen=True)
class Scenario:
    run_until: int
    seed: int
    defaults: dict
    fleet: tuple
    cloudlets: tuple
    workloads: tuple = ()
    reservations: tuple = ()
    qos_mode: str = ORACLE
    trailing_window_ms: int = DEFAULTS["trailing_window_ms"]
    exhaustive_threshold: int = DEFAULTS["exhaustive_threshold"]
    adaptation: AdaptationPolicy = AdaptationPolicy()
    weights: UtilityWeights = UtilityWeights()

    def node_ids(self) -> list[str]:
        return [n.node_id for n in self.fleet]

    def to_json(self) -> dict:
        return scenario_to_json(self)


# -- parsing --------------------------------------------------------------------


def _dist(obj, path, problems) -> Optional[Dist]:
    if obj is None:
        problems.append(f"{path}: distribution required")
        return None
    try:
        d = Dist.from_json(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        problems.append(f"{path}: {exc}")
        return None
    for msg in d.problems():
        problems.append(f"{path}: {msg}")
    return d


def _int(obj: dict, key: str, default: int, path: str, problems) -> Optional[int]:
    value = obj.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        problems.append(f"{path}: must be an integer, got {value!r}")
        return None


def _entries(doc: dict, section: str, problems) -> list[tuple[int, dict]]:
    """(index, object) for each entry of a top-level list section; a section
    that is not a list, or an entry that is not an object, is a diagnostic."""
    items = doc.get(section, [])
    if not isinstance(items, list):
        problems.append(f"{section}: must be a list")
        return []
    out = []
    for i, item in enumerate(items):
        if isinstance(item, dict):
            out.append((i, item))
        else:
            problems.append(f"{section}[{i}]: must be an object")
    return out


def _vector(obj, path, problems) -> ResourceVector:
    try:
        v = ResourceVector.from_dict(obj or {})
    except (TypeError, ValueError) as exc:
        problems.append(f"{path}: {exc}")
        return ResourceVector.zero()
    if not v.non_negative():
        problems.append(f"{path}: components must be >= 0")
    return v


def _parse_churn(obj, path, problems):
    if obj is None:
        return None
    kind = obj.get("kind", "stochastic")
    if kind == "stochastic":
        up = _dist(obj.get("up"), f"{path}.up", problems)
        down = _dist(obj.get("down"), f"{path}.down", problems)
        if up is None or down is None:
            return None
        model = ChurnModel(up, down)
        for msg in model.problems():
            problems.append(f"{path}: {msg}")
        return model
    if kind == "scripted":
        transitions = tuple(
            (int(t), str(state)) for t, state in obj.get("transitions", [])
        )
        model = ScriptedChurn(transitions)
        for msg in model.problems():
            problems.append(f"{path}: {msg}")
        return model
    problems.append(f"{path}.kind: unknown churn kind {kind!r}")
    return None


def _parse_user_load(obj, path, capacity, problems):
    if obj is None:
        return None
    kind = obj.get("kind")
    if kind == "trace":
        points = []
        for i, pair in enumerate(obj.get("points", [])):
            t, rv = pair
            points.append((int(t), _vector(rv, f"{path}.points[{i}]", problems)))
        load = TraceLoad(tuple(points))
        for msg in load.problems():
            problems.append(f"{path}: {msg}")
        for t, demand in points:
            if not demand.le(capacity):
                problems.append(f"{path}: demand at t={t} exceeds node capacity")
        return load
    if kind == "markov2":
        load = MarkovLoad(
            idle_demand=_vector(obj.get("idle_demand"), f"{path}.idle_demand", problems),
            active_demand=_vector(
                obj.get("active_demand"), f"{path}.active_demand", problems
            ),
            mean_idle_ms=float(obj.get("mean_idle_ms", 0)),
            mean_active_ms=float(obj.get("mean_active_ms", 0)),
        )
        for msg in load.problems():
            problems.append(f"{path}: {msg}")
        for label, demand in (("idle", load.idle_demand), ("active", load.active_demand)):
            if not demand.le(capacity):
                problems.append(f"{path}: {label} demand exceeds node capacity")
        return load
    problems.append(f"{path}.kind: unknown user load kind {kind!r}")
    return None


def parse_scenario(doc: dict) -> Scenario:
    """Validate and default-fill a parsed JSON document.

    Raises ScenarioValidationError carrying every diagnostic found.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioValidationError(["top level must be a JSON object"])

    defaults = dict(DEFAULTS)
    overrides = doc.get("defaults", {})
    unknown = set(overrides) - set(DEFAULTS)
    if unknown:
        problems.append(f"defaults: unknown keys {sorted(unknown)}")
    defaults.update({k: v for k, v in overrides.items() if k in DEFAULTS})
    latency = _dist(defaults["network_latency"], "defaults.network_latency", problems)

    run = doc.get("run", {})
    run_until = _int(run, "until", 0, "run.until", problems)
    seed = _int(run, "seed", 0, "run.seed", problems)
    if run_until is not None and run_until <= 0:
        problems.append("run.until: must be > 0")

    fleet = []
    seen_nodes = set()
    for i, nd in _entries(doc, "fleet", problems):
        path = f"fleet[{i}]"
        node_id = str(nd.get("node_id", ""))
        if not node_id:
            problems.append(f"{path}.node_id: required")
        if node_id in seen_nodes:
            problems.append(f"{path}.node_id: duplicate {node_id!r}")
        seen_nodes.add(node_id)
        capacity = _vector(nd.get("capacity"), f"{path}.capacity", problems)
        margin = (
            _vector(nd["reserve_margin"], f"{path}.reserve_margin", problems)
            if nd.get("reserve_margin") is not None
            else capacity.scale(float(defaults["margin_fraction"]))
        )
        intr = nd.get("intrusiveness")
        intr_policy = IntrusivenessPolicy(
            grace_ms=int((intr or {}).get("grace_ms", defaults["grace_ms"])),
            throttle_first=bool(
                (intr or {}).get("throttle_first", defaults["throttle_first"])
            ),
            max_violation_fraction=float(
                (intr or {}).get(
                    "max_violation_fraction", defaults["max_violation_fraction"]
                )
            ),
            throttle_floor=float(
                (intr or {}).get("throttle_floor", defaults["throttle_floor"])
            ),
            enforce=bool((intr or {}).get("enforce", defaults["enforce"])),
        )
        if not 0 <= intr_policy.max_violation_fraction <= 1:
            problems.append(f"{path}.intrusiveness.max_violation_fraction: not in [0,1]")
        if intr_policy.grace_ms < 0:
            problems.append(f"{path}.intrusiveness.grace_ms: must be >= 0")
        fa = nd.get("forecast_availability")
        if fa is not None and not 0 <= float(fa) <= 1:
            problems.append(f"{path}.forecast_availability: not in [0,1]")
        fleet.append(
            NodeSpec(
                node_id=node_id,
                capacity=capacity,
                churn=_parse_churn(nd.get("churn"), f"{path}.churn", problems),
                user_load=_parse_user_load(
                    nd.get("user_load"), f"{path}.user_load", capacity, problems
                ),
                reserve_margin=margin,
                forecast_availability=float(fa) if fa is not None else None,
                intrusiveness=intr_policy,
            )
        )
    if not fleet:
        problems.append("fleet: at least one node required")

    cloudlets = []
    seen_cloudlets = set()
    for i, cd in _entries(doc, "cloudlets", problems):
        path = f"cloudlets[{i}]"
        cid = str(cd.get("cloudlet_id", ""))
        if not cid:
            problems.append(f"{path}.cloudlet_id: required")
        if cid in seen_cloudlets:
            problems.append(f"{path}.cloudlet_id: duplicate {cid!r}")
        seen_cloudlets.add(cid)
        engine = cd.get("engine", "")
        if engine not in ENGINE_KINDS:
            problems.append(f"{path}.engine: must be one of {list(ENGINE_KINDS)}")
        pol = cd.get("policy", {})
        policy = CloudletPolicy(
            target_replication=int(
                pol.get("target_replication", defaults["target_replication"])
            ),
            heartbeat_interval_ms=int(
                pol.get("heartbeat_interval_ms", defaults["heartbeat_interval_ms"])
            ),
            timeout_multiplier=int(
                pol.get("timeout_multiplier", defaults["timeout_multiplier"])
            ),
            min_members=int(pol.get("min_members", defaults["min_members"])),
            max_members=int(pol.get("max_members", defaults["max_members"])),
            scale_high_watermark=float(
                pol.get("scale_high_watermark", defaults["scale_high_watermark"])
            ),
            scale_low_watermark=float(
                pol.get("scale_low_watermark", defaults["scale_low_watermark"])
            ),
        )
        for msg in policy.problems():
            problems.append(f"{path}.policy: {msg}")
        allocation = (
            _vector(cd["element_allocation"], f"{path}.element_allocation", problems)
            if cd.get("element_allocation") is not None
            else _vector(defaults["element_allocation"], f"{path}.element_allocation", problems)
        )
        placement = cd.get("initial_placement", "auto")
        if placement != "auto":
            placement = tuple(str(n) for n in placement)
            for n in placement:
                if n not in seen_nodes:
                    problems.append(f"{path}.initial_placement: unknown node {n!r}")
        cloudlets.append(
            CloudletSpec(
                cloudlet_id=cid,
                engine=engine,
                policy=policy,
                element_allocation=allocation,
                initial_placement=placement,
            )
        )

    reservations = []
    seen_requests = set()
    for i, rd in _entries(doc, "reservations", problems):
        path = f"reservations[{i}]"
        rid = str(rd.get("request_id", f"r{i}"))
        if rid in seen_requests:
            problems.append(f"{path}.request_id: duplicate {rid!r}")
        seen_requests.add(rid)
        cid = str(rd.get("cloudlet_id", ""))
        if cid not in seen_cloudlets:
            problems.append(f"{path}.cloudlet_id: unknown cloudlet {cid!r}")
        window = rd.get("window", [0, 0])
        request = ReservationRequest(
            request_id=rid,
            cloudlet_id=cid,
            demand=_vector(rd.get("demand"), f"{path}.demand", problems),
            element_count=int(rd.get("element_count", 1)),
            window=(int(window[0]), int(window[1])),
            availability_target=float(rd.get("availability_target", 0.9)),
        )
        for msg in request.problems():
            problems.append(f"{path}: {msg}")
        submit = int(rd.get("submit_ms", 0))
        if submit < 0:
            problems.append(f"{path}.submit_ms: must be >= 0")
        reservations.append(ReservationSpec(submit_ms=submit, request=request))

    workloads = []
    seen_workloads = set()
    cloudlet_engines = {c.cloudlet_id: c.engine for c in cloudlets}
    for i, wd in _entries(doc, "workloads", problems):
        path = f"workloads[{i}]"
        wid = str(wd.get("workload_id", f"w{i}"))
        if wid in seen_workloads:
            problems.append(f"{path}.workload_id: duplicate {wid!r}")
        seen_workloads.add(wid)
        kind = wd.get("kind", "")
        cid = str(wd.get("cloudlet", ""))
        if cid not in seen_cloudlets:
            problems.append(f"{path}.cloudlet: unknown cloudlet {cid!r}")
        arrival = wd.get("arrival", {})
        akind = arrival.get("kind")
        if akind == "poisson":
            if float(arrival.get("rate_per_s", 0)) <= 0:
                problems.append(f"{path}.arrival.rate_per_s: must be > 0")
        elif akind == "constant_interval":
            if int(arrival.get("interval_ms", 0)) <= 0:
                problems.append(f"{path}.arrival.interval_ms: must be > 0")
        else:
            problems.append(f"{path}.arrival.kind: unknown arrival kind {akind!r}")
        count = wd.get("count")
        work_units = None
        value_size = None
        if kind == "tasks":
            if cloudlet_engines.get(cid) not in (None, COMPUTE):
                problems.append(f"{path}: tasks workload requires a compute cloudlet")
            work_units = _dist(wd.get("work_units"), f"{path}.work_units", problems)
        elif kind == "kv_ops":
            if cloudlet_engines.get(cid) not in (None, KV_STORE):
                problems.append(f"{path}: kv_ops workload requires a kv_store cloudlet")
            if not 0 <= float(wd.get("put_ratio", 0.5)) <= 1:
                problems.append(f"{path}.put_ratio: not in [0,1]")
            if int(wd.get("key_space", 10)) < 1:
                problems.append(f"{path}.key_space: must be >= 1")
            value_size = (
                _dist(wd["value_size"], f"{path}.value_size", problems)
                if wd.get("value_size") is not None
                else Dist.constant(1024)
            )
        else:
            problems.append(f"{path}.kind: unknown workload kind {kind!r}")
        agreement_of = wd.get("agreement_of")
        if agreement_of is not None and agreement_of not in seen_requests:
            problems.append(f"{path}.agreement_of: unknown reservation {agreement_of!r}")
        workloads.append(
            WorkloadSpec(
                workload_id=wid,
                kind=kind,
                cloudlet=cid,
                arrival=arrival,
                start_ms=int(wd.get("start_ms", defaults["workload_start_ms"])),
                count=int(count) if count is not None else None,
                work_units=work_units,
                agreement_of=agreement_of,
                put_ratio=float(wd.get("put_ratio", 0.5)),
                key_space=int(wd.get("key_space", 10)),
                value_size=value_size,
            )
        )

    qos = doc.get("qos", {})
    qos_mode = qos.get("mode", defaults["qos_mode"])
    if qos_mode not in (ORACLE, ESTIMATOR):
        problems.append(f"qos.mode: must be {ORACLE!r} or {ESTIMATOR!r}")

    ad = doc.get("adaptation", {})
    adaptation = AdaptationPolicy(
        epoch_ms=int(ad.get("epoch_ms", defaults["epoch_ms"])),
        max_actions_per_epoch=int(
            ad.get("max_actions_per_epoch", defaults["max_actions_per_epoch"])
        ),
        epsilon=float(ad.get("epsilon", defaults["epsilon"])),
        enabled=bool(ad.get("enabled", defaults["adaptation_enabled"])),
    )
    for msg in adaptation.problems():
        problems.append(f"adaptation: {msg}")

    wt = doc.get("weights", {})
    weights = UtilityWeights(
        w_avail=float(wt.get("w_avail", defaults["w_avail"])),
        w_perf=float(wt.get("w_perf", defaults["w_perf"])),
        w_intr=float(wt.get("w_intr", defaults["w_intr"])),
        w_cost=float(wt.get("w_cost", defaults["w_cost"])),
    )
    for msg in weights.problems():
        problems.append(f"weights: {msg}")

    if int(defaults["sample_interval_ms"]) <= 0:
        problems.append("defaults.sample_interval_ms: must be > 0")

    if problems:
        raise ScenarioValidationError(problems)

    defaults["network_latency"] = latency.to_json()
    return Scenario(
        run_until=run_until,
        seed=seed,
        defaults=defaults,
        fleet=tuple(fleet),
        cloudlets=tuple(cloudlets),
        workloads=tuple(workloads),
        reservations=tuple(reservations),
        qos_mode=qos_mode,
        trailing_window_ms=int(qos.get("trailing_window_ms", defaults["trailing_window_ms"])),
        exhaustive_threshold=int(
            qos.get("exhaustive_threshold", defaults["exhaustive_threshold"])
        ),
        adaptation=adaptation,
        weights=weights,
    )


def load_scenario(path: str) -> Scenario:
    """Read, parse, default-fill, and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc)


# -- serialization (round-trips through parse_scenario) ----------------------------


def _churn_json(churn):
    if churn is None:
        return None
    if isinstance(churn, ChurnModel):
        return {
            "kind": "stochastic",
            "up": churn.up_duration.to_json(),
            "down": churn.down_duration.to_json(),
        }
    return {
        "kind": "scripted",
        "transitions": [[t, state] for t, state in churn.transitions],
    }


def _load_json(load):
    if load is None:
        return None
    if isinstance(load, TraceLoad):
        return {
            "kind": "trace",
            "points": [[t, rv.as_dict()] for t, rv in load.points],
        }
    return {
        "kind": "markov2",
        "idle_demand": load.idle_demand.as_dict(),
        "active_demand": load.active_demand.as_dict(),
        "mean_idle_ms": load.mean_idle_ms,
        "mean_active_ms": load.mean_active_ms,
    }


def scenario_to_json(s: Scenario) -> dict:
    return {
        "run": {"until": s.run_until, "seed": s.seed},
        "defaults": dict(s.defaults),
        "fleet": [
            {
                "node_id": n.node_id,
                "capacity": n.capacity.as_dict(),
                "churn": _churn_json(n.churn),
                "user_load": _load_json(n.user_load),
                "reserve_margin": n.reserve_margin.as_dict(),
                "forecast_availability": n.forecast_availability,
                "intrusiveness": {
                    "grace_ms": n.intrusiveness.grace_ms,
                    "throttle_first": n.intrusiveness.throttle_first,
                    "max_violation_fraction": n.intrusiveness.max_violation_fraction,
                    "throttle_floor": n.intrusiveness.throttle_floor,
                    "enforce": n.intrusiveness.enforce,
                },
            }
            for n in s.fleet
        ],
        "cloudlets": [
            {
                "cloudlet_id": c.cloudlet_id,
                "engine": c.engine,
                "policy": {
                    "target_replication": c.policy.target_replication,
                    "heartbeat_interval_ms": c.policy.heartbeat_interval_ms,
                    "timeout_multiplier": c.policy.timeout_multiplier,
                    "min_members": c.policy.min_members,
                    "max_members": c.policy.max_members,
                    "scale_high_watermark": c.policy.scale_high_watermark,
                    "scale_low_watermark": c.policy.scale_low_watermark,
                },
                "element_allocation": c.element_allocation.as_dict(),
                "initial_placement": (
                    "auto" if c.initial_placement == "auto" else list(c.initial_placement)
                ),
            }
            for c in s.cloudlets
        ],
        "workloads": [
            {
                "workload_id": w.workload_id,
                "kind": w.kind,
                "cloudlet": w.cloudlet,
                "arrival": dict(w.arrival),
                "start_ms": w.start_ms,
                "count": w.count,
                **(
                    {"work_units": w.work_units.to_json()}
                    if w.work_units is not None
                    else {}
                ),
                **(
                    {
                        "put_ratio": w.put_ratio,
                        "key_space": w.key_space,
                        "value_size": w.value_size.to_json(),
                    }
                    if w.kind == "kv_ops"
                    else {}
                ),
                **({"agreement_of": w.agreement_of} if w.agreement_of else {}),
            }
            for w in s.workloads
        ],
        "reservations": [
            {
                "request_id": r.request.request_id,
                "cloudlet_id": r.request.cloudlet_id,
                "submit_ms": r.submit_ms,
                "demand": r.request.demand.as_dict(),
                "element_count": r.request.element_count,
                "window": list(r.request.window),
                "availability_target": r.request.availability_target,
            }
            for r in s.reservations
        ],
        "qos": {
            "mode": s.qos_mode,
            "trailing_window_ms": s.trailing_window_ms,
            "exhaustive_threshold": s.exhaustive_threshold,
        },
        "adaptation": {
            "enabled": s.adaptation.enabled,
            "epoch_ms": s.adaptation.epoch_ms,
            "max_actions_per_epoch": s.adaptation.max_actions_per_epoch,
            "epsilon": s.adaptation.epsilon,
        },
        "weights": {
            "w_avail": s.weights.w_avail,
            "w_perf": s.weights.w_perf,
            "w_intr": s.weights.w_intr,
            "w_cost": s.weights.w_cost,
        },
    }
