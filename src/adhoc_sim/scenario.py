"""Scenario files: schema, defaults, validation, and serialization.

A scenario is a JSON document describing the fleet, the cloudlets, workload
generators, QoS reservations, and run controls. The field tables below are
the schema's single source: each `field` gives a key, its coercion kind, its
fallback (a `defaults` entry, filled from `defaults.DEFAULTS`, or a literal)
and its bound. `_read` uses them to parse, default-fill and report
path-named diagnostics, `_write` to echo the completed document into the
run summary: `parse_scenario(scenario_to_json(s)) == s`. A null value reads
as omitted; an unknown key is a diagnostic; every violation is reported.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import Callable, NamedTuple, Optional

from .adaptation import AdaptationPolicy
from .defaults import DEFAULTS
from .engines import COMPUTE, ENGINE_KINDS, KV_STORE
from .errors import ScenarioParseError, ScenarioValidationError
from .infrastructure import IntrusivenessPolicy
from .kernel import Dist
from .membership import CloudletPolicy
from .nodes import DOWN, UP, ChurnModel, MarkovLoad, ScriptedChurn, TraceLoad
from .qos import ESTIMATOR, ORACLE, ReservationRequest
from .resources import ResourceVector

class NodeSpec(NamedTuple):
    node_id: str
    capacity: ResourceVector
    churn: object  # ChurnModel | ScriptedChurn | None
    user_load: object  # TraceLoad | MarkovLoad | None
    reserve_margin: ResourceVector
    forecast_availability: Optional[float]
    intrusiveness: IntrusivenessPolicy


class CloudletSpec(NamedTuple):
    cloudlet_id: str
    engine: str
    policy: CloudletPolicy
    element_allocation: ResourceVector
    initial_placement: object  # "auto" | tuple of node ids
    nodes: tuple  # initial_placement resolved against the fleet; not echoed


class WorkloadSpec(NamedTuple):
    workload_id: str
    kind: str  # "tasks" | "kv_ops"
    cloudlet: str
    arrival: dict  # {"kind": "poisson", "rate_per_s": r} | {"kind": "constant_interval", "interval_ms": i}
    start_ms: int
    count: Optional[int]
    agreement_of: Optional[str]
    work_units: Optional[Dist] = None  # tasks only
    put_ratio: Optional[float] = None  # kv_ops only, as are the next two
    key_space: Optional[int] = None
    value_size: Optional[Dist] = None


class ReservationSpec(NamedTuple):
    submit_ms: int
    request: ReservationRequest


class Scenario(NamedTuple):
    run_until: int
    seed: int
    defaults: dict  # every `defaults` section key, typed
    fleet: tuple
    cloudlets: tuple
    workloads: tuple
    reservations: tuple
    qos_mode: str
    trailing_window_ms: int
    adaptation: AdaptationPolicy


# -- coercions: a document value to a typed one, or ValueError, to which the
# -- reader adds the value's path ------------------------------------------------

_FLOAT_MAX = sys.float_info.max


def _same(value):
    return value


def _int(value) -> int:
    # a JSON number is a double: an integer beyond its range would overflow
    # where the simulation mixes it with floats
    if type(value) is int and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"must be an integer, got {value!r}")


def _float(value) -> float:
    if (type(value) is float or type(value) is int) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    raise ValueError(f"must be a finite number, got {value!r}")


def _bool(value) -> bool:
    if type(value) is bool:
        return value
    raise ValueError(f"must be true or false, got {value!r}")


def _id(value) -> str:
    if type(value) is str and value:
        return value
    raise ValueError(f"must be a non-empty string, got {value!r}")


def _pair(value, first, second, shape: str) -> tuple:
    if type(value) is list and len(value) == 2:
        try:
            return (first(value[0]), second(value[1]))
        except ValueError:
            pass
    raise ValueError(f"must be a {shape} pair, got {value!r}")


def _placement(value):
    if value == "auto":
        return value
    if type(value) is not list:
        raise ValueError(f'must be "auto" or a list of node ids, got {value!r}')
    return tuple(_id(node_id) for node_id in value)


# bounds: (holds(value), diagnostic)
POSITIVE = (lambda v: v > 0, "must be > 0")
NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
FRACTION = (lambda v: 0 <= v <= 1, "not in [0,1]")


def _one_of(*choices) -> tuple:
    return (lambda v: v in choices, f"must be one of {list(choices)}")


class Kind(NamedTuple):
    """How a field's document value becomes a typed value and back. A nested
    kind reads with (value, path, ctx), so it can report diagnostics below
    its own path; the others raise ValueError."""

    read: Callable
    write: Callable = _same
    nested: bool = False


INT = Kind(_int)
FLOAT = Kind(_float)
BOOL = Kind(_bool)
ID = Kind(_id)
VECTOR = Kind(ResourceVector.from_dict, ResourceVector.as_dict)
DIST = Kind(Dist.from_json, Dist.to_json)
WINDOW = Kind(lambda v: _pair(v, _int, _int, "[start_ms, end_ms]"), list)
PLACEMENT = Kind(_placement, lambda p: p if p == "auto" else list(p))


class Fallback(str):
    """An omitted field takes the document's `defaults` entry of this name."""


class _Marker:
    """How an omitted field is filled where no value can say it."""


REQUIRED = _Marker()  # an omitted field is a diagnostic
OMITTED = _Marker()  # reads as None and is left out of the echo
SHARED = _Marker()  # a nested object read from {} once per document


class Field(NamedTuple):
    key: str
    attr: str  # attribute of the built object
    read: Callable
    write: Callable
    nested: bool
    default: object  # REQUIRED, OMITTED, SHARED, a Fallback or a literal
    bound: Optional[tuple]


def field(key: str, kind: Kind, default=REQUIRED, bound=None, attr: str = "") -> Field:
    if not (default is None or type(default) in (Fallback, _Marker) or kind.nested):
        # a literal default passes through the field's coercion, typed as if
        # the document had given it, so the echo of an omitted field (1024.0,
        # not 1024) parses back to itself
        default = kind.read(kind.write(default))
    return Field(key, attr or key, kind.read, kind.write, kind.nested, default, bound)


def _d(key: str, kind: Kind, bound=None, name: str = "") -> Field:
    """A field that falls back to the `defaults` entry `name` (else `key`)."""
    return field(key, kind, Fallback(name or key), bound)


# -- the generic reader and writer ---------------------------------------------------


class _Context:
    """One document's diagnostics and what its omitted fields fall back to."""

    def __init__(self, fallback: dict):
        self.problems: list[str] = []
        self.fallback = fallback
        self.shared: dict = {}


def _read(raw, fields, path: str, ctx: _Context, tagged: bool = False) -> dict:
    """Coerce the object `raw` through a field table into {attr: value}.

    Omitted fields take their default; a field that fails is recorded in
    ctx.problems and left out. A tagged object's "kind" is read by its
    caller.
    """
    if raw is None:
        raw = {}
    elif type(raw) is not dict:
        ctx.problems.append(f"{path}: must be an object")
        return {}
    values = {}
    known = tagged and "kind" in raw
    get = raw.get
    for key, attr, read, _write, nested, default, bound in fields:
        value = get(key)
        if value is None:
            if type(default) is Fallback:
                value = ctx.fallback[default]
            elif type(default) is not _Marker:
                value = default
            elif default is SHARED:
                if key not in ctx.shared:
                    ctx.shared[key] = read({}, f"{path}.{key}", ctx)
                value = ctx.shared[key]
            elif default is OMITTED:
                value = None
            else:
                ctx.problems.append(f"{path}.{key}: required")
                continue
        else:
            known += 1
            try:
                value = read(value, f"{path}.{key}", ctx) if nested else read(value)
                if bound is not None and not bound[0](value):
                    raise ValueError(bound[1])
            except ValueError as exc:
                ctx.problems.append(f"{path}.{key}: {exc}")
                continue
        values[attr] = value
    if known != len(raw):
        unknown = raw.keys() - {f.key for f in fields} - ({"kind"} if tagged else set())
        if unknown:
            ctx.problems.append(f"{path}: unknown keys {sorted(unknown)}")
    return values


def _checked(obj, path: str, problems: list):
    """`obj`, after recording each condition of CHECKS that it fails."""
    for holds, message in CHECKS.get(type(obj), ()):
        if not holds(obj):
            problems.append(f"{path}: {message}")
    return obj


def _build(cls, raw, fields, path: str, ctx: _Context, tagged: bool = False):
    """`cls` built from a table read of `raw` and checked; None after a
    diagnostic."""
    before = len(ctx.problems)
    values = _read(raw, fields, path, ctx, tagged)
    if len(ctx.problems) > before:
        return None
    obj = cls(**values)
    return _checked(obj, path, ctx.problems) if cls in CHECKS else obj


def _write(obj, fields) -> dict:
    out = {}
    for key, attr, _read, write, _nested, default, _bound in fields:
        value = getattr(obj, attr)
        if value is not None:
            out[key] = write(value)
        elif default is not OMITTED:
            out[key] = None
    return out


def _object(fields, cls) -> Kind:
    return Kind(
        lambda raw, path, ctx: _build(cls, raw, fields, path, ctx),
        lambda obj: _write(obj, fields),
        nested=True,
    )


def _tagged(label: str, variants: dict, default_tag=None, write=None) -> Kind:
    """An object whose "kind" picks its table and class: variants maps each
    kind to (fields, cls)."""

    def read(raw, path, ctx):
        if type(raw) is not dict:
            raise ValueError("must be an object")
        tag = raw.get("kind", default_tag)
        if type(tag) is not str or tag not in variants:
            raise ValueError(f"unknown {label} kind {tag!r}")
        fields, cls = variants[tag]
        return _build(cls, raw, fields, path, ctx, tagged=True)

    def write_variant(obj):
        for tag, (fields, cls) in variants.items():
            if type(obj) is cls:
                return {"kind": tag, **_write(obj, fields)}

    return Kind(read, write or write_variant, nested=True)


def _steps(second, shape: str, write_second=_same) -> Kind:
    """A list of [time_ms, second] pairs at strictly increasing times >= 0."""

    def read(raw, path, ctx):
        if type(raw) is not list:
            raise ValueError("must be a list")
        out = []
        for i, pair in enumerate(raw):
            try:
                out.append(_pair(pair, _int, second, shape))
            except ValueError as exc:
                ctx.problems.append(f"{path}[{i}]: {exc}")
                continue
            if out[-1][0] <= (out[-2][0] if len(out) > 1 else -1):
                ctx.problems.append(f"{path}[{i}]: times must be >= 0 and strictly increasing")
        return tuple(out)

    return Kind(read, lambda pairs: [[a, write_second(b)] for a, b in pairs], nested=True)


# -- the schema -------------------------------------------------------------------------

RUN = (
    field("until", INT, REQUIRED, POSITIVE, "run_until"),
    field("seed", INT, 0),
)

CHURN = _tagged("churn", {
    "stochastic": (
        (field("up", DIST, attr="up_duration"), field("down", DIST, attr="down_duration")),
        ChurnModel,
    ),
    "scripted": ((field("transitions", _steps(_id, "[time_ms, state]"), ()),), ScriptedChurn),
}, default_tag="stochastic")

USER_LOAD = _tagged("user load", {
    "trace": (
        (field("points", _steps(VECTOR.read, "[time_ms, demand]", VECTOR.write), ()),),
        TraceLoad,
    ),
    "markov2": ((
        field("idle_demand", VECTOR, ResourceVector()),
        field("active_demand", VECTOR, ResourceVector()),
        field("mean_idle_ms", FLOAT, REQUIRED, POSITIVE),
        field("mean_active_ms", FLOAT, REQUIRED, POSITIVE),
    ), MarkovLoad),
})

INTRUSIVENESS = (
    _d("grace_ms", INT, NON_NEGATIVE),
    _d("throttle_first", BOOL),
    _d("throttle_floor", FLOAT, FRACTION),
    _d("enforce", BOOL),
)

NODE = (
    field("node_id", ID),
    field("capacity", VECTOR, ResourceVector()),
    field("churn", CHURN, None),
    field("user_load", USER_LOAD, None),
    field("reserve_margin", VECTOR, None),  # None: capacity * defaults.margin_fraction
    field("forecast_availability", FLOAT, None, FRACTION),
    field("intrusiveness", _object(INTRUSIVENESS, IntrusivenessPolicy), SHARED),
)

POLICY = (
    _d("target_replication", INT, AT_LEAST_ONE),
    _d("heartbeat_interval_ms", INT, POSITIVE),
    _d("timeout_multiplier", INT, (lambda v: v >= 2, "must be >= 2")),
    _d("min_members", INT, NON_NEGATIVE),
    _d("max_members", INT, AT_LEAST_ONE),
    _d("scale_high_watermark", FLOAT, FRACTION),
    _d("scale_low_watermark", FLOAT, FRACTION),
)

CLOUDLET = (
    field("cloudlet_id", ID),
    field("engine", ID, REQUIRED, _one_of(*ENGINE_KINDS)),
    field("policy", _object(POLICY, CloudletPolicy), SHARED),
    _d("element_allocation", VECTOR),
    field("initial_placement", PLACEMENT, "auto"),
)

REQUEST = (
    field("request_id", ID, None),  # None: "r<index>"
    field("cloudlet_id", ID),
    field("demand", VECTOR),
    field("element_count", INT, 1, AT_LEAST_ONE),
    field("window", WINDOW),
    field("availability_target", FLOAT, 0.9, (lambda v: 0 < v <= 1, "must be in (0,1]")),
)
RESERVATION = REQUEST + (field("submit_ms", INT, 0, NON_NEGATIVE),)

ARRIVAL = _tagged("arrival", {
    "poisson": (
        (field("rate_per_s", FLOAT, REQUIRED, POSITIVE),),
        functools.partial(dict, kind="poisson"),
    ),
    "constant_interval": (
        (field("interval_ms", INT, REQUIRED, POSITIVE),),
        functools.partial(dict, kind="constant_interval"),
    ),
}, write=dict)

WORKLOAD = (
    field("workload_id", ID, None),  # None: "w<index>"
    field("kind", ID, REQUIRED, _one_of("tasks", "kv_ops")),
    field("cloudlet", ID),
    field("arrival", ARRIVAL),
    _d("start_ms", INT, NON_NEGATIVE, "workload_start_ms"),
    field("count", INT, None, NON_NEGATIVE),
    field("agreement_of", ID, OMITTED),
)
WORKLOAD_KINDS = {  # kind -> (its fields, the cloudlet engine it needs)
    "tasks": (WORKLOAD + (field("work_units", DIST),), COMPUTE),
    "kv_ops": (WORKLOAD + (
        field("put_ratio", FLOAT, 0.5, FRACTION),
        field("key_space", INT, 10, AT_LEAST_ONE),
        field("value_size", DIST, Dist.constant(1024)),
    ), KV_STORE),
}

QOS = (
    field("mode", ID, DEFAULTS["qos_mode"], _one_of(ORACLE, ESTIMATOR), "qos_mode"),
    field("trailing_window_ms", INT, DEFAULTS["trailing_window_ms"], POSITIVE),
)

ADAPTATION = (
    field("enabled", BOOL, DEFAULTS["adaptation_enabled"]),
    field("epoch_ms", INT, DEFAULTS["epoch_ms"], POSITIVE),
)


# conditions that span an object's fields: class -> ((holds(obj), diagnostic), ...)
CHECKS = {
    ChurnModel: (
        (lambda m: m.up_duration.mean_value() > 0, "mean up duration must be > 0"),
        (lambda m: m.down_duration.mean_value() >= 0, "mean down duration must be >= 0"),
    ),
    ScriptedChurn: (
        (lambda c: all(s in (UP, DOWN) for _, s in c.transitions), "states must be 'up' or 'down'"),
    ),
    CloudletPolicy: (
        (lambda p: p.min_members <= p.max_members, "min_members must be <= max_members"),
        (lambda p: p.scale_low_watermark <= p.scale_high_watermark,
         "scale_low_watermark must be <= scale_high_watermark"),
    ),
    ReservationRequest: (
        (lambda r: r.window[0] < r.window[1], "window start must precede end"),
        (lambda r: r.demand.any_positive(), "demand must be positive somewhere"),
    ),
}


def _setting(key: str, kind: Kind, bound=None) -> Field:
    return field(key, kind, DEFAULTS[key], bound)


# The `defaults` section's table: the settings only it holds, then every
# field above that falls back to it, under its `defaults` key.
DEFAULTS_FIELDS = (
    _setting("margin_fraction", FLOAT, FRACTION),
    _setting("deploy_ms", INT, NON_NEGATIVE),
    _setting("shutdown_ms", INT, NON_NEGATIVE),
    _setting("network_latency", DIST),
    _setting("op_timeout_ms", INT, POSITIVE),
    _setting("copy_ms_per_mb", FLOAT, NON_NEGATIVE),
    _setting("sample_interval_ms", INT, POSITIVE),
) + tuple(
    _setting(str(f.default), Kind(f.read, f.write), f.bound)
    for table in (INTRUSIVENESS, POLICY, CLOUDLET, WORKLOAD)
    for f in table
    if type(f.default) is Fallback
)

# What an omitted field falls back to where the document's `defaults` section
# leaves a setting out.
_FALLBACK = {f.key: f.default for f in DEFAULTS_FIELDS}

SECTIONS = frozenset(
    ("run", "defaults", "fleet", "cloudlets", "workloads", "reservations", "qos",
     "adaptation")
)


# -- parsing ----------------------------------------------------------------------------


def _section(doc: dict, name: str, id_key: str, id_prefix: str, fields, ctx: _Context,
             check: Callable) -> tuple[set, list]:
    """Read each entry of the list section `name` through `fields` (a table,
    or a function of the entry that gives one); `check(v, path, entry)`
    completes the values and adds what spans entries or sections. Returns
    the id of every entry (so a bad entry does not also fail each reference
    to it) and (path, values) of each entry that drew no diagnostic."""
    ids, clean = set(), []
    items = doc.get(name)
    if items is not None and type(items) is not list:
        ctx.problems.append(f"{name}: must be a list")
    for i, raw in enumerate(items if type(items) is list else ()):
        path = f"{name}[{i}]"
        if type(raw) is not dict:
            ctx.problems.append(f"{path}: must be an object")
            continue
        before = len(ctx.problems)
        v = _read(raw, fields if type(fields) is tuple else fields(raw), path, ctx)
        entry_id = v[id_key] = v.get(id_key) or f"{id_prefix}{i}"
        if entry_id in ids:
            ctx.problems.append(f"{path}.{id_key}: duplicate {entry_id!r}")
        ids.add(entry_id)
        check(v, path, raw)
        if len(ctx.problems) == before:
            clean.append((path, v))
    return ids, clean


def _refers(v: dict, key: str, known, what: str, path: str, problems: list) -> None:
    if v.get(key) is not None and v[key] not in known:
        problems.append(f"{path}.{key}: unknown {what} {v[key]!r}")


def _demand_levels(load) -> list:
    """Every owner demand a user-load model can reach."""
    if isinstance(load, TraceLoad):
        return [demand for _, demand in load.points]
    if isinstance(load, MarkovLoad):
        return [load.idle_demand, load.active_demand]
    return []


def _place(v: dict, path: str, node_ids: set, fleet: dict, ranked: list, committed: dict,
           ctx: _Context) -> tuple:
    """The cloudlet's initial nodes, each checked to exist and to have room
    for one more element at t=0, after the elements placed before it."""
    policy, placement = v.get("policy"), v.get("initial_placement")
    if policy is None or placement is None:
        return ()
    if placement == "auto":
        kv = v.get("engine") == KV_STORE
        placement = ranked[:policy.target_replication if kv else max(1, policy.min_members)]
    allocation = v.get("element_allocation")
    for node_id in placement:
        if node_id not in node_ids:
            ctx.problems.append(f"{path}.initial_placement: unknown node {node_id!r}")
        if node_id not in fleet or allocation is None:
            continue
        # what NodeInfrastructure.create_element finds: no owner demand yet
        node, used = fleet[node_id], committed.get(node_id)
        free = (node.capacity - node.reserve_margin).clamped()
        free = free if used is None else (free - used).clamped()
        if allocation.exceeds_any(free):
            ctx.problems.append(
                f"{path}.initial_placement: an element of {allocation.as_dict()} does not "
                f"fit node {node_id!r}, which has {free.as_dict()} of headroom left"
            )
        committed[node_id] = allocation if used is None else used + allocation
    return tuple(placement)


def _workload_fields(raw: dict) -> tuple:
    kind = raw.get("kind")
    return WORKLOAD_KINDS[kind][0] if type(kind) is str and kind in WORKLOAD_KINDS else WORKLOAD


def parse_scenario(doc: dict) -> Scenario:
    """Validate and default-fill a parsed JSON document.

    Raises ScenarioValidationError carrying every diagnostic found.
    """
    if type(doc) is not dict:
        raise ScenarioValidationError(["top level must be a JSON object"])
    ctx = _Context(dict(_FALLBACK))
    problems = ctx.problems
    if doc.keys() - SECTIONS:
        problems.append(f"unknown sections {sorted(doc.keys() - SECTIONS)}")
    given = doc.get("defaults")
    defaults = _read(given, DEFAULTS_FIELDS, "defaults", ctx)
    if type(given) is dict:
        ctx.fallback.update(
            (key, defaults[key]) for key in given.keys() & defaults.keys() if given[key] is not None
        )
    run = _read(doc.get("run"), RUN, "run", ctx)

    def check_node(v, path, raw):
        capacity = v.get("capacity")
        if capacity is None:
            return
        if v.get("reserve_margin") is None:
            v["reserve_margin"] = capacity.scale(ctx.fallback["margin_fraction"])
        for demand in _demand_levels(v.get("user_load")):
            if not demand.le(capacity):
                problems.append(f"{path}.user_load: owner demand exceeds node capacity")
                break

    node_ids, nodes = _section(doc, "fleet", "node_id", "", NODE, ctx, check_node)
    if not node_ids:
        problems.append("fleet: at least one node required")
    fleet = {v["node_id"]: NodeSpec(**v) for _, v in nodes}
    ranked = sorted(fleet, key=lambda n: (-fleet[n].capacity.cpu, n))
    committed: dict = {}
    engines = {}

    def check_cloudlet(v, path, raw):
        engines[v["cloudlet_id"]] = v.get("engine")
        policy = v.get("policy")
        # the default asks for its replicas whatever the fleet; a document
        # that asks for more than it has nodes is rejected
        asked = [s for s in (raw.get("policy"), given) if type(s) is dict]
        if (policy is not None and policy.target_replication > len(node_ids)
                and any(s.get("target_replication") is not None for s in asked)):
            problems.append(
                f"{path}.policy.target_replication: {policy.target_replication} exceeds "
                f"the fleet of {len(node_ids)} nodes"
            )
        v["nodes"] = _place(v, path, node_ids, fleet, ranked, committed, ctx)

    _, cloudlets = _section(doc, "cloudlets", "cloudlet_id", "", CLOUDLET, ctx, check_cloudlet)

    request_ids, requests = _section(
        doc, "reservations", "request_id", "r", RESERVATION, ctx,
        lambda v, path, raw: _refers(v, "cloudlet_id", engines, "cloudlet", path, problems),
    )
    reservations = []
    for path, v in requests:
        submit_ms = v.pop("submit_ms")
        request = _checked(ReservationRequest(**v), path, problems)
        reservations.append(ReservationSpec(submit_ms, request))

    def check_workload(v, path, raw):
        cid, kind = v.get("cloudlet"), v.get("kind")
        _refers(v, "cloudlet", engines, "cloudlet", path, problems)
        _refers(v, "agreement_of", request_ids, "reservation", path, problems)
        engine = WORKLOAD_KINDS[kind][1] if kind in WORKLOAD_KINDS else None
        if engines.get(cid) not in (None, engine):
            problems.append(f"{path}: {kind} workload requires a {engine} cloudlet")

    _, workloads = _section(
        doc, "workloads", "workload_id", "w", _workload_fields, ctx, check_workload
    )
    qos = _read(doc.get("qos"), QOS, "qos", ctx)
    adaptation = _build(AdaptationPolicy, doc.get("adaptation"), ADAPTATION, "adaptation", ctx)

    if problems:
        raise ScenarioValidationError(problems)
    return Scenario(
        **run,
        defaults=defaults,
        fleet=tuple(fleet.values()),
        cloudlets=tuple(CloudletSpec(**v) for _, v in cloudlets),
        workloads=tuple(WorkloadSpec(**v) for _, v in workloads),
        reservations=tuple(reservations),
        **qos,
        adaptation=adaptation,
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
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_scenario(doc)


# -- serialization (round-trips through parse_scenario) ----------------------------


def scenario_to_json(s: Scenario) -> dict:
    return {
        "run": _write(s, RUN),
        "defaults": {f.key: f.write(s.defaults[f.key]) for f in DEFAULTS_FIELDS},
        "fleet": [_write(n, NODE) for n in s.fleet],
        "cloudlets": [_write(c, CLOUDLET) for c in s.cloudlets],
        "workloads": [_write(w, WORKLOAD_KINDS[w.kind][0]) for w in s.workloads],
        "reservations": [
            {**_write(r.request, REQUEST), "submit_ms": r.submit_ms} for r in s.reservations
        ],
        "qos": _write(s, QOS),
        "adaptation": _write(s.adaptation, ADAPTATION),
    }
