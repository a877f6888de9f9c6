"""One replication of a benchmark workload, in a process of its own.

    python3 perfbench/child.py --doc <scenario.json> --out <dir>
                               [--trace] [--setups N] [--check]

Runs the scenario through ``adhoc-sim run --events`` (``cli.main``), after
timing N extra load-and-build set-ups. Writes ``measure.json`` into the
output directory beside ``summary.json``, ``series.csv`` and
``events.ndjson``. With ``--check`` it also recomputes the summary metrics
from the event log. Its own peak RSS is the run's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KV_ERRORS = ("UnknownKey", "QuorumUnavailable", "MetadataQuorumUnavailable", "NoLiveElement")


def _import_simulator():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    import adhoc_sim

    where = os.path.dirname(os.path.abspath(adhoc_sim.__file__))
    if where != os.path.join(src, "adhoc_sim"):
        raise ImportError(f"adhoc_sim imported from {where}, not from {src}")


class KvObserver:
    """Keeps the OpHandle of every kv put and get with its issue time: the
    event log does not record kv failures."""

    def __init__(self, engines):
        self.ops: list = []  # (issued_at, handle)
        self._engines = engines
        self._originals = {name: getattr(engines.KvService, name) for name in ("put", "get")}
        for name, fn in self._originals.items():
            setattr(engines.KvService, name, self._observe(fn))

    def _observe(self, fn):
        ops = self.ops

        def observed(service, *args, **kwargs):
            issued_at = service.sim.now
            handle = fn(service, *args, **kwargs)
            ops.append((issued_at, handle))
            return handle

        return observed

    def uninstall(self) -> None:
        for name, fn in self._originals.items():
            setattr(self._engines.KvService, name, fn)

    def outcomes(self, run_until: int, op_timeout_ms: int) -> dict:
        failures = dict.fromkeys(KV_ERRORS + ("other",), 0)
        latencies = []
        in_flight = stuck = 0
        for issued_at, handle in self.ops:
            if not handle.done:
                in_flight += 1
                # a put waits on two rounds, a get on one, each bounded by the timeout
                if issued_at + 2 * op_timeout_ms <= run_until:
                    stuck += 1
            elif handle.error is not None:
                name = type(handle.error).__name__
                failures[name if name in failures else "other"] += 1
            else:
                latencies.append(handle.completed_at - issued_at)
        return {
            "issued": len(self.ops),
            "failures": failures,
            "latencies_ms": sorted(latencies),
            "in_flight": in_flight,
            "stuck": stuck,
        }


def _read_log(path, kernel):
    log = kernel.EventLog()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            log.entries.append(kernel.LogEntry(row["t"], row["component"], row["record"]))
    return log


def _task_outcomes(sim, summary) -> tuple[dict, list]:
    problems = []
    issued = skipped = 0
    for gen in sim.workload_generators:
        if gen.spec.kind == "tasks":
            issued += gen.issued
            skipped += gen.skipped
    lost = 0
    counts = summary["metrics"]["task_counts"]
    for cid, service in sorted(sim.compute_services.items()):
        in_flight = service.in_flight()
        if service.submitted != service.completed + service.lost + in_flight:
            problems.append(
                f"{cid}: submitted {service.submitted} != completed {service.completed}"
                f" + lost {service.lost} + in flight {in_flight}"
            )
        logged = counts.get(cid, {"submitted": 0, "completed": 0, "lost": 0})
        mine = {"submitted": service.submitted, "completed": service.completed,
                "lost": service.lost}
        if logged != mine:
            problems.append(f"{cid}: summary task_counts {logged} != service {mine}")
        lost += service.lost
    return {"issued": issued, "skipped": skipped, "lost": lost}, problems


def _layer_counts(sim, out_dir) -> dict:
    """Counts read from the simulation's state after the run; an attribute
    the program no longer has reads as 0."""
    log = sim.sim.log
    retries = throttles = evictions = 0
    for entry in log:
        rec = entry.record
        event = rec.get("event")
        if event == "task_retry":
            retries += 1
        elif event == "element_state":
            throttles += rec["reason"] == "throttle"
            evictions += rec["reason"] == "evict"
    return {
        "kernel.log_records": len(log),
        "membership.view_changes": sum(c.view.version for c in sim.cloudlets.values()),
        "engines.rebinds": sum(getattr(s, "rebinds", 0) for s in sim.kv_services.values()),
        "engines.task_retries": retries,
        "nodes.history_len_max": max(
            len(getattr(n, attr, ()))
            for n in sim.nodes.values() for attr in ("liveness_history", "demand_history")
        ),
        "infrastructure.throttles": throttles,
        "infrastructure.evictions": evictions,
        "cli.output_bytes": sum(
            os.path.getsize(os.path.join(out_dir, f))
            for f in ("summary.json", "series.csv", "events.ndjson")
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--doc", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setups", type=int, default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    _import_simulator()
    from adhoc_sim import adaptation, cli, engines, kernel, runner, scenario
    from tracing import LAYER_SPANS, SETUP_SPANS, Tracer

    setup_s = []
    for _ in range(args.setups):
        t0 = time.perf_counter()
        runner.build_simulation(scenario.load_scenario(args.doc))
        setup_s.append(time.perf_counter() - t0)

    kv = KvObserver(engines)
    tracer = Tracer()
    tracer.install(LAYER_SPANS if args.trace else SETUP_SPANS)
    built = []
    build = runner.build_simulation

    def keep_simulation(*a, **kw):
        built.append(build(*a, **kw))
        return built[-1]

    runner.build_simulation = keep_simulation

    t0 = time.perf_counter()
    exit_code = cli.main(["run", "--scenario", args.doc, "--out", args.out, "--events"])
    host_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runner.build_simulation = build
    tracer.uninstall()
    kv.uninstall()
    setup_s.append(tracer.total_s["scenario.load"] + tracer.total_s["runner.build"])
    measure = {
        "exit_code": exit_code,
        "host_s": host_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "calls": tracer.calls,
        "total_s": tracer.total_s,
        "self_s": tracer.self_s,
        "layer_self_s": tracer.layer_self_s(),
        "counters": tracer.counters,
        "durations": tracer.durations,
        "missing_spans": tracer.missing,
        "problems": [],
    }
    if exit_code == 0:
        _measure_outputs(measure, built[0], args, adaptation, kernel, kv)
    with open(os.path.join(args.out, "measure.json"), "w", encoding="utf-8") as fh:
        json.dump(measure, fh)
    return 0


def _measure_outputs(measure, sim, args, adaptation, kernel, kv) -> None:
    events_path = os.path.join(args.out, "events.ndjson")
    with open(events_path, "rb") as fh:
        measure["events_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(args.out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    run_until = summary["run_until"]
    problems = measure["problems"]
    measure["run_until_ms"] = run_until
    measure["kv"] = kv.outcomes(run_until, summary["scenario"]["defaults"]["op_timeout_ms"])
    if measure["kv"]["stuck"]:
        problems.append(
            f"{measure['kv']['stuck']} kv ops neither completed nor within their timeout"
        )
    measure["tasks"], task_problems = _task_outcomes(sim, summary)
    problems.extend(task_problems)
    measure["summary_metrics"] = summary["metrics"]
    measure["counts"] = _layer_counts(sim, args.out)
    if args.check:
        recomputed = adaptation.aggregate_metrics(
            _read_log(events_path, kernel), adaptation.GoalSpec(window=(0, run_until))
        )
        if json.loads(json.dumps(recomputed)) != summary["metrics"]:
            problems.append("summary.metrics differs from aggregate_metrics of events.ndjson")


if __name__ == "__main__":
    sys.exit(main())
