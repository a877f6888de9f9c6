"""Benchmark of the ad hoc cloud simulator: host cost and simulated outcomes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload is generated from the seed as
REPLICATIONS independent scenario documents (see generate.py); each run of a
document is one child process (child.py) doing what ``adhoc-sim run
--events`` does.

--trace 0 runs every replication once, then repeats them under other
PYTHONHASHSEED values until S seconds have passed, and reports the
end-to-end metrics: host seconds per simulated hour over the replication
set (each replication's median run), medians of set-up time and peak RSS,
and simulated outcomes as means over the replications. --trace 1 runs
replication 0 once untraced and then traced, with wrappers around each
layer (tracing.py), until S seconds have passed, and reports the per-layer
metrics of the traced run of median host time.

Every run is checked: the run exits 0, summary metrics equal those
recomputed from events.ndjson, tasks and kv ops are conserved, and repeated,
traced and untraced runs of one document give the same events.ndjson sha256.
Prints each metric with its unit, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. A full record goes to
.perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from generate import WORKLOADS, digest, dump, generate  # noqa: E402
from tracing import LAYERS  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REPLICATIONS = 5
SETUPS_PER_RUN = 3
DEADLINE_S = 170.0  # children still running then are stopped: a run must end within 180 s

# name -> (unit, better); the order is the order printed
END_TO_END = {
    "host_s_per_sim_h": ("s/h", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "kv_latency_p50_ms": ("ms", "lower"),
    "kv_latency_p99_ms": ("ms", "lower"),
    "cloudlet_availability_min": ("ratio", "higher"),
}

# Simulated client outcomes that hinge on a few events per run (a replica
# set lost, a herded queue evicted, a handful of owner bursts on the busiest
# node), so they swing between seeds by more than any bound: printed with
# the end-to-end metrics but gated nowhere, and reported per layer under
# these names.
UNGATED_OUTCOMES = {
    "kv_fail_fraction": "engines.kv_fail_fraction",
    "task_loss_fraction": "engines.task_loss_fraction",
    "task_latency_p50_ms": "engines.task_latency_p50_ms",
    "task_latency_p99_ms": "engines.task_latency_p99_ms",
    "intrusion_max": "infrastructure.intrusion_max",
}

KV_FAIL_CLASSES = ("UnknownKey", "QuorumUnavailable", "MetadataQuorumUnavailable",
                   "NoLiveElement", "other")

PER_LAYER = {
    "kernel.events": ("count", "lower"),
    "kernel.events_per_s": ("1/s", "higher"),
    "kernel.self_s": ("s", "lower"),
    "kernel.schedule_calls": ("count", "lower"),
    "kernel.rng_draws": ("count", "lower"),
    "kernel.rng_s": ("s", "lower"),
    "kernel.log_records": ("count", "lower"),
    "network.messages": ("count", "lower"),
    "network.rounds": ("count", "lower"),
    "network.round_quorum_ratio": ("ratio", "higher"),
    "membership.metadata_updates": ("count", "lower"),
    "membership.metadata_update_s": ("s", "lower"),
    "membership.metadata_update_us_mean": ("us", "lower"),
    "membership.heartbeats": ("count", "lower"),
    "membership.view_changes": ("count", "lower"),
    "membership.best_effort_pick_calls": ("count", "lower"),
    "membership.best_effort_pick_s": ("s", "lower"),
    "engines.kv_puts": ("count", "lower"),
    "engines.kv_gets": ("count", "lower"),
    "engines.kv_put_s": ("s", "lower"),
    "engines.kv_get_s": ("s", "lower"),
    **{f"engines.kv_fail.{cls}": ("count", "lower") for cls in KV_FAIL_CLASSES},
    "engines.read_repairs": ("count", "lower"),
    "engines.rebinds": ("count", "lower"),
    "engines.task_retries": ("count", "lower"),
    "engines.busy_ms_calls": ("count", "lower"),
    "engines.busy_ms_s": ("s", "lower"),
    "nodes.history_query_calls": ("count", "lower"),
    "nodes.history_query_s": ("s", "lower"),
    "nodes.history_len_max": ("count", "lower"),
    "infrastructure.reassess_calls": ("count", "lower"),
    "infrastructure.reassess_s": ("s", "lower"),
    "infrastructure.throttles": ("count", "lower"),
    "infrastructure.evictions": ("count", "lower"),
    "qos.forecast_calls": ("count", "lower"),
    "qos.forecast_s": ("s", "lower"),
    "qos.negotiate_calls": ("count", "lower"),
    "qos.admit_ratio": ("ratio", "higher"),
    "qos.dispatch_calls": ("count", "lower"),
    "qos.dispatch_s": ("s", "lower"),
    "adaptation.epochs": ("count", "lower"),
    "adaptation.snapshot_s": ("s", "lower"),
    "adaptation.snapshot_growth": ("ratio", "lower"),
    "adaptation.select_s": ("s", "lower"),
    "adaptation.plans_generated": ("count", "lower"),
    "adaptation.action_exec_ratio": ("ratio", "higher"),
    "adaptation.aggregate_s": ("s", "lower"),
    "scenario.load_s": ("s", "lower"),
    "runner.build_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "engines.kv_fail_fraction": ("ratio", "lower"),
    "engines.task_loss_fraction": ("ratio", "lower"),
    "engines.task_latency_p50_ms": ("ms", "lower"),
    "engines.task_latency_p99_ms": ("ms", "lower"),
    "infrastructure.intrusion_max": ("ratio", "lower"),
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "trace.host_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

HISTORY_QUERIES = ("nodes.up_ms", "nodes.uptime_fraction", "nodes.mean_demand")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def nearest_rank(sorted_values: list, q: float):
    """Same definition as the simulator's summary percentiles."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Session:
    """The runs of one invocation: documents, children, measurements."""

    def __init__(self, workload: str, seed: int, label: str):
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(OUT_DIR, f"{workload}-seed{seed}-{label}")
        self.started = time.monotonic()
        self.problems: list[str] = []
        self.docs: list[str] = []
        self.doc_sha256: list[str] = []
        self.spans: dict = {}
        self.log: list = []  # one entry per child run
        self.missing_spans: set = set()
        self._hash_seed = 0
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def add_replication(self, replication: int, run_ms=None) -> None:
        doc = generate(self.workload, self.seed, replication, run_ms=run_ms)
        path = os.path.join(self.dir, f"scenario-{replication}.json")
        with open(path, "wb") as fh:
            fh.write(dump(doc))
        self.docs.append(path)
        self.doc_sha256.append(digest(doc))

    def run(self, replication: int, trace=False, setups=0, check=False) -> dict:
        """One child process on one replication; every call gets another
        PYTHONHASHSEED."""
        self._hash_seed += 1
        out = os.path.join(self.dir, f"run-{replication}")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--doc", self.docs[replication], "--out", out, "--setups", str(setups)]
        cmd += ["--trace"] * trace + ["--check"] * check
        env = dict(os.environ, PYTHONHASHSEED=str(self._hash_seed))
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the last run")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"replication {replication} ran past the deadline") from exc
        measure_path = os.path.join(out, "measure.json")
        if proc.returncode != 0 or not os.path.exists(measure_path):
            raise BenchError(
                f"replication {replication} child exited {proc.returncode}:\n{proc.stderr}"
            )
        with open(measure_path, encoding="utf-8") as fh:
            m = json.load(fh)
        m["replication"] = replication
        m["hash_seed"] = self._hash_seed
        if m["exit_code"] != 0:
            raise BenchError(
                f"replication {replication}: adhoc-sim run exited {m['exit_code']}:\n"
                f"{proc.stderr}"
            )
        self.problems.extend(f"replication {replication}: {p}" for p in m["problems"])
        self.missing_spans.update(m["missing_spans"])
        self.log.append({"replication": replication, "trace": trace, "host_s": m["host_s"],
                         "hash_seed": self._hash_seed, "events_sha256": m["events_sha256"]})
        return m

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def same_digest(self, first: dict, again: dict, what: str) -> None:
        if first["events_sha256"] != again["events_sha256"]:
            self.problems.append(
                f"replication {first['replication']}: events.ndjson sha256 differs {what}"
                f" (PYTHONHASHSEED {first['hash_seed']} vs {again['hash_seed']})"
            )

    def clean(self) -> None:
        for name in os.listdir(self.dir):
            if name.startswith("run-"):
                shutil.rmtree(os.path.join(self.dir, name))


# -- end-to-end ------------------------------------------------------------------


def simulated_outcomes(m: dict) -> dict:
    """Client-visible figures of one replication, in simulated time."""
    kv, tasks, metrics = m["kv"], m["tasks"], m["summary_metrics"]
    lat = kv["latencies_ms"]
    task_lat = metrics["task_latency"].get("batch")
    if not lat or not task_lat:
        raise BenchError(f"replication {m['replication']} completed no kv op or no task")
    return {
        "kv_fail_fraction": _ratio(sum(kv["failures"].values()), kv["issued"]),
        "kv_latency_p50_ms": nearest_rank(lat, 0.50),
        "kv_latency_p99_ms": nearest_rank(lat, 0.99),
        "task_loss_fraction": _ratio(tasks["lost"] + tasks["skipped"], tasks["issued"]),
        "task_latency_p50_ms": task_lat["p50"],
        "task_latency_p99_ms": task_lat["p99"],
        "cloudlet_availability_min": min(
            v["value"] for v in metrics["cloudlet_availability"].values()
        ),
        "intrusion_max": max(v["value"] for v in metrics["intrusiveness"].values()),
    }


def _client_ops(m: dict) -> tuple[int, int]:
    kv, tasks = m["kv"], m["tasks"]
    attempted = kv["issued"] + tasks["issued"]
    failed = sum(kv["failures"].values()) + tasks["lost"] + tasks["skipped"]
    return attempted, failed


def end_to_end(session: Session, seconds: float) -> tuple[dict, list, dict]:
    first = [session.run(r, setups=SETUPS_PER_RUN, check=True) for r in range(REPLICATIONS)]
    runs = list(first)
    while len(runs) == len(first) or session.elapsed() < seconds:
        again = session.run(len(runs) % REPLICATIONS, setups=SETUPS_PER_RUN)
        session.same_digest(first[again["replication"]], again, "between repeated runs")
        runs.append(again)

    # whole replication set: each replication's median host seconds, summed,
    # over the simulated hours of the set
    host_s = sum(statistics.median(m["host_s"] for m in runs if m["replication"] == r)
                 for r in range(REPLICATIONS))
    sim_h = sum(m["run_until_ms"] for m in first) / 3_600_000
    outcomes = [simulated_outcomes(m) for m in first]
    metrics = {
        "host_s_per_sim_h": host_s / sim_h,
        "setup_s": statistics.median(s for m in runs for s in m["setup_s"]),
        "peak_rss_mb": statistics.median(m["peak_rss_mb"] for m in runs),
    }
    for name in outcomes[0]:
        metrics[name] = statistics.fmean(o[name] for o in outcomes)
    samples = {
        "runs": len(runs),
        "replications": REPLICATIONS,
        "kv_ops_completed": sum(len(m["kv"]["latencies_ms"]) for m in first),
        "tasks_completed": sum(m["summary_metrics"]["task_latency"]["batch"]["count"]
                               for m in first),
        "setups": sum(len(m["setup_s"]) for m in runs),
    }
    return metrics, first, samples


# -- per layer -------------------------------------------------------------------


def _layer_metrics(m: dict) -> dict:
    host_s, calls, total, self_s = m["host_s"], m["calls"], m["total_s"], m["self_s"]
    counters, counts = m["counters"], m["counts"]
    layer_self = dict(m["layer_self_s"])
    layer_self["kernel"] = host_s - sum(v for k, v in layer_self.items() if k != "kernel")
    snaps = m["durations"]["adaptation.snapshot"]
    tenth = max(1, len(snaps) // 10)
    out = {
        "kernel.events": calls["kernel.dispatch"],
        "kernel.self_s": layer_self["kernel"],
        "kernel.schedule_calls": calls["kernel.schedule"],
        "kernel.rng_draws": calls["kernel.rng"],
        "kernel.rng_s": total["kernel.rng"],
        "network.messages": calls["network.send"] + calls["network.send_to_element"],
        "network.rounds": calls["network.round"],
        "network.round_quorum_ratio": _ratio(counters["network.rounds_quorate"],
                                             calls["network.round"]),
        "membership.metadata_updates": calls["membership.metadata_update"],
        "membership.metadata_update_s": total["membership.metadata_update"],
        "membership.metadata_update_us_mean": 1e6 * _ratio(
            total["membership.metadata_update"], calls["membership.metadata_update"]),
        "membership.heartbeats": calls["membership.heartbeat"],
        "membership.best_effort_pick_calls": calls["membership.best_effort_pick"],
        "membership.best_effort_pick_s": total["membership.best_effort_pick"],
        "engines.kv_puts": calls["engines.kv_put"],
        "engines.kv_gets": calls["engines.kv_get"],
        "engines.kv_put_s": total["engines.kv_put"],
        "engines.kv_get_s": total["engines.kv_get"],
        **{f"engines.kv_fail.{cls}": m["kv"]["failures"][cls] for cls in KV_FAIL_CLASSES},
        "engines.read_repairs": counters["engines.read_repairs"],
        "engines.busy_ms_calls": calls["engines.busy_ms"],
        "engines.busy_ms_s": total["engines.busy_ms"],
        "nodes.history_query_calls": sum(calls[n] for n in HISTORY_QUERIES),
        "nodes.history_query_s": sum(self_s[n] for n in HISTORY_QUERIES),
        "infrastructure.reassess_calls": calls["infrastructure.reassess"],
        "infrastructure.reassess_s": total["infrastructure.reassess"],
        "qos.forecast_calls": calls["qos.forecast"],
        "qos.forecast_s": total["qos.forecast"],
        "qos.negotiate_calls": calls["qos.negotiate"],
        "qos.admit_ratio": _ratio(counters["qos.admitted"], calls["qos.negotiate"]),
        "qos.dispatch_calls": calls["qos.dispatch"],
        "qos.dispatch_s": total["qos.dispatch"],
        "adaptation.epochs": calls["adaptation.epoch"],
        "adaptation.snapshot_s": total["adaptation.snapshot"],
        "adaptation.snapshot_growth": _ratio(statistics.fmean(snaps[-tenth:]),
                                             statistics.fmean(snaps[:tenth])) if snaps else 0.0,
        "adaptation.select_s": total["adaptation.select"],
        "adaptation.plans_generated": counters["adaptation.plans_generated"],
        "adaptation.action_exec_ratio": _ratio(counters["adaptation.actions_executed"],
                                               calls["adaptation.execute_action"]),
        "adaptation.aggregate_s": total["adaptation.aggregate"],
        "scenario.load_s": total["scenario.load"],
        "runner.build_s": total["runner.build"],
        "cli.write_s": total["cli.write"],
        **{f"{layer}.self_share": layer_self[layer] / host_s for layer in LAYERS},
        "trace.host_s": host_s,
    }
    out.update(counts)
    return out


def _kernel_loop_s(m: dict) -> float:
    """Host seconds of the event loop alone: the run minus set-up,
    aggregation and output."""
    t = m["total_s"]
    return m["host_s"] - sum(t[n] for n in ("scenario.load", "runner.build",
                                            "adaptation.aggregate", "cli.write"))


def per_layer(session: Session, seconds: float) -> tuple[dict, list, dict]:
    plain = session.run(0, check=True)
    traced = [session.run(0, trace=True)]
    while session.elapsed() < seconds:
        traced.append(session.run(0, trace=True))
    for m in traced:
        session.same_digest(plain, m, "between untraced and traced runs")
        if m["calls"] != traced[0]["calls"] or m["counts"] != traced[0]["counts"]:
            session.problems.append("traced runs of one document made different calls")

    # every per-layer figure comes from one run, the traced run of median
    # host time, so that its layer self times add up to its host time
    median_run = sorted(traced, key=lambda m: m["host_s"])[(len(traced) - 1) // 2]
    metrics = _layer_metrics(median_run)
    metrics["kernel.events_per_s"] = metrics["kernel.events"] / _kernel_loop_s(plain)
    for name, value in simulated_outcomes(plain).items():
        if name in UNGATED_OUTCOMES:
            metrics[UNGATED_OUTCOMES[name]] = value
    metrics["trace.overhead"] = median_run["host_s"] / plain["host_s"] - 1.0
    # per-name aggregates of that run: calls, inclusive s, self s
    session.spans = {name: [calls, median_run["total_s"][name], median_run["self_s"][name]]
                     for name, calls in median_run["calls"].items()}
    return metrics, [plain], {"runs": 1 + len(traced), "traced_runs": len(traced)}


# -- reporting -------------------------------------------------------------------


def result_line(spec: dict, metrics: dict, counted: list, problems: list) -> dict:
    """The last line printed: attempted and failed count simulated client
    operations (kv puts and gets, tasks) of the runs the metrics came from."""
    attempted = failed = 0
    for m in counted:
        a, f = _client_ops(m)
        attempted += a
        failed += f
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _better) in spec.items()},
    }


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor() or "unknown",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "adhoc_sim", "cli.py")):
        print(f"error: no simulator source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    session = Session(args.workload, args.seed, f"trace{args.trace}")
    try:
        for r in range(1 if args.trace else REPLICATIONS):
            session.add_replication(r)
        if args.trace:
            metrics, counted, samples = per_layer(session, args.seconds)
            spec = PER_LAYER
        else:
            metrics, counted, samples = end_to_end(session, args.seconds)
            spec = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    session.clean()

    result = result_line(spec, metrics, counted, session.problems)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scenario_sha256": session.doc_sha256,
        "runs": session.log,
        "samples": samples, "problems": session.problems, "spans": session.spans,
        "missing_spans": sorted(session.missing_spans),
        "environment": environment(), "result": result,
    }
    with open(os.path.join(session.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {json.dumps(samples)}")
    print(f"environment {json.dumps(record['environment'])}")
    for name, (unit, better) in spec.items():
        print(f"  {name:42s} {metrics[name]:>16.6g} {unit:6s} ({better} is better)")
    if not args.trace:
        for name, layer_name in UNGATED_OUTCOMES.items():
            unit, better = PER_LAYER[layer_name]
            print(f"  {name:42s} {metrics[name]:>16.6g} {unit:6s} ({better} is better;"
                  f" not gated, per layer as {layer_name})")
    for problem in session.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'all passed' if not session.problems else 'FAILED'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
