"""Simulated outcomes of two revisions over a grid of benchmark documents.

    python3 bench/outcomes.py --base REV --head REV [--name NAME] [--seeds S,...]

Checks both revisions out as ``bench/ab.py`` does (``ab.worktrees``),
imports each tree's ``src/adhoc_sim`` into this one interpreter under its
own name (``ab.load_package``) and runs every document of the grid on both,
in process. Nothing is timed: every figure is simulated, so it depends on
the document and the code alone. The documents come from the head's
``perfbench/generate.py``; the grid is the three benchmark workloads x the
seeds (7, 101 and 102 by default) x replications 0-4.

Per document and tree it records:

- kv ops issued, succeeded, failed by reason (the class of the op's error)
  and still in flight at run end, through a wrapper on ``KvService.put`` and
  ``get`` like perfbench's, since the event log records no kv failure;
- kv p50 and p99 latency of the ops that succeeded (nearest rank);
- tasks issued, skipped at submission, submitted, completed and lost, and
  those still queued or in transit at run end (``ComputeService.in_flight``);
- ``cloudlet_availability_min``, the adaptation actions executed by kind
  and ``action_downgrades`` from the summary's metrics;
- repairs run: ``KvService.repair_replicas`` calls that completed ok;
- repairs dropped: ``Rereplicate`` actions that
  ``AdaptationController._execute_action`` refused;
- ``failed_share``, the share the benchmark gates: failed kv ops plus lost
  and skipped tasks over kv ops and tasks issued.

Writes ``bench/OUTCOMES_<name>.json``: both revisions, the grid with each
document's sha256, each run's figures on both trees, and, per workload and
metric, each side's mean and worst run and the runs in which the head got
better or worse (higher or lower for a figure with no better direction),
and, per workload, the seeds whose mean failed share is higher on the head:
the figure the benchmark gate decides on.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import statistics
import sys

import ab

KV_ERRORS = ("UnknownKey", "QuorumUnavailable", "MetadataQuorumUnavailable",
             "NoLiveElement", "other")
ACTION_KINDS = ("add", "remove", "rereplicate")  # as the adapt_step records name them
METRICS = {  # name -> the direction that is better; None: neither
    "failed_share": "lower",
    "kv_issued": None,
    "kv_ok": "higher",
    "kv_failed": "lower",
    **{f"kv_fail.{reason}": "lower" for reason in KV_ERRORS},
    "kv_in_flight": None,
    "kv_latency_p50_ms": "lower",
    "kv_latency_p99_ms": "lower",
    "tasks_issued": None,
    "tasks_skipped": "lower",
    "tasks_submitted": None,
    "tasks_completed": "higher",
    "tasks_lost": "lower",
    "tasks_in_flight": "lower",
    "cloudlet_availability_min": "higher",
    **{f"actions.{kind}": None for kind in ACTION_KINDS},
    "action_downgrades": "lower",
    "repairs_run": None,
    "repairs_dropped": "lower",
}
WORKLOADS = ("kv_put_heavy", "kv_read_churn", "compute_fleet")
SEEDS = (7, 101, 102)
REPLICATIONS = 5


def nearest_rank(sorted_values: list, q: float):
    """The summary's percentile rule; None for no values."""
    if not sorted_values:
        return None
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_document(package: str, doc: str) -> dict:
    """The outcomes of one document run by the package imported as
    ``package``."""
    adaptation = importlib.import_module(f"{package}.adaptation")
    engines = importlib.import_module(f"{package}.engines")
    runner = importlib.import_module(f"{package}.runner")
    scenario = importlib.import_module(f"{package}.scenario")
    ops, repairs, actions = [], [], []
    watched = [(engines.KvService, "put", ops), (engines.KvService, "get", ops),
               (engines.KvService, "repair_replicas", repairs),
               (adaptation.AdaptationController, "_execute_action", actions)]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in watched]

    def observe(fn, into):
        def observed(owner, *args, **kwargs):
            issued_at = owner.sim.now
            result = fn(owner, *args, **kwargs)
            into.append((issued_at, args, result))
            return result

        return observed

    for owner, name, into in watched:
        setattr(owner, name, observe(getattr(owner, name), into))
    try:
        summary, _rows, sim = runner.run_scenario(scenario.load_scenario(doc))
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)

    out = dict.fromkeys(METRICS, 0)
    latencies = []
    for issued_at, _args, handle in ops:
        if not handle.done:
            out["kv_in_flight"] += 1
        elif handle.error is not None:
            reason = type(handle.error).__name__
            out["kv_fail." + (reason if reason in KV_ERRORS else "other")] += 1
        else:
            latencies.append(handle.completed_at - issued_at)
    latencies.sort()
    out["kv_issued"] = len(ops)
    out["kv_ok"] = len(latencies)
    out["kv_failed"] = sum(out[f"kv_fail.{reason}"] for reason in KV_ERRORS)
    out["kv_latency_p50_ms"] = nearest_rank(latencies, 0.50)
    out["kv_latency_p99_ms"] = nearest_rank(latencies, 0.99)
    for gen in sim.workload_generators:
        if gen.spec.kind == "tasks":
            out["tasks_issued"] += gen.issued
            out["tasks_skipped"] += gen.skipped
    for service in sim.compute_services.values():
        out["tasks_submitted"] += service.submitted
        out["tasks_completed"] += service.completed
        out["tasks_lost"] += service.lost
        out["tasks_in_flight"] += service.in_flight()
    metrics = summary["metrics"]
    availability = metrics["cloudlet_availability"].values()
    out["cloudlet_availability_min"] = min((v["value"] for v in availability), default=None)
    for kind in ACTION_KINDS:
        out[f"actions.{kind}"] = metrics["adaptation_actions"].get(kind, 0)
    out["action_downgrades"] = metrics["action_downgrades"]
    out["repairs_run"] = sum(handle.ok() for _, _, handle in repairs)
    out["repairs_dropped"] = sum(
        isinstance(action, adaptation.Rereplicate) and not ok
        for _, (action,), (ok, _reason) in actions
    )
    attempted = out["kv_issued"] + out["tasks_issued"]
    failed = out["kv_failed"] + out["tasks_lost"] + out["tasks_skipped"]
    out["failed_share"] = failed / attempted if attempted else 0.0
    return out


def run_grid(packages: dict, documents: list) -> list:
    """Each document's outcomes on both sides: ``documents`` holds dicts
    with a ``path``; the rows keep every other entry of them."""
    rows = []
    for document in documents:
        row = {k: v for k, v in document.items() if k != "path"}
        for side in ab.SIDES:
            row[side] = run_document(packages[side], document["path"])
        rows.append(row)
        print(f"{row.get('workload')} seed {row.get('seed')} r{row.get('replication')}: "
              f"failed share {row['base']['failed_share']:.4f} -> "
              f"{row['head']['failed_share']:.4f}", file=sys.stderr)
    return rows


def summarize(rows: list, name: str, better) -> dict:
    """Each side's mean and worst run of one metric (the maximum for a
    metric with no better direction), and the runs the head moved; a run
    in which either side has no value is left out."""
    pairs = [(r["base"][name], r["head"][name]) for r in rows
             if r["base"][name] is not None and r["head"][name] is not None]
    out = {"better": better, "runs": len(pairs)}
    if not pairs:
        return out
    worst = min if better == "higher" else max
    for i, side in enumerate(ab.SIDES):
        values = [pair[i] for pair in pairs]
        out[side] = {"mean": statistics.fmean(values), "worst": worst(values)}
    higher = sum(head > base for base, head in pairs)
    lower = sum(head < base for base, head in pairs)
    if better is None:
        out.update(higher=higher, lower=lower)
    else:
        out.update(improved=higher if better == "higher" else lower,
                   worsened=lower if better == "higher" else higher)
    return out


def summarize_grid(rows: list) -> dict:
    """workload -> metric -> ``summarize`` over that workload's runs."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in rows):
        mine = [r for r in rows if r["workload"] == workload]
        out[workload] = {name: summarize(mine, name, better)
                         for name, better in METRICS.items()}
    return out


def failed_share_rose(rows: list) -> dict:
    """workload -> [{seed, base, head}] for each seed whose mean failed
    share over its replications is higher on the head, seed order."""
    shares = {}
    for r in rows:
        pair = shares.setdefault(r["workload"], {}).setdefault(r["seed"], ([], []))
        for i, side in enumerate(ab.SIDES):
            pair[i].append(r[side]["failed_share"])
    out = {}
    for workload, seeds in shares.items():
        means = ((seed, statistics.fmean(base), statistics.fmean(head))
                 for seed, (base, head) in sorted(seeds.items()))
        out[workload] = [{"seed": seed, "base": base, "head": head}
                         for seed, base, head in means if head > base]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--head", required=True, help="git revision of the change")
    parser.add_argument("--name", default="grid", help="names bench/OUTCOMES_<name>.json")
    parser.add_argument("--seeds", default=",".join(map(str, SEEDS)))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    revs = ab.revisions(args)
    with ab.worktrees(revs) as (workdir, trees):
        sys.path.insert(0, os.path.join(trees["head"], "perfbench"))
        import generate

        documents = []
        for workload in WORKLOADS:
            for seed in seeds:
                paths, written = ab.write_documents(generate, workload, seed,
                                                    REPLICATIONS, workdir)
                for path, doc in zip(paths, written):
                    documents.append({"workload": workload, "seed": seed, **doc,
                                      "path": path})
        packages = {}
        for side in ab.SIDES:
            packages[side] = f"outcomes_{side}"
            ab.load_package(trees[side], packages[side])
        rows = run_grid(packages, documents)

    result = {
        **ab.provenance(revs),
        "python": platform.python_version(),
        "grid": {"workloads": WORKLOADS, "seeds": seeds, "replications": REPLICATIONS},
        "metrics": summarize_grid(rows),
        "failed_share_rose": failed_share_rose(rows),
        "runs": rows,
    }
    out = os.path.join(ab.ROOT, "bench", f"OUTCOMES_{args.name}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
