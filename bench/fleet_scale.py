"""Cost per event against fleet size, two revisions side by side.

    python3 bench/fleet_scale.py --base REV --head REV [--out PATH]

The document of size N (``fleet_document``) is replication 0 of the seed-7
``compute_fleet`` document of ``perfbench/generate.py``, scaled by N/100:

- the fleet: node i (1..N) is a copy of template node (i - 1) mod 100,
  under the id ``n`` + i in five digits;
- the compute cloudlet: ``min_members`` and ``max_members`` times N/100
  (3 and 10 at N = 100), rounded, at least 1;
- the task stream: its arrival rate times N/100 (2 tasks/s at N = 100);
- no reservations, and 10 simulated minutes.

The kv cloudlet and its client stay as they are. Each revision is checked
out into a temporary ``git worktree`` through ``bench/ab.py``'s helpers, and
each of the sizes 100, 400, 1,000 and 10,000 runs as ``bench/ab.py`` runs a
document: three times per tree, the tree that runs first alternating, each
an untraced ``perfbench/child.py --setups 3 --check`` process whose
event-loop seconds are ``ab.loop_s`` of its ``measure.json``; then one
``--trace`` run per tree counts the kernel's events (``kernel.dispatch``).
Writes ``bench/BENCH_fleet_scale.json``: the rule above, and per size and
revision the median microseconds per event over the three runs with every
run's event-loop seconds, the events, and the tasks completed and submitted
(from the summary's ``task_counts``; deterministic, and each tree's outputs
must be equal on every run); the head/base ratio of the medians; and
whether both trees wrote the same ``events.ndjson``, ``summary.json`` and
``series.csv``. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import ab  # noqa: E402
import generate  # noqa: E402

SIZES = (100, 400, 1000, 10000)
REPEATS = 3
RUN_MS = 10 * 60_000
TEMPLATE = ("compute_fleet", 7, 0)  # workload, seed, replication
RULE = (
    "replication 0 of the seed-7 compute_fleet document; node i of N copies "
    "template node (i - 1) mod 100; compute min_members and max_members and the "
    "task arrival rate times N/100 (members rounded, at least 1); no "
    "reservations; 600,000 simulated ms"
)


def fleet_document(n: int) -> dict:
    """The compute_fleet document scaled out to ``n`` nodes."""
    doc = generate.generate(*TEMPLATE, run_ms=RUN_MS)
    template = doc["fleet"]
    scale = n / len(template)
    doc["fleet"] = [
        dict(template[(i - 1) % len(template)], node_id=f"n{i:05d}") for i in range(1, n + 1)
    ]
    for cloudlet in doc["cloudlets"]:
        if cloudlet["engine"] == "compute":
            policy = cloudlet["policy"]
            for name in ("min_members", "max_members"):
                policy[name] = max(1, round(policy[name] * scale))
    for workload in doc["workloads"]:
        if workload["kind"] == "tasks":
            workload["arrival"]["rate_per_s"] *= scale
    doc["reservations"] = []
    return doc


def run_tree(tree: str, doc_path: str, out: str) -> dict:
    """One untraced ``perfbench/child.py`` run of the document on the tree,
    through ``bench/ab.py``: its event-loop seconds, the tasks completed and
    submitted, and the sha256 of its outputs."""
    m = ab._run_child(tree, doc_path, out)
    counts = m["summary_metrics"]["task_counts"].values()
    return {
        "loop_s": ab.loop_s(m),
        "tasks_completed": sum(c["completed"] for c in counts),
        "tasks_submitted": sum(c["submitted"] for c in counts),
        "outputs": m["outputs"],
    }


def events(tree: str, doc_path: str, out: str) -> int:
    """The kernel's events in one traced run of the document on the tree."""
    return ab._run_child(tree, doc_path, out, trace=True)["calls"]["kernel.dispatch"]


def measure(trees: dict, workdir: str) -> list:
    """Per size: each side's median us per event, its repeats' event-loop
    seconds and its deterministic counts, the head/base ratio, and whether
    both trees wrote the same outputs."""
    entries = []
    for n in SIZES:
        doc_path = os.path.join(workdir, f"fleet-{n}.json")
        with open(doc_path, "w", encoding="utf-8") as fh:
            json.dump(fleet_document(n), fh)
        runs = {side: [] for side in ab.SIDES}
        for i in range(REPEATS):
            for side in ab.SIDES if i % 2 == 0 else ab.SIDES[::-1]:
                out = os.path.join(workdir, f"run-{n}-{side}-{i}")
                runs[side].append(run_tree(trees[side], doc_path, out))
        entry = {"nodes": n}
        for side in ab.SIDES:
            first = runs[side][0]
            if any(r["outputs"] != first["outputs"] for r in runs[side]):
                raise RuntimeError(f"{side} at N = {n}: the outputs differ between repeats")
            count = events(trees[side], doc_path, os.path.join(workdir, f"trace-{n}-{side}"))
            loop = [r["loop_s"] for r in runs[side]]
            entry[side] = {
                "us_per_event": statistics.median(loop) * 1e6 / count,
                "loop_s": loop,
                "events": count,
                "tasks_completed": first["tasks_completed"],
                "tasks_submitted": first["tasks_submitted"],
            }
        entry["head_over_base"] = entry["head"]["us_per_event"] / entry["base"]["us_per_event"]
        entry["identical_outputs"] = runs["base"][0]["outputs"] == runs["head"][0]["outputs"]
        print(f"N = {n}: {entry['base']['us_per_event']:.2f} -> "
              f"{entry['head']['us_per_event']:.2f} us/event", file=sys.stderr)
        entries.append(entry)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--head", required=True, help="git revision of the change")
    parser.add_argument("--out", default=os.path.join(HERE, "BENCH_fleet_scale.json"))
    args = parser.parse_args(argv)

    revs = ab.revisions(args)
    with ab.worktrees(revs) as (workdir, trees):
        entries = measure(trees, workdir)
    result = {
        "rule": RULE,
        "run_until_ms": RUN_MS,
        "repeats": REPEATS,
        **ab.provenance(revs),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "sizes": entries,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
