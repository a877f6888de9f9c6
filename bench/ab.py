"""A/B comparison of two revisions on one benchmark workload.

    python3 bench/ab.py --base REV --head REV --workload NAME
                        [--seed N] [--pairs N] [--replications N] [--out PATH]
                        [--inproc N]

Checks each revision out into a temporary ``git worktree`` (both are removed
on exit), generates the workload's documents once with the head's
``perfbench/generate.py``, and runs each tree's ``perfbench/child.py
--setups 3 --check`` on every document, one process at a time. A pair is
one pass over the documents on both trees; the tree that runs first
alternates from pair to pair. Before the pairs, one ``child.py --trace`` run
per tree and document counts the calls of every traced span, the kernel's
events (``kernel.dispatch``) among them; the counts are deterministic, so
equal counts show that both trees did the same work despite host noise.
Per pair and tree:

- ``host_s_per_sim_h``: summed wall seconds over summed simulated hours;
- ``setup_s``: median of the load-and-build set-ups;
- ``peak_rss_mb``: median of the children's peak RSS;
- ``kernel.events_per_s``: summed event counts over the untraced runs'
  summed event-loop seconds, each run's host seconds minus its load, build,
  aggregate and write spans (perfbench's ``_kernel_loop_s``).

Writes ``bench/BENCH_<workload>.json``: both revisions with the git tree of
their ``src/``, the CPU count and the Python version, the sha256 of every
document, each pair's values, each side's median and quartiles, the pairs
the head won, whether a gain claim holds (``summarize``), each document's
span call counts per tree, and whether ``events.ndjson``, ``summary.json``
and ``series.csv``, the simulated outcomes and the span call counts were
identical between the trees, with the outcome entries that were not
(``outcomes_not_identical``, such as ``counts.cli.output_bytes``).

``--inproc N`` adds N in-process pairs: each tree's ``src/adhoc_sim`` is
imported into this one interpreter under its own name (``adhoc_base``,
``adhoc_head``; the package imports itself only relatively), and each pair
times one ``cli.main`` run per document on both, the side that runs first
alternating. Both sides then share one process, its allocator and its
caches, so an effect of a few percent that process start-up and placement
noise hide between children shows here. The file's ``inproc`` section holds
each pair's seconds and the head/base ratio's quartiles and wins
(``summarize_ratios``). Run from the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUTS = ("events.ndjson", "summary.json", "series.csv")
# what perfbench measures of the simulated run: equal on both trees when the
# change leaves behaviour alone
OUTCOMES = ("kv", "tasks", "summary_metrics", "counts")
METRICS = {  # name -> (unit, better)
    "host_s_per_sim_h": ("s/h", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "kernel.events_per_s": ("1/s", "higher"),
}
# the spans of an untraced child that are not its event loop
NOT_LOOP = ("scenario.load", "runner.build", "adaptation.aggregate", "cli.write")
SIDES = ("base", "head")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, better: str) -> dict:
    """Each side's median and quartiles over the pairs, the pairs the head
    won (a tie counts for neither side), and whether a gain claim holds: the
    head won at least 9 of every 10 pairs, and its median is better than the
    base's by more than the base's interquartile range."""
    wins = ties = 0
    for pair in pairs:
        base, head = pair["base"], pair["head"]
        if base == head:
            ties += 1
        elif (head < base) == (better == "lower"):
            wins += 1
    sides = {side: quartiles([p[side] for p in pairs]) for side in SIDES}
    gap = sides["base"]["median"] - sides["head"]["median"]
    if better == "higher":
        gap = -gap
    return {
        **sides,
        "head_won": wins,
        "ties": ties,
        "pairs": len(pairs),
        "claim_holds": 10 * wins >= 9 * len(pairs)
        and gap > sides["base"]["q3"] - sides["base"]["q1"],
    }


def loop_s(m: dict) -> float:
    """Host seconds of an untraced child's event loop."""
    return m["host_s"] - sum(m["total_s"][name] for name in NOT_LOOP)


def _pair_values(measures: list, events: list) -> dict:
    """One tree's values over one pass of the documents, given each
    document's event count."""
    sim_h = sum(m["run_until_ms"] for m in measures) / 3_600_000
    return {
        "host_s_per_sim_h": sum(m["host_s"] for m in measures) / sim_h,
        "setup_s": statistics.median(s for m in measures for s in m["setup_s"]),
        "peak_rss_mb": statistics.median(m["peak_rss_mb"] for m in measures),
        "kernel.events_per_s": sum(events) / sum(loop_s(m) for m in measures),
    }


def _run_child(tree: str, doc: str, out: str, trace: bool = False) -> dict:
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "child.py"),
           "--doc", doc, "--out", out]
    cmd += ["--trace"] if trace else ["--setups", "3", "--check"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    path = os.path.join(out, "measure.json")
    if proc.returncode != 0 or not os.path.exists(path):
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    with open(path, encoding="utf-8") as fh:
        m = json.load(fh)
    if m["exit_code"] != 0 or m["problems"]:
        raise RuntimeError(f"{doc} on {tree}: exit {m['exit_code']}, {m['problems']}")
    m["outputs"] = {name: _sha256(os.path.join(out, name)) for name in OUTPUTS}
    return m


def differing_entries(name: str, base, head) -> list:
    """The dotted names of the entries in which two outcome values differ."""
    if isinstance(base, dict) and isinstance(head, dict):
        return [
            entry
            for key in sorted(base.keys() | head.keys())
            for entry in differing_entries(f"{name}.{key}", base.get(key), head.get(key))
        ]
    return [] if base == head else [name]


def compare(trees: dict, docs: list, pairs: int, workdir: str) -> tuple[list, dict, dict]:
    """Run the pairs; returns the per-pair values, what matched and each
    tree's span call counts per document."""
    calls = {
        side: [
            _run_child(trees[side], doc, os.path.join(workdir, f"trace-{side}-{j}"),
                       trace=True)["calls"]
            for j, doc in enumerate(docs)
        ]
        for side in SIDES
    }
    events = {side: [c["kernel.dispatch"] for c in calls[side]] for side in SIDES}
    rows = []
    identical = dict.fromkeys(OUTPUTS + ("simulated_outcomes",), True)
    identical["span_calls"] = calls["base"] == calls["head"]
    differing = set()
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        measures = {side: [] for side in SIDES}
        for side in order:
            for j, doc in enumerate(docs):
                out = os.path.join(workdir, f"pair{i}-{side}-{j}")
                measures[side].append(_run_child(trees[side], doc, out))
        for base, head in zip(measures["base"], measures["head"]):
            for name in OUTPUTS:
                identical[name] &= base["outputs"][name] == head["outputs"][name]
            for k in OUTCOMES:
                differing.update(differing_entries(k, base[k], head[k]))
        values = {side: _pair_values(measures[side], events[side]) for side in SIDES}
        rows.append({"first": order[0], **values})
        print(f"pair {i + 1}/{pairs} ({order[0]} first): "
              + ", ".join(f"{name} {values['base'][name]:.4g} -> {values['head'][name]:.4g}"
                          for name in METRICS), file=sys.stderr)
    identical["simulated_outcomes"] = not differing
    identical["outcomes_not_identical"] = sorted(differing)
    return rows, identical, calls


def revisions(args) -> dict:
    """side -> the full commit id of ``args.base`` / ``args.head``."""
    return {side: _git("rev-parse", "--verify", getattr(args, side) + "^{commit}")
            for side in SIDES}


def provenance(revs: dict) -> dict:
    """side -> its commit and the git tree of its ``src/``, for an output file."""
    return {side: {"rev": revs[side], "src_tree": _git("rev-parse", f"{revs[side]}:src")}
            for side in SIDES}


@contextlib.contextmanager
def worktrees(revs: dict):
    """Yields (a temporary directory, side -> a detached ``git worktree`` of
    its revision in it); both worktrees and the directory are removed on
    exit."""
    workdir = tempfile.mkdtemp(prefix="adhoc-ab-")
    trees = {}
    try:
        for side in SIDES:
            trees[side] = os.path.join(workdir, side)
            _git("worktree", "add", "--detach", trees[side], revs[side])
        yield workdir, trees
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT,
                           capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(workdir, ignore_errors=True)


def write_documents(generate, workload: str, seed: int, replications: int,
                    workdir: str) -> tuple[list, list]:
    """Each replication's document written into workdir by the ``generate``
    module: (paths, [{"replication", "sha256"}])."""
    docs, documents = [], []
    for r in range(replications):
        doc = generate.generate(workload, seed, r)
        path = os.path.join(workdir, f"{workload}-{seed}-{r}.json")
        with open(path, "wb") as fh:
            fh.write(generate.dump(doc))
        docs.append(path)
        documents.append({"replication": r, "sha256": generate.digest(doc)})
    return docs, documents


def load_package(tree: str, name: str):
    """The tree's ``src/adhoc_sim`` imported as the package ``name``; returns
    its ``cli`` module."""
    path = os.path.join(tree, "src", "adhoc_sim")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def inproc_pairs(clis: dict, docs: list, pairs: int, workdir: str) -> list:
    """Per pair and side, the summed wall seconds of one ``cli.main`` run
    per document, with the garbage of earlier runs collected first."""
    rows = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        row = {"first": order[0]}
        for side in order:
            row[side] = 0.0
            for j, doc in enumerate(docs):
                out = os.path.join(workdir, f"inproc-{side}-{j}")
                gc.collect()
                t0 = time.perf_counter()
                code = clis[side].main(["run", "--scenario", doc, "--out", out, "--events"])
                row[side] += time.perf_counter() - t0
                if code != 0:
                    raise RuntimeError(f"{doc} in-process on {side}: exit {code}")
        rows.append(row)
        print(f"in-process pair {i + 1}/{pairs} ({order[0]} first): "
              f"{row['base']:.3f} s -> {row['head']:.3f} s", file=sys.stderr)
    return rows


def summarize_ratios(rows: list) -> dict:
    """The pairs' seconds, the quartiles of their head/base ratios, and the
    pairs the head won (a ratio below 1)."""
    ratios = [row["head"] / row["base"] for row in rows]
    return {
        "values": rows,
        "head_over_base": quartiles(ratios),
        "head_won": sum(r < 1 for r in ratios),
        "pairs": len(rows),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--head", required=True, help="git revision of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=113)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--replications", type=int, default=5)
    parser.add_argument("--out", default=None)
    parser.add_argument("--inproc", type=int, default=0,
                        help="in-process pairs to run after the process pairs")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.replications < 1 or args.inproc == 1 or args.inproc < 0:
        parser.error("quartiles need --pairs >= 2 and --inproc 0 or >= 2, "
                     "and a pair at least one replication")

    revs = revisions(args)
    with worktrees(revs) as (workdir, trees):
        sys.path.insert(0, os.path.join(trees["head"], "perfbench"))
        import generate

        docs, documents = write_documents(generate, args.workload, args.seed,
                                          args.replications, workdir)
        rows, identical, calls = compare(trees, docs, args.pairs,
                                         os.path.join(workdir, "runs"))
        inproc = None
        if args.inproc:
            clis = {side: load_package(trees[side], f"adhoc_{side}") for side in SIDES}
            inproc = summarize_ratios(
                inproc_pairs(clis, docs, args.inproc, os.path.join(workdir, "inproc"))
            )

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "replications": args.replications,
        **provenance(revs),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "documents": documents,
        "identical": identical,
        "span_calls": calls,
        "metrics": {
            name: {
                "unit": unit,
                "better": better,
                "values": [{"first": row["first"], "base": row["base"][name],
                            "head": row["head"][name]} for row in rows],
                **summarize([{side: row[side][name] for side in SIDES} for row in rows],
                            better),
            }
            for name, (unit, better) in METRICS.items()
        },
    }
    if inproc is not None:
        result["inproc"] = inproc
    out = args.out or os.path.join(ROOT, "bench", f"BENCH_{args.workload}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
