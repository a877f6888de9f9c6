"""Command-line surface.

    adhoc-sim run --scenario <path> [--seed N] [--until MS] --out <dir>
                  [--format json|csv|both] [--events]
    adhoc-sim validate --scenario <path>
    adhoc-sim batch --scenarios <dir> --seeds A..B --out <dir>
                    [--format json|csv|both] [--events]

Exit codes: 0 success, 1 parse/validation failure or an --out that cannot be
written, 2 runtime invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .errors import ScenarioParseError, ScenarioValidationError
from .kernel import SimulationAbort
from .runner import run_scenario
from .scenario import load_scenario

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2


def write_outputs(out_dir, summary, series_rows, series_columns, fmt="both") -> None:
    """Write summary.json and series.csv, both folded from the run's event
    log, into the directory out_dir as fmt selects. Each series row is its
    CSV line without the line end; the header goes through ``csv.writer``,
    as a column name may need quoting. The run streams events.ndjson."""
    if fmt in ("json", "both"):
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if fmt in ("csv", "both"):
        with open(
            os.path.join(out_dir, "series.csv"), "w", encoding="utf-8", newline=""
        ) as fh:
            csv.writer(fh).writerow(series_columns)
            for row in series_rows:
                fh.write(row + "\r\n")


def _load(path):
    """The validated scenario, or None after printing its diagnostics."""
    try:
        return load_scenario(path)
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except ScenarioValidationError as exc:
        for diag in exc.diagnostics:
            print(f"invalid: {diag}", file=sys.stderr)
    return None


def cmd_validate(args) -> int:
    if _load(args.scenario) is None:
        return EXIT_INVALID
    print("OK")
    return EXIT_OK


def _run_one(scenario_path, out_dir, seed=None, until=None, fmt="both",
             events=False) -> int:
    if until is not None and until <= 0:
        # the bound a document's run.until has
        print(f"invalid: --until: must be > 0, got {until}", file=sys.stderr)
        return EXIT_INVALID
    scenario = _load(scenario_path)
    if scenario is None:
        return EXIT_INVALID
    if until is not None:
        scenario = scenario._replace(run_until=until)
    # made before the run, so an --out that cannot be a directory fails at
    # once and not after the whole run; a breach removes it again
    made_out_dir = not os.path.isdir(out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
        # the run streams its event log here; a breach deletes the file
        events_path = os.path.join(out_dir, "events.ndjson") if events else None
        summary, (series_columns, series_rows), _sim = run_scenario(
            scenario, seed_override=seed, events_path=events_path
        )
        write_outputs(out_dir, summary, series_rows, series_columns, fmt=fmt)
    except SimulationAbort as exc:
        print(f"runtime invariant breach: {exc}", file=sys.stderr)
        if made_out_dir:
            os.rmdir(out_dir)  # a breach writes no output
        return EXIT_RUNTIME
    except OSError as exc:  # the directory, the event log or an output file
        return _cannot_write(out_dir, exc)
    return EXIT_OK


def _cannot_write(out_dir, exc) -> int:
    print(f"error: cannot write {out_dir}: {exc}", file=sys.stderr)
    return EXIT_INVALID


def cmd_run(args) -> int:
    return _run_one(
        args.scenario, args.out, seed=args.seed, until=args.until,
        fmt=args.format, events=args.events,
    )


def _parse_seed_range(text):
    """The seeds of "A..B" (inclusive) or of a single seed; ValueError when
    the text is neither or the range is empty."""
    first, dots, last = text.partition("..")
    try:
        seeds = range(int(first), int(last if dots else first) + 1)
    except ValueError:
        raise ValueError(f"must be A..B or a single integer seed, got {text!r}") from None
    if not seeds:
        raise ValueError(f"range {text!r} is empty")
    return seeds


def cmd_batch(args) -> int:
    try:
        seeds = _parse_seed_range(args.seeds)
    except ValueError as exc:
        print(f"invalid: --seeds: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        names = sorted(f for f in os.listdir(args.scenarios) if f.endswith(".json"))
    except OSError as exc:
        print(f"error: cannot read {args.scenarios}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not names:
        print(f"error: no scenario files in {args.scenarios}", file=sys.stderr)
        return EXIT_INVALID
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # once for the batch, not once per run
        return _cannot_write(args.out, exc)
    worst = EXIT_OK
    for name in names:
        stem = name[: -len(".json")]
        for seed in seeds:
            out_dir = os.path.join(args.out, f"{stem}-seed{seed}")
            code = _run_one(
                os.path.join(args.scenarios, name), out_dir, seed=seed,
                fmt=args.format, events=args.events,
            )
            worst = max(worst, code)
    return worst


class _UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, which is the runtime-breach code here
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adhoc-sim",
        description="Deterministic simulator for ad hoc clouds on harvested machines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--until", type=int, default=None)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--format", choices=["json", "csv", "both"], default="both")
    run_p.add_argument("--events", action="store_true",
                       help="also export the full event log (ndjson)")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="parse and validate without running")
    val_p.add_argument("--scenario", required=True)
    val_p.set_defaults(func=cmd_validate)

    batch_p = sub.add_parser("batch", help="run every scenario in a directory over a seed range")
    batch_p.add_argument("--scenarios", required=True)
    batch_p.add_argument("--seeds", required=True, help="A..B inclusive, or a single seed")
    batch_p.add_argument("--out", required=True)
    batch_p.add_argument("--format", choices=["json", "csv", "both"], default="both")
    batch_p.add_argument("--events", action="store_true")
    batch_p.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
