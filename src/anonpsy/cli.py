"""Command-line entry point for the de-identification pipeline.

Exit codes: 0 all cases succeeded, 1 one or more cases failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .runner import (
    BASELINE_NAMES,
    StageResult,
    UsageError,
    run_evaluation,
    run_pipeline,
    run_stage,
)

EXIT_OK = 0
EXIT_CASE_FAILURES = 1
EXIT_USAGE = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to the run config YAML")
    parser.add_argument("--jobs", type=int, help="bounded worker pool size")
    parser.add_argument("--seed", type=int, help="global run seed")
    parser.add_argument("--backend", choices=["live", "mock"], help="gateway backend")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anonpsy",
        description="Graph-guided de-identification of psychiatric case narratives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="narratives -> semantic graphs")
    p.add_argument("corpus_dir")
    p.add_argument("out_dir")
    _add_common(p)

    p = sub.add_parser("perturb", help="graphs -> perturbed graphs")
    p.add_argument("out_dir")
    _add_common(p)

    p = sub.add_parser("generate", help="perturbed graphs -> de-identified narratives")
    p.add_argument("out_dir")
    _add_common(p)

    p = sub.add_parser("run", help="convert, perturb, and generate end to end")
    p.add_argument("corpus_dir")
    p.add_argument("out_dir")
    _add_common(p)

    p = sub.add_parser("baseline", help="run a comparison system")
    p.add_argument("name", choices=list(BASELINE_NAMES))
    p.add_argument("corpus_dir")
    p.add_argument("out_dir")
    _add_common(p)

    p = sub.add_parser("eval", help="privacy/utility report over a run directory")
    p.add_argument("out_dir")
    _add_common(p)

    return parser


def _report(result: StageResult) -> int:
    for case_id in result.succeeded:
        notes = [
            f"{label}: {', '.join(rows[case_id])}"
            for label, rows in (("unchanged, skipped", result.skipped), ("degraded", result.degraded))
            if case_id in rows
        ]
        print(f"{result.stage}: {case_id}: ok" + (f" ({'; '.join(notes)})" if notes else ""))
    for case_id, error in sorted(result.failed.items()):
        print(f"{result.stage}: {case_id}: FAILED: {error}", file=sys.stderr)
    return EXIT_OK if result.ok else EXIT_CASE_FAILURES


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, jobs=args.jobs, backend=args.backend)
        if args.command in ("convert", "perturb", "generate", "baseline"):
            stage = f"baseline.{args.name}" if args.command == "baseline" else args.command
            return _report(run_stage(stage, args.out_dir, config, getattr(args, "corpus_dir", None)))
        if args.command == "run":
            return _report(run_pipeline(args.corpus_dir, args.out_dir, config))
        if args.command == "eval":
            return _report(run_evaluation(args.out_dir, config))
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
