"""Regenerate the checked-in corpus, mock fixtures, and golden files.

Run from the repository root after changing prompts, the corpus, or pipeline
behavior:

    python -m tests.gen_fixtures

The pipeline runs once against a recording backend that synthesizes every
model response deterministically and writes it into the strict mock fixture
layout. Resulting artifacts are copied into tests/data/golden and frozen.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import anonpsy.runner as runner
from anonpsy.config import RunConfig
from anonpsy.gateway import LlmGateway

from . import synthesis

DATA_DIR = Path(__file__).parent / "data"
CORPUS_DIR = DATA_DIR / "corpus"
FIXTURES_DIR = DATA_DIR / "fixtures"
GOLDEN_DIR = DATA_DIR / "golden"

GOLDEN_ARTIFACTS = (
    "graph.yaml",
    "graph.perturbed.yaml",
    "outline.yaml",
    "deid.txt",
    "perturb.audit.yaml",
    "stage1.entities.yaml",
    "stage2.episodes.yaml",
    "convert.log",
    "baseline.phi.txt",
    "baseline.sdc.txt",
    "baseline.llm_only.txt",
)


def make_config(jobs: int = 1) -> RunConfig:
    return RunConfig(seed=42, jobs=jobs, backend="mock", fixtures_dir=str(FIXTURES_DIR))


def main() -> None:
    for stale in (CORPUS_DIR, FIXTURES_DIR, GOLDEN_DIR):
        if stale.exists():
            shutil.rmtree(stale)
    synthesis.write_corpus(CORPUS_DIR)
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)

    config = make_config()
    recording_gateway = LlmGateway(
        synthesis.RecordingBackend(FIXTURES_DIR), model=config.model
    )
    original_build = runner.build_gateway
    runner.build_gateway = lambda _config: recording_gateway
    try:
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "run"
            result = runner.run_pipeline(CORPUS_DIR, out_dir, config)
            if not result.ok:
                raise SystemExit(f"pipeline failed during generation: {result.failed}")
            for name in ("phi", "sdc", "llm_only"):
                baseline_result = runner.run_baseline(name, CORPUS_DIR, out_dir, config)
                if not baseline_result.ok:
                    raise SystemExit(f"baseline {name} failed: {baseline_result.failed}")
            eval_result = runner.run_evaluation(out_dir, config)
            if not eval_result.ok:
                raise SystemExit("evaluation failed during generation")

            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            for case_dir in sorted(p for p in out_dir.iterdir() if p.is_dir()):
                for artifact in GOLDEN_ARTIFACTS:
                    source = case_dir / artifact
                    if source.is_file():
                        target = GOLDEN_DIR / f"{case_dir.name}.{artifact}"
                        target.write_bytes(source.read_bytes())
            (GOLDEN_DIR / "report.yaml").write_bytes((out_dir / "report.yaml").read_bytes())
    finally:
        runner.build_gateway = original_build

    fixture_count = sum(1 for _ in FIXTURES_DIR.rglob("*.txt"))
    print(f"corpus: {len(synthesis.CORPUS)} cases")
    print(f"fixtures: {fixture_count} files under {FIXTURES_DIR}")
    print(f"goldens: {sorted(p.name for p in GOLDEN_DIR.iterdir())}")


if __name__ == "__main__":
    main()
