"""Replica corpus and the one sequential recording pass behind every workload.

The corpus cycles through the three canned cases of `tests/synthesis.py`.
Replica narratives are the canned texts verbatim under new case ids, and
each replica id aliases back to its canned id. The recording pass runs the
whole workflow (run, three baselines, eval) once with a backend that
synthesizes each response with `tests.synthesis.synthesize`, replica ids
mapped back to canned ids. It writes the strict mock fixtures, the stub's
response store keyed by `gateway.cache_key`, and a reference run directory
whose artifacts every timed run must reproduce byte for byte.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import yaml

import anonpsy.runner as runner
from anonpsy.config import RunConfig
from anonpsy.gateway import ChatRequest, LlmGateway, cache_key, variables_digest
from tests import synthesis

CANNED_IDS = tuple(sorted(synthesis.CORPUS))
REPLICA_COUNTS = (9, 10, 11)


class RecordingError(RuntimeError):
    """The recording pass could not produce a complete reference run."""


def replica_plan(seed: int) -> dict[str, str]:
    """Case id -> canned id. The seed sets N and which replica aliases which case.

    The replicas cycle through the canned cases in a seeded order, so no
    canned case appears more than once more often than another.
    """
    rng = random.Random(f"perfbench-corpus:{seed}")
    n = rng.choice(REPLICA_COUNTS)
    cycle = list(CANNED_IDS)
    rng.shuffle(cycle)
    plan = {case_id: case_id for case_id in CANNED_IDS}
    for i in range(n - len(CANNED_IDS)):
        plan[f"case_{101 + i:03d}"] = cycle[i % len(cycle)]
    return plan


def write_corpus(corpus_dir: Path, plan: dict[str, str]) -> None:
    corpus_dir.mkdir(parents=True)
    entries = []
    for case_id in sorted(plan):
        canned = plan[case_id]
        (corpus_dir / f"{case_id}.txt").write_text(synthesis.CORPUS[canned], encoding="utf-8")
        entries.append(
            {"case_id": case_id, "file": f"{case_id}.txt", "diagnoses": synthesis.GOLD_DIAGNOSES[canned]}
        )
    (corpus_dir / "manifest.yaml").write_text(
        yaml.safe_dump({"cases": entries}, sort_keys=False), encoding="utf-8"
    )


class RecordingBackend:
    """Synthesizes each response once, as fixture and as stub store entry."""

    name = "mock"

    def __init__(self, fixtures_dir: Path, aliases: dict[str, str]):
        self.fixtures_dir = fixtures_dir
        self.aliases = aliases
        self.store: dict[str, str] = {}
        self.calls = 0

    def complete(self, req: ChatRequest) -> str:
        variables = dict(req.variables)
        canned = dict(variables)
        if "case_id" in canned:
            canned["case_id"] = self.aliases[canned["case_id"]]
        text = synthesis.synthesize(req.template_id, canned)
        path = self.fixtures_dir / req.template_id / f"{variables_digest(variables)}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        key = cache_key(req)
        if self.store.setdefault(key, text) != text:
            raise RecordingError(f"two responses for one prompt (template {req.template_id}, key {key})")
        self.calls += 1
        return text


def run_workflow(corpus_dir: Path, out_dir: Path, config: RunConfig) -> list:
    """`anonpsy run`, the three baselines and `anonpsy eval`, in that order."""
    results = [runner.run_pipeline(corpus_dir, out_dir, config)]
    results += [runner.run_baseline(name, corpus_dir, out_dir, config) for name in runner.BASELINE_NAMES]
    results.append(runner.run_evaluation(out_dir, config))
    return results


def record(work: Path, seed: int) -> dict:
    """Write corpus/, fixtures/, store.json and reference/ under a fresh `work`.

    Returns the corpus plan and the recorded call counts.
    """
    if work.exists():
        shutil.rmtree(work)
    plan = replica_plan(seed)
    write_corpus(work / "corpus", plan)
    (work / "fixtures").mkdir()
    backend = RecordingBackend(work / "fixtures", plan)
    config = RunConfig(seed=seed, jobs=1, backend="mock", fixtures_dir=str(work / "fixtures"))
    gateway = LlmGateway(backend, model=config.model)
    original_build = runner.build_gateway
    runner.build_gateway = lambda _config: gateway
    try:
        results = run_workflow(work / "corpus", work / "reference", config)
    finally:
        runner.build_gateway = original_build
    failed = {r.stage: r.failed for r in results if r.failed}
    if failed:
        raise RecordingError(f"recording pass failed: {failed}")
    (work / "store.json").write_text(json.dumps(backend.store, sort_keys=True), encoding="utf-8")
    return {
        "plan": plan,
        "calls": backend.calls,
        "distinct_prompts": len(backend.store),
    }


def fill_cache(store_path: Path, cache_dir: Path) -> None:
    """Write the store as the gateway's on-disk cache (`<cache_key>.txt`)."""
    cache_dir.mkdir(parents=True)
    for key, text in json.loads(store_path.read_text(encoding="utf-8")).items():
        (cache_dir / f"{key}.txt").write_text(text, encoding="utf-8")
