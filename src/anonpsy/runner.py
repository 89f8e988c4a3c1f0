"""Stage execution over a run directory, with per-case failure isolation.

The per-case stages are the rows of one table, `STAGES`. A row names what
selects its cases (the corpus, or an artifact each case directory must hold),
the files it writes per case, and the work that produces their text. One
engine, `run_stage`, runs any row: it loads the inputs and builds the gateway
once per command, runs the work of every case on a bounded worker pool, and
writes each output atomically. A case that fails a stage loses that stage's
outputs and those of every stage that reads them, directly or not, so nothing
downstream reads artifacts made from an earlier input.

Each case owns one directory under the run root; all writes stay inside it,
so cases can run on the pool without interfering. Reruns with unchanged
inputs and config produce byte-identical artifacts: nothing
wall-clock-dependent is ever written.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from . import prompts
from .baselines import llm_only, phi_mask, sdc_rewrite
from .config import ConfigError, RunConfig
from .converter import CaseNarrative, convert
from .evaluation.embedding import HashedTfEmbedder, HttpEmbedder
from .evaluation.report import EvalInputError, run_eval
from .fileio import write_atomic
from .gateway import HttpBackend, LlmGateway, MockBackend
from .narrator import generate, plan_outline
from .perturbation import perturb
from .perturbation.config import load_feasibility_rules, load_test_value_pools
from .yamlio import load_yaml, parse_yaml, safe_dump, safe_load, serialize_yaml

# A case's corpus entry, written into its directory by every stage that reads
# the corpus: convert rewrites them, a baseline writes only the missing ones,
# so each is rendered from the narrative only when it is written.
CASE_INPUTS = {
    "original.txt": lambda narrative: narrative.text,
    "meta.yaml": lambda narrative: safe_dump(
        {"case_id": narrative.case_id, "diagnoses": narrative.ground_truth_diagnoses}, sort_keys=False
    ),
}


class UsageError(RuntimeError):
    """Bad invocation or missing inputs; maps to exit code 2."""


@dataclass
class StageResult:
    stage: str
    succeeded: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed


@dataclass(frozen=True)
class Shared:
    """What one command loads once for every case of its stage."""

    config: RunConfig
    gateway: LlmGateway
    rules: list | None = None
    pools: list | None = None


@dataclass(frozen=True)
class Stage:
    """One row of the stage table."""

    source: str | None  # artifact a case directory must hold; None: every corpus case
    outputs: tuple[str, ...]  # files written per case, in the order `work` returns them
    # (case directory, source, shared) -> output texts; the source is the case's
    # CaseNarrative for a corpus stage, else the text of its source artifact.
    work: Callable[[Path, CaseNarrative | str, Shared], tuple[str, ...]]
    rewrite_inputs: bool = False  # rewrite CASE_INPUTS even when present
    tables: bool = False  # load the feasibility rules and value pools


def build_gateway(config: RunConfig) -> LlmGateway:
    if config.backend == "mock":
        backend = MockBackend(config.fixtures_dir)
    else:
        backend = HttpBackend(config.endpoint)
    return LlmGateway(
        backend,
        model=config.model,
        cache_dir=config.cache_dir,
        retries=config.retries,
        backoff_seconds=config.backoff_seconds,
    )


def build_embedder(config: RunConfig):
    if config.embedder == "http":
        if not config.embedding_endpoint:
            raise ConfigError("embedder http requires eval.embedding_endpoint")
        return HttpEmbedder(config.embedding_endpoint, config.embedding_model)
    return HashedTfEmbedder()


def load_corpus(corpus_dir: str | Path) -> list[CaseNarrative]:
    corpus_dir = Path(corpus_dir)
    manifest_path = corpus_dir / "manifest.yaml"
    if not manifest_path.is_file():
        raise UsageError(f"corpus manifest not found: {manifest_path}")
    doc = safe_load(manifest_path.read_text(encoding="utf-8")) or {}
    entries = doc.get("cases")
    if not isinstance(entries, list) or not entries:
        raise UsageError(f"corpus manifest {manifest_path} has no cases")
    narratives = []
    for entry in entries:
        case_id = str(entry["case_id"])
        file_name = str(entry.get("file", f"{case_id}.txt"))
        text_path = corpus_dir / file_name
        if not text_path.is_file():
            raise UsageError(f"case file missing: {text_path}")
        narratives.append(
            CaseNarrative(
                case_id=case_id,
                text=text_path.read_text(encoding="utf-8"),
                ground_truth_diagnoses=[str(d) for d in entry.get("diagnoses", [])],
            )
        )
    return narratives


def _convert(case_dir: Path, narrative: CaseNarrative, shared: Shared) -> tuple[str, ...]:
    return (serialize_yaml(convert(narrative, shared.gateway, work_dir=case_dir)),)


def _perturb(case_dir: Path, graph_yaml: str, shared: Shared) -> tuple[str, ...]:
    perturbed, audit = perturb(
        parse_yaml(graph_yaml),
        shared.gateway,
        shared.config.perturb,
        case_id=case_dir.name,
        rules=shared.rules,
        pools=shared.pools,
    )
    return serialize_yaml(perturbed), audit.to_yaml()


def _generate(case_dir: Path, graph_yaml: str, shared: Shared) -> tuple[str, ...]:
    graph = parse_yaml(graph_yaml)
    outline = plan_outline(graph)
    return outline.to_yaml(), generate(graph, shared.gateway, case_id=case_dir.name).text


def _phi(case_dir: Path, narrative: CaseNarrative, shared: Shared) -> tuple[str, ...]:
    return (phi_mask(narrative.text, ner_backend=None),)


def _sdc(case_dir: Path, narrative: CaseNarrative, shared: Shared) -> tuple[str, ...]:
    return (sdc_rewrite(narrative.text, shared.gateway, temperature=shared.config.sdc_temperature),)


def _llm_only(case_dir: Path, narrative: CaseNarrative, shared: Shared) -> tuple[str, ...]:
    return (llm_only(narrative.text, shared.gateway),)


# Every per-case stage, keyed by its manifest name, in pipeline order: a stage
# comes after every stage whose outputs it reads.
STAGES = {
    "convert": Stage(None, ("graph.yaml",), _convert, rewrite_inputs=True),
    "perturb": Stage("graph.yaml", ("graph.perturbed.yaml", "perturb.audit.yaml"), _perturb, tables=True),
    "generate": Stage("graph.perturbed.yaml", ("outline.yaml", "deid.txt"), _generate),
    "baseline.phi": Stage(None, ("baseline.phi.txt",), _phi),
    "baseline.sdc": Stage(None, ("baseline.sdc.txt",), _sdc),
    "baseline.llm_only": Stage(None, ("baseline.llm_only.txt",), _llm_only),
}
BASELINE_NAMES = tuple(name.removeprefix("baseline.") for name in STAGES if name.startswith("baseline."))


def run_stage(
    name: str, out_dir: str | Path, config: RunConfig, corpus_dir: str | Path | None = None
) -> StageResult:
    """Run one row of STAGES over its cases and record it in run_manifest.yaml.

    corpus_dir is read only by the stages whose cases come from the corpus.
    """
    stage = STAGES[name]
    out_dir = Path(out_dir)
    if stage.source is None:
        sources = {n.case_id: n for n in load_corpus(corpus_dir)}
    elif not out_dir.is_dir():
        raise UsageError(f"run directory {out_dir} does not exist")
    else:
        sources = {p.name: p / stage.source for p in out_dir.iterdir() if (p / stage.source).is_file()}
        if not sources:
            raise UsageError(f"no case directories with {stage.source} under {out_dir}")
    shared = Shared(config, build_gateway(config))
    if stage.tables:
        shared = replace(
            shared,
            rules=load_feasibility_rules(config.feasibility_rules_path),
            pools=load_test_value_pools(config.test_value_pools_path),
        )
    # A failure leaves stale this stage's outputs and those of every stage that
    # reads them, directly or not.
    stale = list(stage.outputs)
    for later in STAGES.values():
        if later.source in stale:
            stale += later.outputs

    def one(case_id: str) -> str | None:
        case_dir = out_dir / case_id
        try:
            if stage.source:
                source = sources[case_id].read_text(encoding="utf-8")
            else:
                source = sources[case_id]
                case_dir.mkdir(parents=True, exist_ok=True)
                for file, render in CASE_INPUTS.items():
                    if stage.rewrite_inputs or not (case_dir / file).is_file():
                        write_atomic(case_dir / file, render(source))
            for file, text in zip(stage.outputs, stage.work(case_dir, source, shared), strict=True):
                write_atomic(case_dir / file, text)
            return None
        except Exception as exc:  # isolate: one bad case never sinks the run
            for file in stale:
                (case_dir / file).unlink(missing_ok=True)
            return f"{type(exc).__name__}: {exc}"

    result = StageResult(stage=name)
    case_ids = sorted(sources)
    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        for case_id, error in zip(case_ids, pool.map(one, case_ids)):
            if error is None:
                result.succeeded.append(case_id)
            else:
                result.failed[case_id] = error
    _update_manifest(out_dir, config, name, result)
    return result


def run_convert(corpus_dir: str | Path, out_dir: str | Path, config: RunConfig) -> StageResult:
    return run_stage("convert", out_dir, config, corpus_dir)


def run_perturb(out_dir: str | Path, config: RunConfig) -> StageResult:
    return run_stage("perturb", out_dir, config)


def run_generate(out_dir: str | Path, config: RunConfig) -> StageResult:
    return run_stage("generate", out_dir, config)


def run_baseline(name: str, corpus_dir: str | Path, out_dir: str | Path, config: RunConfig) -> StageResult:
    if name not in BASELINE_NAMES:
        raise UsageError(f"unknown baseline {name!r}; choose from {BASELINE_NAMES}")
    return run_stage(f"baseline.{name}", out_dir, config, corpus_dir)


def run_pipeline(corpus_dir: str | Path, out_dir: str | Path, config: RunConfig) -> StageResult:
    """convert -> perturb -> generate, end to end."""
    merged = StageResult(stage="run")
    convert_result = run_convert(corpus_dir, out_dir, config)
    merged.failed.update(convert_result.failed)
    for stage in ("perturb", "generate"):
        try:
            stage_result = run_stage(stage, out_dir, config)
        except UsageError as exc:
            # Nothing survived the previous stage; report the earlier failures.
            if merged.failed:
                return merged
            raise exc
        merged.failed.update(stage_result.failed)
    merged.succeeded = [
        c for c in convert_result.succeeded if c not in merged.failed
    ]
    return merged


def run_evaluation(out_dir: str | Path, config: RunConfig) -> StageResult:
    out_dir = Path(out_dir)
    gateway = build_gateway(config)
    embedder = build_embedder(config)
    try:
        report = run_eval(
            out_dir,
            gateway,
            embedder,
            match_threshold=config.match_threshold,
            judge_model=config.judge_model,
            seed=config.seed,
        )
    except EvalInputError as exc:
        raise UsageError(str(exc)) from exc
    write_atomic(out_dir / "report.yaml", report.to_yaml())
    write_atomic(out_dir / "report.csv", report.to_csv())
    result = StageResult(stage="eval", succeeded=[c.case_id for c in report.cases])
    _update_manifest(out_dir, config, "eval", result)
    return result


def _update_manifest(out_dir: Path, config: RunConfig, stage: str, result: StageResult) -> None:
    """Record config digest, seeds, model ids, prompt hashes, and stage status."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "run_manifest.yaml"
    doc = {}
    if path.is_file():
        doc = load_yaml(path.read_text(encoding="utf-8")) or {}
    doc["config_digest"] = config.digest()
    doc["seed"] = config.seed
    doc["backend"] = config.backend
    doc["model"] = config.model
    doc["judge_model"] = config.judge_model or config.model
    doc["prompt_assets"] = {name: prompts.asset_hash(name) for name in prompts.list_templates()}
    stages = doc.setdefault("stages", {})
    stages[stage] = {
        "succeeded": sorted(result.succeeded),
        "failed": {k: result.failed[k] for k in sorted(result.failed)},
    }
    doc["stages"] = {k: stages[k] for k in sorted(stages)}
    write_atomic(path, safe_dump(doc, sort_keys=True))
