"""Stage execution over a run directory, with per-case failure isolation.

Each case owns one directory under the run root; all writes stay inside it,
so cases can run on a bounded worker pool without interfering. Reruns with
unchanged inputs and config produce byte-identical artifacts: nothing
wall-clock-dependent is ever written.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

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

BASELINE_NAMES = ("phi", "sdc", "llm_only")

# What each pipeline stage writes per case, in stage order. A case that fails
# a stage loses these files for that stage and every later one, so nothing
# downstream reads artifacts made from an earlier input.
STAGE_OUTPUTS = {
    "convert": ("graph.yaml",),
    "perturb": ("graph.perturbed.yaml", "perturb.audit.yaml"),
    "generate": ("outline.yaml", "deid.txt"),
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


def _map_cases(case_ids: list[str], jobs: int, fn) -> StageResult:
    result = StageResult(stage=fn.__name__)
    if jobs <= 1:
        outcomes = [(case_id, _run_case(fn, case_id)) for case_id in case_ids]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [(case_id, pool.submit(_run_case, fn, case_id)) for case_id in case_ids]
            outcomes = [(case_id, future.result()) for case_id, future in futures]
    for case_id, error in outcomes:
        if error is None:
            result.succeeded.append(case_id)
        else:
            result.failed[case_id] = error
    return result


def _remove_stale_outputs(out_dir: Path, result: StageResult) -> None:
    stages = list(STAGE_OUTPUTS)
    names = [name for stage in stages[stages.index(result.stage):] for name in STAGE_OUTPUTS[stage]]
    for case_id in result.failed:
        for name in names:
            (out_dir / case_id / name).unlink(missing_ok=True)


def _run_case(fn, case_id: str) -> str | None:
    try:
        fn(case_id)
        return None
    except Exception as exc:  # isolate: one bad case never sinks the run
        return f"{type(exc).__name__}: {exc}"


def run_convert(corpus_dir: str | Path, out_dir: str | Path, config: RunConfig) -> StageResult:
    narratives = {n.case_id: n for n in load_corpus(corpus_dir)}
    out_dir = Path(out_dir)
    gateway = build_gateway(config)

    def one(case_id: str) -> None:
        narrative = narratives[case_id]
        case_dir = out_dir / case_id
        case_dir.mkdir(parents=True, exist_ok=True)
        write_atomic(case_dir / "original.txt", narrative.text)
        write_atomic(
            case_dir / "meta.yaml",
            safe_dump(
                {"case_id": case_id, "diagnoses": narrative.ground_truth_diagnoses},
                sort_keys=False,
            ),
        )
        graph = convert(narrative, gateway, work_dir=case_dir)
        write_atomic(case_dir / "graph.yaml", serialize_yaml(graph))

    result = _map_cases(sorted(narratives), config.jobs, one)
    result.stage = "convert"
    _remove_stale_outputs(out_dir, result)
    _update_manifest(out_dir, config, "convert", result)
    return result


def _case_dirs_with(out_dir: Path, artifact: str) -> list[str]:
    if not out_dir.is_dir():
        raise UsageError(f"run directory {out_dir} does not exist")
    case_ids = sorted(
        p.name for p in out_dir.iterdir() if p.is_dir() and (p / artifact).is_file()
    )
    if not case_ids:
        raise UsageError(f"no case directories with {artifact} under {out_dir}")
    return case_ids


def run_perturb(out_dir: str | Path, config: RunConfig) -> StageResult:
    out_dir = Path(out_dir)
    case_ids = _case_dirs_with(out_dir, "graph.yaml")
    gateway = build_gateway(config)
    rules = load_feasibility_rules(config.feasibility_rules_path)
    pools = load_test_value_pools(config.test_value_pools_path)

    def one(case_id: str) -> None:
        case_dir = out_dir / case_id
        graph = parse_yaml((case_dir / "graph.yaml").read_text(encoding="utf-8"))
        perturbed, audit = perturb(
            graph, gateway, config.perturb, case_id=case_id, rules=rules, pools=pools
        )
        write_atomic(case_dir / "graph.perturbed.yaml", serialize_yaml(perturbed))
        write_atomic(case_dir / "perturb.audit.yaml", audit.to_yaml())

    result = _map_cases(case_ids, config.jobs, one)
    result.stage = "perturb"
    _remove_stale_outputs(out_dir, result)
    _update_manifest(out_dir, config, "perturb", result)
    return result


def run_generate(out_dir: str | Path, config: RunConfig) -> StageResult:
    out_dir = Path(out_dir)
    case_ids = _case_dirs_with(out_dir, "graph.perturbed.yaml")
    gateway = build_gateway(config)

    def one(case_id: str) -> None:
        case_dir = out_dir / case_id
        graph = parse_yaml((case_dir / "graph.perturbed.yaml").read_text(encoding="utf-8"))
        outline = plan_outline(graph)
        write_atomic(case_dir / "outline.yaml", outline.to_yaml())
        narrative = generate(graph, gateway, case_id=case_id)
        write_atomic(case_dir / "deid.txt", narrative.text)

    result = _map_cases(case_ids, config.jobs, one)
    result.stage = "generate"
    _remove_stale_outputs(out_dir, result)
    _update_manifest(out_dir, config, "generate", result)
    return result


def run_pipeline(corpus_dir: str | Path, out_dir: str | Path, config: RunConfig) -> StageResult:
    """convert -> perturb -> generate, end to end."""
    merged = StageResult(stage="run")
    convert_result = run_convert(corpus_dir, out_dir, config)
    merged.failed.update(convert_result.failed)
    for stage_fn in (run_perturb, run_generate):
        try:
            stage_result = stage_fn(out_dir, config)
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


def run_baseline(name: str, corpus_dir: str | Path, out_dir: str | Path, config: RunConfig) -> StageResult:
    if name not in BASELINE_NAMES:
        raise UsageError(f"unknown baseline {name!r}; choose from {BASELINE_NAMES}")
    narratives = {n.case_id: n for n in load_corpus(corpus_dir)}
    out_dir = Path(out_dir)
    gateway = build_gateway(config) if name in ("sdc", "llm_only") else None

    def one(case_id: str) -> None:
        narrative = narratives[case_id]
        case_dir = out_dir / case_id
        case_dir.mkdir(parents=True, exist_ok=True)
        if not (case_dir / "original.txt").is_file():
            write_atomic(case_dir / "original.txt", narrative.text)
        if not (case_dir / "meta.yaml").is_file():
            write_atomic(
                case_dir / "meta.yaml",
                safe_dump(
                    {"case_id": case_id, "diagnoses": narrative.ground_truth_diagnoses},
                    sort_keys=False,
                ),
            )
        if name == "phi":
            masked = phi_mask(narrative.text, ner_backend=None)
            write_atomic(case_dir / "baseline.phi.txt", masked)
        elif name == "sdc":
            rewritten = sdc_rewrite(narrative.text, gateway, temperature=config.sdc_temperature)
            write_atomic(case_dir / "baseline.sdc.txt", rewritten)
        else:
            rewritten = llm_only(narrative.text, gateway)
            write_atomic(case_dir / "baseline.llm_only.txt", rewritten)

    result = _map_cases(sorted(narratives), config.jobs, one)
    result.stage = f"baseline.{name}"
    _update_manifest(out_dir, config, f"baseline.{name}", result)
    return result


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
