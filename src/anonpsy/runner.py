"""Stage execution over a run directory, with per-case failure isolation.

The per-case stages are the rows of one table, `STAGES`. A row names what
selects its cases (the corpus, or the files each case directory must hold),
the files it writes per case, and the work that produces their text and its
product. One engine, `run_stage`, runs one row or a chain of rows (`run` is
the chain convert -> perturb -> generate; `eval` is one row whose product is
a case's scores): it loads the inputs and builds the gateway and embedder
once per command, verifies every case, runs each case with a row left to
run on one task of a bounded worker pool, hands each row's product (a
graph) to the next row in memory, writes each output atomically, records
every row in run_manifest.yaml once and returns each case's last product.
A case that fails a stage loses that stage's outputs and those of every
stage that reads them, directly or not, so nothing downstream reads
artifacts made from an earlier input. Every case file a row writes, its
corpus entry as well as its outputs, goes through one step: before a file
changes, every other row that reads it loses its outputs, and everything
made from them, unless its trace shows it was made from the new bytes; only
then are the changed files written, so a command killed in between finds
them changed again.

Every row that writes files keeps a verifying trace per case in the
manifest's `provenance` section: one digest over the row name, the case id,
the command's base key (config digest, prompt asset hashes and the
package's own files), the row's input bytes and its outputs as written.
Verifying comes before scheduling. On the calling thread, and reading only,
`verify` finds each case's first row whose trace does not match the files
on disk, or, for a corpus row, whose corpus entry on disk is not the one
rendered. A case with no such row is recorded as skipped: no work, no model
call, no write, no parse, and a command where every case is skipped starts
no pool. The others run on the pool from that row on, reusing the digests
verify read. A row that reruns and writes the same bytes leaves the next
row's input unchanged, so that row is skipped too (early cutoff). A row
during which a step fell back on a failed model call keeps no trace, so the
next command runs it again; the manifest lists it under
`stages.<row>.degraded`. The manifest itself is rewritten only when its
content changes.

Each case owns one directory under the run root; all writes stay inside it,
so cases can run on the pool without interfering. Reruns with unchanged
inputs and config produce byte-identical artifacts: nothing
wall-clock-dependent is ever written.
"""

from __future__ import annotations

import functools
import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from . import prompts
from .baselines import llm_only, phi_mask, sdc_rewrite
from .config import RunConfig
from .converter import INTERMEDIATES, CaseNarrative, convert
from .evaluation.embedding import HashedTfEmbedder, HttpEmbedder
from .evaluation.report import eval_case, run_eval
from .fileio import write_atomic
from .gateway import HttpBackend, LlmGateway, MockBackend, collect_failures
from .model import SemanticGraph
from .narrator import generate, plan_outline
from .perturbation import perturb
from .textproc import id_bytes
from .yamlio import json_dump, load_yaml, parse_yaml, safe_dump, safe_load, serialize_yaml

# A case's corpus entry, each file rendered from the narrative and written
# into its directory, like any other case file, by every stage that reads
# the corpus.
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
    # case id -> the rows it skipped because their trace matched
    skipped: dict[str, list[str]] = field(default_factory=dict)
    # case id -> the rows in which a step fell back on a failed model call
    degraded: dict[str, list[str]] = field(default_factory=dict)
    # case id -> the product of the last row, for each succeeded case
    products: dict[str, Any] = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return not self.failed


@dataclass(frozen=True)
class Shared:
    """What one command builds once for every case of its stages.

    The tables the stages read come with the config: `config.perturb` holds
    the feasibility rules and value pools, resolved by `load_config`.
    """

    config: RunConfig
    gateway: LlmGateway
    embedder: Any


@dataclass(frozen=True)
class Stage:
    """One row of the stage table."""

    # None: every corpus case, whose source is its CaseNarrative. A file name:
    # the case directories holding that artifact, whose source is the graph it
    # holds. The CASE_INPUTS file names: the case directories holding them,
    # whose source is the corpus entry read back from them.
    source: str | tuple[str, ...] | None
    outputs: tuple[str, ...]  # files written per case, in the order `work` returns them
    # (case directory, source, shared) -> (output texts, product); the product
    # is what a stage reading outputs[0] takes.
    work: Callable[[Path, Any, Shared], tuple[tuple[str, ...], Any]]
    requires: tuple[str, ...] = ()  # files each of its cases must hold before any case runs


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
        judge_model=config.judge_model,
    )


def build_embedder(config: RunConfig):
    if config.embedder == "http":
        return HttpEmbedder(config.embedding_endpoint, config.embedding_model)
    return HashedTfEmbedder()


def load_corpus(corpus_dir: str | os.PathLike) -> list[CaseNarrative]:
    # Str paths, as in run_stage's per-case work: pathlib passes every path part through sys.intern.
    manifest_path = os.path.join(corpus_dir, "manifest.yaml")
    if not os.path.isfile(manifest_path):
        raise UsageError(f"corpus manifest not found: {manifest_path}")
    with open(manifest_path, encoding="utf-8") as f:
        doc = safe_load(f.read()) or {}
    entries = doc.get("cases") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        raise UsageError(f"corpus manifest {manifest_path} has no cases")
    narratives = []
    seen: dict[str, int] = {}  # case id -> index of its entry
    for i, entry in enumerate(entries):
        where = f"corpus manifest {manifest_path}: cases[{i}]"
        if not isinstance(entry, dict):
            raise UsageError(f"{where} is a {type(entry).__name__}, not a mapping with a case_id")
        if entry.get("case_id") in (None, ""):
            raise UsageError(f"{where} has no case_id")
        case_id = str(entry["case_id"])
        # The case id names the case's directory, which must lie inside the run directory.
        if case_id in (".", "..") or "/" in case_id or os.sep in case_id or "\0" in case_id:
            raise UsageError(f"{where}: case_id {case_id!r} is not a directory name")
        if case_id in seen:
            raise UsageError(f"{where}: case_id {case_id!r} repeats cases[{seen[case_id]}]")
        seen[case_id] = i
        diagnoses = entry.get("diagnoses")
        if diagnoses is None:
            diagnoses = []
        # A string here would read as one label per character.
        if not isinstance(diagnoses, list):
            raise UsageError(f"{where} ({case_id}): diagnoses must be a list of labels, got {type(diagnoses).__name__}")
        for j, label in enumerate(diagnoses):
            if label is None or isinstance(label, (dict, list)):
                raise UsageError(f"{where} ({case_id}): diagnoses[{j}] must be a label, got {type(label).__name__}")
        text_path = os.path.join(corpus_dir, str(entry.get("file", f"{case_id}.txt")))
        if not os.path.isfile(text_path):
            raise UsageError(f"case file missing: {text_path}")
        with open(text_path, encoding="utf-8") as f:
            text = f.read()
        narratives.append(CaseNarrative(case_id=case_id, text=text, ground_truth_diagnoses=[str(d) for d in diagnoses]))
    return narratives


def read_case_inputs(case_dir: Path) -> CaseNarrative:
    """The corpus entry that CASE_INPUTS wrote into case_dir, read back."""
    meta = load_yaml((case_dir / "meta.yaml").read_text(encoding="utf-8")) or {}
    text = (case_dir / "original.txt").read_text(encoding="utf-8")
    return CaseNarrative(case_dir.name, text, [str(d) for d in meta.get("diagnoses", [])])


def _convert(case_dir: Path, narrative: CaseNarrative, shared: Shared) -> tuple[tuple[str, ...], Any]:
    graph, intermediates = convert(narrative, shared.gateway)
    return (serialize_yaml(graph), *intermediates), graph


def _perturb(case_dir: Path, graph: SemanticGraph, shared: Shared) -> tuple[tuple[str, ...], Any]:
    perturbed, audit = perturb(graph, shared.gateway, shared.config.perturb, case_id=case_dir.name)
    return (serialize_yaml(perturbed), audit.to_yaml()), perturbed


def _generate(case_dir: Path, graph: SemanticGraph, shared: Shared) -> tuple[tuple[str, ...], Any]:
    outline = plan_outline(graph)
    return (outline.to_yaml(), generate(outline, shared.gateway, case_id=case_dir.name).text), None


def _phi(case_dir: Path, narrative: CaseNarrative, shared: Shared) -> tuple[tuple[str, ...], Any]:
    return (phi_mask(narrative.text, ner_backend=None),), None


def _sdc(case_dir: Path, narrative: CaseNarrative, shared: Shared) -> tuple[tuple[str, ...], Any]:
    return (sdc_rewrite(narrative.text, shared.gateway, temperature=shared.config.sdc_temperature),), None


def _llm_only(case_dir: Path, narrative: CaseNarrative, shared: Shared) -> tuple[tuple[str, ...], Any]:
    return (llm_only(narrative.text, shared.gateway),), None


def _eval(case_dir: Path, narrative: CaseNarrative, shared: Shared) -> tuple[tuple[str, ...], Any]:
    texts = {
        variant: (case_dir / file).read_text(encoding="utf-8")
        for variant, file in VARIANT_FILES.items()
        if (case_dir / file).is_file()
    }
    config = shared.config
    return (), eval_case(narrative, texts, shared.gateway, shared.embedder, config.match_threshold, config.seed)


# Every per-case stage, keyed by its manifest name, in pipeline order: a stage
# comes after every stage whose outputs it reads.
STAGES = {
    "convert": Stage(None, ("graph.yaml", *INTERMEDIATES), _convert),
    "perturb": Stage("graph.yaml", ("graph.perturbed.yaml", "perturb.audit.yaml"), _perturb),
    "generate": Stage("graph.perturbed.yaml", ("outline.yaml", "deid.txt"), _generate),
    "baseline.phi": Stage(None, ("baseline.phi.txt",), _phi),
    "baseline.sdc": Stage(None, ("baseline.sdc.txt",), _sdc),
    "baseline.llm_only": Stage(None, ("baseline.llm_only.txt",), _llm_only),
    "eval": Stage(tuple(CASE_INPUTS), (), _eval, requires=("deid.txt",)),
}
# The text eval scores per variant, beside the original: the file of the stage that writes it.
VARIANT_FILES = {
    "anonpsy": "deid.txt",
    "phi": "baseline.phi.txt",
    "sdc": "baseline.sdc.txt",
    "llm_only": "baseline.llm_only.txt",
}
BASELINE_NAMES = tuple(name.removeprefix("baseline.") for name in STAGES if name.startswith("baseline."))
PIPELINE = ("convert", "perturb", "generate")


def _reads(stage: Stage) -> tuple[str, ...]:
    """The case files a stage reads: its source graph, or the corpus entry."""
    return (stage.source,) if isinstance(stage.source, str) else tuple(CASE_INPUTS)


def _with_readers(files: tuple[str, ...]) -> list[str]:
    """files, and the outputs of every stage that reads them, directly or not."""
    files = list(files)
    for stage in STAGES.values():
        if stage.source in files:
            files += stage.outputs
    return files


@functools.cache
def source_digest() -> str:
    """SHA-256 over the package's own files on disk: every module but the CLI, and every file in data/.

    The files are listed, not taken from the loaded modules, so the digest does
    not depend on what has been imported. The CLI only picks the command and
    the config, which the base key covers. The prompt templates are covered by
    their asset hashes. The files do not change while the program runs:
    computed once per process.
    """
    package = Path(__file__).parent
    files = sorted(p.relative_to(package).as_posix() for p in package.rglob("*.py") if p.name != "cli.py")
    files += sorted(f"data/{p.name}" for p in (package / "data").iterdir())
    h = hashlib.sha256()
    for file in files:
        data = (package / file).read_bytes()
        h.update(f"{file}\0{len(data)}\0".encode("utf-8"))
        h.update(data)
    return h.hexdigest()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes | None:
    """The bytes of the file at path; None when it is missing or unreadable."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def _trace(*parts: str) -> str:
    """One trace: 32 hex digits over parts, which are names and digests.

    A case id read from a directory name that is not UTF-8 is hashed over its
    original bytes (`id_bytes`).
    """
    return _digest(id_bytes("\0".join(parts)))[:32]


def _base_key(config_digest: str, prompt_assets: dict[str, str]) -> str:
    """What every traced row of one command reads besides its input: config, prompts and the package."""
    return _trace(config_digest, *(f"{name}={h}" for name, h in sorted(prompt_assets.items())), source_digest())


class _CaseFiles:
    """One case directory's files as one command reads and writes them."""

    def __init__(self, out_dir: Path, case_id: str, narrative: CaseNarrative | None) -> None:
        self.case_id = case_id
        self.narrative = narrative  # what the corpus entry renders from, for a case from the corpus
        # A str path: pathlib passes every path part, here each file name, through sys.intern.
        self.prefix = os.path.join(out_dir, case_id, "")
        self.digests: dict[str, str] = {}  # file -> digest of its bytes as last read or written; "-": missing

    @functools.cached_property
    def entry(self) -> dict[str, str]:
        """The corpus entry, file -> text, rendered once."""
        return {file: render(self.narrative) for file, render in CASE_INPUTS.items()}

    def read(self, file: str) -> bytes | None:
        return _read(self.prefix + file)

    def holds(self, texts: dict[str, str]) -> bool:
        """Whether each file holds its text, compared by bytes; notes the digest of each that does."""
        for file, text in texts.items():
            data = text.encode("utf-8")
            if self.read(file) != data:
                return False
            self.digests[file] = _digest(data)
        return True

    def digest(self, file: str) -> str:
        if file not in self.digests:
            data = self.read(file)
            self.digests[file] = "-" if data is None else _digest(data)
        return self.digests[file]

    def remove(self, files: list[str], traces: dict[str, str | None]) -> None:
        """Delete files and drop the trace of every row that wrote one of them."""
        for file in files:
            try:
                os.unlink(self.prefix + file)
            except FileNotFoundError:
                pass
            self.digests[file] = "-"
        for name, stage in STAGES.items():
            if not set(files).isdisjoint(stage.outputs):
                traces[name] = None


def run_stage(
    names: str | tuple[str, ...], out_dir: str | Path, config: RunConfig, corpus_dir: str | Path | None = None
) -> StageResult:
    """Run one row of STAGES, or a chain of rows, over their cases; record each row in run_manifest.yaml.

    In a chain each row's source is the previous row's first output, which it
    takes as the previous row's product, in memory. A case starts at the first
    row whose source it holds (the corpus for a corpus row), and stops at its
    first failure. corpus_dir is read only when the first row's cases come
    from the corpus. Every case is verified first, on the calling thread: a
    row whose trace matches the manifest's entry, and whose corpus entry on
    disk is the one rendered, is skipped and counts as succeeded. Each case
    with a row left to run then runs on the pool from that row on. The result
    lists a case as succeeded, with the product of its last row, when it ran
    every row from its start, else with the error of the row it failed. The
    product of a skipped row is None, and the next row that runs parses its
    source from disk.
    """
    chain = (names,) if isinstance(names, str) else tuple(names)
    rows = [STAGES[name] for name in chain]
    # The files a case directory holds to start at each row; none for a corpus row.
    held = [_reads(row) if row.source else () for row in rows]
    out_dir = Path(out_dir)
    # case id -> (index of its first row in the chain, its CaseNarrative when that row is a corpus row)
    starts: dict[str, tuple[int, CaseNarrative | None]] = {}
    if rows[0].source is None:
        starts = {n.case_id: (0, n) for n in load_corpus(corpus_dir)}
    elif not out_dir.is_dir():
        raise UsageError(f"run directory {out_dir} does not exist")
    if out_dir.is_dir():
        for case_dir in out_dir.iterdir():
            if case_dir.name not in starts:
                index = next(
                    (i for i, files in enumerate(held) if files and all((case_dir / f).is_file() for f in files)), None
                )
                if index is not None:
                    starts[case_dir.name] = (index, None)
    if not starts:
        raise UsageError(f"no case directories with {' + '.join(held[0])} under {out_dir}")
    # Check every input before the first (possibly paid) model call.
    missing = [
        f"{case_id}/{file}"
        for case_id, (first, _) in sorted(starts.items())
        for file in rows[first].requires
        if not (out_dir / case_id / file).is_file()
    ]
    if missing:
        raise UsageError("missing run artifacts: " + ", ".join(missing))
    shared = Shared(config, build_gateway(config), build_embedder(config))
    manifest_path = out_dir / "run_manifest.yaml"
    manifest = (load_yaml(manifest_path.read_text(encoding="utf-8")) or {}) if manifest_path.is_file() else {}
    # case id -> row -> trace, as recorded; the tasks only read it
    recorded: dict[str, dict[str, str]] = manifest.get("provenance") or {}
    prompt_assets = {name: prompts.asset_hash(name) for name in prompts.list_templates()}
    base = _base_key(config.digest(), prompt_assets)

    def check(name: str, files: _CaseFiles) -> tuple[tuple, bool]:
        """The row's trace key (empty when it writes no file), and whether its recorded trace matches
        the files on disk."""
        stage = STAGES[name]
        if not stage.outputs:
            return (), False
        key = (name, files.case_id, base, *map(files.digest, _reads(stage)))
        entries = recorded.get(files.case_id) or {}
        return key, name in entries and entries[name] == _trace(*key, *map(files.digest, stage.outputs))

    def write(name: str, files: _CaseFiles, texts: dict[str, str], traces: dict[str, str | None]) -> None:
        """Write, for row name, the files among texts whose bytes change.

        First remove the outputs of every other row that reads one of them, and
        everything made from those, so that a command killed in between finds the
        files changed again. Not where the reader's trace matches the new bytes:
        it proves the reader's outputs were made from them.
        """
        digests = {file: _digest(text.encode("utf-8")) for file, text in texts.items()}
        changing = [file for file, digest in digests.items() if files.digest(file) != digest]
        if not changing:
            return
        files.digests.update(digests)
        files.remove(
            [
                file
                for reader, row in STAGES.items()
                if reader != name and not set(_reads(row)).isdisjoint(changing) and not check(reader, files)[1]
                for file in _with_readers(row.outputs)
            ],
            traces,
        )
        os.makedirs(files.prefix, exist_ok=True)
        for file in changing:
            write_atomic(files.prefix + file, texts[file])

    def verify(case_id: str) -> tuple[int, _CaseFiles]:
        """The index of the first row this case must run (len(chain): none), and the files it read.

        A row must run when its trace does not match, or when it is a corpus row
        whose entry on disk is not the rendered one. Writes nothing.
        """
        first, narrative = starts[case_id]
        files = _CaseFiles(out_dir, case_id, narrative)
        for i in range(first, len(chain)):
            try:
                if (rows[i].source is None and not files.holds(files.entry)) or not check(chain[i], files)[1]:
                    return i, files
            except Exception:  # the row meets it again on its task, which fails just this case
                return i, files
        return len(chain), files

    def one(
        case_id: str, start: int, files: _CaseFiles
    ) -> tuple[dict[str, str | None], list[str], list[str], dict[str, str | None], Any]:
        """Run the case's rows from start on. Each row this case reached, with its error or None;
        the rows it skipped; those that fell back on a failed model call; its new traces (None:
        drop the entry); and the last row's product."""
        first, source = starts[case_id]
        case_dir = out_dir / case_id
        skipped = list(chain[first:start])  # verified
        ran: dict[str, str | None] = dict.fromkeys(skipped)
        if skipped:
            source = None  # not in memory: a later row that runs reads it from disk
        degraded: list[str] = []
        traces: dict[str, str | None] = {}
        for name in chain[start:]:
            stage = STAGES[name]
            try:
                if stage.source is None:
                    write(name, files, files.entry, traces)
                key, matched = check(name, files)
                if matched:
                    ran[name] = None
                    skipped.append(name)
                    source = None
                    continue
                # None: the first row of a file-selected case, or the row after a skipped one
                if source is None and isinstance(stage.source, str):
                    source = parse_yaml((case_dir / stage.source).read_text(encoding="utf-8"))
                elif source is None:
                    source = read_case_inputs(case_dir)
                with collect_failures() as failures:
                    texts, source = stage.work(case_dir, source, shared)
                write(name, files, dict(zip(stage.outputs, texts, strict=True)), traces)
                ran[name] = None
                if failures:
                    degraded.append(name)
                if key:
                    # A row that fell back on a failed call keeps no trace: the next command runs it again.
                    traces[name] = None if failures else _trace(*key, *map(files.digest, stage.outputs))
            except Exception as exc:  # isolate: one bad case never sinks the run
                files.remove(_with_readers(stage.outputs), traces)
                ran[name] = f"{type(exc).__name__}: {exc}"
                break
        return ran, skipped, degraded, traces, source

    result = StageResult(stage="+".join(chain))
    by_stage = {name: StageResult(stage=name) for name in chain}
    provenance = dict(recorded)
    case_ids = sorted(starts)
    plans = {case_id: verify(case_id) for case_id in case_ids}
    # A case every row of which verified is recorded here; only a case with a row to run needs the pool.
    outcomes = {case_id: one(case_id, *plan) for case_id, plan in plans.items() if plan[0] == len(chain)}
    pending = [case_id for case_id in case_ids if case_id not in outcomes]
    if pending:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outcomes.update(zip(pending, pool.map(lambda case_id: one(case_id, *plans[case_id]), pending)))
    for case_id in case_ids:
        ran, skipped, degraded, traces, product = outcomes[case_id]
        for name, error in ran.items():
            if error is None:
                by_stage[name].succeeded.append(case_id)
            else:
                by_stage[name].failed[case_id] = result.failed[case_id] = error
        for name in degraded:
            by_stage[name].degraded[case_id] = [name]
        if case_id not in result.failed:
            result.succeeded.append(case_id)
            result.products[case_id] = product
        if skipped:
            result.skipped[case_id] = skipped
        if degraded:
            result.degraded[case_id] = degraded
        merged = {name: t for name, t in {**recorded.get(case_id, {}), **traces}.items() if t is not None}
        if merged:
            provenance[case_id] = merged
        else:
            provenance.pop(case_id, None)
    # A stage no case reached gets no entry, as when it is run on its own and finds no case.
    reached = [r for r in by_stage.values() if r.succeeded or r.failed]
    _update_manifest(out_dir, manifest, config, prompt_assets, reached, provenance)
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
    """convert -> perturb -> generate, end to end, one pass per case."""
    return replace(run_stage(PIPELINE, out_dir, config, corpus_dir), stage="run")


def run_evaluation(out_dir: str | Path, config: RunConfig) -> StageResult:
    """Score every case on the pool, then report the succeeded ones in case-id order."""
    result = run_stage("eval", out_dir, config)
    report = run_eval([result.products[case_id] for case_id in result.succeeded])
    yaml_path, csv_path = os.path.join(out_dir, "report.yaml"), os.path.join(out_dir, "report.csv")
    text = report.to_yaml()
    if _read(yaml_path) != text.encode("utf-8"):
        # A command killed between the two writes leaves no CSV of an earlier eval beside the new YAML.
        try:
            os.unlink(csv_path)
        except FileNotFoundError:
            pass
    write_atomic(yaml_path, text)
    write_atomic(csv_path, report.to_csv())
    return result


def _update_manifest(
    out_dir: Path,
    loaded: dict,
    config: RunConfig,
    prompt_assets: dict[str, str],
    results: list[StageResult],
    provenance: dict[str, dict[str, str]],
) -> None:
    """Record config digest, seeds, model ids, prompt hashes, stage status and provenance over the
    manifest as loaded; write it when that changed its content."""
    stages = dict(loaded.get("stages") or {})
    for name, entry in stages.items():
        # A failure an earlier command recorded, whose outputs a command killed since has written: the row
        # is no longer listed as failed for that case, nor as succeeded, until it runs there again.
        outputs = STAGES[name].outputs if name in STAGES else ()
        failed = entry.get("failed") or {}
        kept = {k: v for k, v in failed.items() if not any(os.path.exists(out_dir / k / f) for f in outputs)}
        if kept != failed:
            stages[name] = {**entry, "failed": kept}
    for result in results:
        stages[result.stage] = {
            "succeeded": sorted(result.succeeded),
            "failed": {k: result.failed[k] for k in sorted(result.failed)},
        }
        if result.degraded:
            stages[result.stage]["degraded"] = sorted(result.degraded)
    doc = {k: v for k, v in loaded.items() if k != "provenance"}
    doc.update(
        config_digest=config.digest(),
        seed=config.seed,
        backend=config.backend,
        model=config.model,
        judge_model=config.judge_model or config.model,
        prompt_assets=prompt_assets,
        stages=stages,
    )
    if provenance:  # none until a traced row has run here
        doc["provenance"] = provenance
    if doc != loaded:
        write_atomic(out_dir / "run_manifest.yaml", json_dump(doc))
