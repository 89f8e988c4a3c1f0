"""The stage engine: case selection, stale-output removal, and the hooks the traced bench patches."""

import ast
import copy
import inspect
import itertools
import os
import shutil
import textwrap
import threading
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
import yaml

import anonpsy
import anonpsy.runner as runner
from anonpsy import converter
from anonpsy.config import RunConfig
from anonpsy.converter import ConversionError
from anonpsy.gateway import LlmGateway, MockBackend
from anonpsy.model import Violation
from anonpsy.perturbation import config as perturb_tables

from .conftest import CORPUS_DIR, FIXTURES_DIR, GOLDEN_DIR
from .helpers import (
    SpyBackend,
    age_follows_the_text,
    assert_provenance,
    assert_same_typed,
    kill_after,
    shared_containers,
)
from .synthesis import synthesize

CASE_IDS = ["case_001", "case_002", "case_003"]


def _config(fixtures_dir: Path = FIXTURES_DIR) -> RunConfig:
    return RunConfig(seed=42, jobs=1, backend="mock", fixtures_dir=str(fixtures_dir))


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _count_data_reads(monkeypatch) -> list[str]:
    """The package files read through importlib.resources from here on, one entry per read."""
    reads = []
    real_files = resources.files

    class Counting:
        def __init__(self, root):
            self.root = root

        def joinpath(self, *parts):
            reads.append("/".join(parts))
            return self.root.joinpath(*parts)

        def __getattr__(self, name):
            return getattr(self.root, name)

    monkeypatch.setattr(resources, "files", lambda package: Counting(real_files(package)))
    return reads


def _case_files(out_dir: Path) -> dict[str, set[str]]:
    return {
        case_dir.name: {p.name for p in case_dir.iterdir() if p.is_file()}
        for case_dir in sorted(out_dir.iterdir())
        if case_dir.is_dir()
    }


def test_failed_baseline_removes_its_previous_output(tmp_path):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES_DIR, fixtures)
    config = _config(fixtures)
    out_dir = tmp_path / "run"
    assert runner.run_pipeline(CORPUS_DIR, out_dir, config).ok
    assert runner.run_baseline("sdc", CORPUS_DIR, out_dir, config).ok
    stale = out_dir / "case_001" / "baseline.sdc.txt"
    assert stale.is_file()

    text = (CORPUS_DIR / "case_001.txt").read_text(encoding="utf-8")
    fixture = Path(MockBackend(fixtures).fixture_path("sdc_rewrite", {"case_text": text}))
    fixture.unlink()
    # The trace does not cover the fixtures: a hand edit makes the row run again, and fail.
    stale.write_text("edited by hand\n", encoding="utf-8")
    result = runner.run_baseline("sdc", CORPUS_DIR, out_dir, config)

    assert result.failed["case_001"].startswith("MockFixtureMissing")
    assert result.succeeded == ["case_002", "case_003"]
    assert not stale.exists()
    assert (out_dir / "case_002" / "baseline.sdc.txt").is_file()
    assert runner.run_evaluation(out_dir, config).ok
    report = runner.safe_load((out_dir / "report.yaml").read_text(encoding="utf-8"))
    variants = {case["case_id"]: set(case["variants"]) for case in report["cases"]}
    assert "sdc" not in variants["case_001"]
    assert "sdc" in variants["case_002"]
    assert_provenance(out_dir)


def test_a_failure_whose_outputs_a_killed_command_wrote_is_not_written_back(tmp_path, monkeypatch):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES_DIR, fixtures)
    config = _config(fixtures)
    out_dir = tmp_path / "run"
    assert runner.run_pipeline(CORPUS_DIR, out_dir, config).ok
    text = (CORPUS_DIR / "case_001.txt").read_text(encoding="utf-8")
    fixture = Path(MockBackend(fixtures).fixture_path("sdc_rewrite", {"case_text": text}))
    reply = fixture.read_bytes()
    fixture.unlink()
    assert list(runner.run_baseline("sdc", CORPUS_DIR, out_dir, config).failed) == ["case_001"]
    fixture.write_bytes(reply)

    output = out_dir / "case_001" / "baseline.sdc.txt"
    real_write = runner.write_atomic

    def killed_after_the_output(path, data):
        written = real_write(path, data)
        if Path(path) == output:
            raise KeyboardInterrupt  # dies before the manifest records that the row succeeded
        return written

    monkeypatch.setattr(runner, "write_atomic", killed_after_the_output)
    with pytest.raises(KeyboardInterrupt):
        runner.run_baseline("sdc", CORPUS_DIR, out_dir, config)
    monkeypatch.setattr(runner, "write_atomic", real_write)
    assert output.is_file()
    assert runner.run_baseline("phi", CORPUS_DIR, out_dir, config).ok

    # The next command that completes writes the manifest; it no longer lists the row as failed for a case
    # that holds the row's output.
    manifest = runner.safe_load((out_dir / "run_manifest.yaml").read_text(encoding="utf-8"))
    assert manifest["stages"]["baseline.sdc"]["failed"] == {}
    assert runner.run_baseline("sdc", CORPUS_DIR, out_dir, config).ok


def test_each_stage_adds_exactly_its_declared_outputs(tmp_path):
    config = _config()
    out_dir = tmp_path / "run"
    commands = [
        ("convert", lambda: runner.run_convert(CORPUS_DIR, out_dir, config)),
        ("perturb", lambda: runner.run_perturb(out_dir, config)),
        ("generate", lambda: runner.run_generate(out_dir, config)),
    ] + [
        (f"baseline.{name}", lambda name=name: runner.run_baseline(name, CORPUS_DIR, out_dir, config))
        for name in runner.BASELINE_NAMES
    ] + [("eval", lambda: runner.run_evaluation(out_dir, config))]
    assert [stage for stage, _ in commands] == list(runner.STAGES)
    before = {case_id: set() for case_id in CASE_IDS}
    for stage, command in commands:
        assert command().ok
        after = _case_files(out_dir)
        declared = set(runner.STAGES[stage].outputs)
        if stage == "convert":
            declared |= set(runner.CASE_INPUTS)
        assert {case_id: after[case_id] - before[case_id] for case_id in CASE_IDS} == {
            case_id: declared for case_id in CASE_IDS
        }, stage
        before = after
    assert_provenance(out_dir)


def test_every_corpus_stage_rewrites_changed_inputs(tmp_path):
    config = _config()
    out_dir = tmp_path / "run"
    assert runner.run_baseline("phi", CORPUS_DIR, out_dir, config).ok
    expected = set(runner.CASE_INPUTS) | set(runner.STAGES["baseline.phi"].outputs)
    assert _case_files(out_dir) == {case_id: expected for case_id in CASE_IDS}

    original = out_dir / "case_001" / "original.txt"
    for command in (
        lambda: runner.run_baseline("phi", CORPUS_DIR, out_dir, config),
        lambda: runner.run_convert(CORPUS_DIR, out_dir, config),
    ):
        original.write_text("edited\n", encoding="utf-8")
        assert command().ok
        assert original.read_bytes() == (CORPUS_DIR / "case_001.txt").read_bytes()


def _full_run(corpus: Path, out_dir: Path, config: RunConfig) -> None:
    assert runner.run_pipeline(corpus, out_dir, config).ok
    for name in runner.BASELINE_NAMES:
        assert runner.run_baseline(name, corpus, out_dir, config).ok


def test_changed_corpus_text_clears_what_other_stages_made_from_the_old_one(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, corpus)
    config = _config()
    out_dir = tmp_path / "run"
    _full_run(corpus, out_dir, config)
    others = {case_id: _tree(out_dir / case_id) for case_id in ("case_002", "case_003")}

    (corpus / "case_001.txt").write_text("Seen on 2020-01-02. A new narrative.", encoding="utf-8")
    assert runner.run_baseline("phi", corpus, out_dir, config).ok

    case_dir = out_dir / "case_001"
    assert _case_files(out_dir)["case_001"] == {"original.txt", "meta.yaml", "baseline.phi.txt"}
    assert (case_dir / "original.txt").read_text(encoding="utf-8") == "Seen on 2020-01-02. A new narrative."
    assert (case_dir / "baseline.phi.txt").read_text(encoding="utf-8") == "Seen on [DATE]. A new narrative."
    assert {case_id: _tree(out_dir / case_id) for case_id in others} == others
    assert_provenance(out_dir)  # the removed outputs took case_001's entries with them


def test_changed_diagnoses_clear_the_baselines_at_convert(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, corpus)
    config = _config()
    out_dir = tmp_path / "run"
    _full_run(corpus, out_dir, config)
    before = _tree(out_dir / "case_001")

    manifest = corpus / "manifest.yaml"
    manifest.write_text(
        manifest.read_text(encoding="utf-8").replace("major depressive disorder", "dysthymia"), encoding="utf-8"
    )
    assert runner.run_convert(corpus, out_dir, config).ok

    after = _tree(out_dir / "case_001")
    # The new diagnoses change the graph, so what was made from the old graph goes too.
    made_from_the_graph = {"graph.perturbed.yaml", "perturb.audit.yaml", "outline.yaml", "deid.txt"}
    assert set(before) - set(after) == {f"baseline.{name}.txt" for name in runner.BASELINE_NAMES} | made_from_the_graph
    assert b"dysthymia" in after["meta.yaml"]


def test_a_run_killed_after_writing_a_new_entry_leaves_no_baseline_of_the_old_one(tmp_path, monkeypatch):
    # Synthesized replies: the mock fixtures miss the edited narrative, so convert would fail and
    # clear the case for that reason instead.
    gateway = LlmGateway(SpyBackend(lambda req: synthesize(req.template_id, dict(req.variables))), model="mock-model")
    monkeypatch.setattr(runner, "build_gateway", lambda _config: gateway)
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, corpus)
    config = _config()
    out_dir = tmp_path / "run"
    _full_run(corpus, out_dir, config)
    text = corpus / "case_001.txt"
    text.write_text(text.read_text(encoding="utf-8") + "He returned for review a week later.\n", encoding="utf-8")

    real_write = runner.write_atomic

    def killed_after_the_new_text(path, data):
        written = real_write(path, data)
        if Path(path) == out_dir / "case_001" / "original.txt":
            raise KeyboardInterrupt  # the process dies right after writing the new entry's text
        return written

    monkeypatch.setattr(runner, "write_atomic", killed_after_the_new_text)
    with pytest.raises(KeyboardInterrupt):
        runner.run_pipeline(corpus, out_dir, config)
    monkeypatch.setattr(runner, "write_atomic", real_write)
    assert runner.run_pipeline(corpus, out_dir, config).ok

    # The baselines were made from the old entry, and eval would score them against the new one.
    assert sorted(p.name for p in (out_dir / "case_001").glob("baseline.*")) == []


def _fail_convert_of_case_002(monkeypatch, step: str) -> None:
    """Make convert fail for case_002 alone: at stage 2, or when its finished graph is validated."""
    real = getattr(converter, step)
    if step == "validate_graph":
        golden = (GOLDEN_DIR / "case_002.graph.yaml").read_text(encoding="utf-8")

        def failing(g):
            return [Violation("forced", "$", "forced failure")] if runner.serialize_yaml(g) == golden else real(g)
    else:

        def failing(x, *args):
            if x.case_id == "case_002":
                raise ConversionError(x.case_id, step, "forced failure")
            return real(x, *args)

    monkeypatch.setattr(converter, step, failing)


@pytest.mark.parametrize("step", ["extract_episodes", "validate_graph"])
def test_a_failed_convert_leaves_none_of_its_files_nor_what_was_made_from_them(tmp_path, monkeypatch, step):
    # The intermediates are convert outputs like graph.yaml: a failure after stage 1, or one at the last
    # check, keeps none of them, so no partial text can make a later command forget the failure.
    config = _config()
    out_dir = tmp_path / "run"
    _full_run(CORPUS_DIR, out_dir, config)
    assert runner.run_evaluation(out_dir, config).ok
    # An earlier input's intermediate: convert's trace no longer verifies, so it runs again for case_002.
    (out_dir / "case_002" / "stage1.entities.yaml").write_text("from the previous input\n", encoding="utf-8")
    others = {case_id: _tree(out_dir / case_id) for case_id in ("case_001", "case_003")}
    _fail_convert_of_case_002(monkeypatch, step)

    result = runner.run_pipeline(CORPUS_DIR, out_dir, config)

    assert list(result.failed) == ["case_002"] and "forced failure" in result.failed["case_002"]
    baselines = {f"baseline.{name}.txt" for name in runner.BASELINE_NAMES}
    assert _case_files(out_dir)["case_002"] == {*runner.CASE_INPUTS, *baselines}
    assert {case_id: _tree(out_dir / case_id) for case_id in others} == others
    manifest = runner.safe_load((out_dir / "run_manifest.yaml").read_text(encoding="utf-8"))
    assert list(manifest["stages"]["convert"]["failed"]) == ["case_002"]
    assert_provenance(out_dir)

    monkeypatch.undo()
    assert runner.run_perturb(out_dir, config).ok
    manifest = runner.safe_load((out_dir / "run_manifest.yaml").read_text(encoding="utf-8"))
    assert list(manifest["stages"]["convert"]["failed"]) == ["case_002"]


def test_a_staged_convert_that_writes_a_new_graph_removes_what_was_made_from_the_old_one(tmp_path, monkeypatch):
    gateway = LlmGateway(SpyBackend(age_follows_the_text), model="mock-model")
    monkeypatch.setattr(runner, "build_gateway", lambda _config: gateway)
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, corpus)
    config = _config()
    out_dir = tmp_path / "run"
    _full_run(corpus, out_dir, config)
    assert runner.run_evaluation(out_dir, config).ok
    text = corpus / "case_001.txt"
    text.write_text(text.read_text(encoding="utf-8").replace("32-year-old", "33-year-old"), encoding="utf-8")
    graph = (out_dir / "case_001" / "graph.yaml").read_bytes()

    assert runner.run_convert(corpus, out_dir, config).ok

    assert (out_dir / "case_001" / "graph.yaml").read_bytes() != graph
    made_from_the_graph = {"graph.perturbed.yaml", "perturb.audit.yaml", "outline.yaml", "deid.txt"}
    assert _case_files(out_dir)["case_001"] & made_from_the_graph == set()
    assert _case_files(out_dir)["case_002"] >= made_from_the_graph
    # eval would score the old entry's deid.txt against the new original.txt
    with pytest.raises(runner.UsageError, match="case_001/deid.txt"):
        runner.run_evaluation(out_dir, config)
    assert_provenance(out_dir)  # the removed outputs took perturb's and generate's traces with them


@pytest.mark.parametrize("made_under", ["this config", "an older config"])
def test_a_rewritten_entry_removes_a_baseline_exactly_when_its_trace_no_longer_verifies(tmp_path, monkeypatch, made_under):
    # One rule for every reader of a rewritten file: its own trace decides, not the writer's.
    # This config: no convert trace exists, yet the baseline's trace proves it was made from this entry.
    # An older config: convert's trace matches the entry, but the baseline's no longer verifies.
    config = _config()
    out_dir = tmp_path / "run"
    if made_under == "this config":
        assert runner.run_baseline("llm_only", CORPUS_DIR, out_dir, config).ok
    else:
        assert runner.run_baseline("llm_only", CORPUS_DIR, out_dir, replace(config, retries=config.retries + 1)).ok
        assert runner.run_convert(CORPUS_DIR, out_dir, config).ok
    baseline = out_dir / "case_001" / "baseline.llm_only.txt"
    (out_dir / "case_001" / "original.txt").unlink()
    assert runner.run_convert(CORPUS_DIR, out_dir, config).ok
    assert baseline.is_file() == (made_under == "this config")

    calls = []
    real_complete = LlmGateway.complete
    monkeypatch.setattr(LlmGateway, "complete", lambda self, req: calls.append(req) or real_complete(self, req))
    result = runner.run_baseline("llm_only", CORPUS_DIR, out_dir, config)
    assert result.ok and baseline.is_file()
    if made_under == "this config":
        assert "case_001" in result.skipped and calls == []  # the paid baseline was kept, and is not paid again
    else:
        assert "case_001" not in result.skipped and calls != []
    assert_provenance(out_dir)


def test_a_run_killed_between_the_report_files_leaves_no_csv_of_an_earlier_eval(tmp_path, monkeypatch):
    out_dir = tmp_path / "run"
    config = _config()
    _full_run(CORPUS_DIR, out_dir, config)
    assert runner.run_evaluation(out_dir, config).ok
    (out_dir / "case_001" / "baseline.phi.txt").unlink()  # the next report has no phi variant for case_001
    real_write = runner.write_atomic
    written = []

    def killed_after_the_yaml(path, text):
        written.append(os.path.basename(path))
        real_write(path, text)
        if os.path.basename(path) == "report.yaml":
            raise KeyboardInterrupt

    monkeypatch.setattr(runner, "write_atomic", killed_after_the_yaml)
    with pytest.raises(KeyboardInterrupt):
        runner.run_evaluation(out_dir, config)
    assert written[-1] == "report.yaml" and not (out_dir / "report.csv").exists()

    # A warm eval writes neither file.
    monkeypatch.setattr(runner, "write_atomic", real_write)
    assert runner.run_evaluation(out_dir, config).ok
    report = {name: (out_dir / name).stat().st_mtime_ns for name in ("report.yaml", "report.csv")}
    writes = []
    monkeypatch.setattr(runner, "write_atomic", lambda path, text: writes.append(path) or real_write(path, text))
    assert runner.run_evaluation(out_dir, config).ok
    assert writes == [os.path.join(out_dir, "report.yaml"), os.path.join(out_dir, "report.csv")]
    assert {name: (out_dir / name).stat().st_mtime_ns for name in report} == report


WORKFLOW = ("run", *(f"baseline {name}" for name in runner.BASELINE_NAMES), "eval")


def _command(command: str, corpus: Path, out_dir: Path, config: RunConfig) -> runner.StageResult:
    if command == "run":
        return runner.run_pipeline(corpus, out_dir, config)
    if command == "eval":
        return runner.run_evaluation(out_dir, config)
    return runner.run_baseline(command.removeprefix("baseline "), corpus, out_dir, config)


def test_a_workflow_killed_after_any_write_or_unlink_leaves_no_file_of_the_old_entry(tmp_path, monkeypatch):
    # After a full workflow two corpus texts change: case_001's extracted age, so its graph changes, and
    # case_002's text alone. Each command of the workflow is killed right after each of its writes and
    # unlinks in turn, then run again to the end: every case file it leaves must be a clean run's.
    gateway = LlmGateway(SpyBackend(age_follows_the_text), model="mock-model")
    monkeypatch.setattr(runner, "build_gateway", lambda _config: gateway)
    config = _config()
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, corpus)
    start = tmp_path / "start"  # the run directory as the workflow leaves it before each command
    for command in WORKFLOW:
        assert _command(command, corpus, start, config).ok
    for case_id, old, new in (("case_001", "32-year-old", "33-year-old"), ("case_002", ".\n", ". She lives alone.\n")):
        text = corpus / f"{case_id}.txt"
        text.write_text(text.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
    clean = tmp_path / "clean"
    for command in WORKFLOW:
        assert _command(command, corpus, clean, config).ok
    clean_tree, old_tree = _tree(clean), _tree(start)
    assert clean_tree["case_002/original.txt"] != old_tree["case_002/original.txt"]
    assert clean_tree["case_001/graph.yaml"] != old_tree["case_001/graph.yaml"]

    points = 0
    for i, command in enumerate(WORKFLOW):
        for k in itertools.count(1):
            out_dir = tmp_path / f"killed-{i}-{k}"
            shutil.copytree(start, out_dir)
            with monkeypatch.context() as m:
                touched = kill_after(m, out_dir, k)
                try:
                    _command(command, corpus, out_dir, config)
                except KeyboardInterrupt:
                    pass
            if len(touched) < k:  # the command ended before its k-th write or unlink
                shutil.rmtree(out_dir)
                break
            points += 1
            where = f"{command} killed after {touched[-1]}"
            assert _command(command, corpus, out_dir, config).ok, where
            tree = _tree(out_dir)
            stale = sorted(f for f, data in tree.items() if "/" in f and clean_tree.get(f) != data)
            assert stale == [], where
            for rest in WORKFLOW[i + 1 :]:
                assert _command(rest, corpus, out_dir, config).ok, where
            assert _tree(out_dir) == clean_tree, where  # the manifest and the report pair included
            shutil.rmtree(out_dir)
        assert _command(command, corpus, start, config).ok
    assert _tree(start) == clean_tree
    assert points > len(WORKFLOW)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory) -> Path:
    out_dir = tmp_path_factory.mktemp("full") / "run"
    _full_run(CORPUS_DIR, out_dir, _config())
    return out_dir


@pytest.mark.parametrize("command", ["run", "convert", *(f"baseline {name}" for name in runner.BASELINE_NAMES)])
@pytest.mark.parametrize("change", ["delete original.txt", "delete meta.yaml", "edit original.txt"])
def test_a_hand_changed_corpus_entry_keeps_the_baselines(full_run, tmp_path, monkeypatch, command, change):
    # Every other corpus row's trace matches the rewritten entry, so each was
    # made from it: the rewrite removes nothing.
    out_dir = tmp_path / "run"
    shutil.copytree(full_run, out_dir)
    before = _tree(out_dir)
    path = out_dir / "case_001" / change.split(" ")[1]
    if change.startswith("delete"):
        path.unlink()
    else:
        path.write_text("edited by hand\n", encoding="utf-8")
    calls = []
    real_complete = LlmGateway.complete
    monkeypatch.setattr(LlmGateway, "complete", lambda self, req: calls.append(req) or real_complete(self, req))
    if command.startswith("baseline "):
        result = runner.run_baseline(command.removeprefix("baseline "), CORPUS_DIR, out_dir, _config())
    else:
        run = runner.run_pipeline if command == "run" else runner.run_convert
        result = run(CORPUS_DIR, out_dir, _config())

    assert result.ok and set(result.skipped) == set(CASE_IDS)
    assert calls == []
    assert _tree(out_dir) == before  # the baselines and run_manifest.yaml included


def test_perturb_without_a_run_directory_is_a_usage_error(tmp_path):
    with pytest.raises(runner.UsageError, match="does not exist"):
        runner.run_perturb(tmp_path / "missing", _config())
    (tmp_path / "empty").mkdir()
    with pytest.raises(runner.UsageError, match="graph.yaml"):
        runner.run_perturb(tmp_path / "empty", _config())


def _staged(corpus: Path, out_dir: Path, config: RunConfig) -> dict[str, str]:
    """`anonpsy convert`; `anonpsy perturb`; `anonpsy generate`, each failure by case."""
    failed = dict(runner.run_convert(corpus, out_dir, config).failed)
    for command in (runner.run_perturb, runner.run_generate):
        try:
            failed.update(command(out_dir, config).failed)
        except runner.UsageError:
            pass  # no case left for this stage: the command exits 2 and records nothing
    return failed


def _fail_for(monkeypatch, name: str, case_id: str) -> None:
    """Make the operator `name` fail for one case, through the runner's module name."""
    real = getattr(runner, name)

    def failing(*args, **kwargs):
        if (kwargs.get("case_id") or args[0].case_id) == case_id:
            raise RuntimeError(f"{name} refused {case_id}")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, name, failing)


def _seed_foreign_cases(out_dir: Path) -> None:
    """Case directories the corpus does not name: one holds a graph, one only a perturbed graph."""
    (out_dir / "case_002").mkdir(parents=True)
    (out_dir / "case_002" / "graph.yaml").write_bytes((GOLDEN_DIR / "case_002.graph.yaml").read_bytes())
    (out_dir / "case_003").mkdir()
    perturbed = (GOLDEN_DIR / "case_003.graph.perturbed.yaml").read_bytes()
    (out_dir / "case_003" / "graph.perturbed.yaml").write_bytes(perturbed)


@pytest.mark.parametrize("scenario", ["fail:convert", "fail:perturb", "fail:generate", "foreign", "all-fail"])
def test_run_matches_the_staged_commands(tmp_path, monkeypatch, scenario):
    corpus, config, seed = CORPUS_DIR, _config(), None
    if scenario.startswith("fail:"):
        _fail_for(monkeypatch, scenario.removeprefix("fail:"), "case_002")
    elif scenario == "foreign":
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, corpus)
        (corpus / "manifest.yaml").write_text(
            runner.safe_dump({"cases": [{"case_id": "case_001", "diagnoses": ["major depressive disorder"]}]}),
            encoding="utf-8",
        )
        seed = _seed_foreign_cases
    else:
        (tmp_path / "no-fixtures").mkdir()
        config = _config(tmp_path / "no-fixtures")
    staged, direct = tmp_path / "staged", tmp_path / "direct"
    if seed:
        seed(staged)
        seed(direct)

    staged_failed = _staged(corpus, staged, config)
    result = runner.run_pipeline(corpus, direct, config)

    assert _tree(direct) == _tree(staged)
    assert result.failed == staged_failed
    assert_provenance(direct)
    stages = runner.safe_load((direct / "run_manifest.yaml").read_text(encoding="utf-8"))["stages"]
    if scenario == "all-fail":
        assert sorted(result.failed) == CASE_IDS and list(stages) == ["convert"]
    elif scenario == "foreign":
        assert result.ok and result.succeeded == CASE_IDS
        assert [stages[name]["succeeded"] for name in runner.PIPELINE] == [["case_001"], CASE_IDS[:2], CASE_IDS]
    else:
        assert list(result.failed) == ["case_002"] and result.succeeded == ["case_001", "case_003"]


def test_run_parses_no_graph_and_writes_the_manifest_once(tmp_path, monkeypatch):
    parsed, manifests = [], []
    real_parse, real_write = runner.parse_yaml, runner.write_atomic

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    def counting_write(path, text):
        if Path(path).name == "run_manifest.yaml":
            manifests.append(path)
        return real_write(path, text)

    monkeypatch.setattr(runner, "parse_yaml", counting_parse)
    monkeypatch.setattr(runner, "write_atomic", counting_write)
    for load in (
        perturb_tables.load_feasibility_rules,
        perturb_tables.load_test_value_pools,
        perturb_tables.load_minor_occupations,
        perturb_tables.load_contradiction_lexicon,
        perturb_tables.load_mse_domains,
    ):
        load.cache_clear()
    reads = _count_data_reads(monkeypatch)
    config = _config()
    out_dir = tmp_path / "run"
    assert runner.run_pipeline(CORPUS_DIR, out_dir, config).ok
    assert (len(parsed), len(manifests)) == (0, 1)
    # Each packaged table is loaded at most once per process, not once per case.
    tables = [name for name in reads if name.startswith("data/")]
    assert "data/mse_domains.yaml" in tables and len(tables) == len(set(tables)), tables

    # Staged commands after `run` find every trace unchanged, parse nothing and leave the manifest alone.
    assert runner.run_perturb(out_dir, config).ok and runner.run_generate(out_dir, config).ok
    assert (len(parsed), len(manifests)) == (0, 1)
    assert_provenance(out_dir)

    # A hand edit that leaves the graph as it was: perturb parses that one graph
    # and writes the same bytes, so generate's input is unchanged and it is skipped.
    graph = out_dir / "case_001" / "graph.yaml"
    graph.write_text(graph.read_text(encoding="utf-8") + "# checked by hand\n", encoding="utf-8")
    perturbed = runner.run_perturb(out_dir, config)
    assert perturbed.ok and "case_001" not in perturbed.skipped
    generated = runner.run_generate(out_dir, config)
    assert generated.ok and generated.skipped == {case_id: ["generate"] for case_id in CASE_IDS}
    assert parsed == [graph.read_text(encoding="utf-8")]


def test_a_warm_rerun_neither_parses_nor_serialises_the_manifest_through_pyyaml(tmp_path, monkeypatch):
    config = _config()
    out_dir = tmp_path / "run"
    _full_run(CORPUS_DIR, out_dir, config)
    assert runner.run_evaluation(out_dir, config).ok
    manifest = (out_dir / "run_manifest.yaml").read_text(encoding="utf-8")
    loaded, dumped = [], []
    real_load, real_dump = yaml.load, runner.json_dump

    def counting_load(stream, Loader):
        loaded.append(stream)
        return real_load(stream, Loader=Loader)

    def counting_dump(doc):
        dumped.append(doc)
        return real_dump(doc)

    monkeypatch.setattr(yaml, "load", counting_load)
    monkeypatch.setattr(runner, "json_dump", counting_dump)
    _full_run(CORPUS_DIR, out_dir, config)
    assert runner.run_evaluation(out_dir, config).ok
    # Each of the five commands reads the manifest, through `json`; none has a change to write.
    assert (loaded.count(manifest), dumped) == (0, [])
    assert (out_dir / "run_manifest.yaml").read_text(encoding="utf-8") == manifest


def test_a_warm_command_starts_no_pool_and_renders_nothing_through_pyyaml(full_run, tmp_path, monkeypatch):
    out_dir = tmp_path / "run"
    shutil.copytree(full_run, out_dir)
    before = _tree(out_dir)
    pools, represented = [], []
    real_pool, real_represent = runner.ThreadPoolExecutor, yaml.representer.BaseRepresenter.represent
    monkeypatch.setattr(runner, "ThreadPoolExecutor", lambda *args, **kwargs: pools.append(kwargs) or real_pool(*args, **kwargs))
    monkeypatch.setattr(
        yaml.representer.BaseRepresenter, "represent", lambda self, data: represented.append(data) or real_represent(self, data)
    )
    _full_run(CORPUS_DIR, out_dir, _config())
    # Every case verifies on the calling thread; each corpus entry renders without PyYAML.
    assert (pools, represented) == ([], [])
    assert _tree(out_dir) == before
    # Eval keeps no trace, so its cases still go to the pool.
    assert runner.run_evaluation(out_dir, _config()).ok
    assert len(pools) == 1


def test_only_the_case_that_fails_to_verify_runs_and_two_jobs_write_what_one_writes(full_run, tmp_path, monkeypatch):
    current = threading.local()
    calls = []
    for name, stage in runner.STAGES.items():

        def work(case_dir, source, shared, _work=stage.work):
            current.case = case_dir.name
            try:
                return _work(case_dir, source, shared)
            finally:
                current.case = None

        monkeypatch.setitem(runner.STAGES, name, replace(stage, work=work))
    real_complete = LlmGateway.complete
    monkeypatch.setattr(LlmGateway, "complete", lambda self, req: calls.append(current.case) or real_complete(self, req))
    trees = []
    for jobs in (1, 2):
        out_dir = tmp_path / f"jobs-{jobs}"
        shutil.copytree(full_run, out_dir)
        # case_002's convert and perturb outputs edited by hand: each of its rows runs again
        graph, perturbed = out_dir / "case_002" / "graph.yaml", out_dir / "case_002" / "graph.perturbed.yaml"
        graph.write_text(graph.read_text(encoding="utf-8").replace("age: 19", "age: 20"), encoding="utf-8")
        perturbed.write_text(perturbed.read_text(encoding="utf-8") + "# edited by hand\n", encoding="utf-8")
        calls.clear()
        result = runner.run_pipeline(CORPUS_DIR, out_dir, replace(_config(), jobs=jobs))
        assert result.ok
        assert result.skipped == {"case_001": list(runner.PIPELINE), "case_003": list(runner.PIPELINE)}
        assert calls and set(calls) == {"case_002"}
        assert "case_002" not in result.skipped
        trees.append(_tree(out_dir))
    assert trees[0] == trees[1] == _tree(full_run)


def test_a_case_directory_whose_name_is_not_utf8_gets_a_trace(full_run, tmp_path, monkeypatch):
    # A directory name that is not UTF-8 gives a case id with a lone surrogate: its seed and trace are
    # taken over the name's own bytes, so its rows run once and a second command skips them.
    # Synthesized replies: the mock fixtures miss the copy's perturbation, so it would fall back.
    gateway = LlmGateway(SpyBackend(lambda req: synthesize(req.template_id, dict(req.variables))), model="mock-model")
    monkeypatch.setattr(runner, "build_gateway", lambda _config: gateway)
    out_dir = tmp_path / "run"
    shutil.copytree(full_run, out_dir)
    shutil.copytree(out_dir / "case_001", os.fsdecode(os.path.join(os.fsencode(out_dir), b"case_\xff")))
    first = runner.run_perturb(out_dir, _config())
    assert first.succeeded == [*CASE_IDS, "case_\udcff"] and not first.failed and not first.degraded
    assert "case_\udcff" not in first.skipped
    second = runner.run_perturb(out_dir, _config())
    assert second.succeeded == [*CASE_IDS, "case_\udcff"] and not second.failed
    assert sorted(second.skipped) == [*CASE_IDS, "case_\udcff"]


def test_a_case_directory_whose_name_is_not_utf8_is_scored_through_the_cache(full_run, tmp_path, monkeypatch):
    # The eval prompts name the case, so a cache key is taken over the name's own bytes, as the
    # trace is; the cache file names of the UTF-8 cases are the ones a run without the copy writes.
    # Synthesized replies, the copy answered as the case it was copied from.
    def reply(req):
        variables = dict(req.variables)
        if variables.get("case_id") == "case_\udcff":
            variables["case_id"] = "case_001"
        return synthesize(req.template_id, variables)

    backend = SpyBackend(reply)
    monkeypatch.setattr(
        runner, "build_gateway", lambda config: LlmGateway(backend, model="mock-model", cache_dir=config.cache_dir)
    )
    cached = {}
    for name, copies in (("utf8", []), ("mixed", ["case_\udcff"])):
        out_dir = tmp_path / name
        shutil.copytree(full_run, out_dir)
        if copies:
            shutil.copytree(out_dir / "case_001", os.fsdecode(os.path.join(os.fsencode(out_dir), b"case_\xff")))
        config = replace(_config(), cache_dir=str(tmp_path / f"{name}.cache"))
        for command in (runner.run_perturb, runner.run_generate, runner.run_evaluation):
            result = command(out_dir, config)
            assert result.succeeded == [*CASE_IDS, *copies] and not result.failed, (command.__name__, result.failed)
        cached[name] = set(os.listdir(config.cache_dir))
    assert cached["utf8"] and cached["utf8"] < cached["mixed"]
    report = runner.safe_load((tmp_path / "mixed" / "report.yaml").read_text(encoding="utf-8"))
    assert [case["case_id"] for case in report["cases"]] == [*CASE_IDS, "case_\udcff"]
    rows = (tmp_path / "mixed" / "report.csv").read_text(encoding="utf-8").splitlines()
    assert {row.split(",")[0] for row in rows[1:]} == {*CASE_IDS, "case_\\udcff"}


def test_a_recorded_trace_that_cannot_be_verified_fails_its_case_alone(full_run, tmp_path, monkeypatch):
    # Verifying a case's recorded trace raises for case_002 only: that case's row runs on its task,
    # meets the error again and fails, and is not counted as verified.
    out_dir = tmp_path / "run"
    shutil.copytree(full_run, out_dir)
    real_trace = runner._trace

    def failing_trace(*parts: str) -> str:
        if parts[1:2] == ("case_002",):
            raise ValueError("no trace for case_002")
        return real_trace(*parts)

    monkeypatch.setattr(runner, "_trace", failing_trace)
    result = runner.run_perturb(out_dir, _config())
    assert list(result.failed) == ["case_002"] and result.failed["case_002"] == "ValueError: no trace for case_002"
    assert "case_002" not in result.skipped
    assert sorted(result.skipped) == ["case_001", "case_003"]


def test_graphs_handed_over_in_memory_equal_their_parsed_yaml():
    config = _config()
    gateway = runner.build_gateway(config)
    for narrative in runner.load_corpus(CORPUS_DIR):
        graph, _ = runner.convert(narrative, gateway)
        assert_same_typed(runner.parse_yaml(runner.serialize_yaml(graph)), graph)
        assert shared_containers(graph) == []

        before = copy.deepcopy(graph)
        perturbed, _ = runner.perturb(graph, gateway, config.perturb, case_id=narrative.case_id)
        assert_same_typed(graph, before)  # perturb leaves its input as it found it
        assert_same_typed(runner.parse_yaml(runner.serialize_yaml(perturbed)), perturbed)
        assert shared_containers(perturbed) == []


def test_a_second_perturb_call_reads_no_packaged_file(monkeypatch):
    config = _config()
    gateway = runner.build_gateway(config)
    graph = runner.parse_yaml((GOLDEN_DIR / "case_001.graph.yaml").read_text(encoding="utf-8"))
    first, _ = runner.perturb(graph, gateway, config.perturb, case_id="case_001")
    reads = _count_data_reads(monkeypatch)
    second, _ = runner.perturb(graph, gateway, config.perturb, case_id="case_001")
    assert reads == []
    assert runner.serialize_yaml(second) == runner.serialize_yaml(first)


# The traced bench replaces these module names of `anonpsy.runner` for the
# length of a pass, and tags spans with the case ids read from the arguments.
BENCH_HOOKS = {
    "build_gateway": None,
    "convert": lambda args, kwargs: args[0].case_id,
    "perturb": lambda args, kwargs: kwargs.get("case_id"),
    "plan_outline": None,
    "generate": lambda args, kwargs: kwargs.get("case_id"),
    "phi_mask": None,
    "sdc_rewrite": None,
    "llm_only": None,
    "run_eval": None,
}


def test_bench_hooks_are_called_through_the_runner_module(tmp_path, monkeypatch):
    calls = {name: [] for name in BENCH_HOOKS}
    for name, case_of in BENCH_HOOKS.items():
        original = getattr(runner, name)

        def counting(*args, _name=name, _original=original, _case_of=case_of, **kwargs):
            calls[_name].append(_case_of(args, kwargs) if _case_of else None)
            return _original(*args, **kwargs)

        monkeypatch.setattr(runner, name, counting)

    config = _config()
    out_dir = tmp_path / "run"
    assert runner.run_pipeline(CORPUS_DIR, out_dir, config).ok
    for name in runner.BASELINE_NAMES:
        assert runner.run_baseline(name, CORPUS_DIR, out_dir, config).ok
    assert runner.run_evaluation(out_dir, config).ok

    assert all(calls.values()), {name: len(seen) for name, seen in calls.items()}
    for name in ("convert", "perturb", "generate"):
        assert sorted(calls[name]) == CASE_IDS, name
    assert_provenance(out_dir)


def _calls_to(tree: ast.AST, name: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_thread_pool_is_created_only_by_the_stage_engine():
    src_dir = Path(anonpsy.__file__).parent
    pools = [
        f"{path.relative_to(src_dir)}:{line}"
        for path in sorted(src_dir.rglob("*.py"))
        for line in _calls_to(ast.parse(path.read_text(encoding="utf-8")), "ThreadPoolExecutor")
    ]
    runner_tree = ast.parse(Path(runner.__file__).read_text(encoding="utf-8"))
    (engine,) = [n for n in runner_tree.body if isinstance(n, ast.FunctionDef) and n.name == "run_stage"]
    assert pools == [f"runner.py:{line}" for line in _calls_to(engine, "ThreadPoolExecutor")]
    assert len(pools) == 1


def _function(tree: ast.AST, *names: str) -> ast.AST:
    """The definition reached through names, each a class or function defined in the one before."""
    for name in names:
        (tree,) = [n for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name]
    return tree


def test_files_are_written_only_through_the_stage_engine_the_report_the_manifest_and_the_cache():
    # One write step for every case file: a second writer would keep a failure rule of its own.
    src_dir = Path(anonpsy.__file__).parent
    writes = [
        f"{path.relative_to(src_dir)}:{line}"
        for path in sorted(src_dir.rglob("*.py"))
        for line in _calls_to(ast.parse(path.read_text(encoding="utf-8")), "write_atomic")
    ]
    writers = {
        "runner.py": [("run_stage", "write"), ("run_evaluation",), ("_update_manifest",)],
        "gateway.py": [("LlmGateway", "_cache_write")],
    }
    allowed = []
    for file, functions in writers.items():
        tree = ast.parse((src_dir / file).read_text(encoding="utf-8"))
        for names in functions:
            lines = _calls_to(_function(tree, *names), "write_atomic")
            assert lines, names
            allowed += [f"{file}:{line}" for line in lines]
    assert sorted(writes) == sorted(allowed)


def test_only_the_stage_engine_lists_a_run_directory():
    # One loop over a run's cases: a second one would select and isolate cases its own way.
    src_dir = Path(anonpsy.__file__).parent
    listers = ("iterdir", "glob", "rglob", "listdir", "scandir", "walk")
    listings = [
        f"{path.relative_to(src_dir)}:{line}"
        for path in sorted(src_dir.rglob("*.py"))
        if path != src_dir / "prompts" / "__init__.py"  # lists the package's own template files
        for name in listers
        for line in _calls_to(ast.parse(path.read_text(encoding="utf-8")), name)
    ]
    runner_tree = ast.parse(Path(runner.__file__).read_text(encoding="utf-8"))
    functions = {n.name: n for n in runner_tree.body if isinstance(n, ast.FunctionDef)}
    assert _calls_to(functions["run_stage"], "iterdir") != []
    # source_digest lists directories too: the package's own modules and data/, not a run's.
    allowed = [line for name in ("run_stage", "source_digest") for line in _calls_to(functions[name], "iterdir")]
    allowed += _calls_to(functions["source_digest"], "rglob")
    assert sorted(listings) == sorted(f"runner.py:{line}" for line in allowed)


def test_only_the_stage_engine_decodes_a_graph():
    # A stage's work takes its source decoded: the engine parses a graph read
    # from disk, and a chain hands the previous stage's graph over in memory.
    for name, stage in runner.STAGES.items():
        work = ast.parse(textwrap.dedent(inspect.getsource(stage.work)))
        assert _calls_to(work, "parse_yaml") == [], name
    runner_tree = ast.parse(Path(runner.__file__).read_text(encoding="utf-8"))
    (engine,) = [n for n in runner_tree.body if isinstance(n, ast.FunctionDef) and n.name == "run_stage"]
    assert _calls_to(runner_tree, "parse_yaml") == _calls_to(engine, "parse_yaml") != []


def _reads_of(tree: ast.AST, name: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
        and name in (getattr(node, "id", None), getattr(node, "attr", None))
    ]


def test_the_stage_table_alone_decides_which_rows_keep_a_trace(tmp_path):
    # PIPELINE is `run`'s chain and nothing more: a second reader would make
    # its rows special again, as their traces once were.
    src_dir = Path(anonpsy.__file__).parent
    reads = [
        f"{path.relative_to(src_dir)}:{line}"
        for path in sorted(src_dir.rglob("*.py"))
        for line in _reads_of(ast.parse(path.read_text(encoding="utf-8")), "PIPELINE")
    ]
    runner_tree = ast.parse(Path(runner.__file__).read_text(encoding="utf-8"))
    (run,) = [n for n in runner_tree.body if isinstance(n, ast.FunctionDef) and n.name == "run_pipeline"]
    assert reads == [f"runner.py:{line}" for line in _reads_of(run, "PIPELINE")] != []

    out_dir = tmp_path / "run"
    config = _config()
    _full_run(CORPUS_DIR, out_dir, config)
    assert runner.run_evaluation(out_dir, config).ok
    provenance = runner.safe_load((out_dir / "run_manifest.yaml").read_text(encoding="utf-8"))["provenance"]
    writers = sorted(name for name, stage in runner.STAGES.items() if stage.outputs)
    assert {case_id: sorted(rows) for case_id, rows in provenance.items()} == {case_id: writers for case_id in CASE_IDS}
