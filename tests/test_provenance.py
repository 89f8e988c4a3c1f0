"""Verifying traces and early cutoff for every row that writes files."""

import os
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import anonpsy.runner as runner
from anonpsy import prompts
from anonpsy.config import RunConfig
from anonpsy.gateway import LlmGateway
from anonpsy.perturbation.config import FeasibilityRule

from .conftest import CORPUS_DIR, FIXTURES_DIR
from .helpers import assert_provenance, package_digest

CASE_IDS = ["case_001", "case_002", "case_003"]
STAGED = ("convert", "perturb", "generate")
BASELINES = tuple(f"baseline.{name}" for name in runner.BASELINE_NAMES)
# The rows that keep a trace: every row that writes files.
TRACED = tuple(name for name, stage in runner.STAGES.items() if stage.outputs)
# file -> the traced row that writes it
OWNER = {file: name for name in TRACED for file in runner.STAGES[name].outputs}


def _config(**overrides) -> RunConfig:
    return RunConfig(**{"seed": 42, "jobs": 1, "backend": "mock", "fixtures_dir": str(FIXTURES_DIR), **overrides})


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _workflow(mode: str, corpus: Path, out_dir: Path, config: RunConfig) -> list[runner.StageResult]:
    """`anonpsy run`, or `anonpsy convert`; `anonpsy perturb`; `anonpsy generate`; then the three baselines."""
    if mode == "run":
        results = [runner.run_pipeline(corpus, out_dir, config)]
    else:
        results = [runner.run_stage(name, out_dir, config, corpus if name == "convert" else None) for name in STAGED]
    return results + [runner.run_baseline(name, corpus, out_dir, config) for name in runner.BASELINE_NAMES]


def test_source_digest_covers_every_package_file_but_the_cli():
    # The engine names the package's modules without listing it: a module
    # that importing the runner does not load would be left out of every
    # trace. It lists data/, so every data file is covered.
    assert runner.source_digest() == package_digest()


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("mode", ["run", "staged"])
def test_warm_rerun_calls_no_model_and_writes_nothing(tmp_path, monkeypatch, mode, jobs):
    config = _config(jobs=jobs)
    out_dir = tmp_path / "run"
    assert all(r.ok for r in _workflow("run", CORPUS_DIR, out_dir, config))
    assert runner.run_evaluation(out_dir, config).ok
    before = _tree(out_dir)
    calls, writes, manifests = [], [], []
    real_complete, real_replace, real_dump = LlmGateway.complete, os.replace, runner.json_dump

    def counting_complete(self, req):
        calls.append(req.template_id)
        return real_complete(self, req)

    def counting_replace(src, dst):
        writes.append(dst)
        return real_replace(src, dst)

    def counting_dump(doc):
        manifests.append(doc)
        return real_dump(doc)

    monkeypatch.setattr(LlmGateway, "complete", counting_complete)
    monkeypatch.setattr(os, "replace", counting_replace)
    monkeypatch.setattr(runner, "json_dump", counting_dump)  # the manifest's one serialiser
    results = _workflow(mode, CORPUS_DIR, out_dir, config)
    assert calls == []
    assert runner.run_evaluation(out_dir, config).ok  # untraced: it calls the model, and writes the same bytes

    assert (writes, manifests) == ([], [])
    assert _tree(out_dir) == before  # run_manifest.yaml and the report included
    rows = ([list(STAGED)] if mode == "run" else [[name] for name in STAGED]) + [[name] for name in BASELINES]
    assert [r.skipped for r in results] == [{case_id: skipped for case_id in CASE_IDS} for skipped in rows]
    assert all(r.ok and r.succeeded == CASE_IDS for r in results)
    assert_provenance(out_dir)


def test_a_manifest_with_equal_content_is_left_as_it_is(completed_run, tmp_path):
    out_dir = tmp_path / "run"
    shutil.copytree(completed_run, out_dir)
    manifest = out_dir / "run_manifest.yaml"
    doc = yaml.safe_load(manifest.read_text(encoding="utf-8"))
    reformatted = "# checked by hand\n" + yaml.safe_dump(doc, default_flow_style=True, width=60)
    manifest.write_text(reformatted, encoding="utf-8")
    assert all(r.ok for r in _workflow("staged", CORPUS_DIR, out_dir, _config()))
    assert manifest.read_text(encoding="utf-8") == reformatted


def test_a_block_yaml_manifest_of_an_earlier_version_is_read_and_left_as_it_is(completed_run, tmp_path):
    # Before the manifest was written as JSON, it was written as block YAML.
    out_dir = tmp_path / "run"
    shutil.copytree(completed_run, out_dir)
    manifest = out_dir / "run_manifest.yaml"
    block = runner.safe_dump(yaml.safe_load(manifest.read_text(encoding="utf-8")), sort_keys=True)
    manifest.write_text(block, encoding="utf-8")
    results = _workflow("run", CORPUS_DIR, out_dir, _config())
    rows = [list(STAGED)] + [[name] for name in BASELINES]
    assert [r.skipped for r in results] == [{case_id: skipped for case_id in CASE_IDS} for skipped in rows]
    assert manifest.read_bytes() == block.encode("utf-8")


def test_a_failed_row_drops_the_entries_of_what_it_removed(tmp_path, monkeypatch):
    config = _config()
    out_dir = tmp_path / "run"
    assert runner.run_pipeline(CORPUS_DIR, out_dir, config).ok
    (out_dir / "case_002" / "graph.perturbed.yaml").unlink()  # perturb reruns for case_002 ...
    real = runner.perturb

    def failing(graph, *args, case_id, **kwargs):
        if case_id == "case_002":
            raise RuntimeError("perturb refused case_002")  # ... and fails
        return real(graph, *args, case_id=case_id, **kwargs)

    monkeypatch.setattr(runner, "perturb", failing)
    assert set(runner.run_pipeline(CORPUS_DIR, out_dir, config).failed) == {"case_002"}
    provenance = runner.safe_load((out_dir / "run_manifest.yaml").read_text(encoding="utf-8"))["provenance"]
    assert sorted(provenance["case_002"]) == ["convert"]
    assert all(sorted(provenance[case_id]) == sorted(runner.PIPELINE) for case_id in ("case_001", "case_003"))
    assert_provenance(out_dir)


# One input changed at a time. Each change names the (row, case) pairs that must
# run again: every other row is skipped.
DELETABLE = tuple(runner.CASE_INPUTS) + tuple(OWNER)
CHANGES = (
    "corpus text",
    "config field",
    "prompt asset",
    "rule table",
    "edit graph.yaml",
    "edit graph.perturbed.yaml",
    "edit baseline.sdc.txt",
    *(f"delete {file}" for file in DELETABLE),
)


def _rerun_rows(change: str, case_id: str) -> set[tuple[str, str]]:
    if change in ("config field", "prompt asset", "rule table"):  # the base key of every row
        return {(name, other) for name in TRACED for other in CASE_IDS}
    if change == "corpus text":  # the new text has no mock fixtures: convert, sdc and llm_only fail
        return {(name, case_id) for name in ("convert", *BASELINES)}
    file = change.split(" ", 1)[1]
    return {(OWNER[file], case_id)} if file in OWNER else set()  # a rewritten CASE_INPUTS file changes nothing


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory) -> Path:
    out_dir = tmp_path_factory.mktemp("completed") / "run"
    assert all(r.ok for r in _workflow("run", CORPUS_DIR, out_dir, _config()))
    return out_dir


@pytest.mark.parametrize("change", CHANGES)
@settings(max_examples=2, deadline=None)
@given(case_id=st.sampled_from(CASE_IDS), mode=st.sampled_from(["run", "staged"]))
def test_exactly_the_rows_downstream_of_a_change_rerun(completed_run, change, case_id, mode):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        tmp = Path(tmp)
        corpus, out_dir, clean = tmp / "corpus", tmp / "rerun", tmp / "clean"
        shutil.copytree(CORPUS_DIR, corpus)
        shutil.copytree(completed_run, out_dir)
        config = _config()
        case_dir = out_dir / case_id
        if change == "corpus text":
            (corpus / f"{case_id}.txt").write_text("A narrative no fixture answers.\n", encoding="utf-8")
        elif change == "config field":
            config = replace(config, retries=config.retries + 1)
        elif change == "prompt asset":
            real_hash = prompts.asset_hash
            edited = {"sdc_rewrite": "0" * 64}
            monkeypatch.setattr(prompts, "asset_hash", lambda name: edited.get(name) or real_hash(name))
        elif change == "rule table":
            unmatched = FeasibilityRule("no such diagnosis", "min_present_age", 1)
            config = replace(config, perturb=replace(config.perturb, rules=config.perturb.rules + (unmatched,)))
        elif change.startswith("edit "):
            path = case_dir / change.removeprefix("edit ")
            path.write_text(path.read_text(encoding="utf-8") + "# edited by hand\n", encoding="utf-8")
        else:
            (case_dir / change.removeprefix("delete ")).unlink()
        ran = set()
        for name in TRACED:
            stage = runner.STAGES[name]

            def counting(case_dir, source, shared, _name=name, _work=stage.work):
                ran.add((_name, case_dir.name))
                return _work(case_dir, source, shared)

            monkeypatch.setitem(runner.STAGES, name, replace(stage, work=counting))

        results = _workflow(mode, corpus, out_dir, config)
        assert ran == _rerun_rows(change, case_id)
        reached = {(name, other) for name in TRACED for other in CASE_IDS}
        if change == "corpus text":
            reached -= {("perturb", case_id), ("generate", case_id)}  # after the failed convert
        assert {(name, c) for r in results for c, names in r.skipped.items() for name in names} == reached - ran
        _workflow(mode, corpus, clean, config)
        assert _tree(out_dir) == _tree(clean)
        assert_provenance(out_dir)
