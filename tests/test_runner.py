"""The stage engine: case selection, stale-output removal, and the hooks the traced bench patches."""

import ast
import shutil
from pathlib import Path

import pytest

import anonpsy
import anonpsy.runner as runner
from anonpsy.config import RunConfig
from anonpsy.converter import INTERMEDIATES
from anonpsy.gateway import MockBackend

from .conftest import CORPUS_DIR, FIXTURES_DIR

CASE_IDS = ["case_001", "case_002", "case_003"]


def _config(fixtures_dir: Path = FIXTURES_DIR) -> RunConfig:
    return RunConfig(seed=42, jobs=1, backend="mock", fixtures_dir=str(fixtures_dir))


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
    fixture = MockBackend(fixtures).fixture_path("sdc_rewrite", {"case_text": text})
    fixture.unlink()
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
    ]
    assert [stage for stage, _ in commands] == list(runner.STAGES)
    before = {case_id: set() for case_id in CASE_IDS}
    for stage, command in commands:
        assert command().ok
        after = _case_files(out_dir)
        declared = set(runner.STAGES[stage].outputs)
        if stage == "convert":
            declared |= set(runner.CASE_INPUTS) | set(INTERMEDIATES)
        assert {case_id: after[case_id] - before[case_id] for case_id in CASE_IDS} == {
            case_id: declared for case_id in CASE_IDS
        }, stage
        before = after


def test_baselines_write_missing_inputs_only_and_convert_rewrites_them(tmp_path):
    config = _config()
    out_dir = tmp_path / "run"
    assert runner.run_baseline("phi", CORPUS_DIR, out_dir, config).ok
    expected = set(runner.CASE_INPUTS) | set(runner.STAGES["baseline.phi"].outputs)
    assert _case_files(out_dir) == {case_id: expected for case_id in CASE_IDS}

    original = out_dir / "case_001" / "original.txt"
    original.write_text("edited\n", encoding="utf-8")
    assert runner.run_baseline("phi", CORPUS_DIR, out_dir, config).ok
    assert original.read_text(encoding="utf-8") == "edited\n"
    assert runner.run_convert(CORPUS_DIR, out_dir, config).ok
    assert original.read_bytes() == (CORPUS_DIR / "case_001.txt").read_bytes()


def test_perturb_without_a_run_directory_is_a_usage_error(tmp_path):
    with pytest.raises(runner.UsageError, match="does not exist"):
        runner.run_perturb(tmp_path / "missing", _config())
    (tmp_path / "empty").mkdir()
    with pytest.raises(runner.UsageError, match="graph.yaml"):
        runner.run_perturb(tmp_path / "empty", _config())


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
