import ast
import dataclasses
import os
import re
import shutil
import sys
import typing
from pathlib import Path

import pytest
import yaml

import anonpsy
from anonpsy.cli import main
from anonpsy.config import ConfigError, RunConfig, load_config
from anonpsy.fileio import write_atomic
from anonpsy.gateway import MockBackend
from anonpsy.perturbation.config import PerturbConfig, settings
from anonpsy.runner import (
    BASELINE_NAMES,
    UsageError,
    run_baseline,
    run_convert,
    run_evaluation,
    run_perturb,
    run_pipeline,
)

from .conftest import CORPUS_DIR, FIXTURES_DIR
from .helpers import assert_provenance


_MOCK = {"backend": "mock", "fixtures_dir": str(FIXTURES_DIR)}


def _write_config(tmp_path: Path, **overrides) -> Path:
    doc = {
        "seed": 42,
        "jobs": 1,
        "gateway": _MOCK,
    }
    doc.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestRunCommand:
    def test_run_produces_deid_for_every_case(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out_dir = tmp_path / "run"
        code = main(["run", str(CORPUS_DIR), str(out_dir), "--config", str(config)])
        assert code == 0
        deids = sorted(p.parent.name for p in out_dir.glob("*/deid.txt"))
        assert deids == ["case_001", "case_002", "case_003"]
        assert (out_dir / "run_manifest.yaml").is_file()
        manifest = yaml.safe_load((out_dir / "run_manifest.yaml").read_text())
        assert manifest["seed"] == 42
        assert manifest["prompt_assets"]
        assert_provenance(out_dir)

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(CORPUS_DIR), str(out_a), "--config", str(config)]) == 0
        assert main(["run", str(CORPUS_DIR), str(out_b), "--config", str(config)]) == 0
        assert _tree(out_a) == _tree(out_b)
        assert_provenance(out_a)

        # A rerun into a completed directory skips every row and says so.
        capsys.readouterr()
        assert main(["run", str(CORPUS_DIR), str(out_a), "--config", str(config)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"run: {case_id}: ok (unchanged, skipped: convert, perturb, generate)"
            for case_id in ("case_001", "case_002", "case_003")
        ]
        assert _tree(out_a) == _tree(out_b)

    @pytest.mark.parametrize(
        ("template", "row"),
        [
            ("causal_pass", "convert"),
            ("identity_fields", "perturb"),
            ("mse_align", "perturb"),
            ("steb_rewrite", "perturb"),
            ("visit_rewrite", "perturb"),
            ("steb_sentence", "generate"),
            ("tail_append", "generate"),
        ],
    )
    def test_a_row_that_fell_back_on_a_failed_call_runs_again(self, tmp_path, template, row):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(FIXTURES_DIR, fixtures)
        config = _write_config(tmp_path, gateway={"backend": "mock", "fixtures_dir": str(fixtures)})
        clean, out_dir = tmp_path / "clean", tmp_path / "run"
        assert main(["run", str(CORPUS_DIR), str(clean), "--config", str(config)]) == 0
        stages = yaml.safe_load((clean / "run_manifest.yaml").read_text())["stages"]
        assert all("degraded" not in entry for entry in stages.values())

        # Every call of the template fails and each step falls back. With the original visit episode kept,
        # generate asks for a lead paragraph the fixtures do not hold, and the case fails there.
        (fixtures / template).rename(tmp_path / template)
        code = main(["run", str(CORPUS_DIR), str(out_dir), "--config", str(config)])
        assert code == (1 if template == "visit_rewrite" else 0)
        assert _tree(out_dir) != _tree(clean)
        manifest = yaml.safe_load((out_dir / "run_manifest.yaml").read_text())
        degraded = manifest["stages"][row]["degraded"]
        assert degraded and all(row not in manifest["provenance"].get(case_id, {}) for case_id in degraded)
        assert_provenance(out_dir)

        (tmp_path / template).rename(fixtures / template)
        assert main(["run", str(CORPUS_DIR), str(out_dir), "--config", str(config)]) == 0
        assert _tree(out_dir) == _tree(clean)

    def test_an_unreadable_causal_reply_leaves_the_row_to_run_again(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(FIXTURES_DIR, fixtures)
        config = _write_config(tmp_path, gateway={"backend": "mock", "fixtures_dir": str(fixtures)})
        clean, out_dir = tmp_path / "clean", tmp_path / "run"
        assert main(["run", str(CORPUS_DIR), str(clean), "--config", str(config)]) == 0

        # The one reply that proposes a causal edge comes back truncated; its retry finds no fixture.
        [reply] = [p for p in (fixtures / "causal_pass").iterdir() if "source_id" in p.read_text()]
        edges = reply.read_text()
        reply.write_text("entities: [unclosed\n")
        assert main(["run", str(CORPUS_DIR), str(out_dir), "--config", str(config)]) == 0
        manifest = yaml.safe_load((out_dir / "run_manifest.yaml").read_text())
        assert manifest["stages"]["convert"].get("degraded") == ["case_002"]

        reply.write_text(edges)
        assert main(["run", str(CORPUS_DIR), str(out_dir), "--config", str(config)]) == 0
        assert _tree(out_dir) == _tree(clean)

    def test_a_case_that_fell_back_on_a_failed_call_says_so(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(FIXTURES_DIR, fixtures)
        config = _write_config(tmp_path, gateway={"backend": "mock", "fixtures_dir": str(fixtures)})
        (fixtures / "identity_fields").rename(tmp_path / "identity_fields")
        out_dir = tmp_path / "run"
        for command in (["convert", str(CORPUS_DIR)], ["perturb"], ["generate"]):
            capsys.readouterr()
            assert main([*command, str(out_dir), "--config", str(config)]) == 0
            row = command[0]
            degraded = yaml.safe_load((out_dir / "run_manifest.yaml").read_text())["stages"][row].get("degraded", [])
            assert capsys.readouterr().out.splitlines() == [
                f"{row}: {case_id}: ok" + (f" (degraded: {row})" if case_id in degraded else "")
                for case_id in ("case_001", "case_002", "case_003")
            ]
        # With the identity fields kept, generate asks for sentences the fixtures hold for one case only.
        assert degraded == ["case_001", "case_002"]

    def test_staged_commands_match_run(self, tmp_path):
        config = _write_config(tmp_path)
        staged, direct = tmp_path / "staged", tmp_path / "direct"
        assert main(["convert", str(CORPUS_DIR), str(staged), "--config", str(config)]) == 0
        assert main(["perturb", str(staged), "--config", str(config)]) == 0
        assert main(["generate", str(staged), "--config", str(config)]) == 0
        assert main(["run", str(CORPUS_DIR), str(direct), "--config", str(config)]) == 0
        assert _tree(staged) == _tree(direct)
        assert_provenance(direct)

    def test_case_failures_isolate_and_exit_one(self, tmp_path, capsys):
        broken_corpus = tmp_path / "corpus"
        broken_corpus.mkdir()
        for path in CORPUS_DIR.iterdir():
            (broken_corpus / path.name).write_bytes(path.read_bytes())
        (broken_corpus / "case_999.txt").write_text("A narrative with no fixtures at all.")
        manifest = yaml.safe_load((broken_corpus / "manifest.yaml").read_text())
        manifest["cases"].append({"case_id": "case_999", "file": "case_999.txt", "diagnoses": []})
        (broken_corpus / "manifest.yaml").write_text(yaml.safe_dump(manifest))

        config = _write_config(tmp_path)
        out_dir = tmp_path / "run"
        code = main(["run", str(broken_corpus), str(out_dir), "--config", str(config)])
        assert code == 1
        # Healthy cases still completed end to end.
        assert (out_dir / "case_001" / "deid.txt").is_file()
        err = capsys.readouterr().err
        assert "case_999" in err and "FAILED" in err
        assert_provenance(out_dir)

    def test_failed_reconvert_leaves_no_stale_downstream_artifacts(self, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, corpus)
        config = load_config(_write_config(tmp_path))
        out_dir = tmp_path / "run"
        assert run_pipeline(corpus, out_dir, config).ok
        others = {case_id: _tree(out_dir / case_id) for case_id in ("case_002", "case_003")}

        new_text = "A different patient whose narrative has no mock fixtures.\n"
        (corpus / "case_001.txt").write_text(new_text, encoding="utf-8")
        result = run_pipeline(corpus, out_dir, config)

        assert result.failed["case_001"].startswith("MockFixtureMissing")
        case_dir = out_dir / "case_001"
        assert (case_dir / "original.txt").read_text(encoding="utf-8") == new_text
        for name in ("graph.yaml", "graph.perturbed.yaml", "perturb.audit.yaml", "outline.yaml", "deid.txt"):
            assert not (case_dir / name).exists(), name
        assert {case_id: _tree(out_dir / case_id) for case_id in others} == others
        assert_provenance(out_dir)
        with pytest.raises(UsageError, match="case_001/deid.txt"):
            run_evaluation(out_dir, config)


class TestBaselineAndEval:
    def test_full_evaluation_flow(self, tmp_path):
        config = _write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["run", str(CORPUS_DIR), str(out_dir), "--config", str(config)]) == 0
        for name in ("phi", "sdc", "llm_only"):
            assert main(["baseline", name, str(CORPUS_DIR), str(out_dir), "--config", str(config)]) == 0
        assert main(["eval", str(out_dir), "--config", str(config)]) == 0
        report = yaml.safe_load((out_dir / "report.yaml").read_text())
        assert {"anonpsy", "phi", "sdc", "llm_only", "original"} <= set(report["variant_means"])
        assert (out_dir / "report.csv").read_text().startswith("case_id,variant")
        assert_provenance(out_dir)

    def test_eval_reports_the_other_cases_when_one_reply_is_malformed(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(FIXTURES_DIR, fixtures)
        config = _write_config(tmp_path, gateway={"backend": "mock", "fixtures_dir": str(fixtures)})
        out_dir = tmp_path / "run"
        assert main(["run", str(CORPUS_DIR), str(out_dir), "--config", str(config)]) == 0
        variables = {
            "case_id": "case_002",
            "variant": "original",
            "narrative": (CORPUS_DIR / "case_002.txt").read_text(encoding="utf-8"),
        }
        for tags in ({}, {"attempt": "2"}, {"attempt": "3"}):  # every attempt gets the malformed reply
            Path(MockBackend(fixtures).fixture_path("predict_diagnoses", {**variables, **tags})).write_text(
                "diagnoses: [unclosed"
            )

        assert main(["eval", str(out_dir), "--config", str(config)]) == 1
        error = (
            "GatewayError: [predict_diagnoses] response is not a diagnoses mapping: "
            "invalid YAML: expected ',' or ']', but got '<stream end>' at line 1, column 21"
        )
        assert f"eval: case_002: FAILED: {error}" in capsys.readouterr().err
        report = yaml.safe_load((out_dir / "report.yaml").read_text())
        assert [case["case_id"] for case in report["cases"]] == ["case_001", "case_003"]
        assert "case_002" not in (out_dir / "report.csv").read_text()
        manifest = yaml.safe_load((out_dir / "run_manifest.yaml").read_text())
        assert manifest["stages"]["eval"] == {"succeeded": ["case_001", "case_003"], "failed": {"case_002": error}}

    def test_eval_without_run_outputs_fails_with_names(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        missing = tmp_path / "never_ran"
        code = main(["eval", str(missing), "--config", str(config)])
        assert code == 2
        assert "never_ran" in capsys.readouterr().err

    def test_eval_with_incomplete_case_names_artifact(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["convert", str(CORPUS_DIR), str(out_dir), "--config", str(config)]) == 0
        code = main(["eval", str(out_dir), "--config", str(config)])
        assert code == 2
        assert "deid.txt" in capsys.readouterr().err


def _kinds(hint) -> tuple:
    return typing.get_args(hint) or (hint,)


def _wrong_values():
    """(key, value) for each declared setting and each wrong type it may be given: a bool for any
    setting, a string for a number, a float for an integer and a number for a string."""
    for cls in (RunConfig, PerturbConfig):
        for _, key, hint, _ in settings(cls):
            kind = _kinds(hint)[0]
            yield key, True
            yield from [(key, "3")] if kind in (int, float) else [(key, 5)]
            yield from [(key, 2.5)] if kind is int else []


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", str(CORPUS_DIR), str(tmp_path / "out"), "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        assert "config" in capsys.readouterr().err

    def test_missing_corpus_manifest(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        code = main(["run", str(tmp_path / "empty"), str(tmp_path / "out"), "--config", str(config)])
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("entry", "message"),
        [
            pytest.param(
                {"case_id": "case_001", "diagnoses": "major depressive disorder"},
                "cases[0] (case_001): diagnoses must be a list of labels, got str",
                id="diagnoses-a-string",
            ),
            pytest.param(
                {"case_id": "case_001", "diagnoses": [["major depressive disorder"]]},
                "cases[0] (case_001): diagnoses[0] must be a label, got list",
                id="diagnoses-nested",
            ),
            pytest.param({"file": "case_001.txt", "diagnoses": []}, "cases[0] has no case_id", id="no-case-id"),
            pytest.param("case_001", "cases[0] is a str, not a mapping with a case_id", id="bare-string"),
            pytest.param(
                {"case_id": "../case_001", "file": "case_001.txt"},
                "cases[0]: case_id '../case_001' is not a directory name",
                id="case-id-a-path",
            ),
            pytest.param(
                [{"case_id": "case_001", "diagnoses": ["a"]}, {"case_id": "case_001", "diagnoses": ["b"]}],
                "cases[1]: case_id 'case_001' repeats cases[0]",
                id="case-id-twice",
            ),
            *(
                pytest.param(
                    {"case_id": name, "file": "case_001.txt"},
                    f"cases[0]: case_id {name!r} names a file of the run directory",
                    id=f"case-id-{name}",
                )
                for name in ("run_manifest.yaml", "report.yaml", "report.csv")
            ),
        ],
    )
    def test_a_malformed_corpus_entry_exits_two_naming_it(self, tmp_path, capsys, entry, message):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, corpus)
        entries = entry if isinstance(entry, list) else [entry]
        (corpus / "manifest.yaml").write_text(yaml.safe_dump({"cases": entries}), encoding="utf-8")
        for command in (["run"], ["convert"], ["baseline", "phi"]):
            code = main([*command, str(corpus), str(tmp_path / "out"), "--config", str(_write_config(tmp_path))])
            assert code == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "case_001").exists()

    def test_mock_backend_requires_fixtures_dir(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"gateway": {"backend": "mock"}}))
        code = main(["run", str(CORPUS_DIR), str(tmp_path / "out"), "--config", str(path)])
        assert code == 2
        assert "fixtures_dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({"jobs": "two"}, "jobs must be an integer, got 'two'"),
            ({"seed": 4.7}, "seed must be an integer, got 4.7"),
            ({"gateway": {**_MOCK, "retries": 0}}, "gateway.retries must be >= 1"),
            ({"gateway": {**_MOCK, "retries": "3"}}, "gateway.retries must be an integer, got '3'"),
            ({"baselines": {"sdc_temperature": 0.7}}, "unknown config key: baselines"),
            ({"perturb": {"max_retries": 3}}, "unknown config key: perturb.max_retries"),
            ({"eval": {"match_threshold": 0.8}}, "unknown config key: eval.match_threshold"),
        ],
        ids=[
            "jobs-word",
            "seed-float",
            "retries-zero",
            "retries-string",
            "sdc-temperature-removed",
            "max-retries-removed",
            "match-threshold-removed",
        ],
    )
    def test_a_setting_it_cannot_use_exits_two_before_any_case(self, tmp_path, capsys, overrides, message):
        config = _write_config(tmp_path, **overrides)
        out_dir = tmp_path / "out"
        assert main(["run", str(CORPUS_DIR), str(out_dir), "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(("key", "value"), [pytest.param(k, v, id=f"{k}={v!r}") for k, v in _wrong_values()])
    def test_a_setting_of_the_wrong_type_exits_two_before_any_case(self, tmp_path, capsys, key, value):
        section, _, name = key.rpartition(".")
        doc = {"gateway": dict(_MOCK)}
        (doc.setdefault(section, {}) if section else doc)[name] = value
        config = _write_config(tmp_path, **doc)
        out_dir = tmp_path / "out"
        assert main(["run", str(CORPUS_DIR), str(out_dir), "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        ("key", "text", "message"),
        [
            ("feasibility_rules", None, "No such file"),
            ("feasibility_rules", "rules: [unclosed", "perturb.feasibility_rules"),
            ("feasibility_rules", "rules:\n- {constraint_kind: min_present_age, value: 18}", "diagnosis_pattern"),
            ("feasibility_rules", "rules:\n- {diagnosis_pattern: autism, constraint_kind: max_onset_age}", "value"),
            ("feasibility_rules", "rules:\n- {diagnosis_pattern: autism, constraint_kind: max_onset_age, value: 300}", "range"),
            (
                "feasibility_rules",
                "rules:\n- {diagnosis_pattern: major depressive, constraint_kind: required_sex, value: banana}",
                "required_sex value must be male or female",
            ),
            (
                "test_value_pools",
                "pools:\n- canonical_test: mmse\n  aliases: [mmse]\n  bands:\n"
                "  - {low: 0, high: 10, label: low}\n  - {low: 5, high: 30, label: high}",
                "overlap",
            ),
        ],
        ids=["missing", "not-yaml", "no-pattern", "no-value", "value-out-of-range", "sex-not-male-or-female", "overlapping-bands"],
    )
    def test_bad_table_file_exits_two_before_any_case(self, tmp_path, capsys, key, text, message):
        table = tmp_path / "table.yaml"
        if text is not None:
            table.write_text(text, encoding="utf-8")
        config = _write_config(tmp_path, perturb={key: str(table)})
        out_dir = tmp_path / "out"
        code = main(["run", str(CORPUS_DIR), str(out_dir), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"perturb.{key}" in err and message in err
        assert not out_dir.exists()


class TestConfigLoading:
    def test_flag_overrides_beat_file(self, tmp_path):
        config_path = _write_config(tmp_path, seed=7)
        config = load_config(config_path, seed=99, jobs=2)
        assert config.seed == 99 and config.jobs == 2
        assert config.perturb.seed == 99

    def test_env_overrides_gateway(self, tmp_path, monkeypatch):
        config_path = _write_config(tmp_path)
        monkeypatch.setenv("ANONPSY_MODEL", "other-model")
        monkeypatch.setenv("ANONPSY_ENDPOINT", "http://example.internal:11434")
        config = load_config(config_path)
        assert config.model == "other-model"
        assert config.endpoint == "http://example.internal:11434"

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"mystery": {}}))
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_the_readme_settings_table_is_the_declared_settings(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        start = readme.index("| Key | Type | Default | Bound or choices |") + 2
        table = []
        for line in readme[start:]:
            if not line.startswith("|"):
                break
            table.append([cell.strip() for cell in line.strip("|").split("|")])
        declared = []
        for cls in (RunConfig, PerturbConfig):
            defaults = {f.name: f.default for f in dataclasses.fields(cls)}
            for name, key, hint, bound in settings(cls):
                kinds = _kinds(hint)
                kind = {int: "integer", float: "number", str: "string"}[kinds[0]]
                default = "unset" if defaults[name] is None else f"`{defaults[name]}`"
                if isinstance(bound, tuple):
                    choices = ", ".join(f"`{c}`" for c in bound)
                else:
                    choices = f"`{bound}`" if bound else ""
                declared.append([f"`{key}`", kind + (" or null" if type(None) in kinds else ""), default, choices])
        assert table == declared

    def test_digest_stable_and_sensitive(self, tmp_path):
        config_path = _write_config(tmp_path)
        a = load_config(config_path)
        b = load_config(config_path)
        assert a.digest() == b.digest()
        assert a.digest() is a.digest()  # computed once per config
        assert load_config(config_path, seed=1).digest() != a.digest()

    def test_the_bounds_take_their_edges(self, tmp_path):
        config = load_config(_write_config(tmp_path, perturb={"sex_flip_probability": 1}))
        assert config.perturb.sex_flip_probability == 1

    def test_perturb_section_round_trips(self, tmp_path):
        config_path = _write_config(tmp_path, perturb={"similarity_threshold": 0.5})
        config = load_config(config_path)
        assert config.perturb.similarity_threshold == 0.5

    def test_perturb_seed_is_refused_for_the_top_level_seed(self, tmp_path):
        config_path = _write_config(tmp_path, seed=42, perturb={"seed": 5})
        with pytest.raises(ConfigError, match="top-level seed"):
            load_config(config_path)

    def test_http_embedder_requires_an_endpoint(self, tmp_path):
        with pytest.raises(ConfigError, match="embedding_endpoint"):
            load_config(_write_config(tmp_path, eval={"embedder": "http"}))
        config = load_config(_write_config(tmp_path, eval={"embedder": "http", "embedding_endpoint": "http://e:1"}))
        assert config.embedder == "http"

    def test_digest_covers_the_contents_of_a_table_file(self, tmp_path):
        rules = tmp_path / "rules.yaml"
        rules.write_text(_PIN_CASE_001, encoding="utf-8")
        config_path = _write_config(tmp_path, perturb={"feasibility_rules": str(rules)})
        before = load_config(config_path)
        rules.write_text(_PIN_CASE_001.replace("value: male", "value: female"), encoding="utf-8")
        after = load_config(config_path)
        assert before.digest() != after.digest()
        assert before.digest() != load_config(_write_config(tmp_path)).digest()
        rules.write_text(_PIN_CASE_001.replace("value: male", "value: 2020-01-01"), encoding="utf-8")
        assert load_config(config_path).digest() != after.digest()


# A user rule table pinning the sex of case_001 (major depressive disorder),
# which the packaged rules leave free to flip.
_PIN_CASE_001 = "rules:\n- {diagnosis_pattern: major depressive, constraint_kind: required_sex, value: male}\n"


class TestUserTables:
    def test_user_rules_reach_perturb_in_run_and_staged(self, tmp_path):
        rules = tmp_path / "rules.yaml"
        rules.write_text(_PIN_CASE_001, encoding="utf-8")
        config = load_config(_write_config(tmp_path, perturb={"feasibility_rules": str(rules)}))
        direct, staged = tmp_path / "direct", tmp_path / "staged"
        # The pinned sex changes what generate asks for, which the mock fixtures lack.
        result = run_pipeline(CORPUS_DIR, direct, config)
        assert set(result.failed) == {"case_001"}
        assert run_convert(CORPUS_DIR, staged, config).ok and run_perturb(staged, config).ok

        audit = yaml.safe_load((direct / "case_001" / "perturb.audit.yaml").read_text(encoding="utf-8"))
        (sex,) = [entry for entry in audit["entries"] if entry["step"] == "sex"]
        assert sex == {"step": "sex", "original": "male", "new": "male", "pinned_by": "major depressive disorder"}
        for case_id in ("case_001", "case_002", "case_003"):
            for name in ("graph.perturbed.yaml", "perturb.audit.yaml"):
                assert (direct / case_id / name).read_bytes() == (staged / case_id / name).read_bytes()


class TestWorkerPool:
    def test_parallel_run_matches_serial(self, tmp_path):
        serial_config = _write_config(tmp_path, seed=42, jobs=1)
        out_serial = tmp_path / "serial"
        assert main(["run", str(CORPUS_DIR), str(out_serial), "--config", str(serial_config)]) == 0
        out_parallel = tmp_path / "parallel"
        assert main(["run", str(CORPUS_DIR), str(out_parallel), "--config", str(serial_config), "--jobs", "3"]) == 0
        serial_tree = _tree(out_serial)
        parallel_tree = _tree(out_parallel)
        # The manifest records per-stage status identically; artifacts match.
        assert serial_tree == parallel_tree
        assert_provenance(out_parallel)

    def test_chained_stages_interleave_safely(self, tmp_path):
        # More workers than cores, and a thread switch every few microseconds,
        # so cases sit at different stages of the chain while sharing the gateway.
        config = _write_config(tmp_path, seed=42, jobs=1)
        out_serial, out_parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["run", str(CORPUS_DIR), str(out_serial), "--config", str(config)]) == 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                code = main(["run", str(CORPUS_DIR), str(out_parallel), "--config", str(config), "--jobs", "4"])
                assert code == 0
                assert _tree(out_parallel) == _tree(out_serial)
                assert_provenance(out_parallel)
                shutil.rmtree(out_parallel)
        finally:
            sys.setswitchinterval(interval)


def _counting_replace(monkeypatch) -> list:
    renamed = []
    real_replace = os.replace

    def counting_replace(src, dst):
        renamed.append(dst)
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", counting_replace)
    return renamed


class TestWriteAtomic:
    def test_equal_bytes_are_not_rewritten(self, tmp_path, monkeypatch):
        path = tmp_path / "a.txt"
        write_atomic(path, "same\n")
        renamed = _counting_replace(monkeypatch)
        write_atomic(path, "same\n")
        assert renamed == []
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    @pytest.mark.parametrize("old", ["", "same", "same\n\n", "sane\n", "ß\n"])
    def test_other_bytes_are_replaced(self, tmp_path, monkeypatch, old):
        path = tmp_path / "a.txt"
        path.write_bytes(old.encode("utf-8"))
        renamed = _counting_replace(monkeypatch)
        write_atomic(path, "same\n")
        assert renamed == [path]
        assert path.read_bytes() == b"same\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_identical_workflow_rerun_renames_no_file(self, tmp_path, monkeypatch):
        config = RunConfig(seed=42, jobs=1, backend="mock", fixtures_dir=str(FIXTURES_DIR))
        out_dir = tmp_path / "run"

        def workflow():
            assert run_pipeline(CORPUS_DIR, out_dir, config).ok
            for name in BASELINE_NAMES:
                assert run_baseline(name, CORPUS_DIR, out_dir, config).ok
            assert run_evaluation(out_dir, config).ok

        workflow()
        first = _tree(out_dir)
        renamed = _counting_replace(monkeypatch)
        workflow()
        assert renamed == []
        assert _tree(out_dir) == first
        assert_provenance(out_dir)


def test_files_are_written_only_through_write_atomic():
    src_dir = Path(anonpsy.__file__).parent
    offenders = [
        f"{path.relative_to(src_dir)}:{node.lineno}"
        for path in sorted(src_dir.rglob("*.py"))
        if path != src_dir / "fileio.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("write_text", "write_bytes")
    ]
    assert offenders == []


def test_yaml_is_read_and_written_only_through_yamlio():
    src_dir = Path(anonpsy.__file__).parent
    offenders = [
        f"{path.relative_to(src_dir)}:{node.lineno}"
        for path in sorted(src_dir.rglob("*.py"))
        if path != src_dir / "yamlio.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "yaml"
        and node.func.attr in ("safe_load", "safe_dump", "load", "dump")
    ]
    assert offenders == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module's top-level imports bind that nothing in the module reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}:{name}" for name, line in bound.items() if name not in read]


def test_no_module_keeps_an_import_it_never_uses():
    # A re-exporting __init__.py imports names for its callers, not for itself.
    src_dir = Path(anonpsy.__file__).parent
    offenders = [
        f"{path.relative_to(src_dir)}:{unused}"
        for path in sorted(src_dir.rglob("*.py"))
        if path.name != "__init__.py"
        for unused in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def _crowded_definitions(source: str, tree: ast.Module) -> list[int]:
    """Lines of the top-level defs and classes without two blank lines before them, counting their
    decorators and the comment lines directly above them."""
    lines = source.split("\n")
    crowded = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        top = min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1  # 0-based
        while top and lines[top - 1].lstrip().startswith("#"):
            top -= 1
        blank = 0
        while blank < top and not lines[top - 1 - blank].strip():
            blank += 1
        if top and blank != 2:
            crowded.append(node.lineno)
    return crowded


# Raw C0 controls but tab, C1 controls, the line and paragraph separators and the
# noncharacters: `str.splitlines()` splits a line at several of them, and none shows
# in an editor. Newline is the line break itself.
_INVISIBLE = re.compile(
    "[\x00-\x08\x0a-\x1f\x80-\x9f\u2028\u2029\ufdd0-\ufdef"
    + "".join(chr(plane | 0xFFFE) + chr(plane | 0xFFFF) for plane in range(0, 0x110000, 0x10000))
    + "]"
)


def test_every_source_line_is_spaced_and_printable():
    src_dir = Path(anonpsy.__file__).parent
    crowded, invisible = [], []
    for path in sorted(src_dir.rglob("*.py")):
        source = path.read_bytes().decode("utf-8")  # text mode would turn a raw CR into a line break
        name = path.relative_to(src_dir).as_posix()
        crowded += [f"{name}:{line}" for line in _crowded_definitions(source, ast.parse(source))]
        invisible += [
            f"{name}:{number}:{match.group()!r}"
            for number, line in enumerate(source.split("\n"), 1)
            for match in _INVISIBLE.finditer(line)
        ]
    assert (crowded, invisible) == ([], [])
