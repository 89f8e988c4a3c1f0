import random
import shutil

import pytest
import yaml

from anonpsy.evaluation import embedding
from anonpsy.evaluation.judge import JudgeError, judge_risk
from anonpsy.evaluation.report import VARIANT_FILES, EvalInputError, discover_cases, run_eval
from anonpsy.evaluation.embedding import HashedTfEmbedder
from anonpsy.runner import run_baseline, run_pipeline
from anonpsy.textproc import tokenize
from tests.gen_fixtures import make_config

from .helpers import FakeGateway

CASE_IDS = ["case_001", "case_002", "case_003"]


class TestJudgeRisk:
    def test_parses_choice_and_scores(self):
        gw = FakeGateway(lambda t, v: yaml.safe_dump({"choice": "B", "risk_a": 2, "risk_b": 3}))
        result = judge_risk("orig", "candidate a", "candidate b", gw, random.Random(1))
        assert result.score_a in (2, 3) and result.score_b in (2, 3)
        assert {result.score_a, result.score_b} == {2, 3}

    def test_randomization_is_seed_deterministic_and_recorded(self):
        gw = FakeGateway(lambda t, v: yaml.safe_dump({"choice": "A", "risk_a": 1, "risk_b": 5}))
        first = judge_risk("orig", "a text", "b text", gw, random.Random(9))
        second = judge_risk("orig", "a text", "b text", gw, random.Random(9))
        assert first == second

    def test_swap_maps_scores_back_to_arguments(self):
        # Find a seed that swaps presentation, then check the mapping.
        swapping_seed = next(s for s in range(50) if random.Random(s).random() < 0.5)
        calls = []

        def handler(template_id, variables):
            calls.append(variables)
            return yaml.safe_dump({"choice": "A", "risk_a": 4, "risk_b": 1})

        result = judge_risk("orig", "anon text", "llm text", FakeGateway(handler), random.Random(swapping_seed))
        assert result.swapped
        assert calls[0]["version_a"] == "llm text"  # presented swapped
        assert result.choice == "B"  # judge chose presented A = caller's B
        assert (result.score_a, result.score_b) == (1, 4)

    def test_missing_score_retried_then_error(self):
        gw = FakeGateway(lambda t, v: yaml.safe_dump({"choice": "A", "risk_a": 2}))
        with pytest.raises(JudgeError):
            judge_risk("orig", "a", "b", gw, random.Random(1))
        assert len(gw.calls) == 3

    def test_out_of_range_score_rejected(self):
        gw = FakeGateway(lambda t, v: yaml.safe_dump({"choice": "A", "risk_a": 0, "risk_b": 6}))
        with pytest.raises(JudgeError):
            judge_risk("orig", "a", "b", gw, random.Random(1))


@pytest.fixture(scope="module")
def full_run(tmp_path_factory, corpus_dir=None):
    from .conftest import CORPUS_DIR

    out_dir = tmp_path_factory.mktemp("run")
    config = make_config()
    assert run_pipeline(CORPUS_DIR, out_dir, config).ok
    for name in ("phi", "sdc", "llm_only"):
        assert run_baseline(name, CORPUS_DIR, out_dir, config).ok
    return out_dir, config


class TestRunEval:
    def test_report_contents(self, full_run, mock_gateway):
        out_dir, config = full_run
        report = run_eval(out_dir, mock_gateway, HashedTfEmbedder(), seed=config.seed)
        assert [c.case_id for c in report.cases] == ["case_001", "case_002", "case_003"]
        for case in report.cases:
            assert set(case.variants) == {"original", "anonpsy", "phi", "sdc", "llm_only"}
            for metrics in case.variants.values():
                assert 0.0 <= metrics.soft_f1 <= 1.0
                assert -1.0 <= metrics.cosine <= 1.0 + 1e-9
            assert case.risk_anonpsy is not None and case.risk_llm_only is not None
        # Plane coordinates exist for every variant.
        for name in ("anonpsy", "phi", "sdc"):
            assert {"cosine", "soft_f1"} <= set(report.variant_means[name])

    def test_phi_sits_above_anonpsy_on_the_recallability_axis(self, full_run, mock_gateway):
        out_dir, config = full_run
        report = run_eval(out_dir, mock_gateway, HashedTfEmbedder(), seed=config.seed)
        assert report.variant_means["phi"]["cosine"] > report.variant_means["anonpsy"]["cosine"]
        for case in report.cases:
            assert case.variants["phi"].cosine > case.variants["anonpsy"].cosine

    def test_statistics_present(self, full_run, mock_gateway):
        out_dir, config = full_run
        report = run_eval(out_dir, mock_gateway, HashedTfEmbedder(), seed=config.seed)
        tests = {record["test"] for record in report.statistics}
        assert {"wilcoxon_signed_rank", "binomial", "friedman", "cochran_q", "mcnemar", "mann_whitney_u"} <= tests
        for record in report.statistics:
            if record.get("p") is not None:
                assert 0.0 <= record["p"] <= 1.0
            if record.get("correction") == "holm":
                assert record["p_holm"] >= record["p"] - 1e-12

    def test_csv_has_row_per_case_variant(self, full_run, mock_gateway):
        out_dir, config = full_run
        report = run_eval(out_dir, mock_gateway, HashedTfEmbedder(), seed=config.seed)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "case_id,variant,cosine,soft_f1,acceptable,risk"
        assert len(lines) == 1 + 3 * 5

    def test_missing_run_dir_is_input_error(self, tmp_path, mock_gateway):
        with pytest.raises(EvalInputError, match="does not exist"):
            run_eval(tmp_path / "never_ran", mock_gateway, HashedTfEmbedder())

    def test_missing_deid_artifact_named(self, tmp_path, mock_gateway):
        case_dir = tmp_path / "case_009"
        case_dir.mkdir()
        (case_dir / "original.txt").write_text("text")
        (case_dir / "meta.yaml").write_text("case_id: case_009\ndiagnoses: []\n")
        with pytest.raises(EvalInputError, match="case_009/deid.txt"):
            run_eval(tmp_path, mock_gateway, HashedTfEmbedder())

    def test_missing_deid_raised_before_any_model_call(self, full_run, mock_gateway, tmp_path):
        out_dir, config = full_run
        run_dir = tmp_path / "run"
        shutil.copytree(out_dir, run_dir)
        (run_dir / "case_001" / "deid.txt").unlink()
        (run_dir / "case_003" / "deid.txt").unlink()
        gw = FakeGateway(lambda template_id, variables: mock_gateway.call(template_id, variables, temperature=0.0))
        with pytest.raises(EvalInputError) as err:
            run_eval(run_dir, gw, HashedTfEmbedder(), seed=config.seed)
        assert str(err.value) == "missing run artifacts: case_001/deid.txt, case_003/deid.txt"
        assert gw.calls == []

    @pytest.mark.parametrize(
        "template_id,message",
        [
            ("predict_diagnoses", "response is not a diagnoses mapping"),
            ("diagnosis_acceptability", "response is not an acceptability mapping"),
        ],
    )
    def test_malformed_reply_is_gateway_error_naming_template(self, full_run, mock_gateway, template_id, message):
        out_dir, config = full_run

        def handler(t, v):
            if t == template_id:
                return "diagnoses: [unclosed"
            return mock_gateway.call(t, v, temperature=0.0)

        report = run_eval(out_dir, FakeGateway(handler), HashedTfEmbedder(), seed=config.seed)
        assert report.cases == []
        assert report.failed == {case_id: f"GatewayError: [{template_id}] {message}" for case_id in CASE_IDS}

    def test_failed_case_is_left_out_of_the_report(self, full_run, mock_gateway, tmp_path):
        out_dir, config = full_run

        def handler(t, v):
            if t == "predict_diagnoses" and v["case_id"] == "case_002" and v["variant"] == "sdc":
                return "diagnoses: [unclosed"
            return mock_gateway.call(t, v, temperature=0.0)

        report = run_eval(out_dir, FakeGateway(handler), HashedTfEmbedder(), seed=config.seed)
        assert report.failed == {"case_002": "GatewayError: [predict_diagnoses] response is not a diagnoses mapping"}
        others = tmp_path / "others"
        for case_id in ("case_001", "case_003"):
            shutil.copytree(out_dir / case_id, others / case_id)
        expected = run_eval(others, mock_gateway, HashedTfEmbedder(), seed=config.seed)
        assert [c.case_id for c in report.cases] == ["case_001", "case_003"]
        assert (report.to_yaml(), report.to_csv()) == (expected.to_yaml(), expected.to_csv())

    def test_reply_with_invalid_date_is_gateway_error_naming_template(self, full_run, mock_gateway):
        # Pure PyYAML raises a bare ValueError on this reply, which aborted the eval run;
        # now each case fails on it alone.
        out_dir, config = full_run

        def handler(t, v):
            if t == "predict_diagnoses":
                return "diagnoses: [2021-02-30]"
            return mock_gateway.call(t, v, temperature=0.0)

        report = run_eval(out_dir, FakeGateway(handler), HashedTfEmbedder(), seed=config.seed)
        assert report.failed == {
            case_id: "GatewayError: [predict_diagnoses] response is not a diagnoses mapping" for case_id in CASE_IDS
        }

    def test_deeply_nested_reply_is_gateway_error_naming_template(self, full_run, mock_gateway):
        # Pure PyYAML raises RecursionError on this reply, which aborted the eval run;
        # now each case fails on it alone.
        out_dir, config = full_run

        def handler(t, v):
            if t == "predict_diagnoses":
                return "[" * 600 + "]" * 600
            return mock_gateway.call(t, v, temperature=0.0)

        report = run_eval(out_dir, FakeGateway(handler), HashedTfEmbedder(), seed=config.seed)
        assert report.failed == {
            case_id: "GatewayError: [predict_diagnoses] response is not a diagnoses mapping" for case_id in CASE_IDS
        }

    def test_each_distinct_term_is_hashed_once(self, full_run, mock_gateway, monkeypatch):
        out_dir, config = full_run
        hashed = []
        bucket = embedding._bucket

        def counting_bucket(term, dimensions):
            hashed.append(term)
            return bucket(term, dimensions)

        monkeypatch.setattr(embedding, "_bucket", counting_bucket)
        run_eval(out_dir, mock_gateway, HashedTfEmbedder(), seed=config.seed)
        terms = set()
        for _, case_dir in discover_cases(out_dir):
            for name in ("original.txt", *VARIANT_FILES.values()):
                tokens = tokenize((case_dir / name).read_text(encoding="utf-8"))
                terms.update(tokens)
                terms.update(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
        assert len(hashed) == len(terms)
        assert set(hashed) == terms
