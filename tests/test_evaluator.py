import random
import re
import shutil
import sys
from dataclasses import replace

import pytest
import yaml

import anonpsy.runner as runner
from anonpsy import prompts
from anonpsy import gateway
from anonpsy.evaluation import embedding
from anonpsy.evaluation.judge import JudgeError, judge_risk
from anonpsy.evaluation.report import CaseEval, VariantMetrics, run_eval
from anonpsy.runner import VARIANT_FILES, UsageError, run_baseline, run_pipeline
from anonpsy.textproc import tokenize
from tests.gen_fixtures import make_config

from .conftest import CORPUS_DIR
from .helpers import FakeGateway

CASE_IDS = ["case_001", "case_002", "case_003"]
# Template variables that carry a narrative or the gold diagnoses.
TEXT_VARIABLES = {"narrative", "diagnoses", "original", "version_a", "version_b"}
# The reason `yamlio.reply_mapping` gives for the reply `diagnoses: [unclosed`.
UNCLOSED = "invalid YAML: expected ',' or ']', but got '<stream end>' at line 1, column 21"


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


def _evaluate(out_dir, config, gateway=None):
    """`run_evaluation`, with `gateway` injected through `runner.build_gateway`: its result and report."""
    reports = []
    reduce = runner.run_eval
    with pytest.MonkeyPatch.context() as patch:
        if gateway is not None:
            patch.setattr(runner, "build_gateway", lambda _config: gateway)
        patch.setattr(runner, "run_eval", lambda cases: reports.append(reduce(cases)) or reports[-1])
        result = runner.run_evaluation(out_dir, config)
    assert (out_dir / "report.yaml").read_text(encoding="utf-8") == reports[0].to_yaml()
    return result, reports[0]


def _replying(mock_gateway, template_id, reply):
    """A gateway that answers `template_id` with `reply` and every other call from the mock fixtures."""
    return FakeGateway(lambda t, v: reply if t == template_id else mock_gateway.call(t, v, temperature=0.0))


class TestRunEval:
    def test_report_contents(self, full_run):
        out_dir, config = full_run
        _, report = _evaluate(out_dir, config)
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

    def test_phi_sits_above_anonpsy_on_the_recallability_axis(self, full_run):
        out_dir, config = full_run
        _, report = _evaluate(out_dir, config)
        assert report.variant_means["phi"]["cosine"] > report.variant_means["anonpsy"]["cosine"]
        for case in report.cases:
            assert case.variants["phi"].cosine > case.variants["anonpsy"].cosine

    def test_statistics_present(self, full_run):
        out_dir, config = full_run
        _, report = _evaluate(out_dir, config)
        tests = {record["test"] for record in report.statistics}
        assert {"wilcoxon_signed_rank", "binomial", "friedman", "cochran_q", "mcnemar", "mann_whitney_u"} <= tests
        for record in report.statistics:
            if record.get("p") is not None:
                assert 0.0 <= record["p"] <= 1.0
            if record.get("correction") == "holm":
                assert record["p_holm"] >= record["p"] - 1e-12

    def test_pairwise_wilcoxon_reports_the_method_the_test_used(self):
        # 30 cases, 3 nonzero soft-F1 differences: the test is exact, though
        # there are more than 25 cases; an all-tied pair is degenerate.
        def case(i):
            scores = {"anonpsy": 0.5, "phi": 0.5 + (0.1 * (i + 1) if i < 3 else 0.0), "sdc": 0.5}
            return CaseEval(f"case_{i:03d}", [], {name: VariantMetrics(0.0, f1, []) for name, f1 in scores.items()})

        report = run_eval([case(i) for i in range(30)])
        methods = {r["comparison"]: r["method"] for r in report.statistics if r.get("correction") == "holm"}
        assert methods == {
            "soft_f1: anonpsy vs phi": "exact",
            "soft_f1: anonpsy vs sdc": "degenerate",
            "soft_f1: phi vs sdc": "exact",
        }

    def test_csv_has_row_per_case_variant(self, full_run):
        out_dir, config = full_run
        _, report = _evaluate(out_dir, config)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "case_id,variant,cosine,soft_f1,acceptable,risk"
        assert len(lines) == 1 + 3 * 5
        assert (out_dir / "report.csv").read_text(encoding="utf-8") == report.to_csv()

    def test_missing_run_dir_is_input_error(self, tmp_path):
        with pytest.raises(UsageError, match="does not exist"):
            runner.run_evaluation(tmp_path / "never_ran", make_config())

    def test_missing_deid_artifact_named(self, tmp_path):
        case_dir = tmp_path / "case_009"
        case_dir.mkdir()
        (case_dir / "original.txt").write_text("text")
        (case_dir / "meta.yaml").write_text("case_id: case_009\ndiagnoses: []\n")
        with pytest.raises(UsageError, match="case_009/deid.txt"):
            runner.run_evaluation(tmp_path, make_config())

    def test_missing_deid_raised_before_any_model_call(self, full_run, mock_gateway, tmp_path):
        out_dir, config = full_run
        run_dir = tmp_path / "run"
        shutil.copytree(out_dir, run_dir)
        (run_dir / "case_001" / "deid.txt").unlink()
        (run_dir / "case_003" / "deid.txt").unlink()
        gw = FakeGateway(lambda template_id, variables: mock_gateway.call(template_id, variables, temperature=0.0))
        with pytest.raises(UsageError) as err:
            _evaluate(run_dir, config, gw)
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
        gw = _replying(mock_gateway, template_id, "diagnoses: [unclosed")
        result, report = _evaluate(out_dir, config, gw)
        assert report.cases == []
        error = f"GatewayError: [{template_id}] {message}: {UNCLOSED}"
        assert result.failed == {case_id: error for case_id in CASE_IDS}

    def test_failed_case_is_left_out_of_the_report(self, full_run, mock_gateway, tmp_path):
        out_dir, config = full_run

        def handler(t, v):
            if t == "predict_diagnoses" and v["case_id"] == "case_002" and v["variant"] == "sdc":
                return "diagnoses: [unclosed"
            return mock_gateway.call(t, v, temperature=0.0)

        result, report = _evaluate(out_dir, config, FakeGateway(handler))
        assert result.failed == {
            "case_002": f"GatewayError: [predict_diagnoses] response is not a diagnoses mapping: {UNCLOSED}"
        }
        others = tmp_path / "others"
        for case_id in ("case_001", "case_003"):
            shutil.copytree(out_dir / case_id, others / case_id)
        _, expected = _evaluate(others, config)
        assert [c.case_id for c in report.cases] == ["case_001", "case_003"]
        assert (report.to_yaml(), report.to_csv()) == (expected.to_yaml(), expected.to_csv())

    def test_reply_with_invalid_date_is_gateway_error_naming_template(self, full_run, mock_gateway):
        # Pure PyYAML raises a bare ValueError on this reply, which aborted the eval run;
        # now each case fails on it alone.
        out_dir, config = full_run
        gw = _replying(mock_gateway, "predict_diagnoses", "diagnoses: [2021-02-30]")
        result, _ = _evaluate(out_dir, config, gw)
        error = "response is not a diagnoses mapping: invalid YAML: day is out of range for month at line 1, column 13"
        assert result.failed == {case_id: f"GatewayError: [predict_diagnoses] {error}" for case_id in CASE_IDS}

    def test_deeply_nested_reply_is_gateway_error_naming_template(self, full_run, mock_gateway):
        # Pure PyYAML raises RecursionError on this reply, which aborted the eval run;
        # now each case fails on it alone.
        out_dir, config = full_run
        gw = _replying(mock_gateway, "predict_diagnoses", "[" * 600 + "]" * 600)
        result, _ = _evaluate(out_dir, config, gw)
        error = "response is not a diagnoses mapping: invalid YAML: document nested too deeply"
        assert result.failed == {case_id: f"GatewayError: [predict_diagnoses] {error}" for case_id in CASE_IDS}

    def test_baseline_that_is_not_utf8_fails_its_case_alone(self, full_run, tmp_path):
        out_dir, config = full_run
        run_dir = tmp_path / "run"
        shutil.copytree(out_dir, run_dir)
        (run_dir / "case_002" / "baseline.sdc.txt").write_bytes(b"Seen on \xff 2020.\n")
        result, report = _evaluate(run_dir, config)
        assert list(result.failed) == ["case_002"]
        assert result.failed["case_002"].startswith("UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff")
        assert result.succeeded == [c.case_id for c in report.cases] == ["case_001", "case_003"]
        assert runner.safe_load((run_dir / "run_manifest.yaml").read_text(encoding="utf-8"))["stages"]["eval"] == {
            "succeeded": ["case_001", "case_003"],
            "failed": result.failed,
        }

    @pytest.mark.parametrize("jobs,memo_cap", [(2, embedding.MEMO_CAP), (4, 8)])
    def test_pool_writes_the_bytes_of_one_job(self, full_run, monkeypatch, tmp_path, jobs, memo_cap):
        # At jobs 4: more workers than cores, a thread switch every few microseconds,
        # and a memo cleared every few terms, so the tasks race on the shared embedder.
        out_dir, _ = full_run
        files = ("report.yaml", "report.csv", "run_manifest.yaml")
        for run_dir in (tmp_path / "serial", tmp_path / "pool"):
            shutil.copytree(out_dir, run_dir)
        assert runner.run_evaluation(tmp_path / "serial", make_config()).ok
        monkeypatch.setattr(embedding, "MEMO_CAP", memo_cap)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert runner.run_evaluation(tmp_path / "pool", make_config(jobs=jobs)).ok
        finally:
            sys.setswitchinterval(interval)
        for name in files:
            assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes(), name

    def test_no_eval_prompt_names_a_variant(self, full_run, mock_gateway):
        # The model that scores a text must not be told which system wrote it.
        out_dir, config = full_run
        gw = FakeGateway(lambda t, v: mock_gateway.call(t, v, temperature=0.0))
        _evaluate(out_dir, config, gw)
        variants = ["original", *VARIANT_FILES]
        assert {variables.get("variant") for _, variables in gw.calls} == {None, *variants}
        name = re.compile(r"\b(" + "|".join(variants) + r")\b")
        for template_id, variables in gw.calls:
            # The narratives may use these words; every other part of the prompt may not.
            shown = {k: "" if k in TEXT_VARIABLES else v for k, v in variables.items()}
            for _, content in prompts.render(template_id, shown):
                assert not name.search(content), (template_id, content)

    def test_each_distinct_term_is_hashed_once(self, full_run, bucket_calls):
        # At jobs 1: two pool tasks may each hash a term that both miss at once.
        out_dir, config = full_run
        assert config.jobs == 1
        runner.run_evaluation(out_dir, config)
        terms = set()
        for case_id in CASE_IDS:
            for name in ("original.txt", *VARIANT_FILES.values()):
                tokens = tokenize((out_dir / case_id / name).read_text(encoding="utf-8"))
                terms.update(tokens)
                terms.update(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
        assert len(bucket_calls) == len(terms)
        assert set(bucket_calls) == terms


def _cached(tmp_path, **changes):
    return replace(make_config(), cache_dir=str(tmp_path / "cache"), **changes)


def _eval_texts(out_dir) -> list[str]:
    """Every text eval embeds: each case's original and its variants."""
    names = ("original.txt", *VARIANT_FILES.values())
    return [(out_dir / case_id / name).read_text(encoding="utf-8") for case_id in CASE_IDS for name in names]


def _entries(cache_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(cache_dir.iterdir())}


def _embedding_entries(out_dir, identity: str) -> set[str]:
    return {f"{embedding.cache_key(identity, text)}.txt" for text in _eval_texts(out_dir)}


@pytest.fixture()
def run_copy(full_run, tmp_path):
    out_dir, _ = full_run
    shutil.copytree(out_dir, tmp_path / "run")
    return tmp_path / "run"


@pytest.fixture()
def bucket_calls(monkeypatch) -> list[str]:
    """The terms `embedding._bucket` hashes from here on."""
    hashed = []
    bucket = embedding._bucket
    monkeypatch.setattr(embedding, "_bucket", lambda term, dimensions: hashed.append(term) or bucket(term, dimensions))
    return hashed


class TestEmbeddingCache:
    def test_a_warm_eval_reads_every_vector_and_hashes_no_term(self, run_copy, tmp_path, bucket_calls):
        config = _cached(tmp_path)
        assert runner.run_evaluation(run_copy, config).ok
        report = (run_copy / "report.yaml").read_bytes()
        assert bucket_calls
        assert _embedding_entries(run_copy, runner.source_digest()) <= set(_entries(tmp_path / "cache"))
        bucket_calls.clear()
        assert runner.run_evaluation(run_copy, config).ok
        assert bucket_calls == []
        assert (run_copy / "report.yaml").read_bytes() == report

    def test_a_warm_http_eval_sends_no_embedding_request(self, run_copy, tmp_path, http_stub):
        rng = random.Random(3)
        # One distinct dense vector, holding zeros, for each text the first eval asks for.
        http_stub.replies += [
            (200, {"embedding": [rng.choice([0.0, rng.uniform(-1, 1)]) for _ in range(32)]})
            for _ in set(_eval_texts(run_copy))
        ]
        config = _cached(tmp_path, embedder="http", embedding_endpoint=http_stub.url)
        assert runner.run_evaluation(run_copy, config).ok
        asked = len(http_stub.requests)
        assert asked == len(set(_eval_texts(run_copy)))
        report = (run_copy / "report.yaml").read_bytes()
        assert runner.run_evaluation(run_copy, config).ok
        assert len(http_stub.requests) == asked
        assert (run_copy / "report.yaml").read_bytes() == report

    def test_an_entry_of_another_source_digest_is_not_read(self, run_copy, tmp_path, bucket_calls, monkeypatch):
        config = _cached(tmp_path)
        assert runner.run_evaluation(run_copy, config).ok
        report = (run_copy / "report.yaml").read_bytes()
        before = set(_entries(tmp_path / "cache"))
        monkeypatch.setattr(runner, "source_digest", lambda: "an edited package")
        bucket_calls.clear()
        assert runner.run_evaluation(run_copy, config).ok
        assert bucket_calls
        assert set(_entries(tmp_path / "cache")) - before == _embedding_entries(run_copy, "an edited package")
        assert (run_copy / "report.yaml").read_bytes() == report

    def test_an_entry_of_another_embedding_model_is_not_read(self, run_copy, tmp_path, http_stub):
        texts = set(_eval_texts(run_copy))
        http_stub.replies += [(200, {"embedding": [1.0, 0.0]})] * (2 * len(texts))
        config = _cached(tmp_path, embedder="http", embedding_endpoint=http_stub.url)
        assert runner.run_evaluation(run_copy, config).ok
        assert runner.run_evaluation(run_copy, replace(config, embedding_model="another-model")).ok
        assert len(http_stub.requests) == 2 * len(texts)
        assert {body["model"] for _, body in http_stub.requests[len(texts) :]} == {"another-model"}

    def test_without_a_cache_dir_no_entry_is_written(self, run_copy, monkeypatch):
        writes = []
        monkeypatch.setattr(gateway, "cache_write", lambda *args: writes.append(args))
        monkeypatch.setattr(embedding, "cache_write", lambda *args: writes.append(args))
        assert runner.run_evaluation(run_copy, make_config()).ok
        assert writes == []

    def test_an_entry_that_is_not_utf8_is_a_miss_and_is_rewritten(self, run_copy, tmp_path):
        # One chat entry and one embedding entry: each is computed again and overwritten.
        config = _cached(tmp_path)
        assert runner.run_evaluation(run_copy, config).ok
        report = (run_copy / "report.yaml").read_bytes()
        entries = _entries(tmp_path / "cache")
        vectors = _embedding_entries(run_copy, runner.source_digest())
        chat = next(name for name in entries if name not in vectors)
        vector = f"{embedding.cache_key(runner.source_digest(), _eval_texts(run_copy)[0])}.txt"
        for name in (chat, vector):
            (tmp_path / "cache" / name).write_bytes(b"\xff\xfe bad")
        assert runner.run_evaluation(run_copy, config).ok
        assert (run_copy / "report.yaml").read_bytes() == report
        assert _entries(tmp_path / "cache") == entries


def _workflow_twice(corpus, out_dir, config) -> None:
    for _ in range(2):
        assert run_pipeline(corpus, out_dir, config).ok
        for name in runner.BASELINE_NAMES:
            assert run_baseline(name, corpus, out_dir, config).ok
        assert runner.run_evaluation(out_dir, config).ok


def test_a_workflow_run_twice_adds_only_embedding_entries_to_the_cache(tmp_path, monkeypatch):
    # The chat entries are those of a run whose embedder is not cached, as before embeddings joined the cache.
    with monkeypatch.context() as patch:
        build = runner.build_embedder
        patch.setattr(runner, "build_embedder", lambda config: build(replace(config, cache_dir=None)))
        _workflow_twice(CORPUS_DIR, tmp_path / "bare" / "run", _cached(tmp_path / "bare"))
    _workflow_twice(CORPUS_DIR, tmp_path / "cached" / "run", _cached(tmp_path / "cached"))
    chat, entries = _entries(tmp_path / "bare" / "cache"), _entries(tmp_path / "cached" / "cache")
    out_dir = tmp_path / "cached" / "run"
    vectors = _embedding_entries(out_dir, runner.source_digest())
    assert vectors.isdisjoint(chat)
    assert set(entries) == set(chat) | vectors
    assert {name: data for name, data in entries.items() if name in chat} == chat
    for text in _eval_texts(out_dir):
        entry = entries[f"{embedding.cache_key(runner.source_digest(), text)}.txt"].decode("ascii")
        assert embedding.unpack(entry) == embedding.HashedTfEmbedder().embed(text)
    assert (out_dir / "report.yaml").read_bytes() == (tmp_path / "bare" / "run" / "report.yaml").read_bytes()
