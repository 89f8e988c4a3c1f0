import random
import re

import pytest

from anonpsy.baselines import llm_only, phi_mask, sdc_rewrite
from anonpsy.gateway import LlmGateway, MockBackend

from .helpers import FakeGateway, SpyBackend
from .synthesis import CASE_001


class TestPhiMaskRules:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("seen on 2019-05-04 for follow-up", "seen on [DATE] for follow-up"),
            ("called from (555) 867-5309 twice", "called from [PHONE] twice"),
            ("a 92-year-old retired farmer", "a [AGE]-year-old retired farmer"),
            ("SSN 123-45-6789 on file", "SSN [ID] on file"),
            ("lives at 14 Birch Street with family", "lives at [LOC] with family"),
            ("reached at what.ever@example.org", "reached at [CONTACT]"),
            ("admitted on March 3, 2021 briefly", "admitted on [DATE] briefly"),
            ("MRN: 00482913", "[ID]"),
        ],
    )
    def test_typed_placeholders(self, text, expected):
        assert phi_mask(text) == expected

    def test_text_without_phi_is_unchanged(self):
        text = "A 45-year-old teacher described two weeks of poor sleep."
        assert phi_mask(text) == text

    def test_age_89_and_under_kept(self):
        assert phi_mask("an 89-year-old widower") == "an 89-year-old widower"

    def test_bytes_outside_spans_untouched(self):
        rng = random.Random(77)
        words = ["sleep", "mood", "clinic", "review", "2020-01-02", "719-555-0100"]
        for _ in range(40):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(3, 30)))
            masked = phi_mask(text)
            # Strip placeholders from both sides; the residue must match.
            pattern = re.compile(r"\[(?:DATE|PHONE|ID|AGE|LOC|ORG|NAME|CONTACT)\]")
            residue_masked = pattern.split(masked)
            cursor = 0
            for piece in residue_masked:
                idx = text.find(piece, cursor)
                assert idx >= 0, f"masking altered non-PHI bytes: {piece!r}"
                cursor = idx + len(piece)

    def test_ner_backend_spans_masked(self):
        text = "Seen with daughter Maria in Springfield."
        spans = [(19, 24, "PERSON"), (28, 39, "GPE")]
        assert phi_mask(text, ner_backend=lambda _t: spans) == "Seen with daughter [NAME] in [LOC]."


class TestSdcRewrite:
    def test_mock_fixture_returned_verbatim(self, fixtures_dir, run_config):
        gw = LlmGateway(MockBackend(fixtures_dir), model=run_config.model)
        first = sdc_rewrite(CASE_001, gw)
        second = sdc_rewrite(CASE_001, gw)
        assert first == second
        assert first  # nonempty

    def test_empty_input_rejected(self):
        gw = FakeGateway(lambda t, v: "whatever")
        with pytest.raises(ValueError):
            sdc_rewrite("   ", gw)

    def test_temperature_comes_from_config(self):
        captured = {}

        class Spy(FakeGateway):
            def call(self, template_id, variables, temperature=None):
                captured["temperature"] = temperature
                return "rewritten"

        sdc_rewrite("text", Spy(lambda t, v: "rewritten"), temperature=0.55)
        assert captured["temperature"] == 0.55


class TestLlmOnly:
    def test_two_stage_flow_and_temperatures(self):
        backend = SpyBackend(lambda req: "stage draft" if req.template_id == "llm_only_rewrite" else "final text")
        result = llm_only("case body", LlmGateway(backend, model="m"))
        assert result == "final text"
        seen = [(req.template_id, req.temperature) for req in backend.requests]
        assert seen == [("llm_only_rewrite", 0.2), ("llm_only_critique", 0.0)]

    def test_critique_may_return_draft_unchanged(self):
        def handler(template_id, variables):
            if template_id == "llm_only_rewrite":
                return "the rewritten draft"
            assert "the rewritten draft" in variables["draft_text"]
            return variables["draft_text"]

        assert llm_only("case body", FakeGateway(handler)) == "the rewritten draft"

    def test_mock_fixture_round_trip(self, fixtures_dir, run_config):
        gw = LlmGateway(MockBackend(fixtures_dir), model=run_config.model)
        out = llm_only(CASE_001, gw)
        assert "34-year-old bookkeeper" in out  # stage-1 demographic swap survived critique
