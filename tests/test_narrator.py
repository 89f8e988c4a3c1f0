import random
from dataclasses import replace

import pytest

from anonpsy.model import (
    DiagnosisNode,
    DurationInterval,
    FamilyHistoryEntry,
    PastHistoryNode,
    Relation,
    StebContext,
    SymptomNode,
    TreatmentNode,
)
from anonpsy.narrator import (
    NarrationError,
    append_tail,
    choose_lexicon,
    find_identifier_violation,
    generate,
    narrate_history,
    narrate_lead,
    plan_outline,
    strip_meta_text,
    time_phrase,
)
from anonpsy.yamlio import parse_yaml

from .conftest import golden_text
from .helpers import FakeGateway, minimal_graph, random_narration_graph


class TestTimePhrase:
    @pytest.mark.parametrize(
        "offset,lexicon,expected",
        [
            (-14, "admission", "two weeks before admission"),
            (1, "admission", "the day after admission"),
            (-365, "generic", "one year earlier"),
            (0, "admission", "on the day of admission"),
            (0, "generic", "at the time of evaluation"),
            (-1, "admission", "the day before admission"),
            (-13, "generic", "13 days earlier"),
            (-59, "admission", "eight weeks before admission"),
            (-60, "generic", "two months earlier"),
            (-330, "generic", "eleven months earlier"),
            (-730, "admission", "two years before admission"),
            (-3650, "generic", "ten years earlier"),
            (45, "generic", "six weeks later"),
        ],
    )
    def test_granularity_table(self, offset, lexicon, expected):
        assert time_phrase(offset, lexicon) == expected

    def test_unknown_lexicon_rejected(self):
        with pytest.raises(ValueError):
            time_phrase(0, "nautical")


class TestChooseLexicon:
    def test_inpatient_setting_uses_admission(self):
        g = minimal_graph()
        g.visit_event.setting = "inpatient psychiatric unit"
        assert choose_lexicon(g) == "admission"

    def test_outpatient_setting_uses_generic(self):
        assert choose_lexicon(minimal_graph()) == "generic"

    def test_empty_setting_defaults_generic(self):
        g = minimal_graph()
        g.visit_event.setting = ""
        assert choose_lexicon(g) == "generic"


class TestPlanOutline:
    def test_matches_golden_outline(self):
        g = parse_yaml(golden_text("case_001.graph.perturbed.yaml"))
        assert plan_outline(g).to_yaml() == golden_text("case_001.outline.yaml")

    def test_co_regimen_merges_into_one_entry(self):
        g = minimal_graph()
        g.treatments = [
            TreatmentNode(id="t_001", treatment_type="medication", name="sertraline", duration_ids=["d_001"]),
            TreatmentNode(id="t_002", treatment_type="medication", name="bupropion", duration_ids=["d_001"]),
        ]
        g.relations = g.relations + [
            Relation("TREATMENT_OF", "t_001", "dx_001"),
            Relation("TREATMENT_OF", "t_002", "dx_001"),
        ]
        outline = plan_outline(g)
        blocks = [b for b in outline.blocks if b.treatment_ids]
        assert len(blocks) == 1
        assert blocks[0].treatment_ids == ["t_001", "t_002"]

    def test_unlinked_past_history_goes_to_tail_only(self):
        g = minimal_graph()
        g.past_history = [PastHistoryNode(id="ph_001", condition="asthma")]
        outline = plan_outline(g)
        assert [p.node_id for p in outline.prepass] == []
        assert outline.tail.past_history_ids == ["ph_001"]

    def test_treated_past_history_enters_prepass(self):
        g = minimal_graph()
        g.past_history = [PastHistoryNode(id="ph_001", condition="asthma", duration_ids=["d_001"])]
        g.treatments = [TreatmentNode(id="t_001", treatment_type="medication", name="inhaler", duration_ids=["d_001"])]
        g.relations = g.relations + [Relation("TREATMENT_OF", "t_001", "ph_001")]
        outline = plan_outline(g)
        assert [p.node_id for p in outline.prepass] == ["ph_001"]
        assert outline.prepass[0].treatment_ids == ["t_001"]
        assert outline.tail.past_history_ids == []

    def test_induced_cluster_anchored_to_same_duration(self):
        g = minimal_graph()
        g.diagnoses = [
            DiagnosisNode("dx_001", "major depressive disorder"),
            DiagnosisNode("dx_002", "steroid-induced psychosis"),
        ]
        g.durations = [DurationInterval("d_001", -14, 15)]
        g.symptoms = [
            replace(g.symptoms[0], id="s_001", duration_ids=["d_001"]),
            SymptomNode(
                id="s_002", symptom="paranoia", pattern="acute", current_symptom=True,
                evidence_text="grew suspicious", duration_ids=["d_001"],
                contexts=[StebContext(emotion="fearful")],
            ),
        ]
        g.treatments = [TreatmentNode(id="t_001", treatment_type="corticosteroid", name="prednisone", duration_ids=["d_001"])]
        g.relations = [
            Relation("MANIFESTS_AS", "s_001", "dx_001"),
            Relation("MANIFESTS_AS", "s_002", "dx_002"),
            Relation("TREATMENT_OF", "t_001", "dx_001"),
            Relation("INDUCES", "t_001", "dx_002"),
        ]
        outline = plan_outline(g)
        clusters = [c for b in outline.blocks for c in b.induced]
        assert len(clusters) == 1
        assert clusters[0].source_id == "t_001"
        assert clusters[0].diagnosis_id == "dx_002"
        assert clusters[0].symptom_ids == ["s_002"]
        # The clustered symptom is not narrated again as its own block entry.
        block_symptoms = [s for b in outline.blocks for s in b.symptom_ids]
        assert block_symptoms.count("s_002") == 0

    def test_coverage_and_ordering_on_random_graphs(self):
        rng = random.Random(2026)
        for _ in range(60):
            g = random_narration_graph(rng)
            outline = plan_outline(g)
            seen: list[str] = []
            for entry in outline.prepass:
                seen.extend(entry.treatment_ids)
            for block in outline.blocks:
                seen.extend(block.symptom_ids)
                seen.extend(block.treatment_ids)
                for cluster in block.induced:
                    seen.extend(cluster.symptom_ids)
                    seen.extend(cluster.treatment_ids)
            expected = [n.id for n in (*g.symptoms, *g.treatments)]
            assert sorted(seen) == sorted(expected)
            assert len(seen) == len(set(seen))
            starts = [b.start_days for b in outline.blocks]
            assert starts == sorted(starts)
            prepass_ids = {p.node_id for p in outline.prepass}
            assert prepass_ids.isdisjoint(set(outline.tail.past_history_ids))
            assert prepass_ids | set(outline.tail.past_history_ids) == {p.id for p in g.past_history}


GOOD_LEAD = (
    "A 30-year-old female presented to the outpatient clinic with several weeks of low mood. "
    "The referral followed a routine visit. The account came from the patient."
)


class TestNarrateLead:
    def test_clean_lead_accepted_verbatim(self):
        outline = plan_outline(minimal_graph())
        gw = FakeGateway(lambda t, v: GOOD_LEAD)
        assert narrate_lead(outline, gw) == GOOD_LEAD

    def test_overlong_lead_rejected_then_retried(self):
        outline = plan_outline(minimal_graph())
        seven = " ".join(f"Sentence number {i} was written here." for i in range(7))
        gw = FakeGateway(lambda t, v: seven if v.get("attempt") is None else GOOD_LEAD)
        assert narrate_lead(outline, gw) == GOOD_LEAD
        assert len(gw.calls) == 2

    def test_personal_name_rejected(self):
        outline = plan_outline(minimal_graph())
        named = GOOD_LEAD.replace("The account came from the patient.", "Mr. Alvarez provided the history.")
        gw = FakeGateway(lambda t, v: named)
        with pytest.raises(NarrationError):
            narrate_lead(outline, gw)

    def test_first_person_rejected(self):
        outline = plan_outline(minimal_graph())
        gw = FakeGateway(lambda t, v: "I reviewed the chart today. The visit went well.")
        with pytest.raises(NarrationError):
            narrate_lead(outline, gw)

    def test_meta_text_stripped(self):
        assert strip_meta_text('Assistant: here\n"A clean paragraph."') == "A clean paragraph."

    def test_identifier_detector_flags_capitalized_bigrams(self):
        assert find_identifier_violation("He went to Riverside Gardens daily.")
        assert find_identifier_violation("The Mental Status examination was intact.") is None


class TestNarrateHistory:
    def test_empty_blocks_give_empty_history(self):
        g = minimal_graph(symptoms=[], relations=[], durations=[])
        outline = plan_outline(g)
        gw = FakeGateway(lambda t, v: "unused")
        assert narrate_history(outline, gw) == ""

    def test_ledger_prevents_double_narration(self):
        g = minimal_graph()
        g.past_history = [PastHistoryNode(id="ph_001", condition="asthma", duration_ids=["d_001"])]
        g.treatments = [TreatmentNode(id="t_001", treatment_type="medication", name="inhaler", duration_ids=["d_001"])]
        g.relations = g.relations + [Relation("TREATMENT_OF", "t_001", "ph_001")]
        outline = plan_outline(g)
        # Force a duplicate outline location for the same treatment.
        outline.blocks[0].treatment_ids = ["t_001"]
        gw = FakeGateway(lambda t, v: f"One sentence about {v['symptom']}.")
        text = narrate_history(outline, gw)
        assert text.count("inhaler") == 1

    def test_sentence_gate_falls_back_to_deterministic(self):
        g = minimal_graph()
        gw = FakeGateway(lambda t, v: "Two sentences here. Definitely two.")
        text = narrate_history(plan_outline(g), gw)
        assert "the patient experienced low mood" in text

    def test_symptom_sentence_used_verbatim_when_clean(self):
        g = minimal_graph()
        gw = FakeGateway(lambda t, v: "Two weeks earlier, the patient experienced low mood at home.")
        text = narrate_history(plan_outline(g), gw)
        assert "Two weeks earlier, the patient experienced low mood at home." in text


class TestAppendTail:
    def _outline(self):
        g = minimal_graph()
        g.past_history = [PastHistoryNode(id="ph_001", condition="asthma")]
        g.attributes.family_history = [FamilyHistoryEntry("mother", "depression")]
        g.attributes.test_results["labs"] = "glucose 90 mg/dL"
        return plan_outline(g)

    def test_nothing_to_append_returns_draft(self):
        g = minimal_graph()
        g.attributes.test_results = {k: "" for k in g.attributes.test_results}
        outline = plan_outline(g)
        gw = FakeGateway(lambda t, v: (_ for _ in ()).throw(AssertionError("no call expected")))
        assert append_tail("Draft text.", outline, gw) == "Draft text."

    def test_prefix_modification_rejected(self):
        outline = self._outline()
        gw = FakeGateway(lambda t, v: "Rewritten draft. Plus a tail sentence.")
        result = append_tail("Original draft.", outline, gw)
        # Falls back to the deterministic tail, draft prefix intact.
        assert result.startswith("Original draft.")
        assert "asthma" in result

    def test_clean_tail_accepted(self):
        outline = self._outline()
        gw = FakeGateway(
            lambda t, v: v["draft"] + "\n\nHistory included asthma. Family history included depression. Labs showed glucose 90 mg/dL."
        )
        result = append_tail("Original draft.", outline, gw)
        assert result.startswith("Original draft.")
        assert result.endswith("Labs showed glucose 90 mg/dL.")


class TestGenerate:
    @pytest.mark.parametrize("case_id", ["case_001", "case_002", "case_003"])
    def test_matches_golden_narrative(self, case_id, mock_gateway):
        g = parse_yaml(golden_text(f"{case_id}.graph.perturbed.yaml"))
        narrative = generate(plan_outline(g), mock_gateway, case_id=case_id)
        assert narrative.text == golden_text(f"{case_id}.deid.txt")

    def test_generate_twice_identical(self, mock_gateway):
        g = parse_yaml(golden_text("case_001.graph.perturbed.yaml"))
        a = generate(plan_outline(g), mock_gateway, case_id="case_001")
        b = generate(plan_outline(g), mock_gateway, case_id="case_001")
        assert a.text == b.text

    def test_degenerate_graph_is_lead_plus_tail(self):
        g = minimal_graph(symptoms=[], relations=[], durations=[])
        g.attributes.family_history = [FamilyHistoryEntry("father", "hypertension")]

        def handler(template_id, variables):
            if template_id == "lead_paragraph":
                return GOOD_LEAD
            if template_id == "tail_append":
                return variables["draft"] + "\n\nFamily history included hypertension in the father."
            raise AssertionError(f"unexpected template {template_id}")

        narrative = generate(plan_outline(g), FakeGateway(handler))
        assert narrative.text.startswith(GOOD_LEAD)
        assert narrative.text.endswith("Family history included hypertension in the father.")
