import yaml

import pytest

from anonpsy.converter import (
    INTERMEDIATES,
    CaseNarrative,
    ConversionError,
    canonicalize_temporal,
    convert,
    extract_entities,
    extract_episodes,
)
from anonpsy.model import validate_graph
from anonpsy.yamlio import serialize_yaml

from .conftest import golden_text
from .helpers import FakeGateway
from .synthesis import GOLD_DIAGNOSES


def _load_cases(corpus_dir):
    doc = yaml.safe_load((corpus_dir / "manifest.yaml").read_text())
    cases = []
    for entry in doc["cases"]:
        cases.append(
            CaseNarrative(
                case_id=entry["case_id"],
                text=(corpus_dir / entry["file"]).read_text(),
                ground_truth_diagnoses=entry["diagnoses"],
            )
        )
    return cases


class TestExtractEntities:
    def _narrative(self):
        return CaseNarrative(
            case_id="unit",
            text=(
                "She felt persistently on edge at work. A melatonin gummy was "
                "suggested at the visit. She was seen in the clinic walk-in slot."
            ),
            ground_truth_diagnoses=["generalized anxiety disorder"],
        )

    def _response(self, **overrides):
        doc = {
            "demographics": {"age": 28, "sex": "female", "ethnicity": "", "occupation": "teacher", "family_structure": ""},
            "family_history": [],
            "test_results": {"labs": "", "imaging": "", "mental_status": "", "other": ""},
            "symptoms": [
                {
                    "symptom": "anxiety",
                    "pattern": "continuous",
                    "current_symptom": True,
                    "evidence_text": "persistently on edge at work",
                    "diagnosis": "generalized anxiety disorder",
                    "contexts": [{"situation": "at work", "emotion": "on edge"}],
                }
            ],
            "treatments": [
                {"treatment_type": "medication", "name": "melatonin", "route": "oral", "target": "anxiety"}
            ],
            "visit_events": [
                {
                    "setting": "outpatient clinic",
                    "arrival_mode": "walk-in",
                    "legal_status": "voluntary",
                    "reason_for_visit": "anxiety",
                    "safety_flags": [],
                    "source_of_information": "patient",
                    "visit_episode": "Seen in the walk-in slot.",
                }
            ],
            "past_history": [],
        }
        doc.update(overrides)
        return yaml.safe_dump(doc)

    def test_fixture_inventory_extracted(self):
        gw = FakeGateway(lambda t, v: self._response())
        draft = extract_entities(self._narrative(), gw)
        g = draft.graph
        assert [d.label for d in g.diagnoses] == ["generalized anxiety disorder"]
        assert [s.symptom for s in g.symptoms] == ["anxiety"]
        assert ("MANIFESTS_AS", "s_001", "dx_001") in {r.triple() for r in g.relations}
        assert ("TREATMENT_OF", "t_001", "s_001") in {r.triple() for r in g.relations}

    def test_bad_route_dropped_with_warning(self):
        response = self._response(
            treatments=[{"treatment_type": "medication", "name": "melatonin", "route": "sublingual-ish"}]
        )
        gw = FakeGateway(lambda t, v: response)
        draft = extract_entities(self._narrative(), gw)
        assert draft.graph.treatments[0].route is None
        assert any("sublingual-ish" in w for w in draft.warnings)

    def test_second_visit_event_rejected(self):
        visit = {
            "setting": "outpatient clinic",
            "arrival_mode": "walk-in",
            "legal_status": "voluntary",
            "reason_for_visit": "anxiety",
            "safety_flags": [],
            "source_of_information": "patient",
            "visit_episode": "Seen in the walk-in slot.",
        }
        second = dict(visit, setting="emergency department")
        gw = FakeGateway(lambda t, v: self._response(visit_events=[visit, second]))
        draft = extract_entities(self._narrative(), gw)
        assert draft.graph.visit_event.setting == "outpatient clinic"
        assert any("already has a visit event" in w for w in draft.warnings)

    def test_fabricated_evidence_drops_symptom(self):
        response = self._response(
            symptoms=[
                {
                    "symptom": "anxiety",
                    "pattern": "continuous",
                    "current_symptom": True,
                    "evidence_text": "a phrase that is not in the narrative",
                    "contexts": [{"emotion": "on edge"}],
                }
            ]
        )
        gw = FakeGateway(lambda t, v: response)
        draft = extract_entities(self._narrative(), gw)
        assert draft.graph.symptoms == []
        assert any("evidence_text" in w for w in draft.warnings)

    @pytest.mark.parametrize(
        ("key", "value", "warnings"),
        [
            (
                "demographics",
                "thirty",
                ["demographics dropped: expected dict, got str", "demographics.age invalid (None); defaulting to 0"],
            ),
            ("test_results", ["labs"], ["test_results dropped: expected dict, got list"]),
            ("family_history", 5, ["family_history dropped: expected list, got int"]),
            (
                "symptoms",
                "low mood",
                ["symptoms dropped: expected list, got str", "treatment t_001 target 'anxiety' dropped: no matching node"],
            ),
        ],
        ids=["demographics-str", "test_results-list", "family_history-int", "symptoms-str"],
    )
    def test_a_section_of_the_wrong_shape_is_dropped_with_one_warning(self, key, value, warnings):
        gw = FakeGateway(lambda t, v: self._response(**{key: value}))
        draft = extract_entities(self._narrative(), gw)
        assert draft.warnings == warnings
        attributes = draft.graph.attributes
        assert attributes.demographics.sex == ("" if key == "demographics" else "female")
        assert attributes.family_history == []
        assert attributes.test_results == dict.fromkeys(("labs", "imaging", "mental_status", "other"), "")
        assert len(draft.graph.symptoms) == (0 if key == "symptoms" else 1)

    def test_contexts_of_the_wrong_shape_are_dropped_with_one_warning(self):
        symptom = {"symptom": "anxiety", "evidence_text": "persistently on edge at work", "contexts": "at work"}
        gw = FakeGateway(lambda t, v: self._response(symptoms=[symptom]))
        draft = extract_entities(self._narrative(), gw)
        assert draft.warnings == ["symptoms[0].contexts dropped: expected list, got str"]
        assert draft.graph.symptoms[0].contexts == []

    def test_string_safety_flags_are_not_read_as_characters(self):
        visit = {"setting": "outpatient clinic", "reason_for_visit": "anxiety", "safety_flags": "suicidal ideation"}
        gw = FakeGateway(lambda t, v: self._response(visit_events=[visit]))
        assert extract_entities(self._narrative(), gw).graph.visit_event.safety_flags == []

    def test_unparseable_response_raises_after_retries(self):
        gw = FakeGateway(lambda t, v: ":: not yaml ::")
        with pytest.raises(ConversionError, match="unparseable"):
            extract_entities(self._narrative(), gw)


class TestExtractEpisodes:
    def test_unknown_unit_rejected_and_default_assigned(self):
        narrative = CaseNarrative(case_id="unit", text="Anxious for two weeks now.", ground_truth_diagnoses=[])

        def handler(template_id, variables):
            if template_id == "extract_entities":
                return yaml.safe_dump(
                    {
                        "demographics": {"age": 30, "sex": "male"},
                        "test_results": {"labs": "", "imaging": "", "mental_status": "", "other": ""},
                        "symptoms": [
                            {
                                "symptom": "anxiety",
                                "pattern": "continuous",
                                "current_symptom": True,
                                "evidence_text": "Anxious for two weeks",
                                "contexts": [{"emotion": "anxious"}],
                            }
                        ],
                        "visit_events": [
                            {
                                "setting": "clinic",
                                "arrival_mode": "walk-in",
                                "legal_status": "voluntary",
                                "reason_for_visit": "anxiety",
                                "safety_flags": [],
                                "source_of_information": "patient",
                                "visit_episode": "walked in",
                            }
                        ],
                    }
                )
            return yaml.safe_dump(
                {"episodes": [{"node_id": "s_001", "offset": -1, "span": 1, "unit": "fortnight"}]}
            )

        gw = FakeGateway(handler)
        draft = extract_entities(narrative, gw)
        draft = extract_episodes(narrative, draft, gw)
        assert any("fortnight" in w for w in draft.warnings)
        episodes = draft.episodes["s_001"]
        assert len(episodes) == 1 and episodes[0].ongoing and episodes[0].inferred
        assert any("default ongoing episode" in w for w in draft.warnings)

    def test_before_admission_phrase_maps_to_week_episode(self, corpus_dir, mock_gateway):
        cases = {c.case_id: c for c in _load_cases(corpus_dir)}
        draft = extract_entities(cases["case_002"], mock_gateway)
        draft = extract_episodes(cases["case_002"], draft, mock_gateway)
        food_refusal = draft.episodes["s_002"]
        assert (food_refusal[0].offset, food_refusal[0].span, food_refusal[0].unit) == (-2, 2, "week")
        g, _warnings = canonicalize_temporal(draft)
        pool = g.durations_by_id()
        node = next(s for s in g.symptoms if s.symptom == "food refusal")
        interval = pool[node.duration_ids[0]]
        assert (interval.offset_days, interval.end_days) == (-14, 0)
        assert node.current_symptom is False  # half-open: [-14, 0) misses day 0


class TestConvert:
    def test_fixture_corpus_matches_golden_graphs(self, corpus_dir, mock_gateway):
        for case in _load_cases(corpus_dir):
            graph, _ = convert(case, mock_gateway)
            assert validate_graph(graph) == []
            assert serialize_yaml(graph) == golden_text(f"{case.case_id}.graph.yaml")

    def test_convert_twice_is_byte_identical(self, corpus_dir, mock_gateway):
        case = _load_cases(corpus_dir)[0]
        first = serialize_yaml(convert(case, mock_gateway)[0])
        second = serialize_yaml(convert(case, mock_gateway)[0])
        assert first == second

    def test_zero_symptom_narrative_yields_valid_graph(self):
        narrative = CaseNarrative(case_id="unit", text="Routine follow-up, no complaints.", ground_truth_diagnoses=[])

        def handler(template_id, variables):
            if template_id == "extract_entities":
                return yaml.safe_dump(
                    {
                        "demographics": {"age": 50, "sex": "female"},
                        "test_results": {"labs": "", "imaging": "", "mental_status": "", "other": ""},
                        "symptoms": [],
                        "visit_events": [
                            {
                                "setting": "outpatient clinic",
                                "arrival_mode": "walk-in",
                                "legal_status": "voluntary",
                                "reason_for_visit": "follow-up",
                                "safety_flags": [],
                                "source_of_information": "patient",
                                "visit_episode": "Routine follow-up.",
                            }
                        ],
                    }
                )
            if template_id == "extract_episodes":
                return yaml.safe_dump({"episodes": []})
            return yaml.safe_dump({"edges": []})

        graph, _ = convert(narrative, FakeGateway(handler))
        assert validate_graph(graph) == []
        assert graph.symptoms == []
        assert not [r for r in graph.relations if r.relation_type == "PRESENTS_WITH"]

    def test_intermediates_match_golden(self, corpus_dir, mock_gateway):
        for case in _load_cases(corpus_dir):
            _, intermediates = convert(case, mock_gateway)
            assert intermediates == tuple(golden_text(f"{case.case_id}.{name}") for name in INTERMEDIATES)

    def test_etiology_and_causal_edges_in_case_002(self, corpus_dir, mock_gateway):
        cases = {c.case_id: c for c in _load_cases(corpus_dir)}
        graph, _ = convert(cases["case_002"], mock_gateway)
        triples = {r.triple() for r in graph.relations}
        assert ("INDUCES", "ph_001", "dx_002") in triples  # label morphology
        assert ("INDUCES", "ph_001", "dx_001") in triples  # evidence-backed causal pass

    def test_gold_diagnoses_become_nodes(self, corpus_dir, mock_gateway):
        cases = {c.case_id: c for c in _load_cases(corpus_dir)}
        graph, _ = convert(cases["case_003"], mock_gateway)
        assert [d.label for d in graph.diagnoses] == GOLD_DIAGNOSES["case_003"]


class TestNarrativeOrderValidation:
    def test_inverted_inferred_offsets_flagged(self):
        text = "First he stopped eating. Later he stopped sleeping entirely."
        narrative = CaseNarrative(case_id="unit", text=text, ground_truth_diagnoses=[])

        def handler(template_id, variables):
            if template_id == "extract_entities":
                return yaml.safe_dump(
                    {
                        "demographics": {"age": 30, "sex": "male"},
                        "test_results": {"labs": "", "imaging": "", "mental_status": "", "other": ""},
                        "symptoms": [
                            {
                                "symptom": "appetite loss",
                                "pattern": "episodic",
                                "current_symptom": True,
                                "evidence_text": "stopped eating",
                                "contexts": [{"behavior": "stopped eating"}],
                            },
                            {
                                "symptom": "insomnia",
                                "pattern": "episodic",
                                "current_symptom": True,
                                "evidence_text": "stopped sleeping entirely",
                                "contexts": [{"behavior": "stopped sleeping"}],
                            },
                        ],
                        "visit_events": [
                            {
                                "setting": "clinic",
                                "arrival_mode": "walk-in",
                                "legal_status": "voluntary",
                                "reason_for_visit": "decline",
                                "safety_flags": [],
                                "source_of_information": "patient",
                                "visit_episode": "seen in clinic",
                            }
                        ],
                    }
                )
            # Inferred offsets contradict narrative order: the later-mentioned
            # symptom is dated earlier.
            return yaml.safe_dump(
                {
                    "episodes": [
                        {"node_id": "s_001", "offset": -1, "unit": "week", "ongoing": True},
                        {"node_id": "s_002", "offset": -8, "unit": "week", "ongoing": True},
                    ]
                }
            )

        gw = FakeGateway(handler)
        draft = extract_entities(narrative, gw)
        draft = extract_episodes(narrative, draft, gw)
        assert any("invert narrative order" in w for w in draft.warnings)


class TestConverterInvariants:
    def test_output_graphs_are_temporal_fixed_points(self, corpus_dir, mock_gateway):
        from anonpsy.temporal import (
            dedup_durations,
            reconcile_node_intervals,
            split_multi_episode_symptoms,
        )

        for case in _load_cases(corpus_dir):
            graph, _ = convert(case, mock_gateway)
            assert dedup_durations(graph) == graph
            assert reconcile_node_intervals(graph) == graph
            assert split_multi_episode_symptoms(graph) == graph
            assert all(len(s.duration_ids) == 1 for s in graph.symptoms)

    def test_symptom_evidence_occurs_in_source_narrative(self, corpus_dir, mock_gateway):
        from anonpsy.textproc import contains_normalized

        for case in _load_cases(corpus_dir):
            graph, _ = convert(case, mock_gateway)
            for symptom in graph.symptoms:
                assert contains_normalized(case.text, symptom.evidence_text)

    def test_currency_flags_match_day0_coverage(self, corpus_dir, mock_gateway):
        for case in _load_cases(corpus_dir):
            graph, _ = convert(case, mock_gateway)
            pool = graph.durations_by_id()
            for symptom in graph.symptoms:
                covered = any(pool[i].covers_day0() for i in symptom.duration_ids)
                assert symptom.current_symptom == covered
            presented = {
                r.target_id for r in graph.relations if r.relation_type == "PRESENTS_WITH"
            }
            assert presented == {s.id for s in graph.symptoms if s.current_symptom}
