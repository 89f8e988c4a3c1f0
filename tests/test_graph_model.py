import random
from dataclasses import MISSING, fields, replace
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonpsy.model import (
    NODE_KINDS,
    TIMED_SECTIONS,
    CaseAttributes,
    Demographics,
    DurationInterval,
    Relation,
    SemanticGraph,
    StebContext,
    SymptomNode,
    node_name,
    validate_graph,
)
from anonpsy.yamlio import GraphParseError, GraphSerializationError, parse_yaml, serialize_yaml

from .helpers import assert_same_typed, minimal_graph, random_valid_graph, shared_containers


class TestValidateGraph:
    def test_well_formed_graph_has_empty_report(self):
        assert validate_graph(minimal_graph()) == []

    def test_reversed_manifests_as_is_illegal_pair(self):
        g = minimal_graph()
        g.relations = [Relation("MANIFESTS_AS", "dx_001", "s_001")]
        codes = [v.code for v in validate_graph(g)]
        assert codes == ["illegal_pair"]

    def test_dangling_duration_reference(self):
        g = minimal_graph()
        g.symptoms[0].duration_ids = ["d_404"]
        codes = [v.code for v in validate_graph(g)]
        assert "dangling_duration" in codes

    def test_duplicate_relation_reported(self):
        g = minimal_graph()
        g.relations = g.relations + [Relation("MANIFESTS_AS", "s_001", "dx_001")]
        assert "duplicate_relation" in [v.code for v in validate_graph(g)]

    def test_missing_test_results_key(self):
        g = minimal_graph()
        del g.attributes.test_results["imaging"]
        assert "missing_test_key" in [v.code for v in validate_graph(g)]

    def test_missing_visit_event(self):
        g = minimal_graph(visit_event=None)
        assert "missing_visit_event" in [v.code for v in validate_graph(g)]

    def test_bad_route_and_span_and_age(self):
        g = minimal_graph()
        g.durations.append(DurationInterval("d_zero", 0, 0))
        g.attributes.demographics.age = -1
        codes = {v.code for v in validate_graph(g)}
        assert {"nonpositive_span", "negative_age"} <= codes


def _list_item_types() -> dict[str, type]:
    """SemanticGraph's list fields, in field order, and the dataclass of their items."""
    hints = get_type_hints(SemanticGraph)
    return {f.name: get_args(hints[f.name])[0] for f in fields(SemanticGraph) if get_origin(hints[f.name]) is list}


class TestNodeKinds:
    def test_node_kinds_name_every_node_section_in_field_order(self):
        # A node is a list item with an id; the duration pool is the one such list that holds no nodes.
        sections = [
            name
            for name, item in _list_item_types().items()
            if name != "durations" and "id" in {f.name for f in fields(item)}
        ]
        assert [section for _kind, section in NODE_KINDS] == sections
        for kind, section in NODE_KINDS:
            item = _list_item_types()[section]
            assert item.__name__ == "".join(word.title() for word in kind.split("_")) + "Node"

    def test_timed_sections_are_the_sections_whose_nodes_carry_durations(self):
        items = _list_item_types()
        timed = [s for _kind, s in NODE_KINDS if "duration_ids" in {f.name for f in fields(items[s])}]
        assert list(TIMED_SECTIONS) == timed

    def test_node_name_covers_every_kind(self):
        for _kind, section in NODE_KINDS:
            item = _list_item_types()[section]
            required = [f.name for f in fields(item) if f.default is MISSING and f.default_factory is MISSING]
            node = item(**{name: name for name in required})
            assert node_name(node) in required and node_name(node) != "id"

    def test_nodes_walk_the_sections_in_table_order(self):
        g = minimal_graph()
        walked = [(kind, section, i, node.id) for kind, section, i, node in g.nodes()]
        assert walked == [
            (kind, section, i, node.id)
            for kind, section in NODE_KINDS
            for i, node in enumerate(getattr(g, section))
        ]

    def test_node_types_resolve_the_visit_and_keep_the_first_duplicate(self):
        g = minimal_graph()
        g.symptoms = g.symptoms + [replace(g.symptoms[0], id="dx_001")]
        types = g.node_types()
        assert types["visit_event"] == "visit_event"
        assert types["dx_001"] == "diagnosis"
        assert g.node_by_id()["dx_001"] is g.diagnoses[0]
        assert "visit_event" not in minimal_graph(visit_event=None).node_types()

    def test_map_timed_applies_in_canonical_order(self):
        g = minimal_graph()
        seen = []
        out = g.map_timed(lambda node: seen.append(node.id) or replace(node, duration_ids=[]))
        assert seen == [node.id for node in g.timed_nodes()]
        assert all(node.duration_ids == [] for node in out.timed_nodes())
        assert out.diagnoses == g.diagnoses and g.symptoms[0].duration_ids


class TestSerializeYaml:
    def test_refuses_invalid_graph_with_report(self):
        g = minimal_graph()
        g.symptoms[0].duration_ids = ["d_404"]
        with pytest.raises(GraphSerializationError) as err:
            serialize_yaml(g)
        assert err.value.violations

    def test_deterministic_bytes(self):
        g = minimal_graph()
        assert serialize_yaml(g) == serialize_yaml(g)

    def test_permuted_but_equal_graphs_emit_identical_bytes(self):
        a = minimal_graph()
        b = minimal_graph()
        # Same mapping built in a different insertion order is still equal.
        b.attributes.test_results = {
            "other": "",
            "mental_status": "",
            "imaging": "",
            "labs": "",
        }
        assert a == b
        assert serialize_yaml(a) == serialize_yaml(b)

    def test_symptom_field_layout_is_canonical(self):
        g = minimal_graph()
        g.symptoms[0] = SymptomNode(
            id="s_003",
            symptom="ideas of reference",
            pattern="continuous",
            current_symptom=True,
            evidence_text="the news announcers began to comment indirectly and critically about him.",
            contexts=[
                StebContext(
                    situation="while watching a late-night news program",
                    thought="the news announcers were commenting indirectly and critically about me.",
                    emotion="anxious",
                    behavior="repeatedly called the television station to complain about the broadcast.",
                )
            ],
            duration_ids=["dvm_048"],
        )
        g.relations = []
        g.durations = [DurationInterval("dvm_048", -30, 35, virtual=True)]
        text = serialize_yaml(g)
        block = text[text.index("symptoms:"):]
        keys = []
        for line in block.splitlines()[1:]:
            stripped = line.strip().lstrip("- ")
            if not line.startswith("    ") and not line.startswith("  -"):
                break
            if ":" in stripped:
                keys.append(stripped.split(":")[0])
        assert keys[:5] == ["id", "symptom", "pattern", "current_symptom", "evidence_text"]
        assert "duration_ids: [dvm_048]" in text
        # STEB fields keep schema order inside the frame.
        frame_keys = [k for k in keys if k in ("situation", "thought", "emotion", "behavior")]
        assert frame_keys == ["situation", "thought", "emotion", "behavior"]


class TestParseYaml:
    def test_round_trip_identity(self):
        g = minimal_graph()
        assert parse_yaml(serialize_yaml(g)) == g

    def test_unknown_key_error_names_path(self):
        text = serialize_yaml(minimal_graph()).replace("symptoms:", "symptomz:")
        with pytest.raises(GraphParseError) as err:
            parse_yaml(text)
        assert "symptomz" in str(err.value)

    def test_negative_span_rejected(self):
        text = serialize_yaml(minimal_graph()).replace("span_days: 15", "span_days: -3")
        with pytest.raises(GraphParseError) as err:
            parse_yaml(text)
        assert "span_days" in str(err.value)

    def test_type_mismatch_names_path(self):
        text = serialize_yaml(minimal_graph()).replace("age: 30", "age: thirty")
        with pytest.raises(GraphParseError) as err:
            parse_yaml(text)
        assert "demographics.age" in str(err.value)

    @pytest.mark.parametrize(
        "old, new, path, message",
        [
            ("        emotion: sad\n", "        emotion: sad\n        mood: low\n",
             "symptoms[0].contexts[0].mood", "unknown key"),
            ("durations:\n", "durations_:\n", "$.durations_", "unknown key"),
            ("  setting: outpatient clinic\n", "", "visit_event.setting", "missing required key"),
            ("  labs: \"\"\n", "", "test_results.labs", "missing required key"),
            ("age: 30", "age: true", "demographics.age", "expected integer, got bool"),
            ("sex: female", "sex: 7", "demographics.sex", "expected string, got int"),
            ("current_symptom: true", "current_symptom: 1",
             "symptoms[0].current_symptom", "expected boolean, got int"),
            ("virtual: false\n", "virtual: false\n    age_anchored: null\n",
             "durations[0].age_anchored", "expected boolean, got NoneType"),
            ("duration_ids: [d_001]", "duration_ids: [1]",
             "symptoms[0].duration_ids[0]", "expected string, got int"),
            ("  - id: dx_001\n    label: major depressive disorder\n", "  - dx_001\n",
             "diagnoses[0]", "expected mapping, got str"),
            ("treatments: []", "treatments: none", "treatments", "expected list, got str"),
            ("safety_flags: []", "safety_flags: {}", "visit_event.safety_flags", "expected list, got dict"),
            ("span_days: 15", "span_days: -3", "durations[0].span_days", "span_days < 0"),
        ],
    )
    def test_single_fault_error_path_and_message(self, old, new, path, message):
        text = serialize_yaml(minimal_graph())
        assert old in text
        with pytest.raises(GraphParseError) as err:
            parse_yaml(text.replace(old, new, 1))
        assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")

    def test_missing_top_level_section(self):
        text = serialize_yaml(minimal_graph())
        with pytest.raises(GraphParseError) as err:
            parse_yaml(text[: text.index("durations:")])
        assert (err.value.path, str(err.value)) == ("$.durations", "$.durations: missing required key")

    @pytest.mark.parametrize(
        "old, new",
        [
            ("  source_of_information: patient\n", "  source_of_information: patient\n  pathway: null\n"),
            ("        emotion: sad\n", "        emotion: sad\n        thought: ~\n"),
        ],
    )
    def test_null_optional_string_parses_to_none(self, old, new):
        text = serialize_yaml(minimal_graph())
        assert old in text
        assert parse_yaml(text.replace(old, new, 1)) == minimal_graph()

    def test_round_trip_random_graphs(self):
        rng = random.Random(991)
        for _ in range(60):
            g = random_valid_graph(rng)
            text = serialize_yaml(g)
            assert parse_yaml(text) == g
            assert serialize_yaml(parse_yaml(text)) == text


    def test_round_trip_is_type_strict(self):
        # The stage engine hands a graph to the next stage in memory where the
        # staged commands parse it back: the two must not differ, not even as
        # True vs 1 or 1 vs 1.0.
        rng = random.Random(992)
        for _ in range(60):
            g = random_valid_graph(rng)
            parsed = parse_yaml(serialize_yaml(g))
            assert_same_typed(parsed, g)
            assert shared_containers(parsed) == []

@settings(max_examples=150)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
def test_scalar_strings_survive_round_trip(value):
    g = minimal_graph(
        attributes=CaseAttributes(
            demographics=Demographics(age=1, sex="female", ethnicity=value, occupation="", family_structure=""),
            family_history=[],
            test_results={"labs": value, "imaging": "", "mental_status": "", "other": ""},
        )
    )
    parsed = parse_yaml(serialize_yaml(g))
    assert parsed.attributes.test_results["labs"] == value
    assert parsed.attributes.demographics.ethnicity == value
