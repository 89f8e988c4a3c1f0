from dataclasses import replace

from anonpsy.model import (
    DiagnosisNode,
    DurationInterval,
    PastHistoryNode,
    Relation,
    TreatmentNode,
)
from anonpsy.relations import (
    add_causal_edges_llm,
    build_presents_with,
    check_consistency,
    link_etiology,
    parse_etiologic_label,
)

from .helpers import FakeGateway, minimal_graph


class TestPresentsWith:
    def test_edge_only_for_day0_covering_symptoms(self):
        g = minimal_graph()
        g.durations = [DurationInterval("d_a", -3, 7), DurationInterval("d_b", -5, 5)]
        s1 = replace(g.symptoms[0], id="s_001", duration_ids=["d_a"])
        s2 = replace(g.symptoms[0], id="s_002", duration_ids=["d_b"], contexts=[])
        g.symptoms = [s1, s2]
        g.relations = []
        out = build_presents_with(g)
        targets = [r.target_id for r in out.relations if r.relation_type == "PRESENTS_WITH"]
        assert targets == ["s_001"]

    def test_no_current_symptoms_no_edges(self):
        g = minimal_graph()
        g.durations = [DurationInterval("d_001", -14, 10)]
        out = build_presents_with(g)
        assert not [r for r in out.relations if r.relation_type == "PRESENTS_WITH"]

    def test_rerun_idempotent(self):
        once = build_presents_with(minimal_graph())
        assert build_presents_with(once) == once


class TestEtiologicLabels:
    def test_due_to_pattern(self):
        assert parse_etiologic_label("psychotic disorder due to traumatic brain injury") == (
            "traumatic brain injury",
            "psychotic disorder",
        )

    def test_induced_pattern(self):
        assert parse_etiologic_label("steroid-induced psychosis") == ("steroid", "psychosis")

    def test_plain_label_has_no_parse(self):
        assert parse_etiologic_label("major depressive disorder") is None


class TestLinkEtiology:
    def _graph(self):
        g = minimal_graph()
        g.diagnoses = [DiagnosisNode("dx_001", "steroid-induced psychosis")]
        g.relations = []
        g.symptoms = []
        return g

    def test_substring_anchor_on_treatment(self):
        g = self._graph()
        g.treatments = [TreatmentNode(id="t_001", treatment_type="corticosteroid", name="prednisone")]
        out = link_etiology(g)
        assert ("INDUCES", "t_001", "dx_001") in {r.triple() for r in out.relations}

    def test_no_anchor_flags_unanchored(self):
        g = self._graph()
        warnings: list[str] = []
        out = link_etiology(g, warnings)
        assert out.relations == []
        assert any("unanchored etiology" in w for w in warnings)

    def test_type_priority_prefers_treatment(self):
        g = self._graph()
        g.treatments = [TreatmentNode(id="t_001", treatment_type="medication", name="steroid taper")]
        g.past_history = [PastHistoryNode(id="ph_001", condition="chronic steroid use")]
        out = link_etiology(g)
        sources = [r.source_id for r in out.relations if r.relation_type == "INDUCES"]
        assert sources == ["t_001"]


class TestCausalPass:
    def _graph(self):
        g = minimal_graph()
        g.past_history = [PastHistoryNode(id="ph_001", condition="head injury")]
        return g

    def test_legal_edge_with_present_evidence_added(self):
        narrative = "His symptoms began after the head injury."
        gw = FakeGateway(
            lambda t, v: "edges:\n- source_id: ph_001\n  target_id: dx_001\n  evidence: began after the head injury\n"
        )
        out = add_causal_edges_llm(self._graph(), narrative, gw)
        assert ("INDUCES", "ph_001", "dx_001") in {r.triple() for r in out.relations}

    def test_an_unreadable_reply_is_asked_again(self):
        narrative = "His symptoms began after the head injury."
        edge = "edges:\n- source_id: ph_001\n  target_id: dx_001\n  evidence: began after the head injury\n"
        gw = FakeGateway(lambda t, v: edge if v.get("attempt") == "2" else "entities: [unclosed")
        out = add_causal_edges_llm(self._graph(), narrative, gw)
        assert ("INDUCES", "ph_001", "dx_001") in {r.triple() for r in out.relations}
        assert [v.get("attempt") for _, v in gw.calls] == [None, "2"]

    def test_fabricated_evidence_rejected(self):
        warnings: list[str] = []
        gw = FakeGateway(
            lambda t, v: "edges:\n- source_id: ph_001\n  target_id: dx_001\n  evidence: a sentence that is not there\n"
        )
        out = add_causal_edges_llm(self._graph(), "Short narrative.", gw, warnings=warnings)
        assert ("INDUCES", "ph_001", "dx_001") not in {r.triple() for r in out.relations}
        assert any("evidence" in w for w in warnings)

    def test_illegal_pair_rejected(self):
        warnings: list[str] = []
        narrative = "The diagnosis preceded the symptom."
        gw = FakeGateway(
            lambda t, v: "edges:\n- source_id: dx_001\n  target_id: s_001\n  evidence: preceded the symptom\n"
        )
        out = add_causal_edges_llm(self._graph(), narrative, gw, warnings=warnings)
        assert not [r for r in out.relations if r.relation_type == "INDUCES"]
        assert any("illegal pair" in w for w in warnings)

    def test_gateway_failure_passes_graph_through(self):
        from anonpsy.gateway import GatewayError

        warnings: list[str] = []
        gw = FakeGateway(lambda t, v: GatewayError("causal_pass", "boom"))
        g = self._graph()
        out = add_causal_edges_llm(g, "text", gw, warnings=warnings)
        assert out == g
        assert any("causal pass skipped" in w for w in warnings)


class TestCheckConsistency:
    def test_identity_passes(self):
        g = minimal_graph()
        report = check_consistency(g, g)
        assert report.passed and not report.discrepancies

    def test_shifted_duration_names_node(self):
        g = minimal_graph()
        g2 = replace(g, durations=[DurationInterval("d_001", -13, 15)])
        report = check_consistency(g, g2)
        assert not report.passed
        assert any("s_001" in d for d in report.discrepancies)

    def test_missing_relation_reported(self):
        g = minimal_graph()
        g.treatments = [TreatmentNode(id="t_001", treatment_type="medication", name="sertraline")]
        g.relations = g.relations + [Relation("TREATMENT_OF", "t_001", "dx_001")]
        g2 = replace(g, relations=[r for r in g.relations if r.relation_type != "TREATMENT_OF"])
        report = check_consistency(g, g2)
        assert any("relation missing" in d for d in report.discrepancies)

    def test_node_inventory_mismatch(self):
        g = minimal_graph()
        g2 = replace(g, symptoms=[replace(g.symptoms[0], id="s_999")])
        report = check_consistency(g, g2)
        assert not report.passed
        assert any("inventory" in d or "s_001" in d for d in report.discrepancies)
