"""Typed relation construction and cross-graph consistency checking.

Presentation edges and etiologic links from label morphology are built
deterministically. A constrained model pass may add further causal edges,
but only when the proposal is schema-legal and its evidence string actually
occurs in the source narrative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .gateway import LlmGateway, validated_call
from .model import NODE_KINDS, Relation, SemanticGraph, VISIT_EVENT_ID, node_name, relation_is_legal
from .temporal import temporal_signature
from .textproc import contains_normalized
from .yamlio import reply_mapping

_DUE_TO = re.compile(r"^(?P<base>.+?)\s+due\s+to\s+(?P<cause>.+)$", re.IGNORECASE)
_INDUCED = re.compile(r"^(?P<cause>.+?)-induced\s+(?P<base>.+)$", re.IGNORECASE)


def build_presents_with(g: SemanticGraph) -> SemanticGraph:
    """Link the visit event to every symptom whose interval covers day 0.

    Pre-existing PRESENTS_WITH edges are replaced wholesale, so reruns are
    idempotent.
    """
    pool = g.durations_by_id()
    kept = [r for r in g.relations if r.relation_type != "PRESENTS_WITH"]
    for node in g.symptoms:
        if any(pool[i].covers_day0() for i in node.duration_ids if i in pool):
            kept.append(Relation("PRESENTS_WITH", VISIT_EVENT_ID, node.id))
    return replace(g, relations=kept)


def parse_etiologic_label(label: str) -> tuple[str, str] | None:
    """Extract (cause, base) from 'X due to Y' or 'Y-induced X' labels."""
    m = _DUE_TO.match(label.strip())
    if m:
        return m.group("cause").strip(), m.group("base").strip()
    m = _INDUCED.match(label.strip())
    if m:
        return m.group("cause").strip(), m.group("base").strip()
    return None


# Anchor preference when several node types match the cause phrase.
_ANCHOR_PRIORITY = ("treatment", "past_history", "symptom")


def link_etiology(g: SemanticGraph, warnings: list[str] | None = None) -> SemanticGraph:
    """Add INDUCES edges for diagnoses with etiologic label morphology.

    The anchor is the node whose name/condition text contains the cause
    phrase (case-insensitive substring), preferring treatments over past
    history over symptoms. Unanchorable etiologies are flagged, not guessed.
    """
    relations = list(g.relations)
    existing = {r.triple() for r in relations}
    for diagnosis in g.diagnoses:
        parsed = parse_etiologic_label(diagnosis.label)
        if parsed is None:
            continue
        cause, _base = parsed
        needle = cause.lower()
        anchor_id = None
        for type_name in _ANCHOR_PRIORITY:
            candidates = {
                "treatment": [(t.id, f"{t.name} {t.treatment_type}") for t in g.treatments],
                "past_history": [(p.id, p.condition) for p in g.past_history],
                "symptom": [(s.id, s.symptom) for s in g.symptoms],
            }[type_name]
            for node_id, text in candidates:
                if needle in text.lower():
                    anchor_id = node_id
                    break
            if anchor_id:
                break
        if anchor_id is None:
            if warnings is not None:
                warnings.append(f"unanchored etiology: {diagnosis.label!r} (cause {cause!r})")
            continue
        rel = Relation("INDUCES", anchor_id, diagnosis.id)
        if rel.triple() not in existing:
            relations.append(rel)
            existing.add(rel.triple())
    return replace(g, relations=relations)


def add_causal_edges_llm(
    g: SemanticGraph,
    narrative: str,
    gw: LlmGateway,
    case_id: str = "",
    warnings: list[str] | None = None,
) -> SemanticGraph:
    """Constrained causal pass: accept proposed INDUCES edges only when legal
    and backed by near-verbatim evidence from the narrative."""
    # Timed nodes, then diagnoses: this is prompt text, and it keys the recorded replies.
    node_summary = "\n".join(f"- {n.id}: {node_name(n)}" for n in (*g.timed_nodes(), *g.diagnoses))

    variables = {"case_id": case_id, "narrative": narrative, "nodes": node_summary}
    out = validated_call(gw, "causal_pass", variables, _causal_proposals)
    if out.value is None:
        if warnings is not None and out.error is not None:
            warnings.append(f"causal pass skipped: {out.error}")
        elif warnings is not None:
            fault = f" ({out.reason})" if out.reason else ""  # a malformed edge has no reason to name
            warnings.append(f"causal pass returned an unparseable response{fault}; ignored")
        return g

    relations = list(g.relations)
    existing = {r.triple() for r in relations}
    for source_id, target_id, evidence in out.value:
        rel = Relation("INDUCES", source_id, target_id)
        if not relation_is_legal(g, rel):
            if warnings is not None:
                warnings.append(f"causal proposal rejected (illegal pair): {source_id} -> {target_id}")
            continue
        if not contains_normalized(narrative, evidence):
            if warnings is not None:
                warnings.append(
                    f"causal proposal rejected (evidence not in narrative): {source_id} -> {target_id}"
                )
            continue
        if rel.triple() in existing:
            continue
        relations.append(rel)
        existing.add(rel.triple())
    return replace(g, relations=relations)


def _causal_proposals(text: str, reject) -> list[tuple[str, str, str]] | None:
    """The (source, target, evidence) of each edge the reply proposes; None when one is malformed."""
    doc = reply_mapping(text, reject)
    if doc is None or not isinstance(doc.get("edges"), list):
        return None
    out = []
    for item in doc["edges"]:
        if not isinstance(item, dict):
            return None
        source = item.get("source_id")
        target = item.get("target_id")
        evidence = item.get("evidence")
        if not all(isinstance(v, str) and v for v in (source, target, evidence)):
            return None
        out.append((source, target, evidence))
    return out


@dataclass
class ConsistencyReport:
    passed: bool
    discrepancies: list[str] = field(default_factory=list)


def check_consistency(g: SemanticGraph, g2: SemanticGraph) -> ConsistencyReport:
    """Verify that g2 preserves g's temporal backbone, relations, and node
    inventories under the shared node-id correspondence."""
    problems: list[str] = []

    sig_a, sig_b = temporal_signature(g), temporal_signature(g2)
    for node_id in sorted(set(sig_a) | set(sig_b)):
        if sig_a.get(node_id) != sig_b.get(node_id):
            problems.append(
                f"temporal mismatch at {node_id}: {sig_a.get(node_id)} != {sig_b.get(node_id)}"
            )

    rels_a = sorted(r.triple() for r in g.relations)
    rels_b = sorted(r.triple() for r in g2.relations)
    if rels_a != rels_b:
        missing = set(rels_a) - set(rels_b)
        extra = set(rels_b) - set(rels_a)
        for triple in sorted(missing):
            problems.append(f"relation missing: {triple}")
        for triple in sorted(extra):
            problems.append(f"relation added: {triple}")

    for type_name, section in NODE_KINDS:
        ids_a = sorted(n.id for n in getattr(g, section))
        ids_b = sorted(n.id for n in getattr(g2, section))
        if ids_a != ids_b:
            problems.append(f"{type_name} inventory mismatch: {ids_a} != {ids_b}")

    return ConsistencyReport(passed=not problems, discrepancies=problems)
