"""Narrative-to-graph conversion: the staged extraction operator.

Stage 1 extracts entities and case-level attributes through a constrained
model call; stage 2 extracts raw temporal episodes per node; stage 3 runs the
deterministic temporal engine (horizon, day conversion, dedup, reconcile,
currency flags, splitting); stage 4 builds typed relations. Every
model-returned record is schema-checked and illegal records are dropped with
warnings rather than kept.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import asdict, dataclass, field, fields, replace

from .gateway import LlmGateway, validated_call
from .model import (
    EPISODE_UNITS,
    ROUTE_VOCABULARY,
    CaseAttributes,
    Demographics,
    DiagnosisNode,
    DurationInterval,
    FamilyHistoryEntry,
    PastHistoryNode,
    RawEpisode,
    Relation,
    SemanticGraph,
    StebContext,
    SymptomNode,
    TreatmentNode,
    TEST_RESULT_KEYS,
    VisitEvent,
    node_name,
    relation_is_legal,
    validate_graph,
)
from .relations import add_causal_edges_llm, build_presents_with, link_etiology
from .temporal import (
    UNIT_FACTORS,
    compute_horizon,
    dedup_durations,
    recompute_current_flags,
    reconcile_node_intervals,
    split_multi_episode_symptoms,
    to_days,
)
from .textproc import contains_normalized
from .yamlio import reply_mapping, safe_dump, serialize_yaml


class ConversionError(RuntimeError):
    """A case could not be converted; carries the staged error trail."""

    def __init__(self, case_id: str, stage: str, message: str):
        self.case_id = case_id
        self.stage = stage
        super().__init__(f"case {case_id}, stage {stage}: {message}")


@dataclass
class CaseNarrative:
    case_id: str
    text: str
    ground_truth_diagnoses: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("narrative text must be nonempty")


@dataclass
class ConverterDraft:
    """Intermediate state between extraction stages."""

    graph: SemanticGraph
    episodes: dict[str, list[RawEpisode]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def _structured_call(gw: LlmGateway, template_id: str, variables: dict[str, str], case_id: str, stage: str) -> dict:
    """Call the gateway and parse a YAML mapping, retrying with an attempt tag."""
    out = validated_call(gw, template_id, variables, reply_mapping)
    return out.get(
        lambda reason: ConversionError(case_id, stage, f"unparseable structured response after retries: {reason}")
    )


# How a field of a model record is read from a reply, by its annotation in model.py.
_READERS = {
    str: lambda value: value if isinstance(value, str) else "",
    str | None: lambda value: value if isinstance(value, str) and value else None,
    bool: bool,
    list[str]: lambda value: [s for s in value if isinstance(s, str)] if isinstance(value, list) else [],
}
_as_str, _as_opt_str = _READERS[str], _READERS[str | None]


@functools.cache
def _field_readers(cls: type) -> dict[str, typing.Callable | None]:
    """The reader of each field of `cls` but the converter's ids, by its annotation; None: it must be given."""
    hints = typing.get_type_hints(cls)
    return {f.name: _READERS.get(hints[f.name]) for f in fields(cls) if f.name not in ("id", "duration_ids")}


def _record(cls: type, entry, **given):
    """A `cls` with the given fields, every other read from `entry` by its annotation; a non-mapping has none."""
    entry = entry if isinstance(entry, dict) else {}
    read = {name: reader(entry.get(name)) for name, reader in _field_readers(cls).items() if name not in given}
    return cls(**read, **given)


def _section(doc: dict, key: str, kind: type, warnings: list[str], where: str = ""):
    """doc[key] when it is a `kind` (a list or a dict); else an empty one, with a warning unless it is missing."""
    value = doc.get(key)
    if isinstance(value, kind):
        return value
    if value is not None:
        warnings.append(f"{where or key} dropped: expected {kind.__name__}, got {type(value).__name__}")
    return kind()


def extract_entities(x: CaseNarrative, gw: LlmGateway) -> ConverterDraft:
    """Stage 1: schema-guided entity and attribute extraction.

    Diagnosis nodes come from the case metadata, not from the model. Model
    records are filtered field by field: unknown keys are dropped, the route
    vocabulary is enforced, at most one visit event is kept, and symptom
    evidence must occur near-verbatim in the narrative. A section of the
    wrong shape is dropped with a warning.
    """
    warnings: list[str] = []
    doc = _structured_call(
        gw, "extract_entities", {"case_id": x.case_id, "narrative": x.text}, x.case_id, "extract_entities"
    )

    demo_doc = _section(doc, "demographics", dict, warnings)
    age = demo_doc.get("age")
    if not isinstance(age, int) or isinstance(age, bool) or age < 0:
        warnings.append(f"demographics.age invalid ({age!r}); defaulting to 0")
        age = 0
    demographics = _record(Demographics, demo_doc, age=age)

    family_history = []
    for i, entry in enumerate(_section(doc, "family_history", list, warnings)):
        member = _record(FamilyHistoryEntry, entry)
        if not member.member or not member.condition:
            warnings.append(f"family_history[{i}] dropped: missing member/condition")
            continue
        family_history.append(member)

    tests_doc = _section(doc, "test_results", dict, warnings)
    test_results = {key: _as_str(tests_doc.get(key)) for key in TEST_RESULT_KEYS}
    for key in tests_doc:
        if key not in TEST_RESULT_KEYS:
            warnings.append(f"test_results.{key} dropped: unknown key")

    diagnoses = [
        DiagnosisNode(id=f"dx_{i + 1:03d}", label=label)
        for i, label in enumerate(x.ground_truth_diagnoses)
        if label.strip()
    ]
    diagnosis_by_label = {d.label.lower(): d.id for d in diagnoses}

    symptoms: list[SymptomNode] = []
    alignments: list[Relation] = []
    for i, entry in enumerate(_section(doc, "symptoms", list, warnings)):
        node = _record(SymptomNode, entry, id=f"s_{len(symptoms) + 1:03d}", contexts=[])
        if not node.symptom:
            warnings.append(f"symptoms[{i}] dropped: missing headword")
            continue
        if node.evidence_text and not contains_normalized(x.text, node.evidence_text):
            warnings.append(f"symptoms[{i}] ({node.symptom!r}) dropped: evidence_text not found in narrative")
            continue
        for j, ctx in enumerate(_section(entry, "contexts", list, warnings, f"symptoms[{i}].contexts")):
            if not isinstance(ctx, dict):
                warnings.append(f"symptoms[{i}].contexts[{j}] dropped: not a mapping")
                continue
            for key in ctx:
                if key not in StebContext.FIELD_ORDER:
                    warnings.append(f"symptoms[{i}].contexts[{j}].{key} dropped: unknown STEB field")
            frame = _record(StebContext, ctx)
            if frame.present_fields():
                node.contexts.append(frame)
            else:
                warnings.append(f"symptoms[{i}].contexts[{j}] dropped: empty frame")
        symptoms.append(node)
        target_label = _as_str(entry.get("diagnosis")).lower()
        if target_label:
            if target_label in diagnosis_by_label:
                alignments.append(Relation("MANIFESTS_AS", node.id, diagnosis_by_label[target_label]))
            else:
                warnings.append(f"symptoms[{i}] alignment dropped: no diagnosis labeled {entry.get('diagnosis')!r}")

    treatments: list[TreatmentNode] = []
    treatment_targets: list[tuple[str, str]] = []
    for i, entry in enumerate(_section(doc, "treatments", list, warnings)):
        kind = entry.get("treatment_type") if isinstance(entry, dict) else None
        kind = kind if isinstance(kind, str) else "other"
        node = _record(TreatmentNode, entry, id=f"t_{len(treatments) + 1:03d}", treatment_type=kind)
        if not node.name:
            warnings.append(f"treatments[{i}] dropped: missing name")
            continue
        if node.route is not None and node.route not in ROUTE_VOCABULARY:
            warnings.append(f"treatments[{i}].route {node.route!r} dropped: not in controlled vocabulary")
            node = replace(node, route=None)
        treatments.append(node)
        target = _as_str(entry.get("target")).lower()
        if target:
            treatment_targets.append((node.id, target))

    past_history: list[PastHistoryNode] = []
    for i, entry in enumerate(_section(doc, "past_history", list, warnings)):
        node = _record(PastHistoryNode, entry, id=f"ph_{len(past_history) + 1:03d}")
        if not node.condition:
            warnings.append(f"past_history[{i}] dropped: missing condition")
            continue
        past_history.append(node)

    visit_event: VisitEvent | None = None
    for i, entry in enumerate(_section(doc, "visit_events", list, warnings)):
        if not isinstance(entry, dict):
            warnings.append(f"visit_events[{i}] dropped: not a mapping")
        elif visit_event is not None:
            warnings.append(f"visit_events[{i}] rejected: graph already has a visit event")
        else:
            visit_event = _record(VisitEvent, entry)
    if visit_event is None:
        raise ConversionError(x.case_id, "extract_entities", "no visit event extracted")

    # Resolve treatment targets against diagnoses, past history, then symptoms.
    graph = SemanticGraph(
        attributes=CaseAttributes(
            demographics=demographics, family_history=family_history, test_results=test_results
        ),
        diagnoses=diagnoses,
        symptoms=symptoms,
        treatments=treatments,
        past_history=past_history,
        visit_event=visit_event,
    )
    relations = list(alignments)
    for t_id, target in treatment_targets:
        target_id = diagnosis_by_label.get(target)
        if target_id is None:
            target_id = next((p.id for p in past_history if p.condition.lower() == target), None)
        if target_id is None:
            target_id = next((s.id for s in symptoms if s.symptom.lower() == target), None)
        if target_id is None:
            warnings.append(f"treatment {t_id} target {target!r} dropped: no matching node")
            continue
        rel = Relation("TREATMENT_OF", t_id, target_id)
        if relation_is_legal(graph, rel):
            relations.append(rel)
        else:
            warnings.append(f"treatment {t_id} target {target!r} dropped: illegal pair")
    graph = replace(graph, relations=relations)

    return ConverterDraft(graph=graph, warnings=warnings)


def extract_episodes(x: CaseNarrative, draft: ConverterDraft, gw: LlmGateway) -> ConverterDraft:
    """Stage 2: raw temporal episodes per node.

    Episodes without a textual anchor are flagged inferred; unknown units are
    rejected. Nodes left with no episode get the default ongoing episode at
    offset 0 and a flag.
    """
    warnings = list(draft.warnings)
    node_lines = "\n".join(f"- {n.id}: {node_name(n)}" for n in draft.graph.timed_nodes())
    doc = _structured_call(
        gw,
        "extract_episodes",
        {"case_id": x.case_id, "narrative": x.text, "nodes": node_lines},
        x.case_id,
        "extract_episodes",
    )

    known_ids = {n.id for n in draft.graph.timed_nodes()}
    episodes: dict[str, list[RawEpisode]] = {node_id: [] for node_id in known_ids}
    for i, entry in enumerate(_section(doc, "episodes", list, warnings)):
        if not isinstance(entry, dict):
            warnings.append(f"episodes[{i}] dropped: not a mapping")
            continue
        node_id = _as_str(entry.get("node_id"))
        if node_id not in known_ids:
            warnings.append(f"episodes[{i}] dropped: unknown node {node_id!r}")
            continue
        unit = _as_str(entry.get("unit"))
        if unit not in EPISODE_UNITS:
            warnings.append(f"episodes[{i}] for {node_id} rejected: unit {unit!r} not in vocabulary")
            continue
        offset = entry.get("offset")
        if not isinstance(offset, int) or isinstance(offset, bool):
            warnings.append(f"episodes[{i}] for {node_id} rejected: offset {offset!r} not an integer")
            continue
        span = entry.get("span")
        if span is not None and (not isinstance(span, int) or isinstance(span, bool) or span < 0):
            warnings.append(f"episodes[{i}] for {node_id} rejected: span {span!r} invalid")
            continue
        ongoing = bool(entry.get("ongoing", False))
        anchor = _as_opt_str(entry.get("anchor"))
        if anchor is not None and not contains_normalized(x.text, anchor):
            warnings.append(f"episodes[{i}] for {node_id}: anchor not found in narrative, flagged inferred")
            anchor = None
        episodes[node_id].append(
            RawEpisode(offset=offset, span=span, unit=unit, ongoing=ongoing, inferred=anchor is None)
        )

    for node_id in sorted(episodes):
        if not episodes[node_id]:
            warnings.append(f"node {node_id} had no episodes; assigned default ongoing episode at offset 0")
            episodes[node_id].append(RawEpisode(offset=0, span=None, unit="day", ongoing=True, inferred=True))

    _check_narrative_order(x, draft.graph, episodes, warnings)
    return ConverterDraft(graph=draft.graph, episodes=episodes, warnings=warnings)


def _check_narrative_order(
    x: CaseNarrative,
    graph: SemanticGraph,
    episodes: dict[str, list[RawEpisode]],
    warnings: list[str],
) -> None:
    """Inferred offsets must not contradict the order symptoms appear in text."""
    positioned = []
    for node in graph.symptoms:
        eps = episodes.get(node.id, [])
        if not eps or not all(e.inferred for e in eps):
            continue
        pos = x.text.lower().find(node.evidence_text.lower()) if node.evidence_text else -1
        if pos < 0:
            continue
        earliest = min(e.offset * UNIT_FACTORS.get(e.unit, 1) for e in eps)
        positioned.append((pos, earliest, node.id))
    positioned.sort()
    for (_, off_a, id_a), (_, off_b, id_b) in zip(positioned, positioned[1:]):
        if off_a > off_b:
            warnings.append(
                f"inferred offsets for {id_a} and {id_b} invert narrative order; kept as returned"
            )


def canonicalize_temporal(draft: ConverterDraft) -> tuple[SemanticGraph, list[str]]:
    """Stage 3: horizon, day conversion, dedup, reconcile, currency, split."""
    warnings = list(draft.warnings)
    all_episodes = [e for eps in draft.episodes.values() for e in eps]
    horizon = compute_horizon(all_episodes)

    pool: list[DurationInterval] = []
    counter = 1

    def durations_for(node):
        nonlocal counter
        ids = []
        for episode in draft.episodes.get(node.id, []):
            start, span = to_days(episode, horizon)
            dur = DurationInterval(id=f"d_{counter:03d}", offset_days=start, span_days=span)
            counter += 1
            pool.append(dur)
            ids.append(dur.id)
        return replace(node, duration_ids=ids)

    g = replace(draft.graph.map_timed(durations_for), durations=pool)
    for node in g.symptoms:
        warnings.append(f"initial current_symptom for {node.id}: {node.current_symptom}")
    g = dedup_durations(g)
    g = reconcile_node_intervals(g)
    g = recompute_current_flags(g)
    g = split_multi_episode_symptoms(g)
    return g, warnings


# The texts `convert` returns beside the graph, in the order the chain produces
# them: the stage 1 graph, the stage 2 episodes and the warning log.
INTERMEDIATES = ("stage1.entities.yaml", "stage2.episodes.yaml", "convert.log")


def convert(x: CaseNarrative, gw: LlmGateway) -> tuple[SemanticGraph, tuple[str, str, str]]:
    """Run the full conversion chain; return the validated graph and the texts of INTERMEDIATES.

    Writes no file: the stage runner writes the intermediates beside the graph,
    for debugging, and a conversion that fails leaves none of them.
    """
    draft = extract_entities(x, gw)
    entities = serialize_yaml(draft.graph)
    draft = extract_episodes(x, draft, gw)
    episodes = _episodes_yaml(draft)
    try:
        g, warnings = canonicalize_temporal(draft)
    except Exception as exc:
        raise ConversionError(x.case_id, "canonicalize_temporal", str(exc)) from exc

    g = build_presents_with(g)
    g = link_etiology(g, warnings)
    g = add_causal_edges_llm(g, x.text, gw, case_id=x.case_id, warnings=warnings)
    violations = validate_graph(g)
    if violations:
        raise ConversionError(
            x.case_id, "validate", "; ".join(str(v) for v in violations)
        )
    return g, (entities, episodes, "".join(f"{w}\n" for w in warnings))


def _episodes_yaml(draft: ConverterDraft) -> str:
    doc = {node_id: [asdict(e) for e in eps] for node_id, eps in sorted(draft.episodes.items())}
    return safe_dump(doc, sort_keys=True)
