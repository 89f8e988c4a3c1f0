"""Narrative-to-graph conversion: the staged extraction operator.

Stage 1 extracts entities and case-level attributes through a constrained
model call; stage 2 extracts raw temporal episodes per node; stage 3 runs the
deterministic temporal engine (horizon, day conversion, dedup, reconcile,
currency flags, splitting); stage 4 builds typed relations. Every
model-returned record is schema-checked and illegal records are dropped with
warnings rather than kept.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .fileio import write_atomic
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
    # The first attempt is untagged: the extraction fixtures are keyed so.
    out = validated_call(gw, template_id, variables, reply_mapping, tag_first=False, operator="convert")
    if out.error is not None:
        raise out.error
    if out.value is None:
        raise ConversionError(case_id, stage, f"unparseable structured response after retries: {out.reason}")
    return out.value


def _str_or(obj: dict, key: str, default: str = "") -> str:
    value = obj.get(key, default)
    return value if isinstance(value, str) else default


def _opt_str(obj: dict, key: str) -> str | None:
    value = obj.get(key)
    return value if isinstance(value, str) and value else None


def extract_entities(x: CaseNarrative, gw: LlmGateway) -> ConverterDraft:
    """Stage 1: schema-guided entity and attribute extraction.

    Diagnosis nodes come from the case metadata, not from the model. Model
    records are filtered field by field: unknown keys are dropped, the route
    vocabulary is enforced, at most one visit event is kept, and symptom
    evidence must occur near-verbatim in the narrative.
    """
    warnings: list[str] = []
    doc = _structured_call(
        gw, "extract_entities", {"case_id": x.case_id, "narrative": x.text}, x.case_id, "extract_entities"
    )

    demo_doc = doc.get("demographics") or {}
    age = demo_doc.get("age")
    if not isinstance(age, int) or isinstance(age, bool) or age < 0:
        warnings.append(f"demographics.age invalid ({age!r}); defaulting to 0")
        age = 0
    demographics = Demographics(
        age=age,
        sex=_str_or(demo_doc, "sex"),
        ethnicity=_str_or(demo_doc, "ethnicity"),
        occupation=_str_or(demo_doc, "occupation"),
        family_structure=_str_or(demo_doc, "family_structure"),
    )

    family_history = []
    for i, entry in enumerate(doc.get("family_history") or []):
        if not isinstance(entry, dict) or not _str_or(entry, "member") or not _str_or(entry, "condition"):
            warnings.append(f"family_history[{i}] dropped: missing member/condition")
            continue
        family_history.append(
            FamilyHistoryEntry(
                member=_str_or(entry, "member"),
                condition=_str_or(entry, "condition"),
                evidence_text=_str_or(entry, "evidence_text"),
            )
        )

    tests_doc = doc.get("test_results") or {}
    test_results = {key: _str_or(tests_doc, key) for key in TEST_RESULT_KEYS}
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
    for i, entry in enumerate(doc.get("symptoms") or []):
        if not isinstance(entry, dict) or not _str_or(entry, "symptom"):
            warnings.append(f"symptoms[{i}] dropped: missing headword")
            continue
        evidence = _str_or(entry, "evidence_text")
        if evidence and not contains_normalized(x.text, evidence):
            warnings.append(
                f"symptoms[{i}] ({entry.get('symptom')!r}) dropped: evidence_text not found in narrative"
            )
            continue
        contexts = []
        for j, ctx in enumerate(entry.get("contexts") or []):
            if not isinstance(ctx, dict):
                warnings.append(f"symptoms[{i}].contexts[{j}] dropped: not a mapping")
                continue
            for key in ctx:
                if key not in StebContext.FIELD_ORDER:
                    warnings.append(f"symptoms[{i}].contexts[{j}].{key} dropped: unknown STEB field")
            frame = StebContext(
                situation=_opt_str(ctx, "situation"),
                thought=_opt_str(ctx, "thought"),
                emotion=_opt_str(ctx, "emotion"),
                behavior=_opt_str(ctx, "behavior"),
            )
            if frame.present_fields():
                contexts.append(frame)
            else:
                warnings.append(f"symptoms[{i}].contexts[{j}] dropped: empty frame")
        node = SymptomNode(
            id=f"s_{len(symptoms) + 1:03d}",
            symptom=_str_or(entry, "symptom"),
            pattern=_str_or(entry, "pattern"),
            current_symptom=bool(entry.get("current_symptom", False)),
            evidence_text=evidence,
            contexts=contexts,
        )
        symptoms.append(node)
        target_label = _str_or(entry, "diagnosis").lower()
        if target_label:
            if target_label in diagnosis_by_label:
                alignments.append(Relation("MANIFESTS_AS", node.id, diagnosis_by_label[target_label]))
            else:
                warnings.append(
                    f"symptoms[{i}] alignment dropped: no diagnosis labeled {entry.get('diagnosis')!r}"
                )

    treatments: list[TreatmentNode] = []
    treatment_targets: list[tuple[str, str]] = []
    for i, entry in enumerate(doc.get("treatments") or []):
        if not isinstance(entry, dict) or not _str_or(entry, "name"):
            warnings.append(f"treatments[{i}] dropped: missing name")
            continue
        route = _opt_str(entry, "route")
        if route is not None and route not in ROUTE_VOCABULARY:
            warnings.append(f"treatments[{i}].route {route!r} dropped: not in controlled vocabulary")
            route = None
        node = TreatmentNode(
            id=f"t_{len(treatments) + 1:03d}",
            treatment_type=_str_or(entry, "treatment_type", "other"),
            name=_str_or(entry, "name"),
            dose=_opt_str(entry, "dose"),
            route=route,
            frequency=_opt_str(entry, "frequency"),
            outcome=_opt_str(entry, "outcome"),
        )
        treatments.append(node)
        target = _str_or(entry, "target").lower()
        if target:
            treatment_targets.append((node.id, target))

    past_history: list[PastHistoryNode] = []
    for i, entry in enumerate(doc.get("past_history") or []):
        if not isinstance(entry, dict) or not _str_or(entry, "condition"):
            warnings.append(f"past_history[{i}] dropped: missing condition")
            continue
        past_history.append(
            PastHistoryNode(id=f"ph_{len(past_history) + 1:03d}", condition=_str_or(entry, "condition"))
        )

    visit_event: VisitEvent | None = None
    for i, entry in enumerate(doc.get("visit_events") or []):
        if not isinstance(entry, dict):
            warnings.append(f"visit_events[{i}] dropped: not a mapping")
            continue
        if visit_event is not None:
            warnings.append(f"visit_events[{i}] rejected: graph already has a visit event")
            continue
        flags = entry.get("safety_flags") or []
        visit_event = VisitEvent(
            setting=_str_or(entry, "setting"),
            arrival_mode=_str_or(entry, "arrival_mode"),
            legal_status=_str_or(entry, "legal_status"),
            reason_for_visit=_str_or(entry, "reason_for_visit"),
            safety_flags=[f for f in flags if isinstance(f, str)],
            source_of_information=_str_or(entry, "source_of_information"),
            pathway=_opt_str(entry, "pathway"),
            visit_episode=_str_or(entry, "visit_episode"),
        )
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
    for i, entry in enumerate(doc.get("episodes") or []):
        if not isinstance(entry, dict):
            warnings.append(f"episodes[{i}] dropped: not a mapping")
            continue
        node_id = _str_or(entry, "node_id")
        if node_id not in known_ids:
            warnings.append(f"episodes[{i}] dropped: unknown node {node_id!r}")
            continue
        unit = _str_or(entry, "unit")
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
        anchor = _opt_str(entry, "anchor")
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


# What `convert` writes into work_dir, in the order the chain produces them.
INTERMEDIATES = ("stage1.entities.yaml", "stage2.episodes.yaml", "convert.log")


def convert(x: CaseNarrative, gw: LlmGateway, work_dir: str | Path | None = None) -> SemanticGraph:
    """Run the full conversion chain and return a validated graph.

    When work_dir is given, intermediate stage YAML and the warning log are
    persisted there for debugging. Those the chain fails before writing are
    removed, so none of an earlier input is left; those it rewrites unchanged
    are not touched.
    """
    pending = list(INTERMEDIATES)

    def persist(name: str, producer) -> None:
        if work_dir is not None:
            Path(work_dir).mkdir(parents=True, exist_ok=True)
            write_atomic(Path(work_dir) / name, producer())
        pending.remove(name)

    try:
        draft = extract_entities(x, gw)
        persist("stage1.entities.yaml", lambda: serialize_yaml(draft.graph))

        draft = extract_episodes(x, draft, gw)
        persist("stage2.episodes.yaml", lambda: _episodes_yaml(draft))

        try:
            g, warnings = canonicalize_temporal(draft)
        except Exception as exc:
            raise ConversionError(x.case_id, "canonicalize_temporal", str(exc)) from exc

        g = build_presents_with(g)
        g = link_etiology(g, warnings)
        g = add_causal_edges_llm(g, x.text, gw, case_id=x.case_id, warnings=warnings)
        persist("convert.log", lambda: "".join(f"{w}\n" for w in warnings))
    except BaseException:
        if work_dir is not None:
            for name in pending:
                (Path(work_dir) / name).unlink(missing_ok=True)
        raise

    violations = validate_graph(g)
    if violations:
        raise ConversionError(
            x.case_id, "validate", "; ".join(str(v) for v in violations)
        )
    return g


def _episodes_yaml(draft: ConverterDraft) -> str:
    doc = {node_id: [asdict(e) for e in eps] for node_id, eps in sorted(draft.episodes.items())}
    return safe_dump(doc, sort_keys=True)
