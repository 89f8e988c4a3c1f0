"""Semantic graph schema for psychiatric case narratives.

A case is represented as typed nodes (diagnoses, symptoms, treatments, past
history, a single visit event), typed relations between them, and a shared
pool of day-based duration intervals anchored at the index encounter (day 0).
Case-level attributes (demographics, family history, test results) live
outside the relational structure.

Graphs are treated as immutable values: pipeline stages produce new graphs
rather than mutating existing ones, so instances are safe to share across
threads.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace

# The node kinds as (node type, SemanticGraph section), in canonical order:
# the one list of them that every walk over a graph's nodes reads.
NODE_KINDS = (
    ("diagnosis", "diagnoses"),
    ("symptom", "symptoms"),
    ("treatment", "treatments"),
    ("past_history", "past_history"),
)
# The sections whose nodes carry duration_ids: every kind but diagnosis.
TIMED_SECTIONS = tuple(section for kind, section in NODE_KINDS if kind != "diagnosis")

RELATION_TYPES = ("MANIFESTS_AS", "TREATMENT_OF", "PRESENTS_WITH", "INDUCES")

# Reserved id for the visit event when it appears as a relation endpoint.
VISIT_EVENT_ID = "visit_event"

TEST_RESULT_KEYS = ("labs", "imaging", "mental_status", "other")

ROUTE_VOCABULARY = frozenset(
    {"oral", "intravenous", "intramuscular", "subcutaneous", "topical", "inhaled", "other"}
)

# Closed table of permissible (relation type, source node type, target node
# type) triples. Anything outside it is a schema violation.
ALLOWED_RELATION_PAIRS = frozenset(
    {
        ("MANIFESTS_AS", "symptom", "diagnosis"),
        ("TREATMENT_OF", "treatment", "symptom"),
        ("TREATMENT_OF", "treatment", "diagnosis"),
        ("TREATMENT_OF", "treatment", "past_history"),
        ("PRESENTS_WITH", "visit_event", "symptom"),
        ("INDUCES", "symptom", "diagnosis"),
        ("INDUCES", "treatment", "diagnosis"),
        ("INDUCES", "past_history", "diagnosis"),
    }
)


@dataclass
class DurationInterval:
    """Half-open day interval [offset_days, offset_days + span_days).

    Negative offsets are before the index encounter, positive after.
    ``virtual`` marks intervals materialized by reconciliation merging.
    ``age_anchored`` marks intervals tied to an absolute patient age rather
    than to the encounter; only those move when age is perturbed.
    """

    id: str
    offset_days: int
    span_days: int
    virtual: bool = False
    # The graph YAML omits this key when False, and reads an absent key as False.
    age_anchored: bool = field(default=False, metadata={"yaml_omit_if": False})

    @property
    def end_days(self) -> int:
        return self.offset_days + self.span_days

    def covers_day0(self) -> bool:
        return self.offset_days <= 0 < self.end_days


@dataclass
class RawEpisode:
    """Pre-canonicalization temporal episode as extracted from text.

    ``span`` may be None only for ongoing episodes, whose extent is resolved
    later against the shared timeline horizon. ``inferred`` marks episodes
    without a direct textual anchor.
    """

    offset: int
    span: int | None
    unit: str
    ongoing: bool = False
    inferred: bool = False


EPISODE_UNITS = ("day", "week", "month", "year")


@dataclass
class StebContext:
    """Situation/Thought/Emotion/Behavior frame for one symptom episode."""

    situation: str | None = None
    thought: str | None = None
    emotion: str | None = None
    behavior: str | None = None

    FIELD_ORDER = ("situation", "thought", "emotion", "behavior")

    def present_fields(self) -> tuple[str, ...]:
        return tuple(name for name in self.FIELD_ORDER if getattr(self, name) is not None)


def frame_text(*frames: StebContext) -> str:
    """One `name: value` line per present field of each frame, in order: how a prompt shows frames."""
    return "\n".join(f"{name}: {getattr(ctx, name)}" for ctx in frames for name in ctx.present_fields())


@dataclass
class SymptomNode:
    id: str
    symptom: str
    pattern: str
    current_symptom: bool
    evidence_text: str
    contexts: list[StebContext] = field(default_factory=list)
    duration_ids: list[str] = field(default_factory=list)


@dataclass
class DiagnosisNode:
    id: str
    label: str


@dataclass
class TreatmentNode:
    id: str
    treatment_type: str
    name: str
    dose: str | None = None
    route: str | None = None
    frequency: str | None = None
    outcome: str | None = None
    duration_ids: list[str] = field(default_factory=list)


@dataclass
class PastHistoryNode:
    id: str
    condition: str
    duration_ids: list[str] = field(default_factory=list)


Node = DiagnosisNode | SymptomNode | TreatmentNode | PastHistoryNode
TimedNode = SymptomNode | TreatmentNode | PastHistoryNode

# The field that names a node of each type; see node_name.
_NAME_FIELDS = {DiagnosisNode: "label", SymptomNode: "symptom", TreatmentNode: "name", PastHistoryNode: "condition"}


@dataclass
class VisitEvent:
    """The index clinical encounter; exactly one per graph, anchors day 0."""

    setting: str
    arrival_mode: str
    legal_status: str
    reason_for_visit: str
    safety_flags: list[str] = field(default_factory=list)
    source_of_information: str = ""
    pathway: str | None = None
    visit_episode: str = ""


@dataclass
class Relation:
    relation_type: str
    source_id: str
    target_id: str

    def triple(self) -> tuple[str, str, str]:
        return (self.relation_type, self.source_id, self.target_id)


@dataclass
class FamilyHistoryEntry:
    member: str
    condition: str
    evidence_text: str = ""


@dataclass
class Demographics:
    age: int
    sex: str
    ethnicity: str = ""
    occupation: str = ""
    family_structure: str = ""


@dataclass
class CaseAttributes:
    """Case-level attributes stored outside the relational graph."""

    demographics: Demographics
    family_history: list[FamilyHistoryEntry] = field(default_factory=list)
    test_results: dict[str, str] = field(default_factory=dict)


@dataclass
class SemanticGraph:
    attributes: CaseAttributes
    diagnoses: list[DiagnosisNode] = field(default_factory=list)
    symptoms: list[SymptomNode] = field(default_factory=list)
    treatments: list[TreatmentNode] = field(default_factory=list)
    past_history: list[PastHistoryNode] = field(default_factory=list)
    visit_event: VisitEvent | None = None
    relations: list[Relation] = field(default_factory=list)
    durations: list[DurationInterval] = field(default_factory=list)

    def durations_by_id(self) -> dict[str, DurationInterval]:
        return {d.id: d for d in self.durations}

    def nodes(self) -> Iterator[tuple[str, str, int, Node]]:
        """Every node as (kind, section, index in section, node), in NODE_KINDS order."""
        for kind, section in NODE_KINDS:
            for i, node in enumerate(getattr(self, section)):
                yield kind, section, i, node

    def timed_nodes(self) -> list[TimedNode]:
        """Nodes that carry duration references, in canonical order."""
        return [node for section in TIMED_SECTIONS for node in getattr(self, section)]

    def map_timed(self, fn: Callable[[TimedNode], TimedNode]) -> SemanticGraph:
        """A copy whose every timed node is fn(node), applied in canonical order."""
        return replace(self, **{section: [fn(n) for n in getattr(self, section)] for section in TIMED_SECTIONS})

    def node_types(self) -> dict[str, str]:
        """Relation endpoint id -> node type, built once per call.

        The visit id maps to "visit_event" when the graph has a visit; a
        duplicated node id maps to the type of its first node.
        """
        types = {VISIT_EVENT_ID: "visit_event"} if self.visit_event is not None else {}
        for kind, _section, _i, node in self.nodes():
            types.setdefault(node.id, kind)
        return types

    def node_by_id(self) -> dict[str, Node]:
        """Node id -> node; the first node of a duplicated id wins."""
        by_id: dict[str, Node] = {}
        for _kind, _section, _i, node in self.nodes():
            by_id.setdefault(node.id, node)
        return by_id


def node_name(node: Node) -> str:
    """The text that names a node: a diagnosis label, symptom, treatment name or condition."""
    return getattr(node, _NAME_FIELDS[type(node)])


@dataclass(frozen=True)
class Violation:
    """One schema violation found by validate_graph."""

    code: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message} [{self.code}]"


def validate_graph(g: SemanticGraph) -> list[Violation]:
    """Check every schema invariant; an empty list means the graph is valid.

    Violations are data, not failures: callers decide whether to refuse,
    repair, or log.
    """
    out: list[Violation] = []

    def bad(code: str, path: str, message: str) -> None:
        out.append(Violation(code, path, message))

    # Duration pool: unique ids, positive spans.
    seen_durations: set[str] = set()
    for i, d in enumerate(g.durations):
        path = f"durations[{i}]"
        if d.id in seen_durations:
            bad("duplicate_duration_id", path, f"duplicate duration id {d.id!r}")
        seen_durations.add(d.id)
        if d.span_days < 1:
            bad("nonpositive_span", path, f"span_days must be >= 1, got {d.span_days}")

    # Node ids: unique across all node lists, never the reserved visit id.
    seen_nodes: set[str] = set()
    for _kind, section, i, node in g.nodes():
        path = f"{section}[{i}]"
        if node.id in seen_nodes:
            bad("duplicate_node_id", path, f"duplicate node id {node.id!r}")
        if node.id == VISIT_EVENT_ID:
            bad("reserved_node_id", path, f"node id {VISIT_EVENT_ID!r} is reserved")
        seen_nodes.add(node.id)

    # Duration references must resolve to the pool.
    for _kind, section, i, node in g.nodes():
        if section not in TIMED_SECTIONS:
            continue
        for dur_id in node.duration_ids:
            if dur_id not in seen_durations:
                bad(
                    "dangling_duration",
                    f"{section}[{i}].duration_ids",
                    f"duration id {dur_id!r} not in pool",
                )

    for i, node in enumerate(g.diagnoses):
        if not node.label.strip():
            bad("empty_diagnosis_label", f"diagnoses[{i}].label", "diagnosis label is empty")
    for i, node in enumerate(g.past_history):
        if not node.condition.strip():
            bad("empty_condition", f"past_history[{i}].condition", "condition is empty")
    for i, node in enumerate(g.treatments):
        if node.route is not None and node.route not in ROUTE_VOCABULARY:
            bad(
                "bad_route",
                f"treatments[{i}].route",
                f"route {node.route!r} not in controlled vocabulary",
            )
    for i, node in enumerate(g.symptoms):
        for j, ctx in enumerate(node.contexts):
            if not ctx.present_fields():
                bad(
                    "empty_steb_frame",
                    f"symptoms[{i}].contexts[{j}]",
                    "STEB frame has no fields",
                )

    if g.visit_event is None:
        bad("missing_visit_event", "visit_event", "graph must carry exactly one visit event")

    # Case attributes.
    if g.attributes.demographics.age < 0:
        bad("negative_age", "demographics.age", f"age must be >= 0, got {g.attributes.demographics.age}")
    for key in TEST_RESULT_KEYS:
        if key not in g.attributes.test_results:
            bad("missing_test_key", f"test_results.{key}", f"required key {key!r} absent")
    for key in g.attributes.test_results:
        if key not in TEST_RESULT_KEYS:
            bad("unexpected_test_key", f"test_results.{key}", f"unknown key {key!r}")

    # Relations: resolvable endpoints, legal pairs, no duplicate triples.
    node_types = g.node_types()
    seen_triples: set[tuple[str, str, str]] = set()
    for i, rel in enumerate(g.relations):
        path = f"relations[{i}]"
        if rel.relation_type not in RELATION_TYPES:
            bad("unknown_relation_type", path, f"unknown relation type {rel.relation_type!r}")
            continue
        src_type = node_types.get(rel.source_id)
        tgt_type = node_types.get(rel.target_id)
        if src_type is None:
            bad("dangling_relation", path, f"source id {rel.source_id!r} unresolvable")
        if tgt_type is None:
            bad("dangling_relation", path, f"target id {rel.target_id!r} unresolvable")
        if src_type is not None and tgt_type is not None:
            if (rel.relation_type, src_type, tgt_type) not in ALLOWED_RELATION_PAIRS:
                bad(
                    "illegal_pair",
                    path,
                    f"{rel.relation_type} from {src_type} to {tgt_type} is not an allowed pair",
                )
        if rel.triple() in seen_triples:
            bad("duplicate_relation", path, f"duplicate relation {rel.triple()}")
        seen_triples.add(rel.triple())

    return out


def relation_is_legal(g: SemanticGraph, rel: Relation) -> bool:
    """True iff both endpoints resolve and the typed pair is allowed."""
    node_types = g.node_types()
    src_type = node_types.get(rel.source_id)
    tgt_type = node_types.get(rel.target_id)
    if src_type is None or tgt_type is None:
        return False
    return (rel.relation_type, src_type, tgt_type) in ALLOWED_RELATION_PAIRS
