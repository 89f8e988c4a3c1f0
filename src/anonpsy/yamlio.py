"""Bit-stable YAML serialization of semantic graphs.

The emitter is hand-rolled so that equal graphs always produce byte-identical
documents: fixed key order, 2-space indent, LF line endings, one scalar per
line, flow style only for id lists. The parser is strict: unknown keys, type
mismatches, and invariant violations raise with the offending path.
"""

from __future__ import annotations

import json
import re

import yaml

from .model import (
    TEST_RESULT_KEYS,
    CaseAttributes,
    Demographics,
    DiagnosisNode,
    DurationInterval,
    FamilyHistoryEntry,
    PastHistoryNode,
    Relation,
    SemanticGraph,
    StebContext,
    SymptomNode,
    TreatmentNode,
    Violation,
    VisitEvent,
    validate_graph,
)


class GraphSerializationError(ValueError):
    """Raised when an invalid graph is handed to serialize_yaml."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"refusing to serialize invalid graph: {lines}{more}")


class GraphParseError(ValueError):
    """Raised on malformed documents; carries the path of the bad element."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


_PLAIN_SCALAR = re.compile(r"[A-Za-z0-9][A-Za-z0-9 _'./()%+=°,;-]*")
_PLAIN_FLOW = re.compile(r"[A-Za-z0-9][A-Za-z0-9 _'./%+-]*")
_YAML_WORDS = frozenset({"true", "false", "null", "yes", "no", "on", "off", "~"})
_NUMBER_LIKE = re.compile(r"[-+]?\d+(\.\d+)?")

# Characters JSON leaves raw but YAML either forbids (DEL, C1) or treats as
# line breaks inside double-quoted scalars (NEL, LS, PS).
_YAML_UNSAFE = re.compile("[\x7f-\x9f  ￾￿]")


# libyaml parses, but its emitter and its scanner on hand-written text differ
# from pure PyYAML (astral escapes, line folding, trailing tabs). So it reads
# only YAML this program wrote or ships; dumps and model replies stay pure.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_STR_TAG = "tag:yaml.org,2002:str"
_RESOLVER = yaml.resolver.Resolver()


def load_yaml(text: str):
    """Load YAML the program itself wrote or packages, through libyaml if present."""
    return yaml.load(text, Loader=_Loader)


def _plain_is_str(value: str) -> bool:
    """True when a plain scalar reads back as this string, not a bool, number or date."""
    return _RESOLVER.resolve(yaml.ScalarNode, value, (True, False)) == _STR_TAG


def _quote(value: str) -> str:
    out = json.dumps(value, ensure_ascii=False)
    return _YAML_UNSAFE.sub(lambda m: "\\u%04x" % ord(m.group(0)), out)


def _scalar(value) -> str:
    """Render one scalar deterministically; strings fall back to JSON quoting."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if not isinstance(value, str):
        raise TypeError(f"unsupported scalar type {type(value).__name__}")
    if (
        value
        and _PLAIN_SCALAR.fullmatch(value)
        and value == value.strip()
        and value.lower() not in _YAML_WORDS
        and not _NUMBER_LIKE.fullmatch(value)
        and ": " not in value
        and " #" not in value
        and not value.endswith(":")
        and _plain_is_str(value)  # guard against octal/hex/date lookalikes
    ):
        return value
    return _quote(value)


def _flow_item(value: str) -> str:
    if (
        value
        and _PLAIN_FLOW.fullmatch(value)
        and value == value.strip()
        and value.lower() not in _YAML_WORDS
        and _plain_is_str(value)
    ):
        return value
    return _quote(value)


def _flow_list(values: list[str]) -> str:
    return "[" + ", ".join(_flow_item(v) for v in values) + "]"


class _Emitter:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def kv(self, indent: int, key: str, value) -> None:
        self.lines.append(f"{'  ' * indent}{key}: {_scalar(value)}")

    def raw(self, indent: int, text: str) -> None:
        self.lines.append(f"{'  ' * indent}{text}")

    def mapping_entry(self, indent: int, pairs: list[tuple[str, str]]) -> None:
        """Emit a block-list mapping item: '- k: v' then aligned keys."""
        first_key, first_val = pairs[0]
        self.raw(indent, f"- {first_key}: {first_val}")
        for key, val in pairs[1:]:
            self.raw(indent + 1, f"{key}: {val}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def serialize_yaml(g: SemanticGraph) -> str:
    """Serialize a valid graph to its canonical YAML form.

    Equal graphs yield byte-identical text. Invalid graphs are refused with
    the full validation report attached.
    """
    violations = validate_graph(g)
    if violations:
        raise GraphSerializationError(violations)

    em = _Emitter()
    demo = g.attributes.demographics
    em.raw(0, "demographics:")
    em.kv(1, "age", demo.age)
    em.kv(1, "sex", demo.sex)
    em.kv(1, "ethnicity", demo.ethnicity)
    em.kv(1, "occupation", demo.occupation)
    em.kv(1, "family_structure", demo.family_structure)

    em.raw(0, "test_results:")
    for key in TEST_RESULT_KEYS:
        em.kv(1, key, g.attributes.test_results.get(key, ""))

    if not g.attributes.family_history:
        em.raw(0, "family_history: []")
    else:
        em.raw(0, "family_history:")
        for entry in g.attributes.family_history:
            em.mapping_entry(
                1,
                [
                    ("member", _scalar(entry.member)),
                    ("condition", _scalar(entry.condition)),
                    ("evidence_text", _scalar(entry.evidence_text)),
                ],
            )

    if not g.diagnoses:
        em.raw(0, "diagnoses: []")
    else:
        em.raw(0, "diagnoses:")
        for node in g.diagnoses:
            em.mapping_entry(1, [("id", _scalar(node.id)), ("label", _scalar(node.label))])

    if not g.symptoms:
        em.raw(0, "symptoms: []")
    else:
        em.raw(0, "symptoms:")
        for node in g.symptoms:
            em.mapping_entry(
                1,
                [
                    ("id", _scalar(node.id)),
                    ("symptom", _scalar(node.symptom)),
                    ("pattern", _scalar(node.pattern)),
                    ("current_symptom", _scalar(node.current_symptom)),
                    ("evidence_text", _scalar(node.evidence_text)),
                ],
            )
            if not node.contexts:
                em.raw(2, "contexts: []")
            else:
                em.raw(2, "contexts:")
                for ctx in node.contexts:
                    pairs = [(name, _scalar(getattr(ctx, name))) for name in ctx.present_fields()]
                    em.mapping_entry(3, pairs)
            em.raw(2, f"duration_ids: {_flow_list(node.duration_ids)}")

    if not g.treatments:
        em.raw(0, "treatments: []")
    else:
        em.raw(0, "treatments:")
        for node in g.treatments:
            pairs = [
                ("id", _scalar(node.id)),
                ("treatment_type", _scalar(node.treatment_type)),
                ("name", _scalar(node.name)),
            ]
            for key in ("dose", "route", "frequency", "outcome"):
                value = getattr(node, key)
                if value is not None:
                    pairs.append((key, _scalar(value)))
            pairs.append(("duration_ids", _flow_list(node.duration_ids)))
            em.mapping_entry(1, pairs)

    if not g.past_history:
        em.raw(0, "past_history: []")
    else:
        em.raw(0, "past_history:")
        for node in g.past_history:
            em.mapping_entry(
                1,
                [
                    ("id", _scalar(node.id)),
                    ("condition", _scalar(node.condition)),
                    ("duration_ids", _flow_list(node.duration_ids)),
                ],
            )

    visit = g.visit_event
    em.raw(0, "visit_event:")
    em.kv(1, "setting", visit.setting)
    em.kv(1, "arrival_mode", visit.arrival_mode)
    em.kv(1, "legal_status", visit.legal_status)
    em.kv(1, "reason_for_visit", visit.reason_for_visit)
    em.raw(1, f"safety_flags: {_flow_list(visit.safety_flags)}")
    em.kv(1, "source_of_information", visit.source_of_information)
    if visit.pathway is not None:
        em.kv(1, "pathway", visit.pathway)
    em.kv(1, "visit_episode", visit.visit_episode)

    if not g.relations:
        em.raw(0, "relations: []")
    else:
        em.raw(0, "relations:")
        for rel in g.relations:
            em.mapping_entry(
                1,
                [
                    ("relation_type", _scalar(rel.relation_type)),
                    ("source_id", _scalar(rel.source_id)),
                    ("target_id", _scalar(rel.target_id)),
                ],
            )

    if not g.durations:
        em.raw(0, "durations: []")
    else:
        em.raw(0, "durations:")
        for dur in g.durations:
            pairs = [
                ("id", _scalar(dur.id)),
                ("offset_days", _scalar(dur.offset_days)),
                ("span_days", _scalar(dur.span_days)),
                ("virtual", _scalar(dur.virtual)),
            ]
            if dur.age_anchored:
                pairs.append(("age_anchored", "true"))
            em.mapping_entry(1, pairs)

    return em.text()


# --- parsing ---------------------------------------------------------------

TOP_LEVEL_KEYS = (
    "demographics",
    "test_results",
    "family_history",
    "diagnoses",
    "symptoms",
    "treatments",
    "past_history",
    "visit_event",
    "relations",
    "durations",
)


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise GraphParseError(path, f"expected mapping, got {type(obj).__name__}")
    return obj


def _require_list(obj, path: str) -> list:
    if obj is None:
        return []
    if not isinstance(obj, list):
        raise GraphParseError(path, f"expected list, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise GraphParseError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise GraphParseError(f"{path}.{key}", "missing required key")


def _get_str(obj: dict, key: str, path: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise GraphParseError(f"{path}.{key}", f"expected string, got {type(value).__name__}")
    return value


def _get_opt_str(obj: dict, key: str, path: str) -> str | None:
    if key not in obj or obj[key] is None:
        return None
    return _get_str(obj, key, path)


def _get_int(obj: dict, key: str, path: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphParseError(f"{path}.{key}", f"expected integer, got {type(value).__name__}")
    return value


def _get_bool(obj: dict, key: str, path: str, default: bool | None = None) -> bool:
    if key not in obj and default is not None:
        return default
    value = obj.get(key)
    if not isinstance(value, bool):
        raise GraphParseError(f"{path}.{key}", f"expected boolean, got {type(value).__name__}")
    return value


def _get_str_list(obj: dict, key: str, path: str) -> list[str]:
    values = _require_list(obj.get(key), f"{path}.{key}")
    out = []
    for i, value in enumerate(values):
        if not isinstance(value, str):
            raise GraphParseError(f"{path}.{key}[{i}]", f"expected string, got {type(value).__name__}")
        out.append(value)
    return out


def parse_yaml(text: str) -> SemanticGraph:
    """Parse canonical graph YAML back into a SemanticGraph.

    Inverse of serialize_yaml on its image; rejects unknown keys and type
    mismatches with the offending path.
    """
    try:
        doc = load_yaml(text)
    except yaml.YAMLError as exc:
        raise GraphParseError("$", f"not valid YAML: {exc}") from exc
    doc = _require_mapping(doc, "$")
    _check_keys(doc, "$", TOP_LEVEL_KEYS)

    demo_doc = _require_mapping(doc["demographics"], "demographics")
    _check_keys(demo_doc, "demographics", ("age", "sex", "ethnicity", "occupation", "family_structure"))
    demographics = Demographics(
        age=_get_int(demo_doc, "age", "demographics"),
        sex=_get_str(demo_doc, "sex", "demographics"),
        ethnicity=_get_str(demo_doc, "ethnicity", "demographics"),
        occupation=_get_str(demo_doc, "occupation", "demographics"),
        family_structure=_get_str(demo_doc, "family_structure", "demographics"),
    )

    tests_doc = _require_mapping(doc["test_results"], "test_results")
    _check_keys(tests_doc, "test_results", TEST_RESULT_KEYS)
    test_results = {key: _get_str(tests_doc, key, "test_results") for key in TEST_RESULT_KEYS}

    family_history = []
    for i, entry in enumerate(_require_list(doc["family_history"], "family_history")):
        path = f"family_history[{i}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, path, ("member", "condition", "evidence_text"))
        family_history.append(
            FamilyHistoryEntry(
                member=_get_str(entry, "member", path),
                condition=_get_str(entry, "condition", path),
                evidence_text=_get_str(entry, "evidence_text", path),
            )
        )

    diagnoses = []
    for i, entry in enumerate(_require_list(doc["diagnoses"], "diagnoses")):
        path = f"diagnoses[{i}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, path, ("id", "label"))
        diagnoses.append(DiagnosisNode(id=_get_str(entry, "id", path), label=_get_str(entry, "label", path)))

    symptoms = []
    for i, entry in enumerate(_require_list(doc["symptoms"], "symptoms")):
        path = f"symptoms[{i}]"
        entry = _require_mapping(entry, path)
        _check_keys(
            entry,
            path,
            ("id", "symptom", "pattern", "current_symptom", "evidence_text", "contexts", "duration_ids"),
        )
        contexts = []
        for j, ctx in enumerate(_require_list(entry["contexts"], f"{path}.contexts")):
            ctx_path = f"{path}.contexts[{j}]"
            ctx = _require_mapping(ctx, ctx_path)
            _check_keys(ctx, ctx_path, (), StebContext.FIELD_ORDER)
            contexts.append(
                StebContext(
                    situation=_get_opt_str(ctx, "situation", ctx_path),
                    thought=_get_opt_str(ctx, "thought", ctx_path),
                    emotion=_get_opt_str(ctx, "emotion", ctx_path),
                    behavior=_get_opt_str(ctx, "behavior", ctx_path),
                )
            )
        symptoms.append(
            SymptomNode(
                id=_get_str(entry, "id", path),
                symptom=_get_str(entry, "symptom", path),
                pattern=_get_str(entry, "pattern", path),
                current_symptom=_get_bool(entry, "current_symptom", path),
                evidence_text=_get_str(entry, "evidence_text", path),
                contexts=contexts,
                duration_ids=_get_str_list(entry, "duration_ids", path),
            )
        )

    treatments = []
    for i, entry in enumerate(_require_list(doc["treatments"], "treatments")):
        path = f"treatments[{i}]"
        entry = _require_mapping(entry, path)
        _check_keys(
            entry,
            path,
            ("id", "treatment_type", "name", "duration_ids"),
            ("dose", "route", "frequency", "outcome"),
        )
        treatments.append(
            TreatmentNode(
                id=_get_str(entry, "id", path),
                treatment_type=_get_str(entry, "treatment_type", path),
                name=_get_str(entry, "name", path),
                dose=_get_opt_str(entry, "dose", path),
                route=_get_opt_str(entry, "route", path),
                frequency=_get_opt_str(entry, "frequency", path),
                outcome=_get_opt_str(entry, "outcome", path),
                duration_ids=_get_str_list(entry, "duration_ids", path),
            )
        )

    past_history = []
    for i, entry in enumerate(_require_list(doc["past_history"], "past_history")):
        path = f"past_history[{i}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, path, ("id", "condition", "duration_ids"))
        past_history.append(
            PastHistoryNode(
                id=_get_str(entry, "id", path),
                condition=_get_str(entry, "condition", path),
                duration_ids=_get_str_list(entry, "duration_ids", path),
            )
        )

    visit_doc = _require_mapping(doc["visit_event"], "visit_event")
    _check_keys(
        visit_doc,
        "visit_event",
        (
            "setting",
            "arrival_mode",
            "legal_status",
            "reason_for_visit",
            "safety_flags",
            "source_of_information",
            "visit_episode",
        ),
        ("pathway",),
    )
    visit_event = VisitEvent(
        setting=_get_str(visit_doc, "setting", "visit_event"),
        arrival_mode=_get_str(visit_doc, "arrival_mode", "visit_event"),
        legal_status=_get_str(visit_doc, "legal_status", "visit_event"),
        reason_for_visit=_get_str(visit_doc, "reason_for_visit", "visit_event"),
        safety_flags=_get_str_list(visit_doc, "safety_flags", "visit_event"),
        source_of_information=_get_str(visit_doc, "source_of_information", "visit_event"),
        pathway=_get_opt_str(visit_doc, "pathway", "visit_event"),
        visit_episode=_get_str(visit_doc, "visit_episode", "visit_event"),
    )

    relations = []
    for i, entry in enumerate(_require_list(doc["relations"], "relations")):
        path = f"relations[{i}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, path, ("relation_type", "source_id", "target_id"))
        relations.append(
            Relation(
                relation_type=_get_str(entry, "relation_type", path),
                source_id=_get_str(entry, "source_id", path),
                target_id=_get_str(entry, "target_id", path),
            )
        )

    durations = []
    for i, entry in enumerate(_require_list(doc["durations"], "durations")):
        path = f"durations[{i}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, path, ("id", "offset_days", "span_days", "virtual"), ("age_anchored",))
        span = _get_int(entry, "span_days", path)
        if span < 0:
            raise GraphParseError(f"{path}.span_days", "span_days < 0")
        durations.append(
            DurationInterval(
                id=_get_str(entry, "id", path),
                offset_days=_get_int(entry, "offset_days", path),
                span_days=span,
                virtual=_get_bool(entry, "virtual", path),
                age_anchored=_get_bool(entry, "age_anchored", path, default=False),
            )
        )

    return SemanticGraph(
        attributes=CaseAttributes(
            demographics=demographics,
            family_history=family_history,
            test_results=test_results,
        ),
        diagnoses=diagnoses,
        symptoms=symptoms,
        treatments=treatments,
        past_history=past_history,
        visit_event=visit_event,
        relations=relations,
        durations=durations,
    )
