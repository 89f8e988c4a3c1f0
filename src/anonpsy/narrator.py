"""Graph-conditioned narrative generation.

Planning is fully deterministic: durations define a global timeline, symptoms
group into (duration, diagnosis) blocks, co-treatments merge into regimen
entries, induced clusters follow etiologic edges, and a ledger guarantees
each item is narrated at most once. Surface realization uses the model for
the lead paragraph and per-symptom episode sentences, with deterministic
fallbacks so a case is never emitted half-finished.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field

from .converter import CaseNarrative
from .gateway import VALIDATED_ATTEMPTS, LlmGateway, validated_call
from .model import Node, SemanticGraph, SymptomNode, TreatmentNode, frame_text, node_name
from .textproc import data_lines, spell_number, split_sentences
from .yamlio import safe_dump

_ADMISSION_SETTINGS = ("inpatient", "emergency", "hospital")
_FAR_PAST = -(10**9)


class NarrationError(RuntimeError):
    pass


# --- timeline phrasing -------------------------------------------------------


def time_phrase(offset_days: int, lexicon: str) -> str:
    """Human-readable phrase for a day offset.

    Granularity: |d| < 14 days, < 60 weeks, < 730 months, else years, with
    nearest-unit rounding and promotion of twelve-plus months to years.
    """
    if lexicon not in ("admission", "generic"):
        raise ValueError(f"unknown lexicon {lexicon!r}")
    if offset_days == 0:
        return "on the day of admission" if lexicon == "admission" else "at the time of evaluation"
    magnitude = abs(offset_days)
    before = offset_days < 0
    if magnitude < 14:
        unit, quantity = "day", magnitude
    elif magnitude < 60:
        unit, quantity = "week", int(magnitude / 7 + 0.5)
    elif magnitude < 730:
        quantity = int(magnitude / 30 + 0.5)
        if quantity >= 12:
            unit, quantity = "year", int(magnitude / 365 + 0.5)
        else:
            unit = "month"
    else:
        unit, quantity = "year", int(magnitude / 365 + 0.5)

    if unit == "day" and quantity == 1:
        if lexicon == "admission":
            return "the day before admission" if before else "the day after admission"
        return "one day earlier" if before else "one day later"
    noun = unit if quantity == 1 else f"{unit}s"
    direction = ("before admission" if before else "after admission") if lexicon == "admission" else (
        "earlier" if before else "later"
    )
    return f"{spell_number(quantity)} {noun} {direction}"


def choose_lexicon(g: SemanticGraph) -> str:
    setting = (g.visit_event.setting if g.visit_event else "").lower()
    if any(word in setting for word in _ADMISSION_SETTINGS):
        return "admission"
    return "generic"


# --- outline planning --------------------------------------------------------


@dataclass
class InducedCluster:
    source_id: str
    diagnosis_id: str
    symptom_ids: list[str] = field(default_factory=list)
    treatment_ids: list[str] = field(default_factory=list)


@dataclass
class OutlineBlock:
    duration_id: str | None
    start_days: int
    end_days: int
    diagnosis_id: str | None
    symptom_ids: list[str] = field(default_factory=list)
    treatment_ids: list[str] = field(default_factory=list)
    induced: list[InducedCluster] = field(default_factory=list)


@dataclass
class PrepassEntry:
    node_id: str
    offset_days: int | None
    treatment_ids: list[str] = field(default_factory=list)


@dataclass
class TailPlan:
    past_history_ids: list[str] = field(default_factory=list)
    family_history: list[dict] = field(default_factory=list)
    day0_tests: dict[str, str] = field(default_factory=dict)


@dataclass
class LeadSummary:
    age: int
    sex: str
    setting: str
    arrival_mode: str
    reason: str
    pathway: str
    source: str
    visit_episode: str


@dataclass
class NarrativeOutline:
    lead_summary: LeadSummary
    prepass: list[PrepassEntry]
    blocks: list[OutlineBlock]
    tail: TailPlan
    graph: SemanticGraph
    lexicon: str

    def to_yaml(self) -> str:
        doc = {
            "lexicon": self.lexicon,
            "lead_summary": asdict(self.lead_summary),
            "prepass": [asdict(p) for p in self.prepass],
            "blocks": [asdict(b) for b in self.blocks],
            "tail": asdict(self.tail),
        }
        return safe_dump(doc, sort_keys=False, allow_unicode=True)


def plan_outline(g: SemanticGraph) -> NarrativeOutline:
    """Deterministically plan the narrative from the graph.

    Every symptom and treatment lands in exactly one outline location (block,
    induced cluster, or prepass); every past-history node lands in the prepass
    or the tail, never both.
    """
    pool = g.durations_by_id()
    node_types = g.node_types()
    manifests: dict[str, list[str]] = {}
    treatment_targets: dict[str, list[str]] = {}
    induces: list[tuple[str, str]] = []
    treats_past: dict[str, list[str]] = {}
    for rel in g.relations:
        if rel.relation_type == "MANIFESTS_AS":
            manifests.setdefault(rel.source_id, []).append(rel.target_id)
        elif rel.relation_type == "TREATMENT_OF":
            treatment_targets.setdefault(rel.source_id, []).append(rel.target_id)
            if node_types.get(rel.target_id) == "past_history":
                treats_past.setdefault(rel.target_id, []).append(rel.source_id)
        elif rel.relation_type == "INDUCES":
            induces.append((rel.source_id, rel.target_id))

    diagnosis_order = {d.id: i for i, d in enumerate(g.diagnoses)}

    # Effective diagnosis targets: symptom targets resolve through the
    # symptom's own diagnosis so treatments can join diagnosis blocks.
    def effective_diagnoses(treatment_id: str) -> set[str]:
        out: set[str] = set()
        for target in treatment_targets.get(treatment_id, []):
            if target in diagnosis_order:
                out.add(target)
            elif node_types.get(target) == "symptom":
                out.update(manifests.get(target, []))
        return out

    consumed: set[str] = set()

    # Preliminary pass: past history that induces a diagnosis or is treated.
    prepass: list[PrepassEntry] = []
    induces_sources = {src for src, _ in induces}
    for node in g.past_history:
        linked = node.id in induces_sources or node.id in treats_past
        if not linked:
            continue
        starts = [pool[d].offset_days for d in node.duration_ids if d in pool]
        offset = min(starts) if starts else None
        entry_treatments = [t for t in treats_past.get(node.id, []) if t not in consumed]
        consumed.update(entry_treatments)
        prepass.append(PrepassEntry(node_id=node.id, offset_days=offset, treatment_ids=entry_treatments))
    prepass.sort(key=lambda p: (p.offset_days if p.offset_days is not None else _FAR_PAST))

    ordered_durations = sorted(g.durations, key=lambda d: (d.offset_days, d.end_days, d.id))
    blocks: list[OutlineBlock] = []

    def treatments_for(diagnosis_id: str, duration_id: str) -> list[str]:
        out = []
        for t in g.treatments:
            if t.id in consumed or duration_id not in t.duration_ids:
                continue
            if diagnosis_id in effective_diagnoses(t.id):
                out.append(t.id)
        consumed.update(out)
        return out

    def build_clusters(members: list[str], duration_id: str) -> list[InducedCluster]:
        clusters: list[InducedCluster] = []
        seen: set[tuple[str, str]] = set()
        for member in members:
            for src, dx in induces:
                if src != member or (src, dx) in seen:
                    continue
                seen.add((src, dx))
                cluster_syms = [
                    s.id
                    for s in g.symptoms
                    if s.id not in consumed
                    and duration_id in s.duration_ids
                    and dx in manifests.get(s.id, [])
                ]
                consumed.update(cluster_syms)
                cluster_treats = treatments_for(dx, duration_id)
                clusters.append(
                    InducedCluster(
                        source_id=member,
                        diagnosis_id=dx,
                        symptom_ids=cluster_syms,
                        treatment_ids=cluster_treats,
                    )
                )
        return clusters

    for dur in ordered_durations:
        here = [s for s in g.symptoms if s.id not in consumed and dur.id in s.duration_ids]
        groups: dict[str | None, list[str]] = {}
        for s in here:
            linked = manifests.get(s.id, [])
            key = min(linked, key=lambda d: diagnosis_order.get(d, 10**6)) if linked else None
            groups.setdefault(key, []).append(s.id)
        group_order = sorted(
            groups, key=lambda k: (k is None, diagnosis_order.get(k, 10**6) if k else 0)
        )
        for diagnosis_id in group_order:
            # An earlier group's induced cluster may have claimed some of these.
            symptom_ids = [s for s in groups[diagnosis_id] if s not in consumed]
            consumed.update(symptom_ids)
            treatment_ids = treatments_for(diagnosis_id, dur.id) if diagnosis_id else []
            clusters = build_clusters([*symptom_ids, *treatment_ids], dur.id)
            if not symptom_ids and not treatment_ids and not clusters:
                continue
            blocks.append(
                OutlineBlock(
                    duration_id=dur.id,
                    start_days=dur.offset_days,
                    end_days=dur.end_days,
                    diagnosis_id=diagnosis_id,
                    symptom_ids=symptom_ids,
                    treatment_ids=treatment_ids,
                    induced=clusters,
                )
            )

    # Leftover treatments: anchor each at its earliest duration (or day 0) so
    # coverage stays total even without a diagnosis block to join.
    for t in g.treatments:
        if t.id in consumed:
            continue
        consumed.add(t.id)
        starts = [(pool[d].offset_days, pool[d].end_days, d) for d in t.duration_ids if d in pool]
        if starts:
            start, end, dur_id = min(starts)
        else:
            start, end, dur_id = 0, 1, None
        effective = effective_diagnoses(t.id)
        diagnosis_id = (
            min(effective, key=lambda d: diagnosis_order.get(d, 10**6)) if effective else None
        )
        clusters = build_clusters([t.id], dur_id) if dur_id else []
        blocks.append(
            OutlineBlock(
                duration_id=dur_id,
                start_days=start,
                end_days=end,
                diagnosis_id=diagnosis_id,
                symptom_ids=[],
                treatment_ids=[t.id],
                induced=clusters,
            )
        )

    # Leftover symptoms (no durations at all): unattributed block at day 0.
    leftovers = [s.id for s in g.symptoms if s.id not in consumed]
    if leftovers:
        consumed.update(leftovers)
        blocks.append(
            OutlineBlock(
                duration_id=None,
                start_days=0,
                end_days=1,
                diagnosis_id=None,
                symptom_ids=leftovers,
            )
        )

    blocks.sort(key=lambda b: b.start_days)

    prepass_ids = {p.node_id for p in prepass}
    tail = TailPlan(
        past_history_ids=[p.id for p in g.past_history if p.id not in prepass_ids],
        family_history=[
            {"member": f.member, "condition": f.condition} for f in g.attributes.family_history
        ],
        day0_tests={k: v for k, v in g.attributes.test_results.items() if v.strip()},
    )

    demo = g.attributes.demographics
    visit = g.visit_event
    lead = LeadSummary(
        age=demo.age,
        sex=demo.sex,
        setting=visit.setting if visit else "",
        arrival_mode=visit.arrival_mode if visit else "",
        reason=visit.reason_for_visit if visit else "",
        pathway=(visit.pathway if visit and visit.pathway else ""),
        source=visit.source_of_information if visit else "",
        visit_episode=visit.visit_episode if visit else "",
    )
    return NarrativeOutline(
        lead_summary=lead,
        prepass=prepass,
        blocks=blocks,
        tail=tail,
        graph=g,
        lexicon=choose_lexicon(g),
    )


# --- realization gates -------------------------------------------------------

_FIRST_SECOND_PERSON = re.compile(r"\b(i|me|my|mine|we|us|our|you|your)\b", re.IGNORECASE)
_TITLE_NAME = re.compile(r"\b(?:Mr|Mrs|Ms|Dr|Prof)\.?\s+[A-Z][a-z]")
_WORD = re.compile(r"[A-Za-z][A-Za-z'-]*")
_ROLE_LINE = re.compile(r"^\s*(system|assistant|user|output|response)\s*[:>]", re.IGNORECASE)


def _load_name_whitelist() -> frozenset[str]:
    return frozenset(line.lower() for line in data_lines("name_whitelist.txt"))


_NAME_WHITELIST = _load_name_whitelist()


def strip_meta_text(text: str) -> str:
    """Drop role-prefixed lines and unwrap surrounding quotation marks."""
    lines = [line for line in text.strip().splitlines() if not _ROLE_LINE.match(line)]
    cleaned = "\n".join(lines).strip()
    for quote in ('"', "'"):
        if len(cleaned) >= 2 and cleaned.startswith(quote) and cleaned.endswith(quote):
            cleaned = cleaned[1:-1].strip()
    return cleaned


# Capitalized function words that legitimately start sentences or clauses;
# they never open a personal-name bigram.
_CAP_STOPWORDS = frozenset(
    """the a an his her their its on at in after before during she he they it
    when while since one two three no not within""".split()
)


def find_identifier_violation(text: str) -> str | None:
    """Detect proper-name-like tokens: titled names and capitalized bigrams
    absent from the clinical whitelist."""
    if _TITLE_NAME.search(text):
        return "titled personal name"
    words = _WORD.findall(text)
    for w1, w2 in zip(words, words[1:]):
        if len(w1) > 1 and len(w2) > 1 and w1[0].isupper() and w2[0].isupper():
            if w1.lower() in _CAP_STOPWORDS:
                continue
            if f"{w1} {w2}".lower() not in _NAME_WHITELIST:
                return f"capitalized bigram {w1} {w2}"
    return None


def _lead_violation(text: str) -> str | None:
    sentences = split_sentences(text)
    if not 2 <= len(sentences) <= 5:
        return f"{len(sentences)} sentences (need 2-5)"
    if _FIRST_SECOND_PERSON.search(text):
        return "first/second person"
    return find_identifier_violation(text)


def _lead_check(text: str, reject) -> str | None:
    candidate = strip_meta_text(text)
    violation = _lead_violation(candidate)
    return candidate if violation is None else reject(violation)


def narrate_lead(outline: NarrativeOutline, gw: LlmGateway) -> str:
    """Realize the lead paragraph; hard-fails the case after exhausted retries."""
    summary = outline.lead_summary
    out = validated_call(
        gw,
        "lead_paragraph",
        {
            "age": str(summary.age),
            "sex": summary.sex,
            "setting": summary.setting,
            "arrival_mode": summary.arrival_mode,
            "reason": summary.reason,
            "pathway": summary.pathway,
            "source": summary.source,
            "visit_episode": summary.visit_episode,
        },
        _lead_check,
    )
    return out.get(
        lambda reason: NarrationError(f"lead paragraph rejected after {VALIDATED_ATTEMPTS} attempts: {reason}")
    )


def _capitalize(phrase: str) -> str:
    return phrase[0].upper() + phrase[1:] if phrase else phrase


def _treatment_phrase(t: TreatmentNode) -> str:
    bits = [t.name]
    if t.dose:
        bits.append(t.dose)
    if t.route:
        bits.append(t.route)
    if t.frequency:
        bits.append(t.frequency)
    phrase = " ".join(bits)
    if t.outcome:
        phrase += f" (outcome: {t.outcome})"
    return phrase


def _fallback_symptom_sentence(node: SymptomNode, phrase: str) -> str:
    parts = [f"{_capitalize(phrase)}, the patient experienced {node.symptom}"]
    ctx = node.contexts[0] if node.contexts else None
    if ctx is not None:
        if ctx.situation:
            parts.append(f"in the context of {ctx.situation.rstrip('.')}")
        if ctx.thought:
            parts.append(f"with the thought that {ctx.thought.rstrip('.')}")
        if ctx.emotion:
            parts.append(f"feeling {ctx.emotion.rstrip('.')}")
        if ctx.behavior:
            parts.append(f"responding by {ctx.behavior.rstrip('.')}")
    return ", ".join(parts) + "."


def narrate_history(outline: NarrativeOutline, gw: LlmGateway) -> str:
    """Realize the chronological history in outline order.

    Every sentence ties back to an outline entry; the ledger of narrated items
    is consulted before each narration so nothing is told twice.
    """
    by_id = outline.graph.node_by_id()
    lexicon = outline.lexicon
    ledger: set[str] = set()

    def claimed(item_id: str) -> bool:
        """True when already narrated; otherwise records the item."""
        if item_id in ledger:
            return True
        ledger.add(item_id)
        return False

    paragraphs: list[str] = []

    prepass_sentences: list[str] = []
    for entry in outline.prepass:
        node = by_id.get(entry.node_id)
        if node is None or claimed(entry.node_id):
            continue
        phrase = (
            time_phrase(entry.offset_days, lexicon) if entry.offset_days is not None else "previously"
        )
        sentence = f"{_capitalize(phrase)}, there was a history of {node_name(node)}"
        treatments = [by_id[t] for t in entry.treatment_ids if t in by_id and not claimed(t)]
        if treatments:
            sentence += ", treated with " + " and ".join(_treatment_phrase(t) for t in treatments)
        prepass_sentences.append(sentence + ".")
    if prepass_sentences:
        paragraphs.append(" ".join(prepass_sentences))

    for block in outline.blocks:
        sentences: list[str] = []
        phrase = time_phrase(block.start_days, lexicon)
        for symptom_id in block.symptom_ids:
            node = by_id.get(symptom_id)
            if node is None or claimed(symptom_id):
                continue
            sentences.append(_symptom_sentence(node, phrase, gw))
        treatments = [by_id[t] for t in block.treatment_ids if t in by_id and not claimed(t)]
        if treatments:
            label = node_name(by_id[block.diagnosis_id]) if block.diagnosis_id in by_id else "the presenting problems"
            regimen = " and ".join(_treatment_phrase(t) for t in treatments)
            sentences.append(f"{_capitalize(phrase)}, treatment for {label} included {regimen}.")
        for cluster in block.induced:
            sentences.extend(_cluster_sentences(cluster, phrase, by_id, claimed))
        if sentences:
            paragraphs.append(" ".join(sentences))

    return "\n\n".join(paragraphs)


def _symptom_sentence(node: SymptomNode, phrase: str, gw: LlmGateway) -> str:
    if not node.contexts:
        return f"{_capitalize(phrase)}, the patient experienced {node.symptom}."

    def one_clean_sentence(text: str, reject) -> str | None:
        candidate = strip_meta_text(text)
        if len(split_sentences(candidate)) == 1 and not find_identifier_violation(candidate):
            return candidate
        return None

    # A gateway failure falls back too.
    out = validated_call(
        gw,
        "steb_sentence",
        {"node_id": node.id, "symptom": node.symptom, "time_phrase": phrase, "frame": frame_text(*node.contexts)},
        one_clean_sentence,
    )
    return out.value if out.value is not None else _fallback_symptom_sentence(node, phrase)


def _cluster_sentences(cluster, phrase, by_id: dict[str, Node], claimed) -> list[str]:
    label = node_name(by_id[cluster.diagnosis_id]) if cluster.diagnosis_id in by_id else "a secondary condition"
    source_name = node_name(by_id[cluster.source_id]) if cluster.source_id in by_id else cluster.source_id
    sentence = f"{_capitalize(phrase)}, {label} developed in relation to {source_name}"
    members = [node_name(by_id[s]) for s in cluster.symptom_ids if s in by_id and not claimed(s)]
    if members:
        sentence += ", manifesting as " + " and ".join(members)
    treatments = [_treatment_phrase(by_id[t]) for t in cluster.treatment_ids if t in by_id and not claimed(t)]
    if treatments:
        sentence += ", managed with " + " and ".join(treatments)
    return [sentence + "."]


def _fallback_tail(outline: NarrativeOutline, conditions: list[str]) -> str:
    sentences = []
    if conditions:
        sentences.append("The history was otherwise notable for " + " and ".join(conditions) + ".")
    if outline.tail.family_history:
        bits = [f"{f['member']} with {f['condition']}" for f in outline.tail.family_history]
        sentences.append("Family history included " + " and ".join(bits) + ".")
    if outline.tail.day0_tests:
        bits = [f"{key} {value}" for key, value in outline.tail.day0_tests.items()]
        sentences.append("On day-0 assessment: " + "; ".join(bits) + ".")
    return " ".join(sentences[:4])


def append_tail(draft: str, outline: NarrativeOutline, gw: LlmGateway) -> str:
    """Append the closing 1-4 sentences; the draft prefix is immutable."""
    by_id = outline.graph.node_by_id()
    conditions = [node_name(by_id[i]) for i in outline.tail.past_history_ids if i in by_id]
    family = "; ".join(f"{f['member']}: {f['condition']}" for f in outline.tail.family_history)
    tests = "; ".join(f"{key}: {value}" for key, value in outline.tail.day0_tests.items())
    if not conditions and not family and not tests:
        return draft

    def clean_tail(text: str, reject) -> str | None:
        appended = text[len(draft):].strip() if text.startswith(draft) else ""
        if appended and 1 <= len(split_sentences(appended)) <= 4 and not find_identifier_violation(appended):
            return text.rstrip()
        return None

    # A gateway failure falls back to the deterministic tail too.
    out = validated_call(
        gw,
        "tail_append",
        {"draft": draft, "past_history": "; ".join(conditions), "family_history": family, "tests": tests},
        clean_tail,
    )
    if out.value is not None:
        return out.value
    tail = _fallback_tail(outline, conditions)
    return f"{draft}\n\n{tail}" if tail else draft


def generate(outline: NarrativeOutline, gw: LlmGateway, case_id: str = "case") -> CaseNarrative:
    """Full realization of a planned outline: lead, chronological history, appended tail."""
    lead = narrate_lead(outline, gw)
    history = narrate_history(outline, gw)
    draft = f"{lead}\n\n{history}" if history else lead
    final = append_tail(draft, outline, gw)
    return CaseNarrative(
        case_id=case_id,
        text=final,
        ground_truth_diagnoses=[d.label for d in outline.graph.diagnoses],
    )
