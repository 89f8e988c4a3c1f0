"""Narrative-level perturbation: visit episode, STEB frames, MSE alignment.

All rewrites go through hard validators. The similarity gate rejects outputs
too close to the source text; the visit-event scaffold is immutable and its
rewrite may not contradict it; STEB rewrites may never introduce fields the
source frame lacked; the MSE editor must retain every objective domain
mentioned in the original paragraph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..gateway import LlmGateway, validated_call
from ..model import CaseAttributes, SemanticGraph, StebContext, SymptomNode, VisitEvent, frame_text
from ..textproc import trigram_jaccard
from ..yamlio import reply_mapping
from .config import PerturbConfig, load_contradiction_lexicon, load_mse_domains


@dataclass(frozen=True)
class GateResult:
    accepted: bool
    score: float


def similarity_gate(original: str, candidate: str, threshold: float) -> GateResult:
    """Reject iff trigram_jaccard(original, candidate) > threshold."""
    score = trigram_jaccard(original, candidate)
    return GateResult(accepted=score <= threshold, score=score)


def derive_scaffold(visit: VisitEvent) -> dict[str, str]:
    """Immutable presentation attributes; urgency derives from safety flags."""
    return {
        "legal_status": visit.legal_status,
        "arrival_mode": visit.arrival_mode,
        "setting": visit.setting,
        "urgency": "urgent" if visit.safety_flags else "routine",
    }


def _contradiction(scaffold: dict[str, str], text: str) -> str | None:
    """First scaffold-contradicting keyword found in the text, if any."""
    lowered = text.lower()
    lexicon = load_contradiction_lexicon()
    for field_name, value in scaffold.items():
        field_lexicon = lexicon.get(field_name, {})
        matched_key = None
        for key in sorted(field_lexicon, key=len, reverse=True):
            if key in value.lower():
                matched_key = key
                break
        if matched_key is None:
            continue
        for keyword in field_lexicon[matched_key]:
            if keyword.lower() in lowered:
                return f"{field_name}={value!r} contradicted by {keyword!r}"
    return None


def rewrite_visit_episode(
    g: SemanticGraph,
    gw: LlmGateway,
    cfg: PerturbConfig,
) -> tuple[VisitEvent, dict]:
    """Rewrite the visit episode text under the immutable scaffold.

    Candidates containing scaffold-contradicting keywords or failing the
    similarity gate trigger retries; exhausted retries keep the original.
    """
    visit = g.visit_event
    scaffold = derive_scaffold(visit)

    def rewrite(text: str, reject) -> VisitEvent | None:
        doc = reply_mapping(text, reject)
        if doc is None:
            return None
        if not isinstance(doc.get("visit_episode"), str):
            return reject("missing visit_episode")
        episode = doc["visit_episode"].strip()
        pathway = doc.get("pathway")
        pathway = pathway.strip() if isinstance(pathway, str) and pathway.strip() else visit.pathway
        conflict = _contradiction(scaffold, episode)
        if conflict:
            return reject(conflict)
        gate = similarity_gate(visit.visit_episode, episode, cfg.similarity_threshold)
        if not gate.accepted:
            return reject(f"similarity {gate.score:.3f} above threshold")
        return replace(visit, visit_episode=episode, pathway=pathway)

    out = validated_call(
        gw,
        "visit_rewrite",
        {
            **scaffold,
            "reason_for_visit": visit.reason_for_visit,
            "visit_episode": visit.visit_episode,
            "pathway": visit.pathway or "",
        },
        rewrite,
        attempts=cfg.max_retries,
    )
    if out.value is None:
        entry = {"step": "visit_episode", "rejected": out.rejected, "scaffold": scaffold, "fallback": "original kept"}
        return visit, entry
    entry = {"step": "visit_episode", "attempts": out.attempts, "rejected": out.rejected, "scaffold": scaffold}
    return out.value, entry


def _age_at_event(age_years: int, start_days: int) -> int:
    value = age_years + start_days / 365.0
    return max(0, int(value + 0.5))


def rewrite_steb_contexts(
    g: SemanticGraph,
    gw: LlmGateway,
    cfg: PerturbConfig,
) -> tuple[SemanticGraph, list[dict]]:
    """Rewrite STEB frames in chronologically retrograde order.

    Each prompt sees the perturbed visit episode, the window of most recently
    edited frames, and the patient's age at the event. Only fields present in
    the source frame are rewritten; node ids, durations, and relations are
    untouched.
    """
    pool = g.durations_by_id()
    age = g.attributes.demographics.age
    visit_episode = g.visit_event.visit_episode if g.visit_event else ""

    def node_start(node: SymptomNode) -> int:
        starts = [pool[i].offset_days for i in node.duration_ids if i in pool]
        return min(starts) if starts else 0

    order = sorted(range(len(g.symptoms)), key=lambda i: (-node_start(g.symptoms[i]), i))
    recent: list[str] = []
    audits: list[dict] = []
    new_symptoms = list(g.symptoms)

    for index in order:
        node = g.symptoms[index]
        if not node.contexts:
            continue
        start = node_start(node)
        new_contexts = list(node.contexts)
        for frame_index, ctx in enumerate(node.contexts):
            fields = ctx.present_fields()
            original_text = frame_text(ctx)

            def rewrite(text: str, reject) -> StebContext | None:
                candidate = _parse_frame(text, fields, reject)
                if candidate is None:
                    return None
                gate = similarity_gate(original_text, frame_text(candidate), cfg.similarity_threshold)
                if not gate.accepted:
                    return reject(f"similarity {gate.score:.3f} above threshold")
                return candidate

            out = validated_call(
                gw,
                "steb_rewrite",
                {
                    "node_id": node.id,
                    "frame_index": str(frame_index),
                    "symptom": node.symptom,
                    "fields": ", ".join(fields),
                    "frame": original_text,
                    "visit_episode": visit_episode,
                    "recent_contexts": "\n---\n".join(recent[-cfg.steb_window_size:]),
                    "age_at_event": str(_age_at_event(age, start)),
                },
                rewrite,
                attempts=cfg.max_retries,
            )
            audit = {"step": "steb", "node_id": node.id, "frame": frame_index, "rejected": out.rejected}
            if out.value is None:
                audit["fallback"] = "original frame kept"
            else:
                new_contexts[frame_index] = out.value
                recent.append(frame_text(out.value))
            audits.append(audit)
        new_symptoms[index] = replace(node, contexts=new_contexts)

    return replace(g, symptoms=new_symptoms), audits


def _parse_frame(text: str, fields: tuple[str, ...], reject) -> StebContext | None:
    """The rewritten frame, or None; extra keys are dropped with a note."""
    doc = reply_mapping(text, reject)
    if doc is None:
        return None
    values: dict[str, str] = {}
    for name in fields:
        value = doc.get(name)
        if not isinstance(value, str) or not value.strip():
            return reject(f"field {name!r} missing from rewrite")
        values[name] = value.strip()
    extras = [k for k in doc if k not in fields]
    if extras:
        reject(f"extra fields dropped: {sorted(extras)}")
    return StebContext(**values)


def essence_diff(original: SemanticGraph, perturbed: SemanticGraph) -> dict[str, dict[str, str]]:
    """Changed demographic / visit framing fields, old vs new."""
    diff: dict[str, dict[str, str]] = {}
    a, b = original.attributes.demographics, perturbed.attributes.demographics
    for field_name in ("age", "sex", "ethnicity", "occupation"):
        old, new = getattr(a, field_name), getattr(b, field_name)
        if old != new:
            diff[field_name] = {"from": str(old), "to": str(new)}
    old_episode = original.visit_event.visit_episode if original.visit_event else ""
    new_episode = perturbed.visit_event.visit_episode if perturbed.visit_event else ""
    if old_episode != new_episode:
        diff["visit_episode"] = {"from": old_episode, "to": new_episode}
    return diff


def rewritten_thoughts(original: SemanticGraph, perturbed: SemanticGraph) -> list[str]:
    before = {
        (node.id, i): ctx.thought
        for node in original.symptoms
        for i, ctx in enumerate(node.contexts)
    }
    out = []
    for node in perturbed.symptoms:
        for i, ctx in enumerate(node.contexts):
            if ctx.thought and before.get((node.id, i)) != ctx.thought:
                out.append(ctx.thought)
    return out


def align_mse(
    attrs: CaseAttributes,
    diff: dict[str, dict[str, str]],
    thoughts: list[str],
    gw: LlmGateway,
    cfg: PerturbConfig,
) -> tuple[str, dict]:
    """Minimally edit the MSE paragraph to match perturbed demographics/themes.

    Skipped outright when nothing changed. The validator refuses outputs that
    drop any objective domain mentioned in the source.
    """
    source = attrs.test_results.get("mental_status", "")
    if (not diff and not thoughts) or not source.strip():
        return source, {"step": "mse", "skipped": "no changes to harmonize"}

    source_domains = _domains_present(source)
    changes = "\n".join(f"{k}: {v['from']!r} -> {v['to']!r}" for k, v in sorted(diff.items()))

    def edit(text: str, reject) -> str | None:
        candidate = text.strip()
        if not candidate:
            return reject("empty rewrite")
        missing = source_domains - _domains_present(candidate)
        if missing:
            return reject(f"dropped domains {sorted(missing)}")
        return candidate

    out = validated_call(
        gw,
        "mse_align",
        {"mental_status": source, "changes": changes, "thoughts": "\n".join(thoughts)},
        edit,
        attempts=cfg.max_retries,
    )
    if out.value is None:
        return source, {"step": "mse", "rejected": out.rejected, "fallback": "original kept"}
    return out.value, {"step": "mse", "attempts": out.attempts, "rejected": out.rejected}


def _domains_present(text: str) -> set[str]:
    lowered = text.lower()
    return {name for name, keywords in load_mse_domains().items() if any(k.lower() in lowered for k in keywords)}
