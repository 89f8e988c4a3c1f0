"""Demographic perturbation under clinical feasibility constraints."""

from __future__ import annotations

import random
from dataclasses import replace

from ..gateway import LlmGateway, validated_call
from ..model import SemanticGraph
from ..yamlio import reply_mapping
from .config import FeasibilityRule, PerturbConfig, load_minor_occupations

_MAX_AGE_DRAWS = 20

_FLIP = {"male": "female", "female": "male"}


def _earliest_offset_for_diagnosis(g: SemanticGraph, diagnosis_id: str, age_offset: int) -> int | None:
    """Earliest start (days) among durations of nodes linked to the diagnosis.

    Age-anchored durations move with the candidate age offset so that their
    absolute onset age stays fixed; other durations are encounter-relative and
    do not move. Falls back to the whole pool when the diagnosis has no links.
    """
    pool = g.durations_by_id()
    linked_nodes = set()
    for rel in g.relations:
        if rel.target_id == diagnosis_id:
            linked_nodes.add(rel.source_id)
        if rel.source_id == diagnosis_id:
            linked_nodes.add(rel.target_id)
    starts = []
    for node in g.timed_nodes():
        if node.id not in linked_nodes:
            continue
        for dur_id in node.duration_ids:
            dur = pool.get(dur_id)
            if dur is None:
                continue
            shift = -age_offset * 365 if dur.age_anchored else 0
            starts.append(dur.offset_days + shift)
    if not starts:
        starts = [
            d.offset_days + (-age_offset * 365 if d.age_anchored else 0) for d in g.durations
        ]
    return min(starts) if starts else None


def _age_feasible(
    g: SemanticGraph, candidate_age: int, age_offset: int, rules: list[FeasibilityRule]
) -> str | None:
    """Return the first violated rule description, or None when feasible."""
    if candidate_age < 0:
        return "age would become negative"
    shift = -age_offset * 365
    for d in g.durations:
        sides = (d.offset_days > 0, d.end_days > 0)
        if d.age_anchored and sides != (d.offset_days + shift > 0, d.end_days + shift > 0):
            return "age offset moves an age-anchored interval across day 0"
    for diagnosis in g.diagnoses:
        for rule in rules:
            if not rule.matches(diagnosis.label):
                continue
            if rule.constraint_kind == "min_present_age":
                if candidate_age < int(rule.value):
                    return f"{diagnosis.label!r} requires age >= {rule.value}"
            elif rule.constraint_kind == "max_onset_age":
                earliest = _earliest_offset_for_diagnosis(g, diagnosis.id, age_offset)
                onset = candidate_age if earliest is None else candidate_age + earliest / 365.0
                if onset >= int(rule.value):
                    return f"{diagnosis.label!r} requires onset age < {rule.value}"
    return None


def perturb_age(
    g: SemanticGraph,
    cfg: PerturbConfig,
    rng: random.Random,
    rules: list[FeasibilityRule],
) -> tuple[int, dict]:
    """Draw a bounded nonzero age offset, redrawing until feasible.

    After 20 infeasible draws the age is left unchanged and the fallback is
    logged in the audit record.
    """
    age = g.attributes.demographics.age
    bound = cfg.age_offset_bound_years
    choices = [o for o in range(-bound, bound + 1) if o != 0]
    rejected: list[dict] = []
    for draw in range(1, _MAX_AGE_DRAWS + 1):
        offset = rng.choice(choices)
        candidate = age + offset
        reason = _age_feasible(g, candidate, offset, rules)
        if reason is None:
            return candidate, {
                "step": "age",
                "original": age,
                "new": candidate,
                "offset_years": offset,
                "draws": draw,
                "rejected": rejected,
            }
        rejected.append({"offset_years": offset, "reason": reason})
    return age, {
        "step": "age",
        "original": age,
        "new": age,
        "offset_years": None,
        "draws": _MAX_AGE_DRAWS,
        "rejected": rejected,
        "fallback": "no feasible offset; age unchanged",
    }


def _with_demographics(g: SemanticGraph, **fields) -> SemanticGraph:
    """A copy of g whose demographics have the given fields replaced."""
    demographics = replace(g.attributes.demographics, **fields)
    return replace(g, attributes=replace(g.attributes, demographics=demographics))


def apply_age_offset(g: SemanticGraph, new_age: int) -> SemanticGraph:
    """Write the new age and shift age-anchored durations to keep their
    absolute onset ages fixed."""
    offset = new_age - g.attributes.demographics.age
    durations = g.durations
    if offset != 0 and any(d.age_anchored for d in g.durations):
        durations = [
            replace(d, offset_days=d.offset_days - offset * 365) if d.age_anchored else d
            for d in g.durations
        ]
    return replace(_with_demographics(g, age=new_age), durations=durations)


def perturb_sex(
    g: SemanticGraph,
    cfg: PerturbConfig,
    rng: random.Random,
    rules: list[FeasibilityRule],
) -> tuple[str, dict]:
    """Flip sex with the configured probability unless a rule pins it to its value."""
    sex = g.attributes.demographics.sex
    for diagnosis in g.diagnoses:
        for rule in rules:
            if rule.constraint_kind == "required_sex" and rule.matches(diagnosis.label):
                return rule.value, {
                    "step": "sex",
                    "original": sex,
                    "new": rule.value,
                    "pinned_by": diagnosis.label,
                }
    if sex.lower() not in _FLIP:
        return sex, {"step": "sex", "original": sex, "new": sex, "flagged": "sex value not flippable"}
    if rng.random() < cfg.sex_flip_probability:
        flipped = _FLIP[sex.lower()]
        return flipped, {"step": "sex", "original": sex, "new": flipped}
    return sex, {"step": "sex", "original": sex, "new": sex}


def perturb_identity_fields(
    g: SemanticGraph,
    gw: LlmGateway,
    cfg: PerturbConfig,
) -> tuple[str, str, dict]:
    """Model-proposed ethnicity/occupation replacements behind hard gates.

    Proposals equal to the originals are rejected; occupations for patients
    under 16 must come from the minor-permissible list. Exhausted retries keep
    the originals with a flag.
    """
    demo = g.attributes.demographics

    def proposal(text: str, reject) -> tuple[str, str] | None:
        doc = reply_mapping(text, reject)
        if doc is None:
            return None
        ethnicity = doc.get("ethnicity")
        occupation = doc.get("occupation")
        if not isinstance(ethnicity, str) or not isinstance(occupation, str):
            return reject("missing ethnicity/occupation")
        if demo.ethnicity and ethnicity.strip().lower() == demo.ethnicity.strip().lower():
            return reject("ethnicity unchanged")
        if demo.occupation and occupation.strip().lower() == demo.occupation.strip().lower():
            return reject("occupation unchanged")
        if demo.age < 16 and occupation.strip().lower() not in load_minor_occupations():
            return reject(f"occupation {occupation!r} not minor-permissible")
        return ethnicity.strip(), occupation.strip()

    out = validated_call(
        gw,
        "identity_fields",
        {"age": str(demo.age), "sex": demo.sex, "ethnicity": demo.ethnicity, "occupation": demo.occupation},
        proposal,
        attempts=cfg.max_retries,
    )
    if out.value is None:
        return demo.ethnicity, demo.occupation, {
            "step": "identity_fields",
            "ethnicity": {"original": demo.ethnicity, "new": demo.ethnicity},
            "occupation": {"original": demo.occupation, "new": demo.occupation},
            "rejected": out.rejected,
            "fallback": "originals kept",
        }
    ethnicity, occupation = out.value
    return ethnicity, occupation, {
        "step": "identity_fields",
        "ethnicity": {"original": demo.ethnicity, "new": ethnicity},
        "occupation": {"original": demo.occupation, "new": occupation},
        "attempts": out.attempts,
        "rejected": out.rejected,
    }
