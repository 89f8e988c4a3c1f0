"""DSM-aware diagnosis canonicalization and soft-F1 matching.

Labels are lowercased, stripped of trailing specifier clauses (comma-separated
or parenthetical), and mapped through a synonym table to a shared canonical
form, so scoring reflects diagnostic preservation rather than DSM surface
variation.
"""

from __future__ import annotations

import functools
import re
from importlib import resources

from ..textproc import normalize_ws
from ..yamlio import load_yaml

_PARENTHETICAL = re.compile(r"\s*\(([^)]*)\)")


@functools.cache
def load_specifier_patterns() -> tuple[re.Pattern[str], ...]:
    text = resources.files("anonpsy").joinpath("data/specifier_patterns.txt").read_text(encoding="utf-8")
    patterns = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        patterns.append(re.compile(line, re.IGNORECASE))
    return tuple(patterns)


@functools.cache
def load_synonyms() -> dict[str, str]:
    text = resources.files("anonpsy").joinpath("data/diagnosis_synonyms.yaml").read_text(encoding="utf-8")
    doc = load_yaml(text) or {}
    return {str(k).lower(): str(v).lower() for k, v in doc.items()}


def _is_specifier(clause: str, patterns: tuple[re.Pattern[str], ...]) -> bool:
    clause = clause.strip()
    return bool(clause) and any(p.fullmatch(clause) for p in patterns)


def canonicalize_diagnosis(label: str) -> str:
    """Canonical form: lowercase, specifier-stripped, synonym-mapped."""
    synonyms = load_synonyms()
    patterns = load_specifier_patterns()

    text = normalize_ws(label).lower()
    if text in synonyms:  # surface forms may be mapped before any stripping
        return synonyms[text]

    def drop_specifier_parens(match: re.Match[str]) -> str:
        return "" if _is_specifier(match.group(1), patterns) else match.group(0)

    text = _PARENTHETICAL.sub(drop_specifier_parens, text)
    segments = [s.strip() for s in text.split(",")]
    while len(segments) > 1 and _is_specifier(segments[-1], patterns):
        segments.pop()
    text = normalize_ws(", ".join(s for s in segments if s))
    return synonyms.get(text, text)


def canonical_label_set(labels: list[str]) -> list[str]:
    """Sorted, deduplicated canonical labels (the DiagnosisLabelSet form)."""
    canon = {canonicalize_diagnosis(label) for label in labels if label.strip()}
    return sorted(c for c in canon if c)


def soft_f1(
    pred: list[str],
    gold: list[str],
    matcher=None,
    threshold: float = 0.8,
) -> float:
    """Greedy one-to-one soft matching F1 over canonicalized label sets.

    Exact matches score 1; otherwise the matcher (if any) scores the pair.
    Pairs at or above the threshold are matched greedily in descending score
    order, ties broken by (pred index, gold index). Empty vs empty scores 1.
    """
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    scored: list[tuple[float, int, int]] = []
    for i, p in enumerate(pred):
        for j, g in enumerate(gold):
            score = 1.0 if p == g else (float(matcher(p, g)) if matcher else 0.0)
            if score >= threshold:
                scored.append((score, i, j))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_pred: set[int] = set()
    used_gold: set[int] = set()
    matched = 0
    for _, i, j in scored:
        if i in used_pred or j in used_gold:
            continue
        used_pred.add(i)
        used_gold.add(j)
        matched += 1
    precision = matched / len(pred)
    recall = matched / len(gold)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
