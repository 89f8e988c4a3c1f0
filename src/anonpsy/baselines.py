"""Comparison systems: span-level PHI masking, one-pass synthetic rewriting,
and the two-stage constrained rewrite without graph access.

The PHI rule set is a documented best-effort superset of common surface
identifier patterns, not a claimed equivalent of any particular masker.
Masking is regex-only: names and places written out in words stay.
"""

from __future__ import annotations

import re

from .gateway import LlmGateway

_MONTHS = (
    "January|February|March|April|May|June|July|August|September|October|November|December"
)

_PHI_RULES: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"\b\d{4}-\d{2}-\d{2}\b"), "[DATE]"),
    (re.compile(r"\b\d{1,2}/\d{1,2}/\d{2,4}\b"), "[DATE]"),
    (re.compile(rf"\b(?:{_MONTHS})\s+\d{{1,2}}(?:st|nd|rd|th)?(?:,\s*\d{{4}})?\b"), "[DATE]"),
    (re.compile(rf"\b\d{{1,2}}\s+(?:{_MONTHS})(?:\s+\d{{4}})?\b"), "[DATE]"),
    (re.compile(rf"\b(?:{_MONTHS})\s+\d{{4}}\b"), "[DATE]"),
    (re.compile(r"(?<!\w)(?:\+\d{1,3}[-. ])?\(?\d{3}\)?[-. ]\d{3}[-. ]\d{4}\b"), "[PHONE]"),
    (re.compile(r"\b\d{3}-\d{2}-\d{4}\b"), "[ID]"),
    (re.compile(r"\b(?:MRN|medical record number)\s*[:#]?\s*[A-Za-z0-9-]{4,}\b", re.IGNORECASE), "[ID]"),
    (re.compile(r"\b\d{6,}\b"), "[ID]"),
    (re.compile(r"\b[\w.+-]+@[\w-]+\.[\w.]+\b"), "[CONTACT]"),
    (
        re.compile(
            r"\b\d+\s+[A-Z][a-z]+\s+(?:Street|St|Avenue|Ave|Road|Rd|Boulevard|Blvd|Lane|Ln|Drive|Dr|Court|Ct|Place|Way)\b\.?"
        ),
        "[LOC]",
    ),
    # HIPAA-style rule: ages over 89 are identifiers.
    (re.compile(r"\b(?:9\d|1[0-2]\d)(?=-year-old\b)"), "[AGE]"),
    (re.compile(r"(?<=\baged )(?:9\d|1[0-2]\d)\b"), "[AGE]"),
    (re.compile(r"(?<=\bage )(?:9\d|1[0-2]\d)\b"), "[AGE]"),
]


def phi_mask(text: str) -> str:
    """Replace surface identifiers with typed placeholders.

    Bytes outside matched spans are untouched.
    """
    spans: list[tuple[int, int, str]] = []
    for pattern, placeholder in _PHI_RULES:
        for match in pattern.finditer(text):
            spans.append((match.start(), match.end(), placeholder))

    # Longest-first overlap resolution, then right-to-left replacement.
    spans.sort(key=lambda s: (s[0], -(s[1] - s[0])))
    chosen: list[tuple[int, int, str]] = []
    last_end = -1
    for start, end, placeholder in spans:
        if start < last_end:
            continue
        chosen.append((start, end, placeholder))
        last_end = end
    for start, end, placeholder in reversed(chosen):
        text = text[:start] + placeholder + text[end:]
    return text


def sdc_rewrite(text: str, gw: LlmGateway) -> str:
    """Unconstrained one-pass synthetic rewrite of the whole narrative."""
    if not text.strip():
        raise ValueError("cannot rewrite an empty narrative")
    return gw.call("sdc_rewrite", {"case_text": text}).strip()


def llm_only(text: str, gw: LlmGateway) -> str:
    """Two-stage rewrite: constrained clinical rewrite, then self-critique."""
    if not text.strip():
        raise ValueError("cannot rewrite an empty narrative")
    draft = gw.call("llm_only_rewrite", {"case_text": text}).strip()
    return gw.call("llm_only_critique", {"draft_text": draft}).strip()
