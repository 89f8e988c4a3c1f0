"""Insider-style re-identification judging through the gateway.

The judge is primed with the original narrative, sees the two candidates in a
seed-deterministic randomized A/B order, and returns a choice plus 1-5 rubric
risk scores for both versions. Scores of 3 or above mean a knowledgeable
insider might suspect the same patient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..gateway import VALIDATED_ATTEMPTS, LlmGateway, validated_call
from ..yamlio import reply_mapping


class JudgeError(RuntimeError):
    pass


@dataclass(frozen=True)
class JudgeResult:
    choice: str  # "A" = first candidate argument, "B" = second
    score_a: int
    score_b: int
    swapped: bool  # True when candidates were presented in reverse order


def _parse_judgment(text: str, reject) -> tuple[str, int, int] | None:
    doc = reply_mapping(text, reject)
    if doc is None:
        return None
    choice = doc.get("choice")
    score_a = doc.get("risk_a")
    score_b = doc.get("risk_b")
    if choice not in ("A", "B"):
        return reject("unparseable judgment")
    for score in (score_a, score_b):
        if not isinstance(score, int) or isinstance(score, bool) or not 1 <= score <= 5:
            return reject("unparseable judgment")
    return choice, score_a, score_b


def judge_risk(
    original: str,
    candidate_a: str,
    candidate_b: str,
    gw: LlmGateway,
    rng: random.Random,
) -> JudgeResult:
    """Compare two de-identified versions of the same case.

    The returned choice and scores are expressed in terms of the caller's
    candidate_a/candidate_b, with the presentation randomization recorded.
    """
    swapped = rng.random() < 0.5
    presented_a, presented_b = (candidate_b, candidate_a) if swapped else (candidate_a, candidate_b)
    out = validated_call(
        gw,
        "judge_risk",
        {"original": original, "version_a": presented_a, "version_b": presented_b},
        _parse_judgment,
    )
    choice, score_a, score_b = out.get(
        lambda reason: JudgeError(f"judge response unusable after {VALIDATED_ATTEMPTS} attempts: {reason}")
    )
    if swapped:
        choice = "B" if choice == "A" else "A"
        score_a, score_b = score_b, score_a
    return JudgeResult(choice=choice, score_a=score_a, score_b=score_b, swapped=swapped)
