"""Corpus-level privacy/utility evaluation over a run directory.

Per case and variant (`eval_case`, the work of the runner's `eval` row):
diagnosis prediction (scored with soft-F1 against the gold labels), cosine
similarity to the original, and a binary diagnosis acceptability judgment.
Across the corpus (`run_eval`, over the cases' scores): signed-rank,
rank-sum, binomial, Cochran/McNemar, and Friedman tests with Holm correction
where tests are pairwise. The per-variant (cosine, soft-F1) means are the
coordinates in the recallability vs structure plane.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field

from ..converter import CaseNarrative
from ..gateway import GatewayError, LlmGateway, validated_call
from ..textproc import id_bytes
from ..yamlio import reply_mapping, safe_dump
from .canon import canonical_label_set, soft_f1
from .embedding import similarities
from .judge import JudgeError, judge_risk
from .stats import (
    TestOutcome,
    binomial_test,
    cochran_q,
    friedman,
    holm_correct,
    mann_whitney_u,
    mcnemar,
    wilcoxon_signed_rank,
)


@dataclass
class VariantMetrics:
    cosine: float
    soft_f1: float
    predicted: list[str]
    acceptable: bool | None = None


@dataclass
class CaseEval:
    case_id: str
    gold: list[str]
    variants: dict[str, VariantMetrics] = field(default_factory=dict)
    risk_anonpsy: int | None = None
    risk_llm_only: int | None = None
    more_similar: str | None = None  # anonpsy | llm_only
    flags: list[str] = field(default_factory=list)


@dataclass
class EvalReport:
    cases: list[CaseEval]
    variant_means: dict[str, dict[str, float]]  # variant -> {cosine, soft_f1}
    statistics: list[dict]

    def to_yaml(self) -> str:
        doc = {
            "variant_means": {
                name: {k: round(v, 6) for k, v in means.items()}
                for name, means in sorted(self.variant_means.items())
            },
            "statistics": self.statistics,
            "cases": [
                {
                    "case_id": c.case_id,
                    "gold": c.gold,
                    "variants": {
                        name: {
                            "cosine": round(m.cosine, 6),
                            "soft_f1": round(m.soft_f1, 6),
                            "predicted": m.predicted,
                            "acceptable": m.acceptable,
                        }
                        for name, m in sorted(c.variants.items())
                    },
                    "risk": {
                        "anonpsy": c.risk_anonpsy,
                        "llm_only": c.risk_llm_only,
                        "more_similar": c.more_similar,
                    },
                    "flags": c.flags,
                }
                for c in self.cases
            ],
        }
        return safe_dump(doc, sort_keys=False, allow_unicode=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["case_id", "variant", "cosine", "soft_f1", "acceptable", "risk"])
        for case in self.cases:
            risks = {"anonpsy": case.risk_anonpsy, "llm_only": case.risk_llm_only}
            # A case directory whose name is not UTF-8 gives an id with lone surrogates: written escaped.
            case_id = case.case_id.encode("utf-8", "backslashreplace").decode("utf-8")
            for name, metrics in sorted(case.variants.items()):
                writer.writerow(
                    [
                        case_id,
                        name,
                        f"{metrics.cosine:.6f}",
                        f"{metrics.soft_f1:.6f}",
                        "" if metrics.acceptable is None else str(metrics.acceptable).lower(),
                        risks.get(name, ""),
                    ]
                )
        return buf.getvalue()


def _reply_field(gw: LlmGateway, template_id: str, variables: dict, key: str, kind: type, what: str):
    """Field `key` of the judge model's YAML reply; any other reply is a `GatewayError`.

    A reply that is no mapping names the reason `reply_mapping` gives.
    """

    def read(text: str, reject):
        doc = reply_mapping(text, reject)
        return doc[key] if doc is not None and isinstance(doc.get(key), kind) else None

    out = validated_call(gw, template_id, variables, read)
    return out.get(
        lambda reason: GatewayError(template_id, f"response is not {what} mapping" + (f": {reason}" if reason else ""))
    )


def _predict_diagnoses(gw: LlmGateway, narrative: str, case_id: str, variant: str) -> list[str]:
    variables = {"case_id": case_id, "variant": variant, "narrative": narrative}
    diagnoses = _reply_field(gw, "predict_diagnoses", variables, "diagnoses", list, "a diagnoses")
    return [str(d) for d in diagnoses if str(d).strip()]


def _judge_acceptability(gw: LlmGateway, narrative: str, gold: list[str], case_id: str, variant: str) -> bool:
    variables = {"case_id": case_id, "variant": variant, "narrative": narrative, "diagnoses": "; ".join(gold)}
    return _reply_field(gw, "diagnosis_acceptability", variables, "acceptable", bool, "an acceptability")


def run_eval(cases: list[CaseEval]) -> EvalReport:
    """The corpus report over the cases' scores, in the order given."""
    return EvalReport(cases=cases, variant_means=_variant_means(cases), statistics=_corpus_statistics(cases))


def eval_case(
    narrative: CaseNarrative, texts: dict[str, str], gw: LlmGateway, embedder, match_threshold: float, seed: int
) -> CaseEval:
    """Score the original and each variant's text (variant -> text) against the case's gold diagnoses."""
    case_id, original = narrative.case_id, narrative.text
    gold = canonical_label_set(narrative.ground_truth_diagnoses)
    case = CaseEval(case_id=case_id, gold=gold)
    cosines = {"original": 1.0, **dict(zip(texts, similarities(original, texts.values(), embedder)))}
    texts = {"original": original, **texts}

    for variant, text in texts.items():
        predicted_raw = _predict_diagnoses(gw, text, case_id, variant)
        predicted = canonical_label_set(predicted_raw)
        score = soft_f1(predicted, gold, threshold=match_threshold)
        cos = cosines[variant]
        acceptable = None
        if gold:
            acceptable = _judge_acceptability(gw, text, gold, case_id, variant)
        case.variants[variant] = VariantMetrics(
            cosine=cos, soft_f1=score, predicted=predicted, acceptable=acceptable
        )

    if "llm_only" in texts:
        # Seeded by the bytes a str seed is hashed over, as `case_seed` is.
        rng = random.Random(id_bytes(f"{seed}:{case_id}:judge"))
        try:
            result = judge_risk(original, texts["anonpsy"], texts["llm_only"], gw, rng)
        except JudgeError as exc:
            case.flags.append(f"risk judgment excluded: {exc}")
        else:
            case.risk_anonpsy = result.score_a
            case.risk_llm_only = result.score_b
            case.more_similar = "anonpsy" if result.choice == "A" else "llm_only"
    return case


def _variant_means(cases: list[CaseEval]) -> dict[str, dict[str, float]]:
    sums: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for case in cases:
        for name, metrics in case.variants.items():
            bucket = sums.setdefault(name, [0.0, 0.0])
            bucket[0] += metrics.cosine
            bucket[1] += metrics.soft_f1
            counts[name] = counts.get(name, 0) + 1
    return {
        name: {"cosine": sums[name][0] / counts[name], "soft_f1": sums[name][1] / counts[name]}
        for name in sums
    }


def _stat_record(
    name: str, comparison: str, statistic: float | None, p: float, method: str, p_holm: float | None = None
) -> dict:
    """One row of the report's statistics; a Holm-adjusted p names its correction."""
    record = {
        "test": name,
        "comparison": comparison,
        "statistic": None if statistic is None else round(float(statistic), 6),
        "p": round(float(p), 6),
    }
    if p_holm is not None:
        record["p_holm"] = round(float(p_holm), 6)
    record["method"] = method
    record["correction"] = None if p_holm is None else "holm"
    return record


def _corpus_statistics(cases: list[CaseEval]) -> list[dict]:
    stats: list[dict] = []

    paired_cosine = [
        (c.variants["anonpsy"].cosine, c.variants["llm_only"].cosine)
        for c in cases
        if "anonpsy" in c.variants and "llm_only" in c.variants
    ]
    if paired_cosine:
        outcome = wilcoxon_signed_rank(paired_cosine, alternative="less")
        stats.append(_stat_record("wilcoxon_signed_rank", "cosine: anonpsy < llm_only", *outcome, outcome.method))

    paired_risk = [
        (float(c.risk_anonpsy), float(c.risk_llm_only))
        for c in cases
        if c.risk_anonpsy is not None and c.risk_llm_only is not None
    ]
    if paired_risk:
        outcome = wilcoxon_signed_rank(paired_risk, alternative="two_sided")
        stats.append(_stat_record("wilcoxon_signed_rank", "risk: anonpsy vs llm_only", *outcome, outcome.method))

    choices = [c.more_similar for c in cases if c.more_similar is not None]
    if choices:
        k = sum(1 for choice in choices if choice == "llm_only")
        p = binomial_test(k, len(choices), 0.5)
        stats.append(_stat_record("binomial", f"llm_only chosen more similar ({k}/{len(choices)})", k, p, "exact"))

    chosen_risk: list[float] = []
    unchosen_risk: list[float] = []
    for c in cases:
        if c.more_similar is None or c.risk_anonpsy is None or c.risk_llm_only is None:
            continue
        if c.more_similar == "anonpsy":
            chosen_risk.append(float(c.risk_anonpsy))
            unchosen_risk.append(float(c.risk_llm_only))
        else:
            chosen_risk.append(float(c.risk_llm_only))
            unchosen_risk.append(float(c.risk_anonpsy))
    if chosen_risk and unchosen_risk:
        outcome = mann_whitney_u(chosen_risk, unchosen_risk)
        stats.append(_stat_record("mann_whitney_u", "risk: chosen vs non-chosen", *outcome, outcome.method))

    # Variants present in every case participate in the k-sample tests.
    if cases:
        complete = sorted(
            name for name in cases[0].variants if all(name in c.variants for c in cases)
        )
    else:
        complete = []

    if len(complete) >= 2 and len(cases) >= 2:
        table = [[c.variants[name].soft_f1 for name in complete] for c in cases]
        outcome = friedman(table)
        stats.append(_stat_record("friedman", "soft_f1 across " + "/".join(complete), *outcome, outcome.method))

        pair_outcomes: dict[str, TestOutcome] = {}
        for i, name_a in enumerate(complete):
            for name_b in complete[i + 1 :]:
                pairs = [(c.variants[name_a].soft_f1, c.variants[name_b].soft_f1) for c in cases]
                pair_outcomes[f"soft_f1: {name_a} vs {name_b}"] = wilcoxon_signed_rank(pairs)
        adjusted = holm_correct([outcome.p_value for outcome in pair_outcomes.values()])
        for (name, outcome), adj in zip(pair_outcomes.items(), adjusted):
            stats.append(_stat_record("wilcoxon_signed_rank", name, *outcome, outcome.method, adj))

        accept_variants = [
            name
            for name in complete
            if all(c.variants[name].acceptable is not None for c in cases)
        ]
        if len(accept_variants) >= 2:
            table_bool = [
                [bool(c.variants[name].acceptable) for name in accept_variants] for c in cases
            ]
            outcome = cochran_q(table_bool)
            comparison = "acceptability across " + "/".join(accept_variants)
            stats.append(_stat_record("cochran_q", comparison, *outcome, outcome.method))
            mc_names: list[str] = []
            mc_ps: list[float] = []
            for i, name_a in enumerate(accept_variants):
                for name_b in accept_variants[i + 1 :]:
                    b_count = sum(
                        1
                        for c in cases
                        if c.variants[name_a].acceptable and not c.variants[name_b].acceptable
                    )
                    c_count = sum(
                        1
                        for c in cases
                        if not c.variants[name_a].acceptable and c.variants[name_b].acceptable
                    )
                    mc_names.append(f"acceptability: {name_a} vs {name_b}")
                    mc_ps.append(mcnemar(b_count, c_count))
            for name, raw, adj in zip(mc_names, mc_ps, holm_correct(mc_ps)):
                stats.append(_stat_record("mcnemar", name, None, raw, "exact", adj))

    return stats
