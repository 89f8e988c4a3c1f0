"""Privacy/utility metrics and the statistics behind the evaluation."""

from .canon import canonical_label_set, canonicalize_diagnosis, soft_f1
from .embedding import HashedTfEmbedder, HttpEmbedder, doc_similarity
from .judge import JudgeError, JudgeResult, judge_risk
from .report import EvalReport, run_eval
from .stats import (
    TestOutcome,
    binomial_test,
    cochran_q,
    friedman,
    holm_correct,
    mann_whitney_u,
    mcnemar,
    midranks,
    wilcoxon_signed_rank,
)

__all__ = [
    "EvalReport",
    "HashedTfEmbedder",
    "HttpEmbedder",
    "JudgeError",
    "JudgeResult",
    "TestOutcome",
    "binomial_test",
    "canonical_label_set",
    "canonicalize_diagnosis",
    "cochran_q",
    "doc_similarity",
    "friedman",
    "holm_correct",
    "judge_risk",
    "mann_whitney_u",
    "mcnemar",
    "midranks",
    "run_eval",
    "soft_f1",
    "wilcoxon_signed_rank",
]
