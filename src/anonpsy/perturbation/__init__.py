"""Graph-constrained perturbation (operator over validated semantic graphs).

Runs the sub-perturbations in a fixed order (age, sex, identity fields, visit
episode, STEB frames in retrograde order, numeric test values, MSE
alignment), then hard-gates the result: the perturbed graph must preserve the
temporal backbone, relation set, and node inventories of its input, or the
case aborts with the consistency report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..model import SemanticGraph, validate_graph
from ..relations import ConsistencyReport, check_consistency
from ..yamlio import safe_dump
from .config import FeasibilityRule, PerturbConfig, TestValuePool, case_seed
from .demographics import _with_demographics, apply_age_offset, perturb_age, perturb_identity_fields, perturb_sex
from .narrative import (
    align_mse,
    essence_diff,
    rewrite_steb_contexts,
    rewrite_visit_episode,
    rewritten_thoughts,
    similarity_gate,
)
from .testvalues import perturb_test_values

__all__ = [
    "FeasibilityRule",
    "PerturbConfig",
    "PerturbationError",
    "PerturbAudit",
    "TestValuePool",
    "align_mse",
    "apply_age_offset",
    "case_seed",
    "perturb",
    "perturb_age",
    "perturb_identity_fields",
    "perturb_sex",
    "perturb_test_values",
    "rewrite_steb_contexts",
    "rewrite_visit_episode",
    "similarity_gate",
]


class PerturbationError(RuntimeError):
    """Raised when the perturbed graph fails the consistency gate."""

    def __init__(self, case_id: str, report: ConsistencyReport | None, message: str):
        self.case_id = case_id
        self.report = report
        super().__init__(f"case {case_id}: {message}")


@dataclass
class PerturbAudit:
    """Every draw, rejection, redraw, and fallback of one perturbation run."""

    case_id: str
    seed: int
    entries: list[dict] = field(default_factory=list)

    def record(self, entry: dict) -> None:
        self.entries.append(entry)

    def to_yaml(self) -> str:
        return safe_dump(
            {"case_id": self.case_id, "seed": self.seed, "entries": self.entries},
            sort_keys=False,
            allow_unicode=True,
        )


def perturb(g: SemanticGraph, gw, cfg: PerturbConfig, case_id: str = "case") -> tuple[SemanticGraph, PerturbAudit]:
    """Produce the perturbed graph and its audit record.

    The feasibility rules and value pools are the config's; the other tables
    are the packaged ones. The input must be valid; the output is
    re-validated and checked for consistency against the input before being
    returned.
    """
    violations = validate_graph(g)
    if violations:
        raise PerturbationError(case_id, None, f"input graph invalid: {violations[0]}")

    seed = case_seed(cfg.seed, case_id)
    rng = random.Random(seed)
    audit = PerturbAudit(case_id=case_id, seed=cfg.seed)

    new_age, age_entry = perturb_age(g, cfg, rng, cfg.rules)
    audit.record(age_entry)
    g2 = apply_age_offset(g, new_age)

    new_sex, sex_entry = perturb_sex(g2, cfg, rng, cfg.rules)
    audit.record(sex_entry)
    g2 = _with_demographics(g2, sex=new_sex)

    ethnicity, occupation, identity_entry = perturb_identity_fields(g2, gw, cfg)
    audit.record(identity_entry)
    g2 = _with_demographics(g2, ethnicity=ethnicity, occupation=occupation)

    new_visit, visit_entry = rewrite_visit_episode(g2, gw, cfg)
    audit.record(visit_entry)
    g2 = replace(g2, visit_event=new_visit)

    g2, steb_entries = rewrite_steb_contexts(g2, gw, cfg)
    for entry in steb_entries:
        audit.record(entry)

    new_attrs, value_entries = perturb_test_values(g2.attributes, cfg.pools, rng)
    for entry in value_entries:
        audit.record(entry)
    g2 = replace(g2, attributes=new_attrs)

    diff = essence_diff(g, g2)
    thoughts = rewritten_thoughts(g, g2)
    new_mse, mse_entry = align_mse(g2.attributes, diff, thoughts, gw, cfg)
    audit.record(mse_entry)
    results = dict(g2.attributes.test_results)
    results["mental_status"] = new_mse
    g2 = replace(g2, attributes=replace(g2.attributes, test_results=results))

    report = check_consistency(g, g2)
    if not report.passed:
        raise PerturbationError(
            case_id, report, "perturbation broke consistency: " + "; ".join(report.discrepancies)
        )
    violations = validate_graph(g2)
    if violations:
        raise PerturbationError(case_id, None, f"perturbed graph invalid: {violations[0]}")
    return g2, audit
