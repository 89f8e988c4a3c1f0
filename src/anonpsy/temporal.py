"""Day-based canonicalization of temporal episodes.

Raw (offset, span, unit) episodes are converted to half-open integer-day
intervals anchored at the index encounter (day 0), globally deduplicated,
reconciled per node into disjoint non-adjacent blocks, and finally split so
that every symptom node references exactly one interval. All operations are
pure: they return new graphs and never mutate their input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .model import (
    DurationInterval,
    RawEpisode,
    SemanticGraph,
    StebContext,
    SymptomNode,
)

# Fixed integer unit factors keep the coordinate system exact.
UNIT_FACTORS = {"day": 1, "week": 7, "month": 30, "year": 365}


class TemporalError(ValueError):
    pass


@dataclass(frozen=True)
class TimelineHorizon:
    """Shared end-of-timeline used to close ongoing episodes.

    horizon_end_days >= 1, so a present-day ongoing episode always covers
    day 0 under the half-open rule.
    """

    horizon_end_days: int

    def __post_init__(self) -> None:
        if self.horizon_end_days < 1:
            raise TemporalError(f"horizon_end_days must be >= 1, got {self.horizon_end_days}")


def to_days(e: RawEpisode, h: TimelineHorizon | None = None) -> tuple[int, int]:
    """Convert one raw episode to (start_days, span_days).

    Ongoing or unending episodes are closed at the shared horizon; finite
    spans are scaled by the unit factor. The resulting span is always >= 1.
    """
    if e.unit not in UNIT_FACTORS:
        raise TemporalError(f"unknown unit {e.unit!r}")
    factor = UNIT_FACTORS[e.unit]
    start = e.offset * factor
    if e.ongoing or e.span is None:
        if h is None:
            raise TemporalError("ongoing episode requires a timeline horizon")
        span = h.horizon_end_days - start
        if span < 1:
            raise TemporalError(
                f"empty interval: ongoing episode starts at day {start}, "
                f"horizon ends at day {h.horizon_end_days}"
            )
        return start, span
    return start, max(1, e.span * factor)


def compute_horizon(episodes: list[RawEpisode]) -> TimelineHorizon:
    """Derive the shared horizon: the latest finite episode end, clamped to 1."""
    end = 1
    for e in episodes:
        if e.ongoing or e.span is None:
            continue
        factor = UNIT_FACTORS.get(e.unit)
        if factor is None:
            continue
        end = max(end, (e.offset + e.span) * factor)
    return TimelineHorizon(end)


def dedup_durations(g: SemanticGraph) -> SemanticGraph:
    """Collapse pool entries with identical (offset_days, span_days).

    The first entry in pool order survives; all node references are rewritten
    to the survivor. Idempotent.
    """
    keeper: dict[tuple[int, int], str] = {}
    remap: dict[str, str] = {}
    kept: list[DurationInterval] = []
    for d in g.durations:
        key = (d.offset_days, d.span_days)
        if key in keeper:
            remap[d.id] = keeper[key]
        else:
            keeper[key] = d.id
            kept.append(d)

    if not remap:
        return g

    def rewrite(node):
        new_ids = [remap.get(i, i) for i in node.duration_ids]
        return replace(node, duration_ids=new_ids) if new_ids != node.duration_ids else node

    return replace(g.map_timed(rewrite), durations=kept)


def _next_virtual_counter(g: SemanticGraph) -> int:
    highest = 0
    for d in g.durations:
        m = re.fullmatch(r"dvm_(\d+)", d.id)
        if m:
            highest = max(highest, int(m.group(1)))
    return highest + 1


def _merge_runs(intervals: list[DurationInterval]) -> list[list[DurationInterval]]:
    """Group intervals into maximal overlapping-or-adjacent runs.

    Adjacency on half-open intervals means end_a == start_b; such pairs merge.
    Input order does not matter; runs come back sorted by start.
    """
    ordered = sorted(intervals, key=lambda d: (d.offset_days, d.end_days, d.id))
    runs: list[list[DurationInterval]] = []
    run_end: int | None = None
    for d in ordered:
        if run_end is not None and d.offset_days <= run_end:
            runs[-1].append(d)
            run_end = max(run_end, d.end_days)
        else:
            runs.append([d])
            run_end = d.end_days
    return runs


def reconcile_node_intervals(g: SemanticGraph) -> SemanticGraph:
    """Merge each node's overlapping/adjacent intervals into disjoint blocks.

    Merged blocks materialize as fresh virtual durations (dvm_ ids); blocks
    consisting of a single source interval keep their id. Unreferenced pool
    entries are dropped. Each node's covered day set is preserved exactly.
    One pass reaches the fixed point: a node's maximal runs are disjoint and
    non-adjacent, so a second pass returns its input.
    """
    pool = g.durations_by_id()
    counter = _next_virtual_counter(g)
    fresh: list[DurationInterval] = []

    def reconcile_node(node):
        nonlocal counter
        unique_ids = list(dict.fromkeys(node.duration_ids))
        intervals = [pool[i] for i in unique_ids]
        new_ids: list[str] = []
        changed = unique_ids != node.duration_ids
        for run in _merge_runs(intervals):
            if len(run) == 1:
                new_ids.append(run[0].id)
                continue
            start = min(d.offset_days for d in run)
            end = max(d.end_days for d in run)
            merged = DurationInterval(
                id=f"dvm_{counter:03d}",
                offset_days=start,
                span_days=end - start,
                virtual=True,
                age_anchored=any(d.age_anchored for d in run),
            )
            counter += 1
            fresh.append(merged)
            new_ids.append(merged.id)
            changed = True
        return replace(node, duration_ids=new_ids) if changed else node

    reconciled = g.map_timed(reconcile_node)
    referenced = {i for node in reconciled.timed_nodes() for i in node.duration_ids}
    durations = [d for d in (*g.durations, *fresh) if d.id in referenced]
    return replace(reconciled, durations=durations)


def recompute_current_flags(g: SemanticGraph) -> SemanticGraph:
    """Set current_symptom from day-0 coverage; touches no other field."""
    pool = g.durations_by_id()

    def flag(node: SymptomNode) -> SymptomNode:
        current = any(pool[i].covers_day0() for i in node.duration_ids if i in pool)
        return replace(node, current_symptom=current) if current != node.current_symptom else node

    return replace(g, symptoms=[flag(n) for n in g.symptoms])


def split_multi_episode_symptoms(g: SemanticGraph) -> SemanticGraph:
    """Split symptoms with several intervals into one-episode-per-node form.

    Children inherit symptom/pattern/evidence_text, get fresh ids derived from
    the parent, and take over the parent's relations. STEB frames are paired
    to episodes in ascending temporal order; surplus frames attach to the last
    child, a deficit leaves later children context-free.
    """
    pool = g.durations_by_id()
    existing_ids = set(g.node_by_id())
    new_symptoms: list[SymptomNode] = []
    replicas: dict[str, list[str]] = {}

    for node in g.symptoms:
        if len(node.duration_ids) <= 1:
            new_symptoms.append(node)
            continue
        ordered = sorted(
            node.duration_ids,
            key=lambda i: (pool[i].offset_days, pool[i].end_days, i),
        )
        context_slots: list[list[StebContext]] = [[] for _ in ordered]
        for k, ctx in enumerate(node.contexts):
            context_slots[min(k, len(ordered) - 1)].append(ctx)
        children: list[SymptomNode] = []
        for k, dur_id in enumerate(ordered):
            child_id = f"{node.id}_e{k + 1}"
            while child_id in existing_ids:
                child_id = f"{child_id}x"
            existing_ids.add(child_id)
            children.append(
                SymptomNode(
                    id=child_id,
                    symptom=node.symptom,
                    pattern=node.pattern,
                    current_symptom=pool[dur_id].covers_day0(),
                    evidence_text=node.evidence_text,
                    contexts=context_slots[k],
                    duration_ids=[dur_id],
                )
            )
        new_symptoms.extend(children)
        replicas[node.id] = [c.id for c in children]

    if not replicas:
        return g

    new_relations = []
    for rel in g.relations:
        if rel.source_id in replicas:
            new_relations.extend(replace(rel, source_id=cid) for cid in replicas[rel.source_id])
        elif rel.target_id in replicas:
            new_relations.extend(replace(rel, target_id=cid) for cid in replicas[rel.target_id])
        else:
            new_relations.append(rel)

    return replace(g, symptoms=new_symptoms, relations=new_relations)


def temporal_signature(g: SemanticGraph) -> dict[str, tuple[tuple[int, int], ...]]:
    """Canonical node_id -> sorted (start, end) tuples map.

    Pure function of graph content: node order permutations do not change it,
    any offset change does. An age-anchored interval is keyed by onset age,
    its days plus 365 x age, so an age change that keeps its onset age (see
    `apply_age_offset`) leaves it unchanged.
    """
    pool = g.durations_by_id()
    age_days = 365 * g.attributes.demographics.age

    def span(d: DurationInterval) -> tuple[int, int]:
        shift = age_days if d.age_anchored else 0
        return d.offset_days + shift, d.end_days + shift

    signature: dict[str, tuple[tuple[int, int], ...]] = {}
    for node in g.timed_nodes():
        spans = sorted(span(pool[i]) for i in node.duration_ids if i in pool)
        signature[node.id] = tuple(spans)
    return dict(sorted(signature.items()))
