import random
from dataclasses import replace

import pytest

from anonpsy.model import DurationInterval, RawEpisode, StebContext
from anonpsy.temporal import (
    TemporalError,
    TimelineHorizon,
    compute_horizon,
    dedup_durations,
    recompute_current_flags,
    reconcile_node_intervals,
    split_multi_episode_symptoms,
    temporal_signature,
    to_days,
)

from .helpers import day_set, maximal_runs, minimal_graph, random_timed_graph


class TestToDays:
    def test_weeks(self):
        assert to_days(RawEpisode(offset=-2, span=2, unit="week")) == (-14, 14)

    def test_years(self):
        assert to_days(RawEpisode(offset=-1, span=1, unit="year")) == (-365, 365)

    def test_ongoing_resolved_by_horizon(self):
        episode = RawEpisode(offset=-30, span=None, unit="day", ongoing=True)
        assert to_days(episode, TimelineHorizon(5)) == (-30, 35)

    def test_ongoing_starting_at_horizon_is_empty(self):
        episode = RawEpisode(offset=5, span=None, unit="day", ongoing=True)
        with pytest.raises(TemporalError, match="empty interval"):
            to_days(episode, TimelineHorizon(5))

    def test_zero_span_clamps_to_one_day(self):
        assert to_days(RawEpisode(offset=-3, span=0, unit="day")) == (-3, 1)


class TestComputeHorizon:
    def test_no_finite_episodes_clamps_to_one(self):
        episodes = [RawEpisode(offset=-3, span=None, unit="day", ongoing=True)]
        assert compute_horizon(episodes).horizon_end_days == 1

    def test_max_of_finite_ends(self):
        episodes = [
            RawEpisode(offset=-5, span=2, unit="day"),
            RawEpisode(offset=2, span=3, unit="day"),
        ]
        assert compute_horizon(episodes).horizon_end_days == 5

    def test_all_negative_ends_clamp(self):
        episodes = [
            RawEpisode(offset=-5, span=2, unit="day"),
            RawEpisode(offset=-2, span=1, unit="day"),
        ]
        assert compute_horizon(episodes).horizon_end_days == 1


class TestDedup:
    def test_exact_matches_collapse(self):
        g = minimal_graph()
        g.durations = [DurationInterval("d_001", -7, 7), DurationInterval("d_002", -7, 7)]
        g.symptoms = [
            replace(g.symptoms[0], id="s_001", duration_ids=["d_001"]),
            replace(g.symptoms[0], id="s_002", duration_ids=["d_002"]),
        ]
        g.relations = []
        out = dedup_durations(g)
        assert [d.id for d in out.durations] == ["d_001"]
        assert out.symptoms[0].duration_ids == ["d_001"]
        assert out.symptoms[1].duration_ids == ["d_001"]

    def test_distinct_pool_unchanged(self):
        g = minimal_graph()
        g.durations = [DurationInterval("d_001", -7, 7), DurationInterval("d_002", -7, 8)]
        assert dedup_durations(g) == g

    def test_idempotent(self):
        g = minimal_graph()
        g.durations = [DurationInterval("d_001", -7, 7), DurationInterval("d_002", -7, 7)]
        g.symptoms[0].duration_ids = ["d_001", "d_002"]
        once = dedup_durations(g)
        assert dedup_durations(once) == once


def _one_symptom_graph(intervals):
    g = minimal_graph()
    g.durations = [DurationInterval(f"d_{i:03d}", s, e - s) for i, (s, e) in enumerate(intervals)]
    g.symptoms[0].duration_ids = [d.id for d in g.durations]
    return g


class TestReconcile:
    def test_overlapping_intervals_merge(self):
        out = reconcile_node_intervals(_one_symptom_graph([(-10, -3), (-5, 2)]))
        spans = [(d.offset_days, d.end_days, d.virtual) for d in out.durations]
        assert spans == [(-10, 2, True)]
        # Matches the integer-day union oracle exactly.
        assert maximal_runs(day_set([(-10, -3), (-5, 2)])) == [(-10, 2)]

    def test_adjacent_intervals_merge(self):
        out = reconcile_node_intervals(_one_symptom_graph([(-10, -3), (-3, 2)]))
        assert [(d.offset_days, d.end_days) for d in out.durations] == [(-10, 2)]
        assert maximal_runs(day_set([(-10, -3), (-3, 2)])) == [(-10, 2)]

    def test_disjoint_nonadjacent_unchanged(self):
        g = _one_symptom_graph([(-10, -3), (5, 7)])
        assert reconcile_node_intervals(g) == g

    def test_matches_day_set_oracle_on_random_graphs(self):
        rng = random.Random(4821)
        for _ in range(100):
            g = random_timed_graph(rng)
            out = reconcile_node_intervals(g)
            pool_before = g.durations_by_id()
            pool_after = out.durations_by_id()
            before_nodes = {n.id: n for n in g.timed_nodes()}
            for node in out.timed_nodes():
                original = before_nodes[node.id]
                days_before = day_set(
                    [(pool_before[i].offset_days, pool_before[i].end_days) for i in original.duration_ids]
                )
                spans_after = sorted(
                    (pool_after[i].offset_days, pool_after[i].end_days) for i in node.duration_ids
                )
                assert spans_after == maximal_runs(days_before)
                assert day_set(spans_after) == days_before  # conservation

    def test_one_pass_is_the_fixed_point(self):
        rng = random.Random(4822)
        for _ in range(100):
            g = random_timed_graph(rng)
            for graph in (g, dedup_durations(g)):
                out = reconcile_node_intervals(graph)
                assert reconcile_node_intervals(out) == out

    def test_unreferenced_durations_removed(self):
        g = minimal_graph()
        g.durations = [DurationInterval("d_001", -14, 15), DurationInterval("d_unused", -5, 5)]
        out = reconcile_node_intervals(g)
        assert [d.id for d in out.durations] == ["d_001"]

    def test_shared_duration_survives_when_one_node_merges_it(self):
        g = minimal_graph()
        g.durations = [DurationInterval("d_001", -10, 7), DurationInterval("d_002", -5, 7)]
        s1 = replace(g.symptoms[0], id="s_001", duration_ids=["d_001", "d_002"])
        s2 = replace(g.symptoms[0], id="s_002", duration_ids=["d_001"], contexts=[])
        g.symptoms = [s1, s2]
        g.relations = []
        out = reconcile_node_intervals(g)
        assert out.symptoms[0].duration_ids == ["dvm_001"]
        assert out.symptoms[1].duration_ids == ["d_001"]
        ids = {d.id for d in out.durations}
        assert ids == {"d_001", "dvm_001"}


class TestCurrentFlags:
    @pytest.mark.parametrize(
        "start,span,expected",
        [(-5, 5, False), (0, 1, True), (-3, 7, True)],
    )
    def test_half_open_rule(self, start, span, expected):
        g = minimal_graph()
        g.durations = [DurationInterval("d_001", start, span)]
        g.symptoms[0].current_symptom = not expected
        out = recompute_current_flags(g)
        assert out.symptoms[0].current_symptom is expected

    def test_only_flag_changes(self):
        g = minimal_graph()
        g.symptoms[0].current_symptom = False
        out = recompute_current_flags(g)
        assert replace(out.symptoms[0], current_symptom=False) == g.symptoms[0]


class TestSplit:
    def _graph(self, n_intervals, n_contexts):
        g = minimal_graph()
        g.durations = [DurationInterval(f"d_{i:03d}", -30 * (i + 1), 10) for i in range(n_intervals)]
        g.symptoms[0].duration_ids = [d.id for d in g.durations]
        g.symptoms[0].contexts = [StebContext(situation=f"scene {i}") for i in range(n_contexts)]
        return g

    def test_two_intervals_two_contexts_paired_by_time(self):
        out = split_multi_episode_symptoms(self._graph(2, 2))
        assert [s.id for s in out.symptoms] == ["s_001_e1", "s_001_e2"]
        pool = out.durations_by_id()
        starts = [pool[s.duration_ids[0]].offset_days for s in out.symptoms]
        assert starts == sorted(starts)
        # Earliest context goes to the earliest episode.
        assert out.symptoms[0].contexts[0].situation == "scene 0"
        assert out.symptoms[1].contexts[0].situation == "scene 1"

    def test_single_interval_unchanged(self):
        g = self._graph(1, 1)
        assert split_multi_episode_symptoms(g) == g

    def test_three_intervals_one_context(self):
        out = split_multi_episode_symptoms(self._graph(3, 1))
        context_counts = [len(s.contexts) for s in out.symptoms]
        assert context_counts == [1, 0, 0]

    def test_surplus_contexts_attach_to_last_node(self):
        out = split_multi_episode_symptoms(self._graph(2, 4))
        assert [len(s.contexts) for s in out.symptoms] == [1, 3]

    def test_relations_replicated_to_children(self):
        g = self._graph(2, 2)
        out = split_multi_episode_symptoms(g)
        triples = {r.triple() for r in out.relations}
        assert triples == {
            ("MANIFESTS_AS", "s_001_e1", "dx_001"),
            ("MANIFESTS_AS", "s_001_e2", "dx_001"),
        }

    def test_idempotent(self):
        out = split_multi_episode_symptoms(self._graph(3, 2))
        assert split_multi_episode_symptoms(out) == out

    def test_currency_recomputed_per_child(self):
        g = minimal_graph()
        g.durations = [DurationInterval("d_a", -100, 10), DurationInterval("d_b", -5, 10)]
        g.symptoms[0].duration_ids = ["d_a", "d_b"]
        out = split_multi_episode_symptoms(g)
        assert [s.current_symptom for s in out.symptoms] == [False, True]


class TestSignature:
    def test_repeated_calls_equal(self):
        g = minimal_graph()
        assert temporal_signature(g) == temporal_signature(g)

    def test_offset_change_changes_signature(self):
        g = minimal_graph()
        g2 = replace(g, durations=[DurationInterval("d_001", -15, 15)])
        assert temporal_signature(g) != temporal_signature(g2)

    def test_node_order_permutation_invariant(self):
        g = minimal_graph()
        extra = replace(g.symptoms[0], id="s_002", duration_ids=["d_001"])
        g.symptoms = [g.symptoms[0], extra]
        g2 = replace(g, symptoms=[extra, g.symptoms[0]])
        assert temporal_signature(g) == temporal_signature(g2)
