import random
from dataclasses import replace

import pytest
import yaml

from anonpsy.model import (
    CaseAttributes,
    Demographics,
    DiagnosisNode,
    DurationInterval,
    StebContext,
    SymptomNode,
)
from anonpsy.perturbation import (
    PerturbConfig,
    PerturbationError,
    case_seed,
    perturb,
    perturb_age,
    perturb_identity_fields,
    perturb_sex,
    perturb_test_values,
    rewrite_steb_contexts,
    rewrite_visit_episode,
    similarity_gate,
)
from anonpsy.perturbation.config import FeasibilityRule, load_feasibility_rules, load_test_value_pools
from anonpsy.perturbation.demographics import apply_age_offset
from anonpsy.perturbation.narrative import align_mse, derive_scaffold
from anonpsy.relations import check_consistency
from anonpsy.yamlio import parse_yaml, serialize_yaml

from .conftest import golden_text
from .helpers import FakeGateway, minimal_graph, random_valid_graph
from .synthesis import synthesize

RULES = load_feasibility_rules()
POOLS = load_test_value_pools()


def _cfg(**overrides):
    return PerturbConfig(**{"seed": 42, **overrides})


def _aspd_graph(age=19):
    g = minimal_graph()
    g.attributes.demographics.age = age
    g.diagnoses = [DiagnosisNode("dx_001", "antisocial personality disorder")]
    return g


class TestPerturbAge:
    def test_aspd_age_floor_constrains_candidates(self):
        g = _aspd_graph(age=19)
        for seed in range(40):
            rng = random.Random(seed)
            new_age, entry = perturb_age(g, _cfg(age_offset_bound_years=3), rng, RULES)
            assert new_age >= 18
            assert entry["offset_years"] in (-1, 1, 2, 3)
            for rejection in entry["rejected"]:
                assert rejection["offset_years"] in (-2, -3)
                assert "age >= 18" in rejection["reason"]

    def test_seed42_fixture_offsets_are_frozen(self, golden_dir):
        g1 = parse_yaml(golden_text("case_001.graph.yaml"))
        rng = random.Random(case_seed(42, "case_001"))
        new_age, entry = perturb_age(g1, _cfg(), rng, RULES)
        assert (new_age, entry["offset_years"], entry["draws"]) == (35, 3, 1)

        g2 = parse_yaml(golden_text("case_002.graph.yaml"))
        rng = random.Random(case_seed(42, "case_002"))
        new_age, entry = perturb_age(g2, _cfg(), rng, RULES)
        assert (new_age, entry["offset_years"]) == (18, -1)

    def test_no_rules_accepts_any_nonzero_offset(self):
        g = minimal_graph()
        rng = random.Random(7)
        new_age, entry = perturb_age(g, _cfg(age_offset_bound_years=2), rng, [])
        assert entry["offset_years"] in (-2, -1, 1, 2)
        assert new_age == g.attributes.demographics.age + entry["offset_years"]

    def test_contradictory_rules_fall_back_to_identity(self):
        g = minimal_graph()
        g.attributes.demographics.age = 18
        g.diagnoses = [DiagnosisNode("dx_001", "boxed-in disorder")]
        g.durations = [DurationInterval("d_001", 0, 1)]
        g.symptoms[0].duration_ids = ["d_001"]
        rules = [
            FeasibilityRule("boxed-in", "min_present_age", 18),
            FeasibilityRule("boxed-in", "max_onset_age", 19),
        ]
        rng = random.Random(0)
        new_age, entry = perturb_age(g, _cfg(), rng, rules)
        assert new_age == 18
        assert entry["offset_years"] is None
        assert entry["fallback"]
        assert len(entry["rejected"]) == 20

    def test_feasibility_holds_over_adversarial_trials(self):
        rng = random.Random(20)
        for _ in range(200):
            age = rng.randint(6, 60)
            onset_start = -rng.randint(0, 365 * 5)
            g = minimal_graph()
            g.attributes.demographics.age = age
            g.diagnoses = [DiagnosisNode("dx_001", "constrained disorder")]
            g.durations = [DurationInterval("d_001", onset_start, 30)]
            g.symptoms[0].duration_ids = ["d_001"]
            onset = age + onset_start / 365.0
            rules = []
            if rng.random() < 0.8:
                rules.append(FeasibilityRule("constrained", "min_present_age", max(0, age - rng.randint(0, 2))))
            if rng.random() < 0.8:
                rules.append(
                    FeasibilityRule("constrained", "max_onset_age", min(130, int(onset) + 1 + rng.randint(0, 2)))
                )
            new_age, entry = perturb_age(g, _cfg(age_offset_bound_years=rng.randint(1, 5)), random.Random(rng.random()), rules)
            offset = entry["offset_years"] or 0
            new_onset = new_age + onset_start / 365.0
            for rule in rules:
                if rule.constraint_kind == "min_present_age":
                    assert new_age >= int(rule.value)
                else:
                    assert new_onset < int(rule.value)


class TestApplyAgeOffset:
    def test_anchored_durations_keep_onset_age(self):
        g = minimal_graph()
        g.attributes.demographics.age = 20
        g.durations = [
            DurationInterval("d_anchor", -5110, 30, age_anchored=True),  # onset at age 6
            DurationInterval("d_rel", -14, 15),
        ]
        out = apply_age_offset(g, 23)
        anchored = out.durations_by_id()["d_anchor"]
        relative = out.durations_by_id()["d_rel"]
        assert out.attributes.demographics.age == 23
        assert anchored.offset_days == -5110 - 3 * 365
        assert 23 + anchored.offset_days / 365.0 == pytest.approx(20 + -5110 / 365.0)
        assert relative.offset_days == -14

    def test_untagged_pool_is_untouched(self):
        g = minimal_graph()
        out = apply_age_offset(g, g.attributes.demographics.age + 2)
        assert out.durations == g.durations


def _anchored_graphs(seeds):
    for seed in seeds:
        g = random_valid_graph(random.Random(seed))
        if any(d.age_anchored for d in g.durations):
            yield seed, g


def _sides_of_day0(g):
    """For each age-anchored interval: whether its start and its end lie after day 0."""
    return {d.id: (d.offset_days > 0, d.end_days > 0) for d in g.durations if d.age_anchored}


class TestAnchoredIntervals:
    def test_shift_that_keeps_onset_age_is_consistent(self):
        g = random_valid_graph(random.Random(6))
        out = apply_age_offset(g, g.attributes.demographics.age + 2)
        assert [d.id for d in out.durations if d.age_anchored] == ["d_004"]
        assert check_consistency(g, out).discrepancies == []

    def test_consistency_compares_anchored_intervals_by_onset_age(self):
        g = random_valid_graph(random.Random(6))
        moved = replace(g, durations=[replace(d, offset_days=d.offset_days - 1) for d in g.durations])
        assert not check_consistency(g, moved).passed  # a moved interval still breaks the backbone
        for _, g in _anchored_graphs(range(100)):
            for offset in (-5, -2, -1, 1, 3, 5):
                out = apply_age_offset(g, g.attributes.demographics.age + offset)
                assert check_consistency(g, out).passed

    def test_offset_moving_an_anchored_interval_across_day0_is_redrawn(self):
        g = minimal_graph()
        g.durations = [DurationInterval("d_001", -100, 50, age_anchored=True)]
        g.symptoms[0].duration_ids = ["d_001"]
        rejected = []
        for seed in range(20):
            new_age, entry = perturb_age(g, _cfg(age_offset_bound_years=1), random.Random(seed), [])
            assert entry["offset_years"] == 1 and new_age == g.attributes.demographics.age + 1
            rejected += entry["rejected"]
        crossing = {"offset_years": -1, "reason": "age offset moves an age-anchored interval across day 0"}
        assert rejected and all(rejection == crossing for rejection in rejected)

    def test_interval_over_day0_keeps_the_age(self):
        g = minimal_graph()
        g.durations = [DurationInterval("d_001", -10, 20, age_anchored=True)]
        g.symptoms[0].duration_ids = ["d_001"]
        new_age, entry = perturb_age(g, _cfg(), random.Random(0), [])
        assert new_age == g.attributes.demographics.age and entry["fallback"]

    def test_random_anchored_graphs_keep_their_backbone_through_perturb(self):
        graphs = list(_anchored_graphs(range(100)))
        assert len(graphs) >= 20
        for seed, g in graphs:
            gw = FakeGateway(synthesize)
            out, audit = perturb(g, gw, _cfg(), case_id=f"case_{seed:03d}")
            assert check_consistency(g, out).passed
            assert _sides_of_day0(out) == _sides_of_day0(g), seed


class TestPerturbSex:
    def test_required_sex_rule_pins(self):
        g = minimal_graph()
        g.diagnoses = [DiagnosisNode("dx_001", "premenstrual dysphoric disorder")]
        new_sex, entry = perturb_sex(g, _cfg(sex_flip_probability=1.0), random.Random(0), RULES)
        assert new_sex == "female"
        assert entry["pinned_by"] == "premenstrual dysphoric disorder"

    def test_required_sex_rule_sets_its_value(self):
        # case_001 is a man with major depressive disorder; a user rule pins the sex to female.
        g = parse_yaml(golden_text("case_001.graph.yaml"))
        assert g.attributes.demographics.sex == "male"
        rule = FeasibilityRule("major depressive", "required_sex", "female")
        new_sex, entry = perturb_sex(g, _cfg(sex_flip_probability=0.0), random.Random(0), [rule])
        assert new_sex == "female"
        assert entry == {"step": "sex", "original": "male", "new": "female", "pinned_by": "major depressive disorder"}

    @pytest.mark.parametrize("value", ["banana", "Female", 1, ""])
    def test_required_sex_value_is_male_or_female(self, value):
        with pytest.raises(ValueError, match="required_sex value must be male or female"):
            FeasibilityRule("major depressive", "required_sex", value)

    def test_zero_probability_is_identity(self):
        g = minimal_graph()
        new_sex, _ = perturb_sex(g, _cfg(sex_flip_probability=0.0), random.Random(0), [])
        assert new_sex == "female"

    def test_probability_one_flips(self):
        g = minimal_graph()
        new_sex, _ = perturb_sex(g, _cfg(sex_flip_probability=1.0), random.Random(0), [])
        assert new_sex == "male"


class TestIdentityFields:
    def test_minor_occupation_gate_retries(self):
        g = minimal_graph()
        g.attributes.demographics = Demographics(age=14, sex="male", ethnicity="", occupation="student")
        responses = {
            "1": yaml.safe_dump({"ethnicity": "of coastal descent", "occupation": "investment banker"}),
            "2": yaml.safe_dump({"ethnicity": "of coastal descent", "occupation": "babysitter"}),
        }
        gw = FakeGateway(lambda t, v: responses[v.get("attempt", "1")])
        ethnicity, occupation, entry = perturb_identity_fields(g, gw)
        assert occupation == "babysitter"
        assert any("not minor-permissible" in r for r in entry["rejected"])

    def test_same_occupation_rejected(self):
        g = minimal_graph()
        responses = {
            "1": yaml.safe_dump({"ethnicity": "of river valley descent", "occupation": "clerk"}),
            "2": yaml.safe_dump({"ethnicity": "of river valley descent", "occupation": "florist"}),
        }
        gw = FakeGateway(lambda t, v: responses[v.get("attempt", "1")])
        _, occupation, entry = perturb_identity_fields(g, gw)
        assert occupation == "florist"
        assert any("occupation unchanged" in r for r in entry["rejected"])

    def test_valid_proposal_accepted_verbatim(self):
        g = minimal_graph()
        gw = FakeGateway(lambda t, v: yaml.safe_dump({"ethnicity": "of alpine descent", "occupation": "florist"}))
        ethnicity, occupation, entry = perturb_identity_fields(g, gw)
        assert (ethnicity, occupation) == ("of alpine descent", "florist")
        assert entry["rejected"] == []

    def test_exhausted_retries_keep_originals(self):
        g = minimal_graph()
        gw = FakeGateway(lambda t, v: yaml.safe_dump({"ethnicity": "", "occupation": "clerk"}))
        ethnicity, occupation, entry = perturb_identity_fields(g, gw)
        assert occupation == "clerk"
        assert entry["fallback"] == "originals kept"

    def test_reply_with_invalid_date_is_unparseable_then_falls_back(self):
        # Pure PyYAML raises a bare ValueError on this reply, which failed the case.
        g = minimal_graph()
        gw = FakeGateway(lambda t, v: "ethnicity: 2021-02-30\noccupation: florist\n")
        ethnicity, occupation, entry = perturb_identity_fields(g, gw)
        assert (ethnicity, occupation) == ("", "clerk")
        reason = "invalid YAML: day is out of range for month at line 1, column 12"
        assert entry["rejected"] == [f"attempt 1: {reason}", f"attempt 2: {reason}", f"attempt 3: {reason}"]
        assert entry["fallback"] == "originals kept"


class TestSimilarityGate:
    def test_identical_candidate_rejected(self):
        result = similarity_gate("the same text", "the same text", 0.85)
        assert not result.accepted and result.score == 1.0

    def test_disjoint_vocabulary_accepted(self):
        result = similarity_gate("alpha beta gamma delta", "epsilon zeta eta theta", 0.85)
        assert result.accepted and result.score == 0.0

    def test_threshold_one_accepts_everything(self):
        assert similarity_gate("same words here", "same words here", 1.0).accepted


class TestVisitRewrite:
    def test_contradicting_keyword_rejected(self):
        g = minimal_graph()  # voluntary walk-in outpatient scaffold
        g.visit_event.arrival_mode = "walk-in"
        contradicted = yaml.safe_dump(
            {"visit_episode": "The patient arrived with a police escort after a disturbance call."}
        )
        clean = yaml.safe_dump(
            {"visit_episode": "The patient arrived unaccompanied after arranging an urgent same-day slot."}
        )
        gw = FakeGateway(lambda t, v: contradicted if v.get("attempt", "1") == "1" else clean)
        new_visit, entry = rewrite_visit_episode(g, gw, _cfg())
        assert "police escort" not in new_visit.visit_episode
        assert any("contradicted" in r for r in entry["rejected"])

    def test_clean_rewrite_keeps_scaffold(self):
        g = minimal_graph()
        gw = FakeGateway(
            lambda t, v: yaml.safe_dump(
                {"visit_episode": "A same-day appointment was arranged and the patient arrived alone."}
            )
        )
        new_visit, _ = rewrite_visit_episode(g, gw, _cfg())
        assert derive_scaffold(new_visit) == derive_scaffold(g.visit_event)
        assert new_visit.visit_episode != g.visit_event.visit_episode

    def test_identical_rewrite_rejected_by_similarity_gate(self):
        g = minimal_graph()
        gw = FakeGateway(lambda t, v: yaml.safe_dump({"visit_episode": g.visit_event.visit_episode}))
        new_visit, entry = rewrite_visit_episode(g, gw, _cfg())
        assert new_visit.visit_episode == g.visit_event.visit_episode
        assert entry["fallback"] == "original kept"
        assert all("similarity" in r for r in entry["rejected"])


def _steb_graph():
    g = minimal_graph()
    g.durations = [
        DurationInterval("d_old", -400, 30),
        DurationInterval("d_mid", -30, 10),
        DurationInterval("d_new", -7, 8),
    ]
    g.symptoms = [
        SymptomNode(
            id="s_old", symptom="withdrawal", pattern="episodic", current_symptom=False,
            evidence_text="kept to himself", duration_ids=["d_old"],
            contexts=[StebContext(situation="around holidays", emotion="flat")],
        ),
        SymptomNode(
            id="s_mid", symptom="irritability", pattern="episodic", current_symptom=False,
            evidence_text="snapped at others", duration_ids=["d_mid"],
            contexts=[StebContext(situation="at family dinners", thought="they keep score", emotion="tense")],
        ),
        SymptomNode(
            id="s_new", symptom="insomnia", pattern="nightly", current_symptom=True,
            evidence_text="lay awake", duration_ids=["d_new"],
            contexts=[StebContext(situation="on weeknights", behavior="paced the kitchen")],
        ),
    ]
    g.relations = []
    return g


class TestStebRewrite:
    def test_retrograde_order_and_window(self):
        g = _steb_graph()

        def handler(template_id, variables):
            fields = [f.strip() for f in variables["fields"].split(",")]
            return yaml.safe_dump({name: f"rewritten {name} for {variables['node_id']}" for name in fields})

        gw = FakeGateway(handler)
        out, audits = rewrite_steb_contexts(g, gw, _cfg())
        called = [v["node_id"] for _t, v in gw.calls]
        assert called == ["s_new", "s_mid", "s_old"]  # descending episode start
        # The oldest rewrite sees the two newer frames in its window.
        oldest_vars = gw.calls[-1][1]
        assert "rewritten situation for s_new" in oldest_vars["recent_contexts"]
        assert "rewritten situation for s_mid" in oldest_vars["recent_contexts"]

    def test_field_sets_preserved(self):
        g = _steb_graph()

        def handler(template_id, variables):
            fields = [f.strip() for f in variables["fields"].split(",")]
            doc = {name: f"fresh {name}" for name in fields}
            doc["emotion"] = "smuggled emotion"  # extra field must be dropped
            return yaml.safe_dump(doc)

        gw = FakeGateway(handler)
        out, _ = rewrite_steb_contexts(g, gw, _cfg())
        new = next(s for s in out.symptoms if s.id == "s_new")
        assert new.contexts[0].present_fields() == ("situation", "behavior")
        assert new.contexts[0].emotion is None

    def test_near_copies_flagged_and_graph_unchanged(self):
        g = _steb_graph()
        gw = FakeGateway(
            lambda t, v: yaml.safe_dump(
                {name: dict(line.split(": ", 1) for line in v["frame"].splitlines())[name]
                 for name in [f.strip() for f in v["fields"].split(",")]}
            )
        )
        out, audits = rewrite_steb_contexts(g, gw, _cfg())
        assert out.symptoms == g.symptoms
        assert all(a.get("fallback") for a in audits)

    def test_age_at_event_uses_episode_start(self):
        g = _steb_graph()
        g.attributes.demographics.age = 30
        seen = {}

        def handler(template_id, variables):
            seen[variables["node_id"]] = variables["age_at_event"]
            fields = [f.strip() for f in variables["fields"].split(",")]
            return yaml.safe_dump({name: f"new {name}" for name in fields})

        rewrite_steb_contexts(g, FakeGateway(handler), _cfg())
        assert seen["s_old"] == "29"  # 30 - 400/365 rounds to 29
        assert seen["s_new"] == "30"


class TestPerturbTestValues:
    def _attrs(self, other="MMSE score was 27."):
        return CaseAttributes(
            demographics=Demographics(age=40, sex="female"),
            test_results={"labs": "", "imaging": "", "mental_status": "", "other": other},
        )

    def test_mmse_resampled_within_pool(self):
        for seed in range(30):
            attrs, audits = perturb_test_values(self._attrs(), POOLS, random.Random(seed))
            value = int(attrs.test_results["other"].split()[-1].rstrip("."))
            assert 24 <= value <= 30 and value != 27

    def test_surrounding_text_byte_identical(self):
        attrs, _ = perturb_test_values(self._attrs(), POOLS, random.Random(5))
        out = attrs.test_results["other"]
        assert out.startswith("MMSE score was ") and out.endswith(".")

    def test_out_of_pool_value_flagged_and_unchanged(self):
        attrs, audits = perturb_test_values(self._attrs("MMSE score was 999."), POOLS, random.Random(1))
        assert attrs.test_results["other"] == "MMSE score was 999."
        assert any(a.get("flagged") for a in audits)

    def test_unmatched_numbers_untouched(self):
        attrs, _ = perturb_test_values(self._attrs("Heart rate was 88."), POOLS, random.Random(1))
        assert attrs.test_results["other"] == "Heart rate was 88."

    def test_fixed_seed_is_deterministic_and_frozen(self):
        base = CaseAttributes(
            demographics=Demographics(age=40, sex="female"),
            test_results={
                "labs": "Fasting glucose was 104 mg/dL",
                "imaging": "",
                "mental_status": "",
                "other": "MMSE score was 27. Full Scale IQ of 112.",
            },
        )
        attrs, _ = perturb_test_values(base, POOLS, random.Random(123))
        assert attrs.test_results["labs"] == "Fasting glucose was 101 mg/dL"
        assert attrs.test_results["other"] == "MMSE score was 24. Full Scale IQ of 114."

    def test_a_number_two_pools_reach_is_edited_once(self):
        for seed in range(20):
            attrs, audits = perturb_test_values(
                self._attrs("FSIQ and fasting glucose were 95 and 97."), POOLS, random.Random(seed)
            )
            (entry,) = audits
            assert (entry["test"], entry["original"]) == ("fasting glucose", 95)  # the nearest alias before it
            assert attrs.test_results["other"] == f"FSIQ and fasting glucose were {entry['new']} and 97."

    def test_the_nearest_pool_that_holds_the_number_edits_it(self):
        # MMSE stands nearer but its bands end at 30: glucose edits 95, and nothing flags it.
        text = "Fasting glucose and MMSE were 95."
        attrs, audits = perturb_test_values(self._attrs(text), POOLS, random.Random(3))
        (entry,) = audits
        assert (entry["test"], entry["original"]) == ("fasting glucose", 95)
        assert attrs.test_results["other"] == f"Fasting glucose and MMSE were {entry['new']}."

    def test_a_number_no_reaching_pool_holds_is_flagged_once(self):
        attrs, audits = perturb_test_values(self._attrs("FSIQ and MMSE were 999."), POOLS, random.Random(3))
        assert attrs.test_results["other"] == "FSIQ and MMSE were 999."
        flag = {"step": "test_value", "field": "other", "test": "mmse", "value": 999}
        assert audits == [{**flag, "flagged": "outside all pools; unchanged"}]

    def test_table_order_breaks_a_tie(self):
        first, second = (replace(POOLS[0], canonical_test=name, aliases=("score",)) for name in ("first", "second"))
        _, audits = perturb_test_values(self._attrs("score 42"), [second, first], random.Random(3))
        assert [entry["test"] for entry in audits] == ["second"]


class TestAlignMse:
    def _attrs(self):
        return CaseAttributes(
            demographics=Demographics(age=40, sex="female"),
            test_results={
                "labs": "",
                "imaging": "",
                "mental_status": "She was well groomed, speech was soft, mood was low, no hallucinations, oriented, with fair insight and intact judgment.",
                "other": "",
            },
        )

    def test_empty_diff_skips_edit(self):
        gw = FakeGateway(lambda t, v: (_ for _ in ()).throw(AssertionError("should not be called")))
        text, entry = align_mse(self._attrs(), {}, [], gw)
        assert entry["skipped"]
        assert text == self._attrs().test_results["mental_status"]

    def test_minimal_pronoun_edit_accepted(self):
        source = self._attrs()
        edited = source.test_results["mental_status"].replace("She was", "He was")
        gw = FakeGateway(lambda t, v: edited)
        text, entry = align_mse(source, {"sex": {"from": "female", "to": "male"}}, [], gw)
        assert text == edited and "fallback" not in entry

    def test_dropping_perception_sentence_rejected(self):
        source = self._attrs()
        mutilated = source.test_results["mental_status"].replace("no hallucinations, ", "")
        gw = FakeGateway(lambda t, v: mutilated)
        text, entry = align_mse(source, {"sex": {"from": "female", "to": "male"}}, [], gw)
        assert text == source.test_results["mental_status"]
        assert any("perception" in r for r in entry["rejected"])


def _yaml_section(text: str, name: str, following: str | None) -> str:
    start = text.index(f"{name}:")
    end = text.index(f"{following}:") if following else len(text)
    return text[start:end]


class TestPerturbEndToEnd:
    @pytest.mark.parametrize("case_id", ["case_001", "case_002", "case_003"])
    def test_backbone_bytes_and_consistency(self, case_id, mock_gateway):
        g = parse_yaml(golden_text(f"{case_id}.graph.yaml"))
        g2, audit = perturb(g, mock_gateway, _cfg(), case_id=case_id)
        before, after = serialize_yaml(g), serialize_yaml(g2)
        assert _yaml_section(before, "durations", None) == _yaml_section(after, "durations", None)
        assert _yaml_section(before, "relations", "durations") == _yaml_section(after, "relations", "durations")
        # STEB field sets preserved frame by frame.
        for s_before, s_after in zip(g.symptoms, g2.symptoms):
            assert [c.present_fields() for c in s_before.contexts] == [
                c.present_fields() for c in s_after.contexts
            ]

    def test_same_seed_same_output(self, mock_gateway):
        g = parse_yaml(golden_text("case_001.graph.yaml"))
        first, _ = perturb(g, mock_gateway, _cfg(), case_id="case_001")
        second, _ = perturb(g, mock_gateway, _cfg(), case_id="case_001")
        assert serialize_yaml(first) == serialize_yaml(second)

    def test_matches_golden_perturbed_graph(self, mock_gateway):
        g = parse_yaml(golden_text("case_002.graph.yaml"))
        g2, _ = perturb(g, mock_gateway, _cfg(), case_id="case_002")
        assert serialize_yaml(g2) == golden_text("case_002.graph.perturbed.yaml")

    def test_invalid_input_graph_refused(self, mock_gateway):
        g = minimal_graph()
        g.symptoms[0].duration_ids = ["d_404"]
        with pytest.raises(PerturbationError):
            perturb(g, mock_gateway, _cfg(), case_id="bad")
