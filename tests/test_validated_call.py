"""Contracts of the validated model calls: attempt tags, audit lines, and
which steps raise and which fall back when a reply is rejected or the
gateway fails; and the one reader of replies that must be a YAML mapping."""

import ast
import random
from pathlib import Path

import pytest
import yaml

import anonpsy
from anonpsy.converter import CaseNarrative, ConversionError, extract_entities
from anonpsy.evaluation import report
from anonpsy.evaluation.judge import JudgeError, judge_risk
from anonpsy.gateway import GatewayError, MockFixtureMissing
from anonpsy.model import CaseAttributes, Demographics, FamilyHistoryEntry
from anonpsy.narrator import NarrationError, append_tail, narrate_history, narrate_lead, plan_outline
from anonpsy.perturbation import (
    PerturbConfig,
    align_mse,
    perturb_identity_fields,
    rewrite_steb_contexts,
    rewrite_visit_episode,
)
from anonpsy.perturbation.narrative import derive_scaffold
from anonpsy.relations import add_causal_edges_llm

from .helpers import FakeGateway, minimal_graph

_CFG = PerturbConfig(seed=42)
_NARRATIVE = CaseNarrative(case_id="tab", text="Low mood for weeks.")
_MSE = "She was well groomed, speech was soft, mood was low, no hallucinations, oriented."


def _down(template_id: str) -> GatewayError:
    return GatewayError(template_id, "backend down")


def _attempt_tags(gw: FakeGateway) -> list:
    return [v.get("attempt") for _, v in gw.calls]


# --- steps that raise --------------------------------------------------------


class TestRaisingSteps:
    def test_converter_exhaustion_message_and_untagged_first_attempt(self):
        gw = FakeGateway(lambda t, v: "- a\n- b\n")
        with pytest.raises(ConversionError) as info:
            extract_entities(_NARRATIVE, gw)
        assert str(info.value) == (
            "case tab, stage extract_entities: unparseable structured response after retries: "
            "expected mapping, got list"
        )
        assert _attempt_tags(gw) == [None, "2", "3"]

    def test_converter_lets_mock_fixture_missing_through_unchanged(self):
        missing = MockFixtureMissing("extract_entities", "no mock fixture")
        gw = FakeGateway(lambda t, v: missing)
        with pytest.raises(MockFixtureMissing) as info:
            extract_entities(_NARRATIVE, gw)
        assert info.value is missing
        assert len(gw.calls) == 1

    def test_judge_exhaustion_message_and_tags(self):
        gw = FakeGateway(lambda t, v: "choice: C")
        with pytest.raises(JudgeError) as info:
            judge_risk("orig", "a", "b", gw, random.Random(1))
        assert str(info.value) == "judge response unusable after 3 attempts: unparseable judgment"
        assert _attempt_tags(gw) == [None, "2", "3"]

    def test_judge_propagates_gateway_error(self):
        gw = FakeGateway(lambda t, v: _down(t))
        with pytest.raises(GatewayError, match=r"^\[judge_risk\] backend down$"):
            judge_risk("orig", "a", "b", gw, random.Random(1))
        assert len(gw.calls) == 1

    def test_lead_exhaustion_message_and_tags(self):
        gw = FakeGateway(lambda t, v: "I reviewed the chart today. The visit went well.")
        with pytest.raises(NarrationError) as info:
            narrate_lead(plan_outline(minimal_graph()), gw)
        assert str(info.value) == "lead paragraph rejected after 3 attempts: first/second person"
        assert _attempt_tags(gw) == [None, "2", "3"]

    def test_lead_propagates_gateway_error(self):
        gw = FakeGateway(lambda t, v: _down(t))
        with pytest.raises(GatewayError, match=r"^\[lead_paragraph\] backend down$"):
            narrate_lead(plan_outline(minimal_graph()), gw)
        assert len(gw.calls) == 1


# --- generation steps that fall back -----------------------------------------


class TestNarratorFallsBackOnGatewayError:
    def test_symptom_sentence(self):
        outline = plan_outline(minimal_graph())
        failing = FakeGateway(lambda t, v: _down(t))
        rejecting = FakeGateway(lambda t, v: "Two sentences here. Definitely two.")
        text = narrate_history(outline, failing)
        assert text == narrate_history(outline, rejecting)
        assert "the patient experienced low mood" in text
        assert len(failing.calls) == 1
        assert _attempt_tags(rejecting) == [None, "2", "3"]

    def test_tail(self):
        g = minimal_graph()
        g.attributes.family_history = [FamilyHistoryEntry("mother", "depression")]
        outline = plan_outline(g)
        failing = FakeGateway(lambda t, v: _down(t))
        rejecting = FakeGateway(lambda t, v: "Rewritten draft. Plus a tail sentence.")
        text = append_tail("Original draft.", outline, failing)
        assert text == append_tail("Original draft.", outline, rejecting)
        assert text == "Original draft.\n\nFamily history included mother with depression."
        assert len(failing.calls) == 1
        assert _attempt_tags(rejecting) == [None, "2", "3"]


# --- perturbation audit lines ------------------------------------------------


def _identity(gw):
    return perturb_identity_fields(minimal_graph(), gw)[2]


def _visit(gw):
    return rewrite_visit_episode(minimal_graph(), gw, _CFG)[1]


def _steb(gw):
    return rewrite_steb_contexts(minimal_graph(), gw, _CFG)[1][0]


def _mse(gw):
    attrs = CaseAttributes(
        demographics=Demographics(age=40, sex="female"),
        test_results={"labs": "", "imaging": "", "mental_status": _MSE, "other": ""},
    )
    diff = {"sex": {"from": "female", "to": "male"}}
    return align_mse(attrs, diff, [], gw)[1]


_SCAFFOLD = derive_scaffold(minimal_graph().visit_event)

# step, template, first (rejected) reply, its reason, and the fallback entry
# for a "rejected" list, in key order.
_FALLBACK_STEPS = [
    (
        _identity,
        "identity_fields",
        yaml.safe_dump({"ethnicity": "of alpine descent", "occupation": "clerk"}),
        "occupation unchanged",
        lambda rejected: {
            "step": "identity_fields",
            "ethnicity": {"original": "", "new": ""},
            "occupation": {"original": "clerk", "new": "clerk"},
            "rejected": rejected,
            "fallback": "originals kept",
        },
    ),
    (
        _visit,
        "visit_rewrite",
        yaml.safe_dump({"pathway": "walk-in"}),
        "missing visit_episode",
        lambda rejected: {
            "step": "visit_episode",
            "rejected": rejected,
            "scaffold": _SCAFFOLD,
            "fallback": "original kept",
        },
    ),
    (
        _steb,
        "steb_rewrite",
        yaml.safe_dump({"situation": "on a crowded train"}),
        "field 'emotion' missing from rewrite",
        lambda rejected: {
            "step": "steb",
            "node_id": "s_001",
            "frame": 0,
            "rejected": rejected,
            "fallback": "original frame kept",
        },
    ),
    (
        _mse,
        "mse_align",
        "   \n",
        "empty rewrite",
        lambda rejected: {"step": "mse", "rejected": rejected, "fallback": "original kept"},
    ),
]


@pytest.mark.parametrize("step,template,reply,reason,fallback", _FALLBACK_STEPS)
def test_perturbation_gateway_failure_is_audited_and_stops(step, template, reply, reason, fallback):
    gw = FakeGateway(lambda t, v: reply if v.get("attempt") is None else _down(t))
    entry = step(gw)
    expected = fallback([f"attempt 1: {reason}", f"attempt 2: gateway failure: [{template}] backend down"])
    assert list(entry.items()) == list(expected.items())
    assert _attempt_tags(gw) == [None, "2"]


@pytest.mark.parametrize("step,template,reply,reason,fallback", _FALLBACK_STEPS)
def test_perturbation_exhaustion_audits_every_attempt(step, template, reply, reason, fallback):
    gw = FakeGateway(lambda t, v: reply)
    entry = step(gw)
    expected = fallback([f"attempt {n}: {reason}" for n in (1, 2, 3)])
    assert list(entry.items()) == list(expected.items())
    assert _attempt_tags(gw) == [None, "2", "3"]


# --- one reader of mapping replies -------------------------------------------

# A bad reply of each kind, and the one-line reason `yamlio.reply_mapping` gives for it.
_BAD_MAPPINGS = [
    pytest.param(
        "diagnoses: [unclosed",
        "invalid YAML: expected ',' or ']', but got '<stream end>' at line 1, column 21",
        id="invalid",
    ),
    pytest.param("- a\n- b\n", "expected mapping, got list", id="list"),
    pytest.param("k: 2021-02-30\n", "invalid YAML: day is out of range for month at line 1, column 4", id="date"),
    pytest.param("[" * 600 + "]" * 600, "invalid YAML: document nested too deeply", id="deep"),
    pytest.param(
        "k: \x07\n",
        'invalid YAML: unacceptable character #x0007: special characters are not allowed in "<unicode string>", position 3',
        id="control",
    ),
]


def _error(call, kind) -> list[str]:
    with pytest.raises(kind) as info:
        call()
    return [str(info.value)]


def _fallback(entry: dict) -> list[str]:
    return entry["rejected"] + [entry["fallback"]]


def _exhausted(fallback: str):
    return lambda reason: [f"attempt {n}: {reason}" for n in (1, 2, 3)] + [fallback]


def _causal(gw) -> list[str]:
    warnings = []
    g = minimal_graph()
    assert add_causal_edges_llm(g, "Low mood for weeks.", gw, warnings=warnings) == g
    return warnings


# Each step that reads its reply as a mapping, keyed by its template: what it
# makes of a bad reply (its error, or its audit lines and fallback, or its
# warnings) given the reason, and how many model calls it makes.
_MAPPING_STEPS = {
    "extract_entities": (
        lambda gw: _error(lambda: extract_entities(_NARRATIVE, gw), ConversionError),
        lambda reason: [f"case tab, stage extract_entities: unparseable structured response after retries: {reason}"],
        3,
    ),
    "causal_pass": (_causal, lambda reason: [f"causal pass returned an unparseable response ({reason}); ignored"], 3),
    "identity_fields": (lambda gw: _fallback(_identity(gw)), _exhausted("originals kept"), 3),
    "visit_rewrite": (lambda gw: _fallback(_visit(gw)), _exhausted("original kept"), 3),
    "steb_rewrite": (lambda gw: _fallback(_steb(gw)), _exhausted("original frame kept"), 3),
    "judge_risk": (
        lambda gw: _error(lambda: judge_risk("orig", "a", "b", gw, random.Random(1)), JudgeError),
        lambda reason: [f"judge response unusable after 3 attempts: {reason}"],
        3,
    ),
    "predict_diagnoses": (
        lambda gw: _error(lambda: report._predict_diagnoses(gw, "Low mood.", "tab", "original"), GatewayError),
        lambda reason: [f"[predict_diagnoses] response is not a diagnoses mapping: {reason}"],
        3,
    ),
    "diagnosis_acceptability": (
        lambda gw: _error(
            lambda: report._judge_acceptability(gw, "Low mood.", ["depression"], "tab", "original"), GatewayError
        ),
        lambda reason: [f"[diagnosis_acceptability] response is not an acceptability mapping: {reason}"],
        3,
    ),
}


@pytest.mark.parametrize("reply,reason", _BAD_MAPPINGS)
@pytest.mark.parametrize("step", list(_MAPPING_STEPS))
def test_every_mapping_step_reads_a_bad_reply_alike(step, reply, reason):
    run, expected, calls = _MAPPING_STEPS[step]
    gw = FakeGateway(lambda t, v: reply)
    outcome = run(gw)
    assert outcome == expected(reason)
    assert [t for t, _ in gw.calls] == [step] * calls
    assert not any("\n" in line for line in outcome)  # one `attempt N: <reason>` line per rejection


# The steps that word a bad field without a reason, given a mapping whose field
# they cannot use: no reason from `reply_mapping` to name.
_FIELD_FAULTS = {
    "causal_pass": ["causal pass returned an unparseable response; ignored"],
    "predict_diagnoses": ["[predict_diagnoses] response is not a diagnoses mapping"],
    "diagnosis_acceptability": ["[diagnosis_acceptability] response is not an acceptability mapping"],
}


@pytest.mark.parametrize("step", list(_FIELD_FAULTS))
def test_a_mapping_with_an_unusable_field_keeps_the_plain_wording(step):
    run, _, _ = _MAPPING_STEPS[step]
    assert run(FakeGateway(lambda t, v: "edges: 3\ndiagnoses: 3\nacceptable: maybe\n")) == _FIELD_FAULTS[step]


def _callers(tree: ast.Module, name: str) -> set[str]:
    """The top-level definitions (`<module>` for other statements) that call `name`."""
    callers = set()
    for node in tree.body:
        called = {
            n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
        }
        if name in called:
            callers.add(node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>")
    return callers


def test_only_yamlio_reads_model_replies():
    # A model reply is read by `yamlio`; `yaml` and `safe_load` serve otherwise
    # only the readers of the files a user writes.
    src_dir = Path(anonpsy.__file__).parent
    importers, loaders = [], []
    for path in sorted(src_dir.rglob("*.py")):
        module = path.relative_to(src_dir).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(
            isinstance(n, ast.Import) and any(a.name.partition(".")[0] == "yaml" for a in n.names)
            or isinstance(n, ast.ImportFrom) and n.level == 0 and (n.module or "").partition(".")[0] == "yaml"
            for n in ast.walk(tree)
        ):
            importers.append(module)
        if module != "yamlio.py":
            loaders += [f"{module}:{owner}" for owner in sorted(_callers(tree, "safe_load"))]
    assert importers == ["config.py", "perturbation/config.py", "yamlio.py"]
    assert loaders == ["config.py:load_config", "perturbation/config.py:_read_table", "runner.py:load_corpus"]


class TestStebExtraFields:
    _FRESH = {"situation": "on a crowded train", "emotion": "uneasy and restless", "behavior": "left early"}

    def test_accepted_rewrite_keeps_extra_fields_entry(self):
        gw = FakeGateway(lambda t, v: yaml.safe_dump(self._FRESH))
        out, audits = rewrite_steb_contexts(minimal_graph(), gw, _CFG)
        assert audits == [
            {"step": "steb", "node_id": "s_001", "frame": 0, "rejected": ["attempt 1: extra fields dropped: ['behavior']"]}
        ]
        assert out.symptoms[0].contexts[0].situation == "on a crowded train"
        assert out.symptoms[0].contexts[0].behavior is None

    def test_extra_fields_entry_precedes_the_same_attempts_rejection(self):
        copy = {"situation": "at home", "emotion": "sad", "behavior": "left early"}
        replies = {None: yaml.safe_dump(copy), "2": yaml.safe_dump({"situation": "on a train", "emotion": "tense"})}
        gw = FakeGateway(lambda t, v: replies[v.get("attempt")])
        _, audits = rewrite_steb_contexts(minimal_graph(), gw, _CFG)
        assert audits[0]["rejected"] == [
            "attempt 1: extra fields dropped: ['behavior']",
            "attempt 1: similarity 1.000 above threshold",
        ]
        assert "fallback" not in audits[0]


# --- one copy of the loop ----------------------------------------------------


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _attempt_loops(tree: ast.AST) -> list[int]:
    """Lines of loops whose variable, range or condition names an attempt count."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            names = _names(node.target) | _names(node.iter)
        elif isinstance(node, ast.While):
            names = _names(node.test)
        else:
            continue
        if any("attempt" in n.lower() or n == "max_retries" for n in names):
            lines.append(getattr(node, "lineno", None) or node.target.lineno)
    return lines


def test_only_validated_call_loops_over_attempts():
    src_dir = Path(anonpsy.__file__).parent
    helper = next(
        node
        for node in ast.walk(ast.parse((src_dir / "gateway.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "validated_call"
    )
    allowed = range(helper.lineno, helper.end_lineno + 1)
    offenders = []
    for path in sorted(src_dir.rglob("*.py")):
        for line in _attempt_loops(ast.parse(path.read_text(encoding="utf-8"))):
            if not (path.name == "gateway.py" and path.parent == src_dir and line in allowed):
                offenders.append(f"{path.relative_to(src_dir)}:{line}")
    assert offenders == []
    assert _attempt_loops(helper)


def _call_sites(name: str) -> list[tuple[str, ast.Call]]:
    """("<module>:<innermost function>", call) of each call in src/ of a function or method named `name`."""
    src_dir = Path(anonpsy.__file__).parent
    sites = []

    def visit(node: ast.AST, module: str, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            called = getattr(child, "func", None)
            if isinstance(child, ast.Call) and name in (getattr(called, "attr", None), getattr(called, "id", None)):
                sites.append((f"{module}:{owner}", child))
            visit(child, module, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    for path in sorted(src_dir.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.relative_to(src_dir).as_posix(), "<module>")
    return sites


def test_only_validated_call_and_the_unchecked_baselines_call_a_gateway():
    # Every checked reply is read through `validated_call`; the baselines'
    # rewrites are the only replies taken unchecked.
    sites = [site for site, _ in _call_sites("call")]
    assert sites == [
        "baselines.py:sdc_rewrite",
        "baselines.py:llm_only",
        "baselines.py:llm_only",
        "gateway.py:validated_call",
    ]


def test_the_gateway_alone_picks_each_call_s_temperature_model_and_attempts():
    # CALL_POLICIES fixes each template's temperature and model, and every
    # checked step makes VALIDATED_ATTEMPTS calls: no call passes either.
    given = {
        (site, keyword.arg)
        for name in ("call", "request", "validated_call")
        for site, call in _call_sites(name)
        for keyword in call.keywords
    }
    assert sorted(given) == []
