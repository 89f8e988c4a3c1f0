"""Where libyaml may read and write, and the proof that it changes nothing.

`yamlio.load_yaml` (libyaml when present) reads YAML the program wrote or
ships. `yamlio.safe_load` and `yamlio.safe_dump` take libyaml only where a
predicate holds; the differential properties below check them against pure
PyYAML (`pytest --hypothesis-profile=fuzz` runs 10^5 examples each). The
emitter's plain-scalar guard asks the resolver instead of parsing each scalar;
the old parse is kept here as the reference.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anonpsy import prompts, runner, yamlio
from anonpsy.config import RunConfig
from anonpsy.converter import CaseNarrative, ConversionError, extract_entities
from anonpsy.yamlio import (
    _PLAIN_FLOW,
    _PLAIN_SCALAR,
    _plain_is_str,
    load_yaml,
    parse_yaml,
    safe_dump,
    safe_load,
    serialize_yaml,
)

from .conftest import CORPUS_DIR, FIXTURES_DIR, GOLDEN_DIR
from .helpers import FakeGateway, minimal_graph
from .synthesis import GOLD_DIAGNOSES


def _old_guard(value: str) -> bool:
    try:
        return yaml.safe_load(value) == value
    except ValueError:
        # Resolved as an int with no digits ("0x_"): the old guard raised out
        # of serialize_yaml; the resolver guard quotes the value.
        return False


def _stripped(pattern):
    return st.from_regex(pattern, fullmatch=True).filter(lambda v: v == v.strip())


@settings(max_examples=400)
@given(_stripped(_PLAIN_SCALAR) | _stripped(_PLAIN_FLOW))
@example("0x1F")
@example("0x_")
@example("0b_")
@example("0777")
@example("1_000")
@example("1.")
@example("1e5")
@example("2001-12-14")
@example("Yes")
@example("OFF")
@example("Null")
@example("190")
@example("1,000")
@example("3 mg")
def test_resolver_guard_agrees_with_full_parse(value):
    assert _plain_is_str(value) == _old_guard(value)


def test_digitless_int_lookalike_round_trips():
    g = minimal_graph()
    g.attributes.demographics.occupation = "0x_"
    text = serialize_yaml(g)
    assert 'occupation: "0x_"' in text
    assert parse_yaml(text) == g


def _packaged_yaml():
    data = resources.files("anonpsy").joinpath("data")
    return sorted((p.name, p.read_text(encoding="utf-8")) for p in data.iterdir() if p.name.endswith(".yaml"))


@pytest.mark.parametrize("name,text", _packaged_yaml(), ids=lambda v: v if v.endswith(".yaml") else "")
def test_packaged_tables_load_equal(name, text):
    assert load_yaml(text) == yaml.safe_load(text)


def _run(out_dir):
    config = RunConfig(seed=42, jobs=1, backend="mock", fixtures_dir=str(FIXTURES_DIR))
    assert runner.run_pipeline(CORPUS_DIR, out_dir, config).ok
    for name in runner.BASELINE_NAMES:
        assert runner.run_baseline(name, CORPUS_DIR, out_dir, config).ok
    assert runner.run_evaluation(out_dir, config).ok


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def mock_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    _run(out_dir)
    return out_dir


def test_run_artifacts_load_equal(mock_run):
    paths = sorted(mock_run.rglob("*.yaml"))
    assert {p.name for p in paths} >= {"graph.yaml", "meta.yaml", "run_manifest.yaml", "report.yaml"}
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert load_yaml(text) == yaml.safe_load(text), path
    manifest = (mock_run / "run_manifest.yaml").read_text(encoding="utf-8")
    assert json.loads(manifest) == yaml.safe_load(manifest)


def test_eval_report_matches_golden(mock_run):
    assert (mock_run / "report.yaml").read_bytes() == (GOLDEN_DIR / "report.yaml").read_bytes()


def test_model_reply_with_trailing_tab_is_still_retried():
    # libyaml accepts this reply; pure PyYAML raises ScannerError on it.
    gw = FakeGateway(lambda t, v: "entities: []\t")
    narrative = CaseNarrative(case_id="tab", text="Low mood for weeks.")
    with pytest.raises(ConversionError, match="invalid YAML"):
        extract_entities(narrative, gw)
    assert [v.get("attempt") for _, v in gw.calls] == [None, "2", "3"]


def test_reply_with_invalid_date_is_retried():
    # Pure PyYAML raises a bare ValueError here, which no retry loop caught.
    gw = FakeGateway(lambda t, v: "entities:\n  - onset: 2021-02-30\n")
    narrative = CaseNarrative(case_id="date", text="Low mood for weeks.")
    with pytest.raises(ConversionError, match="invalid YAML: day is out of range for month"):
        extract_entities(narrative, gw)
    assert [v.get("attempt") for _, v in gw.calls] == [None, "2", "3"]


def test_deeply_nested_reply_is_retried_then_conversion_error():
    # Pure PyYAML raises RecursionError here, which failed the case unretried.
    gw = FakeGateway(lambda t, v: "[" * 600 + "]" * 600)
    narrative = CaseNarrative(case_id="deep", text="Low mood for weeks.")
    with pytest.raises(ConversionError, match="invalid YAML: document nested too deeply"):
        extract_entities(narrative, gw)
    assert [v.get("attempt") for _, v in gw.calls] == [None, "2", "3"]


@pytest.mark.parametrize("text", ["onset: 2021-02-30", "n: 0b_", "- 0000-01-01", "{a: 0x_}"])
def test_invalid_dates_and_numbers_raise_constructor_error(text):
    with pytest.raises(ValueError) as pure:
        yaml.safe_load(text)
    with pytest.raises(yaml.constructor.ConstructorError) as ours:
        safe_load(text)
    assert str(ours.value).startswith(str(pure.value) + "\n  in ")
    assert ours.value.__cause__.args == pure.value.args


def test_deep_nesting_is_left_to_pure_pyyaml():
    # libyaml composes this; pure PyYAML gives up, and far deeper text would
    # crash libyaml's recursive composer.
    text = "[" * 600 + "]" * 600
    if yaml.__with_libyaml__:
        assert yaml.load(text, Loader=yaml.CSafeLoader) is not None
    assert not yamlio._reads_alike(text)
    with pytest.raises(RecursionError):
        yaml.safe_load(text)
    with pytest.raises(yamlio.NestingTooDeepError, match="^document nested too deeply$") as err:
        safe_load(text)
    assert isinstance(err.value, yaml.YAMLError)
    assert isinstance(err.value.__cause__, RecursionError)
    block = "".join(" " * i + f"k{i}:\n" for i in range(70)) + " " * 70 + "v\n"
    assert not yamlio._reads_alike(block)
    assert safe_load(block) == yaml.safe_load(block)


def test_fast_text_alphabet_is_printable_ascii_and_lf_without_indicators():
    allowed = {chr(i) for i in range(0x110000) if not yamlio._SLOW_TEXT.search(chr(i))}
    assert allowed == {"\n"} | {chr(i) for i in range(0x20, 0x7F)} - set("!%|>?@`")


# --- differential properties: yamlio against pure PyYAML ---------------------


def _outcome(load, text):
    """The value `load` reads as its repr, or its error as (type, message).

    `yamlio.safe_load` wraps pure PyYAML's bare ValueError; both sides report
    it as the ValueError.
    """
    try:
        return "value", repr(load(text))
    except yaml.YAMLError as exc:
        if isinstance(exc.__cause__, ValueError):
            return "ValueError", str(exc.__cause__)
        return type(exc).__name__, str(exc)
    except ValueError as exc:
        return "ValueError", str(exc)


_REPLIES = sorted(p.read_text(encoding="utf-8") for p in FIXTURES_DIR.rglob("*.txt"))

# Pieces with a meaning in YAML, and each difference between the two parsers
# that the fuzz found: `!`, `|#`, `{a:}`, a trailing tab.
_TOKENS = (
    "a", "key", "x y", "1", "-1", "1.5", "1e5", ".inf", "0x1F", "0b_", "0o17", "012", "1_000", "1:20",
    "2021-02-30", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "true", "No", "null", "~", "",
    "-", "- ", ": ", ":", " ", "  ", "\n", "\n  ", "\n- ", "[", "]", "{", "}", ",", ", ", "'", '"',
    "#", " #", "&x ", "*x", "\\", "\\n", "\\x41", "\\u263a", "\\ud800", "---", "...", "<<: ", "{a:}",
    "/", "*", "&", ".", "=", "\t", "!", "|", "|#", ">", "?", "%", "@", "`", "\r", "\x85", "é", "\u2028",
    "\ufeff", "\x00", "x" * 90,
)


@st.composite
def _mutated_replies(draw):
    """A real model reply with a few tokens inserted, deleted or replaced."""
    text = draw(st.sampled_from(_REPLIES))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.sampled_from(_TOKENS)) + text[at + cut :]
    return text


_REPLY_TEXTS = st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join) | _mutated_replies() | st.text(max_size=40)


@given(_REPLY_TEXTS)
@example("a: !\n")
@example("a: |#x\n  b\n")
@example("{a:}")
@example("entities: []\t")
def test_safe_load_matches_pure_pyyaml(text):
    assert _outcome(safe_load, text) == _outcome(yaml.safe_load, text)


_ASCII = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=120)
_WORDS = st.sampled_from(("", "null", "Yes", "0x1F", "2001-12-14", "- a", "a: b", "x #y", "'q'", "x " * 50))
_NAMES = st.sampled_from(("case_id", "seed", "entries", "rejected", "fallback", "blocks", "tail", "stages", "variant_means"))
_ASCII_KEYS = _NAMES | st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=64)
_ANY_KEYS = _ASCII_KEYS | st.text(max_size=8) | st.sampled_from(("", "k" * 65, "k" * 130))
_NUMBERS = st.none() | st.booleans() | st.integers() | st.floats()


def _nodes(keys, strings):
    return st.recursive(
        _NUMBERS | strings,
        lambda kids: st.lists(kids, max_size=5) | st.dictionaries(keys, kids, max_size=6),
        max_leaves=24,
    )


# Documents shaped like the audit, outline, report and manifest (ASCII, the
# libyaml path), and any others.
_DOCS = (
    st.dictionaries(_ASCII_KEYS, _nodes(_ASCII_KEYS, _ASCII | _WORDS), min_size=1, max_size=8)
    | st.dictionaries(_ANY_KEYS, _nodes(_ANY_KEYS, _ASCII | _WORDS | st.text()), max_size=8)
    | _nodes(_ANY_KEYS, _ASCII | st.text())
)


_CYCLE: dict = {"a": 1}
_CYCLE["self"] = _CYCLE


# Each example differs between the two emitters, or would stall the walk,
# without one rule of `yamlio._node_tree`.
@given(_DOCS, st.booleans(), st.booleans())
@example("text", True, False)
@example({"": 1}, True, False)
@example({"k" * 125: 1}, True, False)
@example({"a": "ab " * 26 + "\nc"}, False, True)
@example({"a": "a\x01" * 17}, True, False)
@example(_CYCLE, True, False)
def test_safe_dump_matches_pure_pyyaml(doc, sort_keys, allow_unicode):
    expected = yaml.safe_dump(doc, sort_keys=sort_keys, allow_unicode=allow_unicode)
    assert safe_dump(doc, sort_keys=sort_keys, allow_unicode=allow_unicode) == expected


_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-05, 1e16, 1e17, 0.1 + 0.2, 2.5, -7.0]


# The documents `_node_tree` builds: mappings of printable-ASCII keys of 1 to
# 64 characters over printable-ASCII strings and any number, bool or null.
@pytest.mark.skipif(yamlio._CDumper is None, reason="libyaml is not installed")
@given(st.dictionaries(_ASCII_KEYS, _nodes(_ASCII_KEYS, _ASCII | _WORDS), max_size=8), st.booleans(), st.booleans())
@example({"f": _FLOATS, "g": {"x": 1e-05, "y": -0.0}}, True, False)
@example({"b": True, "i": 1, "z": 0, "n": False, "m": -1, "big": 2**70}, False, False)
@example({"e": {}, "l": [], "n": [[1, [2, []]], [{}], {"k": []}], "": None}, True, True)
@example({"z": None, "a": [None, True, 1, 1.5, "1.5", "true"], "m": {"b": "x", "a": "y"}}, True, False)
def test_a_node_tree_is_written_as_pure_pyyaml_writes_the_document(doc, sort_keys, allow_unicode):
    expected = yaml.safe_dump(doc, sort_keys=sort_keys, allow_unicode=allow_unicode)
    node = yamlio._node_tree(doc, sort_keys)
    if "" in doc:  # an empty key: a document libyaml writes apart
        assert node is None
    else:
        assert yaml.serialize(node, Dumper=yamlio._CDumper, allow_unicode=allow_unicode) == expected
    assert safe_dump(doc, sort_keys=sort_keys, allow_unicode=allow_unicode) == expected


# Corpus entries, `meta.yaml`'s shape: a flat mapping of labels and lists of
# labels, from all of Unicode and from the edges of `yamlio._flat_dump`.
_LABEL_EDGES = st.sampled_from(
    (
        *("major depressive disorder", "case_001", "steroid-induced psychosis", "bipolar I disorder (current)"),
        *("", " a", "a ", "a  b", "a: b", "a:", "a:b", "a::", "a #b", "a#b", "#a", "-a", "- a", "?a", ":a", "a\tb", "a\nb"),
        *("'q'", '"q"', "a'b", "!a", "&a", "*a", "%a", "@a", "`a", "|a", ">a", "---a", "...a", "[a", "{a", "a, b", "a [b]"),
        *("yes", "No", "on", "OFF", "y", "null", "Null", "~", "=", "<<", "true", "False"),
        *("1", "-1", "+1", "1.5", "1.", "1e3", "0x1F", "0o7", "0777", "1_000", ".inf", ".NaN", "1:20", "190:20:30"),
        *("2020-01-02", "2020-1-2 10:00:00", "é", "a\x85b", "a" * 78, "a" * 79, "a " * 38 + "b", "a " * 40 + "b"),
    )
)
_LABELS = (
    st.from_regex(r"[a-z][a-z0-9 ()'-]{0,90}[a-z]", fullmatch=True)
    | _LABEL_EDGES
    | st.text("aby01 -:#.'", min_size=1, max_size=40)
    | st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E))
    | st.text()
)
_ENTRIES = st.fixed_dictionaries({"case_id": _LABELS, "diagnoses": st.lists(_LABELS, max_size=4)}) | st.dictionaries(
    _LABELS, _LABELS | st.lists(_LABELS, max_size=4), max_size=4
)
_SHARED: list = ["a"]


# Each example is written wrongly without one rule of `yamlio._flat_dump`.
@given(_ENTRIES, st.booleans())
@example({"case_id": "case_001", "diagnoses": []}, False)
@example({"a": _SHARED, "b": _SHARED}, False)
@example({"a": "b " * 38 + "c"}, False)
@example({"a": ["b " * 39 + "c"]}, False)
@example({"a" * 200: ["b"]}, False)
@example({"b": "1", "a": "2001-12-14"}, True)
def test_a_flat_entry_renders_as_pure_pyyaml_writes_it(doc, sort_keys):
    expected = yaml.safe_dump(doc, sort_keys=sort_keys)
    text = yamlio._flat_dump(doc, sort_keys)
    assert text in (None, expected)
    assert text is None or yamlio._flat_load(text) == doc
    assert safe_dump(doc, sort_keys=sort_keys) == expected


# The flat grammar of `yamlio._flat_load`, and near-misses: YAML 1.1 words and
# numbers, keys that read as no string, duplicate keys, and layout.
_FLAT_KEYS = st.sampled_from(("diagnoses", "acceptable", "choice", "risk_a", "a b", "a:b", "a-", "x"))
_FLAT_KEY_MISSES = st.sampled_from(("true", "null", "on", "No", "1", "~", "-a", "a ", " a", "'a'", "k" * 129, "k" * 1100))
_FLAT_SCALARS = st.sampled_from(
    (
        *("true", "false", "null", "Null", "NULL", "0", "7", "42", "1" * 100, "A", "B", "case_001", "1e5"),
        *("major depressive disorder", "a#b", "a:b", "a, b", "a [b]", "a'b", "a-", "x y z"),
    )
)
_FLAT_SCALAR_MISSES = st.sampled_from(
    (
        *("True", "FALSE", "yes", "No", "on", "off", "y", "~", "", "-1", "+1", "00", "012", "08", "1_000", "0x1f"),
        *("0b1", "12:30", "190:20:30", "2021-01-01", ".5", "1.", "1.5", ".inf", ".NaN", "1" * 101, "a: b", "a #b", "a:"),
        *("'q'", '"q"', "[a]", "{a: b}", "*a", "&a", "!a", "|", ">", "%a", "@a", "`a", "?a", "-a", "- a", "a ", " a"),
        "é",
    )
)
_FLAT_SPLICES = st.sampled_from(
    ("\n", "\n\n", " ", "  ", "\t", "\r", "\r\n", "#", " #c", "\n# c\n", "- ", ": ", "---\n", "\ufeff")
)


@st.composite
def _flat_texts(draw):
    """A flat mapping; about one line in four has a near-miss key or value, and one text in two a splice."""

    def pick(good, miss):
        return draw(miss if draw(st.integers(0, 3)) == 0 else good)

    lines = []
    for _ in range(draw(st.integers(1, 4))):
        key = pick(_FLAT_KEYS, _FLAT_KEY_MISSES)
        shape = draw(st.sampled_from(("scalar", "scalar", "empty", "items", "none")))
        if shape == "scalar":
            lines.append(f"{key}: {pick(_FLAT_SCALARS, _FLAT_SCALAR_MISSES)}")
        elif shape == "empty":
            lines.append(f"{key}: []")
        else:
            lines.append(f"{key}:")
            indent = "  " if draw(st.integers(0, 3)) == 0 else ""
            if shape == "items":
                lines += [f"{indent}- {pick(_FLAT_SCALARS, _FLAT_SCALAR_MISSES)}" for _ in range(draw(st.integers(1, 3)))]
    text = "\n".join(lines) + draw(st.sampled_from(("\n", "\n", "")))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_FLAT_SPLICES) + text[at:]
    return text


# Each example is read wrongly without one rule of `yamlio._flat_load`.
@given(_flat_texts() | _REPLY_TEXTS)
@example("choice: yes\n")
@example("risk_a: 012\n")
@example("risk_a: 0x1f\n")
@example("k" * 1100 + ": a\n")
@example("diagnoses:\n  - a\n")
@example("diagnoses: []\n- a\n")
@example("a: 1\na:\n- 2\na: true\n")
@example("diagnoses:\r\n- x\r\n")
def test_the_flat_reader_reads_as_pyyaml_or_not_at_all(text):
    value = yamlio._flat_load(text)
    if value is not None:
        assert repr(value) == repr(yaml.safe_load(text))


@pytest.mark.parametrize(
    "reply", [text for text in _REPLIES if text.startswith(("diagnoses:", "acceptable:", "choice:"))]
)
def test_every_eval_and_judge_fixture_reply_takes_the_flat_reader(reply):
    assert yamlio._flat_load(reply) is not None


def test_every_test_corpus_entry_takes_the_fast_path():
    # The corpus under tests/data, and the benchmark's replicas (case_101 on) of the synthesized cases.
    entries = [{"case_id": n.case_id, "diagnoses": n.ground_truth_diagnoses} for n in runner.load_corpus(CORPUS_DIR)]
    entries += [{"case_id": f"case_{101 + i:03d}", "diagnoses": d} for i, d in enumerate(GOLD_DIAGNOSES.values())]
    for entry in entries:
        text = yamlio._flat_dump(entry, False)
        assert text == yaml.safe_dump(entry, sort_keys=False), entry
        assert yamlio._flat_load(text) == entry


_HEX = "0123456789abcdef"
# Case ids and messages from all of Unicode but the surrogates; a case id is a key, of at most 128 characters.
_CASE_ID = st.text(min_size=1, max_size=128) | st.sampled_from(("case_001", 'a"b\\c', "\x7f\x85\x9f\u2028\u2029"))
_ROW = st.sampled_from(tuple(runner.STAGES))
_STAGE_STATUS = st.fixed_dictionaries(
    {"succeeded": st.lists(_CASE_ID, max_size=4), "failed": st.dictionaries(_CASE_ID, st.text(), max_size=4)},
    optional={"degraded": st.lists(_CASE_ID, max_size=4)},
)
_MANIFESTS = st.fixed_dictionaries(
    {
        "config_digest": st.text(_HEX, min_size=64, max_size=64),
        "seed": st.integers(),
        "backend": st.sampled_from(("mock", "live")),
        "model": st.text(),
        "judge_model": st.text(),
        "prompt_assets": st.dictionaries(st.sampled_from(prompts.list_templates()), st.text(_HEX, min_size=64, max_size=64)),
        "stages": st.dictionaries(_ROW, _STAGE_STATUS, max_size=4),
    },
    optional={
        "provenance": st.dictionaries(
            _CASE_ID, st.dictionaries(_ROW, st.text(_HEX, min_size=32, max_size=32), min_size=1), max_size=4
        )
    },
)
_YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])
_STRANGE = '"\\ \n\t\r\x00\x1b\x7f\x80\x85\x9f\xa0\u2028\u2029\ufeff\ufffe\uffff\U0001f600 #: - ? {}'


@given(_MANIFESTS)
@example({"stages": {"eval": {"succeeded": [_STRANGE], "failed": {_STRANGE: _STRANGE}}}, "seed": -1})
@example({"provenance": {"é" * 128: {"convert": "0" * 32}}, "model": "1e-05"})
def test_the_manifest_reads_alike_as_json_and_as_yaml(doc):
    text = yamlio.json_dump(doc)
    assert text.startswith("{") and text.endswith("}\n")
    assert json.loads(text) == doc
    assert load_yaml(text) == doc
    for loader in _YAML_LOADERS:
        assert yaml.load(text, Loader=loader) == doc, loader


def test_a_case_id_that_is_not_utf8_round_trips_through_the_manifest():
    # A case directory whose name is not UTF-8 has lone surrogates in its id; raw, they cannot be written.
    doc = {"stages": {"eval": {"succeeded": [], "failed": {"case_\udcff": "UnicodeEncodeError"}}}}
    text = yamlio.json_dump(doc)
    text.encode("utf-8")
    assert json.loads(text) == load_yaml(text) == yaml.load(text, Loader=yaml.SafeLoader) == doc


@pytest.mark.parametrize("doc", [{"k" * 129: 1}, {"\x01" * 171: 1}, {"a": 1e-05}, {"a": 1.5}, {1: "a"}])
def test_what_yaml_would_read_otherwise_is_written_as_block_yaml(doc):
    text = yamlio.json_dump(doc)
    assert text == safe_dump(doc, sort_keys=True)
    assert load_yaml(text) == yaml.safe_load(text) == doc


@pytest.mark.parametrize("reply", _REPLIES)
def test_every_fixture_reply_reads_alike_through_libyaml(reply):
    assert yamlio._reads_alike(reply)
    assert _outcome(safe_load, reply) == _outcome(yaml.safe_load, reply)


_DUMPED_GOLDENS = sorted(
    p.name for p in GOLDEN_DIR.iterdir() if p.name.endswith(("outline.yaml", "perturb.audit.yaml", "report.yaml"))
)


@pytest.mark.parametrize("name", _DUMPED_GOLDENS)
def test_every_dumped_golden_is_emitted_by_libyaml_unchanged(name):
    text = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    doc = yaml.safe_load(text)
    assert yamlio._node_tree(doc, False) is not None
    assert safe_dump(doc, sort_keys=False, allow_unicode=True) == text


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*.yaml")))
def test_every_golden_document_reads_alike(name):
    text = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert _outcome(safe_load, text) == _outcome(yaml.safe_load, text)


# --- without libyaml -----------------------------------------------------------


@pytest.fixture()
def no_libyaml(monkeypatch):
    monkeypatch.setattr(yamlio, "_CLoader", None)
    monkeypatch.setattr(yamlio, "_CDumper", None)


def test_run_without_libyaml_is_byte_identical(no_libyaml, mock_run, tmp_path):
    out_dir = tmp_path / "run"
    _run(out_dir)
    assert _tree(out_dir) == _tree(mock_run)
    for path in GOLDEN_DIR.iterdir():
        case_id, _, artifact = path.name.partition(".")
        produced = out_dir / path.name if path.name == "report.yaml" else out_dir / case_id / artifact
        assert produced.read_bytes() == path.read_bytes(), path.name


_BAD_REPLIES = ["entities: []\t", "a: !\n", "{a:}", "a: |#x\n  b\n", "onset: 2021-02-30", "diagnoses: [unclosed", "- a\nb: c"]


def test_reply_parse_without_libyaml_is_unchanged(monkeypatch):
    texts = _REPLIES + _BAD_REPLIES
    expected = [_outcome(safe_load, text) for text in texts]
    monkeypatch.setattr(yamlio, "_CLoader", None)
    assert [_outcome(safe_load, text) for text in texts] == expected
    assert {kind for kind, _ in expected} == {"value", "ScannerError", "ParserError", "ValueError"}
