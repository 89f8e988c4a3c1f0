"""Where libyaml may read and where pure PyYAML must.

`yamlio.load_yaml` (libyaml when present) reads only YAML the program wrote
or ships; model replies stay on `yaml.safe_load`, whose rejections drive the
retry loops. The emitter's plain-scalar guard asks the resolver instead of
parsing each scalar; the old parse is kept here as the reference.
"""

from __future__ import annotations

from importlib import resources

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anonpsy import runner
from anonpsy.config import RunConfig
from anonpsy.converter import CaseNarrative, ConversionError, extract_entities
from anonpsy.yamlio import _PLAIN_FLOW, _PLAIN_SCALAR, _plain_is_str, load_yaml, parse_yaml, serialize_yaml

from .conftest import CORPUS_DIR, FIXTURES_DIR, GOLDEN_DIR
from .helpers import FakeGateway, minimal_graph


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


@pytest.fixture(scope="module")
def mock_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    config = RunConfig(seed=42, jobs=1, backend="mock", fixtures_dir=str(FIXTURES_DIR))
    assert runner.run_pipeline(CORPUS_DIR, out_dir, config).ok
    for name in runner.BASELINE_NAMES:
        assert runner.run_baseline(name, CORPUS_DIR, out_dir, config).ok
    assert runner.run_evaluation(out_dir, config).ok
    return out_dir


def test_run_artifacts_load_equal(mock_run):
    paths = sorted(mock_run.rglob("*.yaml"))
    assert {p.name for p in paths} >= {"graph.yaml", "meta.yaml", "run_manifest.yaml", "report.yaml"}
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert load_yaml(text) == yaml.safe_load(text), path


def test_eval_report_matches_golden(mock_run):
    assert (mock_run / "report.yaml").read_bytes() == (GOLDEN_DIR / "report.yaml").read_bytes()


def test_model_reply_with_trailing_tab_is_still_retried():
    # libyaml accepts this reply; pure PyYAML raises ScannerError on it.
    gw = FakeGateway(lambda t, v: "entities: []\t")
    narrative = CaseNarrative(case_id="tab", text="Low mood for weeks.")
    with pytest.raises(ConversionError, match="invalid YAML"):
        extract_entities(narrative, gw)
    assert [v.get("attempt") for _, v in gw.calls] == [None, "2", "3"]
