"""Tests of the benchmark's own helpers: depth, tail percentile, stub replay."""

from __future__ import annotations

import json

import pytest

import tracing
from anonpsy.gateway import GatewayError, HttpBackend, LlmGateway, cache_key
from stub import StubProcess, fetch_stats


def _span(span_id, name, start, end, parent=None, case=None, **attrs):
    return tracing.Span(span_id, name, start, end, parent, case, attrs)


def test_chain_depth_sequential_and_overlapping():
    sequential = [(0.0, 1.0), (1.0, 2.0), (2.5, 3.0)]
    assert tracing.chain_depth(sequential) == 3
    # Three calls in flight together, then one after them: two round-trips.
    fanned_out = [(0.0, 1.0), (0.1, 1.1), (0.2, 0.9), (1.2, 2.0)]
    assert tracing.chain_depth(fanned_out) == 2
    assert tracing.chain_depth([]) == 0


def test_summarize_depth_per_stage_and_case():
    spans = [
        _span(1, "runner.generate", 0.0, 10.0),
        _span(2, "narrator.generate", 0.0, 5.0, parent=1, case="a"),
        _span(3, "gateway.call", 0.0, 1.0, parent=2, case="a", template="lead_paragraph", attempt=1),
        _span(4, "gateway.call", 0.5, 1.5, parent=2, case="a", template="steb_sentence", attempt=1),
        _span(5, "gateway.call", 2.0, 3.0, parent=2, case="a", template="tail_append", attempt=1),
        _span(6, "narrator.generate", 0.0, 5.0, parent=1, case="b"),
        _span(7, "gateway.call", 0.0, 1.0, parent=6, case="b", template="lead_paragraph", attempt=1),
        _span(8, "gateway.call", 1.0, 2.0, parent=6, case="b", template="steb_sentence", attempt=2),
        _span(9, "gateway.call", 2.0, 3.0, parent=6, case="b", template="tail_append", attempt=1),
        _span(10, "runner.baseline.llm_only", 10.0, 14.0),
        # Baseline calls carry no case id: each operator span is one case.
        _span(11, "baselines.llm_only", 10.0, 12.0, parent=10),
        _span(12, "gateway.call", 10.0, 11.0, parent=11, template="llm_only_rewrite", attempt=1),
        _span(13, "gateway.call", 11.0, 12.0, parent=11, template="llm_only_critique", attempt=1),
        _span(14, "baselines.llm_only", 10.0, 11.0, parent=10),
        _span(15, "gateway.call", 10.0, 10.5, parent=14, template="llm_only_rewrite", attempt=1),
        _span(16, "gateway.call", 10.4, 11.0, parent=14, template="llm_only_critique", attempt=1),
    ]
    m = tracing.summarize(spans, n_cases=2, templates=["lead_paragraph", "steb_sentence"])
    assert m["gateway.depth.generate"] == (2 + 3) / 2
    assert m["gateway.depth.baselines"] == (2 + 1) / 2
    assert m["gateway.depth.convert"] == 0
    assert m["gateway.calls_per_case"] == 10 / 2
    assert m["gateway.calls.steb_sentence"] == 1.0
    assert m["gateway.retry_share"] == 1 / 10
    assert m["gateway.cache_hit_share"] == 1.0  # no backend spans at all
    assert m["runner.generate_ms_per_case"] == pytest.approx(10.0 * 1000 / 2)
    # narrator.generate "a" is covered 0-1.5 and 2-3 by its calls: 2.5 s of 5.
    assert m["narrator.self_ms_per_case"] == pytest.approx((2.5 + 2.0) * 1000 / 2)


def test_self_time_counts_overlapping_children_once():
    parent = _span(1, "runner.convert", 0.0, 10.0)
    children = [_span(2, "x", 1.0, 4.0), _span(3, "x", 2.0, 5.0), _span(4, "x", 9.0, 12.0)]
    assert tracing.self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0)


def test_tail_percentile_reports_percentile_and_n():
    samples = [float(i) for i in range(1, 201)]  # 200 samples
    pct, value, n = tracing.tail_percentile(samples)
    assert (pct, n) == (95.0, 200)
    assert value == 190.0
    assert sum(1 for s in samples if s > value) >= tracing.TAIL_MIN_BEYOND
    pct, value, n = tracing.tail_percentile(samples * 50)  # 10000 samples
    assert (pct, n) == (99.9, 10000)
    assert tracing.tail_percentile(samples[:20])[0] == 50.0
    assert tracing.tail_percentile(samples[:19]) is None


def test_stub_replays_by_cache_key_and_404s_unknown_prompts(tmp_path):
    probe = LlmGateway(HttpBackend("http://unused"), model="m")
    known = probe.request("sdc_rewrite", {"case_text": "known"}, temperature=0.7)
    store = tmp_path / "store.json"
    store.write_text(json.dumps({cache_key(known): "replayed text"}), encoding="utf-8")
    with StubProcess(store, latency_ms=5.0, work=tmp_path) as stub:
        gateway = LlmGateway(HttpBackend(stub.endpoint), model="m", retries=1)
        assert gateway.call("sdc_rewrite", {"case_text": "known"}, temperature=0.7) == "replayed text"
        with pytest.raises(GatewayError, match="404"):
            gateway.call("sdc_rewrite", {"case_text": "never recorded"}, temperature=0.7)
        stats = fetch_stats(stub.endpoint)
    assert stub.proc.poll() is not None
    assert stats["requests"] == 2
    assert stats["unknown"] == 1
    assert stats["max_inflight"] == 1
    assert stats["injected_ms"] >= 2 * 5.0
