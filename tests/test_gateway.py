import base64
import hashlib
import json
import os
import re
import ssl
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import anonpsy
import anonpsy.gateway
from anonpsy import prompts, runner
from anonpsy.gateway import (
    CALL_POLICIES,
    ChatRequest,
    GatewayError,
    HttpBackend,
    LlmGateway,
    MockBackend,
    MockFixtureMissing,
    TransientBackendError,
    cache_key,
    variables_digest,
)
from tests.gen_fixtures import make_config

from .conftest import CORPUS_DIR, HttpStub, RawReply
from .helpers import SpyBackend

# Pinned hashes of the two-stage rewrite prompt assets; any edit must be
# deliberate and reviewed, since those texts are fixed.
LLM_ONLY_REWRITE_SHA256 = "600577475552dac547060592a21b8380e0f0b5c443837cae22f900fdbfe96348"
LLM_ONLY_CRITIQUE_SHA256 = "2946995265d7384117ee435184e59e84f0d7999b9a4f6c6914553cf782ba46c5"


class TestCallPolicy:
    def test_every_template_but_sdc_rewrite_has_one_row(self):
        assert sorted(CALL_POLICIES) == [t for t in prompts.list_templates() if t != "sdc_rewrite"]

    def test_the_judge_model_answers_the_judge_templates_and_the_model_every_other(self, tmp_path, monkeypatch):
        config = replace(make_config(), judge_model="judge-x")
        gateway = runner.build_gateway(config)
        gateway.backend = SpyBackend(gateway.backend.complete)
        monkeypatch.setattr(runner, "build_gateway", lambda _config: gateway)
        out_dir = tmp_path / "run"
        assert runner.run_pipeline(CORPUS_DIR, out_dir, config).ok
        for name in runner.BASELINE_NAMES:
            assert runner.run_baseline(name, CORPUS_DIR, out_dir, config).ok
        assert runner.run_evaluation(out_dir, config).ok
        models = {}
        for req in gateway.backend.requests:
            models.setdefault(req.template_id, set()).add(req.model)
        judged = {"predict_diagnoses", "diagnosis_acceptability", "judge_risk"}
        assert models == {t: {"judge-x" if t in judged else config.model} for t in prompts.list_templates()}


class TestPromptAssets:
    def test_two_stage_rewrite_assets_are_pinned(self):
        assert prompts.asset_hash("llm_only_rewrite") == LLM_ONLY_REWRITE_SHA256
        assert prompts.asset_hash("llm_only_critique") == LLM_ONLY_CRITIQUE_SHA256

    def test_render_substitutes_placeholders(self):
        messages = prompts.render("llm_only_critique", {"draft_text": "DRAFT BODY"})
        assert messages[0][0] == "user"
        assert "DRAFT BODY" in messages[0][1]
        assert "{draft_text}" not in messages[0][1]

    def test_render_missing_variable_fails(self):
        with pytest.raises(prompts.TemplateError, match="case_text"):
            prompts.render("llm_only_rewrite", {})

    def test_a_value_holding_a_placeholder_is_not_filled_in_again(self):
        # Replaced one name after another, in set order, one of the two values was read as a template.
        variables = {"case_id": "{narrative}", "variant": "v", "narrative": "a {case_id} b"}
        messages = prompts.render("predict_diagnoses", variables)
        assert messages[-1][1].endswith("--- CASE {narrative} ---\na {case_id} b")

    def test_system_section_split(self):
        messages = prompts.render("llm_only_rewrite", {"case_text": "X"})
        assert [role for role, _ in messages] == ["system", "user"]

    def test_cached_assets_equal_the_package_files(self, monkeypatch):
        files = {p.stem: p for p in sorted(Path(prompts.__file__).parent.glob("*.txt"))}
        assert prompts.list_templates() == tuple(files)
        cached = {}
        for name, path in files.items():
            assert prompts.asset_hash(name) == hashlib.sha256(path.read_bytes()).hexdigest()
            variables = {v: f"<{v} {name}>" for v in re.findall(r"\{([a-z][a-z0-9_]*)\}", path.read_text("utf-8"))}
            hits = prompts._template.cache_info().hits
            cached[name] = prompts.render(name, variables), variables
            assert prompts.render(name, variables) == cached[name][0]
            assert prompts._template.cache_info().hits > hits
        # Parse each package file anew.
        monkeypatch.setattr(prompts, "_asset_text", lambda name: files[name].read_text(encoding="utf-8"))
        monkeypatch.setattr(prompts, "_template", prompts._template.__wrapped__)
        for name, (messages, variables) in cached.items():
            assert prompts.render(name, variables) == messages


def _request(**overrides) -> ChatRequest:
    base = dict(
        template_id="lead_paragraph",
        messages=(("user", "hello"),),
        temperature=0.1,
        model="test-model",
        variables=(("case_id", "case_001"),),
    )
    base.update(overrides)
    return ChatRequest(**base)


class TestMockBackend:
    def test_fixture_hit_returns_text_verbatim(self, tmp_path):
        backend = MockBackend(tmp_path)
        variables = {"case_id": "case_001"}
        path = Path(backend.fixture_path("lead_paragraph", variables))
        path.parent.mkdir(parents=True)
        path.write_text("canned lead\n", encoding="utf-8")
        gw = LlmGateway(backend, model="test-model")
        response = gw.complete(_request())
        assert response.text == "canned lead\n"
        assert response.backend == "mock"

    def test_fixture_lookups_intern_no_file_name(self, tmp_path, monkeypatch):
        # pathlib passes every path part through sys.intern, here one digest per distinct call.
        backend = MockBackend(tmp_path)
        path = Path(backend.fixture_path("lead_paragraph", {"case_id": "case_001"}))
        path.parent.mkdir(parents=True)
        path.write_text("canned lead\n", encoding="utf-8")
        interned = []
        real_intern = sys.intern

        def recording_intern(text):
            interned.append(text)
            return real_intern(text)

        monkeypatch.setattr(sys, "intern", recording_intern)
        assert backend.complete(_request()) == "canned lead\n"
        with pytest.raises(MockFixtureMissing):
            backend.complete(_request(variables=(("case_id", "case_002"),)))
        monkeypatch.undo()
        assert interned == []

    def test_missing_fixture_names_key(self, tmp_path):
        gw = LlmGateway(MockBackend(tmp_path), model="test-model")
        with pytest.raises(MockFixtureMissing) as err:
            gw.complete(_request())
        assert "lead_paragraph" in str(err.value)
        assert variables_digest({"case_id": "case_001"}) in str(err.value)

    def test_fixture_removed_after_a_check_is_missing(self, tmp_path, monkeypatch):
        # The fixture is read with one open: a file that passes an is_file
        # check and is gone by the read is still a missing fixture.
        monkeypatch.setattr(Path, "is_file", lambda self: True)
        gw = LlmGateway(MockBackend(tmp_path), model="test-model")
        with pytest.raises(MockFixtureMissing, match="lead_paragraph"):
            gw.complete(_request())


class _FlakyBackend:
    name = "live"

    def __init__(self, failures: int, text: str = "ok"):
        self.failures = failures
        self.text = text
        self.attempts = 0

    def complete(self, req):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise TransientBackendError("connection reset")
        return self.text


class _CountingBackend:
    name = "live"

    def __init__(self):
        self.calls = 0

    def complete(self, req):
        self.calls += 1
        return f"reply {self.calls}"


class TestRetryAndCache:
    def test_transient_failures_retried_with_backoff(self):
        sleeps = []
        backend = _FlakyBackend(failures=2)
        gw = LlmGateway(backend, model="m", retries=3, backoff_seconds=0.5, sleep=sleeps.append)
        assert gw.complete(_request()).text == "ok"
        assert backend.attempts == 3
        assert sleeps == [0.5, 1.0]

    def test_exhausted_retries_raise_with_template_id(self):
        backend = _FlakyBackend(failures=10)
        gw = LlmGateway(backend, model="m", retries=3, sleep=lambda _s: None)
        with pytest.raises(GatewayError, match="lead_paragraph"):
            gw.complete(_request())

    def test_empty_completion_is_an_error(self):
        backend = _FlakyBackend(failures=0, text="")
        gw = LlmGateway(backend, model="m", sleep=lambda _s: None)
        with pytest.raises(GatewayError, match="empty completion"):
            gw.complete(_request())

    def test_cache_hit_is_byte_identical_and_flagged(self, tmp_path):
        backend = _FlakyBackend(failures=0, text="cached body\n")
        gw = LlmGateway(backend, model="m", cache_dir=tmp_path / "cache")
        first = gw.complete(_request())
        second = gw.complete(_request())
        assert first.backend == "live"
        assert second.backend == "cache"
        assert second.text == first.text
        assert backend.attempts == 1

    def test_cache_hit_keeps_carriage_returns(self, tmp_path):
        # Read in text mode, the entry came back with every CRLF and lone CR as LF.
        text = "diagnoses:\r\n- x\r\nnote: a\rb\n"
        backend = _FlakyBackend(failures=0, text=text)
        gw = LlmGateway(backend, model="m", cache_dir=tmp_path / "cache")
        assert gw.complete(_request()).text == text
        second = gw.complete(_request())
        assert (second.backend, second.text) == ("cache", text)
        assert backend.attempts == 1

    def test_cache_entry_removed_after_a_check_is_a_miss(self, tmp_path, monkeypatch):
        # The entry is read with one open: a file that passes an is_file
        # check and is gone by the read is a miss, not a FileNotFoundError.
        monkeypatch.setattr(Path, "is_file", lambda self: True)
        backend = _CountingBackend()
        gw = LlmGateway(backend, model="m", cache_dir=tmp_path / "cache")
        response = gw.complete(_request())
        assert (response.backend, response.text) == ("live", "reply 1")
        assert gw.complete(_request()).backend == "cache"
        assert backend.calls == 1

    def test_two_threads_writing_one_key_both_succeed(self, tmp_path, monkeypatch):
        # Hold the first writer between its write and its rename until the
        # second writer has renamed: writers that share a temporary file
        # name lose the first writer's file and fail its call.
        real_replace = os.replace
        first_waiting = threading.Event()
        second_done = threading.Event()
        callers = []

        def gated_replace(src, dst):
            callers.append(threading.current_thread().name)
            if len(callers) == 1:
                first_waiting.set()
                assert second_done.wait(timeout=10)
                return real_replace(src, dst)
            try:
                return real_replace(src, dst)
            finally:
                second_done.set()

        monkeypatch.setattr(os, "replace", gated_replace)
        cache_dir = tmp_path / "cache"
        gw = LlmGateway(_FlakyBackend(failures=0, text="shared\n"), model="m", cache_dir=cache_dir)
        outcomes = {}

        def writer():
            try:
                outcomes[threading.current_thread().name] = gw.complete(_request()).text
            except Exception as exc:
                outcomes[threading.current_thread().name] = exc

        first = threading.Thread(target=writer, name="first")
        second = threading.Thread(target=writer, name="second")
        first.start()
        assert first_waiting.wait(timeout=10)
        second.start()
        second.join(timeout=10)
        first.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()
        assert callers == ["first", "second"]
        assert outcomes == {"first": "shared\n", "second": "shared\n"}
        assert [p.name for p in cache_dir.iterdir()] == [f"{cache_key(_request())}.txt"]

    def test_retry_attempts_are_not_served_from_cache(self, tmp_path):
        # No template renders {attempt}, so a cache keyed on the messages
        # alone hands a retry the reply it has just rejected.
        backend = _CountingBackend()
        gw = LlmGateway(backend, model="m", cache_dir=tmp_path / "cache")
        attempts = [_request(variables=(("attempt", str(n)), ("case_id", "case_001"))) for n in (1, 2, 3)]
        assert [gw.complete(r).text for r in attempts] == ["reply 1", "reply 2", "reply 3"]
        replayed = [gw.complete(r) for r in attempts]
        assert [(r.backend, r.text) for r in replayed] == [("cache", f"reply {n}") for n in (1, 2, 3)]
        assert backend.calls == 3

    def test_first_attempt_cache_key_is_unchanged(self):
        untagged = _request()
        first = _request(variables=(("attempt", "1"), ("case_id", "case_001")))
        second = _request(variables=(("attempt", "2"), ("case_id", "case_001")))
        pinned = "c3813c39f08ff2653a8fabc6c86aaa1b35bfcf3fc14f236f9f1a4f1c3916358c"
        assert cache_key(untagged) == cache_key(first) == pinned
        assert cache_key(second) != pinned

    def test_cache_lookups_intern_no_file_name(self, tmp_path, monkeypatch):
        # pathlib passes every path part through sys.intern; the table of
        # interned strings grows with one 64-hex key per cached call.
        req = _request()
        gw = LlmGateway(_FlakyBackend(failures=0, text="reply\n"), model="m", cache_dir=tmp_path / "cache")
        interned = []
        real_intern = sys.intern

        def recording_intern(text):
            interned.append(text)
            return real_intern(text)

        monkeypatch.setattr(sys, "intern", recording_intern)
        assert gw.complete(req).backend != "cache"
        assert gw.complete(req).backend == "cache"
        monkeypatch.undo()
        assert [text for text in interned if cache_key(req) in text] == []
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [f"{cache_key(req)}.txt"]

    def test_distinct_temperatures_never_collide(self):
        a = cache_key(_request(temperature=0.1))
        b = cache_key(_request(temperature=0.7))
        assert a != b

    def test_seed_and_messages_feed_cache_key(self):
        assert cache_key(_request(seed=1)) != cache_key(_request(seed=2))
        assert cache_key(_request(messages=(("user", "x"),))) != cache_key(_request())


class TestRequestConstruction:
    def test_messages_nonempty_enforced(self):
        with pytest.raises(ValueError):
            ChatRequest(template_id="x", messages=(), temperature=0.1, model="m")

    def test_temperature_range_enforced(self):
        with pytest.raises(ValueError):
            _request(temperature=3.0)

    def test_call_policy_applied(self, tmp_path):
        gw = LlmGateway(MockBackend(tmp_path), model="m")
        req = gw.request("llm_only_rewrite", {"case_text": "text"})
        assert (req.temperature, req.model) == (0.2, "m")

    def test_explicit_temperature_overrides(self, tmp_path):
        gw = LlmGateway(MockBackend(tmp_path), model="m")
        req = gw.request("llm_only_rewrite", {"case_text": "text"}, temperature=0.7)
        assert req.temperature == 0.7

    def test_a_template_without_a_policy_needs_a_temperature(self, tmp_path):
        gw = LlmGateway(MockBackend(tmp_path), model="m")
        with pytest.raises(ValueError, match="'sdc_rewrite' has no call policy"):
            gw.request("sdc_rewrite", {"case_text": "text"})
        assert gw.request("sdc_rewrite", {"case_text": "text"}, temperature=0.2).temperature == 0.2


class TestHttpBackend:
    def test_payload_shape_and_content_extraction(self, http_stub):
        http_stub.replies.append((200, {"message": {"role": "assistant", "content": "live answer"}}))
        backend = HttpBackend(http_stub.url + "/")
        text = backend.complete(_request(seed=7))
        assert text == "live answer"
        [(path, payload)] = http_stub.requests
        assert path == "/api/chat"
        assert payload["model"] == "test-model"
        assert payload["options"] == {"temperature": 0.1, "seed": 7}
        assert payload["messages"] == [{"role": "user", "content": "hello"}]
        assert payload["stream"] is False

    def test_server_errors_are_transient(self, http_stub):
        http_stub.replies.append((503, "unavailable"))
        backend = HttpBackend(http_stub.url)
        with pytest.raises(TransientBackendError):
            backend.complete(_request())

    @pytest.mark.parametrize(
        "body",
        [
            b"<html>busy</html>",
            ["not", "an", "object"],
            {"message": "text"},
            {"message": {"content": 5}},
            {"message": {"content": ["a"]}},
        ],
        ids=["body0", "body1", "body2", "body3", "body4"],
    )
    def test_malformed_body_is_gateway_error_naming_template(self, http_stub, body):
        http_stub.replies.append((200, body))
        with pytest.raises(GatewayError) as err:
            HttpBackend(http_stub.url).complete(_request())
        assert err.value.template_id == "lead_paragraph"

    def test_rate_limit_is_transient_and_retried(self, http_stub):
        http_stub.replies.append((429, "slow down"))
        http_stub.replies.append((200, {"message": {"role": "assistant", "content": "after backoff"}}))
        sleeps = []
        gw = LlmGateway(HttpBackend(http_stub.url), model="m", sleep=sleeps.append)
        assert gw.complete(_request()).text == "after backoff"
        assert sleeps == [0.5]

    def test_read_timeout_is_transient(self, http_stub):
        http_stub.replies.append(http_stub.STALL)
        with pytest.raises(TransientBackendError):
            HttpBackend(http_stub.url, timeout_seconds=0.2).complete(_request())

    def test_refused_connection_is_transient(self, refused_url):
        with pytest.raises(TransientBackendError):
            HttpBackend(refused_url).complete(_request())

    def test_client_error_is_not_retried(self, http_stub):
        http_stub.replies.append((404, {"error": "model not found"}))
        sleeps = []
        gw = LlmGateway(HttpBackend(http_stub.url), model="m", sleep=sleeps.append)
        with pytest.raises(GatewayError, match="backend returned 404: .*model not found") as err:
            gw.complete(_request())
        assert err.value.template_id == "lead_paragraph"
        assert sleeps == []
        assert len(http_stub.requests) == 1


_REPLY = json.dumps({"message": {"role": "assistant", "content": "framed answer"}}).encode("utf-8")


@pytest.fixture()
def no_proxy_env(monkeypatch):
    """No proxy setting in the environment, and no route worked out before or after the test."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    anonpsy.gateway._route.cache_clear()
    yield monkeypatch
    anonpsy.gateway._route.cache_clear()


class TestHttpClient:
    """`post_json`'s own HTTP/1.1 exchange, seen through `HttpBackend`."""

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"".join(b"%x;ext=1\r\n%s\r\n" % (len(part), part) for part in (_REPLY[:9], _REPLY[9:30], _REPLY[30:]))
            + b"0\r\nX-Trailer: t\r\n\r\n",
            b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + _REPLY,
            b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_REPLY), _REPLY),
        ],
        ids=["chunked", "delimited-by-close", "100-before-200"],
    )
    def test_reply_framings(self, http_stub, reply):
        http_stub.replies.append(RawReply(reply))
        assert HttpBackend(http_stub.url).complete(_request()) == "framed answer"

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_REPLY) + 10, _REPLY),
            b"ICY 200 OK\r\n\r\n" + _REPLY,
            b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n" + _REPLY,
            b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n" + _REPLY,
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n" + _REPLY,
            b"",
        ],
        ids=[
            "truncated-content-length",
            "garbage-status-line",
            "over-long-header-line",
            "101-headers",
            "bad-chunk-size",
            "empty",
        ],
    )
    def test_malformed_replies_are_transient(self, http_stub, reply):
        http_stub.replies.append(RawReply(reply))
        with pytest.raises(TransientBackendError):
            HttpBackend(http_stub.url).complete(_request())

    def test_a_redirect_is_a_gateway_error_and_not_followed(self, http_stub):
        http_stub.replies.append(RawReply(b"HTTP/1.1 302 Found\r\nLocation: /api/other\r\nContent-Length: 0\r\n\r\n"))
        sleeps = []
        gw = LlmGateway(HttpBackend(http_stub.url), model="m", sleep=sleeps.append)
        with pytest.raises(GatewayError, match="backend returned 302") as err:
            gw.complete(_request())
        assert err.value.template_id == "lead_paragraph"
        assert sleeps == []
        assert [path for path, _ in http_stub.requests] == ["/api/chat"]

    def test_request_head(self, http_stub):
        http_stub.replies.append((200, {"message": {"content": "ok"}}))
        HttpBackend(http_stub.url).complete(_request())
        [(_, payload)] = http_stub.requests
        [headers] = http_stub.headers
        assert headers["Host"] == http_stub.url.removeprefix("http://")
        assert headers["Content-Length"] == str(len(json.dumps(payload).encode("utf-8")))
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        assert headers["Accept-Encoding"] == "identity"

    @pytest.mark.parametrize(
        "scheme,netloc,route",
        [
            ("http", "user:pw@127.0.0.1", ("127.0.0.1", 80, None, "Host: 127.0.0.1\r\n")),
            ("https", "[::1]:8443", ("::1", 8443, "::1", "Host: [::1]:8443\r\n")),
            ("http", "bücher.example:8080", ("xn--bcher-kva.example", 8080, None, "Host: xn--bcher-kva.example:8080\r\n")),
        ],
        ids=["userinfo", "ipv6", "idn"],
    )
    def test_the_direct_route_of_a_netloc(self, no_proxy_env, scheme, netloc, route):
        found = anonpsy.gateway._route(scheme, netloc)
        assert (found.host, found.port, found.tls_hostname, found.headers) == route
        assert (found.tunnel, found.absolute) == (None, False)

    def test_an_http_proxy_gets_the_absolute_url_unless_no_proxy_names_the_host(self, http_stub, no_proxy_env):
        proxy = HttpStub()
        try:
            no_proxy_env.setenv("http_proxy", proxy.url.replace("http://", "http://user:p%40ss@"))
            proxy.replies.append((200, {"message": {"content": "through the proxy"}}))
            assert HttpBackend(http_stub.url).complete(_request()) == "through the proxy"
            assert [path for path, _ in proxy.requests] == [f"{http_stub.url}/api/chat"]
            assert proxy.headers[0]["Host"] == http_stub.url.removeprefix("http://")
            assert proxy.headers[0]["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

            # The route is worked out once per process: a changed NO_PROXY shows after the cache is cleared.
            no_proxy_env.setenv("no_proxy", "127.0.0.1")
            anonpsy.gateway._route.cache_clear()
            http_stub.replies.append((200, {"message": {"content": "direct"}}))
            assert HttpBackend(http_stub.url).complete(_request()) == "direct"
            assert len(proxy.requests) == 1
            assert [path for path, _ in http_stub.requests] == ["/api/chat"]
        finally:
            proxy.close()

    def test_an_https_endpoint_is_reached_through_a_tunnel_of_its_proxy(self, http_stub, no_proxy_env):
        # The stub serves POST alone, so it refuses the CONNECT with a 501.
        no_proxy_env.setenv("https_proxy", http_stub.url)
        with pytest.raises(TransientBackendError, match="Tunnel connection failed: 501"):
            HttpBackend("https://model.invalid").complete(_request())
        assert http_stub.requests == []

    def test_https_builds_one_tls_context_per_process(self, http_stub, no_proxy_env):
        made = []
        real_create = ssl.create_default_context

        def counting_create(*args, **kwargs):
            made.append(args)
            return real_create(*args, **kwargs)

        no_proxy_env.setattr(ssl, "create_default_context", counting_create)
        anonpsy.gateway._tls_context.cache_clear()
        try:
            backend = HttpBackend(http_stub.url.replace("http://", "https://"), timeout_seconds=0.3)
            for _ in range(3):
                # The stub speaks plain HTTP: every handshake fails.
                with pytest.raises(TransientBackendError):
                    backend.complete(_request())
        finally:
            anonpsy.gateway._tls_context.cache_clear()
        assert len(made) == 1


@pytest.mark.parametrize("module", ["requests", "scipy", "numpy"])
def test_cli_and_runner_do_not_import(module):
    src_dir = Path(anonpsy.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src_dir), os.environ.get("PYTHONPATH")])))
    code = f"import sys, anonpsy.cli, anonpsy.runner; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
