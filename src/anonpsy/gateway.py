"""Single client abstraction for every LLM-assisted step.

All operators go through one gateway that owns how each template is called
(`CALL_POLICIES`: its temperature, and whether the judge model answers it),
transparent response caching, bounded retries with exponential backoff, and
backend selection. The cache (`cache_read`, `cache_write`: one UTF-8 text
file per SHA-256 key in `cache_dir`) and the retry loop (`retrying`) are
functions of their own, which the embedders share. The mock backend
resolves requests against an on-disk fixture directory and fails loudly on
misses, which keeps the whole pipeline byte-reproducible offline.
`validated_call` is the one loop that retries a model step until its
validator accepts a reply.

`post_json` is the package's one HTTP client, which the live backend and the
HTTP embedder share through `post_retryable`, the one rule of which
failures are worth retrying: one HTTP/1.1 exchange per call, on a
connection of its own. What does not change between calls, the proxy route
of an endpoint and the TLS context, is worked out once per process.
"""

from __future__ import annotations

import base64
import contextlib
import contextvars
import functools
import hashlib
import http.client
import json
import os
import re
import socket
import ssl
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar

from . import prompts
from .fileio import write_atomic
from .textproc import id_bytes


@dataclass(frozen=True)
class CallPolicy:
    temperature: float
    judge: bool = False  # answered by the gateway's judge model


# How each template is called. Conversion and generation run cold for schema
# stability; perturbation runs warm for semantic diversity; the judge runs
# greedy.
CALL_POLICIES = {
    "extract_entities": CallPolicy(0.1),
    "extract_episodes": CallPolicy(0.1),
    "causal_pass": CallPolicy(0.1),
    "identity_fields": CallPolicy(0.7),
    "visit_rewrite": CallPolicy(0.7),
    "steb_rewrite": CallPolicy(0.7),
    "mse_align": CallPolicy(0.7),
    "lead_paragraph": CallPolicy(0.1),
    # Episode sentences run slightly warmer than the rest of generation to avoid rote phrasing.
    "steb_sentence": CallPolicy(0.2),
    "tail_append": CallPolicy(0.1),
    "sdc_rewrite": CallPolicy(0.7),
    "llm_only_rewrite": CallPolicy(0.2),
    "llm_only_critique": CallPolicy(0.0),
    "predict_diagnoses": CallPolicy(0.0, judge=True),
    "diagnosis_acceptability": CallPolicy(0.0, judge=True),
    "judge_risk": CallPolicy(0.0, judge=True),
}

DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_SECONDS = 0.5
# Model calls per validated step.
VALIDATED_ATTEMPTS = 3


class GatewayError(RuntimeError):
    """Raised when a completion cannot be obtained; carries the template id."""

    def __init__(self, template_id: str, message: str):
        self.template_id = template_id
        super().__init__(f"[{template_id}] {message}")


class TransientBackendError(RuntimeError):
    """Internal marker for failures worth retrying (network, 429, 5xx)."""


class MockFixtureMissing(GatewayError):
    pass


@dataclass(frozen=True)
class ChatRequest:
    template_id: str
    messages: tuple[tuple[str, str], ...]
    temperature: float
    model: str
    seed: int | None = None
    # Raw template variables; used only to key mock fixtures.
    variables: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("messages must be nonempty")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature out of range: {self.temperature}")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    backend: str  # live | mock | cache
    latency_ms: int = 0


def variables_digest(variables: dict[str, str]) -> str:
    """Stable digest of template variables; keys mock fixtures."""
    canon = json.dumps({k: str(v) for k, v in variables.items()}, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(id_bytes(canon)).hexdigest()[:24]


def cache_key(req: ChatRequest) -> str:
    doc = {
        "model": req.model,
        "temperature": repr(req.temperature),
        "seed": req.seed,
        "messages": [list(m) for m in req.messages],
    }
    # No template renders {attempt}: without the tag a retry would be served
    # the reply it is retrying. First attempts keep their untagged keys.
    attempt = dict(req.variables).get("attempt", "1")
    if attempt != "1":
        doc["attempt"] = attempt
    canon = json.dumps(doc, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(id_bytes(canon)).hexdigest()


T = TypeVar("T")


def retrying(attempt: Callable[[], T], retries: int, backoff_seconds: float, sleep: Callable[[float], Any]) -> T:
    """attempt() until it returns, at most `retries` times in all: the retry loop of chat and embedding calls.

    A `TransientBackendError` is tried again after `sleep(backoff_seconds * 2 ** (n - 1))`,
    n the tries so far; any other error passes through at once. When every try
    failed, raise `TransientBackendError("exhausted N attempts: <the last failure>")`.
    """
    last: TransientBackendError | None = None
    for retry in range(retries):
        if retry:
            sleep(backoff_seconds * (2 ** (retry - 1)))
        try:
            return attempt()
        except TransientBackendError as exc:
            last = exc
    raise TransientBackendError(f"exhausted {retries} attempts: {last}") from last


def cache_path(cache_dir: str, key: str) -> str:
    # A str path: pathlib passes every path part, here a 64-hex key, through sys.intern.
    return os.path.join(cache_dir, f"{key}.txt")


def cache_read(cache_dir: str, key: str) -> str | None:
    """The cache entry under key; None on a miss: no entry, or one that is not UTF-8, which the caller
    computes again and overwrites."""
    # Bytes, not text mode, which would turn a reply's CRLF and CR into LF.
    try:
        with open(cache_path(cache_dir, key), "rb") as cached:
            return cached.read().decode("utf-8")
    except (FileNotFoundError, UnicodeDecodeError):
        return None


def cache_write(cache_dir: str, key: str, text: str) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    write_atomic(cache_path(cache_dir, key), text)


class MockBackend:
    """Deterministic backend resolving (template_id, variables digest) fixtures."""

    name = "mock"

    def __init__(self, fixtures_dir: str | Path):
        self.fixtures_dir = os.fspath(fixtures_dir)

    def fixture_path(self, template_id: str, variables: dict[str, str]) -> str:
        # A str path: pathlib passes every path part, here a fixture file name, through sys.intern.
        return os.path.join(self.fixtures_dir, template_id, f"{variables_digest(variables)}.txt")

    def complete(self, req: ChatRequest) -> str:
        path = self.fixture_path(req.template_id, dict(req.variables))
        # Bytes, as the cache reads them: text mode would turn the reply's CRLF and CR into LF.
        try:
            with open(path, "rb") as fixture:
                return fixture.read().decode("utf-8")
        except FileNotFoundError:
            digest = os.path.basename(path).removesuffix(".txt")
            raise MockFixtureMissing(req.template_id, f"no mock fixture at {path} (digest {digest})") from None


# Caps on a reply's head, as `http.client` sets them: they bound what a faulty
# or hostile endpoint can make the client buffer.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_READ_CHUNK = 1 << 20  # a Content-Length is read in pieces, not allocated at once
_STATUS_LINE = re.compile(rb"HTTP/1\.[0-9] ([1-9][0-9][0-9])\b")
_UNSAFE_URL_CHARS = re.compile(r"[\x00-\x20\x7f]")


@dataclass(frozen=True)
class _Route:
    """How requests to one (scheme, netloc) reach it."""

    host: str  # the host and port the socket connects to: the endpoint's or its proxy's
    port: int
    tls_hostname: str | None  # wrap the connection in TLS for this server name
    tunnel: bytes | None  # the CONNECT request that opens a tunnel through the proxy first
    absolute: bool  # the request line carries the absolute URL (through an http proxy)
    headers: str  # Host, and Proxy-Authorization to an http proxy: header lines ending in CRLF


def _authority(hostport: str, default_port: int) -> tuple[str, int]:
    """The host and port of a `host[:port]` authority; IPv6 hosts in brackets."""
    parts = urllib.parse.urlsplit(f"//{hostport}")
    try:
        port = parts.port or default_port
    except ValueError as exc:
        raise http.client.InvalidURL(f"invalid port in {hostport!r}") from exc
    if not parts.hostname:
        raise http.client.InvalidURL(f"no host in {hostport!r}")
    return parts.hostname, port


@functools.cache
def _route(scheme: str, netloc: str) -> _Route:
    """The route to netloc over scheme, worked out once per process.

    The proxy is the one `urllib.request` picks: `getproxies()` (on Linux,
    `HTTP_PROXY`/`HTTPS_PROXY`) and `proxy_bypass` (`NO_PROXY`). An https
    endpoint is reached through a CONNECT tunnel, an http one by sending the
    absolute URL to the proxy.
    """
    if scheme not in ("http", "https"):
        raise http.client.InvalidURL(f"unsupported URL scheme: {scheme!r}")
    hostport = netloc.rpartition("@")[2]
    if not hostport.isascii():  # an internationalized host name, sent and resolved as its ASCII form
        hostport = hostport.encode("idna").decode("ascii")
    if _UNSAFE_URL_CHARS.search(hostport):
        raise http.client.InvalidURL(f"URL host can't contain control characters: {hostport!r}")
    default_port = 443 if scheme == "https" else 80
    host, port = _authority(hostport, default_port)
    tls_hostname = host if scheme == "https" else None
    headers = f"Host: {hostport}\r\n"
    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(hostport):
        return _Route(host, port, tls_hostname, None, False, headers)
    # `ProxyHandler`'s own parse of a proxy setting, so that one is read as before.
    proxy_scheme, user, password, proxy_hostport = urllib.request._parse_proxy(proxy)
    proxy_scheme = proxy_scheme or scheme
    auth = ""
    if user and password:
        creds = f"{urllib.parse.unquote(user)}:{urllib.parse.unquote(password)}"
        auth = f"Proxy-Authorization: Basic {base64.b64encode(creds.encode()).decode('ascii')}\r\n"
    proxy_hostport = urllib.parse.unquote(proxy_hostport)
    if scheme == "https":
        proxy_host, proxy_port = _authority(proxy_hostport, default_port)
        target = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        tunnel = f"CONNECT {target} HTTP/1.0\r\nHost: {target}\r\n{auth}\r\n".encode("ascii")
        return _Route(proxy_host, proxy_port, tls_hostname, tunnel, False, headers)
    if proxy_scheme not in ("http", "https"):
        raise http.client.InvalidURL(f"unsupported proxy scheme: {proxy_scheme!r}")
    proxy_host, proxy_port = _authority(proxy_hostport, 443 if proxy_scheme == "https" else 80)
    return _Route(
        proxy_host, proxy_port, proxy_host if proxy_scheme == "https" else None, None, True, headers + auth
    )


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """The one TLS context of the process: default CA paths, which `SSL_CERT_FILE` overrides."""
    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])
    return context


def _read_exact(reader, size: int) -> bytes:
    """size bytes from reader; `IncompleteRead` when it ends first."""
    parts = []
    left = size
    while left:
        part = reader.read(min(left, _READ_CHUNK))
        if not part:
            raise http.client.IncompleteRead(b"".join(parts), left)
        parts.append(part)
        left -= len(part)
    return b"".join(parts)


def _read_line(reader, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _read_headers(reader) -> dict[bytes, bytes]:
    """Header lines up to the blank line or EOF, by lowercased name; the first of a repeated name."""
    headers: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.partition(b":")
        headers.setdefault(name.strip().lower(), value.strip())
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def _read_head(reader) -> tuple[int, dict[bytes, bytes]]:
    """The status and headers of the first final response; 1xx responses are skipped."""
    while True:
        line = _read_line(reader, "status line")
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        match = _STATUS_LINE.match(line)
        if match is None:
            raise http.client.BadStatusLine(line.decode("latin-1"))
        headers = _read_headers(reader)
        status = int(match[1])
        if status >= 200:
            return status, headers


def _read_chunked(reader) -> bytes:
    parts = []
    while True:
        size_field = _read_line(reader, "chunk size").split(b";", 1)[0]
        try:
            size = int(size_field, 16)
        except ValueError:
            size = -1
        if size < 0:
            raise http.client.IncompleteRead(b"".join(parts))
        if size == 0:
            _read_headers(reader)  # the trailer
            return b"".join(parts)
        parts.append(_read_exact(reader, size))
        _read_exact(reader, 2)  # the CRLF after the chunk


def _read_reply(reader) -> tuple[int, bytes]:
    status, headers = _read_head(reader)
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, _read_chunked(reader)
    try:
        length = int(headers[b"content-length"])
    except (KeyError, ValueError):
        length = -1
    return status, _read_exact(reader, length) if length >= 0 else reader.read()


def post_json(url: str, payload: dict, timeout: float) -> tuple[int, bytes]:
    """POST `payload` as JSON to `url`; return the reply's status and body.

    One HTTP/1.1 exchange on a connection of its own, closed after the reply.
    Every status comes back as is, and redirects are not followed.
    Connection, timeout and protocol failures raise `OSError` or
    `http.client.HTTPException`. The proxy route of each (scheme, netloc) is
    worked out once per process from `HTTP(S)_PROXY`/`NO_PROXY` (`_route`);
    https uses one default TLS context per process, which reads
    `SSL_CERT_FILE` (`_tls_context`).
    """
    parts = urllib.parse.urlsplit(url)
    route = _route(parts.scheme, parts.netloc)
    if route.absolute:
        target = url.partition("#")[0]
    else:
        target = f"{parts.path or '/'}?{parts.query}" if parts.query else parts.path or "/"
    if _UNSAFE_URL_CHARS.search(target):
        raise http.client.InvalidURL(f"URL can't contain control characters: {target!r}")
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {target} HTTP/1.1\r\n{route.headers}Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nAccept-Encoding: identity\r\nConnection: close\r\n"
        "User-Agent: anonpsy\r\n\r\n"
    ).encode("ascii")
    sock = socket.create_connection((route.host, route.port), timeout)
    try:
        # A CONNECT, a TLS handshake and the request are separate writes: none may wait on a delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if route.tunnel is not None:
            sock.sendall(route.tunnel)
            with sock.makefile("rb") as reader:
                status, _ = _read_head(reader)
            if status != 200:
                raise OSError(f"Tunnel connection failed: {status}")
        if route.tls_hostname is not None:
            sock = _tls_context().wrap_socket(sock, server_hostname=route.tls_hostname)
        sock.sendall(head + body)
        with sock.makefile("rb") as reader:
            return _read_reply(reader)
    finally:
        sock.close()


def post_retryable(url: str, payload: dict, timeout: float) -> tuple[int, bytes]:
    """`post_json`, with the failures worth retrying raised as `TransientBackendError`:
    a connection, timeout or protocol failure, a 5xx and a 429."""
    try:
        status, data = post_json(url, payload, timeout)
    except (OSError, http.client.HTTPException) as exc:
        raise TransientBackendError(str(exc)) from exc
    if status >= 500 or status == 429:
        raise TransientBackendError(f"backend returned {status}: {data.decode('utf-8', 'replace')[:200]}")
    return status, data


class HttpBackend:
    """Chat-completion backend speaking the Ollama-compatible /api/chat shape."""

    name = "live"

    def __init__(self, endpoint: str, timeout_seconds: float = 120.0):
        self.endpoint = endpoint.rstrip("/")
        self.timeout_seconds = timeout_seconds

    def complete(self, req: ChatRequest) -> str:
        payload = {
            "model": req.model,
            "messages": [{"role": role, "content": content} for role, content in req.messages],
            "stream": False,
            "options": {"temperature": req.temperature},
        }
        if req.seed is not None:
            payload["options"]["seed"] = req.seed
        status, data = post_retryable(f"{self.endpoint}/api/chat", payload, self.timeout_seconds)
        if status != 200:
            text = data.decode("utf-8", "replace")
            raise GatewayError(req.template_id, f"backend returned {status}: {text[:200]}")
        try:
            body = json.loads(data)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise GatewayError(req.template_id, f"response body is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise GatewayError(req.template_id, f"response is not a JSON object: {type(body).__name__}")
        message = body.get("message") or {}
        if not isinstance(message, dict):
            raise GatewayError(req.template_id, f"response message is not an object: {type(message).__name__}")
        content = message.get("content", "")
        if not isinstance(content, str):
            raise GatewayError(req.template_id, f"response content is not a string: {type(content).__name__}")
        return content


class LlmGateway:
    """Shared, thread-safe front door for all model calls."""

    def __init__(
        self,
        backend,
        model: str,
        cache_dir: str | Path | None = None,
        retries: int = DEFAULT_RETRIES,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        sleep=time.sleep,
        judge_model: str | None = None,
    ):
        self.backend = backend
        self.model = model
        self.judge_model = judge_model or model
        self.cache_dir = os.fspath(cache_dir) if cache_dir else None
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self._sleep = sleep

    # -- request construction -------------------------------------------

    def request(self, template_id: str, variables: dict[str, str], temperature: float | None = None) -> ChatRequest:
        """The request for template_id: its temperature, unless given, and model from CALL_POLICIES."""
        policy = CALL_POLICIES[template_id]
        return ChatRequest(
            template_id=template_id,
            messages=tuple(prompts.render(template_id, variables)),
            temperature=policy.temperature if temperature is None else temperature,
            model=self.judge_model if policy.judge else self.model,
            variables=tuple(sorted((k, str(v)) for k, v in variables.items())),
        )

    def call(self, template_id: str, variables: dict[str, str], temperature: float | None = None) -> str:
        """Render, complete, and return the model text."""
        return self.complete(self.request(template_id, variables, temperature)).text

    # -- completion ------------------------------------------------------

    def complete(self, req: ChatRequest) -> ChatResponse:
        key = None if self.cache_dir is None else cache_key(req)
        cached = None if key is None else cache_read(self.cache_dir, key)
        if cached is not None:
            return ChatResponse(text=cached, backend="cache", latency_ms=0)

        def attempt() -> tuple[str, int]:
            started = time.monotonic()
            text = self.backend.complete(req)
            return text, int((time.monotonic() - started) * 1000)

        try:
            text, latency_ms = retrying(attempt, self.retries, self.backoff_seconds, self._sleep)
        except TransientBackendError as exc:
            raise GatewayError(req.template_id, str(exc)) from exc
        if not text:
            raise GatewayError(req.template_id, "empty completion")
        if key is not None:
            cache_write(self.cache_dir, key, text)
        return ChatResponse(text=text, backend=self.backend.name, latency_ms=latency_ms)


@dataclass
class Validated:
    """What `validated_call` returns."""

    value: Any = None  # the accepted value; None when no reply was accepted
    attempts: int = 0  # model calls made
    rejected: list[str] = field(default_factory=list)  # "attempt N: <reason>", in order
    reason: str = ""  # the last reason, without its attempt tag
    error: GatewayError | None = None  # the failure that ended the loop

    def get(self, fail: Callable[[str], Exception]) -> Any:
        """The accepted value; else raise the gateway error, or `fail(reason)` when no reply was accepted."""
        if self.error is not None:
            raise self.error
        if self.value is None:
            raise fail(self.reason)
        return self.value


# The list of the innermost `collect_failures` block in the current context, if any.
_collector: contextvars.ContextVar[list[GatewayError] | None] = contextvars.ContextVar("collector", default=None)


@contextlib.contextmanager
def collect_failures() -> Iterator[list[GatewayError]]:
    """Yield a list of the gateway errors `validated_call` ends a step on inside the block, on this thread.

    The stage engine runs each row in one, so a row that fell back on a failed call is known.
    """
    failures: list[GatewayError] = []
    token = _collector.set(failures)
    try:
        yield failures
    finally:
        _collector.reset(token)


def validated_call(
    gw,
    template_id: str,
    variables: dict[str, str],
    check: Callable[[str, Callable[[str], None]], Any],
) -> Validated:
    """Call `gw.call` until `check` accepts a reply, at most `VALIDATED_ATTEMPTS` times.

    The first call carries the variables as given; call N from 2 on adds
    `attempt` = "N". `check(text, reject)` returns the accepted value or None;
    `reject(reason)` records "attempt N: <reason>" and returns None. A
    `GatewayError` is recorded as "gateway failure: ...", ends the loop, and
    joins the list of the enclosing `collect_failures` block.
    """
    out = Validated()

    def reject(reason: str) -> None:
        out.reason = reason
        out.rejected.append(f"attempt {out.attempts}: {reason}")

    for attempt in range(1, VALIDATED_ATTEMPTS + 1):
        out.attempts = attempt
        tagged = {**variables, "attempt": str(attempt)} if attempt > 1 else variables
        try:
            text = gw.call(template_id, tagged)
        except GatewayError as exc:
            reject(f"gateway failure: {exc}")
            out.error = exc
            if (failures := _collector.get()) is not None:
                failures.append(exc)
            break
        out.value = check(text, reject)
        if out.value is not None:
            break
    return out
