from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from anonpsy.config import RunConfig
from anonpsy.gateway import LlmGateway, MockBackend

DATA_DIR = Path(__file__).parent / "data"
CORPUS_DIR = DATA_DIR / "corpus"
FIXTURES_DIR = DATA_DIR / "fixtures"
GOLDEN_DIR = DATA_DIR / "golden"

# `pytest --hypothesis-profile=fuzz` runs each property that sets no example
# count of its own 10^5 times, such as the YAML differential properties in
# test_yaml_loaders.py.
settings.register_profile(
    "fuzz", max_examples=100_000, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large]
)


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES_DIR


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture()
def run_config() -> RunConfig:
    return RunConfig(seed=42, jobs=1, backend="mock", fixtures_dir=str(FIXTURES_DIR))


@pytest.fixture()
def mock_gateway(run_config) -> LlmGateway:
    return LlmGateway(MockBackend(run_config.fixtures_dir), model=run_config.model)


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


class RawReply(bytes):
    """A reply `HttpStub` writes to the socket as it is, then closes the connection."""


class HttpStub:
    """An HTTP server on 127.0.0.1 that records each request and replies from a queue.

    `replies` holds (status, body) pairs, served in order: a `bytes` or `str`
    body is sent as is, anything else as JSON. A `RawReply` is written as it
    is. The reply `HttpStub.STALL` sends nothing until the stub shuts down.
    `requests` collects (path, parsed JSON body) pairs, and `headers` the
    headers of each request.
    """

    STALL = object()

    def __init__(self):
        self.replies: list = []
        self.requests: list[tuple[str, object]] = []
        self.headers: list = []
        self._release = threading.Event()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):  # keep test output quiet
                pass

            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                stub.requests.append((self.path, json.loads(body)))
                stub.headers.append(self.headers)
                reply = stub.replies.pop(0) if stub.replies else (500, "no reply queued")
                if reply is HttpStub.STALL:
                    stub._release.wait(timeout=30)
                    return
                if isinstance(reply, RawReply):
                    self.wfile.write(reply)
                    self.close_connection = True
                    return
                status, payload = reply
                if isinstance(payload, str):
                    payload = payload.encode("utf-8")
                elif not isinstance(payload, bytes):
                    payload = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self._thread = threading.Thread(target=self.server.serve_forever, args=(0.02,), daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._release.set()
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10)


@pytest.fixture()
def http_stub():
    stub = HttpStub()
    try:
        yield stub
    finally:
        stub.close()


@pytest.fixture()
def refused_url() -> str:
    """The URL of a port that was bound and then closed, so connecting is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"
