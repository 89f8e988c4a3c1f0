"""Stand-in model endpoint: replays recorded responses after a fixed latency.

It speaks the Ollama `/api/chat` shape that `HttpBackend` sends. Each
request is keyed with `gateway.cache_key` and answered from the response
store after sleeping the injected latency; an unknown prompt gets a 404, which
the gateway reports as a failed call. `GET /stats` returns the request count,
the number of unknown prompts, the peak of requests in flight and the total
latency actually injected.

    python3 perfbench/stub.py --store store.json --latency-ms 20 --port-file port
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


def request_key(payload: dict) -> str:
    """The gateway's cache key of the request an `/api/chat` body encodes."""
    from anonpsy.gateway import ChatRequest, cache_key

    options = payload.get("options") or {}
    req = ChatRequest(
        template_id="stub",
        messages=tuple((m["role"], m["content"]) for m in payload["messages"]),
        temperature=options["temperature"],
        model=payload["model"],
        seed=options.get("seed"),
    )
    return cache_key(req)


class StubState:
    def __init__(self, store: dict[str, str], latency_s: float):
        self.store = store
        self.latency_s = latency_s
        self.lock = threading.Lock()
        self.requests = 0
        self.unknown = 0
        self.inflight = 0
        self.max_inflight = 0
        self.injected_s = 0.0

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "unknown": self.unknown,
                "max_inflight": self.max_inflight,
                "injected_ms": self.injected_s * 1000.0,
                "latency_ms": self.latency_s * 1000.0,
            }


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # keep stderr quiet
            pass

        def _send(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, state.stats())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            if self.path != "/api/chat":
                self._send(404, {"error": "not found"})
                return
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            key = request_key(payload)
            with state.lock:
                state.requests += 1
                state.inflight += 1
                state.max_inflight = max(state.max_inflight, state.inflight)
            started = time.perf_counter()
            try:
                time.sleep(state.latency_s)
            finally:
                with state.lock:
                    state.inflight -= 1
                    state.injected_s += time.perf_counter() - started
            text = state.store.get(key)
            if text is None:
                with state.lock:
                    state.unknown += 1
                self._send(404, {"error": "prompt not in the response store"})
            else:
                self._send(200, {"model": payload["model"], "message": {"role": "assistant", "content": text}, "done": True})

    return Handler


def fetch_stats(endpoint: str) -> dict:
    with urllib.request.urlopen(f"{endpoint}/stats", timeout=10) as resp:
        return json.loads(resp.read())


class StubProcess:
    """The stub in its own process for the length of a `with` block."""

    START_TIMEOUT_S = 30.0

    def __init__(self, store: Path, latency_ms: float, work: Path):
        self.args = [
            sys.executable, str(Path(__file__).resolve()),
            "--store", str(store), "--latency-ms", str(latency_ms), "--port-file", str(work / "stub.port"),
        ]
        self.port_file = work / "stub.port"
        self.proc: subprocess.Popen | None = None
        self.endpoint = ""

    def __enter__(self) -> "StubProcess":
        self.port_file.unlink(missing_ok=True)
        self.proc = subprocess.Popen(self.args, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + self.START_TIMEOUT_S
        while not self.port_file.is_file():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__(None, None, None)
                raise RuntimeError("stub model endpoint did not start")
            time.sleep(0.01)
        self.endpoint = f"http://127.0.0.1:{self.port_file.read_text(encoding='utf-8')}"
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True, help="JSON object: cache key -> response text")
    parser.add_argument("--latency-ms", type=float, required=True)
    parser.add_argument("--port-file", required=True, help="written with the bound port once serving")
    args = parser.parse_args(argv)
    store = json.loads(Path(args.store).read_text(encoding="utf-8"))
    state = StubState(store, args.latency_ms / 1000.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    port_file = Path(args.port_file)
    tmp = port_file.with_suffix(".tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    os.replace(tmp, port_file)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    main()
