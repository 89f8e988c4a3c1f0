"""Document embedding backends and cosine similarity.

The fallback embedder is a deterministic hashed unigram+bigram term-frequency
vector with L2 normalization, so the test suite and offline runs never need a
network. An HTTP backend covers deployments with a real embedding endpoint;
the embedding model identifier is a config string, not a code dependency.

`HashedTfEmbedder` hashes each distinct term once per instance: a memo on the
instance maps a term to its bucket. `runner.build_embedder` makes one
instance per command, so the memo lives for one command and nothing
outlives it. The memo is cleared when it holds `MEMO_CAP` terms, about 2 MB,
so memory does not grow with the corpus. Counts stay integer-valued floats,
so every vector is bit-identical to hashing each term occurrence anew.

The eval cases of one command run on the worker pool and share that memo.
Each dict read, write and clear is atomic, and a term's bucket depends on
the term alone, so the worst a race does is hash a term twice, or after a
clear hash it again, into the same bucket: every vector stays bit-identical.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
from collections import Counter

from ..gateway import post_json
from ..textproc import tokenize

FALLBACK_DIMENSIONS = 4096
# Terms a HashedTfEmbedder remembers before it clears its memo.
MEMO_CAP = 2**14


def _bucket(term: str, dimensions: int) -> int:
    digest = hashlib.sha256(term.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dimensions


class HashedTfEmbedder:
    """Hashed term-frequency document vectors over unigrams and bigrams."""

    name = "fallback"

    def __init__(self, dimensions: int = FALLBACK_DIMENSIONS):
        self.dimensions = dimensions
        self._buckets: dict[str, int] = {}

    def embed(self, text: str) -> dict[int, float]:
        """Sparse vector: the nonzero buckets only, in ascending bucket order."""
        tokens = tokenize(text)
        terms = Counter(tokens)
        terms.update(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
        memo = self._buckets
        counts: dict[int, float] = {}
        for term, n in terms.items():
            bucket = memo.get(term)
            if bucket is None:
                if len(memo) >= MEMO_CAP:
                    memo.clear()
                bucket = memo[term] = _bucket(term, self.dimensions)
            counts[bucket] = counts.get(bucket, 0.0) + n
        buckets = sorted(counts)
        norm = math.sqrt(sum(counts[k] * counts[k] for k in buckets))
        return {k: counts[k] / norm for k in buckets}


class HttpEmbedder:
    """Embedding endpoint speaking the Ollama-compatible /api/embeddings shape."""

    name = "http"

    def __init__(self, endpoint: str, model: str, timeout_seconds: float = 60.0):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.timeout_seconds = timeout_seconds

    def embed(self, text: str) -> list[float]:
        url = f"{self.endpoint}/api/embeddings"
        try:
            status, data = post_json(url, {"model": self.model, "prompt": text}, self.timeout_seconds)
        except (OSError, http.client.HTTPException) as exc:
            raise RuntimeError(f"embedding endpoint {url} failed: {exc}") from exc
        if not 200 <= status < 300:
            reply = data.decode("utf-8", "replace")
            raise RuntimeError(f"embedding endpoint {url} returned {status}: {reply[:200]}")
        try:
            body = json.loads(data)
        except ValueError as exc:
            raise RuntimeError(f"embedding endpoint {url} returned a body that is not JSON: {exc}") from exc
        embedding = body.get("embedding") if isinstance(body, dict) else None
        if not isinstance(embedding, list) or not embedding:
            raise RuntimeError(f"embedding endpoint returned no vector: {url}")
        return [float(v) for v in embedding]


def _sparse(u) -> dict[int, float]:
    if isinstance(u, dict):
        return u
    return {i: x for i, x in enumerate(u) if x}


def cosine(u, v) -> float:
    """Cosine of two vectors, each a dense list or a sparse {index: value} map.

    Sums run over the nonzero entries in ascending index order. A running sum
    that starts at 0 is unchanged by adding a zero, so a sparse vector gives
    the same bits as its dense list.
    """
    u, v = _sparse(u), _sparse(v)
    dot = sum(u[k] * v[k] for k in sorted(u.keys() & v.keys()))
    nu = math.sqrt(sum(u[k] * u[k] for k in sorted(u)))
    nv = math.sqrt(sum(v[k] * v[k] for k in sorted(v)))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def embedded_similarity(a: str, ua, b: str, ub) -> float:
    """doc_similarity of a and b given their embeddings ua and ub."""
    ua, ub = _sparse(ua), _sparse(ub)
    if not ua and not ub:
        return 1.0 if a == b else 0.0
    return cosine(ua, ub)


def doc_similarity(a: str, b: str, embedder) -> float:
    """Cosine similarity of two documents under the configured embedder."""
    return embedded_similarity(a, embedder.embed(a), b, embedder.embed(b))
