"""Document embedding backends and cosine similarity.

The fallback embedder is a deterministic hashed unigram+bigram term-frequency
vector with L2 normalization, so the test suite and offline runs never need a
network. An HTTP backend covers deployments with a real embedding endpoint;
the embedding model identifier is a config string, not a code dependency.

`HashedTfEmbedder` hashes each distinct term once per instance: a memo on the
instance maps a term to its bucket. A unigram is keyed by its token and a
bigram by its token pair, so a memo hit builds no string. `embed` looks every
term up in one `map` over the memo; only a text with a term the memo lacks
takes the path that hashes and stores it. `runner.build_embedder` makes one
instance per command, so the memo lives for one command and nothing outlives
it. The memo is cleared when it holds `MEMO_CAP` terms, 2**14; full, it takes
about 2.1 MB, some 130 bytes a term for its dict slot, its key and its bucket.
So memory does not grow with the corpus. The bucket counts are integers and
the norm is taken over them exactly, so every vector is bit-identical to
hashing each term occurrence anew into a dense float vector.

The eval cases of one command run on the worker pool and share that memo.
Each dict read, write and clear is atomic, a miss is read back from a local
map, never from the memo after a possible clear, and a term's bucket depends
on the term alone. So the worst a race does is hash a term twice, or after a
clear hash it again, into the same bucket: every vector stays bit-identical.

`similarities` scores one case: it embeds the original and each variant
once, and takes each one's norm in one pass over its nonzero entries, which
an embedding lists in ascending index order. The dot product runs over the
variant's entries that the original also holds, in that order. A running sum
that starts at 0 is unchanged by adding a zero, so a dense vector, as the HTTP
embedder returns, scores with the same bits as its sparse map.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import operator
from collections import Counter
from collections.abc import Iterable

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

    def __init__(self):
        # A token or a token pair -> its bucket.
        self._buckets: dict[str | tuple[str, str], int] = {}

    def embed(self, text: str) -> dict[int, float]:
        """Sparse vector: the nonzero buckets only, in ascending bucket order."""
        tokens = tokenize(text)
        terms = [*tokens, *zip(tokens, tokens[1:])]
        memo = self._buckets
        try:
            buckets = list(map(memo.__getitem__, terms))
        except KeyError:  # a term not yet hashed, or the memo was cleared
            found = dict(zip(terms, map(memo.get, terms)))
            for term, bucket in found.items():
                if bucket is None:
                    if len(memo) >= MEMO_CAP:
                        memo.clear()
                    spelled = term if isinstance(term, str) else f"{term[0]} {term[1]}"
                    found[term] = memo[term] = _bucket(spelled, FALLBACK_DIMENSIONS)
            buckets = list(map(found.__getitem__, terms))
        counts = Counter(buckets)
        keys = sorted(counts)
        values = list(map(counts.__getitem__, keys))
        norm = math.sqrt(sum(map(operator.mul, values, values)))
        return dict(zip(keys, [v / norm for v in values]))


class HttpEmbedder:
    """Embedding endpoint speaking the Ollama-compatible /api/embeddings shape."""

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


def _unit(vector) -> tuple[dict[int, float], float]:
    """The nonzero entries of an embedding, in ascending index order, and its norm."""
    u = vector if isinstance(vector, dict) else {i: x for i, x in enumerate(vector) if x}
    values = list(u.values())
    return u, math.sqrt(sum(map(operator.mul, values, values)))


def similarities(original: str, texts: Iterable[str], embedder) -> list[float]:
    """`doc_similarity(original, text, embedder)` for each text; the original is embedded and its norm taken once."""
    u, nu = _unit(embedder.embed(original))
    scores = []
    for text in texts:
        v, nv = _unit(embedder.embed(text))
        if not u and not v:
            scores.append(1.0 if text == original else 0.0)
        elif nu == 0.0 or nv == 0.0:
            scores.append(0.0)
        else:
            scores.append(sum([u[k] * x for k, x in v.items() if k in u]) / (nu * nv))
    return scores


def doc_similarity(a: str, b: str, embedder) -> float:
    """Cosine similarity of two documents under the configured embedder."""
    (score,) = similarities(a, [b], embedder)
    return score
