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
instance per command, so the memo lives for one command. The memo is
cleared when it holds `MEMO_CAP` terms, 2**14; full, it takes about 2.1 MB,
some 130 bytes a term for its dict slot, its key and its bucket. So memory
does not grow with the corpus. The bucket counts are integers and
the norm is taken over them exactly, so every vector is bit-identical to
hashing each term occurrence anew into a dense float vector.

The eval cases of one command run on the worker pool and share that memo.
Each dict read, write and clear is atomic, a miss is read back from a local
map, never from the memo after a possible clear, and a term's bucket depends
on the term alone. So the worst a race does is hash a term twice, or after a
clear hash it again, into the same bucket: every vector stays bit-identical.

With `gateway.cache_dir` set, `runner.build_embedder` wraps the embedder in
a `CachedEmbedder`, and its vectors outlive the command: each text's map, as
`_unit` builds it, is kept in the gateway's cache beside the chat replies,
under SHA-256 of the embedder's identity and the text. The identity of the
fallback is the package's source digest, so an edit to the package embeds
each text once again; that of the HTTP embedder is its model. An entry
packs the indices as uint32 and the values as float64, little-endian, in
base64, so the cache stays text and a cached vector scores with the same
bits as a computed one. A warm eval reads each text's entry and hashes no
term. Without a cache nothing is written, and a command embeds every text.

`similarities` scores one case: it embeds the original and each variant
once, and takes each one's norm in one pass over its nonzero entries, which
an embedding lists in ascending index order. The dot product runs over the
variant's entries that the original also holds, in that order. A running sum
that starts at 0 is unchanged by adding a zero, so a dense vector, as the HTTP
embedder returns, scores with the same bits as its sparse map.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import operator
import struct
import time
from collections import Counter
from collections.abc import Iterable

from ..gateway import (
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_RETRIES,
    TransientBackendError,
    cache_read,
    cache_write,
    post_retryable,
    retrying,
)
from ..textproc import id_bytes, tokenize

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
    """Embedding endpoint speaking the Ollama-compatible /api/embeddings shape.

    A connection failure, a 5xx or a 429 is retried through `gateway.retrying`,
    as a chat completion is; any other fault fails at once.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        timeout_seconds: float = 60.0,
        retries: int = DEFAULT_RETRIES,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.timeout_seconds = timeout_seconds
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self._sleep = sleep

    def embed(self, text: str) -> list[float]:
        url = f"{self.endpoint}/api/embeddings"
        payload = {"model": self.model, "prompt": text}
        try:
            status, data = retrying(
                lambda: post_retryable(url, payload, self.timeout_seconds),
                self.retries,
                self.backoff_seconds,
                self._sleep,
            )
        except TransientBackendError as exc:
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


def cache_key(identity: str, text: str) -> str:
    """The cache key of text's embedding under the embedder identity: SHA-256 over canonical JSON."""
    canon = json.dumps({"embedder": identity, "text": text}, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(id_bytes(canon)).hexdigest()


def pack(vector: dict[int, float]) -> str:
    """A cache entry: the indices as uint32, then the values as float64, little-endian, in base64."""
    n = len(vector)
    return base64.b64encode(struct.pack(f"<{n}I{n}d", *vector, *vector.values())).decode("ascii")


def unpack(entry: str) -> dict[int, float] | None:
    """The vector `pack` wrote; None for an entry that is not base64, or whose length is not a multiple
    of 12 bytes, an index and its value.

    Only `pack` writes entries, each in one atomic write, so these checks catch
    a foreign or cut file; the bytes of a well-formed entry are trusted, as a
    cached reply is.
    """
    try:
        data = base64.b64decode(entry, validate=True)
    except ValueError:  # binascii.Error, or a character that is not ASCII
        return None
    n, rest = divmod(len(data), 12)
    if rest:
        return None
    return dict(zip(struct.unpack_from(f"<{n}I", data), struct.unpack_from(f"<{n}d", data, 4 * n)))


class CachedEmbedder:
    """An embedder behind the gateway's cache.

    `embed` returns the map `_unit` builds from the inner embedder's vector:
    read from the entry under `cache_key(identity, text)`, else computed and
    written there. An entry that cannot be read (not UTF-8, not what `pack`
    writes) is a miss and is overwritten.
    """

    def __init__(self, embedder, identity: str, cache_dir: str):
        self.embedder = embedder
        self.identity = identity
        self.cache_dir = cache_dir

    def embed(self, text: str) -> dict[int, float]:
        key = cache_key(self.identity, text)
        entry = cache_read(self.cache_dir, key)
        vector = None if entry is None else unpack(entry)
        if vector is None:
            vector = _unit(self.embedder.embed(text))[0]
            cache_write(self.cache_dir, key, pack(vector))
        return vector


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
