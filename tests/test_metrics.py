import base64
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import anonpsy.runner as runner
from anonpsy.converter import CaseNarrative
from anonpsy.evaluation import embedding
from anonpsy.evaluation.canon import canonical_label_set, canonicalize_diagnosis, soft_f1
from anonpsy.evaluation.embedding import (
    FALLBACK_DIMENSIONS,
    CachedEmbedder,
    HashedTfEmbedder,
    _bucket,
    doc_similarity,
    similarities,
)
from anonpsy.evaluation.report import eval_case
from anonpsy.textproc import tokenize
from tests.gen_fixtures import make_config

from .conftest import CORPUS_DIR, GOLDEN_DIR, RawReply
from .helpers import FakeGateway, tf_cosine_oracle
from .synthesis import CASE_001, CASE_002

# Frozen once from the independent sparse term-vector oracle.
FROZEN_CASE_PAIR_SIMILARITY = 0.5618557183598223


class TestCanonicalization:
    @pytest.mark.parametrize(
        "label,expected",
        [
            ("Major Depressive Disorder, in remission", "major depressive disorder"),
            ("bipolar i disorder, most recent episode depressed", "bipolar i disorder"),
            ("major depressive disorder, with psychotic features", "major depressive disorder"),
            ("schizophrenia", "schizophrenia"),
            ("Schizoaffective Disorder, Bipolar Type", "schizoaffective disorder, bipolar type"),
            ("generalized anxiety disorder, moderate", "generalized anxiety disorder"),
            ("major depressive disorder (in remission)", "major depressive disorder"),
        ],
    )
    def test_specifier_stripping(self, label, expected):
        assert canonicalize_diagnosis(label) == expected

    def test_known_synonyms_share_canonical_form(self):
        a = canonicalize_diagnosis("conversion disorder")
        b = canonicalize_diagnosis("functional neurological symptom disorder")
        assert a == b

    def test_label_set_sorted_and_deduplicated(self):
        labels = ["Dysthymia", "persistent depressive disorder", "Schizophrenia"]
        assert canonical_label_set(labels) == ["persistent depressive disorder", "schizophrenia"]


class TestSoftF1:
    def test_identity(self):
        assert soft_f1(["major depressive disorder"], ["major depressive disorder"]) == 1.0

    def test_empty_prediction_scores_zero(self):
        assert soft_f1([], ["schizophrenia"]) == 0.0

    def test_empty_vs_empty_is_one(self):
        assert soft_f1([], []) == 1.0

    def test_partial_match_formula(self):
        score = soft_f1(["a", "x"], ["a"])
        assert score == pytest.approx(2 * 0.5 * 1.0 / 1.5)

    def test_synonym_pair_scores_one_after_canonicalization(self):
        pred = canonical_label_set(["functional neurological symptom disorder"])
        gold = canonical_label_set(["conversion disorder"])
        assert soft_f1(pred, gold) == 1.0

    def test_threshold_one_equals_exact_match_f1(self):
        rng = random.Random(71)
        vocab = [f"label {i}" for i in range(12)]
        for _ in range(100):
            pred = sorted(set(rng.sample(vocab, rng.randint(0, 6))))
            gold = sorted(set(rng.sample(vocab, rng.randint(0, 6))))
            matched = len(set(pred) & set(gold))
            if not pred and not gold:
                expected = 1.0
            elif not pred or not gold or matched == 0:
                expected = 0.0
            else:
                precision, recall = matched / len(pred), matched / len(gold)
                expected = 2 * precision * recall / (precision + recall)
            fuzzy = lambda a, b: 1.0 if a.split()[-1] == b.split()[-1] else 0.6
            assert soft_f1(pred, gold, matcher=fuzzy, threshold=1.0) == pytest.approx(expected)

    def test_greedy_matching_with_matcher(self):
        matcher = lambda a, b: 0.9 if a[0] == b[0] else 0.0
        score = soft_f1(["alpha", "beta"], ["axiom", "beacon"], matcher=matcher, threshold=0.8)
        assert score == 1.0

    def test_greedy_determinism_under_ties(self):
        matcher = lambda a, b: 0.9
        first = soft_f1(["a", "b"], ["c", "d"], matcher=matcher)
        for _ in range(5):
            assert soft_f1(["a", "b"], ["c", "d"], matcher=matcher) == first

    def test_bounded(self):
        rng = random.Random(73)
        vocab = ["x", "y", "z", "w"]
        for _ in range(50):
            pred = rng.sample(vocab, rng.randint(0, 4))
            gold = rng.sample(vocab, rng.randint(0, 4))
            assert 0.0 <= soft_f1(pred, gold) <= 1.0


class _DenseEmbedder:
    """The dense 4096-float embedder, kept as the reference; lists like HttpEmbedder's."""

    def embed(self, text: str) -> list[float]:
        tokens = tokenize(text)
        terms = list(tokens) + [f"{x} {y}" for x, y in zip(tokens, tokens[1:])]
        vector = [0.0] * FALLBACK_DIMENSIONS
        for term in terms:
            vector[_bucket(term, FALLBACK_DIMENSIONS)] += 1.0
        norm = math.sqrt(sum(v * v for v in vector))
        return vector if norm == 0.0 else [v / norm for v in vector]


def _dense_similarity(a: str, b: str) -> float:
    """The dense doc_similarity, kept as the reference."""
    ua, ub = _DenseEmbedder().embed(a), _DenseEmbedder().embed(b)
    if all(x == 0.0 for x in ua) and all(x == 0.0 for x in ub):
        return 1.0 if a == b else 0.0
    dot = sum(x * y for x, y in zip(ua, ub))
    nu = math.sqrt(sum(x * x for x in ua))
    nv = math.sqrt(sum(y * y for y in ub))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


class TestDocSimilarity:
    def test_equals_dense_reference_bit_for_bit(self):
        texts = [p.read_text(encoding="utf-8") for p in sorted(CORPUS_DIR.glob("*.txt"))]
        texts += [p.read_text(encoding="utf-8") for p in sorted(GOLDEN_DIR.glob("*.deid.txt"))]
        texts += ["", "alpha beta gamma"]
        for a in texts:
            for b in texts:
                expected = _dense_similarity(a, b)
                assert doc_similarity(a, b, HashedTfEmbedder()) == expected
                assert doc_similarity(a, b, _DenseEmbedder()) == expected

    def test_self_similarity_is_one(self):
        embedder = HashedTfEmbedder()
        assert doc_similarity(CASE_001, CASE_001, embedder) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_vocabulary_is_zero(self):
        embedder = HashedTfEmbedder()
        assert doc_similarity("alpha beta gamma", "delta epsilon zeta", embedder) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self):
        embedder = HashedTfEmbedder()
        assert doc_similarity(CASE_001, CASE_002, embedder) == pytest.approx(
            doc_similarity(CASE_002, CASE_001, embedder), abs=1e-12
        )

    def test_fixture_pair_matches_frozen_oracle_value(self):
        embedder = HashedTfEmbedder()
        value = doc_similarity(CASE_001, CASE_002, embedder)
        assert value == pytest.approx(FROZEN_CASE_PAIR_SIMILARITY, abs=1e-9)
        assert tf_cosine_oracle(CASE_001, CASE_002) == pytest.approx(value, abs=1e-9)

    def test_empty_documents(self):
        embedder = HashedTfEmbedder()
        assert doc_similarity("", "", embedder) == 1.0
        assert doc_similarity("", "words here", embedder) == 0.0


def _dense_as_sparse(text: str) -> dict[int, float]:
    return {i: x for i, x in enumerate(_DenseEmbedder().embed(text)) if x}


def _all_texts() -> list[str]:
    paths = sorted(CORPUS_DIR.glob("*.txt")) + sorted(GOLDEN_DIR.glob("*.txt"))
    return [p.read_text(encoding="utf-8") for p in paths] + ["", "alpha beta gamma"]


class TestEvalCaseCosines:
    def test_equal_the_dense_reference_bit_for_bit(self):
        # Unrounded: the golden report.yaml rounds to 6 digits, so it cannot show a last-bit change.
        texts = _all_texts()
        variants = {f"v{i}": text for i, text in enumerate(texts)}
        gateway = FakeGateway(lambda _template, _variables: "diagnoses: []\n")
        embedder = HashedTfEmbedder()
        for original in filter(str.strip, texts):
            case = eval_case(CaseNarrative("case_x", original), variants, gateway, embedder, 42)
            expected = {name: _dense_similarity(original, text) for name, text in variants.items()}
            assert {name: m.cosine for name, m in case.variants.items()} == {"original": 1.0, **expected}


# Texts with no token, with one token, and with the same bigrams again and again.
_TEXTS = st.one_of(
    st.just(""),
    st.text(alphabet=" .,;:!?-'\n", max_size=6),
    st.sampled_from(["mood", "Mood.", "7"]),
    st.lists(st.sampled_from(["low mood", "Low", "mood", "sleep", "x y", "7", "."]), max_size=12).map(" ".join),
)


@given(st.lists(_TEXTS, min_size=1, max_size=5))
def test_similarities_equal_the_dense_reference_bit_for_bit(texts):
    # One embedder with a memo cleared every five terms, and four threads scoring on it at once,
    # as an eval at jobs 4 does.
    expected = [[_dense_similarity(original, text).hex() for text in texts] for original in texts]
    embedder = HashedTfEmbedder()
    with mock.patch.object(embedding, "MEMO_CAP", 5), ThreadPoolExecutor(max_workers=4) as pool:
        scores = list(pool.map(lambda original: similarities(original, texts, embedder), texts))
    assert len(embedder._buckets) <= 5
    assert [[score.hex() for score in row] for row in scores] == expected


class TestBucketMemo:
    """One embedder hashes each distinct term once; its vectors stay the dense reference's."""

    def _check_shared_embedder(self, cap):
        embedder = HashedTfEmbedder()
        for text in _all_texts() * 2:
            vector = embedder.embed(text)
            assert vector == _dense_as_sparse(text)
            assert list(vector) == sorted(vector)
            assert len(embedder._buckets) <= cap
        return embedder

    def test_shared_embedder_equals_dense_reference_bit_for_bit(self):
        embedder = self._check_shared_embedder(embedding.MEMO_CAP)
        assert embedder._buckets  # the corpus fits: the memo was never cleared

    def test_memo_cleared_when_full_keeps_vectors_equal(self, monkeypatch):
        monkeypatch.setattr(embedding, "MEMO_CAP", 5)
        self._check_shared_embedder(5)

    def test_a_bigram_is_kept_under_its_token_pair(self, monkeypatch):
        embedder = HashedTfEmbedder()
        embedder.embed("Low mood.")
        assert embedder._buckets == {
            "low": _bucket("low", FALLBACK_DIMENSIONS),
            "mood": _bucket("mood", FALLBACK_DIMENSIONS),
            ("low", "mood"): _bucket("low mood", FALLBACK_DIMENSIONS),
        }
        monkeypatch.setattr(embedding, "_bucket", None)  # terms it has seen are not hashed again
        assert embedder.embed("LOW, mood") == _dense_as_sparse("low mood")

    def test_more_distinct_terms_than_the_cap_leave_at_most_cap_in_the_memo(self):
        text = " ".join(f"w{i}" for i in range(embedding.MEMO_CAP + 1))
        embedder = HashedTfEmbedder()
        assert embedder.embed(text) == _dense_as_sparse(text)
        assert 0 < len(embedder._buckets) <= embedding.MEMO_CAP

    @given(st.lists(st.lists(st.sampled_from(["mood", "sleep", "Mood", "7", "low", "x y"]), max_size=40), max_size=6))
    def test_repeated_terms_embed_as_dense_reference(self, docs):
        embedder = HashedTfEmbedder()
        for words in docs:
            text = " ".join(words)
            assert embedder.embed(text) == _dense_as_sparse(text)
            assert len(embedder._buckets) <= embedding.MEMO_CAP


class TestHttpEmbedder:
    def test_embedding_endpoint_contract(self, http_stub):
        from anonpsy.evaluation.embedding import HttpEmbedder

        http_stub.replies.append((200, {"embedding": [3.0, 4.0]}))
        embedder = HttpEmbedder(http_stub.url, "all-mpnet-base-v2")
        assert embedder.embed("some text") == [3.0, 4.0]
        assert http_stub.requests == [
            ("/api/embeddings", {"model": "all-mpnet-base-v2", "prompt": "some text"})
        ]

    @pytest.mark.parametrize(
        "reply,fault",
        [
            ((500, "overloaded"), "returned 500: overloaded"),
            ((404, {"error": "no such model"}), "returned 404"),
            ((200, "<html>busy</html>"), "not JSON"),
            ((200, {"embedding": []}), "returned no vector"),
            ((200, {"model": "all-mpnet-base-v2"}), "returned no vector"),
            ((200, ["not", "an", "object"]), "returned no vector"),
            (RawReply(b"HTTP/1.1 302 Found\r\nLocation: /api/other\r\nContent-Length: 0\r\n\r\n"), "returned 302: $"),
        ],
        ids=["server-error", "client-error", "not-json", "empty-vector", "no-vector", "not-an-object", "redirect"],
    )
    def test_endpoint_faults_are_runtime_errors_naming_endpoint(self, http_stub, reply, fault):
        from anonpsy.evaluation.embedding import HttpEmbedder

        # A 5xx is asked again until every attempt is spent; every other fault fails at once.
        attempts = 3 if not isinstance(reply, RawReply) and reply[0] >= 500 else 1
        http_stub.replies.extend([reply] * attempts)
        sleeps = []
        with pytest.raises(RuntimeError, match=fault) as err:
            HttpEmbedder(http_stub.url, "all-mpnet-base-v2", retries=3, sleep=sleeps.append).embed("some text")
        assert f"{http_stub.url}/api/embeddings" in str(err.value)
        assert len(http_stub.requests) == attempts
        assert sleeps == [0.5, 1.0][: attempts - 1]

    def test_refused_connection_is_runtime_error_naming_endpoint(self, refused_url):
        from anonpsy.evaluation.embedding import HttpEmbedder

        with pytest.raises(RuntimeError, match="failed") as err:
            HttpEmbedder(refused_url, "all-mpnet-base-v2").embed("some text")
        assert f"{refused_url}/api/embeddings" in str(err.value)

    @pytest.mark.parametrize("status", [503, 429])
    def test_a_transient_fault_then_a_vector_returns_the_vector(self, http_stub, status):
        from anonpsy.evaluation.embedding import HttpEmbedder

        http_stub.replies += [(status, "busy"), (200, {"embedding": [0.0, 3.0, 4.0]})]
        sleeps = []
        embedder = HttpEmbedder(http_stub.url, "m", retries=3, backoff_seconds=0.25, sleep=sleeps.append)
        assert embedder.embed("some text") == [0.0, 3.0, 4.0]
        assert [path for path, _ in http_stub.requests] == ["/api/embeddings"] * 2
        assert sleeps == [0.25]

    def test_a_refused_connection_is_asked_again_until_every_attempt_is_spent(self, refused_url):
        from anonpsy.evaluation.embedding import HttpEmbedder

        sleeps = []
        with pytest.raises(RuntimeError, match="failed: exhausted 2 attempts: .*refused"):
            HttpEmbedder(refused_url, "m", retries=2, sleep=sleeps.append).embed("some text")
        assert sleeps == [0.5]

    def test_the_run_config_sets_its_retries_and_backoff(self):
        from anonpsy.evaluation.embedding import HttpEmbedder

        config = replace(make_config(), embedder="http", embedding_endpoint="http://e", retries=5)
        config = replace(config, backoff_seconds=0.125)
        embedder = runner.build_embedder(config)
        assert isinstance(embedder, HttpEmbedder)
        assert (embedder.retries, embedder.backoff_seconds) == (5, 0.125)


class _Unreachable:
    """An embedder that must not be asked: every vector comes from the cache."""

    def embed(self, text):
        raise AssertionError(f"embedded {text!r}")


def _hex_rows(texts, embedder):
    return [[score.hex() for score in similarities(original, texts, embedder)] for original in texts]


class TestEmbeddingCache:
    def test_fallback_cosines_from_cached_vectors_equal_computed_ones_bit_for_bit(self, tmp_path):
        texts = _all_texts()  # holds the empty text
        expected = _hex_rows(texts, HashedTfEmbedder())
        cache = str(tmp_path / "cache")
        assert _hex_rows(texts, CachedEmbedder(HashedTfEmbedder(), "digest", cache)) == expected
        assert _hex_rows(texts, CachedEmbedder(_Unreachable(), "digest", cache)) == expected

    def test_dense_http_cosines_from_cached_vectors_equal_computed_ones_bit_for_bit(self, http_stub, tmp_path):
        from anonpsy.evaluation.embedding import HttpEmbedder

        rng = random.Random(7)
        texts = ["low mood", "poor sleep", "", "low mood, poor sleep"]
        # Dense vectors that hold zeros, as a real endpoint's may.
        vectors = {t: [rng.choice([0.0, -0.0, rng.uniform(-1, 1)]) for _ in range(64)] for t in texts}
        vectors[""] = [0.0] * 64

        embedder = HttpEmbedder(http_stub.url, "m")
        http_stub.replies += [(200, {"embedding": vectors[t]}) for o in texts for t in (o, *texts)]
        expected = _hex_rows(texts, embedder)
        # Cached, each text is asked for once, in the order the scoring first meets it.
        http_stub.replies += [(200, {"embedding": vectors[t]}) for t in texts]
        cache = str(tmp_path / "cache")
        assert _hex_rows(texts, CachedEmbedder(embedder, "m", cache)) == expected
        asked = len(http_stub.requests)
        assert _hex_rows(texts, CachedEmbedder(embedder, "m", cache)) == expected
        assert len(http_stub.requests) == asked

    def test_an_entry_holds_the_nonzero_entries_and_reads_back_bit_for_bit(self, tmp_path):
        cache = str(tmp_path / "cache")
        vector = CachedEmbedder(_DenseEmbedder(), "dense", cache).embed(CASE_001)
        assert vector == _dense_as_sparse(CASE_001)
        entry = (tmp_path / "cache" / f"{embedding.cache_key('dense', CASE_001)}.txt").read_text(encoding="ascii")
        assert len(base64.b64decode(entry)) == 12 * len(vector)
        read = CachedEmbedder(_Unreachable(), "dense", cache).embed(CASE_001)
        assert list(read) == list(vector)
        assert [x.hex() for x in read.values()] == [x.hex() for x in vector.values()]

    @given(st.dictionaries(st.integers(0, 2**32 - 1), st.floats(allow_nan=False).filter(bool), max_size=40))
    def test_pack_and_unpack_round_trip(self, vector):
        vector = dict(sorted(vector.items()))
        read = embedding.unpack(embedding.pack(vector))
        assert list(read.items()) == list(vector.items())
        assert [x.hex() for x in read.values()] == [x.hex() for x in vector.values()]

    @pytest.mark.parametrize(
        "entry",
        [
            "not base64!",
            base64.b64encode(bytes(11)).decode(),  # a length that is not a multiple of 12
            embedding.pack({1: 0.5, 2: 0.5})[:-4],  # cut short
            "\u00e9t\u00e9",  # UTF-8, not ASCII
        ],
        ids=["not-base64", "length", "cut-short", "not-ascii"],
    )
    def test_an_entry_that_is_not_a_packed_vector_is_a_miss_and_is_overwritten(self, tmp_path, entry):
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / f"{embedding.cache_key('digest', 'low mood')}.txt"
        path.write_text(entry, encoding="utf-8")
        assert embedding.unpack(entry) is None
        vector = CachedEmbedder(HashedTfEmbedder(), "digest", str(cache)).embed("low mood")
        assert vector == _dense_as_sparse("low mood")
        assert path.read_text(encoding="ascii") == embedding.pack(vector)

    def test_runner_caches_only_with_a_cache_dir(self, tmp_path):
        assert isinstance(runner.build_embedder(make_config()), HashedTfEmbedder)
        cached = runner.build_embedder(replace(make_config(), cache_dir=str(tmp_path)))
        assert isinstance(cached, CachedEmbedder)
        assert cached.identity == runner.source_digest()
        http = replace(make_config(), cache_dir=str(tmp_path), embedder="http", embedding_endpoint="http://e")
        assert runner.build_embedder(http).identity == http.embedding_model
