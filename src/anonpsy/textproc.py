"""Small text helpers shared by several pipeline stages."""

from __future__ import annotations

import re

_WS = re.compile(r"\s+")
_SENTENCE_END = re.compile(r"(?<=[.!?])\s+(?=[A-Z\"'(])")
_TOKEN = re.compile(r"[a-z0-9]+")

_NUMBER_WORDS = (
    "zero", "one", "two", "three", "four", "five", "six",
    "seven", "eight", "nine", "ten", "eleven", "twelve",
)


def id_bytes(text: str) -> bytes:
    """The bytes text is hashed or seeded over: strict UTF-8, except that a lone
    surrogate, as a case id read from a directory name that is not UTF-8 holds,
    gives back its original byte."""
    return text.encode("utf-8", "surrogateescape")


def normalize_ws(text: str) -> str:
    return _WS.sub(" ", text).strip()


def contains_normalized(haystack: str, needle: str) -> bool:
    """Substring check insensitive to whitespace differences and case."""
    return normalize_ws(needle).lower() in normalize_ws(haystack).lower()


def split_sentences(text: str) -> list[str]:
    """Rough sentence split on terminal punctuation followed by a capital."""
    stripped = text.strip()
    if not stripped:
        return []
    return [s for s in _SENTENCE_END.split(stripped) if s.strip()]


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def trigram_jaccard(a: str, b: str) -> float:
    """Token-trigram Jaccard similarity with a unigram fallback for short texts."""
    ta, tb = tokenize(a), tokenize(b)
    ga = {tuple(ta[i : i + 3]) for i in range(len(ta) - 2)}
    gb = {tuple(tb[i : i + 3]) for i in range(len(tb) - 2)}
    if not ga or not gb:
        ga, gb = set(ta), set(tb)
    if not ga and not gb:
        return 1.0 if normalize_ws(a) == normalize_ws(b) else 0.0
    union = ga | gb
    if not union:
        return 0.0
    return len(ga & gb) / len(union)


def spell_number(n: int) -> str:
    """Numbers up to twelve spelled out, digits beyond."""
    if 0 <= n < len(_NUMBER_WORDS):
        return _NUMBER_WORDS[n]
    return str(n)
