"""Range-preserving substitution of numeric test results.

Numbers matched to a canonical test are resampled inside their clinical band,
never reproducing the original value; everything around the digits stays
byte-identical. Unmatched numbers are left alone.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace

from ..model import CaseAttributes, TEST_RESULT_KEYS
from .config import TestValuePool


def _pattern_for(pool: TestValuePool) -> re.Pattern[str]:
    aliases = sorted(pool.aliases, key=len, reverse=True)
    group = "|".join(re.escape(a) for a in aliases)
    # Alias, then a short non-numeric bridge ("score of", ":", "was"), then digits.
    return re.compile(rf"(?i)\b(?:{group})\b[^0-9\n]{{0,40}}?(\d+)\b")


def _resample(low: int, high: int, original: int, rng: random.Random) -> int:
    value = original
    while value == original:
        value = rng.randint(low, high)
    return value


def perturb_test_values(
    attrs: CaseAttributes,
    inventory: list[TestValuePool],
    rng: random.Random,
) -> tuple[CaseAttributes, list[dict]]:
    audits: list[dict] = []
    new_results = dict(attrs.test_results)
    patterns = [(pool, _pattern_for(pool)) for pool in inventory]

    for field_name in TEST_RESULT_KEYS:
        text = new_results.get(field_name, "")
        if not text:
            continue
        # Collect matches first so replacement offsets stay valid.
        found = [
            (pool, match, pool.band_for(int(match.group(1))))
            for pool, pattern in patterns
            for match in pattern.finditer(text)
        ]
        # Two pools' patterns can reach one number. It is edited, or flagged, once: by the pool whose alias
        # stands nearest before it among those whose bands hold it, else among all; the earlier pool wins a
        # tie. The rest are skipped in place, so draws keep their pool-major order.
        owner: dict[int, tuple[bool, int, int]] = {}
        for index, (_, match, band) in enumerate(found):
            rank = (band is not None, match.start(), -index)
            owner[match.start(1)] = max(owner.get(match.start(1), rank), rank)
        edits: list[tuple[int, int, str]] = []
        for index, (pool, match, band) in enumerate(found):
            if owner[match.start(1)][2] != -index:
                continue
            original = int(match.group(1))
            if band is None:
                audits.append(
                    {
                        "step": "test_value",
                        "field": field_name,
                        "test": pool.canonical_test,
                        "value": original,
                        "flagged": "outside all pools; unchanged",
                    }
                )
                continue
            low, high, label = band
            new_value = _resample(low, high, original, rng)
            edits.append((match.start(1), match.end(1), str(new_value)))
            audits.append(
                {
                    "step": "test_value",
                    "field": field_name,
                    "test": pool.canonical_test,
                    "band": label,
                    "original": original,
                    "new": new_value,
                }
            )
        for start, end, replacement in sorted(edits, reverse=True):
            text = text[:start] + replacement + text[end:]
        new_results[field_name] = text

    return replace(attrs, test_results=new_results), audits
