"""Nonparametric statistics with exact small-sample computation.

Wilcoxon signed-rank p-values are exact (enumeration over sign assignments,
mid-rank ties) up to n = 25 and normal-approximated with tie and continuity
corrections beyond. McNemar and binomial tests are exact throughout. The
chi-square tail behind Cochran's Q and Friedman is the closed form for an
integer df (`_chi2_sf`), built on `math` alone. Everything is computed here so
it can be cross-validated against independent enumeration oracles and
reference implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EXACT_WILCOXON_LIMIT = 25

ALTERNATIVES = ("two_sided", "less", "greater")


@dataclass(frozen=True)
class TestOutcome:
    statistic: float
    p_value: float
    method: str
    degenerate: bool = False

    def __iter__(self):
        return iter((self.statistic, self.p_value))


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X ~ chi-square with an integer df, in closed form.

    Even df: exp(-x/2) * sum_{i < df/2} (x/2)^i / i!.
    Odd df: erfc(sqrt(x/2)) + exp(-x/2) * sum_{i < (df-1)/2} (x/2)^(i+1/2) / Gamma(i+3/2).
    """
    if not isinstance(df, int) or df < 1:
        raise ValueError(f"df must be an int >= 1, got {df!r}")
    if x <= 0:
        return 1.0
    h = x / 2.0
    if df % 2:
        tail, term, offset = math.erfc(math.sqrt(h)), 2.0 * math.sqrt(h / math.pi), 1.5
    else:
        tail, term, offset = 0.0, 1.0, 1.0
    total = 0.0
    for i in range(df // 2):
        total += term
        term *= h / (i + offset)
    # exp(-h) applied in two halves stays a normal float for tails down to ~1e-300.
    half = math.exp(-h / 2.0)
    return tail + total * half * half


def midranks(values: list[float]) -> list[float]:
    """Ranks 1..n with tied values sharing their mid-rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


def _check_alternative(alternative: str) -> None:
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}, got {alternative!r}")


def wilcoxon_signed_rank(
    pairs: list[tuple[float, float]], alternative: str = "two_sided"
) -> TestOutcome:
    """Signed-rank test on paired observations; statistic is W+ (positive-rank sum).

    Differences of zero are dropped. With every difference zero the result is
    the defined degenerate outcome (W=0, p=1).
    """
    _check_alternative(alternative)
    diffs = [a - b for a, b in pairs if a != b]
    if not diffs:
        return TestOutcome(0.0, 1.0, "degenerate", degenerate=True)
    n = len(diffs)
    ranks = midranks([abs(d) for d in diffs])
    w_pos = sum(r for d, r in zip(diffs, ranks) if d > 0)

    if n <= EXACT_WILCOXON_LIMIT:
        p = _wilcoxon_exact_p(ranks, w_pos, alternative)
        return TestOutcome(w_pos, p, "exact")

    mean = n * (n + 1) / 4.0
    tie_counts = _tie_counts([abs(d) for d in diffs])
    variance = n * (n + 1) * (2 * n + 1) / 24.0 - sum(t**3 - t for t in tie_counts) / 48.0
    if variance <= 0:
        return TestOutcome(w_pos, 1.0, "approx", degenerate=True)
    sd = math.sqrt(variance)
    if alternative == "greater":
        p = _normal_sf((w_pos - mean - 0.5) / sd)
    elif alternative == "less":
        p = _normal_sf((mean - w_pos - 0.5) / sd)
    else:
        z = (abs(w_pos - mean) - 0.5) / sd
        p = min(1.0, 2.0 * _normal_sf(z))
    return TestOutcome(w_pos, p, "approx")


def _tie_counts(values: list[float]) -> list[int]:
    counts: dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return [c for c in counts.values() if c > 1]


def _wilcoxon_exact_p(ranks: list[float], w_obs: float, alternative: str) -> float:
    """Exact distribution of W+ by dynamic programming over doubled ranks.

    Mid-ranks are multiples of 0.5, so doubling makes every achievable sum an
    integer; the DP enumerates all 2^n sign assignments implicitly.
    """
    scaled = [int(round(2 * r)) for r in ranks]
    total = sum(scaled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in scaled:
        for s in range(total, r - 1, -1):
            counts[s] += counts[s - r]
    denom = 2 ** len(ranks)
    w2 = int(round(2 * w_obs))
    p_greater = sum(counts[w2:]) / denom
    p_less = sum(counts[: w2 + 1]) / denom
    if alternative == "greater":
        return p_greater
    if alternative == "less":
        return p_less
    return min(1.0, 2.0 * min(p_greater, p_less))


def mann_whitney_u(
    a: list[float], b: list[float], alternative: str = "two_sided"
) -> TestOutcome:
    """Rank-sum test; statistic is U for the first sample. Normal approximation
    with tie and continuity corrections."""
    _check_alternative(alternative)
    if not a or not b:
        raise ValueError("both samples must be nonempty")
    n1, n2 = len(a), len(b)
    combined = list(a) + list(b)
    ranks = midranks(combined)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mean = n1 * n2 / 2.0
    n = n1 + n2
    tie_term = sum(t**3 - t for t in _tie_counts(combined))
    variance = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        return TestOutcome(u1, 1.0, "approx", degenerate=True)
    sd = math.sqrt(variance)
    if alternative == "greater":
        p = _normal_sf((u1 - mean - 0.5) / sd)
    elif alternative == "less":
        p = _normal_sf((mean - u1 - 0.5) / sd)
    else:
        z = (abs(u1 - mean) - 0.5) / sd
        p = min(1.0, 2.0 * _normal_sf(max(z, 0.0)))
    return TestOutcome(u1, p, "approx")


def binomial_test(k: int, n: int, p0: float, alternative: str = "two_sided") -> float:
    """Exact binomial test p-value by direct summation of the pmf."""
    _check_alternative(alternative)
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"p0 must be in (0, 1), got {p0}")

    def pmf(i: int) -> float:
        return math.comb(n, i) * (p0**i) * ((1.0 - p0) ** (n - i))

    if alternative == "greater":
        return min(1.0, sum(pmf(i) for i in range(k, n + 1)))
    if alternative == "less":
        return min(1.0, sum(pmf(i) for i in range(0, k + 1)))
    # Two-sided: total mass of outcomes no more likely than the observed one.
    observed = pmf(k)
    total = sum(p for p in (pmf(i) for i in range(n + 1)) if p <= observed * (1 + 1e-7))
    return min(1.0, total)


def mcnemar(b_count: int, c_count: int) -> float:
    """Exact McNemar test on discordant-pair counts.

    p = 2 * P(X <= min(b, c)) with X ~ Binomial(b + c, 1/2), capped at 1.
    No discordant pairs gives p = 1.
    """
    if b_count < 0 or c_count < 0:
        raise ValueError("counts must be nonnegative")
    n = b_count + c_count
    if n == 0:
        return 1.0
    m = min(b_count, c_count)
    tail = sum(math.comb(n, i) for i in range(m + 1))
    return min(1.0, 2.0 * tail / 2**n)


def cochran_q(table: list[list[bool]]) -> TestOutcome:
    """Cochran's Q over an n x k table of binary outcomes (chi-square asymptotics)."""
    if not table or not table[0]:
        raise ValueError("table must be nonempty")
    k = len(table[0])
    if k < 2 or any(len(row) != k for row in table):
        raise ValueError("table must be rectangular with k >= 2 columns")
    rows = [[1 if v else 0 for v in row] for row in table]
    col_totals = [sum(row[j] for row in rows) for j in range(k)]
    row_totals = [sum(row) for row in rows]
    grand = sum(row_totals)
    numerator = (k - 1) * (k * sum(c * c for c in col_totals) - grand * grand)
    denominator = k * grand - sum(r * r for r in row_totals)
    if denominator == 0:
        return TestOutcome(0.0, 1.0, "chi2", degenerate=True)
    q = numerator / denominator
    p = _chi2_sf(q, k - 1)
    return TestOutcome(q, p, "chi2")


def friedman(table: list[list[float]]) -> TestOutcome:
    """Friedman chi-square over an n x k table with mid-rank tie correction."""
    if not table or not table[0]:
        raise ValueError("table must be nonempty")
    k = len(table[0])
    n = len(table)
    if k < 2 or any(len(row) != k for row in table):
        raise ValueError("table must be rectangular with k >= 2 columns")
    rank_sums = [0.0] * k
    tie_sum = 0
    for row in table:
        ranks = midranks(list(row))
        for j, r in enumerate(ranks):
            rank_sums[j] += r
        tie_sum += sum(t**3 - t for t in _tie_counts(list(row)))
    correction = 1.0 - tie_sum / (n * k * (k * k - 1))
    if correction <= 0:
        return TestOutcome(0.0, 1.0, "chi2", degenerate=True)
    ssbn = sum(s * s for s in rank_sums)
    statistic = ((12.0 / (n * k * (k + 1))) * ssbn - 3.0 * n * (k + 1)) / correction
    p = _chi2_sf(statistic, k - 1)
    return TestOutcome(statistic, p, "chi2")


def holm_correct(pvals: list[float]) -> list[float]:
    """Holm step-down adjusted p-values, in the input order.

    Monotone and order-preserving: adjusted values never fall below raw ones.
    """
    m = len(pvals)
    if m == 0:
        return []
    order = sorted(range(m), key=lambda i: pvals[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * pvals[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted
