import math
import random
from fractions import Fraction

import pytest
from scipy import stats as sps

from anonpsy.evaluation.stats import (
    _chi2_sf,
    binomial_test,
    cochran_q,
    friedman,
    holm_correct,
    mann_whitney_u,
    mcnemar,
    midranks,
    wilcoxon_signed_rank,
)

from .helpers import binomial_oracle, mcnemar_enum_oracle, wilcoxon_enum_oracle


class TestMidranks:
    def test_plain_ranks(self):
        assert midranks([10.0, 30.0, 20.0]) == [1.0, 3.0, 2.0]

    def test_ties_share_midrank(self):
        assert midranks([5.0, 5.0, 1.0]) == [2.5, 2.5, 1.0]


class TestWilcoxon:
    def test_all_zero_differences_degenerate(self):
        result = wilcoxon_signed_rank([(1.0, 1.0), (2.0, 2.0)])
        assert result.degenerate
        assert (result.statistic, result.p_value) == (0.0, 1.0)

    def test_five_positive_differences_exact(self):
        pairs = [(i + 1.0, 0.0) for i in range(5)]
        result = wilcoxon_signed_rank(pairs, alternative="greater")
        assert result.statistic == 15.0
        assert result.p_value == 1.0 / 32.0

    def test_one_sided_mirror_symmetry(self):
        rng = random.Random(3)
        diffs = [rng.uniform(-3, 3) for _ in range(8)]
        pairs = [(d, 0.0) for d in diffs]
        mirrored = [(-d, 0.0) for d in diffs]
        p_less = wilcoxon_signed_rank(pairs, alternative="less").p_value
        p_greater = wilcoxon_signed_rank(mirrored, alternative="greater").p_value
        assert p_less == pytest.approx(p_greater, abs=1e-12)

    @pytest.mark.parametrize("alternative", ["two_sided", "less", "greater"])
    def test_exact_matches_enumeration_oracle(self, alternative):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(1, 10)
            diffs = []
            for _ in range(n):
                d = rng.choice([-3, -2, -1, 1, 2, 3]) * rng.choice([0.5, 1.0, 1.5])
                diffs.append(d)
            pairs = [(d, 0.0) for d in diffs]
            result = wilcoxon_signed_rank(pairs, alternative=alternative)
            w_oracle, p_oracle = wilcoxon_enum_oracle(diffs, alternative)
            assert result.statistic == pytest.approx(w_oracle, abs=1e-12)
            assert result.p_value == pytest.approx(p_oracle, abs=1e-12)

    def test_large_sample_uses_normal_approximation(self):
        rng = random.Random(5)
        pairs = [(rng.gauss(0.3, 1.0), 0.0) for _ in range(60)]
        result = wilcoxon_signed_rank(pairs)
        assert result.method == "approx"
        ref = sps.wilcoxon(
            [a - b for a, b in pairs], correction=True, alternative="two-sided", mode="approx"
        )
        assert result.p_value == pytest.approx(ref.pvalue, rel=1e-6)


class TestMannWhitney:
    def test_matches_scipy_asymptotic(self):
        rng = random.Random(11)
        for _ in range(25):
            a = [rng.gauss(0, 1) for _ in range(rng.randint(3, 12))]
            b = [rng.gauss(0.5, 1) for _ in range(rng.randint(3, 12))]
            result = mann_whitney_u(a, b)
            ref = sps.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
            assert result.statistic == pytest.approx(ref.statistic, abs=1e-9)
            assert result.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])


class TestBinomial:
    def test_exact_against_rational_oracle(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(1, 30)
            k = rng.randint(0, n)
            p0 = rng.choice([Fraction(1, 2), Fraction(1, 4), Fraction(3, 10)])
            for alternative in ("two_sided", "less", "greater"):
                got = binomial_test(k, n, float(p0), alternative=alternative)
                expected = float(binomial_oracle(k, n, p0, alternative))
                assert got == pytest.approx(expected, abs=1e-12)

    def test_41_of_50_is_far_below_threshold(self):
        p = binomial_test(41, 50, 0.5)
        assert p == pytest.approx(float(binomial_oracle(41, 50, Fraction(1, 2))), abs=1e-15)
        assert p < 0.001

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            binomial_test(5, 4, 0.5)
        with pytest.raises(ValueError):
            binomial_test(1, 4, 0.0)


class TestMcNemar:
    def test_no_discordant_pairs(self):
        assert mcnemar(0, 0) == 1.0

    def test_matches_enumeration_oracle(self):
        rng = random.Random(31)
        for _ in range(50):
            b = rng.randint(0, 8)
            c = rng.randint(0, 8)
            assert mcnemar(b, c) == pytest.approx(mcnemar_enum_oracle(b, c), abs=1e-12)

    def test_symmetry(self):
        assert mcnemar(2, 7) == mcnemar(7, 2)


class TestChi2Sf:
    # 0 and below, the tiny and the moderate, the 5 % critical value for df 1,
    # tails near 1e-300 and past the underflow to 0.
    GRID = [-5.0, -1e-9, 0.0, 1e-12, 1e-6, 0.01, 0.5, 1.0, 2.0, 3.841458820694124, 7.5,
            15.0, 30.0, 60.0, 120.0, 250.0, 500.0, 1000.0, 1300.0, 1380.0, 1420.0, 1450.0,
            2000.0, 1e5]

    # df 20 and 40 put exp(-x/2) below the smallest normal float where the tail is
    # still above 1e-300.
    @pytest.mark.parametrize("df", [*range(1, 12), 20, 40])
    def test_matches_scipy(self, df):
        rng = random.Random(100 + df)
        draws = [rng.expovariate(1 / rng.choice([1, 10, 100, 1000])) for _ in range(300)]
        for x in self.GRID + draws:
            ours, ref = _chi2_sf(x, df), float(sps.chi2.sf(x, df))
            if ref > 1e-300:
                assert abs(ours - ref) <= 1e-12 * ref, (x, ours, ref)
            assert round(ours, 6) == round(ref, 6), (x, ours, ref)
        assert _chi2_sf(2000.0, df) == 0.0 == sps.chi2.sf(2000.0, df)

    @pytest.mark.parametrize("x", [1e-12, 0.3, 1.0, 7.0, 40.0, 600.0])
    def test_df_2_is_exponential(self, x):
        assert _chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-14)

    def test_df_1_critical_value(self):
        assert _chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("df", [0, -1, 1.5, 2.0])
    def test_df_must_be_positive_int(self, df):
        with pytest.raises(ValueError, match="df must be an int >= 1"):
            _chi2_sf(1.0, df)


class TestCochranQ:
    def test_identical_columns_give_zero(self):
        table = [[True, True], [False, False], [True, True]]
        result = cochran_q(table)
        assert result.statistic == 0.0 and result.p_value == 1.0

    def test_matches_statsmodels(self):
        statsmodels = pytest.importorskip("statsmodels.stats.contingency_tables")
        rng = random.Random(41)
        for _ in range(20):
            n, k = rng.randint(4, 12), rng.randint(2, 4)
            table = [[rng.random() < 0.6 for _ in range(k)] for _ in range(n)]
            result = cochran_q(table)
            ref = statsmodels.cochrans_q([[1 if v else 0 for v in row] for row in table], return_object=True)
            if result.degenerate:
                continue
            assert result.statistic == pytest.approx(ref.statistic, abs=1e-9)
            assert result.p_value == pytest.approx(ref.pvalue, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_p_value_matches_scipy_chi2(self, k):
        rng = random.Random(60 + k)
        checked = 0
        for _ in range(30):
            table = [[rng.random() < 0.6 for _ in range(k)] for _ in range(rng.randint(4, 20))]
            result = cochran_q(table)
            if result.degenerate:
                continue
            assert result.p_value == pytest.approx(sps.chi2.sf(result.statistic, k - 1), rel=1e-12)
            checked += 1
        assert checked >= 20

    def test_rejects_ragged_table(self):
        with pytest.raises(ValueError):
            cochran_q([[True, False], [True]])


class TestFriedman:
    def test_matches_scipy(self):
        rng = random.Random(47)
        for _ in range(20):
            n, k = rng.randint(4, 12), rng.randint(3, 5)
            table = [[rng.gauss(j * 0.2, 1.0) for j in range(k)] for _ in range(n)]
            result = friedman(table)
            ref = sps.friedmanchisquare(*[[row[j] for row in table] for j in range(k)])
            assert result.statistic == pytest.approx(ref.statistic, rel=1e-9)
            assert result.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_constant_rows_degenerate(self):
        result = friedman([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        assert result.degenerate and result.p_value == 1.0


class TestHolm:
    def test_adjusted_never_below_raw_and_monotone(self):
        rng = random.Random(53)
        for _ in range(100):
            pvals = [rng.random() for _ in range(rng.randint(1, 12))]
            adjusted = holm_correct(pvals)
            assert all(a >= p - 1e-15 for a, p in zip(adjusted, pvals))
            order = sorted(range(len(pvals)), key=lambda i: pvals[i])
            ranked = [adjusted[i] for i in order]
            assert ranked == sorted(ranked)
            assert all(0.0 <= a <= 1.0 for a in adjusted)

    def test_known_example(self):
        assert holm_correct([0.01, 0.04, 0.03]) == [
            pytest.approx(0.03),
            pytest.approx(0.06),
            pytest.approx(0.06),
        ]

    def test_empty_input(self):
        assert holm_correct([]) == []
