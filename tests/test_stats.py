"""Exact statistics: frozen golden values, scipy cross-checks, properties.

scipy appears here only as an independent second route; the library itself
never imports it.
"""

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from noether.stats import (
    DegenerateCategories,
    fisher_exact_2x2,
    fleiss_kappa,
    mcnemar_exact,
    wilson_interval,
)
from noether.zoo import fixture_text


class TestWilson:
    # frozen golden values, computed by hand from the score formula first
    @pytest.mark.parametrize(
        "successes,n,lo,hi,tol",
        [
            (7, 20, 0.1812, 0.5671, 5e-3),
            (26, 52, 0.36886, 0.63114, 1e-3),
            (0, 5, 0.0, 0.4345, 1e-3),
        ],
    )
    def test_golden_intervals(self, successes, n, lo, hi, tol):
        got_lo, got_hi = wilson_interval(successes, n)
        assert got_lo == pytest.approx(lo, abs=tol)
        assert got_hi == pytest.approx(hi, abs=tol)

    @given(st.integers(0, 200), st.integers(1, 200))
    def test_interval_brackets_the_point_estimate(self, successes, n):
        successes = min(successes, n)
        lo, hi = wilson_interval(successes, n)
        # one ulp of slack: hi lands a hair under 1.0 when successes == n
        assert 0.0 <= lo <= successes / n <= hi + 1e-12 and hi <= 1.0

    @given(st.integers(1, 60), st.integers(1, 10))
    def test_width_shrinks_with_n_at_fixed_rate(self, n, factor):
        successes = n // 2
        lo1, hi1 = wilson_interval(successes, n)
        lo2, hi2 = wilson_interval(successes * factor, n * factor)
        assert hi2 - lo2 <= hi1 - lo1 + 1e-12

    def test_pre_violations_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(1, 2, confidence=1.0)


class TestMcNemar:
    @pytest.mark.parametrize(
        "b,c,expected,tol",
        [(15, 4, 0.019211, 1e-3), (18, 4, 0.004344, 5e-4), (2, 0, 0.5, 0.0)],
    )
    def test_golden_p_values(self, b, c, expected, tol):
        assert mcnemar_exact(b, c) == pytest.approx(expected, abs=tol or 1e-15)

    def test_no_discordance_gives_p_one(self):
        assert mcnemar_exact(0, 0) == 1.0

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_symmetry(self, b, c):
        assert mcnemar_exact(b, c) == pytest.approx(mcnemar_exact(c, b), abs=1e-15)

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_matches_binomial_two_sided_min_tail(self, b, c):
        # independent route: binomial test on the discordant pairs
        n = b + c
        if n == 0:
            assert mcnemar_exact(b, c) == 1.0
            return
        expected = scipy.stats.binomtest(min(b, c), n, 0.5, alternative="two-sided").pvalue
        got = mcnemar_exact(b, c)
        # conventions differ: ours is 2*min-tail capped at 1, scipy prunes
        # equal-probability outcomes; they agree whenever b != c
        if b != c:
            cap = min(1.0, 2.0 * scipy.stats.binom.cdf(min(b, c), n, 0.5))
            assert got == pytest.approx(cap, rel=1e-12)
            assert got >= expected - 1e-12
        assert 0.0 < got <= 1.0


class TestFisher:
    @pytest.mark.parametrize(
        "table,expected,tol",
        [((7, 13, 0, 20), 0.008316, 1e-3), ((2, 3, 0, 5), 0.444444, 1e-3), ((0, 0, 0, 0), 1.0, 0.0)],
    )
    def test_golden_p_values(self, table, expected, tol):
        assert fisher_exact_2x2(*table) == pytest.approx(expected, abs=tol or 1e-15)

    @given(st.integers(0, 25), st.integers(0, 25), st.integers(0, 25), st.integers(0, 25))
    @settings(max_examples=60)
    def test_matches_scipy_and_swap_invariance(self, a, b, c, d):
        got = fisher_exact_2x2(a, b, c, d)
        expected = scipy.stats.fisher_exact([[a, b], [c, d]], alternative="two-sided")[1]
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert got == pytest.approx(fisher_exact_2x2(c, d, a, b), abs=1e-12)  # row swap
        assert got == pytest.approx(fisher_exact_2x2(b, a, d, c), abs=1e-12)  # column swap


class TestFleiss:
    def test_bundled_audit_matrix(self):
        rows = [
            line.split("\t")
            for line in fixture_text("fleiss_audit.tsv").splitlines()
            if line.strip()
        ]
        assert len(rows) == 18 and all(len(r) == 3 for r in rows)
        assert fleiss_kappa(rows) == pytest.approx(0.857, abs=1e-3)

    def test_unanimous_matrix_is_one(self):
        assert fleiss_kappa([["a", "a", "a"]] * 6 + [["b", "b", "b"]] * 6) == pytest.approx(1.0)

    def test_degenerate_single_category_rejected(self):
        with pytest.raises(DegenerateCategories):
            fleiss_kappa([["x", "x"], ["x", "x"]])

    def test_random_labels_near_zero(self):
        import random

        rng = random.Random(11)
        rows = [[rng.choice("abcd") for _ in range(2)] for _ in range(4000)]
        assert abs(fleiss_kappa(rows)) < 0.05

    def test_shape_preconditions(self):
        with pytest.raises(ValueError):
            fleiss_kappa([["a", "b"]])  # one item
        with pytest.raises(ValueError):
            fleiss_kappa([["a"], ["b"]])  # one rater
