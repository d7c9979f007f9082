"""Exact small-sample statistics.

Everything here is closed-form or exact-combinatorial (no simulation):
Wilson score intervals for detection rates, exact two-sided McNemar on
discordant pairs, Fisher's exact test on 2x2 tables, and Fleiss' kappa for
inter-rater agreement.  Internal arithmetic uses rationals where exactness
matters; all APIs speak proportions, never percents.
"""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import NormalDist
from typing import Sequence, Tuple


class DegenerateCategories(Exception):
    """Fleiss' kappa is undefined: every rating falls in one category."""


def wilson_interval(successes: int, n: int, confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    denom = n + z * z
    center = (successes + z * z / 2.0) / denom
    half = z * math.sqrt(successes * (n - successes) / n + z * z / 4.0) / denom
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    return (lo, hi)


def mcnemar_exact(b: int, c: int) -> float:
    """Exact two-sided McNemar p-value on discordant pair counts.

    Convention: twice the smaller binomial tail at p=1/2, capped at 1.
    Returns 1.0 when there are no discordant pairs.
    """
    if b < 0 or c < 0:
        raise ValueError("counts must be nonnegative")
    n = b + c
    if n == 0:
        return 1.0
    m = min(b, c)
    tail = Fraction(sum(math.comb(n, i) for i in range(m + 1)), 2**n)
    return float(min(Fraction(1), 2 * tail))


def fisher_exact_2x2(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher exact p for the table [[a, b], [c, d]].

    Sums the hypergeometric probabilities of all tables (with the observed
    margins) no more probable than the observed one.  Exact rational
    arithmetic, so ties need no fuzz factor.
    """
    if min(a, b, c, d) < 0:
        raise ValueError("table entries must be nonnegative")
    row1, row2 = a + b, c + d
    col1 = a + c
    n = row1 + row2
    if n == 0:
        return 1.0
    total = math.comb(n, col1)

    def weight(x: int) -> Fraction:
        return Fraction(math.comb(row1, x) * math.comb(row2, col1 - x), total)

    lo = max(0, col1 - row2)
    hi = min(col1, row1)
    p_obs = weight(a)
    p = sum((w for x in range(lo, hi + 1) if (w := weight(x)) <= p_obs), Fraction(0))
    return float(min(Fraction(1), p))


def fleiss_kappa(labels: Sequence[Sequence[object]]) -> float:
    """Fleiss' kappa over an items x raters matrix of category labels.

    Requires at least two items and two raters with a constant rater count.
    Unanimous matrices (every item internally agreed, at least two
    categories used overall) score exactly 1.0.  A matrix whose every cell
    holds the same single category raises DegenerateCategories.
    """
    rows = [tuple(row) for row in labels]
    if len(rows) < 2:
        raise ValueError("need at least two items")
    r = len(rows[0])
    if r < 2:
        raise ValueError("need at least two raters")
    if any(len(row) != r for row in rows):
        raise ValueError("every item needs the same rater count")
    categories = sorted({str(cell) for row in rows for cell in row})
    if len(categories) < 2:
        raise DegenerateCategories(
            f"all ratings share the single category {categories[0]!r}"
        )
    n = len(rows)
    cat_index = {cat: j for j, cat in enumerate(categories)}
    counts = [[0] * len(categories) for _ in range(n)]
    for i, row in enumerate(rows):
        for cell in row:
            counts[i][cat_index[str(cell)]] += 1

    agree_sum = Fraction(0)
    for i in range(n):
        agree_sum += Fraction(sum(v * v for v in counts[i]) - r, r * (r - 1))
    p_bar = agree_sum / n

    col_totals = [sum(counts[i][j] for i in range(n)) for j in range(len(categories))]
    p_e = sum(Fraction(t, n * r) ** 2 for t in col_totals)

    if p_bar == 1:
        return 1.0
    return float((p_bar - p_e) / (1 - p_e))
