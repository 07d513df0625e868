"""Greedy cutting strategies and the adversarial families that expose them.

Both strategies decide at the end of each round, after all bamboos have
grown.  Tie rules are fixed so traces are reproducible: Reduce-Max prefers
the larger growth rate and then the lower index; Reduce-Fastest prefers the
lower index (rates are sorted, so that is also the largest-rate choice).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import RateVector, SimulationReport, frac, integer_weights, simulate_discrete


def reduce_max(rates: RateVector, horizon: int) -> tuple[list[int], SimulationReport]:
    """Cut the currently tallest bamboo each round.

    Returns the realized cut sequence and its exact report (initial and tail
    gaps included).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    w, _ = integer_weights(rates)
    last = [0] * rates.n  # round of the latest cut; bamboo i is (r - last[i]) * w[i] tall
    schedule = []
    for r in range(1, horizon + 1):
        heights = [(r - t_i) * w_i for t_i, w_i in zip(last, w)]
        # rates are sorted non-increasing, so the first tallest bamboo is also
        # the largest-rate one among the tallest
        best = heights.index(max(heights))
        last[best] = r
        schedule.append(best + 1)
    return schedule, simulate_discrete(rates, schedule)


def reduce_fastest(
    rates: RateVector, x, horizon: int
) -> tuple[list[int], SimulationReport]:
    """Cut the largest-rate bamboo among those of height >= x*H; idle if none.

    Idle rounds are recorded as index 0 in the returned sequence.
    """
    x = frac(x)
    if x <= 0:
        raise ValueError(f"threshold factor x must be positive, got {x}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    w, d = integer_weights(rates)
    # integer heights reach x*H*D exactly when they reach its ceiling
    scaled = x * rates.H * d
    threshold = -(-scaled.numerator // scaled.denominator)
    last = [0] * rates.n
    schedule = []
    for r in range(1, horizon + 1):
        cut = 0
        # rates are sorted non-increasing, so the first bamboo over the
        # threshold is the largest-rate (lowest-index) eligible one
        for i, (t_i, w_i) in enumerate(zip(last, w)):
            if (r - t_i) * w_i >= threshold:
                cut = i + 1
                last[i] = r
                break
        schedule.append(cut)
    return schedule, simulate_discrete(rates, schedule)


def diverging_bamboo(rates: RateVector, schedule: Sequence[int]) -> int | None:
    """Detect non-convergence in a finite trace.

    Returns the lowest index whose height at the horizon exceeds 4*H while
    still growing (it was not cut since), or None.  Used to certify the
    "grows to infinity" behaviour of Reduce-Fastest with x < 1.
    """
    last = [0] * (rates.n + 1)
    for r, c in enumerate(schedule, start=1):
        if c:
            last[c] = r
    horizon = len(schedule)
    w, _ = integer_weights(rates)
    bound = 4 * sum(w)  # 4H over the common denominator
    for i, w_i in enumerate(w, start=1):
        if (horizon - last[i]) * w_i > bound:
            return i
    return None


def gen_reduce_max_12_7_family(k: int) -> RateVector:
    """Adversarial family for Reduce-Max: one fast bamboo plus a slow crowd.

    With i = 7k+3, the rates are h_1 = 3k/i and i copies of 1/(2i).  Their
    sum is 3k/i + 1/2 < 1 on purpose; the family is compared against
    schedules of height <= 1, and under Reduce-Max b_1 climbs to exactly
    4*h_1 = 12/7 - 36/(7i) shortly after round 18k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    i = 7 * k + 3
    return RateVector([Fraction(3 * k, i)] + [Fraction(1, 2 * i)] * i)


def gen_reduce_fastest_lb(x, eps) -> RateVector:
    """Lower-bound instance for Reduce-Fastest(x), per threshold regime.

    x < 1: rates (x, eps) — the slow bamboo is never preferred and diverges.
    1 <= x < 2: h_1 = x/(2-x) - eps against two slow bamboos of rate 1/2,
        normalized to H = 1.  Then 2*h_1 < x*H <= 3*h_1, so b_1 waits three
        rounds between cuts and peaks at 3*h_1.  Before normalizing, OPT is
        2*h_1 when h_1 >= 1 (schedule 1,2,1,3), so max/OPT >= 3/2 once
        eps <= 2(x-1)/(2-x).  For 1 < x < 2 eps must lie within both x/4 and
        that limit, so every accepted instance has max/OPT >= 3/2.  At x = 1
        (only eps <= 1/4 is required) OPT is 2 and max/OPT = 3*h_1/2 tends to
        3/2 as eps shrinks.  Two slow bamboos keep the rates sorted at x = 1.
    x >= 2: rates (1 - eps, eps) — b_1 is cut every 3 rounds.
    """
    x = frac(x)
    eps = frac(eps)
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    if x < 1:
        hi = min(x, 1 - x)
        if not 0 < eps < hi:
            raise ValueError(f"for x={x} need 0 < eps < {hi}, got {eps}")
        return RateVector((x, eps))
    if x < 2:
        # eps <= x/4 keeps h_1 > 1/2 (sorted) and h_1 >= x/(3-x) (3h_1 >= x*H);
        # for x > 1, eps <= 2(x-1)/(2-x) keeps h_1 >= 1, so OPT = 2*h_1
        hi = x / 4 if x == 1 else min(x / 4, 2 * (x - 1) / (2 - x))
        if not 0 < eps <= hi:
            raise ValueError(f"for x={x} need 0 < eps <= {hi}, got {eps}")
        half = Fraction(1, 2)
        return RateVector((x / (2 - x) - eps, half, half)).normalized()
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError(f"for x={x} need 0 < eps <= 1/2, got {eps}")
    return RateVector((1 - eps, eps))
