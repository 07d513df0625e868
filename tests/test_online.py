"""Online heuristics: Reduce-Max, Reduce-Fastest, adversarial families."""

from fractions import Fraction as F

import pytest

from bgt import (
    RateVector,
    diverging_bamboo,
    gen_reduce_fastest_lb,
    gen_reduce_max_12_7_family,
    optimal_height,
    reduce_fastest,
    reduce_max,
)


def test_reduce_max_equal_rates_round_robin():
    rates = RateVector([F(1, 3)] * 3)
    schedule, rep = reduce_max(rates, 9)
    assert schedule == [1, 2, 3] * 3
    assert rep.global_max == 1


def test_reduce_max_tie_break_is_deterministic():
    # round 2 heights all equal 1/2: b1 wins on rate; round 3 b2/b3 tie on
    # rate as well, so the lower index is cut
    rates = RateVector([F(1, 2), F(1, 4), F(1, 4)])
    schedule, _ = reduce_max(rates, 4)
    assert schedule == [1, 1, 2, 1]


def test_12_7_family_peak_is_exactly_4_h1():
    k = 2
    rates = gen_reduce_max_12_7_family(k)
    i = 7 * k + 3
    assert rates.rate(1) == F(3 * k, i)
    assert rates.n == i + 1
    _, rep = reduce_max(rates, 18 * k + 6)
    assert rep.per_bamboo_max[0] == 4 * rates.rate(1) == F(12 * k, i)


def test_12_7_family_peak_round():
    k = 3
    rates = gen_reduce_max_12_7_family(k)
    schedule, rep = reduce_max(rates, 18 * k + 6)
    # the peak gap of b_1 closes at the end of the third stage
    assert rep.per_bamboo_max[0] == 4 * rates.rate(1)
    assert rep.argmax_bamboo == 1


def test_reduce_fastest_lower_bound_at_valid_eps():
    # x = 3/2, eps = 1/4: h_1 = x/(2-x) - eps = 11/4 against two slow 1/2,
    # normalized by H = 15/4; OPT = 2*h_1 = 22/15, Reduce-Fastest hits 3*h_1
    rates = gen_reduce_fastest_lb(F(3, 2), F(1, 4))
    assert rates.rates == (F(11, 15), F(2, 15), F(2, 15))
    opt, _ = optimal_height(rates)
    assert opt == F(22, 15)
    _, rep = reduce_fastest(rates, F(3, 2), 60)
    assert rep.global_max / opt == F(3, 2)


@pytest.mark.parametrize("x", [F(5, 4), F(3, 2), F(7, 4)])
@pytest.mark.parametrize("eps", [F(1, 16), F(1, 64)])
def test_reduce_fastest_lower_bound_holds_as_eps_shrinks(x, eps):
    rates = gen_reduce_fastest_lb(x, eps)
    opt, _ = optimal_height(rates)
    _, rep = reduce_fastest(rates, x, 400)
    assert rep.global_max / opt == F(3, 2)


@pytest.mark.parametrize("x", [F(17, 16), F(9, 8), F(5, 4), F(7, 4)])
def test_reduce_fastest_lower_bound_holds_at_the_largest_eps(x):
    eps = min(x / 4, 2 * (x - 1) / (2 - x))
    rates = gen_reduce_fastest_lb(x, eps)
    opt, _ = optimal_height(rates)
    _, rep = reduce_fastest(rates, x, 400)
    assert rep.global_max / opt >= F(3, 2)


def test_reduce_fastest_lower_bound_at_x_1():
    # h_1 = 15/16 against two slow 1/2 (H = 31/16): Reduce-Fastest realizes
    # 3*h_1 = 45/16; OPT is 2, since any cap below 2 needs densities
    # 1/2 + 1/3 + 1/3 > 1
    rates = gen_reduce_fastest_lb(1, F(1, 16))
    H = F(31, 16)
    assert rates.rates == (F(15, 16) / H, F(1, 2) / H, F(1, 2) / H)
    opt, _ = optimal_height(rates)
    assert opt == 2 / H
    _, rep = reduce_fastest(rates, 1, 400)
    assert rep.global_max == F(45, 16) / H
    assert rep.global_max / opt == F(45, 32)


def test_reduce_fastest_below_1_starves_the_slow_bamboo():
    rates = gen_reduce_fastest_lb(F(1, 2), F(1, 4))
    schedule, _ = reduce_fastest(rates, F(1, 2), 40)
    assert schedule == [1] * 40  # b_1 is always over threshold, b_2 never cut
    assert diverging_bamboo(rates, schedule) == 2


def test_reduce_fastest_idles_when_nothing_qualifies():
    rates = RateVector([F(1, 8), F(1, 8)])  # H = 1/4, threshold = 1/2
    schedule, _ = reduce_fastest(rates, 2, 6)
    assert schedule[0] == 0  # heights 1/8 < 1/2: idle first


def test_lb_family_eps_validation():
    with pytest.raises(ValueError):
        gen_reduce_fastest_lb(F(1, 2), F(1, 2))  # needs eps < min(x, 1-x)
    with pytest.raises(ValueError):
        gen_reduce_fastest_lb(F(3, 2), F(1, 2))  # needs eps <= x/4
    with pytest.raises(ValueError):
        # within x/4, but above 2(x-1)/(2-x) = 2/15: max/OPT would be 833/640
        gen_reduce_fastest_lb(F(17, 16), F(17, 64))
    with pytest.raises(ValueError):
        gen_reduce_fastest_lb(3, F(3, 4))  # needs eps <= 1/2
    assert gen_reduce_fastest_lb(3, F(1, 2)).rates == (F(1, 2), F(1, 2))


def test_diverging_bamboo_none_on_healthy_trace():
    rates = RateVector([F(1, 2), F(1, 4)])
    schedule, _ = reduce_max(rates, 40)
    assert diverging_bamboo(rates, schedule) is None


def _reference_reduce_max(rates, horizon):
    """Fraction ages loop: the tallest bamboo, then the larger rate, then the lower index."""
    h = rates.rates
    ages = [0] * rates.n
    schedule = []
    for _ in range(horizon):
        best = max(range(rates.n), key=lambda i: ((ages[i] + 1) * h[i], h[i], -i))
        ages = [a + 1 for a in ages]
        ages[best] = 0
        schedule.append(best + 1)
    return schedule


def _reference_reduce_fastest(rates, x, horizon):
    """Fraction ages loop: the lowest index at height >= x*H, or idle (0)."""
    h = rates.rates
    threshold = x * rates.H
    ages = [0] * rates.n
    schedule = []
    for _ in range(horizon):
        cut = next((i + 1 for i in range(rates.n) if (ages[i] + 1) * h[i] >= threshold), 0)
        ages = [a + 1 for a in ages]
        if cut:
            ages[cut - 1] = 0
        schedule.append(cut)
    return schedule


def _greedy_instances():
    import random

    rng = random.Random(11)
    yield from (gen_reduce_max_12_7_family(k) for k in range(1, 6))
    for _ in range(30):
        n = rng.randint(1, 7)
        # few distinct values, so equal rates and equal heights both occur
        den = rng.choice([4, 6, 12, 35])
        yield RateVector.sorted_from([F(rng.randint(1, 6), den) for _ in range(n)])


@pytest.mark.parametrize("rates", list(_greedy_instances()))
def test_integer_greedy_loops_match_fraction_reference(rates):
    horizon = 4 * rates.n + 20
    assert reduce_max(rates, horizon)[0] == _reference_reduce_max(rates, horizon)
    for x in (F(1, 2), F(1), F(7, 6), F(3, 2), F(2), F(5, 2)):
        assert reduce_fastest(rates, x, horizon)[0] == _reference_reduce_fastest(rates, x, horizon)
