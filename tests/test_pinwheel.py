"""Pinwheel rounding: sqrt_upper, the frequency forest, and the schedulers."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction as F
from math import isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgt import (
    CertificateError,
    MainDiagnostics,
    RateVector,
    ResidueSchedule,
    ScheduleError,
    SimulationReport,
    density,
    density_34_frequencies,
    evaluate_cyclic,
    gen_integer_frequencies,
    gen_planted_head,
    main_algorithm,
    next_cuts_stream,
    pinwheel_feasible,
    pinwheel_witness,
    schedule_powers_of_two,
    sqrt_upper,
    two_approx,
    validate_residue,
)
from bgt import core, pinwheel
from bgt.core import integer_weights
from bgt.pinwheel import FrequencyForest, _allocate_dyadic, _dyadic_schedule, _merge, _push_down
from conftest import _run_under_O

ONE_PLUS = F(1 << 30 | 1, 1 << 30)  # relative slack guaranteed by sqrt_upper


@given(st.fractions(min_value=F(1, 10**6), max_value=10**6))
def test_sqrt_upper_brackets_the_root(x):
    s = sqrt_upper(x)
    assert s * s >= x
    assert (s / ONE_PLUS) ** 2 <= x


def test_sqrt_upper_is_a_strict_upper_bound_near_squares():
    s = sqrt_upper(F(9, 4))
    assert F(3, 2) <= s <= F(3, 2) * ONE_PLUS
    assert sqrt_upper(4) >= 2


def test_density():
    assert density([2, 4, 4]) == 1
    assert density([3, 7, 7]) == F(13, 21)


def test_allocator_frozen_trace():
    sched = schedule_powers_of_two([2, 4, 8, 8])
    assert sched.pairs == ((1, 2), (2, 4), (4, 8), (8, 8))
    assert list(itertools.islice(next_cuts_stream(sched), 8)) == [1, 2, 1, 3, 1, 2, 1, 4]
    validate_residue(sched)


def _reference_allocate_dyadic(freqs):
    """The allocator as a scan of every free class for the largest modulus <= f."""
    order = sorted(range(len(freqs)), key=lambda i: (freqs[i], i))
    free = {1: 0}
    out = [0] * len(freqs)
    for i in order:
        f = freqs[i]
        m = 0
        for mm in free:
            if m < mm <= f:
                m = mm
        assert m, "starved"
        a = free.pop(m)
        while m < f:
            assert 2 * m not in free
            free[2 * m] = a + m
            m *= 2
        out[i] = a
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=80))
def test_allocate_dyadic_matches_the_scanning_reference(exponents):
    # powers of two in the drawn order, kept while their density stays <= 1
    freqs, room = [], 1 << 10
    for e in exponents:
        if 1 << (10 - e) <= room:
            freqs.append(1 << e)
            room -= 1 << (10 - e)
    assert _allocate_dyadic(freqs) == _reference_allocate_dyadic(freqs)


def test_stream_detects_collisions_behind_a_false_certificate():
    bad = ResidueSchedule(((1, 2), (1, 2)))
    stream = next_cuts_stream(bad)
    next(stream)
    with pytest.raises(ScheduleError):
        next(stream)


def test_main_uniform16_frozen():
    rates = RateVector([F(1, 16)] * 16)
    sched, diag = main_algorithm(rates)
    qs = Counter(q for _, q in sched.pairs)
    assert qs == {28: 14, 16: 2}
    assert sched.pairs[:4] == ((1, 28), (5, 28), (9, 28), (13, 28))
    assert diag.final_density == F(5, 8)
    assert diag.obs1_count == 0
    assert diag.obs2_count == 2
    assert diag.realized_max == F(7, 4)
    assert evaluate_cyclic(rates, sched).global_max == F(7, 4)
    assert diag.realized_max <= diag.bound


def test_main_two_equal_bamboos():
    rates = RateVector([F(1, 2), F(1, 2)])
    sched, diag = main_algorithm(rates)
    assert sched.pairs == ((1, 4), (3, 4))
    assert diag.realized_max == 2


def test_main_dominant_head():
    rates = RateVector([F(3, 4), F(1, 8), F(1, 8)])
    sched, diag = main_algorithm(rates)
    assert tuple(q for _, q in sched.pairs) == (4, 16, 16)
    assert diag.realized_max == 3
    assert diag.realized_max <= diag.bound


def test_main_random_planted_instances_meet_certified_bound():
    for seed in range(20):
        rates = gen_planted_head(6 + seed, F(1, 4), seed)
        sched, diag = main_algorithm(rates)
        rep = evaluate_cyclic(rates, sched)
        assert rep.global_max == diag.realized_max
        assert rep.global_max <= diag.bound


def test_two_approx_frozen():
    rates = RateVector([F(1, 2), F(1, 4), F(1, 4)])
    sched = two_approx(rates)
    assert sched.pairs == ((1, 4), (3, 8), (7, 8))
    rep = evaluate_cyclic(rates, sched)
    assert rep.global_max == 2  # == 2 * H


def test_density_34_frequencies_frozen():
    rates = RateVector([F(1, 2), F(1, 4), F(1, 4)])
    freqs = density_34_frequencies(rates)
    assert freqs == [3, 7, 7]
    assert density(freqs) == F(13, 21) <= F(3, 4)


@settings(deadline=None)
@given(st.integers(0, 2**32))
def test_density_34_random_rates_stay_under_three_quarters(seed):
    rates = gen_planted_head(40, F(1, 8), seed)
    freqs = density_34_frequencies(rates)
    assert density(freqs) <= F(3, 4)
    assert all(F(1, f) <= r for f, r in zip(freqs, rates.rates))


def test_gen_integer_frequencies_margin_and_determinism():
    for f1 in (64, 256, 1024):
        freqs = gen_integer_frequencies(f1, seed=7)
        assert min(freqs) == f1 == freqs[0]
        assert density(freqs) <= 1 - F(3, isqrt(f1))
    assert gen_integer_frequencies(64, seed=7) == gen_integer_frequencies(64, seed=7)
    assert gen_integer_frequencies(64, seed=7) != gen_integer_frequencies(64, seed=8)


def test_gen_integer_frequencies_rejects_tiny_head():
    with pytest.raises(ValueError):
        gen_integer_frequencies(9, seed=0)


# --- the integer paths against the Fraction bodies they replaced -----------
# Each `_reference_*` is the Fraction body that main_algorithm (with its
# one-merge-at-a-time Observation 1/2 steps), two_approx and the residue path
# of evaluate_cyclic ran before they moved to integer weights over the common
# denominator.  Schedules, diagnostics and reports must agree in full repr.


def _reference_density(freqs):
    return sum((F(1, f) for f in freqs), F(0))


def _reference_forest_density(forest):
    total = F(0)
    for (k, j), nodes in forest.buckets.items():
        for _ in nodes:
            total += F(1, forest.grid_freq(k, j))
    for _, f in forest.powers:
        total += F(1, f)
    return total


def _reference_observation1_merge(forest, layer, group):
    nodes = forest.buckets.get((layer, group))
    f = forest.grid_freq(layer, group)
    merged = (nodes[0], nodes[1])
    del nodes[:2]
    assert F(1, f) + F(1, f) == F(1, f // 2)
    forest.buckets.setdefault((layer - 1, group), []).append(merged)
    forest.obs1_count += 1


def _reference_observation2_merge(forest, layer, group):
    m = forest.C + group
    nodes = forest.buckets.get((layer, group))
    f = forest.grid_freq(layer, group)
    taken = tuple(nodes[:m])
    del nodes[:m]
    fm = f // m
    assert fm * m == f and fm == 1 << (forest.min_layer - forest.q)
    assert sum(F(1, f) for _ in taken) == F(1, fm)
    forest.powers.append((taken, fm))
    forest.obs2_count += 1


def _reference_main_algorithm(rates):
    h = rates.rates
    n = rates.n
    H = rates.H
    delta = 3 * sqrt_upper(h[0] / H)
    bound = (1 + delta) * H
    if n == 1:
        sched = ResidueSchedule(((1, 1),))
        diag = MainDiagnostics(delta, bound, F(1), F(1), F(1), 0, 0, 1, 1, 0, 0, h[0])
        return sched, diag
    a_num, a_den = bound.numerator, bound.denominator
    f1 = bound / h[0]
    assert f1 >= 4
    min_layer = (f1.numerator // f1.denominator).bit_length() - 1
    fn = bound / h[-1]
    max_layer = (fn.numerator // fn.denominator).bit_length() - 1
    q = min_layer // 2
    C = 1 << q
    forest = FrequencyForest(min_layer, q, C)
    for idx, hi in enumerate(h, start=1):
        P = a_num * hi.denominator
        Q = a_den * hi.numerator
        k = (P // Q).bit_length() - 1
        j = (P << q) // (Q << k) - C
        assert 0 <= j < C and k >= min_layer
        if j == 0:
            forest.powers.append((idx, 1 << k))
        else:
            forest.buckets.setdefault((k, j), []).append(idx)
    dens2 = _reference_forest_density(forest)
    dens2_bound = (1 + F(1, C)) / (1 + delta)
    assert dens2 <= dens2_bound
    for k in range(max_layer, min_layer, -1):
        for j in range(1, C):
            nodes = forest.buckets.get((k, j))
            while nodes and len(nodes) >= 2:
                _reference_observation1_merge(forest, k, j)
    for j in range(1, C):
        nodes = forest.buckets.get((min_layer, j))
        while nodes and len(nodes) >= C + j:
            _reference_observation2_merge(forest, min_layer, j)
    for k in range(max_layer, min_layer, -1):
        for j in range(C - 1, 0, -1):
            nodes = forest.buckets.get((k, j))
            if not nodes:
                continue
            while len(nodes) >= 2:
                _reference_observation1_merge(forest, k, j)
            if nodes:
                _push_down(forest, k, j, nodes.pop())
    for j in range(C - 1, 0, -1):
        nodes = forest.buckets.get((min_layer, j))
        if not nodes:
            continue
        while len(nodes) >= C + j:
            _reference_observation2_merge(forest, min_layer, j)
        while nodes:
            _push_down(forest, min_layer, j, nodes.pop(0))
    assert not any(forest.buckets.values())
    final_density = _reference_forest_density(forest)
    assert final_density <= 1
    offsets = _allocate_dyadic([f for _, f in forest.powers])
    pairs = [None] * (n + 1)
    stack = [(nd, a, f) for (nd, f), a in zip(forest.powers, offsets)]
    while stack:
        nd, a, m = stack.pop()
        if isinstance(nd, int):
            pairs[nd] = (a + 1, m)
        elif len(nd) == 2:  # a pair; a bundle has C + j >= 3 children
            stack.append((nd[0], a, 2 * m))
            stack.append((nd[1], a + m, 2 * m))
        else:
            mm = m * len(nd)
            stack.extend((ch, a + t * m, mm) for t, ch in enumerate(nd))
    realized = F(0)
    for i in range(1, n + 1):
        p_i, q_i = pairs[i]
        hi = h[i - 1]
        assert q_i * hi.numerator * a_den <= a_num * hi.denominator
        height = hi * max(p_i, q_i)
        if height > realized:
            realized = height
    assert realized <= bound
    sched = ResidueSchedule(tuple(pairs[1:]))
    K = (1 << min_layer) // (C * C)
    diag = MainDiagnostics(
        delta, bound, dens2, dens2_bound, final_density, min_layer, max_layer, C, K,
        forest.obs1_count, forest.obs2_count, realized,
    )
    return sched, diag


def _reference_two_approx(rates):
    H2 = 2 * rates.H
    freqs = []
    for hi in rates.rates:
        w = (H2.numerator * hi.denominator) // (H2.denominator * hi.numerator)
        freqs.append(1 << (w.bit_length() - 1))
    assert _reference_density(freqs) <= 1
    offsets = _allocate_dyadic(freqs)
    return ResidueSchedule(tuple((a + 1, f) for a, f in zip(offsets, freqs)))


def _reference_evaluate_residue(rates, schedule):
    per = []
    for i, (p, q) in enumerate(schedule.pairs, start=1):
        h = rates.rate(i)
        per.append(h * max(p, q))
    per = tuple(per)
    gmax = max(per)
    return SimulationReport(per, gmax, per.index(gmax) + 1)


def _primes(count, start):
    found, c = [], start
    while len(found) < count:
        if all(c % p for p in range(2, isqrt(c) + 1)):
            found.append(c)
        c += 1
    return found


def _differential_inputs():
    rng = random.Random(8)
    for ratio in (F(1, 4), F(1, 16), F(1, 64), F(1, 256)):
        for n in sorted({5 * ratio.denominator, 700, 3000}):
            yield f"planted-{ratio}-{n}", gen_planted_head(n, ratio, rng.randrange(2**32))
    yield "n1", RateVector([F(3, 7)])
    yield "n1-huge", RateVector([F(2**70 + 1, 2**65 + 3)])
    yield "n2", RateVector([F(1, 2), F(1, 3)])
    yield "n2-equal", RateVector([F(5, 9), F(5, 9)])
    yield "uniform16", RateVector([F(1, 16)] * 16)
    yield "uniform-2000", RateVector([F(1, 2000)] * 2000)
    runs = []
    for value in (F(1, 3), F(1, 50), F(1, 51), F(2, 997), F(1, 1000)):
        runs += [value] * rng.randint(1, 600)
    yield "runs", RateVector(runs)
    yield "head-and-crowd", RateVector([F(3, 4)] + [F(1, 4000)] * 1000)
    primes = _primes(160, 1000)
    prime_rates = RateVector.sorted_from(F(rng.randint(1, p - 1), p) for p in primes)
    assert lcm(*primes) > 2**1000
    yield "distinct-primes", prime_rates
    yield "distinct-primes-head", RateVector.sorted_from([F(1)] + [F(1, p) for p in primes])
    big = [F(rng.randint(1, 2**64), 2**64 + rng.randint(1, 2**40)) for _ in range(120)]
    yield "above-2^64", RateVector.sorted_from(big)
    yield "above-2^64-shared", RateVector.sorted_from(F(k, 2**67 + 9) for k in range(1, 301))


_DIFFERENTIAL = list(_differential_inputs())


@pytest.mark.parametrize("name,rates", _DIFFERENTIAL, ids=[name for name, _ in _DIFFERENTIAL])
def test_integer_paths_match_the_fraction_reference(name, rates):
    assert repr(rates.H) == repr(sum(rates.rates, F(0)))
    main = main_algorithm(rates)
    assert repr(main) == repr(_reference_main_algorithm(rates))
    two = two_approx(rates)
    assert repr(two) == repr(_reference_two_approx(rates))
    for sched in (main[0], two):
        assert repr(evaluate_cyclic(rates, sched)) == repr(_reference_evaluate_residue(rates, sched))


@st.composite
def _grid_edge_rates(draw):
    """Rates summing to 1 whose targets f'' = (1+delta)/h_i sit on a grid
    value of main_algorithm's rounding or just beside it, in runs of equal
    rates on both sides of a bucket edge: the off-by-one cases of a
    bucket's run end."""
    head = draw(st.sampled_from([F(1, 4), F(1, 9), F(1, 16), F(1, 30), F(1, 64)]))
    scale = 1 + 3 * sqrt_upper(head)  # 1 + delta, fixed by the head alone as H = 1
    min_layer = int(scale / head).bit_length() - 1
    q = min_layer // 2
    grid = [(1 << k) + (j << (k - q)) for k in range(min_layer, min_layer + 3) for j in range(1 << q)]
    picks = draw(st.lists(
        st.tuples(st.sampled_from(grid), st.sampled_from([-1, 0, 1]), st.integers(1, 5)),
        min_size=1, max_size=10,
    ))
    rates = [head]
    for g, side, count in picks:
        h = scale / (g + F(side, 1000))  # f'' = g exactly when side = 0
        if h <= head and sum(rates) + count * h < 1:
            rates += [h] * count
    rest = 1 - sum(rates)
    fill = -(-rest // head)  # that many equal rates <= head make up the rest
    return RateVector.sorted_from(rates + [rest / fill] * fill)


@settings(max_examples=150, deadline=None)
@given(_grid_edge_rates())
def test_main_algorithm_matches_the_reference_at_bucket_edges(rates):
    assert rates.H == 1
    assert repr(main_algorithm(rates)) == repr(_reference_main_algorithm(rates))


def test_periods_past_2_64_unfold_exactly():
    # tails near 2^-70 * H get periods near 2^70: the unfold's offsets and
    # periods must stay exact Python ints
    tiny = [F(1, 2**70), F(3, 2**71), F(5, 2**72), F(1, 2**70), F(7, 2**73)]
    rates = RateVector.sorted_from([F(1, 4)] + [F(1, 8)] * 5 + [F(1, 8) - sum(tiny)] + tiny)
    sched, diag = main_algorithm(rates)
    assert max(q for _, q in sched.pairs) > 2**64
    assert repr((sched, diag)) == repr(_reference_main_algorithm(rates))
    report = evaluate_cyclic(rates, sched)
    assert report.global_max == diag.realized_max <= diag.bound
    assert all(type(x) is int for pq in sched.pairs for x in pq)


# sha256 of repr((main_algorithm(rates), two_approx(rates))) on the planted
# inputs above.  `_reference_main_algorithm` shares its node representation
# with `main_algorithm` and changes along with it; these digests pin the
# schedules and diagnostics on their own.
_PINNED = {
    "planted-1/4-20": "102e741c904b2c52cd6c34fa132647009a5c0bae44a5e3c6a9df8f4bc214c7bd",
    "planted-1/4-700": "9f5b760c522d11ee6a5afa94ef23d5aa1add06be2bb174b25c04d4a2f5a0f4a6",
    "planted-1/4-3000": "9a48332374ea44ffe81f2e67ed9643a09cfd72abc27948a79d7e4482ed73ae72",
    "planted-1/16-80": "4c25eeb6b7e36c8a90c7b8a3dbdc7a743732a29a1484db4afcb3f4068bdde025",
    "planted-1/16-700": "f77b0e350dea4bd91a83543b9f7a3b48f922b48725a8ff8b24b6545560c50ea9",
    "planted-1/16-3000": "695f32d7de26fc7346f37bd3365876a77f0885ec9bbf92a31be2cdd4ab334964",
    "planted-1/64-320": "2148938a0676c2b9f1bb0e212533259f7e21a2871f2d1f1bafecc8dab08ccf2b",
    "planted-1/64-700": "8ef63398b15074b459d6d2ac378a383ef88d7dacbd92026ea2828d2733cda09a",
    "planted-1/64-3000": "be34c053ef19b9a0c64db1b9eba3753aff37f5f5c05024a1dfe88660ad953d4e",
    "planted-1/256-700": "d8d363c4c69ec583775512b92b85c02749a9e7383f0f7b1f22c5c8d8f6e813e2",
    "planted-1/256-1280": "62cda4a4a1ebc225280d14c652cd97f578226ef7a7bef251fb35b3e078e86d1f",
    "planted-1/256-3000": "ca31da2258a02e4dcb971e7bb7ebcb3e07eed316910b6fa500f53c11c39dd952",
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_planted_outputs_match_their_pinned_digests(name):
    planted = {n: r for n, r in _DIFFERENTIAL if n.startswith("planted-")}
    assert planted.keys() == _PINNED.keys()
    rates = planted[name]
    got = repr((main_algorithm(rates), two_approx(rates)))
    assert hashlib.sha256(got.encode()).hexdigest() == _PINNED[name]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_evaluate_residue_matches_the_fraction_reference(data):
    # any offsets, p > q included, on small rates with mixed denominators
    rates = RateVector.sorted_from(data.draw(st.lists(
        st.fractions(min_value=F(1, 12), max_value=3, max_denominator=12), min_size=1, max_size=6
    )))
    pairs = data.draw(st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 12)), min_size=rates.n, max_size=rates.n
    ))
    sched = ResidueSchedule(tuple(pairs))  # colliding pairs included on purpose
    new = core._report(*core.integer_weights(rates), core._cyclic_gaps(rates.n, sched))
    assert repr(new) == repr(_reference_evaluate_residue(rates, sched))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=30))
def test_density_matches_the_fraction_sum(freqs):
    assert repr(density(freqs)) == repr(_reference_density(freqs))


# --- certificates that survive python -O -----------------------------------


def _inflated_weights(rates):
    w, d = integer_weights(rates)
    return [2 * x for x in w], d


def _push_up(forest, layer, group, node):
    forest.powers.append((node, 1 << (layer + 1)))


def _push_to_one(forest, layer, group, node):
    forest.powers.append((node, 1))


def _shifted_offsets(freqs):
    return [a + (1 << 40) for a in _allocate_dyadic(freqs)]


_MAIN_BOUND = "bamboo \\d+: height .* exceeds \\(1\\+delta\\)H = "

# what each case breaks -> (the name patched, its broken stand-in, the message)
_BROKEN_STEPS = {
    # weights that disagree with H halve every target frequency
    "rounded density": ("integer_weights", _inflated_weights, "rounded density"),
    "final powers-of-two density": ("_push_down", _push_to_one, "final powers-of-two density"),
    "periods pushed up": ("_push_down", _push_up, _MAIN_BOUND),
    "offsets shifted": ("_allocate_dyadic", _shifted_offsets, _MAIN_BOUND),
}


@pytest.mark.parametrize("step", sorted(_BROKEN_STEPS))
def test_main_algorithm_certificates_raise(monkeypatch, step):
    name, broken, message = _BROKEN_STEPS[step]
    rates = gen_planted_head(300, F(1, 16), 4)
    main_algorithm(rates)  # the unbroken run certifies
    monkeypatch.setattr(pinwheel, name, broken)
    with pytest.raises(CertificateError, match=message):
        main_algorithm(rates)


def test_two_approx_density_certificate_raises(monkeypatch):
    rates = gen_planted_head(300, F(1, 16), 4)
    monkeypatch.setattr(pinwheel, "integer_weights", _inflated_weights)
    with pytest.raises(CertificateError, match="density"):
        two_approx(rates)


def _stretched(freqs):
    """Periods 5/4 as long: every h_i * q_i stays below 3H, the tallest pass 2H."""
    return ResidueSchedule(tuple((p, q * 5 // 4) for p, q in _dyadic_schedule(freqs).pairs))


_TWO_APPROX_BROKEN_STEPS = {
    # doubled periods halve the density but put every h_i * q_i above 2H
    "periods doubled": ("_dyadic_schedule", lambda fs: _dyadic_schedule([2 * f for f in fs])),
    "periods stretched": ("_dyadic_schedule", _stretched),
    "offsets shifted": ("_allocate_dyadic", _shifted_offsets),
}


@pytest.mark.parametrize("step", sorted(_TWO_APPROX_BROKEN_STEPS))
def test_two_approx_certificates_raise(monkeypatch, step):
    name, broken = _TWO_APPROX_BROKEN_STEPS[step]
    rates = gen_planted_head(300, F(1, 16), 4)
    two_approx(rates)  # the unbroken run certifies
    monkeypatch.setattr(pinwheel, name, broken)
    with pytest.raises(CertificateError, match="bamboo \\d+: height .* exceeds 2H = "):
        two_approx(rates)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_certify_heights_names_the_bamboo_that_breaks_the_bound(k):
    rates = RateVector([F(1, 2), F(1, 4), F(1, 4)])
    pairs = [(1, 2), (2, 4), (4, 4)]

    def certify():
        gaps = core._cyclic_gaps(rates.n, ResidueSchedule(pairs))
        return core._certify(core._report(*integer_weights(rates), gaps), rates.H * 2, "2H")

    certify()
    pairs[k - 1] = (k, 2 * pairs[k - 1][1] + 1)  # bamboo k alone now peaks above 2H
    with pytest.raises(CertificateError) as err:
        certify()
    assert str(err.value).startswith(f"bamboo {k}: ")


def test_certificates_survive_python_O():
    out = _run_under_O(
        """
        from fractions import Fraction
        import bgt, bgt.pinwheel as pw
        def push_to_one(forest, layer, group, node):
            forest.powers.append((node, 1))
        pw._push_down = push_to_one
        try:
            bgt.main_algorithm(bgt.gen_planted_head(300, Fraction(1, 16), 4))
        except bgt.CertificateError as exc:
            print("raised:", exc)
        allocate = pw._allocate_dyadic
        pw._allocate_dyadic = lambda freqs: [a + (1 << 40) for a in allocate(freqs)]
        try:
            bgt.two_approx(bgt.gen_planted_head(300, Fraction(1, 16), 4))
        except bgt.CertificateError as exc:
            print("raised:", exc)
        """
    )
    assert out.startswith("raised: final powers-of-two density")
    assert out.splitlines()[1].startswith("raised: bamboo ")
    assert " exceeds 2H = " in out.splitlines()[1]


def test_density_34_certificate_survives_python_O():
    out = _run_under_O(
        """
        from fractions import Fraction
        import bgt, bgt.pinwheel as pw
        pw.density = lambda freqs: Fraction(3, 4)
        try:
            bgt.density_34_frequencies(bgt.RateVector([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]))
        except bgt.CertificateError as exc:
            print("raised:", exc)
        """
    )
    assert out.startswith("raised: density 3/4 of the 3/4 frequencies")


def test_a_shared_residue_is_caught_under_python_O(tmp_path):
    # the allocator gives every root offset 0, so the schedule main_algorithm
    # returns has colliding classes; nothing in it vouches otherwise
    inst = tmp_path / "inst.json"
    inst.write_text('{"rates": ["1/16", "1/16", "1/16", "1/16", "1/16", "1/16", "1/16", "1/16"]}')
    out = _run_under_O(
        """
        import sys
        import bgt, bgt.cli, bgt.pinwheel as pw
        pw._allocate_dyadic = lambda freqs: [0] * len(freqs)
        rates = bgt.load_instance(open(sys.argv[1]).read())
        try:
            bgt.evaluate_cyclic(rates, bgt.main_algorithm(rates)[0])
        except bgt.ScheduleError as exc:
            print("raised:", exc)
        print("exit:", bgt.cli.main(["approx", "main", sys.argv[1]]))
        """,
        str(inst),
    )
    assert out.startswith("raised: collision: bamboos")
    assert out.endswith("exit: 1\n")


@pytest.mark.parametrize("bad", [2.9, 4.0, True, "3"], ids=repr)
@pytest.mark.parametrize(
    "decide", [pinwheel_feasible, pinwheel_witness, schedule_powers_of_two],
    ids=lambda f: f.__name__,
)
def test_frequencies_must_be_ints(decide, bad):
    with pytest.raises(ValueError, match="frequencies must be ints"):
        decide([bad, 4, 8])


def test_merge_identities_refuse_a_density_change():
    # q = layer makes the grid frequency 2^k + j odd: pairing two 1/3s is not 1/1
    forest = FrequencyForest(min_layer=0, q=1, C=2)
    forest.buckets[(1, 1)] = [1, 2]
    with pytest.raises(AssertionError, match="density"):
        _merge(forest, 1, 1)
    # C != 2^q: four copies of 1/6 do not bundle into one power of two
    forest = FrequencyForest(min_layer=2, q=1, C=3)
    forest.buckets[(2, 1)] = [1, 2, 3, 4]
    with pytest.raises(AssertionError, match="density"):
        _merge(forest, 2, 1)
    # C = 1 != 2^q: two copies of 1/6 are one 1/3, not the power of two 1/2
    forest = FrequencyForest(min_layer=2, q=1, C=1)
    forest.buckets[(2, 1)] = [1, 2]
    with pytest.raises(AssertionError, match=r"2\^\(min-q\)"):
        _merge(forest, 2, 1)


def test_merges_take_the_bucket_in_order():
    # bamboos 1..7; merged nodes are 8, 9, ... in the order they are made
    forest = FrequencyForest(min_layer=2, q=1, C=2, n=7)
    forest.buckets[(3, 1)] = [1, 2, 3, 4, 5]  # grid_freq(3, 1) = 8 + 4
    _merge(forest, 3, 1)
    assert forest.buckets[(3, 1)] == [5]
    lower = forest.buckets[(2, 1)]
    assert lower == [8, 9]
    assert (forest.children, forest.degrees) == ([1, 2, 3, 4], [2, 2])
    assert forest.obs1_count == 2
    # C + 1 = 3 copies of 2^2 * (1 + 1/2) = 6 bundle into one 2^(2-1) = 2
    lower += [6, 7]
    _merge(forest, 2, 1)
    assert lower == [7]
    assert forest.powers == [(10, 2)]
    assert (forest.children, forest.degrees) == ([1, 2, 3, 4, 8, 9, 6], [2, 2, 3])
    assert forest.obs2_count == 1
