"""Types, validation, and the exact simulation engines."""

import copy
import hashlib
import json
import os
import pickle
import random
import re
import subprocess
import sys
from array import array
from dataclasses import fields, replace
from fractions import Fraction as F
from itertools import islice
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bgt
from bgt import (
    InstanceFormatError,
    ListSchedule,
    MetricInstance,
    RateVector,
    ResidueSchedule,
    ScheduleError,
    SimulationReport,
    core,
    evaluate_cyclic,
    frac,
    gen_planted_head,
    gen_random_metric,
    instance_to_dict,
    load_instance,
    load_schedule,
    main_algorithm,
    next_cuts_stream,
    reduce_fastest,
    reduce_max,
    schedule_powers_of_two,
    schedule_to_dict,
    simulate_discrete,
    simulate_walk,
    two_approx,
    validate_residue,
)

def test_frac_accepts_exact_forms():
    assert frac("7/15") == F(7, 15)
    assert frac(3) == F(3)
    assert frac("0.25") == F(1, 4)
    assert frac(F(1, 3)) == F(1, 3)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.1)


def test_rate_vector_sorted_and_positive():
    rv = RateVector([F(1, 2), F(1, 4), F(1, 4)])
    assert rv.n == 3
    assert rv.H == 1
    assert rv.rate(1) == F(1, 2)
    with pytest.raises(InstanceFormatError):
        RateVector([F(1, 4), F(1, 2)])
    with pytest.raises(InstanceFormatError):
        RateVector([F(1, 2), F(0)])
    with pytest.raises(InstanceFormatError):
        RateVector([])


def test_rate_vector_sorted_from_and_normalized():
    rv = RateVector.sorted_from(["1/5", "1/2", "1/4"])
    assert rv.rates == (F(1, 2), F(1, 4), F(1, 5))
    nv = rv.normalized()
    assert nv.H == 1
    assert nv.rate(1) / nv.rate(3) == rv.rate(1) / rv.rate(3)


def test_residue_schedule_validation():
    with pytest.raises(ScheduleError):
        ResidueSchedule(((0, 2),))
    sched = ResidueSchedule(((1, 2), (2, 2)))
    validate_residue(sched)  # disjoint: odd vs even rounds
    with pytest.raises(ScheduleError):
        validate_residue(ResidueSchedule(((1, 2), (3, 2))))  # both odd


@pytest.mark.parametrize("bad", [(1, 2, 3), (1,), [], 5, None], ids=repr)
def test_residue_schedule_names_a_malformed_pair(bad):
    # malformed input is a ScheduleError naming the bamboo, not a bare unpacking error
    msg = f"bamboo 2: {bad!r} is not an (offset, period) pair"
    with pytest.raises(ScheduleError, match=re.escape(msg)):
        ResidueSchedule([(1, 2), bad, (2, 2)])
    with pytest.raises(ScheduleError, match=re.escape(msg)):
        ResidueSchedule(pq for pq in [[1, 2], bad])  # a one-shot iterable of lists too


def test_residue_schedule_takes_any_iterable_of_pairs():
    assert ResidueSchedule(iter([[1, 2], (2, 2)])).pairs == ((1, 2), (2, 2))


@pytest.mark.parametrize(
    "rates, kind",
    [
        ([F(1, 2), F(1, 3), F(1, 6)], array),
        ([F(1), F(1, 2**62 - 1)], array),  # the largest weight below 2^62
        ([F(1), F(1, 2**62)], tuple),
        ([F(3, 7), F(1, 3**40)], tuple),
    ],
)
def test_rate_vector_keeps_its_integer_weights(rates, kind):
    rv = RateVector(rates)
    w, d = core.integer_weights(rv)
    assert type(w) is kind
    assert (list(w), d) == core.integer_weights(rv.rates)
    assert core.integer_weights(rv) is core.integer_weights(rv)  # kept, not recomputed
    # ==, hash, repr and pickling see the two fields only
    twin = RateVector(list(rates))
    assert twin == rv and hash(twin) == hash(rv) == hash((rv.rates, rv.H))
    assert repr(rv) == f"RateVector(rates={rv.rates!r}, H={rv.H!r})"
    data = pickle.dumps(rv)
    assert b"_weights" not in data and b"array" not in data
    back = pickle.loads(data)
    assert back == rv and core.integer_weights(back) == (w, d)
    assert copy.deepcopy(rv) == rv


def _reference_list_checks(preamble, period, n):
    """ListSchedule's checks as entry-by-entry loops: the inferred n, or the error."""
    if not period:
        raise ScheduleError("period must be nonempty")
    for i in preamble + period:
        if type(i) is not int:
            raise ScheduleError(f"cut index {i!r} must be an integer")
    if n == 0:
        n = max(preamble + period)
    for i in preamble + period:
        if i < 0 or i > n:
            raise ScheduleError(f"cut index {i} out of range 0..{n}")
    return n


_ENTRY = st.one_of(st.integers(-2, 6), st.sampled_from([True, False, 2.0, 1.5, "1", None]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTRY, max_size=6), st.lists(_ENTRY, max_size=6), st.integers(0, 5))
@example([], [0, 0], 0)
@example([3, -1], [7, 1], 0)
def test_list_schedule_checks_match_the_entry_loops(preamble, period, n):
    preamble, period = tuple(preamble), tuple(period)
    try:
        expected = _reference_list_checks(preamble, period, n)
    except ScheduleError as exc:
        with pytest.raises(ScheduleError) as err:
            ListSchedule(preamble, period, n)
        assert str(err.value) == str(exc)
    else:
        assert ListSchedule(preamble, period, n).n == expected


def _reference_residue_checks(raw):
    """ResidueSchedule's checks as one loop over the entries: the pairs, or the error."""
    raw = tuple(raw)
    try:
        pairs = tuple(map(tuple, raw))
    except TypeError:
        pairs = raw
    for i, pq in enumerate(pairs, start=1):
        try:
            p, q = pq
        except (TypeError, ValueError):
            raise ScheduleError(
                f"bamboo {i}: {raw[i - 1]!r} is not an (offset, period) pair"
            ) from None
        if type(p) is not int or type(q) is not int or p < 1 or q < 1:
            raise ScheduleError(f"bamboo {i}: offset/period ({p!r},{q!r}) must be ints >= 1")
    return pairs


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.tuples(_ENTRY, _ENTRY), st.lists(_ENTRY, max_size=3), _ENTRY), max_size=5)
)
@example([(1, 2), (True, 2)])
@example([(1, 2), [3, 0]])
def test_residue_schedule_checks_match_the_entry_loop(raw):
    try:
        expected = _reference_residue_checks(raw)
    except ScheduleError as exc:
        with pytest.raises(ScheduleError) as err:
            ResidueSchedule(raw)
        assert str(err.value) == str(exc)
    else:
        assert ResidueSchedule(raw).pairs == expected


def _reference_rate_checks(rates):
    """RateVector's sign and order checks as loops over the rates: the rates, or the error."""
    rates = tuple(map(frac, rates))
    for k, h in enumerate(rates):
        if h <= 0:
            raise InstanceFormatError("rates", f"rate #{k + 1} is {h}; must be positive")
    for k in range(len(rates) - 1):
        if rates[k] < rates[k + 1]:
            raise InstanceFormatError(
                "rates",
                f"rates must be non-increasing; rate #{k + 1} = {rates[k]}"
                f" < rate #{k + 2} = {rates[k + 1]}",
            )
    return rates


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(min_value=-1, max_value=2, max_denominator=6), min_size=1, max_size=6))
@example([F(1, 2), F(1, 3), F(1, 2), F(0)])  # both faults: the sign is reported
def test_rate_vector_checks_match_the_loops(rates):
    try:
        expected = _reference_rate_checks(rates)
    except InstanceFormatError as exc:
        with pytest.raises(InstanceFormatError) as err:
            RateVector(rates)
        assert str(err.value) == str(exc)
    else:
        assert RateVector(rates).rates == expected


def _pairwise_disjoint(pairs) -> bool:
    """Reference: the congruence test p = p' (mod gcd(q, q')) on every pair."""
    return all(
        (p - p2) % gcd(q, q2) for k, (p, q) in enumerate(pairs) for p2, q2 in pairs[k + 1 :]
    )


def _named_pair(err) -> tuple[int, int]:
    i, j = map(int, re.search(r"bamboos (\d+) and (\d+)", str(err.value)).groups())
    assert i != j
    return i, j


@pytest.mark.parametrize(
    "pairs, shared_round",
    [
        pytest.param(((2, 4), (1, 2), (3, 2)), 3, id="same-period"),
        pytest.param(((2, 5), (3, 3)), 12, id="coprime"),
        pytest.param(((1, 4), (3, 6)), 9, id="shared-gcd"),
        pytest.param(((1, 4), (2, 6)), None, id="disjoint-mixed"),
    ],
)
def test_residue_disjointness_table(pairs, shared_round):
    if shared_round is None:
        validate_residue(ResidueSchedule(pairs))
        return
    with pytest.raises(ScheduleError, match="collision") as err:
        validate_residue(ResidueSchedule(pairs))
    i, j = _named_pair(err)
    for p, q in (pairs[i - 1], pairs[j - 1]):  # both named bamboos are cut in that round
        assert shared_round >= p and (shared_round - p) % q == 0


@st.composite
def _residue_schedules(draw):
    # classes with distinct residues modulo a base m never meet; a few free
    # pairs on top usually make some collide
    m = draw(st.integers(min_value=1, max_value=12))
    pairs = []
    for r in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)):
        q = m * draw(st.integers(min_value=1, max_value=4))
        pairs.append((r + m * draw(st.integers(min_value=0 if r else 1, max_value=3)), q))
    free = st.tuples(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=24))
    pairs += draw(st.lists(free, max_size=3))
    return tuple(draw(st.permutations(pairs)))


@settings(max_examples=300, deadline=None)
@given(_residue_schedules())
@example(tuple((i, 16 * i) for i in range(1, 9)) + ((9, 16),))  # one-class groups, then a clash
def test_validate_residue_matches_the_pairwise_reference(pairs):
    if _pairwise_disjoint(pairs):
        validate_residue(ResidueSchedule(pairs))
    else:
        with pytest.raises(ScheduleError, match="collision") as err:
            validate_residue(ResidueSchedule(pairs))
        i, j = _named_pair(err)
        assert not _pairwise_disjoint((pairs[i - 1], pairs[j - 1]))


def test_validate_residue_refuses_only_above_its_work_cap():
    # classes i mod 4096 (i <= 2049) never meet; each bamboo has its own period
    pairs = tuple((i, 4096 * i) for i in range(1, 2050))
    validate_residue(ResidueSchedule(pairs[:2048]))  # 2048 x 2048 steps: decided
    with pytest.raises(ScheduleError, match="cannot validate disjointness"):
        validate_residue(ResidueSchedule(pairs))


def test_validate_residue_takes_64_periods_per_bamboo_above_the_fixed_cap():
    # offsets distinct modulo 2^17 never meet; M periods 2^17 * c over n =
    # 70,000 bamboos: M * n > 2048 x 2048 for M >= 60
    n = 70_000

    def schedule(m):
        return ResidueSchedule(tuple((i, (1 << 17) * (1 + i % m)) for i in range(1, n + 1)))

    validate_residue(schedule(64))  # 64 x n steps: decided
    with pytest.raises(ScheduleError, match="cannot validate disjointness"):
        validate_residue(schedule(65))


def test_evaluate_cyclic_has_no_unchecked_mode():
    rates = RateVector([F(1, 2), F(1, 2)])
    with pytest.raises(ScheduleError, match="collision"):
        evaluate_cyclic(rates, ResidueSchedule(((1, 2), (1, 2))))
    with pytest.raises(TypeError, match="validate must be True"):
        evaluate_cyclic(rates, ResidueSchedule(((1, 2), (2, 2))), validate=False)


def test_evaluate_cyclic_decides_a_main_schedule_with_24_periods():
    # 24 distinct periods x 2*10^5 bamboos is above 2048 x 2048
    rates = gen_planted_head(2 * 10**5, F(1, 256), 0)
    sched, diag = main_algorithm(rates)
    assert len({q for _, q in sched.pairs}) == 24
    assert evaluate_cyclic(rates, sched).global_max == diag.realized_max


@pytest.mark.parametrize("ratio", [F(1, 4), F(1, 16), F(1, 64), F(1, 256)], ids=str)
def test_validate_residue_decides_planted_head_schedules(ratio):
    # n > 2048 with hyperperiods beyond 2^20 rounds at 1/64 and 1/256
    rates = gen_planted_head(2100, ratio, 0)
    for sched in (main_algorithm(rates)[0], two_approx(rates)):
        validate_residue(ResidueSchedule(sched.pairs))


def test_list_schedule_validation():
    with pytest.raises(ScheduleError):
        ListSchedule((), ())
    s = ListSchedule((1,), (1, 2), 2)
    assert s.n == 2
    with pytest.raises(ScheduleError):
        ListSchedule((), (3,), 2)


def test_simulate_discrete_gap_accounting():
    rates = RateVector([F(1, 2), F(1, 4)])
    # b1 cut at rounds 1 and 4 (gap 3); b2 cut at round 2 (initial gap 2,
    # tail gap 4-2 = 2)
    rep = simulate_discrete(rates, [1, 2, 0, 1])
    assert rep.per_bamboo_max == (F(3, 2), F(1, 2))
    assert rep.global_max == F(3, 2)
    assert rep.argmax_bamboo == 1


def test_simulate_discrete_never_cut_counts_full_window():
    rates = RateVector([F(1, 2), F(1, 4)])
    rep = simulate_discrete(rates, [1, 1, 1, 1])
    # b2 never cut: its height really reached 4 * 1/4 = 1
    assert rep.per_bamboo_max[1] == 1


@pytest.mark.parametrize("bad", [2.9, F(2), "2", True], ids=repr)
def test_simulate_discrete_refuses_cuts_that_are_not_ints(bad):
    # a cut is an index: nothing is truncated, and a bool is not bamboo 1
    rates = RateVector([F(1, 2), F(1, 2)])
    assert simulate_discrete(rates, [1, 2, 1, 2])
    msg = f"cut index {bad!r} at round 2 is not an int"
    with pytest.raises(ScheduleError, match=re.escape(msg)):
        simulate_discrete(rates, [1, bad, True, 2])


_RATE = st.integers(min_value=1, max_value=12).map(lambda k: F(1, k))


@st.composite
def _residue_cases(draw):
    if draw(st.booleans()):
        # power-of-two frequencies, kept while their density stays <= 1
        freqs, room = [], 32
        for e in draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8)):
            if 32 >> e <= room:
                freqs.append(1 << e)
                room -= 32 >> e
        n = len(freqs)
        rates = RateVector.sorted_from(draw(st.lists(_RATE, min_size=n, max_size=n)))
        return rates, schedule_powers_of_two(freqs)
    n = draw(st.integers(min_value=16, max_value=48))
    ratio = draw(st.sampled_from([F(1, 4), F(1, 8)]))
    rates = gen_planted_head(n, ratio, draw(st.integers(min_value=0, max_value=999)))
    return rates, main_algorithm(rates)[0]


@st.composite
def _list_cases(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    cut = st.integers(min_value=0, max_value=n)  # 0 = idle round
    preamble = draw(st.lists(cut, max_size=6))
    period = draw(st.permutations(list(range(1, n + 1)) + draw(st.lists(cut, max_size=6))))
    rates = RateVector.sorted_from(draw(st.lists(_RATE, min_size=n, max_size=n)))
    return rates, ListSchedule(tuple(preamble), tuple(period), n)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_residue_cases(), _list_cases()))
@example((RateVector([F(1, 2), F(1, 8), F(1, 8)]), ResidueSchedule(((1, 2), (2, 4), (4, 4)))))
def test_evaluate_residue_matches_stream_expansion(case):
    rates, sched = case
    rep = evaluate_cyclic(rates, sched)
    if isinstance(sched, ResidueSchedule):
        head, period = max(p for p, _ in sched.pairs), lcm(*(q for _, q in sched.pairs))
    else:
        head, period = len(sched.preamble), len(sched.period)
    # every first and cyclic gap closes within head + 2 periods, and each
    # bamboo's tail after its last cut there is below its cyclic gap
    window = list(islice(next_cuts_stream(sched), head + 2 * period))
    if isinstance(sched, ListSchedule):
        assert window == list(sched.preamble + sched.period * 2)
    brute = simulate_discrete(rates, window)
    assert rep.per_bamboo_max == brute.per_bamboo_max
    assert rep.global_max == brute.global_max


def _reference_stream(pairs, rounds):
    """Round by round: the lowest-index bamboo due (0 = idle), up to the
    first round two bamboos share, which is returned as the clash."""
    out = []
    for r in range(1, rounds + 1):
        due = [i for i, (p, q) in enumerate(pairs, start=1) if r >= p and (r - p) % q == 0]
        out.append(min(due, default=0))
        if len(due) > 1:
            return out, r
    return out, None


@settings(max_examples=150, deadline=None)
@given(_residue_schedules(), st.sampled_from([1, 7, 40]), st.booleans())
@example(((256, 300), (256, 512)), 1, False)  # clash in the last of the first 256 rounds
@example(((1, 256), (257, 512)), 1, False)  # clash in the round after them
@example(((1, 2), (2, 4), (4, 8), (8, 8)), 40, False)  # table, 3.75 hyperperiods of 320
@example(((1, 2), (2, 4), (4, 8), (8, 8)), 40, True)  # the same just above the table cap
@example(((1, 3), (2, 6)), 7, False)  # the table starts 256 % 42 = 4 rounds into a hyperperiod
@example(((3, 2), (2, 4)), 1, False)  # an offset above its period
@example(((1, 2), (259, 512)), 1, False)  # a clash after the first 256 rounds, found by the fill
@example(((1, 2), (2, 2), (300, 512)), 1, False)  # more cuts than rounds
@example(((513, 2), (1, 2)), 1, True)  # a clash in the first round of the second sliding window
@example(((1, 1),), 1, True)  # L = 1 with the cap at 0: windows of 256 rounds, not 0
def test_next_cuts_stream_matches_the_reference(pairs, k, above_cap):
    # scaling offsets and periods by k moves every clash to k times its round
    pairs = tuple((k * p, k * q) for p, q in pairs)
    want, clash = _reference_stream(pairs, 1200)
    with pytest.MonkeyPatch.context() as mp:
        if above_cap:  # the hyperperiod would be filled after the first 256 rounds
            mp.setattr(core, "_TABLE_CAP", lcm(*(q for _, q in pairs)) - 1)
        stream = next_cuts_stream(ResidueSchedule(pairs))
        assert list(islice(stream, len(want))) == want
    if clash is not None:
        with pytest.raises(ScheduleError, match=f"round {clash}: residue collision"):
            next(stream)


@pytest.mark.parametrize(
    "pairs, after, cap, table",
    [
        (((1, 2), (2, 4), (4, 8)), 0, None, ([1, 2, 1, 3, 1, 2, 1, 0], 0, "table")),
        (((1, 2), (2, 4), (4, 8)), 3, None, ([3, 1, 2, 1, 0, 1, 2, 1], 0, "table")),  # from round 4
        (((1, 2), (2, 4), (4, 8)), 0, 7, ([1, 2, 1, 3, 1, 2, 1, 0], 0, "windows")),  # L above cap
        (((3, 2), (2, 4)), 0, None, ([0, 2, 1, 0], 0, "windows")),  # an offset above its period
        (((1, 2), (259, 512)), 256, None, ([1, 0] * 256, 3, "table")),  # a clash in the fill
        (((1, 2), (2, 2), (300, 512)), 256, None, ([1, 2] * 256, 44, "table")),  # cuts > rounds
    ],
    # the ids the cases had when `table` was the expected hyperperiod table or None
    ids=[
        "pairs0-0-None-table0",
        "pairs1-3-None-table1",
        "pairs2-0-7-None",
        "pairs3-0-None-None",
        "pairs4-256-None-None",
        "pairs5-256-None-None",
    ],
)
def test_hyperperiod_table_only_where_it_applies(monkeypatch, pairs, after, cap, table):
    # the differential above cannot tell the modes apart; this pins the fill and which mode runs
    window, clash, mode = table
    if cap is not None:
        monkeypatch.setattr(core, "_TABLE_CAP", cap)
    hyper = lcm(*(q for _, q in pairs))
    assert core._window(pairs, after, hyper) == (window, clash)
    fill, widths = core._window, []

    def spy(pairs, base, width):
        widths.append((base, width))
        return fill(pairs, base, width)

    monkeypatch.setattr(core, "_window", spy)
    pieces = core._residue_pieces(pairs)
    first, second = next(pieces), next(pieces)
    assert len(first) == 256
    if clash:  # the rounds up to the clash, then the error
        assert (second, widths) == (window[:clash], [(0, 256), (256, hyper)])
        with pytest.raises(ScheduleError, match=f"round {after + clash}: residue collision"):
            next(pieces)
    elif mode == "table":  # one hyperperiod, the same list over and over
        assert next(pieces) is second and len(second) == hyper
        assert widths == [(0, 256), (256, hyper)]
    else:  # fresh windows, never narrower than the first
        third = next(pieces)
        assert third is not second and len(second) == len(third) == max(core._TABLE_CAP, 256)
        assert widths == [(0, 256), (256, len(second)), (256 + len(second), len(second))]


def test_a_short_prefix_does_not_fill_the_table(monkeypatch):
    # the first 256 rounds stream before a longer window is filled: a short prefix never pays for it
    fill = core._window

    def refuse(pairs, base, width):
        if width > 256:
            raise AssertionError("a longer window filled for a short prefix")
        return fill(pairs, base, width)

    monkeypatch.setattr(core, "_window", refuse)
    pairs = ((1, 2), (2, 4), (4, 8))
    want, _ = _reference_stream(pairs, 256)
    assert list(islice(next_cuts_stream(ResidueSchedule(pairs)), 256)) == want


def test_evaluate_list_matches_long_simulation():
    rates = RateVector([F(1, 2), F(1, 3), F(1, 12)])
    sched = ListSchedule((2,), (1, 2, 1, 3), 3)
    rep = evaluate_cyclic(rates, sched)
    expanded = list(sched.preamble) + list(sched.period) * 6
    brute = simulate_discrete(rates, expanded)
    assert rep.global_max == brute.global_max
    assert rep.per_bamboo_max == brute.per_bamboo_max


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=5, unique_by=lambda x: x).map(sorted))
def test_evaluate_list_supremum_is_period_stable(cuts):
    # a cyclic schedule evaluated analytically equals any long enough replay
    n = max(cuts)
    period = tuple(cuts) + tuple(range(1, n + 1))
    rates = RateVector([F(1, i + 1) for i in range(n)])
    sched = ListSchedule((), period, n)
    rep = evaluate_cyclic(rates, sched)
    brute = simulate_discrete(rates, list(period) * 5)
    assert rep.global_max == brute.global_max


def test_evaluate_cyclic_rejects_uncovered_bamboo():
    rates = RateVector([F(1, 2), F(1, 4)])
    with pytest.raises(ScheduleError):
        evaluate_cyclic(rates, ListSchedule((), (1,), 1))


def test_simulate_walk_strict_legs_and_tail():
    import bgt

    inst = bgt.MetricInstance(
        rates=RateVector([F(2, 3), F(1, 3)]),
        travel=((F(0), F(2)), (F(2), F(0))),
        start=1,
    )
    walk = [(2, F(2)), (1, F(4)), (2, F(6))]
    rep = simulate_walk(inst, walk, strict=True)
    assert rep.per_bamboo_max == (4 * F(2, 3), 4 * F(1, 3))
    with pytest.raises(ScheduleError):
        simulate_walk(inst, [(2, F(1))], strict=True)  # faster than travel
    with pytest.raises(ScheduleError):
        simulate_walk(inst, [(2, F(3))], strict=True)  # slower, strict mode


def test_instance_json_roundtrip(tmp_path):
    rv = RateVector([F(7, 15), F(1, 3), F(1, 5)])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_dict(rv)))
    back = load_instance(path.read_text())
    assert back.rates == rv.rates


def test_metric_instance_json_roundtrip():
    import bgt

    inst = bgt.gen_two_cluster(8, F(3, 2))
    doc = json.dumps(instance_to_dict(inst))
    back = load_instance(doc)
    assert back.rates.rates == inst.rates.rates
    assert back.travel == inst.travel
    assert back.start == inst.start


def test_schedule_json_roundtrip():
    res = ResidueSchedule(((1, 2), (2, 4), (4, 4)))
    back = load_schedule(json.dumps(schedule_to_dict(res)))
    assert back.pairs == res.pairs
    lst = ListSchedule((2,), (1, 2), 2)
    back2 = load_schedule(json.dumps(schedule_to_dict(lst)))
    assert (back2.preamble, back2.period, back2.n) == ((2,), (1, 2), 2)


@pytest.mark.parametrize(
    "text, field, bad",
    [
        pytest.param('{"residue": [[1.5, 2], [2, 2]]}', "residue", "1.5", id="float-offset"),
        pytest.param('{"residue": [[1, true]]}', "residue", "True", id="bool-period"),
        pytest.param('{"residue": [["1", 2]]}', "residue", "'1'", id="string-offset"),
        pytest.param('{"period": [1, 2.9]}', "period", "cut index 2.9", id="float-cut"),
        pytest.param('{"preamble": [false], "period": [1]}', "period", "cut index False", id="bool-cut"),
        pytest.param('{"period": [1, 2], "n": 2.0}', "n", "2.0", id="float-n"),
        pytest.param('{"period": 5}', "period", "not iterable", id="period-not-a-list"),
    ],
)
def test_load_schedule_refuses_non_integers(text, field, bad):
    # nothing is truncated: the file is checked as written or not at all
    with pytest.raises(InstanceFormatError) as err:
        load_schedule(text)
    assert err.value.field == field and bad in str(err.value)


def test_load_instance_names_bad_field():
    with pytest.raises(InstanceFormatError) as err:
        load_instance('{"rates": ["1/2", "nope"]}')
    assert err.value.field == "rates[1]"
    for start in ("true", "1.0"):
        with pytest.raises(InstanceFormatError) as err:
            load_instance('{"rates": ["1/2"], "travel": [[0]], "start": %s}' % start)
        assert err.value.field == "start"


def test_gen_planted_head_exact_ratio():
    for seed in range(5):
        rv = gen_planted_head(100, F(1, 16), seed)
        assert rv.n == 100
        assert rv.rate(1) / rv.H == F(1, 16)
        assert rv.rate(1) == 1
    assert gen_planted_head(50, F(1, 4), 0).rates != gen_planted_head(50, F(1, 4), 1).rates
    with pytest.raises(ValueError):
        gen_planted_head(3, F(1, 256), 0)  # tail rates would exceed h_1


# --- the gap scan against the bodies it replaced ---------------------------
# Each `_reference_*` is the accounting loop that `simulate_discrete`,
# `_evaluate_list` and `simulate_walk` ran before they shared one gap scan.


def _reference_simulate_discrete(rates, schedule, *, include_tail=True, steady_after=0):
    if not schedule:
        raise ValueError("schedule must be nonempty")
    n = rates.n
    last = [0] * (n + 1)
    best_gap = [0] * (n + 1)
    best_at = [0] * (n + 1)
    steady_gap = [0] * (n + 1)
    r = 0
    for r, c in enumerate(schedule, start=1):
        c = int(c)
        if c == 0:
            continue
        if not 1 <= c <= n:
            raise ScheduleError(f"cut index {c} out of range 0..{n} at round {r}")
        gap = r - last[c]
        if gap > best_gap[c]:
            best_gap[c] = gap
            best_at[c] = r
        if r > steady_after and gap > steady_gap[c]:
            steady_gap[c] = gap
        last[c] = r
    horizon = r
    for i in range(1, n + 1):
        if last[i] and not include_tail:
            continue
        gap = horizon - last[i]
        if gap > best_gap[i]:
            best_gap[i] = gap
            best_at[i] = horizon
        if horizon > steady_after and gap > steady_gap[i]:
            steady_gap[i] = gap
    per = tuple(rates.rate(i) * best_gap[i] for i in range(1, n + 1))
    gmax = max(per)
    arg = per.index(gmax) + 1
    steady = max((rates.rate(i) * steady_gap[i] for i in range(1, n + 1)), default=F(0))
    return SimulationReport(per, gmax, arg, steady, horizon, best_at[arg])


def _reference_evaluate_list(rates, schedule):
    pre, period = schedule.preamble, schedule.period
    sim = _reference_simulate_discrete(rates, pre + period + period, include_tail=False)
    P = len(period)
    positions = {}
    for t, c in enumerate(period, start=1):
        if c:
            positions.setdefault(c, []).append(t)
    steady = F(0)
    for i, pos in positions.items():
        wrap = P - pos[-1] + pos[0]
        gap = max(max(b - a for a, b in zip(pos, pos[1:])), wrap) if len(pos) > 1 else P
        if rates.rate(i) * gap > steady:
            steady = rates.rate(i) * gap
    return SimulationReport(
        sim.per_bamboo_max, sim.global_max, sim.argmax_bamboo, steady, None, sim.argmax_round
    )


def _reference_simulate_walk(instance, walk, *, strict=False, steady_after=F(0)):
    if not walk:
        raise ValueError("empty walk needs an explicit horizon")
    rates = instance.rates
    travel = instance.travel
    n = rates.n
    prev_v, prev_t = instance.start, F(0)
    last = [F(0)] * (n + 1)
    best_gap = [F(0)] * (n + 1)
    best_at = [F(0)] * (n + 1)
    steady_gap = [F(0)] * (n + 1)
    for k, (v, t) in enumerate(walk):
        v = int(v)
        t = frac(t)
        if not 1 <= v <= n:
            raise ScheduleError(f"walk entry {k}: point {v} out of range 1..{n}")
        dt = t - prev_t
        if dt <= 0:
            raise ScheduleError(f"walk entry {k}: arrival times must be strictly increasing")
        d = travel[prev_v - 1][v - 1]
        if dt < d:
            raise ScheduleError(
                f"walk entry {k}: leg {prev_v}->{v} takes {dt}, below travel time {d}"
            )
        if strict and dt != d:
            raise ScheduleError(
                f"walk entry {k}: leg {prev_v}->{v} takes {dt} != travel time {d} (strict mode)"
            )
        gap = t - last[v]
        if gap > best_gap[v]:
            best_gap[v] = gap
            best_at[v] = t
        if t > steady_after and gap > steady_gap[v]:
            steady_gap[v] = gap
        last[v] = t
        prev_v, prev_t = v, t
    end = prev_t
    for i in range(1, n + 1):
        gap = end - last[i]
        if gap > best_gap[i]:
            best_gap[i] = gap
            best_at[i] = end
        if end > steady_after and gap > steady_gap[i]:
            steady_gap[i] = gap
    per = tuple(rates.rate(i) * best_gap[i] for i in range(1, n + 1))
    gmax = max(per)
    arg = per.index(gmax) + 1
    steady = max((rates.rate(i) * steady_gap[i] for i in range(1, n + 1)), default=F(0))
    return SimulationReport(per, gmax, arg, steady, end, best_at[arg])


def _same(new, ref):
    # repr also pins the number types (Fraction vs int) of every field
    assert repr(new) == repr(ref)


_rates = st.lists(
    st.fractions(min_value=F(1, 12), max_value=3, max_denominator=12), min_size=1, max_size=5
).map(RateVector.sorted_from)


@settings(max_examples=200, deadline=None)
@given(_rates, st.data())
def test_simulate_discrete_matches_the_reference(rates, data):
    # idle rounds and never-cut bamboos
    cuts = data.draw(st.lists(st.integers(0, rates.n), min_size=1, max_size=30))
    _same(simulate_discrete(rates, cuts), _reference_simulate_discrete(rates, cuts))


@settings(max_examples=60, deadline=None)
@given(_rates, st.data())
def test_simulate_discrete_rejects_what_the_reference_rejects(rates, data):
    cuts = data.draw(st.lists(st.integers(-2, rates.n + 2), min_size=1, max_size=12))
    try:
        expected = _reference_simulate_discrete(rates, cuts)
    except ScheduleError as exc:
        with pytest.raises(ScheduleError) as err:
            simulate_discrete(rates, cuts)
        assert str(err.value) == str(exc)
    else:
        _same(simulate_discrete(rates, cuts), expected)


@settings(max_examples=200, deadline=None)
@given(_rates, st.data())
def test_evaluate_list_matches_the_reference(rates, data):
    n = rates.n
    cut = st.integers(0, n)
    preamble = data.draw(st.lists(cut, max_size=8))
    period = data.draw(st.lists(cut, min_size=1, max_size=10))
    if data.draw(st.booleans()):
        period += list(range(1, n + 1))  # a valid schedule: every bamboo recurs
        data.draw(st.randoms()).shuffle(period)
    sched = ListSchedule(tuple(preamble), tuple(period), n)
    never_cut = [i for i in range(1, n + 1) if i not in period]
    if never_cut:
        # such a bamboo grows without bound: no finite report
        with pytest.raises(ScheduleError, match=re.escape(f"never cuts bamboo(s) {never_cut}")):
            evaluate_cyclic(rates, sched)
        return
    _same(evaluate_cyclic(rates, sched), _reference_evaluate_list(rates, sched))


def test_evaluate_list_with_a_preamble_matches_the_reference():
    rates = RateVector([F(1, 2), F(1, 3), F(1, 12)])
    for sched in (ListSchedule((2,), (1, 2, 1, 3), 3), ListSchedule((), (1, 2, 1, 3), 3),
                  ListSchedule((3, 3, 0), (2, 1, 0, 1, 3, 2), 3)):
        new = evaluate_cyclic(rates, sched)
        _same(new, _reference_evaluate_list(rates, sched))
        assert new.horizon is None


def _random_walk(inst, rng, length, strict):
    """Legs to random other points; non-strict legs may dawdle."""
    walk, v, t = [], inst.start, F(0)
    for _ in range(length):
        w = rng.choice([u for u in range(1, inst.n + 1) if u != v or not strict])
        t += inst.travel[v - 1][w - 1]
        if not strict and (w == v or rng.random() < 0.5):
            t += F(rng.randint(1, 8), rng.randint(1, 8))
        walk.append((w, t))
        v = w
    return walk


@pytest.mark.parametrize("seed", range(12))
def test_simulate_walk_matches_the_reference(seed):
    rng = random.Random(seed)
    inst = gen_random_metric(rng.randint(2, 7), seed)
    for strict in (True, False):
        walk = _random_walk(inst, rng, rng.randint(1, 40), strict)
        _same(
            simulate_walk(inst, walk, strict=strict),
            _reference_simulate_walk(inst, walk, strict=strict),
        )


def _huge_denominator_metric(n, seed):
    """Distances near 1/2 over the primes 2^61 - 1 and 2^31 - 1: their lcm
    exceeds 2^61, so the instance keeps its travel ticks as Python ints."""
    rng = random.Random(seed)
    values = [F(p // 2 + 7 * k, p) for p in ((1 << 61) - 1, (1 << 31) - 1) for k in range(3)]
    travel = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            travel[i][j] = travel[j][i] = rng.choice(values)
    travel[0][1] = travel[1][0] = values[0]  # both primes occur
    travel[1][2] = travel[2][1] = values[3]
    rates = sorted((rng.randint(1, 9) for _ in range(n)), reverse=True)
    return MetricInstance.normalized(rates, tuple(map(tuple, travel)))


@pytest.mark.parametrize("seed", range(6))
def test_simulate_walk_matches_the_reference_on_huge_denominators(seed):
    rng = random.Random(seed)
    inst = _huge_denominator_metric(rng.randint(3, 7), seed)
    assert inst._ticks.dtype == object
    for strict in (True, False):
        # a non-strict walk dawdles for times whose denominators the scale
        # lacks, so the replay's ticks must take them in
        walk = _random_walk(inst, rng, rng.randint(1, 40), strict)
        _same(
            simulate_walk(inst, walk, strict=strict),
            _reference_simulate_walk(inst, walk, strict=strict),
        )


@pytest.mark.parametrize("bad", [2.9, F(2), "2", True], ids=repr)
def test_simulate_walk_refuses_points_that_are_not_ints(bad):
    # a point is an index: nothing is truncated, and a bool is not bamboo 1
    inst = gen_random_metric(4, 7)
    d12, d21 = inst.travel[0][1], inst.travel[1][0]
    assert simulate_walk(inst, [(2, d12), (1, d12 + d21)], strict=True)
    walk = [(2, d12), (True, d12 + d21)] if bad is True else [(bad, d12), (1, d12 + d21)]
    with pytest.raises(ScheduleError, match="is not an int"):
        simulate_walk(inst, walk, strict=True)


def test_simulate_walk_refuses_inexact_times():
    # the replay counts integer ticks, so a float time has no tick
    inst = gen_random_metric(4, 7)
    d12 = inst.travel[0][1]
    with pytest.raises(TypeError, match="inexact"):
        simulate_walk(inst, [(2, float(d12))])


def test_a_steady_gap_above_the_largest_is_refused_under_python_O():
    # no report path reaches this raise: a steady gap never outgrows its
    # bamboo's largest; the builder checks it anyway, also without asserts
    script = """if __debug__:
    raise SystemExit("expected to run under python -O")
from bgt import CertificateError, core
try:
    core._report([2, 1], 3, [4, 4], [4, 9], lambda i: 0, None)
except CertificateError as exc:
    print("raised:", exc)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bgt.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: steady-state max 3 above global max 8/3\n"


def test_simulate_walk_rejects_each_bad_leg_like_the_reference():
    inst = gen_random_metric(4, 7)
    good = _random_walk(inst, random.Random(7), 6, True)
    v, t = good[2]
    d = inst.travel[good[1][0] - 1][v - 1]
    bad_legs = [
        (0, t),  # point out of range
        (inst.n + 1, t),
        (v, good[1][1]),  # time does not increase
        (v, t - d / 2),  # faster than the travel time
        (v, t + 1),  # slower than the travel time: only strict mode rejects
    ]
    for leg in bad_legs:
        walk = good[:2] + [leg] + good[3:]
        for strict in (True, False):
            try:
                expected = _reference_simulate_walk(inst, walk, strict=strict)
            except ScheduleError as exc:
                with pytest.raises(ScheduleError) as err:
                    simulate_walk(inst, walk, strict=strict)
                assert str(err.value) == str(exc)
            else:
                assert not strict
                _same(simulate_walk(inst, walk, strict=strict), expected)
    with pytest.raises(ValueError):
        simulate_walk(inst, [])


# --- per-bamboo heights built on first read ---------------------------------


def _field_values(report):
    return [getattr(report, f.name) for f in fields(SimulationReport)]


def _check_built_on_first_read(make):
    """make() returns a fresh report from the library; each is read one way
    and must match a report given all six fields."""
    assert "per_bamboo_max" not in vars(make())  # nothing built before a read
    eager = SimulationReport(*_field_values(make()))
    assert make() == eager and eager == make()
    assert hash(make()) == hash(eager)
    assert repr(make()) == repr(eager)
    assert replace(make(), horizon=7) == replace(eager, horizon=7)
    assert pickle.dumps(make()) == pickle.dumps(eager)
    assert pickle.loads(pickle.dumps(make())) == eager
    assert copy.copy(make()) == eager
    named = dict(zip((f.name for f in fields(SimulationReport)), _field_values(make())))
    assert SimulationReport(**named) == make()
    report = make()
    per = report.per_bamboo_max
    assert report.per_bamboo_max is per  # built once
    assert len({id(h) for h in per}) == len(set(per))  # one Fraction per distinct height
    assert per[report.argmax_bamboo - 1] is report.global_max


@settings(max_examples=60, deadline=None)
@given(st.one_of(_residue_cases(), _list_cases()))
def test_cyclic_reports_build_their_heights_on_first_read(case):
    rates, sched = case
    _check_built_on_first_read(lambda: evaluate_cyclic(rates, sched))


@settings(max_examples=60, deadline=None)
@given(_rates, st.data())
def test_discrete_reports_build_their_heights_on_first_read(rates, data):
    cuts = data.draw(st.lists(st.integers(0, rates.n), min_size=1, max_size=30))
    _check_built_on_first_read(lambda: simulate_discrete(rates, cuts))


@pytest.mark.parametrize("seed", range(6))
def test_walk_reports_build_their_heights_on_first_read(seed):
    rng = random.Random(seed)
    inst = gen_random_metric(rng.randint(2, 7), seed)
    walk = _random_walk(inst, rng, rng.randint(1, 40), False)
    _check_built_on_first_read(lambda: simulate_walk(inst, walk))


# --- reports pinned by digest ------------------------------------------------
# sha256 of repr(report) for seeded inputs at default arguments, recorded
# before the replays lost their tail and cut-off switches.  repr covers
# every field, the number types included, so any drift in a report shows.

_PINNED = {
    "simulate_discrete n=1": "7a6abdb05195f2e4f9b85364f961ed99ec447853fe39a73e8370487b1cb1ac6c",
    "evaluate_cyclic list n=1": "a8b8aa4cbadedf03309faf1607604d327c044847392c87ac7f2df234fd17f243",
    "reduce_max n=1": "d6958b934b1d5c7e70e6a6a8539f433c8773e7ecbe6278294a358aaabdd7cfee",
    "reduce_fastest n=1": "b085c9fc0c310c19809ab89e795330b27c3ffcbc5354ca4fc15ffac9d23ac484",
    "simulate_discrete n=3": "84454770019d55cb4fd149a3fb59d0383a72297b67fe2bcd718519d8d1007511",
    "evaluate_cyclic list n=3": "61b571fda1255d58433ce071a2eec1b0107b2f84855d4d84976c5443d51d4f92",
    "reduce_max n=3": "f7787fc8e7dd11f23638c9f8a12e15de7533673dcbf74a4c6e9901ae107ee3fd",
    "reduce_fastest n=3": "42e9d615f2115d77839a7fbbde2c1d930974eb9db1cca4b75853ab65b7d3cadc",
    "simulate_discrete n=6": "3436903cb97aeecdfdb0a41253e5fbf6fd7fc9e636b08731dc0055026c3373aa",
    "evaluate_cyclic list n=6": "bdbf7c8dedfd8da2cfc975587d786734823d27c045340b8b6a054b075756f63f",
    "reduce_max n=6": "79bcea59aa2fb32106605c83d1655af399f6e406c30be849722aee1a08f8b736",
    "reduce_fastest n=6": "f03ddd0fdff90843c8d9346bbc903bd23b2447d71d4a07fa06c6d9c9603a072d",
    "simulate_walk seed=3 strict=True": "4045c909a9e0cf820849325590e3782d37eeb48c81fef770c81a354d041556cb",
    "simulate_walk seed=3 strict=False": "f0233cc9f993e65e83a3ece2cf6ffcf2f54d37f43148321028cfac40f4c57858",
    "simulate_walk seed=4 strict=True": "a86ead1358416ae7930a83ce9907a787db3396280ee1507ff1e62481c63811cc",
    "simulate_walk seed=4 strict=False": "70ccb4a496e75921f6abdd048273bc3869f6ebb37a1e622a73caff34c9b1f5f3",
}


def _pinned_reports():
    rng = random.Random(20)
    for n in (1, 3, 6):
        rates = RateVector.sorted_from(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
        # 0 is an idle round; for n > 1 bamboo n is never cut
        cuts = [rng.randint(0, max(n - 1, 1)) for _ in range(40)]
        yield f"simulate_discrete n={n}", simulate_discrete(rates, cuts)
        period = list(range(1, n + 1)) + [rng.randint(0, n) for _ in range(5)]
        rng.shuffle(period)
        sched = ListSchedule(tuple(rng.randint(0, n) for _ in range(4)), tuple(period), n)
        yield f"evaluate_cyclic list n={n}", evaluate_cyclic(rates, sched)
        yield f"reduce_max n={n}", reduce_max(rates, 50)[1]
        yield f"reduce_fastest n={n}", reduce_fastest(rates, F(3, 2), 50)[1]
    for seed in (3, 4):
        inst = gen_random_metric(rng.randint(3, 6), seed)
        for strict in (True, False):
            walk = _random_walk(inst, rng, 30, strict)
            report = simulate_walk(inst, walk, strict=strict)
            yield f"simulate_walk seed={seed} strict={strict}", report


def test_replay_reports_match_their_pinned_digests():
    got = {name: hashlib.sha256(repr(rep).encode()).hexdigest() for name, rep in _pinned_reports()}
    assert got == _PINNED
