"""Types, validation, and the exact simulation engines."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgt import (
    InstanceFormatError,
    ListSchedule,
    RateVector,
    ResidueSchedule,
    ScheduleError,
    evaluate_cyclic,
    frac,
    gen_planted_head,
    instance_to_dict,
    load_instance,
    load_schedule,
    schedule_to_dict,
    simulate_discrete,
    simulate_walk,
    validate_residue,
)
from bgt.pinwheel import next_cuts_stream


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


def test_residue_collision_found_by_crt_for_coprime_periods():
    # rounds 2+5k and 3+3k collide at 12; the hyperperiod is tiny but the
    # pairwise congruence path must find it too
    bad = ResidueSchedule(((2, 5), (3, 3)))
    with pytest.raises(ScheduleError):
        validate_residue(bad)


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
    rep = simulate_discrete(rates, [1, 1, 1, 1], include_tail=False)
    # b2 never cut: its height really reached 4 * 1/4 = 1
    assert rep.per_bamboo_max[1] == 1


def test_evaluate_residue_matches_stream_expansion():
    sched = ResidueSchedule(((1, 2), (2, 4), (4, 4)))
    validate_residue(sched)
    rates = RateVector([F(1, 2), F(1, 8), F(1, 8)])
    rep = evaluate_cyclic(rates, sched)
    # expand long enough to witness every cyclic gap, ignore the cut tail
    stream = next_cuts_stream(sched)
    window = [next(stream) for _ in range(4 + 3 * 4)]
    brute = simulate_discrete(rates, window, include_tail=False)
    assert rep.per_bamboo_max == brute.per_bamboo_max
    assert rep.global_max == brute.global_max


def test_evaluate_list_matches_long_simulation():
    rates = RateVector([F(1, 2), F(1, 3), F(1, 12)])
    sched = ListSchedule((2,), (1, 2, 1, 3), 3)
    rep = evaluate_cyclic(rates, sched)
    expanded = list(sched.preamble) + list(sched.period) * 6
    brute = simulate_discrete(rates, expanded, include_tail=False)
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
    brute = simulate_discrete(rates, list(period) * 5, include_tail=False)
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


def test_load_instance_names_bad_field():
    with pytest.raises(InstanceFormatError) as err:
        load_instance('{"rates": ["1/2", "nope"]}')
    assert err.value.field == "rates[1]"


def test_gen_planted_head_exact_ratio():
    for seed in range(5):
        rv = gen_planted_head(100, F(1, 16), seed)
        assert rv.n == 100
        assert rv.rate(1) / rv.H == F(1, 16)
        assert rv.rate(1) == 1
    assert gen_planted_head(50, F(1, 4), 0).rates != gen_planted_head(50, F(1, 4), 1).rates
    with pytest.raises(ValueError):
        gen_planted_head(3, F(1, 256), 0)  # tail rates would exceed h_1
