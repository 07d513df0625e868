"""Case-dispatched offline scheduler and its exact certificates."""

import hashlib
import random
from fractions import Fraction as F
from itertools import islice

import pytest

from bgt import (
    CertificateError,
    ListSchedule,
    RateVector,
    ResidueSchedule,
    default_group_count,
    eight_fifths,
    evaluate_cyclic,
    gen_planted_head,
    main_algorithm,
    merge_schedules,
    next_cuts_stream,
    rebalance,
    split,
)
from bgt import offline
from bgt.offline import _dilated_gap
from bgt.oracle import DEFAULT_STATE_BUDGET
from conftest import _run_under_O


def test_default_group_count_small_n_stays_in_case_0():
    assert default_group_count(2) == F(1, 4)
    assert default_group_count(4) == F(1, 2)
    for n in range(2, 6):
        assert default_group_count(n) <= F(1, 2)  # threshold >= 2H > h_1


def test_split():
    rates = RateVector([F(1, 2), F(1, 4), F(1, 4)])
    assert split(rates, F(3, 8)) == ([1], [2, 3])
    assert split(rates, F(1, 4)) == ([1, 2, 3], [])  # boundary goes large


C5_RATES = [F(1, 5)] + [F(1, 20)] * 16


def test_rebalance_hits_target_exactly():
    rates = RateVector(C5_RATES)
    large, small = split(rates, F(1, 8))
    assert large == [1]
    l2, s2 = rebalance(rates, large, small, F(3, 5))
    assert l2 == [1, 2, 3, 4, 5]
    assert sum(rates.rate(i) for i in s2) == F(3, 5)


def test_rebalance_noop_when_mass_already_at_or_below_target():
    rates = RateVector(C5_RATES)
    large, small = split(rates, F(1, 8))
    assert rebalance(rates, large, small, F(4, 5)) == (large, small)
    assert rebalance(rates, large, small, F(9, 10)) == (large, small)


def test_dilated_gap_shapes():
    assert _dilated_gap(4, [2], 3) == 12          # single slot
    assert _dilated_gap(4, [0, 2], 3) == 6        # evenly spaced
    assert _dilated_gap(4, [1, 3], 5) == 10
    assert _dilated_gap(4, [0, 1, 2], 5) == 7     # all but one slot: ceil(5*4/3)
    assert _dilated_gap(4, [0, 1], 3) == 7        # irregular: 3 sub-rounds from slot 1 span 7
    # every slot subset of patterns up to 6 slots: a bamboo its lane cuts
    # every g sub-rounds waits at most _dilated_gap merged rounds, and exactly
    # that long from some start.  Starting after r < g idle sub-rounds keeps
    # the first wait within one of g, and the r reach every slot as a start
    for size in range(1, 7):
        for mask in range(1, 1 << size):
            offsets = [k for k in range(size) if mask >> k & 1]
            pattern = ["A" if mask >> k & 1 else "B" for k in range(size)]
            idle = {"B": (ListSchedule((), (0,), 0), ())} if len(offsets) < size else {}
            for g in range(1, 8):
                merged = max(
                    evaluate_cyclic(
                        RateVector([1]),
                        merge_schedules(
                            pattern,
                            {"A": (ListSchedule((0,) * r, (1,) + (0,) * (g - 1), 1), (1,)), **idle},
                            1,
                        ),
                    ).global_max
                    for r in range(min(g, len(offsets)))
                )
                assert _dilated_gap(size, offsets, g) == merged, (offsets, size, g)


def test_merge_schedules_manual_example():
    lane_a = ResidueSchedule(((1, 2),))
    lane_b = ListSchedule((), (1, 2), 2)
    merged = merge_schedules(["A", "B"], {"A": (lane_a, (3,)), "B": (lane_b, (1, 2))}, 3)
    assert merged.preamble == ()
    assert merged.period == (3, 1, 0, 2)


def test_merge_schedules_starts_a_residue_lane_period_after_its_late_offsets():
    # bamboo 1 is cut in rounds 3, 5, 7, ...: not in round 1, so its cuts
    # repeat with period 2 only from round 2 on
    lane = ResidueSchedule(((3, 2), (2, 4)))
    merged = merge_schedules(["A"], {"A": (lane, [1, 2])}, 2)
    assert list(islice(next_cuts_stream(merged), 64)) == list(islice(next_cuts_stream(lane), 64))
    rates = RateVector([F(1, 2), F(1, 4)])
    assert evaluate_cyclic(rates, merged).global_max == evaluate_cyclic(rates, lane).global_max
    # a lane of two slots in three keeps its own stream in its slots
    lane_a = ResidueSchedule(((5, 2), (2, 4)))
    merged = merge_schedules(
        ["A", "B", "A"], {"A": (lane_a, [1, 2]), "B": (ResidueSchedule(((1, 1),)), [3])}, 3
    )
    stream = list(islice(next_cuts_stream(merged), 3 * 40))
    assert stream[1::3] == [3] * 40
    assert [c for r, c in enumerate(stream) if r % 3 != 1] == list(
        islice(next_cuts_stream(lane_a), 80)
    )


DESIGNED = [
    # (name, rates, m, case, pattern, global realized)
    ("two-large", [F(3, 8), F(3, 8)] + [F(1, 32)] * 8, 4, 1, ["L", "L", "L", "S"], F(2)),
    ("mid-small-mass", [F(19, 75), F(37, 150)] + [F(1, 20)] * 10, 5, 2, ["L", "L", "S"], F(12, 5)),
    ("tall-head-low", [F(9, 25), F(7, 50)] + [F(1, 20)] * 10, 10, 3, ["L", "B", "L", "S"], F(16, 5)),
    ("tall-head-high", [F(9, 20), F(1, 10)] + [F(1, 20)] * 9, 10, 3, ["B", "L", "B", "S"], F(16, 5)),
    ("heavy-small", [F(1, 4), F(1, 5)] + [F(1, 20)] * 11, 8, 4, ["L", "L", "S"], F(3)),
    ("mostly-small", C5_RATES, 8, 5, ["L", "S"], F(2)),
    ("lone-giant", [F(3, 4), F(1, 8), F(1, 8)], 2, 6, ["B", "S"], F(3, 2)),
]


@pytest.mark.parametrize("name,rates,m,case,pattern,realized", DESIGNED, ids=[d[0] for d in DESIGNED])
def test_designed_instances_certify(name, rates, m, case, pattern, realized):
    rv = RateVector(rates)
    sched, cert = eight_fifths(rv, m)
    assert cert["case"] == case
    assert cert["pattern"] == pattern
    assert cert["global_realized"] == realized
    # the certificate's inequalities hold entry by entry
    for entry in cert["per_bamboo"]:
        assert entry["realized"] <= entry["height_bound"]
    assert cert["global_realized"] <= cert["global_bound"]
    # and the merged schedule really evaluates to the recorded supremum
    rep = evaluate_cyclic(rv, sched)
    assert rep.global_max == cert["global_realized"]


def test_case1_oracle_lane_is_within_three_halves_of_its_opt():
    _, cert = eight_fifths(RateVector(DESIGNED[0][1]), 4)
    lane = cert["tokens"]["L"]
    assert lane["scheduler"] == "oracle"
    assert lane["bound"] <= F(3, 2) * lane["opt"]


def test_case5_large_token_is_tight():
    _, cert = eight_fifths(RateVector(C5_RATES), 8)
    lane = cert["tokens"]["L"]
    assert lane["bound"] == F(8, 5)
    assert lane["realized"] == F(8, 5)


def test_case6_giant_is_cut_every_other_round():
    _, cert = eight_fifths(RateVector(DESIGNED[6][1]), 2)
    b1 = cert["per_bamboo"][0]
    assert b1["realized"] == 2 * b1["rate"] == F(3, 2)


def test_small_n_defaults_to_case_0():
    rv = RateVector([F(1, 2), F(1, 4), F(1, 4)])
    sched, cert = eight_fifths(rv)
    assert cert["case"] == 0
    assert cert["pattern"] == ["A"]
    assert cert["global_realized"] <= cert["global_bound"]
    # the one lane's schedule is returned as is: main_algorithm's, certified
    main_sched, diag = main_algorithm(rv)
    assert sched == main_sched
    token = cert["tokens"]["A"]
    assert token["members"] == [1, 2, 3]
    assert (token["scheduler"], token["count"], token["offsets"]) == ("main", 1, [0])
    assert token["bound"] == cert["global_bound"] == diag.bound
    assert token["delta"] == diag.delta
    assert token["realized"] == cert["global_realized"]
    assert token["opt"] is None and token["oracle_fallback"] is False
    for entry in cert["per_bamboo"]:
        p, q = sched.pairs[entry["index"] - 1]
        assert entry["height_bound"] == entry["rate"] * max(p, q)


def test_oracle_budget_exhaustion_falls_back_to_two_approx():
    rv = RateVector(DESIGNED[0][1])
    sched, cert = eight_fifths(rv, 4, oracle_budget=1)
    lane = cert["tokens"]["L"]
    assert lane["oracle_fallback"] is True
    assert lane["scheduler"] == "two_approx"
    assert lane["opt"] is None
    rep = evaluate_cyclic(rv, sched)
    assert rep.global_max == cert["global_realized"] <= cert["global_bound"]


def _under_reported(pattern_len, offsets, g):
    return _dilated_gap(pattern_len, offsets, g) - 1


def test_certificate_raises_on_an_under_reported_gap(monkeypatch):
    rates = RateVector(DESIGNED[6][1])
    eight_fifths(rates, 2)  # the unbroken run certifies
    monkeypatch.setattr(offline, "_dilated_gap", _under_reported)
    with pytest.raises(CertificateError, match="bamboo 1: realized 3/2 vs bound 3/4"):
        eight_fifths(rates, 2)


def test_certificates_survive_python_O():
    out = _run_under_O(
        """
        from fractions import Fraction
        import bgt, bgt.offline as off
        real = off._dilated_gap
        off._dilated_gap = lambda pattern_len, offsets, g: real(pattern_len, offsets, g) - 1
        try:
            bgt.eight_fifths(bgt.RateVector([Fraction(3, 4), Fraction(1, 8), Fraction(1, 8)]), 2)
        except bgt.CertificateError as exc:
            print("raised:", exc)
        """
    )
    assert out.startswith("raised: bamboo 1: realized 3/2 vs bound 3/4")


# --- what the lanes' gap reader must keep ------------------------------------

# eight_fifths inputs with oracle lanes: (n, head ratio, seed, m) of
# gen_planted_head, in cases 1, 2 and 4
_PLANTED_ORACLE = [
    (6, F(1, 3), 0, 8),
    (7, F(1, 4), 1, 6),
    (8, F(1, 3), 2, 8),
    (6, F(1, 3), 14, 8),
    (6, F(3, 10), 0, 6),
    (8, F(3, 10), 2, 6),
    (10, F(1, 5), 4, 10),
    (10, F(1, 4), 4, 8),
    (11, F(1, 5), 5, 10),
    (12, F(1, 4), 6, 10),
]


def _e85_inputs():
    """(name, rates, m, keywords) of every pinned eight_fifths run."""
    runs = [(name, RateVector(rates), m, {}) for name, rates, m, *_ in DESIGNED]
    runs.append(("case-0", RateVector([F(1, 2), F(1, 4), F(1, 4)]), None, {}))
    runs.append(("fallback", RateVector(DESIGNED[0][1]), 4, {"oracle_budget": 1}))
    for n, ratio, seed, m in _PLANTED_ORACLE:
        runs.append((f"planted-{n}-{ratio}-{seed}", gen_planted_head(n, ratio, seed), m, {}))
    return runs


# sha256 of repr(eight_fifths(rates, m, **keywords)), the merged schedule and
# the whole certificate, as the lanes built them when each scheduler read
# its own gaps and an oracle lane evaluated its witness a second time
_E85_DIGESTS = {
    "two-large": "acd85d58a10eb4e34bfc4ede5f6b4a20c338c15cb03111847559a53c0a156a8b",
    "mid-small-mass": "a2900a5738f6cc8586a193d03d4ea8ccf0f3663ea57c38ad4f03d22ca602efd0",
    "tall-head-low": "70e726f3ce7f97135e744802dbb50a772a0da5181e7744450c46bd0779a5c0cd",
    "tall-head-high": "a14ec3f1d4900644847435504036fc2c54207b6e6d890cf8a8a3a8415e69cb13",
    "heavy-small": "d0404a4f5e553beb80cc0b90e56cc76824bf88da4f872313c265502a567b2f06",
    "mostly-small": "0f462a17e70c3e6c7ef9d0bac5b7c1ccf607a3ed504b2a473ffd76e4f4047848",
    "lone-giant": "be864ff95bc84eeffbdf43396c2876922aac282955ea488a8776f2e352e26f40",
    "case-0": "6576d4027e951770ddde0d2f7134e44c99bf45d3cf47c9c139a026ebc8a57465",
    "fallback": "adbe1bdb581c2a1100397a0b5f86395cb4597b4626c4b617f600b7fb3c7a9b82",
    "planted-6-1/3-0": "3a2934f9666b5d64cbdaf0ce93c480c34051431c6cb35431911adba484334bab",
    "planted-7-1/4-1": "ed663ab8350de684a6289aec60a6de76cb6d2beacaf3085730f3ee3e09417fb2",
    "planted-8-1/3-2": "f790a8ac777d9eac24e55eba6f5f3de79c9a8ca1fc3915c8faf6f9e0b25a4d94",
    "planted-6-1/3-14": "4dcbc2b2fc5549455d5b885d152850219a0d371bbfaf91131438db61db0c57f7",
    "planted-6-3/10-0": "9f204126c7de25e9ff042cdce254f6fc239990edfe24853261d38d87f30292ce",
    "planted-8-3/10-2": "6a2e4fb104b10b3167c77e8d1fe37d8318620bab88fba1436ef3baa6529c1365",
    "planted-10-1/5-4": "c3811d05cd3b1dbc7cf3cf48b31dba34345cc2a568196d4166ace5b7778941e9",
    "planted-10-1/4-4": "122ee69ddf6b1c0d5280a24859896695dc34c60e479e7e665cc0d949fa367ec8",
    "planted-11-1/5-5": "a583c788659c200cf0b1d97aaa8f238c8fb79b8ec3875766c1d5bf2c3b13d784",
    "planted-12-1/4-6": "42c609853b2bdcb4acb5017897e9221d3a50e376926a5e90f142a745c173cd8a",
}


def test_eight_fifths_outputs_match_their_pinned_digests():
    got = {}
    for name, rates, m, kw in _e85_inputs():
        out = eight_fifths(rates, m, **kw)
        if name.startswith("planted-"):  # the lanes these inputs are pinned for
            assert any(tok["scheduler"] == "oracle" for tok in out[1]["tokens"].values()), name
        got[name] = hashlib.sha256(repr(out).encode()).hexdigest()
    assert got == _E85_DIGESTS


@pytest.mark.parametrize("seed", range(6))
def test_lane_gaps_match_the_evaluated_sub_schedule(seed):
    rng = random.Random(seed)
    rates = gen_planted_head(12, F(1, 3), seed)
    runs = [  # (scheduler, most members, state budget); at budget 1 most oracle lanes fall back
        ("single", 1, DEFAULT_STATE_BUDGET),
        ("oracle", 5, DEFAULT_STATE_BUDGET),
        ("oracle", 5, 1),
        ("two_approx", 12, DEFAULT_STATE_BUDGET),
        ("main", 12, DEFAULT_STATE_BUDGET),
    ]
    for scheduler, most, budget in runs:
        members = sorted(rng.sample(range(1, rates.n + 1), rng.randint(1, most)))
        lane = offline._schedule_lane(rates, members, scheduler, budget)
        sub = RateVector([rates.rate(i) for i in members])
        report = evaluate_cyclic(sub, lane.schedule)
        assert lane.sub_gaps == {
            g: int(report.per_bamboo_max[k] / sub.rates[k]) for k, g in enumerate(members)
        }, (scheduler, members)
