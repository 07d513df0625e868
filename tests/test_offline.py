"""Case-dispatched offline scheduler and its exact certificates."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

from bgt import (
    CertificateError,
    ListSchedule,
    RateVector,
    ResidueSchedule,
    default_group_count,
    eight_fifths,
    evaluate_cyclic,
    main_algorithm,
    merge_schedules,
    rebalance,
    split,
)
from bgt import offline
from bgt.offline import _dilated_gap


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
    with pytest.raises(AssertionError):
        _dilated_gap(4, [0, 1], 3)                # irregular shape is refused


def test_merge_schedules_manual_example():
    lane_a = ResidueSchedule(((1, 2),))
    lane_b = ListSchedule((), (1, 2), 2)
    merged = merge_schedules(["A", "B"], {"A": (lane_a, (3,)), "B": (lane_b, (1, 2))}, 3)
    assert merged.preamble == ()
    assert merged.period == (3, 1, 0, 2)


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
    script = textwrap.dedent(
        """
        from fractions import Fraction
        import bgt, bgt.offline as off
        if __debug__:
            raise SystemExit("expected to run under python -O")
        real = off._dilated_gap
        off._dilated_gap = lambda pattern_len, offsets, g: real(pattern_len, offsets, g) - 1
        try:
            bgt.eight_fifths(bgt.RateVector([Fraction(3, 4), Fraction(1, 8), Fraction(1, 8)]), 2)
        except bgt.CertificateError as exc:
            print("raised:", exc)
        """
    )
    src = str(Path(offline.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: bamboo 1: realized 3/2 vs bound 3/4")
