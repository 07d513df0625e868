"""Exact optimum search and Pinwheel feasibility decisions."""

import hashlib
import random
from collections import deque
from fractions import Fraction as F
from math import floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bgt.oracle
from bgt import (
    BudgetExceededError,
    CertificateError,
    RateVector,
    evaluate_cyclic,
    feasible_under_cap,
    gen_reduce_max_12_7_family,
    opt_candidates,
    optimal_height,
    pinwheel_feasible,
    pinwheel_witness,
    simulate_discrete,
)


def test_opt_round_robin_instance():
    # (1/2, 1/4, 1/4): cutting 1,2,1,3 forever keeps everything at 1
    rates = RateVector([F(1, 2), F(1, 4), F(1, 4)])
    opt, witness = optimal_height(rates)
    assert opt == 1
    assert evaluate_cyclic(rates, witness).global_max == 1


def test_opt_of_a_single_bamboo_is_its_rate():
    # the k = 1 candidates: one bamboo cut every round peaks at its rate
    rates = RateVector([1])
    opt, witness = optimal_height(rates)
    assert opt == 1
    assert evaluate_cyclic(rates, witness).global_max == 1


def test_opt_non_trivial_value():
    rates = RateVector([F(7, 15), F(1, 3), F(1, 5)])
    opt, witness = optimal_height(rates)
    assert opt == F(4, 3)
    assert evaluate_cyclic(rates, witness).global_max == F(4, 3)


@pytest.mark.parametrize("eps", [F(1, 4), F(1, 8)])
def test_opt_two_bamboo_family(eps):
    # (1-eps, eps): OPT = 2(1-eps), alternating is forced
    rates = RateVector([1 - eps, eps])
    opt, witness = optimal_height(rates)
    assert opt == 2 * (1 - eps)
    assert evaluate_cyclic(rates, witness).global_max == opt


def test_opt_is_in_candidates_and_boundary_is_sharp():
    rates = RateVector([F(7, 15), F(1, 3), F(1, 5)])
    opt, _ = optimal_height(rates)
    cands = opt_candidates(rates)
    assert opt in cands
    below = [c for c in cands if c < opt]
    if below:
        assert not feasible_under_cap(rates, below[-1])
    assert feasible_under_cap(rates, opt)


def test_opt_within_h_and_2h():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(2, 5)
        rates = RateVector.sorted_from([F(rng.randint(1, 8), 8) for _ in range(n)])
        opt, witness = optimal_height(rates)
        assert rates.H <= opt <= 2 * rates.H
        assert evaluate_cyclic(rates, witness).global_max == opt


def test_pinwheel_classics():
    assert pinwheel_feasible([2, 4, 4])
    assert pinwheel_feasible([3, 3, 3])
    assert not pinwheel_feasible([2, 3, 6])
    for m in range(4, 31):
        assert not pinwheel_feasible([2, 3, m]), m
    # density 5/6 + 1/M <= 1 yet infeasible: the classic non-density obstruction
    assert pinwheel_feasible([2, 4, 8, 8])


def test_pinwheel_witness_satisfies_gaps():
    freqs = [2, 4, 4]
    witness = pinwheel_witness(freqs)
    assert witness is not None
    preamble, period = witness
    assert 0 not in period  # the witness never idles
    rates = RateVector.sorted_from([F(1, f) for f in freqs])
    rep = simulate_discrete(rates, list(preamble) + list(period) * 3)
    for i, f in enumerate(sorted(freqs)):
        # gap <= f_i <=> height <= f_i * (1/f_i) = 1
        assert rep.per_bamboo_max[i] <= 1
    assert pinwheel_witness([2, 3, 5]) is None


def test_budget_is_enforced():
    rates = RateVector([F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
    with pytest.raises(BudgetExceededError):
        optimal_height(rates, state_budget=2)


def test_infeasible_cap_below_H():
    rates = RateVector([F(1, 2), F(1, 2)])
    assert not feasible_under_cap(rates, F(3, 4))  # < H = 1, impossible
    assert feasible_under_cap(rates, 1)


def _reference_graph_size_and_feasible(limits):
    """The unreduced search: one branch per bamboo, states are raw age tuples.

    Returns (number of states, feasible).  Kept as the reference that the
    symmetry-reduced oracle is compared against.
    """
    n = len(limits)
    start = (0,) * n
    index = {start: 0}
    order = [start]
    succs = []
    head = 0
    while head < len(order):
        s = order[head]
        head += 1
        if any(s[i] + 1 > limits[i] for i in range(n)):
            succs.append(None)
            continue
        grown = tuple(a + 1 for a in s)
        row = []
        for c in range(n):
            t = grown[:c] + (0,) + grown[c + 1:]
            if t not in index:
                index[t] = len(order)
                order.append(t)
            row.append(index[t])
        succs.append(row)
    alive_out = [len(row) if row else 0 for row in succs]
    preds = [[] for _ in succs]
    for u, row in enumerate(succs):
        for v in row or ():
            preds[v].append(u)
    killed = [c == 0 for c in alive_out]
    queue = deque(u for u in range(len(succs)) if killed[u])
    while queue:
        for u in preds[queue.popleft()]:
            if not killed[u]:
                alive_out[u] -= 1
                if alive_out[u] == 0:
                    killed[u] = True
                    queue.append(u)
    return len(order), not killed[0]


def _differential_instances():
    # drawn as criterion 8 draws its oracle instances
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 5)
        yield RateVector.sorted_from([F(rng.randint(1, 8), 8) for _ in range(n)])
    # Pinwheel sets with repeated frequencies, as rates 1/f_i
    for freqs in ([3, 3, 3], [2, 4, 8, 8], [4, 4, 4, 4, 8]):
        yield RateVector.sorted_from([F(1, f) for f in freqs])


@pytest.mark.parametrize("rates", list(_differential_instances()))
def test_reduced_oracle_matches_unreduced_search(rates):
    # every cap below OPT, OPT and two caps past it; higher caps only grow
    # the unreduced graph (to 8*10^5 states on these draws)
    ref_opt = None
    past = 0
    for cap in opt_candidates(rates):
        limits = bgt.oracle._limits_for_cap(rates, cap)
        ref_states, ref_feasible = _reference_graph_size_and_feasible(limits)
        assert feasible_under_cap(rates, cap) == ref_feasible, cap
        reduced_states = len(bgt.oracle._build_graph(limits, 10**6)[0])
        assert reduced_states <= ref_states, cap
        if ref_opt is not None:
            past += 1
            if past == 2:
                break
        elif ref_feasible:
            ref_opt = cap
    opt, witness = optimal_height(rates)
    assert opt == ref_opt
    assert evaluate_cyclic(rates, witness).global_max == opt


@pytest.mark.parametrize("freqs", [[3, 3, 3], [8, 2, 8, 4], [4, 8, 4, 4, 4], [3, 2, 3], [6, 2, 3, 6]])
def test_pinwheel_any_order_matches_unreduced_search(freqs):
    feasible = _reference_graph_size_and_feasible(freqs)[1]
    assert pinwheel_feasible(freqs) == feasible
    witness = pinwheel_witness(freqs)
    assert (witness is not None) == feasible
    if witness:
        preamble, period = witness
        cuts = list(preamble) + list(period) * (max(freqs) + 1)
        for i, f in enumerate(freqs, start=1):
            # every window of f slots, once the preamble is over, contains i
            slots = [r for r, c in enumerate(cuts) if c == i]
            assert slots and slots[0] < f
            assert all(b - a <= f for a, b in zip(slots, slots[1:]))


def test_density_above_one_refutes_without_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched a cap the density refutes")

    monkeypatch.setattr(bgt.oracle, "_build_graph", no_search)
    assert not pinwheel_feasible([2, 3, 5])  # 1/2 + 1/3 + 1/5 > 1
    rates = gen_reduce_max_12_7_family(1)
    # at cap 17/20 the limits are 2 and 17: density 1/2 + 10/17 > 1
    assert bgt.oracle._limits_for_cap(rates, F(17, 20)) == [2] + [17] * 10
    assert not feasible_under_cap(rates, F(17, 20))


def test_low_density_verdicts_still_come_from_a_search(monkeypatch):
    # the 5/6 density theorem only steers optimal_height's binary search
    calls = []
    build = bgt.oracle._build_graph
    monkeypatch.setattr(bgt.oracle, "_build_graph", lambda *a: calls.append(a) or build(*a))
    assert feasible_under_cap(RateVector([F(1, 2), F(1, 4), F(1, 4)]), 2)  # density 1/2
    assert pinwheel_feasible([4, 8, 8])
    assert len(calls) == 2


def test_rm127_k1_is_solved_within_the_default_budget():
    rates = gen_reduce_max_12_7_family(1)
    opt, witness = optimal_height(rates)
    assert opt == F(9, 10)
    assert evaluate_cyclic(rates, witness).global_max == F(9, 10)
    with pytest.raises(BudgetExceededError):
        optimal_height(rates, state_budget=10**4)


def test_missing_witness_is_an_explicit_error(monkeypatch):
    monkeypatch.setattr(bgt.oracle, "_walk", lambda limits, solved: None)
    with pytest.raises(CertificateError):
        optimal_height(RateVector([F(1, 2), F(1, 4), F(1, 4)]))


def test_a_witness_above_opt_is_an_explicit_error(monkeypatch):
    # cutting 1, 2, 3 in turn lets bamboo 1 wait 3 rounds: height 3/2 > OPT = 1
    monkeypatch.setattr(bgt.oracle, "_walk", lambda limits, solved: ((), (1, 2, 3)))
    with pytest.raises(CertificateError, match="bamboo 1: height 3/2 exceeds OPT = 1"):
        optimal_height(RateVector([F(1, 2), F(1, 4), F(1, 4)]))


def test_stuck_witness_walk_is_an_explicit_error():
    # a start state marked alive although its only successor is a dead end
    with pytest.raises(CertificateError):
        bgt.oracle._walk([2, 2], ([[-1]], [False]))


def _reference_build_graph(limits, state_budget):
    """The reduced graph built on age tuples: the oracle's builder before its
    states were packed into one int each, kept as the reference for it."""
    runs = bgt.oracle._runs(limits)
    heads = [(a, limits[a]) for a, _ in runs]  # a run's first entry is its oldest
    start = (0,) * len(limits)
    index = {start: 0}
    order = [start]
    succs = []
    head = 0
    while head < len(order):
        grown = tuple([a + 1 for a in order[head]])
        head += 1
        row = [-1] * len(runs)
        # a run whose oldest member reaches its limit must be cut this round
        due = [r for r, (a, lim) in enumerate(heads) if grown[a] >= lim]
        if len(due) < 2:
            for r in due or range(len(runs)):
                a, b = runs[r]
                if b - a > 1 and grown[a + 1] >= limits[a]:
                    continue  # the run's next oldest would be due as well
                t = grown[:a] + grown[a + 1:b] + (0,) + grown[b:]
                k = index.get(t)
                if k is None:
                    k = len(order)
                    if k >= state_budget:
                        raise BudgetExceededError(state_budget, k)
                    index[t] = k
                    order.append(t)
                row[r] = k
        succs.append(row)
    return order, succs


def _graph_or_refusal(build, limits, state_budget):
    try:
        order, succs = build(limits, state_budget)
    except BudgetExceededError as err:
        return "refused", err.explored, str(err)
    return "built", len(order), succs


# limits from tiny to past 2^64, so that a field is wider than a machine word;
# each value repeats to form a run, and the budget keeps every draw small
_LIMIT = st.one_of(st.integers(1, 12), st.integers(1, 5000), st.integers(2**64 - 2, 2**66))
_SORTED_LIMITS = st.lists(st.tuples(_LIMIT, st.integers(1, 4)), min_size=1, max_size=4).map(
    lambda runs: sorted(v for v, m in runs for _ in range(m))[:7]
)


@settings(max_examples=300, deadline=None)
@given(_SORTED_LIMITS, st.integers(1, 4000))
@example([3] + [18] * 10, 10**6)  # rm127 k = 1 at its OPT: 77,600 states
@example([2, 2**64, 2**64, 2**64 + 1], 50)
@example([1], 1)
@example([2, 4, 8, 8], 1)
def test_packed_graph_matches_the_tuple_builder(limits, state_budget):
    # equal state counts and successor lists, or the same refusal
    assert _graph_or_refusal(bgt.oracle._build_graph, limits, state_budget) == _graph_or_refusal(
        _reference_build_graph, limits, state_budget
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 40), st.one_of(st.integers(1, 12), st.integers(1, 2**70))),
        min_size=1, max_size=6,
    ),
    st.fractions(min_value=F(1, 10), max_value=3, max_denominator=50),
    st.integers(0, 60),
    st.booleans(),
)
def test_limits_for_cap_match_floor_of_cap_over_rate(fracs, scale, k, candidate):
    rates = RateVector.sorted_from(F(num, den) for num, den in fracs)
    # a cap anywhere from H/10 to 3H, or a candidate product k * h_i
    cap = (k + 1) * rates.rates[k % rates.n] if candidate else scale * rates.H
    assert bgt.oracle._limits_for_cap(rates, cap) == [floor(cap / h) for h in rates.rates]


# sha256 of the repr of the list of (OPT, witness) pairs that optimal_height
# returns, and of the pinwheel_witness results, as the oracle built them on
# age tuples; the packed states must leave every witness bit-identical
_PINNED_ORACLE = {
    "criterion 1": "e45d7498b502f0567b1804fc97df32b19e1d32b597bf73ba778bc4cdb057cf26",
    "differential instances": "bc237475cbb34deb39e42500fbba26799f47b84b1ff074e00cad7fb880bf5cc6",
    "(5/12, 1/3, 1/3, 1/3, 1/4, 1/4)": "4b1c117f3dd1d877307f68046a474de0e81263e2b4c6bc7ee0cd7e3545571992",
    "rm127 k=1": "b91de67ea9bded9a850301392e028cb175646512fd0ca339bb15cdd01f30ecd9",
    "pinwheel witnesses": "729e36c0b5c17639e75c6d50fdc69c0333cc9f7a811c037b2c05d1491f2c3661",
}


def _pinned_oracle_outputs():
    yield "criterion 1", [
        optimal_height(RateVector(rates))
        for rates in ([F(1, 2), F(1, 4), F(1, 4)], [F(7, 15), F(1, 3), F(1, 5)],
                      [F(3, 4), F(1, 4)], [F(7, 8), F(1, 8)])
    ]
    yield "differential instances", [optimal_height(rates) for rates in _differential_instances()]
    six = RateVector([F(5, 12), F(1, 3), F(1, 3), F(1, 3), F(1, 4), F(1, 4)])
    yield "(5/12, 1/3, 1/3, 1/3, 1/4, 1/4)", [optimal_height(six)]
    yield "rm127 k=1", [optimal_height(gen_reduce_max_12_7_family(1))]
    freq_sets = ([3, 3, 3], [8, 2, 8, 4], [4, 8, 4, 4, 4], [3, 2, 3], [6, 2, 3, 6])
    yield "pinwheel witnesses", [pinwheel_witness(freqs) for freqs in freq_sets]


def test_oracle_outputs_match_their_pinned_digests():
    got = {name: hashlib.sha256(repr(out).encode()).hexdigest() for name, out in _pinned_oracle_outputs()}
    assert got == _PINNED_ORACLE
