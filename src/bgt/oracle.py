"""Brute-force ground truth for small instances.

Exact OPT for discrete instances via configuration-graph search, and exact
Pinwheel feasibility for small frequency sets.  Both questions reduce to the
same integer game: post-cut age vectors are states, one round advances every
age by 1 and zeroes the cut coordinate, and a height cap M translates into
per-bamboo age limits A_i = floor(M / h_i) that the *grown* vector must
respect (the grown height is attained at the cut instant, so the coordinate
about to be cut counts too).  An infinite schedule exists iff the initial
all-zero state survives iterative removal of dead ends.

The search runs on a symmetry-reduced graph.  Bamboos with equal limits are
interchangeable; sorted by limit they form contiguous *runs* (for a rate
vector the limits are already non-decreasing).  A state is the age tuple with
each run sorted in descending order, and it branches once per run, by
cutting that run's oldest member: drop the run's first entry and append 0.
This loses nothing, because feasibility is monotone in the ages and cutting
a younger member of the run leaves an age vector that dominates it.  A
state whose next grown vector would break a limit is a dead end and is never
stored; the edge into it is marked instead.  The reduced graph is the image
of the unreduced one, so it is never larger; the state budget counts the
reduced states stored.

A stored state is one Python int that packs the age vector into fixed-width
fields of w = max(A).bit_length() + 1 bits, about n*w bits a state.  Ages
never reach the top bit of their field, so growing every age is one
addition, the due test is one addition and one mask (a biased head field
sets its top bit exactly when its run is due), and cutting a run's oldest
member is a mask and a shift.  The limits themselves come from the rates'
integer weights, A_i = floor(floor(M Q) / w_i) with h_i = w_i / Q over
their common denominator Q, without a Fraction division per rate.

Two density rules, with D = sum of 1/A_i, avoid searches:

* D > 1 refutes a cap outright (bamboo i needs a 1/A_i share of the
  rounds); every decision function applies it.
* D <= 5/6 implies feasibility by Kawamura's density theorem for Pinwheel
  scheduling (STOC 2024).  Only `optimal_height`'s binary search uses it,
  and only to move the upper end.  The cap it returns is always confirmed
  by a witness search, and every infeasible verdict comes from a search or
  from D > 1, so no answer rests on the theorem alone.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Sequence

from .core import (
    CertificateError, ListSchedule, RateVector, _certify, evaluate_cyclic, frac, integer_weights,
)
from .pinwheel import _int_frequencies, density

DEFAULT_STATE_BUDGET = 10 ** 6
_KAWAMURA_DENSITY = Fraction(5, 6)


class BudgetExceededError(RuntimeError):
    """Raised when the configuration graph outgrows the state budget."""

    def __init__(self, budget: int, explored: int):
        super().__init__(f"state budget {budget} exceeded after {explored} states")
        self.budget = budget
        self.explored = explored


def _runs(limits: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal [start, end) index ranges of equal values in sorted limits."""
    runs = []
    start = 0
    for k in range(1, len(limits) + 1):
        if k == len(limits) or limits[k] != limits[start]:
            runs.append((start, k))
            start = k
    return runs


def _build_graph(limits: Sequence[int], state_budget: int):
    """Reachable reduced configuration graph under sorted grown-age limits.

    Only states whose next grown vector respects every limit become nodes
    (limits must be >= 1, so the start state is one).  Returns (order, succs)
    where order[k] is the k-th discovered state and succs[k] holds, per run
    in index order, the id of the state reached by cutting that run's oldest
    member, or -1 when that state would be a dead end.

    A state is one int: age i sits in a field of w = max(limits).bit_length()
    + 1 bits, field 0 the most significant.  A grown age is at most its limit,
    below 2^(w-1), so no field carries into the next, and each step is one
    big-int operation per state or per run:

    * grow: ``grown = state + ONES`` (a 1 in every field);
    * due test: ``d = (grown + BIAS) & FLAGS``, where BIAS adds 2^(w-1) - lim
      to each run's head field, so that field's top bit is set exactly when
      the head is due; ``d & (d - 1)`` means two runs are due (a dead end)
      and ``flag_run[d]`` names the single due run;
    * the run's next oldest is due as well: ``grown >> nxt & FIELD >= lim``;
    * cut the run's oldest member: keep the other fields and shift the run's
      younger members up one field, ``grown & KEEP | (grown & TAIL) << w``,
      which leaves 0 in the run's last field.
    """
    n = len(limits)
    w = limits[-1].bit_length() + 1
    top = 1 << (w - 1)
    field = (1 << w) - 1
    full = (1 << (n * w)) - 1
    ones = full // field  # a 1 at the bottom of every field
    bias = flags = 0
    flag_run = {}
    cuts = []  # per run: (index, next-oldest shift or -1, limit, KEEP, TAIL)
    for r, (a, b) in enumerate(_runs(limits)):
        lim = limits[a]
        shift = (n - 1 - a) * w  # position of the run's head field
        bias += (top - lim) << shift
        flags |= top << shift
        flag_run[top << shift] = r
        rmask = ((1 << ((b - a) * w)) - 1) << ((n - b) * w)
        tail = rmask & ~(field << shift)
        cuts.append((r, shift - w if b - a > 1 else -1, lim, full ^ rmask, tail))
    index = {0: 0}
    order = [0]
    succs: list[list[int]] = []
    nruns = len(cuts)
    head = 0
    while head < len(order):
        grown = order[head] + ones
        head += 1
        row = [-1] * nruns
        # a run whose oldest member reaches its limit must be cut this round
        d = (grown + bias) & flags
        if not d & (d - 1):
            for r, nxt, lim, keep, tail in (cuts[flag_run[d]],) if d else cuts:
                if nxt >= 0 and grown >> nxt & field >= lim:
                    continue  # the run's next oldest would be due as well
                t = grown & keep | (grown & tail) << w
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


def _peel(succs: list[list[int]]) -> list[bool]:
    """killed[k] = True iff state k cannot start an infinite schedule."""
    m = len(succs)
    alive_out = [len(row) - row.count(-1) for row in succs]
    preds: list[list[int]] = [[] for _ in range(m)]
    for u, row in enumerate(succs):
        for v in row:
            if v >= 0:
                preds[v].append(u)
    killed = [c == 0 for c in alive_out]
    queue = deque(u for u in range(m) if killed[u])
    while queue:
        v = queue.popleft()
        for u in preds[v]:
            if not killed[u]:
                alive_out[u] -= 1
                if alive_out[u] == 0:
                    killed[u] = True
                    queue.append(u)
    return killed


def _search(limits: Sequence[int], state_budget: int):
    """(succs, killed) of the peeled reduced graph for sorted limits, or None
    when they are refuted: by a limit below 1, by density > 1, or by a dead
    start state.  The one place a cap is decided infeasible."""
    if limits[0] < 1 or density(limits) > 1:
        return None
    _, succs = _build_graph(limits, state_budget)
    killed = _peel(succs)
    return None if killed[0] else (succs, killed)


def _walk(limits: Sequence[int], solved):
    """Deterministic (preamble, period) witness from a peeled reduced graph.

    `limits` are in caller order and `solved` was searched on them sorted
    stably.  Each step takes the first run whose successor survives peeling
    and cuts the run's oldest concrete member (lowest index on ties), which
    the replayed concrete ages identify; the first repeated (reduced state,
    concrete ages) pair closes the cycle.  None if `_search` refuted them.
    """
    if solved is None:
        return None
    succs, killed = solved
    perm = sorted(range(len(limits)), key=limits.__getitem__)
    runs = _runs([limits[i] for i in perm])
    ages = (0,) * len(limits)
    seq: list[int] = []
    cur = 0
    seen = {(cur, ages): 0}
    while True:
        for r, nxt in enumerate(succs[cur]):
            if nxt >= 0 and not killed[nxt]:
                break
        else:
            raise CertificateError(f"alive state {cur} has no alive successor")
        a, b = runs[r]
        cut = max(range(a, b), key=lambda i: (ages[i], -i))
        grown = [age + 1 for age in ages]
        grown[cut] = 0
        ages = tuple(grown)
        cur = nxt
        seq.append(perm[cut] + 1)
        pos = seen.get((cur, ages))
        if pos is not None:
            return seq[:pos], seq[pos:]
        seen[cur, ages] = len(seq)


def _limits_for_cap(rates: RateVector, cap: Fraction) -> list[int]:
    # (a+1) * h_i <= cap  <=>  a+1 <= floor(cap / h_i) = floor(floor(cap q) / w_i)
    # with h_i = w_i / q; non-decreasing in i
    w, q = integer_weights(rates)
    t = cap.numerator * q // cap.denominator
    return [t // wi for wi in w]


def feasible_under_cap(
    rates: RateVector, cap, state_budget: int = DEFAULT_STATE_BUDGET
) -> bool:
    """True iff some infinite schedule keeps every height <= cap."""
    cap = frac(cap)
    if cap <= 0:
        return False
    return _search(_limits_for_cap(rates, cap), state_budget) is not None


def opt_candidates(rates: RateVector) -> list[Fraction]:
    """Sorted candidate values for OPT: products k*h_i up to just past 2H.

    Any schedule's supremum is gap*rate for an integer gap, and OPT <= 2H,
    so OPT is among these products.
    """
    two_h = 2 * rates.H
    cands = set()
    for h in rates.rates:
        kmax = -((-two_h.numerator * h.denominator) // (two_h.denominator * h.numerator)) + 1
        for k in range(1, kmax + 1):
            c = k * h
            if c >= rates.H:  # OPT >= H, smaller caps can never be feasible
                cands.add(c)
    cands.add(two_h + rates.rates[0])  # guaranteed-feasible ceiling
    return sorted(cands)


def optimal_height(
    rates: RateVector, state_budget: int = DEFAULT_STATE_BUDGET
) -> tuple[Fraction, ListSchedule]:
    """Exact OPT and a witness cyclic schedule attaining it.

    Binary search over the sorted candidate heights (feasibility is monotone
    in the cap: a larger cap only loosens every age limit).  A cap is refuted
    only by a search or by density > 1; density <= 5/6 lowers the upper end
    without a search.  The witness is extracted from the surviving reduced
    graph at the optimal cap, which confirms it, and its evaluate_cyclic
    report is certified by `core._certify` to stay within OPT.

    Raises CertificateError if the final cap admits no witness or the
    witness exceeds it.
    """
    cands = opt_candidates(rates)
    lo, hi = 0, len(cands) - 1
    searched = None  # (candidate index, solved graph) of the last feasible search
    while lo < hi:
        mid = (lo + hi) // 2
        limits = _limits_for_cap(rates, cands[mid])
        if limits[0] < 1 or (dens := density(limits)) > 1:
            lo = mid + 1
        elif dens <= _KAWAMURA_DENSITY:
            hi = mid
        else:
            solved = _search(limits, state_budget)
            if solved is None:
                lo = mid + 1
            else:
                hi = mid
                searched = (mid, solved)
    opt = cands[lo]
    limits = _limits_for_cap(rates, opt)
    solved = searched[1] if searched and searched[0] == lo else _search(limits, state_budget)
    witness = _walk(limits, solved)
    if witness is None:
        raise CertificateError(f"no witness schedule at the optimal cap {opt}")
    preamble, period = witness
    witness = ListSchedule(tuple(preamble), tuple(period), rates.n)
    _certify(evaluate_cyclic(rates, witness), opt, "OPT")
    return opt, witness


def pinwheel_feasible(
    freqs: Sequence[int], state_budget: int = DEFAULT_STATE_BUDGET
) -> bool:
    """Exact Pinwheel feasibility: can every window of f_i slots contain i?

    Equivalent to feasible_under_cap on rates (1/f_1, ..., 1/f_n) with cap 1,
    run directly on integer ages.  Frequency 1 means "every slot".
    """
    return _search(sorted(_int_frequencies(freqs)), state_budget) is not None


def pinwheel_witness(
    freqs: Sequence[int], state_budget: int = DEFAULT_STATE_BUDGET
):
    """(preamble, period) witness slot assignment for a feasible Pinwheel
    instance, or None if infeasible.  The witness never idles: cutting
    something is always at least as good."""
    freqs = _int_frequencies(freqs)
    return _walk(freqs, _search(sorted(freqs), state_budget))
