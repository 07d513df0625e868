"""General-instance offline scheduler built around a large/small split.

Rates at least H/m are "large" (L), the rest "small" (S).  Depending on how
the mass is distributed, the instance is dispatched to one of seven cases:
each case interleaves a handful of sub-schedules through a fixed round-robin
slot pattern such as (L, L, L, S), where large sets are scheduled optimally
(state-space oracle) or by the 2-approximation, small sets by the main
frequency-reduction algorithm, and the single largest bamboo may get slots
of its own.  Every case comes with exact per-bamboo and per-token height
certificates, checked against a full simulation of the merged schedule;
the global bound is checked by `core._certify`, like every scheduler's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, log2
from typing import Sequence

from .core import (
    CertificateError,
    CyclicSchedule,
    ListSchedule,
    RateVector,
    ResidueSchedule,
    _certify,
    _cyclic_gaps,
    evaluate_cyclic,
    next_cuts_stream,
)
from .oracle import BudgetExceededError, DEFAULT_STATE_BUDGET, optimal_height
from .pinwheel import main_algorithm, two_approx


def default_group_count(n: int) -> Fraction:
    """The default split parameter m = log2(n) / (4 * log2(log2(n))).

    Logarithms are clamped below at 1, and the float result is converted to
    an exact rational so downstream comparisons stay exact.
    """
    a = log2(n) if n > 2 else 1.0
    if a < 1.0:
        a = 1.0
    b = log2(a) if a > 2.0 else 1.0
    return Fraction(a / (4.0 * b))


def split(rates: RateVector, threshold: Fraction) -> tuple[list[int], list[int]]:
    """Partition indices into (large, small) by rate >= threshold."""
    large = [i for i in range(1, rates.n + 1) if rates.rate(i) >= threshold]
    small = [i for i in range(1, rates.n + 1) if rates.rate(i) < threshold]
    return large, small


def rebalance(
    rates: RateVector,
    large: Sequence[int],
    small: Sequence[int],
    target: Fraction,
) -> tuple[list[int], list[int]]:
    """Move the largest small rates into the large side.

    A rate moves only while the remaining small mass stays at or above
    `target`, so the final small mass lands in [target, target + r) where r
    is the first rate left behind — unless it already started below target,
    in which case nothing moves.
    """
    l2, s2 = list(large), list(small)
    remaining = sum((rates.rate(i) for i in s2), Fraction(0))
    while s2:
        r0 = rates.rate(s2[0])
        if remaining - r0 >= target:
            l2.append(s2.pop(0))
            remaining -= r0
        else:
            break
    return l2, s2


# ---------------------------------------------------------------------------
# Merging sub-schedules through a slot pattern
# ---------------------------------------------------------------------------


def _lane_shape(schedule: CyclicSchedule) -> tuple[int, int]:
    """(preamble length, period length) of a lane in sub-rounds."""
    if isinstance(schedule, ResidueSchedule):
        pairs = schedule.pairs
        # bamboo i's cuts repeat with period q_i only from round p_i - q_i + 1
        return max([0] + [p - q for p, q in pairs]), lcm(*(q for _, q in pairs))
    return len(schedule.preamble), len(schedule.period)


def merge_schedules(
    pattern: Sequence[str],
    lanes: dict[str, tuple[CyclicSchedule, Sequence[int]]],
    n: int,
) -> ListSchedule:
    """Interleave per-token sub-schedules through a cyclic slot pattern.

    Slot r of the pattern feeds one sub-round of its token's lane; lane
    indices are translated to global ones through the token's index map.
    The result is an explicit (preamble, period) schedule over all n bamboos.
    """
    if not pattern:
        raise ValueError("empty slot pattern")
    unknown = set(pattern) - set(lanes)
    if unknown:
        raise ValueError(f"pattern tokens without a schedule: {sorted(unknown)}")
    P = len(pattern)
    counts = {t: pattern.count(t) for t in lanes}
    if any(c == 0 for c in counts.values()):
        raise ValueError("every lane must appear in the pattern")

    pre_cycles = 0
    period_cycles = 1
    for t, (sched, _) in lanes.items():
        pre_t, per_t = _lane_shape(sched)
        c = counts[t]
        pre_cycles = max(pre_cycles, -(-pre_t // c))
        period_cycles = lcm(period_cycles, per_t // gcd(per_t, c))

    streams = {t: next_cuts_stream(sched) for t, (sched, _) in lanes.items()}
    tables = {t: (0, *mapping) for t, (_, mapping) in lanes.items()}  # 0 stays idle
    rounds = [
        tables[t][next(streams[t])] for t in list(pattern) * (pre_cycles + period_cycles)
    ]
    cut = pre_cycles * P
    return ListSchedule(tuple(rounds[:cut]), tuple(rounds[cut:]), n)


def _dilated_gap(pattern_len: int, offsets: Sequence[int], g: int) -> int:
    """Largest merged gap when a lane with sub-gap g owns the given slots.

    Exact for any slot shape: the lane's sub-round k falls in slot
    offsets[k % c] of pattern cycle k // c, so g sub-rounds from slot s span
    offsets[(s + g) % c] + P * ((s + g) // c) - offsets[s] merged rounds,
    and the worst start is one of the c slots.
    """
    c = len(offsets)
    return max(
        offsets[(s + g) % c] + pattern_len * ((s + g) // c) - offsets[s] for s in range(c)
    )


# ---------------------------------------------------------------------------
# The case dispatcher
# ---------------------------------------------------------------------------


@dataclass
class _Lane:
    members: list[int]                  # global 1-based indices
    schedule: CyclicSchedule
    scheduler: str                      # "oracle" | "two_approx" | "main" | "single"
    sub_gaps: dict[int, int]            # global index -> max gap in the sub-schedule
    token_bound: Fraction               # certified sup over the lane's members
    opt: Fraction | None = None         # oracle value when scheduler == "oracle"
    delta: Fraction | None = None       # main-algorithm delta when scheduler == "main"
    oracle_fallback: bool = False


def _sub_rates(rates: RateVector, members: Sequence[int]) -> RateVector:
    if len(members) == rates.n:  # members are distinct indices: all of them
        return rates
    return RateVector([rates.rate(i) for i in members])


def _schedule_lane(
    rates: RateVector,
    members: list[int],
    scheduler: str,
    budget: int,
) -> _Lane:
    sub = _sub_rates(rates, members)
    fallback = False
    opt = delta = None
    if scheduler == "single":
        sched: CyclicSchedule = ResidueSchedule(((1, 1),))
        bound = sub.rates[0]
    elif scheduler == "oracle":
        try:
            opt, sched = optimal_height(sub, state_budget=budget)
            bound = opt
        except BudgetExceededError:
            scheduler, fallback = "two_approx", True
    if scheduler == "two_approx":
        sched = two_approx(sub)
        bound = 2 * sub.H
    elif scheduler == "main":
        sched, diag = main_algorithm(sub)
        bound, delta = diag.bound, diag.delta
    gaps = dict(zip(members, _cyclic_gaps(sub.n, sched)))
    return _Lane(members, sched, scheduler, gaps, bound, opt, delta, fallback)


def eight_fifths(
    rates: RateVector,
    m: Fraction | int | None = None,
    *,
    oracle_budget: int | None = None,
) -> tuple[CyclicSchedule, dict]:
    """Case-dispatched scheduler with exact per-case height certificates.

    Returns (schedule, certificate).  The certificate records the case, the
    slot pattern, every lane's scheduler and certified bound, and for every
    bamboo its realized supremum next to its certified height bound.  Every
    inequality is checked before returning; a broken one raises
    CertificateError, also under `python -O`.
    """
    budget = DEFAULT_STATE_BUDGET if oracle_budget is None else oracle_budget
    if m is None:
        m = default_group_count(rates.n)
    m = Fraction(m)
    if m <= 0:
        raise ValueError("the split parameter m must be positive")
    H = rates.H
    threshold = H / m
    large, small = split(rates, threshold)
    s_mass = sum((rates.rate(i) for i in small), Fraction(0))
    h1 = rates.rates[0]

    # --- dispatch (boundaries go to the lower-numbered case) ---
    if not large:
        case = 0
    elif s_mass > Fraction(3, 5) * H:
        case = 5
    elif len(large) == 1:
        case = 6
    elif s_mass <= Fraction(2, 5) * H:
        case = 1
    elif s_mass <= Fraction(8, 15) * H:
        case = 2 if h1 <= Fraction(8, 25) * H else 3
    else:
        case = 4

    if case == 0:
        pattern = ["A"]
        plan = {"A": (list(range(1, rates.n + 1)), "main")}
    elif case == 1:
        pattern = ["L", "L", "L", "S"]
        plan = {"L": (large, "oracle"), "S": (small, "main")}
    elif case == 2:
        pattern = ["L", "L", "S"]
        plan = {"L": (large, "oracle"), "S": (small, "main")}
    elif case == 3:
        big, rest = [large[0]], large[1:]
        l2, s2 = rebalance(rates, rest, small, Fraction(2, 5) * H)
        if h1 <= Fraction(2, 5) * H:
            pattern = ["L", "B", "L", "S"]
        else:
            pattern = ["B", "L", "B", "S"]
        plan = {"B": (big, "single"), "L": (l2, "two_approx"), "S": (s2, "main")}
    elif case == 4:
        l2, s2 = rebalance(rates, large, small, Fraction(8, 15) * H)
        pattern = ["L", "L", "S"]
        plan = {"L": (l2, "oracle"), "S": (s2, "main")}
    elif case == 5:
        l2, s2 = rebalance(rates, large, small, Fraction(3, 5) * H)
        pattern = ["L", "S"]
        plan = {"L": (l2, "two_approx"), "S": (s2, "main")}
    else:  # case 6
        pattern = ["B", "S"]
        plan = {"B": (large, "single"), "S": (small, "main")}

    # drop tokens with no members, then schedule each lane
    pattern = [t for t in pattern if plan[t][0]]
    plan = {t: v for t, v in plan.items() if v[0]}
    lanes = {
        t: _schedule_lane(rates, members, scheduler, budget)
        for t, (members, scheduler) in plan.items()
    }

    if case == 0:
        # one slot whose lane holds every bamboo: main_algorithm's certified
        # residue schedule is already the result
        merged = lanes["A"].schedule
    else:
        merged = merge_schedules(
            pattern, {t: (ln.schedule, ln.members) for t, ln in lanes.items()}, rates.n
        )
    report = evaluate_cyclic(rates, merged)

    P = len(pattern)
    per_bamboo = []
    tokens_cert: dict[str, dict] = {}
    global_bound = Fraction(0)
    for t, ln in lanes.items():
        offsets = [k for k, tok in enumerate(pattern) if tok == t]
        c = len(offsets)
        sub_sum = sum((rates.rate(i) for i in ln.members), Fraction(0))
        bounds = {i: _dilated_gap(P, offsets, g) * rates.rate(i) for i, g in ln.sub_gaps.items()}
        # token-level certified bound on every member's merged height
        if ln.scheduler == "oracle":
            token_bound = max(bounds.values())
            if case == 1 and token_bound > Fraction(3, 2) * ln.opt:
                raise CertificateError(f"token {t}: bound {token_bound} > 3/2 of OPT {ln.opt}")
        else:  # the lane's bound, dilated per unit of sub-gap
            token_bound = _dilated_gap(P, offsets, 1) * ln.token_bound
        member_max = Fraction(0)
        for i in ln.members:
            hb = bounds[i]
            realized = report.per_bamboo_max[i - 1]
            if not realized <= hb <= token_bound:
                raise CertificateError(
                    f"bamboo {i}: realized {realized} vs bound {hb}"
                    f" and token bound {token_bound} (token {t})"
                )
            member_max = max(member_max, realized)
            per_bamboo.append(
                {"index": i, "rate": rates.rate(i), "realized": realized, "height_bound": hb}
            )
        global_bound = max(global_bound, token_bound)
        tokens_cert[t] = {
            "members": ln.members,
            "scheduler": ln.scheduler,
            "sum": sub_sum,
            "count": c,
            "offsets": offsets,
            "bound": token_bound,
            "realized": member_max,
            "opt": ln.opt,
            "delta": ln.delta,
            "oracle_fallback": ln.oracle_fallback,
        }
    per_bamboo.sort(key=lambda e: e["index"])
    _certify(report, global_bound, "global_bound")

    cert = {
        "case": case,
        "m": m,
        "threshold": threshold,
        "H": H,
        "pattern": pattern,
        "tokens": tokens_cert,
        "per_bamboo": per_bamboo,
        "global_realized": report.global_max,
        "global_bound": global_bound,
    }
    return merged, cert
