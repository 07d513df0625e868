"""Exact-rational instances, cyclic schedules, their expansion, and
simulation engines.

Every height is exact and there is no floating point anywhere in height
accounting, so approximation guarantees are checked as hard inequalities.
Rates come in as `fractions.Fraction`s; the hot paths compare heights as
exact integers over the rates' common denominator (`integer_weights`, kept
on each RateVector) and build a `Fraction` only for a value they report.
A report is its heights: each bamboo's largest height, the largest of
them, and the lowest bamboo that attains it.  Every report comes from one
builder, `_report`, fed each bamboo's longest gap in integer units: rounds
for discrete replays and schedules, ticks over one common denominator for
walks.  One gap scan, `_gap_scan`, finds the gaps of both replays and of
list schedules, each bamboo's tail up to the end included.  `_report`
builds the global maximum at once; the per-bamboo maxima are built when
`per_bamboo_max` is first read, one `Fraction` per distinct height, and a
caller that reads only the maximum never builds them.  Cyclic schedules
come in two forms, residue pairs and (preamble, period) lists;
`next_cuts_stream` unrolls either form round by round.  A residue schedule
is expanded by one window fill, `_window`, one slice assignment per
bamboo: 256 rounds first, then one hyperperiod that repeats when it is at
most 2^20 rounds and every offset is at most its period, else windows of
2^20 rounds.  The first round two bamboos share ends the stream with a
ScheduleError.  One reader, `_cyclic_gaps`, gives either form's gaps to
`evaluate_cyclic` and to the lanes of `offline.eight_fifths`: max(p_i, q_i)
per residue pair, a preamble + 2 periods gap scan for a list.
`evaluate_cyclic` checks every residue schedule with `validate_residue`
(exact, period group by period group, for any hyperperiod).  Every
scheduler-wide height bound (2H, (1+delta)H, the 8/5 global bound, OPT) is
checked by one function, `_certify`, on a report from `_report`: an
explicit raise of CertificateError, so it also runs under `python -O`.

Conventions used throughout the package:

* bamboo indices are 1-based,
* rounds are 1-based; the first cut lands at the end of round 1,
* a cut index of 0 in a discrete schedule means "idle round" (no cut),
* a bamboo cut at round r and again at round r' attains height
  (r' - r) * h just before the second cut.
"""

from __future__ import annotations

import json
import random
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, cycle, islice, repeat
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from operator import ge, mul
from typing import IO, Iterable, Iterator, Sequence


class InstanceFormatError(ValueError):
    """Malformed instance/schedule input; `field` names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ScheduleError(ValueError):
    """A schedule violates its structural invariants (collision, bad index...)."""


class CertificateError(RuntimeError):
    """A certificate the program vouches for failed to hold: an internal
    fault, never malformed input.  Raised explicitly, so it survives -O."""


def frac(value) -> Fraction:
    """Convert a value to an exact Fraction.

    Accepts exactly Fraction, int, and strings such as "7/15" or "0.25",
    checked by type.  Floats are rejected on purpose: they would smuggle
    binary rounding into exact height accounting.  So are bools, which are
    ints to isinstance but no rate or time (a JSON `true` is not 1).
    """
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int or kind is str:
        return Fraction(value)
    raise TypeError(f"refusing inexact conversion to Fraction: {value!r}")


def integer_weights(rates: RateVector | Sequence[Fraction]) -> tuple[Sequence[int], int]:
    """Rationals as integers w_i = x_i * D over their common denominator D.

    For rates, a height h_i * t is then w_i * t / D, so heights compare as
    integers; the travel matrices of the continuous side scale the same way.
    A RateVector computes the pair once, in its constructor, and keeps it:
    pass the RateVector itself and the kept pair comes back, w as an
    array('q') when every weight is below 2^62 (8 bytes a bamboo) and as a
    tuple otherwise.  A bare sequence of Fractions or ints is converted per
    call, into a list.  With the weights kept as arrays and reports built
    on first read, main-corpus peak RSS rose 1.7 % (48.8 to 49.6 MB, median
    of 12 runs on 2 vCPUs), where a kept list of ints had cost 8-12 %.
    """
    if isinstance(rates, RateVector):
        return rates._weights
    ratios = [h.as_integer_ratio() for h in rates]
    d = lcm(*{den for _, den in ratios})
    return [num * (d // den) for num, den in ratios], d


@dataclass(frozen=True)
class RateVector:
    """Growth rates h_1 >= h_2 >= ... >= h_n > 0 with their cached sum H.

    The integer weights the constructor checks the rates on are kept for
    `integer_weights`.
    """

    rates: tuple[Fraction, ...]
    H: Fraction

    def __init__(self, rates: Iterable):
        rates = tuple(frac(r) for r in rates)
        if not rates:
            raise InstanceFormatError("rates", "at least one growth rate required")
        w, d = integer_weights(rates)
        # C-speed passes; the first offender is looked up only on failure
        if min(w) <= 0:
            k = next(k for k, wk in enumerate(w) if wk <= 0)
            raise InstanceFormatError("rates", f"rate #{k + 1} is {rates[k]}; must be positive")
        if not all(map(ge, w, islice(w, 1, None))):
            k = next(k for k in range(len(w) - 1) if w[k] < w[k + 1])
            raise InstanceFormatError(
                "rates",
                f"rates must be non-increasing; rate #{k + 1} = {rates[k]}"
                f" < rate #{k + 2} = {rates[k + 1]}",
            )
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "H", Fraction(sum(w), d))
        # not a field, so ==, hash and repr ignore it; pickles leave it out
        kept = array("q", w) if max(w) < 1 << 62 else tuple(w)
        object.__setattr__(self, "_weights", (kept, d))

    def __getstate__(self):
        return {"rates": self.rates, "H": self.H}

    def __setstate__(self, state):
        self.__init__(state["rates"])  # rebuilds H and the kept weights

    @classmethod
    def sorted_from(cls, values: Iterable) -> "RateVector":
        """Build a RateVector from rates in any order."""
        return cls(sorted((frac(v) for v in values), reverse=True))

    @property
    def n(self) -> int:
        return len(self.rates)

    def rate(self, i: int) -> Fraction:
        """1-based rate accessor."""
        return self.rates[i - 1]

    def scaled(self, c) -> "RateVector":
        c = frac(c)
        return RateVector(tuple(r * c for r in self.rates))

    def normalized(self) -> "RateVector":
        """Rescale so the rates sum to exactly 1."""
        return self.scaled(1 / self.H)


@dataclass(frozen=True)
class ResidueSchedule:
    """Cyclic schedule as per-bamboo (offset, period) pairs.

    Bamboo i is cut at rounds p_i + k*q_i for all k >= 0 (1-based rounds).
    Disjointness is not part of the type: `evaluate_cyclic` checks it on
    every schedule, whoever built it.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        raw = tuple(self.pairs)
        try:
            pairs = tuple(map(tuple, raw))
        except TypeError:  # an entry that is no sequence, named below
            pairs = raw
        object.__setattr__(self, "pairs", pairs)
        try:  # one bare pass: C-speed passes over the 2n values measured slower
            for p, q in pairs:
                if type(p) is not int or type(q) is not int or p < 1 or q < 1:
                    break
            else:
                return
        except (TypeError, ValueError):  # an entry that is no pair, named below
            pass
        for i, pq in enumerate(pairs, start=1):  # walked only to name the first offender
            try:
                p, q = pq
            except (TypeError, ValueError):
                raise ScheduleError(
                    f"bamboo {i}: {raw[i - 1]!r} is not an (offset, period) pair"
                ) from None
            # nothing is truncated, and bools are refused
            if type(p) is not int or type(q) is not int or p < 1 or q < 1:
                raise ScheduleError(f"bamboo {i}: offset/period ({p!r},{q!r}) must be ints >= 1")

    @property
    def n(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class ListSchedule:
    """Cyclic schedule as an explicit (preamble, period) list of cut indices."""

    preamble: tuple[int, ...]
    period: tuple[int, ...]
    n: int = 0  # 0 = infer from the largest index present

    def __post_init__(self):
        object.__setattr__(self, "preamble", tuple(self.preamble))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ScheduleError("period must be nonempty")
        cuts = self.preamble + self.period
        if set(map(type, cuts)) != {int}:  # nothing is truncated, and bools are refused
            i = next(i for i in cuts if type(i) is not int)
            raise ScheduleError(f"cut index {i!r} must be an integer")
        values = set(cuts)  # the ints are exact now, so the distinct values decide
        lo, hi = min(values), max(values)
        if self.n == 0:
            object.__setattr__(self, "n", hi)
        if lo < 0 or hi > self.n:
            i = next(i for i in cuts if i < 0 or i > self.n)
            raise ScheduleError(f"cut index {i} out of range 0..{self.n}")


CyclicSchedule = ResidueSchedule | ListSchedule


_TABLE_CAP = 1 << 20  # longest hyperperiod kept as a table, and the window past it: 8 MB


def _window(pairs: Sequence[tuple[int, int]], base: int, width: int) -> tuple[list[int], int]:
    """A residue schedule's cuts in rounds base + 1 .. base + width, and the
    1-based offset in that window of the first round two bamboos share
    (0 = none), which holds the lower index.

    Each bamboo fills its rounds with one extended-slice assignment of a
    list that repeats one int object, from the highest index down, so the
    lowest index wins a shared round.  The fill is clash-free exactly when
    it leaves width - (cuts written) rounds idle.  Only on a clash is the
    window filled again, lowest index first: the two fills first differ in
    the first shared round.
    """

    def fill(order):
        out, cuts = [0] * width, 0
        for i in order:
            p, q = pairs[i - 1]
            s = p - 1 - base if p > base else (p - 1 - base) % q
            if s < width:
                k = (width - 1 - s) // q + 1
                out[s::q] = [i] * k
                cuts += k
        return out, cuts

    out, cuts = fill(range(len(pairs), 0, -1))
    if out.count(0) == width - cuts:
        return out, 0
    other, _ = fill(range(1, len(pairs) + 1))
    return out, next(r for r, (a, b) in enumerate(zip(out, other), start=1) if a != b)


def next_cuts_stream(schedule: CyclicSchedule) -> Iterator[int]:
    """Stream a cyclic schedule round by round (0 = idle), forever.

    The one schedule-expansion primitive.  A residue schedule is filled by
    `_window`, one extended-slice assignment per bamboo.  Its first 256
    rounds come in one window, so a short prefix never waits for a longer
    fill.  Then, when its hyperperiod L = lcm(q_i) is at most 2^20 rounds
    and every offset is at most its period, the next L rounds are filled
    once (O(L + n)) and that one list repeats from there on; otherwise the
    stream goes on in windows of 2^20 rounds.  Two bamboos due in one round
    end the stream: the lower index is cut in that round, then a
    ScheduleError names the round.  A list schedule yields its preamble,
    then its period over and over.  Both are chained at C speed, with no
    Python frame per round.
    The stream is single-consumer.
    """
    if isinstance(schedule, ListSchedule):
        return chain(schedule.preamble, cycle(schedule.period))
    return chain.from_iterable(_residue_pieces(schedule.pairs))


def _residue_pieces(pairs: Sequence[tuple[int, int]]) -> Iterator[Iterable[int]]:
    """A residue schedule's stream in consecutive windows: 256 rounds, then
    one hyperperiod repeated or else windows of max(_TABLE_CAP, 256)
    rounds; on a clash, the rounds up to it, then ScheduleError."""
    base, width = 0, 256
    window, clash = _window(pairs, base, width)
    if not clash:
        yield window
        base, hyper = width, 1
        for q in {q for _, q in pairs}:
            hyper = lcm(hyper, q)
            if hyper > _TABLE_CAP:
                break
        # from round 1 on, bamboo i is cut in every round = p_i mod q_i iff p_i <= q_i
        table = hyper <= _TABLE_CAP and all(p <= q for p, q in pairs)
        width = hyper if table else max(_TABLE_CAP, width)  # never 0, even with the cap at 0
        window, clash = _window(pairs, base, width)
        if table and not clash:
            yield from repeat(window)  # not itertools.cycle, which keeps a second copy
        while not clash:
            yield window
            base += width
            window, clash = _window(pairs, base, width)
    yield window[:clash]
    raise ScheduleError(f"two bamboos scheduled in round {base + clash}: residue collision")


def validate_residue(schedule: ResidueSchedule) -> None:
    """Check that no two bamboos are ever cut in the same round.

    Classes p mod q and p' mod q' meet iff p = p' (mod gcd(q, q')).  So the
    offsets are grouped by period, where a repeated residue is a collision,
    and each pair of distinct periods reduces both groups modulo their gcd
    and tests them for overlap: exact for any hyperperiod, in about
    (distinct periods) x n steps.  It takes on up to the work of a pairwise
    test over 2048 bamboos, or 64 steps per bamboo if that is more: at most
    a constant factor more than reading the schedule.  The two bamboos a
    collision names are looked up only once it is found.
    """
    pairs = schedule.pairs
    groups: defaultdict[int, list[int]] = defaultdict(list)  # period -> offsets mod period
    for p, q in pairs:
        groups[q].append(p % q)
    residues = {q: set(group) for q, group in groups.items()}
    if any(len(residues[q]) != len(group) for q, group in groups.items()):
        seen: dict[tuple[int, int], int] = {}
        for i, (p, q) in enumerate(pairs, start=1):
            j = seen.setdefault((q, p % q), i)
            if j != i:
                raise ScheduleError(f"collision: bamboos {j} and {i} share rounds")
    work = max(2048 * 2048, 64 * len(pairs))
    if len(groups) * len(pairs) > work:
        raise ScheduleError(
            f"cannot validate disjointness: {len(groups)} distinct periods x "
            f"{len(pairs)} bamboos is above {work} steps"
        )
    periods = sorted(groups)
    # group q2 reduced mod g is kept from its first use to its last: the pairs
    # (q, q2) with gcd(q, q2) = g all share it
    uses = Counter((q2, gcd(q, q2)) for a, q in enumerate(periods) for q2 in periods[a + 1 :])
    theirs: dict[tuple[int, int], list[int]] = {}
    for a, q in enumerate(periods):
        group = groups[q]
        reduced = {q: residues[q]}  # gcd -> the group's offsets mod gcd
        for q2 in periods[a + 1 :]:
            g = gcd(q, q2)
            mine = reduced.get(g)
            if mine is None:
                mine = reduced[g] = {r % g for r in group}
            key = q2, g
            other = theirs.pop(key, None)
            if other is None:
                other = [r % g for r in groups[q2]]
            uses[key] -= 1
            if uses[key]:
                theirs[key] = other
            if not mine.isdisjoint(other):
                owner = {p % g: i for i, (p, qi) in enumerate(pairs, start=1) if qi == q}
                j = next(
                    j for j, (p, qj) in enumerate(pairs, start=1) if qj == q2 and p % g in owner
                )
                i = owner[pairs[j - 1][0] % g]
                raise ScheduleError(f"collision: bamboos {i} and {j} share rounds")


@dataclass(frozen=True)
class SimulationReport:
    """Exact per-bamboo height suprema for a schedule or walk.

    A report from `_report` builds per_bamboo_max on its first read and
    keeps it; ==, hash, repr, `dataclasses.replace` and pickling read it
    like any other field, so such a report is indistinguishable from one
    given all three fields.
    """

    per_bamboo_max: tuple[Fraction, ...]
    global_max: Fraction
    argmax_bamboo: int                      # lowest 1-based index attaining global_max

    def __getattr__(self, name):
        # reached only for an attribute not set, so per_bamboo_max is built once
        heights = self.__dict__.get("_heights") if name == "per_bamboo_max" else None
        if heights is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        tops, du = heights
        height = {t: Fraction(t, du) for t in set(tops)}
        height[tops[self.argmax_bamboo - 1]] = self.global_max  # one object, as built whole
        per = tuple(map(height.__getitem__, tops))
        object.__setattr__(self, "per_bamboo_max", per)
        self.__dict__.pop("_heights", None)
        return per

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _report(w, d, gaps, unit=1) -> SimulationReport:
    """The one place per-bamboo gaps become a SimulationReport.

    The k-th bamboo waits at most gaps[k] units of time 1/unit, so its
    height is w_k * gap over d * unit: heights compare as integers.  The
    report keeps them so until per_bamboo_max is first read, which builds
    one Fraction per distinct height.
    """
    tops = list(map(mul, w, gaps))
    top = max(tops)
    du = d * unit
    report = object.__new__(SimulationReport)  # per_bamboo_max is left to __getattr__
    report.__dict__.update(
        global_max=Fraction(top, du), argmax_bamboo=tops.index(top) + 1, _heights=(tops, du)
    )
    return report


def _certify(report: SimulationReport, bound: Fraction, name: str) -> SimulationReport:
    """The one check of a scheduler-wide height bound: the report back when
    its global_max is at most `bound`, else CertificateError naming its
    tallest bamboo (the lowest index on ties) and the bound as `name`.
    """
    if report.global_max > bound:
        raise CertificateError(
            f"bamboo {report.argmax_bamboo}: height {report.global_max} exceeds {name} = {bound}"
        )
    return report


def _gap_scan(n: int, cuts: Sequence[int], times: Iterable[int], end: int) -> list[int]:
    """The one gap-accounting kernel behind every replayed report.

    Bamboo cuts[k] (0 = idle) of 1..n is cut at integer time times[k];
    times increase strictly from 0, and the replay closes at `end`, where
    every bamboo's tail gap counts.  Returns each bamboo's longest gap
    (0-based list).  Indices are trusted here; callers check them.
    """
    last = [0] * (n + 1)
    best_gap = [0] * (n + 1)
    for c, t in zip(cuts, times):
        if not c:
            continue
        gap = t - last[c]
        if gap > best_gap[c]:
            best_gap[c] = gap
        last[c] = t
    for i in range(1, n + 1):
        gap = end - last[i]
        if gap > best_gap[i]:
            best_gap[i] = gap
    return best_gap[1:]


def simulate_discrete(rates: RateVector, schedule: Sequence[int]) -> SimulationReport:
    """Replay an explicit finite cut sequence and report exact height maxima.

    Per-bamboo maximum is h_i times the largest gap between consecutive cuts
    of i, counting the initial gap from round 0 and the tail gap from the
    last cut to the last round (a bamboo never cut in the sequence
    contributes its full-window height: that height really was attained).
    The report holds these maxima, the largest of them and the lowest
    bamboo that attains it.
    """
    if not schedule:
        raise ValueError("schedule must be nonempty")
    n = rates.n
    cuts = list(schedule)
    if set(map(type, cuts)) != {int}:  # nothing is truncated, and bools are refused
        r, c = next((r, c) for r, c in enumerate(cuts, start=1) if type(c) is not int)
        raise ScheduleError(f"cut index {c!r} at round {r} is not an int")
    if min(cuts) < 0 or max(cuts) > n:
        r, c = next((r, c) for r, c in enumerate(cuts, start=1) if not 0 <= c <= n)
        raise ScheduleError(f"cut index {c} out of range 0..{n} at round {r}")
    gaps = _gap_scan(n, cuts, range(1, len(cuts) + 1), len(cuts))
    return _report(*integer_weights(rates), gaps)


def _cyclic_gaps(n: int, schedule: CyclicSchedule) -> list[int]:
    """The one reader of a cyclic schedule's gaps: each of bamboos 1..n's
    longest wait in rounds (0-based list); sizes and disjointness are the
    caller's to check.  A residue pair waits at most max(p_i, q_i).
    """
    if isinstance(schedule, ResidueSchedule):
        return [p if p > q else q for p, q in schedule.pairs]
    # A bamboo the period never cuts grows without bound: no finite report.
    missing = set(range(1, n + 1)).difference(schedule.period)
    if missing:
        raise ScheduleError(f"period never cuts bamboo(s) {sorted(missing)}")
    # Every gap (initial gaps, preamble, transition, cyclic gaps) shows up in
    # the first preamble + 2 periods.  Every bamboo is cut in the second
    # period, so its tail is shorter than its wrap-around gap, which that
    # period closes: counting the tail changes nothing.
    cuts = schedule.preamble + schedule.period + schedule.period
    return _gap_scan(n, cuts, range(1, len(cuts) + 1), len(cuts))


def evaluate_cyclic(
    rates: RateVector, schedule: CyclicSchedule, *, validate: bool = True
) -> SimulationReport:
    """Exact supremum report for an infinite cyclic schedule, checked first
    (`validate` is kept for old callers and must be True).

    A residue schedule must cover exactly the instance's bamboos, and classes
    that meet raise ScheduleError (`validate_residue`).  A list schedule may
    name no bamboo past the instance's.  Bamboo i's supremum is h_i times
    its longest gap, read by `_cyclic_gaps`: max(p_i, q_i) for a residue
    pair, the longest gap over preamble + 2 periods for a list.  A period
    that never cuts some bamboo raises ScheduleError: that bamboo's height
    has no finite supremum.
    """
    if validate is not True:
        raise TypeError("evaluate_cyclic checks every schedule; validate must be True")
    if isinstance(schedule, ResidueSchedule):
        if schedule.n != rates.n:
            raise ScheduleError(f"schedule covers {schedule.n} bamboos, instance has {rates.n}")
        validate_residue(schedule)
    elif isinstance(schedule, ListSchedule):
        if schedule.n > rates.n:
            raise ScheduleError(f"schedule names bamboo {schedule.n}, instance has {rates.n}")
    else:
        raise TypeError(f"not a cyclic schedule: {schedule!r}")
    return _report(*integer_weights(rates), _cyclic_gaps(rates.n, schedule))


def simulate_walk(
    instance, walk: Sequence[tuple[int, Fraction]], *, strict: bool = False
) -> SimulationReport:
    """Replay a continuous walk (point, arrival time) and report exact maxima.

    The robot starts at `instance.start` at time 0; all bamboos have height 0
    then.  Points must be ints, arrival times strictly increasing, and each
    leg must take at least the travel time between its endpoints (shortcuts
    via the triangle inequality make faster-than-direct arrivals
    impossible).  With strict=True each leg must take exactly the travel
    time.  Gaps are accounted as in `simulate_discrete`, with the last
    arrival as the end.  The replay runs in integer ticks of 1/u, u the lcm
    of the travel matrix's denominator and those of the times.
    """
    if not walk:
        raise ValueError("walk must be nonempty")
    n = instance.rates.n
    points = [v for v, _ in walk]
    times = [frac(t) for _, t in walk]
    dens = {t.denominator for t in times}
    u = lcm(instance._scale, *dens)
    mult = {q: u // q for q in dens}
    arrivals = [t.numerator * mult[t.denominator] for t in times]
    travel, m = instance._ticks, u // instance._scale  # travel[a, b] * m ticks
    prev_v, prev_t = instance.start, 0
    for k, (v, t) in enumerate(zip(points, arrivals)):
        if type(v) is not int:  # nothing is truncated, and bools are refused
            raise ScheduleError(f"walk entry {k}: point {v!r} is not an int")
        if not 1 <= v <= n:
            raise ScheduleError(f"walk entry {k}: point {v} out of range 1..{n}")
        dt = t - prev_t
        if dt <= 0:
            raise ScheduleError(f"walk entry {k}: arrival times must be strictly increasing")
        d = travel.item(prev_v - 1, v - 1) * m  # a Python int for either dtype
        if dt < d:
            raise ScheduleError(
                f"walk entry {k}: leg {prev_v}->{v} takes {Fraction(dt, u)},"
                f" below travel time {Fraction(d, u)}"
            )
        if strict and dt != d:
            raise ScheduleError(
                f"walk entry {k}: leg {prev_v}->{v} takes {Fraction(dt, u)}"
                f" != travel time {Fraction(d, u)} (strict mode)"
            )
        prev_v, prev_t = v, t
    gaps = _gap_scan(n, points, arrivals, prev_t)
    w, d = integer_weights(instance.rates)
    return _report(w, d, gaps, u)


def gen_planted_head(n: int, head_ratio, seed: int) -> RateVector:
    """Random instance with a planted head fraction h_1/H = head_ratio.

    h_1 = 1; the other n-1 rates are random integer weights (within a factor
    of 4 of each other) rescaled to sum to 1/head_ratio - 1 exactly.  Needs n
    large enough that every tail rate stays <= 1; n >= 4/head_ratio is
    always enough.
    """
    ratio = frac(head_ratio)
    if not 0 < ratio <= 1:
        raise ValueError(f"head_ratio must be in (0, 1], got {ratio}")
    if ratio == 1:
        if n != 1:
            raise ValueError("head_ratio 1 forces n = 1")
        return RateVector([Fraction(1)])
    if n < 2:
        raise ValueError(f"need n >= 2 for head_ratio {ratio}")
    rng = random.Random(seed)
    weights = [rng.randint(1 << 10, 1 << 12) for _ in range(n - 1)]
    scale = (1 / ratio - 1) / sum(weights)
    rate_of = {w: w * scale for w in set(weights)}  # one product per distinct weight
    # scale > 0, so sorting the integer weights sorts the rates
    tail = [rate_of[w] for w in sorted(weights, reverse=True)]
    if tail[0] > 1:
        raise ValueError(f"n={n} too small for head_ratio={ratio}")
    return RateVector([Fraction(1)] + tail)


# ---------------------------------------------------------------------------
# File formats (shared by the CLI)
#
# A saved instance or schedule file is exactly the text that
# `json.dump(doc, fp, indent=2, sort_keys=True)` and a final newline would
# write, byte for byte.  `_write_json` writes it a chunk of a few thousand
# values at a time, each chunk formatted by one `%` or `join` at C speed,
# where `json.dump` with `indent` runs its pure-Python encoder one generator
# frame per value.  The CLI's reports (`cli._emit`: nested dicts, None,
# bools) stay on `json.dumps`.
# ---------------------------------------------------------------------------

# json's own encoders; repr(x) runs int.__repr__ for an exact int, minus a wrapper call
_SCALARS = {int: repr, str: encode_basestring_ascii}
_CHUNK = 8192  # values formatted per write


def _encoded(values: Sequence) -> Iterable[str]:
    """Scalars as json writes them; a value that is no int or str (a bool
    included) is a TypeError."""
    kinds = set(map(type, values))
    if not kinds <= _SCALARS.keys():
        names = sorted(kind.__name__ for kind in kinds - _SCALARS.keys())
        raise TypeError(f"cannot save {', '.join(names)} values: ints and strs only")
    if len(kinds) == 1:
        return map(_SCALARS[kinds.pop()], values)
    return [_SCALARS[type(x)](x) for x in values]


def _write_json(doc: dict, fp: IO[str]) -> None:
    """Write doc as `json.dump(doc, fp, indent=2, sort_keys=True)` and a
    newline would, for the documents bgt saves: a dict with str keys whose
    values are ints, lists of scalars, or lists of lists of scalars, where a
    scalar is an int or a str.  Any other shape is a TypeError."""
    if type(doc) is not dict or not set(map(type, doc)) <= {str}:
        raise TypeError("cannot save a document that is no dict with str keys")
    fp.write("{")
    sep = "\n  "
    for key, value in sorted(doc.items()):
        fp.write(f"{sep}{encode_basestring_ascii(key)}: ")
        sep = ",\n  "
        if type(value) is int:
            fp.write(repr(value))
        elif type(value) is not list:
            raise TypeError(f"cannot save {key!r}: an int or a list, not {type(value).__name__}")
        elif not value:
            fp.write("[]")
        elif set(map(type, value)) == {list}:
            _write_rows(value, fp)
        else:
            fp.write("[\n    ")
            for k in range(0, len(value), _CHUNK):
                fp.write(",\n    " if k else "")
                fp.write(",\n    ".join(_encoded(value[k : k + _CHUNK])))
            fp.write("\n  ]")
    fp.write("\n}\n" if doc else "}\n")


def _write_rows(rows: list[list], fp: IO[str]) -> None:
    """A list of lists of scalars, indented as a dict value: one `%`
    template per chunk of rows, built from one template per row length."""
    templates = {0: "[]"}
    step = max(1, _CHUNK // max(1, max(map(len, rows))))
    fp.write("[\n    ")
    for k in range(0, len(rows), step):
        chunk = rows[k : k + step]
        for size in set(map(len, chunk)) - templates.keys():
            templates[size] = "[\n      " + ",\n      ".join(["%s"] * size) + "\n    ]"
        template = ",\n    ".join(map(templates.__getitem__, map(len, chunk)))
        fp.write(",\n    " if k else "")
        fp.write(template % tuple(_encoded(list(chain.from_iterable(chunk)))))
    fp.write("\n  ]")


def _parse_rational_field(field: str, value) -> Fraction:
    try:
        return frac(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InstanceFormatError(field, f"not a rational number: {value!r} ({exc})")


def load_instance(source: IO[str] | str):
    """Load an instance JSON document (open file object, or the JSON text).

    Returns a RateVector, or a MetricInstance when a "travel" matrix is
    present.  Rational values may be strings ("7/15"), integers, or decimal
    literals (parsed exactly: 0.1 loads as 1/10, not as the nearest float).
    """
    if isinstance(source, str):
        doc = json.loads(source, parse_float=Fraction)
    else:
        doc = json.load(source, parse_float=Fraction)
    if not isinstance(doc, dict):
        raise InstanceFormatError("document", "instance file must be a JSON object")
    if "rates" not in doc:
        raise InstanceFormatError("rates", "missing")
    raw = doc["rates"]
    if not isinstance(raw, list):
        raise InstanceFormatError("rates", "must be a list")
    rates = RateVector([_parse_rational_field(f"rates[{k}]", v) for k, v in enumerate(raw)])
    if "travel" not in doc:
        return rates
    raw_t = doc["travel"]
    if not isinstance(raw_t, list) or any(not isinstance(row, list) for row in raw_t):
        raise InstanceFormatError("travel", "must be a square matrix (list of lists)")
    # Each distinct string is parsed once: a symmetric matrix repeats each
    # entry.  Strings only, since a key by value would let a JSON true pass as 1.
    parsed: dict[str, Fraction] = {}

    def entry(i: int, j: int, v) -> Fraction:
        x = _parse_rational_field(f"travel[{i}][{j}]", v)
        if type(v) is str:
            parsed[v] = x
        return x

    travel = tuple(
        tuple(
            parsed[v] if type(v) is str and v in parsed else entry(i, j, v)
            for j, v in enumerate(row)
        )
        for i, row in enumerate(raw_t)
    )
    start = doc.get("start", 1)
    if type(start) is not int:  # bools refused
        raise InstanceFormatError("start", f"must be an integer index, got {start!r}")
    from .continuous import MetricInstance  # local import: continuous builds on core

    return MetricInstance(rates=rates, travel=travel, start=start)


def instance_to_dict(obj) -> dict:
    if isinstance(obj, RateVector):
        return {"rates": [str(r) for r in obj.rates]}
    # each travel time is an exact integer tick over one scale: a symmetric
    # matrix repeats its entries, and each distinct tick is formatted once
    rows, scale = obj._ticks.tolist(), obj._scale
    text = {t: str(Fraction(t, scale)) for t in set(chain.from_iterable(rows))}
    return {
        "rates": [str(r) for r in obj.rates.rates],
        "travel": [list(map(text.__getitem__, row)) for row in rows],
        "start": obj.start,
    }


def save_instance(obj, fp: IO[str]) -> None:
    _write_json(instance_to_dict(obj), fp)


def load_schedule(source: IO[str] | str) -> CyclicSchedule:
    """Load a schedule JSON document ({"residue": ...} or {"preamble"/"period"})."""
    doc = json.loads(source) if isinstance(source, str) else json.load(source)
    if not isinstance(doc, dict):
        raise InstanceFormatError("document", "schedule file must be a JSON object")
    if "residue" in doc:
        pairs = doc["residue"]
        if not isinstance(pairs, list):
            raise InstanceFormatError("residue", "must be a list of [offset, period] pairs")
        try:  # ResidueSchedule names the first entry that is no such pair
            return ResidueSchedule(pairs)
        except ScheduleError as exc:
            raise InstanceFormatError("residue", str(exc))
    if "period" in doc:
        preamble, period, n = doc.get("preamble", []), doc["period"], doc.get("n", 0)
        if type(n) is not int:  # bools refused
            raise InstanceFormatError("n", f"must be an integer, got {n!r}")
        try:
            return ListSchedule(tuple(preamble), tuple(period), n)
        except (ScheduleError, TypeError) as exc:  # TypeError: not a list
            raise InstanceFormatError("period", str(exc))
    raise InstanceFormatError("document", 'schedule needs a "residue" or "period" field')


def schedule_to_dict(schedule: CyclicSchedule) -> dict:
    if isinstance(schedule, ResidueSchedule):
        return {"residue": [[p, q] for p, q in schedule.pairs]}
    return {"preamble": list(schedule.preamble), "period": list(schedule.period), "n": schedule.n}


def save_schedule(schedule: CyclicSchedule, fp: IO[str]) -> None:
    _write_json(schedule_to_dict(schedule), fp)
