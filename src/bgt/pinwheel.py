"""Pinwheel density machinery and the frequency-reduction scheduler.

The centerpiece is main_algorithm: starting from target frequencies
f''_i = (1+delta)H/h_i with delta an exact rational upper stand-in for
3*sqrt(h_1/H), it rounds every frequency down onto the grid 2^k*(1+j/C)
(one run of bamboos per grid value, since the rates are sorted), merges
equal frequencies by one rule, m copies of m*f -> one f (m = 2 above the
lowest layer; m = C+j copies of 2^min*(1+j/C) -> one power of two in it),
pushes stragglers into the next lower group, and finally assigns the
surviving powers of two pairwise-disjoint residue classes by dyadic (buddy)
allocation.  Expansion trees remember every merge in one flat forest: a
node is an int id, 1..n a bamboo and n+1, n+2, ... a merged node whose
children sit in one shared child list; its frequency is its bucket's.
Unfolding the trees one level at a time, with numpy over all nodes of the
level, gives the bamboos their (p_i, q_i) pairs, with
h_i * q_i <= (1+delta)H.  The schedulers here return `ResidueSchedule`s;
`bgt.core.next_cuts_stream` unrolls them round by round.

The arithmetic runs on the integer weights w_i = h_i * D (`integer_weights`);
densities are summed per distinct frequency.  The density bounds raise
CertificateError, and `core._certify` checks every h_i * max(p_i, q_i)
against the height bound, so both hold under `python -O` too; the
remaining `assert`s are internal invariants of the construction.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import isqrt
from operator import neg
from typing import Sequence

import numpy as np

from .core import (
    CertificateError, RateVector, ResidueSchedule, _certify, _cyclic_gaps, _report, integer_weights,
)


def density(freqs: Sequence[int] | Counter[int]) -> Fraction:
    """Sum of reciprocals; the necessary-feasibility measure.

    Summed as count/f over the distinct frequencies (or a Counter's keys).
    """
    if not freqs:
        raise ValueError("need at least one frequency")
    counts = Counter(freqs)
    for f in counts:
        if f < 1:
            raise ValueError(f"frequencies must be >= 1, got {f}")
    return sum((Fraction(c, f) for f, c in counts.items()), Fraction(0))


def _int_frequencies(freqs: Sequence[int]) -> list[int]:
    """The frequencies as a list; all but ints >= 1 (bools too) are refused."""
    freqs = list(freqs)
    for f in freqs:
        if type(f) is not int or f < 1:
            raise ValueError(f"frequencies must be ints >= 1, got {f!r}")
    return freqs


def sqrt_upper(x: Fraction) -> Fraction:
    """A rational s with sqrt(x) <= s <= sqrt(x) * (1 + 2^-30).

    sqrt(num/den) = sqrt(num*den)/den, and isqrt gives the floor of
    2^60 * sqrt(num*den); adding one unit makes it an upper bound with
    relative error below 2^-59.
    """
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return Fraction(0)
    u = isqrt((x.numerator * x.denominator) << 120)
    return Fraction(u + 1, x.denominator << 60)


# ---------------------------------------------------------------------------
# Expansion trees
# ---------------------------------------------------------------------------

# A node is an int id: 1..n is a bamboo, and n+1, n+2, ... are merged nodes,
# numbered in the order they are made.  Its frequency is its bucket's, so a
# node stores none.
Node = int


@dataclass
class FrequencyForest:
    """Working state of the reduction: grid buckets plus finished powers of two.

    An entry in bucket (k, j) has frequency 2^k + j*2^(k-q) = 2^k*(1+j/C).
    Group j = 0 is kept directly in `powers` as (node, frequency) pairs:
    these roots are powers of two, and nothing merges them further.
    Merged node n + 1 + i has `degrees[i]` children, which follow those of
    the merged nodes before it in the one flat list `children`.
    """

    min_layer: int
    q: int
    C: int
    n: int = 0  # the bamboos are nodes 1..n
    buckets: dict[tuple[int, int], list[Node]] = field(default_factory=dict)
    powers: list[tuple[Node, int]] = field(default_factory=list)
    children: list[Node] = field(default_factory=list)
    degrees: list[int] = field(default_factory=list)
    obs1_count: int = 0
    obs2_count: int = 0

    def grid_freq(self, k: int, j: int) -> int:
        return (1 << k) + (j << (k - self.q))

    def density(self) -> Fraction:
        """Total density of the nodes in the buckets and the powers, counted
        by bucket length."""
        counts = Counter(f for _, f in self.powers)
        for (k, j), nodes in self.buckets.items():
            counts[self.grid_freq(k, j)] += len(nodes)
        return density(counts)


def _merge(forest: FrequencyForest, layer: int, group: int) -> None:
    """Merge the bucket's equal frequencies f, m at a time in order, into f // m.

    m copies of 1/f are one 1/(f // m) exactly when m divides f.  Above the
    lowest layer m = 2 (Observation 1) and the merged nodes go one layer
    down in the same group; in the lowest layer m = C + group
    (Observation 2) and they are the power of two 2^(min-q).  Fewer than m
    nodes are left behind.  The identities are asserted.  The merged nodes
    get the next free ids, and their children, m each, go to the end of the
    forest's child list.
    """
    nodes = forest.buckets[layer, group]
    f = forest.grid_freq(layer, group)
    lowest = layer == forest.min_layer
    m = forest.C + group if lowest else 2
    assert f % m == 0, f"{m} copies of 1/{f} would change the density"
    cnt = len(nodes) // m
    first = forest.n + 1 + len(forest.degrees)
    merged = range(first, first + cnt)
    forest.children += nodes[: cnt * m]  # consecutive m-groups, in order
    forest.degrees += repeat(m, cnt)
    del nodes[: cnt * m]
    if lowest:
        assert f // m == 1 << (forest.min_layer - forest.q), "C + j copies make 2^(min-q)"
        forest.powers += zip(merged, repeat(f // m))
        forest.obs2_count += cnt
    else:
        forest.buckets.setdefault((layer - 1, group), []).extend(merged)
        forest.obs1_count += cnt


def _push_down(forest: FrequencyForest, layer: int, group: int, node: Node) -> None:
    """Reduce a node's frequency to the next lower group (cutting it more often)."""
    if group == 1:
        forest.powers.append((node, forest.grid_freq(layer, 0)))
    else:
        forest.buckets.setdefault((layer, group - 1), []).append(node)


# ---------------------------------------------------------------------------
# Dyadic residue allocation (powers of two)
# ---------------------------------------------------------------------------


def _allocate_dyadic(freqs: Sequence[int]) -> list[int]:
    """0-based offsets a_i with the classes (a_i mod f_i) pairwise disjoint.

    Frequencies must be powers of two with total density <= 1.  They are
    served in increasing order, each from the smallest free class that fits
    it: the one with the largest free modulus m <= f, split down to
    modulus f.  The split frees one class of each modulus 2m, 4m, ..., f,
    all above the moduli still free, so the free moduli stay pairwise
    distinct and form a stack, increasing to its top, with none above the
    f being served: the top is the best fit.  If no class were free, the
    free density would be below 1/f while at least 1/f of the budget
    remains unassigned — impossible.  So the starvation assertion can only
    fire if the density precondition was violated; every caller checks
    that precondition explicitly first.
    """
    order = sorted(range(len(freqs)), key=freqs.__getitem__)  # stable: ties by index
    free = [(1, 0)]  # free classes (modulus, offset), moduli increasing to the top
    out = [0] * len(freqs)
    for i in order:
        f = freqs[i]
        assert free, "dyadic allocation starved: density must have exceeded 1"
        m, a = free.pop()
        while m < f:
            free.append((2 * m, a + m))
            m *= 2
        out[i] = a
    return out


def schedule_powers_of_two(freqs: Sequence[int]) -> ResidueSchedule:
    """Disjoint residue classes (p_i mod f_i) for power-of-two frequencies.

    Errors on non-integers, non-powers of two or density > 1.  The classes
    are disjoint by the allocator's trie invariant, and `evaluate_cyclic`
    checks them like any other schedule's.
    """
    freqs = _int_frequencies(freqs)
    for f in freqs:
        if f & (f - 1):
            raise ValueError(f"not a power of two: {f}")
    dens = density(freqs)
    if dens > 1:
        raise ValueError(f"density {dens} > 1: no disjoint assignment exists")
    return _dyadic_schedule(freqs)


def _dyadic_schedule(freqs: list[int]) -> ResidueSchedule:
    offsets = _allocate_dyadic(freqs)
    return ResidueSchedule(tuple(zip([a + 1 for a in offsets], freqs)))


# ---------------------------------------------------------------------------
# The main (1 + delta)-approximation pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MainDiagnostics:
    """Instrumentation of one main_algorithm run; every bound is exact."""

    delta: Fraction                      # rational upper stand-in for 3*sqrt(h1/H)
    bound: Fraction                      # (1+delta)*H, the certified guarantee
    density_after_rounding: Fraction
    density_bound_after_rounding: Fraction   # (1+1/C)/(1+delta)
    final_density: Fraction
    min_layer: int
    max_layer: int
    C: int
    K: int                               # 2^min / C^2, always 1 or 2
    obs1_count: int
    obs2_count: int
    realized_max: Fraction


def main_algorithm(rates: RateVector) -> tuple[ResidueSchedule, MainDiagnostics]:
    """Cyclic schedule with every height <= (1+delta)*H, delta ~ 3*sqrt(h1/H).

    Steps: (1) target frequencies f''_i = (1+delta)H/h_i and grid parameters
    min/max/C; (2) round each f''_i down to the grid; (3-4) merge equal
    entries top down: pairs above the lowest layer, bundles into powers of
    two in it; (5) push leftovers group by group downward, re-merging as we
    go; (6) dyadic residue allocation, unfolded through the expansion trees.
    """
    h = rates.rates
    n = rates.n
    delta = 3 * sqrt_upper(h[0] / rates.H)
    bound = (1 + delta) * rates.H
    if n == 1:
        sched = ResidueSchedule(((1, 1),))
        diag = MainDiagnostics(
            delta, bound, Fraction(1), Fraction(1), Fraction(1),
            0, 0, 1, 1, 0, 0, h[0],
        )
        return sched, diag

    # f''_i = bound / h_i = P / (b * w_i) over the integer weights w_i = h_i * D
    w, D = integer_weights(rates)
    b = bound.denominator
    P = bound.numerator * D
    f1 = P // (b * w[0])
    assert f1 >= 4, "the delta formula guarantees f''_1 >= 4"
    min_layer = f1.bit_length() - 1
    max_layer = (P // (b * w[-1])).bit_length() - 1
    q = min_layer // 2
    C = 1 << q
    forest = FrequencyForest(min_layer, q, C, n)

    # step 2: round down to the largest grid value <= f''_i.  The weights do
    # not increase, so f''_i does not decrease and each grid value takes one
    # run of bamboos: lo up to the first whose f'' reaches the next grid value
    lo = 0
    while lo < n:
        Q = b * w[lo]
        k = (P // Q).bit_length() - 1
        j = (P << q) // (Q << k) - C          # floor(f'' * C / 2^k) - C
        assert 0 <= j < C and k >= min_layer, "2^k <= f''_i < 2^(k+1), f''_i >= f''_1"
        # f''_i >= g exactly when w_i <= P // (b * g); grid_freq(k, C) = 2^(k+1)
        hi = bisect_left(w, -(P // (b * forest.grid_freq(k, j + 1))), lo, key=neg)
        run = range(lo + 1, hi + 1)
        if j:
            forest.buckets[k, j] = list(run)
        else:
            forest.powers += zip(run, repeat(1 << k))
        lo = hi

    dens2 = forest.density()
    dens2_bound = (1 + Fraction(1, C)) / (1 + delta)
    if dens2 > dens2_bound:
        raise CertificateError(
            f"rounded density {dens2} exceeds (1+1/C)/(1+delta) = {dens2_bound}"
        )

    # steps 3-4: merge equal frequencies, top layer down
    layers = range(max_layer, min_layer - 1, -1)
    for k in layers:
        for j in range(1, C):
            if forest.buckets.get((k, j)):
                _merge(forest, k, j)

    # step 5: push leftovers to the next lower group, re-merging as we go
    for k in layers:
        for j in range(C - 1, 0, -1):
            nodes = forest.buckets.get((k, j))
            if nodes:
                _merge(forest, k, j)
                while nodes:
                    _push_down(forest, k, j, nodes.pop(0))

    assert not any(forest.buckets.values()), "grid must be empty after push-downs"
    final_density = forest.density()  # the grid is empty: the powers' density
    if final_density > 1:
        raise CertificateError(f"final powers-of-two density {final_density} exceeds 1")

    # step 6: residues for the roots, unfolded through the trees
    roots, freqs = zip(*forest.powers)
    sched = ResidueSchedule(_unfold(forest, roots, _allocate_dyadic(freqs), freqs))
    report = _certify(_report(w, D, _cyclic_gaps(n, sched)), bound, "(1+delta)H")
    K = (1 << min_layer) // (C * C)
    assert K in (1, 2), "min_layer = 2q or 2q + 1, so 2^min / C^2 is 1 or 2"
    diag = MainDiagnostics(
        delta, bound, dens2, dens2_bound, final_density, min_layer, max_layer, C, K,
        forest.obs1_count, forest.obs2_count, report.global_max,
    )
    return sched, diag


def _unfold(forest: FrequencyForest, roots, offsets, freqs) -> tuple[tuple[int, int], ...]:
    """Every bamboo's (p_i, q_i) from its tree root's 0-based offset and period.

    One level of all trees at a time: a leaf i at (a, m) gets (a + 1, m),
    and child t of a node of degree d at (a, m) gets (a + t*m, m*d).
    Offsets and periods are object arrays, so they stay exact Python ints
    however large; ids, child starts and degrees are int64.
    """
    n = forest.n
    degrees = np.array(forest.degrees, dtype=np.int64)
    starts = degrees.cumsum() - degrees  # merged node n+1+i: children[starts[i]:][:degrees[i]]
    children = np.array(forest.children, dtype=np.int64)
    p = np.zeros(n + 1, dtype=object)
    q = np.zeros(n + 1, dtype=object)
    ids = np.array(roots, dtype=np.int64)
    a = np.array(offsets, dtype=object)
    m = np.array(freqs, dtype=object)
    while True:
        leaf = ids <= n
        p[ids[leaf]] = a[leaf] + 1
        q[ids[leaf]] = m[leaf]
        if leaf.all():
            break
        inner = ~leaf
        merged = ids[inner] - (n + 1)
        deg = degrees[merged]
        ends = deg.cumsum()
        base = (ends - deg).repeat(deg)  # where each child's eldest sibling sits in the level
        t = np.arange(len(base)) - base
        ids = children[starts[merged].repeat(deg) + t]
        m = m[inner]
        a = a[inner].repeat(deg) + t * m.repeat(deg)
        m = (m * deg).repeat(deg)
    assert q[1:].all(), "every bamboo is a leaf of one tree"
    return tuple(zip(p[1:].tolist(), q[1:].tolist()))


def two_approx(rates: RateVector) -> ResidueSchedule:
    """2-approximation: round 2H/h_i down to a power of two, allocate residues.

    f_i >= H/h_i keeps the density at most sum(h_i/H) = 1, and
    h_i * f_i <= 2H bounds every height (each offset is at most its
    period); both are certified.
    """
    w, D = integer_weights(rates)
    W2 = 2 * rates.H.numerator * (D // rates.H.denominator)   # 2H * D
    freqs: list[int] = []  # one run of bamboos per power of two, as in main_algorithm
    while (lo := len(freqs)) < len(w):
        k = (W2 // w[lo]).bit_length() - 1
        # W2 // w_i >= 2^(k+1) exactly when w_i <= W2 >> (k+1)
        hi = bisect_left(w, -(W2 >> (k + 1)), lo, key=neg)
        freqs += repeat(1 << k, hi - lo)
    dens = density(freqs)
    if dens > 1:
        raise CertificateError(f"two_approx frequencies have density {dens} > 1")
    sched = _dyadic_schedule(freqs)
    _certify(_report(w, D, _cyclic_gaps(rates.n, sched)), 2 * rates.H, "2H")
    return sched


def density_34_frequencies(rates: RateVector) -> list[int]:
    """Frequencies floor((1+delta)H/h_i) with delta = 1/3 + h_1/H.

    Their density is provably below 3/4 (verified exactly); no schedule is
    constructed here — scheduling arbitrary density-3/4 instances is out of
    scope.
    """
    delta = Fraction(1, 3) + rates.rates[0] / rates.H
    A = (1 + delta) * rates.H
    freqs = []
    for i, hi in enumerate(rates.rates, start=1):
        if A < 2 * hi:
            raise ValueError(
                f"precondition violated: (1+delta)H/h_{i} = {A / hi} < 2"
            )
        freqs.append((A.numerator * hi.denominator) // (A.denominator * hi.numerator))
    dens = density(freqs)
    if dens >= Fraction(3, 4):  # a theorem under the precondition
        raise CertificateError(f"density {dens} of the 3/4 frequencies is not below 3/4")
    return freqs


def gen_integer_frequencies(f1: int, seed: int) -> list[int]:
    """Random integer request periods with smallest period f1 and density
    safely below the Main Algorithm feasibility margin 1 - 3/sqrt(f1).

    Draws n between 8 and 512 log-uniformly, then n-1 periods
    log-uniformly in [f1, 1000*f1]; if their combined density overshoots
    the budget, all draws are scaled up by one common integer factor (keeps
    them integral and >= f1).
    """
    if f1 < 16:
        raise ValueError(f"f1 must be >= 16 (need 3/sqrt(f1) < 1 with room), got {f1}")
    rng = random.Random(seed)
    n = int(math.exp(rng.uniform(math.log(8), math.log(512))))
    target = 1 - sqrt_upper(Fraction(9, f1))
    room = target - Fraction(1, f1)
    lo, hi = math.log(f1), math.log(f1 * 1000)
    draws = [int(math.exp(rng.uniform(lo, hi))) for _ in range(n - 1)]
    dens = density(draws)
    if dens > room:
        ratio = dens / room
        c = -(-ratio.numerator // ratio.denominator)
        draws = [f * c for f in draws]
    freqs = sorted([f1] + draws)
    assert density(freqs) <= target, "scaling by c keeps the draws' density within room"
    return freqs
