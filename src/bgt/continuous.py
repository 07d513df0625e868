"""Continuous trimming on a metric space: a patrolling robot with unit speed.

A MetricInstance is n points with symmetric positive travel times obeying the
triangle inequality and growth rates normalized to sum to 1.  The three
patrol strategies trade generality for height guarantees:

* algorithm1 repeats an Euler tour of the global MST (gap <= 2*MST each);
* algorithm2 partitions points into rate classes [2^(i-1), 2^i) * h_min and
  round-robins them, walking each class's Euler tour for distance >= D per
  visit (gap <= 3s*(D + 2*MST(V_i)) for class i);
* algorithm3 is the same with classes anchored at n^-2 instead of h_min,
  sweeping the negligible-rate points (V_0) one per outer iteration
  (class gap <= (3s+1)(D + 2*MST(V_i)), V_0 gap <= (3Ds+D)*|V_0|).

Each algorithm is one plan, built per call: the classes it walks with
each class's MST (built once, for its term of the certified bound and, in
a walk, for its Euler tour), and the reach of one class visit.  Algorithm 1 (and
algorithm 2 on equal rates) is the one-class patrol whose visits are whole
tours.  One walk driver, `_patrol`, steps the tours of every plan and of
the two-cluster sweep; the callers stop it at a horizon or after a number
of outer iterations.

Travel times are exact rationals, held once as integer ticks over their
common denominator (int64 when they fit, Python ints otherwise).
Validation, the one Prim MST kernel behind tours and certificates, the MST
lower bound (its own Kruskal, incremental over rate prefixes) and the walk
driver all run on that integer matrix; Fractions are built only at the
edge: the cached `travel` view, walk times, bounds and reports.

Also here: Euler tours, the diameter and MST lower bounds, the
discrete-to-continuous reduction, and the adversarial instance generators
(spiral, two clusters) plus a random-metric generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Sequence

import numpy as np

from .core import (
    InstanceFormatError,
    RateVector,
    ResidueSchedule,
    _certify,
    _report,
    frac,
    integer_weights,
)
from .pinwheel import two_approx

_INT64_LIMIT = 1 << 61  # headroom so a sum of two scaled entries cannot overflow


def _scaled(rows) -> tuple[np.ndarray, int]:
    """A square matrix of rationals as integers over their common
    denominator: (m, scale) with rows[i][j] == m[i, j] / scale, held as
    `_reduced` holds it.  Ints and Fractions scale as they are, checked by
    type; `frac` parses the rest and refuses floats and bools."""
    flat = [x for row in rows for x in row]
    if not {int, Fraction}.issuperset(map(type, flat)):  # C-speed; other types are rare
        flat = list(map(frac, flat))
    ints, scale = integer_weights(flat)
    try:
        m = np.array(ints, dtype=np.int64)
    except OverflowError:
        m = np.array(ints, dtype=object)
    return _reduced(m.reshape(len(rows), -1), scale)


def _reduced(m: np.ndarray, scale: int) -> tuple[np.ndarray, int]:
    """An integer matrix over `scale`, both divided by their common gcd.

    m is held as int64 when the scale and every entry fit within 2^61 in
    absolute value, so the sum of two entries cannot overflow; otherwise as
    Python ints (dtype object), on which the same numpy expressions run
    exactly.
    """
    g = math.gcd(scale, int(np.gcd.reduce(m, axis=None)))
    if g > 1:
        m, scale = m // g, scale // g
    fits = scale <= _INT64_LIMIT and -_INT64_LIMIT <= m.min() and m.max() <= _INT64_LIMIT
    return m.astype(np.int64 if fits else object, copy=False), scale


def _check_travel(m: np.ndarray) -> None:
    """Zero diagonal, symmetric, positive off the diagonal, triangle inequality.

    The first defect of a row-by-row scan is reported, a row's diagonal
    entry before its other entries.  Once m is known symmetric, the pairs
    i < j cover every triangle, so the triangle scan visits each pair once
    (row i breaks one when t[i][j] - t[k][j] > t[i][k] for some j > i and
    any k); only on a defect does the per-k scan run, to name the first
    offender.
    """
    n = len(m)
    diag = np.diagonal(m) != 0
    asym = np.triu(m != m.T, 1)
    nonpos = np.triu(m <= 0, 1)
    rows = np.flatnonzero(diag | asym.any(axis=1) | nonpos.any(axis=1))
    if rows.size:
        i = int(rows[0])
        if diag[i]:
            raise InstanceFormatError("travel", f"nonzero diagonal entry t[{i}][{i}]")
        j = int(np.flatnonzero(asym[i] | nonpos[i])[0])
        if asym[i, j]:
            raise InstanceFormatError("travel", f"asymmetric: t[{i}][{j}] != t[{j}][{i}]")
        raise InstanceFormatError("travel", f"nonpositive distance t[{i}][{j}]")
    if not any(((m[i, i + 1:] - m[:, i + 1:]).max(axis=1) > m[i]).any() for i in range(n - 1)):
        return
    for k in range(n):
        bad = m > m[:, k][:, None] + m[k][None, :]
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            raise InstanceFormatError(
                "travel",
                f"triangle inequality violated: t[{i}][{j}] > t[{i}][{k}] + t[{k}][{j}]",
            )


@dataclass(frozen=True)
class MetricInstance:
    """n points, exact pairwise travel times, rates summing to 1 (start = b_1).

    Travel times are held once, as integer ticks over their common
    denominator (`_ticks` over `_scale`, reduced); `travel` is a read-only
    view of them as Fractions, built on first use and cached.  Equality is
    by value.
    """

    rates: RateVector
    start: int

    def __init__(self, rates, travel, start: int = 1):
        self._setup(rates, travel, None, start)

    @classmethod
    def _from_ticks(cls, rates, ticks: np.ndarray, scale: int, start: int = 1) -> "MetricInstance":
        """Travel times ticks[i, j] / scale, checked as the constructor checks rationals."""
        inst = cls.__new__(cls)
        inst._setup(rates, ticks, scale, start)
        return inst

    def _setup(self, rates, travel, scale: int | None, start: int) -> None:
        """`travel` is rational rows when `scale` is None, else integer ticks."""
        if not isinstance(rates, RateVector):
            rates = RateVector(list(rates))
        n = rates.n
        if n < 2:
            raise InstanceFormatError("rates", "a metric instance needs at least 2 points")
        if rates.H != 1:
            raise InstanceFormatError(
                "rates", f"rates must sum to 1 (got {rates.H}); use MetricInstance.normalized"
            )
        if len(travel) != n or any(len(row) != n for row in travel):
            raise InstanceFormatError("travel", f"must be an {n}x{n} matrix (one row per rate)")
        if scale is None:
            ticks, scale = _scaled(travel)
        else:
            ticks, scale = _reduced(travel, scale)
        _check_travel(ticks)
        if type(start) is not int or not 1 <= start <= n:  # bools refused
            raise InstanceFormatError("start", f"start must be a point index in 1..{n}")
        vars(self).update(rates=rates, start=start, _ticks=ticks, _scale=scale)

    @cached_property
    def travel(self) -> tuple[tuple[Fraction, ...], ...]:
        """The travel times as Fractions, one Fraction per distinct value."""
        of = {x: Fraction(x, self._scale) for x in np.unique(self._ticks).tolist()}
        return tuple(tuple(map(of.__getitem__, row)) for row in self._ticks.tolist())

    def __eq__(self, other):
        if not isinstance(other, MetricInstance):
            return NotImplemented
        same = (self.rates, self.start, self._scale) == (other.rates, other.start, other._scale)
        return same and np.array_equal(self._ticks, other._ticks)

    @property
    def n(self) -> int:
        return self.rates.n

    @property
    def diameter(self) -> Fraction:
        return Fraction(int(self._ticks.max()), self._scale)

    @classmethod
    def normalized(cls, rates, travel, start: int = 1) -> "MetricInstance":
        """Build an instance scaling the given rates so they sum to 1."""
        rv = rates if isinstance(rates, RateVector) else RateVector([frac(x) for x in rates])
        return cls(RateVector([h / rv.H for h in rv.rates]), travel, start)


# ---------------------------------------------------------------------------
# MST and Euler tours
# ---------------------------------------------------------------------------


def _prim(m: np.ndarray, verts: Sequence[int]) -> tuple[list[tuple[int, int]], int]:
    """Prim's MST on an integer matrix whose rows and columns are `verts`
    (sorted 1-based ids): the tree's edges in the order added, and its weight.

    Deterministic: among equal-weight candidate edges the one with the
    smaller tree endpoint, then smaller outside endpoint, wins.
    """
    k = len(verts)
    taken = m.max() + 1               # above every weight: marks points in the tree
    best = m[0].copy()                # cheapest edge from the tree to each point...
    parent = np.zeros(k, dtype=np.intp)  # ...and its tree endpoint (a position)
    outside = np.ones(k, dtype=bool)
    outside[0] = False
    best[0] = taken
    edges: list[tuple[int, int]] = []
    total = 0
    for _ in range(k - 1):
        w = best.min()
        ties = np.flatnonzero(best == w)
        x = int(ties[np.argmin(parent[ties])])  # first minimum: smallest outside point
        u, v = verts[int(parent[x])], verts[x]
        edges.append((u, v) if u < v else (v, u))
        total += int(w)
        outside[x] = False
        best[x] = taken
        d = m[x]
        better = outside & ((d < best) | ((d == best) & (parent > x)))
        best[better] = d[better]
        parent[better] = x
    return edges, total


def _tree(instance: MetricInstance, members: Sequence[int]) -> tuple[list[tuple[int, int]], int]:
    """`mst` over sorted `members` on the instance's integer travel matrix,
    its weight in ticks."""
    idx = np.asarray(members, dtype=np.intp) - 1
    return _prim(instance._ticks[np.ix_(idx, idx)], members)


def mst(vertices: Sequence[int], travel) -> tuple[list[tuple[int, int]], Fraction]:
    """Prim's MST over a vertex subset (1-based ids) of a dense metric.

    The travel entries (rationals, as `MetricInstance` takes them) are
    scaled to integers over their common denominator first.
    Deterministic: among equal-weight candidate edges the one with the
    smaller tree endpoint, then smaller outside endpoint, wins.
    """
    for v in vertices:
        if type(v) is not int or not 1 <= v <= len(travel):  # bools refused, nothing truncated
            raise ValueError(f"vertex {v!r} must be an int in 1..{len(travel)}")
    verts = sorted(set(vertices))
    if not verts:
        raise ValueError("need at least one point")
    m, scale = _scaled([[travel[a - 1][b - 1] for b in verts] for a in verts])
    edges, w = _prim(m, verts)
    return edges, Fraction(w, scale)


def euler_tour(edges: Sequence[tuple[int, int]], root: int) -> list[int]:
    """Closed DFS walk of a tree from `root`: every edge exactly twice.

    Returns the vertex sequence [root, ..., root] with 2*len(edges)+1 entries;
    consecutive entries are always tree-edge endpoints.
    """
    if not edges:
        return [root]
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if root not in adj:
        raise ValueError(f"root {root} is not an endpoint of any edge")
    for nbrs in adj.values():
        nbrs.sort()
    iters = {v: iter(nbrs) for v, nbrs in adj.items()}
    tour = [root]
    visited = {root}
    stack = [root]
    while stack:
        v = stack[-1]
        nxt = None
        for u in iters[v]:
            if u not in visited:
                nxt = u
                break
        if nxt is None:
            stack.pop()
            if stack:
                tour.append(stack[-1])
        else:
            visited.add(nxt)
            tour.append(nxt)
            stack.append(nxt)
    return tour


@dataclass
class ClassTour:
    """One rate class's patrol state: its MST's cyclic Euler tour and cursor."""

    tour: tuple[int, ...]  # cyclic vertex sequence; the closing edge wraps around
    cursor: int            # tour index of the last visited position


@dataclass
class TourState:
    """Patrol state across all classes plus the negligible-rate rotation."""

    classes: list[ClassTour]
    v0: tuple[int, ...]
    v0_next: int = 0


def _class_tour(edges, root: int, srow: list[int]) -> ClassTour:
    """A class tree's cyclic Euler tour from `root`, its cursor on the first
    tour position nearest the start (`srow`: the start's travel row)."""
    tour = tuple(euler_tour(edges, root)[:-1]) or (root,)
    dist = [srow[v - 1] for v in tour]
    return ClassTour(tour, dist.index(min(dist)))


def _patrol(instance: MetricInstance, state: TourState, reach: int):
    """Round-robin the classes (ascending), one V_0 point per outer iteration.

    Each class visit resumes its tour at the cursor and walks tour edges
    until the distance covered inside the class reaches `reach` ticks,
    stopping at the vertex where that happens; single-point classes are
    simply visited.  Steps `state` in place and yields after each outer
    iteration the walk so far: one list of (point, exact arrival time) legs,
    extended in place.  The caller's stop rule ends the patrol.
    """
    travel = instance._ticks.item  # travel(a, b): a Python int for either dtype
    scale = instance._scale
    t = 0
    pos = instance.start
    walk: list[tuple[int, Fraction]] = []

    def go(v: int) -> None:
        nonlocal t, pos
        if v != pos:
            t += travel(pos - 1, v - 1)
            pos = v
            walk.append((v, Fraction(t, scale)))

    while True:
        for ct in state.classes:
            tour, k = ct.tour, ct.cursor
            go(tour[k])
            entered = t  # the distance covered inside the class is t - entered
            while len(tour) > 1 and t - entered < reach:
                k = (k + 1) % len(tour)
                go(tour[k])
            ct.cursor = k
        if state.v0:
            go(state.v0[state.v0_next % len(state.v0)])
            state.v0_next += 1
        yield walk


# ---------------------------------------------------------------------------
# The three patrol algorithms
# ---------------------------------------------------------------------------


def algorithm2_classes(instance: MetricInstance) -> list[list[int]]:
    """Rate classes for algorithm2: class i holds [2^(i-1), 2^i) * h_min.

    Returns s = floor(log2(h_max/h_min)) + 1 lists (some possibly empty),
    lowest rates first.
    """
    rs = instance.rates
    hmin = rs.rates[-1]
    ratio = rs.rates[0] / hmin
    s = (ratio.numerator // ratio.denominator).bit_length()
    classes: list[list[int]] = [[] for _ in range(s)]
    for i in range(1, rs.n + 1):
        q = rs.rate(i) / hmin
        classes[(q.numerator // q.denominator).bit_length() - 1].append(i)
    return classes


def algorithm3_classes(instance: MetricInstance) -> tuple[list[int], list[list[int]]]:
    """(V_0, classes) for algorithm3: V_0 holds rates <= n^-2; class i holds
    (2^(i-1), 2^i] * n^-2 for i = 1..ceil(2*log2 n)."""
    n = instance.n
    thr = Fraction(1, n * n)
    s = (n * n - 1).bit_length()
    v0: list[int] = []
    classes: list[list[int]] = [[] for _ in range(s)]
    for i in range(1, n + 1):
        h = instance.rates.rate(i)
        if h <= thr:
            v0.append(i)
        else:
            q = h / thr
            k = (-(-q.numerator // q.denominator) - 1).bit_length()  # ceil(log2 q)
            classes[k - 1].append(i)
    return v0, classes


def _plan(
    instance: MetricInstance, algo: int
) -> tuple[list[tuple[list[tuple[int, int]], int]], tuple[int, ...], int, Fraction]:
    """Algorithm `algo`'s patrol: each walked class's MST edges and tour
    root, V_0, the reach of one class visit in ticks, and the height bound
    it certifies (`certificate_bound`).

    Algorithm 1, and algorithm 2 when all rates are equal (a single class
    needs no round-robin), walk one class: the global MST's Euler tour from
    the start, one whole tour (2*MST(V)) per visit.  Otherwise every
    nonempty class of `algorithm2_classes` or `algorithm3_classes` is
    visited for D, its tour rooted at its fastest point.  Each class's MST
    is built once, for its term of the bound and for the walk's tour.
    """
    if type(algo) is not int or algo not in (1, 2, 3):  # True, 2.0 and Fraction(3) name none
        raise ValueError(f"algo must be 1, 2 or 3, got {algo!r}")
    rs = instance.rates
    h, den = integer_weights(rs)  # h[i - 1] / den is point i's rate
    over = instance._scale * den  # a height is (ticks * rate weight) / over
    if algo == 1 or (algo == 2 and rs.rates[0] == rs.rates[-1]):
        edges, w = _tree(instance, range(1, instance.n + 1))
        return [(edges, instance.start)], (), 2 * w, Fraction(2 * w * h[0], over)
    v0, classes = ([], algorithm2_classes(instance)) if algo == 2 else algorithm3_classes(instance)
    s = len(classes)
    factor = 3 * s if algo == 2 else 3 * s + 1
    D = int(instance._ticks.max())
    trees = []
    best = 0
    for members in filter(None, classes):  # ascending, so members[0] has the highest rate
        edges, w = _tree(instance, members)
        trees.append((edges, members[0]))
        best = max(best, (D + 2 * w) * h[members[0] - 1])
    # V_0's term, (3s+1)*D*|V_0|*h_max(V_0), is never the largest: rates sum
    # to 1 over n >= 2 points, so point 1 has h_1 >= 1/n > n^-2 and its
    # class gives at least (3s+1)*D*h_1 >= (3s+1)*D/n, while |V_0| <= n - 1
    # and h <= n^-2 on V_0 give |V_0|*h_max(V_0) < 1/n.
    return trees, tuple(v0), D, Fraction(factor * best, over)


def _walk(instance: MetricInstance, algo: int, horizon_time) -> list[tuple[int, Fraction]]:
    """Algorithm `algo`'s patrol in whole outer iterations, until its walk
    time reaches `horizon_time`."""
    horizon = frac(horizon_time)
    if horizon <= 0:
        raise ValueError("horizon_time must be positive")
    trees, v0, reach, _ = _plan(instance, algo)
    srow = instance._ticks[instance.start - 1].tolist()
    state = TourState([_class_tour(edges, root, srow) for edges, root in trees], v0)
    return next(walk for walk in _patrol(instance, state, reach) if walk[-1][1] >= horizon)


def algorithm1(instance: MetricInstance, horizon_time) -> list[tuple[int, Fraction]]:
    """Repeat an Euler tour of the global MST until `horizon_time`.

    Every point recurs within one tour length, so each gap is at most
    2*MST(V) and every height at most 2*MST(V)*h_max.  Each tour takes
    exactly 2*MST(V), so the walk is ceil(horizon / (2*MST(V))) tours.
    """
    return _walk(instance, 1, horizon_time)


def algorithm2(instance: MetricInstance, horizon_time) -> list[tuple[int, Fraction]]:
    """Class round-robin patrol with D-length tour visits.

    With s = floor(log2(h_max/h_min)) + 1 classes, a class-i point's gap is
    at most 3s*(D + 2*MST(V_i)).  Equal-rate instances walk algorithm1's
    patrol (a single class needs no round-robin).
    """
    return _walk(instance, 2, horizon_time)


def algorithm3(instance: MetricInstance, horizon_time) -> list[tuple[int, Fraction]]:
    """algorithm2's round-robin re-anchored at n^-2, with one negligible-rate
    (V_0) point visited per outer iteration.

    Class-i gaps are at most (3s+1)(D + 2*MST(V_i)) for s = ceil(2*log2 n);
    V_0 gaps at most (3Ds + D)*|V_0|.  The heights of those V_0 gaps stay
    below point 1's class term, so `certificate_bound` is the classes' max.
    """
    return _walk(instance, 3, horizon_time)


def certificate_bound(instance: MetricInstance, algo: int) -> Fraction:
    """The exact height guarantee each patrol algorithm certifies.

    algorithm1: 2*MST(V)*h_max.  algorithm2: max over nonempty classes of
    3s*(D + 2*MST(V_i))*h_max(V_i) (algorithm1's bound when all rates are
    equal, matching the delegation).  algorithm3: max over classes of
    (3s+1)*(D + 2*MST(V_i))*h_max(V_i); V_0's height bound
    (3Ds+D)*|V_0|*h_max(V_0) is always below point 1's class term, so it
    never enters the maximum.  No Euler tour is built.
    """
    *_, bound = _plan(instance, algo)
    return bound


# ---------------------------------------------------------------------------
# Lower bounds and the discrete reduction
# ---------------------------------------------------------------------------


def lower_bound_diameter(instance: MetricInstance) -> Fraction:
    """Every patrol's supremum is at least D * h_max.

    Between consecutive visits of the point farthest from b_1's best spot the
    robot must cross at least the radius twice, and the radius is >= D/2.
    """
    return instance.diameter * instance.rates.rates[0]


def lower_bound_mst(instance: MetricInstance) -> tuple[Fraction, tuple[int, ...]]:
    """max over thresholds h of h * MST({points with rate >= h}), with the
    maximizing set (the first one, highest threshold, on ties).

    Any window shorter than MST(V') leaves some point of V' unvisited (a
    walk touching all of V' yields a spanning tree no heavier than its
    length), so some height reaches h_min(V') * MST(V') infinitely often.

    Rates are sorted, so each threshold's set extends the previous one by
    the points just reached.  By the cycle property an MST of the larger set
    needs only the previous MST's edges and the edges at the new points, so
    each threshold costs one Kruskal over those, in integer weights.
    """
    rates = instance.rates.rates
    n = len(rates)
    m = instance._ticks
    best = Fraction(0)
    best_set: tuple[int, ...] = (1,)
    tree_u = tree_v = np.zeros(0, dtype=np.intp)  # 0-based endpoints of the current MST
    p = 0
    for q in range(1, n + 1):
        if q < n and rates[q] == rates[q - 1]:
            continue
        new = np.arange(p, q)
        us = np.concatenate([tree_u, *(np.arange(b) for b in new)])
        vs = np.concatenate([tree_v, np.repeat(new, new)])
        w = m[us, vs]
        order = np.argsort(w, kind="stable")
        root = list(range(q))
        kept: list[int] = []
        weight = 0
        ends = zip(order.tolist(), us[order].tolist(), vs[order].tolist(), w[order].tolist())
        for e, a, b, d in ends:
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a != b:
                root[a] = b
                kept.append(e)
                weight += d
                if len(kept) == q - 1:
                    break
        tree_u, tree_v, p = us[kept], vs[kept], q
        value = rates[q - 1] * Fraction(weight, instance._scale)
        if value > best:
            best = value
            best_set = tuple(range(1, q + 1))
    return best, best_set


def discrete_as_continuous(rates: RateVector) -> tuple[ResidueSchedule, dict]:
    """Drive the discrete 2-approximation on any metric: one leg per round.

    Bamboo i is cut every q_i rounds, each round costs at most one diameter
    of travel, so its height stays within (h_i * q_i) * D <= 2H * D; against
    the D*h_max lower bound that is a 2H/h_max approximation factor.
    The coefficients h_i * q_i are the heights of a report on the periods,
    certified by `core._certify` to be at most 2H.
    """
    sched = two_approx(rates)
    periods = [q for _, q in sched.pairs]
    coeffs = _certify(_report(*integer_weights(rates), periods), 2 * rates.H, "2H")
    per = [
        {"index": i, "frequency": q, "coefficient": c}
        for i, (q, c) in enumerate(zip(periods, coeffs.per_bamboo_max), start=1)
    ]
    report = {
        "per_bamboo": per,
        "max_coefficient": coeffs.global_max,
        "ratio_bound": 2 * rates.H / rates.rates[0],
    }
    return sched, report


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def gen_spiral(n: int) -> MetricInstance:
    """Archimedean-spiral instance where greedy class patrols are tight.

    n = 8^g points from radius 1/2 outward with arc spacing d_1 = n^(-2/3)
    and ring separation d_2 = n^(-1/3).  Groups along the spiral (inner to
    outer): G_g, ..., G_1 with |G_i| = n/2^i and rate (3-eps)*2^i/(n*log2 n),
    then n^(2/3) filler points of rate n^(-4/3); eps = 3*n^(-2/3) makes the
    rates sum to exactly 1.  Euclidean distances are snapped up to multiples
    of 2^-40; only if that rounding breaks a triangle (the instance check
    refuses it) is the matrix closed under shortest paths and checked again.
    Closing a metric changes no entry, so both paths give the same instance.
    """
    if n < 8:
        raise ValueError("spiral instances need n >= 8")
    d1 = spiral_arc_spacing(n)
    g = round(math.log2(n) / 3)
    b = 1 / 2**g / (2 * math.pi)  # d_2 = 2^-g over a turn
    pts: list[tuple[float, float]] = []
    theta = 0.0
    for _ in range(n):
        r = 0.5 + b * theta
        pts.append((r * math.cos(theta), r * math.sin(theta)))
        theta += float(d1) / r
    scale = 1 << 40
    m = np.zeros((n, n), dtype=np.int64)
    m[np.triu_indices(n, 1)] = [
        math.ceil(math.hypot(xi - xj, yi - yj) * scale)
        for i, (xi, yi) in enumerate(pts)
        for xj, yj in pts[i + 1:]
    ]
    m += m.T
    log_n = 3 * g
    eps = Fraction(3, 4**g)
    rates: list[Fraction] = []
    for i in range(g, 0, -1):
        rates.extend([(3 - eps) * 2**i / (n * log_n)] * (n // 2**i))
    rates.extend([Fraction(1, 16**g)] * (4**g))
    assert len(rates) == n and sum(rates) == 1, "eps makes the groups and filler sum to 1"
    rv = RateVector(rates)
    try:
        return MetricInstance._from_ticks(rv, m, scale)
    except InstanceFormatError:
        for k in range(n):
            np.minimum(m, m[:, k][:, None] + m[k][None, :], out=m)
        return MetricInstance._from_ticks(rv, m, scale)


def spiral_arc_spacing(n: int) -> Fraction:
    """d_1 = n^(-2/3) for a spiral of n = 8^g points (exact)."""
    g = round(math.log2(n) / 3)
    if 8**g != n:
        raise ValueError(f"n must be a power of 8, got {n}")
    return Fraction(1, 4**g)


def gen_two_cluster(n: int, diameter) -> MetricInstance:
    """Two far-apart clusters of n/2 points with mirrored rate ladders.

    Each cluster carries rates 1/4, 1/8, ..., 1/n plus padding points
    sharing the residual 1/n equally, so both halves sum to 1/2.  Points
    within a cluster sit at distance D/(2n); across clusters at D.  A sweep
    schedule (one cluster, hop, the other, hop back) stays within O(D),
    while per-class patrols pay a log n factor crossing between the mirrored
    equal-rate pairs.
    """
    D = frac(diameter)
    if D <= 0:
        raise ValueError("diameter must be positive")
    if n < 4 or n & (n - 1):
        raise ValueError(f"n must be a power of two, n >= 4, got {n}")
    half = n // 2
    log_n = n.bit_length() - 1
    ladder = [Fraction(1, 2**k) for k in range(2, log_n + 1)]
    pad = half - len(ladder)
    cluster = list(ladder)
    if pad:
        residual = Fraction(1, 2) - sum(ladder)
        cluster.extend([residual / pad] * pad)
    assert sum(cluster) == Fraction(1, 2) and len(cluster) == half, "padding fills each half"
    rates = [rate for rate in cluster for _ in range(2)]  # points 2k-1, 2k: one per cluster
    intra = D / (2 * n)
    travel = [[0 if i == j else D if (i - j) % 2 else intra for j in range(n)] for i in range(n)]
    return MetricInstance(RateVector(rates), travel)


def two_cluster_sweep(instance: MetricInstance, cycles: int = 3) -> list[tuple[int, Fraction]]:
    """Near-optimal handcrafted patrol for two-cluster instances.

    Sweeps the start's cluster in index order, hops across, sweeps the other,
    and repeats `cycles` times; one cycle costs less than 3D, so every
    height stays O(D).
    """
    if type(cycles) is not int or cycles < 1:
        raise ValueError(f"cycles must be an int >= 1, got {cycles!r}")
    D = int(instance._ticks.max())
    srow = instance._ticks[instance.start - 1].tolist()
    home = [v for v in range(1, instance.n + 1) if 2 * srow[v - 1] < D]
    away = [v for v in range(1, instance.n + 1) if 2 * srow[v - 1] >= D and v != instance.start]
    if not away:
        raise ValueError("no far cluster: not a two-cluster instance")
    sweep = [ClassTour((v,), 0) for v in home + away]  # one-point classes, visited in turn
    return next(islice(_patrol(instance, TourState(sweep, ()), D), cycles - 1, None))


def gen_random_metric(n: int, seed: int) -> MetricInstance:
    """Random valid metric: distances in [1/2, 1] (triangle-safe) over the
    denominator 2^20, random integer-weight rates normalized to 1, start at
    the fastest point."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(seed)
    den = 1 << 20
    m = np.zeros((n, n), dtype=np.int64)
    m[np.triu_indices(n, 1)] = [rng.randint(den // 2, den) for _ in range(n * (n - 1) // 2)]
    m += m.T
    weights = sorted((rng.randint(1, 1 << 16) for _ in range(n)), reverse=True)
    total = sum(weights)
    rates = RateVector([Fraction(w, total) for w in weights])
    return MetricInstance._from_ticks(rates, m, den)
