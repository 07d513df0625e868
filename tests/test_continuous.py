"""Continuous patrols: metrics, MST tours, the three algorithms, lower bounds."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgt import (
    CertificateError,
    InstanceFormatError,
    MetricInstance,
    RateVector,
    ResidueSchedule,
    algorithm1,
    algorithm2,
    algorithm2_classes,
    algorithm3,
    algorithm3_classes,
    certificate_bound,
    discrete_as_continuous,
    euler_tour,
    gen_random_metric,
    gen_spiral,
    gen_two_cluster,
    lower_bound_diameter,
    lower_bound_mst,
    mst,
    simulate_walk,
    spiral_arc_spacing,
    two_approx,
    two_cluster_sweep,
)
from bgt import continuous
from bgt.continuous import ClassTour, TourState, _class_tour, _patrol, _scaled, _tree


def _line_instance(coords, rates):
    travel = tuple(
        tuple(F(abs(a - b)) for b in coords) for a in coords
    )
    return MetricInstance(RateVector(rates), travel, start=1)


TWO_PT = MetricInstance(RateVector([F(2, 3), F(1, 3)]), ((F(0), F(5)), (F(5), F(0))))


# --- validation ------------------------------------------------------------

# Mersenne primes 2^61 - 1 and 2^31 - 1: any matrix with both denominators
# has a common denominator above 2^61, so it is held as Python ints.
_P61, _P31 = (1 << 61) - 1, (1 << 31) - 1


# Each case runs on integer matrices of both kinds: as given (int64) and with
# every entry divided by _P61 * _P31 (Python ints).  The first eight cases
# keep pytest's positional ids, so results stay comparable with earlier runs.
_INVALID_INSTANCES = pytest.mark.parametrize(
    "rates,travel,start,field,message",
    [
        pytest.param([F(1, 2), F(1, 2)], ((0, 1), (2, 0)), 1, "travel",
                     "asymmetric: t[0][1] != t[1][0]", id="rates0-travel0-1-travel"),
        pytest.param([F(1, 2), F(1, 2)], ((1, 1), (1, 0)), 1, "travel",
                     "nonzero diagonal entry t[0][0]", id="rates1-travel1-1-travel"),
        pytest.param([F(1, 2), F(1, 2)], ((0, 0), (0, 0)), 1, "travel",
                     "nonpositive distance t[0][1]", id="rates2-travel2-1-travel"),
        pytest.param([F(1, 2), F(1, 4), F(1, 4)], ((0, 1, 3), (1, 0, 1), (3, 1, 0)), 1, "travel",
                     "triangle inequality violated: t[0][2] > t[0][1] + t[1][2]",
                     id="rates3-travel3-1-travel"),
        pytest.param([F(1, 2), F(1, 4)], ((0, 1), (1, 0)), 1, "rates",
                     "rates must sum to 1 (got 3/4); use MetricInstance.normalized",
                     id="rates4-travel4-1-rates"),
        pytest.param([F(1)], ((0,),), 1, "rates",
                     "a metric instance needs at least 2 points", id="rates5-travel5-1-rates"),
        pytest.param([F(1, 2), F(1, 2)], ((0, 1), (1, 0)), 3, "start",
                     "start must be a point index in 1..2", id="rates6-travel6-3-start"),
        pytest.param([F(1, 2), F(1, 2)], ((0, 1), (1, 0)), 0, "start",
                     "start must be a point index in 1..2", id="rates7-travel7-0-start"),
        pytest.param([F(1, 2), F(1, 4), F(1, 4)], ((0, 1, 1), (1, 0, 0), (1, 0, 0)), 1, "travel",
                     "nonpositive distance t[1][2]", id="nonpositive-off-the-first-row"),
        pytest.param([F(1, 2), F(1, 4), F(1, 4)], ((0, 2, 1), (2, 0, 1), (1, 3, 0)), 1, "travel",
                     "asymmetric: t[1][2] != t[2][1]", id="asymmetric-off-the-first-row"),
        pytest.param([F(1, 2), F(1, 2)], ((0, 1), (1,)), 1, "travel",
                     "must be an 2x2 matrix (one row per rate)", id="ragged"),
        pytest.param([F(1, 2), F(1, 2)], ((0, 1), (1, 0)), True, "start",
                     "start must be a point index in 1..2", id="bool-start"),
    ],
)


@_INVALID_INSTANCES
def test_metric_instance_validation(rates, travel, start, field, message):
    for shrink, kind in ((F(1), np.int64), (F(1, _P61 * _P31), object)):
        scaled = tuple(tuple(F(x) * shrink for x in row) for row in travel)
        if len({len(row) for row in scaled}) == 1 and any(x for row in scaled for x in row):
            assert _scaled(scaled)[0].dtype == kind  # an all-zero matrix is int64 either way
        with pytest.raises(InstanceFormatError) as err:
            MetricInstance(RateVector(rates), scaled, start)
        assert err.value.field == field
        assert str(err.value) == f"{field}: {message}"


@_INVALID_INSTANCES
def test_the_tick_constructor_runs_the_same_checks(rates, travel, start, field, message):
    # the same matrices as ticks over 1 (int64) and over _P61 * _P31 (Python ints)
    for scale, kind in ((1, np.int64), (_P61 * _P31, object)):
        if len({len(row) for row in travel}) > 1:
            ticks = np.array(travel, dtype=object)  # a ragged matrix: one object per row
        else:
            ticks = np.array(travel, dtype=kind)
        with pytest.raises(InstanceFormatError) as err:
            MetricInstance._from_ticks(RateVector(rates), ticks, scale, start)
        assert err.value.field == field
        assert str(err.value) == f"{field}: {message}"


def test_tick_instances_are_reduced_and_typed_as_rational_ones():
    rates = RateVector([F(1, 2), F(1, 2)])
    four = MetricInstance._from_ticks(rates, np.array([[0, 6], [6, 0]]), 4)
    assert four == MetricInstance(rates, ((0, F(3, 2)), (F(3, 2), 0)))
    assert (four._scale, four._ticks.tolist(), four._ticks.dtype) == (2, [[0, 3], [3, 0]], np.int64)
    # int64 entries above 2^61 are held as Python ints, as a rational matrix would be
    big = MetricInstance._from_ticks(rates, np.array([[0, 2**62 + 1], [2**62 + 1, 0]]), 1)
    assert big._ticks.dtype == object and big._ticks[0, 1] == 2**62 + 1
    assert big == MetricInstance(rates, ((0, 2**62 + 1), (2**62 + 1, 0)))


def test_travel_is_a_cached_read_only_view():
    inst = gen_random_metric(5, 1)
    assert inst.travel is inst.travel
    assert isinstance(inst.travel, tuple) and all(type(row) is tuple for row in inst.travel)
    assert inst.travel[0][1] == F(int(inst._ticks[0, 1]), inst._scale)
    for name, value in (("travel", ()), ("start", 2), ("rates", TWO_PT.rates)):
        with pytest.raises(AttributeError):
            setattr(inst, name, value)


def test_bool_start_is_refused_on_both_paths():
    # True is not point 1: it would reach algorithm1's walks, which
    # simulate_walk refuses ("point True is not an int")
    rates = RateVector([F(1, 2), F(1, 2)])
    with pytest.raises(InstanceFormatError, match="start"):
        MetricInstance(rates, ((0, 1), (1, 0)), start=True)
    with pytest.raises(InstanceFormatError, match="start"):
        MetricInstance._from_ticks(rates, np.array([[0, 1], [1, 0]]), 1, start=True)


def _reference_random_metric(n, seed):
    """gen_random_metric built through Fractions: the tick path's reference."""
    rng = random.Random(seed)
    den = 1 << 20
    travel = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            travel[i][j] = travel[j][i] = F(rng.randint(den // 2, den), den)
    weights = sorted((rng.randint(1, 1 << 16) for _ in range(n)), reverse=True)
    total = sum(weights)
    return MetricInstance(RateVector([F(w, total) for w in weights]), travel, 1)


def _tick_built_and_rational_pairs():
    for n, seed in [(2, 0), (3, 1), (9, 2), (40, 3), (120, 4)]:
        yield gen_random_metric(n, seed), _reference_random_metric(n, seed)
    spiral = gen_spiral(64)
    yield spiral, MetricInstance(spiral.rates, spiral.travel, spiral.start)


@pytest.mark.parametrize("inst,ref", list(_tick_built_and_rational_pairs()), ids=lambda i: f"n{i.n}")
def test_tick_built_instances_equal_the_rational_build(inst, ref):
    assert inst == ref and hash(inst) == hash(ref)
    assert inst._scale == ref._scale
    assert inst._ticks.dtype == ref._ticks.dtype and np.array_equal(inst._ticks, ref._ticks)
    assert inst.travel == ref.travel


def test_normalized_constructor_scales_rates():
    inst = MetricInstance.normalized([2, 1], ((0, 5), (5, 0)))
    assert inst.rates.rates == (F(2, 3), F(1, 3))
    assert inst.diameter == 5


# --- MST and Euler tours ---------------------------------------------------

def _reference_mst(vertices, travel):
    """Prim's MST in Fraction arithmetic, with `mst`'s tie-break rule: among
    equal-weight candidates the smaller tree endpoint, then the smaller
    outside endpoint, wins."""
    verts = sorted({int(v) for v in vertices})
    if len(verts) == 1:
        return [], F(0)
    root = verts[0]
    best = {v: (travel[root - 1][v - 1], root) for v in verts[1:]}
    remaining = set(verts[1:])
    edges = []
    total = F(0)
    while remaining:
        w, u, v = min((best[x][0], best[x][1], x) for x in remaining)
        remaining.discard(v)
        del best[v]
        edges.append((u, v) if u < v else (v, u))
        total += w
        for x in remaining:
            d = travel[v - 1][x - 1]
            bw, bu = best[x]
            if d < bw or (d == bw and v < bu):
                best[x] = (d, v)
    return edges, total


def _metric(n, seed, values, rates=None):
    """A metric with distances drawn from `values`, which must lie within
    [m, 2m] for some m so the triangle inequality holds; equal rates unless
    given."""
    rng = random.Random(seed)
    travel = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            travel[i][j] = travel[j][i] = rng.choice(values)
    return MetricInstance.normalized(rates or [1] * n, tuple(map(tuple, travel)))


def _huge_denominator_metric(n, seed, rates=None):
    """Distances in [1/2, 1] over the denominators 2^61 - 1 and 2^31 - 1,
    a few values each, so ties are frequent and the lcm exceeds 2^61."""
    values = [F(p // 2 + 7 * k, p) for p in (_P61, _P31) for k in range(3)]
    return _metric(n, seed, values, rates)


def _mst_differential_instances():
    yield from (gen_random_metric(n, seed) for seed, n in enumerate([2, 3, 7, 16, 33, 60]))
    yield gen_spiral(64)
    yield gen_two_cluster(16, 1)
    yield gen_two_cluster(32, F(5, 3))
    yield _metric(40, 1, [F(1), F(2)])  # nearly every edge weight is tied
    yield _huge_denominator_metric(30, 2)


@pytest.mark.parametrize("inst", list(_mst_differential_instances()), ids=lambda i: f"n{i.n}")
def test_mst_matches_the_fraction_reference(inst):
    rng = random.Random(inst.n)
    everyone = list(range(1, inst.n + 1))
    subsets = [everyone, [inst.n]] + [
        sorted(rng.sample(everyone, rng.randint(2, inst.n))) for _ in range(4)
    ]
    for sub in subsets:
        expected = _reference_mst(sub, inst.travel)
        assert mst(sub, inst.travel) == expected
        assert _tree(inst, sub) == expected


def test_huge_denominators_take_the_python_int_path():
    inst = _huge_denominator_metric(12, 0)
    assert inst._ticks.dtype == object
    assert inst._scale == _P61 * _P31
    assert inst.diameter == max(max(row) for row in inst.travel)


@pytest.mark.parametrize("vertices", [[1, 2.9, 3], [True, 2], [1, "2"], [0, 1], [1, 4]], ids=repr)
def test_mst_refuses_vertices_that_are_not_point_indices(vertices):
    # nothing is truncated, a bool is not point 1, and 0 does not wrap around
    travel = ((F(0), F(1), F(2)), (F(1), F(0), F(2)), (F(2), F(2), F(0)))
    with pytest.raises(ValueError, match="must be an int in 1..3"):
        mst(vertices, travel)


def test_mst_weight_and_edges():
    travel = ((F(0), F(1), F(2)), (F(1), F(0), F(2)), (F(2), F(2), F(0)))
    edges, weight = mst([1, 2, 3], travel)
    assert weight == 3
    assert sorted(edges) == [(1, 2), (1, 3)]


def test_mst_ties_resolve_to_a_star_from_the_first_vertex():
    travel = tuple(tuple(F(0) if i == j else F(1) for j in range(4)) for i in range(4))
    edges, weight = mst([1, 2, 3, 4], travel)
    assert weight == 3
    assert sorted(edges) == [(1, 2), (1, 3), (1, 4)]


def test_euler_tour_shape():
    tour = euler_tour([(1, 2), (1, 3), (1, 4)], root=1)
    assert tour == [1, 2, 1, 3, 1, 4, 1]
    assert len(tour) == 2 * 3 + 1
    assert tour[0] == tour[-1] == 1


# --- the three patrols on a two-point metric --------------------------------

def test_algorithm1_is_tight_on_two_points():
    walk = algorithm1(TWO_PT, 60)
    rep = simulate_walk(TWO_PT, walk, strict=True)
    assert rep.per_bamboo_max == (F(20, 3), F(10, 3))
    assert rep.global_max == certificate_bound(TWO_PT, 1) == F(20, 3)


def test_algorithm2_alternates_two_points():
    walk = algorithm2(TWO_PT, 60)
    rep = simulate_walk(TWO_PT, walk, strict=True)
    assert rep.per_bamboo_max == (F(20, 3), F(10, 3))
    assert certificate_bound(TWO_PT, 2) == 20


def test_algorithm2_delegates_to_algorithm1_on_equal_rates():
    inst = MetricInstance(RateVector([F(1, 2), F(1, 2)]), ((F(0), F(3)), (F(3), F(0))))
    assert algorithm2(inst, 30) == algorithm1(inst, 30)
    assert certificate_bound(inst, 2) == certificate_bound(inst, 1) == 3


# --- class assignments -----------------------------------------------------

def test_algorithm2_classes_boundaries():
    inst = MetricInstance(
        RateVector([F(4, 7), F(2, 7), F(1, 7)]),
        tuple(tuple(F(0) if i == j else F(1) for j in range(3)) for i in range(3)),
    )
    # class i holds rates in [2^(i-1), 2^i) * h_min; 2*h_min sits in class 2
    assert algorithm2_classes(inst) == [[3], [2], [1]]


def test_algorithm3_classes_boundaries():
    rates = RateVector([F(13, 32), F(13, 32), F(1, 8), F(1, 16)])
    inst = MetricInstance(
        rates, tuple(tuple(F(0) if i == j else F(1) for j in range(4)) for i in range(4))
    )
    v0, classes = algorithm3_classes(inst)
    assert v0 == [4]                       # rate == n^-2 is negligible (boundary in)
    assert classes == [[3], [], [1, 2], []]  # 2*n^-2 closes class 1; 13/2*n^-2 -> class 3


# --- certified bounds on random metrics --------------------------------------

def test_random_metrics_meet_their_certificates():
    for seed in range(5):
        inst = gen_random_metric(8, seed)
        _, w = mst(list(range(1, inst.n + 1)), inst.travel)
        horizon = 2 * (inst.diameter + 2 * w)
        for algo, run in ((1, algorithm1), (2, algorithm2), (3, algorithm3)):
            walk = run(inst, horizon)
            rep = simulate_walk(inst, walk, strict=True)
            assert rep.global_max <= certificate_bound(inst, algo)


# --- patrol periodicity ------------------------------------------------------

def _fresh_state(inst, algo=3):
    v0, classes = ([], algorithm2_classes(inst)) if algo == 2 else algorithm3_classes(inst)
    return TourState([_class_tour(inst, c) for c in classes if c], tuple(v0))


def _run_cycles(inst, k):
    state = _fresh_state(inst)
    walk = _patrol(inst, state, cycles=k)
    pos = walk[-1][0] if walk else inst.start
    snap = (
        tuple(ct.cursor for ct in state.classes),
        state.v0_next % len(state.v0) if state.v0 else 0,
        pos,
    )
    return walk, snap


def test_patrol_state_revisits_and_suprema_stabilize():
    inst = gen_random_metric(6, seed=3)
    snaps = [_run_cycles(inst, k)[1] for k in range(13)]
    hit = next(
        ((a, p) for a in range(13) for p in range(1, 13 - a) if snaps[a] == snaps[a + p]),
        None,
    )
    assert hit is not None, "patrol state never revisited"
    a, p = hit
    # once the state recurs the walk is periodic: one more period of it
    # raises no bamboo's supremum
    rep2 = simulate_walk(inst, _run_cycles(inst, a + 2 * p)[0])
    rep3 = simulate_walk(inst, _run_cycles(inst, a + 3 * p)[0])
    assert rep2.per_bamboo_max == rep3.per_bamboo_max


# --- lower bounds ------------------------------------------------------------

def _brute_force_mst_bound(inst):
    best = F(0)
    for r in range(2, inst.n + 1):
        for sub in combinations(range(1, inst.n + 1), r):
            _, w = mst(list(sub), inst.travel)
            best = max(best, min(inst.rates.rate(i) for i in sub) * w)
    return best


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_lower_bound_mst_matches_brute_force_on_line_metrics(data):
    n = data.draw(st.integers(2, 7))
    coords = data.draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    weights = data.draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    total = sum(weights)
    rates = sorted((F(w, total) for w in weights), reverse=True)
    inst = _line_instance(coords, rates)
    value, members = lower_bound_mst(inst)
    assert value == _brute_force_mst_bound(inst)
    _, w = mst(list(members), inst.travel)
    assert value == min(inst.rates.rate(i) for i in members) * w


def _threshold_mst_bound(inst):
    """lower_bound_mst by definition: one reference MST per rate threshold,
    highest first, a strict > keeping the first maximizing set."""
    best, best_set = F(0), (1,)
    for h in sorted(set(inst.rates.rates), reverse=True):
        members = [i for i in range(1, inst.n + 1) if inst.rates.rate(i) >= h]
        _, w = _reference_mst(members, inst.travel)
        if h * w > best:
            best, best_set = h * w, tuple(members)
    return best, best_set


def _lower_bound_instances():
    yield from (gen_random_metric(n, seed) for seed, n in enumerate([2, 5, 17, 40, 60], start=7))
    yield gen_two_cluster(16, 1)                                # rates in equal pairs
    yield gen_two_cluster(32, F(2, 7))
    yield gen_spiral(64)                                        # three rate groups
    yield _metric(25, 3, [F(3), F(4), F(5)])                    # all rates equal
    yield _metric(30, 4, [F(1), F(2)], rates=[4] * 3 + [3] * 9 + [2] * 10 + [1] * 8)
    yield _metric(18, 5, [F(1), F(2)], rates=[9, 1, 1, 1] + [F(1, 2)] * 14)
    yield _huge_denominator_metric(20, 6, rates=[5] * 4 + [2] * 6 + [1] * 10)
    # unit distances and h_k proportional to 1/(k-1): every threshold from the
    # second on gives the same bound, and the first such set must be kept
    yield _metric(5, 0, [F(1)], rates=[24, 12, 6, 4, 3])


@pytest.mark.parametrize("inst", list(_lower_bound_instances()), ids=lambda i: f"n{i.n}")
def test_lower_bound_mst_matches_the_per_threshold_reference(inst):
    assert lower_bound_mst(inst) == _threshold_mst_bound(inst)


def test_lower_bound_mst_is_sound_but_not_exact_off_the_line():
    inst = gen_random_metric(6, seed=0)
    value, members = lower_bound_mst(inst)
    assert value <= _brute_force_mst_bound(inst)
    # a Steiner hub beats every rate-threshold set: three leaves pairwise at 2
    # around a hub at 1, equal rates
    hub = MetricInstance(
        RateVector([F(1, 4)] * 4),
        (
            (F(0), F(1), F(1), F(1)),
            (F(1), F(0), F(2), F(2)),
            (F(1), F(2), F(0), F(2)),
            (F(1), F(2), F(2), F(0)),
        ),
    )
    value, members = lower_bound_mst(hub)
    assert value == F(3, 4) and set(members) == {1, 2, 3, 4}
    assert _brute_force_mst_bound(hub) == 1  # the three leaves alone


def test_lower_bound_diameter():
    assert lower_bound_diameter(TWO_PT) == F(10, 3)


# --- reductions and generators ----------------------------------------------

def test_discrete_as_continuous_frozen():
    rates = RateVector([F(1, 2), F(1, 4), F(1, 4)])
    sched, report = discrete_as_continuous(rates)
    assert sched.pairs == two_approx(rates).pairs
    assert report["max_coefficient"] == 2
    assert report["ratio_bound"] == 4


def test_discrete_as_continuous_raises_on_a_broken_certificate(monkeypatch):
    rates = RateVector([F(1, 2), F(1, 4), F(1, 4)])
    broken = ResidueSchedule(((1, 8), (2, 8), (3, 8)))  # h_1 * q_1 = 4 > 2H
    monkeypatch.setattr(continuous, "two_approx", lambda _: broken)
    with pytest.raises(CertificateError, match="coefficient 4 exceeds 2H = 2"):
        discrete_as_continuous(rates)


def test_spiral8_layout():
    inst = gen_spiral(8)
    assert Counter(inst.rates.rates) == {F(3, 16): 4, F(1, 16): 4}
    assert spiral_arc_spacing(8) == F(1, 4)
    assert inst.start == 1
    with pytest.raises(ValueError):
        gen_spiral(10)
    with pytest.raises(ValueError):
        gen_spiral(4)


def test_spiral64_group_sizes():
    inst = gen_spiral(64)
    counts = Counter(inst.rates.rates)
    assert sorted(counts.values(), reverse=True) == [32, 16, 16]
    assert sum(r * c for r, c in counts.items()) == 1
    # the fastest rate belongs to the innermost (smallest) spiral group
    assert counts[max(counts)] == 16


def test_two_cluster_layout():
    inst = gen_two_cluster(8, 1)
    assert inst.rates.rates == (
        F(1, 4), F(1, 4), F(1, 8), F(1, 8), F(1, 16), F(1, 16), F(1, 16), F(1, 16)
    )
    assert inst.diameter == 1
    assert inst.travel[0][2] == F(1, 16)   # same cluster: D / (2n)
    assert inst.travel[0][1] == 1          # mirrored twin sits across
    with pytest.raises(ValueError):
        gen_two_cluster(6, 1)
    with pytest.raises(ValueError):
        gen_two_cluster(2, 1)


@pytest.mark.parametrize("cycles", [0, -2, True, 1.5, "3"], ids=repr)
def test_two_cluster_sweep_refuses_a_bad_cycle_count(cycles):
    with pytest.raises(ValueError, match="cycles must be an int >= 1"):
        two_cluster_sweep(gen_two_cluster(8, 1), cycles=cycles)


def test_two_cluster_sweep_stays_low():
    inst = gen_two_cluster(16, 1)
    walk = two_cluster_sweep(inst, cycles=3)
    rep = simulate_walk(inst, walk, strict=True)
    assert rep.global_max <= F(3, 4) * inst.diameter


# --- integer walks against the Fraction reference ----------------------------
# The walk builders in Fraction arithmetic on `travel`, kept as the reference:
# the integer builders must give the same walks element for element.

def _reference_algorithm1(inst, horizon):
    edges, _ = _tree(inst, range(1, inst.n + 1))
    closed = euler_tour(edges, inst.start)
    t, pos, walk = F(0), inst.start, []
    while t < horizon:
        for v in closed[1:]:
            t += inst.travel[pos - 1][v - 1]
            pos = v
            walk.append((v, t))
    return walk


def _reference_class_tour(inst, members):
    members = sorted(members)
    edges, _ = _tree(inst, members)
    tour = tuple(euler_tour(edges, members[0])[:-1]) if len(members) > 1 else (members[0],)
    srow = inst.travel[inst.start - 1]
    return ClassTour(tour, min(range(len(tour)), key=lambda k: (srow[tour[k] - 1], k)))


def _reference_patrol(inst, state, horizon=None, cycles=None):
    travel, D = inst.travel, inst.diameter
    t, pos, walk, done = F(0), inst.start, [], 0
    while (t < horizon) if cycles is None else (done < cycles):
        for ct in state.classes:
            target = ct.tour[ct.cursor]
            if target != pos:
                t += travel[pos - 1][target - 1]
                pos = target
                walk.append((pos, t))
            if len(ct.tour) > 1:
                covered = F(0)
                while covered < D:
                    ct.cursor = (ct.cursor + 1) % len(ct.tour)
                    nxt = ct.tour[ct.cursor]
                    step = travel[pos - 1][nxt - 1]
                    covered += step
                    t += step
                    pos = nxt
                    walk.append((pos, t))
        if state.v0:
            target = state.v0[state.v0_next % len(state.v0)]
            state.v0_next += 1
            if target != pos:
                t += travel[pos - 1][target - 1]
                pos = target
                walk.append((pos, t))
        done += 1
    return walk


def _reference_state(inst, algo):
    v0, classes = ([], algorithm2_classes(inst)) if algo == 2 else algorithm3_classes(inst)
    return TourState([_reference_class_tour(inst, c) for c in classes if c], tuple(v0))


def _reference_algorithm(inst, algo, horizon):
    if algo == 1 or (algo == 2 and inst.rates.rates[0] == inst.rates.rates[-1]):
        return _reference_algorithm1(inst, horizon)
    return _reference_patrol(inst, _reference_state(inst, algo), horizon=horizon)


def _reference_sweep(inst, cycles):
    D, srow = inst.diameter, inst.travel[inst.start - 1]
    home = [v for v in range(1, inst.n + 1) if srow[v - 1] < D / 2]
    away = [v for v in range(1, inst.n + 1) if srow[v - 1] >= D / 2 and v != inst.start]
    t, pos, walk = F(0), inst.start, []
    for _ in range(cycles):
        for v in home + away:
            if v != pos:
                t += inst.travel[pos - 1][v - 1]
                pos = v
                walk.append((v, t))
    return walk


def _walk_instances():
    yield from (gen_random_metric(n, seed) for seed, n in enumerate([2, 3, 9, 40, 120], start=11))
    yield gen_two_cluster(64, F(3, 7))
    yield gen_spiral(64)
    yield _huge_denominator_metric(12, 3, rates=[5] * 3 + [2] * 4 + [1] * 5)  # Python-int ticks


@pytest.mark.parametrize("inst", list(_walk_instances()), ids=lambda i: f"n{i.n}")
def test_integer_walks_match_the_fraction_reference(inst):
    _, w = mst(list(range(1, inst.n + 1)), inst.travel)
    h = 2 * (inst.diameter + 2 * w)
    # a horizon on an arrival time, and one half a tick past it
    on = _reference_algorithm(inst, 3, h / 3)[-2][1]
    for horizon in (h, h / 3, F(1, 10**6), on, on + F(1, 2 * inst._scale)):
        for algo, run in ((1, algorithm1), (2, algorithm2), (3, algorithm3)):
            walk = run(inst, horizon)
            assert walk == _reference_algorithm(inst, algo, horizon), (algo, horizon)
            assert all(type(v) is int and type(t) is F for v, t in walk)
    for algo in (2, 3):
        for k in (1, 2, 5):
            state, ref = _fresh_state(inst, algo), _reference_state(inst, algo)
            assert state == ref  # the same tours and starting cursors
            assert _patrol(inst, state, cycles=k) == _reference_patrol(inst, ref, cycles=k)
            assert state == ref  # and the same cursors after k cycles
    for k in (1, 2, 3):
        assert two_cluster_sweep(inst, k) == _reference_sweep(inst, k)
