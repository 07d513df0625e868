"""The four benchmark workloads: seeded inputs, one pass of items, checks.

Each workload has three parts:

* `generate(api, seed, tiny)` builds the inputs with bgt's own generators
  (this is the set-up the benchmark times);
* `input_digest(inputs)` hashes those inputs, so a generator change that
  alters a workload cannot go unnoticed;
* `run_pass(api, inputs, rec, tiny)` runs every item once, back to back,
  and checks each output as it goes.

Every call into bgt goes through `api` (see tracing.py).  Sizes come from
fixed grids and the seed drives the content of each instance: a size grid
(the quantiles of the log-uniform law the acceptance tests sample from)
keeps the work per pass steady from seed to seed, so the spread between
runs measures the program rather than the sampler.
"""

from __future__ import annotations

import hashlib
import io
import random
import traceback
from array import array
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction as F
from math import exp, lcm, log
from time import process_time as clock

import numpy as np

from bgt import BudgetExceededError, ListSchedule, RateVector


class Pass:
    """What one pass over a workload's items produced and measured."""

    def __init__(self, api, traced: bool):
        # Times are CPU seconds of this process: the benchmark is one thread
        # with no I/O wait, and CPU time stays steady when the host steals
        # wall-clock time from the VM.  Wall times go to the run record.
        self.api = api
        self.traced = traced
        self.latencies: list[float] = []   # seconds per completed item
        self.attempted = 0
        self.failed = 0                    # items that raised: internal failures
        self.refused: list[str] = []       # items refused by a state budget
        self.errors: list[str] = []        # wrong outputs and failures
        self.work = 0
        self.build_s = 0.0
        self.stream_s = 0.0
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.opt: dict[str, str] = {}      # oracle item -> OPT, checked per item
        self.counts: Counter = Counter()
        self._digest = hashlib.sha256()

    @contextmanager
    def item(self, item_id: str):
        """Time one item; an exception fails the item and the run."""
        self.attempted += 1
        with self.api.item(item_id):
            t0 = clock()
            try:
                yield
            except Exception:
                self.failed += 1
                self.errors.append(f"{item_id}: {traceback.format_exc()}")
                return
            self.latencies.append(clock() - t0)

    @contextmanager
    def build(self):
        t0 = clock()
        try:
            yield
        finally:
            self.build_s += clock() - t0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def out(self, *parts) -> None:
        """Feed outputs that must stay bit-identical into the pass digest."""
        for p in parts:
            self._digest.update(p if isinstance(p, bytes) else str(p).encode())
            self._digest.update(b"\x00")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _pairs_bytes(schedule) -> bytes:
    return array("q", [x for pq in schedule.pairs for x in pq]).tobytes()


def _rates_text(rates) -> str:
    return ",".join(map(str, rates.rates))


def _digest_of(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _log_grid(lo: int, hi: int, count: int) -> list[int]:
    """`count` quantile midpoints of the log-uniform law on [lo, hi]."""
    return [round(exp(log(lo) + (k + 0.5) / count * (log(hi) - log(lo)))) for k in range(count)]


def _interleaved(items: list) -> list:
    """The items in one fixed order that mixes their kinds.

    Cheap items of one kind would otherwise run within a fraction of a
    second of each other, so a moment of host contention would shift them
    all together, and with them the latency percentiles.  The order depends
    only on the number of items, never on the seed.
    """
    order = list(range(len(items)))
    random.Random(len(items)).shuffle(order)
    return [items[i] for i in order]


def _oracle(api, rec: Pass, item_id: str, rates, budget: int | None = None):
    """OPT with its witness checked, or None when the state budget refuses."""
    rec.counts["oracle.candidates"] += len(api.opt_candidates(rates))
    rec.counts["oracle.attempted"] += 1
    kwargs = {} if budget is None else {"state_budget": budget}
    try:
        with rec.build():
            opt, witness = api.optimal_height(rates, **kwargs)
    except BudgetExceededError:
        rec.counts["oracle.budget_exceeded"] += 1
        rec.refused.append(item_id)
        return None
    rec.counts["oracle.solved"] += 1
    rec.check(rates.H <= opt <= 2 * rates.H, f"{item_id}: OPT {opt} outside [H, 2H]")
    report = api.evaluate_cyclic(rates, witness)
    rec.check(report.global_max == opt, f"{item_id}: witness reaches {report.global_max} != OPT {opt}")
    rec.opt[item_id] = str(opt)
    return opt


# ---------------------------------------------------------------------------
# main-corpus: the criterion-3 distribution
# ---------------------------------------------------------------------------

HEAD_RATIOS = (F(1, 4), F(1, 16), F(1, 64), F(1, 256))


def main_corpus_generate(api, seed: int, tiny: bool):
    rng = random.Random(seed)
    corpus = []
    for ratio in HEAD_RATIOS:
        lo = 5 * ratio.denominator          # the smallest n criterion 3 draws
        sizes = [lo] if tiny else _log_grid(lo, 10**4, 14)
        for n in sizes:
            corpus.append(api.gen_planted_head(n, ratio, rng.randrange(2**32)))
    return corpus


def main_corpus_digest(corpus) -> str:
    return _digest_of(_rates_text(r) for r in corpus)


def main_corpus_pass(api, corpus, rec: Pass, tiny: bool) -> None:
    for k, rates in _interleaved(list(enumerate(corpus))):
        with rec.item(f"main-{k}"):
            with rec.build():
                sched, diag = api.main_algorithm(rates)
            report = api.evaluate_cyclic(rates, sched)
            rec.check(report.global_max <= diag.bound, f"main-{k}: realized {report.global_max} > bound {diag.bound}")
            rec.check(report.global_max == diag.realized_max, f"main-{k}: report disagrees with diagnostics")
            rec.check(diag.final_density <= 1, f"main-{k}: final density {diag.final_density} > 1")
            with rec.build():
                two = api.two_approx(rates)
            report2 = api.evaluate_cyclic(rates, two)
            rec.check(report2.global_max <= 2 * rates.H, f"main-{k}: two_approx above 2H")
            rec.out(_pairs_bytes(sched), diag.bound, report.global_max, _pairs_bytes(two), report2.global_max)
            rec.work += rates.n
            rec.counts["pinwheel.merges"] += diag.obs1_count + diag.obs2_count


# ---------------------------------------------------------------------------
# stream-1e5: criterion-12 scale
# ---------------------------------------------------------------------------


def stream_generate(api, seed: int, tiny: bool):
    rng = random.Random(seed)
    return api.gen_planted_head(2000 if tiny else 10**5, F(1, 16), rng.randrange(2**32))


def stream_digest(rates) -> str:
    return _digest_of([_rates_text(rates)])


def stream_pass(api, rates, rec: Pass, tiny: bool) -> None:
    with rec.build():
        sched, diag = api.main_algorithm(rates)
        buf = io.StringIO()
        api.save_schedule(sched, buf)
        text = buf.getvalue()
        loaded = api.load_schedule(text)
        report = api.evaluate_cyclic(rates, loaded, validate=True)
    rec.counts["core.io.bytes"] += 2 * len(text.encode())
    rec.counts["pinwheel.merges"] += diag.obs1_count + diag.obs2_count
    rec.counts["pinwheel.hyperperiod"] += lcm(*(q for _, q in sched.pairs))
    rec.check(loaded.pairs == sched.pairs, "stream: schedule changed in the JSON round trip")
    rec.check(report.global_max <= diag.bound, f"stream: realized {report.global_max} > bound {diag.bound}")
    rec.check(report.global_max == diag.realized_max, "stream: verify disagrees with diagnostics")
    rec.out(_pairs_bytes(sched), diag.bound, report.global_max)

    rounds, chunk = (10**4, 10**3) if tiny else (10**6, 10**4)
    p = np.array([0] + [pq[0] for pq in sched.pairs], dtype=np.int64)
    q = np.array([1] + [pq[1] for pq in sched.pairs], dtype=np.int64)
    cuts_seen = np.zeros(len(p), dtype=np.int64)
    stream = api.next_cuts_stream(sched)
    for c in range(rounds // chunk):
        with rec.item(f"chunk-{c}"):
            t0 = clock()
            cuts = api.take(stream, chunk)
            rec.stream_s += clock() - t0
        # every cut lands on its bamboo's residue class
        arr = np.array(cuts, dtype=np.int64)
        at = np.flatnonzero(arr)
        who = arr[at]
        ok = ((at + 1 + c * chunk - p[who]) % q[who] == 0).all()
        rec.check(bool(ok), f"stream: chunk {c} cuts a bamboo off its residue class")
        cuts_seen += np.bincount(who, minlength=len(p))
        rec.out(arr.tobytes())
    # ... and no due cut is skipped
    due = np.where(p <= rounds, (rounds - p) // q + 1, 0)
    due[0] = 0
    rec.check(bool((cuts_seen == due).all()), "stream: some bamboo missed a due cut")
    rec.work += rounds
    rec.counts["pinwheel.next_cuts_stream.rounds"] += rounds


# ---------------------------------------------------------------------------
# exact-small: oracle, offline merging, online greedy
# ---------------------------------------------------------------------------

CRITERION1 = (
    ((F(1, 2), F(1, 4), F(1, 4)), F(1)),
    ((F(7, 15), F(1, 3), F(1, 5)), F(4, 3)),
    ((F(3, 4), F(1, 4)), F(3, 2)),
    ((F(7, 8), F(1, 8)), F(7, 4)),
)
# Solves inside the default state budget, in a few seconds today.
SIX_RATES = (F(5, 12), F(1, 3), F(1, 3), F(1, 3), F(1, 4), F(1, 4))
# (expected case, forced m, rates): one instance per dispatcher case.
CASES = (
    (1, 4, (F(3, 8), F(3, 8)) + (F(1, 32),) * 8),
    (2, 5, (F(19, 75), F(37, 150)) + (F(1, 20),) * 10),
    (3, 10, (F(9, 25), F(7, 50)) + (F(1, 20),) * 10),
    (3, 10, (F(9, 20), F(1, 10)) + (F(1, 20),) * 9),
    (4, 8, (F(1, 4), F(1, 5)) + (F(1, 20),) * 11),
    (5, 8, (F(1, 5),) + (F(1, 20),) * 16),
    (6, 2, (F(3, 4), F(1, 8), F(1, 8))),
)
# gen_planted_head(80, 1/4, 22) with m = 4 merges 329,472 rounds.
BIG_MERGE = (80, F(1, 4), 22, 4)
RM127_KS = tuple(range(1, 21)) + (30, 40)


def exact_small_generate(api, seed: int, tiny: bool):
    rng = random.Random(seed)
    # Fixed counts per n keep the item mix steady from seed to seed.  The
    # oracle's cost on n = 5 varies 40-fold with the rates, which moved the
    # latency percentiles from seed to seed, so the n = 5 draws are fixed.
    counts = {2: 1, 3: 1, 4: 1, 5: 1} if tiny else {2: 30, 3: 40, 4: 6, 5: 4}
    fixed = random.Random(5)
    small = [
        RateVector.sorted_from([F((fixed if n == 5 else rng).randint(1, 8), 8) for _ in range(n)])
        for n, count in counts.items() for _ in range(count)
    ]
    heavy = [
        (api.gen_planted_head(6 + k % 5, F(1, 3), rng.randrange(2**32)), 8)
        for k in range(1 if tiny else 8)
    ] + [
        (api.gen_planted_head(3 + k % 6, F(1, 2), rng.randrange(2**32)), 6)
        for k in range(1 if tiny else 4)
    ]
    greedy_fast = [
        api.gen_planted_head(3 + k % 2, F(1, 2), rng.randrange(2**32))
        for k in range(2 if tiny else 12)
    ]
    n, ratio, s, m = BIG_MERGE
    return {
        "criterion1": [(RateVector(r), opt) for r, opt in CRITERION1],
        "small": small,
        "six": RateVector(SIX_RATES[:3] if tiny else SIX_RATES),
        "over_budget": api.gen_reduce_max_12_7_family(1),
        "cases": [(case, m, RateVector(r)) for case, m, r in CASES],
        "heavy": heavy,
        "big_merge": (api.gen_planted_head(24 if tiny else n, ratio, s), m),
        "rm127": [api.gen_reduce_max_12_7_family(k) for k in ((1, 2) if tiny else RM127_KS)],
        "greedy_fast": greedy_fast,
    }


def exact_small_digest(inputs) -> str:
    parts = []
    for key in sorted(inputs):
        value = inputs[key]
        parts.append(key)
        parts.append(repr(value) if not isinstance(value, RateVector) else _rates_text(value))
    return _digest_of(parts)


def _eight_fifths(api, rec: Pass, item_id: str, rates, m, expect_case=None):
    with rec.build():
        sched, cert = api.eight_fifths(rates, m)
    report = api.evaluate_cyclic(rates, sched)
    per = cert["per_bamboo"]
    rec.check([e["index"] for e in per] == list(range(1, rates.n + 1)), f"{item_id}: certificate misses bamboos")
    for e in per:
        realized = report.per_bamboo_max[e["index"] - 1]
        rec.check(
            e["realized"] == realized <= e["height_bound"],
            f"{item_id}: bamboo {e['index']} realized {realized} vs certificate {e['realized']} <= {e['height_bound']}",
        )
    rec.check(report.global_max == cert["global_realized"] <= cert["global_bound"], f"{item_id}: global bound broken")
    if expect_case is not None:
        rec.check(cert["case"] == expect_case, f"{item_id}: case {cert['case']} != {expect_case}")
    if isinstance(sched, ListSchedule):
        rec.counts["offline.merged_rounds"] += len(sched.preamble) + len(sched.period)
    rec.counts[f"offline.case{cert['case']}"] = 1
    for token in cert["tokens"].values():
        if token["scheduler"] == "oracle" or token["oracle_fallback"]:
            rec.counts["offline.oracle_lanes"] += 1
            rec.counts["offline.oracle_lanes_ok"] += not token["oracle_fallback"]
    return cert


def exact_small_pass(api, inputs, rec: Pass, tiny: bool) -> None:
    items = []

    def oracle(item_id, rates, budget):
        _oracle(api, rec, item_id, rates, budget)

    def eight_fifths(item_id, rates, m, case):
        _eight_fifths(api, rec, item_id, rates, m, case)

    def criterion1(item_id, rates, expected):
        opt = _oracle(api, rec, item_id, rates)
        rec.check(opt == expected, f"{item_id}: OPT {opt} != {expected}")

    def small(item_id, rates):
        opt = _oracle(api, rec, item_id, rates)
        # default m puts these in the small side; criterion 9's bound
        cert = _eight_fifths(api, rec, item_id, rates, None)
        if opt is not None:
            rec.check(
                cert["global_realized"] <= F(8, 5) * opt + 4 * rates.rates[0],
                f"{item_id}: above 8/5 OPT + 4 s_max",
            )

    def reduce_max(item_id, rates, horizon):
        with rec.build():
            trace, report = api.reduce_max(rates, horizon)
        rec.check(len(trace) == horizon and min(trace) >= 1, f"{item_id}: malformed trace")
        # criterion 6: b_1 climbs to 4 h_1 = 12/7 - 36/(7i)
        rec.check(report.per_bamboo_max[0] >= 4 * rates.rates[0], f"{item_id}: b_1 below 4 h_1")
        rec.out(item_id, array("q", trace).tobytes(), report.global_max)
        rec.counts["online.rounds"] += horizon

    def reduce_fastest(item_id, rates):
        opt = _oracle(api, rec, item_id, rates)
        for x in (F(3, 2), F(2)):
            with rec.build():
                trace, report = api.reduce_fastest(rates, x, 400)
            rec.check(len(trace) == 400, f"{item_id}: malformed trace")
            rec.out(item_id, array("q", trace).tobytes(), report.global_max)
            rec.counts["online.rounds"] += 400
            if opt is not None:
                worst = rec.counts["online.reduce_fastest.max_ratio_vs_opt"]
                rec.counts["online.reduce_fastest.max_ratio_vs_opt"] = max(worst, report.global_max / opt)

    for k, (rates, expected) in enumerate(inputs["criterion1"]):
        items.append((f"opt-c1-{k}", criterion1, rates, expected))
    for k, rates in enumerate(inputs["small"]):
        items.append((f"small-{k}", small, rates))
    items.append(("opt-six", oracle, inputs["six"], None))
    # rm127 k=1 (n = 11) needs more than the default 10^6 states today
    items.append(("opt-over-budget", oracle, inputs["over_budget"], 10**4 if tiny else None))
    for k, (case, m, rates) in enumerate(inputs["cases"]):
        items.append((f"e85-case-{k}", eight_fifths, rates, m, case))
    for k, (rates, m) in enumerate(inputs["heavy"]):
        items.append((f"e85-heavy-{k}", eight_fifths, rates, m, None))
    items.append(("e85-big-merge", eight_fifths, *inputs["big_merge"], None))
    for rates in inputs["rm127"]:
        k = (rates.n - 4) // 7
        items.append((f"reduce-max-{k}", reduce_max, rates, 18 * k + 6))
    for k, rates in enumerate(inputs["greedy_fast"]):
        items.append((f"reduce-fastest-{k}", reduce_fastest, rates))

    for item_id, run, *args in _interleaved(items):
        with rec.item(item_id):
            run(item_id, *args)
    rec.work += len(rec.latencies) - len(rec.refused)


# ---------------------------------------------------------------------------
# patrol: criterion-10 distribution plus the criterion-11 spiral
# ---------------------------------------------------------------------------


def patrol_generate(api, seed: int, tiny: bool):
    rng = random.Random(seed)
    sizes = [2, 5, 12, 20] if tiny else _log_grid(2, 200, 28)
    metrics = [api.gen_random_metric(n, rng.randrange(2**32)) for n in sizes]
    return {"metrics": metrics, "spiral": api.gen_spiral(64 if tiny else 512)}


def patrol_digest(inputs) -> str:
    parts = []
    for inst in inputs["metrics"] + [inputs["spiral"]]:
        parts.append(_rates_text(inst.rates))
        parts.append(";".join(",".join(map(str, row)) for row in inst.travel))
    return _digest_of(parts)


def _walk_text(walk) -> str:
    return ";".join(f"{v}@{t}" for v, t in walk)


def _patrol_walk(api, rec: Pass, item_id: str, inst, algo: int, horizon, lower: F):
    run = (api.algorithm1, api.algorithm2, api.algorithm3)[algo - 1]
    with rec.build():
        walk = run(inst, horizon)
    report = api.simulate_walk(inst, walk, strict=True)
    bound = api.certificate_bound(inst, algo)
    rec.check(report.global_max <= bound, f"{item_id}: realized {report.global_max} > certificate {bound}")
    rec.check(lower <= bound, f"{item_id}: lower bound {lower} above certificate {bound}")
    rec.out(_walk_text(walk), report.global_max, bound)
    rec.work += len(walk)
    rec.counts["continuous.walk_legs"] += len(walk)
    return report


def patrol_pass(api, inputs, rec: Pass, tiny: bool) -> None:
    for k, inst in _interleaved(list(enumerate(inputs["metrics"]))):
        with rec.item(f"bounds-{k}"):
            _, weight = api.mst(list(range(1, inst.n + 1)), inst.travel)
            horizon = 2 * (inst.diameter + 2 * weight)
            by_diameter = api.lower_bound_diameter(inst)
            by_mst, witness = api.lower_bound_mst(inst)
            rec.out(weight, by_diameter, by_mst, witness)
        lower = max(by_diameter, by_mst)
        for algo in (1, 2, 3):
            with rec.item(f"patrol-{k}-a{algo}"):
                _patrol_walk(api, rec, f"patrol-{k}-a{algo}", inst, algo, horizon, lower)
    spiral = inputs["spiral"]
    with rec.item("spiral-a3"):
        report = _patrol_walk(api, rec, "spiral-a3", spiral, 3, 400, api.lower_bound_diameter(spiral))
        d1 = api.spiral_arc_spacing(spiral.n)
        # criterion 11: the class patrol stays within a constant of d_1
        rec.check(d1 / 2 <= report.global_max <= 20 * d1, f"spiral: realized {report.global_max} vs d1 {d1}")


class Workload:
    def __init__(self, name, work_unit, generate, input_digest, run_pass):
        self.name = name
        self.work_unit = work_unit
        self.generate = generate
        self.input_digest = input_digest
        self.run_pass = run_pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("main-corpus", "bamboos", main_corpus_generate, main_corpus_digest, main_corpus_pass),
        Workload("stream-1e5", "rounds", stream_generate, stream_digest, stream_pass),
        Workload("exact-small", "items", exact_small_generate, exact_small_digest, exact_small_pass),
        Workload("patrol", "legs", patrol_generate, patrol_digest, patrol_pass),
    )
}
