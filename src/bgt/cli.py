"""argparse front end: generate, simulate, schedule, certify, benchmark.

Exit codes: 0 = success / every certification passed; 1 = a certification
failed (bound violated, invalid schedule, oracle budget exhausted, internal
certificate broken); 2 = malformed input, with a message naming the
offending field.

Rationals in emitted JSON/CSV are "numerator/denominator" strings; columns
suffixed _approx are float conveniences, not exact values.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from fractions import Fraction
from itertools import islice

from .continuous import (
    MetricInstance,
    algorithm1,
    algorithm2,
    algorithm3,
    certificate_bound,
    gen_spiral,
    gen_two_cluster,
    lower_bound_diameter,
    lower_bound_mst,
)
from .core import (
    CertificateError,
    InstanceFormatError,
    RateVector,
    ScheduleError,
    SimulationReport,
    evaluate_cyclic,
    frac,
    gen_planted_head,
    integer_weights,
    load_instance,
    load_schedule,
    next_cuts_stream,
    save_instance,
    save_schedule,
    simulate_walk,
)
from .offline import eight_fifths
from .online import (
    diverging_bamboo,
    gen_reduce_fastest_lb,
    gen_reduce_max_12_7_family,
    reduce_fastest,
    reduce_max,
)
from .oracle import (
    DEFAULT_STATE_BUDGET,
    BudgetExceededError,
    feasible_under_cap,
    optimal_height,
    pinwheel_feasible,
)
from .pinwheel import (
    density,
    density_34_frequencies,
    gen_integer_frequencies,
    main_algorithm,
    two_approx,
)

ENV_BUDGET = "BGT_ORACLE_BUDGET"


def _rat(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _jsonable(x):
    if isinstance(x, Fraction):
        return _rat(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _budget() -> int:
    raw = os.environ.get(ENV_BUDGET)
    if raw is None:
        return DEFAULT_STATE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise InstanceFormatError(ENV_BUDGET, f"must be an integer, got {raw!r}")
    if value < 1:
        raise InstanceFormatError(ENV_BUDGET, f"must be >= 1, got {value}")
    return value


def _emit(doc: dict, path: str | None = None) -> None:
    text = json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fp:
            fp.write(text)
    sys.stdout.write(text)


def _report_doc(
    H: Fraction,
    report: SimulationReport,
    bound: Fraction | None,
    oracle_opt: Fraction | None = None,
) -> dict:
    doc = {
        "per_bamboo_max": [_rat(v) for v in report.per_bamboo_max],
        "global_max": _rat(report.global_max),
        "bound": _rat(bound) if bound is not None else None,
        "bound_satisfied": bool(report.global_max <= bound) if bound is not None else None,
        "ratio_vs_H": _rat(report.global_max / H),
    }
    if oracle_opt is not None:
        doc["ratio_vs_oracle"] = _rat(report.global_max / oracle_opt)
    return doc


def _load(path: str, kind: type = RateVector):
    """The instance file at `path`, which must hold a `kind`."""
    with open(path) as fp:
        obj = load_instance(fp)
    if not isinstance(obj, kind):
        if kind is RateVector:
            raise InstanceFormatError("travel", "expected a discrete instance (no travel matrix)")
        raise InstanceFormatError("travel", "expected a metric instance (travel matrix missing)")
    return obj


def _schedule(rates: RateVector, algo: str, m=None) -> tuple:
    """(schedule, certified bound, report extras) of one discrete scheduler."""
    if algo == "two":
        return two_approx(rates), 2 * rates.H, {}
    if algo == "main":
        sched, diag = main_algorithm(rates)
        return sched, diag.bound, {"delta": diag.delta, "final_density": diag.final_density}
    sched, cert = eight_fifths(rates, m, oracle_budget=_budget())
    return sched, cert["global_bound"], {"case": cert["case"], "certificate": cert}


def _write_instance(obj, path: str | None) -> None:
    if path:
        with open(path, "w") as fp:
            save_instance(obj, fp)
    else:
        save_instance(obj, sys.stdout)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.family == "random":
        obj = gen_planted_head(args.n, frac(args.head_ratio), args.seed)
    elif args.family == "rm127":
        obj = gen_reduce_max_12_7_family(args.k)
    elif args.family == "rf-lb":
        obj = gen_reduce_fastest_lb(frac(args.x), frac(args.eps))
    else:  # freqs
        freqs = gen_integer_frequencies(args.f1, args.seed)
        obj = RateVector([Fraction(1, f) for f in freqs])
    _write_instance(obj, args.out)
    return 0


def cmd_simulate(args) -> int:
    default_rounds = None
    if args.family:
        if args.instance:
            raise InstanceFormatError("instance", "give either an instance file or --family")
        if args.family == "rm127":
            if args.k is None:
                raise InstanceFormatError("k", "--family rm127 needs --k")
            rates = gen_reduce_max_12_7_family(args.k)
            default_rounds = 18 * args.k + 6
        else:
            if args.x is None or args.eps is None:
                raise InstanceFormatError("x", "--family rf-lb needs --x and --eps")
            rates = gen_reduce_fastest_lb(frac(args.x), frac(args.eps))
    elif args.instance:
        rates = _load(args.instance)
    else:
        raise InstanceFormatError("instance", "give an instance file or --family")

    rounds = args.rounds if args.rounds is not None else default_rounds
    if rounds is None:
        raise InstanceFormatError("rounds", "this strategy needs --rounds")
    extra: dict = {}
    if args.strategy == "reduce-max":
        schedule_list, report = reduce_max(rates, rounds)
    else:
        if args.x is None:
            raise InstanceFormatError("x", "reduce-fastest needs --x")
        schedule_list, report = reduce_fastest(rates, frac(args.x), rounds)
        extra["diverging_bamboo"] = diverging_bamboo(rates, schedule_list)

    bound = frac(args.bound) if args.bound else None
    doc = _report_doc(rates.H, report, bound)
    doc.update(extra)
    if args.trace:
        _write_trace(rates, schedule_list, args.trace)
    _emit(doc, args.report)
    return 0 if bound is None or report.global_max <= bound else 1


def _write_trace(rates: RateVector, schedule: list[int], path: str) -> None:
    """Per-round CSV: the cut made and the tallest height just before it."""
    w, d = integer_weights(rates)
    last = [0] * rates.n  # round of the latest cut; bamboo i is (r - last[i]) * w[i] / d tall
    with open(path, "w", newline="") as fp:
        out = csv.writer(fp, lineterminator="\n")
        out.writerow(["round", "cut", "max_height", "max_height_approx"])
        for r, c in enumerate(schedule, start=1):
            tallest = Fraction(max((r - t) * w_i for t, w_i in zip(last, w)), d)
            if c:
                last[c - 1] = r
            out.writerow([r, c, _rat(tallest), float(tallest)])


def cmd_approx(args) -> int:
    rates = _load(args.instance)
    if args.algo == "d34":
        freqs = density_34_frequencies(rates)
        _emit({"frequencies": freqs, "density": density(freqs)}, args.report)
        return 0
    sched, bound, extra = _schedule(rates, args.algo, frac(args.m) if args.m else None)
    report = evaluate_cyclic(rates, sched)
    oracle_opt = None
    if args.oracle:
        oracle_opt, _ = optimal_height(rates, state_budget=_budget())
    doc = _report_doc(rates.H, report, bound, oracle_opt)
    doc.update(_jsonable(extra))
    if args.algo == "eightfifths":
        doc["schedule_prefix"] = list(islice(next_cuts_stream(sched), 64))
    if args.out:
        with open(args.out, "w") as fp:
            save_schedule(sched, fp)
    _emit(doc, args.report)
    return 0 if report.global_max <= bound else 1


def cmd_oracle(args) -> int:
    budget = _budget()
    if args.op == "opt":
        rates = _load(args.instance)
        value, witness = optimal_height(rates, state_budget=budget)
        if args.schedule_out:
            with open(args.schedule_out, "w") as fp:
                save_schedule(witness, fp)
        print(_rat(value))
        return 0
    if args.op == "feasible":
        rates = _load(args.instance)
        cap = frac(args.cap)
        _emit({"cap": cap, "feasible": feasible_under_cap(rates, cap, state_budget=budget)})
        return 0
    freqs = [int(tok) for tok in args.freqs.replace(",", " ").split()]
    _emit({"freqs": freqs, "feasible": pinwheel_feasible(freqs, state_budget=budget)})
    return 0


def cmd_verify(args) -> int:
    rates = _load(args.instance)
    with open(args.schedule) as fp:
        sched = load_schedule(fp)
    report = evaluate_cyclic(rates, sched)
    bound = frac(args.bound) if args.bound else None
    doc = _report_doc(rates.H, report, bound)
    ok = bound is None or report.global_max <= bound
    if args.expect_global:
        expected = frac(args.expect_global)
        doc["expected_global_max"] = expected
        doc["global_max_matches"] = report.global_max == expected
        ok = ok and report.global_max == expected
    _emit(doc, args.report)
    return 0 if ok else 1


def cmd_continuous(args) -> int:
    if args.cop == "gen":
        if args.kind == "spiral":
            inst = gen_spiral(args.n)
        else:
            inst = gen_two_cluster(args.n, frac(args.diameter))
        _write_instance(inst, args.out)
        return 0
    inst = _load(args.instance, MetricInstance)
    if args.cop == "lb":
        mst_val, witness = lower_bound_mst(inst)
        diam_val = lower_bound_diameter(inst)
        _emit(
            {
                "diameter_bound": diam_val,
                "mst_bound": mst_val,
                "mst_witness": list(witness),
                "best": max(diam_val, mst_val),
            },
            args.report,
        )
        return 0
    horizon = frac(args.horizon)
    run = {1: algorithm1, 2: algorithm2, 3: algorithm3}[args.algo]
    walk = run(inst, horizon)
    report = simulate_walk(inst, walk, strict=True)
    bound = certificate_bound(inst, args.algo)
    lb = max(lower_bound_diameter(inst), lower_bound_mst(inst)[0])
    doc = _report_doc(Fraction(1), report, bound)
    doc["lower_bound"] = _rat(lb)
    doc["ratio_vs_lower_bound"] = _rat(report.global_max / lb)
    if args.walk_out:
        with open(args.walk_out, "w", newline="") as fp:
            w = csv.writer(fp, lineterminator="\n")
            w.writerow(["step", "point", "time"])
            for k, (v, t) in enumerate(walk, start=1):
                w.writerow([k, v, _rat(t)])
    _emit(doc, args.report)
    return 0 if report.global_max <= bound else 1


def cmd_bench(args) -> int:
    ratio = frac(args.head_ratio)
    if not 0 < ratio < 1:
        raise InstanceFormatError("head-ratio", f"must be in (0, 1), got {ratio}")
    slack = 4 * (1 / ratio - 1)
    n_min = max(2, -(-slack.numerator // slack.denominator) + 1)
    if args.n_max < n_min:
        raise InstanceFormatError(
            "n-max", f"need n-max >= {n_min} for head ratio {ratio}"
        )
    budget = _budget()

    def run_one(idx: int) -> list:
        s = args.seed * 1_000_003 + idx
        n = random.Random(s).randint(n_min, args.n_max)
        rates = gen_planted_head(n, ratio, s + 1)
        sched, bound, _ = _schedule(rates, args.algo)
        report = evaluate_cyclic(rates, sched)
        opt = ratio_opt = ""
        if args.oracle_max_n and n <= args.oracle_max_n:
            try:
                value, _ = optimal_height(rates, state_budget=budget)
                opt = _rat(value)
                ratio_opt = _rat(report.global_max / value)
            except BudgetExceededError:
                pass
        return [
            idx,
            n,
            _rat(ratio),
            args.algo,
            _rat(report.global_max),
            _rat(bound),
            _rat(rates.H),
            opt,
            _rat(report.global_max / rates.H),
            ratio_opt,
            float(report.global_max),
        ]

    rows = [run_one(i) for i in range(args.count)]
    with open(args.out, "w", newline="") as fp:
        w = csv.writer(fp, lineterminator="\n")
        w.writerow(
            [
                "instance_id",
                "n",
                "head_ratio",
                "algorithm",
                "realized_max",
                "bound",
                "H",
                "oracle_opt",
                "ratio_vs_H",
                "ratio_vs_oracle",
                "realized_max_approx",
            ]
        )
        w.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bgt",
        description="Exact schedulers and patrols for perpetual trimming instances.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate instance files")
    gsub = g.add_subparsers(dest="family", required=True)
    gr = gsub.add_parser("random", help="random rates with a planted h_1/H")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--head-ratio", default="1/16", help='h_1/H as a rational, e.g. "1/64"')
    gr.add_argument("--out")
    gr.set_defaults(func=cmd_gen)
    grm = gsub.add_parser("rm127", help="Reduce-Max adversarial family (12/7 bound)")
    grm.add_argument("--k", type=int, required=True)
    grm.add_argument("--out")
    grm.set_defaults(func=cmd_gen)
    grf = gsub.add_parser("rf-lb", help="Reduce-Fastest(x) lower-bound family")
    grf.add_argument("--x", required=True)
    grf.add_argument(
        "--eps",
        required=True,
        help="0 < eps < min(x, 1-x) for x < 1; eps <= 1/4 at x = 1; eps <= "
        "min(x/4, 2(x-1)/(2-x)) for 1 < x < 2, so max/OPT >= 3/2; eps <= 1/2 for x >= 2",
    )
    grf.add_argument("--out")
    grf.set_defaults(func=cmd_gen)
    gfr = gsub.add_parser("freqs", help="integer periods below the Main feasibility margin")
    gfr.add_argument("--f1", type=int, required=True)
    gfr.add_argument("--seed", type=int, required=True)
    gfr.add_argument("--out")
    gfr.set_defaults(func=cmd_gen)

    s = sub.add_parser("simulate", help="run a greedy strategy")
    s.add_argument("instance", nargs="?", help="instance JSON (or use --family)")
    s.add_argument("--strategy", choices=["reduce-max", "reduce-fastest"], required=True)
    s.add_argument("--family", choices=["rm127", "rf-lb"])
    s.add_argument("--k", type=int, help="rm127 family parameter")
    s.add_argument("--x", help="reduce-fastest threshold factor (rational)")
    s.add_argument("--eps", help="rf-lb family parameter (rational; window as in gen rf-lb)")
    s.add_argument("--rounds", type=int)
    s.add_argument("--bound", help="certify the realized max against this rational")
    s.add_argument("--trace", help="write a per-round CSV trace here")
    s.add_argument("--report", help="also write the report JSON here")
    s.set_defaults(func=cmd_simulate)

    a = sub.add_parser("approx", help="build a certified schedule")
    a.add_argument("algo", choices=["two", "main", "eightfifths", "d34"])
    a.add_argument("instance")
    a.add_argument("--m", help="group-count override for eightfifths (rational)")
    a.add_argument("--oracle", action="store_true", help="also compute the exact optimum")
    a.add_argument("--out", help="write the schedule JSON here")
    a.add_argument("--report", help="also write the report JSON here")
    a.set_defaults(func=cmd_approx)

    o = sub.add_parser("oracle", help="exact optimum / feasibility decisions")
    osub = o.add_subparsers(dest="op", required=True)
    oo = osub.add_parser("opt", help="print the exact optimal height")
    oo.add_argument("instance")
    oo.add_argument("--schedule-out", help="write the witness schedule JSON here")
    oo.set_defaults(func=cmd_oracle)
    of = osub.add_parser("feasible", help="decide feasibility under a height cap")
    of.add_argument("instance")
    of.add_argument("--cap", required=True, help="height cap (rational)")
    of.set_defaults(func=cmd_oracle)
    opw = osub.add_parser("pinwheel", help="decide pinwheel feasibility of periods")
    opw.add_argument("--freqs", required=True, help='periods, e.g. "2,4,4"')
    opw.set_defaults(func=cmd_oracle)

    c = sub.add_parser("continuous", help="metric-space patrols")
    csub = c.add_subparsers(dest="cop", required=True)
    cr = csub.add_parser("run", help="run a patrol algorithm and certify it")
    cr.add_argument("instance")
    cr.add_argument("--algo", type=int, choices=[1, 2, 3], required=True)
    cr.add_argument("--horizon", required=True, help="patrol until this time (rational)")
    cr.add_argument("--walk-out", help="write the walk CSV (step, point, time) here")
    cr.add_argument("--report", help="also write the report JSON here")
    cr.set_defaults(func=cmd_continuous)
    cl = csub.add_parser("lb", help="print the diameter and MST lower bounds")
    cl.add_argument("instance")
    cl.add_argument("--report")
    cl.set_defaults(func=cmd_continuous)
    cg = csub.add_parser("gen", help="generate a metric instance")
    cg.add_argument("kind", choices=["spiral", "clusters"])
    cg.add_argument("--n", type=int, required=True)
    cg.add_argument("--diameter", default="1", help="cluster separation (clusters only)")
    cg.add_argument("--out")
    cg.set_defaults(func=cmd_continuous)

    v = sub.add_parser("verify", help="re-validate a schedule file against an instance")
    v.add_argument("instance")
    v.add_argument("--schedule", required=True)
    v.add_argument("--bound", help="certify the realized max against this rational")
    v.add_argument("--expect-global", help="require this exact global max (rational)")
    v.add_argument("--report")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="batch runs to CSV (deterministic per seed)")
    b.add_argument("--count", type=int, required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--algo", choices=["two", "main", "eightfifths"], default="main")
    b.add_argument("--head-ratio", default="1/16")
    b.add_argument("--n-max", type=int, default=1000)
    b.add_argument(
        "--oracle-max-n",
        type=int,
        default=0,
        help="also compute the exact optimum for instances up to this size",
    )
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InstanceFormatError as exc:
        print(f"bgt: malformed input: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"bgt: malformed input: document: {exc}", file=sys.stderr)
        return 2
    except ScheduleError as exc:
        print(f"bgt: schedule invalid: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceededError, CertificateError) as exc:
        print(f"bgt: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"bgt: malformed input: path: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bgt: malformed input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
