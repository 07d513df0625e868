"""Seeded benchmark for bgt, with an exactness gate.

    python3 perfbench/run.py --workload main-corpus --seed 1 --seconds 10 --trace 0

Run from the root of a bgt source tree; bgt is imported from its `src/`.
One single-threaded process drives a closed loop: the workload's items run
back to back, a whole pass at a time, for the number of passes that comes
nearest to `--seconds` of CPU time, and at least two.  Set-up (import plus input generation) is repeated three
times and its median reported.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs untraced and
traced passes alternately and prints the per-layer metrics taken from the
traced ones, plus the tracing overhead; its spans go to
`perfbench/out/spans-<workload>-<seed>.jsonl`.  metrics.json says what each
metric means and which end-to-end metric each layer metric should move.

Every output is checked.  Certificates are checked by property on every
run; outputs that must stay bit-identical are hashed and compared with
reference.json when it holds the seed, and with the other passes of the run
always.  Any wrong output makes the run print `"correct": false` and exit 1.
A state-budget refusal is not a wrong output: it is counted, and lowers
`completed_ratio`.

The last line of standard output is the result; the line before it is the
run record (versions, machine, digests, sample counts).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_REPS = 3


def _git_commit() -> str:
    """HEAD of the source tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_bgt():
    """Import bgt from this tree's src/, timing it; None when it is absent."""
    src = ROOT / "src"
    if not (src / "bgt" / "__init__.py").is_file():
        return None, 0.0
    sys.path.insert(0, str(src))
    t0 = process_time()
    import bgt
    elapsed = process_time() - t0
    if Path(bgt.__file__).resolve().parent != src / "bgt":
        return None, 0.0
    return bgt, elapsed


def _percentiles(latencies: list[float]) -> tuple[float, float]:
    if len(latencies) < 2:
        return (latencies[0], latencies[0]) if latencies else (0.0, 0.0)
    return median(latencies), quantiles(latencies, n=10)[8]


def _layer_metrics(tracer, setup_reps: int, traced: list, untraced: list) -> dict:
    """Per-layer figures: seconds and calls per set-up or per pass, counts per pass."""
    metrics = {}
    for phase, per in (("setup", setup_reps), ("run", len(traced))):
        for name, (seconds, calls) in tracer.totals(phase).items():
            if name != "item":
                metrics[f"{name}.s"] = seconds / per
                metrics[f"{name}.calls"] = calls / per
    counts = traced[0].counts
    oracle_tries = counts["oracle.attempted"]
    lanes = counts["offline.oracle_lanes"]
    metrics.update({
        "core.io.bytes": counts["core.io.bytes"],
        "pinwheel.merges": counts["pinwheel.merges"],
        "pinwheel.next_cuts_stream.rounds": counts["pinwheel.next_cuts_stream.rounds"],
        "pinwheel.hyperperiod": counts["pinwheel.hyperperiod"],
        "oracle.candidates": counts["oracle.candidates"],
        "oracle.solved_ratio": counts["oracle.solved"] / oracle_tries if oracle_tries else 0,
        "oracle.budget_exceeded": counts["oracle.budget_exceeded"],
        "offline.merged_rounds": counts["offline.merged_rounds"],
        "offline.oracle_lane_ratio": counts["offline.oracle_lanes_ok"] / lanes if lanes else 0,
        "offline.cases_hit": sum(1 for k in counts if k.startswith("offline.case")),
        "online.rounds": counts["online.rounds"],
        "online.reduce_fastest.max_ratio_vs_opt": float(counts["online.reduce_fastest.max_ratio_vs_opt"]),
        "continuous.walk_legs": counts["continuous.walk_legs"],
        "trace.overhead_s": median(p.cpu_s for p in traced) - median(p.cpu_s for p in untraced),
    })
    return metrics


def _gate(workload: str, key: str, passes: list, input_digests: set, record: bool):
    """Wrong outputs found by the passes, the digests and reference.json.

    Returns the error messages and whether this seed's digests matched the
    reference ("matched", "mismatch", or "absent" for a seed it lacks).
    With `record`, first stores this seed's digests as the reference.
    """
    errors = [e for p in passes for e in p.errors]
    if len(input_digests) != 1:
        errors.append("inputs differ between set-ups of the same seed")
    first = passes[0]
    if any(p.digest != first.digest or p.opt != first.opt for p in passes):
        errors.append("outputs differ between passes of the same run")
    inputs = min(input_digests)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if record:
        reference.setdefault(workload, {})[key] = {"inputs": inputs, "outputs": first.digest, "opt": first.opt}
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    ref = reference.get(workload, {}).get(key)
    if not ref:
        return errors, "absent"
    mismatches = []
    if ref["inputs"] != inputs:
        mismatches.append(f"inputs digest {inputs} != reference {ref['inputs']}: a generator changed")
    if ref["outputs"] != first.digest:
        mismatches.append(f"outputs digest {first.digest} != reference {ref['outputs']}")
    # an item the reference lacks was refused there; solving it now is fine
    for item, value in ref["opt"].items():
        if item in first.opt and first.opt[item] != value:
            mismatches.append(f"{item}: OPT {first.opt[item]} != reference {value}")
    return errors + mismatches, "mismatch" if mismatches else "matched"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    ap.add_argument("--record-reference", action="store_true",
                    help="store this seed's digests in reference.json (one set-up, one pass)")
    args = ap.parse_args(argv)

    if sys.flags.optimize or not __debug__:
        print("refusing to run under python -O: bgt's certificates are asserts", file=sys.stderr)
        return 2
    bgt, import_s = _import_bgt()
    if bgt is None:
        print(f"bgt sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy

    from tracing import Api, Tracer
    from workloads import WORKLOADS, Pass

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    plain = Api(bgt)
    traced_api = Api(bgt, tracer) if tracer else None
    reps = 1 if args.record_reference else SETUP_REPS

    gen_s, input_digests = [], set()
    inputs = None
    for _ in range(reps):
        inputs = None  # let the previous set-up's inputs go first
        t0 = process_time()
        inputs = wl.generate(traced_api or plain, args.seed, args.tiny)
        gen_s.append(process_time() - t0)
        input_digests.add(wl.input_digest(inputs))
    if tracer:
        tracer.phase = "run"
    key = ("tiny-" if args.tiny else "") + str(args.seed)
    # The benchmark holds all of a workload's inputs at once, where a CLI
    # process holds one; freezing them keeps the collector from charging
    # each item for traversing inputs that are not its own.
    gc.collect()
    gc.freeze()

    passes: list = []
    target = 1
    while len(passes) < target:
        traced = bool(tracer) and len(passes) % 2 == 1
        rec = Pass(traced_api if traced else plain, traced)
        t0, w0 = process_time(), perf_counter()
        wl.run_pass(rec.api, inputs, rec, args.tiny)
        rec.cpu_s, rec.wall_s = process_time() - t0, perf_counter() - w0
        passes.append(rec)
        if len(passes) == 1:
            # set-up plus one pass: later passes only add allocator noise
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # as many whole passes as come nearest to --seconds of CPU time,
            # so one workload runs the same number of passes on every seed;
            # at least two, as one pass is too short to average out the host
            if not args.record_reference:
                target = max(2, round(args.seconds / max(rec.cpu_s, 1e-9)))

    errors, reference_status = _gate(wl.name, key, passes, input_digests, args.record_reference)
    first = passes[0]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    refused = sum(len(p.refused) for p in passes)
    timing = [p for p in passes if not p.traced]
    latencies = [x for p in timing for x in p.latencies]
    p50, p90 = _percentiles(latencies)
    work = sum(p.work for p in timing)
    work_time = sum(p.stream_s if wl.name == "stream-1e5" else p.cpu_s for p in timing)
    if tracer:
        metrics = _layer_metrics(tracer, reps, [p for p in passes if p.traced], timing)
        units = json.loads((HERE / "metrics.json").read_text())["per_layer"]
    else:
        metrics = {
            "setup_s": import_s + median(gen_s),
            "run_s": median(p.cpu_s for p in timing),
            "work_per_s": work / work_time,
            "item_p50_ms": p50 * 1e3,
            "item_p90_ms": p90 * 1e3,
            "build_s": median(p.build_s for p in timing),
            "completed_ratio": (attempted - refused - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = json.loads((HERE / "metrics.json").read_text())["end_to_end"]
    units = {m["name"]: m["unit"] for m in units}

    record = {
        "workload": wl.name, "seed": args.seed, "traced": bool(tracer), "tiny": args.tiny,
        "seconds": args.seconds, "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "commit": _git_commit(),
        "closed_loop": "one process, one thread, items back to back",
        "setup_reps": reps, "import_s": import_s, "generate_s": gen_s,
        "passes": len(passes), "timing_passes": len(timing),
        "pass_cpu_s": [p.cpu_s for p in passes],
        "pass_wall_s": [p.wall_s for p in passes],
        "work_unit": wl.work_unit, "work": work,
        "item_samples": len(latencies),
        "item_samples_above_p90": sum(1 for x in latencies if x > p90),
        "failed_ratio": (refused + failed) / attempted, "refused": first.refused,
        "input_digest": min(input_digests), "output_digest": first.digest,
        "reference": reference_status,
        "errors": errors[:20],
    }
    if tracer:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{wl.name}-{key}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    for e in errors[:20]:
        print(f"gate: {e}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": units[name]} for name in units},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
