"""dax-kernel benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload target_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it measures the same workload untraced for half the time
and traced for the other half, and reports per-layer metrics per pass over
the op list, the tracing overhead, and the share of op time no span covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A summary, the
patched names (traced runs) and the run record path come before it.  The
run record and the spans are written to ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

@dataclass
class Outcome:
    res: object          # harness.Passes of the measured (traced) phase
    problems: dict
    sizes: dict
    failed: int
    attempted: int
    metrics: dict
    units: dict
    tracer: object = None


END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def import_package():
    """Import ``daxkernel`` from this checkout's ``src``; exit 2 if absent."""
    if not (SRC / "daxkernel" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'daxkernel'}")
    sys.path.insert(0, str(SRC))
    import daxkernel
    if Path(daxkernel.__file__).resolve().parent != SRC / "daxkernel":
        sys.exit(f"bench: daxkernel imported from {daxkernel.__file__}, not {SRC}")


def parse_args(argv=None):
    import corpus
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_untraced(ops, seconds, expected, record):
    """End-to-end metrics with tracing off."""
    import harness
    setup_s, raw_setup_s = harness.measure_setup(str(SRC))
    res = harness.run_passes(ops, seconds)
    rss = harness.peak_rss_mb()
    problems, sizes = harness.verify(ops, res, expected)
    failed = harness.failed_count(res, problems)
    ok = (res.attempted - failed) / res.attempted  # failed ops do not count

    def figures(latencies):
        p50, p90 = harness.latency_ms(latencies)
        return {"ops_per_s": statistics.median(res.pass_rates(latencies)) * ok,
                "op_ms.p50": p50, "op_ms.p90": p90}

    metrics = {**figures(res.scaled()), "setup_s": setup_s, "peak_rss_mb": rss}
    record["raw"] = {**figures(res.latencies), "setup_s": raw_setup_s,
                     "reference_ms.median": 1000.0 * statistics.median(res.reference)}
    return Outcome(res, problems, sizes, failed, res.attempted, metrics,
                   END_TO_END_UNITS)


def run_traced(ops, seconds, expected, record):
    """Per-layer metrics: half the time untraced, half traced."""
    import harness
    import spans
    untraced = harness.run_passes(ops, seconds / 2.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = harness.run_passes(ops, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    problems, sizes = harness.verify(ops, res, expected)
    # tracing must not change a single output byte
    for op_id, out in untraced.outputs.items():
        if res.outputs.get(op_id) != out:
            problems.setdefault(op_id, []).append("traced output differs")
    failed = harness.failed_count(res, problems) + harness.failed_count(untraced, problems)
    metrics = harness.layer_metrics(tracer, untraced, res)
    record["patched"] = tracer.patched
    record["layers"] = {name: {"calls": t[0], "total_s": t[1], "self_s": t[2]}
                        for name, t in sorted(tracer.totals.items())}
    return Outcome(res, problems, sizes, failed, res.attempted + untraced.attempted,
                   metrics, harness.per_layer_units(), tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import check
    import corpus

    ops = corpus.build(args.workload, args.seed)
    inputs = corpus.digest(ops)
    expected = check.load_expected(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "inputs_digest": inputs,
              "expected_outputs": expected is not None, "python": sys.version}
    run = run_traced if args.trace else run_untraced
    out = run(ops, args.seconds, expected, record)
    res, problems, failed, attempted = out.res, out.problems, out.failed, out.attempted
    if expected is not None and expected["inputs"] != inputs:
        problems["inputs"] = ["generated inputs differ from expected.json"]

    scaled = res.scaled()
    record["ops"] = {op.op_id: {"command": op.command, **out.sizes[op.op_id],
                                "runs": len(scaled[k::len(ops)]),
                                "median_ms": 1000.0 * statistics.median(scaled[k::len(ops)])}
                     for k, op in enumerate(ops)}
    record.update({"attempted": attempted, "failed": failed,
                   "failed_ratio": failed / attempted, "passes": res.passes,
                   "elapsed_s": res.elapsed, "metrics": out.metrics,
                   "problems": problems})

    out_dir = BENCH / "runs"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if out.tracer is not None:
        out.tracer.write_spans(out_dir / f"{stem}.spans.jsonl")
        for name, span, where in out.tracer.patched:
            print(f"patched {name} as {span}: {', '.join(where)}")
        for name, (calls, total, self_s) in sorted(
                out.tracer.totals.items(), key=lambda kv: -kv[1][2]):
            print(f"layer {name:24s} calls/pass {calls / res.passes:12.1f}"
                  f"  self s/pass {self_s / res.passes:9.4f}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}:"
          f" inputs {inputs[:16]}, {len(ops)} ops x {res.passes} passes,"
          f" {attempted} attempted, {failed} failed, record {out_dir / stem}.json")
    for op_id, found in problems.items():
        for problem in found:
            print(f"PROBLEM {op_id}: {problem}")
    for name, value in out.metrics.items():
        print(f"{name} = {value!r} {out.units[name]}")
    print(f"failed_ratio = {failed / attempted!r} ratio")
    for name, value in record.get("raw", {}).items():
        print(f"unscaled {name} = {value!r}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": out.units[name]}
                    for name, value in out.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
