"""Executing ops, timing passes and deriving metrics.

One op is the full path of one command: load the scene text, compute, and
render the report as JSON and as text.  The loop is closed with a single
client: the next op starts when the previous one returns.  Runs time whole
passes over the workload's op list until the time is up, so every op
contributes the same number of samples.

Op times are scaled to a reference CPU speed (see ``reference``): before
each op the loop times ``reference_work``, and each op's time is multiplied
by ``REFERENCE_S`` over the median reference time of the seven ops around
it.  The raw times are kept in the run record.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from daxkernel import cli, scene, traces

import check
from reference import REFERENCE_S, reference_work

# per-layer metrics reported as seconds of self time per pass: layers that
# run on every workload
SELF_S = ("groups.ball", "groups.normalize", "pairing.lambda", "calculus.dax",
          "quotient.build_rel", "snf.sparse", "scene.loads", "cli.run_scene",
          "cli.render")
# layers that some workloads never reach: reported as a share of traced op
# time, so a layer that does not run reads 0 % rather than a constant 0 s
SELF_PCT = ("snf.dense_residual", "snf.dense_transform", "quotient.coords",
            "snf.hermite", "snf.reduce", "quotient.orbit", "quotient.concordance",
            "traces.universality")
CALLS = ("groups.normalize", "calculus.dax", "quotient.solver",
         "quotient.structure", "quotient.coords", "quotient.orbit",
         "quotient.concordance", "snf.sparse", "snf.dense_residual",
         "snf.dense_transform", "snf.hermite", "snf.reduce", "snf.solve",
         "traces.universality")
COUNTERS = ("groups.ball.elements", "quotient.generators", "quotient.relations",
            "quotient.dropped", "snf.sparse.nnz", "snf.dense_residual.cells",
            "snf.dense_transform.cells", "quotient.orbit.states",
            "quotient.orbit.incomplete", "cli.report_bytes")


def per_layer_units() -> dict[str, str]:
    units = {f"{n}.self_s": "s" for n in SELF_S}
    units.update({f"{n}.self_pct": "%" for n in SELF_PCT})
    units.update({("quotient.solver.builds" if n == "quotient.solver"
                   else f"{n}.calls"): "count" for n in CALLS})
    units.update({n: "count" for n in COUNTERS})
    units.update({"trace.overhead_pct": "%", "trace.uncovered_pct": "%"})
    return units


def run_op(op, span=lambda name: contextlib.nullcontext()) -> str:
    """Load, compute and render one op; returns the JSON line and the text."""
    sc = scene.loads_scene(op.scene_text)
    if op.command == "universality":
        rs, action = cli.build_relations(sc, op.window)
        result = traces.universality_witness(
            list(sc.knots), {k: tuple(v) for k, v in op.values.items()}, rs, action)
        report = {
            "command": "universality",
            "scene": scene.scene_to_dict(sc),
            "window": op.window,
            "knots": [{"name": k.name,
                       "value": str(traces.eval_dax_trace(k.trace, sc.group))}
                      for k in sc.knots],
        }
        if isinstance(result, traces.Witness):
            report["outcome"] = "witness"
            report["witness"] = {"combination": result.combination,
                                 "modulus": result.modulus,
                                 "detail": result.detail}
        else:
            w_map, base = result
            report["outcome"] = "solution"
            report["w_map"] = {k: list(v) for k, v in w_map.items()}
            report["base_value"] = list(base)
    else:
        report = cli.run_scene(sc, op.command, op.window, op.extra_value)
    with span("report.json"):
        text = json.dumps(report, sort_keys=True)
    return text + "\n" + cli.render_report(report)


@dataclass
class Passes:
    """Latencies and outputs of whole passes over one op list."""

    latencies: list[float] = field(default_factory=list)   # raw seconds
    reference: list[float] = field(default_factory=list)   # seconds, per op
    outputs: dict[str, str] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)   # op id -> failures
    runs: dict[str, int] = field(default_factory=dict)     # op id -> runs
    passes: int = 0
    elapsed: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled(self) -> list[float]:
        """Op seconds at the reference speed."""
        ref = self.reference
        return [lat * REFERENCE_S / statistics.median(ref[max(0, i - 3):i + 4])
                for i, lat in enumerate(self.latencies)]

    def pass_rates(self, latencies: list[float]) -> list[float]:
        """Ops per second of op time, one value per pass."""
        n = len(latencies) // self.passes
        return [n / sum(latencies[k:k + n]) for k in range(0, len(latencies), n)]


def run_passes(ops, seconds: float, tracer=None) -> Passes:
    """Closed loop, one client: whole passes until ``seconds`` have gone by."""
    res = Passes()
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    start = time.perf_counter()
    while True:
        for op in ops:
            if tracer:
                tracer.op_id = op.op_id
            t0 = time.perf_counter()
            reference_work()
            res.reference.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            try:
                with span("op"):
                    out = run_op(op, span)
            except Exception:  # an op that raises is a failed op; keep running
                out = None
                res.errors.setdefault(op.op_id, traceback.format_exc())
            res.latencies.append(time.perf_counter() - t0)
            res.runs[op.op_id] = res.runs.get(op.op_id, 0) + 1
            if out is None or res.outputs.setdefault(op.op_id, out) != out:
                res.failed[op.op_id] = res.failed.get(op.op_id, 0) + 1
            elif tracer:
                tracer.counters["cli.report_bytes"] += out.index("\n")
        res.passes += 1
        if time.perf_counter() - start >= seconds:
            break
    res.elapsed = time.perf_counter() - start
    return res


def op_sizes(op) -> dict:
    """Generators, relations, dropped relations and nonzeros of the op's
    relation set, at the largest window the op builds."""
    sc = scene.loads_scene(op.scene_text)
    window = op.window or max(cli.DEFAULT_SWEEP)
    rs = cli.build_relations(sc, window)[0]
    return {"window": window, "generators": len(rs.generators),
            "relations": len(rs.relations), "dropped": len(rs.dropped),
            "nonzeros": sum(len(rel.items()) for rel in rs.relations)}


def verify(ops, res: Passes, expected: dict | None) -> tuple[dict, dict]:
    """Check each op's first output; returns (problems by op id, sizes)."""
    problems: dict[str, list[str]] = {}
    sizes = {}
    reports = {op_id: json.loads(out.split("\n", 1)[0])
               for op_id, out in res.outputs.items()}
    for op in ops:
        found = []
        if op.op_id in res.errors:
            found.append(res.errors[op.op_id].strip().splitlines()[-1])
        if res.failed.get(op.op_id) and op.op_id not in res.errors:
            found.append("output differs between repetitions")
        try:
            sizes[op.op_id] = op_sizes(op)
        except Exception as exc:  # the op's own relation build fails too
            sizes[op.op_id] = {}
            found.append(f"relation set sizes: {exc!r}")
        report = reports.get(op.op_id)
        if report is not None:
            found += check.check_report(op, report, reports.get(op.pair),
                                        sizes[op.op_id])
            if expected is not None:
                want = expected["ops"].get(op.op_id, {}).get("digest")
                if check.invariant_digest(report) != want:
                    found.append("basis-invariant fields differ from expected.json")
        if found:
            problems[op.op_id] = found
    return problems, sizes


def failed_count(res: Passes, problems: dict) -> int:
    """Ops that raised, changed output, or belong to an op whose output is wrong."""
    return sum(res.runs[op_id] if op_id in problems else res.failed.get(op_id, 0)
               for op_id in res.runs)


def measure_setup(src: str, repeats: int = 15) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to ``import daxkernel``: the median
    of ``repeats`` interpreters, scaled by the median reference time each
    interpreter measured just before; also returns the unscaled median."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:];"
            " from reference import reference_work; reference_work();"
            " t = time.perf_counter(); reference_work();"
            " r = time.perf_counter() - t;"
            " t = time.perf_counter(); import daxkernel;"
            " print(repr(time.perf_counter() - t), repr(r))")
    imports, refs = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code, str(Path(__file__).parent), src],
            capture_output=True, text=True, timeout=60, check=True)
        seconds, ref = map(float, proc.stdout.split())
        imports.append(seconds)
        refs.append(ref)
    raw = statistics.median(imports)
    return raw * REFERENCE_S / statistics.median(refs), raw


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_ms(latencies: list[float]) -> tuple[float, float]:
    """Median and 90th percentile in milliseconds."""
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return q[4] * 1000.0, q[8] * 1000.0


def layer_metrics(tracer, untraced: Passes, traced: Passes) -> dict[str, float]:
    """Per-layer values per traced pass; self times scaled like op times, by
    the traced phase's median reference time."""
    totals = tracer.totals
    op_time = totals.get("op", [0, 0.0, 0.0])[1]
    per_pass = float(traced.passes)
    scale = REFERENCE_S / statistics.median(traced.reference)

    def self_time(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    out = {f"{n}.self_s": self_time(n) * scale / per_pass for n in SELF_S}
    out.update({f"{n}.self_pct": 100.0 * self_time(n) / op_time for n in SELF_PCT})
    for n in CALLS:
        key = "quotient.solver.builds" if n == "quotient.solver" else f"{n}.calls"
        out[key] = totals.get(n, [0])[0] / per_pass
    for n in COUNTERS:
        out[n] = tracer.counters.get(n, 0) / per_pass
    rate = [statistics.median(r.pass_rates(r.scaled())) for r in (untraced, traced)]
    out["trace.overhead_pct"] = 100.0 * (rate[0] / rate[1] - 1.0)
    out["trace.uncovered_pct"] = 100.0 * self_time("op") / op_time
    return out
