"""Paired A/B timing of two checkouts in one process.

    python3 tools/paired_timing.py --root ../parent --root . \
        --workload eval_knots --seed 0 --seconds 60

Each ``--root``'s ``src/daxkernel`` is copied to a temporary directory
under a private package name (the package imports itself only relatively),
and that root's ``bench/harness.py`` is loaded against the copy.  Both
roots run the ops of one ``bench/corpus.py`` workload and seed: one
warm-up pass each, whose outputs must agree, then rounds of one whole pass
per root, the order swapped every round, until ``--seconds`` have gone by.

Printed: each op's median time per root and the median over rounds of
that op's own ratio of the first root's time to the second's, which shows
the ops that gained; then the median over rounds of the ratio of the first
root's pass time to the second's, with its quartiles, and in how many
rounds the second root's pass was the faster one; then each root's
collector runs per pass, counted through ``gc.callbacks`` and charged to
the root whose pass is running (each pass starts from a full collection,
which is not counted); last, the ``Word``s each root builds in one pass,
the Fox steps (``pairing._fox_step`` calls) it takes and the pairing
tables (``pairing.PairingTable`` constructions) it builds, each counted in
one more, untimed pass per root after the timed rounds, with that root's
``groups.Word.__init__``, ``pairing._fox_step`` or
``pairing.PairingTable.__init__`` wrapped for the pass and restored after
it.  A ratio above 1 means the second root is faster.
Separate benchmark runs drift with the machine's speed; the two passes of
a round run back to back, so their ratio cancels most of that drift.  The
two package copies share one process, its allocator and its collector,
and they have been seen to interact on ``aspherical.F2.W4.eval``: treat a
per-op ratio of a few percent, or a gain in collector runs, as unconfirmed
until separate processes (``bench/run.py`` runs of each checkout) agree.
The exit status is 1 when the roots' outputs differ on some op, 0
otherwise.  Nothing under ``bench`` is edited.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_MODULES = ("check", "reference", "corpus", "harness")


def load_root(root: Path, tag: str, tmp: Path):
    """(corpus, harness, package) of ``root``, its package copied as ``tag``."""
    shutil.copytree(root / "src" / "daxkernel", tmp / tag)
    if str(tmp) not in sys.path:
        sys.path.insert(0, str(tmp))
    pkg = importlib.import_module(tag)
    # every module of the copy is loaded under its private name, so that
    # ``from daxkernel import X`` in the bench modules finds the attribute
    # and never imports a module of the package anew
    for path in sorted((tmp / tag).glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{tag}.{path.stem}")
    # the bench modules import ``daxkernel`` and each other by plain name:
    # bind those names to this root for as long as its modules load
    saved = {name: sys.modules.pop(name, None)
             for name in ("daxkernel",) + BENCH_MODULES}
    loaded = set(sys.modules)
    sys.modules["daxkernel"] = pkg
    sys.path.insert(0, str(root / "bench"))
    try:
        corpus = importlib.import_module("corpus")
        harness = importlib.import_module("harness")
    finally:
        sys.path.remove(str(root / "bench"))
        # a ``daxkernel.X`` entry would hand this root's module to the next
        for name in [n for n in sys.modules
                     if n.startswith("daxkernel.") and n not in loaded]:
            del sys.modules[name]
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module
    return corpus, harness, pkg


class CollectorRuns:
    """Collector runs counted per root: a ``gc.callbacks`` entry charges
    each run that starts while ``root`` is set to that root."""

    def __init__(self, roots: int):
        self.runs = [0] * roots
        self.root = None

    def __call__(self, phase, info):
        if phase == "start" and self.root is not None:
            self.runs[self.root] += 1


def timed_pass(harness, ops, collector: CollectorRuns, root: int) -> list[float]:
    """Seconds of each op of one pass; the collector runs during it are
    charged to ``root``."""
    gc.collect()
    times = []
    collector.root = root
    try:
        for op in ops:
            t0 = time.perf_counter()
            harness.run_op(op)
            times.append(time.perf_counter() - t0)
    finally:
        collector.root = None
    return times


def calls_per_pass(harness, ops, owner, name: str) -> int:
    """The calls of ``owner.name`` in one pass of ``ops``, counted by
    wrapping it; the original is restored afterwards."""
    original = getattr(owner, name)
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    setattr(owner, name, counting)
    try:
        for op in ops:
            harness.run_op(op)
    finally:
        setattr(owner, name, original)
    return calls


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, action="append", required=True,
                        help="a checkout to time (give exactly two)")
    parser.add_argument("--workload", required=True,
                        help="the bench/corpus.py workload to run")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default: 0)")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="time for the timed rounds (default: 60)")
    args = parser.parse_args(argv)
    if len(args.root) != 2:
        parser.error("give exactly two --root checkouts")

    with tempfile.TemporaryDirectory() as tmp:
        roots = [load_root(root.resolve(), f"_daxkernel_root{i}", Path(tmp))
                 for i, root in enumerate(args.root)]
        ops = [corpus.build(args.workload, args.seed) for corpus, _, _ in roots]
        outputs = [[harness.run_op(op) for op in op_list]
                   for (_, harness, _), op_list in zip(roots, ops)]
        differ = [op.op_id for op, a, b in zip(ops[0], *outputs) if a != b]
        if [op.op_id for op in ops[0]] != [op.op_id for op in ops[1]]:
            differ.append("(the roots build different op lists)")
        for op_id in differ:
            print(f"output differs: {op_id}")

        passes: list[list[list[float]]] = [[], []]
        collector = CollectorRuns(2)
        gc.callbacks.append(collector)
        start = time.perf_counter()
        rounds = 0
        try:
            while not rounds or time.perf_counter() - start < args.seconds:
                order = (0, 1) if rounds % 2 == 0 else (1, 0)
                for i in order:
                    passes[i].append(timed_pass(roots[i][1], ops[i], collector, i))
                rounds += 1
        finally:
            gc.callbacks.remove(collector)
        words = [calls_per_pass(harness, op_list, pkg.groups.Word, "__init__")
                 for (_, harness, pkg), op_list in zip(roots, ops)]
        fox = [calls_per_pass(harness, op_list, pkg.pairing, "_fox_step")
               for (_, harness, pkg), op_list in zip(roots, ops)]
        tables = [calls_per_pass(harness, op_list, pkg.pairing.PairingTable, "__init__")
                  for (_, harness, pkg), op_list in zip(roots, ops)]

    print(f"workload {args.workload} seed {args.seed}: {len(ops[0])} ops,"
          f" {rounds} rounds")
    print(f"{'op':40s} {'root 1 ms':>10s} {'root 2 ms':>10s} {'ratio':>7s}")
    for k, op in enumerate(ops[0]):
        medians = [statistics.median(p[k] for p in passes[i]) * 1e3 for i in (0, 1)]
        ratio = statistics.median(a[k] / b[k] for a, b in zip(*passes))
        print(f"{op.op_id:40s} {medians[0]:10.2f} {medians[1]:10.2f} {ratio:7.3f}")
    ratios = [sum(a) / sum(b) for a, b in zip(*passes)]
    q1, median, q3 = quartiles(ratios)
    print(f"paired median pass-time ratio root 1 / root 2: {median:.3f}"
          f" (quartiles {q1:.3f}-{q3:.3f})")
    print(f"root 2 faster in {sum(r > 1 for r in ratios)} of {rounds} rounds")
    runs = [n / rounds for n in collector.runs]
    print(f"collector runs per pass: root 1 {runs[0]:.1f}, root 2 {runs[1]:.1f}")
    print(f"Words built per pass: root 1 {words[0]}, root 2 {words[1]}")
    print(f"Fox steps per pass: root 1 {fox[0]}, root 2 {fox[1]}")
    print(f"Pairing tables built per pass: root 1 {tables[0]}, root 2 {tables[1]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
