"""Digests of the benchmark ops' outputs, to show that a change keeps them.

    python3 tools/output_digest.py --seeds 0-19 > before.txt
    python3 tools/output_digest.py --seeds 0-19 --compare before.txt

Each op of ``bench/corpus.py`` is run once through ``harness.run_op``, and
the sha256 of its output (the JSON report and the text report, coordinates
included) is printed as one line ``workload seed op_id sha256``.  With
``--compare FILE`` the digests are checked against an earlier listing
instead: the ops of this run whose digest differs from the listing, or that
the listing lacks, are listed, and the exit status is then 1.  ``--root DIR``
runs the ``src`` and ``bench`` of another checkout, such as a copy of the
parent commit.  Nothing under ``bench`` is edited.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``3``, ``0-19`` or ``0,3,7-9`` as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def digests(root: Path, workloads, seeds):
    """(workload, seed, op id, sha256) for every op, in corpus order."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import corpus
    import harness

    for workload in workloads or corpus.WORKLOADS:
        for seed in seeds:
            for op in corpus.build(workload, seed):
                out = harness.run_op(op)
                yield workload, seed, op.op_id, hashlib.sha256(out.encode()).hexdigest()


def read_listing(path: str) -> dict[tuple[str, str, str], str]:
    with open(path, encoding="utf-8") as fh:
        return {tuple(fields[:3]): fields[3]
                for fields in (line.split() for line in fh) if fields}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=parse_seeds, default=[0],
                        help="seeds such as 3, 0-19 or 0,3,7-9 (default: 0)")
    parser.add_argument("--compare", metavar="FILE",
                        help="an earlier listing to check the digests against")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the checkout whose src and bench to run")
    args = parser.parse_args(argv)

    if args.compare is None:
        for row in digests(args.root.resolve(), args.workload, args.seeds):
            print(*row)
        return 0
    want = read_listing(args.compare)
    ran = differ = 0
    for workload, seed, op_id, digest in digests(args.root.resolve(),
                                                 args.workload, args.seeds):
        ran += 1
        expected = want.get((workload, str(seed), op_id))
        if expected != digest:
            differ += 1
            print(workload, seed, op_id,
                  "not in the listing" if expected is None else "differs")
    print(f"{ran} ops run, {differ} differ from {args.compare}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
