"""Digests of the benchmark ops' outputs, to show that a change keeps them.

    python3 tools/output_digest.py --seeds 0-19 > before.txt
    python3 tools/output_digest.py --seeds 0-19 --compare before.txt

Each op of ``bench/corpus.py`` is run once through ``harness.run_op``.
Two sha256 digests of its output are printed as one line
``workload seed op_id sha256 invariant``: the first covers the JSON report
and the text report, coordinates included; the second is
``check.invariant_digest`` of the JSON report, which leaves out the
basis-dependent fields (coordinates, and a universality op's ``w_map``,
``base_value`` and ``witness``).  With ``--compare FILE`` the digests are
checked against an earlier listing instead.  The ops of this run that
differ from the listing are listed: ``basis-only`` when only the first
digest differs, ``invariant`` when the second does too, ``differs`` when
the listing has no second digest to tell, and ``not in the listing``.  The
exit status is then 1.  ``--root DIR`` runs the ``src`` and ``bench`` of
another checkout, such as a copy of the parent commit.  Nothing under
``bench`` is edited.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``3``, ``0-19`` or ``0,3,7-9`` as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def digests(root: Path, workloads, seeds):
    """(workload, seed, op id, sha256, invariant sha256) for every op, in
    corpus order."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import check
    import corpus
    import harness

    for workload in workloads or corpus.WORKLOADS:
        for seed in seeds:
            for op in corpus.build(workload, seed):
                out = harness.run_op(op)
                report = json.loads(out.split("\n", 1)[0])
                yield (workload, seed, op.op_id, hashlib.sha256(out.encode()).hexdigest(),
                       check.invariant_digest(report))


def read_listing(path: str) -> dict[tuple[str, str, str], list[str]]:
    """(workload, seed, op id) -> its digests; a listing written before the
    invariant digest was added has one digest per op."""
    with open(path, encoding="utf-8") as fh:
        return {tuple(fields[:3]): fields[3:]
                for fields in (line.split() for line in fh) if fields}


def difference(expected: list[str] | None, digest: str, invariant: str) -> str | None:
    """How an op's digests differ from the listing's, or None if they agree."""
    if expected is None:
        return "not in the listing"
    if expected[0] == digest:
        return None
    if len(expected) < 2:
        return "differs"
    return "basis-only" if expected[1] == invariant else "invariant"


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
    ran, kinds = 0, Counter()
    for workload, seed, op_id, digest, invariant in digests(
            args.root.resolve(), args.workload, args.seeds):
        ran += 1
        kind = difference(want.get((workload, str(seed), op_id)), digest, invariant)
        if kind is not None:
            kinds[kind] += 1
            print(workload, seed, op_id, kind)
    differ = sum(kinds.values())
    detail = ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))
    print(f"{ran} ops run, {differ} differ from {args.compare}"
          + (f" ({detail})" if detail else ""), file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
