"""Record the expected outputs of the shipped seeds into ``expected.json``.

    python3 bench/record_expected.py

For every workload and each seed in ``SEEDS``, runs every op once, checks it
(shapes and re-verification), and stores the input digest and, per op, the
digest of the basis-invariant report fields and the quotient structures.
Re-record only for a change that is meant to alter those fields, and say so
where the change is described.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = range(20)


def structures(report: dict) -> dict:
    return {key: {"free_rank": report[key]["free_rank"],
                  "torsion": report[key]["torsion"]}
            for key in ("structure", "structure_folded") if key in report}


def main() -> int:
    run.import_package()
    import check
    import corpus
    import harness

    data = {}
    for workload in corpus.WORKLOADS:
        for seed in SEEDS:
            ops = corpus.build(workload, seed)
            res = harness.run_passes(ops, 0)
            problems, _ = harness.verify(ops, res, None)
            if problems:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            entry = {"inputs": corpus.digest(ops), "ops": {}}
            for op in ops:
                report = json.loads(res.outputs[op.op_id].split("\n", 1)[0])
                entry["ops"][op.op_id] = {"digest": check.invariant_digest(report),
                                          **structures(report)}
            data.setdefault(workload, {})[str(seed)] = entry
            print(f"{workload} seed {seed}: {len(ops)} ops", flush=True)
    with open(check.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
