"""Tests of the benchmark itself: oracle, checks and span patching.

The oracle test cross-checks the structures stored in ``expected.json`` for
the small ops against sympy's Smith normal form, computed independently of
the package's own elimination.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import check  # noqa: E402
import corpus  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
from daxkernel import cli, quotient  # noqa: E402

SMALL = 90  # generators; sympy's Smith form stays fast up to about this size


def sympy_structure(rs):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    n = len(rs.generators)
    if not rs.relations:
        return n, []
    index = {w: i for i, w in enumerate(rs.generators)}
    rows = [[0] * n for _ in rs.relations]
    for row, rel in zip(rows, rs.relations):
        for w, c in rel.items():
            row[index[w]] = c
    s = smith_normal_form(Matrix(rows).T, domain=ZZ)
    diag = [abs(s[i, i]) for i in range(min(s.shape)) if s[i, i]]
    return n - len(diag), sorted(d for d in diag if d > 1)


def small_ops():
    expected = json.loads(check.EXPECTED_PATH.read_text())
    out = []
    for workload in corpus.WORKLOADS:
        for op in corpus.build(workload, 0):
            stored = expected[workload]["0"]["ops"][op.op_id]
            if "structure" in stored:
                out.append(pytest.param(op, stored, id=f"{workload}/{op.op_id}"))
    return out


@pytest.mark.parametrize("op,stored", small_ops())
def test_stored_structures_match_sympy(op, stored):
    pytest.importorskip("sympy")
    from daxkernel import scene
    sc = scene.loads_scene(op.scene_text)
    window = op.window or max(cli.DEFAULT_SWEEP)
    rs = cli.build_relations(sc, window)[0]
    if len(rs.generators) > SMALL:
        pytest.skip(f"{len(rs.generators)} generators: too large for the oracle")
    free, torsion = sympy_structure(rs)
    assert stored["structure"]["free_rank"] == free
    assert stored["structure"]["torsion"] == torsion
    if "structure_folded" in stored:
        free, torsion = sympy_structure(quotient.concordance_quotient(rs))
        assert stored["structure_folded"]["free_rank"] == free
        assert stored["structure_folded"]["torsion"] == torsion


def test_inputs_depend_only_on_seed():
    for workload in corpus.WORKLOADS:
        a, b = corpus.build(workload, 3), corpus.build(workload, 3)
        assert corpus.digest(a) == corpus.digest(b)
        assert corpus.digest(a) != corpus.digest(corpus.build(workload, 4))


@pytest.fixture(scope="module")
def eval_reports():
    ops = corpus.build("eval_knots", 0)
    res = harness.run_passes(ops, 0)
    problems, sizes = harness.verify(ops, res, check.load_expected("eval_knots", 0))
    assert problems == {}
    reports = {k: json.loads(v.split("\n", 1)[0]) for k, v in res.outputs.items()}
    return {op.op_id: op for op in ops}, reports, sizes


def test_check_catches_merged_coordinates(eval_reports):
    ops, reports, sizes = eval_reports
    op_id = "aspherical.Z2.W10.eval"
    report = copy.deepcopy(reports[op_id])
    knots = report["knots"]
    assert knots[0]["residue"] != knots[1]["residue"]
    knots[0]["free_coords"] = list(knots[1]["free_coords"])
    knots[0]["torsion_coords"] = list(knots[1]["torsion_coords"])
    assert check.check_report(ops[op_id], report, None, sizes[op_id])
    # coordinates are not part of the stored digest, residues are
    assert check.invariant_digest(report) == check.invariant_digest(reports[op_id])
    report["knots"][0]["residue"] = "a"
    assert check.invariant_digest(report) != check.invariant_digest(reports[op_id])


def test_check_catches_wrong_universality_answer(eval_reports):
    ops, reports, sizes = eval_reports
    op_id = "s1_x_sphere.W30.universality"
    op, report = ops[op_id], copy.deepcopy(reports[op_id])
    paired = reports[op.pair]
    assert check.check_report(op, report, paired, sizes[op_id]) == []
    if report["outcome"] == "solution":
        report["base_value"][0] += 1
    else:
        name = next(iter(report["witness"]["combination"]))
        report["witness"]["combination"][name] += 1
    assert check.check_report(op, report, paired, sizes[op_id])


def test_ring_terms():
    assert check.ring_terms("2*a*b^-1 - a^-1 + 3*b") == {"a*b^-1": 2, "a^-1": -1, "b": 3}
    assert check.ring_terms("-t^-2") == {"t^-2": -1}
    assert check.ring_terms("0") == {}


def test_tracer_patches_every_reference_and_restores():
    from daxkernel import groups
    original = groups.ball
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert quotient.ball is groups.ball is not original
        where = dict((name, refs) for name, _, refs in tracer.patched)
        assert "daxkernel.quotient.ball" in where["groups.ball"]
        assert "daxkernel.cli.build_relations" in where["cli.build_relations"]
        op = corpus.build("target_sweep", 0)[3]
        with tracer.span("op"):
            harness.run_op(op, tracer.span)
    finally:
        tracer.uninstall()
    assert quotient.ball is groups.ball is original
    assert tracer.totals["groups.ball"][0] > 0
    assert tracer.counters["groups.ball.elements"] > 0
    assert "quotient.coords" not in tracer.totals
    assert not tracer.stack
    op_total, op_self = tracer.totals["op"][1:]
    assert 0 <= op_self <= op_total
