"""Acceptance suite: one test per criterion, with a printed pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every expected structure is cross-checked against an independent
Smith-normal-form oracle (sympy) applied to the closed-form relation
families, never against the code under test.

Criterion 1 is split: 1a checks the relation sets and the oracle-verified
quotient structures; 1b checks the torsion parity of the wrapped-circle
family, each parity against the relations for which it holds.  The
often-quoted parity (a factor 2 exactly when the winding number and the
dimension are both even) is that of the folding relations alone.  The full
family, with the first relation ``1 + t^-1 + ... + t^-(w0-1)``, has a
factor 2 exactly when the winding number is odd and >= 3 and the dimension
is odd: the first relation kills the even/even torsion generator and makes
twice a sum of generators vanish in the odd/odd cases (see the README's
"Known discrepancy" section).
"""

import time

import pytest

from daxkernel.groups import inv, mul, parse_group_spec, parse_word
from daxkernel import ring as R
from daxkernel.ring import (
    gr_add,
    gr_bar_reduce,
    gr_conj,
    gr_neg,
    monomial,
    parse_ring,
)
from daxkernel.pairing import lambda_arc, lambda_flip, lambda_word
from daxkernel.calculus import (
    arcs_context,
    circles_context,
    dax_boundary_sphere,
    dax_rebase,
    dax_translate,
    dax_u_embedded,
    dax_u_general,
    rebase_context,
)
from daxkernel.errors import SceneError
from daxkernel.quotient import (
    QuotientSolver,
    RelationSet,
    build_rel_3mfd,
    build_rel_circles,
    centralizer_orbit_reduce,
    concordance_quotient,
    quotient_structure,
    window_generators,
)
from daxkernel.snf import hermite_row_basis
from daxkernel.traces import (
    HomotopyTrace,
    KnotRecord,
    Witness,
    eval_dax_trace,
    mu2_reduce,
    universality_witness,
)
from daxkernel.scene import make_scene, preset_expand
from daxkernel.cli import run_target

from conftest import (
    GROUP_TEXTS,
    ball_words,
    concat_traces,
    phi_class,
    random_class,
    random_word,
    rng_for,
    sparse,
    table_for,
    translated_class,
)

Z = parse_group_spec("Z<t>")
F2 = parse_group_spec("F<x,y>")

BG_CASES = [(5, 3), (5, 0), (4, 2), (6, 2), (5, 4)]
BG_WINDOWS = [6, 8, 10, 12]
# the two parities differ at (7,3), (7,5) (exact only) and (6,4) (quoted
# only); (4,3) is a control where they agree
PARITY_CASES = BG_CASES + [(7, 3), (7, 5), (6, 4), (4, 3)]


def announce(tag, ok, detail=""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)


def sympy_structure(rows, n_gens):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    if not rows:
        return n_gens, []
    s = sympy_snf(Matrix(rows).T, domain=ZZ)
    diag = [s[i, i] for i in range(min(s.shape))]
    return (n_gens - sum(1 for d in diag if d),
            sorted(abs(d) for d in diag if abs(d) > 1))


def exponent_vector(rel, window):
    """Laurent exponent vector over t^j, j in [-window..window] minus 0."""
    gens = [j for j in range(-window, window + 1) if j]
    v = [0] * len(gens)
    for w, c in rel.items():
        (name, e), = w.letters
        assert name == "t"
        v[gens.index(e)] = c
    return v


def displayed_bg_family(d, w0, window):
    """The printed relation family, restricted to the window.

    Returns ``(first, folding)``: ``first`` holds the reduced first relation
    ``t^-1 + ... + t^-(w0-1)`` (empty when it vanishes), ``folding`` the
    relations ``(-1)^(d-1) t^-k - t^(k-w0)`` that lie in the window.
    """
    eps = 1 if (d - 1) % 2 == 0 else -1
    first = gr_bar_reduce(
        R.from_terms(Z, {parse_word(f"t^{-j}", Z): 1 for j in range(1, w0)})
        if w0 >= 1 else R.zero(Z))
    folding = []
    for k in range(-2 * window, 2 * window + 1):
        terms = {}
        wk = parse_word(f"t^{-k}", Z) if k else Z.identity()
        terms[wk] = terms.get(wk, 0) + eps
        wk2 = parse_word(f"t^{k - w0}", Z) if k != w0 else Z.identity()
        terms[wk2] = terms.get(wk2, 0) - 1
        val = gr_bar_reduce(R.from_terms(Z, terms))
        if val.is_zero:
            continue
        if all(abs(dict(w.letters)["t"]) <= window for w in val.support()):
            folding.append(val)
    return ([] if first.is_zero else [first]), folding


def quoted_parity(d, w0):
    """Torsion of the folding relations alone: [2] iff d, w0 even, w0 > 0."""
    return [2] if d % 2 == 0 and w0 % 2 == 0 and w0 > 0 else []


def exact_parity(d, w0):
    """Torsion of the full family: [2] iff d odd and w0 odd, w0 >= 3."""
    return [2] if d % 2 == 1 and w0 % 2 == 1 and w0 >= 3 else []


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------

def test_acceptance_1a_bg_reproduction():
    """Relation sets and oracle-verified structure of the wrapped-circle family."""
    failures = []
    for d, w0 in BG_CASES:
        start = time.perf_counter()
        scene = preset_expand("s1_x_sphere", {"d": d, "w0": w0})
        report = run_target(scene, BG_WINDOWS)
        elapsed = time.perf_counter() - start
        if elapsed >= 1.0:
            failures.append(f"(d={d},w0={w0}): runtime {elapsed:.2f}s")
        if not report["profile"]["linear"]:
            failures.append(f"(d={d},w0={w0}): free profile not linear")
        if d == 4 and not any("extra free summand" in n for n in report["notes"]):
            failures.append(f"(d={d},w0={w0}): missing extra-summand note")
        for window in BG_WINDOWS:
            rs = build_rel_circles(scene.context(), {}, window)
            first, folding = displayed_bg_family(d, w0, window)
            displayed = first + folding
            # every displayed relation appears verbatim (up to a global sign)
            have = set(rs.relations)
            for rel in displayed:
                if rel not in have and gr_neg(rel) not in have:
                    failures.append(
                        f"(d={d},w0={w0},W={window}): missing relation {rel}")
            # the generated subgroup is exactly the displayed one
            mine = hermite_row_basis(
                [sparse(exponent_vector(r, window)) for r in rs.relations])
            theirs = hermite_row_basis(
                [sparse(exponent_vector(r, window)) for r in displayed])
            if mine != theirs:
                failures.append(
                    f"(d={d},w0={w0},W={window}): relation span differs")
            # structure matches the independent oracle on the displayed family
            st = quotient_structure(rs)
            free, torsion = sympy_structure(
                [exponent_vector(r, window) for r in displayed], 2 * window)
            if (st.free_rank, list(st.torsion)) != (free, torsion):
                failures.append(
                    f"(d={d},w0={w0},W={window}): structure"
                    f" ({st.free_rank},{list(st.torsion)}) vs oracle"
                    f" ({free},{torsion})")
            if not st.stable:
                failures.append(f"(d={d},w0={w0},W={window}): not stable")
    announce("1a [wrapped circles: relations and verified structure]",
             not failures, "; ".join(failures[:4]))
    assert not failures, failures


def test_acceptance_1b_bg_torsion_parity_as_stated():
    """The quoted parity on the folding relations, the exact one on the family.

    Write eps = (-1)^(d-1).  The folding relations eps t^-k - t^(k-w0) pair
    t^j with t^(-w0-j).  At the fixed point j = -w0/2 (w0 even) the relation
    reads (eps - 1) t^(-w0/2), which is -2 t^(-w0/2) when d is even; the
    relations through the identity kill t^-w0.  So the folding relations
    alone give [2] iff d is even and w0 is even and positive: the quoted
    parity.

    Modulo folding, the first relation t^-1 + ... + t^-(w0-1) becomes the sum
    over its pairs of (1 + eps) times the pair's generator, plus t^(-w0/2)
    when w0 is even.  For d and w0 even it reads t^(-w0/2) = 0, which kills
    that Z/2.  For d odd and w0 odd >= 3 it reads
    2(t^-1 + ... + t^-((w0-1)/2)) = 0, a new Z/2.  Otherwise it adds no
    torsion.  So the full family gives [2] iff d is odd and w0 is odd and
    >= 3: the exact parity.  Both rules need the first relation inside the
    window (w0 < W), which every case here satisfies.

    (a) checks the quoted parity on a relation set of the folding relations
    alone, (b) the exact parity on ``build_rel_circles``, both against the
    rules above and the sympy oracle; (c) checks the cause, membership of
    the elements that carry the torsion in each set.
    """
    failures = []
    differ = []
    for d, w0 in PARITY_CASES:
        quoted, exact = quoted_parity(d, w0), exact_parity(d, w0)
        if quoted != exact:
            differ.append(f"(d={d},w0={w0}): quoted {quoted}, exact {exact}")
        scene = preset_expand("s1_x_sphere", {"d": d, "w0": w0})
        for window in BG_WINDOWS:
            assert w0 < window
            tag = f"(d={d},w0={w0},W={window})"
            first, folding = displayed_bg_family(d, w0, window)
            full_rs = build_rel_circles(scene.context(), {}, window)
            fold_rs = RelationSet.from_relations(
                Z, window, window_generators(Z, window), tuple(folding),
                ("folding",) * len(folding))
            # (a) quoted parity on the folding relations, (b) exact parity on
            # the full relation set
            for part, rs, rows, expected in (
                    ("folding", fold_rs, folding, quoted),
                    ("full", full_rs, first + folding, exact)):
                st = quotient_structure(rs)
                free, torsion = sympy_structure(
                    [exponent_vector(r, window) for r in rows], 2 * window)
                if torsion != expected:
                    failures.append(f"{tag} {part}: rule {expected},"
                                    f" oracle {torsion}")
                if (st.free_rank, list(st.torsion)) != (free, torsion):
                    failures.append(
                        f"{tag} {part}: structure"
                        f" ({st.free_rank},{list(st.torsion)}) vs oracle"
                        f" ({free},{torsion})")
                if not st.stable:
                    failures.append(f"{tag} {part}: not stable")
            # (c) the first relation is what moves the torsion
            full, fold = QuotientSolver(full_rs), QuotientSolver(fold_rs)
            if quoted:
                x = monomial(parse_word(f"t^{-(w0 // 2)}", Z))
                checks = [("full", full, x, True), ("folding", fold, x, False),
                          ("folding", fold, R.gr_scale(2, x), True)]
            elif exact:
                x = R.from_terms(Z, {parse_word(f"t^{-j}", Z): 1
                                     for j in range(1, (w0 - 1) // 2 + 1)})
                checks = [("full", full, x, False),
                          ("full", full, R.gr_scale(2, x), True),
                          ("folding", fold, R.gr_scale(2, x), False)]
            else:
                checks = []
            for part, solver, elem, want in checks:
                if solver.elem(solver.residue(elem).items()).is_zero != want:
                    failures.append(f"{tag} {part}: {elem} is"
                                    f"{'' if want else ' not'} expected to be"
                                    f" a relation")
    announce("1b [wrapped circles: quoted parity on the folding relations,"
             " exact parity on the full family]", not failures,
             "; ".join(failures[:4]) if failures
             else "quoted and exact parity differ at " + "; ".join(differ))
    assert not failures, (
        "The folding relations must give the quoted parity ([2] iff d and w0"
        " are even, w0 > 0), and the full family the exact parity ([2] iff d"
        " and w0 are odd, w0 >= 3), each confirmed by the sympy oracle and by"
        f" membership of the torsion elements. Failures: {failures}")


# ---------------------------------------------------------------------------
# criterion 2
# ---------------------------------------------------------------------------

def test_acceptance_2_boundary_sphere_identity():
    rng = rng_for("acceptance-gphi")
    checked = 0
    while checked < 200:
        spec = parse_group_spec(rng.choice(GROUP_TEXTS))
        d = rng.choice((3, 4, 5, 6))
        s = random_word(rng, spec)
        g = random_word(rng, spec)
        phi = phi_class(spec, s)
        ctx = circles_context(table_for(spec, [phi], d=d), s)
        closed = dax_boundary_sphere(g, ctx)
        assert closed == dax_u_embedded(g, phi, ctx)
        assert closed == dax_u_general(g, phi, ctx)
        checked += 1
    announce("2 [removed-ball boundary closed form, 200 cases]", True)


# ---------------------------------------------------------------------------
# criterion 3
# ---------------------------------------------------------------------------

def test_acceptance_3_solid_torus():
    failures = []
    sc = preset_expand("solid_torus_arcs", {"d": 5})
    from daxkernel.quotient import build_rel_arcs
    for window in (4, 6, 8, 10):
        rs = build_rel_arcs(sc.context(), window)
        st = quotient_structure(rs)
        if rs.relations or st.free_rank != 2 * window or st.torsion:
            failures.append(f"arcs W={window}: {st}")

    for d, k0 in ((5, 2), (4, 2), (6, 2), (5, 3), (6, 4)):
        sc = preset_expand("solid_torus_circles", {"d": d, "k0": k0})
        eps = 1 if (d - 1) % 2 == 0 else -1
        for window in range(k0 + 2, k0 + 6):
            rs = build_rel_circles(sc.context(), {}, window)
            displayed = []
            for k in range(-2 * window, 2 * window + 1):
                terms = {}
                wk = parse_word(f"t^{-k}", Z) if k else Z.identity()
                terms[wk] = terms.get(wk, 0) + 1
                wk2 = parse_word(f"t^{k - k0}", Z) if k != k0 else Z.identity()
                terms[wk2] = terms.get(wk2, 0) - eps
                val = gr_bar_reduce(R.from_terms(Z, terms))
                if not val.is_zero and all(
                        abs(dict(w.letters)["t"]) <= window
                        for w in val.support()):
                    displayed.append(val)
            st = quotient_structure(rs)
            free, torsion = sympy_structure(
                [exponent_vector(r, window) for r in displayed], 2 * window)
            if (st.free_rank, list(st.torsion)) != (free, torsion):
                failures.append(f"circles d={d} k0={k0} W={window}:"
                                f" ({st.free_rank},{list(st.torsion)})"
                                f" vs ({free},{torsion})")
            if not st.stable:
                failures.append(f"circles d={d} k0={k0} W={window}: unstable")
    announce("3 [solid torus arcs and circles]", not failures,
             "; ".join(failures[:4]))
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------

def test_acceptance_4_simply_connected_collapse():
    failures = []
    for d in (4, 5, 6):
        sc = preset_expand("disk_d", {"d": d})
        rep = run_target(sc, [3, 5])
        if rep["structure"] != {"free_rank": 0, "torsion": [], "window": 5,
                                "stable": True}:
            failures.append(f"disk d={d}: {rep['structure']}")
    trivial_circles = make_scene(5, "circles", "1")
    rs = build_rel_circles(trivial_circles.context(), {}, 4)
    st = quotient_structure(rs)
    if st.free_rank or st.torsion or rs.generators:
        failures.append(f"trivial circles: {st}")
    announce("4 [simply connected collapse]", not failures, "; ".join(failures))
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 5
# ---------------------------------------------------------------------------

def _random_setup(rng):
    spec = parse_group_spec(rng.choice(GROUP_TEXTS))
    a = random_class(rng, spec)
    d = rng.choice((3, 4, 5, 6))
    ctx = arcs_context(table_for(spec, [a], d=d))
    return spec, a, ctx


def test_acceptance_5_formula_identities():
    cases = 500

    rng = rng_for("acc5-fox")
    for _ in range(cases):
        spec, a, ctx = _random_setup(rng)
        w1, w2 = random_word(rng, spec), random_word(rng, spec)
        lhs = lambda_word(ctx.table, a, mul(w1, w2))
        rhs = gr_add(lambda_word(ctx.table, a, w1),
                     R.right_mul(lambda_word(ctx.table, a, w2), inv(w1)))
        assert lhs == rhs
    announce("5.1 [derivation rule on products, 500 cases]", True)

    rng = rng_for("acc5-inverse")
    for _ in range(cases):
        spec, a, ctx = _random_setup(rng)
        g = random_word(rng, spec)
        lam_g = lambda_word(ctx.table, a, g)
        lam_gi = lambda_word(ctx.table, a, inv(g))
        assert lam_gi == gr_neg(R.right_mul(lam_g, g))
        assert gr_add(lam_g, R.right_mul(lam_gi, inv(g))).is_zero
    announce("5.2 [inverse rule, 500 cases]", True)

    rng = rng_for("acc5-flip")
    from conftest import random_ring
    for _ in range(cases):
        spec = parse_group_spec(rng.choice(GROUP_TEXTS))
        d = rng.choice((3, 4, 5))
        v = random_ring(rng, spec)
        flipped = lambda_flip(v, d)
        assert lambda_flip(flipped, d) == v
        sign = 1 if (d - 1) % 2 == 0 else -1
        assert flipped == R.gr_scale(sign, R.gr_involute(v))
    announce("5.3 [slot exchange involution, 500 cases]", True)

    rng = rng_for("acc5-lambdabar")
    from daxkernel.pairing import lambdabar_conj_shift
    for _ in range(cases):
        spec, a, ctx = _random_setup(rng)
        g = random_word(rng, spec)
        k_is_u = rng.random() < 0.5
        direct = gr_bar_reduce(R.left_mul(g, lambda_arc(ctx.table, a, g, k_is_u)))
        assert lambdabar_conj_shift(ctx.table, a, g, k_is_u) == direct
    announce("5.4 [reduced-pairing shift identity, 500 cases]", True)

    rng = rng_for("acc5-basepoint")
    for _ in range(cases):
        spec, a, ctx = _random_setup(rng)
        g = random_word(rng, spec)
        moved = rebase_context(ctx, g)
        lhs = gr_add(dax_rebase(moved.table.classes[0], moved),
                     gr_neg(dax_rebase(a, ctx)))
        rhs = gr_add(gr_bar_reduce(lambda_arc(ctx.table, a, g, True)),
                     gr_neg(gr_bar_reduce(a.lambda_u)))
        assert lhs == rhs
    announce("5.5 [basepoint-change difference, 500 cases]", True)

    rng = rng_for("acc5-cor3")
    for _ in range(cases):
        spec, a, ctx = _random_setup(rng)
        g = random_word(rng, spec)
        moved = rebase_context(ctx, g)
        lhs = gr_add(dax_u_general(g, moved.table.classes[0], moved),
                     gr_neg(gr_conj(g, dax_rebase(a, ctx))))
        lam_g = R.left_mul(g, lambda_word(ctx.table, a, g))
        assert lhs == gr_bar_reduce(lambda_flip(lam_g, ctx.d))
    announce("5.6 [simultaneous translation identity, 500 cases]", True)

    rng = rng_for("acc5-cor4v5")
    for _ in range(cases):
        rng_spec = parse_group_spec(rng.choice(GROUP_TEXTS))
        a = random_class(rng, rng_spec, embedded=True)
        ctx = arcs_context(table_for(rng_spec, [a], d=rng.choice((3, 4, 5, 6))))
        g = random_word(rng, rng_spec)
        assert dax_u_general(g, a, ctx) == dax_u_embedded(g, a, ctx)
    announce("5.7 [general vs embedded pipeline, 500 cases]", True)

    rng = rng_for("acc5-cocycle")
    for _ in range(cases):
        spec, a, ctx = _random_setup(rng)
        g, h = random_word(rng, spec), random_word(rng, spec)
        one_step = dax_translate(mul(g, h), a, ctx)
        ha = translated_class(ctx, h, a)
        two_step = dax_translate(g, ha,
                                 arcs_context(table_for(spec, [ha], d=ctx.d)))
        assert one_step == two_step
    announce("5.8 [translation cocycle, 500 cases]", True)


# ---------------------------------------------------------------------------
# criterion 6
# ---------------------------------------------------------------------------

def test_acceptance_6_type_one_universality():
    rng = rng_for("acceptance-universality")
    ctx = arcs_context(table_for(F2, [], d=3))
    rs, _ = build_rel_3mfd(ctx, 3)
    gens_set = set(rs.generators)
    solver = QuotientSolver(rs)

    knots = [KnotRecord("base", HomotopyTrace(()))]
    for i, g in enumerate(rs.generators):
        knots.append(KnotRecord(f"gen{i}", HomotopyTrace(((1, g),))))
    while len(knots) < 50 + len(rs.generators):
        events = tuple((rng.choice((1, -1)), random_word(rng, F2, max_syllables=2))
                       for _ in range(rng.randint(0, 4)))
        if all(w in gens_set or w.is_identity for _, w in events):
            knots.append(KnotRecord(f"k{len(knots)}", HomotopyTrace(events)))
    assert len([k for k in knots if k.name.startswith(("k", "base"))]) >= 50

    coords = {k.name: solver.coords(eval_dax_trace(k.trace, F2))[0]
              for k in knots}
    q = len(coords["base"])

    for trial in range(20):
        w_matrix = [[rng.randint(-3, 3) for _ in range(q)] for _ in range(2)]
        v0 = (rng.randint(-5, 5), rng.randint(-5, 5))
        values = {
            name: tuple(v0[r] + sum(w_matrix[r][j] * c[j] for j in range(q))
                        for r in range(2))
            for name, c in coords.items()}
        result = universality_witness(knots, values, rs)
        assert not isinstance(result, Witness), f"trial {trial} rejected"
        w_map, base = result
        assert base == v0
        # the probe knots pin the solve down, so the recovery is exact on
        # every window generator
        for g in rs.generators:
            gen_coords = solver.coords(monomial(g))[0]
            expected = tuple(
                sum(w_matrix[r][j] * gen_coords[j] for j in range(q))
                for r in range(2))
            assert w_map[str(monomial(g))] == expected

    # planted failure: equal invariants, unequal values
    twin = KnotRecord("twin", concat_traces(
        knots[5].trace, HomotopyTrace(((1, parse_word("x", F2)),
                                       (-1, parse_word("x", F2))))))
    planted = knots + [twin]
    values = {k.name: solver.coords(eval_dax_trace(k.trace, F2))[0]
              for k in planted}
    values["twin"] = tuple(v + 1 for v in values[knots[5].name])
    result = universality_witness(planted, values, rs)
    assert isinstance(result, Witness)
    assert result.combination
    announce("6 [type-1 universality: 20 recoveries and a certified failure]",
             True)


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------

def test_acceptance_7_concordance_reduction():
    rng = rng_for("acceptance-concordance")
    for _ in range(200):
        spec = parse_group_spec(rng.choice(GROUP_TEXTS))
        events = []
        for _ in range(rng.randint(0, 5)):
            events.append((rng.choice((1, -1)), random_word(rng, spec)))
        trace = HomotopyTrace(tuple(events))
        # independent random sheet choice for every double point
        swapped = HomotopyTrace(tuple(
            (s, inv(w) if rng.random() < 0.5 else w) for s, w in trace.events))
        assert mu2_reduce(eval_dax_trace(trace, spec)) == \
            mu2_reduce(eval_dax_trace(swapped, spec))

    # punctured-manifold scene: the quotient with the fold equals the direct
    # sheet-ambiguity target
    sc = preset_expand("three_mfd",
                       {"group": "F<x,y>", "mode": "arcs", "phi": "boundary_arc"})
    rs, _ = build_rel_3mfd(sc.context(), 3)
    folded = concordance_quotient(rs)
    st = quotient_structure(folded)

    direct_rels = []
    seen = set()
    for g in ball_words(F2, 3)[1:]:
        val = gr_add(monomial(inv(g)), monomial(g, -1))
        if not val.is_zero and val not in seen and gr_neg(val) not in seen:
            seen.add(val)
            direct_rels.append(val)
    direct = RelationSet.from_relations(F2, 3, window_generators(F2, 3), tuple(direct_rels),
                                        ("concordance",) * len(direct_rels))
    st_direct = quotient_structure(direct)
    assert (st.free_rank, st.torsion) == (st_direct.free_rank, st_direct.torsion)
    solver_a, solver_b = QuotientSolver(folded), QuotientSolver(direct)
    assert solver_a._elim.basis == solver_b._elim.basis  # same subgroup, not only isomorphic
    announce("7 [concordance reduction, 200 sheet-choice cases]", True)


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------

def test_acceptance_8_centralizer_orbits():
    sc = preset_expand("solid_torus_circles", {"d": 3, "k0": 1})
    rs, action = build_rel_3mfd(sc.context(), 4)
    for text in ("t^2", "t + t^-1", "2*t^3 - t", "0"):
        value = parse_ring(text, Z)
        res = centralizer_orbit_reduce(value, rs, action)
        assert res.complete and res.size == 1
        assert res.representative == rs.solver.elem(rs.solver.residue(value).items())

    prod = parse_group_spec("F<x,y> x Z<t>")
    s = parse_word("x", prod)
    ctx = circles_context(table_for(prod, [], d=3), s)
    with pytest.raises(SceneError):
        build_rel_3mfd(ctx, 2, whisker={parse_word("y", prod): R.zero(prod)})
    with pytest.raises(SceneError):
        build_rel_3mfd(ctx, 2, whisker={parse_word("x^2", prod): parse_ring("y", prod)})
    bad = {parse_word("t", prod): parse_ring("y", prod),
           parse_word("t^2", prod): R.zero(prod)}
    with pytest.raises(SceneError):
        build_rel_3mfd(ctx, 3, whisker=bad)
    good = {parse_word("t", prod): parse_ring("y", prod),
            parse_word("t^2", prod): parse_ring("2*y", prod)}
    build_rel_3mfd(ctx, 3, whisker=good)
    announce("8 [centralizer orbits and whisker validation]", True)
