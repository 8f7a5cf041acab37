import sys
from pathlib import Path

import pytest

from daxkernel import cli
from daxkernel.errors import BallOverflowError, ModeError, SceneError, WindowOverflowError
from daxkernel.groups import ball, inv, mul, parse_group_spec, parse_word, word_key, word_length
from daxkernel import ring as R
from daxkernel.ring import gr_bar_reduce, monomial, parse_ring
from daxkernel.pairing import sphere_class
from daxkernel.calculus import arcs_context, circles_context
from daxkernel.quotient import (
    PROV_BOUNDARY,
    PROV_CONCORDANCE,
    PROV_DAX_IMAGE,
    PROV_WHISKER,
    OrbitAction,
    QuotientSolver,
    RelationSet,
    build_rel_3mfd,
    build_rel_arcs,
    build_rel_circles,
    centralizer_orbit_reduce,
    column,
    concordance_quotient,
    quotient_structure,
    restrict_relationset,
    window_generators,
)
from daxkernel.scene import loads_scene, preset_expand

from conftest import (
    assert_assembly_matches_reference,
    assert_report_matches_reference,
    ball_words,
    dense,
    dense_coords,
    dense_hermite_row_basis,
    dense_orbit,
    dense_reduce_mod_rows,
    phi_class,
    reference_concordance_quotient,
    reference_orbit,
    reference_structure,
    rng_for,
    table_for,
)

Z = parse_group_spec("Z<t>")
F2 = parse_group_spec("F<x,y>")


def sympy_structure(rows, n_gens):
    """Independent oracle: free rank and torsion via sympy's Smith form."""
    sympy = pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    if not rows:
        return n_gens, []
    s = sympy_snf(Matrix(rows).T, domain=ZZ)
    diag = [s[i, i] for i in range(min(s.shape))]
    free = n_gens - sum(1 for d in diag if d)
    torsion = sorted(abs(d) for d in diag if abs(d) > 1)
    return free, torsion


def structure_via_oracle(rs):
    solver = QuotientSolver(rs)
    rows = [dense(column(solver.letter_index, rel), len(rs.generators))
            for rel in rs.relations]
    return sympy_structure(rows, len(rs.generators))


# -- builders -----------------------------------------------------------------

def test_arcs_trivial_group():
    spec = parse_group_spec("1")
    ctx = arcs_context(table_for(spec, []))
    rs = build_rel_arcs(ctx, 3)
    assert rs.generators == ()
    assert rs.relations == ()
    st = quotient_structure(rs)
    assert st.free_rank == 0 and st.torsion == ()


def test_arcs_aspherical_no_relations():
    ctx = arcs_context(table_for(Z, []))
    for w in (2, 5):
        rs = build_rel_arcs(ctx, w)
        assert len(rs.generators) == 2 * w
        assert rs.relations == ()
        st = quotient_structure(rs)
        assert st.free_rank == 2 * w and st.torsion == ()


def test_arcs_mode_enforced():
    ctx = circles_context(table_for(Z, []), parse_word("t", Z))
    with pytest.raises(Exception):
        build_rel_arcs(ctx, 2)


def test_circles_solid_torus_display():
    # relations are exactly the reduced boundary family
    sc = preset_expand("solid_torus_circles", {"d": 5, "k0": 2})
    rs = build_rel_circles(sc.context(), {}, 5)
    expected = set()
    for k in range(-8, 9):
        val = gr_bar_reduce(parse_ring(f"t^{-k} - t^{k-2}", Z))
        if not val.is_zero and all(word_length(w) <= 5 for w in val.support()):
            expected.add(val)
    assert set(rs.relations) == expected
    assert all(p == PROV_BOUNDARY for p in rs.provenance)


@pytest.mark.parametrize("d,k0", [(5, 2), (6, 2), (4, 1), (5, 3), (6, 4)])
def test_circles_solid_torus_structure_matches_oracle(d, k0):
    sc = preset_expand("solid_torus_circles", {"d": d, "k0": k0})
    for w in (k0 + 2, k0 + 4):
        rs = build_rel_circles(sc.context(), {}, w)
        st = quotient_structure(rs)
        free, torsion = structure_via_oracle(rs)
        assert (st.free_rank, list(st.torsion)) == (free, torsion)
        assert st.stable


DKY_SPHERES = {"a": "12*x + 18*y - 30*x^-1", "b": "20*x*y - 45*y^-1 + 75*x^-1*y"}


def test_large_coefficient_residual_block_is_fast_and_matches_oracle():
    """Three-digit sphere coefficients give a residual block whose Smith
    form must keep its transforms small for the command to finish."""
    import json
    import os
    import subprocess
    from daxkernel.snf import reduce_mod_rows
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-m", "daxkernel.cli", "target",
                             "--preset", "product_DkY", "--param", "group=F<x,y>",
                             "--param", "spheres=" + json.dumps(DKY_SPHERES),
                             "--window", "5", "--json"],
                            capture_output=True, text=True, timeout=30, env=env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["structure"]["torsion"] == [3, 3] + [6] * 9 + [90] * 8
    # the residual block: the non-unit rows of the Hermite basis reduced by
    # its unit rows, over the positions they touch
    rs, _ = cli.build_relations(preset_expand(
        "product_DkY", {"group": "F<x,y>", "spheres": DKY_SPHERES}), 5)
    elim = rs.solver._elim
    units = {j: row for j, row in elim.basis.items() if row[j] == 1}
    block = [reduce_mod_rows(row, units) for j, row in elim.basis.items() if row[j] != 1]
    rows = [[vec.get(i, 0) for i in elim.residual_rows] for vec in block]
    diagonal = elim.residual_diagonal
    assert sympy_structure(rows, len(elim.residual_rows)) == (
        len(elim.residual_rows) - sum(1 for d in diagonal if d), [d for d in diagonal if d > 1])


def test_bg_scene_window6():
    sc = preset_expand("s1_x_sphere", {"d": 5, "w0": 3})
    rs = build_rel_circles(sc.context(), {}, 6)
    assert parse_ring("t^-1 + t^-2", Z) in rs.relations
    assert gr_bar_reduce(parse_ring("t^-1 - t^-2", Z)) in rs.relations
    st = quotient_structure(rs)
    free, torsion = structure_via_oracle(rs)
    assert (st.free_rank, list(st.torsion)) == (free, torsion) == (6, [2])
    assert rs.dropped  # far translates fall outside the window and are reported


def test_quotient_invariance_under_row_permutation_negation_and_span():
    rng = rng_for("quotient-invariance")
    gens = window_generators(Z, 4)
    rels = [parse_ring("t - t^-1", Z), parse_ring("t^2 + t^-2 - 2*t", Z),
            parse_ring("3*t^3", Z)]
    base = RelationSet.from_relations(Z, 4, gens, tuple(rels), ("dax_image",) * 3)
    st0 = quotient_structure(base)
    for _ in range(10):
        shuffled = rels[:]
        rng.shuffle(shuffled)
        k = rng.randrange(3)
        shuffled[k] = R.gr_neg(shuffled[k])
        combo = R.gr_add(shuffled[0], R.gr_scale(rng.randint(-2, 2), shuffled[1]))
        variant = RelationSet.from_relations(Z, 4, gens, tuple(shuffled + [combo]),
                                             ("dax_image",) * 4)
        st = quotient_structure(variant)
        assert (st.free_rank, st.torsion) == (st0.free_rank, st0.torsion)


def test_generator_rank_one_row():
    gens = window_generators(Z, 1)
    rs = RelationSet.from_relations(Z, 1, gens, (parse_ring("t - t^-1", Z),),
                                    ("dax_image",))
    st = quotient_structure(rs)
    assert st.free_rank == 1 and st.torsion == ()


def test_relation_support_validated():
    gens = window_generators(Z, 1)
    with pytest.raises(WindowOverflowError):
        RelationSet.from_relations(Z, 1, gens, (parse_ring("t^5", Z),),
                                   ("dax_image",))


def test_base_relation_overflow_is_hard_error():
    # arc row too wide for the window: cannot be fixed by shrinking enumeration
    u = parse_word("t^9", Z)
    probe = sphere_class(Z, "a", True, R.zero(Z), R.zero(Z),
                         {"t": parse_ring("1", Z)})
    from daxkernel.pairing import lambda_word
    lam_u = lambda_word(table_for(Z, [probe], u=u), probe, u)
    a = sphere_class(Z, "a", True, R.zero(Z), lam_u, {"t": parse_ring("1", Z)})
    ctx = arcs_context(table_for(Z, [a], u=u))
    with pytest.raises(WindowOverflowError):
        build_rel_arcs(ctx, 3)


def test_translated_overflow_is_dropped_and_reported():
    sc = preset_expand("s1_x_sphere", {"d": 5, "w0": 2})
    rs = build_rel_circles(sc.context(), {}, 4)
    assert rs.dropped
    assert all(prov in (PROV_DAX_IMAGE, PROV_BOUNDARY) for prov, _ in rs.dropped)
    # kept as elements, rendered only by a report; each sticks out of the window
    gens = set(rs.generators)
    assert all(any(w not in gens for w in val.support()) for _, val in rs.dropped)


def test_eval_sorts_no_dropped_value(monkeypatch):
    # a dropped value stays a term dict until a report reads it: an eval
    # build sorts none of them, and the first read sorts them once
    sc = preset_expand("s1_x_sphere", {"d": 5, "w0": 2})
    built = []
    from_terms = R.from_terms

    def counting(spec, terms):
        built.append(from_terms(spec, terms))
        return built[-1]

    monkeypatch.setattr(R, "from_terms", counting)
    cli.run_scene(sc, "eval", 4)
    monkeypatch.undo()
    rs = build_rel_circles(sc.context(), {}, 4)
    dropped = rs.dropped
    assert dropped and rs.dropped is dropped
    values = {val for _, val in dropped}
    assert [elem for elem in built if elem in values] == []


def test_restrict_relationset_drops_wide_relations():
    sc = preset_expand("s1_x_sphere", {"d": 5, "w0": 3})
    rs = build_rel_circles(sc.context(), {}, 6)
    small = restrict_relationset(rs, 3)
    assert all(word_length(g) <= 3 for g in small.generators)
    assert all(all(word_length(w) <= 3 for w in rel.support())
               for rel in small.relations)
    assert len(small.dropped) > len(rs.dropped)
    assert small.dropped[:len(rs.dropped)] == rs.dropped
    moved = [rel for rel in rs.relations if rel not in small.relations]
    assert [val for _, val in small.dropped[len(rs.dropped):]] == moved


# -- three-manifold builder ------------------------------------------------------

def test_3mfd_irreducible_no_relations():
    ctx = arcs_context(table_for(F2, [], d=3))
    rs, action = build_rel_3mfd(ctx, 2)
    assert rs.relations == ()
    assert action.centralizer == ()
    st = quotient_structure(rs)
    assert st.free_rank == len(rs.generators)


def test_3mfd_punctured_scene_boundary_relations():
    # removing a ball: the boundary sphere forces g^-1 - g*s^-1
    s = parse_word("x", F2)
    ctx = circles_context(table_for(F2, [], d=3), s)
    rs, action = build_rel_3mfd(ctx, 2)
    g = parse_word("y", F2)
    val = gr_bar_reduce(R.gr_add(monomial(inv(g)),
                                 monomial(mul(g, inv(s)), -1)))
    assert val in rs.relations
    assert action.s_class == s
    assert action.centralizer == (s,)


def test_3mfd_boundary_parallel_arc_rows_fold():
    # with a vanishing arc row, sphere relations reduce to the symmetric fold
    sc = preset_expand("three_mfd",
                       {"group": "F<x,y>", "mode": "arcs", "phi": "boundary_arc"})
    rs, _ = build_rel_3mfd(sc.context(), 2)
    for rel in rs.relations:
        terms = rel.items()
        assert len(terms) == 2
        (w1, c1), (w2, c2) = terms
        assert w2 == inv(w1) and c1 + c2 == 0


def test_3mfd_requires_dimension_three():
    ctx = arcs_context(table_for(F2, [], d=4))
    with pytest.raises(Exception):
        build_rel_3mfd(ctx, 2)


def test_3mfd_whisker_table_requires_circles_mode():
    # in arcs mode no whisker joins the relations, so a table would reach
    # the orbit search unchecked
    spec = parse_group_spec("Z<t> x F<x>")
    ctx = arcs_context(table_for(spec, [], d=3))
    whisker = {parse_word("t", spec): parse_ring("x", spec)}
    with pytest.raises(ModeError, match="circles mode"):
        build_rel_3mfd(ctx, 2, whisker=whisker)
    rs, action = build_rel_3mfd(ctx, 2, whisker={})
    assert action.whisker == ()


def test_3mfd_requires_embedded_classes():
    a = sphere_class(F2, "a", False, parse_ring("x", F2), R.zero(F2), {})
    ctx = arcs_context(table_for(F2, [a], d=3))
    with pytest.raises(SceneError):
        build_rel_3mfd(ctx, 2)


# -- whisker validation -------------------------------------------------------------

PROD = parse_group_spec("F<x,y> x Z<t>")


def prod_circles_ctx(d=3):
    s = parse_word("x", PROD)
    return circles_context(table_for(PROD, [], d=d), s)


def test_whisker_key_must_centralize():
    ctx = prod_circles_ctx()
    whisker = {parse_word("y", PROD): R.zero(PROD)}
    with pytest.raises(SceneError):
        build_rel_3mfd(ctx, 2, whisker=whisker)


def test_whisker_power_of_s_must_vanish():
    ctx = prod_circles_ctx()
    whisker = {parse_word("x^2", PROD): parse_ring("y", PROD)}
    with pytest.raises(SceneError):
        build_rel_3mfd(ctx, 2, whisker=whisker)


def test_whisker_action_law_enforced():
    ctx = prod_circles_ctx()
    y = parse_ring("y", PROD)
    bad = {parse_word("t", PROD): y,
           parse_word("t^2", PROD): R.zero(PROD)}
    with pytest.raises(SceneError) as info:
        build_rel_3mfd(ctx, 3, whisker=bad)
    assert "action law" in str(info.value)


def test_whisker_action_law_checked_on_inverse_pairs():
    # w(1) = 0 on the pair (t, t^-1): t w(t^-1) t^-1 + w(t) must vanish, so
    # with t central w(t^-1) = -w(t)
    ctx = prod_circles_ctx()
    y = parse_ring("y", PROD)
    t, t_inv = parse_word("t", PROD), parse_word("t^-1", PROD)
    with pytest.raises(SceneError, match=r"action law on \(t, t\^-1\)"):
        build_rel_3mfd(ctx, 2, whisker={t: y, t_inv: y})
    rs, action = build_rel_3mfd(ctx, 2, whisker={t: y, t_inv: R.gr_neg(y)})
    assert dict(action.moves)[t_inv] == R.gr_neg(y)


def test_whisker_consistent_table_accepted():
    ctx = prod_circles_ctx()
    y = parse_ring("y", PROD)
    good = {parse_word("t", PROD): y,
            parse_word("t^2", PROD): R.gr_scale(2, y)}
    rs, action = build_rel_3mfd(ctx, 3, whisker=good)
    assert y in rs.relations
    assert PROV_WHISKER in rs.provenance
    assert parse_word("t", PROD) in action.centralizer


def test_whisker_action_law_outside_the_window_asks_for_a_larger_window():
    """On (t, t) the law difference of this table is y^-1 - y*x^-1.  At
    W = 1 it has a term outside the window, so the law cannot be checked
    there; at W = 2 it is the boundary relation of y, a nonzero difference
    that reduces to zero, and the table is accepted."""
    ctx = prod_circles_ctx()
    diff = parse_ring("y^-1 - y*x^-1", PROD)
    table = {parse_word("t", PROD): R.zero(PROD), parse_word("t^2", PROD): diff}
    with pytest.raises(WindowOverflowError, match=r"\(t, t\).*increase the window"):
        build_rel_3mfd(ctx, 1, whisker=table)
    rs, _ = build_rel_3mfd(ctx, 2, whisker=table)
    assert diff in rs.relations


def test_whisker_trivial_circle_class_must_vanish():
    ctx = circles_context(table_for(PROD, [], d=3), PROD.identity())
    with pytest.raises(SceneError):
        build_rel_3mfd(ctx, 2, whisker={parse_word("t", PROD): parse_ring("y", PROD)})


# -- concordance fold ------------------------------------------------------------------

def test_concordance_adds_fold_relations():
    ctx = arcs_context(table_for(Z, []))
    rs = build_rel_arcs(ctx, 2)
    folded = concordance_quotient(rs)
    added = [rel for rel, p in zip(folded.relations, folded.provenance)
             if p == PROV_CONCORDANCE]
    assert parse_ring("t^-1 - t", Z) in added
    assert parse_ring("t^-2 - t^2", Z) in added
    assert len(added) == 2  # one per inverse pair


def test_concordance_halves_free_rank():
    ctx = arcs_context(table_for(F2, [], d=3))
    rs = build_rel_arcs(ctx, 2)
    folded = concordance_quotient(rs)
    st = quotient_structure(folded)
    free, torsion = structure_via_oracle(folded)
    assert (st.free_rank, list(st.torsion)) == (free, torsion)
    # fold classes: one generator per inverse pair, none fixed in a free group
    n = len(rs.generators)
    assert st.free_rank == n // 2


def test_concordance_idempotent_on_symmetric_sets():
    ctx = arcs_context(table_for(Z, []))
    rs = concordance_quotient(build_rel_arcs(ctx, 3))
    again = concordance_quotient(rs)
    st1, st2 = quotient_structure(rs), quotient_structure(again)
    assert (st1.free_rank, st1.torsion) == (st2.free_rank, st2.torsion)


# -- centralizer orbits ------------------------------------------------------------------

def test_orbit_abelian_is_singleton_coset():
    sc = preset_expand("solid_torus_circles", {"d": 3, "k0": 2})
    ctx = sc.context()
    rs, action = build_rel_3mfd(ctx, 4)
    value = parse_ring("t + 2*t^-1", Z)
    res = centralizer_orbit_reduce(value, rs, action)
    assert res.complete and res.size == 1
    assert res.representative == rs.solver.elem(rs.solver.residue(value).items())


def test_orbit_powers_of_s_fix_values():
    sc = preset_expand("solid_torus_circles", {"d": 3, "k0": 1})
    rs, action = build_rel_3mfd(sc.context(), 4)
    value = parse_ring("t^2", Z)
    action = OrbitAction(parse_word("t", Z), (parse_word("t^2", Z),), ())
    res = centralizer_orbit_reduce(value, rs, action)
    assert res.complete and res.size == 1


def test_orbit_free_group_matches_brute_force():
    # circle class trivial: relations are the fold, action is conjugation
    ctx = circles_context(table_for(F2, [], d=3), F2.identity())
    rs, _ = build_rel_3mfd(ctx, 3)
    solver = rs.solver
    x, y = parse_word("x", F2), parse_word("y", F2)
    res = centralizer_orbit_reduce(parse_ring("y", F2), rs,
                                   OrbitAction(F2.identity(), (x,), ()))
    # brute force: conjugates of y by powers of x that stay inside the window
    gens_set = set(rs.generators)

    def vector(elem):
        return dense(column(solver.letter_index, elem), len(rs.generators))

    reps = set()
    for n in range(-3, 4):
        w = mul(mul(parse_word(f"x^{n}", F2) if n else F2.identity(), y),
                inv(parse_word(f"x^{n}", F2) if n else F2.identity()))
        if w in gens_set:
            reps.add(tuple(vector(solver.elem(solver.residue(monomial(w)).items()))))
    assert not res.complete  # the true orbit leaves any finite window
    assert res.size == len(reps)

    def term_order(vec):
        return tuple((i, c) for i, c in enumerate(vec) if c)

    assert tuple(vector(res.representative)) == min(reps, key=term_order)


def test_orbit_requires_centralizing_elements():
    # the action is checked when it is built, before any orbit search
    x, y = parse_word("x", PROD), parse_word("y", PROD)
    with pytest.raises(SceneError, match="not in the centralizer"):
        OrbitAction(x, (x, y), ())
    OrbitAction(x, (x, parse_word("x^2*t", PROD)), ())


def test_orbit_action_derives_inverse_moves_from_the_action_law():
    """w(b^-1) missing from the table is -b^-1 w(b) b; a tabled w(b^-1) is
    used as given, bar-reduced.  Each group element moves once, in order."""
    x, b, b2 = (parse_word(w, PROD) for w in ("x", "x*t", "t^2"))
    w_b = parse_ring("y + x*y^-1 - 1", PROD)
    action = OrbitAction(x, (b, inv(b), b2), ((b, w_b),))
    w_b = gr_bar_reduce(w_b)
    law = R.gr_neg(R.gr_conj(inv(b), w_b))
    assert law != R.gr_neg(w_b)  # b does not commute with w(b)
    assert action.moves == ((b, w_b), (inv(b), law),
                            (b2, R.zero(PROD)), (inv(b2), R.zero(PROD)))
    tabled = OrbitAction(x, (b,), ((b, w_b), (inv(b), parse_ring("y + 1", PROD))))
    assert tabled.moves == ((b, w_b), (inv(b), parse_ring("y", PROD)))
    # moves are derived data: they take no part in equality
    assert action == OrbitAction(action.s_class, action.centralizer, action.whisker)


def test_orbit_action_derives_a_move_from_its_tabled_inverse():
    """With only w(b^-1) tabled, w(b) = -b w(b^-1) b^-1: the moves are the
    same whichever of b and b^-1 the centralizer lists."""
    spec = parse_group_spec("F<x> x Z<t>")
    x, t = parse_word("x", spec), parse_word("t", spec)
    table = ((inv(t), parse_ring("x*t", spec)),)
    want = {t: parse_ring("-x*t", spec), inv(t): parse_ring("x*t", spec)}
    assert dict(OrbitAction(x, (t,), table).moves) == want
    assert dict(OrbitAction(x, (inv(t),), table).moves) == want


def test_orbit_value_outside_window():
    ctx = circles_context(table_for(Z, [], d=3), parse_word("t", Z))
    rs, action = build_rel_3mfd(ctx, 2)
    with pytest.raises(WindowOverflowError):
        centralizer_orbit_reduce(parse_ring("t^9", Z), rs, action)


# -- one reduction per relation set ------------------------------------------------

def test_relation_set_reduces_once(monkeypatch):
    """Structure, knots with and without an orbit action, orbits and
    universality all read the one solver of the relation set."""
    from daxkernel.traces import (HomotopyTrace, KnotRecord, dax_of_knot,
                                  universality_witness)

    builds = []
    init = QuotientSolver.__init__

    def counting_init(self, rs):
        builds.append(rs)
        init(self, rs)

    monkeypatch.setattr(QuotientSolver, "__init__", counting_init)
    ctx = circles_context(table_for(F2, [], d=3), parse_word("x", F2))
    rs, action = build_rel_3mfd(ctx, 3)
    assert action.centralizer
    knots = [KnotRecord(name, HomotopyTrace(((1, parse_word(w, F2)),)))
             for name, w in (("a", "y"), ("b", "x*y"))]
    quotient_structure(rs)
    for k in knots:
        dax_of_knot(k, rs)
        dax_of_knot(k, rs, action)
    centralizer_orbit_reduce(parse_ring("y", F2), rs, action)
    universality_witness(knots, {"a": (0,), "b": (1,)}, rs, action)
    assert len(builds) == 1 and builds[0] is rs
    assert rs.solver is rs.solver


def test_solver_is_freed_with_its_relation_set():
    """The solver keeps no reference to its relation set, so reference
    counting alone frees it with the relation set."""
    import gc
    import weakref

    rs = build_rel_arcs(arcs_context(table_for(Z, [])), 3)
    ref = weakref.ref(rs.solver)
    gc.disable()
    try:
        del rs
        assert ref() is None
    finally:
        gc.enable()


# -- coordinates ----------------------------------------------------------------

def test_coords_on_random_relation_sets():
    """Coordinates from the Hermite basis, non-unit residual blocks
    included: they equal the dense reference, relations vanish, coordinates
    separate exactly the classes that residues separate, the map is
    additive, and its shape fits the structure."""
    rng = rng_for("coords")
    window = 4
    all_gens = ball_words(Z, window)[1:]
    blocks = torsion_blocks = 0
    for _ in range(250):
        n, m = rng.randint(1, 7), rng.randint(0, 7)
        gens = all_gens[:n]
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        rels = tuple(R.from_terms(Z, [(g, c) for g, c in zip(gens, row) if c])
                     for row in rows)
        solver = QuotientSolver(RelationSet.from_relations(
            Z, window, tuple(g.letters for g in gens), rels, (PROV_DAX_IMAGE,) * m))
        blocks += bool(solver._elim.residual_rows)
        torsion_blocks += bool(solver.torsion)
        hnf = dense_hermite_row_basis(rows)
        torsion = solver.torsion
        zero = ((0,) * solver.free_rank, (0,) * len(torsion))

        def coords(vec):
            free, tors = solver.coords(solver.elem(enumerate(vec)))
            assert (free, tors) == dense_coords(rows, vec)
            assert len(free) == solver.free_rank
            assert len(tors) == len(torsion)
            assert all(0 <= c < d for c, d in zip(tors, torsion))
            return free, tors

        for rel in rels:
            assert solver.coords(rel) == zero
        for _ in range(6):
            v = [rng.randint(-6, 6) for _ in range(n)]
            if rows and rng.random() < 0.5:
                # same class: add an integer combination of the relations
                w = list(v)
                for row in rows:
                    q = rng.randint(-2, 2)
                    w = [a + q * b for a, b in zip(w, row)]
            else:
                w = [rng.randint(-6, 6) for _ in range(n)]
            cv, cw = coords(v), coords(w)
            same_class = dense_reduce_mod_rows(v, hnf) == dense_reduce_mod_rows(w, hnf)
            assert (cv == cw) == same_class
            free, tors = coords([a + b for a, b in zip(v, w)])
            assert free == tuple(a + b for a, b in zip(cv[0], cw[0]))
            assert tors == tuple((a + b) % d
                                 for a, b, d in zip(cv[1], cw[1], torsion))
    # the residual transform is exercised, torsion included
    assert blocks >= 100 and torsion_blocks >= 40, (blocks, torsion_blocks)


# -- the stable flag from one reduction --------------------------------------------

def sweep_relation_sets(scene, windows):
    """Relation sets of a sweep, up to the first window past the ball cap."""
    for w in windows:
        try:
            yield cli.build_relations(scene, w)[0]
        except BallOverflowError:
            return


PRESET_CASES = [
    ("disk_d", {}),
    ("solid_torus_arcs", {}),
    ("solid_torus_circles", {"k0": 2}),
    ("solid_torus_circles", {"d": 6, "k0": 3}),
    ("s1_x_sphere", {"w0": 3}),
    ("s1_x_sphere", {"d": 4, "w0": 2}),
    ("aspherical", {"group": "F<x,y>", "mode": "circles", "s": "x"}),
    ("aspherical", {"group": "Z<t> x Z/2<u>", "mode": "circles", "s": "t*u"}),
    ("three_mfd", {"group": "Z<a,b>", "mode": "circles", "s": "a",
                   "phi": "circle"}),
    ("product_DkY", {"group": "Z<a,b>", "spheres": {"p": "a - b^-1"}}),
]


@pytest.mark.parametrize("preset,params", PRESET_CASES)
def test_structure_matches_three_eliminations_on_presets(preset, params):
    sc = preset_expand(preset, params)
    for rs in sweep_relation_sets(sc, cli.DEFAULT_SWEEP):
        solver = rs.solver
        assert quotient_structure(rs) == reference_structure(rs)
        for w in (rs.window - 2, rs.window - 1):
            small = restrict_relationset(rs, w)
            assert solver.window_torsion[w] == reference_structure(small).torsion


def default_windows(sc, op=None):
    """The windows an op builds: its own, or the scene's, or the default sweep."""
    if op is not None and op.window is not None:
        return [op.window]
    return [sc.window] if sc.window else cli.DEFAULT_SWEEP


def bench_corpus():
    bench = Path(__file__).resolve().parents[1] / "bench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    import corpus
    return corpus


def bench_scenes():
    corpus = bench_corpus()
    return [pytest.param(op, id=f"{workload}/{op.op_id}")
            for workload in corpus.WORKLOADS for op in corpus.build(workload, 0)]


@pytest.mark.parametrize("op", bench_scenes())
def test_structure_matches_three_eliminations_on_bench_scenes(op):
    sc = loads_scene(op.scene_text)
    for rs in sweep_relation_sets(sc, default_windows(sc, op)):
        solver = rs.solver
        assert quotient_structure(rs) == reference_structure(rs)
        for w in (rs.window - 2, rs.window - 1):
            small = restrict_relationset(rs, w)
            assert solver.window_torsion[w] == reference_structure(small).torsion
        if op.command == "concordance":
            folded = concordance_quotient(rs)
            assert quotient_structure(folded) == reference_structure(folded)


def test_smaller_windows_hold_the_direct_builds_relations():
    """The windows W-2 and W-1 that ``stable`` compares are the W build's
    relations supported on the smaller ball: they hold every relation of
    the direct build there, and can hold more.  On the bench ops of seeds
    0-2 the torsion agrees all the same."""
    corpus, strict = bench_corpus(), {}
    for workload in corpus.WORKLOADS:
        for seed in (0, 1, 2):
            for op in corpus.build(workload, seed):
                sc = loads_scene(op.scene_text)
                for rs in sweep_relation_sets(sc, default_windows(sc, op)):
                    for w in (rs.window - 2, rs.window - 1):
                        small = restrict_relationset(rs, w)
                        try:
                            direct = cli.build_relations(sc, w)[0]
                        except WindowOverflowError:
                            continue
                        assert direct.generators == small.generators
                        assert set(direct.columns) <= set(small.columns)
                        assert rs.solver.window_torsion[w] == direct.solver.torsion
                        if seed == 0 and len(small.columns) > len(direct.columns):
                            strict[op.op_id, w] = len(small.columns), len(direct.columns)
    assert strict["embedded.Z2.W5.eval", 3] == (32, 29)
    assert strict["embedded.Z2.W5.eval", 4] == (58, 54)


@pytest.mark.parametrize("op", bench_scenes())
def test_residues_and_orbits_match_dense_reference_on_bench_scenes(op):
    """The sparse Hermite basis, the canonical residues of the knot values
    and their orbit representatives equal those of the dense reference."""
    from daxkernel.traces import eval_dax_trace
    sc = loads_scene(op.scene_text)
    values = [eval_dax_trace(k.trace, sc.group) for k in sc.knots]
    if op.extra_value is not None:
        values.append(parse_ring(op.extra_value, sc.group))
    for w in default_windows(sc, op):
        try:
            rs, action = cli.build_relations(sc, w)
        except BallOverflowError:
            break
        sets = [rs, concordance_quotient(rs)] if op.command == "concordance" else [rs]
        for rel_set in sets:
            solver = QuotientSolver(rel_set)
            n = len(rel_set.generators)
            reference = dense_hermite_row_basis(
                [dense(column(solver.letter_index, r), n) for r in rel_set.relations])
            assert [dense(row, n) for row in solver._elim.basis.values()] == reference
            for value in values:
                if any(g.letters not in solver.letter_index for g in value.support()):
                    continue
                residue = dense_reduce_mod_rows(
                    dense(column(solver.letter_index, value), n), reference)
                assert (solver.elem(solver.residue(value).items())
                        == solver.elem(enumerate(residue)))
        if action is not None and action.centralizer:
            for value in values:
                orbit = centralizer_orbit_reduce(value, rs, action)
                assert ((orbit.representative, orbit.complete, orbit.size)
                        == dense_orbit(value, rs, action.centralizer,
                                       dict(action.whisker)))


# -- relation assembly in generator-index space ------------------------------------


ALL_PRESET_CASES = PRESET_CASES + [
    ("aspherical", {"group": "F<x,y>"}),
    ("three_mfd", {"group": "Z<a,b>", "mode": "circles", "s": "a*b", "u": "a*b",
                   "phi": "circle", "whisker": {"b": "a*b^2 - a^-1"}}),
    ("three_mfd", {"group": "F<x,y>", "mode": "circles", "s": "x", "u": "x",
                   "phi": "boundary_arc", "whisker": {"x^2": "0"}}),
]


@pytest.mark.parametrize("preset,params", ALL_PRESET_CASES)
def test_assembly_matches_reference_on_presets(preset, params):
    sc = preset_expand(preset, params)
    for w in default_windows(sc):
        assert_assembly_matches_reference(lambda: cli.build_relations(sc, w))


@pytest.mark.parametrize("op", bench_scenes())
def test_assembly_matches_reference_on_bench_scenes(op):
    sc = loads_scene(op.scene_text)
    for w in default_windows(sc, op):
        assert_assembly_matches_reference(lambda: cli.build_relations(sc, w))


# -- which classes take the closed-form twist ----------------------------------------

def assert_builds_match_reference(ctx, windows=(1, 2, 3)):
    """Arcs or circles builds of ``ctx`` at each window equal the reference
    assembly, which takes every twist from the Fox walk."""
    build = build_rel_circles if ctx.mode == "circles" else build_rel_arcs
    for w in windows:
        args = (ctx, {}, w) if ctx.mode == "circles" else (ctx, w)
        assert_assembly_matches_reference(lambda: build(*args))


def rows_of(spec, rows):
    return {g: parse_ring(text, spec) for g, text in rows.items()}


@pytest.mark.parametrize("phi", ["boundary_arc", "circle"])
def test_three_mfd_phi_class_is_principal_with_r_one(phi):
    sc = preset_expand("three_mfd", {"group": "F<x,y>", "mode": "circles", "s": "x*y",
                                     "u": "x*y", "phi": phi})
    assert sc.table().principal_parts == (R.one(F2),)
    for w in (2, 3, 4):
        assert_assembly_matches_reference(lambda: cli.build_relations(sc, w))


def test_product_dky_classes_are_principal_with_r_zero():
    sc = preset_expand("product_DkY", {"group": "F<x,y>",
                                       "spheres": {"s1": "x*y - y^-1*x^2", "s2": "x^2"}})
    assert sc.table().principal_parts == (R.zero(F2), R.zero(F2))
    for w in (3, 4):
        assert_assembly_matches_reference(lambda: cli.build_relations(sc, w))


def test_s1_x_sphere_class_takes_the_walk():
    # lambda(i2, t) = 1 is r - r t^-1 for no finite r
    sc = preset_expand("s1_x_sphere", {"d": 5, "w0": 3})
    assert sc.table().principal_parts == (None,)
    for w in (4, 6):
        assert_assembly_matches_reference(lambda: cli.build_relations(sc, w))


def test_class_over_a_group_without_infinite_order_takes_the_walk():
    spec = parse_group_spec("Z/2<u> x Z/3<w>")
    rows = {g: R.gr_mul(parse_ring("u + 2*w", spec),
                        R.gr_add(R.one(spec), R.monomial(inv(parse_word(g, spec)), -1)))
            for g in spec.generators}
    a = sphere_class(spec, "a", False, parse_ring("u*w", spec), parse_ring("w", spec), rows)
    table = table_for(spec, [a], d=4)
    assert table.principal_parts == (None,)
    assert_builds_match_reference(arcs_context(table))


@pytest.mark.parametrize("group,rows", [
    # draw_table's loose part c*N on the free row, N = 1 + u + u^2: each
    # coset of <x> sums to 1
    ("F<x> x Z/3<u>", {"x": "x + u + u^2", "u": "x - x*u^2"}),
    # the first row is 1 - x^-1, but the second is not 1 - y^-1: only the
    # exact check against every row tells
    ("F<x,y>", {"x": "1 - x^-1", "y": "1 - y^-1 + y"}),
    # principal, but r = x + x^2 + ... + x^1000 has more terms than the
    # row: the walk is kept
    ("F<x>", {"x": "x^1000 - 1"}),
])
def test_class_with_a_loose_part_takes_the_walk(group, rows):
    spec = parse_group_spec(group)
    a = sphere_class(spec, "a", True, R.zero(spec), R.zero(spec), rows_of(spec, rows))
    table = table_for(spec, [a], d=5)
    assert table.principal_parts == (None,)
    assert_builds_match_reference(arcs_context(table))
    assert_builds_match_reference(circles_context(table, parse_word("x", spec)))


@pytest.mark.parametrize("d", [3, 4])
def test_mixed_table_keeps_class_order(d):
    loose = sphere_class(F2, "loose", False, parse_ring("x*y^-1", F2), parse_ring("y", F2),
                         rows_of(F2, {"x": "1 - x^-1", "y": "1 - y^-1 + y"}))
    r = parse_ring("x - 2*y^-1", F2)
    second = sphere_class(F2, "second", True, R.zero(F2), parse_ring("x", F2),
                          {g: R.gr_mul(r, R.gr_add(R.one(F2),
                                                   R.monomial(inv(parse_word(g, F2)), -1)))
                           for g in F2.generators})
    s = parse_word("x*y", F2)
    table = table_for(F2, [phi_class(F2, s), loose, second], d=d)
    assert table.principal_parts == (R.one(F2), None, r)
    assert_builds_match_reference(circles_context(table, s))


def test_assembly_keeps_values_whose_cancelled_terms_leave_the_window():
    """dax_u_general adds g lambda(a, u) g^-1 and takes it away again; over a
    free group those words can leave the window while the value stays in it.
    At W=2 the translate x^2 of lambda(a, u) = x^-1*y gives x*y, with the
    cancelled word x*y*x^-2 outside: x*y is kept, not dropped."""
    a = sphere_class(F2, "a", False, R.zero(F2), parse_ring("x^-1*y", F2), {})
    ctx = arcs_context(table_for(F2, [a]))
    _, relations, _, dropped = assert_assembly_matches_reference(
        lambda: build_rel_arcs(ctx, 2))
    assert parse_ring("x*y", F2) in relations
    assert dropped


def test_abelian_window_word_products_grow_linearly(monkeypatch):
    """Building the seed-0 ``s1_x_sphere`` eval scene at W=160 takes at most
    2.2 times the word products and inverses of W=80 in the pairing and the
    dax formulas, of Words and of letter tuples alike, the latter through
    the scene spec's kernels.  Over Z<t> every generator step is central,
    so each translate's twist is its parent's plus the twist of
    lambda(a, t^(+-1)): a few products per translate, not |g| of them.  At
    least one product is counted per translate, so the count measures."""
    from daxkernel import calculus, pairing

    op = next(op for op in bench_corpus().build("eval_knots", 0)
              if op.op_id == "s1_x_sphere.W30.eval")
    sc = loads_scene(op.scene_text)
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    for module in (pairing, calculus):
        for name in ("mul", "inv", "mul_letters", "inv_letters"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    # the kernels are instance attributes of the frozen spec
    for name in ("_mul", "_inv"):
        monkeypatch.setitem(sc.group.__dict__, name, counted(getattr(sc.group, name)))
    counts = []
    for window in (80, 160):
        calls[0] = 0
        cli.build_relations(sc, window)
        counts.append(calls[0])
    assert counts[0] >= len(ball(sc.group, 80)), counts
    assert counts[1] <= 2.2 * counts[0], counts


# -- the target report, rendered from window positions and letters -----------------

@pytest.mark.parametrize("preset,params", ALL_PRESET_CASES)
def test_target_report_renders_as_the_reference_on_presets(preset, params):
    """At its default windows, a preset's report gives every generator,
    relation and dropped value as ``str`` of the reference Words and
    RingElems of its last window."""
    sc = preset_expand(preset, params)
    report = cli.run_scene(sc, "target")
    assert_report_matches_reference(report, cli.build_relations(sc, report["window"])[0])


def bench_ops(keep):
    """The ops of bench seeds 0-2 for which ``keep(workload, op)`` holds."""
    corpus = bench_corpus()
    return [pytest.param(op, id=f"{seed}/{op.op_id}")
            for workload in corpus.WORKLOADS for seed in (0, 1, 2)
            for op in corpus.build(workload, seed) if keep(workload, op)]


@pytest.mark.parametrize("op", bench_ops(lambda workload, op: op.command == "target"))
def test_target_report_renders_as_the_reference_on_bench_ops(op):
    sc = loads_scene(op.scene_text)
    report = cli.run_scene(sc, "target", op.window)
    assert_report_matches_reference(report, cli.build_relations(sc, report["window"])[0])


def test_target_report_makes_no_word_once_relations_are_built(monkeypatch):
    """Once the relations of the seed-0 ``aspherical.F2.W6`` op are built,
    its target report, JSON and text, builds no Word and never calls
    ``ring.from_letters``: generator names are rendered once and indexed by
    window position, and the terms outside the window from their letters."""
    import json
    from daxkernel.groups import Word

    op = next(op for op in bench_corpus().build("target_sweep", 0)
              if op.op_id == "aspherical.F2.W6")
    sc = loads_scene(op.scene_text)
    built = cli.build_relations(sc, op.window)
    monkeypatch.setattr(cli, "build_relations", lambda scene, window: built)
    made, sorted_values = [0], [0]
    init, from_letters = Word.__init__, R.from_letters

    def counting(self, spec, letters):
        made[0] += 1
        init(self, spec, letters)

    def counting_from_letters(spec, terms):
        sorted_values[0] += 1
        return from_letters(spec, terms)

    monkeypatch.setattr(Word, "__init__", counting)
    monkeypatch.setattr(R, "from_letters", counting_from_letters)
    report = cli.run_scene(sc, "target", op.window)
    json.dumps(report, indent=2, sort_keys=True)
    cli.render_report(report)
    assert len(report["dropped_relations"]) == len(built[0].dropped_terms) > 900
    assert (made[0], sorted_values[0]) == (0, 0)


@pytest.mark.parametrize("op_id", ["embedded.F2_x_F2.W3.orbit",
                                   "three_mfd.F2.circle.W4.orbit"])
def test_relation_build_makes_no_word_per_translate(monkeypatch, op_id):
    """Building the relations of a seed-0 orbit scene makes as many Words
    at W=4 as at W=3: the window is kept as letter tuples, and assembly
    joins, inverts and looks up letters, so no Word is built per window
    element or per translate."""
    from daxkernel.groups import Word

    op = next(op for op in bench_corpus().build("orbit_3mfd", 0) if op.op_id == op_id)
    sc = loads_scene(op.scene_text)
    sizes = {window: len(ball(sc.group, window)) for window in (3, 4)}
    made = [0]
    init = Word.__init__

    def counting(self, spec, letters):
        made[0] += 1
        init(self, spec, letters)

    monkeypatch.setattr(Word, "__init__", counting)
    extra = {}
    for window in (3, 4):
        made[0] = 0
        cli.build_relations(sc, window)
        extra[window] = made[0]
    assert extra[3] == extra[4], (extra, sizes)


def test_commands_make_no_word_per_window_element(monkeypatch):
    """On the seed-0 ``aspherical`` F<x,y> circles scene, ``target`` makes
    as many Words at W=5 (484 window elements) as at W=4 (160), and
    ``eval`` makes fewer Words than its window has elements: the window
    stays letter tuples from the ball to the report, and a Word is built
    only for a term of a value that the report shows."""
    from daxkernel.groups import Word

    op = next(op for op in bench_corpus().build("eval_knots", 0)
              if op.op_id == "aspherical.F2.W4.eval")
    sc = loads_scene(op.scene_text)
    made = [0]
    init = Word.__init__

    def counting(self, spec, letters):
        made[0] += 1
        init(self, spec, letters)

    monkeypatch.setattr(Word, "__init__", counting)

    def words(command, window):
        made[0] = 0
        cli.run_scene(sc, command, window)
        return made[0]

    target = {window: words("target", window) for window in (4, 5)}
    assert target[4] == target[5], target
    for window in (4, 5):
        size = len(window_generators(sc.group, window))
        assert words("eval", window) < size, (window, size)


def test_solver_reads_the_columns_of_its_relation_set(monkeypatch):
    """Every relation set, assembled, restricted, folded or built from
    RingElems by the reference assembly, holds its relations' (position,
    coefficient) columns and derives its RingElems from them.  The solver takes over the columns and the letter index and
    calls ``column`` for none of its relations."""
    import daxkernel.quotient as Q
    from conftest import reference_assemble

    sc = preset_expand("s1_x_sphere", {"d": 5, "w0": 3})
    ctx = sc.context()
    rs = build_rel_circles(ctx, {}, 6)
    sets = [rs, restrict_relationset(rs, 4), concordance_quotient(rs),
            reference_assemble(ctx, 5, embedded=False)]
    for r in sets:
        assert r.columns == tuple(tuple(column(r.letter_index, rel).items())
                                  for rel in r.relations)

    def no_column(index, elem):
        raise AssertionError("column called while the solver was built")

    monkeypatch.setattr(Q, "column", no_column)
    for r in sets:
        assert r.solver.letter_index is r.letter_index
    monkeypatch.undo()
    for r in sets:
        assert quotient_structure(r) == reference_structure(r)


# -- the concordance fold and the orbit search on window positions -----------------

def assert_fold_matches_reference(rs):
    folded, want = concordance_quotient(rs), reference_concordance_quotient(rs)
    assert (folded.columns, folded.provenance) == (want.columns, want.provenance)


@pytest.mark.parametrize("preset,params", ALL_PRESET_CASES)
def test_concordance_fold_matches_reference_on_presets(preset, params):
    sc = preset_expand(preset, params)
    for rs in sweep_relation_sets(sc, default_windows(sc)):
        assert_fold_matches_reference(rs)


@pytest.mark.parametrize("op", bench_ops(lambda workload, op: op.command == "concordance"))
def test_concordance_fold_matches_reference_on_bench_ops(op):
    sc = loads_scene(op.scene_text)
    assert_fold_matches_reference(cli.build_relations(sc, op.window)[0])


def test_concordance_fold_partner_outside_the_window():
    """Over generators that are not closed under inversion, a pair whose
    missing partner sorts first is skipped and one whose partner sorts last
    raises the reference's error."""
    t, ti = parse_word("t", Z), parse_word("t^-1", Z)
    skipped = RelationSet(Z, 1, (ti.letters,), (), ())
    assert_fold_matches_reference(skipped)
    assert concordance_quotient(skipped).columns == ()
    with pytest.raises(WindowOverflowError) as want:
        reference_concordance_quotient(RelationSet(Z, 1, (t.letters,), (), ()))
    with pytest.raises(WindowOverflowError) as got:
        concordance_quotient(RelationSet(Z, 1, (t.letters,), (), ()))
    assert (str(got.value), got.value.args) == (str(want.value), want.value.args)


@pytest.mark.parametrize("op", bench_ops(lambda workload, op: workload == "orbit_3mfd"))
def test_orbits_match_reference_on_bench_ops(op):
    """Every knot value and extra value of an ``orbit_3mfd`` op has the
    orbit representative, completeness and size of the Word-level search."""
    from daxkernel.traces import eval_dax_trace
    sc = loads_scene(op.scene_text)
    rs, action = cli.build_relations(sc, op.window)
    if action is None or not action.centralizer:
        pytest.skip("no centralizer action")
    values = [eval_dax_trace(k.trace, sc.group) for k in sc.knots]
    if op.extra_value is not None:
        values.append(parse_ring(op.extra_value, sc.group))
    for value in values:
        orbit = centralizer_orbit_reduce(value, rs, action)
        assert (orbit.representative, orbit.complete, orbit.size) == \
            reference_orbit(value, rs, action)
        assert orbit.state == tuple(column(rs.letter_index, orbit.representative).items())


@pytest.mark.parametrize("op", bench_ops(lambda workload, op: workload == "orbit_3mfd"
                                         and "[whisker]" in op.scene_text))
def test_whisker_table_only_appends_whisker_columns_on_bench_ops(op):
    """The relation set of an ``orbit_3mfd`` op with a whisker table holds
    the columns, provenance and dropped values of the whisker-free assembly,
    followed only by whisker columns; without the table the assembled set
    itself comes back."""
    import daxkernel.quotient as Q

    sc = loads_scene(op.scene_text)
    ctx = sc.context()
    assert sc.whisker
    rs, action = build_rel_3mfd(ctx, op.window, sc.whisker_map())
    bare = Q._assemble(ctx, op.window, embedded=True)
    n = len(bare.columns)
    assert (rs.columns[:n], rs.provenance[:n]) == (bare.columns, bare.provenance)
    assert set(rs.provenance[n:]) <= {PROV_WHISKER}
    assert rs.dropped_terms == bare.dropped_terms
    assert action.whisker == tuple(sorted(sc.whisker, key=lambda kv: word_key(kv[0])))
    assert Q._add_whiskers(ctx, bare, {})[0] is bare


@pytest.mark.parametrize("op", [p for p in bench_scenes() if p.values[0].command != "target"])
def test_answers_build_no_relation_ring_elements(monkeypatch, op):
    """A seed-0 eval, concordance, orbit or universality op reads every
    relation set it builds, the concordance fold's included, from its
    columns: none builds its relations as RingElems."""
    import harness

    built = []
    init = RelationSet.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RelationSet, "__init__", recording)
    harness.run_op(op)
    assert built
    for rs in built:
        assert "relations" not in vars(rs)
