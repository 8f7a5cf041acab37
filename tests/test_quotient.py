import pytest

from daxkernel.errors import SceneError, WindowOverflowError
from daxkernel.groups import inv, mul, parse_group_spec, parse_word, word_length
from daxkernel import ring as R
from daxkernel.ring import gr_bar_reduce, monomial, parse_ring
from daxkernel.pairing import sphere_class
from daxkernel.calculus import arcs_context, circles_context
from daxkernel.quotient import (
    PROV_BOUNDARY,
    PROV_CONCORDANCE,
    PROV_DAX_IMAGE,
    PROV_WHISKER,
    QuotientSolver,
    RelationSet,
    build_rel_3mfd,
    build_rel_arcs,
    build_rel_circles,
    centralizer_orbit_reduce,
    concordance_quotient,
    quotient_structure,
    restrict_relationset,
    window_generators,
)
from daxkernel.scene import preset_expand

from conftest import rng_for, table_for

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
    rows = [solver.vector(rel) for rel in rs.relations]
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
    base = RelationSet(Z, 4, gens, tuple(rels), ("dax_image",) * 3)
    st0 = quotient_structure(base)
    for _ in range(10):
        shuffled = rels[:]
        rng.shuffle(shuffled)
        k = rng.randrange(3)
        shuffled[k] = R.gr_neg(shuffled[k])
        combo = R.gr_add(shuffled[0], R.gr_scale(rng.randint(-2, 2), shuffled[1]))
        variant = RelationSet(Z, 4, gens, tuple(shuffled + [combo]),
                              ("dax_image",) * 4)
        st = quotient_structure(variant)
        assert (st.free_rank, st.torsion) == (st0.free_rank, st0.torsion)


def test_generator_rank_one_row():
    gens = window_generators(Z, 1)
    rs = RelationSet(Z, 1, gens, (parse_ring("t - t^-1", Z),), ("dax_image",))
    st = quotient_structure(rs)
    assert st.free_rank == 1 and st.torsion == ()


def test_relation_support_validated():
    gens = window_generators(Z, 1)
    with pytest.raises(WindowOverflowError):
        RelationSet(Z, 1, gens, (parse_ring("t^5", Z),), ("dax_image",))


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


def test_restrict_relationset_drops_wide_relations():
    sc = preset_expand("s1_x_sphere", {"d": 5, "w0": 3})
    rs = build_rel_circles(sc.context(), {}, 6)
    small = restrict_relationset(rs, 3)
    assert all(word_length(g) <= 3 for g in small.generators)
    assert all(all(word_length(w) <= 3 for w in rel.support())
               for rel in small.relations)
    assert len(small.dropped) > len(rs.dropped)


# -- three-manifold builder ------------------------------------------------------

def test_3mfd_irreducible_no_relations():
    ctx = arcs_context(table_for(F2, [], d=3))
    rs, action = build_rel_3mfd(ctx, 2, circles=False)
    assert rs.relations == ()
    assert action.centralizer == ()
    st = quotient_structure(rs)
    assert st.free_rank == len(rs.generators)


def test_3mfd_punctured_scene_boundary_relations():
    # removing a ball: the boundary sphere forces g^-1 - g*s^-1
    s = parse_word("x", F2)
    ctx = circles_context(table_for(F2, [], d=3), s)
    rs, action = build_rel_3mfd(ctx, 2, circles=True)
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
    rs, _ = build_rel_3mfd(sc.context(), 2, circles=False)
    for rel in rs.relations:
        terms = rel.items()
        assert len(terms) == 2
        (w1, c1), (w2, c2) = terms
        assert w2 == inv(w1) and c1 + c2 == 0


def test_3mfd_requires_dimension_three():
    ctx = arcs_context(table_for(F2, [], d=4))
    with pytest.raises(Exception):
        build_rel_3mfd(ctx, 2, circles=False)


def test_3mfd_requires_embedded_classes():
    a = sphere_class(F2, "a", False, parse_ring("x", F2), R.zero(F2), {})
    ctx = arcs_context(table_for(F2, [a], d=3))
    with pytest.raises(SceneError):
        build_rel_3mfd(ctx, 2, circles=False)


# -- whisker validation -------------------------------------------------------------

PROD = parse_group_spec("F<x,y> x Z<t>")


def prod_circles_ctx(d=3):
    s = parse_word("x", PROD)
    return circles_context(table_for(PROD, [], d=d), s)


def test_whisker_key_must_centralize():
    ctx = prod_circles_ctx()
    whisker = {parse_word("y", PROD): R.zero(PROD)}
    with pytest.raises(SceneError):
        build_rel_3mfd(ctx, 2, circles=True, whisker=whisker)


def test_whisker_power_of_s_must_vanish():
    ctx = prod_circles_ctx()
    whisker = {parse_word("x^2", PROD): parse_ring("y", PROD)}
    with pytest.raises(SceneError):
        build_rel_3mfd(ctx, 2, circles=True, whisker=whisker)


def test_whisker_action_law_enforced():
    ctx = prod_circles_ctx()
    y = parse_ring("y", PROD)
    bad = {parse_word("t", PROD): y,
           parse_word("t^2", PROD): R.zero(PROD)}
    with pytest.raises(SceneError) as info:
        build_rel_3mfd(ctx, 3, circles=True, whisker=bad)
    assert "action law" in str(info.value)


def test_whisker_consistent_table_accepted():
    ctx = prod_circles_ctx()
    y = parse_ring("y", PROD)
    good = {parse_word("t", PROD): y,
            parse_word("t^2", PROD): R.gr_scale(2, y)}
    rs, action = build_rel_3mfd(ctx, 3, circles=True, whisker=good)
    assert y in rs.relations
    assert PROV_WHISKER in rs.provenance
    assert parse_word("t", PROD) in action.centralizer


def test_whisker_trivial_circle_class_must_vanish():
    ctx = circles_context(table_for(PROD, [], d=3), PROD.identity())
    with pytest.raises(SceneError):
        build_rel_3mfd(ctx, 2, circles=True,
                       whisker={parse_word("t", PROD): parse_ring("y", PROD)})


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
    rs, action = build_rel_3mfd(ctx, 4, circles=True)
    solver = QuotientSolver(rs)
    value = parse_ring("t + 2*t^-1", Z)
    res = centralizer_orbit_reduce(value, rs, action.centralizer,
                                   dict(action.whisker), action.s_class)
    assert res.complete and res.size == 1
    assert res.representative == solver.canonical_residue(value)


def test_orbit_powers_of_s_fix_values():
    sc = preset_expand("solid_torus_circles", {"d": 3, "k0": 1})
    rs, action = build_rel_3mfd(sc.context(), 4, circles=True)
    value = parse_ring("t^2", Z)
    res = centralizer_orbit_reduce(value, rs, (parse_word("t^2", Z),), {},
                                   parse_word("t", Z))
    assert res.complete and res.size == 1


def test_orbit_free_group_matches_brute_force():
    # circle class trivial: relations are the fold, action is conjugation
    ctx = circles_context(table_for(F2, [], d=3), F2.identity())
    rs, _ = build_rel_3mfd(ctx, 3, circles=True)
    solver = QuotientSolver(rs)
    x, y = parse_word("x", F2), parse_word("y", F2)
    res = centralizer_orbit_reduce(parse_ring("y", F2), rs, (x,), {},
                                   F2.identity())
    # brute force: conjugates of y by powers of x that stay inside the window
    gens_set = set(rs.generators)
    reps = set()
    for n in range(-3, 4):
        w = mul(mul(parse_word(f"x^{n}", F2) if n else F2.identity(), y),
                inv(parse_word(f"x^{n}", F2) if n else F2.identity()))
        if w in gens_set:
            reps.add(tuple(solver.vector(solver.canonical_residue(monomial(w)))))
    assert not res.complete  # the true orbit leaves any finite window
    assert res.size == len(reps)

    def term_order(vec):
        return tuple((i, c) for i, c in enumerate(vec) if c)

    assert tuple(solver.vector(res.representative)) == min(reps, key=term_order)


def test_orbit_requires_centralizing_elements():
    ctx = prod_circles_ctx()
    rs, _ = build_rel_3mfd(ctx, 2, circles=True)
    with pytest.raises(SceneError):
        centralizer_orbit_reduce(parse_ring("y", PROD), rs,
                                 (parse_word("y", PROD),), {},
                                 parse_word("x", PROD))


def test_orbit_value_outside_window():
    ctx = circles_context(table_for(Z, [], d=3), parse_word("t", Z))
    rs, action = build_rel_3mfd(ctx, 2, circles=True)
    with pytest.raises(WindowOverflowError):
        centralizer_orbit_reduce(parse_ring("t^9", Z), rs, action.centralizer,
                                 {}, action.s_class)


# -- coordinates ----------------------------------------------------------------

def test_coords_on_random_relation_sets():
    """Coordinates from the sparse elimination, non-unit residual blocks
    included: relations vanish, coordinates separate exactly the classes
    that Hermite residues separate, the map is additive, and its shape fits
    the structure."""
    from daxkernel.snf import hermite_row_basis, reduce_mod_rows
    rng = rng_for("coords")
    window = 4
    all_gens = window_generators(Z, window)
    blocks = torsion_blocks = 0
    for _ in range(250):
        n, m = rng.randint(1, 7), rng.randint(0, 7)
        gens = all_gens[:n]
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        rels = tuple(R.from_terms(Z, [(g, c) for g, c in zip(gens, row) if c])
                     for row in rows)
        solver = QuotientSolver(RelationSet(Z, window, gens, rels,
                                            (PROV_DAX_IMAGE,) * m))
        blocks += bool(solver._elim.residual_rows)
        torsion_blocks += bool(solver.torsion)
        hnf = hermite_row_basis(rows)
        torsion = solver.torsion
        zero = ((0,) * solver.free_rank, (0,) * len(torsion))

        def coords(vec):
            free, tors = solver.coords(solver.elem(vec))
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
            same_class = reduce_mod_rows(v, hnf) == reduce_mod_rows(w, hnf)
            assert (cv == cw) == same_class
            free, tors = coords([a + b for a, b in zip(v, w)])
            assert free == tuple(a + b for a, b in zip(cv[0], cw[0]))
            assert tors == tuple((a + b) % d
                                 for a, b, d in zip(cv[1], cw[1], torsion))
    # the residual transform is exercised, torsion included
    assert blocks >= 100 and torsion_blocks >= 40, (blocks, torsion_blocks)
