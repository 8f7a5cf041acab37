import pytest

from daxkernel import cli
from daxkernel.errors import SceneError, WindowOverflowError
from daxkernel.groups import inv, parse_group_spec, parse_word, word_key
from daxkernel import ring as R
from daxkernel import snf
from daxkernel.ring import gr_add, monomial, parse_ring
from daxkernel.calculus import arcs_context, circles_context
from daxkernel.quotient import (
    PROV_DAX_IMAGE,
    OrbitAction,
    QuotientSolver,
    RelationSet,
    build_rel_3mfd,
    column,
)
from daxkernel.scene import preset_expand
from daxkernel.traces import (
    HomotopyTrace,
    KnotRecord,
    Witness,
    dax_of_knot,
    eval_dax_trace,
    mu2_reduce,
    universality_witness,
)

from conftest import ball_words, concat_traces, random_word, rng_for, table_for

Z = parse_group_spec("Z<t>")
F2 = parse_group_spec("F<x,y>")


def trace(spec, *events):
    parsed = tuple((s, parse_word(w, spec)) for s, w in events)
    return HomotopyTrace(parsed)


def random_trace(rng, spec, max_events=5):
    events = tuple((rng.choice((1, -1)), random_word(rng, spec, max_syllables=2))
                   for _ in range(rng.randint(0, max_events)))
    return HomotopyTrace(events)


# -- trace evaluation ------------------------------------------------------------

def test_eval_single_event():
    t = trace(F2, (1, "x*y"))
    assert eval_dax_trace(t, F2) == parse_ring("x*y", F2)


def test_eval_cancellation():
    t = trace(F2, (1, "x"), (-1, "x"))
    assert eval_dax_trace(t, F2).is_zero


def test_eval_identity_loops_dropped():
    t = trace(F2, (1, "1"), (-1, "1"), (1, "1"))
    assert eval_dax_trace(t, F2).is_zero


def test_eval_additive_under_concatenation():
    rng = rng_for("trace-concat")
    for _ in range(60):
        t1, t2 = random_trace(rng, F2), random_trace(rng, F2)
        assert eval_dax_trace(concat_traces(t1, t2), F2) == \
            gr_add(eval_dax_trace(t1, F2), eval_dax_trace(t2, F2))


# -- concordance fold --------------------------------------------------------------

def test_mu2_folds_to_minimal_representative():
    assert mu2_reduce(parse_ring("t^-1", Z)) == parse_ring("t", Z)
    # x^-1*y sorts before its inverse y^-1*x in the graded lexicographic order
    assert mu2_reduce(parse_ring("y^-1*x", F2)) == parse_ring("x^-1*y", F2)
    assert mu2_reduce(R.zero(Z)).is_zero


def test_mu2_kills_symmetric_differences():
    rng = rng_for("mu2-sym")
    for _ in range(60):
        g = random_word(rng, F2)
        val = gr_add(monomial(g), monomial(inv(g), -1))
        assert mu2_reduce(val).is_zero


def test_mu2_sheet_swap_invariance():
    rng = rng_for("mu2-swap")
    for _ in range(60):
        t = random_trace(rng, F2)
        swapped = HomotopyTrace(tuple((s, inv(w)) for s, w in t.events))
        assert mu2_reduce(eval_dax_trace(t, F2)) == \
            mu2_reduce(eval_dax_trace(swapped, F2))


# -- knots against relation sets -----------------------------------------------------

def irreducible_ctx(window=3):
    ctx = arcs_context(table_for(F2, [], d=3))
    rs, _ = build_rel_3mfd(ctx, window)
    return rs


def test_empty_trace_is_zero():
    rs = irreducible_ctx()
    data = dax_of_knot(KnotRecord("u", HomotopyTrace(())), rs)
    assert data.value.is_zero
    assert not any(data.free_coords) and not any(data.torsion_coords)


def test_single_crossing_change_is_nonzero():
    rs = irreducible_ctx()
    k = KnotRecord("k", trace(F2, (1, "x*y")))
    data = dax_of_knot(k, rs)
    assert any(data.free_coords)
    assert data.residue == parse_ring("x*y", F2)


def test_knots_differing_by_relations_agree():
    rng = rng_for("relation-insensitive")
    s = parse_word("x", F2)
    ctx = circles_context(table_for(F2, [], d=3), s)
    rs, _ = build_rel_3mfd(ctx, 3)
    for _ in range(40):
        base = random_trace(rng, F2, max_events=3)
        if any(w not in set(rs.generators) and not w.is_identity
               for _, w in base.events):
            continue
        rel = rs.relations[rng.randrange(len(rs.relations))]
        extra = []
        for w, c in rel.items():
            extra.extend([(1 if c > 0 else -1, w)] * abs(c))
        longer = concat_traces(base, HomotopyTrace(tuple(extra)))
        d1 = dax_of_knot(KnotRecord("a", base), rs)
        d2 = dax_of_knot(KnotRecord("b", longer), rs)
        assert d1.residue == d2.residue
        assert (d1.free_coords, d1.torsion_coords) == \
            (d2.free_coords, d2.torsion_coords)


def test_knot_trace_outside_window():
    rs = irreducible_ctx(window=2)
    k = KnotRecord("far", trace(F2, (1, "x^5")))
    with pytest.raises(WindowOverflowError):
        dax_of_knot(k, rs)


def test_orbit_reduction_applies_for_circles():
    ctx = circles_context(table_for(F2, [], d=3), F2.identity())
    rs, action = build_rel_3mfd(ctx, 3)
    # fold relations make y and y^-1 equal already; conjugation by x moves y
    k = KnotRecord("k", trace(F2, (1, "x*y*x^-1")))
    plain = dax_of_knot(k, rs)
    act = OrbitAction(F2.identity(), (parse_word("x", F2),), ())
    reduced = dax_of_knot(k, rs, act)
    assert plain.residue != reduced.residue
    assert reduced.residue == rs.solver.elem(rs.solver.residue(parse_ring("y", F2)).items())


# -- universality ----------------------------------------------------------------------

def probe_knots(rs):
    """The empty knot, and one knot per window generator g with trace g;
    they pin the solve down uniquely."""
    return [KnotRecord("base", HomotopyTrace(()))] + [
        KnotRecord(f"gen{i}", HomotopyTrace(((1, g),))) for i, g in enumerate(rs.generators)]


def add_random_knots(rng, rs, knots, n):
    """``knots`` with random F<x,y> knots on the window appended, up to n."""
    gens = set(rs.generators)
    while len(knots) < n:
        t = random_trace(rng, F2, max_events=4)
        if all(w in gens or w.is_identity for _, w in t.events):
            knots.append(KnotRecord(f"k{len(knots)}", t))
    return knots


def corpus(rng, n=30, window=3, span=False):
    rs = irreducible_ctx(window)
    knots = probe_knots(rs) if span else [KnotRecord("base", HomotopyTrace(()))]
    return rs, add_random_knots(rng, rs, knots, n)


def test_universality_identity_invariant():
    rng = rng_for("univ-id")
    rs, knots = corpus(rng, n=80, span=True)
    solver = QuotientSolver(rs)
    values = {}
    for k in knots:
        free, _ = solver.coords(eval_dax_trace(k.trace, F2))
        values[k.name] = free
    w_map, base = universality_witness(knots, values, rs)
    assert not isinstance(w_map, Witness)
    assert base == tuple([0] * len(values[knots[0].name]))
    for g in rs.generators:
        free, _ = solver.coords(monomial(g))
        assert w_map[str(monomial(g))] == free


def test_universality_constant_invariant():
    rng = rng_for("univ-const")
    rs, knots = corpus(rng)
    values = {k.name: (7,) for k in knots}
    w_map, base = universality_witness(knots, values, rs)
    assert not isinstance(w_map, Witness)
    assert base == (7,)
    assert all(v == (0,) for v in w_map.values())


def test_universality_recovers_fold_map():
    rng = rng_for("univ-fold")
    rs, knots = corpus(rng, n=80, span=True)
    # target basis: fold classes of the window generators
    reps = sorted({min(g, inv(g), key=word_key) for g in rs.generators},
                  key=word_key)
    rep_index = {r: i for i, r in enumerate(reps)}

    def fold_vector(val):
        out = [0] * len(reps)
        for w, c in mu2_reduce(val).items():
            out[rep_index[w]] += c
        return tuple(out)

    values = {k.name: fold_vector(eval_dax_trace(k.trace, F2)) for k in knots}
    w_map, base = universality_witness(knots, values, rs)
    assert not isinstance(w_map, Witness)
    assert base == tuple([0] * len(reps))
    for g in rs.generators:
        assert w_map[str(monomial(g))] == fold_vector(monomial(g))


def test_universality_detects_planted_failure():
    rng = rng_for("univ-fail")
    rs, knots = corpus(rng, n=10)
    # two knots with the same invariant value but different planted values
    twin = KnotRecord("twin", concat_traces(knots[3].trace,
                                            HomotopyTrace(((1, parse_word("x", F2)),
                                                           (-1, parse_word("x", F2))))))
    knots = knots + [twin]
    solver = QuotientSolver(rs)
    values = {}
    for k in knots:
        free, _ = solver.coords(eval_dax_trace(k.trace, F2))
        values[k.name] = free
    values["twin"] = tuple(v + 1 for v in values[knots[3].name])
    result = universality_witness(knots, values, rs)
    assert isinstance(result, Witness)
    combo = result.combination
    # the certificate is an integer combination of knots whose invariant
    # coordinates cancel but whose planted values do not
    coord_sum = None
    value_sum = None
    for k in knots:
        y = combo.get(k.name, 0)
        if y == 0:
            continue
        free, _ = solver.coords(eval_dax_trace(k.trace, F2))
        row = list(free) + [1]
        vals = values[k.name]
        if coord_sum is None:
            coord_sum = [0] * len(row)
            value_sum = [0] * len(vals)
        coord_sum = [a + y * b for a, b in zip(coord_sum, row)]
        value_sum = [a + y * b for a, b in zip(value_sum, vals)]
    if result.modulus is None:
        assert all(v == 0 for v in coord_sum)
        assert any(v != 0 for v in value_sum)
    else:
        assert all(v % result.modulus == 0 for v in coord_sum)
        assert any(v % result.modulus != 0 for v in value_sum)


@pytest.mark.parametrize("planted,detail", [(0, None), (1, "output coordinate 1: ")])
def test_universality_factors_its_system_once(monkeypatch, planted, detail):
    """Every output coordinate is solved on one Smith form of the knots'
    coordinate matrix, and a failure names the first coordinate that has no
    solution: the twin has the coordinates of knot 3 and, when planted, a
    second value that differs from it."""
    rng = rng_for("univ-once")
    rs, knots = corpus(rng, n=10)
    x = parse_word("x", F2)
    knots = knots + [KnotRecord("twin", concat_traces(knots[3].trace,
                                                      HomotopyTrace(((1, x), (-1, x)))))]
    values = {k.name: (7, 0) for k in knots}
    values["twin"] = (7, planted)
    universality_witness(knots, values, rs)  # builds the quotient solver
    calls = []
    original = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form",
                        lambda rows: calls.append(rows) or original(rows))
    result = universality_witness(knots, values, rs)
    assert len(calls) == 1
    if detail is None:
        assert result[1] == (7, 0)
    else:
        assert isinstance(result, Witness) and result.detail.startswith(detail)


def assert_solves_type_one_values(rs, knots, rng, action=None, dim=2):
    """Values drawn as base + a random integer map of the free coordinates
    are of type <= 1, so universality solves them.  Check the solution on
    its defining equations: each output of w vanishes on every relation
    column, and v(K) = base + the sum of c * w(g) over the terms c * g of
    each knot's value."""
    solver = rs.solver
    weights = [[rng.randint(-3, 3) for _ in range(solver.free_rank)] for _ in range(dim)]
    base = [rng.randint(-5, 5) for _ in range(dim)]
    values = {}
    for k in knots:
        free, _ = solver.coords(eval_dax_trace(k.trace, rs.spec))
        values[k.name] = tuple(b + sum(a * c for a, c in zip(ws, free))
                               for b, ws in zip(base, weights))
    result = universality_witness(knots, values, rs, action)
    assert not isinstance(result, Witness)
    w_map, base_value = result
    w = [w_map[str(monomial(g))] for g in rs.generators]

    def w_of(terms):
        return tuple(sum(c * w[i][out] for i, c in terms) for out in range(dim))

    for col in rs.columns:
        assert w_of(col) == (0,) * dim
    for k in knots:
        terms = column(rs.letter_index, eval_dax_trace(k.trace, rs.spec)).items()
        assert values[k.name] == tuple(b + x for b, x in zip(base_value, w_of(terms)))


def test_universality_solves_its_equations_on_random_relation_sets():
    """Relation sets drawn as in ``test_coords_on_random_relation_sets``,
    with one probe knot per generator and a few random knots; some have a
    residual block with both a torsion row and a free row."""
    rng = rng_for("univ-random")
    window = 4
    all_gens = ball_words(Z, window)[1:]
    mixed_blocks = 0
    for _ in range(80):
        n, m = rng.randint(1, 7), rng.randint(0, 7)
        gens = all_gens[:n]
        rels = tuple(R.from_terms(Z, [(g, c) for g in gens if (c := rng.randint(-6, 6))])
                     for _ in range(m))
        rs = RelationSet.from_relations(Z, window, tuple(g.letters for g in gens), rels,
                                        (PROV_DAX_IMAGE,) * m)
        diagonal = rs.solver._elim.residual_diagonal
        mixed_blocks += 0 in diagonal and any(d > 1 for d in diagonal)
        knots = probe_knots(rs) + [
            KnotRecord(f"k{j}", HomotopyTrace(tuple(
                (rng.choice((1, -1)), rng.choice(gens)) for _ in range(rng.randint(1, 4)))))
            for j in range(3)]
        assert_solves_type_one_values(rs, knots, rng)
    assert mixed_blocks >= 5, mixed_blocks


def test_universality_solves_its_equations_on_f2_at_window_6():
    """The aspherical F<x,y> circles scene of the benchmark at W = 6: 1,456
    generators, 974 free coordinates."""
    rng = rng_for("univ-f2")
    sc = preset_expand("aspherical", {"group": "F<x,y>", "d": 7, "mode": "circles",
                                      "s": "x*y^-1", "u": "x*y^-1"})
    rs, action = cli.build_relations(sc, 6)
    knots = add_random_knots(rng, rs, probe_knots(rs), len(rs.generators) + 6)
    assert_solves_type_one_values(rs, knots, rng, action)


def test_universality_rejects_repeated_knot_names():
    """Values and witness combinations are keyed by knot name: two knots
    named k (traces x*x and x, so coordinates 2 and 1) would be read as one,
    and the witness {base: 1, k: -2} does not annihilate the coordinates of
    the three knots."""
    rs = irreducible_ctx(window=2)
    x = parse_word("x", F2)
    knots = [KnotRecord("base", HomotopyTrace(())),
             KnotRecord("k", HomotopyTrace(((1, x), (1, x)))),
             KnotRecord("k", HomotopyTrace(((1, x),)))]
    with pytest.raises(SceneError, match="repeated"):
        universality_witness(knots, {"base": (0,), "k": (1,)}, rs)


def test_universality_rejects_values_of_unknown_knots():
    """A value keyed by a name that no knot has would be ignored, and the
    solution returned as if it were absent."""
    rs = irreducible_ctx(window=2)
    x = parse_word("x", F2)
    knots = [KnotRecord("base", HomotopyTrace(())),
             KnotRecord("k", HomotopyTrace(((1, x),)))]
    assert not isinstance(universality_witness(knots, {"base": (0,), "k": (1,)}, rs),
                          Witness)
    with pytest.raises(SceneError, match="'kk'"):
        universality_witness(knots, {"base": (0,), "k": (1,), "kk": (7,)}, rs)
