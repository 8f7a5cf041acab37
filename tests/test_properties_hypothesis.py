"""Property-based checks of the core algebraic identities."""

import random
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from daxkernel.calculus import (
    DaxContext,
    arcs_context,
    circles_context,
    dax_rebase,
    dax_translate,
    dax_u_embedded,
    dax_u_general,
)
from daxkernel.errors import BallOverflowError, ModeError, UnknownGeneratorError
from daxkernel.groups import (
    FINITE_CYCLIC,
    FREE,
    FREE_ABELIAN,
    Factor,
    GroupSpec,
    Word,
    ball,
    inv,
    mul,
    normalize,
    parse_group_spec,
    word_key,
    word_length,
)
from daxkernel import ring as R
from daxkernel.ring import (
    gr_add,
    gr_bar_reduce,
    gr_involute,
    gr_mul,
    parse_ring,
    render_ring,
)
from daxkernel.pairing import (
    PairingTable,
    lambda_flip,
    lambda_word,
    sphere_class,
    twists_on_ball,
)
from daxkernel.quotient import (
    PROV_DAX_IMAGE,
    QuotientSolver,
    RelationSet,
    build_rel_3mfd,
    build_rel_arcs,
    build_rel_circles,
    quotient_structure,
    restrict_relationset,
    window_generators,
)
from daxkernel.snf import (
    hermite_row_basis,
    reduce_mod_rows,
    sparse_rank_and_torsion,
)

from conftest import (
    dense,
    GROUP_TEXTS,
    assert_assembly_matches_reference,
    assert_report_matches_reference,
    dense_coords,
    dense_hermite_row_basis,
    dense_reduce_mod_rows,
    lambda_on_ball,
    phi_class,
    random_arcs_context,
    random_circles_context,
    random_class,
    random_whisker,
    random_word,
    reference_ball,
    reference_elimination,
    reference_structure,
    sparse,
    table_for,
)

SPECS = {text: parse_group_spec(text)
         for text in ("Z<t>", "F<x,y>", "Z/3<u>", "Z<a,b>")}


@st.composite
def spec_and_words(draw, n=1):
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    words = []
    for _ in range(n):
        letters = draw(st.lists(
            st.tuples(st.sampled_from(spec.generators),
                      st.integers(min_value=-3, max_value=3)),
            max_size=4))
        words.append(normalize(letters, spec))
    return spec, words


@st.composite
def spec_and_elems(draw, n=1):
    spec, _ = draw(spec_and_words(0))
    elems = []
    for _ in range(n):
        terms = draw(st.lists(
            st.tuples(st.lists(
                st.tuples(st.sampled_from(spec.generators),
                          st.integers(min_value=-2, max_value=2)),
                max_size=3),
                st.integers(min_value=-4, max_value=4)),
            max_size=3))
        acc = {}
        for letters, c in terms:
            w = normalize(letters, spec)
            acc[w] = acc.get(w, 0) + c
        elems.append(R.from_terms(spec, acc))
    return spec, elems


@given(spec_and_elems(3))
@settings(max_examples=150, deadline=None)
def test_ring_axioms(data):
    spec, (r, s, t) = data
    assert gr_add(r, s) == gr_add(s, r)
    assert gr_add(gr_add(r, s), t) == gr_add(r, gr_add(s, t))
    assert gr_mul(gr_mul(r, s), t) == gr_mul(r, gr_mul(s, t))
    assert gr_mul(r, gr_add(s, t)) == gr_add(gr_mul(r, s), gr_mul(r, t))
    assert gr_mul(gr_add(r, s), t) == gr_add(gr_mul(r, t), gr_mul(s, t))
    assert gr_mul(R.one(spec), r) == r == gr_mul(r, R.one(spec))


@given(spec_and_elems(2))
@settings(max_examples=150, deadline=None)
def test_involution_properties(data):
    spec, (r, s) = data
    assert gr_involute(gr_involute(r)) == r
    assert gr_involute(gr_mul(r, s)) == gr_mul(gr_involute(s), gr_involute(r))
    assert gr_bar_reduce(gr_involute(r)) == gr_involute(gr_bar_reduce(r))


@given(spec_and_elems(1))
@settings(max_examples=150, deadline=None)
def test_render_parse_round_trip(data):
    spec, (r,) = data
    assert parse_ring(render_ring(r), spec) == r


@given(spec_and_words(3))
@settings(max_examples=150, deadline=None)
def test_word_group_axioms(data):
    spec, (g, h, k) = data
    assert mul(mul(g, h), k) == mul(g, mul(h, k))
    assert mul(g, inv(g)).is_identity
    assert inv(mul(g, h)) == mul(inv(h), inv(g))


@given(spec_and_words(3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=150, deadline=None)
def test_derivation_rule(data, coeff):
    # rows r*(1 - g^-1) are consistent over every supported class
    spec, (w1, w2, seed) = data
    r = R.monomial(seed, coeff)
    rows = {}
    for g in spec.generators:
        gbar = R.monomial(inv(spec.word([(g, 1)])))
        rows[g] = gr_mul(r, gr_add(R.one(spec), R.gr_neg(gbar)))
    a = sphere_class(spec, "a", False, R.zero(spec), R.zero(spec), rows)
    table = PairingTable(spec, 5, (a,), spec.identity())
    lhs = lambda_word(table, a, mul(w1, w2))
    rhs = gr_add(lambda_word(table, a, w1),
                 R.right_mul(lambda_word(table, a, w2), inv(w1)))
    assert lhs == rhs


# -- the word layer and the dax formulas against the code they replaced --------
#
# The references below are the word functions and dax formulas as they were
# before the word layer read ``GroupSpec._index`` directly and the formulas
# summed into one dictionary.  They are copied unchanged, except that the
# per-letter lookups are recomputed from ``spec.factors`` so that the
# references share no table with the code under test.

def _ref_factor_of(spec, name):
    for fi, fac in enumerate(spec.factors):
        if name in fac.gens:
            return fi, fac
    raise UnknownGeneratorError(f"unknown generator {name!r}")


def _ref_gen_index(spec, name):
    return spec.generators.index(name)


def _ref_canon_exponent(e, fac):
    if fac.kind == FINITE_CYCLIC:
        return e % fac.order
    return e


def _ref_signed_exponent(e, fac):
    """Shortest signed representative of a canonical exponent."""
    if fac.kind == FINITE_CYCLIC and e > fac.order - e:
        return e - fac.order
    return e


def ref_normalize(letters, spec):
    per_factor = [[] for _ in spec.factors]
    for name, exp in letters:
        fi, _ = _ref_factor_of(spec, name)
        if exp != 0:
            per_factor[fi].append((name, exp))

    out = []
    for fi, fac in enumerate(spec.factors):
        chunk = per_factor[fi]
        if fac.abelian:
            totals = {g: 0 for g in fac.gens}
            for name, exp in chunk:
                totals[name] += exp
            for name in fac.gens:
                e = _ref_canon_exponent(totals[name], fac)
                if e:
                    out.append((name, e))
        else:
            stack = []
            for name, exp in chunk:
                if stack and stack[-1][0] == name:
                    stack[-1][1] += exp
                    if stack[-1][1] == 0:
                        stack.pop()
                else:
                    stack.append([name, exp])
            out.extend((n, e) for n, e in stack)
    return Word(spec, tuple(out))


def ref_word_length(w):
    total = 0
    for name, exp in w.letters:
        _, fac = _ref_factor_of(w.spec, name)
        total += abs(_ref_signed_exponent(exp, fac))
    return total


def ref_word_key(w):
    letters = []
    for name, exp in w.letters:
        _, fac = _ref_factor_of(w.spec, name)
        se = _ref_signed_exponent(exp, fac)
        letters.append((_ref_gen_index(w.spec, name), abs(se), 0 if se > 0 else 1))
    return (ref_word_length(w), tuple(letters))


def ref_dax_translate(g, a, ctx):
    lam = R.left_mul(g, lambda_word(ctx.table, a, g))  # lambda(g a, g)
    out = R.gr_conj(g, a.base_dax)
    out = R.gr_add(out, R.gr_neg(R.gr_bar_reduce(lam)))
    out = R.gr_add(out, R.gr_bar_reduce(lambda_flip(lam, ctx.d)))
    return out


def ref_dax_u_general(g, a, ctx):
    lam_g = R.left_mul(g, lambda_word(ctx.table, a, g))   # lambda(g a, g)
    lam_u = R.left_mul(g, a.lambda_u)                     # lambda(g a, u)
    lam_gu = R.gr_add(lam_g, R.right_mul(lam_u, inv(g)))  # lambda(g a, g u)
    out = R.gr_conj(g, dax_rebase(a, ctx))
    out = R.gr_add(out, R.gr_bar_reduce(lam_u))
    out = R.gr_add(out, R.gr_neg(R.gr_bar_reduce(lam_gu)))
    out = R.gr_add(out, R.gr_bar_reduce(lambda_flip(lam_g, ctx.d)))
    return out


def ref_dax_u_embedded(g, a, ctx):
    if not a.embedded:
        raise ModeError(f"class {a.name!r} has no embedded representative")
    lam_g = R.left_mul(g, lambda_word(ctx.table, a, g))
    lam_u = R.left_mul(g, a.lambda_u)
    out = R.gr_bar_reduce(lam_u)
    out = R.gr_add(out, R.gr_neg(R.gr_bar_reduce(lam_g)))
    out = R.gr_add(out, R.gr_bar_reduce(lambda_flip(lam_g, ctx.d)))
    return out


WORD_SPEC_TEXTS = ("Z<t>", "F<x,y>", "Z/3<u>", "Z<t> x Z/2<u>", "F<x,y> x Z/3<u>",
                   "F<x,y> x F<z,v>", "Z/2<u> x F<x>")
# in a cyclic factor of order m >= 4, u^(m-1) is one letter long but u^(m-2)
# is not, so a ball step that ignores the shortest signed exponent shows; at
# an even order m the element u^(m/2) is its own tie, stepped down from the
# positive side (test_lambda_on_ball)
BALL_SPEC_TEXTS = WORD_SPEC_TEXTS + ("Z/5<u> x F<x>", "Z/4<u> x F<x>", "Z<t> x Z/6<u>")
WORD_SPECS = {text: parse_group_spec(text) for text in BALL_SPEC_TEXTS}


def raw_letters(spec, max_size=8, bound=7):
    """Unreduced letter sequences: zero exponents, repeats and wrap-around."""
    return st.lists(st.tuples(st.sampled_from(spec.generators),
                              st.integers(min_value=-bound, max_value=bound)),
                    max_size=max_size)


@st.composite
def word_spec_and_letters(draw, n):
    text = draw(st.sampled_from(WORD_SPEC_TEXTS))
    spec = WORD_SPECS[text]
    return text, spec, [draw(raw_letters(spec)) for _ in range(n)]


@given(word_spec_and_letters(3))
@settings(max_examples=300, deadline=None)
def test_word_layer_matches_reference(data):
    text, spec, seqs = data
    words = [normalize(letters, spec) for letters in seqs]
    for letters, w in zip(seqs, words):
        ref = ref_normalize(letters, spec)
        assert w.letters == ref.letters and w == ref
        assert word_key(w) == ref_word_key(w)
        assert word_length(w) == ref_word_length(w)
    # a copy over an equal, separately parsed spec is the same element
    twin = parse_group_spec(text)
    copies = [Word(twin, w.letters) for w in words]
    assert copies == words and [hash(w) for w in copies] == [hash(w) for w in words]
    candidates = words + copies
    for x in candidates:
        for y in candidates:
            assert (x == y) == (hash(x) == hash(y) and x.letters == y.letters)
    # products and inverses of normal forms against renormalizing the letters
    for x in words:
        for y in words:
            ref = ref_normalize(x.letters + y.letters, spec)
            prod = mul(x, y)
            assert prod.letters == ref.letters and hash(prod) == hash(ref)
        ref = ref_normalize([(n, -e) for n, e in reversed(x.letters)], spec)
        x_inv = inv(x)
        assert x_inv.letters == ref.letters and hash(x_inv) == hash(ref)
    a, b, c = words
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


def draw_table(draw, spec, max_d=6):
    """A table of one or two classes with principal rows r*(1 - g^-1), in a
    dimension from 3 to ``max_d``, plus a consistent non-principal part in
    two cases; in both, lambda(a, g) grows with g, as for the sphere of
    ``S^1 x S^(d-1)``.  Over ``F<...>`` or ``Z<t>`` no relator constrains the
    rows, so each row gets an arbitrary part.  Over one free factor times
    finite cyclic ones, each free generator's row gets c*N, where N is the
    product of the norm elements 1 + u + ... + u^(m-1) of the cyclic
    factors: N*(1 - u^-1) = 0 and N is central, so every relator still
    holds, while the cyclic rows keep only their principal part."""
    kinds = [fac.kind for fac in spec.factors]
    norm, loose = R.one(spec), ()
    if len(kinds) == 1 and (kinds[0] == FREE or
                            kinds[0] == FREE_ABELIAN and len(spec.generators) == 1):
        loose = spec.generators
    elif kinds.count(FREE) == 1 and FINITE_CYCLIC in kinds and FREE_ABELIAN not in kinds:
        for fac in spec.factors:
            if fac.kind == FREE:
                loose = fac.gens
            else:
                (u,) = fac.gens
                norm = R.gr_mul(norm, R.from_terms(
                    spec, [(spec.word([(u, k)]), 1) for k in range(fac.order)]))

    def elem():
        terms = draw(st.lists(st.tuples(raw_letters(spec, 3, 3),
                                        st.integers(min_value=-3, max_value=3)),
                              max_size=3))
        return R.from_terms(spec, [(normalize(w, spec), c) for w, c in terms])

    classes = []
    for i in range(draw(st.integers(min_value=1, max_value=2))):
        r = elem()
        rows = {g: R.gr_add(R.gr_mul(r, R.gr_add(R.one(spec), R.gr_neg(
                    R.monomial(inv(spec.word([(g, 1)])))))),
                            R.gr_mul(elem(), norm) if g in loose else R.zero(spec))
                for g in spec.generators}
        embedded = draw(st.booleans())
        base = R.zero(spec) if embedded else R.gr_bar_reduce(elem())
        classes.append(sphere_class(spec, f"a{i}", embedded, base, elem(), rows))
    d = draw(st.integers(min_value=3, max_value=max_d))
    return PairingTable(spec, d, tuple(classes), spec.identity())


@st.composite
def consistent_tables(draw, texts=WORD_SPEC_TEXTS):
    """A table of ``draw_table`` over one of the word-layer specs, and a word."""
    spec = WORD_SPECS[draw(st.sampled_from(texts))]
    table = draw_table(draw, spec)
    g = normalize(draw(raw_letters(spec, 4, 3)), spec)
    return DaxContext(table, spec.identity(), "arcs"), g


@given(consistent_tables())
@settings(max_examples=200, deadline=None)
def test_dax_formulas_match_reference(data):
    ctx, g = data
    for a in ctx.table.classes:
        assert dax_u_general(g, a, ctx) == ref_dax_u_general(g, a, ctx)
        assert dax_translate(g, a, ctx) == ref_dax_translate(g, a, ctx)
        if a.embedded:
            assert dax_u_embedded(g, a, ctx) == ref_dax_u_embedded(g, a, ctx)


@pytest.mark.parametrize("text", BALL_SPEC_TEXTS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_lambda_on_ball(text, data):
    # the table built along the ball equals lambda_word on every element, and
    # the dax formulas fed from it equal the ones that derive lambda per word
    ctx, _ = data.draw(consistent_tables((text,)))
    table, spec = ctx.table, ctx.spec
    elements = ball(spec, 6 if text == "Z<t>" else 3)
    for a in table.classes:
        values = lambda_on_ball(table, a, elements)
        assert list(values) == elements
        for g in elements:
            lam = values[g]
            assert 0 not in lam.values()
            assert R.from_terms(spec, lam) == lambda_word(table, a, g)
            general = dax_u_general(g, a, ctx, lam.items())
            assert general == dax_u_general(g, a, ctx)
            if a.embedded:
                assert dax_u_embedded(g, a, ctx, lam.items()) == general


@st.composite
def factor_products(draw):
    """Direct products of one to three free, free abelian and finite cyclic
    factors; cyclic orders run from 1 to 6, so both parities and the tie of
    an even order at m/2 occur."""
    factors = []
    names = iter("abcdefgh")
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from((FREE, FREE_ABELIAN, FINITE_CYCLIC)))
        if kind == FINITE_CYCLIC:
            factors.append(Factor(kind, (next(names),),
                                  draw(st.integers(min_value=1, max_value=6))))
        else:
            rank = draw(st.integers(min_value=1, max_value=2))
            factors.append(Factor(kind, tuple(next(names) for _ in range(rank))))
    return GroupSpec(tuple(factors))


@given(factor_products(), st.integers(min_value=0, max_value=5))
@settings(max_examples=150, deadline=None)
def test_ball_matches_breadth_first_reference(spec, radius):
    # same elements, letters and order as the breadth-first walk; a ball
    # past the limit raises the same error in both
    limit = 2000
    try:
        want = [w.letters for w in reference_ball(spec, radius, limit)]
    except BallOverflowError as exc:
        with pytest.raises(BallOverflowError) as got:
            ball(spec, radius, limit)
        assert str(got.value) == str(exc)
        return
    assert [w.letters for w in ball(spec, radius, limit)] == want
    # the size is counted exactly: a limit one below it raises
    if len(want) > 1:
        with pytest.raises(BallOverflowError):
            ball(spec, radius, len(want) - 1)


# the walk's edge cases beside the random products: a rank-1 free factor,
# which is not flagged central, a factor Z/1, the tie u^2 of Z/4 on either
# side of a free factor, and central steps before non-central ones
WALK_SPECS = [parse_group_spec(text) for text in (
    "F<x>", "Z<t>", "Z/4<u> x F<x>", "F<x,y> x Z/4<u>", "Z<t> x F<x,y>",
    "Z/2<u> x Z<t> x F<x,y>", "Z/1<u>", "Z/1<u> x F<x>")]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_twists_on_ball_match_direct_twist(data):
    # the twist carried along the ball equals -g*lambda(a, g) + eps*bar(...)
    # built from lambda_word, unreduced, on every element of the ball
    spec = data.draw(st.one_of(st.sampled_from(WALK_SPECS), factor_products()))
    table = draw_table(data.draw, spec, max_d=4)
    radius = data.draw(st.integers(min_value=0, max_value=6))
    while True:
        try:
            elements = ball(spec, radius, limit=200)
            break
        except BallOverflowError:
            radius -= 1
    walked = list(twists_on_ball(table, elements))
    assert [g for g, _ in walked] == elements
    for g, twists in walked:
        assert len(twists) == len(table.classes)
        for a, twist in zip(table.classes, twists):
            lam_g = R.left_mul(g, lambda_word(table, a, g))
            direct = gr_add(R.gr_neg(lam_g), lambda_flip(lam_g, table.dimension))
            assert 0 not in twist.values()
            words = {Word(spec, w): c for w, c in twist.items()}
            assert R.from_terms(spec, words) == direct


# -- prefix torsions of one shell-ordered reduction -----------------------------

def sympy_torsion(cols, n):
    """Invariant factors > 1 of the n-row matrix with these sparse columns,
    from sympy's Smith form."""
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    if not cols:
        return []
    s = smith_normal_form(Matrix([[col.get(i, 0) for col in cols]
                                  for i in range(n)]), domain=ZZ)
    return sorted(abs(s[i, i]) for i in range(min(s.shape)) if abs(s[i, i]) > 1)


ENTRY = st.one_of(st.just(0), st.integers(min_value=-6, max_value=6))


@st.composite
def shelled_columns(draw):
    """Sparse columns over n rows, each row with a length, stably sorted by
    shell: the largest length in a column's support, 0 for an empty one."""
    n = draw(st.integers(min_value=1, max_value=7))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=4),
                            min_size=n, max_size=n))
    cols = [{i: v for i, v in enumerate(entries) if v}
            for entries in draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                                         max_size=9))]
    shells = [max((lengths[i] for i in col), default=0) for col in cols]
    order = sorted(range(len(cols)), key=shells.__getitem__)
    return n, [cols[j] for j in order], sorted(shells)


@given(shelled_columns())
@settings(max_examples=300, deadline=None)
def test_prefix_torsion_matches_fresh_elimination(data):
    n, cols, shells = data
    prefixes = [bisect_right(shells, k) for k in range(5)]
    elim = sparse_rank_and_torsion(cols, n, prefixes=prefixes)
    whole = reference_elimination(cols, n, prefixes)
    assert (elim.rank, elim.torsion) == (whole.rank, whole.torsion)
    assert elim.torsion == sympy_torsion(cols, n)
    assert elim.prefix_torsion == whole.prefix_torsion
    for p, torsion in zip(prefixes, elim.prefix_torsion):
        assert torsion == reference_elimination(cols[:p], n).torsion
        assert torsion == sympy_torsion(cols[:p], n)
    assert elim.basis == hermite_row_basis(cols)


WINDOW_SPECS = [parse_group_spec(t) for t in ("Z<t>", "F<x,y>", "Z<t> x Z/2<u>")]


@st.composite
def window_relation_sets(draw):
    """Relation sets on a window with torsion, duplicates and negated pairs:
    each relation has up to three terms no longer than a drawn shell."""
    spec = draw(st.sampled_from(WINDOW_SPECS))
    window = draw(st.integers(min_value=1, max_value=3 if spec.generators == ("t",)
                              else 2))
    gens = window_generators(spec, window)
    rels = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        if rels and draw(st.integers(min_value=0, max_value=4)) == 0:
            rels.append(R.gr_scale(draw(st.sampled_from((1, -1))),
                                   draw(st.sampled_from(rels))))
            continue
        shell = draw(st.integers(min_value=1, max_value=window))
        short = [g for g in gens if word_length(g) <= shell]
        terms = draw(st.lists(st.tuples(st.sampled_from(short),
                                        st.integers(min_value=-6, max_value=6)),
                              max_size=3))
        rels.append(R.from_terms(spec, terms))
    return RelationSet(spec, window, gens, tuple(rels), (PROV_DAX_IMAGE,) * len(rels))


@given(window_relation_sets())
@settings(max_examples=200, deadline=None)
def test_window_torsion_matches_restriction(rs):
    solver = rs.solver
    for w in (rs.window - 2, rs.window - 1, rs.window):
        small = restrict_relationset(rs, w)
        index = {g: i for i, g in enumerate(small.generators)}
        cols = [{index[g]: c for g, c in rel.items()} for rel in small.relations]
        assert list(solver.window_torsion[w]) == sympy_torsion(cols, len(index))
    assert quotient_structure(rs) == reference_structure(rs)


# -- one sparse pivot reduction: Hermite bases, residues and coordinates -----------

Z_WINDOW = window_generators(SPECS["Z<t>"], 4)


@st.composite
def matrices_and_vectors(draw):
    """An integer matrix with m columns and entries -6..6 (zero rows and no
    rows at all included), and vectors to reduce by it."""
    m = draw(st.integers(min_value=1, max_value=7))
    row = st.lists(ENTRY, min_size=m, max_size=m)
    return m, draw(st.lists(row, max_size=8)), draw(st.lists(row, min_size=1, max_size=4))


@given(matrices_and_vectors())
@example((3, [], [[1, -2, 3]]))
@example((2, [[0, 0], [2, 0], [0, 0], [4, 6]], [[5, 5], [-1, 7]]))
@settings(max_examples=300, deadline=None)
def test_sparse_pivot_reduction_matches_dense_reference(data):
    m, rows, vectors = data
    basis = hermite_row_basis([sparse(r) for r in rows])
    reference = dense_hermite_row_basis(rows)
    assert [dense(row, m) for row in basis.values()] == reference
    assert list(basis) == sorted(basis)
    assert all(min(row) == j and row[j] > 0 for j, row in basis.items())
    # the rows as relations over Z<t>: residues and coordinates of the solver
    gens = Z_WINDOW[:m]
    rels = tuple(R.from_terms(Z_WINDOW[0].spec, zip(gens, r)) for r in rows)
    solver = QuotientSolver(RelationSet(Z_WINDOW[0].spec, 4, gens, rels,
                                        (PROV_DAX_IMAGE,) * len(rels)))
    for v in vectors:
        residue = dense_reduce_mod_rows(v, reference)
        assert dense(reduce_mod_rows(sparse(v), basis), m) == residue
        elem = solver.elem(enumerate(v))
        assert solver.canonical_residue(elem) == solver.elem(enumerate(residue))
        assert solver.coords(elem) == dense_coords(rows, v)


@st.composite
def relation_sets_and_variants(draw):
    """A relation set from ``window_relation_sets``, the same relations
    shuffled with some negated and some repeated, and elements of the
    window as coefficient lists over its generators."""
    rs = draw(window_relation_sets())
    rels = [R.gr_scale(draw(st.sampled_from((1, -1))), rel) for rel in rs.relations]
    if rels:
        rels += draw(st.lists(st.sampled_from(rels), max_size=3))
    rels = draw(st.permutations(rels))
    variant = RelationSet(rs.spec, rs.window, rs.generators, tuple(rels),
                          (PROV_DAX_IMAGE,) * len(rels))
    n = len(rs.generators)
    vectors = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                            min_size=2, max_size=4))
    return rs, variant, vectors


@given(relation_sets_and_variants())
@settings(max_examples=300, deadline=None)
def test_answers_depend_on_the_lattice_alone(data):
    """Rank, torsion, residues and coordinates are functions of the span of
    the relations, not of their order, signs or repeats; coordinates vanish
    on relations, are additive (torsion mod d) and separate exactly the
    classes that residues separate."""
    rs, variant, vectors = data
    solver, other = QuotientSolver(rs), QuotientSolver(variant)
    assert (solver.free_rank, solver.torsion, solver.window_torsion) == \
        (other.free_rank, other.torsion, other.window_torsion)
    torsion = solver.torsion
    zero = ((0,) * solver.free_rank, (0,) * len(torsion))
    for rel in rs.relations:
        assert solver.coords(rel) == zero
    elems = [solver.elem(enumerate(v)) for v in vectors]
    coords = [solver.coords(e) for e in elems]
    for elem, c in zip(elems, coords):
        assert other.canonical_residue(elem) == solver.canonical_residue(elem)
        assert other.coords(elem) == c
    for (a, ca), (b, cb) in zip(zip(elems, coords), zip(elems[1:], coords[1:])):
        same_class = solver.canonical_residue(a) == solver.canonical_residue(b)
        assert (ca == cb) == same_class
        free, tors = solver.coords(R.gr_add(a, b))
        assert free == tuple(x + y for x, y in zip(ca[0], cb[0]))
        assert tors == tuple((x + y) % d for x, y, d in zip(ca[1], cb[1], torsion))


# -- relation assembly in generator-index space ------------------------------------

@st.composite
def relation_builds(draw, texts=GROUP_TEXTS):
    """A relation build over a random context from conftest, over one of the
    groups ``texts``: arcs, circles (whiskers included) or a 3-manifold
    (embedded classes in dimension 3, arcs or circles with a boundary sphere
    and whiskers)."""
    spec = parse_group_spec(draw(st.sampled_from(texts)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    window = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(("arcs", "circles", "3mfd")))
    if kind == "arcs":
        ctx = random_arcs_context(rng, spec)
        return lambda: build_rel_arcs(ctx, window)
    if kind == "circles":
        ctx = random_circles_context(rng, spec)
        whisker = random_whisker(rng, ctx)
        return lambda: build_rel_circles(ctx, whisker, window)
    circles = draw(st.booleans())
    s = random_word(rng, spec) if circles else spec.identity()
    classes = [random_class(rng, spec, name=f"b{i}", embedded=True)
               for i in range(rng.randint(0, 2))]
    if circles and rng.random() < 0.5:
        classes.append(phi_class(spec, s))
    table = table_for(spec, classes, d=3)
    ctx = circles_context(table, s) if circles else arcs_context(table)
    whisker = random_whisker(rng, ctx) if circles else {}
    return lambda: build_rel_3mfd(ctx, window, circles, whisker)


@given(relation_builds())
@settings(max_examples=150, deadline=None)
def test_assembly_matches_reference(build):
    assert_assembly_matches_reference(build)


def test_target_report_renders_as_the_reference():
    """Over ``F<x,y> x Z/3<u>`` and ``Z<t> x Z/2<u>``, the report's relations
    and dropped values are ``str`` of the reference RingElems, and some
    dropped values have two or more terms outside the window, whose order
    is the one that needs ``word_key``."""
    from daxkernel import cli
    from daxkernel.errors import DaxKernelError
    from daxkernel.quotient import order_dropped

    outside = [0]

    @given(relation_builds(("F<x,y> x Z/3<u>", "Z<t> x Z/2<u>")))
    @settings(max_examples=100, deadline=None)
    def check(build):
        try:
            rs = build()
        except DaxKernelError:
            return
        if isinstance(rs, tuple):
            rs = rs[0]
        assert_report_matches_reference(cli._presentation(rs), rs)
        for _, terms in rs.dropped_terms:
            far = len(order_dropped(rs.spec, rs.letter_index, terms)[1])
            outside[0] = max(outside[0], far)

    check()
    assert outside[0] >= 2
