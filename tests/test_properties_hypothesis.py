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
from daxkernel.errors import BallOverflowError, DaxKernelError, ModeError, PairingDataError
from daxkernel.groups import (
    FINITE_CYCLIC,
    FREE,
    FREE_ABELIAN,
    Factor,
    GroupSpec,
    LetterTable,
    Word,
    _letter_key,
    _letters_length,
    ball,
    inv,
    inv_letters,
    key_letters,
    mul,
    mul_letters,
    normalize,
    parse_group_spec,
    parse_word,
    render_group_spec,
    render_letters,
    render_word,
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
    _unbalanced_coset,
    add_principal_twist,
    lambda_flip,
    lambda_letters,
    lambda_terms,
    lambda_word,
    sphere_class,
    twists_on_ball,
)
from daxkernel.quotient import (
    PROV_DAX_IMAGE,
    OrbitAction,
    QuotientSolver,
    RelationSet,
    _is_power_of,
    build_rel_3mfd,
    build_rel_arcs,
    build_rel_circles,
    ordered_dropped,
    quotient_structure,
    restrict_relationset,
    window_generators,
)
from daxkernel.scene import make_scene
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
    ball_words,
    dense_coords,
    dense_hermite_row_basis,
    dense_reduce_mod_rows,
    lambda_on_ball,
    phi_class,
    principal_rows,
    random_arcs_context,
    random_circles_context,
    random_class,
    random_whisker,
    random_word,
    reference_ball,
    reference_boundary_family,
    reference_dropped,
    reference_elimination,
    reference_is_power_of,
    reference_lambda_letters,
    reference_orbit,
    reference_structure,
    ref_factor_of,
    ref_normalize,
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
# references share no table with the code under test.  ``ref_normalize``,
# which other test modules share, is in conftest.py.

def _ref_gen_index(spec, name):
    return spec.generators.index(name)


def _ref_signed_exponent(e, fac):
    """Shortest signed representative of a canonical exponent."""
    if fac.kind == FINITE_CYCLIC and e > fac.order - e:
        return e - fac.order
    return e


def ref_word_length(w):
    total = 0
    for name, exp in w.letters:
        _, fac = ref_factor_of(w.spec, name)
        total += abs(_ref_signed_exponent(exp, fac))
    return total


def ref_word_key(w):
    letters = []
    for name, exp in w.letters:
        _, fac = ref_factor_of(w.spec, name)
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
                   "F<x,y> x F<z,v>", "Z/2<u> x F<x>", "F<x,y> x Z<a,b> x Z/4<c>",
                   "Z<a,b>", "Z/1<u> x F<x,y>", "Z<c,a,b> x F<x>")
# in Z<c,a,b> the declaration order of the generators is not their names'
# order, so a free-abelian join that merges by name shows
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
        # the two rules that word_key and word_length are made of
        assert _letters_length(spec._index, w.letters) == ref_word_length(w)
        assert (tuple(_letter_key(spec._index, name, exp) for name, exp in w.letters)
                == ref_word_key(w)[1])
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


# one free factor binds its own kernels, every other spec mul_letters and
# inv_letters; the specs built directly check that binding off the parser
KERNEL_SPECS = dict(WORD_SPECS, **{
    "F<x>": parse_group_spec("F<x>"),
    "GroupSpec F<p,q,r>": GroupSpec((Factor(FREE, ("p", "q", "r")),)),
    "GroupSpec Z/5<u> x F<x,y>": GroupSpec((Factor(FINITE_CYCLIC, ("u",), 5),
                                            Factor(FREE, ("x", "y")))),
})


# one free factor, two, and a free factor beside a cyclic one
SHARED_NEGATION_SPECS = ("F<x,y>", "F<x,y> x F<z,v>", "F<x,y> x Z/3<u>")


@given(st.sampled_from(sorted(KERNEL_SPECS)), st.data())
@settings(max_examples=300, deadline=None)
def test_spec_kernels_match_the_general_product(text, data):
    spec = KERNEL_SPECS[text]
    a, b = (ref_normalize(data.draw(raw_letters(spec)), spec).letters for _ in range(2))
    assert spec._mul(a, b) == mul_letters(spec, a, b) == ref_normalize(a + b, spec).letters
    for w in (a, b, spec._mul(a, b)):
        want = ref_normalize([(n, -e) for n, e in reversed(w)], spec).letters
        assert spec._inv(w) == inv_letters(spec, w) == want
        if text in SHARED_NEGATION_SPECS:
            # an equal word of freshly built letters: both inverses hold the
            # negation table's letter objects wherever a letter is free
            twin = tuple([(n, e) for n, e in w])
            free = {n for fac in spec.factors if fac.kind == FREE for n in fac.gens}
            for inverse in (spec._inv, lambda x: inv_letters(spec, x)):
                pairs = [(x, y) for x, y in zip(inverse(w), inverse(twin)) if x[0] in free]
                assert all(x is y for x, y in pairs), (w, pairs)


@st.composite
def two_words(draw):
    """A spec's text and two raw letter sequences over it."""
    text = draw(st.sampled_from(BALL_SPEC_TEXTS))
    spec = WORD_SPECS[text]
    return text, draw(raw_letters(spec, 6, 5)), draw(raw_letters(spec, 6, 5))


# equal lengths, first told apart at the first letter or later, as in every
# two-outside dropped value of the seed-1 product_DkY F<x,y> W=6 op
@example(("F<x,y>", [("x", -3), ("y", -1), ("x", 4)], [("x", -4), ("y", 1), ("x", 3)]))
@example(("F<x,y>", [("x", 1), ("y", -2), ("x", -1), ("y", 3), ("x", -1)],
          [("x", 1), ("y", -3), ("x", 1), ("y", 2), ("x", -1)]))
@example(("F<x,y>", [("x", 1), ("y", 1), ("x", -1), ("y", -1), ("x", 2), ("y", -1)],
          [("x", 1), ("y", 1), ("x", -2), ("y", 1), ("x", 1), ("y", -1)]))
@example(("F<x,y>", [("x", 1), ("y", 2)], [("x", 1), ("y", -2)]))
@example(("F<x,y>", [("y", 2), ("x", 1)], [("x", -1), ("y", 2)]))
@example(("F<x,y>", [("x", 2), ("y", 1)], [("x", 1), ("y", 1), ("x", 1)]))
# Z/m exponents on both sides of m/2: u^4 is u^-1 in Z/5, one letter long
@example(("Z/5<u> x F<x>", [("u", 2)], [("u", 3)]))
@example(("Z/5<u> x F<x>", [("u", 2)], [("u", 4)]))
@example(("Z/5<u> x F<x>", [("u", 4), ("x", 1)], [("u", 1), ("x", -1)]))
@example(("Z/4<u> x F<x>", [("u", 2)], [("u", 1), ("x", 1)]))
@example(("Z/4<u> x F<x>", [("u", 3)], [("x", 1)]))
@example(("Z<t> x Z/6<u>", [("t", 1), ("u", 3)], [("t", -1), ("u", 4)]))
@example(("Z<t> x Z/2<u>", [("t", 1), ("u", 1)], [("t", -1), ("u", 1)]))
@example(("Z<t> x Z/2<u>", [("t", 2)], [("t", 1), ("u", 1)]))
@example(("F<x,y> x Z/3<u>", [("x", 1), ("u", 2)], [("x", 1), ("u", 1)]))
@example(("F<x,y> x Z/3<u>", [("y", 1), ("u", 1)], [("x", -1), ("u", 2)]))
@given(two_words())
@settings(max_examples=300, deadline=None)
def test_ordered_dropped_puts_two_outside_terms_in_key_order(case):
    text, first, second = case
    spec = WORD_SPECS[text]
    a, b = normalize(first, spec).letters, normalize(second, spec).letters
    if a == b:
        return
    want = sorted([a, b], key=lambda w: key_letters(spec, w))
    # an empty window: both terms are outside, each given as its letters
    # and its parts, its letters' texts
    rs = RelationSet(spec, 0, (), (), (), ((PROV_DAX_IMAGE, {a: 1, b: -2}),
                                           (PROV_DAX_IMAGE, {b: -2, a: 1})))
    for _, got in ordered_dropped(rs, LetterTable(spec), (),
                                  lambda letters, parts: (letters, parts)):
        assert [w for (w, _), _ in got] == want
        assert [parts for (_, parts), _ in got] == [[render_letters((x,)) for x in w]
                                                    for w in want]


def draw_elem(draw, spec):
    """A group ring element of up to three terms over short words."""
    terms = draw(st.lists(st.tuples(raw_letters(spec, 3, 3),
                                    st.integers(min_value=-3, max_value=3)),
                          max_size=3))
    return R.from_terms(spec, [(normalize(w, spec), c) for w, c in terms])


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

    classes = []
    for i in range(draw(st.integers(min_value=1, max_value=2))):
        r = draw_elem(draw, spec)
        rows = {g: R.gr_add(R.gr_mul(r, R.gr_add(R.one(spec), R.gr_neg(
                    R.monomial(inv(spec.word([(g, 1)])))))),
                            R.gr_mul(draw_elem(draw, spec), norm) if g in loose else R.zero(spec))
                for g in spec.generators}
        embedded = draw(st.booleans())
        base = R.zero(spec) if embedded else R.gr_bar_reduce(draw_elem(draw, spec))
        classes.append(sphere_class(spec, f"a{i}", embedded, base, draw_elem(draw, spec), rows))
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
    # the table built along the ball with the reference power series equals
    # lambda_word on every element
    ctx, _ = data.draw(consistent_tables((text,)))
    table, spec = ctx.table, ctx.spec
    elements = ball_words(spec, 6 if text == "Z<t>" else 3)
    for a in table.classes:
        values = lambda_on_ball(table, a, elements)
        assert list(values) == elements
        for g in elements:
            lam = values[g]
            assert 0 not in lam.values()
            assert R.from_terms(spec, lam) == lambda_word(table, a, g)


# Z/1<u> keeps u as a letter of raw sequences although it is the identity
LAMBDA_SPECS = {text: parse_group_spec(text)
                for text in BALL_SPEC_TEXTS + ("Z/1<u>", "Z/1<u> x F<x>")}


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_lambda_letters_matches_power_series(data):
    # one Fox step per unit letter equals the earlier power series per
    # (generator, exponent) pair on raw letter sequences: zero exponents,
    # repeats and cyclic wrap-around.  The rows need not satisfy the
    # relators: both evaluate the free derivative of the same letters.
    spec = LAMBDA_SPECS[data.draw(st.sampled_from(sorted(LAMBDA_SPECS)))]
    a = sphere_class(spec, "a", False, R.zero(spec), R.zero(spec),
                     {g: draw_elem(data.draw, spec) for g in spec.generators})
    letters = data.draw(raw_letters(spec))
    assert lambda_letters(spec, a, letters) == reference_lambda_letters(spec, a, letters)
    unknown = letters + [("nope", data.draw(st.integers(min_value=-2, max_value=2)))]
    with pytest.raises(PairingDataError) as got:
        lambda_letters(spec, a, unknown)
    with pytest.raises(PairingDataError) as want:
        reference_lambda_letters(spec, a, unknown)
    assert str(got.value) == str(want.value)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_cyclic_relator_coset_rule_matches_the_fox_walk(data):
    """A row of the cyclic generator u of order m <= 12 passes the coset
    rule exactly when the Fox walk of the relator u^m gives zero, over
    ``Z/m<u>`` and ``F<x> x Z/m<u>``.  A row is drawn as it comes, or as a
    sum of pairs c*w - c*w*u^k, which balances every coset, with or
    without one more term."""
    m = data.draw(st.integers(min_value=1, max_value=12))
    spec = parse_group_spec(data.draw(st.sampled_from((f"Z/{m}<u>", f"F<x> x Z/{m}<u>"))))
    terms = list(draw_elem(data.draw, spec).terms)
    shape = data.draw(st.sampled_from(("drawn", "balanced", "one more")))
    if shape != "drawn":
        terms += [(mul(w, spec.word([("u", data.draw(st.integers(0, m - 1)))])), -c)
                  for w, c in terms]
    if shape == "one more":
        terms += draw_elem(data.draw, spec).terms[:1]
    row = R.from_terms(spec, terms)
    a = sphere_class(spec, "a", False, R.zero(spec), R.zero(spec), {"u": row})
    assert (_unbalanced_coset(row, "u") is None) == (not lambda_terms(spec, a, [("u", m)]))


# the specs with a cyclic factor, where an omitted lambda_u is derived over
# u's shortest letters rather than its normal form
CYCLIC_SPEC_TEXTS = [text for text in BALL_SPEC_TEXTS if "Z/" in text]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_derived_arc_row_matches_the_unit_step_walk(data):
    """A scene derives an omitted lambda_u over u's letters with each cyclic
    exponent e taken as e - m when that is shorter; on a consistent table
    that equals the unit-step walk over u's normal form."""
    text = data.draw(st.sampled_from(CYCLIC_SPEC_TEXTS))
    spec = WORD_SPECS[text]
    table = draw_table(data.draw, spec)
    u = normalize(data.draw(raw_letters(spec)), spec)
    fields = [{"name": a.name, "embedded": a.embedded, "base_dax": render_ring(a.base_dax),
               "lambda_gen": {g: render_ring(row) for g, row in a.lambda_gen}}
              for a in table.classes]
    scene = make_scene(3, "arcs", text, u=render_word(u), sphere_generators=fields)
    for a, derived in zip(table.classes, scene.sphere_generators):
        assert derived.lambda_u == lambda_letters(spec, a, u.letters)


# the literal alphabet, and tokens that make a drawn text parse more often
LITERAL_ALPHABET = "ZF1x/<>,tuvy _^-+*23 0\t"
LITERAL_TOKENS = list(LITERAL_ALPHABET) + [
    "Z<t>", "F<t,u>", "Z/3<v>", " x ", "t^-2", "u^3", "2*", "\u0663", "1_0"]
LITERAL_SPEC = parse_group_spec("F<t,u> x Z<x> x Z/3<v>")
LITERAL_PARSERS = {
    "group": (parse_group_spec, render_group_spec),
    "word": (lambda text: parse_word(text, LITERAL_SPEC), render_word),
    "ring": (lambda text: parse_ring(text, LITERAL_SPEC), render_ring),
}


@given(st.sampled_from(sorted(LITERAL_PARSERS)),
       st.one_of(st.text(alphabet=LITERAL_ALPHABET, max_size=16),
                 st.lists(st.sampled_from(LITERAL_TOKENS), max_size=8).map("".join)))
@settings(max_examples=500, deadline=None)
def test_literal_parsers_return_a_value_or_raise_a_typed_error(kind, text):
    """Each literal parser returns a value, which parses from its rendering
    to itself, or raises a ``DaxKernelError``."""
    parse, render = LITERAL_PARSERS[kind]
    try:
        value = parse(text)
    except DaxKernelError:
        return
    assert parse(render(value)) == value


@st.composite
def factor_products(draw):
    """Direct products of one to three free, free abelian and finite cyclic
    factors; cyclic orders run from 1 to 6, so both parities and the tie of
    an even order at m/2 occur.  Free ranks run to 2 and free abelian ranks
    to 3; the names come in a shuffled order, so that declaration order and
    name order differ."""
    factors = []
    names = iter(draw(st.permutations("abcdefghi")))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from((FREE, FREE_ABELIAN, FINITE_CYCLIC)))
        if kind == FINITE_CYCLIC:
            factors.append(Factor(kind, (next(names),),
                                  draw(st.integers(min_value=1, max_value=6))))
        else:
            rank = draw(st.integers(min_value=1, max_value=3 if kind == FREE_ABELIAN else 2))
            factors.append(Factor(kind, tuple(next(names) for _ in range(rank))))
    return GroupSpec(tuple(factors))


@given(factor_products(), st.integers(min_value=0, max_value=5))
@example(parse_group_spec("F<x>"), 9)
@example(parse_group_spec("F<x,y>"), 6)  # the benchmark's 1,457 elements
@example(parse_group_spec("F<x,y,z>"), 4)
@example(parse_group_spec("F<x> x F<y,z>"), 3)
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
    assert ball(spec, radius, limit) == want
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
    if data.draw(st.sampled_from((False, False, False, True))):
        # every stored row zero, as in a product with a disk factor: every
        # twist is zero
        table = PairingTable(spec, table.dimension, tuple(
            sphere_class(spec, a.name, a.embedded, a.base_dax, a.lambda_u, {})
            for a in table.classes), table.u_class)
    radius = data.draw(st.integers(min_value=0, max_value=6))
    while True:
        try:
            elements = ball(spec, radius, limit=200)
            break
        except BallOverflowError:
            radius -= 1
    walked = []
    for g, twists in twists_on_ball(table, elements, table.classes):
        walked.append((g, [dict(t) for t in twists]))
        for twist in twists:  # the dicts are the caller's to change
            twist[()] = 1
    assert [g for g, _ in walked] == elements
    for letters, twists in walked:
        g = Word(spec, letters)
        assert len(twists) == len(table.classes)
        for a, twist in zip(table.classes, twists):
            lam_g = R.left_mul(g, lambda_word(table, a, g))
            direct = gr_add(R.gr_neg(lam_g), lambda_flip(lam_g, table.dimension))
            assert 0 not in twist.values()
            words = {Word(spec, w): c for w, c in twist.items()}
            assert R.from_terms(spec, words) == direct


# a group with no generator of infinite order, where principal_parts keeps
# the walk but the closed form still holds
PRINCIPAL_SPECS = dict(WORD_SPECS, **{"Z/2<u> x Z/3<w>": parse_group_spec("Z/2<u> x Z/3<w>")})


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_principal_twist_matches_the_walk(data):
    """A class p with principal rows r*(1 - g^-1), for a drawn r (zero
    among them), sits among the classes of ``draw_table``, in a dimension
    of either parity.  On every element of a ball the closed form
    ``add_principal_twist`` of r equals the twist the walk builds
    (``twists_on_ball``, through ``add_twist``), for p and for every class
    that ``principal_parts`` finds principal; a class it finds principal has
    exactly those rows.  It finds p's r when the rows vanish (r = 0), and
    otherwise exactly when some generator has infinite order and r has no
    more terms than the rows."""
    text = data.draw(st.sampled_from(sorted(PRINCIPAL_SPECS)))
    spec = PRINCIPAL_SPECS[text]
    r = draw_elem(data.draw, spec)
    p = sphere_class(spec, "p", True, R.zero(spec), R.zero(spec), principal_rows(spec, r))
    others = list(draw_table(data.draw, spec).classes)
    at = data.draw(st.integers(min_value=0, max_value=len(others)))
    classes = others[:at] + [p] + others[at:]
    d = data.draw(st.integers(min_value=3, max_value=6))
    table = PairingTable(spec, d, tuple(classes), spec.identity())
    found = table.principal_parts
    if all(row.is_zero for _, row in p.lambda_gen):
        assert found[at] == R.zero(spec)
    elif any(not spec._index[g][2] for g in spec.generators):
        rows_size = sum(len(row.terms) for _, row in p.lambda_gen)
        assert found[at] == (None if len(r.terms) > rows_size else r)
    else:
        assert found[at] is None
    for a, part in zip(classes, found):
        if part is not None:
            assert dict(a.lambda_gen) == principal_rows(spec, part)
    # the closed form is checked for p's drawn r even where it is not found
    parts = [r if a is p else part for a, part in zip(classes, found)]
    mul, inv_ = spec._mul, spec._inv
    eps = 1 if d % 2 else -1
    radius = 3 if len(ball(spec, 2)) < 60 else 2
    for g, twists in twists_on_ball(table, ball(spec, radius), classes):
        for part, twist in zip(parts, twists):
            if part is not None:
                closed = add_principal_twist(mul, inv_, {}, g, inv_(g), R.letter_terms(part),
                                             eps)
                assert {w: c for w, c in closed.items() if c} == twist


@st.composite
def power_cases(draw):
    """A spec of ``BALL_SPEC_TEXTS``, the raw letters of a word s, an
    exponent k and the raw letters of a word e: b = s^k e, a power of s
    when e is empty."""
    text = draw(st.sampled_from(BALL_SPEC_TEXTS))
    spec = WORD_SPECS[text]
    extra = draw(st.sampled_from(([], None)))
    return (text, draw(raw_letters(spec, 4, 3)), draw(st.integers(min_value=-6, max_value=6)),
            extra if extra is not None else draw(raw_letters(spec, 2, 3)))


# proper powers, in a free factor and beside a cyclic one
@example(("F<x,y>", [("x", 2)], 3, []))
@example(("F<x,y>", [("x", 2)], 1, [("x", 1)]))
@example(("F<x,y> x Z/3<u>", [("y", 1), ("x", 2), ("y", -1), ("u", 1)], -2, []))
@example(("F<x,y>", [("x", 1), ("y", 1), ("x", -2)], 4, []))
# s = 1
@example(("F<x,y>", [], 0, []))
@example(("F<x,y>", [], 0, [("x", 1)]))
@example(("Z/1<u> x F<x,y>", [("u", 1)], 2, [("u", 3)]))
# s of finite order, and s with a cyclic part
@example(("Z<t> x Z/6<u>", [("u", 2)], 2, []))
@example(("Z<t> x Z/6<u>", [("u", 2)], 0, [("u", 3)]))
@example(("Z<t> x Z/6<u>", [("t", 1), ("u", 3)], 5, []))
@example(("Z/5<u> x F<x>", [("u", 2), ("x", -1)], -3, [("u", 1)]))
@example(("Z<a,b>", [("a", 2), ("b", -1)], 3, []))
@example(("Z<a,b>", [("a", 2), ("b", -1)], 1, [("a", 1)]))
@given(power_cases())
@settings(max_examples=300, deadline=None)
def test_is_power_of_matches_the_bounded_walk(case):
    text, s_letters, k, extra = case
    spec = WORD_SPECS[text]
    s = normalize(s_letters, spec)
    power = spec.identity()
    for _ in range(abs(k)):
        power = mul(power, s if k > 0 else inv(s))
    b = mul(power, normalize(extra, spec))
    assert _is_power_of(b, s) == reference_is_power_of(b, s)
    if not extra:
        assert _is_power_of(b, s)


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
    gens = ball_words(spec, window)[1:]
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
    return RelationSet.from_relations(spec, window, window_generators(spec, window),
                                      tuple(rels), (PROV_DAX_IMAGE,) * len(rels))


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

Z_WINDOW = ball_words(SPECS["Z<t>"], 4)[1:]


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
    solver = QuotientSolver(RelationSet.from_relations(
        Z_WINDOW[0].spec, 4, tuple(g.letters for g in gens), rels,
        (PROV_DAX_IMAGE,) * len(rels)))
    for v in vectors:
        residue = dense_reduce_mod_rows(v, reference)
        assert dense(reduce_mod_rows(sparse(v), basis), m) == residue
        elem = solver.elem(enumerate(v))
        assert solver.elem(solver.residue(elem).items()) == solver.elem(enumerate(residue))
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
    variant = RelationSet.from_relations(rs.spec, rs.window, rs.letters, tuple(rels),
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
        assert other.elem(other.residue(elem).items()) == solver.elem(solver.residue(elem).items())
        assert other.coords(elem) == c
    for (a, ca), (b, cb) in zip(zip(elems, coords), zip(elems[1:], coords[1:])):
        same_class = (solver.elem(solver.residue(a).items())
                      == solver.elem(solver.residue(b).items()))
        assert (ca == cb) == same_class
        free, tors = solver.coords(R.gr_add(a, b))
        assert free == tuple(x + y for x, y in zip(ca[0], cb[0]))
        assert tors == tuple((x + y) % d for x, y, d in zip(ca[1], cb[1], torsion))


@given(window_relation_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_solver_elem_matches_from_terms(rs, data):
    """``QuotientSolver.elem`` of distinct positions, in any order and with
    zero coefficients, is ``from_terms`` of their generators."""
    gens = rs.generators
    positions = data.draw(st.lists(st.integers(min_value=0, max_value=len(gens) - 1),
                                   unique=True, max_size=6))
    pairs = [(i, data.draw(ENTRY)) for i in positions]
    assert rs.solver.elem(pairs) == R.from_terms(rs.spec, [(gens[i], c) for i, c in pairs])


# -- the window as letters: the Word view and what shares it ------------------------

@st.composite
def letter_relation_sets(draw):
    """A relation set built from letters, as assembly builds one, over a
    spec of ``BALL_SPEC_TEXTS`` or the trivial group, which has no
    generators: columns of up to three window positions, and dropped term
    dicts on the ball of radius W+1 (an element of the window, or one just
    outside it).  With it come (position, coefficient) pairs of distinct
    positions in drawn order, zeros among them."""
    text = draw(st.sampled_from(BALL_SPEC_TEXTS + ("1",)))
    spec = parse_group_spec(text)
    window = draw(st.integers(min_value=1, max_value=2 if "x" in text else 3))
    letters = window_generators(spec, window)
    entry = st.integers(min_value=-4, max_value=4).filter(bool)
    columns = []
    if letters:
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            positions = draw(st.lists(st.integers(min_value=0, max_value=len(letters) - 1),
                                      min_size=1, max_size=3, unique=True))
            columns.append(tuple(sorted((i, draw(entry)) for i in positions)))
    near = ball(spec, window + 1)[1:]
    dropped = []
    if near:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            terms = draw(st.dictionaries(st.sampled_from(near), entry, min_size=1,
                                         max_size=3))
            dropped.append((PROV_DAX_IMAGE, terms))
    pairs = []
    if letters:
        positions = draw(st.lists(st.integers(min_value=0, max_value=len(letters) - 1),
                                  unique=True, max_size=6))
        pairs = [(i, draw(st.integers(min_value=-3, max_value=3))) for i in positions]
    return (RelationSet(spec, window, letters, tuple(columns),
                        (PROV_DAX_IMAGE,) * len(columns), tuple(dropped)), pairs)


@given(letter_relation_sets())
@example((RelationSet(parse_group_spec("1"), 2, (), (), ()), []))
@settings(max_examples=200, deadline=None)
def test_window_letters_back_the_word_view(case):
    """``generators`` is a cached view of the window's letters as Words;
    ``relations`` and ``dropped`` use its Words, not copies; the solver's
    shell ends, read off letters, are the bisection by ``word_length`` on
    Words; ``QuotientSolver.elem`` of positions in any order is the ring
    element of those Words."""
    rs, pairs = case
    spec, gens = rs.spec, rs.generators
    assert gens == tuple(Word(spec, a) for a in rs.letters)
    assert rs.generators is gens
    for rel, col in zip(rs.relations, rs.columns):
        assert len(rel.terms) == len(col)
        assert all(w is gens[i] for (w, _), (i, _) in zip(rel.terms, col))
    for (_, value), (_, terms) in zip(rs.dropped, rs.dropped_terms):
        assert R.from_letters(spec, terms) == value
        for w, _ in value.terms:
            i = rs.letter_index.get(w.letters)
            assert i is None or w is gens[i]
    solver = rs.solver
    top = word_length(gens[-1]) if gens else 0
    assert solver._ends == [bisect_right(gens, k, key=word_length)
                            for k in range(1, top + 1)]
    assert solver.elem(pairs) == R.from_terms(spec, [(gens[i], c) for i, c in pairs])


# -- the orbit search on window positions against the Word-level search --------------

@st.composite
def orbit_cases(draw):
    """A relation set from ``window_relation_sets``, a value on its window
    and an action of one or two short words b whose whisker values w(b) have
    terms on the ball of radius W+2; some w(b) cancel b g b^-1 for every
    term g of the value."""
    rs = draw(window_relation_sets())
    spec, gens = rs.spec, rs.generators
    value = R.from_terms(spec, draw(st.lists(
        st.tuples(st.sampled_from(gens), st.integers(min_value=-3, max_value=3)),
        max_size=3)))
    near = ball_words(spec, rs.window + 2)[1:]
    centralizer = draw(st.lists(st.sampled_from(ball_words(spec, 1)[1:]), min_size=1,
                                max_size=2, unique=True))
    whisker = []
    for b in centralizer:
        terms = draw(st.lists(st.tuples(st.sampled_from(near),
                                        st.integers(min_value=-2, max_value=2)),
                              max_size=2))
        if draw(st.booleans()):
            terms += [(mul(mul(b, g), inv(b)), -c) for g, c in value.terms]
        whisker.append((b, R.from_terms(spec, terms)))
    return rs, value, OrbitAction(spec.identity(), tuple(centralizer), tuple(whisker))


F2_W1 = window_generators(SPECS["F<x,y>"], 1)
Z_W1 = window_generators(SPECS["Z<t>"], 1)


def test_orbits_match_reference_on_drawn_whisker_tables(monkeypatch):
    """The orbit search on positions gives the representative, completeness
    and size of the Word-level search, the state bound lowered to 32.  The
    cases include orbits of size > 1, complete ones among them, and a move
    that stays in the window only because a term of w(b) outside it cancels
    a conjugated term."""
    from daxkernel import quotient as Q

    monkeypatch.setattr(Q, "MAX_ORBIT_STATES", 32)
    F, Zt = SPECS["F<x,y>"], SPECS["Z<t>"]
    seen = {"larger": 0, "complete larger": 0, "cancelled": 0}

    @given(orbit_cases())
    @settings(max_examples=200, deadline=None)
    # over F<x,y>, the move by x takes y to x*y*x^-1 - x*y*x^-1 + x = x
    @example((RelationSet(F, 1, F2_W1, (), ()), parse_ring("y", F),
              OrbitAction(F.identity(), (parse_word("x", F),),
                          ((parse_word("x", F), parse_ring("x - x*y*x^-1", F)),))))
    # over Z<t> modulo 2t, t and 0 are one orbit of w(t) = t
    @example((RelationSet.from_relations(Zt, 1, Z_W1, (parse_ring("2*t", Zt),),
                                         (PROV_DAX_IMAGE,)),
              R.zero(Zt), OrbitAction(Zt.identity(), (parse_word("t", Zt),),
                                      ((parse_word("t", Zt), parse_ring("t", Zt)),))))
    def check(case):
        rs, value, action = case
        orbit = Q.centralizer_orbit_reduce(value, rs, action)
        got = (orbit.representative, orbit.complete, orbit.size)
        assert got == reference_orbit(value, rs, action)
        seen["larger"] += orbit.size > 1
        seen["complete larger"] += orbit.size > 1 and orbit.complete
        start = rs.solver.elem(rs.solver.residue(value).items())
        for b, w_b in action.moves:
            conj = R.gr_conj(b, start)
            moved = R.gr_add(conj, w_b)
            index = rs.letter_index
            far = {w for w in conj.support() if w.letters not in index}
            if far & set(w_b.support()) and all(w.letters in index for w in moved.support()):
                seen["cancelled"] += 1

    check()
    assert all(seen.values()), seen


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
    return lambda: build_rel_3mfd(ctx, window, whisker)


@given(relation_builds())
@settings(max_examples=150, deadline=None)
def test_assembly_matches_reference(build):
    assert_assembly_matches_reference(build)


@st.composite
def boundary_builds(draw):
    """A spec of ``BALL_SPEC_TEXTS``, a window from 1 to 4, the raw letters
    of a circle class and a dimension from 3 to 6, so of either parity."""
    text = draw(st.sampled_from(BALL_SPEC_TEXTS))
    return (text, draw(st.integers(min_value=1, max_value=4)),
            draw(raw_letters(WORD_SPECS[text], 3, 3)),
            draw(st.integers(min_value=3, max_value=6)))


# the translates whose two terms are not two distinct non-identity words:
# g = 1, whose value is -s^-1, here inside the window
@example(("F<x,y>", 2, [("y", -1)], 3))
# g = s = x*y
@example(("F<x,y>", 2, [("x", 1), ("y", 1)], 4))
# g^2 = s: g = x for s = x^2, where the two terms sum to 0 for odd d, and
# g = u for s = 1
@example(("F<x,y>", 2, [("x", 2)], 3))
@example(("F<x,y>", 2, [("x", 2)], 4))
@example(("Z<t> x Z/2<u>", 2, [], 3))
@example(("Z<t> x Z/2<u>", 2, [], 4))
# the base relation -s^-1 leaves the window: an overflow error
@example(("F<x,y>", 2, [("x", 1), ("y", 2)], 5))
@given(boundary_builds())
@settings(max_examples=100, deadline=None)
def test_boundary_family_matches_the_reference(case):
    text, window, letters, d = case
    spec = WORD_SPECS[text]
    ctx = circles_context(table_for(spec, [], d=d), normalize(letters, spec))
    try:
        rs = build_rel_circles(ctx, None, window)
    except DaxKernelError as exc:
        got = type(exc), str(exc)
    else:
        got = rs.columns, rs.provenance, rs.dropped
    assert got == reference_boundary_family(ctx, window)


def test_target_report_renders_as_the_reference():
    """Over ``F<x,y>``, ``F<x,y> x Z/3<u>``, ``Z<t> x Z/2<u>`` and
    ``Z/5<u> x F<x>``, the report's relations and dropped values are
    ``str`` of the reference RingElems, and each dropped value's first term
    shows its sign and magnitude.  Some dropped values have two or more
    terms outside the window, whose order is the one that needs
    ``word_key``; some outside words hold a letter that no generator holds,
    which the report's letter table renders first there; and some reports
    write letters of ``Z/m``.  Relation sets built by hand add the shapes
    that random builds seldom give: two outside words of one length, an
    order that a letter of ``Z/m`` decides by its shortest exponent (u^3
    in ``Z/5<u>`` is 2 long, not 3), and a two-entry term dict with a zero
    coefficient."""
    from daxkernel import cli
    from daxkernel.errors import DaxKernelError
    from daxkernel.quotient import window_generators

    seen = {"two outside": 0, "new letter": 0, "cyclic letter": 0, "two outside tie": 0,
            "cyclic length": 0, "zero in pair": 0, "negative first": 0, "three outside": 0}

    def raw_key(spec, w):
        # word_key with each letter's length read as its raw exponent
        return sum(abs(e) for _, e in w), key_letters(spec, w)[1]

    def check_report(rs):
        report = cli._presentation(rs)
        assert_report_matches_reference(report, rs)
        spec = rs.spec
        known = {x for g in rs.generators for x in g.letters}
        for _, terms in rs.dropped_terms:
            far = [w for w, c in terms.items() if c and w not in rs.letter_index]
            seen["two outside"] += len(far) >= 2
            seen["three outside"] += len(far) >= 3
            seen["new letter"] += any(x not in known for w in far for x in w)
            seen["zero in pair"] += len(terms) == 2 and 0 in terms.values()
            if len(terms) == len(far) == 2:
                a, b = far
                seen["two outside tie"] += word_length(Word(spec, a)) == word_length(Word(spec, b))
                seen["cyclic length"] += ((raw_key(spec, a) < raw_key(spec, b))
                                          != (key_letters(spec, a) < key_letters(spec, b)))
        for entry, (_, value) in zip(report["dropped_relations"], reference_dropped(rs)):
            if value.terms:
                w, c = value.terms[0]
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                assert entry["value"].startswith(f"{'-' if c < 0 else ''}{mag}{w}"), entry
                seen["negative first"] += c < -1
        seen["cyclic letter"] += any(spec._index[name][2] for name, _ in known)

    @given(relation_builds(("F<x,y>", "F<x,y> x Z/3<u>", "Z<t> x Z/2<u>",
                            "Z/5<u> x F<x>")))
    @settings(max_examples=100, deadline=None)
    def check(build):
        try:
            rs = build()
        except DaxKernelError:
            return
        check_report(rs[0] if isinstance(rs, tuple) else rs)

    check()
    # x^7 first shows in the outside term of the boundary sphere of g = x^6
    # at W=6, for the circle class s = x^-1
    spec = parse_group_spec("F<x,y>")
    rs = build_rel_circles(circles_context(table_for(spec, [], d=3),
                                           parse_word("x^-1", spec)), None, 6)
    assert any((("x", 7),) in terms for _, terms in rs.dropped_terms)
    check_report(rs)
    # by hand, at W=1, most values with their terms out of word_key order
    for text, dropped in (
            ("F<x,y>", ({"y*x": 2, "x*y": -1}, {"x*y^-1": -1, "x^-1*y": 3},
                        {"x*y": 0, "x": -2}, {"x*y": 1, "x": -3})),
            ("Z/5<u> x F<x>", ({"u*x^2": 1, "u^3": 2}, {"u^2": -1, "u^4*x": 1}))):
        spec = parse_group_spec(text)
        letters = window_generators(spec, 1)
        terms = [{parse_word(w, spec).letters: c for w, c in value.items()}
                 for value in dropped]
        check_report(RelationSet(spec, 1, letters, (), (),
                                 tuple((PROV_DAX_IMAGE, t) for t in terms)))
    assert all(seen.values()), seen
