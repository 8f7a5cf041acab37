import pytest

from daxkernel.errors import PairingDataError
from daxkernel.groups import inv, mul, parse_group_spec, parse_word
from daxkernel import ring as R
from daxkernel.ring import gr_add, gr_bar_reduce, gr_neg, parse_ring
from daxkernel.pairing import (
    PairingTable,
    _unbalanced_coset,
    lambda_arc,
    lambda_flip,
    lambda_linear,
    lambda_word,
    lambdabar_conj_shift,
    rebase_table,
    sphere_class,
)

from conftest import (
    GROUP_TEXTS,
    phi_class,
    random_class,
    random_word,
    rng_for,
    table_for,
)

Z = parse_group_spec("Z<t>")


def i2_table(u_text="t^3", d=5):
    """Sphere class pairing 1 against the circle generator, over Z."""
    a = sphere_class(Z, "i2", True, R.zero(Z), parse_ring("0", Z),
                     {"t": parse_ring("1", Z)})
    u = parse_word(u_text, Z)
    lam_u = lambda_word(table_for(Z, [a], d=d, u=u), a, u)
    a = sphere_class(Z, "i2", True, R.zero(Z), lam_u, {"t": parse_ring("1", Z)})
    return table_for(Z, [a], d=d, u=u), a


# -- extension along words -----------------------------------------------------

def test_lambda_word_positive_power():
    table, a = i2_table()
    assert lambda_word(table, a, parse_word("t^3", Z)) == \
        parse_ring("1 + t^-1 + t^-2", Z)


def test_lambda_word_identity():
    table, a = i2_table()
    assert lambda_word(table, a, Z.identity()).is_zero


def test_lambda_word_negative_power():
    table, a = i2_table()
    assert lambda_word(table, a, parse_word("t^-1", Z)) == parse_ring("-t", Z)
    # lambda(a, t^w0) = -(t + ... + t^-w0) for negative w0
    assert lambda_word(table, a, parse_word("t^-3", Z)) == \
        parse_ring("-t - t^2 - t^3", Z)


def test_fox_rule_on_products():
    rng = rng_for("fox-rule")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(60):
            a = random_class(rng, spec)
            table = table_for(spec, [a])
            w1, w2 = random_word(rng, spec), random_word(rng, spec)
            lhs = lambda_word(table, a, mul(w1, w2))
            rhs = gr_add(lambda_word(table, a, w1),
                         R.right_mul(lambda_word(table, a, w2), inv(w1)))
            assert lhs == rhs


def test_inverse_rule_exact():
    rng = rng_for("fox-inverse")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(40):
            a = random_class(rng, spec)
            table = table_for(spec, [a])
            g = random_word(rng, spec)
            lam_g = lambda_word(table, a, g)
            lam_gi = lambda_word(table, a, inv(g))
            assert lam_gi == gr_neg(R.right_mul(lam_g, g))
            assert gr_add(lam_g, R.right_mul(lam_gi, inv(g))).is_zero


# -- arc pairings ---------------------------------------------------------------

def test_lambda_arc_basepoint():
    spec = parse_group_spec("F<g0> x Z<s>")
    s = parse_word("s", spec)
    phi = phi_class(spec, s)
    table = table_for(spec, [phi])
    assert lambda_arc(table, phi, spec.identity(), use_u=True) == \
        parse_ring("1 - s^-1", spec)
    assert lambda_arc(table, phi, spec.identity(), use_u=False).is_zero


def test_lambda_linear_translates_first_slot():
    # lambda(g phi, u) = g * lambda(phi, u) = g - g*sbar
    spec = parse_group_spec("F<g0> x Z<s>")
    s = parse_word("s", spec)
    phi = phi_class(spec, s)
    table = table_for(spec, [phi])
    g0 = parse_word("g0", spec)
    val = lambda_linear(table, [(g0, phi)], spec.identity(), use_u=True)
    assert val == parse_ring("g0 - g0*s^-1", spec)


def test_lambda_linear_additive():
    rng = rng_for("lambda-linear")
    spec = parse_group_spec("F<x,y>")
    a = random_class(rng, spec)
    table = table_for(spec, [a])
    k = random_word(rng, spec)
    one = spec.identity()
    assert lambda_linear(table, [], k, True).is_zero
    assert lambda_linear(table, [(one, a), (one, a)], k, True) == \
        R.gr_scale(2, lambda_arc(table, a, k, True))


# -- slot exchange ---------------------------------------------------------------

def test_lambda_flip_example():
    spec = parse_group_spec("F<g>")
    v = parse_ring("g - 1", spec)
    assert lambda_flip(v, 4) == parse_ring("1 - g^-1", spec)
    assert lambda_flip(R.zero(spec), 3).is_zero


def test_lambda_flip_involution():
    rng = rng_for("flip")
    from conftest import random_ring
    for d in (3, 4, 5):
        for _ in range(40):
            v = random_ring(rng, Z)
            assert lambda_flip(lambda_flip(v, d), d) == v


# -- reduced pairing of translated classes ---------------------------------------

def test_lambdabar_shift_identity_translate():
    rng = rng_for("lambdabar-id")
    spec = parse_group_spec("F<x,y>")
    a = random_class(rng, spec)
    table = table_for(spec, [a])
    assert lambdabar_conj_shift(table, a, spec.identity(), True) == \
        gr_bar_reduce(a.lambda_u)


def test_lambdabar_shift_matches_direct_reduction():
    rng = rng_for("lambdabar")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(60):
            a = random_class(rng, spec)
            table = table_for(spec, [a])
            g = random_word(rng, spec)
            for k_is_u in (False, True):
                direct = gr_bar_reduce(
                    R.left_mul(g, lambda_arc(table, a, g, k_is_u)))
                assert lambdabar_conj_shift(table, a, g, k_is_u) == direct


def test_phi_translate_shift_value():
    # red(lambda(g phi, g)) = g  for nontrivial g
    spec = parse_group_spec("F<g0> x Z<s>")
    phi = phi_class(spec, parse_word("s", spec))
    table = table_for(spec, [phi])
    g0 = parse_word("g0", spec)
    assert lambdabar_conj_shift(table, phi, g0, False) == parse_ring("g0", spec)


# -- stored-data validation -------------------------------------------------------

def test_inconsistent_abelian_rows_rejected():
    spec = parse_group_spec("Z<a,b>")
    a = sphere_class(spec, "bad", False, R.zero(spec), R.zero(spec),
                     {"a": parse_ring("1", spec)})
    with pytest.raises(PairingDataError):
        table_for(spec, [a])


def test_inconsistent_cyclic_row_rejected():
    spec = parse_group_spec("Z/3<u>")
    a = sphere_class(spec, "bad", False, R.zero(spec), R.zero(spec),
                     {"u": parse_ring("1", spec)})
    with pytest.raises(PairingDataError, match=r"relator u\^3 \(the row of u sums to 1"
                                               r" on the coset <u>\)"):
        table_for(spec, [a])


def test_unbalanced_coset_is_the_first_in_term_order():
    """Cosets of <u> are named by their element without a u letter, in the
    order of the row's terms; a balanced row has none."""
    spec = parse_group_spec("F<x> x Z/5<u>")
    row = parse_ring("x*u - x*u^3 + 2*x^-1 + x^-1*u^4 - 2*u", spec)
    assert _unbalanced_coset(row, "u") == ((("x", -1),), 3)
    assert _unbalanced_coset(parse_ring("x*u - x*u^3 + 2*u - 2", spec), "u") is None


def test_principal_rows_accepted_everywhere():
    rng = rng_for("principal-ok")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        table_for(spec, [random_class(rng, spec)])


def test_embedded_requires_zero_base():
    a = sphere_class(Z, "bad", True, parse_ring("t", Z), R.zero(Z), {})
    with pytest.raises(PairingDataError):
        table_for(Z, [a])


def test_base_dax_must_be_reduced():
    a = sphere_class(Z, "bad", False, parse_ring("1 + t", Z), R.zero(Z), {})
    with pytest.raises(PairingDataError):
        table_for(Z, [a])


def test_low_dimension_rejected():
    with pytest.raises(PairingDataError):
        PairingTable(Z, 2, (), Z.identity())


# -- basepoint motion --------------------------------------------------------------

def test_rebase_table_rows():
    rng = rng_for("rebase")
    spec = parse_group_spec("F<x,y>")
    a = random_class(rng, spec)
    table = table_for(spec, [a], u=parse_word("x", spec))
    g = parse_word("y", spec)
    moved = rebase_table(table, g)
    assert moved.u_class == parse_word("y*x", spec)
    assert moved.classes[0].lambda_u == lambda_arc(table, a, g, use_u=True)
    assert moved.classes[0].lambda_gen == a.lambda_gen


def test_cross_factor_consistency_enforced_for_free_products():
    # generators of different direct factors commute, so independent random
    # rows are rejected while principal rows pass
    spec = parse_group_spec("F<x,y> x F<a,b>")
    bad = sphere_class(spec, "bad", False, R.zero(spec), R.zero(spec),
                       {"x": parse_ring("1", spec)})
    with pytest.raises(PairingDataError):
        table_for(spec, [bad])
    from conftest import principal_rows
    rows = principal_rows(spec, parse_ring("2*x - b", spec))
    ok = sphere_class(spec, "ok", False, R.zero(spec), R.zero(spec), rows)
    table_for(spec, [ok])
