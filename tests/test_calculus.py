import pytest

from daxkernel.errors import ModeError
from daxkernel.groups import mul, parse_group_spec, parse_word
from daxkernel import ring as R
from daxkernel.ring import gr_add, gr_bar_reduce, gr_conj, gr_neg, parse_ring
from daxkernel.pairing import lambda_arc, lambda_flip, lambda_word, sphere_class
from daxkernel.calculus import (
    arcs_context,
    circles_context,
    dax_boundary_sphere,
    dax_image,
    dax_rebase,
    dax_translate,
    dax_u_embedded,
    dax_u_general,
    rebase_context,
)

from conftest import (
    GROUP_TEXTS,
    ball_words,
    class_named,
    random_class,
    random_circles_context,
    random_word,
    rng_for,
    table_for,
    translated_class,
)

Z = parse_group_spec("Z<t>")


def bg_context(d=5, w0=3):
    u = parse_word(f"t^{w0}" if w0 else "1", Z)
    probe = sphere_class(Z, "i2", True, R.zero(Z), R.zero(Z),
                         {"t": parse_ring("1", Z)})
    lam_u = lambda_word(table_for(Z, [probe], d=d, u=u), probe, u)
    i2 = sphere_class(Z, "i2", True, R.zero(Z), lam_u, {"t": parse_ring("1", Z)})
    return circles_context(table_for(Z, [i2], d=d, u=u), u)


# -- rebasing -------------------------------------------------------------------

def test_rebase_embedded_is_reduced_arc_row():
    rng = rng_for("rebase-embedded")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        a = random_class(rng, spec, embedded=True)
        ctx = arcs_context(table_for(spec, [a]))
        assert dax_rebase(a, ctx) == gr_bar_reduce(a.lambda_u)


def test_rebase_zero_case():
    a = sphere_class(Z, "a", False, R.zero(Z), R.zero(Z), {})
    ctx = arcs_context(table_for(Z, [a]))
    assert dax_rebase(a, ctx).is_zero


def test_rebase_wrapped_sphere():
    ctx = bg_context(d=5, w0=3)
    i2 = ctx.table.classes[0]
    assert dax_rebase(i2, ctx) == parse_ring("t^-1 + t^-2", Z)


# -- translation ------------------------------------------------------------------

def test_translate_identity_is_base():
    rng = rng_for("translate-id")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        a = random_class(rng, spec)
        ctx = arcs_context(table_for(spec, [a]))
        assert dax_translate(spec.identity(), a, ctx) == a.base_dax


def test_translate_zero_rows_abelian():
    a = sphere_class(Z, "a", False, parse_ring("t - t^-1", Z), R.zero(Z), {})
    ctx = arcs_context(table_for(Z, [a]))
    g = parse_word("t^2", Z)
    assert dax_translate(g, a, ctx) == a.base_dax


def test_translate_via_arc_row_matches_general():
    # dax_u(g a) = dax(g a) + red(lambda(g a, u)): two independent pipelines
    rng = rng_for("translate-vs-general")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(40):
            a = random_class(rng, spec)
            ctx = arcs_context(table_for(spec, [a]))
            g = random_word(rng, spec)
            lhs = dax_u_general(g, a, ctx)
            rhs = gr_add(dax_translate(g, a, ctx),
                         gr_bar_reduce(R.left_mul(g, a.lambda_u)))
            assert lhs == rhs


def test_translate_cocycle():
    rng = rng_for("translate-cocycle")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(30):
            a = random_class(rng, spec)
            ctx = arcs_context(table_for(spec, [a]))
            g, h = random_word(rng, spec), random_word(rng, spec)
            one_step = dax_translate(mul(g, h), a, ctx)
            ha = translated_class(ctx, h, a)
            ctx_ha = arcs_context(table_for(spec, [ha], d=ctx.d))
            two_step = dax_translate(g, ha, ctx_ha)
            assert one_step == two_step


# -- general vs embedded shortcut ---------------------------------------------------

def test_general_identity_translate():
    rng = rng_for("general-id")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        a = random_class(rng, spec)
        ctx = arcs_context(table_for(spec, [a]))
        assert dax_u_general(spec.identity(), a, ctx) == dax_rebase(a, ctx)


def test_general_all_trivial_data():
    a = sphere_class(Z, "a", True, R.zero(Z), R.zero(Z), {})
    ctx = arcs_context(table_for(Z, [a]))
    assert dax_u_general(parse_word("t^2", Z), a, ctx).is_zero


def test_embedded_shortcut_agrees():
    rng = rng_for("cor4-vs-cor5")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(40):
            a = random_class(rng, spec, embedded=True)
            ctx = arcs_context(table_for(spec, [a]))
            g = random_word(rng, spec)
            assert dax_u_general(g, a, ctx) == dax_u_embedded(g, a, ctx)


def test_embedded_shortcut_requires_embedded():
    a = sphere_class(Z, "a", False, parse_ring("t", Z), R.zero(Z), {})
    ctx = arcs_context(table_for(Z, [a]))
    with pytest.raises(ModeError):
        dax_u_embedded(Z.identity(), a, ctx)


# -- basepoint-change identities ------------------------------------------------------

def test_basepoint_difference_identity():
    # dax over g*u minus dax over u equals the reduced arc-row difference
    rng = rng_for("cor2")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(30):
            a = random_class(rng, spec)
            ctx = arcs_context(table_for(spec, [a]))
            g = random_word(rng, spec)
            moved = rebase_context(ctx, g)
            lhs = gr_add(dax_rebase(moved.table.classes[0], moved),
                         gr_neg(dax_rebase(a, ctx)))
            rhs = gr_add(gr_bar_reduce(lambda_arc(ctx.table, a, g, True)),
                         gr_neg(gr_bar_reduce(a.lambda_u)))
            assert lhs == rhs


def test_basepoint_and_class_translation_identity():
    # dax over g*u of g*a minus conjugated dax of a equals red(lambda(g, g a))
    rng = rng_for("cor3")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(30):
            a = random_class(rng, spec)
            ctx = arcs_context(table_for(spec, [a]))
            g = random_word(rng, spec)
            moved = rebase_context(ctx, g)
            lhs = gr_add(dax_u_general(g, moved.table.classes[0], moved),
                         gr_neg(gr_conj(g, dax_rebase(a, ctx))))
            lam_g = R.left_mul(g, lambda_word(ctx.table, a, g))
            rhs = gr_bar_reduce(lambda_flip(lam_g, ctx.d))
            assert lhs == rhs


# -- boundary sphere -------------------------------------------------------------------

def test_boundary_sphere_at_identity():
    for w0 in (1, 2, 5):
        ctx = bg_context(d=5, w0=w0)
        assert dax_boundary_sphere(Z.identity(), ctx) == \
            parse_ring(f"-t^{-w0}", Z)


def test_boundary_sphere_closed_form():
    ctx = bg_context(d=5, w0=3)
    for k in (-2, 1, 4):
        val = dax_boundary_sphere(parse_word(f"t^{k}", Z), ctx)
        expected = gr_bar_reduce(parse_ring(f"t^{-k} - t^{k-3}", Z))
        assert val == expected


def test_boundary_sphere_trivial_everything():
    for d in (3, 4, 5, 6):
        spec = parse_group_spec("Z<t>")
        ctx = circles_context(table_for(spec, [], d=d), spec.identity())
        assert dax_boundary_sphere(spec.identity(), ctx).is_zero


def test_boundary_sphere_needs_circles_mode():
    ctx = arcs_context(table_for(Z, []))
    with pytest.raises(ModeError):
        dax_boundary_sphere(Z.identity(), ctx)


def test_boundary_matches_embedded_pipeline():
    rng = rng_for("gphi-sample")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(20):
            ctx = random_circles_context(rng, spec)
            phi = class_named(ctx.table, "phi")
            g = random_word(rng, spec)
            assert dax_boundary_sphere(g, ctx) == dax_u_embedded(g, phi, ctx)


# -- image enumeration -----------------------------------------------------------------

def test_image_trivial_group_empty():
    spec = parse_group_spec("1")
    a = random_class(rng_for("img-trivial"), spec)
    ctx = arcs_context(table_for(spec, [a]))
    assert dax_image(ctx, [spec.identity()]) == []


def test_image_no_classes_empty():
    ctx = arcs_context(table_for(Z, []))
    assert dax_image(ctx, ball_words(Z, 3)) == []


def test_image_contains_displayed_family():
    ctx = bg_context(d=5, w0=3)
    vals = dax_image(ctx, ball_words(Z, 4))
    assert parse_ring("t^-1 + t^-2", Z) in vals
    for k in (0, 1, 2, -1):
        expected = gr_bar_reduce(parse_ring(f"t^{-k} - t^{k-3}", Z))
        if not expected.is_zero:
            assert expected in vals


def test_outputs_reduced():
    rng = rng_for("reduced-outputs")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(25):
            a = random_class(rng, spec)
            ctx = arcs_context(table_for(spec, [a]))
            g = random_word(rng, spec)
            for val in (dax_rebase(a, ctx), dax_translate(g, a, ctx),
                        dax_u_general(g, a, ctx)):
                assert val.coefficient(spec.identity()) == 0
