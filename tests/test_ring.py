import types
from collections import Counter

import pytest

from daxkernel.errors import GroupParseError, SpecMismatchError, UnknownGeneratorError
from daxkernel.groups import parse_group_spec, parse_word
from daxkernel import ring as R
from daxkernel.ring import (
    gr_add,
    gr_bar_reduce,
    gr_conj,
    gr_involute,
    gr_mul,
    is_reduced,
    monomial,
    parse_ring,
    render_ring,
)

from conftest import GROUP_TEXTS, random_ring, random_word, rng_for

Z = parse_group_spec("Z<t>")
F = parse_group_spec("F<x,y>")


def elem(text, spec=Z):
    return parse_ring(text, spec)


def augmentation(r):
    """Sum of coefficients: the ring homomorphism Z[G] -> Z, as a reference."""
    return sum(c for _, c in r.terms)


# -- addition / multiplication ----------------------------------------------

def test_add_examples():
    assert gr_add(elem("t"), elem("-t")).is_zero
    assert gr_add(elem("1 + t"), elem("t")) == elem("1 + 2*t")
    r = random_ring(rng_for("add-unit"), Z)
    assert gr_add(r, R.zero(Z)) == r


def test_mul_examples():
    assert gr_mul(elem("1 + t"), elem("1 - t")) == elem("1 - t^2")
    g = monomial(parse_word("t^4", Z))
    assert gr_mul(g, R.one(Z)) == g
    assert gr_mul(parse_ring("x", F), parse_ring("y", F)) == parse_ring("x*y", F)


def test_from_terms_accepts_any_mapping():
    t, t2 = parse_word("t", Z), parse_word("t^2", Z)
    want = elem("3*t - t^2")
    terms = {t2: -1, t: 3, Z.identity(): 0}
    assert R.from_terms(Z, terms) == want
    assert R.from_terms(Z, types.MappingProxyType(terms)) == want
    assert R.from_terms(Z, Counter(terms)) == want
    assert R.from_terms(Z, [(t, 1), (t2, -1), (t, 2)]) == want
    with pytest.raises(SpecMismatchError):
        R.from_terms(F, types.MappingProxyType(terms))


def test_spec_mismatch():
    with pytest.raises(SpecMismatchError):
        gr_add(elem("t"), parse_ring("x", F))


# -- involution, conjugation, reduction ---------------------------------------

def test_involute_examples():
    assert gr_involute(elem("2*t - t^-3")) == elem("2*t^-1 - t^3")
    assert gr_involute(R.one(Z)) == R.one(Z)
    assert gr_involute(parse_ring("x*y - y", F)) == parse_ring("y^-1*x^-1 - y^-1", F)


def test_involute_anti_homomorphism():
    rng = rng_for("involute")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(40):
            r, s = random_ring(rng, spec), random_ring(rng, spec)
            assert gr_involute(gr_involute(r)) == r
            assert gr_involute(gr_mul(r, s)) == gr_mul(gr_involute(s), gr_involute(r))


def test_conj_examples():
    assert gr_conj(parse_word("t", Z), elem("t^2")) == elem("t^2")
    assert gr_conj(parse_word("x", F), parse_ring("y", F)) == \
        parse_ring("x*y*x^-1", F)
    assert gr_conj(parse_word("x", F), R.zero(F)).is_zero


def test_conj_action_composition():
    rng = rng_for("conj")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(40):
            g, h = random_word(rng, spec), random_word(rng, spec)
            r, s = random_ring(rng, spec), random_ring(rng, spec)
            from daxkernel.groups import mul
            assert gr_conj(mul(g, h), r) == gr_conj(g, gr_conj(h, r))
            assert gr_conj(g, gr_mul(r, s)) == \
                gr_mul(gr_conj(g, r), gr_conj(g, s))
            assert gr_conj(g, gr_add(r, s)) == \
                gr_add(gr_conj(g, r), gr_conj(g, s))


def test_bar_reduce_examples():
    assert gr_bar_reduce(elem("3 + t")) == elem("t")
    s_spec = parse_group_spec("Z<s>")
    assert gr_bar_reduce(parse_ring("1 - s^-1", s_spec)) == \
        parse_ring("-s^-1", s_spec)
    assert gr_bar_reduce(R.zero(Z)).is_zero


def test_bar_reduce_idempotent_and_reduced():
    rng = rng_for("reduce")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(40):
            r = random_ring(rng, spec)
            red = gr_bar_reduce(r)
            assert gr_bar_reduce(red) == red
            assert is_reduced(red)
            assert red.coefficient(spec.identity()) == 0


def test_augmentation_ring_homomorphism():
    rng = rng_for("augmentation")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(40):
            r, s = random_ring(rng, spec), random_ring(rng, spec)
            assert augmentation(gr_add(r, s)) == augmentation(r) + augmentation(s)
            assert augmentation(gr_mul(r, s)) == augmentation(r) * augmentation(s)


# -- text form -----------------------------------------------------------------

def test_render_canonical_order():
    assert render_ring(elem("2*t^-1 - t^3 + 1")) == "1 + 2*t^-1 - t^3"
    assert render_ring(R.zero(Z)) == "0"
    assert render_ring(elem("-t")) == "-t"


def test_parse_render_round_trip():
    rng = rng_for("ring-render")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(60):
            r = random_ring(rng, spec)
            assert parse_ring(render_ring(r), spec) == r


def test_parse_errors():
    with pytest.raises(GroupParseError):
        parse_ring("", Z)
    with pytest.raises(GroupParseError):
        parse_ring("t +", Z)
    with pytest.raises(GroupParseError):
        parse_ring("2t", Z)


def test_parse_error_in_a_term_names_the_whole_literal():
    # a bad syllable is reported against the ring literal, at the offset of
    # its word's syllable there, not against the term's word alone
    with pytest.raises(GroupParseError) as info:
        parse_ring("t + 2*t^", Z)
    assert (info.value.text, info.value.position) == ("t + 2*t^", 6)
    with pytest.raises(GroupParseError) as info:
        parse_ring("x - 3*x*y^ + y", F)
    assert (info.value.text, info.value.position) == ("x - 3*x*y^ + y", 8)
    with pytest.raises(UnknownGeneratorError, match="unknown generator 's'"):
        parse_ring("t + 2*s", Z)


def test_involution_fixes_identity_coefficient():
    rng = rng_for("inv-id")
    for _ in range(30):
        r = random_ring(rng, F)
        assert gr_involute(r).coefficient(F.identity()) == \
            r.coefficient(F.identity())
        g = random_word(rng, F)
        assert gr_conj(g, r).coefficient(F.identity()) == \
            r.coefficient(F.identity())
