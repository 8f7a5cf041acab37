from dataclasses import FrozenInstanceError

import pytest

from daxkernel.errors import (
    BallOverflowError,
    GroupParseError,
    SpecMismatchError,
    UnknownGeneratorError,
    UnsupportedClassError,
)
from daxkernel.groups import (
    ball,
    inv,
    mul,
    normalize,
    parse_group_spec,
    parse_word,
    render_group_spec,
    render_word,
    word_key,
    word_length,
)

from conftest import GROUP_TEXTS, random_word, rng_for


def powers(g, n):
    """g^n by repeated squaring (exponents may be large); a test reference."""
    if n == 0:
        return g.spec.identity()
    base = g if n > 0 else inv(g)
    n = abs(n)
    acc = g.spec.identity()
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        n >>= 1
    return acc


# -- presentation parsing ----------------------------------------------------

def test_parse_free_abelian_rank_one():
    spec = parse_group_spec("Z<t>")
    assert len(spec.factors) == 1
    assert spec.factors[0].kind == "free_abelian"
    assert spec.generators == ("t",)


def test_parse_free_rank_two():
    spec = parse_group_spec("F<x,y>")
    assert spec.factors[0].kind == "free"
    assert spec.generators == ("x", "y")


def test_parse_direct_product():
    spec = parse_group_spec("Z<t> x Z/3<u>")
    kinds = [f.kind for f in spec.factors]
    assert kinds == ["free_abelian", "finite_cyclic"]
    assert spec.factors[1].order == 3
    assert spec.generators == ("t", "u")


def test_parse_trivial_and_z1():
    assert parse_group_spec("1").is_trivial
    assert parse_group_spec("Z/1<e>").is_trivial
    assert parse_group_spec("1 x 1").is_trivial


def test_z1_generator_is_the_identity():
    # the Z/1 factor stays in the spec, so its generator parses, as the identity
    spec = parse_group_spec("F<x,y> x Z/1<u>")
    assert spec.generators == ("x", "y", "u")
    assert render_group_spec(spec) == "F<x,y> x Z/1<u>"
    assert parse_word("u", spec).is_identity
    assert parse_word("u^-2*x*u*y*u^5", spec) == parse_word("x*y", spec)
    assert [w.letters for w in ball(spec, 1)] == [(), (("x", 1),), (("x", -1),),
                                                 (("y", 1),), (("y", -1),)]


def test_parse_round_trip():
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        assert parse_group_spec(render_group_spec(spec)) == spec


def test_parse_error_reports_position():
    with pytest.raises(GroupParseError) as info:
        parse_group_spec("Z<t> x Q<v>")
    assert info.value.position == 7


def test_relators_rejected_as_undecidable():
    with pytest.raises(UnsupportedClassError):
        parse_group_spec("<x,y | x^2=y^3>")


def test_duplicate_generators_rejected():
    with pytest.raises(UnsupportedClassError):
        parse_group_spec("Z<t> x F<t,y>")


# -- normalization -----------------------------------------------------------

def test_word_is_slotted_and_hashes_once():
    spec = parse_group_spec("F<x,y>")
    w = parse_word("x*y^-1*x", spec)
    assert not hasattr(w, "__dict__")
    for name in ("spec", "letters", "_hash"):
        with pytest.raises(FrozenInstanceError):
            setattr(w, name, None)
    assert hash(w) == hash((spec._hash, w.letters)) == w._hash
    again = normalize([("x", 1), ("y", -1), ("x", 1)], spec)
    assert w == again and hash(w) == hash(again)
    # products and inverses over a product spec equal the normal forms of
    # their raw letters, hashes included
    spec = parse_group_spec("F<x,y> x Z<t> x Z/3<u>")
    rng = rng_for("word-invariants")
    words = [random_word(rng, spec, max_syllables=5) for _ in range(30)]
    for a in words:
        ref = normalize([(n, -e) for n, e in reversed(a.letters)], spec)
        a_inv = inv(a)
        assert a_inv == ref and a_inv.letters == ref.letters
        assert hash(a_inv) == hash(ref) == hash((spec._hash, ref.letters))
        for b in words:
            ref = normalize(a.letters + b.letters, spec)
            prod = mul(a, b)
            assert prod == ref and prod.letters == ref.letters
            assert hash(prod) == hash(ref) == hash((spec._hash, ref.letters))


def test_free_cancellation():
    spec = parse_group_spec("F<x,y>")
    w = normalize([("x", 1), ("y", 1), ("y", -1), ("x", 1)], spec)
    assert w == parse_word("x^2", spec)


def test_abelian_collection():
    spec = parse_group_spec("Z<t>")
    w = normalize([("t", 2), ("t", -3)], spec)
    assert w == parse_word("t^-1", spec)


def test_cyclic_modular_reduction():
    spec = parse_group_spec("Z/3<u>")
    w = normalize([("u", 5)], spec)
    assert w == parse_word("u^2", spec)


def test_normalize_idempotent():
    rng = rng_for("normalize-idempotent")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(50):
            w = random_word(rng, spec)
            assert normalize(w.letters, spec) == w


def test_unknown_generator():
    spec = parse_group_spec("Z<t>")
    with pytest.raises(UnknownGeneratorError):
        normalize([("z", 1)], spec)


# -- arithmetic --------------------------------------------------------------

def test_mul_examples():
    free = parse_group_spec("F<x,y>")
    z = parse_group_spec("Z<t>")
    assert mul(parse_word("x", free), parse_word("x^-1", free)).is_identity
    assert mul(parse_word("t^2", z), parse_word("t^3", z)) == parse_word("t^5", z)
    assert mul(parse_word("x*y", free), parse_word("y^-1*x", free)) == \
        parse_word("x^2", free)
    # the seam cancels or merges through several letters
    free = parse_group_spec("F<x,y,z>")
    xyz = parse_word("x*y*z", free)
    assert mul(xyz, parse_word("z^-1*y^-1*x^-1", free)).is_identity
    assert mul(xyz, parse_word("z^-1*y^-1*x", free)) == parse_word("x^2", free)
    assert mul(xyz, parse_word("z^-1*y^2", free)) == parse_word("x*y^3", free)
    cyc = parse_group_spec("Z/3<u>")
    assert mul(parse_word("u^2", cyc), parse_word("u", cyc)).is_identity
    assert mul(parse_word("u^2", cyc), parse_word("u^2", cyc)) == parse_word("u", cyc)
    # factor blocks interleave: the seam is inside each shared factor
    spec = parse_group_spec("Z/2<u> x F<x,y> x Z<t>")
    g = parse_word("u*x*y*t^2", spec)
    h = parse_word("u*y^-1*x*t^-2", spec)
    assert mul(g, h) == parse_word("x^2", spec)
    assert mul(h, g) == parse_word("y^-1*x^2*y", spec)
    assert mul(parse_word("x", spec), parse_word("u*t", spec)) == \
        parse_word("u*x*t", spec)


def test_inv_examples():
    free = parse_group_spec("F<x,y>")
    cyc = parse_group_spec("Z/3<u>")
    assert inv(free.identity()).is_identity
    assert inv(parse_word("x*y", free)) == parse_word("y^-1*x^-1", free)
    assert inv(parse_word("u", cyc)) == parse_word("u^2", cyc)
    spec = parse_group_spec("Z/5<u> x F<x,y> x Z<s,t>")
    g = parse_word("u^2*x*y^-2*x^3*s^-1*t^4", spec)
    assert inv(g).letters == (("u", 3), ("x", -3), ("y", 2), ("x", -1),
                              ("s", 1), ("t", -4))


def test_spec_mismatch():
    with pytest.raises(SpecMismatchError):
        mul(parse_word("t", parse_group_spec("Z<t>")),
            parse_word("x", parse_group_spec("F<x,y>")))


def test_mul_associative_and_unital():
    rng = rng_for("assoc")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        e = spec.identity()
        for _ in range(60):
            g, h, k = (random_word(rng, spec) for _ in range(3))
            assert mul(mul(g, h), k) == mul(g, mul(h, k))
            assert mul(g, e) == g and mul(e, g) == g


def test_inv_involution_and_inverse():
    rng = rng_for("inv")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(60):
            g = random_word(rng, spec)
            assert inv(inv(g)) == g
            assert mul(g, inv(g)).is_identity


def test_cyclic_order():
    for text, m in (("Z/3<u>", 3), ("Z/5<u>", 5)):
        spec = parse_group_spec(text)
        rng = rng_for(f"order-{m}")
        for _ in range(30):
            g = random_word(rng, spec)
            assert powers(g, m).is_identity


def test_product_factors_commute():
    spec = parse_group_spec("F<x,y> x Z<t>")
    assert mul(parse_word("t", spec), parse_word("x", spec)) == \
        parse_word("x*t", spec)


# -- word order, metric, balls -----------------------------------------------

def test_word_order_grading():
    spec = parse_group_spec("Z<t>")
    words = [parse_word(s, spec) for s in ("1", "t", "t^-1", "t^2", "t^-2")]
    assert sorted(words, key=word_key) == words


def test_word_length_cyclic_uses_shortest_path():
    spec = parse_group_spec("Z/5<u>")
    assert word_length(parse_word("u^4", spec)) == 1
    assert word_length(parse_word("u^3", spec)) == 2


def test_ball_sizes():
    z = parse_group_spec("Z<t>")
    assert len(ball(z, 4)) == 9
    free = parse_group_spec("F<x,y>")
    assert len(ball(free, 2)) == 1 + 4 + 12
    cyc = parse_group_spec("Z/3<u>")
    assert len(ball(cyc, 1)) == 3
    assert len(ball(cyc, 5)) == 3


def test_ball_limit_is_its_exact_size():
    # 1 + 4 + 12 elements: a limit of 17 holds the ball, 16 does not
    free = parse_group_spec("F<x,y>")
    assert len(ball(free, 2, limit=17)) == 17
    with pytest.raises(BallOverflowError,
                       match="ball of radius 2 exceeds 16 elements; use a smaller window"):
        ball(free, 2, limit=16)


def test_ball_past_the_limit_raises_before_building():
    # 4 * 3^39 elements: only a size counted before enumeration returns
    with pytest.raises(BallOverflowError, match="ball of radius 40 exceeds 200000"):
        ball(parse_group_spec("F<x,y>"), 40)


def test_ball_deterministic_and_sorted():
    spec = parse_group_spec("F<x,y>")
    b1 = ball(spec, 3)
    b2 = ball(spec, 3)
    assert b1 == b2
    assert b1[0].is_identity
    assert [word_key(w) for w in b1] == sorted(word_key(w) for w in b1)


def test_word_render_round_trip():
    rng = rng_for("word-render")
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        for _ in range(40):
            w = random_word(rng, spec)
            assert parse_word(render_word(w), spec) == w


def test_parse_whitespace_tolerant():
    spec = parse_group_spec("  Z< t >  x  Z/3< u >")
    assert spec.generators == ("t", "u")


def test_huge_exponents_exact():
    spec = parse_group_spec("Z<t>")
    big = 2 ** 70
    g = normalize([("t", big)], spec)
    h = normalize([("t", big + 1)], spec)
    assert mul(g, inv(h)) == parse_word("t^-1", spec)
    assert powers(parse_word("t^3", spec), big).letters == (("t", 3 * big),)
