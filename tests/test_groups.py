import gc
import pickle
import time
import weakref
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
    FREE,
    GroupSpec,
    Word,
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
from daxkernel.ring import parse_ring
from daxkernel.cli import build_relations
from daxkernel.scene import preset_expand

from conftest import (GROUP_TEXTS, ball_words, is_trivial, random_word, ref_normalize,
                      rng_for)


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
    assert is_trivial(parse_group_spec("1"))
    assert is_trivial(parse_group_spec("Z/1<e>"))
    assert is_trivial(parse_group_spec("1 x 1"))


def test_z1_generator_is_the_identity():
    # the Z/1 factor stays in the spec, so its generator parses, as the identity
    spec = parse_group_spec("F<x,y> x Z/1<u>")
    assert spec.generators == ("x", "y", "u")
    assert render_group_spec(spec) == "F<x,y> x Z/1<u>"
    assert parse_word("u", spec).is_identity
    assert parse_word("u^-2*x*u*y*u^5", spec) == parse_word("x*y", spec)
    assert ball(spec, 1) == [(), (("x", 1),), (("x", -1),), (("y", 1),), (("y", -1),)]


def test_parse_round_trip():
    for text in GROUP_TEXTS:
        spec = parse_group_spec(text)
        assert parse_group_spec(render_group_spec(spec)) == spec


def test_parse_error_reports_position():
    with pytest.raises(GroupParseError) as info:
        parse_group_spec("Z<t> x Q<v>")
    assert info.value.position == 7


@pytest.mark.parametrize("text", ["", "Z<t> Z<s>", "Z<t> x", "1 2", "Z/0<u>",
                                  "Z/3<u,v>", "Z / 3<u>", "F<>", "Z<t,>", "Z<2t>"])
def test_malformed_group_specs_raise_parse_errors(text):
    with pytest.raises(GroupParseError):
        parse_group_spec(text)


@pytest.mark.parametrize("parse, text", [
    (parse_ring, "2*"),
    (parse_ring, "1 *"),
    (parse_word, "t^1_0"),
    (parse_word, "t^\u0663"),
    (lambda text, _: parse_group_spec(text), "Z/\u0663<u>"),
])
def test_tightened_literals_raise_parse_errors(parse, text):
    # numbers are ASCII digits, and a coefficient's * must be followed by a
    # word
    with pytest.raises(GroupParseError):
        parse(text, parse_group_spec("Z<t>"))


def test_relators_rejected_as_undecidable():
    with pytest.raises(UnsupportedClassError):
        parse_group_spec("<x,y | x^2=y^3>")


def test_duplicate_generators_rejected():
    with pytest.raises(UnsupportedClassError):
        parse_group_spec("Z<t> x F<t,y>")


@pytest.mark.parametrize("text", ["1", "F<x>", "F<x,y>", "Z<t>", "Z<a,b>",
                                  "F<x,y> x Z/3<u>"])
def test_spec_kernels_stay_out_of_equality_hash_and_repr(text):
    # each parse binds its own kernels; equal specs stay equal, hash alike
    # and print alike, and so do the Words over them
    a, b = parse_group_spec(text), parse_group_spec(text)
    direct = GroupSpec(a.factors)
    copied = pickle.loads(pickle.dumps(a))
    for other in (b, direct, copied):
        assert a is not other and a == other and hash(a) == hash(other)
        assert repr(a) == repr(other) == f"GroupSpec(factors={a.factors!r})"
        assert Word(a, ()) == Word(other, ())
    assert "_mul" not in repr(a) and "_inv" not in repr(a)
    letters = tuple((name, 1) for name in a.generators)
    assert copied._mul(letters, copied._inv(letters)) == ()
    # the negation table fills as a's kernel inverts, and still takes no
    # part in equality, hashing or repr; a pickled copy starts it empty
    words = [letters, ref_normalize([(name, -3) for name in reversed(a.generators)],
                                    a).letters]
    for w in words:
        a._inv(w)
    assert a._negated.__self__ or not any(fac.kind == FREE for fac in a.factors)
    for other in (b, direct):
        assert a == other and hash(a) == hash(other) and repr(a) == repr(other)
        assert "_neg" not in repr(a)
    refilled = pickle.loads(pickle.dumps(a))
    assert refilled == a and refilled._negated.__self__ == {}
    for w in words:
        want = ref_normalize([(n, -e) for n, e in reversed(w)], a).letters
        assert refilled._inv(w) == a._inv(w) == want


@pytest.mark.parametrize("preset,params", [
    ("aspherical", {"group": "F<x,y>", "mode": "circles", "s": "x"}),
    ("aspherical", {"group": "Z<t> x Z/2<u>", "mode": "circles", "s": "t*u"}),
    ("three_mfd", {"group": "F<x,y> x Z/3<u>", "mode": "circles", "s": "x",
                   "phi": "circle"}),
    ("s1_x_sphere", {"w0": 3}),
])
def test_a_dropped_spec_is_freed_without_the_cycle_collector(preset, params):
    # the kernels are bound to the spec's parts, not to the spec, so a spec
    # whose kernels built a relation set is in no reference cycle
    scene = preset_expand(preset, params)
    ref = weakref.ref(scene.group)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rs, action = build_relations(scene, 3)
        assert rs.columns and rs.spec is ref()
        del scene, rs, action
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


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
    # their raw letters by the reference, hashes included
    spec = parse_group_spec("F<x,y> x Z<t> x Z/3<u>")
    rng = rng_for("word-invariants")
    words = [random_word(rng, spec, max_syllables=5) for _ in range(30)]
    for a in words:
        ref = ref_normalize([(n, -e) for n, e in reversed(a.letters)], spec)
        a_inv = inv(a)
        assert a_inv == ref and a_inv.letters == ref.letters
        assert hash(a_inv) == hash(ref) == hash((spec._hash, ref.letters))
        for b in words:
            ref = ref_normalize(a.letters + b.letters, spec)
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


def test_every_product_case_matches_renormalizing():
    # one named example per case of mul_letters, each operand and product
    # inverted too; the reference renormalizes the concatenated letters
    # without the product (``normalize`` joins letters with it)
    spec = parse_group_spec("F<x,y> x Z<t> x Z/3<u>")
    cases = {
        "one factor on the left": ("t^2", "x*y*t*u"),
        "one factor on the left, wrapping in Z/m": ("u^2", "x*u"),
        "one factor on the right": ("x*y*t^-1*u", "y^-1"),
        "one factor between the other's": ("x*u", "t"),
        "disjoint, in order": ("x*y", "t*u"),
        "disjoint, reversed": ("u^2", "x*t"),
        "same factor": ("x*y", "y^-1*x"),
        "mixed x mixed": ("x*t*u", "x^-1*y*t^-1*u"),
        "mixed x mixed, seams cancel": ("y*x*t^2*u", "x^-1*y^-1*t^-2*u^2"),
        "Z/m wraps to the identity": ("u", "u^2"),
        "Z wraps to the identity": ("t^3", "t^-3"),
    }
    for name, (left, right) in cases.items():
        g, h = parse_word(left, spec), parse_word(right, spec)
        gh = mul(g, h)
        assert gh == ref_normalize(g.letters + h.letters, spec), name
        assert spec._mul(g.letters, h.letters) == gh.letters, name
        for w in (g, h, gh):
            want = ref_normalize([(n, -e) for n, e in reversed(w.letters)], spec)
            assert inv(w) == want, name
            assert spec._inv(w.letters) == want.letters, name
    assert mul(parse_word("t^3", spec), parse_word("t^-3", spec)).is_identity
    assert mul(parse_word("x*u", spec), parse_word("u^2", spec)) == parse_word("x", spec)


def test_long_raw_word_normalizes_by_halves():
    # 20,000 raw letters over a free and a free-abelian factor: joined in
    # halves they take hundredths of a second, and a left fold of the same
    # products, quadratic in the length, takes seconds
    spec = parse_group_spec("F<x,y> x Z<a,b>")
    letters = [("x", 1), ("a", 1), ("y", -1), ("b", 1)] * 5000
    start = time.perf_counter()
    w = normalize(letters, spec)
    assert time.perf_counter() - start < 1.0
    assert w.letters == (("x", 1), ("y", -1)) * 5000 + (("a", 5000), ("b", 5000))


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


def test_rank_one_free_ball_is_the_powers():
    # F<x> takes the one-generator branch, as Z<t> does: x^n and x^-n per
    # sphere.  It takes hundredths of a second; the syllable loop of a free
    # factor, which tries n syllables per sphere, takes seconds
    spec = parse_group_spec("F<x>")
    start = time.perf_counter()
    got = ball(spec, 2999, limit=6000)
    assert time.perf_counter() - start < 0.5
    assert got == [()] + [(("x", e),) for n in range(1, 3000) for e in (n, -n)]


def test_ball_deterministic_and_sorted():
    spec = parse_group_spec("F<x,y>")
    b1 = ball_words(spec, 3)
    b2 = ball_words(spec, 3)
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
