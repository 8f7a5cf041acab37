"""Shared test helpers: group corpus and consistent random pairing data."""

import random

import pytest

from daxkernel.groups import GroupSpec, inv, normalize, parse_group_spec
from daxkernel import ring as R
from daxkernel.pairing import PairingTable, SphereClass, sphere_class
from daxkernel.calculus import arcs_context, circles_context

GROUP_TEXTS = [
    "1",
    "Z<t>",
    "Z<a,b>",
    "F<x,y>",
    "F<x,y,z>",
    "Z/3<u>",
    "Z/5<u>",
    "Z<t> x Z/2<u>",
    "F<x,y> x Z<t>",
]


@pytest.fixture(scope="session")
def specs():
    return [parse_group_spec(t) for t in GROUP_TEXTS]


def rng_for(name: str) -> random.Random:
    return random.Random(f"dax-kernel::{name}")


def random_word(rng, spec, max_syllables=3, max_exp=2):
    gens = spec.generators
    if not gens:
        return spec.identity()
    letters = []
    for _ in range(rng.randint(0, max_syllables)):
        e = rng.randint(1, max_exp) * rng.choice((1, -1))
        letters.append((rng.choice(gens), e))
    return normalize(letters, spec)


def random_ring(rng, spec, max_terms=3, max_coeff=3):
    acc = {}
    for _ in range(rng.randint(0, max_terms)):
        w = random_word(rng, spec)
        acc[w] = acc.get(w, 0) + rng.randint(-max_coeff, max_coeff)
    return R.from_terms(spec, acc)


def principal_rows(spec, r):
    """Rows lambda(a, g) = r*(1 - g^-1): consistent for every supported group."""
    rows = {}
    for g in spec.generators:
        gbar = R.monomial(inv(spec.word([(g, 1)])))
        rows[g] = R.gr_mul(r, R.gr_add(R.one(spec), R.gr_neg(gbar)))
    return rows


def is_pure_free(spec: GroupSpec) -> bool:
    return len(spec.factors) == 1 and spec.factors[0].kind == "free"


def random_class(rng, spec, name="a", embedded=None) -> SphereClass:
    """A sphere class whose rows satisfy the derivation-rule constraints."""
    if embedded is None:
        embedded = rng.random() < 0.5
    if is_pure_free(spec) and rng.random() < 0.5:
        rows = {g: random_ring(rng, spec) for g in spec.generators}
    else:
        rows = principal_rows(spec, random_ring(rng, spec))
    lambda_u = random_ring(rng, spec)
    base = R.zero(spec) if embedded else R.gr_bar_reduce(random_ring(rng, spec))
    return sphere_class(spec, name, embedded, base, lambda_u, rows)


def phi_class(spec, s_word, name="phi") -> SphereClass:
    """Boundary sphere of a removed ball: rows 1 - g^-1, arc row 1 - s^-1."""
    rows = {}
    for g in spec.generators:
        rows[g] = R.gr_add(R.one(spec),
                           R.monomial(inv(spec.word([(g, 1)])), -1))
    lam_u = R.gr_add(R.one(spec), R.monomial(inv(s_word), -1))
    return sphere_class(spec, name, True, R.zero(spec), lam_u, rows)


def table_for(spec, classes, d=5, u=None) -> PairingTable:
    return PairingTable(spec, d, tuple(classes),
                        spec.identity() if u is None else u)


def random_arcs_context(rng, spec, d=None, n_classes=None):
    d = d if d is not None else rng.choice((3, 4, 5, 6))
    n = n_classes if n_classes is not None else rng.randint(0, 2)
    classes = [random_class(rng, spec, name=f"a{i}") for i in range(n)]
    return arcs_context(table_for(spec, classes, d=d))


def random_circles_context(rng, spec, d=None):
    d = d if d is not None else rng.choice((3, 4, 5, 6))
    s = random_word(rng, spec)
    classes = [phi_class(spec, s)]
    if rng.random() < 0.5:
        classes.append(random_class(rng, spec, name="b"))
    return circles_context(table_for(spec, classes, d=d), s)


def reference_structure(rs):
    """quotient_structure from three separate eliminations: the
    window, and its restrictions to the windows W-1 and W-2."""
    from daxkernel.quotient import AbelianStructure, restrict_relationset
    from daxkernel.snf import sparse_rank_and_torsion

    def eliminate(sub):
        index = {w: i for i, w in enumerate(sub.generators)}
        cols = [{index[w]: c for w, c in rel.items()} for rel in sub.relations]
        return sparse_rank_and_torsion(cols, len(sub.generators))

    whole = eliminate(rs)
    prev = eliminate(restrict_relationset(rs, rs.window - 1)).torsion
    stable = whole.torsion == prev
    if rs.window >= 2 and stable:
        stable = prev == eliminate(restrict_relationset(rs, rs.window - 2)).torsion
    return AbelianStructure(len(rs.generators) - whole.rank, tuple(whole.torsion),
                            rs.window, stable)
