"""Golden report bytes and extra cross-checked scenes."""

import json

import pytest

from daxkernel.groups import inv, parse_group_spec, parse_word
from daxkernel import ring as R
from daxkernel.ring import gr_bar_reduce, monomial
from daxkernel.quotient import (
    QuotientSolver,
    build_rel_circles,
    column,
    quotient_structure,
)
from daxkernel.scene import preset_expand
from daxkernel.cli import run_scene

from conftest import ball_words, dense

GOLDEN_SOLID_TORUS = {
    "command": "target",
    "dropped_relations": [
        {"provenance": "boundary_sphere", "value": "-t^2 - t^-4"},
        {"provenance": "boundary_sphere", "value": "-t^3 - t^-5"},
    ],
    "generators": ["t", "t^-1", "t^2", "t^-2", "t^3", "t^-3"],
    "notes": [],
    "profile": {"intercept": None, "linear": True, "slope": None},
    "relations": [
        {"provenance": "boundary_sphere", "value": "-t^-2"},
        {"provenance": "boundary_sphere", "value": "-2*t^-1"},
        {"provenance": "boundary_sphere", "value": "-t - t^-3"},
    ],
    "scene": {
        "dimension": 6,
        "group": "Z<t>",
        "mode": "circles",
        "preset": "solid_torus_circles",
        "s": "t^2",
        "u": "t^2",
    },
    "structure": {"free_rank": 3, "stable": True, "torsion": [2], "window": 3},
    "sweep": {"free_ranks": [3], "stable": [True], "torsion": [[2]],
              "windows": [3]},
    "window": 3,
}


def test_golden_solid_torus_report():
    sc = preset_expand("solid_torus_circles", {"d": 6, "k0": 2})
    rep = run_scene(sc, "target", window=3)
    assert json.loads(json.dumps(rep, sort_keys=True)) == GOLDEN_SOLID_TORUS


def sympy_structure(rows, n_gens):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    if not rows:
        return n_gens, []
    s = sympy_snf(Matrix(rows).T, domain=ZZ)
    diag = [s[i, i] for i in range(min(s.shape))]
    return (n_gens - sum(1 for d in diag if d),
            sorted(abs(d) for d in diag if abs(d) > 1))


@pytest.mark.parametrize("group,s,d,window", [
    ("F<x,y>", "x", 5, 3),
    ("F<x,y>", "x*y", 4, 2),
    ("Z<t> x Z/2<u>", "t*u", 6, 3),
    ("Z/5<u>", "u^2", 5, 4),
])
def test_aspherical_circles_matches_direct_boundary_family(group, s, d, window):
    """Circles with no sphere classes: the quotient is cut out by the
    boundary family alone, rebuilt here directly from its closed form."""
    sc = preset_expand("aspherical", {"group": group, "d": d,
                                      "mode": "circles", "s": s})
    spec = sc.group
    rs = build_rel_circles(sc.context(), {}, window)
    solver = QuotientSolver(rs)

    s_word = parse_word(s, spec)
    sign = 1 if (d - 1) % 2 == 0 else -1
    gens_set = set(rs.generators)
    direct = set()
    from daxkernel.groups import mul
    for g in ball_words(spec, window):
        val = gr_bar_reduce(R.gr_add(monomial(inv(g), sign),
                                     monomial(mul(g, inv(s_word)), -1)))
        if not val.is_zero and all(w in gens_set for w in val.support()):
            direct.add(val)
    assert set(rs.relations) == direct

    st = quotient_structure(rs)
    free, torsion = sympy_structure([dense(column(solver.letter_index, r),
                                           len(solver.letters))
                                     for r in direct],
                                    len(rs.generators))
    assert (st.free_rank, list(st.torsion)) == (free, torsion)


def test_finite_group_window_saturates():
    # once the window covers the whole finite group the structure is exact
    sc = preset_expand("aspherical", {"group": "Z/5<u>", "d": 5,
                                      "mode": "circles", "s": "u"})
    structures = []
    for window in (2, 3, 4):
        rs = build_rel_circles(sc.context(), {}, window)
        st = quotient_structure(rs)
        structures.append((st.free_rank, st.torsion))
    assert structures[0] == structures[1] == structures[2]
