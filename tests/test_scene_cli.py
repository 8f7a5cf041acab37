import json
import os
import re
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import daxkernel
from daxkernel.errors import DaxKernelError, SceneError
from daxkernel.groups import parse_group_spec, parse_word
from daxkernel.ring import parse_ring
from daxkernel.cli import main, run_scene
from daxkernel.scene import (
    ManifoldScene,
    dumps_scene,
    load_scene_file,
    loads_scene,
    make_scene,
    preset_expand,
    scene_from_dict,
    scene_to_dict,
)

from conftest import is_trivial, replace

Z = parse_group_spec("Z<t>")


# -- presets --------------------------------------------------------------------

def test_disk_preset():
    sc = preset_expand("disk_d", {"d": 5})
    assert is_trivial(sc.group) and sc.mode == "arcs"
    assert sc.sphere_generators == ()


def test_bg_preset_fields():
    sc = preset_expand("s1_x_sphere", {"d": 5, "w0": 3})
    assert sc.mode == "circles"
    assert sc.s_class == parse_word("t^3", Z)
    assert sc.u_class == parse_word("t^3", Z)
    i2 = sc.sphere_generators[0]
    assert i2.embedded
    assert i2.lambda_u == parse_ring("1 + t^-1 + t^-2", Z)


def test_bg_preset_d4_note():
    sc = preset_expand("s1_x_sphere", {"d": 4, "w0": 2})
    assert any("extra free summand" in n for n in sc.notes)
    assert not preset_expand("s1_x_sphere", {"d": 5, "w0": 2}).notes


def test_solid_torus_circles_preset():
    sc = preset_expand("solid_torus_circles", {"d": 5, "k0": 2})
    assert sc.s_class == parse_word("t^2", Z)
    assert sc.sphere_generators == ()


def test_aspherical_preset():
    sc = preset_expand("aspherical", {"group": "Z<a,b>", "d": 6,
                                      "mode": "circles", "s": "a^2*b"})
    assert sc.dimension == 6
    assert sc.s_class == parse_word("a^2*b", sc.group)


def test_three_mfd_preset_phi_circle():
    sc = preset_expand("three_mfd", {"group": "F<x,y>", "mode": "circles",
                                     "s": "x", "phi": "circle"})
    phi = sc.sphere_generators[0]
    assert phi.lambda_u == parse_ring("1 - x^-1", sc.group)
    assert phi.lambda_of("y") == parse_ring("1 - y^-1", sc.group)


def test_product_preset_relations_are_conjugated_base_values():
    sc = preset_expand("product_DkY",
                       {"group": "Z/3<u>", "d": 5,
                        "spheres": {"s1": "u - u^2"}})
    rep = run_scene(sc, "target", window=1)
    assert [e["value"] for e in rep["relations"]] == ["u - u^2"]
    assert rep["structure"]["free_rank"] == 1
    assert rep["structure"]["torsion"] == []


@pytest.mark.parametrize("name,params,message", [
    ("klein_bottle", {}, "unknown preset 'klein_bottle'; known: disk_d, solid_torus_arcs,"
     " solid_torus_circles, s1_x_sphere, aspherical, three_mfd, product_DkY"),
    ("solid_torus_circles", {"d": 5}, "preset 'solid_torus_circles' needs parameter k0"),
    ("s1_x_sphere", {"d": 5}, "preset 's1_x_sphere' needs parameter w0"),
    ("aspherical", {"d": 5}, "preset 'aspherical' needs parameter group"),
    ("three_mfd", {}, "preset 'three_mfd' needs parameter group"),
    ("product_DkY", {"d": 5}, "preset 'product_DkY' needs parameter group"),
    ("s1_x_sphere", {"d": 5, "w0": 1, "bogus": 3, "extra": 1},
     "unused preset parameters: bogus, extra"),
    ("s1_x_sphere", {"d": 3, "w0": 1}, "s1_x_sphere needs dimension >= 4"),
    ("three_mfd", {"group": "Z<t>", "phi": "sphere"},
     "phi must be one of none, boundary_arc, circle"),
    ("aspherical", {"group": "Q<x>"}, "parameter 'group' must be a group spec: "),
    ("disk_d", {"window": 0}, "window must be >= 1"),
])
def test_unknown_preset_and_missing_params(name, params, message):
    with pytest.raises(SceneError, match="^" + re.escape(message)):
        preset_expand(name, params)


# -- scene validation --------------------------------------------------------------

def test_arcs_scene_rejects_circle_class():
    with pytest.raises(SceneError):
        make_scene(5, "arcs", "Z<t>", s="t")


def test_scene_rejects_low_dimension():
    with pytest.raises(SceneError):
        make_scene(2, "arcs", "Z<t>")


def test_scene_rejects_whisker_outside_circles():
    with pytest.raises(SceneError):
        make_scene(5, "arcs", "Z<t>", whisker={"t": "0"})


def test_scene_unknown_key_rejected():
    with pytest.raises(SceneError):
        scene_from_dict({"dimension": 5, "mode": "arcs", "group": "1",
                         "surprise": 1})


def test_scene_file_error_shows_the_whole_pairing_row(tmp_path):
    path = tmp_path / "bad.toml"
    path.write_text('dimension = 5\nmode = "arcs"\ngroup = "Z<t>"\n'
                    '[[sphere_generators]]\nname = "a"\n'
                    'lambda_gen = {t = "1 + t - 2*t^"}\n')
    with pytest.raises(SceneError) as info:
        load_scene_file(path)
    assert str(info.value).endswith("at position 10: '1 + t - 2*t^'")


# -- serialization -------------------------------------------------------------------

def scene_with_everything():
    return make_scene(
        3, "circles", "F<x,y> x Z<t>", u="x", s="x",
        sphere_generators=[{
            "name": "phi",
            "embedded": True,
            "lambda_gen": {"x": "1 - x^-1", "y": "1 - y^-1", "t": "1 - t^-1"},
            "lambda_u": "1 - x^-1",
        }],
        whisker={"t": "y - y^-1", "t^2": "2*y - 2*y^-1"},
        window=3,
        notes=("example scene",),
        knots=[{"name": "k1", "trace": [["+", "x*y"], ["-", "y"]]}],
    )


def test_round_trip_everything():
    sc = scene_with_everything()
    text = dumps_scene(sc)
    sc2 = loads_scene(text)
    assert dumps_scene(sc2) == text
    assert scene_to_dict(sc2) == scene_to_dict(sc)


@pytest.mark.parametrize("preset,params", [
    ("disk_d", {"d": 5}),
    ("solid_torus_arcs", {"d": 6}),
    ("solid_torus_circles", {"d": 5, "k0": 2}),
    ("s1_x_sphere", {"d": 4, "w0": 2}),
    ("aspherical", {"group": "F<x,y>", "d": 5}),
    ("three_mfd", {"group": "F<x,y> x Z<t>", "mode": "circles", "s": "x", "u": "x*y",
                   "phi": "circle", "spheres": [{"name": "a", "lambda_gen": {"t": "y"}}],
                   "whisker": {"t": "y - y^-1", "t^2": "2*y - 2*y^-1"}}),
    ("product_DkY", {"group": "Z/3<u> x F<x>", "d": 5,
                     "spheres": {"s1": "u - u^2", "s2": "2*x^-1"}}),
])
def test_round_trip_presets(preset, params):
    sc = preset_expand(preset, params)
    assert dumps_scene(loads_scene(dumps_scene(sc))) == dumps_scene(sc)


def test_scene_file_comments_and_whitespace():
    text = r"""
# a scene
dimension = 5
mode = "arcs"   # trailing comment
group = "Z<t>"
notes = ["a\\", "x\u0041"]  # an escaped backslash at the end, then a comment
"""
    sc = loads_scene(text)
    assert sc.dimension == 5 and sc.mode == "arcs"
    assert sc.notes == ("a\\", "xA")


def test_round_trip_note_ending_in_backslash():
    sc = preset_expand("s1_x_sphere", {"d": 5, "w0": 3})
    sc = replace(sc, notes=sc.notes + ("ends in \\",))
    text = dumps_scene(sc)
    assert "[[sphere_generators]]" in text.split("ends in")[1]
    assert dumps_scene(loads_scene(text)) == text


@given(notes=st.lists(st.text(), max_size=3), sphere=st.text(min_size=1),
       knot=st.text())
@example(notes=["a\nb", "\x7f", "\t\x00"], sphere='"', knot="\\")
@settings(max_examples=150, deadline=None)
def test_round_trip_any_string(notes, sphere, knot):
    sc = scene_with_everything()
    sc = replace(sc, notes=tuple(notes),
                 sphere_generators=(replace(sc.sphere_generators[0], name=sphere),),
                 knots=(replace(sc.knots[0], name=knot),))
    text = dumps_scene(sc)
    assert loads_scene(text) == sc
    assert dumps_scene(loads_scene(text)) == text


def _toml(value) -> str:
    """TOML text of a value, with every table inline.  A string outside the
    Basic Multilingual Plane comes out as a surrogate pair, which TOML
    rejects: that text, too, must give a typed error."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)} = {_toml(v)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_toml(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, float)):
        return repr(value)
    return value.isoformat()  # a date, a time or a datetime


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for k, v in items:
        yield from _paths(v, path + (k,))


TOML_VALUES = st.recursive(
    st.integers() | st.floats() | st.booleans() | st.text() | st.dates()
    | st.times() | st.datetimes(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fuzz_scene_text_loads_or_raises_typed_error(data):
    base = dumps_scene(scene_with_everything())
    how = data.draw(st.sampled_from(["replace", "truncate", "text"]))
    if how == "replace":
        # one value at any depth becomes a random TOML value
        tree = tomllib.loads(base)
        *parent, last = data.draw(st.sampled_from([p for p in _paths(tree) if p]))
        node = tree
        for k in parent:
            node = node[k]
        node[last] = data.draw(TOML_VALUES)
        text = "".join(f"{json.dumps(k)} = {_toml(v)}\n" for k, v in tree.items())
    elif how == "truncate":
        text = base[:data.draw(st.integers(0, len(base)))]
    else:
        text = data.draw(st.text())
    try:
        sc = loads_scene(text)
    except DaxKernelError:
        return
    assert isinstance(sc, ManifoldScene)


def test_multiline_trace_array():
    text = '\n'.join([
        'dimension = 3',
        'mode = "arcs"',
        'group = "F<x,y>"',
        '',
        '[[knots]]',
        'name = "k"',
        'trace = [["+", "x"],',
        '         ["-", "y"]]',
    ])
    sc = loads_scene(text)
    assert len(sc.knots[0].trace.events) == 2


# -- reports ----------------------------------------------------------------------------

def test_report_determinism():
    sc = preset_expand("s1_x_sphere", {"d": 5, "w0": 3})
    r1 = json.dumps(run_scene(sc, "target", window=5), sort_keys=True)
    r2 = json.dumps(run_scene(sc, "target", window=5), sort_keys=True)
    assert r1 == r2


def test_target_default_sweep_profile():
    sc = preset_expand("solid_torus_arcs", {"d": 5})
    rep = run_scene(sc, "target")
    assert rep["sweep"]["windows"] == [4, 6, 8, 10]
    assert rep["sweep"]["free_ranks"] == [8, 12, 16, 20]
    assert rep["profile"] == {"slope": "2", "intercept": "0", "linear": True}
    assert "truncated" not in rep["sweep"]


def test_target_sweep_builds_one_pairing_table(monkeypatch):
    """The default sweep's four windows share the scene's one pairing
    table, which stays out of the scene's equality, hash and repr."""
    from daxkernel import pairing

    built = [0]
    init = pairing.PairingTable.__init__

    def counting(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(pairing.PairingTable, "__init__", counting)
    sc = preset_expand("s1_x_sphere", {"d": 5, "w0": 3})
    fresh = replace(sc)
    rep = run_scene(sc, "target")
    assert rep["sweep"]["windows"] == [4, 6, 8, 10]
    assert built[0] == 1 and sc.table() is sc.table()
    assert sc == fresh and hash(sc) == hash(fresh) and repr(sc) == repr(fresh)


def test_eval_report():
    sc = make_scene(3, "arcs", "F<x,y>",
                    knots=[{"name": "u0", "trace": []},
                           {"name": "k", "trace": [["+", "x"]]}])
    rep = run_scene(sc, "eval", window=2)
    by_name = {k["name"]: k for k in rep["knots"]}
    assert by_name["u0"]["value"] == "0"
    assert by_name["k"]["residue"] != "0"


def test_z1_generator_in_a_knot_trace():
    # u names the identity of Z/1<u>: a knot that uses it is the one without
    x_y = [{"name": "k", "trace": [["+", "x*y"], ["-", "y^-1*x"]]}]
    x_u_y = [{"name": "k", "trace": [["+", "x*u*y"], ["-", "u^2*y^-1*x*u^-1"]]}]
    reports = [run_scene(make_scene(3, "arcs", group, knots=knots), "eval", window=3)
               for group, knots in (("F<x,y>", x_y), ("F<x,y> x Z/1<u>", x_u_y))]
    assert reports[1]["knots"] == reports[0]["knots"]
    assert reports[1]["knots"][0]["value"] == "x*y - y^-1*x"
    assert reports[1]["structure"] == reports[0]["structure"]


def test_concordance_report():
    sc = make_scene(3, "arcs", "Z<t>",
                    knots=[{"name": "k", "trace": [["+", "t^-1"], ["+", "t"]]}])
    rep = run_scene(sc, "concordance", window=2)
    assert rep["knots"][0]["mu2"] == "2*t"
    assert rep["structure_folded"]["free_rank"] == 2
    assert rep["added_relations"] == 2


def test_orbit_report_requires_3d_circles():
    sc = preset_expand("solid_torus_arcs", {"d": 5})
    with pytest.raises(Exception):
        run_scene(sc, "orbit", window=3)


def test_orbit_report():
    sc = make_scene(3, "circles", "Z<t>", u="t", s="t",
                    knots=[{"name": "k", "trace": [["+", "t^2"]]}])
    rep = run_scene(sc, "orbit", window=3, extra_value="t^2 + t^-1")
    assert rep["action"]["s"] == "t"
    names = [o["name"] for o in rep["orbits"]]
    assert names == ["k", "value"]
    assert all(o["complete"] for o in rep["orbits"])


# -- command line -------------------------------------------------------------------------

def test_cli_target_json(capsys):
    code = main(["target", "--preset", "s1_x_sphere",
                 "--param", "d=5", "--param", "w0=3", "--window", "6", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["structure"] == {"free_rank": 6, "torsion": [2],
                                   "window": 6, "stable": True}


def test_cli_human_output(capsys):
    code = main(["target", "--preset", "disk_d", "--param", "d=5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "free rank 0" in out


def test_cli_scene_file(tmp_path, capsys):
    sc = preset_expand("solid_torus_circles", {"d": 6, "k0": 2})
    path = tmp_path / "scene.toml"
    path.write_text(dumps_scene(sc))
    code = main(["target", "--scene", str(path), "--window", "5", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["structure"]["torsion"] == [2]


def test_cli_scene_error_exit_code(capsys):
    assert main(["target", "--preset", "nope"]) == 2
    assert main(["target"]) == 2
    assert main(["target", "--preset", "s1_x_sphere",
                 "--param", "d=5", "--param", "w0=oops"]) == 2


def test_cli_whisker_on_a_far_power_of_the_circle_class_fails_fast(capsys):
    # the exponent of x^1000000000 is found in closed form, not walked to
    start = time.perf_counter()
    code = main(["orbit", "--preset", "three_mfd", "--param", "group=F<x,y>",
                 "--param", "mode=circles", "--param", "s=x", "--param", "u=x",
                 "--param", 'whisker={"x^1000000000": "y"}'])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == ("scene error: whisker value of x^1000000000 must"
                                       " vanish: it is a power of the circle class\n")
    assert elapsed < 1.0


def test_cli_window_overflow_exit_code(capsys):
    # circle class winds too far for the window: the base boundary relation
    # cannot be supported
    code = main(["target", "--preset", "solid_torus_circles",
                 "--param", "d=5", "--param", "k0=9", "--window", "3"])
    assert code == 3


def test_cli_ball_cap_exit_code(capsys):
    # the radius-8 ball of F<x,y> exceeds the generator cap
    code = main(["target", "--preset", "aspherical",
                 "--param", "group=F<x,y>", "--window", "8"])
    assert code == 3
    assert "window overflow" in capsys.readouterr().err


def test_cli_default_sweep_stops_at_ball_cap(capsys):
    # W=4 and W=6 answer; the radius-8 ball exceeds the cap and ends the sweep
    argv = ["target", "--preset", "aspherical", "--param", "group=F<x,y>"]
    assert main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["window"] == 6
    assert report["sweep"]["windows"] == [4, 6]
    assert report["sweep"]["truncated"] == 8
    # two windows always lie on a line: the fit cannot tell
    assert report["profile"]["linear"] is None
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if "truncated" in ln] == [
        "  sweep truncated at W=8: its ball exceeds 6000 elements"]
    assert "  free-rank profile: 648*W - 2432 (linear=None)" in lines


def _enumerated_radii(monkeypatch):
    """The radii at which ``groups.ball`` builds factor spheres."""
    from daxkernel import groups
    radii = []
    spheres = groups._factor_spheres

    def recording(fac, first, radius):
        radii.append(radius)
        return spheres(fac, first, radius)

    monkeypatch.setattr(groups, "_factor_spheres", recording)
    return radii


def test_cli_sweep_truncates_without_enumerating(capsys, monkeypatch):
    # the sweep answers W=4 and W=6 and stops at W=8, whose ball is counted
    # past the cap but never built
    radii = _enumerated_radii(monkeypatch)
    argv = ["target", "--preset", "aspherical", "--param", "group=F<x,y>"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if "truncated" in ln] == [
        "  sweep truncated at W=8: its ball exceeds 6000 elements"]
    assert radii == [4, 6]


def test_cli_window_past_cap_exits_without_enumerating(capsys, monkeypatch):
    radii = _enumerated_radii(monkeypatch)
    assert main(["target", "--preset", "aspherical", "--param", "group=F<x,y>",
                 "--window", "12"]) == 3
    assert capsys.readouterr().err == (
        "window overflow: ball of radius 12 exceeds 6000 elements;"
        " use a smaller window\n")
    assert radii == []


def test_cli_default_sweep_without_answer_exit_code(capsys):
    # a ball cap at the sweep's first window leaves no smaller answer
    assert main(["target", "--preset", "aspherical",
                 "--param", "group=F<a,b,c,d,e,f>"]) == 3
    assert "ball of radius 4 exceeds" in capsys.readouterr().err
    # a base relation that overflows is not a ball cap: no truncation
    assert main(["target", "--preset", "solid_torus_circles",
                 "--param", "d=5", "--param", "k0=9"]) == 3
    assert "base relation" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["target"], "a scene is required: --scene FILE or --preset NAME"),
    (["target", "--param", "d=5"], "--param applies to --preset only"),
    (["target", "--scene", "scene.toml", "--preset", "disk_d"],
     "give either --scene or --preset, not both"),
    (["target", "--preset", "disk_d", "--param", "d5"], "--param expects K=V, got 'd5'"),
    (["eval", "--preset", "s1_x_sphere", "--param", "w0=3", "--window", "4",
      "--value", "t^2"],
     "--value applies to the orbit command only, not eval"),
])
def test_cli_flag_errors_are_usage_errors(capsys, argv, flag):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {flag}\n"


def test_cli_orbit_rejects_whisker_breaking_the_law_on_an_inverse_pair(capsys):
    argv = ["orbit", "--preset", "three_mfd", "--param", "group=Z<t> x F<x,y>",
            "--param", "mode=circles", "--param", "s=x", "--window", "2"]
    assert main(argv + ["--param", 'whisker={"t":"y","t^-1":"y"}']) == 2
    assert "violates the action law on (t, t^-1)" in capsys.readouterr().err
    assert main(argv + ["--param", 'whisker={"t":"y","t^-1":"-y"}']) == 0


def cyclic_sphere_argv(order, row):
    return ["target", "--preset", "three_mfd", "--param", f"group=Z/{order}<u>",
            "--param", f'spheres=[{{"name":"a","lambda_gen":{{"u":"{row}"}}}}]',
            "--window", "2"]


def test_cli_cyclic_relator_is_checked_without_walking_its_power(capsys):
    """The relator u^m of a cyclic factor is checked on the cosets of <u>,
    not by m Fox steps: at m = 10^12 a consistent row answers at once and
    an inconsistent one names its coset."""
    start = time.perf_counter()
    assert main(cyclic_sphere_argv(10**12, "u - u^2")) == 0
    assert time.perf_counter() - start < 1.0
    assert main(cyclic_sphere_argv(10**12, "u")) == 2
    assert capsys.readouterr().err.endswith(
        f"relator u^{10**12} (the row of u sums to 1 on the coset <u>)\n")


def test_cli_derived_arc_row_takes_the_shortest_cyclic_exponent(capsys):
    """u^-1 is u^(m-1) in normal form; its arc row is derived as that of
    u^-1, one Fox step, not m - 1 of them."""
    start = time.perf_counter()
    assert main(cyclic_sphere_argv(10**12, "u - u^2") + ["--param", "u=u^-1"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "base relation -u^2 + u^3 exceeds" in capsys.readouterr().err


def test_cli_overflow_message_is_bounded(capsys):
    """A base relation of 99,999 terms is named by its first and last three
    terms and its term count."""
    assert main(["target", "--preset", "s1_x_sphere", "--param", "d=4",
                 "--param", "w0=100000", "--window", "3"]) == 3
    err = capsys.readouterr().err
    assert len(err.encode()) < 1000
    assert "t^-1 + t^-2 + t^-3 ... t^-99997 + t^-99998 + t^-99999 (99999 terms)" in err


def test_cli_base_relation_overflow_comes_before_whisker_errors(capsys):
    """Relation assembly runs before the whisker table is read: y does not
    centralize x^3, but the base boundary relation already leaves the
    window."""
    argv = ["target", "--preset", "three_mfd", "--param", "group=F<x,y>",
            "--param", "mode=circles", "--param", "s=x^3",
            "--param", 'whisker={"y":"0"}', "--window", "2"]
    assert main(argv) == 3
    assert "base relation -x^-3 exceeds the generator window" in capsys.readouterr().err
    assert main(argv[:-1] + ["4"]) == 2
    assert "y is not in the centralizer of x^3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["target", "--preset", "nope"],
    ["target", "--preset", "s1_x_sphere", "--param", "w0=oops"],
    ["orbit", "--preset", "s1_x_sphere", "--param", "w0=3", "--window", "4"],
])
def test_cli_scene_errors_keep_their_label(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("scene error: ")


def test_cli_param_without_preset_exit_code(tmp_path, capsys):
    # a scene file fixes its own parameters: d=7 would otherwise be ignored
    path = tmp_path / "scene.toml"
    path.write_text(dumps_scene(preset_expand("solid_torus_circles", {"d": 5, "k0": 2})))
    assert main(["target", "--scene", str(path), "--window", "3"]) == 0
    capsys.readouterr()
    assert main(["target", "--scene", str(path), "--param", "d=7"]) == 2
    assert "--param" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["target", "eval", "concordance"])
def test_cli_value_outside_orbit_exit_code(capsys, command):
    argv = [command, "--preset", "s1_x_sphere", "--param", "w0=3", "--window", "4"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--value", "t^2"]) == 2
    assert "--value" in capsys.readouterr().err
    sc = preset_expand("s1_x_sphere", {"w0": 3})
    with pytest.raises(DaxKernelError, match="orbit"):
        run_scene(sc, command, 4, extra_value="t^2")


def test_cli_bad_scene_file_exit_code(tmp_path):
    path = tmp_path / "broken.toml"
    path.write_text("dimension = 5\nmode = \"arcs\"\ngroup = \"Q<v>\"\n")
    assert main(["target", "--scene", str(path)]) == 2


TYPED_SCENE = {"dimension": "5", "mode": '"circles"', "group": '"Z<t>"',
               "u": '"1"', "s": '"t"', "window": "3"}


@pytest.mark.parametrize("key, value", [
    ("dimension", '"5"'), ("dimension", "true"), ("window", "true"),
    ("window", '"3"'), ("mode", "1"), ("group", "3"), ("u", "1"), ("s", "2")])
def test_cli_scene_value_type_exit_code(tmp_path, capsys, key, value):
    path = tmp_path / "typed.toml"
    path.write_text("".join(f"{k} = {v}\n" for k, v in TYPED_SCENE.items()))
    assert main(["target", "--scene", str(path)]) == 0
    capsys.readouterr()
    fields = dict(TYPED_SCENE, **{key: value})
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    assert main(["target", "--scene", str(path)]) == 2
    assert f"scene key {key!r} must be" in capsys.readouterr().err


DUPLICATE_KEY_SCENES = {  # scene text, and the line of the repeated key
    "top level": ('dimension = 5\nmode = "circles"\ngroup = "Z<t>"\n'
                  'dimension = 6\n', 4),
    "table": ('dimension = 5\nmode = "circles"\ngroup = "Z<t>"\n'
              '[whisker]\n"t" = "1"\n"t" = "2"\n', 6),
    "inline table": ('dimension = 5\nmode = "circles"\ngroup = "Z<t>"\n'
                     '[[sphere_generators]]\nname = "a"\n'
                     'lambda_gen = {t = "1", t = "2"}\n', 6),
    "array entry": ('dimension = 5\nmode = "circles"\ngroup = "Z<t>"\n'
                    '[[knots]]\nname = "k1"\nname = "k2"\ntrace = []\n', 6),
    "table twice": ('dimension = 5\nmode = "circles"\ngroup = "Z<t>"\n'
                    '[whisker]\n"t" = "1"\n[whisker]\n"t^2" = "2"\n', 6),
    "key and table": ('dimension = 5\nmode = "circles"\ngroup = "Z<t>"\n'
                      'knots = []\n[[knots]]\nname = "k"\ntrace = []\n', 5),
}


@pytest.mark.parametrize("case", sorted(DUPLICATE_KEY_SCENES))
def test_cli_duplicate_key_exit_code(tmp_path, capsys, case):
    text, line = DUPLICATE_KEY_SCENES[case]
    path = tmp_path / "dup.toml"
    path.write_text(text)
    assert main(["target", "--scene", str(path)]) == 2
    assert f"(at line {line}, column" in capsys.readouterr().err


BAD_VALUE_HEAD = 'dimension = 5\nmode = "circles"\ngroup = "Z<t>"\nu = "t"\ns = "t"\n'
GOOD_VALUE_TAIL = ('notes = ["n"]\npreset = "p"\n[whisker]\nt = "0"\n'
                   '[[sphere_generators]]\nname = "a"\nembedded = false\n'
                   'base_dax = "t + t^-1"\nlambda_gen = {t = "1"}\n'
                   '[[knots]]\nname = "k"\ntrace = [["+", "t"], [-1, "t^2"]]\n')
SPHERE, KNOT = '[[sphere_generators]]\nname = "a"\n', '[[knots]]\nname = "k"\n'


BAD_SCENE_VALUES = {  # text after BAD_VALUE_HEAD, and the key the error names
    "spheres not an array": ('sphere_generators = "x"\n', "sphere_generators"),
    "whisker not a table": ("whisker = [1]\n", "whisker"),
    "knots not an array": ('knots = "k"\n', "knots"),
    "notes not an array": ('notes = "hello"\n', "notes"),
    "note a date": ("notes = [1979-05-27]\n", "notes[0]"),
    "preset an integer": ("preset = 3\n", "preset"),
    "window a float": ("window = 5.0\n", "window"),
    "whisker value an integer": ("[whisker]\nt = 2\n", "whisker.t"),
    "base_dax an integer": (SPHERE + "base_dax = 3\n", "sphere_generators[0].base_dax"),
    "lambda_gen an array": (SPHERE + 'lambda_gen = ["t"]\n',
                            "sphere_generators[0].lambda_gen"),
    "lambda_gen row an integer": (SPHERE + "lambda_gen = {t = 1}\n",
                                  "sphere_generators[0].lambda_gen.t"),
    "embedded a string": (SPHERE + 'embedded = "no"\n', "sphere_generators[0].embedded"),
    "unknown sphere key": (SPHERE + 'colour = "red"\n', "sphere_generators[0].colour"),
    "sphere name an integer": ("[[sphere_generators]]\nname = 7\n",
                               "sphere_generators[0].name"),
    "knot without name": ("[[knots]]\ntrace = []\n", "knots[0].name"),
    "knot name an integer": ("[[knots]]\nname = 7\n", "knots[0].name"),
    "trace a string": (KNOT + 'trace = "t"\n', "knots[0].trace"),
    "trace pair too short": (KNOT + 'trace = [["+"]]\n', "knots[0].trace[0]"),
    "trace word an integer": (KNOT + 'trace = [["+", 3]]\n', "knots[0].trace[0][1]"),
    "trace sign a float": (KNOT + 'trace = [[1.0, "t"]]\n', "knots[0].trace[0][0]"),
    "trace sign a boolean": (KNOT + 'trace = [[true, "t"]]\n', "knots[0].trace[0][0]"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCENE_VALUES))
def test_cli_bad_scene_value_exit_code(tmp_path, capsys, case):
    tail, key = BAD_SCENE_VALUES[case]
    path = tmp_path / "bad.toml"
    path.write_text(BAD_VALUE_HEAD + GOOD_VALUE_TAIL)
    assert main(["target", "--scene", str(path)]) == 0
    capsys.readouterr()
    path.write_text(BAD_VALUE_HEAD + tail)
    assert main(["target", "--scene", str(path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("preset, params, key", [
    ("product_DkY", ["group=F<x,y>", 'spheres={"s1":3}'], "spheres.s1"),
    ("product_DkY", ["group=F<x,y>", "spheres=[1]"], "spheres"),
    ("three_mfd", ["group=Z<t>", "mode=circles", "s=t", 'whisker={"t":1}'],
     "whisker.t"),
    ("three_mfd", ["group=Z<t>", "spheres=[1]"], "spheres[0]"),
    ("three_mfd", ["group=Z<t>", "spheres=x"], "spheres"),
    ("aspherical", ["group=5"], "group"),
    ("s1_x_sphere", ["w0=true"], "w0"),
    ("s1_x_sphere", ["w0=oops"], "w0"),
])
def test_cli_bad_preset_parameter_exit_code(capsys, preset, params, key):
    argv = ["target", "--preset", preset, "--window", "2"]
    for param in params:
        argv += ["--param", param]
    assert main(argv) == 2
    assert f"parameter {key!r} must be" in capsys.readouterr().err


def run_child(*args):
    """Run a child interpreter that imports the same package copy as this one."""
    src = str(Path(daxkernel.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_cli_entry_point_runs():
    proc = run_child("-m", "daxkernel.cli", "target", "--preset", "disk_d")
    assert proc.returncode == 0
    assert "free rank 0" in proc.stdout


def test_cli_module_run_prints_no_warning():
    proc = run_child("-m", "daxkernel.cli", "target", "--preset",
                     "solid_torus_circles", "--param", "k0=2", "--window", "3")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "free rank 4, torsion none" in proc.stdout


def test_package_import_leaves_the_cli_unloaded():
    proc = run_child("-c", "import sys, daxkernel;"
                     " print(sorted({'argparse', 'fractions', 'daxkernel.cli'}"
                     " & set(sys.modules)));"
                     " from daxkernel import run_scene; print(run_scene.__module__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "daxkernel.cli"]
    with pytest.raises(AttributeError):
        daxkernel.no_such_name


@pytest.mark.parametrize("params", [
    ["group=1"],
    ["group=Z<t>", "mode=circles", "s=1", "u=1"],
    ["group=Z<t>", "mode=circles", "s=t", "u=1", "d=5"],
])
def test_cli_trivial_spellings_stay_strings(capsys, params):
    argv = ["target", "--preset", "aspherical", "--window", "2", "--json"]
    for param in params:
        argv += ["--param", param]
    assert main(argv) == 0
    scene = json.loads(capsys.readouterr().out)["scene"]
    assert scene["group"] == params[0].split("=")[1] and scene["u"] == "1"


def test_cli_preset_parameter_types():
    from daxkernel.scene import coerce_param
    assert coerce_param("w0", "3") == 3
    assert coerce_param("w0", "true") == "true"  # rejected by preset_expand
    assert coerce_param("group", "1") == "1"
    assert coerce_param("whisker", '{"t": "1"}') == {"t": "1"}
    assert coerce_param("spheres", "x") == "x"
    with pytest.raises(SceneError, match="'spheres' is not valid JSON"):
        coerce_param("spheres", "[{")
    # the preset itself still rejects a value of the wrong type
    with pytest.raises(SceneError, match="parameter 'group' must be a string"):
        preset_expand("aspherical", {"group": 1})
