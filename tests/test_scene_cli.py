import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import daxkernel
from daxkernel.errors import SceneError
from daxkernel.groups import parse_group_spec, parse_word
from daxkernel.ring import parse_ring
from daxkernel.cli import main, run_scene
from daxkernel.scene import (
    dumps_scene,
    loads_scene,
    make_scene,
    preset_expand,
    scene_from_dict,
    scene_to_dict,
)

Z = parse_group_spec("Z<t>")


# -- presets --------------------------------------------------------------------

def test_disk_preset():
    sc = preset_expand("disk_d", {"d": 5})
    assert sc.group.is_trivial and sc.mode == "arcs"
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


def test_unknown_preset_and_missing_params():
    with pytest.raises(SceneError):
        preset_expand("klein_bottle", {})
    with pytest.raises(SceneError):
        preset_expand("s1_x_sphere", {"d": 5})
    with pytest.raises(SceneError):
        preset_expand("s1_x_sphere", {"d": 5, "w0": 1, "bogus": 3})


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
])
def test_round_trip_presets(preset, params):
    sc = preset_expand(preset, params)
    assert dumps_scene(loads_scene(dumps_scene(sc))) == dumps_scene(sc)


def test_scene_file_comments_and_whitespace():
    text = """
# a scene
dimension = 5
mode = "arcs"   # trailing comment
group = "Z<t>"
"""
    sc = loads_scene(text)
    assert sc.dimension == 5 and sc.mode == "arcs"


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


def test_eval_report():
    sc = make_scene(3, "arcs", "F<x,y>",
                    knots=[{"name": "u0", "trace": []},
                           {"name": "k", "trace": [["+", "x"]]}])
    rep = run_scene(sc, "eval", window=2)
    by_name = {k["name"]: k for k in rep["knots"]}
    assert by_name["u0"]["value"] == "0"
    assert by_name["k"]["residue"] != "0"


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


def test_cli_bad_scene_file_exit_code(tmp_path):
    path = tmp_path / "broken.toml"
    path.write_text("dimension = 5\nmode = \"arcs\"\ngroup = \"Q<v>\"\n")
    assert main(["target", "--scene", str(path)]) == 2


def test_cli_entry_point_runs():
    # the child interpreter imports the same package copy as this one
    src = str(Path(daxkernel.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "daxkernel.cli", "target", "--preset", "disk_d"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "free rank 0" in proc.stdout
