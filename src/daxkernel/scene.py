"""Scene files, presets, and canonical serialization.

A scene is the full input to a computation: ambient dimension, mode,
group, basepoint classes, sphere-class pairing data, whisker table, knots.
Scene files are TOML 1.0, read with ``tomllib``; one schema states the type
of every scene value.  Emission is canonical, so emit -> parse -> emit is
the identity.
"""

from __future__ import annotations

import re

from .errors import GroupParseError, SceneError
from .groups import (
    GroupSpec,
    Word,
    inv,
    parse_group_spec,
    parse_word,
    render_group_spec,
    render_word,
    shortest_exponent,
    word_key,
)
from . import ring as R
from .ring import RingElem, parse_ring, render_ring
from .pairing import PairingTable, SphereClass, lambda_letters, sphere_class
from .calculus import ARCS, CIRCLES, DaxContext
from .record import Frozen, set_field
from .traces import HomotopyTrace, KnotRecord


class ManifoldScene(Frozen):
    _fields = ("dimension", "mode", "group", "u_class", "s_class", "sphere_generators",
               "whisker", "window", "preset", "notes", "knots")

    def __init__(self, dimension: int, mode: str, group: GroupSpec, u_class: Word,
                 s_class: Word, sphere_generators: tuple[SphereClass, ...] = (),
                 whisker: tuple[tuple[Word, RingElem], ...] = (), window: int | None = None,
                 preset: str | None = None, notes: tuple[str, ...] = (),
                 knots: tuple[KnotRecord, ...] = ()):
        if mode not in (ARCS, CIRCLES):
            raise SceneError(f"mode must be 'arcs' or 'circles', got {mode!r}")
        if dimension < 3:
            raise SceneError("dimension must be >= 3")
        if mode == ARCS and not s_class.is_identity:
            raise SceneError("arcs scenes carry no circle class")
        if window is not None and window < 1:
            raise SceneError("window must be >= 1")
        if whisker and mode != CIRCLES:
            raise SceneError("whisker tables only make sense in circles mode")
        set_field(self, "dimension", dimension)
        set_field(self, "mode", mode)
        set_field(self, "group", group)
        set_field(self, "u_class", u_class)
        set_field(self, "s_class", s_class)
        set_field(self, "sphere_generators", sphere_generators)
        set_field(self, "whisker", whisker)
        set_field(self, "window", window)
        set_field(self, "preset", preset)
        set_field(self, "notes", notes)
        set_field(self, "knots", knots)

    def table(self) -> PairingTable:
        return PairingTable(self.group, self.dimension, self.sphere_generators,
                            self.u_class)

    def context(self) -> DaxContext:
        return DaxContext(self.table(), self.s_class, self.mode)

    def whisker_map(self) -> dict[Word, RingElem]:
        return dict(self.whisker)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def _class_from_fields(spec: GroupSpec, u_class: Word, fields: dict) -> SphereClass:
    name = fields.get("name")
    if not name:
        raise SceneError("sphere generator needs a name")
    base_dax = parse_ring(fields.get("base_dax", "0"), spec)
    lambda_gen = {g: parse_ring(v, spec)
                  for g, v in (fields.get("lambda_gen") or {}).items()}
    for g in lambda_gen:
        spec.factor_of(g)
    lambda_u = fields.get("lambda_u")
    a = sphere_class(spec, name, bool(fields.get("embedded", False)), base_dax,
                     parse_ring("0" if lambda_u is None else lambda_u, spec), lambda_gen)
    if lambda_u is None:
        # derive the arc row from the group image of the basepoint arc, over
        # its shortest letters, which the table's check of the relator g^m
        # allows
        short = [(gen, shortest_exponent(e, spec.factor_of(gen)[1].order))
                 for gen, e in u_class.letters]
        a = SphereClass(a.name, a.embedded, a.base_dax, lambda_letters(spec, a, short),
                        a.lambda_gen)
    return a


def make_scene(dimension: int, mode: str, group: str, u: str = "1", s: str = "1",
               sphere_generators=(), whisker: dict | None = None,
               window: int | None = None, preset: str | None = None, notes=(),
               knots=()) -> ManifoldScene:
    """The scene of the fields of a scene table, as a scene file holds them:
    the group, words and ring elements as text, sphere generators and knots
    as tables.  ``scene_from_dict`` and every preset build scenes here."""
    spec = parse_group_spec(group)
    u_class = parse_word(u, spec)
    s_class = parse_word(s, spec)
    classes = tuple(_class_from_fields(spec, u_class, c) for c in sphere_generators)
    wh = sorted(((parse_word(k, spec), parse_ring(v, spec))
                 for k, v in (whisker or {}).items()), key=lambda kv: word_key(kv[0]))
    knot_records = []
    for k in knots:
        events = []
        for sign, loop in k.get("trace", []):
            sgn = 1 if sign in (1, "+", "+1") else -1 if sign in (-1, "-", "-1") else None
            if sgn is None:
                raise SceneError(f"bad trace sign {sign!r} in knot {k.get('name')!r}")
            events.append((sgn, parse_word(loop, spec)))
        knot_records.append(KnotRecord(k["name"], HomotopyTrace(tuple(events))))
    return ManifoldScene(dimension, mode, spec, u_class, s_class, classes, tuple(wh),
                         window, preset, tuple(notes), tuple(knot_records))


# ---------------------------------------------------------------------------
# presets: the worked examples with their pairing data filled in
# ---------------------------------------------------------------------------

def _s1_x_sphere(d: int, w0: int) -> dict:
    if d < 4:
        raise SceneError("s1_x_sphere needs dimension >= 4")
    # the arc is the circle minus the ball, so its group image is the
    # circle class itself; the sphere row lambda(i2, u) follows by the
    # derivation rule from lambda(i2, t) = 1
    return dict(dimension=d, mode=CIRCLES, group="Z<t>", u=f"t^{w0}", s=f"t^{w0}",
                sphere_generators=[{"name": "i2", "embedded": True,
                                    "lambda_gen": {"t": "1"}}],
                notes=("dimension 4: the embedding-space group is the displayed"
                       " quotient plus one extra free summand from immersions",)
                if d == 4 else ())


def _phi_sphere(group: str, s: str, phi: str) -> list[dict]:
    """The removed-ball boundary sphere of a dimension-3 scene, if ``phi``
    asks for one: its pairing row is 1 - g^-1 per generator g, and its arc
    row is 0 for a boundary arc and 1 - s^-1 for a circle."""
    if phi not in ("none", "boundary_arc", "circle"):
        raise SceneError("phi must be one of none, boundary_arc, circle")
    if phi == "none":
        return []
    spec = parse_group_spec(group)
    lam_u = ("0" if phi == "boundary_arc" else
             render_ring(R.one(spec) - R.monomial(inv(parse_word(s, spec)))))
    return [{"name": "phi", "embedded": True, "lambda_u": lam_u,
             "lambda_gen": {g: f"1 - {g}^-1" for g in spec.generators}}]


# the default of a parameter that the caller must give
_NEEDED = object()
# Every preset, in the order an unknown name lists them: its parameters in
# the order they are checked, each with its default, and the builder of
# make_scene's text fields from their values.  Every preset also takes
# `window`.
PRESETS = {
    "disk_d": ({"d": 5}, lambda d: dict(
        dimension=d, mode=ARCS, group="1",
        notes=("simply connected: embedded and immersed arcs"
               " agree through the first interesting degree",))),
    "solid_torus_arcs": ({"d": 5}, lambda d: dict(
        dimension=d, mode=ARCS, group="Z<t>",
        notes=("aspherical interior: no sphere classes, the"
               " target stays the free module on the window",))),
    "solid_torus_circles": ({"d": 5, "k0": _NEEDED}, lambda d, k0: dict(
        dimension=d, mode=CIRCLES, group="Z<t>", u=f"t^{k0}", s=f"t^{k0}")),
    "s1_x_sphere": ({"d": 5, "w0": _NEEDED}, _s1_x_sphere),
    "aspherical": ({"group": _NEEDED, "d": 5, "mode": ARCS, "s": "1", "u": "1"},
                   lambda d, **fields: dict(dimension=d, **fields)),
    "three_mfd": ({"group": _NEEDED, "mode": ARCS, "s": "1", "u": "1", "spheres": [],
                   "phi": "none", "whisker": {}},
                  lambda group, s, spheres, phi, **fields: dict(
                      dimension=3, group=group, s=s, **fields,
                      sphere_generators=[{"embedded": True, **entry} for entry in spheres]
                      + _phi_sphere(group, s, phi))),
    "product_DkY": ({"group": _NEEDED, "d": 5, "spheres": {}}, lambda group, d, spheres: dict(
        dimension=d, mode=ARCS, group=group,
        sphere_generators=[{"name": nm, "embedded": False, "base_dax": val, "lambda_u": "0"}
                           for nm, val in sorted(spheres.items())],
        notes=("product with a disk factor: all pairing rows"
               " vanish, relations are conjugated base values",))),
}


def preset_expand(name: str, params: dict | None = None) -> ManifoldScene:
    """Expand a named preset into a fully explicit scene."""
    if name not in PRESETS:
        raise SceneError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}")
    declared, build = PRESETS[name]
    p = dict(params or {})
    values = {}
    for key, default in {**declared, "window": None}.items():
        if key in p:
            _check(p[key], _PARAM_SCHEMA.get((name, key), _PARAM_SCHEMA[key]), key,
                   "parameter")
        elif default is _NEEDED:
            raise SceneError(f"preset {name!r} needs parameter {key}")
        values[key] = p.pop(key, default)
        if key == "group":
            # parsed once here, so that an error names the parameter
            try:
                parse_group_spec(values[key])
            except GroupParseError as exc:
                raise SceneError(f"parameter 'group' must be a group spec: {exc}") from None
    window = values.pop("window")
    scene = make_scene(**build(**values), window=window, preset=name)
    if p:
        raise SceneError(f"unused preset parameters: {', '.join(sorted(p))}")
    return scene


# ---------------------------------------------------------------------------
# scene files (TOML)
# ---------------------------------------------------------------------------

def scene_to_dict(scene: ManifoldScene) -> dict:
    out: dict = {
        "dimension": scene.dimension,
        "mode": scene.mode,
        "group": render_group_spec(scene.group),
        "u": render_word(scene.u_class),
    }
    if scene.mode == CIRCLES:
        out["s"] = render_word(scene.s_class)
    if scene.window is not None:
        out["window"] = scene.window
    if scene.preset:
        out["preset"] = scene.preset
    if scene.notes:
        out["notes"] = list(scene.notes)
    if scene.sphere_generators:
        out["sphere_generators"] = [{
            "name": a.name,
            "embedded": a.embedded,
            "base_dax": render_ring(a.base_dax),
            "lambda_u": render_ring(a.lambda_u),
            "lambda_gen": {g: render_ring(row) for g, row in a.lambda_gen
                           if not row.is_zero},
        } for a in scene.sphere_generators]
    if scene.whisker:
        out["whisker"] = {render_word(k): render_ring(v) for k, v in scene.whisker}
    if scene.knots:
        out["knots"] = [{
            "name": k.name,
            "trace": [["+" if s > 0 else "-", render_word(w)]
                      for s, w in k.trace.events],
        } for k in scene.knots]
    return out


# The type of every scene value, at every depth.  A list gives the schema of
# each item of an array, a dict the keys of a table ({str: ...} for a table
# with any keys), and a tuple the items of a fixed-length array: a trace's
# [sign, word] pairs, whose sign is "+", "-", "+1", "-1", 1 or -1.
_SIGN = str | int
_SCHEMA = {
    "dimension": int, "mode": str, "group": str, "u": str, "s": str,
    "window": int, "preset": str, "notes": [str],
    "sphere_generators": [{"name": str, "embedded": bool, "base_dax": str,
                           "lambda_u": str, "lambda_gen": {str: str}}],
    "whisker": {str: str},
    "knots": [{"name": str, "trace": [(_SIGN, str)]}],
}
# The type of every preset parameter; a (preset, parameter) key gives the
# type for that preset alone: product_DkY takes its own `spheres`, a table of
# sphere names to base values.
_PARAM_SCHEMA = {
    "d": int, "k0": int, "w0": int, "window": int,
    "group": str, "mode": str, "s": str, "u": str, "phi": str,
    "spheres": _SCHEMA["sphere_generators"], "whisker": _SCHEMA["whisker"],
    ("product_DkY", "spheres"): {str: str},
}
# keys that every table whose schema names them must hold
_REQUIRED = ("dimension", "mode", "group", "name")
_NOUNS = {int: "an integer", str: "a string", bool: "a boolean",
          _SIGN: "a sign (+ or -)"}


def coerce_param(key: str, text: str):
    """A preset parameter given as text, as on the command line, typed by
    its schema: an integer parameter reads as an int when it spells one, an
    array or table as JSON, and anything else stays a string, so that
    ``group=1`` names the trivial group.  ``preset_expand`` checks the type."""
    schema = _PARAM_SCHEMA.get(key, str)
    if schema is str:
        return text
    if schema is int:
        try:
            return int(text)
        except ValueError:
            return text
    if text[:1] not in "[{":
        return text
    import json
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"parameter {key!r} is not valid JSON: {exc}") from None


def _check(value, schema, path: str, what: str = "scene key") -> None:
    """Raise SceneError unless value has the type schema gives it, at every
    depth.  path names the value, as in ``knots[0].trace``; what says whose
    key it is (a scene key or a preset parameter)."""
    def fail(noun):
        raise SceneError(f"{what} {path!r} must be {noun}, got {value!r}")

    if isinstance(schema, dict):
        if not isinstance(value, dict):
            fail("a table")
        prefix = f"{path}." if path else ""
        if str in schema:
            for k, v in value.items():
                _check(v, schema[str], f"{prefix}{k}", what)
            return
        unknown = sorted(set(value) - set(schema))
        if unknown:
            raise SceneError(f"unknown {what}s: {', '.join(prefix + k for k in unknown)}")
        for key in _REQUIRED:
            if key in schema and key not in value:
                raise SceneError(f"missing required {what} {prefix + key!r}")
        for k, v in value.items():
            _check(v, schema[k], prefix + k, what)
    elif isinstance(schema, list):
        if not isinstance(value, list):
            fail("an array")
        for i, item in enumerate(value):
            _check(item, schema[0], f"{path}[{i}]", what)
    elif isinstance(schema, tuple):
        if not isinstance(value, list) or len(value) != len(schema):
            fail("a [sign, word] pair")
        for i, (item, sub) in enumerate(zip(value, schema)):
            _check(item, sub, f"{path}[{i}]", what)
    # bool is a subclass of int, but `window = true` is not a window
    elif not isinstance(value, schema) or (isinstance(value, bool) and schema is not bool):
        fail(_NOUNS[schema])


def scene_from_dict(data: dict) -> ManifoldScene:
    _check(data, _SCHEMA, "")
    return make_scene(**data)


def dumps_scene(scene: ManifoldScene) -> str:
    return _dump_toml(scene_to_dict(scene))


def loads_scene(text: str) -> ManifoldScene:
    # imported here, not at the top: tomllib pulls in datetime, which would
    # make `import daxkernel` measurably slower for every command
    import tomllib
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SceneError(f"scene file: {exc}") from None
    return scene_from_dict(data)


def load_scene_file(path) -> ManifoldScene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from None
    try:
        return loads_scene(text)
    except GroupParseError as exc:
        raise SceneError(f"bad literal in scene file {path}: {exc}") from None


# -- writer ------------------------------------------------------------------

def _quote(s: str) -> str:
    # a JSON string is a TOML basic string, except that TOML also escapes DEL
    import json
    return json.dumps(s, ensure_ascii=False).replace("\x7f", "\\u007f")


def _inline_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_inline_value(x) for x in v) + "]"
    if isinstance(v, dict):
        inner = ", ".join(f"{_key(k)} = {_inline_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    raise SceneError(f"cannot serialize value {v!r}")


_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def _key(k: str) -> str:
    return k if _BARE_KEY.match(k) else _quote(k)


def _dump_toml(data: dict) -> str:
    lines = []
    tables = {}
    arrays = {}
    for k, v in data.items():
        if isinstance(v, dict):
            tables[k] = v
        elif isinstance(v, list) and v and all(isinstance(x, dict) for x in v):
            arrays[k] = v
        else:
            lines.append(f"{_key(k)} = {_inline_value(v)}")
    for name, table in tables.items():
        lines.append("")
        lines.append(f"[{name}]")
        for k, v in table.items():
            lines.append(f"{_key(k)} = {_inline_value(v)}")
    for name, entries in arrays.items():
        for entry in entries:
            lines.append("")
            lines.append(f"[[{name}]]")
            for k, v in entry.items():
                lines.append(f"{_key(k)} = {_inline_value(v)}")
    return "\n".join(lines) + "\n"
