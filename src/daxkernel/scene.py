"""Scene files, presets, and canonical serialization.

A scene is the full input to a computation: ambient dimension, mode,
group, basepoint classes, sphere-class pairing data, whisker table, knots.
Scene files are TOML 1.0, read with ``tomllib``; one schema states the type
of every scene value.  Emission is canonical, so emit -> parse -> emit is
the identity.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

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
from .traces import HomotopyTrace, KnotRecord

PRESET_NAMES = (
    "disk_d",
    "solid_torus_arcs",
    "solid_torus_circles",
    "s1_x_sphere",
    "aspherical",
    "three_mfd",
    "product_DkY",
)


@dataclass(frozen=True)
class ManifoldScene:
    dimension: int
    mode: str
    group: GroupSpec
    u_class: Word
    s_class: Word
    sphere_generators: tuple[SphereClass, ...] = ()
    whisker: tuple[tuple[Word, RingElem], ...] = ()
    window: int | None = None
    preset: str | None = None
    notes: tuple[str, ...] = ()
    knots: tuple[KnotRecord, ...] = ()

    def __post_init__(self):
        if self.mode not in (ARCS, CIRCLES):
            raise SceneError(f"mode must be 'arcs' or 'circles', got {self.mode!r}")
        if self.dimension < 3:
            raise SceneError("dimension must be >= 3")
        if self.mode == ARCS and not self.s_class.is_identity:
            raise SceneError("arcs scenes carry no circle class")
        if self.window is not None and self.window < 1:
            raise SceneError("window must be >= 1")
        if self.whisker and self.mode != CIRCLES:
            raise SceneError("whisker tables only make sense in circles mode")

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
        a = replace(a, lambda_u=lambda_letters(spec, a, short))
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

def _phi_rows(spec: GroupSpec) -> dict[str, str]:
    """Pairing rows of the removed-ball boundary sphere: 1 - g^-1 per generator."""
    rows = {}
    for g in spec.generators:
        rows[g] = f"1 - {g}^-1"
    return rows


def preset_expand(name: str, params: dict | None = None) -> ManifoldScene:
    """Expand a named preset into a fully explicit scene."""
    p = dict(params or {})

    def take(key, default=None, schema=None):
        if key not in p:
            return default
        value = p.pop(key)
        _check(value, schema or _PARAM_SCHEMA[key], key, "parameter")
        return value

    def take_int(key, default=None):
        value = take(key, default)
        if value is None:
            raise SceneError(f"preset {name!r} needs parameter {key}")
        return value

    def take_group():
        """The group text, parsed once here so that an error names the
        parameter."""
        group = take("group")
        if group is None:
            raise SceneError(f"preset {name!r} needs parameter group")
        try:
            parse_group_spec(group)
        except GroupParseError as exc:
            raise SceneError(f"parameter 'group' must be a group spec: {exc}") from None
        return group

    if name == "disk_d":
        d = take_int("d", 5)
        scene = make_scene(d, ARCS, "1", preset=name,
                           notes=("simply connected: embedded and immersed arcs"
                                  " agree through the first interesting degree",))
    elif name == "solid_torus_arcs":
        d = take_int("d", 5)
        scene = make_scene(d, ARCS, "Z<t>", preset=name,
                           notes=("aspherical interior: no sphere classes, the"
                                  " target stays the free module on the window",))
    elif name == "solid_torus_circles":
        d = take_int("d", 5)
        k0 = take_int("k0")
        scene = make_scene(d, CIRCLES, "Z<t>", u=f"t^{k0}" if k0 else "1",
                           s=f"t^{k0}" if k0 else "1", preset=name)
    elif name == "s1_x_sphere":
        d = take_int("d", 5)
        w0 = take_int("w0")
        if d < 4:
            raise SceneError("s1_x_sphere needs dimension >= 4")
        notes = ()
        if d == 4:
            notes = ("dimension 4: the embedding-space group is the displayed"
                     " quotient plus one extra free summand from immersions",)
        # the arc is the circle minus the ball, so its group image is the
        # circle class itself; the sphere row lambda(i2, u) follows by the
        # derivation rule from lambda(i2, t) = 1
        scene = make_scene(
            d, CIRCLES, "Z<t>",
            u=f"t^{w0}" if w0 else "1",
            s=f"t^{w0}" if w0 else "1",
            sphere_generators=[{
                "name": "i2",
                "embedded": True,
                "lambda_gen": {"t": "1"},
            }],
            preset=name, notes=notes)
    elif name == "aspherical":
        group = take_group()
        d = take_int("d", 5)
        mode = take("mode", ARCS)
        s = take("s", "1")
        u = take("u", "1")
        scene = make_scene(d, mode, group, u=u, s=s, preset=name)
    elif name == "three_mfd":
        group = take_group()
        mode = take("mode", ARCS)
        s = take("s", "1")
        u = take("u", "1")
        spheres = [{"embedded": True, **entry} for entry in
                   take("spheres", [])]
        phi = take("phi", "none")
        if phi not in ("none", "boundary_arc", "circle"):
            raise SceneError("phi must be one of none, boundary_arc, circle")
        if phi != "none":
            spec = parse_group_spec(group)
            lam_u = ("0" if phi == "boundary_arc" else
                     render_ring(R.one(spec) - R.monomial(inv(parse_word(s, spec)))))
            spheres.append({
                "name": "phi",
                "embedded": True,
                "lambda_gen": _phi_rows(spec),
                "lambda_u": lam_u,
            })
        scene = make_scene(3, mode, group, u=u, s=s, sphere_generators=spheres,
                           whisker=take("whisker", {}),
                           preset=name)
    elif name == "product_DkY":
        group = take_group()
        d = take_int("d", 5)
        spheres = take("spheres", {}, {str: str})
        gens = [{
            "name": nm,
            "embedded": False,
            "base_dax": val,
            "lambda_u": "0",
        } for nm, val in sorted(spheres.items())]
        scene = make_scene(d, ARCS, group, sphere_generators=gens, preset=name,
                           notes=("product with a disk factor: all pairing rows"
                                  " vanish, relations are conjugated base values",))
    else:
        raise SceneError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")

    if "window" in p:
        scene = replace(scene, window=take_int("window"))
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
# The type of every preset parameter; product_DkY takes its own `spheres`, a
# table of sphere names to base values.
_PARAM_SCHEMA = {
    "d": int, "k0": int, "w0": int, "window": int,
    "group": str, "mode": str, "s": str, "u": str, "phi": str,
    "spheres": _SCHEMA["sphere_generators"], "whisker": _SCHEMA["whisker"],
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
