"""Seeded scene corpora for the three benchmark workloads.

Each workload is a fixed list of op templates.  The group, the window and the
command of every template are fixed, so the cost of an op stays comparable
across seeds; the seed picks knot traces, values and preset parameters.  The
scenes are written as scene text here, without calling the package, so the
inputs do not depend on the version of the program under test.

Every workload has seven templates.  Runs time whole passes over the list,
so each template contributes the same number of samples, and the median and
the 90th percentile fall inside one template's cluster of latencies (3.5/7
and 6.3/7) rather than on the edge between two.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import asdict, dataclass

WORKLOADS = ("target_sweep", "eval_knots", "orbit_3mfd")


@dataclass(frozen=True)
class Op:
    """One command on one scene: the unit the benchmark times."""

    op_id: str
    command: str           # target | eval | concordance | orbit | universality
    scene_text: str
    window: int | None     # None: the scene's default sweep (target only)
    extra_value: str | None = None               # orbit only
    values: dict[str, list[int]] | None = None   # universality only
    pair: str | None = None  # eval op on the same scene and window


# ---------------------------------------------------------------------------
# scene text
# ---------------------------------------------------------------------------

_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def _key(k: str) -> str:
    return k if _BARE_KEY.match(k) else json.dumps(k)


def _value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return json.dumps(v)
    if isinstance(v, list):
        return "[" + ", ".join(_value(x) for x in v) + "]"
    return "{" + ", ".join(f"{_key(k)} = {_value(x)}" for k, x in v.items()) + "}"


def scene_text(dimension: int, mode: str, group: str, u: str = "1",
               s: str = "1", preset: str | None = None, spheres=(),
               whisker: dict | None = None, knots=()) -> str:
    """Scene file text in the TOML subset that ``scene.loads_scene`` reads."""
    lines = [f"dimension = {dimension}", f"mode = {_value(mode)}",
             f"group = {_value(group)}", f"u = {_value(u)}"]
    if mode == "circles":
        lines.append(f"s = {_value(s)}")
    if preset:
        lines.append(f"preset = {_value(preset)}")
    if whisker:
        lines += ["", "[whisker]"]
        lines += [f"{_key(k)} = {_value(v)}" for k, v in whisker.items()]
    for entry in spheres:
        lines += ["", "[[sphere_generators]]"]
        lines += [f"{_key(k)} = {_value(v)}" for k, v in entry.items()]
    for name, trace in knots:
        lines += ["", "[[knots]]", f"name = {_value(name)}",
                  f"trace = {_value([list(ev) for ev in trace])}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# seeded pieces: words, ring elements, traces
# ---------------------------------------------------------------------------

def word(rng: random.Random, gens, max_len: int, min_len: int = 1) -> str:
    """A raw word of length min_len..max_len with no adjacent repeated letter."""
    remaining = rng.randint(min_len, max_len)
    letters: list[tuple[str, int]] = []
    while remaining:
        choices = [g for g in gens if not letters or g != letters[-1][0]]
        e = remaining if len(gens) == 1 else rng.randint(1, remaining)
        letters.append((rng.choice(choices), rng.choice((1, -1)) * e))
        remaining -= e
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in letters)


def inverse(w: str) -> str:
    """Inverse of a raw word written by ``word``."""
    out = []
    for part in reversed(w.split("*")):
        g, _, e = part.partition("^")
        e = -int(e or 1)
        out.append(g if e == 1 else f"{g}^{e}")
    return "*".join(out)


def ring(rng: random.Random, gens, max_len: int, terms: int,
         min_len: int = 1, finite=()) -> str:
    """A ring element with distinct non-identity words and small coefficients.

    Words made only of the generators in ``finite`` (of finite order) are
    skipped, since they can reduce to the identity."""
    words: list[str] = []
    while len(words) < terms:
        w = word(rng, gens, max_len, min_len)
        if w not in words and not set(re.findall(r"[a-z]+", w)) <= set(finite):
            words.append(w)
    text = ""
    for i, w in enumerate(words):
        c = rng.choice((1, 1, 2, 3))
        body = w if c == 1 else f"{c}*{w}"
        text += body if i == 0 else f" {rng.choice('+-')} {body}"
    return text


def knots(rng: random.Random, gens, count: int, max_len: int,
          repeat_first: bool = False):
    """``count`` knots, each a trace of 3..6 signed loops of length <= max_len."""
    out = []
    for i in range(count):
        trace = [("+" if rng.random() < 0.5 else "-", word(rng, gens, max_len))
                 for _ in range(rng.randint(3, 6))]
        out.append((f"k{i + 1}", trace))
    if repeat_first and count > 1:
        out[-1] = (out[-1][0], list(out[0][1]))
    return out


def principal_row(r_words, coeffs, g: str) -> str:
    """Pairing row r*(1 - g^-1), which satisfies the derivation rule on every
    relator, written term by term."""
    parts = []
    for w, c in zip(r_words, coeffs):
        mag = "" if c == 1 else f"{c}*"
        parts.append(f"{mag}{w} - {mag}{w}*{g}^-1")
    return " + ".join(parts)


def embedded_sphere(rng: random.Random, name: str, gens) -> dict:
    """An embedded class with principal rows r*(1 - g^-1), where r is a
    combination of two generators or inverses."""
    r_words = rng.sample([g if e == 1 else f"{g}^-1" for g in gens for e in (1, -1)], 2)
    coeffs = [rng.randint(1, 2) for _ in r_words]
    return {"name": name, "embedded": True,
            "lambda_gen": {g: principal_row(r_words, coeffs, g) for g in gens}}


def phi_sphere(gens, s: str, kind: str) -> dict:
    """The removed ball's boundary sphere, as the ``three_mfd`` preset writes it."""
    return {"name": "phi", "embedded": True,
            "lambda_gen": {g: f"1 - {g}^-1" for g in gens},
            "lambda_u": "0" if kind == "boundary_arc" else f"1 - {inverse(s)}"}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# The seed picks odd ambient dimensions only: the parity of d sets the sign
# in the boundary-sphere formula, and with it the shape of the elimination
# (Z<a,b> eval at W=10 takes about 120 ms for even d and 230 ms for odd d).
ODD_D = (5, 7)


def _s1_x_sphere(rng, knot_list=(), w0_choices=(3, 4)):
    """Circles in S^1 x S^(d-1) winding w0 times; each step in w0 adds about
    4 % to the cost of building the relations, so the seed picks from two."""
    d = rng.choice(ODD_D)
    w0 = rng.choice(w0_choices)
    return scene_text(d, "circles", "Z<t>", u=f"t^{w0}", s=f"t^{w0}",
                      preset="s1_x_sphere",
                      spheres=[{"name": "i2", "embedded": True,
                                "lambda_gen": {"t": "1"}}],
                      knots=knot_list)


def _aspherical(rng, group, gens, knot_list=()):
    """Circles with no sphere classes; the circle class s is a product of two
    different generators with seeded signs and order."""
    d = rng.choice(ODD_D)
    s = "*".join(g if rng.random() < 0.5 else f"{g}^-1" for g in rng.sample(gens, 2))
    return scene_text(d, "circles", group, u=s, s=s, preset="aspherical",
                      knots=knot_list)


def target_sweep(rng: random.Random) -> list[Op]:
    """Relation building only: ball enumeration, word normal forms and the
    dax formulas, then the sparse elimination behind the structure."""
    prod_sphere = {"name": "s1", "embedded": False,
                   "base_dax": ring(rng, ["x", "y"], 2, 2, min_len=2),
                   "lambda_u": "0"}
    k0 = rng.randint(1, 3)
    return [
        Op("s1_x_sphere.W30", "target", _s1_x_sphere(rng), 30),
        Op("s1_x_sphere.W40", "target", _s1_x_sphere(rng), 40),
        # the sweep starts at W=4, which must hold the base relation t^-w0
        Op("s1_x_sphere.sweep", "target", _s1_x_sphere(rng, w0_choices=(2, 3)), None),
        Op("solid_torus_circles.sweep", "target",
           scene_text(rng.choice(ODD_D), "circles", "Z<t>", u=f"t^{k0}",
                      s=f"t^{k0}", preset="solid_torus_circles"), None),
        Op("aspherical.F2.W6", "target", _aspherical(rng, "F<x,y>", ["x", "y"]), 6),
        Op("aspherical.Z2.W14", "target", _aspherical(rng, "Z<a,b>", ["a", "b"]), 14),
        Op("product_DkY.F2.W6", "target",
           scene_text(rng.choice(ODD_D), "arcs", "F<x,y>", preset="product_DkY",
                      spheres=[prod_sphere]), 6),
    ]


def eval_knots(rng: random.Random) -> list[Op]:
    """Coordinates, residues and the concordance fold: the dense transform
    behind ``QuotientSolver.coords`` and the repeated eliminations.

    Knot counts are fixed per scene and only the traces are seeded, because
    each knot adds a residue and a coordinate transform to the op.  In both
    universality scenes the last knot repeats the first one's trace.  On the
    ``s1_x_sphere`` scene the two get the same values, so a solution is
    expected, and ``w_map`` costs a coordinate transform per generator; on
    the ``Z<t> x Z/2<u>`` scene they get different values, which forces a
    witness.  Fixing the kind per scene keeps the cost of each op steady.
    """
    zab = _aspherical(rng, "Z<a,b>", ["a", "b"], knots(rng, ["a", "b"], 4, 6))
    f2 = _aspherical(rng, "F<x,y>", ["x", "y"], knots(rng, ["x", "y"], 5, 3))
    s1_knots = knots(rng, ["t"], 4, 20, repeat_first=True)
    s1 = _s1_x_sphere(rng, s1_knots)
    tu_knots = knots(rng, ["t", "u"], 6, 8, repeat_first=True)
    tu_s = rng.choice(["t*u", "t^2*u", "t", "t^3"])
    tu = scene_text(rng.choice(ODD_D), "circles", "Z<t> x Z/2<u>", u=tu_s,
                    s=tu_s, preset="aspherical", knots=tu_knots)

    def values(knot_list, same: bool):
        vals = {name: [rng.randint(-3, 3) for _ in range(2)] for name, _ in knot_list}
        first, last = knot_list[0][0], knot_list[-1][0]
        vals[last] = list(vals[first]) if same else [v + 1 for v in vals[first]]
        return vals

    return [
        Op("aspherical.Z2.W10.eval", "eval", zab, 10),
        Op("aspherical.F2.W4.eval", "eval", f2, 4),
        Op("aspherical.F2.W4.concordance", "concordance", f2, 4),
        Op("s1_x_sphere.W30.eval", "eval", s1, 30),
        Op("s1_x_sphere.W30.universality", "universality", s1, 30,
           values=values(s1_knots, True), pair="s1_x_sphere.W30.eval"),
        Op("aspherical.Z_x_Z2.W12.eval", "eval", tu, 12),
        Op("aspherical.Z_x_Z2.W12.universality", "universality", tu, 12,
           values=values(tu_knots, False), pair="aspherical.Z_x_Z2.W12.eval"),
    ]


def _three_mfd(rng, group, gens, s, phi=None, spheres=0, whisker=None,
               knot_count=3, max_loop=3):
    classes = [phi_sphere(gens, s, phi)] if phi else []
    classes += [embedded_sphere(rng, f"b{i + 1}", gens) for i in range(spheres)]
    return scene_text(3, "circles", group, u=s, s=s, preset="three_mfd",
                      spheres=classes, whisker=whisker,
                      knots=knots(rng, gens, knot_count, max_loop))


def orbit_3mfd(rng: random.Random) -> list[Op]:
    """Circles in dimension three: the embedded-formula assembly, the
    per-knot solver of the orbit reduction and whisker validation."""
    f2 = ["x", "y"]
    zab = ["a", "b"]
    ff = ["x", "y", "z", "v"]
    fz3 = ["x", "y", "u"]
    # circle classes of length two with both generators, so the relation
    # sets of different seeds have the same shape
    s_f2 = rng.choice(["x*y", "x^-1*y", "y*x", "x*y^-1"])
    s_zab = rng.choice(["a*b", "a^-1*b", "a*b^-1", "a^-1*b^-1"])
    return [
        Op("three_mfd.F2.circle.W4.orbit", "orbit",
           _three_mfd(rng, "F<x,y>", f2, s_f2, phi="circle"), 4,
           extra_value=ring(rng, f2, 3, 2)),
        Op("three_mfd.F2.boundary_arc.W4.eval", "eval",
           _three_mfd(rng, "F<x,y>", f2, s_f2, phi="boundary_arc"), 4),
        Op("embedded.F2.W3.eval", "eval",
           _three_mfd(rng, "F<x,y>", f2, "x", spheres=2,
                      whisker={"x^2": "0"}), 3),
        Op("embedded.Z2.W5.eval", "eval",
           _three_mfd(rng, "Z<a,b>", zab, s_zab, phi="circle", spheres=1,
                      whisker={"b": ring(rng, zab, 2, 2, min_len=2)}, max_loop=4), 5),
        Op("embedded.Z2.W4.orbit", "orbit",
           _three_mfd(rng, "Z<a,b>", zab, s_zab, phi="circle", spheres=1,
                      whisker={"b": ring(rng, zab, 2, 2, min_len=2)}), 4,
           extra_value=ring(rng, zab, 3, 2)),
        Op("embedded.F2_x_F2.W3.orbit", "orbit",
           _three_mfd(rng, "F<x,y> x F<z,v>", ff, "x", spheres=1,
                      whisker={"z": ring(rng, f2, 2, 2, min_len=2)},
                      max_loop=2), 3,
           extra_value=ring(rng, ff, 2, 2)),
        Op("embedded.F2_x_Z3.W3.orbit", "orbit",
           _three_mfd(rng, "F<x,y> x Z/3<u>", fz3, "x", phi="circle",
                      spheres=1, whisker={"u": ring(rng, f2, 2, 2, min_len=2)}), 3,
           extra_value=ring(rng, fz3, 3, 2, finite=("u",))),
    ]


def build(workload: str, seed: int) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"dax-kernel-bench::{workload}::{seed}")
    return globals()[workload](rng)


def digest(ops: list[Op]) -> str:
    """SHA-256 of the generated inputs, so two runs can be shown to match."""
    blob = json.dumps([asdict(op) for op in ops], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
