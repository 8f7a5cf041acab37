"""Command line front end: scene ingestion, computation, report emission.

    dax-kernel target|eval|concordance|orbit
        (--scene FILE | --preset NAME [--param k=v ...])
        [--window W] [--value RING] [--json]

Exit codes: 0 success, 2 usage or scene error, 3 window overflow.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BallOverflowError, DaxKernelError, UsageError, WindowOverflowError
from .groups import render_letters, render_word
from .ring import parse_ring, render_terms
from .calculus import CIRCLES
from . import quotient as Q
from .traces import dax_of_knot, eval_dax_trace, mu2_reduce
from .scene import (
    ManifoldScene,
    coerce_param,
    load_scene_file,
    preset_expand,
    scene_to_dict,
)

DEFAULT_SWEEP = (4, 6, 8, 10)


def build_relations(scene: ManifoldScene, window: int):
    """Relation set and orbit-action data (3-manifold circles only)."""
    ctx = scene.context()
    if scene.dimension == 3:
        return Q.build_rel_3mfd(ctx, window, whisker=scene.whisker_map())
    if scene.mode == CIRCLES:
        return Q.build_rel_circles(ctx, scene.whisker_map(), window), None
    return Q.build_rel_arcs(ctx, window), None


def _structure_dict(st: Q.AbelianStructure) -> dict:
    return {"free_rank": st.free_rank, "torsion": list(st.torsion),
            "window": st.window, "stable": st.stable}


def _report(command: str, scene: ManifoldScene, rs: Q.RelationSet,
            structure: Q.AbelianStructure | None = None, **fields) -> dict:
    """The report of ``command``: the scene, the window of ``rs`` and its
    structure (computed unless given), then ``fields``, then the scene's
    notes."""
    return {"command": command, "scene": scene_to_dict(scene), "window": rs.window,
            "structure": _structure_dict(structure or Q.quotient_structure(rs)),
            **fields, "notes": list(scene.notes)}


def _word_text(texts: dict, letters: tuple) -> str:
    """The text of a normal form other than the identity: its letters'
    texts joined by ``*``, as ``render_letters`` writes it.  ``texts`` maps
    a letter to its text; a letter missing there is rendered and added
    first."""
    try:
        return "*".join([texts[x] for x in letters])
    except KeyError:
        for x in letters:
            texts.setdefault(x, render_letters((x,)))
        return "*".join([texts[x] for x in letters])


def _presentation(rs: Q.RelationSet) -> dict:
    """The report's generators, relations and dropped values, rendered from
    window positions and the window's letters; no Word or RingElem is
    built.

    Words are rendered through one plain dict of letter texts per report,
    filled on a miss by ``_word_text``, so each distinct letter is rendered
    once and a letter seen before costs one lookup.  No word here is the
    identity: the generators are the window, and a dropped value is
    reduced.  Each generator's name is built once; a dropped value is split
    and sorted by ``quotient.order_dropped``.
    """
    texts: dict[tuple, str] = {}
    names = [_word_text(texts, a) for a in rs.letters]
    relations = [{"value": render_terms([(names[i], c) for i, c in col]),
                  "provenance": prov}
                 for col, prov in zip(rs.columns, rs.provenance)]
    dropped = []
    for prov, terms in rs.dropped_terms:
        inside, outside = Q.order_dropped(rs.spec, rs.letter_index, terms)
        value = render_terms([(names[i], c) for i, c in inside]
                             + [(_word_text(texts, w), c) for w, c in outside])
        dropped.append({"provenance": prov, "value": value})
    return {"generators": names, "relations": relations,
            "dropped_relations": dropped}


def _fit_profile(windows, free_ranks) -> dict:
    """The line through the first and last window's free rank, and whether
    every window lies on it: ``null`` for two windows, which always do, and
    ``true`` for one."""
    if len(windows) < 2:
        return {"slope": None, "intercept": None, "linear": len(windows) == 1}
    # imported here: only a sweep of two or more windows needs it
    from fractions import Fraction
    slope = Fraction(free_ranks[-1] - free_ranks[0], windows[-1] - windows[0])
    intercept = Fraction(free_ranks[0]) - slope * windows[0]
    linear = None if len(windows) == 2 else all(
        Fraction(fr) == slope * w + intercept for w, fr in zip(windows, free_ranks))
    return {"slope": str(slope), "intercept": str(intercept), "linear": linear}


def run_target(scene: ManifoldScene, windows) -> dict:
    """Structure of each window in turn; the report details the last one.

    A window whose ball exceeds the generator cap ends the sweep once a
    smaller window has answered, and ``sweep.truncated`` names it.
    """
    sweep = {"windows": [], "free_ranks": [], "torsion": [], "stable": []}
    final_rs = None
    final_structure = None
    for w in windows:
        try:
            rs = build_relations(scene, w)[0]
        except BallOverflowError:
            if final_rs is None:
                raise
            sweep["truncated"] = w
            break
        st = Q.quotient_structure(rs)
        sweep["windows"].append(w)
        sweep["free_ranks"].append(st.free_rank)
        sweep["torsion"].append(list(st.torsion))
        sweep["stable"].append(st.stable)
        final_rs, final_structure = rs, st
    return _report("target", scene, final_rs, final_structure, **_presentation(final_rs),
                   sweep=sweep, profile=_fit_profile(sweep["windows"], sweep["free_ranks"]))


def run_eval(scene: ManifoldScene, window: int) -> dict:
    rs, action = build_relations(scene, window)
    knots = []
    for k in scene.knots:
        data = dax_of_knot(k, rs, action)
        knots.append({
            "name": data.name,
            "value": str(data.value),
            "residue": str(data.residue),
            "free_coords": list(data.free_coords),
            "torsion_coords": list(data.torsion_coords),
            "orbit_complete": data.orbit_complete,
            "orbit_size": data.orbit_size,
        })
    return _report("eval", scene, rs, knots=knots)


def run_concordance(scene: ManifoldScene, window: int) -> dict:
    rs, _ = build_relations(scene, window)
    folded = Q.concordance_quotient(rs)
    knots = []
    for k in scene.knots:
        value = eval_dax_trace(k.trace, rs.spec)
        mu2 = mu2_reduce(value)
        free, tors = folded.solver.coords(value)
        knots.append({
            "name": k.name,
            "value": str(value),
            "mu2": str(mu2),
            "free_coords": list(free),
            "torsion_coords": list(tors),
        })
    return _report("concordance", scene, rs,
                   structure_folded=_structure_dict(Q.quotient_structure(folded)),
                   added_relations=folded.provenance.count(Q.PROV_CONCORDANCE),
                   knots=knots)


def run_orbit(scene: ManifoldScene, window: int, extra_value: str | None) -> dict:
    if scene.dimension != 3 or scene.mode != CIRCLES:
        raise DaxKernelError("orbit reduction applies to circles in dimension 3")
    rs, action = build_relations(scene, window)
    items = []

    def reduce_value(name, value):
        orbit = Q.centralizer_orbit_reduce(value, rs, action)
        items.append({
            "name": name,
            "value": str(value),
            "representative": str(orbit.representative),
            "complete": orbit.complete,
            "orbit_size": orbit.size,
        })

    for k in scene.knots:
        reduce_value(k.name, eval_dax_trace(k.trace, rs.spec))
    if extra_value is not None:
        reduce_value("value", parse_ring(extra_value, scene.group))
    return _report("orbit", scene, rs, orbits=items, action={
        "s": render_word(action.s_class),
        "centralizer": [render_word(b) for b in action.centralizer],
        "whisker": {render_word(b): str(v) for b, v in action.whisker},
    })


def run_scene(scene: ManifoldScene, command: str, window: int | None = None,
              extra_value: str | None = None) -> dict:
    """Deterministic report for one scene and command."""
    if extra_value is not None and command != "orbit":
        raise UsageError(f"--value applies to the orbit command only, not {command}")
    if command == "target":
        if window is not None:
            windows = [window]
        elif scene.window is not None:
            windows = [scene.window]
        else:
            windows = list(DEFAULT_SWEEP)
        return run_target(scene, windows)
    w = window if window is not None else (scene.window or DEFAULT_SWEEP[1])
    if command == "eval":
        return run_eval(scene, w)
    if command == "concordance":
        return run_concordance(scene, w)
    if command == "orbit":
        return run_orbit(scene, w, extra_value)
    raise DaxKernelError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------

def render_report(report: dict) -> str:
    lines = [f"dax-kernel {report['command']}"]
    sc = report["scene"]
    lines.append(f"  scene: d={sc['dimension']} mode={sc['mode']}"
                 f" group={sc['group']}" +
                 (f" s={sc['s']}" if "s" in sc else "") +
                 (f" preset={sc['preset']}" if "preset" in sc else ""))
    lines.append(f"  window: {report['window']}")
    if "structure" in report:
        st = report["structure"]
        tor = " + ".join(f"Z/{t}" for t in st["torsion"]) or "none"
        lines.append(f"  structure: free rank {st['free_rank']}, torsion {tor},"
                     f" stable={st['stable']}")
    if report["command"] == "target":
        lines.append(f"  generators ({len(report['generators'])}):"
                     f" {', '.join(report['generators'])}")
        lines.append(f"  relations ({len(report['relations'])}):")
        for entry in report["relations"]:
            lines.append(f"    [{entry['provenance']}] {entry['value']}")
        if report["dropped_relations"]:
            lines.append(f"  dropped (support outside window):"
                         f" {len(report['dropped_relations'])}")
        sweep = report["sweep"]
        for w, fr, tor, stab in zip(sweep["windows"], sweep["free_ranks"],
                                    sweep["torsion"], sweep["stable"]):
            tor_s = ",".join(map(str, tor)) or "-"
            lines.append(f"  sweep W={w}: free {fr}, torsion {tor_s}, stable {stab}")
        if "truncated" in sweep:
            lines.append(f"  sweep truncated at W={sweep['truncated']}: its ball exceeds"
                         f" {Q.MAX_WINDOW_GENERATORS} elements")
        prof = report["profile"]
        if prof.get("slope") is not None:
            icpt = prof["intercept"]
            sign, icpt = ("-", icpt[1:]) if icpt.startswith("-") else ("+", icpt)
            lines.append(f"  free-rank profile: {prof['slope']}*W"
                         f" {sign} {icpt} (linear={prof['linear']})")
    if report["command"] == "concordance":
        stf = report["structure_folded"]
        tor = " + ".join(f"Z/{t}" for t in stf["torsion"]) or "none"
        lines.append(f"  sheet-folded structure: free rank {stf['free_rank']},"
                     f" torsion {tor}")
    for key in ("knots", "orbits"):
        if key in report and report[key]:
            lines.append(f"  {key}:")
            for item in report[key]:
                parts = [f"{item['name']}: {item.get('residue', item.get('representative', item['value']))}"]
                if "mu2" in item:
                    parts.append(f"mu2 = {item['mu2']}")
                lines.append("    " + "; ".join(parts))
    for note in report.get("notes", ()):
        lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dax-kernel",
        description="Group-ring calculus for embedding-space invariants")
    parser.add_argument("command", choices=["target", "eval", "concordance", "orbit"])
    parser.add_argument("--scene", help="scene file")
    parser.add_argument("--preset", help="preset name")
    parser.add_argument("--param", action="append", default=[],
                        metavar="K=V", help="preset parameter")
    parser.add_argument("--window", type=int, help="generator window radius")
    parser.add_argument("--value", help="extra ring element for orbit reduction")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.scene and args.preset:
            raise UsageError("give either --scene or --preset, not both")
        if args.param and not args.preset:
            raise UsageError("--param applies to --preset only")
        if args.scene:
            scene = load_scene_file(args.scene)
        elif args.preset:
            params = {}
            for item in args.param:
                if "=" not in item:
                    raise UsageError(f"--param expects K=V, got {item!r}")
                k, _, v = item.partition("=")
                params[k.strip()] = coerce_param(k.strip(), v.strip())
            scene = preset_expand(args.preset, params)
        else:
            raise UsageError("a scene is required: --scene FILE or --preset NAME")
        report = run_scene(scene, args.command, args.window, args.value)
    except WindowOverflowError as exc:
        print(f"window overflow: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DaxKernelError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
