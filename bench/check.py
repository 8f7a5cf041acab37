"""Output checks for benchmark ops.

Two kinds of check, both on the JSON report an op prints:

* For seeds listed in ``expected.json``, the basis-invariant fields of every
  report (structures, relations, dropped lists, residues, ``mu2``, orbit
  representatives, the kind of universality outcome) must hash to the
  stored digest.  Coordinates and ``w_map`` depend on the basis the
  elimination picks, so they are left out of the digest.
* For every seed, shapes and integer re-verification: coordinate vectors
  have the structure's lengths and ranges; knots with equal residues have
  equal coordinates and vice versa; a universality solution reproduces the
  given values; a witness combination annihilates the paired eval's
  coordinates but not the values.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_COORDS = ("free_coords", "torsion_coords")


def invariant_view(report: dict) -> dict:
    """The report without its basis-dependent fields."""
    view = dict(report)
    if "knots" in view:
        view["knots"] = [{k: v for k, v in item.items() if k not in _COORDS}
                         for item in view["knots"]]
    if view["command"] == "universality":
        for key in ("w_map", "base_value", "witness"):
            view.pop(key, None)
    return view


def invariant_digest(report: dict) -> str:
    blob = json.dumps(invariant_view(report), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def load_expected(workload: str, seed: int) -> dict | None:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def ring_terms(text: str) -> dict[str, int]:
    """Word -> coefficient for a rendered ring element such as ``2*a - b^-1``."""
    if text == "0":
        return {}
    out = {}
    for i, part in enumerate(re.split(r" (?=[+-] )", text)):
        sign = 1
        if i:
            sign = -1 if part[0] == "-" else 1
            part = part[2:]
        elif part.startswith("-"):
            sign, part = -1, part[1:]
        m = re.match(r"(\d+)\*(.+)$", part)
        coeff, w = (int(m.group(1)), m.group(2)) if m else (1, part)
        out[w] = out.get(w, 0) + sign * coeff
    return out


def _structure(st: dict, problems: list[str], where: str):
    tors = st["torsion"]
    if st["free_rank"] < 0 or any(t < 2 for t in tors) or any(
            b % a for a, b in zip(tors, tors[1:])):
        problems.append(f"{where}: malformed structure {st}")


def _coords(knots: list[dict], st: dict, key: str, problems: list[str]):
    """Coordinates fit the structure, and equal classes get equal coordinates.

    ``key`` names the field that identifies the class: the canonical residue
    for eval (so the map is a bijection), mu2 for concordance (equal folded
    values only imply equal classes)."""
    by_class: dict[str, tuple] = {}
    by_coords: dict[tuple, str] = {}
    for item in knots:
        free, tors = item["free_coords"], item["torsion_coords"]
        if len(free) != st["free_rank"] or len(tors) != len(st["torsion"]) or any(
                not 0 <= c < d for c, d in zip(tors, st["torsion"])):
            problems.append(f"knot {item['name']}: coordinates do not fit {st}")
            continue
        coords = (tuple(free), tuple(tors))
        cls = item[key]
        if by_class.setdefault(cls, coords) != coords:
            problems.append(f"knot {item['name']}: equal {key}, different coordinates")
        if key == "residue":
            if by_coords.setdefault(coords, cls) != cls:
                problems.append(f"knot {item['name']}: different residues, equal coordinates")
            if (cls == "0") != (not any(free) and not any(tors)):
                problems.append(f"knot {item['name']}: zero residue and coordinates disagree")


def _universality(op, report: dict, paired: dict | None, problems: list[str]):
    values = op.values
    names = [k["name"] for k in report["knots"]]
    if report["outcome"] == "solution":
        base, w_map = report["base_value"], report["w_map"]
        for item in report["knots"]:
            terms = ring_terms(item["value"])
            for out, want in enumerate(values[item["name"]]):
                got = base[out] + sum(c * w_map[w][out] for w, c in terms.items())
                if got != want:
                    problems.append(f"solution misses {item['name']}[{out}]:"
                                    f" {got} != {want}")
        return
    if report["outcome"] != "witness":
        problems.append(f"unknown universality outcome {report['outcome']!r}")
        return
    wit = report["witness"]
    y = wit["combination"]
    m = wit["modulus"]
    out = int(re.match(r"output coordinate (\d+)", wit["detail"]).group(1))
    if paired is None:
        problems.append("witness without a paired eval report")
        return
    free = {k["name"]: k["free_coords"] for k in paired["knots"]}

    def vanishes(x):
        return x % m == 0 if m else x == 0

    rows = [free[n] + [1] for n in names]
    for j in range(len(rows[0])):
        if not vanishes(sum(y.get(n, 0) * r[j] for n, r in zip(names, rows))):
            problems.append(f"witness does not annihilate coordinate {j}")
            return
    if vanishes(sum(y.get(n, 0) * values[n][out] for n in names)):
        problems.append(f"witness does not separate output {out}")


def check_report(op, report: dict, paired: dict | None, sizes: dict) -> list[str]:
    """Shape and re-verification problems of one op's report (empty: fine)."""
    problems: list[str] = []
    cmd = report["command"]
    if cmd != op.command:
        problems.append(f"report command {cmd!r} for a {op.command!r} op")
        return problems
    for key in ("structure", "structure_folded"):
        if key in report:
            _structure(report[key], problems, key)
    if cmd == "target":
        if len(report["generators"]) != sizes["generators"] or \
                len(report["relations"]) != sizes["relations"] or \
                len(report["dropped_relations"]) != sizes["dropped"]:
            problems.append(f"report sizes disagree with the relation set {sizes}")
        sweep = report["sweep"]
        if {len(v) for v in sweep.values()} != {len(sweep["windows"])} or \
                sweep["windows"][-1] != report["window"]:
            problems.append("malformed sweep")
    elif cmd == "eval":
        _coords(report["knots"], report["structure"], "residue", problems)
    elif cmd == "concordance":
        _coords(report["knots"], report["structure_folded"], "mu2", problems)
    elif cmd == "orbit":
        want = len(report["scene"].get("knots", ())) + (op.extra_value is not None)
        if len(report["orbits"]) != want or any(
                item["orbit_size"] < 1 for item in report["orbits"]):
            problems.append("malformed orbit list")
    elif cmd == "universality":
        _universality(op, report, paired, problems)
    return problems
