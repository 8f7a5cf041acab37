"""Dax values of homotopy traces, the concordance fold, and universality.

A knot is recorded only by a chosen homotopy trace to the basepoint: the
ordered list of signed double-point loops.  The invariant of the trace is
the signed sum of its loops with identity loops discarded, read modulo a
relation set (and, for circles in dimension three, modulo the centralizer
orbit).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SceneError
from .groups import Word, inv, render_letters, word_key
from . import ring as R
from .ring import RingElem
from . import snf
from .quotient import OrbitAction, RelationSet, centralizer_orbit_reduce


@dataclass(frozen=True)
class HomotopyTrace:
    """Ordered signed double-point loops of a generic homotopy."""

    events: tuple[tuple[int, Word], ...]

    def __post_init__(self):
        for sign, _ in self.events:
            if sign not in (1, -1):
                raise SceneError("trace event signs must be +1 or -1")


@dataclass(frozen=True)
class KnotRecord:
    name: str
    trace: HomotopyTrace


def eval_dax_trace(t: HomotopyTrace, spec) -> RingElem:
    """Signed sum of the double-point loops, identity loops discarded."""
    acc: dict[Word, int] = {}
    for sign, loop in t.events:
        acc[loop] = acc.get(loop, 0) + sign
    return R.gr_bar_reduce(R.from_terms(spec, acc))


def mu2_reduce(v: RingElem) -> RingElem:
    """Canonical form modulo g^-1 - g: fold each term onto min(g, g^-1).

    Models the sheet-choice ambiguity of an immersed concordance; any
    consistent representative choice would do.
    """
    acc: dict[Word, int] = {}
    for w, c in v.items():
        wi = inv(w)
        target = w if word_key(w) <= word_key(wi) else wi
        acc[target] = acc.get(target, 0) + c
    return R.from_terms(v.spec, acc)


@dataclass
class KnotDax:
    """Dax data of one knot relative to a relation set."""

    name: str
    value: RingElem              # raw trace sum, reduced
    residue: RingElem            # canonical representative mod relations
    free_coords: tuple[int, ...]
    torsion_coords: tuple[int, ...]
    orbit_complete: bool = True
    orbit_size: int = 1


def dax_of_knot(k: KnotRecord, rs: RelationSet,
                action: OrbitAction | None = None) -> KnotDax:
    """Coordinates of the knot's Dax class in the windowed quotient.

    With orbit action data (circles, dimension three) the value is first
    moved to its canonical orbit representative.  The value is reduced once
    by ``rs.solver``: the residue and the coordinates are both read from
    that one canonical residue vector (the orbit search's least state).
    """
    solver = rs.solver
    value = eval_dax_trace(k.trace, rs.spec)
    if action is not None and action.centralizer:
        orbit = centralizer_orbit_reduce(value, rs, action)
        residue, complete, size = orbit.representative, orbit.complete, orbit.size
        vec = dict(orbit.state)
    else:
        vec = solver.residue(value)
        residue, complete, size = solver.elem(vec.items()), True, 1
    free, tors = solver.residue_coords(vec)
    return KnotDax(k.name, value, residue, free, tors, complete, size)


# ---------------------------------------------------------------------------
# universality of the trace invariant among type <= 1 invariants
# ---------------------------------------------------------------------------

@dataclass
class Witness:
    """Certificate that the supplied values are not of type <= 1.

    ``combination`` maps knot names to integers y_K with
    sum y_K * DaxCoords(K) = 0 (mod ``modulus`` when set) while
    sum y_K * (values difference) is not.
    """

    combination: dict[str, int]
    modulus: int | None
    detail: str


def universality_witness(knots: list[KnotRecord], values: dict[str, tuple[int, ...]],
                         rs: RelationSet, action: OrbitAction | None = None):
    """Solve v(K) = v(base) + w(Dax(K)) for an integer-linear w.

    ``values`` maps the knots' names, which must be distinct, to integer
    vectors, and names no other key.  Returns (w_map, base_value) on
    success, where w_map gives the value of w on each window generator;
    returns a Witness when no such w exists.  Each output of w is one
    sparse functional on canonical residues (``free_functional``), dotted
    with the residue of each generator's unit vector; a generator's w_map
    key is its normal form rendered from its letters (``render_letters``),
    which is the text of its monomial, so no ``Word`` of the window is
    built.
    """
    if not knots:
        raise SceneError("universality check needs at least one knot")
    dim = None
    names = set()
    for k in knots:
        if k.name in names:
            raise SceneError(f"knot name {k.name!r} is repeated")
        names.add(k.name)
        if k.name not in values:
            raise SceneError(f"no value supplied for knot {k.name!r}")
        v = values[k.name]
        if dim is None:
            dim = len(v)
        elif len(v) != dim:
            raise SceneError("all values must have the same length")
    for name in values:
        if name not in names:
            raise SceneError(f"value supplied for unknown knot {name!r}")

    solver = rs.solver
    data = [dax_of_knot(k, rs, action) for k in knots]
    q = len(data[0].free_coords)
    # unknowns: w on the free quotient coordinates, plus the base value;
    # torsion coordinates force w = 0 there (values are torsion free), so a
    # knot pair differing only in torsion must have equal values.
    rows = [list(d.free_coords) + [1] for d in data]
    solutions, failure = snf.solve_integer(
        rows, [[values[d.name][out] for d in data] for out in range(dim)])
    if failure is not None:
        combo = {d.name: y for d, y in zip(data, failure.combination) if y}
        kind = ("inconsistent integer combination" if failure.modulus is None
                else f"inconsistency modulo {failure.modulus}")
        return Witness(combo, failure.modulus,
                       f"output coordinate {len(solutions)}: {kind}")

    base_value = tuple(sol[q] for sol in solutions)
    # the target is torsion free, so w vanishes on torsion coordinates and is
    # determined by the free part of each generator's class
    functionals = [solver.free_functional(sol[:q]) for sol in solutions]
    w_map = {}
    for i, g in enumerate(solver.letters):
        residue = solver.reduce({i: 1})
        w_map[render_letters(g)] = tuple(sum(f.get(j, 0) * c for j, c in residue.items())
                                         for f in functionals)
    return w_map, base_value
