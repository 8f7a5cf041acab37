"""Relation sets over a generator window and their quotient structure.

The quotient of the reduced group ring by a dax image is realized on a
finite window: generators are the ball of a given radius in the word
metric minus the identity, relations are the dax values supported on that
window.  Translated relations that stick out of the window are dropped and
reported (shrinking the relation set only coarsens the quotient); relations
attached to the identity translate are scene base data, so overflowing
there is a hard error rather than a silent weakening.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ModeError, SceneError, WindowOverflowError
from .groups import GroupSpec, Word, ball, inv, mul, render_word, word_key, word_length
from . import ring as R
from .ring import RingElem
from . import snf
from .calculus import (
    CIRCLES,
    DaxContext,
    dax_boundary_sphere,
    dax_u_embedded,
    dax_u_general,
)

PROV_DAX_IMAGE = "dax_image"
PROV_WHISKER = "whisker"
PROV_BOUNDARY = "boundary_sphere"
PROV_CONCORDANCE = "concordance"
PROV_SPHERE_3MFD = "sphere_3mfd"

MAX_WINDOW_GENERATORS = 6000


@dataclass(frozen=True)
class RelationSet:
    """Relations supported on a generator window of the reduced group ring."""

    spec: GroupSpec
    window: int
    generators: tuple[Word, ...]
    relations: tuple[RingElem, ...]
    provenance: tuple[str, ...]
    dropped: tuple[tuple[str, str], ...] = ()  # (provenance, rendered relation)

    def __post_init__(self):
        gens = set(self.generators)
        for rel in self.relations:
            for w in rel.support():
                if w not in gens:
                    raise WindowOverflowError(
                        f"relation {rel} not supported on the window", str(rel))


@dataclass(frozen=True)
class AbelianStructure:
    """Free rank and torsion of a windowed quotient, with stabilization."""

    free_rank: int
    torsion: tuple[int, ...]
    window: int
    stable: bool

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must divide successively")


@dataclass(frozen=True)
class OrbitAction:
    """Centralizer action data for circle scenes in dimension three."""

    s_class: Word
    centralizer: tuple[Word, ...]
    whisker: tuple[tuple[Word, RingElem], ...]

    def whisker_of(self, b: Word) -> RingElem | None:
        for k, v in self.whisker:
            if k == b:
                return v
        return None


@dataclass
class OrbitResult:
    representative: RingElem
    complete: bool
    size: int


# ---------------------------------------------------------------------------
# building relation sets
# ---------------------------------------------------------------------------

def window_generators(spec, window: int) -> tuple[Word, ...]:
    elements = ball(spec, window, limit=MAX_WINDOW_GENERATORS)
    return tuple(w for w in elements if not w.is_identity)


def _classify(kept, prov_list, seen, dropped, gens_set, val: RingElem,
              provenance: str, from_identity: bool):
    if val.is_zero:
        return
    if all(w in gens_set for w in val.support()):
        if val not in seen:
            seen.add(val)
            kept.append(val)
            prov_list.append(provenance)
        return
    if from_identity:
        raise WindowOverflowError(
            f"base relation {val} exceeds the generator window; increase the"
            " window", str(val))
    dropped.append((provenance, str(val)))


def _assemble(ctx: DaxContext, window: int, circles: bool,
              whisker: dict[Word, RingElem], class_prov: str,
              use_embedded_formula: bool) -> RelationSet:
    if window < 1:
        raise SceneError("window must be >= 1")
    spec = ctx.spec
    gens = window_generators(spec, window)
    gens_set = set(gens)
    enum = (spec.identity(),) + gens  # the ball, identity first

    kept: list[RingElem] = []
    prov: list[str] = []
    dropped: list[tuple[str, str]] = []
    seen: set[RingElem] = set()

    for g in enum:
        for a in ctx.table.classes:
            if use_embedded_formula:
                val = dax_u_embedded(g, a, ctx)
            else:
                val = dax_u_general(g, a, ctx)
            _classify(kept, prov, seen, dropped, gens_set, val, class_prov,
                      g.is_identity)
    if circles:
        for g in enum:
            val = dax_boundary_sphere(g, ctx)
            _classify(kept, prov, seen, dropped, gens_set, val, PROV_BOUNDARY,
                      g.is_identity)
        for val in whisker.values():
            if val.spec != spec:
                raise SceneError("whisker value over a different group spec")
        whisker = {b: R.gr_bar_reduce(v) for b, v in whisker.items()}
        _validate_whisker_keys(ctx, whisker)
        if whisker:
            # validate against the sphere and boundary relations only: the
            # whisker values themselves are the data under scrutiny
            base_rs = RelationSet(spec, window, gens, tuple(kept), tuple(prov),
                                  tuple(dropped))
            _validate_whisker_action(ctx, whisker, base_rs)
        for b in sorted(whisker, key=word_key):
            _classify(kept, prov, seen, dropped, gens_set, whisker[b],
                      PROV_WHISKER, True)

    return RelationSet(spec, window, gens, tuple(kept), tuple(prov),
                       tuple(dropped))


def build_rel_arcs(ctx: DaxContext, window: int) -> RelationSet:
    """Dax-image relations for arcs: the kernel presentation denominator."""
    if ctx.mode != "arcs":
        raise ModeError("build_rel_arcs requires arcs mode")
    return _assemble(ctx, window, circles=False, whisker={},
                     class_prov=PROV_DAX_IMAGE, use_embedded_formula=False)


def build_rel_circles(ctx: DaxContext, whisker: dict[Word, RingElem] | None,
                      window: int) -> RelationSet:
    """Arc relations plus boundary-sphere values plus whisker classes."""
    if ctx.mode != CIRCLES:
        raise ModeError("build_rel_circles requires circles mode")
    return _assemble(ctx, window, circles=True, whisker=dict(whisker or {}),
                     class_prov=PROV_DAX_IMAGE, use_embedded_formula=False)


def build_rel_3mfd(ctx: DaxContext, window: int, circles: bool,
                   whisker: dict[Word, RingElem] | None = None):
    """Relation set for a 3-manifold scene, plus the centralizer action data.

    Sphere classes must be disjointly embedded generators, so the embedded
    shortcut formula applies; in circles mode the boundary-sphere family and
    whisker values join the relations.
    """
    if ctx.d != 3:
        raise ModeError("build_rel_3mfd requires ambient dimension 3")
    for a in ctx.table.classes:
        if not a.embedded:
            raise SceneError(
                f"3-manifold sphere generators must be embedded: {a.name!r}")
    whisker = dict(whisker or {})
    rs = _assemble(ctx, window, circles=circles, whisker=whisker,
                   class_prov=PROV_SPHERE_3MFD, use_embedded_formula=True)
    cent = sorted(set(whisker), key=word_key)
    if circles and not ctx.s_class.is_identity and ctx.s_class not in cent:
        cent.append(ctx.s_class)
    action = OrbitAction(ctx.s_class, tuple(cent),
                         tuple(sorted(whisker.items(), key=lambda kv: word_key(kv[0]))))
    return rs, action


def _validate_whisker_keys(ctx: DaxContext, whisker: dict[Word, RingElem]):
    s = ctx.s_class
    for b in whisker:
        if b.spec != ctx.spec:
            raise SceneError("whisker key over a different group spec")
        if mul(mul(s, b), inv(s)) != b:
            raise SceneError(
                f"whisker key {render_word(b)} is not in the centralizer of"
                f" {render_word(s)}")
    if s.is_identity:
        for b, val in whisker.items():
            if not val.is_zero:
                raise SceneError(
                    "whisker classes vanish when the circle class is trivial;"
                    f" nonzero value supplied for {render_word(b)}")


def _is_power_of(b: Word, s: Word) -> bool:
    if s.is_identity:
        return b.is_identity
    limit = word_length(b) + word_length(s)
    for step in (s, inv(s)):
        acc = s.spec.identity()
        seen = set()
        while word_length(acc) <= limit and acc not in seen:
            if acc == b:
                return True
            seen.add(acc)
            acc = mul(acc, step)
    return False


def _validate_whisker_action(ctx: DaxContext, whisker: dict[Word, RingElem],
                             base_rs: RelationSet):
    """Reject whisker tables that cannot come from a centralizer action.

    Powers of the circle class drag a point around itself, so their values
    vanish identically.  The cocycle law w(b1 b2) = b1 w(b2) b1^-1 + w(b1)
    is checked on key pairs whose product is again a key, modulo the sphere
    and boundary relations (the action lives on that quotient).
    """
    for b, val in whisker.items():
        if _is_power_of(b, ctx.s_class) and not val.is_zero:
            raise SceneError(
                f"whisker value of {render_word(b)} must vanish: it is a power"
                " of the circle class")

    solver = QuotientSolver(base_rs)

    def is_trivial(val: RingElem) -> bool:
        if val.is_zero:
            return True
        if any(w not in solver.index for w in val.support()):
            return False
        return solver.is_relation(val)

    keys = list(whisker)
    for b1 in keys:
        for b2 in keys:
            prod = mul(b1, b2)
            if prod not in whisker:
                continue
            expected = R.gr_add(R.gr_conj(b1, whisker[b2]), whisker[b1])
            if not is_trivial(R.gr_add(whisker[prod], R.gr_neg(expected))):
                raise SceneError(
                    "whisker table violates the action law on"
                    f" ({render_word(b1)}, {render_word(b2)})")


# ---------------------------------------------------------------------------
# quotient structure
# ---------------------------------------------------------------------------

class QuotientSolver:
    """Coordinates and canonical residues for one windowed quotient.

    One sparse elimination (unit pivots by substitution, dense Smith form on
    the small residual block) gives the free rank, the invariant factors and
    the coordinates; the Hermite basis behind canonical residues is dense and
    computed lazily on first use.
    """

    def __init__(self, rs: RelationSet):
        self.rs = rs
        self.generators = rs.generators
        self.index = {w: i for i, w in enumerate(rs.generators)}
        n = len(rs.generators)
        sparse_cols = []
        for rel in rs.relations:
            sparse_cols.append({self.index[w]: c for w, c in rel.items()})
        self._elim = snf.sparse_rank_and_torsion(sparse_cols, n)
        self.free_rank = n - self._elim.rank
        self.torsion = tuple(self._elim.torsion)
        self._hnf_rows = None

    @property
    def _hnf(self):
        if self._hnf_rows is None:
            self._hnf_rows = snf.hermite_row_basis(
                [self.vector(rel) for rel in self.rs.relations])
        return self._hnf_rows

    def vector(self, elem: RingElem) -> list[int]:
        v = [0] * len(self.generators)
        for w, c in elem.items():
            if w.is_identity:
                raise SceneError("values must be reduced (no identity term)")
            try:
                v[self.index[w]] = c
            except KeyError:
                raise WindowOverflowError(
                    f"value {elem} not supported on the window", str(elem)) from None
        return v

    def elem(self, vec) -> RingElem:
        return R.from_terms(self.rs.spec,
                            [(w, c) for w, c in zip(self.generators, vec) if c])

    def coords(self, elem: RingElem) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(free coordinates, torsion coordinates) of the class of elem.

        The free coordinates list the generators that are neither substituted
        away nor in the residual block, then the free rows of the block;
        torsion coordinates follow the invariant factors, each reduced into
        [0, d).  The basis is the one the sparse elimination picks.
        """
        elim = self._elim
        v = self.vector(elem)
        # substitute each pivot row away; a pivot column's own entry is its
        # sign, so the pivot row itself ends at zero
        for p, sign, col in elim.pivots:
            x = v[p]
            if x:
                x *= sign
                for i, c in col.items():
                    v[i] -= x * c
        free = [v[i] for i in elim.free_rows]
        tors = []
        block = [v[i] for i in elim.residual_rows]
        diagonal = elim.residual_diagonal
        for i, row in enumerate(elim.residual_left):
            d = diagonal[i] if i < len(diagonal) else 0
            if d == 1:
                continue
            y = sum(a * b for a, b in zip(row, block))
            if d == 0:
                free.append(y)
            else:
                tors.append(y % d)
        return tuple(free), tuple(tors)

    def canonical_residue(self, elem: RingElem) -> RingElem:
        return self.elem(snf.reduce_mod_rows(self.vector(elem), self._hnf))

    def is_relation(self, elem: RingElem) -> bool:
        return all(x == 0 for x in snf.reduce_mod_rows(self.vector(elem), self._hnf))

    def structure(self, stable: bool, window: int | None = None) -> AbelianStructure:
        return AbelianStructure(self.free_rank, self.torsion,
                                self.rs.window if window is None else window,
                                stable)


def restrict_relationset(rs: RelationSet, window: int) -> RelationSet:
    """The same relation data truncated to a smaller window.

    Keeps exactly the relations supported on the smaller ball; everything
    else moves to the dropped list.
    """
    gens = tuple(w for w in rs.generators if word_length(w) <= window)
    gens_set = set(gens)
    kept, prov, dropped = [], [], list(rs.dropped)
    for rel, p in zip(rs.relations, rs.provenance):
        if all(w in gens_set for w in rel.support()):
            kept.append(rel)
            prov.append(p)
        else:
            dropped.append((p, str(rel)))
    return RelationSet(rs.spec, window, gens, tuple(kept), tuple(prov),
                       tuple(dropped))


def quotient_structure(rs: RelationSet,
                       solver: QuotientSolver | None = None) -> AbelianStructure:
    """Free rank and invariant factors of the windowed quotient.

    The stable flag reports that the invariant factors agree with the two
    next-smaller windows (free rank keeps growing with the window; torsion
    is the part that converges).  ``solver``, when given, is the solver
    already built for ``rs``.
    """
    solver = solver or QuotientSolver(rs)
    prev = QuotientSolver(restrict_relationset(rs, rs.window - 1))
    stable = solver.torsion == prev.torsion
    if rs.window >= 2 and stable:
        prev2 = QuotientSolver(restrict_relationset(rs, rs.window - 2))
        stable = prev.torsion == prev2.torsion
    return solver.structure(stable)


def concordance_quotient(rs: RelationSet) -> RelationSet:
    """Append the sheet-ambiguity relations g^-1 - g, one per inverse pair."""
    kept = list(rs.relations)
    prov = list(rs.provenance)
    seen = set(kept)
    for g in rs.generators:
        if word_key(inv(g)) < word_key(g):
            continue  # the partner generator contributes the same relation
        val = R.gr_add(R.monomial(inv(g)), R.monomial(g, -1))
        if val.is_zero or val in seen:
            continue
        seen.add(val)
        kept.append(val)
        prov.append(PROV_CONCORDANCE)
    return RelationSet(rs.spec, rs.window, rs.generators, tuple(kept),
                       tuple(prov), rs.dropped)


# ---------------------------------------------------------------------------
# centralizer orbits (circles in dimension three)
# ---------------------------------------------------------------------------

def centralizer_orbit_reduce(value: RingElem, rs: RelationSet,
                             centralizer, whisker: dict[Word, RingElem] | None = None,
                             s_class: Word | None = None,
                             max_states: int = 4096,
                             solver: QuotientSolver | None = None) -> OrbitResult:
    """Deterministic representative of the orbit of ``value`` mod ``rs``.

    The supplied centralizer elements act by r -> b r b^-1 + w(b) (and their
    inverses, with w(b^-1) derived from the action law).  The orbit is
    explored within the window; moves that leave it mark the result
    incomplete instead of failing, so representatives of window-infinite
    orbits are still canonical for the explored region.  ``solver``, when
    given, is the solver already built for ``rs``.
    """
    whisker = dict(whisker or {})
    solver = solver or QuotientSolver(rs)
    if s_class is not None:
        for b in centralizer:
            if mul(mul(s_class, b), inv(s_class)) != b:
                raise SceneError(
                    f"orbit element {render_word(b)} is not in the centralizer"
                    f" of {render_word(s_class)}")

    moves: list[tuple[Word, RingElem]] = []
    seen_moves = set()
    for b in centralizer:
        w_b = R.gr_bar_reduce(whisker.get(b, R.zero(rs.spec)))
        bi = inv(b)
        w_bi = whisker.get(bi)
        if w_bi is None:
            # action law: w(b^-1) = -b^-1 w(b) b
            w_bi = R.gr_neg(R.gr_conj(bi, w_b))
        else:
            w_bi = R.gr_bar_reduce(w_bi)
        for move in ((b, w_b), (bi, w_bi)):
            if move[0] not in seen_moves:
                seen_moves.add(move[0])
                moves.append(move)

    start = tuple(snf.reduce_mod_rows(solver.vector(value), solver._hnf))
    visited = {start}
    queue = deque([start])
    complete = True
    while queue:
        if len(visited) > max_states:
            complete = False
            break
        vec = queue.popleft()
        r = solver.elem(vec)
        for b, w_b in moves:
            moved = R.gr_add(R.gr_conj(b, r), w_b)
            if any(w not in solver.index for w in moved.support()):
                complete = False
                continue
            key = tuple(snf.reduce_mod_rows(solver.vector(moved), solver._hnf))
            if key not in visited:
                visited.add(key)
                queue.append(key)

    def term_order(vec):
        # earliest-supported, smallest-coefficient representative; the zero
        # vector sorts first
        return tuple((i, c) for i, c in enumerate(vec) if c)

    rep = min(visited, key=term_order)
    return OrbitResult(solver.elem(rep), complete, len(visited))
