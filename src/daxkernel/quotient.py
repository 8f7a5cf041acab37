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

import bisect
import functools
from collections import deque
from dataclasses import dataclass, field

from .errors import ModeError, SceneError, WindowOverflowError
from .groups import (
    GroupSpec,
    Word,
    ball,
    inv,
    key_letters,
    mul,
    render_word,
    word_key,
    word_length,
)
from . import ring as R
from .ring import RingElem
from . import snf
from .calculus import (
    CIRCLES,
    DaxContext,
    _dax_boundary_sphere,
    _dax_u_embedded,
    _dax_u_general,
)
from .pairing import twists_on_ball

PROV_DAX_IMAGE = "dax_image"
PROV_WHISKER = "whisker"
PROV_BOUNDARY = "boundary_sphere"
PROV_CONCORDANCE = "concordance"
PROV_SPHERE_3MFD = "sphere_3mfd"

MAX_WINDOW_GENERATORS = 6000
MAX_ORBIT_STATES = 4096


@dataclass(frozen=True)
class RelationSet:
    """Relations supported on a generator window of the reduced group ring.

    ``dropped_terms`` holds the values that left the window, each as its
    provenance and an unsorted term dict keyed by normal form letter tuples
    (letters -> coefficient, zeros allowed), as relation assembly produced
    it.  Equality ignores them.  ``order_dropped`` puts the terms of one in
    ``word_key`` order, with window positions standing for the terms inside
    the window: the ``target`` report renders them from there, and
    ``dropped``, read by tests and the benchmark's counters, turns them into
    ``RingElem`` values on first read, sharing the window's Words.

    ``letter_index`` maps a generator's letters to its position; relation
    assembly hands over the map it classified with, and any other
    construction builds it.  Construction checks that every relation is
    supported on the window, and on the way builds ``index`` (generator ->
    position) and each relation's ``columns`` entry, its (position,
    coefficient) pairs in term order: the solver reads both.
    """

    spec: GroupSpec
    window: int
    generators: tuple[Word, ...]
    relations: tuple[RingElem, ...]
    provenance: tuple[str, ...]
    dropped_terms: tuple[tuple[str, dict[tuple, int]], ...] = field(
        default=(), repr=False, compare=False)
    letter_index: dict[tuple, int] | None = field(
        default=None, repr=False, compare=False)
    index: dict[Word, int] = field(init=False, repr=False, compare=False)
    columns: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {w: i for i, w in enumerate(self.generators)}
        columns = []
        for rel in self.relations:
            try:
                columns.append(tuple((index[w], c) for w, c in rel.terms))
            except KeyError:
                raise WindowOverflowError(
                    f"relation {rel} not supported on the window", str(rel)) from None
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "columns", tuple(columns))
        if self.letter_index is None:
            object.__setattr__(self, "letter_index",
                               {w.letters: i for i, w in enumerate(self.generators)})

    @functools.cached_property
    def dropped(self) -> tuple[tuple[str, RingElem], ...]:
        """(provenance, value) of each dropped value, sorted on first read;
        only the terms outside the window get a new ``Word``."""
        spec, gens, out = self.spec, self.generators, []
        for p, terms in self.dropped_terms:
            inside, outside = order_dropped(spec, self.letter_index, terms)
            out.append((p, RingElem(spec, tuple(
                [(gens[i], c) for i, c in inside]
                + [(Word(spec, w), c) for w, c in outside]))))
        return tuple(out)

    @functools.cached_property
    def solver(self) -> QuotientSolver:
        """The one reduction of these relations, built on first use."""
        return QuotientSolver(self)


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
    """Centralizer action data for circle scenes in dimension three.

    Construction checks that each centralizer element b centralizes
    ``s_class`` and derives the ``moves`` (b, w(b)) and (b^-1, w(b^-1)),
    each group element once; a w(b^-1) missing from ``whisker`` follows
    from the action law w(b^-1) = -b^-1 w(b) b.
    """

    s_class: Word
    centralizer: tuple[Word, ...]
    whisker: tuple[tuple[Word, RingElem], ...]
    moves: tuple[tuple[Word, RingElem], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s, table = self.s_class, dict(self.whisker)
        moves: dict[Word, RingElem] = {}
        for b in self.centralizer:
            if mul(mul(s, b), inv(s)) != b:
                raise SceneError(
                    f"orbit element {render_word(b)} is not in the centralizer"
                    f" of {render_word(s)}")
            w_b = R.gr_bar_reduce(table.get(b, R.zero(s.spec)))
            bi = inv(b)
            moves.setdefault(b, w_b)
            moves.setdefault(bi, R.gr_bar_reduce(table[bi]) if bi in table
                             else R.gr_neg(R.gr_conj(bi, w_b)))
        object.__setattr__(self, "moves", tuple(moves.items()))


@dataclass
class OrbitResult:
    representative: RingElem
    complete: bool
    size: int


def order_dropped(spec: GroupSpec, letter_index: dict[tuple, int],
                  terms: dict[tuple, int]):
    """The nonzero terms of a dropped value in ``word_key`` order, as two
    lists: the terms inside the window as (position, coefficient) pairs
    sorted by position, then the terms outside it as (letters, coefficient)
    pairs sorted by ``word_key`` of their letters, which is computed only
    when two or more are outside.

    This is the order of ``RingElem`` terms: the window is the ball of
    radius W less the identity, in ``word_key`` order, and a dropped value
    is reduced, so every term outside the window is longer than W and sorts
    after every term inside.
    """
    inside, outside = [], []
    for w, c in terms.items():
        if c:
            i = letter_index.get(w)
            if i is None:
                outside.append((w, c))
            else:
                inside.append((i, c))
    inside.sort()
    if len(outside) > 1:
        outside.sort(key=lambda term: key_letters(spec, term[0]))
    return inside, outside


# ---------------------------------------------------------------------------
# building relation sets
# ---------------------------------------------------------------------------

def window_generators(spec, window: int) -> tuple[Word, ...]:
    elements = ball(spec, window, limit=MAX_WINDOW_GENERATORS)
    return tuple(w for w in elements if not w.is_identity)


def _assemble(ctx: DaxContext, window: int, circles: bool,
              whisker: dict[Word, RingElem], embedded: bool) -> RelationSet:
    """The relation set of one window: the dax value of every translate in
    the ball (and, in circles mode, the boundary spheres and whiskers).
    ``embedded`` selects the 3-manifold formula and provenance over the
    general dax-image ones.

    Assembly runs on normal form letter tuples: the ball's Words are built
    once, by ``window_generators``, and every product, inverse and lookup
    after that joins, inverts and hashes their letters
    (``groups.mul_letters``, ``groups.inv_letters``), so no ``Word`` is
    built per translate.  The dax formula of a translate g*a starts from its
    twist T_a(g), which ``pairing.twists_on_ball`` carries from g's parent
    in the ball: across a central generator step at the cost of the step's
    own pairing value, not of g's.

    Values are classified in generator-index space.  The formula bodies give
    each value as a reduced letter-keyed term dict, and each term is looked
    up once in ``index``, which maps a generator's letters to its position
    in the window.  A value supported on the window becomes its nonzero
    (index, coefficient) pairs sorted as integers: the window is the ball in
    ``word_key`` order, so this is the order ``from_terms`` would give,
    without a ``word_key`` per term.  Duplicates are caught on those pairs,
    and a kept relation shares the ball's Words.  A value that leaves the
    window is dropped as its term dict, and ``index`` goes to the relation
    set as its ``letter_index``: ``order_dropped`` sorts a dropped value only
    when a report or ``RelationSet.dropped`` reads it.  A base relation (the
    identity translate and the whiskers) that leaves the window is sorted
    into the message of a ``WindowOverflowError``.
    """
    if window < 1:
        raise SceneError("window must be >= 1")
    spec = ctx.spec
    gens = window_generators(spec, window)
    index = {w.letters: i for i, w in enumerate(gens)}
    enum = (spec.identity(),) + gens  # the ball, identity first

    kept: list[tuple[tuple[int, int], ...]] = []  # sorted (index, coefficient)
    prov: list[str] = []
    dropped: list[tuple[str, dict[tuple, int]]] = []
    seen: set[tuple[tuple[int, int], ...]] = set()

    def classify(acc: dict[tuple, int], provenance: str, from_identity: bool):
        pairs = []
        for w, c in acc.items():
            if not c:
                continue
            i = index.get(w)
            if i is None:
                if from_identity:
                    val = R.from_letters(spec, acc)
                    raise WindowOverflowError(
                        f"base relation {val} exceeds the generator window;"
                        " increase the window", str(val))
                dropped.append((provenance, acc))
                return
            pairs.append((i, c))
        if pairs:
            pairs.sort()
            key = tuple(pairs)
            if key not in seen:
                seen.add(key)
                kept.append(key)
                prov.append(provenance)

    classes = ctx.table.classes
    dax = _dax_u_embedded if embedded else _dax_u_general
    class_prov = PROV_SPHERE_3MFD if embedded else PROV_DAX_IMAGE
    if classes:  # the twist of every class and translate, each from its parent's
        for g, twists in twists_on_ball(ctx.table, enum):
            letters = g.letters
            for a, twist in zip(classes, twists):
                classify(dax(letters, a, ctx, twist), class_prov, not letters)
    if circles:
        for g in enum:
            classify(_dax_boundary_sphere(g.letters, ctx), PROV_BOUNDARY, g.is_identity)
        for val in whisker.values():
            if val.spec != spec:
                raise SceneError("whisker value over a different group spec")
        whisker = {b: R.gr_bar_reduce(v) for b, v in whisker.items()}
        _validate_whisker_keys(ctx, whisker)
        if whisker:
            # validate against the sphere and boundary relations only: the
            # whisker values themselves are the data under scrutiny
            _validate_whisker_action(ctx, whisker, index, kept)
        for b in sorted(whisker, key=word_key):
            classify({w.letters: c for w, c in whisker[b].items()}, PROV_WHISKER, True)

    relations = tuple(RingElem(spec, tuple((gens[i], c) for i, c in key))
                      for key in kept)
    return RelationSet(spec, window, gens, relations, tuple(prov), tuple(dropped),
                       index)


def build_rel_arcs(ctx: DaxContext, window: int) -> RelationSet:
    """Dax-image relations for arcs: the kernel presentation denominator."""
    if ctx.mode != "arcs":
        raise ModeError("build_rel_arcs requires arcs mode")
    return _assemble(ctx, window, circles=False, whisker={}, embedded=False)


def build_rel_circles(ctx: DaxContext, whisker: dict[Word, RingElem] | None,
                      window: int) -> RelationSet:
    """Arc relations plus boundary-sphere values plus whisker classes."""
    if ctx.mode != CIRCLES:
        raise ModeError("build_rel_circles requires circles mode")
    return _assemble(ctx, window, circles=True, whisker=dict(whisker or {}),
                     embedded=False)


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
    rs = _assemble(ctx, window, circles=circles, whisker=whisker, embedded=True)
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
                             index: dict[tuple, int],
                             base: list[tuple[tuple[int, int], ...]]):
    """Reject whisker tables that cannot come from a centralizer action.

    Powers of the circle class drag a point around itself, so their values
    vanish identically.  The cocycle law w(b1 b2) = b1 w(b2) b1^-1 + w(b1)
    is checked on key pairs whose product is again a key, modulo the sphere
    and boundary relations ``base`` (as (index, coefficient) pairs of the
    window ``index``, which maps a generator's letters to its position; the
    action lives on that quotient).
    """
    for b, val in whisker.items():
        if _is_power_of(b, ctx.s_class) and not val.is_zero:
            raise SceneError(
                f"whisker value of {render_word(b)} must vanish: it is a power"
                " of the circle class")

    basis = None

    def is_trivial(val: RingElem) -> bool:
        nonlocal basis
        if val.is_zero:
            return True
        if any(w.letters not in index for w in val.support()):
            return False
        if basis is None:  # most tables have no nonzero law value to check
            basis = snf.hermite_row_basis([dict(rel) for rel in base])
        return not snf.reduce_mod_rows({index[w.letters]: c for w, c in val.items()},
                                       basis)

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

def column(index: dict[Word, int], elem: RingElem) -> dict[int, int]:
    """elem as a sparse vector: generator index -> coefficient."""
    col = {}
    for w, c in elem.items():
        if w.is_identity:
            raise SceneError("values must be reduced (no identity term)")
        try:
            col[index[w]] = c
        except KeyError:
            raise WindowOverflowError(
                f"value {elem} not supported on the window", str(elem)) from None
    return col


class QuotientSolver:
    """Coordinates and canonical residues for one windowed quotient.

    One reduction of the relations to their Hermite basis
    (``snf.sparse_rank_and_torsion``) gives the free rank, the invariant
    factors, the canonical residues and the coordinates, and on the way the
    invariant factors of the two next-smaller windows.  A coordinate vector
    is read off the canonical residue, so it depends on the lattice alone.
    Built once per relation set as ``RelationSet.solver``; it keeps the
    spec, not the relation set, so the two are freed together.
    """

    def __init__(self, rs: RelationSet):
        self.spec = rs.spec
        self.generators = rs.generators
        self.index = rs.index
        n = len(rs.generators)
        # one column per relation up to sign, each with its shell: the length
        # of its longest word, which is its last term (terms are in word_key
        # order, graded by length)
        seen = set()
        shelled = []
        for key in rs.columns:
            if key and key[0][1] < 0:
                key = tuple((i, -c) for i, c in key)
            if key in seen:
                continue
            seen.add(key)
            shell = word_length(rs.generators[key[-1][0]]) if key else 0
            shelled.append((shell, dict(key)))
        # stably sorted by shell, the columns of a smaller window W' are a
        # prefix: exactly the relations supported on the ball of radius W'
        shelled.sort(key=lambda sc: sc[0])
        shells = [shell for shell, _ in shelled]
        smaller = (rs.window - 2, rs.window - 1)
        self._elim = snf.sparse_rank_and_torsion(
            [col for _, col in shelled], n,
            prefixes=[bisect.bisect_right(shells, w) for w in smaller])
        self.free_rank = n - self._elim.rank
        self.torsion = tuple(self._elim.torsion)
        # invariant factors of the windows W-2, W-1 and W
        self.window_torsion = dict(zip(smaller, map(tuple, self._elim.prefix_torsion)))
        self.window_torsion[rs.window] = self.torsion

    def _residue(self, elem: RingElem) -> dict[int, int]:
        """The canonical residue of elem, as a sparse vector."""
        return snf.reduce_mod_rows(column(self.index, elem), self._elim.basis)

    def elem(self, pairs) -> RingElem:
        """The ring element with coefficient c at generator i, for each
        (i, c) of ``pairs``."""
        gens = self.generators
        return R.from_terms(self.spec, [(gens[i], c) for i, c in pairs])

    def coords(self, elem: RingElem) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(free coordinates, torsion coordinates) of the class of elem.

        The canonical residue is zero at the unit pivots of the Hermite
        basis.  The free coordinates list its entries at the generators that
        are neither pivots nor in the residual block, then the free rows of
        the block; torsion coordinates follow the invariant factors, each
        reduced into [0, d).
        """
        elim = self._elim
        v = self._residue(elem)
        free = [v.get(i, 0) for i in elim.free_rows]
        tors = []
        block = [v.get(i, 0) for i in elim.residual_rows]
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
        return self.elem(self._residue(elem).items())


def restrict_relationset(rs: RelationSet, window: int) -> RelationSet:
    """The same relation data truncated to a smaller window.

    Keeps exactly the relations supported on the smaller ball; everything
    else moves to the dropped list.
    """
    gens = tuple(w for w in rs.generators if word_length(w) <= window)
    gens_set = set(gens)
    kept, prov, dropped = [], [], list(rs.dropped_terms)
    for rel, p in zip(rs.relations, rs.provenance):
        if all(w in gens_set for w in rel.support()):
            kept.append(rel)
            prov.append(p)
        else:
            dropped.append((p, {w.letters: c for w, c in rel.terms}))
    return RelationSet(rs.spec, window, gens, tuple(kept), tuple(prov),
                       tuple(dropped))


def quotient_structure(rs: RelationSet) -> AbelianStructure:
    """Free rank and invariant factors of the windowed quotient.

    The stable flag reports that the invariant factors agree with the two
    next-smaller windows (free rank keeps growing with the window; torsion
    is the part that converges).  The one reduction ``rs.solver`` gives all
    three windows.
    """
    solver = rs.solver
    torsion, w = solver.window_torsion, rs.window
    stable = torsion[w] == torsion[w - 1]
    if w >= 2 and stable:
        stable = torsion[w - 1] == torsion[w - 2]
    return AbelianStructure(solver.free_rank, solver.torsion, w, stable)


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
                       tuple(prov), rs.dropped_terms, rs.letter_index)


# ---------------------------------------------------------------------------
# centralizer orbits (circles in dimension three)
# ---------------------------------------------------------------------------

def centralizer_orbit_reduce(value: RingElem, rs: RelationSet,
                             action: OrbitAction) -> OrbitResult:
    """Deterministic representative of the orbit of ``value`` mod ``rs``.

    The moves of ``action`` act by r -> b r b^-1 + w(b).  The orbit is
    explored within the window, up to ``MAX_ORBIT_STATES`` states; moves
    that leave it, or a search cut at that bound, mark the result incomplete
    instead of failing, so representatives of window-infinite orbits are
    still canonical for the explored region.  States are residues of the
    one reduction ``rs.solver``.
    """
    solver = rs.solver

    def state(elem: RingElem) -> tuple[tuple[int, int], ...]:
        # the residue's (index, coefficient) pairs: the least state is the
        # earliest-supported, smallest-coefficient one, and zero comes first
        return tuple(sorted(solver._residue(elem).items()))

    start = state(value)
    visited = {start}
    queue = deque([start])
    complete = True
    while queue:
        if len(visited) > MAX_ORBIT_STATES:
            complete = False
            break
        vec = queue.popleft()
        r = solver.elem(vec)
        for b, w_b in action.moves:
            moved = R.gr_add(R.gr_conj(b, r), w_b)
            if any(w not in solver.index for w in moved.support()):
                complete = False
                continue
            key = state(moved)
            if key not in visited:
                visited.add(key)
                queue.append(key)

    return OrbitResult(solver.elem(min(visited)), complete, len(visited))
