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
import heapq
from collections import deque
from dataclasses import dataclass, field

from .errors import ModeError, SceneError, WindowOverflowError
from .groups import (
    GroupSpec,
    Word,
    _letter_key,
    _letters_length,
    ball,
    inv,
    key_letters,
    mul,
    render_letters,
    render_word,
    word_key,
    word_length,
)
from . import ring as R
from .ring import RingElem
from . import snf
from .calculus import CIRCLES, DaxContext, _dax_boundary_sphere, _dax_u
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

    The generators are the window: the ball of radius ``window`` less the
    identity, in ``word_key`` order, so graded by length.  ``letter_index``
    maps a generator's letters to its position; relation assembly hands over
    the map it classified with, and any other construction builds it.

    What a relation set stores is its ``columns``: each relation as its
    (position, coefficient) pairs, sorted by position, which is the
    ``word_key`` order of its terms.  The solver, the concordance fold, the
    orbit search and the ``target`` report read them.  ``relations`` (one
    ``RingElem`` per column, sharing the window's Words) is derived on first
    read.  The constructor
    takes columns as given; ``from_relations`` is the one entry point that
    takes ``RingElem`` relations, and checks that they are supported on the
    window.

    ``dropped_terms`` holds the values that left the window, each as its
    provenance and an unsorted term dict keyed by normal form letter tuples
    (letters -> coefficient, zeros allowed), as relation assembly produced
    it.  Equality ignores them.  ``order_dropped`` puts the terms of one in
    ``word_key`` order, with window positions standing for the terms inside
    the window: the ``target`` report renders them from there, and
    ``dropped``, read by tests and the benchmark's counters, turns them into
    ``RingElem`` values on first read, sharing the window's Words.
    """

    spec: GroupSpec
    window: int
    generators: tuple[Word, ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]
    provenance: tuple[str, ...]
    dropped_terms: tuple[tuple[str, dict[tuple, int]], ...] = field(
        default=(), repr=False, compare=False)
    letter_index: dict[tuple, int] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.letter_index is None:
            object.__setattr__(self, "letter_index",
                               {w.letters: i for i, w in enumerate(self.generators)})

    @classmethod
    def from_relations(cls, spec: GroupSpec, window: int, generators: tuple[Word, ...],
                       relations, provenance, dropped_terms=()) -> RelationSet:
        """The relation set of ``RingElem`` relations over the window
        ``generators``; each relation's column lists its terms' positions in
        term order.  A relation with a term outside the window raises
        ``WindowOverflowError``."""
        index = {w.letters: i for i, w in enumerate(generators)}
        columns = []
        for rel in relations:
            col, outside = _place(index, R.letter_terms(rel))
            if outside:
                raise WindowOverflowError(f"relation {_value_text(spec, R.letter_terms(rel))}"
                                          " not supported on the window")
            columns.append(tuple(col.items()))
        return cls(spec, window, tuple(generators), tuple(columns), tuple(provenance),
                   tuple(dropped_terms), index)

    @functools.cached_property
    def relations(self) -> tuple[RingElem, ...]:
        """The relations as ring elements, built from the columns on first
        read; they share the window's Words."""
        spec, gens = self.spec, self.generators
        return tuple(RingElem(spec, tuple([(gens[i], c) for i, c in col]))
                     for col in self.columns)

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
    each group element once.  An entry missing from ``whisker`` follows
    from the action law: w(b^-1) = -b^-1 w(b) b, and w(b) = -b w(b^-1) b^-1
    when only w(b^-1) is tabled; with neither, w(b) = 0.
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
            bi = inv(b)
            w_b, w_bi = (R.gr_bar_reduce(table[k]) if k in table else None for k in (b, bi))
            if w_b is None:
                w_b = R.zero(s.spec) if w_bi is None else R.gr_neg(R.gr_conj(b, w_bi))
            moves.setdefault(b, w_b)
            moves.setdefault(bi, R.gr_neg(R.gr_conj(bi, w_b)) if w_bi is None else w_bi)
        object.__setattr__(self, "moves", tuple(moves.items()))


@dataclass
class OrbitResult:
    """The orbit search's answer; ``state`` is the representative as the
    (position, coefficient) pairs of its canonical residue."""

    representative: RingElem
    complete: bool
    size: int
    state: tuple[tuple[int, int], ...] = field(repr=False, compare=False)


def order_dropped(spec: GroupSpec, letter_index: dict[tuple, int],
                  terms: dict[tuple, int]):
    """The nonzero terms of a dropped value in ``word_key`` order, as two
    lists: the terms inside the window as (position, coefficient) pairs
    sorted by position, then the terms outside it as (letters, coefficient)
    pairs sorted by ``word_key`` of their letters.  One pass over the term
    dict splits the terms, each letter tuple looked up once in
    ``letter_index``; the positions of distinct terms are distinct, so the
    pairs sort as integers.

    Two outside terms, the common case of a free group's dropped values,
    are put in order by one shortlex comparison that builds no key: the
    shorter word first, and between words of one length the one whose
    first differing letter keys lower, by the rules ``word_key`` is made of
    (``groups._letters_length``, ``groups._letter_key``).  The letter keys
    of distinct letters differ, and neither of two distinct words of one
    length is a prefix of the other, so this is the ``word_key`` order.
    Three or more outside terms are sorted by ``key_letters``.

    This is the order of ``RingElem`` terms: the window is the ball of
    radius W less the identity, in ``word_key`` order, and a dropped value
    is reduced, so every term outside the window is longer than W and sorts
    after every term inside.
    """
    inside, outside = [], []
    get = letter_index.get
    for w, c in terms.items():
        if c:
            i = get(w)
            if i is None:
                outside.append((w, c))
            else:
                inside.append((i, c))
    inside.sort()
    if len(outside) == 2:
        index = spec._index
        a, b = outside[0][0], outside[1][0]
        n, m = _letters_length(index, a), _letters_length(index, b)
        if n == m:
            x, y = next((x, y) for x, y in zip(a, b) if x != y)
            n, m = _letter_key(index, *x), _letter_key(index, *y)
        if m < n:
            outside.reverse()
    elif len(outside) > 2:
        outside.sort(key=lambda term: key_letters(spec, term[0]))
    return inside, outside


def _place(letter_index: dict[tuple, int], terms):
    """The nonzero (letters, coefficient) terms split by the window: a dict
    position -> coefficient of those inside it, and a dict letters ->
    coefficient of those outside it, each in the order of ``terms``.  A
    letter tuple is looked up once, in ``letter_index``; an identity term
    is outside."""
    inside, outside = {}, {}
    get = letter_index.get
    for w, c in terms:
        if c:
            i = get(w)
            if i is None:
                outside[w] = c
            else:
                inside[i] = c
    return inside, outside


# ---------------------------------------------------------------------------
# building relation sets
# ---------------------------------------------------------------------------

def window_generators(spec, window: int) -> tuple[Word, ...]:
    elements = ball(spec, window, limit=MAX_WINDOW_GENERATORS)
    return tuple(w for w in elements if not w.is_identity)


def _assemble(ctx: DaxContext, window: int, embedded: bool) -> RelationSet:
    """The relation set of one window: the dax value of every translate in
    the ball and, in circles mode, the boundary spheres.  Every translated
    class takes the one formula body ``calculus._dax_u``; ``embedded``
    labels those values with the 3-manifold provenance rather than the
    dax-image one.  Whisker values join later, through ``_add_whiskers``.

    Assembly runs on normal form letter tuples: the ball's Words are built
    once, by ``window_generators``, and every product, inverse and lookup
    after that joins, inverts and hashes their letters through the spec's
    kernels (``GroupSpec._mul``, ``GroupSpec._inv``), so no ``Word`` is
    built per translate.  The kernels, each class's dax(a) and lambda(a, u)
    as letter terms, and the circle constants are read once per build, so
    no per-translate step reads a class's ``Word`` letters, asks a
    ``RingElem`` whether it is zero or checks the mode.  The dax formula of
    a translate g*a starts from its twist T_a(g), which
    ``pairing.twists_on_ball`` carries from g's parent in the ball: across
    a central generator step at the cost of the step's own pairing value,
    not of g's.

    Values are classified in generator-index space.  The formula bodies give
    each value as a reduced letter-keyed term dict, and each term is looked
    up once in ``index``, which maps a generator's letters to its position
    in the window.  A value supported on the window becomes its nonzero
    (index, coefficient) pairs sorted as integers: the window is the ball in
    ``word_key`` order, so this is the order ``from_terms`` would give,
    without a ``word_key`` per term.  Duplicates are caught on those pairs,
    and a kept relation is stored as them, its column.  A value that leaves
    the window is dropped as its term dict, and ``index`` goes to the relation
    set as its ``letter_index``: ``order_dropped`` sorts a dropped value only
    when a report or ``RelationSet.dropped`` reads it.  A base relation (one
    of the identity translate) that leaves the window is sorted into the
    message of a ``WindowOverflowError``.
    """
    if window < 1:
        raise SceneError("window must be >= 1")
    spec = ctx.spec
    mul, inv = spec._mul, spec._inv
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
                    raise _base_overflow(spec, acc.items())
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

    # each class's dax(a) and lambda(a, u) as letter terms, read once
    terms = [(R.letter_terms(a.base_dax), R.letter_terms(a.lambda_u))
             for a in ctx.table.classes]
    class_prov = PROV_SPHERE_3MFD if embedded else PROV_DAX_IMAGE
    if terms:  # the twist of every class and translate, each from its parent's
        for g, twists in twists_on_ball(ctx.table, enum):
            letters = g.letters
            for (base, lam_u), twist in zip(terms, twists):
                classify(_dax_u(mul, inv, letters, base, lam_u, twist), class_prov,
                         not letters)
    if ctx.mode == CIRCLES:
        s_inv, flip = ctx.s_inv, ctx.flip
        for g in enum:
            letters = g.letters
            classify(_dax_boundary_sphere(mul, inv, letters, s_inv, flip), PROV_BOUNDARY,
                     not letters)

    return RelationSet(spec, window, gens, tuple(kept), tuple(prov), tuple(dropped),
                       index)


def _value_text(spec: GroupSpec, terms) -> str:
    """The text of a value in an overflow message, from its (letters,
    coefficient) terms with distinct letters: the whole value up to 8
    nonzero terms, else its first and last three terms in ``word_key``
    order and its term count.  The terms are picked by ``heapq``, so a long
    value costs no ``Word`` per term and no full sort."""
    terms = [(w, c) for w, c in terms if c]
    key = lambda term: key_letters(spec, term[0])
    text = lambda part: R.render_terms([(render_letters(w), c) for w, c in part])
    if len(terms) <= 8:
        return text(sorted(terms, key=key))
    head = heapq.nsmallest(3, terms, key=key)
    tail = heapq.nlargest(3, terms, key=key)[::-1]
    return f"{text(head)} ... {text(tail)} ({len(terms)} terms)"


def _base_overflow(spec: GroupSpec, terms) -> WindowOverflowError:
    """The error for a base relation with (letters, coefficient) ``terms``
    that leaves the window."""
    return WindowOverflowError(f"base relation {_value_text(spec, terms)} exceeds the"
                               " generator window; increase the window")


def _append(rs: RelationSet, columns, provenance: str) -> RelationSet:
    """rs with each of ``columns`` that is not among its columns yet
    appended, labelled ``provenance``; the dropped values and the window
    stay."""
    kept, prov = list(rs.columns), list(rs.provenance)
    seen = set(kept)
    for col in columns:
        if col not in seen:
            seen.add(col)
            kept.append(col)
            prov.append(provenance)
    return RelationSet(rs.spec, rs.window, rs.generators, tuple(kept), tuple(prov),
                       rs.dropped_terms, rs.letter_index)


def build_rel_arcs(ctx: DaxContext, window: int) -> RelationSet:
    """Dax-image relations for arcs: the kernel presentation denominator."""
    if ctx.mode != "arcs":
        raise ModeError("build_rel_arcs requires arcs mode")
    return _assemble(ctx, window, embedded=False)


def build_rel_circles(ctx: DaxContext, whisker: dict[Word, RingElem] | None,
                      window: int) -> RelationSet:
    """Arc relations plus boundary-sphere values plus whisker classes."""
    if ctx.mode != CIRCLES:
        raise ModeError("build_rel_circles requires circles mode")
    rs = _assemble(ctx, window, embedded=False)
    return _add_whiskers(ctx, rs, whisker)[0] if whisker else rs


def build_rel_3mfd(ctx: DaxContext, window: int,
                   whisker: dict[Word, RingElem] | None = None):
    """Relation set for a 3-manifold scene, plus the centralizer action data.

    Sphere classes must be disjointly embedded generators, so their base dax
    values vanish; in circles mode (``ctx.mode``) the boundary-sphere family
    and whisker values join the relations.  A whisker table outside circles
    mode raises ``ModeError``.  The action is ``_add_whiskers``'s.
    """
    if ctx.d != 3:
        raise ModeError("build_rel_3mfd requires ambient dimension 3")
    for a in ctx.table.classes:
        if not a.embedded:
            raise SceneError(
                f"3-manifold sphere generators must be embedded: {a.name!r}")
    if whisker and ctx.mode != CIRCLES:
        raise ModeError("whisker tables only make sense in circles mode")
    return _add_whiskers(ctx, _assemble(ctx, window, embedded=True), whisker or {})


def _add_whiskers(ctx: DaxContext, rs: RelationSet, whisker: dict[Word, RingElem]):
    """The assembled relation set ``rs`` with the whisker table's values
    appended, and the centralizer action of the table.

    Keys and values must be over the scene's spec.  The action
    (``OrbitAction``) checks that every key centralizes the circle class and
    bar-reduces the values.  A nonzero value must not sit on a power of the
    circle class, which drags a point around itself, nor on any key when
    the circle class is trivial.  The cocycle law w(b1 b2) = b1 w(b2) b1^-1
    + w(b1) is checked on key pairs whose product is again a key or the
    identity (w(1) = 0 when 1 is not a key, so an inverse pair is checked
    too), modulo the assembled relations: the action lives on that
    quotient.  A law difference with a term outside the window cannot be
    checked there and raises ``WindowOverflowError``, as does a value
    outside it.  The values join as ``PROV_WHISKER`` columns in ``word_key``
    order of their keys.  An empty table returns ``rs`` itself.
    """
    spec, s = ctx.spec, ctx.s_class
    if any(val.spec != spec for val in whisker.values()):
        raise SceneError("whisker value over a different group spec")
    if any(b.spec != spec for b in whisker):
        raise SceneError("whisker key over a different group spec")
    keys = sorted(whisker, key=word_key)
    cent = keys if s.is_identity or s in whisker else keys + [s]
    action = OrbitAction(s, tuple(cent), tuple((b, whisker[b]) for b in keys))
    if not whisker:
        return rs, action
    moves = dict(action.moves)  # a key moves by its own value, bar-reduced
    table = {b: moves[b] for b in whisker}
    for b, val in table.items():
        if val.is_zero:
            continue
        if s.is_identity:
            raise SceneError("whisker classes vanish when the circle class is trivial;"
                             f" nonzero value supplied for {render_word(b)}")
        if _is_power_of(b, s):
            raise SceneError(f"whisker value of {render_word(b)} must vanish: it is a"
                             " power of the circle class")

    index, basis = rs.letter_index, None
    for b1 in table:
        for b2 in table:
            prod = mul(b1, b2)
            w_prod = table.get(prod, R.zero(spec) if prod.is_identity else None)
            if w_prod is None:
                continue
            diff = R.gr_add(w_prod, R.gr_neg(R.gr_add(R.gr_conj(b1, table[b2]), table[b1])))
            vec, outside = _place(index, R.letter_terms(diff))
            pair = f"({render_word(b1)}, {render_word(b2)})"
            if outside:
                raise WindowOverflowError(f"whisker action law on {pair} leaves the"
                                          " generator window; increase the window")
            if not vec:
                continue
            if basis is None:  # most tables have no nonzero law value to check
                basis = snf.hermite_row_basis([dict(col) for col in rs.columns])
            if snf.reduce_mod_rows(vec, basis):
                raise SceneError(f"whisker table violates the action law on {pair}")

    columns = []
    for b in keys:
        col, outside = _place(index, R.letter_terms(table[b]))
        if outside:
            raise _base_overflow(spec, R.letter_terms(table[b]))
        if col:
            columns.append(tuple(col.items()))
    return _append(rs, columns, PROV_WHISKER), action


def _is_power_of(b: Word, s: Word) -> bool:
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


# ---------------------------------------------------------------------------
# quotient structure
# ---------------------------------------------------------------------------

def column(letter_index: dict[tuple, int], elem: RingElem) -> dict[int, int]:
    """elem as a sparse vector: generator position -> coefficient, the
    position looked up by letters in a relation set's ``letter_index``."""
    col, outside = _place(letter_index, R.letter_terms(elem))
    if outside:
        if () in outside:
            raise SceneError("values must be reduced (no identity term)")
        raise WindowOverflowError(f"value {_value_text(elem.spec, R.letter_terms(elem))}"
                                  " not supported on the window")
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
        self.generators = gens = rs.generators
        self.letter_index = rs.letter_index
        n = len(gens)
        # the window is graded by length: its generators of length <= k are
        # the first ends[k - 1]
        top = word_length(gens[-1]) if gens else 0
        ends = [bisect.bisect_right(gens, k, key=word_length) for k in range(1, top + 1)]
        # one column per relation up to sign, each with its shell: the length
        # of its longest word, which is its last term (terms are in word_key
        # order)
        seen = set()
        shelled = []
        for key in rs.columns:
            if key and key[0][1] < 0:
                key = tuple((i, -c) for i, c in key)
            if key in seen:
                continue
            seen.add(key)
            shell = bisect.bisect_right(ends, key[-1][0]) + 1 if key else 0
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

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """The canonical residue of the sparse vector ``vec`` (position ->
        coefficient), without zero entries."""
        return snf.reduce_mod_rows(vec, self._elim.basis)

    def residue(self, elem: RingElem) -> dict[int, int]:
        """The canonical residue of elem, as a sparse vector."""
        return self.reduce(column(self.letter_index, elem))

    def elem(self, pairs) -> RingElem:
        """The ring element with coefficient c at generator i, for each
        (i, c) of ``pairs`` (positions distinct, zeros skipped).  Terms in
        position order are terms in ``word_key`` order, since the window is
        the ball in that order: the pairs are sorted as integers, and no
        ``word_key`` is computed."""
        gens = self.generators
        return RingElem(self.spec, tuple([(gens[i], c) for i, c in sorted(pairs) if c]))

    def coords(self, elem: RingElem) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(free coordinates, torsion coordinates) of the class of elem."""
        return self.residue_coords(self.residue(elem))

    def residue_coords(self, v: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(free coordinates, torsion coordinates) of the class whose
        canonical residue is the sparse vector ``v``.

        The canonical residue is zero at the unit pivots of the Hermite
        basis.  The free coordinates list its entries at the generators that
        are neither pivots nor in the residual block, then the free rows of
        the block; torsion coordinates follow the invariant factors, each
        reduced into [0, d).
        """
        elim = self._elim
        free = [v.get(i, 0) for i in elim.free_rows]
        tors = []
        for row, d in zip(elim.residual_left, elim.residual_diagonal):
            if d == 1:
                continue
            y = sum(c * v.get(i, 0) for i, c in row.items())
            if d == 0:
                free.append(y)
            else:
                tors.append(y % d)
        return tuple(free), tuple(tors)

    def free_functional(self, weights: list[int]) -> dict[int, int]:
        """The sparse functional f on canonical residues whose dot product
        with a residue v is the sum of weights[j] * free_j(v) over the free
        coordinates of ``residue_coords``: the transpose of its free part."""
        elim = self._elim
        weights = iter(weights)
        f = {i: w for i, w in zip(elim.free_rows, weights) if w}
        for row, d in zip(elim.residual_left, elim.residual_diagonal):
            if d == 0:
                w = next(weights)
                for i, c in row.items():
                    f[i] = f.get(i, 0) + w * c
        return {i: c for i, c in f.items() if c}


def restrict_relationset(rs: RelationSet, window: int) -> RelationSet:
    """The same relation data truncated to a smaller window.

    The smaller ball's generators are a prefix of the window, which is
    graded by length, so a relation keeps its column when all its positions
    lie in that prefix; everything else moves to the dropped list.

    These are the relations of the larger build supported on the smaller
    ball, not the direct build there: they hold every relation of that
    build and can hold more, from translates outside the smaller ball
    (seed-0 ``embedded.Z2.W5.eval``: 32 against 29 relations at window 3).
    """
    gens = rs.generators
    n = bisect.bisect_right(gens, window, key=word_length)
    kept, prov, dropped = [], [], list(rs.dropped_terms)
    for col, p in zip(rs.columns, rs.provenance):
        if all(i < n for i, _ in col):
            kept.append(col)
            prov.append(p)
        else:
            dropped.append((p, {gens[i].letters: c for i, c in col}))
    return RelationSet(rs.spec, window, gens[:n], tuple(kept), tuple(prov),
                       tuple(dropped))


def quotient_structure(rs: RelationSet) -> AbelianStructure:
    """Free rank and invariant factors of the windowed quotient.

    The stable flag reports that the invariant factors agree with the two
    next-smaller windows (free rank keeps growing with the window; torsion
    is the part that converges).  The one reduction ``rs.solver`` gives all
    three windows.  A smaller window here is ``restrict_relationset``'s: the
    relations of this build supported on the smaller ball, which can be a
    strict superset of the direct build at that window.
    """
    solver = rs.solver
    torsion, w = solver.window_torsion, rs.window
    stable = torsion[w] == torsion[w - 1]
    if w >= 2 and stable:
        stable = torsion[w - 1] == torsion[w - 2]
    return AbelianStructure(solver.free_rank, solver.torsion, w, stable)


def concordance_quotient(rs: RelationSet) -> RelationSet:
    """Append the sheet-ambiguity relations g^-1 - g, one per inverse pair.

    Each is the column ((i, -1), (j, 1)) of the positions i of g and j of
    g^-1, which ``letter_index`` gives from g's inverted letters.  Positions
    are in ``word_key`` order, so a pair is added from its earlier member
    (j > i), an element that is its own inverse adds nothing (j == i), and
    a column already among the relations is not added again.  A partner
    outside the window raises ``WindowOverflowError`` unless it sorts
    first, when the pair is not g's to add.
    """
    spec, index = rs.spec, rs.letter_index

    def fold():
        for i, g in enumerate(rs.generators):
            gi = spec._inv(g.letters)
            j = index.get(gi)
            if j is None:
                if key_letters(spec, gi) < key_letters(spec, g.letters):
                    continue
                val = _value_text(spec, ((gi, 1), (g.letters, -1)))
                raise WindowOverflowError(f"relation {val} not supported on the window")
            if j > i:  # else the partner generator contributes the same relation
                yield (i, -1), (j, 1)

    return _append(rs, fold(), PROV_CONCORDANCE)


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
    still canonical for the explored region.

    States are the canonical residues of the one reduction ``rs.solver``,
    as sorted (position, coefficient) pairs; the least one is the
    representative.  A move maps each position to the position of
    b g b^-1, joined from letters by the spec's product kernel
    (``GroupSpec._mul``) and looked up in ``letter_index``, and adds
    w(b), split once into its positions and the letters of its terms
    outside the window.  The move leaves the window when the sum of the
    conjugated terms and w(b) has a nonzero term outside it: a conjugated
    term outside the window can cancel against a term of w(b).
    """
    solver = rs.solver
    spec, index, gens = rs.spec, rs.letter_index, rs.generators
    mul = spec._mul

    def state(vec: dict[int, int]) -> tuple[tuple[int, int], ...]:
        # the least state is the earliest-supported, smallest-coefficient
        # one, and zero comes first
        return tuple(sorted(solver.reduce(vec).items()))

    moves = [(b.letters, spec._inv(b.letters), *_place(index, R.letter_terms(w_b)))
             for b, w_b in action.moves]

    start = state(column(index, value))
    visited = {start}
    queue = deque([start])
    complete = True
    while queue:
        if len(visited) > MAX_ORBIT_STATES:
            complete = False
            break
        r = queue.popleft()
        for b, bi, inside, outside in moves:
            moved, left = dict(inside), dict(outside)
            for i, c in r:
                letters = mul(mul(b, gens[i].letters), bi)
                j = index.get(letters)
                if j is None:
                    left[letters] = left.get(letters, 0) + c
                else:
                    moved[j] = moved.get(j, 0) + c
            if any(left.values()):
                complete = False
                continue
            key = state(moved)
            if key not in visited:
                visited.add(key)
                queue.append(key)

    rep = min(visited)
    return OrbitResult(solver.elem(rep), complete, len(visited), rep)
