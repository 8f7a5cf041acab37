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
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat

from .errors import ModeError, SceneError, WindowOverflowError
from .groups import (
    FINITE_CYCLIC,
    FREE_ABELIAN,
    GroupSpec,
    Word,
    _around,
    _letter_key,
    _letters_length,
    ball,
    inv,
    key_letters,
    mul,
    render_letters,
    render_word,
    word_key,
)
from . import ring as R
from .ring import RingElem
from . import snf
from .calculus import CIRCLES, DaxContext, _dax_boundary_sphere, _dax_u, _reduced_sum
from .pairing import add_principal_twist, twists_on_ball

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

    The window is the ball of radius ``window`` less the identity, in
    ``word_key`` order, so graded by length, stored as its elements' normal
    form ``letters``.  ``letter_index`` maps a window element's letters to
    its position; relation assembly hands over the map it classified with,
    and any other construction builds it.

    What a relation set stores is its ``columns``: each relation as its
    (position, coefficient) pairs, sorted by position, which is the
    ``word_key`` order of its terms.  The solver, the concordance fold, the
    orbit search and the ``target`` report read them and the letters, and
    build no ``Word`` of the window.  ``generators`` (the window as
    ``Word``s) and ``relations`` (one ``RingElem`` per column, sharing those
    Words) are derived on first read; tests and the benchmark's counters
    read them.  The constructor takes columns as given; ``from_relations``
    is the one entry point that takes ``RingElem`` relations, and checks
    that they are supported on the window.

    ``dropped_terms`` holds the values that left the window, each as its
    provenance and an unsorted term dict keyed by normal form letter tuples
    (letters -> coefficient, zeros allowed), as relation assembly produced
    it.  Equality ignores them.  ``order_dropped`` puts the terms of one in
    ``word_key`` order, with window positions standing for the terms inside
    the window: the ``target`` report renders them from there, and
    ``dropped``, read by tests and the benchmark's counters, turns them into
    ``RingElem`` values on first read, sharing the ``generators`` Words.
    """

    spec: GroupSpec
    window: int
    letters: tuple[tuple, ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]
    provenance: tuple[str, ...]
    dropped_terms: tuple[tuple[str, dict[tuple, int]], ...] = field(
        default=(), repr=False, compare=False)
    letter_index: dict[tuple, int] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.letter_index is None:
            object.__setattr__(self, "letter_index",
                               {a: i for i, a in enumerate(self.letters)})

    @classmethod
    def from_relations(cls, spec: GroupSpec, window: int, letters: tuple[tuple, ...],
                       relations, provenance, dropped_terms=()) -> RelationSet:
        """The relation set of ``RingElem`` relations over the window whose
        elements have the normal form ``letters``; each relation's column
        lists its terms' positions in term order.  A relation with a term
        outside the window raises ``WindowOverflowError``."""
        index = {a: i for i, a in enumerate(letters)}
        columns = []
        for rel in relations:
            col, outside = _place(index, R.letter_terms(rel))
            if outside:
                raise WindowOverflowError(f"relation {_value_text(spec, R.letter_terms(rel))}"
                                          " not supported on the window")
            columns.append(tuple(col.items()))
        return cls(spec, window, tuple(letters), tuple(columns), tuple(provenance),
                   tuple(dropped_terms), index)

    @functools.cached_property
    def generators(self) -> tuple[Word, ...]:
        """The window as ``Word``s, built from the letters on first read."""
        spec = self.spec
        return tuple([Word(spec, a) for a in self.letters])

    @functools.cached_property
    def relations(self) -> tuple[RingElem, ...]:
        """The relations as ring elements, built from the columns on first
        read; they share the ``generators`` Words."""
        spec, gens = self.spec, self.generators
        return tuple(RingElem(spec, tuple([(gens[i], c) for i, c in col]))
                     for col in self.columns)

    @functools.cached_property
    def dropped(self) -> tuple[tuple[str, RingElem], ...]:
        """(provenance, value) of each dropped value, sorted on first read;
        the terms inside the window share the ``generators`` Words, and only
        the terms outside it get a new ``Word``."""
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

def window_generators(spec, window: int) -> tuple[tuple, ...]:
    """The window of radius ``window``: the normal form letters of the ball
    less the identity, in ``word_key`` order, capped at
    ``MAX_WINDOW_GENERATORS`` elements."""
    return tuple(ball(spec, window, limit=MAX_WINDOW_GENERATORS)[1:])


def _assemble(ctx: DaxContext, window: int, embedded: bool) -> RelationSet:
    """The relation set of one window: the dax value of every translate in
    the ball and, in circles mode, the boundary spheres.  Every translated
    class takes the one formula body ``calculus._dax_u``; ``embedded``
    labels those values with the 3-manifold provenance rather than the
    dax-image one.  Whisker values join later, through ``_add_whiskers``.

    Assembly runs on normal form letter tuples, from the window's letters
    (``window_generators``) on: every product, inverse and lookup joins,
    inverts and hashes letters through the spec's kernels
    (``GroupSpec._mul``, ``GroupSpec._inv``), so no ``Word`` is built,
    neither per window element nor per translate.  The kernels, each
    class's dax(a) and lambda(a, u) as letter terms, and the circle
    constants are read once per build, so no per-translate step reads a
    class's ``Word`` letters, asks a ``RingElem`` whether it is zero or
    checks the mode.  The dax formula of a translate g*a starts from its
    twist T_a(g).  For a class with principal rows, lambda(a, x) = r -
    r x^-1 (``PairingTable.principal_parts``, found once per table), it is
    written down by ``pairing.add_principal_twist``: four words per term of
    r and one inverse of g per translate.  ``pairing.twists_on_ball`` walks
    the ball for the other classes and carries each twist from g's parent:
    across a central generator step at the cost of the step's own pairing
    value, not of g's.  Each translate's classes are classified in table
    order either way.

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

    A boundary sphere is classified by position, with no term dict: its
    two terms, g^-1 with (-1)^(d-1) and g s^-1 with -1
    (``calculus._dax_boundary_sphere``), are distinct and not the identity
    for every translate g but 1, s and a square root of s, so one lookup
    each places them.  Both inside give the column of the two pairs in
    position order, checked against ``seen`` as any other; one outside
    drops the two terms as a dict.  Those three translates, the identity
    with its overflow error among them, are summed and go through
    ``classify``.
    """
    if window < 1:
        raise SceneError("window must be >= 1")
    spec = ctx.spec
    mul, inv = spec._mul, spec._inv
    gens = window_generators(spec, window)
    index = {a: i for i, a in enumerate(gens)}
    enum = ((),) + gens  # the ball, identity first

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

    # each class's dax(a), lambda(a, u) and principal part r (None when it
    # has none) as letter terms, read once
    table = ctx.table
    terms = [(R.letter_terms(a.base_dax), R.letter_terms(a.lambda_u),
              None if r is None else R.letter_terms(r))
             for a, r in zip(table.classes, table.principal_parts)]
    class_prov = PROV_SPHERE_3MFD if embedded else PROV_DAX_IMAGE
    if terms:  # the twist of every class and translate
        walked = [a for a, r in zip(table.classes, table.principal_parts) if r is None]
        walk = twists_on_ball(table, enum, walked) if walked else zip(enum, repeat(()))
        eps, invert = ctx.flip, any(t[2] for t in terms)
        for letters, twists in walk:
            twists = iter(twists)
            g_inv = inv(letters) if invert else None
            for base, lam_u, r in terms:
                twist = (next(twists) if r is None else
                         add_principal_twist(mul, inv, {}, letters, g_inv, r, eps))
                classify(_dax_u(mul, inv, letters, base, lam_u, twist), class_prov,
                         not letters)
    if ctx.mode == CIRCLES:
        s_inv, flip, get = ctx.s_inv, ctx.flip, index.get
        for letters in enum:
            terms = _dax_boundary_sphere(mul, inv, letters, s_inv, flip)
            v, c, w, e = terms
            if letters and w:  # g != 1 and g != s
                i, j = get(v), get(w)
                if i is not None and i != j:  # g^-1 in the window, g^2 != s
                    if j is None:
                        dropped.append((PROV_BOUNDARY, {v: c, w: e}))
                        continue
                    key = ((i, c), (j, e)) if i < j else ((j, e), (i, c))
                    if key not in seen:
                        seen.add(key)
                        kept.append(key)
                        prov.append(PROV_BOUNDARY)
                    continue
            classify(_reduced_sum(terms), PROV_BOUNDARY, not letters)

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
    return RelationSet(rs.spec, rs.window, rs.letters, tuple(kept), tuple(prov),
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
    """Whether b = s^k for some integer k, in a number of word products
    that does not follow k.

    A direct product is a power of s exactly when each factor's block is
    that power of s's block, so one factor where s has infinite order fixes
    k up to its sign.  In a free-abelian block it is the ratio of b's and
    s's exponents of one generator that s moves.  In a free block, s is
    c u c^-1 with u cyclically reduced, so s^k has 2 |c| + |k| |u| letters
    for k != 0, and |s^2| - |s| = |u| gives |k|.  b is compared with s^k
    and s^-k (``_power``).  When s has finite order n, the lcm of its
    cyclic letters' orders, k runs over 0 .. n-1.
    """
    spec = s.spec
    index, mul, inv = spec._index, spec._mul, spec._inv
    a, t = b.letters, s.letters
    for fi, fac in enumerate(spec.factors):
        i, j = _around(t, index, fi)
        if i == j or fac.kind == FINITE_CYCLIC:
            continue
        block, other = t[i:j], a[slice(*_around(a, index, fi))]
        if fac.kind == FREE_ABELIAN:
            name, e = block[0]
            k = dict(other).get(name, 0) // e
        else:
            n, n2 = (_letters_length(index, w) for w in (block, mul(block, block)))
            k = (_letters_length(index, other) - n) // (n2 - n) + 1 if other else 0
        return _power(mul, inv, t, k) == a or _power(mul, inv, t, -k) == a
    n = math.lcm(*(index[name][2] // math.gcd(e, index[name][2]) for name, e in t))
    acc = ()
    for _ in range(n):
        if acc == a:
            return True
        acc = mul(acc, t)
    return False


def _power(mul, inv, t: tuple, k: int) -> tuple:
    """The letters of t^k, by repeated squaring."""
    if k < 0:
        t, k = inv(t), -k
    acc = ()
    while k:
        if k & 1:
            acc = mul(acc, t)
        k >>= 1
        if k:
            t = mul(t, t)
    return acc


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
    spec and the window's ``letters``, not the relation set, so the two are
    freed together.  It builds no ``Word`` of the window: a ``Word`` is
    built only for a term of a residue that ``elem`` returns.
    """

    def __init__(self, rs: RelationSet):
        self.spec = rs.spec
        self.letters = letters = rs.letters
        self.letter_index = rs.letter_index
        n = len(letters)
        # the window is graded by length: its elements of length <= k are
        # the first ends[k - 1]
        length = functools.partial(_letters_length, rs.spec._index)
        top = length(letters[-1]) if letters else 0
        self._ends = ends = [bisect.bisect_right(letters, k, key=length)
                             for k in range(1, top + 1)]
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
        (i, c) of ``pairs`` (positions distinct, zeros skipped), one new
        ``Word`` per term.  Terms in position order are terms in
        ``word_key`` order, since the window is the ball in that order: the
        pairs are sorted as integers, and no ``word_key`` is computed."""
        spec, letters = self.spec, self.letters
        return RingElem(spec, tuple([(Word(spec, letters[i]), c)
                                     for i, c in sorted(pairs) if c]))

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

    The smaller ball's elements are a prefix of the window, which is
    graded by length, so a relation keeps its column when all its positions
    lie in that prefix; everything else moves to the dropped list.

    These are the relations of the larger build supported on the smaller
    ball, not the direct build there: they hold every relation of that
    build and can hold more, from translates outside the smaller ball
    (seed-0 ``embedded.Z2.W5.eval``: 32 against 29 relations at window 3).
    """
    letters = rs.letters
    n = bisect.bisect_right(letters, window,
                            key=functools.partial(_letters_length, rs.spec._index))
    kept, prov, dropped = [], [], list(rs.dropped_terms)
    for col, p in zip(rs.columns, rs.provenance):
        if all(i < n for i, _ in col):
            kept.append(col)
            prov.append(p)
        else:
            dropped.append((p, {letters[i]: c for i, c in col}))
    return RelationSet(rs.spec, window, letters[:n], tuple(kept), tuple(prov),
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
        for i, g in enumerate(rs.letters):
            gi = spec._inv(g)
            j = index.get(gi)
            if j is None:
                if key_letters(spec, gi) < key_letters(spec, g):
                    continue
                val = _value_text(spec, ((gi, 1), (g, -1)))
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
    spec, index, letters = rs.spec, rs.letter_index, rs.letters
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
                g = mul(mul(b, letters[i]), bi)
                j = index.get(g)
                if j is None:
                    left[g] = left.get(g, 0) + c
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
