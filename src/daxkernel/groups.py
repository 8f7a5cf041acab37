"""Finitely generated groups with a decidable normal form.

Supported classes: trivial, free, free abelian, finite cyclic, and finite
direct products of these.  Arbitrary finitely presented groups are rejected
(their word problem is undecidable in general); every group needed by the
embedding-space computations falls into the supported classes.

Words are stored in a canonical normal form, so equality of group elements
is equality of ``Word`` values.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from operator import itemgetter
from types import MethodType

from .errors import (
    BallOverflowError,
    GroupParseError,
    SpecMismatchError,
    UnknownGeneratorError,
    UnsupportedClassError,
)
from .record import Frozen, set_field

FREE = "free"
FREE_ABELIAN = "free_abelian"
FINITE_CYCLIC = "finite_cyclic"


class Factor(Frozen):
    """One direct factor: a free, free-abelian or finite-cyclic group."""

    _fields = ("kind", "gens", "order")

    def __init__(self, kind: str, gens: tuple[str, ...], order: int = 0):
        # order: the modulus of a finite_cyclic factor, 0 otherwise
        if kind not in (FREE, FREE_ABELIAN, FINITE_CYCLIC):
            raise UnsupportedClassError(f"unknown factor kind {kind!r}")
        if not gens:
            raise UnsupportedClassError("factor must have at least one generator")
        if kind == FINITE_CYCLIC:
            if len(gens) != 1:
                raise UnsupportedClassError("finite cyclic factor has one generator")
            if order < 1:
                raise UnsupportedClassError("finite cyclic order must be >= 1")
        set_field(self, "kind", kind)
        set_field(self, "gens", gens)
        set_field(self, "order", order)

    @property
    def abelian(self) -> bool:
        return self.kind in (FREE_ABELIAN, FINITE_CYCLIC)


class _SpecParts:
    """What the kernels ``mul_letters`` and ``inv_letters`` read of a spec,
    and are bound to in its place: its ``factors``, ``_index`` and
    ``_negated``.  A class with slots, so that the kernels' reads of these
    are specialized attribute loads."""

    __slots__ = ("factors", "_index", "_negated")

    def __init__(self, factors: tuple[Factor, ...], index: dict, negated):
        self.factors, self._index, self._negated = factors, index, negated


class GroupSpec(Frozen):
    """A direct product of supported factors; no factors means the trivial group.

    Its product and inverse kernels on normal-form letter tuples, ``_mul(a, b)``
    and ``_inv(a)``, are bound once, at construction: a spec of one free
    factor binds that factor's own bodies, ``_free_join`` and
    ``_free_inverse`` (bound to the spec's negation table), and every other
    spec binds ``mul_letters`` and ``inv_letters`` to the parts of itself
    that they read (``_SpecParts``).  No kernel holds the spec, so a spec
    is freed as soon as it is dropped, without waiting for the cycle
    collector.  Each kernel returns what those two return, so the hot
    loops of relation assembly call the kernel and skip the dispatch on
    factors.

    The spec's negation table, a plain dict kept through its lookup
    ``_negated`` (the dict's ``__getitem__``), maps a letter of a free
    factor to its negated letter and is filled on a miss by
    ``_free_inverse``: a free inverse reads its letters there, so inverses
    of equal words share their letter objects and build only the outer
    tuple.  Kernels and table take no part in equality, hashing or
    ``repr``; a pickled copy is built anew from its factors, with an empty
    table.
    """

    _fields = ("factors",)

    def __init__(self, factors: tuple[Factor, ...]):
        # name -> (factor index, global index, cyclic order or 0): the one
        # lookup per letter of the word functions below
        index: dict[str, tuple[int, int, int]] = {}
        g = 0
        for fi, fac in enumerate(factors):
            order = fac.order if fac.kind == FINITE_CYCLIC else 0
            for name in fac.gens:
                if name in index:
                    raise UnsupportedClassError(f"duplicate generator name {name!r}")
                index[name] = (fi, g, order)
                g += 1
        # the lookup of the negation table, free letter -> its negated letter
        negated = {}.__getitem__
        if len(factors) == 1 and factors[0].kind == FREE:
            kernels = _free_join, MethodType(_free_inverse, negated)
        else:
            # bound as methods: a call costs about what a direct one does
            parts = _SpecParts(factors, index, negated)
            kernels = MethodType(mul_letters, parts), MethodType(inv_letters, parts)
        set_field(self, "factors", factors)
        set_field(self, "_index", index)
        # the generators of free-abelian and finite-cyclic factors, which
        # commute with every generator: a word of these alone is central
        set_field(self, "_central", frozenset(
            name for fac in factors if fac.abelian for name in fac.gens))
        set_field(self, "_mul", kernels[0])
        set_field(self, "_inv", kernels[1])
        set_field(self, "_negated", negated)
        set_field(self, "_hash", hash(factors))

    @property
    def generators(self) -> tuple[str, ...]:
        return tuple(n for fac in self.factors for n in fac.gens)

    def factor_of(self, name: str) -> tuple[int, Factor]:
        try:
            fi = self._index[name][0]
        except KeyError:
            raise UnknownGeneratorError(f"unknown generator {name!r}") from None
        return fi, self.factors[fi]

    def commute(self, a: str, b: str) -> bool:
        """Whether generators a and b commute as a consequence of the spec."""
        fa, fac_a = self.factor_of(a)
        fb, _ = self.factor_of(b)
        return fa != fb or fac_a.abelian or a == b

    def identity(self) -> "Word":
        return Word(self, ())

    def word(self, letters: Iterable[tuple[str, int]]) -> "Word":
        return normalize(letters, self)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # a copy is built anew from its factors, kernels included
        return GroupSpec, (self.factors,)

    def __eq__(self, other):
        return self is other or (isinstance(other, GroupSpec)
                                 and self._hash == other._hash
                                 and self.factors == other.factors)

    def __str__(self):
        return render_group_spec(self)


class Word(Frozen):
    """A group element in canonical normal form.

    Letters are (generator, exponent) pairs: freely reduced syllables for free
    factors, one letter per generator for abelian factors in declaration
    order (exponents in ``[1, m)`` for finite cyclic order m), with factor
    blocks concatenated in declaration order.

    The hash is computed once, at construction; a Word is immutable.  It has
    slots and no per-instance dict, because relation sets and pairing tables
    keep many Words alive at once.  Every ``mul`` and ``inv`` builds one, so
    the constructor stores the three slots through their member
    descriptors, past the frozen ``__setattr__``, and takes the letters as
    given (``normalize`` makes a normal form of raw letters).  A pickled
    Word is rebuilt by its constructor.
    """

    __slots__ = ("spec", "letters", "_hash")
    _fields = ("spec", "letters")

    def __init__(self, spec: GroupSpec, letters: tuple[tuple[str, int], ...]):
        _set_spec(self, spec)
        _set_letters(self, letters)
        _set_hash(self, hash((spec._hash, letters)))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.letters == other.letters
                and (self.spec is other.spec or self.spec == other.spec))

    def __reduce__(self):
        return Word, (self.spec, self.letters)

    def __str__(self):
        return render_word(self)

    def __mul__(self, other: "Word") -> "Word":
        return mul(self, other)


# the slots' member descriptors, which ``Word.__init__`` writes through
_set_spec = Word.spec.__set__
_set_letters = Word.letters.__set__
_set_hash = Word._hash.__set__


def normalize(letters: Iterable[tuple[str, int]], spec: GroupSpec) -> Word:
    """Canonical form of a raw letter sequence.

    Two raw sequences representing the same group element yield equal Words.
    Each raw letter is read as its one-letter normal form (a cyclic exponent
    taken modulo the order, a zero exponent dropped), and these are joined
    by the product, ``mul_letters``, halves first, so a literal of n letters
    costs O(n log n).  Products and inverses of Words do not come here:
    ``mul`` and ``inv`` combine normal forms directly.
    """
    index = spec._index
    units = []
    try:
        for name, exp in letters:
            order = index[name][2]
            exp = exp % order if order else exp
            if exp:
                units.append(((name, exp),))
    except KeyError as exc:
        raise UnknownGeneratorError(f"unknown generator {exc.args[0]!r}") from None
    return Word(spec, _mul_halves(spec, units))


def _mul_halves(spec: GroupSpec, forms: list) -> tuple:
    """The product of a list of normal forms' letters, each half's product
    taken first."""
    if len(forms) < 2:
        return forms[0] if forms else ()
    mid = len(forms) // 2
    return mul_letters(spec, _mul_halves(spec, forms[:mid]), _mul_halves(spec, forms[mid:]))


def _free_join(left: tuple, right: tuple) -> tuple:
    """Product of two freely reduced letter tuples of one free factor.

    Letters can cancel or merge only where the two meet: pop or merge at the
    end of ``left`` while the next letter of ``right`` has the same name.
    """
    i, j, n = len(left), 0, len(right)
    while i and j < n:
        name, exp = right[j]
        last, e = left[i - 1]
        if last != name:
            break
        e += exp
        if e:
            return left[:i - 1] + ((name, e),) + right[j + 1:]
        i -= 1
        j += 1
    return left[:i] + right[j:]


def _join(index: dict, fac: Factor, left: tuple, right: tuple) -> tuple:
    """Product of two nonempty normal-form blocks of the factor ``fac``;
    ``index`` is the spec's, whose global indices order the generators."""
    if fac.kind == FREE:
        return _free_join(left, right)
    if len(fac.gens) == 1:
        # Z<t> or Z/m<u>: one letter each side, whose exponents add
        (name, e), = left
        e += right[0][1]
        if fac.order:
            e %= fac.order
        return ((name, e),) if e else ()
    # Z<a,b,...>: merge the two runs in declaration order (not by name),
    # adding the exponents of a generator both hold and dropping a zero
    out = []
    i, j, m, n = 0, 0, len(left), len(right)
    while i < m and j < n:
        (x, e), (y, f) = left[i], right[j]
        gx, gy = index[x][1], index[y][1]
        if gx < gy:
            out.append(left[i])
            i += 1
        elif gy < gx:
            out.append(right[j])
            j += 1
        else:
            if e + f:
                out.append((x, e + f))
            i, j = i + 1, j + 1
    return tuple(out) + left[i:] + right[j:]


def _free_inverse(negated, block: tuple) -> tuple:
    """Inverse of a freely reduced letter tuple of free factors: its letters
    reversed, each exponent negated.

    ``negated`` is the lookup of the spec's negation table,
    ``GroupSpec._negated``, the table's ``__getitem__``; a letter missing
    there is added first.  Every inverse of an equal word holds the same
    letter objects, and only the outer tuple is built.  A spec of one free
    factor binds this to its table as its kernel ``GroupSpec._inv``.
    """
    try:
        return (*map(negated, reversed(block)),)
    except KeyError:
        neg = negated.__self__
        for x in block:
            neg.setdefault(x, (x[0], -x[1]))
        return (*map(negated, reversed(block)),)


def _inverse(spec: GroupSpec, fac: Factor, block: tuple) -> tuple:
    """Inverse of a nonempty normal-form block of the factor ``fac`` of
    ``spec``; a free block reads the spec's negation table."""
    if fac.kind == FREE:
        return _free_inverse(spec._negated, block)
    if fac.kind == FINITE_CYCLIC:
        return tuple([(name, fac.order - e) for name, e in block])
    return tuple([(name, -e) for name, e in block])


def _around(letters: tuple, index: dict, fi: int) -> tuple[int, int]:
    """The positions i <= j of a normal form's letters with letters[:i] in
    factors before ``fi``, letters[i:j] in ``fi`` and letters[j:] after it."""
    n = len(letters)
    i = 0
    while i < n and index[letters[i][0]][0] < fi:
        i += 1
    j = i
    while j < n and index[letters[j][0]][0] == fi:
        j += 1
    return i, j


def mul_letters(spec: GroupSpec, a: tuple, b: tuple) -> tuple:
    """The letters of the product of the normal forms with letters a and b.

    Letters come in factor order, so each operand's first and last letter
    bound its factors, and blocks of different factors commute:

    - a's last factor before b's first: ``a + b``;
    - b's last factor before a's first: ``b + a``;
    - both in one factor: that factor's join of the two;
    - one operand in one factor f: the other's letters before f, the join
      of the two f-blocks, then the other's letters after f;
    - otherwise one merge over the two operands' factor runs, joining the
      runs of a factor that both have.

    A free join cancels where the two blocks meet, a one-generator abelian
    join adds the two exponents (modulo m in ``Z/m``) and drops a zero, and
    a wider free-abelian join merges the two generator-sorted runs, adding
    the exponents of a shared generator.  Nothing is renormalized.
    No ``Word`` is built: relation assembly multiplies letter tuples in its
    inner loops, and ``mul`` wraps this for Words.

    This is the one general product, and every spec but one of a single
    free factor binds it as its kernel ``GroupSpec._mul``, to the spec's
    ``_SpecParts``; that one binds ``_free_join``, which this reaches
    through ``_join`` for such a spec.
    """
    if not b:
        return a
    if not a:
        return b
    factors, index = spec.factors, spec._index
    if len(factors) == 1:
        return _join(index, factors[0], a, b)
    a0, a1 = index[a[0][0]][0], index[a[-1][0]][0]
    b0, b1 = index[b[0][0]][0], index[b[-1][0]][0]
    if a1 < b0:
        return a + b
    if b1 < a0:
        return b + a
    if a0 == a1:
        if b0 == b1:
            return _join(index, factors[a0], a, b)
        i, j = _around(b, index, a0)
        return b[:i] + (_join(index, factors[a0], a, b[i:j]) if i < j else a) + b[j:]
    if b0 == b1:
        i, j = _around(a, index, b0)
        return a[:i] + (_join(index, factors[b0], a[i:j], b) if i < j else b) + a[j:]
    out: list[tuple[str, int]] = []
    i = j = 0
    m, n = len(a), len(b)
    while i < m and j < n:
        fa, fb = index[a[i][0]][0], index[b[j][0]][0]
        if fa < fb:
            out.append(a[i])
            i += 1
        elif fb < fa:
            out.append(b[j])
            j += 1
        else:
            k, l = i + 1, j + 1
            while k < m and index[a[k][0]][0] == fa:
                k += 1
            while l < n and index[b[l][0]][0] == fa:
                l += 1
            out += _join(index, factors[fa], a[i:k], b[j:l])
            i, j = k, l
    return tuple(out) + a[i:] + b[j:]


def inv_letters(spec: GroupSpec, a: tuple) -> tuple:
    """The letters of the inverse of the normal form with letters a.

    Free blocks are reversed with negated exponents, the negated letters
    read from the spec's negation table by ``_free_inverse``; free-abelian
    exponents are negated and a cyclic exponent e becomes ``order - e``.  A
    word whose first and last letters lie in one factor is that factor's
    inverse; a word over several factors is inverted run by run, each run
    in its place, since blocks of different factors commute.  Nothing is
    renormalized, and no ``Word`` is built (``inv`` wraps this for Words).
    It is the kernel ``GroupSpec._inv`` of every spec but one of a single
    free factor, bound as ``mul_letters`` is, and that one binds its
    factor's inverse, ``_free_inverse``.
    """
    if not a:
        return a
    factors = spec.factors
    if len(factors) == 1:
        return _inverse(spec, factors[0], a)
    index = spec._index
    fi = index[a[0][0]][0]
    if fi == index[a[-1][0]][0]:
        return _inverse(spec, factors[fi], a)
    out: list[tuple[str, int]] = []
    start = 0
    for k in range(1, len(a)):
        f = index[a[k][0]][0]
        if f != fi:
            out += _inverse(spec, factors[fi], a[start:k])
            fi, start = f, k
    out += _inverse(spec, factors[fi], a[start:])
    return tuple(out)


def mul(g: Word, h: Word) -> Word:
    """The product g*h of two normal forms (every ``Word`` is one), by
    ``mul_letters``."""
    spec = g.spec
    if spec is not h.spec and spec != h.spec:
        raise SpecMismatchError("cannot multiply words over different group specs")
    a, b = g.letters, h.letters
    if not b:
        return g
    if not a:
        return h if h.spec is spec else Word(spec, b)
    return Word(spec, mul_letters(spec, a, b))


def inv(g: Word) -> Word:
    """The inverse of g, a normal form (as every ``Word`` is), by
    ``inv_letters``."""
    if not g.letters:
        return g
    return Word(g.spec, inv_letters(g.spec, g.letters))


def word_length(w: Word) -> int:
    """Length in the word metric of the declared generating set."""
    return _letters_length(w.spec._index, w.letters)


def word_key(w: Word):
    """Deterministic total order: graded by word length, then lexicographic.

    Each letter keys as (global generator index, |e|, 0 if e > 0 else 1),
    where e is ``shortest_exponent`` of its exponent.
    """
    return key_letters(w.spec, w.letters)


def shortest_exponent(exp: int, order: int) -> int:
    """The shortest signed representative of a normal-form exponent: in a
    cyclic factor of order m (``order``, 0 otherwise) ``exp - m`` when that is
    shorter, the tie at m/2 kept positive."""
    return exp - order if order and exp > order - exp else exp


# The two rules of the shortlex order ``word_key``: a normal form's length,
# and the key of one of its letters.  ``index`` is the spec's ``_index``.

def _letters_length(index: dict, a: tuple) -> int:
    """The word length of the normal form with letters a: the sum of |e|
    over its letters, e the ``shortest_exponent`` of each."""
    total = 0
    for name, exp in a:
        order = index[name][2]
        if order:  # a letter of a free or Z factor is already shortest
            exp = shortest_exponent(exp, order)
        total += exp if exp > 0 else -exp
    return total


def _letter_key(index: dict, name: str, exp: int) -> tuple[int, int, int]:
    """The key of the normal-form letter (name, exp): (global generator
    index, |e|, 0 if e > 0 else 1), e the ``shortest_exponent`` of exp."""
    _, g, order = index[name]
    if order:
        exp = shortest_exponent(exp, order)
    return (g, exp, 0) if exp > 0 else (g, -exp, 1)


def key_letters(spec: GroupSpec, a: tuple):
    """``word_key`` of the normal form with letters a; no ``Word`` is built
    (``word_key`` wraps this for Words)."""
    index = spec._index
    try:
        return (_letters_length(index, a),
                tuple([_letter_key(index, name, exp) for name, exp in a]))
    except KeyError as exc:
        raise UnknownGeneratorError(f"unknown generator {exc.args[0]!r}") from None


class LetterTable:
    """The texts and lengths of the letters of ``spec`` met so far, for
    writing and ordering normal forms from their letters.  ``texts`` maps
    a letter to its text, as ``render_letters`` writes it, and ``lengths``
    maps that text to the letter's length |e|, e its ``shortest_exponent``;
    distinct letters have distinct texts.  Both are computed once, when
    ``parts`` first meets the letter.  Keyed by its text, a length is read
    through the string's cached hash, so ordering words whose parts are at
    hand hashes no letter again."""

    __slots__ = ("spec", "texts", "lengths", "_text")

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.texts: dict[tuple, str] = {}
        self.lengths: dict[str, int] = {}
        # the lookup of ``texts``, bound once
        self._text = self.texts.__getitem__

    def parts(self, letters: tuple) -> list[str]:
        """The texts of ``letters``, in order: joined by ``*``, the text of
        their normal form, other than the identity."""
        try:
            return [*map(self._text, letters)]
        except KeyError:
            texts, index = self.texts, self.spec._index
            for x in letters:
                if x not in texts:
                    text = texts[x] = render_letters((x,))
                    self.lengths[text] = _letters_length(index, (x,))
            return [*map(self._text, letters)]

    def after(self, a: tuple, pa: list[str], b: tuple, pb: list[str]) -> bool:
        """Whether the normal form with letters ``a`` comes after another,
        with letters ``b``, in ``word_key`` order; ``pa`` and ``pb`` are
        their ``parts``.  One shortlex comparison that builds no key: the
        longer comes after, a length being the sum of the letters' lengths,
        and of two of one length the one whose first differing letter keys
        higher (``_letter_key``).  The letter keys of distinct letters
        differ, and neither of two distinct words of one length is a prefix
        of the other, so this is the ``word_key`` order."""
        length = self.lengths.__getitem__
        n, m = sum(map(length, pa)), sum(map(length, pb))
        if n != m:
            return n > m
        index = self.spec._index
        x, y = next((x, y) for x, y in zip(a, b) if x != y)
        return _letter_key(index, *x) > _letter_key(index, *y)


def ball(spec: GroupSpec, radius: int, limit: int = 200_000) -> list[tuple]:
    """The letters of all elements of word length <= radius, identity ``()``
    first, in word_key order; ``Word(spec, a)`` is the element with letters a.

    A normal form is its factor blocks concatenated, and ``word_key``
    concatenates per-letter keys, so each factor's spheres are built on their
    own, letter tuples and keys together and each already in key order
    (``_factor_spheres``).  The ball is their products up to the radius,
    each sphere sorted once on the built keys: a sphere of one piece comes
    sorted, so its sort is one linear pass, and only a product of pieces
    interleaves.  A free-abelian factor of rank k is read as k factors
    ``Z<g>`` (``_pieces``): their product has the same normal forms and
    keys.  No ``mul``, ``normalize`` or ``word_key`` call is made, and no
    ``Word`` is built: the window, relation assembly and the ``target``
    report read an element only through its letters, and a ``Word`` hashes
    its spec and letters when it is built.

    ``limit`` guards against exponentially large balls in free groups: the
    exact size is counted from the pieces' sphere sizes first
    (``_ball_size``), so a larger ball raises ``BallOverflowError`` before
    any element is built.
    """
    if radius < 0:
        return []
    pieces = _pieces(spec)
    if _ball_size(pieces, radius, limit) > limit:
        raise BallOverflowError(
            f"ball of radius {radius} exceeds {limit} elements;"
            " use a smaller window"
        )
    spheres = [[((), ())]]  # the trivial group's one sphere: the identity
    first = 0  # global index of the piece's first generator
    for fac in pieces:
        fac_spheres = _factor_spheres(fac, first, radius)
        # the first piece's spheres are already the product's
        spheres = _product(spheres, fac_spheres, radius) if first else fac_spheres
        first += len(fac.gens)
    out = []
    for sphere in spheres:
        sphere.sort(key=itemgetter(1))
        out += map(itemgetter(0), sphere)
    return out


def _pieces(spec: GroupSpec) -> list[Factor]:
    """The factors of ``spec``, each free-abelian one of rank k as k factors
    ``Z<g>``, in declaration order."""
    return [piece for fac in spec.factors
            for piece in ([Factor(FREE_ABELIAN, (g,)) for g in fac.gens]
                          if fac.kind == FREE_ABELIAN else [fac])]


# Sphere lists, of sizes or of elements, stop at their last nonempty sphere:
# a sphere of length n is nonempty for every n up to that one, in a factor
# and in a product alike, so every pair that ``_pairs`` yields is nonempty.

def _pairs(a: list, b: list, n: int) -> range:
    """The k with spheres a[k] and b[n - k] in the lists a and b."""
    return range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1)


def _product(a: list, b: list, radius: int) -> list:
    """The spheres up to radius of a direct product, from its two sides'."""
    out = []
    for n in range(min(radius, len(a) + len(b) - 2) + 1):
        out.append([(x + y, kx + ky) for k in _pairs(a, b, n)
                    for x, kx in a[k] for y, ky in b[n - k]])
    return out


def _ball_size(factors, radius: int, limit: int) -> int:
    """The ball's size, counted sphere by sphere from the factors' sphere
    sizes (a growth series); the count stops once it passes ``limit``."""
    # prods[i]: the sphere sizes of the product of the first i factors
    prods = [[1] for _ in range(len(factors) + 1)]
    facs = [[1] for _ in factors]
    total = 1
    for n in range(1, radius + 1):
        for i, fac in enumerate(factors):
            size = _sphere_size(fac, n)
            if size:
                facs[i].append(size)
            a, b = prods[i], facs[i]
            size = sum(a[k] * b[n - k] for k in _pairs(a, b, n))
            if size:
                prods[i + 1].append(size)
        if len(prods[-1]) <= n:
            break  # a finite group: every further sphere is empty
        total += prods[-1][n]
        if total > limit:
            break
    return total


def _sphere_size(fac: Factor, n: int) -> int:
    """The number of elements of word length n >= 1 in a free factor or a
    one-generator one."""
    if fac.kind == FREE:
        k = len(fac.gens)
        return 2 * k * (2 * k - 1) ** (n - 1)
    m = fac.order  # t^n and t^-n; in Z/m u^n and u^(m-n), one at n = m/2
    return 0 if m and 2 * n > m else 1 if 2 * n == m else 2


def _factor_spheres(fac: Factor, first: int, radius: int) -> list[list[tuple]]:
    """The nonempty spheres of radius 0..radius in a free factor or a
    one-generator one, each a list of (letters, key) pairs in ``word_key``
    order: the normal form's letters and its ``word_key`` letter keys, with
    generator indices counted from ``first``.

    In a free factor of rank >= 2, a word of length n is a first syllable
    x^(+-k), k <= n, followed by a word of length n-k that does not start
    with x.  Keys compare letter by letter, so sphere n is, for each
    syllable in key order (generator, then k, then positive first), that
    syllable prefixed to the words of sphere n-k not starting with x, in
    their own order.  Each sphere is kept split by its words' first
    generator, so those words are the other generators' parts joined.
    A free factor ``F<x>`` of rank 1 takes the one-generator branch, as
    ``Z<t>`` does: its spheres are x^n and x^-n, where the prefix loop
    would try n syllables per sphere, O(radius^2) in all.
    """
    spheres = [[((), ())]]
    if fac.kind == FREE and len(fac.gens) > 1:
        gens = [(name, first + i) for i, name in enumerate(fac.gens)]
        # split[m]: sphere m as (i, the words starting with gens[i]) in key
        # order, the identity's i -1 since it starts with no generator
        split = [[(-1, spheres[0])]]
        for n in range(1, radius + 1):
            parts = []
            for i, (name, g) in enumerate(gens):
                part = []
                for k in range(1, n + 1):
                    for syllable, head in ((((name, k),), ((g, k, 0),)),
                                           (((name, -k),), ((g, k, 1),))):
                        part += [(syllable + letters, head + key)
                                 for j, words in split[n - k] if j != i
                                 for letters, key in words]
                parts.append((i, part))
            split.append(parts)
            spheres.append([w for _, part in parts for w in part])
        return spheres
    # Z<t> and F<x>: t^n and t^-n; Z/m<u>: the shortest exponents n and
    # n - m, the second written m - n, and at n = m/2 only the positive tie
    name, = fac.gens
    m = fac.order
    for n in range(1, (min(radius, m // 2) if m else radius) + 1):
        sphere = [(((name, n),), ((first, n, 0),))]
        if 2 * n != m:
            sphere.append((((name, m - n),), ((first, n, 1),)))
        spheres.append(sphere)
    return spheres


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

# The literal grammars.  Space may come between any two tokens but ``Z/``
# and its order; numbers are ASCII digits.  A group spec is
# factors joined by ``x``: ``1``, ``Z<names>``, ``F<names>`` or ``Z/m<g>``
# with m >= 1.  A word is syllables ``name`` or ``name^exponent`` joined by
# ``*``, or ``1`` for the identity.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_FACTOR_RE = re.compile(rf"""\s*(?:
    1
  | Z/(?P<order>0*[1-9][0-9]*)\s*<\s*(?P<gen>{_NAME})\s*>
  | (?P<kind>[ZF])\s*<\s*(?P<names>{_NAME}(?:\s*,\s*{_NAME})*)\s*>
)\s*(?P<sep>x|\Z)""", re.VERBOSE)
_SYLLABLE_RE = re.compile(rf"\s*({_NAME})\s*(?:\^\s*([+-]?[0-9]+)\s*)?")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse ``Z<t>``, ``F<x,y>``, ``Z/3<u>``, ``1`` and x-products thereof.

    A ``GroupParseError`` gives the offset of the first factor that does
    not parse or is not followed by ``x`` or the end; a presentation with
    relators (``|`` or ``=``) raises ``UnsupportedClassError``.
    """
    if "|" in text or "=" in text:
        raise UnsupportedClassError(
            "presentations with relators describe an undecidable class;"
            " supported classes: 1, Z<...>, F<...>, Z/m<g> and their products"
        )
    factors = []
    pos = 0
    while True:
        m = _FACTOR_RE.match(text, pos)
        if not m:
            raise GroupParseError("expected a factor 1, Z<names>, F<names> or"
                                  " Z/m<name>, then 'x' or the end",
                                  text, len(text) - len(text[pos:].lstrip()))
        if m["gen"]:
            # Z/1 is trivial, but kept as a factor: its generator names the
            # identity, and every word of it normalizes away
            factors.append(Factor(FINITE_CYCLIC, (m["gen"],), int(m["order"])))
        elif m["kind"]:
            kind = FREE_ABELIAN if m["kind"] == "Z" else FREE
            factors.append(Factor(kind, tuple(re.findall(_NAME, m["names"]))))
        if not m["sep"]:
            return GroupSpec(tuple(factors))
        pos = m.end()


def render_group_spec(spec: GroupSpec) -> str:
    if not spec.factors:
        return "1"
    parts = []
    for fac in spec.factors:
        names = ",".join(fac.gens)
        if fac.kind == FREE:
            parts.append(f"F<{names}>")
        elif fac.kind == FREE_ABELIAN:
            parts.append(f"Z<{names}>")
        else:
            parts.append(f"Z/{fac.order}<{names}>")
    return " x ".join(parts)


def parse_word(text: str, spec: GroupSpec) -> Word:
    """Parse a word literal: ``t^2*s^-1`` style, ``1`` for the identity.

    Syllables are read left to right, each checked for syntax and then for
    its generator, so the first bad syllable decides the error: a
    ``GroupParseError`` at its offset or an ``UnknownGeneratorError``.
    """
    if text.strip() == "1":
        return spec.identity()
    letters = []
    pos = 0
    for part in text.split("*"):
        m = _SYLLABLE_RE.fullmatch(part)
        if not m:
            raise GroupParseError("expected a syllable name or name^exponent", text, pos)
        name, exp = m.groups()
        spec.factor_of(name)  # raises UnknownGeneratorError
        letters.append((name, int(exp or 1)))
        pos += len(part) + 1
    return normalize(letters, spec)


def render_word(w: Word) -> str:
    return render_letters(w.letters)


def render_letters(a: tuple) -> str:
    """The text of the normal form with letters a, ``1`` for the identity;
    no ``Word`` is built (``render_word`` wraps this for Words)."""
    if not a:
        return "1"
    return "*".join([name if exp == 1 else f"{name}^{exp}" for name, exp in a])
