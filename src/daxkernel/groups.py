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
from dataclasses import dataclass, field
from math import comb
from operator import itemgetter
from typing import Iterable

from .errors import (
    BallOverflowError,
    GroupParseError,
    SpecMismatchError,
    UnknownGeneratorError,
    UnsupportedClassError,
)

FREE = "free"
FREE_ABELIAN = "free_abelian"
FINITE_CYCLIC = "finite_cyclic"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Factor:
    """One direct factor: a free, free-abelian or finite-cyclic group."""

    kind: str
    gens: tuple[str, ...]
    order: int = 0  # modulus for finite_cyclic, 0 otherwise

    def __post_init__(self):
        if self.kind not in (FREE, FREE_ABELIAN, FINITE_CYCLIC):
            raise UnsupportedClassError(f"unknown factor kind {self.kind!r}")
        if not self.gens:
            raise UnsupportedClassError("factor must have at least one generator")
        if self.kind == FINITE_CYCLIC:
            if len(self.gens) != 1:
                raise UnsupportedClassError("finite cyclic factor has one generator")
            if self.order < 1:
                raise UnsupportedClassError("finite cyclic order must be >= 1")

    @property
    def abelian(self) -> bool:
        return self.kind in (FREE_ABELIAN, FINITE_CYCLIC)


@dataclass(frozen=True)
class GroupSpec:
    """A direct product of supported factors; no factors means the trivial group."""

    factors: tuple[Factor, ...]
    # name -> (factor index, global index, cyclic order or 0): the one
    # lookup per letter of the word functions below
    _index: dict = field(init=False, repr=False, compare=False, hash=False)
    # the generators of free-abelian and finite-cyclic factors, which
    # commute with every generator: a word of these alone is central
    _central: frozenset = field(init=False, repr=False, compare=False, hash=False)
    _hash: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        index: dict[str, tuple[int, int, int]] = {}
        g = 0
        for fi, fac in enumerate(self.factors):
            order = fac.order if fac.kind == FINITE_CYCLIC else 0
            for name in fac.gens:
                if name in index:
                    raise UnsupportedClassError(f"duplicate generator name {name!r}")
                index[name] = (fi, g, order)
                g += 1
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_central", frozenset(
            name for fac in self.factors if fac.abelian for name in fac.gens))
        object.__setattr__(self, "_hash", hash(self.factors))

    @property
    def generators(self) -> tuple[str, ...]:
        return tuple(n for fac in self.factors for n in fac.gens)

    @property
    def is_trivial(self) -> bool:
        return all(f.kind == FINITE_CYCLIC and f.order == 1 for f in self.factors)

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

    def __eq__(self, other):
        return self is other or (isinstance(other, GroupSpec)
                                 and self._hash == other._hash
                                 and self.factors == other.factors)

    def __str__(self):
        return render_group_spec(self)


@dataclass(frozen=True, slots=True, init=False)
class Word:
    """A group element in canonical normal form.

    Letters are (generator, exponent) pairs: freely reduced syllables for free
    factors, one sorted letter per generator for abelian factors (exponents in
    ``[1, m)`` for finite cyclic order m), with factor blocks concatenated in
    declaration order.

    The hash is computed once, at construction; a Word is immutable.  It has
    slots and no per-instance dict, because relation sets and pairing tables
    keep many Words alive at once.  Every ``mul`` and ``inv`` builds one, so
    the constructor is written by hand: it stores the three slots through
    their member descriptors, past the frozen ``__setattr__``, and takes the
    letters as given (``normalize`` makes a normal form of raw letters).
    """

    spec: GroupSpec
    letters: tuple[tuple[str, int], ...]
    _hash: int = field(init=False, repr=False, compare=False, hash=False)

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
    Products and inverses of Words do not come here: ``mul`` and ``inv``
    combine normal forms directly.
    """
    index = spec._index
    per_factor: list[list[tuple[str, int]]] = [[] for _ in spec.factors]
    try:
        for name, exp in letters:
            fi = index[name][0]
            if exp != 0:
                per_factor[fi].append((name, exp))
    except KeyError as exc:
        raise UnknownGeneratorError(f"unknown generator {exc.args[0]!r}") from None

    out: list[tuple[str, int]] = []
    for fac, chunk in zip(spec.factors, per_factor):
        if not chunk:
            continue
        if fac.kind == FREE:
            out += _free_reduce(chunk)
        else:
            out += _abelian_sum(fac, chunk)
    return Word(spec, tuple(out))


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


def _free_reduce(letters: list) -> tuple:
    """Free reduction of raw letters (no zero exponents), halves joined."""
    if len(letters) < 2:
        return tuple(letters)
    mid = len(letters) // 2
    return _free_join(_free_reduce(letters[:mid]), _free_reduce(letters[mid:]))


def _abelian_sum(fac: Factor, letters) -> tuple:
    """Exponent sum per generator of an abelian factor, in ``fac.gens`` order."""
    totals = dict.fromkeys(fac.gens, 0)
    for name, exp in letters:
        totals[name] += exp
    cyclic = fac.kind == FINITE_CYCLIC
    out = []
    for name, e in totals.items():
        if cyclic:
            e %= fac.order
        if e:
            out.append((name, e))
    return tuple(out)


def _blocks(letters: tuple, index: dict) -> dict[int, tuple]:
    """Split a normal form into its factor blocks: factor index -> letters."""
    blocks = {}
    start = 0
    fi = index[letters[0][0]][0]
    for k in range(1, len(letters)):
        f = index[letters[k][0]][0]
        if f != fi:
            blocks[fi] = letters[start:k]
            fi, start = f, k
    blocks[fi] = letters[start:]
    return blocks


def _join(fac: Factor, left: tuple, right: tuple) -> tuple:
    if fac.kind == FREE:
        return _free_join(left, right)
    return _abelian_sum(fac, left + right)


def _inverse(fac: Factor, block: tuple) -> list:
    if fac.kind == FREE:
        return [(name, -e) for name, e in reversed(block)]
    if fac.kind == FINITE_CYCLIC:
        return [(name, fac.order - e) for name, e in block]
    return [(name, -e) for name, e in block]


def mul_letters(spec: GroupSpec, a: tuple, b: tuple) -> tuple:
    """The letters of the product of the normal forms with letters a and b.

    Their letters are combined where the two words meet, factor block by
    factor block; nothing is renormalized.  No ``Word`` is built: relation
    assembly multiplies letter tuples in its inner loops, and ``mul`` wraps
    this for Words.
    """
    if not b:
        return a
    if not a:
        return b
    factors = spec.factors
    if len(factors) == 1:
        return _join(factors[0], a, b)
    index = spec._index
    if index[a[-1][0]][0] < index[b[0][0]][0]:
        return a + b
    left, right = _blocks(a, index), _blocks(b, index)
    out: list[tuple[str, int]] = []
    for fi, fac in enumerate(factors):
        x, y = left.get(fi, ()), right.get(fi, ())
        out += _join(fac, x, y) if x and y else x + y
    return tuple(out)


def inv_letters(spec: GroupSpec, a: tuple) -> tuple:
    """The letters of the inverse of the normal form with letters a.

    Free blocks are reversed with negated exponents, free-abelian exponents
    negated and a cyclic exponent e becomes ``order - e``; nothing is
    renormalized, and no ``Word`` is built (``inv`` wraps this for Words).
    """
    if not a:
        return a
    factors = spec.factors
    if len(factors) == 1:
        return tuple(_inverse(factors[0], a))
    out: list[tuple[str, int]] = []
    for fi, block in _blocks(a, spec._index).items():
        out += _inverse(factors[fi], block)
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
    return word_key(w)[0]


def word_key(w: Word):
    """Deterministic total order: graded by word length, then lexicographic.

    Each letter keys as (global generator index, |e|, 0 if e > 0 else 1),
    where e is the shortest signed representative of its exponent.
    """
    return key_letters(w.spec, w.letters)


def key_letters(spec: GroupSpec, a: tuple):
    """``word_key`` of the normal form with letters a; no ``Word`` is built
    (``word_key`` wraps this for Words)."""
    index = spec._index
    total = 0
    letters = []
    try:
        for name, exp in a:
            _, g, order = index[name]
            if order and exp > order - exp:
                exp -= order
            if exp > 0:
                letters.append((g, exp, 0))
                total += exp
            else:
                letters.append((g, -exp, 1))
                total -= exp
    except KeyError as exc:
        raise UnknownGeneratorError(f"unknown generator {exc.args[0]!r}") from None
    return (total, tuple(letters))


def ball(spec: GroupSpec, radius: int, limit: int = 200_000) -> list[Word]:
    """All elements of word length <= radius, identity first, in word_key order.

    A normal form is its factor blocks concatenated, and ``word_key``
    concatenates per-letter keys, so each factor's spheres are built on their
    own, letter tuples and keys together (``_factor_spheres``), and the ball
    is their products up to the radius, sorted once on the built keys.  No
    ``mul``, ``normalize`` or ``word_key`` call is made.

    ``limit`` guards against exponentially large balls in free groups: the
    exact size is counted from the factors' sphere sizes first
    (``_ball_size``), so a larger ball raises ``BallOverflowError`` before
    any element is built.
    """
    if radius < 0:
        return []
    if _ball_size(spec.factors, radius, limit) > limit:
        raise BallOverflowError(
            f"ball of radius {radius} exceeds {limit} elements;"
            " use a smaller window"
        )
    spheres = [[((), ())]]  # the trivial group's one sphere: the identity
    first = 0  # global index of the factor's first generator
    for fac in spec.factors:
        fac_spheres = _factor_spheres(fac, first, radius)
        # the first factor's spheres are already the product's
        spheres = _product(spheres, fac_spheres, radius) if first else fac_spheres
        first += len(fac.gens)
    out = []
    for sphere in spheres:
        sphere.sort(key=itemgetter(1))
        out += [Word(spec, letters) for letters, _ in sphere]
    return out


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
    """The number of elements of word length n >= 1 in one factor."""
    k = len(fac.gens)
    if fac.kind == FREE:
        return 2 * k * (2 * k - 1) ** (n - 1)
    if fac.kind == FREE_ABELIAN:
        # a vector of l1 norm n with j nonzero entries chooses them, their
        # signs, and a composition of n into j positive parts
        return sum(comb(k, j) * comb(n - 1, j - 1) * 2 ** j for j in range(1, k + 1))
    m = fac.order  # Z/m: the exponents n and m - n, one at the tie n = m/2
    return 0 if 2 * n > m else 1 if 2 * n == m else 2


def _factor_spheres(fac: Factor, first: int, radius: int) -> list[list[tuple]]:
    """The nonempty spheres of radius 0..radius in one factor, each a list
    of (letters, key) pairs: the normal form's letters and its ``word_key``
    letter keys, with generator indices counted from ``first``."""
    gens = [(name, first + i) for i, name in enumerate(fac.gens)]
    spheres = [[((), ())]]
    if fac.kind == FREE:
        # a word of length n is one of length n-1 with a new syllable
        # appended, or with its last syllable grown away from zero
        for _ in range(radius):
            nxt = []
            for letters, key in spheres[-1]:
                last = None
                if letters:
                    last, e = letters[-1]
                    g, size, neg = key[-1]
                    nxt.append((letters[:-1] + ((last, e - 1 if neg else e + 1),),
                                key[:-1] + ((g, size + 1, neg),)))
                for name, g in gens:
                    if name != last:
                        nxt.append((letters + ((name, 1),), key + ((g, 1, 0),)))
                        nxt.append((letters + ((name, -1),), key + ((g, 1, 1),)))
            spheres.append(nxt)
    elif fac.kind == FREE_ABELIAN:
        # exponent vectors of l1 norm n, generators in declaration order
        for n in range(1, radius + 1):
            sphere = [((), ())]
            for i, (name, g) in enumerate(gens):
                nxt = []
                for letters, key in sphere:
                    left = n - sum(size for _, size, _ in key)
                    sizes = [left] if i == len(gens) - 1 else range(left + 1)
                    for size in sizes:  # the last generator takes what is left
                        if size:
                            nxt.append((letters + ((name, size),), key + ((g, size, 0),)))
                            nxt.append((letters + ((name, -size),), key + ((g, size, 1),)))
                        else:
                            nxt.append((letters, key))
                sphere = nxt
            spheres.append(sphere)
    else:
        # Z/m: the shortest signed exponents; at n = m/2 the tie is positive
        (name, g), = gens
        m = fac.order
        for n in range(1, min(radius, m // 2) + 1):
            sphere = [(((name, n),), ((g, n, 0),))]
            if 2 * n < m:
                sphere.append((((name, m - n),), ((g, n, 1),)))
            spheres.append(sphere)
    return spheres


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def parse_group_spec(text: str) -> GroupSpec:
    """Parse ``Z<t>``, ``F<x,y>``, ``Z/3<u>``, ``1`` and x-products thereof."""
    if "|" in text or "=" in text:
        raise UnsupportedClassError(
            "presentations with relators describe an undecidable class;"
            " supported classes: 1, Z<...>, F<...>, Z/m<g> and their products"
        )
    pos = 0
    n = len(text)

    def skip_ws(p):
        while p < n and text[p].isspace():
            p += 1
        return p

    def fail(msg, p):
        raise GroupParseError(msg, text, p)

    def parse_names(p):
        names = []
        while True:
            p = skip_ws(p)
            m = _NAME_RE.match(text, p)
            if not m:
                fail("expected generator name", p)
            names.append(m.group(0))
            p = skip_ws(m.end())
            if p < n and text[p] == ",":
                p += 1
                continue
            return names, p

    def parse_factor(p):
        p = skip_ws(p)
        if p >= n:
            fail("expected a factor", p)
        if text[p] == "1":
            return None, p + 1
        if text.startswith("Z/", p):
            p += 2
            m = re.match(r"\d+", text[p:])
            if not m:
                fail("expected cyclic order after Z/", p)
            order = int(m.group(0))
            if order < 1:
                fail("cyclic order must be >= 1", p)
            p += m.end()
            p = skip_ws(p)
            if p >= n or text[p] != "<":
                fail("expected '<'", p)
            names, p = parse_names(p + 1)
            if len(names) != 1:
                fail("finite cyclic factor takes a single generator", p)
            p = skip_ws(p)
            if p >= n or text[p] != ">":
                fail("expected '>'", p)
            # Z/1 is trivial, but kept as a factor: its generator names the
            # identity, and every word of it normalizes away
            return Factor(FINITE_CYCLIC, tuple(names), order), p + 1
        if text[p] in "ZF":
            kind = FREE_ABELIAN if text[p] == "Z" else FREE
            p = skip_ws(p + 1)
            if p >= n or text[p] != "<":
                fail("expected '<'", p)
            names, p = parse_names(p + 1)
            p = skip_ws(p)
            if p >= n or text[p] != ">":
                fail("expected '>'", p)
            return Factor(kind, tuple(names)), p + 1
        fail("expected one of '1', 'Z', 'F', 'Z/'", p)

    factors = []
    while True:
        fac, pos = parse_factor(pos)
        if fac is not None:
            factors.append(fac)
        pos = skip_ws(pos)
        if pos < n and text[pos] == "x":
            pos += 1
            continue
        break
    pos = skip_ws(pos)
    if pos != n:
        raise GroupParseError("unexpected trailing input", text, pos)
    return GroupSpec(tuple(factors))


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
    """Parse a word literal: ``t^2*s^-1`` style, ``1`` for the identity."""
    s = text.strip()
    if s == "1":
        return spec.identity()
    if not s:
        raise GroupParseError("empty word literal", text, 0)
    letters = []
    pos = 0
    for part in s.split("*"):
        chunk = part.strip()
        m = _NAME_RE.match(chunk)
        if not m:
            raise GroupParseError("expected generator name", text, pos)
        name = m.group(0)
        rest = chunk[m.end():].strip()
        exp = 1
        if rest:
            if not rest.startswith("^"):
                raise GroupParseError("expected '^' or '*'", text, pos + m.end())
            try:
                exp = int(rest[1:])
            except ValueError:
                raise GroupParseError("bad exponent", text, pos + m.end()) from None
        spec.factor_of(name)  # raises UnknownGeneratorError
        letters.append((name, exp))
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
